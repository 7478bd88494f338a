//! The four workloads: their inputs, one run of each, and the
//! correctness gates every run passes.
//!
//! Every run executes on a fresh thread while the caller waits, so the
//! thread-local buffer-sizing memo starts empty and each repeat of a
//! run does exactly the same work; at most two threads exist at once.

use crate::trace::{Recorder, Summary, CALL};
use rtsm_app::ApplicationSpec;
use rtsm_core::template::DEFAULT_SHAPE_CAP;
use rtsm_core::{
    MapError, MapperConfig, MappingAlgorithm, MappingConstraints, MappingOutcome,
    ReconfigurationPolicy, RuntimeManager, SpatialMapper, TemplatedMapper,
};
use rtsm_platform::{Platform, PlatformState};
use rtsm_sim::{
    run_sim, ArrivalProcess, Catalog, FaultConfig, SimConfig, SimReport, TemplateReport,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Platform seed of every mesh, as in `simulate --platform-seed 42`.
const PLATFORM_SEED: u64 = 42;

/// Occupancy sampling interval of the sim workloads (`simulate`'s).
const SAMPLE_INTERVAL: u64 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Cold,
    Templates,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Cold,
        Workload::Templates,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Cold => "cold",
            Workload::Templates => "templates",
            Workload::Churn => "churn",
        }
    }
}

/// The paper's mapper as the simulator registers it (`paper`): search
/// traces are never read, so none are captured.
fn paper_mapper() -> SpatialMapper {
    SpatialMapper::new(MapperConfig::default().without_capture())
}

pub struct SimInputs {
    platform: Platform,
    catalog: Catalog,
    pub config: SimConfig,
    templated: bool,
}

pub struct ColdInputs {
    platforms: Vec<Platform>,
    /// (display name, index into `platforms`, spec), in admission order.
    specs: Vec<(String, usize, Arc<ApplicationSpec>)>,
}

impl ColdInputs {
    pub fn len(&self) -> usize {
        self.specs.len()
    }
}

fn resolve(catalog: &str) -> rtsm_exp::ResolvedCatalog {
    rtsm_exp::resolve_catalog(catalog, PLATFORM_SEED).expect("catalog names are built in")
}

/// Builds the platform and catalog of a sim workload; all workload
/// randomness derives from `seed`.
pub fn setup_sim(workload: Workload, seed: u64) -> SimInputs {
    let resolved = resolve("mixed");
    let config = |arrivals: u64, mean_gap: u64| SimConfig {
        seed,
        arrivals,
        arrival_process: ArrivalProcess::Poisson { mean_gap },
        sample_interval: SAMPLE_INTERVAL,
        ..SimConfig::default()
    };
    let config = match workload {
        Workload::Steady => config(4000, 20_000),
        Workload::Templates => config(4000, 2000),
        Workload::Churn => SimConfig {
            reconfiguration: Some(ReconfigurationPolicy::default()),
            track_fragmentation: true,
            faults: Some(FaultConfig {
                mttf: 10_000,
                mttr: 3000,
                ..FaultConfig::default()
            }),
            ..config(2000, 2000)
        },
        Workload::Cold => unreachable!("cold admissions run outside the simulator"),
    };
    SimInputs {
        platform: resolved.platform,
        catalog: resolved.catalog,
        config,
        templated: workload == Workload::Templates,
    }
}

/// Builds the platforms and the 18 catalog specs of `cold`, in an order
/// drawn from `seed`.
pub fn setup_cold(seed: u64) -> ColdInputs {
    let mut platforms = Vec::new();
    let mut specs = Vec::new();
    for name in ["hiperlan2", "mixed", "synthetic"] {
        let resolved = resolve(name);
        for entry in resolved.catalog.entries() {
            specs.push((entry.name.clone(), platforms.len(), entry.spec.clone()));
        }
        platforms.push(resolved.platform);
    }
    shuffle(&mut specs, seed);
    ColdInputs { platforms, specs }
}

/// Seeded Fisher–Yates shuffle (splitmix64 stream).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// The timing wrapper: times every `map_constrained` call of the wrapped
/// algorithm into exact per-call samples and, when traced, records the
/// call as a span of its own.
struct Timed<A> {
    inner: A,
    samples_ns: RefCell<Vec<u64>>,
    recorder: Option<Rc<Recorder>>,
}

impl<A> Timed<A> {
    fn new(inner: A, recorder: Option<Rc<Recorder>>) -> Self {
        Timed {
            inner,
            samples_ns: RefCell::new(Vec::new()),
            recorder,
        }
    }
}

impl<A: MappingAlgorithm> MappingAlgorithm for Timed<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        if let Some(r) = &self.recorder {
            r.begin(CALL);
        }
        let started = Instant::now();
        let outcome = self
            .inner
            .map_constrained(spec, platform, base, constraints);
        let elapsed = started.elapsed();
        if let Some(r) = &self.recorder {
            r.end(CALL);
        }
        self.samples_ns.borrow_mut().push(elapsed.as_nanos() as u64);
        outcome
    }
}

/// Installs `recorder` (when tracing) as this thread's probe.
fn install(recorder: &Option<Rc<Recorder>>) -> Option<rtsm_obs::ProbeGuard> {
    recorder
        .as_ref()
        .map(|r| rtsm_obs::install(r.clone() as Rc<dyn rtsm_obs::Probe>))
}

/// Runs `f` on a fresh thread and waits for it.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("benchmark thread panicked"))
}

/// One `run_sim` call.
pub struct SimOutcome {
    pub report: SimReport,
    /// The serialized report (with its template section), for byte
    /// comparison between runs.
    pub json: String,
    /// Host time of the whole `run_sim` call.
    pub wall_ns: u64,
    pub samples_ns: Vec<u64>,
    pub trace: Option<Summary>,
}

impl SimOutcome {
    /// Arrivals, departures and mode-switch attempts: the events
    /// `events_per_s` counts.
    pub fn events(&self) -> u64 {
        self.report.arrivals + self.report.departures + self.report.mode_switch_attempts
    }
}

/// Runs the simulation of `inputs` once, on a fresh thread, traced or
/// not, and checks its report.
pub fn sim_once(inputs: &SimInputs, traced: bool) -> Result<SimOutcome, String> {
    let outcome = on_fresh_thread(|| {
        let recorder = traced.then(|| Rc::new(Recorder::new()));
        if inputs.templated {
            let mapper = Timed::new(TemplatedMapper::new(paper_mapper()), recorder.clone());
            let mut outcome = simulate(inputs, &mapper, &recorder)?;
            let stats = mapper.inner.stats();
            outcome.report.templates = Some(TemplateReport::from_stats(stats, DEFAULT_SHAPE_CAP));
            Ok(outcome)
        } else {
            simulate(
                inputs,
                &Timed::new(paper_mapper(), recorder.clone()),
                &recorder,
            )
        }
    });
    let mut outcome = outcome?;
    check_report(&outcome.report, inputs.config.arrivals)?;
    outcome.json = serde_json::to_string(&outcome.report).expect("reports serialize");
    Ok(outcome)
}

fn simulate<A: MappingAlgorithm>(
    inputs: &SimInputs,
    mapper: &Timed<A>,
    recorder: &Option<Rc<Recorder>>,
) -> Result<SimOutcome, String> {
    let guard = install(recorder);
    let started = Instant::now();
    let run = run_sim(&inputs.platform, mapper, &inputs.catalog, &inputs.config);
    let wall_ns = started.elapsed().as_nanos() as u64;
    drop(guard);
    let report = run.map_err(|e| format!("run_sim failed: {e}"))?.report;
    Ok(SimOutcome {
        report,
        json: String::new(),
        wall_ns,
        samples_ns: mapper.samples_ns.take(),
        trace: recorder.as_ref().map(|r| r.summary()),
    })
}

/// The gates every sim report passes: every arrival is accounted for, the
/// ledger drains, and every admitted instance ends exactly once.
fn check_report(r: &SimReport, arrivals: u64) -> Result<(), String> {
    if !r.ledger_idle_at_end {
        return Err("the ledger is not idle after the run".into());
    }
    if r.arrivals != arrivals || r.admitted + r.blocked != r.arrivals {
        return Err(format!(
            "arrivals not conserved: {} offered, {} processed, {} admitted + {} blocked",
            arrivals, r.arrivals, r.admitted, r.blocked
        ));
    }
    // A blocked mode switch loses its instance, unless reconfiguration
    // kept it running under its old configuration.
    let survived = r
        .reconfiguration
        .as_ref()
        .map_or(0, |c| c.mode_switches_survived);
    let lost = r
        .mode_switch_blocked
        .checked_sub(survived)
        .ok_or("more mode switches survived than were blocked")?;
    let evicted = r.survivability.as_ref().map_or(0, |s| s.apps_evicted);
    if r.departures + lost + evicted + r.final_running != r.admitted {
        return Err(format!(
            "instances not conserved: {} departed + {lost} lost at a switch + {evicted} evicted \
             + {} running != {} admitted",
            r.departures, r.final_running, r.admitted
        ));
    }
    Ok(())
}

/// One cold admission.
pub struct ColdOutcome {
    /// Host time of the `RuntimeManager::start` call.
    pub start_ns: u64,
    pub samples_ns: Vec<u64>,
    pub attempts: u64,
    pub evaluated: u64,
    pub trace: Option<Summary>,
}

/// Admits every cold spec once, in order, each on a fresh thread onto an
/// empty platform.
pub fn cold_round(inputs: &ColdInputs, traced: bool) -> Result<Vec<ColdOutcome>, String> {
    inputs
        .specs
        .iter()
        .map(|(name, platform, spec)| {
            on_fresh_thread(|| cold_admit(name, &inputs.platforms[*platform], spec, traced))
        })
        .collect()
}

/// Admits `spec` onto an empty `platform` with an empty sizing memo, then
/// checks that the admitted mapping equals a warm re-map of the same spec
/// in the same thread (the retained CSDF graph aside).
fn cold_admit(
    name: &str,
    platform: &Platform,
    spec: &Arc<ApplicationSpec>,
    traced: bool,
) -> Result<ColdOutcome, String> {
    let recorder = traced.then(|| Rc::new(Recorder::new()));
    let mapper = Timed::new(paper_mapper(), recorder.clone());
    let mut manager = RuntimeManager::new(platform.clone(), &mapper);
    let guard = install(&recorder);
    let started = Instant::now();
    let admitted = manager.start(spec.clone());
    let start_ns = started.elapsed().as_nanos() as u64;
    drop(guard);
    let handle = admitted.map_err(|e| format!("cold admission of `{name}` refused: {e}"))?;
    let outcome = &manager.get(handle).expect("just admitted").outcome;

    let mut warm = MappingAlgorithm::map(&mapper.inner, spec, platform, &platform.initial_state())
        .map_err(|e| format!("warm re-map of `{name}` failed: {e}"))?;
    warm.csdf = None;
    warm.trace = None;
    if *outcome != warm {
        return Err(format!(
            "cold admission of `{name}` differs from its warm re-map"
        ));
    }
    Ok(ColdOutcome {
        start_ns,
        samples_ns: mapper.samples_ns.take(),
        attempts: outcome.attempts as u64,
        evaluated: outcome.evaluated,
        trace: recorder.as_ref().map(|r| r.summary()),
    })
}
