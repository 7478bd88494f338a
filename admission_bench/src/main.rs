//! Admission benchmark: end-to-end and per-layer cost of run-time
//! spatial mapping on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path admission_bench/Cargo.toml -- \
//!     --workload steady|cold|templates|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics, measured with no probe installed. With `--trace 1`
//! it carries the per-layer metrics of traced runs, which alternate with
//! untraced runs of the same inputs. Any failed correctness gate prints
//! the reason to stderr and exits 1 without a result. METRICS.md maps
//! every metric to its layer.

mod trace;
mod workload;

use rtsm_obs::{Counter, Span};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Summary, CALL};
use workload::Workload;

/// Fewest timed calls per run, so that at least ten lie beyond p99.
const MIN_SAMPLES: usize = 1000;

/// Longest measuring time `--seconds` accepts: one hour.
const MAX_SECONDS: u64 = 3600;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} expects a whole number, got `{v}`"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload `{name}`"))?;
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds > MAX_SECONDS {
        return Err(format!("--seconds is {seconds}, at most {MAX_SECONDS}"));
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: admission_bench --workload steady|cold|templates|churn --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("correctness gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A named, unit-carrying figure.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Derived from counts only, so it repeats exactly at a fixed seed.
    exact: bool,
}

/// A measured time, or a figure derived from one.
fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        exact: false,
    }
}

/// A count, or a figure derived from counts only.
fn exact(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        exact: true,
    }
}

/// What the timed loop of one workload measured.
#[derive(Default)]
struct Measured {
    /// Host time of each set-up; one precedes every untraced run.
    setup_ns: Vec<f64>,
    /// Host time of every untraced `map_constrained` call.
    samples_ns: Vec<u64>,
    /// Median call time of each untraced run.
    run_p50_ns: Vec<f64>,
    /// Events per host second, one per untraced run.
    events_per_s: Vec<f64>,
    /// Host time of each untraced and each traced run.
    plain_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    /// Per-layer metrics, one set per traced run.
    layers: Vec<Vec<Metric>>,
    blocked_permille: f64,
    evicted_permille: f64,
    /// What one run is, for the human-readable header.
    unit_of_work: String,
}

impl Measured {
    /// Builds one run's inputs, timing the set-up.
    fn set_up<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let inputs = build();
        self.setup_ns.push(started.elapsed().as_nanos() as f64);
        inputs
    }

    /// Adds one untraced run's call samples.
    fn add_samples(&mut self, run: &[u64]) {
        let mut sorted = run.to_vec();
        sorted.sort_unstable();
        self.run_p50_ns.push(sorted[rank(sorted.len(), 0.5)] as f64);
        self.samples_ns.extend(run);
    }

    fn done(&self, deadline: Instant) -> bool {
        Instant::now() >= deadline && self.samples_ns.len() >= MIN_SAMPLES
    }
}

fn run(args: &Args) -> Result<(), String> {
    println!(
        "host: available_parallelism={} cpu=\"{}\"",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model()
    );
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let measured = match args.workload {
        Workload::Cold => measure_cold(args, deadline)?,
        _ => measure_sim(args, deadline)?,
    };

    let mut samples = measured.samples_ns.clone();
    samples.sort_unstable();
    let p99_rank = rank(samples.len(), 0.99);
    let runs = measured.run_p50_ns.len();
    let end_to_end = [
        metric("map_p50_us", median(&measured.run_p50_ns) / 1e3, "us"),
        metric("map_p99_us", samples[p99_rank] as f64 / 1e3, "us"),
        metric("events_per_s", median(&measured.events_per_s), "1/s"),
        metric("setup_s", median(&measured.setup_ns) / 1e9, "s"),
    ];
    let support = [
        format!(
            "median of {runs} run medians, runs {}",
            range(&measured.run_p50_ns, 1e-3)
        ),
        format!(
            "nearest rank of {} calls, {} beyond it",
            samples.len(),
            samples.len() - 1 - p99_rank
        ),
        format!(
            "median of {runs} runs, runs {}",
            range(&measured.events_per_s, 1.0)
        ),
        format!("median of {} set-ups", measured.setup_ns.len()),
    ];
    println!(
        "workload {} (seed {}, {} s): {runs} runs of {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        measured.unit_of_work
    );
    for (m, support) in end_to_end.iter().zip(&support) {
        println!("  {:<18} {:>20} {:<4} {support}", m.name, m.value, m.unit);
    }
    for (name, value) in [
        ("blocked_permille", measured.blocked_permille),
        ("evicted_permille", measured.evicted_permille),
    ] {
        println!("  {name:<18} {value:>20} permille exact at a fixed seed");
    }

    let reported = if args.trace {
        let overhead =
            (median_u64(&measured.traced_ns) / median_u64(&measured.plain_ns) - 1.0) * 1000.0;
        let mut layers = median_layers(&measured.layers)?;
        layers.push(metric("obs.trace_overhead_permille", overhead, "permille"));
        println!(
            "  per-layer, median of {} traced runs:",
            measured.layers.len()
        );
        for m in &layers {
            println!("    {:<32} {:>16} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        end_to_end.into()
    };
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not a number", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        samples.len(),
        metrics.join(", ")
    );
    Ok(())
}

/// Repeats set-up and simulation until the deadline; with `--trace 1`,
/// every untraced run is followed by a traced one. Every report must be
/// byte-identical to the first, traced or not.
fn measure_sim(args: &Args, deadline: Instant) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut first: Option<String> = None;
    let mut same_bytes = |json: &str, traced: bool| match &first {
        None => {
            first = Some(json.to_owned());
            Ok(())
        }
        Some(f) if f == json => Ok(()),
        Some(_) if traced => Err("the traced report differs from the untraced one".to_string()),
        Some(_) => Err("a repeated run's report differs from the first".to_string()),
    };
    while !m.done(deadline) {
        let inputs = m.set_up(|| workload::setup_sim(args.workload, args.seed));
        m.unit_of_work = format!("run_sim, {} arrivals each", inputs.config.arrivals);
        let plain = workload::sim_once(&inputs, false)?;
        same_bytes(&plain.json, false)?;
        let r = &plain.report;
        m.blocked_permille = permille(r.blocked, r.arrivals);
        m.evicted_permille = permille(
            r.survivability.as_ref().map_or(0, |s| s.apps_evicted),
            r.admitted,
        );
        m.events_per_s
            .push(plain.events() as f64 / (plain.wall_ns as f64 / 1e9));
        m.plain_ns.push(plain.wall_ns);
        m.add_samples(&plain.samples_ns);
        if args.trace {
            let traced = workload::sim_once(&inputs, true)?;
            same_bytes(&traced.json, true)?;
            let summary = traced.trace.as_ref().expect("traced runs carry a trace");
            let r = &traced.report;
            m.traced_ns.push(traced.wall_ns);
            m.layers.push(layer_metrics(
                summary,
                &Facts {
                    events: traced.events(),
                    sim_self_ns: traced.wall_ns.saturating_sub(summary.root_ns),
                    refinement_attempts: r.refinement_attempts,
                    evaluated_assignments: r.evaluated_assignments,
                    recovered: r
                        .reconfiguration
                        .as_ref()
                        .map_or(0, |c| c.admissions_recovered),
                    blocked_permille: m.blocked_permille,
                    evicted_permille: m.evicted_permille,
                },
            )?);
        }
    }
    Ok(m)
}

/// Repeats set-up and a round of cold admissions (every spec once)
/// until the deadline; with `--trace 1`, every untraced round is followed
/// by a traced one. `events_per_s` here is admissions per host second of
/// `RuntimeManager::start`.
fn measure_cold(args: &Args, deadline: Instant) -> Result<Measured, String> {
    let mut m = Measured::default();
    while !m.done(deadline) {
        let inputs = m.set_up(|| workload::setup_cold(args.seed));
        m.unit_of_work = format!("{} cold admissions each", inputs.len());
        let plain = workload::cold_round(&inputs, false)?;
        let start_ns: u64 = plain.iter().map(|a| a.start_ns).sum();
        m.events_per_s
            .push(plain.len() as f64 / (start_ns as f64 / 1e9));
        m.plain_ns.push(start_ns);
        let samples: Vec<u64> = plain.iter().flat_map(|a| a.samples_ns.clone()).collect();
        m.add_samples(&samples);
        if args.trace {
            let traced = workload::cold_round(&inputs, true)?;
            let mut summary = Summary::default();
            for admission in &traced {
                summary.merge(
                    admission
                        .trace
                        .as_ref()
                        .expect("traced rounds carry a trace"),
                );
            }
            m.traced_ns.push(traced.iter().map(|a| a.start_ns).sum());
            m.layers.push(layer_metrics(
                &summary,
                &Facts {
                    events: 0,
                    sim_self_ns: 0,
                    refinement_attempts: traced.iter().map(|a| a.attempts).sum(),
                    evaluated_assignments: traced.iter().map(|a| a.evaluated).sum(),
                    recovered: 0,
                    blocked_permille: 0.0,
                    evicted_permille: 0.0,
                },
            )?);
        }
    }
    Ok(m)
}

/// Per-run figures the per-layer metrics need beside the trace.
struct Facts {
    events: u64,
    sim_self_ns: u64,
    refinement_attempts: u64,
    evaluated_assignments: u64,
    recovered: u64,
    blocked_permille: f64,
    evicted_permille: f64,
}

/// The per-layer metrics of one traced run (METRICS.md has the table).
fn layer_metrics(s: &Summary, facts: &Facts) -> Result<Vec<Metric>, String> {
    if !s.self_times_add_up() {
        return Err(format!(
            "the trace does not nest: {} unbalanced spans, self times {} ns vs root spans {} ns",
            s.unbalanced,
            s.self_ns.iter().sum::<u64>(),
            s.root_ns
        ));
    }
    if s.n[CALL] == 0 {
        return Err("the traced run timed no map call".into());
    }
    let ratio = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let count = |name, n: u64| exact(name, n as f64, "count");
    let admissions = s.n(Span::Admission);
    let probes = s.counter(Counter::BufferProbe);
    let memo_hits = s.counter(Counter::BufferMemoHit);
    let commits = s.counter(Counter::TxCommit);
    let aborts = s.counter(Counter::TxAbort);
    let hits = s.counter(Counter::TemplateHit);
    let misses = s.counter(Counter::TemplateMiss);
    let map_ns = s.total_ns[Span::Map.index()];
    Ok(vec![
        count("sim.events", facts.events),
        metric("sim.self_ms", facts.sim_self_ns as f64 / 1e6, "ms"),
        count("runtime.admission_n", admissions),
        metric(
            "runtime.admission_self_ms",
            s.self_ms(Span::Admission),
            "ms",
        ),
        count("runtime.plan_eval_n", s.n(Span::PlanEval)),
        metric("runtime.plan_eval_ms", s.total_ms(Span::PlanEval), "ms"),
        count("runtime.evacuate_n", s.n(Span::Evacuate)),
        metric("runtime.evacuate_ms", s.total_ms(Span::Evacuate), "ms"),
        metric("runtime.switch_ms", s.total_ms(Span::Switch), "ms"),
        count("runtime.recovered_n", facts.recovered),
        count("platform.tx_commit_n", commits),
        count("platform.tx_abort_n", aborts),
        exact(
            "platform.tx_abort_ratio",
            ratio(aborts, commits + aborts),
            "ratio",
        ),
        metric("platform.route_self_ms", s.self_ms(Span::Step3), "ms"),
        count("mapper.map_n", s.n(Span::Map)),
        metric("mapper.map_ms", s.total_ms(Span::Map), "ms"),
        count("mapper.step1_n", s.n(Span::Step1)),
        metric("mapper.step1_self_ms", s.self_ms(Span::Step1), "ms"),
        metric("mapper.step2_self_ms", s.self_ms(Span::Step2), "ms"),
        metric("mapper.step4_self_ms", s.self_ms(Span::Step4), "ms"),
        metric(
            "mapper.step4_self_share",
            ratio(s.self_ns[Span::Step4.index()], map_ns),
            "ratio",
        ),
        count("mapper.refinement_attempts", facts.refinement_attempts),
        count("mapper.evaluated_assignments", facts.evaluated_assignments),
        count("dataflow.sizing_n", s.n(Span::BufferSizing)),
        metric("dataflow.sizing_ms", s.total_ms(Span::BufferSizing), "ms"),
        count("dataflow.probe_n", probes),
        count("dataflow.memo_hit_n", memo_hits),
        exact(
            "dataflow.memo_hit_ratio",
            ratio(memo_hits, memo_hits + probes),
            "ratio",
        ),
        exact(
            "dataflow.probes_per_admission",
            ratio(probes, admissions),
            "count",
        ),
        count("template.match_n", s.n(Span::TemplateMatch)),
        metric("template.match_ms", s.total_ms(Span::TemplateMatch), "ms"),
        count("template.hit_n", hits),
        count("template.miss_n", misses),
        exact("template.hit_ratio", ratio(hits, hits + misses), "ratio"),
        exact("blocked_permille", facts.blocked_permille, "permille"),
        exact("evicted_permille", facts.evicted_permille, "permille"),
    ])
}

/// Each metric's median over the traced runs. Counts, and every figure
/// derived only from counts, must repeat exactly.
fn median_layers(runs: &[Vec<Metric>]) -> Result<Vec<Metric>, String> {
    let first = runs.first().ok_or("no traced run finished")?;
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|run| run[i].value).collect();
            if m.exact && values.iter().any(|&v| v != m.value) {
                return Err(format!(
                    "{} differs between traced runs: {values:?}",
                    m.name
                ));
            }
            Ok(Metric {
                value: median(&values),
                ..*m
            })
        })
        .collect()
}

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest and largest of `values`, scaled, as `min..max`.
fn range(values: &[f64], scale: f64) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{:.1}..{:.1}", min * scale, max * scale)
}

fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

fn permille(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 1000.0 / whole as f64
    }
}

/// The processor's brand string, read with CPUID.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: every x86-64 processor implements CPUID, and leaf
        // 0x8000_0000 reports which extended leaves exist.
        #[allow(unused_unsafe)]
        let max_leaf = unsafe { __cpuid(0x8000_0000) }.eax;
        if max_leaf >= 0x8000_0004 {
            let mut brand = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                // SAFETY: the leaf is at most the maximum reported above.
                #[allow(unused_unsafe)]
                let r = unsafe { __cpuid(leaf) };
                for register in [r.eax, r.ebx, r.ecx, r.edx] {
                    brand.extend_from_slice(&register.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&brand)
                .trim_matches(|c: char| c == '\0' || c.is_whitespace())
                .to_string();
        }
    }
    "unknown".to_string()
}
