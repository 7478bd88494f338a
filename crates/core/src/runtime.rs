//! The run-time resource manager: multi-application lifecycles over one
//! shared occupancy ledger.
//!
//! The paper's motivation (§1.3) is that "at run-time when starting an
//! application, the actual set of applications already running is known,
//! allowing for a spatial mapping based on actual, rather than worst case
//! information". [`RuntimeManager`] is that run-time component: it owns the
//! [`PlatformState`] ledger, admits applications by mapping them with a
//! pluggable [`MappingAlgorithm`] against the *actual* occupancy, commits
//! admitted mappings atomically, and releases them again on
//! [`stop`](RuntimeManager::stop).
//!
//! Running applications are identified by [`AppHandle`]s — stable, unique
//! tokens that stay valid however many other applications start or stop in
//! between (unlike positional indices, which shift).
//!
//! # Example
//!
//! ```
//! use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
//! use rtsm_core::mapper::SpatialMapper;
//! use rtsm_core::runtime::RuntimeManager;
//! use rtsm_platform::paper::paper_platform;
//!
//! let mut manager = RuntimeManager::new(paper_platform(), SpatialMapper::default());
//! let handle = manager
//!     .start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34))
//!     .expect("the paper's case study is admitted");
//! assert_eq!(manager.n_running(), 1);
//! // A second receiver does not fit while the first holds both MONTIUMs…
//! assert!(manager.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).is_err());
//! // …until the first one stops.
//! manager.stop(handle).expect("running application stops");
//! assert!(manager.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).is_ok());
//! ```

use crate::algorithm::{MappingAlgorithm, MappingOutcome};
use crate::constraints::MappingConstraints;
use crate::cost::CostModel;
use crate::error::{MapError, MapErrorKind};
use crate::mapping::RouteBinding;
use rtsm_app::ApplicationSpec;
use rtsm_obs as obs;
use rtsm_platform::{
    EnergyModel, LinkId, Platform, PlatformError, PlatformState, PlatformTransaction, TileId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A stable identifier of one running application within a
/// [`RuntimeManager`]. Handles are unique across the manager's lifetime
/// and never reused, so a stale handle fails cleanly instead of silently
/// addressing a different application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AppHandle(u64);

impl AppHandle {
    /// The raw handle value (for logs and serialized scenario records).
    pub fn id(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for AppHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// Why an *admission* (a [`start`](RuntimeManager::start)) failed. Errors
/// of the other lifecycle operations — stop, remap — are
/// [`RuntimeError`]s, which this type converts into via `From`.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The algorithm found no feasible mapping: the application is
    /// *rejected* under the current occupancy (the expected, recoverable
    /// outcome when the platform is full).
    Rejected(MapError),
    /// Mapping succeeded but committing its reservations failed. The
    /// ledger is left unchanged. This cannot happen when the ledger is
    /// only mutated through one manager; it guards external mutation.
    CommitFailed(PlatformError),
}

/// The serializable discriminant of [`AdmissionError`]: which variant
/// occurred (and, for rejections, which [`MapErrorKind`]), without the
/// attempt-specific payload. Rejection-reason histograms in scenario and
/// simulation reports are keyed by this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AdmissionErrorKind {
    /// See [`AdmissionError::Rejected`]; carries the mapping failure kind.
    Rejected(MapErrorKind),
    /// See [`AdmissionError::CommitFailed`].
    CommitFailed,
}

impl fmt::Display for AdmissionErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionErrorKind::Rejected(kind) => write!(f, "rejected/{kind}"),
            AdmissionErrorKind::CommitFailed => f.write_str("commit-failed"),
        }
    }
}

impl AdmissionError {
    /// This error's [`AdmissionErrorKind`] discriminant.
    pub fn kind(&self) -> AdmissionErrorKind {
        match self {
            AdmissionError::Rejected(e) => AdmissionErrorKind::Rejected(e.kind()),
            AdmissionError::CommitFailed(_) => AdmissionErrorKind::CommitFailed,
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Rejected(e) => write!(f, "application rejected: {e}"),
            AdmissionError::CommitFailed(e) => {
                write!(f, "admission commit failed (ledger unchanged): {e}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmissionError::Rejected(e) => Some(e),
            AdmissionError::CommitFailed(e) => Some(e),
        }
    }
}

/// Why a lifecycle operation of the [`RuntimeManager`] failed. Admission
/// failures keep their own [`AdmissionError`] type (they are the expected,
/// recoverable outcome admission policies reason about); everything else —
/// stopping or remapping an unknown handle, a release the ledger cannot
/// honour — is a runtime fault, not an "admission" error.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// An admission step failed (start, or the admission inside a remap).
    Admission(AdmissionError),
    /// The handle does not name a running application (already stopped,
    /// or from another manager).
    UnknownHandle(AppHandle),
    /// Releasing an application's reservations failed — the ledger no
    /// longer matches what was committed (external mutation). The partial
    /// release is rolled back; the ledger is unchanged.
    ReleaseFailed(PlatformError),
}

/// The serializable discriminant of [`RuntimeError`]; keeps the
/// [`AdmissionErrorKind`] sub-discriminant for admission failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RuntimeErrorKind {
    /// See [`RuntimeError::Admission`]; carries the admission failure kind.
    Admission(AdmissionErrorKind),
    /// See [`RuntimeError::UnknownHandle`].
    UnknownHandle,
    /// See [`RuntimeError::ReleaseFailed`].
    ReleaseFailed,
}

impl fmt::Display for RuntimeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeErrorKind::Admission(kind) => write!(f, "admission/{kind}"),
            RuntimeErrorKind::UnknownHandle => f.write_str("unknown-handle"),
            RuntimeErrorKind::ReleaseFailed => f.write_str("release-failed"),
        }
    }
}

impl RuntimeError {
    /// This error's [`RuntimeErrorKind`] discriminant.
    pub fn kind(&self) -> RuntimeErrorKind {
        match self {
            RuntimeError::Admission(e) => RuntimeErrorKind::Admission(e.kind()),
            RuntimeError::UnknownHandle(_) => RuntimeErrorKind::UnknownHandle,
            RuntimeError::ReleaseFailed(_) => RuntimeErrorKind::ReleaseFailed,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Admission(e) => e.fmt(f),
            RuntimeError::UnknownHandle(h) => {
                write!(f, "no running application with handle {h}")
            }
            RuntimeError::ReleaseFailed(e) => {
                write!(f, "failed to release reservations: {e}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Admission(e) => Some(e),
            RuntimeError::ReleaseFailed(e) => Some(e),
            RuntimeError::UnknownHandle(_) => None,
        }
    }
}

impl From<AdmissionError> for RuntimeError {
    fn from(e: AdmissionError) -> Self {
        RuntimeError::Admission(e)
    }
}

/// Error of [`RuntimeManager::stop_all`]: a release failed partway
/// through. The applications stopped before the failure were released
/// successfully — their records are carried here, since they are no
/// longer registered with the manager — while the failing application and
/// all later ones keep running.
#[derive(Debug, Clone)]
pub struct StopAllError {
    /// Records of the applications stopped before the failure.
    pub stopped: Vec<(AppHandle, RunningApp)>,
    /// Why the next release failed.
    pub error: RuntimeError,
}

impl fmt::Display for StopAllError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stop_all failed after stopping {} application(s): {}",
            self.stopped.len(),
            self.error
        )
    }
}

impl std::error::Error for StopAllError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The unified objective [`RuntimeManager::start_with_reconfiguration`]
/// minimizes over migration plans:
///
/// ```text
/// objective = steady_state_energy_pj · 1000 + λ‰ · migration_energy_pj
/// ```
///
/// where *steady-state energy* is the total per-period energy of every
/// running application after the plan commits (the arriving application
/// plus all victims under their new mappings plus everything untouched),
/// and *migration energy* is the one-off state-transfer cost of the plan
/// priced through [`CostModel::migration_cost`]. λ is carried in permille
/// so the trade-off sweeps exactly in integers: λ‰ = 0 ignores transfer
/// cost entirely, λ‰ = 1000 weights one picojoule of transfer like one
/// picojoule of steady-state energy per period, larger values make the
/// manager increasingly reluctant to move state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigurationObjective {
    /// Weight of migration energy against steady-state energy, in
    /// permille (see the type docs).
    pub lambda_permille: u64,
}

impl Default for ReconfigurationObjective {
    fn default() -> Self {
        ReconfigurationObjective {
            lambda_permille: 1000,
        }
    }
}

impl ReconfigurationObjective {
    /// An objective ignoring migration energy entirely (λ‰ = 0): plans are
    /// ranked purely by post-plan steady-state energy.
    pub fn steady_state_only() -> Self {
        ReconfigurationObjective { lambda_permille: 0 }
    }

    /// Scores one plan; lower is better. Saturating, so extreme λ values
    /// degrade to "worst possible" instead of wrapping.
    pub fn score(&self, steady_state_energy_pj: u64, migration_energy_pj: u64) -> u64 {
        steady_state_energy_pj
            .saturating_mul(1000)
            .saturating_add(self.lambda_permille.saturating_mul(migration_energy_pj))
    }
}

/// Whether a feasible migration plan may actually be committed: the Pareto
/// lever trading recovered admissions against reconfiguration energy.
/// [`AlwaysAdmit`](AdmissionPolicy::AlwaysAdmit) recovers everything it
/// can; the bounded policies refuse recoveries whose state-transfer energy
/// is not worth the admission, accepting a little more blocking for much
/// less migration traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AdmissionPolicy {
    /// Commit the cheapest feasible plan unconditionally (the pre-policy
    /// behaviour).
    #[default]
    AlwaysAdmit,
    /// Refuse plans whose total migration energy exceeds a hard per-plan
    /// budget.
    EnergyBudget {
        /// Most state-transfer picojoules one plan may spend.
        max_transfer_pj: u64,
    },
    /// Refuse plans whose migration energy cannot be amortized: the
    /// transfer must cost no more than `horizon_periods` periods of the
    /// *admitted* application's steady-state energy — a proxy for the
    /// energy the recovered admission is expected to be worth over its
    /// lifetime (holding time).
    AmortizedPayback {
        /// Periods of the admitted application's energy the transfer may
        /// cost at most.
        horizon_periods: u64,
    },
}

impl AdmissionPolicy {
    /// Whether a plan spending `migration_energy_pj` to admit an
    /// application consuming `admitted_energy_pj` per period may commit.
    pub fn admits(&self, migration_energy_pj: u64, admitted_energy_pj: u64) -> bool {
        match self {
            AdmissionPolicy::AlwaysAdmit => true,
            AdmissionPolicy::EnergyBudget { max_transfer_pj } => {
                migration_energy_pj <= *max_transfer_pj
            }
            AdmissionPolicy::AmortizedPayback { horizon_periods } => {
                migration_energy_pj <= horizon_periods.saturating_mul(admitted_energy_pj)
            }
        }
    }

    /// A stable label for reports and Pareto tables.
    pub fn label(&self) -> String {
        match self {
            AdmissionPolicy::AlwaysAdmit => "always-admit".to_string(),
            AdmissionPolicy::EnergyBudget { max_transfer_pj } => {
                format!("energy-budget({max_transfer_pj}pJ)")
            }
            AdmissionPolicy::AmortizedPayback { horizon_periods } => {
                format!("amortized-payback({horizon_periods})")
            }
        }
    }
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// How [`RuntimeManager::start_with_reconfiguration`] may defragment the
/// platform when plain admission fails: how many running applications one
/// migration plan may move, how many plans to enumerate, how candidate
/// victims are ranked, how plans are scored, and which feasible plans the
/// admission policy lets commit.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigurationPolicy {
    /// Most running applications one plan may migrate (`k`). 0 disables
    /// reconfiguration (plain admission only).
    pub max_migrations: usize,
    /// Most migration plans enumerated before the search stops and the
    /// cheapest feasible plan found so far (if any) commits.
    pub max_plans: usize,
    /// Ranks candidate victims by per-application *move cost*: the
    /// [`CostModel::assignment_cost`] of their current mapping. Cheap-to-
    /// move (little communication) applications are enumerated first.
    pub cost_model: CostModel,
    /// Prices the *state-transfer* (migration) term of the objective:
    /// [`CostModel::Energy`] over this model via
    /// [`CostModel::migration_cost`] — the same per-channel decomposition
    /// victim ranking uses, not a separate account. The steady-state term
    /// comes from each mapping outcome's own energy account (the mapping
    /// algorithm's energy model), so keep the two models consistent when
    /// overriding either.
    pub energy: EnergyModel,
    /// Scores candidate plans; the *cheapest* feasible plan commits, not
    /// the first.
    pub objective: ReconfigurationObjective,
    /// Which feasible plans may commit at all.
    pub admission: AdmissionPolicy,
}

impl Default for ReconfigurationPolicy {
    fn default() -> Self {
        ReconfigurationPolicy {
            max_migrations: 2,
            max_plans: 8,
            cost_model: CostModel::HopCount,
            energy: EnergyModel::default(),
            objective: ReconfigurationObjective::default(),
            admission: AdmissionPolicy::AlwaysAdmit,
        }
    }
}

/// One committed migration: a running application released its resources
/// and was re-admitted elsewhere inside the same transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Migration {
    /// The migrated application (its handle is unchanged).
    pub handle: AppHandle,
    /// The move cost that ranked it (see
    /// [`ReconfigurationPolicy::cost_model`]).
    pub move_cost: u64,
    /// Processes whose tile actually changed.
    pub processes_moved: usize,
    /// Modelled state-transfer energy of the move, in picojoules.
    pub energy_pj: u64,
}

/// A successful [`RuntimeManager::start_with_reconfiguration`]: the new
/// application's handle plus what (if anything) had to move to admit it,
/// and how the committed plan scored under the policy's
/// [`ReconfigurationObjective`].
#[derive(Debug, Clone, PartialEq)]
pub struct Reconfiguration {
    /// Handle of the newly admitted application.
    pub handle: AppHandle,
    /// Migrations committed to make room (empty when plain admission
    /// succeeded).
    pub migrations: Vec<Migration>,
    /// Total modelled migration energy of the committed plan, in
    /// picojoules.
    pub migration_energy_pj: u64,
    /// Total per-period energy of every running application after the
    /// commit (the arriving application included), in picojoules.
    pub steady_state_energy_pj: u64,
    /// The committed plan's [`ReconfigurationObjective::score`]. For a
    /// plain (no-migration) admission this is the score of the new steady
    /// state with zero transfer energy.
    pub objective: u64,
    /// Objective scores of *every feasible plan enumerated*, in
    /// enumeration order — including plans the admission policy refused.
    /// Under [`AdmissionPolicy::AlwaysAdmit`] the committed plan's
    /// [`objective`](Reconfiguration::objective) is the minimum of this
    /// list; empty when plain admission succeeded.
    pub plan_objectives: Vec<u64>,
    /// Migration plans evaluated (0 when plain admission succeeded).
    pub plans_tried: u64,
    /// Victim re-mappings attempted across all plans, including plans that
    /// were not committed.
    pub migrations_attempted: u64,
    /// Feasible plans the [`AdmissionPolicy`] refused to commit.
    pub plans_refused: u64,
}

/// A failed [`RuntimeManager::start_with_reconfiguration`]: no plan within
/// the policy's bounds admitted the application. The ledger and every
/// running application are exactly as before the call.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigurationFailure {
    /// The original (pre-search) admission failure.
    pub error: AdmissionError,
    /// Migration plans evaluated before giving up.
    pub plans_tried: u64,
    /// Victim re-mappings attempted across all evaluated plans.
    pub migrations_attempted: u64,
    /// Feasible plans found but refused by the [`AdmissionPolicy`] — when
    /// non-zero, the blocking was a *policy* decision, not a placement
    /// failure.
    pub plans_refused: u64,
}

impl fmt::Display for ReconfigurationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admission not recovered after {} migration plan(s): {}",
            self.plans_tried, self.error
        )
    }
}

impl std::error::Error for ReconfigurationFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A resource failure the manager can react to: one tile or one link.
///
/// Failures are *events*, not states — the corresponding state lives in
/// the ledger's health layer ([`PlatformState::is_tile_failed`] /
/// [`PlatformState::is_link_failed`]), which
/// [`RuntimeManager::evacuate`] sets and [`RuntimeManager::repair`]
/// clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FailureEvent {
    /// A tile failed: its compute slots, memory, cycles and NI bandwidth
    /// are quarantined. (Its *router* keeps forwarding — the mesh loses
    /// processing capacity, not connectivity.)
    Tile(TileId),
    /// A link failed: routes through it are invalid and its bandwidth is
    /// quarantined.
    Link(LinkId),
}

impl fmt::Display for FailureEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureEvent::Tile(t) => write!(f, "tile#{}", t.index()),
            FailureEvent::Link(l) => write!(f, "link#{}", l.index()),
        }
    }
}

/// How [`RuntimeManager::evacuate`] re-places the victims of a failure.
#[derive(Debug, Clone, PartialEq)]
pub struct EvacuationPolicy {
    /// First try re-maps that *pin* every process currently on a healthy
    /// tile in place, so only the processes that lost their tile move (for
    /// a link failure: nothing moves, routes are just re-planned around
    /// the link). When the pinned attempt finds no feasible mapping — or
    /// the admission policy refuses it — an unpinned attempt follows.
    pub pin_healthy: bool,
    /// Prices the state-transfer term of each relocation
    /// ([`CostModel::migration_cost`] over this model).
    pub energy: EnergyModel,
    /// Scores each committed relocation (reported per evacuated app).
    pub objective: ReconfigurationObjective,
    /// Whether a relocation spending a given migration energy may commit;
    /// refused relocations fall through to the next attempt or, when none
    /// remains, to eviction.
    pub admission: AdmissionPolicy,
}

impl Default for EvacuationPolicy {
    fn default() -> Self {
        EvacuationPolicy {
            pin_healthy: true,
            energy: EnergyModel::default(),
            objective: ReconfigurationObjective::default(),
            admission: AdmissionPolicy::AlwaysAdmit,
        }
    }
}

/// One victim successfully re-placed by [`RuntimeManager::evacuate`]; its
/// handle is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvacuatedApp {
    /// The relocated application.
    pub handle: AppHandle,
    /// Processes whose tile changed (0 for a pure re-route around a
    /// failed link).
    pub processes_moved: usize,
    /// Modelled state-transfer energy of the relocation, in picojoules.
    pub migration_energy_pj: u64,
    /// The relocation's [`ReconfigurationObjective::score`] (post-commit
    /// steady-state energy of the running set, plus the weighted transfer
    /// term).
    pub objective: u64,
}

/// What one [`RuntimeManager::evacuate`] call did: which applications the
/// failure hit, which were re-placed, and which had to be *evicted* — a
/// terminal outcome distinct from blocking (the application was running
/// and lost its resources, it was not refused admission).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evacuation {
    /// The failure that triggered the evacuation.
    pub failure: FailureEvent,
    /// Every running application the failure touched, in handle
    /// (admission) order — `evacuated` ∪ `evicted`, disjointly.
    pub victims: Vec<AppHandle>,
    /// Victims re-placed onto healthy resources (handles unchanged).
    pub evacuated: Vec<EvacuatedApp>,
    /// Victims that could not be re-placed under the policy: stopped, all
    /// their resources released.
    pub evicted: Vec<AppHandle>,
    /// Total modelled state-transfer energy of all relocations, in
    /// picojoules.
    pub migration_energy_pj: u64,
}

/// One admitted application: its specification and the mapping it runs
/// under.
///
/// The specification is held behind an [`Arc`] so admission paths that
/// draw the same spec repeatedly (catalogs, simulators) share one copy
/// instead of deep-cloning the graph and implementation library per
/// arrival.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningApp {
    /// The application specification.
    pub spec: Arc<ApplicationSpec>,
    /// The committed mapping outcome.
    pub outcome: MappingOutcome,
}

/// Aggregate occupancy figures, for dashboards and admission policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Utilization {
    /// Compute slots in use across all tiles.
    pub used_slots: u32,
    /// Total compute slots of the platform.
    pub total_slots: u32,
    /// Bytes of tile memory in use (implementations + buffers).
    pub used_memory_bytes: u64,
    /// Total tile memory of the platform.
    pub total_memory_bytes: u64,
    /// Link bandwidth unavailable, words/second summed over directed
    /// links: claimed bandwidth, plus the full capacity of links currently
    /// quarantined by the health layer (a failed link has residual 0).
    pub used_link_bandwidth: u64,
    /// Total link bandwidth of the platform.
    pub total_link_bandwidth: u64,
    /// Number of running applications.
    pub running_apps: usize,
    /// Free compute slots in the largest contiguous free region (tiles
    /// with free slots whose routers are mesh-adjacent).
    pub largest_free_slot_region: u32,
    /// How fragmented the free compute capacity is, in permille: 0‰ when
    /// all free slots form one contiguous region, rising towards 1000‰ as
    /// they shatter into islands (see
    /// [`Fragmentation`](rtsm_platform::Fragmentation)). Defragmentation
    /// by migration ([`RuntimeManager::start_with_reconfiguration`]) is
    /// exactly the lever that drives this back down.
    pub fragmentation_permille: u32,
    /// Tiles currently quarantined by the health layer (failed, not yet
    /// repaired).
    pub failed_tiles: u32,
    /// Quarantined compute capacity in permille of the platform's total
    /// slots: 0‰ when fully healthy, 1000‰ when every tile has failed.
    /// Unlike the usage figures this counts *capacity* — a failed tile's
    /// slots are degraded whether or not they were in use.
    pub degraded_permille: u32,
}

impl Utilization {
    /// `true` when nothing is running and no resource is in use — the
    /// occupancy of a freshly initialised ledger. Simulation teardown and
    /// scenario replay use this to assert that commit/release are exact
    /// inverses over a whole run.
    pub fn is_idle(&self) -> bool {
        self.running_apps == 0
            && self.used_slots == 0
            && self.used_memory_bytes == 0
            && self.used_link_bandwidth == 0
    }
}

/// The stateful run-time manager (see the [module docs](self)).
///
/// Generic over the mapping algorithm; use a concrete algorithm type for
/// static dispatch or `Box<dyn MappingAlgorithm>` to choose at run time:
///
/// ```
/// use rtsm_core::algorithm::MappingAlgorithm;
/// use rtsm_core::mapper::SpatialMapper;
/// use rtsm_core::runtime::RuntimeManager;
/// use rtsm_platform::paper::paper_platform;
///
/// let algorithm: Box<dyn MappingAlgorithm> = Box::new(SpatialMapper::default());
/// let manager = RuntimeManager::new(paper_platform(), algorithm);
/// assert_eq!(manager.algorithm().name(), "hierarchical heuristic (paper)");
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeManager<A: MappingAlgorithm> {
    platform: Platform,
    algorithm: A,
    state: PlatformState,
    running: BTreeMap<AppHandle, RunningApp>,
    next_handle: u64,
}

impl<A: MappingAlgorithm> RuntimeManager<A> {
    /// A manager over an empty `platform` using `algorithm` for admission.
    pub fn new(platform: Platform, algorithm: A) -> Self {
        let state = platform.initial_state();
        RuntimeManager {
            platform,
            algorithm,
            state,
            running: BTreeMap::new(),
            next_handle: 0,
        }
    }

    /// A manager starting from a pre-occupied ledger (e.g. resources held
    /// by components outside this manager's control).
    pub fn with_state(platform: Platform, algorithm: A, state: PlatformState) -> Self {
        RuntimeManager {
            platform,
            algorithm,
            state,
            running: BTreeMap::new(),
            next_handle: 0,
        }
    }

    /// The managed platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The admission algorithm.
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// The current occupancy ledger.
    pub fn state(&self) -> &PlatformState {
        &self.state
    }

    /// Attempts to start `spec`: maps it against the **actual** current
    /// occupancy and, if a feasible mapping exists, commits its
    /// reservations atomically and returns a handle for later
    /// [`stop`](RuntimeManager::stop).
    ///
    /// On any error the ledger is unchanged (rollback-on-failure).
    ///
    /// The stored record keeps what the lifecycle needs (mapping, routes,
    /// buffers, scores); the search trace and composed CSDF graph are
    /// dropped so a long-lived manager does not accumulate per-admission
    /// search logs. Map with the algorithm directly when those are wanted.
    ///
    /// # Errors
    ///
    /// * [`AdmissionError::Rejected`] — no feasible mapping right now;
    /// * [`AdmissionError::CommitFailed`] — the mapping could not be
    ///   committed (only possible if the ledger was mutated externally).
    pub fn start(
        &mut self,
        spec: impl Into<Arc<ApplicationSpec>>,
    ) -> Result<AppHandle, AdmissionError> {
        let _span = obs::span(obs::Span::Admission);
        let spec: Arc<ApplicationSpec> = spec.into();
        let mut outcome = self
            .algorithm
            .map(&spec, &self.platform, &self.state)
            .map_err(AdmissionError::Rejected)?;
        // `MappingOutcome::commit` rolls the ledger back on failure.
        outcome
            .commit(&spec, &self.platform, &mut self.state)
            .map_err(AdmissionError::CommitFailed)?;
        outcome.trace = None;
        outcome.csdf = None;
        let handle = AppHandle(self.next_handle);
        self.next_handle += 1;
        self.running.insert(handle, RunningApp { spec, outcome });
        Ok(handle)
    }

    /// Stops the application behind `handle`, releasing every resource its
    /// admission committed, and returns its record.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownHandle`] — `handle` is not running;
    /// * [`RuntimeError::ReleaseFailed`] — the ledger no longer holds the
    ///   committed reservations (external mutation). The release is rolled
    ///   back and the application stays registered, so the ledger is
    ///   exactly as before the call.
    pub fn stop(&mut self, handle: AppHandle) -> Result<RunningApp, RuntimeError> {
        let app = self
            .running
            .get(&handle)
            .ok_or(RuntimeError::UnknownHandle(handle))?;
        app.outcome
            .release(&app.spec, &self.platform, &mut self.state)
            .map_err(RuntimeError::ReleaseFailed)?;
        Ok(self.running.remove(&handle).expect("handle checked above"))
    }

    /// Re-maps the running application behind `handle` under
    /// `constraints`, atomically: inside one transaction its current
    /// reservations are released *first* (so the new mapping may reuse its
    /// own freed resources), the algorithm maps the spec against the freed
    /// occupancy, and the new mapping's reservations are committed. On any
    /// failure the transaction aborts and the ledger — including the
    /// application's original reservations and routes — is restored
    /// exactly; the application keeps running under its old mapping.
    ///
    /// Returns the *previous* outcome, so callers can diff placements or
    /// account migration costs.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownHandle`] — `handle` is not running;
    /// * [`RuntimeError::Admission`] — no feasible mapping under
    ///   `constraints` (the application keeps its old mapping), or the
    ///   re-commit failed;
    /// * [`RuntimeError::ReleaseFailed`] — the ledger no longer holds the
    ///   committed reservations (external mutation).
    pub fn remap(
        &mut self,
        handle: AppHandle,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, RuntimeError> {
        let _span = obs::span(obs::Span::Remap);
        let spec = self
            .running
            .get(&handle)
            .ok_or(RuntimeError::UnknownHandle(handle))?
            .spec
            .clone();
        self.replace_mapping(handle, spec, constraints)
    }

    /// The shared transactional core of [`RuntimeManager::remap`] and
    /// [`RuntimeManager::switch`]: inside one transaction the running
    /// application's reservations are released *first* (so the new mapping
    /// may reuse its own freed resources), `spec` is mapped against the
    /// freed occupancy under `constraints`, and the new reservations are
    /// committed. On success the record holds `spec` and the new outcome
    /// (the previous outcome is returned); on any failure the transaction
    /// aborts and the application keeps running exactly as before.
    fn replace_mapping(
        &mut self,
        handle: AppHandle,
        spec: Arc<ApplicationSpec>,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, RuntimeError> {
        let app = self
            .running
            .get(&handle)
            .ok_or(RuntimeError::UnknownHandle(handle))?;
        let mut tx = PlatformTransaction::begin(&self.platform, &mut self.state);
        app.outcome
            .stage_release(&app.spec, &mut tx)
            .map_err(RuntimeError::ReleaseFailed)?; // tx drop restores
        let mut outcome = self
            .algorithm
            .map_constrained(&spec, &self.platform, tx.state(), constraints)
            .map_err(|e| RuntimeError::Admission(AdmissionError::Rejected(e)))?;
        outcome
            .stage_commit(&spec, &mut tx)
            .map_err(|e| RuntimeError::Admission(AdmissionError::CommitFailed(e)))?;
        tx.commit();
        outcome.trace = None;
        outcome.csdf = None;
        let record = self.running.get_mut(&handle).expect("checked above");
        record.spec = spec;
        Ok(std::mem::replace(&mut record.outcome, outcome))
    }

    /// Attempts to start `spec`; when plain admission fails, searches
    /// bounded migration plans that *defragment* the platform: up to
    /// [`ReconfigurationPolicy::max_migrations`] running applications —
    /// enumerated cheapest-to-move first, ranked by
    /// [`ReconfigurationPolicy::cost_model`] — are released inside one
    /// transaction, the arriving application is mapped against the freed
    /// occupancy, and every victim is re-mapped after it.
    ///
    /// Unlike a first-feasible search, *every* plan within
    /// [`ReconfigurationPolicy::max_plans`] is evaluated (staged in a
    /// transaction that is then aborted) and scored by the policy's
    /// [`ReconfigurationObjective`]; the **cheapest** feasible plan the
    /// [`AdmissionPolicy`] accepts is then re-staged and committed
    /// all-or-nothing. Evaluation never re-runs the mapping algorithm at
    /// commit time — the staged outcomes are replayed verbatim — so even
    /// randomized algorithms commit exactly the plan that was scored.
    ///
    /// # Errors
    ///
    /// [`ReconfigurationFailure`] when no plan within the policy's bounds
    /// both admits the application and passes the admission policy; it
    /// carries the original [`AdmissionError`] plus the search effort
    /// spent and how many feasible plans the policy refused.
    pub fn start_with_reconfiguration(
        &mut self,
        spec: impl Into<Arc<ApplicationSpec>>,
        policy: &ReconfigurationPolicy,
    ) -> Result<Reconfiguration, ReconfigurationFailure> {
        let spec: Arc<ApplicationSpec> = spec.into();
        let error = match self.start(spec.clone()) {
            Ok(handle) => {
                let steady_state_energy_pj = self.running_energy_pj();
                return Ok(Reconfiguration {
                    handle,
                    migrations: Vec::new(),
                    migration_energy_pj: 0,
                    steady_state_energy_pj,
                    objective: policy.objective.score(steady_state_energy_pj, 0),
                    plan_objectives: Vec::new(),
                    plans_tried: 0,
                    migrations_attempted: 0,
                    plans_refused: 0,
                });
            }
            Err(error) => error,
        };
        let mut plans_tried = 0u64;
        let mut migrations_attempted = 0u64;
        let mut plans_refused = 0u64;
        if matches!(error, AdmissionError::CommitFailed(_)) || policy.max_migrations == 0 {
            return Err(ReconfigurationFailure {
                error,
                plans_tried: 0,
                migrations_attempted: 0,
                plans_refused: 0,
            });
        }

        // Candidate victims, cheapest move first; ties break on handle so
        // the search order — and therefore every fixed-seed simulation —
        // is deterministic.
        let candidates: Vec<(u64, AppHandle)> = {
            let mut c: Vec<(u64, AppHandle)> = self
                .running
                .iter()
                .map(|(h, app)| {
                    (
                        policy.cost_model.assignment_cost(
                            &app.outcome.mapping,
                            &app.spec,
                            &self.platform,
                        ),
                        *h,
                    )
                })
                .collect();
            c.sort_unstable();
            c
        };
        let current_total_energy_pj = self.running_energy_pj();

        // Plans: single migrations cheapest-first, then pairs, … up to
        // `max_migrations` victims, `max_plans` plans overall. Every plan
        // is evaluated; ties on the objective keep the earliest plan, so
        // the choice is deterministic.
        let mut best: Option<PlanCandidate> = None;
        let mut plan_objectives = Vec::new();
        'sizes: for size in 1..=policy.max_migrations.min(candidates.len()) {
            let mut indices: Vec<usize> = (0..size).collect();
            loop {
                if plans_tried >= policy.max_plans as u64 {
                    break 'sizes;
                }
                plans_tried += 1;
                let victims: Vec<(u64, AppHandle)> =
                    indices.iter().map(|&i| candidates[i]).collect();
                if let Some(candidate) = self.evaluate_migration_plan(
                    &spec,
                    victims,
                    policy,
                    current_total_energy_pj,
                    &mut migrations_attempted,
                ) {
                    plan_objectives.push(candidate.objective);
                    if !policy
                        .admission
                        .admits(candidate.migration_energy_pj, candidate.admitted_energy_pj)
                    {
                        plans_refused += 1;
                    } else if best
                        .as_ref()
                        .is_none_or(|b| candidate.objective < b.objective)
                    {
                        best = Some(candidate);
                    }
                }
                if !next_combination(&mut indices, candidates.len()) {
                    break;
                }
            }
        }
        match best {
            Some(plan) => Ok(self.commit_migration_plan(
                &spec,
                plan,
                plan_objectives,
                plans_tried,
                migrations_attempted,
                plans_refused,
            )),
            None => Err(ReconfigurationFailure {
                error,
                plans_tried,
                migrations_attempted,
                plans_refused,
            }),
        }
    }

    /// Evaluates one migration plan: stages every release, the new
    /// admission, and every victim re-map into a transaction, scores the
    /// result, then **aborts** the transaction (the ledger is untouched).
    /// Returns `None` when any step fails.
    fn evaluate_migration_plan(
        &mut self,
        spec: &Arc<ApplicationSpec>,
        victims: Vec<(u64, AppHandle)>,
        policy: &ReconfigurationPolicy,
        current_total_energy_pj: u64,
        migrations_attempted: &mut u64,
    ) -> Option<PlanCandidate> {
        let _span = obs::span(obs::Span::PlanEval);
        let migration_pricing = CostModel::Energy(policy.energy);
        let mut tx = PlatformTransaction::begin(&self.platform, &mut self.state);
        // Release every victim first, so both the arriving application and
        // the re-mapped victims can use the freed resources.
        for &(_, victim) in &victims {
            let app = self.running.get(&victim).expect("plan names running apps");
            app.outcome.stage_release(&app.spec, &mut tx).ok()?;
        }
        let mut new_outcome = self
            .algorithm
            .map_constrained(
                spec,
                &self.platform,
                tx.state(),
                &MappingConstraints::none(),
            )
            .ok()?;
        new_outcome.stage_commit(spec, &mut tx).ok()?;
        new_outcome.trace = None;
        new_outcome.csdf = None;
        // Re-place each victim against what remains.
        let mut moved: Vec<PlannedMigration> = Vec::with_capacity(victims.len());
        let mut migration_energy_pj = 0u64;
        let mut steady_state_energy_pj =
            current_total_energy_pj.saturating_add(new_outcome.energy_pj);
        for &(move_cost, victim) in &victims {
            *migrations_attempted += 1;
            let app = self.running.get(&victim).expect("plan names running apps");
            let mut outcome = self
                .algorithm
                .map_constrained(
                    &app.spec,
                    &self.platform,
                    tx.state(),
                    &MappingConstraints::none(),
                )
                .ok()?;
            outcome.stage_commit(&app.spec, &mut tx).ok()?;
            outcome.trace = None;
            outcome.csdf = None;
            let (processes_moved, energy_pj) = migration_pricing.migration_cost(
                &app.spec,
                &self.platform,
                &app.outcome.mapping,
                &outcome.mapping,
            );
            migration_energy_pj += energy_pj;
            steady_state_energy_pj = steady_state_energy_pj
                .saturating_sub(app.outcome.energy_pj)
                .saturating_add(outcome.energy_pj);
            moved.push(PlannedMigration {
                handle: victim,
                move_cost,
                processes_moved,
                energy_pj,
                outcome,
            });
        }
        // Evaluation only: dropping the transaction aborts every staged
        // operation, restoring the ledger exactly.
        drop(tx);
        let admitted_energy_pj = new_outcome.energy_pj;
        Some(PlanCandidate {
            victims,
            new_outcome,
            moved,
            migration_energy_pj,
            steady_state_energy_pj,
            admitted_energy_pj,
            objective: policy
                .objective
                .score(steady_state_energy_pj, migration_energy_pj),
        })
    }

    /// Replays the winning plan's staged outcomes into a fresh transaction
    /// and commits it, updating every record. The ledger has not changed
    /// since the plan was evaluated (evaluation aborts its transaction and
    /// the search never mutates state), so re-staging cannot fail.
    fn commit_migration_plan(
        &mut self,
        spec: &Arc<ApplicationSpec>,
        plan: PlanCandidate,
        plan_objectives: Vec<u64>,
        plans_tried: u64,
        migrations_attempted: u64,
        plans_refused: u64,
    ) -> Reconfiguration {
        let mut tx = PlatformTransaction::begin(&self.platform, &mut self.state);
        for &(_, victim) in &plan.victims {
            let app = self.running.get(&victim).expect("plan names running apps");
            app.outcome
                .stage_release(&app.spec, &mut tx)
                .expect("re-staging an evaluated plan's release cannot fail");
        }
        plan.new_outcome
            .stage_commit(spec, &mut tx)
            .expect("re-staging an evaluated plan's admission cannot fail");
        for migration in &plan.moved {
            let app = self
                .running
                .get(&migration.handle)
                .expect("plan names running apps");
            migration
                .outcome
                .stage_commit(&app.spec, &mut tx)
                .expect("re-staging an evaluated plan's re-map cannot fail");
        }
        tx.commit();

        let handle = AppHandle(self.next_handle);
        self.next_handle += 1;
        self.running.insert(
            handle,
            RunningApp {
                spec: spec.clone(),
                outcome: plan.new_outcome,
            },
        );
        let mut migrations = Vec::with_capacity(plan.moved.len());
        for migration in plan.moved {
            let record = self
                .running
                .get_mut(&migration.handle)
                .expect("victim still runs");
            record.outcome = migration.outcome;
            // A victim whose re-map landed on exactly its old tiles did not
            // migrate (the arriving app fit into space freed by the others):
            // its outcome is refreshed but no migration is reported.
            if migration.processes_moved > 0 {
                migrations.push(Migration {
                    handle: migration.handle,
                    move_cost: migration.move_cost,
                    processes_moved: migration.processes_moved,
                    energy_pj: migration.energy_pj,
                });
            }
        }
        Reconfiguration {
            handle,
            migrations,
            migration_energy_pj: plan.migration_energy_pj,
            steady_state_energy_pj: plan.steady_state_energy_pj,
            objective: plan.objective,
            plan_objectives,
            plans_tried,
            migrations_attempted,
            plans_refused,
        }
    }

    /// Switches the application behind `handle` to a **new specification**
    /// atomically: inside one transaction its current reservations are
    /// released first (so the new configuration may reuse its own freed
    /// resources), the new spec is mapped against the freed occupancy, and
    /// the new mapping's reservations are committed. The handle stays
    /// valid. On any failure the transaction aborts and the application
    /// *keeps running under its old specification and mapping* — a blocked
    /// mode switch is a switching loss, not an eviction.
    ///
    /// Returns the *previous* outcome, so callers can diff placements or
    /// account switching costs.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownHandle`] — `handle` is not running;
    /// * [`RuntimeError::Admission`] — the new configuration has no
    ///   feasible mapping right now (the old one keeps running), or the
    ///   re-commit failed;
    /// * [`RuntimeError::ReleaseFailed`] — the ledger no longer holds the
    ///   committed reservations (external mutation).
    pub fn switch(
        &mut self,
        handle: AppHandle,
        spec: impl Into<Arc<ApplicationSpec>>,
    ) -> Result<MappingOutcome, RuntimeError> {
        let _span = obs::span(obs::Span::Switch);
        self.replace_mapping(handle, spec.into(), &MappingConstraints::none())
    }

    /// Reacts to a resource failure: quarantines the failed tile or link
    /// in the ledger's health layer, identifies every running application
    /// the failure touches (a process or buffer on the failed tile, or a
    /// route through the failed link), and re-places each victim on the
    /// healthy remainder of the platform.
    ///
    /// Victims are processed in handle (admission) order, each inside its
    /// own transaction: the victim's reservations are released, the
    /// algorithm re-maps it under auto-derived [`MappingConstraints`]
    /// (every currently-failed tile excluded; with
    /// [`EvacuationPolicy::pin_healthy`], processes on healthy tiles first
    /// pinned in place), the relocation is priced through
    /// [`CostModel::migration_cost`] and gated by the policy's
    /// [`AdmissionPolicy`]. If no attempt commits, the victim is *evicted*
    /// — stopped, its resources released — which is a terminal outcome
    /// distinct from blocking.
    ///
    /// # Failure windows
    ///
    /// The manager serializes all ledger mutation behind `&mut self`, so a
    /// failure cannot be injected *between* plan evaluation and commit: an
    /// `evacuate` call observes the ledger either entirely before or
    /// entirely after any admission. Within the call, each victim's
    /// release + re-map + commit is one [`PlatformTransaction`]; a
    /// relocation that fails partway (infeasible re-map, commit refusal,
    /// admission-policy veto) aborts its transaction and the victim's
    /// original reservations are restored **exactly — including onto the
    /// failed resources** (rollback bypasses the health check), so the
    /// subsequent eviction releases precisely what admission committed.
    /// Victims already relocated by the same call keep their new
    /// placements; there is no cross-victim rollback, because a committed
    /// relocation is already a complete, consistent state.
    ///
    /// Idempotent on the health layer: evacuating an already-failed
    /// resource re-runs victim identification (normally finding none).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ReleaseFailed`] only — the ledger no longer holds a
    /// victim's committed reservations (external mutation). Infeasible
    /// re-maps are not errors; they become evictions.
    pub fn evacuate(
        &mut self,
        failure: FailureEvent,
        policy: &EvacuationPolicy,
    ) -> Result<Evacuation, RuntimeError> {
        let _span = obs::span(obs::Span::Evacuate);
        match failure {
            FailureEvent::Tile(tile) => self.state.fail_tile(tile),
            FailureEvent::Link(link) => self.state.fail_link(link),
        };
        let victims: Vec<AppHandle> = self
            .running
            .iter()
            .filter(|(_, app)| Self::touched_by(app, failure))
            .map(|(handle, _)| *handle)
            .collect();
        let mut evacuation = Evacuation {
            failure,
            victims: victims.clone(),
            evacuated: Vec::new(),
            evicted: Vec::new(),
            migration_energy_pj: 0,
        };
        for handle in victims {
            let current_energy_pj = self.running_energy_pj();
            let unpinned = self.failure_constraints();
            let mut relocated = None;
            if policy.pin_healthy {
                let pinned = self.pin_healthy_constraints(handle);
                relocated = self.try_relocate(handle, &pinned, policy, current_energy_pj)?;
            }
            if relocated.is_none() {
                relocated = self.try_relocate(handle, &unpinned, policy, current_energy_pj)?;
            }
            match relocated {
                Some(app) => {
                    evacuation.migration_energy_pj += app.migration_energy_pj;
                    evacuation.evacuated.push(app);
                }
                None => {
                    self.stop(handle)?;
                    evacuation.evicted.push(handle);
                }
            }
        }
        Ok(evacuation)
    }

    /// Clears a failure from the ledger's health layer, making the
    /// resource claimable again. Returns `true` if the resource was failed
    /// (the call changed state). Repair never re-places applications —
    /// evacuated victims stay where evacuation put them.
    pub fn repair(&mut self, failure: FailureEvent) -> bool {
        match failure {
            FailureEvent::Tile(tile) => self.state.repair_tile(tile),
            FailureEvent::Link(link) => self.state.repair_link(link),
        }
    }

    /// True while `failure`'s resource is quarantined.
    pub fn is_failed(&self, failure: FailureEvent) -> bool {
        match failure {
            FailureEvent::Tile(tile) => self.state.is_tile_failed(tile),
            FailureEvent::Link(link) => self.state.is_link_failed(link),
        }
    }

    /// Whether `app`'s committed mapping holds resources the failure
    /// quarantines: a process or buffer on the failed tile, or a routed
    /// path through the failed link.
    fn touched_by(app: &RunningApp, failure: FailureEvent) -> bool {
        match failure {
            FailureEvent::Tile(tile) => {
                app.outcome
                    .mapping
                    .assignments()
                    .any(|(_, assignment)| assignment.tile == tile)
                    || app.outcome.buffers.iter().any(|buffer| buffer.tile == tile)
                    // Routes terminating at the tile hold network-interface
                    // claims there even when no process is assigned to it
                    // (fixed Source/Sink endpoints).
                    || app.outcome.mapping.routes().any(|(_, binding)| match binding {
                        RouteBinding::Path(path) => path.from == tile || path.to == tile,
                        RouteBinding::SameTile => false,
                    })
            }
            FailureEvent::Link(link) => {
                app.outcome
                    .mapping
                    .routes()
                    .any(|(_, binding)| match binding {
                        RouteBinding::Path(path) => path.links.contains(&link),
                        RouteBinding::SameTile => false,
                    })
            }
        }
    }

    /// Constraints every evacuation re-map runs under: all currently
    /// failed tiles excluded. (Failed links need no constraint — their
    /// residual is 0, so routing cannot use them.)
    fn failure_constraints(&self) -> MappingConstraints {
        let mut constraints = MappingConstraints::none();
        for (tile, _) in self.platform.tiles() {
            if self.state.is_tile_failed(tile) {
                constraints = constraints.exclude_tile(tile);
            }
        }
        constraints
    }

    /// [`RuntimeManager::failure_constraints`] plus a pin for every one of
    /// the victim's processes that currently sits on a healthy tile, so
    /// the first relocation attempt moves only what the failure displaced.
    fn pin_healthy_constraints(&self, handle: AppHandle) -> MappingConstraints {
        let mut constraints = self.failure_constraints();
        let app = self.running.get(&handle).expect("victim is running");
        for (process, assignment) in app.outcome.mapping.assignments() {
            if !self.state.is_tile_failed(assignment.tile) {
                constraints = constraints.pin(process, assignment.tile);
            }
        }
        constraints
    }

    /// One relocation attempt: inside one transaction the victim's
    /// reservations are released, its spec re-mapped under `constraints`,
    /// and the new reservations committed — but only if the priced
    /// migration passes the policy's admission gate. Any refusal or
    /// infeasibility aborts the transaction (exact rollback, health checks
    /// bypassed for the restore) and returns `Ok(None)`.
    fn try_relocate(
        &mut self,
        handle: AppHandle,
        constraints: &MappingConstraints,
        policy: &EvacuationPolicy,
        current_energy_pj: u64,
    ) -> Result<Option<EvacuatedApp>, RuntimeError> {
        let app = self.running.get(&handle).expect("victim is running");
        let pricing = CostModel::Energy(policy.energy);
        let mut tx = PlatformTransaction::begin(&self.platform, &mut self.state);
        app.outcome
            .stage_release(&app.spec, &mut tx)
            .map_err(RuntimeError::ReleaseFailed)?; // tx drop restores
        let Ok(mut outcome) =
            self.algorithm
                .map_constrained(&app.spec, &self.platform, tx.state(), constraints)
        else {
            return Ok(None);
        };
        if outcome.stage_commit(&app.spec, &mut tx).is_err() {
            return Ok(None);
        }
        let (processes_moved, migration_energy_pj) = pricing.migration_cost(
            &app.spec,
            &self.platform,
            &app.outcome.mapping,
            &outcome.mapping,
        );
        if !policy
            .admission
            .admits(migration_energy_pj, outcome.energy_pj)
        {
            return Ok(None);
        }
        let steady_state_energy_pj = current_energy_pj
            .saturating_sub(app.outcome.energy_pj)
            .saturating_add(outcome.energy_pj);
        let objective = policy
            .objective
            .score(steady_state_energy_pj, migration_energy_pj);
        tx.commit();
        outcome.trace = None;
        outcome.csdf = None;
        let record = self.running.get_mut(&handle).expect("victim is running");
        record.outcome = outcome;
        Ok(Some(EvacuatedApp {
            handle,
            processes_moved,
            migration_energy_pj,
            objective,
        }))
    }

    /// Stops every running application in handle (admission) order,
    /// releasing all their resources, and returns the stopped records.
    /// After a successful call the ledger holds only what was committed
    /// outside this manager (for [`RuntimeManager::new`] managers: nothing,
    /// so [`Utilization::is_idle`] holds).
    ///
    /// # Errors
    ///
    /// [`StopAllError`] if a release fails (external ledger mutation).
    /// Applications stopped before the failure stay stopped and their
    /// records are carried in the error; the failing one and all later
    /// ones keep running.
    pub fn stop_all(&mut self) -> Result<Vec<(AppHandle, RunningApp)>, StopAllError> {
        let handles: Vec<AppHandle> = self.running.keys().copied().collect();
        let mut stopped = Vec::with_capacity(handles.len());
        for handle in handles {
            match self.stop(handle) {
                Ok(record) => stopped.push((handle, record)),
                Err(error) => return Err(StopAllError { stopped, error }),
            }
        }
        Ok(stopped)
    }

    /// The running applications in handle (admission) order.
    pub fn running(&self) -> impl Iterator<Item = (AppHandle, &RunningApp)> {
        self.running.iter().map(|(h, app)| (*h, app))
    }

    /// The record of one running application.
    pub fn get(&self, handle: AppHandle) -> Option<&RunningApp> {
        self.running.get(&handle)
    }

    /// Number of running applications.
    pub fn n_running(&self) -> usize {
        self.running.len()
    }

    /// Total energy per period of all running applications, in picojoules.
    pub fn running_energy_pj(&self) -> u64 {
        self.running.values().map(|app| app.outcome.energy_pj).sum()
    }

    /// Aggregate occupancy of the managed platform, including the
    /// fragmentation of its free compute capacity.
    pub fn utilization(&self) -> Utilization {
        let fragmentation = self.state.fragmentation(&self.platform);
        let mut util = Utilization {
            used_slots: 0,
            total_slots: 0,
            used_memory_bytes: 0,
            total_memory_bytes: 0,
            used_link_bandwidth: 0,
            total_link_bandwidth: 0,
            running_apps: self.running.len(),
            largest_free_slot_region: fragmentation.largest_free_region_slots,
            fragmentation_permille: fragmentation.fragmentation_permille,
            failed_tiles: self.state.failed_tile_count(),
            degraded_permille: 0,
        };
        for (tile, spec) in self.platform.tiles() {
            util.used_slots += self.state.used_slots(tile);
            util.total_slots += spec.compute_slots;
            util.used_memory_bytes += self.state.used_memory(tile);
            util.total_memory_bytes += spec.memory_bytes;
        }
        for (link, spec) in self.platform.links() {
            util.total_link_bandwidth += spec.capacity;
            util.used_link_bandwidth +=
                spec.capacity - self.state.residual_link(&self.platform, link);
        }
        util.degraded_permille = (self.state.failed_slot_capacity(&self.platform) * 1000)
            .checked_div(util.total_slots)
            .unwrap_or(0);
        util
    }

    /// Consumes the manager, returning the final ledger and the records of
    /// the applications still running.
    pub fn into_parts(self) -> (PlatformState, Vec<(AppHandle, RunningApp)>) {
        (self.state, self.running.into_iter().collect())
    }
}

/// Advances `indices` to the next lexicographic `k`-combination of
/// `0..n`. Returns `false` when exhausted.
fn next_combination(indices: &mut [usize], n: usize) -> bool {
    let k = indices.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if indices[i] < n - (k - i) {
            indices[i] += 1;
            for j in i + 1..k {
                indices[j] = indices[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// One fully evaluated migration plan: everything needed to score it
/// against the other plans and — if it wins — replay its staged outcomes
/// into a committing transaction without re-running the algorithm.
#[derive(Debug, Clone)]
struct PlanCandidate {
    /// The plan's victims `(move_cost, handle)` in release order.
    victims: Vec<(u64, AppHandle)>,
    /// The arriving application's mapping under this plan.
    new_outcome: MappingOutcome,
    /// Each victim's re-map, in the order it was staged.
    moved: Vec<PlannedMigration>,
    /// Total state-transfer energy of the plan, in picojoules.
    migration_energy_pj: u64,
    /// Total per-period energy of the running set after the plan.
    steady_state_energy_pj: u64,
    /// The arriving application's per-period energy under this plan (what
    /// [`AdmissionPolicy::AmortizedPayback`] amortizes against).
    admitted_energy_pj: u64,
    /// The plan's [`ReconfigurationObjective::score`].
    objective: u64,
}

/// One victim's evaluated re-map within a [`PlanCandidate`].
#[derive(Debug, Clone)]
struct PlannedMigration {
    handle: AppHandle,
    move_cost: u64,
    processes_moved: usize,
    energy_pj: u64,
    outcome: MappingOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::SpatialMapper;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    fn manager() -> RuntimeManager<SpatialMapper> {
        RuntimeManager::new(paper_platform(), SpatialMapper::default())
    }

    #[test]
    fn start_stop_restores_the_empty_ledger() {
        let mut m = manager();
        let before = m.state().clone();
        let h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        assert_ne!(m.state(), &before, "admission must claim resources");
        let record = m.stop(h).unwrap();
        assert_eq!(
            m.state(),
            &before,
            "stop must release exactly what start claimed"
        );
        assert_eq!(
            record.spec.name,
            hiperlan2_receiver(Hiperlan2Mode::Qpsk34).name
        );
        assert_eq!(m.n_running(), 0);
    }

    #[test]
    fn handles_stay_valid_when_other_apps_stop() {
        // Two light modes fit together on the paper platform? They do not
        // (two MONTIUMs), so use start/stop interleaving on one app plus
        // handle uniqueness checks.
        let mut m = manager();
        let h0 = m.start(hiperlan2_receiver(Hiperlan2Mode::Bpsk12)).unwrap();
        m.stop(h0).unwrap();
        let h1 = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        assert_ne!(h0, h1, "handles are never reused");
        assert!(matches!(
            m.stop(h0),
            Err(RuntimeError::UnknownHandle(stale)) if stale == h0
        ));
        assert_eq!(m.n_running(), 1);
        m.stop(h1).unwrap();
    }

    #[test]
    fn rejection_leaves_the_ledger_untouched() {
        let mut m = manager();
        let _h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        let occupied = m.state().clone();
        let err = m
            .start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34))
            .unwrap_err();
        assert!(matches!(err, AdmissionError::Rejected(_)));
        assert_eq!(m.state(), &occupied);
        assert_eq!(m.n_running(), 1);
    }

    #[test]
    fn utilization_tracks_admissions() {
        let mut m = manager();
        let idle = m.utilization();
        assert_eq!(idle.used_slots, 0);
        assert_eq!(idle.running_apps, 0);
        let h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        let busy = m.utilization();
        assert!(busy.used_slots >= 4, "four processes hold slots");
        assert!(busy.used_memory_bytes > 0);
        assert!(busy.used_link_bandwidth > 0);
        assert_eq!(busy.running_apps, 1);
        m.stop(h).unwrap();
        assert_eq!(m.utilization(), idle);
    }

    #[test]
    fn stop_all_drains_to_an_idle_ledger() {
        let mut m = manager();
        assert!(m.utilization().is_idle());
        let before = m.state().clone();
        m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        assert!(!m.utilization().is_idle());
        let stopped = m.stop_all().expect("releases never fail in-manager");
        assert_eq!(stopped.len(), 1);
        assert_eq!(m.n_running(), 0);
        assert_eq!(m.state(), &before);
        assert!(m.utilization().is_idle());
        // Idempotent on an empty manager.
        assert!(m.stop_all().unwrap().is_empty());
    }

    #[test]
    fn admission_errors_expose_their_kind() {
        let mut m = manager();
        let h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        let rejected = m
            .start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34))
            .unwrap_err();
        assert!(matches!(rejected.kind(), AdmissionErrorKind::Rejected(_)));
        if let AdmissionError::Rejected(map_err) = &rejected {
            assert_eq!(
                rejected.kind(),
                AdmissionErrorKind::Rejected(map_err.kind())
            );
        }
        m.stop(h).unwrap();
        let stale = m.stop(h).unwrap_err();
        assert_eq!(stale.kind(), RuntimeErrorKind::UnknownHandle);
        assert!(
            !matches!(stale, RuntimeError::Admission(_)),
            "stopping an unknown handle is a runtime fault, not an admission error"
        );
    }

    #[test]
    fn works_boxed_over_dyn_algorithm() {
        let algorithm: Box<dyn MappingAlgorithm> = Box::new(SpatialMapper::default());
        let mut m = RuntimeManager::new(paper_platform(), algorithm);
        let h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        assert_eq!(m.n_running(), 1);
        m.stop(h).unwrap();
    }

    // --- Remapping and defragmentation ----------------------------------
    //
    // The engineered scenario: two 2-slot ARMs with 64 KiB each. Light
    // single-process applications take 24 KiB, a heavy one 48 KiB. Churn
    // leaves one light app on *each* ARM: 40 KiB free per tile — enough
    // total for the heavy app but fragmented. Migrating one light app onto
    // the other's tile frees a whole ARM and recovers the admission.

    fn defrag_platform() -> rtsm_platform::Platform {
        use rtsm_platform::{Coord, PlatformBuilder, TileKind};
        PlatformBuilder::mesh(4, 1)
            .tile_defaults(200, 2, 64 * 1024, 200_000_000)
            .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 })
            .tile("ARM-a", TileKind::Arm, Coord { x: 1, y: 0 })
            .tile("ARM-b", TileKind::Arm, Coord { x: 2, y: 0 })
            .tile("Sink", TileKind::Sink, Coord { x: 3, y: 0 })
            .build()
            .unwrap()
    }

    fn pipe_app(name: &str, memory_bytes: u64) -> ApplicationSpec {
        use rtsm_app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
        use rtsm_dataflow::PhaseVec;
        use rtsm_platform::TileKind;
        let mut graph = ProcessGraph::new();
        let p = graph.add_process("Stage");
        graph
            .add_channel(Endpoint::StreamInput, Endpoint::Process(p), 16)
            .unwrap();
        graph
            .add_channel(Endpoint::Process(p), Endpoint::StreamOutput, 16)
            .unwrap();
        let mut library = ImplementationLibrary::new();
        library.register(
            p,
            Implementation::simple(
                format!("{name} @ ARM"),
                TileKind::Arm,
                PhaseVec::from_slice(&[8, 60, 8]),
                PhaseVec::from_slice(&[16, 0, 0]),
                PhaseVec::from_slice(&[0, 0, 16]),
                5_000,
                memory_bytes,
            ),
        );
        ApplicationSpec {
            name: name.into(),
            graph,
            qos: QosSpec::with_period(4_000_000),
            library,
        }
    }

    fn light() -> ApplicationSpec {
        pipe_app("light", 24 * 1024)
    }

    fn heavy() -> ApplicationSpec {
        pipe_app("heavy", 48 * 1024)
    }

    /// Builds the fragmented state: one light app on each ARM, 40 KiB free
    /// on both tiles. Returns the manager and the two survivors' handles.
    fn fragmented_manager() -> (RuntimeManager<SpatialMapper>, AppHandle, AppHandle) {
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let a = m.start(light()).unwrap();
        let b = m.start(light()).unwrap();
        let c = m.start(light()).unwrap();
        let d = m.start(light()).unwrap();
        m.stop(b).unwrap();
        m.stop(c).unwrap();
        (m, a, d)
    }

    #[test]
    fn remap_honours_constraints_and_keeps_the_ledger_consistent() {
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let arm_b = platform.tile_by_name("ARM-b").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        let before = m.state().clone();
        let h = m.start(light()).unwrap();
        let spec = m.get(h).unwrap().spec.clone();
        let process = spec.graph.process_by_name("Stage").unwrap();
        assert_eq!(
            m.get(h)
                .unwrap()
                .outcome
                .mapping
                .assignment(process)
                .unwrap()
                .tile,
            arm_a,
            "first fit places the light app on ARM-a"
        );
        let old = m
            .remap(h, &MappingConstraints::none().exclude_tile(arm_a))
            .expect("ARM-b can host the process");
        assert_eq!(old.mapping.assignment(process).unwrap().tile, arm_a);
        assert_eq!(
            m.get(h)
                .unwrap()
                .outcome
                .mapping
                .assignment(process)
                .unwrap()
                .tile,
            arm_b
        );
        // The remapped app stops cleanly: the ledger drains to empty.
        m.stop(h).unwrap();
        assert_eq!(m.state(), &before);
    }

    #[test]
    fn failed_remap_restores_state_and_routes_exactly() {
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let arm_b = platform.tile_by_name("ARM-b").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        let h = m.start(light()).unwrap();
        let ledger = m.state().clone();
        let record = m.get(h).unwrap().clone();
        // Excluding both ARMs leaves the process nowhere to go.
        let err = m
            .remap(
                h,
                &MappingConstraints::none()
                    .exclude_tile(arm_a)
                    .exclude_tile(arm_b),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Admission(AdmissionError::Rejected(_))
        ));
        assert_eq!(m.state(), &ledger, "rollback restores the exact ledger");
        assert_eq!(
            m.get(h).unwrap(),
            &record,
            "the app keeps its old mapping, routes and buffers"
        );
        // Still fully functional: the old reservations release cleanly.
        m.stop(h).unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn remap_unknown_handle_is_a_runtime_error() {
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let h = m.start(light()).unwrap();
        m.stop(h).unwrap();
        let err = m.remap(h, &MappingConstraints::none()).unwrap_err();
        assert_eq!(err.kind(), RuntimeErrorKind::UnknownHandle);
    }

    #[test]
    fn fragmented_admission_fails_plain_but_recovers_by_migration() {
        let (mut m, a, d) = fragmented_manager();
        // The defining property of fragmentation: total free ARM memory
        // (2 × 40 KiB) exceeds the heavy app's 48 KiB, but no single tile
        // has room — the admission is lost to *placement*, not capacity.
        let platform = m.platform().clone();
        let free_mem: Vec<u64> = ["ARM-a", "ARM-b"]
            .iter()
            .map(|name| {
                let t = platform.tile_by_name(name).unwrap();
                platform.tile(t).memory_bytes - m.state().used_memory(t)
            })
            .collect();
        assert!(free_mem.iter().sum::<u64>() > 48 * 1024);
        assert!(free_mem.iter().all(|&f| f < 48 * 1024));
        // Plain admission is blocked: 40 KiB free per ARM < 48 KiB.
        assert!(matches!(m.start(heavy()), Err(AdmissionError::Rejected(_))));
        let before = m.state().clone();
        let reconfiguration = m
            .start_with_reconfiguration(heavy(), &ReconfigurationPolicy::default())
            .expect("migrating one light app frees a whole ARM");
        assert_eq!(reconfiguration.migrations.len(), 1);
        assert!(reconfiguration.plans_tried >= 1);
        assert!(reconfiguration.migration_energy_pj > 0);
        assert_eq!(m.n_running(), 3);
        // The migrated light app kept its handle; both light handles live.
        assert!(m.get(a).is_some());
        assert!(m.get(d).is_some());
        assert_ne!(m.state(), &before, "the heavy app holds resources now");
        // Everything still stops cleanly — the transactional bookkeeping
        // left no stray claims behind.
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn reconfiguration_failure_restores_everything() {
        let (mut m, _, _) = fragmented_manager();
        // Two heavies need two whole ARMs; only one can be freed.
        let ok = m
            .start_with_reconfiguration(heavy(), &ReconfigurationPolicy::default())
            .expect("first heavy recovers by migration");
        let ledger = m.state().clone();
        let records: Vec<_> = m.running().map(|(h, app)| (h, app.clone())).collect();
        let failure = m
            .start_with_reconfiguration(heavy(), &ReconfigurationPolicy::default())
            .expect_err("no plan can free 48 KiB more");
        assert!(matches!(failure.error, AdmissionError::Rejected(_)));
        assert!(failure.plans_tried >= 1);
        assert_eq!(m.state(), &ledger, "failed search leaves the ledger intact");
        let after: Vec<_> = m.running().map(|(h, app)| (h, app.clone())).collect();
        assert_eq!(records, after, "no running app was disturbed");
        m.stop(ok.handle).unwrap();
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn reconfiguration_fast_path_skips_migration_when_room_exists() {
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let reconfiguration = m
            .start_with_reconfiguration(light(), &ReconfigurationPolicy::default())
            .unwrap();
        assert!(reconfiguration.migrations.is_empty());
        assert_eq!(reconfiguration.plans_tried, 0);
        assert_eq!(reconfiguration.migration_energy_pj, 0);
    }

    #[test]
    fn zero_migration_policy_degenerates_to_plain_admission() {
        let (mut m, _, _) = fragmented_manager();
        let policy = ReconfigurationPolicy {
            max_migrations: 0,
            ..ReconfigurationPolicy::default()
        };
        let failure = m.start_with_reconfiguration(heavy(), &policy).unwrap_err();
        assert_eq!(failure.plans_tried, 0);
        assert_eq!(failure.migrations_attempted, 0);
    }

    #[test]
    fn cheapest_plan_wins_and_its_objective_is_minimal() {
        let (mut m, _, _) = fragmented_manager();
        let reconfiguration = m
            .start_with_reconfiguration(heavy(), &ReconfigurationPolicy::default())
            .expect("migration recovers the admission");
        assert!(
            !reconfiguration.plan_objectives.is_empty(),
            "feasible plans were enumerated"
        );
        assert_eq!(
            reconfiguration.objective,
            *reconfiguration.plan_objectives.iter().min().unwrap(),
            "under AlwaysAdmit the committed plan is the cheapest enumerated"
        );
        assert!(reconfiguration
            .plan_objectives
            .iter()
            .all(|&o| reconfiguration.objective <= o));
        assert_eq!(reconfiguration.plans_refused, 0);
        // The objective decomposes exactly as documented.
        let policy = ReconfigurationPolicy::default();
        assert_eq!(
            reconfiguration.objective,
            policy.objective.score(
                reconfiguration.steady_state_energy_pj,
                reconfiguration.migration_energy_pj
            )
        );
        assert_eq!(
            reconfiguration.steady_state_energy_pj,
            m.running_energy_pj(),
            "steady-state term is the post-commit running energy"
        );
        m.stop_all().unwrap();
    }

    #[test]
    fn energy_budget_refuses_expensive_recoveries() {
        // A zero budget refuses every migrating plan: the admission fails
        // although feasible plans exist, and the refusal is visible.
        let (mut m, _, _) = fragmented_manager();
        let ledger = m.state().clone();
        let policy = ReconfigurationPolicy {
            admission: AdmissionPolicy::EnergyBudget { max_transfer_pj: 0 },
            ..ReconfigurationPolicy::default()
        };
        let failure = m.start_with_reconfiguration(heavy(), &policy).unwrap_err();
        assert!(
            failure.plans_refused > 0,
            "the blocking was a policy decision: {failure:?}"
        );
        assert_eq!(m.state(), &ledger, "refused plans leave the ledger intact");
        // A generous budget admits again, and the committed plan respects it.
        let generous = ReconfigurationPolicy {
            admission: AdmissionPolicy::EnergyBudget {
                max_transfer_pj: u64::MAX,
            },
            ..ReconfigurationPolicy::default()
        };
        let reconfiguration = m.start_with_reconfiguration(heavy(), &generous).unwrap();
        assert!(reconfiguration.migration_energy_pj > 0);
        m.stop_all().unwrap();
    }

    #[test]
    fn amortized_payback_bounds_transfer_by_admitted_energy() {
        let (mut m, _, _) = fragmented_manager();
        // Horizon 0: no transfer is ever amortized.
        let strict = ReconfigurationPolicy {
            admission: AdmissionPolicy::AmortizedPayback { horizon_periods: 0 },
            ..ReconfigurationPolicy::default()
        };
        let failure = m.start_with_reconfiguration(heavy(), &strict).unwrap_err();
        assert!(failure.plans_refused > 0);
        // A huge horizon admits; the bound holds for the committed plan.
        let lax = ReconfigurationPolicy {
            admission: AdmissionPolicy::AmortizedPayback {
                horizon_periods: u64::MAX,
            },
            ..ReconfigurationPolicy::default()
        };
        let reconfiguration = m.start_with_reconfiguration(heavy(), &lax).unwrap();
        let admitted_energy = m.get(reconfiguration.handle).unwrap().outcome.energy_pj;
        assert!(reconfiguration.migration_energy_pj <= u64::MAX.saturating_mul(admitted_energy));
        m.stop_all().unwrap();
    }

    #[test]
    fn lambda_zero_still_recovers() {
        // λ‰ = 0 ranks plans purely by steady-state energy; recovery
        // behaviour (which admissions succeed) is unchanged.
        let (mut m, _, _) = fragmented_manager();
        let policy = ReconfigurationPolicy {
            objective: ReconfigurationObjective::steady_state_only(),
            ..ReconfigurationPolicy::default()
        };
        let reconfiguration = m.start_with_reconfiguration(heavy(), &policy).unwrap();
        assert_eq!(reconfiguration.migrations.len(), 1);
        m.stop_all().unwrap();
    }

    #[test]
    fn admission_policy_bounds() {
        assert!(AdmissionPolicy::AlwaysAdmit.admits(u64::MAX, 0));
        let budget = AdmissionPolicy::EnergyBudget {
            max_transfer_pj: 100,
        };
        assert!(budget.admits(100, 0));
        assert!(!budget.admits(101, 0));
        let payback = AdmissionPolicy::AmortizedPayback { horizon_periods: 4 };
        assert!(payback.admits(40, 10));
        assert!(!payback.admits(41, 10));
        assert!(payback.admits(0, 0), "a free move always pays back");
    }

    #[test]
    fn objective_weighs_migration_by_lambda() {
        let objective = ReconfigurationObjective {
            lambda_permille: 500,
        };
        assert_eq!(objective.score(10, 4), 10 * 1000 + 500 * 4);
        assert_eq!(
            ReconfigurationObjective::steady_state_only().score(10, 999),
            10_000
        );
        assert_eq!(
            ReconfigurationObjective::default().score(u64::MAX, u64::MAX),
            u64::MAX,
            "saturates instead of wrapping"
        );
    }

    #[test]
    fn switch_swaps_the_spec_atomically_and_keeps_the_handle() {
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let before = m.state().clone();
        let h = m.start(light()).unwrap();
        let old = m.switch(h, heavy()).expect("the heavy spec fits alone");
        assert_eq!(old.mapping.assignments().count(), 1);
        assert_eq!(m.n_running(), 1);
        assert_eq!(m.get(h).unwrap().spec.name, "heavy");
        // The swapped application still stops cleanly.
        m.stop(h).unwrap();
        assert_eq!(m.state(), &before);
    }

    #[test]
    fn blocked_switch_keeps_the_old_configuration_running() {
        // Full fill: two lights per ARM. Switching one light to the heavy
        // spec releases its own 24 KiB, leaving 40 KiB on its tile next to
        // the co-tenant — not the 48 KiB the heavy needs anywhere.
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let a = m.start(light()).unwrap();
        for _ in 0..3 {
            m.start(light()).unwrap();
        }
        let ledger = m.state().clone();
        let record = m.get(a).unwrap().clone();
        let err = m.switch(a, heavy()).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Admission(AdmissionError::Rejected(_))
        ));
        assert_eq!(m.state(), &ledger, "failed switch restores the ledger");
        assert_eq!(
            m.get(a).unwrap(),
            &record,
            "the old configuration keeps running untouched"
        );
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn switch_unknown_handle_is_a_runtime_error() {
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let h = m.start(light()).unwrap();
        m.stop(h).unwrap();
        let err = m.switch(h, heavy()).unwrap_err();
        assert_eq!(err.kind(), RuntimeErrorKind::UnknownHandle);
    }

    // --- Fault injection and evacuation ----------------------------------

    #[test]
    fn tile_failure_evacuates_the_victim_to_a_healthy_tile() {
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let arm_b = platform.tile_by_name("ARM-b").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        let h = m.start(light()).unwrap();
        let process = m
            .get(h)
            .unwrap()
            .spec
            .graph
            .process_by_name("Stage")
            .unwrap();
        assert_eq!(
            m.get(h)
                .unwrap()
                .outcome
                .mapping
                .assignment(process)
                .unwrap()
                .tile,
            arm_a
        );

        let evacuation = m
            .evacuate(FailureEvent::Tile(arm_a), &EvacuationPolicy::default())
            .unwrap();
        assert_eq!(evacuation.victims, vec![h]);
        assert_eq!(evacuation.evacuated.len(), 1);
        assert!(evacuation.evicted.is_empty());
        assert_eq!(evacuation.evacuated[0].processes_moved, 1);
        assert_eq!(
            m.get(h)
                .unwrap()
                .outcome
                .mapping
                .assignment(process)
                .unwrap()
                .tile,
            arm_b,
            "the victim now runs on the healthy ARM"
        );
        let util = m.utilization();
        assert_eq!(util.failed_tiles, 1);
        assert!(util.degraded_permille > 0);

        // Repair restores admissibility; the evacuee stays where it is.
        assert!(m.repair(FailureEvent::Tile(arm_a)));
        assert!(!m.is_failed(FailureEvent::Tile(arm_a)));
        assert_eq!(
            m.get(h)
                .unwrap()
                .outcome
                .mapping
                .assignment(process)
                .unwrap()
                .tile,
            arm_b
        );
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle(), "no claims leak across the cycle");
    }

    #[test]
    fn unplaceable_victim_is_evicted_not_blocked() {
        // Both ARMs hold two lights each; failing one ARM leaves no healthy
        // capacity for its two tenants — they are evicted, the others stay.
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        let handles: Vec<_> = (0..4).map(|_| m.start(light()).unwrap()).collect();
        let before_running = m.n_running();
        assert_eq!(before_running, 4);

        let evacuation = m
            .evacuate(FailureEvent::Tile(arm_a), &EvacuationPolicy::default())
            .unwrap();
        assert_eq!(evacuation.victims.len(), 2, "two tenants on the failed ARM");
        assert!(evacuation.evacuated.is_empty(), "ARM-b is already full");
        assert_eq!(evacuation.evicted.len(), 2);
        assert_eq!(m.n_running(), 2, "evicted apps are terminal");
        for evicted in &evacuation.evicted {
            assert!(m.get(*evicted).is_none());
            assert!(handles.contains(evicted));
        }
        m.repair(FailureEvent::Tile(arm_a));
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle(), "evictions released everything");
    }

    #[test]
    fn failed_evacuation_rolls_back_exactly_before_eviction() {
        // One light on each ARM plus co-tenants so nothing can move: the
        // victim's failed attempt must leave every *other* app untouched.
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        for _ in 0..4 {
            m.start(light()).unwrap();
        }
        let survivors: Vec<_> = m
            .running()
            .filter(|(_, app)| {
                let p = app.spec.graph.process_by_name("Stage").unwrap();
                app.outcome.mapping.assignment(p).unwrap().tile != arm_a
            })
            .map(|(h, app)| (h, app.clone()))
            .collect();
        m.evacuate(FailureEvent::Tile(arm_a), &EvacuationPolicy::default())
            .unwrap();
        for (h, record) in survivors {
            assert_eq!(m.get(h).unwrap(), &record, "survivors are untouched");
        }
        m.repair(FailureEvent::Tile(arm_a));
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn admission_policy_can_veto_relocations_into_eviction() {
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        m.start(light()).unwrap();
        let policy = EvacuationPolicy {
            admission: AdmissionPolicy::EnergyBudget { max_transfer_pj: 0 },
            ..EvacuationPolicy::default()
        };
        let evacuation = m.evacuate(FailureEvent::Tile(arm_a), &policy).unwrap();
        assert!(
            evacuation.evacuated.is_empty(),
            "zero budget vetoes the move"
        );
        assert_eq!(evacuation.evicted.len(), 1);
        m.repair(FailureEvent::Tile(arm_a));
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn link_failure_reroutes_without_moving_processes() {
        // hiperlan2 on the paper platform commits routed paths; failing a
        // link one of them uses must re-route the app with every process
        // pinned in place (processes_moved == 0) when possible, or at
        // least keep the ledger exact.
        let mut m = manager();
        let h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        let used_link = m
            .get(h)
            .unwrap()
            .outcome
            .mapping
            .routes()
            .find_map(|(_, binding)| match binding {
                RouteBinding::Path(path) => path.links.first().copied(),
                RouteBinding::SameTile => None,
            })
            .expect("the paper mapping routes at least one channel");
        let evacuation = m
            .evacuate(FailureEvent::Link(used_link), &EvacuationPolicy::default())
            .unwrap();
        assert_eq!(evacuation.victims, vec![h], "the app uses the failed link");
        if let Some(evacuee) = evacuation.evacuated.first() {
            // The new mapping avoids the failed link entirely.
            let avoids =
                m.get(h)
                    .unwrap()
                    .outcome
                    .mapping
                    .routes()
                    .all(|(_, binding)| match binding {
                        RouteBinding::Path(path) => !path.links.contains(&used_link),
                        RouteBinding::SameTile => true,
                    });
            assert!(avoids, "evacuated mapping must not touch the failed link");
            assert_eq!(
                evacuee.processes_moved, 0,
                "pin-healthy re-route moves no process"
            );
        } else {
            assert_eq!(evacuation.evicted, vec![h]);
        }
        m.repair(FailureEvent::Link(used_link));
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn evacuating_an_untouched_platform_finds_no_victims() {
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let arm_b = platform.tile_by_name("ARM-b").unwrap();
        let sink = platform.tile_by_name("Sink").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        let h = m.start(light()).unwrap();
        let record = m.get(h).unwrap().clone();
        let stage = record.spec.graph.process_by_name("Stage").unwrap();
        let placed = record.outcome.mapping.assignment(stage).unwrap().tile;
        let idle_arm = if placed == arm_a { arm_b } else { arm_a };
        let evacuation = m
            .evacuate(FailureEvent::Tile(idle_arm), &EvacuationPolicy::default())
            .unwrap();
        assert!(evacuation.victims.is_empty());
        assert_eq!(m.get(h).unwrap(), &record);
        // While the ARM is failed, admissions cannot use it.
        assert!(m.is_failed(FailureEvent::Tile(idle_arm)));
        m.repair(FailureEvent::Tile(idle_arm));
        // The output route ends at the Sink, whose network-interface claim
        // makes the app a victim even though no process runs there.
        let evacuation = m
            .evacuate(FailureEvent::Tile(sink), &EvacuationPolicy::default())
            .unwrap();
        assert_eq!(evacuation.victims, vec![h]);
        m.repair(FailureEvent::Tile(sink));
        m.stop_all().unwrap();
    }

    #[test]
    fn next_combination_enumerates_lexicographically() {
        let mut indices = vec![0, 1];
        let mut seen = vec![indices.clone()];
        while next_combination(&mut indices, 4) {
            seen.push(indices.clone());
        }
        assert_eq!(
            seen,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }
}
