//! The CORUSCANT execution runtime: a request-serving engine over the
//! functional PIM stack.
//!
//! The paper's high-throughput dispatch mode (§V-C) observes that a PIM
//! command occupies only its target bank for the internal operation
//! latency, so a stream of `cpim` commands issued to *different* banks in
//! a circular fashion overlaps those latencies — the controller issues
//! one command per bus cycle while every bank computes in parallel. This
//! crate builds the serving layer around that idea:
//!
//! * **Jobs** — a [`PimProgram`] plus a [`Placement`], submitted through
//!   a bounded [`JobQueue`] that applies backpressure to open-loop
//!   clients.
//! * **Scheduling** — the [`BankScheduler`] resolves each job to a PIM
//!   unit, decodes its target bank, keeps per-bank FIFO queues, and
//!   issues in circular-bank order so consecutive issues hit different
//!   banks (§V-C).
//! * **Execution** — worker threads (*shards*) each own a
//!   [`coruscant_core::dispatch::PimMachine`]; banks are
//!   partitioned across shards (`bank % shards`), so same-bank jobs stay
//!   ordered while different banks also run concurrently on the host.
//! * **Compilation** — submitted programs are rewritten by the
//!   `coruscant-compiler` pass pipeline on enqueue (TR fusion, dead-step
//!   elimination, shift-minimizing scheduling), controlled by
//!   [`RuntimeOptions::compile`]; the differential verifier can be
//!   enabled there to prove every optimized job output-equivalent.
//! * **Accounting** — workers report each instruction's measured device
//!   cost, and one [`MemoryController`] replays them in issue order, so
//!   the modeled completion times are exactly what sequential controller
//!   accounting produces: different banks overlap, same-bank jobs
//!   serialize.
//! * **Observability** — serializable [`RuntimeStats`] with per-bank
//!   occupancy, queue-depth and wait-time histograms, plus an optional
//!   JSONL [event trace](events::EventTrace).
//! * **Fault tolerance** — with a [`FaultPlan`] and/or a
//!   [`ProtectionPolicy`] configured, every worker machine runs under
//!   seeded per-bank fault injection, jobs are verified by
//!   re-execute-and-compare or NMR voting, detected faults feed the
//!   per-bank [`HealthTracker`] state machine (Healthy → Suspect →
//!   Quarantined), suspect banks get position-code scrub passes,
//!   quarantined banks are drained and avoided, and unverified jobs are
//!   re-dispatched to healthy banks. The counters surface in
//!   [`stats::FaultStats`].

// `deny`, not `forbid`: the one sanctioned exception is [`cputime`]'s
// single `clock_gettime` FFI call (thread CPU time has no safe std
// surface), which opts itself back in with a scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod cputime;
pub mod deps;
pub mod events;
pub mod health;
pub mod job;
pub mod notify;
pub mod queue;
pub mod sched;
pub mod stats;
pub mod supervise;
pub mod sync;

pub use cache::{CacheOptions, CacheStats};
pub use chaos::{install_quiet_hook, ChaosAction, ChaosPanic, ChaosPlan, CrossingPoint};
pub use coruscant_compiler::CompileOptions;
pub use deps::{Binder, DepOutputs};
pub use health::{BankState, HealthPolicy, HealthTracker, ProtectionPolicy};
pub use job::{JobOutcome, PimJob, Placement};
pub use notify::JobNotice;
pub use queue::{JobQueue, Pop, PushError};
pub use sched::{BankScheduler, BatchGrouping, DispatchMode, IssuePolicy, IssuedBatch};
pub use stats::{
    BankOccupancy, BatchStats, DomainStats, FaultStats, Histogram, PipelineStats, RuntimeStats,
    SchedStats,
};
pub use supervise::{
    PoisonEntry, PoisonRegistry, PoisonReport, SuperviseOptions, SupervisionStats, WatchdogOptions,
};

use cache::{BatchCache, ProgramCache};
use coruscant_compiler::{splice_programs, CompileError, Compiler};
use coruscant_core::dispatch::PimMachine;
use coruscant_core::nmr::NmrVoter;
use coruscant_core::program::{PimProgram, Step};
use coruscant_core::PimError;
use coruscant_mem::controller::Request;
use coruscant_mem::{
    Dbc, DbcLocation, FaultPlan, MemoryConfig, MemoryController, Row, ScrubOutcome,
};
use coruscant_racetrack::{Cost, CostMeter};
use deps::{DepTracker, GatedJob, GatedSource, Released};
use events::{Event, EventTrace};
use health::Transition;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use supervise::{DownCause, Supervisor};

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// A job failed during execution (first failure in issue order).
    Pim(PimError),
    /// The on-enqueue compiler rejected a job (pass failure or
    /// differential-verification divergence).
    Compile(CompileError),
    /// The job queue was closed before the submission.
    QueueClosed,
    /// The runtime options are inconsistent (e.g. an NMR degree the
    /// configured TRD cannot vote on, or zero health thresholds).
    Config(String),
    /// A worker or scheduler thread disappeared (panicked) mid-run.
    WorkerLost,
    /// The program's fingerprint is quarantined by the poison registry:
    /// earlier submissions of the same (placement-normalized) program
    /// kept hanging their workers, so admission refuses it.
    Poisoned {
        /// The quarantined structural program fingerprint.
        fingerprint: u64,
    },
    /// The event-trace file could not be created.
    Trace(std::io::Error),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Pim(e) => write!(f, "job execution failed: {e}"),
            RuntimeError::Compile(e) => write!(f, "job compilation failed: {e}"),
            RuntimeError::QueueClosed => write!(f, "job queue closed"),
            RuntimeError::Config(msg) => write!(f, "invalid runtime configuration: {msg}"),
            RuntimeError::WorkerLost => write!(f, "worker thread lost"),
            RuntimeError::Poisoned { fingerprint } => write!(
                f,
                "program fingerprint {fingerprint:#018x} is quarantined (kept hanging workers)"
            ),
            RuntimeError::Trace(e) => write!(f, "event trace: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Pim(e) => Some(e),
            RuntimeError::Compile(e) => Some(e),
            RuntimeError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PimError> for RuntimeError {
    fn from(e: PimError) -> RuntimeError {
        RuntimeError::Pim(e)
    }
}

impl From<coruscant_mem::MemError> for RuntimeError {
    fn from(e: coruscant_mem::MemError) -> RuntimeError {
        RuntimeError::Pim(PimError::from(e))
    }
}

/// Same-bank batch-fusion configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// Master switch. Off by default: batch grouping depends on queue
    /// drain timing, so enabling it trades the plain path's cross-shard
    /// issue-order determinism for higher same-bank throughput (outputs
    /// stay exact under any grouping).
    pub enabled: bool,
    /// Most jobs one batched dispatch splices together.
    pub max_jobs: usize,
    /// How members are gathered from a bank FIFO:
    /// [`BatchGrouping::Consecutive`] (default) only fuses the same-unit
    /// run at the head, [`BatchGrouping::SameUnit`] also gathers
    /// non-consecutive same-unit jobs past independent (other-DBC)
    /// entries.
    pub grouping: BatchGrouping,
    /// Batched-splice cache capacity (entries). Repeated same-shape
    /// batches skip the cross-boundary pass pipeline; keyed on the
    /// ordered member structural hashes. `0` disables the cache.
    pub splice_cache: usize,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            enabled: false,
            max_jobs: 8,
            grouping: BatchGrouping::Consecutive,
            splice_cache: 128,
        }
    }
}

impl BatchOptions {
    /// Options with batching on at the default batch size.
    pub fn enabled() -> BatchOptions {
        BatchOptions {
            enabled: true,
            ..BatchOptions::default()
        }
    }

    /// Options with batching on and non-consecutive same-unit grouping.
    pub fn enabled_grouped() -> BatchOptions {
        BatchOptions {
            enabled: true,
            grouping: BatchGrouping::SameUnit,
            ..BatchOptions::default()
        }
    }

    /// The effective per-dispatch job cap (1 when disabled).
    fn cap(&self) -> usize {
        if self.enabled {
            self.max_jobs.max(1)
        } else {
            1
        }
    }

    /// The splice cache this configuration asks for, if any.
    fn splice_cache(&self) -> Option<BatchCache> {
        (self.enabled && self.splice_cache > 0).then(|| BatchCache::new(self.splice_cache))
    }
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Worker threads; banks are partitioned `bank % shards`. Clamped to
    /// `1..=banks`.
    pub shards: usize,
    /// Bounded job-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Placement policy for [`Placement::Auto`] jobs.
    pub dispatch: DispatchMode,
    /// On-enqueue program optimization (pass pipeline and differential
    /// verification); [`CompileOptions::disabled`] submits programs
    /// verbatim.
    pub compile: CompileOptions,
    /// When set, a JSONL event trace is written here.
    pub trace_path: Option<PathBuf>,
    /// Per-job corruption detection (re-execute-and-compare or NMR).
    pub protection: ProtectionPolicy,
    /// Bank health thresholds and recovery actions. Only consulted in
    /// resilient sessions (a fault plan, an active protection policy,
    /// the watchdog, or an active chaos plan): there acks feed bank
    /// health and [`HealthPolicy::max_inflight_per_bank`] gates issue.
    /// Every other session issues ungated.
    pub health: HealthPolicy,
    /// When set, every worker machine materializes its DBCs with the
    /// plan's seeded per-bank fault injectors.
    pub faults: Option<FaultPlan>,
    /// Compiled-program cache: repeated submissions skip the pass
    /// pipeline (keyed by placement-normalized structural hash).
    pub cache: CacheOptions,
    /// Same-bank batch fusion: splice co-located queued jobs into one
    /// program and optimize across the boundary before dispatch.
    pub batch: BatchOptions,
    /// When set, the runtime sends live [`JobNotice`]s here: one
    /// [`JobNotice::Attempt`] per member job of every executed dispatch
    /// (as banks retire them, before [`Runtime::finish`]), and one
    /// [`JobNotice::Cancelled`] per job dropped by [`Runtime::cancel`].
    pub notify: Option<mpsc::Sender<JobNotice>>,
    /// Start with the scheduler gated: submitted jobs accumulate in the
    /// bounded queue and nothing is placed or issued until
    /// [`Runtime::resume`] (or [`Runtime::finish`], which opens the gate
    /// before draining). Lets tests and staged deployments line up a
    /// backlog — and cancel parts of it — deterministically.
    pub start_paused: bool,
    /// Shard restart policy: backoff bounds, per-job crash-retry budget,
    /// and the hard drain deadline [`Runtime::finish`] honors.
    pub supervise: SuperviseOptions,
    /// Execution watchdog: per-attempt wall-clock budgets, hung-attempt
    /// classification, and the poison-job quarantine. Enabling it makes
    /// the session resilient (see [`RuntimeOptions::health`]) and keeps
    /// the scheduler polling so hung attempts are scanned.
    pub watchdog: WatchdogOptions,
    /// Seeded software-fault injection (worker panics, stalls, delays at
    /// named crossing points). An active plan makes the session
    /// resilient (see [`RuntimeOptions::health`]); `None` (or a quiet
    /// plan) leaves the deterministic path untouched.
    pub chaos: Option<ChaosPlan>,
    /// Within-bank issue order (see [`IssuePolicy`]). FIFO by default;
    /// [`IssuePolicy::Edf`] issues earliest-deadline-first with
    /// arrival-order tie-breaking.
    pub issue_policy: IssuePolicy,
}

impl Default for RuntimeOptions {
    fn default() -> RuntimeOptions {
        RuntimeOptions {
            shards: 4,
            queue_capacity: 64,
            dispatch: DispatchMode::Circular,
            compile: CompileOptions::default(),
            trace_path: None,
            protection: ProtectionPolicy::None,
            health: HealthPolicy::default(),
            faults: None,
            cache: CacheOptions::default(),
            batch: BatchOptions::default(),
            notify: None,
            start_paused: false,
            supervise: SuperviseOptions::default(),
            watchdog: WatchdogOptions::default(),
            chaos: None,
            issue_policy: IssuePolicy::default(),
        }
    }
}

impl RuntimeOptions {
    /// Options with a given shard count, defaults elsewhere.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> RuntimeOptions {
        self.shards = shards;
        self
    }

    /// Options with a given dispatch mode, defaults elsewhere.
    #[must_use]
    pub fn with_dispatch(mut self, dispatch: DispatchMode) -> RuntimeOptions {
        self.dispatch = dispatch;
        self
    }

    /// Options with a given within-bank issue policy, defaults
    /// elsewhere.
    #[must_use]
    pub fn with_issue_policy(mut self, issue_policy: IssuePolicy) -> RuntimeOptions {
        self.issue_policy = issue_policy;
        self
    }

    /// Options with given compile options, defaults elsewhere.
    #[must_use]
    pub fn with_compile(mut self, compile: CompileOptions) -> RuntimeOptions {
        self.compile = compile;
        self
    }

    /// Options with a given protection policy, defaults elsewhere.
    #[must_use]
    pub fn with_protection(mut self, protection: ProtectionPolicy) -> RuntimeOptions {
        self.protection = protection;
        self
    }

    /// Options with given health thresholds, defaults elsewhere.
    #[must_use]
    pub fn with_health(mut self, health: HealthPolicy) -> RuntimeOptions {
        self.health = health;
        self
    }

    /// Options with a fault-injection plan, defaults elsewhere.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> RuntimeOptions {
        self.faults = Some(faults);
        self
    }

    /// Options with given cache settings, defaults elsewhere.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheOptions) -> RuntimeOptions {
        self.cache = cache;
        self
    }

    /// Options with given batch-fusion settings, defaults elsewhere.
    #[must_use]
    pub fn with_batch(mut self, batch: BatchOptions) -> RuntimeOptions {
        self.batch = batch;
        self
    }

    /// Options with a live-completion notice channel, defaults elsewhere.
    #[must_use]
    pub fn with_notify(mut self, notify: mpsc::Sender<JobNotice>) -> RuntimeOptions {
        self.notify = Some(notify);
        self
    }

    /// Options that start the scheduler gated (see
    /// [`RuntimeOptions::start_paused`]), defaults elsewhere.
    #[must_use]
    pub fn paused(mut self) -> RuntimeOptions {
        self.start_paused = true;
        self
    }

    /// Options with a given shard restart policy, defaults elsewhere.
    #[must_use]
    pub fn with_supervise(mut self, supervise: SuperviseOptions) -> RuntimeOptions {
        self.supervise = supervise;
        self
    }

    /// Options with a given watchdog policy, defaults elsewhere.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogOptions) -> RuntimeOptions {
        self.watchdog = watchdog;
        self
    }

    /// Options with a seeded chaos plan, defaults elsewhere.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> RuntimeOptions {
        self.chaos = Some(chaos);
        self
    }

    /// Whether these options configure device-fault handling: a fault
    /// plan or an active protection policy.
    pub fn fault_aware(&self) -> bool {
        self.faults.is_some() || self.protection.is_active()
    }

    /// The active chaos plan, if one is configured and nonzero.
    fn active_chaos(&self) -> Option<ChaosPlan> {
        self.chaos.filter(ChaosPlan::is_active)
    }

    /// Whether the classic scheduler tracks bank health and caps
    /// in-flight dispatches per bank: device-fault awareness, an active
    /// chaos plan, or the watchdog. Only these sessions let issue order
    /// depend on ack timing.
    fn resilient(&self) -> bool {
        self.fault_aware() || self.active_chaos().is_some() || self.watchdog.enabled
    }
}

/// One member job's share of a dispatched (possibly batched) program:
/// identity, how many readouts it owns in the program's output stream,
/// and which dispatch attempt this is for it.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    job_id: u64,
    readouts: usize,
    attempt: u32,
}

/// What the scheduler sends each worker.
enum WorkMsg {
    /// Execute one dispatch: a single job's program, or a batched splice
    /// of several same-unit jobs. `slots` demuxes the outputs per job.
    Job {
        seq: u64,
        unit: DbcLocation,
        program: Arc<PimProgram>,
        slots: Vec<SlotMeta>,
    },
    /// Run a position-code scrub pass over one bank's materialized DBCs.
    Scrub { bank: usize },
}

/// What a worker reports back to [`Runtime::finish`], once per dispatch
/// attempt.
struct DoneMsg {
    seq: u64,
    unit: DbcLocation,
    slots: Vec<SlotMeta>,
    outputs: Vec<(String, Vec<u64>)>,
    instr_costs: Vec<Cost>,
    error: Option<PimError>,
    replicas: u32,
    faults_detected: u64,
    retries: u32,
    votes_overturned: u64,
    verified: bool,
}

/// What a worker reports back to the scheduler after every dispatch:
/// the in-flight cap, health accounting, and re-dispatch key on it, and
/// the per-member outputs resolve dependency gates and feed deferred
/// binders.
enum AckMsg {
    /// Heartbeat: the worker dequeued dispatch `seq` and is about to
    /// execute it. Sent only when the watchdog is enabled; it stamps the
    /// attempt's wall-clock start for budget accounting.
    Started {
        seq: u64,
    },
    Job {
        seq: u64,
        bank: usize,
        faults: u64,
        verified: bool,
        /// Whether the dispatch hit an execution error.
        errored: bool,
        /// Per-member demuxed outputs, in slot order: `(job_id, outputs)`.
        members: Vec<(u64, DepOutputs)>,
    },
    Scrub {
        bank: usize,
        outcome: ScrubOutcome,
    },
    /// Terminal: the worker caught a panic and is exiting. `generation`
    /// guards against late reports from already-replaced incarnations;
    /// `panicked_seq` is the dispatch that was executing when the panic
    /// hit (its attempt died; queued dispatches are re-placed from the
    /// scheduler's own in-flight records, never from the worker).
    ShardDown {
        shard: usize,
        generation: u64,
        panicked_seq: Option<u64>,
    },
}

/// What flows through the submission queue: independent jobs, atomic
/// dependency chains, and resident weight pins.
enum Submission {
    /// An independent job (the classic `submit` path).
    Job(PimJob),
    /// An atomically admitted group of dependency-gated jobs.
    Chain(Vec<GatedJob>),
    /// A resident weight pin: `job` loads the weights on the unit with
    /// index `unit_idx` and registers residency `res` there.
    Pin {
        res: u64,
        unit_idx: usize,
        job: PimJob,
    },
}

/// Where a chain member's program comes from (public mirror of the
/// scheduler-side [`GatedSource`]).
pub enum ProgramSource {
    /// The program is known at submission and is submitted verbatim —
    /// chain members bypass the on-enqueue compiler because their
    /// programs may read rows produced by predecessors or resident
    /// pins, which per-program analysis cannot see.
    Ready(PimProgram),
    /// The program is built by `build` once every job at the listed
    /// chain indices has retired, from their labeled outputs (binder
    /// argument order = `deps` order).
    Deferred {
        /// Chain-member indices this binder consumes (must be earlier
        /// members of the same chain).
        deps: Vec<usize>,
        /// The program builder.
        build: Binder,
    },
}

/// One member of a dependency chain handed to
/// [`Runtime::submit_chain`].
pub struct ChainJob {
    /// The member's program (ready or deferred).
    pub source: ProgramSource,
    /// Requested placement. [`Placement::Auto`] members consume the
    /// circular placement cursor when placed; pipelines that need
    /// determinism across shard counts pin members with
    /// [`Placement::Unit`] or [`Placement::Resident`].
    pub placement: Placement,
    /// Chain-member indices that must retire before this member places
    /// (ordering-only gates; data dependencies in a deferred source are
    /// added automatically).
    pub after: Vec<usize>,
}

/// The receipt of a [`Runtime::pin_resident`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentPin {
    /// Residency id — used as [`Placement::Resident`] by jobs that read
    /// the pinned rows.
    pub res: u64,
    /// The pin job's id (it reports a normal [`JobOutcome`] whose
    /// readouts echo the pinned rows).
    pub job: u64,
}

/// Relocates a program onto `unit`'s tile: every address keeps its DBC
/// index and row but moves to the unit's bank/subarray/tile. This is
/// the multi-DBC analogue of [`PimProgram::retarget`] used for resident
/// jobs, whose programs address both the tile's PIM DBC and its storage
/// DBCs.
fn relocate_to_tile(program: &PimProgram, unit: DbcLocation) -> PimProgram {
    use coruscant_mem::RowAddress;
    let mv = |a: &RowAddress| {
        RowAddress::new(
            DbcLocation::new(unit.bank, unit.subarray, unit.tile, a.location.dbc),
            a.row,
        )
    };
    let steps = program
        .steps
        .iter()
        .map(|s| match s {
            Step::Load { addr, values, lane } => Step::Load {
                addr: mv(addr),
                values: values.clone(),
                lane: *lane,
            },
            Step::Exec(i) => {
                let mut i = *i;
                i.src = mv(&i.src);
                i.dst = i.dst.map(|d| mv(&d));
                Step::Exec(i)
            }
            Step::Readout { label, addr, lane } => Step::Readout {
                label: label.clone(),
                addr: mv(addr),
                lane: *lane,
            },
        })
        .collect();
    PimProgram { steps }
}

/// Per-stage occupancy counters a scheduler loop accumulates as it
/// runs. Stage busy times are thread-CPU micros (see [`cputime`]), so
/// they measure work done, not wall time lost to preemption;
/// `wall_micros` is the loop's wall-clock lifetime.
#[derive(Clone, Default)]
struct SchedProfile {
    pop_micros: u64,
    admit_micros: u64,
    place_micros: u64,
    dispatch_micros: u64,
    ack_micros: u64,
    wall_micros: u64,
    /// Dispatches issued per worker shard (`bank % shards`).
    per_shard_issued: Vec<u64>,
    /// Member jobs issued per worker shard.
    per_shard_jobs: Vec<u64>,
}

/// What the scheduler thread hands back on shutdown.
struct SchedulerOutput {
    depth_hist: Histogram,
    issued: u64,
    batches: u64,
    batched_jobs: u64,
    splice_hits: u64,
    splice_misses: u64,
    cancelled: u64,
    /// Jobs dropped at issue time because their deadline had passed.
    expired: u64,
    redispatches: u64,
    scrubs: u64,
    scrub_total: ScrubOutcome,
    suspect_banks: u64,
    quarantined_banks: u64,
    degraded_capacity: f64,
    deferred: u64,
    released: u64,
    cascaded: u64,
    pins: u64,
    remats: u64,
    /// Scheduler-side supervision counters (the supervisor itself keeps
    /// the panic/restart/retire counts; `finish` merges both).
    supervision: SupervisionStats,
    /// Issue sequence numbers that will never produce a completion: the
    /// dispatch died with its shard (and was re-issued under a new seq,
    /// abandoned, or declared hung). `finish` excludes them from the
    /// expected completion count and discards late results under them.
    lost: Vec<u64>,
    /// Scheduler-occupancy counters (stage busy CPU micros, per-shard
    /// issue counts).
    profile: SchedProfile,
}

/// The pause gate the scheduler waits on before it starts draining the
/// queue (see [`RuntimeOptions::start_paused`]).
#[derive(Debug)]
struct Gate {
    paused: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new(paused: bool) -> Gate {
        Gate {
            paused: Mutex::new(paused),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the gate is open.
    fn wait_open(&self) {
        let mut paused = sync::lock(&self.paused);
        while *paused {
            paused = sync::wait(&self.cv, paused);
        }
    }

    /// Opens the gate (idempotent).
    fn open(&self) {
        *sync::lock(&self.paused) = false;
        self.cv.notify_all();
    }
}

/// The set of job ids whose cancellation was requested. Cancellation is
/// best-effort: the scheduler consults the set at placement and at issue
/// time and drops matches (sending [`JobNotice::Cancelled`] and counting
/// them); a job already dispatched to a worker always runs to
/// completion.
type CancelSet = Arc<Mutex<HashSet<u64>>>;

/// Shared bookkeeping for cancellation checks in the scheduler loops.
struct Canceller {
    set: CancelSet,
    notify: Option<mpsc::Sender<JobNotice>>,
    trace: Option<Arc<EventTrace>>,
    cancelled: u64,
    /// Jobs dropped at issue time because their deadline had passed.
    expired: u64,
}

impl Canceller {
    fn new(
        set: CancelSet,
        notify: Option<mpsc::Sender<JobNotice>>,
        trace: Option<Arc<EventTrace>>,
    ) -> Canceller {
        Canceller {
            set,
            notify,
            cancelled: 0,
            expired: 0,
            trace,
        }
    }

    /// Whether any cancellation has ever been requested — a cheap guard
    /// that keeps the per-job check off the hot path in the common
    /// (no-cancellation) case.
    fn armed(&self) -> bool {
        !sync::lock(&self.set).is_empty()
    }

    /// If `job_id` was cancelled, record the drop (notice + trace +
    /// counter) and return `true`.
    fn drop_if_cancelled(&mut self, job_id: u64) -> bool {
        if !sync::lock(&self.set).contains(&job_id) {
            return false;
        }
        self.cancelled += 1;
        if let Some(trace) = &self.trace {
            trace.record(&Event::Cancelled { job: job_id });
        }
        if let Some(tx) = &self.notify {
            let _ = tx.send(JobNotice::Cancelled { job_id });
        }
        true
    }

    /// Drops cancelled members from an issued batch, keeping order, and
    /// returns the ids of the members it dropped (so the dependency
    /// tracker can cascade their dependents).
    fn filter_issue(&mut self, jobs: &mut Vec<PimJob>) -> Vec<u64> {
        let mut dropped = Vec::new();
        if self.armed() {
            // Vec::retain would borrow `self` inside the closure; collect
            // the survivors instead (cancellation is rare).
            let kept: Vec<PimJob> = jobs
                .drain(..)
                .filter_map(|j| {
                    if self.drop_if_cancelled(j.id) {
                        dropped.push(j.id);
                        None
                    } else {
                        Some(j)
                    }
                })
                .collect();
            *jobs = kept;
        }
        dropped
    }

    /// Drops members of an issued batch whose queueing deadline has
    /// already passed, keeping order, and returns the dropped ids (for
    /// dependency cascade). The deadline sweep companion to
    /// [`Canceller::filter_issue`]: checked at issue time so an
    /// expired-in-queue job can never occupy a bank, even between
    /// server sweeper wakeups.
    fn filter_expired(&mut self, jobs: &mut Vec<PimJob>) -> Vec<u64> {
        let mut dropped = Vec::new();
        if jobs.iter().all(|j| j.deadline.is_none()) {
            return dropped;
        }
        let now = Instant::now();
        let kept: Vec<PimJob> = jobs
            .drain(..)
            .filter_map(|j| {
                if j.deadline.is_some_and(|d| now >= d) {
                    self.expired += 1;
                    if let Some(trace) = &self.trace {
                        trace.record(&Event::Expired { job: j.id });
                    }
                    if let Some(tx) = &self.notify {
                        let _ = tx.send(JobNotice::Expired { job_id: j.id });
                    }
                    dropped.push(j.id);
                    None
                } else {
                    Some(j)
                }
            })
            .collect();
        *jobs = kept;
        dropped
    }

    /// Drops a dependency-gated job whose predecessor failed or was
    /// cancelled: it reports as cancelled (trace + notice) but is counted
    /// separately (in the pipeline stats, not `cancelled`).
    fn drop_cascaded(&mut self, job_id: u64) {
        if let Some(trace) = &self.trace {
            trace.record(&Event::Cancelled { job: job_id });
        }
        if let Some(tx) = &self.notify {
            let _ = tx.send(JobNotice::Cancelled { job_id });
        }
    }
}

/// The report a finished session produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Per-job completion records, ordered by job id.
    pub outcomes: Vec<JobOutcome>,
    /// Aggregate statistics.
    pub stats: RuntimeStats,
}

/// The request-serving engine. Create with [`Runtime::new`], feed it with
/// [`Runtime::submit`], and call [`Runtime::finish`] to drain, join the
/// workers, and collect the report.
pub struct Runtime {
    config: MemoryConfig,
    queue: Arc<JobQueue<Submission>>,
    next_id: Arc<AtomicU64>,
    next_res: AtomicU64,
    /// The scheduler thread; `finish` takes and joins it.
    scheduler: Option<JoinHandle<SchedulerOutput>>,
    supervisor: Arc<Supervisor<WorkMsg>>,
    // Behind a mutex only so `Runtime` stays `Sync` (an `mpsc::Receiver`
    // is not); `finish` takes it by value.
    done_rx: Mutex<mpsc::Receiver<DoneMsg>>,
    /// Per-shard worker busy CPU micros.
    worker_busy: Arc<Vec<AtomicU64>>,
    trace: Option<Arc<EventTrace>>,
    shards: usize,
    protection: ProtectionPolicy,
    supervise: SuperviseOptions,
    poison: Option<Arc<PoisonRegistry>>,
    compiler: Compiler,
    cache: Option<ProgramCache>,
    cancels: CancelSet,
    gate: Arc<Gate>,
    optimized_jobs: AtomicU64,
    instructions_eliminated: AtomicU64,
    est_device_cycles_saved: AtomicU64,
}

impl Runtime {
    /// Starts the runtime: spawns the scheduler thread and one worker per
    /// shard.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Trace`] if the trace file cannot be
    /// created, or [`RuntimeError::Config`] for an NMR degree the
    /// configured TRD cannot vote on or inconsistent health thresholds.
    pub fn new(config: MemoryConfig, options: RuntimeOptions) -> Result<Runtime, RuntimeError> {
        if let ProtectionPolicy::Nmr { n } = options.protection {
            if !NmrVoter::new(&config).supported_n().contains(&n) {
                return Err(RuntimeError::Config(format!(
                    "NMR degree {n} unsupported at TRD {}",
                    config.trd
                )));
            }
        }
        let fault_aware = options.fault_aware();
        if fault_aware {
            options.health.check().map_err(RuntimeError::Config)?;
        }
        let resilient = options.resilient();
        let chaos = options.active_chaos();
        if chaos.is_some() {
            chaos::install_quiet_hook();
        }
        let poison = options
            .watchdog
            .enabled
            .then(|| Arc::new(PoisonRegistry::new(options.watchdog.poison_strikes)));
        let shards = options.shards.clamp(1, config.banks);
        let queue = Arc::new(JobQueue::new(options.queue_capacity));
        let trace = match &options.trace_path {
            Some(path) => Some(Arc::new(
                EventTrace::create(path).map_err(RuntimeError::Trace)?,
            )),
            None => None,
        };

        let cancels: CancelSet = Arc::new(Mutex::new(HashSet::new()));
        let gate = Arc::new(Gate::new(options.start_paused));

        let (done_tx, done_rx) = mpsc::channel::<DoneMsg>();
        let (ack_tx, ack_rx) = mpsc::channel::<AckMsg>();
        let worker_busy: Arc<Vec<AtomicU64>> =
            Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect());
        // Workers are spawned (and re-spawned after a panic) through this
        // factory; the supervisor owns it, so dropping the supervisor's
        // state at `finish` also closes the done/ack channels.
        let factory: supervise::Factory<WorkMsg> = {
            let cfg = config.clone();
            let faults = options.faults.clone();
            let protection = options.protection;
            let notify = options.notify.clone();
            let max_redispatch = options.health.max_redispatch;
            let heartbeat = options.watchdog.enabled;
            let busy = Arc::clone(&worker_busy);
            let kick = Arc::clone(&queue);
            Box::new(move |shard, generation| {
                let (tx, rx) = mpsc::channel::<WorkMsg>();
                let done = done_tx.clone();
                // Acks are always on: the scheduler needs them for its
                // in-flight records, health accounting, and to resolve
                // dependency gates from the per-member outputs.
                let ack = ack_tx.clone();
                let cfg = cfg.clone();
                let faults = faults.clone();
                let notify = notify.clone();
                let busy = Arc::clone(&busy);
                let kick = Arc::clone(&kick);
                let handle = std::thread::spawn(move || {
                    worker_loop(
                        &cfg,
                        faults,
                        protection,
                        &rx,
                        &done,
                        &ack,
                        notify.as_ref(),
                        max_redispatch,
                        WorkerCtx {
                            shard,
                            generation,
                            chaos,
                            heartbeat,
                            busy,
                            kick,
                        },
                    );
                });
                (tx, handle)
            })
        };
        let supervisor = Arc::new(Supervisor::new(shards, options.supervise, factory));

        let next_id = Arc::new(AtomicU64::new(0));
        let scheduler = {
            let queue = Arc::clone(&queue);
            let cfg = config.clone();
            let trace = trace.clone();
            let dispatch = options.dispatch;
            let protection = options.protection;
            let policy = options.health;
            let batch = options.batch;
            let compile = options.compile;
            let supervise_opts = options.supervise;
            let watchdog = options.watchdog;
            let issue_policy = options.issue_policy;
            let canceller =
                Canceller::new(Arc::clone(&cancels), options.notify.clone(), trace.clone());
            let gate = Arc::clone(&gate);
            let next_id = Arc::clone(&next_id);
            let supervisor = Arc::clone(&supervisor);
            let poison = poison.clone();
            std::thread::spawn(move || {
                gate.wait_open();
                classic_loop(
                    &cfg,
                    &queue,
                    &supervisor,
                    shards,
                    &ack_rx,
                    dispatch,
                    protection,
                    policy,
                    resilient,
                    trace,
                    batch,
                    compile,
                    canceller,
                    &next_id,
                    supervise_opts,
                    watchdog,
                    chaos,
                    poison,
                    issue_policy,
                )
            })
        };

        let compiler = Compiler::new(config.clone(), &options.compile);
        let cache = options
            .cache
            .enabled
            .then(|| ProgramCache::new(&options.cache));
        Ok(Runtime {
            config,
            queue,
            next_id,
            next_res: AtomicU64::new(0),
            scheduler: Some(scheduler),
            supervisor,
            done_rx: Mutex::new(done_rx),
            worker_busy,
            trace,
            shards,
            protection: options.protection,
            supervise: options.supervise,
            poison,
            compiler,
            cache,
            cancels,
            gate,
            optimized_jobs: AtomicU64::new(0),
            instructions_eliminated: AtomicU64::new(0),
            est_device_cycles_saved: AtomicU64::new(0),
        })
    }

    /// Runs a program through the on-enqueue compiler, consulting the
    /// compiled-program cache first; a hit skips the whole pass pipeline.
    /// Returns the shared optimized program and whether it was a hit.
    /// The optimization counters accumulate either way, so the reported
    /// savings are identical with and without the cache.
    fn compile(&self, program: &PimProgram) -> Result<(Arc<PimProgram>, bool), CompileError> {
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.get(program) {
                self.credit_optimization(hit.instructions_saved, hit.cycles_saved);
                return Ok((hit.program, true));
            }
        }
        let (optimized, report) = self.compiler.optimize(program)?;
        let instructions_saved = report.instructions_saved();
        let cycles_saved = report.cycles_saved();
        self.credit_optimization(instructions_saved, cycles_saved);
        let optimized = Arc::new(optimized);
        if let Some(cache) = &self.cache {
            cache.insert(program, &optimized, instructions_saved, cycles_saved);
        }
        Ok((optimized, false))
    }

    fn credit_optimization(&self, instructions_saved: u64, cycles_saved: u64) {
        if instructions_saved > 0 || cycles_saved > 0 {
            self.optimized_jobs.fetch_add(1, Ordering::Relaxed);
            self.instructions_eliminated
                .fetch_add(instructions_saved, Ordering::Relaxed);
            self.est_device_cycles_saved
                .fetch_add(cycles_saved, Ordering::Relaxed);
        }
    }

    /// The memory configuration the runtime serves.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Current depth of the bounded submission queue — the live
    /// admission signal a serving frontend sheds load on (the queue
    /// depth *histograms* in [`RuntimeStats`] cover the same pressure
    /// retrospectively).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Capacity of the bounded submission queue.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Opens the scheduler gate of a runtime created with
    /// [`RuntimeOptions::start_paused`]. Idempotent; a no-op for
    /// runtimes that started running.
    pub fn resume(&self) {
        self.gate.open();
    }

    /// Requests cancellation of a still-queued job. Best-effort: the
    /// scheduler drops the job (and sends [`JobNotice::Cancelled`], if a
    /// notice channel is configured) if it is still in the submission
    /// queue or a bank FIFO when the request is observed; a job already
    /// issued to a worker runs to completion and reports an outcome as
    /// usual. Cancelled jobs produce no [`JobOutcome`] and count in
    /// [`RuntimeStats::cancelled`].
    pub fn cancel(&self, job_id: u64) {
        sync::lock(&self.cancels).insert(job_id);
    }

    /// Serializable snapshot of the poison-job quarantine (empty when the
    /// watchdog is disabled — the registry only exists under one).
    pub fn poison_report(&self) -> PoisonReport {
        self.poison.as_ref().map(|p| p.report()).unwrap_or_default()
    }

    /// Refuses a program whose fingerprint the poison registry has
    /// quarantined. Checked after compilation so the fingerprint matches
    /// what the watchdog strikes (the dispatched, optimized program;
    /// structural hashing is placement-normalized, so retargeting does
    /// not change it).
    fn check_poison(&self, program: &PimProgram) -> Result<(), u64> {
        if let Some(poison) = &self.poison {
            let fingerprint = cache::fingerprint(program);
            if poison.is_quarantined(fingerprint) {
                return Err(fingerprint);
            }
        }
        Ok(())
    }

    /// Submits a job, blocking while the queue is full (backpressure).
    /// Returns the job id.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::QueueClosed`] after [`Runtime::finish`],
    /// or [`RuntimeError::Poisoned`] for a program the watchdog's poison
    /// registry has quarantined.
    pub fn submit(&self, program: PimProgram, placement: Placement) -> Result<u64, RuntimeError> {
        self.submit_due(program, placement, None)
    }

    /// Like [`Runtime::submit`], with an absolute queueing deadline: the
    /// EDF issue policy orders on it, and a job still queued past it is
    /// dropped as expired at issue time.
    ///
    /// # Errors
    ///
    /// As [`Runtime::submit`].
    pub fn submit_due(
        &self,
        program: PimProgram,
        placement: Placement,
        deadline: Option<Instant>,
    ) -> Result<u64, RuntimeError> {
        let (program, cache_hit) = self.compile(&program).map_err(RuntimeError::Compile)?;
        self.check_poison(&program)
            .map_err(|fingerprint| RuntimeError::Poisoned { fingerprint })?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = &self.trace {
            trace.record(&Event::Submit { job: id });
            if cache_hit {
                trace.record(&Event::CacheHit { job: id });
            }
        }
        let sub = Submission::Job(PimJob {
            id,
            program,
            placement,
            deadline,
        });
        self.queue
            .push(sub)
            .map_err(|_| RuntimeError::QueueClosed)?;
        Ok(id)
    }

    /// Submits without blocking. A refused program is dropped — clients
    /// that want to retry keep their own clone. A program the compiler
    /// rejects is submitted *unoptimized* (the error, if real, surfaces
    /// at execution).
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when the queue is at capacity (shed load or
    /// retry), [`PushError::Closed`] after [`Runtime::finish`], or
    /// [`PushError::Poisoned`] for a quarantined program.
    pub fn try_submit(&self, program: PimProgram, placement: Placement) -> Result<u64, PushError> {
        self.try_submit_due(program, placement, None)
    }

    /// Like [`Runtime::try_submit`], with an absolute queueing deadline
    /// (see [`Runtime::submit_due`]).
    ///
    /// # Errors
    ///
    /// As [`Runtime::try_submit`].
    pub fn try_submit_due(
        &self,
        program: PimProgram,
        placement: Placement,
        deadline: Option<Instant>,
    ) -> Result<u64, PushError> {
        // On compile failure the original program is submitted verbatim;
        // no defensive clone is needed because the compiler borrows it.
        let (program, cache_hit) = match self.compile(&program) {
            Ok(compiled) => compiled,
            Err(_) => (Arc::new(program), false),
        };
        if let Err(fingerprint) = self.check_poison(&program) {
            return Err(PushError::Poisoned { fingerprint });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let sub = Submission::Job(PimJob {
            id,
            program,
            placement,
            deadline,
        });
        self.queue.try_push(sub)?;
        if let Some(trace) = &self.trace {
            trace.record(&Event::Submit { job: id });
            if cache_hit {
                trace.record(&Event::CacheHit { job: id });
            }
        }
        Ok(id)
    }

    /// Submits a dependency chain atomically: a group of jobs where each
    /// member can gate on earlier members (by chain index). A gated
    /// member is held out of the bank FIFOs until every predecessor's
    /// *final* attempt retires — composing with protection re-dispatch
    /// (the gate waits for the last attempt), cancellation (a cancelled
    /// predecessor cascades: dependents are dropped and report as
    /// cancelled), and batching (released jobs batch like any others).
    /// [`ProgramSource::Deferred`] members additionally receive their
    /// data dependencies' labeled outputs when they release.
    ///
    /// Chain members bypass the on-enqueue compiler: their programs may
    /// read rows produced by predecessors or resident pins, which
    /// per-program dead-code analysis cannot see. Pre-optimize with
    /// [`Compiler`](coruscant_compiler::Compiler) where that is safe.
    ///
    /// Returns the member job ids, in chain order. Blocks while the
    /// queue is full.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Config`] when a member references a chain index at
    /// or after its own position (dependencies must point backwards), or
    /// [`RuntimeError::QueueClosed`] after [`Runtime::finish`].
    pub fn submit_chain(&self, chain: Vec<ChainJob>) -> Result<Vec<u64>, RuntimeError> {
        for (i, member) in chain.iter().enumerate() {
            let bad = |what: &str, idx: usize| {
                RuntimeError::Config(format!(
                    "chain member {i}: {what} index {idx} does not precede it"
                ))
            };
            for &d in &member.after {
                if d >= i {
                    return Err(bad("after", d));
                }
            }
            if let ProgramSource::Deferred { deps, .. } = &member.source {
                for &d in deps {
                    if d >= i {
                        return Err(bad("dep", d));
                    }
                }
            }
        }
        let base = self
            .next_id
            .fetch_add(chain.len() as u64, Ordering::Relaxed);
        let ids: Vec<u64> = (0..chain.len() as u64).map(|i| base + i).collect();
        let gated: Vec<GatedJob> = chain
            .into_iter()
            .enumerate()
            .map(|(i, member)| {
                let mut after: Vec<u64> = member.after.iter().map(|&d| base + d as u64).collect();
                let source = match member.source {
                    ProgramSource::Ready(program) => GatedSource::Ready(Arc::new(program)),
                    ProgramSource::Deferred { deps, build } => {
                        let dep_ids: Vec<u64> = deps.iter().map(|&d| base + d as u64).collect();
                        after.extend(&dep_ids);
                        GatedSource::Deferred { dep_ids, build }
                    }
                };
                after.sort_unstable();
                after.dedup();
                GatedJob {
                    id: base + i as u64,
                    source,
                    placement: member.placement,
                    after,
                }
            })
            .collect();
        if let Some(trace) = &self.trace {
            for &id in &ids {
                trace.record(&Event::Submit { job: id });
            }
        }
        self.queue
            .push(Submission::Chain(gated))
            .map_err(|_| RuntimeError::QueueClosed)?;
        Ok(ids)
    }

    /// Submits one job gated on previously returned job ids: it is held
    /// out of the bank FIFOs until every id in `after` has retired its
    /// final attempt. Unlike chain members the program goes through the
    /// on-enqueue compiler (it is standalone by construction — ordering
    /// gates carry no data).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Config`] when `after` references an id not yet
    /// returned by this runtime, [`RuntimeError::QueueClosed`] after
    /// [`Runtime::finish`], or [`RuntimeError::Compile`].
    pub fn submit_after(
        &self,
        program: PimProgram,
        placement: Placement,
        after: &[u64],
    ) -> Result<u64, RuntimeError> {
        let (program, cache_hit) = self.compile(&program).map_err(RuntimeError::Compile)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        for &d in after {
            if d >= id {
                return Err(RuntimeError::Config(format!(
                    "submit_after: dependency {d} is not an existing job id"
                )));
            }
        }
        if let Some(trace) = &self.trace {
            trace.record(&Event::Submit { job: id });
            if cache_hit {
                trace.record(&Event::CacheHit { job: id });
            }
        }
        let mut after = after.to_vec();
        after.sort_unstable();
        after.dedup();
        self.queue
            .push(Submission::Chain(vec![GatedJob {
                id,
                source: GatedSource::Ready(program),
                placement,
                after,
            }]))
            .map_err(|_| RuntimeError::QueueClosed)?;
        Ok(id)
    }

    /// Pins weights resident: runs `program` once on the PIM unit with
    /// index `unit_idx` (modulo the unit count) and registers a residency
    /// there. Jobs submitted with [`Placement::Resident`] and the
    /// returned `res` id run on the hosting unit with their addresses
    /// relocated tile-relative — DBC index and row preserved — so they
    /// can copy the pinned rows out of the tile's storage DBCs. If the
    /// hosting bank is quarantined, the scheduler re-runs the pin program
    /// on a healthy unit *before* re-placing any dependent job there
    /// (counted in [`PipelineStats::rematerializations`]).
    ///
    /// The pin program is submitted verbatim (no compiler pass): its
    /// loads look dead to per-program analysis, so pin programs should
    /// end with `Readout` steps echoing a sentinel row.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::QueueClosed`] after [`Runtime::finish`].
    pub fn pin_resident(
        &self,
        program: PimProgram,
        unit_idx: usize,
    ) -> Result<ResidentPin, RuntimeError> {
        let res = self.next_res.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = &self.trace {
            trace.record(&Event::Submit { job: id });
        }
        self.queue
            .push(Submission::Pin {
                res,
                unit_idx,
                job: PimJob {
                    id,
                    program: Arc::new(program),
                    placement: Placement::Resident(res),
                    deadline: None,
                },
            })
            .map_err(|_| RuntimeError::QueueClosed)?;
        Ok(ResidentPin { res, job: id })
    }

    /// Closes the queue, drains all pending work, joins the scheduler and
    /// workers, replays the timing accounting, and returns the report.
    ///
    /// Worker panics do **not** fail the session: the supervisor caught
    /// them live, their jobs were re-dispatched or abandoned, and the
    /// report is built from every completion the scheduler accounted for
    /// ([`SupervisionStats`] records what was lost along the way). A
    /// permanently stalled worker cannot wedge this call either — the
    /// collection is bounded by [`SuperviseOptions::drain_deadline_ms`].
    ///
    /// # Errors
    ///
    /// Returns the first job error in issue order, or
    /// [`RuntimeError::WorkerLost`] if the scheduler thread itself
    /// panicked.
    pub fn finish(mut self) -> Result<RuntimeReport, RuntimeError> {
        self.queue.close();
        // A paused runtime drains on finish: open the gate so the
        // scheduler can run the backlog down.
        self.gate.open();
        let sched_out = self
            .scheduler
            .take()
            .expect("scheduler joined only once")
            .join()
            .map_err(|_| RuntimeError::WorkerLost)?;

        // Stop supervision: drop the factory and every live sender so
        // workers drain their channels and exit.
        self.supervisor.close();
        let lost: HashSet<u64> = sched_out.lost.iter().copied().collect();
        let done_rx = self
            .done_rx
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let stalled = self.supervisor.stalled_workers();
        let mut completions: Vec<DoneMsg> = if stalled == 0 && lost.is_empty() {
            // Every worker has exited (or exits as its channel drains):
            // the completion stream ends when the last sender drops.
            done_rx.iter().collect()
        } else {
            // A stalled or abandoned-but-undetached worker still holds a
            // `done` sender, so the stream never disconnects. Collect
            // exactly the completions the scheduler accounted for,
            // bounded by the drain deadline. The lost filter drops late
            // results of replaced or given-up workers.
            let expected = (sched_out.issued as usize).saturating_sub(lost.len());
            let deadline = Instant::now() + self.supervise.drain_deadline();
            let mut collected = Vec::with_capacity(expected);
            while collected.len() < expected {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match done_rx.recv_timeout(deadline - now) {
                    Ok(c) => {
                        if !lost.contains(&c.seq) {
                            collected.push(c);
                        }
                    }
                    Err(_) => break,
                }
            }
            collected
        };
        let workers_lost = self
            .supervisor
            .join_all(Instant::now() + self.supervise.drain_deadline());
        completions.sort_by_key(|c| c.seq);

        let (panics_caught, shard_restarts, shards_retired) = self.supervisor.counters();
        let supervision = SupervisionStats {
            panics_caught,
            shard_restarts,
            shards_retired,
            workers_lost,
            ..sched_out.supervision
        };
        self.assemble_report(sched_out, completions, supervision)
    }

    /// Folds the scheduler loop's stage profile and the worker busy
    /// meters into the occupancy stats. The serial bottleneck is
    /// whichever is larger: the scheduler's own non-wait CPU, or the
    /// busiest worker. Pops are excluded — blocked waits are idleness,
    /// not work.
    fn sched_stats(&self, p: &SchedProfile) -> SchedStats {
        let worker_busy: Vec<u64> = self
            .worker_busy
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let sched_busy = p.admit_micros + p.place_micros + p.dispatch_micros + p.ack_micros;
        let busy_micros = worker_busy
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(sched_busy);
        let per_domain: Vec<DomainStats> = (0..self.shards)
            .map(|s| DomainStats {
                domain: s,
                issued: p.per_shard_issued.get(s).copied().unwrap_or(0),
                jobs: p.per_shard_jobs.get(s).copied().unwrap_or(0),
                busy_micros: worker_busy.get(s).copied().unwrap_or(0),
            })
            .collect();
        SchedStats {
            domains: self.shards,
            pop_micros: p.pop_micros,
            admit_micros: p.admit_micros,
            place_micros: p.place_micros,
            dispatch_micros: p.dispatch_micros,
            ack_micros: p.ack_micros,
            busy_micros,
            wall_micros: p.wall_micros,
            occupancy_pct: if p.wall_micros > 0 {
                busy_micros as f64 / p.wall_micros as f64 * 100.0
            } else {
                0.0
            },
            per_domain,
        }
    }

    /// Replays the seq-ordered completion stream through one
    /// [`MemoryController`] and builds the final report.
    fn assemble_report(
        self,
        sched_out: SchedulerOutput,
        completions: Vec<DoneMsg>,
        supervision: SupervisionStats,
    ) -> Result<RuntimeReport, RuntimeError> {
        let sched_stats = self.sched_stats(&sched_out.profile);
        // Timing accounting: replay every instruction's measured device
        // cost through one MemoryController in issue order — the same
        // accounting a sequential dispatcher would produce, so bank
        // conflicts serialize and distinct banks overlap. Every attempt
        // (retries and re-dispatches included) is replayed, so wasted
        // work honestly degrades the modeled throughput; only the final
        // attempt per job becomes its reported outcome.
        let mut timing = MemoryController::new(self.config.clone());
        let mut wait_hist = Histogram::new();
        let mut per_bank: Vec<BankOccupancy> = (0..self.config.banks)
            .map(|bank| BankOccupancy {
                bank,
                ..BankOccupancy::default()
            })
            .collect();
        let mut instructions = 0u64;
        let mut device_cycles = 0u64;
        let mut fstats = FaultStats {
            redispatches: sched_out.redispatches,
            scrubs: sched_out.scrubs,
            scrub: sched_out.scrub_total,
            suspect_banks: sched_out.suspect_banks,
            quarantined_banks: sched_out.quarantined_banks,
            degraded_capacity: sched_out.degraded_capacity,
            ..FaultStats::default()
        };
        // Winning (latest-seq) attempt per job id, with any error it hit.
        let mut winners: HashMap<u64, (JobOutcome, Option<PimError>)> = HashMap::new();
        for c in completions {
            let bank = c.unit.bank;
            let wait = timing.bank_free_at(bank).saturating_sub(timing.now());
            let mut done = 0;
            let mut batch_device = 0;
            for cost in &c.instr_costs {
                let t = timing.submit(Request::Pim {
                    location: c.unit,
                    device_cycles: cost.cycles,
                    energy_pj: cost.energy_pj,
                })?;
                done = done.max(t);
                batch_device += cost.cycles;
            }
            instructions += c.instr_costs.len() as u64;
            device_cycles += batch_device;
            fstats.replicas_run += u64::from(c.replicas);
            fstats.faults_detected += c.faults_detected;
            fstats.retries += u64::from(c.retries);
            fstats.votes_overturned += c.votes_overturned;
            // Demux the batched output stream back into per-job outputs
            // (readout counts were recorded at dispatch; passes neither
            // remove nor reorder readouts, so the slices stay exact) and
            // apportion the batch's measured device cycles evenly, with
            // the remainder on the first member.
            let members = c.slots.len();
            let share = batch_device / members.max(1) as u64;
            let mut remainder = batch_device - share * members as u64;
            let mut cursor = 0usize;
            for slot in &c.slots {
                let end = (cursor + slot.readouts).min(c.outputs.len());
                let start = cursor.min(c.outputs.len());
                cursor += slot.readouts;
                let outputs = c.outputs[start..end].to_vec();
                let job_device = share + remainder;
                remainder = 0;
                wait_hist.record(wait);
                per_bank[bank].jobs += 1;
                per_bank[bank].wait_cycles += wait;
                if let Some(trace) = &self.trace {
                    trace.record(&Event::Complete {
                        job: slot.job_id,
                        bank,
                        wait,
                        done,
                    });
                }
                let outcome = JobOutcome {
                    job_id: slot.job_id,
                    seq: c.seq,
                    unit: c.unit,
                    bank,
                    outputs,
                    device_cycles: job_device,
                    wait_cycles: wait,
                    completion: done,
                    attempt: slot.attempt,
                    replicas: c.replicas,
                    faults_detected: c.faults_detected,
                    retries: c.retries,
                    votes_overturned: c.votes_overturned,
                    verified: c.verified,
                    batch: members as u32,
                };
                // Attempts arrive in seq order, so a later re-dispatch of
                // the same job replaces the unverified earlier outcome.
                winners.insert(slot.job_id, (outcome, c.error.clone()));
            }
        }
        let makespan = timing.drain();
        for (bank, busy) in timing.bank_stats().busy_cycles.iter().enumerate() {
            per_bank[bank].busy_cycles = *busy;
        }
        // Surface the first (issue-order) error among winning attempts.
        let mut first_err: Option<(u64, PimError)> = None;
        let mut outcomes = Vec::with_capacity(winners.len());
        for (outcome, error) in winners.into_values() {
            if let Some(err) = error {
                if first_err.as_ref().is_none_or(|(seq, _)| outcome.seq < *seq) {
                    first_err = Some((outcome.seq, err));
                }
                continue;
            }
            outcomes.push(outcome);
        }
        if let Some((_, err)) = first_err {
            return Err(RuntimeError::Pim(err));
        }
        outcomes.sort_by_key(|o| o.job_id);
        if self.protection.is_active() {
            fstats.protected_jobs = outcomes.len() as u64;
            fstats.unverified_jobs = outcomes.iter().filter(|o| !o.verified).count() as u64;
        }

        let jobs = outcomes.len() as u64;
        let modeled_us = makespan as f64 * self.config.memory_cycle_ns / 1000.0;
        let stats = RuntimeStats {
            jobs,
            cancelled: sched_out.cancelled,
            expired: sched_out.expired,
            instructions,
            shards: self.shards,
            optimized_jobs: self.optimized_jobs.load(Ordering::Relaxed),
            instructions_eliminated: self.instructions_eliminated.load(Ordering::Relaxed),
            est_device_cycles_saved: self.est_device_cycles_saved.load(Ordering::Relaxed),
            makespan_cycles: makespan,
            device_cycles,
            jobs_per_us: if modeled_us > 0.0 {
                jobs as f64 / modeled_us
            } else {
                0.0
            },
            per_bank,
            queue_depth: sched_out.depth_hist,
            wait: wait_hist,
            controller: *timing.stats(),
            bank_stats: timing.bank_stats().clone(),
            faults: fstats,
            cache: self
                .cache
                .as_ref()
                .map(ProgramCache::stats)
                .unwrap_or_default(),
            batch: BatchStats {
                batches: sched_out.batches,
                batched_jobs: sched_out.batched_jobs,
                splice_hits: sched_out.splice_hits,
                splice_misses: sched_out.splice_misses,
            },
            pipeline: PipelineStats {
                deferred_jobs: sched_out.deferred,
                released_jobs: sched_out.released,
                cascade_cancelled: sched_out.cascaded,
                residents: sched_out.pins,
                rematerializations: sched_out.remats,
            },
            supervision,
            sched: sched_stats,
        };
        if let Some(trace) = &self.trace {
            trace.flush();
        }
        Ok(RuntimeReport { outcomes, stats })
    }
}

/// Convenience: run a batch of [`Placement::Auto`] programs through a
/// fresh runtime and return the report.
///
/// # Errors
///
/// Propagates runtime and job errors.
pub fn run_batch(
    config: &MemoryConfig,
    programs: Vec<PimProgram>,
    options: RuntimeOptions,
) -> Result<RuntimeReport, RuntimeError> {
    let runtime = Runtime::new(config.clone(), options)?;
    for program in programs {
        runtime.submit(program, Placement::Auto)?;
    }
    runtime.finish()
}

/// Readouts a program contributes to its dispatch's output stream.
fn count_readouts(program: &PimProgram) -> usize {
    program
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Readout { .. }))
        .count()
}

/// The program one dispatch executes: a single member's program shared
/// as-is, or the cross-boundary-optimized splice of all members (falling
/// back to the plain splice — still semantics-preserving — if the batch
/// pipeline fails).
fn batch_program(jobs: &[PimJob], compiler: &Compiler) -> Arc<PimProgram> {
    if jobs.len() == 1 {
        return Arc::clone(&jobs[0].program);
    }
    let spliced = splice_programs(jobs.iter().map(|j| (j.id, j.program.as_ref())));
    match compiler.optimize(&spliced.program) {
        Ok((optimized, _)) => Arc::new(optimized),
        Err(_) => Arc::new(spliced.program),
    }
}

/// [`batch_program`] with the batched-splice cache in front: repeated
/// same-shape batches skip splice + cross-boundary optimization.
fn batch_program_cached(
    jobs: &[PimJob],
    compiler: &Compiler,
    cache: &mut Option<BatchCache>,
) -> Arc<PimProgram> {
    if jobs.len() >= 2 {
        if let Some(cache) = cache.as_mut() {
            let members: Vec<&PimProgram> = jobs.iter().map(|j| j.program.as_ref()).collect();
            if let Some(hit) = cache.get(&members) {
                return hit;
            }
            let program = batch_program(jobs, compiler);
            cache.insert_if_missed(&members, &program);
            return program;
        }
    }
    batch_program(jobs, compiler)
}

/// A dispatched-but-unacknowledged attempt the classic scheduler keeps
/// so it can re-route its member jobs if verification fails or their
/// shard dies. Holds the members' *individual* programs (pre-splice),
/// so an unverified batch re-dispatches each member separately.
struct InflightRec {
    jobs: Vec<PimJob>,
    /// Worker shard the dispatch went to.
    shard: usize,
    /// Bank the dispatch targets (for in-flight cap accounting).
    bank: usize,
    /// When the worker's `Started` heartbeat arrived (watchdog anchor);
    /// `None` until then — a dispatch still queued behind other work
    /// cannot be hung.
    started: Option<Instant>,
    /// Watchdog wall-clock budget for this dispatch.
    budget: Duration,
}

/// The classic scheduler's mutable state, factored out so ack handling
/// can be invoked from both the polling and the blocking paths of
/// [`classic_loop`].
struct ClassicSched<'a> {
    units: MemoryController,
    unit_count: usize,
    shards: usize,
    dispatch: DispatchMode,
    policy: HealthPolicy,
    /// Whether the session is resilient ([`RuntimeOptions::resilient`]).
    /// Only then do acks feed bank health and the per-bank in-flight cap
    /// gate issue; otherwise issue is ungated, so issue order does not
    /// depend on ack timing and reports are bit-identical across shard
    /// counts.
    resilient: bool,
    protection_active: bool,
    batch: BatchOptions,
    compiler: Compiler,
    splice_cache: Option<BatchCache>,
    canceller: Canceller,
    trace: Option<Arc<EventTrace>>,
    supervisor: &'a Supervisor<WorkMsg>,
    supervise: SuperviseOptions,
    watchdog: WatchdogOptions,
    chaos: Option<ChaosPlan>,
    poison: Option<Arc<PoisonRegistry>>,
    sched: BankScheduler,
    health: HealthTracker,
    inflight: HashMap<u64, InflightRec>,
    inflight_per_bank: Vec<usize>,
    /// Re-dispatch count per job id (bounds recovery attempts).
    redispatched: HashMap<u64, u32>,
    /// Crash/hang re-placement count per job id (bounds supervision
    /// recovery, separately from verification re-dispatch).
    crash_retries: HashMap<u64, u32>,
    /// Scheduler-side supervision counters.
    sup: SupervisionStats,
    /// Seqs that will never complete (crashed, hung, or abandoned).
    lost: Vec<u64>,
    place_cursor: usize,
    issued: u64,
    batches: u64,
    batched_jobs: u64,
    redispatches: u64,
    /// Scrub passes awaiting an ack, per shard (zeroed when the shard
    /// goes down — its queued scrubs died with it).
    scrubs_outstanding: Vec<usize>,
    scrubs: u64,
    scrub_total: ScrubOutcome,
    deps: DepTracker,
    /// Jobs cleared for placement: admitted this round or released by a
    /// retirement. Placed in order by [`ClassicSched::place_ready`].
    ready: VecDeque<PimJob>,
    /// Residency id → (hosting unit, pin program kept for
    /// re-materialization after quarantine).
    residents: HashMap<u64, (DbcLocation, Arc<PimProgram>)>,
    /// Shared id counter, for re-materialization jobs the scheduler
    /// originates itself.
    next_id: &'a AtomicU64,
    pins: u64,
    remats: u64,
    /// Jobs dropped for an unknown residency (counted with the cascades).
    dropped: u64,
    /// Dispatches issued per worker shard (`bank % shards`).
    per_shard_issued: Vec<u64>,
    /// Member jobs issued per worker shard.
    per_shard_jobs: Vec<u64>,
}

impl ClassicSched<'_> {
    /// The next PIM unit in circular order, skipping quarantined banks,
    /// banks owned by a down worker shard, and `avoid` (when
    /// alternatives exist). Falls back to plain circular order if every
    /// unit is excluded.
    fn pick_unit(&mut self, avoid: Option<usize>) -> DbcLocation {
        // One lock for the whole scan instead of one per candidate.
        let shards_dirty = self.supervisor.any_down();
        for _ in 0..self.unit_count {
            let unit = self.units.pim_unit(self.place_cursor % self.unit_count);
            self.place_cursor += 1;
            if self.health.is_quarantined(unit.bank) {
                continue;
            }
            if shards_dirty && self.supervisor.is_down(unit.bank % self.shards) {
                continue;
            }
            if avoid == Some(unit.bank) && self.unit_count > 1 {
                continue;
            }
            return unit;
        }
        let unit = self.units.pim_unit(self.place_cursor % self.unit_count);
        self.place_cursor += 1;
        unit
    }

    /// The attempt number of job `id`'s next dispatch. Verification
    /// re-dispatches and crash/hang re-placements share the attempt axis
    /// (each restart of the job is a distinct attempt).
    fn attempt(&self, id: u64) -> u32 {
        self.redispatched.get(&id).copied().unwrap_or(0)
            + self.crash_retries.get(&id).copied().unwrap_or(0)
    }

    /// Resolves a job's placement (quarantine-aware for anything but
    /// [`Placement::Fixed`]) and enqueues it into the bank FIFOs.
    fn place(&mut self, job: PimJob) {
        let unit = match job.placement {
            Placement::Auto => match self.dispatch {
                DispatchMode::Circular => self.pick_unit(None),
                DispatchMode::SingleBank => {
                    let unit = self.units.pim_unit(0);
                    if self.health.is_quarantined(unit.bank) {
                        self.pick_unit(None)
                    } else {
                        unit
                    }
                }
            },
            Placement::Unit(idx) => {
                let unit = self.units.pim_unit(idx % self.unit_count);
                if self.health.is_quarantined(unit.bank) {
                    self.pick_unit(None)
                } else {
                    unit
                }
            }
            Placement::Fixed(loc) => loc,
            Placement::Resident(res) => {
                // The residency map is kept current by re-materialization
                // (quarantine moves residents before re-placing their
                // dependents), so the hosting unit is always usable here.
                let Some((unit, _)) = self.residents.get(&res) else {
                    // Unknown residency: the job can never run.
                    let id = job.id;
                    self.dropped += 1;
                    self.canceller.drop_cascaded(id);
                    self.finalize(id, true, Vec::new());
                    return;
                };
                let unit = *unit;
                let relocated = PimJob {
                    id: job.id,
                    program: Arc::new(relocate_to_tile(&job.program, unit)),
                    placement: job.placement,
                    deadline: job.deadline,
                };
                self.sched.enqueue(relocated, unit.bank);
                return;
            }
        };
        let retargeted = PimJob {
            id: job.id,
            program: Arc::new(job.program.retarget(unit)),
            placement: job.placement,
            deadline: job.deadline,
        };
        self.sched.enqueue(retargeted, unit.bank);
    }

    /// Records a job's final attempt with the dependency tracker and
    /// handles whatever that set free: ready jobs join the ready list,
    /// cascade-failed jobs report as cancelled.
    fn finalize(&mut self, id: u64, errored: bool, outputs: Vec<(String, Vec<u64>)>) {
        let rel = self.deps.on_final(id, errored, outputs);
        self.process_released(rel);
    }

    fn process_released(&mut self, rel: Released) {
        for id in rel.failed {
            self.canceller.drop_cascaded(id);
        }
        self.ready.extend(rel.ready);
    }

    /// Places the ready list in order, dropping jobs cancelled while
    /// they waited (a drop can cascade and release more work, which
    /// places in the same pass).
    fn place_ready(&mut self) {
        while let Some(job) = self.ready.pop_front() {
            if self.canceller.armed() && self.canceller.drop_if_cancelled(job.id) {
                self.finalize(job.id, true, Vec::new());
                continue;
            }
            self.place(job);
        }
    }

    /// Admits one submission from the queue into the ready list (a chaos
    /// plan may inject a deterministic, seed-keyed delay here). Pins
    /// register their residency now, before their load job places.
    fn admit(&mut self, submission: Submission) {
        if let Some(plan) = self.chaos {
            let probe = match &submission {
                Submission::Job(job) | Submission::Pin { job, .. } => Some(job.id),
                Submission::Chain(_) => None,
            };
            if let Some(id) = probe {
                if matches!(
                    plan.decide(CrossingPoint::SchedulerAdmit, id, 0),
                    ChaosAction::Delay
                ) {
                    std::thread::sleep(Duration::from_micros(plan.delay_us));
                }
            }
        }
        match submission {
            Submission::Job(job) => self.ready.push_back(job),
            Submission::Chain(chain) => {
                let rel = self.deps.admit(chain);
                self.process_released(rel);
            }
            Submission::Pin { res, unit_idx, job } => {
                let requested = self.units.pim_unit(unit_idx % self.unit_count);
                let unit = if self.health.is_quarantined(requested.bank) {
                    self.pick_unit(None)
                } else {
                    requested
                };
                self.residents.insert(res, (unit, Arc::clone(&job.program)));
                self.pins += 1;
                if let Some(trace) = &self.trace {
                    trace.record(&Event::ResidentPinned {
                        res,
                        job: job.id,
                        bank: unit.bank,
                    });
                }
                self.ready.push_back(job);
            }
        }
    }

    /// Moves every residency off a quarantined bank: each one gets a
    /// fresh re-materialization job that re-runs its pin program on a
    /// healthy unit. Called *before* the bank's FIFO is drained and
    /// re-placed, so per-bank FIFO order guarantees the weights reload
    /// before any dependent job runs on the new bank.
    fn rematerialize_off(&mut self, bank: usize) {
        let mut moved: Vec<(u64, Arc<PimProgram>)> = self
            .residents
            .iter()
            .filter(|(_, (unit, _))| unit.bank == bank)
            .map(|(res, (_, program))| (*res, Arc::clone(program)))
            .collect();
        moved.sort_by_key(|(res, _)| *res);
        for (res, program) in moved {
            let unit = self.pick_unit(Some(bank));
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.remats += 1;
            if let Some(trace) = &self.trace {
                trace.record(&Event::Rematerialized {
                    res,
                    job: id,
                    from_bank: bank,
                    to_bank: unit.bank,
                });
            }
            self.residents.insert(res, (unit, Arc::clone(&program)));
            let relocated = PimJob {
                id,
                program: Arc::new(relocate_to_tile(&program, unit)),
                placement: Placement::Resident(res),
                deadline: None,
            };
            self.sched.enqueue(relocated, unit.bank);
        }
    }

    /// Issues every queued dispatch whose worker shard is up (work for a
    /// down shard stays queued until the replacement worker runs) and,
    /// in resilient sessions, whose bank is below the in-flight cap.
    fn issue_ready(&mut self) {
        let cap = if self.resilient {
            self.policy.max_inflight_per_bank
        } else {
            usize::MAX
        };
        let max_jobs = self.batch.cap();
        let grouping = self.batch.grouping;
        // Snapshot of down shards, stable for the scan; a shard that
        // goes down mid-scan is caught on the next pass.
        let down: Vec<bool> = if self.supervisor.any_down() {
            (0..self.shards)
                .map(|s| self.supervisor.is_down(s))
                .collect()
        } else {
            Vec::new()
        };
        loop {
            let Some(mut issue) = self
                .sched
                .issue_next_batch_grouped(max_jobs, grouping, |bank| {
                    self.inflight_per_bank[bank] < cap
                        && down.get(bank % self.shards) != Some(&true)
                })
            else {
                return;
            };
            for id in self.canceller.filter_issue(&mut issue.jobs) {
                self.finalize(id, true, Vec::new());
            }
            for id in self.canceller.filter_expired(&mut issue.jobs) {
                self.finalize(id, true, Vec::new());
            }
            if issue.jobs.is_empty() {
                // Every member was cancelled: nothing dispatches, nothing
                // counts toward `issued` or the bank's in-flight cap.
                continue;
            }
            self.dispatch_issue(issue);
        }
    }

    /// Sends one issued dispatch to its shard and records it in flight.
    fn dispatch_issue(&mut self, issue: IssuedBatch) {
        let IssuedBatch { seq, jobs, bank } = issue;
        let shard = bank % self.shards;
        let program = batch_program_cached(&jobs, &self.compiler, &mut self.splice_cache);
        let unit = program
            .steps
            .first()
            .map_or_else(|| self.units.pim_unit(bank), Step::target);
        if jobs.len() >= 2 {
            self.batches += 1;
            self.batched_jobs += jobs.len() as u64;
            if let Some(trace) = &self.trace {
                trace.record(&Event::Batch {
                    seq,
                    bank,
                    jobs: jobs.iter().map(|j| j.id).collect(),
                });
            }
        }
        let slots: Vec<SlotMeta> = jobs
            .iter()
            .map(|j| SlotMeta {
                job_id: j.id,
                readouts: count_readouts(&j.program),
                attempt: self.attempt(j.id),
            })
            .collect();
        if let Some(trace) = &self.trace {
            for job in &jobs {
                trace.record(&Event::Issue {
                    job: job.id,
                    seq,
                    bank,
                    shard,
                });
            }
        }
        self.issued += 1;
        self.per_shard_issued[shard] += 1;
        self.per_shard_jobs[shard] += jobs.len() as u64;
        self.inflight_per_bank[bank] += 1;
        let budget = self.watchdog.budget(program.steps.len() as u64);
        self.supervisor.send(
            shard,
            WorkMsg::Job {
                seq,
                unit,
                program,
                slots,
            },
        );
        self.inflight.insert(
            seq,
            InflightRec {
                jobs,
                shard,
                bank,
                started: None,
                budget,
            },
        );
    }

    /// Processes one worker acknowledgement: health accounting, state
    /// transitions (scrub dispatch, quarantine drain), and re-dispatch of
    /// unverified jobs.
    fn handle_ack(&mut self, ack: AckMsg) {
        match ack {
            AckMsg::Started { seq } => {
                if let Some(rec) = self.inflight.get_mut(&seq) {
                    rec.started = Some(Instant::now());
                }
            }
            AckMsg::ShardDown {
                shard,
                generation,
                panicked_seq,
            } => {
                self.shard_down(shard, generation, DownCause::Panic, panicked_seq);
            }
            AckMsg::Scrub { bank, outcome } => {
                let shard = bank % self.shards;
                // Saturating: the counter was zeroed if the shard went
                // down while this scrub was in flight.
                self.scrubs_outstanding[shard] = self.scrubs_outstanding[shard].saturating_sub(1);
                self.scrubs += 1;
                self.scrub_total.merge(outcome);
                if let Some(trace) = &self.trace {
                    trace.record(&Event::Scrub {
                        bank,
                        realigned: outcome.realigned,
                        repaired: outcome.repaired,
                    });
                }
            }
            AckMsg::Job {
                seq,
                bank,
                faults,
                verified,
                errored,
                members,
            } => {
                let Some(rec) = self.inflight.remove(&seq) else {
                    // A detached (hung, since replaced) worker finally
                    // reported; its attempt was already re-routed.
                    self.sup.stale_acks += 1;
                    return;
                };
                self.inflight_per_bank[bank] -= 1;
                let faulty = faults > 0;
                if faulty {
                    if let Some(trace) = &self.trace {
                        for job in &rec.jobs {
                            let attempt = self.redispatched.get(&job.id).copied().unwrap_or(0);
                            trace.record(&Event::FaultDetected {
                                job: job.id,
                                bank,
                                attempt,
                                faults,
                            });
                        }
                    }
                }
                let transition = if self.resilient {
                    self.health.record(bank, faulty)
                } else {
                    Transition::None
                };
                match transition {
                    Transition::Suspect(score) => {
                        if let Some(trace) = &self.trace {
                            trace.record(&Event::BankSuspect { bank, score });
                        }
                        if self.policy.scrub_on_suspect {
                            let shard = bank % self.shards;
                            // A down shard gets no scrub: the suspicion
                            // will recur if the bank still misbehaves.
                            if !self.supervisor.is_down(shard) {
                                self.scrubs_outstanding[shard] += 1;
                                self.supervisor.send(shard, WorkMsg::Scrub { bank });
                            }
                        }
                    }
                    Transition::Quarantined(score) => {
                        if let Some(trace) = &self.trace {
                            trace.record(&Event::BankQuarantined { bank, score });
                        }
                        // Residencies leave first: their re-materialization
                        // jobs enqueue on the new banks ahead of any
                        // re-routed dependent (per-bank FIFO order).
                        self.rematerialize_off(bank);
                        // Re-route the quarantined bank's backlog; only
                        // explicitly pinned jobs stay.
                        for queued in self.sched.drain_bank(bank) {
                            if matches!(queued.placement, Placement::Fixed(_)) {
                                self.sched.enqueue(queued, bank);
                            } else {
                                self.place(queued);
                            }
                        }
                    }
                    Transition::None | Transition::Recovered => {}
                }
                // Per-member finality: a member re-dispatches if the
                // dispatch failed verification and it has attempts left;
                // otherwise this ack was its final attempt and its gate
                // (if any dependent waits) resolves now.
                let mut outs: HashMap<u64, Vec<(String, Vec<u64>)>> = members.into_iter().collect();
                let redispatch = !verified && self.protection_active;
                for member in rec.jobs {
                    let mut redispatched_now = false;
                    if redispatch {
                        let count = self.redispatched.entry(member.id).or_insert(0);
                        if *count < self.policy.max_redispatch
                            && !matches!(member.placement, Placement::Fixed(_))
                        {
                            *count += 1;
                            let next = *count;
                            self.redispatches += 1;
                            // Every member of an unverified dispatch
                            // re-routes individually — re-executions never
                            // re-batch with the same partners, which
                            // bounds correlated failure. Resident members
                            // follow their residency instead of picking a
                            // fresh unit.
                            let (unit, program) = match member.placement {
                                Placement::Resident(res) => {
                                    let unit = self
                                        .residents
                                        .get(&res)
                                        .map(|(u, _)| *u)
                                        .expect("placed resident jobs have a residency");
                                    (unit, Arc::new(relocate_to_tile(&member.program, unit)))
                                }
                                _ => {
                                    let unit = self.pick_unit(Some(bank));
                                    (unit, Arc::new(member.program.retarget(unit)))
                                }
                            };
                            if let Some(trace) = &self.trace {
                                trace.record(&Event::Redispatch {
                                    job: member.id,
                                    from_bank: bank,
                                    to_bank: unit.bank,
                                    attempt: next,
                                });
                            }
                            let job = PimJob {
                                id: member.id,
                                program,
                                placement: member.placement,
                                deadline: member.deadline,
                            };
                            self.sched.enqueue(job, unit.bank);
                            redispatched_now = true;
                        }
                    }
                    if !redispatched_now {
                        let outputs = outs.remove(&member.id).unwrap_or_default();
                        self.finalize(member.id, errored, outputs);
                    }
                }
            }
        }
    }

    /// Total scrub passes still awaiting an ack across live shards.
    fn scrubs_pending(&self) -> usize {
        self.scrubs_outstanding.iter().sum()
    }

    /// Whether supervision has anything that could wedge the drain: a
    /// caught panic, a hung attempt, or an active chaos plan (which can
    /// stall workers without either counter moving yet). While clean,
    /// termination blocks exactly as the pre-supervision scheduler did.
    fn dirty(&self) -> bool {
        self.chaos.is_some() || self.sup.hung_attempts > 0 || self.supervisor.counters().0 > 0
    }

    /// Gives up on one job: final-attempt bookkeeping, an `Abandoned`
    /// notice for live consumers, and an errored finalize so dependents
    /// cascade-cancel.
    fn abandon_job(&mut self, id: u64, hung: bool) {
        self.sup.abandoned_jobs += 1;
        if let Some(tx) = &self.canceller.notify {
            let _ = tx.send(JobNotice::Abandoned { job_id: id, hung });
        }
        self.finalize(id, true, Vec::new());
    }

    /// Re-places one member job whose attempt died with a crashed or
    /// hung worker, bounded by the crash-retry budget; over budget the
    /// job is abandoned.
    fn crash_retry_or_abandon(&mut self, member: PimJob, hung: bool) {
        let retries = self.crash_retries.entry(member.id).or_insert(0);
        if *retries < self.supervise.max_job_retries {
            *retries += 1;
            self.sup.crash_redispatches += 1;
            self.place(member);
        } else {
            self.abandon_job(member.id, hung);
        }
    }

    /// Takes a worker shard down: marks it with the supervisor and
    /// re-places every in-flight attempt it owned, to be issued under
    /// fresh seqs. The attempt that actually crashed or hung burns a
    /// crash retry per member; attempts merely queued behind it
    /// re-place for free.
    fn shard_down(
        &mut self,
        shard: usize,
        generation: u64,
        cause: DownCause,
        failed_seq: Option<u64>,
    ) {
        if !self.supervisor.mark_down(shard, generation, cause) {
            return;
        }
        let hung = matches!(cause, DownCause::Hang);
        if let Some(trace) = &self.trace {
            trace.record(&Event::ShardDown { shard, hung });
        }
        // Scrubs queued on the shard died with it.
        self.scrubs_outstanding[shard] = 0;
        let mut seqs: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, rec)| rec.shard == shard)
            .map(|(&seq, _)| seq)
            .collect();
        seqs.sort_unstable();
        for seq in seqs {
            let rec = self.inflight.remove(&seq).expect("seq collected above");
            self.inflight_per_bank[rec.bank] -= 1;
            self.lost.push(seq);
            let failed = Some(seq) == failed_seq;
            for member in rec.jobs {
                if failed {
                    self.crash_retry_or_abandon(member, hung);
                } else {
                    self.sup.crash_redispatches += 1;
                    self.place(member);
                }
            }
        }
    }

    /// Scans in-flight attempts for watchdog-budget overruns. Each hung
    /// attempt takes its shard down (the stalled worker thread is
    /// detached, a replacement starts immediately) and fingerprints its
    /// member programs into the poison registry.
    fn watchdog_scan(&mut self) {
        if !self.watchdog.enabled {
            return;
        }
        let now = Instant::now();
        loop {
            // Lowest seq first, for deterministic event order.
            let Some(seq) = self
                .inflight
                .iter()
                .filter(|(_, rec)| {
                    rec.started
                        .is_some_and(|at| now.duration_since(at) >= rec.budget)
                        && !self.supervisor.is_down(rec.shard)
                })
                .map(|(&seq, _)| seq)
                .min()
            else {
                return;
            };
            let rec = &self.inflight[&seq];
            let shard = rec.shard;
            let bank = rec.bank;
            let budget_us = rec.budget.as_micros() as u64;
            let members: Vec<(u64, u32, u64)> = rec
                .jobs
                .iter()
                .map(|j| (j.id, self.attempt(j.id), cache::fingerprint(&j.program)))
                .collect();
            self.sup.hung_attempts += 1;
            for (job, attempt, fingerprint) in members {
                if let Some(trace) = &self.trace {
                    trace.record(&Event::AttemptHung {
                        job,
                        bank,
                        attempt,
                        budget_us,
                    });
                }
                if let Some(poison) = &self.poison {
                    let (strikes, crossed) = poison.strike(fingerprint);
                    if crossed {
                        self.sup.quarantined_programs += 1;
                        if let Some(trace) = &self.trace {
                            trace.record(&Event::PoisonQuarantine {
                                fingerprint,
                                strikes,
                            });
                        }
                    }
                }
            }
            let generation = self.supervisor.generation(shard);
            self.shard_down(shard, generation, DownCause::Hang, Some(seq));
        }
    }

    /// Drain-deadline expiry: everything still queued or in flight will
    /// never complete. Abandon it all so `finish` can report.
    fn abandon_all(&mut self) {
        let mut seqs: Vec<u64> = self.inflight.keys().copied().collect();
        seqs.sort_unstable();
        for seq in seqs {
            let rec = self.inflight.remove(&seq).expect("seq collected above");
            self.inflight_per_bank[rec.bank] -= 1;
            self.lost.push(seq);
            for member in rec.jobs {
                self.abandon_job(member.id, false);
            }
        }
        // Abandoning can only cascade-fail dependents (errored finals
        // release nothing), but drain defensively until quiescent.
        while self.sched.pending() > 0 {
            for bank in 0..self.inflight_per_bank.len() {
                for queued in self.sched.drain_bank(bank) {
                    self.abandon_job(queued.id, false);
                }
            }
        }
        for pending in &mut self.scrubs_outstanding {
            *pending = 0;
        }
    }
}

/// The scheduler loop: drains the submission queue,
/// places jobs in the paper's circular-bank order (§V-C), issues them to
/// the worker shards, and interleaves worker-ack processing so
/// dependency gates, bank health, re-dispatch, and shard recovery all
/// happen while the session is live.
///
/// Issue is ungated unless the session is `resilient` (a fault plan, a
/// protection policy, the watchdog, or an active chaos plan). Then the
/// per-bank in-flight cap gates issue on acks, so issue order depends
/// on completion timing and reports are *not* bit-deterministic across
/// shard counts. Without it, and with no bank quarantined and no shard
/// down, placement is the bare circular cursor and the report is
/// bit-identical across shard counts.
#[allow(clippy::too_many_arguments)]
fn classic_loop(
    config: &MemoryConfig,
    queue: &JobQueue<Submission>,
    supervisor: &Supervisor<WorkMsg>,
    shards: usize,
    ack_rx: &mpsc::Receiver<AckMsg>,
    dispatch: DispatchMode,
    protection: ProtectionPolicy,
    policy: HealthPolicy,
    resilient: bool,
    trace: Option<Arc<EventTrace>>,
    batch: BatchOptions,
    compile: CompileOptions,
    canceller: Canceller,
    next_id: &AtomicU64,
    supervise: SuperviseOptions,
    watchdog: WatchdogOptions,
    chaos: Option<ChaosPlan>,
    poison: Option<Arc<PoisonRegistry>>,
    issue_policy: IssuePolicy,
) -> SchedulerOutput {
    let units = MemoryController::new(config.clone());
    let unit_count = units.pim_unit_count();
    let splice_cache = batch.splice_cache();
    let mut state = ClassicSched {
        unit_count,
        shards,
        dispatch,
        policy,
        resilient,
        protection_active: protection.is_active(),
        batch,
        // The scheduler's own compiler optimizes *across* spliced program
        // boundaries; per-job optimization already happened at submit.
        compiler: Compiler::new(config.clone(), &compile),
        splice_cache,
        canceller,
        trace,
        supervisor,
        supervise,
        watchdog,
        chaos,
        poison,
        sched: BankScheduler::new(config.banks).with_policy(issue_policy),
        health: HealthTracker::new(config.banks, policy),
        inflight: HashMap::new(),
        inflight_per_bank: vec![0; config.banks],
        redispatched: HashMap::new(),
        crash_retries: HashMap::new(),
        sup: SupervisionStats::default(),
        lost: Vec::new(),
        place_cursor: 0,
        issued: 0,
        batches: 0,
        batched_jobs: 0,
        redispatches: 0,
        scrubs_outstanding: vec![0; shards],
        scrubs: 0,
        scrub_total: ScrubOutcome::default(),
        deps: DepTracker::new(),
        ready: VecDeque::new(),
        residents: HashMap::new(),
        next_id,
        pins: 0,
        remats: 0,
        dropped: 0,
        per_shard_issued: vec![0; shards],
        per_shard_jobs: vec![0; shards],
        units,
    };
    let mut drained: Vec<Submission> = Vec::new();
    let mut closed = false;
    // Armed (once supervision is dirty) the first time the drain blocks.
    let mut drain_deadline: Option<Instant> = None;
    // Occupancy profile: stage busy times in thread-CPU micros (waits
    // cost ~0 CPU, so blocked pops charge nothing). Placement of staged
    // jobs is the place lap; recovery re-placement inside ack handling
    // rides the ack lap. Termination-block CPU rides into the next pop
    // lap.
    let mut profile = SchedProfile::default();
    let wall_start = Instant::now();
    let mut clock = cputime::StageClock::start();
    // Kick-counter snapshot for event-driven pops: workers kick the
    // queue after every ack, and a pop observing a kick newer than this
    // snapshot returns immediately instead of riding out its timeout.
    let mut seen_kicks = queue.kicks();

    loop {
        // 1. Pull newly submitted work. The pop is kick-aware: a push or
        //    a worker ack arriving mid-wait wakes it immediately, so the
        //    50ms ceiling is only ridden out when the session is idle.
        //    The watchdog's hung-attempt scan and restart backoff have
        //    no kick, so they keep a short bounded wait.
        if !closed {
            let wait = if state.watchdog.enabled || state.dirty() {
                Duration::from_millis(1)
            } else {
                Duration::from_millis(50)
            };
            match queue.pop_kicked(wait, seen_kicks) {
                Pop::Item(first) => {
                    drained.push(first);
                    queue.drain_ready(&mut drained);
                }
                Pop::Timeout => {}
                Pop::Closed => closed = true,
            }
        }
        profile.pop_micros += clock.lap();
        for submission in drained.drain(..) {
            state.admit(submission);
        }
        profile.admit_micros += clock.lap();

        // 2. Process every acknowledgement already available, scan for
        //    hung attempts, and bring replacement workers up once
        //    supervision is dirty. Snapshot the kick counter first: any
        //    ack (and kick) landing after this line wakes the next pop
        //    early — snapshot-then-drain can never lose a wakeup.
        seen_kicks = queue.kicks();
        while let Ok(ack) = ack_rx.try_recv() {
            state.handle_ack(ack);
        }
        state.watchdog_scan();
        if state.dirty() {
            for ev in supervisor.poll_restarts() {
                if let Some(trace) = &state.trace {
                    trace.record(&Event::ShardRestart {
                        shard: ev.shard,
                        restarts: ev.restarts,
                    });
                }
            }
        }
        profile.ack_micros += clock.lap();

        // 3. Place and issue until nothing new is released (dropping a
        //    cancelled or expired job can cascade and release more work).
        loop {
            state.place_ready();
            profile.place_micros += clock.lap();
            state.issue_ready();
            profile.dispatch_micros += clock.lap();
            if state.ready.is_empty() {
                break;
            }
        }

        // 4. Termination and anti-spin blocking once the queue is closed.
        if closed {
            if state.sched.pending() == 0 && state.inflight.is_empty() {
                if !state.deps.is_empty() {
                    // Every dependency that could retire has; the rest
                    // can never run. Failing them may only cascade (it
                    // releases nothing), then the loop re-evaluates.
                    let rel = state.deps.fail_all();
                    state.process_released(rel);
                    continue;
                }
                // Only background scrubs can still be outstanding.
                while state.scrubs_pending() > 0 {
                    if state.dirty() {
                        let deadline = *drain_deadline.get_or_insert_with(|| {
                            Instant::now() + state.supervise.drain_deadline()
                        });
                        if Instant::now() >= deadline {
                            break;
                        }
                        match ack_rx.recv_timeout(Duration::from_millis(10)) {
                            Ok(ack) => state.handle_ack(ack),
                            Err(mpsc::RecvTimeoutError::Timeout) => {}
                            Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        }
                    } else {
                        match ack_rx.recv() {
                            Ok(ack) => state.handle_ack(ack),
                            Err(_) => break,
                        }
                    }
                }
                break;
            }
            // Progress now requires an ack (a completion that releases a
            // gate, frees a bank slot, or triggers re-dispatch, or a
            // shard-down report). With supervision clean this blocks —
            // a shard-down ack itself would wake it; dirty, the wait is
            // bounded so a dead or stalled shard can never wedge the
            // drain past the configured deadline.
            if !state.inflight.is_empty() || state.scrubs_pending() > 0 || state.sched.pending() > 0
            {
                // The watchdog needs the wait bounded even while clean,
                // or a stalled attempt would never get scanned.
                if !state.dirty() && !state.watchdog.enabled {
                    match ack_rx.recv() {
                        Ok(ack) => state.handle_ack(ack),
                        Err(_) => break,
                    }
                    continue;
                }
                if state.dirty() {
                    let deadline = *drain_deadline
                        .get_or_insert_with(|| Instant::now() + state.supervise.drain_deadline());
                    if Instant::now() >= deadline {
                        state.abandon_all();
                        continue;
                    }
                }
                match ack_rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(ack) => state.handle_ack(ack),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        }
    }

    SchedulerOutput {
        depth_hist: state.sched.depth_histogram().clone(),
        issued: state.issued,
        batches: state.batches,
        batched_jobs: state.batched_jobs,
        splice_hits: state
            .splice_cache
            .as_ref()
            .map_or(0, |c| BatchCache::counts(c).0),
        splice_misses: state
            .splice_cache
            .as_ref()
            .map_or(0, |c| BatchCache::counts(c).1),
        cancelled: state.canceller.cancelled,
        expired: state.canceller.expired,
        redispatches: state.redispatches,
        scrubs: state.scrubs,
        scrub_total: state.scrub_total,
        suspect_banks: state.health.suspect_count(),
        quarantined_banks: state.health.quarantined_count(),
        degraded_capacity: state.health.degraded_capacity(),
        deferred: state.deps.deferred,
        released: state.deps.released,
        cascaded: state.deps.cascade_cancelled + state.dropped,
        pins: state.pins,
        remats: state.remats,
        supervision: state.sup,
        lost: state.lost,
        profile: SchedProfile {
            wall_micros: wall_start.elapsed().as_micros() as u64,
            per_shard_issued: state.per_shard_issued,
            per_shard_jobs: state.per_shard_jobs,
            ..profile
        },
    }
}

/// What one protected execution of a job produced.
struct ExecOutcome {
    outputs: Vec<(String, Vec<u64>)>,
    instr_costs: Vec<Cost>,
    error: Option<PimError>,
    replicas: u32,
    faults_detected: u64,
    retries: u32,
    votes_overturned: u64,
    verified: bool,
}

/// Per-incarnation worker identity and behavior switches: the shard and
/// generation stamped into supervision acks, the chaos plan to consult
/// at crossing points, and whether to send `Started` heartbeats (only
/// useful when the watchdog reads them).
#[derive(Clone)]
struct WorkerCtx {
    shard: usize,
    generation: u64,
    chaos: Option<ChaosPlan>,
    heartbeat: bool,
    /// Per-shard busy meters (thread CPU micros spent executing work),
    /// indexed by `shard`; folded into [`SchedStats`] at drain.
    busy: Arc<Vec<AtomicU64>>,
    /// The submission queue, kicked after every ack so the scheduler's
    /// event-driven pop wakes immediately instead of riding out its
    /// timeout (see [`queue::JobQueue::pop_kicked`]).
    kick: Arc<JobQueue<Submission>>,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    config: &MemoryConfig,
    faults: Option<FaultPlan>,
    protection: ProtectionPolicy,
    rx: &mpsc::Receiver<WorkMsg>,
    done: &mpsc::Sender<DoneMsg>,
    ack: &mpsc::Sender<AckMsg>,
    notify: Option<&mpsc::Sender<JobNotice>>,
    max_redispatch: u32,
    ctx: WorkerCtx,
) {
    // Each shard owns a full machine; storage is sparse, so it only pays
    // for the DBCs of the banks routed to it.
    let mut machine = match faults {
        Some(plan) => PimMachine::with_faults(config.clone(), plan),
        None => PimMachine::new(config.clone()),
    };
    // The NMR majority gate: a fault-free PIM DBC reserved as the voter
    // (paper §III-F models voting as one write per replica plus one TR).
    let mut voter = match protection {
        ProtectionPolicy::Nmr { .. } => Some((NmrVoter::new(config), Dbc::pim_enabled(config))),
        _ => None,
    };
    // Reports this incarnation's death to the supervisor. Per-producer
    // mpsc FIFO order guarantees every ack this worker already sent is
    // processed before the down report.
    let report_down = |panicked_seq: Option<u64>| {
        let _ = ack.send(AckMsg::ShardDown {
            shard: ctx.shard,
            generation: ctx.generation,
            panicked_seq,
        });
        ctx.kick.kick();
    };
    let mut clock = cputime::StageClock::start();
    while let Ok(msg) = rx.recv() {
        // Charge only the processing span: re-stamp after the blocking
        // recv so queue-wait CPU (≈0 anyway) never counts as busy.
        clock.reset();
        match msg {
            WorkMsg::Scrub { bank } => {
                let scrubbed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut meter = CostMeter::new();
                    machine
                        .controller_mut()
                        .scrub_bank(bank, &mut meter)
                        .unwrap_or_default()
                }));
                let Ok(outcome) = scrubbed else {
                    report_down(None);
                    return;
                };
                let _ = ack.send(AckMsg::Scrub { bank, outcome });
                ctx.kick.kick();
            }
            WorkMsg::Job {
                seq,
                unit,
                program,
                slots,
            } => {
                if ctx.heartbeat {
                    let _ = ack.send(AckMsg::Started { seq });
                }
                // Chaos draws key on the dispatch's first member and its
                // attempt, so a re-dispatched attempt draws fresh and
                // two runs of one seed inject identically.
                let (chaos_job, chaos_attempt) =
                    slots.first().map_or((0, 0), |s| (s.job_id, s.attempt));
                let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(plan) = ctx.chaos {
                        match plan.decide(CrossingPoint::WorkerStart, chaos_job, chaos_attempt) {
                            ChaosAction::Panic => chaos::chaos_panic(),
                            ChaosAction::Stall => {
                                std::thread::sleep(Duration::from_millis(plan.stall_ms));
                            }
                            ChaosAction::Delay => {
                                std::thread::sleep(Duration::from_micros(plan.delay_us));
                            }
                            ChaosAction::None => {}
                        }
                    }
                    let out = execute_protected(&mut machine, protection, &program, voter.as_mut());
                    if let Some(plan) = ctx.chaos {
                        if matches!(
                            plan.decide(CrossingPoint::WorkerReport, chaos_job, chaos_attempt),
                            ChaosAction::Panic
                        ) {
                            chaos::chaos_panic();
                        }
                    }
                    out
                }));
                let Ok(out) = executed else {
                    report_down(Some(seq));
                    return;
                };
                // Demux the batched output stream per member exactly as
                // `finish` does, so live consumers (notify) and the
                // scheduler's dependency gates see the same bytes the
                // final report will record.
                let mut members: Vec<(u64, DepOutputs)> = Vec::with_capacity(slots.len());
                {
                    let mut cursor = 0usize;
                    for slot in &slots {
                        let end = (cursor + slot.readouts).min(out.outputs.len());
                        let start = cursor.min(out.outputs.len());
                        cursor += slot.readouts;
                        members.push((slot.job_id, out.outputs[start..end].to_vec()));
                    }
                }
                if let Some(notify) = notify {
                    let batch = slots.len() as u32;
                    for (slot, (_, outputs)) in slots.iter().zip(&members) {
                        let _ = notify.send(JobNotice::Attempt {
                            job_id: slot.job_id,
                            attempt: slot.attempt,
                            bank: unit.bank,
                            batch,
                            outputs: outputs.clone(),
                            error: out.error.clone(),
                            verified: out.verified,
                            protection_active: protection.is_active(),
                            max_redispatch,
                        });
                    }
                }
                let _ = ack.send(AckMsg::Job {
                    seq,
                    bank: unit.bank,
                    faults: out.faults_detected + u64::from(out.error.is_some()),
                    verified: out.verified,
                    errored: out.error.is_some(),
                    members,
                });
                // Ack first, then kick: the scheduler snapshots the kick
                // counter before draining acks, so this order can never
                // lose the wakeup.
                ctx.kick.kick();
                let _ = done.send(DoneMsg {
                    seq,
                    unit,
                    slots,
                    outputs: out.outputs,
                    instr_costs: out.instr_costs,
                    error: out.error,
                    replicas: out.replicas,
                    faults_detected: out.faults_detected,
                    retries: out.retries,
                    votes_overturned: out.votes_overturned,
                    verified: out.verified,
                });
            }
        }
        ctx.busy[ctx.shard].fetch_add(clock.lap(), Ordering::Relaxed);
    }
}

/// Runs a job under the worker's protection policy.
fn execute_protected(
    machine: &mut PimMachine,
    protection: ProtectionPolicy,
    program: &PimProgram,
    voter: Option<&mut (NmrVoter, Dbc)>,
) -> ExecOutcome {
    match protection {
        ProtectionPolicy::None => {
            let (readouts, instr_costs, error) = run_once(machine, program);
            ExecOutcome {
                outputs: unpack_readouts(&readouts),
                instr_costs,
                error,
                replicas: 1,
                faults_detected: 0,
                retries: 0,
                votes_overturned: 0,
                verified: false,
            }
        }
        ProtectionPolicy::Reexecute { max_retries } => {
            let mut instr_costs = Vec::new();
            let mut replicas = 0u32;
            let mut faults_detected = 0u64;
            let mut retries = 0u32;
            let mut pairs = 0u32;
            loop {
                let (ro_a, c_a, e_a) = run_once(machine, program);
                let (ro_b, c_b, e_b) = run_once(machine, program);
                replicas += 2;
                instr_costs.extend(c_a);
                instr_costs.extend(c_b);
                let clean = e_a.is_none() && e_b.is_none();
                if clean && readout_rows_equal(&ro_a, &ro_b) {
                    return ExecOutcome {
                        outputs: unpack_readouts(&ro_b),
                        instr_costs,
                        error: None,
                        replicas,
                        faults_detected,
                        retries,
                        votes_overturned: 0,
                        verified: true,
                    };
                }
                faults_detected += 1;
                if pairs >= max_retries {
                    // Exhausted: surface the least-broken run unverified;
                    // the scheduler may re-dispatch to another bank.
                    let (readouts, error) = if e_b.is_none() {
                        (ro_b, None)
                    } else if e_a.is_none() {
                        (ro_a, None)
                    } else {
                        (ro_b, e_b)
                    };
                    return ExecOutcome {
                        outputs: unpack_readouts(&readouts),
                        instr_costs,
                        error,
                        replicas,
                        faults_detected,
                        retries,
                        votes_overturned: 0,
                        verified: false,
                    };
                }
                pairs += 1;
                retries += 1;
            }
        }
        ProtectionPolicy::Nmr { n } => {
            let (voter, vote_dbc) = voter.expect("worker allocates a voter for NMR policies");
            let mut instr_costs = Vec::new();
            let mut runs = Vec::with_capacity(n);
            for i in 0..n {
                let (readouts, costs, error) = run_once(machine, program);
                instr_costs.extend(costs);
                if let Some(err) = error {
                    return ExecOutcome {
                        outputs: unpack_readouts(&readouts),
                        instr_costs,
                        error: Some(err),
                        replicas: i as u32 + 1,
                        faults_detected: 0,
                        retries: 0,
                        votes_overturned: 0,
                        verified: false,
                    };
                }
                runs.push(readouts);
            }
            let mut outputs = Vec::with_capacity(runs[0].len());
            let mut faults_detected = 0u64;
            let mut votes_overturned = 0u64;
            let mut meter = CostMeter::new();
            for i in 0..runs[0].len() {
                let (label, lane, _) = &runs[0][i];
                let rows: Vec<Row> = runs.iter().map(|r| r[i].2.clone()).collect();
                let disagree = rows.windows(2).any(|w| w[0] != w[1]);
                if disagree {
                    faults_detected += 1;
                    votes_overturned += 1;
                }
                let voted = voter
                    .vote_rows(vote_dbc, &rows, &mut meter)
                    .unwrap_or_else(|_| NmrVoter::reference(&rows));
                outputs.push((label.clone(), voted.unpack(*lane)));
            }
            let vote_cost = meter.total();
            if vote_cost.cycles > 0 {
                instr_costs.push(vote_cost);
            }
            ExecOutcome {
                outputs,
                instr_costs,
                error: None,
                replicas: n as u32,
                faults_detected,
                retries: 0,
                votes_overturned,
                verified: true,
            }
        }
    }
}

/// Labeled raw readout rows of one program execution.
type Readouts = Vec<(String, usize, Row)>;

/// Unpacks raw readout rows into the per-lane word outputs jobs report.
fn unpack_readouts(readouts: &Readouts) -> Vec<(String, Vec<u64>)> {
    readouts
        .iter()
        .map(|(label, lane, row)| (label.clone(), row.unpack(*lane)))
        .collect()
}

/// Whether two executions produced identical raw readout rows (compared
/// at full row width — stricter than the unpacked lanes).
fn readout_rows_equal(a: &Readouts, b: &Readouts) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.2 == y.2)
}

/// Executes a program once on a shard machine, collecting raw readout
/// rows (for verification) and per-instruction device costs (for the
/// central timing replay).
fn run_once(
    machine: &mut PimMachine,
    program: &PimProgram,
) -> (Readouts, Vec<Cost>, Option<PimError>) {
    let width = machine.controller().config().nanowires_per_dbc;
    let mut meter = CostMeter::new();
    let mut readouts = Vec::new();
    let mut instr_costs = Vec::new();
    for step in &program.steps {
        let result: Result<(), PimError> = (|| {
            match step {
                Step::Load { addr, values, lane } => {
                    let row = Row::pack(width, *lane, values);
                    machine
                        .controller_mut()
                        .store_row(*addr, &row, &mut meter)?;
                }
                Step::Exec(instr) => {
                    let out = machine.execute(instr)?;
                    instr_costs.push(out.cost);
                }
                Step::Readout { label, addr, lane } => {
                    let row = machine.controller_mut().load_row(*addr, &mut meter)?;
                    readouts.push((label.clone(), *lane, row));
                }
            }
            Ok(())
        })();
        if let Err(err) = result {
            return (readouts, instr_costs, Some(err));
        }
    }
    (readouts, instr_costs, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
    use coruscant_mem::RowAddress;

    fn single_add_program() -> PimProgram {
        let loc = DbcLocation::new(0, 0, 0, 0);
        let bs = BlockSize::new(8).unwrap();
        PimProgram {
            steps: vec![
                Step::Load {
                    addr: RowAddress::new(loc, 4),
                    values: vec![11; 8],
                    lane: 8,
                },
                Step::Load {
                    addr: RowAddress::new(loc, 5),
                    values: vec![31; 8],
                    lane: 8,
                },
                Step::Exec(
                    CpimInstr::new(
                        CpimOpcode::Add,
                        RowAddress::new(loc, 4),
                        2,
                        bs,
                        Some(RowAddress::new(loc, 20)),
                    )
                    .unwrap(),
                ),
                Step::Readout {
                    label: "sum".into(),
                    addr: RowAddress::new(loc, 20),
                    lane: 8,
                },
            ],
        }
    }

    #[test]
    fn single_job_round_trips() {
        let config = MemoryConfig::tiny();
        let report = run_batch(
            &config,
            vec![single_add_program()],
            RuntimeOptions::default(),
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        let out = &report.outcomes[0];
        assert_eq!(out.outputs[0].1, vec![42; 8]);
        assert!(out.completion > 0);
        assert_eq!(out.wait_cycles, 0, "first job never waits");
        assert_eq!(report.stats.jobs, 1);
        assert_eq!(report.stats.instructions, 1);
        assert!(report.stats.makespan_cycles >= out.completion);
        assert!(report.stats.jobs_per_us > 0.0);
    }

    #[test]
    fn job_ids_are_unique_and_outcomes_ordered() {
        let config = MemoryConfig::tiny();
        let rt = Runtime::new(config, RuntimeOptions::default()).unwrap();
        let ids: Vec<u64> = (0..6)
            .map(|_| rt.submit(single_add_program(), Placement::Auto).unwrap())
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        let report = rt.finish().unwrap();
        let got: Vec<u64> = report.outcomes.iter().map(|o| o.job_id).collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn submit_after_finish_is_rejected() {
        let config = MemoryConfig::tiny();
        let rt = Runtime::new(config, RuntimeOptions::default()).unwrap();
        let queue = Arc::clone(&rt.queue);
        rt.finish().unwrap();
        assert_eq!(
            queue.push(Submission::Job(PimJob {
                id: 0,
                program: Arc::new(PimProgram::default()),
                placement: Placement::Auto,
                deadline: None,
            })),
            Err(PushError::Closed)
        );
    }

    #[test]
    fn errors_propagate_from_workers() {
        let config = MemoryConfig::tiny();
        // A storage (non-PIM) DBC: execution must fail with NotPim.
        let storage = DbcLocation::new(0, 0, 0, 2);
        let bad = PimProgram {
            steps: vec![Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Or,
                    RowAddress::new(storage, 0),
                    2,
                    BlockSize::new(8).unwrap(),
                    None,
                )
                .unwrap(),
            )],
        };
        let rt = Runtime::new(config, RuntimeOptions::default()).unwrap();
        rt.submit(bad, Placement::Fixed(storage)).unwrap();
        match rt.finish() {
            Err(RuntimeError::Pim(PimError::NotPim)) => {}
            other => panic!("expected NotPim, got {other:?}"),
        }
    }

    #[test]
    fn backpressure_bounds_queue_depth() {
        let config = MemoryConfig::tiny();
        let options = RuntimeOptions {
            queue_capacity: 2,
            ..RuntimeOptions::default()
        };
        let rt = Runtime::new(config, options).unwrap();
        for _ in 0..16 {
            rt.submit(single_add_program(), Placement::Auto).unwrap();
        }
        let depth = rt.queue.max_depth();
        assert!(depth <= 2, "bounded queue never exceeded capacity: {depth}");
        let report = rt.finish().unwrap();
        assert_eq!(report.stats.jobs, 16);
    }
}
