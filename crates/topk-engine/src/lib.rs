//! # topk-engine — multi-device top-K serving layer
//!
//! The ROADMAP's north star is a system serving heavy top-K traffic,
//! not a benchmark loop: many concurrent queries of mixed shapes, a
//! pool of devices, and per-query accounting. This crate supplies that
//! layer on top of the fallible selection core:
//!
//! * [`TopKEngine`] owns a **bounded submission queue**
//!   ([`TopKEngine::submit`] refuses work beyond
//!   [`EngineConfig::queue_capacity`]) and a **pool of simulated
//!   devices**, driven by one sequential simulated-time loop.
//! * [`TopKEngine::drain`] **coalesces** queued queries with the same
//!   `(N, K)` shape into batches of up to
//!   [`EngineConfig::coalescing_window`] queries. Each batch runs as
//!   one [`DeviceMatrix`]: one contiguous H2D upload, one fused launch
//!   set through [`SelectK::try_select_matrix`], and one synchronised
//!   readback of the packed `rows × K` outputs. The paper's §5.1
//!   batch-100 measurements show why: batching amortises launch,
//!   transfer and sync overhead and fills the grid, so a fused batch
//!   beats `B` back-to-back single selections.
//! * Every batch routes through the [`SelectK`] **adaptive
//!   dispatcher**: each query's distribution sketch (computed at
//!   submission, merged per batch) and the batch's real `(N, K, B)`
//!   shape are priced through the cost-model-guided tuner
//!   ([`topk_core::tuner`]), measured batch latencies feed back via
//!   `SelectK::observe`, and the warmed plan table persists across
//!   drains ([`TopKEngine::plan_table_text`]). Every query comes back
//!   as its own [`QueryResult`] carrying a `Result` (errors are
//!   per-query data, never panics) plus simulated **queue-wait** and
//!   **latency** metrics read off the device clock.
//!
//! Scheduling is an **event-driven simulated-time loop**: each step
//! dispatches the runnable batch with the earliest start time onto the
//! device whose simulated clock frees up first. Block-level execution
//! inside every launch still fans out across the host `BlockPool`, so
//! the host stays parallel while the schedule itself is a pure function
//! of the submitted workload — which is what makes chaos runs
//! bit-for-bit reproducible.
//!
//! ## Resilience
//!
//! The engine is built to *prove* the terminal-result invariant: every
//! submitted query reaches exactly one terminal [`QueryResult`], no
//! matter which simulated device fails, hangs or slows down
//! (`DESIGN.md` §Fault model & resilience):
//!
//! * [`EngineConfig::with_faults`] installs a seeded
//!   [`gpu_sim::FaultPlan`] on every pool device; injected faults
//!   surface as typed [`TopKError`]s through the fallible core.
//! * Device faults are retried under a bounded [`RetryPolicy`] with
//!   simulated backoff; a retry may land on another device
//!   (**failover**).
//! * A per-device circuit breaker ([`BreakerConfig`]) quarantines a
//!   device after N consecutive faults and re-probes it after a
//!   cooldown; a worker panic or a device hang marks the device
//!   **failed** for good, and `drain` never aborts — the panic is
//!   captured and the batch rescheduled.
//! * Every attempt is priced before it starts; one still running at
//!   [`OVERDUE_FACTOR`] × its budget is abandoned at that instant and
//!   its device retired, so a hang costs its queries the overdue
//!   instant rather than the full watchdog timeout
//!   ([`BatchRecord::overdue_us`], [`DrainReport::overdue`]).
//! * When the retry budget or the device pool is exhausted, queries
//!   degrade to the `topk-cpu` reference path (unless
//!   [`EngineConfig::with_cpu_fallback`] disables it, in which case
//!   they fail with a typed error). The same path answers a batch that
//!   would otherwise wait out a breaker cooldown, when its predicted
//!   CPU finish comes before the device's.
//! * [`QueryResult::served`] records which rung of that ladder
//!   produced the answer; [`DrainReport::chaos_digest`] renders the
//!   whole drain as a deterministic text summary CI can diff across
//!   same-seed runs.
//!
//! ```
//! use gpu_sim::DeviceSpec;
//! use topk_engine::{EngineConfig, TopKEngine};
//! use topk_core::verify_topk;
//!
//! let mut engine = TopKEngine::new(EngineConfig::new(vec![
//!     DeviceSpec::a100(),
//!     DeviceSpec::a100(),
//! ]));
//! let data: Vec<f32> = (0..10_000).map(|i| ((i * 37) % 9973) as f32).collect();
//! for _ in 0..4 {
//!     engine.submit(data.clone(), 8).unwrap();
//! }
//! let report = engine.drain();
//! assert_eq!(report.results.len(), 4);
//! for r in &report.results {
//!     let out = r.outcome.as_ref().unwrap();
//!     verify_topk(&data, 8, &out.values, &out.indices).unwrap();
//! }
//! ```
//!
//! ## Observability
//!
//! The engine is instrumented end to end (see `DESIGN.md` §Observability):
//!
//! * [`TopKEngine::metrics`] exposes a [`topk_obs::MetricsRegistry`]
//!   with latency/queue-wait histograms, per-[`TopKError::kind`] error
//!   counters, and the algorithm-level counters from
//!   [`topk_core::obs`]; render it with
//!   [`TopKEngine::render_prometheus`].
//! * Every [`TopKEngine::submit`] mints a tracing span id; the batch
//!   it joins tags its kernel launches with its lead query's span
//!   ([`gpu_sim::KernelReport::span`]), so each [`QueryResult`] links
//!   back to the launches that served it via
//!   [`QueryResult::batch_span`].
//! * [`chrome_trace`] renders a [`DrainReport`] as a Chrome
//!   `chrome://tracing` / Perfetto JSON file with one kernel track and
//!   one query track per device.
//! * [`TopKEngine::snapshot`] returns an [`EngineSnapshot`] of queue
//!   depth, per-device utilisation and error totals.

pub mod flight;
pub mod metrics;
pub mod trace;

pub use flight::{FlightEvent, FlightRecorder};
pub use metrics::EngineMetrics;
pub use trace::chrome_trace;

// Fault-injection vocabulary, re-exported so engine users can build a
// [`FaultPlan`] without depending on `gpu-sim` directly.
pub use gpu_sim::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, SanitizerCounts, SanitizerMode, ScriptedFault,
};

use crate::flight::PmDevice;
use gpu_sim::cost::memcpy_cost;
use gpu_sim::{Backend, BackendExt, DeviceSpec, EventKind, Gpu, KernelReport, SimError};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use topk_core::tuner::{DistSketch, DriftEntry, PlanKey, ProblemShape, TunedAlgo, Tuner};
use topk_core::{
    AlgoSnapshot, BucketedTopK, DeviceMatrix, ScratchGuard, SelectK, TopKError, TwoStageTopK,
};

/// Post-mortem JSON documents retained per engine; once full, further
/// triggers only bump [`TopKEngine::post_mortems_dropped`] — an
/// anomaly storm must not turn the recorder into a memory leak.
pub const POST_MORTEM_CAP: usize = 16;

/// Safety factor applied to cost predictions when deciding whether a
/// batch's earliest member deadline is at risk: a predicted finish
/// within `deadline / DEADLINE_SAFETY` of the deadline already counts
/// as risky, absorbing cost-model error before it becomes a miss.
pub const DEADLINE_SAFETY: f64 = 1.5;

/// How far past its predicted budget an attempt may run before the
/// host gives up on it. Every attempt is priced before it starts (the
/// batch's transfer model plus the tuner's calibrated prediction for
/// the plan or rung it runs); an attempt still unfinished at
/// `start + OVERDUE_FACTOR × budget` is abandoned at that instant, its
/// device retired and its job requeued or degraded — without waiting
/// for the watchdog. The rule reads simulated time and
/// predictions only, never the fault kind. On the `serve-chaos`
/// benchmark mix (4× stragglers, 8× transfer stalls, seeds 1, 3, 7, 11
/// and 42) healthy attempts ran at most 13.4× their budget and hung
/// ones at least 197×.
pub const OVERDUE_FACTOR: f64 = 16.0;

/// Bounded-retry policy for device faults, with simulated exponential
/// backoff between attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts beyond the first before a job degrades. `0` disables
    /// retrying entirely.
    pub max_retries: u32,
    /// Simulated backoff before the first retry, µs.
    pub backoff_us: f64,
    /// Backoff growth factor per further retry.
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_us: 100.0,
            backoff_multiplier: 2.0,
        }
    }
}

/// Per-device circuit breaker: after `threshold` *consecutive* faults
/// the device is quarantined for `cooldown_us` of simulated time, then
/// re-probed (half-open) by the next batch scheduled onto it — a
/// success closes the breaker, another fault re-opens it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive device faults that trip the breaker.
    pub threshold: u32,
    /// Simulated quarantine length, µs.
    pub cooldown_us: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            cooldown_us: 5_000.0,
        }
    }
}

/// Closure signature a [`BackendFactory`] wraps: device spec in,
/// boxed backend out.
pub type BackendCtor = dyn Fn(&DeviceSpec) -> Box<dyn Backend> + Send + Sync;

/// Constructor for the pool's device backends, letting an engine run
/// on any [`Backend`] implementation (a plain [`Gpu`] by default; a
/// `Gpu` with its own block pool, or a wrapper that instruments one).
/// Cheap to clone — the closure is shared.
#[derive(Clone)]
pub struct BackendFactory(Arc<BackendCtor>);

impl BackendFactory {
    /// Wrap a constructor closure.
    pub fn new(f: impl Fn(&DeviceSpec) -> Box<dyn Backend> + Send + Sync + 'static) -> Self {
        BackendFactory(Arc::new(f))
    }

    /// Build one backend for `spec`.
    pub fn build(&self, spec: &DeviceSpec) -> Box<dyn Backend> {
        (self.0)(spec)
    }
}

impl std::fmt::Debug for BackendFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BackendFactory(..)")
    }
}

/// Engine shape: which devices to pool, how to queue/coalesce, and how
/// to behave when devices fault.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// One simulated device per entry.
    pub devices: Vec<DeviceSpec>,
    /// Maximum queries [`TopKEngine::submit`] accepts before a drain.
    pub queue_capacity: usize,
    /// Maximum same-`(N, K)` queries fused into one batch launch.
    /// `1` disables coalescing.
    pub coalescing_window: usize,
    /// Seeded chaos schedule installed on every pool device at
    /// construction; `None` (the default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy for device faults.
    pub retry: RetryPolicy,
    /// Circuit-breaker policy for unhealthy devices.
    pub breaker: BreakerConfig,
    /// Default per-query deadline applied at [`TopKEngine::submit`],
    /// µs of simulated time after drain start; `None` means no
    /// deadline. [`TopKEngine::submit_with_deadline`] overrides it per
    /// query.
    pub deadline_us: Option<u64>,
    /// Whether queries degrade to the `topk-cpu` reference path when
    /// the retry budget or the device pool is exhausted (default
    /// `true`); when `false` they fail with a typed error instead.
    pub cpu_fallback: bool,
    /// Sanitizer analyses armed on every pool device (default all-off).
    /// The sanitizer never perturbs simulated costs, so serving
    /// latencies and [`DrainReport::chaos_digest`] are unchanged;
    /// findings surface in [`DeviceReport::sanitizer`] and
    /// [`DrainReport::sanitizer`].
    pub sanitizer: SanitizerMode,
    /// How pool devices are constructed; `None` (the default) builds a
    /// [`gpu_sim::Gpu`] simulator per [`DeviceSpec`] entry.
    pub backend_factory: Option<BackendFactory>,
    /// Events the always-on [`FlightRecorder`] ring buffer retains
    /// (default 256, min 16). Recording is host-side bookkeeping only
    /// and never perturbs simulated time.
    pub flight_capacity: usize,
    /// Default per-query recall target applied at
    /// [`TopKEngine::submit`]. `1.0` (the default) means exact-only:
    /// the scheduler never considers the approximate rungs. Values
    /// below 1.0 let a batch whose deadline is at risk — or whose
    /// device pool has been halved by chaos — degrade to the
    /// two-stage or bucketed approximate algorithms, as long as the
    /// chosen configuration's analytic expected recall stays at or
    /// above the target.
    pub default_recall_target: f64,
}

impl EngineConfig {
    /// Config over the given devices with default queue capacity
    /// (1024), coalescing window (8), no fault injection, default
    /// retry/breaker policies, no deadline, CPU fallback enabled.
    pub fn new(devices: Vec<DeviceSpec>) -> Self {
        EngineConfig {
            devices,
            queue_capacity: 1024,
            coalescing_window: 8,
            fault_plan: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            deadline_us: None,
            cpu_fallback: true,
            sanitizer: SanitizerMode::off(),
            backend_factory: None,
            flight_capacity: 256,
            default_recall_target: 1.0,
        }
    }

    /// `devices` identical A100s — the paper's testbed, pooled.
    pub fn a100_pool(devices: usize) -> Self {
        EngineConfig::new(vec![DeviceSpec::a100(); devices.max(1)])
    }

    /// Builder-style override of the coalescing window.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.coalescing_window = window.max(1);
        self
    }

    /// Builder-style override of the queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Install a seeded fault plan on every pool device.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style override of the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder-style override of the circuit-breaker policy.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Apply a default deadline (simulated µs after drain start) to
    /// every subsequently submitted query.
    #[must_use]
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Enable or disable degradation to the CPU reference path.
    #[must_use]
    pub fn with_cpu_fallback(mut self, enabled: bool) -> Self {
        self.cpu_fallback = enabled;
        self
    }

    /// Arm sanitizer analyses on every pool device.
    #[must_use]
    pub fn with_sanitizer(mut self, mode: SanitizerMode) -> Self {
        self.sanitizer = mode;
        self
    }

    /// Builder-style override of the flight-recorder ring capacity.
    #[must_use]
    pub fn with_flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity.max(16);
        self
    }

    /// Apply a default per-query recall target to every subsequently
    /// submitted query (clamped to `[0, 1]`). Below 1.0, queries may
    /// be served by the approximate rungs when the scheduler sees
    /// deadline risk or pool-capacity loss.
    #[must_use]
    pub fn with_recall_target(mut self, target: f64) -> Self {
        self.default_recall_target = target.clamp(0.0, 1.0);
        self
    }

    /// Construct pool devices through `factory` instead of the default
    /// [`gpu_sim::Gpu`] simulator — one call per [`DeviceSpec`] entry.
    #[must_use]
    pub fn with_backend_factory(
        mut self,
        factory: impl Fn(&DeviceSpec) -> Box<dyn Backend> + Send + Sync + 'static,
    ) -> Self {
        self.backend_factory = Some(BackendFactory::new(factory));
        self
    }
}

/// Errors of the serving layer itself (selection errors travel inside
/// each query's [`QueryResult::outcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The bounded submission queue is full; drain before resubmitting.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Host-side answer to one query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The K selected (smallest) values.
    pub values: Vec<f32>,
    /// Original input positions of the selected values.
    pub indices: Vec<u32>,
    /// The K this query asked for.
    pub k: usize,
}

/// How a query's terminal result was produced — which rung of the
/// degradation ladder (GPU → retry → failover → CPU fallback → typed
/// error) answered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Served by the first device the query's batch was scheduled on
    /// (`retries` > 0 means the same device faulted and recovered).
    Gpu {
        /// Attempts beyond the first before the answer landed.
        retries: u32,
    },
    /// Served by a *different* device than first scheduled, after the
    /// original faulted.
    Failover {
        /// Attempts beyond the first before the answer landed.
        retries: u32,
    },
    /// Served on a device, but by an *approximate* algorithm: the
    /// scheduler traded recall for latency because the query's batch
    /// carried a recall target below 1.0 and either its deadline was
    /// at risk or chaos had halved the pool.
    /// [`QueryResult::est_recall`] carries the configuration's
    /// analytic expected recall (≥ the batch's target by
    /// construction).
    Approx {
        /// Which approximate algorithm answered.
        rung: ApproxRung,
        /// Attempts beyond the first before the answer landed.
        retries: u32,
    },
    /// Served by the host-side `topk-cpu` reference path: after the
    /// retry budget or the device pool was exhausted, or because every
    /// device start left waited on a breaker cooldown and the CPU
    /// answer was predicted to land before the device's.
    CpuFallback {
        /// GPU attempts made before degrading.
        retries: u32,
    },
    /// No answer: the query's [`QueryResult::outcome`] carries the
    /// terminal [`TopKError`].
    Failed,
}

/// The approximate rungs of the degradation ladder, in descending
/// preference order: two-stage (per-partition top-k′ then an exact
/// reduce — higher recall, two launches) before bucketed (one fused
/// launch keeping a few candidates per contiguous bucket — cheapest,
/// loosest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApproxRung {
    /// [`topk_core::TwoStageTopK`]: partition top-k′ + exact reduce.
    TwoStage,
    /// [`topk_core::BucketedTopK`]: single-pass per-bucket selection.
    Bucketed,
}

impl ApproxRung {
    /// Stable snake_case label, suitable as a metric/trace label.
    pub fn label(&self) -> &'static str {
        match self {
            ApproxRung::TwoStage => "approx_two_stage",
            ApproxRung::Bucketed => "approx_bucketed",
        }
    }
}

impl Served {
    /// Stable snake_case label, suitable as a metric/trace label.
    pub fn label(&self) -> &'static str {
        match self {
            Served::Gpu { .. } => "gpu",
            Served::Failover { .. } => "failover",
            Served::Approx { rung, .. } => rung.label(),
            Served::CpuFallback { .. } => "cpu_fallback",
            Served::Failed => "failed",
        }
    }

    /// Attempts beyond the first (0 for [`Served::Failed`]).
    pub fn retries(&self) -> u32 {
        match self {
            Served::Gpu { retries }
            | Served::Failover { retries }
            | Served::Approx { retries, .. }
            | Served::CpuFallback { retries } => *retries,
            Served::Failed => 0,
        }
    }
}

/// One drained query: outcome plus serving metrics.
///
/// All queries are modelled as arriving at simulated time zero of the
/// drain, so `latency_us = queue_wait_us + service time` on the device
/// that ran the query's batch.
#[derive(Debug, Clone)]
#[must_use = "per-query outcomes report errors through their Result"]
pub struct QueryResult {
    /// Submission id, as returned by [`TopKEngine::submit`].
    pub id: usize,
    /// Tracing span id minted for this query at submission.
    pub span: u64,
    /// Span the fused batch's kernel launches were tagged with (the
    /// lead query's span) — join against
    /// [`gpu_sim::KernelReport::span`] to find this query's launches.
    pub batch_span: u64,
    /// Which pool device served the query.
    pub device: usize,
    /// How many queries shared the fused launch (1 = not coalesced).
    pub batch_size: usize,
    /// Simulated µs the query waited while earlier batches ran.
    pub queue_wait_us: f64,
    /// Simulated µs from arrival to completion (wait + service).
    pub latency_us: f64,
    /// Which rung of the degradation ladder produced the answer.
    pub served: Served,
    /// Estimated recall of the answer: the analytic expected recall of
    /// the approximate configuration that served it, `1.0` for every
    /// exact rung (GPU, failover, CPU fallback), `0.0` for failed
    /// queries. Aggregated by [`DrainReport::percentile_recall`].
    pub est_recall: f64,
    /// The selection result, or why it failed.
    pub outcome: Result<QueryOutput, TopKError>,
}

/// Stage-level latency attribution: where a batch's (or a whole
/// drain's) simulated time went, read off the device [`Timeline`]
/// events. Pure post-hoc bookkeeping: it never perturbs the schedule
/// it measures.
///
/// [`Timeline`]: gpu_sim::Timeline
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Simulated µs spent queued before the batch (for a drain
    /// aggregate: summed over queries) — scheduling, earlier batches,
    /// backoff and quarantine waits.
    pub queue_wait_us: f64,
    /// Host↔device copy time, µs.
    pub transfer_us: f64,
    /// Selection-kernel execution time (histogram/filter/scan passes),
    /// µs.
    pub kernel_us: f64,
    /// Merge-kernel execution time (GridSelect-style block-merge
    /// phases), µs.
    pub merge_us: f64,
    /// Simulated backoff injected between fault retries, µs. Zero on
    /// per-batch rows; accumulated on the drain aggregate.
    pub retry_penalty_us: f64,
    /// Launch overhead, host sync and host compute, µs.
    pub other_us: f64,
}

impl StageBreakdown {
    /// Device-side service time: everything except queueing and retry
    /// backoff.
    pub fn device_us(&self) -> f64 {
        self.transfer_us + self.kernel_us + self.merge_us + self.other_us
    }

    /// The attribution as `(stage label, µs)` rows, in a stable order
    /// — ready for metric labels and trace args.
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("queue_wait", self.queue_wait_us),
            ("transfer", self.transfer_us),
            ("kernel", self.kernel_us),
            ("merge", self.merge_us),
            ("retry_penalty", self.retry_penalty_us),
            ("other", self.other_us),
        ]
    }
}

/// One coalesced batch as executed on a device.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Device that executed the batch.
    pub device: usize,
    /// Number of queries fused into the launch set.
    pub size: usize,
    /// Problem length shared by the batch.
    pub n: usize,
    /// K shared by the batch.
    pub k: usize,
    /// Span the batch's kernel launches were tagged with (the lead
    /// query's span).
    pub span: u64,
    /// Half-open index range into the device's
    /// [`DeviceReport::kernel_reports`] covering this batch's launches.
    /// Ranges are relative to *this drain's* reports — a persistent
    /// device's earlier history is not included.
    pub report_range: (usize, usize),
    /// Drain-relative device clock when the batch started, µs.
    pub start_us: f64,
    /// Drain-relative device clock when the batch finished, µs. This
    /// is device truth: an abandoned attempt still ends where the
    /// device finished it (for a hang, after the full watchdog).
    pub end_us: f64,
    /// The attempt's predicted budget, µs: its transfer model plus the
    /// tuner's prediction for the plan or rung it ran (infinite when
    /// the dispatcher has no tuner to predict with).
    pub budget_us: f64,
    /// Drain-relative instant the host declared the attempt overdue
    /// (`start_us + OVERDUE_FACTOR × budget_us`) and abandoned it;
    /// `None` when the attempt finished by then.
    pub overdue_us: Option<f64>,
    /// Where the batch's device time went (transfer vs. kernel vs.
    /// merge vs. overhead); `queue_wait_us` is the batch's start time.
    pub stages: StageBreakdown,
}

impl BatchRecord {
    /// Kernel launches this batch performed.
    pub fn kernel_launches(&self) -> usize {
        self.report_range.1 - self.report_range.0
    }
}

/// Everything one pool device did during a drain.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Pool index of the device.
    pub device: usize,
    /// Batches the device claimed and executed.
    pub batches: Vec<BatchRecord>,
    /// Device clock advance over this drain, µs. Devices persist
    /// across drains, so this is the drain's *delta*, not the device's
    /// lifetime clock.
    pub elapsed_us: f64,
    /// Device clock when this drain began, µs. Kernel-report and
    /// timeline timestamps are absolute device time; subtract this to
    /// get drain-relative times.
    pub clock_start_us: f64,
    /// Peak simulated device-memory use over the device's lifetime,
    /// bytes.
    pub mem_high_water: usize,
    /// Bytes still allocated after the last batch — nonzero means a
    /// query path leaked device memory.
    pub mem_allocated_after: usize,
    /// Every kernel launch *of this drain*, in execution order
    /// (batches index into this via [`BatchRecord::report_range`]).
    /// Earlier drains' launches on the same persistent device are
    /// deliberately excluded.
    pub kernel_reports: Vec<KernelReport>,
    /// Whether the device is marked failed (worker panic, device hang
    /// or an overdue attempt) — it takes no further work for the
    /// engine's lifetime. A failed device may legitimately hold leaked
    /// scratch bytes from its mid-flight batch.
    pub failed: bool,
    /// Whether the device was still inside a circuit-breaker
    /// quarantine when the drain finished.
    pub quarantined: bool,
    /// Injected faults that fired on this device *during this drain*,
    /// in firing order. Empty without a
    /// [`EngineConfig::fault_plan`].
    pub fault_events: Vec<FaultEvent>,
    /// Sanitizer occurrences flagged on this device *during this
    /// drain* (zero without [`EngineConfig::sanitizer`]). Deduplicated
    /// findings accumulate on the device; read them via the engine's
    /// [`TopKEngine::sanitizer_findings`].
    pub sanitizer: SanitizerCounts,
}

/// Result of [`TopKEngine::drain`]: per-query results in submission
/// order plus per-device execution reports.
#[derive(Debug, Clone)]
#[must_use = "drain reports carry every query's Result"]
pub struct DrainReport {
    /// One entry per drained query, sorted by submission id.
    pub results: Vec<QueryResult>,
    /// One entry per pool device.
    pub devices: Vec<DeviceReport>,
    /// Algorithm-level event deltas over the drain (AIR pass /
    /// adaptive / early-stop decisions, GridSelect merges) from
    /// [`topk_core::obs`]. Process-wide: concurrent engines in one
    /// process see each other's events.
    pub algo: AlgoSnapshot,
    /// Batch re-executions after a device fault (attempts beyond each
    /// job's first).
    pub retries: u64,
    /// Queries ultimately served by a different device than first
    /// scheduled.
    pub failovers: u64,
    /// Queries served by the CPU reference path.
    pub cpu_fallbacks: u64,
    /// Queries served by the two-stage approximate rung
    /// ([`Served::Approx`] with [`ApproxRung::TwoStage`]).
    pub approx_two_stage: u64,
    /// Queries served by the bucketed approximate rung
    /// ([`Served::Approx`] with [`ApproxRung::Bucketed`]).
    pub approx_bucketed: u64,
    /// Queries terminally failed with
    /// [`TopKError::DeadlineExceeded`].
    pub deadline_misses: u64,
    /// Circuit-breaker quarantines tripped during this drain.
    pub quarantines: u64,
    /// Attempts the host abandoned at their overdue instant (batches
    /// whose [`BatchRecord::overdue_us`] is set).
    pub overdue: u64,
    /// Sanitizer occurrences over all pool devices during this drain
    /// (sum of every [`DeviceReport::sanitizer`]). Deliberately *not*
    /// folded into [`DrainReport::chaos_digest`]: digests stay
    /// comparable between sanitized and unsanitized runs, which is how
    /// CI proves the sanitizer is cost-invisible.
    pub sanitizer: SanitizerCounts,
    /// Drain-wide stage-level latency attribution: per-batch device
    /// stages summed over every batch, `queue_wait_us` summed over
    /// every query, and the simulated retry backoff in
    /// `retry_penalty_us`. Deliberately *not* folded into
    /// [`DrainReport::chaos_digest`], so digests stay comparable with
    /// profiling consumers on or off.
    pub stages: StageBreakdown,
}

impl DrainReport {
    /// Simulated makespan: the busiest device's clock, µs.
    ///
    /// Device truth, not the host's view: a device retired because an
    /// attempt went overdue keeps running that attempt until it ends
    /// (a hang only ends when the watchdog fires), and its clock —
    /// hence this makespan and [`DrainReport::queries_per_sec`] —
    /// counts that time even though the host stopped waiting at the
    /// overdue instant.
    pub fn makespan_us(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.elapsed_us)
            .fold(0.0, f64::max)
    }

    /// Simulated throughput over the whole drain (all queries,
    /// including failed ones, over the makespan).
    pub fn queries_per_sec(&self) -> f64 {
        let span = self.makespan_us();
        if span <= 0.0 {
            return 0.0;
        }
        self.results.len() as f64 / (span * 1e-6)
    }

    /// Batches that actually fused ≥ 2 queries into one launch set.
    pub fn fused_batches(&self) -> usize {
        self.devices
            .iter()
            .flat_map(|d| &d.batches)
            .filter(|b| b.size >= 2)
            .count()
    }

    /// Mean simulated latency over successful queries, µs. `0.0` when
    /// no query succeeded — empty and all-errored drains report zero,
    /// never NaN.
    pub fn mean_latency_us(&self) -> f64 {
        mean(&self.ok_values(|r| r.latency_us))
    }

    /// Exact latency percentile over successful queries (nearest-rank,
    /// `q ∈ [0, 1]`), µs. `0.0` when no query succeeded — empty and
    /// all-errored drains report zero, never NaN, so the value is
    /// always safe to export to Prometheus. Unlike the histogram
    /// estimate in [`EngineMetrics`], this is computed from the raw
    /// per-query latencies.
    pub fn percentile_latency_us(&self, q: f64) -> f64 {
        let mut ok = self.ok_values(|r| r.latency_us);
        ok.sort_by(f64::total_cmp);
        nearest_rank(&ok, q)
    }

    /// Median simulated latency over successful queries, µs.
    pub fn p50_latency_us(&self) -> f64 {
        self.percentile_latency_us(0.50)
    }

    /// 99th-percentile simulated latency over successful queries, µs.
    pub fn p99_latency_us(&self) -> f64 {
        self.percentile_latency_us(0.99)
    }

    /// Estimated-recall floor met by a `q` fraction of successful
    /// queries (nearest-rank over the *descending* recall
    /// distribution): `percentile_recall(0.99)` is the recall all but
    /// the worst 1% of queries meet or exceed. Exact-only drains
    /// report `1.0`; drains with no successful query report `0.0`
    /// (never NaN).
    pub fn percentile_recall(&self, q: f64) -> f64 {
        let mut ok = self.ok_values(|r| r.est_recall);
        ok.sort_by(|a, b| b.total_cmp(a));
        nearest_rank(&ok, q)
    }

    /// Median estimated recall over successful queries.
    pub fn p50_recall(&self) -> f64 {
        self.percentile_recall(0.50)
    }

    /// Estimated-recall floor all but the worst 1% of successful
    /// queries meet.
    pub fn p99_recall(&self) -> f64 {
        self.percentile_recall(0.99)
    }

    /// Mean estimated recall over successful queries (`0.0` when none
    /// succeeded, never NaN).
    pub fn mean_est_recall(&self) -> f64 {
        mean(&self.ok_values(|r| r.est_recall))
    }

    /// `metric` of every successful query, non-finite values skipped.
    fn ok_values(&self, metric: impl Fn(&QueryResult) -> f64) -> Vec<f64> {
        let ok = self.results.iter().filter(|r| r.outcome.is_ok());
        ok.map(metric).filter(|v| v.is_finite()).collect()
    }

    /// A deterministic text summary of the whole drain: one line per
    /// query (id, serving rung, outcome kind, an FNV-1a hash of the
    /// answer bits and latency), one line per device (failure /
    /// quarantine state and the injected-fault schedule), and a final
    /// combined digest line. Two drains of the same workload under the
    /// same [`gpu_sim::FaultPlan`] seed must render identical digests
    /// — CI enforces exactly that by diffing two runs.
    pub fn chaos_digest(&self) -> String {
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        let mut out = String::new();
        let mut total = FNV_OFFSET;
        for r in &self.results {
            let mut qh = FNV_OFFSET;
            let kind = match &r.outcome {
                Ok(o) => {
                    for v in &o.values {
                        fnv(&mut qh, &v.to_bits().to_le_bytes());
                    }
                    for i in &o.indices {
                        fnv(&mut qh, &i.to_le_bytes());
                    }
                    "ok"
                }
                Err(e) => {
                    fnv(&mut qh, e.kind().as_bytes());
                    e.kind()
                }
            };
            fnv(&mut qh, &r.latency_us.to_bits().to_le_bytes());
            let line = format!(
                "q{} served={} retries={} {} {:016x}\n",
                r.id,
                r.served.label(),
                r.served.retries(),
                kind,
                qh
            );
            fnv(&mut total, line.as_bytes());
            out.push_str(&line);
        }
        for d in &self.devices {
            let faults: Vec<String> = d
                .fault_events
                .iter()
                .map(|f| format!("{}@{}", f.kind.label(), f.seq))
                .collect();
            let line = format!(
                "d{} failed={} quarantined={} faults=[{}]\n",
                d.device,
                d.failed,
                d.quarantined,
                faults.join(",")
            );
            fnv(&mut total, line.as_bytes());
            out.push_str(&line);
        }
        out.push_str(&format!(
            "retries={} failovers={} cpu_fallbacks={} deadline_misses={} quarantines={}\n",
            self.retries,
            self.failovers,
            self.cpu_fallbacks,
            self.deadline_misses,
            self.quarantines
        ));
        // Recall accounting rides in the digest too: fixed-precision
        // renders of deterministic analytic values, so same-seed runs
        // still match bit-for-bit.
        out.push_str(&format!(
            "approx_two_stage={} approx_bucketed={} recall_p50={:.4} recall_p99={:.4}\n",
            self.approx_two_stage,
            self.approx_bucketed,
            self.p50_recall(),
            self.p99_recall()
        ));
        out.push_str(&format!("digest {total:016x}\n"));
        out
    }
}

/// Arithmetic mean, `0.0` for no values.
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank `q` quantile of `sorted`, `0.0` for no values.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// A submitted, not-yet-drained query.
struct Pending {
    id: usize,
    span: u64,
    data: Vec<f32>,
    k: usize,
    /// Per-query deadline, µs of simulated time after drain start.
    deadline_us: Option<u64>,
    /// Per-query recall target (`1.0` = exact-only).
    recall_target: f64,
    /// Distribution sketch computed at submission; routes the query's
    /// batch through the adaptive dispatcher.
    sketch: DistSketch,
}

/// A group of same-shape queries destined for one fused launch set.
/// The batch's kernel launches are tagged with `span` (the lead
/// query's span id).
struct Batch {
    n: usize,
    k: usize,
    span: u64,
    /// Most conservative member sketch (fewest shared prefix bits):
    /// every row in the fused launch has at least this much skew, which
    /// is the property the per-row radix passes depend on.
    sketch: DistSketch,
    /// Strictest member recall target (the max): an approximate rung
    /// may serve the fused batch only if every member tolerates it.
    recall_target: f64,
    queries: Vec<Pending>,
}

impl Batch {
    /// The fused launch's problem shape, as the tuner prices it.
    fn shape(&self) -> ProblemShape {
        ProblemShape::new(self.n, self.k, self.queries.len()).with_sketch(self.sketch)
    }
}

/// A schedulable unit of the drain: one batch plus its retry state.
struct Job {
    batch: Batch,
    /// Completed service attempts (0 before the first).
    attempts: u32,
    /// Earliest drain-relative simulated time the job may start
    /// (backoff after a fault).
    not_before_us: f64,
    /// Device of the first attempt — a final success elsewhere is a
    /// failover.
    first_device: Option<usize>,
    /// The most recent device fault, reported if the job exhausts the
    /// ladder without a CPU fallback.
    last_error: Option<TopKError>,
}

/// Circuit-breaker state of one pool device. Persists across drains,
/// like the device itself.
#[derive(Debug, Clone, Default)]
struct HealthState {
    /// Device faults since the last success.
    consecutive_faults: u32,
    /// Absolute device-clock time until which the device is
    /// quarantined.
    quarantined_until_us: f64,
    /// Permanently failed (worker panic, device hang or an overdue
    /// attempt).
    failed: bool,
    /// Lifetime device faults.
    total_faults: u64,
    /// Lifetime quarantine trips.
    quarantines: u64,
}

/// Point-in-time state of one pool device, accumulated across drains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceSnapshot {
    /// Pool index of the device.
    pub device: usize,
    /// Simulated µs the device spent executing batches, over all
    /// drains so far.
    pub busy_us: f64,
    /// `busy_us` over the sum of drain makespans: 1.0 means this
    /// device was the critical path of every drain; low values mean it
    /// sat idle while siblings worked. 0.0 before the first drain.
    pub utilization: f64,
    /// Batches the device has executed.
    pub batches: u64,
    /// Kernel launches the device has performed.
    pub kernel_launches: u64,
    /// Health of the device: `"ok"`, `"quarantined"` or `"failed"`.
    pub health: &'static str,
    /// Lifetime injected/organic device faults observed on it.
    pub faults: u64,
}

/// Point-in-time state of the whole engine — the scrape-friendly
/// companion to the event-stream metrics in [`EngineMetrics`]. Every
/// cumulative total is read from those metrics' counters, so the two
/// views cannot disagree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineSnapshot {
    /// Queries waiting for the next drain.
    pub queue_depth: usize,
    /// Queries accepted by [`TopKEngine::submit`] so far.
    pub queries_submitted: u64,
    /// Queries drained with an `Ok` outcome.
    pub queries_completed: u64,
    /// Queries drained with an `Err` outcome.
    pub queries_failed: u64,
    /// Submissions refused with [`EngineError::QueueFull`].
    pub queue_rejections: u64,
    /// Drains performed.
    pub drains: u64,
    /// Error totals keyed by [`TopKError::kind`], one entry per kind
    /// (zeros included, in [`TopKError::KINDS`] order).
    pub errors: Vec<(&'static str, u64)>,
    /// Batch re-executions after device faults, over all drains.
    pub retries: u64,
    /// Queries served by a different device than first scheduled.
    pub failovers: u64,
    /// Queries served by the CPU reference path.
    pub cpu_fallbacks: u64,
    /// Queries served by the two-stage approximate rung, over all
    /// drains.
    pub approx_two_stage: u64,
    /// Queries served by the bucketed approximate rung, over all
    /// drains.
    pub approx_bucketed: u64,
    /// Queries terminally failed on their deadline.
    pub deadline_misses: u64,
    /// Circuit-breaker quarantine trips.
    pub quarantines: u64,
    /// Tuner plan-table hits over every drain — batches priced from a
    /// warm plan without re-running the cost model.
    pub tuner_plan_hits: u64,
    /// Tuner plan-table misses over every drain (cold buckets priced
    /// through the full cost model).
    pub tuner_plan_misses: u64,
    /// Tuner replans: observations drifted far enough from a bucket's
    /// prediction that the plan was re-derived.
    pub tuner_refinements: u64,
    /// One entry per pool device.
    pub devices: Vec<DeviceSnapshot>,
}

/// Cumulative per-device tallies behind [`DeviceSnapshot`].
#[derive(Debug, Clone, Copy, Default)]
struct DeviceStats {
    busy_us: f64,
    batches: u64,
    kernel_launches: u64,
}

/// Multi-device top-K serving engine. See the crate docs for the
/// serving model. Devices are created up front and **persist across
/// drains**: clocks, memory high-water marks and profiling history
/// carry over, as they would on a long-lived server.
pub struct TopKEngine {
    config: EngineConfig,
    pending: Vec<Pending>,
    next_id: usize,
    gpus: Vec<Box<dyn Backend>>,
    health: Vec<HealthState>,
    /// The adaptive dispatcher. Persists across drains so its plan
    /// table warms up and its calibration keeps learning from observed
    /// batch latencies.
    selector: SelectK,
    metrics: EngineMetrics,
    /// Always-on bounded event ring; see [`crate::flight`].
    flight: FlightRecorder,
    /// Post-mortem JSON documents dumped by anomaly triggers, oldest
    /// first, capped at [`POST_MORTEM_CAP`].
    post_mortems: Vec<String>,
    post_mortems_dropped: u64,
    /// Sum of drain makespans, µs — the denominator of utilisation.
    wall_us: f64,
    device_stats: Vec<DeviceStats>,
}

impl TopKEngine {
    /// Engine over `config`'s device pool. When the config carries a
    /// [`FaultPlan`], every device gets its seeded injector here.
    ///
    /// # Panics
    /// If the pool is empty.
    pub fn new(config: EngineConfig) -> Self {
        assert!(!config.devices.is_empty(), "engine needs >= 1 device");
        let mut gpus: Vec<Box<dyn Backend>> = config
            .devices
            .iter()
            .map(|spec| match &config.backend_factory {
                Some(factory) => factory.build(spec),
                None => Box::new(Gpu::new(spec.clone())) as Box<dyn Backend>,
            })
            .collect();
        if let Some(plan) = &config.fault_plan {
            for (dev, gpu) in gpus.iter_mut().enumerate() {
                gpu.set_fault_injector(plan.injector_for(dev));
            }
        }
        if config.sanitizer.enabled() {
            for gpu in &mut gpus {
                gpu.enable_sanitizer(config.sanitizer);
            }
        }
        let device_stats = vec![DeviceStats::default(); config.devices.len()];
        let health = vec![HealthState::default(); config.devices.len()];
        let flight = FlightRecorder::new(config.flight_capacity);
        TopKEngine {
            config,
            pending: Vec::new(),
            next_id: 0,
            gpus,
            health,
            selector: SelectK::default(),
            metrics: EngineMetrics::new(),
            flight,
            post_mortems: Vec::new(),
            post_mortems_dropped: 0,
            wall_us: 0.0,
            device_stats,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's adaptive dispatcher (its tuner carries the plan
    /// table and calibration state accumulated over drains).
    pub fn selector(&self) -> &SelectK {
        &self.selector
    }

    /// The dispatcher's current plan table rendered as text (see
    /// [`topk_core::tuner::PlanTable::to_text`]) — a warm table can be
    /// persisted and loaded into a future deployment.
    pub fn plan_table_text(&self) -> Option<String> {
        self.selector.tuner().map(|t| t.table_text())
    }

    /// Deduplicated sanitizer findings over the engine's lifetime, one
    /// list per pool device (empty lists when
    /// [`EngineConfig::sanitizer`] is off).
    pub fn sanitizer_findings(&self) -> Vec<Vec<gpu_sim::SanitizerFinding>> {
        self.gpus
            .iter()
            .map(|g| g.sanitizer_report().map_or_else(Vec::new, |r| r.findings))
            .collect()
    }

    /// Queries waiting for the next [`TopKEngine::drain`].
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The engine's metrics (histograms, counters, gauges).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Render every engine metric in the Prometheus text exposition
    /// format — the scrape endpoint's body.
    pub fn render_prometheus(&self) -> String {
        self.metrics.render_prometheus()
    }

    /// The always-on flight recorder: the last
    /// [`EngineConfig::flight_capacity`] engine events.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Post-mortem JSON documents dumped so far (oldest first), one
    /// per anomaly trigger — terminal query failure, deadline miss,
    /// breaker trip or device retirement. At most [`POST_MORTEM_CAP`]
    /// are retained; see [`TopKEngine::post_mortems_dropped`].
    pub fn post_mortems(&self) -> &[String] {
        &self.post_mortems
    }

    /// Drain the retained post-mortems (e.g. after writing them to
    /// disk), freeing their slots for future triggers.
    pub fn take_post_mortems(&mut self) -> Vec<String> {
        std::mem::take(&mut self.post_mortems)
    }

    /// Triggers that fired after the post-mortem store was full.
    pub fn post_mortems_dropped(&self) -> u64 {
        self.post_mortems_dropped
    }

    /// The tuner's cost-model drift table (predicted vs. observed
    /// latency per plan bucket and winning configuration, accumulated
    /// over every drain) rendered as an aligned text block.
    pub fn drift_table_text(&self) -> String {
        let mut out = String::from(
            "Plan bucket            Algo        Samples   Predicted us   Observed us   Ratio\n",
        );
        for (key, algo, e) in drift_rows(&self.selector) {
            out.push_str(&format!(
                "{:<22} {:<11} {:>7} {:>14.2} {:>13.2} {:>7.3}\n",
                key.to_string(),
                algo.encode(),
                e.samples,
                e.predicted_us,
                e.observed_us,
                e.mean_ratio(),
            ));
        }
        out
    }

    /// The tuner's per-family EMA calibration factors (empty when the
    /// dispatcher runs without a tuner).
    pub fn calibration(&self) -> Vec<(&'static str, f64)> {
        self.selector
            .tuner()
            .map(|t| t.calibration_snapshot())
            .unwrap_or_default()
    }

    /// Point-in-time engine state: queue depth, per-device utilisation
    /// and error totals.
    pub fn snapshot(&self) -> EngineSnapshot {
        let m = &self.metrics;
        let errors: Vec<(&'static str, u64)> = TopKError::KINDS
            .iter()
            .zip(&m.query_errors)
            .map(|(&kind, c)| (kind, c.get()))
            .collect();
        let queries_failed = errors.iter().map(|&(_, n)| n).sum::<u64>();
        EngineSnapshot {
            queue_depth: self.pending.len(),
            queries_submitted: m.queries_submitted.get(),
            queries_completed: m.queries.get() - queries_failed,
            queries_failed,
            queue_rejections: m.queue_rejections.get(),
            drains: m.drains.get(),
            errors,
            retries: m.retries.get(),
            failovers: m.failovers.get(),
            cpu_fallbacks: m.cpu_fallbacks.get(),
            approx_two_stage: m.approx_two_stage.get(),
            approx_bucketed: m.approx_bucketed.get(),
            deadline_misses: m.deadline_misses.get(),
            quarantines: m.quarantines.get(),
            tuner_plan_hits: m.tuner_plan_hits.get(),
            tuner_plan_misses: m.tuner_plan_misses.get(),
            tuner_refinements: m.tuner_refinements.get(),
            devices: self
                .device_stats
                .iter()
                .enumerate()
                .map(|(dev, s)| DeviceSnapshot {
                    device: dev,
                    busy_us: s.busy_us,
                    utilization: self.utilization(s),
                    batches: s.batches,
                    kernel_launches: s.kernel_launches,
                    health: self.health_label(dev),
                    faults: self.health[dev].total_faults,
                })
                .collect(),
        }
    }

    /// Health of device `dev` now: `"ok"`, `"quarantined"` or
    /// `"failed"`.
    fn health_label(&self, dev: usize) -> &'static str {
        self.health[dev].label(self.gpus[dev].elapsed_us())
    }

    /// Enqueue a top-K query (smallest `k` of `data`, with indices).
    ///
    /// Returns the query's submission id — [`DrainReport::results`] is
    /// sorted by it. Shape problems (`k == 0`, `k > data.len()`) are
    /// *not* rejected here; they come back as that query's
    /// [`TopKError`] so a bad query cannot poison the queue.
    pub fn submit(&mut self, data: Vec<f32>, k: usize) -> Result<usize, EngineError> {
        let deadline = self.config.deadline_us;
        let recall = self.config.default_recall_target;
        self.submit_inner(data, k, deadline, recall)
    }

    /// [`TopKEngine::submit`] with an explicit per-query deadline (µs
    /// of simulated time after the drain starts), overriding
    /// [`EngineConfig::deadline_us`]. A query that cannot be answered
    /// inside its deadline terminates with
    /// [`TopKError::DeadlineExceeded`].
    pub fn submit_with_deadline(
        &mut self,
        data: Vec<f32>,
        k: usize,
        deadline_us: u64,
    ) -> Result<usize, EngineError> {
        let recall = self.config.default_recall_target;
        self.submit_inner(data, k, Some(deadline_us), recall)
    }

    /// [`TopKEngine::submit`] with an explicit per-query recall target
    /// (clamped to `[0, 1]`), overriding
    /// [`EngineConfig::default_recall_target`]. Below 1.0 the query
    /// consents to being served by an approximate rung whose analytic
    /// expected recall is at least `recall_target`, but only when the
    /// scheduler sees deadline risk or pool-capacity loss — a healthy
    /// pool still serves it exactly.
    pub fn submit_with_recall(
        &mut self,
        data: Vec<f32>,
        k: usize,
        recall_target: f64,
    ) -> Result<usize, EngineError> {
        let deadline = self.config.deadline_us;
        self.submit_inner(data, k, deadline, recall_target)
    }

    fn submit_inner(
        &mut self,
        data: Vec<f32>,
        k: usize,
        deadline_us: Option<u64>,
        recall_target: f64,
    ) -> Result<usize, EngineError> {
        if self.pending.len() >= self.config.queue_capacity {
            self.metrics.queue_rejections.inc();
            self.flight.record(
                "queue_reject",
                None,
                None,
                0.0,
                format!("capacity={}", self.config.queue_capacity),
            );
            return Err(EngineError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let span = topk_obs::next_span_id();
        // One O(n) min/max pass over the host data buys the dispatcher
        // a distribution sketch: skewed queries route away from AIR's
        // degenerate histogram passes.
        let sketch = DistSketch::from_sample(&data);
        self.flight.record(
            "submit",
            None,
            Some(span),
            0.0,
            format!("id={id} n={} k={k}", data.len()),
        );
        self.pending.push(Pending {
            id,
            span,
            data,
            k,
            deadline_us,
            recall_target: recall_target.clamp(0.0, 1.0),
            sketch,
        });
        self.metrics.queries_submitted.inc();
        self.metrics.queue_depth.set(self.pending.len() as f64);
        Ok(id)
    }

    /// Run every queued query across the device pool and return all
    /// results plus per-device reports.
    ///
    /// The drain never aborts: a batch whose execution panics (e.g. an
    /// injected driver crash) has the panic captured, the device
    /// marked failed, and its queries rescheduled; every submitted
    /// query reaches exactly one terminal [`QueryResult`].
    ///
    /// Each step picks the job that may start earliest and the device
    /// that can start it soonest — or the CPU rung, when the pool is
    /// exhausted or the CPU answers before a breaker cooldown ends —
    /// then the rung and budget of the attempt, runs it under
    /// `catch_unwind`, and settles the outcome: answers
    /// are delivered, a query's own fault is terminal, and an overdue
    /// attempt, a device error and a worker panic share one fault path
    /// (`DESIGN.md` §2).
    pub fn drain(&mut self) -> DrainReport {
        let mut st = DrainState::new(self);
        let batches = coalesce(
            std::mem::take(&mut self.pending),
            self.config.coalescing_window,
        );
        for batch in batches {
            self.flight.record(
                "coalesce",
                None,
                Some(batch.span),
                0.0,
                format!("size={} n={} k={}", batch.queries.len(), batch.n, batch.k),
            );
            st.jobs.push(Job {
                batch,
                attempts: 0,
                not_before_us: 0.0,
                first_device: None,
                last_error: None,
            });
        }
        // Take the persistent selector out of `self` for the duration
        // of the drain (the loop needs `&mut self.gpus[dev]` alongside
        // it); restored before returning.
        let selector = std::mem::replace(&mut self.selector, SelectK::static_prior());

        while let Some(mut job) = st.next_job() {
            let (dev, start_at) = match self.route(&st, &job, &selector) {
                Ok(pick) => (pick.dev, pick.start_us),
                Err((now, cause)) => {
                    let step_seq = self.flight.recorded();
                    st.degrade(job, now, &cause, &self.config, &mut self.flight);
                    st.maybe_post_mortem(self, step_seq, &selector);
                    continue;
                }
            };
            job.attempts += 1;
            job.first_device.get_or_insert(dev);
            let step_seq = self.flight.recorded();
            self.flight.record(
                "launch",
                Some(dev),
                Some(job.batch.span),
                start_at,
                format!(
                    "attempt={} size={} n={} k={}",
                    job.attempts,
                    job.batch.queries.len(),
                    job.batch.n,
                    job.batch.k
                ),
            );
            let rung = self.choose_rung(&job.batch, dev, start_at, &selector);
            let approx = rung.map(|c| c.algo);
            let (rec, outcome) =
                self.run_attempt(&mut st, &job.batch, (dev, start_at), &selector, approx);

            let verdict = settle(rec.overdue_us, outcome);
            let clock_us = self.gpus[dev].elapsed_us();
            let trip = self.health[dev].settle(&verdict, &self.config.breaker, clock_us);
            match verdict {
                Verdict::Answered(outs) => {
                    // Close the tuning loop: the batch's measured
                    // service time recalibrates its plan bucket and
                    // lands in the tuner's drift table — exact
                    // attempts only, so approximate timings never
                    // pollute the exact cost model they were chosen to
                    // undercut.
                    if rung.is_none() {
                        let service_us = rec.end_us - rec.start_us;
                        selector.observe(self.gpus[dev].spec(), &job.batch.shape(), service_us);
                    }
                    self.deliver(&mut st, &job, &rec, rung, outs);
                }
                Verdict::QueryFault(e) => {
                    let (start_us, end_us) = (rec.start_us, rec.end_us);
                    for q in &job.batch.queries {
                        let detail = format!("id={} kind={}", q.id, e.kind());
                        self.flight
                            .record("query_failed", Some(dev), Some(q.span), end_us, detail);
                        let result = job.batch.result(q, dev, (start_us, end_us), Err(e.clone()));
                        st.results.push(result);
                    }
                }
                Verdict::DeviceFault(fault) => self.fault(&mut st, job, &rec, fault, trip),
            }
            st.maybe_post_mortem(self, step_seq, &selector);
        }

        let report = st.into_report(self);
        self.selector = selector;
        self.record_drain(&report);
        report
    }

    /// Where `job` runs next: on the device that can start it soonest
    /// ([`pick_device`]), or on the CPU rung from the returned instant,
    /// for the returned cause — `cause=exhausted` when every device has
    /// failed, `cause=cooldown` when a breaker cooldown is all that
    /// keeps the job off a device and the CPU answer lands first
    /// ([`cooldown_rung`]).
    fn route(&self, st: &DrainState, job: &Job, selector: &SelectK) -> Result<Pick, (f64, String)> {
        let slots = st.marks.iter().enumerate().map(|(d, m)| DeviceSlot {
            failed: self.health[d].failed,
            clock_us: self.gpus[d].elapsed_us() - m.t0,
            quarantine_end_us: (self.health[d].quarantined_until_us - m.t0).max(0.0),
        });
        let Some(pick) = pick_device(slots, job.not_before_us) else {
            // Pool exhausted: every device failed. Degrade at the
            // latest time the host heard from any device.
            let now = st
                .host_seen
                .iter()
                .fold(job.not_before_us, |t, &s| t.max(s));
            return Err((now, "cause=exhausted".into()));
        };
        let spec = self.gpus[pick.dev].spec();
        match cooldown_rung(&job.batch, spec, selector, pick, self.config.cpu_fallback) {
            Some(wait_us) => {
                let cause = format!("cause=cooldown wait_avoided_us={wait_us:.1}");
                Err((pick.ready_us, cause))
            }
            None => Ok(pick),
        }
    }

    /// A device's busy time over the sum of drain makespans (0 before
    /// the first drain).
    fn utilization(&self, stats: &DeviceStats) -> f64 {
        if self.wall_us > 0.0 {
            stats.busy_us / self.wall_us
        } else {
            0.0
        }
    }

    /// Accuracy-ladder decision for one attempt on `dev` (see
    /// [`decide_rung`]), recorded as a `degrade_rung` event when it
    /// approximates. Re-decided per attempt — a retry after a fault
    /// sees the shrunken pool.
    fn choose_rung(
        &mut self,
        batch: &Batch,
        dev: usize,
        start_at: f64,
        selector: &SelectK,
    ) -> Option<RungChoice> {
        let (pool, spec) = (self.gpus.len(), self.gpus[dev].spec());
        let healthy = (0..pool).filter(|&d| self.health_label(d) == "ok").count();
        let rung = decide_rung(batch, spec, selector, start_at, healthy, pool);
        if let Some(choice) = &rung {
            self.flight.record(
                "degrade_rung",
                Some(dev),
                Some(batch.span),
                start_at,
                format!(
                    "rung={} cause={} recall_target={:.4} est_recall={:.4}",
                    choice.rung().label(),
                    choice.cause,
                    batch.recall_target,
                    choice.est_recall
                ),
            );
        }
        rung
    }

    /// Run `batch` on the device picked for it from its start time
    /// under `catch_unwind`, append the attempt's [`BatchRecord`] and
    /// note when the host last heard from the device. Returns the
    /// record and the raw outcome.
    fn run_attempt(
        &mut self,
        st: &mut DrainState,
        batch: &Batch,
        (dev, start_at): (usize, f64),
        selector: &SelectK,
        approx: Option<TunedAlgo>,
    ) -> (BatchRecord, BatchOutcome) {
        let (t0, reports_lo) = (st.marks[dev].t0, st.marks[dev].reports);
        let budget_us = attempt_budget_us(batch, self.gpus[dev].spec(), selector, approx);
        let gpu = self.gpus[dev].as_mut();
        // Advance the device to the job's start (backoff and
        // quarantine waits are simulated idle time).
        let rel_clock = gpu.elapsed_us() - t0;
        if start_at > rel_clock {
            gpu.host_compute("scheduler wait", start_at - rel_clock);
        }
        let start_us = gpu.elapsed_us() - t0;
        let batch_reports_lo = gpu.reports().len() - reports_lo;
        let timeline_lo = gpu.timeline().map_or(0, |t| t.events().len());
        gpu.set_span(batch.span);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_batch(&mut *gpu, selector, batch, approx)
        }));
        gpu.clear_span();
        let end_us = gpu.elapsed_us() - t0;
        let overdue_at = start_us + OVERDUE_FACTOR * budget_us;
        let overdue_us = (end_us > overdue_at).then_some(overdue_at);
        st.host_seen[dev] = overdue_us.unwrap_or(end_us);
        let rec = BatchRecord {
            device: dev,
            size: batch.queries.len(),
            n: batch.n,
            k: batch.k,
            span: batch.span,
            report_range: (batch_reports_lo, gpu.reports().len() - reports_lo),
            start_us,
            end_us,
            budget_us,
            overdue_us,
            stages: batch_stages(gpu, timeline_lo, start_us),
        };
        st.records[dev].push(rec.clone());
        (rec, outcome)
    }

    /// Deliver a batch's answers: record the success (and a failover
    /// when the job started elsewhere), then settle each query — an
    /// answer that arrived after the query's deadline becomes a
    /// deadline miss.
    fn deliver(
        &mut self,
        st: &mut DrainState,
        job: &Job,
        rec: &BatchRecord,
        rung: Option<RungChoice>,
        outs: Vec<QueryOutput>,
    ) {
        let (dev, end_us, span) = (rec.device, rec.end_us, Some(job.batch.span));
        let flight = &mut self.flight;
        let detail = format!("size={} attempt={}", job.batch.queries.len(), job.attempts);
        flight.record("batch_ok", Some(dev), span, end_us, detail);
        let first_device = job.first_device.unwrap_or(dev);
        if first_device != dev {
            let detail = format!("first_device={first_device}");
            flight.record("failover", Some(dev), span, end_us, detail);
        }
        let retries = job.attempts - 1;
        // Approximation is the serving rung even when the attempt also
        // failed over: the accuracy trade is the fact the caller must
        // see.
        let served = match &rung {
            Some(choice) => Served::Approx {
                rung: choice.rung(),
                retries,
            },
            None if first_device == dev => Served::Gpu { retries },
            None => Served::Failover { retries },
        };
        let est_recall = rung.map_or(1.0, |c| c.est_recall);
        for (q, out) in job.batch.queries.iter().zip(outs) {
            let answer = match q.deadline_us {
                // The answer exists but arrived late: the deadline
                // verdict wins.
                Some(dl) if end_us > dl as f64 => {
                    let detail = format!("id={} deadline_us={dl}", q.id);
                    flight.record("deadline_miss", Some(dev), Some(q.span), end_us, detail);
                    Err(TopKError::DeadlineExceeded { deadline_us: dl })
                }
                _ => Ok((served, est_recall, out)),
            };
            let result = job.batch.result(q, dev, (rec.start_us, end_us), answer);
            st.results.push(result);
        }
    }

    /// The one fault path for an overdue attempt, a device error or a
    /// worker panic: report the fault, record what it did to the
    /// device's breaker (`trip`, from [`HealthState::settle`]), and
    /// requeue or degrade the job from the instant the host learnt of
    /// it — the overdue instant, not the device's own end, for an
    /// abandoned attempt.
    fn fault(
        &mut self,
        st: &mut DrainState,
        mut job: Job,
        rec: &BatchRecord,
        fault: DeviceFault,
        trip: Option<Trip>,
    ) {
        let (dev, severe) = (rec.device, fault.severe());
        let (now, kind, detail, cause, error) = match fault {
            DeviceFault::Overdue { at_us: now } => {
                // Hung, stalled or merely late, the attempt had not
                // finished when the host stopped waiting.
                let detail = format!(
                    "attempt={} budget_us={:.1} overdue_at_us={now:.1}",
                    job.attempts, rec.budget_us
                );
                let timeout_us = (now - rec.start_us).ceil() as u64;
                let hang = TopKError::Sim(SimError::DeviceHang { timeout_us });
                (now, "overdue", detail, "overdue".to_string(), Some(hang))
            }
            DeviceFault::Error(e) => {
                let detail = format!("kind={} severe={severe}", e.kind());
                let cause = format!("kind={}", e.kind());
                (rec.end_us, "device_fault", detail, cause, Some(e))
            }
            // A panic carries no typed error; the job keeps its last.
            DeviceFault::Panic => (
                rec.end_us,
                "worker_panic",
                String::new(),
                "worker panic".into(),
                None,
            ),
        };
        let flight = &mut self.flight;
        flight.record(kind, Some(dev), Some(job.batch.span), now, detail);
        let breaker_event = trip.map(|trip| match trip {
            Trip::Retired => ("device_failed", cause),
            Trip::Quarantined => {
                let consecutive = self.health[dev].consecutive_faults;
                let cooldown_us = self.config.breaker.cooldown_us;
                let detail = format!("consecutive={consecutive} cooldown_us={cooldown_us:.0}");
                ("breaker_open", detail)
            }
        });
        if let Some((kind, detail)) = breaker_event {
            flight.record(kind, Some(dev), None, now, detail);
        }
        if error.is_some() {
            job.last_error = error;
        }
        st.requeue_or_degrade(job, now, &self.config, &mut self.flight);
    }

    /// Fold one drain's outcome into the metrics registry and the
    /// per-device utilisation tallies.
    fn record_drain(&mut self, report: &DrainReport) {
        self.wall_us += report.makespan_us();
        for r in &report.results {
            self.metrics.record_query(r);
        }
        for d in &report.devices {
            let stats = &mut self.device_stats[d.device];
            stats.busy_us += d.elapsed_us;
            stats.batches += d.batches.len() as u64;
            stats.kernel_launches += d.kernel_reports.len() as u64;
            for b in &d.batches {
                self.metrics.record_batch(b);
            }
            self.metrics
                .kernel_launches
                .add(d.kernel_reports.len() as u64);
        }
        for (dev, stats) in self.device_stats.iter().enumerate() {
            self.metrics
                .set_device_utilization(dev, self.utilization(stats));
        }
        self.metrics.record_resilience(report);
        let labels: Vec<_> = (0..self.gpus.len()).map(|d| self.health_label(d)).collect();
        let count = |label| labels.iter().filter(|&&l| l == label).count();
        self.metrics
            .set_health_gauges(count("quarantined"), count("failed"));
        self.metrics.record_algo(&report.algo);
        // Continuous profiling exports: per-kernel roofline rows, the
        // drain's stage attribution, cost-model drift and the tuner's
        // calibration state — all derived from data the drain already
        // collected, so exporting them costs no simulated time.
        for d in &report.devices {
            let rows = gpu_sim::roofline(&self.config.devices[d.device], &d.kernel_reports);
            self.metrics.record_roofline(d.device, &rows);
        }
        self.metrics.record_stages(&report.stages);
        for (key, algo, entry) in drift_rows(&self.selector) {
            self.metrics.record_drift(&key, &algo, &entry);
        }
        for (family, factor) in self.calibration() {
            self.metrics.record_calibration(family, factor);
        }
        self.metrics.drains.inc();
        self.metrics.queue_depth.set(0.0);
    }
}

/// Where one device stood when a drain began: everything before these
/// marks belongs to earlier drains.
struct DeviceMark {
    /// Device clock, µs.
    t0: f64,
    /// Kernel reports already recorded.
    reports: usize,
    /// Injected faults already fired.
    faults: usize,
    /// Sanitizer occurrences already flagged.
    sanitizer: SanitizerCounts,
    /// Breaker quarantines already tripped.
    quarantines: u64,
}

/// The state of one drain in flight.
struct DrainState {
    /// Algorithm-level counters at drain start.
    algo_before: AlgoSnapshot,
    /// One mark per pool device.
    marks: Vec<DeviceMark>,
    /// Jobs waiting to run or to be retried.
    jobs: Vec<Job>,
    /// Attempts executed, per device.
    records: Vec<Vec<BatchRecord>>,
    /// Terminal results, in settling order.
    results: Vec<QueryResult>,
    /// When the host last heard from each device, drain-relative: the
    /// end of its last attempt, or the overdue instant at which the
    /// host abandoned one. A device retired for an overdue attempt
    /// keeps running on its own clock; the host's view stops here.
    host_seen: Vec<f64>,
    /// Batch re-executions after device faults.
    retries: u64,
    /// Simulated backoff injected between retries, µs.
    retry_penalty_us: f64,
}

impl DrainState {
    /// Mark every device of `engine` at drain start.
    fn new(engine: &TopKEngine) -> Self {
        let marks: Vec<DeviceMark> = engine
            .gpus
            .iter()
            .zip(&engine.health)
            .map(|(gpu, health)| DeviceMark {
                t0: gpu.elapsed_us(),
                reports: gpu.reports().len(),
                faults: gpu.fault_events().len(),
                sanitizer: sanitizer_counts(gpu.as_ref()),
                quarantines: health.quarantines,
            })
            .collect();
        let n_dev = engine.gpus.len();
        DrainState {
            algo_before: topk_core::obs::counters().snapshot(),
            marks,
            jobs: Vec::new(),
            records: vec![Vec::new(); n_dev],
            results: Vec::new(),
            host_seen: vec![0.0; n_dev],
            retries: 0,
            retry_penalty_us: 0.0,
        }
    }

    /// Remove the job that may start earliest; the first queued wins
    /// ties, so the schedule is a pure function of the workload.
    fn next_job(&mut self) -> Option<Job> {
        let jobs = &self.jobs;
        let ji = (0..jobs.len())
            .min_by(|&a, &b| jobs[a].not_before_us.total_cmp(&jobs[b].not_before_us))?;
        Some(self.jobs.remove(ji))
    }

    /// After a device fault: requeue `job` with backoff while it has
    /// retry budget left — terminating now the queries whose deadline
    /// the backoff already overruns — and degrade it otherwise.
    fn requeue_or_degrade(
        &mut self,
        mut job: Job,
        now_us: f64,
        config: &EngineConfig,
        flight: &mut FlightRecorder,
    ) {
        let Some(backoff) = config.retry.backoff_after(job.attempts) else {
            return self.degrade(job, now_us, "cause=exhausted", config, flight);
        };
        job.not_before_us = now_us + backoff;
        let (expired, live) =
            split_expired(std::mem::take(&mut job.batch.queries), job.not_before_us);
        job.batch.queries = live;
        let device = job.first_device.unwrap_or(0);
        for q in expired {
            let dl = q.deadline_us.expect("only deadlined queries expire");
            flight.record(
                "deadline_miss",
                job.first_device,
                Some(q.span),
                now_us,
                format!("id={} deadline_us={dl} expired during backoff", q.id),
            );
            let miss = Err(TopKError::DeadlineExceeded { deadline_us: dl });
            let result = job.batch.result(&q, device, (now_us, now_us), miss);
            // An expired query leaves its batch: it is reported alone.
            self.results.push(QueryResult {
                batch_size: 1,
                ..result
            });
        }
        if job.batch.queries.is_empty() {
            return;
        }
        self.retries += 1;
        self.retry_penalty_us += backoff;
        flight.record(
            "retry",
            job.first_device,
            Some(job.batch.span),
            now_us,
            format!("attempt={} backoff_us={backoff:.1}", job.attempts),
        );
        self.jobs.push(job);
    }

    /// Last rung of the ladder: serve every query of `job` on the CPU
    /// reference path from `now_us` (when enabled and the shape
    /// allows), its `fallback` events saying why (`cause`), otherwise
    /// terminate it with the job's last device error or
    /// [`TopKError::PoolExhausted`].
    fn degrade(
        &mut self,
        job: Job,
        now_us: f64,
        cause: &str,
        config: &EngineConfig,
        flight: &mut FlightRecorder,
    ) {
        let device = job.first_device.unwrap_or(0);
        for q in &job.batch.queries {
            let cpu = if config.cpu_fallback {
                topk_cpu::heap_topk(&q.data, q.k)
            } else {
                Err(job.last_error.clone().unwrap_or(TopKError::PoolExhausted {
                    attempts: job.attempts,
                }))
            };
            let (latency_us, answer) = match cpu {
                Err(err) => (now_us, Err(err)),
                Ok((values, indices)) => {
                    let end = now_us + cpu_select_us(q.data.len());
                    match q.deadline_us {
                        Some(dl) if end > dl as f64 => {
                            (end, Err(TopKError::DeadlineExceeded { deadline_us: dl }))
                        }
                        _ => {
                            let served = Served::CpuFallback {
                                retries: job.attempts,
                            };
                            // The CPU reference path is exact.
                            let out = QueryOutput {
                                values,
                                indices,
                                k: q.k,
                            };
                            (end, Ok((served, 1.0, out)))
                        }
                    }
                }
            };
            let (kind, detail) = match &answer {
                Err(TopKError::DeadlineExceeded { deadline_us }) => (
                    "deadline_miss",
                    format!("id={} deadline_us={deadline_us}", q.id),
                ),
                Err(e) => ("query_failed", format!("id={} kind={}", q.id, e.kind())),
                Ok(_) => (
                    "fallback",
                    format!("id={} cpu attempts={} {cause}", q.id, job.attempts),
                ),
            };
            flight.record(kind, Some(device), Some(q.span), latency_us, detail);
            let result = job.batch.result(q, device, (now_us, latency_us), answer);
            self.results.push(result);
        }
    }

    /// If a trigger-kind event landed at or after `step_seq`, snapshot
    /// the flight recorder — plus per-device state and the drift table
    /// and calibration of `selector`, the drain's live dispatcher —
    /// into a post-mortem JSON document.
    /// Bounded: once [`POST_MORTEM_CAP`] documents are retained,
    /// further triggers only count
    /// [`TopKEngine::post_mortems_dropped`].
    fn maybe_post_mortem(&self, engine: &mut TopKEngine, step_seq: u64, selector: &SelectK) {
        let Some((trigger, trigger_seq)) = engine
            .flight
            .trigger_since(step_seq)
            .map(|e| (e.kind, e.seq))
        else {
            return;
        };
        if engine.post_mortems.len() >= POST_MORTEM_CAP {
            engine.post_mortems_dropped += 1;
            return;
        }
        let devices: Vec<PmDevice> = (engine.gpus.iter().zip(&self.marks))
            .enumerate()
            .map(|(d, (gpu, m))| PmDevice {
                device: d,
                health: engine.health_label(d),
                elapsed_us: gpu.elapsed_us() - m.t0,
                batches: self.records[d].len(),
                faults: engine.health[d].total_faults,
                fault_events: gpu.fault_events()[m.faults..]
                    .iter()
                    .map(|f| format!("{}@{}", f.kind.label(), f.seq))
                    .collect(),
                sanitizer_occurrences: sanitizer_counts(gpu.as_ref())
                    .delta_since(&m.sanitizer)
                    .total(),
            })
            .collect();
        let clock_us = devices.iter().map(|d| d.elapsed_us).fold(0.0, f64::max);
        let calibration = selector
            .tuner()
            .map(|t| t.calibration_snapshot())
            .unwrap_or_default();
        let json = flight::render_post_mortem(
            trigger,
            trigger_seq,
            clock_us,
            &engine.flight,
            &devices,
            &drift_rows(selector),
            &calibration,
        );
        engine.post_mortems.push(json);
    }

    /// Close the drain: one report per device (everything past its
    /// mark), results in submission order, and the drain's tallies.
    fn into_report(self, engine: &TopKEngine) -> DrainReport {
        let devices: Vec<DeviceReport> = (self.records.into_iter().zip(&self.marks))
            .enumerate()
            .map(|(dev, (batches, m))| {
                let gpu = engine.gpus[dev].as_ref();
                let health = &engine.health[dev];
                DeviceReport {
                    device: dev,
                    batches,
                    elapsed_us: gpu.elapsed_us() - m.t0,
                    clock_start_us: m.t0,
                    mem_high_water: gpu.mem_high_water(),
                    mem_allocated_after: gpu.mem_allocated(),
                    kernel_reports: gpu.reports()[m.reports..].to_vec(),
                    failed: health.failed,
                    quarantined: health.quarantined_at(gpu.elapsed_us()),
                    fault_events: gpu.fault_events()[m.faults..].to_vec(),
                    sanitizer: sanitizer_counts(gpu).delta_since(&m.sanitizer),
                }
            })
            .collect();
        let mut results = self.results;
        results.sort_by_key(|r| r.id);
        let algo = topk_core::obs::counters()
            .snapshot()
            .delta_since(&self.algo_before);
        let quarantines = (engine.health.iter().zip(&self.marks))
            .map(|(h, m)| h.quarantines - m.quarantines)
            .sum();
        // Device stages summed over batches, queue-wait summed over
        // queries, retry backoff from the requeue path.
        let mut stages = StageBreakdown::default();
        let mut sanitizer = SanitizerCounts::default();
        let mut overdue = 0;
        for d in &devices {
            sanitizer.add(&d.sanitizer);
            for b in &d.batches {
                stages.transfer_us += b.stages.transfer_us;
                stages.kernel_us += b.stages.kernel_us;
                stages.merge_us += b.stages.merge_us;
                stages.other_us += b.stages.other_us;
                overdue += u64::from(b.overdue_us.is_some());
            }
        }
        stages.queue_wait_us = results
            .iter()
            .map(|r| r.queue_wait_us)
            .filter(|w| w.is_finite())
            .sum();
        stages.retry_penalty_us = self.retry_penalty_us;
        let mut report = DrainReport {
            results,
            devices,
            algo,
            retries: self.retries,
            failovers: 0,
            cpu_fallbacks: 0,
            approx_two_stage: 0,
            approx_bucketed: 0,
            deadline_misses: 0,
            quarantines,
            overdue,
            sanitizer,
            stages,
        };
        for r in &report.results {
            match r.served {
                Served::Failover { .. } => report.failovers += 1,
                Served::CpuFallback { .. } => report.cpu_fallbacks += 1,
                Served::Approx { rung, .. } => match rung {
                    ApproxRung::TwoStage => report.approx_two_stage += 1,
                    ApproxRung::Bucketed => report.approx_bucketed += 1,
                },
                Served::Gpu { .. } | Served::Failed => {}
            }
            if let Err(TopKError::DeadlineExceeded { .. }) = r.outcome {
                report.deadline_misses += 1;
            }
        }
        report
    }
}

/// An approximate rung the scheduler chose for one batch attempt.
#[derive(Debug, Clone, Copy)]
struct RungChoice {
    /// The approximate configuration to execute (always a
    /// [`TunedAlgo::TwoStage`] or [`TunedAlgo::Bucketed`]).
    algo: TunedAlgo,
    /// Analytic expected recall of that configuration — ≥ the batch's
    /// recall target by construction.
    est_recall: f64,
    /// What triggered the degradation: `"deadline_risk"` or
    /// `"capacity_loss"`.
    cause: &'static str,
}

impl RungChoice {
    fn rung(&self) -> ApproxRung {
        match self.algo {
            TunedAlgo::Bucketed { .. } => ApproxRung::Bucketed,
            _ => ApproxRung::TwoStage,
        }
    }
}

/// Decide which rung of the accuracy ladder a batch attempt runs on.
///
/// Exact (`None`) is the default. A batch is considered for the
/// approximate rungs only when its coalesced (strictest-member) recall
/// target is below 1.0 *and* the scheduler sees trouble ahead:
///
/// * **deadline risk** — the predicted exact-path cost (the tuner's
///   cached plan for this shape bucket, or the cheapest cold
///   prediction over the exact candidate set), scaled by
///   [`DEADLINE_SAFETY`], overruns the batch's earliest member
///   deadline from `start_us`; or
/// * **capacity loss** — at most half the pool is healthy
///   (non-failed, non-quarantined), so queue pressure concentrates on
///   the survivors.
///
/// The ladder is exact → two-stage → bucketed:
/// [`Tuner::approx_candidates`] offers two-stage first (higher
/// recall), and the decision descends to bucketed only when the
/// two-stage prediction *still* overruns the deadline. Every offered
/// candidate already clears the recall target analytically, so the
/// choice can never violate it. Purely a function of simulated state —
/// same workload and fault seed, same rungs.
fn decide_rung(
    batch: &Batch,
    spec: &DeviceSpec,
    selector: &SelectK,
    start_us: f64,
    healthy: usize,
    pool: usize,
) -> Option<RungChoice> {
    if batch.recall_target >= 1.0 {
        return None;
    }
    let shape = batch.shape();
    let capacity_loss = healthy * 2 <= pool;
    let earliest_deadline = batch.queries.iter().filter_map(|q| q.deadline_us).min();
    let exact_us = predict_attempt_us(selector, spec, &shape, None);
    let misses = |predicted: Option<f64>| match (earliest_deadline, predicted) {
        (Some(dl), Some(us)) => start_us + us * DEADLINE_SAFETY > dl as f64,
        _ => false,
    };
    let deadline_risk = misses(exact_us);
    if !deadline_risk && !capacity_loss {
        return None;
    }
    let cause = if deadline_risk {
        "deadline_risk"
    } else {
        "capacity_loss"
    };
    let mut chosen = None;
    for algo in Tuner::approx_candidates(spec, &shape, batch.recall_target) {
        chosen = Some(algo);
        if !misses(predict_attempt_us(selector, spec, &shape, Some(algo))) {
            break;
        }
    }
    let algo = chosen?;
    let est_recall = match algo {
        TunedAlgo::Bucketed { per_bucket } => {
            BucketedTopK::new(per_bucket as usize).expected_recall(batch.k)
        }
        TunedAlgo::TwoStage {
            partitions,
            k_prime,
        } => TwoStageTopK::new(partitions as usize, k_prime as usize).expected_recall(batch.k),
        _ => 1.0,
    };
    Some(RungChoice {
        algo,
        est_recall,
        cause,
    })
}

/// The tuner's cost-model drift table in (bucket, configuration)
/// order; empty without a tuner.
fn drift_rows(selector: &SelectK) -> Vec<(PlanKey, TunedAlgo, DriftEntry)> {
    selector
        .tuner()
        .map(Tuner::drift_snapshot)
        .unwrap_or_default()
}

/// The tuner's calibrated prediction for one attempt, µs: the
/// approximate configuration `approx` when set, otherwise the exact
/// path — the tuner's cached plan for the shape's bucket, or the
/// cheapest cold prediction over the exact candidate set. `None`
/// without a tuner (or for a configuration the device cannot run).
fn predict_attempt_us(
    selector: &SelectK,
    spec: &DeviceSpec,
    shape: &ProblemShape,
    approx: Option<TunedAlgo>,
) -> Option<f64> {
    let t = selector.tuner()?;
    match approx {
        Some(algo) => t.predict_us(spec, shape, algo),
        None => t.peek(shape).map(|p| p.predicted_us).or_else(|| {
            Tuner::candidates(spec, shape)
                .into_iter()
                .filter_map(|a| t.predict_us(spec, shape, a))
                .min_by(f64::total_cmp)
        }),
    }
}

/// The predicted budget of one batch attempt, µs: the per-batch
/// transfer model (one H2D upload of every row, one host sync, the
/// packed D2H values/indices pair) plus [`predict_attempt_us`] for the
/// plan or rung it runs. Infinite without a prediction, so such an
/// attempt is never declared overdue and only the watchdog ends it.
fn attempt_budget_us(
    batch: &Batch,
    spec: &DeviceSpec,
    selector: &SelectK,
    approx: Option<TunedAlgo>,
) -> f64 {
    use std::mem::size_of;
    let rows = batch.queries.len();
    let transfer_us = memcpy_cost(spec, rows * batch.n * size_of::<f32>())
        + spec.host_sync_us
        + memcpy_cost(spec, rows * batch.k * size_of::<f32>())
        + memcpy_cost(spec, rows * batch.k * size_of::<u32>());
    let predicted = predict_attempt_us(selector, spec, &batch.shape(), approx);
    transfer_us + predicted.unwrap_or(f64::INFINITY)
}

/// One pool device as the scheduler sees it, drain-relative µs.
#[derive(Debug, Clone, Copy)]
struct DeviceSlot {
    /// Retired for good: never scheduled again.
    failed: bool,
    /// The device clock.
    clock_us: f64,
    /// End of its breaker quarantine (0 when none is running).
    quarantine_end_us: f64,
}

/// Where and when a job can start on the device pool, drain-relative
/// µs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pick {
    /// The device that can start the job soonest.
    dev: usize,
    /// When it can.
    start_us: f64,
    /// When the job could start if no breaker were open: the soonest
    /// any non-failed device is free and the job runnable. Below
    /// `start_us` only when a cooldown is what the job waits for.
    ready_us: f64,
}

/// The non-failed device that can start a job runnable from
/// `not_before_us` soonest, with that start time and the job's ready
/// time ([`Pick`]); the lowest index wins ties. A quarantined device
/// competes with its quarantine end: being scheduled after the cooldown
/// *is* the half-open re-probe. `None` when every device has failed.
fn pick_device(slots: impl IntoIterator<Item = DeviceSlot>, not_before_us: f64) -> Option<Pick> {
    let mut best: Option<Pick> = None;
    for (dev, slot) in slots.into_iter().enumerate() {
        if slot.failed {
            continue;
        }
        let ready_us = slot.clock_us.max(not_before_us);
        let start_us = ready_us.max(slot.quarantine_end_us);
        let ready_us = best.map_or(ready_us, |b| b.ready_us.min(ready_us));
        best = match best {
            Some(b) if b.start_us <= start_us => Some(Pick { ready_us, ..b }),
            _ => Some(Pick {
                dev,
                start_us,
                ready_us,
            }),
        };
    }
    best
}

/// Whether `batch`, picked to start on a device of `spec` at
/// `pick.start_us`, should instead run on the CPU rung from
/// `pick.ready_us`; `Some` carries the wait that avoids. Only when the
/// CPU rung is enabled and the job waits for a breaker cooldown
/// (`start_us > ready_us`) — a device that is merely busy never sends
/// work to the CPU. Then the two predicted finishes compete: the device
/// at `start_us` plus the attempt's exact budget
/// ([`attempt_budget_us`]), the CPU at `ready_us` plus one row's
/// [`cpu_select_us`] (rows run independently, as
/// [`DrainState::degrade`] serves them, and all have `batch.n`
/// elements). The CPU must finish strictly first.
fn cooldown_rung(
    batch: &Batch,
    spec: &DeviceSpec,
    selector: &SelectK,
    pick: Pick,
    cpu_fallback: bool,
) -> Option<f64> {
    if !cpu_fallback || pick.start_us <= pick.ready_us {
        return None;
    }
    let device_end = pick.start_us + attempt_budget_us(batch, spec, selector, None);
    let cpu_end = pick.ready_us + cpu_select_us(batch.n);
    (cpu_end < device_end).then_some(pick.start_us - pick.ready_us)
}

/// What one batch attempt returned: answers, a typed error, or a
/// captured panic.
type BatchOutcome = std::thread::Result<Result<Vec<QueryOutput>, TopKError>>;

/// How the host reads one finished attempt.
#[derive(Debug)]
enum Verdict {
    /// One answer per row of the batch.
    Answered(Vec<QueryOutput>),
    /// The queries' own fault (bad k, bad shape): it would fail
    /// identically on any device, so it is terminal and does not count
    /// against the device.
    QueryFault(TopKError),
    /// The device failed the attempt.
    DeviceFault(DeviceFault),
}

/// Why a device failed an attempt.
#[derive(Debug)]
enum DeviceFault {
    /// Still running at its overdue instant `at_us`: abandoned
    /// whatever it would have returned.
    Overdue { at_us: f64 },
    /// A typed device error.
    Error(TopKError),
    /// The worker panicked (injected driver crash or a real bug).
    Panic,
}

impl DeviceFault {
    /// Severe faults retire the device outright: a hang, a panic or an
    /// overdue attempt.
    fn severe(&self) -> bool {
        match self {
            DeviceFault::Error(e) => matches!(e, TopKError::Sim(SimError::DeviceHang { .. })),
            DeviceFault::Overdue { .. } | DeviceFault::Panic => true,
        }
    }
}

/// Classify a finished attempt. Timing decides first: an attempt the
/// host abandoned at its overdue instant (`overdue_us`, see
/// [`BatchRecord::overdue_us`]) is a device fault whatever it returned,
/// an answer included.
fn settle(overdue_us: Option<f64>, outcome: BatchOutcome) -> Verdict {
    match (overdue_us, outcome) {
        (Some(at_us), _) => Verdict::DeviceFault(DeviceFault::Overdue { at_us }),
        (None, Ok(Ok(outs))) => Verdict::Answered(outs),
        (None, Ok(Err(e))) if !e.is_device_fault() => Verdict::QueryFault(e),
        (None, Ok(Err(e))) => Verdict::DeviceFault(DeviceFault::Error(e)),
        (None, Err(_panic)) => Verdict::DeviceFault(DeviceFault::Panic),
    }
}

/// What a device fault did to the device's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trip {
    /// `threshold` consecutive faults opened the breaker.
    Quarantined,
    /// A severe fault took the device out of the pool for good.
    Retired,
}

impl HealthState {
    /// Fold one attempt's verdict into the breaker at absolute device
    /// clock `clock_us`. An answer closes it and a query's own fault
    /// leaves it alone. A device fault counts against the device: a
    /// severe one retires it, otherwise `threshold` consecutive faults
    /// quarantine it until `cooldown_us` past `clock_us`.
    fn settle(
        &mut self,
        verdict: &Verdict,
        breaker: &BreakerConfig,
        clock_us: f64,
    ) -> Option<Trip> {
        let fault = match verdict {
            Verdict::Answered(_) => {
                self.consecutive_faults = 0;
                return None;
            }
            Verdict::QueryFault(_) => return None,
            Verdict::DeviceFault(fault) => fault,
        };
        self.total_faults += 1;
        self.consecutive_faults += 1;
        if fault.severe() {
            self.failed = true;
            Some(Trip::Retired)
        } else if self.consecutive_faults >= breaker.threshold {
            self.quarantined_until_us = clock_us + breaker.cooldown_us;
            self.quarantines += 1;
            Some(Trip::Quarantined)
        } else {
            None
        }
    }

    /// Whether a breaker quarantine is still running at absolute device
    /// clock `clock_us`.
    fn quarantined_at(&self, clock_us: f64) -> bool {
        self.quarantined_until_us > clock_us
    }

    /// `"failed"`, `"quarantined"` or `"ok"` at absolute device clock
    /// `clock_us`.
    fn label(&self, clock_us: f64) -> &'static str {
        if self.failed {
            "failed"
        } else if self.quarantined_at(clock_us) {
            "quarantined"
        } else {
            "ok"
        }
    }
}

impl RetryPolicy {
    /// Simulated backoff before retrying a job after its `attempts`-th
    /// attempt, µs — `backoff_us × backoff_multiplier^(attempts − 1)`,
    /// never negative — or `None` once the retry budget is spent.
    fn backoff_after(&self, attempts: u32) -> Option<f64> {
        (attempts <= self.max_retries).then(|| {
            let growth = self
                .backoff_multiplier
                .powi(attempts.saturating_sub(1) as i32);
            (self.backoff_us * growth).max(0.0)
        })
    }
}

/// Split `queries` into those whose deadline falls before
/// `not_before_us` — hopeless, since their retry cannot start earlier —
/// and the rest, each in order.
fn split_expired(queries: Vec<Pending>, not_before_us: f64) -> (Vec<Pending>, Vec<Pending>) {
    queries
        .into_iter()
        .partition(|q| q.deadline_us.is_some_and(|dl| (dl as f64) < not_before_us))
}

impl Batch {
    /// The terminal result of member `q`, run on `device` after
    /// waiting `queue_wait_us` and settled at `latency_us`: an answer
    /// with the rung that served it and its estimated recall, or an
    /// error (served [`Served::Failed`], recall 0).
    fn result(
        &self,
        q: &Pending,
        device: usize,
        (queue_wait_us, latency_us): (f64, f64),
        answer: Result<(Served, f64, QueryOutput), TopKError>,
    ) -> QueryResult {
        let (served, est_recall, outcome) = match answer {
            Ok((served, est_recall, out)) => (served, est_recall, Ok(out)),
            Err(e) => (Served::Failed, 0.0, Err(e)),
        };
        QueryResult {
            id: q.id,
            span: q.span,
            batch_span: self.span,
            device,
            batch_size: self.queries.len(),
            queue_wait_us,
            latency_us,
            served,
            est_recall,
            outcome,
        }
    }
}

/// Simulated host cost of the CPU reference selection, µs: a fixed
/// dispatch overhead plus a linear scan term. Deliberately far slower
/// per element than a healthy device — degradation trades latency for
/// a terminal answer.
fn cpu_select_us(n: usize) -> f64 {
    20.0 + n as f64 * 0.002
}

/// The sanitizer occurrences `gpu` has flagged so far (zero when it
/// keeps no sanitizer).
fn sanitizer_counts(gpu: &dyn Backend) -> SanitizerCounts {
    gpu.sanitizer_report()
        .map_or_else(SanitizerCounts::default, |r| r.counts)
}

/// Attribute one batch's device time to stages from the device
/// [`Timeline`](gpu_sim::Timeline) events the batch appended
/// (`timeline_lo..`): copies are transfer, kernels whose name contains
/// "merge" are merge, other kernels are kernel, everything else is
/// other. Every backend keeps a timeline (a wrapper forwards its
/// device's); one without would attribute no device time.
fn batch_stages(gpu: &dyn Backend, timeline_lo: usize, queue_wait_us: f64) -> StageBreakdown {
    let mut s = StageBreakdown {
        queue_wait_us,
        ..StageBreakdown::default()
    };
    let events = gpu
        .timeline()
        .map_or(&[][..], |tl| &tl.events()[timeline_lo..]);
    for e in events {
        match &e.kind {
            EventKind::Kernel(name) if name.contains("merge") => s.merge_us += e.dur_us,
            EventKind::Kernel(_) => s.kernel_us += e.dur_us,
            EventKind::MemcpyHtoD | EventKind::MemcpyDtoH => s.transfer_us += e.dur_us,
            _ => s.other_us += e.dur_us,
        }
    }
    s
}

/// Group queries into same-`(N, K)` batches of at most `window`,
/// preserving submission order within and across batches.
fn coalesce(pending: Vec<Pending>, window: usize) -> Vec<Batch> {
    let window = window.max(1);
    let mut batches: Vec<Batch> = Vec::new();
    // Open (not yet full) batch per shape.
    let mut open: HashMap<(usize, usize), usize> = HashMap::new();
    for q in pending {
        let shape = (q.data.len(), q.k);
        match open.get(&shape) {
            Some(&bi) if batches[bi].queries.len() < window => {
                // The fused batch routes on its least-skewed member:
                // every row then has at least the claimed prefix.
                batches[bi].sketch.shared_prefix_bits = batches[bi]
                    .sketch
                    .shared_prefix_bits
                    .min(q.sketch.shared_prefix_bits);
                // …and degrades on its strictest member: the fused
                // launch may only approximate if every query agreed.
                batches[bi].recall_target = batches[bi].recall_target.max(q.recall_target);
                batches[bi].queries.push(q);
            }
            _ => {
                open.insert(shape, batches.len());
                batches.push(Batch {
                    n: shape.0,
                    k: shape.1,
                    span: q.span,
                    sketch: q.sketch,
                    recall_target: q.recall_target,
                    queries: vec![q],
                });
            }
        }
    }
    batches
}

/// Run one coalesced batch as one device matrix: upload its rows into
/// one contiguous allocation with one H2D copy, select through
/// [`SelectK::try_select_matrix`], and read the packed `rows × k`
/// outputs back under one host sync. Device-side inputs and outputs
/// are freed on every non-panicking path — including injected-fault
/// errors — so the next batch on this device sees honest
/// `mem_allocated`.
///
/// `approx` carries the scheduler's accuracy-ladder decision: `None`
/// routes through the exact adaptive dispatcher; a
/// [`TunedAlgo::TwoStage`] or [`TunedAlgo::Bucketed`] executes that
/// approximate configuration directly.
fn run_batch(
    gpu: &mut dyn Backend,
    selector: &SelectK,
    batch: &Batch,
    approx: Option<TunedAlgo>,
) -> Result<Vec<QueryOutput>, TopKError> {
    let mut ws = ScratchGuard::new();
    let mut passes = || -> Result<Vec<QueryOutput>, TopKError> {
        let rows: Vec<&[f32]> = batch.queries.iter().map(|q| q.data.as_slice()).collect();
        let input = DeviceMatrix::try_htod_rows(gpu, &format!("batch{}", batch.span), &rows)?;
        ws.adopt(input.buffer());
        let (values, indices) =
            selector.try_select_matrix(gpu, &input, batch.k, batch.sketch, approx)?;
        ws.adopt(values.buffer());
        ws.adopt(indices.buffer());
        let k = values.cols();
        let (values, indices) = gpu.try_dtoh_pair(values.buffer(), indices.buffer())?;
        Ok(values
            .chunks(k)
            .zip(indices.chunks(k))
            .map(|(v, i)| QueryOutput {
                values: v.to_vec(),
                indices: i.to_vec(),
                k,
            })
            .collect())
    };
    let outs = passes();
    ws.release(gpu);
    outs
}

#[cfg(test)]
mod tests;
