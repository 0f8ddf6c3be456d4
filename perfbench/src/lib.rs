//! Two-clock end-to-end benchmark for the gpu-topk workspace.
//!
//! Three closed-loop workloads drive the library's public API —
//! [`serve`] (`serve-mixed`, `serve-chaos`: `TopKEngine::submit`/`drain`
//! over a two-device A100 pool) and [`select`] (`select-paper`: single
//! `TopKAlgorithm::try_select` calls at the paper's shapes). Every
//! metric is on one of two clocks: **sim** (simulated device µs from
//! the cost model; deterministic for a seed) or **host** (wall time
//! this process spends). A separate traced run wraps every device in a
//! [`trace::TracedBackend`] and reports per-layer self times. See
//! `README.md` in this directory for every metric and how to read the
//! traced table.

pub mod select;
pub mod serve;
pub mod stats;
pub mod trace;

use gpu_topk::gpu_sim::DeviceSpec;
use gpu_topk::prelude::SelectK;
use gpu_topk::topk_core::tuner::ProblemShape;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated device time from the cost model (deterministic).
    Sim,
    /// Host wall time of this process.
    Host,
    /// A count or ratio, on no clock.
    None,
}

impl Clock {
    /// Label printed next to the metric.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
            Clock::None => "-",
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Clock the value is read from.
    pub clock: Clock,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        clock,
    }
}

/// Attempted / succeeded / failed accounting plus every wrong answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Queries or selections attempted.
    pub attempted: u64,
    /// Attempts that produced an answer.
    pub succeeded: u64,
    /// Attempts refused or failed (queue rejections, deadline misses,
    /// errors). A failure is not a wrong answer.
    pub failed: u64,
    /// Answers that failed their check, one message each.
    pub wrong: Vec<String>,
}

impl Tally {
    /// Fold another tally in.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.wrong.extend(other.wrong.iter().cloned());
    }
}

/// Host worker threads of every simulated device's block pool
/// (`GPU_SIM_THREADS`). One, not the host's two cores: with two workers
/// the order blocks finish in picks which of several tied inputs a
/// selection returns, so answers — and the chaos digests that hash them
/// — differ run to run on tie-heavy inputs (`adversarial24`, `zipf11`).
/// One worker keeps every answer, sim figure and digest reproducible,
/// which the traced-run neutrality check relies on.
pub const SIM_THREADS: usize = 1;

static QUIET: AtomicBool = AtomicBool::new(false);
static QUIETED: AtomicU64 = AtomicU64::new(0);

/// Install a panic hook that stays silent inside `quietly` (injected
/// driver crashes, which the engine catches) and defers to the previous
/// hook everywhere else, so a genuine panic still prints.
pub fn install_quiet_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if QUIET.load(Ordering::SeqCst) {
            QUIETED.fetch_add(1, Ordering::SeqCst);
        } else {
            previous(info);
        }
    }));
}

/// Run `f` with panic output suppressed (see
/// [`install_quiet_panic_hook`]).
pub(crate) fn quietly<R>(f: impl FnOnce() -> R) -> R {
    QUIET.store(true, Ordering::SeqCst);
    let r = f();
    QUIET.store(false, Ordering::SeqCst);
    r
}

/// Panics silenced so far by the quiet hook.
pub(crate) fn quieted_panics() -> u64 {
    QUIETED.load(Ordering::SeqCst)
}

/// Host µs of one `SelectK::plan` call per shape, against a fresh
/// dispatcher (cold buckets plan, warm ones hit the table).
pub fn plan_us(shapes: &[ProblemShape]) -> Vec<f64> {
    let selector = SelectK::default();
    let spec = DeviceSpec::a100();
    shapes
        .iter()
        .map(|shape| {
            let t = Instant::now();
            std::hint::black_box(selector.plan(&spec, std::hint::black_box(shape)));
            t.elapsed().as_nanos() as f64 * 1e-3
        })
        .collect()
}

/// SplitMix64 finaliser: a stateless hash for deriving per-wave and
/// per-query seeds from the run seed.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
