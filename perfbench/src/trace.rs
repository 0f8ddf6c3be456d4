//! Host-span recorder and the forwarding [`Backend`] that feeds it.
//!
//! A traced run records one [`Span`] per call into a layer: the
//! benchmark opens spans around its own calls (`topk_engine.submit`,
//! `topk_engine.drain`, `algo.<name>.try_select`, `datagen.generate`,
//! `verify.check`, ...), and [`TracedBackend`] opens one around every
//! device-boundary call the library makes (`gpu_sim.launch`,
//! `gpu_sim.htod`, `gpu_sim.dtoh`, `gpu_sim.alloc`). Spans nest by call
//! order, so a span's *self time* is its duration minus the time its
//! direct children cover — e.g. `topk_engine.drain` self time is the
//! engine's own scheduling, coalescing, tuner and algorithm host code,
//! with every launch and transfer taken out.
//!
//! Tracing only reads the host clock; it never feeds anything back into
//! the simulated schedule, so a traced run produces the same answers,
//! simulated times and chaos digests as an untraced one (checked by the
//! benchmark on every traced run and by `tests/neutrality.rs`).

use gpu_topk::gpu_sim::{
    AllocGrant, Backend, BlockCtx, DeviceSpec, FaultEvent, FaultInjector, KernelContract,
    KernelReport, LaunchConfig, SanitizerMode, SanitizerReport, ShadowToken, SimError, Timeline,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names recorded by [`TracedBackend`].
pub const LAUNCH: &str = "gpu_sim.launch";
/// Host→device transfer charge (the copy into the buffer happens in the
/// caller, before the charge).
pub(crate) const HTOD: &str = "gpu_sim.htod";
/// Device→host readback charge.
pub(crate) const DTOH: &str = "gpu_sim.dtoh";
/// Device allocation grant.
pub(crate) const ALLOC: &str = "gpu_sim.alloc";

/// One closed host span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `topk_engine.drain`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Simulated device-memory bytes the launch metered
    /// ([`gpu_topk::gpu_sim::KernelStats::total_mem_bytes`]); 0 for
    /// other spans.
    pub sim_bytes: u64,
}

impl Span {
    /// Host duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// In-memory span recorder shared by the benchmark and every
/// [`TracedBackend`] it creates.
pub struct Tracer {
    epoch: Instant,
    log: Mutex<Log>,
}

impl Tracer {
    /// A fresh recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            log: Mutex::new(Log::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; it closes when the
    /// guard drops (also while unwinding from an injected driver crash).
    pub fn begin(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        let start_ns = self.now_ns();
        let mut log = self.log.lock().expect("tracer lock poisoned");
        let id = log.spans.len();
        let parent = log.open.last().copied();
        log.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            sim_bytes: 0,
        });
        log.open.push(id);
        SpanGuard {
            tracer: Arc::clone(self),
            id,
            sim_bytes: 0,
        }
    }

    /// Number of spans recorded so far: a cursor for
    /// [`Tracer::spans_since`].
    pub fn cursor(&self) -> usize {
        self.log.lock().expect("tracer lock poisoned").spans.len()
    }

    /// Every span recorded from cursor `from` on.
    pub fn spans_since(&self, from: usize) -> Vec<Span> {
        self.log.lock().expect("tracer lock poisoned").spans[from..].to_vec()
    }

    fn end(&self, id: usize, sim_bytes: u64) {
        let end_ns = self.now_ns();
        // Never panic in a guard's drop: a poisoned log only loses spans.
        if let Ok(mut log) = self.log.lock() {
            let span = &mut log.spans[id];
            span.end_ns = end_ns;
            span.sim_bytes = sim_bytes;
            if let Some(pos) = log.open.iter().rposition(|&o| o == id) {
                log.open.truncate(pos);
            }
        }
    }
}

/// Closes its span on drop.
pub struct SpanGuard {
    tracer: Arc<Tracer>,
    id: usize,
    sim_bytes: u64,
}

impl SpanGuard {
    /// Attach the simulated bytes the covered launch metered.
    pub fn set_sim_bytes(&mut self, bytes: u64) {
        self.sim_bytes = bytes;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.tracer.end(self.id, self.sim_bytes);
    }
}

/// Open `name` on `tracer` when tracing is on; a no-op otherwise.
pub fn span(tracer: Option<&Arc<Tracer>>, name: &'static str) -> Option<SpanGuard> {
    tracer.map(|t| t.begin(name))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
    /// Summed [`Span::sim_bytes`].
    pub sim_bytes: u64,
}

/// Fold spans into per-name rows. `spans` must be a contiguous slice of
/// one tracer's log starting at `offset` (parents outside it are
/// ignored).
pub fn layer_table(spans: &[Span], offset: usize) -> BTreeMap<&'static str, LayerRow> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(offset)) {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += s.dur_ns().saturating_sub(children);
        row.sim_bytes += s.sim_bytes;
    }
    rows
}

/// A [`Backend`] that forwards every method to `inner` and records a
/// host span around each launch, transfer and allocation.
///
/// Every capability hook is forwarded, not left at the trait default:
/// a wrapper that dropped `launch_contract_dyn`, `timeline` or the
/// fault/sanitizer hooks would silently switch off contract
/// verification, timeline-based stage attribution or fault injection.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B: Backend> TracedBackend<B> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        TracedBackend { inner, tracer }
    }
}

fn metered(r: &Result<&KernelReport, SimError>) -> u64 {
    r.as_ref().map_or(0, |rep| rep.stats.total_mem_bytes())
}

impl<B: Backend> Backend for TracedBackend<B> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn spec(&self) -> &DeviceSpec {
        self.inner.spec()
    }

    fn elapsed_us(&self) -> f64 {
        self.inner.elapsed_us()
    }

    fn host_compute(&mut self, what: &str, us: f64) {
        self.inner.host_compute(what, us)
    }

    fn host_sync(&mut self) {
        self.inner.host_sync()
    }

    fn reset_profile(&mut self) {
        self.inner.reset_profile()
    }

    fn grant_alloc(
        &mut self,
        label: &str,
        len: usize,
        elem_bytes: usize,
    ) -> Result<AllocGrant, SimError> {
        let _span = self.tracer.begin(ALLOC);
        self.inner.grant_alloc(label, len, elem_bytes)
    }

    fn note_buffer(&mut self, label: &str, bytes: usize, token: Option<ShadowToken>) {
        self.inner.note_buffer(label, bytes, token)
    }

    fn free_bytes(&mut self, bytes: usize) {
        self.inner.free_bytes(bytes)
    }

    fn mem_allocated(&self) -> usize {
        self.inner.mem_allocated()
    }

    fn mem_high_water(&self) -> usize {
        self.inner.mem_high_water()
    }

    fn charge_htod(&mut self, label: &str, bytes: usize, fallible: bool) -> Result<(), SimError> {
        let _span = self.tracer.begin(HTOD);
        self.inner.charge_htod(label, bytes, fallible)
    }

    fn charge_dtoh(
        &mut self,
        label: &str,
        bytes: usize,
        fallible: bool,
        token: Option<&ShadowToken>,
    ) -> Result<(), SimError> {
        let _span = self.tracer.begin(DTOH);
        self.inner.charge_dtoh(label, bytes, fallible, token)
    }

    fn launch_dyn(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        kernel: &(dyn Fn(&mut BlockCtx) + Sync),
    ) -> Result<&KernelReport, SimError> {
        let mut span = self.tracer.begin(LAUNCH);
        let r = self.inner.launch_dyn(name, cfg, kernel);
        span.set_sim_bytes(metered(&r));
        r
    }

    fn launch_contract_dyn(
        &mut self,
        contract: &KernelContract,
        cfg: LaunchConfig,
        kernel: &(dyn Fn(&mut BlockCtx) + Sync),
    ) -> Result<&KernelReport, SimError> {
        let mut span = self.tracer.begin(LAUNCH);
        let r = self.inner.launch_contract_dyn(contract, cfg, kernel);
        span.set_sim_bytes(metered(&r));
        r
    }

    fn verifies_contracts(&self) -> bool {
        self.inner.verifies_contracts()
    }

    fn set_span(&mut self, span: u64) {
        self.inner.set_span(span)
    }

    fn clear_span(&mut self) {
        self.inner.clear_span()
    }

    fn current_span(&self) -> u64 {
        self.inner.current_span()
    }

    fn reports(&self) -> &[KernelReport] {
        self.inner.reports()
    }

    fn timeline(&self) -> Option<&Timeline> {
        self.inner.timeline()
    }

    fn enable_sanitizer(&mut self, mode: SanitizerMode) {
        self.inner.enable_sanitizer(mode)
    }

    fn sanitizer_mode(&self) -> SanitizerMode {
        self.inner.sanitizer_mode()
    }

    fn sanitizer_report(&self) -> Option<SanitizerReport> {
        self.inner.sanitizer_report()
    }

    fn run_leakcheck(&mut self) {
        self.inner.run_leakcheck()
    }

    fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.inner.set_fault_injector(injector)
    }

    fn fault_events(&self) -> &[FaultEvent] {
        self.inner.fault_events()
    }
}
