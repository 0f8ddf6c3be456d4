//! Chaos acceptance gate for the resilient serving layer.
//!
//! The invariant this file defends: **under any seeded fault schedule,
//! every submitted query reaches exactly one terminal result** — an
//! answer (GPU, failover, or CPU fallback) or a typed error — with no
//! hangs, no aborted drains, no scratch leaked on surviving devices,
//! and bitwise-identical outcomes when the same seed is replayed.

use gpu_topk::gpu_sim::{
    conformance, AllocGrant, Backend, BlockCtx, BlockPool, FaultEvent, FaultInjector,
    KernelContract, KernelReport, SanitizerReport, ShadowToken, SimError, Timeline,
};
use gpu_topk::prelude::*;

/// A mixed-shape workload sized so every seed exercises coalescing,
/// retries, and multi-device scheduling.
fn submit_workload(engine: &mut TopKEngine, queries: usize) -> Vec<(Vec<f32>, usize)> {
    let shapes: [(usize, usize); 4] = [(1 << 13, 32), (1 << 12, 100), (1 << 13, 1), (2048, 256)];
    let mut expected = Vec::new();
    for q in 0..queries {
        let (n, k) = shapes[q % shapes.len()];
        let data = datagen::generate(Distribution::Uniform, n, q as u64);
        engine.submit(data.clone(), k).unwrap();
        expected.push((data, k));
    }
    expected
}

fn chaos_engine(seed: u64, rate: f64, devices: usize) -> TopKEngine {
    TopKEngine::new(
        EngineConfig::a100_pool(devices)
            .with_window(4)
            .with_queue_capacity(64)
            .with_faults(FaultPlan::chaos(seed, rate)),
    )
}

#[test]
fn every_query_is_terminal_under_a_seed_matrix() {
    for seed in [1u64, 7, 42, 1234, 0xDEAD_BEEF] {
        for rate in [0.01, 0.05, 0.15] {
            let mut engine = chaos_engine(seed, rate, 2);
            let expected = submit_workload(&mut engine, 40);
            let report = engine.drain();

            assert_eq!(
                report.results.len(),
                expected.len(),
                "seed {seed} rate {rate}: queries went missing"
            );
            for (r, (data, k)) in report.results.iter().zip(&expected) {
                match &r.outcome {
                    Ok(out) => {
                        // Whatever rung served it, the answer must be
                        // the true top-K.
                        verify_topk(data, *k, &out.values, &out.indices)
                            .unwrap_or_else(|e| panic!("seed {seed} rate {rate} q{}: {e}", r.id));
                        assert_ne!(r.served, Served::Failed);
                    }
                    Err(_) => assert_eq!(r.served, Served::Failed),
                }
            }
            // Surviving devices must not leak scratch, no matter which
            // retries and faults they absorbed. (Devices retired by an
            // injected panic are exempt: the panic unwound past their
            // scratch bookkeeping by design.)
            for d in report.devices.iter().filter(|d| !d.failed) {
                assert_eq!(
                    d.mem_allocated_after, 0,
                    "seed {seed} rate {rate}: device {} leaked scratch",
                    d.device
                );
            }
        }
    }
}

#[test]
fn same_seed_replays_bitwise_identically() {
    let run = |seed: u64| {
        let mut engine = chaos_engine(seed, 0.08, 3);
        submit_workload(&mut engine, 36);
        engine.drain().chaos_digest()
    };
    assert_eq!(run(42), run(42), "same seed must replay identically");
    assert_eq!(run(7), run(7));
    assert_ne!(
        run(42),
        run(9001),
        "different seeds should produce different fault schedules"
    );
}

#[test]
fn chaos_digest_is_bit_identical_with_contracts_on_vs_off() {
    // Contract verification (static checks before every launch plus
    // dynamic footprint conformance) must never touch KernelStats or
    // the cost model: the same seeded fault schedule has to replay to
    // the same digest whether the sanitizer enforces contracts or is
    // off entirely.
    let run = |contracts: bool| {
        let mut cfg = EngineConfig::a100_pool(3)
            .with_window(4)
            .with_queue_capacity(64)
            .with_faults(FaultPlan::chaos(42, 0.08));
        if contracts {
            cfg = cfg.with_sanitizer(SanitizerMode::full().with_contracts());
        }
        let mut engine = TopKEngine::new(cfg);
        submit_workload(&mut engine, 36);
        engine.drain().chaos_digest()
    };
    assert_eq!(
        run(false),
        run(true),
        "contract enforcement perturbed the chaos digest"
    );
}

#[test]
fn scripted_hang_retires_one_device_and_the_pool_survives() {
    let plan = FaultPlan::seeded(5).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::DeviceHang,
        nth: 2,
    });
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(2)
            .with_window(2)
            .with_queue_capacity(32)
            .with_faults(plan),
    );
    let expected = submit_workload(&mut engine, 16);
    let report = engine.drain();

    assert!(report.devices[0].failed, "hung device is retired");
    assert!(!report.devices[1].failed);
    assert_eq!(report.results.len(), expected.len());
    for (r, (data, k)) in report.results.iter().zip(&expected) {
        let out = r.outcome.as_ref().expect("survivor absorbs the pool");
        verify_topk(data, *k, &out.values, &out.indices).unwrap();
    }
}

#[test]
fn stragglers_with_stalled_transfers_are_late_but_never_overdue() {
    // The false-positive guard for overdue detection: every device is
    // a 4x straggler and every transfer stalls 8x, so every attempt
    // runs well past its predicted budget — but within
    // OVERDUE_FACTOR of it, so no healthy device is retired.
    let plan = FaultPlan {
        slow_device_rate: 1.0,
        transfer_stall_rate: 1.0,
        ..FaultPlan::seeded(13)
    };
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(2)
            .with_window(4)
            .with_queue_capacity(64)
            .with_faults(plan),
    );
    let expected = submit_workload(&mut engine, 48);
    let report = engine.drain();

    for d in &report.devices {
        assert!(d
            .fault_events
            .iter()
            .all(|f| f.kind == FaultKind::TransferStall));
        assert!(!d.failed, "device {} retired", d.device);
    }
    let ratios = report
        .devices
        .iter()
        .flat_map(|d| &d.batches)
        .map(|b| (b.end_us - b.start_us) / b.budget_us);
    let worst = ratios.fold(0.0, f64::max);
    assert!(worst > 2.0, "the stragglers must run late: worst {worst}");
    assert_eq!(
        report.overdue, 0,
        "worst attempt ran {worst:.2}x its budget"
    );
    for (r, (data, k)) in report.results.iter().zip(&expected) {
        assert_eq!(r.served, Served::Gpu { retries: 0 });
        let out = r.outcome.as_ref().unwrap();
        verify_topk(data, *k, &out.values, &out.indices).unwrap();
    }
}

#[test]
fn last_device_hang_degrades_to_verified_cpu_answers() {
    let plan = FaultPlan::seeded(3).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::DeviceHang,
        nth: 0,
    });
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(1)
            .with_queue_capacity(8)
            .with_faults(plan),
    );
    let expected = submit_workload(&mut engine, 4);
    let report = engine.drain();

    assert!(report.cpu_fallbacks >= 1);
    for (r, (data, k)) in report.results.iter().zip(&expected) {
        assert!(
            matches!(r.served, Served::CpuFallback { .. }),
            "q{} served={:?}",
            r.id,
            r.served
        );
        let out = r.outcome.as_ref().expect("CPU fallback still answers");
        verify_topk(data, *k, &out.values, &out.indices).unwrap();
    }
}

#[test]
fn impossible_deadline_is_a_typed_error_not_a_hang() {
    let mut engine = TopKEngine::new(EngineConfig::a100_pool(1).with_deadline_us(1));
    submit_workload(&mut engine, 4);
    let report = engine.drain();

    assert_eq!(report.deadline_misses, 4);
    for r in &report.results {
        assert_eq!(r.served, Served::Failed);
        assert!(
            matches!(r.outcome, Err(TopKError::DeadlineExceeded { .. })),
            "q{}: {:?}",
            r.id,
            r.outcome
        );
    }
}

/// A backend that forwards every method to the backend it wraps, the
/// way an instrumenting wrapper does. Generic, so every call goes
/// through the trait rather than a `Gpu` inherent method of the same
/// name. Nothing the engine or an algorithm can observe may tell it
/// apart from the `Gpu` it wraps.
struct Forwarding<B>(B);

impl<B: Backend> Backend for Forwarding<B> {
    fn backend_name(&self) -> &'static str {
        self.0.backend_name()
    }

    fn spec(&self) -> &DeviceSpec {
        self.0.spec()
    }

    fn elapsed_us(&self) -> f64 {
        self.0.elapsed_us()
    }

    fn host_compute(&mut self, what: &str, us: f64) {
        self.0.host_compute(what, us)
    }

    fn host_sync(&mut self) {
        self.0.host_sync()
    }

    fn reset_profile(&mut self) {
        self.0.reset_profile()
    }

    fn grant_alloc(
        &mut self,
        label: &str,
        len: usize,
        elem_bytes: usize,
    ) -> Result<AllocGrant, SimError> {
        self.0.grant_alloc(label, len, elem_bytes)
    }

    fn note_buffer(&mut self, label: &str, bytes: usize, token: Option<ShadowToken>) {
        self.0.note_buffer(label, bytes, token)
    }

    fn free_bytes(&mut self, bytes: usize) {
        self.0.free_bytes(bytes)
    }

    fn mem_allocated(&self) -> usize {
        self.0.mem_allocated()
    }

    fn mem_high_water(&self) -> usize {
        self.0.mem_high_water()
    }

    fn charge_htod(&mut self, label: &str, bytes: usize, fallible: bool) -> Result<(), SimError> {
        self.0.charge_htod(label, bytes, fallible)
    }

    fn charge_dtoh(
        &mut self,
        label: &str,
        bytes: usize,
        fallible: bool,
        token: Option<&ShadowToken>,
    ) -> Result<(), SimError> {
        self.0.charge_dtoh(label, bytes, fallible, token)
    }

    fn launch_dyn(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        kernel: &(dyn Fn(&mut BlockCtx) + Sync),
    ) -> Result<&KernelReport, SimError> {
        self.0.launch_dyn(name, cfg, kernel)
    }

    fn launch_contract_dyn(
        &mut self,
        contract: &KernelContract,
        cfg: LaunchConfig,
        kernel: &(dyn Fn(&mut BlockCtx) + Sync),
    ) -> Result<&KernelReport, SimError> {
        self.0.launch_contract_dyn(contract, cfg, kernel)
    }

    fn verifies_contracts(&self) -> bool {
        self.0.verifies_contracts()
    }

    fn set_span(&mut self, span: u64) {
        self.0.set_span(span)
    }

    fn clear_span(&mut self) {
        self.0.clear_span()
    }

    fn current_span(&self) -> u64 {
        self.0.current_span()
    }

    fn reports(&self) -> &[KernelReport] {
        self.0.reports()
    }

    fn timeline(&self) -> Option<&Timeline> {
        self.0.timeline()
    }

    fn enable_sanitizer(&mut self, mode: SanitizerMode) {
        self.0.enable_sanitizer(mode)
    }

    fn sanitizer_mode(&self) -> SanitizerMode {
        self.0.sanitizer_mode()
    }

    fn sanitizer_report(&self) -> Option<SanitizerReport> {
        self.0.sanitizer_report()
    }

    fn run_leakcheck(&mut self) {
        self.0.run_leakcheck()
    }

    fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.0.set_fault_injector(injector)
    }

    fn fault_events(&self) -> &[FaultEvent] {
        self.0.fault_events()
    }
}

#[test]
fn forwarding_backend_passes_conformance() {
    conformance::run_all(&mut Forwarding(Gpu::new(DeviceSpec::test_tiny())));
    conformance::run_all(&mut Forwarding(Gpu::new(DeviceSpec::a100())));
}

#[test]
fn injected_backends_replay_the_default_chaos_digest() {
    // The same seeded chaos drain through the default pool, through
    // factories that give every device its own block pool of 1, 2 or 4
    // host workers, and through a forwarding wrapper: host threading
    // and backend indirection must not move a single bit of the digest.
    // The workload is uniform data; tie-heavy inputs are not covered.
    let run = |cfg: EngineConfig| {
        let mut engine = TopKEngine::new(
            cfg.with_window(4)
                .with_queue_capacity(64)
                .with_faults(FaultPlan::chaos(42, 0.08)),
        );
        submit_workload(&mut engine, 36);
        engine.drain().chaos_digest()
    };
    let default = run(EngineConfig::a100_pool(3));
    for workers in [1, 2, 4] {
        let pooled = run(EngineConfig::a100_pool(3).with_backend_factory(
            move |spec: &DeviceSpec| {
                Box::new(Gpu::with_pool(spec.clone(), BlockPool::new(workers))) as Box<dyn Backend>
            },
        ));
        assert_eq!(pooled, default, "{workers} host workers moved the digest");
    }
    let wrapped = run(
        EngineConfig::a100_pool(3).with_backend_factory(|spec: &DeviceSpec| {
            Box::new(Forwarding(Gpu::new(spec.clone()))) as Box<dyn Backend>
        }),
    );
    assert_eq!(wrapped, default, "the forwarding wrapper moved the digest");
}
