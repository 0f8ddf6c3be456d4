//! Tracing must be invisible to everything but the host clock.
//!
//! * [`TracedBackend`] forwards every `Backend` method, capability
//!   hooks included: driven through the same operations, a wrapped and
//!   a bare `Gpu` expose identical clocks, reports, timelines, contract
//!   verdicts, sanitizer reports and fault logs.
//! * A traced run of each workload reproduces the untraced run's chaos
//!   digests and every sim figure and count, bit for bit.

use gpu_topk::gpu_sim::{
    Backend, BackendExt, BlockPool, DeviceSpec, FaultKind, FaultPlan, Footprint, Gpu,
    KernelContract, LaunchConfig, SanitizerMode, ScriptedFault, SimError,
};
use perfbench::install_quiet_panic_hook;
use perfbench::select::{self, SelectConfig};
use perfbench::serve::{self, ServeConfig};
use perfbench::trace::{TracedBackend, Tracer, LAUNCH};

fn bare() -> Gpu {
    Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1))
}

/// Exercise every `Backend` method and render what each one exposes.
fn drive(dev: &mut dyn Backend) -> Vec<String> {
    let mut seen = Vec::new();
    dev.enable_sanitizer(SanitizerMode::full().with_leakcheck());
    dev.set_fault_injector(FaultPlan::seeded(7).injector_for(0));
    seen.push(format!(
        "name={} spec={}",
        dev.backend_name(),
        dev.spec().name
    ));
    seen.push(format!("contracts={}", dev.verifies_contracts()));
    seen.push(format!("mode={:?}", dev.sanitizer_mode()));

    let buf = dev.try_htod("xs", &[1u32, 2, 3, 4]).expect("upload");
    dev.set_span(42);
    seen.push(format!("span={}", dev.current_span()));
    let r = dev.try_launch("double", LaunchConfig::grid_1d(1, 32), |ctx| {
        for i in 0..4 {
            let v = ctx.ld(&buf, i);
            ctx.st(&buf, i, v * 2);
        }
    });
    seen.push(format!(
        "launch={:?}",
        r.map(|rep| (rep.span, rep.stats.total_mem_bytes()))
    ));
    dev.clear_span();
    // A contract reading past the buffer must be rejected before the
    // kernel runs — only if the contract reaches the device.
    let bad = KernelContract::new("overread").reads(&buf, Footprint::per_block(64));
    let r = dev.try_launch_checked(&bad, LaunchConfig::grid_1d(2, 32), |_| {});
    seen.push(format!(
        "contract={:?}",
        r.map(|rep| rep.name.clone()).err()
    ));
    seen.push(format!("dtoh={:?}", dev.dtoh(&buf)));
    dev.host_compute("host", 5.0);
    dev.host_sync();
    seen.push(format!(
        "clock={} reports={}",
        dev.elapsed_us(),
        dev.reports().len()
    ));
    seen.push(format!(
        "timeline={:?}",
        dev.timeline().map(|t| t.events().len())
    ));
    seen.push(format!(
        "mem={} hw={}",
        dev.mem_allocated(),
        dev.mem_high_water()
    ));
    // Drop a live buffer without freeing it: leakcheck must see it.
    drop(dev.try_alloc::<u32>("leak", 8).expect("alloc"));
    dev.run_leakcheck();
    seen.push(format!(
        "sanitizer={:?}",
        dev.sanitizer_report()
            .map(|r| (r.launches, r.findings.len()))
    ));
    dev.free(&buf);
    seen.push(format!(
        "faults={:?}",
        dev.fault_events()
            .iter()
            .map(|f| f.kind)
            .collect::<Vec<_>>()
    ));
    dev.reset_profile();
    seen.push(format!(
        "reset clock={} reports={}",
        dev.elapsed_us(),
        dev.reports().len()
    ));
    seen
}

#[test]
fn traced_backend_forwards_every_method() {
    let tracer = Tracer::new();
    let mut wrapped = TracedBackend::new(bare(), tracer.clone());
    let mut plain = bare();
    let want = drive(&mut plain);
    assert_eq!(drive(&mut wrapped), want);
    // The hooks actually did something, so a no-op default would show.
    let joined = want.join("\n");
    assert!(joined.contains("contracts=true"), "{joined}");
    assert!(joined.contains("ContractViolation"), "{joined}");
    assert!(joined.contains("span=42"), "{joined}");
    assert!(joined.contains("timeline=Some("), "{joined}");
    assert!(
        joined.contains("sanitizer=Some((1, 1))"),
        "leak found: {joined}"
    );
    let launches = tracer
        .spans_since(0)
        .iter()
        .filter(|s| s.name == LAUNCH)
        .count();
    assert_eq!(launches, 2, "both launch entry points are traced");
}

#[test]
fn traced_backend_forwards_fault_injection() {
    let plan = FaultPlan::seeded(3).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::LaunchFail,
        nth: 0,
    });
    let mut wrapped = TracedBackend::new(bare(), Tracer::new());
    wrapped.set_fault_injector(plan.injector_for(0));
    let r = wrapped.try_launch("k", LaunchConfig::grid_1d(1, 32), |_| {});
    assert!(
        matches!(r, Err(SimError::KernelLaunchFault { .. })),
        "{r:?}"
    );
    assert_eq!(wrapped.fault_events().len(), 1);
}

fn small_serve(chaos: bool) -> ServeConfig {
    ServeConfig {
        chaos,
        queries_per_wave: 16,
        pool_waves: 3,
        prefix_waves: 12,
        n_shift: 3,
    }
}

/// One test, so the process-wide algorithm counters and the panic hook
/// see one run at a time.
#[test]
fn traced_runs_reproduce_untraced_runs() {
    install_quiet_panic_hook();
    for chaos in [false, true] {
        let cfg = small_serve(chaos);
        let mut setup = serve::setup(&cfg, 11, None);
        let untraced = serve::run(&cfg, 11, &mut setup, 0.0, None);
        let tracer = Tracer::new();
        if !chaos {
            setup.engine = Some(serve::new_engine(&cfg, 11, 0, Some(&tracer)));
        }
        let traced = serve::run(&cfg, 11, &mut setup, 0.0, Some(&tracer));
        assert!(
            untraced.tally.wrong.is_empty(),
            "{:?}",
            untraced.tally.wrong
        );
        assert_eq!(untraced.sim.digests.lines().count(), cfg.prefix_waves);
        assert_eq!(traced.sim, untraced.sim, "chaos={chaos}");
        assert!(tracer.spans_since(0).iter().any(|s| s.name == LAUNCH));
        if chaos {
            assert!(untraced.sim.retries > 0, "chaos waves inject faults");
        }
    }

    let cfg = SelectConfig { n_shift: 8 };
    let mut setup = select::setup(&cfg, 5, None);
    let untraced = select::run(&mut setup, 0.0, None);
    let tracer = Tracer::new();
    let mut setup = select::setup(&cfg, 5, Some(&tracer));
    let traced = select::run(&mut setup, 0.0, Some(&tracer));
    assert!(
        untraced.tally.wrong.is_empty(),
        "{:?}",
        untraced.tally.wrong
    );
    assert_eq!(traced.prefix, untraced.prefix);
    assert_eq!(
        (traced.sim_bytes, traced.sim_kernels, traced.sim_pcie_us),
        (
            untraced.sim_bytes,
            untraced.sim_kernels,
            untraced.sim_pcie_us
        )
    );
}
