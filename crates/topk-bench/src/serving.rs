//! Serving-shaped benchmark: [`TopKEngine`] throughput versus the
//! batch-coalescing window.
//!
//! The paper's figures measure one algorithm on one device solving one
//! problem (or one pre-formed batch). A serving system sees the dual
//! problem: a stream of mixed-shape queries and a pool of devices, and
//! its throughput depends on how aggressively same-shape queries are
//! fused into the paper's batch-100-style launches (§5.1). This module
//! drains the same mixed workload through the engine at several
//! coalescing windows and reports simulated queries/sec.

use crate::report::Row;
use topk_core::{measured_recall, verify_topk};
use topk_engine::{DrainReport, EngineConfig, FaultPlan, TopKEngine};

/// Options for the engine throughput sweep.
#[derive(Debug, Clone)]
pub struct EngineBenchOpts {
    /// Queries in the drained workload.
    pub queries: usize,
    /// Devices in the pool.
    pub devices: usize,
    /// Coalescing windows to sweep.
    pub windows: Vec<usize>,
    /// Re-verify every query result against the host reference.
    pub verify: bool,
    /// Paper-scale problem sizes instead of the quick defaults.
    pub full: bool,
    /// Seed a chaos [`FaultPlan`] with this value (`--faults SEED`).
    pub fault_seed: Option<u64>,
    /// Per-operation fault probability for the chaos plan.
    pub fault_rate: f64,
    /// Per-query deadline applied to every submission, simulated µs.
    pub deadline_us: Option<u64>,
    /// Per-query recall target (`--recall-target T`): values below 1.0
    /// let the engine degrade exact → two-stage → bucketed under
    /// deadline risk or capacity loss. `None` keeps the exact-only
    /// default.
    pub recall_target: Option<f64>,
}

impl Default for EngineBenchOpts {
    fn default() -> Self {
        EngineBenchOpts {
            queries: 200,
            devices: 2,
            windows: vec![1, 8, 32],
            verify: false,
            full: false,
            fault_seed: None,
            fault_rate: 0.05,
            deadline_us: None,
            recall_target: None,
        }
    }
}

impl EngineBenchOpts {
    /// The chaos plan these options describe, if fault injection is on.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_seed
            .map(|seed| FaultPlan::chaos(seed, self.fault_rate))
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct EnginePoint {
    /// Coalescing window used.
    pub window: usize,
    /// Devices in the pool.
    pub devices: usize,
    /// Queries drained.
    pub queries: usize,
    /// Batches that fused ≥ 2 queries.
    pub fused_batches: usize,
    /// Simulated throughput, queries per second.
    pub qps: f64,
    /// Simulated makespan of the drain, µs.
    pub makespan_us: f64,
    /// Mean simulated per-query latency, µs.
    pub mean_latency_us: f64,
    /// Median simulated per-query latency, µs.
    pub p50_latency_us: f64,
    /// 99th-percentile simulated per-query latency, µs — the number a
    /// serving SLO is written against; coalescing trades it for
    /// throughput.
    pub p99_latency_us: f64,
    /// Same-device retry attempts during the drain.
    pub retries: u64,
    /// Batches re-landed on a different device after a fault.
    pub failovers: u64,
    /// Queries degraded to the host heap path.
    pub cpu_fallbacks: u64,
    /// Attempts abandoned at their overdue instant
    /// ([`DrainReport::overdue`]).
    pub overdue: u64,
    /// Queries that terminated with `DeadlineExceeded`.
    pub deadline_misses: u64,
    /// Dispatches served from the tuner's cached plan table.
    pub plan_hits: u64,
    /// Dispatches that re-planned (cold bucket or invalidated entry).
    pub plan_misses: u64,
    /// Cached plans replaced by observed-latency feedback.
    pub refinements: u64,
    /// Queries served by the two-stage approximate rung.
    pub approx_two_stage: u64,
    /// Queries served by the bucketed approximate rung.
    pub approx_bucketed: u64,
    /// Median estimated recall across terminal queries.
    pub p50_recall: f64,
    /// 99th-percentile estimated recall (worst 1% excluded).
    pub p99_recall: f64,
    /// Mean estimated recall across terminal queries.
    pub mean_est_recall: f64,
    /// Mean *measured* recall over successful queries, re-checked on
    /// the host — only computed under `--verify` (`None` otherwise).
    pub mean_measured_recall: Option<f64>,
    /// One message per query that failed its `--verify` check (empty
    /// when verification passed or was not requested).
    pub verify_failures: Vec<String>,
}

/// The mixed query stream every sweep point drains: four interleaved
/// `(N, K)` shapes, so each window size sees the same coalescing
/// opportunities.
pub fn mixed_workload(queries: usize, full: bool) -> Vec<(Vec<f32>, usize)> {
    let shapes: [(usize, usize); 4] = if full {
        [(1 << 18, 32), (1 << 17, 100), (1 << 18, 1), (1 << 15, 512)]
    } else {
        [(1 << 14, 32), (1 << 13, 100), (1 << 14, 1), (4096, 512)]
    };
    (0..queries)
        .map(|q| {
            let (n, k) = shapes[q % shapes.len()];
            let data = datagen::generate(datagen::Distribution::Uniform, n, q as u64);
            (data, k)
        })
        .collect()
}

/// Drain `workload` through a fresh engine at the given window,
/// returning the full report.
pub fn drain_workload(
    workload: &[(Vec<f32>, usize)],
    devices: usize,
    window: usize,
) -> DrainReport {
    drain_workload_with(workload, devices, window, None, None, None)
}

/// [`drain_workload`] with optional fault injection, a per-query
/// deadline, and a per-query recall target — the chaos-benchmark entry
/// point.
pub fn drain_workload_with(
    workload: &[(Vec<f32>, usize)],
    devices: usize,
    window: usize,
    faults: Option<FaultPlan>,
    deadline_us: Option<u64>,
    recall_target: Option<f64>,
) -> DrainReport {
    let mut cfg = EngineConfig::a100_pool(devices)
        .with_window(window)
        .with_queue_capacity(workload.len().max(1));
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    if let Some(d) = deadline_us {
        cfg = cfg.with_deadline_us(d);
    }
    if let Some(t) = recall_target {
        cfg = cfg.with_recall_target(t);
    }
    let mut engine = TopKEngine::new(cfg);
    for (data, k) in workload {
        engine
            .submit(data.clone(), *k)
            .expect("queue sized to the workload");
    }
    engine.drain()
}

/// Run the sweep: same workload, one drain per window.
pub fn engine_throughput(opts: &EngineBenchOpts) -> Vec<EnginePoint> {
    let workload = mixed_workload(opts.queries, opts.full);
    opts.windows
        .iter()
        .map(|&window| {
            let report = drain_workload_with(
                &workload,
                opts.devices,
                window,
                opts.fault_plan(),
                opts.deadline_us,
                opts.recall_target,
            );
            let mut measured: Vec<f64> = Vec::new();
            let mut verify_failures = Vec::new();
            if opts.verify {
                for (r, (data, k)) in report.results.iter().zip(&workload) {
                    // Under injected faults or deadlines, errors are
                    // expected terminal outcomes; verify the answers
                    // that did land.
                    let strict = opts.fault_seed.is_none() && opts.deadline_us.is_none();
                    let approx = r.served.label().starts_with("approx");
                    match &r.outcome {
                        // Approximate rungs do not promise the exact
                        // multiset; re-check them as measured recall
                        // against the host reference instead.
                        Ok(out) if approx => measured.push(measured_recall(data, *k, &out.values)),
                        Ok(out) => match verify_topk(data, *k, &out.values, &out.indices) {
                            Ok(()) => measured.push(1.0),
                            Err(e) => {
                                verify_failures.push(format!("window {window} q{}: {e}", r.id))
                            }
                        },
                        Err(e) if strict => {
                            verify_failures.push(format!("window {window} q{}: {e}", r.id))
                        }
                        Err(_) => {}
                    }
                }
            }
            EnginePoint {
                window,
                devices: opts.devices,
                queries: report.results.len(),
                fused_batches: report.fused_batches(),
                qps: report.queries_per_sec(),
                makespan_us: report.makespan_us(),
                mean_latency_us: report.mean_latency_us(),
                p50_latency_us: report.p50_latency_us(),
                p99_latency_us: report.p99_latency_us(),
                retries: report.retries,
                failovers: report.failovers,
                cpu_fallbacks: report.cpu_fallbacks,
                overdue: report.overdue,
                deadline_misses: report.deadline_misses,
                plan_hits: report.algo.tuner_plan_hits,
                plan_misses: report.algo.tuner_plan_misses,
                refinements: report.algo.tuner_refinements,
                approx_two_stage: report.approx_two_stage,
                approx_bucketed: report.approx_bucketed,
                p50_recall: report.p50_recall(),
                p99_recall: report.p99_recall(),
                mean_est_recall: report.mean_est_recall(),
                mean_measured_recall: if measured.is_empty() {
                    None
                } else {
                    Some(measured.iter().sum::<f64>() / measured.len() as f64)
                },
                verify_failures,
            }
        })
        .collect()
}

/// Text table of a sweep, for the CLI.
pub fn render(points: &[EnginePoint]) -> String {
    let mut out = String::from(
        "=== TopKEngine throughput vs coalescing window ===\n\
         window  devices  queries  fused  queries/sec  makespan_us  mean_lat_us  p50_lat_us  p99_lat_us  \
         retries  failovers  fallbacks  overdue  dl_miss  plan_hit  replan  refine  \
         2stage  bucket  rec_p50  rec_p99  rec_meas\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:>6}  {:>7}  {:>7}  {:>5}  {:>11.0}  {:>11.1}  {:>11.1}  {:>10.1}  {:>10.1}  \
             {:>7}  {:>9}  {:>9}  {:>7}  {:>7}  {:>8}  {:>6}  {:>6}  \
             {:>6}  {:>6}  {:>7.4}  {:>7.4}  {:>8}\n",
            p.window,
            p.devices,
            p.queries,
            p.fused_batches,
            p.qps,
            p.makespan_us,
            p.mean_latency_us,
            p.p50_latency_us,
            p.p99_latency_us,
            p.retries,
            p.failovers,
            p.cpu_fallbacks,
            p.overdue,
            p.deadline_misses,
            p.plan_hits,
            p.plan_misses,
            p.refinements,
            p.approx_two_stage,
            p.approx_bucketed,
            p.p50_recall,
            p.p99_recall,
            p.mean_measured_recall
                .map_or_else(|| "-".to_string(), |r| format!("{r:.4}")),
        ));
    }
    out
}

/// Check a sweep against a recall floor: every point's estimated and
/// (when `--verify` measured them) host-measured recall must clear
/// `target`. Returns one message per violation; the CLI exits non-zero
/// on any — the contract the CI `chaos-degrade` job enforces.
pub fn recall_floor_violations(points: &[EnginePoint], target: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for p in points {
        if p.mean_est_recall + 1e-9 < target {
            violations.push(format!(
                "window {}: mean estimated recall {:.4} below target {:.4}",
                p.window, p.mean_est_recall, target
            ));
        }
        // Measured recall is a statistical quantity (the analytic bound
        // holds in expectation over i.i.d. inputs), so the floor gets a
        // small tolerance.
        if let Some(m) = p.mean_measured_recall {
            if m + 0.05 < target {
                violations.push(format!(
                    "window {}: mean measured recall {:.4} below target {:.4}",
                    p.window, m, target
                ));
            }
        }
    }
    violations
}

/// Observability artifacts from one instrumented drain: the engine's
/// Prometheus metrics text and a Chrome trace of the drain.
#[derive(Debug, Clone)]
pub struct EngineArtifacts {
    /// Prometheus text exposition (latency histograms, AIR/GridSelect
    /// counters, per-kind error counters, device utilisation).
    pub metrics: String,
    /// Chrome Trace Event Format JSON (one kernel track and one query
    /// track per device).
    pub trace: String,
}

/// Drain the mixed workload through one instrumented engine and return
/// its metrics and trace. The widest sweep window is used (that is the
/// drain whose coalescing is most visible in the trace), and one
/// deliberately invalid query rides along so the per-kind error
/// counters show a real failure instead of all-zeros.
pub fn engine_observability(opts: &EngineBenchOpts) -> EngineArtifacts {
    let workload = mixed_workload(opts.queries, opts.full);
    let window = opts.windows.iter().copied().max().unwrap_or(8);
    let mut cfg = EngineConfig::a100_pool(opts.devices)
        .with_window(window)
        .with_queue_capacity(workload.len() + 1);
    if let Some(plan) = opts.fault_plan() {
        cfg = cfg.with_faults(plan);
    }
    if let Some(d) = opts.deadline_us {
        cfg = cfg.with_deadline_us(d);
    }
    if let Some(t) = opts.recall_target {
        cfg = cfg.with_recall_target(t);
    }
    let mut engine = TopKEngine::new(cfg);
    for (data, k) in &workload {
        engine
            .submit(data.clone(), *k)
            .expect("queue sized to the workload");
    }
    engine
        .submit(vec![1.0, 2.0], 0)
        .expect("queue sized to the workload");
    let report = engine.drain();
    EngineArtifacts {
        metrics: engine.render_prometheus(),
        trace: topk_engine::chrome_trace(&report),
    }
}

/// Deterministic summary of one drain at the widest sweep window, for
/// CI chaos-smoke diffing (`--digest-out`): two runs with the same
/// options — including the same `--faults` seed — must produce
/// byte-identical output.
pub fn chaos_digest(opts: &EngineBenchOpts) -> String {
    let workload = mixed_workload(opts.queries, opts.full);
    let window = opts.windows.iter().copied().max().unwrap_or(8);
    let report = drain_workload_with(
        &workload,
        opts.devices,
        window,
        opts.fault_plan(),
        opts.deadline_us,
        opts.recall_target,
    );
    report.chaos_digest()
}

/// The sweep as standard benchmark rows (`algo = TopKEngine`, `batch`
/// = coalescing window, `time_us` = makespan) for `engine.csv`.
pub fn to_rows(points: &[EnginePoint], full: bool) -> Vec<Row> {
    points
        .iter()
        .map(|p| Row {
            algo: "TopKEngine".into(),
            device: format!("A100x{}", p.devices),
            workload: if full {
                "serving-mixed-full".into()
            } else {
                "serving-mixed".into()
            },
            n: p.queries,
            k: 0,
            batch: p.window,
            time_us: p.makespan_us,
            mem_bytes: 0,
            kernels: 0,
            pcie_us: 0.0,
            idle_us: p.mean_latency_us,
            verified: p.verify_failures.is_empty(),
        })
        .collect()
}

/// The degradation-ladder counts of a sweep as CSV (`engine_ladder.csv`):
/// one line per window with the retry, failover, fallback, overdue,
/// deadline-miss and approximate-rung counts the generic
/// [`Row`] schema has no columns for.
pub fn ladder_csv(points: &[EnginePoint]) -> String {
    let mut out = String::from(
        "window,devices,queries,retries,failovers,cpu_fallbacks,overdue,deadline_misses,\
         approx_two_stage,approx_bucketed\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            p.window,
            p.devices,
            p.queries,
            p.retries,
            p.failovers,
            p.cpu_fallbacks,
            p.overdue,
            p.deadline_misses,
            p.approx_two_stage,
            p.approx_bucketed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_points_for_every_window() {
        let opts = EngineBenchOpts {
            queries: 24,
            devices: 2,
            windows: vec![1, 8, 32],
            verify: true,
            ..Default::default()
        };
        let points = engine_throughput(&opts);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.queries, 24);
            assert!(p.qps > 0.0);
        }
        // Window 1 never fuses; wider windows must.
        assert_eq!(points[0].fused_batches, 0);
        assert!(points[1].fused_batches > 0);
        // Coalescing should not hurt throughput on a same-shape-heavy
        // mix (it amortises launches and fills the grid).
        assert!(
            points[1].qps >= points[0].qps * 0.9,
            "window 8 ({:.0} qps) much slower than window 1 ({:.0} qps)",
            points[1].qps,
            points[0].qps
        );
        for p in &points {
            assert!(p.p50_latency_us > 0.0);
            assert!(p.p50_latency_us <= p.p99_latency_us);
        }
        let table = render(&points);
        assert!(table.contains("queries/sec"));
        assert!(table.contains("p99_lat_us"));
        assert!(table.contains("plan_hit"));
        assert!(table.contains("rec_p99"));
        // Exact-only defaults: no approximate rungs, unit recall.
        for p in &points {
            assert_eq!(p.approx_two_stage + p.approx_bucketed, 0);
            assert_eq!(p.mean_est_recall, 1.0);
            assert_eq!(p.mean_measured_recall, Some(1.0));
        }
        assert!(recall_floor_violations(&points, 0.95).is_empty());
        // The tuner consults its plan table on every dispatch.
        assert!(points.iter().all(|p| p.plan_hits + p.plan_misses > 0));
        let rows = to_rows(&points, false);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].batch, 1);
        assert!(rows.iter().all(|r| r.verified));
    }

    #[test]
    fn observability_artifacts_are_complete() {
        let opts = EngineBenchOpts {
            queries: 12,
            devices: 2,
            windows: vec![4],
            ..Default::default()
        };
        let art = engine_observability(&opts);
        assert!(art
            .metrics
            .contains("topk_engine_query_latency_us_bucket{le=\"1\"}"));
        assert!(art
            .metrics
            .contains("topk_engine_query_errors_total{kind=\"invalid_k\"} 1"));
        assert!(art.metrics.contains("topk_air_adaptive_skips_total"));
        assert!(art.trace.contains("device 0 kernels"));
        assert!(art.trace.contains("device 1 kernels"));
        assert!(art.trace.ends_with("]}\n") || art.trace.trim_end().ends_with('}'));
    }

    #[test]
    fn faulted_sweep_reports_resilience_counters_and_reproduces() {
        let opts = EngineBenchOpts {
            queries: 32,
            devices: 2,
            windows: vec![4],
            verify: true,
            fault_seed: Some(42),
            fault_rate: 0.10,
            ..Default::default()
        };
        let points = engine_throughput(&opts);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].queries, 32, "every query stays terminal");
        let table = render(&points);
        assert!(table.contains("retries"));
        assert!(table.contains("failovers"));
        assert!(table.contains("fallbacks"));
        assert!(table.contains("overdue"));
        let p = &points[0];
        let csv = ladder_csv(&points);
        assert!(csv.starts_with("window,devices,queries,retries,failovers,cpu_fallbacks,overdue,"));
        assert!(csv.ends_with(&format!(
            ",{},{},{},{},{},{},{}\n",
            p.retries,
            p.failovers,
            p.cpu_fallbacks,
            p.overdue,
            p.deadline_misses,
            p.approx_two_stage,
            p.approx_bucketed
        )));
        assert!(p.verify_failures.is_empty(), "{:?}", p.verify_failures);
        // The digest is a pure function of the options.
        assert_eq!(chaos_digest(&opts), chaos_digest(&opts));
    }

    #[test]
    fn recall_target_sweep_accounts_recall_and_reproduces() {
        // Severe chaos on a two-device pool with a sub-unit recall
        // target: the drain must stay terminal for every query, the
        // recall aggregates must respect the target, and the digest
        // (which now carries the recall counters) must reproduce.
        let opts = EngineBenchOpts {
            queries: 32,
            devices: 2,
            windows: vec![4],
            verify: true,
            fault_seed: Some(29),
            fault_rate: 0.10,
            recall_target: Some(0.9),
            ..Default::default()
        };
        let points = engine_throughput(&opts);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.queries, 32, "every query stays terminal");
        // Whatever mix of exact and approximate served, the estimated
        // recall the engine accounts must clear the target.
        assert!(recall_floor_violations(&points, 0.9).is_empty());
        let digest = chaos_digest(&opts);
        assert_eq!(digest, chaos_digest(&opts));
        assert!(digest.contains("recall_p50="), "{digest}");
        let table = render(&points);
        assert!(table.contains("2stage"));
        assert!(table.contains("bucket"));
    }
}
