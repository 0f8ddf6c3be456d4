//! `serve-mixed` and `serve-chaos`: closed-loop waves through
//! [`TopKEngine::submit`] / [`TopKEngine::drain`].
//!
//! One client submits a wave of mixed-shape queries, drains, checks
//! every answer, and repeats. Inputs are generated during set-up; each
//! wave's inputs are copied from that pool *between* waves and moved
//! into `submit`, so no client-side copy runs while the clock does.
//!
//! The first [`ServeConfig::prefix_waves`] waves are a fixed amount of
//! work: every sim metric and every count comes from them, so they are
//! bit-identical across runs of one seed. Waves after the prefix only
//! add host-clock samples, until `--seconds` have passed.

use crate::stats::{geomean, mean, median, percentile, ratio};
use crate::trace::{self, layer_table, span, TracedBackend, Tracer};
use crate::{metric, mix, quieted_panics, quietly, Clock, Metric, Tally, SIM_THREADS};
use gpu_topk::gpu_sim::{BlockPool, DeviceSpec, Gpu};
use gpu_topk::prelude::{
    measured_recall, verify_topk, Distribution, EngineConfig, FaultPlan, Served, TopKEngine,
};
use gpu_topk::topk_core::tuner::{DistSketch, ProblemShape};
use gpu_topk::topk_engine::DrainReport;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One query shape of the mix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// Problem length.
    n: usize,
    /// Smallest-K asked for.
    k: usize,
    /// Input distribution.
    dist: Distribution,
}

/// The mix every serve wave draws from: N 4K–128K, K 1–2048, four
/// distributions. The tuner routes it to AIR, GridSelect, RadiK and
/// RowWise.
pub(crate) const SHAPES: [Shape; 6] = [
    Shape {
        n: 4096,
        k: 128,
        dist: Distribution::Uniform,
    },
    Shape {
        n: 16384,
        k: 1,
        dist: Distribution::Normal,
    },
    Shape {
        n: 32768,
        k: 2048,
        dist: Distribution::Uniform,
    },
    Shape {
        n: 65536,
        k: 64,
        dist: Distribution::RadixAdversarial { m_bits: 24 },
    },
    Shape {
        n: 131072,
        k: 16,
        dist: Distribution::Zipf {
            exponent_tenths: 11,
        },
    },
    Shape {
        n: 8192,
        k: 512,
        dist: Distribution::Normal,
    },
];

/// Devices in the pool.
pub(crate) const DEVICES: usize = 2;
/// Coalescing window (queries per fused launch set).
pub(crate) const WINDOW: usize = 8;
/// `serve-chaos`: base rate of [`FaultPlan::chaos`].
pub(crate) const FAULT_RATE: f64 = 0.02;
/// `serve-chaos`: per-launch hang probability, 3x the chaos default.
/// A hang costs its queries the 50 ms watchdog; at the default rate
/// about 1% of queries hit one, so the p99 latency flipped between the
/// hang cluster and the body from seed to seed. At this rate 4–6% do,
/// and p99 sits inside the cluster.
pub(crate) const HANG_RATE: f64 = 0.012;
/// `serve-chaos`: per-query recall target.
pub(crate) const RECALL_TARGET: f64 = 0.95;
/// `serve-chaos`: per-query deadline, simulated µs after drain start.
pub(crate) const DEADLINE_US: u64 = 150_000;

/// Parameters of a serve workload.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Faults, recall target and deadline on, one engine per wave.
    pub chaos: bool,
    /// Queries submitted per wave.
    pub queries_per_wave: usize,
    /// Distinct waves generated at set-up (the loop cycles over them).
    pub pool_waves: usize,
    /// Waves every run completes; sim metrics and counts come from
    /// these only.
    pub prefix_waves: usize,
    /// Right shift applied to every shape's N (0 = full size; tests
    /// shrink the mix with it).
    pub n_shift: u32,
}

impl ServeConfig {
    /// `serve-mixed`: one persistent engine, no faults, exact answers.
    pub fn mixed() -> Self {
        ServeConfig {
            chaos: false,
            queries_per_wave: 48,
            pool_waves: 12,
            prefix_waves: 48,
            n_shift: 0,
        }
    }

    /// `serve-chaos`: the same mix under chaos faults, a fresh engine
    /// (and fault seed) per wave so every wave starts from a healthy
    /// pool and stays stationary.
    pub fn chaos() -> Self {
        ServeConfig {
            chaos: true,
            // Waves are independent draws of the fault process (one
            // device in five is a 4x straggler, hangs cost 50 ms); a
            // long prefix keeps the throughput and tail figures from
            // hinging on a handful of them.
            prefix_waves: 384,
            ..ServeConfig::mixed()
        }
    }
}

/// One pre-generated query.
pub(crate) struct Query {
    /// Input values.
    data: Vec<f32>,
    /// Smallest-K asked for.
    k: usize,
}

/// Set-up product: the wave pool and the engine the run starts with.
pub struct ServeSetup {
    /// `pool_waves` waves of `queries_per_wave` queries.
    waves: Vec<Vec<Query>>,
    /// Host ns spent in `datagen::generate`.
    pub gen_ns: u64,
    /// The persistent engine (`serve-mixed`); `serve-chaos` builds one
    /// per wave instead.
    pub engine: Option<TopKEngine>,
}

/// Generate the wave pool from `seed` and build the engine.
pub fn setup(cfg: &ServeConfig, seed: u64, tracer: Option<&Arc<Tracer>>) -> ServeSetup {
    let mut gen_ns = 0u64;
    let waves = (0..cfg.pool_waves)
        .map(|w| {
            (0..cfg.queries_per_wave)
                .map(|q| {
                    let slot = (w * cfg.queries_per_wave + q) as u64;
                    let shape = SHAPES[(mix(seed, slot) % SHAPES.len() as u64) as usize];
                    let n = (shape.n >> cfg.n_shift).max(shape.k * 2);
                    let t = Instant::now();
                    let _span = span(tracer, "datagen.generate");
                    let data = gpu_topk::datagen::generate(shape.dist, n, mix(seed ^ 0xDA7A, slot));
                    gen_ns += t.elapsed().as_nanos() as u64;
                    Query { data, k: shape.k }
                })
                .collect()
        })
        .collect();
    let engine = (!cfg.chaos).then(|| new_engine(cfg, seed, 0, tracer));
    ServeSetup {
        waves,
        gen_ns,
        engine,
    }
}

/// An engine over the A100 pool. Devices come from a backend factory
/// with a pinned block-pool size; when tracing, each is wrapped in a
/// [`TracedBackend`].
pub fn new_engine(
    cfg: &ServeConfig,
    seed: u64,
    wave: u64,
    tracer: Option<&Arc<Tracer>>,
) -> TopKEngine {
    let tracer = tracer.cloned();
    let mut config = EngineConfig::a100_pool(DEVICES)
        .with_window(WINDOW)
        .with_queue_capacity(cfg.queries_per_wave)
        .with_backend_factory(move |spec: &DeviceSpec| {
            let gpu = Gpu::with_pool(spec.clone(), BlockPool::new(SIM_THREADS));
            match &tracer {
                Some(t) => Box::new(TracedBackend::new(gpu, Arc::clone(t))),
                None => Box::new(gpu),
            }
        });
    if cfg.chaos {
        config = config
            .with_faults(FaultPlan {
                hang_rate: HANG_RATE,
                ..FaultPlan::chaos(mix(seed ^ 0xFA17, wave), FAULT_RATE)
            })
            .with_recall_target(RECALL_TARGET)
            .with_deadline_us(DEADLINE_US);
    }
    TopKEngine::new(config)
}

/// Simulated figures and counts folded over the prefix waves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimAgg {
    /// Queries drained.
    pub queries: u64,
    /// Per-query simulated latency of every successful query, µs.
    pub latencies_us: Vec<f64>,
    /// Per-wave simulated throughput ([`DrainReport::queries_per_sec`]).
    pub wave_qps: Vec<f64>,
    /// Summed stage breakdown (queue wait, transfer, kernel, merge,
    /// retry penalty, other), µs.
    pub stages_us: [f64; 6],
    /// Batches executed and the queries they carried.
    pub batches: u64,
    /// Queries summed over batches.
    pub batched_queries: u64,
    /// Engine ladder counts.
    pub retries: u64,
    /// See [`DrainReport::failovers`].
    pub failovers: u64,
    /// See [`DrainReport::cpu_fallbacks`].
    pub cpu_fallbacks: u64,
    /// Two-stage plus bucketed answers.
    pub approx_served: u64,
    /// See [`DrainReport::deadline_misses`].
    pub deadline_misses: u64,
    /// Injected driver crashes the engine caught.
    pub caught_panics: u64,
    /// Flight-recorder post-mortems dumped.
    pub post_mortems: u64,
    /// Tuner plan-table hits and misses during the drains.
    pub plan_hits: u64,
    /// See `plan_hits`.
    pub plan_misses: u64,
    /// Kernel reports (successful launches).
    pub kernels: u64,
    /// Metered device-memory bytes over those launches.
    pub bytes: u64,
    /// Peak simulated device memory on any device, bytes.
    pub mem_high_water: u64,
    /// Measured recall summed over successful queries.
    pub recall_sum: f64,
    /// Successful launches per kernel name.
    pub kernel_names: std::collections::BTreeMap<String, u64>,
    /// One `digest` line per prefix wave ([`DrainReport::chaos_digest`]).
    pub digests: String,
}

impl SimAgg {
    fn fold(&mut self, report: &DrainReport, post_mortems: u64, caught_panics: u64) {
        self.queries += report.results.len() as u64;
        self.latencies_us.extend(
            report
                .results
                .iter()
                .filter(|r| r.outcome.is_ok())
                .map(|r| r.latency_us),
        );
        self.wave_qps.push(report.queries_per_sec());
        for (acc, (_, us)) in self.stages_us.iter_mut().zip(report.stages.rows()) {
            *acc += us;
        }
        for d in &report.devices {
            self.batches += d.batches.len() as u64;
            self.batched_queries += d.batches.iter().map(|b| b.size as u64).sum::<u64>();
            self.kernels += d.kernel_reports.len() as u64;
            for k in &d.kernel_reports {
                *self.kernel_names.entry(k.name.clone()).or_default() += 1;
            }
            self.bytes += d
                .kernel_reports
                .iter()
                .map(|k| k.stats.total_mem_bytes())
                .sum::<u64>();
            self.mem_high_water = self.mem_high_water.max(d.mem_high_water as u64);
        }
        self.retries += report.retries;
        self.failovers += report.failovers;
        self.cpu_fallbacks += report.cpu_fallbacks;
        self.approx_served += report.approx_two_stage + report.approx_bucketed;
        self.deadline_misses += report.deadline_misses;
        self.caught_panics += caught_panics;
        self.post_mortems += post_mortems;
        self.plan_hits += report.algo.tuner_plan_hits;
        self.plan_misses += report.algo.tuner_plan_misses;
        let digest = report.chaos_digest();
        self.digests
            .push_str(digest.lines().last().unwrap_or_default());
        self.digests.push('\n');
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct ServeRun {
    /// Answer accounting over every wave.
    pub tally: Tally,
    /// Prefix-wave sim figures and counts.
    pub sim: SimAgg,
    /// Waves run (prefix included).
    pub waves: u64,
    /// Elements submitted over every wave.
    pub elements: u64,
    /// Host ns per wave: submit + drain.
    pub wave_ns: Vec<f64>,
    /// Host ns per `drain` call.
    pub drain_ns: Vec<f64>,
    /// Host ns checking each wave's answers.
    pub verify_ns: Vec<f64>,
    /// Host ns of submit + drain over the prefix waves only.
    pub prefix_ns: f64,
    /// Tracer cursors bracketing the prefix waves (traced runs only).
    pub prefix_spans: (usize, usize),
}

/// Check one drained wave against its inputs. Exact answers must pass
/// `verify_topk`; approximate ones must be well-formed, promise at
/// least the recall target, and their measured recall is accumulated
/// (the analytic model bounds recall in expectation, so the run-level
/// mean is checked against the target).
fn check_wave(
    report: &DrainReport,
    accepted: &[&Query],
    tally: &mut Tally,
    approx: &mut Vec<f64>,
) -> f64 {
    let mut recall_sum = 0.0;
    // Results come back sorted by submission id, i.e. in the order the
    // accepted queries were submitted.
    for (r, q) in report.results.iter().zip(accepted) {
        let out = match &r.outcome {
            Ok(out) => out,
            Err(_) => {
                tally.failed += 1;
                continue;
            }
        };
        tally.succeeded += 1;
        if let Served::Approx { rung, .. } = r.served {
            if let Err(e) = check_well_formed(&q.data, q.k, &out.values, &out.indices) {
                tally
                    .wrong
                    .push(format!("query {} ({}): {e}", r.id, rung.label()));
            } else if r.est_recall + 1e-9 < RECALL_TARGET {
                tally.wrong.push(format!(
                    "query {}: est_recall {:.4} below target {RECALL_TARGET}",
                    r.id, r.est_recall
                ));
            }
            let rec = measured_recall(&q.data, q.k, &out.values);
            approx.push(rec);
            recall_sum += rec;
        } else if let Err(e) = verify_topk(&q.data, q.k, &out.values, &out.indices) {
            tally
                .wrong
                .push(format!("query {} ({}): {e}", r.id, r.served.label()));
        } else {
            recall_sum += 1.0;
        }
    }
    recall_sum
}

/// Structure of an approximate answer: K entries, distinct in-range
/// indices, each value equal to the input at its index.
fn check_well_formed(
    data: &[f32],
    k: usize,
    values: &[f32],
    indices: &[u32],
) -> Result<(), String> {
    if values.len() != k || indices.len() != k {
        return Err(format!("expected {k} entries, got {}", values.len()));
    }
    let mut seen = std::collections::HashSet::with_capacity(k);
    for (&v, &i) in values.iter().zip(indices) {
        match data.get(i as usize) {
            Some(x) if x.to_bits() == v.to_bits() && seen.insert(i) => {}
            _ => return Err(format!("bad index {i}")),
        }
    }
    Ok(())
}

/// Run waves until `seconds` have passed and the prefix is complete.
pub fn run(
    cfg: &ServeConfig,
    seed: u64,
    setup: &mut ServeSetup,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
) -> ServeRun {
    let mut out = ServeRun::default();
    let mut approx_recalls = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    out.prefix_spans.0 = tracer.map_or(0, |t| t.cursor());
    while (out.waves as usize) < cfg.prefix_waves || start.elapsed() < budget {
        let w = out.waves;
        let wave = &setup.waves[w as usize % setup.waves.len()];
        // Client-side copies happen here, before the clock starts.
        let inputs: Vec<Vec<f32>> = wave.iter().map(|q| q.data.clone()).collect();
        let mut fresh = cfg.chaos.then(|| new_engine(cfg, seed, w, tracer));
        let engine = match fresh.as_mut() {
            Some(e) => e,
            None => setup.engine.as_mut().expect("serve-mixed keeps one engine"),
        };
        out.elements += inputs.iter().map(|d| d.len() as u64).sum::<u64>();

        let mut accepted = Vec::with_capacity(wave.len());
        let panics_before = quieted_panics();
        let t0 = Instant::now();
        for (data, q) in inputs.into_iter().zip(wave) {
            let _span = span(tracer, "topk_engine.submit");
            if engine.submit(data, q.k).is_ok() {
                accepted.push(q);
            }
        }
        let t1 = Instant::now();
        let report = {
            let _span = span(tracer, "topk_engine.drain");
            quietly(|| engine.drain())
        };
        let t2 = Instant::now();
        let caught = quieted_panics() - panics_before;
        let post_mortems = engine.take_post_mortems().len() as u64;

        let v0 = Instant::now();
        let recall_sum = {
            let _span = span(tracer, "verify.check");
            check_wave(&report, &accepted, &mut out.tally, &mut approx_recalls)
        };
        out.tally.attempted += wave.len() as u64;
        out.tally.failed += (wave.len() - report.results.len()) as u64;
        out.verify_ns.push(v0.elapsed().as_nanos() as f64);
        out.wave_ns.push((t2 - t0).as_nanos() as f64);
        out.drain_ns.push((t2 - t1).as_nanos() as f64);
        if (w as usize) < cfg.prefix_waves {
            out.prefix_ns += (t2 - t0).as_nanos() as f64;
            out.sim.fold(&report, post_mortems, caught);
            out.sim.recall_sum += recall_sum;
            if w as usize + 1 == cfg.prefix_waves {
                out.prefix_spans.1 = tracer.map_or(0, |t| t.cursor());
            }
        }
        out.waves += 1;
    }
    let mean_approx = mean(&approx_recalls);
    if !approx_recalls.is_empty() && mean_approx + 1e-9 < RECALL_TARGET {
        out.tally.wrong.push(format!(
            "mean measured recall {mean_approx:.4} of {} approximate answers below target {RECALL_TARGET}",
            approx_recalls.len()
        ));
    }
    out
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &ServeRun) -> Vec<Metric> {
    let sim = &run.sim;
    let host_s = run.wave_ns.iter().sum::<f64>() * 1e-9;
    let verify_s = run.verify_ns.iter().sum::<f64>() * 1e-9;
    let drain_ms: Vec<f64> = run.drain_ns.iter().map(|ns| ns * 1e-6).collect();
    let succeeded = sim.latencies_us.len() as f64;
    vec![
        metric(
            "host_qps",
            ratio(run.tally.attempted as f64, host_s),
            "1/s",
            Clock::Host,
        ),
        metric("host_drain_ms_p50", median(&drain_ms), "ms", Clock::Host),
        metric(
            "host_drain_ms_p90",
            percentile(&drain_ms, 0.9),
            "ms",
            Clock::Host,
        ),
        metric("sim_qps", mean(&sim.wave_qps), "1/s", Clock::Sim),
        metric(
            "sim_latency_us_p50",
            median(&sim.latencies_us),
            "us",
            Clock::Sim,
        ),
        metric(
            "sim_latency_us_p99",
            percentile(&sim.latencies_us, 0.99),
            "us",
            Clock::Sim,
        ),
        metric(
            "recall_mean",
            ratio(sim.recall_sum, succeeded),
            "ratio",
            Clock::None,
        ),
        metric(
            "select_melem_per_s",
            ratio(run.elements as f64 * 1e-6, host_s),
            "Melem/s",
            Clock::Host,
        ),
        metric(
            "verified_melem_per_s",
            ratio(run.elements as f64 * 1e-6, host_s + verify_s),
            "Melem/s",
            Clock::Host,
        ),
        metric(
            "sim_us_geomean",
            geomean(&sim.latencies_us),
            "us",
            Clock::Sim,
        ),
    ]
}

/// The tuner shapes of the prefix's queries (each at the coalescing
/// window), for timing `SelectK::plan`.
pub fn plan_shapes(cfg: &ServeConfig, setup: &ServeSetup) -> Vec<ProblemShape> {
    (0..cfg.prefix_waves)
        .flat_map(|w| &setup.waves[w % setup.waves.len()])
        .map(|q| {
            ProblemShape::new(q.data.len(), q.k, WINDOW)
                .with_sketch(DistSketch::from_sample(&q.data))
        })
        .collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &ServeRun, tracer: &Tracer) -> Vec<Metric> {
    let sim = &run.sim;
    let spans = tracer.spans_since(run.prefix_spans.0);
    let rows = layer_table(&spans, run.prefix_spans.0);
    let prefix: Vec<_> = spans[..run.prefix_spans.1 - run.prefix_spans.0].to_vec();
    let prefix_rows = layer_table(&prefix, run.prefix_spans.0);
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let row = |name: &str| rows.get(name).cloned().unwrap_or_default();
    let per_wave_ms = |ns: u64| ns as f64 * 1e-6 / run.waves as f64;
    let launch = row(trace::LAUNCH);
    let q = sim.queries as f64;
    let stage_names = [
        "sim_queue_wait_us",
        "sim_transfer_us",
        "sim_kernel_us",
        "sim_merge_us",
        "sim_retry_penalty_us",
        "sim_other_us",
    ];
    let mut m = vec![
        metric(
            "topk_engine.submit_us_p50",
            median(&durs("topk_engine.submit")) * 1e-3,
            "us",
            Clock::Host,
        ),
        metric(
            "topk_engine.drain_self_ms",
            per_wave_ms(row("topk_engine.drain").self_ns),
            "ms",
            Clock::Host,
        ),
        metric(
            "topk_engine.queries_per_batch",
            ratio(sim.batched_queries as f64, sim.batches as f64),
            "count",
            Clock::None,
        ),
        metric(
            "topk_engine.retries",
            sim.retries as f64,
            "count",
            Clock::None,
        ),
        metric(
            "topk_engine.failovers",
            sim.failovers as f64,
            "count",
            Clock::None,
        ),
        metric(
            "topk_engine.cpu_fallbacks",
            sim.cpu_fallbacks as f64,
            "count",
            Clock::None,
        ),
        metric(
            "topk_engine.approx_served",
            sim.approx_served as f64,
            "count",
            Clock::None,
        ),
        metric(
            "topk_engine.deadline_misses",
            sim.deadline_misses as f64,
            "count",
            Clock::None,
        ),
        metric(
            "topk_engine.caught_panics",
            sim.caught_panics as f64,
            "count",
            Clock::None,
        ),
        metric(
            "topk_engine.post_mortems",
            sim.post_mortems as f64,
            "count",
            Clock::None,
        ),
    ];
    for (name, us) in stage_names.iter().zip(sim.stages_us) {
        m.push(metric(
            format!("topk_engine.{name}"),
            ratio(us, q),
            "us",
            Clock::Sim,
        ));
    }
    m.extend([
        metric(
            "tuner.plan_hit_ratio",
            ratio(
                sim.plan_hits as f64,
                (sim.plan_hits + sim.plan_misses) as f64,
            ),
            "ratio",
            Clock::None,
        ),
        metric(
            "gpu_sim.launches",
            prefix_rows.get(trace::LAUNCH).map_or(0, |r| r.count) as f64,
            "count",
            Clock::None,
        ),
        metric(
            "gpu_sim.launch_host_us_p50",
            median(&durs(trace::LAUNCH)) * 1e-3,
            "us",
            Clock::Host,
        ),
        metric(
            "gpu_sim.host_ns_per_sim_byte",
            ratio(launch.total_ns as f64, launch.sim_bytes as f64),
            "ns/B",
            Clock::Host,
        ),
        metric(
            "gpu_sim.htod_host_ms",
            per_wave_ms(row(trace::HTOD).total_ns),
            "ms",
            Clock::Host,
        ),
        metric("gpu_sim.sim_bytes", sim.bytes as f64, "B", Clock::Sim),
        metric(
            "gpu_sim.sim_kernels",
            sim.kernels as f64,
            "count",
            Clock::Sim,
        ),
        metric("gpu_sim.sim_pcie_us", sim.stages_us[1], "us", Clock::Sim),
        metric(
            "gpu_sim.mem_high_water_mb",
            sim.mem_high_water as f64 / (1u64 << 20) as f64,
            "MB",
            Clock::Sim,
        ),
        metric(
            "verify.host_ms",
            per_wave_ms(row("verify.check").total_ns),
            "ms",
            Clock::Host,
        ),
    ]);
    m
}
