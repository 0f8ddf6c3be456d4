//! `select-paper`: single selections on one device at the paper's
//! shapes, through [`TopKAlgorithm::try_select`] (and
//! `try_select_batch` for the batched row).
//!
//! Inputs are generated and uploaded during set-up. The loop sweeps
//! every (cell, algorithm) pair, reads each answer back and checks it
//! with `verify_topk`, and repeats whole sweeps until `--seconds` have
//! passed. The first sweep is the fixed prefix the sim metrics come
//! from.

use crate::stats::{geomean, median, percentile, ratio};
use crate::trace::{self, layer_table, span, TracedBackend, Tracer};
use crate::{metric, mix, Clock, Metric, Tally, SIM_THREADS};
use gpu_topk::gpu_sim::{Backend, BackendExt, BlockPool, DeviceBuffer, DeviceSpec, Gpu};
use gpu_topk::prelude::{
    verify_topk, AirTopK, Distribution, GridSelect, RadixSelect, SelectK, TopKAlgorithm, TopKError,
    TopKOutput,
};
use gpu_topk::topk_core::tuner::{DistSketch, ProblemShape};
use gpu_topk::topk_core::RadiK;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One problem of the sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    /// Problem length (per row).
    n: usize,
    /// Smallest-K asked for.
    k: usize,
    /// Rows; above 1 the cell runs `try_select_batch`.
    batch: usize,
    /// Input distribution.
    dist: Distribution,
}

/// The paper's shapes: N 2²²–2²⁴ single problems plus one batched row
/// (N is trimmed by a seed-derived 0–0.1%; see [`setup`]).
pub(crate) const CELLS: [Cell; 4] = [
    Cell {
        n: 1 << 22,
        k: 256,
        batch: 1,
        dist: Distribution::Uniform,
    },
    Cell {
        n: 1 << 23,
        k: 32,
        batch: 1,
        dist: Distribution::RadixAdversarial { m_bits: 20 },
    },
    Cell {
        n: 1 << 24,
        k: 1024,
        batch: 1,
        dist: Distribution::Normal,
    },
    Cell {
        n: 1 << 16,
        k: 64,
        batch: 32,
        dist: Distribution::Zipf {
            exponent_tenths: 11,
        },
    },
];

/// Metric-name stems of the swept algorithms, in sweep order.
pub const ALGOS: [&str; 5] = ["air_topk", "gridselect", "radik", "selectk", "radixselect"];
const SPANS: [&str; 5] = [
    "algo.air_topk.try_select",
    "algo.gridselect.try_select",
    "algo.radik.try_select",
    "algo.selectk.try_select",
    "algo.radixselect.try_select",
];

/// Parameters of the workload.
#[derive(Debug, Clone)]
pub struct SelectConfig {
    /// Right shift applied to every cell's N (0 = the paper's sizes).
    pub n_shift: u32,
}

struct CellData {
    cell: Cell,
    n: usize,
    host: Vec<Vec<f32>>,
    dev: Vec<DeviceBuffer<f32>>,
    sketch: DistSketch,
}

/// Set-up product: the device with every input resident.
pub struct SelectSetup {
    gpu: Box<dyn Backend>,
    cells: Vec<CellData>,
    /// Host ns spent in `datagen::generate`.
    pub gen_ns: u64,
    /// Host ns spent uploading inputs.
    pub upload_ns: u64,
}

/// Generate every cell's rows from `seed` and upload them to a fresh
/// A100 (wrapped in a [`TracedBackend`] when tracing).
pub fn setup(cfg: &SelectConfig, seed: u64, tracer: Option<&Arc<Tracer>>) -> SelectSetup {
    let gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(SIM_THREADS));
    let mut gpu: Box<dyn Backend> = match tracer {
        Some(t) => Box::new(TracedBackend::new(gpu, Arc::clone(t))),
        None => Box::new(gpu),
    };
    let (mut gen_ns, mut upload_ns) = (0u64, 0u64);
    let cells = CELLS
        .iter()
        .enumerate()
        .map(|(c, &cell)| {
            // The seed trims up to 0.1% off N as well as drawing the
            // data, so no cell's simulated time is the same for every
            // seed (several kernels' costs depend on N alone).
            let full = cell.n >> cfg.n_shift;
            let n = full - (mix(seed ^ 0x5EED, c as u64) % (full / 1024).max(1) as u64) as usize;
            let host: Vec<Vec<f32>> = (0..cell.batch)
                .map(|row| {
                    let t = Instant::now();
                    let _span = span(tracer, "datagen.generate");
                    let data = gpu_topk::datagen::generate(
                        cell.dist,
                        n,
                        mix(seed, (c * 1000 + row) as u64),
                    );
                    gen_ns += t.elapsed().as_nanos() as u64;
                    data
                })
                .collect();
            let sketch = DistSketch::from_sample(&host[0]);
            let t = Instant::now();
            let dev = {
                let _span = span(tracer, "gpu_sim.upload");
                host.iter().map(|h| gpu.htod("input", h)).collect()
            };
            upload_ns += t.elapsed().as_nanos() as u64;
            CellData {
                cell,
                n,
                host,
                dev,
                sketch,
            }
        })
        .collect();
    SelectSetup {
        gpu,
        cells,
        gen_ns,
        upload_ns,
    }
}

/// The tuner shapes of the sweep, for timing `SelectK::plan`.
pub fn plan_shapes(setup: &SelectSetup) -> Vec<ProblemShape> {
    setup
        .cells
        .iter()
        .map(|cd| ProblemShape::new(cd.n, cd.cell.k, cd.cell.batch).with_sketch(cd.sketch))
        .collect()
}

/// One selection of the first sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Index into [`ALGOS`].
    pub algo: usize,
    /// Index into the sweep's cells.
    pub cell: usize,
    /// Simulated µs of the selection (readback excluded).
    pub sim_us: f64,
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct SelectRun {
    /// Answer accounting over every sweep.
    pub tally: Tally,
    /// Successful selections whose every row passed `verify_topk`.
    pub verified: u64,
    /// First-sweep simulated times, one per (cell, algorithm).
    pub prefix: Vec<CellResult>,
    /// Sweeps completed.
    pub sweeps: u64,
    /// Elements selected over every sweep.
    pub elements: u64,
    /// Host ns per `try_select` call.
    pub select_ns: Vec<f64>,
    /// Host ns per readback + check.
    pub verify_ns: Vec<f64>,
    /// Host ns of the first sweep's selections.
    pub prefix_ns: f64,
    /// Simulated bytes and kernels of the first sweep.
    pub sim_bytes: u64,
    /// See `sim_bytes`.
    pub sim_kernels: u64,
    /// Simulated PCIe µs (readbacks) of the first sweep.
    pub sim_pcie_us: f64,
    /// Peak simulated device memory, bytes.
    pub mem_high_water: u64,
    /// Tuner plan hits and misses of the first sweep.
    pub plan_hits: u64,
    /// See `plan_hits`.
    pub plan_misses: u64,
    /// Tracer cursors bracketing the first sweep.
    pub prefix_spans: (usize, usize),
}

/// A swept algorithm: a plain `TopKAlgorithm`, or the tuned dispatcher
/// fed the input's distribution sketch (as the engine feeds it).
enum Algo {
    Plain(Box<dyn TopKAlgorithm>),
    Tuned(Box<SelectK>),
}

impl Algo {
    fn select(&self, gpu: &mut dyn Backend, cd: &CellData) -> Result<Vec<TopKOutput>, TopKError> {
        let (k, rows) = (cd.cell.k, &cd.dev);
        match (self, rows.len()) {
            (Algo::Plain(alg), 1) => alg.try_select(gpu, &rows[0], k).map(|o| vec![o]),
            (Algo::Plain(alg), _) => alg.try_select_batch(gpu, rows, k),
            (Algo::Tuned(sel), 1) => sel
                .try_select_with_sketch(gpu, &rows[0], k, cd.sketch)
                .map(|o| vec![o]),
            (Algo::Tuned(sel), _) => sel.try_select_batch_with_sketch(gpu, rows, k, cd.sketch),
        }
    }
}

/// Sweep until `seconds` have passed (at least one whole sweep).
pub fn run(setup: &mut SelectSetup, seconds: f64, tracer: Option<&Arc<Tracer>>) -> SelectRun {
    // In [`ALGOS`] order.
    let algos = [
        Algo::Plain(Box::new(AirTopK::default())),
        Algo::Plain(Box::new(GridSelect::default())),
        Algo::Plain(Box::new(RadiK::default())),
        Algo::Tuned(Box::default()),
        Algo::Plain(Box::new(RadixSelect)),
    ];
    let mut out = SelectRun {
        prefix_spans: (tracer.map_or(0, |t| t.cursor()), 0),
        ..SelectRun::default()
    };
    let reports_lo = setup.gpu.reports().len();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while out.sweeps == 0 || start.elapsed() < budget {
        let counters_before = gpu_topk::topk_core::obs::counters().snapshot();
        for (c, cd) in setup.cells.iter().enumerate() {
            for (a, (algo, &span_name)) in algos.iter().zip(&SPANS).enumerate() {
                let gpu = setup.gpu.as_mut();
                let sim0 = gpu.elapsed_us();
                let t0 = Instant::now();
                let result = {
                    let _span = span(tracer, span_name);
                    algo.select(gpu, cd)
                };
                let select_ns = t0.elapsed().as_nanos() as f64;
                let sim_us = gpu.elapsed_us() - sim0;
                out.tally.attempted += 1;
                out.elements += (cd.n * cd.dev.len()) as u64;
                out.select_ns.push(select_ns);
                if out.sweeps == 0 {
                    out.prefix_ns += select_ns;
                    out.prefix.push(CellResult {
                        algo: a,
                        cell: c,
                        sim_us,
                    });
                }
                let v0 = Instant::now();
                let _span = span(tracer, "verify.check");
                match result {
                    Ok(outs) => {
                        out.tally.succeeded += 1;
                        let pcie0 = gpu.elapsed_us();
                        let mut verified_rows = 0;
                        for (row, o) in outs.iter().enumerate() {
                            let values = gpu.dtoh(&o.values);
                            let indices = gpu.dtoh(&o.indices);
                            gpu.free(&o.values);
                            gpu.free(&o.indices);
                            match verify_topk(&cd.host[row], cd.cell.k, &values, &indices) {
                                Ok(()) => verified_rows += 1,
                                Err(e) => out
                                    .tally
                                    .wrong
                                    .push(format!("{} cell {c} row {row}: {e}", ALGOS[a])),
                            }
                        }
                        if verified_rows == outs.len() {
                            out.verified += 1;
                        }
                        if out.sweeps == 0 {
                            out.sim_pcie_us += gpu.elapsed_us() - pcie0;
                        }
                    }
                    Err(e) => {
                        out.tally.failed += 1;
                        out.tally.wrong.push(format!("{} cell {c}: {e}", ALGOS[a]));
                    }
                }
                out.verify_ns.push(v0.elapsed().as_nanos() as f64);
            }
        }
        if out.sweeps == 0 {
            let delta = gpu_topk::topk_core::obs::counters()
                .snapshot()
                .delta_since(&counters_before);
            out.plan_hits = delta.tuner_plan_hits;
            out.plan_misses = delta.tuner_plan_misses;
            let reports = &setup.gpu.reports()[reports_lo..];
            out.sim_kernels = reports.len() as u64;
            out.sim_bytes = reports.iter().map(|r| r.stats.total_mem_bytes()).sum();
            out.mem_high_water = setup.gpu.mem_high_water() as u64;
            out.prefix_spans.1 = tracer.map_or(0, |t| t.cursor());
        }
        out.sweeps += 1;
    }
    out
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &SelectRun) -> Vec<Metric> {
    let select_s = run.select_ns.iter().sum::<f64>() * 1e-9;
    let verify_s = run.verify_ns.iter().sum::<f64>() * 1e-9;
    let select_ms: Vec<f64> = run.select_ns.iter().map(|ns| ns * 1e-6).collect();
    let sim_us: Vec<f64> = run.prefix.iter().map(|r| r.sim_us).collect();
    let sim_s = sim_us.iter().sum::<f64>() * 1e-6;
    vec![
        metric(
            "host_qps",
            ratio(run.tally.attempted as f64, select_s),
            "1/s",
            Clock::Host,
        ),
        metric("host_drain_ms_p50", median(&select_ms), "ms", Clock::Host),
        metric(
            "host_drain_ms_p90",
            percentile(&select_ms, 0.9),
            "ms",
            Clock::Host,
        ),
        metric(
            "sim_qps",
            ratio(sim_us.len() as f64, sim_s),
            "1/s",
            Clock::Sim,
        ),
        metric("sim_latency_us_p50", median(&sim_us), "us", Clock::Sim),
        metric(
            "sim_latency_us_p99",
            percentile(&sim_us, 0.99),
            "us",
            Clock::Sim,
        ),
        metric(
            "recall_mean",
            ratio(run.verified as f64, run.tally.succeeded as f64),
            "ratio",
            Clock::None,
        ),
        metric(
            "select_melem_per_s",
            ratio(run.elements as f64 * 1e-6, select_s),
            "Melem/s",
            Clock::Host,
        ),
        metric(
            "verified_melem_per_s",
            ratio(run.elements as f64 * 1e-6, select_s + verify_s),
            "Melem/s",
            Clock::Host,
        ),
        metric("sim_us_geomean", geomean(&sim_us), "us", Clock::Sim),
    ]
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &SelectRun, tracer: &Tracer) -> Vec<Metric> {
    let spans = tracer.spans_since(run.prefix_spans.0);
    let rows = layer_table(&spans, run.prefix_spans.0);
    let prefix = &spans[..run.prefix_spans.1 - run.prefix_spans.0];
    let prefix_rows = layer_table(prefix, run.prefix_spans.0);
    let row = |name: &str| rows.get(name).cloned().unwrap_or_default();
    let per_sweep_ms = |ns: u64| ns as f64 * 1e-6 / run.sweeps as f64;
    let launch = row(trace::LAUNCH);
    let launch_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == trace::LAUNCH)
        .map(|s| s.dur_ns() as f64 * 1e-3)
        .collect();
    let mut m = Vec::new();
    for (a, (name, span_name)) in ALGOS.iter().zip(SPANS).enumerate() {
        m.push(metric(
            format!("algo.{name}.host_self_ms"),
            per_sweep_ms(row(span_name).self_ns),
            "ms",
            Clock::Host,
        ));
        let sim: f64 = run
            .prefix
            .iter()
            .filter(|r| r.algo == a)
            .map(|r| r.sim_us)
            .sum();
        m.push(metric(format!("algo.{name}.sim_us"), sim, "us", Clock::Sim));
    }
    m.extend([
        metric(
            "tuner.plan_hit_ratio",
            ratio(
                run.plan_hits as f64,
                (run.plan_hits + run.plan_misses) as f64,
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
            median(&launch_us),
            "us",
            Clock::Host,
        ),
        metric(
            "gpu_sim.host_ns_per_sim_byte",
            ratio(launch.total_ns as f64, launch.sim_bytes as f64),
            "ns/B",
            Clock::Host,
        ),
        metric("gpu_sim.sim_bytes", run.sim_bytes as f64, "B", Clock::Sim),
        metric(
            "gpu_sim.sim_kernels",
            run.sim_kernels as f64,
            "count",
            Clock::Sim,
        ),
        metric("gpu_sim.sim_pcie_us", run.sim_pcie_us, "us", Clock::Sim),
        metric(
            "gpu_sim.mem_high_water_mb",
            run.mem_high_water as f64 / (1u64 << 20) as f64,
            "MB",
            Clock::Sim,
        ),
        metric(
            "verify.host_ms",
            per_sweep_ms(row("verify.check").total_ns),
            "ms",
            Clock::Host,
        ),
    ]);
    m
}
