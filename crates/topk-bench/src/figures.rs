//! Experiment definitions: one function per paper artefact.
//!
//! Each function returns the measured [`Row`]s and prints a readable
//! rendition of the figure/table. Default grids are scaled for a
//! laptop-class host; `full = true` uses the paper's exact grid
//! (N up to 2³⁰ — hours of wall time and ≥ 8 GiB of RAM).

use datagen::{AnnKind, Distribution};
use gpu_sim::profile::{render_sol_table, sol_table};
use gpu_sim::{DeviceSpec, Gpu};
use topk_core::{AirConfig, AirTopK, GridSelect, GridSelectConfig, QueueKind, TopKAlgorithm};

use crate::report::{
    render_ascii_chart, render_series_table, speedup_ranges, speedup_vs_sota, Row, SpeedupRange,
};
use crate::runner::{run_config, BenchConfig, Workload};

/// Common options for all experiments.
#[derive(Debug, Clone)]
pub struct FigOpts {
    /// Use the paper's exact grid instead of the scaled-down default.
    pub full: bool,
    /// Verify every output against the reference (slow).
    pub verify: bool,
    /// Print progress to stderr.
    pub progress: bool,
}

impl Default for FigOpts {
    fn default() -> Self {
        FigOpts {
            full: false,
            verify: false,
            progress: true,
        }
    }
}

fn progress(opts: &FigOpts, msg: &str) {
    if opts.progress {
        eprintln!("[topk-bench] {msg}");
    }
}

/// The eight baseline names (Table 1), used for SOTA computation.
pub const BASELINE_NAMES: [&str; 8] = [
    "Sort",
    "WarpSelect",
    "BlockSelect",
    "Bitonic Top-K",
    "QuickSelect",
    "BucketSelect",
    "SampleSelect",
    "RadixSelect",
];

fn all_algorithms() -> Vec<Box<dyn TopKAlgorithm>> {
    let mut algs = topk_baselines::all_baselines();
    algs.push(Box::new(AirTopK::default()) as Box<dyn TopKAlgorithm>);
    algs.push(Box::new(GridSelect::default()) as Box<dyn TopKAlgorithm>);
    algs
}

fn sweep(opts: &FigOpts, configs: &[BenchConfig], label: &str) -> Vec<Row> {
    let algs = all_algorithms();
    let mut rows = Vec::new();
    for (i, cfg) in configs.iter().enumerate() {
        progress(
            opts,
            &format!(
                "{label}: config {}/{} (dist={} n=2^{:.0} k={} batch={})",
                i + 1,
                configs.len(),
                cfg.workload.name(),
                (cfg.n as f64).log2(),
                cfg.k,
                cfg.batch
            ),
        );
        for alg in &algs {
            if let Some(row) = run_config(alg.as_ref(), cfg) {
                rows.push(row);
            }
        }
    }
    rows
}

/// Fig. 6: running time vs K for fixed N, batch 1, three distributions.
pub fn fig6(opts: &FigOpts) -> Vec<Row> {
    let ns: Vec<usize> = if opts.full {
        vec![1 << 15, 1 << 20, 1 << 25, 1 << 30]
    } else {
        vec![1 << 15, 1 << 18, 1 << 21]
    };
    let ks: Vec<usize> = if opts.full {
        (3..=20).map(|e| 1usize << e).collect()
    } else {
        vec![8, 32, 128, 512, 2048, 8192, 32768, 131072]
    };
    let mut configs = Vec::new();
    for dist in Distribution::benchmark_set() {
        for &n in &ns {
            for &k in &ks {
                if k <= n {
                    let mut c = BenchConfig::new(Workload::Synthetic(dist), n, k, 1);
                    c.verify = opts.verify;
                    configs.push(c);
                }
            }
        }
    }
    let rows = sweep(opts, &configs, "fig6");

    // Print one sub-table per (distribution, N) like the 12 sub-plots.
    let algos: Vec<String> = all_algorithms()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    for dist in Distribution::benchmark_set() {
        for &n in &ns {
            let sub: Vec<Row> = rows
                .iter()
                .filter(|r| r.workload == dist.name() && r.n == n)
                .cloned()
                .collect();
            if sub.is_empty() {
                continue;
            }
            println!(
                "\n=== Fig. 6: {} N=2^{:.0}, batch 1, time (us) vs K ===",
                dist.name(),
                (n as f64).log2()
            );
            println!("{}", render_series_table(&sub, "k", &algos));
            println!("{}", render_ascii_chart(&sub, "k", &algos, 72, 16));
        }
    }
    rows
}

/// Fig. 7: running time vs N for fixed K, batch 1 and 100.
pub fn fig7(opts: &FigOpts) -> Vec<Row> {
    let ks = [32usize, 256, 32768];
    let ns_b1: Vec<usize> = if opts.full {
        (11..=30).map(|e| 1usize << e).collect()
    } else {
        (11..=21).map(|e| 1usize << e).collect()
    };
    let ns_b100: Vec<usize> = if opts.full {
        (11..=23).map(|e| 1usize << e).collect()
    } else {
        (11..=16).map(|e| 1usize << e).collect()
    };

    let mut configs = Vec::new();
    for dist in Distribution::benchmark_set() {
        for &k in &ks {
            for &n in &ns_b1 {
                if k <= n {
                    let mut c = BenchConfig::new(Workload::Synthetic(dist), n, k, 1);
                    c.verify = opts.verify;
                    configs.push(c);
                }
            }
            for &n in &ns_b100 {
                if k <= n {
                    let mut c = BenchConfig::new(Workload::Synthetic(dist), n, k, 100);
                    c.verify = opts.verify;
                    configs.push(c);
                }
            }
        }
    }
    let rows = sweep(opts, &configs, "fig7");

    let algos: Vec<String> = all_algorithms()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    for dist in Distribution::benchmark_set() {
        for &batch in &[1usize, 100] {
            for &k in &ks {
                let sub: Vec<Row> = rows
                    .iter()
                    .filter(|r| r.workload == dist.name() && r.k == k && r.batch == batch)
                    .cloned()
                    .collect();
                if sub.is_empty() {
                    continue;
                }
                println!(
                    "\n=== Fig. 7: {} K={k} batch={batch}, time (us) vs N ===",
                    dist.name()
                );
                println!("{}", render_series_table(&sub, "n", &algos));
                println!("{}", render_ascii_chart(&sub, "n", &algos, 72, 16));
            }
        }
    }
    rows
}

/// Machine-readable Table 2 — the artifact's `speedup.csv` equivalent:
/// one line per (batch, distribution, comparison) with min/max/count.
pub fn table2_csv(rows: &[Row]) -> String {
    let mut out = String::from("batch,distribution,comparison,min,max,count\n");
    for (name, ranges) in [
        (
            "air_vs_radixselect",
            speedup_ranges(rows, "AIR Top-K", "RadixSelect"),
        ),
        (
            "gridselect_vs_blockselect",
            speedup_ranges(rows, "GridSelect", "BlockSelect"),
        ),
        (
            "air_vs_sota",
            speedup_vs_sota(rows, "AIR Top-K", &BASELINE_NAMES),
        ),
    ] {
        for ((batch, dist), r) in &ranges {
            out.push_str(&format!(
                "{batch},{dist},{name},{:.4},{:.4},{}\n",
                r.min, r.max, r.count
            ));
        }
    }
    out
}

/// Table 2: speedup ranges over the Fig. 6 + Fig. 7 grid.
pub fn table2(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("=== Table 2: Summary of Speedup Range ===\n");
    out.push_str(&format!(
        "{:<6} {:<14} {:>22} {:>26} {:>18}\n",
        "Batch", "Distribution", "AIR vs RadixSelect", "GridSelect vs BlockSelect", "AIR vs SOTA"
    ));

    let air_vs_radix = speedup_ranges(rows, "AIR Top-K", "RadixSelect");
    let grid_vs_block = speedup_ranges(rows, "GridSelect", "BlockSelect");
    let air_vs_sota = speedup_vs_sota(rows, "AIR Top-K", &BASELINE_NAMES);

    let mut groups: Vec<(usize, String)> = air_vs_radix.keys().cloned().collect();
    groups.sort();
    let na = SpeedupRange {
        min: f64::NAN,
        max: f64::NAN,
        count: 0,
    };
    for g in groups {
        let a = air_vs_radix.get(&g).unwrap_or(&na);
        let b = grid_vs_block.get(&g).unwrap_or(&na);
        let c = air_vs_sota.get(&g).unwrap_or(&na);
        out.push_str(&format!(
            "{:<6} {:<14} {:>22} {:>26} {:>18}\n",
            g.0,
            g.1,
            a.to_string(),
            b.to_string(),
            c.to_string()
        ));
    }
    out
}

/// Fig. 8: timeline breakdown of RadixSelect vs AIR Top-K
/// (N = 2²³, K = 2048, uniform).
pub fn fig8(opts: &FigOpts) -> String {
    let n = if opts.full { 1 << 23 } else { 1 << 21 };
    let k = 2048;
    let data = datagen::generate(Distribution::Uniform, n, 7);
    let mut out = String::new();

    let mut render = |name: &str, alg: &dyn TopKAlgorithm| {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("in", &data);
        gpu.reset_profile();
        let _ = alg.select(&mut gpu, &input, k);
        out.push_str(&format!(
            "\n--- {name} (N=2^{:.0}, K={k}) ---\n",
            (n as f64).log2()
        ));
        out.push_str(&format!("{}\n", gpu.timeline().render_ascii(100)));
        out.push_str(&gpu.timeline().render_list());
        out.push_str(&format!(
            "total {:.1} us | kernels {} | memcpy {:.1} us | device idle {:.1} us\n",
            gpu.elapsed_us(),
            gpu.timeline().kernel_count(),
            gpu.timeline().memcpy_us(),
            gpu.timeline().idle_us()
        ));
    };

    render("RadixSelect", &topk_baselines::RadixSelect);
    render("AIR Top-K", &AirTopK::default());
    out.push_str("\nLegend: # kernel, > HtoD, < DtoH, . host sync, ~ host compute, | launch\n");
    out
}

/// Fig. 8 as Chrome-trace JSON (open in chrome://tracing or Perfetto),
/// one document per algorithm. Returns (name, json) pairs.
pub fn fig8_traces(opts: &FigOpts) -> Vec<(String, String)> {
    let n = if opts.full { 1 << 23 } else { 1 << 21 };
    let k = 2048;
    let data = datagen::generate(Distribution::Uniform, n, 7);
    let mut traces = Vec::new();
    let algs: Vec<Box<dyn TopKAlgorithm>> = vec![
        Box::new(topk_baselines::RadixSelect),
        Box::new(AirTopK::default()),
    ];
    for (name, alg) in ["radixselect", "air_topk"].iter().zip(algs) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("in", &data);
        gpu.reset_profile();
        let _ = alg.select(&mut gpu, &input, k);
        traces.push((
            name.to_string(),
            gpu_sim::to_chrome_trace(
                gpu.timeline(),
                &format!("{} N=2^{:.0} K={k}", alg.name(), (n as f64).log2()),
            ),
        ));
    }
    traces
}

/// Table 3: per-kernel Memory/Compute SOL for AIR Top-K
/// (paper: N = 2³⁰, K = 2048; default here N = 2²⁴).
pub fn table3(opts: &FigOpts) -> String {
    let n = if opts.full { 1 << 28 } else { 1 << 24 };
    let k = 2048;
    let data = datagen::generate(Distribution::Uniform, n, 9);
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.htod("in", &data);
    gpu.reset_profile();
    let _ = AirTopK::default().select(&mut gpu, &input, k);
    let rows = sol_table(gpu.reports());
    format!(
        "=== Table 3: Kernel Performance Analysis for AIR Top-K (N=2^{:.0}, K={k}) ===\n{}",
        (n as f64).log2(),
        render_sol_table(&rows)
    )
}

/// Fig. 9: AIR Top-K with/without the adaptive strategy on
/// radix-adversarial data with M = 10 and M = 20.
pub fn fig9(opts: &FigOpts) -> Vec<Row> {
    let ns: Vec<usize> = if opts.full {
        (20..=27).map(|e| 1usize << e).collect()
    } else {
        (16..=22).step_by(2).map(|e| 1usize << e).collect()
    };
    let k = 2048;
    let mut rows = Vec::new();
    for m in [10u32, 20] {
        for &n in &ns {
            let dist = Distribution::RadixAdversarial { m_bits: m };
            let mut cfg = BenchConfig::new(Workload::Synthetic(dist), n, k, 1);
            cfg.verify = opts.verify;
            progress(opts, &format!("fig9: M={m} n=2^{:.0}", (n as f64).log2()));

            let with = AirTopK::default();
            let without = AirTopK::new(AirConfig {
                adaptive: false,
                ..AirConfig::default()
            });
            let mut r1 = run_config(&with, &cfg).unwrap();
            r1.algo = "AIR (adaptive)".into();
            let mut r2 = run_config(&without, &cfg).unwrap();
            r2.algo = "AIR (no adaptive)".into();
            rows.push(r1);
            rows.push(r2);
        }
    }
    for m in [10u32, 20] {
        let dist_name = format!("adversarial{m}");
        let sub: Vec<Row> = rows
            .iter()
            .filter(|r| r.workload == dist_name)
            .cloned()
            .collect();
        println!("\n=== Fig. 9: adaptive strategy, M={m}, K={k}, time (us) vs N ===");
        println!(
            "{}",
            render_series_table(
                &sub,
                "n",
                &["AIR (adaptive)".into(), "AIR (no adaptive)".into()]
            )
        );
        for n in sub
            .iter()
            .map(|r| r.n)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let t_a = sub
                .iter()
                .find(|r| r.n == n && r.algo.contains("(adaptive"))
                .unwrap();
            let t_n = sub
                .iter()
                .find(|r| r.n == n && r.algo.contains("no "))
                .unwrap();
            println!(
                "  N=2^{:.0}: speedup {:.2}x",
                (n as f64).log2(),
                t_n.time_us / t_a.time_us
            );
        }
    }
    rows
}

/// Fig. 10: AIR Top-K with/without early stopping.
///
/// Early stopping (§3.3) fires when the remaining K exactly equals the
/// candidate count after some pass. On continuous data that equality
/// almost never happens; it occurs naturally on *clustered* inputs —
/// discrete score values, quantised distances — whenever K covers
/// whole clusters. We sweep N on a clustered workload (V equal-sized
/// value groups with K covering half of them) so the trigger fires
/// after pass 0, and report the saving. The paper's measured maximum
/// improvement is 18.7%.
pub fn fig10(opts: &FigOpts) -> Vec<Row> {
    let ns: Vec<usize> = if opts.full {
        (18..=26).step_by(2).map(|e| 1usize << e).collect()
    } else {
        (16..=22).step_by(2).map(|e| 1usize << e).collect()
    };
    let clusters = 16usize;
    let mut rows = Vec::new();
    for &n in &ns {
        // V clusters of distinct magnitudes; K covers exactly half of
        // them, so after pass 0 the candidates equal the remaining K.
        let data: Vec<f32> = (0..n).map(|i| (1 + (i % clusters)) as f32 * 3.5).collect();
        let k = n / 2;
        progress(opts, &format!("fig10: n=2^{:.0}", (n as f64).log2()));
        let time = |early: bool| -> Row {
            let with = AirTopK::new(AirConfig {
                early_stop: early,
                ..AirConfig::default()
            });
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let input = gpu.htod("in", &data);
            gpu.reset_profile();
            let out = with.select(&mut gpu, &input, k);
            let verified = !opts.verify
                || topk_core::verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec())
                    .map_err(|e| eprintln!("VERIFICATION FAILED: fig10 n={n} k={k}: {e}"))
                    .is_ok();
            Row {
                algo: if early {
                    "AIR (early stop)".into()
                } else {
                    "AIR (no early stop)".into()
                },
                device: "A100".into(),
                workload: "clustered16".into(),
                n,
                k,
                batch: 1,
                time_us: gpu.elapsed_us(),
                mem_bytes: gpu
                    .reports()
                    .iter()
                    .map(|r| r.stats.total_mem_bytes())
                    .sum(),
                kernels: gpu.timeline().kernel_count(),
                pcie_us: gpu.timeline().memcpy_us(),
                idle_us: gpu.timeline().idle_us(),
                verified,
            }
        };
        rows.push(time(true));
        rows.push(time(false));
    }
    println!("\n=== Fig. 10: early stopping, clustered data, K=N/2, time (us) vs N ===");
    println!(
        "{}",
        render_series_table(
            &rows,
            "n",
            &["AIR (early stop)".into(), "AIR (no early stop)".into()]
        )
    );
    for &n in &ns {
        let t_w = rows
            .iter()
            .find(|r| r.n == n && r.algo.contains("(early"))
            .unwrap();
        let t_o = rows
            .iter()
            .find(|r| r.n == n && r.algo.contains("no "))
            .unwrap();
        println!(
            "  N=2^{:.0}: improvement {:.1}%",
            (n as f64).log2(),
            100.0 * (t_o.time_us - t_w.time_us) / t_o.time_us
        );
    }
    rows
}

/// Fig. 11: GridSelect with the shared queue vs per-thread queues.
pub fn fig11(opts: &FigOpts) -> Vec<Row> {
    let ns: Vec<usize> = if opts.full {
        (18..=26).step_by(2).map(|e| 1usize << e).collect()
    } else {
        (16..=22).step_by(2).map(|e| 1usize << e).collect()
    };
    let ks = [64usize, 512, 2048];
    let shared = GridSelect::default();
    let per_thread = GridSelect::new(GridSelectConfig {
        queue: QueueKind::PerThread { len: 2 },
        ..GridSelectConfig::default()
    });
    let mut rows = Vec::new();
    for &k in &ks {
        for &n in &ns {
            let mut cfg = BenchConfig::new(Workload::Synthetic(Distribution::Normal), n, k, 1);
            cfg.verify = opts.verify;
            progress(opts, &format!("fig11: k={k} n=2^{:.0}", (n as f64).log2()));
            let mut r1 = run_config(&shared, &cfg).unwrap();
            r1.algo = "GridSelect (shared queue)".into();
            let mut r2 = run_config(&per_thread, &cfg).unwrap();
            r2.algo = "GridSelect (per-thread queues)".into();
            rows.push(r1);
            rows.push(r2);
        }
    }
    for &k in &ks {
        let sub: Vec<Row> = rows.iter().filter(|r| r.k == k).cloned().collect();
        println!("\n=== Fig. 11: queue ablation, K={k}, time (us) vs N ===");
        println!(
            "{}",
            render_series_table(
                &sub,
                "n",
                &[
                    "GridSelect (shared queue)".into(),
                    "GridSelect (per-thread queues)".into()
                ]
            )
        );
    }
    rows
}

/// Fig. 12: AIR Top-K / GridSelect / SOTA on A100, H100 and A10
/// (uniform, paper N = 2³⁰; default N = 2²²).
pub fn fig12(opts: &FigOpts) -> Vec<Row> {
    let n: usize = if opts.full { 1 << 26 } else { 1 << 22 };
    let ks: Vec<usize> = (3..=11).map(|e| 1usize << e).collect(); // 8..2048
    let devices = [DeviceSpec::a100(), DeviceSpec::h100(), DeviceSpec::a10()];
    let algs = all_algorithms();
    let mut rows = Vec::new();
    for dev in &devices {
        for &k in &ks {
            let mut cfg = BenchConfig::new(Workload::Synthetic(Distribution::Uniform), n, k, 1);
            cfg.device = dev.clone();
            cfg.verify = opts.verify;
            progress(opts, &format!("fig12: {} k={k}", dev.name));
            for alg in &algs {
                if let Some(row) = run_config(alg.as_ref(), &cfg) {
                    rows.push(row);
                }
            }
        }
    }
    for dev in &devices {
        let sub: Vec<Row> = rows
            .iter()
            .filter(|r| r.device == dev.name)
            .cloned()
            .collect();
        println!(
            "\n=== Fig. 12: {} N=2^{:.0}, time (us) vs K (AIR, GridSelect, SOTA) ===",
            dev.name,
            (n as f64).log2()
        );
        // Reduce the baselines to the virtual SOTA for display.
        let mut display: Vec<Row> = Vec::new();
        for &k in &ks {
            for name in ["AIR Top-K", "GridSelect"] {
                if let Some(r) = sub.iter().find(|r| r.k == k && r.algo == name) {
                    display.push(r.clone());
                }
            }
            if let Some(best) = sub
                .iter()
                .filter(|r| r.k == k && BASELINE_NAMES.contains(&r.algo.as_str()))
                .min_by(|a, b| a.time_us.total_cmp(&b.time_us))
            {
                let mut b = best.clone();
                b.algo = "SOTA".into();
                display.push(b);
            }
        }
        println!(
            "{}",
            render_series_table(
                &display,
                "k",
                &["AIR Top-K".into(), "GridSelect".into(), "SOTA".into()]
            )
        );
    }
    rows
}

/// Fig. 13: DEEP1B-like and SIFT-like ANN distance arrays,
/// K ∈ {10, 100}, N = 2¹¹..2¹⁹.
pub fn fig13(opts: &FigOpts) -> Vec<Row> {
    let ns: Vec<usize> = if opts.full {
        (11..=19).map(|e| 1usize << e).collect()
    } else {
        (11..=19).step_by(2).map(|e| 1usize << e).collect()
    };
    let algs = all_algorithms();
    let mut rows = Vec::new();
    for kind in [AnnKind::Deep1bLike, AnnKind::SiftLike] {
        for &k in &[10usize, 100] {
            for &n in &ns {
                let mut cfg = BenchConfig::new(Workload::Ann(kind), n, k, 1);
                cfg.verify = opts.verify;
                progress(
                    opts,
                    &format!("fig13: {} k={k} n=2^{:.0}", kind.name(), (n as f64).log2()),
                );
                for alg in &algs {
                    if let Some(row) = run_config(alg.as_ref(), &cfg) {
                        rows.push(row);
                    }
                }
            }
        }
    }
    let algos: Vec<String> = algs.iter().map(|a| a.name().to_string()).collect();
    for kind in [AnnKind::Deep1bLike, AnnKind::SiftLike] {
        for &k in &[10usize, 100] {
            let sub: Vec<Row> = rows
                .iter()
                .filter(|r| r.workload == kind.name() && r.k == k)
                .cloned()
                .collect();
            println!("\n=== Fig. 13: {} K={k}, time (us) vs N ===", kind.name());
            println!("{}", render_series_table(&sub, "n", &algos));
            println!("{}", render_ascii_chart(&sub, "n", &algos, 72, 14));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> FigOpts {
        FigOpts {
            full: false,
            verify: false,
            progress: false,
        }
    }

    #[test]
    fn fig9_adaptive_wins_on_adversarial() {
        // The headline claim of §5.2.2 must hold in the reproduction.
        let rows = fig9(&quick_opts());
        for m in [10u32, 20] {
            let dn = format!("adversarial{m}");
            let max_n = rows
                .iter()
                .filter(|r| r.workload == dn)
                .map(|r| r.n)
                .max()
                .unwrap();
            let a = rows
                .iter()
                .find(|r| r.workload == dn && r.n == max_n && r.algo.contains("(adaptive"))
                .unwrap();
            let na = rows
                .iter()
                .find(|r| r.workload == dn && r.n == max_n && r.algo.contains("no "))
                .unwrap();
            assert!(
                a.time_us < na.time_us,
                "adaptive must win at M={m}: {} vs {}",
                a.time_us,
                na.time_us
            );
        }
    }

    #[test]
    fn fig10_early_stop_never_hurts() {
        let rows = fig10(&quick_opts());
        let ks: std::collections::BTreeSet<usize> = rows.iter().map(|r| r.k).collect();
        for k in ks {
            let w = rows
                .iter()
                .find(|r| r.k == k && r.algo.contains("(early"))
                .unwrap();
            let o = rows
                .iter()
                .find(|r| r.k == k && r.algo.contains("no "))
                .unwrap();
            assert!(
                w.time_us <= o.time_us * 1.01,
                "k={k}: {} vs {}",
                w.time_us,
                o.time_us
            );
        }
    }

    #[test]
    fn table2_renders() {
        let mut opts = quick_opts();
        opts.verify = false;
        // A miniature grid exercising the whole path.
        let mut cfgs = Vec::new();
        for dist in [Distribution::Uniform] {
            {
                let batch = 1usize;
                let c = BenchConfig::new(Workload::Synthetic(dist), 1 << 14, 64, batch);
                cfgs.push(c);
            }
        }
        let rows = sweep(&opts, &cfgs, "mini");
        let t = table2(&rows);
        assert!(t.contains("AIR vs RadixSelect"));
        assert!(t.contains("uniform"));
    }
}
