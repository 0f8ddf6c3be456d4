//! Ad-hoc tool subcommands beyond the paper's figures.
//!
//! * [`compare`] — run a chosen set of algorithms on one custom
//!   configuration and print a side-by-side breakdown (time, launches,
//!   PCIe, traffic). The "let me just check this one shape" tool.
//! * [`tune_alpha`] — the calibration experiment the paper alludes to
//!   in §3.2: "Because candidate storing might be uncoalesced, the
//!   optimal value of α should be determined by experiments in
//!   practice." Sweeps α across distributions and reports the winner
//!   (the paper settled on 128 for the A100; §5).

use datagen::Distribution;
use topk_core::recall::recall_sd_bound;
use topk_core::{AirConfig, AirTopK, TopKAlgorithm};

use crate::report::Row;
use crate::runner::{run_config, BenchConfig, Workload};

/// Options for one ad-hoc comparison.
#[derive(Debug, Clone)]
pub struct CompareOpts {
    /// Algorithm names (paper spelling, case-insensitive-ish matching
    /// as in `gpu_topk::algorithm_by_name`). Empty = all ten.
    pub algos: Vec<String>,
    /// Problem size.
    pub n: usize,
    /// Results per problem.
    pub k: usize,
    /// Batch size.
    pub batch: usize,
    /// Input distribution.
    pub dist: Distribution,
    /// Verify outputs.
    pub verify: bool,
}

impl Default for CompareOpts {
    fn default() -> Self {
        CompareOpts {
            algos: Vec::new(),
            n: 1 << 20,
            k: 256,
            batch: 1,
            dist: Distribution::Uniform,
            verify: true,
        }
    }
}

fn norm(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Run the comparison; returns the measured rows and prints a table.
pub fn compare(opts: &CompareOpts) -> Vec<Row> {
    // Exact algorithms are checked with `verify_topk`; the approximate
    // rungs, planned for an expected recall of at least `APPROX_TARGET`
    // on the requested shape, against their recall floor.
    let mut algs: Vec<(Box<dyn TopKAlgorithm>, Option<f64>)> = topk_baselines::all_baselines()
        .into_iter()
        .map(|a| (a, None))
        .collect();
    algs.push((Box::new(AirTopK::default()), None));
    algs.push((Box::new(topk_core::GridSelect::default()), None));
    let bucketed = topk_core::BucketedTopK::for_recall(opts.n, opts.k, APPROX_TARGET);
    let takes = bucketed.plan(opts.k).takes(opts.k);
    let floor = recall_floor(bucketed.expected_recall(opts.k), opts.k, &takes, opts.batch);
    algs.push((Box::new(bucketed), Some(floor)));
    let two_stage = topk_core::TwoStageTopK::for_recall(opts.n, opts.k, APPROX_TARGET);
    let plan = two_stage.plan();
    let takes = vec![plan.k_prime; plan.partitions];
    let floor = recall_floor(
        two_stage.expected_recall(opts.k),
        opts.k,
        &takes,
        opts.batch,
    );
    algs.push((Box::new(two_stage), Some(floor)));
    if !opts.algos.is_empty() {
        let wanted: Vec<String> = opts.algos.iter().map(|a| norm(a)).collect();
        algs.retain(|(a, _)| wanted.contains(&norm(a.name())));
    }

    let mut cfg = BenchConfig::new(Workload::Synthetic(opts.dist), opts.n, opts.k, opts.batch);
    cfg.verify = opts.verify;

    println!(
        "compare: dist={} N={} K={} batch={}\n",
        opts.dist.name(),
        opts.n,
        opts.k,
        opts.batch
    );
    println!(
        "{:<16} {:>12} {:>9} {:>12} {:>12} {:>10}",
        "algorithm", "time us", "kernels", "pcie us", "idle us", "MiB moved"
    );
    let mut rows = Vec::new();
    for (alg, floor) in &algs {
        cfg.recall_floor = *floor;
        match run_config(alg.as_ref(), &cfg) {
            Some(row) => {
                println!(
                    "{:<16} {:>12.1} {:>9} {:>12.1} {:>12.1} {:>10.1}",
                    row.algo,
                    row.time_us,
                    row.kernels,
                    row.pcie_us,
                    row.idle_us,
                    row.mem_bytes as f64 / (1 << 20) as f64
                );
                rows.push(row);
            }
            None => println!("{:<16} {:>12}", alg.name(), "unsupported"),
        }
    }
    rows
}

/// Expected recall the approximate rungs are planned for in
/// [`compare`].
const APPROX_TARGET: f64 = 0.95;

/// The batch-mean measured recall an approximate answer must clear:
/// its planned expected recall less three standard errors of a mean
/// over `batch` problems, each problem's standard deviation bounded by
/// [`recall_sd_bound`] for the plan's per-part keep counts `takes`.
fn recall_floor(expected: f64, k: usize, takes: &[usize], batch: usize) -> f64 {
    expected - 3.0 * recall_sd_bound(k, takes) / (batch as f64).sqrt()
}

/// One α sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaPoint {
    /// The α value.
    pub alpha: usize,
    /// Workload name.
    pub workload: String,
    /// Simulated time, µs.
    pub time_us: f64,
}

/// Sweep the §3.2 buffering threshold α and report per-distribution
/// winners. Returns all measured points.
pub fn tune_alpha(n: usize, k: usize, alphas: &[usize], verbose: bool) -> Vec<AlphaPoint> {
    let dists = [
        Distribution::Uniform,
        Distribution::Normal,
        Distribution::RadixAdversarial { m_bits: 10 },
        Distribution::RadixAdversarial { m_bits: 20 },
    ];
    let mut points = Vec::new();
    for dist in dists {
        let mut best: Option<(usize, f64)> = None;
        for &alpha in alphas {
            let alg = AirTopK::new(AirConfig {
                alpha,
                ..AirConfig::default()
            });
            let cfg = BenchConfig::new(Workload::Synthetic(dist), n, k, 1);
            let row = run_config(&alg, &cfg).expect("AIR supports all configs");
            if verbose {
                println!(
                    "  alpha={alpha:<6} dist={:<14} {:>10.1} us",
                    dist.name(),
                    row.time_us
                );
            }
            if best.is_none_or(|(_, t)| row.time_us < t) {
                best = Some((alpha, row.time_us));
            }
            points.push(AlphaPoint {
                alpha,
                workload: dist.name(),
                time_us: row.time_us,
            });
        }
        let (ba, bt) = best.unwrap();
        println!("best alpha for {:<14}: {ba} ({bt:.1} us)", dist.name());
    }
    points
}

/// The §5.1 correctness gate as a standalone artifact: run every
/// algorithm over a matrix of distributions and awkward problem
/// shapes, verify each output strictly, and print a pass/fail grid.
/// Returns the number of failures (0 on a healthy build).
pub fn verify_matrix(quick: bool) -> usize {
    use gpu_sim::{DeviceSpec, Gpu};
    use topk_core::verify_topk;

    let shapes: Vec<(usize, usize)> = if quick {
        vec![(1, 1), (1000, 7), (8192, 2048), (20_000, 19_999)]
    } else {
        vec![
            (1, 1),
            (2, 1),
            (33, 32),
            (1000, 7),
            (4097, 4096),
            (8192, 2048),
            (20_000, 1),
            (20_000, 19_999),
            (65_536, 65_536),
            (100_000, 256),
        ]
    };
    let mut algs: Vec<Box<dyn TopKAlgorithm>> = topk_baselines::all_baselines();
    algs.push(Box::new(AirTopK::default()));
    algs.push(Box::new(topk_core::GridSelect::default()));
    algs.push(Box::new(topk_core::UnfusedRadix::default()));
    algs.push(Box::new(topk_core::SelectK::default()));
    algs.push(Box::new(topk_hybrid::DrTopK::new(AirTopK::default())));

    let mut failures = 0usize;
    println!(
        "{:<16} {:>9} {:>9} {:>15}  result",
        "algorithm", "n", "k", "distribution"
    );
    for dist in Distribution::benchmark_set() {
        for &(n, k) in &shapes {
            let data = datagen::generate(dist, n, (n + k) as u64);
            for alg in &algs {
                if k > n || alg.max_k().is_some_and(|mk| k > mk) {
                    continue;
                }
                let mut gpu = Gpu::new(DeviceSpec::a100());
                let input = gpu.htod("in", &data);
                let out = alg.select(&mut gpu, &input, k);
                let res = verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec());
                if let Err(e) = res {
                    failures += 1;
                    println!(
                        "{:<16} {:>9} {:>9} {:>15}  FAIL: {e}",
                        alg.name(),
                        n,
                        k,
                        dist.name()
                    );
                }
            }
        }
    }
    let total = algs.len();
    if failures == 0 {
        println!(
            "all {} algorithms passed on {} shapes x {} distributions",
            total,
            shapes.len(),
            3
        );
    } else {
        println!("{failures} verification failures");
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_filters_by_name() {
        let opts = CompareOpts {
            algos: vec!["AIR Top-K".into(), "radixselect".into()],
            n: 20_000,
            k: 64,
            batch: 1,
            dist: Distribution::Uniform,
            verify: true,
        };
        let rows = compare(&opts);
        let names: Vec<_> = rows.iter().map(|r| r.algo.as_str()).collect();
        assert_eq!(names, vec!["RadixSelect", "AIR Top-K"]);
        assert!(rows.iter().all(|r| r.verified));
    }

    #[test]
    fn compare_all_when_unfiltered() {
        let opts = CompareOpts {
            n: 10_000,
            k: 32,
            verify: true,
            ..CompareOpts::default()
        };
        let rows = compare(&opts);
        // 8 baselines + AIR + GridSelect + the two approximate rungs.
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().any(|r| r.algo.contains("approx")));
        // Exact rows pass verify_topk, approximate ones their floor.
        assert!(rows.iter().all(|r| r.verified), "{rows:?}");
    }

    #[test]
    fn recall_floor_sits_below_the_plan_and_tightens_with_batch() {
        let plan = topk_core::BucketedTopK::for_recall(1 << 16, 128, APPROX_TARGET);
        let takes = plan.plan(128).takes(128);
        let expected = plan.expected_recall(128);
        let one = recall_floor(expected, 128, &takes, 1);
        let four = recall_floor(expected, 128, &takes, 4);
        assert!(expected >= APPROX_TARGET);
        assert!(one < four && four < expected, "{one} {four} {expected}");
        // A half-recall answer is far below either floor.
        assert!(one > 0.5);
        // An exact-degenerate plan has no slack at all.
        assert_eq!(recall_floor(1.0, 128, &[128], 1), 1.0);
    }

    #[test]
    fn tune_alpha_flags_adversarial_preference_for_large_alpha() {
        // Under adversarial data candidates stay huge, so buffering
        // never pays: large alpha (buffer less) must not lose.
        let pts = tune_alpha(1 << 18, 2048, &[4, 128, 4096], false);
        let adv_best = pts
            .iter()
            .filter(|p| p.workload == "adversarial20")
            .min_by(|a, b| a.time_us.total_cmp(&b.time_us))
            .unwrap();
        assert!(
            adv_best.alpha >= 128,
            "adversarial winner should buffer conservatively, got {}",
            adv_best.alpha
        );
        // And every sweep point is positive/finite.
        assert!(pts.iter().all(|p| p.time_us.is_finite() && p.time_us > 0.0));
    }
}
