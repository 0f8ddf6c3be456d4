//! Executing one benchmark configuration on the simulator.

use datagen::{AnnDataset, AnnKind, Distribution};
use gpu_sim::{DeviceSpec, Gpu};
use topk_core::{measured_recall, verify_topk, TopKAlgorithm};

use crate::report::Row;

/// What data feeds the selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// A synthetic distribution (§5.1).
    Synthetic(Distribution),
    /// L2 distance arrays from a generated ANN dataset (§5.5).
    Ann(AnnKind),
}

impl Workload {
    /// Name used in CSV output.
    pub fn name(&self) -> String {
        match self {
            Workload::Synthetic(d) => d.name(),
            Workload::Ann(k) => k.name().to_string(),
        }
    }
}

/// One benchmark point.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Device to simulate.
    pub device: DeviceSpec,
    /// Input data source.
    pub workload: Workload,
    /// Problem size.
    pub n: usize,
    /// Results per problem.
    pub k: usize,
    /// Problems solved together (§5.1's batch size).
    pub batch: usize,
    /// RNG seed.
    pub seed: u64,
    /// Check outputs against the reference (slower; tests already
    /// cover correctness, so the big sweeps leave this off).
    pub verify: bool,
    /// For an approximate algorithm: the floor its batch-mean
    /// [`measured_recall`] must clear, checked instead of exact
    /// verification when `verify` is on.
    pub recall_floor: Option<f64>,
}

impl BenchConfig {
    /// A config on the A100 with verification off.
    pub fn new(workload: Workload, n: usize, k: usize, batch: usize) -> Self {
        BenchConfig {
            device: DeviceSpec::a100(),
            workload,
            n,
            k,
            batch,
            seed: 0x5eed,
            verify: false,
            recall_floor: None,
        }
    }

    fn make_batch(&self) -> Vec<Vec<f32>> {
        match self.workload {
            Workload::Synthetic(dist) => {
                datagen::generate_batch(dist, self.n, self.batch, self.seed)
            }
            Workload::Ann(kind) => {
                let ds = AnnDataset::generate(kind, self.n, self.batch, self.seed);
                (0..self.batch).map(|q| ds.distance_array(q)).collect()
            }
        }
    }
}

/// Whether `alg` can run this configuration (K caps, N bounds).
pub fn supports(alg: &dyn TopKAlgorithm, cfg: &BenchConfig) -> bool {
    cfg.k >= 1 && cfg.k <= cfg.n && alg.max_k().is_none_or(|mk| cfg.k <= mk)
}

/// Run one algorithm on one configuration; returns `None` when the
/// algorithm does not support the configuration (mirroring the paper's
/// missing curves: "there are constraints for some algorithms hence no
/// result").
pub fn run_config(alg: &dyn TopKAlgorithm, cfg: &BenchConfig) -> Option<Row> {
    if !supports(alg, cfg) {
        return None;
    }
    let data = cfg.make_batch();
    let mut gpu = Gpu::new(cfg.device.clone());
    let inputs: Vec<_> = data
        .iter()
        .enumerate()
        .map(|(i, d)| gpu.htod(&format!("problem{i}"), d))
        .collect();

    gpu.reset_profile();
    let outs = alg.select_batch(&mut gpu, &inputs, cfg.k);
    let time_us = gpu.elapsed_us();

    let mut verified = true;
    if cfg.verify {
        let what = format!("{} n={} k={} batch={}", alg.name(), cfg.n, cfg.k, cfg.batch);
        match cfg.recall_floor {
            None => {
                for (d, o) in data.iter().zip(&outs) {
                    if let Err(e) = verify_topk(d, cfg.k, &o.values.to_vec(), &o.indices.to_vec()) {
                        eprintln!("VERIFICATION FAILED: {what}: {e}");
                        verified = false;
                    }
                }
            }
            Some(floor) => {
                let recall = data
                    .iter()
                    .zip(&outs)
                    .map(|(d, o)| measured_recall(d, cfg.k, &o.values.to_vec()))
                    .sum::<f64>()
                    / outs.len() as f64;
                if recall < floor {
                    eprintln!(
                        "VERIFICATION FAILED: {what}: measured recall {recall:.4} \
                         below the floor {floor:.4}"
                    );
                    verified = false;
                }
            }
        }
    }

    let mem_bytes: u64 = gpu
        .reports()
        .iter()
        .map(|r| r.stats.total_mem_bytes())
        .sum();
    Some(Row {
        algo: alg.name().to_string(),
        device: cfg.device.name.to_string(),
        workload: cfg.workload.name(),
        n: cfg.n,
        k: cfg.k,
        batch: cfg.batch,
        time_us,
        mem_bytes,
        kernels: gpu.timeline().kernel_count(),
        pcie_us: gpu.timeline().memcpy_us(),
        idle_us: gpu.timeline().idle_us(),
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::AirTopK;

    #[test]
    fn run_config_produces_sane_row() {
        let cfg = BenchConfig {
            verify: true,
            ..BenchConfig::new(Workload::Synthetic(Distribution::Uniform), 5000, 32, 2)
        };
        let air = AirTopK::default();
        let row = run_config(&air, &cfg).unwrap();
        assert_eq!(row.algo, "AIR Top-K");
        assert!(row.time_us > 0.0);
        assert!(row.verified);
        assert_eq!(row.batch, 2);
        assert!(row.mem_bytes > 0);
    }

    #[test]
    fn unsupported_k_returns_none() {
        let cfg = BenchConfig::new(Workload::Synthetic(Distribution::Uniform), 10_000, 4096, 1);
        let gs = topk_core::GridSelect::default();
        assert!(run_config(&gs, &cfg).is_none());
        let cfg_bad = BenchConfig::new(Workload::Synthetic(Distribution::Uniform), 10, 20, 1);
        let air = AirTopK::default();
        assert!(run_config(&air, &cfg_bad).is_none());
    }

    #[test]
    fn ann_workload_runs() {
        let cfg = BenchConfig {
            verify: true,
            ..BenchConfig::new(Workload::Ann(AnnKind::SiftLike), 2048, 10, 1)
        };
        let air = AirTopK::default();
        let row = run_config(&air, &cfg).unwrap();
        assert!(row.verified);
        assert_eq!(row.workload, "sift-like");
    }
}
