//! Row-major device matrices — the batched-selection interface RAFT
//! exposes (`raft::matrix::select_k` operates on a `batch × len`
//! matrix; the paper's open-sourced artifact lives in
//! `matrix/detail/select_radix.cuh`).
//!
//! A [`DeviceMatrix`] is one contiguous device buffer plus a shape, so
//! a batched selection reads rows with zero per-row allocations and
//! writes its `rows × k` outputs packed — how the real library works,
//! as opposed to the `&[DeviceBuffer]` convenience API.

use gpu_sim::{Backend, BackendExt, DeviceBuffer, DeviceScalar, SimError};

/// A row-major `rows × cols` matrix in device memory.
#[derive(Debug, Clone)]
pub struct DeviceMatrix<T: DeviceScalar> {
    buf: DeviceBuffer<T>,
    rows: usize,
    cols: usize,
}

impl<T: DeviceScalar> DeviceMatrix<T> {
    /// Wrap an existing buffer (must hold exactly `rows × cols`
    /// elements).
    pub fn from_buffer(buf: DeviceBuffer<T>, rows: usize, cols: usize) -> Self {
        assert_eq!(
            buf.len(),
            rows * cols,
            "buffer holds {} elements, shape wants {}",
            buf.len(),
            rows * cols
        );
        DeviceMatrix { buf, rows, cols }
    }

    /// Allocate a zeroed matrix on the device.
    pub fn zeroed(gpu: &mut dyn Backend, label: &str, rows: usize, cols: usize) -> Self {
        DeviceMatrix {
            buf: gpu.alloc::<T>(label, rows * cols),
            rows,
            cols,
        }
    }

    /// Upload host data (`rows × cols`, row-major) to a new matrix.
    pub fn htod(gpu: &mut dyn Backend, label: &str, data: &[T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols);
        DeviceMatrix {
            buf: gpu.htod(label, data),
            rows,
            cols,
        }
    }

    /// Upload equal-length host rows into a new matrix with one
    /// contiguous allocation and one host→device copy. Each row is
    /// written straight from its slice: no host staging copy. A failed
    /// allocation or copy leaves nothing allocated.
    pub fn try_htod_rows(
        gpu: &mut dyn Backend,
        label: &str,
        rows: &[&[T]],
    ) -> Result<Self, SimError> {
        let cols = rows.first().map_or(0, |r| r.len());
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "matrix rows must share one length"
        );
        Ok(DeviceMatrix {
            buf: gpu.try_htod_rows(label, rows)?,
            rows: rows.len(),
            cols,
        })
    }

    /// Number of rows (problems).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (elements per problem).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing buffer (row-major).
    pub fn buffer(&self) -> &DeviceBuffer<T> {
        &self.buf
    }

    /// Copy one row to the host (unmetered; testing convenience).
    pub fn row_to_vec(&self, row: usize) -> Vec<T> {
        assert!(row < self.rows);
        (0..self.cols)
            .map(|c| self.buf.get(row * self.cols + c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, Gpu};

    #[test]
    fn shape_and_rows() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let m = DeviceMatrix::htod(&mut gpu, "m", &data, 3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.row_to_vec(1), vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "shape wants")]
    fn mismatched_shape_rejected() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let buf = gpu.alloc::<f32>("b", 10);
        DeviceMatrix::from_buffer(buf, 3, 4);
    }

    #[test]
    fn air_matrix_selection_matches_slices() {
        use crate::air::AirTopK;
        use crate::verify::verify_topk;
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let rows = 5;
        let cols = 20_000; // above the one-block threshold
        let k = 64;
        let datas: Vec<Vec<f32>> = (0..rows)
            .map(|r| datagen::generate(datagen::Distribution::Normal, cols, r as u64))
            .collect();
        let flat: Vec<f32> = datas.iter().flatten().copied().collect();
        let m = DeviceMatrix::htod(&mut gpu, "m", &flat, rows, cols);

        gpu.reset_profile();
        let (vals, idxs) = AirTopK::default()
            .run_matrix_typed(&mut gpu, &m, k)
            .unwrap();
        assert_eq!(vals.rows(), rows);
        assert_eq!(vals.cols(), k);
        // One launch set for the whole matrix, no per-row loops.
        assert_eq!(gpu.timeline().kernel_count(), 4);
        for (r, d) in datas.iter().enumerate() {
            verify_topk(d, k, &vals.row_to_vec(r), &idxs.row_to_vec(r))
                .unwrap_or_else(|e| panic!("row {r}: {e}"));
        }
    }

    #[test]
    fn air_matrix_small_rows_take_one_block_path() {
        use crate::air::AirTopK;
        use crate::verify::verify_topk;
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let (rows, cols, k) = (7, 4096, 10);
        let datas: Vec<Vec<f32>> = (0..rows)
            .map(|r| datagen::generate(datagen::Distribution::Uniform, cols, 50 + r as u64))
            .collect();
        let flat: Vec<f32> = datas.iter().flatten().copied().collect();
        let m = DeviceMatrix::htod(&mut gpu, "m", &flat, rows, cols);
        gpu.reset_profile();
        let (vals, idxs) = AirTopK::default()
            .run_matrix_typed(&mut gpu, &m, k)
            .unwrap();
        assert_eq!(gpu.timeline().kernel_count(), 1, "one-block fast path");
        for (r, d) in datas.iter().enumerate() {
            verify_topk(d, k, &vals.row_to_vec(r), &idxs.row_to_vec(r)).unwrap();
        }
    }

    #[test]
    fn gridselect_matrix_selection() {
        use crate::gridselect::GridSelect;
        use crate::verify::verify_topk;
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let (rows, cols, k) = (4, 10_000, 17);
        let datas: Vec<Vec<f32>> = (0..rows)
            .map(|r| datagen::generate(datagen::Distribution::Uniform, cols, 90 + r as u64))
            .collect();
        let flat: Vec<f32> = datas.iter().flatten().copied().collect();
        let m = DeviceMatrix::htod(&mut gpu, "m", &flat, rows, cols);
        let (vals, idxs) = GridSelect::default()
            .run_matrix_typed(&mut gpu, &m, k)
            .unwrap();
        assert_eq!((vals.rows(), vals.cols()), (rows, k), "packed rows × k");
        for (r, d) in datas.iter().enumerate() {
            verify_topk(d, k, &vals.row_to_vec(r), &idxs.row_to_vec(r))
                .unwrap_or_else(|e| panic!("row {r}: {e}"));
        }
    }

    #[test]
    fn split_batch_outputs_pass_leakcheck_once_freed() {
        use crate::{AirTopK, GridSelect, TopKAlgorithm};
        use gpu_sim::SanitizerMode;
        let algs: [&dyn TopKAlgorithm; 2] = [&AirTopK::default(), &GridSelect::default()];
        for alg in algs {
            for rows in [1usize, 3] {
                let mut gpu = Gpu::new(DeviceSpec::a100());
                gpu.enable_sanitizer(SanitizerMode::full().with_leakcheck());
                let inputs: Vec<_> = (0..rows)
                    .map(|r| {
                        let d = datagen::generate(datagen::Distribution::Uniform, 20_000, r as u64);
                        gpu.htod("in", &d)
                    })
                    .collect();
                let outs = alg.try_select_batch(&mut gpu, &inputs, 16).unwrap();
                for o in &outs {
                    gpu.free(&o.values);
                    gpu.free(&o.indices);
                }
                for i in &inputs {
                    gpu.free(i);
                }
                gpu.run_leakcheck();
                let report = gpu.sanitizer_report().unwrap();
                assert_eq!(gpu.mem_allocated(), 0);
                assert!(
                    report.findings.is_empty(),
                    "{} rows={rows}: {:?}",
                    alg.name(),
                    report.findings
                );
            }
        }
    }

    #[test]
    fn rows_upload_is_one_allocation_and_one_copy() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let (a, b) = (vec![1.0f32, 2.0, 3.0], vec![4.0f32, 5.0, 6.0]);
        let m = DeviceMatrix::try_htod_rows(&mut gpu, "m", &[&a, &b]).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.row_to_vec(1), b);
        assert_eq!(gpu.mem_allocated(), 24);
        assert_eq!(gpu.timeline().events().len(), 1, "one H2D copy");
        gpu.free(m.buffer());
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn ragged_rows_rejected() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let _ = DeviceMatrix::try_htod_rows(&mut gpu, "m", &[&[1.0f32, 2.0][..], &[3.0]]);
    }
}
