//! # topk-cpu — host-side top-K selection
//!
//! The paper's §1/§2.2 frame the CPU state of the art: "heap is the
//! typical data structure used for this purpose in a sequential
//! algorithm, however, heap operations are difficult to parallelize".
//! This crate supplies both sides of that sentence:
//!
//! * [`heap_topk`] — the classic sequential bounded max-heap select,
//!   `O(N log K)` with a tight inner loop (the algorithm every
//!   `std::collections::BinaryHeap`-based snippet implements);
//! * [`parallel_topk`] — the practical way around the
//!   hard-to-parallelise heap: chunk the input across threads, run a
//!   private heap per thread (scoped via `crossbeam`), and merge the
//!   per-thread results — the same decompose-and-merge shape as the
//!   GPU's GridSelect, at core rather than warp granularity.
//!
//! Both return `(values, indices)` with the same smallest-K multiset
//! contract as the GPU algorithms (ties by count, `-0.0 < +0.0`,
//! NaN-free input), so they double as fast host references for the
//! test-suite and as CPU baselines in examples. An invalid `k` is a
//! typed [`TopKError::InvalidK`], as on the device path, never a panic.

use topk_core::keys::RadixKey;
use topk_core::TopKError;

/// One (ordered-bits key, input index) candidate.
type Entry<O> = (O, u32);

/// Sequential bounded-heap top-K: maintain a max-heap of the K
/// smallest seen; each new element is compared against the heap root.
///
/// Returns `(values, indices)` sorted ascending by value. `O(N log K)`
/// worst case, `O(N)` expected once the heap is warm (most elements
/// fail the root comparison).
///
/// ```
/// let data = [5.0f32, -1.0, 3.0, -1.0, 9.0];
/// let (values, indices) = topk_cpu::heap_topk(&data, 3).unwrap();
/// assert_eq!(values, vec![-1.0, -1.0, 3.0]);
/// assert_eq!(data[indices[2] as usize], 3.0);
/// assert!(topk_cpu::heap_topk(&data, 0).is_err());
/// assert!(topk_cpu::heap_topk(&data, 6).is_err());
/// ```
///
/// # Errors
/// [`TopKError::InvalidK`] if `k == 0` or `k > input.len()`.
pub fn heap_topk<T: RadixKey>(input: &[T], k: usize) -> Result<(Vec<T>, Vec<u32>), TopKError> {
    check_k("heap_topk", input, k)?;
    Ok(unpack::<T>(heap_select(input, k)))
}

/// The `k` smallest entries of `input` (`1 <= k <= input.len()`),
/// ascending.
fn heap_select<T: RadixKey>(input: &[T], k: usize) -> Vec<Entry<T::Ordered>> {
    let mut heap: Vec<Entry<T::Ordered>> = Vec::with_capacity(k);

    for (i, &v) in input.iter().enumerate() {
        let key = v.to_ordered();
        if heap.len() < k {
            heap.push((key, i as u32));
            if heap.len() == k {
                build_max_heap(&mut heap);
            }
        } else if key < heap[0].0 {
            heap[0] = (key, i as u32);
            sift_down(&mut heap, 0);
        }
    }

    // Heap-sort the survivors into ascending order.
    let mut entries = heap;
    let mut end = entries.len();
    while end > 1 {
        end -= 1;
        entries.swap(0, end);
        sift_down(&mut entries[..end], 0);
    }
    entries
}

/// Parallel chunked top-K: split the input into per-thread chunks, run
/// the sequential heap select privately on each (no shared state, no
/// locks), then merge the `threads × K` survivors with one final sort.
///
/// `threads == 0` means "use available parallelism". Results are
/// identical (as a multiset) to the sequential algorithm.
///
/// # Errors
/// [`TopKError::InvalidK`] if `k == 0` or `k > input.len()`.
pub fn parallel_topk<T: RadixKey>(
    input: &[T],
    k: usize,
    threads: usize,
) -> Result<(Vec<T>, Vec<u32>), TopKError> {
    check_k("parallel_topk", input, k)?;
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let chunk = input.len().div_ceil(threads).max(1);
    if threads == 1 || input.len() <= chunk {
        return heap_topk(input, k);
    }

    // Scoped threads: each worker selects within its chunk (taking at
    // most k survivors; a chunk shorter than k contributes everything).
    let partials: Vec<Vec<Entry<T::Ordered>>> = crossbeam::scope(|s| {
        let handles: Vec<_> = input
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                s.spawn(move |_| {
                    let base = (ci * chunk) as u32;
                    let mut entries = heap_select(slice, k.min(slice.len()));
                    for e in &mut entries {
                        e.1 += base;
                    }
                    entries
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .expect("worker panicked");

    // Merge: the survivors are few (≤ threads·k); one sort suffices.
    let mut all: Vec<Entry<T::Ordered>> = partials.into_iter().flatten().collect();
    all.sort_unstable();
    all.truncate(k);
    Ok(unpack::<T>(all))
}

fn check_k<T>(algorithm: &'static str, input: &[T], k: usize) -> Result<(), TopKError> {
    TopKError::check_k(algorithm, input.len(), k, None).map_or(Ok(()), Err)
}

fn unpack<T: RadixKey>(entries: Vec<Entry<T::Ordered>>) -> (Vec<T>, Vec<u32>) {
    let values = entries.iter().map(|&(o, _)| T::from_ordered(o)).collect();
    let indices = entries.iter().map(|&(_, i)| i).collect();
    (values, indices)
}

fn build_max_heap<O: Ord + Copy>(heap: &mut [Entry<O>]) {
    for i in (0..heap.len() / 2).rev() {
        sift_down(heap, i);
    }
}

fn sift_down<O: Ord + Copy>(heap: &mut [Entry<O>], mut i: usize) {
    let n = heap.len();
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut largest = i;
        if l < n && heap[l].0 > heap[largest].0 {
            largest = l;
        }
        if r < n && heap[r].0 > heap[largest].0 {
            largest = r;
        }
        if largest == i {
            return;
        }
        heap.swap(i, largest);
        i = largest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Distribution};
    use proptest::prelude::*;
    use topk_core::verify::verify_topk;

    #[test]
    fn heap_matches_reference_on_all_distributions() {
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 10_000, 3);
            for k in [1usize, 7, 100, 9_999, 10_000] {
                let (v, i) = heap_topk(&data, k).unwrap();
                verify_topk(&data, k, &v, &i).unwrap();
                assert!(
                    v.windows(2).all(|w| w[0].to_ordered() <= w[1].to_ordered()),
                    "ascending output"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = generate(Distribution::Normal, 50_000, 9);
        for threads in [1usize, 2, 3, 8] {
            for k in [1usize, 64, 5000] {
                let (pv, pi) = parallel_topk(&data, k, threads).unwrap();
                verify_topk(&data, k, &pv, &pi).unwrap();
                let (sv, _) = heap_topk(&data, k).unwrap();
                let a: Vec<u32> = pv.iter().map(|x| x.to_ordered()).collect();
                let b: Vec<u32> = sv.iter().map(|x| x.to_ordered()).collect();
                assert_eq!(a, b, "threads={threads} k={k}");
            }
        }
    }

    #[test]
    fn ties_and_specials() {
        let data = vec![
            1.0f32,
            1.0,
            -0.0,
            0.0,
            f32::NEG_INFINITY,
            f32::INFINITY,
            1.0,
        ];
        for k in 1..=data.len() {
            let (v, i) = heap_topk(&data, k).unwrap();
            verify_topk(&data, k, &v, &i).unwrap();
            let (v, i) = parallel_topk(&data, k, 3).unwrap();
            verify_topk(&data, k, &v, &i).unwrap();
        }
    }

    #[test]
    fn integer_and_64_bit_keys() {
        let du: Vec<u64> = (0..5000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let (v, idx) = heap_topk(&du, 33).unwrap();
        let mut expect = du.clone();
        expect.sort_unstable();
        expect.truncate(33);
        assert_eq!(v, expect);
        for (vv, ii) in v.iter().zip(idx) {
            assert_eq!(du[ii as usize], *vv);
        }
        let di: Vec<i32> = du.iter().map(|&x| x as i32).collect();
        let (v, _) = parallel_topk(&di, 17, 4).unwrap();
        let mut expect = di.clone();
        expect.sort_unstable();
        expect.truncate(17);
        assert_eq!(v, expect);
    }

    #[test]
    fn chunk_boundary_indices_are_global() {
        // The smallest element sits in the last chunk; its index must
        // come back global, not chunk-relative.
        let mut data = vec![10.0f32; 1000];
        data[997] = -5.0;
        let (v, i) = parallel_topk(&data, 1, 4).unwrap();
        assert_eq!(v, vec![-5.0]);
        assert_eq!(i, vec![997]);
    }

    #[test]
    fn invalid_k_is_a_typed_error_not_a_panic() {
        let data = [3.0f32, 1.0, 2.0];
        for k in [0usize, 4] {
            for (algorithm, got) in [
                ("heap_topk", heap_topk(&data, k)),
                ("parallel_topk", parallel_topk(&data, k, 2)),
            ] {
                match got {
                    Err(TopKError::InvalidK {
                        algorithm: a,
                        k: bad,
                        n: 3,
                        max_k: None,
                    }) => assert_eq!((a, bad), (algorithm, k)),
                    other => panic!("{algorithm} k={k}: {other:?}"),
                }
            }
        }
        assert!(heap_topk::<f32>(&[], 1).is_err());
        assert!(parallel_topk::<f32>(&[], 1, 0).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn heap_and_parallel_always_verify(
            data in prop::collection::vec(-1e30f32..1e30, 1..400),
            kf in 0.0f64..=1.0,
            threads in 1usize..5,
        ) {
            let k = ((data.len() as f64 * kf) as usize).clamp(1, data.len());
            let (v, i) = heap_topk(&data, k).unwrap();
            prop_assert!(verify_topk(&data, k, &v, &i).is_ok());
            let (v, i) = parallel_topk(&data, k, threads).unwrap();
            prop_assert!(verify_topk(&data, k, &v, &i).is_ok());
        }
    }
}
