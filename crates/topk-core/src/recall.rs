//! Analytic recall model shared by the approximate top-K families.
//!
//! Both approximate algorithms in this crate — the bucketed
//! single-pass selector ([`crate::bucketed::BucketedTopK`], after
//! "Approximate Top-k for Increased Parallelism") and the generalized
//! two-stage selector ([`crate::twostage::TwoStageTopK`]) — share one
//! structural approximation: the input is cut into `P` parts, each
//! part independently keeps its `c` smallest elements, and anything a
//! part fails to keep is lost. For exchangeable (i.i.d.) inputs the
//! number of *true* top-K members landing in any one part is
//! `X ~ Binomial(K, 1/P)`, that part contributes `min(X, c)` of them,
//! and by linearity of expectation
//!
//! ```text
//! E[recall] = (1/K) · Σ_parts E[min(X, c_part)]
//! E[min(X, c)] = c − Σ_{x=0}^{c−1} (c − x) · P(X = x)
//! ```
//!
//! This is *exact* for i.i.d. inputs (the per-part counts are
//! marginally binomial even though they are jointly multinomial —
//! linearity does not need independence), which is precisely the
//! regime the datagen distributions model; the recall property tests
//! in `tests/recall.rs` hold the measured recall against it. The
//! planners ([`plan_bucketed`], [`plan_two_stage`]) invert the model:
//! given a recall target they pick the cheapest partitioning whose
//! expected recall still clears it.

/// `E[min(X, cap)]` where `X ~ Binomial(k, 1/parts)`.
///
/// The binomial pmf is accumulated iteratively in `f64`:
/// `P(0) = (1−p)^k`, `P(x+1) = P(x) · (k−x)/(x+1) · p/(1−p)`.
fn expected_min_binomial(k: usize, parts: usize, cap: usize) -> f64 {
    if cap == 0 {
        return 0.0;
    }
    if parts <= 1 {
        // X = k deterministically.
        return k.min(cap) as f64;
    }
    if cap >= k {
        // min(X, cap) = X, and E[X] = k/parts.
        return k as f64 / parts as f64;
    }
    let p = 1.0 / parts as f64;
    let ratio = p / (1.0 - p);
    let mut pmf = (1.0 - p).powi(k as i32);
    let mut shortfall = 0.0; // Σ (cap − x) · P(X = x) for x < cap
    for x in 0..cap {
        shortfall += (cap - x) as f64 * pmf;
        pmf *= (k - x) as f64 / (x + 1) as f64 * ratio;
    }
    cap as f64 - shortfall
}

/// Expected recall when the input is split into `parts` equal parts
/// and each keeps its `take` smallest elements (the two-stage shape:
/// every partition keeps top-k′, the exact reduce loses nothing that
/// survived stage one).
pub fn expected_recall(k: usize, parts: usize, take: usize) -> f64 {
    if k == 0 || parts <= 1 || take >= k {
        return 1.0;
    }
    (parts as f64 * expected_min_binomial(k, parts, take) / k as f64).min(1.0)
}

/// Expected recall with per-part keep counts (the bucketed shape: the
/// last bucket keeps fewer so the outputs total exactly K).
pub fn expected_recall_parts(k: usize, takes: &[usize]) -> f64 {
    let parts = takes.len();
    if k == 0 || parts <= 1 || takes.iter().all(|&t| t >= k) {
        return 1.0;
    }
    let total: f64 = takes
        .iter()
        .map(|&t| expected_min_binomial(k, parts, t))
        .sum();
    (total / k as f64).min(1.0)
}

/// `(E[min(X, cap)], Var[min(X, cap)])` where `X ~ Binomial(k, 1/parts)`,
/// from the same iterated pmf as [`expected_min_binomial`].
fn min_binomial_moments(k: usize, parts: usize, cap: usize) -> (f64, f64) {
    if parts <= 1 || cap == 0 {
        // X = k deterministically, or nothing is kept.
        return (k.min(cap) as f64, 0.0);
    }
    let p = 1.0 / parts as f64;
    let ratio = p / (1.0 - p);
    let mut pmf = (1.0 - p).powi(k as i32);
    let (mut below, mut m1, mut m2) = (0.0, 0.0, 0.0);
    for x in 0..cap.min(k + 1) {
        below += pmf;
        m1 += x as f64 * pmf;
        m2 += (x * x) as f64 * pmf;
        pmf *= (k - x) as f64 / (x + 1) as f64 * ratio;
    }
    // The remaining mass sits at min(X, cap) = cap.
    let tail = (1.0 - below).max(0.0);
    let capped = cap.min(k) as f64;
    m1 += capped * tail;
    m2 += capped * capped * tail;
    (m1, (m2 - m1 * m1).max(0.0))
}

/// Upper bound on the standard deviation of the recall of one problem
/// under the per-part keep counts `takes` (i.i.d. inputs). The per-part
/// counts are jointly multinomial, hence negatively associated, and
/// `min(X, c)` is non-decreasing, so the kept counts covary
/// non-positively: the variance of their sum is at most the sum of
/// their variances.
pub fn recall_sd_bound(k: usize, takes: &[usize]) -> f64 {
    if k == 0 || takes.len() <= 1 || takes.iter().all(|&t| t >= k) {
        return 0.0;
    }
    let var: f64 = takes
        .iter()
        .map(|&t| min_binomial_moments(k, takes.len(), t).1)
        .sum();
    var.sqrt() / k as f64
}

/// A bucketed plan: `buckets` blocks each keep `per_bucket` winners
/// (the last keeps `k − (buckets−1)·per_bucket`), totalling exactly K.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketedPlan {
    /// Number of contiguous buckets (= blocks).
    pub buckets: usize,
    /// Winners kept per bucket (last bucket keeps the remainder).
    pub per_bucket: usize,
}

impl BucketedPlan {
    /// Per-bucket keep counts, length `buckets`, summing to `k`.
    pub fn takes(&self, k: usize) -> Vec<usize> {
        let mut takes = vec![self.per_bucket; self.buckets];
        if let Some(last) = takes.last_mut() {
            *last = k - (self.buckets - 1) * self.per_bucket;
        }
        takes
    }

    /// Expected recall of this plan for problem size `k` (i.i.d.
    /// inputs).
    pub fn expected_recall(&self, k: usize) -> f64 {
        expected_recall_parts(k, &self.takes(k))
    }
}

/// Cheapest bucketed plan whose expected recall clears `target`:
/// smallest `per_bucket` (most buckets, most parallelism, least work
/// per block) that still meets the target and leaves every bucket at
/// least `per_bucket` elements to choose from. `per_bucket = k`
/// (one bucket) is exact, so a plan always exists for `k ≤ n`.
pub fn plan_bucketed(n: usize, k: usize, target: f64) -> BucketedPlan {
    for per_bucket in 1..k {
        let buckets = k.div_ceil(per_bucket);
        // Every bucket must cover at least per_bucket elements.
        if n / buckets < per_bucket {
            continue;
        }
        let plan = BucketedPlan {
            buckets,
            per_bucket,
        };
        if plan.expected_recall(k) >= target {
            return plan;
        }
    }
    BucketedPlan {
        buckets: 1,
        per_bucket: k,
    }
}

/// A two-stage plan: `partitions` blocks each keep their `k_prime`
/// smallest, then one exact reduce over `partitions · k_prime`
/// candidates returns K.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoStagePlan {
    /// Stage-one partition count (= stage-one blocks).
    pub partitions: usize,
    /// Candidates each partition keeps (k′).
    pub k_prime: usize,
}

impl TwoStagePlan {
    /// Stage-two candidate count.
    pub fn candidates(&self) -> usize {
        self.partitions * self.k_prime
    }

    /// Expected recall of this plan for problem size `k` (i.i.d.
    /// inputs). The exact reduce keeps every true member that
    /// survived stage one, so the stage-one survival *is* the recall.
    pub fn expected_recall(&self, k: usize) -> f64 {
        expected_recall(k, self.partitions, self.k_prime)
    }
}

/// Cheapest two-stage plan clearing `target`: the partition count
/// follows the device-saturating default (one block per ~8K-element
/// slice, clamped to `[2, 64]`), then the smallest k′ meeting the
/// target wins. k′ is floored at `⌈k/P⌉` so the reduce always has at
/// least K candidates, and capped at the partition size.
pub fn plan_two_stage(n: usize, k: usize, target: f64) -> TwoStagePlan {
    let partitions = (n / crate::air::ONE_BLOCK_THRESHOLD).clamp(2, 64);
    let part_len = n / partitions;
    let floor = k.div_ceil(partitions).max(1);
    for k_prime in floor..=k.min(part_len) {
        let plan = TwoStagePlan {
            partitions,
            k_prime,
        };
        if plan.expected_recall(k) >= target {
            return plan;
        }
    }
    // k′ = min(k, part_len); if even that misses the target the
    // caller's gate (k ≤ n/partitions) was violated — fall back to
    // the most faithful feasible plan.
    TwoStagePlan {
        partitions,
        k_prime: k.min(part_len).max(floor),
    }
}

/// Measured value-multiset recall of an approximate answer:
/// `|approx ∩ exact top-K| / K`, where the intersection is over value
/// *multisets* (bit-exact f32 comparison). Tie-robust: any copy of a
/// boundary value counts, which is the only fair reading when the
/// input holds duplicates (Zipf-shaped data especially).
pub fn measured_recall(data: &[f32], k: usize, approx: &[f32]) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let mut sorted = data.to_vec();
    sorted.select_nth_unstable_by(k - 1, f32::total_cmp);
    let mut want: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for v in &sorted[..k] {
        *want.entry(v.to_bits()).or_default() += 1;
    }
    let mut hit = 0usize;
    for v in approx {
        if let Some(c) = want.get_mut(&v.to_bits()) {
            if *c > 0 {
                *c -= 1;
                hit += 1;
            }
        }
    }
    hit as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_shapes_are_exact() {
        assert_eq!(expected_recall(100, 1, 1), 1.0);
        assert_eq!(expected_recall(100, 8, 100), 1.0);
        assert_eq!(expected_recall(0, 8, 1), 1.0);
        assert_eq!(expected_recall_parts(10, &[10, 10]), 1.0);
    }

    #[test]
    fn min_binomial_moments_match_the_pmf() {
        let (k, parts) = (12usize, 3usize);
        let p = 1.0 / parts as f64;
        let pmf = |x: usize| {
            let choose = (0..x).fold(1.0, |c, i| c * (k - i) as f64 / (i + 1) as f64);
            choose * p.powi(x as i32) * (1.0 - p).powi((k - x) as i32)
        };
        for cap in [1usize, 4, 7, 12, 20] {
            let m1: f64 = (0..=k).map(|x| x.min(cap) as f64 * pmf(x)).sum();
            let m2: f64 = (0..=k).map(|x| (x.min(cap) as f64).powi(2) * pmf(x)).sum();
            let (e, var) = min_binomial_moments(k, parts, cap);
            assert!((e - m1).abs() < 1e-9, "cap={cap}: {e} vs {m1}");
            assert!((e - expected_min_binomial(k, parts, cap)).abs() < 1e-9);
            assert!((var - (m2 - m1 * m1)).abs() < 1e-9, "cap={cap}");
        }
        assert_eq!(recall_sd_bound(64, &[64]), 0.0, "one part is exact");
        assert_eq!(recall_sd_bound(64, &[64, 64]), 0.0, "keeping all is exact");
    }

    #[test]
    fn recall_is_monotone_in_take() {
        let mut prev = 0.0;
        for take in 1..=64 {
            let r = expected_recall(64, 8, take);
            assert!(r >= prev, "take={take}: {r} < {prev}");
            assert!((0.0..=1.0).contains(&r));
            prev = r;
        }
        assert_eq!(prev, 1.0);
    }

    #[test]
    fn recall_increases_with_more_parts_at_fixed_take() {
        // At a fixed per-part keep, more parts keep more candidates
        // in total (parts · take), so recall rises toward 1.
        let mut prev = 0.0;
        for parts in [2usize, 4, 8, 16, 32] {
            let r = expected_recall(64, parts, 8);
            assert!(r >= prev - 1e-12, "parts={parts}: {r} < {prev}");
            prev = r;
        }
        assert!(prev > 0.95, "32 parts x 8 keeps should be near-exact");
    }

    #[test]
    fn expected_min_matches_monte_carlo() {
        // Cheap deterministic Monte-Carlo cross-check of the pmf
        // accumulation (SplitMix64, no external RNG dependency).
        let (k, parts, cap) = (32usize, 4usize, 4usize);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let trials = 40_000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let mut x = 0usize;
            for _ in 0..k {
                if next() % parts as u64 == 0 {
                    x += 1;
                }
            }
            acc += x.min(cap) as f64;
        }
        let mc = acc / trials as f64;
        let analytic = expected_min_binomial(k, parts, cap);
        assert!(
            (mc - analytic).abs() < 0.05,
            "mc={mc:.4} analytic={analytic:.4}"
        );
    }

    #[test]
    fn bucketed_planner_meets_target_and_prefers_parallelism() {
        for &target in &[0.5, 0.8, 0.9, 0.95, 0.99] {
            let plan = plan_bucketed(1 << 16, 256, target);
            assert!(
                plan.expected_recall(256) >= target,
                "target={target}: {plan:?}"
            );
            assert_eq!(plan.takes(256).iter().sum::<usize>(), 256);
        }
        // Tighter targets need bigger per-bucket keeps.
        let loose = plan_bucketed(1 << 16, 256, 0.8);
        let tight = plan_bucketed(1 << 16, 256, 0.99);
        assert!(
            tight.per_bucket > loose.per_bucket,
            "{loose:?} vs {tight:?}"
        );
        // target = 1.0 degenerates to the exact single bucket.
        let exact = plan_bucketed(1 << 16, 256, 1.0);
        assert_eq!(exact.buckets, 1);
        assert_eq!(exact.per_bucket, 256);
    }

    #[test]
    fn two_stage_planner_meets_target_with_enough_candidates() {
        for &target in &[0.5, 0.9, 0.95, 0.99] {
            let plan = plan_two_stage(1 << 18, 128, target);
            assert!(
                plan.expected_recall(128) >= target,
                "target={target}: {plan:?}"
            );
            assert!(plan.candidates() >= 128, "{plan:?}");
            assert!(plan.k_prime <= (1 << 18) / plan.partitions);
        }
        // Two-stage at the same partitioning dominates bucketed: it
        // keeps P·k′ ≥ K candidates where bucketed keeps exactly K.
        let ts = TwoStagePlan {
            partitions: 8,
            k_prime: 16,
        };
        let b = BucketedPlan {
            buckets: 8,
            per_bucket: 16,
        };
        assert!(ts.expected_recall(128) >= b.expected_recall(128));
    }

    #[test]
    fn small_n_clamps_the_partition_count() {
        let plan = plan_two_stage(4096, 64, 0.9);
        assert_eq!(plan.partitions, 2);
        assert!(plan.k_prime <= 2048);
    }
}
