//! Property tests for the observability spine: concurrent histogram
//! recording conserves count and sum through snapshots, and histogram
//! quantiles bound the exact sorted rank.

use std::sync::Arc;

use proptest::prelude::*;
use systolic::obs::{bucket_index, Histogram, Registry, HISTOGRAM_BUCKETS};

/// Deterministic value stream (xorshift64) spanning every magnitude:
/// shifting by `i % 64` bits exercises all log2 buckets, including 0.
fn stream(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state >> (i % 64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// N threads record disjoint slices of one value stream while the
    /// main thread snapshots mid-flight: no observation is lost, double
    /// counted, or misfiled, and in-flight snapshots never overshoot.
    #[test]
    fn concurrent_records_conserve_count_and_sum(
        seed in any::<u64>(),
        len in 1usize..400,
        threads in 1usize..5,
    ) {
        let values = stream(seed, len);
        let hist = Arc::new(Histogram::new());
        let expected_count = values.len() as u64;
        let expected_sum = values
            .iter()
            .fold(0u64, |acc, &v| acc.saturating_add(v));
        let expected_max = values.iter().copied().max().unwrap_or(0);

        let chunk = values.len().div_ceil(threads);
        let inflight = std::thread::scope(|scope| {
            for slice in values.chunks(chunk) {
                let hist = Arc::clone(&hist);
                scope.spawn(move || {
                    for &v in slice {
                        hist.record(v);
                    }
                });
            }
            // Snapshot while writers are live.
            hist.snapshot()
        });
        // Mid-flight reads stay within the final totals (monotonic
        // counters, saturating sums) — never phantom observations.
        prop_assert!(inflight.count <= expected_count);
        prop_assert!(inflight.sum <= expected_sum);
        prop_assert!(inflight.max <= expected_max);

        let done = hist.snapshot();
        prop_assert_eq!(done.count, expected_count);
        prop_assert_eq!(done.sum, expected_sum);
        prop_assert_eq!(done.max, expected_max);
        prop_assert_eq!(done.buckets.iter().sum::<u64>(), expected_count);
        // Every value landed in its log2 bucket.
        let mut per_bucket = [0u64; HISTOGRAM_BUCKETS];
        for &v in &values {
            per_bucket[bucket_index(v)] += 1;
        }
        prop_assert_eq!(done.buckets, per_bucket);
    }

    /// A quantile estimate never falls below the exact ranked sample and
    /// overestimates it by at most 2x (one log2 bucket); the exact sort
    /// is the reference.
    #[test]
    fn quantiles_bound_the_exact_rank(
        seed in any::<u64>(),
        len in 1usize..400,
    ) {
        let mut values = stream(seed, len);
        let hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let snapshot = hist.snapshot();
        values.sort_unstable();
        for q in [0.5, 0.99, 1.0] {
            let rank = ((q * len as f64).ceil() as usize).clamp(1, len);
            let exact = values[rank - 1];
            let estimate = snapshot.quantile(q);
            prop_assert!(
                estimate >= exact,
                "q={} underestimates: {} < {}", q, estimate, exact
            );
            prop_assert!(
                estimate <= exact.saturating_mul(2),
                "q={} overestimates by more than 2x: {} vs {}", q, estimate, exact
            );
        }
    }

    /// The same conservation holds through the registry: label-sharded
    /// series merge back to the full stream in `histogram_total`.
    #[test]
    fn registry_merge_conserves_across_label_series(
        seed in any::<u64>(),
        len in 1usize..200,
    ) {
        let values = stream(seed, len);
        let registry = Registry::new();
        for (i, &v) in values.iter().enumerate() {
            let shard = ["a", "b", "c"][i % 3];
            registry
                .histogram_with("prop_merge_micros", &[("shard", shard)])
                .record(v);
        }
        let merged = registry.snapshot().histogram_total("prop_merge_micros");
        let expected_sum = values
            .iter()
            .fold(0u64, |acc, &v| acc.saturating_add(v));
        prop_assert_eq!(merged.count, values.len() as u64);
        prop_assert_eq!(merged.sum, expected_sum);
        prop_assert_eq!(merged.max, values.iter().copied().max().unwrap_or(0));
    }
}
