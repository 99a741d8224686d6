//! Property tests for the log-bucketed histogram (`telemetry::hist`).
//!
//! Pins the invariants the dashboard and sentry lean on: every value
//! lands in a bucket whose bounds bracket it, quantiles are monotone in
//! `q`, and every quantile estimate over-approximates the true order
//! statistic by at most one bucket width (relative error ≤ 1/SUBBUCKETS
//! plus the unit rounding of integer bounds).

use proptest::prelude::*;
use waypart_telemetry::hist::{bucket_index, bucket_lower, bucket_upper, Histogram, SUBBUCKETS};

fn build(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// The true `q`-quantile of `samples` under the same ceil-rank convention
/// the histogram uses.
fn true_quantile(samples: &mut Vec<u64>, q: f64) -> u64 {
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

// Mix magnitudes: identity range, mid-range, and huge values, so buckets
// from several octaves participate.
fn sample_strategy() -> impl Strategy<Value = u64> {
    (0u8..3, any::<u64>()).prop_map(|(tier, raw)| match tier {
        0 => raw % 64,
        1 => raw % 100_000,
        _ => raw % (u64::MAX / 2),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bucket_bounds_bracket_every_value(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(bucket_lower(idx) <= v);
        prop_assert!(v <= bucket_upper(idx));
    }

    /// p50 ≤ p90 ≤ p99 ≤ max — quantiles never invert.
    #[test]
    fn quantiles_are_monotone(samples in proptest::collection::vec(sample_strategy(), 1..300)) {
        let h = build(&samples);
        prop_assert!(h.p50() <= h.p90());
        prop_assert!(h.p90() <= h.p99());
        prop_assert!(h.p99() <= h.max());
        prop_assert!(h.min() <= h.p50());
    }

    /// Every estimate brackets the true order statistic from above with
    /// bounded relative error: true_q ≤ est ≤ true_q + true_q/SUBBUCKETS + 1.
    #[test]
    fn quantile_error_is_bounded(
        mut samples in proptest::collection::vec(sample_strategy(), 1..300),
        q in 0.01f64..1.0,
    ) {
        let h = build(&samples);
        let est = h.quantile(q);
        let truth = true_quantile(&mut samples, q);
        prop_assert!(est >= truth, "est {est} under-approximates true {truth}");
        let bound = truth + truth / SUBBUCKETS + 1;
        prop_assert!(est <= bound, "est {est} exceeds bound {bound} (true {truth})");
    }
}
