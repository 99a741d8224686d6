//! Log-bucketed latency histograms — the HDR shape.
//!
//! Serving stacks aggregate per-request latencies into histograms whose
//! buckets grow geometrically, so the memory cost is O(log range) while
//! quantile estimates keep a bounded *relative* error. This is the same
//! shape: values below [`SUBBUCKETS`] get exact unit buckets; above that,
//! every power-of-two octave is split into [`SUBBUCKETS`] linear
//! sub-buckets, bounding the relative bucket width to `1/SUBBUCKETS`
//! (≈ 6.25%).
//!
//! `count`, `sum`, `min` and `max` are tracked exactly; quantiles are
//! bucket upper bounds clamped to the observed max, so every estimate
//! `est` of a true quantile `q` satisfies `q ≤ est ≤ q + q/SUBBUCKETS + 1`
//! (the property tests pin this).
//!
//! The simulator folds each run's per-level access latencies into these
//! and emits them as the run's `sim.latency` summary events (count, min,
//! p50/p90/p99, max, mean); a trace carries those events, not buckets.

/// Linear sub-buckets per power-of-two octave (must be a power of two).
pub const SUBBUCKETS: u64 = 16;
/// log2 of [`SUBBUCKETS`].
const SUB_BITS: u32 = 4;

/// A log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts, indexed by [`bucket_index`]; grown lazily so an
    /// empty or small-valued histogram stays tiny.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// The bucket index for `v` (identity below [`SUBBUCKETS`], log-linear
/// above).
pub fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUBBUCKETS - 1)) as usize;
    group * SUBBUCKETS as usize + sub
}

/// The smallest value mapping to bucket `idx`.
pub fn bucket_lower(idx: usize) -> u64 {
    if idx < SUBBUCKETS as usize {
        return idx as u64;
    }
    let group = idx / SUBBUCKETS as usize;
    let sub = (idx % SUBBUCKETS as usize) as u64;
    let msb = group as u32 + SUB_BITS - 1;
    (SUBBUCKETS + sub) << (msb - SUB_BITS)
}

/// The largest value mapping to bucket `idx` (inclusive).
pub fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBBUCKETS as usize {
        return idx as u64;
    }
    let group = idx / SUBBUCKETS as usize;
    let msb = group as u32 + SUB_BITS - 1;
    // Saturating: the topmost bucket's bound is exactly u64::MAX, which
    // the plain sum would reach only through an overflowing 2^64.
    bucket_lower(idx).saturating_add((1u64 << (msb - SUB_BITS)) - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as a bucket upper bound clamped
    /// to the observed min/max; 0 when empty. `quantile(1.0)` is the
    /// exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every value maps into a bucket whose bounds bracket it, and
        // bucket indices never decrease with the value.
        let mut last_idx = 0;
        for v in (0..4096).chain([u64::MAX / 3, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(bucket_lower(idx) <= v && v <= bucket_upper(idx), "v={v} idx={idx}");
            assert!(idx >= last_idx, "index regressed at v={v}");
            last_idx = idx;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUBBUCKETS {
            h.record(v);
        }
        for v in 0..SUBBUCKETS {
            assert_eq!(bucket_lower(bucket_index(v)), v);
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
        assert_eq!(h.count(), SUBBUCKETS);
    }

    #[test]
    fn exact_stats_and_quantiles_on_known_data() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.quantile(1.0), 100);
        let p50 = h.p50();
        assert!((50..=54).contains(&p50), "p50={p50}");
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99() && h.p99() <= h.max());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!((h.count(), h.min(), h.max(), h.p99()), (0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
    }
}
