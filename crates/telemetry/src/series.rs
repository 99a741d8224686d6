//! Bounded time series keyed on the two-clock [`Stamp`], plus the shared
//! series algorithms (`mean`, `regime_transitions`) that
//! `waypart_perfmon::MpkiSeries` adapts.
//!
//! A [`TimeSeries`] is a ring of at most `capacity` points. When it
//! fills, adjacent point pairs are averaged in place and the sampling
//! stride doubles, so arbitrarily long runs cost O(capacity) memory
//! while the stored points keep covering the whole run — the standard
//! downsample-on-overflow scheme for long-horizon dashboards. The first
//! push pins the series to its stamp's clock; later pushes from the
//! other clock are dropped and counted, enforcing design rule 1 (two
//! clocks, never mixed) at the aggregation layer too.

use crate::event::Stamp;

/// A bounded, downsampling time series of `(ticks, value)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    capacity: usize,
    clock: Option<&'static str>,
    points: Vec<(u64, f64)>,
    /// Original samples represented by each stored point (doubles on
    /// every overflow halving).
    stride: u64,
    /// Samples accumulated toward the next stored point.
    acc_count: u64,
    acc_ts: u64,
    acc_sum: f64,
    /// Samples ever pushed on the series' clock.
    total: u64,
    /// Pushes dropped for arriving on the wrong clock.
    clock_mismatches: u64,
}

impl TimeSeries {
    /// A series storing at most `capacity` points (rounded up to an even
    /// minimum of 2 so overflow halving is exact).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2) & !1;
        TimeSeries {
            capacity,
            clock: None,
            points: Vec::new(),
            stride: 1,
            acc_count: 0,
            acc_ts: 0,
            acc_sum: 0.0,
            total: 0,
            clock_mismatches: 0,
        }
    }

    /// Pushes one sample. The first push decides the series' clock;
    /// samples from the other clock are dropped (see module docs).
    pub fn push(&mut self, stamp: Stamp, value: f64) {
        let clock = stamp.clock_name();
        match self.clock {
            None => self.clock = Some(clock),
            Some(c) if c != clock => {
                self.clock_mismatches += 1;
                return;
            }
            Some(_) => {}
        }
        self.total += 1;
        if self.acc_count == 0 {
            self.acc_ts = stamp.ticks();
        }
        self.acc_sum += value;
        self.acc_count += 1;
        if self.acc_count < self.stride {
            return;
        }
        self.points.push((self.acc_ts, self.acc_sum / self.acc_count as f64));
        self.acc_count = 0;
        self.acc_sum = 0.0;
        if self.points.len() == self.capacity {
            // Halve in place: each surviving point keeps the earlier
            // timestamp and averages the pair's values.
            for i in 0..self.capacity / 2 {
                let (ts, a) = self.points[2 * i];
                let (_, b) = self.points[2 * i + 1];
                self.points[i] = (ts, (a + b) / 2.0);
            }
            self.points.truncate(self.capacity / 2);
            self.stride *= 2;
        }
    }

    /// The stored `(ticks, value)` points, oldest first.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Stored point count (≤ capacity).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no point has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum stored points.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Original samples per stored point.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Samples ever pushed on the series' clock.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Pushes dropped for arriving on the wrong clock.
    pub fn clock_mismatches(&self) -> u64 {
        self.clock_mismatches
    }

    /// The clock name, once pinned by the first push.
    pub fn clock_name(&self) -> Option<&'static str> {
        self.clock
    }

    /// Mean of the stored points' values.
    pub fn mean(&self) -> f64 {
        mean(self.points.iter().map(|p| p.1))
    }

    /// Debounced low/high regime crossings of the stored values (see
    /// [`regime_transitions`]).
    pub fn regime_transitions(&self, threshold: f64, min_run: usize) -> usize {
        regime_transitions(self.points.iter().map(|p| p.1), threshold, min_run)
    }

    /// Renders this series as one `{"record":"series",...}` JSONL line
    /// (no trailing newline); see [`crate::schema`] for the contract.
    pub fn to_json_record(&self, name: &str, tid: u32) -> String {
        let mut out = String::with_capacity(64 + self.points.len() * 16);
        out.push_str("{\"record\":\"series\",\"name\":");
        crate::event::push_json_str(&mut out, name);
        out.push_str(&format!(
            ",\"tid\":{tid},\"clock\":\"{}\",\"stride\":{},\"total\":{},\"points\":[",
            self.clock.unwrap_or("cycles"),
            self.stride,
            self.total
        ));
        for (i, &(ts, v)) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{ts},"));
            crate::event::push_json_value(&mut out, &crate::event::FieldValue::F64(v));
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// Mean of a value stream (0 when empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Counts transitions between "low" and "high" regimes relative to
/// `threshold`, requiring `min_run` consecutive samples on a side before
/// a crossing counts (debounce). `min_run` of 0 behaves like 1 — a
/// single sample is always a run of length ≥ 1 — so every undebounced
/// crossing counts.
///
/// This is the algorithm behind `MpkiSeries::regime_transitions` (the
/// Figure 12 phase-transition check); the perfmon type delegates here so
/// there is one implementation.
pub fn regime_transitions(
    values: impl IntoIterator<Item = f64>,
    threshold: f64,
    min_run: usize,
) -> usize {
    let mut transitions = 0;
    let mut side: Option<bool> = None;
    let mut run = 0usize;
    let mut pending: Option<bool> = None;
    for v in values {
        let s = v > threshold;
        match pending {
            Some(p) if p == s => run += 1,
            _ => {
                pending = Some(s);
                run = 1;
            }
        }
        if run >= min_run {
            if let Some(cur) = side {
                if cur != s {
                    transitions += 1;
                }
            }
            side = Some(s);
        }
    }
    transitions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_points_in_order() {
        let mut s = TimeSeries::new(8);
        for i in 0..5u64 {
            s.push(Stamp::Cycles(i * 10), i as f64);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.points()[3], (30, 3.0));
        assert_eq!(s.clock_name(), Some("cycles"));
    }

    #[test]
    fn overflow_halves_and_doubles_stride() {
        let mut s = TimeSeries::new(4);
        for i in 0..4u64 {
            s.push(Stamp::Cycles(i), i as f64);
        }
        // 4 points hit capacity → halved to 2, stride 2.
        assert_eq!(s.stride(), 2);
        assert_eq!(s.points(), &[(0, 0.5), (2, 2.5)]);
        // The next two pushes form one stride-2 point.
        s.push(Stamp::Cycles(4), 4.0);
        assert_eq!(s.len(), 2, "mid-stride samples stay in the accumulator");
        s.push(Stamp::Cycles(5), 5.0);
        assert_eq!(s.points(), &[(0, 0.5), (2, 2.5), (4, 4.5)]);
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn memory_stays_bounded_over_long_runs() {
        let mut s = TimeSeries::new(64);
        for i in 0..100_000u64 {
            s.push(Stamp::WallUs(i), (i % 7) as f64);
        }
        assert!(s.len() <= 64);
        assert_eq!(s.total(), 100_000);
        assert!(s.stride() >= 100_000 / 64);
        // Downsampling averages, so the mean survives roughly intact.
        assert!((s.mean() - 3.0).abs() < 0.5, "mean drifted to {}", s.mean());
    }

    #[test]
    fn wrong_clock_pushes_are_dropped() {
        let mut s = TimeSeries::new(4);
        s.push(Stamp::Cycles(1), 1.0);
        s.push(Stamp::WallUs(2), 9.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.clock_mismatches(), 1);
        assert_eq!(s.total(), 1);
    }

    #[test]
    fn tiny_capacities_are_clamped_even() {
        assert_eq!(TimeSeries::new(0).capacity(), 2);
        assert_eq!(TimeSeries::new(5).capacity(), 4);
    }

    #[test]
    fn mean_and_transitions_match_module_functions() {
        let vals = [1.0, 1.0, 9.0, 9.0, 1.0, 1.0];
        let mut s = TimeSeries::new(16);
        for (i, &v) in vals.iter().enumerate() {
            s.push(Stamp::Cycles(i as u64), v);
        }
        assert_eq!(s.mean(), mean(vals));
        assert_eq!(s.regime_transitions(5.0, 2), 2);
        assert_eq!(regime_transitions(vals, 5.0, 2), 2);
    }

    #[test]
    fn regime_transitions_min_run_zero_acts_like_one() {
        let vals = [1.0, 9.0, 1.0, 9.0];
        assert_eq!(regime_transitions(vals, 5.0, 0), 3);
        assert_eq!(regime_transitions(vals, 5.0, 1), 3);
    }

    #[test]
    fn regime_transitions_edge_cases() {
        assert_eq!(regime_transitions([], 5.0, 2), 0);
        assert_eq!(regime_transitions([9.0], 5.0, 1), 0, "single sample cannot transition");
    }

    #[test]
    fn json_record_shape() {
        let mut s = TimeSeries::new(4);
        s.push(Stamp::Cycles(10), 1.5);
        s.push(Stamp::Cycles(20), 2.5);
        let line = s.to_json_record("perfmon.window.mpki", 3);
        assert!(line.starts_with("{\"record\":\"series\",\"name\":\"perfmon.window.mpki\""));
        assert!(line.contains("\"clock\":\"cycles\""));
        assert!(line.contains("[10,1.5],[20,2.5]"));
        crate::schema::validate_line(&line).expect("series record validates");
    }
}
