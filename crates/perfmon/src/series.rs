//! MPKI time series (the substance of Figure 12), plus the series
//! algorithms behind it: [`mean`] and the debounced [`regime_transitions`]
//! check of Fig 12's phase changes.

use crate::sampler::Sample;
use serde::{Deserialize, Serialize};

/// A windowed MPKI trace for one application run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MpkiSeries {
    /// (retired instructions at window close, window MPKI) pairs — the
    /// axes of Figure 12.
    points: Vec<(u64, f64)>,
}

impl MpkiSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a window.
    pub fn push_sample(&mut self, s: &Sample) {
        self.points.push((s.cumulative.instructions, s.mpki()));
    }

    /// Appends a raw point.
    pub fn push(&mut self, instructions: u64, mpki: f64) {
        self.points.push((instructions, mpki));
    }

    /// The (instructions, mpki) points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Mean window MPKI.
    pub fn mean(&self) -> f64 {
        mean(self.points.iter().map(|p| p.1))
    }

    /// Counts transitions between "low" and "high" MPKI regimes relative
    /// to `threshold`, requiring `min_run` consecutive windows on a side
    /// before a crossing counts (debounce). Used to verify the model
    /// reproduces `429.mcf`'s five phase transitions (Fig 12); see
    /// [`regime_transitions`].
    pub fn regime_transitions(&self, threshold: f64, min_run: usize) -> usize {
        regime_transitions(self.points.iter().map(|p| p.1), threshold, min_run)
    }

    /// Number of windows recorded.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl FromIterator<(u64, f64)> for MpkiSeries {
    fn from_iter<T: IntoIterator<Item = (u64, f64)>>(iter: T) -> Self {
        MpkiSeries { points: iter.into_iter().collect() }
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
    fn mean_of_points() {
        let s: MpkiSeries = vec![(0, 2.0), (1, 4.0), (2, 6.0)].into_iter().collect();
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_series_mean_zero() {
        assert_eq!(MpkiSeries::new().mean(), 0.0);
        assert!(MpkiSeries::new().is_empty());
    }

    #[test]
    fn transitions_counted_with_debounce() {
        // low low low | high high high | low low low → 2 transitions.
        let pts: Vec<(u64, f64)> = [1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 1.0, 1.0, 1.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        let s: MpkiSeries = pts.into_iter().collect();
        assert_eq!(s.regime_transitions(5.0, 2), 2);
    }

    #[test]
    fn debounce_suppresses_single_window_spikes() {
        let pts: Vec<(u64, f64)> = [1.0, 1.0, 9.0, 1.0, 1.0, 1.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        let s: MpkiSeries = pts.into_iter().collect();
        assert_eq!(s.regime_transitions(5.0, 2), 0);
    }

    #[test]
    fn empty_series_has_no_transitions() {
        assert_eq!(MpkiSeries::new().regime_transitions(5.0, 2), 0);
    }

    #[test]
    fn min_run_zero_counts_every_crossing() {
        // min_run 0 degenerates to 1: a sample is always a run of ≥ 1.
        let s: MpkiSeries =
            vec![(0, 1.0), (1, 9.0), (2, 1.0), (3, 9.0)].into_iter().collect();
        assert_eq!(s.regime_transitions(5.0, 0), 3);
        assert_eq!(s.regime_transitions(5.0, 1), 3);
    }

    #[test]
    fn mean_and_transitions_match_module_functions() {
        let vals = [1.0, 1.0, 9.0, 9.0, 1.0, 1.0];
        let s: MpkiSeries = vals.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect();
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
    fn single_sample_never_transitions() {
        let s: MpkiSeries = vec![(0, 9.0)].into_iter().collect();
        assert_eq!(s.regime_transitions(5.0, 1), 0);
        assert!((s.mean() - 9.0).abs() < 1e-12);
    }
}
