//! Algorithm 6.2 — the dynamic cache-partitioning controller.
//!
//! When the foreground application starts or changes phase, the controller
//! grants it as much LLC as possible (11 of 12 ways on the modeled
//! machine), then *gradually reclaims* ways for the background until the
//! foreground's MPKI reacts, at which point it gives one way back and
//! freezes until the next phase change. Reallocation only reprograms the
//! replacement masks — no data moves or flushes — so its overhead is
//! negligible (§6.3). Pseudocode from the paper:
//!
//! ```text
//! if phase_det() == 2 { phase_starts = 1; set_cache_to_6MB(fg) }
//! else if phase_det() == 0 and phase_starts == 1 {
//!     if |last_MPKI - current_MPKI| < MPKI_THR3 {
//!         if cache_allocated > 1MB { allocate_less_cache(fg) }
//!         else { phase_starts = 0 }            // keep 1 MB
//!     } else {
//!         if cache_allocated < 6MB { allocate_more_cache(fg) }
//!         phase_starts = 0                     // keep previous allocation
//!     }
//! }
//! last_MPKI = current_MPKI
//! ```

use crate::controller::{emit_explain, split_masks, Controller, WindowView};
use crate::phase::{rel_dev, PhaseDetector, PhaseEvent, PhaseThresholds};
use serde::{Deserialize, Serialize};
use waypart_sim::WayMask;
use waypart_telemetry::{self as telemetry, Event, Stamp};

/// Telemetry name for a phase verdict.
fn phase_name(event: PhaseEvent) -> &'static str {
    match event {
        PhaseEvent::Stable => "stable",
        PhaseEvent::InTransition => "in_transition",
        PhaseEvent::PhaseStart => "phase_start",
    }
}

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicConfig {
    /// Total LLC ways (12 on the modeled machine).
    pub total_ways: usize,
    /// Largest foreground allocation (11 ways — the background always
    /// keeps at least one way).
    pub max_fg_ways: usize,
    /// Smallest foreground allocation (2 ways ≈ 1 MB of a 6 MB LLC).
    pub min_fg_ways: usize,
    /// Phase-detection thresholds (THR1/THR2 for Alg 6.1, THR3 here).
    pub thresholds: PhaseThresholds,
}

impl DynamicConfig {
    /// The paper's configuration for the 12-way 6 MB LLC.
    pub fn paper() -> Self {
        DynamicConfig { total_ways: 12, max_fg_ways: 11, min_fg_ways: 2, thresholds: PhaseThresholds::paper() }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics if the way bounds are inconsistent.
    pub fn validate(&self) {
        assert!(self.total_ways >= 2);
        assert!(self.max_fg_ways < self.total_ways, "background must keep at least one way");
        assert!(self.min_fg_ways >= 1 && self.min_fg_ways <= self.max_fg_ways);
        self.thresholds.validate();
    }
}

/// A controller's allocation as named masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reallocation {
    /// Foreground mask.
    pub fg: WayMask,
    /// Background mask (the complement).
    pub bg: WayMask,
}

/// Reallocation step in ways: 1 MB of the 6 MB, 12-way LLC.
const WAYS_STEP: usize = 2;

/// The dynamic partitioner (Algorithms 6.1 + 6.2 combined).
#[derive(Debug, Clone)]
pub struct DynamicPartitioner {
    cfg: DynamicConfig,
    detector: PhaseDetector,
    fg_ways: usize,
    /// `phase_starts` in the paper's pseudocode: a reclamation episode is
    /// in progress.
    reclaiming: bool,
    /// The smoothed MPKI of the previous window, the reference the
    /// stability check compares against.
    last_mpki: Option<f64>,
    /// Raw window history for the median-of-3 smoother. Co-runner
    /// lap/interference cycles can swing a single window's MPKI by tens of
    /// percent; the median filter keeps those one-window excursions from
    /// freezing reclamation, playing the role the paper's much longer
    /// 100 ms windows play on real hardware.
    history: [f64; 3],
    seen: usize,
    /// Reallocation count (for overhead accounting in experiments).
    reallocations: u64,
}

impl DynamicPartitioner {
    /// A controller starting from the largest foreground allocation.
    pub fn new(cfg: DynamicConfig) -> Self {
        cfg.validate();
        DynamicPartitioner {
            detector: PhaseDetector::new(cfg.thresholds),
            fg_ways: cfg.max_fg_ways,
            reclaiming: true,
            last_mpki: None,
            history: [0.0; 3],
            seen: 0,
            reallocations: 0,
            cfg,
        }
    }

    /// Median-of-3 window smoothing.
    fn smooth(&mut self, raw: f64) -> f64 {
        self.history[self.seen % 3] = raw;
        self.seen += 1;
        let n = self.seen.min(3);
        let mut window: Vec<f64> = self.history[..n].to_vec();
        window.sort_by(|a, b| a.partial_cmp(b).expect("finite MPKI"));
        window[n / 2]
    }

    /// Masks for the current allocation.
    pub fn masks(&self) -> Reallocation {
        let (fg, bg) = Controller::masks(self);
        Reallocation { fg, bg }
    }

    /// Algorithm 6.2 on one window: returns the rule that fired, if any
    /// (it moves the ways unless they already sit at its bound).
    fn decide(&mut self, event: PhaseEvent, mpki_delta: f64) -> Option<&'static str> {
        let cfg = &self.cfg;
        match event {
            PhaseEvent::PhaseStart => {
                // New phase: give the foreground everything we can.
                self.reclaiming = true;
                self.fg_ways = cfg.max_fg_ways;
                Some("phase_start: rel_dev >= thr1, expand to max and reclaim")
            }
            PhaseEvent::Stable if self.reclaiming && mpki_delta < cfg.thresholds.thr3 => {
                if self.fg_ways > cfg.min_fg_ways {
                    // allocate_less_cache(fg): the paper reallocates at
                    // megabyte granularity — 2 ways of the 6 MB LLC.
                    self.fg_ways = self.fg_ways.saturating_sub(WAYS_STEP).max(cfg.min_fg_ways);
                    Some("stable: |dMPKI| < thr3, reclaim one step")
                } else {
                    self.reclaiming = false; // keep the minimum
                    None
                }
            }
            PhaseEvent::Stable if self.reclaiming => {
                // Give the last step back and freeze.
                self.fg_ways = (self.fg_ways + WAYS_STEP).min(cfg.max_fg_ways);
                self.reclaiming = false;
                Some("mpki reacted: |dMPKI| >= thr3, give step back and freeze")
            }
            _ => None,
        }
    }
}

impl Controller for DynamicPartitioner {
    fn kind(&self) -> &'static str {
        "pair_dynamic"
    }

    fn policy(&self) -> &'static str {
        "dynamic"
    }

    fn masks(&self) -> (WayMask, WayMask) {
        split_masks(self.fg_ways, self.cfg.total_ways)
    }

    /// Feeds the window's foreground MPKI through the median-of-3 smoother
    /// and the phase detector into Algorithm 6.2.
    ///
    /// Every window emits a `dyn.decision` telemetry event (raw and
    /// smoothed MPKI, phase verdict, allocation), and every allocation
    /// change additionally emits `dyn.realloc` and then `ctl.explain` —
    /// together a machine-readable version of the paper's Fig 12 way trace.
    fn observe_window(&mut self, w: &mut WindowView<'_>) -> Option<(WayMask, WayMask)> {
        let current_mpki = self.smooth(w.raw_mpki);
        let event = self.detector.observe(current_mpki);
        // |dMPKI| against the previous window; 0 on the first, which
        // therefore counts as stable.
        let floor = self.cfg.thresholds.mpki_floor;
        let mpki_delta = self.last_mpki.map_or(0.0, |last| rel_dev(last, current_mpki, floor));
        let before = self.fg_ways;
        let trigger = self.decide(event, mpki_delta);
        self.last_mpki = Some(current_mpki);
        let changed = self.fg_ways != before;
        telemetry::emit_with(|| {
            Event::instant("dyn.decision", Stamp::Cycles(w.now))
                .field("raw_mpki", w.raw_mpki)
                .field("mpki", current_mpki)
                .field("phase", phase_name(event))
                .field("fg_ways", self.fg_ways)
                .field("reclaiming", self.reclaiming)
                .field("realloc", changed)
        });
        match trigger {
            Some(trigger) if changed => {
                self.reallocations += 1;
                telemetry::emit_with(|| {
                    Event::instant("dyn.realloc", Stamp::Cycles(w.now))
                        .field("from_ways", before)
                        .field("to_ways", self.fg_ways)
                        .field("phase", phase_name(event))
                });
                let ways = (before, self.fg_ways);
                emit_explain(w, self.policy(), trigger, mpki_delta, ways, self.reclaiming, |e| e);
                Some(Controller::masks(self))
            }
            _ => None,
        }
    }

    fn reallocations(&self) -> u64 {
        self.reallocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::script::{window, ScriptedUmon};

    fn paper() -> DynamicPartitioner {
        DynamicPartitioner::new(DynamicConfig::paper())
    }

    /// Feeds one window with foreground MPKI `mpki`.
    fn observe(d: &mut DynamicPartitioner, mpki: f64) -> Option<(WayMask, WayMask)> {
        d.observe_window(&mut window(0, mpki, 1.0, &mut ScriptedUmon::zeros()))
    }

    #[test]
    fn starts_at_max_allocation() {
        let d = paper();
        assert_eq!(d.fg_ways, 11);
        let m = d.masks();
        assert_eq!(m.fg.count(), 11);
        assert_eq!(m.bg.count(), 1);
        assert!(!m.fg.overlaps(m.bg));
    }

    #[test]
    fn flat_mpki_reclaims_down_to_minimum() {
        let mut d = paper();
        for _ in 0..50 {
            observe(&mut d, 10.0);
        }
        assert_eq!(d.fg_ways, 2, "flat MPKI should shrink to the 1 MB floor");
    }

    #[test]
    fn mpki_rise_gives_one_way_back_and_freezes() {
        let mut d = paper();
        // MPKI stays flat while the allocation is generous: one megabyte
        // step (2 ways) is reclaimed per stable window (11 → 9 → 7 → 5)...
        observe(&mut d, 10.0);
        observe(&mut d, 10.0);
        observe(&mut d, 10.0);
        assert_eq!(d.fg_ways, 5);
        // ...then rises 7%: above THR3 (5%) but below the THR1 phase-start
        // deviation (30%). The median-of-3 smoother needs the rise to
        // persist two windows (one more step is reclaimed meanwhile), then
        // the controller gives a step back and freezes.
        observe(&mut d, 10.7);
        let r = observe(&mut d, 10.7).expect("reallocation expected");
        assert_eq!(r.0.count(), 5);
        let ways = d.fg_ways;
        for _ in 0..10 {
            assert!(observe(&mut d, 10.7).is_none(), "allocation must stay frozen");
        }
        assert_eq!(d.fg_ways, ways);
    }

    #[test]
    fn phase_change_resets_to_max() {
        let mut d = paper();
        for _ in 0..50 {
            observe(&mut d, 10.0);
        }
        assert_eq!(d.fg_ways, 2);
        // A big, persistent MPKI jump (new phase) must re-expand to 11
        // ways; the median filter requires it to survive two windows.
        observe(&mut d, 60.0);
        let r = observe(&mut d, 60.0).expect("phase start must reallocate");
        assert_eq!(r.0.count(), 11);
    }

    #[test]
    fn masks_always_partition_the_cache() {
        let mut d = paper();
        let inputs = [10.0, 10.0, 10.0, 30.0, 30.0, 31.0, 5.0, 5.0, 5.0, 5.0];
        for &m in inputs.iter().cycle().take(200) {
            observe(&mut d, m);
            let r = d.masks();
            assert!(r.fg.count() >= 2 && r.fg.count() <= 11);
            assert_eq!(r.fg.count() + r.bg.count(), 12);
            assert!(!r.fg.overlaps(r.bg));
        }
    }

    #[test]
    fn reallocation_counter_increments() {
        let mut d = paper();
        observe(&mut d, 10.0);
        observe(&mut d, 10.0);
        observe(&mut d, 10.0);
        assert!(d.reallocations() >= 2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn config_rejects_total_fg_allocation() {
        DynamicConfig { total_ways: 12, max_fg_ways: 12, min_fg_ways: 2, thresholds: PhaseThresholds::paper() }
            .validate();
    }
}
