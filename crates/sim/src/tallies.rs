//! Per-level cache tallies and latency histograms — the simulator's
//! `sim.tallies` and `sim.latency` telemetry.
//!
//! Nothing here runs per access. Within one quantum every access that one
//! core satisfies at one level costs the same
//! ([`Hierarchy::level_latency`](crate::hierarchy::Hierarchy::level_latency)),
//! so the machine folds each detailed thread-quantum's counter delta into
//! a [`LevelFold`] once, with [`Histogram::record_n`]. The three events
//! the counter file does not hold are [`FillTallies`], plain counters on
//! hierarchy paths that already branch on them. No simulation decision
//! reads any of it; `tests/telemetry_inert.rs` checks that runs with and
//! without a sink match.

use crate::counters::HwCounters;
use crate::hierarchy::HitLevel;
use waypart_telemetry::Histogram;

/// The tallies [`HwCounters`] does not hold, counted by the hierarchy's
/// detailed fill and prefetch paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillTallies {
    /// Lines filled into the LLC (demand + prefetch).
    pub llc_fills: u64,
    /// Valid LLC victims evicted by those fills (inclusive
    /// back-invalidation).
    pub llc_evictions: u64,
    /// Prefetch requests dropped (MBA admission or DRAM saturation).
    pub pf_dropped: u64,
}

/// Latency histograms by satisfying level, indexed by
/// [`HitLevel::index`], plus the write-backs and prefetches of every
/// detailed thread-quantum folded so far.
#[derive(Debug, Clone, Default)]
pub struct LevelFold {
    latency: [Histogram; HitLevel::COUNT],
    dram_writebacks: u64,
    pf_issued: u64,
}

impl LevelFold {
    /// Folds one detailed thread-quantum: `counts[level.index()]` of its
    /// accesses were satisfied at `level`, each for `latency(level)`
    /// cycles, and `delta` is its counter delta.
    pub fn fold(&mut self, delta: &HwCounters, counts: [u64; HitLevel::COUNT], latency: impl Fn(HitLevel) -> u64) {
        for level in HitLevel::all() {
            self.latency[level.index()].record_n(latency(level), counts[level.index()]);
        }
        self.dram_writebacks += delta.dram_writebacks;
        self.pf_issued += delta.prefetches_issued;
    }

    /// Per-access latency histograms, indexed by [`HitLevel::index`].
    pub fn latency_hists(&self) -> &[Histogram; HitLevel::COUNT] {
        &self.latency
    }

    /// The `sim.tallies` fields, in order: demand accesses that hit L1,
    /// that missed L1, that hit L2 and that missed it, L2 misses that hit
    /// the LLC and that went to DRAM (all the histograms' counts), then
    /// `fills`' LLC fills and evictions, the folded DRAM write-backs and
    /// issued prefetches, `fills`' dropped prefetches, and non-temporal
    /// accesses that bypassed the hierarchy.
    pub fn tallies(&self, fills: FillTallies) -> [(&'static str, u64); 12] {
        let count = |level: HitLevel| self.latency[level.index()].count();
        let (l2, llc, dram) = (count(HitLevel::L2), count(HitLevel::Llc), count(HitLevel::Dram));
        [
            ("l1_hits", count(HitLevel::L1)),
            ("l1_misses", l2 + llc + dram),
            ("l2_hits", l2),
            ("l2_misses", llc + dram),
            ("llc_hits", llc),
            ("llc_misses", dram),
            ("llc_fills", fills.llc_fills),
            ("llc_evictions", fills.llc_evictions),
            ("dram_writebacks", self.dram_writebacks),
            ("pf_issued", self.pf_issued),
            ("pf_dropped", fills.pf_dropped),
            ("bypasses", count(HitLevel::Bypass)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_records_each_level_at_its_latency() {
        let mut fold = LevelFold::default();
        let delta = HwCounters { dram_writebacks: 3, prefetches_issued: 7, ..Default::default() };
        fold.fold(&delta, [5, 4, 3, 2, 1], |level| 10 * level.index() as u64);
        fold.fold(&delta, [1, 0, 0, 0, 0], |_| 99);
        let l1 = &fold.latency_hists()[HitLevel::L1.index()];
        assert_eq!((l1.count(), l1.min(), l1.max(), l1.sum()), (6, 0, 99, 99));
        let dram = &fold.latency_hists()[HitLevel::Dram.index()];
        assert_eq!((dram.count(), dram.min(), dram.max()), (2, 30, 30));
        let fills = FillTallies { llc_fills: 8, llc_evictions: 6, pf_dropped: 2 };
        let values: Vec<u64> = fold.tallies(fills).iter().map(|&(_, v)| v).collect();
        assert_eq!(values, [6, 9, 4, 5, 3, 2, 8, 6, 6, 14, 2, 1]);
    }
}
