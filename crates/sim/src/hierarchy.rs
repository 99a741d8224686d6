//! The three-level cache hierarchy walk.
//!
//! [`Hierarchy`] owns the per-core L1 and L2 caches, the shared inclusive
//! LLC, and the per-core prefetch engines, and implements the full demand
//! path: L1 → L2 → (ring) → LLC → (DRAM), including
//!
//! * write-back dirty-victim cascades at every level,
//! * **inclusive back-invalidation**: an LLC eviction removes the line from
//!   every inner cache (the modeled LLC is inclusive, §2.1) — probing only
//!   the cores its sharer bits name,
//! * **way-masked LLC fills**: the requesting core's way allocation
//!   restricts victim selection in the LLC and nowhere else,
//! * prefetch issue and fill (prefetches are real fills that consume DRAM
//!   bandwidth and may pollute).

use crate::addr::LineAddr;
use crate::cache::{Eviction, SetAssocCache};
use crate::coloring::ColorAssignment;
use crate::config::MachineConfig;
use crate::dram::DramModel;
use crate::msr::PrefetcherMask;
use crate::prefetch::{PrefetchEngine, PrefetchLevel, PrefetchQueue, PrefetchRequest};
use crate::ring::RingModel;
use crate::stream::Access;
use crate::tallies::FillTallies;
use crate::umon::UtilityMonitor;
use crate::waymask::WayMask;
use crate::CoreId;

/// Where a demand access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// L1 data cache.
    L1,
    /// Private L2.
    L2,
    /// Shared LLC.
    Llc,
    /// Off-chip DRAM (LLC miss).
    Dram,
    /// Non-temporal access that bypassed the hierarchy entirely.
    Bypass,
}

impl HitLevel {
    /// Number of levels (array-index space for per-level aggregates).
    pub const COUNT: usize = 5;

    /// A dense index, stable across releases (L1=0 .. Bypass=4).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            HitLevel::L1 => 0,
            HitLevel::L2 => 1,
            HitLevel::Llc => 2,
            HitLevel::Dram => 3,
            HitLevel::Bypass => 4,
        }
    }

    /// Lower-case level name for event fields and report labels.
    pub fn name(self) -> &'static str {
        match self {
            HitLevel::L1 => "l1",
            HitLevel::L2 => "l2",
            HitLevel::Llc => "llc",
            HitLevel::Dram => "dram",
            HitLevel::Bypass => "bypass",
        }
    }

    /// All levels in index order.
    pub fn all() -> [HitLevel; Self::COUNT] {
        [HitLevel::L1, HitLevel::L2, HitLevel::Llc, HitLevel::Dram, HitLevel::Bypass]
    }
}

/// Everything the machine needs to charge one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Raw latency in cycles (before the issuing thread's MLP division).
    pub latency: u64,
    /// Level that satisfied the access.
    pub level: HitLevel,
    /// Dirty write-backs to DRAM triggered by this access's fills.
    pub dram_writebacks: u32,
    /// Prefetch requests issued while servicing this access.
    pub prefetches_issued: u32,
}

/// The socket's cache hierarchy.
pub struct Hierarchy {
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
    engines: Vec<PrefetchEngine>,
    latency: crate::config::LatencyConfig,
    cores: usize,
    /// Whether back-invalidation may trust the LLC's sharer bits: each
    /// LLC line's bits are a superset of the cores whose L1 or L2 holds
    /// it, so an eviction probes only those cores. Cleared for good once
    /// that cannot hold — more than 8 cores (one bit each), page coloring
    /// (recoloring moves a program line's LLC home under its inner
    /// copies), or the flush ablation (it drops LLC lines without
    /// back-invalidating) — after which every core is probed.
    filter_sharers: bool,
    /// Full way masks for the private levels, precomputed at construction
    /// (L1/L2 fills are never way-restricted).
    l1_full: WayMask,
    l2_full: WayMask,
    /// Optional per-core utility monitors (UMON; disabled by default — the
    /// paper's platform has no such hardware, the UCP baseline needs it).
    umon: Option<Vec<UtilityMonitor>>,
    /// Optional page-coloring map (set partitioning, the §7 software
    /// baseline). Mutually exclusive with hashed LLC indexing.
    coloring: Option<ColorAssignment>,
    /// Per-core memory-bandwidth throttle (percent, MBA-style): demand
    /// DRAM accesses from a throttled core pay `100/percent ×` latency and
    /// only `percent`% of its prefetches are admitted, which both slows
    /// the core and relieves the shared channel — the §8 future-work QoS
    /// knob.
    mba_percent: Vec<u8>,
    /// Token buckets for prefetch admission under MBA throttling.
    pf_admit: Vec<u32>,
    /// Telemetry-only LLC fill, eviction and dropped-prefetch counts.
    /// Never read by simulation logic.
    fills: FillTallies,
}

impl Hierarchy {
    /// DRAM utilization above which DRAM-bound prefetches are dropped
    /// (hardware prefetchers throttle under load; shared by the detailed
    /// and functional-warming issue paths).
    const PREFETCH_DROP_UTILIZATION: f64 = 0.92;

    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        Hierarchy {
            l1: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            llc: SetAssocCache::new(cfg.llc),
            engines: (0..cfg.cores).map(|_| PrefetchEngine::new()).collect(),
            latency: cfg.latency,
            cores: cfg.cores,
            filter_sharers: cfg.cores <= 8,
            l1_full: WayMask::all(cfg.l1.ways),
            l2_full: WayMask::all(cfg.l2.ways),
            umon: None,
            coloring: None,
            mba_percent: vec![100; cfg.cores],
            pf_admit: vec![0; cfg.cores],
            fills: FillTallies::default(),
        }
    }

    /// Cumulative LLC fills, evictions and dropped prefetches of the
    /// detailed paths.
    pub fn fill_tallies(&self) -> FillTallies {
        self.fills
    }

    /// The latency of an access that `core` satisfies at `level`. It
    /// changes only when the ring or DRAM model ends a quantum or the
    /// core's MBA throttle is reprogrammed, so one quantum's accesses at
    /// one level all cost the same — which lets the machine fold them
    /// into the latency histograms once per quantum.
    #[inline(always)]
    pub fn level_latency(&self, core: CoreId, level: HitLevel, ring: &RingModel, dram: &DramModel) -> u64 {
        match level {
            HitLevel::L1 => self.latency.l1_hit,
            HitLevel::L2 => self.latency.l2_hit,
            HitLevel::Llc => ring.latency(self.latency.llc_hit),
            HitLevel::Dram => ring.latency(self.latency.llc_hit) + self.throttle(core, dram.latency(self.latency.dram)),
            HitLevel::Bypass => self.throttle(core, dram.latency(self.latency.dram)),
        }
    }

    /// Sets core `core`'s memory-bandwidth throttle (percent, 10..=100).
    pub fn set_mba(&mut self, core: CoreId, percent: u8) {
        assert!((10..=100).contains(&percent), "MBA throttle {percent}% outside 10..=100");
        self.mba_percent[core] = percent;
    }

    /// Applies the core's MBA throttle to a DRAM latency.
    #[inline]
    fn throttle(&self, core: CoreId, dram_latency: u64) -> u64 {
        let pct = u64::from(self.mba_percent[core]);
        if pct == 100 {
            // Unthrottled is the overwhelmingly common case; skip the
            // division on the demand-miss path.
            return dram_latency;
        }
        dram_latency * 100 / pct
    }

    /// Enables page coloring with `groups` color groups.
    ///
    /// # Panics
    /// Panics if the LLC uses a hashed index function — randomized
    /// indexing scatters page-contiguous lines and defeats coloring, which
    /// is exactly why the technique stopped working on Sandy Bridge-class
    /// parts (§7 context).
    pub fn enable_coloring(&mut self, groups: usize) {
        assert!(
            self.llc.geometry().index == crate::addr::IndexHash::Modulo,
            "page coloring requires a physically indexed (modulo) LLC"
        );
        self.coloring = Some(ColorAssignment::new(self.llc.num_sets(), groups));
        self.filter_sharers = false;
    }

    /// The coloring map, if enabled.
    pub fn coloring(&self) -> Option<&ColorAssignment> {
        self.coloring.as_ref()
    }

    /// Mutable access to the coloring map (for assignments/recoloring).
    pub fn coloring_mut(&mut self) -> Option<&mut ColorAssignment> {
        self.coloring.as_mut()
    }

    /// Translates a demand line into LLC (colored) space.
    #[inline]
    fn to_llc(&self, line: LineAddr) -> LineAddr {
        match &self.coloring {
            Some(c) => c.effective_line(line),
            None => line,
        }
    }

    /// Translates an LLC (colored) line back to program space.
    #[inline]
    fn from_llc(&self, line: LineAddr) -> LineAddr {
        match &self.coloring {
            Some(c) => c.original_line(line),
            None => line,
        }
    }

    /// Attaches a UMON to every core (idempotent).
    pub fn enable_umon(&mut self) {
        if self.umon.is_none() {
            let sets = self.llc.num_sets();
            let ways = self.llc.geometry().ways;
            self.umon = Some((0..self.cores).map(|_| UtilityMonitor::new(sets, ways)).collect());
        }
    }

    /// Core `core`'s utility monitor, if enabled.
    pub fn umon(&self, core: CoreId) -> Option<&UtilityMonitor> {
        self.umon.as_ref().map(|u| &u[core])
    }

    /// Decays every monitor's counters (call at each repartition interval).
    pub fn decay_umons(&mut self) {
        if let Some(umons) = &mut self.umon {
            for u in umons {
                u.decay();
            }
        }
    }

    /// Services a demand access from `core` under LLC way allocation
    /// `mask`, charging ring/DRAM bandwidth as it goes.
    ///
    /// Force-inlined, as are the fills below: the machine's drain loop and
    /// every fill site then get their own copy of the probe and fill code.
    #[inline(always)]
    pub fn access(
        &mut self,
        core: CoreId,
        access: &Access,
        mask: WayMask,
        pf_mask: PrefetcherMask,
        ring: &mut RingModel,
        dram: &mut DramModel,
    ) -> AccessOutcome {
        debug_assert!(core < self.cores);

        if access.non_temporal {
            // Specially tagged loads/stores stream through memory without
            // caching (the stream_uncached microbenchmark, §2.3).
            dram.consume();
            let latency = self.level_latency(core, HitLevel::Bypass, ring, dram);
            return AccessOutcome { latency, level: HitLevel::Bypass, dram_writebacks: 0, prefetches_issued: 0 };
        }

        let mut writebacks = 0u32;

        // The DCU units observe every L1 access, hit or miss.
        let mut prefetches = PrefetchQueue::new();
        self.engines[core].observe_l1(access.line, access.pc, pf_mask, &mut prefetches);

        // Each level's set index is computed once and shared between the
        // probe and the (possible) fill — the index hash is on the hottest
        // path in the whole simulator.
        let level;
        let latency;
        let l1_set = self.l1[core].set_index(access.line);
        if self.l1[core].probe_in(l1_set, access.line, access.write).is_some() {
            level = HitLevel::L1;
            latency = self.level_latency(core, HitLevel::L1, ring, dram);
        } else {
            // The MLC units observe L2 accesses (== L1 misses).
            self.engines[core].observe_l2(access.line, pf_mask, &mut prefetches);

            let l2_set = self.l2[core].set_index(access.line);
            if self.l2[core].probe_in(l2_set, access.line, false).is_some() {
                level = HitLevel::L2;
                latency = self.level_latency(core, HitLevel::L2, ring, dram);
            } else {
                if let Some(umons) = &mut self.umon {
                    let set = self.llc.geometry().index.index(access.line, self.llc.num_sets());
                    umons[core].observe(access.line, set);
                }
                ring.request();
                let llc_line = self.to_llc(access.line);
                let llc_set = self.llc.set_index(llc_line);
                if let Some(way) = self.llc.probe_in(llc_set, llc_line, false) {
                    level = HitLevel::Llc;
                    latency = self.level_latency(core, HitLevel::Llc, ring, dram);
                    self.llc.add_sharer(llc_set, way, core as u8);
                } else {
                    level = HitLevel::Dram;
                    dram.consume();
                    latency = self.level_latency(core, HitLevel::Dram, ring, dram);
                    writebacks += self.fill_llc(core, llc_set, llc_line, mask, dram);
                }
                writebacks += self.fill_l2(core, l2_set, access.line, false, dram);
            }
            writebacks += self.fill_l1(core, l1_set, access.line, access.write, dram);
        }

        // Issue the collected prefetches after the demand access.
        let issued = prefetches.as_slice().len() as u32;
        for req in prefetches.as_slice() {
            writebacks += self.issue_prefetch(core, req, mask, ring, dram);
        }

        AccessOutcome { latency, level, dram_writebacks: writebacks, prefetches_issued: issued }
    }

    /// Functional-warming access: drives `access` through the same
    /// tag-and-replacement state transitions as [`Self::access`] — probe
    /// LRU updates, fills, inclusive back-invalidation, dirty cascades —
    /// with none of its timing, telemetry, utility-monitor, or prefetch
    /// side effects. Fast-forward quanta use this to keep cache state on
    /// the true trajectory while counters extrapolate from measured
    /// rates (DESIGN.md §5e). The probes reuse the packed word-wide
    /// bitmask lanes of [`SetAssocCache::probe_in`], so a warming access
    /// costs a fraction of a detailed one.
    ///
    /// Deliberate exclusions, and why:
    /// - *DRAM/ring*: fast-forward freezes interconnect time; the skipped
    ///   window's traffic is already represented statistically by the
    ///   rate-extrapolated `llc_misses`/`dram_writebacks` counters.
    /// - *Prefetchers*: issue decisions read DRAM utilization and MBA
    ///   token-bucket state, which do not advance during a skip. Driving
    ///   them against a frozen utilization snapshot was measured (see
    ///   DESIGN.md §5e): it flattens long-skip drift on solo shapes but
    ///   *adds* short-skip bias under a saturating co-runner (the frozen
    ///   drop gate admits or drops a whole window at once) and nearly
    ///   doubles the walk's cost, so the default short schedule without
    ///   it is both more accurate and faster.
    /// - *Utility monitors*: UMON sampling is perfmon accounting, not
    ///   cache state; sampled runs have always fed it detailed quanta
    ///   only.
    #[inline]
    pub fn warm_access(&mut self, core: CoreId, access: &Access, mask: WayMask) {
        debug_assert!(core < self.cores);
        if access.non_temporal {
            // Bypasses every cache level; nothing to warm.
            return;
        }
        let l1_set = self.l1[core].set_index(access.line);
        if self.l1[core].probe_in(l1_set, access.line, access.write).is_some() {
            return;
        }
        let l2_set = self.l2[core].set_index(access.line);
        if self.l2[core].probe_in(l2_set, access.line, false).is_none() {
            let llc_line = self.to_llc(access.line);
            let llc_set = self.llc.set_index(llc_line);
            match self.llc.probe_in(llc_set, llc_line, false) {
                Some(way) => self.llc.add_sharer(llc_set, way, core as u8),
                None => self.warm_fill_llc(core, llc_set, llc_line, mask),
            }
            self.warm_fill_l2(core, l2_set, access.line, false);
        }
        self.warm_fill_l1(core, l1_set, access.line, access.write);
    }

    /// Tag-and-replacement-only analog of [`Self::fill_llc`]: same victim
    /// selection and inclusive back-invalidation, no DRAM write-back.
    fn warm_fill_llc(&mut self, core: CoreId, set: usize, line: LineAddr, mask: WayMask) {
        if let Some(ev) = self.llc.fill_in(set, line, mask, false, core as u8) {
            self.back_invalidate(ev);
        }
    }

    /// Inclusion: an LLC victim vanishes from every inner cache (which
    /// hold *program-space* lines — translate back from LLC space).
    /// Returns whether any inner copy was dirty.
    ///
    /// Only the cores in the victim's sharer bits are probed while
    /// `filter_sharers` holds. That is exact: the bits are a superset of
    /// the cores holding the line, and invalidating a line a cache lacks
    /// changes nothing (no replacement state moves).
    #[inline(always)]
    fn back_invalidate(&mut self, ev: Eviction) -> bool {
        let line = self.from_llc(ev.line);
        let mut dirty = false;
        let mut invalidate = |h: &mut Self, c: usize| {
            if let Some(inner) = h.l1[c].invalidate(line) {
                dirty |= inner.dirty;
            }
            if let Some(inner) = h.l2[c].invalidate(line) {
                dirty |= inner.dirty;
            }
        };
        if self.filter_sharers {
            let mut rem = ev.sharers;
            while rem != 0 {
                invalidate(self, rem.trailing_zeros() as usize);
                rem &= rem - 1;
            }
        } else {
            for c in 0..self.cores {
                invalidate(self, c);
            }
        }
        dirty
    }

    /// Tag-and-replacement-only analog of [`Self::fill_l2`]: the dirty
    /// victim still marks its LLC copy dirty (that is cache state), but
    /// an inclusion-violation fallback write-back is dropped.
    fn warm_fill_l2(&mut self, core: CoreId, set: usize, line: LineAddr, dirty: bool) {
        if let Some(ev) = self.l2[core].fill_in(set, line, self.l2_full, dirty, core as u8) {
            if ev.dirty {
                let llc_line = self.to_llc(ev.line);
                self.llc.probe(llc_line, true);
            }
        }
    }

    /// Tag-and-replacement-only analog of [`Self::fill_l1`].
    fn warm_fill_l1(&mut self, core: CoreId, set: usize, line: LineAddr, dirty: bool) {
        if let Some(ev) = self.l1[core].fill_in(set, line, self.l1_full, dirty, core as u8) {
            if ev.dirty {
                let l2_set = self.l2[core].set_index(ev.line);
                if self.l2[core].probe_in(l2_set, ev.line, true).is_none() {
                    self.warm_fill_l2(core, l2_set, ev.line, true);
                }
            }
        }
    }

    /// Fills `line` (already in LLC/colored space, mapping to `set`) into
    /// the LLC under `mask`; handles inclusive back-invalidation and the
    /// dirty write-back of the victim. Returns DRAM write-backs performed.
    #[inline(always)]
    fn fill_llc(&mut self, core: CoreId, set: usize, line: LineAddr, mask: WayMask, dram: &mut DramModel) -> u32 {
        let mut writebacks = 0;
        self.fills.llc_fills += 1;
        if let Some(ev) = self.llc.fill_in(set, line, mask, false, core as u8) {
            self.fills.llc_evictions += 1;
            // A dirty inner copy is the freshest; it must reach DRAM.
            let victim_dirty = self.back_invalidate(ev) | ev.dirty;
            if victim_dirty {
                dram.consume();
                writebacks += 1;
            }
        }
        writebacks
    }

    /// Fills into `core`'s L2 (at precomputed `set`), cascading the dirty
    /// victim to the LLC (or DRAM if the LLC no longer holds it).
    #[inline(always)]
    fn fill_l2(&mut self, core: CoreId, set: usize, line: LineAddr, dirty: bool, dram: &mut DramModel) -> u32 {
        let mut writebacks = 0;
        if let Some(ev) = self.l2[core].fill_in(set, line, self.l2_full, dirty, core as u8) {
            if ev.dirty {
                let llc_line = self.to_llc(ev.line);
                if self.llc.probe(llc_line, true).is_none() {
                    // Inclusion violation can't normally happen; treat as a
                    // direct write-back for robustness.
                    dram.consume();
                    writebacks += 1;
                }
            }
        }
        writebacks
    }

    /// Fills into `core`'s L1 (at precomputed `set`), cascading the dirty
    /// victim to L2.
    #[inline(always)]
    fn fill_l1(&mut self, core: CoreId, set: usize, line: LineAddr, dirty: bool, dram: &mut DramModel) -> u32 {
        let mut writebacks = 0;
        if let Some(ev) = self.l1[core].fill_in(set, line, self.l1_full, dirty, core as u8) {
            if ev.dirty {
                let l2_set = self.l2[core].set_index(ev.line);
                if self.l2[core].probe_in(l2_set, ev.line, true).is_none() {
                    writebacks += self.fill_l2(core, l2_set, ev.line, true, dram);
                }
            }
        }
        writebacks
    }

    /// Executes one prefetch request; returns DRAM write-backs caused.
    ///
    /// Prefetches that would miss to DRAM are *dropped* when the channel
    /// is near saturation — hardware prefetchers throttle under load, and
    /// this is what exposes streaming applications to bandwidth contention
    /// (Fig 4): once a co-runner saturates the channel, their prefetch
    /// cover disappears and demand misses pay the inflated latency.
    fn issue_prefetch(
        &mut self,
        core: CoreId,
        req: &PrefetchRequest,
        mask: WayMask,
        ring: &mut RingModel,
        dram: &mut DramModel,
    ) -> u32 {
        // MBA admission: a core throttled to p% issues only p% of its
        // prefetches (token bucket, deterministic).
        let pct = u32::from(self.mba_percent[core]);
        if pct < 100 {
            self.pf_admit[core] += pct;
            if self.pf_admit[core] < 100 {
                self.fills.pf_dropped += 1;
                return 0;
            }
            self.pf_admit[core] -= 100;
        }
        let mut writebacks = 0;
        let line = req.line;
        let l2_set = self.l2[core].set_index(line);
        if !self.l2[core].contains_in(l2_set, line) {
            // Most requests already sit in L2; only a miss needs the LLC
            // line and its (hashed) set.
            let llc_line = self.to_llc(line);
            let llc_set = self.llc.set_index(llc_line);
            if !self.llc.share_in(llc_set, llc_line, core as u8) {
                if dram.utilization() > Self::PREFETCH_DROP_UTILIZATION {
                    self.fills.pf_dropped += 1;
                    return 0;
                }
                ring.request();
                dram.consume();
                writebacks += self.fill_llc(core, llc_set, llc_line, mask, dram);
            }
            writebacks += self.fill_l2(core, l2_set, line, false, dram);
        }
        if req.level == PrefetchLevel::L1 {
            let l1_set = self.l1[core].set_index(line);
            if !self.l1[core].contains_in(l1_set, line) {
                writebacks += self.fill_l1(core, l1_set, line, false, dram);
            }
        }
        writebacks
    }

    /// LLC lines currently owned (filled) by `core`.
    pub fn llc_occupancy_of(&self, core: CoreId) -> usize {
        self.llc.occupancy_of(core as u8)
    }

    /// Total valid LLC lines.
    pub fn llc_occupancy(&self) -> usize {
        self.llc.occupancy()
    }

    /// Read-only view of the LLC (for invariant checks in tests).
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }

    /// Read-only views of a core's private caches.
    pub fn l1(&self, core: CoreId) -> &SetAssocCache {
        &self.l1[core]
    }

    /// Read-only view of a core's L2.
    pub fn l2(&self, core: CoreId) -> &SetAssocCache {
        &self.l2[core]
    }

    /// Per-core prefetch engine statistics.
    pub fn engine(&self, core: CoreId) -> &PrefetchEngine {
        &self.engines[core]
    }

    /// Flushes `core`-owned LLC lines outside `mask` (ablation: the real
    /// mechanism never flushes on reallocation). Dropped dirty lines are
    /// written back. Returns lines flushed.
    pub fn flush_llc_outside_mask(&mut self, core: CoreId, mask: WayMask, dram: &mut DramModel) -> usize {
        // Flushed lines keep their inner copies, so sharer bits stop
        // being a superset once a flushed line is refilled.
        self.filter_sharers = false;
        let dropped_dirty = self.llc.flush_owned_outside(core as u8, mask);
        for _ in 0..dropped_dirty {
            dram.consume();
        }
        dropped_dirty
    }
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("cores", &self.cores)
            .field("llc_occupancy", &self.llc.occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn tiny() -> (Hierarchy, RingModel, DramModel, MachineConfig) {
        let cfg = MachineConfig::scaled(64);
        let h = Hierarchy::new(&cfg);
        let ring = RingModel::new(cfg.ring);
        let dram = DramModel::new(cfg.dram);
        (h, ring, dram, cfg)
    }

    fn plain(line: LineAddr) -> Access {
        Access { line, write: false, pc: 3, non_temporal: false, mlp: 1.0 }
    }

    #[test]
    fn first_touch_misses_to_dram_then_hits_l1() {
        let (mut h, mut ring, mut dram, _) = tiny();
        let pf = PrefetcherMask::all_disabled();
        let a = plain(LineAddr::in_space(0, 123));
        let o1 = h.access(0, &a, WayMask::all(12), pf, &mut ring, &mut dram);
        assert_eq!(o1.level, HitLevel::Dram);
        assert!(o1.latency >= 190);
        let o2 = h.access(0, &a, WayMask::all(12), pf, &mut ring, &mut dram);
        assert_eq!(o2.level, HitLevel::L1);
        assert_eq!(o2.latency, 0);
    }

    #[test]
    fn cross_core_data_hits_in_llc() {
        let (mut h, mut ring, mut dram, _) = tiny();
        let pf = PrefetcherMask::all_disabled();
        let a = plain(LineAddr::in_space(0, 9));
        h.access(0, &a, WayMask::all(12), pf, &mut ring, &mut dram);
        // A different core finds the line in the (shared) LLC, not DRAM.
        let o = h.access(3, &a, WayMask::all(12), pf, &mut ring, &mut dram);
        assert_eq!(o.level, HitLevel::Llc);
    }

    #[test]
    fn non_temporal_bypasses_and_consumes_bandwidth() {
        let (mut h, mut ring, mut dram, _) = tiny();
        let pf = PrefetcherMask::all_enabled();
        let mut a = plain(LineAddr::in_space(0, 77));
        a.non_temporal = true;
        let before = dram.total_lines;
        let o = h.access(0, &a, WayMask::all(12), pf, &mut ring, &mut dram);
        assert_eq!(o.level, HitLevel::Bypass);
        assert_eq!(dram.total_lines, before + 1);
        // Nothing cached anywhere.
        assert!(!h.l1(0).contains(a.line));
        assert!(!h.llc().contains(a.line));
    }

    #[test]
    fn inclusive_back_invalidation() {
        let (mut h, mut ring, mut dram, cfg) = tiny();
        let pf = PrefetcherMask::all_disabled();
        let victim = LineAddr::in_space(0, 0);
        h.access(0, &plain(victim), WayMask::all(12), pf, &mut ring, &mut dram);
        assert!(h.l1(0).contains(victim));

        // Thrash the LLC from core 1 with the full mask until `victim`
        // leaves the LLC; its L1 copy on core 0 must vanish with it.
        let llc_lines = (cfg.llc.size_bytes / cfg.line_bytes) as u64;
        for i in 1..llc_lines * 4 {
            h.access(1, &plain(LineAddr::in_space(0, i)), WayMask::all(12), pf, &mut ring, &mut dram);
            if !h.llc().contains(victim) {
                break;
            }
        }
        assert!(!h.llc().contains(victim), "victim never evicted from LLC");
        assert!(!h.l1(0).contains(victim), "inclusion violated: L1 copy outlived LLC eviction");
        assert!(!h.l2(0).contains(victim), "inclusion violated: L2 copy outlived LLC eviction");
    }

    #[test]
    fn way_mask_confines_thrashing() {
        let (mut h, mut ring, mut dram, cfg) = tiny();
        let pf = PrefetcherMask::all_disabled();
        // Core 0 owns ways 0..6; fill a small resident set.
        let fg_mask = WayMask::contiguous(0, 6);
        let bg_mask = WayMask::contiguous(6, 6);
        let resident: Vec<LineAddr> = (0..64u64).map(|i| LineAddr::in_space(1, i)).collect();
        for r in &resident {
            h.access(0, &plain(*r), fg_mask, pf, &mut ring, &mut dram);
        }
        // Core 2 thrashes with 4× LLC worth of lines, confined to its ways.
        let llc_lines = (cfg.llc.size_bytes / cfg.line_bytes) as u64;
        for i in 0..llc_lines * 4 {
            h.access(2, &plain(LineAddr::in_space(2, i)), bg_mask, pf, &mut ring, &mut dram);
        }
        let survivors = resident.iter().filter(|r| h.llc().contains(**r)).count();
        assert_eq!(survivors, resident.len(), "partitioned thrashing evicted foreground lines");
    }

    #[test]
    fn shared_mask_lets_thrashing_evict() {
        let (mut h, mut ring, mut dram, cfg) = tiny();
        let pf = PrefetcherMask::all_disabled();
        let all = WayMask::all(12);
        let resident: Vec<LineAddr> = (0..64u64).map(|i| LineAddr::in_space(1, i)).collect();
        for r in &resident {
            h.access(0, &plain(*r), all, pf, &mut ring, &mut dram);
        }
        let llc_lines = (cfg.llc.size_bytes / cfg.line_bytes) as u64;
        for i in 0..llc_lines * 4 {
            h.access(2, &plain(LineAddr::in_space(2, i)), all, pf, &mut ring, &mut dram);
        }
        let survivors = resident.iter().filter(|r| h.llc().contains(**r)).count();
        assert!(survivors < resident.len() / 2, "{survivors} survivors under shared thrashing");
    }

    #[test]
    fn prefetch_fills_convert_misses_to_hits() {
        let (mut h, mut ring, mut dram, _) = tiny();
        let pf = PrefetcherMask::all_enabled();
        // A long sequential walk: after the streamer warms up, most
        // accesses should hit in L1/L2 thanks to prefetching.
        let mut dram_hits = 0;
        for i in 0..512u64 {
            let mut a = plain(LineAddr::in_space(0, i));
            a.pc = 7;
            let o = h.access(0, &a, WayMask::all(12), pf, &mut ring, &mut dram);
            if i >= 64 && o.level == HitLevel::Dram {
                dram_hits += 1;
            }
        }
        assert!(dram_hits < 150, "prefetchers left {dram_hits} DRAM accesses in the steady state");
        assert!(h.engine(0).total_issued() > 0);
    }

    #[test]
    fn dirty_lines_write_back_on_llc_eviction() {
        let (mut h, mut ring, mut dram, cfg) = tiny();
        let pf = PrefetcherMask::all_disabled();
        let mut w = plain(LineAddr::in_space(0, 5));
        w.write = true;
        h.access(0, &w, WayMask::all(12), pf, &mut ring, &mut dram);
        // Evict everything via thrashing and count write-backs.
        let llc_lines = (cfg.llc.size_bytes / cfg.line_bytes) as u64;
        let mut wbs = 0;
        for i in 100..100 + llc_lines * 4 {
            let o = h.access(1, &plain(LineAddr::in_space(3, i)), WayMask::all(12), pf, &mut ring, &mut dram);
            wbs += o.dram_writebacks;
        }
        assert!(wbs >= 1, "dirty line evicted without write-back");
    }
}

/// Exactness of sharer-filtered back-invalidation: a hierarchy that
/// probes only the sharer cores must behave exactly like one that probes
/// every core, under random masks, prefetchers, MBA throttles, DRAM load
/// and interleaved detailed and warming accesses.
#[cfg(test)]
mod sharer_exactness {
    use super::*;
    use crate::addr::IndexHash;
    use crate::msr::Prefetcher;
    use proptest::prelude::*;

    /// A short run of accesses from one core.
    #[derive(Debug, Clone)]
    struct Step {
        core: usize,
        asid: u16,
        start: u64,
        len: u64,
        stride: u64,
        write: bool,
        warm: bool,
        pc: u32,
        /// Way mask `[mask_start, mask_start + mask_len)`.
        mask_start: usize,
        mask_len: usize,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        (
            (0usize..4, 0u16..3, 0u64..768, 1u64..9, 1u64..3),
            (any::<bool>(), 0u32..4, 0u32..16),
            (0usize..12, 1usize..13),
        )
            .prop_map(|((core, asid, start, len, stride), (write, warm, pc), (mask_start, mask_len))| Step {
                core,
                asid,
                start,
                len,
                stride,
                write,
                warm: warm == 0,
                pc,
                mask_start,
                mask_len: mask_len.min(12 - mask_start),
            })
    }

    /// Every valid L1/L2 line of core `c` has bit `c` set on its LLC entry.
    fn assert_sharers_cover_holders(h: &Hierarchy) {
        for c in 0..h.cores {
            for cache in [&h.l1[c], &h.l2[c]] {
                for (_, _, line, _, _) in cache.iter_entries() {
                    let sharers = h.llc.sharers_of(h.to_llc(line)).expect("inclusion");
                    assert!(sharers >> c & 1 == 1, "core {c} holds {line} but sharers are {sharers:#010b}");
                }
            }
        }
    }

    /// One valid cache entry: `(set, way, line, owner, dirty)`.
    type Entry = (usize, usize, LineAddr, u8, bool);

    /// Everything observable about a hierarchy's cache state.
    fn contents(h: &Hierarchy) -> Vec<Vec<Entry>> {
        let mut all: Vec<_> = (0..h.cores)
            .flat_map(|c| [h.l1[c].iter_entries().collect(), h.l2[c].iter_entries().collect()])
            .collect();
        all.push(h.llc.iter_entries().collect());
        all
    }

    /// What breaks the sharer superset during a run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Disruption {
        None,
        /// The flush ablation before every 16th step.
        Flush,
        /// Page coloring from the start, recoloring every 16th step.
        Recolor,
    }

    /// Drives `steps` through a sharer-filtered hierarchy and an
    /// all-core-probe reference side by side, asserting identical
    /// outcomes and, while filtering is on, the sharer invariant.
    fn check(steps: &[Step], pf_bits: u8, quantum: u64, throttled: usize, disruption: Disruption) {
        let colored = disruption == Disruption::Recolor;
        let mut cfg = MachineConfig::scaled(64);
        if colored {
            cfg.llc.index = IndexHash::Modulo;
        }
        let mut pf = PrefetcherMask::all_disabled();
        for (i, p) in Prefetcher::ALL.into_iter().enumerate() {
            pf = pf.with(p, pf_bits >> i & 1 == 1);
        }
        let mut fast = Hierarchy::new(&cfg);
        let mut reference = Hierarchy::new(&cfg);
        reference.filter_sharers = false;
        let mut models: Vec<(RingModel, DramModel)> =
            (0..2).map(|_| (RingModel::new(cfg.ring), DramModel::new(cfg.dram))).collect();
        for h in [&mut fast, &mut reference] {
            h.set_mba(throttled, 40);
            if colored {
                h.enable_coloring(4);
                h.coloring_mut().unwrap().assign(1, 0b0011);
            }
        }
        assert_eq!(fast.filter_sharers, !colored, "coloring must disable sharer filtering");

        let mut n = 0u64;
        for (i, step) in steps.iter().enumerate() {
            if i % 16 == 15 && disruption == Disruption::Flush {
                // A one-way mask flushes most of the core's lines.
                let mask = WayMask::contiguous(step.mask_start, 1);
                let dropped: Vec<usize> = [&mut fast, &mut reference]
                    .into_iter()
                    .zip(models.iter_mut())
                    .map(|(h, (_, dram))| h.flush_llc_outside_mask(step.core, mask, dram))
                    .collect();
                assert_eq!(dropped[0], dropped[1]);
                assert!(!fast.filter_sharers, "the flush ablation must disable sharer filtering");
            }
            if i % 16 == 15 && colored {
                let colors = [0b0011, 0b1100, 0b0110, 0b1001][i / 16 % 4];
                for h in [&mut fast, &mut reference] {
                    h.coloring_mut().unwrap().assign(step.asid, colors);
                }
            }
            let mask = WayMask::contiguous(step.mask_start, step.mask_len);
            for k in 0..step.len {
                let access = Access {
                    line: LineAddr::in_space(step.asid, step.start + k * step.stride),
                    write: step.write && k % 2 == 0,
                    pc: step.pc,
                    non_temporal: step.pc == 15 && k == 0,
                    mlp: 1.0,
                };
                if step.warm {
                    fast.warm_access(step.core, &access, mask);
                    reference.warm_access(step.core, &access, mask);
                } else {
                    let [(ring_a, dram_a), (ring_b, dram_b)] = &mut models[..] else { unreachable!() };
                    let a = fast.access(step.core, &access, mask, pf, ring_a, dram_a);
                    let b = reference.access(step.core, &access, mask, pf, ring_b, dram_b);
                    assert_eq!(a, b, "step {i} access {k} diverged");
                }
                n += 1;
                if n.is_multiple_of(32) {
                    for (ring, dram) in models.iter_mut() {
                        ring.end_quantum(quantum);
                        dram.end_quantum(quantum);
                    }
                }
                if fast.filter_sharers {
                    assert_sharers_cover_holders(&fast);
                }
            }
        }
        assert_eq!(contents(&fast), contents(&reference));
        assert_eq!(models[0].1.total_lines, models[1].1.total_lines);
        for c in 0..cfg.cores {
            assert_eq!(fast.engine(c).issued, reference.engine(c).issued);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn filtered_back_invalidation_is_exact(
            steps in proptest::collection::vec(step_strategy(), 1..300),
            pf_bits in 0u8..16,
            quantum in 100u64..2000,
            throttled in 0usize..4,
        ) {
            check(&steps, pf_bits, quantum, throttled, Disruption::None);
        }

        #[test]
        fn flush_ablation_falls_back_exactly(
            steps in proptest::collection::vec(step_strategy(), 1..300),
            pf_bits in 0u8..16,
            quantum in 100u64..2000,
        ) {
            check(&steps, pf_bits, quantum, 0, Disruption::Flush);
        }

        #[test]
        fn coloring_falls_back_exactly(
            steps in proptest::collection::vec(step_strategy(), 1..300),
            pf_bits in 0u8..16,
            quantum in 100u64..2000,
        ) {
            check(&steps, pf_bits, quantum, 0, Disruption::Recolor);
        }
    }

    #[test]
    fn more_than_eight_cores_probe_every_core() {
        let mut cfg = MachineConfig::scaled(64);
        cfg.cores = 9;
        assert!(!Hierarchy::new(&cfg).filter_sharers);
        cfg.cores = 8;
        assert!(Hierarchy::new(&cfg).filter_sharers);
    }
}

/// Exactness of the machine's latency fold: within one quantum every
/// access a core satisfies at one level costs what `level_latency` gives
/// for that (level, core) when the quantum closes, which is the latency
/// the machine folds into its histograms. Random streams, cores, way
/// masks, prefetchers and MBA throttles, with ring and DRAM load that
/// moves both queue multipliers at every quantum boundary.
#[cfg(test)]
mod level_latency_exactness {
    use super::*;
    use crate::msr::Prefetcher;
    use proptest::prelude::*;

    /// One access and the way count of the core issuing it.
    #[derive(Debug, Clone)]
    struct Op {
        core: usize,
        line: u64,
        write: bool,
        non_temporal: bool,
        pc: u32,
        ways: usize,
    }

    /// One quantum: its accesses, the ring requests and DRAM lines other
    /// traffic adds before it closes, and each core's MBA percent for the
    /// next quantum.
    #[derive(Debug, Clone)]
    struct Quantum {
        ops: Vec<Op>,
        ring_load: u64,
        dram_load: u64,
        mba: Vec<u8>,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0usize..4, 0u64..1536, any::<bool>(), 0u32..16, 0u32..8, 1usize..13).prop_map(
            |(core, line, write, nt, pc, ways)| Op { core, line, write, non_temporal: nt == 0, pc, ways },
        )
    }

    fn quantum_strategy() -> impl Strategy<Value = Quantum> {
        (
            proptest::collection::vec(op_strategy(), 0..160),
            0u64..4000,
            0u64..2000,
            // Clamped so both ends, 10% and unthrottled, come up often.
            proptest::collection::vec((0u8..140).prop_map(|p| p.clamp(10, 100)), 4..5),
        )
            .prop_map(|(ops, ring_load, dram_load, mba)| Quantum { ops, ring_load, dram_load, mba })
    }

    fn check(quanta: &[Quantum], pf_bits: u8, quantum_cycles: u64) {
        let cfg = MachineConfig::scaled(64);
        let mut h = Hierarchy::new(&cfg);
        let mut ring = RingModel::new(cfg.ring);
        let mut dram = DramModel::new(cfg.dram);
        let mut pf = PrefetcherMask::all_disabled();
        for (i, p) in Prefetcher::ALL.into_iter().enumerate() {
            pf = pf.with(p, pf_bits >> i & 1 == 1);
        }
        for (n, q) in quanta.iter().enumerate() {
            let outcomes: Vec<(CoreId, AccessOutcome)> = q
                .ops
                .iter()
                .map(|op| {
                    let access = Access {
                        line: LineAddr::in_space(op.core as u16 % 2, op.line),
                        write: op.write,
                        pc: op.pc,
                        non_temporal: op.non_temporal,
                        mlp: 1.0,
                    };
                    let mask = WayMask::contiguous(0, op.ways);
                    (op.core, h.access(op.core, &access, mask, pf, &mut ring, &mut dram))
                })
                .collect();
            for _ in 0..q.ring_load {
                ring.request();
            }
            for _ in 0..q.dram_load {
                dram.consume();
            }
            for (i, (core, o)) in outcomes.iter().enumerate() {
                let folded = h.level_latency(*core, o.level, &ring, &dram);
                assert_eq!(o.latency, folded, "quantum {n} access {i} on core {core}: {o:?}");
            }
            ring.end_quantum(quantum_cycles);
            dram.end_quantum(quantum_cycles);
            for (core, &percent) in q.mba.iter().enumerate() {
                h.set_mba(core, percent);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn every_outcome_costs_its_level_latency_at_quantum_close(
            quanta in proptest::collection::vec(quantum_strategy(), 1..12),
            pf_bits in 0u8..16,
            quantum_cycles in 200u64..5000,
        ) {
            check(&quanta, pf_bits, quantum_cycles);
        }
    }

    #[test]
    fn queue_load_and_throttle_move_the_level_latencies() {
        let cfg = MachineConfig::scaled(64);
        let mut h = Hierarchy::new(&cfg);
        let mut ring = RingModel::new(cfg.ring);
        let mut dram = DramModel::new(cfg.dram);
        let idle: Vec<u64> = HitLevel::all().iter().map(|&l| h.level_latency(1, l, &ring, &dram)).collect();
        let lat = cfg.latency;
        assert_eq!(idle, [lat.l1_hit, lat.l2_hit, lat.llc_hit, lat.llc_hit + lat.dram, lat.dram]);
        for _ in 0..900 {
            ring.request();
            dram.consume();
        }
        ring.end_quantum(1000);
        dram.end_quantum(1000);
        h.set_mba(1, 50);
        let loaded: Vec<u64> = HitLevel::all().iter().map(|&l| h.level_latency(1, l, &ring, &dram)).collect();
        let ring_lat = (lat.llc_hit as f64 * ring.queue_mult()) as u64;
        let dram_lat = (lat.dram as f64 * dram.queue_mult()) as u64 * 2;
        assert!(ring_lat > lat.llc_hit && dram_lat > 2 * lat.dram, "{ring_lat} {dram_lat}");
        assert_eq!(loaded, [lat.l1_hit, lat.l2_hit, ring_lat, ring_lat + dram_lat, dram_lat]);
        // Another core's throttle is its own.
        assert_eq!(h.level_latency(0, HitLevel::Bypass, &ring, &dram), dram_lat / 2);
    }
}
