//! The simulated socket: cores, hyperthreads, and the quantum scheduler.
//!
//! [`Machine`] ties the hierarchy, bandwidth models, MSR bank, and
//! performance counters together and advances attached
//! [`AccessStream`](crate::stream::AccessStream)s in fixed-length quanta.
//! Within a quantum each hardware thread runs independently against
//! contention multipliers measured over the previous quantum — the standard
//! interval-simulation trade-off that keeps multi-application co-simulation
//! fast while preserving steady-state contention effects.
//!
//! Applications are identified by their address-space id (`asid`); an
//! application "finishes" when every thread attached under its asid has
//! returned [`StreamEvent::Done`](crate::stream::StreamEvent::Done).

use crate::config::MachineConfig;
use crate::counters::HwCounters;
use crate::dram::DramModel;
use crate::hierarchy::{AccessOutcome, Hierarchy, HitLevel};
use crate::msr::{MsrBank, PrefetcherMask};
use crate::ring::RingModel;
use crate::stream::{AccessStream, StreamEvent};
use crate::tallies::LevelFold;
use crate::waymask::WayMask;
use crate::{CoreId, Cycles, HwThreadId};
use waypart_telemetry::progress::{self, Phase};

/// Events pulled per [`AccessStream::fill`] call. Large enough to amortize
/// the virtual dispatch and the models' per-burst setup, small enough that
/// a full buffer stays in the simulating machine's L1.
const EVENT_BUF: usize = 256;

/// Counter increments per satisfying level, indexed by
/// [`HitLevel::index`]: `[l1_misses, l2_misses, llc_accesses, llc_misses,
/// non_temporal]`. Non-temporal references (`Bypass`) still appear as LLC
/// traffic on the uncore counters: they cross the ring and miss.
const LEVEL_COUNTS: [[u64; 5]; HitLevel::COUNT] = [
    [0, 0, 0, 0, 0], // L1
    [1, 0, 0, 0, 0], // L2
    [1, 1, 1, 0, 0], // LLC
    [1, 1, 1, 1, 0], // DRAM
    [0, 0, 1, 1, 1], // Bypass
];

/// Accesses per satisfying level in a detailed counter delta, indexed by
/// [`HitLevel::index`] — the inverse of [`LEVEL_COUNTS`].
fn level_counts(delta: &HwCounters) -> [u64; HitLevel::COUNT] {
    let dram = delta.llc_misses - delta.non_temporal;
    [
        delta.l1_accesses - delta.l1_misses - delta.non_temporal,
        delta.l1_misses - delta.l2_misses,
        delta.l2_misses - dram,
        dram,
        delta.non_temporal,
    ]
}

/// One hardware thread's execution context.
struct ThreadSlot {
    stream: Box<dyn AccessStream>,
    asid: u16,
    done: bool,
    /// Cycles this thread overshot its previous quantum by.
    carry: f64,
    /// Bulk event buffer; `buf[pos..len]` are generated-but-unconsumed
    /// events that persist across quantum boundaries, so the per-quantum
    /// cycle accounting is identical to the one-event-at-a-time engine.
    buf: Box<[StreamEvent]>,
    pos: usize,
    len: usize,
    /// Set when a `fill` came back short: the stream is exhausted and the
    /// buffered tail is all that remains.
    exhausted: bool,
    /// Counter deltas of this thread's most recent detailed quantum;
    /// fast-forward quanta (sampled fidelity) extrapolate from these
    /// rates.
    rate: Option<HwCounters>,
    /// Fractional counter remainders carried across fast-forward
    /// extrapolations so long skips stay unbiased (one slot per
    /// extrapolated counter field; see `extrapolate_skip`).
    ff_frac: [f64; 9],
    /// Instructions this thread has fallen behind the rate trajectory
    /// (positive = behind). A fast-forward stops at the first event
    /// boundary past its target, and the next one takes the difference
    /// off its own target, so sampled finish times track the measured
    /// pace.
    lag: i64,
}

impl ThreadSlot {
    fn new(stream: Box<dyn AccessStream>, asid: u16) -> Self {
        ThreadSlot {
            stream,
            asid,
            done: false,
            carry: 0.0,
            buf: vec![StreamEvent::Done; EVENT_BUF].into_boxed_slice(),
            pos: 0,
            len: 0,
            exhausted: false,
            rate: None,
            ff_frac: [0.0; 9],
            lag: 0,
        }
    }
}

/// Activity summary for one quantum, consumed by the energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuantumActivity {
    /// Length of the quantum in cycles.
    pub cycles: Cycles,
    /// Number of hyperthreads that executed this quantum.
    pub active_threads: usize,
    /// Number of cores with at least one active hyperthread.
    pub active_cores: usize,
    /// Instructions retired socket-wide this quantum.
    pub instructions: u64,
    /// LLC accesses this quantum.
    pub llc_accesses: u64,
    /// DRAM line transfers this quantum (reads + write-backs + prefetches).
    pub dram_lines: u64,
    /// True when at least one thread is still runnable.
    pub any_active: bool,
}

/// The simulated 4-core / 8-thread socket.
pub struct Machine {
    cfg: MachineConfig,
    hierarchy: Hierarchy,
    ring: RingModel,
    dram: DramModel,
    msr: MsrBank,
    threads: Vec<Option<ThreadSlot>>,
    counters: Vec<HwCounters>,
    /// Telemetry-only latency histograms and tallies, folded from each
    /// detailed thread-quantum. Never read by simulation logic.
    levels: LevelFold,
    now: Cycles,
    /// Cycle at which each asid's last thread finished.
    finish_times: std::collections::HashMap<u16, Cycles>,
    /// When false, threads run the one-event-at-a-time loop instead of the
    /// buffered drain. The two paths are semantically identical (the
    /// equivalence harness pins this); the scalar path exists as the test
    /// oracle and costs one branch per thread-quantum to keep compiled.
    batching: bool,
}

impl Machine {
    /// Builds an idle machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let n = cfg.hw_threads();
        Machine {
            hierarchy: Hierarchy::new(&cfg),
            ring: RingModel::new(cfg.ring),
            dram: DramModel::new(cfg.dram),
            msr: MsrBank::new(cfg.cores, cfg.llc.ways),
            threads: (0..n).map(|_| None).collect(),
            counters: vec![HwCounters::default(); n],
            levels: LevelFold::default(),
            now: 0,
            finish_times: std::collections::HashMap::new(),
            batching: true,
            cfg,
        }
    }

    /// Selects between the buffered drain loop (default) and the scalar
    /// one-event-at-a-time loop. The scalar path is the oracle the batched
    /// engine is tested against; production code never turns it on.
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current wall-clock cycle.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Pins `stream` to hardware thread `ht` under address space `asid`
    /// (the simulator's `taskset`).
    ///
    /// # Panics
    /// Panics if `ht` is out of range or already occupied.
    pub fn attach(&mut self, ht: HwThreadId, asid: u16, stream: Box<dyn AccessStream>) {
        assert!(ht < self.threads.len(), "hardware thread {ht} out of range");
        assert!(self.threads[ht].is_none(), "hardware thread {ht} already occupied");
        self.threads[ht] = Some(ThreadSlot::new(stream, asid));
        self.finish_times.remove(&asid);
    }

    /// Programs core `core`'s LLC way allocation (via the MSR bank; takes
    /// effect on the next replacement, no flush).
    pub fn set_way_mask(&mut self, core: CoreId, mask: WayMask) {
        self.msr.set_way_mask(core, mask);
    }

    /// Core `core`'s current way allocation.
    pub fn way_mask(&self, core: CoreId) -> WayMask {
        self.msr.way_mask(core)
    }

    /// Programs the prefetcher enable MSR bits.
    pub fn set_prefetchers(&mut self, mask: PrefetcherMask) {
        self.msr.set_prefetchers(mask);
    }

    /// Programs core `core`'s memory-bandwidth throttle (MBA analog,
    /// percent of full bandwidth) — the §8 future-work QoS knob.
    pub fn set_mba(&mut self, core: CoreId, percent: u8) {
        self.msr.set_mba(core, percent);
        self.hierarchy.set_mba(core, percent);
    }

    /// Core `core`'s current bandwidth throttle.
    pub fn mba(&self, core: CoreId) -> u8 {
        self.msr.mba(core)
    }

    /// Counter file of hardware thread `ht`.
    pub fn counters(&self, ht: HwThreadId) -> &HwCounters {
        &self.counters[ht]
    }

    /// Aggregated counters of every thread attached under `asid`.
    pub fn app_counters(&self, asid: u16) -> HwCounters {
        let mut total = HwCounters::default();
        for (ht, slot) in self.threads.iter().enumerate() {
            if let Some(s) = slot {
                if s.asid == asid {
                    total = total.merge(&self.counters[ht]);
                }
            }
        }
        total
    }

    /// Whether every thread of `asid` has finished.
    pub fn app_done(&self, asid: u16) -> bool {
        let mut saw = false;
        for slot in self.threads.iter().flatten() {
            if slot.asid == asid {
                saw = true;
                if !slot.done {
                    return false;
                }
            }
        }
        saw
    }

    /// Cycle at which `asid`'s last thread finished, if it has.
    pub fn finish_time(&self, asid: u16) -> Option<Cycles> {
        self.finish_times.get(&asid).copied()
    }

    /// Whether any attached thread is still runnable.
    pub fn any_active(&self) -> bool {
        self.threads.iter().flatten().any(|s| !s.done)
    }

    /// LLC lines currently owned by `core`'s fills.
    pub fn llc_occupancy_of(&self, core: CoreId) -> usize {
        self.hierarchy.llc_occupancy_of(core)
    }

    /// The hierarchy (for invariant checks and ablations).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The `sim.tallies` fields of every detailed quantum so far (see
    /// [`LevelFold::tallies`]).
    pub fn tallies(&self) -> [(&'static str, u64); 12] {
        self.levels.tallies(self.hierarchy.fill_tallies())
    }

    /// Per-access latency histograms of every detailed quantum so far, by
    /// satisfying level, indexed by [`HitLevel::index`].
    pub fn latency_hists(&self) -> &[waypart_telemetry::Histogram; HitLevel::COUNT] {
        self.levels.latency_hists()
    }

    /// Enables per-core utility monitors (for the UCP baseline).
    pub fn enable_umon(&mut self) {
        self.hierarchy.enable_umon();
    }

    /// Core `core`'s utility monitor, if enabled.
    pub fn umon(&self, core: CoreId) -> Option<&crate::umon::UtilityMonitor> {
        self.hierarchy.umon(core)
    }

    /// Decays all utility-monitor counters (UCP repartition interval).
    pub fn decay_umons(&mut self) {
        self.hierarchy.decay_umons();
    }

    /// Enables page coloring (set partitioning) with `groups` color
    /// groups. Requires a modulo-indexed LLC; see
    /// [`crate::coloring::ColorAssignment`].
    pub fn enable_coloring(&mut self, groups: usize) {
        self.hierarchy.enable_coloring(groups);
    }

    /// Assigns color groups to an address space; returns the previous
    /// mask so callers can model the recoloring (page-copy) cost.
    ///
    /// # Panics
    /// Panics if coloring is not enabled.
    pub fn assign_colors(&mut self, asid: u16, mask: u32) -> Option<u32> {
        self.hierarchy
            .coloring_mut()
            .expect("enable_coloring first")
            .assign(asid, mask)
    }

    /// Flushes `core`-owned LLC lines outside its current mask — the
    /// "flush on reallocation" ablation. The real mechanism never does
    /// this.
    pub fn flush_llc_outside_mask(&mut self, core: CoreId) {
        let mask = self.msr.way_mask(core);
        self.hierarchy.flush_llc_outside_mask(core, mask, &mut self.dram);
    }

    /// Advances every runnable thread by one quantum and updates the
    /// bandwidth models. Returns the quantum's activity summary.
    pub fn run_quantum(&mut self) -> QuantumActivity {
        let quantum = self.cfg.quantum_cycles;
        let act = self.advance_threads(|m, ht, core, dilation| {
            (m.run_thread_quantum(ht, core, quantum, dilation), false)
        });
        self.ring.end_quantum(quantum);
        self.dram.end_quantum(quantum);
        self.now += quantum;
        act
    }

    /// The part of a quantum every entry point shares: finds the runnable
    /// threads, advances each through `advance(self, ht, core, dilation)`
    /// — which returns whether the thread's stream finished and whether
    /// its counters were extrapolated rather than simulated — sums the
    /// quantum's activity, and marks each application that finished. The
    /// caller closes the quantum (bandwidth models, clock).
    fn advance_threads(
        &mut self,
        mut advance: impl FnMut(&mut Self, HwThreadId, CoreId, f64) -> (bool, bool),
    ) -> QuantumActivity {
        let quantum = self.cfg.quantum_cycles;
        let tpc = self.cfg.threads_per_core;
        let dram_before = self.dram.total_lines;

        // Sibling activity decides SMT dilation for the whole quantum.
        // Kept as bitmasks: this runs once per quantum for the entire
        // run, and the per-call Vec allocations used to show up in
        // profiles of short-quantum configurations.
        debug_assert!(self.threads.len() <= 128, "thread bitmask limited to 128 hw threads");
        let mut active = 0u128;
        for (ht, s) in self.threads.iter().enumerate() {
            if s.as_ref().map(|t| !t.done).unwrap_or(false) {
                active |= 1 << ht;
            }
        }

        let mut act = QuantumActivity { cycles: quantum, any_active: false, ..Default::default() };
        let mut core_active = 0u128;

        for ht in 0..self.threads.len() {
            if active >> ht & 1 == 0 {
                continue;
            }
            act.any_active = true;
            act.active_threads += 1;
            let core = ht / tpc;
            core_active |= 1 << core;

            // Any *other* active hyperthread on the same core?
            let core_mask = (((1u128 << tpc) - 1) << (core * tpc)) & !(1u128 << ht);
            let sibling_active = active & core_mask != 0;
            let dilation =
                if sibling_active { self.cfg.smt.compute_dilation } else { 1.0 };

            let before = self.counters[ht];
            let (finished, extrapolated) = advance(self, ht, core, dilation);
            let delta = self.counters[ht].delta(&before);
            act.instructions += delta.instructions;
            act.llc_accesses += delta.llc_accesses;
            if extrapolated {
                // Extrapolated DRAM traffic for the energy model (real
                // traffic lands in the `total_lines` delta below).
                act.dram_lines += delta.llc_misses + delta.dram_writebacks;
            }

            if finished {
                let slot = self.threads[ht].as_mut().expect("active thread");
                slot.done = true;
                let asid = slot.asid;
                if self.app_done(asid) {
                    self.finish_times.insert(asid, self.now + quantum);
                }
            }
        }

        act.active_cores = core_active.count_ones() as usize;
        act.dram_lines += self.dram.total_lines - dram_before;
        act
    }

    /// Runs thread `ht` for up to `quantum` cycles, remembers the
    /// quantum's counter deltas as the thread's extrapolation rates and
    /// folds them into the latency histograms. Returns true if the stream
    /// completed.
    fn run_thread_quantum(&mut self, ht: HwThreadId, core: CoreId, quantum: Cycles, dilation: f64) -> bool {
        let budget = quantum as f64;
        let mask = self.msr.way_mask(core);
        let pf_mask = self.msr.prefetchers();
        let store_stall = self.cfg.store_stall_factor;

        // Temporarily take the slot to satisfy the borrow checker while the
        // hierarchy runs; cheap pointer moves only.
        let mut slot = self.threads[ht].take().expect("runnable thread");
        let cpi = slot.stream.base_cpi() * dilation;
        let mut used = slot.carry;
        let counters = &mut self.counters[ht];
        let rate_before = *counters;
        let mut finished = false;

        // Phase attribution (observation-only, off by default): wall time
        // inside this function partitions into stream generation (the
        // `fill` calls) and probe+fill (everything else). Sampled at
        // buffer/quantum granularity — never per event — so the enabled
        // cost is two clock reads per 256-event refill.
        let mut drain_seg = progress::phase_begin();

        if self.batching {
            // Drain buffered events; refill in bulk when the buffer runs
            // dry. An event is consumed exactly when the scalar loop would
            // have generated it (`used < budget`), and unconsumed buffered
            // events carry over to the next quantum via `pos`, so the two
            // paths execute the identical event sequence.
            while used < budget {
                if slot.pos == slot.len {
                    if slot.exhausted {
                        finished = true;
                        break;
                    }
                    progress::phase_add(Phase::ProbeFill, drain_seg);
                    let fill_t0 = progress::phase_begin();
                    slot.len = slot.stream.fill(&mut slot.buf);
                    progress::phase_add(Phase::StreamGen, fill_t0);
                    drain_seg = progress::phase_begin();
                    slot.pos = 0;
                    slot.exhausted = slot.len < slot.buf.len();
                    if slot.len == 0 {
                        finished = true;
                        break;
                    }
                }
                // SAFETY: `pos < len <= buf.len()` by the refill above.
                let ev = unsafe { *slot.buf.get_unchecked(slot.pos) };
                slot.pos += 1;
                match ev {
                    StreamEvent::Access { instr_gap, access } => {
                        counters.instructions += u64::from(instr_gap) + 1;
                        used += (f64::from(instr_gap) + 1.0) * cpi;
                        let outcome = self
                            .hierarchy
                            .access(core, &access, mask, pf_mask, &mut self.ring, &mut self.dram);
                        Self::charge(counters, &access, &outcome, store_stall, &mut used);
                    }
                    StreamEvent::Compute { instrs } => {
                        counters.instructions += u64::from(instrs);
                        used += f64::from(instrs) * cpi;
                    }
                    // `fill` never stores `Done`.
                    StreamEvent::Done => unreachable!("Done event in bulk buffer"),
                }
            }
        } else {
            while used < budget {
                match slot.stream.next_event() {
                    StreamEvent::Compute { instrs } => {
                        counters.instructions += u64::from(instrs);
                        used += f64::from(instrs) * cpi;
                    }
                    StreamEvent::Access { instr_gap, access } => {
                        counters.instructions += u64::from(instr_gap) + 1;
                        used += (f64::from(instr_gap) + 1.0) * cpi;
                        let outcome = self
                            .hierarchy
                            .access(core, &access, mask, pf_mask, &mut self.ring, &mut self.dram);
                        Self::charge(counters, &access, &outcome, store_stall, &mut used);
                    }
                    StreamEvent::Done => {
                        finished = true;
                        break;
                    }
                }
            }
        }
        progress::phase_add(Phase::ProbeFill, drain_seg);

        slot.carry = (used - budget).max(0.0);
        counters.cycles += if finished { used.min(budget) as u64 } else { quantum };
        let delta = counters.delta(&rate_before);
        slot.rate = Some(delta);
        self.threads[ht] = Some(slot);
        // Neither queue multiplier nor the core's MBA throttle has moved
        // since the quantum began, so every access the core satisfied at a
        // level cost what `level_latency` charges now.
        let (hierarchy, ring, dram) = (&self.hierarchy, &self.ring, &self.dram);
        self.levels.fold(&delta, level_counts(&delta), |level| hierarchy.level_latency(core, level, ring, dram));
        finished
    }

    /// Advances every runnable thread by one quantum without timing its
    /// accesses — the sampled-fidelity fast-forward window.
    ///
    /// Each thread's stream is generated (via the bulk `fill` path, so
    /// generation cost stays amortized) for as many instructions as its
    /// most recent detailed quantum retired, and every access is driven
    /// through the hierarchy's functional-warming walk
    /// (`Hierarchy::warm_access`): tags and replacement state follow the
    /// exact event sequence the detailed engine would have consumed, so
    /// cache state never goes stale across skips. Counters do not come
    /// from the walk: they advance by the detailed quantum's rates scaled
    /// to the instructions actually skipped, with fractional remainders
    /// carried so long skips stay unbiased. The ring/DRAM queue
    /// multipliers are *frozen* (no `end_quantum`): contention state
    /// persists across the skip and the next detailed window resumes under
    /// the measured load. A thread that has never run a detailed quantum
    /// falls back to a detailed one.
    ///
    /// Deterministic: the walk and the extrapolation are pure functions of
    /// machine state. Approximations (documented in DESIGN.md §5e): the
    /// walk issues no prefetches and moves no bandwidth or utility-monitor
    /// state.
    pub fn fast_forward_quantum(&mut self) -> QuantumActivity {
        let quantum = self.cfg.quantum_cycles;
        let act = self.advance_threads(|m, ht, core, dilation| {
            let has_rate = m.threads[ht].as_ref().and_then(|s| s.rate).map(|r| r.instructions > 0).unwrap_or(false);
            if !has_rate {
                // Never measured: run a detailed quantum instead.
                return (m.run_thread_quantum(ht, core, quantum, dilation), false);
            }
            (m.warm_thread(ht, core, quantum), true)
        });
        self.now += quantum;
        act
    }

    /// Fast-forwards one thread through the warming walk by its detailed
    /// quantum's instruction count less any overshoot the previous skip
    /// left in `lag`; returns true if the stream ran out of work.
    fn warm_thread(&mut self, ht: HwThreadId, core: CoreId, quantum: Cycles) -> bool {
        let mut slot = self.threads[ht].take().expect("runnable thread");
        let rate = slot.rate.expect("caller checked rate");
        let target = (rate.instructions as i64 + slot.lag).max(1) as u64;
        let mask = self.msr.way_mask(core);

        let mut advanced = 0u64;
        let mut finished = false;
        // Phase attribution mirrors `run_thread_quantum`: `fill` is
        // stream generation, the warming walk itself is probe+fill.
        let mut drain_seg = progress::phase_begin();
        loop {
            while advanced < target && slot.pos < slot.len {
                // SAFETY: `pos < len <= buf.len()` by the loop condition.
                let ev = unsafe { *slot.buf.get_unchecked(slot.pos) };
                slot.pos += 1;
                match ev {
                    StreamEvent::Access { instr_gap, access } => {
                        advanced += u64::from(instr_gap) + 1;
                        self.hierarchy.warm_access(core, &access, mask);
                    }
                    StreamEvent::Compute { instrs } => advanced += u64::from(instrs),
                    StreamEvent::Done => unreachable!("Done event in bulk buffer"),
                }
            }
            if advanced >= target {
                break;
            }
            if slot.exhausted {
                finished = true;
                break;
            }
            progress::phase_add(Phase::ProbeFill, drain_seg);
            let fill_t0 = progress::phase_begin();
            slot.len = slot.stream.fill(&mut slot.buf);
            progress::phase_add(Phase::StreamGen, fill_t0);
            drain_seg = progress::phase_begin();
            slot.pos = 0;
            slot.exhausted = slot.len < slot.buf.len();
            if slot.len == 0 {
                finished = true;
                break;
            }
        }
        progress::phase_add(Phase::ProbeFill, drain_seg);

        slot.lag += rate.instructions as i64 - advanced as i64;
        Self::extrapolate_skip(
            &mut self.counters[ht],
            &mut slot.ff_frac,
            &rate,
            advanced,
            target,
            quantum,
            finished,
        );
        self.threads[ht] = Some(slot);
        finished
    }

    /// Fast-forward counter extrapolation. Counter deltas scale with
    /// instructions against the measured rate (catch-up quanta carry
    /// proportionally more misses); elapsed time scales against the
    /// quantum's own target. Fractional remainders carry in `ff_frac` so
    /// long skips stay unbiased.
    #[allow(clippy::too_many_arguments)]
    fn extrapolate_skip(
        counters: &mut HwCounters,
        ff_frac: &mut [f64; 9],
        rate: &HwCounters,
        advanced: u64,
        target: u64,
        quantum: Cycles,
        finished: bool,
    ) {
        counters.instructions += advanced;
        let factor = advanced as f64 / rate.instructions as f64;
        let quantum_frac = advanced as f64 / target as f64;
        counters.cycles += if finished { (quantum as f64 * quantum_frac) as u64 } else { quantum };
        let add = |dst: &mut u64, per_quantum: u64, frac: &mut f64| {
            let x = per_quantum as f64 * factor + *frac;
            let whole = x.floor();
            *dst += whole as u64;
            *frac = x - whole;
        };
        add(&mut counters.l1_accesses, rate.l1_accesses, &mut ff_frac[0]);
        add(&mut counters.l1_misses, rate.l1_misses, &mut ff_frac[1]);
        add(&mut counters.l2_misses, rate.l2_misses, &mut ff_frac[2]);
        add(&mut counters.llc_accesses, rate.llc_accesses, &mut ff_frac[3]);
        add(&mut counters.llc_misses, rate.llc_misses, &mut ff_frac[4]);
        add(&mut counters.dram_writebacks, rate.dram_writebacks, &mut ff_frac[5]);
        add(&mut counters.prefetches_issued, rate.prefetches_issued, &mut ff_frac[6]);
        add(&mut counters.prefetch_hits, rate.prefetch_hits, &mut ff_frac[7]);
        add(&mut counters.non_temporal, rate.non_temporal, &mut ff_frac[8]);
    }

    /// Updates `counters` and the thread's consumed cycles for one access.
    #[inline(always)]
    fn charge(
        counters: &mut HwCounters,
        access: &crate::stream::Access,
        outcome: &AccessOutcome,
        store_stall_factor: f64,
        used: &mut f64,
    ) {
        let [l1_misses, l2_misses, llc_accesses, llc_misses, non_temporal] =
            LEVEL_COUNTS[outcome.level.index()];
        counters.l1_accesses += 1;
        counters.l1_misses += l1_misses;
        counters.l2_misses += l2_misses;
        counters.llc_accesses += llc_accesses;
        counters.llc_misses += llc_misses;
        counters.non_temporal += non_temporal;
        counters.dram_writebacks += u64::from(outcome.dram_writebacks);
        counters.prefetches_issued += u64::from(outcome.prefetches_issued);

        // A zero-latency hit stalls for exactly +0.0 cycles, and `used`
        // is already positive (the access's own instructions were
        // charged), so skipping the division leaves it bit-identical.
        if outcome.latency != 0 {
            let mlp = f64::from(access.mlp.max(1.0));
            let mut stall = outcome.latency as f64 / mlp;
            if access.write && !access.non_temporal {
                stall *= store_stall_factor;
            }
            *used += stall;
        }
    }

    /// Runs quanta until no thread is runnable or `max_quanta` elapse.
    /// Returns the number of quanta executed.
    pub fn run_to_completion(&mut self, max_quanta: u64) -> u64 {
        let mut n = 0;
        while n < max_quanta {
            let act = self.run_quantum();
            n += 1;
            if !act.any_active {
                break;
            }
        }
        n
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("threads", &self.threads.iter().filter(|t| t.is_some()).count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SequentialStream;

    fn machine() -> Machine {
        Machine::new(MachineConfig::scaled(64))
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut m = machine();
        m.attach(0, 1, Box::new(SequentialStream::new(1, 128, 10_000, 10)));
        let quanta = m.run_to_completion(100_000);
        assert!(quanta > 0);
        assert!(m.app_done(1));
        assert!(m.finish_time(1).is_some());
        let c = m.counters(0);
        assert_eq!(c.instructions, 10_000 * 11);
        assert!(c.cycles > 0);
        assert!(c.l1_accesses == 10_000);
    }

    #[test]
    fn repeated_small_working_set_hits_cache() {
        let mut m = machine();
        // 32 lines fits in L1: after warmup everything hits.
        m.attach(0, 1, Box::new(SequentialStream::new(1, 32, 50_000, 5)));
        m.run_to_completion(100_000);
        let c = m.counters(0);
        assert!(c.llc_misses < 200, "llc misses {} too high for L1-resident set", c.llc_misses);
    }

    #[test]
    fn smt_sibling_dilates_compute() {
        // Same workload alone vs with a sibling on the same core: the
        // shared-core run must take longer per thread.
        let mut alone = machine();
        alone.attach(0, 1, Box::new(SequentialStream::new(1, 32, 20_000, 20)));
        alone.run_to_completion(100_000);
        let t_alone = alone.finish_time(1).unwrap();

        let mut shared = machine();
        shared.attach(0, 1, Box::new(SequentialStream::new(1, 32, 20_000, 20)));
        shared.attach(1, 2, Box::new(SequentialStream::new(2, 32, 20_000, 20)));
        shared.run_to_completion(100_000);
        let t_shared = shared.finish_time(1).unwrap();

        assert!(t_shared > t_alone, "SMT sharing must dilate compute ({t_shared} <= {t_alone})");
        // But both threads together beat two sequential runs.
        assert!((t_shared as f64) < 2.0 * t_alone as f64);
    }

    #[test]
    fn separate_cores_do_not_dilate() {
        let mut m = machine();
        m.attach(0, 1, Box::new(SequentialStream::new(1, 32, 20_000, 20)));
        m.attach(2, 2, Box::new(SequentialStream::new(2, 32, 20_000, 20)));
        m.run_to_completion(100_000);
        let t = m.finish_time(1).unwrap();

        let mut alone = machine();
        alone.attach(0, 1, Box::new(SequentialStream::new(1, 32, 20_000, 20)));
        alone.run_to_completion(100_000);
        let t_alone = alone.finish_time(1).unwrap();

        // Small working sets on separate cores barely interact.
        let ratio = t as f64 / t_alone as f64;
        assert!(ratio < 1.1, "cross-core interference {ratio} too high for tiny working sets");
    }

    #[test]
    fn app_counters_aggregate_threads() {
        let mut m = machine();
        m.attach(0, 1, Box::new(SequentialStream::new(1, 32, 5_000, 10)));
        m.attach(2, 1, Box::new(SequentialStream::new(1, 32, 5_000, 10)));
        m.run_to_completion(100_000);
        let total = m.app_counters(1);
        assert_eq!(total.l1_accesses, 10_000);
    }

    #[test]
    fn quantum_activity_reports_threads_and_cores() {
        let mut m = machine();
        m.attach(0, 1, Box::new(SequentialStream::new(1, 32, 1_000_000, 10)));
        m.attach(1, 1, Box::new(SequentialStream::new(1, 32, 1_000_000, 10)));
        m.attach(4, 2, Box::new(SequentialStream::new(2, 32, 1_000_000, 10)));
        let act = m.run_quantum();
        assert_eq!(act.active_threads, 3);
        assert_eq!(act.active_cores, 2);
        assert!(act.instructions > 0);
        assert!(act.any_active);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_attach_rejected() {
        let mut m = machine();
        m.attach(0, 1, Box::new(SequentialStream::new(1, 32, 10, 1)));
        m.attach(0, 2, Box::new(SequentialStream::new(2, 32, 10, 1)));
    }

    #[test]
    fn mba_throttle_slows_memory_bound_thread() {
        // A DRAM-bound stream at 25% bandwidth must run measurably slower
        // than unthrottled, and the knob must not touch other cores.
        let llc_lines = MachineConfig::scaled(64).llc.size_bytes as u64 / 64;
        let run = |throttle: Option<u8>| {
            let mut m = machine();
            if let Some(p) = throttle {
                m.set_mba(0, p);
            }
            m.attach(0, 1, Box::new(SequentialStream::new(1, llc_lines * 8, 30_000, 2)));
            m.run_to_completion(200_000);
            m.finish_time(1).unwrap()
        };
        let free = run(None);
        let throttled = run(Some(25));
        assert!(
            throttled as f64 > free as f64 * 1.3,
            "25% MBA throttle only slowed {free} → {throttled}"
        );
    }

    #[test]
    fn level_counts_invert_the_charged_counters() {
        // Charging one access at a level adds `LEVEL_COUNTS[level]`;
        // reading the counts back must name that level alone, and a mix
        // of levels must come back level by level.
        let mut mix = HwCounters::default();
        let mut want = [0u64; HitLevel::COUNT];
        for (n, level) in HitLevel::all().into_iter().enumerate() {
            let access = crate::stream::Access {
                non_temporal: level == HitLevel::Bypass,
                ..crate::stream::Access::load(crate::LineAddr::in_space(0, 1))
            };
            let outcome = AccessOutcome { latency: 7, level, dram_writebacks: 0, prefetches_issued: 0 };
            let mut used = 1.0;
            let mut one = HwCounters::default();
            Machine::charge(&mut one, &access, &outcome, 1.0, &mut used);
            let mut onehot = [0u64; HitLevel::COUNT];
            onehot[level.index()] = 1;
            assert_eq!(level_counts(&one), onehot, "{level:?}");
            for _ in 0..=n {
                Machine::charge(&mut mix, &access, &outcome, 1.0, &mut used);
            }
            want[level.index()] = n as u64 + 1;
        }
        assert_eq!(level_counts(&mix), want);
    }

    #[test]
    fn only_detailed_quanta_fold_into_the_tallies() {
        let mut m = machine();
        let llc_lines = (m.config().llc.size_bytes / m.config().line_bytes) as u64;
        m.set_mba(1, 40);
        m.attach(0, 1, Box::new(SequentialStream::new(1, llc_lines * 2, 200_000, 3)));
        m.attach(2, 2, Box::new(SequentialStream::new(2, 64, 200_000, 3)));
        for _ in 0..6 {
            m.run_quantum();
        }
        let c = m.counters(0).merge(m.counters(2));
        let tallies = m.tallies();
        let t = |key| tallies.iter().find(|(k, _)| *k == key).expect("tally").1;
        assert_eq!(t("l1_hits") + t("l1_misses") + t("bypasses"), c.l1_accesses);
        assert_eq!((t("l1_misses"), t("l2_misses")), (c.l1_misses, c.l2_misses));
        assert_eq!(t("llc_misses") + t("bypasses"), c.llc_misses);
        assert_eq!((t("dram_writebacks"), t("pf_issued")), (c.dram_writebacks, c.prefetches_issued));
        let counted: u64 = m.latency_hists().iter().map(|h| h.count()).sum();
        assert_eq!(counted, c.l1_accesses);
        assert!(t("llc_misses") > 0 && t("llc_fills") >= t("llc_misses"), "{tallies:?}");
        // A fast-forward quantum extrapolates counters and folds nothing.
        let (hists, before) = (m.latency_hists().clone(), *m.counters(0));
        m.fast_forward_quantum();
        assert!(m.counters(0).l1_accesses > before.l1_accesses);
        assert_eq!((m.tallies(), m.latency_hists()), (tallies, &hists));
    }

    #[test]
    fn way_mask_programming_reaches_llc() {
        let mut m = machine();
        m.set_way_mask(0, WayMask::contiguous(0, 3));
        assert_eq!(m.way_mask(0).count(), 3);
        // Attach a stream bigger than 3 ways' worth of LLC: occupancy of
        // core 0 must max out near 3/12 of the LLC.
        let llc_lines = m.config().llc.size_bytes / m.config().line_bytes;
        m.attach(0, 1, Box::new(SequentialStream::new(1, llc_lines as u64 * 2, 400_000, 0)));
        m.run_to_completion(200_000);
        let occ = m.llc_occupancy_of(0);
        let limit = llc_lines * 3 / 12;
        assert!(occ <= limit + llc_lines / 64, "occupancy {occ} exceeds 3-way share {limit}");
    }
}
