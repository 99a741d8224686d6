//! The measurement harness: solo runs, co-scheduled pairs, and
//! dynamically-partitioned pairs.
//!
//! Placement follows §5: each application gets 4 threads on 2 dedicated
//! cores (both hyperthreads active) — foreground on cores 0–1 (hardware
//! threads 0–3), background on cores 2–3 (hardware threads 4–7).
//! Applications that cannot use 4 threads (SPEC, microbenchmarks) occupy
//! only the threads they can fill, exactly as `taskset` pinning would.
//!
//! Every kind of run — solo, static pair, hog, run-both-once, multi-copy,
//! MBA, page-colored and controlled — is a [`RunSpec`] built by a per-kind
//! constructor on [`Runner`], and one loop body, `Run::step`, advances
//! all of them: [`Runner::run`] steps one run to its end,
//! [`Runner::run_batch`] steps several in lockstep over shared generators.

use crate::controller::{Controller, UmonView, WindowView};
use crate::policy::PartitionPolicy;
use serde::{Deserialize, Serialize};
use waypart_energy::{EnergyBreakdown, EnergyMeter, PowerModel};
use waypart_perfmon::{MpkiSeries, Sampler};
use waypart_sim::coloring::ColorAssignment;
use waypart_sim::config::MachineConfig;
use waypart_sim::counters::HwCounters;
use waypart_sim::machine::{Machine, QuantumActivity};
use waypart_sim::msr::PrefetcherMask;
use waypart_sim::stream::SharedTrace;
use waypart_sim::{Cycles, WayMask};
use waypart_telemetry::{self as telemetry, Event, Stamp};
use waypart_workloads::{AppSpec, Scale};

/// Opens a `runner.run` telemetry span for a fresh run. Claims a new sim
/// track first: every run's cycle clock restarts at 0, so runs must not
/// share a track or their spans would overlap in trace viewers.
fn run_span_begin(kind: &'static str, fg: &AppSpec, bg: Option<&AppSpec>) {
    if !telemetry::sink_attached() {
        return;
    }
    telemetry::begin_sim_track();
    telemetry::emit_with(|| {
        let ev = Event::begin("runner.run", Stamp::Cycles(0))
            .field("kind", kind)
            .field("fg", fg.name);
        match bg {
            Some(bg) => ev.field("bg", bg.name),
            None => ev,
        }
    });
}

/// Closes the current run's `runner.run` span and emits the machine's
/// per-level tallies as a `sim.tallies` summary and its latency
/// histograms as one `sim.latency` summary per level — both folded from
/// the run's detailed quanta.
fn run_span_end(machine: &Machine, quanta: u64, reallocations: u64) {
    telemetry::emit_with(|| {
        Event::end("runner.run", Stamp::Cycles(machine.now()))
            .field("quanta", quanta)
            .field("reallocations", reallocations)
    });
    telemetry::emit_with(|| {
        let mut ev = Event::instant("sim.tallies", Stamp::Cycles(machine.now()));
        for (key, value) in machine.tallies() {
            ev = ev.field(key, value);
        }
        ev
    });
    // Event fields are scalar-only, so each level gets its own instant.
    for level in waypart_sim::hierarchy::HitLevel::all() {
        telemetry::emit_with(|| {
            let h = &machine.latency_hists()[level.index()];
            Event::instant("sim.latency", Stamp::Cycles(machine.now()))
                .field("level", level.name())
                .field("count", h.count())
                .field("min", h.min())
                .field("p50", h.p50())
                .field("p90", h.p90())
                .field("p99", h.p99())
                .field("max", h.max())
                .field("mean", h.mean())
        });
    }
}

/// Emits one `sim.occupancy` counter describing who holds the LLC right
/// now: per-core resident line counts plus the current way split. Fired
/// once per closed sampling window of every run with a background tenant
/// — the machine-readable form of the paper's Fig 12 occupancy timeline.
/// Pure observation (reads only), so it needs no feature gate: without a
/// sink the closure never runs.
fn emit_occupancy(machine: &Machine) {
    /// Field keys for up to 8 cores (the sim tops out at 4 + SMT).
    const OCC_KEYS: [&str; 8] =
        ["occ_c0", "occ_c1", "occ_c2", "occ_c3", "occ_c4", "occ_c5", "occ_c6", "occ_c7"];
    telemetry::emit_with(|| {
        let cfg = machine.config();
        let cores = cfg.cores.min(OCC_KEYS.len());
        let llc_lines = (cfg.llc.size_bytes / cfg.llc.line_bytes) as u64;
        let mut ev = Event::counter("sim.occupancy", Stamp::Cycles(machine.now()))
            .field("llc_lines", llc_lines)
            .field("fg_ways", machine.way_mask(0).count() as u64)
            .field("total_ways", cfg.llc.ways as u64);
        for (core, key) in OCC_KEYS.iter().enumerate().take(cores) {
            ev = ev.field(*key, machine.llc_occupancy_of(core) as u64);
        }
        ev
    });
}

/// Foreground address-space id.
pub const FG_ASID: u16 = 1;
/// Background address-space id.
pub const BG_ASID: u16 = 2;

/// Engine fidelity: exact interval simulation, or SMARTS-style systematic
/// sampling that alternates measured quanta with functionally-warmed,
/// rate-extrapolated fast-forward quanta (see DESIGN.md §5e for the error
/// model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FidelityMode {
    /// Every quantum runs the full engine. The default; byte-identical to
    /// the pre-fidelity engine.
    Exact,
    /// Periodic schedule: each period runs one measured quantum, then
    /// `skip_quanta` fast-forwarded quanta ([`Machine::fast_forward_quantum`]):
    /// their address streams still drive a tag-and-replacement-only cache
    /// walk, so cache state tracks the true trajectory, while their
    /// counters extrapolate from each thread's measured rates.
    Sampled {
        /// Fast-forwarded quanta per period.
        skip_quanta: u32,
    },
}

impl FidelityMode {
    /// The default sampled schedule: one measured quantum followed by
    /// three fast-forward quanta per period. Chosen from the error grid at
    /// both `test` and `bench` scale (see DESIGN.md §5e): the warming walk
    /// keeps cache tags on the true trajectory, but prefetch fills are
    /// excluded from it, so the residual error still grows with skip
    /// length — 1:3 is the longest schedule whose headline-pair MPKI error
    /// stays within the documented bound at *both* scales.
    pub fn sampled_default() -> Self {
        FidelityMode::Sampled { skip_quanta: 3 }
    }

    /// A fresh per-run scheduler for this mode.
    pub fn scheduler(&self) -> QuantumScheduler {
        QuantumScheduler {
            mode: *self,
            warming_up: matches!(self, FidelityMode::Sampled { .. }),
            warm_quanta: 0,
            ewma_primed: false,
            ewma: 0.0,
            stable: 0,
            pos: 0,
        }
    }
}

/// Per-run schedule state for a fidelity mode: an *adaptive* detailed
/// warm-up prefix, the periodic pattern of [`FidelityMode::Sampled`] (one
/// measured quantum, then `skip_quanta` fast-forwards), and adaptive
/// *re*-warming on traffic regime changes.
///
/// Why adaptive: a run's opening quanta are dominated by compulsory
/// fills — the caches are empty and every working-set line misses.
/// Extrapolating rates measured inside that transient multiplies the
/// warm-up misses by the skip ratio, which at small scales can inflate
/// MPKI severalfold. The scheduler therefore runs every quantum detailed
/// until per-quantum DRAM traffic (compulsory fills land there) settles:
/// once the traffic stays within ±25% of its EWMA for 4 consecutive
/// quanta (and at least [`QuantumScheduler::MIN_WARMUP`] quanta have
/// run), steady state has been reached and sampling begins — directly
/// with a skip, since the caches are maximally warm.
///
/// Why re-warming: phase-changing applications (`429.mcf` is the
/// paper's showcase) repeat the cold-start problem at every phase
/// boundary — the new phase's working set misses wholesale, and a
/// sampled run that keeps extrapolating through that transient inherits
/// the same severalfold bias mid-run. Detailed quanta keep feeding the
/// traffic EWMA; when one lands far outside the band (>100% deviation),
/// the scheduler drops back into detailed warm-up until the new phase's
/// traffic settles. Stable phases sample aggressively; transitions are
/// simulated exactly, once, just as an exact run pays them once.
///
/// Every criterion is a pure function of simulation state, so sampled
/// runs stay deterministic, and a run whose traffic never settles simply
/// stays detailed (exact results, no speedup — the honest failure mode).
#[derive(Debug, Clone)]
pub struct QuantumScheduler {
    mode: FidelityMode,
    /// Still inside a detailed warm-up (initial or re-triggered).
    warming_up: bool,
    /// Detailed quanta run so far during the current warm-up.
    warm_quanta: u64,
    /// Whether `ewma` has been seeded by a first observation.
    ewma_primed: bool,
    /// EWMA of per-quantum DRAM line transfers (α = 0.25).
    ewma: f64,
    /// Consecutive quanta whose DRAM traffic sat inside the EWMA band.
    stable: u32,
    /// Position within the periodic schedule once warm-up has ended.
    pos: u64,
}

impl QuantumScheduler {
    /// Minimum detailed quanta before sampling may (re)begin.
    const MIN_WARMUP: u64 = 8;
    /// Consecutive in-band quanta required to declare steady state. Phase
    /// transients decay with quasi-stable plateaus several quanta long;
    /// a short stability run can mistake one for steady state and exit
    /// warm-up with elevated rates, so the run must be longer than the
    /// plateaus observed in practice.
    const STABLE_QUANTA: u32 = 8;

    /// Advances `machine` by one quantum at the scheduled fidelity.
    pub fn step(&mut self, machine: &mut Machine) -> QuantumActivity {
        if self.fast_forward_next() {
            return machine.fast_forward_quantum();
        }
        let act = machine.run_quantum();
        self.observe(act.dram_lines);
        act
    }

    /// Whether the next quantum fast-forwards rather than runs detailed:
    /// never during a warm-up or under exact fidelity, otherwise all but
    /// the first quantum of each `1 + skip_quanta` period.
    fn fast_forward_next(&mut self) -> bool {
        let FidelityMode::Sampled { skip_quanta } = self.mode else {
            return false;
        };
        if self.warming_up {
            return false;
        }
        let pos = self.pos;
        self.pos += 1;
        !pos.is_multiple_of(1 + u64::from(skip_quanta))
    }

    /// Feeds a detailed quantum's DRAM traffic to the warm-up or re-warm
    /// guard.
    fn observe(&mut self, dram_lines: u64) {
        if self.warming_up {
            self.observe_warmup(dram_lines);
        } else {
            self.observe_steady(dram_lines);
        }
    }

    /// The stability band around the traffic EWMA, with an absolute floor
    /// so near-idle traffic (a handful of lines per quantum) can't pin
    /// the scheduler in either state.
    fn band(&self) -> f64 {
        (self.ewma * 0.25).max(4.0)
    }

    fn observe_warmup(&mut self, dram_lines: u64) {
        let d = dram_lines as f64;
        self.warm_quanta += 1;
        if !self.ewma_primed {
            self.ewma_primed = true;
            self.ewma = d;
            return;
        }
        self.stable = if (d - self.ewma).abs() <= self.band() { self.stable + 1 } else { 0 };
        self.ewma = 0.75 * self.ewma + 0.25 * d;
        if self.warm_quanta >= Self::MIN_WARMUP && self.stable >= Self::STABLE_QUANTA {
            self.warming_up = false;
            // Enter the periodic pattern at its first fast-forward: the
            // warm-up's last quantum already played the measured one's
            // role.
            self.pos = 1;
        }
    }

    fn observe_steady(&mut self, dram_lines: u64) {
        if !matches!(self.mode, FidelityMode::Sampled { .. }) {
            return;
        }
        let d = dram_lines as f64;
        // >100% deviation from the running average: a traffic regime
        // change (phase boundary, controller reallocation), not noise.
        // The absolute floor mirrors `band()`'s: a near-idle run (EWMA of
        // a handful of lines) must still re-warm when a phase boundary
        // pushes a measured quantum to tens of lines — post-transition
        // quanta are throughput-capped (stale-cache stalls limit retired
        // instructions), so the absolute traffic stays modest even while
        // the per-instruction miss rate explodes.
        if (d - self.ewma).abs() > self.ewma.max(16.0) {
            self.warming_up = true;
            self.warm_quanta = 0;
            self.stable = 0;
            return;
        }
        self.ewma = 0.75 * self.ewma + 0.25 * d;
    }
}

impl Default for FidelityMode {
    fn default() -> Self {
        FidelityMode::Exact
    }
}

/// Everything a measurement run needs.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Machine description (pair its capacity scale with `scale`).
    pub machine: MachineConfig,
    /// Workload scale preset.
    pub scale: Scale,
    /// Power model for energy metering.
    pub power: PowerModel,
    /// Base RNG seed; streams derive theirs deterministically.
    pub seed: u64,
    /// Counter sampling interval in cycles (the "100 ms" analog, scaled
    /// with instruction volume so runs see a comparable window count).
    pub sample_interval: Cycles,
    /// Safety limit on quanta per run.
    pub max_quanta: u64,
    /// Engine fidelity. [`FidelityMode::Exact`] unless explicitly opted
    /// into sampling.
    pub fidelity: FidelityMode,
}

// Hand-written (de)serialization: the `fidelity` field is *omitted* when
// `Exact`, so an exact-mode config renders to byte-identical JSON as before
// the field existed. That keeps every committed run-cache entry and golden
// valid (their keys hash this JSON), while sampled configs serialize the
// field and therefore can never collide with exact-mode cache entries.
// (The vendored serde_derive has no `#[serde(skip_serializing_if)]`.)
impl Serialize for RunnerConfig {
    fn to_value(&self) -> serde::json::Value {
        let mut fields = vec![
            ("machine".to_owned(), self.machine.to_value()),
            ("scale".to_owned(), self.scale.to_value()),
            ("power".to_owned(), self.power.to_value()),
            ("seed".to_owned(), self.seed.to_value()),
            ("sample_interval".to_owned(), self.sample_interval.to_value()),
            ("max_quanta".to_owned(), self.max_quanta.to_value()),
        ];
        if self.fidelity != FidelityMode::Exact {
            fields.push(("fidelity".to_owned(), self.fidelity.to_value()));
        }
        serde::json::Value::Obj(fields)
    }
}

impl Deserialize for RunnerConfig {
    fn from_value(v: &serde::json::Value) -> Result<Self, serde::json::Error> {
        Ok(RunnerConfig {
            machine: MachineConfig::from_value(v.field("machine")?)?,
            scale: Scale::from_value(v.field("scale")?)?,
            power: PowerModel::from_value(v.field("power")?)?,
            seed: u64::from_value(v.field("seed")?)?,
            sample_interval: Cycles::from_value(v.field("sample_interval")?)?,
            max_quanta: u64::from_value(v.field("max_quanta")?)?,
            // Absent in every pre-fidelity config: default to Exact.
            fidelity: match v.field("fidelity") {
                Ok(f) => FidelityMode::from_value(f)?,
                Err(_) => FidelityMode::Exact,
            },
        })
    }
}

impl RunnerConfig {
    /// Full-size platform (6 MB LLC) and workloads.
    pub fn full() -> Self {
        RunnerConfig {
            machine: MachineConfig::sandy_bridge(),
            scale: Scale::FULL,
            power: PowerModel::sandy_bridge(),
            seed: 0xC00C,
            sample_interval: 2_000_000,
            max_quanta: 4_000_000,
            fidelity: FidelityMode::Exact,
        }
    }

    /// Bench scale: 1.5 MB LLC, 1/64 instruction volume.
    pub fn bench() -> Self {
        let mut machine = MachineConfig::scaled(4);
        machine.quantum_cycles = 50_000;
        RunnerConfig {
            machine,
            scale: Scale::BENCH,
            power: PowerModel::sandy_bridge(),
            seed: 0xC00C,
            sample_interval: 400_000,
            max_quanta: 1_000_000,
            fidelity: FidelityMode::Exact,
        }
    }

    /// Like [`Self::test`] but with a modulo-indexed LLC, as page
    /// coloring requires (the default hashed index defeats coloring).
    pub fn test_colored() -> Self {
        let mut cfg = Self::test();
        cfg.machine.llc.index = waypart_sim::addr::IndexHash::Modulo;
        cfg
    }

    /// Test scale: 96 KB LLC, tiny instruction volume, fine quanta.
    pub fn test() -> Self {
        let mut machine = MachineConfig::scaled(64);
        machine.quantum_cycles = 20_000;
        RunnerConfig {
            machine,
            scale: Scale::TEST,
            power: PowerModel::sandy_bridge(),
            seed: 0xC00C,
            // Large enough that window-to-window MPKI shot noise stays
            // below the controller's THR3 (5%).
            sample_interval: 80_000,
            max_quanta: 300_000,
            fidelity: FidelityMode::Exact,
        }
    }
}

/// Result of a solo (uncontended) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoloResult {
    /// Cycles until the application finished.
    pub cycles: Cycles,
    /// Aggregated counters of all the app's threads.
    pub counters: HwCounters,
    /// Energy over the run.
    pub energy: EnergyBreakdown,
    /// Windowed MPKI trace.
    pub mpki: MpkiSeries,
    /// True if the quantum limit cut the run short.
    pub truncated: bool,
}

/// Result of a co-scheduled run with a continuously-running background.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairResult {
    /// Cycles until the foreground finished.
    pub fg_cycles: Cycles,
    /// Foreground counters at completion.
    pub fg_counters: HwCounters,
    /// Background instructions retired while the foreground ran.
    pub bg_instructions: u64,
    /// Background throughput in instructions per cycle.
    pub bg_rate: f64,
    /// Energy until foreground completion.
    pub energy: EnergyBreakdown,
    /// Foreground windowed MPKI trace.
    pub fg_mpki: MpkiSeries,
    /// Foreground way-allocation trace (cycle, ways) — constant for static
    /// policies, the controller's decisions for dynamic runs.
    pub fg_ways_trace: Vec<(Cycles, usize)>,
    /// Mask reprogrammings performed (dynamic runs).
    pub reallocations: u64,
    /// True if the quantum limit cut the run short.
    pub truncated: bool,
}

/// Result of running a pair where both applications execute exactly once.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BothOnceResult {
    /// Cycles until *both* applications finished.
    pub total_cycles: Cycles,
    /// Foreground completion time.
    pub fg_cycles: Cycles,
    /// Background completion time.
    pub bg_cycles: Cycles,
    /// Energy until both finished.
    pub energy: EnergyBreakdown,
    /// True if the quantum limit cut the run short.
    pub truncated: bool,
}

/// One application of a run, pinned as `taskset` would pin it: up to
/// `threads` threads from hardware thread `first_ht` on, under address
/// space `asid`. An endless tenant restarts forever, so it never ends the
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Tenant<A> {
    app: A,
    threads: usize,
    first_ht: usize,
    asid: u16,
    endless: bool,
}

/// The machine a run programs: its tenants and the knobs they run under.
/// Generic over how a tenant names its application, so a [`RunSpec`]
/// (which builds streams from the model) and its [`RunIdentity`] (which
/// needs only the name) share one definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Setup<A> {
    tenants: Vec<Tenant<A>>,
    /// Way masks of the foreground and background halves of the socket.
    masks: (WayMask, WayMask),
    prefetchers: PrefetcherMask,
    /// Bandwidth throttle of the background cores (100 is unthrottled).
    bg_mba_percent: u8,
    /// Color groups the foreground owns when the LLC is partitioned by
    /// page coloring instead of way masks.
    fg_color_groups: Option<usize>,
}

/// Everything one run reads (DESIGN.md §5k): its tenants, the machine
/// knobs they run under, an optional [`Controller`] that reprograms the
/// way masks at every sampling window, and the `runner.run` kind label.
///
/// Built only by the per-kind constructors on [`Runner`]
/// ([`Runner::solo_spec`], [`Runner::pair_spec`], …), and run by
/// [`Runner::run`] or, in lockstep, [`Runner::run_batch`].
pub struct RunSpec<'a> {
    setup: Setup<&'a AppSpec>,
    controller: Option<Box<dyn Controller>>,
    kind: &'static str,
}

/// What a static run reads, and nothing else (DESIGN.md §5j): its
/// [`RunSpec`] with each tenant's threads cut to
/// [`AppSpec::effective_threads`] and the kind label dropped.
///
/// Under one [`RunnerConfig`], two specs with equal identities simulate
/// byte-identical runs even where their cache keys differ: a
/// single-threaded app requested at 1, 2, 4 or 8 threads is one run, and
/// so are `Fair` and `Biased { fg_ways: 6 }` on a 12-way LLC.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunIdentity(Setup<&'static str>);

impl<'a> RunSpec<'a> {
    /// A static run of `tenants` under `masks`, every other knob at its
    /// reset value.
    fn new(kind: &'static str, tenants: Vec<Tenant<&'a AppSpec>>, masks: (WayMask, WayMask)) -> Self {
        let setup = Setup {
            tenants,
            masks,
            prefetchers: PrefetcherMask::all_enabled(),
            bg_mba_percent: 100,
            fg_color_groups: None,
        };
        RunSpec { setup, controller: None, kind }
    }

    /// The identity of this run; `None` for a controlled run, whose
    /// controller state no identity captures.
    pub fn identity(&self) -> Option<RunIdentity> {
        if self.controller.is_some() {
            return None;
        }
        let s = &self.setup;
        let tenants = s
            .tenants
            .iter()
            .map(|t| Tenant {
                app: t.app.name,
                threads: t.app.effective_threads(t.threads),
                first_ht: t.first_ht,
                asid: t.asid,
                endless: t.endless,
            })
            .collect();
        Some(RunIdentity(Setup {
            tenants,
            masks: s.masks,
            prefetchers: s.prefetchers,
            bg_mba_percent: s.bg_mba_percent,
            fg_color_groups: s.fg_color_groups,
        }))
    }
}

/// [`UmonView`] over a live machine: curves aggregate the foreground or
/// background half's utility monitors; `decay` halves every monitor.
/// Curve computation is lazy — controllers that never ask (everything but
/// UCP) leave the machine untouched.
struct MachineUmon<'a> {
    machine: &'a mut Machine,
    cores: usize,
}

impl UmonView for MachineUmon<'_> {
    fn fg_curve(&self) -> Vec<u64> {
        umon_curve(self.machine, 0..self.cores / 2)
    }

    fn bg_curve(&self) -> Vec<u64> {
        umon_curve(self.machine, self.cores / 2..self.cores)
    }

    fn decay(&mut self) {
        self.machine.decay_umons();
    }
}

/// Aggregated hits-versus-ways curve over the cores' utility monitors
/// (index `w` = hits with `w` ways; index 0 is 0).
fn umon_curve(machine: &Machine, cores: std::ops::Range<usize>) -> Vec<u64> {
    let ways = machine.config().llc.ways;
    let mut curve = vec![0u64; ways + 1];
    for core in cores {
        if let Some(u) = machine.umon(core) {
            for (w, slot) in curve.iter_mut().enumerate() {
                *slot += u.hits_with_ways(w.min(u.ways()));
            }
        }
    }
    curve
}

/// Programs the foreground half of the socket's cores with `fg` and the
/// background half with `bg`.
fn set_masks(machine: &mut Machine, (fg, bg): (WayMask, WayMask)) {
    let cores = machine.config().cores;
    for core in 0..cores {
        machine.set_way_mask(core, if core < cores / 2 { fg } else { bg });
    }
}

/// A run in progress: its machine and everything the quantum loop
/// accumulates. `Run::step` is the loop body of every run kind; the
/// finished run becomes a result through [`Run::solo`], [`Run::pair`] or
/// [`Run::both_once`].
pub struct Run {
    machine: Machine,
    controller: Option<Box<dyn Controller>>,
    /// Address spaces of the tenants that end the run (the ones not
    /// endless).
    finite: Vec<u16>,
    /// Address spaces of every tenant but the foreground.
    background: Vec<u16>,
    meter: EnergyMeter,
    sampler: Sampler,
    mpki: MpkiSeries,
    ways_trace: Vec<(Cycles, usize)>,
    sched: QuantumScheduler,
    quanta: u64,
    max_quanta: u64,
}

impl Run {
    /// Starts `spec` on `machine`, which is programmed and has the
    /// tenants attached.
    fn new(spec: RunSpec<'_>, mut machine: Machine, cfg: &RunnerConfig) -> Self {
        let RunSpec { setup, controller, kind } = spec;
        if controller.as_ref().is_some_and(|c| c.needs_umon()) {
            machine.enable_umon();
        }
        run_span_begin(kind, setup.tenants[0].app, setup.tenants.get(1).map(|t| t.app));
        Run {
            machine,
            controller,
            finite: setup.tenants.iter().filter(|t| !t.endless).map(|t| t.asid).collect(),
            background: setup.tenants.iter().filter(|t| t.asid != FG_ASID).map(|t| t.asid).collect(),
            meter: EnergyMeter::new(cfg.power, cfg.machine.freq_ghz),
            sampler: Sampler::new(cfg.sample_interval),
            mpki: MpkiSeries::new(),
            ways_trace: vec![(0, setup.fg_color_groups.unwrap_or(setup.masks.0.count()))],
            sched: cfg.fidelity.scheduler(),
            quanta: 0,
            max_quanta: cfg.max_quanta,
        }
    }

    /// Whether every tenant that is not endless has finished.
    fn finished(&self) -> bool {
        self.finite.iter().all(|&asid| self.machine.app_done(asid))
    }

    /// Whether the run is over: finished, or cut short by the quantum
    /// limit.
    fn done(&self) -> bool {
        self.finished() || self.quanta >= self.max_quanta
    }

    /// One quantum: the scheduled engine step, the energy meter, the
    /// foreground's sampling window and MPKI, the controller's window
    /// (reprogrammed masks and the ways trace), and, for a run with a
    /// background, the occupancy counter.
    fn step(&mut self) {
        let act = self.sched.step(&mut self.machine);
        self.meter.on_quantum(&act);
        let now = self.machine.now();
        if let Some(s) = self.sampler.observe(now, self.machine.app_counters(FG_ASID)) {
            self.mpki.push_sample(&s);
            if let Some(ctl) = self.controller.as_mut() {
                let cores = self.machine.config().cores;
                let mut umon = MachineUmon { machine: &mut self.machine, cores };
                let mut w =
                    WindowView { now, raw_mpki: s.mpki(), ipc: s.window.ipc(), quanta: self.quanta, umon: &mut umon };
                let phase_t0 = telemetry::progress::phase_begin();
                let masks = ctl.observe_window(&mut w);
                telemetry::progress::phase_add(telemetry::progress::Phase::Controller, phase_t0);
                if let Some(masks) = masks {
                    set_masks(&mut self.machine, masks);
                    self.ways_trace.push((self.machine.now(), masks.0.count()));
                }
            }
            if !self.background.is_empty() {
                emit_occupancy(&self.machine);
            }
        }
        self.quanta += 1;
    }

    /// Mask reprogrammings the controller made (0 for a static run).
    fn reallocations(&self) -> u64 {
        self.controller.as_ref().map_or(0, |c| c.reallocations())
    }

    /// When the foreground finished, or now if it has not.
    fn fg_cycles(&self) -> Cycles {
        self.machine.finish_time(FG_ASID).unwrap_or(self.machine.now())
    }

    /// The finished run as a solo result.
    pub fn solo(&mut self) -> SoloResult {
        SoloResult {
            cycles: self.fg_cycles(),
            counters: self.machine.app_counters(FG_ASID),
            energy: self.meter.total(),
            mpki: std::mem::take(&mut self.mpki),
            truncated: !self.finished(),
        }
    }

    /// The finished run as a pair result; background instructions sum
    /// over every background tenant.
    pub fn pair(&mut self) -> PairResult {
        let fg_cycles = self.fg_cycles();
        let bg_instructions: u64 =
            self.background.iter().map(|&asid| self.machine.app_counters(asid).instructions).sum();
        PairResult {
            fg_cycles,
            fg_counters: self.machine.app_counters(FG_ASID),
            bg_instructions,
            bg_rate: bg_instructions as f64 / fg_cycles.max(1) as f64,
            energy: self.meter.total(),
            fg_mpki: std::mem::take(&mut self.mpki),
            fg_ways_trace: std::mem::take(&mut self.ways_trace),
            reallocations: self.reallocations(),
            truncated: !self.finished(),
        }
    }

    /// The finished run as a run-both-once result.
    pub fn both_once(&mut self) -> BothOnceResult {
        let now = self.machine.now();
        BothOnceResult {
            total_cycles: now,
            fg_cycles: self.fg_cycles(),
            bg_cycles: self.machine.finish_time(BG_ASID).unwrap_or(now),
            energy: self.meter.total(),
            truncated: !self.finished(),
        }
    }
}

/// The measurement harness.
#[derive(Debug, Clone)]
pub struct Runner {
    cfg: RunnerConfig,
}

impl Runner {
    /// A runner over `cfg`.
    pub fn new(cfg: RunnerConfig) -> Self {
        Runner { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RunnerConfig {
        &self.cfg
    }

    /// Steps `spec` to its end and returns the finished run.
    pub fn run(&self, spec: RunSpec<'_>) -> Run {
        let mut run = self.start(vec![spec]).pop().expect("one spec, one run");
        while !run.done() {
            run.step();
        }
        run_span_end(&run.machine, run.quanta, run.reallocations());
        run
    }

    /// Runs every spec and returns `assemble` of each finished run, in
    /// spec order — what [`Self::run`] would produce per spec.
    ///
    /// When eligible, the runs step as one lockstep batch
    /// ([`crate::sweep::run_lockstep`]): allocation never feeds back into
    /// workload generation, so lanes with the same tenants consume
    /// identical event streams and share one generator per thread via
    /// [`SharedTrace`], paying stream generation once instead of once per
    /// lane. The batch falls back to sequential runs when sharing would
    /// change observable behavior or not pay for itself: a single spec,
    /// specs whose tenants differ or that carry a controller, sampled
    /// fidelity (lockstep lanes are checked against sequential runs only
    /// under exact fidelity), an attached telemetry sink (per-run spans
    /// would interleave across lanes), or full scale (full runs are rare
    /// and exactness there is sacred — keep the battle-tested path).
    pub fn run_batch<T>(&self, specs: Vec<RunSpec<'_>>, assemble: impl Fn(&mut Run) -> T) -> Vec<T> {
        let ids: Option<Vec<RunIdentity>> = specs.iter().map(RunSpec::identity).collect();
        let lockstep_ok = specs.len() > 1
            && self.cfg.fidelity == FidelityMode::Exact
            && !telemetry::sink_attached()
            && self.cfg.scale.work_div >= Scale::BENCH.work_div
            && ids.is_some_and(|ids| ids.iter().all(|id| id.0.tenants == ids[0].0.tenants));
        if !lockstep_ok {
            return specs.into_iter().map(|spec| assemble(&mut self.run(spec))).collect();
        }
        crate::sweep::run_lockstep(self.start(specs), |run| {
            if run.done() {
                return Some(assemble(run));
            }
            run.step();
            None
        })
    }

    /// Starts one run per spec, each on a fresh machine programmed as its
    /// spec says. The specs share their tenants (`run_batch`'s rule), so
    /// each tenant thread gets one generator: attached directly to a lone
    /// run, or replayed to every run through [`SharedTrace`] readers.
    fn start(&self, specs: Vec<RunSpec<'_>>) -> Vec<Run> {
        let mut machines: Vec<Machine> = specs.iter().map(|spec| self.program(&spec.setup)).collect();
        for tenant in &specs[0].setup.tenants {
            let threads = tenant.app.effective_threads(tenant.threads);
            let seed = self.cfg.seed ^ u64::from(tenant.asid);
            for t in 0..threads {
                let stream = if tenant.endless {
                    tenant.app.endless_stream(threads, t, tenant.asid, self.cfg.scale, seed)
                } else {
                    tenant.app.thread_stream(threads, t, tenant.asid, self.cfg.scale, seed)
                };
                if let [machine] = machines.as_mut_slice() {
                    machine.attach(tenant.first_ht + t, tenant.asid, Box::new(stream));
                    continue;
                }
                let readers = SharedTrace::share(Box::new(stream), machines.len());
                for (machine, reader) in machines.iter_mut().zip(readers) {
                    machine.attach(tenant.first_ht + t, tenant.asid, Box::new(reader));
                }
            }
        }
        specs.into_iter().zip(machines).map(|(spec, machine)| Run::new(spec, machine, &self.cfg)).collect()
    }

    /// A fresh machine programmed as `setup` says, no tenant attached.
    fn program(&self, setup: &Setup<&AppSpec>) -> Machine {
        let mut machine = Machine::new(self.cfg.machine.clone());
        machine.set_prefetchers(setup.prefetchers);
        set_masks(&mut machine, setup.masks);
        let cores = self.cfg.machine.cores;
        for core in cores / 2..cores {
            machine.set_mba(core, setup.bg_mba_percent);
        }
        if let Some(fg_groups) = setup.fg_color_groups {
            let groups = ColorAssignment::DEFAULT_GROUPS;
            machine.enable_coloring(groups);
            let fg_colors = (1u32 << fg_groups) - 1;
            machine.assign_colors(FG_ASID, fg_colors);
            machine.assign_colors(BG_ASID, ((1u32 << groups) - 1) & !fg_colors);
        }
        machine
    }

    /// Hardware threads in half the socket: §5 pins the foreground to
    /// the first half's cores and the background to the second's.
    fn half_hts(&self) -> usize {
        self.cfg.machine.cores / 2 * self.cfg.machine.threads_per_core
    }

    /// `fg` on the first half of the socket, `bg` on the second.
    fn pair_tenants<'a>(&self, fg: &'a AppSpec, bg: &'a AppSpec, bg_endless: bool) -> Vec<Tenant<&'a AppSpec>> {
        let half = self.half_hts();
        vec![
            Tenant { app: fg, threads: half, first_ht: 0, asid: FG_ASID, endless: false },
            Tenant { app: bg, threads: half, first_ht: half, asid: BG_ASID, endless: bg_endless },
        ]
    }

    /// Runs `spec` alone with `threads` threads and `ways` LLC ways, all
    /// prefetchers enabled.
    pub fn run_solo(&self, spec: &AppSpec, threads: usize, ways: usize) -> SoloResult {
        self.run_solo_configured(spec, threads, ways, PrefetcherMask::all_enabled())
    }

    /// Runs `spec` alone under an explicit prefetcher configuration
    /// (Figure 3's experiment).
    pub fn run_solo_configured(
        &self,
        spec: &AppSpec,
        threads: usize,
        ways: usize,
        prefetchers: PrefetcherMask,
    ) -> SoloResult {
        self.run(self.solo_spec(spec, threads, ways, prefetchers)).solo()
    }

    /// Runs `fg` (4 threads, cores 0–1) against a continuously-running
    /// `bg` (4 threads, cores 2–3) under a static policy. The run ends
    /// when the foreground finishes (Figs 8, 9, 13).
    pub fn run_pair_endless_bg(&self, fg: &AppSpec, bg: &AppSpec, policy: PartitionPolicy) -> PairResult {
        self.run(self.pair_spec(fg, bg, policy)).pair()
    }

    /// Like [`Self::run_pair_endless_bg`] but partitioned by `ctl` from
    /// its starting masks on, e.g. the dynamic controller of Algorithm 6.2
    /// (`DynamicPartitioner::new(DynamicConfig::paper())`), the §7 UCP
    /// baseline or the IPC-floor QoS controller.
    pub fn run_pair_controlled(&self, fg: &AppSpec, bg: &AppSpec, ctl: impl Controller + 'static) -> PairResult {
        self.run(self.controlled_spec(fg, bg, ctl)).pair()
    }

    /// Runs both applications exactly once, concurrently, under a static
    /// policy; the run ends when *both* finish (Figs 10, 11).
    pub fn run_pair_both_once(&self, fg: &AppSpec, bg: &AppSpec, policy: PartitionPolicy) -> BothOnceResult {
        self.run(self.both_once_spec(fg, bg, policy)).both_once()
    }

    /// Runs `spec` (4 threads, cores 0–1) next to the `stream_uncached`
    /// bandwidth hog on core 2 — Figure 4's experiment.
    pub fn run_with_hog(&self, spec: &AppSpec, hog: &AppSpec) -> PairResult {
        self.run(self.hog_spec(spec, hog)).pair()
    }

    /// `app` alone with `threads` threads, `ways` LLC ways on every core
    /// and the `prefetchers` enabled (Figs 1–3).
    pub fn solo_spec<'a>(
        &self,
        app: &'a AppSpec,
        threads: usize,
        ways: usize,
        prefetchers: PrefetcherMask,
    ) -> RunSpec<'a> {
        let fg = Tenant { app, threads, first_ht: 0, asid: FG_ASID, endless: false };
        let mask = WayMask::contiguous(0, ways);
        let mut spec = RunSpec::new("solo", vec![fg], (mask, mask));
        spec.setup.prefetchers = prefetchers;
        spec
    }

    /// `fg` (4 threads, cores 0–1) against a continuously-running `bg`
    /// (4 threads, cores 2–3) under a static policy; the run ends when the
    /// foreground finishes (Figs 8, 9, 13).
    pub fn pair_spec<'a>(&self, fg: &'a AppSpec, bg: &'a AppSpec, policy: PartitionPolicy) -> RunSpec<'a> {
        RunSpec::new("pair_static", self.pair_tenants(fg, bg, true), policy.masks(self.cfg.machine.llc.ways))
    }

    /// `app` (4 threads, cores 0–1) next to an endless one-thread `hog` on
    /// core 2, the LLC shared — Figure 4's experiment.
    pub fn hog_spec<'a>(&self, app: &'a AppSpec, hog: &'a AppSpec) -> RunSpec<'a> {
        let mut spec = self.pair_spec(app, hog, PartitionPolicy::Shared);
        spec.kind = "pair_hog";
        spec.setup.tenants[1].threads = 1;
        spec
    }

    /// Both applications exactly once, concurrently, under a static
    /// policy; the run ends when *both* finish (Figs 10, 11).
    pub fn both_once_spec<'a>(&self, fg: &'a AppSpec, bg: &'a AppSpec, policy: PartitionPolicy) -> RunSpec<'a> {
        RunSpec::new("pair_both_once", self.pair_tenants(fg, bg, false), policy.masks(self.cfg.machine.llc.ways))
    }

    /// `fg` against `copies` independent, continuously-running copies of
    /// `bg`, each pinned to its own core inside the background partition —
    /// §5.2's "one foreground application and two or more copies of the
    /// background applications" experiment. All background peers share
    /// the background way mask and contend within it.
    ///
    /// # Panics
    /// Panics if `copies` is 0 or exceeds the machine's background cores.
    pub fn multi_bg_spec<'a>(
        &self,
        fg: &'a AppSpec,
        bg: &'a AppSpec,
        copies: usize,
        policy: PartitionPolicy,
    ) -> RunSpec<'a> {
        let cores = self.cfg.machine.cores;
        let tpc = self.cfg.machine.threads_per_core;
        let bg_cores = cores - cores / 2;
        assert!(copies >= 1 && copies <= bg_cores, "cannot pin {copies} background copies on {bg_cores} cores");
        let half = self.half_hts();
        let mut tenants = vec![Tenant { app: fg, threads: half, first_ht: 0, asid: FG_ASID, endless: false }];
        for copy in 0..copies {
            let asid = BG_ASID + copy as u16;
            tenants.push(Tenant { app: bg, threads: tpc, first_ht: half + copy * tpc, asid, endless: true });
        }
        RunSpec::new("pair_multi_bg", tenants, policy.masks(self.cfg.machine.llc.ways))
    }

    /// Like [`Self::pair_spec`] with the background cores additionally
    /// throttled to `bg_mba_percent` of full memory bandwidth — the §8
    /// future-work bandwidth-QoS knob (Intel MBA's semantics).
    pub fn mba_spec<'a>(
        &self,
        fg: &'a AppSpec,
        bg: &'a AppSpec,
        policy: PartitionPolicy,
        bg_mba_percent: u8,
    ) -> RunSpec<'a> {
        let mut spec = self.pair_spec(fg, bg, policy);
        spec.kind = "pair_mba";
        spec.setup.bg_mba_percent = bg_mba_percent;
        spec
    }

    /// `fg` against an endless `bg` with the LLC partitioned by **page
    /// coloring** instead of way masks: the foreground owns `fg_groups` of
    /// the 16 color groups, the background the rest. Way masks stay fully
    /// shared. The machine must be configured with a modulo-indexed LLC
    /// (see [`RunnerConfig::test_colored`]).
    ///
    /// # Panics
    /// Panics if `fg_groups` is 0 or 16; running it panics if the LLC is
    /// hash-indexed.
    pub fn colored_spec<'a>(&self, fg: &'a AppSpec, bg: &'a AppSpec, fg_groups: usize) -> RunSpec<'a> {
        let groups = ColorAssignment::DEFAULT_GROUPS;
        assert!(fg_groups >= 1 && fg_groups < groups, "coloring split {fg_groups}/{groups} leaves a side empty");
        let mut spec = self.pair_spec(fg, bg, PartitionPolicy::Shared);
        spec.kind = "pair_colored";
        spec.setup.fg_color_groups = Some(fg_groups);
        spec
    }

    /// Like [`Self::pair_spec`] but starting from `ctl`'s masks and
    /// partitioned by `ctl` at every sampling window; the run's kind label
    /// is the controller's.
    pub fn controlled_spec<'a>(
        &self,
        fg: &'a AppSpec,
        bg: &'a AppSpec,
        ctl: impl Controller + 'static,
    ) -> RunSpec<'a> {
        let mut spec = RunSpec::new(ctl.kind(), self.pair_tenants(fg, bg, true), ctl.masks());
        spec.controller = Some(Box::new(ctl));
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{DynamicConfig, DynamicPartitioner};
    use waypart_workloads::registry;

    fn runner() -> Runner {
        Runner::new(RunnerConfig::test())
    }

    /// The action `QuantumScheduler::step` takes at each of `quanta`
    /// quanta — `M` detailed, `F` fast-forward — when detailed quantum `i`
    /// moves `traffic(i)` DRAM lines: the schedule's decisions without a
    /// machine.
    fn schedule(mode: FidelityMode, quanta: usize, traffic: impl Fn(usize) -> u64) -> String {
        let mut sched = mode.scheduler();
        (0..quanta)
            .map(|i| {
                if sched.fast_forward_next() {
                    'F'
                } else {
                    sched.observe(traffic(i));
                    'M'
                }
            })
            .collect()
    }

    fn sampled(skip_quanta: u32) -> FidelityMode {
        FidelityMode::Sampled { skip_quanta }
    }

    #[test]
    fn sampling_starts_with_a_fast_forward_after_a_stable_warm_up() {
        // Steady traffic: the first quantum seeds the EWMA and the next
        // eight sit in its band, which is both MIN_WARMUP and
        // STABLE_QUANTA; the warm-up's last quantum stands in for the
        // first period's measured one.
        assert_eq!(schedule(sampled(3), 21, |_| 100), "MMMMMMMMMFFFMFFFMFFFM");
        // A transient: traffic drops tenfold at quantum 5. Every quantum
        // out of the band restarts the stability count; the EWMA comes
        // within 25% of the new level at quantum 17, and the eighth
        // in-band quantum (24) ends the warm-up.
        let s = schedule(sampled(3), 40, |i| if i < 5 { 1_000 } else { 100 });
        assert_eq!(s.find('F'), Some(25), "{s}");
    }

    #[test]
    fn one_measured_quantum_per_period() {
        for skip in [0u32, 1, 3, 7] {
            let period = "F".repeat(skip as usize) + "M";
            let s = schedule(sampled(skip), 9 + 4 * period.len(), |_| 100);
            assert_eq!(s, "M".repeat(9) + &period.repeat(4), "S = {skip}");
        }
    }

    #[test]
    fn measured_outlier_re_enters_warm_up() {
        // Measured quanta fall at 12, 16, 20, … after the 9-quantum
        // warm-up. A measured quantum off the EWMA (100) by more than
        // max(EWMA, 16) = 100 re-enters warm-up: eight detailed quanta back
        // in the band, then the pattern restarts with a fast-forward.
        let spike = |lines| move |i| if i == 16 { lines } else { 100 };
        let steady = "MMMMMMMMMFFFMFFFMFFFMFFFMFFFMFFF";
        assert_eq!(schedule(sampled(3), 32, spike(200)), steady, "a deviation of exactly the EWMA is in band");
        assert_eq!(schedule(sampled(3), 32, spike(201)), "MMMMMMMMMFFFMFFFMMMMMMMMMFFFMFFF");
        // Near-idle traffic re-warms past the absolute floor of 16 lines.
        let idle = |lines| move |i| if i == 16 { lines } else { 4 };
        assert_eq!(schedule(sampled(3), 32, idle(20)), steady);
        assert_eq!(schedule(sampled(3), 32, idle(21)), "MMMMMMMMMFFFMFFFMMMMMMMMMFFFMFFF");
    }

    #[test]
    fn exact_never_fast_forwards() {
        let s = schedule(FidelityMode::Exact, 64, |i| if i % 16 == 15 { 10_000 } else { 100 });
        assert_eq!(s, "M".repeat(64));
    }

    #[test]
    fn solo_run_completes() {
        let r = runner();
        let spec = registry::by_name("swaptions").unwrap();
        let res = r.run_solo(&spec, 4, 12);
        assert!(!res.truncated, "swaptions truncated");
        assert!(res.cycles > 0);
        assert!(res.counters.instructions > 100_000);
        assert!(res.energy.socket_j > 0.0);
        assert!(res.energy.wall_j > res.energy.socket_j);
    }

    #[test]
    fn solo_runs_are_deterministic() {
        let r = runner();
        let spec = registry::by_name("dedup").unwrap();
        let a = r.run_solo(&spec, 2, 12);
        let b = r.run_solo(&spec, 2, 12);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn equal_identities_simulate_identical_results() {
        // The premise of `Lab`'s run memo: a single-threaded app attaches
        // one thread whatever is requested, and Fair is Biased { 6 } on
        // the 12-way test LLC.
        let r = runner();
        let povray = registry::by_name("453.povray").unwrap();
        let pf = PrefetcherMask::all_enabled();
        let one = serde::json::to_string(&r.run_solo_configured(&povray, 1, 4, pf));
        for threads in [2, 4, 8] {
            assert_eq!(r.solo_spec(&povray, threads, 4, pf).identity(), r.solo_spec(&povray, 1, 4, pf).identity());
            let res = r.run_solo_configured(&povray, threads, 4, pf);
            assert_eq!(serde::json::to_string(&res), one, "povray at {threads} threads");
        }

        assert_eq!(r.config().machine.llc.ways, 12);
        let fg = registry::by_name("dedup").unwrap();
        let bg = registry::by_name("swaptions").unwrap();
        let fair = PartitionPolicy::Fair;
        let biased = PartitionPolicy::Biased { fg_ways: 6 };
        assert_eq!(r.pair_spec(&fg, &bg, fair).identity(), r.pair_spec(&fg, &bg, biased).identity());
        assert_eq!(
            serde::json::to_string(&r.run_pair_endless_bg(&fg, &bg, fair)),
            serde::json::to_string(&r.run_pair_endless_bg(&fg, &bg, biased)),
        );
    }

    #[test]
    fn distinct_reads_are_distinct_identities() {
        let r = runner();
        let swaptions = registry::by_name("swaptions").unwrap();
        let pf = PrefetcherMask::all_enabled();
        let solo = |threads, ways, pf| r.solo_spec(&swaptions, threads, ways, pf).identity();
        assert_ne!(solo(1, 4, pf), solo(2, 4, pf));
        assert_ne!(solo(1, 4, pf), solo(1, 5, pf));
        assert_ne!(solo(1, 4, pf), solo(1, 4, PrefetcherMask::all_disabled()));
        let dedup = registry::by_name("dedup").unwrap();
        let fair = PartitionPolicy::Fair;
        let pair = r.pair_spec(&dedup, &swaptions, fair).identity();
        assert_ne!(pair, r.pair_spec(&dedup, &swaptions, PartitionPolicy::Biased { fg_ways: 7 }).identity());
        assert_ne!(pair, r.pair_spec(&swaptions, &dedup, fair).identity());
        // Every knob beyond the masks is part of the identity too.
        assert_ne!(pair, r.both_once_spec(&dedup, &swaptions, fair).identity());
        assert_ne!(pair, r.mba_spec(&dedup, &swaptions, fair, 50).identity());
        assert_ne!(pair, r.multi_bg_spec(&dedup, &swaptions, 1, fair).identity());
        assert_ne!(pair, r.hog_spec(&dedup, &swaptions).identity());
        // The kind label is not: an unthrottled MBA run is the static pair.
        assert_eq!(pair, r.mba_spec(&dedup, &swaptions, fair, 100).identity());
        // A controlled run has none.
        let dynamic = DynamicPartitioner::new(DynamicConfig::paper());
        assert_eq!(r.controlled_spec(&dedup, &swaptions, dynamic).identity(), None);
    }

    #[test]
    fn batch_of_different_tenants_runs_each_spec_alone() {
        // Lockstep lanes share the first spec's generators, so specs whose
        // tenants differ must not batch: each must equal its own run.
        let r = runner();
        let dedup = registry::by_name("dedup").unwrap();
        let swaptions = registry::by_name("swaptions").unwrap();
        let fair = PartitionPolicy::Fair;
        let specs = vec![r.pair_spec(&dedup, &swaptions, fair), r.pair_spec(&swaptions, &dedup, fair)];
        let batch: Vec<String> = r.run_batch(specs, Run::pair).iter().map(serde::json::to_string).collect();
        let alone = [r.run_pair_endless_bg(&dedup, &swaptions, fair), r.run_pair_endless_bg(&swaptions, &dedup, fair)];
        assert_eq!(batch, alone.iter().map(serde::json::to_string).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_finish_sooner_for_scalable_app() {
        let r = runner();
        let spec = registry::by_name("blackscholes").unwrap();
        let t1 = r.run_solo(&spec, 1, 12).cycles;
        let t8 = r.run_solo(&spec, 8, 12).cycles;
        assert!(
            (t1 as f64) / (t8 as f64) > 2.5,
            "blackscholes speedup {} too low",
            t1 as f64 / t8 as f64
        );
    }

    #[test]
    fn pair_with_endless_bg_finishes_fg() {
        let r = runner();
        let fg = registry::by_name("dedup").unwrap();
        let bg = registry::by_name("swaptions").unwrap();
        let res = r.run_pair_endless_bg(&fg, &bg, PartitionPolicy::Shared);
        assert!(!res.truncated);
        assert!(res.bg_instructions > 0, "background made no progress");
        assert!(res.bg_rate > 0.0);
    }

    #[test]
    fn partitioning_protects_a_sensitive_foreground() {
        // A cache-hungry foreground next to a thrashing background: the
        // biased split must beat shared on foreground time.
        let r = runner();
        let fg = registry::by_name("471.omnetpp").unwrap();
        let bg = registry::by_name("canneal").unwrap();
        let solo = r.run_solo(&fg, 4, 12).cycles as f64;
        let shared = r.run_pair_endless_bg(&fg, &bg, PartitionPolicy::Shared);
        let biased = r.run_pair_endless_bg(&fg, &bg, PartitionPolicy::Biased { fg_ways: 9 });
        let slow_shared = shared.fg_cycles as f64 / solo;
        let slow_biased = biased.fg_cycles as f64 / solo;
        assert!(
            slow_biased < slow_shared + 1e-9,
            "biased ({slow_biased:.3}) not better than shared ({slow_shared:.3})"
        );
    }

    #[test]
    fn dynamic_controller_reallocates() {
        let r = runner();
        let fg = registry::by_name("429.mcf").unwrap(); // phase-changing
        let bg = registry::by_name("swaptions").unwrap();
        let res = r.run_pair_controlled(&fg, &bg, DynamicPartitioner::new(DynamicConfig::paper()));
        assert!(!res.truncated);
        assert!(res.reallocations > 0, "controller never acted");
        assert!(res.fg_ways_trace.len() > 1);
        for &(_, ways) in &res.fg_ways_trace {
            assert!((2..=11).contains(&ways), "allocation {ways} out of bounds");
        }
    }

    #[test]
    fn both_once_tracks_individual_finishes() {
        let r = runner();
        let fg = registry::by_name("swaptions").unwrap();
        let bg = registry::by_name("dedup").unwrap();
        let res = r.run_pair_both_once(&fg, &bg, PartitionPolicy::Fair);
        assert!(!res.truncated);
        assert!(res.fg_cycles <= res.total_cycles);
        assert!(res.bg_cycles <= res.total_cycles);
        assert_eq!(res.total_cycles, res.fg_cycles.max(res.bg_cycles));
    }

    #[test]
    fn hog_slows_bandwidth_sensitive_app() {
        let r = runner();
        let hog = registry::by_name("stream_uncached").unwrap();
        let victim = registry::by_name("462.libquantum").unwrap();
        let solo = r.run_solo(&victim, 4, 12).cycles as f64;
        let with_hog = r.run_with_hog(&victim, &hog).fg_cycles as f64;
        assert!(with_hog / solo > 1.15, "hog slowdown only {:.3}", with_hog / solo);
    }

    #[test]
    fn hog_barely_affects_compute_bound_app() {
        let r = runner();
        let hog = registry::by_name("stream_uncached").unwrap();
        let victim = registry::by_name("453.povray").unwrap();
        let solo = r.run_solo(&victim, 4, 12).cycles as f64;
        let with_hog = r.run_with_hog(&victim, &hog).fg_cycles as f64;
        assert!(with_hog / solo < 1.08, "povray hog slowdown {:.3} too high", with_hog / solo);
    }
}
