//! Telemetry must be *observation only*: attaching live sinks must not
//! change a single byte of simulation output.
//!
//! Each test runs the same simulation bare and again with a collecting
//! sink installed, and requires identical results — counters, traces,
//! everything `Debug` reaches. If one of these fails, some
//! instrumentation point leaked into simulation state — e.g. a tally
//! that perturbs replacement or an observe() hook that consumes an RNG
//! draw. The solo test also checks the run's `sim.tallies` and
//! `sim.latency` summaries against the counters they mirror and against
//! the values the simulator once recorded access by access.

use std::sync::{Arc, Mutex, MutexGuard};

use waypart::core::dynamic::{DynamicConfig, DynamicPartitioner};
use waypart::core::policy::PartitionPolicy;
use waypart::core::qos::{QosConfig, QosController};
use waypart::core::runner::{Runner, RunnerConfig};
use waypart::core::ucp::{UcpConfig, UcpController};
use waypart::telemetry::sinks::{CollectingSink, MetricsSink, MultiSink};
use waypart::telemetry::{self, Event, EventKind, FieldValue};
use waypart::workloads::registry;

/// The solo run's `sim.tallies` and `sim.latency` summaries as the
/// simulator recorded them on every access, before it folded them from
/// each quantum's counters. The fold must reproduce them exactly.
const SOLO_LEVELS: [&str; 6] = [
    "sim.tallies l1_hits=366738 l1_misses=609818 l2_hits=426842 l2_misses=182976 llc_hits=181825 \
     llc_misses=1151 llc_fills=1405 llc_evictions=524 dram_writebacks=286 pf_issued=478216 \
     pf_dropped=0 bypasses=0",
    "sim.latency level=l1 count=366738 min=0 p50=0 p90=0 p99=0 max=0 mean=0",
    "sim.latency level=l2 count=426842 min=12 p50=12 p90=12 p99=12 max=12 mean=12",
    "sim.latency level=llc count=181825 min=30 p50=30 p90=30 p99=30 max=30 mean=30",
    "sim.latency level=dram count=1151 min=220 p50=223 p90=223 p99=226 max=226 mean=220.8601216333623",
    "sim.latency level=bypass count=0 min=0 p50=0 p90=0 p99=0 max=0 mean=0",
];

/// Serializes every run in this binary. The sink is process-global and
/// the test harness runs `#[test]`s concurrently, so a run outside the
/// gate — even one with no sink of its own — would land its events in
/// whichever test holds the sink.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with no sink installed.
fn bare<T>(f: impl FnOnce() -> T) -> T {
    let _gate = gate();
    f()
}

/// Runs `f` with a collecting sink AND a live aggregating [`MetricsSink`]
/// installed, returning (result, events, metrics sink). `reproduce`
/// installs the metrics sink beside every trace and it sums every numeric
/// field, so inertness must hold with it attached too.
fn with_sink<T>(f: impl FnOnce() -> T) -> (T, Vec<Event>, Arc<MetricsSink>) {
    let _gate = gate();
    let collect = Arc::new(CollectingSink::new());
    let metrics = Arc::new(MetricsSink::new());
    telemetry::set_sink(Arc::new(MultiSink::new(vec![collect.clone(), metrics.clone()])));
    let out = f();
    telemetry::clear_sink();
    (out, collect.take(), metrics)
}

/// The `sim.tallies` and `sim.latency` events as `name key=value ...`
/// lines, in emission order.
fn level_summaries(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.name == "sim.tallies" || e.name == "sim.latency")
        .map(|e| {
            let fields: Vec<String> = e
                .fields
                .iter()
                .map(|(key, value)| match value {
                    FieldValue::U64(v) => format!("{key}={v}"),
                    FieldValue::F64(v) => format!("{key}={v}"),
                    FieldValue::Str(v) => format!("{key}={v}"),
                    other => format!("{key}={other:?}"),
                })
                .collect();
            format!("{} {}", e.name, fields.join(" "))
        })
        .collect()
}

#[test]
fn solo_golden_identical_with_live_sink() {
    let app = registry::by_name("429.mcf").expect("registered");
    let runner = Runner::new(RunnerConfig::test());
    let unobserved = bare(|| runner.run_solo(&app, 4, 12));
    let (r, events, metrics) = with_sink(|| runner.run_solo(&app, 4, 12));
    assert_eq!(format!("{unobserved:?}"), format!("{r:?}"), "telemetry perturbed the solo run");
    // The aggregating sink must have counted the run's events too.
    let windows = events.iter().filter(|e| e.name == "perfmon.window").count() as u64;
    assert!(windows > 0, "no counter windows emitted");
    assert_eq!(metrics.snapshot()["perfmon.window"].count, windows);
    // The sink must actually have been live: a run span plus the
    // tallies and latency summaries.
    assert!(events.iter().any(|e| e.name == "runner.run" && e.kind == EventKind::Begin));
    assert_eq!(level_summaries(&events), SOLO_LEVELS);
    // Tallies must agree with every counter they mirror. A non-temporal
    // access bypasses every level but counts as an L1 access and an LLC
    // access and miss.
    let tallies = events.iter().find(|e| e.name == "sim.tallies").expect("tallies snapshot");
    let t = |key| match tallies.get(key) {
        Some(FieldValue::U64(v)) => *v,
        other => panic!("sim.tallies {key}: {other:?}"),
    };
    let c = &r.counters;
    assert_eq!(t("l1_hits") + t("l1_misses") + t("bypasses"), c.l1_accesses);
    assert_eq!(t("l1_misses"), c.l1_misses);
    assert_eq!(t("l2_misses"), c.l2_misses);
    assert_eq!(t("llc_misses") + t("bypasses"), c.llc_misses);
    assert_eq!(t("llc_hits") + t("llc_misses") + t("bypasses"), c.llc_accesses);
    assert_eq!(t("dram_writebacks"), c.dram_writebacks);
    assert_eq!(t("pf_issued"), c.prefetches_issued);
    assert_eq!(t("bypasses"), c.non_temporal);
}

#[test]
fn pair_golden_identical_with_live_sink() {
    let fg = registry::by_name("canneal").expect("registered");
    let bg = registry::by_name("462.libquantum").expect("registered");
    let runner = Runner::new(RunnerConfig::test());
    let policy = PartitionPolicy::Biased { fg_ways: 8 };
    let unobserved = bare(|| runner.run_pair_endless_bg(&fg, &bg, policy));
    let (r, events, _metrics) = with_sink(|| runner.run_pair_endless_bg(&fg, &bg, policy));
    assert_eq!(format!("{unobserved:?}"), format!("{r:?}"), "telemetry perturbed the pair run");
    assert!(events.iter().any(|e| e.name == "runner.run" && e.kind == EventKind::End));
}

#[test]
fn dynamic_run_identical_with_and_without_sink() {
    // The dynamic controller is the most heavily instrumented path
    // (dyn.decision on every window). Run it bare, then with a sink, and
    // require bit-identical results — trace, counters, everything Debug
    // reaches.
    let fg = registry::by_name("429.mcf").expect("registered");
    let bg = registry::by_name("swaptions").expect("registered");
    let runner = Runner::new(RunnerConfig::test());
    let unobserved = bare(|| runner.run_pair_controlled(&fg, &bg, DynamicPartitioner::new(DynamicConfig::paper())));
    let (observed, events, metrics) =
        with_sink(|| runner.run_pair_controlled(&fg, &bg, DynamicPartitioner::new(DynamicConfig::paper())));
    assert_eq!(format!("{unobserved:?}"), format!("{observed:?}"), "sink changed the dynamic run");
    let decisions = events.iter().filter(|e| e.name == "dyn.decision").count();
    let reallocs = events.iter().filter(|e| e.name == "dyn.realloc").count();
    assert!(decisions > 0, "controller emitted no decisions");
    assert_eq!(reallocs as u64, observed.reallocations, "one dyn.realloc per reallocation");
    // The per-window occupancy counters feed the dashboard's heatmap; the
    // dynamic path must produce them and the aggregating sink must count
    // every one.
    let occupancy = events.iter().filter(|e| e.name == "sim.occupancy").count() as u64;
    assert!(occupancy > 0, "no occupancy windows emitted");
    assert_eq!(metrics.snapshot()["sim.occupancy"].count, occupancy, "occupancy windows not counted");
}

#[test]
fn every_run_kind_labels_its_span_and_pairs_report_occupancy() {
    // One loop steps every kind of run, so each kind's `runner.run` label
    // and its per-window occupancy counters are pinned here together: the
    // label is frozen telemetry vocabulary, and every run with a
    // background tenant reports who holds the LLC while a solo run has no
    // one to share it with.
    let runner = Runner::new(RunnerConfig::test());
    let colored = Runner::new(RunnerConfig::test_colored());
    let app = |name| registry::by_name(name).expect("registered");
    let (fg, bg, hog) = (app("dedup"), app("swaptions"), app("stream_uncached"));
    let fair = PartitionPolicy::Fair;
    let kinds = [
        "solo",
        "pair_static",
        "pair_hog",
        "pair_both_once",
        "pair_multi_bg",
        "pair_mba",
        "pair_colored",
        "pair_dynamic",
        "pair_ucp",
        "pair_qos",
    ];
    for kind in kinds {
        // The sink is process-wide and other tests run concurrently, so
        // keep only this run's events: those on the sim track it claimed.
        let ((truncated, track), events, _metrics) = with_sink(|| {
            let truncated = match kind {
                "solo" => runner.run_solo(&fg, 4, 12).truncated,
                "pair_static" => runner.run_pair_endless_bg(&fg, &bg, fair).truncated,
                "pair_hog" => runner.run_with_hog(&fg, &hog).truncated,
                "pair_both_once" => runner.run_pair_both_once(&fg, &bg, fair).truncated,
                "pair_multi_bg" => runner.run(runner.multi_bg_spec(&fg, &bg, 2, fair)).pair().truncated,
                "pair_mba" => runner.run(runner.mba_spec(&fg, &bg, fair, 50)).pair().truncated,
                "pair_colored" => colored.run(colored.colored_spec(&fg, &bg, 8)).pair().truncated,
                "pair_dynamic" => {
                    runner.run_pair_controlled(&fg, &bg, DynamicPartitioner::new(DynamicConfig::paper())).truncated
                }
                "pair_ucp" => {
                    runner.run_pair_controlled(&fg, &bg, UcpController::new(UcpConfig::default_12way())).truncated
                }
                "pair_qos" => {
                    runner.run_pair_controlled(&fg, &bg, QosController::new(QosConfig::guarantee_95())).truncated
                }
                other => unreachable!("no run kind {other}"),
            };
            (truncated, telemetry::sim_track())
        });
        assert!(!truncated, "{kind} truncated");
        let events: Vec<&Event> = events.iter().filter(|e| e.tid == track).collect();
        let labels: Vec<&FieldValue> = events
            .iter()
            .filter(|e| e.name == "runner.run" && e.kind == EventKind::Begin)
            .filter_map(|e| e.get("kind"))
            .collect();
        assert_eq!(labels, [&FieldValue::Str(kind.to_string())], "{kind}: runner.run label");
        let occupancy = events.iter().any(|e| e.name == "sim.occupancy");
        assert_eq!(occupancy, kind != "solo", "{kind}: sim.occupancy windows");
    }
}
