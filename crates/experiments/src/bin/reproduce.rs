//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [--scale test|bench|full]
//!           [--fidelity exact|sampled[:S]]
//!           [--out DIR] [--no-cache] [--trace PATH]... [--metrics PATH]
//!           [--arena] [ARTIFACT...]
//! ```
//!
//! `ARTIFACT` is any of `fig1 table1 fig2 table2 fig3 fig4 fig5 fig6 fig7
//! fig8 fig9 fig10 fig11 fig12 fig13 headline`, the extensions `ext_ucp
//! ext_trio ext_thresholds ext_coloring ext_qos ext_mba`, or `all`
//! (default: every one of those). An unknown artifact, flag or flag value
//! is a usage error (exit 2). Output
//! goes to `DIR` (default `results/<scale>/`) as one text file per
//! artifact, and to stdout. The `arena` artifact (alias `--arena`) races
//! every registered controller over the headline pair set; it is opt-in —
//! `all` does not imply it — and additionally writes `arena.json` (the
//! structured scoreboard + per-window series) for `report --arena`.
//!
//! Completed runs are stored in a persistent cache (`results/cache/`, or
//! `$WAYPART_CACHE_DIR`), so a rerun — or an interrupted run resumed —
//! only pays for measurements it has not seen before. Pass `--no-cache`
//! to keep the cache in memory only. The final line reports hits/misses,
//! and how many misses were served by an identical simulation this
//! process already ran under another key instead of simulated.
//!
//! ## Fidelity
//!
//! `--fidelity sampled` runs every figure with the SMARTS-style sampled
//! engine — faster, approximate results: each period measures one
//! quantum and fast-forwards the next three (`sampled:S` fast-forwards
//! `S`). Fast-forward windows drive the full address stream through a
//! tag-and-replacement-only functional-warming walk, so cache state never
//! goes stale across skips, while their counters extrapolate from the
//! measured quantum. Sampled configs hash differently, so they never
//! collide with exact entries in the run cache. When `fig12`
//! is among the artifacts, an exact-engine anchor run is replayed on the
//! figure's full-capacity allocation and the measured MPKI/IPC error
//! bars are printed alongside the figure (artifact
//! `fig12_error_bars`); DESIGN.md §5e documents the error model.
//!
//! ## Telemetry
//!
//! `--trace PATH` (repeatable) streams the structured event log of the
//! whole reproduction to `PATH` as JSON Lines, one event per line and
//! nothing else (validate with the `validate_trace` binary; `report`
//! builds its dashboard from it). `--metrics PATH` writes an aggregated
//! metrics JSON (event counts/sums, per-figure wall-clock, cache traffic)
//! and prints a summary table at the end. Telemetry observes and never
//! steers: simulated results are byte-identical with or without these
//! flags.
//!
//! Every output — the `--out` directory and each `--trace` and
//! `--metrics` file — is opened before anything simulates; a path that
//! cannot be written is a usage error (exit 2) naming the flag and path.
//! A file that still cannot be written later (an artifact or
//! `arena.json`) is reported as `reproduce: cannot write <path>: <error>`
//! and the process exits 1, after finishing the rest of the run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use waypart_core::runner::{FidelityMode, RunnerConfig};
use waypart_experiments::*;
use waypart_telemetry::progress;
use waypart_telemetry::sinks::{JsonlSink, MetricsSink, MultiSink};
use waypart_telemetry::{self as telemetry, Event, Stamp};

// The option lines end in literal newlines, not `\` continuations, which
// would strip their indentation.
const USAGE: &str = "usage: reproduce [--scale test|bench|full] \
[--fidelity exact|sampled[:S]] [--out DIR] [--no-cache] [--trace PATH]... \
[--metrics PATH] [--arena] [ARTIFACT...]
  --fidelity   exact (default), or sampled: each period measures one quantum
               and fast-forwards S more under functional warming (default 3)
  --trace      write the JSONL event log to PATH
  --arena      race every registered controller over the headline pairs
               (same as the `arena` artifact; opt-in — not part of the
               default set; writes arena.json for `report --arena` next
               to the text table)";

/// Every artifact `all` expands to; these plus `all` and `arena` are the
/// names `reproduce` accepts.
const ARTIFACTS: [&str; 22] = [
    "fig1", "table1", "fig2", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "headline", "ext_ucp", "ext_trio", "ext_thresholds", "ext_coloring", "ext_qos",
    "ext_mba",
];

/// Prints a flag error plus the usage block and exits nonzero — flag
/// mistakes must never panic or silently run the full grid.
fn fail_usage(msg: &str) -> ! {
    eprintln!("reproduce: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Wraps each artifact's computation in a wall-stamped `figure.run` span
/// and remembers the per-figure seconds for the metrics file.
struct FigureTimer {
    seconds: RefCell<Vec<(String, f64)>>,
}

impl FigureTimer {
    fn new() -> Self {
        FigureTimer { seconds: RefCell::new(Vec::new()) }
    }

    fn run<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        telemetry::emit_with(|| {
            Event::begin("figure.run", Stamp::WallUs(telemetry::wall_now_us()))
                .field("figure", name)
        });
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        telemetry::emit_with(|| {
            Event::end("figure.run", Stamp::WallUs(telemetry::wall_now_us()))
                .field("figure", name)
                .field("seconds", secs)
        });
        self.seconds.borrow_mut().push((name.to_string(), secs));
        out
    }

    /// `{"fig1": 0.52, ...}` for embedding into the metrics JSON.
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, secs)) in self.seconds.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{secs:.6}"));
        }
        out.push('}');
        out
    }
}

/// Parses `--fidelity exact|sampled[:S]`: `sampled` is the default
/// schedule, `sampled:S` one measured quantum then `S` fast-forwarded ones
/// per period.
fn parse_fidelity(arg: &str) -> Result<FidelityMode, String> {
    match arg {
        "exact" => Ok(FidelityMode::Exact),
        "sampled" => Ok(FidelityMode::sampled_default()),
        other => match other.strip_prefix("sampled:").map(str::parse::<u32>) {
            Some(Ok(skip_quanta)) => Ok(FidelityMode::Sampled { skip_quanta }),
            _ => Err(format!("bad --fidelity `{other}`: use exact|sampled[:S], S a non-negative integer")),
        },
    }
}

/// Reports an output path that cannot be written and exits with the
/// usage-error code.
fn fail_output(flag: &str, path: &std::path::Path, err: std::io::Error) -> ! {
    eprintln!("reproduce: cannot write {flag} {}: {err}", path.display());
    std::process::exit(2);
}

fn main() {
    let mut scale = "test".to_string();
    let mut fidelity_arg = "exact".to_string();
    let mut out: Option<PathBuf> = None;
    let mut use_cache = true;
    let mut trace_paths: Vec<PathBuf> = Vec::new();
    let mut metrics_path: Option<PathBuf> = None;
    let mut wanted: BTreeSet<String> = BTreeSet::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = args.next().unwrap_or_else(|| fail_usage("--scale needs a value")),
            "--fidelity" => {
                fidelity_arg = args.next().unwrap_or_else(|| fail_usage("--fidelity needs a value"))
            }
            "--out" => out = Some(PathBuf::from(args.next().unwrap_or_else(|| fail_usage("--out needs a path")))),
            "--no-cache" => use_cache = false,
            "--trace" => {
                trace_paths.push(PathBuf::from(args.next().unwrap_or_else(|| fail_usage("--trace needs a path"))))
            }
            "--metrics" => {
                metrics_path =
                    Some(PathBuf::from(args.next().unwrap_or_else(|| fail_usage("--metrics needs a path"))))
            }
            "--arena" => {
                wanted.insert("arena".to_string());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with('-') => fail_usage(&format!("unknown flag `{flag}`")),
            name if name == "all" || name == "arena" || ARTIFACTS.contains(&name) => {
                wanted.insert(name.to_string());
            }
            name => fail_usage(&format!("unknown artifact `{name}`")),
        }
    }
    if wanted.is_empty() || wanted.contains("all") {
        // The arena is opt-in (it is not a paper artifact and adds two
        // whole policy grids beyond what the figures cover), so `all`
        // does not imply it — but an explicit `--arena all` keeps it.
        let keep_arena = wanted.contains("arena");
        wanted = ARTIFACTS.iter().map(|s| s.to_string()).collect();
        if keep_arena {
            wanted.insert("arena".to_string());
        }
    }
    let mut cfg = match scale.as_str() {
        "test" => RunnerConfig::test(),
        "bench" => RunnerConfig::bench(),
        "full" => RunnerConfig::full(),
        other => fail_usage(&format!("unknown --scale `{other}` (use test|bench|full)")),
    };
    cfg.fidelity = parse_fidelity(&fidelity_arg).unwrap_or_else(|e| fail_usage(&e));
    // Sampled artifacts are approximations; never let them overwrite the
    // committed exact artifact set under `results/<scale>/`.
    let out_dir = out.unwrap_or_else(|| match cfg.fidelity {
        FidelityMode::Exact => PathBuf::from("results").join(&scale),
        FidelityMode::Sampled { .. } => PathBuf::from("results").join(format!("{scale}-sampled")),
    });
    // Open every output before anything simulates, so a bad path fails at
    // once instead of after the whole run.
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        fail_output("--out", &out_dir, e);
    }
    let traces: Vec<Arc<JsonlSink>> = trace_paths
        .iter()
        .map(|path| Arc::new(JsonlSink::create(path).unwrap_or_else(|e| fail_output("--trace", path, e))))
        .collect();
    let metrics_file = metrics_path
        .as_ref()
        .map(|path| (path, std::fs::File::create(path).unwrap_or_else(|e| fail_output("--metrics", path, e))));

    // Install the requested telemetry sinks.
    let mut sinks: Vec<Arc<dyn telemetry::Sink>> = traces.iter().map(|t| Arc::clone(t) as _).collect();
    let metrics = if metrics_path.is_some() || !trace_paths.is_empty() {
        let m = Arc::new(MetricsSink::new());
        sinks.push(m.clone());
        Some(m)
    } else {
        None
    };
    if !sinks.is_empty() {
        telemetry::set_sink(Arc::new(MultiSink::new(sinks)));
    }
    let timer = FigureTimer::new();

    let lab = if use_cache { Lab::persistent(cfg.clone()) } else { Lab::new(cfg.clone()) };
    // Phase attribution is always on for `reproduce` — the accumulators
    // are a handful of relaxed atomics, and the end-of-run "where the
    // time went" table depends on them.
    progress::enable_phase_timers();
    let started = std::time::Instant::now();
    // A file that cannot be written once the run has started is named
    // here, and the process exits 1 at the end instead of panicking.
    let write_failed = Cell::new(false);
    let check_write = |path: &std::path::Path, written: std::io::Result<()>| {
        if let Err(e) = &written {
            eprintln!("reproduce: cannot write {}: {e}", path.display());
            write_failed.set(true);
        }
        written.is_ok()
    };
    let emit = |name: &str, text: String| {
        let path = out_dir.join(format!("{name}.txt"));
        check_write(&path, std::fs::write(&path, &text));
        println!("\n=== {name} ({}s) ===\n{text}", started.elapsed().as_secs());
    };

    // Characterization chain (later artifacts reuse earlier data).
    let needs_characterization = ["fig1", "table1", "table2", "fig5", "headline"]
        .iter()
        .any(|n| wanted.contains(*n))
        || wanted.contains("fig3")
        || wanted.contains("fig4");

    if needs_characterization {
        let fig1_data = timer.run("fig1", || fig1::run(&lab));
        if wanted.contains("fig1") {
            emit("fig1", fig1_data.render());
        }
        if wanted.contains("table1") {
            let t1 = timer.run("table1", || table1::run(&lab, &fig1_data));
            emit("table1", t1.render());
        }
        let table2_data = timer.run("table2", || table2::run(&lab));
        if wanted.contains("table2") {
            emit("table2", table2_data.render());
            let at_1mb = table2_data.fraction_satisfied_at(1.0 / 6.0);
            let at_3mb = table2_data.fraction_satisfied_at(0.5);
            emit(
                "table2_capacity_stats",
                format!(
                    "apps within 2% of peak at 1/6 LLC: {:.0}% (paper: 44%)\napps within 2% of peak at 1/2 LLC: {:.0}% (paper: 78%)\n",
                    at_1mb * 100.0,
                    at_3mb * 100.0
                ),
            );
        }
        let fig3_data = timer.run("fig3", || fig3::run(&lab));
        if wanted.contains("fig3") {
            emit("fig3", fig3_data.render());
        }
        let fig4_data = timer.run("fig4", || fig4::run(&lab));
        if wanted.contains("fig4") {
            emit("fig4", fig4_data.render());
        }
        if wanted.contains("fig5") {
            let f5 = timer.run("fig5", || fig5::run(&fig1_data, &table2_data, &fig3_data, &fig4_data));
            emit("fig5", f5.render());
        }
    }

    if wanted.contains("fig2") {
        emit("fig2", timer.run("fig2", || fig2::run(&lab)).render());
    }
    if wanted.contains("fig6") || wanted.contains("fig7") {
        let f6 = timer.run("fig6", || fig6::run(&lab));
        if wanted.contains("fig6") {
            emit("fig6", f6.render());
        }
        if wanted.contains("fig7") {
            emit("fig7", timer.run("fig7", || fig7::run(&f6)).render());
        }
    }
    if wanted.contains("fig8") {
        emit("fig8", timer.run("fig8", || fig8::run(&lab)).render());
    }

    let needs_pairs = ["fig9", "fig10", "fig11", "fig13", "headline"]
        .iter()
        .any(|n| wanted.contains(*n));
    if needs_pairs {
        let f9 = timer.run("fig9", || fig9::run(&lab));
        if wanted.contains("fig9") {
            emit("fig9", f9.render());
        }
        let f10 = timer.run("fig10", || fig10::run(&lab, &f9));
        if wanted.contains("fig10") {
            emit("fig10", f10.render());
        }
        let f11 = timer.run("fig11", || fig11::run(&f10));
        if wanted.contains("fig11") {
            emit("fig11", f11.render());
        }
        let f13 = timer.run("fig13", || fig13::run(&lab, &f9));
        if wanted.contains("fig13") {
            emit("fig13", f13.render());
        }
        if wanted.contains("headline") {
            let h = timer.run("headline", || headline::run(&f9, &f10, &f11, &f13));
            emit("headline", h.render());
        }
    }
    if wanted.contains("fig12") {
        emit("fig12", timer.run("fig12", || fig12::run(&lab)).render());
        if cfg.fidelity != FidelityMode::Exact {
            // Error bars: replay the figure's full-capacity solo run on
            // the exact engine (one run — the sweep itself stays sampled)
            // and report how far the sampled headline numbers drifted.
            let bars = timer.run("fig12_error_bars", || {
                let mut exact_cfg = cfg.clone();
                exact_cfg.fidelity = FidelityMode::Exact;
                let exact_lab = lab.sibling(exact_cfg);
                let app = lab.app(fig12::APP).clone();
                let ways = cfg.machine.llc.ways;
                let sampled = lab.solo(&app, 1, ways);
                let exact = exact_lab.solo(&app, 1, ways);
                let pct = |s: f64, e: f64| if e == 0.0 { 0.0 } else { (s - e) / e * 100.0 };
                format!(
                    "fig12 sampled-vs-exact error bars ({} solo, {ways} ways, {:?}):\n\
                     mean MPKI : sampled {:.4} vs exact {:.4} ({:+.1}%)\n\
                     cum  MPKI : sampled {:.4} vs exact {:.4} ({:+.1}%)\n\
                     IPC       : sampled {:.4} vs exact {:.4} ({:+.1}%)\n\
                     (static sweep and dynamic trace above are sampled; \
                     see DESIGN.md §5e for the error model)\n",
                    fig12::APP,
                    cfg.fidelity,
                    sampled.mpki.mean(),
                    exact.mpki.mean(),
                    pct(sampled.mpki.mean(), exact.mpki.mean()),
                    sampled.counters.mpki(),
                    exact.counters.mpki(),
                    pct(sampled.counters.mpki(), exact.counters.mpki()),
                    sampled.counters.ipc(),
                    exact.counters.ipc(),
                    pct(sampled.counters.ipc(), exact.counters.ipc()),
                )
            });
            emit("fig12_error_bars", bars);
        }
    }
    if wanted.contains("ext_ucp") {
        emit("ext_ucp", timer.run("ext_ucp", || ext_ucp::run(&lab)).render());
    }
    if wanted.contains("ext_trio") {
        emit("ext_trio", timer.run("ext_trio", || ext_trio::run(&lab)).render());
    }
    if wanted.contains("ext_thresholds") {
        emit("ext_thresholds", timer.run("ext_thresholds", || ext_thresholds::run(&lab)).render());
    }
    if wanted.contains("ext_coloring") {
        emit("ext_coloring", timer.run("ext_coloring", || ext_coloring::run(&lab)).render());
    }
    if wanted.contains("ext_qos") {
        emit("ext_qos", timer.run("ext_qos", || ext_qos::run(&lab)).render());
    }
    if wanted.contains("ext_mba") {
        emit("ext_mba", timer.run("ext_mba", || ext_mba::run(&lab)).render());
    }
    if wanted.contains("arena") {
        let a = timer.run("arena", || arena::run(&lab));
        emit("arena", a.render());
        // The structured arena (series included) feeds `report --arena`.
        // Written atomically (tmp + rename), so a reader never sees a
        // half-written file, even while another `reproduce` rewrites it.
        let json = serde::json::to_string(&a);
        let path = out_dir.join("arena.json");
        let tmp = out_dir.join(format!("arena.json.tmp.{}", std::process::id()));
        if check_write(&path, std::fs::write(&tmp, &json).and_then(|()| std::fs::rename(&tmp, &path))) {
            println!("arena data written to {}", path.display());
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    let stats = lab.cache_stats();
    let memo_served = lab.memo_served();
    let simulated = stats.misses - memo_served;
    // A memo-served miss took its result from an identical simulation
    // this process already ran under another key (DESIGN.md §5j).
    println!(
        "\nrun cache: {} runs ({} memory hits, {} disk hits, {} misses: {simulated} simulated, \
         {memo_served} memo-served)",
        stats.total(),
        stats.mem_hits,
        stats.disk_hits,
        stats.misses
    );
    if stats.write_errors > 0 {
        // Loud by design: a read-only or full disk otherwise degrades to
        // silently re-simulating the whole grid on every invocation.
        eprintln!(
            "run cache: WARNING — {} cache write errors; results are not persisting \
             and will re-simulate next run",
            stats.write_errors
        );
    }

    // "Where the time went": the always-on phase accumulators, printed as
    // a share of measured wall time. Phase time is summed across worker
    // threads, so on a multi-core sweep the accounted share can exceed
    // 100% of wall; `other` is the unattributed remainder (figure glue,
    // artifact rendering, process startup).
    let wall_s = started.elapsed().as_secs_f64();
    let phases = progress::phase_snapshot();
    let phase_sum_s: f64 = phases.iter().map(|(_, ns)| *ns as f64 / 1e9).sum();
    let other_s = (wall_s - phase_sum_s).max(0.0);
    println!("\nwhere the time went ({wall_s:.1}s wall):");
    let pct = |s: f64| if wall_s > 0.0 { s / wall_s * 100.0 } else { 0.0 };
    for (name, ns) in &phases {
        let s = *ns as f64 / 1e9;
        println!("  {name:<12} {s:>9.2}s  {:>5.1}%", pct(s));
    }
    println!("  {:<12} {other_s:>9.2}s  {:>5.1}%", "other", pct(other_s));
    println!("  accounted: {:.1}% of wall by instrumented phases", pct(phase_sum_s));
    // One counter event carrying the final per-phase totals, so JSONL
    // traces record the attribution too.
    telemetry::emit_with(|| {
        let mut ev = Event::counter("phase.seconds", Stamp::WallUs(telemetry::wall_now_us()));
        for (name, ns) in &phases {
            ev = ev.field(*name, *ns as f64 / 1e9);
        }
        ev.field("other", other_s).field("wall", wall_s)
    });
    // `{"stream_gen":1.25,...,"other":0.04,"wall":12.3}` for the metrics file.
    let phases_json = {
        let mut s = String::from("{");
        for (name, ns) in &phases {
            s.push_str(&format!("\"{name}\":{:.6},", *ns as f64 / 1e9));
        }
        s.push_str(&format!("\"other\":{other_s:.6},\"wall\":{wall_s:.6}}}"));
        s
    };

    // Telemetry epilogue: metrics summary table, metrics JSON, trace
    // flush. All purely observational — nothing above read these sinks.
    if let Some(metrics) = &metrics {
        println!("\ntelemetry metrics:\n{}", metrics.render_table());
        println!(
            "run cache traffic: {} bytes read, {} bytes written, {} invalid entries, hit ratio {:.2}",
            stats.bytes_read,
            stats.bytes_written,
            stats.invalid_entries,
            stats.hit_ratio()
        );
        if let Some((path, mut file)) = metrics_file {
            let json = format!(
                "{{\"scale\":\"{scale}\",\"figure_seconds\":{},\"phase_seconds\":{phases_json},\
                 \"cache\":{{\"mem_hits\":{},\
                 \"disk_hits\":{},\"misses\":{},\"invalid_entries\":{},\"bytes_read\":{},\
                 \"bytes_written\":{},\"hit_ratio\":{:.6}}},\"events\":{}}}\n",
                timer.to_json(),
                stats.mem_hits,
                stats.disk_hits,
                stats.misses,
                stats.invalid_entries,
                stats.bytes_read,
                stats.bytes_written,
                stats.hit_ratio(),
                metrics.to_json_value(),
            );
            use std::io::Write;
            match file.write_all(json.as_bytes()) {
                Ok(()) => println!("metrics written to {}", path.display()),
                Err(e) => {
                    eprintln!("reproduce: cannot write --metrics {}: {e}", path.display());
                    write_failed.set(true);
                }
            }
        }
    }
    telemetry::clear_sink();
    for trace in &traces {
        match trace.finish() {
            Ok(()) => println!("trace written to {}", trace.path().display()),
            Err(e) => {
                eprintln!("reproduce: cannot write --trace {}: {e}", trace.path().display());
                write_failed.set(true);
            }
        }
    }
    println!("done in {}s, artifacts in {}", started.elapsed().as_secs(), out_dir.display());
    if write_failed.get() {
        std::process::exit(1);
    }
}
