//! Offline occupancy dashboard: folds a JSONL trace (and optionally a
//! metrics JSON) from `reproduce` into ONE self-contained static HTML
//! file — inline SVG sparklines of the counter windows, an LLC-occupancy
//! heatmap (cores × time), per-level latency-percentile tables, and a
//! paper-delta table against the headline numbers of §6.3. No
//! JavaScript, no stylesheets, no external references of any kind: the
//! file renders from `file://` on an air-gapped machine.
//!
//! Every panel is folded from the trace's raw events. The counter-window
//! sparklines are the `mpki` and `ipc` fields of each track's
//! `perfmon.window` events: one row per (field, track) with at least two
//! windows, most windows first (then name, then track), at most 12 rows.
//! Lines carrying a `record` key are counted but are not events.
//!
//! ```text
//! report --trace PATH.jsonl [--metrics PATH.json] [--out report.html]
//! report --history FILE.jsonl [--history FILE.jsonl]... [--verdicts FILE.jsonl] [--out trend.html]
//! report --arena arena.json [--out arena.html]
//! report --check report.html
//! ```
//!
//! `--history` renders the perf-trend analytics page instead of the run
//! dashboard: one sparkline panel per tracked metric (cold/warm seconds,
//! engine ns/access, sharded cold time, parallel efficiency) across the
//! sessions recorded in a `BENCH_history.jsonl`, segmented by host,
//! annotated with `sentry --json` verdicts when `--verdicts` is given.
//! The flag repeats: several history files render on one page, deduped
//! by `session` id (a line without one dedupes on its own text), first
//! occurrence wins.
//!
//! `--arena` renders the controller-arena page from the `arena.json`
//! that `reproduce --arena` writes: the policy scoreboard (weighted
//! speedup, fairness, energy, p99 foreground slowdown) plus per-pair
//! overlaid MPKI/IPC sparklines and allocated-ways ribbons.
//!
//! `--check` validates a generated report instead of building one:
//! balanced structural tags, non-empty data panels (`data-cells` > 0),
//! and the absence of URL-shaped strings or script tags. Exits nonzero
//! on the first violation; used by `scripts/ci.sh`. The same rules apply
//! to every page this binary emits (dashboard and trend alike).
//!
//! Cache-warm traces (a `reproduce` rerun that replayed everything from
//! `results/cache/`) carry `dyn.run` summaries but no `runner.run` spans
//! or `sim.*` events; the report then shows an explicit "replayed from
//! cache" banner and per-panel placeholders rather than empty plots.
//!
//! A usage error (unknown argument, a flag without its value, no mode)
//! prints the usage and exits 2. So does an input file that cannot be
//! read, or a trace, arena, history or verdicts file that does not parse;
//! the message names the file. A `--metrics` file that does not parse is
//! ignored with a warning. A page that cannot be written exits 1.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use waypart_experiments::report::Table;
use waypart_experiments::viz::{html_escape, svg_heatmap, svg_sparkline};
use waypart_telemetry::schema::{parse_json, Json};

/// Numeric field accessor.
fn num(j: &Json, key: &str) -> Option<f64> {
    match j.get(key) {
        Some(Json::Num { value, .. }) => Some(*value),
        _ => None,
    }
}

/// String field accessor.
fn text(j: &Json, key: &str) -> Option<String> {
    match j.get(key) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// One `sim.occupancy` window: per-core resident LLC lines plus the
/// current foreground way split.
struct OccWindow {
    per_core: Vec<f64>,
    fg_ways: f64,
}

/// One `sim.latency` per-level summary (cumulative over a run).
#[derive(Clone)]
struct LatencyRow {
    count: f64,
    min: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
    mean: f64,
}

/// Everything the dashboard reads out of the trace.
#[derive(Default)]
struct TraceData {
    total_lines: u64,
    /// `runner.run` begins: (tid, kind, fg, bg).
    runs: Vec<(u32, String, String, String)>,
    /// `sim.occupancy` windows per sim track.
    occupancy: BTreeMap<u32, Vec<OccWindow>>,
    /// Best (highest-count) `sim.latency` summary per level name.
    latency: BTreeMap<String, LatencyRow>,
    /// `headline.summary` fields, if the headline artifact ran.
    headline: Option<Vec<(String, f64)>>,
    /// `figure.run` end events: (figure, seconds).
    figure_secs: Vec<(String, f64)>,
    /// `dyn.run` summaries (fire even on a warm cache).
    dyn_runs: u64,
    /// `perfmon.window` values per (series name, track), in window order.
    windows: BTreeMap<(&'static str, u32), Vec<f64>>,
}

impl TraceData {
    /// A fully-warm trace: results were served from the run cache, so no
    /// simulation events exist to plot.
    fn is_cache_warm(&self) -> bool {
        self.runs.is_empty() && self.dyn_runs > 0
    }
}

fn parse_trace(text_body: &str) -> Result<TraceData, String> {
    let mut d = TraceData::default();
    for (i, line) in text_body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        d.total_lines += 1;
        // Records (sentry verdicts, or the aggregates older traces
        // carried) are not events.
        if j.get("record").is_some() {
            continue;
        }
        let (name, kind) = match (text(&j, "name"), text(&j, "kind")) {
            (Some(n), Some(k)) => (n, k),
            _ => continue,
        };
        let tid = num(&j, "tid").unwrap_or(0.0) as u32;
        match (name.as_str(), kind.as_str()) {
            ("runner.run", "begin") => {
                d.runs.push((tid, field_str(&j, "kind"), field_str(&j, "fg"), field_str(&j, "bg")))
            }
            ("sim.occupancy", "counter") => {
                if let Some(Json::Obj(fields)) = j.get("fields") {
                    let mut per_core = Vec::new();
                    for core in 0..8 {
                        match fields.iter().find(|(k, _)| k == &format!("occ_c{core}")) {
                            Some((_, Json::Num { value, .. })) => per_core.push(*value),
                            _ => break,
                        }
                    }
                    let fg_ways = fields
                        .iter()
                        .find(|(k, _)| k == "fg_ways")
                        .and_then(|(_, v)| match v {
                            Json::Num { value, .. } => Some(*value),
                            _ => None,
                        })
                        .unwrap_or(0.0);
                    d.occupancy.entry(tid).or_default().push(OccWindow { per_core, fg_ways });
                }
            }
            ("sim.latency", "instant") => {
                if let Some(Json::Obj(fields)) = j.get("fields") {
                    let f = |key: &str| {
                        fields
                            .iter()
                            .find(|(k, _)| k == key)
                            .and_then(|(_, v)| match v {
                                Json::Num { value, .. } => Some(*value),
                                _ => None,
                            })
                            .unwrap_or(0.0)
                    };
                    let level = fields
                        .iter()
                        .find(|(k, _)| k == "level")
                        .and_then(|(_, v)| match v {
                            Json::Str(s) => Some(s.clone()),
                            _ => None,
                        })
                        .unwrap_or_else(|| "?".into());
                    let row = LatencyRow {
                        count: f("count"),
                        min: f("min"),
                        p50: f("p50"),
                        p90: f("p90"),
                        p99: f("p99"),
                        max: f("max"),
                        mean: f("mean"),
                    };
                    if row.count > 0.0 {
                        let keep = d
                            .latency
                            .get(&level)
                            .map(|prev| row.count > prev.count)
                            .unwrap_or(true);
                        if keep {
                            d.latency.insert(level, row);
                        }
                    }
                }
            }
            ("headline.summary", "instant") => {
                if let Some(Json::Obj(fields)) = j.get("fields") {
                    d.headline = Some(
                        fields
                            .iter()
                            .filter_map(|(k, v)| match v {
                                Json::Num { value, .. } => Some((k.clone(), *value)),
                                _ => None,
                            })
                            .collect(),
                    );
                }
            }
            ("figure.run", "end") => {
                if let Some(secs) = field_num(&j, "seconds") {
                    d.figure_secs.push((field_str(&j, "figure"), secs));
                }
            }
            ("dyn.run", "instant") => d.dyn_runs += 1,
            ("perfmon.window", "counter") => {
                for (field, series) in [("mpki", "perfmon.window.mpki"), ("ipc", "perfmon.window.ipc")] {
                    if let Some(v) = field_num(&j, field) {
                        d.windows.entry((series, tid)).or_default().push(v);
                    }
                }
            }
            _ => {}
        }
    }
    Ok(d)
}

/// String field from inside an event's `fields` object.
fn field_str(j: &Json, key: &str) -> String {
    match j.get("fields").and_then(|f| f.get(key)) {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

/// Number field from inside an event's `fields` object.
fn field_num(j: &Json, key: &str) -> Option<f64> {
    match j.get("fields").and_then(|f| f.get(key)) {
        Some(Json::Num { value, .. }) => Some(*value),
        _ => None,
    }
}

/// The paper's headline values, keyed by the `headline.summary` field
/// names (§1/§6.3/§8 of Cook et al.).
const PAPER_HEADLINE: [(&str, &str, &str); 11] = [
    ("shared_avg_slowdown", "shared avg fg slowdown", "+6%"),
    ("shared_worst_slowdown", "shared worst fg slowdown", "+34.5%"),
    ("biased_avg_slowdown", "biased avg fg slowdown", "+2.3%"),
    ("biased_worst_slowdown", "biased worst fg slowdown", "+7.4%"),
    ("shared_energy", "shared rel. energy", "0.90"),
    ("biased_energy", "biased rel. energy", "0.88"),
    ("shared_speedup", "shared weighted speedup", "1.54"),
    ("biased_speedup", "biased weighted speedup", "1.60"),
    ("dynamic_bg_gain", "dynamic bg gain vs best static", "1.19x"),
    ("dynamic_bg_peak", "dynamic bg peak gain", "~2.5x"),
    ("dynamic_fg_penalty", "dynamic fg penalty", "<= +2%"),
];

fn panel(title: &str, body: String) -> String {
    format!("<div class=\"panel\"><h2>{}</h2>{}</div>", html_escape(title), body)
}

fn placeholder(msg: &str) -> String {
    format!("<p class=\"placeholder\">{}</p>", html_escape(msg))
}

fn build_html(d: &TraceData, metrics: Option<&Json>, trace_path: &str) -> String {
    let mut body = String::new();

    // ---- header + provenance
    let scale = metrics.and_then(|m| text(m, "scale")).unwrap_or_else(|| "?".into());
    body.push_str(&format!(
        "<h1>waypart run report</h1><p class=\"meta\">trace: <code>{}</code> \
         &middot; scale: <code>{}</code> &middot; {} trace lines, {} runs, {} controller summaries</p>",
        html_escape(trace_path),
        html_escape(&scale),
        d.total_lines,
        d.runs.len(),
        d.dyn_runs,
    ));
    if d.is_cache_warm() {
        body.push_str(
            "<div class=\"banner\">replayed from cache &mdash; this reproduction was served \
             entirely by the persistent run cache, so no simulation-level events (occupancy, \
             latency, counter windows) were generated. Rerun with <code>--no-cache</code> for \
             the full dashboard.</div>",
        );
    }

    // ---- run inventory
    let mut kind_counts: BTreeMap<String, usize> = BTreeMap::new();
    for (_, kind, _, _) in &d.runs {
        *kind_counts.entry(kind.clone()).or_default() += 1;
    }
    let runs_body = if d.runs.is_empty() {
        placeholder("no runner.run spans in this trace")
    } else {
        let mut t = Table::new(["run kind", "count"]);
        for (kind, n) in &kind_counts {
            t.push([kind.clone(), n.to_string()]);
        }
        t.render_html()
    };
    body.push_str(&panel("Simulated runs", runs_body));

    // ---- MPKI / IPC sparklines: the busiest tracks' counter windows
    let mut spark_rows: Vec<(&(&str, u32), &Vec<f64>)> =
        d.windows.iter().filter(|(_, values)| values.len() >= 2).collect();
    // Most windows first; the map's (name, track) order breaks ties.
    spark_rows.sort_by_key(|(_, values)| std::cmp::Reverse(values.len()));
    spark_rows.truncate(12);
    let spark_body = if spark_rows.is_empty() {
        placeholder("no counter-window series in this trace")
    } else {
        let mut html = String::from("<table><thead><tr><th>series</th><th>track</th>\
             <th>windows</th><th>mean</th><th>trend</th></tr></thead><tbody>");
        for ((name, tid), values) in spark_rows {
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            html.push_str(&format!(
                "<tr><td>{}</td><td>{tid}</td><td>{}</td><td>{mean:.2}</td><td>{}</td></tr>",
                html_escape(name),
                values.len(),
                svg_sparkline(values, 220, 24),
            ));
        }
        html.push_str("</tbody></table>");
        html
    };
    body.push_str(&panel("Counter windows (MPKI / IPC)", spark_body));

    // ---- occupancy heatmap: showcase the track with the most windows
    let showcase = d.occupancy.iter().max_by_key(|(_, w)| w.len());
    let occ_body = match showcase {
        Some((tid, windows)) if !windows.is_empty() => {
            let cores = windows.iter().map(|w| w.per_core.len()).max().unwrap_or(0);
            let labels: Vec<String> = (0..cores).map(|c| format!("core{c}")).collect();
            let matrix: Vec<Vec<f64>> = (0..cores)
                .map(|c| {
                    windows.iter().map(|w| w.per_core.get(c).copied().unwrap_or(f64::NAN)).collect()
                })
                .collect();
            let fg_ways: Vec<f64> = windows.iter().map(|w| w.fg_ways).collect();
            format!(
                "<p>track {tid}, {} sampling windows; cell = LLC lines held by the core's fills \
                 (Fig 12's occupancy timeline, machine-readable). Foreground way allocation over \
                 the same windows: {}</p>{}",
                windows.len(),
                svg_sparkline(&fg_ways, 260, 24),
                svg_heatmap(&labels, &matrix, 6, 18),
            )
        }
        _ => placeholder(
            "no sim.occupancy windows — occupancy is emitted by dynamically-observed pair runs \
             (fig12/fig13) on cold simulations",
        ),
    };
    body.push_str(&panel("LLC occupancy heatmap", occ_body));

    // ---- latency percentiles
    let lat_body = if d.latency.is_empty() {
        placeholder(
            "no sim.latency summaries — every simulated run emits them, so run cold \
             (`--no-cache`) to collect per-level latency histograms",
        )
    } else {
        let mut t = Table::new(["level", "accesses", "min", "p50", "p90", "p99", "max", "mean"]);
        for level in ["l1", "l2", "llc", "dram", "bypass"] {
            if let Some(r) = d.latency.get(level) {
                t.push([
                    level.to_string(),
                    format!("{:.0}", r.count),
                    format!("{:.0}", r.min),
                    format!("{:.0}", r.p50),
                    format!("{:.0}", r.p90),
                    format!("{:.0}", r.p99),
                    format!("{:.0}", r.max),
                    format!("{:.1}", r.mean),
                ]);
            }
        }
        format!("<p>per-access latency in cycles, by satisfying level (largest run kept)</p>{}", t.render_html())
    };
    body.push_str(&panel("Access latency percentiles", lat_body));

    // ---- paper delta
    let delta_body = match &d.headline {
        Some(measured) => {
            let lookup: BTreeMap<&str, f64> =
                measured.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            let mut t = Table::new(["metric", "paper", "measured"]);
            for (key, label, paper) in PAPER_HEADLINE {
                let shown = match lookup.get(key) {
                    Some(v) if key.contains("slowdown") || key.contains("penalty") => {
                        format!("{:+.1}%", (v - 1.0) * 100.0)
                    }
                    Some(v) if key.contains("gain") || key.contains("peak") => format!("{v:.2}x"),
                    Some(v) => format!("{v:.3}"),
                    None => "—".to_string(),
                };
                t.push([label.to_string(), paper.to_string(), shown]);
            }
            t.render_html()
        }
        None => placeholder(
            "no headline.summary event — include the `headline` artifact in the reproduce \
             invocation to populate the paper-delta table",
        ),
    };
    body.push_str(&panel("Paper delta (§6.3 headline numbers)", delta_body));

    // ---- phase-level time attribution ("where the time went")
    if let Some(phases) = metrics.and_then(|m| m.get("phase_seconds")) {
        if let Json::Obj(fields) = phases {
            let wall = num(phases, "wall").unwrap_or(0.0);
            let mut t = Table::new(["phase", "seconds", "% of wall"]);
            let mut accounted = 0.0;
            for (name, v) in fields {
                let Json::Num { value, .. } = v else { continue };
                if name == "wall" {
                    continue;
                }
                if name != "other" {
                    accounted += value;
                }
                let share = if wall > 0.0 { value / wall * 100.0 } else { 0.0 };
                t.push([name.clone(), format!("{value:.2}"), format!("{share:.1}%")]);
            }
            let phase_body = format!(
                "<p>{wall:.1}s wall, {:.1}% attributed to instrumented phases \
                 (phase time sums across worker threads)</p>{}",
                if wall > 0.0 { accounted / wall * 100.0 } else { 0.0 },
                t.render_html(),
            );
            body.push_str(&panel("Where the time went (phase attribution)", phase_body));
        }
    }

    // ---- figure timings + cache traffic
    let mut timing_body = if d.figure_secs.is_empty() {
        placeholder("no figure.run spans in this trace")
    } else {
        let mut t = Table::new(["artifact", "seconds"]);
        for (fig, secs) in &d.figure_secs {
            t.push([fig.clone(), format!("{secs:.2}")]);
        }
        t.render_html()
    };
    if let Some(m) = metrics {
        if let Some(cache) = m.get("cache") {
            let g = |k: &str| num(cache, k).unwrap_or(0.0);
            timing_body.push_str(&format!(
                "<p>run cache: {:.0} memory hits, {:.0} disk hits, {:.0} misses \
                 (hit ratio {:.2}), {:.0} bytes read / {:.0} written</p>",
                g("mem_hits"),
                g("disk_hits"),
                g("misses"),
                g("hit_ratio"),
                g("bytes_read"),
                g("bytes_written"),
            ));
        }
    }
    body.push_str(&panel("Harness timing & cache", timing_body));

    format!(
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>waypart run report</title><style>{STYLE}</style></head>\
         <body>{body}</body></html>"
    )
}

/// Inline stylesheet — the report's only styling, embedded so the file
/// has zero external references.
const STYLE: &str = "body{font-family:system-ui,sans-serif;margin:2em auto;max-width:70em;\
color:#111}h1{font-size:1.5em}h2{font-size:1.1em;margin:0 0 .5em}\
.meta{color:#555}.panel{border:1px solid #ddd;border-radius:6px;padding:1em;margin:1em 0}\
.banner{background:#fef3c7;border:1px solid #d97706;border-radius:6px;padding:.8em;margin:1em 0}\
.placeholder{color:#777;font-style:italic}table{border-collapse:collapse}\
th,td{border:1px solid #ccc;padding:.25em .6em;text-align:left;font-size:.9em}\
th{background:#f3f4f6}code{background:#f3f4f6;padding:0 .2em}";

// --------------------------------------------------------------- checking

/// Structural tags that must balance exactly in a well-formed report.
const BALANCED_TAGS: [&str; 8] = ["html", "head", "body", "div", "table", "thead", "tbody", "svg"];

/// Validates a generated report: balanced tags, non-empty heatmap, no
/// external references. Returns human-readable violations.
fn check_report(html: &str) -> Vec<String> {
    let mut violations = Vec::new();
    for tag in BALANCED_TAGS {
        // Opening tags count `<tag` followed by a delimiter so `<table`
        // does not match `<tbody` etc.
        let opens = html
            .match_indices(&format!("<{tag}"))
            .filter(|(i, _)| {
                matches!(html.as_bytes().get(i + 1 + tag.len()), Some(b' ' | b'>' | b'\t'))
            })
            .count();
        let closes = html.matches(&format!("</{tag}>")).count();
        if opens != closes {
            violations.push(format!("unbalanced <{tag}>: {opens} opened, {closes} closed"));
        }
    }
    // The occupancy heatmap must have rendered actual cells.
    let heatmap_cells: u64 = html
        .match_indices("data-cells=\"")
        .filter_map(|(i, pat)| {
            let rest = &html[i + pat.len()..];
            rest.split('"').next().and_then(|n| n.parse::<u64>().ok())
        })
        .sum();
    if heatmap_cells == 0 {
        violations.push("occupancy heatmap is empty (no data-cells rendered)".to_string());
    }
    for banned in ["http://", "https://", "<script", "<link", "@import"] {
        if html.contains(banned) {
            violations.push(format!("external reference or script: found `{banned}`"));
        }
    }
    violations
}

const USAGE: &str = "usage: report --trace PATH.jsonl [--metrics PATH.json] [--out report.html]\n\
     \u{20}      report --history FILE.jsonl [--history FILE.jsonl]... [--verdicts FILE.jsonl] [--out trend.html]\n\
     \u{20}      report --arena arena.json [--out arena.html]\n\
     \u{20}      report --check report.html";

/// Prints a usage error plus the usage block and exits 2.
fn fail_usage(msg: &str) -> ! {
    eprintln!("report: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Reports an input file that cannot be used, naming it, and exits 2.
fn fail_input(path: &Path, msg: impl std::fmt::Display) -> ! {
    eprintln!("report: {}: {msg}", path.display());
    std::process::exit(2);
}

/// The text of input file `path`.
fn read_input(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail_input(path, format!("cannot read: {e}")))
}

/// The value of path flag `flag`.
fn path_arg(args: &mut impl Iterator<Item = String>, flag: &str) -> PathBuf {
    args.next().map(PathBuf::from).unwrap_or_else(|| fail_usage(&format!("{flag} needs a path")))
}

fn main() -> ExitCode {
    let mut trace: Option<PathBuf> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut histories: Vec<PathBuf> = Vec::new();
    let mut arena: Option<PathBuf> = None;
    let mut verdicts: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut check: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => trace = Some(path_arg(&mut args, "--trace")),
            "--metrics" => metrics = Some(path_arg(&mut args, "--metrics")),
            "--history" => histories.push(path_arg(&mut args, "--history")),
            "--arena" => arena = Some(path_arg(&mut args, "--arena")),
            "--verdicts" => verdicts = Some(path_arg(&mut args, "--verdicts")),
            "--out" => out = Some(path_arg(&mut args, "--out")),
            "--check" => check = Some(path_arg(&mut args, "--check")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => fail_usage(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(path) = check {
        let violations = check_report(&read_input(&path));
        if violations.is_empty() {
            println!("{}: OK (well-formed, self-contained)", path.display());
            return ExitCode::SUCCESS;
        }
        for v in &violations {
            eprintln!("{}: {v}", path.display());
        }
        return ExitCode::FAILURE;
    }

    // Arena mode: render the controller-arena page and exit.
    if let Some(arena_path) = arena {
        use waypart_experiments::arena::{render_arena_html, Arena};
        let data: Arena = serde::json::from_str(read_input(&arena_path).trim()).unwrap_or_else(|e| {
            fail_input(
                &arena_path,
                format!("invalid arena data: {e:?} (expected the arena.json written by `reproduce --arena`)"),
            )
        });
        let html = render_arena_html(&data);
        let out = out.unwrap_or_else(|| PathBuf::from("arena.html"));
        if let Err(e) = std::fs::write(&out, &html) {
            eprintln!("{}: cannot write: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!(
            "arena page written to {} ({} bytes, {} policies, {} pairs)",
            out.display(),
            html.len(),
            data.scoreboard().len(),
            data.pairs().len(),
        );
        return ExitCode::SUCCESS;
    }

    // Trend mode: render the historical perf analytics page and exit.
    // Multiple --history files concatenate, deduped by `session` id
    // (first occurrence wins), so a session recorded in two files is
    // counted once.
    if !histories.is_empty() {
        use waypart_experiments::trend;
        let mut seen = std::collections::BTreeSet::new();
        let mut text_body = String::new();
        for history_path in &histories {
            for line in read_input(history_path).lines().map(str::trim).filter(|l| !l.is_empty()) {
                let id = parse_json(line)
                    .ok()
                    .and_then(|v| text(&v, "session"))
                    .unwrap_or_else(|| line.to_string());
                if seen.insert(id) {
                    text_body.push_str(line);
                    text_body.push('\n');
                }
            }
        }
        let sessions = match trend::parse_history(&text_body) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("report: --history: invalid history: {e}");
                return ExitCode::from(2);
            }
        };
        let notes = match &verdicts {
            Some(p) => trend::parse_verdicts(&read_input(p))
                .unwrap_or_else(|e| fail_input(p, format!("invalid verdicts: {e}"))),
            None => Vec::new(),
        };
        let html = trend::render_trend_html(&sessions, &notes);
        let out = out.unwrap_or_else(|| PathBuf::from("trend.html"));
        if let Err(e) = std::fs::write(&out, &html) {
            eprintln!("{}: cannot write: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!(
            "trend page written to {} ({} bytes, {} sessions, {} verdicts)",
            out.display(),
            html.len(),
            sessions.len(),
            notes.len(),
        );
        return ExitCode::SUCCESS;
    }

    let trace = trace.unwrap_or_else(|| fail_usage("--trace, --history, --arena or --check is required"));
    let data = parse_trace(&read_input(&trace))
        .unwrap_or_else(|e| fail_input(&trace, format!("invalid trace: {e}")));
    let metrics_doc = metrics.as_ref().and_then(|p| match parse_json(read_input(p).trim()) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("{}: ignoring unparseable metrics: {e}", p.display());
            None
        }
    });
    let html = build_html(&data, metrics_doc.as_ref(), &trace.display().to_string());
    let out = out.unwrap_or_else(|| PathBuf::from("report.html"));
    if let Err(e) = std::fs::write(&out, &html) {
        eprintln!("{}: cannot write: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "report written to {} ({} bytes, {} trace lines{})",
        out.display(),
        html.len(),
        data.total_lines,
        if data.is_cache_warm() { ", cache-warm" } else { "" },
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use waypart_telemetry::{Event, Stamp};

    /// The (series, track, windows) rows of the counter-window panel, in
    /// page order.
    fn spark_rows(html: &str) -> Vec<(String, u32, usize)> {
        let mut rows = Vec::new();
        for row in html.split("<tr><td>perfmon.window.").skip(1) {
            let cells: Vec<&str> = row.split("</td><td>").take(3).collect();
            let name = format!("perfmon.window.{}", cells[0]);
            rows.push((name, cells[1].parse().unwrap(), cells[2].parse().unwrap()));
        }
        rows
    }

    #[test]
    fn counter_windows_plot_mpki_and_ipc_of_the_busiest_tracks() {
        // Track t holds t + 1 windows; track 9 holds one, too few to plot.
        let mut lines = Vec::new();
        for tid in (1..=7).chain([9]) {
            let n = if tid == 9 { 1 } else { tid as u64 + 1 };
            for w in 0..n {
                let mut e = Event::counter("perfmon.window", Stamp::Cycles(w * 100))
                    .field("mpki", 2.0 * w as f64)
                    .field("ipc", 0.5);
                e.tid = tid;
                lines.push(e.to_jsonl());
            }
        }
        // Records are counted but are not events.
        lines.push(
            "{\"record\":\"verdict\",\"metric\":\"cold_s\",\"verdict\":\"pass\",\
             \"current\":1,\"median\":1,\"threshold\":1,\"n\":3}"
                .to_string(),
        );
        let d = parse_trace(&lines.join("\n")).expect("trace parses");
        assert_eq!(d.total_lines, lines.len() as u64);
        let rows = spark_rows(&build_html(&d, None, "t.jsonl"));
        // 14 rows qualify; the 12 with most windows show, and at equal
        // counts `ipc` sorts before `mpki`.
        let want: Vec<(String, u32, usize)> = (2..=7)
            .rev()
            .flat_map(|tid| {
                ["ipc", "mpki"].map(|f| (format!("perfmon.window.{f}"), tid, tid as usize + 1))
            })
            .collect();
        assert_eq!(rows, want);
    }
}
