//! Ad-hoc diagnostics for calibration (not part of the reproduction).
//!
//! Subcommands: `dynamic` `trace` `explain` `energy` `solo` `sweep`
//! `fig11` `fig13`.
//! `probe trace [FG [BG]]` runs a dynamically-partitioned pair with a
//! telemetry collector attached and dumps the controller's decision log —
//! one line per sampling window, with the phase verdict and allocation.
//! `probe explain TRACE.jsonl` narrates the `ctl.explain` decision
//! records of an already-recorded trace: one line per reallocation with
//! the policy, the rule that fired, the observed MPKI/IPC and delta, the
//! ways moved, and the cooldown state (plus marginal utilities for UCP).
//! It exits nonzero with a diagnosis — never a panic or silent empty
//! output — when the trace holds no events (recorded without a telemetry
//! sink) or events but no controller decisions.
//! The arguments are app names and one trace path, never flags: any
//! argument starting with `-` is a usage error (exit 2), so a mistyped or
//! stale flag cannot silently run a whole subcommand. So is an unknown
//! subcommand.

use std::process::ExitCode;
use std::sync::Arc;

use waypart_core::dynamic::{DynamicConfig, DynamicPartitioner};
use waypart_core::policy::PartitionPolicy;
use waypart_core::runner::{Runner, RunnerConfig};
use waypart_telemetry::sinks::CollectingSink;
use waypart_telemetry::{self as telemetry, FieldValue};
use waypart_workloads::{registry, AppSpec};

// Literal newlines: a `\` continuation would strip the indentation.
const USAGE: &str = "usage: probe [dynamic|trace|explain|energy|solo|sweep|fig11|fig13] [ARGS...]
  dynamic|trace|sweep [FG [BG]], solo [APP]  app names
  explain TRACE.jsonl  narrate the ctl.explain decision records of a recorded trace";

/// Looks `name` up in the registry; on failure prints every known app
/// (instead of panicking with an unhelpful `unwrap` backtrace) and exits.
fn lookup(name: &str) -> Result<AppSpec, ExitCode> {
    match registry::by_name(name) {
        Some(spec) => Ok(spec),
        None => {
            eprintln!("unknown app `{name}`; available:");
            for app in registry::all() {
                eprintln!("  {}", app.name);
            }
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn run() -> Result<(), ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("probe: unknown flag `{flag}`\n{USAGE}");
        return Err(ExitCode::from(2));
    }
    let arg_or = |n: usize, default: &str| -> String {
        args.get(n).cloned().unwrap_or_else(|| default.into())
    };
    let which = arg_or(0, "dynamic");
    let runner = Runner::new(RunnerConfig::test());
    match which.as_str() {
        "dynamic" => {
            let fg = lookup(&arg_or(1, "429.mcf"))?;
            let bg = lookup(&arg_or(2, "swaptions"))?;
            let res = runner.run_pair_controlled(&fg, &bg, DynamicPartitioner::new(DynamicConfig::paper()));
            println!("fg_cycles {} reallocs {}", res.fg_cycles, res.reallocations);
            println!("ways trace: {:?}", res.fg_ways_trace.iter().map(|p| p.1).collect::<Vec<_>>());
            println!("windows ({}):", res.fg_mpki.len());
            for (i, (instr, mpki)) in res.fg_mpki.points().iter().enumerate() {
                println!("  w{i:3} instr {instr:>10} mpki {mpki:8.2}");
            }
        }
        "trace" => {
            let fg = lookup(&arg_or(1, "429.mcf"))?;
            let bg = lookup(&arg_or(2, "swaptions"))?;
            let sink = Arc::new(CollectingSink::new());
            telemetry::set_sink(sink.clone());
            let res = runner.run_pair_controlled(&fg, &bg, DynamicPartitioner::new(DynamicConfig::paper()));
            telemetry::clear_sink();
            println!(
                "{}+{}: fg_cycles {} reallocs {} — controller decision log:",
                fg.name, bg.name, res.fg_cycles, res.reallocations
            );
            let fmt = |v: Option<&FieldValue>| match v {
                Some(FieldValue::F64(x)) => format!("{x:8.2}"),
                Some(FieldValue::U64(n)) => format!("{n}"),
                Some(FieldValue::Str(s)) => s.clone(),
                Some(FieldValue::Bool(b)) => b.to_string(),
                Some(FieldValue::I64(n)) => format!("{n}"),
                None => "-".into(),
            };
            for ev in sink.take() {
                match ev.name {
                    "dyn.decision" => println!(
                        "  cycle {:>12} raw {} smoothed {} phase {:<13} fg_ways {:>2} reclaiming {}",
                        ev.stamp.ticks(),
                        fmt(ev.get("raw_mpki")),
                        fmt(ev.get("mpki")),
                        fmt(ev.get("phase")),
                        fmt(ev.get("fg_ways")),
                        fmt(ev.get("reclaiming")),
                    ),
                    "dyn.realloc" => println!(
                        "  cycle {:>12} REALLOC {} -> {} ways ({})",
                        ev.stamp.ticks(),
                        fmt(ev.get("from_ways")),
                        fmt(ev.get("to_ways")),
                        fmt(ev.get("phase")),
                    ),
                    _ => {}
                }
            }
        }
        "explain" => {
            let Some(path) = args.get(1) else {
                eprintln!("probe explain: needs a trace path\n{USAGE}");
                return Err(ExitCode::from(2));
            };
            return explain_trace(path);
        }
        "energy" => {
            for (a, b) in [("429.mcf", "429.mcf"), ("429.mcf", "459.GemsFDTD"), ("459.GemsFDTD", "459.GemsFDTD")] {
                let fg = lookup(a)?;
                let bg = lookup(b)?;
                let sa = runner.run_solo(&fg, 8, 12);
                let sb = runner.run_solo(&bg, 8, 12);
                for ways in [3, 6, 9] {
                    let both = runner.run_pair_both_once(&fg, &bg, PartitionPolicy::Biased { fg_ways: ways });
                    println!(
                        "{a}+{b} fg_ways {ways}: seq cycles {} conc {} (fg {} bg {}), seq J {:.3} conc J {:.3} rel {:.3}",
                        sa.cycles + sb.cycles,
                        both.total_cycles,
                        both.fg_cycles,
                        both.bg_cycles,
                        sa.energy.socket_j + sb.energy.socket_j,
                        both.energy.socket_j,
                        both.energy.socket_j / (sa.energy.socket_j + sb.energy.socket_j)
                    );
                }
            }
        }
        "solo" => {
            let name = arg_or(1, "429.mcf");
            let app = lookup(&name)?;
            for ways in 1..=12 {
                let r = runner.run_solo(&app, 4, ways);
                println!(
                    "{name} ways {ways:>2}: cycles {:>12} mpki {:>7.2} apki {:>7.2} ipc {:.3}",
                    r.cycles,
                    r.counters.mpki(),
                    r.counters.apki(),
                    r.counters.ipc()
                );
            }
        }
        "sweep" => {
            let fg = lookup(&arg_or(1, "429.mcf"))?;
            let bg = lookup(&arg_or(2, "429.mcf"))?;
            let solo = runner.run_solo(&fg, 4, 12).cycles;
            let search = waypart_core::static_search::best_biased(&runner, &fg, &bg, solo);
            for (w, s) in &search.slowdowns {
                println!("fg_ways {w:>2}: slowdown {s:.4}");
            }
            println!("winner: {} ways", search.fg_ways);
        }
        "fig11" => {
            use waypart_experiments::{fig10, fig11, fig9, Lab};
            let lab = Lab::new(RunnerConfig::test());
            let f9 = fig9::run(&lab);
            let f10 = fig10::run(&lab, &f9);
            let f11 = fig11::run(&f10);
            for (i, c) in f11.cells.iter().enumerate() {
                let ways = f9
                    .cell(&c.a, &c.b)
                    .map(|x| x.biased_ways)
                    .unwrap_or(0);
                println!(
                    "{:>2} {:<14}+{:<14} shared {:.3} fair {:.3} biased {:.3} (fg_ways {})",
                    i, c.a, c.b, c.shared, c.fair, c.biased, ways
                );
            }
            let (s, f, b) = f11.stats();
            println!("avg shared {:.3} fair {:.3} biased {:.3}", s.mean, f.mean, b.mean);
        }
        "fig13" => {
            use waypart_experiments::{fig13, fig9, Lab};
            let lab = Lab::new(RunnerConfig::test());
            let f9 = fig9::run(&lab);
            let f13 = fig13::run(&lab, &f9);
            for c in &f13.cells {
                let ways = f9.cell(&c.fg, &c.bg).map(|x| x.biased_ways).unwrap_or(0);
                println!(
                    "{:<14} + {:<14} dyn {:.2}x shared {:.2}x fg_pen {:+.1}% (static fg_ways {})",
                    c.fg,
                    c.bg,
                    c.dynamic,
                    c.shared,
                    (c.dynamic_fg_penalty - 1.0) * 100.0,
                    ways
                );
            }
            let (d, s) = f13.stats();
            println!("avg dynamic {:.2}x shared {:.2}x", d.mean, s.mean);
        }
        other => {
            eprintln!("probe: unknown subcommand `{other}`\n{USAGE}");
            return Err(ExitCode::from(2));
        }
    }
    Ok(())
}

/// `probe explain TRACE.jsonl`: narrates every `ctl.explain` decision
/// record in a recorded trace. Diagnoses — with a nonzero exit and a
/// clear message, never a panic or silent empty output — traces that
/// carry no telemetry events at all (recorded without a `--trace` sink,
/// or not in the JSONL schema) and traces with events but no controller
/// decisions (no controller-driven pair ran, or no reallocation fired).
fn explain_trace(path: &str) -> Result<(), ExitCode> {
    use waypart_telemetry::schema::{parse_json, Json};

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("probe explain: {path}: cannot read: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let field = |j: &Json, key: &str| -> Option<Json> { j.get("fields").and_then(|f| f.get(key)).cloned() };
    let fnum = |j: &Json, key: &str| -> Option<f64> {
        match field(j, key) {
            Some(Json::Num { value, .. }) => Some(value),
            _ => None,
        }
    };
    let fstr = |j: &Json, key: &str| -> Option<String> {
        match field(j, key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    };
    let mut events = 0u64;
    let mut decisions = 0u64;
    let mut by_policy: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let Ok(j) = parse_json(line) else { continue };
        // Records (`verdict`, or the aggregates of older traces) are not
        // events.
        if j.get("record").is_some() {
            continue;
        }
        let (Some(Json::Str(name)), Some(Json::Str(_))) = (j.get("name").cloned(), j.get("kind").cloned())
        else {
            continue;
        };
        events += 1;
        if name != "ctl.explain" {
            continue;
        }
        decisions += 1;
        let policy = fstr(&j, "policy").unwrap_or_else(|| "?".into());
        *by_policy.entry(policy.clone()).or_insert(0) += 1;
        let ts = match j.get("ts") {
            Some(Json::Num { value, .. }) => *value,
            _ => 0.0,
        };
        let tid = match j.get("tid") {
            Some(Json::Num { value, .. }) => *value as u64,
            _ => 0,
        };
        let from = fnum(&j, "from_ways").unwrap_or(0.0);
        let to = fnum(&j, "to_ways").unwrap_or(0.0);
        println!(
            "cycle {ts:>12.0} track {tid:>3} {policy:<8} {from:>2.0} -> {to:>2.0} fg ways ({:+.0})  {}",
            to - from,
            fstr(&j, "trigger").unwrap_or_else(|| "?".into()),
        );
        let mut detail = format!(
            "    mpki {:.3}  ipc {:.3}  delta {:+.4}  cooldown {}",
            fnum(&j, "mpki").unwrap_or(f64::NAN),
            fnum(&j, "ipc").unwrap_or(f64::NAN),
            fnum(&j, "mpki_delta").unwrap_or(f64::NAN),
            matches!(field(&j, "cooldown"), Some(Json::Bool(true))),
        );
        if let (Some(fg_mu), Some(bg_mu)) =
            (fnum(&j, "fg_marginal_utility"), fnum(&j, "bg_marginal_utility"))
        {
            detail.push_str(&format!("  fg_mu {fg_mu:.0}  bg_mu {bg_mu:.0}"));
        }
        println!("{detail}");
        if let Some(curve) = fstr(&j, "utility_curve") {
            println!("    utility curve: {curve}");
        }
    }
    if events == 0 {
        eprintln!(
            "probe explain: {path}: no telemetry events found — this trace was recorded \
             without a telemetry sink (or is not in the JSONL event schema). Re-record with \
             `reproduce --trace out.jsonl`."
        );
        return Err(ExitCode::FAILURE);
    }
    if decisions == 0 {
        eprintln!(
            "probe explain: {path}: {events} events but no ctl.explain decision records — \
             no controller reallocation fired in this trace. Record a controller-driven run, \
             e.g. `reproduce --arena --no-cache --trace out.jsonl` (warm cache replays skip \
             simulation and emit no decisions)."
        );
        return Err(ExitCode::FAILURE);
    }
    let summary: Vec<String> = by_policy.iter().map(|(p, n)| format!("{p} {n}")).collect();
    println!("{decisions} decisions over {events} events ({})", summary.join(", "));
    Ok(())
}
