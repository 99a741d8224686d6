//! Noise-aware perf-regression sentry over `BENCH_history.jsonl`.
//!
//! ```text
//! sentry --history BENCH_history.jsonl [--metric KEY]...
//!        [--current FILE.json] [--noise 0.10] [--z 3.0] [--json FILE]
//! ```
//!
//! Each history line is one benchmarking session's JSON record (the
//! `BENCH_sim.json` object plus `at`/`rev`, appended by
//! `scripts/bench.sh`). For every `--metric` (default
//! `current_median_s`, `current_cold_s`, `sampled_cold_s`,
//! `arena_cold_s`, `arena_warm_s`, and `engine_ns_per_access`;
//! higher = worse) the
//! sentry compares the newest measurement against the older history
//! using the median + MAD rule in [`waypart_bench::sentry`], calibrated
//! to the environment's ±10% wall-clock noise. Without `--current`, the
//! last history line is the measurement and the earlier lines are the
//! history.
//!
//! Exits 1 only when some metric regresses beyond the noise band (or
//! the `--json` file cannot be written); missing metrics and short
//! histories pass with a note, so the check is safe to wire into CI from
//! the very first run. A usage error (unknown argument, a flag without
//! its value, a `--noise` or `--z` that is not a finite non-negative
//! number, no `--history`) prints the usage and exits 2, and so does an
//! input file that cannot be read or parsed, named with its path.
//!
//! `--json FILE` additionally writes one machine-readable verdict record
//! per judged metric (`{"record":"verdict","metric":...,"verdict":
//! "pass|regression|insufficient_history|skip",...}`, `-` for stdout) —
//! the schema the `validate_trace` binary accepts and the trend page
//! (`report --history ... --verdicts FILE`) renders as badges.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use waypart_bench::sentry::{judge, Verdict, DEFAULT_NOISE_FRAC, DEFAULT_Z, MIN_HISTORY};
use waypart_telemetry::schema::{parse_json, Json};

/// The usage line, showing the default noise band and z.
fn usage() -> String {
    format!(
        "usage: sentry --history BENCH_history.jsonl [--metric KEY]... [--current FILE.json] \
         [--noise {DEFAULT_NOISE_FRAC}] [--z {DEFAULT_Z}] [--json FILE]"
    )
}

/// Prints a usage error plus the usage line and exits 2.
fn fail_usage(msg: &str) -> ! {
    eprintln!("sentry: {msg}\n{}", usage());
    std::process::exit(2);
}

/// Reports an input that cannot be used, naming it, and exits 2.
fn fail_input(msg: impl std::fmt::Display) -> ! {
    eprintln!("sentry: {msg}");
    std::process::exit(2);
}

/// The value of flag `flag`.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| fail_usage(&format!("{flag} needs a value")))
}

/// The value of flag `flag`: a finite, non-negative number (an infinite
/// band would pass every measurement).
fn number(args: &mut impl Iterator<Item = String>, flag: &str) -> f64 {
    let v = value(args, flag);
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => x,
        _ => fail_usage(&format!("{flag} must be a non-negative number, got `{v}`")),
    }
}

/// The text of input file `path`.
fn read_input(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_input(format!("{}: cannot read: {e}", path.display())))
}

/// Pulls a finite numeric metric out of one parsed history record.
fn metric_value(record: &Json, key: &str) -> Option<f64> {
    match record.get(key) {
        Some(Json::Num { value, .. }) if value.is_finite() => Some(*value),
        _ => None,
    }
}

fn parse_history(text: &str, path: &str) -> Result<Vec<Json>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = parse_json(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        records.push(j);
    }
    Ok(records)
}

/// Formats an optional number as a JSON value (`null` when absent).
fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.6}"),
        _ => "null".to_string(),
    }
}

/// One `{"record":"verdict",...}` line for the machine-readable output.
fn verdict_record(
    metric: &str,
    verdict: &str,
    current: Option<f64>,
    median: Option<f64>,
    threshold: Option<f64>,
    n: usize,
) -> String {
    format!(
        "{{\"record\":\"verdict\",\"metric\":\"{metric}\",\"verdict\":\"{verdict}\",\
         \"current\":{},\"median\":{},\"threshold\":{},\"n\":{n}}}\n",
        json_opt(current),
        json_opt(median),
        json_opt(threshold),
    )
}

fn main() -> ExitCode {
    let mut history_path: Option<PathBuf> = None;
    let mut current_path: Option<PathBuf> = None;
    let mut metrics: Vec<String> = Vec::new();
    let mut noise = DEFAULT_NOISE_FRAC;
    let mut z = DEFAULT_Z;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--history" => history_path = Some(PathBuf::from(value(&mut args, "--history"))),
            "--current" => current_path = Some(PathBuf::from(value(&mut args, "--current"))),
            "--metric" => metrics.push(value(&mut args, "--metric")),
            "--noise" => noise = number(&mut args, "--noise"),
            "--z" => z = number(&mut args, "--z"),
            "--json" => json_path = Some(PathBuf::from(value(&mut args, "--json"))),
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => fail_usage(&format!("unknown argument `{other}`")),
        }
    }
    let history_path = history_path.unwrap_or_else(|| fail_usage("--history is required"));
    if metrics.is_empty() {
        // Cold time is the headline this engine optimizes (run-cache off,
        // every measurement simulated); the warm median and raw engine
        // ns/access catch regressions the cache would otherwise mask.
        // `sampled_cold_s` is the `--fidelity sampled` cold wall-clock —
        // it guards the functional-warming fast path, whose cost is
        // dominated by the warm_access walk rather than the detailed
        // engine. `arena_cold_s`/`arena_warm_s` are the controller-arena
        // cold fill and warm cache replay — the cold time guards the
        // qos/mba grids the default set never runs, the warm time guards
        // the arena.json assembly over a fully hot cache.
        // Records that predate a metric simply don't vote:
        // absent keys are filtered from the history and skipped in the
        // current measurement, so adding metrics never breaks old
        // histories.
        metrics = vec![
            "current_median_s".to_string(),
            "current_cold_s".to_string(),
            "sampled_cold_s".to_string(),
            "arena_cold_s".to_string(),
            "arena_warm_s".to_string(),
            "engine_ns_per_access".to_string(),
        ];
    }

    let text = read_input(&history_path);
    let mut records = parse_history(&text, &history_path.display().to_string())
        .unwrap_or_else(|e| fail_input(format!("invalid history: {e}")));

    // The measurement under judgment: an explicit --current file, or the
    // newest history line (removed from the history it is judged against).
    let current = match &current_path {
        Some(p) => parse_json(read_input(p).trim())
            .unwrap_or_else(|e| fail_input(format!("{}: invalid JSON: {e}", p.display()))),
        None => match records.pop() {
            Some(j) => j,
            None => {
                eprintln!("{}: empty history, nothing to judge", history_path.display());
                return ExitCode::SUCCESS;
            }
        },
    };

    let mut regressed = false;
    let mut verdict_lines = String::new();
    for key in &metrics {
        let hist: Vec<f64> = records.iter().filter_map(|r| metric_value(r, key)).collect();
        let cur = match metric_value(&current, key) {
            Some(v) => v,
            None => {
                println!("{key}: SKIP (metric absent from current measurement)");
                verdict_lines.push_str(&verdict_record(key, "skip", None, None, None, hist.len()));
                continue;
            }
        };
        match judge(&hist, cur, noise, z) {
            Verdict::Pass { median, threshold } => {
                println!(
                    "{key}: PASS current {cur:.3} vs median {median:.3} (threshold {threshold:.3}, \
                     n={})",
                    hist.len()
                );
                verdict_lines.push_str(&verdict_record(
                    key,
                    "pass",
                    Some(cur),
                    Some(median),
                    Some(threshold),
                    hist.len(),
                ));
            }
            Verdict::InsufficientHistory { have } => {
                println!(
                    "{key}: PASS (only {have} history entries, need {MIN_HISTORY} — recording, not judging)"
                );
                verdict_lines.push_str(&verdict_record(
                    key,
                    "insufficient_history",
                    Some(cur),
                    None,
                    None,
                    have,
                ));
            }
            Verdict::Regression { median, threshold, excess_frac } => {
                regressed = true;
                println!(
                    "{key}: REGRESSION current {cur:.3} is {:+.1}% over median {median:.3} \
                     (threshold {threshold:.3}, n={})",
                    excess_frac * 100.0,
                    hist.len()
                );
                verdict_lines.push_str(&verdict_record(
                    key,
                    "regression",
                    Some(cur),
                    Some(median),
                    Some(threshold),
                    hist.len(),
                ));
            }
        }
    }
    if let Some(path) = &json_path {
        if path.as_os_str() == "-" {
            print!("{verdict_lines}");
        } else if let Err(e) = std::fs::write(path, &verdict_lines) {
            eprintln!("{}: cannot write verdicts: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if regressed {
        eprintln!("perf sentry: regression beyond the ±{:.0}% noise band", noise * 100.0);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
