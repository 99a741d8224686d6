//! Validates a waypart trace file without needing `jq`.
//!
//! Usage: `validate_trace <trace.jsonl> [...]`
//!
//! Each file is checked line-by-line against the trace schema (see
//! `waypart_telemetry::schema`): event lines, mixed with the `verdict`
//! records `sentry --json` writes. Exits nonzero on the first invalid
//! file; used by `scripts/ci.sh`.

use std::process::ExitCode;

use waypart_telemetry::schema::validate_jsonl;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_trace <trace.jsonl> [...]");
        return ExitCode::FAILURE;
    }
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return ExitCode::FAILURE;
            }
        };
        match validate_jsonl(&text) {
            Ok(n) => println!("{path}: OK ({n} records)"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
