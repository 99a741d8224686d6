//! Regression tests: a JSONL trace truncated mid-record (the classic
//! killed-run artifact) must fail validation with the offending line
//! number — via a clean nonzero exit from `validate_trace`, never a
//! panic. Covers event lines and the `verdict` record.

use std::process::Command;

use waypart_telemetry::schema::validate_jsonl;
use waypart_telemetry::{Event, Stamp};

/// A healthy mixed trace: three events, then one verdict record.
fn mixed_trace() -> String {
    [
        Event::begin("runner.run", Stamp::Cycles(0)).field("fg", "429.mcf").to_jsonl(),
        Event::counter("perfmon.window", Stamp::Cycles(100))
            .field("mpki", 12.5)
            .field("ipc", 0.75)
            .to_jsonl(),
        Event::end("figure.run", Stamp::WallUs(90_000)).field("seconds", 0.09).to_jsonl(),
        "{\"record\":\"verdict\",\"metric\":\"current_cold_s\",\"verdict\":\"pass\",\
         \"current\":1.2,\"median\":1.1,\"threshold\":1.4,\"n\":5}"
            .to_string(),
    ]
    .join("\n")
        + "\n"
}

#[test]
fn full_trace_validates() {
    assert_eq!(validate_jsonl(&mixed_trace()), Ok(4));
}

#[test]
fn truncation_reports_line_number_not_panic() {
    let full = mixed_trace();
    // Chop the file at every possible byte boundary; validation must
    // return Err (or Ok for prefixes that end exactly between lines) —
    // never panic — and any Err must carry a line number.
    for cut in 1..full.len() {
        let prefix = &full[..cut];
        if !prefix.is_char_boundary(cut) {
            continue;
        }
        if let Err(e) = validate_jsonl(prefix) {
            assert!(e.starts_with("line "), "error lacks line number: {e}");
        }
    }
    // A cut in the middle of the final verdict record must point at line 4.
    let cut = full.len() - 10;
    let err = validate_jsonl(&full[..cut]).unwrap_err();
    assert!(err.starts_with("line 4:"), "wrong line attribution: {err}");
}

#[test]
fn validate_trace_binary_exits_nonzero_on_truncated_file() {
    let dir = std::env::temp_dir();
    let good = dir.join("waypart_validate_good.jsonl");
    let bad = dir.join("waypart_validate_truncated.jsonl");
    let full = mixed_trace();
    std::fs::write(&good, &full).unwrap();
    std::fs::write(&bad, &full[..full.len() - 7]).unwrap();

    let ok = Command::new(env!("CARGO_BIN_EXE_validate_trace"))
        .arg(&good)
        .output()
        .expect("spawn validate_trace");
    assert!(ok.status.success(), "good trace rejected: {}", String::from_utf8_lossy(&ok.stderr));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("OK (4 records)"));

    let fail = Command::new(env!("CARGO_BIN_EXE_validate_trace"))
        .arg(&bad)
        .output()
        .expect("spawn validate_trace");
    assert!(!fail.status.success(), "truncated trace accepted");
    let stderr = String::from_utf8_lossy(&fail.stderr);
    assert!(stderr.contains("line 4"), "stderr lacks line number: {stderr}");
    assert!(!stderr.contains("panicked"), "validator panicked: {stderr}");

    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}
