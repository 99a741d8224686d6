//! The JSONL trace schema and its validator.
//!
//! One record per line. A line is either an **event** — a JSON object
//! with exactly this shape (extra keys are rejected so producers and
//! consumers cannot silently drift):
//!
//! ```json
//! {"name": "dyn.decision",           // non-empty string
//!  "kind": "instant",                // begin | end | instant | counter
//!  "clock": "cycles",                // cycles | wall_us
//!  "ts": 160000,                     // non-negative integer
//!  "tid": 3,                         // non-negative integer
//!  "fields": {"raw_mpki": 12.3}}     // object of scalars (string/number/bool/null)
//! ```
//!
//! — or a **record**, marked by a `record` key. `verdict` is the one
//! record kind (key set again exact): a machine-readable sentry
//! judgement (`sentry --json`):
//!
//! ```json
//! {"record": "verdict", "metric": "current_cold_s", "verdict": "pass",
//!  "current": 1.2, "median": 1.1, "threshold": 1.4, "n": 5}
//! ```
//!
//! A `reproduce --trace` file holds events only.
//!
//! The validator is used by `scripts/ci.sh` via the `validate_trace`
//! binary, and is deliberately `jq`-free: it ships its own minimal JSON
//! parser so the check runs in the offline vendored-stub environment.

/// A parsed JSON value (minimal model, enough to validate traces).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (validation only needs f64 plus an integer flag).
    Num { value: f64, is_int: bool },
    /// String
    Str(String),
    /// Array
    Arr(Vec<Json>),
    /// Object (insertion order preserved)
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_int = true;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_int = false;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 number")?;
    let value: f64 = text.parse().map_err(|_| format!("bad number `{text}`"))?;
    Ok(Json::Num { value, is_int })
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not needed by our producers;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x80 => {
                out.push(c as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: validate at most one scalar's worth of
                // bytes — validating the whole remaining input here would
                // make document parsing quadratic.
                let chunk = &b[*pos..(*pos + 4).min(b.len())];
                let c = match std::str::from_utf8(chunk) {
                    Ok(s) => s.chars().next().ok_or("unterminated string")?,
                    Err(e) if e.valid_up_to() > 0 => std::str::from_utf8(&chunk[..e.valid_up_to()])
                        .expect("validated prefix")
                        .chars()
                        .next()
                        .expect("non-empty prefix"),
                    Err(_) => return Err("non-utf8 string".into()),
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected , or ] at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected : at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected , or }} at byte {pos}", pos = *pos)),
        }
    }
}

// ------------------------------------------------------------- validation

/// The exact key set every event line must carry.
const REQUIRED_KEYS: [&str; 6] = ["name", "kind", "clock", "ts", "tid", "fields"];
/// Legal `kind` values.
const KINDS: [&str; 4] = ["begin", "end", "instant", "counter"];
/// Legal `clock` values.
const CLOCKS: [&str; 2] = ["cycles", "wall_us"];
/// The exact key set of a `{"record":"verdict",...}` line (`sentry --json`).
const VERDICT_KEYS: [&str; 7] =
    ["record", "metric", "verdict", "current", "median", "threshold", "n"];
/// Legal `verdict` values.
const VERDICTS: [&str; 4] = ["pass", "regression", "insufficient_history", "skip"];

/// Validates one JSONL line — an event or a verdict record — against the
/// schema in the module docs.
pub fn validate_line(line: &str) -> Result<(), String> {
    let v = parse_json(line)?;
    let fields = match &v {
        Json::Obj(f) => f,
        _ => return Err("event line is not a JSON object".into()),
    };
    if v.get("record").is_some() {
        return validate_record(&v, fields);
    }
    for key in REQUIRED_KEYS {
        if v.get(key).is_none() {
            return Err(format!("missing required key `{key}`"));
        }
    }
    for (k, _) in fields {
        if !REQUIRED_KEYS.contains(&k.as_str()) {
            return Err(format!("unknown key `{k}`"));
        }
    }
    match v.get("name") {
        Some(Json::Str(s)) if !s.is_empty() => {}
        _ => return Err("`name` must be a non-empty string".into()),
    }
    match v.get("kind") {
        Some(Json::Str(s)) if KINDS.contains(&s.as_str()) => {}
        other => return Err(format!("`kind` must be one of {KINDS:?}, got {other:?}")),
    }
    match v.get("clock") {
        Some(Json::Str(s)) if CLOCKS.contains(&s.as_str()) => {}
        other => return Err(format!("`clock` must be one of {CLOCKS:?}, got {other:?}")),
    }
    for key in ["ts", "tid"] {
        match v.get(key) {
            Some(Json::Num { value, is_int }) if *is_int && *value >= 0.0 => {}
            other => return Err(format!("`{key}` must be a non-negative integer, got {other:?}")),
        }
    }
    match v.get("fields") {
        Some(Json::Obj(payload)) => {
            for (k, fv) in payload {
                match fv {
                    Json::Null | Json::Bool(_) | Json::Num { .. } | Json::Str(_) => {}
                    _ => return Err(format!("field `{k}` must be a scalar")),
                }
            }
        }
        _ => return Err("`fields` must be an object".into()),
    }
    Ok(())
}

/// Validates a record line (`record` key present); `verdict` is the only
/// record kind.
fn validate_record(v: &Json, fields: &[(String, Json)]) -> Result<(), String> {
    match v.get("record") {
        Some(Json::Str(s)) if s == "verdict" => {}
        Some(Json::Str(s)) => return Err(format!("`record` must be \"verdict\", got `{s}`")),
        other => return Err(format!("`record` must be a string, got {other:?}")),
    }
    for key in VERDICT_KEYS {
        if v.get(key).is_none() {
            return Err(format!("verdict record missing required key `{key}`"));
        }
    }
    for (k, _) in fields {
        if !VERDICT_KEYS.contains(&k.as_str()) {
            return Err(format!("unknown key `{k}` in verdict record"));
        }
    }
    match v.get("metric") {
        Some(Json::Str(s)) if !s.is_empty() => {}
        _ => return Err("`metric` must be a non-empty string".into()),
    }
    match v.get("verdict") {
        Some(Json::Str(s)) if VERDICTS.contains(&s.as_str()) => {}
        other => return Err(format!("`verdict` must be one of {VERDICTS:?}, got {other:?}")),
    }
    for key in ["current", "median", "threshold"] {
        match v.get(key) {
            Some(Json::Null) | Some(Json::Num { .. }) => {}
            other => return Err(format!("`{key}` must be null or a number, got {other:?}")),
        }
    }
    match v.get("n") {
        Some(Json::Num { value, is_int }) if *is_int && *value >= 0.0 => Ok(()),
        other => Err(format!("`n` must be a non-negative integer, got {other:?}")),
    }
}

/// Validates a whole JSONL document (events and verdict records may be
/// mixed freely); returns the number of non-empty lines. Empty lines are
/// ignored; the first invalid line fails with its number.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Stamp};

    #[test]
    fn emitted_events_validate() {
        let lines = [
            Event::instant("dyn.decision", Stamp::Cycles(160_000))
                .field("raw_mpki", 12.31)
                .field("realloc", true)
                .to_jsonl(),
            Event::begin("runner.pair", Stamp::Cycles(0)).field("fg", "429.mcf").to_jsonl(),
            Event::counter("sweep.progress", Stamp::WallUs(55)).field("done", 3u64).to_jsonl(),
        ];
        let doc = lines.join("\n");
        assert_eq!(validate_jsonl(&doc), Ok(3));
    }

    #[test]
    fn rejects_missing_and_unknown_keys() {
        assert!(validate_line("{\"name\":\"x\"}").unwrap_err().contains("missing required key"));
        let extra = "{\"name\":\"x\",\"kind\":\"instant\",\"clock\":\"cycles\",\"ts\":1,\
                     \"tid\":0,\"fields\":{},\"extra\":1}";
        assert!(validate_line(extra).unwrap_err().contains("unknown key"));
    }

    #[test]
    fn rejects_bad_enum_values_and_types() {
        let bad_kind = "{\"name\":\"x\",\"kind\":\"weird\",\"clock\":\"cycles\",\"ts\":1,\"tid\":0,\"fields\":{}}";
        assert!(validate_line(bad_kind).is_err());
        let bad_ts = "{\"name\":\"x\",\"kind\":\"instant\",\"clock\":\"cycles\",\"ts\":1.5,\"tid\":0,\"fields\":{}}";
        assert!(validate_line(bad_ts).is_err());
        let nested = "{\"name\":\"x\",\"kind\":\"instant\",\"clock\":\"cycles\",\"ts\":1,\"tid\":0,\
                      \"fields\":{\"deep\":[1]}}";
        assert!(validate_line(nested).is_err());
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(validate_jsonl("{\"name\":").is_err());
        assert!(validate_jsonl("[1,2,3]").is_err());
    }

    #[test]
    fn blank_lines_are_ignored() {
        let ev = Event::instant("a.b", Stamp::WallUs(1)).to_jsonl();
        let doc = format!("\n{ev}\n\n{ev}\n");
        assert_eq!(validate_jsonl(&doc), Ok(2));
    }

    #[test]
    fn aggregate_records_are_rejected() {
        // The `series` and `hist` aggregate records traces once carried:
        // well-formed, and no longer part of the schema.
        let series = "{\"record\":\"series\",\"name\":\"perfmon.window.mpki\",\"tid\":3,\
                      \"clock\":\"cycles\",\"stride\":2,\"total\":42,\
                      \"points\":[[160000,12.3],[320000,11.9]]}";
        let hist = "{\"record\":\"hist\",\"name\":\"figure.run.seconds_us\",\"count\":4,\
                    \"sum\":3100000,\"min\":250000,\"max\":1500000,\"p50\":700000,\
                    \"p90\":1500000,\"p99\":1500000,\"buckets\":[[245760,1],[688128,3]]}";
        for (line, kind) in [(series, "series"), (hist, "hist")] {
            let err = validate_line(line).unwrap_err();
            assert_eq!(err, format!("`record` must be \"verdict\", got `{kind}`"));
        }
        let ev = Event::instant("a.b", Stamp::WallUs(1)).to_jsonl();
        let err = validate_jsonl(&format!("{ev}\n{series}\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn verdict_records_validate() {
        let verdict = "{\"record\":\"verdict\",\"metric\":\"current_cold_s\",\
                       \"verdict\":\"pass\",\"current\":1.2,\"median\":1.1,\
                       \"threshold\":1.4,\"n\":5}";
        validate_line(verdict).expect("verdict record");
        let skip = "{\"record\":\"verdict\",\"metric\":\"sharded_cold_s\",\
                    \"verdict\":\"insufficient_history\",\"current\":1.2,\
                    \"median\":null,\"threshold\":null,\"n\":1}";
        validate_line(skip).expect("insufficient-history verdict");
        // Verdicts may be mixed into event traces.
        let ev = Event::instant("a.b", Stamp::WallUs(1)).to_jsonl();
        assert_eq!(validate_jsonl(&format!("{ev}\n{verdict}\n{skip}\n")), Ok(3));
    }

    #[test]
    fn rejects_bad_verdict_records() {
        // Unknown verdict value.
        let odd = "{\"record\":\"verdict\",\"metric\":\"x\",\"verdict\":\"meh\",\
                   \"current\":null,\"median\":null,\"threshold\":null,\"n\":0}";
        assert!(validate_line(odd).unwrap_err().contains("`verdict`"));
        // Missing key.
        assert!(validate_line("{\"record\":\"verdict\",\"metric\":\"x\"}")
            .unwrap_err()
            .contains("missing required key"));
    }

    #[test]
    fn rejects_bad_records() {
        let err = validate_line("{\"record\":\"blob\",\"name\":\"x\"}").unwrap_err();
        assert!(err.contains("`record` must be \"verdict\""), "{err}");
        assert!(validate_line("{\"record\":7}").unwrap_err().contains("must be a string"));
        // Missing key.
        let err = validate_line(
            "{\"record\":\"verdict\",\"metric\":\"x\",\"verdict\":\"pass\",\
             \"current\":1,\"median\":1,\"threshold\":1}",
        )
        .unwrap_err();
        assert!(err.contains("missing required key `n`"), "{err}");
        // Unknown key.
        let err = validate_line(
            "{\"record\":\"verdict\",\"metric\":\"x\",\"verdict\":\"pass\",\
             \"current\":1,\"median\":1,\"threshold\":1,\"n\":3,\"extra\":1}",
        )
        .unwrap_err();
        assert!(err.contains("unknown key `extra`"), "{err}");
        // `n` counts history entries.
        let err = validate_line(
            "{\"record\":\"verdict\",\"metric\":\"x\",\"verdict\":\"pass\",\
             \"current\":1,\"median\":1,\"threshold\":1,\"n\":1.5}",
        )
        .unwrap_err();
        assert!(err.contains("`n` must be a non-negative integer"), "{err}");
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse_json("{\"k\":\"a\\n\\u0041ü\"}").unwrap();
        assert_eq!(v.get("k"), Some(&Json::Str("a\nAü".into())));
    }
}
