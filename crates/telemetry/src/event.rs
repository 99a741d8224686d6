//! The event model: what an instrumentation point reports.
//!
//! Every event carries a [`Stamp`] from one of two clocks that must never
//! be mixed up:
//!
//! * [`Stamp::Cycles`] — **simulated time**. Events from inside the sim →
//!   runner pipeline (run spans, sampler windows, controller decisions)
//!   are stamped with the machine's cycle counter. They are fully
//!   deterministic: the same run produces the same stamps.
//! * [`Stamp::WallUs`] — **host time**, microseconds since process start.
//!   Events about the *harness* (sweep progress, run-cache traffic,
//!   per-figure timing) are wall-stamped; they vary run to run and must
//!   never feed back into simulation state.

/// Which clock a stamp was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    /// Simulated machine cycles (deterministic).
    Cycles(u64),
    /// Host microseconds since process start (nondeterministic).
    WallUs(u64),
}

impl Stamp {
    /// The raw tick value, whichever clock it came from.
    pub fn ticks(self) -> u64 {
        match self {
            Stamp::Cycles(t) | Stamp::WallUs(t) => t,
        }
    }

    /// Schema name of the clock (`"cycles"` or `"wall_us"`).
    pub fn clock_name(self) -> &'static str {
        match self {
            Stamp::Cycles(_) => "cycles",
            Stamp::WallUs(_) => "wall_us",
        }
    }
}

/// Event shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Opens a span. Must be closed by an `End` with the same name on the
    /// same track.
    Begin,
    /// Closes the innermost span of the same name.
    End,
    /// A point-in-time marker.
    Instant,
    /// A counter sample, e.g. one `perfmon.window` per sampling window.
    Counter,
}

impl EventKind {
    /// Schema name (`"begin" | "end" | "instant" | "counter"`).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "instant",
            EventKind::Counter => "counter",
        }
    }
}

/// A field value. Numbers stay typed so exporters can render them
/// losslessly (u64 cycle counts must not round-trip through f64).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values export as JSON `null`).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dotted event name, e.g. `"runner.pair"`, `"dyn.decision"`.
    pub name: &'static str,
    /// Span/instant/counter shape.
    pub kind: EventKind,
    /// Timestamp (see [`Stamp`] for the two-clock rule).
    pub stamp: Stamp,
    /// Track id: the run track for cycle-stamped events, the host thread
    /// for wall-stamped ones. Filled in by [`crate::emit_with`].
    pub tid: u32,
    /// Payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// An event with no fields; chain [`Self::field`] to add payload.
    pub fn new(name: &'static str, kind: EventKind, stamp: Stamp) -> Self {
        Event { name, kind, stamp, tid: 0, fields: Vec::new() }
    }

    /// A span-begin event.
    pub fn begin(name: &'static str, stamp: Stamp) -> Self {
        Self::new(name, EventKind::Begin, stamp)
    }

    /// A span-end event.
    pub fn end(name: &'static str, stamp: Stamp) -> Self {
        Self::new(name, EventKind::End, stamp)
    }

    /// An instant event.
    pub fn instant(name: &'static str, stamp: Stamp) -> Self {
        Self::new(name, EventKind::Instant, stamp)
    }

    /// A counter event.
    pub fn counter(name: &'static str, stamp: Stamp) -> Self {
        Self::new(name, EventKind::Counter, stamp)
    }

    /// Appends one field (builder style).
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Looks a field up by key.
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Renders this event as one line of the JSONL schema (no trailing
    /// newline). See [`crate::schema`] for the format contract.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96 + self.fields.len() * 24);
        out.push_str("{\"name\":");
        push_json_str(&mut out, self.name);
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.name());
        out.push_str("\",\"clock\":\"");
        out.push_str(self.stamp.clock_name());
        out.push_str("\",\"ts\":");
        out.push_str(&self.stamp.ticks().to_string());
        out.push_str(",\"tid\":");
        out.push_str(&self.tid.to_string());
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            push_json_value(&mut out, v);
        }
        out.push_str("}}");
        out
    }
}

/// Appends `s` as a JSON string literal (with escaping).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a field value as a JSON scalar.
pub(crate) fn push_json_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => out.push_str(&n.to_string()),
        FieldValue::I64(n) => out.push_str(&n.to_string()),
        FieldValue::F64(x) if x.is_finite() => {
            // Rust's Display for f64 is shortest-roundtrip, like the
            // vendored serde stub uses for the run cache.
            let s = x.to_string();
            out.push_str(&s);
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Str(s) => push_json_str(out, s),
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_rendering_escapes_and_types() {
        let ev = Event::instant("test.event", Stamp::Cycles(42))
            .field("s", "a\"b\\c\n")
            .field("u", 7u64)
            .field("i", -3i64)
            .field("f", 1.5)
            .field("b", true);
        let line = ev.to_jsonl();
        assert_eq!(
            line,
            "{\"name\":\"test.event\",\"kind\":\"instant\",\"clock\":\"cycles\",\"ts\":42,\
             \"tid\":0,\"fields\":{\"s\":\"a\\\"b\\\\c\\n\",\"u\":7,\"i\":-3,\"f\":1.5,\"b\":true}}"
        );
    }

    #[test]
    fn non_finite_floats_render_null() {
        let ev = Event::counter("x", Stamp::WallUs(1)).field("nan", f64::NAN);
        assert!(ev.to_jsonl().contains("\"nan\":null"));
    }

    #[test]
    fn get_finds_fields() {
        let ev = Event::begin("b", Stamp::Cycles(0)).field("k", 9u64);
        assert_eq!(ev.get("k"), Some(&FieldValue::U64(9)));
        assert_eq!(ev.get("missing"), None);
    }
}
