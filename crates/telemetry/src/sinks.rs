//! Event sinks: in-memory collection, JSONL streaming and per-name
//! metric sums.
//!
//! All sinks are `Send + Sync` (sweep workers emit concurrently) and all
//! of them treat I/O errors as non-fatal: telemetry must never abort a
//! measurement run. A trace file holds events only; anything a reader
//! plots (the dashboard's counter windows, its occupancy heatmap) it
//! folds from those events.

use crate::event::{push_json_str, push_json_value, Event, FieldValue};
use crate::Sink;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Collects events in memory — for tests and the `probe trace` decision
/// dump.
#[derive(Default)]
pub struct CollectingSink {
    events: Mutex<Vec<Event>>,
}

impl CollectingSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains and returns everything collected so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("collecting sink"))
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("collecting sink").len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for CollectingSink {
    fn record(&self, event: &Event) {
        self.events.lock().expect("collecting sink").push(event.clone());
    }
}

/// Fans every event out to several sinks (e.g. JSONL + metrics).
pub struct MultiSink {
    sinks: Vec<std::sync::Arc<dyn Sink>>,
}

impl MultiSink {
    /// A sink that forwards to every element of `sinks`.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Sink>>) -> Self {
        MultiSink { sinks }
    }
}

impl Sink for MultiSink {
    fn record(&self, event: &Event) {
        for s in &self.sinks {
            s.record(event);
        }
    }
    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

/// Streams events to a file as JSON Lines — one event object per line,
/// in the schema [`crate::schema`] validates.
pub struct JsonlSink {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
    path: PathBuf,
}

impl JsonlSink {
    /// Creates (truncating) `path` and streams events into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        Ok(JsonlSink { out: Mutex::new(std::io::BufWriter::new(file)), path })
    }

    /// The output path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes the events, returning the write error that [`Sink::flush`]
    /// has to drop.
    pub fn finish(&self) -> std::io::Result<()> {
        self.out.lock().expect("jsonl sink").flush()
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut line = event.to_jsonl();
        line.push('\n');
        let mut out = self.out.lock().expect("jsonl sink");
        let _ = out.write_all(line.as_bytes());
    }
    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl sink").flush();
    }
}

/// Per-event-name aggregate maintained by [`MetricsSink`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricAgg {
    /// Events recorded under this name.
    pub count: u64,
    /// Per-field sums of numeric payloads (booleans count `true`s).
    pub sums: BTreeMap<&'static str, f64>,
    /// Per-field maxima of numeric payloads.
    pub maxes: BTreeMap<&'static str, f64>,
}

/// Aggregates every event into per-name counts and numeric field
/// sums/maxima — the source of `reproduce`'s end-of-run metrics summary.
#[derive(Default)]
pub struct MetricsSink {
    aggs: Mutex<BTreeMap<&'static str, MetricAgg>>,
}

impl MetricsSink {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of all aggregates, keyed by event name.
    pub fn snapshot(&self) -> BTreeMap<&'static str, MetricAgg> {
        self.aggs.lock().expect("metrics sink").clone()
    }

    /// Renders the aggregates as an aligned text table.
    pub fn render_table(&self) -> String {
        let aggs = self.snapshot();
        if aggs.is_empty() {
            return "no telemetry events recorded\n".to_string();
        }
        let mut out = String::new();
        out.push_str(&format!("{:<18} {:>9}  field sums\n", "event", "count"));
        for (name, agg) in &aggs {
            let mut sums = String::new();
            for (k, v) in &agg.sums {
                if !sums.is_empty() {
                    sums.push_str("  ");
                }
                // Integers dominate; render exact when the sum is one.
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    sums.push_str(&format!("{k}={}", *v as i64));
                } else {
                    sums.push_str(&format!("{k}={v:.3}"));
                }
            }
            out.push_str(&format!("{name:<18} {:>9}  {sums}\n", agg.count));
        }
        out
    }

    /// Renders the aggregates as a JSON object (`{"events": {...}}`
    /// fragment body), for embedding into a metrics file.
    pub fn to_json_value(&self) -> String {
        let aggs = self.snapshot();
        let mut out = String::from("{");
        for (i, (name, agg)) in aggs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push_str(":{\"count\":");
            out.push_str(&agg.count.to_string());
            out.push_str(",\"sums\":{");
            for (j, (k, v)) in agg.sums.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
                out.push(':');
                push_json_value(&mut out, &FieldValue::F64(*v));
            }
            out.push_str("},\"max\":{");
            for (j, (k, v)) in agg.maxes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
                out.push(':');
                push_json_value(&mut out, &FieldValue::F64(*v));
            }
            out.push_str("}}");
        }
        out.push('}');
        out
    }
}

impl Sink for MetricsSink {
    fn record(&self, event: &Event) {
        let mut aggs = self.aggs.lock().expect("metrics sink");
        let agg = aggs.entry(event.name).or_default();
        agg.count += 1;
        for (k, v) in &event.fields {
            let num = match v {
                FieldValue::U64(n) => Some(*n as f64),
                FieldValue::I64(n) => Some(*n as f64),
                FieldValue::F64(x) if x.is_finite() => Some(*x),
                FieldValue::Bool(b) => Some(f64::from(u8::from(*b))),
                _ => None,
            };
            if let Some(x) = num {
                *agg.sums.entry(k).or_insert(0.0) += x;
                let m = agg.maxes.entry(k).or_insert(f64::NEG_INFINITY);
                if x > *m {
                    *m = x;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stamp;

    fn ev(name: &'static str, ts: u64) -> Event {
        Event::instant(name, Stamp::Cycles(ts))
    }

    #[test]
    fn collecting_sink_roundtrips() {
        let s = CollectingSink::new();
        s.record(&ev("a", 1));
        s.record(&ev("b", 2));
        let got = s.take();
        assert_eq!(got.len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn metrics_sink_aggregates_counts_sums_maxes() {
        let m = MetricsSink::new();
        m.record(&ev("cache.lookup", 0).field("hit", true).field("bytes", 100u64));
        m.record(&ev("cache.lookup", 0).field("hit", false).field("bytes", 50u64));
        let snap = m.snapshot();
        let agg = &snap["cache.lookup"];
        assert_eq!(agg.count, 2);
        assert_eq!(agg.sums["hit"], 1.0);
        assert_eq!(agg.sums["bytes"], 150.0);
        assert_eq!(agg.maxes["bytes"], 100.0);
        assert!(m.render_table().contains("cache.lookup"));
        let json = m.to_json_value();
        assert!(json.contains("\"cache.lookup\""), "{json}");
    }

    #[test]
    fn jsonl_sink_writes_valid_lines() {
        let path = std::env::temp_dir().join(format!("waypart-jsonl-{}.jsonl", std::process::id()));
        let s = JsonlSink::create(&path).unwrap();
        s.record(&ev("x.y", 3).field("v", 1.25));
        s.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        crate::schema::validate_jsonl(&text).expect("schema-valid line");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multi_sink_fans_out() {
        let a = std::sync::Arc::new(CollectingSink::new());
        let b = std::sync::Arc::new(MetricsSink::new());
        let multi = MultiSink::new(vec![a.clone(), b.clone()]);
        multi.record(&ev("m", 1));
        assert_eq!(a.len(), 1);
        assert_eq!(b.snapshot()["m"].count, 1);
    }
}
