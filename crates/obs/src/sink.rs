//! Where events go: the [`Sink`] trait and the stock implementations.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::{Event, EventKind};
use crate::hist::Histogram;

/// A destination for [`Event`]s.
///
/// Sinks must be thread-safe: the setup engine fans p-mapping generation
/// across worker threads that all record into one sink. `record` takes the
/// event by reference so a fanout can serve several sinks from one
/// construction.
pub trait Sink: Send + Sync {
    /// Accept one event.
    fn record(&self, event: &Event);

    /// Flush buffered output, if any. Called by trace writers at exit; the
    /// default is a no-op.
    fn flush(&self) {}
}

/// Discards everything. [`crate::Recorder::disabled`] is cheaper (it skips
/// event construction entirely); `NullSink` exists for call sites that need
/// a real sink object.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// One finished span reconstructed from a `SpanStart`/`SpanEnd` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id.
    pub id: u64,
    /// Parent span id (`0` = root).
    pub parent: u64,
    /// Span name.
    pub name: &'static str,
    /// Start timestamp, µs since the trace epoch.
    pub start_us: u64,
    /// Wall-clock duration in µs.
    pub dur_us: u64,
}

/// Collects every event in memory — the sink tests and examples use to
/// assert on traces.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A copy of every event recorded so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all recorded events.
    pub fn clear(&self) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Total of all `Counter` deltas recorded under `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.kind {
                EventKind::Counter { delta } => delta,
                _ => 0,
            })
            .sum()
    }

    /// All finished spans (a `SpanEnd` with its matching `SpanStart`), in
    /// end order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let mut starts: HashMap<u64, u64> = HashMap::new();
        let mut out = Vec::new();
        for e in events.iter() {
            match e.kind {
                EventKind::SpanStart => {
                    starts.insert(e.span, e.t_us);
                }
                EventKind::SpanEnd { dur_us } => {
                    if let Some(&start_us) = starts.get(&e.span) {
                        out.push(SpanRecord {
                            id: e.span,
                            parent: e.parent,
                            name: e.name,
                            start_us,
                            dur_us,
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Finished spans named `name`.
    pub fn spans_named(&self, name: &str) -> Vec<SpanRecord> {
        self.spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect()
    }

    /// Build a [`Histogram`] over every `Value` observation of `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut h = Histogram::new();
        for e in self
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            if e.name == name {
                if let EventKind::Value { value } = e.kind {
                    h.observe(value);
                }
            }
        }
        h
    }

    /// Check the structural well-formedness of the recorded trace:
    ///
    /// - every `SpanEnd` has a matching earlier `SpanStart`;
    /// - every non-root parent id refers to a started span;
    /// - every child starts no earlier than its parent and ends no later
    ///   than its parent ends (1 ms of slack absorbs clock granularity).
    ///
    /// Returns the first violation found, rendered for a test assertion.
    pub fn verify_nesting(&self) -> Result<(), String> {
        let events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let mut started: HashMap<u64, (u64, &'static str)> = HashMap::new();
        let mut ended: HashMap<u64, u64> = HashMap::new(); // id → end t_us
        for e in events.iter() {
            match e.kind {
                EventKind::SpanStart => {
                    if e.span == 0 {
                        return Err(format!("span start for '{}' has id 0", e.name));
                    }
                    if started.insert(e.span, (e.t_us, e.name)).is_some() {
                        return Err(format!("span id {} started twice", e.span));
                    }
                    if e.parent != 0 && !started.contains_key(&e.parent) {
                        return Err(format!(
                            "span '{}' ({}) has unknown parent {}",
                            e.name, e.span, e.parent
                        ));
                    }
                }
                EventKind::SpanEnd { .. } => {
                    let Some(&(start_us, name)) = started.get(&e.span) else {
                        return Err(format!("span end {} without a start", e.span));
                    };
                    if e.t_us + 1 < start_us {
                        return Err(format!("span '{name}' ends before it starts"));
                    }
                    ended.insert(e.span, e.t_us);
                }
                _ => {}
            }
        }
        // Children must be contained in their parents' lifetimes.
        const SLACK_US: u64 = 1_000;
        for e in events.iter() {
            if !matches!(e.kind, EventKind::SpanStart) || e.parent == 0 {
                continue;
            }
            // Both were recorded by the first pass, which rejects unknown
            // parents.
            let (Some(&(child_start, child_name)), Some(&(parent_start, parent_name))) =
                (started.get(&e.span), started.get(&e.parent))
            else {
                continue;
            };
            if child_start + SLACK_US < parent_start {
                return Err(format!(
                    "span '{child_name}' starts before its parent '{parent_name}'"
                ));
            }
            if let (Some(&child_end), Some(&parent_end)) =
                (ended.get(&e.span), ended.get(&e.parent))
            {
                if child_end > parent_end + SLACK_US {
                    return Err(format!(
                        "span '{child_name}' outlives its parent '{parent_name}'"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

/// Aggregate-only sink: per-name counter totals and value histograms, no
/// event retention. Span events are ignored. This is what `udi-core` keeps
/// permanently installed to derive its `CacheStats` view — bounded memory
/// no matter how long the engine lives.
#[derive(Debug, Default)]
pub struct CounterSink {
    counters: Mutex<HashMap<&'static str, u64>>,
    values: Mutex<HashMap<&'static str, Histogram>>,
}

impl CounterSink {
    /// An empty sink.
    pub fn new() -> CounterSink {
        CounterSink::default()
    }

    /// Current total of counter `name` (0 if never seen).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of every counter, in sorted name order, for before/after
    /// deltas.
    pub fn snapshot(&self) -> BTreeMap<&'static str, u64> {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// The histogram of `Value` observations of `name` so far.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.values
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .unwrap_or_default()
    }
}

impl Sink for CounterSink {
    fn record(&self, event: &Event) {
        match event.kind {
            EventKind::Counter { delta } => {
                *self
                    .counters
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entry(event.name)
                    .or_insert(0) += delta;
            }
            EventKind::Value { value } => {
                self.values
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entry(event.name)
                    .or_default()
                    .observe(value);
            }
            _ => {}
        }
    }
}

/// Writes one JSON object per event — the `--trace out.jsonl` format of the
/// bench binaries. Output is buffered; [`Sink::flush`] (called by the bench
/// harness at exit) or dropping the sink flushes it.
pub struct JsonLinesSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// Create (truncating) the file at `path` and write events to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonLinesSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonLinesSink::from_writer(Box::new(file)))
    }

    /// Write events to an arbitrary writer.
    pub fn from_writer(writer: Box<dyn Write + Send>) -> JsonLinesSink {
        JsonLinesSink {
            out: Mutex::new(BufWriter::new(writer)),
        }
    }
}

impl Sink for JsonLinesSink {
    fn record(&self, event: &Event) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // Trace files are diagnostics; an I/O error must not take the
        // instrumented computation down with it.
        let _ = writeln!(out, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self
            .out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush();
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Duplicates every event to each inner sink, letting one recorder feed a
/// trace file and an in-memory aggregate at once.
#[derive(Clone, Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("n", &self.sinks.len())
            .finish()
    }
}

impl FanoutSink {
    /// Fan out to `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> FanoutSink {
        FanoutSink { sinks }
    }
}

impl Sink for FanoutSink {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn memory_sink_aggregates_counters_and_histograms() {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::new(sink.clone());
        rec.count("hits", 2);
        rec.count("hits", 3);
        rec.count("other", 1);
        rec.observe("lat", 5.0);
        rec.observe("lat", 50.0);
        assert_eq!(sink.counter_total("hits"), 5);
        assert_eq!(sink.counter_total("missing"), 0);
        let h = sink.histogram("lat");
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Some(27.5));
        assert_eq!(sink.len(), 5);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn counter_sink_keeps_totals_not_events() {
        let sink = Arc::new(CounterSink::new());
        let rec = Recorder::new(sink.clone());
        let before = sink.snapshot();
        assert!(before.is_empty());
        {
            let s = rec.span("ignored");
            s.count("n", 7);
            s.observe("v", 0.5);
        }
        rec.count("n", 1);
        assert_eq!(sink.get("n"), 8);
        assert_eq!(sink.get("absent"), 0);
        assert_eq!(sink.histogram("v").count(), 1);
        let after = sink.snapshot();
        assert_eq!(after.get("n"), Some(&8));
    }

    #[test]
    fn json_lines_sink_writes_parseable_lines() {
        // Write into a shared buffer through the Sink interface.
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        let sink = JsonLinesSink::from_writer(Box::new(buf.clone()));
        let rec = Recorder::new(Arc::new(sink));
        {
            let s = rec.span("root");
            s.count("c", 1);
        }
        // Recorder holds the sink; drop it to flush.
        drop(rec);
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "start, counter, end: {text}");
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\":\""), "{line}");
        }
    }

    #[test]
    fn fanout_duplicates_and_flushes() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(CounterSink::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        let rec = Recorder::new(Arc::new(fan));
        rec.count("x", 4);
        assert_eq!(a.counter_total("x"), 4);
        assert_eq!(b.get("x"), 4);
    }

    #[test]
    fn verify_nesting_accepts_good_and_rejects_bad_traces() {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::new(sink.clone());
        {
            let root = rec.span("root");
            let _child = root.child("child");
        }
        assert!(sink.verify_nesting().is_ok());

        // A hand-forged orphan parent must be rejected.
        let bad = MemorySink::new();
        bad.record(&Event {
            name: "orphan",
            kind: EventKind::SpanStart,
            span: 99,
            parent: 98,
            t_us: 0,
            fields: vec![],
        });
        let err = bad.verify_nesting().unwrap_err();
        assert!(err.contains("unknown parent"), "{err}");

        // An end without a start must be rejected.
        let bad = MemorySink::new();
        bad.record(&Event {
            name: "endless",
            kind: EventKind::SpanEnd { dur_us: 1 },
            span: 7,
            parent: 0,
            t_us: 0,
            fields: vec![],
        });
        let err = bad.verify_nesting().unwrap_err();
        assert!(err.contains("without a start"), "{err}");
    }

    #[test]
    fn spans_named_filters_by_name() {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::new(sink.clone());
        for _ in 0..3 {
            rec.span("a").close();
        }
        rec.span("b").close();
        assert_eq!(sink.spans_named("a").len(), 3);
        assert_eq!(sink.spans_named("b").len(), 1);
        assert_eq!(sink.spans_named("c").len(), 0);
    }
}
