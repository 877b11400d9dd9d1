//! The structured event vocabulary shared by every sink.

use std::fmt;

use crate::json::{render_float, render_string};

/// A scalar attached to an event as a named field.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// An unsigned integer (ids, counts, sizes).
    U64(u64),
    /// A floating-point value (probabilities, residuals).
    F64(f64),
    /// A short label (source names, query text).
    Str(String),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::U64(v) => write!(f, "{v}"),
            Field::F64(v) => write!(f, "{v}"),
            Field::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for Field {
    fn from(v: u64) -> Field {
        Field::U64(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Field {
        Field::U64(v as u64)
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Field {
        Field::F64(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Field {
        Field::Str(v.to_owned())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Field {
        Field::Str(v)
    }
}

/// What kind of measurement an [`Event`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened. `span` identifies it; `parent` is the enclosing span.
    SpanStart,
    /// A span closed. `dur_us` is its wall-clock duration in microseconds.
    SpanEnd {
        /// Microseconds between the span's start and end.
        dur_us: u64,
    },
    /// A monotonic counter increment (never negative, never reset).
    Counter {
        /// Amount added to the counter named by the event.
        delta: u64,
    },
    /// One scalar observation, destined for a [`crate::Histogram`].
    Value {
        /// The observed value.
        value: f64,
    },
}

/// One structured telemetry record.
///
/// Span events carry their own id and parent id so a sink can rebuild the
/// tree without shared state; counters and values carry the id of the span
/// they were emitted under (`0` = no enclosing span). Span ids are unique
/// process-wide, so events from several [`crate::Recorder`]s can share one
/// sink (the bench binaries fan engine and harness events into one trace).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Metric or span name, e.g. `engine.refresh` or `maxent.solve.hit`.
    /// Names are `'static` by design: the taxonomy is part of the API.
    pub name: &'static str,
    /// The measurement.
    pub kind: EventKind,
    /// Span id for span events; `0` otherwise.
    pub span: u64,
    /// Enclosing span id; `0` at the root.
    pub parent: u64,
    /// Microseconds since the process-wide trace epoch (first recorder use).
    pub t_us: u64,
    /// Optional named scalars (`n_sources`, `source`, …).
    pub fields: Vec<(&'static str, Field)>,
}

impl Event {
    /// The value of field `name`, if present.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Render the event as one JSON object (the `JsonLinesSink` format).
    ///
    /// The field order is fixed by hand; names, strings and floats go
    /// through the workspace codec's scalar renderers ([`crate::json`]),
    /// so the output is plain RFC 8259 JSON, one object per line, parseable
    /// by any JSON library or `jq`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"t_us\":");
        out.push_str(&self.t_us.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(match self.kind {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd { .. } => "span_end",
            EventKind::Counter { .. } => "counter",
            EventKind::Value { .. } => "value",
        });
        out.push_str("\",\"name\":");
        render_string(self.name, &mut out);
        if self.span != 0 {
            out.push_str(",\"span\":");
            out.push_str(&self.span.to_string());
        }
        if self.parent != 0 {
            out.push_str(",\"parent\":");
            out.push_str(&self.parent.to_string());
        }
        match &self.kind {
            EventKind::SpanStart => {}
            EventKind::SpanEnd { dur_us } => {
                out.push_str(",\"dur_us\":");
                out.push_str(&dur_us.to_string());
            }
            EventKind::Counter { delta } => {
                out.push_str(",\"delta\":");
                out.push_str(&delta.to_string());
            }
            EventKind::Value { value } => {
                out.push_str(",\"value\":");
                render_float(*value, &mut out);
            }
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (name, value)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(name, &mut out);
                out.push(':');
                match value {
                    Field::U64(v) => out.push_str(&v.to_string()),
                    Field::F64(v) => render_float(*v, &mut out),
                    Field::Str(v) => render_string(v, &mut out),
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_encoding_covers_every_kind() {
        let e = Event {
            name: "engine.refresh",
            kind: EventKind::SpanStart,
            span: 3,
            parent: 1,
            t_us: 17,
            fields: vec![],
        };
        assert_eq!(
            e.to_json(),
            "{\"t_us\":17,\"kind\":\"span_start\",\"name\":\"engine.refresh\",\"span\":3,\"parent\":1}"
        );

        let e = Event {
            name: "maxent.residual",
            kind: EventKind::Value { value: 0.5 },
            span: 0,
            parent: 0,
            t_us: 0,
            fields: vec![("source", Field::Str("a\"b".into())), ("n", Field::U64(2))],
        };
        let json = e.to_json();
        assert!(json.contains("\"value\":0.5"), "{json}");
        assert!(json.contains("\"source\":\"a\\\"b\""), "{json}");
        assert!(json.contains("\"n\":2"), "{json}");
    }

    #[test]
    fn non_finite_values_encode_as_null() {
        let e = Event {
            name: "x",
            kind: EventKind::Value {
                value: f64::INFINITY,
            },
            span: 0,
            parent: 0,
            t_us: 0,
            fields: vec![],
        };
        assert!(e.to_json().contains("\"value\":null"));
    }

    #[test]
    fn control_characters_are_escaped() {
        let e = Event {
            name: "x",
            kind: EventKind::Counter { delta: 1 },
            span: 0,
            parent: 0,
            t_us: 0,
            fields: vec![("s", Field::Str("a\nb\u{1}".into()))],
        };
        let json = e.to_json();
        assert!(json.contains("a\\nb\\u0001"), "{json}");
    }

    #[test]
    fn field_lookup_and_conversions() {
        let e = Event {
            name: "x",
            kind: EventKind::SpanEnd { dur_us: 9 },
            span: 1,
            parent: 0,
            t_us: 1,
            fields: vec![("n", 4usize.into()), ("p", 0.25.into()), ("s", "hi".into())],
        };
        assert_eq!(e.field("n"), Some(&Field::U64(4)));
        assert_eq!(e.field("p"), Some(&Field::F64(0.25)));
        assert_eq!(e.field("s"), Some(&Field::Str("hi".into())));
        assert_eq!(e.field("missing"), None);
        assert_eq!(Field::U64(4).to_string(), "4");
    }
}
