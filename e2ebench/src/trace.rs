//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans live in memory while the benchmark runs and are written out once
//! at the end (Chrome trace-event JSON, readable in Perfetto). A span's
//! *self time* is its duration minus the part of it its children cover;
//! for a parent span that self time is the named residual, so the
//! children's durations plus the residual add up to the parent exactly.

use crate::clock::Stamp;
use std::fmt::Write as _;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `qucad.admm.online_compress`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When disabled every call runs its closure and records
/// nothing.
pub struct Tracer {
    enabled: bool,
    origin: Stamp,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Stamp::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Stamp) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos())
            .expect("trace shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.ns(Stamp::now());
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Stamp::now());
        out
    }

    /// Records an interval timed elsewhere (e.g. on another thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Stamp, end: Stamp) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// All spans in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e6
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Summed self time of every span named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_ns(&self.spans, i) as f64)
            .sum::<f64>()
            / 1e6
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Chrome trace-event JSON of every span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                self_ns(&self.spans, i) as f64 / 1e3,
            )
            .expect("write to String");
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of span `id`: its duration minus the time its direct
/// children cover.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let covered: u64 = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(covered)
}

/// Checks that every span's children lie inside it and do not overlap, so
/// that for every parent `self + Σ child durations = duration` holds
/// exactly.
///
/// # Errors
///
/// Names the first span whose children escape it or overlap.
pub fn check_additivity(spans: &[Span]) -> Result<(), String> {
    for (id, parent) in spans.iter().enumerate() {
        let mut children: Vec<&Span> = spans.iter().filter(|c| c.parent == Some(id)).collect();
        children.sort_by_key(|c| c.start_ns);
        let mut cursor = parent.start_ns;
        for c in &children {
            if c.start_ns < cursor || c.end_ns > parent.end_ns || c.end_ns < c.start_ns {
                return Err(format!(
                    "span '{}' [{}..{}] escapes or overlaps inside parent '{}' [{}..{}]",
                    c.name, c.start_ns, c.end_ns, parent.name, parent.start_ns, parent.end_ns
                ));
            }
            cursor = c.end_ns;
        }
        let child_sum: u64 = children.iter().map(|c| c.duration_ns()).sum();
        if self_ns(spans, id) + child_sum != parent.duration_ns() {
            return Err(format!("span '{}' does not add up", parent.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("replay", None, 0, 100),
            span("profile", Some(0), 10, 30),
            span("compress", Some(0), 30, 70),
            span("bind", Some(2), 40, 45),
        ];
        assert_eq!(self_ns(&spans, 0), 40, "residual of the parent");
        assert_eq!(self_ns(&spans, 2), 35);
        assert_eq!(self_ns(&spans, 3), 5);
        // Children plus the residual add up to the parent.
        assert_eq!(
            self_ns(&spans, 0) + spans[1].duration_ns() + spans[2].duration_ns(),
            100
        );
        assert!(check_additivity(&spans).is_ok());
    }

    #[test]
    fn overlapping_or_escaping_children_are_rejected() {
        let overlap = vec![
            span("p", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 50, 70),
        ];
        assert!(check_additivity(&overlap).is_err());
        let escape = vec![span("p", None, 0, 100), span("a", Some(0), 90, 120)];
        assert!(check_additivity(&escape).is_err());
    }

    #[test]
    fn recorder_nests_and_sums() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 1) + t.span("inner", |_| 2));
        assert_eq!(v, 3);
        assert_eq!(t.count("inner"), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(check_additivity(t.spans()).is_ok());
        let total = t.total_ms("outer");
        let parts = t.self_ms("outer") + t.total_ms("inner");
        assert!((total - parts).abs() < 1e-9);
        assert!(t.chrome_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 5), 5);
        t.record("y", Stamp::now(), Stamp::now());
        assert!(t.spans().is_empty());
    }
}
