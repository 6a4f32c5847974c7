//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test carries no tracing of its own here: every span
//! wraps one call the benchmark makes into a public function of a layer
//! (`ConjunctiveQuery::evaluate`, `ConfidenceEngine::confidence_batch`,
//! `TupleWriter::push`, ...). Spans stay in memory while the workload runs
//! and are written out once at the end. A disabled tracer records nothing
//! and costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span: a named interval, the span that enclosed it, and the
/// request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `query.evaluate`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 outside requests, e.g. set-up).
    pub request: u64,
}

/// Records [`Span`]s when enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records spans (`on`) or ignores them.
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span; pair with [`Tracer::close`]. Spans nest.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.origin.elapsed().as_secs_f64();
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, request: self.request });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed().as_secs_f64();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in reverse order");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Opens the `request` span of request `id`; spans opened until the
    /// matching [`Tracer::close`] carry that request id.
    pub fn begin_request(&mut self, id: u64) -> Option<usize> {
        self.request = id;
        self.open("request")
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).fold(0.0, |t, s| t + (s.end - s.start))
    }

    /// Self time per span name, over the spans of requests (set-up spans
    /// carry request id 0 and are left out). A span's self time is its
    /// duration minus the part its child spans cover; children never
    /// overlap, since the benchmark makes one call at a time.
    pub fn request_self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own).filter(|(s, _)| s.request > 0) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let r = t.begin_request(1);
        t.time("child", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.close(r);
        let child = t.total("child");
        assert!(child >= 0.004);
        let own = t.request_self_times()["request"];
        assert!((t.total("request") - child - own).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let r = t.begin_request(1);
        assert_eq!(t.time("child", || 7), 7);
        t.close(r);
        assert!(t.spans.is_empty());
    }
}
