//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, start_ns, end_ns, parent, request)`. Spans stay in
//! memory while the run measures and are written to
//! `out/trace-<workload>.json` when it ends. A layer's **self time** is
//! its span minus the part of it covered by child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    request: u64,
}

/// An in-memory span log. A disabled tracer records nothing and costs a
/// branch per call, so the same code path serves traced and untraced
/// runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span. `request` ties the spans of one request (or one
    /// replayed batch) together.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            request,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id.0 as usize].end_ns = self.now_ns();
        }
    }

    /// Records a span whose ends were taken by the caller (a request
    /// timed from submit to reply on the load generator's clock).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
                parent: None,
                request,
            });
        }
    }

    /// Runs `f` inside a span and returns its result with the seconds it
    /// took (measured whether or not the tracer records).
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent, request);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Per name: `(span count, total ns, self ns)`, self = total minus
    /// the time covered by direct children (children of one parent run
    /// one after another on the benchmark's thread, so their durations
    /// add up without overlap).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(covered) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns);
        }
        out
    }

    /// Writes the span log as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since run start\", \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("batch", None, 7);
        let a = t.begin("embed", Some(root), 7);
        t.end(a);
        let b = t.begin("scan", Some(root), 7);
        t.end(b);
        t.end(root);
        // Make the arithmetic exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 40;
        t.spans[2].start_ns = 40;
        t.spans[2].end_ns = 90;
        let st = t.self_times();
        assert_eq!(st["batch"], (1, 100, 20));
        assert_eq!(st["embed"], (1, 30, 30));
        assert_eq!(st["scan"], (1, 50, 50));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 0);
        t.end(id);
        let (out, secs) = t.timed("y", Some(id), 0, || 5);
        assert!(out == 5 && secs >= 0.0);
        t.record("z", Instant::now(), Instant::now(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn the_trace_file_lists_every_span() {
        let mut t = Tracer::new(true);
        let root = t.begin("request", None, 3);
        t.timed("embed", Some(root), 3, || ());
        t.end(root);
        // Inside the benchmark's own (ignored) output directory.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("selftest-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        t.write_json(&path, "serve_exact", 2019).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains("\"workload\": \"serve_exact\""));
        assert!(text.contains("\"name\": \"embed\""));
        assert!(text.contains("\"parent\": 0, \"request\": 3"));
        assert_eq!(text.matches("\"start_ns\"").count(), 2);
    }
}
