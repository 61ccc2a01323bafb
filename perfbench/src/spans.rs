//! Benchmark-side spans: recorded around calls into the pipeline's
//! public functions, kept in memory and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one collected trace (or one run-level
/// operation) share `trace`; `parent` is the index of the enclosing span
/// within the same recorder.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one trace (or of run-level work) against a
/// shared epoch, so spans from different worker threads line up.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    trace: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, trace: u64) -> Self {
        Recorder {
            epoch,
            trace,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span of this recorder.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let r = f();
        self.close(idx);
        r
    }

    /// Open a span that [`Recorder::close`] ends, for a body that records
    /// child spans on this recorder itself.
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            trace: self.trace,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    pub fn close(&mut self, idx: usize) {
        assert_eq!(self.stack.pop(), Some(idx), "spans close in nesting order");
        self.spans[idx].end_ns = self.now();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Write spans as JSON lines (one object per span).
pub fn write_jsonl<'a>(
    path: &Path,
    spans: impl IntoIterator<Item = &'a Span>,
) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{{\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.name, s.start_ns, s.end_ns
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    w.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_nests_spans() {
        let mut r = Recorder::new(Instant::now(), 7);
        let root = r.open("root");
        let v = r.span("child", || 3);
        r.close(root);
        assert_eq!(v, 3);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(
            r.spans[0].start_ns <= r.spans[1].start_ns && r.spans[1].end_ns <= r.spans[0].end_ns
        );
    }
}
