//! In-memory spans recorded around calls into each layer.
//!
//! Spans live only in the benchmark: the program under test is called
//! through its public functions and never sees the tracer. A span has a
//! name, a start and end time relative to the tracer's epoch, the index
//! of the span that was open when it started (its parent) and the id of
//! the traced pass it belongs to. They are kept in memory and written
//! out once, when the benchmark ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    run: Cell<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            run: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Starts a new run id; spans recorded from now on carry it.
    pub fn next_run(&self) -> u32 {
        self.run.set(self.run.get() + 1);
        self.run.get()
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                run: self.run.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// Per-name totals for the spans of one run id: call count, total
/// duration and self time (duration minus the time covered by direct
/// children).
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates the spans of `run` by name.
pub fn totals(spans: &[Span], run: u32) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.run == run) {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.run == run) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Durations of every span named `name` in `run`, in ns.
pub fn durations(spans: &[Span], run: u32, name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.run == run && s.name == name)
        .map(Span::dur_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        run: u32,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("pass", 0, 100, None, 1),
            span("leg", 10, 60, Some(0), 1),
            span("ooo.sweep", 20, 50, Some(1), 1),
            span("trace.inst_gen", 25, 35, Some(2), 1),
            span("leg", 0, 1000, None, 2),
        ];
        let t = totals(&spans, 1);
        assert_eq!(t["pass"].self_ns, 50);
        assert_eq!(t["leg"].self_ns, 20);
        assert_eq!(t["ooo.sweep"].self_ns, 20);
        assert_eq!(t["trace.inst_gen"].self_ns, 10);
        assert_eq!(t["leg"].calls, 1);
        assert_eq!(durations(&spans, 2, "leg"), vec![1000]);
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let tr = Tracer::new();
        let run = tr.next_run();
        tr.span("pass", || tr.span("leg", || ()));
        tr.span("pass", || ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.run == run && s.end_ns >= s.start_ns));
    }
}
