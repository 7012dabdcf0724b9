//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a crate's
//! public API: name, layer (the crate the call belongs to), start, end,
//! parent span and operation id. Spans stay in memory and are written out
//! once, when the run ends, so recording them costs one `Instant` read per
//! boundary. When tracing is off, [`Tracer::span`] only calls the closure.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark operation this span belongs to (shared by the
    /// operation's root span and every span under it).
    pub op: u64,
    /// The call, as `crate::Item::function`.
    pub name: &'static str,
    /// The layer (crate) the call belongs to.
    pub layer: &'static str,
    /// Free-form qualifier: the Table 2 row, the app suite, ….
    pub detail: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Work the call did, in the unit its metric needs (guest
    /// instructions retired, snapshot bytes, deliveries); 0 if none.
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on the benchmark's (single) driving thread.
#[derive(Debug)]
pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
}

impl Tracer {
    /// A tracer that starts enabled or disabled.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: Cell::new(on),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
        }
    }

    /// Turns recording on or off; call only with no span open.
    pub fn set_enabled(&self, on: bool) {
        self.on.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. A span opened with no span open starts a new
    /// operation id.
    pub fn span<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        detail: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on.get() {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let op = match parent {
            Some(p) => self.spans.borrow()[p].op,
            None => {
                let op = self.next_op.get();
                self.next_op.set(op + 1);
                op
            }
        };
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                op,
                name,
                layer,
                detail,
                start_ns: 0,
                end_ns: 0,
                work: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// Attributes `work` to the most recently closed span named `name`
    /// (a no-op when tracing is off).
    pub fn work(&self, name: &'static str, work: u64) {
        if !self.on.get() {
            return;
        }
        if let Some(s) = self
            .spans
            .borrow_mut()
            .iter_mut()
            .rev()
            .find(|s| s.name == name)
        {
            s.work += work;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part covered by its
/// direct children. Children run on the same thread inside their parent,
/// so they never overlap each other.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}

/// Renders spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"id":{},"parent":{},"op":{},"name":"{}","layer":"{}","detail":"{}","start_ns":{},"end_ns":{},"work":{}}}"#,
            s.id, parent, s.op, s.name, s.layer, s.detail, s.start_ns, s.end_ns, s.work
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_an_op_and_split_self_time() {
        let t = Tracer::new(true);
        t.span("outer", "a", "", || {
            t.span("inner", "b", "", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        t.span("next", "a", "", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        assert_ne!(spans[0].op, spans[2].op);
        let own = self_ns(&spans);
        assert_eq!(own[0], spans[0].ns() - spans[1].ns());
        assert_eq!(own[1], spans[1].ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", "a", "", || 7), 7);
        t.work("x", 3);
        assert!(t.spans().is_empty());
    }
}
