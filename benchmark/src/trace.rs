//! In-memory spans around calls into the library's public functions.
//!
//! Spans live only in the benchmark's own code: the crates are not
//! instrumented. A span's parent is whichever span was open on this thread
//! when it started, so `serve.run_tick` inside a visit nests under the
//! visit. With tracing off `span` is a plain call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation (request, visit, iteration) this span belongs to.
    pub op_id: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<u32>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = self.open.get();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                op_id,
                parent,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            (spans.len() - 1) as u32
        };
        self.open.set(Some(id));
        let out = f();
        self.spans.borrow_mut()[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.set(parent);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Per-name totals of the spans recorded so far.
    pub fn summary(&self) -> BTreeMap<&'static str, NameStats> {
        summarize(&self.spans.borrow())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Wall cost of recording one span, measured on this machine: the traced
/// run charges `spans × this` against its own window as the tracing
/// overhead.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let t = Tracer::new(true);
    let t0 = Instant::now();
    for i in 0..N {
        t.span("bench.calibrate", i, || std::hint::black_box(i));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl NameStats {
    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us() / self.count as f64
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Children that
/// overlap each other (or stick out of the parent) are not counted twice.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0u64, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Per-name totals and self times.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += total;
        e.self_ns += total - covered_ns(kids, s.start_ns, s.end_ns);
    }
    out
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("op_id", Json::Num(s.op_id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // tick [0,100] > capture [10,60] > math [20,50]; tick > flush [70,90].
        let spans = [
            span("tick", None, 0, 100),
            span("capture", Some(0), 10, 60),
            span("math", Some(1), 20, 50),
            span("flush", Some(0), 70, 90),
        ];
        let s = summarize(&spans);
        assert_eq!(s["tick"].self_ns, 100 - 50 - 20);
        assert_eq!(s["capture"].self_ns, 50 - 30);
        assert_eq!(s["math"].self_ns, 30);
        assert_eq!(s["tick"].total_ns, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union() {
        // Children [10,40] and [30,70] overlap; [90,130] overhangs the parent.
        let spans = [
            span("parent", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 90, 130),
        ];
        assert_eq!(summarize(&spans)["parent"].self_ns, 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_is_inert_when_off() {
        let t = Tracer::new(true);
        t.span("outer", 7, || {
            t.span("inner", 7, || ());
            t.span("inner", 7, || ());
        });
        t.span("outer", 8, || ());
        let spans = t.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(summarize(&spans)["inner"].count, 2);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, || 5), 5);
        assert_eq!(off.len(), 0);
    }
}
