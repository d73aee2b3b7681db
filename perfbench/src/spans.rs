//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and the id
//! of the study it belongs to. Spans stay in memory while the workload
//! runs and are written out once, after it ends, so recording costs one
//! mutex push per span and no I/O on the measured path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde_json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub study: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started but not yet ended.
pub struct Open {
    id: u64,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Span recorder. A disabled tracer records nothing but still measures
/// durations, so one code path serves traced and untraced runs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
        }
    }

    /// End `open`, recording it when enabled; returns its duration.
    pub fn close(
        &self,
        open: Open,
        name: &'static str,
        parent: Option<u64>,
        study: u64,
    ) -> Duration {
        let end = Instant::now();
        let dur = end - open.start;
        if self.enabled {
            let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
            let span = Span {
                id: open.id,
                parent,
                study,
                name,
                start_ns: ns(open.start),
                end_ns: ns(end),
                thread: thread_number(),
            };
            self.spans
                .lock()
                .expect("span buffer lock poisoned by a panicking worker")
                .push(span);
        }
        dur
    }

    /// Run `f` under a span; `f` receives the span id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        study: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let open = self.open();
        let out = f(open.id());
        let dur = self.close(open, name, parent, study);
        (out, dur)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span buffer lock poisoned by a panicking worker"),
        )
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (children running in parallel count once).
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let covered = covered_ns(
        span.start_ns,
        span.end_ns,
        children.iter().map(|c| (c.start_ns, c.end_ns)).collect(),
    );
    span.dur_ns() - covered.min(span.dur_ns())
}

/// Per-name totals: (count, summed duration, summed self time) in ns.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns(s, kids);
    }
    out
}

/// Chrome trace-event JSON (loads in Perfetto); ids, parents and study
/// ids ride in each event's `args`.
pub fn chrome_json(spans: &[Span]) -> Value {
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name,
                "ph": "X",
                "pid": 1u64,
                "tid": s.thread,
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.dur_ns() as f64 / 1e3,
                "args": serde_json::json!({
                    "id": s.id,
                    "parent": s.parent.map_or(Value::Null, Value::from),
                    "study": s.study,
                }),
            })
        })
        .collect();
    serde_json::json!({ "traceEvents": Value::Array(events) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            study: 1,
            name: if parent.is_none() { "study" } else { "shard" },
            start_ns,
            end_ns,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, None, 0, 100);
        // Two overlapping children (parallel shards) cover 10..60 once,
        // a third covers 70..80, and one overhangs the parent's end.
        let a = span(2, Some(1), 10, 50);
        let b = span(3, Some(1), 20, 60);
        let c = span(4, Some(1), 70, 80);
        let d = span(5, Some(1), 95, 130);
        assert_eq!(self_ns(&parent, &[]), 100);
        assert_eq!(self_ns(&parent, &[&a, &b]), 50);
        assert_eq!(self_ns(&parent, &[&a, &b, &c, &d]), 100 - 50 - 10 - 5);
        // A child starting before the parent counts only inside it.
        let early = span(6, Some(1), 0, 5);
        assert_eq!(self_ns(&span(7, None, 2, 10), &[&early]), 5);
    }

    #[test]
    fn layer_totals_group_by_name() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 20, 60),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["study"], (1, 100, 50));
        assert_eq!(t["shard"], (2, 80, 80));
    }

    #[test]
    fn disabled_tracer_measures_but_keeps_nothing() {
        let tr = Tracer::new(false);
        let (v, dur) = tr.span("x", None, 0, |_| 7);
        assert_eq!(v, 7);
        assert!(dur >= Duration::ZERO);
        assert!(tr.take().is_empty());
        let tr = Tracer::new(true);
        let ((), _) = tr.span("outer", None, 3, |id| {
            tr.span("inner", Some(id), 3, |_| ());
        });
        let spans = tr.take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(
            chrome_json(&spans)
                .get("traceEvents")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            2
        );
    }
}
