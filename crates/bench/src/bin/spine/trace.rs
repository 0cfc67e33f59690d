//! Harness-side spans: one per layer call, recorded around the call from
//! outside the library, held in memory and written as Chrome trace JSON
//! when the benchmark ends.

use partir::obs::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// `workload/rep`, shared by every span of one repetition.
    pub request: String,
    pub start_ns: u64,
    pub end_ns: u64,
    thread: u64,
}

pub struct Tracer {
    base: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NUMBER: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| u64::from(*n))
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { base: Instant::now(), next: AtomicU32::new(0), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span; `f` receives the span's id so nested
    /// calls can name it as their parent.
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        request: &str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(SpanRec {
            id,
            parent,
            name,
            request: request.to_string(),
            start_ns,
            end_ns,
            thread: thread_number(),
        });
        out
    }

    /// Records a child interval the library reported itself (for instance
    /// a phase time in `ParallelPlan::timings`), laid out from
    /// `offset_ns` after the parent's start.
    pub fn reported(
        &self,
        parent: &SpanRec,
        name: &'static str,
        offset_ns: u64,
        dur_ns: u64,
    ) -> SpanRec {
        let rec = SpanRec {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: Some(parent.id),
            name,
            request: parent.request.clone(),
            start_ns: parent.start_ns + offset_ns,
            end_ns: parent.start_ns + offset_ns + dur_ns,
            thread: parent.thread,
        };
        self.push(rec.clone());
        rec
    }

    fn push(&self, rec: SpanRec) {
        self.spans.lock().expect("a span recorder panicked").push(rec);
    }

    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// The most recently closed span with this name.
    pub fn last(&self, name: &str) -> Option<SpanRec> {
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .iter()
            .rev()
            .find(|s| s.name == name)
            .cloned()
    }

    /// Chrome `trace_event` objects for every span, under process `pid`.
    pub fn chrome_events(&self, pid: u64) -> Vec<Json> {
        let mut events = vec![Json::object()
            .with("name", "process_name")
            .with("ph", "M")
            .with("pid", pid)
            .with("args", Json::object().with("name", "spine harness"))];
        for s in self.snapshot() {
            let mut args = Json::object().with("request", s.request.as_str()).with("id", s.id);
            if let Some(p) = s.parent {
                args = args.with("parent", p);
            }
            events.push(
                Json::object()
                    .with("name", s.name)
                    .with("cat", "layer")
                    .with("ph", "X")
                    .with("pid", pid)
                    .with("tid", s.thread)
                    .with("ts", s.start_ns as f64 / 1.0e3)
                    .with("dur", (s.end_ns - s.start_ns) as f64 / 1.0e3)
                    .with("args", args),
            );
        }
        events
    }
}

/// Where new spans go: a tracer, the span that causes them, and the
/// `workload/rep` they belong to.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub tracer: &'a Tracer,
    pub parent: SpanId,
    pub request: &'a str,
}

impl<'a> Scope<'a> {
    /// Runs `f` inside a child span; `f` receives the scope under it.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Scope<'a>) -> R) -> R {
        self.tracer
            .span(Some(self.parent), name, self.request, |id| f(Scope { parent: id, ..*self }))
    }
}

/// Runs `f` inside a span of `scope` when there is one, plainly otherwise.
pub fn maybe_span<'a, R>(
    scope: Option<Scope<'a>>,
    name: &'static str,
    f: impl FnOnce(Option<Scope<'a>>) -> R,
) -> R {
    match scope {
        Some(s) => s.span(name, |child| f(Some(child))),
        None => f(None),
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// child spans cover, summed over spans of the same name.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            // Children on parallel client threads overlap; count the union.
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec { id, parent, name, request: "w/0".into(), start_ns: start, end_ns: end, thread: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(0, None, "pass", 0, 100),
            rec(1, Some(0), "solve", 10, 40),
            // Overlaps `solve` on another thread: 30..40 is counted once.
            rec(2, Some(0), "solve", 30, 60),
            rec(3, Some(2), "evaluate", 35, 55),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"], 100 - 50);
        assert_eq!(t["solve"], 30 + (30 - 20));
        assert_eq!(t["evaluate"], 20);
    }

    #[test]
    fn spans_nest_and_export() {
        let tracer = Tracer::new();
        let inner = tracer
            .span(None, "outer", "w/1", |outer| tracer.span(Some(outer), "inner", "w/1", |id| id));
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        let (i, o) = (&spans[0], &spans[1]);
        assert_eq!((i.name, i.id, i.parent), ("inner", inner, Some(o.id)));
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
        let child = tracer.reported(o, "phase", 5, 7);
        assert_eq!((child.start_ns, child.end_ns), (o.start_ns + 5, o.start_ns + 12));
        let doc = Json::Arr(tracer.chrome_events(0)).to_string();
        assert!(Json::parse(&doc).is_ok());
        assert!(doc.contains("\"request\":\"w/1\""));
    }
}
