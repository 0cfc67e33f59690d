//! # partir-obs — observability for the partitioning pipeline
//!
//! Lightweight spans, counters, and a structured event sink used by every
//! phase of the pipeline (inference, lemma engine, solver, unification,
//! Section-5 optimizations, executor, simulator) and by the bench harness
//! binaries for machine-readable reports.
//!
//! ## Gating and cost model
//!
//! Emission is **off by default** and controlled by two environment
//! variables, read once at [`init_from_env`]:
//!
//! * `PARTIR_TRACE=1` — span/instant events (phase boundaries, solver
//!   decisions, unification merges) are written to stderr as JSON lines;
//! * `PARTIR_METRICS=1` — counter events are written too.
//!
//! The fast path when disabled is a single relaxed atomic load at *phase
//! boundaries only* — hot loops never branch on the sink. Per-iteration
//! quantities (candidates tried, lemma applications, legality checks, …)
//! are accumulated unconditionally into plain integer fields of the stat
//! structs the pipeline already returns (`SolveStats` and friends); the
//! sink only sees them summarized, at the end of a phase.
//!
//! [`counter`] calls never touch the sink directly: they accumulate into
//! per-name shared atomics (one relaxed `fetch_add` under a registry read
//! lock) and reach the sink only when a phase ends and [`flush_counters`]
//! drains them, sorted by name. Eight rank threads bumping
//! `dist.bytes_sent` therefore never serialize on the sink's lock
//! mid-epoch, so enabling `PARTIR_METRICS` does not skew the timings the
//! trace is measuring (`fig_dist --check-obs-skew` asserts this).
//!
//! Tests and the report harness can install a [`MemorySink`] via
//! [`install_sink`] to capture events in-process regardless of the
//! environment.
//!
//! The [`json`] module provides the minimal JSON value/writer/parser used
//! for reports (serde is not available in the offline build environment;
//! see DESIGN.md §6). The [`trace`] module holds the cross-rank timeline
//! model (per-rank spans with a shared time base, Chrome `trace_event`
//! export); [`profile`] turns a timeline into the per-epoch critical-path
//! attribution of the `dist_profile` report section.

pub mod config;
pub mod json;
pub mod profile;
pub mod report;
pub mod trace;

pub use config::ObsConfig;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// A field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

/// What kind of event this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A phase/operation began.
    SpanStart,
    /// The matching phase/operation ended; carries `elapsed_ns`.
    SpanEnd,
    /// A point-in-time decision or observation.
    Instant,
    /// A named numeric metric.
    Counter,
}

/// One structured event.
#[derive(Clone, Debug)]
pub struct Event {
    pub kind: EventKind,
    /// Dotted, stable name, e.g. `pipeline.infer` or `solve.candidate`.
    pub name: &'static str,
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Receiver of events. Implementations must tolerate concurrent emission.
pub trait EventSink: Send + Sync {
    fn emit(&self, event: Event);
}

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: OnceLock<()> = OnceLock::new();

fn sink_slot() -> &'static RwLock<Option<Arc<dyn EventSink>>> {
    static SINK: OnceLock<RwLock<Option<Arc<dyn EventSink>>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(None))
}

/// Is span/instant tracing on? One relaxed load; call at phase boundaries.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Is counter emission on?
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Reads `PARTIR_TRACE` / `PARTIR_METRICS` once (via
/// [`config::ObsConfig::from_env`] — the single place those variables are
/// parsed) and, if either is set, installs the stderr line-JSON sink.
/// Idempotent and cheap to call from any entry point (`auto_parallelize`
/// calls it, as do the bench bins).
pub fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        config::ObsConfig::from_env().apply();
    });
}

/// Installs `sink` only when no sink is installed yet — the
/// [`ObsConfig::apply`] path, which must never clobber a sink a test or
/// report harness installed programmatically.
pub fn install_default_sink(sink: Arc<dyn EventSink>, trace: bool, metrics: bool) {
    let mut slot = sink_slot().write().unwrap_or_else(|e| e.into_inner());
    if slot.is_none() {
        *slot = Some(sink);
        TRACE_ENABLED.store(trace, Ordering::Relaxed);
        METRICS_ENABLED.store(metrics, Ordering::Relaxed);
        drain_counters();
    }
}

/// Installs a sink programmatically (tests, report harnesses), replacing
/// any current sink. `trace`/`metrics` select which event kinds flow.
/// Pending (unflushed) counter accumulations from before the install are
/// discarded so the new sink starts from a clean slate.
pub fn install_sink(sink: Arc<dyn EventSink>, trace: bool, metrics: bool) {
    let mut slot = sink_slot().write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(sink);
    TRACE_ENABLED.store(trace, Ordering::Relaxed);
    METRICS_ENABLED.store(metrics, Ordering::Relaxed);
    drain_counters();
}

/// Removes the current sink and disables all emission. Unflushed counter
/// accumulations are discarded.
pub fn uninstall_sink() {
    let mut slot = sink_slot().write().unwrap_or_else(|e| e.into_inner());
    *slot = None;
    TRACE_ENABLED.store(false, Ordering::Relaxed);
    METRICS_ENABLED.store(false, Ordering::Relaxed);
    drain_counters();
}

#[cold]
fn emit_to_sink(event: Event) {
    let slot = sink_slot().read().unwrap_or_else(|e| e.into_inner());
    if let Some(sink) = slot.as_ref() {
        sink.emit(event);
    }
}

/// Emits an [`EventKind::Instant`] event (no-op unless tracing is on).
pub fn instant(name: &'static str, fields: Vec<(&'static str, Value)>) {
    if trace_enabled() {
        emit_to_sink(Event { kind: EventKind::Instant, name, fields });
    }
}

/// The shared counter cells: one leaked `AtomicU64` per counter name,
/// behind a read-mostly registry lock. Counter names are a small static
/// set (a few dozen dotted names), so a linear scan beats hashing.
fn counter_registry() -> &'static RwLock<Vec<(&'static str, &'static AtomicU64)>> {
    static REG: OnceLock<RwLock<Vec<(&'static str, &'static AtomicU64)>>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(Vec::new()))
}

/// Adds `value` to the named counter (no-op unless metrics are on).
///
/// This never touches the sink: the value lands in a shared atomic cell
/// with one relaxed `fetch_add` under the registry's *read* lock, so
/// concurrent rank threads do not serialize here. The accumulated totals
/// reach the sink when [`flush_counters`] runs at the end of a phase.
pub fn counter(name: &'static str, value: u64) {
    if !metrics_enabled() {
        return;
    }
    {
        let reg = counter_registry().read().unwrap_or_else(|e| e.into_inner());
        if let Some((_, cell)) = reg.iter().find(|(n, _)| *n == name) {
            cell.fetch_add(value, Ordering::Relaxed);
            return;
        }
    }
    // First use of this name: take the write lock and register the cell.
    let mut reg = counter_registry().write().unwrap_or_else(|e| e.into_inner());
    if let Some((_, cell)) = reg.iter().find(|(n, _)| *n == name) {
        cell.fetch_add(value, Ordering::Relaxed);
    } else {
        reg.push((name, Box::leak(Box::new(AtomicU64::new(value)))));
    }
}

/// Drains every accumulated counter and emits one [`EventKind::Counter`]
/// event per nonzero total, sorted by name (so reports are deterministic
/// regardless of which thread bumped a counter first). Called by the
/// executors at the end of a run; a no-op unless metrics are on.
pub fn flush_counters() {
    if !metrics_enabled() {
        return;
    }
    let mut totals: Vec<(&'static str, u64)> = {
        let reg = counter_registry().read().unwrap_or_else(|e| e.into_inner());
        reg.iter()
            .map(|(n, c)| (*n, c.swap(0, Ordering::Relaxed)))
            .filter(|(_, v)| *v > 0)
            .collect()
    };
    totals.sort_unstable_by_key(|(n, _)| *n);
    for (name, value) in totals {
        emit_to_sink(Event {
            kind: EventKind::Counter,
            name,
            fields: vec![("value", Value::U64(value))],
        });
    }
}

/// Zeroes all accumulated counters without emitting them.
fn drain_counters() {
    let reg = counter_registry().read().unwrap_or_else(|e| e.into_inner());
    for (_, cell) in reg.iter() {
        cell.store(0, Ordering::Relaxed);
    }
}

/// RAII span: emits `SpanStart` on creation and `SpanEnd` (with
/// `elapsed_ns`) on drop. When tracing is disabled both are no-ops and the
/// span holds no timestamp.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span with no fields.
pub fn span(name: &'static str) -> Span {
    span_with(name, Vec::new())
}

/// Opens a span carrying fields on its start event.
pub fn span_with(name: &'static str, fields: Vec<(&'static str, Value)>) -> Span {
    if trace_enabled() {
        emit_to_sink(Event { kind: EventKind::SpanStart, name, fields });
        Span { name, start: Some(Instant::now()) }
    } else {
        Span { name, start: None }
    }
}

impl Span {
    /// Closes the span now, attaching extra fields to the end event.
    pub fn close_with(mut self, mut fields: Vec<(&'static str, Value)>) {
        if let Some(start) = self.start.take() {
            fields.push(("elapsed_ns", Value::U64(start.elapsed().as_nanos() as u64)));
            emit_to_sink(Event { kind: EventKind::SpanEnd, name: self.name, fields });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            emit_to_sink(Event {
                kind: EventKind::SpanEnd,
                name: self.name,
                fields: vec![("elapsed_ns", Value::U64(start.elapsed().as_nanos() as u64))],
            });
        }
    }
}

/// Sink writing one JSON object per line to stderr.
pub struct StderrSink;

impl EventSink for StderrSink {
    fn emit(&self, event: Event) {
        use std::io::Write;
        let line = event_to_json(&event).to_string();
        let stderr = std::io::stderr();
        let mut lock = stderr.lock();
        let _ = writeln!(lock, "{line}");
    }
}

/// Renders an event as a JSON object (`{"ev":..., "name":..., fields...}`).
pub fn event_to_json(event: &Event) -> json::Json {
    let kind = match event.kind {
        EventKind::SpanStart => "span_start",
        EventKind::SpanEnd => "span_end",
        EventKind::Instant => "instant",
        EventKind::Counter => "counter",
    };
    let mut obj = json::Json::object()
        .with("ev", json::Json::str(kind))
        .with("name", json::Json::str(event.name));
    for (k, v) in &event.fields {
        obj = obj.with(*k, json::Json::from_value(v));
    }
    obj
}

/// In-memory sink for tests and report harnesses.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    pub fn new() -> Arc<Self> {
        Arc::new(MemorySink::default())
    }

    /// Returns and clears the captured events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Copies the captured events without clearing.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: Event) {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global; every test that installs one runs under
    // this lock so they cannot observe each other's events.
    fn sink_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_sink_swallows_everything() {
        let _guard = sink_test_lock();
        uninstall_sink();
        assert!(!trace_enabled());
        assert!(!metrics_enabled());
        // All of these must be no-ops (and must not panic with no sink).
        let s = span("test.disabled");
        instant("test.instant", vec![("x", Value::U64(1))]);
        counter("test.counter", 7);
        drop(s);

        // Even with a sink installed, kinds that are gated off don't flow.
        let sink = MemorySink::new();
        install_sink(sink.clone(), false, false);
        let s = span("test.gated");
        instant("test.gated", vec![]);
        counter("test.gated", 1);
        drop(s);
        assert!(sink.is_empty(), "gated-off sink must receive nothing");
        uninstall_sink();
    }

    #[test]
    fn enabled_sink_captures_span_nesting() {
        let _guard = sink_test_lock();
        let sink = MemorySink::new();
        install_sink(sink.clone(), true, true);

        {
            let outer = span_with("outer", vec![("app", Value::Str("spmv".into()))]);
            {
                let _inner = span("inner");
                counter("work.items", 40);
                counter("work.items", 2);
            }
            outer.close_with(vec![("loops", Value::U64(2))]);
        }
        flush_counters();
        uninstall_sink();

        let events = sink.take();
        let names: Vec<(&'static str, EventKind)> =
            events.iter().map(|e| (e.name, e.kind)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", EventKind::SpanStart),
                ("inner", EventKind::SpanStart),
                ("inner", EventKind::SpanEnd),
                ("outer", EventKind::SpanEnd),
                ("work.items", EventKind::Counter),
            ],
            "spans nest LIFO; counters accumulate and flush after the phase"
        );
        // Start carries user fields; end carries elapsed + close fields;
        // the flushed counter carries the accumulated total.
        assert_eq!(events[0].field("app"), Some(&Value::Str("spmv".into())));
        assert!(events[2].field("elapsed_ns").is_some());
        assert_eq!(events[3].field("loops"), Some(&Value::U64(2)));
        assert!(events[3].field("elapsed_ns").is_some());
        assert_eq!(events[4].field("value"), Some(&Value::U64(42)));
    }

    #[test]
    fn counters_accumulate_and_flush_sorted_once() {
        let _guard = sink_test_lock();
        let sink = MemorySink::new();
        install_sink(sink.clone(), false, true);
        counter("b.second", 5);
        counter("a.first", 1);
        counter("a.first", 2);
        flush_counters();
        // A second flush emits nothing: the totals were drained.
        flush_counters();
        uninstall_sink();
        let events = sink.take();
        let got: Vec<(&'static str, Option<&Value>)> =
            events.iter().map(|e| (e.name, e.field("value"))).collect();
        assert_eq!(
            got,
            vec![("a.first", Some(&Value::U64(3))), ("b.second", Some(&Value::U64(5)))],
            "flush emits accumulated totals sorted by name, exactly once"
        );
    }

    #[test]
    fn trace_without_metrics_drops_counters() {
        let _guard = sink_test_lock();
        let sink = MemorySink::new();
        install_sink(sink.clone(), true, false);
        let s = span("only.spans");
        counter("dropped", 1);
        drop(s);
        flush_counters();
        uninstall_sink();
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.kind != EventKind::Counter));
    }

    #[test]
    fn event_json_rendering() {
        let e = Event {
            kind: EventKind::Instant,
            name: "solve.bind",
            fields: vec![("sym", Value::Str("P3".into())), ("depth", Value::U64(2))],
        };
        assert_eq!(
            event_to_json(&e).to_string(),
            r#"{"ev":"instant","name":"solve.bind","sym":"P3","depth":2}"#
        );
    }
}
