//! # partir-obs — observability for the partitioning pipeline
//!
//! Lightweight spans, instants, and a structured event sink used by every
//! phase of the pipeline (inference, lemma engine, solver, unification,
//! Section-5 optimizations, executor, simulator) and by the bench harness
//! binaries for machine-readable reports.
//!
//! ## Gating and cost model
//!
//! Emission is **off by default**. `PARTIR_TRACE=1`, read once at
//! [`init_from_env`], writes span/instant events (phase boundaries, solver
//! decisions, unification merges) to stderr as JSON lines.
//!
//! The fast path when disabled is a single relaxed atomic load at *phase
//! boundaries only* — hot loops never branch on the sink. Numbers
//! (candidates tried, lemma applications, bytes sent, cache hits, …) are
//! not events: they are plain integer fields of the typed reports the
//! pipeline returns (`SolveStats`, `ExchangeStats`, `PlacementReport`,
//! `DistReport`, `CacheStats`); a span may repeat a few of them on its
//! end event.
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

use std::sync::atomic::{AtomicBool, Ordering};
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

/// Reads `PARTIR_TRACE` once (via [`config::ObsConfig::from_env`] — the
/// single place it is parsed) and, if it is set, installs the stderr
/// line-JSON sink.
/// Idempotent and cheap to call from any entry point (`auto_parallelize`
/// calls it, as do the bench bins).
pub fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        config::ObsConfig::from_env().apply();
    });
}

/// Installs `sink` with tracing on, only when no sink is installed yet —
/// the [`ObsConfig::apply`] path, which must never clobber a sink a test
/// or report harness installed programmatically.
pub fn install_default_sink(sink: Arc<dyn EventSink>) {
    let mut slot = sink_slot().write().unwrap_or_else(|e| e.into_inner());
    if slot.is_none() {
        *slot = Some(sink);
        TRACE_ENABLED.store(true, Ordering::Relaxed);
    }
}

/// Installs a sink programmatically (tests, report harnesses), replacing
/// any current sink. `trace` selects whether spans and instants flow.
pub fn install_sink(sink: Arc<dyn EventSink>, trace: bool) {
    let mut slot = sink_slot().write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(sink);
    TRACE_ENABLED.store(trace, Ordering::Relaxed);
}

/// Removes the current sink and disables all emission.
pub fn uninstall_sink() {
    let mut slot = sink_slot().write().unwrap_or_else(|e| e.into_inner());
    *slot = None;
    TRACE_ENABLED.store(false, Ordering::Relaxed);
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
        // All of these must be no-ops (and must not panic with no sink).
        let s = span("test.disabled");
        instant("test.instant", vec![("x", Value::U64(1))]);
        drop(s);

        // Even with a sink installed, kinds that are gated off don't flow.
        let sink = MemorySink::new();
        install_sink(sink.clone(), false);
        let s = span("test.gated");
        instant("test.gated", vec![]);
        drop(s);
        assert!(sink.is_empty(), "gated-off sink must receive nothing");
        uninstall_sink();
    }

    #[test]
    fn enabled_sink_captures_span_nesting() {
        let _guard = sink_test_lock();
        let sink = MemorySink::new();
        install_sink(sink.clone(), true);

        {
            let outer = span_with("outer", vec![("app", Value::Str("spmv".into()))]);
            {
                let _inner = span("inner");
            }
            outer.close_with(vec![("loops", Value::U64(2))]);
        }
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
            ],
            "spans nest LIFO"
        );
        // Start carries user fields; end carries elapsed + close fields.
        assert_eq!(events[0].field("app"), Some(&Value::Str("spmv".into())));
        assert!(events[2].field("elapsed_ns").is_some());
        assert_eq!(events[3].field("loops"), Some(&Value::U64(2)));
        assert!(events[3].field("elapsed_ns").is_some());
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
