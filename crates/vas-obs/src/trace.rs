//! Causal span tracing and the event store: hierarchical, cross-thread
//! spans and instant events over the [`crate::Recorder`] handle, exported
//! as Chrome-trace-format JSON and dumped as a post-mortem file on a fatal
//! path.
//!
//! Where the [`crate::MetricsRegistry`] answers *how much* and *how often*,
//! a trace answers *why*: one `build_from_source` produces a tree of
//! [`SpanRecord`]s — the build root, its per-chunk fill/candidate-eval
//! phases, the speculation workers fanned out under each candidate batch,
//! and the chunk decodes running ahead on the `vas-par` read-ahead thread —
//! every span carrying its parent's id, so the timeline reconstructs the
//! causal chain across thread boundaries. Discrete happenings (checkpoint
//! writes, retries, phase transitions) land in the same buffer as
//! [`EventRecord`]s, parented to the span open when they fired.
//!
//! ## Parenting rules
//!
//! A new span resolves its parent in three steps, first match wins:
//!
//! 1. **Explicit** — a [`SpanContext`] captured on the consumer thread and
//!    handed across a fan-out boundary (the `vas-par` fan-out core does
//!    this for every worker), provided it belongs to the same tracer.
//! 2. **Implicit** — the innermost open span *on the current thread* of the
//!    same tracer (a thread-local stack, so nested guards on one thread
//!    form a chain for free).
//! 3. **Ambient** — the tracer's current *root* span, set by
//!    [`Tracer::root_span`] for the duration of a build. This is what
//!    parents work running on threads that were spawned *before* the build
//!    started (the read-ahead decode worker): their stacks are empty and no
//!    context was handed over, but they are still causally inside the
//!    build.
//!
//! ## The ring and the post-mortem dump
//!
//! Finished spans and events share one bounded ring
//! ([`Tracer::with_capacity`]): once full, each new record evicts the
//! oldest, counted in [`Tracer::dropped`]. [`Tracer::dump`] writes the
//! newest [`DUMP_RECORDS`] of them to the path set by
//! [`Tracer::set_dump_path`] as JSONL — a `"kind":"flight_dump"` header,
//! then one `"kind":"span"` or `"kind":"event"` line per record — so a run
//! that dies still tells the story of its last moments. Records stay
//! typed until then: the fatal path, not the hot path, pays for rendering.
//!
//! ## Off the data path
//!
//! Same contract as the rest of the crate: a [`crate::Recorder`] without a
//! tracer returns an inert [`SpanGuard`] and drops events — no
//! `Instant::now`, no allocation, no lock.

use serde::Value;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default bound on the number of records (spans and events) a [`Tracer`]
/// retains.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// How many of the newest records a post-mortem [`Tracer::dump`] writes.
pub const DUMP_RECORDS: usize = 512;

/// Tracer tokens are process-unique so a `SpanContext` can never be
/// resolved against the wrong tracer.
static NEXT_TRACER_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Process-unique small thread ids (1-based, in first-use order) — stable
/// for the lifetime of the thread, unlike `std::thread::ThreadId`, and
/// compact enough for the Chrome-trace `tid` field.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// The stack of open spans on this thread: `(tracer token, span id)`.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

fn micros(d: std::time::Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum EventValue {
    /// Unsigned integer field.
    U64(u64),
    /// Float field.
    F64(f64),
    /// String field.
    Str(String),
    /// Boolean field.
    Bool(bool),
}

impl From<u64> for EventValue {
    fn from(v: u64) -> Self {
        EventValue::U64(v)
    }
}

impl From<usize> for EventValue {
    fn from(v: usize) -> Self {
        EventValue::U64(v as u64)
    }
}

impl From<f64> for EventValue {
    fn from(v: f64) -> Self {
        EventValue::F64(v)
    }
}

impl From<&str> for EventValue {
    fn from(v: &str) -> Self {
        EventValue::Str(v.to_string())
    }
}

impl From<bool> for EventValue {
    fn from(v: bool) -> Self {
        EventValue::Bool(v)
    }
}

impl EventValue {
    fn to_value(&self) -> Value {
        match self {
            EventValue::U64(v) => Value::Number(*v as f64),
            EventValue::F64(v) => Value::Number(*v),
            EventValue::Str(s) => Value::String(s.clone()),
            EventValue::Bool(b) => Value::Bool(*b),
        }
    }
}

/// A reference to an open span that can be sent across threads so work
/// running elsewhere parents under it. Obtained from
/// [`SpanGuard::context`] or [`Tracer::current_context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    token: u64,
    id: u64,
}

impl SpanContext {
    /// The id of the referenced span.
    pub fn span_id(&self) -> u64 {
        self.id
    }
}

/// One finished span: a named, timed interval with a causal parent link.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Monotonic span id, unique within the tracer (1-based).
    pub id: u64,
    /// Id of the parent span, if the span is not a root.
    pub parent: Option<u64>,
    /// Span name (`build_from_source`, `worker_task`, `chunk_decode`, ...).
    pub name: String,
    /// Small process-unique id of the thread the span ran on.
    pub thread: u64,
    /// Start time in microseconds since the tracer was created.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Key/value attributes attached via [`SpanGuard::attr`].
    pub attrs: Vec<(String, String)>,
}

/// One instant event (`checkpoint_write`, `retry`, `fatal`, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event kind.
    pub name: String,
    /// Id of the innermost span open when the event fired, if any.
    pub parent: Option<u64>,
    /// Small process-unique id of the thread that fired the event.
    pub thread: u64,
    /// Time in microseconds since the tracer was created.
    pub t_us: u64,
    /// Fields in the order given; non-finite floats are left out.
    pub fields: Vec<(String, EventValue)>,
}

#[derive(Debug, Clone)]
enum Record {
    Span(SpanRecord),
    Event(EventRecord),
}

impl Record {
    /// The record as a Chrome-trace event: a complete `"X"` event for a
    /// span, a thread-scoped instant `"i"` event for an event.
    fn to_chrome(&self) -> Value {
        let parent_id = |parent: Option<u64>| {
            parent.map(|p| ("parent_id".to_string(), Value::Number(p as f64)))
        };
        let event = |name: &str, ph: &str, ts: u64, shape: (&str, Value), thread: u64, args| {
            Value::Object(vec![
                ("name".to_string(), Value::String(name.to_string())),
                ("cat".to_string(), Value::String("vas".to_string())),
                ("ph".to_string(), Value::String(ph.to_string())),
                ("ts".to_string(), Value::Number(ts as f64)),
                (shape.0.to_string(), shape.1),
                ("pid".to_string(), Value::Number(1.0)),
                ("tid".to_string(), Value::Number(thread as f64)),
                ("args".to_string(), Value::Object(args)),
            ])
        };
        match self {
            Record::Span(s) => {
                let mut args = vec![("span_id".to_string(), Value::Number(s.id as f64))];
                args.extend(parent_id(s.parent));
                args.extend(
                    s.attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::String(v.clone()))),
                );
                let dur = ("dur", Value::Number(s.dur_us as f64));
                event(&s.name, "X", s.start_us, dur, s.thread, args)
            }
            Record::Event(e) => {
                let mut args: Vec<_> = parent_id(e.parent).into_iter().collect();
                args.extend(e.fields.iter().map(|(k, v)| (k.clone(), v.to_value())));
                let scope = ("s", Value::String("t".to_string()));
                event(&e.name, "i", e.t_us, scope, e.thread, args)
            }
        }
    }

    /// The record as one line of a post-mortem dump.
    fn to_dump_line(&self) -> Value {
        match self {
            Record::Span(s) => {
                let mut obj = vec![
                    ("kind".to_string(), Value::String("span".to_string())),
                    ("name".to_string(), Value::String(s.name.clone())),
                    ("span_id".to_string(), Value::Number(s.id as f64)),
                ];
                if let Some(parent) = s.parent {
                    obj.push(("parent_id".to_string(), Value::Number(parent as f64)));
                }
                obj.push(("thread".to_string(), Value::Number(s.thread as f64)));
                obj.push(("start_us".to_string(), Value::Number(s.start_us as f64)));
                obj.push(("dur_us".to_string(), Value::Number(s.dur_us as f64)));
                for (k, v) in &s.attrs {
                    obj.push((k.clone(), Value::String(v.clone())));
                }
                Value::Object(obj)
            }
            Record::Event(e) => {
                let mut obj = vec![
                    ("kind".to_string(), Value::String("event".to_string())),
                    ("t_us".to_string(), Value::Number(e.t_us as f64)),
                    ("event".to_string(), Value::String(e.name.clone())),
                ];
                for (k, v) in &e.fields {
                    obj.push((k.clone(), v.to_value()));
                }
                Value::Object(obj)
            }
        }
    }
}

/// Collects [`SpanRecord`]s and [`EventRecord`]s from every thread of an
/// instrumented run.
///
/// Shared behind an `Arc` by [`crate::Recorder::with_tracer`]; all state is
/// interior-mutable. Span ids are monotonic, the record ring is bounded,
/// and everything timing-related uses one epoch `Instant` so all records
/// share a clock.
#[derive(Debug)]
pub struct Tracer {
    token: u64,
    epoch: Instant,
    capacity: usize,
    next_id: AtomicU64,
    records: Mutex<VecDeque<Record>>,
    dropped: AtomicU64,
    /// The current build-root span id — the ambient fallback parent for
    /// threads with no open span and no explicit context (see module docs).
    ambient: Mutex<Option<u64>>,
    dump_path: Mutex<Option<PathBuf>>,
    dumps: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A tracer retaining at most `capacity` records (at least one); each
    /// record past that evicts the oldest and counts in
    /// [`Tracer::dropped`].
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            token: NEXT_TRACER_TOKEN.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            records: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            ambient: Mutex::new(None),
            dump_path: Mutex::new(None),
            dumps: AtomicU64::new(0),
        }
    }

    /// Number of records (spans and events) retained.
    pub fn len(&self) -> usize {
        lock(&self.records).len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of every retained span, in finish order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock(&self.records)
            .iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s.clone()),
                Record::Event(_) => None,
            })
            .collect()
    }

    /// A copy of every retained event, in the order they fired.
    pub fn events(&self) -> Vec<EventRecord> {
        lock(&self.records)
            .iter()
            .filter_map(|r| match r {
                Record::Event(e) => Some(e.clone()),
                Record::Span(_) => None,
            })
            .collect()
    }

    /// The context a new span on this thread would parent under: the
    /// innermost open span on the current thread, else the ambient root.
    /// `None` outside any build.
    pub fn current_context(&self) -> Option<SpanContext> {
        let top = SPAN_STACK.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|(token, _)| *token == self.token)
                .map(|(_, id)| *id)
        });
        top.or_else(|| *lock(&self.ambient)).map(|id| SpanContext {
            token: self.token,
            id,
        })
    }

    /// Opens a span parented per the resolution rules (implicit stack, then
    /// ambient root).
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        self.open(name, None, false, Instant::now())
    }

    /// Opens a span with an explicit parent context (cross-thread
    /// propagation). A `None` or foreign-tracer context falls back to the
    /// implicit rules.
    pub fn span_under(
        self: &Arc<Self>,
        name: &'static str,
        parent: Option<SpanContext>,
    ) -> SpanGuard {
        self.open(name, parent, false, Instant::now())
    }

    /// Opens a **root** span: besides the normal rules, the span installs
    /// itself as the tracer's ambient parent for its lifetime, so spans
    /// from pre-existing worker threads (read-ahead decode) parent under
    /// the build. The previous ambient is restored on drop, so nested
    /// roots behave.
    pub fn root_span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        self.open(name, None, true, Instant::now())
    }

    /// Opens a span that started at `start` (a clock reading the caller
    /// shares with its own timer).
    pub(crate) fn open(
        self: &Arc<Self>,
        name: &'static str,
        explicit: Option<SpanContext>,
        root: bool,
        start: Instant,
    ) -> SpanGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = explicit
            .filter(|ctx| ctx.token == self.token)
            .map(|ctx| ctx.id)
            .or_else(|| self.current_context().map(|ctx| ctx.id));
        let restore_ambient = root.then(|| lock(&self.ambient).replace(id));
        SPAN_STACK.with(|stack| stack.borrow_mut().push((self.token, id)));
        SpanGuard {
            inner: Some(GuardInner {
                tracer: Arc::clone(self),
                id,
                parent,
                name,
                thread: current_thread_id(),
                start,
                start_us: micros(start.saturating_duration_since(self.epoch)),
                attrs: Vec::new(),
                restore_ambient,
            }),
        }
    }

    /// Records an instant event parented to the innermost open span (or
    /// the ambient root). Non-finite float fields are left out; the rest of
    /// the event is kept.
    pub fn event(&self, name: &str, fields: &[(&str, EventValue)]) {
        let record = EventRecord {
            name: name.to_string(),
            parent: self.current_context().map(|ctx| ctx.id),
            thread: current_thread_id(),
            t_us: micros(self.epoch.elapsed()),
            fields: fields
                .iter()
                .filter(|(_, v)| !matches!(v, EventValue::F64(f) if !f.is_finite()))
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        };
        self.push(Record::Event(record));
    }

    fn push(&self, record: Record) {
        let mut records = lock(&self.records);
        if records.len() == self.capacity {
            records.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        records.push_back(record);
    }

    /// Sets the file [`Tracer::dump`] writes to.
    pub fn set_dump_path(&self, path: impl Into<PathBuf>) {
        *lock(&self.dump_path) = Some(path.into());
    }

    /// How many post-mortem dumps have been written.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Writes the newest [`DUMP_RECORDS`] records to the dump path as
    /// JSONL, preceded by a header line carrying `reason` and a dump
    /// sequence number. Returns the path written, or `None` when no dump
    /// path is set or the write failed. A re-dump never clobbers an earlier
    /// one: from the second dump on, the path gets a `.N` suffix.
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let base = lock(&self.dump_path).clone()?;
        let seq = self.dumps.fetch_add(1, Ordering::Relaxed);
        let path = if seq == 0 {
            base
        } else {
            let mut name = base.into_os_string();
            name.push(format!(".{seq}"));
            PathBuf::from(name)
        };
        let header = Value::Object(vec![
            ("kind".to_string(), Value::String("flight_dump".to_string())),
            ("reason".to_string(), Value::String(reason.to_string())),
            ("seq".to_string(), Value::Number(seq as f64)),
            (
                "t_us".to_string(),
                Value::Number(micros(self.epoch.elapsed()) as f64),
            ),
        ]);
        let mut out = serde_json::to_string(&header).unwrap_or_default();
        out.push('\n');
        {
            let records = lock(&self.records);
            for record in records
                .iter()
                .skip(records.len().saturating_sub(DUMP_RECORDS))
            {
                if let Ok(line) = serde_json::to_string(&record.to_dump_line()) {
                    out.push_str(&line);
                    out.push('\n');
                }
            }
        }
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, out).ok().map(|()| path)
    }

    /// Renders every retained record as Chrome-trace-format JSON (the
    /// `traceEvents` array: complete `"ph": "X"` events for spans, instant
    /// `"ph": "i"` events for events), loadable in `chrome://tracing` or
    /// <https://ui.perfetto.dev>. Parent links ride in `args.parent_id`;
    /// [`parse_chrome_trace`] round-trips the spans.
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<Value> = lock(&self.records).iter().map(Record::to_chrome).collect();
        let root = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            (
                "displayTimeUnit".to_string(),
                Value::String("ms".to_string()),
            ),
            (
                "vasDroppedSpans".to_string(),
                Value::Number(self.dropped() as f64),
            ),
        ]);
        serde_json::to_string_pretty(&root).expect("trace values are always serializable")
    }
}

/// A JSON number that is a non-negative integer, as `u64` (saturating).
pub(crate) fn value_as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}

/// Parses Chrome-trace-format JSON produced by [`Tracer::to_chrome_trace`]
/// back into [`SpanRecord`]s (non-`"X"` events are ignored). Fails with a
/// description on malformed input — this is the validation path the trace
/// harness runs on every exported trace.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<SpanRecord>, String> {
    let root: Value =
        serde_json::from_str(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let Some(Value::Array(events)) = root.get("traceEvents") else {
        return Err("trace has no traceEvents array".to_string());
    };
    let mut spans = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        let ph = match event.get("ph") {
            Some(Value::String(s)) => s.as_str(),
            _ => return Err(format!("event {i} has no ph field")),
        };
        if ph != "X" {
            continue;
        }
        let name = match event.get("name") {
            Some(Value::String(s)) => s.clone(),
            _ => return Err(format!("event {i} has no name")),
        };
        let ts = event
            .get("ts")
            .and_then(value_as_u64)
            .ok_or_else(|| format!("event {i} has no integer ts"))?;
        let dur = event
            .get("dur")
            .and_then(value_as_u64)
            .ok_or_else(|| format!("event {i} has no integer dur"))?;
        let tid = event
            .get("tid")
            .and_then(value_as_u64)
            .ok_or_else(|| format!("event {i} has no integer tid"))?;
        let args = event.get("args");
        let id = args
            .and_then(|a| a.get("span_id"))
            .and_then(value_as_u64)
            .ok_or_else(|| format!("event {i} has no args.span_id"))?;
        let parent = args.and_then(|a| a.get("parent_id")).and_then(value_as_u64);
        let mut attrs = Vec::new();
        if let Some(Value::Object(fields)) = args {
            for (k, v) in fields {
                if k == "span_id" || k == "parent_id" {
                    continue;
                }
                if let Value::String(s) = v {
                    attrs.push((k.clone(), s.clone()));
                }
            }
        }
        spans.push(SpanRecord {
            id,
            parent,
            name,
            thread: tid,
            start_us: ts,
            dur_us: dur,
            attrs,
        });
    }
    Ok(spans)
}

#[derive(Debug)]
struct GuardInner {
    tracer: Arc<Tracer>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    thread: u64,
    start: Instant,
    start_us: u64,
    attrs: Vec<(String, String)>,
    /// `Some(previous ambient)` when this is a root span.
    restore_ambient: Option<Option<u64>>,
}

/// RAII guard for an open span; the span is recorded when the guard drops.
///
/// A guard from a tracer-less [`crate::Recorder`] is inert: construction
/// and drop touch no clock, no lock and no allocation.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

impl SpanGuard {
    /// An inert guard (what a detached recorder hands out).
    pub fn noop() -> Self {
        Self { inner: None }
    }

    /// True when the guard records into a live tracer.
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// The context other threads can parent under. `None` on an inert
    /// guard.
    pub fn context(&self) -> Option<SpanContext> {
        self.inner.as_ref().map(|inner| SpanContext {
            token: inner.tracer.token,
            id: inner.id,
        })
    }

    /// Attaches a key/value attribute (no-op on an inert guard).
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Closes the span as of `end` (a clock reading the caller shares with
    /// its own timer). No-op on an inert or already closed guard.
    pub(crate) fn close_at(&mut self, end: Instant) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        // Pop this span from the thread's open-span stack. Guards normally
        // drop in LIFO order, but search from the top so an out-of-order
        // drop cannot corrupt unrelated entries.
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(token, id)| token == inner.tracer.token && id == inner.id)
            {
                stack.remove(pos);
            }
        });
        if let Some(prev) = inner.restore_ambient {
            *lock(&inner.tracer.ambient) = prev;
        }
        inner.tracer.push(Record::Span(SpanRecord {
            id: inner.id,
            parent: inner.parent,
            name: inner.name.to_string(),
            thread: inner.thread,
            start_us: inner.start_us,
            dur_us: micros(end.saturating_duration_since(inner.start)),
            attrs: inner.attrs,
        }));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.is_live() {
            self.close_at(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_guards_chain_on_one_thread() {
        let tracer = Arc::new(Tracer::new());
        {
            let outer = tracer.span("outer");
            let outer_id = outer.context().unwrap().span_id();
            {
                let inner = tracer.span("inner");
                assert_ne!(inner.context().unwrap().span_id(), outer_id);
            }
            let sibling = tracer.span("sibling");
            drop(sibling);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("inner").parent, Some(outer.id));
        assert_eq!(by_name("sibling").parent, Some(outer.id));
    }

    #[test]
    fn explicit_context_parents_across_threads() {
        let tracer = Arc::new(Tracer::new());
        let root = tracer.span("consumer");
        let ctx = root.context();
        let worker_tracer = Arc::clone(&tracer);
        std::thread::spawn(move || {
            let _span = worker_tracer.span_under("worker", ctx);
        })
        .join()
        .unwrap();
        drop(root);
        let spans = tracer.spans();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        let consumer = spans.iter().find(|s| s.name == "consumer").unwrap();
        assert_eq!(worker.parent, Some(consumer.id));
        assert_ne!(worker.thread, consumer.thread, "ran on a worker thread");
    }

    #[test]
    fn ambient_root_parents_pre_existing_threads() {
        let tracer = Arc::new(Tracer::new());
        // A "pipeline worker" spawned before the build starts, with no
        // explicit context handed over: its spans must still land under the
        // root via the ambient cell.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker_tracer = Arc::clone(&tracer);
        let handle = std::thread::spawn(move || {
            rx.recv().unwrap();
            let _span = worker_tracer.span("decode");
            drop(_span);
            done_tx.send(()).unwrap();
        });
        {
            let _root = tracer.root_span("build");
            tx.send(()).unwrap();
            done_rx.recv().unwrap();
        }
        handle.join().unwrap();
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.name == "build").unwrap();
        let decode = spans.iter().find(|s| s.name == "decode").unwrap();
        assert_eq!(decode.parent, Some(root.id));
        assert_eq!(root.parent, None);
        // After the root dropped, the ambient is cleared again.
        assert_eq!(tracer.current_context(), None);
    }

    #[test]
    fn ring_keeps_the_newest_records_and_counts_evictions() {
        let tracer = Arc::new(Tracer::with_capacity(3));
        for name in ["s1", "s2", "s3", "s4"] {
            let _span = tracer.span(name);
        }
        tracer.event("e5", &[]);
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.dropped(), 2);
        let names: Vec<String> = tracer.spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["s3", "s4"], "the oldest spans were evicted");
        assert_eq!(tracer.events()[0].name, "e5");
    }

    #[test]
    fn events_parent_under_the_open_span_and_drop_only_non_finite_fields() {
        let tracer = Arc::new(Tracer::new());
        tracer.event("outside", &[]);
        let root = tracer.root_span("build");
        tracer.event(
            "grid_occupancy",
            &[
                ("cells", 7u64.into()),
                ("mean", f64::NAN.into()),
                ("ok", true.into()),
            ],
        );
        let root_id = root.context().unwrap().span_id();
        drop(root);
        let events = tracer.events();
        assert_eq!(events[0].parent, None);
        assert_eq!(events[1].parent, Some(root_id));
        let keys: Vec<&str> = events[1].fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["cells", "ok"]);
        // Instant events ride in the Chrome trace but are not spans.
        let json = tracer.to_chrome_trace();
        assert!(json.contains("\"ph\": \"i\""), "{json}");
        assert_eq!(parse_chrome_trace(&json).unwrap(), tracer.spans());
    }

    #[test]
    fn dump_writes_header_plus_newest_records_and_sequences_re_dumps() {
        let dir = std::env::temp_dir().join(format!("vas-trace-dump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Arc::new(Tracer::new());
        assert_eq!(tracer.dump("early"), None, "no path configured yet");
        tracer.set_dump_path(dir.join("postmortem.jsonl"));
        for _ in 0..DUMP_RECORDS {
            let _span = tracer.span("old");
        }
        {
            let mut span = tracer.span("build");
            span.attr("k", 9);
        }
        tracer.event("retry", &[("attempt", 2u64.into())]);
        let first = tracer.dump("retries_exhausted").expect("dump path set");
        let text = std::fs::read_to_string(&first).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + DUMP_RECORDS);
        assert!(lines[0].contains("\"kind\":\"flight_dump\""));
        assert!(lines[0].contains("retries_exhausted"));
        for line in &lines {
            serde_json::from_str::<Value>(line).expect("every dump line is valid JSON");
        }
        let span = lines[DUMP_RECORDS - 1];
        assert!(
            span.starts_with("{\"kind\":\"span\",\"name\":\"build\""),
            "{span}"
        );
        assert!(span.contains("\"k\":\"9\""), "{span}");
        assert_eq!(
            lines[DUMP_RECORDS],
            format!(
                "{{\"kind\":\"event\",\"t_us\":{},\"event\":\"retry\",\"attempt\":2}}",
                tracer.events()[0].t_us
            )
        );
        let second = tracer.dump("again").unwrap();
        assert_ne!(first, second, "re-dump must not clobber the first file");
        assert_eq!(tracer.dumps(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chrome_trace_round_trips() {
        let tracer = Arc::new(Tracer::new());
        {
            let mut root = tracer.span("build");
            root.attr("k", 300);
            let _child = tracer.span("fill");
        }
        let json = tracer.to_chrome_trace();
        let parsed = parse_chrome_trace(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        let original = tracer.spans();
        for (a, b) in parsed.iter().zip(&original) {
            assert_eq!(a, b, "parsed span differs from the original");
        }
        let build = parsed.iter().find(|s| s.name == "build").unwrap();
        assert_eq!(build.attrs, vec![("k".to_string(), "300".to_string())]);
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
        assert!(parse_chrome_trace(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        // Non-X events are skipped, not errors.
        let ok = parse_chrome_trace(r#"{"traceEvents":[{"ph":"M","name":"meta"}]}"#).unwrap();
        assert!(ok.is_empty());
    }

    #[test]
    fn noop_guard_is_inert() {
        let mut guard = SpanGuard::noop();
        assert!(!guard.is_live());
        assert_eq!(guard.context(), None);
        guard.attr("k", "v");
        drop(guard);
    }

    #[test]
    fn foreign_context_is_ignored() {
        let a = Arc::new(Tracer::new());
        let b = Arc::new(Tracer::new());
        let root_a = a.span("root-a");
        let span_b = b.span_under("child-b", root_a.context());
        drop(span_b);
        drop(root_a);
        let spans = b.spans();
        assert_eq!(
            spans[0].parent, None,
            "foreign-tracer context must not bind"
        );
    }
}
