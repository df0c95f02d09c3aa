//! The [`Recorder`] handle every instrumented component records through.

use crate::registry::{Counter, MetricsRegistry, Phase, ValueSeries};
use crate::trace::{EventValue, SpanContext, SpanGuard, Tracer};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A cheap, cloneable handle bundling a metrics registry, an optional
/// tracer, and a timing switch.
///
/// Components hold a `Recorder` by value. The default is
/// [`Recorder::detached`]: a private registry, timing **off**, no tracer —
/// counter-backed getters keep working, while the hot path performs zero
/// `Instant::now` calls and zero I/O (the off-the-data-path rule; see the
/// crate docs). Attaching a shared registry and tracer via
/// [`Recorder::new`]/[`Recorder::with_tracer`]/[`Recorder::with_timing`]
/// turns on full observability without touching any algorithmic state.
#[derive(Debug, Clone)]
pub struct Recorder {
    registry: Arc<MetricsRegistry>,
    tracer: Option<Arc<Tracer>>,
    timing: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::detached()
    }
}

impl Recorder {
    /// The disabled/no-op mode: a fresh private registry, timing off, no
    /// tracer. Counters still accumulate (they back public getters such as
    /// `RetryingSource::retries()`), but no wall clock is read and nothing
    /// is written anywhere.
    pub fn detached() -> Self {
        Self::new(Arc::new(MetricsRegistry::new()))
    }

    /// A recorder over a shared registry (timing still off; enable it with
    /// [`Recorder::with_timing`]).
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry,
            tracer: None,
            timing: false,
        }
    }

    /// Attaches a tracer: phases and [`Recorder::span`] open spans, events
    /// are recorded, and [`Recorder::fatal`] dumps its ring.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enables or disables phase timing (wall-clock reads).
    pub fn with_timing(mut self, on: bool) -> Self {
        self.timing = on;
        self
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Whether phase timing is enabled.
    pub fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn inc(&self, counter: Counter, n: u64) {
        self.registry.inc(counter, n);
    }

    /// Restore-only counter overwrite (checkpoint resume; see
    /// [`MetricsRegistry::set`]).
    pub fn set_restored(&self, counter: Counter, value: u64) {
        self.registry.set(counter, value);
    }

    /// Records one observation into `series`.
    #[inline]
    pub fn record_value(&self, series: ValueSeries, value: u64) {
        self.registry.record_value(series, value);
    }

    /// Opens `phase` under the current thread's innermost open span; see
    /// [`Recorder::phase_under`].
    #[inline]
    pub fn phase(&self, phase: Phase) -> PhaseGuard {
        self.phase_under(phase, None)
    }

    /// Opens `phase`: the one timing probe. With a tracer attached the
    /// guard opens a span named [`Phase::name`] under `parent` (falling
    /// back to the implicit rules; see [`crate::trace`]); with timing on it
    /// records into the phase histogram when it drops. Both read the same
    /// two clock samples. A detached recorder's guard is inert: no clock
    /// read, no `Arc` clone, no allocation.
    pub fn phase_under(&self, phase: Phase, parent: Option<SpanContext>) -> PhaseGuard {
        if !self.timing && self.tracer.is_none() {
            return PhaseGuard(None);
        }
        let start = Instant::now();
        PhaseGuard(Some(Box::new(OpenPhase {
            phase,
            registry: self.timing.then(|| Arc::clone(&self.registry)),
            span: match &self.tracer {
                Some(tracer) => tracer.open(phase.name(), parent, start),
                None => SpanGuard::noop(),
            },
            start,
        })))
    }

    /// Records an instant event into the tracer, parented to the current
    /// thread's innermost open span. A no-op without a tracer — not even
    /// the timestamp is read.
    pub fn event(&self, kind: &str, fields: &[(&str, EventValue)]) {
        if let Some(tracer) = &self.tracer {
            tracer.event(kind, fields);
        }
    }

    /// Opens an untimed span parented under the current thread's innermost
    /// open span (a root span when there is none). Inert when no tracer is
    /// attached: no clock read, no lock, no allocation.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.tracer {
            Some(tracer) => tracer.span(name),
            None => SpanGuard::noop(),
        }
    }

    /// The context a worker spawned *now* should parent under, or `None`
    /// when no tracer is attached / no span is open.
    #[inline]
    pub fn current_ctx(&self) -> Option<SpanContext> {
        self.tracer.as_ref().and_then(|t| t.current_context())
    }

    /// Marks a fatal condition: records a `fatal` event and dumps the
    /// tracer's newest records to its post-mortem file (see
    /// [`Tracer::dump`]). Returns the dump path when one was written.
    /// Callers invoke this on `VasError` fatal paths, contained worker
    /// panics included, *before* propagating the error.
    pub fn fatal(&self, reason: &str) -> Option<PathBuf> {
        let tracer = self.tracer.as_ref()?;
        tracer.event("fatal", &[("reason", reason.into())]);
        tracer.dump(reason)
    }
}

/// RAII guard returned by [`Recorder::phase`]/[`Recorder::phase_under`].
/// When it drops, it closes its span and records the elapsed wall-clock
/// time into the phase's total and latency histogram. It owns its handles,
/// so it can stay open across `&mut self` calls of the component that
/// opened it. An inert guard is one null pointer, so a detached probe adds
/// almost no code to the loop around it.
#[derive(Debug)]
pub struct PhaseGuard(Option<Box<OpenPhase>>);

#[derive(Debug)]
struct OpenPhase {
    phase: Phase,
    /// The registry to record into; `Some` only with timing on.
    registry: Option<Arc<MetricsRegistry>>,
    span: SpanGuard,
    start: Instant,
}

impl PhaseGuard {
    /// Attaches a key/value attribute to the phase's span (no-op without a
    /// tracer).
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(open) = &mut self.0 {
            open.span.attr(key, value);
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some(mut open) = self.0.take() else {
            return;
        };
        let end = Instant::now();
        if let Some(registry) = &open.registry {
            let ns = end.saturating_duration_since(open.start).as_nanos();
            registry.record_phase(open.phase, ns.min(u64::MAX as u128) as u64);
        }
        open.span.close_at(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_recorder_counts_but_never_times() {
        let rec = Recorder::detached();
        rec.inc(Counter::CoreAccepts, 1);
        {
            let g = rec.phase(Phase::Fill);
            assert!(g.0.is_none());
        }
        rec.event("checkpoint_write", &[]);
        let snap = rec.registry().snapshot();
        assert_eq!(snap.counter(Counter::CoreAccepts), 1);
        // Timing off: the phase guard recorded nothing.
        assert_eq!(snap.phase_calls(Phase::Fill), 0);
        assert!(rec.tracer().is_none());
    }

    #[test]
    fn timing_only_recorder_times_without_spans() {
        let registry = Arc::new(MetricsRegistry::new());
        let rec = Recorder::new(Arc::clone(&registry)).with_timing(true);
        {
            let g = rec.phase(Phase::ChunkDecode);
            assert!(!g.0.as_ref().unwrap().span.is_live());
            std::hint::black_box(0u64);
        }
        rec.event("retry", &[("attempt", 1u64.into())]);
        assert_eq!(registry.snapshot().phase_calls(Phase::ChunkDecode), 1);
    }

    #[test]
    fn detached_recorder_spans_are_inert() {
        let rec = Recorder::detached();
        let guard = rec.span("anything");
        assert!(!guard.is_live());
        assert!(rec.current_ctx().is_none());
        assert!(rec.fatal("nope").is_none());
    }

    #[test]
    fn one_phase_guard_feeds_the_span_and_the_histogram() {
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(Tracer::new());
        let rec = Recorder::new(Arc::clone(&registry))
            .with_timing(true)
            .with_tracer(Arc::clone(&tracer));
        {
            let root = rec.span("build");
            let ctx = rec.current_ctx();
            assert_eq!(ctx, root.context());
            let mut worker = rec.phase_under(Phase::WorkerTask, ctx);
            worker.attr("stripe_len", 4);
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.event("retry", &[("attempt", 1u64.into())]);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let worker = spans.iter().find(|s| s.name == "worker_task").unwrap();
        let build = spans.iter().find(|s| s.name == "build").unwrap();
        assert_eq!(worker.parent, Some(build.id));
        assert_eq!(worker.attrs, [("stripe_len".to_string(), "4".to_string())]);
        // The span and the histogram measured the same interval.
        let snap = registry.snapshot();
        assert_eq!(snap.phase_calls(Phase::WorkerTask), 1);
        assert_eq!(
            snap.phase_total_ns(Phase::WorkerTask) / 1_000,
            worker.dur_us
        );
        // The event parents under the worker's span, the innermost open one.
        assert_eq!(tracer.events()[0].parent, Some(worker.id));
    }

    #[test]
    fn fatal_records_an_event_and_dumps_the_ring() {
        let dir = std::env::temp_dir().join(format!("vas-obs-fatal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Arc::new(Tracer::new());
        tracer.set_dump_path(dir.join("postmortem.jsonl"));
        let rec = Recorder::detached().with_tracer(Arc::clone(&tracer));
        rec.event("retry", &[("attempt", 3u64.into())]);
        let path = rec
            .fatal("retries_exhausted")
            .expect("dump path configured");
        assert!(tracer.events().iter().any(|e| e.name == "fatal"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().next().unwrap().contains("retries_exhausted"));
        assert!(text.contains("\"retry\""), "ring content reaches the dump");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_share_the_registry() {
        let rec = Recorder::detached();
        let clone = rec.clone();
        clone.inc(Counter::StreamChunksDecoded, 2);
        assert_eq!(
            rec.registry().get(Counter::StreamChunksDecoded),
            2,
            "clone must record into the same registry"
        );
    }
}
