//! Shared observability-gate plumbing for the harness binaries.
//!
//! Every harness with an `--obs` mode (`fig10_inner_loop`, `geolife_scale`,
//! `shard_sweep`, `fault_matrix`) needs the same pieces, hoisted here: a
//! fully instrumented recorder bundle (registry with timing on + a tracer
//! that stores spans and events and owns the post-mortem dump), a JSON
//! summary section for the BENCH artifacts, a Chrome-trace export helper,
//! and the trace validator the CI trace-harness step runs against a
//! recorded build.

use serde::Value;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use vas_obs::{parse_chrome_trace, Counter, MetricsRegistry, Phase, Recorder, SpanRecord, Tracer};

/// A fully instrumented observability stack behind one [`Recorder`] handle:
/// typed counters + phase timers ([`MetricsRegistry`]) and the causal
/// layer ([`Tracer`]: spans, events and the post-mortem dump).
///
/// This is the maximal configuration — exactly what the overhead gates time
/// against [`Recorder::detached`].
#[derive(Debug)]
pub struct ObsBundle {
    /// Counter and phase-latency storage.
    pub registry: Arc<MetricsRegistry>,
    /// Span and event store, dumped post-mortem on a fatal path.
    pub tracer: Arc<Tracer>,
    /// The handle the stack records through.
    pub recorder: Recorder,
}

impl ObsBundle {
    /// Builds a fresh, fully instrumented bundle (timing on).
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(Tracer::new());
        let recorder = Recorder::new(Arc::clone(&registry))
            .with_timing(true)
            .with_tracer(Arc::clone(&tracer));
        Self {
            registry,
            tracer,
            recorder,
        }
    }

    /// Summarizes the bundle into a JSON object suitable for merging into a
    /// BENCH artifact: non-zero counters, per-phase latency rows, the event
    /// count (`journal_lines`, its historical key), and span totals
    /// (recorded + dropped).
    pub fn section_value(&self) -> Value {
        let snap = self.registry.snapshot();
        let counters: Vec<(String, Value)> = Counter::ALL
            .iter()
            .filter(|&&c| snap.counter(c) > 0)
            .map(|&c| (c.name().to_string(), Value::Number(snap.counter(c) as f64)))
            .collect();
        let phases: Vec<Value> = Phase::ALL
            .iter()
            .filter(|&&p| snap.phase_calls(p) > 0)
            .map(|&p| {
                Value::Object(vec![
                    ("phase".to_string(), Value::String(p.name().to_string())),
                    (
                        "calls".to_string(),
                        Value::Number(snap.phase_calls(p) as f64),
                    ),
                    (
                        "total_ms".to_string(),
                        Value::Number(snap.phase_total_ns(p) as f64 / 1e6),
                    ),
                    (
                        "p99_us".to_string(),
                        Value::Number(snap.phase_percentile(p, 0.99) as f64 / 1e3),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("phases".to_string(), Value::Array(phases)),
            (
                "journal_lines".to_string(),
                Value::Number(self.tracer.events().len() as f64),
            ),
            (
                "spans_recorded".to_string(),
                Value::Number(self.tracer.spans().len() as f64),
            ),
            (
                "spans_dropped".to_string(),
                Value::Number(self.tracer.dropped() as f64),
            ),
        ])
    }

    /// Writes the tracer's spans as Chrome-trace JSON (load in Perfetto or
    /// `chrome://tracing`) and returns the rendered text.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<String> {
        let text = self.tracer.to_chrome_trace();
        std::fs::write(path, &text)?;
        Ok(text)
    }
}

impl Default for ObsBundle {
    fn default() -> Self {
        Self::new()
    }
}

/// What [`validate_build_trace`] found in a recorded build trace.
#[derive(Debug, Clone)]
pub struct TraceCheck {
    /// Total spans parsed from the trace.
    pub spans: usize,
    /// `worker_task` spans (stripes of the vas-par fan-out core).
    pub worker_spans: usize,
    /// Distinct thread ids that recorded at least one span.
    pub threads: usize,
}

/// Validates a Chrome-trace JSON export of a traced build: it must parse,
/// contain at least one root span whose name starts with `build`, and every
/// `worker_task` span must reach a build root through its parent chain —
/// the causal-tree acceptance criterion. Returns a summary on success and a
/// human-readable reason on failure.
pub fn validate_build_trace(trace_json: &str) -> Result<TraceCheck, String> {
    let spans = parse_chrome_trace(trace_json)?;
    if spans.is_empty() {
        return Err("trace contains no spans".to_string());
    }
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let reaches_build_root = |start: &SpanRecord| -> bool {
        // Parent chains are short (build -> chunk/batch -> worker); 64 hops
        // only guards against a cyclic or corrupted trace.
        let mut span = start;
        for _ in 0..64 {
            if span.parent.is_none() {
                return span.name.starts_with("build");
            }
            match span.parent.and_then(|p| by_id.get(&p)) {
                Some(&i) => span = &spans[i],
                None => return false,
            }
        }
        false
    };
    if !spans
        .iter()
        .any(|s| s.parent.is_none() && s.name.starts_with("build"))
    {
        return Err("trace has no build root span".to_string());
    }
    let workers: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "worker_task").collect();
    if workers.is_empty() {
        return Err("trace has no worker_task spans".to_string());
    }
    for w in &workers {
        if w.parent.is_none() {
            return Err(format!("worker_task span {} has no parent", w.id));
        }
        if !reaches_build_root(w) {
            return Err(format!(
                "worker_task span {} does not reach a build root through its parent chain",
                w.id
            ));
        }
    }
    let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    Ok(TraceCheck {
        spans: spans.len(),
        worker_spans: workers.len(),
        threads: threads.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_records_through_every_layer() {
        let bundle = ObsBundle::new();
        bundle.recorder.inc(Counter::StreamChunksDecoded, 2);
        {
            let _span = bundle.recorder.span("build");
        }
        bundle.recorder.event("retry", &[]);
        let section = bundle.section_value();
        let counters = section.get("counters").unwrap();
        assert_eq!(
            counters.get("stream_chunks_decoded"),
            Some(&Value::Number(2.0))
        );
        assert_eq!(section.get("spans_recorded"), Some(&Value::Number(1.0)));
        assert_eq!(section.get("journal_lines"), Some(&Value::Number(1.0)));
    }

    #[test]
    fn validator_requires_parented_workers_under_a_build_root() {
        let bundle = ObsBundle::new();
        {
            let root = bundle.recorder.span("build_from_source");
            let ctx = root.context();
            let _worker = bundle.recorder.phase_under(Phase::WorkerTask, ctx);
        }
        let ok = validate_build_trace(&bundle.tracer.to_chrome_trace()).unwrap();
        assert_eq!(ok.spans, 2);
        assert_eq!(ok.worker_spans, 1);

        // An orphaned worker (its own root) must fail validation.
        let orphaned = ObsBundle::new();
        {
            let _root = orphaned.recorder.span("build");
        }
        {
            let _worker = orphaned.tracer.span_under("worker_task", None);
        }
        let err = validate_build_trace(&orphaned.tracer.to_chrome_trace()).unwrap_err();
        assert!(err.contains("worker_task"), "unexpected reason: {err}");
    }

    #[test]
    fn validator_rejects_empty_and_rootless_traces() {
        assert!(validate_build_trace("{\"traceEvents\":[]}").is_err());
        let bundle = ObsBundle::new();
        {
            let _span = bundle.recorder.span("not_a_build");
        }
        let err = validate_build_trace(&bundle.tracer.to_chrome_trace()).unwrap_err();
        assert!(err.contains("no build root"), "unexpected reason: {err}");
    }
}
