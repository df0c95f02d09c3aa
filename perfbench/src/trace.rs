//! Benchmark-side spans around the calls into each layer.
//!
//! Spans go to a `vas_obs::Tracer` of the benchmark's own (the program's
//! recorder is given none) and are reduced when the run ends: a span's
//! *self time* is its duration minus the part of it its child spans cover.
//! With one root span around the whole run, the self-times of all spans add
//! up to the root's duration, exactly, in whole microseconds; the root's
//! own self-time is the work no layer span covers (`unattributed_s`).
//!
//! An untraced run has no tracer: its guards are inert and read no clock.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use vas_obs::{SpanGuard, SpanRecord, Tracer};

/// Spans a traced run may record. A run records a few thousand per
/// operation; one that fills the buffer is an error, not a silent loss.
const CAPACITY: usize = 1 << 22;

/// Span recording for one run: a tracer when traced, nothing otherwise.
#[derive(Debug)]
pub struct Spans(Option<Arc<Tracer>>);

impl Spans {
    /// Records spans when `on`, and is inert otherwise.
    pub fn new(on: bool) -> Self {
        Self(on.then(|| Arc::new(Tracer::with_capacity(CAPACITY))))
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span named `name`, a child of the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.0 {
            Some(tracer) => tracer.span(name),
            None => SpanGuard::noop(),
        }
    }

    /// Every finished span; an error if any was dropped.
    pub fn records(&self) -> Result<Vec<SpanRecord>, String> {
        let Some(tracer) = &self.0 else {
            return Ok(Vec::new());
        };
        match tracer.dropped() {
            0 => Ok(tracer.spans()),
            n => Err(format!("{n} spans did not fit in the trace buffer")),
        }
    }
}

/// Total self-time in seconds per span name.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_us.entry(parent).or_default() += s.dur_us;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_us
            .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name.clone()).or_insert(0.0) += own as f64 * 1e-6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let t = Spans::new(true);
        {
            let _root = t.span("root");
            {
                let _a = t.span("a");
                let _b = t.span("b");
                std::hint::black_box((0..10_000).sum::<u64>());
            }
            let _a = t.span("a");
        }
        let spans = t.records().unwrap();
        let total: f64 = self_times(&spans).values().sum();
        let root = spans.iter().find(|s| s.name == "root").unwrap().dur_us as f64 * 1e-6;
        assert!((total - root).abs() < 1e-9, "{total} vs {root}");
        assert_eq!(spans.iter().filter(|s| s.name == "a").count(), 2);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let t = Spans::new(false);
        drop(t.span("x"));
        assert!(t.records().unwrap().is_empty());
    }
}
