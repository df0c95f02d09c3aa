//! Bounded retry for transient stream errors.
//!
//! [`RetryingSource`] wraps any [`PointSource`] and absorbs **transient**
//! I/O failures (`Interrupted` / `WouldBlock` / `TimedOut` — the shared
//! classification in [`crate::error`]) by retrying the failed call up to a
//! configured budget, with deterministic linear backoff. Fatal errors —
//! decode failures, checksum mismatches, permission errors — pass through
//! on the first occurrence: retrying cannot fix bytes that are wrong, and
//! hiding them would turn a hard corruption signal into a hang.
//!
//! The wrapper is transparent to the stream contract: a retried
//! `next_chunk` returns exactly the chunk the inner source would have
//! returned, so wrapping a source changes no sample bit — only whether an
//! injected `Interrupted` kills the build.

use crate::error::{io_error_is_transient, VasError};
use crate::source::PointSource;
use std::io;
use std::time::Duration;
use vas_data::{DatasetKind, Point};
use vas_obs::{Counter, Recorder};

/// Retry budget and backoff for [`RetryingSource`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum retries per failing call (initial attempt not counted); the
    /// call fails with [`VasError::RetriesExhausted`] after `1 + max_retries`
    /// transient errors.
    pub max_retries: u32,
    /// Backoff before retry *n* (1-based) is `n × backoff_step`. Zero (the
    /// test default) disables sleeping.
    pub backoff_step: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_step: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` and no backoff sleep (tests, benches).
    pub fn immediate(max_retries: u32) -> Self {
        Self {
            max_retries,
            backoff_step: Duration::ZERO,
        }
    }
}

/// A [`PointSource`] wrapper that retries transient errors per a
/// [`RetryPolicy`] and surfaces retry counters.
#[derive(Debug)]
pub struct RetryingSource<S> {
    inner: S,
    policy: RetryPolicy,
    recorder: Recorder,
}

impl<S: PointSource> RetryingSource<S> {
    /// Wraps `inner` with the given retry policy.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy,
            recorder: Recorder::detached(),
        }
    }

    /// Attaches a shared [`Recorder`]: absorbed/exhausted retries count
    /// into its registry (`stream_retries_absorbed` /
    /// `stream_retries_exhausted`) and each absorbed transient appends a
    /// `retry` event to its tracer.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Total transient errors absorbed (across all calls).
    ///
    /// Thin view over the metrics registry
    /// (`Counter::StreamRetriesAbsorbed`); kept for compatibility — new
    /// code should read the registry of the attached recorder directly.
    pub fn retries(&self) -> u64 {
        self.recorder.registry().get(Counter::StreamRetriesAbsorbed)
    }

    /// Unwraps the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn with_retries<T>(
        &mut self,
        context: &str,
        mut op: impl FnMut(&mut S) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op(&mut self.inner) {
                Ok(v) => return Ok(v),
                Err(e) if io_error_is_transient(&e) => {
                    if attempt >= self.policy.max_retries {
                        self.recorder.inc(Counter::StreamRetriesExhausted, 1);
                        self.recorder.event(
                            "retries_exhausted",
                            &[
                                ("context", context.into()),
                                ("attempts", u64::from(attempt + 1).into()),
                            ],
                        );
                        // Retry exhaustion is build-fatal: dump the
                        // tracer's recent records (if attached) so the
                        // post-mortem shows the absorbed retries that led
                        // here.
                        let _ = self.recorder.fatal("retries_exhausted");
                        return Err(VasError::RetriesExhausted {
                            context: format!("{context} on source {:?}", self.inner.name()),
                            attempts: attempt + 1,
                            source: e,
                        }
                        .into());
                    }
                    attempt += 1;
                    self.recorder.inc(Counter::StreamRetriesAbsorbed, 1);
                    self.recorder.event(
                        "retry",
                        &[
                            ("context", context.into()),
                            ("attempt", u64::from(attempt).into()),
                        ],
                    );
                    // The span covers the backoff sleep, so a traced
                    // timeline shows the retry penalty as an interval.
                    let mut span = self.recorder.span("retry");
                    span.attr("context", context);
                    span.attr("attempt", attempt);
                    if !self.policy.backoff_step.is_zero() {
                        std::thread::sleep(self.policy.backoff_step * attempt);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl<S: PointSource> PointSource for RetryingSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> DatasetKind {
        self.inner.kind()
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn chunk_capacity(&self) -> usize {
        self.inner.chunk_capacity()
    }

    fn next_chunk(&mut self, buf: &mut Vec<Point>) -> io::Result<usize> {
        self.with_retries("next_chunk", |s| s.next_chunk(buf))
    }

    fn reset(&mut self) -> io::Result<()> {
        self.with_retries("reset", |s| s.reset())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjectorSource, FaultPlan};
    use crate::source::DatasetSource;

    #[test]
    fn absorbs_transient_faults_bit_identically() {
        let d = vas_data::GeolifeGenerator::with_size(3_000, 5).generate();
        let clean: Vec<Point> = d.points.clone();

        let faulty = FaultInjectorSource::new(
            DatasetSource::with_chunk_size(&d, 256),
            FaultPlan::transient(7, 2, 2),
        );
        let mut src = RetryingSource::new(faulty, RetryPolicy::immediate(3));
        let streamed = src.read_all().unwrap();
        assert_eq!(streamed.len(), clean.len());
        for (i, (a, b)) in streamed.iter().zip(&clean).enumerate() {
            assert!(
                a.x.to_bits() == b.x.to_bits()
                    && a.y.to_bits() == b.y.to_bits()
                    && a.value.to_bits() == b.value.to_bits(),
                "point {i} differs"
            );
        }
        assert!(src.retries() > 0, "faults were scheduled");
        assert_eq!(
            src.recorder.registry().get(Counter::StreamRetriesExhausted),
            0
        );

        // A second scan hits the same schedule and recovers again.
        PointSource::reset(&mut src).unwrap();
        let again = src.read_all().unwrap();
        assert_eq!(again.len(), clean.len());
    }

    #[test]
    fn attached_recorder_records_each_absorbed_retry() {
        use std::sync::Arc;
        let d = vas_data::GeolifeGenerator::with_size(3_000, 5).generate();
        let faulty = FaultInjectorSource::new(
            DatasetSource::with_chunk_size(&d, 256),
            FaultPlan::transient(7, 2, 2),
        );
        let tracer = Arc::new(vas_obs::Tracer::new());
        let recorder = Recorder::new(Arc::new(vas_obs::MetricsRegistry::new()))
            .with_tracer(Arc::clone(&tracer));
        let mut src =
            RetryingSource::new(faulty, RetryPolicy::immediate(3)).with_recorder(recorder.clone());
        src.read_all().unwrap();
        let absorbed = recorder.registry().get(Counter::StreamRetriesAbsorbed);
        assert!(absorbed > 0);
        assert_eq!(src.retries(), absorbed, "getter is a thin registry view");
        let retry_events = tracer.events().iter().filter(|e| e.name == "retry").count();
        assert_eq!(retry_events as u64, absorbed);
    }

    #[test]
    fn budget_exhaustion_is_a_typed_error() {
        let d = vas_data::GeolifeGenerator::with_size(500, 5).generate();
        // Every chunk fails 5 times; a budget of 2 retries cannot get through.
        let faulty = FaultInjectorSource::new(
            DatasetSource::with_chunk_size(&d, 100),
            FaultPlan::transient(1, 1, 5),
        );
        let mut src = RetryingSource::new(faulty, RetryPolicy::immediate(2));
        let mut buf = Vec::new();
        let err = PointSource::next_chunk(&mut src, &mut buf).unwrap_err();
        let typed = VasError::from_io_chain(&err).expect("typed error in chain");
        assert!(
            matches!(typed, VasError::RetriesExhausted { attempts: 3, .. }),
            "{typed}"
        );
        assert_eq!(
            src.recorder.registry().get(Counter::StreamRetriesExhausted),
            1
        );
    }

    #[test]
    fn fatal_errors_pass_through_without_retry() {
        let d = vas_data::GeolifeGenerator::with_size(500, 5).generate();
        let faulty = FaultInjectorSource::new(
            DatasetSource::with_chunk_size(&d, 100),
            FaultPlan::fatal_after(1),
        );
        let mut src = RetryingSource::new(faulty, RetryPolicy::immediate(10));
        let mut buf = Vec::new();
        assert!(PointSource::next_chunk(&mut src, &mut buf).is_ok());
        let err = PointSource::next_chunk(&mut src, &mut buf).unwrap_err();
        assert!(err.to_string().contains("injected fatal fault"), "{err}");
        assert_eq!(src.retries(), 0, "fatal errors must not consume retries");
        assert_eq!(src.into_inner().fatal_injected(), 1, "exactly one attempt");
    }
}
