//! Point-in-time metric captures and reset-aware delta arithmetic.

use crate::histogram::Histogram;
use crate::registry::{Counter, Phase, ValueSeries};

/// An immutable copy of every metric in a [`crate::MetricsRegistry`],
/// captured by [`crate::MetricsRegistry::snapshot`].
///
/// Snapshots subtract: [`MetricsSnapshot::delta`] yields the activity
/// between two captures, which is what a scrape-based exporter (Prometheus)
/// or a per-build report wants.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::COUNT],
    phase_ns: [u64; Phase::COUNT],
    phase_hist: [Histogram; Phase::COUNT],
    value_hist: [Histogram; ValueSeries::COUNT],
}

impl MetricsSnapshot {
    /// Assembles a snapshot from raw parts (registry and exporter-parse
    /// paths).
    pub fn from_parts(
        counters: [u64; Counter::COUNT],
        phase_ns: [u64; Phase::COUNT],
        phase_hist: [Histogram; Phase::COUNT],
        value_hist: [Histogram; ValueSeries::COUNT],
    ) -> Self {
        Self {
            counters,
            phase_ns,
            phase_hist,
            value_hist,
        }
    }

    /// An all-zero snapshot.
    pub fn empty() -> Self {
        Self {
            counters: [0; Counter::COUNT],
            phase_ns: [0; Phase::COUNT],
            phase_hist: std::array::from_fn(|_| Histogram::new()),
            value_hist: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Value of `counter` at capture time.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Total nanoseconds accumulated by `phase` at capture time.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Number of timed calls of `phase`.
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.phase_hist[phase as usize].count()
    }

    /// Per-call latency quantile for `phase` in nanoseconds (bucket upper
    /// bound; see [`Histogram::percentile`]).
    pub fn phase_percentile(&self, phase: Phase, q: f64) -> u64 {
        self.phase_hist[phase as usize].percentile(q)
    }

    /// The latency histogram of `phase`.
    pub fn phase_histogram(&self, phase: Phase) -> &Histogram {
        &self.phase_hist[phase as usize]
    }

    /// The distribution of `series`.
    pub fn value_histogram(&self, series: ValueSeries) -> &Histogram {
        &self.value_hist[series as usize]
    }

    /// The activity between `earlier` and `self` (both captured from the
    /// same registry, `earlier` first).
    ///
    /// Reset-aware, per metric: when a counter now reads *lower* than it
    /// did before, the metric was reset in between (e.g.
    /// `VasSampler::reset()` zeroing the per-build counters) and the delta
    /// is the current value wholesale — the Prometheus counter-reset
    /// convention; counters that survive resets keep plain subtraction.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counters = [0u64; Counter::COUNT];
        for (i, c) in counters.iter_mut().enumerate() {
            let (now, before) = (self.counters[i], earlier.counters[i]);
            *c = if now < before { now } else { now - before };
        }
        let mut phase_ns = [0u64; Phase::COUNT];
        for (i, n) in phase_ns.iter_mut().enumerate() {
            let (now, before) = (self.phase_ns[i], earlier.phase_ns[i]);
            *n = if now < before { now } else { now - before };
        }
        let phase_hist: [Histogram; Phase::COUNT] =
            std::array::from_fn(|i| self.phase_hist[i].delta(&earlier.phase_hist[i]));
        let value_hist: [Histogram; ValueSeries::COUNT] =
            std::array::from_fn(|i| self.value_hist[i].delta(&earlier.value_hist[i]));
        Self {
            counters,
            phase_ns,
            phase_hist,
            value_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn delta_subtracts_monotonic_counters() {
        let r = MetricsRegistry::new();
        r.inc(Counter::StreamRetriesAbsorbed, 2);
        let before = r.snapshot();
        r.inc(Counter::StreamRetriesAbsorbed, 3);
        r.record_phase(Phase::ChunkDecode, 500);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counter(Counter::StreamRetriesAbsorbed), 3);
        assert_eq!(d.phase_calls(Phase::ChunkDecode), 1);
        assert_eq!(d.phase_total_ns(Phase::ChunkDecode), 500);
        // Untouched metrics have a zero delta.
        assert_eq!(d.counter(Counter::CoreAccepts), 0);
        assert_eq!(d.phase_calls(Phase::Fill), 0);
    }

    #[test]
    fn delta_across_a_build_reset_subtracts_only_lifetime_counters() {
        let r = MetricsRegistry::new();
        r.inc(Counter::CoreKernelLanes, 100);
        r.inc(Counter::CoreCheckpointWrites, 1);
        let before = r.snapshot();
        // A new build starts: per-build counters reset, the lifetime
        // checkpoint counter survives.
        r.reset_build_counters();
        r.inc(Counter::CoreKernelLanes, 40);
        r.inc(Counter::CoreCheckpointWrites, 1);
        let after = r.snapshot();
        let d = after.delta(&before);
        // Reset detected: delta is the post-reset value wholesale.
        assert_eq!(d.counter(Counter::CoreKernelLanes), 40);
        // No reset: plain subtraction.
        assert_eq!(d.counter(Counter::CoreCheckpointWrites), 1);
    }

    #[test]
    fn empty_snapshot_is_the_delta_identity() {
        let r = MetricsRegistry::new();
        r.inc(Counter::CoreAccepts, 9);
        r.record_value(ValueSeries::GridOccupiedCells, 2);
        let s = r.snapshot();
        assert_eq!(s.delta(&MetricsSnapshot::empty()), s);
    }
}
