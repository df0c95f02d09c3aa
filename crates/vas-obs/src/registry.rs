//! The typed metric namespace and the lock-free [`MetricsRegistry`].
//!
//! Metrics are *typed*: every counter, timed phase and value series is an
//! enum variant, so a metric name typo is a compile error and the registry
//! is a handful of fixed-size atomic arrays — no maps, no locks, no
//! allocation on the record path.

use crate::histogram::{bucket_index, Histogram, HISTOGRAM_BUCKETS};
use crate::snapshot::MetricsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counters, one per variant.
///
/// Prefixes name the owning layer (`Core` = `vas-core` Interchange, `Stream`
/// = `vas-stream`, `Par` = `vas-par`, `Storage` = `vas-storage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Counter {
    /// Candidate tuples accepted (sample replacements) by Interchange.
    CoreAccepts,
    /// Candidate tuples rejected by Interchange.
    CoreRejects,
    /// Kernel-value lanes evaluated by the candidate path: every lane of a
    /// neighbourhood gather (ES+Loc) or of the dense sweep (plain ES), plus
    /// the lanes an ES+Loc neighbourhood-cache walk evaluated before it
    /// stopped. A lane counts once, whether only a bounded rejection filter
    /// or also the exact kernel evaluated it; lanes the cache walk never
    /// reached do not count.
    CoreKernelLanes,
    /// Candidates of the batched sequential ES+Loc path whose rejection the
    /// bounded-lane filter could not certify, so they ran the exact libm
    /// lanes: every accept plus the rare near-tie.
    CoreExactFallbacks,
    /// ES+Loc candidates rejected by a partial certificate from the
    /// neighbourhood cache's nearest rings, without a neighbourhood gather.
    CoreCacheCertifiedRejects,
    /// Checkpoints written by `run_checkpointed`.
    CoreCheckpointWrites,
    /// Builds resumed from a checkpoint.
    CoreCheckpointResumes,
    /// Chunks decoded from `.vaschunk` spills.
    StreamChunksDecoded,
    /// Chunk/header CRC mismatches detected.
    StreamCrcFailures,
    /// Transient source errors absorbed by `RetryingSource`.
    StreamRetriesAbsorbed,
    /// Retry budgets exhausted (fatal `RetriesExhausted` surfaced).
    StreamRetriesExhausted,
    /// Worker stripes executed by the `vas-par` ordered fan-out.
    ParTasksExecuted,
    /// Worker panics contained by the `vas-par` fan-out core.
    ParContainedPanics,
    /// Samples built into a `SampleCatalog`.
    StorageCatalogSamplesBuilt,
    /// Catalogs durably committed (manifest written last).
    StoragePersistCommits,
    /// Candidate tuples accepted across all shard workers of sharded
    /// builds. Lifetime tally (shard workers reset per-build counters when
    /// they finalize, so the per-build `Core` pair cannot carry this).
    CoreShardAccepts,
    /// Candidate tuples rejected across all shard workers of sharded
    /// builds. Lifetime tally, like [`Counter::CoreShardAccepts`].
    CoreShardRejects,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 17] = [
        Counter::CoreAccepts,
        Counter::CoreRejects,
        Counter::CoreKernelLanes,
        Counter::CoreExactFallbacks,
        Counter::CoreCacheCertifiedRejects,
        Counter::CoreCheckpointWrites,
        Counter::CoreCheckpointResumes,
        Counter::StreamChunksDecoded,
        Counter::StreamCrcFailures,
        Counter::StreamRetriesAbsorbed,
        Counter::StreamRetriesExhausted,
        Counter::ParTasksExecuted,
        Counter::ParContainedPanics,
        Counter::StorageCatalogSamplesBuilt,
        Counter::StoragePersistCommits,
        Counter::CoreShardAccepts,
        Counter::CoreShardRejects,
    ];

    /// Number of counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CoreAccepts => "core_accepts",
            Counter::CoreRejects => "core_rejects",
            Counter::CoreKernelLanes => "core_kernel_lanes",
            Counter::CoreExactFallbacks => "core_exact_fallbacks",
            Counter::CoreCacheCertifiedRejects => "core_cache_certified_rejects",
            Counter::CoreCheckpointWrites => "core_checkpoint_writes",
            Counter::CoreCheckpointResumes => "core_checkpoint_resumes",
            Counter::StreamChunksDecoded => "stream_chunks_decoded",
            Counter::StreamCrcFailures => "stream_crc_failures",
            Counter::StreamRetriesAbsorbed => "stream_retries_absorbed",
            Counter::StreamRetriesExhausted => "stream_retries_exhausted",
            Counter::ParTasksExecuted => "par_tasks_executed",
            Counter::ParContainedPanics => "par_contained_panics",
            Counter::StorageCatalogSamplesBuilt => "storage_catalog_samples_built",
            Counter::StoragePersistCommits => "storage_persist_commits",
            Counter::CoreShardAccepts => "core_shard_accepts",
            Counter::CoreShardRejects => "core_shard_rejects",
        }
    }

    /// Whether [`MetricsRegistry::reset_build_counters`] zeroes this
    /// counter.
    ///
    /// Mirrors `VasSampler::reset()`: per-build tallies (accepts, rejects,
    /// kernel lanes, exact fallbacks, cache-certified rejects) start over with each build, while the
    /// checkpoint counters and every non-core layer's counters survive. The shard aggregates (`CoreShardAccepts`/`CoreShardRejects`)
    /// also survive: shard workers share one registry and each worker's
    /// finalize resets the per-build pair, so the sharded path accumulates
    /// into these lifetime counters *after* each worker finishes.
    fn resets_with_build(self) -> bool {
        matches!(
            self,
            Counter::CoreAccepts
                | Counter::CoreRejects
                | Counter::CoreKernelLanes
                | Counter::CoreExactFallbacks
                | Counter::CoreCacheCertifiedRejects
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Timed phases. Each phase accumulates total wall-clock nanoseconds, a
/// call count, and a per-call latency [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Interchange fill phase (first K points streamed in).
    Fill,
    /// Candidate evaluation: the Expand/Shrink loop over one chunk's
    /// candidates, accepts included.
    CandidateEval,
    /// Accept churn: applying a replacement to sample + index + tracker.
    /// No path times it on its own, since the loop runs its accepts inside
    /// [`Phase::CandidateEval`]; `perfbench` still reports it (as zero).
    AcceptChurn,
    /// Decoding one chunk from a `.vaschunk` spill.
    ChunkDecode,
    /// One worker stripe of a `vas-par` ordered fan-out.
    WorkerTask,
    /// Building one per-K sample of a catalog.
    CatalogBuild,
    /// Durably persisting a catalog (chunks + sidecars + manifest).
    PersistSave,
    /// One shard worker consuming its sub-stream during a sharded build
    /// (observe + fill, up to the shard sample's finalize).
    ShardFill,
    /// The ordered merge pass reducing the shard-sample union to the final
    /// K-sample.
    ShardMerge,
}

impl Phase {
    /// Every phase, in export order.
    pub const ALL: [Phase; 9] = [
        Phase::Fill,
        Phase::CandidateEval,
        Phase::AcceptChurn,
        Phase::ChunkDecode,
        Phase::WorkerTask,
        Phase::CatalogBuild,
        Phase::PersistSave,
        Phase::ShardFill,
        Phase::ShardMerge,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Fill => "fill",
            Phase::CandidateEval => "candidate_eval",
            Phase::AcceptChurn => "accept_churn",
            Phase::ChunkDecode => "chunk_decode",
            Phase::WorkerTask => "worker_task",
            Phase::CatalogBuild => "catalog_build",
            Phase::PersistSave => "persist_save",
            Phase::ShardFill => "shard_fill",
            Phase::ShardMerge => "shard_merge",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Non-timing value distributions (dimensionless), each a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ValueSeries {
    /// Occupied-cell count of a sampler's `HashGrid` locality index,
    /// observed when its fill phase completes (the density-adaptive
    /// cell-sizing signal).
    GridOccupiedCells,
    /// Maximum points in any single occupied `HashGrid` cell, observed with
    /// [`ValueSeries::GridOccupiedCells`].
    GridMaxCellPoints,
}

impl ValueSeries {
    /// Every value series, in export order.
    pub const ALL: [ValueSeries; 2] = [
        ValueSeries::GridOccupiedCells,
        ValueSeries::GridMaxCellPoints,
    ];

    /// Number of value series.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            ValueSeries::GridOccupiedCells => "grid_occupied_cells",
            ValueSeries::GridMaxCellPoints => "grid_max_cell_points",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// An atomic fixed-bucket histogram (the registry-resident twin of
/// [`Histogram`]).
#[derive(Debug)]
struct AtomicHistogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty atomic histogram.
    pub const fn new() -> Self {
        Self {
            counts: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation of `value` (relaxed ordering; counters are
    /// statistics, not synchronization).
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copies the current contents into a plain [`Histogram`].
    pub fn load(&self) -> Histogram {
        let mut sparse = Vec::new();
        let mut total = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 {
                sparse.push((i, c));
                total += c;
            }
        }
        let sum = self.sum.load(Ordering::Relaxed);
        // Under concurrent recording the count cell can lag the bucket
        // cells (or vice versa); trust the bucket sum so the invariant
        // `Histogram::from_parts` checks always holds.
        Histogram::from_parts(&sparse, total, sum).expect("bucket indices in range")
    }
}

/// The process-wide (or component-private) metric store: one atomic cell
/// per [`Counter`], and per-[`Phase`]/[`ValueSeries`] totals + histograms.
///
/// All operations are lock-free relaxed atomics; the registry is shared
/// across threads behind an `Arc` by [`crate::Recorder`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    phase_ns: [AtomicU64; Phase::COUNT],
    phase_hist: [AtomicHistogram; Phase::COUNT],
    value_hist: [AtomicHistogram; ValueSeries::COUNT],
}

impl MetricsRegistry {
    /// Creates a registry with every metric at zero.
    pub fn new() -> Self {
        Self {
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            phase_ns: [const { AtomicU64::new(0) }; Phase::COUNT],
            phase_hist: [const { AtomicHistogram::new() }; Phase::COUNT],
            value_hist: [const { AtomicHistogram::new() }; ValueSeries::COUNT],
        }
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn inc(&self, counter: Counter, n: u64) {
        if n > 0 {
            self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Overwrites `counter` with `value`.
    ///
    /// Restore-only: counters are monotonic; the sole legitimate caller is
    /// checkpoint resume, which re-seeds the registry with the values the
    /// interrupted build had already accumulated.
    pub fn set(&self, counter: Counter, value: u64) {
        self.counters[counter.index()].store(value, Ordering::Relaxed);
    }

    /// Records one timed call of `phase` lasting `ns` nanoseconds.
    pub fn record_phase(&self, phase: Phase, ns: u64) {
        self.phase_ns[phase.index()].fetch_add(ns, Ordering::Relaxed);
        self.phase_hist[phase.index()].record(ns);
    }

    /// Records one observation into `series`.
    pub fn record_value(&self, series: ValueSeries, value: u64) {
        self.value_hist[series.index()].record(value);
    }

    /// Total nanoseconds accumulated by `phase`.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()].load(Ordering::Relaxed)
    }

    /// Zeroes the per-build counters: accepts, rejects, kernel lanes, exact
    /// fallbacks and cache-certified rejects. Everything else survives.
    /// Called by `VasSampler::reset()` so registry-backed getters keep the
    /// exact semantics the plain-field counters had.
    pub fn reset_build_counters(&self) {
        for c in Counter::ALL {
            if c.resets_with_build() {
                self.counters[c.index()].store(0, Ordering::Relaxed);
            }
        }
    }

    /// Captures an immutable copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = [0u64; Counter::COUNT];
        for c in Counter::ALL {
            counters[c.index()] = self.get(c);
        }
        let mut phase_ns = [0u64; Phase::COUNT];
        let phase_hist: [Histogram; Phase::COUNT] = std::array::from_fn(|i| {
            phase_ns[i] = self.phase_ns[i].load(Ordering::Relaxed);
            self.phase_hist[i].load()
        });
        let value_hist: [Histogram; ValueSeries::COUNT] =
            std::array::from_fn(|i| self.value_hist[i].load());
        MetricsSnapshot::from_parts(counters, phase_ns, phase_hist, value_hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_increment_and_read_back() {
        let r = MetricsRegistry::new();
        r.inc(Counter::CoreAccepts, 3);
        r.inc(Counter::CoreAccepts, 2);
        assert_eq!(r.get(Counter::CoreAccepts), 5);
        assert_eq!(r.get(Counter::CoreRejects), 0);
        r.set(Counter::CoreKernelLanes, 42);
        assert_eq!(r.get(Counter::CoreKernelLanes), 42);
    }

    #[test]
    fn build_reset_zeroes_only_the_per_build_counters() {
        let r = MetricsRegistry::new();
        for c in Counter::ALL {
            r.inc(c, 7);
        }
        r.reset_build_counters();
        assert_eq!(r.get(Counter::CoreAccepts), 0);
        assert_eq!(r.get(Counter::CoreRejects), 0);
        assert_eq!(r.get(Counter::CoreKernelLanes), 0);
        assert_eq!(r.get(Counter::CoreExactFallbacks), 0);
        assert_eq!(r.get(Counter::CoreCacheCertifiedRejects), 0);
        // Lifetime counters and every non-core layer survive, exactly like
        // the plain-field implementation did.
        assert_eq!(r.get(Counter::CoreCheckpointWrites), 7);
        assert_eq!(r.get(Counter::StreamRetriesAbsorbed), 7);
        assert_eq!(r.get(Counter::StoragePersistCommits), 7);
    }

    #[test]
    fn phases_accumulate_time_and_latency() {
        let r = MetricsRegistry::new();
        r.record_phase(Phase::ChunkDecode, 1_000);
        r.record_phase(Phase::ChunkDecode, 3_000);
        assert_eq!(r.phase_total_ns(Phase::ChunkDecode), 4_000);
        let snap = r.snapshot();
        assert_eq!(snap.phase_calls(Phase::ChunkDecode), 2);
        assert!(snap.phase_percentile(Phase::ChunkDecode, 0.5) >= 1_000);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Phase::ALL.iter().map(|p| p.name()));
        names.extend(ValueSeries::ALL.iter().map(|s| s.name()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn atomic_histogram_loads_to_plain() {
        let h = AtomicHistogram::new();
        h.record(10);
        h.record(20);
        let plain = h.load();
        assert_eq!(plain.count(), 2);
        assert_eq!(plain.sum(), 30);
    }
}
