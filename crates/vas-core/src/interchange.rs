//! The Interchange algorithm (Algorithm 1 of the paper) and the
//! [`VasSampler`] built on top of it.
//!
//! Interchange is a hill-climbing solver for the VAS optimization problem:
//! it starts from the first `K` points of the stream and, for every further
//! data point, performs a *valid replacement* — swapping the new point into
//! the sample whenever doing so decreases the objective
//! `Σ_{i<j} κ̃(s_i, s_j)`. Only tuples outside the sample are candidates
//! (`t ∈ D∖S`): a tuple whose `(x, y, value)` bits a slot already holds is
//! never admitted, at fill or at replacement. A build scans the data at most
//! [`VasConfig::passes`] times and stops after the first whole pass that
//! neither filled a slot nor made a replacement: Interchange's fixpoint,
//! which no later pass can leave.
//!
//! The replacement test is implemented with the paper's Expand/Shrink trick:
//! the *responsibility* of every sample element is maintained incrementally,
//! the candidate is (conceptually) added to form a set of size `K+1`, and the
//! element with the largest responsibility in the expanded set is dropped.
//! Theorem 2 shows this performs exactly the valid replacements.
//!
//! Three strategies reproduce the ablation of Figure 10:
//!
//! * [`InterchangeStrategy::Naive`] — "No ES": responsibilities are recomputed
//!   from scratch for every candidate (`O(K²)` kernel evaluations per tuple).
//! * [`InterchangeStrategy::ExpandShrink`] — "ES": incremental
//!   responsibilities, `O(K)` kernel evaluations per tuple.
//! * [`InterchangeStrategy::ExpandShrinkLocality`] — "ES+Loc": a spatial
//!   index over the current sample restricts kernel evaluations to the
//!   candidate's neighbourhood, exploiting the locality of the proximity
//!   function.
//!
//! The locality strategy keeps the sample in a [`HashGrid`]: cutoff-sized
//! spatial-hash cells, where the paper uses an R-tree. Any exact range index
//! gives the same sample; the grid is the faster one on this fixed-radius
//! churn workload.
//!
//! Most ES+Loc candidates are rejected, and a rejection only needs a
//! *certificate*: cheap bounded kernel lanes proving that the exact Shrink
//! step would keep the sample (see `Certificate`). The certificate may
//! be **partial**. The candidate's own responsibility contains every lane,
//! so once the lanes visited so far sum past the tracked maximum, each
//! unvisited lane raises its neighbour by no more than it raises the
//! candidate, and the rest of the neighbourhood is never touched. A
//! neighbourhood cache (the private `neighbourhood` module) exploits that on
//! trip-ordered streams: a run of nearby candidates shares one gather,
//! filed into distance rings around the first of them, and each candidate
//! walks the rings nearest-first until the certificate holds. Soundness
//! depends neither on the ring radii nor on the grid's cell size, only on
//! the visited lanes being lanes of the exact fold. Whatever the cache
//! cannot certify runs the gather and the exact path, so every stored value
//! and every sample bit is the same as without it. An accept whose removed
//! slot lies close to the cache's centre takes that slot's neighbourhood
//! from the cache as well: the same lanes as a gather, each subtracted from
//! its own slot, so no order-dependent fold sees them.
//!
//! One build is one sequential hill climb on the calling thread: every
//! accept changes the responsibilities the next candidate is tested
//! against. Parallelism lives across samplers instead, in the sharded
//! build ([`crate::shard`]), where each shard is an independent climb.
//!
//! Every build runs one pass loop over a [`PointSource`]. The four entry
//! points are thin shapes over it: [`VasSampler::build`] (an in-memory
//! dataset as one chunk), [`VasSampler::build_from_source`],
//! [`VasSampler::build_from_source_checkpointed`] (crash checkpoints and a
//! kill switch) and [`VasSampler::resume_build_from_source`] (the same loop,
//! restored from a checkpoint mid-pass).

use crate::checkpoint::{self, BuildOutcome, CheckpointPolicy};
use crate::kernel::{GaussianKernel, Kernel, BOUNDED_LANE_DELTA};
use crate::max_tracker::MaxTracker;
use crate::neighbourhood::NeighbourhoodCache;
use crate::objective::objective;
use std::ops::ControlFlow;
use std::path::Path;
use std::time::{Duration, Instant};
use vas_data::{Dataset, Point};
use vas_obs::{Counter, Phase, Recorder, ValueSeries};
use vas_sampling::{Sample, Sampler};
use vas_spatial::snapshot::{self as snap, SnapshotReader};
use vas_spatial::{HashGrid, NeighborBatch};
use vas_stream::{write_atomic, DatasetSource, PointSource, VasError};

/// Which inner-loop implementation the Interchange algorithm uses.
///
/// All strategies implement the same hill-climbing rule; `Naive` and
/// `ExpandShrink` produce bit-identical samples, while
/// `ExpandShrinkLocality` may differ negligibly because kernel values below
/// the locality threshold are treated as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterchangeStrategy {
    /// Recompute responsibilities from scratch for every candidate ("No ES").
    Naive,
    /// Incrementally maintained responsibilities ("ES").
    ExpandShrink,
    /// Incremental responsibilities plus spatial-index neighbourhood pruning
    /// ("ES+Loc").
    ExpandShrinkLocality,
}

impl InterchangeStrategy {
    /// Label used in experiment output ("No ES", "ES", "ES+Loc").
    pub fn label(&self) -> &'static str {
        match self {
            InterchangeStrategy::Naive => "No ES",
            InterchangeStrategy::ExpandShrink => "ES",
            InterchangeStrategy::ExpandShrinkLocality => "ES+Loc",
        }
    }
}

/// Configuration of the [`VasSampler`].
#[derive(Debug, Clone)]
pub struct VasConfig {
    /// Sample-size budget `K`.
    pub k: usize,
    /// Inner-loop strategy (default: `ExpandShrinkLocality`).
    pub strategy: InterchangeStrategy,
    /// Kernel bandwidth ε. `None` selects the paper's rule
    /// (dataset extent diagonal / 100) from the data itself.
    pub epsilon: Option<f64>,
    /// Kernel values below this threshold are treated as zero by the locality
    /// strategy (the paper's example threshold is ≈1e-7).
    pub locality_threshold: f64,
    /// The most passes over the data a build makes. A build stops earlier,
    /// after the first whole pass that neither filled a slot nor made a
    /// replacement, since no later pass could change the sample. (The
    /// streaming [`Sampler`] interface always performs a single pass.)
    pub passes: usize,
    /// Emit a [`ProgressEvent`] every this many observed tuples
    /// (0 disables progress reporting).
    pub progress_every: u64,
}

impl VasConfig {
    /// Default configuration for a sample of size `k`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            strategy: InterchangeStrategy::ExpandShrinkLocality,
            epsilon: None,
            locality_threshold: 1e-6,
            passes: 1,
            progress_every: 0,
        }
    }

    /// Sets the inner-loop strategy.
    pub fn with_strategy(mut self, strategy: InterchangeStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Fixes the kernel bandwidth ε explicitly.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Sets the pass cap (see [`passes`](Self::passes)).
    pub fn with_passes(mut self, passes: usize) -> Self {
        self.passes = passes.max(1);
        self
    }

    /// Sets the progress reporting interval (in observed tuples).
    pub fn with_progress_every(mut self, every: u64) -> Self {
        self.progress_every = every;
        self
    }
}

/// A snapshot of Interchange progress, reported periodically while scanning.
///
/// The Figure 9 experiment ("processing time vs quality") is generated by
/// recording these events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressEvent {
    /// Number of tuples observed so far (across all passes).
    pub tuples_processed: u64,
    /// Number of valid replacements performed so far.
    pub replacements: u64,
    /// Current value of the optimization objective `Σ_{i<j} κ̃(s_i, s_j)`.
    /// For the locality strategy this is exact up to the ignored kernel tails.
    pub objective: f64,
    /// Wall-clock time since the sampler was created (or last reset).
    pub elapsed: Duration,
}

/// Callback receiving [`ProgressEvent`]s.
pub type ProgressSink = Box<dyn FnMut(ProgressEvent) + Send>;

/// The VAS sampler: Interchange over a stream of points.
///
/// The locality strategy keeps the sample in a [`HashGrid`].
pub struct VasSampler {
    config: VasConfig,
    kernel: Option<GaussianKernel>,
    /// Locality cutoff radius (cached; `cutoff2` is its square). Both are
    /// derived once per kernel install so the hot loop never calls `sqrt`.
    cutoff: f64,
    cutoff2: f64,
    /// Current sample, slot-indexed; slots are stable across replacements.
    points: Vec<Point>,
    /// Responsibilities without the ½ factor: `rsp[i] = Σ_{j≠i} κ̃(s_i, s_j)`.
    rsp: Vec<f64>,
    /// Spatial index over the sample (ids are slot indices); only maintained
    /// by the locality strategy.
    index: HashGrid,
    /// Block-max tracker over `rsp`, giving the Shrink step its maximum in
    /// `O(1)`; only maintained by the locality strategy.
    max_tracker: MaxTracker,
    /// Whether `max_tracker` currently tracks `rsp`. Cleared by every path
    /// that mutates `rsp` without marking the tracker (fill, plain ES,
    /// naive rebuilds) and restored lazily on the next candidate.
    tracker_fresh: bool,
    /// Reusable SoA gather scratch for the per-candidate neighbourhood query
    /// (`ids` lane-parallel to `dist2`), so the steady-state replacement test
    /// performs no allocation.
    gather: NeighborBatch,
    /// Reusable buffer of per-candidate kernel values, lane-parallel to
    /// `gather.ids()` (the other half of the SoA delta representation).
    scratch_vals: Vec<f64>,
    /// Plain ES's dense squared-distance lanes, one per sample slot in slot
    /// order (reused across candidates).
    dense_dist2: Vec<f64>,
    /// The accept step's gather and kernel-value scratch for the removed
    /// point's neighbourhood, the same SoA pair as `gather`/`scratch_vals`.
    removal: (NeighborBatch, Vec<f64>),
    /// ES+Loc's neighbourhood cache: the sample entries around a recent
    /// candidate, in distance rings, from which runs of nearby candidates
    /// certify their rejections without a gather. Derived state, never
    /// checkpointed.
    cache: NeighbourhoodCache,
    /// Running objective value (½ of the responsibility sum, maintained
    /// incrementally).
    objective: f64,
    seen: u64,
    replacements: u64,
    /// Metrics/trace sink ([`Recorder::detached`] by default): kernel
    /// lanes, accepts/rejects and checkpoint events live in its registry
    /// rather than in dedicated fields. Strictly off the data path —
    /// nothing it measures feeds back into sampled state.
    recorder: Recorder,
    progress: Option<ProgressSink>,
    started: Instant,
}

impl std::fmt::Debug for VasSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VasSampler")
            .field("config", &self.config)
            .field("sample_len", &self.points.len())
            .field("seen", &self.seen)
            .field("replacements", &self.replacements)
            .field("objective", &self.objective)
            .finish()
    }
}

/// The rounding drift a resume accepts between a restored responsibility
/// and its recompute from the restored points, absolute. ES+Loc adds its
/// truncation drift (see `VasSampler::restore`).
const RSP_DRIFT: f64 = 1e-6;

/// The rounding drift a resume accepts between a restored objective and its
/// recompute, relative.
const OBJECTIVE_DRIFT: f64 = 1e-9;

/// Tag values for [`InterchangeStrategy`] in the checkpoint payload.
fn strategy_tag(strategy: InterchangeStrategy) -> u8 {
    match strategy {
        InterchangeStrategy::Naive => 0,
        InterchangeStrategy::ExpandShrink => 1,
        InterchangeStrategy::ExpandShrinkLocality => 2,
    }
}

fn strategy_from_tag(tag: u8) -> Result<InterchangeStrategy, VasError> {
    match tag {
        0 => Ok(InterchangeStrategy::Naive),
        1 => Ok(InterchangeStrategy::ExpandShrink),
        2 => Ok(InterchangeStrategy::ExpandShrinkLocality),
        other => Err(VasError::Checkpoint {
            detail: format!("unknown strategy tag {other}"),
        }),
    }
}

/// A resume precondition that must match between the checkpoint and the
/// caller's configuration/source.
fn require_match<T: PartialEq + std::fmt::Debug>(
    what: &str,
    expected: T,
    found: T,
) -> Result<(), VasError> {
    if expected == found {
        Ok(())
    } else {
        Err(VasError::Mismatch {
            expected: format!("{what} {expected:?}"),
            found: format!("{found:?}"),
        })
    }
}

impl VasSampler {
    /// Creates a sampler for `config`. If `config.epsilon` is `None`, a
    /// build resolves the bandwidth from a bounds scan of its source, and
    /// the streaming [`Sampler`] interface from the extent of the first `K`
    /// buffered points.
    pub fn new(config: VasConfig) -> Self {
        let kernel = config.epsilon.map(GaussianKernel::new);
        let mut sampler = Self {
            cutoff: f64::INFINITY,
            cutoff2: f64::INFINITY,
            kernel: None,
            points: Vec::new(),
            rsp: Vec::new(),
            index: HashGrid::new(),
            max_tracker: MaxTracker::new(),
            tracker_fresh: false,
            gather: NeighborBatch::new(),
            scratch_vals: Vec::new(),
            dense_dist2: Vec::new(),
            removal: Default::default(),
            cache: NeighbourhoodCache::default(),
            objective: 0.0,
            seen: 0,
            replacements: 0,
            recorder: Recorder::detached(),
            progress: None,
            started: Instant::now(),
            config,
        };
        if let Some(k) = kernel {
            sampler.install_kernel(k);
        }
        sampler
    }

    /// Creates a sampler whose bandwidth (if not fixed in the config) follows
    /// the paper's rule applied to `dataset`: ε = extent diagonal / 100.
    pub fn from_dataset(dataset: &Dataset, config: VasConfig) -> Self {
        let mut sampler = Self::new(config);
        if sampler.kernel.is_none() {
            sampler.install_kernel(GaussianKernel::for_dataset(dataset));
        }
        sampler
    }

    /// Registers a progress callback (see [`VasConfig::progress_every`]).
    pub fn set_progress_sink(&mut self, sink: ProgressSink) {
        self.progress = Some(sink);
    }

    /// Attaches a shared [`Recorder`]: kernel lanes, accepts/rejects and
    /// checkpoint events count into its registry; phase timings, spans and
    /// events flow to it when enabled. Note that
    /// [`finalize`](Sampler::finalize) resets the registry's
    /// build-scoped counters (accepts, rejects, kernel lanes), so a
    /// registry shared across *concurrent* builds will see those views
    /// interleave — lifetime counters are unaffected.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached [`Recorder`] ([`Recorder::detached`] unless one was
    /// installed).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The resolved kernel, if the bandwidth has been determined yet.
    pub fn kernel(&self) -> Option<&GaussianKernel> {
        self.kernel.as_ref()
    }

    /// Number of valid replacements performed so far.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Current value of the optimization objective.
    pub fn current_objective(&self) -> f64 {
        self.objective
    }

    /// Current sample contents (slot order).
    pub fn current_sample(&self) -> &[Point] {
        &self.points
    }

    /// Current responsibilities, lane-parallel to
    /// [`current_sample`](Self::current_sample): `Σ_{j≠i} κ̃(s_i, s_j)` over
    /// the pairs the strategy evaluates, maintained incrementally.
    pub fn current_responsibilities(&self) -> &[f64] {
        &self.rsp
    }

    /// Runs Interchange over `dataset`, at most
    /// [`passes`](VasConfig::passes) times, and returns the final sample.
    /// Later passes keep improving the same sample, as the paper does when
    /// more processing time is available, until one changes nothing. The
    /// dataset streams through the same pass loop as
    /// [`build_from_source`](Self::build_from_source), as one chunk.
    pub fn build(&mut self, dataset: &Dataset) -> Sample {
        let mut source = DatasetSource::with_chunk_size(dataset, dataset.len().max(1));
        self.drive("build", &mut source, None, (0, 0))
            .ok()
            .and_then(BuildOutcome::into_sample)
            .expect("an in-memory build without a kill switch completes")
    }

    /// Streaming counterpart of [`build`](Self::build): runs Interchange
    /// over any [`PointSource`], holding at most the sample (`K` slots)
    /// plus one source chunk in memory.
    ///
    /// If no bandwidth was fixed, a one-pass bounds scan over the source
    /// resolves ε by the paper's rule first — folding the extent in stream
    /// order, so the resolved kernel is **bit-identical** to the one
    /// [`from_dataset`](Self::from_dataset) derives from the materialized
    /// dataset. Because the source contract guarantees a stable point order
    /// across `reset`s, the whole run is then bit-identical to `build` over
    /// the equivalent in-memory dataset (pinned in `tests/determinism.rs`).
    ///
    /// Errors from the underlying source (I/O, malformed rows) abort the
    /// build and surface as a typed [`VasError`] (corruption, truncation and
    /// retry exhaustion stay distinguishable); the sampler is left
    /// mid-stream and should be discarded or finalized.
    pub fn build_from_source<S: PointSource>(
        &mut self,
        source: &mut S,
    ) -> Result<Sample, VasError> {
        let outcome = self.drive("build_from_source", source, None, (0, 0))?;
        Ok(outcome
            .into_sample()
            .expect("a build without a kill switch completes"))
    }

    /// [`build_from_source`](Self::build_from_source) with periodic crash
    /// checkpoints per `policy`, from the beginning of the stream.
    ///
    /// Returns [`BuildOutcome::Complete`] with the final sample, or — only
    /// when the policy's deterministic kill switch is armed —
    /// [`BuildOutcome::Halted`], from which
    /// [`resume_build_from_source`](Self::resume_build_from_source) continues
    /// bit-identically.
    pub fn build_from_source_checkpointed<S: PointSource>(
        &mut self,
        source: &mut S,
        policy: &CheckpointPolicy,
    ) -> Result<BuildOutcome, VasError> {
        self.drive("build_checkpointed", source, Some(policy), (0, 0))
    }

    /// Resumes a checkpointed build: restores the sampler from
    /// `policy.path` with `recorder` attached, verifies the checkpoint
    /// belongs to (`config`, `source`) — budget, strategy, threshold, pass
    /// cap, ε if fixed, source name and chunk capacity —
    /// skips the chunks already consumed and streams the rest, producing a
    /// final sample **bit-identical** to the uninterrupted run.
    ///
    /// The checkpointed kernel-lane total is restored into the recorder's
    /// registry, `core_checkpoint_resumes` is counted and a
    /// `checkpoint_resume` event is recorded.
    pub fn resume_build_from_source<S: PointSource>(
        config: VasConfig,
        source: &mut S,
        policy: &CheckpointPolicy,
        recorder: Recorder,
    ) -> Result<(Self, BuildOutcome), VasError> {
        let (mut sampler, pass, chunks, source_name, chunk_capacity) =
            Self::restore(&policy.path, config, recorder)?;
        require_match("source name", source_name.as_str(), source.name())?;
        require_match(
            "source chunk capacity",
            chunk_capacity,
            source.chunk_capacity() as u64,
        )?;
        let outcome = sampler.drive("build_checkpointed", source, Some(policy), (pass, chunks))?;
        Ok((sampler, outcome))
    }

    /// The one pass loop every build runs, under a root span named
    /// `root_name`: resolves ε if it is not fixed, then makes at most
    /// `config.passes` passes over `source`, starting `start_chunks` chunks
    /// into pass `start_pass` (non-zero only on a resume), and stops after a
    /// whole pass that neither filled a slot nor made a replacement. With a `policy` it checkpoints
    /// every `policy.every_chunks` chunks of a pass and honours the
    /// deterministic kill switch.
    fn drive<S: PointSource>(
        &mut self,
        root_name: &'static str,
        source: &mut S,
        policy: Option<&CheckpointPolicy>,
        (start_pass, start_chunks): (u64, u64),
    ) -> Result<BuildOutcome, VasError> {
        let mut root = self.recorder.span(root_name);
        if let Some(n) = source.len_hint() {
            root.attr("n", n);
        }
        root.attr("k", self.config.k);
        root.attr("passes", self.config.passes.max(1));
        root.attr("start_pass", start_pass);
        root.attr("start_chunks", start_chunks);
        if self.kernel.is_none() {
            source.reset().map_err(|e| self.fatal(e))?;
            let stats = vas_stream::scan_stats(source).map_err(|e| self.fatal(e))?;
            self.install_kernel(GaussianKernel::for_bounds(&stats.bounds));
        }
        let source_name = source.name().to_string();
        let chunk_capacity = source.chunk_capacity() as u64;
        let mut buf = Vec::new();
        let mut observed = 0u64;
        for pass in start_pass..self.config.passes.max(1) as u64 {
            source.reset().map_err(|e| self.fatal(e))?;
            let skip = if pass == start_pass { start_chunks } else { 0 };
            let before = (self.points.len(), self.replacements);
            let mut chunk_index = 0u64;
            while source.next_chunk(&mut buf).map_err(|e| self.fatal(e))? > 0 {
                chunk_index += 1;
                if chunk_index <= skip {
                    continue;
                }
                self.observe_chunk(&buf);
                let Some(policy) = policy else { continue };
                observed += 1;
                if policy.every_chunks > 0 && chunk_index.is_multiple_of(policy.every_chunks) {
                    self.write_checkpoint(
                        &policy.path,
                        pass,
                        chunk_index,
                        &source_name,
                        chunk_capacity,
                    )?;
                    self.recorder.inc(Counter::CoreCheckpointWrites, 1);
                    self.recorder.event(
                        "checkpoint_write",
                        &[
                            ("pass", pass.into()),
                            ("chunk_index", chunk_index.into()),
                            ("points", (self.points.len() as u64).into()),
                        ],
                    );
                }
                if policy.halt_after_chunks == Some(observed) {
                    return Ok(BuildOutcome::Halted {
                        pass,
                        chunks_consumed: chunk_index,
                    });
                }
            }
            if chunk_index < skip {
                return Err(self.fatal(VasError::Mismatch {
                    expected: format!("at least {skip} chunks in source {source_name:?}"),
                    found: format!("{chunk_index} chunks"),
                }));
            }
            // The fixpoint: this pass started and ended in the same state,
            // so every later pass would too. A resumed pass saw only part of
            // the data and proves nothing.
            if skip == 0 && (self.points.len(), self.replacements) == before {
                break;
            }
        }
        Ok(BuildOutcome::Complete(self.finalize()))
    }

    /// Marks a build-fatal error on the observability side — records a
    /// `fatal` event and dumps the tracer's newest records to its
    /// post-mortem file, if one is attached — then hands the error back.
    /// Purely observational: the error value and the sampler state are
    /// untouched.
    fn fatal(&self, err: impl Into<VasError>) -> VasError {
        let err = err.into();
        let _ = self.recorder.fatal(&err.to_string());
        err
    }

    /// Atomically persists a checkpoint of the sampler at the given stream
    /// position: the file at `path` is replaced via temp + fsync + rename,
    /// so a crash mid-write leaves the previous checkpoint intact. The
    /// payload is everything the sample bits depend on (see
    /// [`crate::checkpoint`]); the container adds magic, version and CRC.
    fn write_checkpoint(
        &self,
        path: &Path,
        pass: u64,
        chunks_consumed: u64,
        source_name: &str,
        chunk_capacity: u64,
    ) -> Result<(), VasError> {
        let kernel = self.kernel.as_ref().ok_or(VasError::Checkpoint {
            detail: "cannot checkpoint before the kernel bandwidth is resolved".into(),
        })?;
        let mut out = Vec::new();
        snap::put_u64(&mut out, self.config.k as u64);
        snap::put_u8(&mut out, strategy_tag(self.config.strategy));
        snap::put_f64(&mut out, self.config.locality_threshold);
        snap::put_u64(&mut out, self.config.passes.max(1) as u64);
        snap::put_f64(&mut out, kernel.epsilon());
        snap::put_usize(&mut out, source_name.len());
        out.extend_from_slice(source_name.as_bytes());
        snap::put_u64(&mut out, chunk_capacity);
        snap::put_u64(&mut out, pass);
        snap::put_u64(&mut out, chunks_consumed);
        snap::put_usize(&mut out, self.points.len());
        for p in &self.points {
            snap::put_f64(&mut out, p.x);
            snap::put_f64(&mut out, p.y);
            snap::put_f64(&mut out, p.value);
        }
        snap::put_usize(&mut out, self.rsp.len());
        for &r in &self.rsp {
            snap::put_f64(&mut out, r);
        }
        snap::put_f64(&mut out, self.objective);
        snap::put_u64(&mut out, self.seen);
        snap::put_u64(&mut out, self.replacements);
        snap::put_u64(
            &mut out,
            self.recorder.registry().get(Counter::CoreKernelLanes),
        );
        let index_bytes = self.index.snapshot();
        snap::put_usize(&mut out, index_bytes.len());
        out.extend_from_slice(&index_bytes);
        write_atomic(path, &checkpoint::encode_container(&out))
            .map_err(|e| VasError::io(format!("writing checkpoint {}", path.display()), e))
    }

    /// Restores a sampler from a checkpoint file with `recorder` attached,
    /// verifying that `config` asks for the run the checkpoint belongs to
    /// (budget, strategy, threshold, passes — everything the sample
    /// bits depend on; progress reporting may differ, as it does not touch
    /// the output).
    ///
    /// Returns the sampler plus the stream position to resume from:
    /// `(pass, chunks_consumed, source_name, chunk_capacity)`.
    fn restore(
        path: &Path,
        config: VasConfig,
        recorder: Recorder,
    ) -> Result<(Self, u64, u64, String, u64), VasError> {
        let label = path.display().to_string();
        let bytes = std::fs::read(path)
            .map_err(|e| VasError::io(format!("reading checkpoint {label}"), e))?;
        let payload = checkpoint::decode_container(&label, &bytes)?;
        let mut r = SnapshotReader::new(payload);
        let ck = |e: snap::SnapshotError| VasError::Checkpoint {
            detail: e.to_string(),
        };

        let k = r.take_usize("k").map_err(ck)?;
        let strategy = strategy_from_tag(r.take_u8("strategy").map_err(ck)?)?;
        let threshold = r.take_f64("locality threshold").map_err(ck)?;
        let passes = r.take_u64("passes").map_err(ck)?;
        require_match("sample budget k", k, config.k)?;
        require_match("strategy", strategy, config.strategy)?;
        require_match(
            "locality_threshold bits",
            threshold.to_bits(),
            config.locality_threshold.to_bits(),
        )?;
        require_match("passes", passes, config.passes.max(1) as u64)?;

        let epsilon = r.take_f64("epsilon").map_err(ck)?;
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(VasError::Checkpoint {
                detail: format!("checkpointed bandwidth {epsilon} is not finite positive"),
            });
        }
        if let Some(fixed) = config.epsilon {
            require_match("epsilon bits", epsilon.to_bits(), fixed.to_bits())?;
        }
        let name_len = r.take_usize("source name length").map_err(ck)?;
        let mut name_bytes = Vec::with_capacity(name_len.min(1 << 16));
        for _ in 0..name_len {
            name_bytes.push(r.take_u8("source name byte").map_err(ck)?);
        }
        let source_name = String::from_utf8(name_bytes).map_err(|_| VasError::Checkpoint {
            detail: "source name is not valid UTF-8".into(),
        })?;
        let chunk_capacity = r.take_u64("chunk capacity").map_err(ck)?;
        let pass = r.take_u64("pass index").map_err(ck)?;
        let chunks_consumed = r.take_u64("chunks consumed").map_err(ck)?;

        let n_points = r.take_usize("sample point count").map_err(ck)?;
        let mut points = Vec::with_capacity(n_points.min(1 << 20));
        for _ in 0..n_points {
            let x = r.take_f64("sample point x").map_err(ck)?;
            let y = r.take_f64("sample point y").map_err(ck)?;
            let value = r.take_f64("sample point value").map_err(ck)?;
            points.push(Point::with_value(x, y, value));
        }
        let n_rsp = r.take_usize("responsibility count").map_err(ck)?;
        let mut rsp = Vec::with_capacity(n_rsp.min(1 << 20));
        for _ in 0..n_rsp {
            rsp.push(r.take_f64("responsibility").map_err(ck)?);
        }
        let objective = r.take_f64("objective").map_err(ck)?;
        let seen = r.take_u64("seen").map_err(ck)?;
        let replacements = r.take_u64("replacements").map_err(ck)?;
        let kernel_lanes = r.take_u64("kernel lanes").map_err(ck)?;
        let index_len = r.take_usize("index snapshot length").map_err(ck)?;
        let mut index_bytes = Vec::with_capacity(index_len.min(1 << 20));
        for _ in 0..index_len {
            index_bytes.push(r.take_u8("index snapshot byte").map_err(ck)?);
        }
        r.expect_end().map_err(ck)?;

        let inconsistent = |detail: String| Err(VasError::Checkpoint { detail });
        // A build checkpoints inside a pass, so a pass at or past the cap
        // would resume straight into finalizing a partial sample.
        if pass >= passes {
            return inconsistent(format!("pass index {pass} for a cap of {passes} passes"));
        }
        if points.len() > k {
            return inconsistent(format!("{} sample points for budget k = {k}", points.len()));
        }
        if rsp.len() != points.len() {
            return inconsistent(format!(
                "{} responsibilities for {} sample points",
                rsp.len(),
                points.len()
            ));
        }
        // Every fill and every replacement is one observed tuple, and the
        // counters must have room to keep counting.
        if seen >= 1 << 63
            || (points.len() as u64)
                .checked_add(replacements)
                .is_none_or(|filled_or_replaced| filled_or_replaced > seen)
        {
            return inconsistent(format!(
                "{seen} tuples seen for {} sample points and {replacements} replacements",
                points.len()
            ));
        }
        let index = HashGrid::restore(&index_bytes).map_err(|e| VasError::Checkpoint {
            detail: e.to_string(),
        })?;
        // The index is restored, not rebuilt (its visitation order is
        // checkpointed state). ES+Loc keeps exactly one entry per slot, at
        // that slot's point; the other strategies never insert. A CRC-valid
        // file that says otherwise would send the Shrink step out of bounds
        // or past the budget.
        let indexed = strategy == InterchangeStrategy::ExpandShrinkLocality;
        let expected_entries = if indexed { points.len() } else { 0 };
        if index.len() != expected_entries {
            return inconsistent(format!(
                "index holds {} entries for {} sample points under {strategy:?}",
                index.len(),
                points.len()
            ));
        }
        // Bit for bit in `x`, `y` and `value`, as `HashGrid::remove` matches
        // when an accept replaces the slot.
        for (slot, p) in points.iter().enumerate().take(expected_entries) {
            let mut found = false;
            index.for_each_in_radius_with_dist2(p, 0.0, |id, q, _| {
                found |= id == slot && q.same_bits(p);
            });
            if !found {
                return inconsistent(format!("index does not hold slot {slot} at {p:?}"));
            }
        }
        // `rsp` and the objective are incremental state that follows from
        // the points under the kernel. Recompute them as a fresh build over
        // these points would (see `initialize_state`) and refuse the file
        // when they differ by more than incremental maintenance drifts. An
        // altered ε, point or responsibility shows up here, unless it stays
        // within that drift.
        //
        // Besides rounding, ES+Loc drifts by its truncation: an accept
        // subtracts κ(t, removed) from the new slot even when the removed
        // point lies beyond the cutoff, where κ is below the locality
        // threshold. So each slot drifts by less than the threshold since its
        // last replacement, and the objective by less than twice the
        // threshold per replacement.
        let truncation = if indexed {
            config.locality_threshold
        } else {
            0.0
        };
        let mut fresh = VasSampler::new(config.clone());
        fresh.install_kernel(GaussianKernel::new(epsilon));
        fresh.points = points.clone();
        fresh.initialize_state();
        // False for a NaN gap, so a NaN is refused too.
        let within =
            |stored: f64, recomputed: f64, bound: f64| (stored - recomputed).abs() <= bound;
        let rsp_bound = RSP_DRIFT + truncation;
        if let Some(slot) = (0..rsp.len()).find(|&i| !within(rsp[i], fresh.rsp[i], rsp_bound)) {
            return inconsistent(format!(
                "slot {slot} carries responsibility {} where its points give {}",
                rsp[slot], fresh.rsp[slot]
            ));
        }
        // The rounding part is relative to the recomputed objective, or to 1
        // (the kernel's peak lane) when it is smaller.
        let objective_bound = OBJECTIVE_DRIFT * fresh.objective.abs().max(1.0)
            + 2.0 * replacements as f64 * truncation;
        if !within(objective, fresh.objective, objective_bound) {
            return inconsistent(format!(
                "objective {objective} where the points give {}",
                fresh.objective
            ));
        }

        let mut sampler = VasSampler::new(config).with_recorder(recorder);
        sampler.install_kernel(GaussianKernel::new(epsilon));
        sampler.points = points;
        sampler.rsp = rsp;
        sampler.index = index;
        sampler.objective = objective;
        sampler.seen = seen;
        sampler.replacements = replacements;
        sampler
            .recorder
            .set_restored(Counter::CoreKernelLanes, kernel_lanes);
        sampler.recorder.inc(Counter::CoreCheckpointResumes, 1);
        sampler.recorder.event(
            "checkpoint_resume",
            &[
                ("pass", pass.into()),
                ("chunks_consumed", chunks_consumed.into()),
                ("points", (sampler.points.len() as u64).into()),
            ],
        );
        // The max tracker starts stale (`tracker_fresh` is false in a new
        // sampler): it is a pure function of `rsp`, rebuilt lazily and
        // deterministically like after every other rsp-mutating path.
        Ok((sampler, pass, chunks_consumed, source_name, chunk_capacity))
    }

    /// Observes every point of `chunk` in order — the chunked counterpart of
    /// [`observe`](Sampler::observe), bit-identical to calling it per point,
    /// that times the fill and the candidate phase once per chunk and
    /// counts the chunk's accepts and rejects into the recorder.
    pub fn observe_chunk(&mut self, chunk: &[Point]) {
        let mut span = self.recorder.span("observe_chunk");
        span.attr("chunk_len", chunk.len());
        let replacements_before = self.replacements;
        let len_before = self.points.len();
        let was_filling = self.config.k > 0 && len_before < self.config.k;
        self.observe_chunk_inner(chunk);
        // Chunk-granularity observability accounting: every point of the
        // chunk was either a fill, an accepted replacement or a rejection
        // (skipped non-finite points and tuples already in the sample count
        // as rejections).
        let accepts = self.replacements - replacements_before;
        let filled = (self.points.len() - len_before) as u64;
        self.recorder.inc(Counter::CoreAccepts, accepts);
        self.recorder.inc(
            Counter::CoreRejects,
            (chunk.len() as u64).saturating_sub(filled + accepts),
        );
        if was_filling && self.points.len() >= self.config.k {
            self.recorder.event(
                "phase_transition",
                &[
                    ("from", "fill".into()),
                    ("to", "candidate".into()),
                    ("seen", self.seen.into()),
                ],
            );
            // The fill just completed, so the locality index holds a full
            // K-sample: the representative moment to probe grid occupancy.
            // The probe scans the whole cell table, so it only runs when
            // observability is attached — a detached build never pays for it.
            if self.recorder.timing_enabled() || self.recorder.tracer().is_some() {
                let occ = self.index.occupancy();
                self.recorder
                    .record_value(ValueSeries::GridOccupiedCells, occ.cells_occupied as u64);
                self.recorder.record_value(
                    ValueSeries::GridMaxCellPoints,
                    occ.max_points_per_cell as u64,
                );
                self.recorder.event(
                    "grid_occupancy",
                    &[
                        ("cells_occupied", (occ.cells_occupied as u64).into()),
                        ("points", (occ.points as u64).into()),
                        (
                            "mean_points_per_cell",
                            vas_obs::EventValue::F64(occ.mean_points_per_cell),
                        ),
                        (
                            "max_points_per_cell",
                            (occ.max_points_per_cell as u64).into(),
                        ),
                    ],
                );
            }
        }
    }

    fn observe_chunk_inner(&mut self, chunk: &[Point]) {
        let mut rest = chunk;
        if self.points.len() < self.config.k {
            // The prefix that fills the sample: skipped points (non-finite,
            // or already in the sample) take no slot.
            let _phase = self.recorder.phase(Phase::Fill);
            let mut filled = 0;
            while filled < rest.len() && self.points.len() < self.config.k {
                self.observe(rest[filled]);
                filled += 1;
            }
            rest = &rest[filled..];
        }
        if rest.is_empty() {
            return;
        }
        let _phase = self.recorder.phase(Phase::CandidateEval);
        for p in rest {
            self.observe(*p);
        }
    }

    fn install_kernel(&mut self, kernel: GaussianKernel) {
        let cutoff = kernel.effective_radius(self.config.locality_threshold);
        self.cutoff = cutoff;
        self.cutoff2 = cutoff * cutoff;
        self.cache.configure(cutoff);
        self.kernel = Some(kernel);
        if self.index.is_empty() {
            // Re-tune the (still empty) index to the cutoff radius every
            // radius query will use: the HashGrid sizes its cells from it.
            self.index.reset(cutoff);
        }
    }

    /// Resolves the kernel bandwidth from the points buffered so far
    /// (used when streaming without a pre-declared ε).
    fn resolve_kernel_from_buffer(&mut self) {
        self.install_kernel(GaussianKernel::for_points(&self.points));
        // Initialize responsibilities of the buffered points.
        self.initialize_state();
    }

    /// (Re)computes responsibilities, the locality index and the objective
    /// for the current `points`. Called once the kernel becomes available.
    fn initialize_state(&mut self) {
        let kernel = self.kernel.expect("kernel resolved");
        let n = self.points.len();
        self.rsp = vec![0.0; n];
        self.objective = 0.0;
        self.index.reset(self.cutoff);
        self.cache.forget();
        self.tracker_fresh = false;
        let use_locality = self.config.strategy == InterchangeStrategy::ExpandShrinkLocality;
        if use_locality {
            let Self {
                index,
                points,
                rsp,
                objective,
                cutoff,
                ..
            } = self;
            for (i, p) in points.iter().enumerate() {
                // Contributions against already-inserted points only.
                index.for_each_in_radius_with_dist2(p, *cutoff, |j, q, _| {
                    let v = kernel.eval(p, q);
                    rsp[i] += v;
                    rsp[j] += v;
                    *objective += v;
                });
                index.insert(i, *p);
            }
        } else {
            for i in 0..n {
                for j in (i + 1)..n {
                    let v = kernel.eval(&self.points[i], &self.points[j]);
                    self.rsp[i] += v;
                    self.rsp[j] += v;
                    self.objective += v;
                }
            }
        }
    }

    /// Whether a slot already holds `point`'s tuple. Interchange only
    /// admits tuples outside the sample: a later pass offers the sample's
    /// own tuples again, and a copy of an isolated slot would lower the
    /// objective by pushing out a dense one. Every path asks just before it
    /// would admit a point (a fill or an accept), so rejections never pay
    /// for it. ES+Loc looks the point up in its index at radius 0; the other
    /// strategies, and ES+Loc while ε is unresolved, scan the sample.
    fn holds(&self, point: &Point) -> bool {
        let indexed = self.config.strategy == InterchangeStrategy::ExpandShrinkLocality;
        if !(indexed && self.kernel.is_some()) {
            return self.points.iter().any(|q| q.same_bits(point));
        }
        let mut held = false;
        self.index
            .for_each_in_radius_with_dist2(point, 0.0, |slot, _, _| {
                held |= self.points[slot].same_bits(point);
            });
        held
    }

    /// Handles a point while the sample is still being filled (|S| < K).
    fn observe_fill(&mut self, point: Point) {
        if self.holds(&point) {
            return;
        }
        let slot = self.points.len();
        if let Some(kernel) = self.kernel {
            let use_locality = self.config.strategy == InterchangeStrategy::ExpandShrinkLocality;
            let mut own = 0.0;
            if use_locality {
                let cutoff = self.cutoff;
                let Self { index, rsp, .. } = self;
                index.for_each_in_radius_with_dist2(&point, cutoff, |j, _, d2| {
                    let v = kernel.eval_dist2(d2);
                    rsp[j] += v;
                    own += v;
                });
                self.index.insert(slot, point);
            } else {
                for (j, q) in self.points.iter().enumerate() {
                    let v = kernel.eval(&point, q);
                    self.rsp[j] += v;
                    own += v;
                }
            }
            self.objective += own;
            self.points.push(point);
            self.rsp.push(own);
            self.tracker_fresh = false;
        } else {
            // Bandwidth not known yet: buffer and defer.
            self.points.push(point);
            if self.points.len() == self.config.k {
                self.resolve_kernel_from_buffer();
            }
        }
    }

    /// Handles a candidate point once the sample is full: the Expand/Shrink
    /// replacement test.
    fn observe_candidate(&mut self, point: Point) {
        match self.config.strategy {
            InterchangeStrategy::Naive => self.candidate_naive(point),
            InterchangeStrategy::ExpandShrink => self.candidate_es_full(point),
            InterchangeStrategy::ExpandShrinkLocality => self.candidate_es_locality(point),
        }
    }

    /// "No ES": recompute every responsibility of the expanded set from
    /// scratch, then drop the maximum. `O(K²)` kernel evaluations.
    fn candidate_naive(&mut self, point: Point) {
        let kernel = self.kernel.expect("kernel resolved");
        let k = self.points.len();
        // Responsibilities in the expanded set S ∪ {t}, computed from scratch.
        let mut expanded_rsp = vec![0.0; k + 1];
        for i in 0..k {
            for j in (i + 1)..k {
                let v = kernel.eval(&self.points[i], &self.points[j]);
                expanded_rsp[i] += v;
                expanded_rsp[j] += v;
            }
            let v = kernel.eval(&self.points[i], &point);
            expanded_rsp[i] += v;
            expanded_rsp[k] += v;
        }
        let (max_idx, _) = argmax(&expanded_rsp);
        if max_idx == k || self.holds(&point) {
            return; // the candidate is the most redundant or in S: reject
        }
        // Accept: replace slot `max_idx` with the candidate and rebuild the
        // bookkeeping from scratch (this strategy has no incremental state).
        self.points[max_idx] = point;
        self.replacements += 1;
        self.rsp = crate::objective::responsibilities(&kernel, &self.points)
            .into_iter()
            .map(|r| 2.0 * r)
            .collect();
        self.objective = objective(&kernel, &self.points);
        self.tracker_fresh = false;
    }

    /// Rebuilds the max-responsibility tracker from `rsp` if a
    /// non-tracking path (fill, naive, plain ES) has touched `rsp` since the
    /// tracker was last rebuilt.
    fn ensure_tracker(&mut self) {
        if !self.tracker_fresh {
            self.max_tracker.rebuild(&self.rsp);
            self.tracker_fresh = true;
        }
    }

    /// "ES" without locality: incremental Expand/Shrink with a dense delta
    /// vector. Inherently `O(K)` per tuple (every slot's responsibility
    /// changes in the expanded set), but allocation-free in steady state.
    fn candidate_es_full(&mut self, point: Point) {
        let kernel = self.kernel.expect("kernel resolved");
        let k = self.points.len();

        // --- Expand: vals[i] = κ̃(t, s_i) for every slot, in slot order (the
        // deltas are dense, so the slot index IS the lane index): the squared
        // distances are laid out as flat lanes and mapped in one vectorizable
        // `eval_dist2_batch` sweep, which computes `eval_dist2(dist2(t, s_i))`
        // per lane.
        let mut dist2 = std::mem::take(&mut self.dense_dist2);
        let mut vals = std::mem::take(&mut self.scratch_vals);
        dist2.clear();
        dist2.extend(self.points.iter().map(|q| point.dist2(q)));
        vals.clear();
        vals.resize(k, 0.0);
        kernel.eval_dist2_batch(&dist2, &mut vals);
        self.recorder.inc(Counter::CoreKernelLanes, k as u64);
        let mut cand_rsp = 0.0;
        for &v in &vals {
            cand_rsp += v;
        }

        // --- Shrink: largest responsibility in the expanded set, a
        // first-wins scan over the dense, slot-ordered deltas.
        let mut max_idx = usize::MAX; // usize::MAX encodes "the candidate"
        let mut max_val = cand_rsp;
        for (i, &r) in self.rsp.iter().enumerate() {
            let r = r + vals[i];
            if r > max_val {
                max_val = r;
                max_idx = i;
            }
        }

        if max_idx == usize::MAX || self.holds(&point) {
            self.dense_dist2 = dist2;
            self.scratch_vals = vals;
            return; // the candidate is the most redundant or in S: reject
        }

        // --- Accept: replace slot `max_idx` ("s_j") with the candidate.
        let removed = self.points[max_idx];
        let removed_rsp = self.rsp[max_idx];
        for (i, &v) in vals.iter().enumerate() {
            if i != max_idx {
                self.rsp[i] += v;
            }
        }
        let kappa_t_removed = vals[max_idx];
        for i in 0..k {
            if i != max_idx {
                self.rsp[i] -= kernel.eval(&removed, &self.points[i]);
            }
        }

        let new_rsp = cand_rsp - kappa_t_removed;
        self.points[max_idx] = point;
        self.rsp[max_idx] = new_rsp;
        self.objective += new_rsp - removed_rsp;
        self.replacements += 1;
        self.tracker_fresh = false;
        self.dense_dist2 = dist2;
        self.scratch_vals = vals;
    }

    /// "ES+Loc": Expand/Shrink with spatial-index locality **and** the
    /// max-responsibility tracker.
    ///
    /// A rejected candidate — the overwhelmingly common case once the sample
    /// has converged — costs only its neighbourhood kernel evaluations plus
    /// an `O(1)` read of the tracked maximum instead of an `O(K)` Shrink
    /// scan. An accepted candidate additionally reduces the few 64-slot
    /// blocks whose maximum its updates lowered, then the `K/64` block
    /// maxima (see [`MaxTracker`]).
    ///
    /// A **rejection filter** runs first, and it only certifies: bounded
    /// lanes ([`GaussianKernel::eval_dist2_batch_bounded`]) prove, when
    /// they can, that the exact Shrink would reject (see
    /// [`certifies_reject`]). Approximate lanes may only certify a
    /// rejection; everything stored comes from libm.
    /// - A candidate the neighbourhood cache serves (one within Δ of a
    ///   recent candidate, see [`crate::neighbourhood`]) walks the cached
    ///   rings nearest-first and stops at the first ring after which a
    ///   *partial* certificate holds. No grid gather runs.
    /// - Every other candidate gathers its neighbourhood from the index and
    ///   tries the full certificate over all of its lanes.
    ///
    /// A certified candidate returns with no state touched. Every other one
    /// (accepts and rare near-ties) gathers, if it has not, and runs the
    /// exact lanes, fold and Shrink below, so the sample is bit-identical to
    /// the unfiltered loop. A served candidate the walk could not certify
    /// skips the full certificate: its lanes were already walked.
    fn candidate_es_locality(&mut self, point: Point) {
        let kernel = self.kernel.expect("kernel resolved");
        self.ensure_tracker();
        let tracked = self.max_tracker.max(&self.rsp).map(|(_, r)| r);
        let served = self.cache.route(&point, &self.index, &self.points);
        if served && self.cache_certifies_reject(&point, &kernel, tracked) {
            self.recorder.inc(Counter::CoreCacheCertifiedRejects, 1);
            return;
        }

        // --- Expand: evaluate the kernel against the candidate's
        // neighbourhood only. The index batch-gathers the neighbourhood's
        // `(id, dist2)` SoA lanes (in visitation order) and one
        // `eval_dist2_batch` sweep maps the distance lanes to kernel values;
        // `cand_rsp` then folds the value lanes left-to-right, in visitation
        // order.
        let mut gather = std::mem::take(&mut self.gather);
        let mut vals = std::mem::take(&mut self.scratch_vals);
        self.index
            .gather_in_radius_into(&point, self.cutoff, &mut gather);
        vals.clear();
        vals.resize(gather.len(), 0.0);
        self.recorder
            .inc(Counter::CoreKernelLanes, gather.len() as u64);
        // A candidate the cache served has already had its bounded lanes
        // walked, so the filter below would repeat that work in vain: either
        // every ring was walked, or a ring lane was out of the bounded range,
        // and the gather holds that lane too.
        if !served
            && kernel.eval_dist2_batch_bounded(gather.dist2(), &mut vals)
            && certifies_reject(BOUNDED_LANE_DELTA, &self.rsp, tracked, gather.ids(), &vals)
        {
            self.gather = gather;
            self.scratch_vals = vals;
            return;
        }
        self.recorder.inc(Counter::CoreExactFallbacks, 1);
        kernel.eval_dist2_batch(gather.dist2(), &mut vals);
        let mut cand_rsp = 0.0;
        for &v in &vals {
            cand_rsp += v;
        }

        self.shrink_apply_es_locality(point, gather.ids(), &vals, cand_rsp);
        self.gather = gather;
        self.scratch_vals = vals;
    }

    /// The cache's partial certificate for a candidate it serves: walks the
    /// rings nearest-first, evaluating each ring's in-cutoff lanes with the
    /// bounded kernel, and stops as soon as the lanes visited so far
    /// certify the rejection (see [`Certificate::rejects`]). Every lane a
    /// ring visit evaluates counts into `CoreKernelLanes`.
    ///
    /// Kept out of line: inlined, it made the candidate path about 7%
    /// slower on i.i.d. streams, which almost never reach it.
    #[inline(never)]
    fn cache_certifies_reject(
        &mut self,
        point: &Point,
        kernel: &GaussianKernel,
        tracked: Option<f64>,
    ) -> bool {
        let Self {
            cache,
            rsp,
            scratch_vals: approx,
            cutoff2,
            recorder,
            ..
        } = self;
        // Every unvisited lane is a kernel value, at most the kernel's
        // peak, and the exact fold runs over at most one lane per slot.
        let unvisited = Unvisited {
            kappa_up: 1.0,
            lane_bound: rsp.len(),
        };
        let mut cert = Certificate::default();
        let mut lanes = 0u64;
        let certified = cache.walk(point, *cutoff2, |ids, dist2| {
            lanes += ids.len() as u64;
            approx.clear();
            approx.resize(dist2.len(), 0.0);
            if !kernel.eval_dist2_batch_bounded(dist2, approx) {
                return ControlFlow::Break(false);
            }
            cert.visit(rsp, ids, approx);
            if cert.rejects(BOUNDED_LANE_DELTA, tracked, Some(unvisited)) {
                ControlFlow::Break(true)
            } else {
                ControlFlow::Continue(())
            }
        });
        recorder.inc(Counter::CoreKernelLanes, lanes);
        certified
    }

    /// The Shrink + accept half of the "ES+Loc" replacement test over the
    /// SoA delta lanes the Expand step above gathered (`ids[n]` is the
    /// sample slot whose kernel value is `vals[n]`).
    fn shrink_apply_es_locality(
        &mut self,
        point: Point,
        ids: &[usize],
        vals: &[f64],
        cand_rsp: f64,
    ) {
        let kernel = self.kernel.expect("kernel resolved");

        // --- Shrink: the expanded-set maximum is either the candidate, a
        // neighbour slot raised by its delta, or the standing maximum over
        // all base responsibilities — which the tracker hands over in
        // O(1). Tie-breaking matches a first-wins linear scan over the base
        // responsibilities because the tracker resolves ties to the lowest
        // index; the neighbour lanes follow in visitation order.
        self.ensure_tracker();
        let mut max_idx = usize::MAX; // usize::MAX encodes "the candidate"
        let mut max_val = cand_rsp;
        if let Some((i, r)) = self.max_tracker.max(&self.rsp) {
            if r > max_val {
                max_val = r;
                max_idx = i;
            }
        }
        for (&i, &v) in ids.iter().zip(vals) {
            let r = self.rsp[i] + v;
            if r > max_val {
                max_val = r;
                max_idx = i;
            }
        }

        if max_idx == usize::MAX || self.holds(&point) {
            return; // the candidate is the most redundant or in S: reject
        }

        // --- Accept: replace slot `max_idx` ("s_j") with the candidate.
        // Every responsibility delta is written into `rsp` once, in place,
        // and reported to the tracker with its value: a raise is absorbed
        // into its block's maximum, a lowering dirties its block only when
        // it lowers that maximum. The maximum is restored once at the end
        // (`flush`), which reduces the few dirty blocks and then the `K/64`
        // block maxima.
        let removed = self.points[max_idx];
        let removed_rsp = self.rsp[max_idx];

        // Add the candidate's contributions to its neighbours.
        for (&i, &v) in ids.iter().zip(vals) {
            if i != max_idx {
                self.rsp[i] += v;
                self.max_tracker.raised(i, self.rsp[i]);
            }
        }
        // Subtract the removed element's contributions from its neighbours,
        // evaluated as SoA lanes like the Expand step but not counted as
        // candidate kernel lanes. The lanes come from the neighbourhood
        // cache when it covers the removed point, and from a gather
        // otherwise: the same lanes with the same `dist2` bits, and each is
        // one subtraction from its own slot, so their order is free.
        let kappa_t_removed = ids
            .iter()
            .position(|&i| i == max_idx)
            .map(|n| vals[n])
            .unwrap_or_else(|| kernel.eval(&point, &removed));
        let Self {
            cache,
            index,
            removal: (gather, kappas),
            rsp,
            max_tracker,
            cutoff,
            cutoff2,
            ..
        } = self;
        let (nbr_ids, nbr_dist2) = match cache.lanes_within(&removed, *cutoff2) {
            Some(lanes) => lanes,
            None => {
                index.gather_in_radius_into(&removed, *cutoff, gather);
                (gather.ids(), gather.dist2())
            }
        };
        kappas.clear();
        kappas.resize(nbr_ids.len(), 0.0);
        kernel.eval_dist2_batch(nbr_dist2, kappas);
        for (&i, &v) in nbr_ids.iter().zip(kappas.iter()) {
            if i != max_idx {
                let before = rsp[i];
                rsp[i] = before - v;
                max_tracker.lowered(i, before);
            }
        }
        // A failed removal would leave a ghost lane that every later gather
        // returns.
        let removed_from_index = self.index.remove(max_idx, &removed);
        debug_assert!(
            removed_from_index,
            "slot {max_idx} was missing from the locality index"
        );
        self.index.insert(max_idx, point);
        self.cache.replace(max_idx, &removed, &point);

        let new_rsp = cand_rsp - kappa_t_removed;
        self.points[max_idx] = point;
        self.rsp[max_idx] = new_rsp;
        self.max_tracker.lowered(max_idx, removed_rsp);
        self.max_tracker.raised(max_idx, new_rsp);
        self.max_tracker.flush(&self.rsp);
        self.objective += new_rsp - removed_rsp;
        self.replacements += 1;
    }

    fn maybe_report_progress(&mut self) {
        if self.config.progress_every == 0 {
            return;
        }
        if !self.seen.is_multiple_of(self.config.progress_every) {
            return;
        }
        let event = ProgressEvent {
            tuples_processed: self.seen,
            replacements: self.replacements,
            objective: self.objective,
            elapsed: self.started.elapsed(),
        };
        if let Some(sink) = self.progress.as_mut() {
            sink(event);
        }
    }

    fn reset(&mut self) {
        self.points = Vec::new();
        self.rsp = Vec::new();
        self.index.reset(self.cutoff);
        self.max_tracker = MaxTracker::new();
        self.tracker_fresh = false;
        self.gather = NeighborBatch::new();
        self.scratch_vals = Vec::new();
        self.dense_dist2 = Vec::new();
        self.removal = Default::default();
        self.cache.forget();
        self.objective = 0.0;
        self.seen = 0;
        self.replacements = 0;
        // Resets the registry's build-scoped counters (accepts, rejects,
        // kernel lanes, exact fallbacks, cache-certified rejects).
        self.recorder.registry().reset_build_counters();
        self.started = Instant::now();
        // Keep the resolved kernel: it describes the data domain, which does
        // not change between passes or reuse on the same table.
    }
}

impl Sampler for VasSampler {
    fn name(&self) -> &str {
        "vas"
    }

    fn target_size(&self) -> usize {
        self.config.k
    }

    fn observe(&mut self, point: Point) {
        self.seen += 1;
        if self.config.k == 0 {
            return;
        }
        // A non-finite coordinate has no kernel distance to anything: the
        // point would fail every radius test, look maximally isolated and
        // leave a NaN responsibility behind. It is skipped, not sampled.
        if point.is_finite() {
            if self.points.len() < self.config.k {
                self.observe_fill(point);
            } else {
                self.observe_candidate(point);
            }
        }
        self.maybe_report_progress();
    }

    fn finalize(&mut self) -> Sample {
        if self.kernel.is_none() && !self.points.is_empty() {
            // Stream ended before the buffer filled: resolve now so that the
            // responsibilities (and any later density pass) are well defined.
            self.resolve_kernel_from_buffer();
        }
        let points = std::mem::take(&mut self.points);
        let sample = Sample::new("vas", self.config.k, points);
        self.reset();
        sample
    }
}

/// `true` when approximate kernel lanes over every lane the index gathered
/// prove that the exact ES+Loc Shrink test rejects the candidate: the full
/// certificate (see [`Certificate`] for the argument). `tracked` is the
/// tracked maximum responsibility (`None` for an empty sample).
fn certifies_reject(
    lane_delta: f64,
    rsp: &[f64],
    tracked: Option<f64>,
    ids: &[usize],
    approx: &[f64],
) -> bool {
    let mut cert = Certificate::default();
    cert.visit(rsp, ids, approx);
    cert.rejects(lane_delta, tracked, None)
}

/// What a partial [`Certificate`] knows about the lanes it did not visit.
#[derive(Debug, Clone, Copy)]
struct Unvisited {
    /// An upper bound on every unvisited lane's libm value.
    kappa_up: f64,
    /// An upper bound on the number of lanes the exact fold runs over,
    /// visited or not.
    lane_bound: usize,
}

/// Running reductions of a rejection certificate over the bounded lanes
/// visited so far: a full certificate visits every lane the index gathers,
/// a partial one a subset of them, nearest first.
///
/// Let `L` be the lanes the exact path folds (every slot within the
/// cutoff, in the index's visitation order) and `e[n] ≤ 1` their libm
/// values. The exact test rejects iff `cand_rsp ≥ M` and
/// `cand_rsp ≥ fl(rsp[i] + e[n])` for every lane of `L`, where `cand_rsp`
/// is the left fold of the `e[n]` and `M` the tracked maximum. The
/// certificate has visited lanes `V ⊆ L`, each with the exact path's slot
/// and `dist2`, whose bounded values satisfy `|approx[n] − e[n]| ≤
/// δ·approx[n]` with `δ = lane_delta`. Let `N` bound `|L|` (the visited
/// count for a full certificate, `max(lane_bound, visited)` for a partial
/// one), `u = 2⁻⁵³`, `A` the computed sum of the visited approximate lanes
/// and `V` the computed maximum of `rsp[i] + approx[n]` over them, and let
/// `s = δ + 4(N+4)u`. Then:
/// - `cand_rsp ≥ (1−δ)(1−γ_N)²·A + (1−γ_N)·Σ_{L∖V} e ≥ A·(1−s) +
///   (1−γ_N)·Σ_{L∖V} e` evaluated in `f64`, since any summation order of
///   `N` non-negative terms is within `γ_N ≈ Nu` relative of the real sum;
/// - for a visited lane, `fl(rsp[i] + e[n]) ≤ V + s·(A + |V|)` evaluated
///   in `f64`, since `e[n] ≤ approx[n] + δ·A·(1+γ_N)` and each addition
///   rounds by at most `u` of its magnitude (`s ≥ 16u` covers the `|V|`
///   terms);
/// - for an unvisited lane, `rsp[i] ≤ M` and `e[n] ≤ κ_up = kappa_up`, and
///   `cand_rsp`'s own fold contains `e[n]`: `cand_rsp ≥ A·(1−s) + e[n] −
///   γ_N·κ_up`, while `fl(rsp[i] + e[n]) ≤ M + e[n] + u·(|M| + κ_up)`. The
///   lane's own value appears on both sides, so `A·(1−s) ≥ M + s·(|M| +
///   κ_up)` covers every unvisited lane.
///
/// So `A·(1−s)` at least `V + s·(A + |V|)` and at least `M` — raised by
/// `s·(|M| + κ_up)` when lanes may be unvisited — certifies the rejection.
/// The unvisited lanes enter only through their rounding, so `κ_up` may be
/// the kernel's peak `1`, and a partial certificate stays sound whichever
/// subset of `L` it visited: visiting the nearest lanes first only makes
/// `A` reach `M` after fewer lanes. Both reductions use independent
/// accumulators: sequential chains would cost about as much as the libm
/// lanes they stand in for.
#[derive(Debug, Clone, Copy)]
struct Certificate {
    sums: [f64; 8],
    /// The sum of the lanes past each visit's last whole group of eight.
    rest: f64,
    maxes: [f64; 4],
    lanes: usize,
}

impl Default for Certificate {
    fn default() -> Self {
        Self {
            sums: [0.0; 8],
            rest: 0.0,
            maxes: [f64::NEG_INFINITY; 4],
            lanes: 0,
        }
    }
}

impl Certificate {
    /// Adds lanes: `approx[n]` is the bounded value of slot `ids[n]`.
    #[inline]
    fn visit(&mut self, rsp: &[f64], ids: &[usize], approx: &[f64]) {
        // Local accumulators, so they stay in registers across the loops.
        let mut sums = self.sums;
        let mut lanes = approx.chunks_exact(8);
        for c in &mut lanes {
            for (s, &a) in sums.iter_mut().zip(c) {
                *s += a;
            }
        }
        self.sums = sums;
        self.rest += lanes.remainder().iter().sum::<f64>();

        let mut maxes = self.maxes;
        let mut ids4 = ids.chunks_exact(4);
        let mut approx4 = approx.chunks_exact(4);
        for (ci, ca) in (&mut ids4).zip(&mut approx4) {
            for ((m, &i), &a) in maxes.iter_mut().zip(ci).zip(ca) {
                let r = rsp[i] + a;
                if r > *m {
                    *m = r;
                }
            }
        }
        for (&i, &a) in ids4.remainder().iter().zip(approx4.remainder()) {
            let r = rsp[i] + a;
            if r > maxes[0] {
                maxes[0] = r;
            }
        }
        self.maxes = maxes;
        self.lanes += approx.len();
    }

    /// Whether the lanes visited so far certify the rejection; `unvisited`
    /// is `None` when they are every lane of the exact fold.
    #[inline]
    fn rejects(&self, lane_delta: f64, tracked: Option<f64>, unvisited: Option<Unvisited>) -> bool {
        let sum = self.sums.iter().sum::<f64>() + self.rest;
        let nbr_max = self
            .maxes
            .into_iter()
            .fold(f64::NEG_INFINITY, |m, r| if r > m { r } else { m });
        let lane_bound = unvisited.map_or(self.lanes, |u| u.lane_bound.max(self.lanes));
        let slack = lane_delta + 4.0 * (lane_bound as f64 + 4.0) * (f64::EPSILON / 2.0);
        let lower = sum * (1.0 - slack);
        let nbr_upper = if self.lanes == 0 {
            f64::NEG_INFINITY
        } else {
            nbr_max + slack * (sum + nbr_max.abs())
        };
        let tracked_upper = match (tracked, unvisited) {
            (None, _) => f64::NEG_INFINITY,
            (Some(m), None) => m,
            (Some(m), Some(u)) => m + slack * (m.abs() + u.kappa_up),
        };
        lower >= tracked_upper && lower >= nbr_upper
    }
}

/// Index and value of the maximum element (ties resolved to the first).
fn argmax(values: &[f64]) -> (usize, f64) {
    let mut idx = 0;
    let mut best = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best {
            best = v;
            idx = i;
        }
    }
    (idx, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::objective as objective_of;
    use vas_data::GeolifeGenerator;
    use vas_sampling::UniformSampler;

    fn small_dataset() -> Dataset {
        GeolifeGenerator::with_size(3_000, 17).generate()
    }

    #[test]
    fn produces_sample_of_requested_size() {
        let d = small_dataset();
        let mut s = VasSampler::from_dataset(&d, VasConfig::new(150));
        let sample = s.sample_dataset(&d);
        assert_eq!(sample.len(), 150);
        assert_eq!(sample.method, "vas");
        // All sample points come from the dataset.
        for p in &sample.points {
            assert!(d.points.contains(p));
        }
    }

    /// Asserts that no two sample points are the same tuple.
    fn assert_distinct(points: &[Point], what: &str) {
        for (i, p) in points.iter().enumerate() {
            for q in &points[..i] {
                assert!(!p.same_bits(q), "{what}: {p:?} is sampled twice");
            }
        }
    }

    #[test]
    fn sample_smaller_than_budget_when_data_is_small() {
        // Every finite point, once: a second pass offers the same tuples
        // again, and neither it nor a shard's second pass may fill the
        // spare slots with copies.
        let mut points: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 0.0)).collect();
        points.insert(4, Point::new(f64::NAN, 0.0));
        let d = Dataset::from_points("tiny", points);
        let finite: Vec<Point> = d.iter().copied().filter(Point::is_finite).collect();
        let config = VasConfig::new(15);
        let samples = [
            (
                "one pass",
                VasSampler::from_dataset(&d, config.clone()).build(&d),
            ),
            (
                "two passes",
                VasSampler::from_dataset(&d, config.clone().with_passes(2)).build(&d),
            ),
            (
                "two shards, two passes",
                crate::ShardedSampler::new(config.with_passes(2), 2)
                    .build_sharded(&d)
                    .unwrap(),
            ),
        ];
        for (what, sample) in samples {
            assert_eq!(sample.len(), finite.len(), "{what}");
            assert_distinct(&sample.points, what);
            assert!(sample.points.iter().all(|p| finite.contains(p)), "{what}");
        }
    }

    #[test]
    fn zero_budget() {
        let d = small_dataset();
        let mut s = VasSampler::from_dataset(&d, VasConfig::new(0));
        assert!(s.sample_dataset(&d).is_empty());
    }

    #[test]
    fn naive_and_expand_shrink_agree_until_near_ties() {
        // Both strategies implement the identical replacement rule, so their
        // per-tuple decisions must agree exactly until a near-tie in
        // responsibilities is resolved differently by floating-point
        // summation order. On this workload that first divergence happens
        // only deep into the stream; we require perfect agreement for a
        // meaningful prefix, and that both keep obeying the hill-climbing
        // invariant afterwards.
        let d = GeolifeGenerator::with_size(400, 3).generate();
        let k = 30;
        let kernel = GaussianKernel::for_dataset(&d);
        let eps = kernel.bandwidth();
        let mut naive = VasSampler::from_dataset(
            &d,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::Naive)
                .with_epsilon(eps),
        );
        let mut es = VasSampler::from_dataset(
            &d,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::ExpandShrink)
                .with_epsilon(eps),
        );
        let mut agreed_prefix = 0usize;
        let mut diverged = false;
        for (i, p) in d.iter().enumerate() {
            naive.observe(*p);
            es.observe(*p);
            if !diverged {
                if naive.current_sample() == es.current_sample() {
                    agreed_prefix = i + 1;
                } else {
                    diverged = true;
                }
            }
        }
        assert!(
            agreed_prefix >= 100,
            "strategies disagreed after only {agreed_prefix} tuples"
        );
        // Regardless of where the paths split, both must end up with a far
        // better objective than uniform sampling over the same stream.
        let uni = UniformSampler::new(k, 1).sample_dataset(&d);
        let o_uni = objective_of(&kernel, &uni.points);
        let o_naive = objective_of(&kernel, naive.current_sample());
        let o_es = objective_of(&kernel, es.current_sample());
        assert!(o_naive < o_uni, "naive {o_naive} vs uniform {o_uni}");
        assert!(o_es < o_uni, "ES {o_es} vs uniform {o_uni}");
    }

    #[test]
    fn naive_strategy_never_increases_objective_after_fill() {
        let d = GeolifeGenerator::with_size(600, 29).generate();
        let kernel = GaussianKernel::for_dataset(&d);
        let k = 40;
        let mut s = VasSampler::from_dataset(
            &d,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::Naive)
                .with_epsilon(kernel.bandwidth()),
        );
        let mut prev = f64::INFINITY;
        for (i, p) in d.iter().enumerate() {
            s.observe(*p);
            if i + 1 >= k {
                let cur = objective_of(&kernel, s.current_sample());
                if i + 1 > k {
                    assert!(
                        cur <= prev + 1e-9,
                        "naive objective increased at tuple {i}: {prev} -> {cur}"
                    );
                }
                prev = cur;
            }
        }
    }

    #[test]
    fn locality_matches_expand_shrink_closely() {
        let d = GeolifeGenerator::with_size(2_000, 5).generate();
        let k = 100;
        let kernel = GaussianKernel::for_dataset(&d);
        let eps = kernel.bandwidth();
        let mut es = VasSampler::from_dataset(
            &d,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::ExpandShrink)
                .with_epsilon(eps),
        );
        let mut loc = VasSampler::from_dataset(
            &d,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::ExpandShrinkLocality)
                .with_epsilon(eps),
        );
        let a = es.sample_dataset(&d);
        let b = loc.sample_dataset(&d);
        let oa = objective_of(&kernel, &a.points);
        let ob = objective_of(&kernel, &b.points);
        // Truncating kernel tails flips near-tie replacement decisions, so the
        // two hill climbs reach *different* local optima; landing below ES is
        // fine. What the locality speed-up must not do is give up sample
        // quality, so only the regression direction is bounded.
        assert!(
            ob <= oa * 1.05 + 1e-9,
            "ES+Loc lost too much quality: ES={oa}, ES+Loc={ob}"
        );
    }

    #[test]
    fn vas_beats_uniform_sampling_on_the_objective() {
        let d = small_dataset();
        let k = 200;
        let kernel = GaussianKernel::for_dataset(&d);
        let mut vas = VasSampler::from_dataset(&d, VasConfig::new(k));
        let vas_sample = vas.sample_dataset(&d);
        let uni_sample = UniformSampler::new(k, 7).sample_dataset(&d);
        let vas_obj = objective_of(&kernel, &vas_sample.points);
        let uni_obj = objective_of(&kernel, &uni_sample.points);
        assert!(
            vas_obj < uni_obj,
            "VAS objective {vas_obj} should beat uniform {uni_obj}"
        );
    }

    #[test]
    fn replacements_only_decrease_the_objective() {
        // Track the objective after every observation: the hill-climbing
        // invariant is that accepted replacements never increase it.
        let d = GeolifeGenerator::with_size(1_500, 11).generate();
        let mut s = VasSampler::from_dataset(
            &d,
            VasConfig::new(80).with_strategy(InterchangeStrategy::ExpandShrink),
        );
        let mut prev = f64::INFINITY;
        let mut fill_done = false;
        for (i, p) in d.iter().enumerate() {
            s.observe(*p);
            if i + 1 == 80 {
                fill_done = true;
                prev = s.current_objective();
            } else if fill_done {
                let cur = s.current_objective();
                assert!(
                    cur <= prev + 1e-9,
                    "objective increased at tuple {i}: {prev} -> {cur}"
                );
                prev = cur;
            }
        }
    }

    #[test]
    fn incremental_objective_matches_reference() {
        // The incrementally maintained objective and responsibilities must
        // agree with a from-scratch recompute over the final sample, under
        // the kernel the strategy optimizes: the full one for ES, the one
        // truncated at the locality cutoff for ES+Loc. The ES+Loc case is a
        // default build (ε from the data) long enough for its accepts to
        // accumulate rounding drift.
        let cases = [
            (InterchangeStrategy::ExpandShrink, 1_000, 13, 60),
            (InterchangeStrategy::ExpandShrinkLocality, 20_000, 13, 1_000),
        ];
        for (strategy, n, seed, k) in cases {
            let d = GeolifeGenerator::with_size(n, seed).generate();
            let kernel = GaussianKernel::for_dataset(&d);
            let config = VasConfig::new(k).with_strategy(strategy);
            let cutoff2 = match strategy {
                InterchangeStrategy::ExpandShrinkLocality => {
                    kernel.effective_radius(config.locality_threshold).powi(2)
                }
                _ => f64::INFINITY,
            };
            let mut s = VasSampler::from_dataset(&d, config);
            for p in d.iter() {
                s.observe(*p);
            }
            let sample = s.current_sample();
            let mut rsp = vec![0.0; sample.len()];
            for (i, a) in sample.iter().enumerate() {
                for (j, b) in sample.iter().enumerate() {
                    if i != j && a.dist2(b) <= cutoff2 {
                        rsp[i] += kernel.eval(a, b);
                    }
                }
            }
            let reference = rsp.iter().sum::<f64>() / 2.0;
            let label = strategy.label();
            let gap = (s.current_objective() - reference).abs() / reference;
            assert!(
                gap < 1e-9,
                "{label}: objective {} vs recompute {reference}, relative gap {gap:e}",
                s.current_objective()
            );
            let rsp_gap = s
                .current_responsibilities()
                .iter()
                .zip(&rsp)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(rsp_gap < 1e-6, "{label}: largest rsp gap {rsp_gap:e}");
        }
    }

    #[test]
    fn multi_pass_does_not_worsen_quality() {
        let d = GeolifeGenerator::with_size(2_000, 19).generate();
        let kernel = GaussianKernel::for_dataset(&d);
        let one = VasSampler::from_dataset(&d, VasConfig::new(400).with_passes(1)).build(&d);
        let three = VasSampler::from_dataset(&d, VasConfig::new(400).with_passes(3)).build(&d);
        let o1 = objective_of(&kernel, &one.points);
        let o3 = objective_of(&kernel, &three.points);
        assert!(o3 <= o1 + 1e-9, "more passes must not hurt: {o1} -> {o3}");
        assert_distinct(&three.points, "three passes");
    }

    #[test]
    fn streaming_without_dataset_resolves_bandwidth() {
        let d = small_dataset();
        let mut s = VasSampler::new(VasConfig::new(50));
        assert!(s.kernel().is_none());
        let sample = s.sample_dataset(&d);
        assert_eq!(sample.len(), 50);
    }

    #[test]
    fn short_stream_resolves_bandwidth_at_finalize() {
        let d = Dataset::from_points("short", (0..5).map(|i| Point::new(i as f64, 1.0)).collect());
        let mut s = VasSampler::new(VasConfig::new(50));
        let sample = s.sample_dataset(&d);
        assert_eq!(sample.len(), 5);
        assert!(s.kernel().is_some());
    }

    #[test]
    fn progress_events_are_emitted_and_monotone() {
        let d = small_dataset();
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink_events = events.clone();
        let mut s = VasSampler::from_dataset(&d, VasConfig::new(100).with_progress_every(500));
        s.set_progress_sink(Box::new(move |e| sink_events.lock().unwrap().push(e)));
        let _ = s.sample_dataset(&d);
        let events = events.lock().unwrap();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[1].tuples_processed > w[0].tuples_processed);
            assert!(w[1].replacements >= w[0].replacements);
            // After the fill phase the objective only decreases.
            if w[0].tuples_processed > 100 {
                assert!(w[1].objective <= w[0].objective + 1e-9);
            }
        }
    }

    #[test]
    fn vas_sample_is_more_spread_out_than_uniform() {
        // The qualitative claim behind Figure 1: VAS covers sparse regions.
        let d = small_dataset();
        let k = 300;
        let vas = VasSampler::from_dataset(&d, VasConfig::new(k)).sample_dataset_helper(&d);
        let uni = UniformSampler::new(k, 3).sample_dataset(&d);
        // Count occupied cells of a coarse grid: more occupied cells = better
        // spatial coverage.
        let occupied =
            |pts: &[Point]| vas_spatial::UniformGrid::build(pts, 30, 30).occupied_cells();
        assert!(
            occupied(&vas.points) >= occupied(&uni.points),
            "VAS should cover at least as many cells as uniform sampling"
        );
    }

    impl VasSampler {
        /// Test helper: run a full pass (avoids the name clash with the
        /// `Sampler` trait method inside this test module).
        fn sample_dataset_helper(mut self, d: &Dataset) -> Sample {
            self.sample_dataset(d)
        }
    }

    /// The most negative objective change any single swap achieves: every
    /// sample slot against every data point not in the sample, under the
    /// kernel truncated to pairs within `cutoff2` (`f64::INFINITY` for the
    /// full objective). Returns `(best change, objective)`.
    fn best_single_swap(
        kernel: &GaussianKernel,
        data: &[Point],
        sample: &[Point],
        cutoff2: f64,
    ) -> (f64, f64) {
        let kappa = |a: &Point, b: &Point| {
            if a.dist2(b) <= cutoff2 {
                kernel.eval(a, b)
            } else {
                0.0
            }
        };
        let mut rsp = vec![0.0; sample.len()];
        for (i, a) in sample.iter().enumerate() {
            for (j, b) in sample.iter().enumerate() {
                if i != j {
                    rsp[i] += kappa(a, b);
                }
            }
        }
        let objective = rsp.iter().sum::<f64>() / 2.0;
        let mut best = f64::INFINITY;
        for t in data.iter().filter(|t| !sample.contains(t)) {
            let row: Vec<f64> = sample.iter().map(|s| kappa(t, s)).collect();
            let total: f64 = row.iter().sum();
            for (i, &r) in rsp.iter().enumerate() {
                // Swapping slot i for t drops s_i's pairs and adds t's pairs
                // with the other K-1 slots.
                best = best.min(total - row[i] - r);
            }
        }
        (best, objective)
    }

    #[test]
    fn build_until_converged_reaches_a_local_optimum() {
        // A build under a pass cap it does not reach stops at Interchange's
        // fixpoint: no single swap of a sample point for a data point
        // outside the sample lowers the objective the strategy optimizes —
        // the full one for ES, the cutoff-truncated one for ES+Loc (which
        // ignores kernel values past the locality radius). Stopping there
        // changes nothing: the sample equals the one every pass up to the
        // cap makes, and holds each tuple once.
        let d = GeolifeGenerator::with_size(800, 23).generate();
        let kernel = GaussianKernel::for_dataset(&d);
        for strategy in [
            InterchangeStrategy::ExpandShrink,
            InterchangeStrategy::ExpandShrinkLocality,
        ] {
            let config = VasConfig::new(120)
                .with_strategy(strategy)
                .with_epsilon(kernel.bandwidth())
                .with_passes(20);
            let cutoff2 = match strategy {
                InterchangeStrategy::ExpandShrinkLocality => {
                    kernel.effective_radius(config.locality_threshold).powi(2)
                }
                _ => f64::INFINITY,
            };
            let passes = std::sync::Arc::new(std::sync::Mutex::new(0usize));
            let sink = std::sync::Arc::clone(&passes);
            let mut sampler =
                VasSampler::from_dataset(&d, config.clone().with_progress_every(d.len() as u64));
            sampler.set_progress_sink(Box::new(move |_| *sink.lock().unwrap() += 1));
            let sample = sampler.build(&d);
            let passes = *passes.lock().unwrap();
            let label = strategy.label();
            assert_eq!(sample.len(), 120, "{label}");
            assert!(
                (2..20).contains(&passes),
                "{label}: needs at least one refinement pass and must converge, got {passes}"
            );
            let mut every_pass = VasSampler::from_dataset(&d, config);
            for _ in 0..20 {
                every_pass.observe_chunk(&d.points);
            }
            assert_samples_bitwise_equal(
                &sample.points,
                &every_pass.finalize().points,
                &format!("{label}: stopped at the fixpoint vs 20 passes"),
            );
            assert_distinct(&sample.points, label);
            let (best, objective) = best_single_swap(&kernel, &d.points, &sample.points, cutoff2);
            assert!(
                best >= -1e-9 * objective,
                "{label}: a single swap lowers the objective {objective} by {}",
                -best
            );
        }
    }

    #[test]
    fn tracker_state_survives_streaming_reuse() {
        // finalize() resets the sampler; a second stream through the same
        // instance must behave exactly like a fresh sampler.
        let d = GeolifeGenerator::with_size(2_000, 71).generate();
        let eps = GaussianKernel::for_dataset(&d).bandwidth();
        let config = VasConfig::new(100)
            .with_strategy(InterchangeStrategy::ExpandShrinkLocality)
            .with_epsilon(eps);
        let mut reused = VasSampler::from_dataset(&d, config.clone());
        let _ = reused.sample_dataset(&d);
        let second = reused.sample_dataset(&d);
        let fresh = VasSampler::from_dataset(&d, config).sample_dataset(&d);
        assert_eq!(second.points, fresh.points);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(InterchangeStrategy::Naive.label(), "No ES");
        assert_eq!(InterchangeStrategy::ExpandShrink.label(), "ES");
        assert_eq!(InterchangeStrategy::ExpandShrinkLocality.label(), "ES+Loc");
    }

    fn assert_samples_bitwise_equal(a: &[Point], b: &[Point], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (p, q)) in a.iter().zip(b).enumerate() {
            assert!(
                p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits(),
                "{what}: slot {i} diverged: {p:?} vs {q:?}"
            );
        }
    }

    #[test]
    fn build_from_source_is_bit_identical_to_build() {
        // The streaming entry point must not change a single replacement
        // decision, including the ε resolution pre-pass (no epsilon in the
        // config → both paths must derive the same bandwidth).
        let d = GeolifeGenerator::with_size(4_000, 83).generate();
        for k in [0usize, 150] {
            let config = VasConfig::new(k);
            let reference = VasSampler::from_dataset(&d, config.clone()).build(&d);
            let mut streaming = VasSampler::new(config);
            let mut source = vas_stream::DatasetSource::with_chunk_size(&d, 257);
            let sample = streaming.build_from_source(&mut source).unwrap();
            assert_samples_bitwise_equal(&sample.points, &reference.points, "stream vs build");
        }
    }

    #[test]
    fn build_from_source_multi_pass_matches_build() {
        // A pass cap past convergence: both builds stop at the same
        // fixpoint.
        let d = GeolifeGenerator::with_size(1_500, 7).generate();
        let config = VasConfig::new(90).with_passes(30);
        let reference = VasSampler::from_dataset(&d, config.clone()).build(&d);
        let mut streaming = VasSampler::new(config);
        let mut source = vas_stream::DatasetSource::with_chunk_size(&d, 64);
        let sample = streaming.build_from_source(&mut source).unwrap();
        assert_samples_bitwise_equal(&sample.points, &reference.points, "multi-pass");
    }

    #[test]
    fn observe_chunk_equals_observe_loop_sequentially() {
        // The chunked entry point must be *the* per-point loop, not a
        // near-copy.
        let d = GeolifeGenerator::with_size(2_000, 101).generate();
        let config = VasConfig::new(100);
        let mut chunked = VasSampler::from_dataset(&d, config.clone());
        let mut plain = VasSampler::from_dataset(&d, config);
        for chunk in d.points.chunks(333) {
            chunked.observe_chunk(chunk);
        }
        for p in d.iter() {
            plain.observe(*p);
        }
        assert_samples_bitwise_equal(
            chunked.current_sample(),
            plain.current_sample(),
            "observe_chunk vs observe",
        );
        assert_eq!(chunked.replacements(), plain.replacements());
        assert_eq!(chunked.seen, plain.seen);
    }

    /// The exact ES+Loc Shrink decision over the libm lanes `exact`: the
    /// comparisons `shrink_apply_es_locality` makes, in its order.
    fn exact_shrink_rejects(rsp: &[f64], tracked: f64, ids: &[usize], exact: &[f64]) -> bool {
        let cand_rsp = exact.iter().fold(0.0, |sum, &v| sum + v);
        // Every value here is finite, so `<=` is the negation of the `>`
        // the Shrink step tests.
        tracked <= cand_rsp && ids.iter().zip(exact).all(|(&i, &v)| rsp[i] + v <= cand_rsp)
    }

    /// The partial certificate over the lanes `visited` (indices into
    /// `ids`/`lanes`, in that order), each unvisited lane bounded by
    /// `kappa_up` and the exact fold running over all `ids.len()` lanes.
    fn partial_certifies(
        delta: f64,
        rsp: &[f64],
        tracked: f64,
        kappa_up: f64,
        ids: &[usize],
        lanes: &[f64],
        visited: &[usize],
    ) -> bool {
        let ids: Vec<usize> = visited.iter().map(|&n| ids[n]).collect();
        let approx: Vec<f64> = visited.iter().map(|&n| lanes[n]).collect();
        let mut cert = Certificate::default();
        cert.visit(rsp, &ids, &approx);
        let unvisited = Unvisited {
            kappa_up,
            lane_bound: lanes.len(),
        };
        cert.rejects(delta, Some(tracked), Some(unvisited))
    }

    proptest::proptest! {
        /// Soundness of the Shrink rejection filter: over random
        /// neighbourhoods with engineered near-ties (a competitor at the
        /// tracked maximum or at a neighbour slot, from 4 ulps to 1e-6
        /// relative on either side of `cand_rsp`), a certified candidate is
        /// always one the exact Shrink rejects. Each lane set stays within
        /// the error its `lane_delta` admits: the bounded kernel lanes; libm
        /// lanes pushed by the evaluator's proven error bound against the
        /// filter (the competitor's lane up, every other lane down); libm
        /// lanes with random errors within that bound; and the libm lanes
        /// themselves at δ = 0, which leaves only the fold-rounding slack.
        ///
        /// Partial certificates are checked on the same cases: they visit
        /// the nearest lanes first, stopping after a quarter, half or three
        /// quarters of them (or at a random subset), bound every unvisited
        /// lane by the largest of their exact values as `κ_up`, size the
        /// slack by the full lane count, and take as tracked maximum the
        /// largest responsibility, as the sampler's tracker does.
        ///
        /// A last family makes an unvisited lane's rounding decide: that
        /// lane is the kernel's peak, folded first, so the visited lanes
        /// (each below half an ulp of one) vanish from `cand_rsp = 1`, while
        /// a slot at the tracked maximum `M ≈ A` makes `fl(M + 1) > 1`, and
        /// the exact Shrink accepts. Only `κ_up`'s share of the partial
        /// certificate's bound keeps it from rejecting.
        #[test]
        fn certified_rejections_are_exact_rejections(
            xs in proptest::collection::vec(0.0f64..14.0, 1..300),
            fracs in proptest::collection::vec(0.0f64..0.999, 300..301),
            seed in 0u64..u64::MAX,
            tiny_xs in proptest::collection::vec(37.0f64..38.5, 16..300),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            // The proven lane error of `eval_dist2_batch_bounded` (see
            // `BOUNDED_LANE_DELTA`).
            const PROVEN: f64 = 1e-8;
            let kernel = GaussianKernel::new(1.0);
            let n = xs.len();
            let dist2: Vec<f64> = xs.iter().map(|&x| 2.0 * x).collect();
            let mut exact = vec![0.0; n];
            kernel.eval_dist2_batch(&dist2, &mut exact);
            let mut bounded = vec![0.0; n];
            proptest::prop_assert!(kernel.eval_dist2_batch_bounded(&dist2, &mut bounded));
            let mut rng = StdRng::seed_from_u64(seed);
            let jittered: Vec<f64> = exact
                .iter()
                .map(|&e| e * (1.0 + rng.gen_range(-PROVEN..PROVEN)))
                .collect();
            let pushed = |up: Option<usize>| -> Vec<f64> {
                exact
                    .iter()
                    .enumerate()
                    .map(|(n, &e)| {
                        let sign = if up.is_none_or(|j| j == n) { 1.0 } else { -1.0 };
                        e * (1.0 + sign * PROVEN)
                    })
                    .collect()
            };

            let cand = exact.iter().fold(0.0, |sum, &v| sum + v);
            let mut competitors = vec![cand];
            for ulps in 1..=4u64 {
                competitors.push(f64::from_bits(cand.to_bits() + ulps));
                competitors.push(f64::from_bits(cand.to_bits() - ulps));
            }
            for decade in -15..=-6 {
                for m in [1.0, 2.0, 5.0] {
                    let t = m * 10f64.powi(decade);
                    competitors.extend([cand * (1.0 + t), cand * (1.0 - t)]);
                }
            }

            let ids: Vec<usize> = (0..n).collect();
            // Visited subsets for the partial certificates: nearest-first
            // prefixes, and a random subset in random order.
            let mut nearest: Vec<usize> = (0..n).collect();
            nearest.sort_by(|&a, &b| dist2[a].total_cmp(&dist2[b]));
            let mut subsets: Vec<Vec<usize>> =
                [n / 4, n / 2, 3 * n / 4].iter().map(|&m| nearest[..m].to_vec()).collect();
            let mut random: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.5)).collect();
            for i in (1..random.len()).rev() {
                random.swap(i, rng.gen_range(0..=i));
            }
            subsets.push(random);
            let kappa_ups: Vec<f64> = subsets
                .iter()
                .map(|visited| {
                    let mut unvisited = exact.clone();
                    for &i in visited {
                        unvisited[i] = 0.0;
                    }
                    unvisited.into_iter().fold(0.0, f64::max)
                })
                .collect();
            // Every neighbour strictly or nearly below the candidate.
            let base: Vec<f64> = exact.iter().zip(&fracs).map(|(&e, &f)| f * (cand - e)).collect();
            for &c in &competitors {
                // (competitor slot or the tracker, rsp, tracked maximum)
                let mut setups = vec![(None, base.clone(), c)];
                for j in [0, n / 2, n - 1] {
                    let mut rsp = base.clone();
                    rsp[j] = c - exact[j];
                    setups.push((Some(j), rsp, 0.5 * cand));
                }
                for (slot, rsp, tracked) in &setups {
                    let lane_sets = [
                        (BOUNDED_LANE_DELTA, &bounded),
                        (BOUNDED_LANE_DELTA, &pushed(*slot)),
                        (BOUNDED_LANE_DELTA, &jittered),
                        (0.0, &exact),
                    ];
                    let rsp_max = rsp.iter().fold(*tracked, |m, &r| m.max(r));
                    for (set, (delta, lanes)) in lane_sets.into_iter().enumerate() {
                        if certifies_reject(delta, rsp, Some(*tracked), &ids, lanes) {
                            proptest::prop_assert!(
                                exact_shrink_rejects(rsp, *tracked, &ids, &exact),
                                "lane set {set} certified an accept: n = {n}, competitor \
                                 {c:e} at {slot:?} vs cand_rsp {cand:e}"
                            );
                        }
                        for (visited, &kappa_up) in subsets.iter().zip(&kappa_ups) {
                            if partial_certifies(delta, rsp, rsp_max, kappa_up, &ids, lanes, visited) {
                                proptest::prop_assert!(
                                    exact_shrink_rejects(rsp, rsp_max, &ids, &exact),
                                    "lane set {set} partially certified an accept after {} of \
                                     {n} lanes: competitor {c:e} at {slot:?} vs cand_rsp {cand:e}",
                                    visited.len()
                                );
                            }
                        }
                    }
                }
            }

            // Lane 0 at distance 0 (value 1), then lanes near 1e-17 each.
            let dist2: Vec<f64> = std::iter::once(0.0).chain(tiny_xs.iter().map(|&x| 2.0 * x)).collect();
            let n = dist2.len();
            let mut exact = vec![0.0; n];
            kernel.eval_dist2_batch(&dist2, &mut exact);
            let mut bounded = vec![0.0; n];
            proptest::prop_assert!(kernel.eval_dist2_batch_bounded(&dist2, &mut bounded));
            let ids: Vec<usize> = (0..n).collect();
            let visited: Vec<usize> = (1..n).collect();
            for (delta, lanes) in [(BOUNDED_LANE_DELTA, &bounded), (0.0, &exact)] {
                let mut cert = Certificate::default();
                cert.visit(&vec![0.0; n], &ids[1..], &lanes[1..]);
                let slack = delta + 4.0 * (n as f64 + 4.0) * (f64::EPSILON / 2.0);
                let lower = (cert.sums.iter().sum::<f64>() + cert.rest) * (1.0 - slack);
                // The largest `M` a bound without `κ_up` lets through.
                let mut m = lower / (1.0 + slack);
                while lower < m + slack * m {
                    m = f64::from_bits(m.to_bits() - 1);
                }
                let mut rsp = vec![0.0; n];
                rsp[0] = m;
                proptest::prop_assert!(
                    !exact_shrink_rejects(&rsp, m, &ids, &exact)
                        && partial_certifies(delta, &rsp, m, 0.0, &ids, lanes, &visited),
                    "the peak-lane case lost its edge: n = {}", n
                );
                proptest::prop_assert!(
                    !partial_certifies(delta, &rsp, m, exact[0], &ids, lanes, &visited),
                    "δ = {:e}: partially certified an accept past an unvisited peak lane, n = {}",
                    delta, n
                );
            }
        }
    }

    /// A random trip at ε = 1: one point per step, steps of 0.02ε to 0.62ε
    /// in random directions, with occasional jumps across the domain.
    fn trip(steps: &[(f64, f64, f64)]) -> Vec<Point> {
        let (mut x, mut y) = (15.0, 15.0);
        let mut points = Vec::with_capacity(steps.len());
        for &(a, b, jump) in steps {
            if jump < 0.05 {
                (x, y) = (30.0 * a, 30.0 * b);
            } else {
                let (sin, cos) = (std::f64::consts::TAU * a).sin_cos();
                let len = 0.02 + 0.6 * b;
                (x, y) = (x + len * cos, y + len * sin);
            }
            points.push(Point::new(x, y));
        }
        points
    }

    /// `(slot, dist2 bits)` lanes, sorted, for comparing lane sets.
    fn lane_set(ids: &[usize], dist2: &[f64]) -> Vec<(usize, u64)> {
        let mut lanes: Vec<(usize, u64)> = ids
            .iter()
            .zip(dist2)
            .map(|(&i, d)| (i, d.to_bits()))
            .collect();
        lanes.sort_unstable();
        lanes
    }

    proptest::proptest! {
        /// The neighbourhood cache mirrors the index. Over random trips,
        /// whenever a cache is live after a tuple it holds exactly the slots
        /// within `reach` of its anchor, each at its slot's current position
        /// and in the ring its distance gives: after rebuilds, reuse, and
        /// the accepts that patch it.
        #[test]
        fn neighbourhood_cache_holds_exactly_the_slots_within_reach(
            steps in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 300..600),
            k in 10usize..60,
        ) {
            let config = VasConfig::new(k).with_epsilon(1.0);
            let mut s = VasSampler::new(config);
            let (mut live, mut live_accepts) = (0usize, 0usize);
            for p in trip(&steps) {
                let before = s.replacements();
                s.observe(p);
                let Some((anchor, reach2, entries)) = s.cache.contents() else {
                    continue;
                };
                live += 1;
                live_accepts += usize::from(s.replacements() > before);
                let mut held: Vec<usize> = entries.iter().map(|e| e.1).collect();
                held.sort_unstable();
                let within: Vec<usize> = (0..s.points.len())
                    .filter(|&i| s.points[i].dist2(&anchor) <= reach2)
                    .collect();
                proptest::prop_assert_eq!(held, within);
                for &(ring, slot, ex, ey) in &entries {
                    let p = s.points[slot];
                    proptest::prop_assert!(
                        ex.to_bits() == p.x.to_bits() && ey.to_bits() == p.y.to_bits(),
                        "slot {} cached at ({}, {}), sampled at {:?}", slot, ex, ey, p
                    );
                    proptest::prop_assert_eq!(ring, s.cache.expected_ring(p.dist2(&anchor)));
                }
            }
            proptest::prop_assert!(live > 0 && live_accepts > 0, "{} live, {} accepts", live, live_accepts);
        }

        /// Wherever the cache says it covers a point — the accept step asks
        /// for the removed slot's point — its lanes are the index gather's
        /// at the cutoff radius: the same `(slot, dist2)` set, with the same
        /// `dist2` bits. Probed over random trips with accepts at the
        /// anchor, the tuple just observed and every slot.
        #[test]
        fn cached_lanes_equal_the_gather_wherever_the_cache_covers(
            steps in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 300..600),
            k in 10usize..60,
        ) {
            let config = VasConfig::new(k).with_epsilon(1.0);
            let mut s = VasSampler::new(config);
            let mut gathered = NeighborBatch::new();
            let (mut covered, mut accepts) = (0usize, 0usize);
            for p in trip(&steps) {
                let before = s.replacements();
                s.observe(p);
                let Some((anchor, _, _)) = s.cache.contents() else {
                    continue;
                };
                accepts += usize::from(s.replacements() > before);
                let probes: Vec<Point> = [anchor, p].into_iter().chain(s.points.iter().copied()).collect();
                for probe in probes {
                    let Some((ids, dist2)) = s.cache.lanes_within(&probe, s.cutoff2) else {
                        continue;
                    };
                    covered += 1;
                    let cached = lane_set(ids, dist2);
                    s.index.gather_in_radius_into(&probe, s.cutoff, &mut gathered);
                    proptest::prop_assert_eq!(cached, lane_set(gathered.ids(), gathered.dist2()), "probe {:?}", probe);
                }
            }
            proptest::prop_assert!(covered > 0 && accepts > 0, "{} covered, {} accepts", covered, accepts);
        }
    }

    #[test]
    fn exact_fallbacks_cover_every_accept_and_few_rejects() {
        let d = GeolifeGenerator::with_size(20_000, 41).generate();
        let mut s = VasSampler::from_dataset(&d, VasConfig::new(300));
        s.observe_chunk(&d.points);
        let registry = s.recorder().registry();
        let accepts = registry.get(Counter::CoreAccepts);
        let fallbacks = registry.get(Counter::CoreExactFallbacks);
        let candidates = accepts + registry.get(Counter::CoreRejects);
        assert!(accepts > 0);
        assert!(
            fallbacks >= accepts,
            "{fallbacks} fallbacks < {accepts} accepts"
        );
        assert!(
            (fallbacks - accepts) * 1_000 < candidates,
            "{} near-ties out of {candidates} candidates",
            fallbacks - accepts
        );
        // A per-build counter, reset with the others.
        let _ = s.finalize();
        assert_eq!(s.recorder().registry().get(Counter::CoreExactFallbacks), 0);
    }

    // A bare spawn: the test checks that a sampler moves to a `'static`
    // thread wholesale, more than the scoped fan-out core asks of it.
    #[allow(clippy::disallowed_methods)]
    #[test]
    fn sampler_crosses_threads() {
        // The audit the sharded build relies on: a sampler can be moved to a
        // worker thread wholesale.
        fn assert_send<T: Send>() {}
        assert_send::<VasSampler>();
        let d = GeolifeGenerator::with_size(500, 3).generate();
        let handle = std::thread::spawn(move || {
            let mut s = VasSampler::from_dataset(&d, VasConfig::new(50));
            s.sample_dataset(&d).len()
        });
        assert_eq!(handle.join().unwrap(), 50);
    }

    fn temp_checkpoint(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "vas-core-ckpt-{}-{tag}.vascheckpt",
            std::process::id()
        ))
    }

    fn assert_samples_bit_equal(a: &Sample, b: &Sample, what: &str) {
        assert_eq!(a.points.len(), b.points.len(), "{what}: lengths differ");
        for (i, (p, q)) in a.points.iter().zip(&b.points).enumerate() {
            assert!(
                p.x.to_bits() == q.x.to_bits()
                    && p.y.to_bits() == q.y.to_bits()
                    && p.value.to_bits() == q.value.to_bits(),
                "{what}: point {i} differs"
            );
        }
    }

    /// Kill-and-resume at several chunk boundaries: the resumed build must
    /// reproduce the uninterrupted sample bit for bit.
    /// The input is 8 chunks long, so a two-pass build killed after chunk 11
    /// resumes 3 chunks into its second pass. (The strategy × input sweep
    /// lives in `tests/determinism.rs`.)
    #[test]
    fn checkpoint_resume_is_bit_identical_at_every_kill_point() {
        let d = GeolifeGenerator::with_size(4_000, 11).generate();
        for (passes, kills) in [(1, vec![1u64, 3, 5, 7]), (2, vec![3, 11])] {
            let config = VasConfig::new(120).with_passes(passes);
            let mut clean_src = vas_stream::DatasetSource::with_chunk_size(&d, 512);
            let clean = VasSampler::new(config.clone())
                .build_from_source(&mut clean_src)
                .unwrap();

            for kill_after in kills {
                let path = temp_checkpoint(&format!("{passes}-{kill_after}"));
                let policy = CheckpointPolicy::every(&path, 1).halting_after(kill_after);
                let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 512);
                let outcome = VasSampler::new(config.clone())
                    .build_from_source_checkpointed(&mut src, &policy)
                    .unwrap();
                let halted_in = match outcome {
                    BuildOutcome::Halted { pass, .. } => pass,
                    BuildOutcome::Complete(_) => panic!("{kill_after}: kill switch did not fire"),
                };
                assert_eq!(halted_in, (kill_after - 1) / 8, "{kill_after}");

                let resume_policy = CheckpointPolicy::every(&path, 1);
                let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 512);
                let (_, outcome) = VasSampler::resume_build_from_source(
                    config.clone(),
                    &mut src,
                    &resume_policy,
                    Recorder::detached(),
                )
                .unwrap();
                let resumed = outcome.into_sample().expect("resumed run completes");
                assert_samples_bit_equal(
                    &resumed,
                    &clean,
                    &format!("{passes} passes, killed after chunk {kill_after}"),
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }

    /// A checkpoint written mid-pass with a sparser cadence than the kill
    /// point: the resume re-processes the chunks after the last checkpoint
    /// and still lands on the clean sample's bits.
    #[test]
    fn resume_from_stale_checkpoint_reprocesses_the_gap() {
        let d = GeolifeGenerator::with_size(3_000, 7).generate();
        let config = VasConfig::new(80);
        let mut clean_src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
        let clean = VasSampler::new(config.clone())
            .build_from_source(&mut clean_src)
            .unwrap();

        let path = temp_checkpoint("stale");
        // Checkpoints at chunks 3, 6, 9…; killed after chunk 7 → resume
        // restarts from chunk 6's state and re-observes chunk 7.
        let policy = CheckpointPolicy::every(&path, 3).halting_after(7);
        let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
        let outcome = VasSampler::new(config.clone())
            .build_from_source_checkpointed(&mut src, &policy)
            .unwrap();
        assert!(outcome.is_halted());

        let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
        let (_, outcome) = VasSampler::resume_build_from_source(
            config,
            &mut src,
            &CheckpointPolicy::every(&path, 3),
            Recorder::detached(),
        )
        .unwrap();
        assert_samples_bit_equal(
            &outcome.into_sample().unwrap(),
            &clean,
            "stale checkpoint resume",
        );
        std::fs::remove_file(&path).ok();
    }

    /// Resume preconditions: a checkpoint must refuse a mismatching
    /// configuration or source.
    #[test]
    fn resume_rejects_mismatched_config_and_source() {
        let d = GeolifeGenerator::with_size(2_000, 5).generate();
        let config = VasConfig::new(60);
        let path = temp_checkpoint("mismatch");
        let policy = CheckpointPolicy::every(&path, 1).halting_after(2);
        let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
        VasSampler::new(config.clone())
            .build_from_source_checkpointed(&mut src, &policy)
            .unwrap();

        // Wrong budget.
        let err = VasSampler::restore(&path, VasConfig::new(61), Recorder::detached()).unwrap_err();
        assert!(matches!(err, VasError::Mismatch { .. }), "{err}");
        // Wrong locality threshold.
        let err = VasSampler::restore(
            &path,
            VasConfig {
                locality_threshold: 1e-7,
                ..VasConfig::new(60)
            },
            Recorder::detached(),
        )
        .unwrap_err();
        assert!(matches!(err, VasError::Mismatch { .. }), "{err}");
        // Wrong source (different chunk capacity).
        let mut other = vas_stream::DatasetSource::with_chunk_size(&d, 128);
        let err = VasSampler::resume_build_from_source(
            config.clone(),
            &mut other,
            &policy,
            Recorder::detached(),
        )
        .unwrap_err();
        assert!(matches!(err, VasError::Mismatch { .. }), "{err}");
        // Corrupted checkpoint: flip one byte.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = VasSampler::restore(&path, config, Recorder::detached()).unwrap_err();
        assert!(
            matches!(
                err,
                VasError::ChecksumMismatch { .. }
                    | VasError::Corrupt { .. }
                    | VasError::UnsupportedVersion { .. }
                    | VasError::Truncated { .. }
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Observes the first 1,000 points of `d` with a sampler for `config`,
    /// applies `tamper` to its state, checkpoints it and restores the
    /// checkpoint. The container is sealed as usual, so only the payload's
    /// own consistency checks stand between the tampered state and a resume.
    fn resume_tampered(
        d: &Dataset,
        tag: &str,
        config: &VasConfig,
        tamper: &dyn Fn(&mut VasSampler),
    ) -> Result<(), VasError> {
        let mut sampler = VasSampler::from_dataset(d, config.clone());
        sampler.observe_chunk(&d.points[..1_000]);
        tamper(&mut sampler);
        let path = temp_checkpoint(tag);
        sampler.write_checkpoint(&path, 0, 4, "src", 256).unwrap();
        let resumed = VasSampler::restore(&path, config.clone(), Recorder::detached());
        std::fs::remove_file(&path).ok();
        resumed.map(|_| ())
    }

    /// Asserts that every config in `configs` refuses the tampered
    /// checkpoint with `VasError::Checkpoint`.
    fn assert_refused(
        d: &Dataset,
        tag: &str,
        configs: &[&VasConfig],
        tamper: &dyn Fn(&mut VasSampler),
    ) {
        for config in configs {
            let err = resume_tampered(d, tag, config, tamper).unwrap_err();
            assert!(
                matches!(err, VasError::Checkpoint { .. }),
                "{tag} {:?}: {err}",
                config.strategy
            );
        }
    }

    /// A CRC-valid checkpoint whose sample contradicts its budget or its own
    /// index is refused with a typed error, instead of resuming into an
    /// out-of-bounds Shrink step or finalizing an over-budget sample.
    #[test]
    fn resume_rejects_checkpoints_that_contradict_their_config() {
        let d = GeolifeGenerator::with_size(2_000, 5).generate();
        let loc = VasConfig::new(60);
        let es = VasConfig::new(60).with_strategy(InterchangeStrategy::ExpandShrink);
        // Plain ES never indexes its sample, so its empty index is consistent.
        assert!(resume_tampered(&d, "untampered", &loc, &|_| {}).is_ok());
        assert!(resume_tampered(&d, "untampered-es", &es, &|_| {}).is_ok());
        let refused = |tag: &str, configs: &[&VasConfig], tamper: &dyn Fn(&mut VasSampler)| {
            assert_refused(&d, tag, configs, tamper)
        };
        refused("slot-moved", &[&loc], &|s| {
            let p = s.points[5];
            assert!(s.index.remove(5, &p));
            s.index.insert(500, p);
        });
        refused("extra-entry", &[&loc, &es], &|s| {
            s.index.insert(500, s.points[5])
        });
        refused("over-budget", &[&loc, &es], &|s| {
            for p in &d.points[1_000..1_040] {
                s.index.insert(s.points.len(), *p);
                s.points.push(*p);
                s.rsp.push(0.0);
            }
        });
    }

    /// An accept removes the replaced slot from the index by its `x`, `y`
    /// and `value` bits. A checkpoint whose slot differs from its index
    /// entry in the `value` bits alone would resume into a removal that
    /// finds nothing and leaves a ghost lane behind, so it is refused.
    /// `rsp` and the objective follow from the points under the kernel, so a
    /// checkpoint whose stored values disagree with a recompute — a doubled
    /// responsibility, a nudged objective, another ε, or (for the strategies
    /// without an index) a moved point — is refused, per strategy.
    #[test]
    fn resume_rejects_state_its_points_do_not_give() {
        let d = GeolifeGenerator::with_size(2_000, 5).generate();
        let loc = VasConfig::new(60);
        let es = VasConfig::new(60).with_strategy(InterchangeStrategy::ExpandShrink);
        let naive = VasConfig::new(60).with_strategy(InterchangeStrategy::Naive);
        let all = [&loc, &es, &naive];
        for config in all {
            assert!(resume_tampered(&d, "untampered-state", config, &|_| {}).is_ok());
        }
        assert_refused(&d, "rsp-doubled", &all, &|s| s.rsp[7] *= 2.0);
        assert_refused(&d, "objective-nudged", &all, &|s| {
            s.objective *= 1.01;
        });
        assert_refused(&d, "epsilon-changed", &all, &|s| {
            let epsilon = s.kernel.unwrap().epsilon();
            s.install_kernel(GaussianKernel::new(epsilon * 1.01));
        });
        assert_refused(&d, "point-moved", &[&es, &naive], &|s| {
            let epsilon = s.kernel.unwrap().epsilon();
            let q = s.points[4];
            s.points[3] = Point::with_value(q.x + 1e-3 * epsilon, q.y, q.value);
        });
    }

    #[test]
    fn resume_rejects_a_slot_whose_value_bits_its_index_entry_lacks() {
        let d = GeolifeGenerator::with_size(2_000, 5).generate();
        assert_refused(&d, "value-bit", &[&VasConfig::new(60)], &|s| {
            s.points[5].value = f64::from_bits(s.points[5].value.to_bits() ^ 1);
        });
    }

    /// Every fill and every replacement is one observed tuple, so a
    /// checkpoint must have seen at least as many tuples as it holds points
    /// plus replacements, and fewer than 2^63 so the counters can keep
    /// counting. Anything else would overflow on the next tuple.
    #[test]
    fn resume_rejects_counters_that_cannot_keep_counting() {
        let d = GeolifeGenerator::with_size(2_000, 5).generate();
        let loc = VasConfig::new(60);
        let es = VasConfig::new(60).with_strategy(InterchangeStrategy::ExpandShrink);
        let tight = |s: &mut VasSampler| s.points.len() as u64 + s.replacements;
        for config in [&loc, &es] {
            assert!(resume_tampered(&d, "seen-tight", config, &|s| s.seen = tight(s)).is_ok());
            assert_refused(&d, "seen-max", &[config], &|s| s.seen = u64::MAX);
            assert_refused(&d, "seen-2^63", &[config], &|s| s.seen = 1 << 63);
            assert_refused(&d, "seen-short", &[config], &|s| s.seen = tight(s) - 1);
            assert_refused(&d, "replacements-max", &[config], &|s| {
                s.replacements = u64::MAX
            });
        }
    }

    /// A checkpoint is written inside a pass, so its pass index is below the
    /// cap; one at the cap would resume into an empty pass loop and
    /// finalize the partial sample.
    #[test]
    fn resume_rejects_a_pass_index_past_the_cap() {
        let d = GeolifeGenerator::with_size(2_000, 5).generate();
        for passes in [1, 3] {
            let config = VasConfig::new(60).with_passes(passes);
            let mut sampler = VasSampler::from_dataset(&d, config.clone());
            sampler.observe_chunk(&d.points[..1_000]);
            let path = temp_checkpoint(&format!("pass-past-cap-{passes}"));
            for (pass, ok) in [(passes as u64 - 1, true), (passes as u64, false)] {
                sampler
                    .write_checkpoint(&path, pass, 4, "src", 256)
                    .unwrap();
                let resumed = VasSampler::restore(&path, config.clone(), Recorder::detached());
                match resumed {
                    Ok(_) => assert!(ok, "pass {pass} of {passes} restored"),
                    Err(err) => assert!(
                        !ok && matches!(err, VasError::Checkpoint { .. }),
                        "pass {pass} of {passes}: {err}"
                    ),
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// Older checkpoints are refused by the container before their payload
    /// is decoded: version 1 carried two flag bytes this build no longer
    /// reads, version 2 the speculative front's batch spacing, batch count
    /// and contained-panic tally, version 3 a locality-backend byte and a
    /// backend tag in front of the index snapshot.
    #[test]
    fn older_checkpoint_versions_resume_to_unsupported_version() {
        let d = GeolifeGenerator::with_size(1_000, 5).generate();
        let config = VasConfig::new(40);
        let mut sampler = VasSampler::from_dataset(&d, config.clone());
        sampler.observe_chunk(&d.points);
        for version in [1u32, 2, 3] {
            let path = temp_checkpoint(&format!("v{version}"));
            sampler.write_checkpoint(&path, 0, 1, "src", 256).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = VasSampler::restore(&path, config.clone(), Recorder::detached()).unwrap_err();
            std::fs::remove_file(&path).ok();
            assert!(
                matches!(err, VasError::UnsupportedVersion { found, .. } if found == version),
                "v{version}: {err}"
            );
        }
    }

    proptest::proptest! {
        /// Checkpoint round-trip under adversarial float payloads: values
        /// carry NaN / -0.0 / subnormal bit patterns (and coordinates may be
        /// -0.0 or subnormal — any finite bits), the build is killed at an
        /// arbitrary chunk boundary, and the resume must land on the clean
        /// build's bits exactly.
        #[test]
        fn checkpoint_round_trip_survives_special_float_payloads(
            raw in proptest::collection::vec(
                (-50.0f64..50.0, -50.0f64..50.0, -1.0e6f64..1.0e6, 0u8..8),
                300..700,
            ),
            kill_after in 1u64..6,
            chunk in 48usize..160,
        ) {
            let points: Vec<Point> = raw
                .iter()
                .map(|&(x, y, v, special)| {
                    // Smuggle the special bit patterns in through the value
                    // channel (any f64) and the coordinates (any finite f64).
                    let (x, y, v) = match special {
                        0 => (x, y, f64::NAN),
                        1 => (x, y, -0.0),
                        2 => (x, y, 5e-324),
                        3 => (-0.0, y, v),
                        4 => (x, 5e-324, v),
                        5 => (x, -0.0, -v),
                        _ => (x, y, v),
                    };
                    Point::with_value(x, y, v)
                })
                .collect();
            let d = Dataset::new("proptest", vas_data::DatasetKind::External, points);
            let config = VasConfig::new(40);
            let mut src = vas_stream::DatasetSource::with_chunk_size(&d, chunk);
            let clean = VasSampler::new(config.clone())
                .build_from_source(&mut src)
                .unwrap();

            let path = std::env::temp_dir().join(format!(
                "vas-core-ckpt-prop-{}-{kill_after}-{chunk}.vascheckpt",
                std::process::id()
            ));
            let policy = CheckpointPolicy::every(&path, 1).halting_after(kill_after);
            let mut src = vas_stream::DatasetSource::with_chunk_size(&d, chunk);
            let outcome = VasSampler::new(config.clone())
                .build_from_source_checkpointed(&mut src, &policy)
                .unwrap();
            let resumed = if outcome.is_halted() {
                let mut src = vas_stream::DatasetSource::with_chunk_size(&d, chunk);
                let (_, outcome) = VasSampler::resume_build_from_source(
                    config,
                    &mut src,
                    &CheckpointPolicy::every(&path, 1),
                    Recorder::detached(),
                )
                .unwrap();
                outcome.into_sample().unwrap()
            } else {
                // The kill point fell past the stream's end: the run
                // completed; its sample must already match.
                outcome.into_sample().unwrap()
            };
            std::fs::remove_file(&path).ok();
            proptest::prop_assert_eq!(resumed.points.len(), clean.points.len());
            for (p, q) in resumed.points.iter().zip(&clean.points) {
                proptest::prop_assert_eq!(p.x.to_bits(), q.x.to_bits());
                proptest::prop_assert_eq!(p.y.to_bits(), q.y.to_bits());
                proptest::prop_assert_eq!(p.value.to_bits(), q.value.to_bits());
            }
        }

        /// Arbitrary single-byte corruption or truncation anywhere in a
        /// checkpoint file must surface as a typed error from resume —
        /// never a panic, never a silently restored sampler. With `reseal`
        /// the length field and the CRC are rewritten after the mutation,
        /// as a writer of the mutated payload would have sealed it, so the
        /// mutation reaches the payload decoder: the resume then either
        /// fails with a typed error or runs to completion.
        #[test]
        fn corrupted_checkpoint_resumes_to_typed_errors(
            offset_frac in 0.0f64..1.0,
            flip in 1u8..255,
            truncate in proptest::bool::ANY,
            reseal in proptest::bool::ANY,
        ) {
            let d = GeolifeGenerator::with_size(1_500, 3).generate();
            let config = VasConfig::new(50);
            let path = std::env::temp_dir().join(format!(
                "vas-core-ckpt-corrupt-{}-{flip}-{truncate}-{reseal}.vascheckpt",
                std::process::id()
            ));
            let policy = CheckpointPolicy::every(&path, 1).halting_after(2);
            let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
            VasSampler::new(config.clone())
                .build_from_source_checkpointed(&mut src, &policy)
                .unwrap();

            let mut bytes = std::fs::read(&path).unwrap();
            let offset = ((bytes.len() - 1) as f64 * offset_frac) as usize;
            if truncate {
                bytes.truncate(offset);
            } else {
                bytes[offset] ^= flip;
            }
            // A file shorter than the container's fixed part has no length
            // field and CRC to rewrite.
            let resealed = reseal && bytes.len() >= 24;
            if resealed {
                let payload_len = bytes.len() - 24;
                bytes[12..20].copy_from_slice(&(payload_len as u64).to_le_bytes());
                let crc = vas_stream::crc32::crc32(&bytes[20..20 + payload_len]);
                bytes[20 + payload_len..].copy_from_slice(&crc.to_le_bytes());
            }
            std::fs::write(&path, &bytes).unwrap();
            let mut src = vas_stream::DatasetSource::with_chunk_size(&d, 256);
            let resumed = VasSampler::resume_build_from_source(
                config,
                &mut src,
                &CheckpointPolicy::every(&path, 0),
                Recorder::detached(),
            );
            std::fs::remove_file(&path).ok();
            match resumed {
                Ok((_, outcome)) => proptest::prop_assert!(
                    resealed && !outcome.is_halted(),
                    "an unsealed corruption resumed, or a resume did not complete"
                ),
                // A resealed payload can also name another run's config or
                // source.
                Err(err) => proptest::prop_assert!(
                    matches!(
                        err,
                        VasError::ChecksumMismatch { .. }
                            | VasError::Corrupt { .. }
                            | VasError::Truncated { .. }
                            | VasError::UnsupportedVersion { .. }
                            | VasError::Checkpoint { .. }
                    ) || (resealed && matches!(err, VasError::Mismatch { .. })),
                    "unexpected error shape: {}", err
                ),
            }
        }
    }

    #[test]
    fn build_from_source_propagates_source_errors() {
        // A CSV with a malformed row mid-stream must surface the error.
        let path =
            std::env::temp_dir().join(format!("vas-core-badsource-{}.csv", std::process::id()));
        std::fs::write(&path, "1.0,2.0\n3.0,4.0\nbroken,row,here\n").unwrap();
        let mut source = vas_stream::CsvSource::open(&path, "bad").unwrap();
        let mut sampler = VasSampler::new(VasConfig::new(10));
        let err = sampler.build_from_source(&mut source).unwrap_err();
        assert_eq!(err.io_kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }
}
