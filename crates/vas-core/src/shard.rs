//! Sharded sampling: deterministic spatial partition → per-shard
//! Interchange → ordered merge.
//!
//! The single-sampler inner loop is kernel-bound; the next multiplier is
//! *across* samplers. [`ShardedSampler`] splits the input into `S` spatially
//! coherent sub-streams with the [`ShardPartitioner`] (a pure per-point
//! cell → shard function over the `HashGrid` decomposition), fans out one
//! fully independent Interchange sampler per shard — its own
//! `HashGrid`, its own budget, its own recorder clone — and reduces
//! the shard samples to the final K-sample with one more Interchange pass
//! in **ordered fan-in**.
//!
//! ## Determinism contract
//!
//! For a fixed shard count `S`, a sharded build is **bit-identical** across
//! chunk sizes, queue depths, scheduling and the in-memory vs streaming
//! entry points — the same contract every other path in this workspace
//! honours, pinned in `tests/determinism.rs`. The pieces:
//!
//! * shard *assignment* is a stateless per-point function (chunking and
//!   scheduling cannot move a point between shards),
//! * each shard sampler observes exactly its sub-stream in stream order
//!   (FIFO queues, one owner per sampler), and a sampler's output is
//!   already chunk-boundary-invariant,
//! * the merge consumes the shard samples in shard order on one thread.
//!
//! `S` itself is a **quality knob**, not a free parameter: different `S`
//! values select different (all deterministic) samples. `S = 1` is exactly
//! the unsharded build — the single shard gets the full `K` budget and the
//! merge pass reduces to an identity fill — so `build_sharded` with one
//! shard is bit-for-bit `build`.
//!
//! ## Budgets and border reconciliation
//!
//! For `S > 1` each shard gets its `split_ranges(K, S)` share plus a 50%
//! oversample. The union the merge sees is therefore ≈ 1.5 K points, and
//! the merge's Expand/Shrink pass does the *responsibility-weighted border
//! reconciliation*: points a shard over-selected near a shard border carry
//! high responsibility in the union and are exactly the ones the merge
//! drops first. The residual quality gap vs the unsharded sampler is
//! measured, never hidden: `tests/paper_claims.rs` bounds the loss ratio.

use crate::interchange::{VasConfig, VasSampler};
use crate::kernel::{GaussianKernel, Kernel};
use vas_data::{Dataset, Point};
use vas_obs::{Counter, Phase, Recorder};
use vas_par::{scatter_ordered, split_ranges, try_par_map_vec_ordered, WorkerPanic};
use vas_sampling::{Sample, Sampler};
use vas_spatial::ShardPartitioner;
use vas_stream::{DatasetSource, PointSource, VasError};

/// Chunks in flight per shard queue on the streaming path. Bounds producer
/// run-ahead (memory ≤ `S × depth` chunks) while still letting shard
/// workers evaluate batch `b` while the producer routes batch `b + 1`.
const SCATTER_DEPTH: usize = 4;

/// Per-shard sample budgets: each shard's `split_ranges(K, S)` share, plus
/// a 50% border oversample when `S > 1` (see the module docs). `S = 1`
/// gets exactly `K` — the invariant behind the `S = 1 ≡ unsharded`
/// equivalence.
pub fn shard_budgets(k: usize, shards: usize) -> Vec<usize> {
    let mut budgets = vec![0usize; shards];
    for (i, range) in split_ranges(k, shards).into_iter().enumerate() {
        budgets[i] = range.len();
    }
    if shards > 1 {
        for b in &mut budgets {
            *b += *b / 2;
        }
    }
    budgets
}

/// The sharded build driver: partition, per-shard Interchange fan-out,
/// ordered merge. See the [module docs](self) for the contract.
#[derive(Debug)]
pub struct ShardedSampler {
    config: VasConfig,
    shards: usize,
    recorder: Recorder,
}

impl ShardedSampler {
    /// Creates a sharded driver over `shards` shards; every shard sampler
    /// and the merge pass inherit `config` (strategy, locality threshold),
    /// with only the budget and the resolved bandwidth overridden per
    /// shard.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(config: VasConfig, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be at least 1");
        Self {
            config,
            shards,
            recorder: Recorder::detached(),
        }
    }

    /// Attaches a recorder (builder form). Shard workers record through
    /// clones of it — same registry, same tracer — so a traced sharded
    /// build yields one causal tree with `S` worker subtrees.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The configuration every shard sampler derives from.
    pub fn config(&self) -> &VasConfig {
        &self.config
    }

    /// The partitioner a build with this resolved `kernel` uses: cells are
    /// sized to the locality cutoff radius, matching the per-shard
    /// `HashGrid` geometry.
    fn partitioner(&self, kernel: &GaussianKernel) -> ShardPartitioner {
        ShardPartitioner::new(
            self.shards,
            kernel.effective_radius(self.config.locality_threshold),
        )
    }

    /// The per-shard sampler configuration: the shared config with the
    /// shard's budget and the globally resolved bandwidth. Fixing ε here is
    /// what keeps every shard (and the merge) on the *same* kernel the
    /// unsharded build would resolve — shards must not re-derive bandwidth
    /// from their own sub-stream's extent.
    fn shard_config(&self, budget: usize, epsilon: f64) -> VasConfig {
        let mut cfg = self.config.clone();
        cfg.k = budget;
        cfg.epsilon = Some(epsilon);
        cfg
    }

    /// In-memory sharded build: the counterpart of [`VasSampler::build`].
    /// Bit-identical to it at `shards == 1`; deterministic for any fixed
    /// shard count. It is the streaming build over the whole dataset as one
    /// chunk, so each shard observes its partition in one call.
    pub fn build_sharded(&mut self, dataset: &Dataset) -> Result<Sample, VasError> {
        let mut source = DatasetSource::with_chunk_size(dataset, dataset.len().max(1));
        self.build("build_sharded", &mut source)
    }

    /// Streaming sharded build: the counterpart of
    /// [`VasSampler::build_from_source`], in bounded memory — at most the
    /// shard samples plus `S × depth` in-flight chunks.
    ///
    /// The calling thread decodes and routes chunks; `S` persistent shard
    /// workers consume their queues *free-running* (the producer routes
    /// batch `b + 1` while workers evaluate batch `b` — see
    /// [`vas_par::scatter_ordered`]). Bit-identical to
    /// [`build_sharded`](Self::build_sharded) over the equivalent in-memory
    /// dataset, at any queue depth or chunk size.
    ///
    /// # Errors
    /// A source error fails the build with that error. A panic in a shard
    /// worker, or in the source while it is scanned for its bounds or feeds
    /// the shards, is contained: every worker is joined, the flight recorder
    /// is dumped, and the build returns [`VasError::WorkerPanic`].
    pub fn build_sharded_from_source<S: PointSource + Send>(
        &mut self,
        source: &mut S,
    ) -> Result<Sample, VasError> {
        self.build("build_sharded_from_source", source)
    }

    /// The one sharded build both entry points run, under a root span named
    /// `root_name`.
    fn build<S: PointSource + Send>(
        &mut self,
        root_name: &'static str,
        source: &mut S,
    ) -> Result<Sample, VasError> {
        let mut root = self.recorder.span(root_name);
        if let Some(n) = source.len_hint() {
            root.attr("n", n);
        }
        root.attr("k", self.config.k);
        root.attr("shards", self.shards);
        root.attr("passes", self.config.passes.max(1));
        let recorder = self.recorder.clone();
        let fatal = |err: VasError| {
            let _ = recorder.fatal(&err.to_string());
            err
        };
        let worker_panic = |context: &str, panic: WorkerPanic| {
            fatal(VasError::WorkerPanic {
                context: context.into(),
                panicked_workers: panic.panicked_workers,
            })
        };
        let kernel = match self.config.epsilon {
            Some(eps) => GaussianKernel::new(eps),
            None => {
                // Same ε-resolution as the unsharded streaming path: a
                // bounds scan in stream order, so the resolved kernel is
                // bit-identical to the one the unsharded build derives. It
                // runs as one stripe of the contained fan-out core, on the
                // calling thread, so a source that panics here ends the
                // build like one that panics while feeding the shards.
                let stats = try_par_map_vec_ordered(&recorder, 1, vec![&mut *source], |_, src| {
                    src.reset()?;
                    vas_stream::scan_stats(src)
                })
                .map_err(|panic| worker_panic("sharded bounds scan", panic))?
                .pop()
                .expect("one stripe")
                .map_err(|e| fatal(VasError::from(e)))?;
                GaussianKernel::for_bounds(&stats.bounds)
            }
        };
        let partitioner = self.partitioner(&kernel);
        let epsilon = kernel.epsilon();
        let shards = self.shards;
        let passes = self.config.passes.max(1);
        let workers: Vec<VasSampler> = shard_budgets(self.config.k, shards)
            .into_iter()
            .map(|budget| {
                VasSampler::new(self.shard_config(budget, epsilon)).with_recorder(recorder.clone())
            })
            .collect();
        let shard_samples = scatter_ordered(
            &recorder,
            SCATTER_DEPTH,
            workers.into_iter().map(|s| (s, 0u64)).collect(),
            |send| -> Result<(), VasError> {
                let mut buf = Vec::new();
                for _ in 0..passes {
                    source.reset().map_err(|e| fatal(VasError::from(e)))?;
                    while source
                        .next_chunk(&mut buf)
                        .map_err(|e| fatal(VasError::from(e)))?
                        > 0
                    {
                        let mut parts: Vec<Vec<Point>> = (0..shards).map(|_| Vec::new()).collect();
                        partitioner.scatter_chunk(&buf, &mut parts);
                        for (shard, points) in parts.into_iter().enumerate() {
                            // A dead queue means that worker panicked; stop
                            // feeding and let the fan-out report it.
                            if !points.is_empty() && !send(shard, points) {
                                return Ok(());
                            }
                        }
                    }
                }
                Ok(())
            },
            |_, (sampler, fed), points: Vec<Point>| {
                let _fill = recorder.phase(Phase::ShardFill);
                *fed += points.len() as u64;
                sampler.observe_chunk(&points);
            },
            |shard, (sampler, fed)| finish_shard(&recorder, shard, sampler, fed),
        )
        .map_err(|panic| worker_panic("sharded build", panic))??;
        Ok(self.merge_shard_samples(epsilon, shard_samples))
    }

    /// The ordered merge: one Interchange pass over the shard-sample union,
    /// consumed in shard order on the calling thread. Runs exactly one pass
    /// regardless of `config.passes` (shard workers already replayed the
    /// configured passes over the raw data), which is also what keeps the
    /// `S = 1` union — exactly `K` points — an identity fill.
    fn merge_shard_samples(&self, epsilon: f64, shard_samples: Vec<Vec<Point>>) -> Sample {
        let mut phase = self.recorder.phase(Phase::ShardMerge);
        phase.attr("shards", shard_samples.len());
        let union: usize = shard_samples.iter().map(Vec::len).sum();
        phase.attr("union_len", union);
        let mut cfg = self.shard_config(self.config.k, epsilon);
        cfg.passes = 1;
        let mut merger = VasSampler::new(cfg).with_recorder(self.recorder.clone());
        for points in &shard_samples {
            merger.observe_chunk(points);
        }
        merger.finalize()
    }
}

/// Finalizes one shard worker: captures its tallies *before* `finalize`
/// resets the shared registry's per-build counters, accumulates them into
/// the lifetime shard aggregates, and records a `shard_built` event.
fn finish_shard(
    recorder: &Recorder,
    shard: usize,
    mut sampler: VasSampler,
    fed: u64,
) -> Vec<Point> {
    let replacements = sampler.replacements();
    let sample = sampler.finalize();
    let accepts = sample.points.len() as u64 + replacements;
    recorder.inc(Counter::CoreShardAccepts, accepts);
    recorder.inc(Counter::CoreShardRejects, fed.saturating_sub(accepts));
    recorder.event(
        "shard_built",
        &[
            ("shard", (shard as u64).into()),
            ("budget", (sample.target_size as u64).into()),
            ("sample_len", (sample.points.len() as u64).into()),
            ("fed", fed.into()),
            ("replacements", replacements.into()),
        ],
    );
    sample.points
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_data::GeolifeGenerator;

    fn dataset(n: usize) -> Dataset {
        GeolifeGenerator::with_size(n, 20_160_516).generate()
    }

    fn assert_bitwise(a: &[Point], b: &[Point], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.x.to_bits() == y.x.to_bits()
                    && x.y.to_bits() == y.y.to_bits()
                    && x.value.to_bits() == y.value.to_bits(),
                "{what}: point {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn budgets_sum_to_k_at_one_shard_and_oversample_above() {
        assert_eq!(shard_budgets(100, 1), vec![100]);
        let b = shard_budgets(100, 4);
        assert_eq!(b.len(), 4);
        assert!(b.iter().sum::<usize>() > 100, "S > 1 must oversample");
        assert!(b.iter().sum::<usize>() <= 150 + 4);
        // More shards than budget: trailing shards get zero, never panic
        // (and a budget of 1 has no half to oversample).
        let tiny = shard_budgets(2, 4);
        assert_eq!(tiny, vec![1, 1, 0, 0]);
    }

    #[test]
    fn one_shard_matches_unsharded_build_bitwise() {
        let data = dataset(3_000);
        let config = VasConfig::new(150);
        let reference = VasSampler::new(config.clone()).build(&data);
        let sharded = ShardedSampler::new(config, 1).build_sharded(&data).unwrap();
        assert_bitwise(
            &reference.points,
            &sharded.points,
            "S=1 sharded vs unsharded",
        );
    }

    #[test]
    fn streaming_matches_in_memory_for_every_shard_count() {
        let data = dataset(3_000);
        for shards in [1usize, 2, 4] {
            let config = VasConfig::new(120);
            let reference = ShardedSampler::new(config.clone(), shards)
                .build_sharded(&data)
                .unwrap();
            for chunk in [277usize, 1_024] {
                let mut source = vas_stream::DatasetSource::with_chunk_size(&data, chunk);
                let got = ShardedSampler::new(config.clone(), shards)
                    .build_sharded_from_source(&mut source)
                    .expect("in-memory source cannot fail");
                assert_bitwise(
                    &reference.points,
                    &got.points,
                    &format!("shards {shards} chunk {chunk}"),
                );
            }
        }
    }

    #[test]
    fn sharded_build_reports_shard_tallies_and_one_causal_tree() {
        use std::sync::Arc;
        let data = dataset(2_000);
        let tracer = Arc::new(vas_obs::Tracer::new());
        let recorder = Recorder::detached().with_tracer(Arc::clone(&tracer));
        let shards = 3;
        let sample = ShardedSampler::new(VasConfig::new(90), shards)
            .with_recorder(recorder.clone())
            .build_sharded(&data)
            .unwrap();
        assert_eq!(sample.points.len(), 90);
        let snap = recorder.registry().snapshot();
        assert!(snap.counter(Counter::CoreShardAccepts) >= 90);
        let built = tracer.events();
        assert_eq!(
            built.iter().filter(|e| e.name == "shard_built").count(),
            shards
        );
        let spans = tracer.spans();
        let root: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(root.len(), 1, "exactly one build root");
        assert_eq!(root[0].name, "build_sharded");
        // One worker subtree per shard, plus the bounds scan's stripe, which
        // runs on the calling thread.
        let (scans, workers): (Vec<_>, Vec<_>) = spans
            .iter()
            .filter(|s| s.name == "worker_task")
            .partition(|s| s.thread == root[0].thread);
        assert_eq!((scans.len(), workers.len()), (1, shards));
        let fills: Vec<_> = spans.iter().filter(|s| s.name == "shard_fill").collect();
        assert_eq!(fills.len(), shards);
        for fill in fills {
            let parent = spans.iter().find(|s| Some(s.id) == fill.parent).unwrap();
            assert_eq!(
                parent.name, "worker_task",
                "shard_fill runs inside its worker"
            );
        }
        assert!(spans.iter().any(|s| s.name == "shard_merge"));
    }

    #[test]
    fn an_infinite_coordinate_changes_no_build_path() {
        // One `(∞, y)` point after the fill. Every entry point must derive ε
        // from the finite points alone and skip the point, so the sample
        // equals the one built without it, bit for bit.
        let clean = dataset(3_000);
        let mut points = clean.points.clone();
        points.insert(1_700, Point::new(f64::INFINITY, points[0].y));
        let dirty = Dataset::from_points(clean.name.clone(), points);
        let config = VasConfig::new(120);
        use vas_stream::DatasetSource;
        let both = |what: &str, build: &dyn Fn(&Dataset) -> Sample| {
            assert_bitwise(&build(&clean).points, &build(&dirty).points, what);
        };
        both("in-memory", &|d| VasSampler::new(config.clone()).build(d));
        both("streaming", &|d| {
            VasSampler::new(config.clone())
                .build_from_source(&mut DatasetSource::with_chunk_size(d, 277))
                .expect("in-memory source cannot fail")
        });
        both("sharded", &|d| {
            ShardedSampler::new(config.clone(), 2)
                .build_sharded(d)
                .unwrap()
        });
        both("sharded streaming", &|d| {
            ShardedSampler::new(config.clone(), 2)
                .build_sharded_from_source(&mut DatasetSource::with_chunk_size(d, 277))
                .expect("in-memory source cannot fail")
        });
    }

    #[test]
    fn shard_counts_are_a_quality_knob_not_a_lottery() {
        // Different S may select different samples, but each S is stable:
        // building twice gives the same bits.
        let data = dataset(2_500);
        for shards in [2usize, 4] {
            let config = VasConfig::new(100);
            let a = ShardedSampler::new(config.clone(), shards)
                .build_sharded(&data)
                .unwrap();
            let b = ShardedSampler::new(config, shards)
                .build_sharded(&data)
                .unwrap();
            assert_bitwise(&a.points, &b.points, &format!("rebuild at S={shards}"));
            assert_eq!(a.points.len(), 100);
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let result = std::panic::catch_unwind(|| ShardedSampler::new(VasConfig::new(10), 0));
        assert!(result.is_err());
    }
}
