//! The two workloads, each a repeated build.
//!
//! * `geolife_pipeline` — the whole pipeline: spill the points with
//!   `ChunkedWriter`, stream them back through
//!   `VasSampler::build_from_source` at one thread, persist the sample with
//!   `save_catalog`, read the catalog back and let an analyst look at it
//!   (see `session`).
//! * `gauss_sharded_build` — in-memory points through `DatasetSource` into
//!   `ShardedSampler::build_sharded_from_source`, then `save_catalog`.
//!
//! Operations repeat until the measured phase is over, and every one is
//! checked against the first. Only calls into the program are timed.

use crate::metrics::Metrics;
use crate::repeated_setup;
use crate::session::{self, Answers, View};
use crate::trace::Spans;
use crate::{bitwise_eq, digest, layer_times, mean, peak_rss_mb, pinned, quantile};
use crate::{Config, Outcome, Scale, Tally, Workload};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use vas_core::{GaussianKernel, Kernel, ShardedSampler, VasConfig, VasSampler};
use vas_data::{
    BoundingBox, Dataset, DatasetKind, GaussianMixtureGenerator, GeolifeGenerator, Point,
};
use vas_eval::{LossConfig, LossEstimator};
use vas_obs::{Counter, MetricsRegistry, Phase, Recorder};
use vas_sampling::Sample;
use vas_spatial::{HashGrid, ShardPartitioner};
use vas_storage::{load_catalog, save_catalog, SampleCatalog};
use vas_stream::{ChunkedReader, ChunkedWriter, DatasetSource, PointSource, DEFAULT_CHUNK_SIZE};

/// Shards of `gauss_sharded_build`: one per core of the two-core machine the
/// benchmark was sized on.
const SHARDS: usize = 2;

/// Extent of the Geolife-like inputs: what the generator covers for most
/// seeds (its random-walk tails reach a little past it).
const GEOLIFE_EXTENT: BoundingBox = BoundingBox {
    min_x: 115.0,
    min_y: 38.4,
    max_x: 117.7,
    max_y: 40.95,
};

/// Extent of the Gaussian-mixture input, cut the same way.
const GAUSS_EXTENT: BoundingBox = BoundingBox {
    min_x: -7.0,
    min_y: -5.8,
    max_x: 5.3,
    max_y: 4.8,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Builds per run at least, so that their outputs can be compared.
const MIN_BUILDS: usize = 2;

struct Shape {
    n: usize,
    k: usize,
    /// Viewports the analyst looks at after each `geolife_pipeline` build.
    viewports: usize,
}

fn shape(workload: Workload, scale: Scale) -> Shape {
    match (workload, scale) {
        (Workload::GeolifePipeline, Scale::Full) => Shape {
            n: 1_000_000,
            k: 5_000,
            viewports: 400,
        },
        // Fewer sample points per grid cell than the Geolife build (see
        // README.md): a cell-sizing change moves the two in opposite
        // directions.
        (Workload::GaussShardedBuild, Scale::Full) => Shape {
            n: 1_000_000,
            k: 1_000,
            viewports: 0,
        },
        (Workload::GeolifePipeline, Scale::Tiny) => Shape {
            n: 20_000,
            k: 300,
            viewports: 40,
        },
        (Workload::GaussShardedBuild, Scale::Tiny) => Shape {
            n: 20_000,
            k: 100,
            viewports: 0,
        },
    }
}

struct Inputs {
    dataset: Dataset,
    kernel: GaussianKernel,
    estimator: LossEstimator,
    /// The analyst's table and viewports (`geolife_pipeline` only).
    view: Option<View>,
}

fn setup(workload: Workload, shape: &Shape, seed: u64, spans: &Spans) -> Inputs {
    let dataset = {
        let _s = spans.span("data.generate");
        // Generate 10 % more than needed: the few points outside the pinned
        // extent are dropped.
        let spare = shape.n + shape.n / 10;
        match workload {
            Workload::GeolifePipeline => pinned(
                format!("geolife-sim-{}", shape.n),
                DatasetKind::GeolifeSim,
                GeolifeGenerator::with_size(spare, seed).points(),
                shape.n,
                GEOLIFE_EXTENT,
            ),
            _ => pinned(
                format!("gaussian-mixture-{}", shape.n),
                DatasetKind::GaussianMixture,
                GaussianMixtureGenerator::paper_clustering_dataset(3, spare, seed).points(),
                shape.n,
                GAUSS_EXTENT,
            ),
        }
    };
    let view = (shape.viewports > 0).then(|| {
        let _s = spans.span("storage.table_load");
        View::new(&dataset, seed, shape.viewports)
    });
    let _s = spans.span("eval.loss_estimator");
    let kernel = GaussianKernel::for_dataset(&dataset);
    let estimator = LossEstimator::new(&dataset, &kernel, LossConfig::default());
    Inputs {
        dataset,
        kernel,
        estimator,
        view,
    }
}

/// Counters read while a build runs. The sampler resets its per-build
/// counters when it finalizes, so they are read by the source wrapper at
/// the start of every chunk request: the request that finds the stream
/// exhausted sees the totals.
#[derive(Debug, Default, Clone, Copy)]
struct CoreCounts {
    accepts: u64,
    rejects: u64,
    kernel_lanes: u64,
}

/// A [`PointSource`] that times every request into the wrapped source as
/// `stream.decode` and counts the points it hands out.
struct TimedSource<'t, S> {
    inner: S,
    spans: &'t Spans,
    registry: Arc<MetricsRegistry>,
    decoded: u64,
    core: CoreCounts,
}

impl<S: PointSource> PointSource for TimedSource<'_, S> {
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
        if self.spans.is_on() {
            self.core = CoreCounts {
                accepts: self.registry.get(Counter::CoreAccepts),
                rejects: self.registry.get(Counter::CoreRejects),
                kernel_lanes: self.registry.get(Counter::CoreKernelLanes),
            };
        }
        let _s = self.spans.span("stream.decode");
        let got = self.inner.next_chunk(buf)?;
        self.decoded += got as u64;
        Ok(got)
    }

    fn reset(&mut self) -> io::Result<()> {
        let _s = self.spans.span("stream.decode");
        self.inner.reset()
    }
}

/// What one build reports besides its sample.
#[derive(Debug, Default)]
struct BuildStats {
    spill_bytes: u64,
    decoded: u64,
    core: Option<CoreCounts>,
}

/// The build part of an operation: input → persisted catalog holding the
/// built sample.
fn build_once(
    workload: Workload,
    inputs: &Inputs,
    k: usize,
    dir: &Path,
    spans: &Spans,
    recorder: &Recorder,
) -> Result<(Sample, BuildStats), String> {
    let dataset = &inputs.dataset;
    let mut stats = BuildStats::default();
    let sample = match workload {
        Workload::GeolifePipeline => {
            let spill = dir.join("spill.vaschunk");
            {
                let _s = spans.span("stream.spill_write");
                let mut writer =
                    ChunkedWriter::create(&spill, &dataset.name, dataset.kind, DEFAULT_CHUNK_SIZE)
                        .map_err(|e| format!("creating the spill: {e}"))?;
                writer
                    .write_points(&dataset.points)
                    .map_err(|e| format!("writing the spill: {e}"))?;
                stats.spill_bytes = writer
                    .finish()
                    .map_err(|e| format!("finishing the spill: {e}"))?
                    .bytes;
            }
            let _s = spans.span("core.sample");
            let reader = {
                let _d = spans.span("stream.decode");
                ChunkedReader::open(&spill)
                    .map_err(|e| format!("opening the spill: {e}"))?
                    .with_recorder(recorder.clone())
            };
            let mut source = TimedSource {
                inner: reader,
                spans,
                registry: recorder.registry().clone(),
                decoded: 0,
                core: CoreCounts::default(),
            };
            let mut sampler = VasSampler::new(VasConfig::new(k)).with_recorder(recorder.clone());
            let sample = sampler
                .build_from_source(&mut source)
                .map_err(|e| format!("streaming build: {e}"))?;
            stats.decoded = source.decoded;
            stats.core = Some(source.core);
            sample
        }
        _ => {
            let _s = spans.span("core.sample");
            let mut source = DatasetSource::new(dataset);
            ShardedSampler::new(VasConfig::new(k), SHARDS)
                .with_recorder(recorder.clone())
                .build_sharded_from_source(&mut source)
                .map_err(|e| format!("sharded build: {e}"))?
        }
    };
    let _s = spans.span("storage.persist");
    let mut catalog = SampleCatalog::new();
    catalog.insert(sample.clone());
    save_catalog(&catalog, dir.join("catalog")).map_err(|e| format!("saving: {e}"))?;
    Ok((sample, stats))
}

/// The output checks of one build, against the first build of the run.
fn check_build(sample: &Sample, k: usize, first: Option<u64>, dir: &Path) -> Result<(), String> {
    if sample.len() != k {
        return Err(format!(
            "sample has {} points, expected K = {k}",
            sample.len()
        ));
    }
    let d = digest(&sample.points);
    if let Some(first) = first {
        if d != first {
            return Err(format!(
                "sample digest {d:016x} differs from the first build's {first:016x}"
            ));
        }
    }
    let loaded = load_catalog(dir.join("catalog")).map_err(|e| format!("load_catalog: {e}"))?;
    match loaded.samples() {
        [back]
            if bitwise_eq(&back.points, &sample.points)
                && back.target_size == sample.target_size
                && back.method == sample.method =>
        {
            Ok(())
        }
        other => Err(format!(
            "save_catalog → load_catalog did not round-trip ({} samples read back)",
            other.len()
        )),
    }
}

/// What one measured phase timed.
struct Measured {
    /// Wall time of each operation, counting only calls into the program.
    secs: Vec<f64>,
    /// The part of each operation from the first call into the build until
    /// the catalog is persisted.
    build_secs: Vec<f64>,
    first_sample: Option<Sample>,
    last: Option<(Sample, BuildStats, Arc<MetricsRegistry>)>,
    answers: Answers,
}

fn measured_phase(
    config: &Config,
    inputs: &Inputs,
    k: usize,
    dir: &Path,
    spans: &Spans,
    tally: &mut Tally,
    plant: &mut bool,
) -> Measured {
    let mut phase = Measured {
        secs: Vec::new(),
        build_secs: Vec::new(),
        first_sample: None,
        last: None,
        answers: Answers::default(),
    };
    let mut first_digest = None;
    let started = Instant::now();
    // Start another operation only if, at the mean pace so far, it would
    // overrun the measured phase by less than the phase has left, so the
    // phase ends as close to `seconds` as whole operations allow.
    while phase.secs.len() < MIN_BUILDS || {
        let elapsed = started.elapsed().as_secs_f64();
        elapsed + 0.5 * elapsed / phase.secs.len() as f64 <= config.seconds
    } {
        std::fs::remove_file(dir.join("spill.vaschunk")).ok();
        let registry = Arc::new(MetricsRegistry::new());
        let recorder = if spans.is_on() {
            Recorder::new(registry.clone()).with_timing(true)
        } else {
            Recorder::detached()
        };
        let t0 = Instant::now();
        let built = build_once(config.workload, inputs, k, dir, spans, &recorder);
        let build_secs = t0.elapsed().as_secs_f64();
        let mut secs = build_secs;
        if let (Ok((sample, _)), Some(view)) = (&built, &inputs.view) {
            let t0 = Instant::now();
            let loaded = {
                let _s = spans.span("storage.load");
                load_catalog(dir.join("catalog"))
            };
            secs += t0.elapsed().as_secs_f64();
            match loaded {
                Ok(catalog) => {
                    let before = phase.answers.total_s();
                    session::replay(
                        view,
                        &inputs.dataset,
                        &catalog,
                        sample,
                        spans,
                        tally,
                        plant,
                        &mut phase.answers,
                    );
                    secs += phase.answers.total_s() - before;
                }
                Err(e) => tally.record("catalog read", Err(format!("load_catalog: {e}"))),
            }
        }
        let _c = spans.span("bench.check");
        match built {
            Ok((sample, stats)) => {
                phase.secs.push(secs);
                phase.build_secs.push(build_secs);
                let checked = if std::mem::take(plant) {
                    let mut truncated = sample.clone();
                    truncated.points.pop();
                    check_build(&truncated, k, first_digest, dir)
                } else {
                    check_build(&sample, k, first_digest, dir)
                };
                tally.record("build", checked);
                if first_digest.is_none() {
                    first_digest = Some(digest(&sample.points));
                    phase.first_sample = Some(sample.clone());
                }
                phase.last = Some((sample, stats, registry));
            }
            Err(e) => {
                tally.record("build", Err(e));
                // A build that cannot run will not run on the next attempt
                // either; stop rather than spin until the deadline.
                break;
            }
        }
    }
    phase
}

pub(crate) fn run(config: &Config) -> Result<Outcome, String> {
    let shape = shape(config.workload, config.scale);
    let dir: PathBuf = config.work_dir.clone();
    let mut tally = Tally::default();
    let mut plant = config.plant_bad_output;
    let mut metrics = Metrics::default();

    if !config.trace {
        let quiet = Spans::new(false);
        let (inputs, setup_s) = repeated_setup(
            SETUP_REPEATS,
            &mut tally,
            || setup(config.workload, &shape, config.seed, &quiet),
            |i| digest(&i.dataset.points) ^ digest(i.estimator.probes()).rotate_left(1),
        );
        let phase = measured_phase(
            config, &inputs, shape.k, &dir, &quiet, &mut tally, &mut plant,
        );
        let first = phase
            .first_sample
            .ok_or("no build completed, so nothing was measured")?;
        metrics.set("setup_s", setup_s);
        metrics.set("points_per_s", shape.n as f64 / mean(&phase.build_secs));
        metrics.set("op_ms_mean", mean(&phase.secs) * 1e3);
        let loss = inputs
            .estimator
            .evaluate(&inputs.kernel, &first.points)
            .median;
        metrics.set("loss_median", loss);
        metrics.set("peak_rss_mb", peak_rss_mb()?);
        metrics.set("ok_rate", tally.ok_rate());
        return Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        });
    }

    // Traced: set-up and one measured phase under spans, then the same
    // phase untraced for the overhead ratio.
    let spans = Spans::new(true);
    let (inputs, traced, blank_ms) = {
        let _run = spans.span("run");
        let inputs = setup(config.workload, &shape, config.seed, &spans);
        let traced = measured_phase(
            config, &inputs, shape.k, &dir, &spans, &mut tally, &mut plant,
        );
        let blank_ms = match inputs.view {
            Some(_) => session::blank_canvas(&inputs.dataset, &spans),
            None => Vec::new(),
        };
        (inputs, traced, blank_ms)
    };
    layer_times(&spans, &mut metrics)?;
    let untraced = measured_phase(
        config,
        &inputs,
        shape.k,
        &dir,
        &Spans::new(false),
        &mut tally,
        &mut plant,
    );
    metrics.set(
        "obs.trace_overhead",
        mean(&traced.secs) / mean(&untraced.secs),
    );

    let (sample, stats, registry) = traced.last.ok_or("no traced build completed")?;
    let n = shape.n as f64;
    let seconds = |phase: Phase| registry.phase_total_ns(phase) as f64 * 1e-9;
    metrics.set("core.phase.candidate_eval_s", seconds(Phase::CandidateEval));
    metrics.set("core.phase.accept_churn_s", seconds(Phase::AcceptChurn));
    metrics.set(
        "par.contained_panics",
        registry.get(Counter::ParContainedPanics) as f64,
    );
    metrics.set(
        "stream.crc_failures",
        registry.get(Counter::StreamCrcFailures) as f64,
    );
    metrics.set(
        "stream.retries_absorbed",
        registry.get(Counter::StreamRetriesAbsorbed) as f64,
    );
    let (accepts, rejects) = match (config.workload, stats.core) {
        (Workload::GeolifePipeline, Some(core)) => {
            metrics.set("stream.spill_bytes_per_point", stats.spill_bytes as f64 / n);
            metrics.set(
                "stream.points_decoded_per_input_point",
                stats.decoded as f64 / n,
            );
            metrics.set(
                "core.kernel_lanes_per_reject",
                core.kernel_lanes as f64 / core.rejects.max(1) as f64,
            );
            (core.accepts, core.rejects)
        }
        _ => {
            metrics.set("par.phase.shard_fill_s", seconds(Phase::ShardFill));
            metrics.set("par.phase.shard_merge_s", seconds(Phase::ShardMerge));
            (
                registry.get(Counter::CoreShardAccepts),
                registry.get(Counter::CoreShardRejects),
            )
        }
    };
    metrics.set("core.accepts", accepts as f64);
    metrics.set("core.rejects", rejects as f64);
    metrics.set(
        "core.accept_ratio",
        accepts as f64 / (accepts + rejects).max(1) as f64,
    );

    // Grid and shard geometry of the finished build, computed outside any
    // timed window with the same cell size the sampler derives.
    let cell = inputs
        .kernel
        .effective_radius(VasConfig::new(shape.k).locality_threshold);
    let occupancy =
        HashGrid::from_entries(cell, sample.points.iter().copied().enumerate()).occupancy();
    metrics.set(
        "spatial.grid_cells_occupied",
        occupancy.cells_occupied as f64,
    );
    metrics.set(
        "spatial.grid_mean_points_per_cell",
        occupancy.mean_points_per_cell,
    );
    metrics.set(
        "spatial.grid_max_points_per_cell",
        occupancy.max_points_per_cell as f64,
    );
    if config.workload == Workload::GaussShardedBuild {
        let partitioner = ShardPartitioner::new(SHARDS, cell);
        let mut routed = [0u64; SHARDS];
        for p in &inputs.dataset.points {
            routed[partitioner.shard_of(p)] += 1;
        }
        let max = routed.iter().copied().max().unwrap_or(0) as f64;
        metrics.set("par.shard_imbalance", max / (n / SHARDS as f64));
    }
    if inputs.view.is_some() {
        viewport_metrics(&traced.answers, &blank_ms, &mut metrics);
    }
    metrics.set(
        "storage.persist_bytes",
        dir_bytes(&dir.join("catalog"))? as f64,
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Total size of the regular files in `dir`.
pub(crate) fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("reading {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Per-layer metrics of the analyst's session, from the traced phase and
/// the blank-canvas renders after it.
fn viewport_metrics(answers: &Answers, blank_ms: &[f64], metrics: &mut Metrics) {
    let p = |list: &[session::Answer], part: fn(&session::Answer) -> f64, q: f64| {
        quantile(&list.iter().map(part).collect::<Vec<_>>(), q)
    };
    let (budgeted, exact) = (&answers.budgeted, &answers.exact);
    let blank = quantile(blank_ms, 0.5);
    metrics.set("storage.query_ms_p50", p(budgeted, |a| a.query_ms, 0.5));
    metrics.set("storage.exact_query_ms_p50", p(exact, |a| a.query_ms, 0.5));
    metrics.set("viz.render_ms_p50", p(budgeted, |a| a.render_ms, 0.5));
    metrics.set("viz.exact_render_ms_p50", p(exact, |a| a.render_ms, 0.5));
    metrics.set("viz.blank_canvas_ms_p50", blank);
    let drawn: usize = budgeted.iter().map(|a| a.points).sum();
    let exact_drawn: usize = exact.iter().map(|a| a.points).sum();
    metrics.set(
        "storage.points_per_query",
        drawn as f64 / budgeted.len().max(1) as f64,
    );
    metrics.set(
        "storage.exact_points_per_query",
        exact_drawn as f64 / exact.len().max(1) as f64,
    );
    let above_blank_ms: f64 = budgeted.iter().map(|a| a.render_ms - blank).sum();
    metrics.set(
        "viz.render_ns_per_point",
        above_blank_ms * 1e6 / drawn.max(1) as f64,
    );
    metrics.set("session.viz_ms_p50", p(budgeted, session::Answer::ms, 0.5));
    metrics.set("session.viz_ms_p99", p(budgeted, session::Answer::ms, 0.99));
    metrics.set(
        "session.exact_viz_ms_p50",
        p(exact, session::Answer::ms, 0.5),
    );
    metrics.set(
        "session.exact_viz_ms_p90",
        p(exact, session::Answer::ms, 0.9),
    );
}
