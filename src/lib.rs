//! # vas — Visualization-Aware Sampling
//!
//! A Rust reproduction of *"Visualization-Aware Sampling for Very Large
//! Databases"* (Park, Cafarella, Mozafari — ICDE 2016).
//!
//! VAS selects a small subset of a large 2-D dataset such that scatter plots
//! and map plots rendered from the subset stay faithful to the full data at
//! every zoom level, letting interactive visualization tools answer in
//! milliseconds instead of minutes. This facade crate re-exports the public
//! API of the individual workspace crates:
//!
//! | module | contents |
//! |---|---|
//! | [`data`] | dataset generators (Geolife-like GPS traces, SPLOM, Gaussian mixtures), points, zoom workloads |
//! | [`spatial`] | the `HashGrid` spatial hash that ES+Loc keeps its sample in, plus a static k-d tree and grid substrates |
//! | [`sampling`] | the [`Sampler`](sampling::Sampler) trait and the uniform / stratified baselines |
//! | [`core`] | the VAS objective, the Interchange algorithm, density embedding |
//! | [`obs`] | observability: typed counters, one phase probe feeding spans and latency histograms, a tracer storing spans and events with a post-mortem dump, JSON/Prometheus exporters |
//! | [`par`] | deterministic parallel substrate: scoped ordered fan-out/fan-in, background pipeline stage |
//! | [`exact`] | exact (branch-and-bound) solvers for small instances |
//! | [`eval`] | Monte-Carlo loss, log-loss-ratio, Spearman correlation |
//! | [`viz`] | scatter/map rasterizer, viewports, colormaps, latency model |
//! | [`user_sim`] | simulated users for the regression / density / clustering studies |
//! | [`storage`] | columnar store, sample catalog, dynamic-reduction query engine |
//! | [`stream`] | out-of-core ingestion: the `PointSource` streaming pipeline and the chunked columnar spill format |
//! | [`binned`] | binned-aggregation (tile pyramid) baseline for comparison |
//!
//! ## Quick start
//!
//! ```
//! use vas::prelude::*;
//!
//! // 1. Generate (or load) a dataset. (Kept small so `cargo test` stays
//! //    fast; the samplers scale to millions of points.)
//! let data = GeolifeGenerator::with_size(2_000, 42).generate();
//!
//! // 2. Build a visualization-aware sample of 100 points.
//! let mut sampler = VasSampler::from_dataset(&data, VasConfig::new(100));
//! let sample = sampler.sample_dataset(&data);
//!
//! // 3. Optionally attach density counters (Section V of the paper).
//! let sample = vas::core::density::with_embedded_density(sample, &data);
//!
//! // 4. Render it.
//! let viewport = Viewport::fit(&sample.points, 640, 480);
//! let canvas = ScatterRenderer::new(PlotStyle::density_plot(6)).render_sample(&sample, &viewport);
//! assert!(canvas.ink(Color::WHITE) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vas_binned as binned;
pub use vas_core as core;
pub use vas_data as data;
pub use vas_eval as eval;
pub use vas_exact as exact;
pub use vas_obs as obs;
pub use vas_par as par;
pub use vas_sampling as sampling;
pub use vas_spatial as spatial;
pub use vas_storage as storage;
pub use vas_stream as stream;
pub use vas_user_sim as user_sim;
pub use vas_viz as viz;

/// The most commonly used types, importable with `use vas::prelude::*`.
pub mod prelude {
    pub use vas_binned::{TilePyramid, TilePyramidConfig};
    pub use vas_core::{
        density::with_embedded_density, embed_density, shard_budgets, BuildOutcome,
        CheckpointPolicy, GaussianKernel, InterchangeStrategy, Kernel, ShardedSampler, VasConfig,
        VasSampler,
    };
    pub use vas_data::{
        BoundingBox, Dataset, GaussianMixtureGenerator, GeolifeGenerator, Point, SplomGenerator,
        ZoomLevel, ZoomWorkload,
    };
    pub use vas_eval::{visual_similarity, LossConfig, LossEstimator, SimilarityConfig};
    pub use vas_exact::ExactSolver;
    pub use vas_obs::{
        parse_chrome_trace, Counter, EventRecord, EventValue, MetricsRegistry, MetricsSnapshot,
        Phase, Recorder, SpanContext, SpanRecord, Tracer,
    };
    pub use vas_sampling::{
        PoissonDiskSampler, Sample, Sampler, StratifiedSampler, UniformSampler,
    };
    pub use vas_spatial::{GridOccupancy, HashGrid, KdTree, ShardPartitioner, UniformGrid};
    pub use vas_storage::{SampleCatalog, Table, VizEngine, VizQuery};
    pub use vas_stream::{
        spill_dataset, spill_source, ChunkedReader, ChunkedWriter, CsvSource, DatasetSource,
        FaultInjectorSource, FaultPlan, GeolifeSource, PointSource, RetryPolicy, RetryingSource,
        StreamStats, TrackingSource, VasError,
    };
    pub use vas_user_sim::{ClusteringTask, DensityTask, RegressionTask, WorkerPopulation};
    pub use vas_viz::{
        Canvas, Color, Colormap, LatencyModel, PlotStyle, ScatterRenderer, SizeEncoding, Viewport,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_the_crates_together() {
        let data = GeolifeGenerator::with_size(1_000, 1).generate();
        let mut sampler = VasSampler::from_dataset(&data, VasConfig::new(50));
        let sample = sampler.sample_dataset(&data);
        assert_eq!(sample.len(), 50);
        let viewport = Viewport::fit(&sample.points, 100, 100);
        let canvas = ScatterRenderer::default_style().render_points(&sample.points, &viewport);
        assert!(canvas.ink(Color::WHITE) > 0);
    }
}
