//! The offline sample catalog.
//!
//! Section II-D of the paper: samples are built **offline**, like an index,
//! for the column pairs that are frequently visualized; at query time the
//! database picks a pre-built sample whose size fits the latency budget.
//! [`SampleCatalog`] is that ladder of samples for one projected dataset:
//! a sorted collection of samples of increasing size, each tagged with the
//! method that produced it, plus the selection rule "largest sample not
//! exceeding the budget".

use vas_data::Dataset;
use vas_obs::{Counter, Phase, Recorder};
use vas_sampling::{Sample, Sampler};

/// A ladder of pre-built samples of increasing size for one dataset
/// projection.
#[derive(Debug, Clone, Default)]
pub struct SampleCatalog {
    /// Samples sorted by ascending actual size.
    samples: Vec<Sample>,
}

impl SampleCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a catalog by running `sampler_factory(k)` for every size in
    /// `sizes` over the same dataset. The factory lets callers choose the
    /// method (uniform, stratified, VAS) and per-size configuration.
    pub fn build<S, F>(dataset: &Dataset, sizes: &[usize], sampler_factory: F) -> Self
    where
        S: Sampler,
        F: FnMut(usize) -> S,
    {
        Self::build_recorded(dataset, sizes, sampler_factory, &Recorder::detached())
    }

    /// [`build`](Self::build) with a [`Recorder`]: each per-size run counts
    /// into `storage_catalog_samples_built` and, with timing enabled, feeds
    /// its wall-clock into the `catalog_build` phase histogram.
    pub fn build_recorded<S, F>(
        dataset: &Dataset,
        sizes: &[usize],
        mut sampler_factory: F,
        recorder: &Recorder,
    ) -> Self
    where
        S: Sampler,
        F: FnMut(usize) -> S,
    {
        let mut catalog = Self::new();
        for &k in sizes {
            let mut sampler = sampler_factory(k);
            let sample = {
                let mut phase = recorder.phase(Phase::CatalogBuild);
                phase.attr("k", k);
                sampler.sample_dataset(dataset)
            };
            recorder.inc(Counter::StorageCatalogSamplesBuilt, 1);
            catalog.insert(sample);
        }
        catalog
    }

    /// [`build`](Self::build) with the per-size sampler runs fanned out over
    /// `threads` scoped workers (`0` = available parallelism).
    ///
    /// The samplers are constructed by `sampler_factory` on the calling
    /// thread **in `sizes` order** (so a stateful factory — seeding, say —
    /// behaves exactly as in the sequential build), each worker runs one
    /// sampler over the shared dataset, and the finished samples are
    /// inserted in `sizes` order — the ordered-index reduction that makes
    /// the catalog bit-identical to the sequential build at any thread
    /// count. Sampler runs over the same dataset are independent, so the
    /// ladder build scales with its size count.
    pub fn build_parallel<S, F>(
        dataset: &Dataset,
        sizes: &[usize],
        sampler_factory: F,
        threads: usize,
    ) -> Self
    where
        S: Sampler + Send,
        F: FnMut(usize) -> S,
    {
        Self::build_parallel_recorded(
            dataset,
            sizes,
            sampler_factory,
            threads,
            &Recorder::detached(),
        )
    }

    /// [`build_parallel`](Self::build_parallel) with a [`Recorder`]: the
    /// fan-out counts worker tasks into the registry
    /// ([`vas_par::par_map_vec_ordered_recorded`]), each per-size run counts
    /// into `storage_catalog_samples_built` and, with timing enabled, feeds
    /// the `catalog_build` phase histogram.
    pub fn build_parallel_recorded<S, F>(
        dataset: &Dataset,
        sizes: &[usize],
        mut sampler_factory: F,
        threads: usize,
        recorder: &Recorder,
    ) -> Self
    where
        S: Sampler + Send,
        F: FnMut(usize) -> S,
    {
        let samplers: Vec<S> = sizes.iter().map(|&k| sampler_factory(k)).collect();
        let samples =
            vas_par::par_map_vec_ordered_recorded(recorder, threads, samplers, |i, mut sampler| {
                let sample = {
                    let mut phase = recorder.phase(Phase::CatalogBuild);
                    phase.attr("size_index", i);
                    sampler.sample_dataset(dataset)
                };
                recorder.inc(Counter::StorageCatalogSamplesBuilt, 1);
                sample
            });
        let mut catalog = Self::new();
        for sample in samples {
            catalog.insert(sample);
        }
        catalog
    }

    /// Builds a **nested** ladder: the largest sample is drawn from the full
    /// dataset, and every smaller sample is drawn from the next larger one,
    /// so `S_100 ⊆ S_1000 ⊆ S_10000 ⊆ D`.
    ///
    /// Nesting has two practical benefits for the offline-index use case of
    /// Section II-D: the total construction cost is dominated by the single
    /// largest run (the smaller ones scan only the previous sample), and a
    /// client that upgrades its latency budget mid-session only receives
    /// *additional* points rather than a disjoint set, so already-rendered
    /// dots never disappear.
    pub fn build_nested<S, F>(dataset: &Dataset, sizes: &[usize], mut sampler_factory: F) -> Self
    where
        S: Sampler,
        F: FnMut(usize) -> S,
    {
        let mut catalog = Self::new();
        let mut ordered: Vec<usize> = sizes.to_vec();
        ordered.sort_unstable();
        ordered.dedup();

        let mut source = dataset.clone();
        for &k in ordered.iter().rev() {
            let mut sampler = sampler_factory(k);
            let sample = sampler.sample_dataset(&source);
            source = Dataset::from_points(format!("{}[{k}]", dataset.name), sample.points.clone());
            catalog.insert(sample);
        }
        catalog
    }

    /// Adds a sample to the catalog.
    pub fn insert(&mut self, sample: Sample) {
        self.samples.push(sample);
        self.samples.sort_by_key(Sample::len);
    }

    /// Number of samples stored.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the catalog holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The stored samples, sorted by ascending size.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The available sample sizes, ascending.
    pub fn sizes(&self) -> Vec<usize> {
        self.samples.iter().map(Sample::len).collect()
    }

    /// The largest sample whose size does not exceed `max_points` — the
    /// paper's budget-to-sample conversion. Returns `None` when every stored
    /// sample is larger than the budget (the caller then either renders
    /// nothing or falls back to the smallest sample, a policy decision left
    /// to the engine).
    pub fn best_within(&self, max_points: usize) -> Option<&Sample> {
        self.samples.iter().rev().find(|s| s.len() <= max_points)
    }

    /// The smallest stored sample, if any.
    pub fn smallest(&self) -> Option<&Sample> {
        self.samples.first()
    }

    /// The largest stored sample, if any.
    pub fn largest(&self) -> Option<&Sample> {
        self.samples.last()
    }

    /// Total number of points stored across all samples (the storage
    /// footprint of the "index").
    pub fn total_points(&self) -> usize {
        self.samples.iter().map(Sample::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_data::GeolifeGenerator;
    use vas_sampling::UniformSampler;

    fn dataset() -> Dataset {
        GeolifeGenerator::with_size(5_000, 61).generate()
    }

    fn catalog() -> SampleCatalog {
        SampleCatalog::build(&dataset(), &[100, 1_000, 2_500], |k| {
            UniformSampler::new(k, 42)
        })
    }

    #[test]
    fn build_creates_one_sample_per_size() {
        let c = catalog();
        assert_eq!(c.len(), 3);
        assert_eq!(c.sizes(), vec![100, 1_000, 2_500]);
        assert_eq!(c.total_points(), 3_600);
        assert!(!c.is_empty());
    }

    #[test]
    fn best_within_picks_the_largest_fitting_sample() {
        let c = catalog();
        assert_eq!(c.best_within(5_000).unwrap().len(), 2_500);
        assert_eq!(c.best_within(2_500).unwrap().len(), 2_500);
        assert_eq!(c.best_within(2_499).unwrap().len(), 1_000);
        assert_eq!(c.best_within(100).unwrap().len(), 100);
        assert!(c.best_within(99).is_none());
    }

    #[test]
    fn smallest_and_largest() {
        let c = catalog();
        assert_eq!(c.smallest().unwrap().len(), 100);
        assert_eq!(c.largest().unwrap().len(), 2_500);
        let empty = SampleCatalog::new();
        assert!(empty.smallest().is_none());
        assert!(empty.best_within(1_000).is_none());
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        let d = dataset();
        let sizes = [100usize, 400, 1_000, 2_500];
        let sequential = SampleCatalog::build(&d, &sizes, |k| UniformSampler::new(k, 42));
        for threads in [1usize, 2, 4] {
            let parallel =
                SampleCatalog::build_parallel(&d, &sizes, |k| UniformSampler::new(k, 42), threads);
            assert_eq!(parallel.sizes(), sequential.sizes(), "threads {threads}");
            for (a, b) in parallel.samples().iter().zip(sequential.samples()) {
                assert_eq!(a.method, b.method);
                assert_eq!(a.points.len(), b.points.len());
                for (p, q) in a.points.iter().zip(&b.points) {
                    assert_eq!(p.x.to_bits(), q.x.to_bits(), "threads {threads}");
                    assert_eq!(p.y.to_bits(), q.y.to_bits(), "threads {threads}");
                    assert_eq!(p.value.to_bits(), q.value.to_bits(), "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn recorded_builds_count_samples_and_time_the_catalog_phase() {
        use std::sync::Arc;
        let d = dataset();
        let sizes = [100usize, 400, 1_000];
        let recorder = Recorder::new(Arc::new(vas_obs::MetricsRegistry::new())).with_timing(true);
        let sequential =
            SampleCatalog::build_recorded(&d, &sizes, |k| UniformSampler::new(k, 42), &recorder);
        assert_eq!(
            recorder.registry().get(Counter::StorageCatalogSamplesBuilt),
            3
        );
        let snap = recorder.registry().snapshot();
        assert_eq!(snap.phase_calls(Phase::CatalogBuild), 3);

        let parallel = SampleCatalog::build_parallel_recorded(
            &d,
            &sizes,
            |k| UniformSampler::new(k, 42),
            4,
            &recorder,
        );
        assert_eq!(
            recorder.registry().get(Counter::StorageCatalogSamplesBuilt),
            6
        );
        assert!(recorder.registry().get(Counter::ParTasksExecuted) > 0);
        for (a, b) in parallel.samples().iter().zip(sequential.samples()) {
            assert_eq!(a.points.len(), b.points.len());
        }
    }

    #[test]
    fn parallel_build_calls_the_factory_in_sizes_order() {
        // Stateful factories (e.g. deriving per-size seeds from a counter)
        // must observe the same call sequence as the sequential build.
        let d = dataset();
        let mut calls = Vec::new();
        let _ = SampleCatalog::build_parallel(
            &d,
            &[500, 100, 300],
            |k| {
                calls.push(k);
                UniformSampler::new(k, 1)
            },
            4,
        );
        assert_eq!(calls, vec![500, 100, 300]);
    }

    #[test]
    fn nested_catalog_produces_subset_chain() {
        let d = dataset();
        let sizes = [50usize, 400, 1_500];
        let c = SampleCatalog::build_nested(&d, &sizes, |k| UniformSampler::new(k, 9));
        assert_eq!(c.sizes(), vec![50, 400, 1_500]);
        // Every smaller sample is a subset of the next larger one.
        let samples = c.samples();
        for window in samples.windows(2) {
            let (small, large) = (&window[0], &window[1]);
            for p in &small.points {
                assert!(
                    large.points.contains(p),
                    "nested property violated between sizes {} and {}",
                    small.len(),
                    large.len()
                );
            }
        }
        // And the largest is a subset of the dataset.
        for p in &samples.last().unwrap().points {
            assert!(d.points.contains(p));
        }
    }

    #[test]
    fn nested_catalog_deduplicates_sizes() {
        let d = dataset();
        let c = SampleCatalog::build_nested(&d, &[100, 100, 300], |k| UniformSampler::new(k, 1));
        assert_eq!(c.sizes(), vec![100, 300]);
    }

    #[test]
    fn insert_keeps_samples_sorted() {
        let d = dataset();
        let mut c = SampleCatalog::new();
        c.insert(UniformSampler::new(500, 1).sample_dataset(&d));
        c.insert(UniformSampler::new(50, 1).sample_dataset(&d));
        c.insert(UniformSampler::new(200, 1).sample_dataset(&d));
        assert_eq!(c.sizes(), vec![50, 200, 500]);
    }
}
