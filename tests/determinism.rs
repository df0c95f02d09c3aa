//! Regression tests pinning down determinism: the same seed must produce
//! byte-identical output across independent runs of every generator and
//! sampler. Future PRs that parallelize the hot loops (Interchange, grid
//! queries, dataset generation) must preserve this property — these tests
//! are the tripwire.

mod oracle;

use oracle::Oracle;
use std::sync::{Arc, Mutex};
use vas::prelude::*;

/// Two points are byte-identical when every coordinate has the same bit
/// pattern — stricter than `==`, which would accept `-0.0 == 0.0`.
fn assert_points_bitwise_equal(a: &[Point], b: &[Point], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        let pb = [p.x.to_bits(), p.y.to_bits(), p.value.to_bits()];
        let qb = [q.x.to_bits(), q.y.to_bits(), q.value.to_bits()];
        assert_eq!(pb, qb, "{what}: point {i} differs: {p:?} vs {q:?}");
    }
}

#[test]
fn geolife_generator_is_deterministic_per_seed() {
    let a = GeolifeGenerator::with_size(10_000, 77).generate();
    let b = GeolifeGenerator::with_size(10_000, 77).generate();
    assert_points_bitwise_equal(&a.points, &b.points, "GeolifeGenerator");

    // And a different seed actually changes the stream.
    let c = GeolifeGenerator::with_size(10_000, 78).generate();
    assert!(
        a.points.iter().zip(&c.points).any(|(p, q)| p != q),
        "different seeds must produce different datasets"
    );
}

#[test]
fn splom_and_gaussian_generators_are_deterministic_per_seed() {
    let a = SplomGenerator::with_size(5_000, 3).generate();
    let b = SplomGenerator::with_size(5_000, 3).generate();
    assert_points_bitwise_equal(&a.points, &b.points, "SplomGenerator");

    let a = GaussianMixtureGenerator::paper_clustering_dataset(0, 5_000, 9).generate();
    let b = GaussianMixtureGenerator::paper_clustering_dataset(0, 5_000, 9).generate();
    assert_points_bitwise_equal(&a.points, &b.points, "GaussianMixtureGenerator");
}

#[test]
fn uniform_sampler_is_deterministic_per_seed() {
    let data = GeolifeGenerator::with_size(20_000, 5).generate();
    let a = UniformSampler::new(500, 42).sample_dataset(&data);
    let b = UniformSampler::new(500, 42).sample_dataset(&data);
    assert_points_bitwise_equal(&a.points, &b.points, "UniformSampler");
}

#[test]
fn stratified_sampler_is_deterministic_per_seed() {
    let data = GeolifeGenerator::with_size(20_000, 5).generate();
    let bounds = data.bounds();
    let a = StratifiedSampler::square(500, bounds, 10, 42).sample_dataset(&data);
    let b = StratifiedSampler::square(500, bounds, 10, 42).sample_dataset(&data);
    assert_points_bitwise_equal(&a.points, &b.points, "StratifiedSampler");
}

#[test]
fn vas_sampler_is_deterministic() {
    // The Interchange algorithm is seedless (fully determined by the input
    // stream), so two runs over the same dataset must agree exactly — for
    // every strategy.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    for strategy in oracle_cases() {
        let config = VasConfig::new(300).with_strategy(strategy);
        let a = VasSampler::from_dataset(&data, config.clone()).sample_dataset(&data);
        let b = VasSampler::from_dataset(&data, config).sample_dataset(&data);
        assert_points_bitwise_equal(
            &a.points,
            &b.points,
            &format!("VasSampler ({})", strategy.label()),
        );
    }
}

/// The strategies the reference oracle covers: plain ES and ES+Loc.
fn oracle_cases() -> [InterchangeStrategy; 2] {
    [
        InterchangeStrategy::ExpandShrink,
        InterchangeStrategy::ExpandShrinkLocality,
    ]
}

fn assert_matches_oracle(sampler: &VasSampler, oracle: &Oracle, what: impl Fn() -> String) {
    let bits = |rsp: &[f64]| rsp.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    if sampler.replacements() != oracle.replacements
        || sampler.current_objective().to_bits() != oracle.objective.to_bits()
        || bits(sampler.current_responsibilities()) != bits(&oracle.rsp)
    {
        panic!(
            "{}: (replacements, objective) {:?} vs oracle {:?}, or responsibilities differ",
            what(),
            (sampler.replacements(), sampler.current_objective()),
            (oracle.replacements, oracle.objective)
        );
    }
    assert_points_bitwise_equal(sampler.current_sample(), &oracle.points, &what());
}

/// Lock-steps a sampler of size `k` against the reference oracle over
/// `passes` passes of `data`, comparing the sample, the responsibilities,
/// the replacement count and the objective bits after *every* tuple.
fn lock_step_against_oracle(
    data: &Dataset,
    k: usize,
    strategy: InterchangeStrategy,
    passes: usize,
) {
    let config = VasConfig::new(k).with_strategy(strategy);
    let mut sampler = VasSampler::from_dataset(data, config.clone());
    let mut oracle = Oracle::new(data, &config);
    for pass in 0..passes {
        for (t, p) in data.iter().enumerate() {
            sampler.observe(*p);
            oracle.observe(*p);
            assert_matches_oracle(&sampler, &oracle, || {
                format!("{}, pass {pass}, tuple {t}", strategy.label())
            });
        }
    }
    assert!(
        oracle.replacements > 1_000,
        "{}: only {} replacements; the lock-step is nearly vacuous",
        strategy.label(),
        oracle.replacements
    );
    if strategy == InterchangeStrategy::ExpandShrinkLocality {
        assert_cache_certified(sampler.recorder().registry(), || {
            format!("{} lock-step", strategy.label())
        });
    }
}

/// On trip-ordered Geolife data most ES+Loc rejections are certified from
/// the neighbourhood cache: a lock-step or resume that never took that path
/// would pin bit-identity on the gather path only.
fn assert_cache_certified(registry: &MetricsRegistry, what: impl Fn() -> String) {
    let certified = registry.get(Counter::CoreCacheCertifiedRejects);
    assert!(
        certified > 0,
        "{}: the neighbourhood cache certified no rejection",
        what()
    );
}

/// A source that reads the build's cache-certified reject count at every
/// chunk request. The sampler resets its per-build counters when it
/// finalizes, so the request that finds the stream exhausted reads the
/// build's total.
struct CertifiedProbe<S> {
    inner: S,
    registry: Arc<MetricsRegistry>,
    certified: u64,
}

impl<S: PointSource> PointSource for CertifiedProbe<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
    fn chunk_capacity(&self) -> usize {
        self.inner.chunk_capacity()
    }
    fn next_chunk(&mut self, buf: &mut Vec<Point>) -> std::io::Result<usize> {
        self.certified = self.registry.get(Counter::CoreCacheCertifiedRejects);
        self.inner.next_chunk(buf)
    }
    fn reset(&mut self) -> std::io::Result<()> {
        self.inner.reset()
    }
}

#[test]
fn optimized_inner_loop_is_bit_identical_to_the_legacy_implementation() {
    // The optimized Interchange loop (block-max Shrink, bounded rejection
    // filter, batched kernel lanes, cached cutoff radius) is a pure
    // speed-up over the paper's naive loop, which lives on only as the
    // test-side reference oracle. On the seeds pinned here, plain ES and
    // ES+Loc must land on the oracle's sample bit for bit.
    for seed in [21u64, 99] {
        let data = GeolifeGenerator::with_size(10_000, seed).generate();
        for strategy in oracle_cases() {
            let config = VasConfig::new(300).with_strategy(strategy);
            let optimized = VasSampler::from_dataset(&data, config.clone()).sample_dataset(&data);
            let mut legacy = Oracle::new(&data, &config);
            for p in data.iter() {
                legacy.observe(*p);
            }
            assert_points_bitwise_equal(
                &optimized.points,
                &legacy.points,
                &format!(
                    "VasSampler optimized vs legacy oracle ({}, seed {seed})",
                    strategy.label()
                ),
            );
        }
    }
}

#[test]
fn es_loc_over_hashgrid_is_bit_identical_to_the_legacy_loop_per_tuple() {
    // Algorithm 1's contract: the optimized loop (block-max Shrink, bounded
    // rejection filter, batched kernel lanes) performs exactly the valid
    // replacements of the paper's rule. Lock-step the sampler against the
    // naive reference oracle after *every* tuple, over two passes, for
    // plain ES and ES+Loc.
    let data = GeolifeGenerator::with_size(6_000, 47).generate();
    for strategy in oracle_cases() {
        lock_step_against_oracle(&data, 200, strategy, 2);
    }
}

#[test]
fn es_loc_matches_the_reference_oracle_past_one_dirty_word() {
    // At K = 200 the max tracker has 4 blocks of 64 slots, all in the first
    // word of its dirty mask. K = 4200 makes 66 blocks, so an accept's marks
    // and the winner search cross into the second word.
    let data = GeolifeGenerator::with_size(10_000, 47).generate();
    lock_step_against_oracle(&data, 4_200, InterchangeStrategy::ExpandShrinkLocality, 1);
}

#[test]
fn chunked_interchange_matches_the_reference_oracle_per_pass_and_per_tuple() {
    // The same contract through the chunked entry point and `build`:
    // `build` runs one `observe_chunk` over the dataset per pass; the same
    // calls are made here so the full state can be compared against the
    // oracle after every pass, with progress events giving a per-tuple
    // (replacements, objective) trace in between. `build` itself must land
    // on the oracle's final sample. The Gaussian mixture arrives shuffled,
    // so accepted points tend to stay in the sample, where their fold shows
    // in the responsibilities (on the Geolife trajectory the next tuple
    // usually replaces them).
    let geolife = GeolifeGenerator::with_size(6_000, 47).generate();
    let gaussian = GaussianMixtureGenerator::paper_clustering_dataset(3, 6_000, 9).generate();
    for (data, strategy) in [&geolife, &gaussian]
        .into_iter()
        .flat_map(|data| oracle_cases().map(move |strategy| (data, strategy)))
    {
        let config = VasConfig::new(200)
            .with_strategy(strategy)
            .with_passes(2)
            .with_progress_every(1);
        let what = format!("{}, {}", data.name, strategy.label());
        let trace = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&trace);
        let mut sampler = VasSampler::from_dataset(data, config.clone());
        sampler.set_progress_sink(Box::new(move |e| {
            sink.lock()
                .unwrap()
                .push((e.replacements, e.objective.to_bits()))
        }));
        let mut oracle = Oracle::new(data, &config);
        let mut expected = Vec::new();
        for pass in 0..2 {
            sampler.observe_chunk(&data.points);
            for p in data.iter() {
                oracle.observe(*p);
                expected.push((oracle.replacements, oracle.objective.to_bits()));
            }
            assert_matches_oracle(&sampler, &oracle, || format!("{what}, after pass {pass}"));
        }
        let trace = trace.lock().unwrap();
        assert_eq!(trace.len(), expected.len(), "{what}: progress events");
        if let Some(t) = trace.iter().zip(&expected).position(|(a, b)| a != b) {
            panic!(
                "{what}: diverged at tuple {t}: {:?} vs oracle {:?}",
                trace[t], expected[t]
            );
        }
        let built = VasSampler::from_dataset(data, config).build(data);
        assert_points_bitwise_equal(&built.points, &oracle.points, &format!("{what}: build"));
    }
}

#[test]
fn non_finite_points_are_skipped_like_the_reference_oracle() {
    // A NaN or infinite coordinate has no kernel distance to anything; the
    // sampler must skip such tuples, during the fill and after it, exactly
    // as the oracle does.
    let clean = GeolifeGenerator::with_size(6_000, 47).generate();
    let eps = GaussianKernel::for_dataset(&clean).bandwidth();
    let mut points = clean.points.clone();
    for i in 0..20 {
        let bad = if i % 2 == 0 {
            Point::new(f64::NAN, 1.0)
        } else {
            Point::new(1.0, f64::INFINITY)
        };
        points.insert(150 + 290 * i, bad);
    }
    let data = Dataset::from_points("nan-laced", points);
    for strategy in oracle_cases() {
        let config = VasConfig::new(200)
            .with_strategy(strategy)
            .with_epsilon(eps);
        let mut sampler = VasSampler::from_dataset(&data, config.clone());
        let mut oracle = Oracle::new(&data, &config);
        for (t, p) in data.iter().enumerate() {
            sampler.observe(*p);
            oracle.observe(*p);
            assert_matches_oracle(&sampler, &oracle, || {
                format!("{}, tuple {t}", strategy.label())
            });
        }
        assert!(sampler.current_sample().iter().all(Point::is_finite));
        assert!(sampler.current_objective().is_finite());
        let built = VasSampler::from_dataset(&data, config).build(&data);
        assert_points_bitwise_equal(&built.points, &oracle.points, "build vs oracle");
    }
}

#[test]
fn streaming_generator_sources_match_materializing_generators() {
    // The out-of-core pipeline's first link: a generator streamed in chunks
    // must emit bit-for-bit the dataset `generate()` materializes, for every
    // generator family, across awkward chunk sizes, and again after a reset.
    let geolife = GeolifeGenerator::with_size(8_000, 77);
    let reference = geolife.generate();
    for chunk in [1usize, 997, 8_000, 9_001] {
        let mut source = GeolifeSource::new(geolife.clone(), chunk);
        let streamed = source.read_all().unwrap();
        assert_points_bitwise_equal(
            &streamed,
            &reference.points,
            &format!("GeolifeSource chunk {chunk}"),
        );
        source.reset().unwrap();
        let rescanned = source.read_all().unwrap();
        assert_points_bitwise_equal(
            &rescanned,
            &reference.points,
            &format!("GeolifeSource rescan chunk {chunk}"),
        );
    }

    let gaussian = GaussianMixtureGenerator::paper_clustering_dataset(1, 5_000, 9);
    let reference = gaussian.generate();
    let streamed = vas::stream::GaussianMixtureSource::new(gaussian, 613)
        .read_all()
        .unwrap();
    assert_points_bitwise_equal(&streamed, &reference.points, "GaussianMixtureSource");

    let splom = SplomGenerator::with_size(5_000, 3);
    let reference = splom.generate();
    let streamed = vas::stream::SplomSource::new(splom, 0, 1, 613)
        .read_all()
        .unwrap();
    assert_points_bitwise_equal(&streamed, &reference.points, "SplomSource");
}

#[test]
fn chunked_spill_round_trip_is_bit_exact() {
    // Generator → spill file → reader must reproduce the stream exactly;
    // this is the link that turns the codec's per-value bit-exactness into a
    // whole-pipeline guarantee.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-spill-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 777).unwrap();
    let restored = ChunkedReader::open(&path).unwrap().read_dataset().unwrap();
    assert_points_bitwise_equal(&restored.points, &data.points, "chunked spill round trip");
    std::fs::remove_file(path).ok();
}

#[test]
fn build_from_source_over_chunked_spill_is_bit_identical_to_build() {
    // The out-of-core contract: spilling a dataset to the chunked columnar
    // format and streaming it through `build_from_source` must reproduce
    // `build()` over the in-memory dataset bit-for-bit — same seed, ES+Loc's
    // default (optimized) path, plus plain ES. The kernel
    // bandwidth is left unset so the streaming ε-resolution pre-pass is part
    // of the pinned contract too.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-bfs-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    for strategy in oracle_cases() {
        let config = VasConfig::new(300).with_strategy(strategy);
        let reference = VasSampler::from_dataset(&data, config.clone()).build(&data);
        let mut reader = ChunkedReader::open(&path).unwrap();
        let streamed = VasSampler::new(config)
            .build_from_source(&mut reader)
            .unwrap();
        assert_points_bitwise_equal(
            &streamed.points,
            &reference.points,
            &format!("build_from_source vs build ({})", strategy.label()),
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn streaming_pipeline_end_to_end_is_deterministic() {
    // Full out-of-core path, twice: streaming generator → spill → streaming
    // sampler. Two independent runs over two independent spill files must
    // agree exactly.
    let run = |tag: &str| {
        let path = std::env::temp_dir().join(format!(
            "vas-determinism-e2e-{}-{tag}.vaschunk",
            std::process::id()
        ));
        let mut generator = GeolifeSource::new(GeolifeGenerator::with_size(12_000, 5), 2_048);
        spill_source(&mut generator, &path).unwrap();
        let mut reader = ChunkedReader::open(&path).unwrap();
        let sample = VasSampler::new(VasConfig::new(200))
            .build_from_source(&mut reader)
            .unwrap();
        std::fs::remove_file(path).ok();
        sample
    };
    let a = run("a");
    let b = run("b");
    assert_points_bitwise_equal(&a.points, &b.points, "end-to-end streaming pipeline");
}

#[test]
fn density_embedding_is_deterministic() {
    let data = GeolifeGenerator::with_size(10_000, 33).generate();
    let sample = VasSampler::from_dataset(&data, VasConfig::new(200)).sample_dataset(&data);
    let a = vas::core::density::with_embedded_density(sample.clone(), &data);
    let b = vas::core::density::with_embedded_density(sample, &data);
    assert_eq!(
        a.densities, b.densities,
        "density counters must be reproducible"
    );
}

#[test]
fn kill_and_resume_is_bit_identical_per_strategy() {
    // The PR 7 contract: a streaming build killed at *any* chunk boundary
    // and resumed from its `.vascheckpt` must reproduce the uninterrupted
    // sample bit for bit. The checkpoint carries a byte-exact snapshot of the
    // locality index, so the restored index's future visitation order — and
    // with it every accept/reject decision — is exactly the original's.
    // Plain ES and No ES keep the sample out of the index, so they checkpoint
    // an empty one; they must resume too (No ES at a small K, since each of
    // its candidates costs O(K²)). A second input keeps the coordinates but
    // makes the `value` attribute NaN, −NaN or +∞ on points 0, 3 and 5 mod
    // 7: non-finite values ride through the spill, the sample and the
    // checkpoint untouched, and the stream still equals `build()`. On the
    // Geolife trips, ES+Loc must certify rejections from its neighbourhood
    // cache both before the kill and after the resume, which starts without
    // a cache and builds one lazily.
    let geolife = GeolifeGenerator::with_size(10_000, 21).generate();
    let mut non_finite = geolife.clone();
    for (i, p) in non_finite.points.iter_mut().enumerate() {
        match i % 7 {
            0 => p.value = f64::NAN,
            3 => p.value = -f64::NAN,
            5 => p.value = f64::INFINITY,
            _ => {}
        }
    }
    let es_loc: Vec<(String, VasConfig)> = vec![("es_loc".into(), VasConfig::new(300))];
    let mut strategies = es_loc.clone();
    strategies.push((
        "es".into(),
        VasConfig::new(300).with_strategy(InterchangeStrategy::ExpandShrink),
    ));
    strategies.push((
        "naive".into(),
        VasConfig::new(40).with_strategy(InterchangeStrategy::Naive),
    ));
    let inputs = [
        ("geolife", geolife, strategies),
        ("nonfinite_values", non_finite, es_loc),
    ];
    for (input, data, cases) in inputs {
        let path = std::env::temp_dir().join(format!(
            "vas-determinism-ckpt-{}-{input}.vaschunk",
            std::process::id()
        ));
        spill_dataset(&data, &path, 1_024).unwrap();
        for (case, base) in cases {
            let case = format!("{input}/{case}");
            let reference = {
                let mut reader = ChunkedReader::open(&path).unwrap();
                VasSampler::new(base.clone())
                    .build_from_source(&mut reader)
                    .unwrap()
            };
            let built = VasSampler::from_dataset(&data, base.clone()).build(&data);
            assert_points_bitwise_equal(
                &reference.points,
                &built.points,
                &format!("streamed vs build() ({case})"),
            );
            for kill_after in [1u64, 4, 8] {
                let ckpt = std::env::temp_dir().join(format!(
                    "vas-determinism-{}-{input}-{}-{kill_after}.vascheckpt",
                    std::process::id(),
                    case.replace('/', "-")
                ));
                let policy = CheckpointPolicy::every(&ckpt, 1).halting_after(kill_after);
                let mut reader = ChunkedReader::open(&path).unwrap();
                let mut killed = VasSampler::new(base.clone());
                let outcome = killed
                    .build_from_source_checkpointed(&mut reader, &policy)
                    .unwrap();
                assert!(
                    outcome.is_halted(),
                    "kill switch did not fire ({case}, kill {kill_after})"
                );

                let registry = Arc::new(MetricsRegistry::new());
                let mut reader = CertifiedProbe {
                    inner: ChunkedReader::open(&path).unwrap(),
                    registry: Arc::clone(&registry),
                    certified: 0,
                };
                let (_, outcome) = VasSampler::resume_build_from_source(
                    base.clone(),
                    &mut reader,
                    &CheckpointPolicy::every(&ckpt, 1),
                    Recorder::new(registry),
                )
                .unwrap();
                let resumed = outcome.into_sample().expect("resumed build completes");
                assert_points_bitwise_equal(
                    &resumed.points,
                    &reference.points,
                    &format!("kill-and-resume ({case}, kill {kill_after})"),
                );
                if input == "geolife" && base.strategy == InterchangeStrategy::ExpandShrinkLocality
                {
                    assert_cache_certified(killed.recorder().registry(), || {
                        format!("{case}, before the kill after chunk {kill_after}")
                    });
                    assert!(
                        reader.certified > 0,
                        "{case}: the resumed build after chunk {kill_after} certified no \
                         rejection from the neighbourhood cache"
                    );
                }
                std::fs::remove_file(&ckpt).ok();
            }
        }
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn instrumented_build_is_bit_identical_to_the_uninstrumented_build() {
    // The PR 8 contract: observability is off the data path. A build with a
    // timing-only recorder — live registry, phase timers, instrumented
    // reader, no tracer — must reproduce the detached-recorder build
    // bit-for-bit. The kernel bandwidth is left
    // unset so the ε-resolution pre-pass streams through the instrumented
    // stack too.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-obs-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    let config = VasConfig::new(300);
    let uninstrumented = {
        let mut reader = ChunkedReader::open(&path).unwrap();
        VasSampler::new(config.clone())
            .build_from_source(&mut reader)
            .unwrap()
    };
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let recorder = Recorder::new(std::sync::Arc::clone(&registry)).with_timing(true);
    let instrumented = {
        let mut reader = ChunkedReader::open(&path)
            .unwrap()
            .with_recorder(recorder.clone());
        VasSampler::new(config)
            .with_recorder(recorder.clone())
            .build_from_source(&mut reader)
            .unwrap()
    };
    assert_points_bitwise_equal(
        &instrumented.points,
        &uninstrumented.points,
        "instrumented vs uninstrumented build",
    );
    // The instrumentation must actually have been live. Build-scoped
    // counters (accepts, rejects) reset when `finalize` ends the
    // build, so the liveness probes are lifetime metrics: chunk
    // decodes and the candidate-phase call histogram.
    assert!(
        registry.get(Counter::StreamChunksDecoded) > 0,
        "no chunk decodes recorded"
    );
    let snap = registry.snapshot();
    for phase in [Phase::Fill, Phase::CandidateEval, Phase::ChunkDecode] {
        assert!(
            snap.phase_calls(phase) > 0,
            "no {} timings recorded",
            phase.name()
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn traced_build_is_bit_identical_to_the_detached_build() {
    // The ISSUE 9 contract extends PR 8's: the causal layer — hierarchical
    // span and event tracing — is off the data path too. A build with the
    // *entire* observability stack attached (registry, timers, tracer,
    // instrumented reader) must reproduce the detached-recorder build
    // bit-for-bit.
    let data = GeolifeGenerator::with_size(10_000, 23).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-trace-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    let config = VasConfig::new(300);
    let detached = {
        let mut reader = ChunkedReader::open(&path).unwrap();
        VasSampler::new(config.clone())
            .build_from_source(&mut reader)
            .unwrap()
    };
    let tracer = std::sync::Arc::new(Tracer::new());
    let recorder = Recorder::new(std::sync::Arc::new(MetricsRegistry::new()))
        .with_timing(true)
        .with_tracer(std::sync::Arc::clone(&tracer));
    let traced = {
        let mut reader = ChunkedReader::open(&path)
            .unwrap()
            .with_recorder(recorder.clone());
        VasSampler::new(config)
            .with_recorder(recorder.clone())
            .build_from_source(&mut reader)
            .unwrap()
    };
    assert_points_bitwise_equal(&traced.points, &detached.points, "traced vs detached build");
    // The causal layer must actually have been live: spans and
    // events recorded, and the exported trace must survive its own
    // parser.
    assert!(!tracer.spans().is_empty(), "no spans recorded");
    assert!(
        tracer.events().iter().any(|e| e.name == "phase_transition"),
        "no events recorded"
    );
    let parsed = parse_chrome_trace(&tracer.to_chrome_trace()).expect("exported trace must parse");
    assert_eq!(
        parsed.len(),
        tracer.spans().len(),
        "trace round trip lost spans"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn sharded_build_is_bit_identical_across_threads_chunkings_and_s1_matches_unsharded() {
    // The ISSUE 10 contract: sharded sampling is a *deterministic* scale-out.
    // For S ∈ {1, 2, 4}, `build_sharded` over the
    // in-memory dataset is the reference; the streamed
    // `build_sharded_from_source`, whose S shard workers consume their
    // queues on threads of their own while the calling thread routes
    // chunks, must reproduce it bit-for-bit across awkward chunk sizes (the
    // shard assignment is a pure per-point function, so how the stream is
    // chunked or scheduled must not matter). At S = 1 the single shard
    // carries the full budget with no oversampling, so the whole pipeline
    // must collapse to the plain unsharded `build()`, bit for bit. That
    // holds past one pass too: the unsharded build stops at its fixpoint,
    // while the single shard worker is fed every pass up to the cap, and
    // a pass past the fixpoint changes nothing.
    let data = GeolifeGenerator::with_size(6_000, 21).generate();
    for base in [VasConfig::new(200), VasConfig::new(200).with_passes(3)] {
        let passes = base.passes;
        let unsharded = VasSampler::from_dataset(&data, base.clone()).build(&data);
        for shards in [1usize, 2, 4] {
            let reference = ShardedSampler::new(base.clone(), shards)
                .build_sharded(&data)
                .unwrap();
            if shards == 1 {
                assert_points_bitwise_equal(
                    &reference.points,
                    &unsharded.points,
                    &format!("S = 1 sharded vs unsharded build ({passes} passes)"),
                );
            }
            for chunk in [613usize, 2_048] {
                let mut source = DatasetSource::with_chunk_size(&data, chunk);
                let streamed = ShardedSampler::new(base.clone(), shards)
                    .build_sharded_from_source(&mut source)
                    .unwrap();
                assert_points_bitwise_equal(
                    &streamed.points,
                    &reference.points,
                    &format!(
                        "sharded stream vs in-memory (S = {shards}, chunk {chunk}, \
                         {passes} passes)"
                    ),
                );
            }
        }
    }
}

#[test]
fn retried_transient_faults_leave_the_sample_bits_unchanged() {
    // Fault tolerance must not cost determinism: a build whose source fails
    // transiently (and is retried) must equal the fault-free build exactly.
    let data = GeolifeGenerator::with_size(8_000, 55).generate();
    let reference = {
        let mut source = DatasetSource::with_chunk_size(&data, 512);
        VasSampler::new(VasConfig::new(250))
            .build_from_source(&mut source)
            .unwrap()
    };
    let injector = FaultInjectorSource::new(
        DatasetSource::with_chunk_size(&data, 512),
        FaultPlan::transient(99, 4, 2),
    );
    let mut source = RetryingSource::new(injector, RetryPolicy::immediate(4));
    let retried = VasSampler::new(VasConfig::new(250))
        .build_from_source(&mut source)
        .unwrap();
    assert!(
        source.retries() > 0,
        "the fault plan never fired; the scenario is vacuous"
    );
    assert_points_bitwise_equal(
        &retried.points,
        &reference.points,
        "retried vs fault-free build",
    );
}
