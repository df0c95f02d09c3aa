//! Regression tests pinning down determinism: the same seed must produce
//! byte-identical output across independent runs of every generator and
//! sampler. Future PRs that parallelize the hot loops (Interchange, R-tree
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
    // every strategy and every locality backend.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let mut cases = vec![(
        InterchangeStrategy::ExpandShrink,
        LocalityBackend::default(),
    )];
    for backend in LocalityBackend::ALL {
        cases.push((InterchangeStrategy::ExpandShrinkLocality, backend));
    }
    for (strategy, backend) in cases {
        let config = VasConfig::new(300)
            .with_strategy(strategy)
            .with_locality_backend(backend);
        let a = VasSampler::from_dataset(&data, config.clone()).sample_dataset(&data);
        let b = VasSampler::from_dataset(&data, config).sample_dataset(&data);
        assert_points_bitwise_equal(
            &a.points,
            &b.points,
            &format!("VasSampler ({}, {backend})", strategy.label()),
        );
    }
}

/// The strategies the reference oracle covers: plain ES, and ES+Loc on
/// every locality backend.
fn oracle_cases() -> Vec<(InterchangeStrategy, LocalityBackend)> {
    let mut cases = vec![(
        InterchangeStrategy::ExpandShrink,
        LocalityBackend::default(),
    )];
    for backend in LocalityBackend::ALL {
        cases.push((InterchangeStrategy::ExpandShrinkLocality, backend));
    }
    cases
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
    backend: LocalityBackend,
    passes: usize,
) {
    let config = VasConfig::new(k)
        .with_strategy(strategy)
        .with_locality_backend(backend);
    let mut sampler = VasSampler::from_dataset(data, config.clone());
    let mut oracle = Oracle::new(data, &config);
    for pass in 0..passes {
        for (t, p) in data.iter().enumerate() {
            sampler.observe(*p);
            oracle.observe(*p);
            assert_matches_oracle(&sampler, &oracle, || {
                format!("{}/{backend}, pass {pass}, tuple {t}", strategy.label())
            });
        }
    }
    assert!(
        oracle.replacements > 1_000,
        "{}/{backend}: only {} replacements; the lock-step is nearly vacuous",
        strategy.label(),
        oracle.replacements
    );
}

#[test]
fn optimized_inner_loop_is_bit_identical_to_the_legacy_implementation() {
    // The optimized Interchange loop (block-max Shrink, bounded rejection
    // filter, batched kernel lanes, cached cutoff radius) is a pure
    // speed-up over the paper's naive loop, which lives on only as the
    // test-side reference oracle. On the seeds pinned here, plain ES and
    // ES+Loc on every backend must land on the oracle's sample bit for bit.
    for seed in [21u64, 99] {
        let data = GeolifeGenerator::with_size(10_000, seed).generate();
        for (strategy, backend) in oracle_cases() {
            let config = VasConfig::new(300)
                .with_strategy(strategy)
                .with_locality_backend(backend);
            let optimized = VasSampler::from_dataset(&data, config.clone()).sample_dataset(&data);
            let mut legacy = Oracle::new(&data, &config);
            for p in data.iter() {
                legacy.observe(*p);
            }
            assert_points_bitwise_equal(
                &optimized.points,
                &legacy.points,
                &format!(
                    "VasSampler optimized vs legacy oracle ({}, {backend}, seed {seed})",
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
    // replacements of the paper's rule, on the spatial hash as on every
    // other backend. Lock-step the sampler against the naive reference
    // oracle after *every* tuple, over two passes, for plain ES and ES+Loc
    // on every backend.
    let data = GeolifeGenerator::with_size(6_000, 47).generate();
    for (strategy, backend) in oracle_cases() {
        lock_step_against_oracle(&data, 200, strategy, backend, 2);
    }
}

#[test]
fn es_loc_matches_the_reference_oracle_past_one_dirty_word() {
    // At K = 200 the max tracker has 4 blocks of 64 slots, all in the first
    // word of its dirty mask. K = 4200 makes 66 blocks, so an accept's marks
    // and the winner search cross into the second word.
    let data = GeolifeGenerator::with_size(10_000, 47).generate();
    lock_step_against_oracle(
        &data,
        4_200,
        InterchangeStrategy::ExpandShrinkLocality,
        LocalityBackend::HashGrid,
        1,
    );
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
    for (data, (strategy, backend)) in [&geolife, &gaussian]
        .into_iter()
        .flat_map(|data| oracle_cases().into_iter().map(move |case| (data, case)))
    {
        let config = VasConfig::new(200)
            .with_strategy(strategy)
            .with_locality_backend(backend)
            .with_passes(2)
            .with_progress_every(1);
        let what = format!("{}, {}/{backend}", data.name, strategy.label());
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
    for (strategy, backend) in oracle_cases() {
        let config = VasConfig::new(200)
            .with_strategy(strategy)
            .with_locality_backend(backend)
            .with_epsilon(eps);
        let mut sampler = VasSampler::from_dataset(&data, config.clone());
        let mut oracle = Oracle::new(&data, &config);
        for (t, p) in data.iter().enumerate() {
            sampler.observe(*p);
            oracle.observe(*p);
            assert_matches_oracle(&sampler, &oracle, || {
                format!("{}/{backend}, tuple {t}", strategy.label())
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
    // `build()` over the in-memory dataset bit-for-bit — same seed, every
    // locality backend's default (optimized) path, plus plain ES. The kernel
    // bandwidth is left unset so the streaming ε-resolution pre-pass is part
    // of the pinned contract too.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-bfs-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    let mut cases = vec![(
        InterchangeStrategy::ExpandShrink,
        LocalityBackend::default(),
    )];
    for backend in LocalityBackend::ALL {
        cases.push((InterchangeStrategy::ExpandShrinkLocality, backend));
    }
    for (strategy, backend) in cases {
        let config = VasConfig::new(300)
            .with_strategy(strategy)
            .with_locality_backend(backend);
        let reference = VasSampler::from_dataset(&data, config.clone()).build(&data);
        let mut reader = ChunkedReader::open(&path).unwrap();
        let streamed = VasSampler::new(config)
            .build_from_source(&mut reader)
            .unwrap();
        assert_points_bitwise_equal(
            &streamed.points,
            &reference.points,
            &format!(
                "build_from_source vs build ({}, {backend})",
                strategy.label()
            ),
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
fn parallel_loss_estimates_are_bit_identical_to_sequential() {
    let data = GeolifeGenerator::with_size(6_000, 33).generate();
    let kernel = GaussianKernel::for_dataset(&data);
    let sample = VasSampler::from_dataset(&data, VasConfig::new(200)).sample_dataset(&data);
    let sequential = LossEstimator::new(&data, &kernel, LossConfig::default());
    let seq = sequential.evaluate(&kernel, &sample.points);
    for threads in [2usize, 4] {
        let parallel = LossEstimator::new(
            &data,
            &kernel,
            LossConfig {
                threads,
                ..LossConfig::default()
            },
        );
        let par = parallel.evaluate(&kernel, &sample.points);
        assert_eq!(par.mean.to_bits(), seq.mean.to_bits(), "threads {threads}");
        assert_eq!(
            par.median.to_bits(),
            seq.median.to_bits(),
            "threads {threads}"
        );
    }
}

#[test]
fn density_embedding_is_deterministic() {
    let data = GeolifeGenerator::with_size(10_000, 33).generate();
    let sample = VasSampler::from_dataset(&data, VasConfig::new(200)).sample_dataset(&data);
    let a = vas::core::density::with_embedded_density(sample.clone(), &data);
    let b = vas::core::density::with_embedded_density(sample.clone(), &data);
    assert_eq!(
        a.densities, b.densities,
        "density counters must be reproducible"
    );
    // And the striped parallel pass must agree exactly with the sequential
    // one at any thread count.
    for threads in [2usize, 4] {
        let parallel = vas::core::density::density_counts_threaded(&sample.points, &data, threads);
        assert_eq!(
            Some(parallel),
            a.densities,
            "parallel density counts diverged at {threads} threads"
        );
    }
}

#[test]
fn kill_and_resume_is_bit_identical_per_strategy_and_backend() {
    // The PR 7 contract: a streaming build killed at *any* chunk boundary
    // and resumed from its `.vascheckpt` must reproduce the uninterrupted
    // sample bit for bit — on every locality backend. The checkpoint carries a byte-exact snapshot of the
    // locality index, so the restored index's future visitation order — and
    // with it every accept/reject decision — is exactly the original's.
    // Plain ES and No ES keep the sample out of the index, so they checkpoint
    // an empty one; they must resume too (No ES at a small K, since each of
    // its candidates costs O(K²)). A second input keeps the coordinates but
    // makes the `value` attribute NaN, −NaN or +∞ on points 0, 3 and 5 mod
    // 7: non-finite values ride through the spill, the sample and the
    // checkpoint untouched, and the stream still equals `build()`.
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
    let backends: Vec<(String, VasConfig)> = LocalityBackend::ALL
        .into_iter()
        .map(|b| (b.to_string(), VasConfig::new(300).with_locality_backend(b)))
        .collect();
    let mut strategies = backends.clone();
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
        ("nonfinite_values", non_finite, backends),
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
                let outcome = VasSampler::new(base.clone())
                    .build_from_source_checkpointed(&mut reader, &policy)
                    .unwrap();
                assert!(
                    outcome.is_halted(),
                    "kill switch did not fire ({case}, kill {kill_after})"
                );

                let mut reader = ChunkedReader::open(&path).unwrap();
                let (_, outcome) = VasSampler::resume_build_from_source(
                    base.clone(),
                    &mut reader,
                    &CheckpointPolicy::every(&ckpt, 1),
                )
                .unwrap();
                let resumed = outcome.into_sample().expect("resumed build completes");
                assert_points_bitwise_equal(
                    &resumed.points,
                    &reference.points,
                    &format!("kill-and-resume ({case}, kill {kill_after})"),
                );
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
    // bit-for-bit, on every locality backend. The kernel bandwidth is left
    // unset so the ε-resolution pre-pass streams through the instrumented
    // stack too.
    let data = GeolifeGenerator::with_size(10_000, 21).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-obs-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    for backend in LocalityBackend::ALL {
        let config = VasConfig::new(300).with_locality_backend(backend);
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
            &format!("instrumented vs uninstrumented build ({backend})"),
        );
        // The instrumentation must actually have been live. Build-scoped
        // counters (accepts, rejects) reset when `finalize` ends the
        // build, so the liveness probes are lifetime metrics: chunk
        // decodes and the candidate-phase call histogram.
        assert!(
            registry.get(Counter::StreamChunksDecoded) > 0,
            "no chunk decodes recorded ({backend})"
        );
        let snap = registry.snapshot();
        for phase in [Phase::Fill, Phase::CandidateEval, Phase::ChunkDecode] {
            assert!(
                snap.phase_calls(phase) > 0,
                "no {} timings recorded ({backend})",
                phase.name()
            );
        }
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn traced_build_is_bit_identical_to_the_detached_build() {
    // The ISSUE 9 contract extends PR 8's: the causal layer — hierarchical
    // span and event tracing — is off the data path too. A build with the
    // *entire* observability stack attached (registry, timers, tracer,
    // instrumented reader) must reproduce the detached-recorder build
    // bit-for-bit, on every locality backend.
    let data = GeolifeGenerator::with_size(10_000, 23).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-determinism-trace-{}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 1_024).unwrap();

    for backend in LocalityBackend::ALL {
        let config = VasConfig::new(300).with_locality_backend(backend);
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
        assert_points_bitwise_equal(
            &traced.points,
            &detached.points,
            &format!("traced vs detached build ({backend})"),
        );
        // The causal layer must actually have been live: spans and
        // events recorded, and the exported trace must survive its own
        // parser.
        assert!(!tracer.spans().is_empty(), "no spans recorded ({backend})");
        assert!(
            tracer.events().iter().any(|e| e.name == "phase_transition"),
            "no events recorded ({backend})"
        );
        let parsed =
            parse_chrome_trace(&tracer.to_chrome_trace()).expect("exported trace must parse");
        assert_eq!(
            parsed.len(),
            tracer.spans().len(),
            "trace round trip lost spans ({backend})"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn sharded_build_is_bit_identical_across_threads_chunkings_and_s1_matches_unsharded() {
    // The ISSUE 10 contract: sharded sampling is a *deterministic* scale-out.
    // For every locality backend and S ∈ {1, 2, 4}, `build_sharded` over the
    // in-memory dataset is the reference; the streamed
    // `build_sharded_from_source`, whose S shard workers consume their
    // queues on threads of their own while the calling thread routes
    // chunks, must reproduce it bit-for-bit across awkward chunk sizes (the
    // shard assignment is a pure per-point function, so how the stream is
    // chunked or scheduled must not matter). At S = 1 the single shard
    // carries the full budget with no oversampling, so the whole pipeline
    // must collapse to the plain unsharded `build()`, bit for bit.
    let data = GeolifeGenerator::with_size(6_000, 21).generate();
    for backend in LocalityBackend::ALL {
        let base = VasConfig::new(200).with_locality_backend(backend);
        let unsharded = VasSampler::from_dataset(&data, base.clone()).build(&data);
        for shards in [1usize, 2, 4] {
            let reference = ShardedSampler::new(base.clone(), shards)
                .build_sharded(&data)
                .unwrap();
            if shards == 1 {
                assert_points_bitwise_equal(
                    &reference.points,
                    &unsharded.points,
                    &format!("S = 1 sharded vs unsharded build ({backend})"),
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
                        "sharded stream vs in-memory ({backend}, S = {shards}, chunk {chunk})"
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
