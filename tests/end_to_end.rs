//! End-to-end integration tests: the full pipeline from data generation
//! through sampling, density embedding, storage, rendering and evaluation —
//! the path a downstream user of the library would take.

use vas::prelude::*;

/// A full offline-then-online round trip through the public API.
#[test]
fn offline_index_then_interactive_queries() {
    // Offline: generate data, register it, build a VAS sample catalog.
    let data = GeolifeGenerator::with_size(30_000, 99).generate();
    let mut engine = VizEngine::new();
    engine.register_table(Table::from_dataset(&data));
    let table = data.name.clone();
    engine
        .build_catalog(&table, "x", "y", Some("value"), &[500, 2_000], |k| {
            VasSampler::from_dataset(&data, VasConfig::new(k))
        })
        .expect("catalog build");

    // Online: an overview and a zoomed query under a point budget.
    let latency = LatencyModel::mathgl_like();
    let budget_points = latency.tuples_within(std::time::Duration::from_secs(2));
    let overview = engine
        .query(&VizQuery::full(&table).with_budget(budget_points))
        .expect("overview query");
    assert!(overview.from_sample);
    assert!(overview.points.len() <= budget_points.max(500));

    let zoom = ZoomWorkload::new(1).regions(&data, ZoomLevel::Deep, 1)[0].viewport;
    let zoomed = engine
        .query(
            &VizQuery::full(&table)
                .with_budget(budget_points)
                .in_region(zoom),
        )
        .expect("zoom query");
    // The zoomed VAS sample still has something to show.
    assert!(
        !zoomed.points.is_empty(),
        "VAS-backed zoom query returned no points"
    );

    // Rendering both answers produces non-empty bitmaps.
    let renderer = ScatterRenderer::new(PlotStyle::map_plot());
    for (points, region) in [(&overview.points, data.bounds()), (&zoomed.points, zoom)] {
        let canvas = renderer.render_points(points, &Viewport::new(region, 300, 300));
        assert!(canvas.ink(Color::WHITE) > 0);
    }
}

/// The paper's central quantitative claim, end to end: at an equal point
/// budget VAS has lower loss than uniform and stratified sampling, and the
/// gap is large at small budgets.
#[test]
fn vas_dominates_baselines_on_the_loss_metric() {
    let data = GeolifeGenerator::with_size(40_000, 123).generate();
    let kernel = GaussianKernel::for_dataset(&data);
    let estimator = LossEstimator::new(&data, &kernel, LossConfig::default());

    for k in [300usize, 1_000] {
        let uniform = UniformSampler::new(k, 5).sample_dataset(&data);
        let stratified = StratifiedSampler::square(k, data.bounds(), 10, 5).sample_dataset(&data);
        let vas = VasSampler::from_dataset(&data, VasConfig::new(k)).sample_dataset(&data);

        let l_uni = estimator.log_loss_ratio(&kernel, &uniform.points);
        let l_str = estimator.log_loss_ratio(&kernel, &stratified.points);
        let l_vas = estimator.log_loss_ratio(&kernel, &vas.points);
        assert!(
            l_vas < l_uni && l_vas < l_str,
            "K = {k}: VAS ({l_vas:.3}) must beat uniform ({l_uni:.3}) and stratified ({l_str:.3})"
        );
    }
}

/// Density embedding preserves total mass and helps the density-estimation
/// user task (Section V + Table I(b) in miniature).
#[test]
fn density_embedding_pipeline() {
    let data = GeolifeGenerator::with_size(25_000, 7).generate();
    let k = 800;
    let plain = VasSampler::from_dataset(&data, VasConfig::new(k)).sample_dataset(&data);
    let embedded = with_embedded_density(plain.clone(), &data);

    assert_eq!(embedded.total_density(), data.len() as u64);
    assert_eq!(embedded.len(), plain.len());

    let task = DensityTask::generate(&data, 6, 3);
    assert!(task.success_ratio(&embedded) >= task.success_ratio(&plain));
}

/// The streaming Sampler interface and the batch `build` interface agree.
#[test]
fn streaming_and_batch_apis_agree() {
    let data = GeolifeGenerator::with_size(5_000, 55).generate();
    let config = VasConfig::new(200).with_epsilon(0.01);

    let mut streaming = VasSampler::from_dataset(&data, config.clone());
    for p in data.iter() {
        streaming.observe(*p);
    }
    let s1 = streaming.finalize();

    let s2 = VasSampler::from_dataset(&data, config).build(&data);
    assert_eq!(s1.points, s2.points);
}

/// Samples survive a CSV round trip through the dataset I/O layer.
#[test]
fn sample_round_trips_through_csv() {
    let data = GeolifeGenerator::with_size(3_000, 11).generate();
    let sample = VasSampler::from_dataset(&data, VasConfig::new(100)).sample_dataset(&data);

    let dir = std::env::temp_dir().join(format!("vas-int-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sample.csv");
    let as_dataset = vas::data::Dataset::from_points("sample", sample.points.clone());
    vas::data::io::write_csv(&as_dataset, &path).unwrap();
    let back = vas::data::io::read_csv(&path, "sample").unwrap();
    assert_eq!(back.points, sample.points);
    std::fs::remove_dir_all(dir).ok();
}

/// The exact solver certifies that Interchange gets close to optimal on a
/// small instance (the Table II relationship).
#[test]
fn interchange_is_near_optimal_on_small_instances() {
    let data = GeolifeGenerator::with_size(60, 2).generate();
    let kernel = GaussianKernel::for_dataset(&data);
    let k = 8;

    let approx = VasSampler::from_dataset(
        &data,
        VasConfig::new(k)
            .with_epsilon(kernel.bandwidth())
            .with_passes(5),
    )
    .build(&data);
    let approx_obj = vas::core::objective(&kernel, &approx.points);

    let exact = ExactSolver::new().solve(&kernel, &data.points, k, None);
    assert!(exact.objective <= approx_obj + 1e-9);
    // Theorem 3 bound on the *averaged* objective: approx ≤ 1/4 + optimal.
    let kk = k as f64;
    let averaged_gap = approx_obj / (kk * (kk - 1.0)) - exact.objective / (kk * (kk - 1.0));
    assert!(
        averaged_gap <= 0.25 + 1e-9,
        "Theorem 3 bound violated: gap {averaged_gap}"
    );
}

/// The out-of-core pipeline runs in bounded memory. Generating and spilling
/// holds one generator chunk plus the writer's staged chunk; streaming the
/// spill through the sampler holds the K sample slots plus one read chunk.
/// The measured peak must stay within `K + 2 × chunk_size` resident points,
/// whatever the input size.
#[test]
fn out_of_core_pipeline_stays_within_its_resident_point_bound() {
    let (n, k, chunk) = (20_000usize, 300usize, 1_024usize);
    let path =
        std::env::temp_dir().join(format!("vas-int-resident-{}.vaschunk", std::process::id()));

    let mut source = TrackingSource::new(GeolifeSource::new(
        GeolifeGenerator::with_size(n, 20_160_519),
        chunk,
    ));
    let mut writer =
        ChunkedWriter::create(&path, source.name(), source.kind(), chunk).expect("spill file");
    let mut buf = Vec::new();
    let mut max_staged = 0usize;
    loop {
        let got = source.next_chunk(&mut buf).expect("generator chunk");
        if got == 0 {
            break;
        }
        writer.write_points(&buf).expect("spill chunk");
        // The chunk being written counts as staged until it is flushed.
        max_staged = max_staged.max(writer.staged_len()).max(got.min(chunk));
    }
    assert_eq!(writer.finish().expect("finish spill").count, n as u64);
    let ingest_peak = source.max_chunk_len() + max_staged;

    let mut reader = TrackingSource::new(ChunkedReader::open(&path).expect("open spill"));
    let sample = VasSampler::new(VasConfig::new(k))
        .build_from_source(&mut reader)
        .expect("streaming build");
    std::fs::remove_file(&path).ok();
    assert_eq!(sample.len(), k);
    let build_peak = k + reader.max_chunk_len();

    let bound = k + 2 * chunk;
    assert!(
        ingest_peak.max(build_peak) <= bound,
        "peak resident points: ingest {ingest_peak}, build {build_peak}; bound {bound}"
    );
}
