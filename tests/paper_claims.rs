//! Integration tests that check the *shape* of the paper's headline results
//! on scaled-down workloads: who wins, in which direction, and by a sanity-
//! checkable margin. The full-size reproductions live in the `bench` crate's
//! experiment binaries; these tests are small enough to run in CI.

use vas::prelude::*;

/// Figure 8 in miniature: to reach the quality a 2 000-point VAS sample
/// provides, uniform sampling needs several times more points.
#[test]
fn vas_needs_fewer_points_for_equal_quality() {
    let data = GeolifeGenerator::with_size(60_000, 314).generate();
    let kernel = GaussianKernel::for_dataset(&data);
    let estimator = LossEstimator::new(&data, &kernel, LossConfig::default());

    let k_vas = 1_000;
    let vas = VasSampler::from_dataset(&data, VasConfig::new(k_vas)).sample_dataset(&data);
    let target = estimator.log_loss_ratio(&kernel, &vas.points);

    // How many uniformly-sampled points does it take to match that loss?
    let mut needed = None;
    for k in [1_000usize, 2_000, 4_000, 8_000, 16_000, 32_000] {
        let uni = UniformSampler::new(k, 9).sample_dataset(&data);
        if estimator.log_loss_ratio(&kernel, &uni.points) <= target {
            needed = Some(k);
            break;
        }
    }
    match needed {
        Some(k) => assert!(
            k >= 4 * k_vas,
            "uniform matched VAS with only {k} points (expected ≥ {})",
            4 * k_vas
        ),
        None => { /* uniform never reached the target within 32× — even stronger */ }
    }
}

/// Table I(a) in miniature: the regression task degrades gracefully for VAS
/// as the budget shrinks, but collapses for uniform sampling.
#[test]
fn regression_task_ordering_matches_the_paper() {
    let data = GeolifeGenerator::with_size(60_000, 271).generate();
    let task = RegressionTask::generate(&data, 15, 8);
    let k = 400;

    let uniform = UniformSampler::new(k, 2).sample_dataset(&data);
    let stratified = StratifiedSampler::square(k, data.bounds(), 10, 2).sample_dataset(&data);
    let vas = VasSampler::from_dataset(&data, VasConfig::new(k)).sample_dataset(&data);

    let s_uni = task.success_ratio(&uniform.points);
    let s_str = task.success_ratio(&stratified.points);
    let s_vas = task.success_ratio(&vas.points);

    assert!(
        s_vas >= s_uni && s_vas >= s_str,
        "VAS ({s_vas}) should lead uniform ({s_uni}) and stratified ({s_str})"
    );
}

/// Figure 7 in miniature: across methods and sizes, lower loss goes with
/// higher regression success (negative rank correlation).
#[test]
fn loss_and_user_success_are_negatively_correlated() {
    let data = GeolifeGenerator::with_size(60_000, 41).generate();
    let kernel = GaussianKernel::for_dataset(&data);
    let estimator = LossEstimator::new(&data, &kernel, LossConfig::default());
    let task = RegressionTask::generate(&data, 15, 5);

    let mut losses = Vec::new();
    let mut successes = Vec::new();
    for k in [200usize, 1_000, 5_000] {
        for sample in [
            UniformSampler::new(k, 1).sample_dataset(&data),
            StratifiedSampler::square(k, data.bounds(), 10, 1).sample_dataset(&data),
            VasSampler::from_dataset(&data, VasConfig::new(k)).sample_dataset(&data),
        ] {
            losses.push(estimator.log_loss_ratio(&kernel, &sample.points));
            successes.push(task.success_ratio(&sample.points));
        }
    }
    let rho = vas::eval::spearman(&losses, &successes);
    assert!(
        rho < -0.3,
        "expected a clear negative correlation, got ρ = {rho:.3}"
    );
}

/// Figure 10 in miniature: at a non-trivial sample size, Expand/Shrink beats
/// the naive inner loop by a wide margin, and adding locality does not hurt.
#[test]
fn expand_shrink_is_much_faster_than_naive() {
    use std::time::Instant;
    let data = GeolifeGenerator::with_size(8_000, 17).generate();
    let epsilon = GaussianKernel::for_dataset(&data).bandwidth();
    let k = 200;

    let time_of = |strategy| {
        let mut sampler = VasSampler::from_dataset(
            &data,
            VasConfig::new(k)
                .with_strategy(strategy)
                .with_epsilon(epsilon),
        );
        let start = Instant::now();
        let s = sampler.sample_dataset(&data);
        assert_eq!(s.len(), k);
        start.elapsed().as_secs_f64()
    };

    let naive = time_of(InterchangeStrategy::Naive);
    let es = time_of(InterchangeStrategy::ExpandShrink);
    assert!(
        naive > 3.0 * es,
        "naive ({naive:.3}s) should be much slower than ES ({es:.3}s)"
    );
}

/// The latency model reproduces the premise of Figure 2: full datasets are
/// far beyond the interactive limit, VAS-sized samples are within it.
#[test]
fn interactivity_gap_between_full_data_and_samples() {
    use std::time::Duration;
    let tableau = LatencyModel::tableau_like();
    let interactive = Duration::from_secs(2);
    assert!(tableau.time_for(50_000_000) > 100 * interactive);
    assert!(tableau.time_for(10_000) < interactive + tableau.overhead);
    // And the budget→points conversion is usable for catalog selection.
    assert!(tableau.tuples_within(Duration::from_secs(10)) > 100_000);
}

/// Sharding is a quality knob, not a lottery: each shard selects against
/// local density only and the merge reconciles the borders, so a sharded
/// sample may lose a little, but its median loss stays within
/// `LOSS_BAND_MAX` × the unsharded build's. A broken merge shows as 2–10×.
#[test]
fn sharded_samples_stay_inside_the_loss_band() {
    const LOSS_BAND_MAX: f64 = 1.5;
    let data = GeolifeGenerator::with_size(40_000, 20_160_520).generate();
    let kernel = GaussianKernel::for_dataset(&data);
    let config = VasConfig::new(400).with_epsilon(kernel.epsilon());
    let estimator = LossEstimator::new(&data, &kernel, LossConfig::default());

    let unsharded = VasSampler::new(config.clone()).build(&data);
    let baseline = estimator.evaluate(&kernel, &unsharded.points).median;
    for shards in [2usize, 4] {
        let sample = ShardedSampler::new(config.clone(), shards)
            .build_sharded(&data)
            .unwrap();
        let ratio = estimator.evaluate(&kernel, &sample.points).median / baseline;
        // Written so that a NaN ratio fails too.
        assert!(
            ratio <= LOSS_BAND_MAX,
            "S = {shards}: loss ratio {ratio:.3} vs unsharded exceeds {LOSS_BAND_MAX}"
        );
    }
}
