//! Table II — exact vs approximate VAS on tiny instances.
//!
//! The paper converts VAS to a MIP and solves it with GLPK for N ∈ {50, 60,
//! 70, 80} and K = 10, comparing runtime, the optimization objective and the
//! Monte-Carlo loss against the approximate (Interchange) solution and a
//! random sample. The point of the table is that exact solutions take minutes
//! to an hour while the approximation is instantaneous and nearly as good.
//! Here the exact optimum comes from the branch-and-bound solver of
//! `vas-exact`: the same optimum by different machinery, as the
//! [`vas_exact`] crate docs explain.

use bench::{emit, fmt3, fmt_secs, geolife, ReportTable};
use std::time::Instant;
use vas_core::{objective, GaussianKernel, InterchangeStrategy, Kernel, VasConfig, VasSampler};
use vas_data::Dataset;
use vas_eval::{LossConfig, LossEstimator};
use vas_exact::ExactSolver;
use vas_sampling::{Sampler, UniformSampler};

fn main() {
    let k = 10usize;
    let base = geolife(100);

    let mut table = ReportTable::new(
        "Table II — loss and runtime comparison (K = 10)",
        &["N", "metric", "exact (B&B)", "approx. VAS", "random"],
    );

    for n in [50usize, 60, 70, 80] {
        let dataset = Dataset::from_points(format!("geolife-{n}"), base.points[..n].to_vec());
        let kernel = GaussianKernel::for_dataset(&dataset);
        let estimator = LossEstimator::new(
            &dataset,
            &kernel,
            LossConfig {
                probes: 1_000,
                ..LossConfig::default()
            },
        );

        // Approximate VAS (Interchange, multi-pass until stable).
        let t0 = Instant::now();
        let approx = VasSampler::from_dataset(
            &dataset,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::ExpandShrink)
                .with_epsilon(kernel.bandwidth())
                .with_passes(5),
        )
        .build(&dataset);
        let approx_time = t0.elapsed();
        let approx_obj = objective(&kernel, &approx.points);

        // Exact optimum via branch-and-bound, seeded with the approximate
        // solution as the incumbent (never changes the optimum).
        let incumbent: Vec<usize> = approx
            .points
            .iter()
            .map(|p| {
                dataset
                    .points
                    .iter()
                    .position(|q| q == p)
                    .expect("sample point in data")
            })
            .collect();
        let t0 = Instant::now();
        let exact = ExactSolver::new().solve(&kernel, &dataset.points, k, Some(&incumbent));
        let exact_time = t0.elapsed();

        // Random sample.
        let t0 = Instant::now();
        let random = UniformSampler::new(k, 7).sample_dataset(&dataset);
        let random_time = t0.elapsed();
        let random_obj = objective(&kernel, &random.points);

        let loss = |points: &[vas_data::Point]| estimator.evaluate(&kernel, points).median;

        table.push_row(vec![
            n.to_string(),
            "runtime (s)".into(),
            fmt_secs(exact_time),
            fmt_secs(approx_time),
            fmt_secs(random_time),
        ]);
        table.push_row(vec![
            n.to_string(),
            "opt. objective".into(),
            fmt3(exact.objective),
            fmt3(approx_obj),
            fmt3(random_obj),
        ]);
        table.push_row(vec![
            n.to_string(),
            "Loss(S) (median)".into(),
            fmt3(loss(&exact.points)),
            fmt3(loss(&approx.points)),
            fmt3(loss(&random.points)),
        ]);
        eprintln!(
            "[table2] N = {n}: exact explored {} nodes in {:?}",
            exact.nodes_explored, exact_time
        );
    }

    emit("table2_exact", &[table]);
}
