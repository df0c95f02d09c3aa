//! Figure 10 — contribution of the algorithmic optimizations.
//!
//! The paper compares the offline sample-construction runtime of three
//! Interchange variants:
//!
//! * **No ES** — responsibilities recomputed from scratch per tuple,
//! * **ES** — the Expand/Shrink incremental bookkeeping,
//! * **ES+Loc** — Expand/Shrink plus locality pruning, which the paper
//!   does with an R-tree and this implementation with a `HashGrid` of
//!   cutoff-sized cells,
//!
//! at a small sample size (100), where the index overhead does not pay off,
//! and at a larger one (5K), where locality wins. As in the paper, the
//! quadratic "No ES" variant is only run at the small sample size.

use bench::{emit, fmt_secs, geolife, ReportTable};
use std::time::Instant;
use vas_core::{GaussianKernel, InterchangeStrategy, Kernel, VasConfig, VasSampler};
use vas_data::Dataset;
use vas_sampling::Sampler;

fn build_time(data: &Dataset, k: usize, strategy: InterchangeStrategy, epsilon: f64) -> f64 {
    let mut sampler = VasSampler::from_dataset(
        data,
        VasConfig::new(k)
            .with_strategy(strategy)
            .with_epsilon(epsilon),
    );
    let start = Instant::now();
    let sample = sampler.sample_dataset(data);
    let elapsed = start.elapsed();
    assert_eq!(sample.len(), k.min(data.len()));
    elapsed.as_secs_f64()
}

fn main() {
    let data = geolife(100_000);
    let epsilon = GaussianKernel::for_dataset(&data).bandwidth();

    let mut tables = Vec::new();
    for (k, include_naive) in [(100usize, true), (5_000, false)] {
        let mut table = ReportTable::new(
            format!("Figure 10 — offline sample-construction runtime, sample size {k}"),
            &["variant", "runtime (s)", "speed-up vs slowest"],
        );
        let mut rows: Vec<(&str, f64)> = Vec::new();
        if include_naive {
            let t = build_time(&data, k, InterchangeStrategy::Naive, epsilon);
            rows.push(("No ES", t));
            eprintln!("[fig10] K = {k}: No ES finished in {t:.3}s");
        }
        let t_es = build_time(&data, k, InterchangeStrategy::ExpandShrink, epsilon);
        eprintln!("[fig10] K = {k}: ES finished in {t_es:.3}s");
        rows.push(("ES", t_es));
        let t_loc = build_time(&data, k, InterchangeStrategy::ExpandShrinkLocality, epsilon);
        eprintln!("[fig10] K = {k}: ES+Loc finished in {t_loc:.3}s");
        rows.push(("ES+Loc", t_loc));

        let slowest = rows.iter().map(|(_, t)| *t).fold(0.0f64, f64::max);
        for (label, t) in rows {
            table.push_row(vec![
                label.to_string(),
                fmt_secs(std::time::Duration::from_secs_f64(t)),
                format!("{:.1}x", slowest / t.max(1e-9)),
            ]);
        }
        tables.push(table);
    }

    emit("fig10_ablation", &tables);
}
