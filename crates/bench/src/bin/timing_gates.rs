//! The gate that needs a stopwatch. `cargo test` pins what a build
//! computes; this binary pins what observing it costs:
//!
//! * **Instrumentation overhead.** A build with counters, phase timers and a
//!   tracer of spans and events attached must take at most
//!   [`OVERHEAD_CEILING`] longer than the same build through a detached
//!   recorder. Both read the same spill through seeded transient faults and
//!   retries, so the ceiling covers the reader, the retry layer and the
//!   sampler.
//!
//! The gate runs [`PAIRS`] interleaved A/B pairs at a fixed size,
//! alternating which side goes first, and is judged by the median of the
//! per-pair ratios. One pair takes a fraction of a second, so a change in a
//! shared host's load mostly lands on both of its sides, and a burst that
//! splits a pair moves one ratio out of [`PAIRS`], not the median. On a
//! shared 2-vCPU host single pairs of the overhead gate still read from
//! −16% to +21%; it is the pair count that makes the median steady.
//!
//! The binary takes no arguments, prints the gate (and writes it under
//! `results/timing_gates.*`), and exits non-zero if it fails.
//!
//! ```text
//! cargo run --release -p bench --bin timing_gates
//! ```

use bench::{emit, ReportTable};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vas_core::{GaussianKernel, Kernel, VasConfig, VasSampler};
use vas_data::GaussianMixtureGenerator;
use vas_obs::{MetricsRegistry, Recorder, Tracer};
use vas_stream::{
    spill_dataset, ChunkedReader, FaultInjectorSource, FaultPlan, RetryPolicy, RetryingSource,
};

/// Largest tolerated median of `instrumented ÷ detached − 1`.
const OVERHEAD_CEILING: f64 = 0.03;
/// Interleaved A/B pairs of the gate.
const PAIRS: usize = 101;
/// Points of the Gaussian-mixture input the gate builds over.
const N: usize = 100_000;
/// Sample size of every build.
const K: usize = 1_000;
/// Points per spilled chunk. Small chunks mean many decode spans per point:
/// the demanding side for the overhead gate.
const CHUNK: usize = 1_024;
/// Seed of the input.
const DATA_SEED: u64 = 20_160_518;
/// Seed of the transient-fault schedule of the overhead gate.
const FAULT_SEED: u64 = 20_160_519;

/// The `q`-quantile of `values` by nearest rank (`q = 0.5` is the median of
/// an odd count).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Runs `a` and `b` in [`PAIRS`] pairs, `a` first in even pairs and `b`
/// first in odd ones, and returns each pair's `(a, b)`.
fn interleaved(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Vec<(f64, f64)> {
    (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let ta = a();
                (ta, b())
            } else {
                let tb = b();
                (a(), tb)
            }
        })
        .collect()
}

/// Seconds of one ES+Loc streaming build over the spill through seeded
/// transient faults and retries, everything reporting into `recorder`.
fn timed_build(spill: &Path, epsilon: f64, recorder: &Recorder) -> f64 {
    let reader = ChunkedReader::open(spill)
        .expect("open spill")
        .with_recorder(recorder.clone());
    let faulty = FaultInjectorSource::new(reader, FaultPlan::transient(FAULT_SEED, 3, 1));
    let mut source =
        RetryingSource::new(faulty, RetryPolicy::immediate(3)).with_recorder(recorder.clone());
    let mut sampler =
        VasSampler::new(VasConfig::new(K).with_epsilon(epsilon)).with_recorder(recorder.clone());
    let start = Instant::now();
    let sample = sampler.build_from_source(&mut source).expect("timed build");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(sample.len(), K);
    secs
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: timing_gates (takes no arguments)");
        std::process::exit(2);
    }
    eprintln!("[timing_gates] Gaussian mixture: n = {N}, K = {K}, {PAIRS} pairs");
    let data = GaussianMixtureGenerator::paper_clustering_dataset(3, N, DATA_SEED).generate();
    let epsilon = GaussianKernel::for_dataset(&data).bandwidth();

    let spill =
        std::env::temp_dir().join(format!("vas-timing-gates-{}.chunks", std::process::id()));
    spill_dataset(&data, &spill, CHUNK).expect("spill input");
    let overhead: Vec<f64> = interleaved(
        || timed_build(&spill, epsilon, &Recorder::detached()),
        || {
            let recorder = Recorder::new(Arc::new(MetricsRegistry::new()))
                .with_timing(true)
                .with_tracer(Arc::new(Tracer::new()));
            timed_build(&spill, epsilon, &recorder)
        },
    )
    .into_iter()
    .map(|(detached, instrumented)| instrumented / detached - 1.0)
    .collect();
    std::fs::remove_file(&spill).ok();

    let median = quantile(&overhead, 0.5);
    let pass = median <= OVERHEAD_CEILING;
    let mut table = ReportTable::new(
        format!("Timing gate (n = {N}, K = {K}, median of {PAIRS} interleaved pairs)"),
        &["gate", "median", "q1", "q3", "bound", "pass"],
    );
    table.push_row(vec![
        "instrumentation overhead".to_string(),
        format!("{median:.4}"),
        format!("{:.4}", quantile(&overhead, 0.25)),
        format!("{:.4}", quantile(&overhead, 0.75)),
        format!("<= {OVERHEAD_CEILING}"),
        if pass { "yes" } else { "NO" }.to_string(),
    ]);
    emit("timing_gates", &[table]);
    if !pass {
        eprintln!("[timing_gates] FAIL: instrumentation overhead is outside its bound");
        std::process::exit(1);
    }
}
