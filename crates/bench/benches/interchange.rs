//! Per-tuple cost of the Interchange inner loop for each strategy — the
//! micro-benchmark behind the Figure 10 ablation, with ES+Loc also over
//! shuffled candidates — plus the max tracker's share of an accepted
//! replacement.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vas_core::{GaussianKernel, InterchangeStrategy, Kernel, MaxTracker, VasConfig, VasSampler};
use vas_data::{GeolifeGenerator, Point};
use vas_sampling::Sampler;

fn bench_observe(c: &mut Criterion) {
    let data = GeolifeGenerator::with_size(20_000, 5).generate();
    let epsilon = GaussianKernel::for_dataset(&data).bandwidth();

    let mut group = c.benchmark_group("interchange/per_tuple");
    group.sample_size(10);
    for &k in &[100usize, 1_000] {
        // ES+Loc runs the same candidates twice: in stream order, where the
        // Geolife trips put consecutive candidates close together and most
        // rejections are certified from the neighbourhood cache, and
        // shuffled, where almost every candidate gathers from the index.
        let in_order = &data.points[k..k + 2_000];
        let shuffled = shuffle(in_order);
        let cases = [
            ("No_ES", InterchangeStrategy::Naive, in_order),
            ("ES", InterchangeStrategy::ExpandShrink, in_order),
            (
                "ES+Loc",
                InterchangeStrategy::ExpandShrinkLocality,
                in_order,
            ),
            (
                "ES+Loc_shuffled",
                InterchangeStrategy::ExpandShrinkLocality,
                &shuffled[..],
            ),
        ];
        for (label, strategy, candidates) in cases {
            // The quadratic variant at K = 1000 is exactly the case the paper
            // avoids; skip it to keep the benchmark suite fast.
            if strategy == InterchangeStrategy::Naive && k > 100 {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(label, k), &k, |b, _| {
                // Pre-fill the sampler so every measured observation hits
                // the candidate (replacement-test) path.
                let mut sampler = VasSampler::from_dataset(
                    &data,
                    VasConfig::new(k)
                        .with_strategy(strategy)
                        .with_epsilon(epsilon),
                );
                for p in data.points.iter().take(k) {
                    sampler.observe(*p);
                }
                let mut idx = 0usize;
                b.iter(|| {
                    sampler.observe(black_box(candidates[idx % candidates.len()]));
                    idx += 1;
                });
            });
        }
    }
    group.finish();
}

/// A copy of `points` in a fixed pseudo-random order (Fisher–Yates over an
/// xorshift stream).
fn shuffle(points: &[Point]) -> Vec<Point> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut out = points.to_vec();
    for i in (1..out.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.swap(i, (state % (i as u64 + 1)) as usize);
    }
    out
}

/// One accept's tracker bookkeeping at the 1M-point Geolife shape: K = 5000
/// responsibilities (79 blocks, two dirty-mask words), ~240 scattered
/// in-place raises (the candidate's neighbours), ~300 scattered lowerings
/// (the removed point's neighbours), each reported with its value, then one
/// `flush`. The raises and lowerings balance on average, so the values do
/// not drift over the iterations.
fn bench_tracker_accept(c: &mut Criterion) {
    const K: usize = 5_000;
    const RAISES: usize = 240;
    const LOWERS: usize = 300;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut rsp: Vec<f64> = (0..K).map(|_| (next() % 1_000) as f64 / 10.0).collect();
    // Each batch: (slot, delta) raises with deltas in [0, 1.25], then
    // lowerings with deltas in [0, 1].
    type Batch = (Vec<(usize, f64)>, Vec<(usize, f64)>);
    let batches: Vec<Batch> = (0..64)
        .map(|_| {
            let mut lanes = |n: usize, scale: f64| -> Vec<(usize, f64)> {
                (0..n)
                    .map(|_| (next() as usize % K, (next() % 101) as f64 / 100.0 * scale))
                    .collect()
            };
            (lanes(RAISES, 1.25), lanes(LOWERS, 1.0))
        })
        .collect();
    let mut tracker = MaxTracker::new();
    tracker.rebuild(&rsp);
    let mut n = 0usize;
    c.bench_function("interchange/tracker_accept_batch/5000", |b| {
        b.iter(|| {
            let (raises, lowers) = &batches[n % batches.len()];
            for &(i, delta) in raises {
                rsp[i] += delta;
                tracker.raised(i, rsp[i]);
            }
            for &(i, delta) in lowers {
                let before = rsp[i];
                rsp[i] = before - delta;
                tracker.lowered(i, before);
            }
            tracker.flush(&rsp);
            n += 1;
            black_box(tracker.max(&rsp))
        })
    });
}

criterion_group!(benches, bench_observe, bench_tracker_accept);
criterion_main!(benches);
