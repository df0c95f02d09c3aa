//! Micro-benchmarks of the spatial substrates: the spatial hash on the
//! ES+Loc fixed-radius query and its insert/remove churn, its batch gather at
//! the benchmark's two grid densities, plus the static k-d tree's
//! density-embedding nearest-neighbour query.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vas_data::{GeolifeGenerator, Point};
use vas_spatial::{HashGrid, KdTree, NeighborBatch};

fn bench_kdtree(c: &mut Criterion) {
    let data = GeolifeGenerator::with_size(20_000, 3).generate();
    let mut group = c.benchmark_group("spatial/kdtree");
    for &n in &[1_000usize, 10_000] {
        let points = &data.points[..n];
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| black_box(KdTree::from_points(points)))
        });
        let tree = KdTree::from_points(points);
        let query = data.points[data.len() - 1];
        group.bench_with_input(BenchmarkId::new("nearest", n), &n, |b, _| {
            b.iter(|| black_box(tree.nearest(black_box(&query))))
        });
    }
    group.finish();
}

fn bench_hashgrid(c: &mut Criterion) {
    let data = GeolifeGenerator::with_size(20_000, 4).generate();
    let mut group = c.benchmark_group("spatial/hashgrid");
    let radius = data.bounds().diagonal() * 0.01;
    for &n in &[1_000usize, 10_000] {
        let points = &data.points[..n];
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| {
                black_box(HashGrid::from_entries(
                    radius,
                    points.iter().copied().enumerate(),
                ))
            })
        });
        let grid = HashGrid::from_entries(radius, points.iter().copied().enumerate());
        let query = data.points[n / 2];
        group.bench_with_input(BenchmarkId::new("for_each_in_radius", n), &n, |b, _| {
            b.iter(|| {
                let mut count = 0usize;
                grid.for_each_in_radius_with_dist2(black_box(&query), radius, |_, _, _| count += 1);
                black_box(count)
            })
        });
        group.bench_with_input(BenchmarkId::new("churn", n), &n, |b, _| {
            let mut grid = HashGrid::from_entries(radius, points.iter().copied().enumerate());
            b.iter(|| {
                assert!(grid.remove(n / 2, &query));
                grid.insert(n / 2, query);
            })
        });
    }
    group.finish();
}

/// The batch gather behind every ES+Loc candidate, at the two grid densities
/// the benchmark's builds run at: about 7 entries per cell (the Gaussian
/// sharded build, K = 1000) and about 42 (the Geolife build, K = 5000). The
/// entries spread evenly over the unit square (an R2 low-discrepancy
/// sequence), the cells are sized for the requested density, and each query
/// probes at the cell size around the next of 256 entries, into one reused
/// batch, as the sampler does.
fn bench_hashgrid_gather(c: &mut Criterion) {
    const N: usize = 5_000;
    const A1: f64 = 0.754_877_666_246_692_8; // 1/φ₂, φ₂ the plastic number
    const A2: f64 = 0.569_840_290_998_053_3; // 1/φ₂²
    let points: Vec<Point> = (0..N)
        .map(|i| Point::new((0.5 + A1 * i as f64).fract(), (0.5 + A2 * i as f64).fract()))
        .collect();
    let mut group = c.benchmark_group("spatial/hashgrid");
    for per_cell in [7usize, 42] {
        let cell = (per_cell as f64 / N as f64).sqrt();
        let grid = HashGrid::from_entries(cell, points.iter().copied().enumerate());
        let mut batch = NeighborBatch::new();
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("gather", per_cell), &per_cell, |b, _| {
            b.iter(|| {
                next = (next + 1) % 256;
                grid.gather_in_radius_into(black_box(&points[next * 19]), cell, &mut batch);
                black_box(batch.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kdtree, bench_hashgrid, bench_hashgrid_gather);
criterion_main!(benches);
