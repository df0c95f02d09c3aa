//! Micro-benchmarks of the spatial substrates: the two `LocalityIndex`
//! backends (R-tree, spatial hash) on the ES+Loc fixed-radius query, plus
//! the static k-d tree's density-embedding nearest-neighbour query.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vas_data::GeolifeGenerator;
use vas_spatial::{HashGrid, KdTree, LocalityIndex, RTree};

fn bench_rtree(c: &mut Criterion) {
    let data = GeolifeGenerator::with_size(20_000, 2).generate();
    let mut group = c.benchmark_group("spatial/rtree");
    for &n in &[1_000usize, 10_000] {
        let points = &data.points[..n];
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| black_box(RTree::from_entries(points.iter().copied().enumerate())))
        });
        let tree = RTree::from_entries(points.iter().copied().enumerate());
        let query = data.points[n / 2];
        let radius = data.bounds().diagonal() * 0.01;
        group.bench_with_input(BenchmarkId::new("query_radius", n), &n, |b, _| {
            b.iter(|| black_box(tree.query_radius(black_box(&query), radius)))
        });
        // The zero-allocation forms used by the Interchange hot loop.
        let mut buf = Vec::new();
        group.bench_with_input(BenchmarkId::new("query_radius_into", n), &n, |b, _| {
            b.iter(|| {
                tree.query_radius_into(black_box(&query), radius, &mut buf);
                black_box(buf.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("for_each_in_radius", n), &n, |b, _| {
            b.iter(|| {
                let mut count = 0usize;
                tree.for_each_in_radius(black_box(&query), radius, |_, _| count += 1);
                black_box(count)
            })
        });
        group.bench_with_input(BenchmarkId::new("nearest", n), &n, |b, _| {
            b.iter(|| black_box(tree.nearest(black_box(&query))))
        });
    }
    group.finish();
}

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
                grid.for_each_in_radius(black_box(&query), radius, |_, _| count += 1);
                black_box(count)
            })
        });
        group.bench_with_input(BenchmarkId::new("churn", n), &n, |b, _| {
            let mut grid = HashGrid::from_entries(radius, points.iter().copied().enumerate());
            b.iter(|| {
                assert!(LocalityIndex::remove(&mut grid, n / 2, &query));
                LocalityIndex::insert(&mut grid, n / 2, query);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rtree, bench_kdtree, bench_hashgrid);
criterion_main!(benches);
