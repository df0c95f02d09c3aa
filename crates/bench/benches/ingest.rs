//! Ingest-throughput micro-benchmarks: how fast points move through each
//! dataset format — the chunked columnar spill, CSV (streaming and
//! materializing), and the in-memory baseline — in both directions. A format
//! regression (extra copies, per-row allocation, buffering bugs) shows up
//! here before it shows up as a slow streaming build.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::path::PathBuf;
use vas_data::io::{read_csv, write_csv};
use vas_data::GeolifeGenerator;
use vas_stream::{spill_dataset, ChunkedReader, CsvSource, DatasetSource, PointSource};

const CHUNK: usize = 8_192;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vas-bench-ingest-{}-{name}", std::process::id()))
}

/// Drains a source, returning the folded coordinate sum (defeats dead-code
/// elimination while touching every point).
fn drain<S: PointSource>(source: &mut S) -> (u64, f64) {
    let mut count = 0u64;
    let mut acc = 0.0f64;
    source
        .for_each_point(|p| {
            count += 1;
            acc += p.x + p.y;
        })
        .expect("scan");
    (count, acc)
}

fn bench_ingest(c: &mut Criterion) {
    let n = 50_000usize;
    let data = GeolifeGenerator::with_size(n, 6).generate();
    let csv_path = temp_path("scan.csv");
    let chunk_path = temp_path("scan.vaschunk");
    write_csv(&data, &csv_path).expect("write csv fixture");
    spill_dataset(&data, &chunk_path, CHUNK).expect("write chunked fixture");

    let mut group = c.benchmark_group("ingest/scan");
    group.bench_with_input(BenchmarkId::new("in-memory", n), &n, |b, _| {
        b.iter(|| {
            let mut source = DatasetSource::with_chunk_size(&data, CHUNK);
            black_box(drain(&mut source))
        })
    });
    group.bench_with_input(BenchmarkId::new("chunked-binary", n), &n, |b, _| {
        b.iter(|| {
            let mut source = ChunkedReader::open(&chunk_path).expect("open spill");
            black_box(drain(&mut source))
        })
    });
    group.bench_with_input(BenchmarkId::new("csv-streaming", n), &n, |b, _| {
        b.iter(|| {
            let mut source =
                CsvSource::open_with_chunk_size(&csv_path, "csv", CHUNK).expect("open csv");
            black_box(drain(&mut source))
        })
    });
    group.bench_with_input(BenchmarkId::new("csv-materializing", n), &n, |b, _| {
        b.iter(|| black_box(read_csv(&csv_path, "csv").expect("read csv").len()))
    });
    group.finish();

    let mut group = c.benchmark_group("ingest/write");
    let out_chunk = temp_path("out.vaschunk");
    group.bench_with_input(BenchmarkId::new("chunked-binary", n), &n, |b, _| {
        b.iter(|| {
            black_box(
                spill_dataset(&data, &out_chunk, CHUNK)
                    .expect("spill")
                    .count,
            )
        })
    });
    let out_csv = temp_path("out.csv");
    group.bench_with_input(BenchmarkId::new("csv", n), &n, |b, _| {
        b.iter(|| {
            write_csv(&data, &out_csv).expect("write csv");
            black_box(())
        })
    });
    group.finish();

    for p in [csv_path, chunk_path, out_chunk, out_csv] {
        std::fs::remove_file(p).ok();
    }
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
