//! Paper-scale out-of-core run: generate, spill and VAS-sample a
//! multi-million-point synthetic Geolife workload in bounded memory.
//!
//! This is the capstone of the streaming ingestion subsystem. The pipeline
//! never materializes the dataset:
//!
//! 1. **Ingest** — a streaming Geolife generator source emits chunks that go
//!    straight into a chunked columnar spill file (`vas-stream`'s
//!    `.vaschunk` format). Resident points: one generator chunk + one staged
//!    writer chunk.
//! 2. **Sample** — `VasSampler::build_from_source` streams the spill back
//!    through the Interchange loop. The kernel bandwidth comes from the
//!    spill header's provenance bounds (bit-identical to what an in-memory
//!    build would derive). Resident points: the K sample slots + one read
//!    chunk.
//!
//! The peak resident point count is *measured* (via `TrackingSource` and the
//! writer's staged-chunk bound) and asserted against the contract
//! `K + (buffers) × chunk_size`; the run aborts if the bound is ever
//! exceeded. In `--smoke` mode the dataset is additionally materialized the
//! classic way and the streaming sample is asserted bit-identical to
//! `build()` over it — the same contract `tests/determinism.rs` pins,
//! re-checked here on every CI run.
//!
//! Output: a human-readable table on stdout plus machine-readable
//! `results/BENCH_streaming.json`.
//!
//! Usage:
//! ```text
//! geolife_scale [--smoke] [--n <points>] [--k <K>] [--chunk-size <points>]
//!               [--keep-spill] [--obs]
//! ```
//! * `--smoke`      — CI-sized run (60K points, K = 500) + in-memory
//!   verification.
//! * `--n`, `--k`, `--chunk-size` — override the workload shape.
//! * `--keep-spill` — leave the spill file on disk for inspection.
//! * `--obs`        — add a fully instrumented `S = 2` sharded build
//!   (counters + timers + a tracer of spans and events) over the same
//!   spill, assert it bit-identical to the detached `S = 2` build, export a
//!   validated Chrome-trace artifact, and graft an `obs` section onto
//!   `BENCH_streaming.json`.

use bench::obs::{validate_build_trace, ObsBundle};
use bench::{bitwise_eq, display_path, emit, fmt3, results_dir, ReportTable};
use serde::{Serialize, Value};
use std::path::Path;
use std::time::Instant;
use vas_core::{GaussianKernel, Kernel, ShardedSampler, VasConfig, VasSampler};
use vas_data::{GeolifeGenerator, Point};
use vas_obs::Recorder;
use vas_stream::{ChunkedReader, ChunkedWriter, GeolifeSource, PointSource, TrackingSource};

/// Seed shared with the in-memory verification path.
const SEED: u64 = 20_160_519;

#[derive(Debug, Clone, Serialize)]
struct IngestReport {
    points: u64,
    secs: f64,
    points_per_sec: f64,
    chunks: u64,
    file_bytes: u64,
    /// Measured: largest generator chunk + the writer's staged-chunk bound.
    peak_resident_points: u64,
}

#[derive(Debug, Clone, Serialize)]
struct SamplerReport {
    tuples: u64,
    secs: f64,
    tuples_per_sec: f64,
    sample_len: usize,
    epsilon: f64,
    /// Measured: K sample slots + the resident chunk buffers.
    peak_resident_points: u64,
}

#[derive(Debug, Clone, Serialize)]
struct StreamingReport {
    bench: String,
    mode: String,
    n: u64,
    k: usize,
    chunk_size: usize,
    seed: u64,
    ingest: IngestReport,
    sampler: SamplerReport,
    /// Max of the two phases — the whole pipeline's resident footprint.
    peak_resident_points: u64,
    /// The contract the run asserts (see `resident_bound`).
    resident_bound_points: u64,
    /// `Some(true)` when the smoke verification ran and the streaming sample
    /// was bit-identical to the in-memory build; `None` on full runs (which
    /// exist precisely because materializing is impractical).
    streaming_matches_in_memory: Option<bool>,
}

/// Streams the spill through the sampler once. Returns the measured report
/// and the sample points.
fn run_sampler(spill_path: &Path, n: u64, k: usize, epsilon: f64) -> (SamplerReport, Vec<Point>) {
    let reader = ChunkedReader::open(spill_path).expect("open spill");
    let mut tracked = TrackingSource::new(reader);
    let mut sampler = VasSampler::new(VasConfig::new(k).with_epsilon(epsilon));
    let start = Instant::now();
    let sample = sampler
        .build_from_source(&mut tracked)
        .expect("streaming build");
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let peak = k.min(n as usize) as u64 + tracked.max_chunk_len() as u64;
    let report = SamplerReport {
        tuples: tracked.points_streamed(),
        secs,
        tuples_per_sec: tracked.points_streamed() as f64 / secs,
        sample_len: sample.len(),
        epsilon,
        peak_resident_points: peak,
    };
    assert_eq!(report.tuples, n, "sampler must see every tuple");
    assert_eq!(sample.len(), k.min(n as usize));
    (report, sample.points)
}

/// Streams the spill through an `S = 2` sharded build with `recorder`
/// instrumenting the reader and the build. Returns the wall-clock seconds
/// and the sample points.
fn run_sharded(spill_path: &Path, k: usize, epsilon: f64, recorder: Recorder) -> (f64, Vec<Point>) {
    let mut reader = ChunkedReader::open(spill_path)
        .expect("open spill")
        .with_recorder(recorder.clone());
    let start = Instant::now();
    let sample = ShardedSampler::new(VasConfig::new(k).with_epsilon(epsilon), 2)
        .with_recorder(recorder)
        .build_sharded_from_source(&mut reader)
        .expect("sharded build");
    (start.elapsed().as_secs_f64(), sample.points)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let keep_spill = args.iter().any(|a| a == "--keep-spill");
    let obs = args.iter().any(|a| a == "--obs");
    let (mut n, mut k, mut chunk_size) = if smoke {
        (60_000u64, 500usize, 4_096usize)
    } else {
        (10_000_000u64, 10_000usize, 65_536usize)
    };
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" | "--keep-spill" | "--obs" => {}
            "--n" | "--k" | "--chunk-size" => {
                let flag = args[i].clone();
                i += 1;
                let value = args.get(i).and_then(|v| v.parse::<u64>().ok());
                match value {
                    Some(v) if v > 0 => match flag.as_str() {
                        "--n" => n = v,
                        "--k" => k = v as usize,
                        _ => chunk_size = v as usize,
                    },
                    _ => {
                        eprintln!("{flag} needs a positive integer value");
                        std::process::exit(2);
                    }
                }
            }
            unknown => {
                eprintln!(
                    "unknown argument {unknown}; usage: geolife_scale [--smoke] [--n <points>] \
                     [--k <K>] [--chunk-size <points>] [--keep-spill] [--obs]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let mode = if smoke { "smoke" } else { "full" };
    let spill_path = results_dir().join(format!("geolife_scale_{n}.vaschunk"));

    // ---- Phase 1: streaming generation → chunked columnar spill. ----
    eprintln!("[geolife_scale] ingest: generating + spilling {n} points (chunk {chunk_size})");
    let generator = GeolifeGenerator::with_size(n as usize, SEED);
    let mut source = TrackingSource::new(GeolifeSource::new(generator, chunk_size));
    let ingest_start = Instant::now();
    let mut writer = ChunkedWriter::create(&spill_path, source.name(), source.kind(), chunk_size)
        .expect("create spill file");
    let mut buf = Vec::new();
    let mut max_staged = 0usize;
    loop {
        let got = source.next_chunk(&mut buf).expect("generator chunk");
        if got == 0 {
            break;
        }
        writer.write_points(&buf).expect("spill chunk");
        max_staged = max_staged.max(writer.staged_len()).max(chunk_size.min(got));
    }
    let summary = writer.finish().expect("finish spill");
    let ingest_secs = ingest_start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(summary.count, n, "spill must hold every generated point");
    let ingest_peak = (source.max_chunk_len() + max_staged) as u64;
    let ingest = IngestReport {
        points: n,
        secs: ingest_secs,
        points_per_sec: n as f64 / ingest_secs,
        chunks: summary.chunks,
        file_bytes: summary.bytes,
        peak_resident_points: ingest_peak,
    };
    eprintln!(
        "[geolife_scale] ingest: {} points/s, {} chunks, {:.1} MiB",
        fmt3(ingest.points_per_sec),
        ingest.chunks,
        ingest.file_bytes as f64 / (1024.0 * 1024.0)
    );

    // ---- Phase 2: stream the spill through the Interchange sampler. ----
    // The spill header carries the stream-order bounds, so the bandwidth is
    // resolved without a stats rescan — bit-identical to what an in-memory
    // build would derive from the materialized dataset.
    let epsilon = {
        let reader = ChunkedReader::open(&spill_path).expect("open spill");
        GaussianKernel::for_bounds(&reader.header().bounds).bandwidth()
    };
    eprintln!("[geolife_scale] sampling: K = {k}, epsilon = {epsilon:.6}");
    let (sampler_report, sample_points) = run_sampler(&spill_path, n, k, epsilon);
    eprintln!(
        "[geolife_scale] sampler: {} tuples/s over {} tuples",
        fmt3(sampler_report.tuples_per_sec),
        sampler_report.tuples
    );

    // ---- The bounded-memory contract (baseline pipeline). ----
    let peak_resident = ingest_peak.max(sampler_report.peak_resident_points);
    let bound = (k + 2 * chunk_size) as u64;
    assert!(
        peak_resident <= bound,
        "peak resident points {peak_resident} exceeded the K + 2*chunk bound {bound}"
    );

    // ---- Smoke verification: streaming == in-memory, bit for bit. ----
    let streaming_matches_in_memory = if smoke {
        eprintln!("[geolife_scale] smoke: verifying against the in-memory build");
        let dataset = GeolifeGenerator::with_size(n as usize, SEED).generate();
        let reference = VasSampler::from_dataset(&dataset, VasConfig::new(k)).build(&dataset);
        let identical = bitwise_eq(&sample_points, &reference.points);
        if !identical {
            emit_report(
                mode,
                n,
                k,
                chunk_size,
                ingest.clone(),
                sampler_report.clone(),
                peak_resident,
                bound,
                Some(false),
                None,
            );
            eprintln!("[geolife_scale] FAIL: streaming sample differs from the in-memory build");
            std::process::exit(1);
        }
        eprintln!("[geolife_scale] smoke: streaming sample is bit-identical to build()");
        Some(true)
    } else {
        None
    };

    // ---- Observability pass (`--obs`): a fully instrumented S = 2
    // sharded build (counters + timers + a tracer of spans and events) over
    // the same spill, so the trace carries cross-thread worker spans,
    // asserted bit-identical to the detached S = 2 build and exporting a
    // validated Chrome-trace artifact. ----
    let obs_section = if obs {
        eprintln!("[geolife_scale] obs: fully instrumented S = 2 sharded build");
        let bundle = ObsBundle::new();
        let (instrumented_secs, obs_points) =
            run_sharded(&spill_path, k, epsilon, bundle.recorder.clone());
        let (_, detached_points) = run_sharded(&spill_path, k, epsilon, Recorder::detached());
        if !bitwise_eq(&obs_points, &detached_points) {
            eprintln!("[geolife_scale] FAIL: the instrumented sharded build diverged");
            std::process::exit(1);
        }
        let trace_path = results_dir().join("trace_geolife_scale.json");
        let trace_json = bundle
            .write_trace(&trace_path)
            .expect("write trace artifact");
        match validate_build_trace(&trace_json) {
            Ok(check) => eprintln!(
                "[geolife_scale] obs: trace valid ({} spans, {} worker spans) at {}",
                check.spans,
                check.worker_spans,
                trace_path.display()
            ),
            Err(reason) => {
                eprintln!("[geolife_scale] FAIL: invalid build trace: {reason}");
                std::process::exit(1);
            }
        }
        let mut section = bundle.section_value();
        if let Value::Object(fields) = &mut section {
            fields.push((
                "instrumented_secs".to_string(),
                Value::Number(instrumented_secs),
            ));
            fields.push(("bit_identical".to_string(), Value::Bool(true)));
            fields.push((
                "trace".to_string(),
                Value::String(display_path(&trace_path)),
            ));
        }
        Some(section)
    } else {
        None
    };

    if !keep_spill {
        std::fs::remove_file(&spill_path).ok();
    } else {
        eprintln!("[geolife_scale] spill kept at {}", spill_path.display());
    }

    emit_report(
        mode,
        n,
        k,
        chunk_size,
        ingest,
        sampler_report,
        peak_resident,
        bound,
        streaming_matches_in_memory,
        obs_section,
    );
}

#[allow(clippy::too_many_arguments)]
fn emit_report(
    mode: &str,
    n: u64,
    k: usize,
    chunk_size: usize,
    ingest: IngestReport,
    sampler: SamplerReport,
    peak_resident: u64,
    bound: u64,
    streaming_matches_in_memory: Option<bool>,
    obs_section: Option<Value>,
) {
    let mut table = ReportTable::new(
        format!("Out-of-core Geolife pipeline ({mode}: n = {n}, K = {k}, chunk = {chunk_size})"),
        &[
            "phase",
            "points",
            "time (s)",
            "throughput (pts/s)",
            "peak resident pts",
        ],
    );
    table.push_row(vec![
        "ingest (generate + spill)".to_string(),
        ingest.points.to_string(),
        fmt3(ingest.secs),
        fmt3(ingest.points_per_sec),
        ingest.peak_resident_points.to_string(),
    ]);
    table.push_row(vec![
        "sample (stream spill)".to_string(),
        sampler.tuples.to_string(),
        fmt3(sampler.secs),
        fmt3(sampler.tuples_per_sec),
        sampler.peak_resident_points.to_string(),
    ]);
    table.push_row(vec![
        format!("pipeline (bound K+2c = {bound})"),
        n.to_string(),
        fmt3(ingest.secs + sampler.secs),
        "-".to_string(),
        peak_resident.to_string(),
    ]);
    emit("geolife_scale", &[table]);

    let report = StreamingReport {
        bench: "geolife_scale".to_string(),
        mode: mode.to_string(),
        n,
        k,
        chunk_size,
        seed: SEED,
        ingest,
        sampler,
        peak_resident_points: peak_resident,
        resident_bound_points: bound,
        streaming_matches_in_memory,
    };
    let path = results_dir().join("BENCH_streaming.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize streaming report");
    // Graft the optional `--obs` section onto the serialized report, so the
    // artifact schema only grows when the instrumented pass actually ran.
    let json = match obs_section {
        Some(section) => {
            let mut root: Value = serde_json::from_str(&json).expect("reparse streaming report");
            if let Value::Object(fields) = &mut root {
                fields.push(("obs".to_string(), section));
            }
            serde_json::to_string_pretty(&root).expect("serialize streaming report with obs")
        }
        None => json,
    };
    std::fs::write(&path, json).expect("write BENCH_streaming.json");
    eprintln!("[machine-readable report written to {}]", path.display());
}
