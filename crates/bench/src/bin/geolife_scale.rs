//! Paper-scale out-of-core run: generate, spill and VAS-sample a
//! multi-million-point synthetic Geolife workload in bounded memory —
//! optionally sweeping the deterministic parallel execution subsystem.
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
//!    chunk (plus the read-ahead buffers when prefetching).
//!
//! The peak resident point count is *measured* (via `TrackingSource` and the
//! writer's staged-chunk bound) and asserted against the contract
//! `K + (buffers) × chunk_size`; the run aborts if the bound is ever
//! exceeded. In `--smoke` mode the dataset is additionally materialized the
//! classic way and the streaming sample is asserted bit-identical to
//! `build()` over it — the same contract `tests/determinism.rs` pins,
//! re-checked here on every CI run.
//!
//! With `--threads t1,t2,...` the run becomes a **parallel sweep**: for each
//! thread count the sampler phase runs twice — speculative pre-evaluation
//! alone, and combined with `PrefetchSource` chunk read-ahead — and the loss
//! estimator's M-probe loop is swept separately. Every run's sample must be
//! bit-identical to the `threads = 1` baseline (the binary exits non-zero on
//! the first divergence), and the per-phase timings land in a
//! `geolife_scale` section of `results/BENCH_parallel.json`.
//!
//! Output: a human-readable table on stdout plus machine-readable
//! `results/BENCH_streaming.json` (+ `BENCH_parallel.json` in sweep mode).
//!
//! Usage:
//! ```text
//! geolife_scale [--smoke] [--n <points>] [--k <K>] [--chunk-size <points>]
//!               [--threads t1,t2,...] [--keep-spill] [--obs]
//! ```
//! * `--smoke`      — CI-sized run (60K points, K = 500) + in-memory
//!   verification.
//! * `--n`, `--k`, `--chunk-size` — override the workload shape.
//! * `--threads`    — comma-separated thread counts to sweep (e.g. `1,2,4`).
//! * `--keep-spill` — leave the spill file on disk for inspection.
//! * `--obs`        — add a fully instrumented pass (counters + timers +
//!   a tracer of spans and events) over the same spill, assert it
//!   bit-identical to the baseline, export a validated Chrome-trace
//!   artifact, and graft an `obs` section onto `BENCH_streaming.json`.

use bench::obs::{validate_build_trace, ObsBundle};
use bench::{
    bitwise_eq, display_path, emit, fmt3, merge_parallel_section, parse_threads_list, results_dir,
    ReportTable,
};
use serde::{Serialize, Value};
use std::path::Path;
use std::time::Instant;
use vas_core::{GaussianKernel, Kernel, VasConfig, VasSampler};
use vas_data::{GeolifeGenerator, Point};
use vas_eval::{LossConfig, LossEstimator};
use vas_obs::Recorder;
use vas_stream::{
    ChunkedReader, ChunkedWriter, GeolifeSource, PointSource, PrefetchSource, TrackingSource,
    DEFAULT_PREFETCH_DEPTH,
};

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

/// One sampler-phase measurement of the parallel sweep.
#[derive(Debug, Clone, Serialize)]
struct SamplerSweepEntry {
    threads: usize,
    prefetch: bool,
    secs: f64,
    tuples_per_sec: f64,
    /// Throughput ratio against the `threads = 1`, no-prefetch baseline.
    speedup_vs_baseline: f64,
    peak_resident_points: u64,
}

/// One loss-estimator measurement of the parallel sweep.
#[derive(Debug, Clone, Serialize)]
struct LossSweepEntry {
    threads: usize,
    secs: f64,
    probes: usize,
    speedup_vs_baseline: f64,
}

/// The `geolife_scale` section of `BENCH_parallel.json`.
#[derive(Debug, Clone, Serialize)]
struct ParallelSection {
    n: u64,
    k: usize,
    chunk_size: usize,
    threads: Vec<usize>,
    prefetch_depth: usize,
    /// Sampler phase, speculative pre-evaluation only (no prefetch).
    pre_eval: Vec<SamplerSweepEntry>,
    /// Sampler phase, pre-evaluation + chunk read-ahead. The `threads = 1`
    /// entry isolates the prefetch stage's contribution.
    prefetch: Vec<SamplerSweepEntry>,
    /// Loss-estimator M-probe loop.
    loss_estimator: Vec<LossSweepEntry>,
    /// Every sweep run produced a bit-identical sample.
    bit_identical: bool,
}

/// Streams the spill through the sampler once. `threads` drives the
/// speculative pre-evaluation front; `prefetch` wraps the reader in the
/// read-ahead stage; `recorder` instruments every stage (pass
/// [`Recorder::detached`] for the measured runs). Returns the measured
/// report and the sample points.
fn run_sampler(
    spill_path: &Path,
    n: u64,
    k: usize,
    epsilon: f64,
    threads: usize,
    prefetch: bool,
    recorder: Recorder,
) -> (SamplerReport, Vec<Point>) {
    let reader = ChunkedReader::open(spill_path)
        .expect("open spill")
        .with_recorder(recorder.clone());
    let source: Box<dyn PointSource + Send> = if prefetch {
        Box::new(PrefetchSource::new(reader).with_recorder(recorder.clone()))
    } else {
        Box::new(reader)
    };
    let mut tracked = TrackingSource::new(source);
    let mut sampler = VasSampler::new(
        VasConfig::new(k)
            .with_epsilon(epsilon)
            .with_threads(threads),
    )
    .with_recorder(recorder);
    let start = Instant::now();
    let sample = sampler
        .build_from_source(&mut tracked)
        .expect("streaming build");
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    // Resident chunk buffers: the consumer's one, plus (when prefetching)
    // the worker's in-flight chunk and the bounded channel's depth.
    let buffers = if prefetch {
        2 + DEFAULT_PREFETCH_DEPTH as u64
    } else {
        1
    };
    let peak = k.min(n as usize) as u64 + buffers * tracked.max_chunk_len() as u64;
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
    let mut threads_sweep: Vec<usize> = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" | "--keep-spill" | "--obs" => {}
            "--threads" => {
                i += 1;
                let value = args.get(i).map(String::as_str).unwrap_or("");
                match parse_threads_list(value) {
                    Ok(list) => threads_sweep = list,
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
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
                     [--k <K>] [--chunk-size <points>] [--threads t1,t2,...] [--keep-spill] \
                     [--obs]"
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
    let (sampler_report, sample_points) =
        run_sampler(&spill_path, n, k, epsilon, 1, false, Recorder::detached());
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

    // ---- Observability pass (`--obs`): the fully instrumented pipeline
    // (counters + timers + a tracer of spans and events) over the same
    // spill with the speculative front and read-ahead on, asserted
    // bit-identical to the baseline sample and exporting a validated
    // Chrome-trace artifact. ----
    let obs_section = if obs {
        eprintln!("[geolife_scale] obs: fully instrumented pass (threads = 2, prefetch on)");
        let bundle = ObsBundle::new();
        let (obs_report, obs_points) =
            run_sampler(&spill_path, n, k, epsilon, 2, true, bundle.recorder.clone());
        if !bitwise_eq(&obs_points, &sample_points) {
            eprintln!("[geolife_scale] FAIL: the instrumented pass diverged from the baseline");
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
                Value::Number(obs_report.secs),
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

    // ---- Parallel sweep: pre-eval, prefetch, loss estimator. ----
    if !threads_sweep.is_empty() {
        run_parallel_sweep(
            &spill_path,
            n,
            k,
            chunk_size,
            epsilon,
            smoke,
            &threads_sweep,
            &sampler_report,
            &sample_points,
        );
    }

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

/// The `--threads` sweep: measures the sampler phase per thread count with
/// and without read-ahead, and the loss estimator's probe loop, asserting
/// every run bit-identical to the baseline sample. Exits non-zero on the
/// first divergence.
#[allow(clippy::too_many_arguments)]
fn run_parallel_sweep(
    spill_path: &Path,
    n: u64,
    k: usize,
    chunk_size: usize,
    epsilon: f64,
    smoke: bool,
    threads_sweep: &[usize],
    baseline: &SamplerReport,
    baseline_sample: &[Point],
) {
    let mut pre_eval_entries = Vec::new();
    let mut prefetch_entries = Vec::new();
    let mut bit_identical = true;
    // The prefetch pipeline holds `depth + 2` chunk buffers; the combined
    // bound is the contract the sweep runs assert.
    let sweep_bound = (k + (DEFAULT_PREFETCH_DEPTH + 2 + 1) * chunk_size) as u64;
    for &threads in threads_sweep {
        for prefetch in [false, true] {
            let label = if prefetch {
                "pre-eval+prefetch"
            } else {
                "pre-eval"
            };
            eprintln!("[geolife_scale] sweep: {label}, threads = {threads}");
            let (report, points) = run_sampler(
                spill_path,
                n,
                k,
                epsilon,
                threads,
                prefetch,
                Recorder::detached(),
            );
            assert!(
                report.peak_resident_points <= sweep_bound,
                "sweep peak resident {} exceeded bound {sweep_bound}",
                report.peak_resident_points
            );
            if !bitwise_eq(&points, baseline_sample) {
                eprintln!(
                    "[geolife_scale] FAIL: {label} at {threads} threads diverged from the \
                     sequential sample"
                );
                bit_identical = false;
            }
            let entry = SamplerSweepEntry {
                threads,
                prefetch,
                secs: report.secs,
                tuples_per_sec: report.tuples_per_sec,
                speedup_vs_baseline: report.tuples_per_sec / baseline.tuples_per_sec,
                peak_resident_points: report.peak_resident_points,
            };
            eprintln!(
                "[geolife_scale] sweep: {label} x{threads}: {} tuples/s ({:.2}x baseline)",
                fmt3(entry.tuples_per_sec),
                entry.speedup_vs_baseline
            );
            if prefetch {
                prefetch_entries.push(entry);
            } else {
                pre_eval_entries.push(entry);
            }
        }
    }

    // Loss-estimator phase: the M-probe loop over a materialized subset
    // (bounded so full-scale runs stay out-of-core everywhere else).
    let loss_n = (n as usize).min(200_000);
    let probes = if smoke { 2_000 } else { 20_000 };
    eprintln!("[geolife_scale] sweep: loss estimator ({loss_n} points, {probes} probes)");
    let subset = GeolifeGenerator::with_size(loss_n, SEED).generate();
    let kernel = GaussianKernel::for_dataset(&subset);
    let mut loss_entries: Vec<LossSweepEntry> = Vec::new();
    let mut loss_reference: Option<(u64, u64)> = None;
    for &threads in threads_sweep {
        let estimator = LossEstimator::new(
            &subset,
            &kernel,
            LossConfig {
                probes,
                threads,
                ..LossConfig::default()
            },
        );
        let start = Instant::now();
        let report = estimator.evaluate(&kernel, baseline_sample);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let bits = (report.mean.to_bits(), report.median.to_bits());
        match loss_reference {
            None => loss_reference = Some(bits),
            Some(reference) => {
                if reference != bits {
                    eprintln!("[geolife_scale] FAIL: loss estimate at {threads} threads diverged");
                    bit_identical = false;
                }
            }
        }
        loss_entries.push(LossSweepEntry {
            threads,
            secs,
            probes: report.probes,
            speedup_vs_baseline: loss_entries.first().map(|b| b.secs / secs).unwrap_or(1.0),
        });
        eprintln!(
            "[geolife_scale] sweep: loss x{threads}: {:.4}s",
            loss_entries.last().unwrap().secs
        );
    }

    let section = ParallelSection {
        n,
        k,
        chunk_size,
        threads: threads_sweep.to_vec(),
        prefetch_depth: DEFAULT_PREFETCH_DEPTH,
        pre_eval: pre_eval_entries.clone(),
        prefetch: prefetch_entries.clone(),
        loss_estimator: loss_entries.clone(),
        bit_identical,
    };
    let mut table = ReportTable::new(
        format!("Parallel sweep (n = {n}, K = {k}, chunk = {chunk_size})"),
        &["phase", "threads", "time (s)", "tuples/s", "speedup vs 1"],
    );
    for e in pre_eval_entries.iter().chain(&prefetch_entries) {
        table.push_row(vec![
            if e.prefetch {
                "pre-eval+prefetch"
            } else {
                "pre-eval"
            }
            .to_string(),
            e.threads.to_string(),
            fmt3(e.secs),
            fmt3(e.tuples_per_sec),
            format!("{:.2}x", e.speedup_vs_baseline),
        ]);
    }
    for e in &loss_entries {
        table.push_row(vec![
            "loss estimator".to_string(),
            e.threads.to_string(),
            fmt3(e.secs),
            "-".to_string(),
            format!("{:.2}x", e.speedup_vs_baseline),
        ]);
    }
    emit("geolife_scale_parallel", &[table]);
    let path = merge_parallel_section("geolife_scale", section.to_value());
    eprintln!("[parallel sweep merged into {}]", path.display());

    if !bit_identical {
        eprintln!("[geolife_scale] FAIL: a parallel run diverged from the sequential output");
        std::process::exit(1);
    }
    eprintln!(
        "[geolife_scale] sweep: every parallel run reproduced the sequential sample bit-for-bit"
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
