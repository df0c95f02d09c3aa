//! Sharded-sampling scale-out sweep: spatial partition → per-shard
//! Interchange → ordered merge, measured across shard and thread counts.
//!
//! This is the harness behind the deterministic scale-out claim: a
//! `ShardedSampler` splits the stream into `S` spatial shards (pure
//! per-point assignment from the `HashGrid` cell decomposition), runs one
//! Interchange sampler per shard with a `K/S (+50%)` budget, and merges the
//! shard samples with a final single-pass Interchange over the union in
//! shard order. The sweep pins the contract the library tests promise:
//!
//! * **Determinism** — for a fixed shard count, the sample is bit-identical
//!   at every thread count (and, in smoke mode, bit-identical to the
//!   in-memory `build_sharded` over the materialized dataset, which covers
//!   chunking since the in-memory path sees one giant chunk).
//! * **S = 1 equivalence** — one shard gets the full budget with no
//!   oversampling, so the sharded pipeline collapses to the plain
//!   streaming build, bit for bit.
//! * **Quality knob, not a lottery** — per shard count the sample's
//!   estimated loss is compared against the unsharded baseline; the ratio
//!   must stay inside a fixed band.
//!
//! Any violated gate exits non-zero, so CI can run the smoke sweep as a
//! regression tripwire. Results land in `results/BENCH_shard.json`
//! (`bench_diff`-compatible: rows are keyed by `shards`/`threads`, ratios
//! get tolerance, booleans are strict).
//!
//! Usage:
//! ```text
//! shard_sweep [--smoke] [--n <points>] [--k <K>] [--chunk-size <points>]
//!             [--shards s1,s2,...] [--threads t1,t2,...] [--keep-spill]
//!             [--obs]
//! ```
//! * `--smoke`      — CI-sized run (40K points, K = 400) + in-memory
//!   cross-check of every shard count.
//! * `--shards`     — shard counts to sweep (default `1,2,4`).
//! * `--threads`    — per-shard pre-eval thread counts to sweep (default
//!   `1,2`); the first entry is the reference every other run must
//!   reproduce bit-for-bit.
//! * `--obs`        — add a fully instrumented sharded pass at the largest
//!   shard count, assert it bit-identical, export a validated Chrome trace
//!   (`results/trace_shard.json`) with ≥ S worker spans under one build
//!   root, and graft an `obs` section onto the report.

use bench::obs::{validate_build_trace, ObsBundle};
use bench::{
    bitwise_eq, display_path, emit, fmt3, parse_shards_list, parse_threads_list, results_dir,
    ReportTable,
};
use serde::{Serialize, Value};
use std::path::Path;
use std::time::Instant;
use vas_core::{GaussianKernel, Kernel, ShardedSampler, VasConfig, VasSampler};
use vas_data::{GeolifeGenerator, Point};
use vas_eval::{LossConfig, LossEstimator};
use vas_obs::Recorder;
use vas_stream::{ChunkedReader, ChunkedWriter, GeolifeSource, PointSource};

/// Seed shared with the in-memory verification path.
const SEED: u64 = 20_160_520;

/// Maximum tolerated `loss(S) / loss(unsharded)` median ratio. Sharding
/// trades a little quality for scale-out: each shard selects against local
/// density only and the merge reconciles borders from `~1.5K` candidates.
/// The smoke workload measures ratios near 1.0; the band leaves headroom
/// for workload drift while still catching a broken merge (which shows up
/// as 2–10× loss).
const LOSS_BAND_MAX: f64 = 1.5;

#[derive(Debug, Clone, Serialize)]
struct SweepRow {
    shards: usize,
    threads: usize,
    secs: f64,
    tuples_per_sec: f64,
    /// Throughput ratio against the `S = 1` run at the same thread count.
    speedup_vs_s1: f64,
}

#[derive(Debug, Clone, Serialize)]
struct QualityRow {
    shards: usize,
    /// Median Monte-Carlo point-loss of this shard count's sample.
    loss_median: f64,
    /// `loss_median / unsharded loss_median` — the quality cost of sharding.
    loss_ratio_vs_unsharded: f64,
    /// Smoke only: streamed sharded build == in-memory `build_sharded`.
    streaming_matches_in_memory: Option<bool>,
}

#[derive(Debug, Clone, Serialize)]
struct Gates {
    /// Every (S, threads) run reproduced its shard count's reference sample.
    bit_identical: bool,
    /// The S = 1 sharded build equals the unsharded streaming build.
    s1_matches_unsharded: bool,
    /// Every shard count's loss ratio stayed within [`LOSS_BAND_MAX`].
    loss_within_band: bool,
    all_passed: bool,
}

#[derive(Debug, Clone, Serialize)]
struct ShardReport {
    bench: String,
    mode: String,
    n: u64,
    k: usize,
    chunk_size: usize,
    seed: u64,
    epsilon: f64,
    shards: Vec<usize>,
    threads: Vec<usize>,
    loss_band_max: f64,
    unsharded: SweepRow,
    unsharded_loss_median: f64,
    sweep: Vec<SweepRow>,
    quality: Vec<QualityRow>,
    gates: Gates,
}

/// One streamed sharded build over the spill. Returns wall-clock seconds
/// and the sample points.
fn run_sharded(
    spill_path: &Path,
    k: usize,
    epsilon: f64,
    shards: usize,
    threads: usize,
    recorder: Recorder,
) -> (f64, Vec<Point>) {
    let mut reader = ChunkedReader::open(spill_path).expect("open spill");
    let mut sampler = ShardedSampler::new(
        VasConfig::new(k)
            .with_epsilon(epsilon)
            .with_threads(threads),
        shards,
    )
    .with_recorder(recorder);
    let start = Instant::now();
    let sample = sampler
        .build_sharded_from_source(&mut reader)
        .expect("sharded streaming build");
    (start.elapsed().as_secs_f64().max(1e-9), sample.points)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let keep_spill = args.iter().any(|a| a == "--keep-spill");
    let obs = args.iter().any(|a| a == "--obs");
    let (mut n, mut k, mut chunk_size) = if smoke {
        (40_000u64, 400usize, 4_096usize)
    } else {
        (2_000_000u64, 4_000usize, 65_536usize)
    };
    let mut shards_sweep: Vec<usize> = vec![1, 2, 4];
    let mut threads_sweep: Vec<usize> = vec![1, 2];
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" | "--keep-spill" | "--obs" => {}
            "--shards" | "--threads" => {
                let flag = args[i].clone();
                i += 1;
                let value = args.get(i).map(String::as_str).unwrap_or("");
                let parsed = if flag == "--shards" {
                    parse_shards_list(value)
                } else {
                    parse_threads_list(value)
                };
                match parsed {
                    Ok(list) if flag == "--shards" => shards_sweep = list,
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
                    "unknown argument {unknown}; usage: shard_sweep [--smoke] [--n <points>] \
                     [--k <K>] [--chunk-size <points>] [--shards s1,s2,...] \
                     [--threads t1,t2,...] [--keep-spill] [--obs]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // S = 1 anchors both the speedup denominator and the unsharded
    // equivalence gate; sweep it even when the flag omits it.
    if !shards_sweep.contains(&1) {
        shards_sweep.insert(0, 1);
    }
    shards_sweep.sort_unstable();
    let mode = if smoke { "smoke" } else { "full" };
    let spill_path = results_dir().join(format!("shard_sweep_{n}.vaschunk"));

    // ---- Phase 1: streaming generation → chunked columnar spill. ----
    eprintln!("[shard_sweep] ingest: generating + spilling {n} points (chunk {chunk_size})");
    let generator = GeolifeGenerator::with_size(n as usize, SEED);
    let mut source = GeolifeSource::new(generator, chunk_size);
    let mut writer = ChunkedWriter::create(&spill_path, source.name(), source.kind(), chunk_size)
        .expect("create spill file");
    let mut buf = Vec::new();
    while source.next_chunk(&mut buf).expect("generator chunk") > 0 {
        writer.write_points(&buf).expect("spill chunk");
    }
    let summary = writer.finish().expect("finish spill");
    assert_eq!(summary.count, n, "spill must hold every generated point");

    // The spill header carries the stream-order bounds; resolving ε once
    // here keeps every run — sharded or not, streamed or in-memory — on the
    // same kernel.
    let epsilon = {
        let reader = ChunkedReader::open(&spill_path).expect("open spill");
        GaussianKernel::for_bounds(&reader.header().bounds).bandwidth()
    };
    eprintln!("[shard_sweep] K = {k}, epsilon = {epsilon:.6}");

    // The materialized dataset feeds the loss estimator (fixed probe set →
    // loss values comparable across shard counts) and, in smoke mode, the
    // in-memory cross-checks.
    let dataset = GeolifeGenerator::with_size(n as usize, SEED).generate();
    let kernel = GaussianKernel::new(epsilon);
    let estimator = LossEstimator::new(&dataset, &kernel, LossConfig::default());

    // ---- Unsharded streaming baseline. ----
    let base_threads = threads_sweep[0];
    eprintln!("[shard_sweep] baseline: unsharded streaming build (threads = {base_threads})");
    let (unsharded_secs, unsharded_points) = {
        let mut reader = ChunkedReader::open(&spill_path).expect("open spill");
        let mut sampler = VasSampler::new(
            VasConfig::new(k)
                .with_epsilon(epsilon)
                .with_threads(base_threads),
        );
        let start = Instant::now();
        let sample = sampler
            .build_from_source(&mut reader)
            .expect("unsharded streaming build");
        (start.elapsed().as_secs_f64().max(1e-9), sample.points)
    };
    let unsharded_loss = estimator.evaluate(&kernel, &unsharded_points);
    let unsharded = SweepRow {
        shards: 0,
        threads: base_threads,
        secs: unsharded_secs,
        tuples_per_sec: n as f64 / unsharded_secs,
        speedup_vs_s1: 1.0,
    };
    eprintln!(
        "[shard_sweep] baseline: {} tuples/s, loss median {}",
        fmt3(unsharded.tuples_per_sec),
        fmt3(unsharded_loss.median)
    );

    // ---- The shards × threads sweep. ----
    let mut sweep: Vec<SweepRow> = Vec::new();
    let mut quality: Vec<QualityRow> = Vec::new();
    let mut references: Vec<(usize, Vec<Point>)> = Vec::new();
    let mut bit_identical = true;
    let mut s1_matches_unsharded = true;
    let mut loss_within_band = true;
    for &shards in &shards_sweep {
        let mut reference: Option<Vec<Point>> = None;
        for &threads in &threads_sweep {
            eprintln!("[shard_sweep] sweep: S = {shards}, threads = {threads}");
            let (secs, points) = run_sharded(
                &spill_path,
                k,
                epsilon,
                shards,
                threads,
                Recorder::detached(),
            );
            let tuples_per_sec = n as f64 / secs;
            let speedup_vs_s1 = sweep
                .iter()
                .find(|r| r.shards == 1 && r.threads == threads)
                .map(|r| tuples_per_sec / r.tuples_per_sec)
                .unwrap_or(1.0);
            sweep.push(SweepRow {
                shards,
                threads,
                secs,
                tuples_per_sec,
                speedup_vs_s1,
            });
            match &reference {
                None => reference = Some(points),
                Some(reference) => {
                    if !bitwise_eq(&points, reference) {
                        eprintln!(
                            "[shard_sweep] FAIL: S = {shards} diverged at threads = {threads}"
                        );
                        bit_identical = false;
                    }
                }
            }
        }
        let reference = reference.expect("at least one thread count swept");

        if shards == 1 && !bitwise_eq(&reference, &unsharded_points) {
            eprintln!("[shard_sweep] FAIL: the S = 1 sharded build differs from the unsharded one");
            s1_matches_unsharded = false;
        }

        // Smoke cross-check: the in-memory sharded build consumes the whole
        // dataset as one chunk, so agreement here also pins chunk-size
        // independence of the streamed path.
        let streaming_matches_in_memory = if smoke {
            let mut sampler = ShardedSampler::new(VasConfig::new(k).with_epsilon(epsilon), shards);
            let in_memory = sampler
                .build_sharded(&dataset)
                .expect("in-memory sharded build");
            let identical = bitwise_eq(&reference, &in_memory.points);
            if !identical {
                eprintln!(
                    "[shard_sweep] FAIL: S = {shards} streamed build differs from build_sharded"
                );
                bit_identical = false;
            }
            Some(identical)
        } else {
            None
        };

        let loss = estimator.evaluate(&kernel, &reference);
        let denom = unsharded_loss.median.max(1e-300);
        let ratio = loss.median / denom;
        // NaN must trip the gate too, hence the explicit is_nan check.
        if ratio.is_nan() || ratio > LOSS_BAND_MAX {
            eprintln!(
                "[shard_sweep] FAIL: S = {shards} loss ratio {ratio:.3} exceeds {LOSS_BAND_MAX}"
            );
            loss_within_band = false;
        }
        quality.push(QualityRow {
            shards,
            loss_median: loss.median,
            loss_ratio_vs_unsharded: ratio,
            streaming_matches_in_memory,
        });
        references.push((shards, reference));
    }

    // ---- Observability pass (`--obs`): fully instrumented sharded build
    // at the largest shard count, asserted bit-identical, with a validated
    // causal trace: one build root fanning out to ≥ S worker spans. ----
    let obs_section = if obs {
        let shards = *shards_sweep.last().expect("non-empty shard sweep");
        let obs_threads = *threads_sweep.last().expect("non-empty thread sweep");
        eprintln!("[shard_sweep] obs: instrumented pass (S = {shards}, threads = {obs_threads})");
        let bundle = ObsBundle::new();
        let (obs_secs, obs_points) = run_sharded(
            &spill_path,
            k,
            epsilon,
            shards,
            obs_threads,
            bundle.recorder.clone(),
        );
        let reference = &references
            .iter()
            .find(|(s, _)| *s == shards)
            .expect("reference recorded for every swept shard count")
            .1;
        if !bitwise_eq(&obs_points, reference) {
            eprintln!("[shard_sweep] FAIL: the instrumented pass diverged from the reference");
            std::process::exit(1);
        }
        let trace_path = results_dir().join("trace_shard.json");
        let trace_json = bundle
            .write_trace(&trace_path)
            .expect("write trace artifact");
        match validate_build_trace(&trace_json) {
            Ok(check) if check.worker_spans >= shards => eprintln!(
                "[shard_sweep] obs: trace valid ({} spans, {} worker spans) at {}",
                check.spans,
                check.worker_spans,
                trace_path.display()
            ),
            Ok(check) => {
                eprintln!(
                    "[shard_sweep] FAIL: expected >= {shards} worker spans, trace has {}",
                    check.worker_spans
                );
                std::process::exit(1);
            }
            Err(reason) => {
                eprintln!("[shard_sweep] FAIL: invalid build trace: {reason}");
                std::process::exit(1);
            }
        }
        let mut section = bundle.section_value();
        if let Value::Object(fields) = &mut section {
            fields.push(("instrumented_secs".to_string(), Value::Number(obs_secs)));
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
        eprintln!("[shard_sweep] spill kept at {}", spill_path.display());
    }

    // ---- Report. ----
    let gates = Gates {
        bit_identical,
        s1_matches_unsharded,
        loss_within_band,
        all_passed: bit_identical && s1_matches_unsharded && loss_within_band,
    };
    let mut table = ReportTable::new(
        format!("Sharded sampling sweep ({mode}: n = {n}, K = {k}, chunk = {chunk_size})"),
        &[
            "shards",
            "threads",
            "time (s)",
            "tuples/s",
            "speedup vs S=1",
        ],
    );
    table.push_row(vec![
        "unsharded".to_string(),
        unsharded.threads.to_string(),
        fmt3(unsharded.secs),
        fmt3(unsharded.tuples_per_sec),
        "-".to_string(),
    ]);
    for row in &sweep {
        table.push_row(vec![
            row.shards.to_string(),
            row.threads.to_string(),
            fmt3(row.secs),
            fmt3(row.tuples_per_sec),
            format!("{:.2}x", row.speedup_vs_s1),
        ]);
    }
    let mut quality_table = ReportTable::new(
        format!("Shard-count quality cost (loss band <= {LOSS_BAND_MAX})"),
        &[
            "shards",
            "loss median",
            "ratio vs unsharded",
            "in-memory ==",
        ],
    );
    quality_table.push_row(vec![
        "unsharded".to_string(),
        fmt3(unsharded_loss.median),
        "1.000".to_string(),
        "-".to_string(),
    ]);
    for row in &quality {
        quality_table.push_row(vec![
            row.shards.to_string(),
            fmt3(row.loss_median),
            fmt3(row.loss_ratio_vs_unsharded),
            match row.streaming_matches_in_memory {
                Some(true) => "yes".to_string(),
                Some(false) => "NO".to_string(),
                None => "-".to_string(),
            },
        ]);
    }
    emit("shard_sweep", &[table, quality_table]);

    let report = ShardReport {
        bench: "shard_sweep".to_string(),
        mode: mode.to_string(),
        n,
        k,
        chunk_size,
        seed: SEED,
        epsilon,
        shards: shards_sweep.clone(),
        threads: threads_sweep.clone(),
        loss_band_max: LOSS_BAND_MAX,
        unsharded,
        unsharded_loss_median: unsharded_loss.median,
        sweep,
        quality,
        gates: gates.clone(),
    };
    let path = results_dir().join("BENCH_shard.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize shard report");
    // Graft the optional `--obs` section so the artifact schema only grows
    // when the instrumented pass actually ran.
    let json = match obs_section {
        Some(section) => {
            let mut root: Value = serde_json::from_str(&json).expect("reparse shard report");
            if let Value::Object(fields) = &mut root {
                fields.push(("obs".to_string(), section));
            }
            serde_json::to_string_pretty(&root).expect("serialize shard report with obs")
        }
        None => json,
    };
    std::fs::write(&path, json).expect("write BENCH_shard.json");
    eprintln!("[machine-readable report written to {}]", path.display());

    if !gates.all_passed {
        eprintln!("[shard_sweep] FAIL: gates = {gates:?}");
        std::process::exit(1);
    }
    eprintln!(
        "[shard_sweep] all gates passed: deterministic across threads, S = 1 == unsharded, \
         loss within band"
    );
}
