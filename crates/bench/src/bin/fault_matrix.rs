//! The fault matrix: every recovery claim in the failure model, exercised
//! end-to-end with deterministic injected faults.
//!
//! Four scenario families, all seeded and bit-reproducible:
//!
//! 1. **Transient I/O** — a seeded [`FaultInjectorSource`] makes chunk reads
//!    fail transiently mid-build; [`RetryingSource`] must absorb every one
//!    and the resulting sample must be bit-identical to a fault-free build.
//!    A fatal (non-transient) injected error must *not* be retried and must
//!    surface as a typed error.
//! 2. **Corruption** — a single bit flipped in a spilled `.vaschunk` file
//!    must fail the per-chunk CRC with a hard error under the default
//!    policy, and under the opt-in [`CorruptionPolicy::SkipChunks`] must be
//!    skipped, reported, and leave the remainder readable.
//! 3. **Crash recovery** — for every locality backend, a build killed at a
//!    chunk boundary and resumed from its `.vascheckpt` must reproduce the
//!    uninterrupted sample bit for bit.
//! 4. **Worker panic** — an `S = 2` sharded build whose source panics
//!    mid-stream must not unwind: every shard worker is joined, the panic is
//!    counted, the tracer dumps its post-mortem file, and the build returns
//!    a typed [`VasError::WorkerPanic`].
//!
//! Output: a table on stdout plus machine-readable
//! `results/BENCH_faults.json` whose boolean gates CI greps. Exits non-zero
//! if any cell fails.
//!
//! Usage:
//! ```text
//! fault_matrix [--smoke] [--n <points>] [--k <K>] [--chunk-size <points>] [--obs]
//! ```
//!
//! With `--obs` a fifth scenario runs the fault path fully instrumented:
//! a retried `S = 2` sharded build with counters + timers + a tracer (spans
//! and events) attached must stay bit-identical to the detached sharded
//! build and yield a valid causal trace, and a fatal injected fault must
//! fire the tracer's post-mortem dump.
//! The summary lands in an `obs` section of `BENCH_faults.json`.

use bench::obs::{validate_build_trace, ObsBundle};
use bench::{bitwise_eq, display_path, emit, results_dir, ReportTable};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vas_core::{
    BuildOutcome, CheckpointPolicy, GaussianKernel, LocalityBackend, ShardedSampler, VasConfig,
    VasSampler,
};
use vas_data::{GeolifeGenerator, Point};
use vas_obs::{Counter, MetricsRegistry, Recorder, Tracer};
use vas_sampling::Sample;
use vas_stream::{
    flip_bit_in_file, spill_dataset, write_atomic, ChunkedReader, CorruptionPolicy,
    FaultInjectorSource, FaultPlan, PointSource, RetryPolicy, RetryingSource, VasError,
};

/// Seed shared with the rest of the harness binaries.
const SEED: u64 = 20_160_519;

/// Shards of the sharded builds (the panic cell and the `--obs` build).
const SHARDS: usize = 2;

#[derive(Debug, Clone, Serialize)]
struct RecoveryCell {
    backend: String,
    killed_after_chunks: u64,
    bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct FaultReport {
    bench: String,
    mode: String,
    n: usize,
    k: usize,
    chunk_size: usize,
    seed: u64,
    // Scenario 1: transient faults retried, fatal faults not.
    transient_faults_injected: u64,
    retries_absorbed: u64,
    transient_recovered: bool,
    fatal_not_retried: bool,
    // Scenario 2: CRC detection + degraded skip mode.
    crc_detected: bool,
    crc_skip_mode_reports: bool,
    // Scenario 3: kill-and-resume, per backend × kill point.
    recovery_cells: Vec<RecoveryCell>,
    recovery_bit_identical: bool,
    // Scenario 4: a sharded build's panicking source, contained.
    contained_panics: u64,
    panic_contained: bool,
    all_passed: bool,
}

fn build_clean(spill: &Path, config: &VasConfig) -> Sample {
    let mut reader = ChunkedReader::open(spill).expect("open spill");
    VasSampler::new(config.clone())
        .build_from_source(&mut reader)
        .expect("clean build")
}

/// A source that panics on its `panic_at`-th chunk: a decoder bug.
struct PanickingSource<S> {
    inner: S,
    chunks: u64,
    panic_at: u64,
}

impl<S: PointSource> PointSource for PanickingSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
    fn chunk_capacity(&self) -> usize {
        self.inner.chunk_capacity()
    }
    fn next_chunk(&mut self, buf: &mut Vec<Point>) -> std::io::Result<usize> {
        self.chunks += 1;
        assert!(self.chunks != self.panic_at, "injected decoder panic");
        self.inner.next_chunk(buf)
    }
    fn reset(&mut self) -> std::io::Result<()> {
        self.inner.reset()
    }
}

/// Scenario 1: the retrying source must absorb every injected transient
/// fault and reproduce the fault-free sample; a fatal fault must pass
/// through untouched.
fn run_transient_scenario(
    spill: &Path,
    config: &VasConfig,
    reference: &Sample,
) -> (u64, u64, bool, bool) {
    let reader = ChunkedReader::open(spill).expect("open spill");
    // Roughly one read in three fails, twice in a row, on a seeded schedule.
    let injector = FaultInjectorSource::new(reader, FaultPlan::transient(SEED, 3, 2));
    let mut source = RetryingSource::new(injector, RetryPolicy::immediate(5));
    let result = VasSampler::new(config.clone()).build_from_source(&mut source);
    let retries = source.retries();
    let injected = source.into_inner().transient_injected();
    let recovered = match result {
        Ok(sample) => {
            let identical = bitwise_eq(&sample.points, &reference.points);
            if !identical {
                eprintln!("[fault_matrix] FAIL: retried build diverged from the clean build");
            }
            identical && injected > 0 && retries >= injected
        }
        Err(e) => {
            eprintln!("[fault_matrix] FAIL: transient faults were not absorbed: {e}");
            false
        }
    };

    // Fatal faults must not be retried: the build dies with a typed,
    // non-transient error and the retry counter stays untouched.
    let reader = ChunkedReader::open(spill).expect("open spill");
    let injector = FaultInjectorSource::new(reader, FaultPlan::fatal_after(2));
    let mut source = RetryingSource::new(injector, RetryPolicy::immediate(5));
    let result = VasSampler::new(config.clone()).build_from_source(&mut source);
    let fatal_not_retried = match result {
        Ok(_) => {
            eprintln!("[fault_matrix] FAIL: a fatal injected fault did not fail the build");
            false
        }
        Err(e) => {
            let not_retried = source.retries() == 0 && !e.is_transient();
            if !not_retried {
                eprintln!(
                    "[fault_matrix] FAIL: fatal fault was retried ({} retries) or \
                     misclassified: {e}",
                    source.retries()
                );
            }
            not_retried
        }
    };
    (injected, retries, recovered, fatal_not_retried)
}

/// Scenario 2: a flipped bit in the spill must fail the chunk CRC hard by
/// default, and be skipped-and-reported under the opt-in policy.
fn run_corruption_scenario(spill: &Path, corrupt_copy: &Path, n: usize) -> (bool, bool) {
    std::fs::copy(spill, corrupt_copy).expect("copy spill");
    let bytes = std::fs::metadata(corrupt_copy).expect("stat spill").len();
    // Mid-file lands inside a chunk's column data (the header is tiny).
    flip_bit_in_file(corrupt_copy, bytes * 8 / 2).expect("flip bit");

    let mut reader = ChunkedReader::open(corrupt_copy).expect("open corrupt spill");
    let mut buf = Vec::new();
    let mut hard_error = None;
    loop {
        match reader.next_chunk(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                hard_error = Some(e);
                break;
            }
        }
    }
    let crc_detected = match hard_error {
        Some(e) => {
            let typed = matches!(
                VasError::from_io_chain(&e),
                Some(VasError::ChecksumMismatch { .. })
            );
            if !typed {
                eprintln!("[fault_matrix] FAIL: corruption error is not a checksum mismatch: {e}");
            }
            typed
        }
        None => {
            eprintln!("[fault_matrix] FAIL: flipped bit went undetected by the default policy");
            false
        }
    };

    let mut reader = ChunkedReader::open(corrupt_copy)
        .expect("open corrupt spill")
        .with_corruption_policy(CorruptionPolicy::SkipChunks);
    let mut streamed = 0usize;
    let skip_ok = loop {
        match reader.next_chunk(&mut buf) {
            Ok(0) => break true,
            Ok(got) => streamed += got,
            Err(e) => {
                eprintln!("[fault_matrix] FAIL: skip mode still errored: {e}");
                break false;
            }
        }
    };
    let reports = reader.corruption_reports().len();
    let skipped = reader.points_skipped() as usize;
    let crc_skip_mode_reports = skip_ok
        && reports >= 1
        && skipped > 0
        && streamed + skipped == n
        && streamed == reader.points_read() as usize;
    if skip_ok && !crc_skip_mode_reports {
        eprintln!(
            "[fault_matrix] FAIL: skip mode accounting is off: {streamed} streamed, \
             {skipped} skipped, {reports} reports, {n} total"
        );
    }
    (crc_detected, crc_skip_mode_reports)
}

/// Scenario 3: kill at a chunk boundary, resume from the checkpoint, compare
/// every bit — per backend.
fn run_recovery_scenario(spill: &Path, k: usize, kill_points: &[u64]) -> (Vec<RecoveryCell>, bool) {
    let mut cells = Vec::new();
    let mut all = true;
    for backend in LocalityBackend::ALL {
        let config = VasConfig::new(k).with_locality_backend(backend);
        let reference = build_clean(spill, &config);
        for &kill_after in kill_points {
            let ckpt =
                results_dir().join(format!("fault_matrix_{backend}_{kill_after}.vascheckpt"));
            let policy = CheckpointPolicy::every(&ckpt, 1).halting_after(kill_after);
            let mut reader = ChunkedReader::open(spill).expect("open spill");
            let outcome = VasSampler::new(config.clone())
                .build_from_source_checkpointed(&mut reader, &policy)
                .expect("checkpointed build");
            let mut ok = matches!(outcome, BuildOutcome::Halted { .. });
            if !ok {
                eprintln!(
                    "[fault_matrix] FAIL: kill switch never fired ({backend}, kill {kill_after})"
                );
            } else {
                let resume_policy = CheckpointPolicy::every(&ckpt, 1);
                let mut reader = ChunkedReader::open(spill).expect("open spill");
                let (_, outcome) = VasSampler::resume_build_from_source(
                    config.clone(),
                    &mut reader,
                    &resume_policy,
                )
                .expect("resume");
                let resumed = outcome.into_sample().expect("resumed build completes");
                ok = bitwise_eq(&resumed.points, &reference.points);
                if !ok {
                    eprintln!(
                        "[fault_matrix] FAIL: resumed sample diverged ({backend}, kill {kill_after})"
                    );
                }
            }
            std::fs::remove_file(&ckpt).ok();
            all &= ok;
            cells.push(RecoveryCell {
                backend: backend.to_string(),
                killed_after_chunks: kill_after,
                bit_identical: ok,
            });
        }
    }
    (cells, all)
}

/// Scenario 4: an `S = 2` sharded build whose source panics halfway through
/// the stream must return [`VasError::WorkerPanic`], count the panic and
/// dump the tracer's post-mortem file. Returns the contained-panic count and
/// the pass flag.
fn run_panic_scenario(spill: &Path, config: &VasConfig) -> (u64, bool) {
    let registry = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::new());
    let dump_path = results_dir().join("fault_matrix_panic.flight.jsonl");
    std::fs::remove_file(&dump_path).ok();
    tracer.set_dump_path(&dump_path);
    let recorder = Recorder::new(Arc::clone(&registry)).with_tracer(Arc::clone(&tracer));
    let reader = ChunkedReader::open(spill).expect("open spill");
    let chunks = reader.len_hint().unwrap_or(0) / reader.chunk_capacity().max(1) as u64;
    // A fixed ε skips the bounds scan, so every chunk is read while the
    // shards are fed; the panic hits the middle one.
    let mut source = PanickingSource {
        inner: reader,
        chunks: 0,
        panic_at: chunks / 2 + 1,
    };
    // The injected panic is expected; silence its default stderr report so
    // the harness log stays readable.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = ShardedSampler::new(config.clone(), SHARDS)
        .with_recorder(recorder)
        .build_sharded_from_source(&mut source);
    std::panic::set_hook(prev);
    let contained = registry.get(Counter::ParContainedPanics);
    let typed = matches!(
        result,
        Err(VasError::WorkerPanic {
            panicked_workers: 1,
            ..
        })
    );
    let dumped = tracer.dumps() > 0
        && std::fs::read_to_string(&dump_path)
            .ok()
            .and_then(|text| {
                text.lines()
                    .last()
                    .map(|l| l.contains("\"event\":\"fatal\""))
            })
            .unwrap_or(false);
    std::fs::remove_file(&dump_path).ok();
    if !typed {
        eprintln!(
            "[fault_matrix] FAIL: the shard-feed panic ended in error {:?}",
            result.err()
        );
    }
    if !dumped {
        eprintln!("[fault_matrix] FAIL: the shard-feed panic wrote no post-mortem dump");
    }
    (contained, typed && contained == 1 && dumped)
}

/// Scenario 5 (`--obs`): the fully instrumented fault path. A retried
/// `S = 2` sharded build with the whole observability stack attached must
/// stay bit-identical to `reference`, the detached sharded build, and yield
/// a valid causal trace, and a fatal injected fault must make the tracer
/// write its post-mortem dump. Returns the `obs` section for
/// `BENCH_faults.json` and the pass flag.
fn run_obs_scenario(spill: &Path, config: &VasConfig, reference: &Sample) -> (Value, bool) {
    let bundle = ObsBundle::new();
    let dump_path = results_dir().join("flight_fault_matrix.jsonl");
    std::fs::remove_file(&dump_path).ok();
    bundle.tracer.set_dump_path(&dump_path);

    // The instrumented retried build: every stage reports into the bundle.
    let reader = ChunkedReader::open(spill)
        .expect("open spill")
        .with_recorder(bundle.recorder.clone());
    let injector = FaultInjectorSource::new(reader, FaultPlan::transient(SEED, 3, 2));
    let mut source = RetryingSource::new(injector, RetryPolicy::immediate(5))
        .with_recorder(bundle.recorder.clone());
    let result = ShardedSampler::new(config.clone(), SHARDS)
        .with_recorder(bundle.recorder.clone())
        .build_sharded_from_source(&mut source);
    let bit_identical = match result {
        Ok(sample) => {
            let identical = bitwise_eq(&sample.points, &reference.points);
            if !identical {
                eprintln!("[fault_matrix] FAIL: instrumented retried build diverged");
            }
            identical
        }
        Err(e) => {
            eprintln!("[fault_matrix] FAIL: instrumented retried build errored: {e}");
            false
        }
    };
    let trace_path = results_dir().join("trace_fault_matrix.json");
    let trace_json = bundle
        .write_trace(&trace_path)
        .expect("write trace artifact");
    let trace_valid = match validate_build_trace(&trace_json) {
        Ok(check) => {
            eprintln!(
                "[fault_matrix] obs: trace valid ({} spans, {} worker spans) at {}",
                check.spans,
                check.worker_spans,
                trace_path.display()
            );
            true
        }
        Err(reason) => {
            eprintln!("[fault_matrix] FAIL: invalid build trace: {reason}");
            false
        }
    };

    // A fatal injected fault must fail the build AND fire the tracer's
    // post-mortem dump.
    let reader = ChunkedReader::open(spill)
        .expect("open spill")
        .with_recorder(bundle.recorder.clone());
    let injector = FaultInjectorSource::new(reader, FaultPlan::fatal_after(2));
    let mut source = RetryingSource::new(injector, RetryPolicy::immediate(5))
        .with_recorder(bundle.recorder.clone());
    let fatal_result = VasSampler::new(config.clone())
        .with_recorder(bundle.recorder.clone())
        .build_from_source(&mut source);
    let flight_dumped = fatal_result.is_err() && bundle.tracer.dumps() > 0 && dump_path.is_file();
    if !flight_dumped {
        eprintln!(
            "[fault_matrix] FAIL: the fatal fault did not produce a post-mortem dump \
             (errored = {}, dumps = {})",
            fatal_result.is_err(),
            bundle.tracer.dumps()
        );
    }

    let mut section = bundle.section_value();
    if let Value::Object(fields) = &mut section {
        fields.push(("bit_identical".to_string(), Value::Bool(bit_identical)));
        fields.push(("trace_valid".to_string(), Value::Bool(trace_valid)));
        fields.push(("flight_dumped".to_string(), Value::Bool(flight_dumped)));
        fields.push((
            "flight_dump".to_string(),
            Value::String(display_path(&dump_path)),
        ));
        fields.push((
            "trace".to_string(),
            Value::String(display_path(&trace_path)),
        ));
    }
    (section, bit_identical && trace_valid && flight_dumped)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let obs = args.iter().any(|a| a == "--obs");
    let (mut n, mut k, mut chunk_size) = if smoke {
        (20_000usize, 200usize, 1_024usize)
    } else {
        (200_000usize, 2_000usize, 8_192usize)
    };
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" | "--obs" => {}
            "--n" | "--k" | "--chunk-size" => {
                let flag = args[i].clone();
                i += 1;
                let value = args.get(i).and_then(|v| v.parse::<usize>().ok());
                match value {
                    Some(v) if v > 0 => match flag.as_str() {
                        "--n" => n = v,
                        "--k" => k = v,
                        _ => chunk_size = v,
                    },
                    _ => {
                        eprintln!("{flag} needs a positive integer value");
                        std::process::exit(2);
                    }
                }
            }
            unknown => {
                eprintln!(
                    "unknown argument {unknown}; usage: fault_matrix [--smoke] [--n <points>] \
                     [--k <K>] [--chunk-size <points>] [--obs]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let mode = if smoke { "smoke" } else { "full" };
    let dataset = GeolifeGenerator::with_size(n, SEED).generate();
    let spill: PathBuf = results_dir().join(format!("fault_matrix_{n}.vaschunk"));
    spill_dataset(&dataset, &spill, chunk_size).expect("spill dataset");

    let base = VasConfig::new(k);
    eprintln!("[fault_matrix] clean reference build (n = {n}, K = {k}, chunk = {chunk_size})");
    let reference = build_clean(&spill, &base);

    eprintln!("[fault_matrix] scenario 1: transient faults + retry");
    let (injected, retries, transient_recovered, fatal_not_retried) =
        run_transient_scenario(&spill, &base, &reference);

    eprintln!("[fault_matrix] scenario 2: CRC detection + skip mode");
    let corrupt_copy = results_dir().join(format!("fault_matrix_{n}_corrupt.vaschunk"));
    let (crc_detected, crc_skip_mode_reports) = run_corruption_scenario(&spill, &corrupt_copy, n);
    std::fs::remove_file(&corrupt_copy).ok();

    eprintln!("[fault_matrix] scenario 3: kill-and-resume per backend");
    let kill_points: &[u64] = if smoke { &[2, 5] } else { &[2, 5, 11] };
    let (recovery_cells, recovery_bit_identical) = run_recovery_scenario(&spill, k, kill_points);

    eprintln!("[fault_matrix] scenario 4: sharded build with a panicking source");
    let epsilon = GaussianKernel::for_dataset(&dataset).epsilon();
    let (contained, panic_contained) =
        run_panic_scenario(&spill, &base.clone().with_epsilon(epsilon));

    // Scenario 5 (`--obs`): the instrumented fault path + post-mortem dump,
    // on an S = 2 sharded build so the trace carries cross-thread worker
    // spans, checked against the detached sharded build.
    let obs_result = if obs {
        eprintln!("[fault_matrix] scenario 5: instrumented faults + post-mortem dump");
        let sharded_reference = {
            let mut reader = ChunkedReader::open(&spill).expect("open spill");
            ShardedSampler::new(base.clone(), SHARDS)
                .build_sharded_from_source(&mut reader)
                .expect("sharded reference build")
        };
        Some(run_obs_scenario(&spill, &base, &sharded_reference))
    } else {
        None
    };
    let obs_passed = obs_result.as_ref().map(|(_, ok)| *ok).unwrap_or(true);

    std::fs::remove_file(&spill).ok();

    let all_passed = transient_recovered
        && fatal_not_retried
        && crc_detected
        && crc_skip_mode_reports
        && recovery_bit_identical
        && panic_contained
        && obs_passed;

    let mut table = ReportTable::new(
        format!("Fault matrix ({mode}: n = {n}, K = {k}, chunk = {chunk_size})"),
        &["scenario", "detail", "pass"],
    );
    let yn = |b: bool| if b { "yes" } else { "NO" }.to_string();
    table.push_row(vec![
        "transient retried".into(),
        format!("{injected} injected, {retries} retries absorbed"),
        yn(transient_recovered),
    ]);
    table.push_row(vec![
        "fatal not retried".into(),
        "permanent fault surfaces unretried".into(),
        yn(fatal_not_retried),
    ]);
    table.push_row(vec![
        "CRC detects bit flip".into(),
        "default policy hard-errors".into(),
        yn(crc_detected),
    ]);
    table.push_row(vec![
        "CRC skip mode".into(),
        "corrupt chunk skipped + reported".into(),
        yn(crc_skip_mode_reports),
    ]);
    table.push_row(vec![
        "kill-and-resume".into(),
        format!("{} cells (backend x kill point)", recovery_cells.len()),
        yn(recovery_bit_identical),
    ]);
    table.push_row(vec![
        "panic containment".into(),
        format!("S = {SHARDS} source panic: {contained} contained, typed error + dump"),
        yn(panic_contained),
    ]);
    if obs_result.is_some() {
        table.push_row(vec![
            "obs + post-mortem dump".into(),
            "instrumented faults traced, fatal dump written".into(),
            yn(obs_passed),
        ]);
    }
    emit("fault_matrix", &[table]);

    let report = FaultReport {
        bench: "fault_matrix".into(),
        mode: mode.into(),
        n,
        k,
        chunk_size,
        seed: SEED,
        transient_faults_injected: injected,
        retries_absorbed: retries,
        transient_recovered,
        fatal_not_retried,
        crc_detected,
        crc_skip_mode_reports,
        recovery_cells,
        recovery_bit_identical,
        contained_panics: contained,
        panic_contained,
        all_passed,
    };
    let path = results_dir().join("BENCH_faults.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize fault report");
    // Graft the optional `--obs` section onto the serialized report, so the
    // artifact schema only grows when the instrumented scenario actually ran.
    let json = match obs_result {
        Some((section, _)) => {
            let mut root: Value = serde_json::from_str(&json).expect("reparse fault report");
            if let Value::Object(fields) = &mut root {
                fields.push(("obs".to_string(), section));
            }
            serde_json::to_string_pretty(&root).expect("serialize fault report with obs")
        }
        None => json,
    };
    write_atomic(&path, json.as_bytes()).expect("write BENCH_faults.json");
    eprintln!("[machine-readable report written to {}]", path.display());

    if !all_passed {
        eprintln!("[fault_matrix] FAIL: at least one matrix cell failed");
        std::process::exit(1);
    }
    eprintln!("[fault_matrix] every fault-matrix cell passed");
}
