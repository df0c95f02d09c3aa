//! Inner-loop throughput of the Interchange candidate (replacement-test)
//! path — block-max Shrink, bounded rejection filter and batched kernel
//! lanes over zero-allocation spatial queries — swept across every
//! `LocalityIndex` backend, measured in the same run on the same stream.
//!
//! The figure of merit is **throughput on rejected-candidate tuples** — the
//! overwhelmingly common case once the sample has converged, and the case
//! the max-responsibility tracker turns from an `O(K)` scan into an `O(1)`
//! read.
//! The accepted-replacement path is tracked separately (`accepted_secs`),
//! with a micro-measured cost split (the two radius queries vs the index
//! remove/insert churn) per backend. An accept gathers both neighbourhoods
//! into SoA lanes, writes each responsibility delta once, in place, marks
//! its 64-slot block dirty in the tracker, and reduces the dirty blocks'
//! maxima once per accept.
//!
//! Output: a human-readable table on stdout plus machine-readable
//! `results/BENCH_interchange.json`, so the perf trajectory of this hot path
//! can be tracked across commits. CI runs `--smoke` (tiny N) on every push
//! with `--require-hashgrid-at-least 0.9`, which fails the job if the
//! spatial-hash backend ever regresses below the R-tree baseline.
//!
//! With `--threads t1,t2,...` the run additionally sweeps the **speculative
//! kernel pre-evaluation** front over the ES+Loc/hashgrid loop:
//! the candidate phase is driven through `VasSampler::observe_chunk` at each
//! thread count, every run's sample is asserted bit-identical to the
//! `threads = 1` run (non-zero exit on divergence), and the timings land in
//! a `fig10_inner_loop` section of `results/BENCH_parallel.json`.
//!
//! With `--obs` the binary instead runs only the **observability overhead
//! gate**: the full instrumented stack (chunked reads through fault
//! injection, retries, checkpoint halt/resume, and the sampler itself, all
//! with timers and a tracer attached) against the detached-recorder no-op
//! build on the same spilled stream. The gate asserts the two samples are
//! bit-identical, the tracer carries checkpoint/retry/phase-transition
//! events, both exporters round-trip the registry snapshot, and the
//! instrumentation overhead stays under a fixed ceiling — then writes
//! `results/BENCH_obs.json` and exits non-zero on any violation.
//!
//! Usage:
//! ```text
//! fig10_inner_loop [--smoke] [--backend rtree|hashgrid]
//!                  [--require-hashgrid-at-least <ratio>] [--threads t1,t2,...]
//!                  [--obs]
//! ```
//! * `--smoke`    — tiny dataset (20K points, K = 500) for CI.
//! * `--backend`  — restrict the sweep to one backend (default: both).
//! * `--require-hashgrid-at-least` — exit non-zero unless
//!   `hashgrid rejected/s ÷ rtree rejected/s` reaches the given ratio; both
//!   backends must be part of the sweep.
//! * `--threads`  — comma-separated thread counts for the speculative
//!   pre-evaluation sweep.
//! * `--obs`      — run only the observability overhead gate (see above).

use bench::obs::{validate_build_trace, ObsBundle};
use bench::{
    bitwise_eq, emit, fmt3, merge_parallel_section, parse_threads_list, results_dir, ReportTable,
    TimingStats,
};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use vas_core::{
    BuildOutcome, CheckpointPolicy, GaussianKernel, InterchangeStrategy, Kernel, VasConfig,
    VasSampler,
};
use vas_data::{Dataset, GaussianMixtureGenerator, Point};
use vas_obs::{export, Counter, Phase, Recorder};
use vas_sampling::Sampler;
use vas_spatial::{AnyLocalityIndex, LocalityBackend, LocalityIndex};
use vas_stream::{
    spill_dataset, ChunkedReader, FaultInjectorSource, FaultPlan, RetryPolicy, RetryingSource,
};

/// One measured (strategy × backend) cell.
#[derive(Debug, Clone, Serialize)]
struct VariantResult {
    /// Strategy label ("ES" or "ES+Loc").
    strategy: String,
    /// Locality backend label ("rtree", "hashgrid"; "n/a" for the
    /// backend-independent plain-ES strategy).
    backend: String,
    /// Wall-clock seconds spent filling the first K slots.
    fill_secs: f64,
    /// Wall-clock seconds spent on the candidate (replacement-test) phase.
    candidate_secs: f64,
    /// Of `candidate_secs`, the share spent on tuples that ended rejected.
    rejected_secs: f64,
    /// Of `candidate_secs`, the share spent on tuples that ended accepted.
    accepted_secs: f64,
    /// Candidate tuples streamed after the fill.
    candidate_tuples: u64,
    /// Valid replacements performed (accepted tuples).
    accepted: u64,
    /// Rejected tuples (`candidate_tuples - accepted`).
    rejected: u64,
    /// Candidate tuples per second (whole candidate phase).
    tuples_per_sec: f64,
    /// Rejected tuples per second **while processing rejected tuples** — the
    /// headline metric: the per-tuple cost of the overwhelmingly common case,
    /// with accepted-tuple (replacement) work accounted separately.
    rejected_per_sec: f64,
    /// Accepted tuples per second while processing accepted tuples.
    accepted_per_sec: f64,
}

/// Micro-measured cost split of one accepted replacement on one backend:
/// the two neighbourhood queries (candidate + removed element) vs the index
/// churn (remove + insert), averaged over a deterministic probe set drawn
/// from the converged sample.
#[derive(Debug, Clone, Serialize)]
struct AcceptCostSplit {
    backend: String,
    /// Average nanoseconds for the two radius queries of one replacement.
    query_pair_ns: f64,
    /// Average nanoseconds for one remove + insert cycle.
    churn_ns: f64,
    /// Probe points measured.
    probes: usize,
}

/// Cross-backend standing of the ES+Loc loop.
#[derive(Debug, Clone, Serialize)]
struct BackendComparison {
    backend: String,
    rejected_per_sec: f64,
    /// `rejected_per_sec / rtree.rejected_per_sec` (1.0 for rtree itself);
    /// 0.0 when the sweep excluded the rtree baseline.
    vs_rtree_rejected_ratio: f64,
}

/// The whole report, serialized to `results/BENCH_interchange.json`.
#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    bench: String,
    mode: String,
    dataset: DatasetInfo,
    variants: Vec<VariantResult>,
    accept_cost: Vec<AcceptCostSplit>,
    backend_comparison: Vec<BackendComparison>,
}

#[derive(Debug, Clone, Serialize)]
struct DatasetInfo {
    kind: String,
    n: usize,
    k: usize,
    epsilon: f64,
    locality_threshold: f64,
}

/// Streams the whole dataset through one sampler configuration, timing every
/// observation so rejected-tuple cost is separated from accepted-tuple cost.
/// Returns the measurement plus the converged sample (for the accept-cost
/// micro-bench).
fn measure(
    data: &Dataset,
    k: usize,
    strategy: InterchangeStrategy,
    backend: LocalityBackend,
    epsilon: f64,
) -> (VariantResult, Vec<Point>) {
    let mut sampler = VasSampler::from_dataset(
        data,
        VasConfig::new(k)
            .with_strategy(strategy)
            .with_epsilon(epsilon)
            .with_locality_backend(backend),
    );
    let fill_start = Instant::now();
    for p in data.points.iter().take(k) {
        sampler.observe(*p);
    }
    let fill_secs = fill_start.elapsed().as_secs_f64();

    // The ~2×Instant overhead per tuple is identical for all backends.
    let candidates = &data.points[k..];
    let mut rejected_secs = 0.0f64;
    let mut accepted_secs = 0.0f64;
    let mut replacements_before = sampler.replacements();
    let start = Instant::now();
    for p in candidates {
        let t0 = Instant::now();
        sampler.observe(*p);
        let dt = t0.elapsed().as_secs_f64();
        let replacements_now = sampler.replacements();
        if replacements_now == replacements_before {
            rejected_secs += dt;
        } else {
            accepted_secs += dt;
            replacements_before = replacements_now;
        }
    }
    let candidate_secs = start.elapsed().as_secs_f64().max(1e-9);
    let accepted = sampler.replacements();
    let candidate_tuples = candidates.len() as u64;
    let rejected = candidate_tuples - accepted;
    let backend_label = if strategy == InterchangeStrategy::ExpandShrinkLocality {
        backend.label().to_string()
    } else {
        "n/a".to_string()
    };
    let result = VariantResult {
        strategy: strategy.label().to_string(),
        backend: backend_label,
        fill_secs,
        candidate_secs,
        rejected_secs,
        accepted_secs,
        candidate_tuples,
        accepted,
        rejected,
        tuples_per_sec: candidate_tuples as f64 / candidate_secs,
        rejected_per_sec: rejected as f64 / rejected_secs.max(1e-9),
        accepted_per_sec: accepted as f64 / accepted_secs.max(1e-9),
    };
    (result, sampler.current_sample().to_vec())
}

/// One thread count of the speculative pre-evaluation sweep.
#[derive(Debug, Clone, Serialize)]
struct PreEvalSweepEntry {
    threads: usize,
    /// Wall-clock seconds of the candidate phase (fill excluded).
    candidate_secs: f64,
    /// Candidate tuples per second — the figure the acceptance gate reads.
    tuples_per_sec: f64,
    /// Throughput ratio against the `threads = 1` run of this sweep.
    speedup_vs_1: f64,
    accepted: u64,
}

/// The `fig10_inner_loop` section of `BENCH_parallel.json`.
#[derive(Debug, Clone, Serialize)]
struct PreEvalSection {
    n: usize,
    k: usize,
    backend: String,
    chunk_size: usize,
    pre_eval: Vec<PreEvalSweepEntry>,
    bit_identical: bool,
}

/// Chunk size the parallel sweep feeds `observe_chunk` (mirrors the
/// streaming default).
const SWEEP_CHUNK: usize = 8_192;

/// Runs the ES+Loc candidate phase through `observe_chunk` at one
/// thread count, returning the timing and the final sample for the
/// bit-identity gate.
fn measure_pre_eval(
    data: &Dataset,
    k: usize,
    epsilon: f64,
    threads: usize,
) -> (PreEvalSweepEntry, Vec<Point>) {
    let mut sampler = VasSampler::from_dataset(
        data,
        VasConfig::new(k)
            .with_strategy(InterchangeStrategy::ExpandShrinkLocality)
            .with_epsilon(epsilon)
            .with_threads(threads),
    );
    for p in data.points.iter().take(k) {
        sampler.observe(*p);
    }
    let candidates = &data.points[k..];
    let start = Instant::now();
    for chunk in candidates.chunks(SWEEP_CHUNK) {
        sampler.observe_chunk(chunk);
    }
    let candidate_secs = start.elapsed().as_secs_f64().max(1e-9);
    let entry = PreEvalSweepEntry {
        threads,
        candidate_secs,
        tuples_per_sec: candidates.len() as f64 / candidate_secs,
        speedup_vs_1: 1.0,
        accepted: sampler.replacements(),
    };
    (entry, sampler.current_sample().to_vec())
}

/// Micro-measures the accepted-replacement cost split on one backend: builds
/// the index over the converged sample at the cutoff radius, then times the
/// two neighbourhood queries and the remove/insert churn an accept performs.
fn measure_accept_cost(backend: LocalityBackend, sample: &[Point], cutoff: f64) -> AcceptCostSplit {
    let mut index = AnyLocalityIndex::new(backend);
    index.rebuild(
        cutoff,
        &sample.iter().copied().enumerate().collect::<Vec<_>>(),
    );
    // A deterministic probe subset; every probe is a stored entry, so the
    // churn cycle (remove then re-insert the same entry) is always valid.
    let stride = (sample.len() / 512).max(1);
    let probes: Vec<(usize, Point)> = sample.iter().copied().enumerate().step_by(stride).collect();

    let mut sink = 0usize;
    let query_start = Instant::now();
    for (_, p) in &probes {
        // An accept performs two radius queries: the candidate's
        // neighbourhood and the removed element's neighbourhood.
        for _ in 0..2 {
            index.for_each_in_radius_with_dist2(p, cutoff, |_, _, _| sink += 1);
        }
    }
    let query_pair_ns = query_start.elapsed().as_nanos() as f64 / probes.len() as f64;
    std::hint::black_box(sink);

    let churn_start = Instant::now();
    for &(id, ref p) in &probes {
        assert!(index.remove(id, p), "probe entry must be present");
        index.insert(id, *p);
    }
    let churn_ns = churn_start.elapsed().as_nanos() as f64 / probes.len() as f64;

    AcceptCostSplit {
        backend: backend.label().to_string(),
        query_pair_ns,
        churn_ns,
        probes: probes.len(),
    }
}

/// Chunk size of the observability-gate spill — small enough that even the
/// smoke dataset spans a few dozen chunks, so checkpoints, retries and the
/// fill→candidate transition all fire.
const OBS_CHUNK: usize = 1_024;
/// Maximum tolerated throughput overhead of full instrumentation (timers +
/// tracer) over the detached-recorder no-op build.
const OBS_OVERHEAD_CEILING: f64 = 0.03;
/// Seed of the deterministic transient-fault schedule the gate injects so
/// the retry path is exercised (and recorded) on every run.
const OBS_FAULT_SEED: u64 = 20_160_519;

/// Which of the required event kinds the tracer actually carried (the
/// report keeps the historical `journal_events` key).
#[derive(Debug, Clone, Serialize)]
struct ObsJournalEvents {
    checkpoint_write: bool,
    checkpoint_resume: bool,
    retry: bool,
    phase_transition: bool,
}

impl ObsJournalEvents {
    fn all_present(&self) -> bool {
        self.checkpoint_write && self.checkpoint_resume && self.retry && self.phase_transition
    }
}

/// Key registry counters. The build-scoped ones (accepts, rejects, kernel
/// lanes) are captured at the checkpoint halt — mid-build, before `finalize`
/// resets them; the stream/checkpoint counters are lifetime totals across
/// the halt, resume and full instrumented build.
#[derive(Debug, Clone, Serialize)]
struct ObsCounterSample {
    core_accepts_at_halt: u64,
    core_rejects_at_halt: u64,
    core_kernel_lanes_at_halt: u64,
    core_checkpoint_writes: u64,
    core_checkpoint_resumes: u64,
    stream_chunks_decoded: u64,
    stream_retries_absorbed: u64,
}

/// One phase row of the report, read from the registry's latency histograms.
#[derive(Debug, Clone, Serialize)]
struct ObsPhaseStat {
    phase: String,
    calls: u64,
    total_ms: f64,
    p50_us: f64,
    p99_us: f64,
}

/// The whole gate report, serialized to `results/BENCH_obs.json`. CI greps
/// it for `"bit_identical": true` and `"overhead_ok": true`.
#[derive(Debug, Clone, Serialize)]
struct ObsReport {
    bench: String,
    mode: String,
    n: usize,
    k: usize,
    chunk_size: usize,
    reps: usize,
    noop_secs: f64,
    instrumented_secs: f64,
    overhead_ratio: f64,
    overhead_ceiling: f64,
    overhead_ok: bool,
    bit_identical: bool,
    exporters_round_trip: bool,
    trace_valid: bool,
    trace_spans: usize,
    trace_worker_spans: usize,
    journal_events: ObsJournalEvents,
    journal_lines: usize,
    counters: ObsCounterSample,
    phases: Vec<ObsPhaseStat>,
}

/// The observability overhead gate (`--obs`): builds the same sample from
/// the same fault-injected chunked stream with a fully instrumented recorder
/// and with the detached no-op recorder, checks bit-identity, event
/// contents and exporter round-trips, measures the instrumentation overhead
/// with interleaved min-of-N reps, and writes `results/BENCH_obs.json`.
/// Exits non-zero on any violation.
fn run_obs_phase(data: &Dataset, k: usize, epsilon: f64, mode: &str) {
    let n = data.points.len();
    let pid = std::process::id();
    let spill = std::env::temp_dir().join(format!("vas-obs-gate-{pid}.chunks"));
    let ckpt = std::env::temp_dir().join(format!("vas-obs-gate-{pid}.ckpt"));
    spill_dataset(data, &spill, OBS_CHUNK).expect("spill obs dataset");

    // A fixed epsilon keeps the kernel install off the stream (no extra
    // stats scan), so every build consumes the source exactly once.
    let config = || {
        VasConfig::new(k)
            .with_strategy(InterchangeStrategy::ExpandShrinkLocality)
            .with_epsilon(epsilon)
            .with_locality_backend(LocalityBackend::HashGrid)
    };
    // The full instrumented stack: chunked reads -> deterministic transient
    // faults -> immediate retries, all reporting into the same recorder.
    let make_source = |recorder: &Recorder| {
        let reader = ChunkedReader::open(&spill)
            .expect("open obs spill")
            .with_recorder(recorder.clone());
        let faulty = FaultInjectorSource::new(reader, FaultPlan::transient(OBS_FAULT_SEED, 3, 1));
        RetryingSource::new(faulty, RetryPolicy::immediate(3)).with_recorder(recorder.clone())
    };
    let build = |recorder: &Recorder| -> Vec<Point> {
        let mut source = make_source(recorder);
        let mut sampler = VasSampler::new(config()).with_recorder(recorder.clone());
        sampler
            .build_from_source(&mut source)
            .expect("obs build")
            .points
    };

    // One fully instrumented bundle (counters + timers + tracer) shared by
    // the halted build, the resume and a full build, so the tracer carries
    // every event kind the gate requires and sees every causal tree.
    let bundle = ObsBundle::new();
    let registry = Arc::clone(&bundle.registry);
    let tracer = Arc::clone(&bundle.tracer);
    let recorder = bundle.recorder.clone();

    eprintln!("[fig10_inner_loop] obs phase: traced halt/resume build (chunk = {OBS_CHUNK})");
    let halted = {
        let mut source = make_source(&recorder);
        let mut sampler = VasSampler::new(config()).with_recorder(recorder.clone());
        sampler
            .build_from_source_checkpointed(
                &mut source,
                &CheckpointPolicy::every(&ckpt, 3).halting_after(7),
            )
            .expect("halted obs build")
    };
    assert!(
        matches!(halted, BuildOutcome::Halted { .. }),
        "the kill switch must halt the first obs build"
    );
    // Build-scoped counters reset when `finalize` ends a build; the halted
    // build has not finalized, so this snapshot sees them live.
    let halt_snap = registry.snapshot();
    let resumed = {
        let mut source = make_source(&recorder);
        let (_, outcome) = VasSampler::resume_build_from_source_recorded(
            config(),
            &mut source,
            &CheckpointPolicy::every(&ckpt, 3),
            recorder.clone(),
        )
        .expect("resume obs build");
        match outcome {
            BuildOutcome::Complete(sample) => sample.points,
            BuildOutcome::Halted { .. } => unreachable!("the resume policy has no kill switch"),
        }
    };
    eprintln!("[fig10_inner_loop] obs phase: instrumented vs no-op reference builds");
    let instrumented = build(&recorder);
    let noop = build(&Recorder::detached());

    // A dedicated traced build with the speculative pre-eval front on
    // (threads = 2) so the exported causal tree contains cross-thread
    // `worker_task` spans — the tracing acceptance shape CI validates.
    eprintln!("[fig10_inner_loop] obs phase: traced build (threads = 2) for the trace artifact");
    let trace_bundle = ObsBundle::new();
    let traced = {
        let mut source = make_source(&trace_bundle.recorder);
        let mut sampler =
            VasSampler::new(config().with_threads(2)).with_recorder(trace_bundle.recorder.clone());
        sampler
            .build_from_source(&mut source)
            .expect("traced obs build")
            .points
    };
    let trace_path = results_dir().join("trace_build.json");
    let trace_json = trace_bundle
        .write_trace(&trace_path)
        .expect("write build trace");
    let (trace_valid, trace_spans, trace_worker_spans) = match validate_build_trace(&trace_json) {
        Ok(check) => {
            eprintln!(
                "[fig10_inner_loop] obs phase: trace valid ({} spans, {} worker spans, \
                 {} threads) at {}",
                check.spans,
                check.worker_spans,
                check.threads,
                trace_path.display()
            );
            (true, check.spans, check.worker_spans)
        }
        Err(reason) => {
            eprintln!("[fig10_inner_loop] obs phase: trace INVALID: {reason}");
            (false, 0, 0)
        }
    };

    let bit_identical = bitwise_eq(&instrumented, &noop)
        && bitwise_eq(&instrumented, &resumed)
        && bitwise_eq(&instrumented, &traced);

    let events = tracer.events();
    let has = |kind: &str| events.iter().any(|e| e.name == kind);
    let journal_events = ObsJournalEvents {
        checkpoint_write: has("checkpoint_write"),
        checkpoint_resume: has("checkpoint_resume"),
        retry: has("retry"),
        phase_transition: has("phase_transition"),
    };
    let journal_lines = events.len();

    // Both exporters must round-trip the live registry snapshot.
    let snap = registry.snapshot();
    let parsed = export::snapshot_from_json(&export::snapshot_to_json(&snap));
    let prom = export::parse_prometheus(&export::snapshot_to_prometheus(&snap));
    let exporters_round_trip =
        parsed.as_ref() == Ok(&snap) && prom.map(|s| !s.is_empty()).unwrap_or(false);

    // The smoke build is ~tens of milliseconds, so single-run jitter can
    // dwarf the real instrumentation delta; min-of-N with the A/B order
    // alternating per rep keeps scheduler noise and drift out of both
    // minima.
    let reps = if mode == "smoke" { 15 } else { 5 };
    eprintln!(
        "[fig10_inner_loop] obs phase: timing {reps} interleaved reps (no-op vs instrumented)"
    );
    let mut noop_stats = TimingStats::new();
    let mut instr_stats = TimingStats::new();
    for rep in 0..reps {
        let time_noop = |stats: &mut TimingStats| {
            let detached = Recorder::detached();
            stats.time(|| std::hint::black_box(build(&detached)));
        };
        let time_instr = |stats: &mut TimingStats| {
            // The maximal configuration: counters + timers AND span and
            // event recording, so the ceiling covers the whole
            // causal layer too.
            let timed = ObsBundle::new().recorder;
            stats.time(|| std::hint::black_box(build(&timed)));
        };
        if rep % 2 == 0 {
            time_noop(&mut noop_stats);
            time_instr(&mut instr_stats);
        } else {
            time_instr(&mut instr_stats);
            time_noop(&mut noop_stats);
        }
    }
    let noop_secs = noop_stats.min_secs();
    let instrumented_secs = instr_stats.min_secs();
    let overhead_ratio = (instrumented_secs / noop_secs.max(1e-12) - 1.0).max(0.0);
    let overhead_ok = overhead_ratio <= OBS_OVERHEAD_CEILING;

    std::fs::remove_file(&spill).ok();
    std::fs::remove_file(&ckpt).ok();

    let counters = ObsCounterSample {
        core_accepts_at_halt: halt_snap.counter(Counter::CoreAccepts),
        core_rejects_at_halt: halt_snap.counter(Counter::CoreRejects),
        core_kernel_lanes_at_halt: halt_snap.counter(Counter::CoreKernelLanes),
        core_checkpoint_writes: registry.get(Counter::CoreCheckpointWrites),
        core_checkpoint_resumes: registry.get(Counter::CoreCheckpointResumes),
        stream_chunks_decoded: registry.get(Counter::StreamChunksDecoded),
        stream_retries_absorbed: registry.get(Counter::StreamRetriesAbsorbed),
    };
    let phases: Vec<ObsPhaseStat> = Phase::ALL
        .iter()
        .filter(|p| snap.phase_calls(**p) > 0)
        .map(|&p| ObsPhaseStat {
            phase: p.name().to_string(),
            calls: snap.phase_calls(p),
            total_ms: snap.phase_total_ns(p) as f64 / 1e6,
            p50_us: snap.phase_percentile(p, 0.50) as f64 / 1e3,
            p99_us: snap.phase_percentile(p, 0.99) as f64 / 1e3,
        })
        .collect();

    let mut table = ReportTable::new(
        format!("Observability overhead gate ({mode}: n = {n}, K = {k})"),
        &["build", "min secs", "overhead", "bit-identical"],
    );
    table.push_row(vec![
        "no-op (detached)".to_string(),
        fmt3(noop_secs),
        "-".to_string(),
        "-".to_string(),
    ]);
    table.push_row(vec![
        "instrumented".to_string(),
        fmt3(instrumented_secs),
        format!("{:.2}%", overhead_ratio * 100.0),
        bit_identical.to_string(),
    ]);
    let mut phase_table = ReportTable::new(
        "Instrumented phases (traced builds)",
        &["phase", "calls", "total (ms)", "p50 (µs)", "p99 (µs)"],
    );
    for p in &phases {
        phase_table.push_row(vec![
            p.phase.clone(),
            p.calls.to_string(),
            fmt3(p.total_ms),
            fmt3(p.p50_us),
            fmt3(p.p99_us),
        ]);
    }
    emit("fig10_obs_gate", &[table, phase_table]);

    let report = ObsReport {
        bench: "fig10_obs_gate".to_string(),
        mode: mode.to_string(),
        n,
        k,
        chunk_size: OBS_CHUNK,
        reps,
        noop_secs,
        instrumented_secs,
        overhead_ratio,
        overhead_ceiling: OBS_OVERHEAD_CEILING,
        overhead_ok,
        bit_identical,
        exporters_round_trip,
        trace_valid,
        trace_spans,
        trace_worker_spans,
        journal_events: journal_events.clone(),
        journal_lines,
        counters,
        phases,
    };
    let path = results_dir().join("BENCH_obs.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize obs report");
    std::fs::write(&path, json).expect("write BENCH_obs.json");
    eprintln!("[obs-gate report written to {}]", path.display());

    let mut failed = false;
    if !bit_identical {
        eprintln!("[fig10_inner_loop] FAIL: instrumentation changed the converged sample");
        failed = true;
    }
    if !journal_events.all_present() {
        eprintln!(
            "[fig10_inner_loop] FAIL: the tracer is missing required events \
             (checkpoint_write = {}, checkpoint_resume = {}, retry = {}, phase_transition = {})",
            journal_events.checkpoint_write,
            journal_events.checkpoint_resume,
            journal_events.retry,
            journal_events.phase_transition,
        );
        failed = true;
    }
    if !exporters_round_trip {
        eprintln!("[fig10_inner_loop] FAIL: an exporter did not round-trip the snapshot");
        failed = true;
    }
    if !trace_valid {
        eprintln!(
            "[fig10_inner_loop] FAIL: the traced build did not produce a valid causal tree \
             (see the trace INVALID line above)"
        );
        failed = true;
    }
    if !overhead_ok {
        eprintln!(
            "[fig10_inner_loop] FAIL: instrumentation overhead {:.2}% exceeds the {:.0}% ceiling",
            overhead_ratio * 100.0,
            OBS_OVERHEAD_CEILING * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "[fig10_inner_loop] obs gate passed: overhead {:.2}% <= {:.0}%, bit-identical, \
         {journal_lines} events",
        overhead_ratio * 100.0,
        OBS_OVERHEAD_CEILING * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let obs_only = args.iter().any(|a| a == "--obs");
    let mut backends: Vec<LocalityBackend> = Vec::new();
    let mut required_hashgrid_ratio: Option<f64> = None;
    let mut threads_sweep: Vec<usize> = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" | "--obs" => {}
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
            "--backend" => {
                i += 1;
                let value = args.get(i).unwrap_or_else(|| {
                    eprintln!("--backend needs a value (rtree|hashgrid)");
                    std::process::exit(2);
                });
                match value.parse::<LocalityBackend>() {
                    Ok(b) => {
                        if !backends.contains(&b) {
                            backends.push(b);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            "--require-hashgrid-at-least" => {
                i += 1;
                let value = args.get(i).and_then(|v| v.parse::<f64>().ok());
                match value {
                    Some(r) if r.is_finite() && r > 0.0 => required_hashgrid_ratio = Some(r),
                    _ => {
                        eprintln!("--require-hashgrid-at-least needs a positive ratio");
                        std::process::exit(2);
                    }
                }
            }
            unknown => {
                eprintln!(
                    "unknown argument {unknown}; usage: fig10_inner_loop [--smoke] \
                     [--backend rtree|hashgrid] [--require-hashgrid-at-least <ratio>] \
                     [--threads t1,t2,...] [--obs]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if backends.is_empty() {
        backends = LocalityBackend::ALL.to_vec();
    }

    // The paper-scale configuration: 1M Gaussian points, K = 10K. The smoke
    // configuration keeps the same shape at a size CI can afford.
    let (n, k) = if smoke {
        (20_000, 500)
    } else {
        (1_000_000, 10_000)
    };
    let mode = if smoke { "smoke" } else { "full" };
    eprintln!("[fig10_inner_loop] generating Gaussian dataset: n = {n}, K = {k}");
    let data = GaussianMixtureGenerator::paper_clustering_dataset(3, n, 20_160_518).generate();
    let kernel = GaussianKernel::for_dataset(&data);
    let epsilon = kernel.bandwidth();
    let locality_threshold = VasConfig::new(k).locality_threshold;
    let cutoff = kernel.effective_radius(locality_threshold);

    // ---- Observability overhead gate (--obs runs only this phase). ----
    if obs_only {
        run_obs_phase(&data, k, epsilon, mode);
        return;
    }

    let mut variants = Vec::new();
    let mut accept_cost = Vec::new();
    let mut comparison_raw: Vec<(LocalityBackend, f64)> = Vec::new();

    // Plain ES ignores the locality index entirely, so it is measured once
    // (smoke only: the quadratic-ish full scan dominates the full-size run
    // without adding information at K = 10K).
    if smoke {
        let strategy = InterchangeStrategy::ExpandShrink;
        let (es, _) = measure(&data, k, strategy, LocalityBackend::default(), epsilon);
        eprintln!(
            "[fig10_inner_loop] ES: {:.0} rejected tuples/s",
            es.rejected_per_sec
        );
        variants.push(es);
    }

    // The headline sweep: ES+Loc per backend.
    for &backend in &backends {
        let strategy = InterchangeStrategy::ExpandShrinkLocality;
        let (variant, sample) = measure(&data, k, strategy, backend, epsilon);
        eprintln!(
            "[fig10_inner_loop] ES+Loc/{backend}: {:.0} rejected tuples/s",
            variant.rejected_per_sec
        );
        comparison_raw.push((backend, variant.rejected_per_sec));
        accept_cost.push(measure_accept_cost(backend, &sample, cutoff));
        variants.push(variant);
    }

    let rtree_rejected = comparison_raw
        .iter()
        .find(|(b, _)| *b == LocalityBackend::RTree)
        .map(|(_, r)| *r);
    let backend_comparison: Vec<BackendComparison> = comparison_raw
        .iter()
        .map(|(b, r)| BackendComparison {
            backend: b.label().to_string(),
            rejected_per_sec: *r,
            vs_rtree_rejected_ratio: rtree_rejected.map(|base| r / base).unwrap_or(0.0),
        })
        .collect();

    let mut table = ReportTable::new(
        format!("Interchange inner-loop throughput ({mode}: n = {n}, K = {k})"),
        &[
            "variant",
            "backend",
            "candidate tuples",
            "accepted",
            "rejected/s",
            "accepted/s",
            "tuples/s",
            "candidate time (s)",
        ],
    );
    for v in &variants {
        table.push_row(vec![
            v.strategy.clone(),
            v.backend.clone(),
            v.candidate_tuples.to_string(),
            v.accepted.to_string(),
            fmt3(v.rejected_per_sec),
            fmt3(v.accepted_per_sec),
            fmt3(v.tuples_per_sec),
            fmt3(v.candidate_secs),
        ]);
    }
    let mut backend_table = ReportTable::new(
        "Locality backends (ES+Loc)",
        &[
            "backend",
            "rejected/s",
            "vs rtree",
            "accept query pair (µs)",
            "accept churn (µs)",
        ],
    );
    for c in &backend_comparison {
        let cost = accept_cost.iter().find(|a| a.backend == c.backend);
        backend_table.push_row(vec![
            c.backend.clone(),
            fmt3(c.rejected_per_sec),
            if c.vs_rtree_rejected_ratio > 0.0 {
                format!("{:.2}x", c.vs_rtree_rejected_ratio)
            } else {
                "-".to_string()
            },
            cost.map(|a| fmt3(a.query_pair_ns / 1_000.0))
                .unwrap_or_else(|| "-".to_string()),
            cost.map(|a| fmt3(a.churn_ns / 1_000.0))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    emit("fig10_inner_loop", &[table, backend_table]);

    let report = BenchReport {
        bench: "fig10_inner_loop".to_string(),
        mode: mode.to_string(),
        dataset: DatasetInfo {
            kind: "gaussian-mixture".to_string(),
            n,
            k,
            epsilon,
            locality_threshold,
        },
        variants,
        accept_cost,
        backend_comparison: backend_comparison.clone(),
    };
    let path = results_dir().join("BENCH_interchange.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    std::fs::write(&path, json).expect("write BENCH_interchange.json");
    eprintln!("[machine-readable report written to {}]", path.display());

    // ---- Speculative pre-evaluation sweep (--threads). ----
    if !threads_sweep.is_empty() {
        let mut entries: Vec<PreEvalSweepEntry> = Vec::new();
        let mut reference: Option<Vec<Point>> = None;
        let mut bit_identical = true;
        for &t in &threads_sweep {
            eprintln!("[fig10_inner_loop] pre-eval sweep: threads = {t}");
            let (entry, sample) = measure_pre_eval(&data, k, epsilon, t);
            match &reference {
                None => reference = Some(sample),
                Some(r) => {
                    if !bitwise_eq(r, &sample) {
                        eprintln!(
                            "[fig10_inner_loop] FAIL: sample at {t} threads diverged from the \
                             first sweep run"
                        );
                        bit_identical = false;
                    }
                }
            }
            eprintln!(
                "[fig10_inner_loop] pre-eval x{t}: {:.0} candidate tuples/s",
                entry.tuples_per_sec
            );
            entries.push(entry);
        }
        // Speedups are relative to the threads = 1 entry (or the first run
        // when 1 was not part of the sweep).
        let baseline = entries
            .iter()
            .find(|e| e.threads == 1)
            .unwrap_or(&entries[0])
            .tuples_per_sec;
        for e in &mut entries {
            e.speedup_vs_1 = e.tuples_per_sec / baseline;
        }
        let mut sweep_table = ReportTable::new(
            format!("Speculative pre-evaluation sweep (hashgrid, n = {n}, K = {k})"),
            &["threads", "candidate time (s)", "tuples/s", "speedup vs 1"],
        );
        for e in &entries {
            sweep_table.push_row(vec![
                e.threads.to_string(),
                fmt3(e.candidate_secs),
                fmt3(e.tuples_per_sec),
                format!("{:.2}x", e.speedup_vs_1),
            ]);
        }
        emit("fig10_pre_eval_sweep", &[sweep_table]);
        let section = PreEvalSection {
            n,
            k,
            backend: LocalityBackend::HashGrid.label().to_string(),
            chunk_size: SWEEP_CHUNK,
            pre_eval: entries,
            bit_identical,
        };
        let path = merge_parallel_section("fig10_inner_loop", section.to_value());
        eprintln!("[pre-eval sweep merged into {}]", path.display());
        if !bit_identical {
            eprintln!(
                "[fig10_inner_loop] FAIL: the speculative pre-evaluation front changed the sample"
            );
            std::process::exit(1);
        }
        eprintln!("[fig10_inner_loop] pre-eval sweep: all thread counts agree bit-for-bit");
    }

    if let Some(required) = required_hashgrid_ratio {
        let ratio = backend_comparison
            .iter()
            .find(|c| c.backend == LocalityBackend::HashGrid.label())
            .map(|c| c.vs_rtree_rejected_ratio)
            .filter(|r| *r > 0.0);
        match ratio {
            Some(r) if r >= required => {
                eprintln!("[fig10_inner_loop] hashgrid/rtree rejected-throughput {r:.2}x >= required {required:.2}x");
            }
            Some(r) => {
                eprintln!("[fig10_inner_loop] FAIL: hashgrid/rtree rejected-throughput {r:.2}x < required {required:.2}x");
                std::process::exit(1);
            }
            None => {
                eprintln!(
                    "[fig10_inner_loop] FAIL: --require-hashgrid-at-least needs both the \
                     hashgrid and rtree backends in the sweep"
                );
                std::process::exit(1);
            }
        }
    }
}
