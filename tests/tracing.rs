//! Acceptance tests for the causal span layer: one traced sharded
//! streaming build must export a Chrome-trace JSON document whose span tree
//! is complete — every shard worker's `worker_task` span, every decode on
//! the calling thread and every event reaches the build's root through its
//! parent chain — plus the tracer's post-mortem dump on the fatal paths,
//! and the one-probe contract: every timed phase call opens exactly one
//! span of the phase's name.

use std::collections::HashMap;
use std::sync::Arc;
use vas::obs::export;
use vas::prelude::*;
use vas::storage::save_catalog_recorded;

/// A recorder with timing on and a fresh tracer, plus its registry.
fn traced_recorder() -> (Recorder, Arc<MetricsRegistry>, Arc<Tracer>) {
    let registry = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::new());
    let recorder = Recorder::new(Arc::clone(&registry))
        .with_timing(true)
        .with_tracer(Arc::clone(&tracer));
    (recorder, registry, tracer)
}

/// The one-probe contract: for every phase, the histogram's call count
/// equals the number of spans named after the phase.
fn assert_one_span_per_phase_call(spans: &[SpanRecord], registry: &MetricsRegistry, what: &str) {
    let snap = registry.snapshot();
    for phase in Phase::ALL {
        let named = spans.iter().filter(|s| s.name == phase.name()).count() as u64;
        assert_eq!(
            snap.phase_calls(phase),
            named,
            "{what}: {} histogram calls vs spans",
            phase.name()
        );
    }
}

/// Runs `build` over a traced reader of a spilled `n`-point Geolife stream,
/// with the same traced recorder handed to `build`, and returns the spans
/// of the *exported* trace (so the Chrome-trace encoder and parser are part
/// of the contract), the events, and the registry the run timed into.
fn traced_build(
    n: usize,
    tag: &str,
    build: impl FnOnce(&mut ChunkedReader, Recorder),
) -> (Vec<SpanRecord>, Vec<EventRecord>, Arc<MetricsRegistry>) {
    let data = GeolifeGenerator::with_size(n, 31).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-tracing-accept-{}-{n}-{tag}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 512).unwrap();
    let (recorder, registry, tracer) = traced_recorder();
    let mut reader = ChunkedReader::open(&path)
        .unwrap()
        .with_recorder(recorder.clone());
    build(&mut reader, recorder);
    std::fs::remove_file(&path).ok();
    let spans = parse_chrome_trace(&tracer.to_chrome_trace()).expect("exported trace parses");
    (spans, tracer.events(), registry)
}

/// Walks `span`'s parent chain to its root (bounded, in case of corruption).
fn root_of<'a>(
    span: &'a SpanRecord,
    by_id: &'a HashMap<u64, &'a SpanRecord>,
) -> Option<&'a SpanRecord> {
    let mut cur = span;
    for _ in 0..64 {
        match cur.parent {
            None => return Some(cur),
            Some(p) => cur = by_id.get(&p)?,
        }
    }
    None
}

#[test]
fn traced_build_produces_a_complete_causal_tree() {
    // A streaming sharded build: the calling thread decodes and routes
    // chunks while two shard workers, started by the fan-out core, run
    // their Interchange climbs; the bounds scan (no ε given) runs as one
    // more stripe of the core, on the calling thread.
    let (spans, events, registry) = traced_build(40_000, "sharded", |reader, recorder| {
        ShardedSampler::new(VasConfig::new(150), 2)
            .with_recorder(recorder)
            .build_sharded_from_source(reader)
            .unwrap();
    });
    assert!(!spans.is_empty(), "the traced build recorded no spans");
    assert_one_span_per_phase_call(&spans, &registry, "streaming sharded build, S = 2");
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();

    // Exactly one root, and it is the build.
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(
        roots.len(),
        1,
        "expected one root span, got {:?}",
        roots.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    let root = roots[0];
    assert_eq!(root.name, "build_sharded_from_source");

    // Every span, on whichever thread it ran, parents (transitively) under
    // that root, and so does every event: the explicit context the fan-out
    // core hands each worker is the cross-thread propagation contract.
    for s in &spans {
        let top = root_of(s, &by_id).expect("parent chain resolves");
        assert_eq!(top.id, root.id, "span {} ({}) is orphaned", s.id, s.name);
    }
    for e in &events {
        let parent = e.parent.and_then(|p| by_id.get(&p));
        let top = parent.and_then(|p| root_of(p, &by_id));
        assert_eq!(
            top.map(|t| t.id),
            Some(root.id),
            "event {} is orphaned",
            e.name
        );
    }
    let workers: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "worker_task").collect();
    assert_eq!(workers.len(), 3, "two shard workers and the bounds scan");
    assert_eq!(
        workers.iter().filter(|w| w.thread != root.thread).count(),
        2,
        "each shard worker runs on a thread other than the caller's"
    );
    assert_eq!(events.iter().filter(|e| e.name == "shard_built").count(), 2);

    // Phase sites of the loop, the decode and the merge are present.
    for name in [
        "chunk_decode",
        "fill",
        "candidate_eval",
        "shard_fill",
        "shard_merge",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "expected at least one {name:?} span"
        );
    }
}

#[test]
fn sequential_traced_build_has_no_foreign_roots() {
    // An unsharded build runs on the calling thread: one build root, no
    // worker spans, no orphans.
    let (spans, _, registry) = traced_build(6_000, "sequential", |reader, recorder| {
        VasSampler::new(VasConfig::new(200))
            .with_recorder(recorder)
            .build_from_source(reader)
            .unwrap();
    });
    assert_one_span_per_phase_call(&spans, &registry, "streaming build");
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].name, "build_from_source");
    for s in &spans {
        let root = root_of(s, &by_id).expect("parent chain resolves");
        assert_eq!(
            root.id, roots[0].id,
            "span {} ({}) is orphaned",
            s.id, s.name
        );
        assert_eq!(s.thread, roots[0].thread, "span {} left the thread", s.name);
    }
    assert!(spans.iter().all(|s| s.name != "worker_task"));
}

#[test]
fn sharded_and_persist_builds_open_one_span_per_phase_call() {
    let data = GeolifeGenerator::with_size(6_000, 41).generate();
    let config = VasConfig::new(120);

    // In-memory sharded build: shard workers fan out through vas-par.
    let (recorder, registry, tracer) = traced_recorder();
    ShardedSampler::new(config.clone(), 2)
        .with_recorder(recorder)
        .build_sharded(&data)
        .unwrap();
    let spans = tracer.spans();
    assert_eq!(spans.iter().filter(|s| s.name == "shard_fill").count(), 2);
    assert_one_span_per_phase_call(&spans, &registry, "sharded build, S = 2");

    // Streaming sharded build: shard workers consume scatter queues.
    let (recorder, registry, tracer) = traced_recorder();
    let mut source = DatasetSource::with_chunk_size(&data, 1_000);
    ShardedSampler::new(config, 2)
        .with_recorder(recorder)
        .build_sharded_from_source(&mut source)
        .unwrap();
    assert_one_span_per_phase_call(&tracer.spans(), &registry, "streaming sharded build, S = 2");

    // A catalog built and persisted through one recorder.
    let (recorder, registry, tracer) = traced_recorder();
    let catalog = SampleCatalog::build_recorded(
        &data,
        &[50, 100],
        |k| VasSampler::new(VasConfig::new(k)),
        &recorder,
    );
    let dir = std::env::temp_dir().join(format!("vas-tracing-persist-{}", std::process::id()));
    save_catalog_recorded(&catalog, &dir, &recorder).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let spans = tracer.spans();
    assert_eq!(spans.iter().filter(|s| s.name == "persist_save").count(), 1);
    assert_one_span_per_phase_call(&spans, &registry, "catalog build + persist");
}

#[test]
fn fatal_build_error_dumps_the_flight_recorder() {
    // The post-mortem dump: a typed fatal error inside `build_from_source`
    // must dump the tracer's newest spans/events to the configured path.
    let data = GeolifeGenerator::with_size(4_000, 37).generate();
    let spill =
        std::env::temp_dir().join(format!("vas-tracing-fatal-{}.vaschunk", std::process::id()));
    spill_dataset(&data, &spill, 256).unwrap();
    let dump = std::env::temp_dir().join(format!(
        "vas-tracing-fatal-{}.flight.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&dump).ok();

    let (recorder, _, tracer) = traced_recorder();
    tracer.set_dump_path(&dump);

    let reader = ChunkedReader::open(&spill)
        .unwrap()
        .with_recorder(recorder.clone());
    let injector = FaultInjectorSource::new(reader, FaultPlan::fatal_after(2));
    let mut source = RetryingSource::new(injector, RetryPolicy::immediate(3));
    let result = VasSampler::new(VasConfig::new(100))
        .with_recorder(recorder.clone())
        .build_from_source(&mut source);

    // A fatal fault is not retried: it fails the build at once, typed as
    // not worth a retry.
    let err = result.expect_err("the fatal fault must fail the build");
    assert!(!err.is_transient(), "{err}");
    assert_eq!(source.retries(), 0, "a fatal fault consumed a retry");
    assert!(tracer.dumps() > 0, "the fatal path never dumped the ring");
    let text = std::fs::read_to_string(&dump).expect("post-mortem dump exists");
    let mut lines = text.lines();
    let header = lines.next().expect("dump has a header line");
    assert!(
        header.contains("\"kind\":\"flight_dump\""),
        "header: {header}"
    );
    assert!(
        lines.clone().count() > 0,
        "the dump carries no ring entries"
    );
    // Ring entries are one JSON object per line, spans and events mixed;
    // the last one is the fatal event itself.
    assert!(
        lines.clone().any(|l| l.contains("\"kind\":\"span\"")),
        "no span entries in the dump"
    );
    let last = lines.last().unwrap();
    assert!(
        last.contains("\"kind\":\"event\"") && last.contains("\"event\":\"fatal\""),
        "last: {last}"
    );

    std::fs::remove_file(&spill).ok();
    std::fs::remove_file(&dump).ok();
}

#[test]
fn checkpointed_retried_build_records_every_event_kind_and_exports_its_snapshot() {
    // The whole instrumented stack reports into one traced recorder: chunked
    // reads through seeded transient faults and retries, a checkpointed
    // build halted after 7 chunks, and its resume. The resumed sample must
    // equal the detached, uninterrupted build; the tracer must carry every
    // event kind of that path; and both exporters must round-trip the live
    // registry's snapshot.
    let data = GeolifeGenerator::with_size(8_000, 47).generate();
    let tmp = |ext: &str| {
        std::env::temp_dir().join(format!("vas-tracing-resume-{}.{ext}", std::process::id()))
    };
    let (spill, ckpt) = (tmp("vaschunk"), tmp("vascheckpt"));
    spill_dataset(&data, &spill, 512).unwrap();
    let config = VasConfig::new(150);
    let detached = VasSampler::new(config.clone())
        .build_from_source(&mut ChunkedReader::open(&spill).unwrap())
        .unwrap();

    let (recorder, registry, tracer) = traced_recorder();
    let source = || {
        let reader = ChunkedReader::open(&spill)
            .unwrap()
            .with_recorder(recorder.clone());
        let faulty = FaultInjectorSource::new(reader, FaultPlan::transient(20_160_519, 3, 1));
        RetryingSource::new(faulty, RetryPolicy::immediate(3)).with_recorder(recorder.clone())
    };
    let halted = VasSampler::new(config.clone())
        .with_recorder(recorder.clone())
        .build_from_source_checkpointed(
            &mut source(),
            &CheckpointPolicy::every(&ckpt, 3).halting_after(7),
        )
        .unwrap();
    assert!(halted.is_halted(), "the kill switch did not fire");
    let (_, outcome) = VasSampler::resume_build_from_source(
        config,
        &mut source(),
        &CheckpointPolicy::every(&ckpt, 3),
        recorder.clone(),
    )
    .unwrap();
    std::fs::remove_file(&spill).ok();
    std::fs::remove_file(&ckpt).ok();
    let resumed = outcome.into_sample().expect("the resumed build completes");
    let bits = |s: &Sample| -> Vec<[u64; 3]> {
        s.points
            .iter()
            .map(|p| [p.x.to_bits(), p.y.to_bits(), p.value.to_bits()])
            .collect()
    };
    assert_eq!(bits(&resumed), bits(&detached), "resumed vs detached build");

    let events = tracer.events();
    for kind in [
        "checkpoint_write",
        "checkpoint_resume",
        "retry",
        "phase_transition",
    ] {
        assert!(
            events.iter().any(|e| e.name == kind),
            "no {kind:?} event recorded"
        );
    }

    let snap = registry.snapshot();
    assert!(snap.counter(Counter::StreamRetriesAbsorbed) > 0);
    assert_eq!(snap.counter(Counter::CoreCheckpointResumes), 1);
    assert_eq!(
        export::snapshot_from_json(&export::snapshot_to_json(&snap)),
        Ok(snap.clone())
    );
    let prom = export::parse_prometheus(&export::snapshot_to_prometheus(&snap))
        .expect("the Prometheus export parses");
    for counter in Counter::ALL {
        let name = format!("vas_{}_total", counter.name());
        let sample = prom.iter().find(|s| s.name == name);
        assert_eq!(
            sample.map(|s| s.value),
            Some(snap.counter(counter) as f64),
            "{name}"
        );
    }
}

/// A source that panics on its `panic_at`-th chunk: a decoder bug.
struct PanickingSource<'a> {
    inner: DatasetSource<'a>,
    chunks: usize,
    panic_at: usize,
}

impl PointSource for PanickingSource<'_> {
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

#[test]
fn sharded_build_panic_is_a_typed_error_with_a_flight_dump() {
    // A panic inside the sharded fan-out, here in the source the calling
    // thread drains while two shard workers consume, must not unwind out of
    // the build: every worker is joined, the flight recorder dumps, and the
    // build returns a typed, non-transient `VasError`.
    let data = GeolifeGenerator::with_size(6_000, 43).generate();
    let dump = std::env::temp_dir().join(format!(
        "vas-tracing-shard-panic-{}.flight.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&dump).ok();
    let (recorder, registry, tracer) = traced_recorder();
    tracer.set_dump_path(&dump);

    // A fixed ε skips the bounds scan, so every chunk is read inside the
    // fan-out; the fourth one panics after three reached the shards.
    let mut source = PanickingSource {
        inner: DatasetSource::with_chunk_size(&data, 1_000),
        chunks: 0,
        panic_at: 4,
    };
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = ShardedSampler::new(VasConfig::new(120).with_epsilon(0.01), 2)
        .with_recorder(recorder)
        .build_sharded_from_source(&mut source);
    std::panic::set_hook(prev);

    let err = result.expect_err("the panic must fail the build");
    assert!(
        matches!(
            err,
            VasError::WorkerPanic {
                panicked_workers: 1,
                ..
            }
        ),
        "{err}"
    );
    assert!(!err.is_transient(), "a panic is not worth a retry");
    assert_eq!(registry.get(Counter::ParContainedPanics), 1);
    // Both shard workers drained what they were fed and finished.
    let spans = tracer.spans();
    assert_eq!(spans.iter().filter(|s| s.name == "worker_task").count(), 2);
    assert_eq!(
        tracer
            .events()
            .iter()
            .filter(|e| e.name == "shard_built")
            .count(),
        2
    );

    assert!(tracer.dumps() > 0, "the panic never dumped the ring");
    let text = std::fs::read_to_string(&dump).expect("post-mortem dump exists");
    let last = text.lines().last().unwrap();
    assert!(
        last.contains("\"event\":\"fatal\"") && last.contains("worker(s) panicked"),
        "last: {last}"
    );
    std::fs::remove_file(&dump).ok();
}

#[test]
fn sharded_bounds_scan_panic_is_a_typed_error_with_a_flight_dump() {
    // Without a fixed ε the sharded build first scans the source for its
    // bounds; a source that panics there (on its first chunk) must end the
    // build like one that panics while feeding the shards.
    let data = GeolifeGenerator::with_size(6_000, 43).generate();
    let dump = std::env::temp_dir().join(format!(
        "vas-tracing-scan-panic-{}.flight.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&dump).ok();
    let (recorder, registry, tracer) = traced_recorder();
    tracer.set_dump_path(&dump);
    let mut source = PanickingSource {
        inner: DatasetSource::with_chunk_size(&data, 1_000),
        chunks: 0,
        panic_at: 1,
    };
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = ShardedSampler::new(VasConfig::new(120), 2)
        .with_recorder(recorder)
        .build_sharded_from_source(&mut source);
    std::panic::set_hook(prev);

    let err = result.expect_err("the panic must fail the build");
    match &err {
        VasError::WorkerPanic {
            context,
            panicked_workers: 1,
        } => assert_eq!(context, "sharded bounds scan"),
        other => panic!("{other}"),
    }
    assert!(!err.is_transient(), "a panic is not worth a retry");
    assert_eq!(registry.get(Counter::ParContainedPanics), 1);
    // No shard worker was started.
    assert!(tracer.events().iter().all(|e| e.name != "shard_built"));

    assert!(tracer.dumps() > 0, "the panic never dumped the ring");
    let text = std::fs::read_to_string(&dump).expect("post-mortem dump exists");
    let last = text.lines().last().unwrap();
    assert!(
        last.contains("\"event\":\"fatal\"") && last.contains("sharded bounds scan"),
        "last: {last}"
    );
    std::fs::remove_file(&dump).ok();
}
