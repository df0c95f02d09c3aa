//! Acceptance tests for the causal span layer: one traced
//! `build_from_source` must export a Chrome-trace JSON document whose span
//! tree is complete — every vas-par / pre-evaluation `worker_task` span
//! reaches the consuming build's root through its parent chain, and the
//! read-ahead thread's decode spans parent under the same root — plus the
//! tracer's post-mortem dump on the fatal path, and the one-probe contract:
//! every timed phase call opens exactly one span of the phase's name.

use std::collections::HashMap;
use std::sync::Arc;
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

/// Builds a fully traced sampler run over a spilled chunked stream with the
/// speculative pre-evaluation front (threads = 2) and read-ahead prefetch,
/// returning the recorded spans and the registry the run timed into.
fn traced_build(n: usize, k: usize, threads: usize) -> (Vec<SpanRecord>, Arc<MetricsRegistry>) {
    let data = GeolifeGenerator::with_size(n, 31).generate();
    let path = std::env::temp_dir().join(format!(
        "vas-tracing-accept-{}-{n}-{threads}.vaschunk",
        std::process::id()
    ));
    spill_dataset(&data, &path, 512).unwrap();
    let (recorder, registry, tracer) = traced_recorder();
    {
        let reader = ChunkedReader::open(&path)
            .unwrap()
            .with_recorder(recorder.clone());
        let mut source = PrefetchSource::new(reader).with_recorder(recorder.clone());
        VasSampler::new(VasConfig::new(k).with_threads(threads))
            .with_recorder(recorder.clone())
            .build_from_source(&mut source)
            .unwrap();
    }
    std::fs::remove_file(&path).ok();
    // The acceptance shape is asserted on the *exported* trace, so the
    // Chrome-trace encoder and parser are part of the contract.
    let spans = parse_chrome_trace(&tracer.to_chrome_trace()).expect("exported trace parses");
    (spans, registry)
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
    // Big enough n/k that the accept rate cools past the speculation gate
    // (accept spacing >= the minimum pre-eval batch), so the parallel front
    // actually fans out worker stripes.
    let (spans, registry) = traced_build(40_000, 150, 2);
    assert!(!spans.is_empty(), "the traced build recorded no spans");
    assert_one_span_per_phase_call(&spans, &registry, "streaming build, 2 threads");
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();

    // Exactly one root, and it is the consuming build.
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(
        roots.len(),
        1,
        "expected one root span, got {:?}",
        roots.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    assert_eq!(roots[0].name, "build_from_source");

    // Every worker span parents (transitively) under that root — the
    // speculative pre-eval front runs on spawned scope threads, so this is
    // the cross-thread propagation contract.
    let workers: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "worker_task").collect();
    assert!(!workers.is_empty(), "no worker_task spans were recorded");
    for w in &workers {
        assert!(w.parent.is_some(), "worker span {} has no parent", w.id);
        let root = root_of(w, &by_id).expect("worker parent chain resolves");
        assert_eq!(
            root.id, roots[0].id,
            "worker span {} roots under {:?}, not the build",
            w.id, root.name
        );
    }
    assert!(
        workers.iter().any(|w| w.thread != roots[0].thread),
        "no worker span ran on a thread other than the consumer's"
    );

    // The read-ahead producer decodes chunks on its own pre-existing thread;
    // its chunk_decode spans must still parent under the build root (via the
    // tracer's ambient root context).
    let decodes: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "chunk_decode").collect();
    assert!(!decodes.is_empty(), "no chunk_decode spans were recorded");
    for d in &decodes {
        let root = root_of(d, &by_id).expect("decode parent chain resolves");
        assert_eq!(root.id, roots[0].id, "decode span {} is orphaned", d.id);
    }
    assert!(
        decodes.iter().all(|d| d.thread != roots[0].thread),
        "prefetch decodes should run on the read-ahead thread"
    );

    // Phase sites inside the loop are present as spans.
    for name in ["fill", "candidate_eval", "prefetch_wait"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "expected at least one {name:?} span"
        );
    }
}

#[test]
fn sequential_traced_build_has_no_foreign_roots() {
    // With threads = 1 there is no speculation; the tree still has a single
    // build root and no orphans.
    let (spans, registry) = traced_build(6_000, 200, 1);
    assert_one_span_per_phase_call(&spans, &registry, "streaming build, 1 thread");
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
    }
}

#[test]
fn sharded_and_persist_builds_open_one_span_per_phase_call() {
    let data = GeolifeGenerator::with_size(6_000, 41).generate();
    let config = VasConfig::new(120).with_threads(2);

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

    assert!(result.is_err(), "the fatal fault must fail the build");
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
