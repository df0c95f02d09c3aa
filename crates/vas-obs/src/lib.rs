//! # vas-obs
//!
//! The unified observability layer of the VAS reproduction: one
//! [`MetricsRegistry`] of typed monotonic counters, phase-scoped wall-clock
//! timers feeding fixed-bucket latency [`Histogram`]s (p50/p95/p99), and two
//! exporters over a [`MetricsSnapshot`] — structured JSON
//! ([`export::snapshot_to_json`]) and Prometheus text exposition
//! ([`export::snapshot_to_prometheus`]). Beside the flat metrics sits the
//! causal layer, one [`Tracer`]: hierarchical spans and instant events in a
//! bounded ring, exported as Chrome-trace/Perfetto JSON and dumped to a
//! post-mortem file when a fatal path fires.
//!
//! Every layer of the stack records through a cheap, cloneable [`Recorder`]
//! handle, and times through one probe, [`Recorder::phase`]: its guard opens
//! the span named after the [`Phase`] and feeds that phase's histogram from
//! the same two clock reads. The layers: `vas-core`'s Interchange loop
//! (fill vs candidate-eval phases, accepts/rejects/kernel lanes, checkpoint
//! write/resume events, shard fill and merge), `vas-stream` (chunk decode
//! latency, retries absorbed, CRC failures, corruption skips), `vas-par`
//! (worker busy time, contained panics) and `vas-storage` (per-K catalog
//! build times, persist commit events).
//!
//! ## The off-the-data-path determinism rule
//!
//! The workspace's load-bearing contract is **bit-identical determinism**
//! (`tests/determinism.rs` pins every backend and entry point to the same
//! sample, bit for bit). Instrumentation must therefore never sit *on* the
//! data path:
//!
//! * **No measured value may influence sampled state.** Counters, timers,
//!   spans and events are write-only from the algorithm's point of view —
//!   nothing in `vas-core` ever branches on a metric. The instrumented and
//!   traced builds are pinned bit-identical to the uninstrumented build by
//!   `tests/determinism.rs`.
//! * **Disabled means no-op.** Every component records through a
//!   [`Recorder`]; the default [`Recorder::detached`] handle has timing off
//!   and no tracer, so the hot path performs *zero* `Instant::now` calls
//!   and no I/O. Counter increments remain (they back the long-standing
//!   public getters such as `VasSampler::kernel_lanes()`) but are relaxed
//!   atomic adds batched at chunk granularity.
//! * **Overhead is measured, not assumed.** The `obs_overhead` phase of the
//!   `fig10_inner_loop` harness times a fully instrumented build (tracer +
//!   timing) against the detached build and enforces a ≤3% throughput
//!   ceiling plus a `bit_identical` flag in `results/BENCH_obs.json`,
//!   non-zero exit on violation.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use vas_obs::{export, Counter, MetricsRegistry, Phase, Recorder, Tracer};
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let tracer = Arc::new(Tracer::new());
//! let rec = Recorder::new(Arc::clone(&registry))
//!     .with_tracer(Arc::clone(&tracer))
//!     .with_timing(true);
//!
//! // Count, time (one span + one histogram sample), record an event.
//! rec.inc(Counter::StreamChunksDecoded, 1);
//! {
//!     let _guard = rec.phase(Phase::ChunkDecode);
//!     // ... decode a chunk ...
//! }
//! rec.event("checkpoint_write", &[("pass", 0u64.into()), ("chunks", 8u64.into())]);
//!
//! // Snapshot and export.
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter(Counter::StreamChunksDecoded), 1);
//! assert_eq!(snap.phase_calls(Phase::ChunkDecode), 1);
//! let json = export::snapshot_to_json(&snap);
//! let prom = export::snapshot_to_prometheus(&snap);
//! assert!(json.contains("stream_chunks_decoded"));
//! assert!(prom.contains("vas_stream_chunks_decoded_total 1"));
//! assert_eq!(tracer.spans()[0].name, "chunk_decode");
//! assert_eq!(tracer.events()[0].name, "checkpoint_write");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod histogram;
pub mod recorder;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use recorder::{PhaseGuard, Recorder};
pub use registry::{Counter, MetricsRegistry, Phase, ValueSeries};
pub use snapshot::MetricsSnapshot;
pub use trace::{
    parse_chrome_trace, EventRecord, EventValue, SpanContext, SpanGuard, SpanRecord, Tracer,
};
