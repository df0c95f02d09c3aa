//! # vas-par
//!
//! The deterministic parallel execution substrate of the VAS reproduction.
//!
//! Every hot loop in this workspace lives under a hard contract pinned by
//! `tests/determinism.rs`: the same input stream must produce **bit-identical**
//! output, run to run, thread count to thread count. That rules out the usual
//! "throw rayon at it" approach twice over — the build environment cannot
//! vendor rayon, and work-stealing reductions fold results in a
//! scheduling-dependent order, which changes floating-point sums by an ulp and
//! the sampler's replacement decisions with them.
//!
//! Every parallel shape in this crate is a thin layer over one private
//! fan-out core, built directly on [`std::thread::scope`]. The core spawns
//! one scoped worker per stripe and runs the caller's share on the calling
//! thread (a one-stripe call spawns nothing). It opens each worker's
//! `worker_task` span under the caller's open span and catches every panic,
//! the caller's own share included. It joins every worker, then returns the
//! results in stripe order or a [`WorkerPanic`]: one panic policy, and the
//! caller decides what a panic means. The shapes are:
//!
//! * **Ordered maps** ([`exec`]) — input is split into *contiguous index
//!   ranges*, one worker per range, and results are concatenated (or folded)
//!   in **range order**. Whatever the OS scheduler does, the fan-in observes
//!   results in exactly the order a sequential loop would have produced
//!   them, so a deterministic per-item function yields a deterministic
//!   combined result at any thread count. [`par_map_ordered`] and
//!   [`par_chunk_fold_ordered`] re-raise a worker panic on the caller;
//!   [`try_par_map_vec_ordered`] returns it.
//! * **A free-running scatter pipeline** ([`scatter`]) — the calling thread
//!   produces, routing items to `S` consumer workers over bounded queues,
//!   with fan-in in consumer order. The sharded sampling path fans out one
//!   Interchange sampler per shard through it; because the stages are
//!   decoupled by the queues, shard workers evaluate batch `b` while the
//!   producer is already decoding and routing batch `b + 1`.
//!
//! Workers are **scoped**: they are joined before the call returns, so
//! closures may borrow from the caller's stack (the Interchange
//! pre-evaluation workers share the live spatial index by reference and
//! each own a slice of its output buffers). A persistent pool would require
//! either `'static` tasks or `unsafe` lifetime erasure; the workspace
//! forbids `unsafe`, and thread spawn cost (~10µs) is noise at the chunk
//! granularity (thousands of points) every caller fans out at. The root
//! `clippy.toml` rejects `std::thread::scope` everywhere but the core.
//!
//! One shape does not fan out: the double-buffered background stage
//! ([`pipeline`]) is one long-lived producer thread feeding a bounded
//! channel, with an epoch/rewind protocol so consumers can `reset`
//! mid-stream without tearing down the worker. `vas-stream`'s
//! `PrefetchSource` is this stage wrapped around a `PointSource`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
mod fanout;
pub mod pipeline;
pub mod scatter;

pub use exec::{
    effective_threads, par_chunk_fold_ordered, par_map_ordered, split_ranges,
    try_par_map_vec_ordered,
};
pub use fanout::WorkerPanic;
pub use pipeline::{ReadAhead, Stage, Step};
pub use scatter::scatter_ordered;
