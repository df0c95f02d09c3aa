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
//! * **An ordered map** ([`try_par_map_vec_ordered`]) — input is split into
//!   *contiguous index ranges* ([`split_ranges`]), one worker per range, and
//!   results are concatenated in **range order**. Whatever the OS scheduler
//!   does, the fan-in observes results in exactly the order a sequential
//!   loop would have produced them, so a deterministic per-item function
//!   yields a deterministic combined result at any thread count. The
//!   sharded build runs its bounds scan through it as one contained stripe.
//! * **A free-running scatter pipeline** ([`scatter`]) — the calling thread
//!   produces, routing items to `S` consumer workers over bounded queues,
//!   with fan-in in consumer order. The sharded sampling path fans out one
//!   Interchange sampler per shard through it; because the stages are
//!   decoupled by the queues, shard workers evaluate batch `b` while the
//!   producer is already decoding and routing batch `b + 1`.
//!
//! Workers are **scoped**: they are joined before the call returns, so
//! closures may borrow from the caller's stack (the bounds scan borrows the
//! caller's source; a shard worker owns its sampler outright). A persistent
//! pool would require either `'static` tasks or `unsafe` lifetime erasure;
//! the workspace forbids `unsafe`, and thread spawn cost (~10µs) is noise at
//! the granularity every caller fans out at (a shard's whole sub-stream).
//! The core is the only place the workspace starts a thread: the root
//! `clippy.toml` rejects `std::thread::scope`, `std::thread::spawn` and
//! `std::thread::Builder::spawn` everywhere else.
//!
//! One Interchange build is *not* fanned out: every accept changes the
//! responsibilities the next candidate is tested against, so the hill
//! climb runs on the calling thread, and parallelism lives where there is
//! no sequential dependency — the shards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
mod fanout;
pub mod scatter;

pub use exec::{split_ranges, try_par_map_vec_ordered};
pub use fanout::WorkerPanic;
pub use scatter::scatter_ordered;
