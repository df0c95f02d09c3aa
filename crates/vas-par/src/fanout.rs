//! The one fan-out core every parallel shape in this crate is built on.
//!
//! [`fan_out`] is the workspace's only [`std::thread::scope`] call (the root
//! `clippy.toml` rejects any other). It owns the whole worker life cycle, so
//! every shape shares one panic policy: a panic anywhere in a fan-out, the
//! calling thread's own share included, is caught, every worker is joined,
//! and the call returns [`WorkerPanic`]. What a `WorkerPanic` means is the
//! caller's decision: the pure maps re-raise it, the speculative
//! pre-evaluation front replays its batch sequentially, and the sharded
//! build turns it into a typed error.

use std::panic::{catch_unwind, AssertUnwindSafe};
use vas_obs::{Counter, Phase, PhaseGuard, Recorder};

/// One or more workers of a fan-out panicked.
///
/// Partial results are never exposed: a panicked stripe leaves no way to
/// tell which of its items were computed. Every worker has been joined by
/// the time this is returned, so no thread outlives the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// How many workers (the calling thread's share included) panicked.
    pub panicked_workers: usize,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} parallel worker(s) panicked during a contained fan-out",
            self.panicked_workers
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Runs `work(i, stripe, span)` for every stripe and returns the results
/// in stripe order.
///
/// The calling thread runs `producer` when one is given, and every stripe
/// gets a scoped worker of its own. Without a producer the calling thread
/// runs stripe 0 itself, so a one-stripe call spawns nothing. Each stripe
/// runs inside a `worker_task` phase opened under the caller's open span;
/// `span` is that phase, for the stripe's attributes. The call counts one
/// `par_tasks_executed` per stripe (at least one) and one
/// `par_contained_panics` per panicked worker.
#[allow(clippy::disallowed_methods)]
pub(crate) fn fan_out<T, R>(
    recorder: &Recorder,
    stripes: Vec<T>,
    work: impl Fn(usize, T, &mut PhaseGuard) -> R + Sync,
    producer: Option<Box<dyn FnOnce() + '_>>,
) -> Result<Vec<R>, WorkerPanic>
where
    T: Send,
    R: Send,
{
    recorder.inc(Counter::ParTasksExecuted, stripes.len().max(1) as u64);
    // Captured on the calling thread: spawned workers have no open span of
    // their own to parent under.
    let parent = recorder.current_ctx();
    let task = |i: usize, stripe: T| {
        let mut span = recorder.phase_under(Phase::WorkerTask, parent);
        work(i, stripe, &mut span)
    };
    let mut stripes = stripes.into_iter().enumerate();
    let own_stripe = if producer.is_none() {
        stripes.next()
    } else {
        None
    };
    let outcomes: Vec<std::thread::Result<Option<R>>> = std::thread::scope(|scope| {
        let task = &task;
        let workers: Vec<_> = stripes
            .map(|(i, stripe)| scope.spawn(move || task(i, stripe)))
            .collect();
        let own = catch_unwind(AssertUnwindSafe(|| {
            if let Some(producer) = producer {
                producer();
            }
            own_stripe.map(|(i, stripe)| task(i, stripe))
        }));
        // Join every worker, also after a panic: none may outlive the call.
        std::iter::once(own)
            .chain(workers.into_iter().map(|h| h.join().map(Some)))
            .collect()
    });
    let panicked_workers = outcomes.iter().filter(|o| o.is_err()).count();
    if panicked_workers > 0 {
        recorder.inc(Counter::ParContainedPanics, panicked_workers as u64);
        return Err(WorkerPanic { panicked_workers });
    }
    Ok(outcomes
        .into_iter()
        .filter_map(|o| o.ok().flatten())
        .collect())
}
