//! Free-running scatter pipeline: one producer feeding per-consumer bounded
//! queues, fan-in in consumer order.
//!
//! [`scatter_ordered`] is the execution backbone of the sharded sampling
//! path (`vas-core::shard`): the calling thread routes stream items to `S`
//! persistent worker threads through bounded channels, each worker folds its
//! items into its own consumer state, and when the producer is done every
//! worker finalizes and the results come back **in consumer order**.
//!
//! Unlike the barrier-style combinators in [`crate::exec`], the stages here
//! are *free-running*: the producer decodes and routes batch `b + 1` while
//! workers are still applying batch `b` — the queue depth is the only
//! coupling. This retires the long-standing pipelining gap of the chunked
//! read-ahead path, where the consumer and the pre-evaluation front advanced
//! in lock-step per batch: here nothing ever waits at a batch boundary
//! unless a queue is full (back-pressure) or empty (starvation).
//!
//! Determinism is preserved by construction: each channel is FIFO and each
//! consumer is owned by exactly one worker, so consumer `i` observes exactly
//! the sub-sequence of items the producer routed to `i`, in producer order —
//! independent of queue depth, scheduling, or how the producer batched its
//! input. For a deterministic routing function and fold, the result is
//! therefore bit-identical to feeding each consumer sequentially.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use vas_obs::{Counter, Phase, Recorder};

/// Runs a producer/`S`-consumer scatter pipeline and returns each consumer's
/// finish value, in consumer order.
///
/// * `consumers` — one owned state per consumer; each is moved onto its own
///   worker thread.
/// * `feed` — runs on the calling thread. It receives a `send(i, item)`
///   closure that routes `item` to consumer `i`, returning `false` when that
///   consumer is gone (its worker panicked); a producer seeing `false`
///   should stop feeding and return, letting the join below surface the
///   panic. `feed`'s error aborts the pipeline: queues are closed, workers
///   drain and finalize, and the error is returned (finish values are
///   discarded).
/// * `work(i, &mut consumer, item)` — applies one item to consumer `i`, on
///   that consumer's worker thread, in routed order.
/// * `finish(i, consumer)` — finalizes consumer `i` on its worker thread
///   after its queue is drained and closed.
///
/// `depth` bounds each queue (in items; clamped to at least 1): the producer
/// blocks when a consumer falls `depth` items behind, which caps memory at
/// `S × depth` in-flight items and keeps a slow shard from letting the
/// producer race unboundedly ahead.
///
/// Observability: the call counts one `par_tasks_executed` per worker, and
/// each worker's lifetime is timed into the `worker_task` phase and traced
/// as a `worker_task` span (with a `shard` attribute) parented under the
/// caller's open span — a traced sharded build shows `S` worker subtrees
/// under one root. With a detached recorder all of that is inert.
///
/// A panic in `work` or `finish` propagates to the caller after all workers
/// have joined.
pub fn scatter_ordered<T, C, R, E, Feed, Work, Finish>(
    recorder: &Recorder,
    depth: usize,
    consumers: Vec<C>,
    feed: Feed,
    work: Work,
    finish: Finish,
) -> Result<Vec<R>, E>
where
    T: Send,
    C: Send,
    R: Send,
    Feed: FnOnce(&mut dyn FnMut(usize, T) -> bool) -> Result<(), E>,
    Work: Fn(usize, &mut C, T) + Sync,
    Finish: Fn(usize, C) -> R + Sync,
{
    let depth = depth.max(1);
    let workers = consumers.len();
    recorder.inc(Counter::ParTasksExecuted, workers.max(1) as u64);
    // Captured on the producer thread so worker-task spans parent under the
    // caller's open span (the sharded-build root), not float as roots.
    let parent = recorder.current_ctx();
    let mut channels: Vec<(SyncSender<T>, Option<Receiver<T>>)> = (0..workers)
        .map(|_| {
            let (tx, rx) = sync_channel::<T>(depth);
            (tx, Some(rx))
        })
        .collect();
    std::thread::scope(|scope| {
        let work = &work;
        let finish = &finish;
        let handles: Vec<_> = channels
            .iter_mut()
            .zip(consumers)
            .enumerate()
            .map(|(i, ((_, rx), mut consumer))| {
                let rx = rx.take().expect("receiver taken once");
                scope.spawn(move || {
                    let mut phase = recorder.phase_under(Phase::WorkerTask, parent);
                    phase.attr("shard", i);
                    while let Ok(item) = rx.recv() {
                        work(i, &mut consumer, item);
                    }
                    finish(i, consumer)
                })
            })
            .collect();
        let mut send = |i: usize, item: T| channels[i].0.send(item).is_ok();
        let fed = feed(&mut send);
        // Close every queue so workers drain and finalize, then join them
        // unconditionally — a worker panic propagates here even when the
        // producer bailed out first.
        drop(channels);
        let mut results = Vec::with_capacity(workers);
        for h in handles {
            results.push(h.join().expect("vas-par scatter worker panicked"));
        }
        fed.map(|()| results)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routes `values` round-robin to `shards` accumulating folds and
    /// returns the per-shard sums.
    fn pipeline_sums(depth: usize, shards: usize, values: &[f64]) -> Vec<f64> {
        scatter_ordered(
            &Recorder::detached(),
            depth,
            vec![0.0f64; shards],
            |send| {
                for (i, v) in values.iter().enumerate() {
                    assert!(send(i % shards, *v));
                }
                Ok::<(), ()>(())
            },
            // An order-sensitive fold: any reordering flips result bits.
            |_, acc, v| *acc = (*acc + v) * 1.000000001,
            |_, acc| acc,
        )
        .unwrap()
    }

    #[test]
    fn matches_sequential_fold_at_any_depth() {
        let values: Vec<f64> = (0..1_000).map(|i| (i as f64).sin()).collect();
        let shards = 4;
        let mut reference = vec![0.0f64; shards];
        for (i, v) in values.iter().enumerate() {
            let acc = &mut reference[i % shards];
            *acc = (*acc + v) * 1.000000001;
        }
        for depth in [1usize, 2, 64, 10_000] {
            let got = pipeline_sums(depth, shards, &values);
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "depth {depth}");
            }
        }
    }

    #[test]
    fn empty_feed_still_finalizes_every_consumer() {
        let got = scatter_ordered(
            &Recorder::detached(),
            8,
            vec![(); 3],
            |_send| Ok::<(), ()>(()),
            |_, _, _: u32| {},
            |i, ()| i * 10,
        )
        .unwrap();
        assert_eq!(got, vec![0, 10, 20]);
    }

    #[test]
    fn feed_error_aborts_and_joins_workers() {
        let err = scatter_ordered(
            &Recorder::detached(),
            4,
            vec![0u64; 2],
            |send| {
                assert!(send(0, 1u64));
                Err("decode failed")
            },
            |_, acc, v| *acc += v,
            |_, acc| acc,
        )
        .unwrap_err();
        assert_eq!(err, "decode failed");
    }

    #[test]
    fn worker_panic_propagates_and_send_reports_the_dead_shard() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(|| {
            scatter_ordered(
                &Recorder::detached(),
                1,
                vec![0u64; 2],
                |send| {
                    // Shard 0 panics on the first item; keep sending until
                    // the channel reports it is gone, then stop feeding.
                    let mut alive = true;
                    for _ in 0..1_000 {
                        alive = send(0, 7u64);
                        if !alive {
                            break;
                        }
                    }
                    assert!(!alive, "dead shard must surface through send");
                    Ok::<(), ()>(())
                },
                |_, _, _| panic!("boom"),
                |_, acc| acc,
            )
        });
        std::panic::set_hook(prev);
        assert!(result.is_err(), "worker panic must propagate after join");
    }

    #[test]
    fn records_worker_tasks_and_spans_under_the_caller() {
        use std::sync::Arc;
        let tracer = Arc::new(vas_obs::Tracer::new());
        let rec = Recorder::detached()
            .with_tracer(Arc::clone(&tracer))
            .with_timing(true);
        let consumer_id;
        {
            let root = rec.span("consumer_build");
            consumer_id = root.context().unwrap().span_id();
            let got = scatter_ordered(
                &rec,
                4,
                vec![0u64; 3],
                |send| {
                    for i in 0..30usize {
                        assert!(send(i % 3, i as u64));
                    }
                    Ok::<(), ()>(())
                },
                |_, acc, v| *acc += v,
                |_, acc| acc,
            )
            .unwrap();
            assert_eq!(got.iter().sum::<u64>(), (0..30).sum::<u64>());
        }
        let snap = rec.registry().snapshot();
        assert_eq!(snap.counter(Counter::ParTasksExecuted), 3);
        assert_eq!(snap.phase_calls(Phase::WorkerTask), 3);
        let spans = tracer.spans();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker_task").collect();
        assert_eq!(workers.len(), 3);
        for w in &workers {
            assert_eq!(w.parent, Some(consumer_id));
            assert!(w.attrs.iter().any(|(k, _)| k == "shard"));
        }
    }

    #[test]
    fn producer_runs_ahead_of_a_slow_consumer_up_to_depth() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // With depth 8 and a consumer parked on a gate, the producer must be
        // able to enqueue 8 items without blocking — free-running, not
        // lock-step.
        let gate = AtomicBool::new(false);
        let got = scatter_ordered(
            &Recorder::detached(),
            8,
            vec![0usize; 1],
            |send| {
                for _ in 0..8 {
                    assert!(send(0, 1usize));
                }
                // All 8 enqueued while the consumer never ran an item.
                gate.store(true, Ordering::SeqCst);
                Ok::<(), ()>(())
            },
            |_, acc, v| {
                while !gate.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                *acc += v;
            },
            |_, acc| acc,
        )
        .unwrap();
        assert_eq!(got, vec![8]);
    }
}
