//! Ordered fan-out/fan-in maps.
//!
//! Every map splits its input into contiguous index ranges with
//! [`split_ranges`], hands each range to one worker of the crate's fan-out
//! core (the calling thread takes the first range itself, so `threads = 1`
//! spawns nothing and is exactly the sequential loop), and concatenates the
//! per-range results **in range order**. Because the split depends only on
//! `(len, threads)` and the fan-in order is fixed, a deterministic per-item
//! function gives a combined result that is bit-identical to the sequential
//! left-to-right evaluation — the property the determinism suite pins.
//!
//! The core contains every worker panic and joins every worker.
//! [`par_chunk_fold_ordered`] re-raises a panic on the caller;
//! [`try_par_map_vec_ordered`] returns it as [`WorkerPanic`].
//! Each range counts one `par_tasks_executed` and runs inside a
//! `worker_task` phase, parented under the caller's open span and carrying
//! `stripe_start`/`stripe_len` attributes; a contained panic counts into
//! `par_contained_panics`.

use crate::fanout::{fan_out, WorkerPanic};
use std::ops::Range;
use std::sync::OnceLock;
use vas_obs::{PhaseGuard, Recorder};

/// Resolves a requested worker count: `0` means "ask the OS"
/// ([`std::thread::available_parallelism`]), anything else is taken
/// literally. Always at least 1.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
    .max(1)
}

/// Splits `0..len` into at most `parts` contiguous, near-equal, non-empty
/// ranges covering every index exactly once, in ascending order.
///
/// The first `len % parts` ranges are one element longer, so range sizes
/// differ by at most one. Depends only on `(len, parts)` — the split is the
/// deterministic backbone of every map in this module.
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len);
    if len == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

/// Maps `f(index, &item)` over a slice with up to `threads` workers,
/// returning the results **in input order** — bit-identical to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` whenever `f`
/// is deterministic.
///
/// A panic in `f` is re-raised on the caller after all workers have joined.
fn par_map_ordered<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    static UNRECORDED: OnceLock<Recorder> = OnceLock::new();
    let stripes = split_ranges(items.len(), effective_threads(threads))
        .into_iter()
        .map(|range| (range, ()))
        .collect();
    map_stripes(
        UNRECORDED.get_or_init(Recorder::detached),
        stripes,
        |range, ()| {
            items[range.clone()]
                .iter()
                .zip(range)
                .map(|(t, i)| f(i, t))
                .collect()
        },
    )
    .unwrap_or_else(|e| panic!("vas-par worker panicked: {e}"))
}

/// Owned-input map: consumes `items`, hands each element to exactly one of
/// up to `threads` workers, and returns `f(index, item)` in input order —
/// bit-identical to the sequential map whenever `f` is deterministic. Items
/// may carry `&mut` borrows, so each worker can own a disjoint part of the
/// caller's state (the sharded build's bounds scan hands its one stripe the
/// caller's source this way).
///
/// A panic in `f` is contained: the call returns [`WorkerPanic`] and the
/// caller decides what it means. Worker stripes are counted and traced
/// through `recorder` (see the [module docs](self)).
pub fn try_par_map_vec_ordered<T, R, F>(
    recorder: &Recorder,
    threads: usize,
    items: Vec<T>,
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let ranges = split_ranges(items.len(), effective_threads(threads));
    // Carve the owned input into one sub-vector per range, preserving order.
    let mut stripes = Vec::with_capacity(ranges.len());
    let mut rest = items;
    for range in ranges.into_iter().rev() {
        let stripe = match range.start {
            0 => std::mem::take(&mut rest),
            start => rest.split_off(start),
        };
        stripes.push((range, stripe));
    }
    stripes.reverse();
    map_stripes(recorder, stripes, |range, stripe: Vec<T>| {
        stripe
            .into_iter()
            .zip(range)
            .map(|(t, i)| f(i, t))
            .collect()
    })
}

/// Runs `run(range, stripe)` for every stripe through the fan-out core and
/// concatenates the per-stripe results in range order.
fn map_stripes<S, R>(
    recorder: &Recorder,
    stripes: Vec<(Range<usize>, S)>,
    run: impl Fn(Range<usize>, S) -> Vec<R> + Sync,
) -> Result<Vec<R>, WorkerPanic>
where
    S: Send,
    R: Send,
{
    let work = |_, (range, stripe): (Range<usize>, S), span: &mut PhaseGuard| {
        span.attr("stripe_start", range.start);
        span.attr("stripe_len", range.len());
        run(range, stripe)
    };
    let mut per_stripe = fan_out(recorder, stripes, work, None)?.into_iter();
    let mut out = per_stripe.next().unwrap_or_default();
    for mut stripe in per_stripe {
        out.append(&mut stripe);
    }
    Ok(out)
}

/// Fans a slice out as fixed-size chunks (`items.chunks(chunk_size)`), maps
/// every chunk to an accumulator with `map`, and folds the accumulators
/// **left-to-right in chunk order** with `fold` — the "ordered-index
/// reduction" shape, used by the density-embedding pass
/// (`vas_core::density_counts_threaded`) and the loss estimator's probe
/// loop, and available to any map-reduce over a slice.
///
/// The chunk split is fixed by `(len, chunk_size)` and the reduction order is
/// fixed by chunk index, so the result is independent of the thread count:
/// `par_chunk_fold_ordered(1, ..)` and `par_chunk_fold_ordered(8, ..)` agree
/// bit-for-bit for deterministic `map`/`fold`. Returns `None` for an empty
/// input.
///
/// # Panics
/// Panics if `chunk_size` is zero.
pub fn par_chunk_fold_ordered<T, A, M, F>(
    threads: usize,
    items: &[T],
    chunk_size: usize,
    map: M,
    fold: F,
) -> Option<A>
where
    T: Sync,
    A: Send,
    M: Fn(usize, &[T]) -> A + Sync,
    F: FnMut(A, A) -> A,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    let mapped = par_map_ordered(threads, &chunks, |i, chunk| map(i, chunk));
    mapped.into_iter().reduce(fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vas_obs::{Counter, Phase};

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(3), 3);
        assert_eq!(effective_threads(1), 1);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for (len, parts) in [(0usize, 4usize), (1, 4), (7, 3), (8, 3), (9, 3), (100, 1)] {
            let ranges = split_ranges(len, parts);
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "len {len} parts {parts}");
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, len);
            assert!(ranges.len() <= parts.max(1));
            if len > 0 {
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced split: {sizes:?}");
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_map_at_any_thread_count() {
        let items: Vec<u64> = (0..1_000).collect();
        let reference: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 3 + i as u64)
            .collect();
        for threads in [1usize, 2, 3, 4, 7, 16] {
            let got = par_map_ordered(threads, &items, |i, v| v * 3 + i as u64);
            assert_eq!(got, reference, "threads {threads}");
        }
    }

    #[test]
    fn par_map_vec_preserves_order_and_ownership() {
        let items: Vec<String> = (0..57).map(|i| format!("item-{i}")).collect();
        let reference: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
        for threads in [1usize, 2, 5, 8] {
            let got =
                try_par_map_vec_ordered(&Recorder::detached(), threads, items.clone(), |_, s| {
                    format!("{s}!")
                });
            assert_eq!(got.unwrap(), reference, "threads {threads}");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_ordered(4, &empty, |_, v| *v).is_empty());
        let owned = try_par_map_vec_ordered(&Recorder::detached(), 4, empty.clone(), |_, v| v);
        assert!(owned.unwrap().is_empty());
        let folded = par_chunk_fold_ordered(4, &empty, 8, |_, c: &[u32]| c.len(), |a, b| a + b);
        assert_eq!(folded, None);
    }

    proptest::proptest! {
        #[test]
        fn ordered_chunk_fold_equals_sequential_fold_for_arbitrary_splits(
            values in proptest::collection::vec(-1.0e3f64..1.0e3, 1..400),
            chunk in 1usize..64,
            threads in 1usize..9,
        ) {
            // The floating-point sum is the canonical order-sensitive fold:
            // any reordering shows up as a bit difference. The parallel
            // chunked fold must therefore reproduce the *sequential chunked*
            // fold exactly — and because addition inside a chunk is the same
            // left-to-right loop, that in turn equals the plain sequential
            // sum bit-for-bit.
            let sequential: f64 = values.iter().sum();
            let map = |_: usize, c: &[f64]| c.iter().sum::<f64>();
            let seq_chunked = values
                .chunks(chunk)
                .enumerate()
                .map(|(i, c)| map(i, c))
                .reduce(|a, b| a + b)
                .unwrap();
            let par = par_chunk_fold_ordered(threads, &values, chunk, map, |a, b| a + b).unwrap();
            prop_assert_eq!(par.to_bits(), seq_chunked.to_bits());
            // The chunked fold re-associates the sum, so compare the
            // *structure*, not the raw sequential sum — but with one chunk
            // they must literally agree.
            if chunk >= values.len() {
                prop_assert_eq!(par.to_bits(), sequential.to_bits());
            }
        }

        #[test]
        fn ordered_fan_in_equals_sequential_map_for_arbitrary_splits(
            values in proptest::collection::vec(-1.0e6f64..1.0e6, 0..300),
            threads in 1usize..9,
        ) {
            let reference: Vec<f64> = values.iter().map(|v| v.sin() * 2.0).collect();
            let got = par_map_ordered(threads, &values, |_, v| v.sin() * 2.0);
            prop_assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let _ = par_map_ordered(4, &items, |_, v| {
            assert!(*v != 57, "boom");
            *v
        });
    }

    #[test]
    fn contained_map_counts_and_matches_the_propagating_map() {
        let rec = Recorder::detached().with_timing(true);
        let items: Vec<u64> = (0..200).collect();
        for threads in [1usize, 2, 4] {
            let reference = par_map_ordered(threads, &items, |i, v| v + i as u64);
            let got = try_par_map_vec_ordered(&rec, threads, items.clone(), |i, v| v + i as u64);
            assert_eq!(got.unwrap(), reference, "threads {threads}");
        }
        let snap = rec.registry().snapshot();
        assert_eq!(snap.counter(Counter::ParTasksExecuted), 1 + 2 + 4);
        assert_eq!(snap.counter(Counter::ParContainedPanics), 0);
        assert_eq!(snap.phase_calls(Phase::WorkerTask), 1 + 2 + 4);
    }

    #[test]
    fn worker_spans_parent_under_the_consumer_span() {
        use std::sync::Arc;
        let tracer = Arc::new(vas_obs::Tracer::new());
        let rec = Recorder::detached().with_tracer(Arc::clone(&tracer));
        let items: Vec<u64> = (0..64).collect();
        let consumer_id;
        {
            let consumer = rec.span("consumer_build");
            consumer_id = consumer.context().unwrap().span_id();
            let got = try_par_map_vec_ordered(&rec, 4, items.clone(), |i, v| v + i as u64);
            assert_eq!(got.unwrap().len(), items.len());
        }
        let spans = tracer.spans();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker_task").collect();
        assert_eq!(workers.len(), 4, "one span per stripe");
        for w in &workers {
            assert_eq!(
                w.parent,
                Some(consumer_id),
                "every worker span parents under the consumer span"
            );
            assert!(w.attrs.iter().any(|(k, _)| k == "stripe_len"));
        }
        // Stripes ran on more than one thread at 4 threads.
        let threads: std::collections::HashSet<u64> = workers.iter().map(|w| w.thread).collect();
        assert!(threads.len() > 1, "expected cross-thread worker spans");
    }

    #[test]
    fn contained_map_returns_and_counts_worker_panics() {
        let items: Vec<u32> = (0..100).collect();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Index 57 lands in a spawned worker's stripe at 2 and 4 threads and
        // in the calling thread's stripe at 1 thread — both are contained.
        for threads in [1usize, 2, 4] {
            let rec = Recorder::detached();
            let err = try_par_map_vec_ordered(&rec, threads, items.clone(), |_, v| {
                assert!(v != 57, "boom");
                v
            })
            .unwrap_err();
            assert_eq!(err.panicked_workers, 1, "threads {threads}");
            assert_eq!(rec.registry().get(Counter::ParContainedPanics), 1);
            // Timing off on the detached recorder: no worker-task latencies.
            assert_eq!(rec.registry().snapshot().phase_calls(Phase::WorkerTask), 0);
        }
        std::panic::set_hook(prev);
    }
}
