//! Ordered fan-out/fan-in combinators over scoped threads.
//!
//! All combinators share one structure: the input is split into contiguous
//! index ranges with [`split_ranges`], each range is processed by one worker
//! (the calling thread takes the first range itself, so `threads = 1` spawns
//! nothing and is exactly the sequential loop), and the per-range results are
//! combined **in range order**. Because the split depends only on
//! `(len, threads)` and the fan-in order is fixed, a deterministic per-item
//! function gives a combined result that is bit-identical to the sequential
//! left-to-right evaluation — the property the determinism suite pins.

use std::ops::Range;
use vas_obs::{Counter, Phase, Recorder};

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
/// deterministic backbone of every combinator in this module.
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

/// Maps `f(index, &item)` over a slice with up to `threads` scoped workers,
/// returning the results **in input order** — bit-identical to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` whenever `f`
/// is deterministic.
///
/// The slice is split into contiguous ranges ([`split_ranges`]); each worker
/// fills a private vector for its range and the vectors are concatenated in
/// range order. With `threads <= 1` (or a single-range split) no thread is
/// spawned.
///
/// A panic in `f` propagates to the caller after all workers have joined.
pub fn par_map_ordered<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let ranges = split_ranges(items.len(), effective_threads(threads));
    if ranges.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut per_range: Vec<Vec<R>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranges[1..]
            .iter()
            .map(|range| {
                let range = range.clone();
                scope.spawn(move || {
                    items[range.clone()]
                        .iter()
                        .zip(range)
                        .map(|(t, i)| f(i, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        // The calling thread is worker 0.
        let first: Vec<R> = items[ranges[0].clone()]
            .iter()
            .zip(ranges[0].clone())
            .map(|(t, i)| f(i, t))
            .collect();
        let mut out = Vec::with_capacity(ranges.len());
        out.push(first);
        for h in handles {
            out.push(h.join().expect("vas-par worker panicked"));
        }
        out
    });
    let mut result = Vec::with_capacity(items.len());
    for v in &mut per_range {
        result.append(v);
    }
    result
}

/// Owned-input variant of [`par_map_ordered`]: consumes `items`, hands each
/// element to exactly one worker, and returns `f(index, item)` results in
/// input order. Used where the mapped values cannot be borrowed (e.g. running
/// a ladder of independently-owned samplers).
pub fn par_map_vec_ordered<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_vec_inner(threads, items, f, None)
}

/// [`par_map_vec_ordered`] with observability: bit-identical results, plus
/// worker stripes counted into `par_tasks_executed` and timed into the
/// `worker_task` phase when the recorder has timing enabled.
pub fn par_map_vec_ordered_recorded<T, R, F>(
    recorder: &Recorder,
    threads: usize,
    items: Vec<T>,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_vec_inner(threads, items, f, Some(recorder))
}

fn par_map_vec_inner<T, R, F>(
    threads: usize,
    items: Vec<T>,
    f: F,
    recorder: Option<&Recorder>,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let ranges = split_ranges(items.len(), effective_threads(threads));
    if let Some(rec) = recorder {
        rec.inc(Counter::ParTasksExecuted, ranges.len().max(1) as u64);
    }
    // Captured on the consuming thread so worker-task spans on spawned
    // threads parent under the caller's open span, not float as roots.
    let parent = recorder.and_then(|rec| rec.current_ctx());
    if ranges.len() <= 1 {
        let _phase = recorder.map(|rec| rec.phase_under(Phase::WorkerTask, parent));
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // Carve the owned input into one sub-vector per range, preserving order.
    let mut stripes: Vec<(Range<usize>, Vec<T>)> = Vec::with_capacity(ranges.len());
    let mut rest = items;
    for range in ranges.iter().rev() {
        let tail = rest.split_off(range.start);
        stripes.push((range.clone(), tail));
    }
    stripes.reverse();
    let run_stripe = |range: Range<usize>, stripe: Vec<T>| -> Vec<R> {
        let mut phase = recorder.map(|rec| rec.phase_under(Phase::WorkerTask, parent));
        if let Some(phase) = &mut phase {
            phase.attr("stripe_start", range.start);
            phase.attr("stripe_len", range.len());
        }
        stripe
            .into_iter()
            .zip(range)
            .map(|(t, i)| f(i, t))
            .collect()
    };
    let mut per_range: Vec<Vec<R>> = std::thread::scope(|scope| {
        let run_stripe = &run_stripe;
        let mut stripes = stripes.into_iter();
        let (first_range, first_items) = stripes.next().expect("at least one range");
        let handles: Vec<_> = stripes
            .map(|(range, stripe)| scope.spawn(move || run_stripe(range, stripe)))
            .collect();
        let first: Vec<R> = run_stripe(first_range, first_items);
        let mut out = Vec::with_capacity(1 + handles.len());
        out.push(first);
        for h in handles {
            out.push(h.join().expect("vas-par worker panicked"));
        }
        out
    });
    let mut result = Vec::new();
    for v in &mut per_range {
        result.append(v);
    }
    result
}

/// One or more workers of a contained fan-out panicked.
///
/// Returned by [`try_par_map_ordered`] instead of re-raising the panic, so
/// callers can degrade to a sequential fallback (the pattern the Interchange
/// speculation front uses) rather than unwind the whole build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// How many workers (including the calling thread's own stripe)
    /// panicked.
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

/// Panic-containing variant of [`par_map_ordered`]: identical split, fan-out
/// and in-order fan-in, but a panic in `f` is caught instead of propagated.
///
/// On success the result is bit-identical to [`par_map_ordered`] (and hence
/// to the sequential loop). If **any** worker panics the whole fan-out is
/// discarded and `Err(`[`WorkerPanic`]`)` is returned — partial results are
/// never exposed, because a poisoned stripe leaves no way to tell which
/// indices were computed. All workers are always joined before returning, so
/// no detached thread outlives the call.
pub fn try_par_map_ordered<T, R, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    try_par_map_inner(threads, items, f, None)
}

/// [`try_par_map_ordered`] with observability: identical split, fan-out,
/// fan-in and panic containment (the result is bit-identical), plus each
/// worker stripe is counted into `par_tasks_executed`, timed into the
/// `worker_task` phase (busy-time histogram — utilization is busy time over
/// wall time) when the recorder has timing enabled, and any contained panic
/// increments `par_contained_panics`. With a detached recorder the only
/// extra work is two relaxed counter adds per call.
pub fn try_par_map_ordered_recorded<T, R, F>(
    recorder: &Recorder,
    threads: usize,
    items: &[T],
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let result = try_par_map_inner(threads, items, f, Some(recorder));
    if let Err(e) = &result {
        recorder.inc(Counter::ParContainedPanics, e.panicked_workers as u64);
    }
    result
}

fn try_par_map_inner<T, R, F>(
    threads: usize,
    items: &[T],
    f: F,
    recorder: Option<&Recorder>,
) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let ranges = split_ranges(items.len(), effective_threads(threads));
    if let Some(rec) = recorder {
        rec.inc(Counter::ParTasksExecuted, ranges.len().max(1) as u64);
    }
    // Captured on the consuming thread so worker-task spans on spawned
    // threads parent under the caller's open span, not float as roots.
    let parent = recorder.and_then(|rec| rec.current_ctx());
    // Times one stripe of work; a no-op guard when timing is off or no
    // recorder is attached (the off-the-data-path rule: observing a stripe
    // never changes what it computes).
    let run_stripe = |range: Range<usize>| -> Vec<R> {
        let mut phase = recorder.map(|rec| rec.phase_under(Phase::WorkerTask, parent));
        if let Some(phase) = &mut phase {
            phase.attr("stripe_start", range.start);
            phase.attr("stripe_len", range.len());
        }
        items[range.clone()]
            .iter()
            .zip(range)
            .map(|(t, i)| f(i, t))
            .collect()
    };
    if ranges.len() <= 1 {
        let only = ranges.first().cloned().unwrap_or(0..0);
        return catch_unwind(AssertUnwindSafe(|| run_stripe(only))).map_err(|_| WorkerPanic {
            panicked_workers: 1,
        });
    }
    let per_range: Vec<Result<Vec<R>, ()>> = std::thread::scope(|scope| {
        let run_stripe = &run_stripe;
        let handles: Vec<_> = ranges[1..]
            .iter()
            .map(|range| {
                let range = range.clone();
                scope.spawn(move || run_stripe(range))
            })
            .collect();
        let first =
            catch_unwind(AssertUnwindSafe(|| run_stripe(ranges[0].clone()))).map_err(|_| ());
        let mut out = Vec::with_capacity(ranges.len());
        out.push(first);
        // Join every handle unconditionally — a poisoned stripe must not
        // leave threads running (scope would re-panic on unjoined workers).
        for h in handles {
            out.push(h.join().map_err(|_| ()));
        }
        out
    });
    let panicked_workers = per_range.iter().filter(|r| r.is_err()).count();
    if panicked_workers > 0 {
        return Err(WorkerPanic { panicked_workers });
    }
    let mut result = Vec::with_capacity(items.len());
    for v in per_range {
        result.extend(v.expect("checked above"));
    }
    Ok(result)
}

/// Fans a slice out as fixed-size chunks (`items.chunks(chunk_size)`), maps
/// every chunk to an accumulator with `map`, and folds the accumulators
/// **left-to-right in chunk order** with `fold` — the "ordered-index
/// reduction" shape, used by the density-embedding pass
/// (`vas_core::density_counts_threaded`) and available to any map-reduce
/// over a slice. (Per-item fan-outs like the loss estimator's probe loop
/// use [`par_map_ordered`] directly.)
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
            let got = par_map_vec_ordered(threads, items.clone(), |_, s| format!("{s}!"));
            assert_eq!(got, reference, "threads {threads}");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_ordered(4, &empty, |_, v| *v).is_empty());
        assert!(par_map_vec_ordered(4, empty.clone(), |_, v| v).is_empty());
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
    fn try_par_map_matches_the_propagating_variant_on_success() {
        let items: Vec<u64> = (0..500).collect();
        for threads in [1usize, 2, 4, 7] {
            let reference = par_map_ordered(threads, &items, |i, v| v * 7 + i as u64);
            let got = try_par_map_ordered(threads, &items, |i, v| v * 7 + i as u64).unwrap();
            assert_eq!(got, reference, "threads {threads}");
        }
    }

    #[test]
    fn recorded_variants_match_and_count() {
        let rec = Recorder::detached().with_timing(true);
        let items: Vec<u64> = (0..200).collect();
        for threads in [1usize, 2, 4] {
            let reference = par_map_ordered(threads, &items, |i, v| v + i as u64);
            let got =
                try_par_map_ordered_recorded(&rec, threads, &items, |i, v| v + i as u64).unwrap();
            assert_eq!(got, reference, "threads {threads}");
            let got_vec =
                par_map_vec_ordered_recorded(&rec, threads, items.clone(), |i, v| v + i as u64);
            assert_eq!(got_vec, reference, "threads {threads}");
        }
        let snap = rec.registry().snapshot();
        assert!(snap.counter(Counter::ParTasksExecuted) >= 6);
        assert_eq!(snap.counter(Counter::ParContainedPanics), 0);
        assert!(snap.phase_calls(Phase::WorkerTask) >= 6);
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
            let got = try_par_map_ordered_recorded(&rec, 4, &items, |i, v| v + i as u64).unwrap();
            assert_eq!(got.len(), items.len());
            let _ = par_map_vec_ordered_recorded(&rec, 4, items.clone(), |i, v| v + i as u64);
        }
        let spans = tracer.spans();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker_task").collect();
        assert!(workers.len() >= 8, "4 stripes per combinator expected");
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
    fn recorded_variant_counts_contained_panics() {
        let rec = Recorder::detached();
        let items: Vec<u32> = (0..100).collect();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = try_par_map_ordered_recorded(&rec, 4, &items, |_, v| {
            assert!(*v != 57, "boom");
            *v
        })
        .unwrap_err();
        std::panic::set_hook(prev);
        assert_eq!(
            rec.registry().get(Counter::ParContainedPanics),
            err.panicked_workers as u64
        );
        // Timing off on the detached recorder: no worker-task latencies.
        assert_eq!(rec.registry().snapshot().phase_calls(Phase::WorkerTask), 0);
    }

    #[test]
    fn try_par_map_contains_worker_panics() {
        let items: Vec<u32> = (0..100).collect();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Index 57 lands in a spawned worker's stripe at 4 threads and in
        // the calling thread's stripe at 1 thread — both must be contained.
        for threads in [1usize, 2, 4] {
            let err = try_par_map_ordered(threads, &items, |_, v| {
                assert!(*v != 57, "boom");
                *v
            })
            .unwrap_err();
            assert!(err.panicked_workers >= 1, "threads {threads}");
        }
        std::panic::set_hook(prev);
    }
}
