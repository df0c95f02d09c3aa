//! [`PrefetchSource`] — pipelined chunk read-ahead for any [`PointSource`].
//!
//! The streaming sampler alternates between two kinds of work: *producing*
//! the next chunk (decoding a spill column, parsing CSV, running a
//! generator's trig) and *consuming* it (the Interchange replacement tests).
//! Run on one thread they serialize; `PrefetchSource` moves production onto a
//! [`vas_par::ReadAhead`] worker so chunk *n+1* is decoded while the sampler
//! is still draining chunk *n* — the ingest layer's ~3e6 points/s overlap
//! with the sampler's ~2e5 tuples/s instead of adding to them.
//!
//! Determinism is inherited, not re-proven: the wrapper hands the consumer
//! the exact chunks the inner source produces, in the exact order (single
//! producer, FIFO channel), so `tests/determinism.rs` can pin
//! `build_from_source` through a `PrefetchSource` against the sequential
//! path bit-for-bit.
//!
//! The inner source moves to the worker thread, so it must be
//! `Send + 'static` (own its file handle / generator — true for
//! [`ChunkedReader`](crate::ChunkedReader), [`CsvSource`](crate::CsvSource)
//! and the generator sources; the borrowed
//! [`DatasetSource`](crate::DatasetSource) stays on the caller's thread where
//! it belongs, since an in-memory slice has nothing to prefetch).

use crate::source::PointSource;
use std::io;
use vas_data::{DatasetKind, Point};
use vas_obs::{Phase, Recorder, ValueSeries};
use vas_par::{ReadAhead, Stage, Step};

/// Default read-ahead depth (produced chunks that may wait ahead of the
/// consumer): classic double buffering.
pub const DEFAULT_PREFETCH_DEPTH: usize = 2;

/// A [`PointSource`] wrapper that produces chunks on a background worker —
/// the pipelined read-ahead stage of the parallel execution subsystem.
///
/// The stream it yields is bit-identical to the wrapped source's (same
/// chunks, same order, across `reset`s); construction rewinds the inner
/// source so the pipeline always starts at the first point. Chunk buffers
/// are recycled through the worker, so the steady state allocates nothing.
#[derive(Debug)]
pub struct PrefetchSource {
    ahead: ReadAhead<DynSourceStage>,
    name: String,
    kind: DatasetKind,
    len_hint: Option<u64>,
    chunk_capacity: usize,
    recorder: Recorder,
}

/// The worker-side stage, type-erased so `PrefetchSource` itself needs no
/// type parameter (callers juggle readers, CSV and generator sources behind
/// one wrapper type).
struct DynSourceStage(Box<dyn PointSource + Send>);

impl Stage for DynSourceStage {
    type Item = Vec<Point>;
    type Error = io::Error;

    fn next(&mut self, reuse: Option<Vec<Point>>) -> Step<Vec<Point>, io::Error> {
        let mut buf = reuse.unwrap_or_default();
        match self.0.next_chunk(&mut buf) {
            Ok(0) => Step::Done,
            Ok(_) => Step::Item(buf),
            Err(e) => Step::Fail(e),
        }
    }

    fn rewind(&mut self) -> Result<(), io::Error> {
        self.0.reset()
    }
}

impl PrefetchSource {
    /// Wraps `source` with the [`DEFAULT_PREFETCH_DEPTH`].
    pub fn new<S: PointSource + Send + 'static>(source: S) -> Self {
        Self::with_depth(source, DEFAULT_PREFETCH_DEPTH)
    }

    /// Wraps `source`, allowing up to `depth` decoded chunks to wait ahead
    /// of the consumer.
    ///
    /// # Panics
    /// Panics if `depth` is zero.
    pub fn with_depth<S: PointSource + Send + 'static>(source: S, depth: usize) -> Self {
        let name = source.name().to_string();
        let kind = source.kind();
        let len_hint = source.len_hint();
        let chunk_capacity = source.chunk_capacity();
        let ahead = ReadAhead::spawn(DynSourceStage(Box::new(source)), depth);
        Self {
            ahead,
            name,
            kind,
            len_hint,
            chunk_capacity,
            recorder: Recorder::detached(),
        }
    }

    /// Attaches a shared [`Recorder`]: with timing enabled, each receive
    /// records how long the consumer waited for the worker (`prefetch_wait`)
    /// and samples the read-ahead channel occupancy into the
    /// `read_ahead_occupancy` series.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }
}

impl PointSource for PrefetchSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DatasetKind {
        self.kind
    }

    fn len_hint(&self) -> Option<u64> {
        self.len_hint
    }

    fn chunk_capacity(&self) -> usize {
        self.chunk_capacity
    }

    fn next_chunk(&mut self, buf: &mut Vec<Point>) -> io::Result<usize> {
        buf.clear();
        self.recorder
            .record_value(ValueSeries::ReadAheadOccupancy, self.ahead.occupancy());
        let received = {
            let _phase = self.recorder.phase(Phase::PrefetchWait);
            self.ahead.recv()
        };
        match received? {
            Some(mut chunk) => {
                // Swap the produced chunk in and hand the consumer's spent
                // buffer back to the worker for reuse.
                std::mem::swap(buf, &mut chunk);
                self.ahead.recycle(chunk);
                Ok(buf.len())
            }
            None => Ok(0),
        }
    }

    fn reset(&mut self) -> io::Result<()> {
        self.ahead.reset();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::{spill_dataset, ChunkedReader};
    use crate::generate::GeolifeSource;
    use vas_data::GeolifeGenerator;

    fn bitwise_eq(a: &[Point], b: &[Point]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(p, q)| {
                p.x.to_bits() == q.x.to_bits()
                    && p.y.to_bits() == q.y.to_bits()
                    && p.value.to_bits() == q.value.to_bits()
            })
    }

    #[test]
    fn prefetched_generator_stream_is_bit_identical() {
        let generator = GeolifeGenerator::with_size(5_000, 11);
        let reference = generator.generate();
        let mut prefetched = PrefetchSource::new(GeolifeSource::new(generator, 257));
        assert_eq!(prefetched.name(), reference.name);
        assert_eq!(prefetched.len_hint(), Some(5_000));
        assert_eq!(prefetched.chunk_capacity(), 257);
        let streamed = prefetched.read_all().unwrap();
        assert!(bitwise_eq(&streamed, &reference.points));
        // Exhausted until reset; reset rescans the identical stream.
        assert!(prefetched.read_all().unwrap().is_empty());
        prefetched.reset().unwrap();
        let rescanned = prefetched.read_all().unwrap();
        assert!(bitwise_eq(&rescanned, &reference.points));
    }

    #[test]
    fn prefetched_chunked_reader_matches_direct_reads() {
        let data = GeolifeGenerator::with_size(3_000, 13).generate();
        let path =
            std::env::temp_dir().join(format!("vas-prefetch-test-{}.vaschunk", std::process::id()));
        spill_dataset(&data, &path, 173).unwrap();
        let direct = ChunkedReader::open(&path).unwrap().read_all().unwrap();
        let mut prefetched = PrefetchSource::with_depth(ChunkedReader::open(&path).unwrap(), 3);
        let streamed = prefetched.read_all().unwrap();
        assert!(bitwise_eq(&streamed, &direct));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn chunk_boundaries_are_preserved() {
        // The wrapper must not merge or split chunks: chunk sizes drive the
        // sampler's batching, which the determinism contract covers.
        let generator = GeolifeGenerator::with_size(1_000, 7);
        let mut direct = GeolifeSource::new(generator.clone(), 64);
        let mut prefetched = PrefetchSource::new(GeolifeSource::new(generator, 64));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        loop {
            let n_direct = direct.next_chunk(&mut a).unwrap();
            let n_prefetched = prefetched.next_chunk(&mut b).unwrap();
            assert_eq!(n_direct, n_prefetched);
            assert!(bitwise_eq(&a, &b));
            if n_direct == 0 {
                break;
            }
        }
    }

    #[test]
    fn reset_mid_stream_restarts_cleanly() {
        let generator = GeolifeGenerator::with_size(2_000, 19);
        let reference = generator.generate();
        let mut prefetched = PrefetchSource::new(GeolifeSource::new(generator, 100));
        let mut buf = Vec::new();
        for _ in 0..5 {
            prefetched.next_chunk(&mut buf).unwrap();
        }
        prefetched.reset().unwrap();
        let streamed = prefetched.read_all().unwrap();
        assert!(bitwise_eq(&streamed, &reference.points));
    }

    #[test]
    fn errors_from_the_inner_source_surface() {
        let path =
            std::env::temp_dir().join(format!("vas-prefetch-badcsv-{}.csv", std::process::id()));
        std::fs::write(&path, "1.0,2.0\nnot,a,number\n").unwrap();
        let source = crate::csv::CsvSource::open(&path, "bad").unwrap();
        let mut prefetched = PrefetchSource::new(source);
        let err = prefetched.read_all().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn prefetch_source_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<PrefetchSource>();
    }
}
