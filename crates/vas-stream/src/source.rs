//! The [`PointSource`] trait — bounded-memory streaming access to a point
//! stream — plus the in-memory adapter and the instrumentation wrapper.
//!
//! A `PointSource` is to an out-of-core dataset what
//! [`Dataset::iter`](vas_data::Dataset::iter) is to a materialized one: a way
//! to hand every point to a single-pass consumer, in a stable order, as many
//! times as needed (`reset` rewinds to the first point). Points move in
//! *chunks* — the caller supplies a reusable buffer, the source refills it —
//! so the resident footprint of a scan is one chunk regardless of how many
//! points the stream holds.

use std::io;
use vas_data::{Dataset, DatasetKind, Point};

/// Default chunk size (points per [`PointSource::next_chunk`] refill) used by
/// the adapters when the caller does not specify one. 8K points ≈ 192 KiB of
/// `Point`s: big enough to amortize per-chunk costs, small enough that a
/// handful of resident chunks never matters.
pub const DEFAULT_CHUNK_SIZE: usize = 8_192;

/// A resettable, bounded-memory stream of [`Point`]s.
///
/// ## Contract
///
/// * [`next_chunk`](Self::next_chunk) clears `buf`, appends at most
///   [`chunk_capacity`](Self::chunk_capacity) points, and returns how many it
///   appended; `Ok(0)` means the stream is exhausted.
/// * The point order is **stable**: two full scans separated by a
///   [`reset`](Self::reset) yield bit-identical streams. The Interchange
///   hill-climb is order-sensitive, so this is what makes streaming runs
///   reproducible and lets the determinism suite pin them against in-memory
///   runs.
/// * [`len_hint`](Self::len_hint) is the total number of points one full
///   scan yields (from reset), when the source knows it cheaply. `None` for
///   sources that would have to scan to count (e.g. CSV).
pub trait PointSource {
    /// Short name of the underlying dataset (used in logs and provenance
    /// headers).
    fn name(&self) -> &str;

    /// Provenance of the stream, recorded in spill-file headers. Defaults to
    /// [`DatasetKind::External`]; adapters that know better override it.
    fn kind(&self) -> DatasetKind {
        DatasetKind::External
    }

    /// Total points per full scan, if cheaply known.
    fn len_hint(&self) -> Option<u64>;

    /// Maximum number of points one [`next_chunk`](Self::next_chunk) call
    /// appends — the caller's worst-case resident footprint per buffer.
    fn chunk_capacity(&self) -> usize;

    /// Clears `buf` and refills it with the next chunk. Returns the number
    /// of points appended; `Ok(0)` signals end-of-stream.
    fn next_chunk(&mut self, buf: &mut Vec<Point>) -> io::Result<usize>;

    /// Rewinds the source to the first point.
    fn reset(&mut self) -> io::Result<()>;

    /// Streams every remaining point into `f`, returning how many were
    /// visited. Resident memory: one chunk.
    fn for_each_point<F: FnMut(Point)>(&mut self, mut f: F) -> io::Result<u64>
    where
        Self: Sized,
    {
        let mut buf = Vec::with_capacity(self.chunk_capacity().min(DEFAULT_CHUNK_SIZE));
        let mut seen = 0u64;
        while self.next_chunk(&mut buf)? > 0 {
            seen += buf.len() as u64;
            for p in &buf {
                f(*p);
            }
        }
        Ok(seen)
    }

    /// Materializes every remaining point. Only for tests and small sources —
    /// this is exactly the allocation the streaming pipeline exists to avoid.
    fn read_all(&mut self) -> io::Result<Vec<Point>>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        self.for_each_point(|p| out.push(p))?;
        Ok(out)
    }
}

/// Mutable references stream the referent: lets a caller hand a source to a
/// consumer (e.g. `VasSampler::build_from_source`) without giving it up.
impl<S: PointSource + ?Sized> PointSource for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn kind(&self) -> DatasetKind {
        (**self).kind()
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }

    fn chunk_capacity(&self) -> usize {
        (**self).chunk_capacity()
    }

    fn next_chunk(&mut self, buf: &mut Vec<Point>) -> io::Result<usize> {
        (**self).next_chunk(buf)
    }

    fn reset(&mut self) -> io::Result<()> {
        (**self).reset()
    }
}

/// [`PointSource`] over an in-memory [`Dataset`]: chunked views into the
/// backing `Vec<Point>`.
///
/// The adapter that lets every consumer be written once against
/// `PointSource` and still accept materialized data; it is also what the
/// determinism suite streams when pinning `build_from_source` against
/// `build` on the same dataset.
#[derive(Debug)]
pub struct DatasetSource<'a> {
    dataset: &'a Dataset,
    pos: usize,
    chunk_size: usize,
}

impl<'a> DatasetSource<'a> {
    /// Wraps `dataset` with the [`DEFAULT_CHUNK_SIZE`].
    pub fn new(dataset: &'a Dataset) -> Self {
        Self::with_chunk_size(dataset, DEFAULT_CHUNK_SIZE)
    }

    /// Wraps `dataset` with an explicit chunk size.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    pub fn with_chunk_size(dataset: &'a Dataset, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            dataset,
            pos: 0,
            chunk_size,
        }
    }
}

impl PointSource for DatasetSource<'_> {
    fn name(&self) -> &str {
        &self.dataset.name
    }

    fn kind(&self) -> DatasetKind {
        self.dataset.kind
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.dataset.len() as u64)
    }

    fn chunk_capacity(&self) -> usize {
        self.chunk_size
    }

    fn next_chunk(&mut self, buf: &mut Vec<Point>) -> io::Result<usize> {
        buf.clear();
        let end = (self.pos + self.chunk_size).min(self.dataset.len());
        buf.extend_from_slice(&self.dataset.points[self.pos..end]);
        let n = end - self.pos;
        self.pos = end;
        Ok(n)
    }

    fn reset(&mut self) -> io::Result<()> {
        self.pos = 0;
        Ok(())
    }
}

/// Transparent [`PointSource`] wrapper that records what actually flowed
/// through: chunk count, point count and the largest chunk ever buffered.
///
/// The resident-point bound test in `tests/end_to_end.rs` wraps its sources
/// in this to *measure* the peak resident point count instead of trusting
/// the configured chunk size; the counters are cumulative across `reset`s
/// (multi-pass runs keep accumulating).
#[derive(Debug)]
pub struct TrackingSource<S> {
    inner: S,
    chunks: u64,
    points: u64,
    max_chunk_len: usize,
}

impl<S: PointSource> TrackingSource<S> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            chunks: 0,
            points: 0,
            max_chunk_len: 0,
        }
    }

    /// Number of non-empty chunks streamed so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Number of points streamed so far (across resets).
    pub fn points_streamed(&self) -> u64 {
        self.points
    }

    /// Largest chunk (in points) ever handed to a caller — the measured
    /// per-buffer resident footprint.
    pub fn max_chunk_len(&self) -> usize {
        self.max_chunk_len
    }

    /// Consumes the wrapper, returning the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PointSource> PointSource for TrackingSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> DatasetKind {
        self.inner.kind()
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn chunk_capacity(&self) -> usize {
        self.inner.chunk_capacity()
    }

    fn next_chunk(&mut self, buf: &mut Vec<Point>) -> io::Result<usize> {
        let n = self.inner.next_chunk(buf)?;
        if n > 0 {
            self.chunks += 1;
            self.points += n as u64;
            self.max_chunk_len = self.max_chunk_len.max(n);
        }
        Ok(n)
    }

    fn reset(&mut self) -> io::Result<()> {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_data::GeolifeGenerator;

    #[test]
    fn dataset_source_streams_every_point_in_order() {
        let d = GeolifeGenerator::with_size(1_000, 3).generate();
        let mut source = DatasetSource::with_chunk_size(&d, 64);
        assert_eq!(source.len_hint(), Some(1_000));
        assert_eq!(source.chunk_capacity(), 64);
        let streamed = source.read_all().unwrap();
        assert_eq!(streamed, d.points);
        // Exhausted now; reset rewinds.
        assert!(source.read_all().unwrap().is_empty());
        source.reset().unwrap();
        assert_eq!(source.read_all().unwrap(), d.points);
    }

    #[test]
    fn dataset_source_chunk_sizes_cover_boundaries() {
        let d = GeolifeGenerator::with_size(100, 5).generate();
        for chunk in [1usize, 7, 99, 100, 101, 1000] {
            let mut source = DatasetSource::with_chunk_size(&d, chunk);
            let mut buf = Vec::new();
            let mut total = 0usize;
            while source.next_chunk(&mut buf).unwrap() > 0 {
                assert!(buf.len() <= chunk);
                total += buf.len();
            }
            assert_eq!(total, 100, "chunk size {chunk}");
        }
    }

    #[test]
    fn empty_dataset_streams_nothing() {
        let d = Dataset::from_points("empty", vec![]);
        let mut source = DatasetSource::new(&d);
        let mut buf = vec![Point::new(1.0, 1.0)];
        assert_eq!(source.next_chunk(&mut buf).unwrap(), 0);
        assert!(buf.is_empty(), "next_chunk must clear the buffer");
    }

    #[test]
    fn tracking_source_records_flow() {
        let d = GeolifeGenerator::with_size(250, 9).generate();
        let mut tracked = TrackingSource::new(DatasetSource::with_chunk_size(&d, 100));
        let mut count = 0u64;
        let seen = tracked.for_each_point(|_| count += 1).unwrap();
        assert_eq!(seen, 250);
        assert_eq!(count, 250);
        assert_eq!(tracked.points_streamed(), 250);
        assert_eq!(tracked.chunks(), 3); // 100 + 100 + 50
        assert_eq!(tracked.max_chunk_len(), 100);
        // Counters accumulate across resets.
        tracked.reset().unwrap();
        tracked.for_each_point(|_| {}).unwrap();
        assert_eq!(tracked.points_streamed(), 500);
        assert_eq!(tracked.name(), d.name);
        assert_eq!(tracked.len_hint(), Some(250));
    }

    #[test]
    fn reference_sources_stream_identically() {
        let d = GeolifeGenerator::with_size(300, 7).generate();
        let reference = DatasetSource::with_chunk_size(&d, 50).read_all().unwrap();

        // Exercise the `&mut S` impl through a generic consumer taking the
        // source by value.
        fn drain<S: PointSource>(mut s: S) -> (Option<u64>, Vec<Point>) {
            (s.len_hint(), s.read_all().unwrap())
        }
        let mut inner = DatasetSource::with_chunk_size(&d, 50);
        let (hint, streamed) = drain(&mut inner);
        assert_eq!(hint, Some(300));
        assert_eq!(streamed, reference);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_is_rejected() {
        let d = Dataset::from_points("d", vec![]);
        let _ = DatasetSource::with_chunk_size(&d, 0);
    }
}
