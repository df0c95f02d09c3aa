//! The chunked columnar spill format: `.vaschunk` files.
//!
//! A dataset on disk is a small provenance header followed by fixed-size
//! chunks of column arrays:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"VASCHNK\0"
//!      8     4  format version (u32 LE; this build writes 2, reads 1 and 2)
//!     12     1  dataset kind tag (see DatasetKind mapping below)
//!     13     3  reserved (zero)
//!     16     4  chunk size in points (u32 LE)
//!     20     8  total point count (u64 LE; patched by `finish`)
//!     28    32  bounding box min_x, min_y, max_x, max_y (4 × f64 LE)
//!     60     2  dataset name length (u16 LE)
//!     62     n  dataset name (UTF-8)
//!   62+n     4  [v2] header CRC-32 over bytes 0..62+n (patched by `finish`)
//! data:        chunks, each:
//!              m (u32 LE, 1 ≤ m ≤ chunk size),
//!              [v2] chunk CRC-32 (u32 LE, over the 4 `m` bytes + all column
//!              bytes),
//!              then m × f64 x, m × f64 y, m × f64 value (LE)
//! ```
//!
//! Columns beat row-interleaved triples here for the same reason they do in
//! any scan-heavy store: a consumer that only needs positions (the sampler
//! never reads `value` during the replacement test) walks two dense arrays,
//! and per-column compression/mmap become possible later without a format
//! break. All values are raw IEEE-754 bit patterns, so round-trips are exact
//! for `-0.0`, subnormals and NaN payloads alike.
//!
//! The writer streams: it stages one chunk of columns in memory, flushes it
//! when full, and back-patches the count, bounds and header checksum into
//! the header on [`ChunkedWriter::finish`] — so a spill never knows the
//! total in advance and never holds more than one chunk.
//!
//! ## Integrity (format v2)
//!
//! Version 2 adds CRC-32 checksums (see [`crate::crc32`]) over the header
//! and over every chunk, so *any* single-bit flip in the file is detected —
//! a property the test suite proves exhaustively for small files. Failure
//! modes map to typed [`VasError`]s:
//!
//! * a crash before `finish` leaves the header checksum as zeros, which
//!   [`ChunkedReader::open`] rejects as a checksum mismatch — an unfinished
//!   spill can never be mistaken for a complete dataset;
//! * a torn or truncated chunk fails its checksum (or its column read) with
//!   the file path, chunk index and byte counts in the error;
//! * a back-patched count that disagrees with the chunks actually present
//!   fails with a [`VasError::Truncated`] naming both counts.
//!
//! By default corruption is a **hard error** — a sample built from silently
//! dropped points is not the sample the caller asked for. For salvage
//! workflows, [`ChunkedReader::set_corruption_policy`] opts into
//! [`CorruptionPolicy::SkipChunks`]: chunks failing their checksum are
//! skipped, each recorded as a [`CorruptChunkReport`], and the end-of-file
//! accounting requires `read + skipped == promised` so the degraded stream
//! still cannot *silently* lose data.

use crate::crc32::Crc32;
use crate::error::VasError;
use crate::source::PointSource;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use vas_data::{BoundingBox, Dataset, DatasetKind, Point};
use vas_obs::{Counter, Phase, Recorder};

const MAGIC: [u8; 8] = *b"VASCHNK\0";
/// Version this build writes.
const FORMAT_VERSION: u32 = 2;
/// Versions this build reads.
const SUPPORTED_VERSIONS: &[u32] = &[1, 2];
/// Byte offset of the back-patched `count` field.
const COUNT_OFFSET: u64 = 20;
/// Bytes of header before the variable-length name.
const HEADER_FIXED_LEN: usize = 62;

fn kind_tag(kind: DatasetKind) -> u8 {
    match kind {
        DatasetKind::GeolifeSim => 0,
        DatasetKind::Splom => 1,
        DatasetKind::GaussianMixture => 2,
        DatasetKind::External => 3,
    }
}

fn tag_kind(tag: u8) -> Option<DatasetKind> {
    match tag {
        0 => Some(DatasetKind::GeolifeSim),
        1 => Some(DatasetKind::Splom),
        2 => Some(DatasetKind::GaussianMixture),
        3 => Some(DatasetKind::External),
        _ => None,
    }
}

/// Parsed header of a chunked columnar file.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedHeader {
    /// Format version (1 or 2).
    pub version: u32,
    /// Provenance of the spilled dataset.
    pub kind: DatasetKind,
    /// Nominal chunk size: every chunk but the last holds exactly this many
    /// points.
    pub chunk_size: usize,
    /// Total points in the file.
    pub count: u64,
    /// Spatial extent of the spilled points, accumulated in stream order
    /// (bit-identical to `BoundingBox::from_points` over the same stream).
    pub bounds: BoundingBox,
    /// Dataset name.
    pub name: String,
}

/// Summary returned by [`ChunkedWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedSummary {
    /// Points written.
    pub count: u64,
    /// Extent of the written points.
    pub bounds: BoundingBox,
    /// Chunks flushed (including the final partial one).
    pub chunks: u64,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// What a [`ChunkedReader`] does when a chunk fails its checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptionPolicy {
    /// Fail the read with a typed error (the default).
    #[default]
    Strict,
    /// Skip the corrupt chunk, record a [`CorruptChunkReport`], and carry on
    /// with the next chunk — explicit opt-in for salvage workflows. Only
    /// meaningful for format v2 (v1 files carry no checksums).
    SkipChunks,
}

/// One corrupt chunk skipped under [`CorruptionPolicy::SkipChunks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptChunkReport {
    /// Zero-based index of the chunk within the current scan.
    pub chunk_index: u64,
    /// Byte offset of the chunk's length prefix in the file.
    pub byte_offset: u64,
    /// Points the skipped chunk claimed to hold.
    pub points_lost: u64,
    /// Checksum stored in the file.
    pub stored_crc: u32,
    /// Checksum computed over the bytes actually read.
    pub computed_crc: u32,
}

/// Streaming writer for the chunked columnar format (always writes v2).
///
/// Stages at most one chunk of columns (`3 × chunk_size` f64s) plus its
/// encoded bytes in memory.
#[derive(Debug)]
pub struct ChunkedWriter {
    file: BufWriter<File>,
    chunk_size: usize,
    xs: Vec<f64>,
    ys: Vec<f64>,
    vs: Vec<f64>,
    /// Reusable byte scratch: the whole chunk's column bytes are encoded
    /// here so the chunk checksum can be computed before anything is
    /// written (the mirror of the reader's `col_buf`).
    chunk_buf: Vec<u8>,
    /// The header bytes as written at create time; `finish` patches count,
    /// bounds and checksum into this image and rewrites the patched fields.
    header_bytes: Vec<u8>,
    count: u64,
    chunks: u64,
    bounds: BoundingBox,
}

impl ChunkedWriter {
    /// Creates `path` (truncating any existing file) and writes the header.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero or exceeds `u32::MAX`, or if `name` is
    /// longer than a `u16` length prefix can record.
    pub fn create(
        path: impl AsRef<Path>,
        name: &str,
        kind: DatasetKind,
        chunk_size: usize,
    ) -> io::Result<Self> {
        assert!(
            chunk_size > 0 && chunk_size <= u32::MAX as usize,
            "chunk size must be in 1..=u32::MAX, got {chunk_size}"
        );
        assert!(
            name.len() <= u16::MAX as usize,
            "dataset name too long for the header ({} bytes)",
            name.len()
        );
        let mut header = Vec::with_capacity(HEADER_FIXED_LEN + name.len() + 4);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&[kind_tag(kind), 0, 0, 0]);
        header.extend_from_slice(&(chunk_size as u32).to_le_bytes());
        // Count and bounds are placeholders until `finish` patches them.
        header.extend_from_slice(&0u64.to_le_bytes());
        for v in [
            BoundingBox::EMPTY.min_x,
            BoundingBox::EMPTY.min_y,
            BoundingBox::EMPTY.max_x,
            BoundingBox::EMPTY.max_y,
        ] {
            header.extend_from_slice(&v.to_le_bytes());
        }
        header.extend_from_slice(&(name.len() as u16).to_le_bytes());
        header.extend_from_slice(name.as_bytes());
        // Header checksum placeholder: zeros never match a real CRC patch,
        // so a crash before `finish` leaves a self-evidently unfinished file.
        header.extend_from_slice(&0u32.to_le_bytes());
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(&header)?;
        Ok(Self {
            file,
            chunk_size,
            xs: Vec::with_capacity(chunk_size),
            ys: Vec::with_capacity(chunk_size),
            vs: Vec::with_capacity(chunk_size),
            chunk_buf: Vec::new(),
            header_bytes: header,
            count: 0,
            chunks: 0,
            bounds: BoundingBox::EMPTY,
        })
    }

    /// Appends one point, flushing the staged chunk to disk when it fills.
    pub fn push(&mut self, p: Point) -> io::Result<()> {
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.vs.push(p.value);
        self.bounds.extend(&p);
        self.count += 1;
        if self.xs.len() == self.chunk_size {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends a slice of points.
    pub fn write_points(&mut self, points: &[Point]) -> io::Result<()> {
        for p in points {
            self.push(*p)?;
        }
        Ok(())
    }

    /// Points currently staged in memory (bounded by the chunk size).
    pub fn staged_len(&self) -> usize {
        self.xs.len()
    }

    /// Points written so far (staged included).
    pub fn count(&self) -> u64 {
        self.count
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.xs.is_empty() {
            return Ok(());
        }
        let m_bytes = (self.xs.len() as u32).to_le_bytes();
        self.chunk_buf.clear();
        for column in [&self.xs, &self.ys, &self.vs] {
            for v in column.iter() {
                self.chunk_buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        let mut crc = Crc32::new();
        crc.update(&m_bytes);
        crc.update(&self.chunk_buf);
        self.file.write_all(&m_bytes)?;
        self.file.write_all(&crc.finish().to_le_bytes())?;
        self.file.write_all(&self.chunk_buf)?;
        self.chunks += 1;
        self.xs.clear();
        self.ys.clear();
        self.vs.clear();
        Ok(())
    }

    /// Flushes the final partial chunk and back-patches the header's count,
    /// bounds and checksum fields.
    pub fn finish(mut self) -> io::Result<ChunkedSummary> {
        self.flush_chunk()?;
        self.file.flush()?;
        // Patch the in-memory header image, recompute its checksum, and
        // rewrite the patched tail (count + bounds + trailing CRC).
        let mut patch = Vec::with_capacity(40);
        patch.extend_from_slice(&self.count.to_le_bytes());
        for v in [
            self.bounds.min_x,
            self.bounds.min_y,
            self.bounds.max_x,
            self.bounds.max_y,
        ] {
            patch.extend_from_slice(&v.to_le_bytes());
        }
        let count_off = COUNT_OFFSET as usize;
        self.header_bytes[count_off..count_off + patch.len()].copy_from_slice(&patch);
        let crc_off = self.header_bytes.len() - 4;
        let mut crc = Crc32::new();
        crc.update(&self.header_bytes[..crc_off]);
        let crc = crc.finish();
        self.header_bytes[crc_off..].copy_from_slice(&crc.to_le_bytes());

        let file = self.file.get_mut();
        let bytes = file.seek(SeekFrom::End(0))?;
        file.seek(SeekFrom::Start(COUNT_OFFSET))?;
        file.write_all(&patch)?;
        file.seek(SeekFrom::Start(crc_off as u64))?;
        file.write_all(&crc.to_le_bytes())?;
        file.sync_data()?;
        Ok(ChunkedSummary {
            count: self.count,
            bounds: self.bounds,
            chunks: self.chunks,
            bytes,
        })
    }
}

/// Chunk-iterating reader for the chunked columnar format; also a
/// [`PointSource`], which is how spilled datasets feed the sampler.
///
/// Reads format v1 (no checksums) and v2 (header + per-chunk CRC-32,
/// verified on every read). Resident memory per chunk: the caller's point
/// buffer plus one column of scratch bytes.
#[derive(Debug)]
pub struct ChunkedReader {
    file: BufReader<File>,
    path: PathBuf,
    header: ChunkedHeader,
    data_offset: u64,
    read: u64,
    chunk_index: u64,
    /// Byte position within the data section (for error reports; only
    /// advanced through the sequential chunk reads).
    data_pos: u64,
    policy: CorruptionPolicy,
    /// Per-scan skip tally — data-path state (the end-of-file accounting
    /// needs `read + skipped == promised`), cleared by [`Self::reset`]. The
    /// attached recorder's registry carries the monotonic lifetime totals.
    skipped_points: u64,
    reports: Vec<CorruptChunkReport>,
    col_buf: Vec<u8>,
    recorder: Recorder,
}

impl ChunkedReader {
    /// Opens `path`, parses the header, and (v2) verifies its checksum.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let display = path.display().to_string();
        let mut file = BufReader::new(File::open(&path)?);
        let mut fixed = [0u8; HEADER_FIXED_LEN];
        file.read_exact(&mut fixed).map_err(|_| {
            io::Error::from(VasError::Corrupt {
                path: display.clone(),
                detail: "file too short for a header".into(),
            })
        })?;
        if fixed[0..8] != MAGIC {
            return Err(VasError::Corrupt {
                path: display,
                detail: "not a chunked dataset file (bad magic)".into(),
            }
            .into());
        }
        let version = u32::from_le_bytes(fixed[8..12].try_into().expect("fixed-size slice"));
        if !SUPPORTED_VERSIONS.contains(&version) {
            return Err(VasError::UnsupportedVersion {
                path: display,
                found: version,
                supported: SUPPORTED_VERSIONS,
            }
            .into());
        }
        let kind = tag_kind(fixed[12]).ok_or_else(|| {
            io::Error::from(VasError::Corrupt {
                path: display.clone(),
                detail: format!("unknown dataset kind tag {}", fixed[12]),
            })
        })?;
        let chunk_size =
            u32::from_le_bytes(fixed[16..20].try_into().expect("fixed-size slice")) as usize;
        if chunk_size == 0 {
            return Err(VasError::Corrupt {
                path: display,
                detail: "zero chunk size".into(),
            }
            .into());
        }
        let count = u64::from_le_bytes(fixed[20..28].try_into().expect("fixed-size slice"));
        let mut bb = [0.0f64; 4];
        for (i, v) in bb.iter_mut().enumerate() {
            *v = f64::from_le_bytes(
                fixed[28 + 8 * i..36 + 8 * i]
                    .try_into()
                    .expect("fixed-size slice"),
            );
        }
        let name_len =
            u16::from_le_bytes(fixed[60..62].try_into().expect("fixed-size slice")) as usize;
        let mut name_bytes = vec![0u8; name_len];
        file.read_exact(&mut name_bytes).map_err(|_| {
            io::Error::from(VasError::Corrupt {
                path: display.clone(),
                detail: "truncated header name".into(),
            })
        })?;
        let name = String::from_utf8(name_bytes.clone()).map_err(|_| {
            io::Error::from(VasError::Corrupt {
                path: display.clone(),
                detail: "header name is not UTF-8".into(),
            })
        })?;
        let mut data_offset = (HEADER_FIXED_LEN + name_len) as u64;
        if version >= 2 {
            let mut crc_bytes = [0u8; 4];
            file.read_exact(&mut crc_bytes).map_err(|_| {
                io::Error::from(VasError::Corrupt {
                    path: display.clone(),
                    detail: "truncated header checksum".into(),
                })
            })?;
            let stored = u32::from_le_bytes(crc_bytes);
            let mut crc = Crc32::new();
            crc.update(&fixed);
            crc.update(&name_bytes);
            let computed = crc.finish();
            if stored != computed {
                return Err(VasError::ChecksumMismatch {
                    path: display,
                    region: "header (unfinished spill or corrupt header)".into(),
                    stored,
                    computed,
                }
                .into());
            }
            data_offset += 4;
        }
        Ok(Self {
            file,
            path,
            header: ChunkedHeader {
                version,
                kind,
                chunk_size,
                count,
                bounds: BoundingBox::new(bb[0], bb[1], bb[2], bb[3]),
                name,
            },
            data_offset,
            read: 0,
            chunk_index: 0,
            data_pos: 0,
            policy: CorruptionPolicy::default(),
            skipped_points: 0,
            reports: Vec::new(),
            col_buf: Vec::new(),
            recorder: Recorder::detached(),
        })
    }

    /// Attaches a shared [`Recorder`]: decoded chunks, CRC failures and
    /// corruption skips count into its registry, chunk decode latency feeds
    /// the `chunk_decode` phase when timing is enabled, and skipped chunks
    /// record `corrupt_chunk_skipped` events.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The parsed file header.
    pub fn header(&self) -> &ChunkedHeader {
        &self.header
    }

    /// Points consumed so far in the current scan.
    pub fn points_read(&self) -> u64 {
        self.read
    }

    /// Sets the corruption policy (see [`CorruptionPolicy`]).
    pub fn set_corruption_policy(&mut self, policy: CorruptionPolicy) {
        self.policy = policy;
    }

    /// Builder-style [`Self::set_corruption_policy`].
    pub fn with_corruption_policy(mut self, policy: CorruptionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Corrupt chunks skipped in the current scan (empty under
    /// [`CorruptionPolicy::Strict`]). The attached recorder's registry
    /// additionally counts lifetime totals across scans
    /// (`stream_corrupt_chunks_skipped`, `stream_crc_failures`).
    pub fn corruption_reports(&self) -> &[CorruptChunkReport] {
        &self.reports
    }

    /// Points lost to skipped chunks in the current scan (cleared by
    /// [`Self::reset`]); `stream_points_skipped` in the attached recorder's
    /// registry carries the monotonic lifetime total.
    pub fn points_skipped(&self) -> u64 {
        self.skipped_points
    }

    fn corrupt(&self, detail: impl Into<String>) -> io::Error {
        VasError::Corrupt {
            path: self.path.display().to_string(),
            detail: detail.into(),
        }
        .into()
    }

    fn read_column(&mut self, m: usize) -> io::Result<()> {
        self.col_buf.resize(m * 8, 0);
        let (chunk_index, promised, read) = (self.chunk_index, self.header.count, self.read);
        self.file.read_exact(&mut self.col_buf).map_err(|_| {
            self.corrupt(format!(
                "chunk {chunk_index} torn mid-column: expected {} column bytes \
                 ({read} of {promised} promised points decoded so far)",
                m * 8
            ))
        })?;
        self.data_pos += (m * 8) as u64;
        Ok(())
    }

    /// Reads the next chunk into `buf` (cleared first). `Ok(0)` at end of
    /// data — at which point every promised point must be accounted for
    /// (decoded, or skipped under [`CorruptionPolicy::SkipChunks`]) and no
    /// trailing bytes may remain.
    pub fn next_chunk(&mut self, buf: &mut Vec<Point>) -> io::Result<usize> {
        // The phase guard owns its handles, so it stays open across the
        // `&mut self` inner call.
        let mut phase = self.recorder.phase(Phase::ChunkDecode);
        let result = self.next_chunk_inner(buf);
        if let Ok(m) = &result {
            phase.attr("points", *m);
        }
        drop(phase);
        if let Ok(m) = &result {
            if *m > 0 {
                self.recorder.inc(Counter::StreamChunksDecoded, 1);
            }
        }
        result
    }

    fn next_chunk_inner(&mut self, buf: &mut Vec<Point>) -> io::Result<usize> {
        loop {
            buf.clear();
            let chunk_offset = self.data_offset + self.data_pos;
            let mut len_bytes = [0u8; 4];
            match self.file.read(&mut len_bytes)? {
                0 => {
                    // Clean end of file: every promised point must have
                    // arrived (or been explicitly skipped).
                    if self.read + self.skipped_points != self.header.count {
                        return Err(VasError::Truncated {
                            path: self.path.display().to_string(),
                            promised: self.header.count,
                            found: self.read + self.skipped_points,
                            unit: "points",
                        }
                        .into());
                    }
                    return Ok(0);
                }
                4 => {}
                n => {
                    let (chunk_index, read, promised) =
                        (self.chunk_index, self.read, self.header.count);
                    self.file.read_exact(&mut len_bytes[n..]).map_err(|_| {
                        self.corrupt(format!(
                            "chunk {chunk_index} torn in its length prefix \
                             ({read} of {promised} promised points decoded so far)"
                        ))
                    })?;
                }
            }
            self.data_pos += 4;
            let m = u32::from_le_bytes(len_bytes) as usize;
            if m == 0 || m > self.header.chunk_size {
                return Err(self.corrupt(format!(
                    "chunk {} has corrupt length {m} (chunk size {}); cannot resync",
                    self.chunk_index, self.header.chunk_size
                )));
            }
            let mut stored_crc = 0u32;
            if self.header.version >= 2 {
                let mut crc_bytes = [0u8; 4];
                let chunk_index = self.chunk_index;
                self.file.read_exact(&mut crc_bytes).map_err(|_| {
                    self.corrupt(format!("chunk {chunk_index} torn in its checksum field"))
                })?;
                self.data_pos += 4;
                stored_crc = u32::from_le_bytes(crc_bytes);
            }
            if self.read + self.skipped_points + m as u64 > self.header.count {
                return Err(self.corrupt(format!(
                    "chunk {} overruns the promised total: {} decoded + {} skipped + {m} \
                     in this chunk > {} promised",
                    self.chunk_index, self.read, self.skipped_points, self.header.count
                )));
            }
            let mut crc = Crc32::new();
            crc.update(&len_bytes);
            self.read_column(m)?;
            crc.update(&self.col_buf);
            buf.extend(self.col_buf.chunks_exact(8).map(|b| {
                Point::new(
                    f64::from_le_bytes(b.try_into().expect("fixed-size slice")),
                    0.0,
                )
            }));
            self.read_column(m)?;
            crc.update(&self.col_buf);
            for (p, b) in buf.iter_mut().zip(self.col_buf.chunks_exact(8)) {
                p.y = f64::from_le_bytes(b.try_into().expect("fixed-size slice"));
            }
            self.read_column(m)?;
            crc.update(&self.col_buf);
            for (p, b) in buf.iter_mut().zip(self.col_buf.chunks_exact(8)) {
                p.value = f64::from_le_bytes(b.try_into().expect("fixed-size slice"));
            }
            if self.header.version >= 2 {
                let computed = crc.finish();
                if computed != stored_crc {
                    self.recorder.inc(Counter::StreamCrcFailures, 1);
                    match self.policy {
                        CorruptionPolicy::Strict => {
                            return Err(VasError::ChecksumMismatch {
                                path: self.path.display().to_string(),
                                region: format!("chunk {}", self.chunk_index),
                                stored: stored_crc,
                                computed,
                            }
                            .into());
                        }
                        CorruptionPolicy::SkipChunks => {
                            self.reports.push(CorruptChunkReport {
                                chunk_index: self.chunk_index,
                                byte_offset: chunk_offset,
                                points_lost: m as u64,
                                stored_crc,
                                computed_crc: computed,
                            });
                            self.skipped_points += m as u64;
                            self.recorder.inc(Counter::StreamCorruptChunksSkipped, 1);
                            self.recorder.inc(Counter::StreamPointsSkipped, m as u64);
                            self.recorder.event(
                                "corrupt_chunk_skipped",
                                &[
                                    ("chunk_index", self.chunk_index.into()),
                                    ("points_lost", (m as u64).into()),
                                ],
                            );
                            self.chunk_index += 1;
                            continue;
                        }
                    }
                }
            }
            self.read += m as u64;
            self.chunk_index += 1;
            return Ok(m);
        }
    }

    /// Rewinds to the first chunk (clearing the current scan's corruption
    /// reports).
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.data_offset))?;
        self.read = 0;
        self.chunk_index = 0;
        self.data_pos = 0;
        self.skipped_points = 0;
        self.reports.clear();
        Ok(())
    }

    /// Materializes the whole file as a [`Dataset`] (tests / small files
    /// only).
    pub fn read_dataset(&mut self) -> io::Result<Dataset> {
        self.reset()?;
        let mut points = Vec::new();
        let mut buf = Vec::new();
        while self.next_chunk(&mut buf)? > 0 {
            points.extend_from_slice(&buf);
        }
        Ok(Dataset::new(
            self.header.name.clone(),
            self.header.kind,
            points,
        ))
    }
}

impl PointSource for ChunkedReader {
    fn name(&self) -> &str {
        &self.header.name
    }

    fn kind(&self) -> DatasetKind {
        self.header.kind
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.header.count)
    }

    fn chunk_capacity(&self) -> usize {
        self.header.chunk_size
    }

    fn next_chunk(&mut self, buf: &mut Vec<Point>) -> io::Result<usize> {
        ChunkedReader::next_chunk(self, buf)
    }

    fn reset(&mut self) -> io::Result<()> {
        ChunkedReader::reset(self)
    }
}

/// Spills every remaining point of `source` into a chunked file at `path`,
/// using the source's own name, kind and chunk size. Resident memory: one
/// source chunk plus one staged writer chunk.
pub fn spill_source<S: PointSource>(
    source: &mut S,
    path: impl AsRef<Path>,
) -> io::Result<ChunkedSummary> {
    let mut writer =
        ChunkedWriter::create(&path, source.name(), source.kind(), source.chunk_capacity())?;
    let mut buf = Vec::new();
    while source.next_chunk(&mut buf)? > 0 {
        writer.write_points(&buf)?;
    }
    writer.finish()
}

/// Spills an in-memory dataset into a chunked file at `path`.
pub fn spill_dataset(
    dataset: &Dataset,
    path: impl AsRef<Path>,
    chunk_size: usize,
) -> io::Result<ChunkedSummary> {
    let mut writer = ChunkedWriter::create(&path, &dataset.name, dataset.kind, chunk_size)?;
    writer.write_points(&dataset.points)?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DatasetSource;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vas-chunked-{}-{name}", std::process::id()))
    }

    fn assert_bitwise_equal(a: &[Point], b: &[Point]) {
        assert_eq!(a.len(), b.len());
        for (i, (p, q)) in a.iter().zip(b).enumerate() {
            assert!(
                p.x.to_bits() == q.x.to_bits()
                    && p.y.to_bits() == q.y.to_bits()
                    && p.value.to_bits() == q.value.to_bits(),
                "point {i}: {p:?} vs {q:?}"
            );
        }
    }

    /// Writes `dataset` in the legacy v1 layout (no checksums) so the
    /// retained v1 read path stays covered.
    fn write_v1(dataset: &Dataset, path: &Path, chunk_size: usize) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[kind_tag(dataset.kind), 0, 0, 0]);
        bytes.extend_from_slice(&(chunk_size as u32).to_le_bytes());
        bytes.extend_from_slice(&(dataset.points.len() as u64).to_le_bytes());
        let bb = dataset.bounds();
        for v in [bb.min_x, bb.min_y, bb.max_x, bb.max_y] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&(dataset.name.len() as u16).to_le_bytes());
        bytes.extend_from_slice(dataset.name.as_bytes());
        for chunk in dataset.points.chunks(chunk_size) {
            bytes.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            for get in [(|p: &Point| p.x) as fn(&Point) -> f64, |p| p.y, |p| p.value] {
                for p in chunk {
                    bytes.extend_from_slice(&get(p).to_le_bytes());
                }
            }
        }
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn round_trip_preserves_points_and_provenance() {
        let d = vas_data::GeolifeGenerator::with_size(5_000, 7).generate();
        let path = temp_path("roundtrip.vaschunk");
        let summary = spill_dataset(&d, &path, 777).unwrap();
        assert_eq!(summary.count, 5_000);
        assert_eq!(summary.chunks, 7); // ceil(5000 / 777)
        assert_eq!(summary.bounds, d.bounds());

        let mut reader = ChunkedReader::open(&path).unwrap();
        assert_eq!(reader.header().version, 2);
        assert_eq!(reader.header().name, d.name);
        assert_eq!(reader.header().kind, DatasetKind::GeolifeSim);
        assert_eq!(reader.header().count, 5_000);
        assert_eq!(reader.header().chunk_size, 777);
        assert_eq!(reader.header().bounds, d.bounds());
        let back = reader.read_dataset().unwrap();
        assert_bitwise_equal(&back.points, &d.points);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn v1_files_still_read() {
        let d = vas_data::GeolifeGenerator::with_size(1_234, 3).generate();
        let path = temp_path("legacy-v1.vaschunk");
        write_v1(&d, &path, 200);
        let mut reader = ChunkedReader::open(&path).unwrap();
        assert_eq!(reader.header().version, 1);
        assert_eq!(reader.header().count, 1_234);
        let back = reader.read_dataset().unwrap();
        assert_bitwise_equal(&back.points, &d.points);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reader_is_a_resettable_point_source() {
        let d = vas_data::GeolifeGenerator::with_size(1_000, 11).generate();
        let path = temp_path("source.vaschunk");
        spill_dataset(&d, &path, 128).unwrap();
        let mut reader = ChunkedReader::open(&path).unwrap();
        assert_eq!(PointSource::len_hint(&reader), Some(1_000));
        assert_eq!(PointSource::chunk_capacity(&reader), 128);
        assert_eq!(PointSource::kind(&reader), DatasetKind::GeolifeSim);
        let first = reader.read_all().unwrap();
        PointSource::reset(&mut reader).unwrap();
        let second = reader.read_all().unwrap();
        assert_bitwise_equal(&first, &second);
        assert_bitwise_equal(&first, &d.points);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn spill_source_matches_spill_dataset() {
        let d = vas_data::GeolifeGenerator::with_size(2_000, 3).generate();
        let via_dataset = temp_path("direct.vaschunk");
        let via_source = temp_path("streamed.vaschunk");
        spill_dataset(&d, &via_dataset, 256).unwrap();
        let mut source = DatasetSource::with_chunk_size(&d, 256);
        spill_source(&mut source, &via_source).unwrap();
        let a = std::fs::read(&via_dataset).unwrap();
        let b = std::fs::read(&via_source).unwrap();
        assert_eq!(a, b, "streamed spill must be byte-identical");
        std::fs::remove_file(via_dataset).ok();
        std::fs::remove_file(via_source).ok();
    }

    #[test]
    fn empty_dataset_round_trips() {
        let d = Dataset::from_points("empty", vec![]);
        let path = temp_path("empty.vaschunk");
        let summary = spill_dataset(&d, &path, 16).unwrap();
        assert_eq!(summary.count, 0);
        assert_eq!(summary.chunks, 0);
        let mut reader = ChunkedReader::open(&path).unwrap();
        assert!(reader.header().bounds.is_empty());
        assert!(reader.read_dataset().unwrap().is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_file_is_an_error_with_counts_in_the_message() {
        let d = vas_data::GeolifeGenerator::with_size(500, 5).generate();
        let path = temp_path("truncated.vaschunk");
        spill_dataset(&d, &path, 100).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut the file mid-chunk.
        std::fs::write(&path, &bytes[..bytes.len() - 37]).unwrap();
        let mut reader = ChunkedReader::open(&path).unwrap();
        let err = reader.read_dataset().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let msg = err.to_string();
        assert!(msg.contains("chunk 4") && msg.contains("500"), "{msg}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_whole_tail_chunk_reports_promised_vs_found() {
        let d = vas_data::GeolifeGenerator::with_size(400, 5).generate();
        let path = temp_path("losttail.vaschunk");
        spill_dataset(&d, &path, 100).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Drop the final chunk entirely: 4 (m) + 4 (crc) + 100 × 24 bytes.
        std::fs::write(&path, &bytes[..bytes.len() - (8 + 2_400)]).unwrap();
        let mut reader = ChunkedReader::open(&path).unwrap();
        let err = reader.read_dataset().unwrap_err();
        let typed = VasError::from_io_chain(&err).expect("typed");
        assert!(
            matches!(
                typed,
                VasError::Truncated {
                    promised: 400,
                    found: 300,
                    unit: "points",
                    ..
                }
            ),
            "{typed}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let d = vas_data::GeolifeGenerator::with_size(50, 5).generate();
        let path = temp_path("trailing.vaschunk");
        spill_dataset(&d, &path, 50).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[1, 2, 3, 4, 5]);
        std::fs::write(&path, &bytes).unwrap();
        let mut reader = ChunkedReader::open(&path).unwrap();
        assert!(reader.read_dataset().is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unfinished_spill_is_rejected_at_open() {
        // A writer dropped without `finish` leaves a zero header checksum
        // (and count = 0): the reader must refuse the file outright.
        let path = temp_path("unfinished.vaschunk");
        {
            let mut w = ChunkedWriter::create(&path, "crashy", DatasetKind::External, 4).unwrap();
            for i in 0..9 {
                w.push(Point::new(i as f64, 0.0)).unwrap();
            }
            // w dropped here without finish(); two full chunks are on disk.
        }
        let err = ChunkedReader::open(&path).unwrap_err();
        let typed = VasError::from_io_chain(&err).expect("typed");
        assert!(
            matches!(typed, VasError::ChecksumMismatch { .. }),
            "{typed}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_magic_and_bad_version_are_rejected() {
        let path = temp_path("badmagic.vaschunk");
        std::fs::write(
            &path,
            b"NOTCHNK\0aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
        )
        .unwrap();
        assert!(ChunkedReader::open(&path).is_err());

        let d = Dataset::from_points("v", vec![Point::new(1.0, 2.0)]);
        spill_dataset(&d, &path, 4).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99; // version
        std::fs::write(&path, &bytes).unwrap();
        let err = ChunkedReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn chunk_bit_flip_is_a_hard_error_by_default() {
        let d = vas_data::GeolifeGenerator::with_size(300, 5).generate();
        let path = temp_path("bitflip.vaschunk");
        spill_dataset(&d, &path, 100).unwrap();
        let header_len = (HEADER_FIXED_LEN + d.name.len() + 4) as u64;
        // Flip one bit in the middle of the second chunk's payload.
        let second_chunk = header_len + 8 + 2_400;
        crate::fault::flip_bit_in_file(&path, (second_chunk + 8 + 1_000) * 8 + 3).unwrap();
        let mut reader = ChunkedReader::open(&path).unwrap();
        let mut buf = Vec::new();
        assert_eq!(reader.next_chunk(&mut buf).unwrap(), 100, "chunk 0 intact");
        let err = reader.next_chunk(&mut buf).unwrap_err();
        let typed = VasError::from_io_chain(&err).expect("typed");
        assert!(
            matches!(typed, VasError::ChecksumMismatch { .. }),
            "{typed}"
        );
        assert!(err.to_string().contains("chunk 1"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn skip_policy_skips_and_reports_without_silent_loss() {
        let d = vas_data::GeolifeGenerator::with_size(300, 5).generate();
        let path = temp_path("skip.vaschunk");
        spill_dataset(&d, &path, 100).unwrap();
        let header_len = (HEADER_FIXED_LEN + d.name.len() + 4) as u64;
        let second_chunk = header_len + 8 + 2_400;
        crate::fault::flip_bit_in_file(&path, (second_chunk + 8 + 1_000) * 8 + 3).unwrap();

        let mut reader = ChunkedReader::open(&path)
            .unwrap()
            .with_corruption_policy(CorruptionPolicy::SkipChunks);
        let back = reader.read_dataset().unwrap();
        assert_eq!(back.points.len(), 200, "one 100-point chunk dropped");
        assert_bitwise_equal(&back.points[..100], &d.points[..100]);
        assert_bitwise_equal(&back.points[100..], &d.points[200..]);
        assert_eq!(reader.points_skipped(), 100);
        let reports = reader.corruption_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].chunk_index, 1);
        assert_eq!(reports[0].points_lost, 100);
        assert_eq!(reports[0].byte_offset, second_chunk);
        assert_ne!(reports[0].stored_crc, reports[0].computed_crc);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn recorder_counts_decodes_and_records_corruption_skips() {
        use std::sync::Arc;
        let d = vas_data::GeolifeGenerator::with_size(300, 5).generate();
        let path = temp_path("recorder.vaschunk");
        spill_dataset(&d, &path, 100).unwrap();
        let header_len = (HEADER_FIXED_LEN + d.name.len() + 4) as u64;
        let second_chunk = header_len + 8 + 2_400;
        crate::fault::flip_bit_in_file(&path, (second_chunk + 8 + 1_000) * 8 + 3).unwrap();

        let tracer = Arc::new(vas_obs::Tracer::new());
        let recorder = Recorder::new(Arc::new(vas_obs::MetricsRegistry::new()))
            .with_tracer(Arc::clone(&tracer))
            .with_timing(true);
        let mut reader = ChunkedReader::open(&path)
            .unwrap()
            .with_corruption_policy(CorruptionPolicy::SkipChunks)
            .with_recorder(recorder.clone());
        reader.read_dataset().unwrap();

        let reg = recorder.registry();
        assert_eq!(reg.get(Counter::StreamChunksDecoded), 2);
        assert_eq!(reg.get(Counter::StreamCrcFailures), 1);
        assert_eq!(reg.get(Counter::StreamCorruptChunksSkipped), 1);
        assert_eq!(reg.get(Counter::StreamPointsSkipped), 100);
        assert!(tracer
            .events()
            .iter()
            .any(|e| e.name == "corrupt_chunk_skipped"));
        // Timing was enabled, so every next_chunk call fed the decode phase,
        // and each one also opened exactly one span.
        let calls = reg.snapshot().phase_calls(Phase::ChunkDecode);
        assert!(calls >= 3);
        let spans = tracer.spans();
        let decode_spans = spans.iter().filter(|s| s.name == "chunk_decode").count();
        assert_eq!(decode_spans as u64, calls);

        // A second scan keeps accumulating lifetime totals while the
        // per-scan view resets.
        reader.reset().unwrap();
        reader.read_dataset().unwrap();
        assert_eq!(reader.points_skipped(), 100, "per-scan view");
        assert_eq!(reg.get(Counter::StreamPointsSkipped), 200, "lifetime");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn special_f64_values_round_trip_bit_exactly() {
        let weird = vec![
            Point::with_value(-0.0, 0.0, f64::MIN_POSITIVE),
            Point::with_value(5e-324, -5e-324, -0.0), // subnormals
            Point::with_value(f64::MAX, f64::MIN, 1e-308),
            Point::with_value(f64::INFINITY, f64::NEG_INFINITY, f64::NAN),
        ];
        let d = Dataset::from_points("weird", weird.clone());
        let path = temp_path("weird.vaschunk");
        spill_dataset(&d, &path, 3).unwrap();
        let back = ChunkedReader::open(&path).unwrap().read_dataset().unwrap();
        assert_bitwise_equal(&back.points, &weird);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn every_single_bit_flip_in_a_v2_file_is_detected() {
        // Exhaustive over a small file: flipping ANY single bit must make
        // open or read fail (magic, version, header CRC, chunk CRC — some
        // detector fires for every position).
        let d = vas_data::GeolifeGenerator::with_size(24, 13).generate();
        let path = temp_path("everybit.vaschunk");
        spill_dataset(&d, &path, 10).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        for bit in 0..(pristine.len() as u64 * 8) {
            std::fs::write(&path, &pristine).unwrap();
            crate::fault::flip_bit_in_file(&path, bit).unwrap();
            let outcome = ChunkedReader::open(&path).and_then(|mut r| r.read_dataset());
            assert!(outcome.is_err(), "bit flip at {bit} went undetected");
        }
        std::fs::remove_file(path).ok();
    }
}
