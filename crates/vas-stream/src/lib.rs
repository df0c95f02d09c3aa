//! # vas-stream
//!
//! Out-of-core ingestion for the VAS reproduction: everything needed to run
//! the sampler over datasets far larger than memory.
//!
//! The paper's headline experiments stream 24.4M Geolife points through
//! Interchange; a fully materialized `Vec<Point>` does not get there. This
//! crate supplies the storage substrate that does, built around two pieces:
//!
//! * **[`PointSource`]** — the streaming-dataset abstraction: bounded-memory
//!   chunk iteration plus `len_hint` and `reset` (Interchange is single-pass
//!   per refinement pass, so rescanning is the only random access it needs).
//!   Adapters exist for every way points enter the system:
//!   [`DatasetSource`] (in-memory [`Dataset`](vas_data::Dataset)),
//!   [`CsvSource`] (streaming CSV), [`ChunkedReader`] (the spill format
//!   below), and the streaming generator sources ([`GeolifeSource`],
//!   [`GaussianMixtureSource`], [`SplomSource`]) that emit chunks straight
//!   out of the `vas-data` generator iterators — same seed, bit-identical
//!   points, never materializing the dataset.
//! * **The chunked columnar spill format** — [`ChunkedWriter`] /
//!   [`ChunkedReader`]: a binary file with a provenance header (name, kind,
//!   bounds, count, chunk size) followed by fixed-size chunks of `x`/`y`/
//!   `value` column arrays as little-endian `f64`. Round-trips are bit-exact
//!   (including `-0.0`, subnormals and every NaN payload), truncation and
//!   trailing garbage are detected, and reading holds one chunk plus one
//!   column of scratch bytes at a time.
//!
//! On top sit [`StreamStats`] (the one-pass bounds pre-pass that resolves
//! the kernel bandwidth without materializing anything) and
//! [`TrackingSource`] (a transparent wrapper recording peak chunk size and
//! streamed-point counts, used by `tests/end_to_end.rs` to *measure* the
//! resident-memory bound rather than assume it).
//!
//! ## Failure model
//!
//! This crate is also where the workspace's fault tolerance is grounded:
//!
//! * [`VasError`] — the typed, source-chained failure taxonomy every layer
//!   reports through (I/O vs corruption vs truncation vs retry exhaustion),
//!   with a shared transient-vs-fatal classification;
//! * the `.vaschunk` v2 format carries CRC-32 checksums over the header and
//!   every chunk ([`crc32`]), so torn writes and bit rot are detected, and a
//!   bad checksum is always a [`VasError::ChecksumMismatch`];
//! * [`RetryingSource`] absorbs transient I/O errors with a bounded,
//!   deterministic retry budget ([`RetryPolicy`]); fatal errors pass through
//!   untouched;
//! * [`FaultInjectorSource`] and the file-corruption helper
//!   [`flip_bit_in_file`] inject *deterministic, seeded* faults so every recovery
//!   claim is tested (`tests/faults.rs`) rather than asserted;
//! * [`write_atomic`] replaces durable files via temp + fsync + rename so a
//!   crash never leaves a torn artifact.
//!
//! `VasSampler::build_from_source` in `vas-core` drives the Interchange loop
//! from any `PointSource` and is pinned bit-identical to `build()` over the
//! equivalent in-memory dataset.
//!
//! ## Data flow
//!
//! ```text
//! generator iterator ─┐
//! CSV file ───────────┼──▶ PointSource ──▶ spill_source ──▶ .vaschunk file
//! in-memory Dataset ──┘         │                                │
//!                               │                          ChunkedReader
//!                               ▼                                ▼
//!                     scan_stats (ε pre-pass) ──▶ VasSampler::build_from_source
//! ```
//!
//! ## Quick start
//!
//! ```
//! use vas_data::GeolifeGenerator;
//! use vas_stream::{spill_source, ChunkedReader, GeolifeSource, PointSource};
//!
//! let dir = std::env::temp_dir().join(format!("vas-stream-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("geolife.vaschunk");
//!
//! // Stream 10K synthetic GPS points straight to disk, 1 chunk resident.
//! let mut source = GeolifeSource::new(GeolifeGenerator::with_size(10_000, 42), 2_048);
//! let summary = spill_source(&mut source, &path).unwrap();
//! assert_eq!(summary.count, 10_000);
//!
//! // Re-read it chunk by chunk.
//! let mut reader = ChunkedReader::open(&path).unwrap();
//! let mut buf = Vec::new();
//! let mut total = 0;
//! while reader.next_chunk(&mut buf).unwrap() > 0 {
//!     total += buf.len();
//! }
//! assert_eq!(total, 10_000);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod chunked;
pub mod crc32;
pub mod csv;
pub mod error;
pub mod fault;
pub mod generate;
pub mod retry;
pub mod source;
pub mod stats;

pub use atomic::{commit_staged, staging_sibling, write_atomic};
pub use chunked::{
    spill_dataset, spill_source, ChunkedHeader, ChunkedReader, ChunkedSummary, ChunkedWriter,
};
pub use csv::CsvSource;
pub use error::{io_error_is_transient, VasError};
pub use fault::{flip_bit_in_file, FaultInjectorSource, FaultPlan};
pub use generate::{GaussianMixtureSource, GeolifeSource, SplomSource};
pub use retry::{RetryPolicy, RetryingSource};
pub use source::{DatasetSource, PointSource, TrackingSource, DEFAULT_CHUNK_SIZE};
pub use stats::{scan_stats, StreamStats};
