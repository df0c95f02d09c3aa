//! The typed failure taxonomy of the VAS stack.
//!
//! Everything that can go wrong on the data path — I/O, decode, integrity,
//! resume preconditions, retry exhaustion, panicked parallel workers — is
//! classified into one [`VasError`] variant with enough context (path,
//! chunk index, promised vs found counts) to act on without re-running
//! under a debugger. The design rules:
//!
//! * **Source-chained.** Variants wrapping an underlying [`io::Error`] keep
//!   it reachable through [`std::error::Error::source`], so callers can walk
//!   the chain down to the OS errno.
//! * **Transient vs fatal is a property of the error, not the caller.**
//!   [`VasError::is_transient`] (and [`io_error_is_transient`] for raw
//!   `io::Error`s) encode the one retry policy the whole workspace shares:
//!   `Interrupted` / `WouldBlock` / `TimedOut` are worth retrying, anything
//!   else is not. `RetryingSource` consumes exactly this classification.
//! * **Interoperable with `io::Result`.** The [`PointSource`](crate::PointSource)
//!   trait keeps its `io::Result` surface (every adapter and wrapper stays
//!   source-compatible); a `VasError` crossing that boundary is wrapped via
//!   `From<VasError> for io::Error` with the typed value preserved as the
//!   boxed source, so downstream code can downcast it back out
//!   ([`VasError::from_io_chain`]).

use std::error::Error;
use std::fmt;
use std::io;

/// Typed failure cases across the stream/core/storage stack.
#[derive(Debug)]
pub enum VasError {
    /// An underlying I/O operation failed; `context` says which one.
    Io {
        /// What the stack was doing when the I/O failed.
        context: String,
        /// The failing OS-level error.
        source: io::Error,
    },
    /// A file's bytes do not decode as the format they claim to be.
    Corrupt {
        /// File (or stream) the corruption was found in.
        path: String,
        /// What exactly failed to decode.
        detail: String,
    },
    /// A format version this build does not read.
    UnsupportedVersion {
        /// File with the unsupported version.
        path: String,
        /// Version found in the header.
        found: u32,
        /// Versions this build accepts.
        supported: &'static [u32],
    },
    /// A checksum over on-disk bytes disagreed with the stored value.
    ChecksumMismatch {
        /// File the mismatch was found in.
        path: String,
        /// What the checksum covered (e.g. `"chunk 12"`, `"header"`).
        region: String,
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum computed over the bytes actually read.
        computed: u32,
    },
    /// A file or stream ended with less than its header promised.
    Truncated {
        /// File (or stream) that came up short.
        path: String,
        /// How much the header promised, counted in `unit`.
        promised: u64,
        /// How much was actually there, in the same unit.
        found: u64,
        /// What `promised` and `found` count: `"points"` for data files,
        /// `"bytes"` for checkpoint containers.
        unit: &'static str,
    },
    /// A resume/restore precondition did not hold (wrong source, wrong
    /// configuration, wrong chunk size).
    Mismatch {
        /// What the checkpoint or caller expected.
        expected: String,
        /// What was actually found.
        found: String,
    },
    /// A transient error kept failing past the retry budget.
    RetriesExhausted {
        /// What was being retried.
        context: String,
        /// Attempts made (initial try included).
        attempts: u32,
        /// The last transient error observed.
        source: io::Error,
    },
    /// Checkpoint encode/decode failed for a non-I/O reason.
    Checkpoint {
        /// What went wrong.
        detail: String,
    },
    /// Parallel workers panicked; their partial results were discarded.
    WorkerPanic {
        /// What the workers were doing.
        context: String,
        /// How many workers panicked.
        panicked_workers: usize,
    },
}

impl fmt::Display for VasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VasError::Io { context, source } => write!(f, "{context}: {source}"),
            VasError::Corrupt { path, detail } => write!(f, "{path}: corrupt data: {detail}"),
            VasError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "{path}: unsupported format version {found} (this build reads {supported:?})"
            ),
            VasError::ChecksumMismatch {
                path,
                region,
                stored,
                computed,
            } => write!(
                f,
                "{path}: checksum mismatch over {region}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            VasError::Truncated {
                path,
                promised,
                found,
                unit,
            } => write!(
                f,
                "{path}: truncated: header promises {promised} {unit}, found {found}"
            ),
            VasError::Mismatch { expected, found } => {
                write!(f, "mismatch: expected {expected}, found {found}")
            }
            VasError::RetriesExhausted {
                context,
                attempts,
                source,
            } => write!(
                f,
                "{context}: still failing after {attempts} attempts: {source}"
            ),
            VasError::Checkpoint { detail } => write!(f, "checkpoint: {detail}"),
            VasError::WorkerPanic {
                context,
                panicked_workers,
            } => write!(f, "{context}: {panicked_workers} worker(s) panicked"),
        }
    }
}

impl Error for VasError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VasError::Io { source, .. } | VasError::RetriesExhausted { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl VasError {
    /// Wraps an `io::Error` with a description of the failing operation.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        VasError::Io {
            context: context.into(),
            source,
        }
    }

    /// True when retrying the failed operation may plausibly succeed.
    ///
    /// Only wrapped I/O errors can be transient; every decode/integrity
    /// failure is final (the bytes will not improve on a second read).
    pub fn is_transient(&self) -> bool {
        match self {
            VasError::Io { source, .. } => io_error_is_transient(source),
            _ => false,
        }
    }

    /// The `io::ErrorKind` this error maps to when crossing an `io::Result`
    /// boundary.
    pub fn io_kind(&self) -> io::ErrorKind {
        match self {
            VasError::Io { source, .. } => source.kind(),
            VasError::RetriesExhausted { source, .. } => source.kind(),
            VasError::Truncated { .. } => io::ErrorKind::UnexpectedEof,
            VasError::WorkerPanic { .. } => io::ErrorKind::Other,
            _ => io::ErrorKind::InvalidData,
        }
    }

    /// Recovers a typed `VasError` from an `io::Error` whose custom payload
    /// (or deeper source chain) contains one — the inverse of
    /// `From<VasError> for io::Error`. Note `io::Error`'s own
    /// `Error::source` skips the payload, so the payload is probed directly.
    pub fn from_io_chain(err: &io::Error) -> Option<&VasError> {
        let mut source: Option<&(dyn Error + 'static)> =
            err.get_ref().map(|e| e as &(dyn Error + 'static));
        while let Some(e) = source {
            if let Some(v) = e.downcast_ref::<VasError>() {
                return Some(v);
            }
            source = e.source();
        }
        None
    }
}

impl From<io::Error> for VasError {
    fn from(source: io::Error) -> Self {
        // If the io::Error is just a VasError that crossed an io::Result
        // boundary, unwrap it back to the typed value instead of nesting.
        if err_chain_has_vas(&source) {
            if let Some(inner) = source
                .into_inner()
                .and_then(|b| b.downcast::<VasError>().ok())
            {
                return *inner;
            }
            unreachable!("chain probed before into_inner");
        }
        VasError::io("I/O error", source)
    }
}

fn err_chain_has_vas(err: &io::Error) -> bool {
    // Only a *direct* payload can be recovered by value via `into_inner`.
    err.get_ref()
        .map(|e| e.downcast_ref::<VasError>().is_some())
        .unwrap_or(false)
}

impl From<VasError> for io::Error {
    fn from(err: VasError) -> Self {
        io::Error::new(err.io_kind(), err)
    }
}

/// The shared transient-error classification: `Interrupted`, `WouldBlock`
/// and `TimedOut` are retryable, everything else is fatal.
pub fn io_error_is_transient(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = VasError::Truncated {
            path: "a.vaschunk".into(),
            promised: 100,
            found: 42,
            unit: "points",
        };
        let s = e.to_string();
        assert!(
            s.contains("a.vaschunk") && s.contains("promises 100 points") && s.contains("found 42"),
            "{s}"
        );
        let e = VasError::Truncated {
            path: "c.vascheckpt".into(),
            promised: 4_096,
            found: 24,
            unit: "bytes",
        };
        let s = e.to_string();
        assert!(s.contains("promises 4096 bytes"), "{s}");

        let e = VasError::ChecksumMismatch {
            path: "b.vaschunk".into(),
            region: "chunk 3".into(),
            stored: 0xDEADBEEF,
            computed: 0x12345678,
        };
        let s = e.to_string();
        assert!(s.contains("chunk 3") && s.contains("0xdeadbeef"), "{s}");
    }

    #[test]
    fn source_chain_reaches_the_io_error() {
        let io = io::Error::new(io::ErrorKind::PermissionDenied, "no");
        let e = VasError::io("writing manifest", io);
        let src = e.source().expect("has a source");
        assert!(src.to_string().contains("no"));
    }

    #[test]
    fn transient_classification() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ] {
            assert!(VasError::io("x", io::Error::new(kind, "t")).is_transient());
        }
        assert!(!VasError::io("x", io::Error::other("f")).is_transient());
        assert!(!VasError::Corrupt {
            path: "p".into(),
            detail: "d".into()
        }
        .is_transient());
    }

    #[test]
    fn io_round_trip_preserves_the_typed_error() {
        let original = VasError::ChecksumMismatch {
            path: "c.vaschunk".into(),
            region: "chunk 7".into(),
            stored: 1,
            computed: 2,
        };
        let as_io: io::Error = original.into();
        assert_eq!(as_io.kind(), io::ErrorKind::InvalidData);
        // Visible through the chain by reference...
        let seen = VasError::from_io_chain(&as_io).expect("typed error in chain");
        assert!(matches!(seen, VasError::ChecksumMismatch { stored: 1, .. }));
        // ...and recoverable by value through From.
        let back: VasError = as_io.into();
        assert!(matches!(
            back,
            VasError::ChecksumMismatch { computed: 2, .. }
        ));
    }
}
