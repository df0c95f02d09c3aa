//! Crash-safe checkpointing of the streaming Interchange build.
//!
//! A `.vascheckpt` file captures **everything the sampler's future output
//! depends on** at a chunk boundary of
//! [`VasSampler::build_from_source_checkpointed`](crate::VasSampler::build_from_source_checkpointed):
//! the sample slots, responsibilities, hill-climb counters, the stream
//! position (pass + chunks consumed), and a byte-exact snapshot of the
//! locality index (see `vas_spatial::snapshot` — visitation order is
//! history-dependent state, so the index cannot simply be rebuilt).
//! Resuming from the file and streaming the rest of the source produces a
//! sample **bit-identical** to the uninterrupted run, per strategy (pinned
//! in `tests/determinism.rs`).
//!
//! The file is written atomically (temp + fsync + rename via
//! [`vas_stream::write_atomic`]), so a crash mid-checkpoint leaves the
//! previous checkpoint intact, never a torn file. The container is
//! self-validating: magic, version, payload length and a CRC-32 over the
//! payload; any single-bit corruption is rejected with a typed
//! [`VasError`] before any state is restored.
//!
//! A payload that passes the CRC — a file re-sealed after an edit, say — is
//! checked against itself before a resume: the sample must fit the budget,
//! the index must hold every slot bit for bit, the counters must be able to
//! keep counting, and the responsibilities and objective must follow from
//! the points. The last check recomputes them under the restored kernel,
//! cutoff-truncated for ES+Loc, and refuses the file when they differ by
//! more than incremental maintenance drifts: `1e-6` per responsibility
//! (plus the locality threshold under ES+Loc) and `1e-9` of the objective
//! (plus twice the threshold per replacement). An edited responsibility or
//! ε, or a moved point under the strategies without an index, is caught
//! there. An edit small enough to stay within that drift, such as a flip in
//! the low mantissa bits of ε or of one responsibility, is not, and it can
//! still steer the resumed build to another sample. Closing that gap takes
//! responsibilities that can be recomputed exactly rather than within a
//! tolerance.
//!
//! ## File layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic "VASCKPT\0"
//! 8       4     version (u32 LE) = 4
//! 12      8     payload length (u64 LE)
//! 20      n     payload (sampler state; see interchange.rs)
//! 20+n    4     CRC-32 (IEEE) over the payload bytes
//! ```

use std::path::PathBuf;
use vas_sampling::Sample;
use vas_stream::crc32::crc32;
use vas_stream::VasError;

/// Magic bytes opening every `.vascheckpt` file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"VASCKPT\0";
/// Container version this build writes and reads.
pub const CHECKPOINT_VERSION: u32 = 4;
/// Container bytes before the payload (magic + version + payload length).
const HEADER_LEN: usize = 8 + 4 + 8;

/// When and where
/// [`VasSampler::build_from_source_checkpointed`](crate::VasSampler::build_from_source_checkpointed)
/// persists its state,
/// plus an optional deterministic kill switch for crash-recovery tests.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path; replaced atomically on every checkpoint.
    pub path: PathBuf,
    /// Persist after every N source chunks (0 disables periodic
    /// checkpoints).
    pub every_chunks: u64,
    /// Fault injection: stop the build after this many chunks have been
    /// observed **by this run** — simulating a crash at a chunk boundary —
    /// and return [`BuildOutcome::Halted`] instead of finishing. `None`
    /// (the default) runs to completion.
    pub halt_after_chunks: Option<u64>,
}

impl CheckpointPolicy {
    /// Checkpoints to `path` after every `every_chunks` chunks.
    pub fn every(path: impl Into<PathBuf>, every_chunks: u64) -> Self {
        Self {
            path: path.into(),
            every_chunks,
            halt_after_chunks: None,
        }
    }

    /// Arms the deterministic kill switch (see
    /// [`halt_after_chunks`](Self::halt_after_chunks)).
    pub fn halting_after(mut self, chunks: u64) -> Self {
        self.halt_after_chunks = Some(chunks);
        self
    }
}

/// How a checkpointed build ended.
#[derive(Debug)]
pub enum BuildOutcome {
    /// The source was exhausted and the sampler finalized.
    Complete(Sample),
    /// The [`CheckpointPolicy::halt_after_chunks`] kill switch fired; the
    /// build can be resumed from the last checkpoint.
    Halted {
        /// Zero-based pass index the build stopped in.
        pass: u64,
        /// Chunks consumed from the start of that pass.
        chunks_consumed: u64,
    },
}

impl BuildOutcome {
    /// The final sample, if the build ran to completion.
    pub fn into_sample(self) -> Option<Sample> {
        match self {
            BuildOutcome::Complete(sample) => Some(sample),
            BuildOutcome::Halted { .. } => None,
        }
    }

    /// `true` when the kill switch fired.
    pub fn is_halted(&self) -> bool {
        matches!(self, BuildOutcome::Halted { .. })
    }
}

/// Wraps a checkpoint payload in the self-validating container.
pub(crate) fn encode_container(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Validates the container (magic, version, length, CRC) and returns the
/// payload slice.
pub(crate) fn decode_container<'a>(path: &str, bytes: &'a [u8]) -> Result<&'a [u8], VasError> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(VasError::Truncated {
            path: path.to_string(),
            promised: (HEADER_LEN + 4) as u64,
            found: bytes.len() as u64,
            unit: "bytes",
        });
    }
    if bytes[..8] != CHECKPOINT_MAGIC {
        return Err(VasError::Corrupt {
            path: path.to_string(),
            detail: "bad checkpoint magic".into(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(VasError::UnsupportedVersion {
            path: path.to_string(),
            found: version,
            supported: &[CHECKPOINT_VERSION],
        });
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    // An inflated length promises more bytes than any file holds; it must
    // not wrap around to a total that looks short.
    let promised = payload_len.saturating_add((HEADER_LEN + 4) as u64);
    let found = bytes.len() as u64;
    if found < promised {
        return Err(VasError::Truncated {
            path: path.to_string(),
            promised,
            found,
            unit: "bytes",
        });
    }
    if found > promised {
        return Err(VasError::Corrupt {
            path: path.to_string(),
            detail: format!("{} trailing bytes after checkpoint", found - promised),
        });
    }
    // The file is exactly `promised` bytes long, so the length fits.
    let payload = &bytes[HEADER_LEN..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(VasError::ChecksumMismatch {
            path: path.to_string(),
            region: "checkpoint payload".into(),
            stored,
            computed,
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_round_trips() {
        let payload = b"sampler state goes here".to_vec();
        let file = encode_container(&payload);
        let back = decode_container("t.vascheckpt", &file).unwrap();
        assert_eq!(back, &payload[..]);
    }

    #[test]
    fn every_single_bit_flip_in_the_container_is_rejected() {
        let payload: Vec<u8> = (0u8..=255).collect();
        let file = encode_container(&payload);
        assert!(decode_container("t", &file).is_ok());
        for bit in 0..file.len() * 8 {
            let mut bad = file.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_container("t", &bad).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_typed_errors() {
        let file = encode_container(b"abc");
        for keep in 0..file.len() {
            let err = decode_container("t", &file[..keep]).unwrap_err();
            assert!(
                matches!(err, VasError::Truncated { .. } | VasError::Corrupt { .. }),
                "keep {keep}: {err}"
            );
        }
        let mut long = file.clone();
        long.push(0);
        assert!(matches!(
            decode_container("t", &long).unwrap_err(),
            VasError::Corrupt { .. }
        ));
        // Length fields so large that header + payload + CRC overflows.
        for len in [
            u64::MAX,
            u64::MAX - 3,
            u64::MAX - 23,
            u64::MAX - 24,
            1 << 63,
        ] {
            let mut inflated = file.clone();
            inflated[12..20].copy_from_slice(&len.to_le_bytes());
            let err = decode_container("t", &inflated).unwrap_err();
            assert!(
                matches!(err, VasError::Truncated { unit: "bytes", .. }),
                "length {len}: {err}"
            );
            assert!(err.to_string().contains(" bytes, found "), "{err}");
        }
    }

    #[test]
    fn wrong_version_is_a_typed_error() {
        let mut file = encode_container(b"abc");
        file[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            decode_container("t", &file).unwrap_err(),
            VasError::UnsupportedVersion { found: 9, .. }
        ));
    }
}
