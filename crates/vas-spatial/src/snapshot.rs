//! Byte-exact snapshots of the locality index, for checkpoint/resume.
//!
//! The sampler's determinism contract pins the [`HashGrid`](crate::HashGrid)'s
//! visitation order, which is deterministic but history-dependent: within a
//! cell, entries sit in insertion order as `swap_remove` left it. A
//! checkpoint therefore cannot simply store the live entries in any order
//! and rebuild the grid; the rebuilt grid would visit neighbours in a
//! different (equally valid) order and the resumed run would diverge bit by
//! bit from an uninterrupted one. The grid instead serializes its cell size
//! bits plus every entry in cell-grouped scan order; replaying the inserts
//! reproduces each cell's columns exactly, and the geometric query path
//! orders cells row-major independent of table layout.
//!
//! All multi-byte values are little-endian; `f64`s travel as raw bits, so
//! `-0.0`, subnormals and NaN payloads survive unchanged. The encoding has
//! no checksum of its own — it is designed to be embedded in a container
//! (the `.vascheckpt` file) that checksums the whole payload.

use std::fmt;

/// A snapshot decode failure: truncated bytes, trailing bytes, or a value
/// the encoder never writes (such as a non-finite cell size).
#[derive(Debug)]
pub struct SnapshotError {
    /// What failed to decode.
    pub detail: String,
}

impl SnapshotError {
    pub(crate) fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "locality snapshot: {}", self.detail)
    }
}

impl std::error::Error for SnapshotError {}

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a little-endian `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends an `f64` as its raw little-endian bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A cursor over snapshot bytes with typed, bounds-checked reads.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Wraps `bytes` with the cursor at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::new(format!(
                "truncated: needed {n} bytes for {what} at offset {}, had {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn take_u8(&mut self, what: &str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that do
    /// not fit.
    pub fn take_usize(&mut self, what: &str) -> Result<usize, SnapshotError> {
        let v = self.take_u64(what)?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::new(format!("{what} {v} does not fit in usize")))
    }

    /// Reads an `f64` from its raw little-endian bits.
    pub fn take_f64(&mut self, what: &str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// Fails unless every byte has been consumed — catches trailing garbage
    /// when a snapshot is expected to span the whole buffer.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::new(format!(
                "{} trailing bytes after snapshot",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u64(&mut buf, u64::MAX - 7);
        put_usize(&mut buf, 123_456);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, 5e-324);
        put_f64(&mut buf, f64::NAN);

        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.take_u8("a").unwrap(), 0xAB);
        assert_eq!(r.take_u64("c").unwrap(), u64::MAX - 7);
        assert_eq!(r.take_usize("d").unwrap(), 123_456);
        assert_eq!(r.take_f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_f64("f").unwrap().to_bits(), 5e-324f64.to_bits());
        assert_eq!(r.take_f64("g").unwrap().to_bits(), f64::NAN.to_bits());
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&[7, 0, 0, 0]);
        let mut r = SnapshotReader::new(&buf);
        let err = r.take_u64("needs eight").unwrap_err();
        assert!(err.to_string().contains("needs eight"), "{err}");

        let mut r = SnapshotReader::new(&buf);
        r.take_u8("one").unwrap();
        let err = r.expect_end().unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
