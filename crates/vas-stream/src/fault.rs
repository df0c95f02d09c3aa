//! Deterministic fault injection for the crash-safety test matrix.
//!
//! Real fault tolerance claims need injected faults to back them, and the
//! bit-identity contract needs those faults to be *reproducible*: every
//! injector here is driven by a seed and a counter, never by wall-clock or
//! OS entropy, so a failing matrix cell replays exactly.
//!
//! Two layers of injection:
//!
//! * [`FaultInjectorSource`] — wraps any [`PointSource`] and makes
//!   `next_chunk` fail with a **transient** error (`ErrorKind::Interrupted`)
//!   on a seeded pseudo-random schedule, each scheduled failure repeating a
//!   configured number of times before the call succeeds — the workload
//!   `RetryingSource` must absorb. A separate `fatal_after_chunks` knob
//!   injects a **permanent** error to prove fatal errors are *not* retried.
//! * [`flip_bit_in_file`] — an on-disk corruption helper simulating bit
//!   rot, the input to the CRC-detection matrix cells.

use crate::source::PointSource;
use std::io;
use std::path::Path;
use vas_data::{DatasetKind, Point};

/// SplitMix64: the workspace's standard small deterministic mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Schedule for [`FaultInjectorSource`]: which `next_chunk` calls fail, how
/// hard, and when (if ever) the source dies for good.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the pseudo-random transient schedule.
    pub seed: u64,
    /// Roughly one in `transient_every` chunk reads fails transiently
    /// (`0` disables transient injection).
    pub transient_every: u64,
    /// How many consecutive times each scheduled transient failure repeats
    /// before the read succeeds.
    pub transient_repeats: u32,
    /// After this many successful chunk reads, every further read fails
    /// permanently with [`io::ErrorKind::Other`] (`None` disables).
    pub fatal_after_chunks: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects only transient faults.
    pub fn transient(seed: u64, every: u64, repeats: u32) -> Self {
        Self {
            seed,
            transient_every: every,
            transient_repeats: repeats,
            fatal_after_chunks: None,
        }
    }

    /// A plan that only kills the source after `chunks` successful reads.
    pub fn fatal_after(chunks: u64) -> Self {
        Self {
            seed: 0,
            transient_every: 0,
            transient_repeats: 0,
            fatal_after_chunks: Some(chunks),
        }
    }

    fn transient_failures_at(&self, chunk_index: u64) -> u32 {
        if self.transient_every == 0 {
            return 0;
        }
        if splitmix64(self.seed ^ chunk_index.wrapping_mul(0xA24B_AED4_963E_E407))
            .is_multiple_of(self.transient_every)
        {
            self.transient_repeats
        } else {
            0
        }
    }
}

/// A [`PointSource`] wrapper that injects deterministic transient and fatal
/// errors into `next_chunk` according to a [`FaultPlan`].
///
/// The schedule is keyed on the *logical chunk index within the current
/// scan* (reset by [`PointSource::reset`]), so every scan of the stream
/// fails at the same places — reproducible run to run and pass to pass.
#[derive(Debug)]
pub struct FaultInjectorSource<S> {
    inner: S,
    plan: FaultPlan,
    chunk_index: u64,
    attempts_at_index: u32,
    transient_injected: u64,
    fatal_injected: u64,
}

impl<S: PointSource> FaultInjectorSource<S> {
    /// Wraps `inner` with the fault schedule `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            chunk_index: 0,
            attempts_at_index: 0,
            transient_injected: 0,
            fatal_injected: 0,
        }
    }

    /// Transient errors injected so far.
    pub fn transient_injected(&self) -> u64 {
        self.transient_injected
    }

    /// Fatal errors injected so far.
    pub fn fatal_injected(&self) -> u64 {
        self.fatal_injected
    }

    /// Unwraps the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PointSource> PointSource for FaultInjectorSource<S> {
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
        if let Some(limit) = self.plan.fatal_after_chunks {
            if self.chunk_index >= limit {
                self.fatal_injected += 1;
                return Err(io::Error::other(format!(
                    "injected fatal fault after {limit} chunks"
                )));
            }
        }
        let planned = self.plan.transient_failures_at(self.chunk_index);
        if self.attempts_at_index < planned {
            self.attempts_at_index += 1;
            self.transient_injected += 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient fault at chunk {}", self.chunk_index),
            ));
        }
        let n = self.inner.next_chunk(buf)?;
        self.chunk_index += 1;
        self.attempts_at_index = 0;
        Ok(n)
    }

    fn reset(&mut self) -> io::Result<()> {
        self.inner.reset()?;
        self.chunk_index = 0;
        self.attempts_at_index = 0;
        Ok(())
    }
}

/// Flips one bit of the file at `path` (bit `bit_offset` counted from the
/// start of the file, LSB-first within each byte). Simulates bit rot for the
/// CRC-detection matrix.
pub fn flip_bit_in_file(path: impl AsRef<Path>, bit_offset: u64) -> io::Result<()> {
    let path = path.as_ref();
    let mut bytes = std::fs::read(path)?;
    let byte = (bit_offset / 8) as usize;
    if byte >= bytes.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "bit offset {bit_offset} is past the end of {} ({} bytes)",
                path.display(),
                bytes.len()
            ),
        ));
    }
    bytes[byte] ^= 1 << (bit_offset % 8);
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DatasetSource;
    use vas_data::Dataset;

    fn dataset(n: usize) -> Dataset {
        vas_data::GeolifeGenerator::with_size(n, 9).generate()
    }

    #[test]
    fn transient_schedule_is_deterministic_and_recoverable() {
        let d = dataset(2_000);
        let plan = FaultPlan::transient(42, 2, 2);
        let mut src = FaultInjectorSource::new(DatasetSource::with_chunk_size(&d, 128), plan);
        let mut buf = Vec::new();
        let mut points = Vec::new();
        let mut failures = 0u64;
        loop {
            match PointSource::next_chunk(&mut src, &mut buf) {
                Ok(0) => break,
                Ok(_) => points.extend_from_slice(&buf),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::Interrupted);
                    failures += 1;
                }
            }
        }
        assert_eq!(points.len(), 2_000, "retried stream must be complete");
        assert!(failures > 0, "plan should have injected something");
        assert_eq!(failures, src.transient_injected());

        // Same plan, fresh wrapper: identical failure count.
        let mut src2 = FaultInjectorSource::new(
            DatasetSource::with_chunk_size(&d, 128),
            FaultPlan::transient(42, 2, 2),
        );
        let mut failures2 = 0u64;
        loop {
            match PointSource::next_chunk(&mut src2, &mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => failures2 += 1,
            }
        }
        assert_eq!(failures, failures2, "schedule must be reproducible");
    }

    #[test]
    fn fatal_injection_is_permanent() {
        let d = dataset(1_000);
        let mut src = FaultInjectorSource::new(
            DatasetSource::with_chunk_size(&d, 100),
            FaultPlan::fatal_after(3),
        );
        let mut buf = Vec::new();
        for _ in 0..3 {
            assert!(PointSource::next_chunk(&mut src, &mut buf).is_ok());
        }
        for _ in 0..5 {
            let err = PointSource::next_chunk(&mut src, &mut buf).unwrap_err();
            assert!(!crate::error::io_error_is_transient(&err));
        }
        assert_eq!(src.fatal_injected(), 5);
    }

    #[test]
    fn file_corruption_helpers() {
        let dir = std::env::temp_dir().join(format!("vas-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.bin");
        std::fs::write(&path, [0u8; 16]).unwrap();
        flip_bit_in_file(&path, 8 * 3 + 5).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[3], 1 << 5);
        assert!(flip_bit_in_file(&path, 16 * 8).is_err(), "past-EOF flip");
        std::fs::remove_dir_all(&dir).ok();
    }
}
