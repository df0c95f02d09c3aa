//! Fault cells of the sharded build: seeded faults driven through whole
//! `S = 2` builds. A retried transient fault changes no sample bit, and a
//! flipped spill bit ends the build in a typed checksum error, not a panic,
//! whether the build reads it in its bounds scan or while feeding the
//! shards (the unsharded build is checked alongside).
//!
//! The unsharded cells live next to what they exercise. Retried transient
//! faults are `retried_transient_faults_leave_the_sample_bits_unchanged`
//! and kill-and-resume per strategy is
//! `kill_and_resume_is_bit_identical_per_strategy`, both in
//! `tests/determinism.rs`. A fatal fault that fails the build unretried,
//! panic containment and the post-mortem dumps are in `tests/tracing.rs`.
//! The retry budget and the CRC skip-mode accounting are unit tests of
//! `vas-stream`'s `retry.rs` and `chunked.rs`.

use std::path::PathBuf;
use std::sync::Arc;
use vas::prelude::*;
use vas::stream::flip_bit_in_file;

/// Seed of the dataset and of the transient-fault schedule.
const SEED: u64 = 20_160_519;
/// Points in the spilled dataset.
const N: usize = 12_000;
/// Points per spilled chunk: enough chunks for the fault plans to fire often.
const CHUNK: usize = 512;
/// Sample size of every build.
const K: usize = 200;

/// A spilled Geolife dataset, removed when dropped.
struct Spill {
    path: PathBuf,
}

impl Spill {
    fn new(tag: &str) -> Self {
        let data = GeolifeGenerator::with_size(N, SEED).generate();
        let path =
            std::env::temp_dir().join(format!("vas-faults-{}-{tag}.vaschunk", std::process::id()));
        spill_dataset(&data, &path, CHUNK).unwrap();
        Self { path }
    }

    fn reader(&self) -> ChunkedReader {
        ChunkedReader::open(&self.path).unwrap()
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

fn bits(points: &[Point]) -> Vec<[u64; 3]> {
    points
        .iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.value.to_bits()])
        .collect()
}

#[test]
fn retried_transient_faults_leave_a_sharded_sample_unchanged() {
    // The calling thread reads through the retries while two shard workers
    // build, all of it fully instrumented, so the recorder sees every
    // absorbed fault.
    let spill = Spill::new("transient");
    let clean = ShardedSampler::new(VasConfig::new(K), 2)
        .build_sharded_from_source(&mut spill.reader())
        .unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::new());
    let recorder = Recorder::new(Arc::clone(&registry))
        .with_timing(true)
        .with_tracer(Arc::clone(&tracer));
    let reader = spill.reader().with_recorder(recorder.clone());
    let mut source = RetryingSource::new(
        // Roughly one read in three fails twice in a row.
        FaultInjectorSource::new(reader, FaultPlan::transient(SEED, 3, 2)),
        RetryPolicy::immediate(5),
    )
    .with_recorder(recorder.clone());
    let sample = ShardedSampler::new(VasConfig::new(K), 2)
        .with_recorder(recorder)
        .build_sharded_from_source(&mut source)
        .unwrap();
    let retries = source.retries();
    let injected = source.into_inner().transient_injected();
    assert!(injected > 0, "the fault plan never fired");
    assert!(
        retries >= injected,
        "{retries} retries for {injected} faults"
    );
    assert_eq!(registry.get(Counter::StreamRetriesAbsorbed), retries);
    assert!(tracer.events().iter().any(|e| e.name == "retry"));
    assert_eq!(bits(&sample.points), bits(&clean.points));
}

#[test]
fn a_flipped_spill_bit_ends_every_build_in_a_checksum_mismatch() {
    let spill = Spill::new("bitflip");
    let bytes = std::fs::metadata(&spill.path).unwrap().len();
    // Mid-file lands inside a chunk's column data (the header is tiny).
    flip_bit_in_file(&spill.path, bytes * 8 / 2).unwrap();
    let checksum = |what: &str, result: Result<Sample, VasError>| match result {
        Err(VasError::ChecksumMismatch { .. }) => {}
        Err(other) => panic!("{what}: expected a checksum mismatch, got {other}"),
        Ok(_) => panic!("{what}: the corrupt spill was built without an error"),
    };

    checksum(
        "unsharded",
        VasSampler::new(VasConfig::new(K)).build_from_source(&mut spill.reader()),
    );
    // S = 2 without ε reads the corrupt chunk in its bounds scan; with a
    // fixed ε it reads it while feeding the shard workers. Either way the
    // read error ends the build, not a panic, and no worker panics.
    for (what, config) in [
        ("S = 2, bounds scan", VasConfig::new(K)),
        (
            "S = 2, feeding shards",
            VasConfig::new(K).with_epsilon(0.01),
        ),
    ] {
        let registry = Arc::new(MetricsRegistry::new());
        let result = ShardedSampler::new(config, 2)
            .with_recorder(Recorder::new(Arc::clone(&registry)))
            .build_sharded_from_source(&mut spill.reader());
        checksum(what, result);
        assert_eq!(registry.get(Counter::ParContainedPanics), 0, "{what}");
    }
}
