//! One benchmark for the VAS pipeline.
//!
//! Two workloads, each a closed loop over public APIs of the workspace
//! crates (see README.md for why each was chosen and which layers it loads):
//!
//! * `geolife_pipeline` — dense GPS-like points from raw input to rendered
//!   plot: spill, streaming single-thread build, persisted catalog, read
//!   back and explored by one analyst, budgeted and exact;
//! * `gauss_sharded_build` — a Gaussian mixture held in memory, built in
//!   shards and persisted.
//!
//! Every output is checked outside the timed windows; a failed check counts
//! against `ok_rate` and does not stop the run.

pub mod metrics;
pub mod trace;

mod build;
mod session;

use metrics::Metrics;
use std::path::PathBuf;
use std::time::Instant;
use trace::Spans;
use vas_data::{BoundingBox, Dataset, DatasetKind, Point};

/// The seed to run the benchmark with when there is no reason to pick
/// another; the sizing runs used it.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, for confirming a result on inputs the change
/// was not written against.
pub const HELD_OUT_SEED: u64 = 2_016_051_900;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Spill → streaming single-thread build → persist → read back →
    /// viewports.
    GeolifePipeline,
    /// In-memory source → sharded build → persist.
    GaussShardedBuild,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::GeolifePipeline, Workload::GaussShardedBuild];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GeolifePipeline => "geolife_pipeline",
            Workload::GaussShardedBuild => "gauss_sharded_build",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Tiny` exists so the
/// self-test can run every workload and every check in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Measured sizes.
    Full,
    /// Self-test sizes.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase; whole operations run until it is
    /// reached (at least two builds, so their outputs can be compared).
    pub seconds: f64,
    /// Record spans and program counters and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Corrupt the first checked output on purpose (self-test only): the
    /// check must count it as a failure.
    pub plant_bad_output: bool,
    /// Directory for spill files and persisted catalogs; created, and
    /// removed again at the end of the run.
    pub work_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
}

/// Pass/fail tally of checked operations.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; `Err` carries why it failed.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            eprintln!("[perfbench] check failed: {what}: {reason}");
        }
    }

    pub fn ok_rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Runs one workload.
pub fn run(config: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("creating {}: {e}", config.work_dir.display()))?;
    let outcome = build::run(config);
    let cleanup = std::fs::remove_dir_all(&config.work_dir)
        .map_err(|e| format!("removing {}: {e}", config.work_dir.display()));
    let outcome = outcome?;
    cleanup?;
    Ok(outcome)
}

/// Runs `setup` `repeats` times and returns the last result with the median
/// wall time. Every repeat must produce the same inputs (`digest`), which is
/// itself checked.
pub(crate) fn repeated_setup<T>(
    repeats: usize,
    tally: &mut Tally,
    mut setup: impl FnMut() -> T,
    digest: impl Fn(&T) -> u64,
) -> (T, f64) {
    let mut secs = Vec::with_capacity(repeats);
    let mut digests = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Free the previous inputs first, so peak memory is that of one set.
        drop(last.take());
        let t0 = Instant::now();
        let inputs = setup();
        secs.push(t0.elapsed().as_secs_f64());
        digests.push(digest(&inputs));
        last = Some(inputs);
    }
    tally.record(
        "set-up is reproducible",
        if digests.windows(2).all(|w| w[0] == w[1]) {
            Ok(())
        } else {
            Err(format!("input digests differ across set-ups: {digests:x?}"))
        },
    );
    (last.expect("at least one set-up"), quantile(&secs, 0.5))
}

/// Linearly interpolated quantile (`q` in `[0, 1]`) of `values`; 0 when
/// empty.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean of `values`; NaN when empty, which the output rejects.
pub(crate) fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `n` points from `points` with the extent pinned to `extent`: points
/// outside it are dropped, and its two corners are appended. The kernel
/// bandwidth and the loss probes follow the data's extent, which for the
/// generators' random walks and Gaussian tails varies by about 3 % between
/// seeds; pinning it keeps the work of a build and its loss comparable
/// across seeds. `points` must yield at least `n` points inside `extent`.
pub(crate) fn pinned(
    name: String,
    kind: DatasetKind,
    points: impl Iterator<Item = Point>,
    n: usize,
    extent: BoundingBox,
) -> Dataset {
    let mut kept = Vec::with_capacity(n);
    kept.extend(
        points
            .filter(|p| extent.contains(p))
            .take(n.saturating_sub(2)),
    );
    kept.push(Point::new(extent.min_x, extent.min_y));
    kept.push(Point::new(extent.max_x, extent.max_y));
    Dataset::new(name, kind, kept)
}

/// FNV-1a digest of every coordinate and value bit of `points`.
pub(crate) fn digest(points: &[Point]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in points {
        for v in [p.x, p.y, p.value] {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Whether two point lists are equal bit for bit.
pub(crate) fn bitwise_eq(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| {
            p.x.to_bits() == q.x.to_bits()
                && p.y.to_bits() == q.y.to_bits()
                && p.value.to_bits() == q.value.to_bits()
        })
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Copies every span self-time into the per-layer metrics and derives
/// `unattributed_s` and `trace.wall_s` from the root span `run`.
pub(crate) fn layer_times(spans: &Spans, metrics: &mut Metrics) -> Result<(), String> {
    let records = spans.records()?;
    let times = trace::self_times(&records);
    for name in times.keys() {
        if name != "run" && !metrics::LAYER_SPANS.contains(&name.as_str()) {
            return Err(format!(
                "span {name} is not a layer, so its time would go unreported"
            ));
        }
    }
    for (name, def) in metrics::LAYER_SPANS.iter().zip(metrics::PER_LAYER) {
        debug_assert_eq!(def.name.strip_suffix("_s"), Some(*name));
        metrics.set(def.name, times.get(*name).copied().unwrap_or(0.0));
    }
    metrics.set("unattributed_s", times.get("run").copied().unwrap_or(0.0));
    let wall_us: u64 = records
        .iter()
        .filter(|s| s.name == "run")
        .map(|s| s.dur_us)
        .sum();
    metrics.set("trace.wall_s", wall_us as f64 * 1e-6);
    Ok(())
}
