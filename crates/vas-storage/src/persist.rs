//! Persistence of sample catalogs.
//!
//! The paper treats VAS samples as an *offline index*: built once, stored in
//! the database and queried many times (Section II-B/D). This module gives
//! the catalog a durable form so the expensive construction step does not
//! have to be repeated across process restarts.
//!
//! Format version 2: each catalog is a small JSON manifest plus one
//! **chunked columnar file** (`vas-stream`'s `.vaschunk` spill format —
//! provenance header, then `x`/`y`/`value` column chunks) per sample, with
//! density counters in a raw little-endian `u64` sidecar when present.
//! Catalog persistence and dataset spill therefore share a single codec:
//! one set of round-trip/corruption guarantees, one place to evolve the
//! on-disk layout. Version-1 catalogs (headerless `f64` triples with
//! densities appended in the same file) remain readable.
//!
//! All writes are crash-safe: each file is staged as a temp sibling,
//! fsync'd and renamed over the target (`vas_stream::write_atomic`), and
//! the manifest is written last as the commit point of the whole save.
//! Failures surface as typed [`vas_stream::VasError`] values.

use crate::catalog::SampleCatalog;
use serde::{Deserialize, Serialize};
use std::fs::{self, File};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use vas_data::{DatasetKind, Point};
use vas_obs::{Counter, Phase, Recorder};
use vas_sampling::Sample;
use vas_stream::{
    commit_staged, staging_sibling, write_atomic, ChunkedReader, ChunkedWriter, VasError,
};

/// Manifest entry describing one persisted sample (format version 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestEntry {
    method: String,
    target_size: usize,
    len: usize,
    /// Chunked columnar file holding the sample points.
    file: String,
    /// Raw little-endian `u64` sidecar holding the density counters, when
    /// the density-embedding pass has been run.
    density_file: Option<String>,
}

/// Manifest describing a persisted catalog (format version 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    samples: Vec<ManifestEntry>,
}

/// Just the version field, parsed first so the right reader can be chosen.
#[derive(Debug, Clone, Deserialize)]
struct ManifestProbe {
    version: u32,
}

/// Manifest entry of the legacy (version 1) format: one headerless binary
/// file of `f64` (x, y, value) triples, densities appended in-file.
#[derive(Debug, Clone, Deserialize)]
struct LegacyManifestEntry {
    method: String,
    target_size: usize,
    len: usize,
    has_densities: bool,
    file: String,
}

#[derive(Debug, Clone, Deserialize)]
struct LegacyManifest {
    samples: Vec<LegacyManifestEntry>,
}

const MANIFEST_VERSION: u32 = 2;
const LEGACY_MANIFEST_VERSION: u32 = 1;
const MANIFEST_FILE: &str = "catalog.json";
/// Chunk size used for persisted samples. Samples are `K`-sized (10⁴-ish),
/// so a few chunks per file; small enough that partial reads stay cheap.
const SAMPLE_CHUNK_SIZE: usize = 4_096;

/// Deletes every sample file referenced by an existing manifest in `dir`
/// (either format version), so a re-save never strands orphaned sample data
/// from a previous — possibly differently-named or legacy-format — catalog.
/// Unreadable or unparsable manifests are ignored: the save then simply
/// overwrites what it can.
fn remove_previous_catalog_files(dir: &Path) {
    let Ok(text) = fs::read_to_string(dir.join(MANIFEST_FILE)) else {
        return;
    };
    let mut stale: Vec<String> = Vec::new();
    if let Ok(manifest) = serde_json::from_str::<Manifest>(&text) {
        for entry in manifest.samples {
            stale.push(entry.file);
            stale.extend(entry.density_file);
        }
    } else if let Ok(manifest) = serde_json::from_str::<LegacyManifest>(&text) {
        for entry in manifest.samples {
            stale.push(entry.file);
        }
    }
    for file in stale {
        fs::remove_file(dir.join(file)).ok();
    }
}

/// Streams one sample into its chunked columnar file via a staged sibling,
/// promoted over the target only after the writer has fsync'd (the
/// `write_atomic` protocol for streamed files). On error the staging file is
/// removed and the target is untouched.
fn write_sample_chunk(target: &Path, sample: &Sample) -> Result<(), VasError> {
    let tmp = staging_sibling(target);
    let result = (|| {
        let mut writer = ChunkedWriter::create(
            &tmp,
            &sample.method,
            DatasetKind::External,
            SAMPLE_CHUNK_SIZE,
        )?;
        writer.write_points(&sample.points)?;
        writer.finish()?;
        commit_staged(&tmp, target)
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result.map_err(|e| VasError::io(format!("persisting sample to {}", target.display()), e))
}

/// Writes a catalog into `dir` (created if needed). Any previous catalog in
/// the same directory is overwritten — including its sample files, which are
/// removed first so stale data cannot accumulate across saves or format
/// migrations. Always writes the current (version 2, chunked columnar)
/// format.
///
/// Every file — sample chunks, density sidecars, and finally the manifest —
/// is replaced atomically (temp + fsync + rename). The manifest is written
/// **last**, so it is the commit point of the save: a crash mid-save leaves
/// the previous manifest referencing the previous (still intact) files,
/// never a manifest pointing at torn data.
pub fn save_catalog(catalog: &SampleCatalog, dir: impl AsRef<Path>) -> Result<(), VasError> {
    save_catalog_recorded(catalog, dir, &Recorder::detached())
}

/// [`save_catalog`] with a [`Recorder`]: the save runs in the
/// `persist_save` phase, and reaching the manifest commit point counts
/// `storage_persist_commits` and records a `persist_commit` event.
pub fn save_catalog_recorded(
    catalog: &SampleCatalog,
    dir: impl AsRef<Path>,
    recorder: &Recorder,
) -> Result<(), VasError> {
    let result = {
        let mut phase = recorder.phase(Phase::PersistSave);
        phase.attr("samples", catalog.len());
        save_catalog_inner(catalog, dir.as_ref())
    };
    if result.is_ok() {
        recorder.inc(Counter::StoragePersistCommits, 1);
        recorder.event(
            "persist_commit",
            &[
                ("dir", dir.as_ref().display().to_string().as_str().into()),
                ("samples", (catalog.len() as u64).into()),
            ],
        );
    }
    result
}

fn save_catalog_inner(catalog: &SampleCatalog, dir: &Path) -> Result<(), VasError> {
    fs::create_dir_all(dir)
        .map_err(|e| VasError::io(format!("creating catalog dir {}", dir.display()), e))?;
    remove_previous_catalog_files(dir);
    let mut manifest = Manifest {
        version: MANIFEST_VERSION,
        samples: Vec::new(),
    };
    for (i, sample) in catalog.samples().iter().enumerate() {
        let file = format!("sample_{i:03}_{}.vaschunk", sample.len());
        write_sample_chunk(&dir.join(&file), sample)?;
        let density_file = match &sample.densities {
            Some(densities) => {
                let name = format!("sample_{i:03}_{}.density.bin", sample.len());
                let mut bytes = Vec::with_capacity(densities.len() * 8);
                for d in densities {
                    bytes.extend_from_slice(&d.to_le_bytes());
                }
                write_atomic(dir.join(&name), &bytes)
                    .map_err(|e| VasError::io(format!("persisting density sidecar {name}"), e))?;
                Some(name)
            }
            None => None,
        };
        manifest.samples.push(ManifestEntry {
            method: sample.method.clone(),
            target_size: sample.target_size,
            len: sample.len(),
            file,
            density_file,
        });
    }
    let json = serde_json::to_string_pretty(&manifest).map_err(|e| VasError::Corrupt {
        path: manifest_path(dir).display().to_string(),
        detail: format!("manifest serialization failed: {e}"),
    })?;
    write_atomic(manifest_path(dir), json.as_bytes())
        .map_err(|e| VasError::io("persisting catalog manifest", e))
}

/// Loads a catalog previously written by [`save_catalog`] — either the
/// current chunked columnar format or the legacy version-1 triple files.
/// Every failure mode (missing files, malformed JSON, version skew,
/// truncated or oversized sample data) surfaces as a typed [`VasError`].
pub fn load_catalog(dir: impl AsRef<Path>) -> Result<SampleCatalog, VasError> {
    let dir = dir.as_ref();
    let manifest_file = manifest_path(dir);
    let manifest_text = fs::read_to_string(&manifest_file)
        .map_err(|e| VasError::io(format!("reading manifest {}", manifest_file.display()), e))?;
    let corrupt = |detail: String| VasError::Corrupt {
        path: manifest_file.display().to_string(),
        detail,
    };
    let probe: ManifestProbe = serde_json::from_str(&manifest_text)
        .map_err(|e| corrupt(format!("manifest is not valid JSON: {e}")))?;
    match probe.version {
        MANIFEST_VERSION => {
            let manifest: Manifest = serde_json::from_str(&manifest_text)
                .map_err(|e| corrupt(format!("malformed version-2 manifest: {e}")))?;
            let mut catalog = SampleCatalog::new();
            for entry in &manifest.samples {
                catalog.insert(read_sample(dir, entry)?);
            }
            Ok(catalog)
        }
        LEGACY_MANIFEST_VERSION => {
            let manifest: LegacyManifest = serde_json::from_str(&manifest_text)
                .map_err(|e| corrupt(format!("malformed version-1 manifest: {e}")))?;
            let mut catalog = SampleCatalog::new();
            for entry in &manifest.samples {
                catalog.insert(read_sample_v1(&dir.join(&entry.file), entry)?);
            }
            Ok(catalog)
        }
        other => Err(VasError::UnsupportedVersion {
            path: manifest_file.display().to_string(),
            found: other,
            supported: &[LEGACY_MANIFEST_VERSION, MANIFEST_VERSION],
        }),
    }
}

/// Path of the manifest inside a catalog directory.
fn manifest_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(MANIFEST_FILE)
}

fn read_sample(dir: &Path, entry: &ManifestEntry) -> Result<Sample, VasError> {
    let path = dir.join(&entry.file);
    let open_err = |e| VasError::io(format!("opening sample file {}", path.display()), e);
    let dataset = ChunkedReader::open(&path)
        .map_err(open_err)?
        .read_dataset()
        .map_err(|e| VasError::io(format!("reading sample file {}", path.display()), e))?;
    if dataset.len() != entry.len {
        return Err(VasError::Mismatch {
            expected: format!("{} points (manifest)", entry.len),
            found: format!("{} points in {}", dataset.len(), path.display()),
        });
    }
    let mut sample = Sample::new(entry.method.clone(), entry.target_size, dataset.points);
    if let Some(density_file) = &entry.density_file {
        let path = dir.join(density_file);
        let sidecar_err =
            |e| VasError::io(format!("reading density sidecar {}", path.display()), e);
        let mut r = BufReader::new(File::open(&path).map_err(sidecar_err)?);
        let mut densities = Vec::with_capacity(entry.len);
        let mut buf = [0u8; 8];
        for _ in 0..entry.len {
            r.read_exact(&mut buf).map_err(sidecar_err)?;
            densities.push(u64::from_le_bytes(buf));
        }
        if r.read(&mut buf).map_err(sidecar_err)? != 0 {
            return Err(VasError::Corrupt {
                path: path.display().to_string(),
                detail: "density sidecar is larger than its manifest entry".into(),
            });
        }
        sample = sample.with_densities(densities);
    }
    Ok(sample)
}

/// Reader for the legacy (version 1) sample files: `entry.len` little-endian
/// `f64` (x, y, value) triples, then `entry.len` `u64` density counters when
/// `has_densities` is set.
fn read_sample_v1(path: &Path, entry: &LegacyManifestEntry) -> Result<Sample, VasError> {
    let read_err = |e| VasError::io(format!("reading legacy sample file {}", path.display()), e);
    let file = File::open(path).map_err(read_err)?;
    // The file must hold every row the manifest promises before anything is
    // allocated for them, so an inflated `len` cannot ask for more memory
    // than the file could fill.
    let row_bytes = if entry.has_densities { 32 } else { 24 };
    let rows = file.metadata().map_err(read_err)?.len() / row_bytes;
    if rows < entry.len as u64 {
        return Err(VasError::Truncated {
            path: path.display().to_string(),
            promised: entry.len as u64,
            found: rows,
            unit: "points",
        });
    }
    let mut r = BufReader::new(file);
    let mut points = Vec::with_capacity(entry.len);
    let mut buf = [0u8; 8];
    for _ in 0..entry.len {
        let mut coords = [0.0f64; 3];
        for c in &mut coords {
            r.read_exact(&mut buf).map_err(read_err)?;
            *c = f64::from_le_bytes(buf);
        }
        points.push(Point::with_value(coords[0], coords[1], coords[2]));
    }
    let mut sample = Sample::new(entry.method.clone(), entry.target_size, points);
    if entry.has_densities {
        let mut densities = Vec::with_capacity(entry.len);
        for _ in 0..entry.len {
            r.read_exact(&mut buf).map_err(read_err)?;
            densities.push(u64::from_le_bytes(buf));
        }
        sample = sample.with_densities(densities);
    }
    // Trailing garbage means the file does not match the manifest.
    if r.read(&mut buf).map_err(read_err)? != 0 {
        return Err(VasError::Corrupt {
            path: path.display().to_string(),
            detail: "legacy sample file is larger than its manifest entry".into(),
        });
    }
    Ok(sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufWriter, Write};
    use vas_data::GeolifeGenerator;
    use vas_sampling::{Sampler, UniformSampler};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vas-persist-{}-{name}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn catalog_with_densities() -> SampleCatalog {
        let d = GeolifeGenerator::with_size(3_000, 71).generate();
        let mut catalog = SampleCatalog::new();
        for k in [50usize, 200] {
            let sample = UniformSampler::new(k, 1).sample_dataset(&d);
            let counts = vas_core::embed_density(&sample, &d);
            catalog.insert(sample.with_densities(counts));
        }
        catalog.insert(UniformSampler::new(500, 2).sample_dataset(&d));
        catalog
    }

    #[test]
    fn round_trip_preserves_everything() {
        let dir = temp_dir("roundtrip");
        let catalog = catalog_with_densities();
        save_catalog(&catalog, &dir).unwrap();
        assert!(manifest_path(&dir).exists());

        let loaded = load_catalog(&dir).unwrap();
        assert_eq!(loaded.sizes(), catalog.sizes());
        for (a, b) in loaded.samples().iter().zip(catalog.samples()) {
            assert_eq!(a.points, b.points);
            assert_eq!(a.densities, b.densities);
            assert_eq!(a.method, b.method);
            assert_eq!(a.target_size, b.target_size);
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recorded_save_counts_and_records_the_commit() {
        use std::sync::Arc;
        let dir = temp_dir("recorded");
        let catalog = catalog_with_densities();
        let tracer = Arc::new(vas_obs::Tracer::new());
        let recorder = Recorder::new(Arc::new(vas_obs::MetricsRegistry::new()))
            .with_tracer(Arc::clone(&tracer))
            .with_timing(true);
        save_catalog_recorded(&catalog, &dir, &recorder).unwrap();
        assert_eq!(recorder.registry().get(Counter::StoragePersistCommits), 1);
        assert!(tracer.events().iter().any(|e| e.name == "persist_commit"));
        assert_eq!(tracer.spans()[0].name, "persist_save");
        assert_eq!(
            recorder
                .registry()
                .snapshot()
                .phase_calls(Phase::PersistSave),
            1
        );

        // A failed save (unwritable dir) reaches no commit point.
        let file_as_dir = dir.join("not-a-dir");
        fs::write(&file_as_dir, b"x").unwrap();
        assert!(save_catalog_recorded(&catalog, &file_as_dir, &recorder).is_err());
        assert_eq!(recorder.registry().get(Counter::StoragePersistCommits), 1);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn samples_are_stored_in_the_shared_chunked_format() {
        // The rewire's point: a persisted sample file is a plain .vaschunk
        // spill, openable by the generic streaming reader.
        let dir = temp_dir("sharedcodec");
        let catalog = catalog_with_densities();
        save_catalog(&catalog, &dir).unwrap();
        let manifest: Manifest =
            serde_json::from_str(&fs::read_to_string(manifest_path(&dir)).unwrap()).unwrap();
        assert_eq!(manifest.version, 2);
        for entry in &manifest.samples {
            assert!(entry.file.ends_with(".vaschunk"), "{}", entry.file);
            let mut reader = ChunkedReader::open(dir.join(&entry.file)).unwrap();
            assert_eq!(reader.header().count as usize, entry.len);
            assert_eq!(reader.header().name, entry.method);
            let points = reader.read_dataset().unwrap().points;
            assert_eq!(points.len(), entry.len);
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn save_overwrites_previous_catalog() {
        let dir = temp_dir("overwrite");
        let catalog = catalog_with_densities();
        save_catalog(&catalog, &dir).unwrap();
        // Save a smaller catalog on top and reload: only the new contents remain.
        let d = GeolifeGenerator::with_size(500, 3).generate();
        let mut small = SampleCatalog::new();
        small.insert(UniformSampler::new(10, 1).sample_dataset(&d));
        save_catalog(&small, &dir).unwrap();
        let loaded = load_catalog(&dir).unwrap();
        assert_eq!(loaded.sizes(), vec![10]);
        // The previous catalog's sample files (including density sidecars)
        // must be gone: only the new manifest + one sample file remain.
        let remaining: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(remaining.len(), 2, "stale files left behind: {remaining:?}");
        assert!(remaining.contains(&MANIFEST_FILE.to_string()));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn resaving_over_a_legacy_catalog_removes_its_files() {
        // Migration path: a v1 catalog is loaded, then re-saved in the
        // chunked format; the old .bin files must not be stranded.
        let dir = temp_dir("migrate");
        let d = GeolifeGenerator::with_size(300, 13).generate();
        let sample = UniformSampler::new(20, 1).sample_dataset(&d);
        let file = "sample_000_20.bin";
        {
            let mut w = BufWriter::new(File::create(dir.join(file)).unwrap());
            for p in &sample.points {
                w.write_all(&p.x.to_le_bytes()).unwrap();
                w.write_all(&p.y.to_le_bytes()).unwrap();
                w.write_all(&p.value.to_le_bytes()).unwrap();
            }
        }
        fs::write(
            manifest_path(&dir),
            format!(
                r#"{{"version": 1, "samples": [{{"method": "uniform", "target_size": 20, "len": 20, "has_densities": false, "file": "{file}"}}]}}"#
            ),
        )
        .unwrap();

        let legacy = load_catalog(&dir).unwrap();
        save_catalog(&legacy, &dir).unwrap();
        assert!(!dir.join(file).exists(), "legacy sample file was stranded");
        let migrated = load_catalog(&dir).unwrap();
        assert_eq!(migrated.samples()[0].points, sample.points);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_directory_is_an_error() {
        assert!(load_catalog("/definitely/not/a/real/catalog/dir").is_err());
    }

    #[test]
    fn corrupted_manifest_is_an_error() {
        let dir = temp_dir("corrupt");
        fs::write(manifest_path(&dir), "not json at all").unwrap();
        let err = load_catalog(&dir).unwrap_err();
        assert!(matches!(err, VasError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn inflated_legacy_sample_length_is_an_error() {
        // A version-1 manifest that promises more points than its sample
        // file holds is refused before anything is allocated for them.
        let dir = temp_dir("inflated");
        let file = "sample_000_1.bin";
        fs::write(dir.join(file), [0u8; 24]).unwrap();
        for (len, has_densities) in [(1usize << 60, false), (usize::MAX, true), (1, true)] {
            let manifest = format!(
                r#"{{"version": 1, "samples": [{{"method": "uniform", "target_size": 1, "len": {len}, "has_densities": {has_densities}, "file": "{file}"}}]}}"#
            );
            fs::write(manifest_path(&dir), manifest).unwrap();
            let err = load_catalog(&dir).unwrap_err();
            assert!(
                matches!(err, VasError::Truncated { .. }),
                "len {len}: {err}"
            );
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unsupported_version_is_an_error() {
        let dir = temp_dir("version");
        fs::write(manifest_path(&dir), r#"{"version": 99, "samples": []}"#).unwrap();
        let err = load_catalog(&dir).unwrap_err();
        assert!(
            matches!(err, VasError::UnsupportedVersion { found: 99, .. }),
            "{err}"
        );
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn save_leaves_no_staging_files_behind() {
        let dir = temp_dir("staging");
        save_catalog(&catalog_with_densities(), &dir).unwrap();
        let leftovers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray staging files: {leftovers:?}");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn truncated_sample_file_is_an_error() {
        let dir = temp_dir("truncated");
        let catalog = catalog_with_densities();
        save_catalog(&catalog, &dir).unwrap();
        // Truncate the first sample file.
        let manifest: Manifest =
            serde_json::from_str(&fs::read_to_string(manifest_path(&dir)).unwrap()).unwrap();
        let victim = dir.join(&manifest.samples[0].file);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_catalog(&dir).is_err());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn truncated_density_sidecar_is_an_error() {
        let dir = temp_dir("densitytrunc");
        let catalog = catalog_with_densities();
        save_catalog(&catalog, &dir).unwrap();
        let manifest: Manifest =
            serde_json::from_str(&fs::read_to_string(manifest_path(&dir)).unwrap()).unwrap();
        let sidecar = manifest.samples[0].density_file.clone().unwrap();
        let victim = dir.join(sidecar);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 8]).unwrap();
        assert!(load_catalog(&dir).is_err());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn legacy_v1_catalogs_remain_readable() {
        // Hand-write a version-1 catalog (raw f64 triples, densities
        // appended in the same file) and load it through the compat path.
        let dir = temp_dir("legacy");
        let d = GeolifeGenerator::with_size(400, 9).generate();
        let sample = UniformSampler::new(25, 4).sample_dataset(&d);
        let counts = vas_core::embed_density(&sample, &d);
        let sample = sample.with_densities(counts);

        let file = "sample_000_25.bin";
        {
            let mut w = BufWriter::new(File::create(dir.join(file)).unwrap());
            for p in &sample.points {
                w.write_all(&p.x.to_le_bytes()).unwrap();
                w.write_all(&p.y.to_le_bytes()).unwrap();
                w.write_all(&p.value.to_le_bytes()).unwrap();
            }
            for c in sample.densities.as_ref().unwrap() {
                w.write_all(&c.to_le_bytes()).unwrap();
            }
        }
        let manifest = format!(
            r#"{{"version": 1, "samples": [{{"method": "uniform", "target_size": 25, "len": 25, "has_densities": true, "file": "{file}"}}]}}"#
        );
        fs::write(manifest_path(&dir), manifest).unwrap();

        let loaded = load_catalog(&dir).unwrap();
        assert_eq!(loaded.samples().len(), 1);
        let back = &loaded.samples()[0];
        assert_eq!(back.points, sample.points);
        assert_eq!(back.densities, sample.densities);
        assert_eq!(back.method, "uniform");
        assert_eq!(back.target_size, 25);
        fs::remove_dir_all(dir).ok();
    }
}
