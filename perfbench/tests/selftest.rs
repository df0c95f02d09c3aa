//! The benchmark's self-test, at tiny input sizes.
//!
//! * The metric catalogue and `BENCHMARK.json` name the same metrics with
//!   the same units, and the same workloads.
//! * Every workload passes every output check on the default and the
//!   held-out seed, traced and untraced, and a traced run's layer times plus
//!   `unattributed_s` add up to its wall time.
//! * A planted bad output is counted as a failure, not a crash.

use perfbench::metrics::{MetricDef, END_TO_END, LAYER_SPANS, PER_LAYER};
use perfbench::{run, Config, Outcome, Scale, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use serde_json::Value;
use std::path::PathBuf;

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    match value {
        Value::Object(fields) => {
            &fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no key {key}"))
                .1
        }
        other => panic!("expected an object holding {key}, got {other:?}"),
    }
}

fn string(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn list(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn pairs(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    list(field(bench, key))
        .iter()
        .map(|m| {
            (
                string(field(m, "name")).to_string(),
                string(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(listed(&bench, "end_to_end"), pairs(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), pairs(PER_LAYER));
    let workloads: Vec<&str> = list(field(&bench, "workloads"))
        .iter()
        .map(|w| string(field(w, "name")))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

fn tiny(workload: Workload, seed: u64, trace: bool, plant: bool) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{seed}-{trace}-{plant}",
        workload.name()
    ));
    let config = Config {
        workload,
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        plant_bad_output: plant,
        work_dir: work_dir.clone(),
    };
    let outcome = run(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(!work_dir.exists(), "the run removes its work directory");
    outcome
}

#[test]
fn every_workload_passes_its_checks_on_both_seeds() {
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for trace in [false, true] {
                let what = format!("{} seed {seed} trace {trace}", workload.name());
                let out = tiny(workload, seed, trace, false);
                assert!(out.attempted > 0, "{what}: nothing checked");
                assert_eq!(out.failed, 0, "{what}: checks failed");
                let catalogue = if trace { PER_LAYER } else { END_TO_END };
                out.metrics
                    .to_json(catalogue)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                if !trace {
                    assert_eq!(out.metrics.get("ok_rate"), Some(1.0), "{what}");
                    continue;
                }
                let layers: f64 = LAYER_SPANS
                    .iter()
                    .map(|s| out.metrics.get(&format!("{s}_s")).unwrap_or(0.0))
                    .sum::<f64>()
                    + out.metrics.get("unattributed_s").expect("unattributed_s");
                let wall = out.metrics.get("trace.wall_s").expect("trace.wall_s");
                assert!(wall > 0.0, "{what}: no wall time");
                assert!(
                    (layers - wall).abs() <= 1e-6 * wall,
                    "{what}: layers {layers} s vs wall {wall} s"
                );
            }
        }
    }
}

#[test]
fn a_planted_bad_output_counts_as_a_failure() {
    for workload in Workload::ALL {
        let out = tiny(workload, DEFAULT_SEED, false, true);
        assert_eq!(out.failed, 1, "{}", workload.name());
        assert!(out.attempted > 1, "{}", workload.name());
        assert!(out.metrics.get("ok_rate").expect("ok_rate") < 1.0);
    }
}
