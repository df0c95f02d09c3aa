//! The perf-regression sentinel: compares two generations of `BENCH_*.json`
//! artifacts and classifies every changed metric.
//!
//! The comparison is deliberately conservative about what it *gates*,
//! because the committed baselines and a CI runner are different machines:
//!
//! * **Booleans** are strict. A gate that was `true` in the baseline
//!   (`bit_identical`, `overhead_ok`, `transient_recovered`, ...) and is
//!   `false` now is a regression, machine speed notwithstanding.
//! * **Ratios** — metric names containing `ratio` or `speedup`, or starting
//!   with `overhead` — compare same-machine quantities against each other,
//!   so they transfer across machines up to noise. They are gated with a
//!   relative tolerance band (default [`DEFAULT_TOLERANCE`]) *and* an
//!   absolute slack floor, so a 0.90× → 0.88× wobble never fires. Names
//!   containing `overhead` are lower-is-better; everything else
//!   higher-is-better.
//! * **Absolute numbers** (seconds, tuples/s, counts) are reported as
//!   informational deltas only, unless [`DiffConfig::gate_absolute`] is set
//!   (same-machine A/B runs).
//!
//! Arrays of objects are keyed by their identifying fields (`backend`,
//! `shards`, `phase`, ...) rather than position, so re-ordering a report
//! section does not produce spurious diffs.

use serde::Value;
use std::path::Path;

/// Default relative tolerance band for ratio metrics.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Absolute slack below which a ratio change is never a regression,
/// whatever the relative band says (absorbs noise around small baselines).
pub const RATIO_ABS_SLACK: f64 = 0.05;

/// How a metric is classified and gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Strictly gated: baseline `true` must stay `true`.
    Boolean,
    /// Tolerance-gated relative quantity (higher is better).
    RatioHigherBetter,
    /// Tolerance-gated relative quantity (lower is better).
    RatioLowerBetter,
    /// Machine-dependent absolute number; informational unless
    /// [`DiffConfig::gate_absolute`].
    Absolute,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Boolean => "boolean",
            MetricKind::RatioHigherBetter => "ratio_higher_better",
            MetricKind::RatioLowerBetter => "ratio_lower_better",
            MetricKind::Absolute => "absolute",
        }
    }
}

/// Sentinel configuration.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative tolerance band for ratio metrics.
    pub tolerance: f64,
    /// Also gate absolute `*_secs` / `*_per_sec` metrics (same-machine A/B
    /// comparisons only).
    pub gate_absolute: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            tolerance: DEFAULT_TOLERANCE,
            gate_absolute: false,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Dotted path of the metric inside the artifact.
    pub path: String,
    /// Classification used for gating.
    pub kind: MetricKind,
    /// Baseline value (numeric view; booleans as 0/1).
    pub baseline: f64,
    /// Current value, or `None` when the metric disappeared.
    pub current: Option<f64>,
    /// Whether this diff trips the gate.
    pub regressed: bool,
    /// Human-readable explanation for regressed entries.
    pub detail: String,
}

/// The comparison result for one artifact pair.
#[derive(Debug, Clone)]
pub struct FileDiff {
    /// Artifact file name (e.g. `BENCH_obs.json`).
    pub file: String,
    /// Metrics compared (leaves present in the baseline).
    pub compared: usize,
    /// The regressed subset.
    pub regressions: Vec<MetricDiff>,
}

#[derive(Debug, Clone, Copy)]
enum Leaf {
    Num(f64),
    Bool(bool),
}

/// Fields that identify an object inside an array (report rows are keyed by
/// these rather than by position, so re-ordering is not a diff).
const ID_FIELDS: &[&str] = &[
    "phase",
    "backend",
    "strategy",
    "scenario",
    "name",
    "label",
    "mode",
    "shards",
    "killed_after_chunks",
    "k",
];

fn element_key(v: &Value, index: usize) -> String {
    if let Value::Object(fields) = v {
        let mut parts = Vec::new();
        for id in ID_FIELDS {
            if let Some((_, val)) = fields.iter().find(|(k, _)| k == id) {
                match val {
                    Value::String(s) => parts.push(format!("{id}={s}")),
                    Value::Number(n) => parts.push(format!("{id}={n}")),
                    Value::Bool(b) => parts.push(format!("{id}={b}")),
                    _ => {}
                }
            }
        }
        if !parts.is_empty() {
            return parts.join(",");
        }
    }
    index.to_string()
}

fn flatten_into(prefix: &str, v: &Value, out: &mut Vec<(String, Leaf)>) {
    match v {
        Value::Number(n) => out.push((prefix.to_string(), Leaf::Num(*n))),
        Value::Bool(b) => out.push((prefix.to_string(), Leaf::Bool(*b))),
        Value::Object(fields) => {
            for (k, val) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_into(&path, val, out);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                let key = element_key(item, i);
                let path = if prefix.is_empty() {
                    format!("[{key}]")
                } else {
                    format!("{prefix}[{key}]")
                };
                flatten_into(&path, item, out);
            }
        }
        Value::String(_) | Value::Null => {}
    }
}

/// Flattens an artifact into `(dotted path, numeric leaf)` pairs.
fn flatten(v: &Value) -> Vec<(String, Leaf)> {
    let mut out = Vec::new();
    flatten_into("", v, &mut out);
    out
}

fn last_segment(path: &str) -> &str {
    path.rsplit(['.', ']'])
        .find(|s| !s.is_empty())
        .unwrap_or(path)
}

fn classify(path: &str, leaf: Leaf) -> MetricKind {
    if matches!(leaf, Leaf::Bool(_)) {
        return MetricKind::Boolean;
    }
    let name = last_segment(path);
    if name.contains("overhead") {
        return MetricKind::RatioLowerBetter;
    }
    if name.contains("ratio") || name.contains("speedup") {
        return MetricKind::RatioHigherBetter;
    }
    MetricKind::Absolute
}

/// `true` when gating this absolute metric makes sense at all, and in which
/// direction (higher-better).
fn absolute_direction(path: &str) -> Option<bool> {
    let name = last_segment(path);
    if name.contains("per_sec") || name.contains("throughput") {
        return Some(true);
    }
    if name.ends_with("_secs") || name.ends_with("_ms") || name.ends_with("_us") {
        return Some(false);
    }
    None
}

/// Compares one baseline artifact against its current generation.
pub fn diff_values(file: &str, baseline: &Value, current: &Value, cfg: &DiffConfig) -> FileDiff {
    let base_leaves = flatten(baseline);
    let cur_leaves = flatten(current);
    let lookup = |path: &str| -> Option<Leaf> {
        cur_leaves
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, leaf)| *leaf)
    };
    let mut regressions = Vec::new();
    for (path, base) in &base_leaves {
        let kind = classify(path, *base);
        let current = lookup(path);
        let diff = match (kind, *base, current) {
            (MetricKind::Boolean, Leaf::Bool(true), Some(Leaf::Bool(false))) => Some(MetricDiff {
                path: path.clone(),
                kind,
                baseline: 1.0,
                current: Some(0.0),
                regressed: true,
                detail: "gate flipped true -> false".to_string(),
            }),
            (MetricKind::Boolean, Leaf::Bool(true), None) => Some(MetricDiff {
                path: path.clone(),
                kind,
                baseline: 1.0,
                current: None,
                regressed: true,
                detail: "gate disappeared from the current artifact".to_string(),
            }),
            (MetricKind::RatioHigherBetter | MetricKind::RatioLowerBetter, Leaf::Num(b), cur) => {
                ratio_diff(path, kind, b, cur, cfg.tolerance)
            }
            (MetricKind::Absolute, Leaf::Num(b), Some(Leaf::Num(c))) if cfg.gate_absolute => {
                absolute_diff(path, b, c, cfg.tolerance)
            }
            _ => None,
        };
        regressions.extend(diff);
    }
    FileDiff {
        file: file.to_string(),
        compared: base_leaves.len(),
        regressions,
    }
}

fn ratio_diff(
    path: &str,
    kind: MetricKind,
    base: f64,
    current: Option<Leaf>,
    tolerance: f64,
) -> Option<MetricDiff> {
    let Some(Leaf::Num(cur)) = current else {
        return Some(MetricDiff {
            path: path.to_string(),
            kind,
            baseline: base,
            current: None,
            regressed: true,
            detail: "ratio metric disappeared from the current artifact".to_string(),
        });
    };
    if !base.is_finite() || !cur.is_finite() {
        return None;
    }
    let worse = match kind {
        MetricKind::RatioLowerBetter => cur - base,
        _ => base - cur,
    };
    let rel = if base.abs() > f64::EPSILON {
        worse / base.abs()
    } else {
        worse
    };
    if worse > RATIO_ABS_SLACK && rel > tolerance {
        return Some(MetricDiff {
            path: path.to_string(),
            kind,
            baseline: base,
            current: Some(cur),
            regressed: true,
            detail: format!(
                "{base:.4} -> {cur:.4} is {:.1}% worse (tolerance {:.1}%)",
                rel * 100.0,
                tolerance * 100.0
            ),
        });
    }
    None
}

fn absolute_diff(path: &str, base: f64, cur: f64, tolerance: f64) -> Option<MetricDiff> {
    let higher_better = absolute_direction(path)?;
    if !base.is_finite() || !cur.is_finite() || base.abs() <= f64::EPSILON {
        return None;
    }
    let worse = if higher_better {
        base - cur
    } else {
        cur - base
    };
    let rel = worse / base.abs();
    if rel > tolerance {
        return Some(MetricDiff {
            path: path.to_string(),
            kind: MetricKind::Absolute,
            baseline: base,
            current: Some(cur),
            regressed: true,
            detail: format!(
                "{base:.4} -> {cur:.4} is {:.1}% worse (tolerance {:.1}%, absolute gating on)",
                rel * 100.0,
                tolerance * 100.0
            ),
        });
    }
    None
}

/// Compares every `BENCH_*.json` present in `baseline_dir` against its
/// counterpart in `current_dir`. A baseline artifact with no counterpart is
/// itself a regression (the harness stopped producing it).
pub fn diff_dirs(
    baseline_dir: &Path,
    current_dir: &Path,
    cfg: &DiffConfig,
) -> std::io::Result<Vec<FileDiff>> {
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        let base_text = std::fs::read_to_string(baseline_dir.join(&name))?;
        let Ok(base) = serde_json::from_str::<Value>(&base_text) else {
            out.push(FileDiff {
                file: name.clone(),
                compared: 0,
                regressions: vec![MetricDiff {
                    path: String::new(),
                    kind: MetricKind::Boolean,
                    baseline: 1.0,
                    current: None,
                    regressed: true,
                    detail: "baseline artifact is not valid JSON".to_string(),
                }],
            });
            continue;
        };
        let current_path = current_dir.join(&name);
        let current = std::fs::read_to_string(&current_path)
            .ok()
            .and_then(|t| serde_json::from_str::<Value>(&t).ok());
        match current {
            Some(cur) => out.push(diff_values(&name, &base, &cur, cfg)),
            None => out.push(FileDiff {
                file: name.clone(),
                compared: 0,
                regressions: vec![MetricDiff {
                    path: String::new(),
                    kind: MetricKind::Boolean,
                    baseline: 1.0,
                    current: None,
                    regressed: true,
                    detail: format!(
                        "current artifact {} is missing or unparseable",
                        current_path.display()
                    ),
                }],
            }),
        }
    }
    Ok(out)
}

/// Renders the sentinel's verdict as the `BENCH_regressions.json` artifact.
pub fn report_to_value(diffs: &[FileDiff], cfg: &DiffConfig) -> Value {
    let total_regressions: usize = diffs.iter().map(|d| d.regressions.len()).sum();
    let files: Vec<Value> = diffs
        .iter()
        .map(|d| {
            let regs: Vec<Value> = d
                .regressions
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("path".to_string(), Value::String(r.path.clone())),
                        ("kind".to_string(), Value::String(r.kind.name().to_string())),
                        ("baseline".to_string(), Value::Number(r.baseline)),
                    ];
                    fields.push(match r.current {
                        Some(c) => ("current".to_string(), Value::Number(c)),
                        None => ("current".to_string(), Value::Null),
                    });
                    fields.push(("detail".to_string(), Value::String(r.detail.clone())));
                    Value::Object(fields)
                })
                .collect();
            Value::Object(vec![
                ("file".to_string(), Value::String(d.file.clone())),
                ("compared".to_string(), Value::Number(d.compared as f64)),
                ("regressions".to_string(), Value::Array(regs)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("bench".to_string(), Value::String("bench_diff".to_string())),
        ("tolerance".to_string(), Value::Number(cfg.tolerance)),
        ("gate_absolute".to_string(), Value::Bool(cfg.gate_absolute)),
        (
            "files_compared".to_string(),
            Value::Number(diffs.len() as f64),
        ),
        (
            "total_regressions".to_string(),
            Value::Number(total_regressions as f64),
        ),
        ("ok".to_string(), Value::Bool(total_regressions == 0)),
        ("files".to_string(), Value::Array(files)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn identical_artifacts_have_no_regressions() {
        let v = parse(r#"{"overhead_ratio":0.01,"overhead_ok":true,"secs":1.5,"n":100}"#);
        let d = diff_values("BENCH_x.json", &v, &v, &DiffConfig::default());
        assert!(d.regressions.is_empty());
        assert!(d.compared >= 4);
    }

    #[test]
    fn boolean_gate_flip_is_a_regression() {
        let base = parse(r#"{"bit_identical":true,"n":5}"#);
        let cur = parse(r#"{"bit_identical":false,"n":5}"#);
        let d = diff_values("BENCH_x.json", &base, &cur, &DiffConfig::default());
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].path, "bit_identical");
        // The reverse direction (false -> true) is an improvement, not a
        // regression.
        let d = diff_values("BENCH_x.json", &cur, &base, &DiffConfig::default());
        assert!(d.regressions.is_empty());
    }

    #[test]
    fn ratio_band_gates_only_beyond_tolerance_and_slack() {
        let base = parse(r#"{"speedup_vs_1":1.0}"#);
        let wobble = parse(r#"{"speedup_vs_1":0.97}"#);
        let bad = parse(r#"{"speedup_vs_1":0.5}"#);
        let cfg = DiffConfig::default();
        assert!(diff_values("f", &base, &wobble, &cfg)
            .regressions
            .is_empty());
        let d = diff_values("f", &base, &bad, &cfg);
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].detail.contains("worse"));
    }

    #[test]
    fn overhead_is_lower_better() {
        let base = parse(r#"{"overhead_ratio":0.01}"#);
        let improved = parse(r#"{"overhead_ratio":0.001}"#);
        let worse = parse(r#"{"overhead_ratio":0.4}"#);
        let cfg = DiffConfig::default();
        assert!(diff_values("f", &base, &improved, &cfg)
            .regressions
            .is_empty());
        assert_eq!(diff_values("f", &base, &worse, &cfg).regressions.len(), 1);
    }

    #[test]
    fn absolutes_are_informational_unless_gated() {
        let base = parse(r#"{"candidate_secs":1.0,"tuples_per_sec":1000.0}"#);
        let slower = parse(r#"{"candidate_secs":3.0,"tuples_per_sec":200.0}"#);
        let cfg = DiffConfig::default();
        assert!(diff_values("f", &base, &slower, &cfg)
            .regressions
            .is_empty());
        let gated = DiffConfig {
            gate_absolute: true,
            ..DiffConfig::default()
        };
        let d = diff_values("f", &base, &slower, &gated);
        assert_eq!(d.regressions.len(), 2, "both directions gate: {d:?}");
    }

    #[test]
    fn array_rows_are_keyed_by_identity_not_position() {
        let base = parse(
            r#"{"cells":[{"backend":"rtree","shards":1,"ok":true},
                         {"backend":"grid","shards":2,"ok":true}]}"#,
        );
        let reordered = parse(
            r#"{"cells":[{"backend":"grid","shards":2,"ok":true},
                          {"backend":"rtree","shards":1,"ok":true}]}"#,
        );
        let d = diff_values("f", &base, &reordered, &DiffConfig::default());
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
        let broken = parse(
            r#"{"cells":[{"backend":"rtree","shards":1,"ok":true},
                          {"backend":"grid","shards":2,"ok":false}]}"#,
        );
        let d = diff_values("f", &base, &broken, &DiffConfig::default());
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].path.contains("backend=grid"));
    }

    #[test]
    fn missing_gate_is_a_regression() {
        let base = parse(r#"{"overhead_ok":true}"#);
        let cur = parse(r#"{"something_else":1}"#);
        let d = diff_values("f", &base, &cur, &DiffConfig::default());
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].detail.contains("disappeared"));
    }

    #[test]
    fn report_value_round_trips_and_flags_ok() {
        let base = parse(r#"{"bit_identical":true}"#);
        let bad = parse(r#"{"bit_identical":false}"#);
        let diffs = vec![diff_values(
            "BENCH_x.json",
            &base,
            &bad,
            &DiffConfig::default(),
        )];
        let report = report_to_value(&diffs, &DiffConfig::default());
        assert_eq!(report.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(report.get("total_regressions"), Some(&Value::Number(1.0)));
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back.get("files_compared"), Some(&Value::Number(1.0)));
    }
}
