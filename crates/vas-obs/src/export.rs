//! Snapshot exporters: structured JSON and Prometheus text exposition.
//!
//! Both exporters render a [`MetricsSnapshot`] and both are paired with a
//! parser so a round trip is testable end to end:
//!
//! * JSON ([`snapshot_to_json`] / [`snapshot_from_json`]) is lossless —
//!   histograms are carried as sparse `[bucket, count]` pairs, and
//!   `parse(render(s)) == s` exactly.
//! * Prometheus text ([`snapshot_to_prometheus`] / [`parse_prometheus`])
//!   follows the exposition format: counters as `vas_<name>_total`,
//!   phases/value series as summaries with `quantile` labels plus `_sum` /
//!   `_count`. Quantiles are lossy by nature, so its round trip is checked
//!   sample-by-sample rather than by snapshot equality.

use crate::histogram::Histogram;
use crate::registry::{Counter, Phase, ValueSeries};
use crate::snapshot::MetricsSnapshot;
use crate::trace::value_as_u64;
use serde::Value;
use std::fmt::Write as _;

const QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

fn histogram_to_value(h: &Histogram) -> Value {
    let buckets: Vec<Value> = h
        .bucket_counts()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| Value::Array(vec![Value::Number(i as f64), Value::Number(c as f64)]))
        .collect();
    Value::Object(vec![
        ("count".to_string(), Value::Number(h.count() as f64)),
        ("sum".to_string(), Value::Number(h.sum() as f64)),
        ("p50".to_string(), Value::Number(h.percentile(0.50) as f64)),
        ("p95".to_string(), Value::Number(h.percentile(0.95) as f64)),
        ("p99".to_string(), Value::Number(h.percentile(0.99) as f64)),
        ("buckets".to_string(), Value::Array(buckets)),
    ])
}

fn histogram_from_value(v: &Value) -> Result<Histogram, String> {
    let count = u64_field(v, "count")?;
    let sum = u64_field(v, "sum")?;
    let buckets = match v.get("buckets") {
        Some(Value::Array(items)) => items,
        _ => return Err("histogram missing buckets array".to_string()),
    };
    let mut sparse = Vec::with_capacity(buckets.len());
    for item in buckets {
        let pair = match item {
            Value::Array(pair) if pair.len() == 2 => {
                (value_as_u64(&pair[0]), value_as_u64(&pair[1]))
            }
            _ => return Err("histogram bucket must be a [index, count] pair".to_string()),
        };
        let (Some(i), Some(c)) = pair else {
            return Err(format!(
                "histogram bucket {item:?} must hold two non-negative integers"
            ));
        };
        sparse.push((usize::try_from(i).unwrap_or(usize::MAX), c));
    }
    Histogram::from_parts(&sparse, count, sum)
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(value_as_u64)
        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

/// Renders a snapshot as pretty-printed JSON (lossless; see
/// [`snapshot_from_json`]).
pub fn snapshot_to_json(snapshot: &MetricsSnapshot) -> String {
    let counters: Vec<(String, Value)> = Counter::ALL
        .iter()
        .map(|&c| {
            (
                c.name().to_string(),
                Value::Number(snapshot.counter(c) as f64),
            )
        })
        .collect();
    let phases: Vec<(String, Value)> = Phase::ALL
        .iter()
        .map(|&p| {
            let mut obj = vec![(
                "total_ns".to_string(),
                Value::Number(snapshot.phase_total_ns(p) as f64),
            )];
            if let Value::Object(hist_fields) = histogram_to_value(snapshot.phase_histogram(p)) {
                obj.extend(hist_fields);
            }
            (p.name().to_string(), Value::Object(obj))
        })
        .collect();
    let values: Vec<(String, Value)> = ValueSeries::ALL
        .iter()
        .map(|&s| {
            (
                s.name().to_string(),
                histogram_to_value(snapshot.value_histogram(s)),
            )
        })
        .collect();
    let root = Value::Object(vec![
        ("counters".to_string(), Value::Object(counters)),
        ("phases".to_string(), Value::Object(phases)),
        ("values".to_string(), Value::Object(values)),
    ]);
    serde_json::to_string_pretty(&root).expect("metric values are finite")
}

/// Parses the output of [`snapshot_to_json`] back into a snapshot.
///
/// Metrics absent from the text (e.g. produced by an older build) read as
/// zero; derived fields (`p50`/`p95`/`p99`) are ignored and recomputed from
/// the buckets.
pub fn snapshot_from_json(text: &str) -> Result<MetricsSnapshot, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let mut counters = [0u64; Counter::COUNT];
    if let Some(Value::Object(fields)) = root.get("counters") {
        for (name, value) in fields {
            if let Some(c) = Counter::ALL.iter().find(|c| c.name() == name) {
                counters[*c as usize] = value_as_u64(value)
                    .ok_or_else(|| format!("counter {name:?} must be a non-negative integer"))?;
            }
        }
    }
    let mut phase_ns = [0u64; Phase::COUNT];
    let mut phase_hist: [Histogram; Phase::COUNT] = std::array::from_fn(|_| Histogram::new());
    if let Some(Value::Object(fields)) = root.get("phases") {
        for (name, value) in fields {
            if let Some(p) = Phase::ALL.iter().find(|p| p.name() == name) {
                phase_ns[*p as usize] = u64_field(value, "total_ns")?;
                phase_hist[*p as usize] = histogram_from_value(value)?;
            }
        }
    }
    let mut value_hist: [Histogram; ValueSeries::COUNT] = std::array::from_fn(|_| Histogram::new());
    if let Some(Value::Object(fields)) = root.get("values") {
        for (name, value) in fields {
            if let Some(s) = ValueSeries::ALL.iter().find(|s| s.name() == name) {
                value_hist[*s as usize] = histogram_from_value(value)?;
            }
        }
    }
    Ok(MetricsSnapshot::from_parts(
        counters, phase_ns, phase_hist, value_hist,
    ))
}

fn write_summary(out: &mut String, metric: &str, h: &Histogram, scale: f64) {
    let _ = writeln!(out, "# TYPE {metric} summary");
    for (q, label) in QUANTILES {
        let _ = writeln!(
            out,
            "{metric}{{quantile=\"{label}\"}} {}",
            h.percentile(q) as f64 * scale
        );
    }
    let _ = writeln!(out, "{metric}_sum {}", h.sum() as f64 * scale);
    let _ = writeln!(out, "{metric}_count {}", h.count());
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Counters become `vas_<name>_total`; phases become
/// `vas_phase_<name>_seconds` summaries (quantiles + `_sum`/`_count`, in
/// seconds) plus a `vas_phase_<name>_seconds_total` counter; value series
/// become dimensionless `vas_<name>` summaries.
pub fn snapshot_to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in Counter::ALL {
        let metric = format!("vas_{}_total", c.name());
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {}", snapshot.counter(c));
    }
    for p in Phase::ALL {
        let metric = format!("vas_phase_{}_seconds", p.name());
        write_summary(&mut out, &metric, snapshot.phase_histogram(p), 1e-9);
        let _ = writeln!(out, "# TYPE {metric}_total counter");
        let _ = writeln!(
            out,
            "{metric}_total {}",
            snapshot.phase_total_ns(p) as f64 * 1e-9
        );
    }
    for s in ValueSeries::ALL {
        let metric = format!("vas_{}", s.name());
        write_summary(&mut out, &metric, snapshot.value_histogram(s), 1.0);
    }
    out
}

/// One parsed Prometheus exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (without labels).
    pub name: String,
    /// Label pairs, in order of appearance.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parses Prometheus text exposition (the subset
/// [`snapshot_to_prometheus`] emits: `# TYPE`/`# HELP` comments, and
/// `name{labels} value` sample lines).
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample line without value: {line:?}"))?;
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("bad sample value in {line:?}"))?;
        let (name, labels) = match name_part.split_once('{') {
            None => (name_part.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("unterminated label set in {line:?}"))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("bad label pair {pair:?}"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| format!("unquoted label value {pair:?}"))?;
                    if v.contains('"') {
                        // Escaped/embedded quotes are outside the supported
                        // subset; fail loudly instead of mis-splitting.
                        return Err(format!("unsupported escape in label value {pair:?}"));
                    }
                    labels.push((k.to_string(), v.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn busy_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.inc(Counter::CoreAccepts, 12);
        r.inc(Counter::CoreKernelLanes, 4_096);
        r.inc(Counter::StreamRetriesAbsorbed, 3);
        for ns in [900u64, 1_100, 5_000, 90_000] {
            r.record_phase(Phase::ChunkDecode, ns);
        }
        r.record_phase(Phase::Fill, 2_000_000);
        r.record_value(ValueSeries::GridOccupiedCells, 0);
        r.record_value(ValueSeries::GridOccupiedCells, 2);
        r.snapshot()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = busy_snapshot();
        let text = snapshot_to_json(&snap);
        let parsed = snapshot_from_json(&text).unwrap();
        assert_eq!(parsed, snap);
        // And an empty snapshot survives too.
        let empty = MetricsRegistry::new().snapshot();
        assert_eq!(
            snapshot_from_json(&snapshot_to_json(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn prometheus_round_trip_matches_sample_by_sample() {
        let snap = busy_snapshot();
        let text = snapshot_to_prometheus(&snap);
        let samples = parse_prometheus(&text).unwrap();

        let find = |name: &str, labels: &[(&str, &str)]| -> f64 {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && s.labels.len() == labels.len()
                        && s.labels
                            .iter()
                            .zip(labels)
                            .all(|((k, v), (ek, ev))| k == ek && v == ev)
                })
                .unwrap_or_else(|| panic!("missing sample {name} {labels:?}"))
                .value
        };

        assert_eq!(find("vas_core_accepts_total", &[]), 12.0);
        assert_eq!(find("vas_core_kernel_lanes_total", &[]), 4_096.0);
        assert_eq!(find("vas_phase_chunk_decode_seconds_count", &[]), 4.0);
        let h = snap.phase_histogram(Phase::ChunkDecode);
        assert_eq!(
            find("vas_phase_chunk_decode_seconds_sum", &[]),
            h.sum() as f64 * 1e-9
        );
        assert_eq!(
            find("vas_phase_chunk_decode_seconds", &[("quantile", "0.95")]),
            h.percentile(0.95) as f64 * 1e-9
        );
        assert_eq!(find("vas_grid_occupied_cells_count", &[]), 2.0);
        // Every exported sample parses; counters appear once per variant.
        let counter_lines = samples
            .iter()
            .filter(|s| s.name.ends_with("_total") && s.labels.is_empty())
            .count();
        assert_eq!(counter_lines, Counter::COUNT + Phase::COUNT);
    }

    #[test]
    fn prometheus_parser_rejects_malformed_lines() {
        assert!(parse_prometheus("vas_x_total").is_err());
        assert!(parse_prometheus("vas_x_total abc").is_err());
        assert!(parse_prometheus("vas_x{quantile=\"0.5\" 1").is_err());
        assert!(parse_prometheus("vas_x{quantile=0.5} 1").is_err());
    }

    #[test]
    fn prometheus_parser_handles_nan_and_infinite_values() {
        // Prometheus exposition uses `NaN`, `+Inf` and `-Inf` as sample
        // values; the parser must carry them through as f64 specials
        // instead of erroring on a foreign scrape.
        let samples =
            parse_prometheus("vas_a_total NaN\nvas_b_total +Inf\nvas_c_total -Inf\n").unwrap();
        assert!(samples[0].value.is_nan());
        assert_eq!(samples[1].value, f64::INFINITY);
        assert_eq!(samples[2].value, f64::NEG_INFINITY);
    }

    #[test]
    fn prometheus_comment_lines_need_no_escaping() {
        // HELP/TYPE comments are skipped wholesale, so arbitrary help text
        // (quotes, braces, backslashes) cannot corrupt the sample stream.
        let text = "# HELP vas_x weird \"quotes\" {braces} and \\ backslashes\n\
                    # TYPE vas_x counter\n\
                    vas_x 1\n";
        let samples = parse_prometheus(text).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "vas_x");
        assert_eq!(samples[0].value, 1.0);
    }

    #[test]
    fn prometheus_label_values_reject_unsupported_escapes() {
        // The exporter only emits numeric quantile labels. The parser
        // accepts any plainly quoted value (spaces, equals signs after the
        // first)...
        let ok = parse_prometheus("vas_x{quantile=\"0.5\",job=\"a b\"} 1").unwrap();
        assert_eq!(ok[0].labels[1], ("job".to_string(), "a b".to_string()));
        // ...and label values that would need escape handling (embedded
        // comma, unterminated quote, embedded brace) fail the parse rather
        // than silently mis-splitting.
        assert!(parse_prometheus("vas_x{job=\"a,b\"} 1").is_err());
        assert!(parse_prometheus("vas_x{job=\"a} 1").is_err());
        assert!(parse_prometheus("vas_x{job=\"a\"b\"} 1").is_err());
    }

    #[test]
    fn json_parser_flags_corrupt_histograms() {
        let snap = busy_snapshot();
        let text = snapshot_to_json(&snap).replace("\"count\": 4", "\"count\": 5");
        assert!(snapshot_from_json(&text).is_err());
    }

    #[test]
    fn json_parser_rejects_overflowing_and_non_integer_input() {
        let phase = |buckets: &str, count: &str| {
            format!(
                r#"{{"phases":{{"fill":{{"total_ns":0,"count":{count},"sum":0,"buckets":{buckets}}}}}}}"#
            )
        };
        // Bucket counts whose sum overflows u64.
        let overflow = phase("[[0,18446744073709551615],[1,6]]", "5");
        assert!(snapshot_from_json(&overflow).is_err());
        // Negative and fractional bucket indices.
        assert!(snapshot_from_json(&phase("[[-1,1]]", "1")).is_err());
        assert!(snapshot_from_json(&phase("[[2.7,1]]", "1")).is_err());
        // A negative counter.
        assert!(snapshot_from_json(r#"{"counters":{"core_accepts":-5}}"#).is_err());
        // The well-formed neighbours still parse.
        let ok = snapshot_from_json(&phase("[[2,1]]", "1")).unwrap();
        assert_eq!(ok.phase_histogram(Phase::Fill).bucket_counts()[2], 1);
        let ok = snapshot_from_json(r#"{"counters":{"core_accepts":5}}"#).unwrap();
        assert_eq!(ok.counter(Counter::CoreAccepts), 5);
    }
}
