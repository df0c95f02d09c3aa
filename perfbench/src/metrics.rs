//! The metric catalogue: every metric the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! the self-test checks the two agree in both directions.

use std::collections::BTreeMap;

/// One printed metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of an untraced run (`--trace 0`). Every workload prints all of
/// them; README.md says what each one measures on each workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("points_per_s", "points/s"),
    m("op_ms_mean", "ms"),
    m("loss_median", "loss"),
    m("peak_rss_mb", "MB"),
    m("ok_rate", "ratio"),
];

/// Span names whose self-times, plus `unattributed_s`, add up to
/// `trace.wall_s`. Each is printed as `<name>_s`.
pub const LAYER_SPANS: &[&str] = &[
    "data.generate",
    "eval.loss_estimator",
    "stream.spill_write",
    "stream.decode",
    "core.sample",
    "storage.persist",
    "storage.table_load",
    "storage.load",
    "storage.query",
    "storage.exact_query",
    "viz.render",
    "viz.exact_render",
    "viz.blank_canvas",
    "bench.check",
];

/// Metrics of a traced run (`--trace 1`). A metric whose layer a workload
/// does not run reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Self-times of the spans in `LAYER_SPANS`, same order.
    m("data.generate_s", "s"),
    m("eval.loss_estimator_s", "s"),
    m("stream.spill_write_s", "s"),
    m("stream.decode_s", "s"),
    m("core.sample_s", "s"),
    m("storage.persist_s", "s"),
    m("storage.table_load_s", "s"),
    m("storage.load_s", "s"),
    m("storage.query_s", "s"),
    m("storage.exact_query_s", "s"),
    m("viz.render_s", "s"),
    m("viz.exact_render_s", "s"),
    m("viz.blank_canvas_s", "s"),
    m("bench.check_s", "s"),
    m("unattributed_s", "s"),
    m("trace.wall_s", "s"),
    // vas-stream
    m("stream.spill_bytes_per_point", "bytes/point"),
    m("stream.points_decoded_per_input_point", "ratio"),
    m("stream.crc_failures", "count"),
    m("stream.retries_absorbed", "count"),
    // vas-core
    m("core.accepts", "count"),
    m("core.rejects", "count"),
    m("core.accept_ratio", "ratio"),
    m("core.kernel_lanes_per_reject", "lanes/reject"),
    m("core.phase.candidate_eval_s", "s"),
    m("core.phase.accept_churn_s", "s"),
    // vas-spatial
    m("spatial.grid_cells_occupied", "count"),
    m("spatial.grid_mean_points_per_cell", "points/cell"),
    m("spatial.grid_max_points_per_cell", "points"),
    // vas-par and the sharded build
    m("par.shard_imbalance", "ratio"),
    m("par.phase.shard_fill_s", "s"),
    m("par.phase.shard_merge_s", "s"),
    m("par.contained_panics", "count"),
    // vas-storage
    m("storage.persist_bytes", "bytes"),
    m("storage.query_ms_p50", "ms"),
    m("storage.exact_query_ms_p50", "ms"),
    m("storage.points_per_query", "points"),
    m("storage.exact_points_per_query", "points"),
    // vas-viz
    m("viz.render_ms_p50", "ms"),
    m("viz.exact_render_ms_p50", "ms"),
    m("viz.blank_canvas_ms_p50", "ms"),
    m("viz.render_ns_per_point", "ns/point"),
    // Viewports as the analyst sees them (query plus render), over every
    // zoom level: budgeted, then exact.
    m("session.viz_ms_p50", "ms"),
    m("session.viz_ms_p99", "ms"),
    m("session.exact_viz_ms_p50", "ms"),
    m("session.exact_viz_ms_p90", "ms"),
    // vas-obs / whole run
    m("obs.trace_overhead", "ratio"),
];

/// Metric values of one run, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name`, which must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The metrics of `catalogue` as a JSON object body. End-to-end metrics
    /// must all be set; an unset per-layer metric reads 0 (its layer did not
    /// run).
    pub fn to_json(&self, catalogue: &[MetricDef]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(catalogue.len());
        for def in catalogue {
            let value = match self.get(def.name) {
                Some(v) => v,
                None if catalogue == PER_LAYER => 0.0,
                None => return Err(format!("metric {} was not measured", def.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", def.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}
