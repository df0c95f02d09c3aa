//! The dynamic-reduction visualization query engine.
//!
//! This is the reproduction of the software architecture in Figure 3 of the
//! paper (and of ScalaR's "dynamic reduction" layer): the visualization tool
//! issues a query naming a table, the two columns to plot, an optional value
//! column, an optional range filter (the current viewport) and an optional
//! **point budget**; the engine answers from the full table when no budget is
//! given and from the best pre-built sample otherwise.

use crate::catalog::SampleCatalog;
use crate::table::Table;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use vas_data::{BoundingBox, Point};
use vas_sampling::Sampler;

/// A visualization query issued by the tool.
#[derive(Debug, Clone)]
pub struct VizQuery {
    /// Table to read.
    pub table: String,
    /// Column plotted on the x axis.
    pub x_col: String,
    /// Column plotted on the y axis.
    pub y_col: String,
    /// Optional column encoded by color.
    pub value_col: Option<String>,
    /// Optional viewport filter (`None` = full extent).
    pub region: Option<BoundingBox>,
    /// Optional point budget; `None` requests exact results.
    pub max_points: Option<usize>,
}

impl VizQuery {
    /// A full-extent, exact query over the conventional `x`/`y`/`value`
    /// schema.
    pub fn full(table: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            x_col: "x".into(),
            y_col: "y".into(),
            value_col: Some("value".into()),
            region: None,
            max_points: None,
        }
    }

    /// Restricts the query to a viewport.
    pub fn in_region(mut self, region: BoundingBox) -> Self {
        self.region = Some(region);
        self
    }

    /// Applies a point budget (switches the engine to a pre-built sample).
    pub fn with_budget(mut self, max_points: usize) -> Self {
        self.max_points = Some(max_points);
        self
    }
}

/// The result of a visualization query.
#[derive(Debug, Clone)]
pub struct VizResult {
    /// Points to render.
    pub points: Vec<Point>,
    /// `true` when the answer came from a pre-built sample rather than the
    /// base table.
    pub from_sample: bool,
    /// Size of the source relation the points were filtered from (the full
    /// table row count, or the chosen sample's size).
    pub source_size: usize,
}

/// Errors the engine can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The named table has not been registered.
    UnknownTable(String),
    /// The named column does not exist in the table.
    UnknownColumn(String),
    /// A budgeted query was issued but no sample catalog exists for the
    /// table/column pair (the offline index was never built).
    NoCatalog(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            EngineError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            EngineError::NoCatalog(key) => {
                write!(f, "no sample catalog built for projection {key}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The visualization query engine: registered tables plus per-projection
/// sample catalogs. Reads are lock-free once built (catalogs sit behind an
/// `RwLock` so concurrent query threads can share the engine).
#[derive(Debug, Default)]
pub struct VizEngine {
    tables: BTreeMap<String, Table>,
    catalogs: RwLock<BTreeMap<String, SampleCatalog>>,
}

impl VizEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table.
    pub fn register_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Looks up a registered table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Key identifying a projection's catalog.
    fn projection_key(table: &str, x_col: &str, y_col: &str) -> String {
        format!("{table}:{x_col}x{y_col}")
    }

    /// Validates a projection of a registered table and materializes it as
    /// a dataset — the shared front half of the catalog builders.
    fn projected_dataset(
        &self,
        table: &str,
        x_col: &str,
        y_col: &str,
        value_col: Option<&str>,
    ) -> Result<vas_data::Dataset, EngineError> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        for col in [Some(x_col), Some(y_col), value_col].into_iter().flatten() {
            if t.column(col).is_none() {
                return Err(EngineError::UnknownColumn(col.to_string()));
            }
        }
        Ok(t.to_dataset(x_col, y_col, value_col))
    }

    /// Builds the offline sample catalog for a projection of a registered
    /// table — the paper's index-construction step. `sizes` is the ladder of
    /// sample sizes to materialize and `sampler_factory` chooses the method.
    pub fn build_catalog<S, F>(
        &self,
        table: &str,
        x_col: &str,
        y_col: &str,
        value_col: Option<&str>,
        sizes: &[usize],
        sampler_factory: F,
    ) -> Result<(), EngineError>
    where
        S: Sampler,
        F: FnMut(usize) -> S,
    {
        let dataset = self.projected_dataset(table, x_col, y_col, value_col)?;
        let catalog = SampleCatalog::build(&dataset, sizes, sampler_factory);
        self.catalogs
            .write()
            .insert(Self::projection_key(table, x_col, y_col), catalog);
        Ok(())
    }

    /// The sample sizes available for a projection (empty if no catalog).
    pub fn catalog_sizes(&self, table: &str, x_col: &str, y_col: &str) -> Vec<usize> {
        self.catalogs
            .read()
            .get(&Self::projection_key(table, x_col, y_col))
            .map(SampleCatalog::sizes)
            .unwrap_or_default()
    }

    /// Answers a visualization query.
    ///
    /// * Without a budget the full table is scanned (optionally filtered by
    ///   the viewport region) — exact but slow for large tables.
    /// * With a budget the engine picks the largest pre-built sample that
    ///   fits; if even the smallest sample exceeds the budget, the smallest
    ///   sample is used (rendering something beats rendering nothing).
    pub fn query(&self, q: &VizQuery) -> Result<VizResult, EngineError> {
        let table = self
            .tables
            .get(&q.table)
            .ok_or_else(|| EngineError::UnknownTable(q.table.clone()))?;
        for col in [
            Some(q.x_col.as_str()),
            Some(q.y_col.as_str()),
            q.value_col.as_deref(),
        ]
        .into_iter()
        .flatten()
        {
            if table.column(col).is_none() {
                return Err(EngineError::UnknownColumn(col.to_string()));
            }
        }

        match q.max_points {
            None => {
                let points = match &q.region {
                    Some(region) => {
                        table.scan_region(&q.x_col, &q.y_col, q.value_col.as_deref(), region)
                    }
                    None => table.project(&q.x_col, &q.y_col, q.value_col.as_deref()),
                };
                Ok(VizResult {
                    points,
                    from_sample: false,
                    source_size: table.n_rows(),
                })
            }
            Some(budget) => {
                let key = Self::projection_key(&q.table, &q.x_col, &q.y_col);
                let catalogs = self.catalogs.read();
                let catalog = catalogs
                    .get(&key)
                    .ok_or_else(|| EngineError::NoCatalog(key.clone()))?;
                let sample = catalog
                    .best_within(budget)
                    .or_else(|| catalog.smallest())
                    .ok_or_else(|| EngineError::NoCatalog(key.clone()))?;
                let points = match &q.region {
                    Some(region) => sample.filter_region(region),
                    None => sample.points.clone(),
                };
                Ok(VizResult {
                    points,
                    from_sample: true,
                    source_size: sample.len(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_data::GeolifeGenerator;
    use vas_sampling::UniformSampler;

    fn engine() -> VizEngine {
        let d = GeolifeGenerator::with_size(4_000, 71).generate();
        let mut e = VizEngine::new();
        e.register_table(Table::from_dataset(&d));
        e
    }

    fn table_name() -> String {
        "geolife-sim-4000".to_string()
    }

    #[test]
    fn exact_query_returns_all_rows() {
        let e = engine();
        let r = e.query(&VizQuery::full(table_name())).unwrap();
        assert_eq!(r.points.len(), 4_000);
        assert!(!r.from_sample);
        assert_eq!(r.source_size, 4_000);
    }

    #[test]
    fn region_filter_restricts_rows() {
        let e = engine();
        let full = e.query(&VizQuery::full(table_name())).unwrap();
        let bounds = vas_data::BoundingBox::from_points(&full.points);
        let region = bounds.subregion(0.25, 0.25, 0.75, 0.75);
        let r = e
            .query(&VizQuery::full(table_name()).in_region(region))
            .unwrap();
        assert!(!r.points.is_empty());
        assert!(r.points.len() < full.points.len());
        assert!(r.points.iter().all(|p| region.contains(p)));
    }

    #[test]
    fn budgeted_query_uses_the_catalog() {
        let e = engine();
        e.build_catalog(
            &table_name(),
            "x",
            "y",
            Some("value"),
            &[100, 500, 2_000],
            |k| UniformSampler::new(k, 5),
        )
        .unwrap();
        assert_eq!(
            e.catalog_sizes(&table_name(), "x", "y"),
            vec![100, 500, 2_000]
        );

        let r = e
            .query(&VizQuery::full(table_name()).with_budget(600))
            .unwrap();
        assert!(r.from_sample);
        assert_eq!(r.source_size, 500);
        assert_eq!(r.points.len(), 500);

        // Budget below the smallest sample falls back to the smallest.
        let r = e
            .query(&VizQuery::full(table_name()).with_budget(10))
            .unwrap();
        assert_eq!(r.source_size, 100);
    }

    #[test]
    fn budgeted_query_without_catalog_errors() {
        let e = engine();
        let err = e
            .query(&VizQuery::full(table_name()).with_budget(100))
            .unwrap_err();
        assert!(matches!(err, EngineError::NoCatalog(_)));
        assert!(err.to_string().contains("no sample catalog"));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let e = engine();
        assert!(matches!(
            e.query(&VizQuery::full("nope")).unwrap_err(),
            EngineError::UnknownTable(_)
        ));
        let mut q = VizQuery::full(table_name());
        q.x_col = "missing".into();
        assert!(matches!(
            e.query(&q).unwrap_err(),
            EngineError::UnknownColumn(_)
        ));
        assert!(matches!(
            e.build_catalog(&table_name(), "x", "bogus", None, &[10], |k| {
                UniformSampler::new(k, 0)
            })
            .unwrap_err(),
            EngineError::UnknownColumn(_)
        ));
    }

    #[test]
    fn budgeted_region_query_filters_the_sample() {
        let e = engine();
        e.build_catalog(&table_name(), "x", "y", Some("value"), &[1_000], |k| {
            UniformSampler::new(k, 5)
        })
        .unwrap();
        let full = e.query(&VizQuery::full(table_name())).unwrap();
        let bounds = vas_data::BoundingBox::from_points(&full.points);
        let region = bounds.subregion(0.4, 0.4, 0.6, 0.6);
        let r = e
            .query(
                &VizQuery::full(table_name())
                    .with_budget(1_000)
                    .in_region(region),
            )
            .unwrap();
        assert!(r.from_sample);
        assert!(r.points.iter().all(|p| region.contains(p)));
        assert!(r.points.len() <= 1_000);
    }

    #[test]
    fn table_registration_and_lookup() {
        let e = engine();
        assert_eq!(
            e.tables.keys().cloned().collect::<Vec<_>>(),
            vec![table_name()]
        );
        assert!(e.table(&table_name()).is_some());
        assert!(e.table("missing").is_none());
    }
}
