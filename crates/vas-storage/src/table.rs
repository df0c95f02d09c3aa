//! A minimal in-memory columnar table.
//!
//! The store only needs what the visualization workload of the paper needs:
//! numeric columns, full scans, range-predicate filters on the plotted
//! columns, and projection of a column pair (plus an optional value column)
//! into plot [`Point`]s. Everything is `f64`; visualization queries in the
//! paper are over continuous ranges, not categorical data.

use std::collections::BTreeMap;
use vas_data::{BoundingBox, Dataset, Point};

/// An immutable, column-major table of `f64` values.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: BTreeMap<String, Vec<f64>>,
    n_rows: usize,
}

impl Table {
    /// Builds a table from named columns.
    ///
    /// # Panics
    /// Panics if no columns are supplied or the columns have differing
    /// lengths.
    pub fn new(name: impl Into<String>, columns: Vec<(String, Vec<f64>)>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        let n_rows = columns[0].1.len();
        for (col_name, values) in &columns {
            assert_eq!(
                values.len(),
                n_rows,
                "column {col_name} has {} rows, expected {n_rows}",
                values.len()
            );
        }
        Self {
            name: name.into(),
            columns: columns.into_iter().collect(),
            n_rows,
        }
    }

    /// Builds the conventional three-column (`x`, `y`, `value`) table from a
    /// point dataset — the shape of the Geolife table in the paper.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        Self::new(
            dataset.name.clone(),
            vec![
                (
                    "x".to_string(),
                    dataset.points.iter().map(|p| p.x).collect(),
                ),
                (
                    "y".to_string(),
                    dataset.points.iter().map(|p| p.y).collect(),
                ),
                (
                    "value".to_string(),
                    dataset.points.iter().map(|p| p.value).collect(),
                ),
            ],
        )
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The values of a column, or `None` if it does not exist.
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns.get(name).map(Vec::as_slice)
    }

    /// Projects two columns (and an optional value column) into plot points.
    ///
    /// # Panics
    /// Panics if a named column does not exist.
    pub fn project(&self, x_col: &str, y_col: &str, value_col: Option<&str>) -> Vec<Point> {
        let xs = self
            .column(x_col)
            .unwrap_or_else(|| panic!("no such column: {x_col}"));
        let ys = self
            .column(y_col)
            .unwrap_or_else(|| panic!("no such column: {y_col}"));
        let values = value_col.map(|c| {
            self.column(c)
                .unwrap_or_else(|| panic!("no such column: {c}"))
        });
        (0..self.n_rows)
            .map(|i| Point::with_value(xs[i], ys[i], values.map_or(0.0, |v| v[i])))
            .collect()
    }

    /// Projects two columns restricted to rows whose (x, y) pair falls inside
    /// `region` — the "tool-generated query" of the paper's Figure 3, i.e.
    /// `SELECT x, y, value FROM t WHERE x BETWEEN … AND y BETWEEN …`.
    pub fn scan_region(
        &self,
        x_col: &str,
        y_col: &str,
        value_col: Option<&str>,
        region: &BoundingBox,
    ) -> Vec<Point> {
        self.project(x_col, y_col, value_col)
            .into_iter()
            .filter(|p| region.contains(p))
            .collect()
    }

    /// Converts the projection of the whole table into a [`Dataset`] (used to
    /// hand the table to the offline samplers).
    pub fn to_dataset(&self, x_col: &str, y_col: &str, value_col: Option<&str>) -> Dataset {
        Dataset::from_points(
            format!("{}:{}x{}", self.name, x_col, y_col),
            self.project(x_col, y_col, value_col),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_data::GeolifeGenerator;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("x".into(), vec![0.0, 1.0, 2.0, 3.0]),
                ("y".into(), vec![0.0, 10.0, 20.0, 30.0]),
                ("alt".into(), vec![5.0, 6.0, 7.0, 8.0]),
            ],
        )
    }

    #[test]
    fn construction_and_metadata() {
        let t = table();
        assert_eq!(t.name(), "t");
        assert_eq!(t.n_rows(), 4);
        assert!(t.columns.keys().eq(["alt", "x", "y"]));
        assert_eq!(t.column("x").unwrap(), &[0.0, 1.0, 2.0, 3.0]);
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn projection_with_and_without_value() {
        let t = table();
        let pts = t.project("x", "y", Some("alt"));
        assert_eq!(pts[2], Point::with_value(2.0, 20.0, 7.0));
        let no_val = t.project("x", "y", None);
        assert_eq!(no_val[2], Point::new(2.0, 20.0));
    }

    #[test]
    fn scan_region_filters_rows() {
        let t = table();
        let region = BoundingBox::new(0.5, 5.0, 2.5, 25.0);
        let pts = t.scan_region("x", "y", Some("alt"), &region);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| region.contains(p)));
    }

    #[test]
    fn from_dataset_round_trips() {
        let d = GeolifeGenerator::with_size(500, 3).generate();
        let t = Table::from_dataset(&d);
        assert_eq!(t.n_rows(), 500);
        let back = t.to_dataset("x", "y", Some("value"));
        assert_eq!(back.points, d.points);
    }

    #[test]
    #[should_panic(expected = "expected 4")]
    fn mismatched_column_lengths_rejected() {
        let _ = Table::new(
            "bad",
            vec![("x".into(), vec![0.0; 4]), ("y".into(), vec![0.0; 3])],
        );
    }

    #[test]
    #[should_panic(expected = "no such column")]
    fn unknown_column_panics() {
        let _ = table().project("x", "nope", None);
    }
}
