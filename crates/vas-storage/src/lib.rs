//! # vas-storage
//!
//! The data-management substrate of the reproduction: an in-memory columnar
//! store, an offline sample catalog, and a ScalaR-style *dynamic reduction*
//! query engine.
//!
//! The paper's architecture (Figure 3) places an RDBMS behind the
//! visualization tool; the tool issues a query naming the columns to plot and
//! a filter range, and the database answers either from the full table or —
//! when a latency bound is in force — from one of several **pre-built
//! samples** kept alongside the table (Section II-D describes VAS as "a
//! specialized index designed for visualization workloads"). This crate
//! implements that path end to end:
//!
//! * [`table`] — a minimal columnar [`Table`] with range-filter
//!   scans and column-pair projection into plot points.
//! * [`catalog`] — the [`SampleCatalog`]: per
//!   (table, column-pair) a ladder of offline samples of increasing size,
//!   built with any [`Sampler`](vas_sampling::Sampler).
//! * [`engine`] — the [`VizEngine`]: accepts
//!   [`VizQuery`]s carrying an optional point budget and
//!   answers them from the smallest adequate source, exactly like ScalaR's
//!   dynamic-reduction layer.
//! * [`persist`] — durable storage of catalogs (JSON manifest + compact
//!   binary point files), so the offline index survives restarts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod engine;
pub mod persist;
pub mod table;

pub use catalog::SampleCatalog;
pub use engine::{VizEngine, VizQuery, VizResult};
pub use persist::{load_catalog, save_catalog, save_catalog_recorded};
pub use table::Table;
