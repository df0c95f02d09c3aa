//! # vas-spatial
//!
//! Spatial index substrates used throughout the VAS reproduction.
//!
//! The fixed-radius neighbourhood query at the heart of the `ES+Loc`
//! Interchange variant (Section IV-B, "Speed-Up using the Locality of
//! Proximity function") is abstracted behind the [`LocalityIndex`] trait,
//! with two interchangeable backends:
//!
//! * an **R-tree** — the paper's original choice, also serving region and
//!   nearest-neighbour queries, and
//! * a **spatial hash** ([`HashGrid`]) — cutoff-sized cells in an
//!   open-addressed table, the fastest backend for the Interchange loop's
//!   fixed-radius churn workload (and the default).
//!
//! Runtime backend selection goes through [`LocalityBackend`] /
//! [`AnyLocalityIndex`].
//!
//! A static **k-d tree** ([`KdTree`]) serves the nearest-neighbour pass of
//! the density embedding extension (Section V). We also provide a **uniform
//! grid** over a fixed extent, which backs stratified sampling (the paper's
//! strongest baseline) and the rendering-perception models.
//!
//! All structures are dynamic or cheaply rebuildable, hold `(id, Point)`
//! entries where `id` is an opaque `usize` chosen by the caller, and contain
//! no `unsafe` code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod hashgrid;
pub mod kdtree;
pub mod locality;
pub mod partition;
pub mod rtree;
pub mod snapshot;

pub use grid::UniformGrid;
pub use hashgrid::{GridOccupancy, HashGrid};
pub use kdtree::KdTree;
pub use locality::{AnyLocalityIndex, LocalityBackend, LocalityIndex, NeighborBatch};
pub use partition::ShardPartitioner;
pub use rtree::RTree;
pub use snapshot::{SnapshotError, SnapshotReader};
