//! # vas-spatial
//!
//! Spatial index substrates used throughout the VAS reproduction.
//!
//! The fixed-radius neighbourhood query at the heart of the `ES+Loc`
//! Interchange variant (Section IV-B, "Speed-Up using the Locality of
//! Proximity function") is answered by a **spatial hash** ([`HashGrid`]):
//! cutoff-sized cells in an open-addressed table, which keeps up with the
//! loop's insert/remove churn and hands neighbourhoods out in a
//! deterministic order, one at a time or as struct-of-arrays lanes
//! ([`NeighborBatch`]). The paper uses an R-tree here; any exact range index
//! gives the same sample, and the grid is the faster one on this workload.
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
pub mod partition;
pub mod snapshot;

pub use grid::UniformGrid;
pub use hashgrid::{GridOccupancy, HashGrid, NeighborBatch};
pub use kdtree::KdTree;
pub use partition::ShardPartitioner;
pub use snapshot::{SnapshotError, SnapshotReader};
