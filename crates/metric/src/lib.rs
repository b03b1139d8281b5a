//! Finite metric spaces for bandwidth-constrained clustering.
//!
//! This crate provides the metric-space foundations used throughout the
//! reproduction of *Searching for Bandwidth-Constrained Clusters* (Song,
//! Keleher, Sussman; ICDCS 2011):
//!
//! - [`SymMatrix`], [`DistanceMatrix`] and [`BandwidthMatrix`] — dense
//!   symmetric pairwise data over a node set.
//! - [`RationalTransform`] — the paper's `d(u, v) = C / BW(u, v)` mapping that
//!   turns bandwidth (bigger is better) into a distance (smaller is better),
//!   plus the linear transform used as a strawman in the related-work section.
//! - [`fourpoint`] — the four-point condition (4PC), the per-quartet `ε`
//!   treeness measure of Abraham et al., and exact/sampled `ε_avg`. Each
//!   `O(n⁴)` exact statistic is one serial scan over matrix rows.
//! - [`gromov`] — Gromov products and δ-hyperbolicity, the primitives behind
//!   prediction-tree growth.
//! - [`stats`] — percentiles, empirical CDFs and relative-error summaries used
//!   by the evaluation harness.
//!
//! # Example
//!
//! ```
//! use bcc_metric::{BandwidthMatrix, RationalTransform};
//!
//! // A 3-node system where bandwidth is bottlenecked at access links of
//! // 20, 40 and 100 Mbps: a perfect tree metric.
//! let caps = [20.0f64, 40.0, 100.0];
//! let mut bw = BandwidthMatrix::new(3);
//! for i in 0..3 {
//!     for j in (i + 1)..3 {
//!         bw.set(i, j, caps[i].min(caps[j]));
//!     }
//! }
//! let dist = RationalTransform::default().distance_matrix(&bw);
//! let eps = bcc_metric::fourpoint::epsilon_avg_exact(&dist);
//! assert!(eps < 1e-9, "an access-link bottleneck metric is a tree metric");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod matrix;
mod node;
mod space;
mod transform;

pub mod fourpoint;
pub mod gromov;
pub mod stats;

pub use error::MetricError;
pub use matrix::{BandwidthMatrix, DistanceMatrix, SymMatrix};
pub use node::NodeId;
pub use space::{EuclideanPoints, FiniteMetric, SubsetMetric};
pub use transform::{LinearTransform, RationalTransform, DEFAULT_TRANSFORM_CONSTANT};
