//! Bandwidth-constrained clustering — the primary contribution of
//! *Searching for Bandwidth-Constrained Clusters* (Song, Keleher, Sussman;
//! ICDCS 2011).
//!
//! Given `n` hosts, a pairwise bandwidth function and a query `(k, b)`, find
//! `k` hosts whose pairwise bandwidth is at least `b`. On general graphs
//! this is `k`-Clique; on a tree metric space (which Internet bandwidth
//! approximates) it is polynomial. This crate provides:
//!
//! - [`find_cluster`] / [`max_cluster_size`] — Algorithm 1, the `O(n³)`
//!   centralized search, plus the binary-search variant from Algorithm 3;
//!   [`find_cluster_indexed`] / [`max_cluster_size_indexed`] answer the same
//!   probes from a [`ClusterIndex`], and [`find_cluster_budgeted`] /
//!   [`max_cluster_size_budgeted`] run the sweep under a [`Meter`] — a
//!   [`WorkMeter`] budget, or [`Unmetered`], chosen at compile time —
//!   reading the space through lazily filled rows (as do
//!   [`find_cluster_among`] and every node-local search), so a search
//!   evaluates the distances of the rows it opens and no others, and opens
//!   no pair its row's `k`-th-nearest-neighbour radius rules out.
//!   Every node-local kernel is serial: parallelism lives per lane
//!   (`bcc-service`), per shard (`bcc-shard`) and per run (`bcc-eval`);
//! - [`ClusterNode`] — per-host protocol state implementing Algorithm 2
//!   (close-node aggregation) and Algorithm 3 (cluster routing tables);
//! - [`process_query`] — Algorithm 4, decentralized query routing: one
//!   walk around crashed hosts, under a hop budget ([`RetryPolicy`]) and a
//!   [`Meter`];
//! - [`BandwidthClasses`] — the quantized constraint classes CRTs are keyed
//!   by;
//! - [`find_cluster_euclidean`] — the paper's comparison model: exact
//!   `k`-diameter clustering in the Vivaldi plane via lune decomposition and
//!   bipartite maximum independent sets ([`bipartite`]).
//!
//! # Example: centralized search
//!
//! ```
//! use bcc_core::find_cluster;
//! use bcc_metric::{BandwidthMatrix, RationalTransform};
//!
//! // Hosts 0-2 share 100 Mbps; host 3 is behind a 10 Mbps link.
//! let caps = [100.0f64, 100.0, 100.0, 10.0];
//! let bw = BandwidthMatrix::from_fn(4, |i, j| caps[i].min(caps[j]));
//! let t = RationalTransform::default();
//! let d = t.distance_matrix(&bw);
//!
//! // Query: 3 hosts with pairwise bandwidth >= 50 Mbps.
//! let cluster = find_cluster(&d, 3, t.distance_constraint(50.0));
//! assert_eq!(cluster, Some(vec![0, 1, 2]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bipartite;
pub mod hub;
pub mod sword;

mod classes;
mod error;
mod euclidean;
mod find_cluster;
mod index;
mod node;
mod query;
mod rows;

pub use classes::BandwidthClasses;
pub use error::{ClusterError, QueryError};
pub use euclidean::{find_cluster_euclidean, max_cluster_size_euclidean};
pub use find_cluster::{
    diameter, exists_cluster_brute_force, find_cluster, find_cluster_among, find_cluster_budgeted,
    find_cluster_ordered, max_cluster_size, max_cluster_size_binary_search,
    max_cluster_size_budgeted, min_diameter_cluster, Budgeted, Meter, PairOrder, Unmetered,
    WorkMeter, BUDGET_BLOCK,
};
pub use index::{
    find_cluster_indexed, fnv1a, max_cluster_size_indexed, ClusterIndex, IndexError, IndexStats,
    FNV_OFFSET, FNV_PRIME,
};
pub use node::{ClusterNode, Distances, ProtocolConfig, RoutePolicy};
pub use query::{process_query, Degradation, QueryOutcome, QueryRequest, RetryPolicy};
