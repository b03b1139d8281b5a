//! Sharded multi-instance serving: a scatter–gather coordinator over
//! anchor-tree regions.
//!
//! One [`ClusterService`](bcc_service::ClusterService) holds the whole
//! membership in one process. This crate horizontally partitions that
//! deployment: a [`ShardPlan`] splits the universe into anchor-tree-lane
//! regions, each [`ShardInstance`] runs a full service (its own dynamic
//! system, epoch, cache and breakers) over its region, and a
//! [`Coordinator`] in front routes region queries `(start, k, b)` to the
//! owning shard — scatter–gathering cross-shard candidates only when the
//! query's bandwidth ball straddles a region boundary.
//!
//! The headline property is **bit-identity**: for every churn schedule
//! and shard count, [`Coordinator::cluster_near`] returns
//! exactly the answer the unsharded
//! [`DynamicSystem::cluster_near`](bcc_simnet::DynamicSystem::cluster_near)
//! returns — same bytes, same error values, no stale reads. The
//! mechanism (global label metric + membership-pure candidate sets +
//! canonical serial merge) is documented on [`Coordinator`]; the shard
//! proptests and the coordinator columns of [`harness::differential`], the
//! chaos run through every tier (it lives here, the one crate that sees
//! them all), pin it.
//!
//! # Quick start
//!
//! ```
//! use bcc_core::BandwidthClasses;
//! use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
//! use bcc_service::ServiceConfig;
//! use bcc_shard::{Coordinator, ShardPlan};
//! use bcc_simnet::SystemConfig;
//!
//! let caps = [100.0f64, 100.0, 100.0, 100.0, 10.0, 10.0];
//! let bw = BandwidthMatrix::from_fn(6, |i, j| caps[i].min(caps[j]));
//! let classes = BandwidthClasses::new(vec![50.0], RationalTransform::default());
//! let hosts: Vec<NodeId> = (0..6).map(NodeId::new).collect();
//!
//! let mut coord = Coordinator::bootstrap(
//!     bw,
//!     SystemConfig::new(classes),
//!     ShardPlan::contiguous(6, 2),
//!     ServiceConfig::default(),
//!     &hosts,
//! )
//! .expect("valid sharded deployment");
//!
//! let resp = coord.cluster_near(NodeId::new(0), 3, 50.0).expect("valid query");
//! assert!(resp.outcome.is_exact());
//! assert!(resp.outcome.cluster().is_some(), "fast hosts cluster");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod coordinator;
mod error;
pub mod harness;
mod instance;
mod plan;

pub use cache::CoordCacheStats;
pub use coordinator::{CoordOutcome, CoordResponse, CoordStats, Coordinator};
pub use error::ShardError;
pub use instance::{ShardInstance, ShardStats};
pub use plan::ShardPlan;
