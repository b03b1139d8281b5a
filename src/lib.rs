//! # bandwidth-clusters
//!
//! A from-scratch Rust reproduction of *Searching for Bandwidth-Constrained
//! Clusters* (Sukhyun Song, Pete Keleher, Alan Sussman; ICDCS 2011): given
//! `n` Internet hosts and a query `(k, b)`, find `k` hosts whose pairwise
//! available bandwidth is at least `b` — decentralized, accurate, and in
//! polynomial time by treating bandwidth as an approximate tree metric.
//!
//! This facade re-exports the workspace crates:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`metric`] | `bcc-metric` | metric spaces, rational transform, 4PC/ε treeness, Gromov products |
//! | [`embed`] | `bcc-embed` | prediction tree, anchor tree, distance labels (the bandwidth-prediction substrate) |
//! | [`vivaldi`] | `bcc-vivaldi` | Vivaldi coordinates (the baseline embedding) |
//! | [`core`] | `bcc-core` | Algorithms 1–4, bandwidth classes, Euclidean baseline clustering |
//! | [`simnet`] | `bcc-simnet` | round-based simulator, the served `DynamicSystem` (bootstrap, queries, churn) |
//! | [`service`] | `bcc-service` | batched, churn-aware cluster-query serving layer |
//! | [`datasets`] | `bcc-datasets` | synthetic PlanetLab-like datasets with controllable treeness |
//! | [`eval`] | `bcc-eval` | the paper's four experiments (Figs. 3–6) |
//! | [`apps`] | `bcc-apps` | desktop-grid scheduler + CDN replication planner |
//!
//! # Quickstart
//!
//! ```
//! use bandwidth_clusters::prelude::*;
//!
//! // Ground truth: an access-link-bottlenecked deployment.
//! let caps = [100.0f64, 100.0, 100.0, 30.0, 10.0];
//! let bw = BandwidthMatrix::from_fn(5, |i, j| caps[i].min(caps[j]));
//!
//! // Build the full decentralized stack and query it from any host.
//! let classes = BandwidthClasses::new(vec![25.0, 50.0, 75.0], RationalTransform::default());
//! let hosts: Vec<NodeId> = (0..5).map(NodeId::new).collect();
//! let system = DynamicSystem::bootstrap(bw, SystemConfig::new(classes), &hosts)
//!     .expect("every host is in the universe once");
//! let outcome = system.query(NodeId::new(4), 3, 75.0).expect("valid query");
//! assert_eq!(outcome.cluster, Some(vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use bcc_apps as apps;
pub use bcc_core as core;
pub use bcc_datasets as datasets;
pub use bcc_embed as embed;
pub use bcc_eval as eval;
pub use bcc_metric as metric;
pub use bcc_service as service;
pub use bcc_simnet as simnet;
pub use bcc_vivaldi as vivaldi;

/// The types most applications need, in one import.
pub mod prelude {
    pub use bcc_core::{
        find_cluster, max_cluster_size, process_query, BandwidthClasses, ClusterError, ClusterNode,
        ProtocolConfig, QueryOutcome, RetryPolicy,
    };
    pub use bcc_embed::{FrameworkConfig, PredictionFramework};
    pub use bcc_metric::{
        BandwidthMatrix, DistanceMatrix, FiniteMetric, NodeId, RationalTransform,
    };
    pub use bcc_service::{ClusterQuery, ClusterService, ServiceConfig, ServiceError};
    pub use bcc_simnet::{DynamicSystem, FaultPlan, SystemConfig};
}
