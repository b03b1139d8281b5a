//! Deterministic round-based network simulator for the clustering protocol.
//!
//! A PeerSim-equivalent substrate: [`SimNetwork`] runs the gossip protocol
//! (Algorithms 2 and 3) in synchronous rounds over an anchor-tree overlay
//! and answers decentralized queries (Algorithm 4) with hop accounting.
//! [`DynamicSystem`] assembles measurements → prediction framework →
//! converged overlay ([`DynamicSystem::bootstrap`] in one call) and keeps
//! it converged under join/leave churn; it is the system every figure,
//! tool and serving layer runs on.
//! Messages are serialized through [`Message`] so traffic is charged its
//! real wire size.
//!
//! There is one protocol state, one send rule and two clocks.
//! [`AsyncNetwork`] holds a [`SimNetwork`] and reschedules its message
//! builders, delivery path and space-change gate on jittered per-node
//! timers and random link latencies; it keeps only the event queue, the
//! clock and its draws. The gate keeps no state of its own: each
//! [`bcc_core::ClusterNode`] keeps its clustering space and reports when
//! its local maxima are stale for it. Digests, queries, the trace and crash status are
//! read through [`AsyncNetwork::network`], so the two schedules are
//! compared on the same state. The churn path's focused repair and the
//! event engine's timers send a neighbor a report only when it differs
//! from the record that neighbor holds (the dynamic aggregations of
//! Algorithms 2 and 3), so the timers fall quiet at the fixpoint and
//! [`AsyncNetwork::run_to_quiescence`] returns the exact time of the last
//! delivery.
//!
//! For robustness studies, a seedable [`FaultPlan`] schedules crashes,
//! recoveries, partitions and link disturbances; both clocks consume it
//! through its [`PlannedInjector`], and
//! every query reroutes around dead hosts in one walk.
//!
//! # Example
//!
//! ```
//! use bcc_core::BandwidthClasses;
//! use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
//! use bcc_simnet::{DynamicSystem, SystemConfig};
//!
//! // Three fast hosts and a slow one, access-link bottlenecked.
//! let caps = [100.0f64, 100.0, 100.0, 10.0];
//! let bw = BandwidthMatrix::from_fn(4, |i, j| caps[i].min(caps[j]));
//! let classes = BandwidthClasses::new(vec![50.0], RationalTransform::default());
//! let hosts: Vec<NodeId> = (0..4).map(NodeId::new).collect();
//! let system = DynamicSystem::bootstrap(bw, SystemConfig::new(classes), &hosts)
//!     .expect("hosts in the universe, overlay converges");
//!
//! let out = system.query(NodeId::new(3), 3, 50.0).expect("valid query");
//! assert!(out.found());
//! ```
//!
//! # Fault injection
//!
//! A [`FaultPlan`] is a declarative, seeded fault schedule (ticks = rounds
//! on [`SimNetwork`], seconds on [`AsyncNetwork`]). Here the overlay runs
//! under 20 % background loss, one fast host crash-stops mid-run, and a
//! failure-aware query routes around the corpse:
//!
//! ```
//! use bcc_core::{BandwidthClasses, ProtocolConfig, RetryPolicy, Unmetered};
//! use bcc_embed::{FrameworkConfig, PredictionFramework};
//! use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
//! use bcc_simnet::{FaultPlan, SimNetwork};
//!
//! let caps = [100.0f64, 100.0, 100.0, 100.0, 10.0, 10.0];
//! let bw = BandwidthMatrix::from_fn(6, |i, j| caps[i].min(caps[j]));
//! let d = RationalTransform::default().distance_matrix(&bw);
//! let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
//! let classes = BandwidthClasses::new(vec![50.0], RationalTransform::default());
//! let mut net = SimNetwork::new(fw.anchor(), fw.predicted_matrix(),
//!     ProtocolConfig::new(4, classes));
//!
//! let plan = FaultPlan::new(42)
//!     .uniform_loss(0.0, 0.2, None)          // 20 % loss, never heals
//!     .crash(30.0, NodeId::new(1));          // crash-stop at round 30
//! net.inject_faults(&plan);
//! for _ in 0..40 {
//!     net.run_round();
//! }
//! net.run_to_convergence(400).expect("survivors settle");
//!
//! assert!(net.is_down(NodeId::new(1)));
//! let out = net
//!     .query_resilient(NodeId::new(0), 3, 50.0, &RetryPolicy::default(), &mut Unmetered)
//!     .expect("valid query")
//!     .into_value();
//! let cluster = out.cluster.expect("three fast hosts survive");
//! assert!(!cluster.contains(&NodeId::new(1)), "dead host never returned");
//! assert!(net.traffic().dropped > 0, "losses are accounted");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
mod churn;
mod codec;
mod config;
mod engine;
mod event;
mod fault;
mod json;
pub mod persist;
mod store;
mod trace;
mod wire;

pub use chaos::{
    capture, generate_schedule, nemesis_hook, run_schedule, run_schedule_with,
    run_schedule_with_stats, shrink_schedule, ChaosConfig, ChaosError, ChaosEvent, ChaosOutcome,
    OracleStats, ReplayArtifact, Violation,
};
pub use churn::{fw_label_dist, ChurnError, ChurnOp, DynamicSystem, OverlayStats, RebuildCost};
pub use config::{ConfigError, SystemConfig};
pub use engine::{NodeGossipState, OverlayDelta, SimNetwork, TrafficStats};
pub use event::{AsyncConfig, AsyncNetwork};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultTransition, MessageFate, PlannedInjector};
pub use persist::{
    run_recovery_schedule, FaultyStorage, JournalRecord, MemStorage, PersistError,
    RecoveryArtifact, RecoveryConfig, RecoveryOutcome, RecoveryReport, SnapshotStore, Storage,
    StorageFaultPlan, SystemSnapshot,
};
pub use trace::{Trace, TraceEvent, TraceKind};
pub use wire::Message;
