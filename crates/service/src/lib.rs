//! `bcc-service`: a batched, churn-aware serving layer for decentralized
//! bandwidth-constrained cluster queries.
//!
//! The crates below this one answer *one* query against *one* overlay
//! state. This crate turns that into a serving discipline for sustained
//! query traffic against a system under churn:
//!
//! - **Admission control** ([`ClusterService::submit`]): requests are
//!   validated at the boundary (typed [`ServiceError::Rejected`]) and held
//!   in a bounded in-flight queue; beyond the bound they are shed with
//!   [`ServiceError::Overloaded`] instead of being silently dropped or
//!   queued unboundedly.
//! - **Batch scheduling** ([`ClusterService::tick`] /
//!   [`ClusterService::drain`]): admitted queries are drained in batches,
//!   identical queries coalesce into one computation, and compatible
//!   queries group into per-bandwidth-class lanes that run in order, and
//!   responses are always returned in submission order.
//! - **Churn-aware caching** ([`ResultCache`]): answers are cached per
//!   `(submit node, k, b-class)` and stamped with the membership epoch
//!   ([`bcc_simnet::DynamicSystem::epoch`]) and live overlay digest
//!   ([`bcc_simnet::DynamicSystem::live_digest`]) they were computed
//!   under. The system memoises that digest per overlay state, so a
//!   batch pays for the stamp once per churn op, not once per batch. Any
//!   churn or fault disturbance changes the stamp and the
//!   entry is invalidated on its next lookup — a stale answer is never
//!   served, and the [`serve_chaos`] harness audits exactly that claim by
//!   recomputing every cached answer under churn-heavy chaos schedules.
//!
//! - **Graceful degradation** ([`Tier`], [`CircuitBreaker`]): queries may
//!   carry a *work budget* in deterministic work units (pairs examined,
//!   never wall-clock). When the budget runs dry the service walks a fixed
//!   fallback ladder — a labeled second-chance stale cache entry
//!   ([`Tier::StaleCache`]), then the kernel's best partial answer
//!   ([`Tier::Partial`]) — and per-class-lane circuit breakers shed
//!   follow-on work with [`ServiceError::CircuitOpen`] after repeated
//!   exhaustions, re-closing via a logical-tick HalfOpen probe. Every
//!   response is labeled with its [`Tier`]; a degraded answer can never
//!   masquerade as exact.
//!
//! Determinism is load-bearing throughout: cached and uncached serving
//! produce bit-identical responses (see `tests/proptest_service.rs`), the
//! chaos harness reports are reproducible from their seed, and degraded
//! runs replay byte-identically because budgets are counted in work, not
//! time.

#![warn(missing_docs)]

mod batch;
mod breaker;
mod cache;
mod degrade;
mod error;
mod harness;
mod service;

pub use batch::{plan, BatchJob, BatchLane};
pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use cache::{CacheKey, CacheStats, ResultCache};
pub use degrade::Tier;
pub use error::ServiceError;
pub use harness::{
    degrade_chaos, seeded_service, serve_chaos, DegradeArtifact, DegradeChaosConfig,
    DegradeChaosReport, DegradeNemesis, ServeChaosConfig, ServeChaosReport, RECLOSE_BOUND,
};
pub use service::{ClusterQuery, ClusterService, ServiceConfig, ServiceResponse, ServiceStats};
