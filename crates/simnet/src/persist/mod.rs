//! Durability for [`DynamicSystem`]: checksummed snapshots, a
//! write-ahead op journal, corruption-tolerant recovery, and the
//! kill-restart chaos tier that proves all of it.
//!
//! The layer is built around three ideas:
//!
//! 1. **Snapshots are self-verifying.** A [`SystemSnapshot`] is a
//!    canonical binary encoding (versioned header, per-section FNV-1a
//!    checksums) of everything the runtime cannot regenerate cheaply;
//!    [`SystemSnapshot::restore`] re-checks the captured epoch, index
//!    digest and live overlay digest after reassembly, so a restore
//!    either reproduces the killed system bit-for-bit or fails loudly.
//! 2. **Recovery is replay.** Between snapshots, every churn event
//!    appends one checksummed frame to the op journal; recovery loads
//!    the newest valid snapshot generation and replays the journal
//!    suffix through the same incremental churn path the live system
//!    used ([`SnapshotStore::recover`]).
//! 3. **Corruption is expected.** Torn writes and bit flips — injected
//!    deterministically by [`FaultyStorage`] under a
//!    [`StorageFaultPlan`] — are detected by the checksums and answered
//!    by falling back to the previous retained generation; a damaged
//!    snapshot costs a longer replay, never a wrong state.
//!
//! [`run_recovery_schedule`] closes the loop: it kills a live system
//! mid-chaos-schedule, recovers it from storage, and requires digest
//! equality (recovered == pre-kill == cold restart) plus zero
//! from-scratch index builds before the schedule continues.
//!
//! [`DynamicSystem`]: crate::DynamicSystem

mod codec;
mod error;
mod journal;
mod recovery;
mod snapshot;
mod storage;
mod store;

pub use crate::churn::ChurnOp;
pub use error::PersistError;
pub use journal::JournalRecord;
pub use recovery::{run_recovery_schedule, RecoveryArtifact, RecoveryConfig, RecoveryOutcome};
pub use snapshot::{SystemSnapshot, SNAPSHOT_VERSION};
pub use storage::{FaultyStorage, MemStorage, Storage, StorageFaultPlan};
pub use store::{RecoveryReport, SnapshotStore};
