//! Generation-based snapshot store with write-ahead journaling.
//!
//! The store keeps the last few snapshot *generations* plus one op
//! journal per generation. Normal operation alternates `snapshot` (a
//! full checkpoint, opening a fresh journal) with `log` (one appended
//! frame per churn event). Recovery walks the generations newest-first,
//! restores the first one whose bytes verify, then replays every
//! journal from that generation forward through the ordinary
//! incremental churn path — so a corrupted newest snapshot costs
//! nothing but a longer replay, never correctness.

use bcc_metric::{BandwidthMatrix, NodeId};

use super::error::PersistError;
use super::journal::{decode_records, encode_record, JournalRecord};
use super::snapshot::SystemSnapshot;
use super::storage::Storage;
use crate::churn::{ChurnError, ChurnOp, DynamicSystem};
use crate::config::SystemConfig;

/// Key prefix for snapshot blobs (`snapshot.<generation>`).
pub(crate) const SNAPSHOT_PREFIX: &str = "snapshot.";
/// Key prefix for journal blobs (`journal.<generation>`).
pub(crate) const JOURNAL_PREFIX: &str = "journal.";

fn snapshot_key(generation: u64) -> String {
    format!("{SNAPSHOT_PREFIX}{generation:020}")
}

fn journal_key(generation: u64) -> String {
    format!("{JOURNAL_PREFIX}{generation:020}")
}

/// What a recovery actually did: which generation served as the base,
/// which newer generations had to be skipped (and why), and how much
/// journal replay was needed.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The snapshot generation the recovery restored from.
    pub generation: u64,
    /// Newer generations that failed verification, newest first, with
    /// the error that disqualified each.
    pub skipped_generations: Vec<(u64, PersistError)>,
    /// Journaled churn ops replayed on top of the base snapshot.
    pub replayed_ops: usize,
    /// Byte offset of a torn tail in the *final* journal, if one was
    /// tolerated (a crash mid-append).
    pub journal_truncated_at: Option<usize>,
}

/// Durability front-end for a [`DynamicSystem`]: checksummed snapshot
/// generations plus a write-ahead op journal, over any [`Storage`].
#[derive(Debug)]
pub struct SnapshotStore<S: Storage> {
    storage: S,
    current_gen: u64,
    retain: usize,
}

impl<S: Storage> SnapshotStore<S> {
    /// A store retaining the default two snapshot generations.
    pub fn new(storage: S) -> Self {
        Self::with_retain(storage, 2)
    }

    /// A store retaining the last `retain` generations (at least one).
    pub fn with_retain(storage: S, retain: usize) -> Self {
        SnapshotStore {
            storage,
            current_gen: 0,
            retain: retain.max(1),
        }
    }

    /// The backing storage.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// The backing storage, mutably (tests use this to corrupt blobs).
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// The most recent snapshot generation, 0 before any snapshot.
    pub fn latest_generation(&self) -> u64 {
        self.current_gen
    }

    /// Takes a full checkpoint of `sys`, opens a fresh journal for the
    /// new generation, and prunes generations older than the retention
    /// window. Returns the new generation number.
    pub fn snapshot(&mut self, sys: &DynamicSystem) -> u64 {
        self.current_gen += 1;
        let g = self.current_gen;
        self.storage
            .put(&snapshot_key(g), SystemSnapshot::capture(sys).encode());
        self.storage.put(&journal_key(g), Vec::new());
        if let Some(cutoff) = g.checked_sub(self.retain as u64) {
            for old in (1..=cutoff).rev() {
                let key = snapshot_key(old);
                if self.storage.get(&key).is_none() {
                    break; // older generations were pruned earlier
                }
                self.storage.delete(&key);
                self.storage.delete(&journal_key(old));
            }
        }
        g
    }

    /// Journals one applied churn op. `epoch` is the system epoch *after*
    /// the op (`sys.epoch()`), used to cross-check replay.
    pub fn log(&mut self, op: ChurnOp, host: NodeId, epoch: u64) {
        let rec = JournalRecord {
            op,
            host: host.index() as u32,
            epoch,
        };
        self.storage
            .append(&journal_key(self.current_gen), &encode_record(&rec));
    }

    /// Recovers a live system: restores the newest snapshot generation
    /// that verifies, then replays the journals from that generation
    /// through the current one. Generations whose snapshots fail any
    /// check are skipped (recorded in the report); if none verifies the
    /// recovery fails with [`PersistError::NoValidSnapshot`].
    pub fn recover(
        &self,
        bandwidth: &BandwidthMatrix,
        config: &SystemConfig,
    ) -> Result<(DynamicSystem, RecoveryReport), PersistError> {
        let mut skipped = Vec::new();
        for g in (1..=self.current_gen).rev() {
            let Some(bytes) = self.storage.get(&snapshot_key(g)) else {
                continue; // pruned or never written
            };
            let sys = SystemSnapshot::decode(&bytes).and_then(|s| s.restore(bandwidth, config));
            match sys {
                Ok(mut sys) => {
                    let (replayed_ops, journal_truncated_at) = self.replay_journals(&mut sys, g)?;
                    return Ok((
                        sys,
                        RecoveryReport {
                            generation: g,
                            skipped_generations: skipped,
                            replayed_ops,
                            journal_truncated_at,
                        },
                    ));
                }
                Err(e) => skipped.push((g, e)),
            }
        }
        Err(PersistError::NoValidSnapshot)
    }

    /// Replays the journals of generations `base..=current` onto `sys`.
    /// Only the final journal may have a torn tail; earlier journals
    /// were sealed by their successor's snapshot, so damage there is a
    /// hard [`PersistError::TruncatedJournal`].
    fn replay_journals(
        &self,
        sys: &mut DynamicSystem,
        base: u64,
    ) -> Result<(usize, Option<usize>), PersistError> {
        let mut replayed = 0;
        let mut truncated_at = None;
        for g in base..=self.current_gen {
            let bytes = self.storage.get(&journal_key(g)).unwrap_or_default();
            let strict = g != self.current_gen;
            let (records, torn) = decode_records(&bytes, strict)?;
            truncated_at = torn;
            for rec in &records {
                replay_op(sys, rec)?;
                replayed += 1;
            }
        }
        Ok((replayed, truncated_at))
    }
}

/// Applies one journaled op with the live churn semantics: embed-level
/// rejections are benign skips (chaos schedules journal e.g. double
/// joins exactly as the live system skipped them), but the post-op epoch
/// must then match the journaled epoch — any divergence means the replay
/// is not reproducing the original run.
fn replay_op(sys: &mut DynamicSystem, rec: &JournalRecord) -> Result<(), PersistError> {
    match sys.apply(rec.op, rec.node()) {
        Ok(()) | Err(ChurnError::Embed(_)) => {}
        Err(e @ (ChurnError::Convergence { .. } | ChurnError::Index(_))) => {
            return Err(PersistError::Malformed {
                detail: format!("journal replay failed: {e}"),
            });
        }
    }
    if sys.epoch() != rec.epoch {
        return Err(PersistError::Malformed {
            detail: format!(
                "journal replay diverged: epoch {} after op, journal says {}",
                sys.epoch(),
                rec.epoch
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{chaos_classes, seeded_universe};
    use crate::persist::storage::MemStorage;

    fn setup(universe: usize, hosts: usize) -> (DynamicSystem, BandwidthMatrix, SystemConfig) {
        let bandwidth = seeded_universe(11, universe);
        let config = SystemConfig::new(chaos_classes());
        let hosts: Vec<NodeId> = (0..hosts).map(NodeId::new).collect();
        let sys = DynamicSystem::bootstrap(bandwidth.clone(), config.clone(), &hosts).unwrap();
        (sys, bandwidth, config)
    }

    fn apply_and_log(
        store: &mut SnapshotStore<MemStorage>,
        sys: &mut DynamicSystem,
        op: ChurnOp,
        host: usize,
    ) {
        let host = NodeId::new(host);
        sys.apply(op, host).unwrap();
        store.log(op, host, sys.epoch());
    }

    #[test]
    fn snapshot_plus_journal_replay_matches_live_state() {
        let (mut sys, bandwidth, config) = setup(10, 5);
        let mut store = SnapshotStore::new(MemStorage::new());
        store.snapshot(&sys);
        apply_and_log(&mut store, &mut sys, ChurnOp::Join, 6);
        apply_and_log(&mut store, &mut sys, ChurnOp::Crash, 1);
        apply_and_log(&mut store, &mut sys, ChurnOp::Recover, 1);
        apply_and_log(&mut store, &mut sys, ChurnOp::Leave, 0);

        let (recovered, report) = store.recover(&bandwidth, &config).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.replayed_ops, 4);
        assert!(report.skipped_generations.is_empty());
        assert_eq!(report.journal_truncated_at, None);
        assert_eq!(recovered.epoch(), sys.epoch());
        assert_eq!(recovered.live_digest(), sys.live_digest());
        assert_eq!(recovered.index_stamp(), sys.index_stamp());
    }

    #[test]
    fn corrupted_newest_snapshot_falls_back_one_generation() {
        let (mut sys, bandwidth, config) = setup(10, 5);
        let mut store = SnapshotStore::new(MemStorage::new());
        store.snapshot(&sys);
        apply_and_log(&mut store, &mut sys, ChurnOp::Join, 6);
        let g2 = store.snapshot(&sys);
        apply_and_log(&mut store, &mut sys, ChurnOp::Crash, 2);

        // Flip one bit in the newest snapshot.
        let key = format!("{SNAPSHOT_PREFIX}{g2:020}");
        let mut bytes = store.storage().get(&key).unwrap();
        bytes[100] ^= 0x08;
        store.storage_mut().put(&key, bytes);

        let (recovered, report) = store.recover(&bandwidth, &config).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.skipped_generations.len(), 1);
        assert_eq!(report.skipped_generations[0].0, g2);
        // The fallback replays the whole suffix: gen-1's journal plus
        // gen-2's.
        assert_eq!(report.replayed_ops, 2);
        assert_eq!(recovered.live_digest(), sys.live_digest());
        assert_eq!(recovered.epoch(), sys.epoch());
    }

    #[test]
    fn torn_final_journal_recovers_the_valid_prefix() {
        let (mut sys, bandwidth, config) = setup(10, 5);
        let mut store = SnapshotStore::new(MemStorage::new());
        store.snapshot(&sys);
        let pre_tear = {
            apply_and_log(&mut store, &mut sys, ChurnOp::Join, 6);
            (sys.epoch(), sys.live_digest())
        };
        apply_and_log(&mut store, &mut sys, ChurnOp::Crash, 0);

        // Tear the live journal mid-frame, as a crash during append would.
        let key = format!("{JOURNAL_PREFIX}{:020}", store.latest_generation());
        let mut bytes = store.storage().get(&key).unwrap();
        bytes.truncate(bytes.len() - 7);
        store.storage_mut().put(&key, bytes);

        let (recovered, report) = store.recover(&bandwidth, &config).unwrap();
        assert_eq!(report.replayed_ops, 1);
        assert!(report.journal_truncated_at.is_some());
        assert_eq!((recovered.epoch(), recovered.live_digest()), pre_tear);
    }

    #[test]
    fn all_generations_corrupt_is_no_valid_snapshot() {
        let (sys, bandwidth, config) = setup(8, 4);
        let mut store = SnapshotStore::new(MemStorage::new());
        let mut empty = SnapshotStore::new(MemStorage::new());
        assert_eq!(
            empty.recover(&bandwidth, &config).unwrap_err(),
            PersistError::NoValidSnapshot
        );
        // `empty` is mutable only to exercise both store halves; silence
        // nothing, snapshot through it once to show recovery then works.
        empty.snapshot(&sys);
        assert!(empty.recover(&bandwidth, &config).is_ok());

        for _ in 0..2 {
            store.snapshot(&sys);
        }
        for key in store.storage().keys() {
            if key.starts_with(SNAPSHOT_PREFIX) {
                let mut bytes = store.storage().get(&key).unwrap();
                bytes.truncate(bytes.len() / 2);
                store.storage_mut().put(&key, bytes);
            }
        }
        let err = store.recover(&bandwidth, &config).unwrap_err();
        assert_eq!(err, PersistError::NoValidSnapshot);
    }

    #[test]
    fn retention_prunes_old_generations() {
        let (mut sys, bandwidth, config) = setup(10, 4);
        let mut store = SnapshotStore::with_retain(MemStorage::new(), 2);
        for i in 0..5 {
            apply_and_log(&mut store, &mut sys, ChurnOp::Join, 4 + i);
            store.snapshot(&sys);
        }
        let snapshots: Vec<String> = store
            .storage()
            .keys()
            .into_iter()
            .filter(|k| k.starts_with(SNAPSHOT_PREFIX))
            .collect();
        assert_eq!(snapshots, vec![snapshot_key(4), snapshot_key(5)]);
        let (recovered, report) = store.recover(&bandwidth, &config).unwrap();
        assert_eq!(report.generation, 5);
        assert_eq!(recovered.live_digest(), sys.live_digest());
    }

    #[test]
    fn replay_divergence_is_detected() {
        let (mut sys, bandwidth, config) = setup(8, 4);
        let mut store = SnapshotStore::new(MemStorage::new());
        store.snapshot(&sys);
        sys.join(NodeId::new(5)).unwrap();
        // Journal a *wrong* post-op epoch.
        store.log(ChurnOp::Join, NodeId::new(5), sys.epoch() + 7);
        let err = store.recover(&bandwidth, &config).unwrap_err();
        assert!(matches!(err, PersistError::Malformed { .. }), "{err}");
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    #[test]
    fn damaged_middle_journal_is_fatal() {
        let (mut sys, bandwidth, config) = setup(10, 5);
        let mut store = SnapshotStore::with_retain(MemStorage::new(), 3);
        store.snapshot(&sys);
        apply_and_log(&mut store, &mut sys, ChurnOp::Join, 6);
        let g2 = store.snapshot(&sys);
        apply_and_log(&mut store, &mut sys, ChurnOp::Join, 7);
        store.snapshot(&sys);

        // Corrupt gen-2's snapshot (forcing fallback to gen 1) *and* tear
        // gen-1's journal, which replay must then treat as fatal.
        let snap3 = snapshot_key(3);
        let mut bytes = store.storage().get(&snap3).unwrap();
        bytes[40] ^= 0x01;
        store.storage_mut().put(&snap3, bytes);
        let snap2 = snapshot_key(g2);
        let mut bytes = store.storage().get(&snap2).unwrap();
        bytes[40] ^= 0x01;
        store.storage_mut().put(&snap2, bytes);
        let j1 = journal_key(1);
        let mut bytes = store.storage().get(&j1).unwrap();
        bytes.truncate(bytes.len() - 3);
        store.storage_mut().put(&j1, bytes);

        let err = store.recover(&bandwidth, &config).unwrap_err();
        assert!(
            matches!(err, PersistError::TruncatedJournal { .. }),
            "{err}"
        );
    }
}
