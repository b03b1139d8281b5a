//! Replays the committed chaos regression corpus bit-identically.
//!
//! Every artifact under `tests/chaos_corpus/` is a recorded chaos run:
//! seed, universe, explicit schedule and the expected outcome (final
//! digest for passing runs, exact violation for pinned failures). Replay
//! must reproduce the recorded outcome *exactly* — any divergence means
//! the protocol state evolution changed, deliberately or not.
//!
//! To record a new pin after an intentional protocol change:
//!
//! ```sh
//! cargo run --release -p bcc-bench --bin chaos -- \
//!     --seed <seed> --save tests/chaos_corpus/seed<seed>.json
//! ```

use std::path::Path;

use bcc_service::DegradeArtifact;
use bcc_shard::harness::ShardArtifact;
use bcc_simnet::chaos::ReplayArtifact;
use bcc_simnet::{ChaosError, RecoveryArtifact};

/// Replays every `*.json` under `tests/chaos_corpus/<dir>` in name order.
/// `replay` parses the text, re-executes the artifact and returns its
/// re-rendering: an artifact is also a serialization fixpoint, so that
/// must reproduce the committed bytes.
fn replay_corpus(dir: &str, at_least: usize, replay: impl Fn(&str) -> Result<String, ChaosError>) {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/chaos_corpus")
        .join(dir);
    let mut entries: Vec<_> = std::fs::read_dir(&corpus)
        .unwrap_or_else(|e| panic!("{}: {e}", corpus.display()))
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    for path in &entries {
        let text = std::fs::read_to_string(path).expect("readable artifact");
        let rendered = replay(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            rendered,
            text,
            "{}: artifact is not byte-stable under parse → render",
            path.display()
        );
    }
    assert!(
        entries.len() >= at_least,
        "{} unexpectedly small: {} artifacts",
        corpus.display(),
        entries.len()
    );
}

/// Replays under 1, 2 and 8 `bcc-par` threads: budgets and the
/// scatter–gather merge are logical, so no pin may depend on scheduling.
fn under_thread_counts<T>(replay: impl Fn() -> Result<T, ChaosError>) -> Result<(), ChaosError> {
    for threads in [1usize, 2, 8] {
        bcc_par::set_threads(threads);
        replay().map_err(|e| format!("under {threads} thread(s): {e}"))?;
    }
    bcc_par::set_threads(0);
    Ok(())
}

#[test]
fn corpus_replays_bit_identically() {
    replay_corpus("", 3, |text| {
        let artifact = ReplayArtifact::from_json(text)?;
        artifact.replay()?;
        Ok(artifact.to_json())
    });
}

/// The `degrade/` sub-corpus pins whole degraded serving runs: each
/// artifact records a seed, nemesis and budget plus the expected tier mix,
/// breaker transitions and response-stream digest. Replay re-executes the
/// run through `bcc-service` and must land on every recorded counter —
/// and replay must agree across thread counts, because budgets are logical
/// work units, never wall-clock.
///
/// To record a new pin after an intentional change to the degradation
/// model:
///
/// ```sh
/// cargo run --release -p bcc-bench --bin degrade -- \
///     --seed <seed> --nemesis <slow-lane|stall> \
///     --save tests/chaos_corpus/degrade/<name>.json
/// ```
#[test]
fn degrade_corpus_replays_bit_identically() {
    replay_corpus("degrade", 2, |text| {
        let artifact = DegradeArtifact::from_json(text)?;
        under_thread_counts(|| artifact.replay())?;
        Ok(artifact.to_json())
    });
}

/// The `shard/` sub-corpus pins whole sharded-coordinator chaos runs:
/// each artifact records a seed and schedule shape plus the expected
/// exact/degraded/cache-hit/pruned counters and the answer-stream digest
/// accumulated across shard counts {1, 2, 4}. Replay re-executes the run
/// through `bcc-shard` against the unsharded baseline and must land on
/// every recorded counter with zero stale hits and zero divergences —
/// under every thread count, because the scatter–gather merge is
/// canonical and cannot depend on scheduling.
///
/// To record a new pin after an intentional change to the sharding
/// model:
///
/// ```sh
/// cargo run --release -p bcc-bench --bin shard -- \
///     --smoke --seed <seed> --save tests/chaos_corpus/shard/<name>.json
/// ```
#[test]
fn shard_corpus_replays_bit_identically() {
    replay_corpus("shard", 2, |text| {
        let artifact = ShardArtifact::from_json(text)?;
        under_thread_counts(|| artifact.replay())?;
        Ok(artifact.to_json())
    });
}

/// The `recovery/` sub-corpus pins whole kill-restart runs against
/// deliberately faulty storage: each artifact records a seed, the
/// snapshot/kill cadence, torn-write and bit-flip probabilities, and the
/// expected fallback/corruption counters plus the final membership
/// digest. Replay re-executes the schedule through the persistence layer
/// — every injected corruption must be detected, every restart must land
/// on the recorded digest.
///
/// To record a new pin after an intentional change to the snapshot or
/// journal format:
///
/// ```sh
/// cargo run --release -p bcc-bench --bin recovery -- \
///     --seed <seed> --torn 0.5 --flip 0.5 \
///     --save tests/chaos_corpus/recovery/<name>.json
/// ```
#[test]
fn recovery_corpus_replays_bit_identically() {
    replay_corpus("recovery", 2, |text| {
        let artifact = RecoveryArtifact::from_json(text)?;
        artifact.replay()?;
        Ok(artifact.to_json())
    });
}
