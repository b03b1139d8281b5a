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
use bcc_shard::harness::DifferentialArtifact;
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
/// run through `bcc-service` and must land on every recorded counter:
/// budgets are logical work units, never wall-clock.
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
        artifact.replay()?;
        Ok(artifact.to_json())
    });
}

/// The `differential/` sub-corpus pins whole runs of a simnet schedule
/// through every tier: each artifact records the seed and the explicit
/// schedule, the reference's final digest, every column's counters (the
/// service's, the coordinators' summed over shard counts {1, 2, 4}, the
/// kill-restart column's, the rejected-op probes') and the digest of the
/// reference's answer stream. Replay re-runs the schedule and must land on
/// every recorded field, with every oracle at zero.
///
/// To record a new pin after an intentional change to any tier:
///
/// ```sh
/// cargo run --release -p bcc-bench --bin shard -- \
///     --seed <seed> --save tests/chaos_corpus/differential/seed<seed>.json
/// ```
#[test]
fn differential_corpus_replays_bit_identically() {
    replay_corpus("differential", 2, |text| {
        let artifact = DifferentialArtifact::from_json(text)?;
        let report = artifact.replay()?;
        assert_eq!(report.violation, None);
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
