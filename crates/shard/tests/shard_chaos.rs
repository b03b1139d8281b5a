//! Integration sweep of the sharded chaos harness: multiple seeds, every
//! oracle, plus thread-count independence of the full report.

use bcc_shard::harness::{shard_chaos, ShardArtifact, ShardChaosConfig};
use bcc_simnet::ChaosError;

#[test]
fn chaos_sweep_is_stale_free_and_baseline_identical() {
    let cfg = ShardChaosConfig::default();
    for seed in 0..10 {
        let report = shard_chaos(seed, &cfg);
        assert!(report.queries > 0, "seed {seed}: no workload ran");
        assert_eq!(report.stale_hits, 0, "seed {seed}: stale cached serve");
        assert_eq!(
            report.divergences, 0,
            "seed {seed}: sharded answer diverged from unsharded: {report:?}"
        );
    }
}

#[test]
fn chaos_report_is_thread_count_independent() {
    let cfg = ShardChaosConfig {
        universe: 10,
        steps: 16,
        queries_per_step: 3,
    };
    let run = |threads: usize| {
        bcc_par::set_threads(threads);
        shard_chaos(11, &cfg)
    };
    let reference = run(1);
    for threads in [2, 8] {
        assert_eq!(
            run(threads),
            reference,
            "threads {threads}: report diverged"
        );
    }
    bcc_par::set_threads(0);
}

#[test]
fn artifacts_capture_and_replay_across_seeds() {
    let cfg = ShardChaosConfig {
        universe: 10,
        steps: 12,
        queries_per_step: 3,
    };
    for seed in [3, 17] {
        let (artifact, _) = ShardArtifact::capture(seed, &cfg).expect("oracle-clean run");
        let json = artifact.to_json();
        let parsed = ShardArtifact::from_json(&json).expect("parse");
        assert_eq!(parsed.to_json(), json, "seed {seed}: byte fixpoint");
        parsed
            .replay()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // A record of another kind, another version or no version is not a
        // shard artifact; one that names no digest loads and fails replay.
        for (from, to) in [
            ("\"version\": 1", "\"version\": 2"),
            ("\"kind\": \"shard\"", "\"kind\": \"degrade\""),
            ("  \"version\": 1,\n", ""),
        ] {
            let err = ShardArtifact::from_json(&json.replace(from, to)).unwrap_err();
            assert!(matches!(err, ChaosError::Artifact { .. }), "{err}");
        }
        // So does one that asks for a universe nothing could be built for.
        for bad in [
            json.replace("\"digest\"", "\"other\""),
            json.replace("\"universe\": 10", "\"universe\": 0"),
            json.replace("\"universe\": 10", "\"universe\": 4097"),
            json.replace("\"universe\": 10", &format!("\"universe\": {}", usize::MAX)),
        ] {
            assert_ne!(bad, json);
            let err = ShardArtifact::from_json(&bad)
                .expect("still a record")
                .replay()
                .unwrap_err();
            assert!(matches!(err, ChaosError::Artifact { .. }), "{err}");
        }
    }
}
