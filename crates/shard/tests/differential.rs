//! Integration sweep of the differential chaos run: multiple seeds, every
//! oracle, the reference equal to the simnet run, and replay artifacts
//! that reject hostile edits.

use bcc_shard::harness::{differential, DifferentialArtifact};
use bcc_simnet::{generate_schedule, run_schedule, ChaosConfig, ChaosError, ChaosOutcome};

#[test]
fn every_tier_agrees_with_the_reference_across_seeds() {
    let cfg = ChaosConfig::default();
    for seed in 0..10 {
        let report = differential(seed, &cfg);
        assert_eq!(report.violation, None, "seed {seed}");
        assert!(
            report.coordinators.answers > 0,
            "seed {seed}: no workload ran"
        );
        assert!(report.probes > 0, "seed {seed}: no probe ran");
        // The reference is the simnet run of the same seed: same universe,
        // same schedule, same final digest.
        let simnet = run_schedule(seed, &cfg, &generate_schedule(seed, &cfg));
        let final_digest = report.final_digest;
        assert_eq!(ChaosOutcome::Passed { final_digest }, simnet, "seed {seed}");
    }
}

#[test]
fn artifacts_capture_and_replay_across_seeds() {
    let cfg = ChaosConfig {
        universe: 8,
        steps: 12,
    };
    for seed in [3, 17] {
        let (artifact, report) = DifferentialArtifact::capture(seed, &cfg);
        assert_eq!(report.violation, None, "seed {seed}");
        let json = artifact.to_json();
        let parsed = DifferentialArtifact::from_json(&json).expect("parse");
        assert_eq!(parsed.to_json(), json, "seed {seed}: byte fixpoint");
        assert_eq!(parsed.replay(), Ok(report), "seed {seed}");
        // A record of another kind, another version or no version is not a
        // differential artifact.
        for (from, to) in [
            ("\"version\": 1", "\"version\": 2"),
            ("\"kind\": \"differential\"", "\"kind\": \"degrade\""),
            ("  \"version\": 1,\n", ""),
        ] {
            let err = DifferentialArtifact::from_json(&json.replace(from, to)).unwrap_err();
            assert!(matches!(err, ChaosError::Artifact { .. }), "{err}");
        }
        // One that names no digest, moves a counter or asks for a universe
        // nothing could be built for loads and fails replay.
        for bad in [
            json.replace("\"digest\"", "\"other\""),
            json.replace("\"probes\": ", "\"probes\": 1"),
            json.replace("\"universe\": 8", "\"universe\": 0"),
            json.replace("\"universe\": 8", "\"universe\": 4097"),
            json.replace("\"universe\": 8", &format!("\"universe\": {}", usize::MAX)),
        ] {
            assert_ne!(bad, json);
            let err = DifferentialArtifact::from_json(&bad)
                .expect("still a record")
                .replay()
                .unwrap_err();
            assert!(matches!(err, ChaosError::Artifact { .. }), "{err}");
        }
    }
}
