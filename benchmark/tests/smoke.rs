//! Runs the built binary the way the driver does, on the `--smoke` shapes.

use std::path::Path;
use std::process::Command;

use bcc_benchmark::json::Json;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository")
}

/// Runs one smoke workload; returns the contract line and the digest line.
fn smoke(workload: &str, trace: &str, seed: &str) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bcc-benchmark"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "15",
            "--trace",
            trace,
        ])
        .arg("--smoke")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let digest = stdout
        .lines()
        .find(|l| l.starts_with("answers_digest "))
        .expect("a digest line")
        .to_string();
    (Json::parse(last).expect("last line is JSON"), digest)
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text)
        .expect("BENCHMARK.json parses")
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for workload in [
        "routed_uniform",
        "routed_hot",
        "churn_durable",
        "sharded_region",
    ] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (line, _) = smoke(workload, trace, "2011");
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} {section}"
            );
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                line.get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let emitted: Vec<(String, String)> = line
                .get("metrics")
                .expect("metrics")
                .fields()
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{name} has no value"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(emitted, declared(section), "{workload} {section}");
            if section == "end_to_end" {
                for (name, m) in line.get("metrics").expect("metrics").fields() {
                    let v = m.get("value").and_then(Json::as_f64).expect("value");
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
                }
            }
        }
    }
}

#[test]
fn answers_repeat_at_a_seed_and_move_with_it() {
    let (_, a) = smoke("routed_hot", "0", "5");
    let (_, b) = smoke("routed_hot", "0", "5");
    let (_, c) = smoke("routed_hot", "0", "6");
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn refuses_what_it_does_not_know() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_bcc-benchmark"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("benchmark binary runs")
    };
    assert_eq!(
        run(&["--workload", "nope", "--smoke"]).status.code(),
        Some(2)
    );
    assert_eq!(run(&["--bogus"]).status.code(), Some(2));
    assert_eq!(
        run(&["--workload", "routed_hot", "--trace", "2"])
            .status
            .code(),
        Some(2)
    );
}
