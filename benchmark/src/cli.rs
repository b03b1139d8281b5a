//! Command line: one workload, the whole benchmark, or the A/A check.

use std::process::Command;

use crate::gen::{self, REFERENCE_SECONDS};
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::{self, Options, Report};

const USAGE: &str = "\
usage: bcc-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--traced]
                     [--smoke] [--out FILE] [--history FILE]
       bcc-benchmark --compare A.json B.json

  --workload  routed_uniform | routed_hot | churn_durable | sharded_region, or `all`
              (every workload, end to end and traced, one process each)
  --seed      traffic seed (default 2011)
  --seconds   measured seconds the passes are sized for (default 15)
  --trace     0: end-to-end metrics (default); 1: per-layer metrics from a traced run
  --traced    same as --trace 1
  --smoke     64-host universes and one-second passes
  --out       also write the result as a JSON document
  --history   with `all`: append one trajectory line to FILE
  --compare   A/A check of two `--workload all --out` documents against the bounds
              in ./BENCHMARK.json
Run from the repository root.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    history: Option<String>,
    compare: Option<(String, String)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2011,
        seconds: REFERENCE_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        history: None,
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or("--seconds takes a whole number from 1 to 600")?
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--history" => args.history = Some(value(&mut it, flag)?),
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Entry point; returns the process exit code.
pub fn main(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else {
        match args.workload.as_deref() {
            None => {
                eprintln!("{USAGE}");
                return 2;
            }
            Some("all") => run_all(&args),
            Some(name) => run_one(name, &args),
        }
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("bcc-benchmark: {e}");
            2
        }
    }
}

fn metrics_json(report: &Report, with_units: bool) -> Json {
    Json::Obj(
        report
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let v = if with_units {
                    Json::obj().with("value", value).with("unit", unit)
                } else {
                    Json::from(value)
                };
                (name.to_string(), v)
            })
            .collect(),
    )
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let report = run::run(&Options {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    })?;
    println!(
        "workload {} seed {} seconds {} trace {} threads {} cores {}{}",
        report.workload,
        report.seed,
        args.seconds,
        u8::from(args.trace),
        run::threads(),
        cores(),
        if args.smoke { " (smoke)" } else { "" },
    );
    for &(name, value, unit) in &report.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    println!("answers_digest {:016x}", report.answers_digest);
    for note in &report.notes {
        println!("{note}");
    }
    if let Some(path) = &args.out {
        let doc = Json::obj()
            .with("workload", report.workload.as_str())
            .with("seed", report.seed)
            .with("seconds", args.seconds)
            .with("trace", args.trace)
            .with("correct", report.correct)
            .with("attempted", report.attempted)
            .with("failed", report.failed)
            .with("answers_digest", format!("{:016x}", report.answers_digest))
            .with("metrics", metrics_json(&report, false));
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))?;
    }
    // The contract line: last on stdout.
    println!(
        "{}",
        Json::obj()
            .with("correct", report.correct)
            .with("attempted", report.attempted)
            .with("failed", report.failed)
            .with("metrics", metrics_json(&report, true))
            .render()
    );
    Ok(report.correct)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs every workload end to end and traced, one child process each (so
/// peak memory is per workload), and gathers the results.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let dir = "benchmark/out";
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let mut all_correct = true;
    let mut full = Vec::new();
    let mut summary = Vec::new();
    for spec in gen::specs() {
        let mut entry = Json::obj();
        let mut brief = Json::obj();
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let out = format!("{dir}/run-{}-{trace}.json", spec.name);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name, "--out", &out])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", &trace.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", spec.name))?;
            let doc = read_json(&out)?;
            let correct = status.success() && doc.get("correct") == Some(&Json::Bool(true));
            all_correct &= correct;
            let metrics = doc.get("metrics").cloned().unwrap_or(Json::Null);
            if trace == 0 {
                for key in ["correct", "attempted", "failed", "answers_digest"] {
                    let v = doc.get(key).cloned().unwrap_or(Json::Null);
                    entry = entry.with(key, v.clone());
                    brief = brief.with(key, v);
                }
                brief = brief.with(section, metrics.clone());
            } else {
                entry = entry.with("traced_correct", correct);
            }
            entry = entry.with(section, metrics);
        }
        full.push((spec.name.to_string(), entry));
        summary.push((spec.name.to_string(), brief));
    }
    let header = || {
        Json::obj()
            .with("commit", commit())
            .with("cores", cores())
            .with("threads", run::threads())
            .with("seed", args.seed)
            .with("seconds", args.seconds)
            .with("smoke", args.smoke)
    };
    let doc = header().with("workloads", Json::Obj(full));
    if let Some(path) = &args.out {
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &args.history {
        use std::io::Write as _;
        let line = header().with("workloads", Json::Obj(summary)).render();
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("append {path}: {e}"))?;
    }
    println!("{}", doc.render());
    Ok(all_correct)
}

fn number(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(doc, |d, key| d.get(key))?.as_f64()
}

/// The A/A check: two full runs of one tree must agree within each
/// end-to-end bound, and exactly on digests and logical counts.
fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let bench = read_json("BENCHMARK.json")?;
    let bound = |name: &str| -> Option<f64> {
        bench
            .get("end_to_end")?
            .as_arr()?
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    let mut problems = Vec::new();
    for spec in gen::specs() {
        let w = spec.name;
        for doc in [&a, &b] {
            if doc
                .get("workloads")
                .and_then(|ws| ws.get(w))
                .and_then(|e| e.get("correct"))
                != Some(&Json::Bool(true))
            {
                problems.push(format!("{w}: a run did not pass its own output checks"));
            }
        }
        let digest = |doc: &Json| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w))
                .and_then(|e| e.get("answers_digest"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if digest(&a).is_none() || digest(&a) != digest(&b) {
            problems.push(format!(
                "{w}: answers_digest {:?} vs {:?}",
                digest(&a),
                digest(&b)
            ));
        }
        let sections: [(&str, &[MetricDef]); 2] =
            [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)];
        for (section, defs) in sections {
            for m in defs {
                let path = ["workloads", w, section, m.name];
                let (Some(x), Some(y)) = (number(&a, &path), number(&b, &path)) else {
                    problems.push(format!("{w}: {} missing from a run", m.name));
                    continue;
                };
                if m.exact {
                    if x != y {
                        problems.push(format!("{w}: exact count {} differs: {x} vs {y}", m.name));
                    }
                } else if section == "end_to_end" {
                    let bound = bound(m.name)
                        .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", m.name))?;
                    let spread = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
                    println!(
                        "{w:<16} {:<16} {x:>14.4} {y:>14.4}  {:>6.2} % of {:>5.1} %",
                        m.name,
                        spread * 100.0,
                        bound * 100.0
                    );
                    if spread > bound {
                        problems.push(format!(
                            "{w}: {} differs by {:.1} % (bound {:.1} %): {x} vs {y}",
                            m.name,
                            spread * 100.0,
                            bound * 100.0
                        ));
                    }
                }
            }
        }
    }
    for p in &problems {
        println!("A/A MISMATCH {p}");
    }
    if problems.is_empty() {
        println!("A/A check passed: every end-to-end metric within its bound, digests and exact counts equal");
    }
    Ok(problems.is_empty())
}
