//! `bcc` — command-line front end for bandwidth-constrained cluster search.
//!
//! ```text
//! bcc gen   --preset hp|umd|small [--nodes N] [--seed S] --out FILE
//! bcc stats FILE [--samples N]
//! bcc query FILE --k K --b MBPS [--start ID] [--ncut N] [--classes N]
//! bcc hub   FILE --targets 1,2,3 --b MBPS
//! bcc plan  FILE --size K --b MBPS
//! bcc help
//! ```
//!
//! Matrices use the plain-text format of `bcc-datasets` (`bcc gen` writes
//! it, every other command reads it).

mod args;

use std::path::Path;
use std::process::ExitCode;

use args::ParsedArgs;
use bcc_core::BandwidthClasses;
use bcc_datasets::{generate, hp_config, load_matrix, save_matrix, umd_config, SynthConfig};
use bcc_metric::stats::EmpiricalCdf;
use bcc_metric::{fourpoint, BandwidthMatrix, DistanceMatrix, NodeId, RationalTransform};
use bcc_simnet::{fw_label_dist, DynamicSystem, SystemConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    const ALL_FLAGS: &[&str] = &[
        "preset", "nodes", "seed", "out", "samples", "k", "b", "start", "ncut", "classes",
        "targets", "size",
    ];
    let parsed = ParsedArgs::parse(raw, ALL_FLAGS).map_err(|e| e.to_string())?;
    match parsed.command() {
        "gen" => cmd_gen(&parsed),
        "stats" => cmd_stats(&parsed),
        "query" => cmd_query(&parsed),
        "hub" => cmd_hub(&parsed),
        "plan" => cmd_plan(&parsed),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try `bcc help`)")),
    }
}

const HELP: &str = "\
bcc — bandwidth-constrained cluster search (ICDCS 2011 reproduction)

USAGE:
  bcc gen   --preset hp|umd|small [--nodes N] [--seed S] --out FILE
  bcc stats FILE [--samples N]
  bcc query FILE --k K --b MBPS [--start ID] [--ncut N] [--classes N]
  bcc hub   FILE --targets 1,2,3 --b MBPS
  bcc plan  FILE --size K --b MBPS
  bcc help
";

fn cmd_gen(p: &ParsedArgs) -> Result<(), String> {
    let seed: u64 = p.get_or("seed", 0).map_err(|e| e.to_string())?;
    let preset = p.get_str("preset").unwrap_or("small");
    let mut cfg = match preset {
        "hp" => hp_config(seed),
        "umd" => umd_config(seed),
        "small" => SynthConfig::small(seed),
        other => return Err(format!("unknown preset '{other}' (hp|umd|small)")),
    };
    if let Some(nodes) = p.get_str("nodes") {
        cfg.nodes = nodes
            .parse()
            .map_err(|_| format!("bad --nodes '{nodes}'"))?;
    }
    let out = p.get_str("out").ok_or("gen requires --out FILE")?;
    let bw = generate(&cfg);
    save_matrix(&bw, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} hosts ({} pairs) to {out}",
        bw.len(),
        bw.len() * (bw.len() - 1) / 2
    );
    Ok(())
}

fn load(p: &ParsedArgs) -> Result<BandwidthMatrix, String> {
    let path = p
        .positional()
        .first()
        .ok_or("expected a matrix file (produced by `bcc gen`)")?;
    load_matrix(Path::new(path)).map_err(|e| e.to_string())
}

fn cmd_stats(p: &ParsedArgs) -> Result<(), String> {
    let bw = load(p)?;
    let samples: usize = p.get_or("samples", 20_000).map_err(|e| e.to_string())?;
    let cdf = EmpiricalCdf::new(bw.pair_values());
    println!("hosts: {}", bw.len());
    println!(
        "bandwidth: min {:.1}, p20 {:.1}, p50 {:.1}, p80 {:.1}, max {:.1} Mbps",
        cdf.min(),
        cdf.percentile(20.0),
        cdf.percentile(50.0),
        cdf.percentile(80.0),
        cdf.max()
    );
    let d = RationalTransform::default().distance_matrix(&bw);
    let mut rng = StdRng::seed_from_u64(1);
    let eps = fourpoint::epsilon_avg_sampled(&d, samples, &mut rng);
    println!(
        "treeness: eps_avg = {eps:.4} (eps* = {:.4}, {samples} sampled quartets)",
        fourpoint::epsilon_star(eps)
    );
    Ok(())
}

fn build_system(p: &ParsedArgs, bw: BandwidthMatrix) -> Result<DynamicSystem, String> {
    let n_cut: usize = p.get_or("ncut", 10).map_err(|e| e.to_string())?;
    let class_count: usize = p.get_or("classes", 12).map_err(|e| e.to_string())?;
    if n_cut == 0 {
        return Err("--ncut must be at least 1".into());
    }
    if class_count == 0 {
        return Err("--classes must be at least 1".into());
    }
    let cdf = EmpiricalCdf::new(bw.pair_values());
    let (lo, hi) = (cdf.percentile(5.0).max(0.1), cdf.max());
    let classes = BandwidthClasses::linspace(lo, hi, class_count, RationalTransform::default());
    let mut config = SystemConfig::new(classes);
    config.protocol = bcc_core::ProtocolConfig::new(n_cut, config.protocol.classes.clone());
    let hosts: Vec<NodeId> = (0..bw.len()).map(NodeId::new).collect();
    DynamicSystem::bootstrap(bw, config, &hosts).map_err(|e| e.to_string())
}

fn cmd_query(p: &ParsedArgs) -> Result<(), String> {
    let bw = load(p)?;
    let k: usize = p.require("k").map_err(|e| e.to_string())?;
    let b: f64 = p.require("b").map_err(|e| e.to_string())?;
    let start: usize = p.get_or("start", 0).map_err(|e| e.to_string())?;
    let n = bw.len();
    if start >= n {
        return Err(format!("--start {start} out of range (0..{n})"));
    }
    let system = build_system(p, bw)?;
    let out = system
        .query(NodeId::new(start), k, b)
        .map_err(|e| e.to_string())?;
    match out.cluster {
        Some(cluster) => {
            println!(
                "cluster ({} hops via {:?}):",
                out.hops,
                out.path.iter().map(|h| h.index()).collect::<Vec<_>>()
            );
            for (i, &u) in cluster.iter().enumerate() {
                for &v in &cluster[i + 1..] {
                    println!(
                        "  {} <-> {}: real {:.1} Mbps, predicted {:.1} Mbps",
                        u.index(),
                        v.index(),
                        system.real_bandwidth(u, v),
                        system.predicted_bandwidth(u, v)
                    );
                }
            }
            let (wrong, total) = system.score_cluster(&cluster, b);
            println!(
                "members: {:?}",
                cluster.iter().map(|h| h.index()).collect::<Vec<_>>()
            );
            println!("ground truth: {wrong}/{total} pairs below {b} Mbps");
        }
        None => println!(
            "no cluster of {k} hosts at >= {b} Mbps (searched {} hops)",
            out.hops
        ),
    }
    Ok(())
}

fn cmd_hub(p: &ParsedArgs) -> Result<(), String> {
    let bw = load(p)?;
    let targets = p
        .get_usize_list("targets")
        .map_err(|e| e.to_string())?
        .ok_or("hub requires --targets 1,2,3")?;
    let b: f64 = p.require("b").map_err(|e| e.to_string())?;
    let n = bw.len();
    for &t in &targets {
        if t >= n {
            return Err(format!("target {t} out of range (0..{n})"));
        }
    }
    if !b.is_finite() || b <= 0.0 {
        return Err(bcc_core::ClusterError::InvalidDiameterConstraint { l: b }.to_string());
    }
    let system = build_system(p, bw)?;
    // Hub search runs on the label metric the overlay serves.
    let fw = system.framework();
    let predicted = DistanceMatrix::from_fn(n, |i, j| fw_label_dist(fw, i as u32, j as u32));
    let l = system.config().transform.distance_constraint(b);
    let ids: Vec<NodeId> = targets.iter().map(|&t| NodeId::new(t)).collect();
    match bcc_core::hub::find_hub(&predicted, &targets, l).map(NodeId::new) {
        Some(hub) => {
            println!("hub: {}", hub.index());
            for &t in &ids {
                println!(
                    "  {} <-> {}: real {:.1} Mbps, predicted {:.1} Mbps",
                    hub.index(),
                    t.index(),
                    system.real_bandwidth(hub, t),
                    system.predicted_bandwidth(hub, t)
                );
            }
        }
        None => println!("no host reaches all targets at >= {b} Mbps"),
    }
    Ok(())
}

fn cmd_plan(p: &ParsedArgs) -> Result<(), String> {
    let bw = load(p)?;
    let size: usize = p.require("size").map_err(|e| e.to_string())?;
    let b: f64 = p.require("b").map_err(|e| e.to_string())?;
    let n = bw.len();
    let cdf = EmpiricalCdf::new(bw.pair_values());
    let classes = BandwidthClasses::linspace(
        cdf.percentile(5.0).max(0.1),
        cdf.max(),
        12,
        RationalTransform::default(),
    );
    let plan = bcc_apps::plan(
        &bw,
        SystemConfig::new(classes),
        bcc_apps::PlanConfig {
            cluster_size: size,
            min_bandwidth: b,
        },
    );
    for (i, c) in plan.clusters.iter().enumerate() {
        println!(
            "cluster {i}: rep {} <- {:?} (intra min {:.1} Mbps)",
            c.representative.index(),
            c.members.iter().map(|h| h.index()).collect::<Vec<_>>(),
            c.internal_min_bandwidth
        );
    }
    println!(
        "{} clusters, {} singletons, {} wide-area sends (vs {n} naive)",
        plan.clusters.len(),
        plan.singletons.len(),
        plan.wide_area_sends()
    );
    let est = plan.estimate(1.0, b);
    println!(
        "distributing 1 GB at {b} Mbps origin uplink: planned {:.0}s vs naive {:.0}s",
        est.planned_seconds, est.naive_seconds
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn temp(name: &str) -> String {
        let dir = std::env::temp_dir().join("bcc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_stats_query_hub_roundtrip() {
        let file = temp("m.txt");
        run(&v(&[
            "gen", "--preset", "small", "--nodes", "24", "--seed", "3", "--out", &file,
        ]))
        .unwrap();
        run(&v(&["stats", &file, "--samples", "2000"])).unwrap();
        run(&v(&["query", &file, "--k", "3", "--b", "20"])).unwrap();
        run(&v(&["hub", &file, "--targets", "0,1", "--b", "10"])).unwrap();
        run(&v(&["plan", &file, "--size", "3", "--b", "20"])).unwrap();
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn help_and_errors() {
        run(&v(&["help"])).unwrap();
        assert!(run(&v(&["frobnicate"])).is_err());
        assert!(run(&v(&["gen", "--preset", "nope", "--out", "x"])).is_err());
        assert!(run(&v(&["gen", "--preset", "small"])).is_err()); // no --out
        assert!(run(&v(&["stats"])).is_err()); // no file
        assert!(run(&v(&["stats", "/definitely/not/here"])).is_err());
    }

    #[test]
    fn query_validates_ranges() {
        let file = temp("m2.txt");
        run(&v(&[
            "gen", "--preset", "small", "--nodes", "12", "--out", &file,
        ]))
        .unwrap();
        assert!(run(&v(&[
            "query", &file, "--k", "2", "--b", "20", "--start", "99"
        ]))
        .is_err());
        assert!(run(&v(&["hub", &file, "--targets", "0,99", "--b", "20"])).is_err());
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn zero_ncut_and_classes_are_errors_not_panics() {
        let file = temp("m3.txt");
        run(&v(&[
            "gen", "--preset", "small", "--nodes", "12", "--out", &file,
        ]))
        .unwrap();
        for flag in ["--ncut", "--classes"] {
            for [cmd, key, value] in [["query", "--k", "3"], ["hub", "--targets", "0,1"]] {
                let args = v(&[cmd, &file, key, value, "--b", "20", flag, "0"]);
                assert!(run(&args).unwrap_err().contains(flag), "{cmd} {flag} 0");
            }
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn hub_rejects_a_bandwidth_that_is_not_positive_and_finite() {
        let file = temp("m4.txt");
        run(&v(&[
            "gen", "--preset", "small", "--nodes", "12", "--out", &file,
        ]))
        .unwrap();
        for b in ["0", "NaN", "-1"] {
            let err = run(&v(&["hub", &file, "--targets", "0,1", "--b", b])).unwrap_err();
            assert!(err.contains("must be positive and finite"), "{b}: {err}");
        }
        std::fs::remove_file(&file).ok();
    }
}
