//! End-to-end pipeline tests spanning every crate: dataset generation →
//! persistence → embedding → overlay → queries → scoring, plus whole-stack
//! determinism.

use bandwidth_clusters::prelude::*;
use bcc_datasets::{
    generate, load_matrix, matrix_from_string, matrix_to_string, save_matrix, SynthConfig,
};
use bcc_metric::stats::EmpiricalCdf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_dataset(seed: u64) -> BandwidthMatrix {
    let mut cfg = SynthConfig::small(seed);
    cfg.nodes = 36;
    generate(&cfg)
}

/// Every host of `bw` bootstrapped into the served system.
fn system(bw: BandwidthMatrix) -> DynamicSystem {
    let classes = BandwidthClasses::linspace(10.0, 80.0, 8, RationalTransform::default());
    let hosts: Vec<NodeId> = (0..bw.len()).map(NodeId::new).collect();
    DynamicSystem::bootstrap(bw, SystemConfig::new(classes), &hosts).unwrap()
}

fn build(seed: u64) -> DynamicSystem {
    system(small_dataset(seed))
}

#[test]
fn full_stack_is_deterministic() {
    let a = build(3);
    let b = build(3);
    let (na, nb) = (a.network().unwrap(), b.network().unwrap());
    assert_eq!(na.digest(), nb.digest());
    assert_eq!(na.traffic(), nb.traffic());
    // Identical query outcomes.
    for start in 0..a.len() {
        let qa = a.query(NodeId::new(start), 4, 40.0).unwrap();
        let qb = b.query(NodeId::new(start), 4, 40.0).unwrap();
        assert_eq!(qa, qb);
    }
}

#[test]
fn different_seeds_differ() {
    let a = build(3);
    let b = build(4);
    assert_ne!(a.live_digest(), b.live_digest());
}

#[test]
fn dataset_roundtrips_through_disk() {
    let bw = small_dataset(9);
    let dir = std::env::temp_dir().join("bcc-pipeline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.txt");
    save_matrix(&bw, &path).unwrap();
    let loaded = load_matrix(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // A system built from the reloaded matrix behaves identically (text
    // format keeps 6 decimals; scores agree on every query).
    let sys_a = system(bw);
    let sys_b = system(loaded);
    for start in [0usize, 7, 20] {
        let qa = sys_a.query(NodeId::new(start), 3, 35.0).unwrap();
        let qb = sys_b.query(NodeId::new(start), 3, 35.0).unwrap();
        assert_eq!(qa.cluster, qb.cluster);
    }
}

#[test]
fn string_format_rejects_corruption() {
    let bw = small_dataset(10);
    let mut text = matrix_to_string(&bw);
    text.push_str("garbage\n");
    assert!(matrix_from_string(&text).is_err());
}

#[test]
fn answered_clusters_mostly_satisfy_ground_truth() {
    // On the default (mildly noisy) dataset, WPR over many queries must be
    // far below the random-placement rate.
    let bw = small_dataset(12);
    let sys = system(bw.clone());
    let n = sys.len();
    let mut rng = StdRng::seed_from_u64(1);
    let mut wrong = 0usize;
    let mut total = 0usize;
    for _ in 0..300 {
        let b = rng.gen_range(15.0..70.0);
        let start = NodeId::new(rng.gen_range(0..n));
        if let Some(cluster) = sys.query(start, 4, b).unwrap().cluster {
            let (w, t) = sys.score_cluster(&cluster, b);
            wrong += w;
            total += t;
        }
    }
    assert!(total > 100, "queries must mostly succeed (total = {total})");
    let wpr = wrong as f64 / total as f64;

    // Random placement baseline: expected wrong-pair fraction is the CDF
    // of pairwise bandwidth at the mean constraint.
    let cdf = EmpiricalCdf::new(bw.pair_values());
    let random_wpr = cdf.fraction_below(42.5);
    assert!(
        wpr < 0.5 * random_wpr,
        "clustering WPR {wpr:.3} should be far below random {random_wpr:.3}"
    );
}

#[test]
fn query_path_is_simple_and_bounded() {
    let sys = build(21);
    let n = sys.len();
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..200 {
        let k = rng.gen_range(2..10);
        let b = rng.gen_range(10.0..80.0);
        let start = NodeId::new(rng.gen_range(0..n));
        let out = sys.query(start, k, b).unwrap();
        // The no-backtrack walk on a tree overlay is a simple path.
        let mut seen = out.path.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            out.path.len(),
            "path revisited a node: {:?}",
            out.path
        );
        assert!(out.hops < n, "hops bounded by system size");
        assert_eq!(out.hops + 1, out.path.len());
    }
}

#[test]
fn probe_budget_is_quadratic_not_cubic() {
    // The framework performs one measurement per (new host, existing host)
    // pair at most — joining n hosts costs at most n(n-1)/2 probes plus
    // nothing hidden.
    let bw = small_dataset(30);
    let d = RationalTransform::default().distance_matrix(&bw);
    let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
    let n = bw.len() as u64;
    assert!(fw.probe_count() <= n * (n - 1) / 2);
}

#[test]
fn centralized_and_decentralized_agree_on_feasibility_of_easy_queries() {
    let sys = build(40);
    let n = sys.len();
    // TREE-CENTRAL as the figures compute it: Algorithm 1 over the whole
    // predicted metric, at the exact constraint.
    let predicted = sys.framework().predicted_matrix();
    let t = sys.config().transform;
    let mut rng = StdRng::seed_from_u64(3);
    let mut checked = 0;
    for _ in 0..200 {
        let k = rng.gen_range(2..=4); // easy sizes
        let b = rng.gen_range(15.0..60.0);
        let start = NodeId::new(rng.gen_range(0..n));
        let dec = sys.query(start, k, b).unwrap().found();
        let cen = find_cluster(&predicted, k, t.distance_constraint(b)).is_some();
        // Decentralized can only find what the centralized view admits.
        if dec {
            assert!(
                cen,
                "decentralized found a cluster the centralized search denies"
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 200);
}
