//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. `n_cut` — message size vs decentralized return rate (the paper's
//!    tradeoff knob).
//! 2. Number of bandwidth classes — routing-table size vs accuracy of the
//!    snapped constraint.
//! 3. Rational vs linear bandwidth transform — the related-work claim that
//!    the linear transform embeds poorly.
//! 4. Embedding heuristics — naive 3-measurement placement vs base-candidate
//!    search + median-residual weight fitting.
//! 5. Vivaldi dimensionality (2-d vs 4-d) for the baseline.
//!
//! ```sh
//! cargo run --release -p bcc-bench --bin ablations
//! ```

use bcc_bench::{banner, Effort};
use bcc_core::BandwidthClasses;
use bcc_datasets::{generate, SynthConfig};
use bcc_embed::{FrameworkConfig, PredictionFramework};
use bcc_eval::{Series, Table};
use bcc_metric::stats::{relative_error, EmpiricalCdf};
use bcc_metric::{FiniteMetric, LinearTransform, NodeId, RationalTransform};
use bcc_simnet::{fw_label_dist, DynamicSystem, SystemConfig};
use bcc_vivaldi::{VivaldiConfig, VivaldiSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(effort: Effort) -> bcc_metric::BandwidthMatrix {
    let mut cfg = SynthConfig::small(77);
    cfg.nodes = match effort {
        Effort::Fast => 30,
        Effort::Standard => 80,
        Effort::Paper => 150,
    };
    generate(&cfg)
}

/// Median relative bandwidth-prediction error of a framework config.
fn embed_median_error(bw: &bcc_metric::BandwidthMatrix, config: FrameworkConfig) -> f64 {
    let t = RationalTransform::default();
    let d = t.distance_matrix(bw);
    let fw = PredictionFramework::build_from_matrix(&d, config);
    let predicted = fw.predicted_matrix();
    let errs: Vec<f64> = bw
        .iter_pairs()
        .map(|(i, j, real)| relative_error(real, t.to_bandwidth(predicted.get(i, j))))
        .collect();
    EmpiricalCdf::new(errs).percentile(50.0)
}

/// Every host of `bw` bootstrapped into one served system.
fn served(bw: &bcc_metric::BandwidthMatrix, config: SystemConfig) -> DynamicSystem {
    let hosts: Vec<NodeId> = (0..bw.len()).map(NodeId::new).collect();
    DynamicSystem::bootstrap(bw.clone(), config, &hosts).expect("a tree overlay converges")
}

fn ablate_ncut(bw: &bcc_metric::BandwidthMatrix, queries: usize) {
    let t = RationalTransform::default();
    let n = bw.len();
    let ncuts = [2usize, 5, 10, 20];
    let mut rr_col = Vec::new();
    let mut bytes_col = Vec::new();
    for &n_cut in &ncuts {
        let classes = BandwidthClasses::linspace(10.0, 80.0, 10, t);
        let mut config = SystemConfig::new(classes);
        config.protocol = bcc_core::ProtocolConfig::new(n_cut, config.protocol.classes.clone());
        let system = served(bw, config);
        let mut rng = StdRng::seed_from_u64(1);
        let mut found = 0usize;
        for _ in 0..queries {
            let k = rng.gen_range(2..=(n / 3).max(2));
            let b = rng.gen_range(15.0..=70.0);
            let start = NodeId::new(rng.gen_range(0..n));
            if system.query(start, k, b).expect("valid").found() {
                found += 1;
            }
        }
        rr_col.push(Some(found as f64 / queries as f64));
        let traffic = system.network().expect("bootstrapped").traffic();
        bytes_col.push(Some(traffic.bytes as f64));
    }
    let table = Table::new(
        "Ablation 1 — n_cut: gossip volume vs decentralized RR",
        "n_cut",
        ncuts.iter().map(|&v| v as f64).collect(),
        vec![
            Series::new("RR", rr_col),
            Series::new("GOSSIP-BYTES", bytes_col),
        ],
    );
    println!("{}", table.render());
}

fn ablate_class_count(bw: &bcc_metric::BandwidthMatrix, queries: usize) {
    let t = RationalTransform::default();
    let n = bw.len();
    let counts = [2usize, 4, 8, 16, 32];
    let mut wpr_col = Vec::new();
    let mut crt_bytes = Vec::new();
    for &count in &counts {
        let classes = BandwidthClasses::linspace(10.0, 80.0, count, t);
        let system = served(bw, SystemConfig::new(classes));
        let mut rng = StdRng::seed_from_u64(2);
        let (mut wrong, mut total) = (0usize, 0usize);
        for _ in 0..queries {
            let b = rng.gen_range(15.0..=70.0);
            let start = NodeId::new(rng.gen_range(0..n));
            if let Some(cluster) = system.query(start, 4, b).expect("valid").cluster {
                let (w, tt) = system.score_cluster(&cluster, b);
                wrong += w;
                total += tt;
            }
        }
        wpr_col.push(if total > 0 {
            Some(wrong as f64 / total as f64)
        } else {
            None
        });
        // One CRT row per neighbor per class: 4 bytes per entry.
        crt_bytes.push(Some((count * 4) as f64));
    }
    let table = Table::new(
        "Ablation 2 — bandwidth classes: CRT row size vs WPR at snapped constraints",
        "|L|",
        counts.iter().map(|&v| v as f64).collect(),
        vec![
            Series::new("WPR", wpr_col),
            Series::new("CRT-ROW-BYTES", crt_bytes),
        ],
    );
    println!("{}", table.render());
}

fn ablate_transform(bw: &bcc_metric::BandwidthMatrix) {
    // The related-work claim: embedding bandwidth into Euclidean space with
    // the *linear* transform d = C − BW is poor, while the *rational*
    // transform d = C / BW is workable. Run both through Vivaldi and
    // compare median relative bandwidth-prediction error.
    let rational = RationalTransform::default();
    let linear =
        LinearTransform::new(1.05 * bw.pair_values().iter().fold(0.0f64, |a, &b| a.max(b)));
    let vcfg = VivaldiConfig {
        rounds: 150,
        ..Default::default()
    };

    let median_err = |errs: Vec<f64>| EmpiricalCdf::new(errs).percentile(50.0);

    let pts = VivaldiSystem::embed(rational.distance_matrix(bw), vcfg);
    let rational_err = median_err(
        bw.iter_pairs()
            .map(|(i, j, real)| relative_error(real, rational.to_bandwidth(pts.distance(i, j))))
            .collect(),
    );

    let pts = VivaldiSystem::embed(linear.distance_matrix(bw), vcfg);
    let linear_err = median_err(
        bw.iter_pairs()
            .map(|(i, j, real)| relative_error(real, linear.to_bandwidth(pts.distance(i, j))))
            .collect(),
    );

    let table = Table::new(
        "Ablation 3 — bandwidth transform for the Euclidean baseline (median rel. error)",
        "variant",
        vec![0.0, 1.0],
        vec![Series::new(
            "MEDIAN-REL-ERR",
            vec![Some(rational_err), Some(linear_err)],
        )],
    );
    println!("{}", table.render());
    println!("variant 0 = rational d=C/BW, variant 1 = linear d=C-BW (Vivaldi 2-d for both)\n");
}

fn ablate_heuristics(bw: &bcc_metric::BandwidthMatrix) {
    let naive = FrameworkConfig {
        base_candidates: 1,
        fit_leaf_weight: false,
        ..Default::default()
    };
    let fit_only = FrameworkConfig {
        base_candidates: 1,
        fit_leaf_weight: true,
        ..Default::default()
    };
    let full = FrameworkConfig::default();
    let table = Table::new(
        "Ablation 4 — embedding heuristics (median rel. error of prediction)",
        "variant",
        vec![0.0, 1.0, 2.0],
        vec![Series::new(
            "MEDIAN-REL-ERR",
            vec![
                Some(embed_median_error(bw, naive)),
                Some(embed_median_error(bw, fit_only)),
                Some(embed_median_error(bw, full)),
            ],
        )],
    );
    println!("{}", table.render());
    println!("variant 0 = naive 3-measurement placement, 1 = + median-weight fit, 2 = + base candidates\n");
}

fn ablate_vivaldi_dim(bw: &bcc_metric::BandwidthMatrix) {
    let t = RationalTransform::default();
    let d = t.distance_matrix(bw);
    let mut errs = Vec::new();
    let dims = [2usize, 4, 8];
    for &dim in &dims {
        let cfg = VivaldiConfig {
            dim,
            rounds: 150,
            ..Default::default()
        };
        let pts = VivaldiSystem::embed(d.clone(), cfg);
        let sample: Vec<f64> = bw
            .iter_pairs()
            .map(|(i, j, real)| relative_error(real, t.to_bandwidth(pts.distance(i, j))))
            .collect();
        errs.push(Some(EmpiricalCdf::new(sample).percentile(50.0)));
    }
    let table = Table::new(
        "Ablation 5 — Vivaldi dimensionality (median rel. error of prediction)",
        "dim",
        dims.iter().map(|&v| v as f64).collect(),
        vec![Series::new("MEDIAN-REL-ERR", errs)],
    );
    println!("{}", table.render());
}

fn ablate_route_policy(bw: &bcc_metric::BandwidthMatrix, queries: usize) {
    use bcc_core::{process_query, RetryPolicy, RoutePolicy, Unmetered};
    let t = RationalTransform::default();
    let n = bw.len();
    let classes = BandwidthClasses::linspace(10.0, 80.0, 10, t);
    let system = served(bw, SystemConfig::new(classes.clone()));
    let fw = system.framework();
    let dist = |a: NodeId, b: NodeId| fw_label_dist(fw, a.index() as u32, b.index() as u32);
    let policies = [
        RoutePolicy::FirstFit,
        RoutePolicy::BestFit,
        RoutePolicy::TightestFit,
    ];
    let mut hops_col = Vec::new();
    let mut rr_col = Vec::new();
    for &policy in &policies {
        let mut rng = StdRng::seed_from_u64(3);
        let (mut hops, mut found) = (0usize, 0usize);
        for _ in 0..queries {
            let k = rng.gen_range(2..=(n / 4).max(2));
            let b = rng.gen_range(15.0..=70.0);
            let start = NodeId::new(rng.gen_range(0..n));
            let nodes = system.network().expect("bootstrapped").nodes();
            let out = process_query(
                nodes,
                start,
                k,
                b,
                &classes,
                dist,
                policy,
                &RetryPolicy::default(),
                |_| true,
                &mut Unmetered,
            )
            .expect("valid")
            .into_value();
            hops += out.hops;
            if out.found() {
                found += 1;
            }
        }
        hops_col.push(Some(hops as f64 / queries as f64));
        rr_col.push(Some(found as f64 / queries as f64));
    }
    let table = Table::new(
        "Ablation 6 — query forwarding policy (same CRTs, identical feasibility)",
        "policy",
        vec![0.0, 1.0, 2.0],
        vec![
            Series::new("MEAN-HOPS", hops_col),
            Series::new("RR", rr_col),
        ],
    );
    println!("{}", table.render());
    println!("policy 0 = first-fit (paper's 'any neighbor'), 1 = best-fit, 2 = tightest-fit\n");
}

fn ablate_ensemble(bw: &bcc_metric::BandwidthMatrix) {
    use bcc_embed::{EnsembleConfig, TreeEnsemble};
    let t = RationalTransform::default();
    let d = t.distance_matrix(bw);
    let sizes = [1usize, 3, 5, 7];
    let mut err_col = Vec::new();
    let mut probe_col = Vec::new();
    for &members in &sizes {
        let ens = TreeEnsemble::build_from_matrix(
            &d,
            EnsembleConfig {
                members,
                ..Default::default()
            },
        );
        let pred = ens.predicted_matrix();
        let errs: Vec<f64> = bw
            .iter_pairs()
            .map(|(i, j, real)| relative_error(real, t.to_bandwidth(pred.get(i, j))))
            .collect();
        err_col.push(Some(EmpiricalCdf::new(errs).percentile(50.0)));
        probe_col.push(Some(ens.probe_count() as f64));
    }
    let table = Table::new(
        "Ablation 7 — prediction-tree ensemble size (median rel. error vs probe cost)",
        "members",
        sizes.iter().map(|&v| v as f64).collect(),
        vec![
            Series::new("MEDIAN-REL-ERR", err_col),
            Series::new("PROBES", probe_col),
        ],
    );
    println!("{}", table.render());
}

fn ablate_measurement_noise(bw: &bcc_metric::BandwidthMatrix) {
    use bcc_embed::MeasurementModel;
    let t = RationalTransform::default();
    let d = t.distance_matrix(bw);
    let repeats = [1usize, 2, 4, 8];
    let mut err_col = Vec::new();
    for &r in &repeats {
        let model = MeasurementModel::new(0.25, r, 13);
        let mut oracle = model.wrap(|a: NodeId, b: NodeId| d.get(a.index(), b.index()));
        let mut fw = PredictionFramework::new(FrameworkConfig::default());
        for i in 0..d.len() {
            fw.join(NodeId::new(i), &mut oracle).expect("fresh host");
        }
        let pred = fw.predicted_matrix();
        let errs: Vec<f64> = bw
            .iter_pairs()
            .map(|(i, j, real)| relative_error(real, t.to_bandwidth(pred.get(i, j))))
            .collect();
        err_col.push(Some(EmpiricalCdf::new(errs).percentile(50.0)));
    }
    let table = Table::new(
        "Ablation 8 — instrument noise (sigma 0.25): repeats-per-probe vs embedding error",
        "repeats",
        repeats.iter().map(|&v| v as f64).collect(),
        vec![Series::new("MEDIAN-REL-ERR", err_col)],
    );
    println!("{}", table.render());
}

fn ablate_sword_budget(bw: &bcc_metric::BandwidthMatrix, queries: usize) {
    // The related-work contrast: SWORD's budgeted exhaustive search is
    // k-Clique. On tree-like bandwidth data the threshold graph is benign
    // and the search completes easily; on an adversarial (uniform random)
    // metric near the clique threshold, absence proofs explode and the
    // budget times out -- while Algorithm 1's cost stays polynomial (and on
    // tree metrics its answer is guaranteed).
    use bcc_core::sword::exhaustive_search;
    let t = RationalTransform::default();
    let tree_like = t.distance_matrix(bw);
    let n = tree_like.len();
    // Adversarial: i.i.d. uniform distances, l at the median -> G(n, 1/2).
    let adversarial = {
        let mut rng = StdRng::seed_from_u64(99);
        bcc_metric::DistanceMatrix::from_fn(n, |_, _| rng.gen_range(0.0..1.0))
    };

    let budgets = [100u64, 1000, 10_000, 100_000];
    let run = |metric: &bcc_metric::DistanceMatrix,
               l: f64,
               k: usize|
     -> (Vec<Option<f64>>, Vec<Option<f64>>) {
        let mut complete = Vec::new();
        let mut work = Vec::new();
        for &budget in &budgets {
            let (mut done, mut exp_total) = (0usize, 0u64);
            for q in 0..queries {
                let out = exhaustive_search(metric, k, l, budget, q as u64);
                if !out.exhausted {
                    done += 1;
                }
                exp_total += out.expansions;
            }
            complete.push(Some(done as f64 / queries as f64));
            work.push(Some(exp_total as f64 / queries as f64));
        }
        (complete, work)
    };

    // Tree-like: ask just above the max cluster size (absence proof).
    let l_tree = t.distance_constraint(45.0);
    let k_tree = bcc_core::max_cluster_size(&tree_like, l_tree) + 1;
    let (tree_done, tree_work) = run(&tree_like, l_tree, k_tree);
    // Adversarial: k just above the expected max clique of G(n, 1/2).
    let k_adv = (2.0 * (n as f64).log2()) as usize + 2;
    let (adv_done, adv_work) = run(&adversarial, 0.5, k_adv);

    let table = Table::new(
        "Ablation 9 - SWORD-style budgeted search: completion rate and work per query",
        "budget",
        budgets.iter().map(|&v| v as f64).collect(),
        vec![
            Series::new("TREE-COMPLETE", tree_done),
            Series::new("TREE-EXPANSIONS", tree_work),
            Series::new("ADVERSARIAL-COMPLETE", adv_done),
            Series::new("ADVERSARIAL-EXPANSIONS", adv_work),
        ],
    );
    println!("{}", table.render());
    println!(
        "tree-like query: k = {k_tree} (just unsatisfiable); adversarial: k = {k_adv} on G(n, 1/2).\n\
         Algorithm 1 answers every query in O(n^3) regardless.\n"
    );
}

fn main() {
    let effort = Effort::from_args();
    banner("Ablations", effort);
    let bw = dataset(effort);
    let queries = effort.queries(200, 1000);

    ablate_ncut(&bw, queries);
    ablate_class_count(&bw, queries);
    ablate_transform(&bw);
    ablate_heuristics(&bw);
    ablate_vivaldi_dim(&bw);
    ablate_route_policy(&bw, queries);
    ablate_ensemble(&bw);
    ablate_measurement_noise(&bw);
    ablate_sword_budget(&bw, queries.min(300));
}
