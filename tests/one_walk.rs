//! Algorithm 4 is one walk. On random anchor-tree overlays it must answer
//! what the two walks it replaced answered:
//!
//! - at the fault-free fixpoint, the plain walk that ignored liveness
//!   (same cluster, hops and path, and a clean degradation);
//! - with hosts crashed, the walk that retried from the entry node with a
//!   growing hop budget (same cluster, partial, dead-host count and
//!   staleness, and the path of its first attempt). A retry keeps the dead
//!   hosts it learned, but on a tree each of them is a neighbour of one
//!   node of the path only, so a retry replays the first attempt.
//!
//! Both are test-local copies of the removed bodies, run on the same
//! protocol state through the node's public local search and routing.

use bandwidth_clusters::core::{
    Budgeted, Degradation, Meter, QueryRequest, RoutePolicy, WorkMeter,
};
use bandwidth_clusters::prelude::*;
use bcc_datasets::{generate, SynthConfig};
use bcc_simnet::SimNetwork;

/// A converged overlay over a synthetic universe, with the predicted
/// matrix its nodes consult.
fn network(
    nodes: usize,
    seed: u64,
    n_cut: usize,
    classes: usize,
    noise: f64,
) -> (SimNetwork, DistanceMatrix) {
    let mut cfg = SynthConfig::small(seed);
    cfg.nodes = nodes;
    cfg.noise_sigma = noise;
    let bw = generate(&cfg);
    let d = RationalTransform::default().distance_matrix(&bw);
    let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
    let classes = BandwidthClasses::linspace(10.0, 90.0, classes, RationalTransform::default());
    let predicted = fw.predicted_matrix();
    let mut net = SimNetwork::new(
        fw.anchor(),
        predicted.clone(),
        ProtocolConfig::new(n_cut, classes),
    );
    net.run_to_convergence(2 * nodes + 2)
        .expect("a tree overlay converges");
    (net, predicted)
}

/// The walk that ignored liveness, as it was: answer locally or forward
/// first fit, never back to the sender, with a node-count net.
fn plain_walk(
    net: &SimNetwork,
    predicted: &DistanceMatrix,
    start: NodeId,
    k: usize,
    b: f64,
) -> (Option<Vec<NodeId>>, usize, Vec<NodeId>) {
    let nodes = net.nodes();
    let classes = &net.config().classes;
    let class_idx = QueryRequest::new(start, k, b)
        .validate(classes, nodes.len())
        .expect("valid query");
    let dist = |u: NodeId, v: NodeId| predicted.get(u.index(), v.index());
    let (mut current, mut previous) = (start, None);
    let mut path = vec![start];
    let mut hops = 0;
    let cluster = loop {
        let node = &nodes[current.index()];
        if let Some(cluster) = node.answer_locally_filtered(k, class_idx, classes, dist, |_| true) {
            break Some(cluster);
        }
        let Some(next) = node.route(k, class_idx, previous, &[], RoutePolicy::FirstFit) else {
            break None;
        };
        previous = Some(current);
        current = next;
        hops += 1;
        path.push(current);
        if hops > nodes.len() {
            break None;
        }
    };
    (cluster, hops, path)
}

/// What the retrying walk reported.
struct Retried {
    cluster: Option<Vec<NodeId>>,
    degradation: Degradation,
    /// The path of the first attempt alone.
    first_path: Vec<NodeId>,
    /// Attempts after the first.
    retries: usize,
}

/// The walk that retried, as it was under the default policy: up to three
/// retries from the entry node with hop budgets 32, 64, 128 and 256, the
/// dead hosts found so far skipped, and a retry only after a timeout or a
/// newly found dead host.
fn retrying_walk(
    net: &SimNetwork,
    predicted: &DistanceMatrix,
    start: NodeId,
    k: usize,
    b: f64,
    meter: &mut impl Meter,
) -> Retried {
    let nodes = net.nodes();
    let classes = &net.config().classes;
    let class_idx = QueryRequest::new(start, k, b)
        .validate(classes, nodes.len())
        .expect("valid query");
    let dist = |u: NodeId, v: NodeId| predicted.get(u.index(), v.index());
    let alive = |u: NodeId| !net.is_down(u);
    let mut deg = Degradation::default();
    let mut blacklist = Vec::new();
    let mut first_path = Vec::new();
    let mut total_hops = 0;
    let keep = |deg: &mut Degradation, p: Option<Vec<NodeId>>| {
        if let Some(p) = p {
            if deg.partial.as_ref().is_none_or(|best| p.len() > best.len()) {
                deg.partial = Some(p);
            }
        }
    };
    for attempt in 0..=3usize {
        let hop_budget = 32usize << attempt;
        let (mut current, mut previous) = (start, None);
        let mut hops = 0;
        let mut progress = false;
        let mut path = vec![start];
        'walk: loop {
            assert!(meter.charge(1), "a meter with headroom ran dry");
            let node = &nodes[current.index()];
            match node.answer_locally_filtered_budgeted(k, class_idx, classes, dist, alive, meter) {
                Budgeted::Done(Some(cluster)) => {
                    deg.partial = None;
                    return Retried {
                        cluster: Some(cluster),
                        degradation: deg,
                        first_path: if attempt == 0 { path } else { first_path },
                        retries: attempt,
                    };
                }
                Budgeted::Done(None) => {}
                Budgeted::Exhausted { .. } => panic!("a meter with headroom ran dry"),
            }
            if k <= node.own_max()[class_idx] {
                deg.stale_state = true;
                match node.best_partial_budgeted(class_idx, classes, dist, alive, meter) {
                    Budgeted::Done(p) => keep(&mut deg, p),
                    Budgeted::Exhausted { .. } => panic!("a meter with headroom ran dry"),
                }
            }
            loop {
                match node.route(k, class_idx, previous, &blacklist, RoutePolicy::FirstFit) {
                    Some(next) if !alive(next) => {
                        blacklist.push(next);
                        deg.dead_encountered += 1;
                        deg.stale_state = true;
                        progress = true;
                    }
                    Some(next) => {
                        previous = Some(current);
                        current = next;
                        hops += 1;
                        total_hops += 1;
                        path.push(current);
                        if hops >= hop_budget || total_hops > 2 * nodes.len() {
                            break 'walk;
                        }
                        continue 'walk;
                    }
                    None => break 'walk,
                }
            }
        }
        if attempt == 0 {
            first_path = path;
        }
        if !progress && hops < hop_budget {
            return Retried {
                cluster: None,
                degradation: deg,
                first_path,
                retries: attempt,
            };
        }
    }
    Retried {
        cluster: None,
        degradation: deg,
        first_path,
        retries: 3,
    }
}

/// Every (start, k, bandwidth) the tests ask of a network.
fn queries(net: &SimNetwork) -> Vec<(NodeId, usize, f64)> {
    let mut out = Vec::new();
    for start in (0..net.len()).map(NodeId::new) {
        for k in [2usize, 3, 5, 8] {
            for &b in net.config().classes.bandwidths() {
                out.push((start, k, b));
            }
        }
    }
    out
}

#[test]
fn at_the_fault_free_fixpoint_the_walk_is_the_plain_walk() {
    let mut found = 0usize;
    for seed in 0..12u64 {
        let nodes = 12 + 6 * seed as usize;
        let (net, predicted) = network(nodes, seed, 1 + seed as usize % 6, 3, 0.3);
        for (start, k, b) in queries(&net) {
            let at = format!("seed {seed} start {start} k {k} b {b}");
            let out = net.query(start, k, b).expect("valid query");
            let (cluster, hops, path) = plain_walk(&net, &predicted, start, k, b);
            assert_eq!(out.cluster, cluster, "{at}");
            assert_eq!(out.hops, hops, "{at}");
            assert_eq!(out.path, path, "{at}");
            assert!(out.clean(), "{at}: {:?}", out.degradation);
            found += usize::from(out.found());
        }
    }
    assert!(found > 100, "the comparison must not be vacuous: {found}");
}

#[test]
fn under_crashes_the_walk_is_the_first_attempt_of_the_retrying_walk() {
    let (mut answered, mut dead_seen, mut retried) = (0usize, 0usize, 0usize);
    let retry = RetryPolicy::default();
    for seed in 0..16u64 {
        let nodes = 12 + 4 * seed as usize;
        let frac = [0.05, 0.15, 0.25, 0.4][seed as usize % 4];
        let (mut net, predicted) = network(nodes, seed, 1 + seed as usize % 6, 3, 0.3);
        // Crash at the next round and let it run: the survivors' routing
        // state is one round old, so walks meet dead hosts. Every other
        // overlay settles again first.
        let tick = net.rounds_run() as f64;
        net.inject_faults(&FaultPlan::new(seed).random_crashes(tick, nodes, frac));
        net.run_round();
        if seed % 2 == 1 {
            let _ = net.run_to_convergence(2 * nodes + 2);
        }
        let down = (0..nodes).filter(|&u| net.is_down(NodeId::new(u))).count();
        assert_eq!(down, (frac * nodes as f64).floor() as usize, "seed {seed}");

        for (start, k, b) in queries(&net) {
            let at = format!("seed {seed} start {start} k {k} b {b}");
            if net.is_down(start) {
                assert!(
                    matches!(
                        net.query(start, k, b),
                        Err(ClusterError::NodeUnavailable { .. })
                    ),
                    "{at}: a crashed entry node answered"
                );
                continue;
            }
            let out = net.query(start, k, b).expect("valid query");
            let held = out.cluster.iter().chain(&out.degradation.partial).flatten();
            for u in held.chain(&out.path) {
                assert!(!net.is_down(*u), "{at}: down host {u} in {out:?}");
            }
            let mut seen = out.path.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), out.path.len(), "{at}: a host repeats");

            let mut meter = WorkMeter::new(u64::MAX / 2);
            let metered = net
                .query_resilient(start, k, b, &retry, &mut meter)
                .expect("valid query");
            assert_eq!(metered, Budgeted::Done(out.clone()), "{at}");
            let mut oracle_meter = WorkMeter::new(u64::MAX / 2);
            let oracle = retrying_walk(&net, &predicted, start, k, b, &mut oracle_meter);
            assert_eq!(out.cluster, oracle.cluster, "{at}");
            assert_eq!(out.degradation, oracle.degradation, "{at}");
            assert_eq!(out.path, oracle.first_path, "{at}");
            assert_eq!(out.hops, out.path.len() - 1, "{at}");
            if oracle.retries == 0 {
                assert_eq!(meter.used(), oracle_meter.used(), "{at}");
            } else {
                assert!(meter.used() <= oracle_meter.used(), "{at}");
            }
            answered += usize::from(out.found());
            dead_seen += usize::from(out.degradation.dead_encountered > 0);
            retried += usize::from(oracle.retries > 0);
        }
    }
    assert!(answered > 100, "answers: {answered}");
    assert!(dead_seen > 10, "walks meeting a dead host: {dead_seen}");
    assert!(retried > 10, "retrying walks: {retried}");
}
