//! The gossip protocol's fixpoint is schedule-independent: the cycle-driven
//! and event-driven engines must reach bit-identical protocol state, and
//! every query must answer identically, on realistic datasets. The event
//! engine sends only what a neighbor does not hold, so it goes quiet at
//! that fixpoint, and stays busy while a fault keeps a link due.

use bandwidth_clusters::prelude::*;
use bcc_datasets::{generate, SynthConfig};
use bcc_simnet::{AsyncConfig, AsyncNetwork, FaultPlan, SimNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn stack(nodes: usize, seed: u64) -> (PredictionFramework, ProtocolConfig) {
    let mut cfg = SynthConfig::small(seed);
    cfg.nodes = nodes;
    let bw = generate(&cfg);
    let d = RationalTransform::default().distance_matrix(&bw);
    let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
    let classes = BandwidthClasses::linspace(10.0, 80.0, 8, RationalTransform::default());
    (fw, ProtocolConfig::new(6, classes))
}

#[test]
fn async_and_sync_engines_reach_the_same_fixpoint() {
    let (fw, proto) = stack(48, 5);

    let mut sync = SimNetwork::new(fw.anchor(), fw.predicted_matrix(), proto.clone());
    sync.run_to_convergence(300).expect("sync converges");

    let mut async_cfg = AsyncConfig::new(proto);
    async_cfg.seed = 1234;
    let mut asynch = AsyncNetwork::new(fw.anchor(), fw.predicted_matrix(), async_cfg);
    asynch.run_to_quiescence(2_000.0).expect("async converges");

    assert_eq!(
        sync.digest(),
        asynch.network().digest(),
        "fixpoint depends on the schedule"
    );

    // Every query answers identically on both engines.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..100 {
        let k = rng.gen_range(2..8);
        let b = rng.gen_range(12.0..75.0);
        let start = NodeId::new(rng.gen_range(0..48));
        let a = sync.query(start, k, b).expect("valid");
        let b_out = asynch.network().query(start, k, b).expect("valid");
        assert_eq!(a, b_out);
    }
}

#[test]
fn the_event_engine_goes_quiet_at_the_fixpoint() {
    let (fw, proto) = stack(48, 5);
    let mut sync = SimNetwork::new(fw.anchor(), fw.predicted_matrix(), proto.clone());
    sync.run_to_convergence(300).expect("sync converges");

    let mut cfg = AsyncConfig::new(proto);
    cfg.seed = 1234;
    let mut asynch = AsyncNetwork::new(fw.anchor(), fw.predicted_matrix(), cfg);
    // A bounded run first: an engine that never goes quiet fails here
    // instead of hanging in the unbounded run below.
    let quiet_at = asynch
        .clone()
        .run_to_quiescence(2_000.0)
        .expect("the queue drains");

    asynch.run_until(f64::INFINITY);
    assert!(
        asynch.now().is_finite(),
        "the clock stops at the last event"
    );
    assert!(asynch.now() >= quiet_at);
    assert_eq!(
        asynch.network().digest(),
        sync.digest(),
        "fixpoint depends on the schedule"
    );

    // At loss 0 nothing is sent after the fixpoint.
    let (delivered, lost) = (asynch.delivered(), asynch.lost());
    asynch.run_until(asynch.now() + 100.0);
    assert_eq!(
        asynch.delivered(),
        delivered,
        "a message after the fixpoint"
    );
    assert_eq!(asynch.lost(), lost);
}

#[test]
fn a_crash_that_never_recovers_keeps_the_engine_busy() {
    // Reports toward the dead host are lost, so their links stay due and
    // the engine never goes quiet.
    let (fw, proto) = stack(12, 5);
    let mut net = AsyncNetwork::new(fw.anchor(), fw.predicted_matrix(), AsyncConfig::new(proto));
    net.inject_faults(&FaultPlan::new(5).crash(0.0, NodeId::new(1)));
    assert_eq!(net.run_to_quiescence(200.0), None);
    assert_eq!(net.now(), 200.0);
    assert!(net.lost() > 0);
}

#[test]
fn a_nan_or_past_horizon_observes_nothing() {
    let (fw, proto) = stack(12, 5);
    let mut net = AsyncNetwork::new(fw.anchor(), fw.predicted_matrix(), AsyncConfig::new(proto));
    net.run_until(1.0);
    let delivered = net.delivered();
    for max_time in [f64::NAN, 0.5, -1.0, f64::NEG_INFINITY] {
        assert_eq!(net.run_to_quiescence(max_time), None, "{max_time}");
        assert_eq!(net.now(), 1.0, "{max_time} must not move the clock");
        assert_eq!(net.delivered(), delivered);
    }
    assert!(net.run_to_quiescence(2_000.0).is_some());
}

#[test]
fn async_fixpoint_is_independent_of_latency_distribution() {
    let (fw, proto) = stack(30, 6);
    let run = |latency: (f64, f64), seed: u64| {
        let mut cfg = AsyncConfig::new(proto.clone());
        cfg.latency = latency;
        cfg.seed = seed;
        let mut net = AsyncNetwork::new(fw.anchor(), fw.predicted_matrix(), cfg);
        net.run_to_quiescence(5_000.0).expect("converges");
        net.network().digest()
    };
    let fast_links = run((0.001, 0.005), 1);
    let slow_links = run((0.2, 0.9), 2);
    assert_eq!(fast_links, slow_links);
}

#[test]
fn placeholder_ids_hold_the_same_state_on_both_engines() {
    // The shape `DynamicSystem` serves: predicted distances over the whole
    // id universe, an overlay over part of it. Ids 6 and 7 are isolated
    // placeholders that no round and no delivery ever visits, so both
    // engines must leave them at the singleton fixpoint.
    let (fw, _) = stack(6, 8);
    let members = fw.predicted_matrix();
    let predicted = DistanceMatrix::from_fn(8, |i, j| {
        if i < 6 && j < 6 {
            members.get(i, j)
        } else {
            (i as f64 - j as f64).abs()
        }
    });
    let classes = BandwidthClasses::linspace(10.0, 80.0, 4, RationalTransform::default());
    let proto = ProtocolConfig::new(6, classes);

    let mut sync = SimNetwork::new(fw.anchor(), predicted.clone(), proto.clone());
    sync.run_to_convergence(300).expect("sync converges");
    let mut cfg = AsyncConfig::new(proto);
    cfg.seed = 8;
    let mut asynch = AsyncNetwork::new(fw.anchor(), predicted, cfg);
    asynch.run_to_quiescence(2_000.0).expect("async converges");

    assert_eq!(sync.nodes()[7].own_max(), [1, 1, 1, 1]);
    for id in [6, 7] {
        assert_eq!(
            asynch.network().nodes()[id].own_max(),
            sync.nodes()[id].own_max(),
            "placeholder {id}"
        );
    }
    assert_eq!(
        sync.digest(),
        asynch.network().digest(),
        "fixpoint depends on the schedule"
    );
}
