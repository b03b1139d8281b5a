//! The fixture `sharded_identity`, `restored_identity` and
//! `served_identity` share: one 64-host universe and one twelve-op churn
//! schedule.

use bandwidth_clusters::prelude::*;
use bandwidth_clusters::simnet::ChurnOp;

pub const HOSTS: usize = 64;

/// A noise-free capacitated hierarchy, numbered so that contiguous id
/// ranges are subtrees: 64 hosts → 16 sites of 4 → 8 regions → 4 zones,
/// pairwise bandwidth the minimum capacity on the tree path. Zone uplinks
/// are slow, so a tight-class ball stays inside one shard of four (the
/// prune certificate fires) and a wide-class ball straddles them.
pub fn hierarchy() -> BandwidthMatrix {
    let access = |i: usize| 30.0 + ((i * 37) % 11) as f64 * 22.0;
    let site = |s: usize| 150.0 + ((s * 53) % 7) as f64 * 50.0;
    let region = |r: usize| 40.0 + ((r * 29) % 5) as f64 * 12.0;
    let zone = |z: usize| 6.0 + ((z * 3) % 4) as f64 * 2.5;
    BandwidthMatrix::from_fn(HOSTS, |i, j| {
        let mut bw = access(i).min(access(j));
        let (si, sj) = (i / 4, j / 4);
        if si != sj {
            bw = bw.min(site(si)).min(site(sj));
        }
        let (ri, rj) = (si / 2, sj / 2);
        if ri != rj {
            bw = bw.min(region(ri)).min(region(rj));
        }
        let (zi, zj) = (ri / 2, rj / 2);
        if zi != zj {
            bw = bw.min(zone(zi)).min(zone(zj));
        }
        bw
    })
}

/// Twelve ops over hosts in every zone; the double join and the recover of
/// a host that never crashed must fail alike on both sides.
pub const SCHEDULE: [(ChurnOp, usize); 12] = [
    (ChurnOp::Leave, 5),
    (ChurnOp::Join, 60),
    (ChurnOp::Crash, 17),
    (ChurnOp::Leave, 33),
    (ChurnOp::Join, 61),
    (ChurnOp::Join, 61),
    (ChurnOp::Recover, 17),
    (ChurnOp::Crash, 48),
    (ChurnOp::Join, 5),
    (ChurnOp::Recover, 2),
    (ChurnOp::Leave, 20),
    (ChurnOp::Recover, 48),
];
