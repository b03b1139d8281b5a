//! The measurement universes the workloads run on.
//!
//! Universes are fixtures, not inputs: they are generated from constants
//! so every seed measures the same deployment, and `--seed` only varies
//! the traffic sent to it (see `gen`).

use bcc_core::BandwidthClasses;
use bcc_metric::{BandwidthMatrix, RationalTransform};
use bcc_simnet::SystemConfig;

use crate::gen::{Rng, CLASSES};

/// Seed of every universe fixture (the paper's year).
const FIXTURE_SEED: u64 = 2011;

/// UMD-PlanetLab access-link mixture `(Mbps, weight)`, as in
/// `bcc_datasets::umd_config`.
const UMD_ACCESS: [(f64, f64); 4] = [(28.0, 0.20), (70.0, 0.28), (135.0, 0.36), (280.0, 0.16)];

/// Five classes across the UMD query band.
pub fn classes() -> BandwidthClasses {
    BandwidthClasses::linspace(30.0, 110.0, CLASSES, RationalTransform::default())
}

/// Default system configuration over [`classes`].
pub fn system_config() -> SystemConfig {
    SystemConfig::new(classes())
}

/// `bcc_datasets::umd_config` scaled to `hosts` hosts at the preset's four
/// hosts a site; regions (10), capacities and noise (0.12) as in the preset.
pub fn umd_like(hosts: usize) -> BandwidthMatrix {
    let mut cfg = bcc_datasets::umd_config(FIXTURE_SEED);
    cfg.nodes = hosts;
    cfg.sites = (hosts / 4).max(1);
    bcc_datasets::generate(&cfg)
}

/// A noise-free capacitated hierarchy numbered site-contiguously: hosts →
/// sites of `per_site` → 8 regions → 4 zones, pairwise bandwidth = the
/// minimum capacity on the tree path. Contiguous id ranges are subtrees at
/// every level, so `ShardPlan::contiguous(hosts, 4)` puts one zone in each
/// shard. Zone uplinks are slow enough that a tight-class ball stays inside
/// its shard (the coordinator's prune certificate fires) while a wide-class
/// ball straddles shards.
///
/// # Panics
///
/// Panics unless `hosts` is a multiple of `8 * per_site`.
pub fn hierarchy(hosts: usize, per_site: usize) -> BandwidthMatrix {
    assert!(
        per_site > 0 && hosts.is_multiple_of(8 * per_site),
        "hierarchy needs whole sites in 8 equal regions"
    );
    let sites = hosts / per_site;
    let sites_per_region = sites / 8;
    let mut rng = Rng::new(FIXTURE_SEED ^ 0x5AD0);
    let total: f64 = UMD_ACCESS.iter().map(|&(_, w)| w).sum();
    let access: Vec<f64> = (0..hosts)
        .map(|_| {
            let mut pick = rng.unit() * total;
            let mut cap = UMD_ACCESS[UMD_ACCESS.len() - 1].0;
            for &(c, w) in &UMD_ACCESS {
                if pick < w {
                    cap = c;
                    break;
                }
                pick -= w;
            }
            cap * rng.range(0.8, 1.25)
        })
        .collect();
    let site_cap: Vec<f64> = (0..sites).map(|_| rng.range(150.0, 500.0)).collect();
    let region_cap: Vec<f64> = (0..8).map(|_| rng.range(40.0, 90.0)).collect();
    let zone_cap: Vec<f64> = (0..4).map(|_| rng.range(6.0, 14.0)).collect();
    BandwidthMatrix::from_fn(hosts, |i, j| {
        let (si, sj) = (i / per_site, j / per_site);
        let mut bw = access[i].min(access[j]);
        if si != sj {
            bw = bw.min(site_cap[si]).min(site_cap[sj]);
            let (ri, rj) = (si / sites_per_region, sj / sites_per_region);
            if ri != rj {
                bw = bw.min(region_cap[ri]).min(region_cap[rj]);
                let (zi, zj) = (ri / 2, rj / 2);
                if zi != zj {
                    bw = bw.min(zone_cap[zi]).min(zone_cap[zj]);
                }
            }
        }
        bw
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_do_not_depend_on_anything_but_their_size() {
        assert_eq!(umd_like(48), umd_like(48));
        assert_eq!(hierarchy(64, 4), hierarchy(64, 4));
        hierarchy(64, 4)
            .validate()
            .expect("positive finite bandwidth");
    }

    #[test]
    fn zones_are_the_slowest_level() {
        let bw = hierarchy(64, 4);
        // Hosts 0 and 63 are in different zones; 0 and 1 share a site.
        assert!(bw.get(0, 63) <= 14.0);
        assert!(bw.get(0, 1) > bw.get(0, 63));
    }
}
