//! Checksummed, byte-stable snapshots of a [`DynamicSystem`].
//!
//! A [`SystemSnapshot`] captures everything the runtime cannot
//! regenerate cheaply — the prediction-framework arena, membership,
//! converged gossip state, and the cluster index rows — plus the digests
//! the live system reported at capture time. It deliberately excludes
//! the bandwidth matrix and the [`SystemConfig`]: both are ground truth
//! the operator supplies (and at scale the dense matrix would dwarf the
//! runtime state), so [`SystemSnapshot::restore`] takes them as
//! arguments and cross-checks the checkpoint against them.
//!
//! The wire format is five independently checksummed sections behind a
//! magic/version header. Encoding is canonical: the same system state
//! always produces the same bytes, which is what lets the chaos tier
//! compare snapshot digests across runs.
//!
//! Restores are *self-verifying*: after reassembly the restored system's
//! epoch, index digest and live network digest must all equal the values
//! recorded at capture time, otherwise the restore fails rather than
//! returning a plausible-but-wrong system.

use std::collections::BTreeSet;

use bcc_core::ClusterIndex;
use bcc_embed::{
    DistanceLabel, EdgeState, FrameworkState, LabelEntry, PredictionFramework, Vertex,
};
use bcc_metric::{BandwidthMatrix, NodeId};

use super::error::PersistError;
use crate::churn::{DynamicSystem, RestoredParts};
use crate::codec::{read_section, write_section, Reader, Writer};
use crate::config::SystemConfig;
use crate::engine::NodeGossipState;

/// Magic bytes opening every snapshot.
const MAGIC: [u8; 8] = *b"bccsnap\0";
/// The snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;

const TAG_META: u8 = 1;
const TAG_FRAMEWORK: u8 = 2;
const TAG_MEMBERSHIP: u8 = 3;
const TAG_GOSSIP: u8 = 4;
const TAG_INDEX: u8 = 5;

/// A complete checkpoint of a [`DynamicSystem`]'s runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSnapshot {
    /// Size of the measurement universe the system was built over.
    pub universe: usize,
    /// Membership revision ([`DynamicSystem::epoch`]) at capture.
    pub epoch: u64,
    /// Live overlay digest at capture (`None` for an empty system).
    pub live_digest: Option<u64>,
    /// Cluster-index digest at capture.
    pub index_digest: u64,
    /// Work units charged per examined pair by budgeted queries.
    pub work_cost: u64,
    /// Rounds the last convergence took, if any churn has happened.
    pub last_convergence_rounds: Option<usize>,
    /// The prediction framework, bit-for-bit.
    pub framework: FrameworkState,
    /// Active hosts, ascending.
    pub active: Vec<u32>,
    /// Crashed hosts, ascending.
    pub crashed: Vec<u32>,
    /// Converged per-node gossip state, in active-host order.
    pub gossip: Vec<NodeGossipState>,
    /// Cluster-index member ids, ascending (one per active host).
    pub index_ids: Vec<u32>,
    /// Cluster-index rows: sorted distances and the co-sorted member ids.
    pub index_rows: Vec<(Vec<f64>, Vec<u32>)>,
}

impl SystemSnapshot {
    /// Captures the current state of `sys`.
    pub fn capture(sys: &DynamicSystem) -> Self {
        let index = sys.cluster_index();
        let index_ids = index.ids().to_vec();
        let index_rows = (0..index_ids.len())
            .map(|slot| {
                let (d, id) = index.row(slot);
                (d.to_vec(), id.to_vec())
            })
            .collect();
        SystemSnapshot {
            universe: sys.universe_size(),
            epoch: sys.epoch(),
            live_digest: sys.live_digest(),
            index_digest: index.digest(),
            work_cost: sys.work_cost(),
            last_convergence_rounds: sys.last_convergence_rounds(),
            framework: sys.framework().export_state(),
            active: sys.active().map(|h| h.index() as u32).collect(),
            crashed: sys.crashed().map(|h| h.index() as u32).collect(),
            gossip: sys
                .network()
                .map(|net| net.export_gossip())
                .unwrap_or_default(),
            index_ids,
            index_rows,
        }
    }

    /// Serializes to the canonical checksummed byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        write_section(&mut out, TAG_META, &self.encode_meta());
        write_section(&mut out, TAG_FRAMEWORK, &encode_framework(&self.framework));
        write_section(&mut out, TAG_MEMBERSHIP, &self.encode_membership());
        write_section(&mut out, TAG_GOSSIP, &encode_gossip(&self.gossip));
        write_section(&mut out, TAG_INDEX, &self.encode_index());
        out
    }

    /// Parses and verifies the byte format.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.len() < MAGIC.len() + 4 || bytes[..MAGIC.len()] != MAGIC {
            return Err(PersistError::Malformed {
                detail: "snapshot magic missing or damaged".into(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(PersistError::VersionSkew {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let mut pos = 12;
        let meta = read_section(bytes, &mut pos, TAG_META, "meta")?;
        let framework = read_section(bytes, &mut pos, TAG_FRAMEWORK, "framework")?;
        let membership = read_section(bytes, &mut pos, TAG_MEMBERSHIP, "membership")?;
        let gossip = read_section(bytes, &mut pos, TAG_GOSSIP, "gossip")?;
        let index = read_section(bytes, &mut pos, TAG_INDEX, "index")?;
        if pos != bytes.len() {
            return Err(PersistError::Malformed {
                detail: format!("snapshot has {} trailing bytes", bytes.len() - pos),
            });
        }

        let mut snap = Self::decode_meta(meta)?;
        snap.framework = decode_framework(framework)?;
        Self::decode_membership(membership, &mut snap)?;
        snap.gossip = decode_gossip(gossip)?;
        Self::decode_index(index, &mut snap)?;
        Ok(snap)
    }

    /// Reassembles a live [`DynamicSystem`] from this snapshot.
    ///
    /// `bandwidth` and `config` are the operator-supplied ground truth
    /// the system was originally built with; the restore cross-checks the
    /// checkpoint against them, then verifies the restored system's
    /// epoch, index digest, and live overlay digest against the values
    /// recorded at capture — a failed check means the bytes verified but
    /// the state did not, and surfaces as [`PersistError::Malformed`].
    pub fn restore(
        self,
        bandwidth: &BandwidthMatrix,
        config: &SystemConfig,
    ) -> Result<DynamicSystem, PersistError> {
        if self.universe != bandwidth.len() {
            return Err(PersistError::Malformed {
                detail: format!(
                    "snapshot universe {} does not match supplied bandwidth matrix over {}",
                    self.universe,
                    bandwidth.len()
                ),
            });
        }
        let framework =
            PredictionFramework::from_state(self.framework, config.framework).map_err(|e| {
                PersistError::Malformed {
                    detail: format!("framework state rejected: {e}"),
                }
            })?;
        if framework.revision() != self.epoch {
            return Err(PersistError::Malformed {
                detail: format!(
                    "framework revision {} disagrees with snapshot epoch {}",
                    framework.revision(),
                    self.epoch
                ),
            });
        }
        let index = ClusterIndex::from_parts(self.universe, self.index_ids, self.index_rows)
            .map_err(|e| PersistError::Malformed {
                detail: format!("index rows rejected: {e}"),
            })?;
        if index.digest() != self.index_digest {
            return Err(PersistError::Malformed {
                detail: "restored index digest disagrees with snapshot".into(),
            });
        }
        let to_set = |ids: &[u32]| -> BTreeSet<NodeId> {
            ids.iter().map(|&id| NodeId::new(id as usize)).collect()
        };
        let sys = DynamicSystem::from_restored_parts(RestoredParts {
            bandwidth: bandwidth.clone(),
            config: config.clone(),
            framework,
            active: to_set(&self.active),
            crashed: to_set(&self.crashed),
            index,
            gossip: self.gossip,
            work_cost: self.work_cost,
            last_convergence_rounds: self.last_convergence_rounds,
        })
        .map_err(|detail| PersistError::Malformed { detail })?;
        if sys.live_digest() != self.live_digest {
            return Err(PersistError::Malformed {
                detail: "restored overlay digest disagrees with snapshot".into(),
            });
        }
        Ok(sys)
    }

    fn encode_meta(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.universe);
        w.u64(self.epoch);
        write_opt_u64(&mut w, self.live_digest);
        w.u64(self.index_digest);
        w.u64(self.work_cost);
        write_opt_u64(&mut w, self.last_convergence_rounds.map(|r| r as u64));
        w.finish()
    }

    fn decode_meta(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes, "meta");
        let universe = r.u64()? as usize;
        let epoch = r.u64()?;
        let live_digest = read_opt_u64(&mut r)?;
        let index_digest = r.u64()?;
        let work_cost = r.u64()?;
        let last_convergence_rounds = read_opt_u64(&mut r)?.map(|v| v as usize);
        r.done()?;
        Ok(SystemSnapshot {
            universe,
            epoch,
            live_digest,
            index_digest,
            work_cost,
            last_convergence_rounds,
            framework: FrameworkState {
                vertices: Vec::new(),
                edges: Vec::new(),
                adj: Vec::new(),
                leaf_of: Vec::new(),
                anchor: Vec::new(),
                labels: Vec::new(),
                join_order: Vec::new(),
                probes: 0,
                revision: 0,
                rng: [0; 4],
            },
            active: Vec::new(),
            crashed: Vec::new(),
            gossip: Vec::new(),
            index_ids: Vec::new(),
            index_rows: Vec::new(),
        })
    }

    fn encode_membership(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.active.len());
        w.u32_slice(&self.active);
        w.usize(self.crashed.len());
        w.u32_slice(&self.crashed);
        w.finish()
    }

    fn decode_membership(bytes: &[u8], snap: &mut Self) -> Result<(), PersistError> {
        let mut r = Reader::new(bytes, "membership");
        let n = r.len()?;
        snap.active = r.u32_vec(n)?;
        let n = r.len()?;
        snap.crashed = r.u32_vec(n)?;
        r.done()
    }

    fn encode_index(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.index_ids.len());
        w.u32_slice(&self.index_ids);
        w.usize(self.index_rows.len());
        for (d, id) in &self.index_rows {
            w.usize(d.len());
            w.f64_slice(d);
            w.usize(id.len());
            w.u32_slice(id);
        }
        w.finish()
    }

    fn decode_index(bytes: &[u8], snap: &mut Self) -> Result<(), PersistError> {
        let mut r = Reader::new(bytes, "index");
        let n = r.len()?;
        snap.index_ids = r.u32_vec(n)?;
        let n = r.len()?;
        snap.index_rows = (0..n)
            .map(|_| -> Result<_, PersistError> {
                let nd = r.len()?;
                let d = r.f64_vec(nd)?;
                let ni = r.len()?;
                let id = r.u32_vec(ni)?;
                Ok((d, id))
            })
            .collect::<Result<_, _>>()?;
        r.done()
    }
}

fn write_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        Some(v) => {
            w.u8(1);
            w.u64(v);
        }
        None => w.u8(0),
    }
}

fn read_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, PersistError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        tag => Err(PersistError::Malformed {
            detail: format!("invalid option tag {tag}"),
        }),
    }
}

fn encode_framework(state: &FrameworkState) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(state.vertices.len());
    for v in &state.vertices {
        match v {
            None => w.u8(0),
            Some(Vertex::Leaf { host }) => {
                w.u8(1);
                w.u32(host.index() as u32);
            }
            Some(Vertex::Inner { created_by }) => {
                w.u8(2);
                w.u32(created_by.index() as u32);
            }
        }
    }
    w.usize(state.edges.len());
    for e in &state.edges {
        match e {
            None => w.u8(0),
            Some(e) => {
                w.u8(1);
                w.usize(e.a);
                w.usize(e.b);
                w.f64(e.weight);
                w.u32(e.owner.index() as u32);
            }
        }
    }
    w.usize(state.adj.len());
    for list in &state.adj {
        w.usize(list.len());
        for &idx in list {
            w.usize(idx);
        }
    }
    w.usize(state.leaf_of.len());
    for slot in &state.leaf_of {
        match slot {
            None => w.u8(0),
            Some(idx) => {
                w.u8(1);
                w.usize(*idx);
            }
        }
    }
    w.usize(state.anchor.len());
    for (host, parent) in &state.anchor {
        w.u32(host.index() as u32);
        match parent {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                w.u32(p.index() as u32);
            }
        }
    }
    w.usize(state.labels.len());
    for label in &state.labels {
        match label {
            None => w.u8(0),
            Some(label) => {
                w.u8(1);
                w.usize(label.entries().len());
                for entry in label.entries() {
                    w.u32(entry.host.index() as u32);
                    w.f64(entry.pos);
                    w.f64(entry.leaf_weight);
                }
            }
        }
    }
    w.usize(state.join_order.len());
    for host in &state.join_order {
        w.u32(host.index() as u32);
    }
    w.u64(state.probes);
    w.u64(state.revision);
    for &word in &state.rng {
        w.u64(word);
    }
    w.finish()
}

fn decode_framework(bytes: &[u8]) -> Result<FrameworkState, PersistError> {
    let mut r = Reader::new(bytes, "framework");
    let node = |id: u32| NodeId::new(id as usize);
    let n = r.len()?;
    let vertices = (0..n)
        .map(|_| -> Result<_, PersistError> {
            Ok(match r.u8()? {
                0 => None,
                1 => Some(Vertex::Leaf {
                    host: node(r.u32()?),
                }),
                2 => Some(Vertex::Inner {
                    created_by: node(r.u32()?),
                }),
                tag => {
                    return Err(PersistError::Malformed {
                        detail: format!("invalid vertex tag {tag}"),
                    })
                }
            })
        })
        .collect::<Result<_, _>>()?;
    let n = r.len()?;
    let edges = (0..n)
        .map(|_| -> Result<_, PersistError> {
            Ok(match r.u8()? {
                0 => None,
                1 => Some(EdgeState {
                    a: r.u64()? as usize,
                    b: r.u64()? as usize,
                    weight: r.f64()?,
                    owner: node(r.u32()?),
                }),
                tag => {
                    return Err(PersistError::Malformed {
                        detail: format!("invalid edge tag {tag}"),
                    })
                }
            })
        })
        .collect::<Result<_, _>>()?;
    let n = r.len()?;
    let adj = (0..n)
        .map(|_| -> Result<_, PersistError> {
            let m = r.len()?;
            (0..m).map(|_| Ok(r.u64()? as usize)).collect()
        })
        .collect::<Result<_, _>>()?;
    let n = r.len()?;
    let leaf_of = (0..n)
        .map(|_| -> Result<_, PersistError> {
            Ok(match r.u8()? {
                0 => None,
                1 => Some(r.u64()? as usize),
                tag => {
                    return Err(PersistError::Malformed {
                        detail: format!("invalid leaf_of tag {tag}"),
                    })
                }
            })
        })
        .collect::<Result<_, _>>()?;
    let n = r.len()?;
    let anchor = (0..n)
        .map(|_| -> Result<_, PersistError> {
            let host = node(r.u32()?);
            let parent = match r.u8()? {
                0 => None,
                1 => Some(node(r.u32()?)),
                tag => {
                    return Err(PersistError::Malformed {
                        detail: format!("invalid anchor-parent tag {tag}"),
                    })
                }
            };
            Ok((host, parent))
        })
        .collect::<Result<_, _>>()?;
    let n = r.len()?;
    let labels = (0..n)
        .map(|_| -> Result<_, PersistError> {
            Ok(match r.u8()? {
                0 => None,
                1 => {
                    let m = r.len()?;
                    let entries = (0..m)
                        .map(|_| -> Result<_, PersistError> {
                            Ok(LabelEntry {
                                host: node(r.u32()?),
                                pos: r.f64()?,
                                leaf_weight: r.f64()?,
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Some(DistanceLabel::from_entries(entries).map_err(|e| {
                        PersistError::Malformed {
                            detail: format!("label rejected: {e}"),
                        }
                    })?)
                }
                tag => {
                    return Err(PersistError::Malformed {
                        detail: format!("invalid label tag {tag}"),
                    })
                }
            })
        })
        .collect::<Result<_, _>>()?;
    let n = r.len()?;
    let join_order = (0..n)
        .map(|_| Ok(node(r.u32()?)))
        .collect::<Result<_, PersistError>>()?;
    let probes = r.u64()?;
    let revision = r.u64()?;
    let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    r.done()?;
    Ok(FrameworkState {
        vertices,
        edges,
        adj,
        leaf_of,
        anchor,
        labels,
        join_order,
        probes,
        revision,
        rng,
    })
}

fn encode_gossip(states: &[NodeGossipState]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(states.len());
    for state in states {
        w.usize(state.aggr_node.len());
        for (from, members) in &state.aggr_node {
            w.u32(from.index() as u32);
            w.usize(members.len());
            for m in members {
                w.u32(m.index() as u32);
            }
        }
        w.usize(state.own_max.len());
        for &v in &state.own_max {
            w.usize(v);
        }
        w.usize(state.crt.len());
        for (from, row) in &state.crt {
            w.u32(from.index() as u32);
            w.usize(row.len());
            for &v in row {
                w.usize(v);
            }
        }
    }
    w.finish()
}

fn decode_gossip(bytes: &[u8]) -> Result<Vec<NodeGossipState>, PersistError> {
    let mut r = Reader::new(bytes, "gossip");
    let node = |id: u32| NodeId::new(id as usize);
    let n = r.len()?;
    let states = (0..n)
        .map(|_| -> Result<_, PersistError> {
            let m = r.len()?;
            let aggr_node = (0..m)
                .map(|_| -> Result<_, PersistError> {
                    let from = node(r.u32()?);
                    let k = r.len()?;
                    let members = (0..k)
                        .map(|_| Ok(node(r.u32()?)))
                        .collect::<Result<_, PersistError>>()?;
                    Ok((from, members))
                })
                .collect::<Result<_, _>>()?;
            let m = r.len()?;
            let own_max = (0..m)
                .map(|_| Ok(r.u64()? as usize))
                .collect::<Result<_, PersistError>>()?;
            let m = r.len()?;
            let crt = (0..m)
                .map(|_| -> Result<_, PersistError> {
                    let from = node(r.u32()?);
                    let k = r.len()?;
                    let row = (0..k)
                        .map(|_| Ok(r.u64()? as usize))
                        .collect::<Result<_, PersistError>>()?;
                    Ok((from, row))
                })
                .collect::<Result<_, _>>()?;
            Ok(NodeGossipState {
                aggr_node,
                own_max,
                crt,
            })
        })
        .collect::<Result<_, _>>()?;
    r.done()?;
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{chaos_classes, seeded_universe};

    fn live_system(
        universe: usize,
        hosts: usize,
    ) -> (DynamicSystem, BandwidthMatrix, SystemConfig) {
        let bandwidth = seeded_universe(42, universe);
        let config = SystemConfig::new(chaos_classes());
        let hosts: Vec<NodeId> = (0..hosts).map(NodeId::new).collect();
        let sys = DynamicSystem::bootstrap(bandwidth.clone(), config.clone(), &hosts).unwrap();
        (sys, bandwidth, config)
    }

    #[test]
    fn snapshot_restore_reproduces_digests_bit_for_bit() {
        let (mut sys, bandwidth, config) = live_system(10, 6);
        sys.crash(NodeId::new(2)).unwrap();
        sys.join(NodeId::new(7)).unwrap();

        let snap = SystemSnapshot::capture(&sys);
        let bytes = snap.encode();
        assert_eq!(
            bytes,
            SystemSnapshot::capture(&sys).encode(),
            "encoding must be canonical"
        );
        let decoded = SystemSnapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snap);

        let restored = decoded.restore(&bandwidth, &config).unwrap();
        assert_eq!(restored.epoch(), sys.epoch());
        assert_eq!(restored.live_digest(), sys.live_digest());
        assert_eq!(restored.index_stamp(), sys.index_stamp());
        assert_eq!(restored.cluster_index().stats().full_builds, 0);
        assert!(restored.is_crashed(NodeId::new(2)));
        assert_eq!(restored.work_cost(), sys.work_cost());
    }

    #[test]
    fn restored_system_keeps_working_under_further_churn() {
        let (mut sys, bandwidth, config) = live_system(8, 5);
        let mut restored = SystemSnapshot::capture(&sys)
            .restore(&bandwidth, &config)
            .unwrap();
        for op in 0..2 {
            let host = NodeId::new(5 + op);
            sys.join(host).unwrap();
            restored.join(host).unwrap();
        }
        sys.leave(NodeId::new(0)).unwrap();
        restored.leave(NodeId::new(0)).unwrap();
        assert_eq!(restored.epoch(), sys.epoch());
        assert_eq!(restored.live_digest(), sys.live_digest());
        assert_eq!(restored.index_stamp(), sys.index_stamp());
    }

    #[test]
    fn empty_system_round_trips() {
        let bandwidth = seeded_universe(1, 4);
        let config = SystemConfig::new(chaos_classes());
        let sys = DynamicSystem::new(bandwidth.clone(), config.clone());
        let snap = SystemSnapshot::capture(&sys);
        let restored = SystemSnapshot::decode(&snap.encode())
            .unwrap()
            .restore(&bandwidth, &config)
            .unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.live_digest(), None);
    }

    #[test]
    fn every_corruption_is_detected() {
        let (sys, _, _) = live_system(8, 5);
        let bytes = SystemSnapshot::capture(&sys).encode();

        // Version skew.
        let mut skew = bytes.clone();
        skew[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            SystemSnapshot::decode(&skew).unwrap_err(),
            PersistError::VersionSkew {
                found: 9,
                supported: 1
            }
        );

        // Damaged magic.
        let mut magic = bytes.clone();
        magic[0] ^= 0xFF;
        assert!(matches!(
            SystemSnapshot::decode(&magic).unwrap_err(),
            PersistError::Malformed { .. }
        ));

        // A bit flip anywhere in the sectioned body must be caught by a
        // section checksum (or the framing it corrupts).
        for &at in &[20, bytes.len() / 2, bytes.len() - 3] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            assert!(
                SystemSnapshot::decode(&flipped).is_err(),
                "flip at byte {at} went undetected"
            );
        }

        // Torn writes of every length fail to decode.
        for keep in [0, 11, 12, 40, bytes.len() - 1] {
            assert!(
                SystemSnapshot::decode(&bytes[..keep]).is_err(),
                "torn write at {keep} bytes went undetected"
            );
        }
    }

    #[test]
    fn restore_cross_checks_the_supplied_ground_truth() {
        let (sys, bandwidth, config) = live_system(8, 5);
        let snap = SystemSnapshot::capture(&sys);

        let small = seeded_universe(42, 6);
        assert!(matches!(
            snap.clone().restore(&small, &config).unwrap_err(),
            PersistError::Malformed { .. }
        ));

        // Tampered epoch: bytes verify (we re-encode), state does not.
        let mut tampered = snap.clone();
        tampered.epoch += 1;
        assert!(matches!(
            tampered.restore(&bandwidth, &config).unwrap_err(),
            PersistError::Malformed { .. }
        ));

        // Tampered live digest is caught by the final self-check.
        let mut tampered = snap;
        tampered.live_digest = tampered.live_digest.map(|d| d ^ 1);
        assert!(matches!(
            tampered.restore(&bandwidth, &config).unwrap_err(),
            PersistError::Malformed { .. }
        ));
    }
}
