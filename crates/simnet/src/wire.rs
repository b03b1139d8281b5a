//! Wire encoding of protocol messages.
//!
//! The simulator charges each gossip exchange its real serialized size, so
//! the evaluation can report message-volume costs (the quantity the paper's
//! `n_cut` knob bounds) rather than abstract message counts. Frames use the
//! crate's one little-endian [`Writer`]/[`Reader`], the same primitives as
//! snapshots and the journal.

use bcc_metric::NodeId;

use crate::codec::{Reader, Writer};

/// A protocol message traveling along one overlay edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Algorithm 2 payload: the closest-node records for the receiver.
    NodeInfo {
        /// Hosts closest to the receiver through the sender's directions.
        nodes: Vec<NodeId>,
    },
    /// Algorithm 3 payload: max cluster size per bandwidth class.
    CrtRow {
        /// `propCRT[l]` for every class, in class order.
        sizes: Vec<u32>,
    },
}

const TAG_NODE_INFO: u8 = 1;
const TAG_CRT_ROW: u8 = 2;
/// Tag byte plus `u32` entry count.
const HEADER_LEN: usize = 5;

impl Message {
    /// The `CrtRow` carrying `row`. Cluster sizes are bounded by the host
    /// count, so they fit the wire's `u32`.
    pub(crate) fn crt_row(row: &[usize]) -> Message {
        let sizes = row
            .iter()
            .map(|&s| u32::try_from(s).expect("cluster size fits u32"))
            .collect();
        Message::CrtRow { sizes }
    }

    /// Serializes the message (1-byte tag, u32 length, u32 entries).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Message::NodeInfo { nodes } => {
                w.u8(TAG_NODE_INFO);
                w.u32(u32::try_from(nodes.len()).expect("message fits u32"));
                for n in nodes {
                    w.u32(u32::try_from(n.index()).expect("host id fits u32"));
                }
            }
            Message::CrtRow { sizes } => {
                w.u8(TAG_CRT_ROW);
                w.u32(u32::try_from(sizes.len()).expect("message fits u32"));
                w.u32_slice(sizes);
            }
        }
        w.finish()
    }

    /// Decodes a message produced by [`Message::encode`]; bytes after the
    /// frame are ignored.
    ///
    /// Returns `None` on truncated or unrecognized input, before allocating
    /// anything: the header and the declared length are checked against
    /// the bytes present first, so no read below can fail.
    pub fn decode(bytes: &[u8]) -> Option<Message> {
        if bytes.len() < HEADER_LEN {
            return None;
        }
        let mut r = Reader::new(bytes, "wire");
        let tag = r.u8().ok()?;
        let len = r.u32().ok()? as usize;
        if r.remaining() / 4 < len || !matches!(tag, TAG_NODE_INFO | TAG_CRT_ROW) {
            return None;
        }
        let entries = r.u32_vec(len).ok()?;
        Some(if tag == TAG_NODE_INFO {
            Message::NodeInfo {
                nodes: entries
                    .into_iter()
                    .map(|i| NodeId::new(i as usize))
                    .collect(),
            }
        } else {
            Message::CrtRow { sizes: entries }
        })
    }

    /// Serialized size in bytes.
    pub fn wire_len(&self) -> usize {
        5 + 4 * match self {
            Message::NodeInfo { nodes } => nodes.len(),
            Message::CrtRow { sizes } => sizes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn node_info_roundtrip() {
        let m = Message::NodeInfo {
            nodes: vec![n(3), n(0), n(250)],
        };
        let b = m.encode();
        assert_eq!(b.len(), m.wire_len());
        assert_eq!(Message::decode(&b), Some(m));
    }

    #[test]
    fn crt_row_roundtrip() {
        let m = Message::CrtRow {
            sizes: vec![1, 0, 42, 9000],
        };
        assert_eq!(Message::decode(&m.encode()), Some(m));
    }

    #[test]
    fn frames_are_little_endian() {
        let m = Message::CrtRow {
            sizes: vec![0x0102_0304],
        };
        assert_eq!(m.encode(), [TAG_CRT_ROW, 1, 0, 0, 0, 4, 3, 2, 1]);
    }

    #[test]
    fn empty_payloads() {
        let m = Message::NodeInfo { nodes: vec![] };
        assert_eq!(m.wire_len(), 5);
        assert_eq!(Message::decode(&m.encode()), Some(m));
    }

    #[test]
    fn truncated_rejected() {
        let m = Message::CrtRow {
            sizes: vec![1, 2, 3],
        };
        let b = m.encode();
        assert_eq!(Message::decode(&b[..b.len() - 1]), None);
        assert_eq!(Message::decode(&[]), None);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Message::decode(&[99, 0, 0, 0, 0]), None);
    }
}
