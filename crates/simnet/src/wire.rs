//! Wire encoding of protocol messages.
//!
//! The simulator charges each gossip exchange its real serialized size, so
//! the evaluation can report message-volume costs (the quantity the paper's
//! `n_cut` knob bounds) rather than abstract message counts.

use bcc_metric::NodeId;
use bytes::{Buf, BufMut, Bytes, BytesMut};

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
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Message::NodeInfo { nodes } => {
                buf.put_u8(TAG_NODE_INFO);
                buf.put_u32(u32::try_from(nodes.len()).expect("message fits u32"));
                for n in nodes {
                    buf.put_u32(u32::try_from(n.index()).expect("host id fits u32"));
                }
            }
            Message::CrtRow { sizes } => {
                buf.put_u8(TAG_CRT_ROW);
                buf.put_u32(u32::try_from(sizes.len()).expect("message fits u32"));
                for &s in sizes {
                    buf.put_u32(s);
                }
            }
        }
        buf.freeze()
    }

    /// Decodes a message produced by [`Message::encode`].
    ///
    /// Returns `None` on truncated or unrecognized input.
    pub fn decode(mut bytes: Bytes) -> Option<Message> {
        if bytes.remaining() < 5 {
            return None;
        }
        let tag = bytes.get_u8();
        let len = bytes.get_u32() as usize;
        if bytes.remaining() < len * 4 {
            return None;
        }
        match tag {
            TAG_NODE_INFO => {
                let nodes = (0..len)
                    .map(|_| NodeId::new(bytes.get_u32() as usize))
                    .collect();
                Some(Message::NodeInfo { nodes })
            }
            TAG_CRT_ROW => {
                let sizes = (0..len).map(|_| bytes.get_u32()).collect();
                Some(Message::CrtRow { sizes })
            }
            _ => None,
        }
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
        assert_eq!(Message::decode(b), Some(m));
    }

    #[test]
    fn crt_row_roundtrip() {
        let m = Message::CrtRow {
            sizes: vec![1, 0, 42, 9000],
        };
        assert_eq!(Message::decode(m.encode()), Some(m));
    }

    #[test]
    fn empty_payloads() {
        let m = Message::NodeInfo { nodes: vec![] };
        assert_eq!(m.wire_len(), 5);
        assert_eq!(Message::decode(m.encode()), Some(m));
    }

    #[test]
    fn truncated_rejected() {
        let m = Message::CrtRow {
            sizes: vec![1, 2, 3],
        };
        let b = m.encode();
        assert_eq!(Message::decode(b.slice(0..b.len() - 1)), None);
        assert_eq!(Message::decode(Bytes::new()), None);
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        buf.put_u32(0);
        assert_eq!(Message::decode(buf.freeze()), None);
    }
}
