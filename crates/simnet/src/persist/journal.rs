//! Write-ahead op journal for churn events between snapshots.
//!
//! Each churn event appends one fixed-size checksummed frame. Recovery
//! replays the journal suffix on top of the latest valid snapshot
//! through the same incremental churn path the live system uses, so a
//! recovered system is the *same computation*, not an approximation.
//!
//! Frame layout (25 bytes, little-endian):
//! `[len u32 = 13][op u8][host u32][epoch u64][fnv u64]`
//! where the checksum covers the 13 body bytes. A torn tail — a final
//! frame cut mid-write — is detected by the length/checksum and the
//! valid prefix is still usable.

use bcc_metric::NodeId;

use super::error::PersistError;
use crate::churn::ChurnOp;
use crate::codec::fnv64;

/// Body bytes per frame: op (1) + host (4) + epoch (8).
const BODY_LEN: usize = 13;
/// Total bytes per frame: length prefix + body + checksum.
pub(crate) const FRAME_LEN: usize = 4 + BODY_LEN + 8;

/// The journal's one-byte wire code of a [`ChurnOp`].
impl ChurnOp {
    fn code(self) -> u8 {
        match self {
            ChurnOp::Join => 1,
            ChurnOp::Leave => 2,
            ChurnOp::Crash => 3,
            ChurnOp::Recover => 4,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(ChurnOp::Join),
            2 => Some(ChurnOp::Leave),
            3 => Some(ChurnOp::Crash),
            4 => Some(ChurnOp::Recover),
            _ => None,
        }
    }
}

/// One journaled churn event: the operation, its host, and the system
/// epoch *after* the operation applied (used to cross-check replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// What happened.
    pub op: ChurnOp,
    /// The host it happened to.
    pub host: u32,
    /// `DynamicSystem::epoch()` immediately after the op.
    pub epoch: u64,
}

impl JournalRecord {
    /// The host as a [`NodeId`].
    pub fn node(&self) -> NodeId {
        NodeId::new(self.host as usize)
    }
}

/// Encodes one record as a checksummed frame.
pub(crate) fn encode_record(rec: &JournalRecord) -> [u8; FRAME_LEN] {
    let mut body = [0u8; BODY_LEN];
    body[0] = rec.op.code();
    body[1..5].copy_from_slice(&rec.host.to_le_bytes());
    body[5..13].copy_from_slice(&rec.epoch.to_le_bytes());
    let mut frame = [0u8; FRAME_LEN];
    frame[0..4].copy_from_slice(&(BODY_LEN as u32).to_le_bytes());
    frame[4..4 + BODY_LEN].copy_from_slice(&body);
    frame[4 + BODY_LEN..].copy_from_slice(&fnv64(&body).to_le_bytes());
    frame
}

/// Decodes a journal into its records.
///
/// In `strict` mode any unreadable frame is fatal
/// ([`PersistError::TruncatedJournal`] at its byte offset). In lossy
/// mode — used only for the *final* journal of a recovery chain, whose
/// tail may legitimately have been torn by the crash — the valid prefix
/// is returned together with `Some(offset)` of the first bad frame.
pub(crate) fn decode_records(
    bytes: &[u8],
    strict: bool,
) -> Result<(Vec<JournalRecord>, Option<usize>), PersistError> {
    let mut records = Vec::with_capacity(bytes.len() / FRAME_LEN);
    let mut pos = 0;
    while pos < bytes.len() {
        match decode_frame(bytes, pos) {
            Some(rec) => {
                records.push(rec);
                pos += FRAME_LEN;
            }
            None if strict => return Err(PersistError::TruncatedJournal { at: pos }),
            None => return Ok((records, Some(pos))),
        }
    }
    Ok((records, None))
}

fn decode_frame(bytes: &[u8], pos: usize) -> Option<JournalRecord> {
    let frame = bytes.get(pos..pos + FRAME_LEN)?;
    let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
    if len as usize != BODY_LEN {
        return None;
    }
    let body = &frame[4..4 + BODY_LEN];
    let stored = u64::from_le_bytes(frame[4 + BODY_LEN..].try_into().expect("8 bytes"));
    if fnv64(body) != stored {
        return None;
    }
    Some(JournalRecord {
        op: ChurnOp::from_code(body[0])?,
        host: u32::from_le_bytes(body[1..5].try_into().expect("4 bytes")),
        epoch: u64::from_le_bytes(body[5..13].try_into().expect("8 bytes")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<JournalRecord> {
        vec![
            JournalRecord {
                op: ChurnOp::Join,
                host: 3,
                epoch: 10,
            },
            JournalRecord {
                op: ChurnOp::Crash,
                host: 1,
                epoch: 11,
            },
            JournalRecord {
                op: ChurnOp::Recover,
                host: 1,
                epoch: 14,
            },
            JournalRecord {
                op: ChurnOp::Leave,
                host: u32::MAX,
                epoch: u64::MAX,
            },
        ]
    }

    fn encode_all(recs: &[JournalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for rec in recs {
            out.extend_from_slice(&encode_record(rec));
        }
        out
    }

    #[test]
    fn records_round_trip() {
        let recs = sample();
        let bytes = encode_all(&recs);
        assert_eq!(bytes.len(), recs.len() * FRAME_LEN);
        let (decoded, torn) = decode_records(&bytes, true).unwrap();
        assert_eq!(decoded, recs);
        assert_eq!(torn, None);
        assert_eq!(decode_records(&[], true).unwrap(), (Vec::new(), None));
    }

    #[test]
    fn torn_tail_is_fatal_in_strict_mode_and_tolerated_in_lossy() {
        let recs = sample();
        let mut bytes = encode_all(&recs);
        bytes.truncate(bytes.len() - 5); // tear the last frame mid-write

        let err = decode_records(&bytes, true).unwrap_err();
        assert_eq!(err, PersistError::TruncatedJournal { at: 3 * FRAME_LEN });

        let (prefix, torn) = decode_records(&bytes, false).unwrap();
        assert_eq!(prefix, recs[..3]);
        assert_eq!(torn, Some(3 * FRAME_LEN));
    }

    #[test]
    fn bit_flips_stop_the_prefix_at_the_damaged_frame() {
        let recs = sample();
        let mut bytes = encode_all(&recs);
        bytes[FRAME_LEN + 6] ^= 0x01; // corrupt the second frame's body

        assert_eq!(
            decode_records(&bytes, true).unwrap_err(),
            PersistError::TruncatedJournal { at: FRAME_LEN }
        );
        let (prefix, torn) = decode_records(&bytes, false).unwrap();
        assert_eq!(prefix, recs[..1]);
        assert_eq!(torn, Some(FRAME_LEN));
    }

    #[test]
    fn unknown_op_codes_are_rejected() {
        let mut frame = encode_record(&sample()[0]);
        frame[4] = 9; // bogus op code
                      // Fix the checksum so only the op code is wrong.
        let body: Vec<u8> = frame[4..4 + 13].to_vec();
        frame[17..].copy_from_slice(&fnv64(&body).to_le_bytes());
        assert!(decode_records(&frame, true).is_err());
    }
}
