//! Byte-stable binary primitives for wire messages, snapshots and journals.
//!
//! Everything is little-endian; floats travel as IEEE-754 bit patterns
//! (`f64::to_bits`), so encoding is bit-stable across platforms and a
//! round trip reproduces values exactly — the property the
//! snapshot→restore digest oracles rely on.

use bcc_core::{FNV_OFFSET, FNV_PRIME};

use crate::persist::PersistError;

/// FNV-1a over `bcc_core`'s constants (one hash discipline for the whole
/// stack), but processed a 64-bit word at a time (little-endian,
/// byte-wise over the tail) and therefore a different function from
/// [`bcc_core::fnv1a`], fixed by the on-disk format. Checksumming a
/// multi-megabyte snapshot section this way costs an eighth of the
/// classic byte-wise loop. Every step is a
/// bijection of the running state for a fixed input word, so two inputs
/// differing in any bit — a flipped bit, a torn tail — are *guaranteed*
/// to checksum differently once lengths match, which is the only
/// property the corruption oracles need.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8 bytes"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer::default()
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Bulk [`Writer::u32`]: same bytes, one reservation.
    pub(crate) fn u32_slice(&mut self, vs: &[u32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Bulk [`Writer::f64`]: same bytes, one reservation.
    pub(crate) fn f64_slice(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over one verified section.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], section: &'static str) -> Self {
        Reader {
            buf,
            pos: 0,
            section,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.buf.len() - self.pos < n {
            return Err(PersistError::Malformed {
                detail: format!("section {:?} ends mid-field", self.section),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bulk [`Reader::u32`]: one bounds check for `n` elements — the
    /// element loops of a large section dominate decode time otherwise.
    pub(crate) fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, PersistError> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Bulk [`Reader::f64`]: one bounds check for `n` elements.
    pub(crate) fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, PersistError> {
        let bytes = self.take(n.saturating_mul(8))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    /// Reads an element count. Rejected when it exceeds the bytes left in
    /// the section (every element costs at least one byte), so corrupt
    /// lengths cannot drive huge allocations.
    pub(crate) fn len(&mut self) -> Result<usize, PersistError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(PersistError::Malformed {
                detail: format!(
                    "section {:?} declares {n} elements with {remaining} bytes left",
                    self.section
                ),
            });
        }
        Ok(n as usize)
    }

    /// Asserts every byte of the section was consumed.
    pub(crate) fn done(&self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(PersistError::Malformed {
                detail: format!(
                    "section {:?} has {} trailing bytes",
                    self.section,
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

/// Appends one checksummed section: `[tag u8][len u64][payload][fnv u64]`.
pub(crate) fn write_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
}

/// Reads and verifies the section at `*pos`, advancing past it.
///
/// Truncation (the declared length runs past the buffer) and content
/// corruption (checksum mismatch) both surface as
/// [`PersistError::ChecksumMismatch`] naming the section: either way the
/// section's bytes cannot be trusted.
pub(crate) fn read_section<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    tag: u8,
    name: &'static str,
) -> Result<&'a [u8], PersistError> {
    let bad = || PersistError::ChecksumMismatch {
        section: name.to_string(),
    };
    let header_end = pos.checked_add(9).ok_or_else(bad)?;
    if buf.len() < header_end || buf[*pos] != tag {
        return Err(bad());
    }
    let len = u64::from_le_bytes(buf[*pos + 1..*pos + 9].try_into().expect("8 bytes"));
    let len = usize::try_from(len).map_err(|_| bad())?;
    let payload_end = header_end.checked_add(len).ok_or_else(bad)?;
    let frame_end = payload_end.checked_add(8).ok_or_else(bad)?;
    if buf.len() < frame_end {
        return Err(bad());
    }
    let payload = &buf[header_end..payload_end];
    let stored = u64::from_le_bytes(buf[payload_end..frame_end].try_into().expect("8 bytes"));
    if fnv64(payload) != stored {
        return Err(bad());
    }
    *pos = frame_end;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(12345);
        w.f64(-0.0);
        w.f64(f64::MIN_POSITIVE);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u64().unwrap(), 12345);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE);
        r.done().unwrap();
    }

    #[test]
    fn reader_rejects_overruns_and_bogus_lengths() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // an absurd element count
        let bytes = w.finish();
        let mut r = Reader::new(&bytes, "test");
        assert!(r.len().is_err(), "length larger than the section");
        let mut r = Reader::new(&bytes[..4], "test");
        assert!(r.u64().is_err(), "read past the end");
    }

    #[test]
    fn sections_verify_and_catch_corruption() {
        let mut buf = Vec::new();
        write_section(&mut buf, 1, b"hello");
        write_section(&mut buf, 2, b"world");

        let mut pos = 0;
        assert_eq!(read_section(&buf, &mut pos, 1, "a").unwrap(), b"hello");
        assert_eq!(read_section(&buf, &mut pos, 2, "b").unwrap(), b"world");
        assert_eq!(pos, buf.len());

        // Single bit flip in the payload: caught by the checksum.
        let mut flipped = buf.clone();
        flipped[10] ^= 0x40;
        let mut pos = 0;
        assert_eq!(
            read_section(&flipped, &mut pos, 1, "a").unwrap_err(),
            PersistError::ChecksumMismatch {
                section: "a".into()
            }
        );

        // Torn write: the tail section is cut mid-payload.
        let torn = &buf[..buf.len() - 9];
        let mut pos = 0;
        read_section(torn, &mut pos, 1, "a").unwrap();
        assert_eq!(
            read_section(torn, &mut pos, 2, "b").unwrap_err(),
            PersistError::ChecksumMismatch {
                section: "b".into()
            }
        );

        // Wrong tag: the section order is part of the format.
        let mut pos = 0;
        assert!(read_section(&buf, &mut pos, 2, "b").is_err());
    }
}
