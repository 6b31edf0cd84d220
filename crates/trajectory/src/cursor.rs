//! The workspace's one little-endian byte cursor.
//!
//! Every `NT*` byte format (model, checkpoint, IVF, HNSW, snapshot,
//! binary corpus) is written through [`PutLe`] on a `Vec<u8>`
//! and read through [`Reader`], whose getters check bounds and return
//! [`Truncated`] instead of panicking; each codec converts that one
//! error into its own error type.

use std::fmt;

/// A read ran past the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Bytes the read needed.
    pub need: usize,
    /// Offset the read started at.
    pub offset: usize,
    /// Bytes that were left.
    pub have: usize,
}

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "truncated payload: need {} bytes at offset {}, have {}",
            self.need, self.offset, self.have
        )
    }
}

impl std::error::Error for Truncated {}

/// A bounds-checked forward cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The unread bytes.
    pub fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// The next `n` bytes, advancing past them.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let rest = self.rest();
        if rest.len() < n {
            return Err(Truncated {
                need: n,
                offset: self.pos,
                have: rest.len(),
            });
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads `n` little-endian `f64`s. The bounds check precedes the
    /// allocation, so a corrupt count cannot reserve more than the
    /// buffer holds.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, Truncated> {
        let raw = self.take(n.saturating_mul(8))?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }
}

/// Little-endian appends; implemented for `Vec<u8>` only.
pub trait PutLe {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl PutLe for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_slice(b"MAGIC");
        buf.put_u8(0xab);
        buf.put_u32_le(0xdead_beef);
        buf.put_u64_le(0x0123_4567_89ab_cdef);
        buf.put_f64_le(-1.5);
        buf.put_f64_le(f64::MIN_POSITIVE);
        buf.put_f64_le(f64::INFINITY);
        buf
    }

    #[test]
    fn writes_are_little_endian_and_read_back() {
        let buf = sample();
        assert_eq!(&buf[5..10], &[0xab, 0xef, 0xbe, 0xad, 0xde]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.take(5).unwrap(), b"MAGIC");
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.offset(), 18);
        assert_eq!(r.f64s(3).unwrap(), [-1.5, f64::MIN_POSITIVE, f64::INFINITY]);
        assert!(r.rest().is_empty());
        assert_eq!(r.take(0).unwrap(), b"");
    }

    #[test]
    fn every_getter_reports_truncation_at_every_field_boundary() {
        let buf = sample();
        // Field starts: magic 0, u8 5, u32 6, u64 10, three f64s from 18.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let got = (|| {
                r.take(5)?;
                r.u8()?;
                r.u32()?;
                r.u64()?;
                r.f64()?;
                r.f64s(2)?;
                Ok(())
            })();
            let (offset, need) = match cut {
                0..=4 => (0, 5),
                5 => (5, 1),
                6..=9 => (6, 4),
                10..=17 => (10, 8),
                18..=25 => (18, 8),
                _ => (26, 16),
            };
            let want = Truncated {
                need,
                offset,
                have: cut - offset,
            };
            assert_eq!(got, Err(want), "cut at {cut}");
            // A failed read consumes nothing.
            assert_eq!(r.offset(), offset);
        }
    }

    #[test]
    fn an_overflowing_count_is_truncation_not_a_panic() {
        let mut r = Reader::new(&[0u8; 16]);
        let e = r.f64s(usize::MAX).unwrap_err();
        assert_eq!(e.have, 16);
        assert!(e.to_string().contains("need"));
        assert_eq!(r.f64s(2).unwrap(), [0.0, 0.0]);
    }
}
