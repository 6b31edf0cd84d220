//! Offline stand-in for the part of `bytes` 1.x the repository's `NT*`
//! codecs call: a read cursor over `&[u8]` ([`Buf`]), an append-only
//! writer ([`BufMut`] on [`BytesMut`]), and the frozen [`Bytes`] buffer.
//! Both buffers are plain `Vec<u8>`s that deref to `[u8]`; nothing here
//! is reference-counted or zero-copy, which no caller relies on.

use std::ops::Deref;

/// A read cursor. Getters panic when fewer bytes remain than they need,
/// like the real crate; callers check [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left between the cursor and the end.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Moves the cursor `cnt` bytes forward; panics past the end.
    fn advance(&mut self, cnt: usize);

    /// Whether any byte is left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fills `dst` from the cursor and advances past it.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "cannot advance past the end");
        *self = &self[cnt..];
    }
}

/// An append-only writer.
pub trait BufMut {
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
        self.put_u64_le(v.to_bits());
    }
}

/// A growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Self(Vec::with_capacity(cap))
    }

    /// Makes room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    /// Appends `src`.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }

    /// The immutable form.
    pub fn freeze(self) -> Bytes {
        Bytes(self.0)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// An immutable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes(Vec<u8>);

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::{Buf, BufMut, BytesMut};

    #[test]
    fn every_width_round_trips_little_endian() {
        let mut w = BytesMut::with_capacity(4);
        w.put_slice(b"NT");
        w.put_u8(0xab);
        w.put_u32_le(0xdead_beef);
        w.put_u64_le(0x0123_4567_89ab_cdef);
        w.put_f64_le(-1234.5e-7);
        w.reserve(64);
        w.extend_from_slice(&[9, 8, 7]);
        let frozen = w.freeze();
        assert_eq!(frozen.len(), 2 + 1 + 4 + 8 + 8 + 3);
        // Little-endian on the wire.
        assert_eq!(&frozen[3..7], &[0xef, 0xbe, 0xad, 0xde]);

        let mut r: &[u8] = &frozen;
        assert_eq!(r.remaining(), frozen.len());
        r.advance(2);
        assert_eq!(r.get_u8(), 0xab);
        assert_eq!(r.get_u32_le(), 0xdead_beef);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.get_f64_le().to_bits(), (-1234.5e-7f64).to_bits());
        assert!(r.has_remaining());
        let mut tail = [0; 3];
        r.copy_to_slice(&mut tail);
        assert_eq!(tail, [9, 8, 7]);
        assert!(!r.has_remaining());
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn reading_past_the_end_panics() {
        let mut r: &[u8] = &[1, 2, 3];
        let _ = r.get_u32_le();
    }
}
