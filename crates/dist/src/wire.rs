//! Byte-level payload codec (little-endian, hand-rolled).
//!
//! No serde in the dependency tree, so payload encoding is explicit: a
//! [`Reader`] cursor with checked accessors, `put_*` helpers for the
//! write side, and a [`Wire`] trait for the few value types that cross
//! the process boundary. `f64`s travel as IEEE-754 bit patterns, so a
//! value decoded on the far side is the *same bits* — the foundation of
//! the cross-backend bit-identity guarantee.

use crate::error::ClusterError;
use bpart_walker::{Walker, WalkerRng};

/// Checked read cursor over a payload slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes, borrowed from the payload.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ClusterError> {
        if self.remaining() < n {
            return Err(ClusterError::corrupt(format!(
                "payload underrun: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ClusterError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ClusterError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ClusterError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` as its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, ClusterError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string, borrowed from the payload.
    pub fn bytes(&mut self) -> Result<&'a [u8], ClusterError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ClusterError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| ClusterError::corrupt("invalid utf-8"))
    }
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its exact bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

/// A value type that crosses the process boundary byte-exactly.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value at the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, ClusterError>;
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        r.u64()
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        r.f64()
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        Ok(r.u8()? != 0)
    }
}

/// `(target vertex, accumulator)` pairs — the iteration engines' message
/// payload.
impl<A: Wire> Wire for (u32, A) {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        Ok((r.u32()?, A::decode(r)?))
    }
}

/// A migrating walker: 32 bytes, including its RNG state, so the far
/// side continues the exact trajectory.
impl Wire for Walker {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id);
        put_u32(out, self.source);
        put_u32(out, self.current);
        put_u32(out, self.previous);
        put_u32(out, self.step);
        put_u64(out, self.rng.to_bits());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        Ok(Walker {
            id: r.u64()?,
            source: r.u32()?,
            current: r.u32()?,
            previous: r.u32()?,
            step: r.u32()?,
            rng: WalkerRng::from_bits(r.u64()?),
        })
    }
}

/// `(walker id, step, vertex)` path-log triples.
impl Wire for (u64, u32, u32) {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0);
        put_u32(out, self.1);
        put_u32(out, self.2);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        Ok((r.u64()?, r.u32()?, r.u32()?))
    }
}

/// Wire size of one path-log triple.
pub const PATH_TRIPLE_LEN: usize = 16;

/// Decodes back-to-back path-log triples (a piece of a walk worker's
/// `Final` result) as they are asked for. The caller has checked that `buf`
/// is whole triples; a ragged tail would be passed over.
///
/// The layout is the `Wire` impl's above, read with plain loads: this runs
/// once per logged walker step inside the path gather, where the checked
/// cursor's `Result` per field cost five times the placement.
pub fn path_triples(buf: &[u8]) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
    buf.chunks_exact(PATH_TRIPLE_LEN).map(|t| {
        (
            u64::from_le_bytes(t[0..8].try_into().expect("8 bytes")),
            u32::from_le_bytes(t[8..12].try_into().expect("4 bytes")),
            u32::from_le_bytes(t[12..16].try_into().expect("4 bytes")),
        )
    })
}

/// Encodes a slice of wire values back-to-back (no length prefix; the
/// container framing supplies the boundary).
pub fn encode_all<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    for item in items {
        item.encode(out);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Decodes wire values until the buffer is exhausted: `encode_all`'s
    /// inverse, which only tests need whole.
    pub(crate) fn decode_all<T: Wire>(buf: &[u8]) -> Result<Vec<T>, ClusterError> {
        let mut r = Reader::new(buf);
        let mut items = Vec::new();
        while !r.is_empty() {
            items.push(T::decode(&mut r)?);
        }
        Ok(items)
    }

    #[test]
    fn scalar_round_trips() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_u64(&mut out, u64::MAX);
        put_f64(&mut out, -0.0);
        put_f64(&mut out, f64::NAN);
        put_str(&mut out, "héllo");
        let mut r = Reader::new(&out);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn underrun_is_a_typed_error() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(ClusterError::FrameCorrupt { .. })));
    }

    #[test]
    fn walker_round_trip_preserves_trajectory() {
        let mut w = Walker::new(42, 7, 1234);
        w.advance(9);
        w.rng.next_u64();
        let mut out = Vec::new();
        w.encode(&mut out);
        assert_eq!(out.len(), 32);
        let got: Vec<Walker> = decode_all(&out).unwrap();
        assert_eq!(got, vec![w]);
        // The decoded RNG continues the identical stream.
        let (mut a, mut b) = (w, got[0]);
        for _ in 0..4 {
            assert_eq!(a.rng.next_u64(), b.rng.next_u64());
        }
    }

    #[test]
    fn path_triples_decode_lazily_what_encode_all_wrote() {
        let log = vec![(7u64, 0u32, 3u32), (u64::MAX, 2, 9), (1, 1, 0)];
        let mut out = Vec::new();
        encode_all(&log, &mut out);
        assert_eq!(out.len(), log.len() * PATH_TRIPLE_LEN);
        assert_eq!(path_triples(&out).collect::<Vec<_>>(), log);
    }

    #[test]
    fn pair_lists_round_trip() {
        let pairs: Vec<(u32, f64)> = vec![(1, 0.5), (9, f64::MIN_POSITIVE)];
        let mut out = Vec::new();
        encode_all(&pairs, &mut out);
        assert_eq!(decode_all::<(u32, f64)>(&out).unwrap(), pairs);
    }
}
