//! Byte-level payload codec (little-endian, hand-rolled, no serde).
//!
//! Every value that crosses the process boundary says once, in its [`Wire`]
//! impl, how it is written and read: `put` to a [`Sink`] — a `Vec<u8>`, a
//! streamed frame's [`PayloadWriter`](crate::frame::PayloadWriter), or the
//! byte counter behind [`len`], so no send-side length is a formula beside
//! the encoder — and `read` off a checked [`Reader`], borrowing byte
//! strings from the payload. `f64`s travel as IEEE-754 bit patterns, so a
//! value decoded on the far side is the *same bits* — the foundation of the
//! cross-backend bit-identity guarantee. A flag byte that is neither `0`
//! nor `1` is corrupt wherever it is read ([`flag`]).

use crate::error::ClusterError;
use bpart_walker::{Walker, WalkerRng};
use std::collections::BTreeMap;

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

    /// Reads `n` raw bytes, borrowed from the payload.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ClusterError> {
        let left = self.buf.len() - self.pos;
        if left < n {
            return Err(ClusterError::corrupt(format!(
                "payload underrun: wanted {n} bytes, {left} left"
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ClusterError> {
        Ok(self.take(N)?.try_into().expect("N bytes were taken"))
    }

    /// Reads one value.
    pub fn read<T: Wire<'a>>(&mut self) -> Result<T, ClusterError> {
        T::read(self)
    }

    /// Reads exactly `n` values. `n` comes off the wire, so nothing is
    /// reserved for it: a count that claims more than the payload holds
    /// ends at the underrun.
    pub fn read_n<T: Wire<'a>>(&mut self, n: usize) -> Result<Vec<T>, ClusterError> {
        (0..n).map(|_| T::read(self)).collect()
    }

    /// Ends `what`, which must have been read to its last byte.
    pub fn end(&self, what: &str) -> Result<(), ClusterError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            left => Err(ClusterError::corrupt(format!(
                "{left} trailing bytes in {what}"
            ))),
        }
    }
}

/// Where [`Wire::put`] writes.
pub trait Sink {
    /// Writes `bytes` as they are.
    fn bytes(&mut self, bytes: &[u8]);

    /// Writes little-endian `u32`s, back to back, converted a block at a
    /// time: a slice of the graph is millions of them.
    fn u32s(&mut self, values: &[u32]) {
        let mut block = [0u8; 4096];
        for values in values.chunks(block.len() / 4) {
            let bytes = &mut block[..4 * values.len()];
            for (slot, v) in bytes.chunks_exact_mut(4).zip(values) {
                slot.copy_from_slice(&v.to_le_bytes());
            }
            self.bytes(bytes);
        }
    }
}

/// A message built whole, to be sealed into one frame.
impl Sink for Vec<u8> {
    fn bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The byte counter: a sink that keeps only how much it was given.
pub struct Len(usize);

impl Sink for Len {
    fn bytes(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn u32s(&mut self, values: &[u32]) {
        self.0 += 4 * values.len();
    }
}

/// Bytes that `put` writes.
pub fn len<T>(put: impl FnOnce(&mut Len) -> T) -> usize {
    let mut counted = Len(0);
    put(&mut counted);
    counted.0
}

/// A value that crosses the process boundary byte-exactly; `'a` is the
/// payload a value read may borrow from.
pub trait Wire<'a>: Sized {
    /// Writes `self` to `out`, which may be a `dyn Sink`: a worker's
    /// result is written through one.
    fn put(&self, out: &mut (impl Sink + ?Sized));
    /// Reads one value at the cursor.
    fn read(r: &mut Reader<'a>) -> Result<Self, ClusterError>;
}

impl Wire<'_> for u8 {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        out.bytes(&[*self]);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        Ok(r.take(1)?[0])
    }
}

impl Wire<'_> for u32 {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        out.bytes(&self.to_le_bytes());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        r.array().map(u32::from_le_bytes)
    }
}

impl Wire<'_> for u64 {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        out.bytes(&self.to_le_bytes());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        r.array().map(u64::from_le_bytes)
    }
}

/// Its exact bit pattern.
impl Wire<'_> for f64 {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        self.to_bits().put(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        r.read().map(f64::from_bits)
    }
}

/// A flag byte.
impl Wire<'_> for bool {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        (*self as u8).put(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        flag(r.read()?)
    }
}

/// The one reading of a flag byte, buffered or streamed: `0` or `1`.
pub fn flag(byte: u8) -> Result<bool, ClusterError> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(ClusterError::corrupt(format!("flag byte {t}"))),
    }
}

/// A byte string: its length, then its bytes — borrowed from the payload
/// when read.
impl<'a> Wire<'a> for &'a [u8] {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        (self.len() as u32).put(out);
        out.bytes(self);
    }
    fn read(r: &mut Reader<'a>) -> Result<Self, ClusterError> {
        let n: u32 = r.read()?;
        r.take(n as usize)
    }
}

/// A UTF-8 string, as a byte string.
impl Wire<'_> for String {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        self.as_bytes().put(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        String::from_utf8(r.read::<&[u8]>()?.to_vec())
            .map_err(|_| ClusterError::corrupt("invalid utf-8"))
    }
}

/// A flag, then the value if there is one.
impl<'a, T: Wire<'a>> Wire<'a> for Option<T> {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn read(r: &mut Reader<'a>) -> Result<Self, ClusterError> {
        Ok(if r.read()? { Some(r.read()?) } else { None })
    }
}

/// `(target vertex, accumulator)` — the iteration engines' message — and
/// every other pair.
impl<'a, A: Wire<'a>, B: Wire<'a>> Wire<'a> for (A, B) {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        self.0.put(out);
        self.1.put(out);
    }
    fn read(r: &mut Reader<'a>) -> Result<Self, ClusterError> {
        Ok((r.read()?, r.read()?))
    }
}

/// `(walker id, step, vertex)` path-log triples, and every other triple.
impl<'a, A: Wire<'a>, B: Wire<'a>, C: Wire<'a>> Wire<'a> for (A, B, C) {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn read(r: &mut Reader<'a>) -> Result<Self, ClusterError> {
        Ok((r.read()?, r.read()?, r.read()?))
    }
}

/// A counted list: its length, then its items.
impl<'a, T: Wire<'a>> Wire<'a> for Vec<T> {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        (self.len() as u32).put(out);
        encode_all(self, out);
    }
    fn read(r: &mut Reader<'a>) -> Result<Self, ClusterError> {
        let n: u32 = r.read()?;
        r.read_n(n as usize)
    }
}

/// A map, as the counted list of its entries in key order.
impl<'a, K: Wire<'a> + Ord, V: Wire<'a>> Wire<'a> for BTreeMap<K, V> {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        (self.len() as u32).put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn read(r: &mut Reader<'a>) -> Result<Self, ClusterError> {
        Ok(r.read::<Vec<(K, V)>>()?.into_iter().collect())
    }
}

/// A migrating walker: 32 bytes, including its RNG state, so the far
/// side continues the exact trajectory.
impl Wire<'_> for Walker {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        (self.id, self.source, self.current).put(out);
        (self.previous, self.step, self.rng.to_bits()).put(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        Ok(Walker {
            id: r.read()?,
            source: r.read()?,
            current: r.read()?,
            previous: r.read()?,
            step: r.read()?,
            rng: WalkerRng::from_bits(r.read()?),
        })
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

/// Writes `items` back to back (no count; the container supplies the
/// boundary).
pub fn encode_all<'a, T: Wire<'a>>(items: &[T], out: &mut (impl Sink + ?Sized)) {
    for item in items {
        item.put(out);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Decodes wire values until the buffer is exhausted: `encode_all`'s
    /// inverse, which only tests need whole.
    pub(crate) fn decode_all<T: for<'a> Wire<'a>>(buf: &[u8]) -> Result<Vec<T>, ClusterError> {
        let mut r = Reader::new(buf);
        let mut items = Vec::new();
        while r.end("items").is_err() {
            items.push(r.read()?);
        }
        Ok(items)
    }

    #[test]
    fn scalar_round_trips() {
        let mut out = Vec::new();
        7u32.put(&mut out);
        u64::MAX.put(&mut out);
        (-0.0f64).put(&mut out);
        f64::NAN.put(&mut out);
        String::from("héllo").put(&mut out);
        let mut r = Reader::new(&out);
        assert_eq!(r.read::<u32>().unwrap(), 7);
        assert_eq!(r.read::<u64>().unwrap(), u64::MAX);
        assert_eq!(r.read::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.read::<f64>().unwrap().is_nan());
        assert_eq!(r.read::<String>().unwrap(), "héllo");
        r.end("scalars").unwrap();
    }

    #[test]
    fn underrun_is_a_typed_error() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(
            r.read::<u64>(),
            Err(ClusterError::FrameCorrupt { .. })
        ));
    }

    #[test]
    fn walker_round_trip_preserves_trajectory() {
        let mut w = Walker::new(42, 7, 1234);
        w.advance(9);
        w.rng.next_u64();
        let mut out = Vec::new();
        w.put(&mut out);
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

    /// What the counter counts is what a buffer is given, through every
    /// provided method.
    #[test]
    fn the_counter_counts_what_the_buffer_holds() {
        let value = (vec![String::from("é"); 3], Some(vec![1u32; 2000]), -1.5f64);
        let mut out = Vec::new();
        value.put(&mut out);
        out.u32s(&[7; 1500]);
        let counted = len(|n| {
            value.put(n);
            n.u32s(&[7; 1500]);
        });
        assert_eq!(counted, out.len());
    }
}
