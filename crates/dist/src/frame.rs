//! The wire frame: the unit every driver/worker byte stream is made of.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic    0x42_50_44_46 ("BPDF")
//! 4       4     payload length `n` (<= MAX_PAYLOAD)
//! 8       1     kind (message discriminant, see proto)
//! 9       4     checksum over kind byte + payload (see [`checksum`])
//! 13      n     payload
//! ```
//!
//! The length prefix makes framing self-describing; the checksum catches
//! garbled bytes before they are interpreted as protocol messages. A
//! frame that fails any validation surfaces as
//! [`ClusterError::FrameCorrupt`] — the connection is then unusable
//! (stream framing is lost) and supervision tears it down.
//!
//! A sender builds a frame in one buffer ([`build`]): room for the header,
//! the payload the message puts behind it, then kind, length and checksum in
//! front. The bytes a socket write sees are the bytes the encoder wrote, and
//! a buffer built again keeps its allocation.
//!
//! A receiver reads a frame whole ([`read_frame`]), and one that reads
//! frame after frame hands the last payload's buffer to the next
//! ([`read_frame_into`]): a superstep's megabytes land in pages the last
//! superstep's already faulted in.
//!
//! The two frames that are as large as what they are built from — a
//! worker's slice of the graph and a worker's result — stream at both
//! ends instead: [`write_streamed`] sends one through a [`PayloadWriter`]
//! (the [`Sink`] the same `Wire::put` writes to), [`CHUNK`] bytes at a
//! time, and a [`PayloadReader`] decodes it as it arrives. The same header,
//! the same checksum, verified before anything decoded is used, and no
//! payload buffer beside the arrays being read from or filled.

use crate::error::ClusterError;
use crate::wire::Sink;
use std::io::{self, Read, Write};

/// `"BPDF"` — bpart dist frame.
pub const MAGIC: u32 = 0x4250_4446;

/// Upper bound on one frame's payload (1 GiB). Real payloads are per-
/// superstep message rows; anything near this bound is a corrupt length.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Bytes before the payload: magic + length + kind + checksum.
pub const HEADER_LEN: usize = 13;

/// One decoded frame.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminant (see `proto`).
    pub kind: u8,
    /// Message payload bytes.
    pub payload: Vec<u8>,
}

/// FNV-1a (64-bit offset basis and prime) over the kind byte, then the
/// payload as little-endian `u64` words, then its last `len % 8` bytes one
/// at a time; the 64-bit state is folded to the header's 32 bits by xoring
/// its halves. One multiply per eight bytes, so a frame is checked at
/// about the speed it is read.
///
/// Every step is a bijection of the state, so two payloads of one length
/// that differ anywhere end in different 64-bit states; the fold lets one
/// such pair in 2³² through.
///
/// The payload may be fed in pieces of any length: bytes that do not fill
/// a word yet wait in `tail` for the next piece.
struct Checksum {
    h: u64,
    tail: [u8; 8],
    tail_len: usize,
}

impl Checksum {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new(kind: u8) -> Self {
        let mut sum = Checksum {
            h: 0xcbf2_9ce4_8422_2325,
            tail: [0; 8],
            tail_len: 0,
        };
        sum.step(kind as u64);
        sum
    }

    #[inline]
    fn step(&mut self, x: u64) {
        self.h = (self.h ^ x).wrapping_mul(Self::PRIME);
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.step(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.step(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    fn finish(mut self) -> u32 {
        for i in 0..self.tail_len {
            self.step(self.tail[i] as u64);
        }
        (self.h ^ (self.h >> 32)) as u32
    }
}

fn checksum(kind: u8, payload: &[u8]) -> u32 {
    let mut sum = Checksum::new(kind);
    sum.update(payload);
    sum.finish()
}

/// Builds in `buf`, emptied, the frame whose payload `put` writes behind
/// the header's room and whose kind it returns. A payload over
/// [`MAX_PAYLOAD`] is the sender's error, reported before a byte reaches
/// the wire.
pub fn build(buf: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>) -> u8) -> Result<(), ClusterError> {
    buf.clear();
    buf.resize(HEADER_LEN, 0);
    let kind = put(buf);
    let len = sendable(buf.len() - HEADER_LEN)?;
    let sum = checksum(kind, &buf[HEADER_LEN..]);
    buf[..HEADER_LEN].copy_from_slice(&header(kind, len, sum));
    Ok(())
}

/// A payload length as the header holds it.
fn sendable(len: usize) -> Result<u32, ClusterError> {
    if len > MAX_PAYLOAD as usize {
        return Err(ClusterError::unrecoverable(format!(
            "frame payload of {len} bytes exceeds MAX_PAYLOAD"
        )));
    }
    Ok(len as u32)
}

fn header(kind: u8, len: u32, sum: u32) -> [u8; HEADER_LEN] {
    let mut header = [0; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8] = kind;
    header[9..13].copy_from_slice(&sum.to_le_bytes());
    header
}

/// The one length rule of a payload that moves in pieces: its length is
/// stated ahead of it — in the frame header, in a result's prefix — so what
/// was stated has to be what is there.
pub fn check_len(
    what: impl std::fmt::Display,
    stated: usize,
    actual: usize,
) -> Result<(), ClusterError> {
    if stated != actual {
        return Err(ClusterError::corrupt(format!(
            "{what}: {stated} bytes stated, {actual} expected"
        )));
    }
    Ok(())
}

/// A frame's payload, written while it is produced: the sender-side twin
/// of [`PayloadReader`]. See [`write_streamed`].
pub struct PayloadWriter<'a> {
    /// What the first pass is for: the length and the checksum the header
    /// states.
    sum: Checksum,
    /// Where the second pass sends header and payload, through the at most
    /// [`CHUNK`] bytes of `buf`; `None` on the first.
    out: Option<&'a mut dyn Write>,
    buf: Vec<u8>,
    /// The payload length the first pass counted, and how much of it is
    /// written.
    stated: usize,
    written: usize,
    /// The second pass's first failure: what is put after it goes nowhere.
    failed: Option<ClusterError>,
}

/// Writes to `out` the frame of `kind` whose payload `encode` produces:
/// byte for byte what [`seal`] builds around the same payload, without the
/// payload ever existing whole. The header goes first and holds the length
/// and the checksum, so `encode` runs twice — once to count and sum, once
/// into `out` — and must write the same bytes both times. Returns the
/// payload's length.
pub fn write_streamed(
    out: &mut dyn Write,
    kind: u8,
    encode: impl Fn(&mut PayloadWriter<'_>),
) -> Result<usize, ClusterError> {
    let pass = |out, buf, stated| PayloadWriter {
        sum: Checksum::new(kind),
        out,
        buf,
        stated,
        written: 0,
        failed: None,
    };
    // A payload past the bound is not summed further.
    let mut summed = pass(None, Vec::new(), MAX_PAYLOAD as usize);
    encode(&mut summed);
    let len = summed.written;
    let mut buf = Vec::with_capacity(CHUNK);
    buf.extend_from_slice(&header(kind, sendable(len)?, summed.sum.finish()));
    let mut sent = pass(Some(&mut *out), buf, len);
    encode(&mut sent);
    let PayloadWriter {
        buf,
        written,
        failed,
        ..
    } = sent;
    failed.map_or(Ok(()), Err)?;
    check_len("streamed payload", len, written)?;
    out.write_all(&buf)
        .and_then(|()| out.flush())
        .map_err(|e| ClusterError::from_io("send frame", &e))?;
    Ok(len)
}

impl Sink for PayloadWriter<'_> {
    fn bytes(&mut self, mut bytes: &[u8]) {
        self.written += bytes.len();
        if self.written > self.stated && self.failed.is_none() {
            self.failed = check_len("streamed payload", self.stated, self.written).err();
        }
        match &mut self.out {
            _ if self.failed.is_some() => {}
            None => self.sum.update(bytes),
            Some(out) => {
                while !bytes.is_empty() {
                    let room = CHUNK - self.buf.len();
                    let (now, later) = bytes.split_at(bytes.len().min(room));
                    self.buf.extend_from_slice(now);
                    if self.buf.len() == CHUNK {
                        if let Err(e) = out.write_all(&self.buf) {
                            self.failed = Some(ClusterError::from_io("send frame", &e));
                            return;
                        }
                        self.buf.clear();
                    }
                    bytes = later;
                }
            }
        }
    }
}

/// Encodes one frame around an already-built payload.
pub fn encode(kind: u8, payload: &[u8]) -> Result<Vec<u8>, ClusterError> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    build(&mut buf, |buf| {
        buf.extend_from_slice(payload);
        kind
    })?;
    Ok(buf)
}

/// Validates a header: `(kind, payload length, stated checksum)`.
fn parse_header(header: &[u8]) -> Result<(u8, usize, u32), ClusterError> {
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let magic = word(0);
    if magic != MAGIC {
        return Err(ClusterError::corrupt(format!("bad magic {magic:#010x}")));
    }
    let len = word(4);
    if len > MAX_PAYLOAD {
        return Err(ClusterError::corrupt(format!(
            "length {len} exceeds MAX_PAYLOAD"
        )));
    }
    Ok((header[8], len as usize, word(9)))
}

fn verify_sum(got: u32, want: u32) -> Result<(), ClusterError> {
    if got != want {
        return Err(ClusterError::corrupt(format!(
            "checksum mismatch: stated {want:#010x}, computed {got:#010x}"
        )));
    }
    Ok(())
}

/// Decodes the frame at the front of `buf`, returning it plus the number
/// of bytes consumed. Rejects bad magic, impossible lengths, truncated
/// buffers, and checksum mismatches.
pub fn decode(buf: &[u8]) -> Result<(Frame, usize), ClusterError> {
    let mut rest = buf;
    match read_frame(&mut rest) {
        Ok(frame) => Ok((frame, buf.len() - rest.len())),
        Err(ClusterError::ConnReset { detail }) => Err(ClusterError::corrupt(format!(
            "truncated: {detail} after {} bytes",
            buf.len()
        ))),
        Err(e) => Err(e),
    }
}

/// Reads one frame from a stream. Header validation happens before the
/// payload is read, and the payload buffer grows with the bytes that
/// arrive, so a corrupt length never triggers a giant allocation. I/O
/// errors are mapped via [`ClusterError::from_io`]; a clean EOF at a frame
/// boundary surfaces as `ConnReset` (the peer hung up).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ClusterError> {
    read_frame_into(r, Vec::new())
}

/// [`read_frame`] into `buf`, whose contents go and whose allocation stays:
/// the payload of a frame the caller is done with.
pub fn read_frame_into(r: &mut impl Read, buf: Vec<u8>) -> Result<Frame, ClusterError> {
    PayloadReader::open(r)?.into_frame(buf)
}

/// Reads `len` bytes into `payload`, which is given room as they arrive: a
/// header can state a gibibyte, but only bytes that came are allocated for.
fn read_growing(r: &mut impl Read, len: usize, payload: &mut Vec<u8>) -> Result<(), ClusterError> {
    let got = r
        .take(len as u64)
        .read_to_end(payload)
        .map_err(|e| ClusterError::from_io("frame payload", &e))?;
    if got < len {
        return Err(ClusterError::ConnReset {
            detail: "frame payload: peer closed the connection".into(),
        });
    }
    Ok(())
}

/// A frame's payload, decoded while it arrives.
///
/// [`open`](Self::open) reads and validates the header; the accessors then
/// hand out the payload's fields straight off the stream, every byte
/// passing through the checksum on its way; [`finish`](Self::finish)
/// insists that the payload was consumed to its last byte and that the
/// checksum is the header's. Until `finish` has returned `Ok`, what was
/// decoded is unverified and must not be used. A count read off the wire
/// is checked against the bytes the payload still has before anything is
/// allocated for it.
pub struct PayloadReader<R> {
    stream: R,
    kind: u8,
    remaining: usize,
    /// The running checksum and the header's.
    sum: Checksum,
    want: u32,
    /// [`CHUNK`] bytes once the first piece is read.
    chunk: Vec<u8>,
}

/// Bytes a [`PayloadReader`] reads (and sums, and converts) at a time, and
/// a [`PayloadWriter`] sends at a time: all of a streamed payload that is
/// ever in flight at either end.
pub const CHUNK: usize = 64 << 10;

impl<R: Read> PayloadReader<R> {
    /// Reads the header of the next frame on `stream`.
    pub fn open(mut stream: R) -> Result<Self, ClusterError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact(&mut stream, &mut header, "frame header")?;
        let (kind, remaining, want) = parse_header(&header)?;
        Ok(PayloadReader {
            stream,
            kind,
            remaining,
            sum: Checksum::new(kind),
            want,
            chunk: Vec::new(),
        })
    }

    /// The frame's kind byte.
    pub fn kind(&self) -> u8 {
        self.kind
    }

    /// Claims `count` values of `width` bytes from what the payload has
    /// left, before a byte is read or allocated for them.
    fn claim(&mut self, count: usize, width: usize) -> Result<usize, ClusterError> {
        let bytes = count
            .checked_mul(width)
            .filter(|&bytes| bytes <= self.remaining)
            .ok_or_else(|| {
                ClusterError::corrupt(format!(
                    "payload underrun: wanted {count} × {width} bytes, {} left",
                    self.remaining
                ))
            })?;
        self.remaining -= bytes;
        Ok(bytes)
    }

    /// The next `n <= CHUNK` claimed bytes.
    fn fill(&mut self, n: usize) -> Result<&[u8], ClusterError> {
        if self.chunk.is_empty() {
            self.chunk.resize(CHUNK, 0);
        }
        let bytes = &mut self.chunk[..n];
        read_exact(&mut self.stream, bytes, "frame payload")?;
        self.sum.update(bytes);
        Ok(bytes)
    }

    fn scalar<const W: usize>(&mut self) -> Result<[u8; W], ClusterError> {
        let n = self.claim(1, W)?;
        Ok(self.fill(n)?.try_into().expect("W bytes were filled"))
    }

    /// `count` values of `W` bytes each, in an array of their own.
    fn array<const W: usize, T>(
        &mut self,
        count: usize,
        from_le_bytes: fn([u8; W]) -> T,
    ) -> Result<Vec<T>, ClusterError> {
        let mut left = self.claim(count, W)?;
        let mut out = Vec::with_capacity(count);
        while left > 0 {
            // `CHUNK` is a multiple of every `W` in use, so no value
            // straddles two fills.
            let n = left.min(CHUNK);
            let values = self.fill(n)?.chunks_exact(W);
            out.extend(values.map(|b| from_le_bytes(b.try_into().expect("W-byte chunk"))));
            left -= n;
        }
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ClusterError> {
        Ok(self.scalar::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ClusterError> {
        Ok(u32::from_le_bytes(self.scalar()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ClusterError> {
        Ok(u64::from_le_bytes(self.scalar()?))
    }

    /// Reads `count` little-endian `u32`s.
    pub fn u32s(&mut self, count: usize) -> Result<Vec<u32>, ClusterError> {
        self.array(count, u32::from_le_bytes)
    }

    /// Reads `count` little-endian `u64`s.
    pub fn u64s(&mut self, count: usize) -> Result<Vec<u64>, ClusterError> {
        self.array(count, u64::from_le_bytes)
    }

    /// The next `want.min(CHUNK)` bytes as they lie on the wire: how a
    /// field too long to want whole is taken, piece by piece.
    pub fn piece(&mut self, want: usize) -> Result<&[u8], ClusterError> {
        let n = self.claim(want.min(CHUNK), 1)?;
        self.fill(n)
    }

    /// The whole frame, when its payload is wanted as bytes after all: in
    /// `payload`'s allocation, grown if the frame is longer.
    pub fn into_frame(mut self, mut payload: Vec<u8>) -> Result<Frame, ClusterError> {
        payload.clear();
        read_growing(&mut self.stream, self.remaining, &mut payload)?;
        self.sum.update(&payload);
        verify_sum(self.sum.finish(), self.want)?;
        Ok(Frame {
            kind: self.kind,
            payload,
        })
    }

    /// Ends the payload: it must be used up, and its checksum the header's.
    pub fn finish(self) -> Result<(), ClusterError> {
        if self.remaining != 0 {
            return Err(ClusterError::corrupt(format!(
                "{} trailing bytes in frame of kind {}",
                self.remaining, self.kind
            )));
        }
        verify_sum(self.sum.finish(), self.want)
    }
}

fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), ClusterError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ClusterError::ConnReset {
                detail: format!("{what}: peer closed the connection"),
            }
        } else {
            ClusterError::from_io(what, &e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Wire;

    #[test]
    fn encode_decode_round_trip() {
        for (kind, payload) in [(1u8, vec![]), (7, vec![0xab; 3]), (255, (0..100).collect())] {
            let bytes = encode(kind, &payload).unwrap();
            let (frame, used) = decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(frame, Frame { kind, payload });
        }
    }

    #[test]
    fn decode_consumes_only_one_frame() {
        let mut bytes = encode(1, b"first").unwrap();
        let second = encode(2, b"second").unwrap();
        bytes.extend_from_slice(&second);
        let (frame, used) = decode(&bytes).unwrap();
        assert_eq!(frame.payload, b"first");
        let (frame2, _) = decode(&bytes[used..]).unwrap();
        assert_eq!(frame2.kind, 2);
    }

    #[test]
    fn rejects_bad_magic_and_checksum() {
        let mut bytes = encode(3, b"payload").unwrap();
        bytes[0] ^= 0xff;
        assert!(matches!(
            decode(&bytes),
            Err(ClusterError::FrameCorrupt { .. })
        ));
        let mut bytes = encode(3, b"payload").unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // The kind byte is under the checksum too.
        let mut bytes = encode(3, b"payload").unwrap();
        bytes[8] = 4;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn rejects_impossible_length_without_allocating() {
        let mut bytes = encode(3, b"x").unwrap();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("MAX_PAYLOAD"), "{err}");
        // The stream reader must reject it from the header alone.
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(err.to_string().contains("MAX_PAYLOAD"), "{err}");
    }

    /// What used to be an `assert!`: the sender gets an error to return.
    #[test]
    fn an_oversized_payload_is_a_typed_error_on_the_send_path() {
        // Zeroed straight from the allocator, so the gigabyte is never touched.
        let oversized = |buf: &mut Vec<u8>| {
            *buf = vec![0u8; HEADER_LEN + MAX_PAYLOAD as usize + 1];
            1
        };
        let err = build(&mut Vec::new(), oversized).unwrap_err();
        assert!(matches!(err, ClusterError::Unrecoverable { .. }), "{err}");
        assert!(err.to_string().contains("MAX_PAYLOAD"), "{err}");
    }

    /// A header may state up to `MAX_PAYLOAD`; what is allocated follows
    /// the bytes that arrive, not the statement.
    #[test]
    fn a_stated_gibibyte_that_never_comes_allocates_nothing_like_it() {
        let mut bytes = header(3, MAX_PAYLOAD, 0).to_vec();
        bytes.extend_from_slice(&[7; 100]);
        let mut payload = Vec::new();
        let err = read_growing(
            &mut &bytes[HEADER_LEN..],
            MAX_PAYLOAD as usize,
            &mut payload,
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::ConnReset { .. }), "{err}");
        assert_eq!(payload, [7; 100]);
        assert!(payload.capacity() < 1 << 20, "{}", payload.capacity());
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, ClusterError::ConnReset { .. }), "{err}");
    }

    /// A frame read into the last one's buffer keeps the allocation and
    /// none of the bytes, longer or shorter than what was there — and a
    /// stated length still allocates nothing by itself.
    #[test]
    fn a_frame_read_into_a_spent_buffer_reuses_its_allocation() {
        let long: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut stream = Vec::new();
        for payload in [&long[..], b"short", &long[..70_000], b""] {
            stream.extend_from_slice(&encode(5, payload).unwrap());
        }
        let mut stream = &stream[..];
        let first = read_frame_into(&mut stream, Vec::new()).unwrap();
        assert_eq!(first.payload, long);
        let (at, capacity) = (first.payload.as_ptr(), first.payload.capacity());
        let mut buf = first.payload;
        for want in [b"short".as_slice(), &long[..70_000], b""] {
            let frame = read_frame_into(&mut stream, buf).unwrap();
            assert_eq!(frame.payload, want);
            assert_eq!(
                (frame.payload.as_ptr(), frame.payload.capacity()),
                (at, capacity)
            );
            buf = frame.payload;
        }
        let mut cut = header(3, MAX_PAYLOAD, 0).to_vec();
        cut.extend_from_slice(&[7; 100]);
        let err = read_frame_into(&mut &cut[..], Vec::with_capacity(64)).unwrap_err();
        assert!(matches!(err, ClusterError::ConnReset { .. }), "{err}");
    }

    /// A writer that keeps count of its `write` calls.
    struct Pieces(Vec<usize>, Vec<u8>);

    impl Write for Pieces {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            self.1.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The sample payload through the writer as a sink: the frame `encode`
    /// builds, leaving in pieces of `CHUNK` bytes, the header at the front
    /// of the first — and read back by the reader's accessors.
    #[test]
    fn a_streamed_frame_is_the_sealed_frame_in_chunks() {
        let payload = sample_payload();
        let write = |out: &mut PayloadWriter<'_>| {
            out.bytes(&[9]);
            7u32.put(out);
            out.bytes(&u64::MAX.to_le_bytes());
            out.u32s(&(0..40_000).collect::<Vec<u32>>());
            [0u64, 1 << 40, 2 << 40].iter().for_each(|v| v.put(out));
        };
        let mut sent = Pieces(Vec::new(), Vec::new());
        assert_eq!(write_streamed(&mut sent, 14, write).unwrap(), payload.len());
        assert_eq!(sent.1, encode(14, &payload).unwrap());
        let total = HEADER_LEN + payload.len();
        assert_eq!(sent.0, [CHUNK, CHUNK, total - 2 * CHUNK]);
        let mut r = PayloadReader::open(&sent.1[..]).unwrap();
        read_sample(&mut r).unwrap();
        r.finish().unwrap();

        // An encoder that writes other bytes the second time, more or
        // fewer, does not get its frame through.
        for extra in [1, 0] {
            let passes = std::cell::Cell::new(0);
            let uneven = |out: &mut PayloadWriter<'_>| {
                passes.set(passes.get() + 1);
                write(out);
                out.bytes(&vec![0; (passes.get() + extra) % 2]);
            };
            let mut sent = Pieces(Vec::new(), Vec::new());
            let err = write_streamed(&mut sent, 14, uneven).unwrap_err();
            assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
        }
        // A payload over the bound sends nothing, and is not summed to its
        // end: the zeroed gigabyte is never touched.
        let huge = vec![0u8; MAX_PAYLOAD as usize + 1];
        let mut sent = Pieces(Vec::new(), Vec::new());
        let err = write_streamed(&mut sent, 14, |out| out.bytes(&huge)).unwrap_err();
        assert!(matches!(err, ClusterError::Unrecoverable { .. }), "{err}");
        assert!(sent.0.is_empty());
    }

    /// Pieces come in the order of the payload, each at most `CHUNK` long,
    /// and cannot outrun a field's stated length or the payload's.
    #[test]
    fn a_long_field_is_taken_piece_by_piece() {
        let field: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
        let bytes = encode(10, &field).unwrap();
        let mut r = PayloadReader::open(&bytes[..]).unwrap();
        let mut got = Vec::new();
        while got.len() < field.len() {
            let piece = r.piece(field.len() - got.len()).unwrap();
            assert!(!piece.is_empty() && piece.len() <= CHUNK);
            got.extend_from_slice(piece);
        }
        assert_eq!(got, field);
        let err = r.piece(1).unwrap_err();
        assert!(err.to_string().contains("underrun"), "{err}");
        r.finish().unwrap();
    }

    /// However a payload is cut into pieces, it sums to what it sums to
    /// whole — the pieces' lengths need not be multiples of the word.
    #[test]
    fn checksum_of_pieces_is_the_checksum_of_the_whole() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let whole = checksum(5, &payload[..len]);
            for piece in [1, 3, 8, 13, 64] {
                let mut sum = Checksum::new(5);
                payload[..len].chunks(piece).for_each(|p| sum.update(p));
                assert_eq!(sum.finish(), whole, "{len} bytes in pieces of {piece}");
            }
        }
    }

    fn sample_payload() -> Vec<u8> {
        let mut payload = vec![9];
        payload.extend_from_slice(&7u32.to_le_bytes());
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        (0..40_000u32).for_each(|v| payload.extend_from_slice(&v.to_le_bytes()));
        (0..3u64).for_each(|v| payload.extend_from_slice(&(v << 40).to_le_bytes()));
        payload
    }

    fn read_sample(r: &mut PayloadReader<impl Read>) -> Result<(), ClusterError> {
        assert_eq!(r.u8()?, 9);
        assert_eq!(r.u32()?, 7);
        assert_eq!(r.u64()?, u64::MAX);
        // More than one chunk, from an offset that is no multiple of 8.
        assert_eq!(r.u32s(40_000)?, (0..40_000).collect::<Vec<u32>>());
        assert_eq!(r.u64s(3)?, [0, 1 << 40, 2 << 40]);
        Ok(())
    }

    #[test]
    fn a_payload_decodes_off_the_stream_as_it_does_from_a_frame() {
        let bytes = encode(14, &sample_payload()).unwrap();
        let mut stream = &bytes[..];
        let mut r = PayloadReader::open(&mut stream).unwrap();
        assert_eq!(r.kind(), 14);
        read_sample(&mut r).unwrap();
        r.finish().unwrap();
        assert!(stream.is_empty());
        // Read whole instead, the payload is those bytes.
        let whole = PayloadReader::open(&bytes[..])
            .unwrap()
            .into_frame(Vec::new());
        assert_eq!(whole.unwrap(), decode(&bytes).unwrap().0);
    }

    #[test]
    fn a_streamed_payload_is_verified_and_bounded() {
        let corrupt = |result: Result<(), ClusterError>| {
            let err = result.unwrap_err();
            assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
            err.to_string()
        };
        // A flipped bit anywhere is a checksum mismatch at the end.
        let mut bytes = encode(14, &sample_payload()).unwrap();
        bytes[HEADER_LEN + 1000] ^= 0x10;
        let mut r = PayloadReader::open(&bytes[..]).unwrap();
        r.u8().unwrap();
        r.u32().unwrap();
        r.u64().unwrap();
        r.u32s(40_000).unwrap();
        r.u64s(3).unwrap();
        assert!(corrupt(r.finish()).contains("checksum"));
        // A payload not read to its end.
        let bytes = encode(14, &sample_payload()).unwrap();
        let mut r = PayloadReader::open(&bytes[..]).unwrap();
        r.u8().unwrap();
        assert!(corrupt(r.finish()).contains("trailing bytes"));
        // Counts the payload cannot back allocate nothing.
        let mut r = PayloadReader::open(&bytes[..]).unwrap();
        for count in [40_010, usize::MAX / 2] {
            assert!(corrupt(r.u32s(count).map(drop)).contains("underrun"));
            assert!(corrupt(r.u64s(count).map(drop)).contains("underrun"));
        }
        // A stream that ends inside the payload is the peer hanging up.
        let mut r = PayloadReader::open(&bytes[..bytes.len() - 100]).unwrap();
        assert!(matches!(
            read_sample(&mut r),
            Err(ClusterError::ConnReset { .. })
        ));
    }

    #[test]
    fn stream_round_trip_and_eof() {
        let mut buf = encode(9, b"hello").unwrap();
        buf.extend_from_slice(&encode(10, b"").unwrap());
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().payload, b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().kind, 10);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ClusterError::ConnReset { .. })
        ));
    }
}
