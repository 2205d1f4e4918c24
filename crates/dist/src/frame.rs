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
//! A sender builds a frame in one buffer: [`begin`] leaves room for the
//! header, the message appends its payload behind it, [`seal`] fills in
//! kind, length and checksum. The bytes a socket write sees are the bytes
//! the encoder wrote.

use crate::error::ClusterError;
use std::io::{self, Read};

/// `"BPDF"` — bpart dist frame.
pub const MAGIC: u32 = 0x4250_4446;

/// Upper bound on one frame's payload (1 GiB). Real payloads are per-
/// superstep message rows; anything near this bound is a corrupt length.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Bytes before the payload: magic + length + kind + checksum.
pub const HEADER_LEN: usize = 13;

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
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
fn checksum(kind: u8, payload: &[u8]) -> u32 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |x: u64| h = (h ^ x).wrapping_mul(PRIME);
    step(kind as u64);
    let mut words = payload.chunks_exact(8);
    for word in &mut words {
        step(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    }
    for &byte in words.remainder() {
        step(byte as u64);
    }
    (h ^ (h >> 32)) as u32
}

/// Starts a frame: room for the header. Append the payload, then [`seal`].
pub fn begin() -> Vec<u8> {
    vec![0; HEADER_LEN]
}

/// Completes a frame started by [`begin`] as one of `kind`: writes the
/// header in front of the payload. A payload over [`MAX_PAYLOAD`] is the
/// sender's error, reported before a byte reaches the wire.
pub fn seal(kind: u8, mut buf: Vec<u8>) -> Result<Vec<u8>, ClusterError> {
    let len = buf.len() - HEADER_LEN;
    if len > MAX_PAYLOAD as usize {
        return Err(ClusterError::unrecoverable(format!(
            "frame payload of {len} bytes exceeds MAX_PAYLOAD"
        )));
    }
    let sum = checksum(kind, &buf[HEADER_LEN..]);
    buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4..8].copy_from_slice(&(len as u32).to_le_bytes());
    buf[8] = kind;
    buf[9..13].copy_from_slice(&sum.to_le_bytes());
    Ok(buf)
}

/// Encodes one frame around an already-built payload.
pub fn encode(kind: u8, payload: &[u8]) -> Result<Vec<u8>, ClusterError> {
    let mut buf = begin();
    buf.extend_from_slice(payload);
    seal(kind, buf)
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

fn verify(kind: u8, payload: &[u8], want: u32) -> Result<(), ClusterError> {
    let got = checksum(kind, payload);
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
    if buf.len() < HEADER_LEN {
        return Err(ClusterError::corrupt(format!(
            "truncated header: {} of {HEADER_LEN} bytes",
            buf.len()
        )));
    }
    let (kind, len, want) = parse_header(&buf[..HEADER_LEN])?;
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Err(ClusterError::corrupt(format!(
            "truncated payload: {} of {total} bytes",
            buf.len()
        )));
    }
    let payload = &buf[HEADER_LEN..total];
    verify(kind, payload, want)?;
    Ok((
        Frame {
            kind,
            payload: payload.to_vec(),
        },
        total,
    ))
}

/// Reads one frame from a stream. Header validation happens before the
/// payload is read, so a corrupt length never triggers a giant
/// allocation. I/O errors are mapped via [`ClusterError::from_io`]; a
/// clean EOF at a frame boundary surfaces as `ConnReset` (the peer hung
/// up).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ClusterError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact(r, &mut header, "frame header")?;
    let (kind, len, want) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    read_exact(r, &mut payload, "frame payload")?;
    verify(kind, &payload, want)?;
    Ok(Frame { kind, payload })
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
        let buf = vec![0u8; HEADER_LEN + MAX_PAYLOAD as usize + 1];
        let err = seal(1, buf).unwrap_err();
        assert!(matches!(err, ClusterError::Unrecoverable { .. }), "{err}");
        assert!(err.to_string().contains("MAX_PAYLOAD"), "{err}");
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
