//! Binary CSR format.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   [u8; 4]   = b"BPGR"
//! version u32       = 1
//! n       u64       vertex count
//! m       u64       edge count
//! offsets [u64; n+1]
//! targets [u32; m]
//! ```
//!
//! The in-adjacency is rebuilt on load rather than stored — it is fully
//! derivable and the rebuild is a linear counting sort.
//!
//! # One decoder
//!
//! Every way in — [`load_binary`](super::load_binary) on a file,
//! [`read_binary`] on a reader, [`read_binary_bytes`] on a slice — is
//! [`decode`] over a [`Read`]: the arrays are `read_exact` in pieces of at
//! most [`PIECE`] bytes, decoded into the `Vec`s the [`CsrGraph`] keeps and
//! checked while the piece is in cache. The input is never resident as a
//! whole beside the arrays it becomes.
//!
//! When the input's length is known (a file, a slice) the header's counts
//! are held against it before anything is allocated, and the arrays are
//! then reserved exactly. When it is not (a reader), nothing is reserved
//! ahead: the arrays grow with the bytes that arrive, so a header that
//! promises 2⁴⁰ edges costs what its body actually delivers.

use crate::{CsrGraph, Edge, GraphError, VertexId};
use std::io::{ErrorKind, Read, Write};

pub(crate) const MAGIC: [u8; 4] = *b"BPGR";
pub(crate) const VERSION: u32 = 1;

/// Bytes before the offsets array: magic + version + n + m.
pub(crate) const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Vertex ids are `u32`, so any valid file has `n <= u32::MAX`; a larger
/// count is corrupt (and would otherwise drive a multi-gigabyte
/// allocation before the first offset is even read).
pub(crate) const MAX_VERTICES: u64 = u32::MAX as u64;

/// Bytes per `read_exact` / `write_all`: large enough that the call is
/// noise beside the bytes it moves, small enough to be decoded and
/// checked out of the private cache.
const PIECE: usize = 64 * 1024;

/// `read_exact`, an early end of input reported as the format error it is.
fn fill<R: Read>(reader: &mut R, buf: &mut [u8], what: &str) -> Result<(), GraphError> {
    reader.read_exact(buf).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => GraphError::Format(format!("truncated {what}")),
        _ => GraphError::Io(e),
    })
}

/// Reads `count` little-endian `W`-byte elements, a piece at a time, into
/// a `Vec` — reserved up front only when `reserve` says the count has been
/// held against the input's length — and hands every decoded piece to
/// `check` together with the index of its first element.
fn read_array<R: Read, T, const W: usize>(
    reader: &mut R,
    count: u64,
    reserve: bool,
    what: &str,
    decode: impl Fn([u8; W]) -> T,
    mut check: impl FnMut(&[T], usize) -> Result<(), GraphError>,
) -> Result<Vec<T>, GraphError> {
    let mut out: Vec<T> = Vec::with_capacity(if reserve { count as usize } else { 0 });
    let mut buf = vec![0u8; PIECE.min((count as usize).saturating_mul(W))];
    while (out.len() as u64) < count {
        let start = out.len();
        let take = ((count - start as u64).min((PIECE / W) as u64)) as usize;
        let bytes = &mut buf[..take * W];
        fill(reader, bytes, what)?;
        out.extend(
            bytes
                .chunks_exact(W)
                .map(|c| decode(c.try_into().expect("chunks_exact(W)"))),
        );
        check(&out[start..], start)?;
    }
    Ok(out)
}

/// Reads and validates everything up to the targets: magic, version, the
/// declared counts — against `len`, the input's total length, when that is
/// known — and the offsets array (starts at 0, monotone, ends at `m`).
/// Returns `(n, m, offsets)`. Shared by [`decode`] and the out-of-core view
/// ([`super::oocsr::MappedCsr`]), so both accept exactly the same files.
pub(crate) fn read_offsets<R: Read>(
    reader: &mut R,
    len: Option<u64>,
) -> Result<(usize, u64, Vec<u64>), GraphError> {
    // Field by field, so a short input still reports the most specific
    // problem (bad magic beats "truncated").
    let mut magic = [0u8; 4];
    fill(reader, &mut magic, "header")?;
    if magic != MAGIC {
        return Err(GraphError::Format(format!("bad magic {magic:?}")));
    }
    let mut version = [0u8; 4];
    fill(reader, &mut version, "header")?;
    let version = u32::from_le_bytes(version);
    if version != VERSION {
        return Err(GraphError::Format(format!("unsupported version {version}")));
    }
    let mut counts = [0u8; 16];
    fill(reader, &mut counts, "header")?;
    let n64 = u64::from_le_bytes(counts[..8].try_into().expect("8 bytes"));
    let m = u64::from_le_bytes(counts[8..].try_into().expect("8 bytes"));
    if n64 > MAX_VERTICES {
        return Err(GraphError::Format(format!(
            "vertex count {n64} exceeds the u32 id space"
        )));
    }
    let n = n64 as usize;
    if let Some(len) = len {
        let need = HEADER_LEN as u128 + (n as u128 + 1) * 8 + m as u128 * 4;
        if (len as u128) < need {
            return Err(GraphError::Format(format!(
                "file too short: {len} bytes, header declares n = {n}, m = {m}"
            )));
        }
    }
    let mut last = 0u64;
    let offsets = read_array(
        reader,
        n64 + 1,
        len.is_some(),
        "offsets",
        u64::from_le_bytes,
        |piece, start| {
            if start == 0 && piece[0] != 0 {
                return Err(GraphError::Format("offset array endpoints invalid".into()));
            }
            for &o in piece {
                if o < last {
                    return Err(GraphError::Format("offsets not monotone".into()));
                }
                last = o;
            }
            Ok(())
        },
    )?;
    if last != m {
        return Err(GraphError::Format("offset array endpoints invalid".into()));
    }
    Ok((n, m, offsets))
}

/// The one decoder. `len` is the input's total length when the caller
/// knows it (see the module docs for what that buys).
///
/// Targets are range-checked (the error names the id) and tested for
/// per-list sortedness piece by piece as they arrive. Sorted lists —
/// everything [`write_binary`] emits — are adopted as they are and only
/// the in-adjacency is derived; unsorted ones (a foreign writer) are
/// rebuilt through [`CsrGraph::from_edges`], which re-establishes the
/// per-list sort invariant. Bytes after the arrays are not read.
pub(crate) fn decode<R: Read>(reader: &mut R, len: Option<u64>) -> Result<CsrGraph, GraphError> {
    let (n, m, offsets) = read_offsets(reader, len)?;
    // A list is sorted iff every descent `targets[i-1] > targets[i]` sits
    // on a list boundary; `list` walks the offsets as descents are met.
    let (mut prev, mut list, mut sorted) = (0 as VertexId, 0usize, true);
    let targets = read_array(
        reader,
        m,
        len.is_some(),
        "targets",
        VertexId::from_le_bytes,
        |piece, start| {
            for (i, &t) in piece.iter().enumerate() {
                if t as usize >= n {
                    return Err(GraphError::Format(format!(
                        "target {t} out of range (n = {n})"
                    )));
                }
                if t < prev && sorted {
                    let at = (start + i) as u64;
                    while offsets[list] < at {
                        list += 1;
                    }
                    sorted = offsets[list] == at;
                }
                prev = t;
            }
            Ok(())
        },
    )?;
    if sorted {
        return Ok(CsrGraph::from_sorted_csr(offsets, targets));
    }
    let mut edges: Vec<Edge> = Vec::with_capacity(targets.len());
    for v in 0..n {
        for &t in &targets[offsets[v] as usize..offsets[v + 1] as usize] {
            edges.push((v as VertexId, t));
        }
    }
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Serializes a graph to the binary CSR format, one `write_all` per
/// [`PIECE`] of encoded bytes.
pub fn write_binary<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    let mut buf: Vec<u8> = Vec::with_capacity(HEADER_LEN + PIECE);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(graph.num_vertices() as u64).to_le_bytes());
    buf.extend_from_slice(&(graph.num_edges() as u64).to_le_bytes());
    for piece in graph.raw_offsets().chunks(PIECE / 8) {
        buf.extend(piece.iter().flat_map(|o| o.to_le_bytes()));
        writer.write_all(&buf)?;
        buf.clear();
    }
    for piece in graph.raw_targets().chunks(PIECE / 4) {
        buf.extend(piece.iter().flat_map(|t| t.to_le_bytes()));
        writer.write_all(&buf)?;
        buf.clear();
    }
    writer.flush()?;
    Ok(())
}

/// Deserializes a graph from a reader of unknown length: [`decode`] with
/// nothing reserved ahead of the bytes that arrive. When the source is a
/// file, [`load_binary`](super::load_binary) knows its length and reserves
/// each array once.
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    decode(&mut reader, None)
}

/// Deserializes a graph from an in-memory byte view of the binary CSR
/// format: [`decode`] over the slice, its length known. Trailing bytes
/// after the arrays are ignored.
pub fn read_binary_bytes(mut bytes: &[u8]) -> Result<CsrGraph, GraphError> {
    let len = bytes.len() as u64;
    decode(&mut bytes, Some(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `bytes` through every way in: [`load_binary`](crate::io::load_binary)
    /// on a file holding them, [`read_binary`] on a reader over them,
    /// [`read_binary_bytes`] on the slice.
    fn decode_all(bytes: &[u8]) -> [Result<CsrGraph, GraphError>; 3] {
        static FILES: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "bpart-binfmt-test-{}-{}.bpgr",
            std::process::id(),
            FILES.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).unwrap();
        let from_file = crate::io::load_binary(&path);
        std::fs::remove_file(&path).unwrap();
        [from_file, read_binary(bytes), read_binary_bytes(bytes)]
    }

    /// Every entry point rejects `bytes`, naming `needle`.
    fn assert_rejected(bytes: &[u8], needle: &str) {
        for (entry, result) in decode_all(bytes).into_iter().enumerate() {
            let err = result.expect_err("corrupt input decoded").to_string();
            assert!(err.contains(needle), "entry {entry}: {err}");
        }
    }

    /// Every entry point decodes `bytes`, to the same graph.
    fn assert_decoded(bytes: &[u8]) -> CsrGraph {
        let [a, b, c] = decode_all(bytes).map(Result::unwrap);
        assert_eq!(a, b);
        assert_eq!(a, c);
        a
    }

    fn encoded(g: &CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(g, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_random_graph() {
        let g = generate::erdos_renyi(300, 2_000, 17);
        assert_eq!(assert_decoded(&encoded(&g)), g);
    }

    #[test]
    fn round_trip_empty_graph() {
        let g = CsrGraph::from_edges(5, &[]);
        assert_eq!(assert_decoded(&encoded(&g)), g);
    }

    #[test]
    fn arrays_longer_than_a_piece_round_trip() {
        // Offsets (8 B × 20 001) and targets (4 B × 120 000) both span
        // several pieces, so list boundaries and descents straddle them.
        let g = generate::erdos_renyi(20_000, 120_000, 5);
        let bytes = encoded(&g);
        assert!(bytes.len() > 8 * PIECE);
        assert_eq!(assert_decoded(&bytes), g);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_rejected(b"NOPE\x01\x00\x00\x00", "bad magic");
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BPGR");
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // offsets[0]
        assert_rejected(&buf, "version");
    }

    #[test]
    fn truncated_input_rejected() {
        let buf = encoded(&generate::ring(10));
        // Mid-targets, mid-offsets, and right after the header.
        for cut in [buf.len() - 3, HEADER_LEN + 20, HEADER_LEN] {
            assert_rejected(&buf[..cut], "");
        }
    }

    /// Byte offset of `offsets[i]` in the file layout.
    fn offset_pos(i: usize) -> usize {
        4 + 4 + 8 + 8 + i * 8
    }

    #[test]
    fn non_monotone_offsets_rejected() {
        let mut buf = encoded(&generate::ring(4)); // offsets [0, 1, 2, 3, 4]
        buf[offset_pos(1)..offset_pos(2)].copy_from_slice(&3u64.to_le_bytes());
        assert_rejected(&buf, "not monotone");
    }

    #[test]
    fn offset_endpoint_mismatching_m_rejected() {
        let mut buf = encoded(&generate::ring(4));
        buf[offset_pos(4)..offset_pos(5)].copy_from_slice(&5u64.to_le_bytes());
        assert_rejected(&buf, "endpoints invalid");
        let mut buf = encoded(&generate::ring(4));
        buf[offset_pos(0)..offset_pos(1)].copy_from_slice(&1u64.to_le_bytes());
        assert_rejected(&buf, "endpoints invalid");
    }

    #[test]
    fn oversized_vertex_count_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BPGR");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX as u64 + 1).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert_rejected(&buf, "u32 id space");
    }

    #[test]
    fn huge_counts_on_a_short_file_fail_cleanly() {
        // A header promising ~u64::MAX elements with no data behind it
        // must produce a read error, not an out-of-memory abort from a
        // trusting pre-allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BPGR");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // offsets[0], then EOF
        assert_rejected(&buf, "");
    }

    #[test]
    fn truncated_header_rejected() {
        for short in [&b"BPGR\x01\x00"[..], b"BP", b""] {
            assert_rejected(short, "truncated header");
        }
    }

    #[test]
    fn out_of_range_target_rejected() {
        let mut buf = encoded(&generate::ring(4));
        // Corrupt the last target to an out-of-range id.
        let len = buf.len();
        buf[len - 4..].copy_from_slice(&100u32.to_le_bytes());
        assert_rejected(&buf, "target 100 out of range");
    }

    #[test]
    fn unsorted_lists_take_the_rebuild_path() {
        // A foreign writer may emit unsorted adjacency lists; the loader
        // must still normalize them exactly like the old streaming reader
        // (which rebuilt through `from_edges`).
        let g = CsrGraph::from_edges(3, &[(0, 2), (0, 1), (1, 0)]);
        let mut buf = encoded(&g);
        // Swap vertex 0's two (sorted) targets so the list arrives as
        // [2, 1].
        let t0 = offset_pos(4); // targets start after offsets[0..=3]
        let (a, b) = (t0, t0 + 4);
        let first = u32::from_le_bytes(buf[a..a + 4].try_into().unwrap());
        let second = u32::from_le_bytes(buf[b..b + 4].try_into().unwrap());
        buf[a..a + 4].copy_from_slice(&second.to_le_bytes());
        buf[b..b + 4].copy_from_slice(&first.to_le_bytes());
        assert_eq!(assert_decoded(&buf), g, "lists are re-sorted on load");
    }

    #[test]
    fn a_descent_on_a_list_boundary_is_not_unsorted() {
        // [.., 3] | [0, ..]: the descent sits between two lists, also when
        // empty lists share the boundary.
        let g = CsrGraph::from_edges(5, &[(0, 3), (0, 4), (3, 0), (3, 1), (4, 0)]);
        assert_eq!(assert_decoded(&encoded(&g)), g);
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let g = generate::erdos_renyi(50, 300, 3);
        let mut buf = encoded(&g);
        buf.extend_from_slice(b"junk after the arrays");
        assert_eq!(assert_decoded(&buf), g);
    }

    /// Hands out one byte per `read`, the least a reader may.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_reader_of_single_bytes_decodes_the_same_graph() {
        let g = generate::erdos_renyi(400, 3_000, 9);
        let bytes = encoded(&g);
        assert_eq!(read_binary(Trickle(&bytes)).unwrap(), g);
        let err = read_binary(Trickle(&bytes[..bytes.len() - 1])).unwrap_err();
        assert!(err.to_string().contains("truncated targets"), "{err}");
    }

    #[test]
    fn write_binary_emits_whole_pieces() {
        /// Counts the `write`s it is handed and their smallest size.
        struct Pieces(Vec<usize>);
        impl Write for Pieces {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let g = generate::erdos_renyi(20_000, 120_000, 5);
        let mut pieces = Pieces(Vec::new());
        write_binary(&g, &mut pieces).unwrap();
        assert_eq!(pieces.0.iter().sum::<usize>(), encoded(&g).len());
        // All but the last piece of each array carry a full 64 KiB.
        let short = pieces.0.iter().filter(|&&len| len < PIECE).count();
        assert!(short <= 2, "{:?}", pieces.0);
    }

    #[cfg(unix)]
    #[test]
    fn mmap_load_matches_owned_read() {
        let g = generate::twitter_like().generate_scaled(0.01);
        let path = std::env::temp_dir().join(format!(
            "bpart-binfmt-test-{}-roundtrip.bpgr",
            std::process::id()
        ));
        write_binary(&g, std::fs::File::create(&path).unwrap()).unwrap();

        let mapped = crate::io::load_binary(&path).unwrap();
        let owned = read_binary(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(mapped, owned);
        assert_eq!(mapped, g);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn mmap_load_rejects_corrupt_files() {
        let g = generate::ring(6);
        let path = std::env::temp_dir().join(format!(
            "bpart-binfmt-test-{}-corrupt.bpgr",
            std::process::id()
        ));
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();

        // Truncated mid-targets.
        std::fs::write(&path, &buf[..buf.len() - 3]).unwrap();
        assert!(crate::io::load_binary(&path).is_err());
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = crate::io::load_binary(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
