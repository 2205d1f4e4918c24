//! Out-of-core binary CSR view: the graph stays on disk, adjacency is
//! served straight out of a memory mapping.
//!
//! [`MappedCsr`] opens a `BPGR` file (the [`binfmt`](super::binfmt)
//! format) and exposes `out_neighbors(v)` as a borrowed `&[u32]` backed by
//! the page cache — no owned copy of the `targets` array, no derived
//! in-adjacency. Resident cost is the decoded offsets array (`O(n)`);
//! edge data is paged in on demand and evictable, which is what lets the
//! sharding converter walk graphs bigger than RAM.
//!
//! Contrast with [`load_binary`](super::load_binary), which materializes a
//! full [`CsrGraph`] (owned out- *and* in-adjacency, `O(n + m)` resident).
//! Both validate the header and the offsets with the same
//! [`binfmt::read_offsets`](super::binfmt), so a file one accepts the other
//! accepts.
//!
//! # Zero-copy safety
//!
//! The borrowed neighbor slices reinterpret mapped bytes as `u32`. That is
//! only done when two facts hold, both checked at open time:
//!
//! * the platform is little-endian (the on-disk byte order), and
//! * the targets region is 4-byte aligned — structurally guaranteed,
//!   because the header is 24 bytes, offsets are `8(n+1)` bytes, and
//!   `mmap` returns page-aligned memory.
//!
//! Otherwise the targets are decoded into an owned `Vec<u32>` once and
//! the view degrades to `O(m)` resident (still no in-adjacency). Either
//! way the public API is identical; [`is_zero_copy`](MappedCsr::is_zero_copy)
//! reports which mode was selected.

use super::binfmt::{read_offsets, HEADER_LEN};
use crate::{GraphError, VertexId};
use std::path::Path;

#[cfg(unix)]
use super::mmap::Mmap;

enum Backing {
    /// Neighbor slices borrow the mapping directly.
    #[cfg(unix)]
    Mapped(Mmap),
    /// Decoded copy (non-unix, big-endian, or mmap failure).
    Owned(Vec<VertexId>),
}

/// A read-only CSR graph view over a memory-mapped `BPGR` file.
pub struct MappedCsr {
    backing: Backing,
    /// Decoded offsets, `n + 1` entries — the only unconditional `O(n)`
    /// resident state.
    offsets: Vec<u64>,
    n: usize,
    m: u64,
}

impl MappedCsr {
    /// Opens `path`, validating the full header (magic, version, declared
    /// sizes vs. file length, offset monotonicity) plus a one-time
    /// sequential scan asserting every target id is `< n` — after which
    /// [`out_neighbors`](Self::out_neighbors) can index caller state
    /// without per-edge checks.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<MappedCsr, GraphError> {
        let path = path.as_ref();
        #[cfg(unix)]
        {
            let file = std::fs::File::open(path)?;
            if let Ok(map) = Mmap::map(&file) {
                return Self::from_map(map);
            }
        }
        let bytes = std::fs::read(path)?;
        Self::from_owned_bytes(&bytes)
    }

    #[cfg(unix)]
    fn from_map(map: Mmap) -> Result<MappedCsr, GraphError> {
        let (n, m, offsets) = read_offsets(&mut &map[..], Some(map.len() as u64))?;
        let targets_start = HEADER_LEN + (n + 1) * 8;
        let targets_bytes = &map[targets_start..targets_start + m as usize * 4];
        // Little-endian + aligned: keep the map and borrow from it.
        let aligned = (targets_bytes.as_ptr() as usize) % std::mem::align_of::<VertexId>() == 0;
        if cfg!(target_endian = "little") && aligned {
            validate_targets(
                targets_bytes
                    .chunks_exact(4)
                    .map(|c| VertexId::from_le_bytes(c.try_into().unwrap())),
                n,
            )?;
            return Ok(MappedCsr {
                backing: Backing::Mapped(map),
                offsets,
                n,
                m,
            });
        }
        Self::from_owned_bytes(&map)
    }

    fn from_owned_bytes(bytes: &[u8]) -> Result<MappedCsr, GraphError> {
        let (n, m, offsets) = read_offsets(&mut &bytes[..], Some(bytes.len() as u64))?;
        let targets_start = HEADER_LEN + (n + 1) * 8;
        let mut targets: Vec<VertexId> = Vec::with_capacity(m as usize);
        targets.extend(
            bytes[targets_start..targets_start + m as usize * 4]
                .chunks_exact(4)
                .map(|c| VertexId::from_le_bytes(c.try_into().unwrap())),
        );
        validate_targets(targets.iter().copied(), n)?;
        Ok(MappedCsr {
            backing: Backing::Owned(targets),
            offsets,
            n,
            m,
        })
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Edge count.
    pub fn num_edges(&self) -> u64 {
        self.m
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Out-neighbors of `v`, borrowed from the mapping (or the decoded
    /// copy in fallback mode).
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped(map) => {
                let start = HEADER_LEN + (self.n + 1) * 8;
                let bytes = &map[start + lo * 4..start + hi * 4];
                // Alignment and endianness were checked at open; targets
                // were range-validated then too.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const VertexId, hi - lo) }
            }
            Backing::Owned(targets) => &targets[lo..hi],
        }
    }

    /// Whether neighbor slices borrow the mapping directly (true) or a
    /// decoded owned copy (false).
    pub fn is_zero_copy(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped(_) => true,
            Backing::Owned(_) => false,
        }
    }
}

impl std::fmt::Debug for MappedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedCsr")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("zero_copy", &self.is_zero_copy())
            .finish()
    }
}

fn validate_targets(targets: impl Iterator<Item = VertexId>, n: usize) -> Result<(), GraphError> {
    for t in targets {
        if t as usize >= n {
            return Err(GraphError::Format(format!(
                "target {t} out of range (n = {n})"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_binary;
    use crate::{generate, CsrGraph};

    fn temp_bpgr(name: &str, g: &CsrGraph) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "bpart-oocsr-test-{}-{name}.bpgr",
            std::process::id()
        ));
        write_binary(g, std::fs::File::create(&path).unwrap()).unwrap();
        path
    }

    #[test]
    fn matches_in_memory_adjacency() {
        let g = generate::twitter_like().generate_scaled(0.01);
        let path = temp_bpgr("match", &g);
        let view = MappedCsr::open(&path).unwrap();
        assert_eq!(view.num_vertices(), g.num_vertices());
        assert_eq!(view.num_edges(), g.num_edges() as u64);
        for v in g.vertices() {
            assert_eq!(view.out_degree(v), g.out_degree(v));
            assert_eq!(view.out_neighbors(v), g.out_neighbors(v));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(all(unix, target_endian = "little"))]
    #[test]
    fn serves_neighbors_zero_copy() {
        let g = generate::ring(64);
        let path = temp_bpgr("zerocopy", &g);
        let view = MappedCsr::open(&path).unwrap();
        assert!(view.is_zero_copy());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_corrupt_and_truncated_files() {
        let g = generate::ring(8);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let path = std::env::temp_dir().join(format!(
            "bpart-oocsr-test-{}-corrupt.bpgr",
            std::process::id()
        ));

        // Truncated mid-targets.
        std::fs::write(&path, &buf[..buf.len() - 3]).unwrap();
        assert!(MappedCsr::open(&path).is_err());
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = MappedCsr::open(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // Out-of-range target.
        let mut oob = buf.clone();
        let len = oob.len();
        oob[len - 4..].copy_from_slice(&999u32.to_le_bytes());
        std::fs::write(&path, &oob).unwrap();
        let err = MappedCsr::open(&path).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
