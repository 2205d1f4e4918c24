//! Graph serialization: text edge lists and a compact binary format.
//!
//! * [`text`] — whitespace-separated `src dst` lines with `#` comments, the
//!   format SNAP/KONECT dumps use, so real datasets drop in unchanged.
//! * [`binfmt`] — fixed-header little-endian CSR dump for fast reloads,
//!   read by one streamed decoder whatever the source.
//! * [`mmap`] — read-only file mappings (unix only) for the readers that
//!   serve data *from* the file: [`MappedCsr`] and the partitioner's shards.
//!   Loading a graph maps nothing.
//! * [`oocsr`] — out-of-core CSR view ([`MappedCsr`]) serving adjacency
//!   straight from the mapping with `O(n)` resident memory.

pub mod binfmt;
#[cfg(unix)]
pub mod mmap;
pub mod oocsr;
pub mod text;

pub use binfmt::{read_binary, read_binary_bytes, write_binary};
pub use oocsr::MappedCsr;
pub use text::{read_edge_list, write_edge_list};

use crate::{CsrGraph, GraphError};
use std::path::Path;

/// Loads a binary CSR graph from `path`: the header's counts are held
/// against the file's length before anything is allocated, then the arrays
/// are read in 64 KiB pieces into the `Vec`s the graph keeps (the decoder
/// of [`binfmt`]). The file is never mapped or held whole, so the load's
/// peak is the graph's own.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    let mut file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    binfmt::decode(&mut file, Some(len))
}
