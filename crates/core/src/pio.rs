//! Partition and shard serialization.
//!
//! Text format (`.parts`): one part id per line, line number = vertex id,
//! `#` comments allowed — the format METIS-family tools exchange, so
//! partitions produced here drop into other toolchains.
//!
//! Binary format: `BPPT` magic, version, `k`, `n`, then `n` little-endian
//! `u32` part ids.
//!
//! ## Sharded ingestion format
//!
//! The out-of-core pipeline ([`crate::stream_assign_ooc`]) does not read a
//! graph file — it reads a *shard directory*: the stream pre-serialized as
//! per-vertex records in visit order, cut into files of at most a target
//! size. A [`ShardReader`] reads a shard front to back through one
//! [`SHARD_WINDOW_BYTES`] window plus one record buffer grown to the largest
//! record, so a pass holds neither a shard nor the stream, whatever the
//! shard size; the writer streams each record to its file the same way.
//! Layout (all little-endian):
//!
//! ```text
//! manifest.bpsm:   magic "BPSM", version u32, n u64, m u64,
//!                  shard_count u32, then per shard {records u64, bytes u64}
//! shard-NNNNN.bpse: magic "BPSE", version u32, records u64, then per
//!                  record {out_deg u32, nbr_len u32, nbrs [u32; nbr_len]}
//! ```
//!
//! Vertex ids are implicit: records are consecutive in natural order,
//! shard `s` starting where `s − 1` ended. Each record stores the vertex's
//! full undirected neighborhood — out-neighbors first, then in-neighbors —
//! which is exactly the tally order of the sequential scorer, so replaying
//! records reproduces the in-memory pass bit for bit without ever holding
//! the graph. Errors are the typed [`PioError`]: a shard shorter than its
//! header (or the manifest) claims is [`PioError::Truncated`], never a
//! panic.

use crate::partition::{PartId, Partition};
use bpart_graph::io::MappedCsr;
use bpart_graph::{CsrGraph, GraphError, VertexId};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: [u8; 4] = *b"BPPT";
const VERSION: u32 = 1;

/// Writes an assignment to `k` parts as text, one part id per line. It
/// takes the raw assignment, not a [`Partition`], because the out-of-core
/// path never holds the graph a `Partition` is tallied against.
pub fn write_text_assignment<W: Write>(
    k: usize,
    assignment: &[PartId],
    writer: W,
) -> Result<(), GraphError> {
    let mut bw = BufWriter::new(writer);
    writeln!(
        bw,
        "# bpart partition: {} vertices, {} parts",
        assignment.len(),
        k
    )?;
    for &p in assignment {
        writeln!(bw, "{p}")?;
    }
    bw.flush()?;
    Ok(())
}

/// Reads a text assignment and re-tallies it against `graph`.
pub fn read_text<R: Read>(graph: &CsrGraph, reader: R) -> Result<Partition, GraphError> {
    let mut br = BufReader::new(reader);
    let mut assignment: Vec<PartId> = Vec::with_capacity(graph.num_vertices());
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if br.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let p: PartId = trimmed
            .parse()
            .map_err(|_| GraphError::Format(format!("line {lineno}: bad part id {trimmed:?}")))?;
        assignment.push(p);
    }
    finish(graph, assignment)
}

/// Writes an assignment to `k` parts in the binary format (see
/// [`write_text_assignment`] for why it takes the raw assignment).
pub fn write_binary_assignment<W: Write>(
    k: usize,
    assignment: &[PartId],
    writer: W,
) -> Result<(), GraphError> {
    let mut bw = BufWriter::new(writer);
    bw.write_all(&MAGIC)?;
    bw.write_all(&VERSION.to_le_bytes())?;
    bw.write_all(&(k as u32).to_le_bytes())?;
    bw.write_all(&(assignment.len() as u64).to_le_bytes())?;
    for &p in assignment {
        bw.write_all(&p.to_le_bytes())?;
    }
    bw.flush()?;
    Ok(())
}

/// Reads a binary assignment and re-tallies it against `graph`.
pub fn read_binary<R: Read>(graph: &CsrGraph, reader: R) -> Result<Partition, GraphError> {
    let mut br = BufReader::new(reader);
    let mut magic = [0u8; 4];
    br.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(GraphError::Format(format!("bad partition magic {magic:?}")));
    }
    let mut b4 = [0u8; 4];
    br.read_exact(&mut b4)?;
    let version = u32::from_le_bytes(b4);
    if version != VERSION {
        return Err(GraphError::Format(format!(
            "unsupported partition version {version}"
        )));
    }
    br.read_exact(&mut b4)?;
    let k = u32::from_le_bytes(b4) as usize;
    check_part_count(k, graph)?;
    let mut b8 = [0u8; 8];
    br.read_exact(&mut b8)?;
    let n = u64::from_le_bytes(b8) as usize;
    if n != graph.num_vertices() {
        return Err(GraphError::Format(format!(
            "partition covers {n} vertices, graph has {}",
            graph.num_vertices()
        )));
    }
    let mut assignment = Vec::with_capacity(n);
    for _ in 0..n {
        br.read_exact(&mut b4)?;
        let p = u32::from_le_bytes(b4);
        if p as usize >= k {
            return Err(GraphError::Format(format!(
                "part id {p} out of range (k = {k})"
            )));
        }
        assignment.push(p);
    }
    Ok(Partition::from_assignment(graph, k, assignment))
}

/// Refuses more parts than `graph` has vertices (an empty graph still has
/// its one part): a file can name any `u32`, and every part costs its
/// tallies before a single one is filled.
fn check_part_count(k: usize, graph: &CsrGraph) -> Result<(), GraphError> {
    let n = graph.num_vertices();
    if k > n.max(1) {
        return Err(GraphError::Format(format!(
            "partition has {k} parts, more than the graph's {n} vertices"
        )));
    }
    Ok(())
}

/// Shared text-path epilogue: validate the length and infer `k`.
fn finish(graph: &CsrGraph, assignment: Vec<PartId>) -> Result<Partition, GraphError> {
    if assignment.len() != graph.num_vertices() {
        return Err(GraphError::Format(format!(
            "partition covers {} vertices, graph has {}",
            assignment.len(),
            graph.num_vertices()
        )));
    }
    let k = assignment
        .iter()
        .copied()
        .max()
        .map_or(1, |m| m as usize + 1);
    check_part_count(k, graph)?;
    Ok(Partition::from_assignment(graph, k, assignment))
}

// ---------------------------------------------------------------------------
// Sharded edge-list ingestion
// ---------------------------------------------------------------------------

const SHARD_MAGIC: [u8; 4] = *b"BPSE";
const MANIFEST_MAGIC: [u8; 4] = *b"BPSM";
const SHARD_VERSION: u32 = 1;

/// Fixed bytes before a shard's records: magic + version + record count.
const SHARD_HEADER_LEN: usize = 4 + 4 + 8;

/// The manifest's file name inside a shard directory.
pub const MANIFEST_NAME: &str = "manifest.bpsm";

/// The window a [`ShardReader`] reads its file through: what a pass holds
/// of a shard beside the one record it is placing.
pub const SHARD_WINDOW_BYTES: usize = 64 * 1024;

/// Typed errors of the shard reader/writer.
#[derive(Debug)]
pub enum PioError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A shard file is shorter than its header (or the manifest) claims.
    Truncated {
        /// The file that came up short.
        path: PathBuf,
        /// Bytes the header/manifest declared.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// Structural decode failure with a human-readable reason.
    Format(String),
}

impl std::fmt::Display for PioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PioError::Io(e) => write!(f, "io error: {e}"),
            PioError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{} truncated: header claims {expected} bytes, file has {actual}",
                path.display()
            ),
            PioError::Format(msg) => write!(f, "shard format error: {msg}"),
        }
    }
}

impl std::error::Error for PioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PioError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PioError {
    fn from(e: std::io::Error) -> Self {
        PioError::Io(e)
    }
}

impl From<PioError> for GraphError {
    fn from(e: PioError) -> Self {
        match e {
            PioError::Io(io) => GraphError::Io(io),
            other => GraphError::Format(other.to_string()),
        }
    }
}

/// Per-shard bookkeeping recorded in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// Vertex records in this shard.
    pub records: u64,
    /// Total file size in bytes (header included) — validated against the
    /// real file size before reading, so a truncated shard is caught
    /// up front with a typed error instead of a mid-parse surprise.
    pub bytes: u64,
}

/// The decoded `manifest.bpsm`: stream totals plus the shard table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Total vertices across all shards.
    pub n: u64,
    /// Total out-edges across all shards.
    pub m: u64,
    /// Shard table in stream order.
    pub shards: Vec<ShardMeta>,
}

impl ShardManifest {
    fn write(&self, path: &Path) -> Result<(), PioError> {
        let mut bw = BufWriter::new(std::fs::File::create(path)?);
        bw.write_all(&MANIFEST_MAGIC)?;
        bw.write_all(&SHARD_VERSION.to_le_bytes())?;
        bw.write_all(&self.n.to_le_bytes())?;
        bw.write_all(&self.m.to_le_bytes())?;
        bw.write_all(&(self.shards.len() as u32).to_le_bytes())?;
        for s in &self.shards {
            bw.write_all(&s.records.to_le_bytes())?;
            bw.write_all(&s.bytes.to_le_bytes())?;
        }
        bw.flush()?;
        Ok(())
    }

    fn read(path: &Path) -> Result<ShardManifest, PioError> {
        let bytes = std::fs::read(path)?;
        let need_header = 4 + 4 + 8 + 8 + 4;
        if bytes.len() < need_header {
            return Err(PioError::Truncated {
                path: path.to_path_buf(),
                expected: need_header as u64,
                actual: bytes.len() as u64,
            });
        }
        if bytes[..4] != MANIFEST_MAGIC {
            return Err(PioError::Format(format!(
                "bad manifest magic {:?}",
                &bytes[..4]
            )));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != SHARD_VERSION {
            return Err(PioError::Format(format!(
                "unsupported shard version {version}"
            )));
        }
        let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let m = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let shard_count = u32::from_le_bytes(bytes[24..28].try_into().unwrap()) as usize;
        let need = need_header as u64 + shard_count as u64 * 16;
        if (bytes.len() as u64) < need {
            return Err(PioError::Truncated {
                path: path.to_path_buf(),
                expected: need,
                actual: bytes.len() as u64,
            });
        }
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let at = need_header + i * 16;
            shards.push(ShardMeta {
                records: u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()),
                bytes: u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()),
            });
        }
        let total: u64 = shards.iter().map(|s| s.records).sum();
        if total != n {
            return Err(PioError::Format(format!(
                "shard record counts sum to {total}, manifest declares n = {n}"
            )));
        }
        Ok(ShardManifest { n, m, shards })
    }
}

/// Name of shard `index` inside its directory.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.bpse")
}

/// Serializes `graph` into a shard directory, cutting a new shard whenever
/// the current one would exceed `target_shard_bytes`. Returns the written
/// manifest.
///
/// Shard size sets how many files the stream is cut into, not what a pass
/// holds: the writer streams each record to its file and the reader reads
/// it back through one [`SHARD_WINDOW_BYTES`] window.
pub fn write_shards(
    graph: &CsrGraph,
    dir: &Path,
    target_shard_bytes: u64,
) -> Result<ShardManifest, PioError> {
    write_shards_inner(
        dir,
        target_shard_bytes,
        graph.num_vertices() as u64,
        graph.num_edges() as u64,
        |v| (graph.out_neighbors(v), graph.in_neighbors(v)),
    )
}

/// [`write_shards`] over an out-of-core [`MappedCsr`] view: the source
/// graph's edge data stays on disk; only the in-adjacency transpose
/// (`O(n + m)` of `u32`/`u64` index arrays, no neighbor copies of the
/// out-direction) is held during conversion. This is the preprocessing
/// step's memory floor — the *partitioning* pass that follows is
/// `O(n)` plus one window.
pub fn write_shards_from_mapped(
    csr: &MappedCsr,
    dir: &Path,
    target_shard_bytes: u64,
) -> Result<ShardManifest, PioError> {
    let n = csr.num_vertices();
    // Counting-sort transpose for the in-neighbors (same construction the
    // in-memory loader uses, without materializing the out-adjacency).
    let mut in_offsets = vec![0u64; n + 1];
    for v in 0..n as VertexId {
        for &t in csr.out_neighbors(v) {
            in_offsets[t as usize + 1] += 1;
        }
    }
    for i in 0..n {
        in_offsets[i + 1] += in_offsets[i];
    }
    let mut in_targets = vec![0 as VertexId; csr.num_edges() as usize];
    let mut cursor = in_offsets.clone();
    for v in 0..n as VertexId {
        for &t in csr.out_neighbors(v) {
            in_targets[cursor[t as usize] as usize] = v;
            cursor[t as usize] += 1;
        }
    }
    write_shards_inner(dir, target_shard_bytes, n as u64, csr.num_edges(), |v| {
        let lo = in_offsets[v as usize] as usize;
        let hi = in_offsets[v as usize + 1] as usize;
        (csr.out_neighbors(v), &in_targets[lo..hi])
    })
}

/// Streams every vertex's record — `neighbourhood(v)` is its out- and
/// in-neighbours — into shard files. A shard's record count is written into
/// its header when the shard ends, so no shard is ever held whole.
fn write_shards_inner<'g>(
    dir: &Path,
    target_shard_bytes: u64,
    n: u64,
    m: u64,
    neighbourhood: impl Fn(VertexId) -> (&'g [VertexId], &'g [VertexId]),
) -> Result<ShardManifest, PioError> {
    std::fs::create_dir_all(dir)?;
    let target = target_shard_bytes.max(SHARD_HEADER_LEN as u64 + 16);
    let create = |index: usize| -> Result<BufWriter<File>, PioError> {
        let mut bw = BufWriter::new(File::create(dir.join(shard_file_name(index)))?);
        bw.write_all(&SHARD_MAGIC)?;
        bw.write_all(&SHARD_VERSION.to_le_bytes())?;
        bw.write_all(&0u64.to_le_bytes())?; // the record count, set by `finish`
        Ok(bw)
    };
    let finish = |mut bw: BufWriter<File>, meta: ShardMeta| -> Result<ShardMeta, PioError> {
        bw.seek(SeekFrom::Start(8))?;
        bw.write_all(&meta.records.to_le_bytes())?;
        bw.flush()?;
        Ok(meta)
    };
    let empty = ShardMeta {
        records: 0,
        bytes: SHARD_HEADER_LEN as u64,
    };
    let (mut shards, mut shard, mut meta) = (Vec::new(), create(0)?, empty);
    for v in 0..n as VertexId {
        let (out, inn) = neighbourhood(v);
        let nbr_len = out.len() + inn.len();
        let bytes = 8 + 4 * nbr_len as u64;
        if meta.records > 0 && meta.bytes + bytes > target {
            shards.push(finish(shard, meta)?);
            (shard, meta) = (create(shards.len())?, empty);
        }
        shard.write_all(&(out.len() as u32).to_le_bytes())?;
        shard.write_all(&(nbr_len as u32).to_le_bytes())?;
        for &w in out.iter().chain(inn) {
            shard.write_all(&w.to_le_bytes())?;
        }
        meta.records += 1;
        meta.bytes += bytes;
    }
    // The final (possibly empty) shard — an empty stream still writes one
    // shard so the directory is self-describing.
    shards.push(finish(shard, meta)?);

    let manifest = ShardManifest { n, m, shards };
    manifest.write(&dir.join(MANIFEST_NAME))?;
    Ok(manifest)
}

/// One decoded shard record: a vertex with its full undirected
/// neighborhood in tally order (out-neighbors first, then in-neighbors).
#[derive(Clone, Copy, Debug)]
pub struct ShardRecord<'a> {
    /// The vertex this record describes.
    pub vertex: VertexId,
    /// Its out-degree (the first `out_deg` entries of `nbrs` are the
    /// out-neighbors).
    pub out_deg: u32,
    /// Raw little-endian `u32` neighbor bytes (`4 × nbr_len`).
    nbr_bytes: &'a [u8],
}

impl ShardRecord<'_> {
    /// Decodes the neighbors in stored (tally) order.
    pub fn nbrs(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.nbr_bytes
            .chunks_exact(4)
            .map(|c| VertexId::from_le_bytes(c.try_into().unwrap()))
    }
}

/// Streaming reader over one shard file: the file is read front to back
/// through a [`SHARD_WINDOW_BYTES`] window, and each record's neighbours
/// are copied into one buffer, grown to the largest record read.
#[derive(Debug)]
pub struct ShardReader {
    file: BufReader<File>,
    path: PathBuf,
    /// The file's length at open; every length a record declares is held
    /// against it before a byte is read or a buffer grown.
    len: u64,
    /// Records the header declared.
    records: u64,
    /// Records handed out so far.
    cursor: u64,
    /// Byte position of the next record.
    pos: u64,
    /// Vertex id of the next record.
    next_vertex: VertexId,
    /// The last record's neighbour bytes (a prefix of it).
    record: Vec<u8>,
}

impl ShardReader {
    /// Opens a standalone shard file, validating magic, version, and that
    /// the header itself is present (a shorter file is
    /// [`PioError::Truncated`]). Record payloads are length-checked
    /// incrementally as [`next_record`](Self::next_record) walks the file.
    pub fn open(path: &Path) -> Result<ShardReader, PioError> {
        Self::open_at(path, 0)
    }

    /// [`open`](Self::open) with the first record's vertex id — the shard's
    /// position in the stream, taken from the manifest by
    /// [`ShardSet::open_shard`].
    pub fn open_at(path: &Path, first_vertex: VertexId) -> Result<ShardReader, PioError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < SHARD_HEADER_LEN as u64 {
            return Err(PioError::Truncated {
                path: path.to_path_buf(),
                expected: SHARD_HEADER_LEN as u64,
                actual: len,
            });
        }
        let mut file = BufReader::with_capacity(SHARD_WINDOW_BYTES, file);
        let mut b = [0u8; SHARD_HEADER_LEN];
        file.read_exact(&mut b)?;
        if b[..4] != SHARD_MAGIC {
            return Err(PioError::Format(format!("bad shard magic {:?}", &b[..4])));
        }
        let version = u32::from_le_bytes(b[4..8].try_into().unwrap());
        if version != SHARD_VERSION {
            return Err(PioError::Format(format!(
                "unsupported shard version {version}"
            )));
        }
        let records = u64::from_le_bytes(b[8..16].try_into().unwrap());
        Ok(ShardReader {
            file,
            path: path.to_path_buf(),
            len,
            records,
            cursor: 0,
            pos: SHARD_HEADER_LEN as u64,
            next_vertex: first_vertex,
            record: Vec::new(),
        })
    }

    /// Records the header declared.
    pub fn num_records(&self) -> u64 {
        self.records
    }

    /// The next record, `Ok(None)` at the end, or
    /// [`PioError::Truncated`] if the file ends before the header-declared
    /// record count is satisfied.
    pub fn next_record(&mut self) -> Result<Option<ShardRecord<'_>>, PioError> {
        if self.cursor == self.records {
            return Ok(None);
        }
        let truncated = |expected: u64| PioError::Truncated {
            path: self.path.clone(),
            expected,
            actual: self.len,
        };
        if self.pos + 8 > self.len {
            return Err(truncated(self.pos + 8));
        }
        let mut b = [0u8; 8];
        self.file.read_exact(&mut b)?;
        let out_deg = u32::from_le_bytes(b[..4].try_into().unwrap());
        let nbr_len = u32::from_le_bytes(b[4..].try_into().unwrap());
        if (out_deg as u64) > (nbr_len as u64) {
            return Err(PioError::Format(format!(
                "record for vertex {}: out_deg {out_deg} exceeds nbr_len {nbr_len}",
                self.next_vertex
            )));
        }
        let end = self.pos + 8 + nbr_len as u64 * 4;
        if end > self.len {
            return Err(truncated(end));
        }
        let bytes = nbr_len as usize * 4;
        if self.record.len() < bytes {
            self.record.reserve_exact(bytes - self.record.len());
            self.record.resize(bytes, 0);
        }
        self.file.read_exact(&mut self.record[..bytes])?;
        self.pos = end;
        self.cursor += 1;
        self.next_vertex += 1;
        Ok(Some(ShardRecord {
            vertex: self.next_vertex - 1,
            out_deg,
            nbr_bytes: &self.record[..bytes],
        }))
    }
}

/// An opened shard directory: the validated manifest plus per-shard
/// first-vertex offsets. Individual shards are opened lazily, one at a
/// time, by [`open_shard`](Self::open_shard).
#[derive(Debug)]
pub struct ShardSet {
    dir: PathBuf,
    manifest: ShardManifest,
    /// Vertex id where each shard starts (prefix sums of record counts).
    starts: Vec<u64>,
}

impl ShardSet {
    /// Opens `dir`, reading and validating the manifest. Shard files are
    /// *not* touched yet; size validation happens per shard on
    /// [`open_shard`](Self::open_shard) so only one shard is ever open.
    pub fn open(dir: &Path) -> Result<ShardSet, PioError> {
        let manifest = ShardManifest::read(&dir.join(MANIFEST_NAME))?;
        if manifest.n > VertexId::MAX as u64 {
            return Err(PioError::Format(format!(
                "vertex count {} exceeds the u32 id space",
                manifest.n
            )));
        }
        let mut starts = Vec::with_capacity(manifest.shards.len());
        let mut acc = 0u64;
        for s in &manifest.shards {
            starts.push(acc);
            acc += s.records;
        }
        Ok(ShardSet {
            dir: dir.to_path_buf(),
            manifest,
            starts,
        })
    }

    /// Total vertices in the stream.
    pub fn num_vertices(&self) -> usize {
        self.manifest.n as usize
    }

    /// Total out-edges in the stream.
    pub fn num_edges(&self) -> u64 {
        self.manifest.m
    }

    /// Number of shard files.
    pub fn num_shards(&self) -> usize {
        self.manifest.shards.len()
    }

    /// The decoded manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Opens shard `index`, validating its real size against the manifest
    /// (short file → [`PioError::Truncated`]) and its header against the
    /// manifest's record count.
    pub fn open_shard(&self, index: usize) -> Result<ShardReader, PioError> {
        let meta = self.manifest.shards.get(index).ok_or_else(|| {
            PioError::Format(format!(
                "shard index {index} out of range ({} shards)",
                self.manifest.shards.len()
            ))
        })?;
        let path = self.dir.join(shard_file_name(index));
        let actual = std::fs::metadata(&path)?.len();
        if actual < meta.bytes {
            return Err(PioError::Truncated {
                path,
                expected: meta.bytes,
                actual,
            });
        }
        let reader = ShardReader::open_at(&path, self.starts[index] as VertexId)?;
        if reader.num_records() != meta.records {
            return Err(PioError::Format(format!(
                "{}: header declares {} records, manifest expects {}",
                path.display(),
                reader.num_records(),
                meta.records
            )));
        }
        Ok(reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpart::BPart;
    use crate::partitioner::Partitioner;
    use bpart_graph::generate;

    fn sample() -> (CsrGraph, Partition) {
        let g = generate::erdos_renyi(200, 1_200, 3);
        let p = BPart::default().partition(&g, 4);
        (g, p)
    }

    #[test]
    fn text_round_trip() {
        let (g, p) = sample();
        let mut buf = Vec::new();
        write_text_assignment(p.num_parts(), p.assignment(), &mut buf).unwrap();
        let q = read_text(&g, buf.as_slice()).unwrap();
        assert_eq!(p.assignment(), q.assignment());
        assert_eq!(p.num_parts(), q.num_parts());
    }

    #[test]
    fn binary_round_trip() {
        let (g, p) = sample();
        let mut buf = Vec::new();
        write_binary_assignment(p.num_parts(), p.assignment(), &mut buf).unwrap();
        let q = read_binary(&g, buf.as_slice()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn binary_preserves_trailing_empty_parts() {
        // k is stored explicitly, so empty high parts survive; the text
        // format infers k from the max id and cannot.
        let g = generate::ring(8);
        let p = Partition::from_assignment(&g, 6, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let mut buf = Vec::new();
        write_binary_assignment(p.num_parts(), p.assignment(), &mut buf).unwrap();
        assert_eq!(read_binary(&g, buf.as_slice()).unwrap().num_parts(), 6);
        let mut tbuf = Vec::new();
        write_text_assignment(p.num_parts(), p.assignment(), &mut tbuf).unwrap();
        assert_eq!(read_text(&g, tbuf.as_slice()).unwrap().num_parts(), 2);
    }

    #[test]
    fn text_rejects_garbage_and_wrong_length() {
        let g = generate::ring(3);
        assert!(read_text(&g, "0\nx\n0\n".as_bytes()).is_err());
        assert!(read_text(&g, "0\n1\n".as_bytes()).is_err());
    }

    fn temp_shard_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bpart-pio-shards-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Reconstructs every record's neighbor list from a shard directory.
    fn collect_records(set: &ShardSet) -> Vec<(VertexId, u32, Vec<VertexId>)> {
        let mut out = Vec::new();
        for s in 0..set.num_shards() {
            let mut reader = set.open_shard(s).unwrap();
            while let Some(r) = reader.next_record().unwrap() {
                out.push((r.vertex, r.out_deg, r.nbrs().collect()));
            }
        }
        out
    }

    #[test]
    fn shard_round_trip_preserves_tally_order_neighborhoods() {
        let g = generate::erdos_renyi(300, 2_000, 11);
        let dir = temp_shard_dir("roundtrip");
        // Small target forces several shards.
        let manifest = write_shards(&g, &dir, 4 * 1024).unwrap();
        assert!(manifest.shards.len() > 1, "expected multiple shards");
        assert_eq!(manifest.n, 300);
        assert_eq!(manifest.m, 2_000);

        let set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.num_vertices(), 300);
        assert_eq!(set.num_edges(), 2_000);
        let records = collect_records(&set);
        assert_eq!(records.len(), 300);
        for (v, out_deg, nbrs) in records {
            let expect: Vec<VertexId> = g
                .out_neighbors(v)
                .iter()
                .chain(g.in_neighbors(v))
                .copied()
                .collect();
            assert_eq!(out_deg as usize, g.out_degree(v), "vertex {v}");
            assert_eq!(nbrs, expect, "vertex {v} neighborhood order");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shards_from_mapped_match_shards_from_graph() {
        let g = generate::twitter_like().generate_scaled(0.005);
        let bpgr = std::env::temp_dir().join(format!(
            "bpart-pio-shards-{}-mapped.bpgr",
            std::process::id()
        ));
        bpart_graph::io::write_binary(&g, std::fs::File::create(&bpgr).unwrap()).unwrap();
        let csr = MappedCsr::open(&bpgr).unwrap();

        let dir_a = temp_shard_dir("from-graph");
        let dir_b = temp_shard_dir("from-mapped");
        write_shards(&g, &dir_a, 16 * 1024).unwrap();
        write_shards_from_mapped(&csr, &dir_b, 16 * 1024).unwrap();

        let set_a = ShardSet::open(&dir_a).unwrap();
        let set_b = ShardSet::open(&dir_b).unwrap();
        assert_eq!(set_a.manifest(), set_b.manifest());
        assert_eq!(collect_records(&set_a), collect_records(&set_b));

        std::fs::remove_file(&bpgr).unwrap();
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn empty_graph_writes_one_self_describing_shard() {
        let g = CsrGraph::from_edges(0, &[]);
        let dir = temp_shard_dir("empty");
        write_shards(&g, &dir, 1024).unwrap();
        let set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.num_vertices(), 0);
        assert_eq!(set.num_shards(), 1);
        assert!(collect_records(&set).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_shard_is_a_typed_error_not_a_panic() {
        let g = generate::erdos_renyi(200, 1_500, 5);
        let dir = temp_shard_dir("truncated");
        write_shards(&g, &dir, u64::MAX).unwrap(); // one big shard
        let path = dir.join(shard_file_name(0));
        let bytes = std::fs::read(&path).unwrap();

        // Shorter than the manifest claims → Truncated at open_shard.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let set = ShardSet::open(&dir).unwrap();
        match set.open_shard(0) {
            Err(PioError::Truncated {
                expected, actual, ..
            }) => {
                assert_eq!(expected, bytes.len() as u64);
                assert_eq!(actual, bytes.len() as u64 - 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }

        // Standalone reader (no manifest): header-declared records out-run
        // the payload mid-record → Truncated from next_record.
        let mut reader = ShardReader::open(&path).unwrap();
        let mut saw_truncated = false;
        loop {
            match reader.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(PioError::Truncated { .. }) => {
                    saw_truncated = true;
                    break;
                }
                Err(other) => panic!("expected Truncated, got {other}"),
            }
        }
        assert!(saw_truncated, "short payload must surface as Truncated");

        // Shorter than the shard header itself.
        std::fs::write(&path, &bytes[..7]).unwrap();
        assert!(matches!(
            ShardReader::open(&path),
            Err(PioError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The shard writer as it was when it held each shard's records in
    /// memory, one `Vec<u8>` apiece: the oracle the streaming writer's
    /// bytes are held to.
    fn buffered_write_shards(g: &CsrGraph, dir: &Path, target_shard_bytes: u64) {
        std::fs::create_dir_all(dir).unwrap();
        let target = target_shard_bytes.max(SHARD_HEADER_LEN as u64 + 16);
        let mut shards: Vec<ShardMeta> = Vec::new();
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut shard_bytes = SHARD_HEADER_LEN as u64;
        let flush = |records: &mut Vec<Vec<u8>>, shards: &mut Vec<ShardMeta>, bytes: u64| {
            let mut file = SHARD_MAGIC.to_vec();
            file.extend_from_slice(&SHARD_VERSION.to_le_bytes());
            file.extend_from_slice(&(records.len() as u64).to_le_bytes());
            for r in records.iter() {
                file.extend_from_slice(r);
            }
            std::fs::write(dir.join(shard_file_name(shards.len())), file).unwrap();
            shards.push(ShardMeta {
                records: records.len() as u64,
                bytes,
            });
            records.clear();
        };
        for v in 0..g.num_vertices() as VertexId {
            let (out, inn) = (g.out_neighbors(v), g.in_neighbors(v));
            let mut buf = Vec::new();
            buf.extend_from_slice(&(out.len() as u32).to_le_bytes());
            buf.extend_from_slice(&((out.len() + inn.len()) as u32).to_le_bytes());
            for &w in out.iter().chain(inn) {
                buf.extend_from_slice(&w.to_le_bytes());
            }
            if !records.is_empty() && shard_bytes + buf.len() as u64 > target {
                flush(&mut records, &mut shards, shard_bytes);
                shard_bytes = SHARD_HEADER_LEN as u64;
            }
            shard_bytes += buf.len() as u64;
            records.push(buf);
        }
        flush(&mut records, &mut shards, shard_bytes);
        let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
        ShardManifest { n, m, shards }
            .write(&dir.join(MANIFEST_NAME))
            .unwrap();
    }

    #[test]
    fn streamed_shards_are_byte_identical_to_buffered_ones() {
        let graphs = [
            generate::erdos_renyi(300, 2_000, 11),
            generate::star(20_000), // one record of 160 KB
            CsrGraph::from_edges(0, &[]),
        ];
        for (i, g) in graphs.iter().enumerate() {
            for target in [1, 4 * 1024, u64::MAX] {
                let (a, b) = (temp_shard_dir("streamed"), temp_shard_dir("buffered"));
                let manifest = write_shards(g, &a, target).unwrap();
                buffered_write_shards(g, &b, target);
                let mut names: Vec<String> =
                    (0..manifest.shards.len()).map(shard_file_name).collect();
                names.push(MANIFEST_NAME.to_string());
                assert_eq!(std::fs::read_dir(&b).unwrap().count(), names.len());
                for name in names {
                    let (x, y) = (std::fs::read(a.join(&name)), std::fs::read(b.join(&name)));
                    assert!(
                        x.unwrap() == y.unwrap(),
                        "graph {i}, target {target}: {name}"
                    );
                }
                std::fs::remove_dir_all(&a).unwrap();
                std::fs::remove_dir_all(&b).unwrap();
            }
        }
    }

    #[test]
    fn a_record_larger_than_the_window_reads_whole() {
        // The hub's record is 8 + 4 · 40 000 bytes, about 2.4 windows.
        let g = generate::star(20_000);
        assert!(8 + 4 * g.in_degree(0) + 4 * g.out_degree(0) > 2 * SHARD_WINDOW_BYTES);
        let dir = temp_shard_dir("wide");
        write_shards(&g, &dir, u64::MAX).unwrap();
        let records = collect_records(&ShardSet::open(&dir).unwrap());
        assert_eq!(records.len(), g.num_vertices());
        for (v, out_deg, nbrs) in records {
            let expect: Vec<VertexId> = g
                .out_neighbors(v)
                .iter()
                .chain(g.in_neighbors(v))
                .copied()
                .collect();
            assert_eq!(out_deg as usize, g.out_degree(v), "vertex {v}");
            assert_eq!(nbrs, expect, "vertex {v}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cut_inside_a_record_is_truncated_naming_the_file() {
        let g = generate::erdos_renyi(100, 800, 3);
        let dir = temp_shard_dir("cut");
        write_shards(&g, &dir, u64::MAX).unwrap();
        let path = dir.join(shard_file_name(0));
        let bytes = std::fs::read(&path).unwrap();
        // The third record's header starts after two records.
        let record = |v: VertexId| 8 + 4 * (g.out_degree(v) + g.in_degree(v));
        let third = SHARD_HEADER_LEN + record(0) + record(1);
        assert!(record(2) > 8, "the third record has a body");
        for (cut, what) in [(third + 5, "record header"), (third + 10, "record body")] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut reader = ShardReader::open(&path).unwrap();
            assert!(reader.next_record().unwrap().is_some());
            assert!(reader.next_record().unwrap().is_some());
            match reader.next_record() {
                Err(PioError::Truncated {
                    path: named,
                    actual,
                    ..
                }) => {
                    assert_eq!(named, path, "{what}");
                    assert_eq!(actual, cut as u64, "{what}");
                }
                other => panic!("{what}: expected Truncated, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shard_headers_rejected() {
        let g = generate::ring(20);
        let dir = temp_shard_dir("corrupt");
        write_shards(&g, &dir, u64::MAX).unwrap();
        let path = dir.join(shard_file_name(0));
        let bytes = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = ShardReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("bad shard magic"), "{err}");

        // Bad version.
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let err = ShardReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // Record with out_deg > nbr_len (internally inconsistent).
        let mut bad = bytes.clone();
        let rec = SHARD_HEADER_LEN;
        bad[rec..rec + 4].copy_from_slice(&1000u32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let mut reader = ShardReader::open(&path).unwrap();
        let err = reader.next_record().unwrap_err();
        assert!(err.to_string().contains("out_deg"), "{err}");

        // Record-count mismatch between shard header and manifest.
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&7u64.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let set = ShardSet::open(&dir).unwrap();
        let err = set.open_shard(0).unwrap_err();
        assert!(err.to_string().contains("manifest expects"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_rejected() {
        let g = generate::ring(10);
        let dir = temp_shard_dir("manifest");
        write_shards(&g, &dir, u64::MAX).unwrap();
        let mpath = dir.join(MANIFEST_NAME);
        let bytes = std::fs::read(&mpath).unwrap();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&mpath, &bad).unwrap();
        assert!(ShardSet::open(&dir).is_err());

        // Truncated shard table.
        std::fs::write(&mpath, &bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(
            ShardSet::open(&dir),
            Err(PioError::Truncated { .. })
        ));

        // Record counts that do not sum to n.
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&999u64.to_le_bytes());
        std::fs::write(&mpath, &bad).unwrap();
        let err = ShardSet::open(&dir).unwrap_err();
        assert!(err.to_string().contains("sum to"), "{err}");

        // Missing shard file.
        std::fs::write(&mpath, &bytes).unwrap();
        std::fs::remove_file(dir.join(shard_file_name(0))).unwrap();
        let set = ShardSet::open(&dir).unwrap();
        assert!(matches!(set.open_shard(0), Err(PioError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_rejects_wrong_graph_and_corruption() {
        let (g, p) = sample();
        let mut buf = Vec::new();
        write_binary_assignment(p.num_parts(), p.assignment(), &mut buf).unwrap();
        let other = generate::ring(10);
        assert!(read_binary(&other, buf.as_slice()).is_err());
        let mut corrupt = buf.clone();
        corrupt[0] = b'X';
        assert!(read_binary(&g, corrupt.as_slice()).is_err());
        let len = buf.len();
        let mut bad_part = buf.clone();
        bad_part[len - 4..].copy_from_slice(&999u32.to_le_bytes());
        assert!(read_binary(&g, bad_part.as_slice()).is_err());
    }
}
