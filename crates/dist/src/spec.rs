//! The job spec: where the graph is, how the driver partitions it, and
//! what to run on it.
//!
//! Only the driver reads the first two. It opens the [`GraphSource`] (a
//! file only it has to reach, or a seeded generator only it has to run),
//! resolves [`JobSpec::scheme`], partitions once, and ships every worker a
//! `Placement` frame: the assignment, the per-part tallies, and the
//! adjacency of the vertices that worker owns. A worker reads `graph` and
//! `scheme` never — it holds its slice, owns what it is told to own, and
//! takes from the spec only the application and its machine count. So `k + 1`
//! processes do not have to agree on a generator's or a partitioner's every
//! tie-break for the run to be right, a non-deterministic partitioner is as
//! good as any, a worker's memory is its part's size and not the graph's,
//! and respawning a dead worker costs two re-sent frames.

use crate::error::ClusterError;
use crate::wire::{put_f64, put_str, put_u32, put_u64, Reader};
use bpart_cluster::Cluster;
use bpart_core::prelude::*;
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_engine::VertexProgram;
use bpart_graph::{generate, io, CsrGraph};
use bpart_multilevel::Multilevel;
use std::fs::File;
use std::sync::Arc;

/// Where the driver (or the threads backend) gets the graph from. Every
/// variant is deterministic, so both backends run on byte-identical CSR
/// structures.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSource {
    /// Load from a file (text edge list, or `.bpgr` binary by
    /// extension) the driver can reach.
    File(String),
    /// Generate a named preset (`lj_like`, `twitter_like`, ...) at a
    /// scale, optionally overriding the recipe seed.
    Preset {
        /// Preset name from `bpart_graph::generate::ALL_PRESETS`.
        name: String,
        /// Size multiplier passed to `generate_scaled`.
        scale: f64,
        /// Recipe seed override (`None` keeps the preset default).
        seed: Option<u64>,
    },
    /// Uniform `G(n, m)` — cheap, deterministic, test-friendly.
    ErdosRenyi {
        /// Vertices.
        n: u32,
        /// Edges.
        m: u32,
        /// Generator seed.
        seed: u64,
    },
}

/// Which application to run. The process backend supports a fixed, named
/// app set: closures cannot cross a process boundary, so the protocol
/// names programs and each process instantiates its own copy.
#[derive(Clone, Debug, PartialEq)]
pub enum AppSpec {
    /// PageRank for a fixed number of iterations.
    PageRank {
        /// Iteration count.
        iters: usize,
    },
    /// Connected components (runs to quiescence).
    ConnectedComponents,
    /// DeepWalk: uniform first-order walks, `per_vertex` walkers from
    /// every vertex.
    DeepWalk {
        /// Walk length cap.
        walk_len: u32,
        /// Engine-wide RNG seed.
        seed: u64,
        /// Walkers started per vertex.
        per_vertex: u32,
    },
    /// Simple uniform random walk (same shape as DeepWalk; kept distinct
    /// because the CLI exposes both names).
    SimpleWalk {
        /// Walk length cap.
        walk_len: u32,
        /// Engine-wide RNG seed.
        seed: u64,
        /// Walkers started per vertex.
        per_vertex: u32,
    },
}

impl AppSpec {
    /// True for the walk-engine apps.
    pub fn is_walk(&self) -> bool {
        matches!(self, AppSpec::DeepWalk { .. } | AppSpec::SimpleWalk { .. })
    }

    /// Whether the app's program signals along in-edges as well, so that a
    /// worker's slice must carry its vertices' in-lists. The programs
    /// themselves are asked.
    pub fn uses_in_edges(&self) -> bool {
        match self {
            AppSpec::PageRank { iters } => PageRank::new(*iters).use_in_edges(),
            AppSpec::ConnectedComponents => ConnectedComponents.use_in_edges(),
            AppSpec::DeepWalk { .. } | AppSpec::SimpleWalk { .. } => false,
        }
    }

    /// Display name (matches the CLI `--app` vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            AppSpec::PageRank { .. } => "pagerank",
            AppSpec::ConnectedComponents => "cc",
            AppSpec::DeepWalk { .. } => "deepwalk",
            AppSpec::SimpleWalk { .. } => "walk",
        }
    }
}

/// A complete distributed job description.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Graph source (see [`GraphSource`]).
    pub graph: GraphSource,
    /// Partitioning scheme name (the CLI `--scheme` vocabulary). Only
    /// the process that partitions looks at it.
    pub scheme: String,
    /// Number of parts = number of BSP machines = number of workers.
    pub parts: u32,
    /// The application to run.
    pub app: AppSpec,
    /// Checkpoint interval in supersteps (`None`: recovery replays from
    /// the initial state).
    pub checkpoint_every: Option<u32>,
}

impl JobSpec {
    /// Serializes the spec for the `Job` frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match &self.graph {
            GraphSource::File(path) => {
                out.push(0);
                put_str(&mut out, path);
            }
            GraphSource::Preset { name, scale, seed } => {
                out.push(1);
                put_str(&mut out, name);
                put_f64(&mut out, *scale);
                match seed {
                    Some(s) => {
                        out.push(1);
                        put_u64(&mut out, *s);
                    }
                    None => out.push(0),
                }
            }
            GraphSource::ErdosRenyi { n, m, seed } => {
                out.push(2);
                put_u32(&mut out, *n);
                put_u32(&mut out, *m);
                put_u64(&mut out, *seed);
            }
        }
        put_str(&mut out, &self.scheme);
        put_u32(&mut out, self.parts);
        match &self.app {
            AppSpec::PageRank { iters } => {
                out.push(0);
                put_u64(&mut out, *iters as u64);
            }
            AppSpec::ConnectedComponents => out.push(1),
            AppSpec::DeepWalk {
                walk_len,
                seed,
                per_vertex,
            } => {
                out.push(2);
                put_u32(&mut out, *walk_len);
                put_u64(&mut out, *seed);
                put_u32(&mut out, *per_vertex);
            }
            AppSpec::SimpleWalk {
                walk_len,
                seed,
                per_vertex,
            } => {
                out.push(3);
                put_u32(&mut out, *walk_len);
                put_u64(&mut out, *seed);
                put_u32(&mut out, *per_vertex);
            }
        }
        match self.checkpoint_every {
            Some(every) => {
                out.push(1);
                put_u32(&mut out, every);
            }
            None => out.push(0),
        }
        out
    }

    /// Deserializes a `Job` frame payload.
    pub fn decode(buf: &[u8]) -> Result<JobSpec, ClusterError> {
        let mut r = Reader::new(buf);
        let graph = match r.u8()? {
            0 => GraphSource::File(r.str()?),
            1 => {
                let name = r.str()?;
                let scale = r.f64()?;
                let seed = match r.u8()? {
                    0 => None,
                    _ => Some(r.u64()?),
                };
                GraphSource::Preset { name, scale, seed }
            }
            2 => GraphSource::ErdosRenyi {
                n: r.u32()?,
                m: r.u32()?,
                seed: r.u64()?,
            },
            t => return Err(ClusterError::corrupt(format!("unknown graph source {t}"))),
        };
        let scheme = r.str()?;
        let parts = r.u32()?;
        let app = match r.u8()? {
            0 => AppSpec::PageRank {
                iters: r.u64()? as usize,
            },
            1 => AppSpec::ConnectedComponents,
            2 => AppSpec::DeepWalk {
                walk_len: r.u32()?,
                seed: r.u64()?,
                per_vertex: r.u32()?,
            },
            3 => AppSpec::SimpleWalk {
                walk_len: r.u32()?,
                seed: r.u64()?,
                per_vertex: r.u32()?,
            },
            t => return Err(ClusterError::corrupt(format!("unknown app {t}"))),
        };
        let checkpoint_every = match r.u8()? {
            0 => None,
            _ => Some(r.u32()?),
        };
        if !r.is_empty() {
            return Err(ClusterError::corrupt("trailing bytes after job spec"));
        }
        Ok(JobSpec {
            graph,
            scheme,
            parts,
            app,
            checkpoint_every,
        })
    }

    /// Materializes the graph from its source. Workers never call this:
    /// theirs arrives in the `Placement` frame.
    pub fn load_graph(&self) -> Result<CsrGraph, ClusterError> {
        match &self.graph {
            GraphSource::File(path) => {
                if path.ends_with(".bpgr") {
                    io::load_binary(path)
                        .map_err(|e| ClusterError::unrecoverable(format!("{path}: {e}")))
                } else {
                    let file = File::open(path).map_err(|e| {
                        ClusterError::unrecoverable(format!("cannot open {path}: {e}"))
                    })?;
                    Ok(io::read_edge_list(file)
                        .map_err(|e| ClusterError::unrecoverable(format!("{path}: {e}")))?
                        .into_csr())
                }
            }
            GraphSource::Preset { name, scale, seed } => {
                let mut recipe = generate::ALL_PRESETS
                    .iter()
                    .map(|p| p())
                    .find(|p| p.name == *name)
                    .ok_or_else(|| {
                        ClusterError::unrecoverable(format!("unknown preset {name:?}"))
                    })?;
                if let Some(s) = seed {
                    recipe.seed = *s;
                }
                Ok(recipe.generate_scaled(*scale))
            }
            GraphSource::ErdosRenyi { n, m, seed } => {
                Ok(generate::erdos_renyi(*n as usize, *m as usize, *seed))
            }
        }
    }

    /// Resolves the partitioning scheme — the driver's call (and the
    /// threads backend's); workers are handed its result.
    pub fn scheme(&self) -> Result<Box<dyn Partitioner>, ClusterError> {
        Ok(match self.scheme.as_str() {
            "chunk-v" => Box::new(ChunkV),
            "chunk-e" => Box::new(ChunkE),
            "hash" => Box::new(HashPartitioner::default()),
            "fennel" => Box::new(Fennel::default()),
            "ldg" => Box::new(Ldg::default()),
            "bpart" => Box::new(BPart::default()),
            "bpart-p1" => Box::new(bpart_core::bpart::WeightedStream::new(
                BPartConfig::default(),
            )),
            "multilevel" => Box::new(Multilevel::default()),
            "gd" => Box::new(GdPartitioner::default()),
            other => {
                return Err(ClusterError::unrecoverable(format!(
                    "unknown scheme {other:?}"
                )))
            }
        })
    }

    /// Builds the full cluster (graph + partition) this spec describes:
    /// one graph load and one partitioner run.
    pub fn build_cluster(&self) -> Result<Cluster, ClusterError> {
        let graph = Arc::new(self.load_graph()?);
        let partition = Arc::new(self.scheme()?.partition(&graph, self.parts as usize));
        Ok(Cluster::new(graph, partition))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec {
                graph: GraphSource::File("g.bpgr".into()),
                scheme: "hash".into(),
                parts: 4,
                app: AppSpec::PageRank { iters: 10 },
                checkpoint_every: Some(2),
            },
            JobSpec {
                graph: GraphSource::Preset {
                    name: "twitter_like".into(),
                    scale: 0.01,
                    seed: Some(7),
                },
                scheme: "bpart-p1".into(),
                parts: 8,
                app: AppSpec::ConnectedComponents,
                checkpoint_every: None,
            },
            JobSpec {
                graph: GraphSource::ErdosRenyi {
                    n: 100,
                    m: 500,
                    seed: 3,
                },
                scheme: "chunk-v".into(),
                parts: 3,
                app: AppSpec::DeepWalk {
                    walk_len: 5,
                    seed: 11,
                    per_vertex: 2,
                },
                checkpoint_every: Some(1),
            },
        ]
    }

    #[test]
    fn specs_round_trip() {
        for spec in specs() {
            let bytes = spec.encode();
            assert_eq!(JobSpec::decode(&bytes).unwrap(), spec);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(JobSpec::decode(&[]).is_err());
        assert!(JobSpec::decode(&[9, 0, 0]).is_err());
        let mut bytes = specs()[0].encode();
        bytes.push(0xff); // trailing junk
        assert!(JobSpec::decode(&bytes).is_err());
    }

    #[test]
    fn build_cluster_is_deterministic() {
        let spec = JobSpec {
            graph: GraphSource::ErdosRenyi {
                n: 60,
                m: 240,
                seed: 5,
            },
            scheme: "fennel".into(),
            parts: 3,
            app: AppSpec::ConnectedComponents,
            checkpoint_every: None,
        };
        let a = spec.build_cluster().unwrap();
        let b = spec.build_cluster().unwrap();
        assert_eq!(a.partition().assignment(), b.partition().assignment());
    }
}
