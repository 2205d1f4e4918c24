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
//!
//! This file is also the one place a name becomes a thing: [`SCHEMES`] maps
//! a `--scheme` name to its partitioner (and to its out-of-core scorer, if
//! it has one), [`AppSpec::by_name`] an `--app` name to an application, and
//! [`GraphSource::load`] a path or a preset name to a graph. Front ends
//! list and resolve names through these, so a new scheme or app is one edit.

use crate::error::ClusterError;
use crate::wire::{self, Reader, Sink, Wire};
use bpart_cluster::Cluster;
use bpart_core::prelude::*;
use bpart_core::OocScheme;
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_engine::VertexProgram;
use bpart_graph::{generate, io, CsrGraph};
use bpart_multilevel::Multilevel;
use bpart_walker::{PathTable, WalkStarts};
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// One row of the scheme vocabulary.
pub struct Scheme {
    /// The `--scheme` name.
    pub name: &'static str,
    /// Builds the partitioner.
    pub build: fn() -> Box<dyn Partitioner>,
    /// The shard loop's scorer, for the schemes that can run out of core.
    pub out_of_core: Option<OocScheme>,
}

/// Every partitioning scheme there is, by name.
pub const SCHEMES: [Scheme; 9] = [
    Scheme::row("chunk-v", || Box::new(ChunkV), None),
    Scheme::row("chunk-e", || Box::new(ChunkE), None),
    Scheme::row("hash", || Box::new(HashPartitioner::default()), None),
    Scheme::row("fennel", || Box::new(Fennel), Some(OocScheme::Fennel)),
    Scheme::row("ldg", || Box::new(Ldg), None),
    Scheme::row("bpart", || Box::new(BPart::default()), None),
    Scheme::row(
        "bpart-p1",
        || Box::new(bpart_core::bpart::WeightedStream::default()),
        Some(OocScheme::BPartP1 {
            c: bpart_core::bpart::PAPER_C,
        }),
    ),
    Scheme::row("multilevel", || Box::new(Multilevel), None),
    Scheme::row("gd", || Box::new(GdPartitioner), None),
];

/// Refuses a part count `scheme` cannot partition the graph into: more
/// parts than the graph has vertices (an empty graph still takes one), past
/// which every part only adds empty tallies and BPart's first layer alone
/// streams `2·parts` pieces; or, for GD's recursive bisection, a count that
/// is not a power of two.
pub fn check_parts(scheme: &str, parts: usize, num_vertices: usize) -> Result<(), ClusterError> {
    if parts > num_vertices.max(1) {
        return Err(ClusterError::unrecoverable(format!(
            "--parts {parts} is more than the graph's {num_vertices} vertices"
        )));
    }
    if scheme == "gd" && !parts.is_power_of_two() {
        return Err(ClusterError::unrecoverable(format!(
            "--scheme gd bisects recursively: --parts {parts} is not a power of two"
        )));
    }
    Ok(())
}

/// Comma-separated names of the schemes `keep` accepts.
fn scheme_names(keep: impl Fn(&Scheme) -> bool) -> String {
    let names: Vec<_> = SCHEMES.iter().filter(|s| keep(s)).map(|s| s.name).collect();
    names.join(", ")
}

impl Scheme {
    const fn row(
        name: &'static str,
        build: fn() -> Box<dyn Partitioner>,
        out_of_core: Option<OocScheme>,
    ) -> Scheme {
        Scheme {
            name,
            build,
            out_of_core,
        }
    }

    /// The row called `name`.
    pub fn by_name(name: &str) -> Result<&'static Scheme, ClusterError> {
        SCHEMES.iter().find(|s| s.name == name).ok_or_else(|| {
            ClusterError::unrecoverable(format!(
                "unknown scheme {name:?}; available: {}",
                scheme_names(|_| true)
            ))
        })
    }

    /// The scorer the shard loop runs this scheme with.
    pub fn out_of_core(&self) -> Result<OocScheme, ClusterError> {
        self.out_of_core.ok_or_else(|| {
            ClusterError::unrecoverable(format!(
                "scheme {:?} has no out-of-core path; shards support: {}",
                self.name,
                scheme_names(|s| s.out_of_core.is_some())
            ))
        })
    }
}

/// Whether `path` names a binary CSR graph; anything else is a text edge
/// list.
pub fn is_binary_graph(path: &str) -> bool {
    Path::new(path).extension().is_some_and(|e| e == "bpgr")
}

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

impl GraphSource {
    /// Materializes the graph. Workers never call this: theirs arrives in
    /// the `Placement` frame.
    pub fn load(&self) -> Result<CsrGraph, ClusterError> {
        let named = |path: &str, e: &dyn std::fmt::Display| {
            ClusterError::unrecoverable(format!("{path}: {e}"))
        };
        match self {
            GraphSource::File(path) if is_binary_graph(path) => {
                io::load_binary(path).map_err(|e| named(path, &e))
            }
            GraphSource::File(path) => {
                let file = File::open(path)
                    .map_err(|e| ClusterError::unrecoverable(format!("cannot open {path}: {e}")))?;
                let edges = io::read_edge_list(file).map_err(|e| named(path, &e))?;
                Ok(edges.into_csr())
            }
            GraphSource::Preset { name, scale, seed } => {
                let mut recipe =
                    generate::preset_by_name(name).map_err(ClusterError::unrecoverable)?;
                if let Some(s) = seed {
                    recipe.seed = *s;
                }
                Ok(recipe.generate_scaled(*scale))
            }
            GraphSource::ErdosRenyi { n, m, seed } => {
                let capacity = *n as u64 * (*n as u64).saturating_sub(1);
                if *m as u64 > capacity {
                    return Err(ClusterError::unrecoverable(format!(
                        "erdos-renyi graph: {m} edges do not fit on {n} vertices \
                         (at most {capacity} without loops or duplicates)"
                    )));
                }
                Ok(generate::erdos_renyi(*n as usize, *m as usize, *seed))
            }
        }
    }
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
}

/// Every application there is, by its `--app` name.
pub const APP_NAMES: [&str; 3] = ["pagerank", "cc", "deepwalk"];

impl AppSpec {
    /// The application called `name`, with the parameters it reads of the
    /// ones a front end offers: `iters` (default 10) for PageRank,
    /// `walk_len` (default 10) and `seed` (default 42) for the walks (one
    /// walker per vertex), none for CC. A parameter given to an app that
    /// never reads it is refused by its flag name, not ignored.
    pub fn by_name(
        name: &str,
        iters: Option<usize>,
        walk_len: Option<u32>,
        seed: Option<u64>,
    ) -> Result<AppSpec, ClusterError> {
        let (app, reads): (AppSpec, &[&str]) = match name {
            "pagerank" => (
                AppSpec::PageRank {
                    iters: iters.unwrap_or(10),
                },
                &["iters"],
            ),
            "cc" => (AppSpec::ConnectedComponents, &[]),
            "deepwalk" => (
                AppSpec::DeepWalk {
                    walk_len: walk_len.unwrap_or(10),
                    seed: seed.unwrap_or(42),
                    per_vertex: 1,
                },
                &["walk-len", "seed"],
            ),
            other => {
                return Err(ClusterError::unrecoverable(format!(
                    "unknown app {other:?}; available: {}",
                    APP_NAMES.join(", ")
                )))
            }
        };
        let given = [
            ("iters", iters.is_some()),
            ("walk-len", walk_len.is_some()),
            ("seed", seed.is_some()),
        ];
        let Some((flag, _)) = given
            .into_iter()
            .find(|(flag, given)| *given && !reads.contains(flag))
        else {
            return Ok(app);
        };
        let read = match reads {
            [] => "no app flag".to_string(),
            _ => format!("--{}", reads.join(" and --")),
        };
        Err(ClusterError::unrecoverable(format!(
            "--{flag} does not apply to --app {name}, which reads {read}"
        )))
    }

    /// True for the walk-engine apps.
    pub fn is_walk(&self) -> bool {
        matches!(self, AppSpec::DeepWalk { .. })
    }

    /// Whether the app's program signals along in-edges as well, so that a
    /// worker's slice must carry its vertices' in-lists. The programs
    /// themselves are asked.
    pub fn uses_in_edges(&self) -> bool {
        match self {
            AppSpec::PageRank { iters } => PageRank::new(*iters).use_in_edges(),
            AppSpec::ConnectedComponents => ConnectedComponents.use_in_edges(),
            AppSpec::DeepWalk { .. } => false,
        }
    }

    /// Display name (matches the CLI `--app` vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            AppSpec::PageRank { .. } => "pagerank",
            AppSpec::ConnectedComponents => "cc",
            AppSpec::DeepWalk { .. } => "deepwalk",
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
    /// The fields, in wire order; the `Wire` impl puts their length first.
    fn put_fields(&self, out: &mut (impl Sink + ?Sized)) {
        self.graph.put(out);
        self.scheme.put(out);
        self.parts.put(out);
        self.app.put(out);
        self.checkpoint_every.put(out);
    }

    /// Resolves the partitioning scheme — the driver's call (and the
    /// threads backend's); workers are handed its result.
    pub fn scheme(&self) -> Result<Box<dyn Partitioner>, ClusterError> {
        Ok((Scheme::by_name(&self.scheme)?.build)())
    }

    /// Loads the graph and checks that the job fits it: a part count the
    /// scheme can partition it into (see [`check_parts`]) and, for a walk, a
    /// path table that can be allocated. The process driver calls it before
    /// it spawns a worker.
    pub fn load_graph(&self) -> Result<CsrGraph, ClusterError> {
        let graph = self.graph.load()?;
        let n = graph.num_vertices();
        check_parts(&self.scheme, self.parts as usize, n)?;
        if let AppSpec::DeepWalk {
            walk_len,
            per_vertex,
            ..
        } = self.app
        {
            let walks = WalkStarts::PerVertex(per_vertex).count(n);
            PathTable::check_size(walks, walk_len).map_err(|bytes| {
                ClusterError::unrecoverable(format!(
                    "--walk-len {walk_len}: the paths of {walks} walks take {bytes} bytes, \
                     more than can be allocated"
                ))
            })?;
        }
        Ok(graph)
    }

    /// Partitions `graph` by the spec's scheme on both directions, then keeps
    /// those the app reads (gauge `proc.graph_bytes`: their bytes).
    pub fn cluster_on(&self, mut graph: CsrGraph) -> Result<Cluster, ClusterError> {
        let partition = self.scheme()?.partition(&graph, self.parts as usize);
        if !self.app.uses_in_edges() {
            graph.shed_in_lists();
        }
        bpart_obs::metrics::gauge("proc.graph_bytes").set(graph.adjacency_bytes() as f64);
        Ok(Cluster::new(Arc::new(graph), Arc::new(partition)))
    }

    /// Builds the full cluster (graph + partition) this spec describes:
    /// one graph load and one partitioner run.
    pub fn build_cluster(&self) -> Result<Cluster, ClusterError> {
        // The name is checked before the graph is read for it.
        self.scheme()?;
        self.cluster_on(self.load_graph()?)
    }
}

/// A tag byte, then the source's fields.
impl Wire<'_> for GraphSource {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        match self {
            GraphSource::File(path) => {
                0u8.put(out);
                path.put(out);
            }
            GraphSource::Preset { name, scale, seed } => {
                1u8.put(out);
                name.put(out);
                (*scale, *seed).put(out);
            }
            GraphSource::ErdosRenyi { n, m, seed } => (2u8, (*n, *m, *seed)).put(out),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        Ok(match r.read::<u8>()? {
            0 => GraphSource::File(r.read()?),
            1 => GraphSource::Preset {
                name: r.read()?,
                scale: r.read()?,
                seed: r.read()?,
            },
            2 => GraphSource::ErdosRenyi {
                n: r.read()?,
                m: r.read()?,
                seed: r.read()?,
            },
            t => return Err(ClusterError::corrupt(format!("unknown graph source {t}"))),
        })
    }
}

/// A tag byte, then the app's parameters.
impl Wire<'_> for AppSpec {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        match *self {
            AppSpec::PageRank { iters } => (0u8, iters as u64).put(out),
            AppSpec::ConnectedComponents => 1u8.put(out),
            AppSpec::DeepWalk {
                walk_len,
                seed,
                per_vertex,
            } => (2u8, (walk_len, seed, per_vertex)).put(out),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        Ok(match r.read::<u8>()? {
            0 => AppSpec::PageRank {
                iters: r.read::<u64>()? as usize,
            },
            1 => AppSpec::ConnectedComponents,
            2 => AppSpec::DeepWalk {
                walk_len: r.read()?,
                seed: r.read()?,
                per_vertex: r.read()?,
            },
            t => return Err(ClusterError::corrupt(format!("unknown app {t}"))),
        })
    }
}

/// A byte string of its own: its length, then its fields.
impl Wire<'_> for JobSpec {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        (wire::len(|n| self.put_fields(n)) as u32).put(out);
        self.put_fields(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        let mut r = Reader::new(r.read()?);
        let spec = JobSpec {
            graph: r.read()?,
            scheme: r.read()?,
            parts: r.read()?,
            app: r.read()?,
            checkpoint_every: r.read()?,
        };
        r.end("job spec")?;
        Ok(spec)
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

    fn encoded(spec: &JobSpec) -> Vec<u8> {
        let mut bytes = Vec::new();
        spec.put(&mut bytes);
        bytes
    }

    #[test]
    fn specs_round_trip() {
        for spec in specs() {
            let bytes = encoded(&spec);
            assert_eq!(Reader::new(&bytes).read::<JobSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let decode = |bytes: &[u8]| Reader::new(bytes).read::<JobSpec>();
        assert!(decode(&[]).is_err());
        assert!(decode(&[3, 0, 0, 0, 9, 0, 0]).is_err());
        // Trailing junk inside the spec's own length.
        let mut bytes = encoded(&specs()[0]);
        bytes.push(0xff);
        bytes[0] += 1;
        let err = decode(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("trailing bytes in job spec"),
            "{err}"
        );
        // No app has tag 3.
        let spec = &specs()[2];
        let mut bytes = encoded(spec);
        let at = bytes.len() - wire::len(|n| (spec.app.clone(), spec.checkpoint_every).put(n));
        assert_eq!(bytes[at], 2, "DeepWalk's tag");
        bytes[at] = 3;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().ends_with("unknown app 3"), "{err}");
    }

    /// Every name in the two tables makes its thing, and a name in neither
    /// is answered with the table, whoever is asked.
    #[test]
    fn every_name_constructs_and_an_unknown_one_lists_the_table() {
        let mut spec = specs().remove(2);
        for scheme in &SCHEMES {
            spec.scheme = scheme.name.into();
            spec.scheme().unwrap();
            assert_eq!(scheme.out_of_core().is_ok(), scheme.out_of_core.is_some());
        }
        for name in APP_NAMES {
            assert_eq!(
                AppSpec::by_name(name, None, None, None).unwrap().name(),
                name
            );
        }
        assert_eq!(
            AppSpec::by_name("pagerank", Some(3), None, None).unwrap(),
            AppSpec::PageRank { iters: 3 }
        );
        assert_eq!(
            AppSpec::by_name("cc", Some(3), None, None)
                .unwrap_err()
                .to_string(),
            "unrecoverable: --iters does not apply to --app cc, which reads no app flag"
        );

        spec.scheme = "nope".into();
        let unknown = "unrecoverable: unknown scheme \"nope\"; available: chunk-v, chunk-e, \
                       hash, fennel, ldg, bpart, bpart-p1, multilevel, gd";
        assert_eq!(spec.scheme().err().unwrap().to_string(), unknown);
        // Neither backend gets as far as loading a graph or spawning a
        // worker for it.
        use crate::{run_job, Backend, ProcessConfig, ThreadsConfig};
        let threads = Backend::Threads(ThreadsConfig::default());
        let process = Backend::Process(ProcessConfig::new(3, vec!["/no/such/worker".into()]));
        for backend in [threads, process] {
            assert_eq!(run_job(&spec, &backend).unwrap_err().to_string(), unknown);
        }
        assert_eq!(
            AppSpec::by_name("nope", None, None, None)
                .unwrap_err()
                .to_string(),
            "unrecoverable: unknown app \"nope\"; available: pagerank, cc, deepwalk"
        );
        assert_eq!(
            Scheme::by_name("gd").unwrap().out_of_core().unwrap_err().to_string(),
            "unrecoverable: scheme \"gd\" has no out-of-core path; shards support: fennel, bpart-p1"
        );
    }

    /// An impossible `G(n, m)` is an error naming both, before anything is
    /// generated, whoever runs the job; the full capacity still loads.
    #[test]
    fn an_impossible_erdos_renyi_graph_is_an_error() {
        use crate::{run_job, Backend, ThreadsConfig};
        let graph = |n, m| GraphSource::ErdosRenyi { n, m, seed: 1 };
        let want = "unrecoverable: erdos-renyi graph: 7 edges do not fit on 3 vertices \
                    (at most 6 without loops or duplicates)";
        assert_eq!(graph(3, 7).load().unwrap_err().to_string(), want);
        let mut spec = specs().remove(2);
        spec.graph = graph(3, 7);
        let threads = Backend::Threads(ThreadsConfig::default());
        assert_eq!(run_job(&spec, &threads).unwrap_err().to_string(), want);
        for (n, m) in [(0, 1), (1, 1)] {
            assert!(graph(n, m).load().is_err(), "{n} {m}");
        }
        assert_eq!(graph(3, 6).load().unwrap().num_edges(), 6);
        assert_eq!(graph(0, 0).load().unwrap().num_vertices(), 0);
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
