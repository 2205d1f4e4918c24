//! Hand-rolled argument parsing (the workspace deliberately avoids heavy
//! CLI dependencies; see DESIGN.md §6).

use bpart_graph::generate;
use std::fmt;

/// The shared observability flags on `partition` and `run`: post-mortem
/// exports (`--trace-out`, `--metrics-out`), the live monitoring server
/// (`--serve-addr`), and run-history emission (`--history-out`). All
/// optional; see DESIGN.md §10–11.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsFlags {
    /// Write the span trace as JSONL here after the run.
    pub trace_out: Option<String>,
    /// Write the Prometheus metrics snapshot here after the run.
    pub metrics_out: Option<String>,
    /// Serve `/metrics`, `/spans`, `/healthz`, `/progress` on this
    /// address (e.g. `127.0.0.1:0`) while the job runs.
    pub serve_addr: Option<String>,
    /// Append a run-history record (JSON) at this path after the run.
    pub history_out: Option<String>,
    /// Write the continuous profiler's folded-stack text here after the
    /// run (the cluster-wide flame view on distributed drivers).
    pub profile_out: Option<String>,
}

/// A parsed `bpart` invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `bpart generate --preset P [--scale F] [--seed N] --out FILE`
    Generate {
        preset: String,
        scale: f64,
        seed: Option<u64>,
        out: String,
    },
    /// `bpart stats GRAPH`
    Stats { graph: String },
    /// `bpart partition GRAPH --parts K [--scheme S] [--out FILE]
    /// [--shard-dir DIR] [--mem-ceiling MB] [+ observability flags]` — a
    /// GRAPH that is a shard directory (it holds a manifest) is streamed
    /// out of core like `--shard-dir`.
    Partition {
        graph: String,
        parts: usize,
        scheme: String,
        out: Option<String>,
        shard_dir: Option<String>,
        mem_ceiling_mb: Option<u64>,
        obs: ObsFlags,
    },
    /// `bpart shard GRAPH --out-dir DIR [--shard-bytes N]` — split a graph
    /// into the self-describing shard directory the out-of-core pipeline
    /// streams from.
    Shard {
        graph: String,
        out_dir: String,
        shard_bytes: u64,
    },
    /// `bpart quality GRAPH PARTITION`
    Quality { graph: String, partition: String },
    /// `bpart run GRAPH --parts K [--scheme S] [--app A] [--iters N]
    /// [--walk-len L] [--seed N] [--backend threads|process] [--mode M]
    /// [--fault-plan SPEC] [--checkpoint-every N] [+ observability flags]`
    Run {
        graph: String,
        parts: u32,
        scheme: String,
        app: String,
        iters: Option<usize>,
        walk_len: Option<u32>,
        seed: Option<u64>,
        /// How the threads backend steps its machines; `--mode` is refused
        /// with `--backend process`, whose machines are processes.
        mode: String,
        backend: String,
        fault_plan: Option<String>,
        checkpoint_every: Option<u32>,
        obs: ObsFlags,
    },
    /// `bpart worker --connect ADDR --worker-id N --key K
    /// [--heartbeat-ms MS]` — internal: one supervised BSP worker
    /// process, spawned by the process backend (not listed in usage).
    Worker(bpart_dist::WorkerConfig),
    /// `bpart report TRACE... [--critical-path] [--profile]
    /// [--straggler-factor F]` — multiple traces (driver + per-worker
    /// exports) merge into one aligned view; `--profile` reads folded
    /// profile files instead of JSONL traces.
    Report {
        traces: Vec<String>,
        critical_path: bool,
        profile: bool,
        straggler_factor: f64,
    },
    /// `bpart obs diff BASELINE CANDIDATE [--watch M1,M2] [--threshold F]`
    ObsDiff {
        a: String,
        b: String,
        watch: Vec<String>,
        threshold: f64,
    },
    /// `bpart convert SRC DST`
    Convert { src: String, dst: String },
    /// `bpart schemes`
    Schemes,
    /// `bpart --help`
    Help,
}

/// Argument errors with a human-readable message. `usage` says whether the
/// flag listing helps: it does not after one out-of-range value, whose
/// message is the whole story.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub usage: bool,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError {
        message: msg.into(),
        usage: true,
    }
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let mut it = argv.iter().map(String::as_str);
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let rest: Vec<&str> = it.collect();
    match cmd {
        "--help" | "-h" | "help" => Ok(Command::Help),
        "schemes" => Ok(Command::Schemes),
        "generate" => {
            let (flags, positional) = split_flags(&rest)?;
            if !positional.is_empty() {
                return Err(err(format!(
                    "generate takes no positional args, got {positional:?}"
                )));
            }
            let preset = get_required(&flags, "preset")?;
            let scale = generate::parse_scale(get_optional(&flags, "scale").unwrap_or("1"))
                .map_err(|e| ParseError {
                    message: format!("--{e}"),
                    usage: false,
                })?;
            let seed = match get_optional(&flags, "seed") {
                Some(s) => Some(s.parse().map_err(|_| err(format!("bad --seed {s:?}")))?),
                None => None,
            };
            let out = get_required(&flags, "out")?;
            check_unknown(&flags, &["preset", "scale", "seed", "out"])?;
            Ok(Command::Generate {
                preset,
                scale,
                seed,
                out,
            })
        }
        "stats" => {
            let (flags, positional) = split_flags(&rest)?;
            check_unknown(&flags, &[])?;
            match positional.as_slice() {
                [graph] => Ok(Command::Stats {
                    graph: graph.to_string(),
                }),
                other => Err(err(format!(
                    "stats takes one GRAPH argument, got {other:?}"
                ))),
            }
        }
        "partition" => {
            let (flags, positional) = split_flags(&rest)?;
            let graph = match positional.as_slice() {
                [g] => Some(g.to_string()),
                [] => None,
                other => {
                    return Err(err(format!(
                        "partition takes one GRAPH argument, got {other:?}"
                    )))
                }
            };
            let parts = parse_count("parts", &get_required(&flags, "parts")?)? as usize;
            let scheme = get_optional(&flags, "scheme")
                .unwrap_or("bpart")
                .to_string();
            let out = get_optional(&flags, "out").map(str::to_string);
            let shard_dir = get_optional(&flags, "shard-dir").map(str::to_string);
            // With --shard-dir the shard directory *is* the input, so the
            // GRAPH positional may be omitted.
            let graph = match (graph, shard_dir.as_deref()) {
                (Some(g), _) => g,
                (None, Some(dir)) => dir.to_string(),
                (None, None) => {
                    return Err(err("partition needs a GRAPH argument (or --shard-dir)"))
                }
            };
            let mem_ceiling_mb = match get_optional(&flags, "mem-ceiling") {
                Some(s) => {
                    let mb: u64 = s
                        .parse()
                        .map_err(|_| err(format!("bad --mem-ceiling {s:?}")))?;
                    if mb == 0 {
                        return Err(err("--mem-ceiling must be at least 1 (MB)"));
                    }
                    Some(mb)
                }
                None => None,
            };
            let obs = parse_obs(&flags);
            check_unknown(
                &flags,
                &[
                    "parts",
                    "scheme",
                    "out",
                    "shard-dir",
                    "mem-ceiling",
                    "trace-out",
                    "metrics-out",
                    "serve-addr",
                    "history-out",
                    "profile-out",
                ],
            )?;
            Ok(Command::Partition {
                graph,
                parts,
                scheme,
                out,
                shard_dir,
                mem_ceiling_mb,
                obs,
            })
        }
        "shard" => {
            let (flags, positional) = split_flags(&rest)?;
            let graph = match positional.as_slice() {
                [g] => g.to_string(),
                other => {
                    return Err(err(format!(
                        "shard takes one GRAPH argument, got {other:?}"
                    )))
                }
            };
            let out_dir = get_required(&flags, "out-dir")?;
            let shard_bytes: u64 = match get_optional(&flags, "shard-bytes") {
                Some(s) => {
                    let b = s
                        .parse()
                        .map_err(|_| err(format!("bad --shard-bytes {s:?}")))?;
                    if b == 0 {
                        return Err(err("--shard-bytes must be at least 1"));
                    }
                    b
                }
                None => 64 * 1024 * 1024,
            };
            check_unknown(&flags, &["out-dir", "shard-bytes"])?;
            Ok(Command::Shard {
                graph,
                out_dir,
                shard_bytes,
            })
        }
        "run" => {
            let (flags, positional) = split_flags(&rest)?;
            let graph = match positional.as_slice() {
                [g] => g.to_string(),
                other => return Err(err(format!("run takes one GRAPH argument, got {other:?}"))),
            };
            let parts = parse_count("parts", &get_required(&flags, "parts")?)?;
            let scheme = get_optional(&flags, "scheme")
                .unwrap_or("bpart")
                .to_string();
            let app = get_optional(&flags, "app")
                .unwrap_or("pagerank")
                .to_string();
            // Defaulted, or refused when the app never reads them, by
            // `AppSpec::by_name`.
            let iters = get_optional(&flags, "iters")
                .map(|s| s.parse().map_err(|_| err(format!("bad --iters {s:?}"))))
                .transpose()?;
            let walk_len = get_optional(&flags, "walk-len")
                .map(|s| s.parse().map_err(|_| err(format!("bad --walk-len {s:?}"))))
                .transpose()?;
            let seed = get_optional(&flags, "seed")
                .map(|s| s.parse().map_err(|_| err(format!("bad --seed {s:?}"))))
                .transpose()?;
            let backend = get_optional(&flags, "backend")
                .unwrap_or("threads")
                .to_string();
            if backend != "threads" && backend != "process" {
                return Err(err(format!(
                    "--backend must be threads or process, got {backend:?}"
                )));
            }
            let mode = get_optional(&flags, "mode");
            if mode.is_some() && backend == "process" {
                return Err(err(
                    "--mode applies to the threads backend only: with --backend process \
                     every machine is a process of its own",
                ));
            }
            let mode = mode.unwrap_or("sequential").to_string();
            if mode != "sequential" && mode != "threaded" {
                return Err(err(format!(
                    "--mode must be sequential or threaded, got {mode:?}"
                )));
            }
            let fault_plan = get_optional(&flags, "fault-plan").map(str::to_string);
            let checkpoint_every = get_optional(&flags, "checkpoint-every")
                .map(|s| parse_count("checkpoint-every", s))
                .transpose()?;
            let obs = parse_obs(&flags);
            check_unknown(
                &flags,
                &[
                    "parts",
                    "scheme",
                    "app",
                    "iters",
                    "walk-len",
                    "seed",
                    "mode",
                    "backend",
                    "fault-plan",
                    "checkpoint-every",
                    "trace-out",
                    "metrics-out",
                    "serve-addr",
                    "history-out",
                    "profile-out",
                ],
            )?;
            Ok(Command::Run {
                graph,
                parts,
                scheme,
                app,
                iters,
                walk_len,
                seed,
                mode,
                backend,
                fault_plan,
                checkpoint_every,
                obs,
            })
        }
        "worker" => bpart_dist::WorkerConfig::from_args(rest.iter().map(|s| s.to_string()))
            .map(Command::Worker)
            .map_err(err),
        "report" => {
            // `--critical-path` / `--profile` are the CLI's boolean flags;
            // `split_flags` treats every `--x` as value-taking, so pull
            // the boolean tokens out before splitting.
            let mut critical_path = false;
            let mut profile = false;
            let rest: Vec<&str> = rest
                .into_iter()
                .filter(|&tok| {
                    if tok == "--critical-path" {
                        critical_path = true;
                        false
                    } else if tok == "--profile" {
                        profile = true;
                        false
                    } else {
                        true
                    }
                })
                .collect();
            let (flags, positional) = split_flags(&rest)?;
            let straggler_factor = match get_optional(&flags, "straggler-factor") {
                Some(s) => {
                    let f: f64 = s
                        .parse()
                        .map_err(|_| err(format!("bad --straggler-factor {s:?}")))?;
                    if f.is_nan() || f < 1.0 {
                        return Err(err("--straggler-factor must be at least 1"));
                    }
                    f
                }
                None => 2.0,
            };
            check_unknown(&flags, &["straggler-factor"])?;
            if positional.is_empty() {
                return Err(err(
                    "report takes one or more TRACE arguments (JSONL files from --trace-out, \
                     or folded profile files with --profile)",
                ));
            }
            if profile && critical_path {
                return Err(err("--profile and --critical-path are mutually exclusive"));
            }
            Ok(Command::Report {
                traces: positional.iter().map(|s| s.to_string()).collect(),
                critical_path,
                profile,
                straggler_factor,
            })
        }
        "obs" => {
            let Some((&"diff", tail)) = rest.split_first() else {
                return Err(err(format!(
                    "obs takes a `diff` subcommand (obs diff BASELINE CANDIDATE), got {rest:?}"
                )));
            };
            let (flags, positional) = split_flags(tail)?;
            let watch: Vec<String> = match get_optional(&flags, "watch") {
                Some(list) => {
                    let names: Vec<String> = list
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect();
                    if names.is_empty() {
                        return Err(err("--watch needs at least one metric name"));
                    }
                    names
                }
                None => vec!["wall_time_secs".to_string(), "cut_ratio".to_string()],
            };
            let threshold = match get_optional(&flags, "threshold") {
                Some(s) => {
                    let t: f64 = s
                        .parse()
                        .map_err(|_| err(format!("bad --threshold {s:?}")))?;
                    if t.is_nan() || t < 0.0 {
                        return Err(err("--threshold must be non-negative"));
                    }
                    t
                }
                None => 0.05,
            };
            check_unknown(&flags, &["watch", "threshold"])?;
            match positional.as_slice() {
                [a, b] => Ok(Command::ObsDiff {
                    a: a.to_string(),
                    b: b.to_string(),
                    watch,
                    threshold,
                }),
                other => Err(err(format!(
                    "obs diff takes BASELINE and CANDIDATE history files, got {other:?}"
                ))),
            }
        }
        "quality" => {
            let (flags, positional) = split_flags(&rest)?;
            check_unknown(&flags, &[])?;
            match positional.as_slice() {
                [g, p] => Ok(Command::Quality {
                    graph: g.to_string(),
                    partition: p.to_string(),
                }),
                other => Err(err(format!(
                    "quality takes GRAPH and PARTITION arguments, got {other:?}"
                ))),
            }
        }
        "convert" => {
            let (flags, positional) = split_flags(&rest)?;
            check_unknown(&flags, &[])?;
            match positional.as_slice() {
                [s, d] => Ok(Command::Convert {
                    src: s.to_string(),
                    dst: d.to_string(),
                }),
                other => Err(err(format!(
                    "convert takes SRC and DST arguments, got {other:?}"
                ))),
            }
        }
        other => Err(err(format!("unknown command {other:?} (try --help)"))),
    }
}

/// Parses `--name`'s value `s` as a part count or a superstep interval:
/// a job carries both as `u32`, so a value outside `1..=u32::MAX` is
/// refused by name rather than wrapped.
fn parse_count(name: &str, s: &str) -> Result<u32, ParseError> {
    match s.parse() {
        Ok(count) if count > 0 => Ok(count),
        _ => Err(ParseError {
            message: format!("--{name} must be in 1..={}, got {s:?}", u32::MAX),
            usage: false,
        }),
    }
}

/// Parses the shared observability flags (all optional; see DESIGN.md
/// §10–11).
fn parse_obs(flags: &[(&str, &str)]) -> ObsFlags {
    ObsFlags {
        trace_out: get_optional(flags, "trace-out").map(str::to_string),
        metrics_out: get_optional(flags, "metrics-out").map(str::to_string),
        serve_addr: get_optional(flags, "serve-addr").map(str::to_string),
        history_out: get_optional(flags, "history-out").map(str::to_string),
        profile_out: get_optional(flags, "profile-out").map(str::to_string),
    }
}

/// `--flag value` pairs collected by [`split_flags`].
type Flags<'a> = Vec<(&'a str, &'a str)>;

/// Splits `--flag value` pairs from positional arguments.
fn split_flags<'a>(rest: &[&'a str]) -> Result<(Flags<'a>, Vec<&'a str>), ParseError> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let tok = rest[i];
        if let Some(name) = tok.strip_prefix("--") {
            let value = rest
                .get(i + 1)
                .ok_or_else(|| err(format!("--{name} needs a value")))?;
            flags.push((name, *value));
            i += 2;
        } else {
            positional.push(tok);
            i += 1;
        }
    }
    Ok((flags, positional))
}

fn get_required(flags: &[(&str, &str)], name: &str) -> Result<String, ParseError> {
    get_optional(flags, name)
        .map(str::to_string)
        .ok_or_else(|| err(format!("missing required flag --{name}")))
}

fn get_optional<'a>(flags: &[(&'a str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

fn check_unknown(flags: &[(&str, &str)], known: &[&str]) -> Result<(), ParseError> {
    for (name, _) in flags {
        if !known.contains(name) {
            return Err(err(format!("unknown flag --{name}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, ParseError> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_generate() {
        let cmd = p(&[
            "generate", "--preset", "lj_like", "--scale", "0.1", "--out", "g.txt",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                preset: "lj_like".into(),
                scale: 0.1,
                seed: None,
                out: "g.txt".into()
            }
        );
    }

    #[test]
    fn generate_requires_out() {
        let e = p(&["generate", "--preset", "lj_like"]).unwrap_err();
        assert!(e.to_string().contains("--out"));
    }

    #[test]
    fn parses_partition_with_defaults() {
        let cmd = p(&["partition", "g.txt", "--parts", "8"]).unwrap();
        assert_eq!(
            cmd,
            Command::Partition {
                graph: "g.txt".into(),
                parts: 8,
                scheme: "bpart".into(),
                out: None,
                shard_dir: None,
                mem_ceiling_mb: None,
                obs: ObsFlags::default(),
            }
        );
    }

    #[test]
    fn parses_out_of_core_flags() {
        let cmd = p(&[
            "partition",
            "shards/",
            "--parts",
            "8",
            "--scheme",
            "fennel",
            "--mem-ceiling",
            "512",
        ])
        .unwrap();
        match cmd {
            Command::Partition {
                shard_dir,
                mem_ceiling_mb,
                ..
            } => {
                assert_eq!(shard_dir, None);
                assert_eq!(mem_ceiling_mb, Some(512));
            }
            other => panic!("expected Partition, got {other:?}"),
        }
        let cmd = p(&[
            "partition",
            "g.bpgr",
            "--parts",
            "4",
            "--shard-dir",
            "shards/",
        ])
        .unwrap();
        match cmd {
            Command::Partition { shard_dir, .. } => {
                assert_eq!(shard_dir.as_deref(), Some("shards/"));
            }
            other => panic!("expected Partition, got {other:?}"),
        }
        // Bad values are rejected, and so is the input-format flag, gone:
        // the input's kind is read off the input.
        assert!(p(&["partition", "g", "--parts", "4", "--mem-ceiling", "0"]).is_err());
        assert!(p(&["partition", "g", "--parts", "4", "--mem-ceiling", "many"]).is_err());
        assert!(p(&["partition", "g", "--parts", "4", "--input-format", "text"]).is_err());
    }

    #[test]
    fn parses_shard_command() {
        assert_eq!(
            p(&["shard", "g.bpgr", "--out-dir", "shards/"]).unwrap(),
            Command::Shard {
                graph: "g.bpgr".into(),
                out_dir: "shards/".into(),
                shard_bytes: 64 * 1024 * 1024,
            }
        );
        assert_eq!(
            p(&["shard", "g.txt", "--out-dir", "d", "--shard-bytes", "4096"]).unwrap(),
            Command::Shard {
                graph: "g.txt".into(),
                out_dir: "d".into(),
                shard_bytes: 4096,
            }
        );
        assert!(p(&["shard", "--out-dir", "d"]).is_err());
        assert!(p(&["shard", "g", "h", "--out-dir", "d"]).is_err());
        assert!(p(&["shard", "g"]).is_err());
        assert!(p(&["shard", "g", "--out-dir", "d", "--shard-bytes", "0"]).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = p(&[
            "partition",
            "g.txt",
            "--parts",
            "8",
            "--trace-out",
            "t.jsonl",
            "--metrics-out",
            "m.prom",
            "--serve-addr",
            "127.0.0.1:0",
            "--history-out",
            "results/history/run.json",
        ])
        .unwrap();
        match cmd {
            Command::Partition { obs, .. } => {
                assert_eq!(obs.trace_out.as_deref(), Some("t.jsonl"));
                assert_eq!(obs.metrics_out.as_deref(), Some("m.prom"));
                assert_eq!(obs.serve_addr.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(obs.history_out.as_deref(), Some("results/history/run.json"));
            }
            other => panic!("expected Partition, got {other:?}"),
        }
        let cmd = p(&["run", "g.txt", "--parts", "4", "--trace-out", "t.jsonl"]).unwrap();
        match cmd {
            Command::Run { obs, .. } => {
                assert_eq!(obs.trace_out.as_deref(), Some("t.jsonl"));
                assert_eq!(obs.metrics_out, None);
                assert_eq!(obs.serve_addr, None);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn parses_report() {
        assert_eq!(
            p(&["report", "trace.jsonl"]).unwrap(),
            Command::Report {
                traces: vec!["trace.jsonl".into()],
                critical_path: false,
                profile: false,
                straggler_factor: 2.0,
            }
        );
        assert_eq!(
            p(&[
                "report",
                "--critical-path",
                "trace.jsonl",
                "--straggler-factor",
                "1.5"
            ])
            .unwrap(),
            Command::Report {
                traces: vec!["trace.jsonl".into()],
                critical_path: true,
                profile: false,
                straggler_factor: 1.5,
            }
        );
        // Multiple traces (driver + worker exports) merge into one view.
        assert_eq!(
            p(&["report", "a.jsonl", "b.jsonl", "c.jsonl"]).unwrap(),
            Command::Report {
                traces: vec!["a.jsonl".into(), "b.jsonl".into(), "c.jsonl".into()],
                critical_path: false,
                profile: false,
                straggler_factor: 2.0,
            }
        );
        // --profile flips to folded-profile mode; clashes with
        // --critical-path (different input formats entirely).
        assert_eq!(
            p(&["report", "--profile", "a.folded", "b.folded"]).unwrap(),
            Command::Report {
                traces: vec!["a.folded".into(), "b.folded".into()],
                critical_path: false,
                profile: true,
                straggler_factor: 2.0,
            }
        );
        assert!(p(&["report", "--profile", "--critical-path", "a"]).is_err());
        assert!(p(&["report"]).is_err());
        assert!(p(&["report", "a", "--straggler-factor", "0.5"]).is_err());
        assert!(p(&["report", "a", "--straggler-factor", "nan"]).is_err());
    }

    #[test]
    fn parses_obs_diff() {
        assert_eq!(
            p(&["obs", "diff", "a.json", "b.json"]).unwrap(),
            Command::ObsDiff {
                a: "a.json".into(),
                b: "b.json".into(),
                watch: vec!["wall_time_secs".into(), "cut_ratio".into()],
                threshold: 0.05,
            }
        );
        assert_eq!(
            p(&[
                "obs",
                "diff",
                "a.json",
                "b.json",
                "--watch",
                "cut_ratio, waiting_ratio",
                "--threshold",
                "0.1",
            ])
            .unwrap(),
            Command::ObsDiff {
                a: "a.json".into(),
                b: "b.json".into(),
                watch: vec!["cut_ratio".into(), "waiting_ratio".into()],
                threshold: 0.1,
            }
        );
        assert!(p(&["obs"]).is_err());
        assert!(p(&["obs", "diff", "a.json"]).is_err());
        assert!(p(&["obs", "diff", "a", "b", "--watch", ","]).is_err());
        assert!(p(&["obs", "diff", "a", "b", "--threshold", "-1"]).is_err());
    }

    #[test]
    fn parses_profile_out() {
        match p(&[
            "run",
            "g.txt",
            "--parts",
            "2",
            "--profile-out",
            "results/prof.folded",
        ])
        .unwrap()
        {
            Command::Run { obs, .. } => {
                assert_eq!(obs.profile_out.as_deref(), Some("results/prof.folded"));
            }
            other => panic!("expected Run, got {other:?}"),
        }
        match p(&[
            "partition",
            "g.txt",
            "--parts",
            "2",
            "--profile-out",
            "p.folded",
        ])
        .unwrap()
        {
            Command::Partition { obs, .. } => {
                assert_eq!(obs.profile_out.as_deref(), Some("p.folded"));
            }
            other => panic!("expected Partition, got {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_parts_and_bad_scale() {
        assert!(p(&["partition", "g", "--parts", "0"]).is_err());
        assert!(p(&["generate", "--preset", "x", "--scale", "-1", "--out", "o"]).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_commands() {
        // The worker-pool flags are gone from `partition` too: it streams
        // sequentially.
        for flag in ["--bogus", "--threads"] {
            let e = p(&["partition", "g", "--parts", "4", flag, "1"]).unwrap_err();
            assert_eq!(e.to_string(), format!("unknown flag {flag}"));
        }
        assert!(p(&["explode"]).is_err());
    }

    #[test]
    fn flag_without_value_is_an_error() {
        let e = p(&["partition", "g", "--parts"]).unwrap_err();
        assert!(e.to_string().contains("needs a value"));
    }

    #[test]
    fn parses_run_with_defaults() {
        let cmd = p(&["run", "g.txt", "--parts", "4"]).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                graph: "g.txt".into(),
                parts: 4,
                scheme: "bpart".into(),
                app: "pagerank".into(),
                iters: None,
                walk_len: None,
                seed: None,
                mode: "sequential".into(),
                backend: "threads".into(),
                fault_plan: None,
                checkpoint_every: None,
                obs: ObsFlags::default(),
            }
        );
    }

    #[test]
    fn parses_run_with_fault_flags() {
        let cmd = p(&[
            "run",
            "g.txt",
            "--parts",
            "8",
            "--app",
            "deepwalk",
            "--fault-plan",
            "crash@3:m1",
            "--checkpoint-every",
            "2",
            "--mode",
            "threaded",
        ])
        .unwrap();
        match cmd {
            Command::Run {
                app,
                fault_plan,
                checkpoint_every,
                mode,
                ..
            } => {
                assert_eq!(app, "deepwalk");
                assert_eq!(fault_plan.as_deref(), Some("crash@3:m1"));
                assert_eq!(checkpoint_every, Some(2));
                assert_eq!(mode, "threaded");
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    /// A job counts parts and supersteps in `u32`: past `u32::MAX` is an
    /// error naming the flag and its range, not a value that wraps (to one
    /// part, to zero parts, to a checkpoint interval that never comes).
    #[test]
    fn counts_past_u32_max_are_refused_by_name() {
        for (parts, every) in [
            ("4294967297", "2"),
            ("4294967296", "2"),
            ("0", "2"),
            ("-1", "2"),
            ("2", "4294967296"),
            ("2", "0"),
        ] {
            let e = p(&["run", "g", "--parts", parts, "--checkpoint-every", every]).unwrap_err();
            let (flag, value) = if parts == "2" {
                ("--checkpoint-every", every)
            } else {
                ("--parts", parts)
            };
            assert_eq!(
                e.message,
                format!("{flag} must be in 1..=4294967295, got {value:?}")
            );
            assert!(!e.usage, "{flag} {value}");
        }
        let e = p(&["partition", "g", "--parts", "4294967296"]).unwrap_err();
        assert!(e.message.starts_with("--parts must be in 1..="), "{e}");
        let max = u32::MAX.to_string();
        match p(&["run", "g", "--parts", &max, "--checkpoint-every", &max]) {
            Ok(Command::Run {
                parts,
                checkpoint_every,
                ..
            }) => assert_eq!((parts, checkpoint_every), (u32::MAX, Some(u32::MAX))),
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn run_rejects_bad_values() {
        assert!(p(&["run", "g", "--parts", "4", "--checkpoint-every", "0"]).is_err());
        assert!(p(&["run", "g", "--parts", "4", "--mode", "turbo"]).is_err());
        assert!(p(&["run", "g", "--parts", "4", "--backend", "carrier-pigeon"]).is_err());
        assert!(p(&["run", "g", "--parts", "0"]).is_err());
        assert!(p(&["run"]).is_err());
    }

    /// `run` partitions sequentially and starts one worker per part: there
    /// is no worker pool to size and no worker count to get wrong.
    #[test]
    fn run_refuses_the_options_it_no_longer_has() {
        for flag in ["--threads", "--workers"] {
            let e = p(&["run", "g", "--parts", "4", flag, "4"]).unwrap_err();
            assert_eq!(e.to_string(), format!("unknown flag {flag}"));
        }
    }

    #[test]
    fn parses_run_with_process_backend() {
        let process = ["run", "g.txt", "--parts", "4", "--backend", "process"];
        match p(&process).unwrap() {
            Command::Run { backend, parts, .. } => {
                assert_eq!(backend, "process");
                assert_eq!(parts, 4);
            }
            other => panic!("expected Run, got {other:?}"),
        }
        // Its machines are processes: there is no stepping mode to choose,
        // and choosing one is an error, not a flag that is dropped.
        for mode in ["sequential", "threaded"] {
            let e = p(&[&process[..], &["--mode", mode]].concat()).unwrap_err();
            assert!(e.to_string().contains("threads backend only"), "{e}");
        }
    }

    #[test]
    fn parses_the_internal_worker_command() {
        let cmd = p(&[
            "worker",
            "--connect",
            "127.0.0.1:4000",
            "--worker-id",
            "2",
            "--key",
            "99",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Worker(bpart_dist::WorkerConfig {
                connect: "127.0.0.1:4000".into(),
                worker_id: 2,
                key: 99,
                heartbeat: std::time::Duration::from_millis(100),
            })
        );
        assert!(p(&["worker", "--connect", "x"]).is_err());
        let rest = ["--worker-id", "0", "--key", "1"];
        let with = |flag| p(&[&["worker", "--connect", "x"], &rest[..], &[flag, "0"]].concat());
        match with("--heartbeat-ms").unwrap() {
            Command::Worker(cfg) => assert_eq!(cfg.heartbeat.as_millis(), 1),
            other => panic!("expected Worker, got {other:?}"),
        }
        assert!(with("--bogus").is_err());
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(
            p(&["stats", "g.txt"]).unwrap(),
            Command::Stats {
                graph: "g.txt".into()
            }
        );
        assert_eq!(
            p(&["quality", "g", "p"]).unwrap(),
            Command::Quality {
                graph: "g".into(),
                partition: "p".into()
            }
        );
        assert_eq!(
            p(&["convert", "a", "b"]).unwrap(),
            Command::Convert {
                src: "a".into(),
                dst: "b".into()
            }
        );
        assert_eq!(p(&["schemes"]).unwrap(), Command::Schemes);
        assert_eq!(p(&[]).unwrap(), Command::Help);
        assert_eq!(p(&["--help"]).unwrap(), Command::Help);
    }
}
