//! # bpart-cli — the `bpart` command-line tool
//!
//! A downstream-user front end over the library crates:
//!
//! ```text
//! bpart generate --preset twitter_like --scale 0.1 --out graph.txt
//! bpart stats graph.txt
//! bpart partition graph.txt --parts 8 --scheme bpart --out graph.parts
//! bpart quality graph.txt graph.parts
//! bpart convert graph.txt graph.bpgr
//! ```
//!
//! Graph files ending in `.bpgr` use the binary CSR format; anything else
//! is treated as a SNAP-style text edge list. Partition files ending in
//! `.bppt` are binary; anything else is the METIS-style one-id-per-line
//! text format.
//!
//! The command logic lives in this library (returning output as a
//! `String`) so it is unit-testable; `main.rs` is a thin shim.

pub mod args;
pub mod commands;

pub use args::{parse, Command, ObsFlags, ParseError};
pub use commands::{run, CliError};

/// How a [`dispatch`] call failed — `main.rs` prints the usage text after
/// parse errors but not after runtime failures (a regression reported by
/// `bpart obs diff` should not be buried under the flag listing).
#[derive(Debug)]
pub enum DispatchError {
    /// The arguments did not parse; usage is worth showing.
    Parse(String),
    /// The command ran and failed, or one argument's value is out of
    /// range; the message is the whole story.
    Run(String),
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Parse(m) | DispatchError::Run(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for DispatchError {}

/// Entry point shared by `main.rs` and the tests: parse then run.
pub fn dispatch(argv: &[String]) -> Result<String, DispatchError> {
    let command = parse(argv).map_err(|e| match e.usage {
        true => DispatchError::Parse(e.message),
        false => DispatchError::Run(e.message),
    })?;
    run(&command).map_err(|e| DispatchError::Run(e.to_string()))
}

/// The usage text printed on `--help` or argument errors.
pub const USAGE: &str = "\
bpart — two-dimensional balanced graph partitioning (BPart, ICPP '22)

USAGE:
  bpart generate  --preset <lj_like|twitter_like|friendster_like> \
[--scale F] [--seed N] --out FILE
  bpart stats     GRAPH
  bpart partition GRAPH --parts K [--scheme NAME] [--out FILE] \
[--shard-dir DIR] [--mem-ceiling MB] [+ OBSERVABILITY flags]
  bpart shard     GRAPH --out-dir DIR [--shard-bytes N]
  bpart quality   GRAPH PARTITION
  bpart run       GRAPH --parts K [--scheme NAME] [--app APP] [--iters N] \
[--walk-len L] [--seed N] [--backend threads|process] \
[--mode sequential|threaded] [--fault-plan SPEC] [--checkpoint-every N] \
[+ OBSERVABILITY flags]
  bpart report    TRACE... [--critical-path] [--profile] [--straggler-factor F]
  bpart obs diff  BASELINE CANDIDATE [--watch M1,M2] [--threshold F]
  bpart convert   SRC DST
  bpart schemes

SCHEMES:
  chunk-v | chunk-e | hash | fennel | ldg | bpart (default) | bpart-p1 |
  multilevel | gd

APPS (run):
  pagerank (default) | cc | deepwalk
  pagerank reads --iters (default 10), deepwalk --walk-len (default 10)
  and --seed (default 42), cc none: a flag the app does not read is refused

FAULT PLANS (run --fault-plan):
  semicolon-separated crash clauses, e.g. \"crash@3:m1;crash@5:m0\":
  crash@S:mM            machine M crashes at superstep S
  Crashed supersteps roll back to the last checkpoint (--checkpoint-every)
  and replay; results are identical to a fault-free run.

BACKENDS (run --backend; one job description, one report, either way):
  --backend threads  (default) simulate the machines in this process;
                     --mode sequential (default) steps them in turn,
                     --mode threaded gives each its own thread. Times in
                     the report are cost-model units
  --backend process  run each BSP machine as a real supervised worker
                     process (one per part, spawned from this binary) over
                     TCP; the thread-simulated oracle runs alongside and
                     the command fails unless results are bit-identical.
                     Times in the report are seconds the workers measured
                     (every run: each superstep's reply carries them);
                     --mode does not apply and is refused
  Fault-plan crash clauses become real SIGKILLs of worker processes:
  death is detected by heartbeat loss, state restores from the last
  driver-held checkpoint (--checkpoint-every), and the run replays to
  the same result. See DESIGN.md §13.

OUT-OF-CORE (partition graphs bigger than RAM; see DESIGN.md §14):
  bpart shard GRAPH --out-dir DIR   split GRAPH into a self-describing
                     shard directory (.bpgr inputs convert zero-copy via
                     mmap); --shard-bytes caps each shard (default 64 MiB);
                     the partition pass reads a shard through a 64 KiB window
  --shard-dir DIR    stream from this shard directory (the GRAPH
                     positional may then be omitted); a GRAPH that is a
                     shard directory, found by its manifest, streams too
  --mem-ceiling MB   hard-cap the process address space via RLIMIT_AS —
                     an out-of-core run that regresses to O(graph) memory
                     fails instead of quietly succeeding
  Out-of-core runs support the streaming schemes (fennel, bpart-p1) and
  produce bit-identical assignments to their in-memory counterparts. The
  pass is one sequential loop over the shards, each read through a 64 KiB
  window (memory O(n) plus the window and the largest record).

OBSERVABILITY (partition/run; see DESIGN.md §10–11):
  --trace-out FILE    dump hierarchical phase spans as JSON lines (on a
                      process-backend run the workers' too); render the
                      flame-style tree with `bpart report FILE`
  --metrics-out FILE  dump the counter/gauge registry as a Prometheus-
                      style text snapshot
  --serve-addr ADDR   serve /metrics /spans /healthz /progress over HTTP
                      while the job runs (e.g. 127.0.0.1:9090; port 0 picks
                      a free port, announced on stderr)
  --history-out FILE  append-style run-history record (JSON) with config,
                      git rev ($BPART_GIT_REV, else $GITHUB_SHA), and
                      headline metrics for `bpart obs diff`
  --profile-out FILE  flamegraph of the spans' self times in ns (folded-
                      stack text); on a process-backend run the driver's
                      and every worker's stacks in one cluster view
  A --serve-addr server also exposes /profile (live folded stacks); on a
  process-backend run /healthz reports dead workers, deaths so far and
  recovery, and turns degraded once any of them is non-zero.

REPORT (post-mortem on --trace-out files; one file holds a whole run, a
process-backend driver's spans and its workers' on one clock; several
TRACEs merge into one view):
  --critical-path       per-superstep gating machine + per-machine blame
                        table (paper Fig. 13) instead of the span tree
  --profile             merge folded-stack PROFILE files (--profile-out)
                        into one flame view instead of reading traces
  --straggler-factor F  flag supersteps whose gating compute exceeds the
                        superstep median by F (default 2)

OBS DIFF (run-to-run regression check; exits non-zero on regression):
  --watch M1,M2   watched metrics (default wall_time_secs,cut_ratio);
                  a watched metric regresses when the candidate exceeds
                  the baseline by more than the threshold
  --threshold F   allowed relative increase (default 0.05 = 5%)

FILES:
  *.bpgr  binary CSR graph        (anything else: text edge list)
  *.bppt  binary partition        (anything else: text, one part per line)
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_reports_parse_errors() {
        let err = dispatch(&["frobnicate".into()]).unwrap_err();
        assert!(matches!(err, DispatchError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("unknown command"), "{err}");
    }

    #[test]
    fn dispatch_marks_runtime_failures_as_run_errors() {
        let err = dispatch(&["stats".into(), "/no/such/graph".into()]).unwrap_err();
        assert!(matches!(err, DispatchError::Run(_)), "{err:?}");
    }

    #[test]
    fn usage_names_every_scheme_app_and_preset() {
        let presets = bpart_graph::generate::ALL_PRESETS.iter().map(|p| p().name);
        let schemes = bpart_dist::SCHEMES.iter().map(|s| s.name);
        for name in schemes.chain(bpart_dist::APP_NAMES).chain(presets) {
            assert!(USAGE.contains(name), "usage does not mention {name}");
        }
    }

    #[test]
    fn dispatch_runs_schemes_listing() {
        let out = dispatch(&["schemes".into()]).unwrap();
        assert!(out.contains("bpart"));
        assert!(out.contains("chunk-v"));
    }
}
