//! End-to-end tests driving the compiled `bpart` binary.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn bpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bpart"))
}

fn tmp(name: &str) -> (PathBuf, String) {
    let mut p = std::env::temp_dir();
    p.push(format!("bpart_e2e_{}_{name}", std::process::id()));
    let s = p.to_str().unwrap().to_string();
    (p, s)
}

/// Generates `lj_like` ×0.01 at `tmp(name)`: the graph the `run` rows use.
fn small_graph(name: &str) -> (PathBuf, String) {
    let (gp, g) = tmp(name);
    let out = bpart()
        .args([
            "generate", "--preset", "lj_like", "--scale", "0.01", "--out", &g,
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    (gp, g)
}

#[test]
fn full_pipeline_through_the_binary() {
    let (gp, g) = tmp("pipe.txt");
    let (pp, p) = tmp("pipe.parts");

    let out = bpart()
        .args([
            "generate",
            "--preset",
            "twitter_like",
            "--scale",
            "0.01",
            "--out",
            &g,
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("1000 vertices"));

    let out = bpart()
        .args([
            "partition",
            &g,
            "--parts",
            "4",
            "--scheme",
            "bpart",
            "--out",
            &p,
        ])
        .output()
        .expect("run partition");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("vertex bias"), "{text}");

    let out = bpart()
        .args(["quality", &g, &p])
        .output()
        .expect("run quality");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("(4 parts)"));

    std::fs::remove_file(gp).ok();
    std::fs::remove_file(pp).ok();
}

#[test]
fn help_lists_all_commands_and_exits_zero() {
    let out = bpart().arg("--help").output().expect("run help");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "generate",
        "stats",
        "partition",
        "quality",
        "convert",
        "schemes",
    ] {
        assert!(text.contains(cmd), "usage missing {cmd}");
    }
}

#[test]
fn errors_exit_nonzero_with_usage_on_stderr() {
    let out = bpart().arg("frobnicate").output().expect("run bad command");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");
    assert!(err.contains("USAGE"), "{err}");

    let out = bpart()
        .args(["stats", "/no/such/file"])
        .output()
        .expect("run missing file");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("/no/such/file"));
}

/// A trace step timed on no machines and a profile whose counts overflow
/// `u64` are bad input, not bugs: one `bpart: …` line and exit 1, never a
/// panic (exit 101) or, in a release build, a silently wrapped total.
#[test]
fn hostile_report_inputs_exit_with_one_error_line() {
    let (tp, trace) = tmp("hostile.jsonl");
    let step = r#"{"id":1,"parent":null,"name":"cluster.superstep","thread":0,"start_ns":0,"dur_ns":1,"attrs":{"compute":""}}"#;
    std::fs::write(&tp, format!("{step}\n")).unwrap();
    let (np, negative) = tmp("hostile_negative.jsonl");
    let step = r#"{"id":1,"parent":null,"name":"cluster.superstep","thread":0,"start_ns":0,"dur_ns":1,"attrs":{"compute":"-5,1","comm":"-2,1"}}"#;
    std::fs::write(&np, format!("{step}\n")).unwrap();
    let (fp, folded) = tmp("hostile.folded");
    std::fs::write(&fp, format!("a {}\nb 1\n", u64::MAX)).unwrap();
    let (one, fp1) = tmp("hostile_one.folded");
    std::fs::write(&one, "a 1\n").unwrap();
    for (args, names) in [
        (vec!["report", &trace, "--critical-path"], "no machines"),
        (
            vec!["report", &negative, "--critical-path"],
            "span 1 (cluster.superstep): compute: negative timing \"-5\"",
        ),
        (vec!["report", "--profile", &folded], "stack \"b\""),
        (vec!["report", "--profile", &fp1, &folded], "stack \"a\""),
    ] {
        let out = bpart().args(&args).output().expect("run report");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(
            err.starts_with("bpart: ") && err.contains(names),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked at"), "{args:?}: {err}");
    }
    for path in [tp, np, fp, one] {
        std::fs::remove_file(path).ok();
    }
}

/// A scale that is not a finite number > 0, or that would overflow a
/// vertex id, is one `bpart: …` line and exit 1 — not a panic in the
/// generator, and not a generator left running on an impossible size.
#[test]
fn bad_scales_exit_with_one_error_line() {
    let (_, out) = tmp("bad_scale.txt");
    for scale in ["nan", "inf", "1e300", "0"] {
        let start = Instant::now();
        let run = bpart()
            .args(["generate", "--preset", "lj_like", "--scale", scale])
            .args(["--out", &out])
            .output()
            .expect("run generate");
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{scale}: {err}");
        assert_eq!(err.lines().count(), 1, "{scale}: {err}");
        assert!(err.contains(&format!("{scale:?}")), "{scale}: {err}");
        assert!(!err.contains("panicked at"), "{scale}: {err}");
        assert!(start.elapsed() < Duration::from_secs(1), "{scale}: slow");
    }
}

/// A text graph naming vertex `u32::MAX` is one `bpart: …` line naming the
/// line and exit 1 from every command that loads a graph: not a 2^32-vertex
/// degree array that aborts the process.
#[test]
fn a_text_graph_naming_vertex_u32_max_exits_with_one_error_line() {
    let (gp, g) = tmp("u32max.txt");
    std::fs::write(&gp, "0 1\n1 4294967295\n").unwrap();
    let (_, out) = tmp("u32max.bpgr");
    let runs: [&[&str]; 4] = [
        &["partition", &g, "--scheme", "hash", "--parts", "2"],
        &["run", &g, "--parts", "2"],
        &["convert", &g, &out],
        &["stats", &g],
    ];
    for args in runs {
        let run = bpart().args(args).output().expect("run bpart");
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(
            err.starts_with("bpart: ") && err.contains("line 2"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("memory allocation"), "{args:?}: {err}");
        assert!(!err.contains("panicked at"), "{args:?}: {err}");
    }
    std::fs::remove_file(gp).ok();
}

/// A fault plan that names a machine the run does not have is one `bpart:
/// …` line and exit 1 on both backends, for every clause kind: not an
/// index panic in the process driver, not a phantom crash in the
/// simulation.
#[test]
fn fault_plans_naming_a_missing_machine_exit_with_one_error_line() {
    let (gp, g) = small_graph("fault_plan.txt");
    for backend in ["threads", "process"] {
        for plan in ["crash@1:m99", "straggle@0-2:m3:x2", "drop@0-2:m0->m3:0.5"] {
            let run = bpart()
                .args(["run", &g, "--parts", "3", "--backend", backend])
                .args(["--fault-plan", plan])
                .output()
                .expect("run");
            let err = String::from_utf8_lossy(&run.stderr);
            let what = format!("{backend} {plan}: {err}");
            assert_eq!(run.status.code(), Some(1), "{what}");
            assert_eq!(err.lines().count(), 1, "{what}");
            assert!(
                err.starts_with("bpart: fault plan names machine m"),
                "{what}"
            );
            assert!(!err.contains("panicked at"), "{what}");
        }
    }
    std::fs::remove_file(gp).ok();
}

/// A walk of length 0 runs on both backends: its paths are its starts,
/// not a kernel panic (threads) or a path log blamed on the wire (process).
#[test]
fn a_walk_of_length_zero_runs_on_both_backends() {
    let (gp, g) = small_graph("walk_len_0.bpgr");
    for backend in ["threads", "process"] {
        let run = bpart()
            .args(["run", &g, "--parts", "3", "--app", "deepwalk"])
            .args(["--walk-len", "0", "--backend", backend])
            .output()
            .expect("run");
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "{backend}: {err}");
        assert!(String::from_utf8_lossy(&run.stdout).contains("digest:"));
    }
    std::fs::remove_file(gp).ok();
}

/// A part count or checkpoint interval past `u32::MAX` is one `bpart: …`
/// line naming the flag, on both backends: not a job on the wrapped value.
#[test]
fn counts_past_u32_max_exit_with_one_error_line() {
    let (gp, g) = small_graph("u32_counts.bpgr");
    for backend in ["threads", "process"] {
        let runs: [&[&str]; 3] = [
            &["--parts", "4294967297"],
            &["--parts", "4294967296"],
            &[
                "--parts",
                "3",
                "--fault-plan",
                "crash@3:m1",
                "--checkpoint-every",
                "4294967296",
            ],
        ];
        for flags in runs {
            let run = bpart()
                .args(["run", &g, "--backend", backend])
                .args(flags)
                .output()
                .expect("run");
            let err = String::from_utf8_lossy(&run.stderr);
            let what = format!("{backend} {flags:?}: {err}");
            assert_eq!(run.status.code(), Some(1), "{what}");
            assert_eq!(err.lines().count(), 1, "{what}");
            let flag = flags[flags.len() - 2];
            assert!(
                err.starts_with(&format!("bpart: {flag} must be in 1..=4294967295")),
                "{what}"
            );
            assert!(!err.contains("panicked at"), "{what}");
        }
    }
    std::fs::remove_file(gp).ok();
}

/// Runs `bpart` with `args` and asserts the hostile-input contract: exit 1,
/// one `bpart: …` line on stderr holding `names`, no panic and no aborted
/// allocation.
fn refused_in_one_line(args: &[&str], names: &str) {
    let run = bpart().args(args).output().expect("run bpart");
    let err = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{args:?}: {err}");
    assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    assert!(
        err.starts_with("bpart: ") && err.contains(names),
        "{args:?}: {err}"
    );
    assert!(!err.contains("memory allocation"), "{args:?}: {err}");
    assert!(!err.contains("panicked at"), "{args:?}: {err}");
}

/// A flag the chosen app never reads is refused by name on either backend
/// — `--iters` with `cc` (which runs to convergence) or `deepwalk`, a walk
/// flag with `pagerank` or `cc` — instead of a run that ignores it.
#[test]
fn a_flag_the_app_never_reads_exits_with_one_error_line() {
    let (gp, g) = small_graph("unread_flag.bpgr");
    let refused = [
        (
            "cc",
            "--iters",
            "--iters does not apply to --app cc, which reads no app flag",
        ),
        ("cc", "--walk-len", "--walk-len does not apply to --app cc"),
        ("cc", "--seed", "--seed does not apply to --app cc"),
        (
            "pagerank",
            "--walk-len",
            "--walk-len does not apply to --app pagerank, which reads --iters",
        ),
        (
            "pagerank",
            "--seed",
            "--seed does not apply to --app pagerank",
        ),
        (
            "deepwalk",
            "--iters",
            "--iters does not apply to --app deepwalk, which reads --walk-len and --seed",
        ),
    ];
    for backend in ["threads", "process"] {
        for (app, flag, names) in refused {
            let run = [
                "run",
                &g,
                "--parts",
                "2",
                "--app",
                app,
                "--backend",
                backend,
            ];
            refused_in_one_line(&[&run[..], &[flag, "3"]].concat(), names);
        }
    }
    std::fs::remove_file(gp).ok();
}

/// A walk whose path table cannot be allocated is refused before either
/// backend starts, naming `--walk-len`, the walk count and the bytes: not
/// an aborted allocation (and, on the process backend, workers left to
/// report a reset connection).
#[test]
fn a_walk_too_long_to_record_exits_with_one_error_line() {
    let (gp, g) = small_graph("long_walk.bpgr");
    for backend in ["threads", "process"] {
        let run = [
            "run",
            &g,
            "--parts",
            "2",
            "--app",
            "deepwalk",
            "--backend",
            backend,
        ];
        refused_in_one_line(
            &[&run[..], &["--walk-len", "4294967295"]].concat(),
            "--walk-len 4294967295: the paths of 750 walks take 12884901888000 bytes",
        );
    }
    std::fs::remove_file(gp).ok();
}

/// More parts than vertices is one `bpart: …` line naming `--parts`
/// wherever the vertex count is first known — `partition` on a graph or a
/// shard directory, `run` on either backend (before a worker is spawned) —
/// not a sentinel-overflow panic, nor a run that opens empty parts by the
/// million.
#[test]
fn more_parts_than_vertices_exit_with_one_error_line() {
    let (gp, g) = tmp("two_vertices.txt");
    std::fs::write(&gp, "0 1\n1 0\n").unwrap();
    let (sp, shards) = tmp("two_vertices_shards");
    let out = bpart()
        .args(["shard", &g, "--out-dir", &shards])
        .output()
        .expect("run shard");
    assert!(out.status.success());
    let runs: [&[&str]; 6] = [
        &["partition", &g, "--parts", "3"],
        &["partition", &g, "--parts", "4294967295"],
        &["partition", &shards, "--parts", "3", "--scheme", "fennel"],
        &["run", &g, "--parts", "3"],
        &["run", &g, "--parts", "4294967295"],
        &["run", &g, "--parts", "3", "--backend", "process"],
    ];
    for args in runs {
        let parts = args[args.iter().position(|&a| a == "--parts").unwrap() + 1];
        let names = format!("--parts {parts} is more than the graph's 2 vertices");
        refused_in_one_line(args, &names);
    }
    let out = bpart()
        .args(["partition", &g, "--parts", "2"])
        .output()
        .expect("run partition");
    assert!(out.status.success());
    std::fs::remove_file(gp).ok();
    std::fs::remove_dir_all(sp).ok();
}

/// A partition file naming more parts than the graph has vertices is one
/// `bpart: …` line from `quality`, in either format: not per-part tallies
/// for four billion parts.
#[test]
fn partition_files_with_huge_part_counts_exit_with_one_error_line() {
    let (gp, g) = small_graph("huge_k.bpgr");
    let (tp, text) = tmp("huge_k.txt");
    std::fs::write(&tp, "4294967295\n".repeat(750)).unwrap();
    let (bp, binary) = tmp("huge_k.bppt");
    let out = bpart()
        .args(["partition", &g, "--parts", "4", "--out", &binary])
        .output()
        .expect("run partition");
    assert!(out.status.success());
    let mut bytes = std::fs::read(&bp).unwrap();
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&bp, bytes).unwrap();
    for (file, k) in [(&text, 4294967296u64), (&binary, 4294967295)] {
        let names = format!("partition has {k} parts, more than the graph's 750 vertices");
        refused_in_one_line(&["quality", &g, file], &names);
    }
    for p in [gp, tp, bp] {
        std::fs::remove_file(p).ok();
    }
}

/// A straggle clause slows modelled compute, which only the threads backend
/// has: the process backend refuses it by name instead of ignoring it.
#[test]
fn a_straggle_clause_on_the_process_backend_exits_with_one_error_line() {
    let (gp, g) = small_graph("straggle_process.bpgr");
    let run = [
        "run", &g, "--parts", "2", "--app", "pagerank", "--iters", "3",
    ];
    let plan = ["--fault-plan", "straggle@0-5:m0:x10"];
    refused_in_one_line(
        &[&run[..], &["--backend", "process"], &plan].concat(),
        "fault plan clause straggle@0-5:m0:x10 runs on the threads backend only",
    );
    let threads = bpart().args(run).args(plan).output().expect("run");
    assert!(threads.status.success(), "{threads:?}");
    std::fs::remove_file(gp).ok();
}

/// GD bisects recursively, so it takes only a power-of-two part count: any
/// other is one `bpart: …` line naming the scheme and `--parts`, from
/// `partition` and from `run` on either backend, not a partitioner panic.
#[test]
fn gd_with_a_part_count_not_a_power_of_two_exits_with_one_error_line() {
    let (gp, g) = small_graph("gd_three_parts.bpgr");
    let names = "--scheme gd bisects recursively: --parts 3 is not a power of two";
    let gd = ["--parts", "3", "--scheme", "gd"];
    refused_in_one_line(&[&["partition", &g][..], &gd].concat(), names);
    for backend in ["threads", "process"] {
        let run = [
            "run",
            &g,
            "--app",
            "pagerank",
            "--iters",
            "2",
            "--backend",
            backend,
        ];
        refused_in_one_line(&[&run[..], &gd].concat(), names);
    }
    std::fs::remove_file(gp).ok();
}

/// A link clause from a machine to itself can inject nothing (no machine
/// sends itself a message), so both backends refuse it by name instead of
/// running a plan that never fires.
#[test]
fn a_self_link_clause_exits_with_one_error_line() {
    let (gp, g) = small_graph("self_link.bpgr");
    for backend in ["threads", "process"] {
        let run = [
            "run",
            &g,
            "--parts",
            "2",
            "--scheme",
            "chunk-v",
            "--backend",
            backend,
        ];
        let plan = [
            "--app",
            "pagerank",
            "--iters",
            "4",
            "--fault-plan",
            "drop@0-3:m1->m1:1.0",
        ];
        refused_in_one_line(
            &[&run[..], &plan].concat(),
            "fault plan clause drop@0-3:m1->m1:1 never fires",
        );
    }
    std::fs::remove_file(gp).ok();
}

/// A fault plan has one seed: a second `seed=` clause is refused by name
/// rather than silently overriding the first.
#[test]
fn a_second_seed_clause_exits_with_one_error_line() {
    let (gp, g) = small_graph("two_seeds.bpgr");
    refused_in_one_line(
        &["run", &g, "--parts", "2", "--fault-plan", "seed=1;seed=2"],
        "bad fault clause \"seed=2\"",
    );
    std::fs::remove_file(gp).ok();
}

/// `obs diff` flags a watched metric that rises from a baseline of 0 or
/// below, in both directions of a diff that a CI gate runs.
#[test]
fn obs_diff_flags_a_watched_metric_rising_from_zero_or_below() {
    let (ap, a) = tmp("diff_base.json");
    let (bp, b) = tmp("diff_cand.json");
    for (base, cand, shown) in [("0", "5", "-"), ("-1e308", "1e308", "+inf%")] {
        let record = |v: &str| format!(r#"{{"label":"run","metrics":{{"worker_deaths":{v}}}}}"#);
        std::fs::write(&ap, record(base)).unwrap();
        std::fs::write(&bp, record(cand)).unwrap();
        let diff = |x: &str, y: &str| {
            bpart()
                .args(["obs", "diff", x, y, "--watch", "worker_deaths"])
                .output()
                .expect("run obs diff")
        };
        let rise = diff(&a, &b);
        let err = String::from_utf8_lossy(&rise.stderr);
        assert_eq!(rise.status.code(), Some(1), "{base} -> {cand}: {err}");
        let row = err
            .lines()
            .find(|l| l.starts_with("worker_deaths"))
            .unwrap();
        assert!(row.contains(shown) && row.ends_with("REGRESSED"), "{row}");
        let fall = diff(&b, &a);
        assert!(fall.status.success(), "{cand} -> {base}: {fall:?}");
    }
    std::fs::remove_file(ap).ok();
    std::fs::remove_file(bp).ok();
}

/// A run of zero supersteps recovered in no time: `0.00`, not `-0.00`.
#[test]
fn an_empty_run_reports_positive_zero_recovery_time() {
    let (gp, g) = small_graph("iters_0.bpgr");
    for backend in ["threads", "process"] {
        let run = bpart()
            .args([
                "run", &g, "--parts", "2", "--app", "pagerank", "--iters", "0",
            ])
            .args(["--backend", backend])
            .output()
            .expect("run");
        assert!(run.status.success(), "{backend}");
        let out = String::from_utf8_lossy(&run.stdout);
        assert!(!out.contains("-0.0"), "{backend}: {out}");
        if backend == "threads" {
            assert!(out.contains("recovery time:   0.00 units\n"), "{out}");
        }
    }
    std::fs::remove_file(gp).ok();
}

#[test]
fn schemes_listing_matches_library_roster() {
    let out = bpart().arg("schemes").output().expect("run schemes");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let names: Vec<_> = bpart_dist::SCHEMES.iter().map(|s| s.name).collect();
    assert_eq!(text.lines().collect::<Vec<_>>(), names);
}
