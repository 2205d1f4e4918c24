//! End-to-end tests driving the compiled `bpart` binary.

use std::path::PathBuf;
use std::process::Command;

fn bpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bpart"))
}

fn tmp(name: &str) -> (PathBuf, String) {
    let mut p = std::env::temp_dir();
    p.push(format!("bpart_e2e_{}_{name}", std::process::id()));
    let s = p.to_str().unwrap().to_string();
    (p, s)
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
    let (fp, folded) = tmp("hostile.folded");
    std::fs::write(&fp, format!("a {}\nb 1\n", u64::MAX)).unwrap();
    let (one, fp1) = tmp("hostile_one.folded");
    std::fs::write(&one, "a 1\n").unwrap();
    for (args, names) in [
        (vec!["report", &trace, "--critical-path"], "no machines"),
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
    std::fs::remove_file(tp).ok();
    std::fs::remove_file(fp).ok();
    std::fs::remove_file(one).ok();
}

#[test]
fn schemes_listing_matches_library_roster() {
    let out = bpart().arg("schemes").output().expect("run schemes");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let names: Vec<_> = bpart_dist::SCHEMES.iter().map(|s| s.name).collect();
    assert_eq!(text.lines().collect::<Vec<_>>(), names);
}
