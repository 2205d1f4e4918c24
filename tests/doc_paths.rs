//! The docs name real files: every backticked `*.rs` token in DESIGN.md
//! and README.md must name a file in the tree. A token with a `/` is
//! matched by path suffix (`cli/src/lib.rs` matches
//! `crates/cli/src/lib.rs`), a bare name by file name. A moved or deleted
//! file leaves its old path in the prose; this test names each one.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, as `/`-separated paths relative to it.
/// Build outputs and hidden directories hold no file a doc should name.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("read a tree directory") {
        let path = entry.expect("read a directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" {
                rust_files(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// The backticked tokens of `text` that end in `.rs`, outside fenced code
/// blocks, each with its line number. A token holding a space or a glob
/// (`tests/*.rs`) names no one file.
fn rs_tokens(text: &str) -> Vec<(usize, String)> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        }
        // Fenced lines stay as blank ones so that line numbers hold.
        prose.push_str(if fenced || line.trim_start().starts_with("```") {
            ""
        } else {
            line
        });
        prose.push('\n');
    }
    let mut tokens = Vec::new();
    let mut line = 1;
    for (i, piece) in prose.split('`').enumerate() {
        let is_token = i % 2 == 1
            && piece.ends_with(".rs")
            && !piece.contains(|c: char| c.is_whitespace() || c == '*' || c == '{');
        if is_token {
            tokens.push((line, piece.to_string()));
        }
        line += piece.matches('\n').count();
    }
    tokens
}

#[test]
fn every_rs_file_the_docs_name_exists() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rust_files(&root, &root, &mut files);
    // A path suffix at a `/`: for a bare name, the file name.
    let exists = |token: &str| {
        files
            .iter()
            .any(|f| f == token || f.ends_with(&format!("/{token}")))
    };
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("read a doc");
        for (line, token) in rs_tokens(&text) {
            if !exists(&token) {
                missing.push(format!("{doc}:{line}: `{token}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name files that are not in the tree:\n{}",
        missing.join("\n")
    );
}
