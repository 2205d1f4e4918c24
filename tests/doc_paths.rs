//! The docs name real things, and say where they stand:
//! - every backticked `*.rs` token in DESIGN.md and README.md names a file
//!   in the tree (a token with a `/` is matched by path suffix, so
//!   `cli/src/lib.rs` matches `crates/cli/src/lib.rs`; a bare name by file
//!   name);
//! - every backticked `crates/…` path in the docs exists, file or
//!   directory;
//! - every backticked `module::Item` in DESIGN.md and README.md is declared
//!   in a `.rs` file under `crates/` whose path, crate name or inline
//!   `mod` holds the segment before it (a `Type::item`: a file that
//!   declares or implements `Type`);
//! - every quoted section an `EXPERIMENTS.md` citation names, or one of
//!   the archive of per-change run logs, is a heading of that file, and
//!   every `DESIGN.md` section number a section of DESIGN.md;
//! - EXPERIMENTS.md, DESIGN.md and README.md stay within their line caps.
//!
//! A moved, renamed or deleted thing leaves its old name in the prose;
//! these tests name each one.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// The docs whose backticked paths must exist.
const PATH_DOCS: [&str; 4] = [
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// The docs whose `module::Item` tokens must resolve.
const ITEM_DOCS: [&str; 2] = ["DESIGN.md", "README.md"];

/// Citing files outside `crates/` and `tests/`.
const CITING_DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// Where the per-change run logs moved; cited like EXPERIMENTS.md.
const ARCHIVE: &str = "results/history/experiments-pr01-42.md";

/// Line caps: the docs describe the code, not its history.
const LINE_CAPS: [(&str, usize); 3] = [
    ("EXPERIMENTS.md", 1500),
    ("DESIGN.md", 1300),
    ("README.md", 555),
];

/// First path segments that name the standard library, not the tree.
const STD_ROOTS: [&str; 7] = ["std", "mem", "Vec", "Read", "u32", "u64", "size_of"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Every file under `dir` whose name ends in `suffix`, as `/`-separated
/// paths relative to `root`. Build outputs and hidden directories hold no
/// file a doc should name.
fn files(root: &Path, dir: &Path, suffix: &str, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("read a tree directory") {
        let path = entry.expect("read a directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" {
                files(root, &path, suffix, out);
            }
        } else if name.ends_with(suffix) {
            let rel = path.strip_prefix(root).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// The backticked tokens of `text` outside fenced code blocks, each with
/// its line number.
fn backticked(text: &str) -> Vec<(usize, String)> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        let fence = line.trim_start().starts_with("```");
        if fence {
            fenced = !fenced;
        }
        // Fenced lines stay as blank ones so that line numbers hold.
        prose.push_str(if fenced || fence { "" } else { line });
        prose.push('\n');
    }
    let mut tokens = Vec::new();
    let mut line = 1;
    for (i, piece) in prose.split('`').enumerate() {
        if i % 2 == 1 {
            tokens.push((line, piece.to_string()));
        }
        line += piece.matches('\n').count();
    }
    tokens
}

/// A token holding a space or a glob names no one thing.
fn is_path_like(token: &str) -> bool {
    !token.contains(|c: char| c.is_whitespace() || c == '*' || c == '{')
}

#[test]
fn every_rs_file_the_docs_name_exists() {
    let root = root();
    let mut rs = Vec::new();
    files(&root, &root, ".rs", &mut rs);
    // A path suffix at a `/`: for a bare name, the file name.
    let exists = |token: &str| {
        rs.iter()
            .any(|f| f == token || f.ends_with(&format!("/{token}")))
    };
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        for (line, token) in backticked(&read(doc)) {
            if token.ends_with(".rs") && is_path_like(&token) && !exists(&token) {
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

#[test]
fn every_crates_path_the_docs_name_exists() {
    let root = root();
    let mut missing = Vec::new();
    for doc in PATH_DOCS {
        for (line, token) in backticked(&read(doc)) {
            if token.starts_with("crates/") && is_path_like(&token) && !root.join(&token).exists() {
                missing.push(format!("{doc}:{line}: `{token}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name paths that are not in the tree:\n{}",
        missing.join("\n")
    );
}

/// What one `.rs` file under `crates/` declares.
struct Declarations {
    /// Its path from the root, and its crate's name with `_` for `-`.
    path: String,
    krate: String,
    /// Items by keyword, enum variants and `mod`s.
    items: HashSet<String>,
    /// The capitalised names on its `impl` lines.
    impls: HashSet<String>,
}

fn identifier(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

fn declarations(path: String, krate: String, text: &str) -> Declarations {
    const KEYWORDS: [&str; 9] = [
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "const ",
        "static ",
        "mod ",
        "macro_rules! ",
    ];
    let mut items = HashSet::new();
    let mut impls = HashSet::new();
    // Brace depth inside the `enum` being read, if any.
    let mut in_enum: Option<i32> = None;
    for raw in text.lines() {
        let line = raw.split("//").next().unwrap_or("");
        let words = line.trim_start();
        if let Some(depth) = in_enum {
            let variant = identifier(words);
            if depth == 1 && variant.starts_with(|c: char| c.is_ascii_uppercase()) {
                items.insert(variant.to_string());
            }
        }
        for keyword in KEYWORDS {
            for (at, _) in line.match_indices(keyword) {
                let before = line[..at].chars().last();
                if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                let name = identifier(&line[at + keyword.len()..]);
                if !name.is_empty() {
                    items.insert(name.to_string());
                }
                if keyword == "enum " && line.contains('{') && in_enum.is_none() {
                    in_enum = Some(0);
                }
            }
        }
        if words.starts_with("impl") {
            for word in words.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                if word.starts_with(|c: char| c.is_ascii_uppercase()) {
                    impls.insert(word.to_string());
                }
            }
        }
        if let Some(depth) = in_enum.as_mut() {
            *depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
            if *depth <= 0 {
                in_enum = None;
            }
        }
    }
    Declarations {
        path,
        krate,
        items,
        impls,
    }
}

/// The `a::b::c` paths a backticked token names: the token up to its
/// first character that is no path character, with one `{x, y}` group
/// expanded. Empty when it names no path.
fn item_paths(token: &str) -> Vec<Vec<String>> {
    let end = token
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(token.len());
    let (head, rest) = token.split_at(end);
    let leaves: Vec<&str> = if head.ends_with("::") && rest.starts_with('{') {
        let group = &rest[1..rest.find('}').unwrap_or(rest.len())];
        group.split(',').map(str::trim).collect()
    } else {
        vec![""]
    };
    leaves
        .into_iter()
        .map(|leaf| format!("{head}{leaf}"))
        .map(|path| path.split("::").map(String::from).collect::<Vec<_>>())
        .filter(|segments| {
            segments.len() >= 2
                && segments.iter().all(|s| !s.is_empty() && s == identifier(s))
                && !STD_ROOTS.contains(&segments[0].as_str())
        })
        .collect()
}

#[test]
fn every_module_item_the_docs_name_is_declared() {
    let root = root();
    let mut rs = Vec::new();
    files(&root, &root.join("crates"), ".rs", &mut rs);
    let index: Vec<Declarations> = rs
        .into_iter()
        .map(|path| {
            let dir = path.split('/').nth(1).expect("crates/<crate>/…");
            let manifest = read(&format!("crates/{dir}/Cargo.toml"));
            let krate = manifest
                .lines()
                .find_map(|l| l.strip_prefix("name = \""))
                .and_then(|l| l.strip_suffix('"'))
                .expect("a crate name")
                .replace('-', "_");
            let text = read(&path);
            declarations(path, krate, &text)
        })
        .collect();
    let resolves = |segments: &[String]| {
        let (item, owner) = (&segments[segments.len() - 1], &segments[segments.len() - 2]);
        index.iter().filter(|d| d.items.contains(item)).any(|d| {
            if owner.starts_with(|c: char| c.is_ascii_uppercase()) {
                d.items.contains(owner) || d.impls.contains(owner)
            } else {
                d.path.contains(owner.as_str())
                    || d.krate.contains(owner.as_str())
                    || d.items.contains(owner)
            }
        })
    };
    let mut unresolved = Vec::new();
    let mut checked = 0;
    for doc in ITEM_DOCS {
        for (line, token) in backticked(&read(doc)) {
            for segments in item_paths(&token) {
                checked += 1;
                if !resolves(&segments) {
                    unresolved.push(format!("{doc}:{line}: `{}`", segments.join("::")));
                }
            }
        }
    }
    assert!(
        checked > 0,
        "no module::Item token found: the scan is broken"
    );
    assert!(
        unresolved.is_empty(),
        "docs name items no file under crates/ declares where they say:\n{}",
        unresolved.join("\n")
    );
}

/// `text` as one line of prose: comment markers at line starts dropped,
/// whitespace runs one space, so a citation may wrap.
fn flatten(text: &str) -> String {
    let mut flat = String::new();
    for line in text.lines() {
        let line = line.trim_start();
        let line = ["//!", "///", "//", "#"]
            .iter()
            .find_map(|m| line.strip_prefix(m))
            .unwrap_or(line);
        flat.push_str(line);
        flat.push(' ');
    }
    flat.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The headings of a markdown file, `#`s dropped, whitespace collapsed.
fn headings(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| {
            l.trim_start_matches('#')
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// A cited section names a heading that is it, or that it starts at a
/// word boundary ("Fig. 13" names "Fig. 13 — waiting-time ratio", not
/// "Fig. 1").
fn names_a_heading(section: &str, headings: &[String]) -> bool {
    headings.iter().any(|h| {
        h.strip_prefix(section)
            .is_some_and(|rest| !rest.starts_with(|c: char| c.is_alphanumeric()))
    })
}

/// The quoted sections cited right after each `anchor` in `flat`:
/// `anchor "S"`, `anchor, "S"` or `anchor ("S"`. A quote that touches
/// the anchor closes a string the anchor is in, and cites nothing.
fn quoted_after(flat: &str, anchor: &str) -> Vec<String> {
    let mut sections = Vec::new();
    for (at, _) in flat.match_indices(anchor) {
        // The anchor may sit in backticks.
        let rest = flat[at + anchor.len()..].trim_start_matches('`');
        let rest = rest.strip_prefix(',').unwrap_or(rest);
        let quoted = rest
            .strip_prefix(" \"")
            .or_else(|| rest.strip_prefix(" (\""));
        if let Some(quoted) = quoted {
            if let Some(end) = quoted.find('"') {
                sections.push(quoted[..end].to_string());
            }
        }
    }
    sections
}

/// The section numbers cited after each `DESIGN.md` or `DESIGN` in
/// `flat` (`§8`, `§8, §13`, `§10–11`), each with the quoted subsection
/// that follows it, if any.
fn design_sections(flat: &str) -> Vec<(u32, Option<String>)> {
    let mut cited = Vec::new();
    for (at, _) in flat.match_indices("DESIGN") {
        let mut rest = flat[at + "DESIGN".len()..].trim_start_matches(".md");
        rest = rest.trim_start_matches(['`', ',', ' ']);
        while let Some(after) = rest.strip_prefix('§') {
            let digits = identifier(after);
            let Ok(n) = digits.parse::<u32>() else { break };
            rest = &after[digits.len()..];
            let sub = rest
                .strip_prefix(" \"")
                .and_then(|q| q.find('"').map(|end| q[..end].to_string()));
            cited.push((n, sub));
            if let Some(to) = rest.strip_prefix('–').or_else(|| rest.strip_prefix('-')) {
                let digits = identifier(to);
                if let Ok(n) = digits.parse::<u32>() {
                    cited.push((n, None));
                }
                break;
            }
            match rest
                .strip_prefix(", ")
                .or_else(|| rest.strip_prefix(" and "))
            {
                Some(next) if next.starts_with('§') => rest = next,
                _ => break,
            }
        }
    }
    cited
}

#[test]
fn every_doc_citation_names_a_heading() {
    let root = root();
    let mut citing: Vec<String> = CITING_DOCS.iter().map(|d| d.to_string()).collect();
    files(&root, &root.join("crates"), ".rs", &mut citing);
    files(&root, &root.join("tests"), ".rs", &mut citing);

    let experiments = headings(&read("EXPERIMENTS.md"));
    let archive = headings(&read(ARCHIVE));
    let design_text = read("DESIGN.md");
    let design = headings(&design_text);
    let design_numbers: HashSet<u32> = design
        .iter()
        .filter_map(|h| h.split('.').next()?.parse().ok())
        .collect();

    let mut stale = Vec::new();
    let mut checked = 0;
    for file in &citing {
        let flat = flatten(&read(file));
        for (anchor, heads) in [("EXPERIMENTS.md", &experiments), (ARCHIVE, &archive)] {
            for section in quoted_after(&flat, anchor) {
                checked += 1;
                if !names_a_heading(&section, heads) {
                    stale.push(format!("{file}: {anchor} \"{section}\""));
                }
            }
        }
        for (n, sub) in design_sections(&flat) {
            checked += 1;
            if !design_numbers.contains(&n) {
                stale.push(format!("{file}: DESIGN.md §{n}"));
            }
            if let Some(sub) = sub.filter(|s| !names_a_heading(s, &design)) {
                stale.push(format!("{file}: DESIGN.md §{n} \"{sub}\""));
            }
        }
    }
    assert!(checked > 0, "no citation found: the scan is broken");
    assert!(
        stale.is_empty(),
        "citations name no heading:\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_docs_stay_within_their_line_caps() {
    let over: Vec<String> = LINE_CAPS
        .iter()
        .filter_map(|&(doc, cap)| {
            let lines = read(doc).lines().count();
            (lines > cap).then(|| format!("{doc}: {lines} lines, cap {cap}"))
        })
        .collect();
    assert!(over.is_empty(), "{}", over.join("\n"));
}
