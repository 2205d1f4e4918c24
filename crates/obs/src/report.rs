//! Trace report: parse a JSONL span dump back and render a flame-style
//! span tree with per-phase totals.
//!
//! Each line is one object of what [`crate::export::spans_jsonl`] emits,
//! read with [`crate::json`]'s parser; a malformed line fails the parse
//! with its line number, which is what makes it double as the CI trace
//! validator.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Parser;
use crate::snapshot::Span;

/// Parses a whole JSONL trace. Empty lines are skipped; any malformed
/// line fails the whole parse with its 1-based line number.
pub fn parse_trace_jsonl(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        spans.push(parse_span_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(spans)
}

fn parse_span_line(line: &str) -> Result<Span, String> {
    let mut p = Parser::new(line);
    let mut id = None;
    let mut parent = None;
    let mut name = None;
    let mut thread = None;
    let mut start_ns = None;
    let mut dur_ns = None;
    let mut attrs = Vec::new();
    p.expect('{')?;
    if !p.try_consume('}') {
        loop {
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "id" => id = Some(p.u64()?),
                "parent" => parent = p.u64_or_null()?,
                "name" => name = Some(p.string()?),
                "thread" => thread = Some(p.u64()?),
                "start_ns" => start_ns = Some(p.u64()?),
                "dur_ns" => dur_ns = Some(p.u64()?),
                "attrs" => attrs = p.object(Parser::string)?,
                other => return Err(format!("unknown key {other:?}")),
            }
            if !p.try_consume(',') {
                break;
            }
        }
        p.expect('}')?;
    }
    p.end()?;
    Ok(Span {
        id: id.ok_or("missing \"id\"")?,
        parent,
        name: name.ok_or("missing \"name\"")?,
        thread: thread.ok_or("missing \"thread\"")?,
        start_ns: start_ns.ok_or("missing \"start_ns\"")?,
        dur_ns: dur_ns.ok_or("missing \"dur_ns\"")?,
        attrs,
    })
}

/// One node of the aggregated span tree: all spans with the same name
/// under the same (aggregated) parent are folded together.
#[derive(Debug)]
pub struct TreeNode {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub children: Vec<TreeNode>,
}

/// Aggregates parsed spans into a forest: children grouped under their
/// parent's node by name, recursively, sorted by total time descending.
pub fn build_tree(spans: &[Span]) -> Vec<TreeNode> {
    let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children_of: BTreeMap<Option<u64>, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        // A span whose parent was evicted from the ring becomes a root
        // rather than vanishing from the report.
        let parent = s.parent.filter(|p| known.contains(p));
        children_of.entry(parent).or_default().push(s);
    }
    build_level(None, &children_of)
}

fn build_level(
    parent: Option<u64>,
    children_of: &BTreeMap<Option<u64>, Vec<&Span>>,
) -> Vec<TreeNode> {
    let Some(spans) = children_of.get(&parent) else {
        return Vec::new();
    };
    // Group this level's spans by name, merging each span's own subtree.
    let mut by_name: BTreeMap<&str, TreeNode> = BTreeMap::new();
    for s in spans {
        let node = by_name.entry(s.name.as_str()).or_insert_with(|| TreeNode {
            name: s.name.clone(),
            count: 0,
            total_ns: 0,
            children: Vec::new(),
        });
        node.count += 1;
        node.total_ns += s.dur_ns;
        for child in build_level(Some(s.id), children_of) {
            merge_child(&mut node.children, child);
        }
    }
    let mut nodes: Vec<TreeNode> = by_name.into_values().collect();
    nodes.sort_by_key(|n| std::cmp::Reverse(n.total_ns));
    nodes
}

fn merge_child(children: &mut Vec<TreeNode>, incoming: TreeNode) {
    if let Some(existing) = children.iter_mut().find(|c| c.name == incoming.name) {
        existing.count += incoming.count;
        existing.total_ns += incoming.total_ns;
        for grandchild in incoming.children {
            merge_child(&mut existing.children, grandchild);
        }
    } else {
        children.push(incoming);
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the flame-style tree plus a flat per-phase totals table —
/// the output of `bpart report <trace.jsonl>`.
pub fn render_report(spans: &[Span]) -> String {
    let mut out = String::new();
    if spans.is_empty() {
        out.push_str("trace is empty (was tracing enabled via --trace-out?)\n");
        return out;
    }
    let tree = build_tree(spans);
    let total_ns: u64 = tree.iter().map(|n| n.total_ns).sum();
    let _ = writeln!(
        out,
        "span tree ({} spans, {} roots)",
        spans.len(),
        tree.len()
    );
    for (i, node) in tree.iter().enumerate() {
        render_node(&mut out, node, "", i + 1 == tree.len(), total_ns);
    }

    // Flat totals per span name, across all tree positions. Durations
    // also land in log-spaced `le` buckets so the p50/p99 columns come
    // from the same quantile estimator as the federation RTT series
    // (`metrics::quantile_from_buckets`).
    let mut flat: BTreeMap<&str, (u64, u64, Vec<u64>)> = BTreeMap::new();
    for s in spans {
        let e = flat
            .entry(s.name.as_str())
            .or_insert_with(|| (0, 0, vec![0u64; DUR_BOUNDS_NS.len() + 1]));
        e.0 += 1;
        e.1 += s.dur_ns;
        let idx = DUR_BOUNDS_NS
            .iter()
            .position(|&b| s.dur_ns as f64 <= b)
            .unwrap_or(DUR_BOUNDS_NS.len());
        e.2[idx] += 1;
    }
    let mut rows: Vec<(&str, u64, u64, Vec<u64>)> = flat
        .into_iter()
        .map(|(n, (c, t, b))| (n, c, t, b))
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));
    let name_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(5).max(5);
    let _ = writeln!(out, "\nper-phase totals");
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
        "phase", "count", "total", "mean", "p50", "p99"
    );
    for (name, count, ns, buckets) in rows {
        let quant = |q: f64| {
            crate::metrics::quantile_from_buckets(DUR_BOUNDS_NS, &buckets, q)
                .map_or_else(|| "-".to_string(), |v| fmt_ns(v as u64))
        };
        let _ = writeln!(
            out,
            "{name:<name_w$}  {count:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
            fmt_ns(ns),
            fmt_ns(ns / count.max(1)),
            quant(0.5),
            quant(0.99),
        );
    }
    out
}

/// Log-spaced duration bucket bounds (ns) for the per-phase quantile
/// columns: a 1–2.5–5 series per decade from 1µs to 10s.
const DUR_BOUNDS_NS: &[f64] = &[
    1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8,
    2.5e8, 5e8, 1e9, 2.5e9, 5e9, 1e10,
];

fn render_node(out: &mut String, node: &TreeNode, prefix: &str, last: bool, parent_ns: u64) {
    let branch = if last { "└─ " } else { "├─ " };
    let pct = if parent_ns > 0 {
        format!(" {:.1}%", node.total_ns as f64 * 100.0 / parent_ns as f64)
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "{prefix}{branch}{} ×{} {}{pct}",
        node.name,
        node.count,
        fmt_ns(node.total_ns),
    );
    let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
    for (i, child) in node.children.iter().enumerate() {
        render_node(
            out,
            child,
            &child_prefix,
            i + 1 == node.children.len(),
            node.total_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::trace_to_jsonl;
    use crate::tracer::SpanRecord;

    fn record(id: u64, parent: Option<u64>, name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            thread: 0,
            start_ns: id * 10,
            dur_ns,
            attrs: vec![],
        }
    }

    #[test]
    fn parse_roundtrips_export_output() {
        let spans = vec![
            SpanRecord {
                attrs: vec![("layer", "1".to_string()), ("note", "a\"b".to_string())],
                ..record(1, None, "t.report.root", 100)
            },
            record(2, Some(1), "t.report.child", 40),
        ];
        let jsonl = trace_to_jsonl(&spans);
        let parsed = parse_trace_jsonl(&jsonl).expect("roundtrip parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "t.report.root");
        assert_eq!(parsed[0].attr("note"), Some("a\"b"));
        assert_eq!(parsed[1].parent, Some(1));
        assert_eq!(parsed[1].dur_ns, 40);
    }

    #[test]
    fn parse_rejects_malformed_lines_with_line_numbers() {
        let good = trace_to_jsonl(&[record(1, None, "t.report.ok", 5)]);
        let bad = format!("{good}{{\"id\":oops}}\n");
        let err = parse_trace_jsonl(&bad).unwrap_err();
        assert!(err.starts_with("line 2:"), "got: {err}");
        assert!(
            parse_trace_jsonl("{\"id\":1}").is_err(),
            "missing fields must fail"
        );
    }

    #[test]
    fn tree_aggregates_same_name_siblings() {
        let spans = vec![
            record(1, None, "a", 100),
            record(2, Some(1), "b", 30),
            record(3, Some(1), "b", 20),
            record(4, None, "a", 50),
            record(5, Some(4), "b", 10),
        ];
        let jsonl = trace_to_jsonl(&spans);
        let parsed = parse_trace_jsonl(&jsonl).unwrap();
        let tree = build_tree(&parsed);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "a");
        assert_eq!(tree[0].count, 2);
        assert_eq!(tree[0].total_ns, 150);
        assert_eq!(tree[0].children.len(), 1);
        assert_eq!(tree[0].children[0].count, 3);
        assert_eq!(tree[0].children[0].total_ns, 60);
    }

    #[test]
    fn orphaned_spans_surface_as_roots() {
        // Parent id 99 is not in the trace (evicted): span must still show.
        let spans = vec![record(1, Some(99), "t.report.orphan", 10)];
        let jsonl = trace_to_jsonl(&spans);
        let tree = build_tree(&parse_trace_jsonl(&jsonl).unwrap());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "t.report.orphan");
    }

    #[test]
    fn report_renders_tree_and_totals() {
        let spans = vec![
            record(1, None, "cluster.superstep", 2_000_000),
            record(2, Some(1), "cluster.exchange", 500_000),
        ];
        let jsonl = trace_to_jsonl(&spans);
        let parsed = parse_trace_jsonl(&jsonl).unwrap();
        let text = render_report(&parsed);
        assert!(text.contains("cluster.superstep ×1 2.00ms"));
        assert!(text.contains("cluster.exchange"));
        assert!(text.contains("25.0%"));
        assert!(text.contains("per-phase totals"));
        assert!(render_report(&[]).contains("trace is empty"));
    }
}
