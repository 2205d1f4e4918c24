//! Text edge-list IO (SNAP/KONECT style).
//!
//! Each non-comment line is `source<ws>target`; lines starting with `#` or
//! `%` are comments; blank lines are skipped. Vertex ids are dense `u32`s
//! below `u32::MAX`.

use crate::{EdgeList, GraphError, VertexId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Parses an edge list from any reader. The vertex universe is the maximum
/// id seen plus one.
pub fn read_edge_list<R: Read>(reader: R) -> Result<EdgeList, GraphError> {
    let mut br = BufReader::new(reader);
    let mut edges = EdgeList::new(0);
    // Reuse one line buffer to avoid per-line allocations (perf-book: reading
    // lines from a file).
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if br.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_ascii_whitespace();
        let (su, sv) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(GraphError::Format(format!(
                    "line {lineno}: expected `src dst`, got {trimmed:?}"
                )))
            }
        };
        // `VertexId::MAX` is no id: `n = 2^32` needs a 32 GiB degree array.
        let id = |s: &str| match s.parse::<VertexId>() {
            Ok(id) if id < VertexId::MAX => Ok(id),
            _ => Err(GraphError::Format(format!(
                "line {lineno}: bad vertex id {s:?} (ids are integers below {})",
                VertexId::MAX
            ))),
        };
        edges.push(id(su)?, id(sv)?);
    }
    Ok(edges)
}

/// Writes all edges of `graph` as `src<tab>dst` lines preceded by a summary
/// comment header.
pub fn write_edge_list<W: Write>(graph: &crate::CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut bw = BufWriter::new(writer);
    writeln!(
        bw,
        "# bpart edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (u, v) in graph.edges() {
        writeln!(bw, "{u}\t{v}")?;
    }
    bw.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn parses_comments_blanks_and_whitespace() {
        let text = "# header\n% konect header\n\n0 1\n1\t2\n  2   0  \n";
        let el = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(el.edges(), &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(el.num_vertices(), 3);
    }

    #[test]
    fn round_trip() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3), (3, 0)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let el = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(el.into_csr(), g);
    }

    #[test]
    fn bad_line_is_an_error_with_line_number() {
        let err = read_edge_list("0 1\nnonsense\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn bad_vertex_id_is_an_error() {
        let err = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad vertex id"), "{err}");
    }

    #[test]
    fn the_largest_u32_is_no_vertex_id() {
        let err = read_edge_list("0 1\n1 4294967295\n".as_bytes()).unwrap_err();
        assert!(
            err.to_string()
                .contains("line 2: bad vertex id \"4294967295\""),
            "{err}"
        );
        let err = read_edge_list("4294967295 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let el = read_edge_list("4294967294 0\n".as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), u32::MAX as usize);
    }

    #[test]
    fn missing_target_is_an_error() {
        let err = read_edge_list("42\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");
    }
}
