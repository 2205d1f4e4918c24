//! The [`Partition`] type: a vertex-disjoint assignment of a graph to `k`
//! parts, with per-part vertex and edge tallies maintained eagerly.
//!
//! Edge accounting follows the paper (and Gemini/KnightKing): each vertex
//! owns its out-edges, so part `i`'s edge count `|E_i|` is the sum of
//! out-degrees of the vertices assigned to it.

use bpart_graph::{CsrGraph, VertexId};

/// Partition (subgraph/machine) identifier.
pub type PartId = u32;

/// A complete assignment of every vertex to one of `k` parts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    num_parts: usize,
    assignment: Vec<PartId>,
    vertex_counts: Vec<u64>,
    edge_counts: Vec<u64>,
}

impl Partition {
    /// Wraps an assignment vector, tallying per-part vertex and edge counts
    /// against `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the vertex count or any
    /// part id is `>= num_parts`.
    pub fn from_assignment(graph: &CsrGraph, num_parts: usize, assignment: Vec<PartId>) -> Self {
        assert_eq!(
            assignment.len(),
            graph.num_vertices(),
            "assignment must cover every vertex"
        );
        assert!(num_parts > 0, "need at least one part");
        let mut vertex_counts = vec![0u64; num_parts];
        let mut edge_counts = vec![0u64; num_parts];
        for (v, &p) in assignment.iter().enumerate() {
            assert!(
                (p as usize) < num_parts,
                "part id {p} out of range (k = {num_parts})"
            );
            vertex_counts[p as usize] += 1;
            edge_counts[p as usize] += graph.out_degree(v as VertexId) as u64;
        }
        Partition {
            num_parts,
            assignment,
            vertex_counts,
            edge_counts,
        }
    }

    /// Wraps an assignment with tallies counted elsewhere — by whoever
    /// holds the whole graph, for a process that holds only its own part of
    /// it, where [`from_assignment`](Self::from_assignment) would count
    /// zero edges for every other part.
    ///
    /// The vertex tallies are checked against the assignment. The edge
    /// tallies cannot be, without the graph: a caller that holds a slice
    /// checks its own part's against it.
    pub fn from_tallies(
        num_parts: usize,
        assignment: Vec<PartId>,
        vertex_counts: Vec<u64>,
        edge_counts: Vec<u64>,
    ) -> Result<Self, String> {
        if num_parts == 0 {
            return Err("need at least one part".into());
        }
        if vertex_counts.len() != num_parts || edge_counts.len() != num_parts {
            return Err(format!(
                "{} vertex and {} edge tallies for {num_parts} parts",
                vertex_counts.len(),
                edge_counts.len()
            ));
        }
        let mut counted = vec![0u64; num_parts];
        for (v, &p) in assignment.iter().enumerate() {
            *counted
                .get_mut(p as usize)
                .ok_or_else(|| format!("vertex {v} on part {p} of {num_parts}"))? += 1;
        }
        if counted != vertex_counts {
            return Err(format!(
                "vertex tallies {vertex_counts:?} are not the assignment's {counted:?}"
            ));
        }
        Ok(Partition {
            num_parts,
            assignment,
            vertex_counts,
            edge_counts,
        })
    }

    /// Number of parts `k`.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of vertices covered.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// The part that owns vertex `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> PartId {
        self.assignment[v as usize]
    }

    /// The full vertex → part map.
    #[inline]
    pub fn assignment(&self) -> &[PartId] {
        &self.assignment
    }

    /// `|V_i|` for every part.
    #[inline]
    pub fn vertex_counts(&self) -> &[u64] {
        &self.vertex_counts
    }

    /// `|E_i|` (out-degree sums) for every part.
    #[inline]
    pub fn edge_counts(&self) -> &[u64] {
        &self.edge_counts
    }

    /// Vertices owned by part `p`, ascending.
    pub fn members(&self, p: PartId) -> Vec<VertexId> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(v, &q)| (q == p).then_some(v as VertexId))
            .collect()
    }

    /// All parts' member lists in one pass (cheaper than `k` × [`members`]).
    ///
    /// [`members`]: Partition::members
    pub fn all_members(&self) -> Vec<Vec<VertexId>> {
        let mut out: Vec<Vec<VertexId>> = self
            .vertex_counts
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        for (v, &p) in self.assignment.iter().enumerate() {
            out[p as usize].push(v as VertexId);
        }
        out
    }

    /// Checks internal consistency against `graph`: tallies match the
    /// assignment and every vertex is covered. Intended for tests and
    /// debug assertions.
    pub fn validate(&self, graph: &CsrGraph) -> Result<(), String> {
        if self.assignment.len() != graph.num_vertices() {
            return Err(format!(
                "assignment covers {} vertices, graph has {}",
                self.assignment.len(),
                graph.num_vertices()
            ));
        }
        let rebuilt = Partition::from_assignment(graph, self.num_parts, self.assignment.clone());
        if rebuilt.vertex_counts != self.vertex_counts {
            return Err("vertex tallies inconsistent".into());
        }
        if rebuilt.edge_counts != self.edge_counts {
            return Err("edge tallies inconsistent".into());
        }
        let covered: u64 = self.vertex_counts.iter().sum();
        if covered != graph.num_vertices() as u64 {
            return Err(format!("tallies cover {covered} vertices"));
        }
        let edges: u64 = self.edge_counts.iter().sum();
        if edges != graph.num_edges() as u64 {
            return Err(format!(
                "tallies cover {edges} edges, graph has {}",
                graph.num_edges()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpart_graph::generate;

    #[test]
    fn tallies_match_assignment() {
        let g = generate::star(4); // hub 0 has degree 4, spokes degree 1
        let p = Partition::from_assignment(&g, 2, vec![0, 1, 1, 0, 0]);
        assert_eq!(p.vertex_counts(), &[3, 2]);
        assert_eq!(p.edge_counts(), &[4 + 1 + 1, 1 + 1]);
        p.validate(&g).unwrap();
    }

    #[test]
    fn shipped_tallies_make_the_same_partition() {
        let g = generate::star(4);
        let p = Partition::from_assignment(&g, 3, vec![0, 1, 1, 0, 0]);
        let shipped = |vertices: &[u64], edges: &[u64]| {
            Partition::from_tallies(
                3,
                p.assignment().to_vec(),
                vertices.to_vec(),
                edges.to_vec(),
            )
        };
        assert_eq!(shipped(p.vertex_counts(), p.edge_counts()), Ok(p.clone()));
        for (vertices, edges) in [
            (&[3, 2][..], &[6, 2][..]),
            (&[3, 2, 0], &[6, 2]),
            (&[2, 3, 0], &[6, 2, 0]),
            (&[3, 2, 1], &[6, 2, 0]),
        ] {
            assert!(shipped(vertices, edges).is_err(), "{vertices:?} {edges:?}");
        }
        let err = Partition::from_tallies(2, vec![0, 2], vec![1, 1], vec![0, 0]).unwrap_err();
        assert!(err.contains("vertex 1 on part 2 of 2"), "{err}");
        assert!(Partition::from_tallies(0, vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn members_listing() {
        let g = generate::ring(4);
        let p = Partition::from_assignment(&g, 2, vec![0, 1, 0, 1]);
        assert_eq!(p.members(0), vec![0, 2]);
        assert_eq!(p.members(1), vec![1, 3]);
        assert_eq!(p.all_members(), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn part_of_lookup() {
        let g = generate::ring(3);
        let p = Partition::from_assignment(&g, 3, vec![2, 0, 1]);
        assert_eq!(p.part_of(0), 2);
        assert_eq!(p.part_of(2), 1);
        assert_eq!(p.num_parts(), 3);
        assert_eq!(p.num_vertices(), 3);
    }

    #[test]
    fn empty_parts_are_allowed() {
        let g = generate::ring(3);
        let p = Partition::from_assignment(&g, 5, vec![0, 0, 0]);
        assert_eq!(p.vertex_counts(), &[3, 0, 0, 0, 0]);
        p.validate(&g).unwrap();
    }

    #[test]
    fn validate_catches_wrong_graph() {
        let g = generate::ring(4);
        let p = Partition::from_assignment(&g, 2, vec![0, 1, 0, 1]);
        let other = generate::ring(5);
        assert!(p.validate(&other).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn part_id_out_of_range_panics() {
        let g = generate::ring(3);
        Partition::from_assignment(&g, 2, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "cover every vertex")]
    fn short_assignment_panics() {
        let g = generate::ring(3);
        Partition::from_assignment(&g, 2, vec![0, 1]);
    }
}
