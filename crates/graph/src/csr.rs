//! Compressed-sparse-row graph representation.
//!
//! [`CsrGraph`] is the immutable, cache-friendly representation every other
//! crate operates on. It stores the out-adjacency in CSR form and, because
//! the partition-quality metrics and the Fennel/BPart scoring functions need
//! *undirected* neighborhoods, it also materializes the in-adjacency.
//!
//! Adjacency lists are sorted ascending, which gives deterministic iteration
//! order and lets node2vec test `is_out_neighbor` with a binary search.

use crate::{Edge, VertexId};

/// An immutable directed graph in compressed-sparse-row form.
///
/// Out-edges of vertex `v` occupy `targets[offsets[v] .. offsets[v + 1]]`;
/// the in-adjacency (`in_offsets` / `in_targets`) is the transpose built at
/// construction time; a graph without in-lists keeps `in_offsets` empty.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    in_offsets: Vec<u64>,
    in_targets: Vec<VertexId>,
}

/// The adjacency lists of a vertex subset, back to back in the subset's
/// order: the first `degrees[0]` entries of `targets` are the first
/// vertex's list, and so on. What [`CsrGraph::from_owned_lists`] takes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OwnedLists {
    /// List length per vertex of the subset.
    pub degrees: Vec<u32>,
    /// The lists themselves, concatenated; each sorted ascending.
    pub targets: Vec<VertexId>,
}

impl OwnedLists {
    /// Checks the lists against the `members` they belong to and the id
    /// space `0..n`, and returns the offset array that places them there
    /// (every other vertex's list empty).
    fn offsets(&self, n: usize, members: &[VertexId], what: &str) -> Result<Vec<u64>, String> {
        if self.degrees.len() != members.len() {
            return Err(format!(
                "{} {what}-lists for {} members",
                self.degrees.len(),
                members.len()
            ));
        }
        let total: u64 = self.degrees.iter().map(|&d| d as u64).sum();
        if total != self.targets.len() as u64 {
            return Err(format!(
                "{what}-list lengths sum to {total}, {} targets given",
                self.targets.len()
            ));
        }
        if let Some(&t) = self.targets.iter().find(|&&t| t as usize >= n) {
            return Err(format!(
                "{what}-list target {t} out of range for {n} vertices"
            ));
        }
        let mut offsets = vec![0u64; n + 1];
        let mut at = 0usize;
        for (&v, &d) in members.iter().zip(&self.degrees) {
            let list = &self.targets[at..at + d as usize];
            if !list.windows(2).all(|w| w[0] <= w[1]) {
                return Err(format!("{what}-list of vertex {v} is not sorted"));
            }
            offsets[v as usize + 1] = d as u64;
            at += d as usize;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        Ok(offsets)
    }
}

impl CsrGraph {
    /// Builds a graph with `num_vertices` vertices from a list of directed
    /// edges. Edges may arrive in any order; they are counting-sorted by
    /// source, and each adjacency list is sorted ascending. Duplicate edges
    /// are preserved (generators deduplicate before reaching here).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        let n = num_vertices;
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
            offsets[u as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; edges.len()];
        for &(u, v) in edges {
            let c = &mut cursor[u as usize];
            targets[*c as usize] = v;
            *c += 1;
        }
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Self::from_sorted_csr(offsets, targets)
    }

    /// Builds a graph directly from already-valid CSR arrays, deriving the
    /// in-adjacency with a single counting-sort pass — what [`from_edges`]
    /// ends with, and where the binary loader and the generators' sorted
    /// edge sets start.
    ///
    /// Callers must have established exactly the invariants `from_edges`
    /// produces: `offsets` monotone with `offsets[0] == 0` and
    /// `offsets[n] == targets.len()`, every target `< n`, and every
    /// adjacency list sorted ascending. Debug builds re-check.
    pub(crate) fn from_sorted_csr(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        let n = offsets.len() - 1;
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&(targets.len() as u64)));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(targets.iter().all(|&t| (t as usize) < n));
        debug_assert!(
            (0..n).all(|v| targets[offsets[v] as usize..offsets[v + 1] as usize]
                .windows(2)
                .all(|w| w[0] <= w[1]))
        );
        // Transpose by counting sort. Scanning sources in ascending order
        // appends each in-list's sources in ascending order, so the
        // in-lists come out sorted without a per-list sort.
        let mut in_offsets = vec![0u64; n + 1];
        for &t in &targets {
            in_offsets[t as usize + 1] += 1;
        }
        for v in 0..n {
            in_offsets[v + 1] += in_offsets[v];
        }
        let mut cursor = in_offsets[..n].to_vec();
        let mut in_targets = vec![0 as VertexId; targets.len()];
        for u in 0..n {
            for &t in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                let c = &mut cursor[t as usize];
                in_targets[*c as usize] = u as VertexId;
                *c += 1;
            }
        }
        CsrGraph {
            offsets,
            targets,
            in_offsets,
            in_targets,
        }
    }

    /// Builds the graph a machine that owns `members` holds: `n` vertices
    /// in the *global* id space, the members' out-lists (and in-lists, when
    /// given) in place, every other vertex's lists empty. Degrees,
    /// neighbours and [`num_edges`](Self::num_edges) are therefore those of
    /// the slice; [`num_vertices`](Self::num_vertices) is the whole
    /// graph's. With `inn` absent the graph holds no in-lists.
    ///
    /// The arguments may come from outside the program, so nothing is
    /// assumed of them: members not strictly ascending or `>= n`, list
    /// lengths that do not add up to the targets given, a target `>= n`
    /// and an unsorted list are each an `Err` saying which.
    pub fn from_owned_lists(
        n: usize,
        members: &[VertexId],
        out: OwnedLists,
        inn: Option<OwnedLists>,
    ) -> Result<Self, String> {
        if let Some(w) = members.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "members not strictly ascending: {} then {}",
                w[0], w[1]
            ));
        }
        if let Some(&v) = members.last().filter(|&&v| v as usize >= n) {
            return Err(format!("member {v} out of range for {n} vertices"));
        }
        // Members ascend, so their lists back to back are already in CSR
        // order: the target arrays are adopted as they are.
        let offsets = out.offsets(n, members, "out")?;
        let (in_offsets, in_targets) = match inn {
            Some(inn) => (inn.offsets(n, members, "in")?, inn.targets),
            None => (Vec::new(), Vec::new()),
        };
        Ok(CsrGraph {
            offsets,
            targets: out.targets,
            in_offsets,
            in_targets,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Average out-degree `m / n`; zero on an empty graph.
    #[inline]
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// In-degree of `v` (0 without in-lists).
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Out-neighbors of `v`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        );
        &self.targets[lo..hi]
    }

    /// In-neighbors of `v`, sorted ascending (none without in-lists).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        if !self.has_in_lists() {
            return &[];
        }
        let (lo, hi) = (
            self.in_offsets[v as usize] as usize,
            self.in_offsets[v as usize + 1] as usize,
        );
        &self.in_targets[lo..hi]
    }

    /// Whether the graph holds its in-lists.
    pub fn has_in_lists(&self) -> bool {
        !self.in_offsets.is_empty()
    }

    /// Frees the in-lists: from here on the graph holds none.
    pub fn shed_in_lists(&mut self) {
        (self.in_offsets, self.in_targets) = Default::default();
    }

    /// Bytes of the adjacency arrays held, in both directions.
    pub fn adjacency_bytes(&self) -> usize {
        8 * (self.offsets.len() + self.in_offsets.len())
            + 4 * (self.targets.len() + self.in_targets.len())
    }

    /// True iff the directed edge `(u, v)` exists (binary search).
    #[inline]
    pub fn is_out_neighbor(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all directed edges in `(source, sorted-target)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Raw offset array (length `n + 1`), for zero-copy serialization.
    #[inline]
    pub fn raw_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw target array (length `m`), for zero-copy serialization.
    #[inline]
    pub fn raw_targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Maximum out-degree over all vertices (zero on an empty graph).
    pub fn max_out_degree(&self) -> usize {
        self.vertices()
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Returns the transpose as a new graph (out becomes in and vice versa).
    ///
    /// Cheap: both directions are held (a graph without in-lists has no
    /// transpose), so this just swaps the internal arrays.
    pub fn transpose(&self) -> CsrGraph {
        CsrGraph {
            offsets: self.in_offsets.clone(),
            targets: self.in_targets.clone(),
            in_offsets: self.offsets.clone(),
            in_targets: self.targets.clone(),
        }
    }

    /// Sum of out-degrees over an arbitrary set of vertices.
    ///
    /// This is the `|E_i|` used throughout the paper: each vertex owns its
    /// out-edges, so a vertex set's edge mass is its out-degree sum.
    pub fn degree_sum<I: IntoIterator<Item = VertexId>>(&self, vertices: I) -> u64 {
        vertices
            .into_iter()
            .map(|v| self.out_degree(v) as u64)
            .sum()
    }
}

/// `from_edges` as it was: a counting sort and a per-list sort for each
/// direction. Retained as the differential-test oracle.
#[cfg(test)]
impl CsrGraph {
    pub(crate) fn from_edges_oracle(num_vertices: usize, edges: &[Edge]) -> Self {
        let (offsets, targets) = Self::csr_of(num_vertices, edges.iter().map(|&(u, v)| (u, v)));
        let (in_offsets, in_targets) =
            Self::csr_of(num_vertices, edges.iter().map(|&(u, v)| (v, u)));
        CsrGraph {
            offsets,
            targets,
            in_offsets,
            in_targets,
        }
    }

    /// Counting-sort pass shared by the forward and transposed adjacency.
    fn csr_of(
        num_vertices: usize,
        edges: impl Iterator<Item = Edge> + Clone,
    ) -> (Vec<u64>, Vec<VertexId>) {
        let mut degree = vec![0u64; num_vertices];
        let mut num_edges = 0usize;
        for (u, v) in edges.clone() {
            assert!(
                (u as usize) < num_vertices && (v as usize) < num_vertices,
                "edge ({u}, {v}) out of range for {num_vertices} vertices"
            );
            degree[u as usize] += 1;
            num_edges += 1;
        }
        let mut offsets = vec![0u64; num_vertices + 1];
        for v in 0..num_vertices {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets[..num_vertices].to_vec();
        let mut targets = vec![0 as VertexId; num_edges];
        for (u, v) in edges {
            let c = &mut cursor[u as usize];
            targets[*c as usize] = v;
            *c += 1;
        }
        // Sort each adjacency list for determinism and binary-searchability.
        for v in 0..num_vertices {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[lo..hi].sort_unstable();
        }
        (offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.average_degree(), 1.0);
    }

    #[test]
    fn adjacency_is_sorted_regardless_of_insert_order() {
        let g = CsrGraph::from_edges(4, &[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.max_out_degree(), 2);
    }

    #[test]
    fn in_neighbors_are_the_transpose() {
        let g = diamond();
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(1), &[0]);
        assert!(g.in_neighbors(0).is_empty());
    }

    #[test]
    fn is_out_neighbor_binary_search() {
        let g = diamond();
        assert!(g.is_out_neighbor(0, 1));
        assert!(g.is_out_neighbor(0, 2));
        assert!(!g.is_out_neighbor(0, 3));
        assert!(!g.is_out_neighbor(3, 0));
    }

    #[test]
    fn edges_iterator_yields_all_edges_sorted_by_source() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn transpose_swaps_directions() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.out_neighbors(3), &[1, 2]);
        assert_eq!(t.in_neighbors(1), &[3]);
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn degree_sum_counts_out_edges() {
        let g = diamond();
        assert_eq!(g.degree_sum([0, 1]), 3);
        assert_eq!(g.degree_sum(g.vertices()), 4);
        assert_eq!(g.degree_sum([3]), 0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_out_degree(), 0);
    }

    #[test]
    fn duplicate_edges_are_preserved() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        CsrGraph::from_edges(2, &[(0, 2)]);
    }

    /// The lists of `members` as `graph` holds them.
    fn lists_of(graph: &CsrGraph, members: &[VertexId]) -> (OwnedLists, OwnedLists) {
        let lists = |list: fn(&CsrGraph, VertexId) -> &[VertexId]| OwnedLists {
            degrees: members
                .iter()
                .map(|&v| list(graph, v).len() as u32)
                .collect(),
            targets: members
                .iter()
                .flat_map(|&v| list(graph, v).to_vec())
                .collect(),
        };
        (
            lists(CsrGraph::out_neighbors),
            lists(CsrGraph::in_neighbors),
        )
    }

    #[test]
    fn owned_lists_are_the_members_lists_and_nothing_else() {
        // Self-loop, duplicate edge, an isolated vertex (4), a member with
        // no out-edges (3).
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 1), (1, 3), (1, 3), (2, 0), (5, 1)]);
        let members = [1, 3];
        let (out, inn) = lists_of(&g, &members);
        let slice = CsrGraph::from_owned_lists(6, &members, out.clone(), Some(inn)).unwrap();
        assert_eq!(slice.num_vertices(), 6);
        assert_eq!(slice.num_edges(), 3);
        for v in g.vertices() {
            let (want_out, want_in): (&[VertexId], &[VertexId]) = if members.contains(&v) {
                (g.out_neighbors(v), g.in_neighbors(v))
            } else {
                (&[], &[])
            };
            assert_eq!(slice.out_neighbors(v), want_out, "out of {v}");
            assert_eq!(slice.in_neighbors(v), want_in, "in of {v}");
        }
        // Without in-lists every in-list is empty, and no offset array is
        // held for them.
        let slice = CsrGraph::from_owned_lists(6, &members, out, None).unwrap();
        assert_eq!(slice.out_neighbors(1), &[1, 3, 3]);
        assert!(g
            .vertices()
            .all(|v| slice.in_degree(v) == 0 && slice.in_neighbors(v).is_empty()));
        assert!(!slice.has_in_lists());
        assert_eq!(slice.adjacency_bytes(), 8 * 7 + 4 * 3);
        // Every vertex a member: the graph itself.
        let all: Vec<VertexId> = g.vertices().collect();
        let (out, inn) = lists_of(&g, &all);
        assert_eq!(
            CsrGraph::from_owned_lists(6, &all, out, Some(inn)).unwrap(),
            g
        );
        // No members: no edges, same id space.
        let empty = CsrGraph::from_owned_lists(6, &[], OwnedLists::default(), None).unwrap();
        assert_eq!((empty.num_vertices(), empty.num_edges()), (6, 0));
    }

    #[test]
    fn owned_lists_that_do_not_fit_are_errors_not_panics() {
        let lists = |degrees: &[u32], targets: &[VertexId]| OwnedLists {
            degrees: degrees.to_vec(),
            targets: targets.to_vec(),
        };
        let err = |members: &[VertexId], out: OwnedLists, inn: Option<OwnedLists>| {
            CsrGraph::from_owned_lists(4, members, out, inn).unwrap_err()
        };
        let ok = || lists(&[1, 2], &[3, 0, 2]);
        assert!(CsrGraph::from_owned_lists(4, &[0, 2], ok(), Some(ok())).is_ok());
        assert!(err(&[2, 0], ok(), None).contains("ascending"));
        assert!(err(&[2, 2], ok(), None).contains("ascending"));
        assert!(err(&[0, 4], ok(), None).contains("member 4 out of range"));
        assert!(err(&[0, 2], lists(&[1], &[3]), None).contains("1 out-lists for 2 members"));
        assert!(err(&[0, 2], lists(&[1, 1], &[3, 0, 2]), None).contains("sum to 2, 3 targets"));
        assert!(err(&[0, 2], lists(&[1, 3], &[3, 0, 2]), None).contains("sum to 4, 3 targets"));
        assert!(err(&[0, 2], lists(&[1, 2], &[3, 0, 4]), None).contains("target 4 out of range"));
        assert!(err(&[0, 2], lists(&[1, 2], &[3, 2, 0]), None).contains("vertex 2 is not sorted"));
        assert!(
            err(&[0, 2], ok(), Some(lists(&[3, 0], &[1, 0, 2]))).contains("in-list of vertex 0")
        );
        // A degree sum that overflows nothing: it is compared as u64.
        assert!(err(&[0, 2], lists(&[u32::MAX, u32::MAX], &[]), None).contains("sum to"));
    }

    #[test]
    fn from_sorted_csr_matches_from_edges() {
        let g = crate::generate::erdos_renyi(200, 1_500, 42);
        let fast = CsrGraph::from_sorted_csr(g.raw_offsets().to_vec(), g.raw_targets().to_vec());
        assert_eq!(fast, g);
    }

    #[test]
    fn from_sorted_csr_keeps_duplicate_edges() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 1), (2, 1)]);
        let fast = CsrGraph::from_sorted_csr(g.raw_offsets().to_vec(), g.raw_targets().to_vec());
        assert_eq!(fast, g);
        assert_eq!(fast.in_neighbors(1), &[0, 0, 2]);
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Unsorted input with loops and duplicates builds what the two
            /// per-direction counting sorts built.
            #[test]
            fn from_edges_is_the_oracle(
                n in 1u32..40,
                edges in prop::collection::vec((0u32..40, 0u32..40), 0..300),
            ) {
                let edges: Vec<Edge> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
                prop_assert_eq!(
                    CsrGraph::from_edges(n as usize, &edges),
                    CsrGraph::from_edges_oracle(n as usize, &edges)
                );
            }
        }
    }
}
