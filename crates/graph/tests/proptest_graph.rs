//! Property-based tests for the graph substrate: representation
//! invariants, IO round-trips, and generator contracts hold for arbitrary
//! inputs.

use bpart_graph::{generate, io, CsrGraph, Edge, VertexId};
use proptest::prelude::*;

/// Strategy: a small arbitrary edge set over up to 64 vertices.
fn arb_edges() -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0u32..64, 0u32..64), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_preserves_edge_multiset(edges in arb_edges()) {
        let n = 64;
        let g = CsrGraph::from_edges(n, &edges);
        prop_assert_eq!(g.num_edges(), edges.len());
        let mut expect = edges.clone();
        expect.sort_unstable();
        let mut got: Vec<Edge> = g.edges().collect();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn in_and_out_degrees_are_consistent(edges in arb_edges()) {
        let g = CsrGraph::from_edges(64, &edges);
        let out_total: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_total: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_total, g.num_edges());
        prop_assert_eq!(in_total, g.num_edges());
        // transpose swaps the degree roles exactly
        let t = g.transpose();
        for v in g.vertices() {
            prop_assert_eq!(g.out_degree(v), t.in_degree(v));
            prop_assert_eq!(g.in_degree(v), t.out_degree(v));
        }
    }

    #[test]
    fn adjacency_is_sorted_and_binary_searchable(edges in arb_edges()) {
        let g = CsrGraph::from_edges(64, &edges);
        for u in g.vertices() {
            let nbrs = g.out_neighbors(u);
            for w in nbrs.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            for &v in nbrs {
                prop_assert!(g.is_out_neighbor(u, v));
            }
        }
    }

    #[test]
    fn text_io_round_trips(edges in arb_edges()) {
        let g = CsrGraph::from_edges(64, &edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let back = io::read_edge_list(buf.as_slice()).unwrap();
        // Text loses trailing isolated vertices (implicit universe), so
        // compare edges and rebuild at the original size.
        let g2 = CsrGraph::from_edges(64, back.edges());
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn binary_io_round_trips_exactly(edges in arb_edges()) {
        let g = CsrGraph::from_edges(64, &edges);
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        let g2 = io::read_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn bytes_parser_matches_streaming_reader(edges in arb_edges()) {
        // The zero-copy byte parser and the owned-read loader must agree
        // bit-for-bit on every well-formed file.
        let g = CsrGraph::from_edges(64, &edges);
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        let via_bytes = io::read_binary_bytes(&buf).unwrap();
        let via_reader = io::read_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(&via_bytes, &via_reader);
        prop_assert_eq!(via_bytes, g);
    }

    #[test]
    fn truncated_binary_files_are_rejected(edges in arb_edges(), cut_seed in 0u64..10_000) {
        // Any strict prefix of a binary file is missing declared data and
        // must fail cleanly (never panic, never OOM, never half-parse).
        let g = CsrGraph::from_edges(64, &edges);
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        let cut = (cut_seed as usize) % buf.len();
        prop_assert!(io::read_binary_bytes(&buf[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }

    #[test]
    fn corrupt_binary_headers_are_rejected(edges in arb_edges(), byte in 0usize..8, bit in 0usize..8) {
        // Flipping any bit of the magic or version fields must be caught
        // by header validation on both load paths.
        let g = CsrGraph::from_edges(64, &edges);
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        buf[byte] ^= 1 << bit;
        prop_assert!(io::read_binary_bytes(&buf).is_err());
        prop_assert!(io::read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn erdos_renyi_honors_exact_counts(n in 2usize..64, seed in 0u64..500) {
        let cap = n * (n - 1);
        let m = cap / 2;
        let g = generate::erdos_renyi(n, m, seed);
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.num_edges(), m);
        for u in g.vertices() {
            prop_assert!(!g.out_neighbors(u).contains(&u), "self loop at {u}");
        }
    }

    #[test]
    fn degree_sum_equals_partition_of_vertices(edges in arb_edges(), split in 1u32..63) {
        let g = CsrGraph::from_edges(64, &edges);
        let low: Vec<VertexId> = (0..split).collect();
        let high: Vec<VertexId> = (split..64).collect();
        prop_assert_eq!(
            g.degree_sum(low) + g.degree_sum(high),
            g.num_edges() as u64
        );
    }

    #[test]
    fn alias_table_never_returns_out_of_range(weights in prop::collection::vec(0.0f64..10.0, 1..40), seed in 0u64..100) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let t = bpart_graph::alias::AliasTable::new(&weights);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = t.sample(&mut rng) as usize;
            prop_assert!(x < weights.len());
            prop_assert!(weights[x] > 0.0, "sampled zero-weight outcome {x}");
        }
    }
}
