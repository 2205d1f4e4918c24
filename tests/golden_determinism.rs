//! Golden determinism tests: fixed seeds must keep producing byte-for-byte
//! identical graphs and partitions across releases, because every recorded
//! experiment in EXPERIMENTS.md depends on it.
//!
//! Only integer-arithmetic pipelines are pinned to exact hashes (generator,
//! chunkers, hash partitioner). The float-scoring schemes (Fennel, BPart)
//! are checked for self-consistency instead, since `powf` may differ
//! across libm implementations.

use bpart_core::prelude::*;
use bpart_graph::generate;

/// FNV-1a over little-endian u32 words.
fn fnv(data: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in data {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn graph_hash(g: &bpart_graph::CsrGraph) -> u64 {
    let edges: Vec<u32> = g.edges().flat_map(|(u, v)| [u, v]).collect();
    fnv(&edges)
}

#[test]
fn generator_output_is_pinned() {
    // Per preset of `ALL_PRESETS`, at two scales: (scale, vertices, edges,
    // edge-list hash), recorded before `chung_lu` stopped re-sorting its
    // whole pool every round.
    let pinned = [
        [
            (0.02, 1_500, 44_985, 0x1cd7_7535_5c0d_da91u64),
            (0.3, 22_500, 674_775, 0xd877_cb0f_47e6_30bc),
        ],
        [
            (0.02, 2_000, 71_440, 0xf763_8149_1963_70ef),
            (0.3, 30_000, 1_071_600, 0xe365_1a96_8c8a_a077),
        ],
        [
            (0.02, 2_400, 131_688, 0x1b28_ec63_05ec_a2a8),
            (0.3, 36_000, 1_975_320, 0x8ee3_6cee_66de_5f69),
        ],
    ];
    for (preset, cases) in generate::ALL_PRESETS.iter().zip(pinned) {
        let preset = preset();
        for (scale, vertices, edges, hash) in cases {
            let g = preset.generate_scaled(scale);
            assert_eq!(g.num_vertices(), vertices, "{} @ {scale}", preset.name);
            assert_eq!(g.num_edges(), edges, "{} @ {scale}", preset.name);
            assert_eq!(
                graph_hash(&g),
                hash,
                "{} @ {scale} changed — update EXPERIMENTS.md if intentional",
                preset.name
            );
        }
    }
}

#[test]
fn other_generators_are_pinned() {
    // (generator call, edges, edge-list hash), recorded before the
    // generators shared one edge-set kernel. Sparse requests trim an
    // overshooting round, dense ones take many rounds or fill the capacity,
    // and rewiring makes duplicates.
    use generate::{erdos_renyi, rmat, watts_strogatz, RmatConfig};
    let pinned = [
        (
            "er(3000, 40000, 7)",
            erdos_renyi(3_000, 40_000, 7),
            40_000,
            0x1e38_db58_ce5f_9108u64,
        ),
        (
            "er(60, 3000, 5)",
            erdos_renyi(60, 3_000, 5),
            3_000,
            0x99c6_73e1_f9d8_ef23,
        ),
        (
            "er(10, 90, 3)",
            erdos_renyi(10, 90, 3),
            90,
            0x5a99_2932_1c7d_7555,
        ),
        (
            "rmat(12, 60000, 5)",
            rmat(&RmatConfig::new(12, 60_000, 5)),
            60_000,
            0x8bf2_a838_9ae0_46f4,
        ),
        (
            "rmat(9, 30000, 1)",
            rmat(&RmatConfig::new(9, 30_000, 1)),
            30_000,
            0x1c83_5cf6_1c63_a7ba,
        ),
        (
            "ws(4000, 10, 0.3, 9)",
            watts_strogatz(4_000, 10, 0.3, 9),
            39_977,
            0xae40_53e5_9624_01fc,
        ),
        (
            "ws(50, 48, 1.0, 2)",
            watts_strogatz(50, 48, 1.0, 2),
            1_521,
            0x27c7_a489_1695_442f,
        ),
    ];
    for (call, g, edges, hash) in pinned {
        assert_eq!(
            (g.num_edges(), graph_hash(&g)),
            (edges, hash),
            "{call} changed"
        );
    }
}

#[test]
fn integer_partitioners_are_pinned() {
    let g = generate::twitter_like().generate_scaled(0.02);
    let cases: [(&dyn Partitioner, u64); 3] = [
        (&ChunkV, 0x71ba_b13a_e7a7_cc65),
        (&ChunkE, 0x131d_68e6_fd77_2ae7),
        (&HashPartitioner::default(), 0x9c97_4416_40aa_faa1),
    ];
    for (scheme, expected) in cases {
        let p = scheme.partition(&g, 8);
        assert_eq!(
            fnv(p.assignment()),
            expected,
            "{} assignment changed — update EXPERIMENTS.md if intentional",
            scheme.name()
        );
    }
}

#[test]
fn float_partitioners_are_run_to_run_stable() {
    let g = generate::twitter_like().generate_scaled(0.02);
    for scheme in [&Fennel as &dyn Partitioner, &BPart::default()] {
        let a = scheme.partition(&g, 8);
        let b = scheme.partition(&g, 8);
        assert_eq!(
            fnv(a.assignment()),
            fnv(b.assignment()),
            "{} must be deterministic within a build",
            scheme.name()
        );
    }
}
