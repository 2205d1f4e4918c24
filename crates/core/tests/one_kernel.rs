//! Every driver of the placement kernel — the resident sequential pass,
//! the shard loop, and (for BPart's phase 1, the one scorer with a buffered
//! mode) the buffered barrier at `buffer_size = 1` — produces the same
//! bytes: one assignment, one `|V_i|`, one `|E_i|`.

use bpart_core::bpart::WeightedStream;
use bpart_core::pio::{write_shards, ShardSet};
use bpart_core::{
    stream_assign_ooc, BPartConfig, Fennel, OocConfig, OocScheme, ParallelConfig, Partitioner,
};
use bpart_graph::generate;

#[test]
fn resident_shard_and_unit_buffer_drivers_agree_byte_for_byte() {
    let p1_buffered = WeightedStream::new(BPartConfig {
        parallel: ParallelConfig {
            threads: 3,
            buffer_size: 1,
        },
        ..BPartConfig::default()
    });
    let c = BPartConfig::default().c;
    let schemes: [(&dyn Partitioner, Option<&dyn Partitioner>, OocScheme); 2] = [
        (&Fennel, None, OocScheme::Fennel),
        (
            &WeightedStream::default(),
            Some(&p1_buffered),
            OocScheme::BPartP1 { c },
        ),
    ];
    for preset in [generate::lj_like, generate::twitter_like] {
        let g = preset().generate_scaled(0.02);
        let dir = std::env::temp_dir().join(format!(
            "bpart-one-kernel-{}-{}",
            std::process::id(),
            preset().name
        ));
        let _ = std::fs::remove_dir_all(&dir);
        write_shards(&g, &dir, 16 * 1024).unwrap();
        let shards = ShardSet::open(&dir).unwrap();
        assert!(shards.num_shards() > 2, "want a multi-shard stream");
        for k in [8, 13] {
            for (resident, buffered, ooc_scheme) in schemes {
                let what = format!("{} {} k={k}", preset().name, resident.name());
                let resident = resident.partition(&g, k);
                if let Some(buffered) = buffered {
                    let buffered = buffered.partition(&g, k);
                    assert_eq!(buffered.assignment(), resident.assignment(), "{what}");
                    assert_eq!(buffered.vertex_counts(), resident.vertex_counts(), "{what}");
                    assert_eq!(buffered.edge_counts(), resident.edge_counts(), "{what}");
                }
                let ooc = stream_assign_ooc(&shards, &OocConfig::new(k, ooc_scheme)).unwrap();
                assert_eq!(ooc.assignment, resident.assignment(), "{what}");
                assert_eq!(ooc.vertex_counts, resident.vertex_counts(), "{what}");
                assert_eq!(ooc.edge_counts, resident.edge_counts(), "{what}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
