//! Every figure of the paper's evaluation, held: each row of `FIGURES` runs
//! in-process at scale 0.02 and the FNV-1a digest of its deterministic text
//! must equal the pinned one (the style of `tests/golden_determinism.rs`).
//! A changed assignment anywhere under a figure fails here with the figure
//! named and its text printed; `results/` is the same text at 0.2, diffed
//! by CI.

use bpart_bench::{Lab, FIGURES};
use std::path::Path;

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digests at scale 0.02, recorded when the figure binaries became
/// one table (PR 26), from texts checked against the old binaries' stdout.
const PINNED: [(&str, u64); 19] = [
    ("ablation", 0x64f1_9dbf_d08d_dbc5),
    ("connectivity", 0xaffa_09eb_0a8c_c31e),
    ("faults", 0xb23b_0cbe_abf3_2171),
    ("fig03", 0x716f_b660_749e_5609),
    ("fig04", 0x63b7_3f7e_9770_6501),
    ("fig05", 0x5759_599c_f404_dfea),
    ("fig06", 0xb534_54af_5a19_2d83),
    ("fig08", 0xeb5d_f884_91cc_6998),
    ("fig10", 0xc90e_4a2d_9816_49ce),
    ("fig11", 0x6bbe_cdc5_4b08_b138),
    ("fig12", 0x9a4c_b623_1832_804c),
    ("fig13", 0xf0ce_4904_6787_49a8),
    ("fig14", 0xede9_2c98_2a12_0a93),
    ("fig15", 0x65de_690f_efc2_a3aa),
    ("mtkahip", 0x5bac_3d55_3985_77f1),
    ("table1", 0x01b2_58db_a0a3_4bb7),
    ("table2", 0x51b7_bcc3_fd60_5f0a),
    ("table3", 0x25ea_fae3_639d_d31e),
    ("vcut", 0x1a5f_7798_91f8_5afe),
];

#[test]
fn every_figure_is_pinned() {
    let mut lab = Lab::new(0.02);
    let mut changed = Vec::new();
    for &(name, figure) in FIGURES {
        let text = figure(&mut lab).text;
        let digest = fnv(text.as_bytes());
        let pinned = PINNED.iter().find(|&&(n, _)| n == name).map(|&(_, d)| d);
        if pinned != Some(digest) {
            changed.push(format!(
                "{name}: digest {digest:#018x}, pinned {pinned:x?}\n{text}"
            ));
        }
    }
    assert!(changed.is_empty(), "{}", changed.join("\n"));
    assert_eq!(FIGURES.len(), PINNED.len(), "a pin names no figure");
}

#[test]
fn the_table_names_exactly_the_results_files() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut files: Vec<String> = std::fs::read_dir(results)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter_map(|file| file.strip_suffix(".txt").map(String::from))
        .collect();
    files.sort();
    let mut names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    names.sort();
    assert_eq!(names, files);
}
