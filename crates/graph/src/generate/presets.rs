//! Dataset presets standing in for the paper's evaluation graphs.
//!
//! | Paper graph  | n      | m      | d̄    | here (scale = 1)                |
//! |--------------|--------|--------|-------|---------------------------------|
//! | LiveJournal  | 7.5 M  | 225 M  | 29.99 | `lj_like`: 75 K v, 2.25 M e     |
//! | Twitter      | 41.4 M | 1.48 B | 35.72 | `twitter_like`: 100 K v, 3.57 M |
//! | Friendster   | 65.6 M | 3.6 B  | 54.87 | `friendster_like`: 120 K v, 6.6 M |
//!
//! Average degree matches the paper exactly; the absolute scale is reduced
//! ~400-550x so every experiment runs on a laptop. Skew exponents are chosen
//! so Twitter is the most skewed and Friendster the least, matching the
//! relative per-dataset edge-cut and bias orderings of Table 3 / §4.2.

use super::chung_lu::{chung_lu, ChungLuConfig};
use crate::{CsrGraph, VertexId};

/// A named synthetic dataset recipe.
#[derive(Clone, Debug)]
pub struct DatasetPreset {
    /// Human-readable name used in harness output ("twitter_like", ...).
    pub name: &'static str,
    /// Vertex count at scale 1.
    pub vertices: usize,
    /// Edge count at scale 1.
    pub edges: usize,
    /// Chung-Lu weight decay exponent (skew; larger s = more skew).
    pub exponent_s: f64,
    /// Hub cap as a fraction of the vertex count.
    pub max_degree_frac: f64,
    /// Probability that an edge's target is local in id space (crawl-order
    /// locality; see [`ChungLuConfig::locality`]).
    pub locality: f64,
    /// Probability that an edge stays within the source's id-scattered
    /// community (see [`ChungLuConfig::community`]); this is what lets
    /// Fennel beat contiguous chunking on edge cuts, as on real graphs.
    pub community: f64,
    /// Generation seed (fixed so every figure sees the same graph).
    pub seed: u64,
}

impl DatasetPreset {
    /// Generates the preset graph at full (scale = 1) size.
    pub fn generate(&self) -> CsrGraph {
        self.generate_scaled(1.0)
    }

    /// Generates the preset scaled by `scale` in both vertices and edges
    /// (average degree is preserved). Useful for quick tests
    /// (`generate_scaled(0.01)`) or stress runs (`2.0`).
    pub fn generate_scaled(&self, scale: f64) -> CsrGraph {
        assert!(scale > 0.0, "scale must be positive");
        let vertices = ((self.vertices as f64 * scale).round() as usize).max(16);
        let edges =
            ((self.edges as f64 * scale).round() as usize).min(vertices * (vertices - 1) / 2);
        chung_lu(&ChungLuConfig {
            vertices,
            edges,
            exponent_s: self.exponent_s,
            max_degree: (vertices as f64 * self.max_degree_frac).max(8.0),
            locality: self.locality,
            locality_window: (vertices / 200).max(4),
            community: self.community,
            community_count: (vertices / 64).max(1),
            seed: self.seed,
        })
    }

    /// Average degree implied by the recipe.
    pub fn average_degree(&self) -> f64 {
        self.edges as f64 / self.vertices as f64
    }
}

/// LiveJournal stand-in: d̄ ≈ 30, moderate skew.
pub fn lj_like() -> DatasetPreset {
    DatasetPreset {
        name: "lj_like",
        vertices: 75_000,
        edges: 2_249_250, // 75_000 * 29.99
        exponent_s: 0.85,
        max_degree_frac: 0.035,
        locality: 0.20,
        community: 0.40,
        seed: 0x1157_0001,
    }
}

/// Twitter stand-in: d̄ ≈ 35.7, strongest skew (celebrity hubs).
pub fn twitter_like() -> DatasetPreset {
    DatasetPreset {
        name: "twitter_like",
        vertices: 100_000,
        edges: 3_572_000, // 100_000 * 35.72
        exponent_s: 1.0,
        max_degree_frac: 0.07,
        locality: 0.08,
        community: 0.62,
        seed: 0x1157_0002,
    }
}

/// Friendster stand-in: d̄ ≈ 54.9, mildest skew.
pub fn friendster_like() -> DatasetPreset {
    DatasetPreset {
        name: "friendster_like",
        vertices: 120_000,
        edges: 6_584_400, // 120_000 * 54.87
        exponent_s: 0.70,
        max_degree_frac: 0.02,
        locality: 0.12,
        community: 0.62,
        seed: 0x1157_0003,
    }
}

/// The three presets in the order the paper tabulates them.
pub const ALL_PRESETS: [fn() -> DatasetPreset; 3] = [lj_like, twitter_like, friendster_like];

/// The one check on a dataset scale factor, for `bpart generate --scale`
/// and `BPART_SCALE`: a finite number > 0 at which every preset's vertex
/// count still fits a [`VertexId`]. The error quotes what was given.
pub fn parse_scale(raw: &str) -> Result<f64, String> {
    let largest = ALL_PRESETS.iter().map(|p| p().vertices).max().unwrap_or(0) as f64;
    match raw.trim().parse::<f64>() {
        Ok(s) if s > 0.0 && (largest * s).round() <= VertexId::MAX as f64 => Ok(s),
        _ => Err(format!(
            "scale must be a number > 0 that keeps every preset under 2^32 vertices, got {raw:?}"
        )),
    }
}

/// The preset called `name`; the error names the ones there are.
pub fn preset_by_name(name: &str) -> Result<DatasetPreset, String> {
    let mut presets = ALL_PRESETS.iter().map(|p| p());
    presets.find(|p| p.name == name).ok_or_else(|| {
        let names: Vec<_> = ALL_PRESETS.iter().map(|p| p().name).collect();
        format!("unknown preset {name:?}; available: {}", names.join(", "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_degrees_match_paper() {
        assert!((lj_like().average_degree() - 29.99).abs() < 0.01);
        assert!((twitter_like().average_degree() - 35.72).abs() < 0.01);
        assert!((friendster_like().average_degree() - 54.87).abs() < 0.01);
    }

    #[test]
    fn scaled_generation_preserves_average_degree() {
        let p = twitter_like();
        let g = p.generate_scaled(0.02);
        assert!((g.average_degree() - p.average_degree()).abs() < 2.0);
        assert_eq!(g.num_vertices(), 2_000);
    }

    #[test]
    fn scaled_generation_is_deterministic() {
        let p = lj_like();
        assert_eq!(p.generate_scaled(0.01), p.generate_scaled(0.01));
    }

    #[test]
    fn twitter_is_most_skewed() {
        // Compare top-1% degree mass at small scale.
        let mass_frac = |p: DatasetPreset| {
            let g = p.generate_scaled(0.05);
            let top = g.num_vertices() / 100;
            g.degree_sum(0..top as u32) as f64 / g.num_edges() as f64
        };
        let tw = mass_frac(twitter_like());
        let lj = mass_frac(lj_like());
        let fr = mass_frac(friendster_like());
        assert!(tw > lj && lj > fr, "tw={tw:.3} lj={lj:.3} fr={fr:.3}");
    }

    #[test]
    fn all_presets_array_ordering() {
        let names: Vec<_> = ALL_PRESETS.iter().map(|f| f().name).collect();
        assert_eq!(names, vec!["lj_like", "twitter_like", "friendster_like"]);
    }

    #[test]
    fn a_scale_is_a_positive_number_or_an_error_naming_what_was_given() {
        assert_eq!(parse_scale("0.02"), Ok(0.02));
        assert_eq!(parse_scale(" 1e4 "), Ok(1e4));
        for bad in ["O.2", "", "0", "-1", "nan", "inf", "-inf", "1e300", "4e4"] {
            assert!(parse_scale(bad).unwrap_err().contains(&format!("{bad:?}")));
        }
    }

    #[test]
    fn presets_are_found_by_name_or_listed() {
        for preset in ALL_PRESETS {
            assert_eq!(preset_by_name(preset().name).unwrap().seed, preset().seed);
        }
        assert_eq!(
            preset_by_name("marsgraph").unwrap_err(),
            "unknown preset \"marsgraph\"; available: lj_like, twitter_like, friendster_like"
        );
    }
}
