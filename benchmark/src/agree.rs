//! `bpart-benchmark agree A.json B.json`: holds result set B against result
//! set A by the bounds of the metric tables.
//!
//! A bounded metric is *ok* when B is no worse than A by more than its
//! bound, and *unresolved* — not unchanged — when the spread of either
//! side's own jobs, `(q3 − q1) / q1`, exceeds that bound: such a run cannot
//! tell a regression from its own noise. An exact metric must be identical.

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::orchestrate::read_results;
use bpart_obs::history::RunRecord;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Identical,
    Unresolved,
    Regressed,
    Differs,
    Missing,
}

impl Verdict {
    fn passes(self) -> bool {
        matches!(self, Verdict::Ok | Verdict::Identical)
    }
}

/// `(q3 − q1) / q1` of the jobs behind `name` in `rec`, where recorded.
fn spread(rec: &RunRecord, name: &str) -> f64 {
    let q = |suffix: &str| rec.metrics.get(&format!("{name}.{suffix}")).copied();
    match (q("q1"), q("q3")) {
        (Some(q1), Some(q3)) if q1 > 0.0 => (q3 - q1) / q1,
        _ => 0.0,
    }
}

/// Judges one bounded metric: value and spread on each side.
pub fn judge(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> Verdict {
    if a.1.max(b.1) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b.0 - a.0) / a.0,
        Better::Higher => (a.0 - b.0) / a.0,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compares the two result sets, prints one row per metric, and returns
/// whether every row passed.
pub fn agree(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let a = read_results(a_path)?;
    let b = read_results(b_path)?;
    let mut all_pass = true;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A-1", "spreadA", "spreadB"
    );
    for ra in &a {
        let Some(rb) = b
            .iter()
            .find(|r| r.label == ra.label && r.config.get("trace") == ra.config.get("trace"))
        else {
            println!("{:<14} missing from {}", ra.label, b_path.display());
            all_pass = false;
            continue;
        };
        let traced = ra.config.get("trace").is_some_and(|t| t == "1");
        let defs = if traced { PER_LAYER } else { END_TO_END };
        for def in defs.iter().filter(|d| d.exact || d.bound > 0.0) {
            let (va, vb) = (ra.metrics.get(def.name), rb.metrics.get(def.name));
            let (sa, sb) = (spread(ra, def.name), spread(rb, def.name));
            let verdict = match (va, vb) {
                (Some(va), Some(vb)) if def.exact => {
                    if va.to_bits() == vb.to_bits() {
                        Verdict::Identical
                    } else {
                        Verdict::Differs
                    }
                }
                (Some(&va), Some(&vb)) => judge(def.better, def.bound, (va, sa), (vb, sb)),
                _ => Verdict::Missing,
            };
            let (va, vb) = (
                va.copied().unwrap_or(f64::NAN),
                vb.copied().unwrap_or(f64::NAN),
            );
            println!(
                "{:<14} {:<28} {:>14.6} {:>14.6} {:>+8.4} {:>8.4} {:>8.4}  {:?}",
                ra.label,
                def.name,
                va,
                vb,
                vb / va - 1.0,
                sa,
                sb,
                verdict
            );
            all_pass &= verdict.passes();
        }
        for (side, rec) in [("A", ra), ("B", rb)] {
            let failed = rec.config.get("failed_ops").map_or("?", String::as_str);
            if failed != "0" {
                println!("{:<14} failed_ops = {failed} in {side}", rec.label);
                all_pass = false;
            }
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_ok_and_beyond_is_regressed() {
        let quiet = 0.01;
        assert_eq!(
            judge(Better::Lower, 0.10, (1.0, quiet), (1.09, quiet)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.10, (1.0, quiet), (1.11, quiet)),
            Verdict::Regressed
        );
        // Getting better is never a regression, in either direction.
        assert_eq!(
            judge(Better::Lower, 0.10, (1.0, quiet), (0.5, quiet)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.10, (1.0, quiet), (1.5, quiet)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.10, (1.0, quiet), (0.85, quiet)),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_noisy_side_is_unresolved_not_unchanged() {
        assert_eq!(
            judge(Better::Lower, 0.10, (1.0, 0.02), (1.0, 0.15)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, (1.0, 0.15), (2.0, 0.02)),
            Verdict::Unresolved
        );
    }
}
