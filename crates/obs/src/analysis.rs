//! The paper's Fig. 13, folded once, and the critical path of a recorded
//! span tree.
//!
//! [`summarize`] is the one fold of per-superstep timing rows into a run's
//! numbers: total time (Σ of the slowest compute, the slowest comm and the
//! recovery work, Fig. 1), each machine's barrier waiting (Σ of
//! `max(compute) − compute_i`, §4.3), the waiting ratio (Fig. 13), and which
//! machine gated each superstep. `Telemetry::summary` in `bpart-cluster`
//! folds a simulated run's records through it, the process driver the
//! seconds its workers measured, and [`analyze`] the timings it recovers
//! from span attributes — so the blame table of `bpart report
//! --critical-path` equals the run report because there is one fold.
//!
//! The engines attach per-machine `compute`/`comm` timing attributes to
//! every `cluster.superstep` / `walker.superstep` span (comma-joined
//! `f64` `Display` values — Rust's shortest round-trip formatting, so
//! [`parse_timings`] recovers the original bits exactly). [`analyze`]
//! orders the steps, checks their shape, folds them, and keeps them for
//! the per-superstep rows and the straggler list.

use std::fmt::Write as _;

use crate::snapshot::Span;

/// Span names that carry per-machine superstep timings.
const SUPERSTEP_SPANS: [&str; 2] = ["cluster.superstep", "walker.superstep"];

/// After this many per-superstep rows the rendering elides the middle.
const MAX_STEP_ROWS: usize = 40;

/// Per-machine timings in the attribute encoding: comma-joined `{}`
/// (shortest round-trip) representations, e.g. `"1.5,0,0.25"`. Handed to
/// [`SpanGuard::attr`](crate::SpanGuard::attr) as it is, a span that is not
/// recording formats nothing.
pub struct Timings<'a>(pub &'a [f64]);

impl std::fmt::Display for Timings<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Parses a [`Timings`] encoding back to the original values
/// (bit-exact: Rust's `f64` `Display` round-trips). A negative time, −inf
/// included, is refused; NaN and +inf pass through to poison the fold.
pub fn parse_timings(s: &str) -> Result<Vec<f64>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| match t.parse::<f64>() {
            Ok(v) if v < 0.0 => Err(format!("negative timing {t:?}")),
            parsed => parsed.map_err(|e| format!("bad timing {t:?}: {e}")),
        })
        .collect()
}

/// NaN-propagating max seeded at `0.0`. `f64::max` ignores NaN on *either*
/// side (`NaN.max(x) == x`), so folding with it would report a poisoned
/// timing as the fastest machine; a NaN must poison the aggregate instead.
pub fn max_nan_propagating(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, |acc, v| {
        if acc.is_nan() || v.is_nan() {
            f64::NAN
        } else {
            acc.max(v)
        }
    })
}

/// The machine that gated a computation phase: the slowest one (lowest
/// index on ties; a NaN timing wins outright — a poisoned machine *is* the
/// problem machine).
fn gate(compute: &[f64]) -> usize {
    let mut best = 0;
    for (i, &c) in compute.iter().enumerate() {
        if c.is_nan() {
            return i;
        }
        if c > compute[best] {
            best = i;
        }
    }
    best
}

/// One machine's row of a [`Summary`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineSummary {
    /// Total compute time across all supersteps.
    pub compute: f64,
    /// Total time spent waiting at the computation barrier.
    pub waiting: f64,
    /// Total communication time across all supersteps.
    pub comm: f64,
    /// `waiting / total_time`: Fig. 13's per-machine bar.
    pub ratio: f64,
    /// Supersteps where this machine was the slowest (gated the barrier).
    pub gated_steps: u64,
    /// Compute time spent while gating — this machine's share of the
    /// run's critical path.
    pub critical_time: f64,
}

/// A run's Fig. 13 numbers, as [`summarize`] folds them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Total running time.
    pub total_time: f64,
    /// Total waiting of all machines over `machines × total_time` (Fig.
    /// 13's headline number); zero when nothing ran.
    pub waiting_ratio: f64,
    /// Per-machine rows, indexed by machine id.
    pub machines: Vec<MachineSummary>,
}

/// The one Fig. 13 fold. Each row is one superstep's per-machine compute
/// and comm times and the recovery work charged with it, in superstep
/// order; the machine count is the first row's. Every sum runs in row
/// order, so callers that fold the same rows get the same bits.
pub fn summarize<'a>(rows: impl IntoIterator<Item = (&'a [f64], &'a [f64], f64)>) -> Summary {
    let mut rows = rows.into_iter().peekable();
    let k = rows.peek().map_or(0, |(compute, _, _)| compute.len());
    let mut machines = vec![MachineSummary::default(); k];
    let mut total_time = 0.0;
    for (compute, comm, recovery) in rows {
        let max_c = max_nan_propagating(compute);
        total_time += max_c + max_nan_propagating(comm) + recovery;
        for (m, &c) in machines.iter_mut().zip(compute) {
            m.compute += c;
            m.waiting += max_c - c;
        }
        for (m, &c) in machines.iter_mut().zip(comm) {
            m.comm += c;
        }
        let gate = gate(compute);
        if let (Some(m), Some(&c)) = (machines.get_mut(gate), compute.get(gate)) {
            m.gated_steps += 1;
            m.critical_time += c;
        }
    }
    for m in &mut machines {
        m.ratio = if total_time > 0.0 {
            m.waiting / total_time
        } else {
            0.0
        };
    }
    let waiting_ratio = if total_time == 0.0 || k == 0 {
        0.0
    } else {
        machines.iter().map(|m| m.waiting).sum::<f64>() / (k as f64 * total_time)
    };
    Summary {
        total_time,
        waiting_ratio,
        machines,
    }
}

/// One superstep's timings, recovered from its span attributes.
#[derive(Clone, Debug, PartialEq)]
pub struct SuperstepTiming {
    /// Superstep index as recorded by the engine (repeats on replays).
    pub superstep: u64,
    /// True when this step re-executed already-completed work after a
    /// rollback.
    pub replay: bool,
    /// Computation-phase time per machine.
    pub compute: Vec<f64>,
    /// Communication-phase time per machine.
    pub comm: Vec<f64>,
}

impl SuperstepTiming {
    /// The machine that gated this superstep's computation phase.
    pub fn gating_machine(&self) -> usize {
        gate(&self.compute)
    }

    /// Each machine's barrier wait this superstep (`max − compute_i`).
    pub fn waiting(&self) -> Vec<f64> {
        let max_c = max_nan_propagating(&self.compute);
        self.compute.iter().map(|&c| max_c - c).collect()
    }

    /// Median compute time (average of the middle pair for even counts);
    /// the straggler baseline.
    pub fn median_compute(&self) -> f64 {
        let mut sorted = self.compute.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len();
        if n == 0 {
            return 0.0;
        }
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }
}

/// The full analysis: per-superstep gating plus the per-machine rollup.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// Supersteps in execution (start-time) order.
    pub steps: Vec<SuperstepTiming>,
    /// The steps' [`summarize`] rows, indexed by machine id.
    pub machines: Vec<MachineSummary>,
}

/// A machine whose compute exceeded its superstep's median by the
/// configured factor.
#[derive(Clone, Debug, PartialEq)]
pub struct Straggler {
    /// Index into [`CriticalPath::steps`].
    pub step_index: usize,
    pub superstep: u64,
    pub machine: usize,
    pub compute: f64,
    pub median: f64,
}

/// Extracts superstep timings from a parsed trace and builds the
/// critical-path rollup. Fails with a hint when the trace has no
/// superstep spans carrying timing attributes (old traces, or a
/// partition-only run).
pub fn analyze(spans: &[Span]) -> Result<CriticalPath, String> {
    let mut timed: Vec<(&Span, SuperstepTiming)> = Vec::new();
    for s in spans {
        if !SUPERSTEP_SPANS.contains(&s.name.as_str()) {
            continue;
        }
        let Some(compute) = s.attr("compute") else {
            // Aborted supersteps (crash before the record) carry no
            // timings and contribute zero waiting; skip them.
            continue;
        };
        let compute = parse_timings(compute)
            .map_err(|e| format!("span {} ({}): compute: {e}", s.id, s.name))?;
        if compute.is_empty() {
            return Err(format!("span {} ({}): compute: no machines", s.id, s.name));
        }
        let comm = match s.attr("comm") {
            Some(c) => {
                parse_timings(c).map_err(|e| format!("span {} ({}): comm: {e}", s.id, s.name))?
            }
            None => vec![0.0; compute.len()],
        };
        let superstep = s
            .attr("superstep")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let replay = s.attr("replay") == Some("true");
        timed.push((
            s,
            SuperstepTiming {
                superstep,
                replay,
                compute,
                comm,
            },
        ));
    }
    if timed.is_empty() {
        return Err("no superstep spans with timing attributes found \
             (is this a `bpart run` trace recorded with --trace-out? \
             traces from before the analysis layer lack compute/comm attrs)"
            .to_string());
    }
    timed.sort_by_key(|(s, _)| s.start_ns);

    let machines_n = timed[0].1.compute.len();
    let mut steps = Vec::with_capacity(timed.len());
    for (s, t) in timed {
        if t.compute.len() != machines_n || t.comm.len() != machines_n {
            return Err(format!(
                "span {} ({}): machine count changed mid-run ({} vs {machines_n})",
                s.id,
                s.name,
                t.compute.len().max(t.comm.len()),
            ));
        }
        steps.push(t);
    }
    let rows = steps.iter().map(|t| (&t.compute[..], &t.comm[..], 0.0));
    let machines = summarize(rows).machines;
    Ok(CriticalPath { steps, machines })
}

/// Machines whose compute exceeded their superstep's median by more than
/// `factor` (only meaningful for `factor >= 1` and a positive median).
pub fn stragglers(cp: &CriticalPath, factor: f64) -> Vec<Straggler> {
    let mut out = Vec::new();
    for (step_index, t) in cp.steps.iter().enumerate() {
        let median = t.median_compute();
        // Skip zero/NaN medians: every compute is zero (aborted step) or
        // the data is poisoned, so "straggler" is meaningless.
        if median.is_nan() || median <= 0.0 {
            continue;
        }
        for (machine, &c) in t.compute.iter().enumerate() {
            if c > median * factor {
                out.push(Straggler {
                    step_index,
                    superstep: t.superstep,
                    machine,
                    compute: c,
                    median,
                });
            }
        }
    }
    out
}

/// Renders the `bpart report --critical-path` output: per-superstep
/// gating rows (elided past [`MAX_STEP_ROWS`]), the per-machine blame
/// table, and the straggler list for `factor`.
pub fn render(cp: &CriticalPath, factor: f64) -> String {
    let mut out = String::new();
    let k = cp.machines.len();
    let _ = writeln!(
        out,
        "critical path: {} supersteps, {k} machines",
        cp.steps.len()
    );
    let _ = writeln!(
        out,
        "\n{:>9}  {:>7}  {:>12}  {:>12}",
        "superstep", "gate", "compute", "waiting"
    );
    let shown = cp.steps.len().min(MAX_STEP_ROWS);
    for t in &cp.steps[..shown] {
        let gate = t.gating_machine();
        let replay = if t.replay { " (replay)" } else { "" };
        let _ = writeln!(
            out,
            "{:>9}  {:>7}  {:>12.4}  {:>12.4}{replay}",
            t.superstep,
            format!("m{gate}"),
            t.compute[gate],
            t.waiting().iter().sum::<f64>(),
        );
    }
    if cp.steps.len() > shown {
        let _ = writeln!(out, "  … {} more supersteps elided", cp.steps.len() - shown);
    }

    let total_critical: f64 = cp.machines.iter().map(|m| m.critical_time).sum();
    let _ = writeln!(out, "\nper-machine blame (critical-path share vs waiting)");
    let _ = writeln!(
        out,
        "{:>7}  {:>12}  {:>12}  {:>12}  {:>12}  {:>6}",
        "machine", "compute", "waiting", "comm", "critical", "gated"
    );
    for (i, m) in cp.machines.iter().enumerate() {
        let share = if total_critical > 0.0 {
            format!(" ({:.1}%)", m.critical_time * 100.0 / total_critical)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{:>7}  {:>12.4}  {:>12.4}  {:>12.4}  {:>12.4}  {:>6}{share}",
            format!("m{i}"),
            m.compute,
            m.waiting,
            m.comm,
            m.critical_time,
            m.gated_steps,
        );
    }

    let found = stragglers(cp, factor);
    let _ = writeln!(out, "\nstragglers (compute > superstep median × {factor})");
    if found.is_empty() {
        let _ = writeln!(out, "  none");
    } else {
        for s in found {
            let _ = writeln!(
                out,
                "  superstep {:>4}: m{} compute {:.4} vs median {:.4} ({:.2}×)",
                s.superstep,
                s.machine,
                s.compute,
                s.median,
                s.compute / s.median,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_span(id: u64, start_ns: u64, name: &str, attrs: &[(&str, String)]) -> Span {
        Span {
            id,
            parent: None,
            name: name.to_string(),
            thread: 0,
            start_ns,
            dur_ns: 1,
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    fn timing_attrs(superstep: u64, compute: &[f64], comm: &[f64]) -> Vec<(&'static str, String)> {
        vec![
            ("superstep", superstep.to_string()),
            ("compute", Timings(compute).to_string()),
            ("comm", Timings(comm).to_string()),
        ]
    }

    #[test]
    fn timings_roundtrip_bit_exactly() {
        let values = vec![0.1, 1.0 / 3.0, 2.5e-17, 0.0, 123456.789, f64::MAX];
        let parsed = parse_timings(&Timings(&values).to_string()).unwrap();
        assert_eq!(values.len(), parsed.len());
        for (a, b) in values.iter().zip(&parsed) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        assert_eq!(parse_timings("").unwrap(), Vec::<f64>::new());
        assert!(parse_timings("1.0,zebra").is_err());
        assert!(parse_timings("1.0,-5").is_err());
        assert!(parse_timings("-inf").is_err());
        assert!(parse_timings("NaN,inf,-0")
            .unwrap()
            .iter()
            .zip([f64::NAN, f64::INFINITY, -0.0])
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn analyze_blames_the_slowest_machine_per_step() {
        let spans = vec![
            step_span(
                1,
                100,
                "cluster.superstep",
                &timing_attrs(0, &[4.0, 2.0], &[0.5, 0.5]),
            ),
            step_span(
                2,
                200,
                "cluster.superstep",
                &timing_attrs(1, &[1.0, 3.0], &[1.0, 1.0]),
            ),
        ];
        let cp = analyze(&spans).unwrap();
        assert_eq!(cp.steps.len(), 2);
        assert_eq!(cp.steps[0].gating_machine(), 0);
        assert_eq!(cp.steps[1].gating_machine(), 1);
        // Same numbers as telemetry.rs's aggregates_over_iterations test.
        assert_eq!(cp.machines[0].compute, 5.0);
        assert_eq!(cp.machines[0].waiting, 2.0);
        assert_eq!(cp.machines[1].waiting, 2.0);
        assert_eq!(cp.machines[0].comm, 1.5);
        assert_eq!(cp.machines[0].gated_steps, 1);
        assert_eq!(cp.machines[0].critical_time, 4.0);
        assert_eq!(cp.machines[1].critical_time, 3.0);
    }

    #[test]
    fn analyze_sorts_by_start_time_and_ties_go_to_lowest_machine() {
        // Inserted out of order; step at t=50 must come first.
        let spans = vec![
            step_span(
                7,
                900,
                "walker.superstep",
                &timing_attrs(1, &[1.0, 1.0, 1.0], &[0.0, 0.0, 0.0]),
            ),
            step_span(
                3,
                50,
                "walker.superstep",
                &timing_attrs(0, &[2.0, 2.0, 1.0], &[0.0, 0.0, 0.0]),
            ),
        ];
        let cp = analyze(&spans).unwrap();
        assert_eq!(cp.steps[0].superstep, 0);
        // Ties: m0 and m1 both at 2.0 (step 0), all at 1.0 (step 1) — m0 wins.
        assert_eq!(cp.machines[0].gated_steps, 2);
        assert_eq!(cp.machines[1].gated_steps, 0);
    }

    #[test]
    fn analyze_skips_attr_less_spans_and_errors_when_none_qualify() {
        let bare = step_span(1, 0, "cluster.superstep", &[("superstep", "0".to_string())]);
        let other = step_span(2, 5, "stream.pass", &[]);
        let err = analyze(&[bare.clone(), other.clone()]).unwrap_err();
        assert!(err.contains("no superstep spans"), "{err}");

        // A bare (aborted) step next to a timed one is skipped, not fatal.
        let timed = step_span(
            3,
            10,
            "cluster.superstep",
            &timing_attrs(1, &[1.0, 5.0], &[0.0, 0.0]),
        );
        let cp = analyze(&[bare, other, timed]).unwrap();
        assert_eq!(cp.steps.len(), 1);
        assert_eq!(cp.machines[1].gated_steps, 1);
    }

    #[test]
    fn analyze_rejects_mid_run_machine_count_changes() {
        let spans = vec![
            step_span(
                1,
                0,
                "cluster.superstep",
                &timing_attrs(0, &[1.0, 2.0], &[0.0, 0.0]),
            ),
            step_span(
                2,
                10,
                "cluster.superstep",
                &timing_attrs(1, &[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]),
            ),
        ];
        let err = analyze(&spans).unwrap_err();
        assert!(err.contains("machine count changed"), "{err}");
    }

    #[test]
    fn a_step_timed_on_no_machines_is_an_error_not_a_panic() {
        let span = step_span(9, 0, "cluster.superstep", &[("compute", String::new())]);
        let err = analyze(&[span]).unwrap_err();
        assert_eq!(err, "span 9 (cluster.superstep): compute: no machines");
    }

    #[test]
    fn replay_and_missing_comm_are_tolerated() {
        let attrs = vec![
            ("superstep", "4".to_string()),
            ("compute", Timings(&[3.0, 1.0]).to_string()),
            ("replay", "true".to_string()),
        ];
        let span = step_span(1, 0, "cluster.superstep", &attrs);
        let cp = analyze(&[span]).unwrap();
        assert!(cp.steps[0].replay);
        assert_eq!(cp.steps[0].comm, vec![0.0, 0.0]);
        assert_eq!(cp.steps[0].superstep, 4);
    }

    #[test]
    fn stragglers_compare_against_the_superstep_median() {
        let spans = vec![step_span(
            1,
            0,
            "cluster.superstep",
            &timing_attrs(0, &[1.0, 1.2, 0.9, 5.0], &[0.0; 4]),
        )];
        let cp = analyze(&spans).unwrap();
        // Median of [0.9, 1.0, 1.2, 5.0] = 1.1; only m3 exceeds 2×.
        let found = stragglers(&cp, 2.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].machine, 3);
        assert_eq!(found[0].superstep, 0);
        assert!((found[0].median - 1.1).abs() < 1e-12);
        // A generous factor finds nothing.
        assert!(stragglers(&cp, 10.0).is_empty());
    }

    #[test]
    fn render_names_the_gate_and_lists_stragglers() {
        let spans = vec![
            step_span(
                1,
                0,
                "cluster.superstep",
                &timing_attrs(0, &[4.0, 1.0], &[0.5, 0.5]),
            ),
            step_span(
                2,
                10,
                "cluster.superstep",
                &timing_attrs(1, &[1.0, 3.0], &[0.5, 0.5]),
            ),
        ];
        let cp = analyze(&spans).unwrap();
        let text = render(&cp, 2.0);
        assert!(text.contains("2 supersteps, 2 machines"), "{text}");
        assert!(text.contains("m0"), "{text}");
        assert!(text.contains("per-machine blame"), "{text}");
        assert!(text.contains("stragglers"), "{text}");
        // m0 gates step 0 at 4.0 compute vs median 2.5 — not a 2× straggler;
        // but against factor 1.5 it is.
        assert!(render(&cp, 1.5).contains("superstep    0: m0"));
    }

    #[test]
    fn nan_compute_poisons_waiting_and_wins_gating() {
        let spans = vec![step_span(
            1,
            0,
            "cluster.superstep",
            &timing_attrs(0, &[1.0, f64::NAN], &[0.0, 0.0]),
        )];
        let cp = analyze(&spans).unwrap();
        assert_eq!(cp.steps[0].gating_machine(), 1);
        assert!(cp.machines.iter().all(|m| m.waiting.is_nan()));
    }

    /// Recovery counts toward the total and nothing else; no rows is the
    /// all-zero summary; a NaN poisons the total and every waiting time.
    #[test]
    fn summarize_charges_recovery_to_the_total_only() {
        let rows: [(&[f64], &[f64], f64); 3] = [
            (&[4.0, 2.0], &[0.0, 0.0], 0.0),
            (&[2.0, 1.0], &[0.0, 0.0], 4.0),
            (&[1.0, 3.0], &[1.0, 1.0], 0.0),
        ];
        let s = summarize(rows);
        assert_eq!(s.total_time, 4.0 + 6.0 + 4.0);
        assert_eq!(s.machines[0].waiting, 2.0);
        assert_eq!(s.machines[1].waiting, 3.0);
        assert_eq!(s.machines[0].ratio, 2.0 / 14.0);
        assert_eq!(s.waiting_ratio, 5.0 / 28.0);
        assert_eq!(
            (s.machines[0].gated_steps, s.machines[1].gated_steps),
            (2, 1)
        );
        assert_eq!(s.machines[0].critical_time, 6.0);
        assert_eq!(summarize([]), Summary::default());
        let poisoned = summarize([(&[1.0, f64::NAN][..], &[0.0, 0.0][..], 0.0)]);
        assert!(poisoned.total_time.is_nan());
        assert!(poisoned.machines.iter().all(|m| m.waiting.is_nan()));
    }
}
