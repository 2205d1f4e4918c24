//! Per-iteration, per-machine execution records and the paper's aggregates.
//!
//! One [`IterationRecord`] is appended per superstep. The aggregates match
//! §4's metrics — total running time, each machine's waiting time, the
//! waiting ratio (Fig. 13) — and are the records folded through
//! [`bpart_obs::analysis::summarize`], the one fold the process driver and
//! the critical-path analyzer use too.

use bpart_obs::analysis::{max_nan_propagating, summarize, Summary};
use parking_lot::Mutex;
use std::sync::OnceLock;

/// One superstep's timings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IterationRecord {
    /// Computation-phase time per machine.
    pub compute: Vec<f64>,
    /// Communication-phase time per machine.
    pub comm: Vec<f64>,
    /// Messages sent per machine.
    pub sent: Vec<u64>,
    /// Machines lost during this superstep (an injected crash, or a panic):
    /// nonzero exactly on a superstep that was abandoned and rolled back.
    pub crashed: u64,
    /// True when this record re-executes a superstep already completed
    /// before a rollback (recovery replay).
    pub replay: bool,
    /// Recovery work charged at this superstep (checkpoint restore after
    /// a crash); added to the superstep's wall time.
    pub recovery: f64,
}

impl IterationRecord {
    /// Wall time of this superstep: slowest compute plus slowest comm,
    /// plus any recovery work (rollback happens with the cluster stalled).
    /// A NaN timing propagates into the result instead of being masked.
    pub fn wall_time(&self) -> f64 {
        let max_c = max_nan_propagating(&self.compute);
        let max_m = max_nan_propagating(&self.comm);
        max_c + max_m + self.recovery
    }
}

/// Accumulates iteration records for one application run. Interior-mutable
/// (a `parking_lot` mutex) so threaded executors can record without
/// plumbing `&mut` through machine closures.
///
/// Recording also feeds the process-wide [`bpart_obs`] metrics registry
/// (`cluster.supersteps`, `cluster.messages`, `cluster.replays`), so
/// metric snapshots cover the BSP layer without a handle on the run's
/// `Telemetry`.
#[derive(Debug, Default)]
pub struct Telemetry {
    records: Mutex<Vec<IterationRecord>>,
}

impl Telemetry {
    /// Fresh, empty telemetry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Appends one superstep record.
    pub fn record(&self, record: IterationRecord) {
        static SUPERSTEPS: OnceLock<&'static bpart_obs::metrics::Counter> = OnceLock::new();
        static MESSAGES: OnceLock<&'static bpart_obs::metrics::Counter> = OnceLock::new();
        static REPLAYS: OnceLock<&'static bpart_obs::metrics::Counter> = OnceLock::new();
        SUPERSTEPS
            .get_or_init(|| bpart_obs::metrics::counter("cluster.supersteps"))
            .inc();
        MESSAGES
            .get_or_init(|| bpart_obs::metrics::counter("cluster.messages"))
            .add(record.sent.iter().sum());
        if record.replay {
            REPLAYS
                .get_or_init(|| bpart_obs::metrics::counter("cluster.replays"))
                .inc();
        }
        self.records.lock().push(record);
    }

    /// Number of supersteps recorded.
    pub fn num_iterations(&self) -> usize {
        self.records.lock().len()
    }

    /// Snapshot of all records.
    pub fn records(&self) -> Vec<IterationRecord> {
        self.records.lock().clone()
    }

    /// Fig. 13 in one call: total time, the global waiting ratio, and each
    /// machine's compute, waiting, comm and gating.
    pub fn summary(&self) -> Summary {
        let records = self.records.lock();
        summarize(
            records
                .iter()
                .map(|r| (&r.compute[..], &r.comm[..], r.recovery)),
        )
    }

    /// Total modelled running time (Σ per-iteration wall time).
    pub fn total_time(&self) -> f64 {
        self.summary().total_time
    }

    /// The paper's Fig. 13 metric: total waiting of all machines divided by
    /// `machines × total running time`. Zero when nothing was recorded.
    pub fn waiting_ratio(&self) -> f64 {
        self.summary().waiting_ratio
    }

    /// Total messages sent by all machines (Fig. 5b's "total message
    /// walks" when the engine sends one message per migrating walker).
    pub fn total_messages(&self) -> u64 {
        self.records
            .lock()
            .iter()
            .flat_map(|r| r.sent.iter().copied())
            .sum()
    }

    /// Machines lost across the run (injected crashes and panics) — the
    /// process backend's worker deaths.
    pub fn crashes(&self) -> u64 {
        self.records.lock().iter().map(|r| r.crashed).sum()
    }

    /// Supersteps abandoned and rolled back — the process backend's
    /// recovery rounds.
    pub fn rollbacks(&self) -> u64 {
        let records = self.records.lock();
        records.iter().filter(|r| r.crashed > 0).count() as u64
    }

    /// Number of supersteps that were recovery replays of previously
    /// completed work. Zero unless a crash forced a rollback.
    pub fn replayed_supersteps(&self) -> usize {
        self.records.lock().iter().filter(|r| r.replay).count()
    }

    /// Total recovery work charged across the run: checkpoint restores
    /// plus the compute re-executed during replayed supersteps. The fold
    /// starts at +0.0: `Iterator::sum` of no terms is −0.0, which a run
    /// report would print as `-0.00`.
    pub fn total_recovery_time(&self) -> f64 {
        self.records
            .lock()
            .iter()
            .map(|r| {
                let replayed = if r.replay {
                    r.wall_time() - r.recovery
                } else {
                    0.0
                };
                r.recovery + replayed
            })
            .fold(0.0, |total, t| total + t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(compute: Vec<f64>, comm: Vec<f64>, sent: Vec<u64>) -> IterationRecord {
        IterationRecord {
            compute,
            comm,
            sent,
            ..IterationRecord::default()
        }
    }

    /// Each machine's barrier wait in `r` alone, as the summary folds it.
    fn waiting(r: &IterationRecord) -> Vec<f64> {
        let t = Telemetry::new();
        t.record(r.clone());
        t.summary().machines.iter().map(|m| m.waiting).collect()
    }

    #[test]
    fn wall_time_takes_the_slowest_of_each_phase() {
        let r = rec(vec![3.0, 5.0], vec![1.0, 0.5], vec![0, 0]);
        assert_eq!(r.wall_time(), 6.0);
        assert_eq!(waiting(&r), vec![2.0, 0.0]);
    }

    #[test]
    fn aggregates_over_iterations() {
        let t = Telemetry::new();
        t.record(rec(vec![4.0, 2.0], vec![0.0, 0.0], vec![1, 2]));
        t.record(rec(vec![1.0, 3.0], vec![1.0, 1.0], vec![3, 4]));
        assert_eq!(t.num_iterations(), 2);
        assert_eq!(t.total_time(), 4.0 + 4.0);
        let waiting: Vec<f64> = t.summary().machines.iter().map(|m| m.waiting).collect();
        assert_eq!(waiting, vec![2.0, 2.0]);
        assert_eq!(t.total_messages(), 10);
        // waiting ratio: (2+2) / (2 machines * 8) = 0.25
        assert!((t.waiting_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn perfectly_balanced_run_has_zero_waiting() {
        let t = Telemetry::new();
        t.record(rec(vec![2.0, 2.0, 2.0], vec![0.5, 0.5, 0.5], vec![0, 0, 0]));
        assert_eq!(t.waiting_ratio(), 0.0);
    }

    #[test]
    fn empty_telemetry_is_zero() {
        let t = Telemetry::new();
        assert_eq!(t.total_time(), 0.0);
        assert_eq!(t.waiting_ratio(), 0.0);
        assert!(t.summary().machines.is_empty());
        assert_eq!(t.total_messages(), 0);
        assert_eq!(t.crashes(), 0);
        assert_eq!(t.replayed_supersteps(), 0);
        assert_eq!(t.total_recovery_time(), 0.0);
    }

    #[test]
    fn an_empty_run_recovers_in_positive_zero() {
        let t = Telemetry::new();
        assert!(t.total_recovery_time().is_sign_positive());
        assert_eq!(format!("{:.2}", t.total_recovery_time()), "0.00");
    }

    #[test]
    fn nan_timings_propagate_instead_of_vanishing() {
        // f64::max drops NaN (NaN.max(x) == x), so the old fold reported a
        // poisoned machine as instantaneous; the aggregate must go NaN.
        let r = rec(vec![3.0, f64::NAN], vec![1.0, 0.5], vec![0, 0]);
        assert!(r.wall_time().is_nan(), "NaN compute must poison wall_time");
        assert!(waiting(&r).iter().all(|w| w.is_nan()));
        // NaN first in the list (the accumulator side) must also survive.
        let r = rec(vec![f64::NAN, 3.0], vec![1.0, 0.5], vec![0, 0]);
        assert!(r.wall_time().is_nan());
        // A NaN comm time poisons wall_time but not compute waiting.
        let r = rec(vec![2.0, 1.0], vec![f64::NAN, 0.5], vec![0, 0]);
        assert!(r.wall_time().is_nan());
        assert_eq!(waiting(&r), vec![0.0, 1.0]);
        // NaN-free records are untouched by the new fold.
        let r = rec(vec![3.0, 5.0], vec![1.0, 0.5], vec![0, 0]);
        assert_eq!(r.wall_time(), 6.0);
    }

    #[test]
    fn summary_breaks_waiting_down_per_machine() {
        let t = Telemetry::new();
        t.record(rec(vec![4.0, 2.0], vec![0.0, 0.0], vec![1, 2]));
        t.record(rec(vec![1.0, 3.0], vec![1.0, 1.0], vec![3, 4]));
        let s = t.summary();
        assert_eq!(s.total_time, 8.0);
        assert!((s.waiting_ratio - 0.25).abs() < 1e-12);
        assert_eq!(s.machines.len(), 2);
        assert_eq!(s.machines[0].compute, 5.0);
        assert_eq!(s.machines[0].waiting, 2.0);
        assert!((s.machines[0].ratio - 0.25).abs() < 1e-12);
        assert_eq!(s.machines[1].waiting, 2.0);
        // Per-machine ratios average to the global ratio by construction.
        let mean: f64 = s.machines.iter().map(|m| m.ratio).sum::<f64>() / s.machines.len() as f64;
        assert!((mean - s.waiting_ratio).abs() < 1e-12);
        // Empty telemetry yields an empty, all-zero summary.
        let empty = Telemetry::new().summary();
        assert_eq!(empty.total_time, 0.0);
        assert!(empty.machines.is_empty());
    }

    #[test]
    fn fault_fields_feed_the_recovery_aggregates() {
        let t = Telemetry::new();
        // Normal superstep, then an aborted one (crash), then its replay.
        t.record(rec(vec![2.0, 1.0], vec![1.0, 1.0], vec![5, 5]));
        t.record(IterationRecord {
            compute: vec![2.0, 1.0],
            comm: vec![0.0, 0.0],
            sent: vec![0, 0],
            crashed: 1,
            replay: false,
            recovery: 4.0,
        });
        t.record(IterationRecord {
            compute: vec![2.0, 1.0],
            comm: vec![1.0, 1.0],
            sent: vec![5, 5],
            crashed: 0,
            replay: true,
            recovery: 0.0,
        });
        assert_eq!((t.crashes(), t.rollbacks()), (1, 1));
        assert_eq!(t.replayed_supersteps(), 1);
        // Recovery time = 4.0 restore + 3.0 replayed superstep wall time.
        assert!((t.total_recovery_time() - 7.0).abs() < 1e-12);
        // Wall time of the aborted superstep includes the restore.
        assert_eq!(t.records()[1].wall_time(), 2.0 + 4.0);
        // Total time counts wasted, restore, and replayed work.
        assert!((t.total_time() - (3.0 + 6.0 + 3.0)).abs() < 1e-12);
    }
}
