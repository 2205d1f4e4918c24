//! What only a driver knows about its workers' observability.
//!
//! Every worker of a `--backend process` run ships [`Snapshot`]s of itself
//! (the `dist` protocol's `ObsReport`); the driver absorbs them into the
//! process-global [`FederationStore`], and the views in [`crate::export`]
//! render each worker beside the driver through [`FederationStore::sources`].
//! A snapshot says everything a worker knows about itself; the store adds
//! what it cannot know:
//!
//! * **Which report is newest.** Reports are ordered by `(epoch, seq)` —
//!   a respawned worker restarts `seq` and its span ids under a bumped
//!   epoch — and a dead incarnation's last reports can still surface
//!   after its successor's first. The latest snapshot is the one with the
//!   greatest key; spans are unioned by `(epoch, id)`. On an equal key the
//!   first arrival stays: a real duplicate is identical. So the store is a
//!   function of the *set* of reports absorbed
//!   (`tests/proptest_federation.rs`).
//! * **Worker identity is a label.** Federated series render with a
//!   `worker="3"` label; [`worker_label`] is injective (decimal digits
//!   only), so sanitisation can never alias two workers.
//! * **Clocks are aligned, not trusted.** Each report echoes the
//!   driver's `StepBegin` send timestamp plus the worker's receive/send
//!   timestamps (all on [`crate::tracer::now_ns`], the clock spans are
//!   recorded on). The driver runs the NTP-style estimate
//!   `offset = ((t1−t0)+(t2−t3))/2`, keeps the minimum-RTT sample, and
//!   worker spans are rebased by it when exported.
//! * **Death leaves a snapshot behind.** [`FederationStore::mark_dead`]
//!   flags the worker stale and counts the death; its last snapshot stays
//!   until a fresh report (respawn) replaces it and clears the flag.
//!   `/healthz` turns structured — `ok` / `degraded` with the dead-worker
//!   count, the deaths so far and the recovery flag — only when a
//!   distributed driver has set its cluster size; standalone runs keep the
//!   plain `ok`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::export::Source;
use crate::json::Str;
use crate::snapshot::Snapshot;

/// The best clock sample of one worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClockSample {
    /// Round trip of the exchange the estimate came from.
    pub rtt_ns: u64,
    /// Estimated `worker_clock − driver_clock`.
    pub offset_ns: i64,
}

/// Everything the driver holds about one worker.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerObs {
    /// `(epoch, seq)` of the report `snapshot`'s metrics came from; `None`
    /// before the first report.
    pub key: Option<(u32, u64)>,
    /// The worker as of that report, with every span shipped so far —
    /// worker span ids restart on respawn, but respawn bumps the epoch.
    pub snapshot: Snapshot,
    /// `(epoch, id)` of each of `snapshot.spans`, ascending.
    pub(crate) span_keys: Vec<(u32, u64)>,
    /// Supersteps the driver's barrier saw this worker finish: one past
    /// the highest (`/progress`).
    pub supersteps: u64,
    /// The minimum-RTT clock sample (it bounds the offset error the
    /// tightest); `None` until a report echoes a `StepBegin`.
    pub clock: Option<ClockSample>,
    /// True between a detected death and the next fresh report.
    pub stale: bool,
    /// Observed deaths of this worker slot.
    pub deaths: u64,
}

/// The driver's cluster-wide observability state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FederationStore {
    pub workers: BTreeMap<u32, WorkerObs>,
    /// The distributed driver's worker count; 0 in a standalone process,
    /// whose `/healthz` keeps the plain `ok` body.
    pub cluster_size: usize,
    /// True while a recovery (rollback/replay) is in flight.
    pub recovering: bool,
}

impl FederationStore {
    /// Absorbs one worker report: its snapshot, whose spans are the delta
    /// since the worker's previous report. A strictly newer report clears
    /// the stale flag; a duplicate changes nothing.
    pub fn absorb(&mut self, worker: u32, epoch: u32, seq: u64, report: Snapshot) {
        let obs = self.workers.entry(worker).or_default();
        let Snapshot { metrics, spans } = report;
        for span in spans {
            let key = (epoch, span.id);
            // Close order is nearly id order, so this is nearly a push.
            if let Err(at) = obs.span_keys.binary_search(&key) {
                obs.span_keys.insert(at, key);
                obs.snapshot.spans.insert(at, span);
            }
        }
        if obs.key.map_or(true, |held| (epoch, seq) > held) {
            obs.key = Some((epoch, seq));
            obs.snapshot.metrics = metrics;
            obs.stale = false;
        }
    }

    /// Notes that `worker` finished `superstep`.
    pub fn finished(&mut self, worker: u32, superstep: u64) {
        let obs = self.workers.entry(worker).or_default();
        obs.supersteps = obs.supersteps.max(superstep + 1);
    }

    /// Records one clock sample for `worker`; the minimum-RTT one is kept.
    pub fn record_clock_sample(&mut self, worker: u32, rtt_ns: u64, offset_ns: i64) {
        let obs = self.workers.entry(worker).or_default();
        if obs
            .clock
            .map_or(true, |c| (rtt_ns, offset_ns) < (c.rtt_ns, c.offset_ns))
        {
            obs.clock = Some(ClockSample { rtt_ns, offset_ns });
        }
    }

    /// Marks `worker` dead: the stale flag raises and the death counts.
    pub fn mark_dead(&mut self, worker: u32) {
        let obs = self.workers.entry(worker).or_default();
        obs.stale = true;
        obs.deaths += 1;
    }

    /// The sources of a cluster-wide view: `local` first, then every
    /// worker in id order.
    pub fn sources<'a>(&'a self, local: &'a Snapshot) -> Vec<Source<'a>> {
        let workers = self.workers.iter().map(|(&w, obs)| Source::Worker(w, obs));
        std::iter::once(Source::Local(local))
            .chain(workers)
            .collect()
    }

    /// Currently-stale (dead, not yet respawned-and-reporting) workers.
    pub fn dead_workers(&self) -> usize {
        self.workers.values().filter(|w| w.stale).count()
    }

    /// The `/healthz` body. Plain `ok` until a distributed driver sets the
    /// cluster size; then JSON with the dead-worker count,
    /// the deaths so far (the sum of the `bpart_federation_deaths`
    /// series) and the recovery-in-progress flag, `degraded` when any of
    /// the three is set and `ok` otherwise.
    pub fn health_body(&self) -> String {
        if self.cluster_size == 0 {
            return "ok\n".to_string();
        }
        let dead = self.dead_workers();
        let deaths: u64 = self.workers.values().map(|w| w.deaths).sum();
        let degraded = dead > 0 || self.recovering || deaths > 0;
        format!(
            "{{\"status\":{},\"workers\":{},\"dead\":{dead},\"deaths\":{deaths},\"recovering\":{}}}\n",
            Str(if degraded { "degraded" } else { "ok" }),
            self.cluster_size,
            self.recovering,
        )
    }
}

/// Rebases a worker-clock timestamp onto the driver clock by the
/// estimated offset (`worker − driver`), saturating at zero/`u64::MAX`.
pub fn rebase_ns(worker_ns: u64, offset_ns: i64) -> u64 {
    let rebased = i128::from(worker_ns) - i128::from(offset_ns);
    rebased.clamp(0, i128::from(u64::MAX)) as u64
}

/// The `worker="…"` label value for a worker id. Decimal digits only —
/// injective under any sanitisation, so two workers can never alias.
pub fn worker_label(worker: u32) -> String {
    worker.to_string()
}

/// Base of the exported span-id range of `worker`'s incarnation `epoch`:
/// far above any live driver tracer id, and disjoint per worker and per
/// epoch while a run has fewer than 256 epochs and an incarnation records
/// fewer than 2^32 spans.
pub(crate) fn worker_span_id_base(worker: u32, epoch: u32) -> u64 {
    ((u64::from(worker) + 1) << 40) + (u64::from(epoch) << 32)
}

// ---------------------------------------------------------------------------
// Process-global store + collection gate
// ---------------------------------------------------------------------------

static COLLECTION_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns federation collection on/off process-wide. The CLI enables it
/// when any obs export surface is active (`--trace-out`, `--serve-addr`,
/// `--metrics-out`, …); the driver propagates the flag to workers in
/// `StepBegin`, so a no-obs run ships no reports at all.
pub fn set_collection_enabled(enabled: bool) {
    COLLECTION_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether federation collection is on.
pub fn collection_enabled() -> bool {
    COLLECTION_ENABLED.load(Ordering::Relaxed)
}

fn store_cell() -> &'static Mutex<FederationStore> {
    static STORE: OnceLock<Mutex<FederationStore>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(FederationStore::default()))
}

/// Locks the process-global federation store (the one the serve
/// endpoints and exporters read).
pub fn global() -> MutexGuard<'static, FederationStore> {
    store_cell().lock().unwrap_or_else(|p| p.into_inner())
}

/// Resets the global store (tests and fresh runs).
pub fn reset() {
    *global() = FederationStore::default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export;
    use crate::snapshot::{HistogramValue, Metrics, Span};

    fn sample_metrics(v: u64) -> Metrics {
        let mut m = Metrics::default();
        m.counters.insert("dist.frames".to_string(), v);
        m.gauges.insert("cluster.progress".to_string(), v as f64);
        m.histograms.insert(
            "dist.frame_bytes".to_string(),
            HistogramValue {
                bounds: vec![64.0, 4096.0],
                buckets: vec![v, 1, 0],
                count: v + 1,
                sum: 100.0 * v as f64,
            },
        );
        m
    }

    fn report(v: u64) -> Snapshot {
        Snapshot {
            metrics: sample_metrics(v),
            ..Snapshot::default()
        }
    }

    fn sample_span(id: u64, superstep: u64) -> Span {
        Span {
            id,
            parent: None,
            name: "worker.superstep".to_string(),
            thread: 0,
            start_ns: 1000 * id,
            dur_ns: 10,
            attrs: vec![
                ("superstep".to_string(), superstep.to_string()),
                ("epoch".to_string(), "0".to_string()),
            ],
        }
    }

    #[test]
    fn absorb_is_idempotent_per_worker_seq() {
        let mut store = FederationStore::default();
        let sent = Snapshot {
            spans: vec![sample_span(1, 0)],
            ..report(5)
        };
        store.absorb(2, 0, 1, sent.clone());
        let once = store.clone();
        store.absorb(2, 0, 1, sent);
        assert_eq!(store, once, "re-delivery must be a no-op");
    }

    #[test]
    fn fresh_report_clears_stale_and_death_pins_snapshot() {
        let mut store = FederationStore {
            cluster_size: 3,
            ..Default::default()
        };
        store.absorb(1, 0, 1, report(9));
        store.mark_dead(1);
        assert!(store.workers[&1].stale);
        assert_eq!(store.workers[&1].deaths, 1);
        assert_eq!(
            store.workers[&1].snapshot.metrics,
            sample_metrics(9),
            "death must leave the last snapshot behind"
        );
        assert_eq!(store.dead_workers(), 1);
        assert!(store.health_body().contains("\"status\":\"degraded\""));

        // The respawned worker reports under a bumped epoch: stale clears
        // and its report replaces the dead incarnation's.
        store.absorb(1, 1, 1, report(2));
        assert!(!store.workers[&1].stale);
        assert_eq!(store.dead_workers(), 0);
        assert_eq!(store.workers[&1].snapshot.metrics, sample_metrics(2));
    }

    #[test]
    fn stale_report_does_not_regress_the_snapshot() {
        let mut store = FederationStore::default();
        let newest = Snapshot { ..report(50) };
        store.absorb(0, 1, 5, newest.clone());
        // An older (epoch, seq) report arrives late: its metrics are
        // ignored, its spans still join the union.
        let late = Snapshot {
            spans: vec![sample_span(4, 1)],
            ..report(1)
        };
        store.absorb(0, 0, 9, late);
        let obs = &store.workers[&0];
        assert_eq!(obs.key, Some((1, 5)));
        assert_eq!(obs.snapshot.metrics, newest.metrics);
        assert_eq!(obs.snapshot.spans, [sample_span(4, 1)]);
    }

    #[test]
    fn health_body_defaults_to_plain_ok() {
        // Standalone (non-distributed) processes keep the exact liveness
        // body the serve tests assert on.
        let store = FederationStore::default();
        assert_eq!(store.health_body(), "ok\n");
    }

    #[test]
    fn health_body_reports_structured_states() {
        let mut store = FederationStore {
            cluster_size: 4,
            ..Default::default()
        };
        let body = |status, dead, deaths, recovering| {
            format!(
                "{{\"status\":\"{status}\",\"workers\":4,\"dead\":{dead},\
                 \"deaths\":{deaths},\"recovering\":{recovering}}}\n"
            )
        };
        assert_eq!(store.health_body(), body("ok", 0, 0, false));
        store.recovering = true;
        assert_eq!(store.health_body(), body("degraded", 0, 0, true));
        store.mark_dead(2);
        store.recovering = false;
        assert_eq!(store.health_body(), body("degraded", 1, 1, false));
        // Respawned, stale cleared: the one death still degrades the run.
        store.absorb(2, 1, 1, report(1));
        assert_eq!(store.health_body(), body("degraded", 0, 1, false));
    }

    #[test]
    fn prometheus_federated_labels_every_series() {
        let mut store = FederationStore::default();
        store.absorb(3, 0, 2, report(6));
        store.record_clock_sample(3, 5000, -120);
        let local = Snapshot::default();
        let text = export::prometheus(&store.sources(&local));
        for line in [
            "dist_frames{worker=\"3\"} 6",
            "cluster_progress{worker=\"3\"} 6",
            "dist_frame_bytes_bucket{worker=\"3\",le=\"64\"} 6",
            "dist_frame_bytes_bucket{worker=\"3\",le=\"+Inf\"} 7",
            "bpart_federation_stale{worker=\"3\"} 0",
            "bpart_federation_seq{worker=\"3\"} 2",
            "bpart_federation_clock_offset_ns{worker=\"3\"} -120",
        ] {
            assert!(text.contains(line), "missing {line}:\n{text}");
        }
        store.mark_dead(3);
        assert!(
            export::prometheus(&store.sources(&local))
                .contains("bpart_federation_stale{worker=\"3\"} 1"),
            "death must surface as staleness"
        );
    }

    #[test]
    fn cluster_profile_folded_prefixes_worker_sections() {
        let mut store = FederationStore::default();
        // `(id, parent, name, dur_ns)` of each span.
        let traced = |spans: &[(u64, Option<u64>, &str, u64)]| Snapshot {
            spans: spans
                .iter()
                .map(|&(id, parent, name, dur_ns)| Span {
                    parent,
                    name: name.to_string(),
                    dur_ns,
                    ..sample_span(id, 0)
                })
                .collect(),
            ..Snapshot::default()
        };
        store.absorb(
            1,
            0,
            1,
            traced(&[(1, None, "a", 3), (2, Some(1), "b", 3), (3, None, "c", 1)]),
        );
        store.absorb(2, 0, 1, traced(&[(1, None, "x", 5)]));
        let local = traced(&[(1, None, "main", 2)]);
        let folded = export::folded(&store.sources(&local));
        assert_eq!(
            folded,
            "driver;main 2\nworker:1;a;b 3\nworker:1;c 1\nworker:2;x 5\n"
        );
        // The merged document must itself be valid folded text.
        export::parse_folded(&folded).expect("cluster view parses");
    }

    #[test]
    fn prometheus_federated_emits_rtt_quantiles() {
        // Read from the local `dist.rpc_rtt_ns` histogram through the
        // shared quantile estimator.
        let mut local = Snapshot::default();
        local.metrics.histograms.insert(
            "dist.rpc_rtt_ns".to_string(),
            HistogramValue {
                bounds: vec![1_000.0, 1_000_000.0],
                buckets: vec![2, 0, 0],
                count: 2,
                sum: 1100.0,
            },
        );
        let text = export::prometheus(&FederationStore::default().sources(&local));
        assert!(text.contains("bpart_federation_rtt_p50 500\n"), "{text}");
        assert!(text.contains("bpart_federation_rtt_p90 "), "{text}");
        assert!(text.contains("bpart_federation_rtt_p99 "), "{text}");
    }

    #[test]
    fn progress_json_lists_workers() {
        let mut store = FederationStore::default();
        store.absorb(0, 1, 4, report(3));
        // A replayed superstep is no further one.
        for superstep in [0, 1, 0] {
            store.finished(0, superstep);
        }
        let json = export::progress_json(&store.sources(&Snapshot::default()));
        assert_eq!(
            json,
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"workers\":{\"0\":{\"stale\":false,\
             \"deaths\":0,\"epoch\":1,\"seq\":4,\"counters\":{\"dist.frames\":3},\"supersteps\":2}}}"
        );
    }

    #[test]
    fn worker_trace_rebases_and_nests_under_driver_supersteps() {
        let mut store = FederationStore::default();
        let child = Span {
            parent: Some(1),
            name: "worker.compute".to_string(),
            attrs: vec![],
            ..sample_span(2, 7)
        };
        let sent = Snapshot {
            spans: vec![sample_span(1, 7), child],
            ..Snapshot::default()
        };
        store.absorb(0, 0, 1, sent);
        store.record_clock_sample(0, 100, 600);
        // The driver's span of the same (epoch, superstep) is in the view.
        let local = Snapshot {
            spans: vec![Span {
                name: "cluster.superstep".to_string(),
                ..sample_span(42, 7)
            }],
            ..Snapshot::default()
        };
        let jsonl = export::spans_jsonl(&store.sources(&local));
        let (root, nested) = ((1u64 << 40) + 1, (1u64 << 40) + 2);
        // Root worker.superstep parents under driver span 42; timestamps
        // are rebased by the 600ns offset (1000 → 400, saturating).
        for part in [
            format!("\"id\":{root},\"parent\":42,"),
            format!("\"id\":{nested},\"parent\":{root},"),
            "\"start_ns\":400,".to_string(),
            "\"start_ns\":1400,".to_string(),
        ] {
            assert!(jsonl.contains(&part), "missing {part}:\n{jsonl}");
        }
        // And the output parses with the report reader.
        let parsed = crate::report::parse_trace_jsonl(&jsonl).expect("parse");
        assert_eq!(parsed.len(), 3);
        // Without the driver's span the worker root stays a root.
        let alone = export::spans_jsonl(&store.sources(&Snapshot::default()));
        assert!(
            alone.contains(&format!("\"id\":{root},\"parent\":null,")),
            "{alone}"
        );
    }

    #[test]
    fn rebase_saturates_instead_of_wrapping() {
        assert_eq!(rebase_ns(100, 600), 0);
        assert_eq!(rebase_ns(100, -600), 700);
        assert_eq!(rebase_ns(u64::MAX, -1), u64::MAX);
        assert_eq!(rebase_ns(0, i64::MIN), i64::MIN.unsigned_abs());
    }

    #[test]
    fn clock_samples_keep_the_min_rtt() {
        let mut store = FederationStore::default();
        store.record_clock_sample(0, 9000, 500);
        store.record_clock_sample(0, 3000, -200);
        store.record_clock_sample(0, 7000, 999);
        let clock = store.workers[&0].clock.expect("sampled");
        assert_eq!((clock.rtt_ns, clock.offset_ns), (3000, -200));
    }

    #[test]
    fn worker_labels_are_injective_digits() {
        for w in [0u32, 1, 7, 10, 4_294_967_295] {
            let label = worker_label(w);
            assert!(label.chars().all(|c| c.is_ascii_digit()));
            assert_eq!(label.parse::<u32>(), Ok(w));
        }
    }

    #[test]
    fn global_store_resets() {
        // Serialise against other tests that touch the global store.
        reset();
        global().recovering = true;
        assert!(global().recovering);
        reset();
        assert!(!global().recovering);
    }
}
