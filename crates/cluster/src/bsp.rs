//! The BSP superstep loop: one rollback-replay policy for every engine.
//!
//! [`drive`] owns everything about a run that does not depend on what a
//! machine computes: the superstep counter and its replay high-water
//! mark, panic-versus-injected-crash recovery (two strikes at one
//! superstep end the run), the exchange (below), checkpoint cadence and
//! cost, straggler scaling, and the [`IterationRecord`] plus the
//! `compute`/`comm`/`replay` span attributes of every superstep. An
//! engine supplies a per-machine kernel ([`Machine`]) and a [`Program`]
//! that says what one machine computes, how the machines hand each other
//! what they staged, how traffic is charged, and when the run is over.
//!
//! # The exchange
//!
//! The loop never sees a message. After the compute phase every machine
//! reports how many messages it [`staged`](Machine::staged) for each
//! destination; the per-machine sent / received counts, the link-fault
//! overhead, the `cluster.exchange` span and the `exchange.*` counters are
//! all read off that `k × k` matrix of counts. Moving the data is
//! [`Program::deliver`]'s: it hands machine `to` what `from` staged for it,
//! for `from` ascending — the delivery order every bit-identity guarantee
//! rests on, and the one the process backend's workers follow too — in
//! whatever form the kernel keeps it (the vertex-program kernel's
//! accumulator slots, the walk kernel's per-destination rows), read through
//! the kernel's draining `outgoing(to)`. So a superstep's messages exist
//! once, where their sender combined or staged them.
//!
//! The initial state is an implicit (free) checkpoint, so recovery works
//! with checkpointing disabled, at the price of replaying from superstep
//! zero. Kernels are deterministic, so a replay reproduces the fault-free
//! state bit for bit; only the telemetry shows the damage.
//!
//! The process backend's supervision loop (`bpart_dist::driver`) is not
//! built on this: its failures are observed (heartbeat loss), not
//! injected, and its checkpoint is bytes on the far side of a socket.

use crate::exec::{collect_results, for_each_machine, ExecMode};
use crate::{
    CostModel, FaultPlan, FaultState, IterationRecord, MachineId, Telemetry, UnrecoverableFailure,
    WorkUnits,
};
use bpart_obs::analysis::Timings;
use bpart_obs::metrics::Counter;
use bpart_obs::SpanGuard;
use std::collections::HashMap;
use std::sync::OnceLock;

/// One machine's superstep kernel, as the loop sees it.
pub trait Machine: Send {
    /// What travels between machines: the loop only ever asks its size.
    type Msg;
    /// The state a checkpoint keeps.
    type Snapshot;

    /// How many messages the compute phase staged for each machine of the
    /// run, in machine order. What a machine keeps for itself is no
    /// message: its own entry is 0.
    fn staged(&self) -> Vec<u64>;

    /// The state at a superstep boundary.
    fn snapshot(&self) -> Self::Snapshot;

    /// Rolls back to `snapshot`, dropping whatever a partially executed
    /// (or panicked) superstep left in the scratch.
    fn restore(&mut self, snapshot: &Self::Snapshot);

    /// Units of state in `snapshot`, as the cost model charges them for
    /// writing or restoring a checkpoint.
    fn state_units(snapshot: &Self::Snapshot) -> u64;
}

/// What an engine adds to the loop.
pub trait Program: Sync {
    /// The per-machine kernel.
    type Machine: Machine;
    /// What one machine's compute phase reports.
    type Computed: Send;

    /// Opens the span of `superstep` (its name, `superstep` and any
    /// engine-specific attributes, the progress gauges), or returns
    /// `None` when the run is over.
    fn open(&mut self, superstep: usize, machines: &[Self::Machine]) -> Option<SpanGuard>;

    /// One machine's compute phase; runs on its own thread in
    /// [`ExecMode::Threaded`]. A panic here is a machine failure.
    fn compute(&self, machine: &mut Self::Machine) -> Self::Computed;

    /// Receives every machine's report once all of them computed, before
    /// injected crashes fire; returns the work each one is charged for.
    fn computed(&mut self, out: Vec<Self::Computed>, span: &mut SpanGuard) -> Vec<WorkUnits>;

    /// Delivers the exchange: hands `machines[to]` what every other
    /// machine staged for it, for `from` ascending, leaving nothing staged;
    /// returns the further work each machine is charged for.
    fn deliver(&mut self, superstep: usize, machines: &mut [Self::Machine]) -> Vec<WorkUnits>;

    /// Told after a rollback that the run resumes at `superstep`: whatever
    /// the program itself kept of later supersteps is void. The machines
    /// were restored already.
    fn rolled_back(&mut self, _superstep: usize) {}

    /// Per-machine `(sent, received)` message counts the communication
    /// phase is charged for: by default `sent` and `received`, what
    /// crossed the exchange.
    fn traffic(&self, sent: &[u64], received: &[u64]) -> (Vec<u64>, Vec<u64>) {
        (sent.to_vec(), received.to_vec())
    }
}

/// How a run executes and what goes wrong during it.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Converts counted work into modelled time.
    pub cost: CostModel,
    /// Sequential or one thread per machine.
    pub mode: ExecMode,
    /// Faults injected during the run.
    pub faults: FaultPlan,
    /// Checkpoint after every this many supersteps (positive).
    pub checkpoint_every: Option<usize>,
}

/// Modelled time to restore every machine from `snapshots` (machines
/// restore in parallel, so the stall is the slowest restore).
fn restore_time<M: Machine>(cost: &CostModel, snapshots: &[M::Snapshot]) -> f64 {
    snapshots
        .iter()
        .map(|s| cost.checkpoint_time(M::state_units(s)))
        .fold(0.0, f64::max)
}

/// Runs `program` over `machines` to completion, surviving injected
/// faults and panicking machines via checkpoint rollback and replay.
/// Returns the telemetry and the number of logical supersteps (replays
/// are not double-counted; they appear in the telemetry).
///
/// Returns `Err` only when recovery cannot make progress: a machine
/// panics at the same superstep on the replay attempt too, which a
/// deterministic program would repeat forever.
pub fn drive<P: Program>(
    cfg: &Config,
    program: &mut P,
    machines: &mut [P::Machine],
) -> Result<(Telemetry, usize), UnrecoverableFailure> {
    let k = machines.len();
    let telemetry = Telemetry::new();
    let mut faults = FaultState::new(cfg.faults.clone());
    let snapshot_all = |machines: &[P::Machine]| machines.iter().map(Machine::snapshot).collect();
    // `(next superstep to run, one snapshot per machine)`.
    let mut checkpoint: (usize, Vec<_>) = (0, snapshot_all(machines));
    // `superstep` moves backwards on rollback; `high_water` marks how far
    // the run ever got, so replays can be flagged.
    let (mut superstep, mut high_water) = (0usize, 0usize);
    let mut failures_at: HashMap<usize, u32> = HashMap::new();
    static MESSAGES: OnceLock<&'static Counter> = OnceLock::new();
    static BYTES: OnceLock<&'static Counter> = OnceLock::new();
    let straggle = |faults: &FaultState, superstep: usize, compute: &mut [f64]| {
        for (m, c) in compute.iter_mut().enumerate() {
            *c *= faults.compute_factor(superstep, m as MachineId);
        }
    };

    'run: while let Some(mut span) = program.open(superstep, machines) {
        let replaying = superstep < high_water;
        span.attr("replay", replaying);

        // The block either completes the superstep and `continue`s, or
        // breaks with the wasted compute times and the faults that fired.
        let (wasted, fired) = 'superstep: {
            let shared: &P = program;
            let results = for_each_machine(cfg.mode, machines, |_, s| shared.compute(s));
            let out = match collect_results(results) {
                Ok(out) => out,
                Err((machine, failure)) => {
                    // A panicked machine may have half-updated its state;
                    // the superstep cannot complete. Give up if the replay
                    // attempt failed too, otherwise roll back and retry.
                    let attempts = failures_at.entry(superstep).or_insert(0);
                    *attempts += 1;
                    if *attempts >= 2 {
                        return Err(UnrecoverableFailure {
                            superstep,
                            machine,
                            failure,
                        });
                    }
                    break 'superstep (vec![0.0; k], 1);
                }
            };
            let mut compute: Vec<f64> = program
                .computed(out, &mut span)
                .iter()
                .map(|w| cfg.cost.compute_time(w))
                .collect();

            // ---- the exchange barrier: injected crashes fire here ----------
            let crashed = faults.take_crashes(superstep);
            if !crashed.is_empty() {
                // The compute phase ran and is wasted; it still counts
                // toward waiting. The exchange never completes, so no comm
                // is charged (the analyzer defaults it to zeros, matching
                // the record).
                straggle(&faults, superstep, &mut compute);
                span.attr("compute", Timings(&compute));
                break 'superstep (compute, crashed.len() as u64);
            }

            // ---- exchange ----------------------------------------------------
            // Link faults act on the staged wire payload: a drop costs the
            // sender a retransmission, a duplicate costs the receiver a
            // discarded copy. Payloads still arrive exactly once.
            let (mut sent, mut received) = (vec![0u64; k], vec![0u64; k]);
            let (mut sent_extra, mut received_extra) = (vec![0u64; k], vec![0u64; k]);
            let mut link_events = 0u64;
            let link_faults = cfg.faults.has_link_faults();
            let mut exchange = bpart_obs::span("cluster.exchange");
            for (from, s) in machines.iter().enumerate() {
                for (to, count) in s.staged().into_iter().enumerate() {
                    sent[from] += count;
                    received[to] += count;
                    if link_faults && count > 0 {
                        let overhead = faults.link_overhead(
                            superstep,
                            from as MachineId,
                            to as MachineId,
                            count,
                        );
                        sent_extra[from] += overhead.dropped;
                        received_extra[to] += overhead.duplicated;
                        link_events += overhead.total();
                    }
                }
            }
            let messages: u64 = sent.iter().sum();
            exchange.attr("messages", messages);
            MESSAGES
                .get_or_init(|| bpart_obs::metrics::counter("exchange.messages"))
                .add(messages);
            BYTES
                .get_or_init(|| bpart_obs::metrics::counter("exchange.bytes"))
                .add(messages * std::mem::size_of::<<P::Machine as Machine>::Msg>() as u64);
            drop(exchange);
            let delivered = program.deliver(superstep, machines);
            for (c, w) in compute.iter_mut().zip(&delivered) {
                *c += cfg.cost.compute_time(w);
            }

            // ---- checkpoint --------------------------------------------------
            if cfg
                .checkpoint_every
                .is_some_and(|every| (superstep + 1) % every == 0)
            {
                let _span = bpart_obs::span("cluster.checkpoint");
                checkpoint = (superstep + 1, snapshot_all(machines));
                for (c, s) in compute.iter_mut().zip(&checkpoint.1) {
                    *c += cfg.cost.checkpoint_time(P::Machine::state_units(s));
                }
                bpart_obs::metrics::counter("cluster.checkpoints").inc();
            }

            // ---- telemetry ---------------------------------------------------
            straggle(&faults, superstep, &mut compute);
            let (mut sent, received) = program.traffic(&sent, &received);
            let comm: Vec<f64> = (0..k)
                .map(|m| {
                    sent[m] += sent_extra[m];
                    cfg.cost.comm_time(sent[m], received[m] + received_extra[m])
                })
                .collect();
            // Per-machine timings on the span (shortest round-trip `f64`
            // formatting): the critical-path analyzer folds them through the
            // fold `Telemetry::summary()` uses, so the two agree bit-exactly.
            span.attr("compute", Timings(&compute));
            span.attr("comm", Timings(&comm));
            telemetry.record(IterationRecord {
                compute,
                comm,
                sent,
                faults: link_events,
                crashed: 0,
                replay: replaying,
                recovery: 0.0,
            });
            superstep += 1;
            high_water = high_water.max(superstep);
            continue 'run;
        };

        // ---- rollback: charge the restore, record the abandoned superstep ----
        telemetry.record(IterationRecord {
            compute: wasted,
            comm: vec![0.0; k],
            sent: vec![0; k],
            faults: fired,
            crashed: fired,
            replay: replaying,
            recovery: restore_time::<P::Machine>(&cfg.cost, &checkpoint.1),
        });
        bpart_obs::metrics::counter("cluster.recoveries").inc();
        for (s, snapshot) in machines.iter_mut().zip(&checkpoint.1) {
            s.restore(snapshot);
        }
        superstep = checkpoint.0;
        program.rolled_back(superstep);
    }
    Ok((telemetry, superstep))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stages what the script says into plain per-destination rows and
    /// records what it is delivered.
    struct Node {
        id: MachineId,
        /// `rows[to]`: what this node staged for `to`, its own included.
        rows: Vec<Vec<u32>>,
        /// `(sender, payload)` in delivery order.
        seen: Vec<(MachineId, u32)>,
        deliveries: usize,
    }

    impl Machine for Node {
        type Msg = u32;
        type Snapshot = ();

        /// A self-message is allowed here, and counted.
        fn staged(&self) -> Vec<u64> {
            self.rows.iter().map(|row| row.len() as u64).collect()
        }
        fn snapshot(&self) {}
        fn restore(&mut self, _: &()) {}
        fn state_units(_: &()) -> u64 {
            0
        }
    }

    /// `sends[superstep]` lists `(from, to, payload)`.
    struct Script {
        sends: Vec<Vec<(MachineId, MachineId, u32)>>,
        at: usize,
    }

    impl Program for Script {
        type Machine = Node;
        type Computed = ();

        fn open(&mut self, superstep: usize, _: &[Node]) -> Option<SpanGuard> {
            self.at = superstep;
            (superstep < self.sends.len()).then(|| bpart_obs::span("cluster.superstep"))
        }
        fn compute(&self, node: &mut Node) {
            for &(from, to, payload) in &self.sends[self.at] {
                if from == node.id {
                    node.rows[to as usize].push(payload);
                }
            }
        }
        fn computed(&mut self, out: Vec<()>, _: &mut SpanGuard) -> Vec<WorkUnits> {
            vec![WorkUnits::default(); out.len()]
        }
        /// Drains `rows[to]` of every sender in place, ascending — what
        /// both engines' deliveries do.
        fn deliver(&mut self, _: usize, nodes: &mut [Node]) -> Vec<WorkUnits> {
            for to in 0..nodes.len() {
                nodes[to].deliveries += 1;
                for from in 0..nodes.len() {
                    let arrived: Vec<u32> = nodes[from].rows[to].drain(..).collect();
                    let from = from as MachineId;
                    nodes[to]
                        .seen
                        .extend(arrived.into_iter().map(|p| (from, p)));
                }
            }
            vec![WorkUnits::default(); nodes.len()]
        }
    }

    fn nodes(k: usize) -> Vec<Node> {
        (0..k)
            .map(|id| Node {
                id: id as MachineId,
                rows: vec![Vec::new(); k],
                seen: Vec::new(),
                deliveries: 0,
            })
            .collect()
    }

    fn run(
        nodes: &mut [Node],
        sends: Vec<Vec<(MachineId, MachineId, u32)>>,
        faults: FaultPlan,
    ) -> Result<Telemetry, UnrecoverableFailure> {
        let cfg = Config {
            faults,
            ..Config::default()
        };
        let mut script = Script { sends, at: 0 };
        drive(&cfg, &mut script, nodes).map(|(telemetry, _)| telemetry)
    }

    #[test]
    fn exchange_delivers_in_sender_order() {
        let mut nodes = nodes(3);
        // A self-message is allowed.
        let sends = vec![vec![(2, 0, 20), (1, 0, 10), (1, 0, 11), (0, 0, 0)]];
        let telemetry = run(&mut nodes, sends, FaultPlan::new()).unwrap();
        assert_eq!(nodes[0].seen, [(0, 0), (1, 10), (1, 11), (2, 20)]);
        assert!(nodes[1].seen.is_empty() && nodes[2].seen.is_empty());
        let record = &telemetry.records()[0];
        assert_eq!(record.sent, [1, 2, 1]);
        // Received is `[4, 0, 0]`: it shows in the communication charge.
        let cost = CostModel::default();
        let comm = [(1, 4), (2, 0), (1, 0)].map(|(s, r)| cost.comm_time(s, r));
        assert_eq!(record.comm, comm);
    }

    #[test]
    fn exchange_drains_the_buffers() {
        let mut nodes = nodes(2);
        let telemetry = run(&mut nodes, vec![vec![(0, 1, 1)], vec![]], FaultPlan::new());
        assert_eq!(telemetry.unwrap().records()[1].sent, [0, 0]);
        // Nothing of the first superstep was delivered again in the second.
        assert_eq!(nodes[1].seen, [(0, 1)]);
        assert!(nodes.iter().all(|n| n.rows.iter().all(Vec::is_empty)));
    }

    #[test]
    fn sent_totals_accumulate_across_supersteps() {
        let mut nodes = nodes(2);
        let sends = vec![vec![(0, 1, 1)], vec![(0, 1, 2), (1, 0, 3)]];
        let telemetry = run(&mut nodes, sends, FaultPlan::new()).unwrap();
        let totals = telemetry
            .records()
            .iter()
            .fold([0, 0], |acc, r| [acc[0] + r.sent[0], acc[1] + r.sent[1]]);
        assert_eq!(totals, [2, 1]);
        assert_eq!(telemetry.total_messages(), 3);
    }

    #[test]
    fn every_superstep_delivers_like_the_first() {
        let mut nodes = nodes(3);
        let sends: Vec<Vec<_>> = (0..3)
            .map(|step| vec![(2, 0, 20 + step), (1, 0, 10 + step), (0, 2, 5 + step)])
            .collect();
        run(&mut nodes, sends, FaultPlan::new()).unwrap();
        assert_eq!(
            nodes[0].seen,
            [(1, 10), (2, 20), (1, 11), (2, 21), (1, 12), (2, 22)]
        );
        assert_eq!(nodes[2].seen, [(0, 5), (0, 6), (0, 7)]);
    }

    #[test]
    fn one_delivery_per_superstep() {
        let mut nodes = nodes(2);
        run(
            &mut nodes,
            vec![vec![(0, 1, 9)], vec![], vec![]],
            FaultPlan::new(),
        )
        .unwrap();
        assert_eq!(nodes[1].seen, [(0, 9)]);
        assert!(nodes.iter().all(|n| n.deliveries == 3));
    }

    #[test]
    fn staged_matrix_counts_per_link() {
        // Link faults are charged per directed link, off the staged
        // counts: everything on 0 -> 1 is retransmitted, nothing else is.
        let mut nodes = nodes(3);
        let sends = vec![vec![(0, 1, 1), (0, 1, 2), (2, 0, 3), (1, 0, 4)]];
        let faults = FaultPlan::new().drop_link(0, 0, 0, 1, 1.0);
        let telemetry = run(&mut nodes, sends, faults).unwrap();
        let record = &telemetry.records()[0];
        assert_eq!(record.sent, [2 + 2, 1, 1]);
        assert_eq!(record.faults, 2);
        // The payloads still arrive exactly once.
        assert_eq!(nodes[1].seen, [(0, 1), (0, 2)]);
        assert_eq!(nodes[0].seen, [(1, 4), (2, 3)]);
    }
}
