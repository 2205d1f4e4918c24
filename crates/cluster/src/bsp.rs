//! The BSP superstep loop: one rollback-replay policy for every backend.
//!
//! [`run`] owns everything about a run that does not depend on what the
//! machines are: the superstep counter and its replay high-water mark, the
//! checkpoint cadence and the checkpoint, which injected crash fires when,
//! rollback and the strike rule (a machine lost twice at one superstep with
//! no injected crash to explain it ends the run), and the
//! [`IterationRecord`] plus the `compute`/`comm`/`replay` span attributes
//! of every superstep. A [`Transport`] takes a superstep through the
//! machines: it computes, delivers, snapshots and restores, and names the
//! machines it lost.
//!
//! # The exchange
//!
//! The loop never sees a message. After the compute phase the transport
//! reports how many messages each machine is charged for sending and
//! receiving; the loop prices them once the superstep completed, so one
//! abandoned at either barrier charges no communication. Moving the data is
//! the transport's: machine `to` gets what `from` staged for it, for `from`
//! ascending — the delivery order every bit-identity guarantee rests on.
//!
//! The initial state is re-derived, never stored: a loss before the first
//! checkpoint restores to `None`, which [`drive`] answers with
//! [`Program::reset`] over every machine and a worker answers from its
//! `Job` and `Placement` on `Restore(None)`. So recovery works with
//! checkpointing disabled, at the price of replaying from superstep zero,
//! and no copy of any machine is kept for it. The restore is still charged
//! as a checkpoint of the initial state would be. Kernels are
//! deterministic, so a replay reproduces the fault-free state bit for bit;
//! only the telemetry shows the damage.
//!
//! # Two transports
//!
//! [`drive`] runs an engine's [`Machine`]s in this process: a [`Program`]
//! says what one machine computes and how the machines hand each other
//! what they staged, a panic is a lost machine, an injected crash throws
//! the compute phase away at the barrier, and the cost model prices the
//! work in units. The process backend (`bpart_dist::driver`) is the other:
//! its machines are worker processes, a lost machine is one whose heartbeat
//! stopped, an injected crash is a `SIGKILL`, and its records hold the
//! seconds the workers measured.

use crate::exec::{for_each_machine, ExecMode};
use crate::{
    CostModel, FaultPlan, FaultState, IterationRecord, MachineFailure, MachineId, Telemetry,
    UnrecoverableFailure, WorkUnits,
};
use bpart_obs::analysis::Timings;
use bpart_obs::SpanGuard;
use std::collections::HashMap;

/// Machines a superstep lost: the loop rolls back to its last checkpoint.
#[derive(Debug)]
pub struct Lost<W> {
    /// The machines, ascending.
    pub machines: Vec<MachineId>,
    /// What each machine computed, when all of them reached the barrier
    /// before the superstep was abandoned (an injected crash fires there);
    /// `None` charges nothing.
    pub wasted: Option<Vec<f64>>,
    /// Why, for the error that ends the run if recovery gives up.
    pub why: W,
}

/// Why a phase of a superstep did not complete.
#[derive(Debug)]
pub enum Stop<W, E> {
    /// It lost machines.
    Lost(Lost<W>),
    /// The run is over.
    Failed(E),
}

impl<W, E> Stop<W, E> {
    /// `machines` lost, having computed `wasted`, because of `why`.
    pub fn lost(machines: Vec<MachineId>, wasted: Option<Vec<f64>>, why: W) -> Self {
        Stop::Lost(Lost {
            machines,
            wasted,
            why,
        })
    }
}

impl<W, E> From<E> for Stop<W, E> {
    fn from(e: E) -> Self {
        Stop::Failed(e)
    }
}

/// What a phase of transport `X` comes to.
pub type Step<T, X> = Result<T, Stop<<X as Transport>::Why, <X as Transport>::Error>>;

/// Per-machine `(sent, received)` message counts.
pub type Traffic = (Vec<u64>, Vec<u64>);

/// How a superstep reaches the machines: what [`run`] asks of a backend.
pub trait Transport {
    /// Every machine's state at a superstep boundary.
    type Snapshot;
    /// What a lost machine leaves to say about itself.
    type Why;
    /// What ends a run.
    type Error;

    /// The number of machines.
    fn machines(&self) -> usize;

    /// Opens the span of `superstep`, or returns `None` when the run is over.
    fn open(&mut self, superstep: usize) -> Option<SpanGuard>;

    /// Runs the compute phase of `superstep`. `crashes` are the machines
    /// the fault plan kills during it, each handed over once; `checkpoint`
    /// says whether the superstep ends in a snapshot. Returns the time each
    /// machine is charged, and the [`Traffic`] its communication phase is
    /// charged for.
    fn compute(
        &mut self,
        superstep: usize,
        crashes: &[MachineId],
        checkpoint: bool,
        span: &mut SpanGuard,
    ) -> Step<(Vec<f64>, Traffic), Self>;

    /// Hands every machine what the others staged for it, for the sender
    /// ascending; returns the further time each machine is charged.
    fn deliver(&mut self, superstep: usize) -> Step<Vec<f64>, Self>;

    /// Snapshots every machine at the end of a completed superstep; returns
    /// the snapshot and the time each machine is charged for it.
    fn snapshot(&mut self) -> Result<(Self::Snapshot, Vec<f64>), Self::Error>;

    /// Each machine's communication time, given the messages it is charged
    /// for sending and receiving.
    fn comm(&self, sent: &[u64], received: &[u64]) -> Vec<f64>;

    /// Rolls every machine back after losing `lost`, to `snapshot` or, when
    /// `None`, to the initial state; the run resumes at `superstep`.
    /// Returns how long the restore stalled the run.
    fn restore(
        &mut self,
        superstep: usize,
        snapshot: Option<&Self::Snapshot>,
        lost: &[MachineId],
    ) -> Step<f64, Self>;

    /// Told of every record the loop keeps.
    fn recorded(&mut self, _record: &IterationRecord) {}

    /// The error that ends the run: `lost` was lost at `superstep` a second
    /// time, with no injected crash to explain it.
    fn unrecoverable(&mut self, superstep: usize, lost: Lost<Self::Why>) -> Self::Error;
}

/// Whether a run checkpointing every `every` supersteps takes one at the
/// end of `superstep`; `None` and `Some(0)` mean never.
pub fn checkpoint_due(every: Option<usize>, superstep: usize) -> bool {
    every.is_some_and(|every| every > 0 && (superstep + 1) % every == 0)
}

/// Runs `transport` to completion under `faults`, checkpointing every
/// `checkpoint_every` supersteps and surviving lost machines by rollback
/// and replay. Returns the telemetry and the number of logical supersteps
/// (replays are not double-counted; they appear in the telemetry).
///
/// Returns `Err` when the transport fails, or when a machine is lost at the
/// same superstep on the replay attempt too with no injected crash to
/// explain it, which a deterministic program would repeat forever.
pub fn run<T: Transport>(
    faults: &FaultPlan,
    checkpoint_every: Option<usize>,
    transport: &mut T,
) -> Result<(Telemetry, usize), T::Error> {
    let k = transport.machines();
    let telemetry = Telemetry::new();
    let mut faults = FaultState::new(faults.clone());
    // `(next superstep to run, the snapshot)`; `None` is the initial state.
    let mut checkpoint: Option<(usize, T::Snapshot)> = None;
    // `superstep` moves backwards on rollback; `high_water` marks how far
    // the run ever got, so replays can be flagged.
    let (mut superstep, mut high_water) = (0usize, 0usize);
    let mut strikes: HashMap<usize, u32> = HashMap::new();
    let keep = |transport: &mut T, record: IterationRecord| {
        transport.recorded(&record);
        telemetry.record(record);
    };

    'run: while let Some(mut span) = transport.open(superstep) {
        let mut replay = superstep < high_water;
        span.attr("replay", replay);
        let crashes = faults.take_crashes(superstep);
        let due = checkpoint_due(checkpoint_every, superstep);

        // One attempt at the superstep: its record, or what stopped it.
        let mut attempt = || -> Step<IterationRecord, T> {
            let (mut compute, (sent, received)) =
                transport.compute(superstep, &crashes, due, &mut span)?;
            let mut add = |times: &[f64]| compute.iter_mut().zip(times).for_each(|(c, t)| *c += t);
            add(&transport.deliver(superstep)?);
            if due {
                let (snapshot, cost) = transport.snapshot()?;
                add(&cost);
                checkpoint = Some((superstep + 1, snapshot));
            }
            let comm = transport.comm(&sent, &received);
            // Per-machine timings on the span (shortest round-trip `f64`
            // formatting): the critical-path analyzer folds them through the
            // fold `Telemetry::summary()` uses, so the two agree bit-exactly.
            span.attr("compute", Timings(&compute));
            span.attr("comm", Timings(&comm));
            Ok(IterationRecord {
                compute,
                comm,
                sent,
                crashed: 0,
                replay,
                recovery: 0.0,
            })
        };
        let mut lost = match attempt() {
            Ok(record) => {
                keep(transport, record);
                superstep += 1;
                high_water = high_water.max(superstep);
                continue 'run;
            }
            Err(Stop::Lost(lost)) => lost,
            Err(Stop::Failed(e)) => return Err(e),
        };

        // ---- rollback: restore, and record the abandoned superstep ---------
        // A restore that loses machines too is one more recovery round, and
        // no replay.
        let resume = checkpoint.as_ref().map_or(0, |(at, _)| *at);
        loop {
            // A loss the fault plan does not explain is a strike; the
            // second at one superstep would repeat forever.
            if !lost.machines.iter().all(|m| crashes.contains(m)) {
                let strikes = strikes.entry(superstep).or_insert(0);
                *strikes += 1;
                if *strikes >= 2 {
                    return Err(transport.unrecoverable(superstep, lost));
                }
            }
            let snapshot = checkpoint.as_ref().map(|(_, snapshot)| snapshot);
            let (recovery, more) = match transport.restore(resume, snapshot, &lost.machines) {
                Ok(stall) => (stall, None),
                Err(Stop::Lost(more)) => (0.0, Some(more)),
                Err(Stop::Failed(e)) => return Err(e),
            };
            // The compute phase ran to the barrier and is wasted; it still
            // counts toward waiting. The exchange never completed, so no
            // comm is charged (the analyzer defaults it to zeros too).
            let compute = match lost.wasted {
                Some(wasted) => {
                    span.attr("compute", Timings(&wasted));
                    wasted
                }
                None => vec![0.0; k],
            };
            let record = IterationRecord {
                compute,
                comm: vec![0.0; k],
                sent: vec![0; k],
                crashed: lost.machines.len() as u64,
                replay,
                recovery,
            };
            keep(transport, record);
            match more {
                Some(more) => (lost, replay) = (more, false),
                None => break,
            }
        }
        superstep = resume;
    }
    Ok((telemetry, superstep))
}

/// One machine's superstep kernel, as the in-process transport sees it.
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

    /// Units of the live state, as the cost model charges them for writing
    /// its snapshot or restoring one: read without taking a snapshot.
    fn units(&self) -> u64;
}

/// What an engine adds to the in-process transport.
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

    /// Puts every machine back in the run's initial state: the restore of
    /// a loss before the first checkpoint, since none is kept.
    fn reset(&self, machines: &mut [Self::Machine]);

    /// Told after a rollback that the run resumes at `superstep`: whatever
    /// the program itself kept of later supersteps is void. The machines
    /// were restored already.
    fn rolled_back(&mut self, _superstep: usize) {}

    /// Per-machine `(sent, received)` messages the communication phase is
    /// charged for, given what crossed the exchange; asked right after
    /// [`Program::computed`]. By default what crossed it.
    fn traffic(&self, sent: &[u64], received: &[u64]) -> Traffic {
        (sent.to_vec(), received.to_vec())
    }
}

/// How an in-process run executes and what goes wrong during it.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Converts counted work into modelled time.
    pub cost: CostModel,
    /// Sequential or one thread per machine.
    pub mode: ExecMode,
    /// Faults injected during the run.
    pub faults: FaultPlan,
    /// Checkpoint after every this many supersteps (see
    /// [`checkpoint_due`]).
    pub checkpoint_every: Option<usize>,
}

/// Runs `program` over `machines` in this process: [`run`] over the
/// in-process transport. Returns `Err` only when recovery cannot make
/// progress: a machine panics at the same superstep on the replay too.
pub fn drive<P: Program>(
    cfg: &Config,
    program: &mut P,
    machines: &mut [P::Machine],
) -> Result<(Telemetry, usize), UnrecoverableFailure> {
    let (cost, mode) = (&cfg.cost, cfg.mode);
    let mut transport = InProcess {
        cost,
        mode,
        program,
        machines,
    };
    run(&cfg.faults, cfg.checkpoint_every, &mut transport)
}

/// The in-process transport: an engine's machines, run by
/// [`for_each_machine`] and priced by the cost model.
struct InProcess<'a, P: Program> {
    cost: &'a CostModel,
    mode: ExecMode,
    program: &'a mut P,
    machines: &'a mut [P::Machine],
}

impl<P: Program> InProcess<'_, P> {
    fn times(&self, work: &[WorkUnits]) -> Vec<f64> {
        work.iter().map(|w| self.cost.compute_time(w)).collect()
    }

    /// Modelled time to write or restore each machine's state as it is.
    fn state_times(&self) -> Vec<f64> {
        let units = self.machines.iter().map(Machine::units);
        units.map(|u| self.cost.checkpoint_time(u)).collect()
    }
}

impl<P: Program> Transport for InProcess<'_, P> {
    type Snapshot = Vec<<P::Machine as Machine>::Snapshot>;
    type Why = MachineFailure;
    type Error = UnrecoverableFailure;

    fn machines(&self) -> usize {
        self.machines.len()
    }

    fn open(&mut self, superstep: usize) -> Option<SpanGuard> {
        self.program.open(superstep, self.machines)
    }

    fn compute(
        &mut self,
        superstep: usize,
        crashes: &[MachineId],
        _checkpoint: bool,
        span: &mut SpanGuard,
    ) -> Step<(Vec<f64>, Traffic), Self> {
        let program: &P = self.program;
        let results = for_each_machine(self.mode, self.machines, |_, s| program.compute(s));
        // A panicked machine may have half-updated its state; the superstep
        // cannot complete, and nothing of it is charged.
        let out = results
            .into_iter()
            .enumerate()
            .map(|(m, result)| result.map_err(|why| Stop::lost(vec![m as MachineId], None, why)));
        let out = out.collect::<Result<Vec<_>, _>>()?;
        let work = self.program.computed(out, span);
        // ---- the exchange barrier: injected crashes fire here --------------
        if !crashes.is_empty() {
            let why = MachineFailure::Crash { superstep };
            return Err(Stop::lost(crashes.to_vec(), Some(self.times(&work)), why));
        }
        let mut exchange = bpart_obs::span("cluster.exchange");
        let k = self.machines.len();
        let (mut sent, mut received) = (vec![0u64; k], vec![0u64; k]);
        for (from, machine) in self.machines.iter().enumerate() {
            for (to, count) in machine.staged().into_iter().enumerate() {
                sent[from] += count;
                received[to] += count;
            }
        }
        let messages: u64 = sent.iter().sum();
        exchange.attr("messages", messages);
        let bytes = messages * std::mem::size_of::<<P::Machine as Machine>::Msg>() as u64;
        bpart_obs::metrics::counter("exchange.messages").add(messages);
        bpart_obs::metrics::counter("exchange.bytes").add(bytes);
        Ok((self.times(&work), self.program.traffic(&sent, &received)))
    }

    fn deliver(&mut self, superstep: usize) -> Step<Vec<f64>, Self> {
        let work = self.program.deliver(superstep, self.machines);
        Ok(self.times(&work))
    }

    fn snapshot(&mut self) -> Result<(Self::Snapshot, Vec<f64>), UnrecoverableFailure> {
        let _span = bpart_obs::span("cluster.checkpoint");
        let snapshot: Self::Snapshot = self.machines.iter().map(Machine::snapshot).collect();
        let cost = self.state_times();
        bpart_obs::metrics::counter("cluster.checkpoints").inc();
        Ok((snapshot, cost))
    }

    fn comm(&self, sent: &[u64], received: &[u64]) -> Vec<f64> {
        let pairs = sent.iter().zip(received);
        pairs.map(|(&s, &r)| self.cost.comm_time(s, r)).collect()
    }

    /// The initial state is re-derived, and charged as restoring its
    /// checkpoint would be: by the units each machine holds once restored.
    /// Machines restore in parallel, so the stall is the slowest restore.
    fn restore(
        &mut self,
        superstep: usize,
        snapshot: Option<&Self::Snapshot>,
        _lost: &[MachineId],
    ) -> Step<f64, Self> {
        match snapshot {
            Some(snapshot) => {
                for (s, snapshot) in self.machines.iter_mut().zip(snapshot) {
                    s.restore(snapshot);
                }
            }
            None => self.program.reset(self.machines),
        }
        let stall = self.state_times().into_iter().fold(0.0, f64::max);
        bpart_obs::metrics::counter("cluster.recoveries").inc();
        self.program.rolled_back(superstep);
        Ok(stall)
    }

    fn unrecoverable(
        &mut self,
        superstep: usize,
        lost: Lost<MachineFailure>,
    ) -> UnrecoverableFailure {
        let (machine, failure) = (lost.machines[0], lost.why);
        UnrecoverableFailure {
            superstep,
            machine,
            failure,
        }
    }
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
        /// Units of state: [`initial_units`] at the start, one more after
        /// every compute phase. The snapshot is this count.
        units: u64,
    }

    /// Node `id`'s units of initial state.
    fn initial_units(id: MachineId) -> u64 {
        10 * (id as u64 + 1)
    }

    impl Machine for Node {
        type Msg = u32;
        type Snapshot = u64;

        /// A self-message is allowed here, and counted.
        fn staged(&self) -> Vec<u64> {
            self.rows.iter().map(|row| row.len() as u64).collect()
        }
        fn snapshot(&self) -> u64 {
            self.units
        }
        fn restore(&mut self, units: &u64) {
            self.units = *units;
        }
        fn units(&self) -> u64 {
            self.units
        }
    }

    /// `sends[superstep]` lists `(from, to, payload)`.
    struct Script {
        sends: Vec<Vec<(MachineId, MachineId, u32)>>,
        at: usize,
        /// The machines of every `reset`, in call order.
        resets: std::sync::Mutex<Vec<Vec<MachineId>>>,
    }

    impl Program for Script {
        type Machine = Node;
        type Computed = ();

        fn open(&mut self, superstep: usize, _: &[Node]) -> Option<SpanGuard> {
            self.at = superstep;
            (superstep < self.sends.len()).then(|| bpart_obs::span("cluster.superstep"))
        }
        fn compute(&self, node: &mut Node) {
            node.units += 1;
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
        fn reset(&self, nodes: &mut [Node]) {
            for node in nodes.iter_mut() {
                node.units = initial_units(node.id);
            }
            let ids = nodes.iter().map(|node| node.id).collect();
            self.resets.lock().unwrap().push(ids);
        }
    }

    fn nodes(k: usize) -> Vec<Node> {
        (0..k)
            .map(|id| Node {
                id: id as MachineId,
                rows: vec![Vec::new(); k],
                seen: Vec::new(),
                deliveries: 0,
                units: initial_units(id as MachineId),
            })
            .collect()
    }

    fn script(sends: Vec<Vec<(MachineId, MachineId, u32)>>) -> Script {
        Script {
            sends,
            at: 0,
            resets: Default::default(),
        }
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
        drive(&cfg, &mut script(sends), nodes).map(|(telemetry, _)| telemetry)
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

    /// A loss before the first checkpoint re-derives the initial state:
    /// one `Program::reset` of every machine per recovery round, charged
    /// as restoring a checkpoint of the initial state (the slowest
    /// machine's `checkpoint_time` of its initial units, not of the units
    /// it had grown to). After a checkpoint the loop restores it, and
    /// `reset` is never called.
    #[test]
    fn a_loss_before_the_first_checkpoint_resets_every_machine() {
        let cost = CostModel::default();
        // Machine 2 restores the most: 30 initial units, two more per
        // checkpointed pair of supersteps.
        for (plan, every, resets, stalls) in [
            ("crash@1:m0;crash@2:m1", None, 2, vec![30, 30]),
            ("crash@0:m2", Some(2), 1, vec![30]),
            ("crash@3:m1;crash@5:m0", Some(2), 0, vec![32, 34]),
        ] {
            let cfg = Config {
                faults: plan.parse().unwrap(),
                checkpoint_every: every,
                ..Config::default()
            };
            let mut nodes = nodes(3);
            let mut script = script(vec![Vec::new(); 6]);
            let (telemetry, supersteps) = drive(&cfg, &mut script, &mut nodes).unwrap();
            assert_eq!(supersteps, 6, "{plan}");
            let calls = script.resets.into_inner().unwrap();
            assert_eq!(calls, vec![vec![0, 1, 2]; resets], "{plan}");
            let recoveries: Vec<f64> = telemetry
                .records()
                .iter()
                .filter(|r| r.crashed > 0)
                .map(|r| r.recovery)
                .collect();
            let stalls: Vec<f64> = stalls
                .into_iter()
                .map(|u| cost.checkpoint_time(u))
                .collect();
            assert_eq!(recoveries, stalls, "{plan}");
            // Every compute phase that completed is one unit more.
            for node in &nodes {
                assert_eq!(node.units, initial_units(node.id) + 6, "{plan}");
            }
        }
    }

    /// A transport whose phases lose what the script says, and that keeps
    /// what the loop hands it. Machine 0 stages 4 messages for machine 1
    /// every superstep; each compute phase costs every machine 1.0.
    struct Fake {
        k: usize,
        supersteps: usize,
        /// `(phase, superstep)`: the machines each visit loses, in visit
        /// order; a visit past the list loses none.
        script: HashMap<(&'static str, usize), Vec<Vec<MachineId>>>,
        visits: HashMap<(&'static str, usize), usize>,
        /// The machines each restore loses, in restore order.
        restore_script: Vec<Vec<MachineId>>,
        /// `(superstep, crashes)` of every compute phase.
        crashes: Vec<(usize, Vec<MachineId>)>,
        /// `(resume at, lost)` of every restore.
        restores: Vec<(usize, Vec<MachineId>)>,
    }

    fn fake(k: usize, supersteps: usize) -> Fake {
        Fake {
            k,
            supersteps,
            script: HashMap::new(),
            visits: HashMap::new(),
            restore_script: Vec::new(),
            crashes: Vec::new(),
            restores: Vec::new(),
        }
    }

    fn lose(machines: Vec<MachineId>, wasted: Option<Vec<f64>>) -> Stop<(), String> {
        Stop::lost(machines, wasted, ())
    }

    impl Fake {
        fn visit(&mut self, phase: &'static str, superstep: usize) -> Result<(), Stop<(), String>> {
            let n = self.visits.entry((phase, superstep)).or_default();
            let lost = self.script.get(&(phase, superstep)).and_then(|v| v.get(*n));
            *n += 1;
            match lost {
                Some(lost) if !lost.is_empty() => Err(lose(lost.clone(), None)),
                _ => Ok(()),
            }
        }
    }

    impl Transport for Fake {
        type Snapshot = ();
        type Why = ();
        type Error = String;

        fn machines(&self) -> usize {
            self.k
        }
        fn open(&mut self, superstep: usize) -> Option<SpanGuard> {
            (superstep < self.supersteps).then(|| bpart_obs::span("cluster.superstep"))
        }
        fn compute(
            &mut self,
            superstep: usize,
            crashes: &[MachineId],
            _: bool,
            _: &mut SpanGuard,
        ) -> Step<(Vec<f64>, Traffic), Self> {
            self.crashes.push((superstep, crashes.to_vec()));
            if !crashes.is_empty() {
                return Err(lose(crashes.to_vec(), Some(vec![1.0; self.k])));
            }
            self.visit("compute", superstep)?;
            let (mut sent, mut received) = (vec![0; self.k], vec![0; self.k]);
            (sent[0], received[1]) = (4, 4);
            Ok((vec![1.0; self.k], (sent, received)))
        }
        fn deliver(&mut self, superstep: usize) -> Step<Vec<f64>, Self> {
            self.visit("deliver", superstep)?;
            Ok(vec![0.0; self.k])
        }
        fn snapshot(&mut self) -> Result<((), Vec<f64>), String> {
            Ok(((), vec![0.0; self.k]))
        }
        fn comm(&self, sent: &[u64], _: &[u64]) -> Vec<f64> {
            vec![0.0; sent.len()]
        }
        fn restore(
            &mut self,
            superstep: usize,
            _: Option<&()>,
            lost: &[MachineId],
        ) -> Step<f64, Self> {
            self.restores.push((superstep, lost.to_vec()));
            match self.restore_script.get(self.restores.len() - 1) {
                Some(more) if !more.is_empty() => Err(lose(more.clone(), None)),
                _ => Ok(0.0),
            }
        }
        fn unrecoverable(&mut self, superstep: usize, lost: Lost<()>) -> String {
            format!("m{} lost twice at {superstep}", lost.machines[0])
        }
    }

    fn loop_over(fake: &mut Fake, plan: &str, every: Option<usize>) -> Result<Telemetry, String> {
        super::run(&plan.parse().unwrap(), every, fake).map(|(telemetry, _)| telemetry)
    }

    /// (a) A superstep abandoned at its second barrier is one wasted record
    /// that charges no message, and one recovery.
    #[test]
    fn a_machine_lost_at_delivery_charges_no_message() {
        let mut fake = fake(2, 3);
        fake.script.insert(("deliver", 1), vec![vec![1]]);
        let telemetry = loop_over(&mut fake, "", None).unwrap();
        let records = telemetry.records();
        let wasted: Vec<_> = records.iter().filter(|r| r.crashed > 0).collect();
        assert_eq!(wasted.len(), 1);
        assert_eq!(wasted[0].crashed, 1);
        assert_eq!(wasted[0].compute, [0.0, 0.0]);
        assert_eq!(wasted[0].sent, [0, 0]);
        assert_eq!(telemetry.rollbacks(), 1);
        // Supersteps 0, 0 again, 1 and 2 completed: 4 messages each.
        assert_eq!(records.len(), 5);
        assert_eq!(telemetry.total_messages(), 4 * 4);
        assert_eq!(fake.restores, [(0, vec![1])]);
    }

    /// (b) A machine lost while restoring is a second recovery round and a
    /// second restore; the replay that follows is counted once.
    #[test]
    fn a_machine_lost_during_restore_is_a_second_recovery() {
        let mut fake = fake(2, 3);
        fake.restore_script = vec![vec![1]];
        let telemetry = loop_over(&mut fake, "crash@1:m0", None).unwrap();
        assert_eq!(fake.restores, [(0, vec![0]), (0, vec![1])]);
        assert_eq!(telemetry.rollbacks(), 2);
        assert_eq!(telemetry.crashes(), 2);
        // Only superstep 0 ran twice.
        assert_eq!(telemetry.replayed_supersteps(), 1);
        let replays: Vec<bool> = telemetry.records().iter().map(|r| r.replay).collect();
        assert_eq!(replays, [false, false, false, true, false, false]);
        // The crash's wasted compute is charged; the restore's loss is not.
        let records = telemetry.records();
        assert_eq!(records[1].compute, [1.0, 1.0]);
        assert_eq!(records[2].compute, [0.0, 0.0]);
    }

    /// (c) A machine lost twice at one superstep with no injected crash to
    /// explain it ends the run; an injected crash is no strike.
    #[test]
    fn two_uninjected_losses_at_one_superstep_are_unrecoverable() {
        let mut twice = fake(2, 4);
        twice.script.insert(("compute", 2), vec![vec![1], vec![1]]);
        assert_eq!(
            loop_over(&mut twice, "", Some(2)).unwrap_err(),
            "m1 lost twice at 2"
        );
        assert_eq!(twice.restores, [(2, vec![1])]);

        let mut explained = fake(2, 4);
        explained.script.insert(("deliver", 2), vec![vec![1]]);
        let telemetry = loop_over(&mut explained, "crash@2:m1", Some(2)).unwrap();
        assert_eq!(telemetry.rollbacks(), 2);
    }

    /// (d) Every crash of the plan is handed to the transport once, at its
    /// superstep, replays included; one past the run never is.
    #[test]
    fn each_fired_crash_is_handed_over_exactly_once() {
        let mut fake = fake(3, 5);
        let plan = "crash@1:m2;crash@1:m0;crash@3:m1;crash@9:m0";
        let telemetry = loop_over(&mut fake, plan, Some(2)).unwrap();
        let handed: Vec<_> = fake.crashes.iter().filter(|(_, c)| !c.is_empty()).collect();
        assert_eq!(handed, [&(1, vec![0, 2]), &(3, vec![1])]);
        // Supersteps 1 and 3 each ran twice, the second time with no crash.
        let at = |s: usize| fake.crashes.iter().filter(|(at, _)| *at == s).count();
        assert_eq!((at(1), at(3)), (2, 2));
        assert_eq!(telemetry.crashes(), 3);
        assert_eq!(telemetry.rollbacks(), 2);
    }
}
