//! The per-machine walk superstep kernel.
//!
//! [`WalkStep`] is one machine's share of a walk superstep — one step of
//! every queued walker, routing into "stays" and per-destination rows,
//! inbox absorb, snapshot/restore, seeding — and the only implementation
//! of it: the thread backend ([`WalkEngine`](crate::WalkEngine)) moves the
//! rows through the in-memory router, the process backend
//! (`bpart_dist::step::WalkWorker`) encodes them into frames. It is the
//! walk-side twin of `bpart_engine::kernel::MachineStep`.
//!
//! # Ordering invariant
//!
//! A walker's trajectory depends only on its own RNG, so queue order
//! cannot change a path — but it is the order of the path log, of every
//! row, and of every snapshot, and both backends must produce the same
//! bytes. The queue is therefore always: walkers seeded in global-id
//! order; after a step, the walkers that stayed (`kept`, in queue order)
//! *before* the migrants the caller [`absorb`](WalkStep::absorb)s in
//! ascending sender order.

use crate::engine::WalkStarts;
use crate::walker::{WalkApp, Walker};
use bpart_cluster::bsp::{Machine, Rows};
use bpart_cluster::{Cluster, MachineId, MessageArena, WorkUnits};
use bpart_graph::VertexId;

/// One machine's walk state at a superstep boundary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Walkers waiting on this machine.
    pub queue: Vec<Walker>,
    /// `(walker id, step index, vertex)` triples, merged after the run
    /// (empty unless recording).
    pub path_log: Vec<(u64, u32, VertexId)>,
    /// Walker steps this machine executed. Part of the snapshot, so a
    /// rollback takes back what the abandoned supersteps counted and the
    /// total stays that of a fault-free run.
    pub steps: u64,
    /// Walkers this machine transmitted (the paper's "message walks").
    pub sent: u64,
}

/// Rebuilds per-walker paths from the concatenated `(walker, step,
/// vertex)` logs of every machine. Triples naming a walker that was never
/// started are dropped: a log can come off the wire.
pub fn paths_from_log(
    mut log: Vec<(u64, u32, VertexId)>,
    num_walkers: usize,
) -> Vec<Vec<VertexId>> {
    log.sort_unstable();
    let mut paths = vec![Vec::new(); num_walkers];
    for (id, _step, v) in log {
        if let Some(p) = paths.get_mut(id as usize) {
            p.push(v);
        }
    }
    paths
}

/// One machine's share of a walk computation.
pub struct WalkStep {
    cluster: Cluster,
    machine: MachineId,
    record: bool,
    state: Snapshot,
    /// Scratch for walkers staying local this superstep; swapped with the
    /// queue at the end of the step so both keep their capacity.
    kept: Vec<Walker>,
    /// Arena-staged migrating walkers (buffers persist across supersteps).
    outbox: MessageArena<Walker>,
}

impl WalkStep {
    /// One kernel per machine of `cluster`, seeded in a single pass.
    pub fn for_cluster(
        cluster: &Cluster,
        starts: &WalkStarts,
        seed: u64,
        record: bool,
    ) -> Vec<Self> {
        let mut steps: Vec<WalkStep> = (0..cluster.num_machines())
            .map(|m| WalkStep::new(cluster, m as MachineId, record))
            .collect();
        for (id, v) in starts.walkers(cluster.graph().num_vertices()) {
            steps[cluster.owner(v) as usize].admit(Walker::new(id, v, seed));
        }
        steps
    }

    /// The kernel for `machine` with nothing queued ([`reset`](Self::reset)
    /// seeds it). `record` turns the path log on.
    pub fn new(cluster: &Cluster, machine: MachineId, record: bool) -> Self {
        WalkStep {
            cluster: cluster.clone(),
            machine,
            record,
            state: Snapshot::default(),
            kept: Vec::new(),
            outbox: MessageArena::new(cluster.num_machines()),
        }
    }

    /// Rolls back to the seeded start state: this machine's walkers of
    /// `starts`, in global-id order.
    pub fn reset(&mut self, starts: &WalkStarts, seed: u64) {
        self.restore(&Snapshot::default());
        for (id, v) in starts.walkers(self.cluster.graph().num_vertices()) {
            if self.cluster.owner(v) == self.machine {
                self.admit(Walker::new(id, v, seed));
            }
        }
    }

    fn admit(&mut self, walker: Walker) {
        if self.record {
            self.state.path_log.push((walker.id, 0, walker.current));
        }
        self.state.queue.push(walker);
    }

    /// Walkers waiting on this machine.
    pub fn queue_len(&self) -> usize {
        self.state.queue.len()
    }

    /// The live state (what [`Machine::snapshot`] clones).
    pub fn state(&self) -> &Snapshot {
        &self.state
    }

    /// One synchronous step of every queued walker. A walk ends when the
    /// app says so (dead end / stop decision) or at full length; a walker
    /// whose new vertex lives elsewhere is staged for its owner (see
    /// [`Machine::take_rows`]), the rest go back on the queue.
    pub fn step<A: WalkApp + ?Sized>(&mut self, app: &A) -> WorkUnits {
        let WalkStep {
            cluster,
            machine,
            record,
            state,
            kept,
            outbox,
        } = self;
        let Snapshot {
            queue,
            path_log,
            steps,
            ..
        } = state;
        let (m, record) = (*machine, *record);
        let graph = cluster.graph();
        let max_steps = app.walk_length();
        debug_assert_eq!(kept.len(), 0);
        debug_assert_eq!(outbox.staged(), 0);
        let mut work = WorkUnits::default();
        for mut walker in queue.drain(..) {
            debug_assert_eq!(cluster.owner(walker.current), m);
            let next = app.next(&mut walker, graph);
            work.steps += 1;
            let Some(next) = next else {
                continue;
            };
            walker.advance(next);
            if record {
                path_log.push((walker.id, walker.step, next));
            }
            if walker.step >= max_steps {
                continue;
            }
            let dest = cluster.owner(next);
            if dest == m {
                kept.push(walker);
            } else {
                outbox.push(dest, walker);
            }
        }
        std::mem::swap(queue, kept);
        *steps += work.steps;
        work
    }

    /// Appends one sender's delivered walkers to the queue, draining
    /// `inbox`. Call once per sender, in ascending sender order.
    pub fn absorb(&mut self, inbox: &mut Vec<Walker>) {
        self.state.queue.append(inbox);
    }
}

impl Machine for WalkStep {
    type Msg = Walker;
    type Snapshot = Snapshot;

    /// The self slot is always empty: walkers that stay never leave the
    /// queue.
    fn take_rows(&mut self) -> Rows<Walker> {
        let rows = self.outbox.take_filled();
        self.state.sent += rows.iter().map(|row| row.len() as u64).sum::<u64>();
        rows
    }

    fn return_rows(&mut self, rows: Rows<Walker>) {
        self.outbox.put_drained(rows);
    }

    fn snapshot(&self) -> Snapshot {
        self.state.clone()
    }

    fn restore(&mut self, snapshot: &Snapshot) {
        self.state.queue.clone_from(&snapshot.queue);
        self.state.path_log.clone_from(&snapshot.path_log);
        self.state.steps = snapshot.steps;
        self.state.sent = snapshot.sent;
        // The abandoned superstep may have left staged walkers behind;
        // the replay restages everything from the restored queue.
        self.outbox.reset();
        self.kept.clear();
    }

    /// One unit per in-flight walker.
    fn state_units(snapshot: &Snapshot) -> u64 {
        snapshot.queue.len() as u64
    }
}
