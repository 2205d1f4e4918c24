//! The per-machine walk superstep kernel.
//!
//! [`WalkStep`] is one machine's share of a walk superstep — one step of
//! every queued walker, routing into "stays" and per-destination rows,
//! inbox absorb, snapshot/restore, seeding — and the only implementation
//! of it. It stages like `bpart_engine::kernel::MachineStep`, its
//! vertex-program twin: [`staged`](Machine::staged) counts what each
//! destination is owed and [`outgoing`](WalkStep::outgoing) drains it where
//! it lies — into the receiving kernel on the thread backend
//! ([`WalkEngine`](crate::WalkEngine)), into frames on the process backend
//! (`bpart_dist::step::WalkWorker`).
//!
//! A kernel holds walkers, not history: when recording, a superstep's
//! `(walker, step, vertex)` triples wait in scratch until the barrier, where
//! the caller [`take_triples`](WalkStep::take_triples) them into the run's
//! one [`PathTable`] — the only place a path lives. A checkpoint is the
//! queue and two counters; a rollback [`truncate`](PathTable::truncate)s
//! what it abandons out of the table.
//!
//! # Ordering invariant
//!
//! A walker's trajectory depends only on its own RNG, so queue order
//! cannot change a path — but it is the order of a superstep's triples, of
//! every row, and of every snapshot, and both backends must produce the
//! same bytes. The queue is therefore always: walkers seeded in global-id
//! order; after a step, the walkers that stayed, compacted in place in
//! queue order, *before* the migrants the caller
//! [`absorb`](WalkStep::absorb)s in ascending sender order. A row holds
//! its migrants in the queue order they left in.

use crate::engine::WalkStarts;
use crate::walker::{WalkApp, Walker};
use bpart_cluster::bsp::Machine;
use bpart_cluster::{Cluster, MachineId, WorkUnits};
use bpart_graph::VertexId;
use std::fmt;

/// One machine's walk state at a superstep boundary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Walkers waiting on this machine.
    pub queue: Vec<Walker>,
    /// Walker steps this machine executed. Part of the snapshot, so a
    /// rollback takes back what the abandoned supersteps counted and the
    /// total stays that of a fault-free run.
    pub steps: u64,
    /// Walkers this machine transmitted (the paper's "message walks").
    pub sent: u64,
}

/// Why machine-local path logs do not make whole paths. The thread
/// backend's own logs never fail; the process backend's come off the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathLogError {
    /// A triple names a walker id at or past the started count.
    UnknownWalker {
        /// The walker id in the triple.
        id: u64,
    },
    /// A step past the walk length, or past the end of the walker's own
    /// path (its triples leave a gap).
    StepOutOfRange {
        /// The walker id in the triple.
        id: u64,
        /// The step index in the triple.
        step: u32,
    },
    /// Two triples for one `(walker, step)`.
    Duplicate {
        /// The walker id in the triples.
        id: u64,
        /// The step index in the triples.
        step: u32,
    },
    /// A triple whose vertex is the one id no vertex has.
    NotAVertex {
        /// The walker id in the triple.
        id: u64,
        /// The step index in the triple.
        step: u32,
    },
}

impl fmt::Display for PathLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathLogError::UnknownWalker { id } => {
                write!(f, "path log names walker {id}, never started")
            }
            PathLogError::StepOutOfRange { id, step } => {
                write!(f, "path log of walker {id} has step {step} out of range")
            }
            PathLogError::Duplicate { id, step } => {
                write!(f, "path log of walker {id} has step {step} twice")
            }
            PathLogError::NotAVertex { id, step } => {
                write!(f, "path log of walker {id} has no vertex at step {step}")
            }
        }
    }
}

impl std::error::Error for PathLogError {}

/// Every walker's path, in one allocation: walker `w`'s `lens[w]` vertices
/// lie at `hops[w * stride..]`, where `stride` is the app's step cap plus
/// one. It starts as every walker's start vertex
/// ([`of_starts`](Self::of_starts)) and grows by the `(walker, step,
/// vertex)` triples of every machine, superstep by superstep, in any order
/// and interleaving, one [`place`](Self::place) per triple: nothing is
/// sorted, counted first or buffered, so triples may be placed while they
/// are decoded. The shape bounds what a machine may claim before a triple
/// is looked at; whether the triples were whole paths is
/// [`seal`](Self::seal)'s to say.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathTable {
    stride: usize,
    /// Per walker: one past the highest step placed.
    lens: Vec<u32>,
    /// `UNSET` where nothing was placed.
    hops: Vec<VertexId>,
    /// Triples placed: the sum of `lens` exactly when no path has a hole.
    placed: u64,
}

/// No vertex has this id (ids stay below `n <= u32::MAX`), so it marks a
/// slot nothing was written to yet.
const UNSET: VertexId = VertexId::MAX;

impl PathTable {
    /// Whether the table of `num_walkers` walks of at most `walk_len` steps
    /// can be allocated, checked by reserving (and freeing) its hop slots;
    /// `Err` holds the bytes it would take. A front end asks before it
    /// starts a run whose table [`new`](Self::new) would abort the process.
    pub fn check_size(num_walkers: u64, walk_len: u32) -> Result<(), u128> {
        let slots = num_walkers as u128 * (walk_len as u128 + 1);
        let reserved = usize::try_from(slots)
            .ok()
            .is_some_and(|s| Vec::<VertexId>::new().try_reserve_exact(s).is_ok());
        if reserved {
            Ok(())
        } else {
            Err(slots * std::mem::size_of::<VertexId>() as u128)
        }
    }

    /// An empty table for `num_walkers` walks of at most `walk_len` steps.
    pub fn new(num_walkers: usize, walk_len: u32) -> Self {
        let stride = walk_len as usize + 1;
        PathTable {
            stride,
            lens: vec![0; num_walkers],
            hops: vec![UNSET; num_walkers * stride],
            placed: 0,
        }
    }

    /// The table of a run from `starts` on a graph of `n` vertices: every
    /// walker at its start vertex, step 0 — the one hop no kernel reports.
    pub fn of_starts(starts: &WalkStarts, n: usize, walk_len: u32) -> Self {
        let mut table = PathTable::new(starts.count(n) as usize, walk_len);
        for (id, v) in starts.walkers(n) {
            table.place(id, 0, v).expect("a start is a vertex");
        }
        table
    }

    /// Forgets every hop past step `last`: what a rollback to the barrier
    /// of superstep `last` abandons, since in synchronous stepping a walker
    /// has taken `s` steps after `s` supersteps. The replay places the
    /// same triples again.
    pub fn truncate(&mut self, last: u32) {
        let keep = last.saturating_add(1);
        for (len, path) in self.lens.iter_mut().zip(self.hops.chunks_mut(self.stride)) {
            let dropped = path.get_mut(keep as usize..*len as usize);
            let dropped = dropped.unwrap_or_default();
            self.placed -= dropped.iter().filter(|&&v| v != UNSET).count() as u64;
            dropped.fill(UNSET);
            *len = (*len).min(keep);
        }
    }

    /// Records that walker `id` was at `v` after `step` steps.
    pub fn place(&mut self, id: u64, step: u32, v: VertexId) -> Result<(), PathLogError> {
        let walker = usize::try_from(id).ok().filter(|&w| w < self.lens.len());
        let walker = walker.ok_or(PathLogError::UnknownWalker { id })?;
        if step as usize >= self.stride {
            return Err(PathLogError::StepOutOfRange { id, step });
        }
        if v == UNSET {
            return Err(PathLogError::NotAVertex { id, step });
        }
        let slot = &mut self.hops[walker * self.stride + step as usize];
        if *slot != UNSET {
            return Err(PathLogError::Duplicate { id, step });
        }
        *slot = v;
        self.lens[walker] = self.lens[walker].max(step + 1);
        self.placed += 1;
        Ok(())
    }

    /// Checks that what was placed is whole paths — a walker with `len`
    /// triples has them at steps `0..len` — and names a path that is not.
    pub fn seal(&self) -> Result<(), PathLogError> {
        if self.lens.iter().map(|&len| len as u64).sum::<u64>() == self.placed {
            return Ok(());
        }
        let holed = self.iter().position(|path| path.contains(&UNSET));
        let id = holed.expect("a count that is off has a path with a hole");
        Err(PathLogError::StepOutOfRange {
            id: id as u64,
            step: self.lens[id] - 1,
        })
    }

    /// Number of walkers (paths), the ones that left no triple included.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// Whether the table has no walkers.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// The paths in walker order, each the vertices visited, start included.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[VertexId]> + Clone {
        (0..self.len()).map(|walker| &self[walker])
    }
}

impl std::ops::Index<usize> for PathTable {
    type Output = [VertexId];

    fn index(&self, walker: usize) -> &[VertexId] {
        &self.hops[walker * self.stride..][..self.lens[walker] as usize]
    }
}

impl<'a> IntoIterator for &'a PathTable {
    type Item = &'a [VertexId];
    type IntoIter = Box<dyn Iterator<Item = &'a [VertexId]> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// One machine's share of a walk computation.
pub struct WalkStep {
    cluster: Cluster,
    machine: MachineId,
    record: bool,
    state: Snapshot,
    /// Scratch: where each queued walker goes after its step, in queue
    /// order — this machine, another, or [`DONE`].
    dests: Vec<MachineId>,
    /// Scratch: the triples of the superstep in flight, in queue order,
    /// until the barrier takes them (empty unless recording).
    triples: Vec<(u64, u32, VertexId)>,
    /// Scratch: `rows[to]`, the walkers the last step sent to machine
    /// `to` in the queue order they left in, until
    /// [`outgoing`](Self::outgoing) drains them. The own row stays empty;
    /// drained rows keep their capacity for the next superstep.
    rows: Vec<Vec<Walker>>,
}

/// The destination of a walker whose walk is over. No machine has this id:
/// a partition has fewer parts than a `u32` counts.
const DONE: MachineId = MachineId::MAX;

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
        WalkStep::reset_all(&mut steps, starts, seed);
        steps
    }

    /// Rolls every kernel of one cluster (`steps[m]` is machine `m`'s)
    /// back to the seeded start state in a single pass over `starts`:
    /// what [`reset`](Self::reset) does to one, without each machine
    /// reading every start.
    pub(crate) fn reset_all(steps: &mut [WalkStep], starts: &WalkStarts, seed: u64) {
        for step in steps.iter_mut() {
            step.restore(&Snapshot::default());
        }
        let Some(cluster) = steps.first().map(|step| step.cluster.clone()) else {
            return;
        };
        debug_assert_eq!(steps.len(), cluster.num_machines());
        for (id, v) in starts.walkers(cluster.graph().num_vertices()) {
            let home = &mut steps[cluster.owner(v) as usize];
            home.state.queue.push(Walker::new(id, v, seed));
        }
    }

    /// The kernel for `machine` with nothing queued ([`reset`](Self::reset)
    /// seeds it). `record` turns the triples on.
    pub fn new(cluster: &Cluster, machine: MachineId, record: bool) -> Self {
        WalkStep {
            cluster: cluster.clone(),
            machine,
            record,
            state: Snapshot::default(),
            dests: Vec::new(),
            triples: Vec::new(),
            rows: vec![Vec::new(); cluster.num_machines()],
        }
    }

    /// Rolls back to the seeded start state: this machine's walkers of
    /// `starts`, in global-id order.
    pub fn reset(&mut self, starts: &WalkStarts, seed: u64) {
        self.restore(&Snapshot::default());
        for (id, v) in starts.walkers(self.cluster.graph().num_vertices()) {
            if self.cluster.owner(v) == self.machine {
                self.state.queue.push(Walker::new(id, v, seed));
            }
        }
    }

    /// Walkers waiting on this machine.
    pub fn queue_len(&self) -> usize {
        self.state.queue.len()
    }

    /// The live state (what [`Machine::snapshot`] clones).
    pub fn state(&self) -> &Snapshot {
        &self.state
    }

    /// One synchronous step of every queued walker, in two passes over the
    /// queue. The first moves each walker where it stands and notes where
    /// it goes next: a walk ends when the app says so (dead end / stop
    /// decision) or at full length, any other walker belongs to the owner
    /// of its new vertex. A queued walker is short of its length, except
    /// where a walk of length 0 starts: there every walker is done where it
    /// stands, without a step, and none is counted.
    /// The second routes with every destination known:
    /// a walker bound elsewhere is staged in its owner's row and counted as
    /// sent, the rest close ranks in the queue, in order.
    pub fn step<A: WalkApp + ?Sized>(&mut self, app: &A) -> WorkUnits {
        let WalkStep {
            cluster,
            machine,
            record,
            state,
            dests,
            triples,
            rows,
        } = self;
        let (m, record) = (*machine, *record);
        let queue = &mut state.queue;
        let graph = cluster.graph();
        let max_steps = app.walk_length();
        debug_assert!(rows.iter().all(Vec::is_empty));
        if max_steps == 0 {
            queue.clear();
            return WorkUnits::default();
        }
        dests.clear();
        for walker in queue.iter_mut() {
            debug_assert_eq!(cluster.owner(walker.current), m);
            dests.push(match app.next(walker, graph) {
                Some(next) => {
                    walker.advance(next);
                    if record {
                        triples.push((walker.id, walker.step, next));
                    }
                    if walker.step >= max_steps {
                        DONE
                    } else {
                        cluster.owner(next)
                    }
                }
                None => DONE,
            });
        }
        // (`Vec::retain` over a destination iterator is this loop, 15 %
        // slower.)
        let mut stayed = 0;
        for (at, &dest) in dests.iter().enumerate() {
            if dest == m {
                queue[stayed] = queue[at];
                stayed += 1;
            } else if dest != DONE {
                rows[dest as usize].push(queue[at]);
            }
        }
        queue.truncate(stayed);
        let steps = dests.len() as u64;
        state.steps += steps;
        state.sent += rows.iter().map(Vec::len).sum::<usize>() as u64;
        WorkUnits {
            steps,
            ..WorkUnits::default()
        }
    }

    /// Hands over the triples of the steps taken since the last call: the
    /// superstep's, when called at every barrier.
    pub fn take_triples(&mut self) -> std::vec::Drain<'_, (u64, u32, VertexId)> {
        self.triples.drain(..)
    }

    /// The walkers the last step sent to machine `to`, in the order they
    /// left the queue, drained in place.
    pub fn outgoing(&mut self, to: MachineId) -> std::vec::Drain<'_, Walker> {
        self.rows[to as usize].drain(..)
    }

    /// Appends one sender's delivered walkers to the queue. Call once per
    /// other machine, in ascending sender order.
    pub fn absorb(&mut self, walkers: impl IntoIterator<Item = Walker>) {
        self.state.queue.extend(walkers);
    }

    /// The rows' summed capacity, which a drain or a restore keeps.
    #[cfg(test)]
    pub(crate) fn reserved(&self) -> usize {
        self.rows.iter().map(Vec::capacity).sum()
    }
}

impl Machine for WalkStep {
    type Snapshot = Snapshot;

    /// The rows' lengths.
    fn staged(&self) -> Vec<u64> {
        self.rows.iter().map(|row| row.len() as u64).collect()
    }

    fn snapshot(&self) -> Snapshot {
        self.state.clone()
    }

    fn restore(&mut self, snapshot: &Snapshot) {
        self.state.queue.clone_from(&snapshot.queue);
        self.state.steps = snapshot.steps;
        self.state.sent = snapshot.sent;
        // The abandoned superstep may have left staged walkers and untaken
        // triples behind; the replay produces both again from the restored
        // queue.
        self.rows.iter_mut().for_each(Vec::clear);
        self.triples.clear();
    }

    /// One unit per in-flight walker.
    fn units(&self) -> u64 {
        self.state.queue.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The merge a table replaces: sort every triple, then append in order.
    /// Kept as the oracle.
    fn paths_by_sorting(
        mut log: Vec<(u64, u32, VertexId)>,
        num_walkers: usize,
    ) -> Vec<Vec<VertexId>> {
        log.sort_unstable();
        let mut paths = vec![Vec::new(); num_walkers];
        for (id, _step, v) in log {
            paths[id as usize].push(v);
        }
        paths
    }

    /// Places `log` in the order given and seals.
    fn table_of(
        log: impl IntoIterator<Item = (u64, u32, VertexId)>,
        num_walkers: usize,
        walk_len: u32,
    ) -> Result<PathTable, PathLogError> {
        let mut table = PathTable::new(num_walkers, walk_len);
        for (id, step, v) in log {
            table.place(id, step, v)?;
        }
        table.seal()?;
        Ok(table)
    }

    fn mix(x: u64) -> u64 {
        let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 27)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `lens[id]` vertices per walker: 0 is a walker that left no
        /// triple, anything under 7 a walk that hit a dead end, no walker
        /// at all an empty log. The triples arrive shuffled, cut into
        /// machine logs at arbitrary points, and the machines take turns
        /// in an arbitrary interleaving — as reader threads do.
        #[test]
        fn placement_equals_the_sort_based_merge(
            lens in prop::collection::vec(0u32..=7, 0..12),
            machines in 1usize..5,
            salt in 0u64..u64::MAX,
        ) {
            let mut log: Vec<(u64, u32, VertexId)> = Vec::new();
            for (id, &len) in lens.iter().enumerate() {
                for step in 0..len {
                    let v = mix(salt ^ (id as u64) << 8 ^ step as u64) as VertexId % 1000;
                    log.push((id as u64, step, v));
                }
            }
            log.sort_by_key(|&(id, step, _)| mix(salt.wrapping_add(id << 8 | step as u64)));
            let mut logs: Vec<std::slice::Iter<'_, _>> =
                log.chunks(log.len() / machines + 1).map(<[_]>::iter).collect();
            let mut turn = salt;
            let interleaved = std::iter::from_fn(|| {
                logs.retain(|log| log.len() > 0);
                turn = mix(turn.wrapping_add(1));
                let machine = turn as usize % logs.len().max(1);
                logs.get_mut(machine)?.next().copied()
            });
            let table = table_of(interleaved, lens.len(), 6).unwrap();
            let sorted = paths_by_sorting(log.clone(), lens.len());
            prop_assert_eq!(table.len(), sorted.len());
            prop_assert!(table.iter().eq(sorted.iter().map(Vec::as_slice)), "{:?}", table);
        }

        /// A rollback to the barrier of superstep `last`, wherever the run
        /// had got to: the truncated table is the table of the triples up
        /// to step `last` — the sort-based merge of those — and placing the
        /// abandoned ones again, as a replay does, is the untruncated table.
        /// A run caught mid-superstep has placed some walkers' latest hop
        /// and not others'.
        #[test]
        fn truncation_equals_the_merge_of_the_steps_kept(
            lens in prop::collection::vec(0u32..=7, 0..12),
            last in 0u32..8,
            salt in 0u64..u64::MAX,
        ) {
            let vertex = |id: usize, step: u32| mix(salt ^ (id as u64) << 8 ^ step as u64) as VertexId % 1000;
            let mut log: Vec<(u64, u32, VertexId)> = Vec::new();
            for (id, &len) in lens.iter().enumerate() {
                // Mid-superstep: a walker may be short of its latest hop.
                let len = len - (len > 0 && mix(salt ^ id as u64) % 3 == 0) as u32;
                log.extend((0..len).map(|step| (id as u64, step, vertex(id, step))));
            }
            let whole = table_of(log.iter().copied(), lens.len(), 6).unwrap();
            let (kept, abandoned): (Vec<_>, Vec<_>) =
                log.iter().copied().partition(|&(_, step, _)| step <= last);

            let mut table = whole.clone();
            table.truncate(last);
            prop_assert_eq!(&table, &table_of(kept.iter().copied(), lens.len(), 6).unwrap());
            let sorted = paths_by_sorting(kept, lens.len());
            prop_assert!(table.iter().eq(sorted.iter().map(Vec::as_slice)), "{:?}", table);
            table.seal().unwrap();

            for (id, step, v) in abandoned {
                table.place(id, step, v).unwrap();
            }
            prop_assert_eq!(table, whole);
        }
    }

    #[test]
    fn truncation_forgets_the_later_hops_and_only_those() {
        let log = [
            (0, 0, 5),
            (0, 1, 6),
            (0, 2, 7),
            (1, 0, 8),
            (2, 0, 9),
            (2, 1, 3),
        ];
        let mut table = table_of(log, 4, 2).unwrap();
        // Nothing lies past the walk's last step, or past where it got to.
        table.truncate(2);
        table.truncate(u32::MAX);
        assert_eq!(table, table_of(log, 4, 2).unwrap());
        table.truncate(0);
        assert_eq!(
            table,
            table_of([(0, 0, 5), (1, 0, 8), (2, 0, 9)], 4, 2).unwrap()
        );
        // A forgotten hop can be placed again, once.
        assert_eq!(table.place(2, 1, 4), Ok(()));
        assert_eq!(
            table.place(2, 1, 4),
            Err(PathLogError::Duplicate { id: 2, step: 1 })
        );
        // A hole below the cut is still a hole.
        let mut holed = PathTable::new(1, 3);
        holed.place(0, 0, 1).unwrap();
        holed.place(0, 2, 1).unwrap();
        holed.place(0, 3, 1).unwrap();
        holed.truncate(2);
        assert_eq!(
            holed.seal(),
            Err(PathLogError::StepOutOfRange { id: 0, step: 2 })
        );
    }

    #[test]
    fn a_started_table_holds_every_walker_at_its_start() {
        let table = PathTable::of_starts(&WalkStarts::PerVertex(2), 3, 4);
        let paths: Vec<&[VertexId]> = table.iter().collect();
        assert_eq!(paths, [[0], [1], [2], [0], [1], [2]]);
        let table = PathTable::of_starts(&WalkStarts::Explicit(vec![7, 7, 1]), 9, 0);
        assert_eq!(table.iter().collect::<Vec<_>>(), [[7], [7], [1]]);
        table.seal().unwrap();
    }

    #[test]
    fn logs_that_are_not_paths_are_rejected() {
        let merge = |log: &[(u64, u32, VertexId)]| {
            table_of(log.iter().copied(), 2, 3)
                .map(|table| table.iter().map(<[_]>::to_vec).collect::<Vec<_>>())
        };
        assert_eq!(merge(&[]), Ok(vec![vec![], vec![]]));
        assert_eq!(merge(&[(1, 1, 8), (1, 0, 9)]), Ok(vec![vec![], vec![9, 8]]));
        assert_eq!(
            merge(&[(2, 0, 5)]),
            Err(PathLogError::UnknownWalker { id: 2 })
        );
        assert_eq!(
            merge(&[(u64::MAX, 0, 5)]),
            Err(PathLogError::UnknownWalker { id: u64::MAX })
        );
        // Past the walk length, and past the end of a path with a gap.
        assert_eq!(
            merge(&[(0, 4, 5)]),
            Err(PathLogError::StepOutOfRange { id: 0, step: 4 })
        );
        assert_eq!(
            merge(&[(0, 0, 5), (0, 2, 6)]),
            Err(PathLogError::StepOutOfRange { id: 0, step: 2 })
        );
        assert_eq!(
            merge(&[(0, 0, 5), (0, 1, 6), (0, 1, 7)]),
            Err(PathLogError::Duplicate { id: 0, step: 1 })
        );
        // More triples than steps exist: the second is already one too many.
        let flood = [(1, 0, 5); 5];
        assert_eq!(
            merge(&flood),
            Err(PathLogError::Duplicate { id: 1, step: 0 })
        );
        // The id no vertex has would read as a slot still free.
        assert_eq!(
            merge(&[(0, 0, VertexId::MAX), (0, 0, 5)]),
            Err(PathLogError::NotAVertex { id: 0, step: 0 })
        );
    }

    /// What `staged` counts is what `outgoing` hands over, destination by
    /// destination, and the own row is empty; a drained row keeps its
    /// capacity. A restore after a step whose delivery never came leaves
    /// nothing staged, and the replayed step stages the same walkers again.
    #[test]
    fn staged_is_what_outgoing_drains_and_a_restore_clears_it() {
        use crate::apps::DeepWalk;
        use bpart_core::{ChunkV, Partitioner};
        use std::sync::Arc;
        let graph = Arc::new(bpart_graph::generate::complete(24));
        let cluster = Cluster::new(graph.clone(), Arc::new(ChunkV.partition(&graph, 3)));
        let app = DeepWalk::new(4);
        let mut steps = WalkStep::for_cluster(&cluster, &WalkStarts::PerVertex(2), 5, false);
        let step = &mut steps[1];
        let start = step.snapshot();
        let drain = |step: &mut WalkStep| -> Vec<Vec<Walker>> {
            (0..3).map(|to| step.outgoing(to).collect()).collect()
        };

        step.step(&app);
        let staged = step.staged();
        assert_eq!(staged[1], 0);
        assert!(staged.iter().sum::<u64>() > 0);
        let rows = drain(step);
        let lens: Vec<u64> = rows.iter().map(|row| row.len() as u64).collect();
        assert_eq!(lens, staged);
        assert_eq!(step.staged(), [0, 0, 0]);
        for (row, &n) in step.rows.iter().zip(&staged) {
            assert!(row.capacity() >= n as usize);
        }

        step.restore(&start);
        step.step(&app);
        step.restore(&start);
        assert_eq!(step.staged(), [0, 0, 0]);
        step.step(&app);
        assert_eq!(drain(step), rows);
    }

    #[test]
    fn a_table_reads_as_a_list_of_paths() {
        let table = table_of([(1, 1, 8), (1, 0, 9), (2, 0, 4)], 3, 1).unwrap();
        assert_eq!((table.len(), table.is_empty()), (3, false));
        assert_eq!(table[1], [9, 8]);
        assert_eq!(table.iter().len(), 3);
        let lens: Vec<usize> = (&table).into_iter().map(<[_]>::len).collect();
        assert_eq!(lens, [0, 2, 1]);
        // Arrival order is no part of a table.
        assert_eq!(
            table,
            table_of([(2, 0, 4), (1, 0, 9), (1, 1, 8)], 3, 1).unwrap()
        );
        assert_ne!(table, table_of([(1, 0, 9), (1, 1, 8)], 3, 1).unwrap());
        assert!(PathTable::default().is_empty());
    }

    #[test]
    fn a_table_too_large_to_allocate_is_refused_with_its_bytes() {
        assert_eq!(PathTable::check_size(3, 4), Ok(()));
        let bytes = 750u128 * (1 << 32) * 4;
        assert_eq!(PathTable::check_size(750, u32::MAX), Err(bytes));
        let bytes = u64::MAX as u128 * (1 << 32) * 4;
        assert_eq!(PathTable::check_size(u64::MAX, u32::MAX), Err(bytes));
    }
}
