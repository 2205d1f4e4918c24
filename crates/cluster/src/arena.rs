//! Reusable per-machine message-staging arenas.
//!
//! A walk superstep stages its migrating walkers into per-destination
//! buffers, ships them at the barrier, and starts over. Allocating those
//! buffers fresh every superstep churns the allocator in proportion to
//! message volume. A [`MessageArena`] is the bump-style alternative: each
//! machine keeps one staging row for the whole run, the buffers grow to
//! their high-water mark once, and each superstep "resets" the arena by
//! draining it — the capacity is retained, never dropped. (The
//! vertex-program kernel's accumulator slots are its messages.)
//!
//! Lifecycle per superstep:
//!
//! 1. compute phase — the owning machine [`push`](MessageArena::push)es
//!    messages into its arena (disjoint per machine, so the threaded
//!    executor needs no locks);
//! 2. the superstep loop ([`bsp::drive`](crate::bsp::drive)) reads the
//!    [`staged_per_destination`](MessageArena::staged_per_destination)
//!    counts — all it ever sees of the messages;
//! 3. the delivery [`take_filled`](MessageArena::take_filled)s the row —
//!    one pointer move per destination — consumes every buffer where it
//!    lies, leaving it drained with its capacity intact, and hands the row
//!    back ([`put_drained`](MessageArena::put_drained)): the staged rows
//!    are the exchange, there is no second copy.
//!
//! On a fault rollback the exchange never happens;
//! [`reset`](MessageArena::reset) clears whatever was staged (again
//! keeping capacity) so the replayed superstep starts from a clean arena.
//!
//! Message content and delivery order are unaffected — the arena only
//! changes *where the bytes live*, so walk traces stay bit-identical to an
//! allocate-per-step engine (see the walk engine's determinism tests).

use crate::MachineId;

/// One machine's reusable per-destination staging row.
#[derive(Clone, Debug)]
pub struct MessageArena<M> {
    /// `boxes[to]` — messages staged for machine `to`. Empty (`len == 0`,
    /// outer `Vec` too) while the row is lent to a delivery.
    boxes: Vec<Vec<M>>,
    num_machines: usize,
    /// Largest number of messages staged in a single superstep.
    high_water: usize,
}

impl<M> MessageArena<M> {
    /// An empty arena for a `k`-machine cluster.
    ///
    /// # Panics
    ///
    /// Panics if `num_machines` is zero.
    pub fn new(num_machines: usize) -> Self {
        assert!(num_machines > 0, "need at least one machine");
        MessageArena {
            boxes: (0..num_machines).map(|_| Vec::new()).collect(),
            num_machines,
            high_water: 0,
        }
    }

    /// Stages a message for machine `to`.
    #[inline]
    pub fn push(&mut self, to: MachineId, msg: M) {
        self.boxes[to as usize].push(msg);
    }

    /// Messages currently staged across all destinations.
    pub fn staged(&self) -> usize {
        self.boxes.iter().map(Vec::len).sum()
    }

    /// Messages currently staged for each destination, in machine order
    /// (nothing while the row is lent).
    pub fn staged_per_destination(&self) -> impl Iterator<Item = u64> + '_ {
        self.boxes.iter().map(|staged| staged.len() as u64)
    }

    /// Total element capacity currently reserved across all destinations
    /// — stays at the high-water mark between supersteps, which is the
    /// whole point.
    pub fn reserved(&self) -> usize {
        self.boxes.iter().map(Vec::capacity).sum()
    }

    /// Largest number of messages ever staged in one superstep.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Moves the filled row out (for the exchange), leaving the arena
    /// rowless until [`put_drained`](MessageArena::put_drained) returns it.
    pub fn take_filled(&mut self) -> Vec<Vec<M>> {
        let row = std::mem::take(&mut self.boxes);
        self.high_water = self.high_water.max(row.iter().map(Vec::len).sum());
        row
    }

    /// Returns a drained row after the delivery. The row must match this
    /// arena's machine count and be fully drained — handing back a
    /// non-empty row would leak its messages into the next superstep.
    ///
    /// # Panics
    ///
    /// Panics if the row has the wrong arity or still holds messages.
    pub fn put_drained(&mut self, row: Vec<Vec<M>>) {
        assert_eq!(row.len(), self.num_machines, "row arity mismatch");
        assert!(
            row.iter().all(Vec::is_empty),
            "row still holds staged messages"
        );
        self.boxes = row;
    }

    /// Clears every staged message, keeping buffer capacity. Engines call
    /// this on fault rollback, where the superstep that staged the
    /// messages is abandoned and will be replayed.
    pub fn reset(&mut self) {
        for b in &mut self.boxes {
            b.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a delivery does to the lent rows: `rows[from][to]` drained
    /// into `inboxes[to]`, ascending sender.
    fn deliver<M>(rows: &mut [Vec<Vec<M>>]) -> Vec<Vec<M>> {
        let mut inboxes: Vec<Vec<M>> = rows.iter().map(|_| Vec::new()).collect();
        for row in rows.iter_mut() {
            for (to, staged) in row.iter_mut().enumerate() {
                inboxes[to].append(staged);
            }
        }
        inboxes
    }

    #[test]
    fn lifecycle_round_trip_through_the_router() {
        let mut arenas: Vec<MessageArena<u32>> = (0..3).map(|_| MessageArena::new(3)).collect();

        arenas[0].push(1, 10);
        arenas[0].push(1, 11);
        arenas[2].push(0, 20);
        assert_eq!(arenas[0].staged(), 2);

        let mut rows: Vec<_> = arenas.iter_mut().map(MessageArena::take_filled).collect();
        let inboxes = deliver(&mut rows);
        assert_eq!(inboxes[1], vec![10, 11]);
        assert_eq!(inboxes[0], vec![20]);
        for (arena, row) in arenas.iter_mut().zip(rows) {
            arena.put_drained(row);
        }
        assert_eq!(arenas[0].staged(), 0);
        assert_eq!(arenas[0].high_water(), 2);
        assert_eq!(arenas[2].high_water(), 1);
    }

    #[test]
    fn capacity_survives_the_drain() {
        let mut arena: MessageArena<u64> = MessageArena::new(2);
        for step in 0..4 {
            for i in 0..100 {
                arena.push((i % 2) as MachineId, i);
            }
            let mut rows = vec![arena.take_filled(), vec![Vec::new(), Vec::new()]];
            assert_eq!(deliver(&mut rows).iter().map(Vec::len).sum::<usize>(), 100);
            arena.put_drained(rows.swap_remove(0));
            assert_eq!(arena.staged(), 0);
            if step > 0 {
                // The drained buffers keep their high-water capacity.
                assert!(arena.reserved() >= 100, "step {step}: {}", arena.reserved());
            }
        }
        assert_eq!(arena.high_water(), 100);
    }

    #[test]
    fn reset_clears_but_keeps_capacity() {
        let mut arena: MessageArena<u8> = MessageArena::new(2);
        for _ in 0..50 {
            arena.push(1, 7);
        }
        let reserved = arena.reserved();
        arena.reset();
        assert_eq!(arena.staged(), 0);
        assert_eq!(arena.reserved(), reserved);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn put_drained_rejects_wrong_arity() {
        let mut arena: MessageArena<u8> = MessageArena::new(3);
        let _ = arena.take_filled();
        arena.put_drained(vec![Vec::new(); 2]);
    }

    #[test]
    #[should_panic(expected = "still holds staged messages")]
    fn put_drained_rejects_undrained_rows() {
        let mut arena: MessageArena<u8> = MessageArena::new(2);
        let _ = arena.take_filled();
        arena.put_drained(vec![vec![1], Vec::new()]);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_panics() {
        let _: MessageArena<u8> = MessageArena::new(0);
    }
}
