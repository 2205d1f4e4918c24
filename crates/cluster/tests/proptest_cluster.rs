//! Property-based tests for the BSP simulator: message conservation and
//! delivery order through the superstep loop, telemetry bounds, and
//! exec-mode equivalence hold for arbitrary inputs.

use bpart_cluster::bsp::{self, Machine, Program};
use bpart_cluster::exec::{for_each_machine, ExecMode};
use bpart_cluster::{CostModel, IterationRecord, MachineId, Telemetry, WorkUnits};
use bpart_obs::SpanGuard;
use proptest::prelude::*;

/// A machine that stages what the script says into plain per-destination
/// rows and records, in delivery order, the `(sender, payload)` of
/// everything it is handed.
struct Node {
    id: MachineId,
    rows: Vec<Vec<u16>>,
    seen: Vec<(MachineId, u16)>,
}

impl Machine for Node {
    type Msg = u16;
    type Snapshot = ();

    /// A self-message is allowed here, and counted.
    fn staged(&self) -> Vec<u64> {
        self.rows.iter().map(|row| row.len() as u64).collect()
    }
    fn snapshot(&self) {}
    fn restore(&mut self, _: &()) {}
    fn units(&self) -> u64 {
        0
    }
}

/// One superstep that sends `sends` (`(from, to, payload)`, in order).
struct Script<'a> {
    sends: &'a [(MachineId, MachineId, u16)],
}

impl Program for Script<'_> {
    type Machine = Node;
    type Computed = ();

    fn open(&mut self, superstep: usize, _: &[Node]) -> Option<SpanGuard> {
        (superstep == 0).then(|| bpart_obs::span("cluster.superstep"))
    }
    fn compute(&self, node: &mut Node) {
        for &(from, to, payload) in self.sends {
            if from == node.id {
                node.rows[to as usize].push(payload);
            }
        }
    }
    fn computed(&mut self, out: Vec<()>, _: &mut SpanGuard) -> Vec<WorkUnits> {
        vec![WorkUnits::default(); out.len()]
    }
    /// Drains `rows[to]` of every sender in place, ascending — what both
    /// engines' deliveries do.
    fn deliver(&mut self, _: usize, nodes: &mut [Node]) -> Vec<WorkUnits> {
        for to in 0..nodes.len() {
            for from in 0..nodes.len() {
                let arrived: Vec<u16> = nodes[from].rows[to].drain(..).collect();
                let from = from as MachineId;
                nodes[to]
                    .seen
                    .extend(arrived.into_iter().map(|p| (from, p)));
            }
        }
        vec![WorkUnits::default(); nodes.len()]
    }
    /// Runs here inject no fault, so nothing is ever reset.
    fn reset(&self, _: &mut [Node]) {}
}

const K: usize = 6;

fn nodes() -> Vec<Node> {
    (0..K)
        .map(|id| Node {
            id: id as MachineId,
            rows: vec![Vec::new(); K],
            seen: Vec::new(),
        })
        .collect()
}

const MODES: [ExecMode; 2] = [ExecMode::Sequential, ExecMode::Threaded];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every staged message is delivered exactly once, to its destination,
    /// senders ascending and each sender's append order kept; the loop's
    /// `sent` / `received` are the staged counts.
    #[test]
    fn exchange_conserves_every_message(
        sends in prop::collection::vec((0u32..K as u32, 0u32..K as u32, 0u16..100), 0..200),
        mode in 0usize..2,
    ) {
        let mut nodes = nodes();
        let cfg = bsp::Config { mode: MODES[mode], ..bsp::Config::default() };
        let (telemetry, supersteps) =
            bsp::drive(&cfg, &mut Script { sends: &sends }, &mut nodes).unwrap();
        prop_assert_eq!(supersteps, 1);
        for (to, node) in nodes.iter().enumerate() {
            // A stable sort by sender of what was addressed to `to` is the
            // one order the delivery may produce.
            let mut expect: Vec<(MachineId, u16)> = sends
                .iter()
                .filter(|&&(_, t, _)| t as usize == to)
                .map(|&(from, _, p)| (from, p))
                .collect();
            expect.sort_by_key(|&(from, _)| from);
            prop_assert_eq!(&node.seen, &expect);
            prop_assert!(node.rows.iter().all(Vec::is_empty));
        }
        let record = &telemetry.records()[0];
        let cost = CostModel::default();
        for m in 0..K {
            let sent = sends.iter().filter(|&&(f, _, _)| f as usize == m).count() as u64;
            let received = sends.iter().filter(|&&(_, t, _)| t as usize == m).count() as u64;
            prop_assert_eq!(record.sent[m], sent);
            prop_assert_eq!(record.comm[m], cost.comm_time(sent, received));
        }
        prop_assert_eq!(telemetry.total_messages(), sends.len() as u64);
    }

    #[test]
    fn waiting_ratio_is_always_a_fraction(
        records in prop::collection::vec(
            prop::collection::vec(0.0f64..1000.0, 4),
            1..20
        )
    ) {
        let t = Telemetry::new();
        for compute in &records {
            t.record(IterationRecord {
                compute: compute.clone(),
                comm: vec![0.0; 4],
                sent: vec![0; 4],
                ..IterationRecord::default()
            });
        }
        let ratio = t.waiting_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio), "ratio {ratio}");
        // total time >= every machine's own compute sum
        let total = t.total_time();
        for m in 0..4 {
            let own: f64 = records.iter().map(|r| r[m]).sum();
            prop_assert!(total >= own - 1e-9);
        }
    }

    #[test]
    fn cost_model_is_monotone_in_work(
        steps in 0u64..1000, edges in 0u64..1000, verts in 0u64..1000
    ) {
        let m = CostModel::default();
        let w = WorkUnits { steps, edges_scanned: edges, vertices_updated: verts };
        let t = m.compute_time(&w);
        prop_assert!(t >= 0.0);
        let bigger = WorkUnits { steps: steps + 1, ..w };
        prop_assert!(m.compute_time(&bigger) > t);
        prop_assert!(m.comm_time(steps, edges) >= 0.0);
    }

    #[test]
    fn exec_modes_agree_on_arbitrary_state(values in prop::collection::vec(0u64..1000, 0..16)) {
        let f = |m: u32, s: &mut u64| {
            *s = s.wrapping_mul(31).wrapping_add(m as u64);
            *s
        };
        let mut a = values.clone();
        let mut b = values.clone();
        let ra: Vec<u64> = for_each_machine(ExecMode::Sequential, &mut a, f)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let rb: Vec<u64> = for_each_machine(ExecMode::Threaded, &mut b, f)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(a, b);
    }
}
