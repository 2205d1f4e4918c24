//! Deterministic fault injection for the simulated cluster.
//!
//! Real BSP deployments lose machines mid-job, suffer stragglers, and see
//! lossy links; the paper's testbed metrics all assume a quiet cluster.
//! This module lets experiments replay the same faults every run: a
//! [`FaultPlan`] is a seedable description of *what goes wrong when*, and
//! a [`FaultState`] tracks which faults have fired so recovery does not
//! re-trigger them.
//!
//! Faults are applied at the exchange barrier (the only globally
//! synchronised point of a superstep), so both execution modes observe
//! them identically:
//!
//! * **crash** — a machine dies at superstep `s`. The engines roll every
//!   machine back to the last checkpoint and replay; because all engines
//!   are deterministic (per-walker RNG state migrates with the walker),
//!   replay reproduces bitwise-identical results, and only modelled time
//!   and telemetry show the damage.
//! * **straggler** — a machine's computation runs `factor`× slower over a
//!   superstep range. Results are untouched; waiting-time telemetry grows.
//! * **link drop / duplication** — each message on a directed machine pair
//!   is dropped (then retransmitted) or duplicated (then deduplicated)
//!   with some probability. Payloads still arrive exactly once, so
//!   results are unchanged; the extra traffic is charged to the cost
//!   model. The per-message decision is a stateless hash of
//!   `(seed, superstep, from, to, index)` — no RNG stream to advance —
//!   so sequential and threaded executors agree on every decision.
//!
//! Plans can be built programmatically or parsed from a compact spec
//! string (the CLI's `--fault-plan`); see [`FaultPlan::parse`].

use crate::MachineId;
use bpart_graph::splitmix::{splitmix64, unit_f64};
use std::any::Any;
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;

/// Why one machine's superstep did not complete.
pub enum MachineFailure {
    /// The machine's closure panicked; the payload is preserved so an
    /// unrecoverable failure can be re-raised faithfully.
    Panic(Box<dyn Any + Send + 'static>),
    /// The fault plan crashed this machine at the exchange barrier.
    Crash {
        /// Superstep during which the crash fired.
        superstep: usize,
    },
}

impl MachineFailure {
    /// Best-effort human-readable description of a panic payload.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            MachineFailure::Panic(payload) => payload
                .downcast_ref::<&'static str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str)),
            MachineFailure::Crash { .. } => None,
        }
    }
}

impl fmt::Debug for MachineFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineFailure::Panic(_) => {
                write!(f, "Panic({:?})", self.panic_message().unwrap_or("..."))
            }
            MachineFailure::Crash { superstep } => {
                write!(f, "Crash {{ superstep: {superstep} }}")
            }
        }
    }
}

/// A machine failure the engines could not recover from (e.g. a closure
/// that panics deterministically on every replay).
#[derive(Debug)]
pub struct UnrecoverableFailure {
    /// Superstep at which recovery was abandoned.
    pub superstep: usize,
    /// The failing machine.
    pub machine: MachineId,
    /// What went wrong.
    pub failure: MachineFailure,
}

impl fmt::Display for UnrecoverableFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "machine {} failed unrecoverably at superstep {}: {:?}",
            self.machine, self.superstep, self.failure
        )
    }
}

impl std::error::Error for UnrecoverableFailure {}

impl UnrecoverableFailure {
    /// Panics with the failure: re-raises the original payload of a
    /// machine panic, the failure's description otherwise.
    pub fn raise(self) -> ! {
        match self.failure {
            MachineFailure::Panic(payload) => std::panic::resume_unwind(payload),
            MachineFailure::Crash { .. } => panic!("{self}"),
        }
    }
}

/// Kinds of link fault (directed machine pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LinkKind {
    Drop,
    Duplicate,
}

#[derive(Clone, Debug, PartialEq)]
struct CrashFault {
    superstep: usize,
    machine: MachineId,
}

#[derive(Clone, Debug, PartialEq)]
struct StragglerFault {
    first: usize,
    last: usize,
    machine: MachineId,
    factor: f64,
}

#[derive(Clone, Debug, PartialEq)]
struct LinkFault {
    first: usize,
    last: usize,
    from: MachineId,
    to: MachineId,
    kind: LinkKind,
    probability: f64,
}

/// Extra message traffic caused by link faults on one directed pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkOverhead {
    /// Messages lost and retransmitted (sender pays one extra send).
    pub dropped: u64,
    /// Messages delivered twice and deduplicated (receiver pays one
    /// extra receive).
    pub duplicated: u64,
}

impl LinkOverhead {
    /// Total faulty events on the link.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated
    }
}

/// A deterministic, seedable schedule of faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<CrashFault>,
    stragglers: Vec<StragglerFault>,
    links: Vec<LinkFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the seed feeding the per-message drop/duplicate decisions.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Machine `machine` crashes at the barrier of superstep `superstep`
    /// (after computing, before its messages are delivered). Each crash
    /// fires exactly once — replaying the superstep succeeds.
    pub fn crash(mut self, superstep: usize, machine: MachineId) -> Self {
        self.crashes.push(CrashFault { superstep, machine });
        self
    }

    /// Machine `machine` computes `factor`× slower during supersteps
    /// `first..=last` (inclusive). Factors below 1.0 are clamped to 1.0.
    pub fn straggler(mut self, first: usize, last: usize, machine: MachineId, factor: f64) -> Self {
        self.stragglers.push(StragglerFault {
            first,
            last,
            machine,
            factor: factor.max(1.0),
        });
        self
    }

    /// Messages from `from` to `to` are each dropped (and retransmitted)
    /// with probability `probability` during supersteps `first..=last`.
    pub fn drop_link(
        mut self,
        first: usize,
        last: usize,
        from: MachineId,
        to: MachineId,
        probability: f64,
    ) -> Self {
        self.links.push(LinkFault {
            first,
            last,
            from,
            to,
            kind: LinkKind::Drop,
            probability: probability.clamp(0.0, 1.0),
        });
        self
    }

    /// Messages from `from` to `to` are each duplicated (and deduplicated
    /// at the receiver) with probability `probability` during supersteps
    /// `first..=last`.
    pub fn duplicate_link(
        mut self,
        first: usize,
        last: usize,
        from: MachineId,
        to: MachineId,
        probability: f64,
    ) -> Self {
        self.links.push(LinkFault {
            first,
            last,
            from,
            to,
            kind: LinkKind::Duplicate,
            probability: probability.clamp(0.0, 1.0),
        });
        self
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.stragglers.is_empty() && self.links.is_empty()
    }

    /// The highest machine id any crash, straggle or link clause names;
    /// `None` when no clause names one.
    pub fn max_machine(&self) -> Option<MachineId> {
        let crashes = self.crashes.iter().map(|c| c.machine);
        let stragglers = self.stragglers.iter().map(|s| s.machine);
        let links = self.links.iter().flat_map(|l| [l.from, l.to]);
        crashes.chain(stragglers).chain(links).max()
    }

    /// The plan's first straggle clause as it is written, if it has one.
    pub fn straggle_clause(&self) -> Option<String> {
        let straggler = self.stragglers.first()?.clone();
        Some(
            FaultPlan {
                stragglers: vec![straggler],
                ..FaultPlan::default()
            }
            .to_string(),
        )
    }

    /// The plan's first link clause from a machine to itself, as it is
    /// written: a machine stages no message for itself, so it never fires.
    pub fn self_link_clause(&self) -> Option<String> {
        let link = self.links.iter().find(|l| l.from == l.to)?.clone();
        Some(
            FaultPlan {
                links: vec![link],
                ..FaultPlan::default()
            }
            .to_string(),
        )
    }

    /// True when the plan schedules any link drop/duplication faults.
    pub fn has_link_faults(&self) -> bool {
        !self.links.is_empty()
    }

    /// Parses the compact spec syntax used by `--fault-plan`: clauses
    /// separated by `;`, each one of
    ///
    /// ```text
    /// seed=N                 seed for per-message decisions
    /// crash@S:mM             machine M crashes at superstep S
    /// straggle@A-B:mM:xF     machine M runs F x slower on supersteps A..=B (F >= 1)
    /// drop@A-B:mF->mT:P      link F->T drops each message with prob. P
    /// dup@A-B:mF->mT:P       link F->T duplicates each message with prob. P
    /// ```
    ///
    /// Superstep ranges also accept a single value (`straggle@3:m0:x2`).
    /// Whitespace around clauses is ignored. A plan has one seed: a second
    /// `seed=` clause is refused by name.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanParseError> {
        let mut plan = FaultPlan::new();
        let mut seeded = false;
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(v) = clause.strip_prefix("seed=") {
                if seeded {
                    return Err(bad(clause, "a plan has one seed, and this is a second"));
                }
                seeded = true;
                plan.seed = v
                    .trim()
                    .parse()
                    .map_err(|_| bad(clause, "seed must be an integer"))?;
            } else if let Some(rest) = clause.strip_prefix("crash@") {
                let (step, machine) = rest
                    .split_once(':')
                    .ok_or_else(|| bad(clause, "expected crash@S:mM"))?;
                let superstep = parse_usize(step, clause)?;
                let machine = parse_machine(machine, clause)?;
                plan = plan.crash(superstep, machine);
            } else if let Some(rest) = clause.strip_prefix("straggle@") {
                let mut parts = rest.split(':');
                let range = parts.next().ok_or_else(|| bad(clause, "missing range"))?;
                let machine = parts
                    .next()
                    .ok_or_else(|| bad(clause, "expected straggle@A-B:mM:xF"))?;
                let factor = parts
                    .next()
                    .and_then(|f| f.strip_prefix('x'))
                    .ok_or_else(|| bad(clause, "expected factor of the form xF"))?;
                if parts.next().is_some() {
                    return Err(bad(clause, "too many fields"));
                }
                let (first, last) = parse_range(range, clause)?;
                let machine = parse_machine(machine, clause)?;
                let factor: f64 = factor
                    .parse()
                    .map_err(|_| bad(clause, "factor must be a number"))?;
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err(bad(clause, "factor must be a finite number ≥ 1"));
                }
                plan = plan.straggler(first, last, machine, factor);
            } else if let Some((kind, rest)) = clause
                .strip_prefix("drop@")
                .map(|r| (LinkKind::Drop, r))
                .or_else(|| {
                    clause
                        .strip_prefix("dup@")
                        .map(|r| (LinkKind::Duplicate, r))
                })
            {
                let mut parts = rest.split(':');
                let range = parts.next().ok_or_else(|| bad(clause, "missing range"))?;
                let link = parts
                    .next()
                    .ok_or_else(|| bad(clause, "expected @A-B:mF->mT:P"))?;
                let prob = parts
                    .next()
                    .ok_or_else(|| bad(clause, "missing probability"))?;
                if parts.next().is_some() {
                    return Err(bad(clause, "too many fields"));
                }
                let (first, last) = parse_range(range, clause)?;
                let (from, to) = link
                    .split_once("->")
                    .ok_or_else(|| bad(clause, "expected link of the form mF->mT"))?;
                let from = parse_machine(from, clause)?;
                let to = parse_machine(to, clause)?;
                let probability: f64 = prob
                    .parse()
                    .map_err(|_| bad(clause, "probability must be a number"))?;
                if !(0.0..=1.0).contains(&probability) {
                    return Err(bad(clause, "probability must be within [0, 1]"));
                }
                plan.links.push(LinkFault {
                    first,
                    last,
                    from,
                    to,
                    kind,
                    probability,
                });
            } else {
                return Err(bad(clause, "unknown clause (crash/straggle/drop/dup/seed)"));
            }
        }
        Ok(plan)
    }
}

impl FromStr for FaultPlan {
    type Err = FaultPlanParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultPlan::parse(s)
    }
}

/// Renders the compact spec syntax accepted by [`FaultPlan::parse`], so
/// `parse(plan.to_string()) == plan` — plans survive a round trip through
/// CLI flags, job specs, and log lines. A zero seed and empty clause
/// lists are omitted; single-superstep ranges print without the `-B`
/// half, and floats use Rust's shortest-round-trip formatting, all of
/// which parse back to the identical plan.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        let mut clause = |f: &mut fmt::Formatter<'_>| {
            let s = sep;
            sep = "; ";
            f.write_str(s)
        };
        if self.seed != 0 {
            clause(f)?;
            write!(f, "seed={}", self.seed)?;
        }
        for c in &self.crashes {
            clause(f)?;
            write!(f, "crash@{}:m{}", c.superstep, c.machine)?;
        }
        for s in &self.stragglers {
            clause(f)?;
            write!(f, "straggle@")?;
            write_range(f, s.first, s.last)?;
            write!(f, ":m{}:x{}", s.machine, s.factor)?;
        }
        for l in &self.links {
            clause(f)?;
            let kind = match l.kind {
                LinkKind::Drop => "drop",
                LinkKind::Duplicate => "dup",
            };
            write!(f, "{kind}@")?;
            write_range(f, l.first, l.last)?;
            write!(f, ":m{}->m{}:{}", l.from, l.to, l.probability)?;
        }
        Ok(())
    }
}

fn write_range(f: &mut fmt::Formatter<'_>, first: usize, last: usize) -> fmt::Result {
    if first == last {
        write!(f, "{first}")
    } else {
        write!(f, "{first}-{last}")
    }
}

/// A malformed `--fault-plan` spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlanParseError {
    clause: String,
    reason: String,
}

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault clause {:?}: {}", self.clause, self.reason)
    }
}

impl std::error::Error for FaultPlanParseError {}

fn bad(clause: &str, reason: &str) -> FaultPlanParseError {
    FaultPlanParseError {
        clause: clause.to_string(),
        reason: reason.to_string(),
    }
}

fn parse_usize(s: &str, clause: &str) -> Result<usize, FaultPlanParseError> {
    s.trim()
        .parse()
        .map_err(|_| bad(clause, "superstep must be an integer"))
}

fn parse_machine(s: &str, clause: &str) -> Result<MachineId, FaultPlanParseError> {
    s.trim()
        .strip_prefix('m')
        .ok_or_else(|| bad(clause, "machine must look like m3"))?
        .parse()
        .map_err(|_| bad(clause, "machine id must be an integer"))
}

fn parse_range(s: &str, clause: &str) -> Result<(usize, usize), FaultPlanParseError> {
    match s.split_once('-') {
        Some((a, b)) => {
            let first = parse_usize(a, clause)?;
            let last = parse_usize(b, clause)?;
            if first > last {
                return Err(bad(clause, "range start exceeds range end"));
            }
            Ok((first, last))
        }
        None => {
            let v = parse_usize(s, clause)?;
            Ok((v, v))
        }
    }
}

/// Runtime fault tracker: owns a plan plus the set of already-fired
/// crashes, so a replayed superstep does not crash again.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    fired: HashSet<(usize, MachineId)>,
}

impl FaultState {
    /// Tracker over `plan` with no faults fired yet.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            fired: HashSet::new(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Machines crashing at `superstep` that have not fired yet; marks
    /// them fired. Call exactly once per (possibly replayed) superstep.
    pub fn take_crashes(&mut self, superstep: usize) -> Vec<MachineId> {
        let mut crashed: Vec<MachineId> = self
            .plan
            .crashes
            .iter()
            .filter(|c| c.superstep == superstep && !self.fired.contains(&(superstep, c.machine)))
            .map(|c| c.machine)
            .collect();
        crashed.sort_unstable();
        crashed.dedup();
        for &m in &crashed {
            self.fired.insert((superstep, m));
        }
        crashed
    }

    /// Combined slowdown factor for `machine` at `superstep` (1.0 when no
    /// straggler fault is active). Stragglers are stateless, so replays
    /// are slowed identically.
    pub fn compute_factor(&self, superstep: usize, machine: MachineId) -> f64 {
        self.plan
            .stragglers
            .iter()
            .filter(|s| s.machine == machine && (s.first..=s.last).contains(&superstep))
            .map(|s| s.factor)
            .product()
    }

    /// Extra traffic on the directed link `from -> to` given `messages`
    /// staged messages this superstep. Decisions hash
    /// `(seed, superstep, from, to, index)` — identical across execution
    /// modes and across replays.
    pub fn link_overhead(
        &self,
        superstep: usize,
        from: MachineId,
        to: MachineId,
        messages: u64,
    ) -> LinkOverhead {
        let mut overhead = LinkOverhead::default();
        for fault in &self.plan.links {
            if fault.from != from || fault.to != to {
                continue;
            }
            if !(fault.first..=fault.last).contains(&superstep) {
                continue;
            }
            if fault.probability <= 0.0 || messages == 0 {
                continue;
            }
            let tag = match fault.kind {
                LinkKind::Drop => 0x5eed_d809u64,
                LinkKind::Duplicate => 0xd0_91caau64,
            };
            let base = splitmix64(self.plan.seed ^ tag)
                ^ splitmix64(superstep as u64)
                ^ splitmix64(((from as u64) << 32) | to as u64);
            let mut hits = 0u64;
            for i in 0..messages {
                if unit_f64(splitmix64(base ^ i)) < fault.probability {
                    hits += 1;
                }
            }
            match fault.kind {
                LinkKind::Drop => overhead.dropped += hits,
                LinkKind::Duplicate => overhead.duplicated += hits,
            }
        }
        overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_parser_agree() {
        let built = FaultPlan::new()
            .with_seed(7)
            .crash(3, 1)
            .straggler(0, 5, 2, 4.0)
            .drop_link(1, 2, 0, 3, 0.5)
            .duplicate_link(4, 4, 3, 0, 0.25);
        let parsed = FaultPlan::parse(
            "seed=7; crash@3:m1; straggle@0-5:m2:x4; drop@1-2:m0->m3:0.5; dup@4:m3->m0:0.25",
        )
        .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn display_round_trips_through_parse() {
        let plan = FaultPlan::new()
            .with_seed(7)
            .crash(3, 1)
            .straggler(0, 5, 2, 4.0)
            .straggler(3, 3, 0, 1.5)
            .drop_link(1, 2, 0, 3, 0.5)
            .duplicate_link(4, 4, 3, 0, 0.25);
        let spec = plan.to_string();
        assert_eq!(
            spec,
            "seed=7; crash@3:m1; straggle@0-5:m2:x4; straggle@3:m0:x1.5; \
             drop@1-2:m0->m3:0.5; dup@4:m3->m0:0.25"
        );
        assert_eq!(FaultPlan::parse(&spec).unwrap(), plan);
        // Empty plans render to the empty spec, which parses back empty.
        assert_eq!(FaultPlan::new().to_string(), "");
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn only_link_clauses_are_link_faults() {
        let plan = FaultPlan::new().crash(4, 2).straggler(0, 9, 1, 4.0);
        assert!(!plan.has_link_faults());
        assert!(FaultPlan::new()
            .drop_link(0, 1, 0, 1, 0.5)
            .has_link_faults());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for spec in [
            "crash@3",            // missing machine
            "crash@x:m1",         // non-numeric superstep
            "straggle@0-5:m2",    // missing factor
            "straggle@5-0:m2:x2", // inverted range
            "drop@1:m0-m3:0.5",   // bad link arrow
            "drop@1:m0->m3:1.5",  // probability out of range
            "dup@1:m0->m3:nope",  // non-numeric probability
            "explode@1:m0",       // unknown clause
            "seed=abc",           // non-numeric seed
            "straggle@1:2:x2",    // machine without m prefix
            // A factor below 1 or NaN would run as x1, inf as infinite time.
            "straggle@0-3:m0:x-1",
            "straggle@0-3:m0:x0",
            "straggle@0-3:m0:x0.5",
            "straggle@0-3:m0:xnan",
            "straggle@0-3:m0:xinf",
            "straggle@0-3:m0:x1e309",
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "accepted {spec:?}");
        }
    }

    /// Two seeds would leave the last one in force without a word; the
    /// second is refused and named, whatever lies between or after.
    #[test]
    fn parse_refuses_a_second_seed() {
        for (spec, second) in [
            ("seed=1;seed=2", "seed=2"),
            ("seed=1; crash@3:m1; seed=1", "seed=1"),
            ("seed=0;seed=7;seed=9", "seed=7"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert_eq!(err.clause, second, "{spec}");
            assert!(err.to_string().contains("second"), "{err}");
        }
        assert_eq!(
            FaultPlan::parse("seed=3").unwrap(),
            FaultPlan::new().with_seed(3)
        );
    }

    #[test]
    fn empty_specs_parse_to_empty_plans() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ; ").unwrap().is_empty());
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().crash(0, 0).is_empty());
    }

    #[test]
    fn crashes_fire_exactly_once() {
        let mut state = FaultState::new(FaultPlan::new().crash(2, 1).crash(2, 0).crash(5, 1));
        assert!(state.take_crashes(0).is_empty());
        assert_eq!(state.take_crashes(2), vec![0, 1]);
        // Replaying superstep 2 after recovery: no second crash.
        assert!(state.take_crashes(2).is_empty());
        assert_eq!(state.take_crashes(5), vec![1]);
        assert!(state.take_crashes(5).is_empty());
    }

    #[test]
    fn straggler_factors_compose_and_expire() {
        let state = FaultState::new(
            FaultPlan::new()
                .straggler(1, 3, 0, 2.0)
                .straggler(2, 2, 0, 3.0)
                .straggler(0, 9, 1, 5.0),
        );
        assert_eq!(state.compute_factor(0, 0), 1.0);
        assert_eq!(state.compute_factor(1, 0), 2.0);
        assert_eq!(state.compute_factor(2, 0), 6.0);
        assert_eq!(state.compute_factor(4, 0), 1.0);
        assert_eq!(state.compute_factor(4, 1), 5.0);
        assert_eq!(state.compute_factor(4, 2), 1.0);
    }

    #[test]
    fn sub_unit_straggler_factors_are_clamped() {
        let state = FaultState::new(FaultPlan::new().straggler(0, 0, 0, 0.25));
        assert_eq!(state.compute_factor(0, 0), 1.0);
    }

    #[test]
    fn link_overhead_is_deterministic_and_bounded() {
        let plan = FaultPlan::new()
            .with_seed(11)
            .drop_link(0, 10, 0, 1, 0.3)
            .duplicate_link(0, 10, 0, 1, 0.2);
        let a = FaultState::new(plan.clone());
        let b = FaultState::new(plan);
        for step in 0..5 {
            let oa = a.link_overhead(step, 0, 1, 1000);
            let ob = b.link_overhead(step, 0, 1, 1000);
            assert_eq!(oa, ob);
            assert!(oa.dropped <= 1000 && oa.duplicated <= 1000);
            // With 1000 messages at p=0.3/0.2 the expected hit counts are
            // 300/200; a deterministic hash should land near them.
            assert!((150..450).contains(&(oa.dropped as i64)), "{oa:?}");
            assert!((80..320).contains(&(oa.duplicated as i64)), "{oa:?}");
        }
        // Unaffected links and supersteps see zero overhead.
        assert_eq!(a.link_overhead(3, 1, 0, 1000), LinkOverhead::default());
        assert_eq!(a.link_overhead(11, 0, 1, 1000), LinkOverhead::default());
        assert_eq!(a.link_overhead(3, 0, 1, 0), LinkOverhead::default());
    }

    #[test]
    fn link_overhead_certainty_edges() {
        let always = FaultState::new(FaultPlan::new().drop_link(0, 0, 0, 1, 1.0));
        assert_eq!(always.link_overhead(0, 0, 1, 64).dropped, 64);
        let never = FaultState::new(FaultPlan::new().drop_link(0, 0, 0, 1, 0.0));
        assert_eq!(never.link_overhead(0, 0, 1, 64).dropped, 0);
    }

    #[test]
    fn machine_failure_reports_panic_messages() {
        let failure = MachineFailure::Panic(Box::new("boom".to_string()));
        assert_eq!(failure.panic_message(), Some("boom"));
        assert!(format!("{failure:?}").contains("boom"));
        let crash = MachineFailure::Crash { superstep: 4 };
        assert_eq!(crash.panic_message(), None);
        assert!(format!("{crash:?}").contains('4'));
        let err = UnrecoverableFailure {
            superstep: 4,
            machine: 2,
            failure: crash,
        };
        assert!(err.to_string().contains("machine 2"));
    }
}
