//! Deterministic crash injection for the BSP loop.
//!
//! Real BSP deployments lose machines mid-job; the paper's testbed metrics
//! all assume a quiet cluster. This module lets experiments replay the same
//! crashes every run: a [`FaultPlan`] says which machine dies at which
//! superstep, and a [`FaultState`] tracks which crashes have fired so
//! recovery does not re-trigger them.
//!
//! A crash fires at the exchange barrier (the only globally synchronised
//! point of a superstep), so every execution mode and both backends observe
//! it identically. The loop rolls every machine back to the last checkpoint
//! and replays; because all engines are deterministic (per-walker RNG state
//! migrates with the walker), replay reproduces bitwise-identical results,
//! and only modelled time and telemetry show the damage.
//!
//! Plans can be built programmatically or parsed from a compact spec
//! string (the CLI's `--fault-plan`); see [`FaultPlan::parse`].

use crate::MachineId;
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

#[derive(Clone, Debug, PartialEq)]
struct CrashFault {
    superstep: usize,
    machine: MachineId,
}

/// A deterministic schedule of machine crashes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    crashes: Vec<CrashFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Machine `machine` crashes at the barrier of superstep `superstep`
    /// (after computing, before its messages are delivered). Each crash
    /// fires exactly once — replaying the superstep succeeds.
    pub fn crash(mut self, superstep: usize, machine: MachineId) -> Self {
        self.crashes.push(CrashFault { superstep, machine });
        self
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }

    /// The highest machine id any crash clause names; `None` when the plan
    /// has none.
    pub fn max_machine(&self) -> Option<MachineId> {
        self.crashes.iter().map(|c| c.machine).max()
    }

    /// Parses the compact spec syntax used by `--fault-plan`: `crash@S:mM`
    /// clauses (machine `M` crashes at superstep `S`) separated by `;`.
    /// Whitespace around clauses is ignored.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanParseError> {
        let mut plan = FaultPlan::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let rest = clause
                .strip_prefix("crash@")
                .ok_or_else(|| bad(clause, "unknown clause (only crash@S:mM exists)"))?;
            let (step, machine) = rest
                .split_once(':')
                .ok_or_else(|| bad(clause, "expected crash@S:mM"))?;
            let superstep = parse_usize(step, clause)?;
            let machine = parse_machine(machine, clause)?;
            plan = plan.crash(superstep, machine);
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
/// CLI flags, job specs, and log lines. The empty plan renders empty.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.crashes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "; " };
            write!(f, "{sep}crash@{}:m{}", c.superstep, c.machine)?;
        }
        Ok(())
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_parser_agree() {
        let built = FaultPlan::new().crash(3, 1).crash(0, 2).crash(3, 0);
        let parsed = FaultPlan::parse("crash@3:m1; crash@0:m2;crash@3:m0").unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn display_round_trips_through_parse() {
        let plan = FaultPlan::new().crash(3, 1).crash(0, 2).crash(3, 1);
        let spec = plan.to_string();
        assert_eq!(spec, "crash@3:m1; crash@0:m2; crash@3:m1");
        assert_eq!(FaultPlan::parse(&spec).unwrap(), plan);
        // Empty plans render to the empty spec, which parses back empty.
        assert_eq!(FaultPlan::new().to_string(), "");
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for spec in [
            "crash@3",        // missing machine
            "crash@x:m1",     // non-numeric superstep
            "crash@-1:m1",    // negative superstep
            "crash@1:2",      // machine without m prefix
            "crash@1:mx",     // non-numeric machine
            "crash@1:m0:x2",  // trailing field
            "explode@1:m0",   // unknown clause
            "crash@1:m0;boo", // one bad clause spoils the plan
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "accepted {spec:?}");
        }
    }

    /// Straggler, link and seed clauses are gone: each is refused by name,
    /// and the refusal says what a clause may be.
    #[test]
    fn parse_refuses_the_removed_clauses_by_name() {
        for (spec, clause) in [
            ("straggle@0-5:m0:x10", "straggle@0-5:m0:x10"),
            ("crash@1:m0; drop@0-3:m0->m1:0.5", "drop@0-3:m0->m1:0.5"),
            ("dup@0-3:m1->m0:0.5", "dup@0-3:m1->m0:0.5"),
            ("seed=7;crash@2:m1", "seed=7"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert_eq!(err.clause, clause, "{spec}");
            assert!(err.to_string().contains("only crash@S:mM"), "{err}");
        }
    }

    #[test]
    fn empty_specs_parse_to_empty_plans() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ; ").unwrap().is_empty());
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().crash(0, 0).is_empty());
        assert_eq!(FaultPlan::new().max_machine(), None);
        assert_eq!(
            FaultPlan::new().crash(0, 4).crash(1, 2).max_machine(),
            Some(4)
        );
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
