//! Per-machine execution: sequential or real threads.
//!
//! Engines keep one state struct per machine; a superstep maps a closure
//! over all machine states. Because every machine state is a disjoint
//! `&mut`, the closure can run on real threads (crossbeam scope) with no
//! locks — results come back in machine order either way, so the two modes
//! produce identical output as long as each machine's computation is
//! self-contained (engines seed per-machine RNGs).
//!
//! A panicking closure does not abort the process: both modes catch the
//! unwind and surface it as a per-machine [`MachineFailure::Panic`], which
//! the engines treat like any other machine failure (recoverable via
//! checkpoint rollback, or re-raised when recovery is impossible).

use crate::fault::MachineFailure;
use crate::MachineId;
use crossbeam::thread;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How machine closures are executed within a superstep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// One machine after another on the calling thread (deterministic,
    /// zero overhead; the default, and the right choice on small graphs).
    #[default]
    Sequential,
    /// One OS thread per machine via a crossbeam scope — exercises the
    /// same code under real parallelism.
    Threaded,
}

/// Runs `f(machine, &mut state)` for every machine over disjoint states
/// and returns the per-machine outcomes in machine order.
///
/// A closure that panics yields `Err(MachineFailure::Panic(..))` for that
/// machine instead of tearing down the caller; the other machines still
/// run to completion in both modes. Note a panicked machine may have
/// half-updated its state — recovery must restore it from a snapshot.
pub fn for_each_machine<S, R, F>(
    mode: ExecMode,
    states: &mut [S],
    f: F,
) -> Vec<Result<R, MachineFailure>>
where
    S: Send,
    R: Send,
    F: Fn(MachineId, &mut S) -> R + Sync,
{
    match mode {
        ExecMode::Sequential => states
            .iter_mut()
            .enumerate()
            .map(|(m, s)| {
                catch_unwind(AssertUnwindSafe(|| f(m as MachineId, s)))
                    .map_err(MachineFailure::Panic)
            })
            .collect(),
        ExecMode::Threaded => thread::scope(|scope| {
            let handles: Vec<_> = states
                .iter_mut()
                .enumerate()
                .map(|(m, s)| {
                    let f = &f;
                    scope.spawn(move |_| f(m as MachineId, s))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(MachineFailure::Panic))
                .collect()
        })
        .expect("crossbeam scope failed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unwrap_all<R>(results: Vec<Result<R, MachineFailure>>) -> Vec<R> {
        results
            .into_iter()
            .map(|r| r.expect("machine should succeed"))
            .collect()
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let mut a = vec![1u64, 2, 3, 4];
        let mut b = a.clone();
        let f = |m: MachineId, s: &mut u64| {
            *s *= 10;
            *s + m as u64
        };
        let ra = unwrap_all(for_each_machine(ExecMode::Sequential, &mut a, f));
        let rb = unwrap_all(for_each_machine(ExecMode::Threaded, &mut b, f));
        assert_eq!(ra, rb);
        assert_eq!(a, b);
        assert_eq!(ra, vec![10, 21, 32, 43]);
    }

    #[test]
    fn results_come_back_in_machine_order() {
        let mut states = vec![(); 8];
        let r = unwrap_all(for_each_machine(ExecMode::Threaded, &mut states, |m, _| m));
        assert_eq!(r, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn empty_machine_set_is_fine() {
        let mut states: Vec<u8> = vec![];
        let r = for_each_machine(ExecMode::Sequential, &mut states, |_, _| 0u8);
        assert!(r.is_empty());
    }

    #[test]
    fn panicking_machine_becomes_a_failure_not_an_abort() {
        for mode in [ExecMode::Sequential, ExecMode::Threaded] {
            let mut states = vec![0u32; 4];
            let results = for_each_machine(mode, &mut states, |m, s| {
                if m == 2 {
                    panic!("machine 2 exploded");
                }
                *s = m + 100;
                *s
            });
            assert_eq!(results.len(), 4);
            for (m, r) in results.iter().enumerate() {
                if m == 2 {
                    let failure = r.as_ref().unwrap_err();
                    assert_eq!(failure.panic_message(), Some("machine 2 exploded"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), m as u32 + 100);
                }
            }
            // Healthy machines still mutated their state.
            assert_eq!(states[0], 100);
            assert_eq!(states[3], 103);
        }
    }
}
