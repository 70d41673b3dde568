//! Partial-order reduction (ample sets over invisible local steps).
//!
//! Decomposing connectors into port and channel processes — the PnP
//! approach — adds internal concurrency, and most of it is *invisible*:
//! buffer bookkeeping, scratch clearing, local counters. Interleaving those
//! steps with everything else multiplies the state space without changing
//! any observable behavior. This module implements a sound ample-set
//! reduction that executes such steps eagerly:
//!
//! * A control location is **local** when every outgoing transition (i) has
//!   a guard over the process's locals only, (ii) performs no channel
//!   operation and no assertion, and (iii) assigns only to the process's
//!   own locals. Such transitions are independent of every other process's
//!   transitions and invisible to global-variable predicates.
//! * Local locations lying on a cycle of local transitions are excluded,
//!   so local regions are acyclic: every cycle of the reduced state graph
//!   then contains a fully expanded state, discharging the ample-set cycle
//!   proviso statically.
//! * At a state where some process sits at an eligible local location with
//!   at least one enabled step, the explorer expands *only* that process's
//!   steps (ample set).
//!
//! The reduction preserves deadlocks, assertion failures, and the truth of
//! invariants and stutter-invariant LTL over *global-variable* predicates.
//! It is switched off automatically when a property uses a native
//! predicate (which may inspect locals, locations, or channel contents)
//! and during weak-fairness liveness search (fairness and ample sets
//! interact unsoundly).

use crate::expression::Expr;
use crate::program::{Action, LValue, ProcId, Program};

/// Per-(process, location) flags: `true` when every outgoing transition is
/// local and invisible.
#[derive(Debug, Clone)]
pub(crate) struct LocalLocations {
    flags: Vec<Vec<bool>>,
}

fn expr_is_local(e: &Expr) -> bool {
    e.max_global().is_none()
}

fn lvalue_is_local(lv: &LValue) -> bool {
    match lv {
        LValue::Local(_) => true,
        LValue::LocalIdx(_, offset) => expr_is_local(offset),
        LValue::Global(_) => false,
    }
}

fn transition_is_local(t: &crate::program::Transition) -> bool {
    if let Some(e) = &t.guard.expr {
        if !expr_is_local(e) {
            return false;
        }
    }
    // Native guards are locals-only by construction.
    match &t.action {
        Action::Skip | Action::Native(_) => true,
        Action::Assign(assignments) => assignments
            .iter()
            .all(|(lv, e)| lvalue_is_local(lv) && expr_is_local(e)),
        Action::Send { .. } | Action::Recv { .. } | Action::Assert { .. } => false,
    }
}

impl LocalLocations {
    /// Computes the static local-location table for a program.
    ///
    /// Locations that lie on a cycle of local transitions are excluded:
    /// with acyclic local regions, every cycle of the reduced state graph
    /// contains a fully expanded state, which discharges the ample-set
    /// cycle proviso *statically* (no dynamic stack or closed-set checks).
    pub(crate) fn analyze(program: &Program) -> LocalLocations {
        let mut flags: Vec<Vec<bool>> = program
            .processes
            .iter()
            .map(|p| {
                p.outgoing
                    .iter()
                    .map(|ts| !ts.is_empty() && ts.iter().all(transition_is_local))
                    .collect()
            })
            .collect();
        for (pi, p) in program.processes.iter().enumerate() {
            let local = flags[pi].clone();
            let n = local.len();
            // local -> local edges.
            let edges: Vec<Vec<usize>> = (0..n)
                .map(|l| {
                    if !local[l] {
                        return Vec::new();
                    }
                    p.outgoing[l]
                        .iter()
                        .map(|t| t.target as usize)
                        .filter(|&t| local[t])
                        .collect()
                })
                .collect();
            // A local location reachable from itself through local edges is
            // on a cycle: drop it from the reduction.
            for start in 0..n {
                if !local[start] {
                    continue;
                }
                let mut seen = vec![false; n];
                let mut stack: Vec<usize> = edges[start].clone();
                let mut on_cycle = false;
                while let Some(v) = stack.pop() {
                    if v == start {
                        on_cycle = true;
                        break;
                    }
                    if !seen[v] {
                        seen[v] = true;
                        stack.extend(edges[v].iter().copied());
                    }
                }
                if on_cycle {
                    flags[pi][start] = false;
                }
            }
        }
        LocalLocations { flags }
    }

    /// Whether every transition out of `(proc, loc)` is local/invisible.
    pub(crate) fn is_local(&self, proc: usize, loc: u32) -> bool {
        self.flags[proc][loc as usize]
    }

    /// The number of local locations, for diagnostics and tests.
    #[cfg(test)]
    pub(crate) fn local_count(&self) -> usize {
        self.flags
            .iter()
            .map(|p| p.iter().filter(|&&b| b).count())
            .sum()
    }
}

/// Restricts `steps`, in place, to an ample subset: the enabled steps of
/// the lowest-numbered process currently at an ample-eligible local
/// location, if any; otherwise all steps (full expansion).
pub(crate) fn ample_subset(
    analysis: &LocalLocations,
    program: &Program,
    state: &crate::state::State,
    steps: &mut Vec<crate::state::Step>,
) {
    let view = crate::state::StateView::new(program, state);
    for pi in 0..program.processes.len() {
        if analysis.is_local(pi, view.location(ProcId(pi)).0)
            && steps.iter().any(|s| s.proc.index() == pi)
        {
            steps.retain(|s| s.proc.index() == pi);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::expr;
    use crate::program::{Action, Guard, ProcessBuilder, ProgramBuilder};

    #[test]
    fn classifies_local_and_visible_locations() {
        let mut prog = ProgramBuilder::new();
        let g = prog.global("g", 0);
        let ch = prog.channel("ch", 1, 1);
        let mut p = ProcessBuilder::new("p");
        let x = p.local("x", 0);
        let local_loc = p.location("local");
        let global_loc = p.location("global");
        let chan_loc = p.location("chan");
        let assert_loc = p.location("assert");
        let guarded_loc = p.location("guarded_by_global");
        let empty_loc = p.location("no_transitions");
        // Local: assigns to own local under a local guard.
        p.transition(
            local_loc,
            global_loc,
            Guard::when(expr::lt(expr::local(x), 3.into())),
            Action::assign(x, expr::local(x) + 1.into()),
            "bump x",
        );
        // Visible: writes a global.
        p.transition(
            global_loc,
            chan_loc,
            Guard::always(),
            Action::assign(g, 1.into()),
            "write g",
        );
        // Visible: channel operation.
        p.transition(
            chan_loc,
            assert_loc,
            Guard::always(),
            Action::send(ch, vec![1.into()]),
            "send",
        );
        // Visible: assertion.
        p.transition(
            assert_loc,
            guarded_loc,
            Guard::always(),
            Action::assert(expr::local(x), "x nonzero"),
            "assert",
        );
        // Visible: guard reads a global.
        p.transition(
            guarded_loc,
            empty_loc,
            Guard::when(expr::gt(expr::global(g), 0.into())),
            Action::Skip,
            "guarded skip",
        );
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let analysis = LocalLocations::analyze(&program);
        assert!(analysis.is_local(0, local_loc.index() as u32));
        assert!(!analysis.is_local(0, global_loc.index() as u32));
        assert!(!analysis.is_local(0, chan_loc.index() as u32));
        assert!(!analysis.is_local(0, assert_loc.index() as u32));
        assert!(!analysis.is_local(0, guarded_loc.index() as u32));
        // A location with no transitions is not "local" (nothing to ample).
        assert!(!analysis.is_local(0, empty_loc.index() as u32));
        assert_eq!(analysis.local_count(), 1);
    }

    #[test]
    fn native_ops_and_skips_are_local_when_acyclic() {
        use crate::program::{NativeGuard, NativeOp};
        let mut prog = ProgramBuilder::new();
        let g = prog.global("g", 0);
        let mut p = ProcessBuilder::new("p");
        let _x = p.local("x", 0);
        let s0 = p.location("s0");
        let s1 = p.location("s1");
        let s2 = p.location("s2");
        p.transition(
            s0,
            s1,
            Guard::native(NativeGuard::new("x small", |l| l[0] < 5)),
            Action::Native(NativeOp::new("bump", |l| l[0] += 1)),
            "native bump",
        );
        p.transition(s1, s2, Guard::always(), Action::Skip, "skip on");
        // s2 is visible (writes a global), breaking any local cycle.
        p.transition(
            s2,
            s0,
            Guard::always(),
            Action::assign(g, 1.into()),
            "write g",
        );
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let analysis = LocalLocations::analyze(&program);
        assert_eq!(analysis.local_count(), 2);
    }

    #[test]
    fn local_cycles_are_excluded_from_the_reduction() {
        let mut prog = ProgramBuilder::new();
        let mut p = ProcessBuilder::new("p");
        let x = p.local("x", 0);
        let s0 = p.location("s0");
        let s1 = p.location("s1");
        // A purely local spin: s0 <-> s1. Both must be excluded or the
        // reduction could ignore every other process forever.
        p.transition(s0, s1, Guard::always(), Action::assign(x, 1.into()), "a");
        p.transition(s1, s0, Guard::always(), Action::assign(x, 0.into()), "b");
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let analysis = LocalLocations::analyze(&program);
        assert_eq!(analysis.local_count(), 0);
    }

    #[test]
    fn local_self_loop_is_excluded() {
        let mut prog = ProgramBuilder::new();
        let mut p = ProcessBuilder::new("p");
        let x = p.local("x", 0);
        let s0 = p.location("s0");
        p.transition(
            s0,
            s0,
            Guard::when(expr::lt(expr::local(x), 3.into())),
            Action::assign(x, expr::local(x) + 1.into()),
            "self bump",
        );
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let analysis = LocalLocations::analyze(&program);
        assert_eq!(analysis.local_count(), 0);
    }
}
