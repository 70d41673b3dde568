//! An independent reference oracle for the kernel's step semantics.
//!
//! Every other kernel test compares the kernel with itself (threads against
//! one thread, one backend against another), so a bug in the shared step
//! semantics or state encoding would agree with itself everywhere. This
//! oracle shares none of that code: it interprets the random [`Move`] lists
//! directly, over its own plain state `(pcs, counters, g0, g1, queue)`,
//! keeps visited states in a `BTreeSet`, and applies no partial-order
//! reduction. The kernel, run on the program compiled from the same moves
//! with POR off and the exact backend at 1 and 2 threads, must agree on
//!
//! * the number of reachable states,
//! * whether a deadlock is reachable,
//! * the set of reachable `(g0, g1)` valuations, and
//! * the verdicts of `<> p` and `[] <> p` without fairness, for each
//!   `p` of the form `g0 == v` (the nested-DFS liveness search, at one
//!   thread, with partial-order reduction off and on).
//!
//! Every other backend of the sequential search is held to the oracle too,
//! at one thread with POR off: the out-of-core backend and an exact search
//! that spills at once must reach the same number of states and the same
//! deadlock verdict, and the lossy backends (compact, bitstate) may omit
//! states but never cover more than the oracle or report a deadlock it
//! lacks.
//!
//! The liveness verdicts need no automaton. Every move advances a
//! process, so every run ends, and the kernel extends a run that ends by
//! stuttering in its last state forever. `[] <> p` is therefore violated
//! exactly when a reachable terminal state has `!p`, and `<> p` exactly
//! when a path of `!p` states leads from the initial state to a `!p`
//! terminal state.
//!
//! The one buffered channel has capacity 2, so sends blocking on a full
//! queue and receives taking the head of a partly filled one are covered.
//! On the rendezvous channel a send fires only together with a matching
//! receive of *another* process, both advance, and the receiver stores the
//! value; a process whose receive has no partner can still bail out.

mod common;

use std::collections::BTreeSet;

use proptest::prelude::*;

use common::{arb_move, build_program, Move, RvPat, CHANNEL_CAPACITY};
use std::sync::Arc;

use pnp_kernel::{
    expr, Checker, Fairness, Predicate, Program, Proposition, SafetyChecks, SafetyOutcome,
    SearchConfig, SimFs, VfsHandle, VisitedKind,
};

/// The oracle's global state. Process `i` is at move `pcs[i]`; it has
/// finished when `pcs[i]` equals its move count.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RefState {
    pcs: Vec<usize>,
    counters: Vec<i32>,
    g0: i32,
    g1: i32,
    queue: Vec<i32>,
}

impl RefState {
    fn global(&mut self, index: u8) -> &mut i32 {
        if index == 0 {
            &mut self.g0
        } else {
            &mut self.g1
        }
    }
}

/// Every successor of `s`, straight from the meaning of each move.
fn successors(procs: &[Vec<Move>], s: &RefState) -> Vec<RefState> {
    let mut out = Vec::new();
    for (pi, moves) in procs.iter().enumerate() {
        let Some(&mv) = moves.get(s.pcs[pi]) else {
            continue;
        };
        let mut next = s.clone();
        next.pcs[pi] += 1;
        match mv {
            Move::BumpGlobal(gi) => {
                let g = next.global(gi);
                *g = (*g + 1) % 4;
                out.push(next);
            }
            Move::SendChan(v) => {
                if s.queue.len() < CHANNEL_CAPACITY {
                    next.queue.push(i32::from(v));
                    out.push(next);
                }
            }
            Move::RecvChan => {
                // Two alternatives: take the head of a nonempty queue, or
                // bail out when g0 is 3.
                if !s.queue.is_empty() {
                    let mut taken = next.clone();
                    taken.queue.remove(0);
                    out.push(taken);
                }
                if s.g0 == 3 {
                    out.push(next);
                }
            }
            Move::GuardedSkip(gi) => {
                let g = next.global(gi);
                if *g >= 3 {
                    *g = 0;
                }
                out.push(next);
            }
            Move::BumpLocal => {
                next.counters[pi] = (next.counters[pi] + 1) % 4;
                out.push(next);
            }
            Move::SendRv(v) => {
                // One successor per other process whose current move is a
                // receive that accepts `v`.
                for (qi, theirs) in procs.iter().enumerate() {
                    let accepts = match theirs.get(s.pcs[qi]) {
                        Some(Move::RecvRv(RvPat::Any)) => true,
                        Some(Move::RecvRv(RvPat::Eq(want))) => *want == v,
                        _ => false,
                    };
                    if qi != pi && accepts {
                        let mut met = next.clone();
                        met.pcs[qi] += 1;
                        met.counters[qi] = i32::from(v);
                        out.push(met);
                    }
                }
            }
            Move::RecvRv(_) => {
                // The receive itself fires only as a send's partner.
                if s.g0 == 3 {
                    out.push(next);
                }
            }
        }
    }
    out
}

/// What the oracle knows about a program's reachable state space.
struct Reference {
    states: usize,
    deadlock: bool,
    valuations: BTreeSet<(i32, i32)>,
    /// The `g0` values of the reachable terminal states (every process
    /// finished, or deadlocked).
    terminal_g0: BTreeSet<i32>,
    /// Per `v` in `0..4`: whether a path of states with `g0 != v` leads
    /// from the initial state to a terminal state with `g0 != v`.
    avoids_g0: [bool; 4],
}

fn explore(procs: &[Vec<Move>]) -> Reference {
    let initial = RefState {
        pcs: vec![0; procs.len()],
        counters: vec![0; procs.len()],
        g0: 0,
        g1: 0,
        queue: Vec::new(),
    };
    let mut visited = BTreeSet::from([initial.clone()]);
    let mut stack = vec![initial.clone()];
    let mut deadlock = false;
    let mut valuations = BTreeSet::new();
    let mut terminal_g0 = BTreeSet::new();
    while let Some(s) = stack.pop() {
        valuations.insert((s.g0, s.g1));
        let next = successors(procs, &s);
        let finished = s.pcs.iter().zip(procs).all(|(&pc, m)| pc == m.len());
        if next.is_empty() {
            terminal_g0.insert(s.g0);
            deadlock |= !finished;
        }
        for n in next {
            if visited.insert(n.clone()) {
                stack.push(n);
            }
        }
    }
    Reference {
        states: visited.len(),
        deadlock,
        valuations,
        terminal_g0,
        avoids_g0: [0, 1, 2, 3].map(|v| avoids(procs, &initial, |s| s.g0 != v)),
    }
}

/// Whether a path of states satisfying `keep` leads from `initial` to a
/// terminal state (one with no successors) satisfying `keep`.
fn avoids(procs: &[Vec<Move>], initial: &RefState, keep: impl Fn(&RefState) -> bool) -> bool {
    if !keep(initial) {
        return false;
    }
    let mut visited = BTreeSet::from([initial.clone()]);
    let mut stack = vec![initial.clone()];
    while let Some(s) = stack.pop() {
        let next = successors(procs, &s);
        if next.is_empty() {
            return true;
        }
        for n in next {
            if keep(&n) && visited.insert(n.clone()) {
                stack.push(n);
            }
        }
    }
    false
}

fn checker(program: &Program, threads: usize) -> Checker<'_> {
    Checker::with_config(
        program,
        SearchConfig {
            partial_order_reduction: false,
            threads,
            visited: VisitedKind::Exact,
            ..SearchConfig::default()
        },
    )
}

/// Checks the kernel against the oracle on one move list; the error names
/// the first disagreement.
fn agree(procs: &[Vec<Move>]) -> Result<(), String> {
    let reference = explore(procs);
    let program = build_program(procs);
    let g0 = program.global_by_name("g0").unwrap();
    let g1 = program.global_by_name("g1").unwrap();
    for threads in [1, 2] {
        let kernel = checker(&program, threads);
        let states = kernel.state_space_size().unwrap().unique_states;
        if states != reference.states {
            return Err(format!(
                "threads {threads}: kernel reached {states} states, oracle {}",
                reference.states
            ));
        }
        let outcome = kernel
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap()
            .outcome;
        let deadlock = matches!(outcome, SafetyOutcome::Deadlock { .. });
        if deadlock != reference.deadlock || !(deadlock || outcome.is_holds()) {
            return Err(format!(
                "threads {threads}: kernel says {outcome:?}, oracle deadlock = {}",
                reference.deadlock
            ));
        }
        for a in 0..4 {
            for b in 0..4 {
                let at = Predicate::from_expr(expr::and(
                    expr::eq(expr::global(g0), a.into()),
                    expr::eq(expr::global(g1), b.into()),
                ));
                let reachable = kernel.find_reachable(&at).unwrap().is_some();
                let expected = reference.valuations.contains(&(a, b));
                if reachable != expected {
                    return Err(format!(
                        "threads {threads}: (g0, g1) = ({a}, {b}) kernel reachable = \
                         {reachable}, oracle = {expected}"
                    ));
                }
            }
        }
    }
    backends_agree(&program, &reference)?;
    for partial_order_reduction in [false, true] {
        let kernel = Checker::with_config(
            &program,
            SearchConfig {
                partial_order_reduction,
                threads: 1,
                ..SearchConfig::default()
            },
        );
        for v in 0..4 {
            let p = Proposition::new(
                "p",
                Predicate::from_expr(expr::eq(expr::global(g0), v.into())),
            );
            let expected = [
                ("<> p", !reference.avoids_g0[v as usize]),
                ("[] <> p", reference.terminal_g0.iter().all(|&g| g == v)),
            ];
            for (formula, oracle) in expected {
                let report = kernel
                    .check_ltl_with(
                        &pnp_ltl::parse(formula).unwrap(),
                        std::slice::from_ref(&p),
                        Fairness::None,
                    )
                    .unwrap();
                let holds = report.outcome.is_holds();
                if holds != oracle || report.truncated {
                    return Err(format!(
                        "POR {partial_order_reduction}: {formula} with p = (g0 == {v}): kernel \
                         holds = {holds} (truncated = {}), oracle = {oracle}",
                        report.truncated
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The sequential search under every other visited backend against the
/// oracle: exact counts and verdicts where membership is exact, bounds
/// where it is lossy.
fn backends_agree(program: &Program, reference: &Reference) -> Result<(), String> {
    let exact = [
        (
            "disk",
            SearchConfig {
                visited: VisitedKind::DiskExact,
                ..SearchConfig::default()
            },
        ),
        (
            "spill at 1 byte",
            SearchConfig {
                spill_at_bytes: Some(1),
                ..SearchConfig::default()
            },
        ),
    ];
    let lossy = [
        (
            "compact",
            SearchConfig {
                visited: VisitedKind::Compact,
                ..SearchConfig::default()
            },
        ),
        (
            "bitstate",
            SearchConfig {
                visited: VisitedKind::bitstate(1 << 12),
                ..SearchConfig::default()
            },
        ),
    ];
    let checks = SafetyChecks::deadlock_only();
    for (is_exact, (name, config)) in exact
        .into_iter()
        .map(|case| (true, case))
        .chain(lossy.into_iter().map(|case| (false, case)))
    {
        let kernel = Checker::with_config(
            program,
            SearchConfig {
                partial_order_reduction: false,
                threads: 1,
                ..config
            },
        )
        .spill_to(Arc::new(SimFs::new(5)) as VfsHandle, "/spill");
        let states = kernel.state_space_size().unwrap().unique_states;
        let outcome = kernel.check_safety(&checks).unwrap().outcome;
        let deadlock = matches!(outcome, SafetyOutcome::Deadlock { .. });
        let agrees = if is_exact {
            states == reference.states
                && deadlock == reference.deadlock
                && (deadlock || outcome.is_holds())
        } else {
            let covered = match outcome {
                SafetyOutcome::HoldsApprox { states_visited, .. } => states_visited,
                _ => 0,
            };
            states <= reference.states
                && covered <= reference.states
                && (deadlock || matches!(outcome, SafetyOutcome::HoldsApprox { .. }))
                && (!deadlock || reference.deadlock)
        };
        if !agrees {
            return Err(format!(
                "{name}: kernel reached {states} states with {outcome:?}; oracle {} states, \
                 deadlock = {}",
                reference.states, reference.deadlock
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kernel and the independent oracle agree on random programs.
    #[test]
    fn kernel_agrees_with_reference_oracle(
        procs in proptest::collection::vec(
            proptest::collection::vec(arb_move(), 1..5),
            2..4,
        ),
    ) {
        let verdict = agree(&procs);
        prop_assert!(verdict.is_ok(), "{:?}; procs: {:?}", verdict, procs);
    }
}

/// Fixed programs that fill the capacity-2 queue, block a third send, and
/// drain it out of order with another sender, and that pair rendezvous
/// sends with their only, their non-matching and their own receivers: the
/// channel corner cases, independent of what the random cases happen to
/// draw.
#[test]
fn channel_corner_cases_agree() {
    let cases = [
        vec![
            vec![Move::SendChan(1), Move::SendChan(2), Move::SendChan(0)],
            vec![Move::RecvChan, Move::RecvChan, Move::BumpGlobal(1)],
        ],
        vec![
            vec![Move::SendChan(2), Move::RecvChan, Move::SendChan(1)],
            vec![Move::SendChan(0), Move::BumpGlobal(0), Move::RecvChan],
            vec![Move::RecvChan, Move::GuardedSkip(0)],
        ],
        // Nobody sends: the receivers deadlock unless g0 reaches 3.
        vec![
            vec![Move::RecvChan],
            vec![Move::BumpGlobal(0), Move::BumpLocal],
        ],
        // One sender, one receiver on the rendezvous channel.
        vec![vec![Move::SendRv(1)], vec![Move::RecvRv(RvPat::Any)]],
        // Two receivers, each matching only one of the sender's values.
        vec![
            vec![Move::SendRv(0), Move::SendRv(1)],
            vec![Move::RecvRv(RvPat::Eq(1))],
            vec![Move::RecvRv(RvPat::Eq(0)), Move::BumpGlobal(0)],
        ],
        // Each process sends and receives; neither is its own partner.
        vec![
            vec![Move::RecvRv(RvPat::Any), Move::SendRv(1)],
            vec![Move::SendRv(0), Move::RecvRv(RvPat::Eq(1))],
        ],
        // No sender: the receiver finishes only by bailing out at g0 = 3.
        vec![
            vec![Move::RecvRv(RvPat::Eq(1))],
            vec![
                Move::BumpGlobal(0),
                Move::BumpGlobal(0),
                Move::BumpGlobal(0),
            ],
        ],
    ];
    for procs in cases {
        let reference = explore(&procs);
        assert!(reference.states > 1);
        if let Err(disagreement) = agree(&procs) {
            panic!("{disagreement}; procs: {procs:?}");
        }
    }
}
