//! Property-based tests for the model-checking kernel.
//!
//! Random small concurrent programs are generated and checked for internal
//! consistency:
//!
//! * the partial-order-reduced search and the full search agree on every
//!   safety verdict;
//! * every global-variable valuation the random simulator visits is
//!   reachable according to the exhaustive search;
//! * the expression evaluator agrees with a wide-integer oracle.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use pnp_kernel::{
    expr, Action, Checker, Expr, Guard, LtlOutcome, Predicate, ProcessBuilder, Program,
    ProgramBuilder, Proposition, SafetyChecks, SafetyOutcome, SearchConfig, Simulator, Snapshot,
    VisitedKind,
};

mod common;

use common::{arb_move, build_program};

fn verdict_kind(outcome: &SafetyOutcome) -> &'static str {
    match outcome {
        SafetyOutcome::Holds => "holds",
        SafetyOutcome::HoldsApprox { .. } => "holds",
        SafetyOutcome::InvariantViolated { .. } => "invariant",
        SafetyOutcome::AssertionFailed { .. } => "assertion",
        SafetyOutcome::Deadlock { .. } => "deadlock",
        SafetyOutcome::LimitReached { .. } => "limit",
        SafetyOutcome::PredicateError { .. } => "predicate-error",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// POR and full search agree on deadlock and invariant verdicts for
    /// random concurrent programs.
    #[test]
    fn reduced_and_full_search_agree(
        procs in proptest::collection::vec(
            proptest::collection::vec(arb_move(), 1..5),
            2..4,
        ),
        bound in 1i32..4,
    ) {
        let program = build_program(&procs);
        let g0 = program.global_by_name("g0").unwrap();
        let checks = SafetyChecks {
            deadlock: true,
            invariants: vec![(
                "g0 below bound".into(),
                Predicate::from_expr(expr::lt(expr::global(g0), bound.into())),
            )],
        };
        let full = Checker::with_config(
            &program,
            SearchConfig { partial_order_reduction: false, ..SearchConfig::default() },
        )
        .check_safety(&checks)
        .unwrap();
        let reduced = Checker::new(&program).check_safety(&checks).unwrap();
        prop_assert_eq!(
            verdict_kind(&full.outcome),
            verdict_kind(&reduced.outcome),
            "procs: {:?}", procs
        );
        // State-count dominance only holds for complete searches; a found
        // violation stops exploration at an order-dependent point.
        if full.outcome.is_holds() {
            prop_assert!(reduced.stats.unique_states <= full.stats.unique_states);
        }
    }

    /// Every global valuation the simulator visits is reachable per the
    /// exhaustive search.
    #[test]
    fn simulator_stays_within_the_reachable_set(
        procs in proptest::collection::vec(
            proptest::collection::vec(arb_move(), 1..4),
            2..4,
        ),
        seed in 0u64..1000,
    ) {
        let program = build_program(&procs);
        let g0 = program.global_by_name("g0").unwrap();
        let g1 = program.global_by_name("g1").unwrap();

        // Gather globals seen during one simulation run.
        let mut seen: Vec<(i32, i32)> = vec![];
        let mut sim = Simulator::new(&program, seed);
        sim.run_with(200, |view, _| {
            let pair = (view.global(g0), view.global(g1));
            if !seen.contains(&pair) {
                seen.push(pair);
            }
        }).unwrap();

        // Every pair must be reachable: "never (g0,g1) == pair" violated.
        for (a, b) in seen {
            let never = Predicate::from_expr(expr::not(expr::and(
                expr::eq(expr::global(g0), a.into()),
                expr::eq(expr::global(g1), b.into()),
            )));
            let report = Checker::new(&program)
                .check_safety(&SafetyChecks {
                    deadlock: false,
                    invariants: vec![("never pair".into(), never)],
                })
                .unwrap();
            prop_assert!(
                !report.outcome.is_holds(),
                "simulator visited unreachable globals ({a},{b})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Parallel search vs sequential search
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A multi-thread search never fabricates a violation on a safe
    /// program and never reports `Holds` when the one-thread search finds
    /// a bug. For exhaustive `Holds` runs the exact-backend
    /// state/step/depth counters are identical.
    #[test]
    fn parallel_search_agrees_with_sequential(
        procs in proptest::collection::vec(
            proptest::collection::vec(arb_move(), 1..5),
            2..4,
        ),
        threads in 2usize..9,
        bound in 1i32..4,
    ) {
        let program = build_program(&procs);
        let g0 = program.global_by_name("g0").unwrap();
        let checks = SafetyChecks {
            deadlock: true,
            invariants: vec![(
                "g0 below bound".into(),
                Predicate::from_expr(expr::lt(expr::global(g0), bound.into())),
            )],
        };
        let seq = Checker::new(&program).check_safety(&checks).unwrap();
        let par = Checker::with_config(
            &program,
            SearchConfig { threads, ..SearchConfig::default() },
        )
        .check_safety(&checks)
        .unwrap();

        // Never fabricate: a parallel counterexample implies the program
        // really is unsafe per the sequential search.
        if par.outcome.trace().is_some() {
            prop_assert!(
                !seq.outcome.is_holds(),
                "parallel@{threads} fabricated {:?} on a safe program; procs: {:?}",
                par.outcome, procs
            );
        }
        // Never miss: sequential counterexample implies parallel does not
        // report Holds.
        if seq.outcome.trace().is_some() {
            prop_assert!(
                !par.outcome.is_holds(),
                "parallel@{threads} reported Holds but sequential found {:?}; procs: {:?}",
                seq.outcome, procs
            );
        }
        if seq.outcome.is_holds() {
            prop_assert_eq!(par.stats.unique_states, seq.stats.unique_states);
            prop_assert_eq!(par.stats.steps, seq.stats.steps);
            prop_assert_eq!(par.stats.max_depth, seq.stats.max_depth);
        }
    }
}

// ---------------------------------------------------------------------
// Planted accepting cycles: liveness at every thread count vs a known ground truth
// ---------------------------------------------------------------------

/// A program with a *planted* accepting cycle: a main process walks a
/// `pre`-step prefix chain into a `loop_len`-location loop whose step at
/// `beacon_pos` raises a beacon flag (every other loop step lowers it).
/// With `planted == false` the loop-back edge is redirected to a halt
/// state that lowers the beacon, so the beacon flashes at most finitely
/// often and `<> [] quiet` flips from violated to holding. An optional
/// noise alternator widens the product without touching the beacon.
fn planted_lasso_program(
    pre: usize,
    loop_len: usize,
    beacon_pos: usize,
    planted: bool,
    noise: bool,
) -> Program {
    let mut prog = ProgramBuilder::new();
    let beacon = prog.global("beacon", 0);

    let mut p = ProcessBuilder::new("walker");
    let mut at = p.location("start");
    for i in 0..pre {
        let next = p.location(format!("pre{i}"));
        p.transition(at, next, Guard::always(), Action::Skip, "walk");
        at = next;
    }
    let loop_locs: Vec<_> = (0..loop_len)
        .map(|i| p.location(format!("loop{i}")))
        .collect();
    p.transition(
        at,
        loop_locs[0],
        Guard::always(),
        Action::Skip,
        "enter loop",
    );
    for i in 0..loop_len {
        let value = i32::from(i == beacon_pos);
        let action = Action::assign(beacon, value.into());
        if i + 1 < loop_len {
            p.transition(
                loop_locs[i],
                loop_locs[i + 1],
                Guard::always(),
                action,
                "advance",
            );
        } else if planted {
            p.transition(
                loop_locs[i],
                loop_locs[0],
                Guard::always(),
                action,
                "loop back",
            );
        } else {
            let halt = p.location("halt");
            p.mark_end(halt);
            p.transition(
                loop_locs[i],
                halt,
                Guard::always(),
                Action::assign(beacon, 0.into()),
                "halt",
            );
        }
    }
    prog.add_process(p).unwrap();

    if noise {
        let hum = prog.global("hum", 0);
        let mut q = ProcessBuilder::new("noise");
        let n0 = q.location("lo");
        let n1 = q.location("hi");
        q.transition(n0, n1, Guard::always(), Action::assign(hum, 1.into()), "up");
        q.transition(
            n1,
            n0,
            Guard::always(),
            Action::assign(hum, 0.into()),
            "down",
        );
        prog.add_process(q).unwrap();
    }
    prog.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The planted accepting cycle is found at every thread count — and
    /// its cycle-free mutation reports `Holds` at every thread count.
    /// Every violating run is replay-validated.
    #[test]
    fn planted_accepting_cycle_found_at_every_thread_count(
        pre in 0usize..4,
        loop_len in 1usize..5,
        beacon_seed in 0usize..8,
        noise in 0u8..2,
    ) {
        let beacon_pos = beacon_seed % loop_len;
        for planted in [true, false] {
            let program =
                planted_lasso_program(pre, loop_len, beacon_pos, planted, noise == 1);
            let beacon = program.global_by_name("beacon").unwrap();
            let quiet = Proposition::new(
                "quiet",
                Predicate::from_expr(expr::eq(expr::global(beacon), 0.into())),
            );
            for threads in [1usize, 2, 4, 8] {
                let report = Checker::with_config(
                    &program,
                    SearchConfig { threads, ..SearchConfig::default() },
                )
                .check_ltl_str("<> [] quiet", std::slice::from_ref(&quiet))
                .unwrap();
                prop_assert_eq!(
                    report.outcome.is_holds(),
                    !planted,
                    "planted={} threads={} pre={} loop_len={} beacon_pos={}: {:?}",
                    planted, threads, pre, loop_len, beacon_pos, report.outcome
                );
                if let LtlOutcome::Violated { prefix, cycle } = &report.outcome {
                    prop_assert!(
                        Checker::new(&program).validate_lasso(prefix, cycle).unwrap(),
                        "threads={}: reported lasso failed replay validation",
                        threads
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Expression evaluator vs wide-integer oracle
// ---------------------------------------------------------------------

/// A mirrored expression with an i64 reference evaluator.
#[derive(Debug, Clone)]
enum RefExpr {
    Const(i32),
    Add(Box<RefExpr>, Box<RefExpr>),
    Sub(Box<RefExpr>, Box<RefExpr>),
    Mul(Box<RefExpr>, Box<RefExpr>),
    Lt(Box<RefExpr>, Box<RefExpr>),
    And(Box<RefExpr>, Box<RefExpr>),
    Not(Box<RefExpr>),
}

impl RefExpr {
    fn to_expr(&self) -> Expr {
        match self {
            RefExpr::Const(v) => (*v).into(),
            RefExpr::Add(a, b) => a.to_expr() + b.to_expr(),
            RefExpr::Sub(a, b) => a.to_expr() - b.to_expr(),
            RefExpr::Mul(a, b) => a.to_expr() * b.to_expr(),
            RefExpr::Lt(a, b) => expr::lt(a.to_expr(), b.to_expr()),
            RefExpr::And(a, b) => expr::and(a.to_expr(), b.to_expr()),
            RefExpr::Not(a) => expr::not(a.to_expr()),
        }
    }

    /// Evaluates in i64 (no overflow for depth-bounded i16 leaves); returns
    /// `None` if any intermediate leaves i32 range (the kernel reports
    /// overflow there).
    fn eval(&self) -> Option<i64> {
        let v = match self {
            RefExpr::Const(v) => *v as i64,
            RefExpr::Add(a, b) => a.eval()? + b.eval()?,
            RefExpr::Sub(a, b) => a.eval()? - b.eval()?,
            RefExpr::Mul(a, b) => a.eval()? * b.eval()?,
            RefExpr::Lt(a, b) => (a.eval()? < b.eval()?) as i64,
            RefExpr::And(a, b) => {
                let left = a.eval()?;
                if left == 0 {
                    0
                } else {
                    (b.eval()? != 0) as i64
                }
            }
            RefExpr::Not(a) => (a.eval()? == 0) as i64,
        };
        (i32::MIN as i64 <= v && v <= i32::MAX as i64).then_some(v)
    }
}

fn arb_ref_expr() -> impl Strategy<Value = RefExpr> {
    let leaf = (-100i32..100).prop_map(RefExpr::Const);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RefExpr::Lt(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::And(Box::new(a), Box::new(b))),
            inner.prop_map(|a| RefExpr::Not(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The kernel's expression evaluator matches the oracle wherever the
    /// oracle stays in i32 range (guards evaluate expressions, so this is
    /// checked through a one-transition program).
    #[test]
    fn expression_evaluator_matches_oracle(re in arb_ref_expr()) {
        let Some(expected) = re.eval() else {
            // Overflowing cases are reported as errors by the kernel; they
            // are exercised in the unit tests.
            return Ok(());
        };
        let mut prog = ProgramBuilder::new();
        let out = prog.global("out", 0);
        let mut p = ProcessBuilder::new("eval");
        let s0 = p.location("s0");
        let s1 = p.location("s1");
        p.mark_end(s1);
        p.transition(s0, s1, Guard::always(), Action::assign(out, re.to_expr()), "compute");
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let mut sim = Simulator::new(&program, 0);
        sim.run(2).unwrap();
        prop_assert_eq!(sim.view().global(out) as i64, expected);
    }
}

// ---------------------------------------------------------------------
// Crash tolerance: checkpoint/resume and lossy visited-set backends
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interrupting a search at an arbitrary states budget, snapshotting,
    /// and resuming explores exactly the state/transition counts — and
    /// reaches exactly the verdict — of an uninterrupted run.
    #[test]
    fn interrupted_resume_is_equivalent_to_one_run(
        procs in proptest::collection::vec(
            proptest::collection::vec(arb_move(), 1..5),
            2..4,
        ),
        interrupt_at in 2usize..40,
    ) {
        let program = build_program(&procs);
        let checks = SafetyChecks::deadlock_only();
        let full = Checker::new(&program).check_safety(&checks).unwrap();

        let sink = Rc::new(RefCell::new(Vec::new()));
        let mut report = Checker::with_config(
            &program,
            SearchConfig { max_states: interrupt_at, ..SearchConfig::default() },
        )
        .checkpoint_to(Rc::clone(&sink))
        .check_safety(&checks)
        .unwrap();

        // Resume (possibly repeatedly: each round widens the budget by the
        // same increment, exercising multi-generation snapshots).
        let mut budget = interrupt_at;
        while matches!(report.outcome, SafetyOutcome::LimitReached { .. }) {
            budget += interrupt_at;
            let snapshot = Snapshot::decode(&sink.borrow()).unwrap();
            report = Checker::resume_from(&program, snapshot)
                .unwrap()
                .with_search_config(SearchConfig { max_states: budget, ..SearchConfig::default() })
                .checkpoint_to(Rc::clone(&sink))
                .check_safety(&checks)
                .unwrap();
        }

        prop_assert_eq!(
            format!("{:?}", &report.outcome),
            format!("{:?}", &full.outcome),
            "procs: {:?}", procs
        );
        prop_assert_eq!(report.stats.unique_states, full.stats.unique_states);
        prop_assert_eq!(report.stats.steps, full.stats.steps);
        prop_assert_eq!(report.stats.max_depth, full.stats.max_depth);
    }

    /// A truncated or bit-flipped snapshot fails to decode with a clean
    /// `SnapshotError` — never a panic, never a bogus resume.
    #[test]
    fn corrupted_snapshots_are_rejected_cleanly(
        procs in proptest::collection::vec(
            proptest::collection::vec(arb_move(), 1..4),
            2..3,
        ),
        cut in 0usize..10_000,
        flip in 0usize..10_000,
    ) {
        let program = build_program(&procs);
        let sink = Rc::new(RefCell::new(Vec::new()));
        Checker::with_config(
            &program,
            SearchConfig { max_states: 4, ..SearchConfig::default() },
        )
        .checkpoint_to(Rc::clone(&sink))
        .check_safety(&SafetyChecks::deadlock_only())
        .unwrap();
        let bytes = sink.borrow().clone();
        if bytes.is_empty() {
            return Ok(()); // search finished under budget: nothing flushed
        }

        let truncated = &bytes[..cut % bytes.len()];
        prop_assert!(Snapshot::decode(truncated).is_err());

        let mut flipped = bytes.clone();
        let i = flip % flipped.len();
        flipped[i] ^= 1 << (flip % 8);
        prop_assert!(Snapshot::decode(&flipped).is_err(), "flip at byte {}", i);
    }

    /// Lossy backends never fabricate a violation: whenever hash
    /// compaction or bitstate hashing reports a counterexample, the exact
    /// search confirms the program really is unsafe. (Collisions may only
    /// *hide* states — soundness of reported violations is absolute.)
    #[test]
    fn lossy_backends_never_fabricate_violations(
        procs in proptest::collection::vec(
            proptest::collection::vec(arb_move(), 1..5),
            2..4,
        ),
    ) {
        let program = build_program(&procs);
        let checks = SafetyChecks::deadlock_only();
        let exact = Checker::new(&program).check_safety(&checks).unwrap();

        // A deliberately tiny arena forces collisions on larger runs, so
        // the exact-replay validation path actually fires.
        for kind in [
            VisitedKind::Compact,
            VisitedKind::Bitstate { arena_bytes: 64, hashes: 2 },
        ] {
            let report = Checker::with_config(
                &program,
                SearchConfig { visited: kind, ..SearchConfig::default() },
            )
            .check_safety(&checks)
            .unwrap();
            let lossy_violated = report.outcome.trace().is_some();
            if lossy_violated {
                prop_assert!(
                    !exact.outcome.is_holds(),
                    "{} fabricated a violation on a safe program: {:?}",
                    kind, procs
                );
            }
            if report.outcome.holds_modulo_hashing() {
                prop_assert!(
                    report.stats.unique_states <= exact.stats.unique_states,
                    "{} visited more states than exist", kind
                );
            }
        }
    }
}
