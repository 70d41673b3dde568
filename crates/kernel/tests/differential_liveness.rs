//! Differential tests: an LTL report does not depend on the thread count.
//!
//! The acceptance-cycle search is one nested DFS that runs on the calling
//! thread whatever [`SearchConfig::threads`] says. So for every corpus
//! (program, LTL formula, fairness) triple, runs at 2, 4, and 8 threads
//! equal the one-thread run field by field except the wall-clock
//! `elapsed`: the outcome, with a lasso's prefix and cycle compared event
//! by event, `truncated`, and every statistic. Besides:
//!
//! * every lasso exact-replays against the program
//!   ([`Checker::validate_lasso`], plus an independent prefix replay
//!   through [`Checker::replay_trace`] here);
//! * every run is reproducible: repeating it gives the same report, and
//!   `threads = 1` gives the default configuration's report.
//!
//! The proptests at the bottom extend the corpus with random concurrent
//! programs under both fairness modes and a random thread count.

use std::time::Duration;

use proptest::prelude::*;

use pnp_kernel::{
    expr, Action, Checker, EventKind, Fairness, Guard, LtlOutcome, LtlReport, Predicate,
    ProcessBuilder, Program, ProgramBuilder, Proposition, SearchConfig, SearchStats, Trace,
};

const THREAD_SWEEP: [usize; 3] = [2, 4, 8];

// ---------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------

struct Case {
    name: &'static str,
    program: Program,
    formula: &'static str,
    props: Vec<Proposition>,
    fairness: Fairness,
    /// The verdict the sequential oracle is expected to reach, pinned so
    /// a corpus regression cannot silently weaken the differential test.
    expect_holds: bool,
}

fn prop_global_eq(program: &Program, global: &str, value: i32, name: &str) -> Proposition {
    let id = program.global_by_name(global).unwrap();
    Proposition::new(
        name.to_string(),
        Predicate::from_expr(expr::eq(expr::global(id), value.into())),
    )
}

/// A counter that increments to `stop` and halts (end state).
fn counter(stop: i32) -> Program {
    let mut prog = ProgramBuilder::new();
    let n = prog.global("n", 0);
    let mut p = ProcessBuilder::new("counter");
    let s0 = p.location("run");
    let s1 = p.location("halt");
    p.mark_end(s1);
    p.transition(
        s0,
        s0,
        Guard::when(expr::lt(expr::global(n), stop.into())),
        Action::assign(n, expr::global(n) + 1.into()),
        "inc",
    );
    p.transition(
        s0,
        s1,
        Guard::when(expr::ge(expr::global(n), stop.into())),
        Action::Skip,
        "stop",
    );
    prog.add_process(p).unwrap();
    prog.build().unwrap()
}

/// `count` independent processes that each alternate a flag forever.
fn alternators(count: usize) -> Program {
    let mut prog = ProgramBuilder::new();
    for i in 0..count {
        let flag = prog.global(format!("flag{i}"), 0);
        let mut p = ProcessBuilder::new(format!("alt{i}"));
        let s0 = p.location("off");
        let s1 = p.location("on");
        p.transition(
            s0,
            s1,
            Guard::always(),
            Action::assign(flag, 1.into()),
            "turn on",
        );
        p.transition(
            s1,
            s0,
            Guard::always(),
            Action::assign(flag, 0.into()),
            "turn off",
        );
        prog.add_process(p).unwrap();
    }
    prog.build().unwrap()
}

/// One process spins forever; another has a single always-enabled step
/// that sets a flag. `<> set` distinguishes the fairness modes.
fn spinner_setter() -> Program {
    let mut prog = ProgramBuilder::new();
    let flag = prog.global("flag", 0);
    let mut spinner = ProcessBuilder::new("spinner");
    let s0 = spinner.location("spin");
    spinner.transition(s0, s0, Guard::always(), Action::Skip, "spin");
    prog.add_process(spinner).unwrap();
    let mut setter = ProcessBuilder::new("setter");
    let t0 = setter.location("set");
    let t1 = setter.location("done");
    setter.mark_end(t1);
    setter.transition(
        t0,
        t1,
        Guard::always(),
        Action::assign(flag, 1.into()),
        "set flag",
    );
    prog.add_process(setter).unwrap();
    prog.build().unwrap()
}

/// Two processes that each toggle a shared flag `n` times and halt.
fn toggler(n: i32) -> Program {
    let mut prog = ProgramBuilder::new();
    let flag = prog.global("flag", 0);
    for name in ["a", "b"] {
        let mut p = ProcessBuilder::new(name);
        let count = p.local("count", 0);
        let s0 = p.location("loop");
        let s1 = p.location("done");
        p.mark_end(s1);
        p.transition(
            s0,
            s0,
            Guard::when(expr::lt(expr::local(count), n.into())),
            Action::assign_all(vec![
                (flag.into(), expr::not(expr::global(flag))),
                (count.into(), expr::local(count) + 1.into()),
            ]),
            "toggle",
        );
        p.transition(
            s0,
            s1,
            Guard::when(expr::ge(expr::local(count), n.into())),
            Action::Skip,
            "finish",
        );
        prog.add_process(p).unwrap();
    }
    prog.build().unwrap()
}

/// A producer/consumer pair over a bounded FIFO channel; the consumer
/// tallies into `got` once it is done receiving.
fn buffered_pipe(messages: i32, capacity: usize) -> Program {
    let mut prog = ProgramBuilder::new();
    let chan = prog.channel("pipe", capacity, 1);
    let got = prog.global("got", 0);

    let mut producer = ProcessBuilder::new("producer");
    let sent = producer.local("sent", 0);
    let s0 = producer.location("send");
    let s1 = producer.location("done");
    producer.mark_end(s1);
    producer.transition(
        s0,
        s0,
        Guard::when(expr::lt(expr::local(sent), messages.into())),
        Action::send(chan, vec![expr::local(sent) + 1.into()]),
        "send",
    );
    producer.transition(
        s0,
        s0,
        Guard::when(expr::lt(expr::local(sent), messages.into())),
        Action::assign(sent, expr::local(sent) + 1.into()),
        "bump",
    );
    producer.transition(
        s0,
        s1,
        Guard::when(expr::ge(expr::local(sent), messages.into())),
        Action::Skip,
        "finish",
    );
    prog.add_process(producer).unwrap();

    let mut consumer = ProcessBuilder::new("consumer");
    let seen = consumer.local("seen", 0);
    let c0 = consumer.location("recv");
    let c1 = consumer.location("done");
    consumer.mark_end(c1);
    consumer.transition(c0, c0, Guard::always(), Action::recv_any(chan, 1), "recv");
    consumer.transition(
        c0,
        c1,
        Guard::when(expr::ge(expr::local(seen), 0.into())),
        Action::assign(got, expr::global(got) + 1.into()),
        "tally",
    );
    prog.add_process(consumer).unwrap();
    prog.build().unwrap()
}

fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();

    let program = counter(3);
    cases.push(Case {
        name: "counter_reaches_stop",
        props: vec![prop_global_eq(&program, "n", 3, "n3")],
        program,
        formula: "<> n3",
        fairness: Fairness::Weak,
        expect_holds: true,
    });

    let program = counter(3);
    cases.push(Case {
        name: "counter_unreachable_value",
        props: vec![prop_global_eq(&program, "n", 5, "n5")],
        program,
        formula: "<> n5",
        fairness: Fairness::Weak,
        expect_holds: false,
    });

    let program = counter(3);
    let n = program.global_by_name("n").unwrap();
    cases.push(Case {
        name: "counter_globally_small",
        props: vec![Proposition::new(
            "small",
            Predicate::from_expr(expr::lt(expr::global(n), 2.into())),
        )],
        program,
        formula: "[] small",
        fairness: Fairness::Weak,
        expect_holds: false,
    });

    let program = alternators(1);
    cases.push(Case {
        name: "alternator_infinitely_often",
        props: vec![prop_global_eq(&program, "flag0", 1, "on")],
        program,
        formula: "[] <> on",
        fairness: Fairness::Weak,
        expect_holds: true,
    });

    let program = alternators(1);
    cases.push(Case {
        name: "alternator_eventually_always",
        props: vec![prop_global_eq(&program, "flag0", 1, "on")],
        program,
        formula: "<> [] on",
        fairness: Fairness::Weak,
        expect_holds: false,
    });

    for (name, fairness, expect_holds) in [
        ("starvation_weakly_fair", Fairness::Weak, true),
        ("starvation_unfair", Fairness::None, false),
    ] {
        let program = spinner_setter();
        cases.push(Case {
            name,
            props: vec![prop_global_eq(&program, "flag", 1, "set")],
            program,
            formula: "<> set",
            fairness,
            expect_holds,
        });
    }

    // Two independent alternators: the first must keep moving under weak
    // fairness (it is always enabled), but an unfair scheduler can run
    // only the second forever.
    for (name, fairness, expect_holds) in [
        ("two_alternators_weakly_fair", Fairness::Weak, true),
        ("two_alternators_unfair", Fairness::None, false),
    ] {
        let program = alternators(2);
        cases.push(Case {
            name,
            props: vec![prop_global_eq(&program, "flag0", 1, "on")],
            program,
            formula: "[] <> on",
            fairness,
            expect_holds,
        });
    }

    // Both togglers halt after an even number of flips, so the frozen
    // final state satisfies `even` forever; `[] <> odd` dies with them.
    let program = toggler(2);
    cases.push(Case {
        name: "toggler_settles_even",
        props: vec![prop_global_eq(&program, "flag", 0, "even")],
        program,
        formula: "[] <> even",
        fairness: Fairness::Weak,
        expect_holds: true,
    });
    let program = toggler(2);
    cases.push(Case {
        name: "toggler_not_forever_odd",
        props: vec![prop_global_eq(&program, "flag", 1, "odd")],
        program,
        formula: "[] <> odd",
        fairness: Fairness::Weak,
        expect_holds: false,
    });

    // Channel coverage: the producer may send forever without bumping
    // `sent`, so the consumer can be kept receiving and never tally —
    // a genuine (non-stutter) violating lasso through the channel.
    let program = buffered_pipe(2, 1);
    let got = program.global_by_name("got").unwrap();
    cases.push(Case {
        name: "pipe_eventually_tallies",
        props: vec![Proposition::new(
            "tallied",
            Predicate::from_expr(expr::ge(expr::global(got), 1.into())),
        )],
        program,
        formula: "<> tallied",
        fairness: Fairness::Weak,
        expect_holds: false,
    });

    cases
}

fn run(case: &Case, threads: usize) -> LtlReport {
    let formula = pnp_ltl::parse(case.formula).unwrap();
    Checker::with_config(
        &case.program,
        SearchConfig {
            threads,
            ..SearchConfig::default()
        },
    )
    .check_ltl_with(&formula, &case.props, case.fairness)
    .unwrap()
}

/// Replays the non-stutter part of a lasso independently of the kernel's
/// own validation: the real prefix of `prefix + cycle` must be a chain of
/// enabled steps from the initial state.
fn assert_real_part_replays(case: &Case, threads: usize, prefix: &Trace, cycle: &Trace) {
    let all: Vec<_> = prefix.events().iter().chain(cycle.events()).collect();
    let real: Vec<_> = all
        .iter()
        .take_while(|e| !matches!(e.kind(), EventKind::Stutter))
        .map(|e| (**e).clone())
        .collect();
    let checker = Checker::new(&case.program);
    let end = checker.replay_trace(&Trace::new(real)).unwrap();
    assert!(
        end.is_some(),
        "{}@{threads}: lasso real part does not replay",
        case.name
    );
}

/// Asserts that `report` is `reference` field by field, except `elapsed`.
/// Outcomes compare whole, so a lasso compares event by event.
fn assert_same_report(what: &str, report: &LtlReport, reference: &LtlReport) {
    assert_eq!(report.outcome, reference.outcome, "{what}: outcome");
    assert_eq!(report.truncated, reference.truncated, "{what}: truncated");
    let comparable = |stats: &SearchStats| {
        format!(
            "{:?}",
            SearchStats {
                elapsed: Duration::ZERO,
                ..*stats
            }
        )
    };
    assert_eq!(
        comparable(&report.stats),
        comparable(&reference.stats),
        "{what}: stats"
    );
}

// ---------------------------------------------------------------------
// Corpus × thread sweep
// ---------------------------------------------------------------------

#[test]
fn corpus_verdicts_agree_across_thread_counts() {
    for case in corpus() {
        let seq = run(&case, 1);
        assert_eq!(
            seq.outcome.is_holds(),
            case.expect_holds,
            "{}: one-thread search moved off the pinned verdict: {:?}",
            case.name,
            seq.outcome
        );
        for threads in THREAD_SWEEP {
            let par = run(&case, threads);
            assert_same_report(&format!("{}@{threads}", case.name), &par, &seq);
        }
    }
}

#[test]
fn lassos_pass_exact_replay_validation() {
    // Every counterexample is held to the harness's own standard: it
    // exact-replays against the program.
    for case in corpus() {
        let seq = run(&case, 1);
        if let LtlOutcome::Violated { prefix, cycle } = &seq.outcome {
            let checker = Checker::new(&case.program);
            assert!(
                checker.validate_lasso(prefix, cycle).unwrap(),
                "{}: lasso failed replay validation",
                case.name
            );
            assert!(!cycle.is_empty(), "{}: empty cycle", case.name);
            assert_real_part_replays(&case, 1, prefix, cycle);
        }
    }
}

#[test]
fn threads_one_is_byte_identical_to_the_default_configuration() {
    // The whole report at `threads = 1` — counters, outcome, traces — is
    // byte-identical (modulo wall-clock `elapsed`) to the default
    // configuration's run, and reproducible run to run.
    fn normalized(mut report: LtlReport) -> String {
        report.stats.elapsed = Duration::ZERO;
        format!("{report:?}")
    }
    for case in corpus() {
        let formula = pnp_ltl::parse(case.formula).unwrap();
        let default_run = Checker::new(&case.program)
            .check_ltl_with(&formula, &case.props, case.fairness)
            .unwrap();
        let one_thread_a = run(&case, 1);
        let one_thread_b = run(&case, 1);
        assert_eq!(
            normalized(one_thread_a),
            normalized(default_run),
            "{}: threads=1 diverged from the default configuration",
            case.name
        );
        assert_eq!(
            normalized(run(&case, 1)),
            normalized(one_thread_b),
            "{}: threads=1 not reproducible",
            case.name
        );
    }
}

#[test]
fn parallel_verdicts_are_stable_across_repeats() {
    // Repeats at four threads give the one-thread report every time.
    for case in corpus() {
        let seq = run(&case, 1);
        for repeat in 0..3 {
            let again = run(&case, 4);
            assert_same_report(&format!("{}@4 repeat {repeat}", case.name), &again, &seq);
        }
    }
}

// ---------------------------------------------------------------------
// Random programs: never fabricate, never miss
// ---------------------------------------------------------------------

/// One step of a random process; mirrors the safety differential
/// generator but stays channel-free so liveness products remain small.
#[derive(Debug, Clone, Copy)]
enum Move {
    BumpGlobal(u8),
    GuardedSkip(u8),
    LoopBack(u8),
}

fn arb_move() -> impl Strategy<Value = Move> {
    prop_oneof![
        (0u8..2).prop_map(Move::BumpGlobal),
        (0u8..2).prop_map(Move::GuardedSkip),
        (0u8..2).prop_map(Move::LoopBack),
    ]
}

/// Builds a program from per-process move lists; `LoopBack` edges return
/// to the process's start, so random programs contain genuine cycles and
/// genuinely terminating branches.
fn build_program(procs: &[Vec<Move>]) -> Program {
    let mut prog = ProgramBuilder::new();
    let g0 = prog.global("g0", 0);
    let g1 = prog.global("g1", 0);
    let globals = [g0, g1];

    for (pi, moves) in procs.iter().enumerate() {
        let mut p = ProcessBuilder::new(format!("p{pi}"));
        let start = p.location("start");
        let mut at = start;
        for (mi, mv) in moves.iter().enumerate() {
            let next = p.location(format!("after{mi}"));
            match mv {
                Move::BumpGlobal(gi) => {
                    let g = globals[*gi as usize];
                    p.transition(
                        at,
                        next,
                        Guard::always(),
                        Action::assign(g, expr::rem(expr::global(g) + 1.into(), 4.into())),
                        "bump global",
                    );
                }
                Move::GuardedSkip(gi) => {
                    let g = globals[*gi as usize];
                    p.transition(
                        at,
                        next,
                        Guard::when(expr::lt(expr::global(g), 3.into())),
                        Action::Skip,
                        "guarded skip",
                    );
                    p.transition(
                        at,
                        next,
                        Guard::when(expr::ge(expr::global(g), 3.into())),
                        Action::assign(g, 0.into()),
                        "reset",
                    );
                }
                Move::LoopBack(gi) => {
                    let g = globals[*gi as usize];
                    p.transition(
                        at,
                        start,
                        Guard::when(expr::lt(expr::global(g), 2.into())),
                        Action::Skip,
                        "loop back",
                    );
                    p.transition(
                        at,
                        next,
                        Guard::when(expr::ge(expr::global(g), 2.into())),
                        Action::Skip,
                        "move on",
                    );
                }
            }
            at = next;
        }
        p.mark_end(at);
        prog.add_process(p).unwrap();
    }
    prog.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On random programs × both fairness modes × a random thread count,
    /// the report equals the one-thread report field by field except
    /// `elapsed`, and any lasso exact-replays.
    #[test]
    fn parallel_liveness_agrees_with_sequential(
        procs in proptest::collection::vec(
            proptest::collection::vec(arb_move(), 1..4),
            2..4,
        ),
        threads in 2usize..9,
        unfair in 0u8..2,
        formula_pick in 0usize..3,
    ) {
        let program = build_program(&procs);
        let g0 = program.global_by_name("g0").unwrap();
        let props = vec![Proposition::new(
            "g0zero",
            Predicate::from_expr(expr::eq(expr::global(g0), 0.into())),
        )];
        let formula_src = ["<> g0zero", "[] <> g0zero", "<> [] g0zero"][formula_pick];
        let formula = pnp_ltl::parse(formula_src).unwrap();
        let fairness = if unfair == 1 { Fairness::None } else { Fairness::Weak };

        let seq = Checker::new(&program)
            .check_ltl_with(&formula, &props, fairness)
            .unwrap();
        let par = Checker::with_config(
            &program,
            SearchConfig { threads, ..SearchConfig::default() },
        )
        .check_ltl_with(&formula, &props, fairness)
        .unwrap();

        assert_same_report(
            &format!("{formula_src} under {fairness:?}@{threads}; procs: {procs:?}"),
            &par,
            &seq,
        );
        if let LtlOutcome::Violated { prefix, cycle } = &par.outcome {
            let checker = Checker::new(&program);
            prop_assert!(
                checker.validate_lasso(prefix, cycle).unwrap(),
                "{} under {:?}@{}: lasso failed replay; procs: {:?}",
                formula_src, fairness, threads, procs
            );
        }
    }
}
