//! Differential tests: the safety search at several threads must agree
//! with the one-thread search.
//!
//! At `threads > 1` the search expands a round of frontier states on
//! worker threads and then commits the expansions one by one in queue
//! order, through the code one thread runs. So for every corpus program,
//! runs at 2, 4, and 8 threads equal the one-thread run field by field —
//! outcome, counterexample trace event by event, `truncated`, and every
//! statistic — except two:
//!
//! * `elapsed`, the wall clock;
//! * `approx_memory_bytes`, the peak of a memory estimate that is sampled
//!   before every state at one thread but once per round at more.
//!
//! Every run is reproducible the same way: repeating it at any thread
//! count gives the same report, and a 1-thread run is byte-identical
//! modulo `elapsed`. Reported traces replay exactly against the program.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use pnp_kernel::{
    expr, Action, Checker, Guard, Predicate, ProcessBuilder, Program, ProgramBuilder, SafetyChecks,
    SafetyOutcome, SafetyReport, SearchConfig, SearchStats, Snapshot, VisitedKind,
};

/// Two processes that each toggle a shared flag `n` times.
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

/// A producer/consumer pair over a bounded FIFO channel.
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
    consumer.mark_end(c0);
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

/// Two processes that each wait to receive before sending: a guaranteed
/// deadlock.
fn mutual_wait() -> Program {
    let mut prog = ProgramBuilder::new();
    let c1 = prog.channel("c1", 0, 1);
    let c2 = prog.channel("c2", 0, 1);
    for (name, recv_chan, send_chan) in [("p", c1, c2), ("q", c2, c1)] {
        let mut p = ProcessBuilder::new(name);
        let s0 = p.location("wait");
        let s1 = p.location("reply");
        let s2 = p.location("done");
        p.mark_end(s2);
        p.transition(
            s0,
            s1,
            Guard::always(),
            Action::recv_any(recv_chan, 1),
            "recv",
        );
        p.transition(
            s1,
            s2,
            Guard::always(),
            Action::send(send_chan, vec![1.into()]),
            "send",
        );
        prog.add_process(p).unwrap();
    }
    prog.build().unwrap()
}

/// Two incrementers racing past an asserted bound: an assertion failure
/// a few levels deep.
fn assertion_bug() -> Program {
    let mut prog = ProgramBuilder::new();
    let x = prog.global("x", 0);
    for name in ["inc_a", "inc_b"] {
        let mut p = ProcessBuilder::new(name);
        let s0 = p.location("first");
        let s1 = p.location("second");
        let s2 = p.location("check");
        let s3 = p.location("done");
        p.mark_end(s3);
        let bump = Action::assign(x, expr::global(x) + 1.into());
        p.transition(s0, s1, Guard::always(), bump.clone(), "bump1");
        p.transition(s1, s2, Guard::always(), bump, "bump2");
        p.transition(
            s2,
            s3,
            Guard::always(),
            Action::assert(expr::lt(expr::global(x), 4.into()), "x < 4"),
            "assert",
        );
        prog.add_process(p).unwrap();
    }
    prog.build().unwrap()
}

/// A seeded invariant bug: the flag escapes its advertised bound only
/// after both processes have toggled several times.
fn seeded_invariant_bug() -> (Program, SafetyChecks) {
    let mut prog = ProgramBuilder::new();
    let total = prog.global("total", 0);
    for name in ["a", "b"] {
        let mut p = ProcessBuilder::new(name);
        let count = p.local("count", 0);
        let s0 = p.location("loop");
        let s1 = p.location("done");
        p.mark_end(s1);
        p.transition(
            s0,
            s0,
            Guard::when(expr::lt(expr::local(count), 3.into())),
            Action::assign_all(vec![
                (total.into(), expr::global(total) + 1.into()),
                (count.into(), expr::local(count) + 1.into()),
            ]),
            "bump",
        );
        p.transition(
            s0,
            s1,
            Guard::when(expr::ge(expr::local(count), 3.into())),
            Action::Skip,
            "finish",
        );
        prog.add_process(p).unwrap();
    }
    let program = prog.build().unwrap();
    let total = program.global_by_name("total").unwrap();
    let checks = SafetyChecks {
        deadlock: false,
        invariants: vec![(
            "total under 5".into(),
            Predicate::from_expr(expr::lt(expr::global(total), 5.into())),
        )],
    };
    (program, checks)
}

/// `procs` processes that each add to a shared total `rounds` times and
/// then finish, the last step asserting `total < finish_bound` when one
/// is given. Interleavings make BFS levels of hundreds of states, so a
/// multi-thread search expands its rounds on several workers.
fn wide_race(procs: usize, rounds: i32, finish_bound: Option<i32>) -> Program {
    let mut prog = ProgramBuilder::new();
    let total = prog.global("total", 0);
    for i in 0..procs {
        let mut p = ProcessBuilder::new(format!("p{i}"));
        let count = p.local("count", 0);
        let s0 = p.location("loop");
        let s1 = p.location("done");
        p.mark_end(s1);
        p.transition(
            s0,
            s0,
            Guard::when(expr::lt(expr::local(count), rounds.into())),
            Action::assign_all(vec![
                (total.into(), expr::global(total) + 1.into()),
                (count.into(), expr::local(count) + 1.into()),
            ]),
            "add",
        );
        let finish = match finish_bound {
            Some(bound) => Action::assert(expr::lt(expr::global(total), bound.into()), "early"),
            None => Action::Skip,
        };
        p.transition(
            s0,
            s1,
            Guard::when(expr::ge(expr::local(count), rounds.into())),
            finish,
            "finish",
        );
        prog.add_process(p).unwrap();
    }
    prog.build().unwrap()
}

/// An invariant `total < bound` over [`wide_race`]'s total.
fn total_below(program: &Program, bound: i32) -> SafetyChecks {
    let total = program.global_by_name("total").unwrap();
    SafetyChecks {
        deadlock: true,
        invariants: vec![(
            format!("total under {bound}"),
            Predicate::from_expr(expr::lt(expr::global(total), bound.into())),
        )],
    }
}

/// The differential corpus: name, program, and the checks to run.
fn corpus() -> Vec<(&'static str, Program, SafetyChecks)> {
    let mut corpus = Vec::new();

    let program = toggler(4);
    let flag = program.global_by_name("flag").unwrap();
    corpus.push((
        "toggler holds",
        program,
        SafetyChecks {
            deadlock: true,
            invariants: vec![(
                "flag is a bit".into(),
                Predicate::from_expr(expr::and(
                    expr::ge(expr::global(flag), 0.into()),
                    expr::le(expr::global(flag), 1.into()),
                )),
            )],
        },
    ));

    corpus.push((
        "buffered pipe holds",
        buffered_pipe(3, 2),
        SafetyChecks {
            deadlock: false,
            invariants: Vec::new(),
        },
    ));

    corpus.push((
        "mutual wait deadlock",
        mutual_wait(),
        SafetyChecks::deadlock_only(),
    ));

    corpus.push((
        "assertion bug",
        assertion_bug(),
        SafetyChecks {
            deadlock: false,
            invariants: Vec::new(),
        },
    ));

    let (program, checks) = seeded_invariant_bug();
    corpus.push(("seeded invariant bug", program, checks));

    let program = wide_race(4, 5, None);
    let checks = total_below(&program, 21);
    corpus.push(("wide race holds", program, checks));

    let program = wide_race(4, 5, None);
    let checks = total_below(&program, 11);
    corpus.push(("wide race invariant bug", program, checks));

    corpus.push((
        "wide race assertion bug",
        wide_race(4, 5, Some(17)),
        SafetyChecks::deadlock_only(),
    ));

    corpus
}

fn run(
    program: &Program,
    checks: &SafetyChecks,
    threads: usize,
    visited: VisitedKind,
) -> SafetyReport {
    Checker::with_config(
        program,
        SearchConfig {
            threads,
            visited,
            ..SearchConfig::default()
        },
    )
    .check_safety(checks)
    .unwrap()
}

/// Asserts that `report` is `reference` field by field, except `elapsed`
/// and `approx_memory_bytes` (see the module docs). Outcomes compare
/// whole, so a trace compares event by event.
fn assert_same_report(what: &str, report: &SafetyReport, reference: &SafetyReport) {
    assert_eq!(report.outcome, reference.outcome, "{what}: outcome");
    assert_eq!(report.truncated, reference.truncated, "{what}: truncated");
    let comparable = |stats: &SearchStats| {
        format!(
            "{:?}",
            SearchStats {
                elapsed: Duration::ZERO,
                approx_memory_bytes: 0,
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

#[test]
fn parallel_matches_sequential_on_corpus() {
    for (name, program, checks) in corpus() {
        let seq = run(&program, &checks, 1, VisitedKind::Exact);
        for threads in [2, 4, 8] {
            let par = run(&program, &checks, threads, VisitedKind::Exact);
            assert_same_report(&format!("{name}@{threads}"), &par, &seq);
            if let Some(trace) = par.outcome.trace() {
                let end = Checker::new(&program).replay_trace(trace).unwrap();
                assert!(end.is_some(), "{name}@{threads}: trace must replay exactly");
            }
        }
    }
}

#[test]
fn parallel_matches_sequential_without_reduction() {
    for (name, program, checks) in corpus() {
        let base = SearchConfig {
            partial_order_reduction: false,
            ..SearchConfig::default()
        };
        let seq = Checker::with_config(&program, base)
            .check_safety(&checks)
            .unwrap();
        let par = Checker::with_config(&program, SearchConfig { threads: 4, ..base })
            .check_safety(&checks)
            .unwrap();
        assert_same_report(name, &par, &seq);
    }
}

#[test]
fn parallel_compact_backend_agrees_on_corpus() {
    // The corpus is far too small for 64-bit hash collisions, so the
    // compact backend must report the same (approximate) verdicts and
    // state counts at every thread count.
    for (name, program, checks) in corpus() {
        let seq = run(&program, &checks, 1, VisitedKind::Compact);
        let par = run(&program, &checks, 4, VisitedKind::Compact);
        assert_same_report(name, &par, &seq);
        if let (
            SafetyOutcome::HoldsApprox {
                states_visited: s, ..
            },
            SafetyOutcome::HoldsApprox {
                states_visited: p, ..
            },
        ) = (&seq.outcome, &par.outcome)
        {
            assert_eq!(p, s, "{name}: states modulo hashing");
        }
        assert_eq!(par.stats.replay_rejected, 0, "{name}: no replay rejections");
    }
}

#[test]
fn single_thread_reports_are_byte_identical_across_runs() {
    // At threads = 1 everything except wall-clock `elapsed` is
    // reproducible bit for bit.
    for (name, program, checks) in corpus() {
        let reports: Vec<String> = (0..3)
            .map(|_| {
                let mut report = run(&program, &checks, 1, VisitedKind::Exact);
                report.stats.elapsed = Duration::ZERO;
                format!("{report:?}")
            })
            .collect();
        assert_eq!(reports[0], reports[1], "{name}: run 1 vs 2");
        assert_eq!(reports[1], reports[2], "{name}: run 2 vs 3");
    }
}

/// Runs `program` until the `max_states` budget trips, flushing
/// checkpoints to an in-memory sink, and returns the final snapshot.
fn interrupt_with_budget(
    program: &Program,
    checks: &SafetyChecks,
    visited: VisitedKind,
    max_states: usize,
) -> Snapshot {
    let sink: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let report = Checker::with_config(
        program,
        SearchConfig {
            max_states,
            visited,
            ..SearchConfig::default()
        },
    )
    .checkpoint_to(Rc::clone(&sink))
    .checkpoint_every(16)
    .checkpoint_tag("differential")
    .check_safety(checks)
    .unwrap();
    assert!(
        matches!(report.outcome, SafetyOutcome::LimitReached { .. }),
        "budget of {max_states} states must interrupt the search, got {:?}",
        report.outcome
    );
    let bytes = sink.borrow().clone();
    assert!(
        !bytes.is_empty(),
        "an interrupted search must leave a snapshot"
    );
    Snapshot::decode(&bytes).expect("snapshot must decode")
}

#[test]
fn resume_at_different_thread_count_matches_uninterrupted_run() {
    // Interrupt an exhaustive `Holds` search mid-way, then resume from
    // the checkpoint at *different* thread counts. The resumed totals
    // equal the uninterrupted run's, however many workers finish the job.
    for (name, program, checks) in corpus() {
        let reference = run(&program, &checks, 1, VisitedKind::Exact);
        if !reference.outcome.is_holds() {
            continue;
        }
        let budget = reference.stats.unique_states / 2;
        let snapshot = interrupt_with_budget(&program, &checks, VisitedKind::Exact, budget);
        assert!(
            snapshot.states_covered() > 0,
            "{name}: snapshot covers work"
        );
        assert!(
            snapshot.states_covered() < reference.stats.unique_states,
            "{name}: snapshot must be a strict prefix of the search"
        );
        for threads in [1, 4] {
            let resumed = Checker::resume_from(&program, snapshot.clone())
                .expect("fingerprint matches")
                .with_search_config(SearchConfig {
                    threads,
                    ..SearchConfig::default()
                })
                .check_safety(&checks)
                .unwrap();
            assert!(resumed.outcome.is_holds(), "{name}@{threads}: verdict");
            assert_eq!(
                resumed.stats.unique_states, reference.stats.unique_states,
                "{name}@{threads}: resumed states"
            );
            assert_eq!(
                resumed.stats.steps, reference.stats.steps,
                "{name}@{threads}: resumed steps"
            );
            assert_eq!(
                resumed.stats.max_depth, reference.stats.max_depth,
                "{name}@{threads}: resumed depth"
            );
        }
    }
}

#[test]
fn repeated_interruptions_still_converge_to_exact_totals() {
    // Simulated crash storm: the search is budget-tripped over and over,
    // each resume picking up from the previous snapshot with a slightly
    // larger budget, until it finally completes. However many faults land,
    // the completed run's totals are byte-identical to the uninterrupted
    // run's.
    let (name, program, checks) = ("toggler holds", toggler(5), SafetyChecks::deadlock_only());
    let reference = run(&program, &checks, 1, VisitedKind::Exact);
    assert!(reference.outcome.is_holds());

    let mut snapshot = interrupt_with_budget(&program, &checks, VisitedKind::Exact, 20);
    let mut budget = 20;
    let mut faults = 1;
    let final_report = loop {
        budget += 20;
        let sink: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let report = Checker::resume_from(&program, snapshot.clone())
            .expect("fingerprint matches")
            .with_search_config(SearchConfig {
                max_states: budget,
                ..SearchConfig::default()
            })
            .checkpoint_to(Rc::clone(&sink))
            .checkpoint_every(16)
            .check_safety(&checks)
            .unwrap();
        match report.outcome {
            SafetyOutcome::LimitReached { .. } => {
                faults += 1;
                assert!(faults < 64, "{name}: runaway interruption loop");
                let bytes = sink.borrow().clone();
                assert!(!bytes.is_empty(), "{name}: each trip leaves a snapshot");
                snapshot = Snapshot::decode(&bytes).unwrap();
            }
            _ => break report,
        }
    };
    assert!(
        faults >= 2,
        "{name}: the storm must actually interrupt twice+"
    );
    assert!(final_report.outcome.is_holds(), "{name}: final verdict");
    assert_eq!(
        final_report.stats.unique_states, reference.stats.unique_states,
        "{name}: states after {faults} faults"
    );
    assert_eq!(final_report.stats.steps, reference.stats.steps, "{name}");
    assert_eq!(
        final_report.stats.max_depth, reference.stats.max_depth,
        "{name}"
    );
}

#[test]
fn lossy_backend_resume_finds_parked_violation_and_trace_replays() {
    // The seeded invariant bug under the *lossy* compact backend: the
    // search is interrupted before the violation level is reached (the candidate is still "parked" in the frontier),
    // then resumed at a different thread count. The resumed search must
    // surface the violation, and — because lossy backends replay-validate
    // candidates — the reported trace must replay exactly against the
    // program.
    let (program, checks) = seeded_invariant_bug();
    let sequential = run(&program, &checks, 1, VisitedKind::Compact);
    let expected_trace_len = sequential
        .outcome
        .trace()
        .expect("seeded bug must violate")
        .len();

    // A budget well below the full state count: the violation occurs at
    // total == 5, several levels deep, so a tiny budget parks it.
    let snapshot = interrupt_with_budget(&program, &checks, VisitedKind::Compact, 12);
    assert_eq!(snapshot.visited_kind(), VisitedKind::Compact);
    assert!(
        snapshot.frontier_len() > 0,
        "parked work must be in the frontier"
    );

    for threads in [1, 4] {
        let resumed = Checker::resume_from(&program, snapshot.clone())
            .expect("fingerprint matches")
            .with_search_config(SearchConfig {
                threads,
                ..SearchConfig::default()
            })
            .check_safety(&checks)
            .unwrap();
        let trace = match &resumed.outcome {
            SafetyOutcome::InvariantViolated { name, trace } => {
                assert_eq!(name, "total under 5", "@{threads}");
                trace
            }
            other => panic!("@{threads}: expected violation, got {other:?}"),
        };
        assert_eq!(
            trace.len(),
            expected_trace_len,
            "@{threads}: shortest counterexample survives the interruption"
        );
        let end = Checker::new(&program)
            .replay_trace(trace)
            .expect("replay evaluates");
        assert!(
            end.is_some(),
            "@{threads}: resumed-run trace must replay exactly"
        );
    }
}

#[test]
fn multi_thread_verdicts_are_stable_across_runs() {
    // Every multi-thread run is the one-thread run: the same verdict,
    // counterexample and counters, run after run, including a run that a
    // `max_states` trip stops in the middle of a round (its rolled-back
    // frontier and `states_covered` are the one-thread ones).
    for (name, program, checks) in corpus() {
        let seq = run(&program, &checks, 1, VisitedKind::Exact);
        let tripped_at = |threads: usize| {
            Checker::with_config(
                &program,
                SearchConfig {
                    threads,
                    max_states: seq.stats.unique_states / 2,
                    ..SearchConfig::default()
                },
            )
            .check_safety(&checks)
            .unwrap()
        };
        let seq_tripped = tripped_at(1);
        for threads in [2, 4, 8] {
            for attempt in 0..2 {
                let what = format!("{name}@{threads} (run {attempt})");
                let par = run(&program, &checks, threads, VisitedKind::Exact);
                assert_same_report(&what, &par, &seq);
                assert_same_report(
                    &format!("{what}, tripped"),
                    &tripped_at(threads),
                    &seq_tripped,
                );
            }
        }
    }
}
