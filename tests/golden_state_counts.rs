//! Golden state-space sizes: exploration is deterministic, so these exact
//! counts pin down the semantics of the step engine, the block models, and
//! the partial-order reduction. A change to any of them shows up here
//! first — deliberate changes should update the numbers (and the matching
//! tables in EXPERIMENTS.md).

mod common;

use common::wire_system;
use pnp_bridge::{exactly_n_bridge, safety_invariant, side_props, BridgeConfig};
use pnp_core::{
    ChannelKind, EventChannelSpec, RecvPortKind, SendPortKind, Subscription, SystemBuilder,
};
use pnp_kernel::{
    expr, BudgetKind, CancelToken, Checker, Fairness, LtlOutcome, Predicate, Proposition,
    SafetyChecks, SafetyOutcome, SearchConfig,
};

#[test]
fn buggy_bridge_explores_exactly_the_recorded_states() {
    let system = exactly_n_bridge(&BridgeConfig::buggy()).unwrap();
    let program = system.program();
    let report = Checker::new(program)
        .check_safety(&SafetyChecks {
            deadlock: false,
            invariants: vec![safety_invariant(program)],
        })
        .unwrap();
    assert_eq!(report.stats.unique_states, 1047);
    assert_eq!(report.outcome.trace().unwrap().len(), 14);
}

#[test]
fn pipe_state_counts_match_experiments_table() {
    // Deadlock check of the shared test harness's 2-message pipe, POR on.
    // (EXPERIMENTS.md's E2 table uses the slightly leaner bench-crate
    // consumer, hence different absolute values; the *ordering* — sync
    // ports prune roughly half the states — is the same.)
    let expectations = [
        (SendPortKind::AsynNonblocking, 226usize),
        (SendPortKind::AsynBlocking, 194),
        (SendPortKind::AsynChecking, 194),
        (SendPortKind::SynBlocking, 95),
        (SendPortKind::SynChecking, 95),
    ];
    for (send, expected) in expectations {
        let wire = wire_system(
            send,
            ChannelKind::Fifo { capacity: 2 },
            RecvPortKind::blocking(),
            &[(1, 0), (2, 0)],
            2,
            None,
            false,
        );
        let report = Checker::new(wire.system.program())
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        assert_eq!(
            report.stats.unique_states,
            expected,
            "{} composition drifted",
            send.name()
        );
    }
}

#[test]
fn threads_one_is_behaviorally_identical_to_sequential() {
    // `--threads 1` is the one-thread search: the golden counts above are
    // reproduced bit for bit under an explicit single-thread config.
    let system = exactly_n_bridge(&BridgeConfig::buggy()).unwrap();
    let program = system.program();
    let report = Checker::with_config(
        program,
        SearchConfig {
            threads: 1,
            ..SearchConfig::default()
        },
    )
    .check_safety(&SafetyChecks {
        deadlock: false,
        invariants: vec![safety_invariant(program)],
    })
    .unwrap();
    assert_eq!(report.stats.unique_states, 1047);
    assert_eq!(report.outcome.trace().unwrap().len(), 14);
}

#[test]
fn parallel_search_reproduces_golden_counts() {
    // A multi-thread search commits its expansions in the one-thread
    // order, so exhaustive Holds runs must reproduce the golden counts
    // exactly at any worker count.
    let expectations = [
        (SendPortKind::AsynNonblocking, 226usize),
        (SendPortKind::AsynBlocking, 194),
        (SendPortKind::SynBlocking, 95),
    ];
    for (send, expected) in expectations {
        let wire = wire_system(
            send,
            ChannelKind::Fifo { capacity: 2 },
            RecvPortKind::blocking(),
            &[(1, 0), (2, 0)],
            2,
            None,
            false,
        );
        let report = Checker::with_config(
            wire.system.program(),
            SearchConfig {
                threads: 4,
                ..SearchConfig::default()
            },
        )
        .check_safety(&SafetyChecks::deadlock_only())
        .unwrap();
        assert_eq!(
            report.stats.unique_states,
            expected,
            "{} parallel count drifted from sequential golden count",
            send.name()
        );
    }

    // Violations keep the BFS shortest-counterexample guarantee: the buggy
    // bridge trace has the same golden length at four threads.
    let system = exactly_n_bridge(&BridgeConfig::buggy()).unwrap();
    let program = system.program();
    let report = Checker::with_config(
        program,
        SearchConfig {
            threads: 4,
            ..SearchConfig::default()
        },
    )
    .check_safety(&SafetyChecks {
        deadlock: false,
        invariants: vec![safety_invariant(program)],
    })
    .unwrap();
    assert_eq!(report.outcome.trace().unwrap().len(), 14);
}

#[test]
fn budget_counting_point_is_identical_in_both_kernels() {
    // Regression for the budget counting point: `max_states` counts unique
    // *interned* states, charged strictly after the visited-set dedup, at
    // one thread and at four. The AsynBlocking wire explores exactly 194
    // states, so a budget of 194 completes (Holds) and a budget of 193
    // trips with `states_covered == 193` at either thread count.
    let run = |threads: usize, max_states: usize| {
        let wire = wire_system(
            SendPortKind::AsynBlocking,
            ChannelKind::Fifo { capacity: 2 },
            RecvPortKind::blocking(),
            &[(1, 0), (2, 0)],
            2,
            None,
            false,
        );
        Checker::with_config(
            wire.system.program(),
            SearchConfig {
                threads,
                max_states,
                ..SearchConfig::default()
            },
        )
        .check_safety(&SafetyChecks::deadlock_only())
        .unwrap()
    };
    for threads in [1, 4] {
        let exact = run(threads, 194);
        assert_eq!(
            exact.outcome,
            SafetyOutcome::Holds,
            "threads={threads}: budget equal to the state space must complete"
        );
        assert_eq!(exact.stats.unique_states, 194);

        let tripped = run(threads, 193);
        match tripped.outcome {
            SafetyOutcome::LimitReached {
                budget: BudgetKind::States,
                states_covered,
                ..
            } => assert_eq!(
                states_covered, 193,
                "threads={threads}: counting point drifted"
            ),
            ref other => panic!("threads={threads}: expected LimitReached, got {other:?}"),
        }
    }
}

/// The step labels of the starvation lasso of `[] <> blue_on` under weak
/// fairness (one blue car, unbounded laps), as the sequential nested DFS
/// reports it: the prefix to the accepting cycle, then the cycle.
const STARVE_PREFIX_LABELS: [&str; 96] = [
    "approach bridge",
    "send via BlueEnter.send[0]",
    "forward to channel",
    "store in buffer",
    "IN_OK to send port",
    "may admit another",
    "receive request via BlueEnter.recv[0]",
    "forward receive request",
    "select matching message",
    "OUT_OK to receive port",
    "deliver message to receive port",
    "RECV_OK to send port",
    "clear delivery scratch",
    "SEND_SUCC",
    "RECV_SUCC",
    "deliver message",
    "drive onto bridge",
    "drive off bridge",
    "send via RedExit.send[0]",
    "forward to channel",
    "store in buffer",
    "IN_OK to send port",
    "SEND_SUCC",
    "lap complete",
    "approach bridge",
    "send via BlueEnter.send[0]",
    "forward to channel",
    "store in buffer",
    "IN_OK to send port",
    "count admission",
    "turn over: await exits",
    "await another exit",
    "receive request via BlueExit.recv[0]",
    "forward receive request",
    "no matching message",
    "OUT_FAIL to receive port",
    "forward receive request",
    "no matching message",
    "OUT_FAIL to receive port",
    "forward receive request",
    "no matching message",
    "await another exit",
    "OUT_FAIL to receive port",
    "forward receive request",
    "no matching message",
    "receive request via RedExit.recv[0]",
    "OUT_FAIL to receive port",
    "forward receive request",
    "select matching message",
    "OUT_OK to receive port",
    "deliver message to receive port",
    "RECV_OK to send port",
    "clear delivery scratch",
    "RECV_SUCC",
    "deliver message",
    "forward receive request",
    "no matching message",
    "OUT_FAIL to receive port",
    "count exit",
    "forward receive request",
    "no matching message",
    "OUT_FAIL to receive port",
    "my turn again",
    "forward receive request",
    "no matching message",
    "OUT_FAIL to receive port",
    "may admit another",
    "forward receive request",
    "no matching message",
    "OUT_FAIL to receive port",
    "receive request via RedEnter.recv[0]",
    "forward receive request",
    "no matching message",
    "OUT_FAIL to receive port",
    "forward receive request",
    "forward receive request",
    "no matching message",
    "OUT_FAIL to receive port",
    "no matching message",
    "forward receive request",
    "no matching message",
    "OUT_FAIL to receive port",
    "OUT_FAIL to receive port",
    "forward receive request",
    "no matching message",
    "forward receive request",
    "OUT_FAIL to receive port",
    "no matching message",
    "OUT_FAIL to receive port",
    "forward receive request",
    "forward receive request",
    "no matching message",
    "no matching message",
    "OUT_FAIL to receive port",
    "forward receive request",
    "OUT_FAIL to receive port",
];

const STARVE_CYCLE_LABELS: [&str; 12] = [
    "no matching message",
    "forward receive request",
    "OUT_FAIL to receive port",
    "no matching message",
    "OUT_FAIL to receive port",
    "forward receive request",
    "forward receive request",
    "no matching message",
    "no matching message",
    "OUT_FAIL to receive port",
    "forward receive request",
    "OUT_FAIL to receive port",
];

#[test]
fn bridge_ltl_product_counts_match_recorded_goldens() {
    // E9's starvation spec, pinned at the *product automaton* level: the
    // nested DFS over (system × Büchi × weak-fairness counter) is
    // deterministic, so `unique_states` (product nodes colored) and
    // `steps` (product edges generated) must reproduce exactly. A change
    // here means the explored liveness graph itself changed — Büchi
    // translation, product construction, or fairness counters.
    let cfg = BridgeConfig::fixed().with_cars(1, 0).with_laps(None);
    let system = exactly_n_bridge(&cfg).unwrap();
    let program = system.program();
    let props = side_props(program);
    let report = Checker::new(program)
        .check_ltl_with(
            &pnp_ltl::parse("[] <> blue_on").unwrap(),
            &props,
            Fairness::Weak,
        )
        .unwrap();
    assert_eq!(
        report.stats.unique_states, 103,
        "bridge LTL product drifted"
    );
    assert_eq!(report.stats.steps, 329, "bridge LTL product edges drifted");
    // The lasso itself, not only the search's counts: the nested DFS's
    // visit order fixes which accepting cycle is found first, and the
    // lasso is rebuilt from the DFS stacks.
    let LtlOutcome::Violated { prefix, cycle } = &report.outcome else {
        panic!("expected the starvation lasso, got {:?}", report.outcome);
    };
    let labels = |trace: &pnp_kernel::Trace| {
        trace
            .events()
            .iter()
            .map(|e| e.label().to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(labels(prefix), STARVE_PREFIX_LABELS, "lasso prefix drifted");
    assert_eq!(labels(cycle), STARVE_CYCLE_LABELS, "lasso cycle drifted");

    // A property that *holds* (the bridge safety invariant phrased as
    // `[] safe`) explores the complete product: a stronger pin, since no
    // early cycle exit truncates it. Checked without fairness, which also
    // pins the partial-order-reduced product construction.
    let cfg = BridgeConfig::fixed().with_laps(Some(1));
    let system = exactly_n_bridge(&cfg).unwrap();
    let program = system.program();
    let (_, safe) = safety_invariant(program);
    let props = vec![Proposition::new("safe", safe)];
    let report = Checker::new(program)
        .check_ltl_with(&pnp_ltl::parse("[] safe").unwrap(), &props, Fairness::None)
        .unwrap();
    assert!(report.outcome.is_holds(), "{:?}", report.outcome);
    assert_eq!(
        report.stats.unique_states, 11432,
        "bridge holds-product drifted"
    );
    assert_eq!(
        report.stats.steps, 21567,
        "bridge holds-product edges drifted"
    );

    // The same property under weak fairness: the benchmark's
    // `bridge_liveness` product (no partial-order reduction, `N + 2`
    // fairness counters per node).
    let report = Checker::new(program)
        .check_ltl_with(&pnp_ltl::parse("[] safe").unwrap(), &props, Fairness::Weak)
        .unwrap();
    assert!(report.outcome.is_holds(), "{:?}", report.outcome);
    assert_eq!(
        report.stats.unique_states, 82794,
        "bridge weak-fairness product drifted"
    );
    assert_eq!(
        report.stats.steps, 405737,
        "bridge weak-fairness product edges drifted"
    );
}

#[test]
fn ltl_budget_and_cancellation_report_a_partial_holds() {
    // A state budget or a cancellation stops the sequential nested DFS
    // from interning new system states; it finishes over what it has and
    // reports `truncated`, never a proof. The counts reached at each cap
    // are pinned like the full products above. A state whose successors
    // were all refused has no edges (it is not terminal, so it gets no
    // stutter loop).
    let cfg = BridgeConfig::fixed().with_laps(Some(1));
    let system = exactly_n_bridge(&cfg).unwrap();
    let program = system.program();
    let (_, safe) = safety_invariant(program);
    let props = vec![Proposition::new("safe", safe)];
    let formula = pnp_ltl::parse("[] safe").unwrap();
    let capped = [
        (Fairness::Weak, 50, 50, 79),
        (Fairness::Weak, 500, 500, 1210),
        (Fairness::None, 500, 500, 785),
    ];
    for (fairness, max_states, nodes, edges) in capped {
        let report = Checker::with_config(
            program,
            SearchConfig {
                max_states,
                ..SearchConfig::default()
            },
        )
        .check_ltl_with(&formula, &props, fairness)
        .unwrap();
        let at = format!("{fairness:?} at max_states = {max_states}");
        assert!(report.outcome.is_holds(), "{at}: {:?}", report.outcome);
        assert!(report.truncated, "{at}: not truncated");
        assert_eq!(report.stats.unique_states, nodes, "{at}: nodes drifted");
        assert_eq!(report.stats.steps, edges, "{at}: edges drifted");
    }

    // Cancelled before it starts, the search still interns the initial
    // state (its root) and nothing after it, so it explores no edge.
    for fairness in [Fairness::Weak, Fairness::None] {
        let token = CancelToken::new();
        token.cancel();
        let report = Checker::new(program)
            .with_cancellation(token)
            .check_ltl_with(&formula, &props, fairness)
            .unwrap();
        assert!(
            report.outcome.is_holds(),
            "{fairness:?}: {:?}",
            report.outcome
        );
        assert!(report.truncated, "{fairness:?}: not truncated");
        assert_eq!(report.stats.unique_states, 1, "{fairness:?}");
        assert_eq!(report.stats.steps, 0, "{fairness:?}");
    }
}

#[test]
fn truncated_liveness_never_stutters_at_a_refused_state() {
    // The starvation lasso's system: its initial state has enabled steps
    // and `blue_on` false there. A budget of one state, or a cancellation
    // before the start, refuses every successor of that state. It must
    // not then look terminal: a stutter loop on it would be a run that
    // never turns blue, and `[] <> blue_on` would be reported violated by
    // a lasso the system cannot take.
    let cfg = BridgeConfig::fixed().with_cars(1, 0).with_laps(None);
    let system = exactly_n_bridge(&cfg).unwrap();
    let program = system.program();
    let props = side_props(program);
    let formula = pnp_ltl::parse("[] <> blue_on").unwrap();
    for threads in [1, 2] {
        let config = SearchConfig {
            threads,
            ..SearchConfig::default()
        };
        let token = CancelToken::new();
        token.cancel();
        let runs = [
            (
                "max_states = 1",
                Checker::with_config(
                    program,
                    SearchConfig {
                        max_states: 1,
                        ..config
                    },
                ),
            ),
            (
                "pre-cancelled",
                Checker::with_config(program, config).with_cancellation(token),
            ),
        ];
        for (what, checker) in runs {
            let report = checker
                .check_ltl_with(&formula, &props, Fairness::None)
                .unwrap();
            let at = format!("{what} at {threads} threads");
            assert!(report.outcome.is_holds(), "{at}: {:?}", report.outcome);
            assert!(report.truncated, "{at}: not truncated");
        }
    }
}

#[test]
fn pubsub_ltl_product_counts_match_recorded_goldens() {
    // The Section 6 publish/subscribe connector under an LTL delivery
    // spec, pinned at the product-automaton level like the bridge above.
    let build = || {
        let mut sys = SystemBuilder::new();
        let all_sent = sys.global("all_sent", 0);
        let got_all = sys.global("got0", 0);
        let news = sys.event_connector(
            "news",
            EventChannelSpec {
                per_subscription_capacity: 2,
            },
        );
        let pub_port = sys.publisher(news, SendPortKind::AsynBlocking);
        let sub_all = sys.subscriber(news, RecvPortKind::blocking(), Subscription::all());
        let publisher = common::producer("publisher", &pub_port, &[(10, 1), (20, 2)], all_sent);
        let sub = common::consumer("sub_all", &sub_all, &[got_all], None, Some(all_sent));
        sys.add_component(publisher);
        sys.add_component(sub);
        sys.build().unwrap()
    };

    let system = build();
    let program = system.program();
    let got0 = program.global_by_name("got0").unwrap();
    let delivered = Proposition::new(
        "delivered",
        Predicate::from_expr(expr::gt(expr::global(got0), 0.into())),
    );
    let report = Checker::new(program)
        .check_ltl_with(
            &pnp_ltl::parse("<> delivered").unwrap(),
            std::slice::from_ref(&delivered),
            Fairness::Weak,
        )
        .unwrap();
    assert!(report.outcome.is_holds(), "{:?}", report.outcome);
    assert_eq!(report.stats.unique_states, 25, "pubsub LTL product drifted");
    assert_eq!(report.stats.steps, 49, "pubsub LTL product edges drifted");
}

#[test]
fn exploration_is_deterministic_across_runs() {
    let count = || {
        let wire = wire_system(
            SendPortKind::AsynBlocking,
            ChannelKind::Priority { capacity: 2 },
            RecvPortKind::blocking(),
            &[(1, 2), (2, 1)],
            2,
            None,
            false,
        );
        Checker::new(wire.system.program())
            .state_space_size()
            .unwrap()
            .unique_states
    };
    let first = count();
    for _ in 0..3 {
        assert_eq!(count(), first);
    }
}
