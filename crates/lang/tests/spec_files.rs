//! The shipped `.pnp` specification files must compile and verify with the
//! documented outcomes.

use pnp_lang::compile;

const WIRE: &str = include_str!("../../../examples/specs/wire.pnp");
const BRIDGE_BUGGY: &str = include_str!("../../../examples/specs/bridge_buggy.pnp");
const BRIDGE_FIXED: &str = include_str!("../../../examples/specs/bridge_fixed.pnp");
const PRIORITY_MAIL: &str = include_str!("../../../examples/specs/priority_mail.pnp");
const NEWSWIRE: &str = include_str!("../../../examples/specs/newswire.pnp");

#[test]
fn wire_spec_holds_everywhere() {
    let spec = compile(WIRE).unwrap();
    let results = spec.verify_all().unwrap();
    assert_eq!(results.len(), 3);
    for result in &results {
        assert!(result.holds, "{}: {}", result.name, result.detail);
    }
}

#[test]
fn buggy_bridge_spec_reports_the_crash() {
    let spec = compile(BRIDGE_BUGGY).unwrap();
    let results = spec.verify_all().unwrap();
    assert_eq!(results.len(), 1);
    assert!(!results[0].holds);
    // The counterexample is explained at the building-block level.
    assert!(
        results[0].detail.contains("AsynBlockingSend"),
        "{}",
        results[0].detail
    );
    assert!(
        results[0].detail.contains("component BlueCar")
            || results[0].detail.contains("component RedCar"),
        "{}",
        results[0].detail
    );
}

#[test]
fn fixed_bridge_spec_holds() {
    let spec = compile(BRIDGE_FIXED).unwrap();
    let results = spec.verify_all().unwrap();
    assert!(results[0].holds, "{}", results[0].detail);
}

/// The two bridge specs differ only in the enter-port kinds (the textual
/// form of the paper's one-block fix).
#[test]
fn bridge_specs_differ_only_in_enter_ports() {
    let buggy = pnp_lang::parse_system(BRIDGE_BUGGY).unwrap();
    let fixed = pnp_lang::parse_system(BRIDGE_FIXED).unwrap();
    // Components are textually identical.
    assert_eq!(buggy.components.len(), fixed.components.len());
    for (a, b) in buggy.components.iter().zip(&fixed.components) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.states.len(), b.states.len());
        assert_eq!(a.stmts.len(), b.stmts.len());
    }
    // Exactly the two enter send ports changed kind.
    let kinds = |ast: &pnp_lang::SystemAst| -> Vec<pnp_lang::SendKindAst> {
        ast.connectors
            .iter()
            .flat_map(|c| c.sends.iter().map(|(_, k, _)| *k))
            .collect()
    };
    let changed = kinds(&buggy)
        .iter()
        .zip(kinds(&fixed))
        .filter(|(a, b)| **a != *b)
        .count();
    assert_eq!(changed, 2);
}

/// `VerifyOptions.config.threads` flows through to the safety search: a
/// parallel run reports the same verdicts and the same per-property state
/// counts as the default sequential run.
#[test]
fn parallel_verification_matches_sequential_results() {
    use pnp_kernel::SearchConfig;

    for source in [WIRE, BRIDGE_BUGGY, BRIDGE_FIXED] {
        let spec = compile(source).unwrap();
        let sequential = spec.verify_all().unwrap();
        let parallel = spec
            .verify_all_with_config(SearchConfig {
                threads: 4,
                ..SearchConfig::default()
            })
            .unwrap();
        assert_eq!(sequential.len(), parallel.len());
        for (seq, par) in sequential.iter().zip(&parallel) {
            assert_eq!(seq.name, par.name);
            assert_eq!(seq.holds, par.holds, "{}: {}", par.name, par.detail);
            assert_eq!(seq.inconclusive, par.inconclusive, "{}", par.name);
            if seq.holds {
                // Exhaustive Holds runs explore the identical reduced
                // graph, so the reported state counts match exactly.
                assert_eq!(seq.states, par.states, "{}", par.name);
            }
        }
    }
}

#[test]
fn priority_mail_spec_holds_everywhere() {
    let spec = compile(PRIORITY_MAIL).unwrap();
    for result in spec.verify_all().unwrap() {
        assert!(result.holds, "{}: {}", result.name, result.detail);
    }
}

#[test]
fn newswire_spec_holds_everywhere() {
    let spec = compile(NEWSWIRE).unwrap();
    for result in spec.verify_all().unwrap() {
        assert!(result.holds, "{}: {}", result.name, result.detail);
    }
}

/// A checkpoint is resumed only against a program with the fingerprint it
/// recorded, so a change to what the fingerprint hashes refuses every
/// checkpoint written by an earlier build. These are the values since
/// checkpoint format v4; indexes the kernel derives from a program (its
/// state layout aside) must stay out of them.
#[test]
fn program_fingerprints_are_stable_across_builds() {
    for (name, text, pinned) in [
        ("wire.pnp", WIRE, 0x7490_f34c_367f_a9bd_u64),
        ("bridge_fixed.pnp", BRIDGE_FIXED, 0xfb1b_ab41_42a0_676e),
    ] {
        let spec = compile(text).unwrap();
        let fingerprint = pnp_kernel::program_fingerprint(spec.system().program());
        assert_eq!(
            fingerprint, pinned,
            "{name}: fingerprint {fingerprint:#018x}, pinned {pinned:#018x}"
        );
    }
}

/// Lexer/parser robustness: no input may panic the front end.
#[test]
fn parser_never_panics_on_garbage() {
    let samples = [
        "",
        "system",
        "system {",
        "system { component }",
        "system { global = ; }",
        "system { connector c { channel fifo(0); } }",
        "system { component c { state a; from a send goto a; } }",
        "\u{0}\u{1}\u{2}",
        "system { property p: ltl \"(((\" ; }",
        "system { component c { state a; end a; from a if goto a; } }",
    ];
    for source in samples {
        let _ = compile(source); // must return Err, not panic
    }
}

/// The snapshot a sequential search of `wire.pnp` flushes when it trips
/// `max_states`, pinned byte for byte under every visited backend and
/// under a mid-run spill. Only `elapsed_nanos` depends on the clock, so it
/// is zeroed before hashing; the trailing checksum covers it and is left
/// out. The snapshots of the backends no other test resumes must also
/// resume to the uninterrupted run's totals.
///
/// A two-thread search that trips the same budget must flush the same
/// parent links, depths, frontier and visited payload (everything after
/// the statistics), and its snapshot must resume at one thread to the
/// uninterrupted totals.
#[test]
fn wire_snapshots_encode_identically_and_resume() {
    use pnp_kernel::{
        checksum64, Checker, SafetyChecks, SearchConfig, SimFs, Snapshot, VfsHandle, VisitedKind,
    };
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    let spec = compile(WIRE).unwrap();
    let program = spec.system().program();
    let checks = SafetyChecks::deadlock_only();
    let cases: [(&str, SearchConfig, bool, u64); 5] = [
        (
            "exact",
            SearchConfig::default(),
            false,
            0x1d3d_c3d1_ac12_97d7,
        ),
        (
            "compact",
            SearchConfig {
                visited: VisitedKind::Compact,
                ..SearchConfig::default()
            },
            true,
            0x332a_b2f5_b148_ea16,
        ),
        (
            "bitstate",
            SearchConfig {
                visited: VisitedKind::bitstate(1 << 10),
                ..SearchConfig::default()
            },
            true,
            0x7c66_44cc_350f_04b0,
        ),
        (
            "disk",
            SearchConfig {
                visited: VisitedKind::DiskExact,
                ..SearchConfig::default()
            },
            true,
            0x5171_8040_ee6a_44b2,
        ),
        (
            "spill",
            SearchConfig {
                spill_at_bytes: Some(1),
                ..SearchConfig::default()
            },
            false,
            0xde06_8e36_1b48_eedb,
        ),
    ];
    for (name, config, resume, pinned) in cases {
        let storage = || Arc::new(SimFs::new(7)) as VfsHandle;
        let full = Checker::with_config(program, config)
            .spill_to(storage(), "/spill")
            .check_safety(&checks)
            .unwrap();
        let trip = |threads: usize| {
            let sink = Rc::new(RefCell::new(Vec::new()));
            let tripped = Checker::with_config(
                program,
                SearchConfig {
                    max_states: full.stats.unique_states / 2,
                    threads,
                    ..config
                },
            )
            .spill_to(storage(), "/spill")
            .checkpoint_to(Rc::clone(&sink))
            .check_safety(&checks)
            .unwrap();
            assert!(tripped.truncated, "{name}@{threads}: {tripped}");
            let bytes = sink.borrow().clone();
            bytes
        };
        let mut bytes = trip(1);
        let snapshot = Snapshot::decode(&bytes).unwrap();
        // magic, version, fingerprint, tag, backend, then four stats
        // words before `elapsed_nanos`.
        let backend = match snapshot.visited_kind() {
            VisitedKind::Bitstate { .. } => 1 + 8 + 4,
            _ => 1,
        };
        let at = 8 + 4 + 8 + 8 + snapshot.tag().len() + backend + 4 * 8;
        // Parent links, depths, frontier and visited payload follow the
        // nine statistics words.
        let body = at + 5 * 8..bytes.len() - 8;
        let two_threads = trip(2);
        assert_eq!(
            two_threads[body.clone()],
            bytes[body.clone()],
            "{name}: the two-thread snapshot's search state"
        );
        let resumed = Checker::resume_from(program, Snapshot::decode(&two_threads).unwrap())
            .unwrap()
            .with_search_config(config)
            .spill_to(storage(), "/spill")
            .check_safety(&checks)
            .unwrap();
        assert_eq!(resumed.outcome, full.outcome, "{name}: two-thread resume");
        assert_eq!(
            (resumed.stats.unique_states, resumed.stats.steps),
            (full.stats.unique_states, full.stats.steps),
            "{name}: two-thread resume"
        );
        assert_eq!(resumed.stats.max_depth, full.stats.max_depth, "{name}");
        bytes[at..at + 8].fill(0);
        let hash = checksum64(&bytes[..bytes.len() - 8]);
        assert_eq!(
            hash, pinned,
            "{name}: snapshot {hash:#018x}, pinned {pinned:#018x}"
        );
        if resume {
            let resumed = Checker::resume_from(program, snapshot)
                .unwrap()
                .with_search_config(config)
                .spill_to(storage(), "/spill")
                .check_safety(&checks)
                .unwrap();
            assert_eq!(resumed.outcome, full.outcome, "{name}");
            assert_eq!(
                resumed.stats.unique_states, full.stats.unique_states,
                "{name}"
            );
            assert_eq!(resumed.stats.steps, full.stats.steps, "{name}");
            assert_eq!(resumed.stats.max_depth, full.stats.max_depth, "{name}");
        }
    }
}
