//! The storage timing wrappers must be pure pass-throughs: a wrapped run
//! and an unwrapped run of the same spec agree on the verdict, the state
//! count, the spill traffic and what the last checkpoint holds.

use pnp_kernel::Snapshot;
use pnp_lang::{compile, PropertyResult, VerifyOptions};
use pnp_perfbench::specs::SERVICE_SPECS;
use pnp_perfbench::workloads::durable::Storage;

/// Checkpoint every few states and spill at once, so a small spec
/// exercises both storage paths in a debug build.
fn small(mut options: VerifyOptions) -> VerifyOptions {
    if let Some((_, every)) = &mut options.checkpoint {
        *every = 16;
    }
    if options.config.spill_at_bytes.is_some() {
        options.config.spill_at_bytes = Some(1);
    }
    options
}

fn summary(results: &[PropertyResult]) -> Vec<(String, bool, usize, usize)> {
    results
        .iter()
        .map(|r| (r.name.clone(), r.holds, r.states, r.spill_bytes))
        .collect()
}

#[test]
fn wrapped_and_unwrapped_runs_agree() {
    let spec = compile(SERVICE_SPECS[1].1).expect("newswire compiles");
    let mut seen = Vec::new();
    for wrapped in [false, true] {
        let storage = Storage::new(wrapped).unwrap();
        let checkpointed = spec
            .verify_all_with_options(&small(storage.checkpoint_options()))
            .unwrap();
        let spilled = spec
            .verify_all_with_options(&small(storage.spill_options()))
            .unwrap();
        assert!(spilled.iter().any(|r| r.spill_bytes > 0), "the run spilled");
        let snapshot = Snapshot::decode(&storage.latest_checkpoint().unwrap()).unwrap();
        let checkpoint = (
            snapshot.tag().to_string(),
            snapshot.states_covered(),
            snapshot.frontier_len(),
        );
        if wrapped {
            let vfs = storage.vfs_counters.as_ref().unwrap();
            let sink = storage.sink_counters.as_ref().unwrap();
            let load =
                |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
            assert!(
                load(&vfs.writes) > 0 && load(&sink.stores) > 0,
                "the wrappers saw the traffic"
            );
        }
        seen.push((summary(&checkpointed), summary(&spilled), checkpoint));
    }
    assert_eq!(seen[0], seen[1]);
}
