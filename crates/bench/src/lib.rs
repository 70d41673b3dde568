//! # pnp-bench — benchmark harness for the PnP reproduction
//!
//! The `experiments` binary
//! (`cargo run --release -p pnp-bench --bin experiments`) prints the
//! state-count, outcome and timing tables recorded in `EXPERIMENTS.md`;
//! the `chaos_search` binary drives the chaos matrices. End-to-end
//! performance is measured by the separate `perfbench/` package.
//!
//! Helpers here build the standard systems the experiments measure.

#![warn(missing_docs)]
use pnp_bridge::{at_most_n_bridge, exactly_n_bridge, safety_invariant, BridgeConfig};
use pnp_core::{
    ChannelKind, ComponentBuilder, FusedConnectorKind, ReceiveBinds, RecvAttachment, RecvPortKind,
    SendAttachment, SendPortKind, System, SystemBuilder,
};
use pnp_kernel::{
    expr, Checker, GlobalId, Guard, SafetyChecks, SafetyOutcome, SearchConfig, SearchStats,
    VisitedKind,
};

/// Builds a producer/consumer pair around the given attachments: `messages`
/// sends, matching receives, payloads recorded to fresh globals.
pub fn pipe_components(
    sys: &mut SystemBuilder,
    tx: &SendAttachment,
    rx: &RecvAttachment,
    messages: usize,
) -> Vec<GlobalId> {
    let got: Vec<GlobalId> = (0..messages)
        .map(|i| sys.global(format!("got{i}"), 0))
        .collect();

    let mut producer = ComponentBuilder::new("producer");
    let mut at = producer.location("start");
    for i in 0..messages {
        let next = producer.location(format!("sent{i}"));
        producer.send_msg(at, next, tx, (i as i32 + 1).into(), 0.into(), None);
        at = next;
    }
    producer.mark_end(at);

    let mut consumer = ComponentBuilder::new("consumer");
    let data = consumer.local("data", 0);
    let mut cat = consumer.location("start");
    for (i, &slot) in got.iter().enumerate() {
        let mid = consumer.location(format!("recv{i}"));
        consumer.recv_msg(cat, mid, rx, None, ReceiveBinds::data_into(data));
        let next = consumer.location(format!("stored{i}"));
        consumer.transition(
            mid,
            next,
            Guard::always(),
            pnp_kernel::Action::assign(slot, expr::local(data)),
            "store",
        );
        cat = next;
    }
    consumer.mark_end(cat);

    sys.add_component(producer);
    sys.add_component(consumer);
    got
}

/// A composed pipe system: send port + channel + receive port.
pub fn composed_pipe(
    send: SendPortKind,
    channel: ChannelKind,
    recv: RecvPortKind,
    messages: usize,
) -> System {
    let mut sys = SystemBuilder::new();
    let conn = sys.connector("pipe", channel);
    let tx = sys.send_port(conn, send);
    let rx = sys.recv_port(conn, recv);
    pipe_components(&mut sys, &tx, &rx, messages);
    sys.build().expect("pipe builds")
}

/// The equivalent fused pipe system.
pub fn fused_pipe(kind: FusedConnectorKind, messages: usize) -> System {
    let mut sys = SystemBuilder::new();
    let (tx, rx) = sys.fused_connector("pipe", kind);
    pipe_components(&mut sys, &tx, &rx, messages);
    sys.build().expect("fused pipe builds")
}

/// Verifies the bridge safety property, returning outcome and stats.
pub fn verify_bridge(system: &System, por: bool) -> (SafetyOutcome, SearchStats) {
    let program = system.program();
    let checker = Checker::with_config(
        program,
        SearchConfig {
            partial_order_reduction: por,
            ..SearchConfig::default()
        },
    );
    let report = checker
        .check_safety(&SafetyChecks {
            deadlock: false,
            invariants: vec![safety_invariant(program)],
        })
        .expect("bridge evaluates");
    (report.outcome, report.stats)
}

/// Verifies the bridge's safety invariant under an explicit visited-set
/// backend, measuring the memory/coverage trade the backend makes. Returns
/// the outcome plus the search stats (`approx_memory_bytes` is the
/// backend-aware peak estimate).
pub fn verify_bridge_with_backend(
    system: &System,
    visited: VisitedKind,
) -> (SafetyOutcome, SearchStats) {
    let program = system.program();
    let report = Checker::with_config(
        program,
        SearchConfig {
            visited,
            ..SearchConfig::default()
        },
    )
    .check_safety(&SafetyChecks {
        deadlock: false,
        invariants: vec![safety_invariant(program)],
    })
    .expect("bridge evaluates");
    (report.outcome, report.stats)
}

/// Verifies the bridge safety property with `threads` worker threads (POR
/// on, exact backend). Any other count than 1 expands the search's states
/// on that many threads and reports the same verdict, trace and counts.
pub fn verify_bridge_threads(system: &System, threads: usize) -> (SafetyOutcome, SearchStats) {
    let program = system.program();
    let report = Checker::with_config(
        program,
        SearchConfig {
            threads,
            ..SearchConfig::default()
        },
    )
    .check_safety(&SafetyChecks {
        deadlock: false,
        invariants: vec![safety_invariant(program)],
    })
    .expect("bridge evaluates");
    (report.outcome, report.stats)
}

/// Deadlock-checks `system` with `threads` worker threads (used for the
/// fault-pipe scaling rows, whose interesting property is deadlock).
pub fn verify_deadlock_threads(system: &System, threads: usize) -> (SafetyOutcome, SearchStats) {
    let report = Checker::with_config(
        system.program(),
        SearchConfig {
            threads,
            ..SearchConfig::default()
        },
    )
    .check_safety(&SafetyChecks::deadlock_only())
    .expect("pipe evaluates");
    (report.outcome, report.stats)
}

/// Builds the fault-injection cost ladder: the same retrying
/// producer/consumer pipe composed with a fault-free channel, each channel
/// fault decorator, and crash-restart ports on both sides. Verifying each
/// variant measures what a fault block costs the checker.
pub fn fault_pipes(messages: usize) -> Vec<(&'static str, System)> {
    let base = ChannelKind::Fifo { capacity: 2 };
    vec![
        (
            "fault-free",
            composed_pipe(
                SendPortKind::AsynBlocking,
                base,
                RecvPortKind::blocking(),
                messages,
            ),
        ),
        (
            "lossy channel",
            composed_pipe(
                SendPortKind::AsynBlocking,
                ChannelKind::lossy(base),
                RecvPortKind::blocking(),
                messages,
            ),
        ),
        (
            "duplicating channel",
            composed_pipe(
                SendPortKind::AsynBlocking,
                ChannelKind::duplicating(base),
                RecvPortKind::blocking(),
                messages,
            ),
        ),
        (
            "reordering channel",
            composed_pipe(
                SendPortKind::AsynBlocking,
                ChannelKind::reordering(base),
                RecvPortKind::blocking(),
                messages,
            ),
        ),
        (
            "crash-restart ports",
            composed_pipe(
                SendPortKind::CrashRestart,
                base,
                RecvPortKind::crash_restart(),
                messages,
            ),
        ),
    ]
}

/// Builds the standard experiment bridges.
pub fn bridges() -> Vec<(&'static str, System)> {
    vec![
        (
            "exactly-N buggy",
            exactly_n_bridge(&BridgeConfig::buggy()).unwrap(),
        ),
        (
            "exactly-N fixed",
            exactly_n_bridge(&BridgeConfig::fixed()).unwrap(),
        ),
        (
            "at-most-N (1 lap)",
            at_most_n_bridge(&BridgeConfig::fixed().with_laps(Some(1))).unwrap(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_checkable_systems() {
        let composed = composed_pipe(
            SendPortKind::AsynBlocking,
            ChannelKind::Fifo { capacity: 2 },
            RecvPortKind::blocking(),
            2,
        );
        let fused = fused_pipe(FusedConnectorKind::AsyncFifo { capacity: 2 }, 2);
        let c = Checker::new(composed.program()).state_space_size().unwrap();
        let f = Checker::new(fused.program()).state_space_size().unwrap();
        assert!(f.unique_states < c.unique_states);
    }

    #[test]
    fn bridge_helpers_reproduce_verdicts() {
        let all = bridges();
        let (outcome, _) = verify_bridge(&all[0].1, true);
        assert!(!outcome.is_holds());
        let (outcome, _) = verify_bridge(&all[1].1, true);
        assert!(outcome.is_holds());
    }
}
