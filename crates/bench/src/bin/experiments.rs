//! Regenerates every experiment table of the PnP reproduction.
//!
//! Run with: `cargo run --release -p pnp-bench --bin experiments`
//!
//! The output of this binary is what `EXPERIMENTS.md` records (state
//! counts, verdicts, trace lengths, throughput, ablations). Timings vary by
//! machine; everything else is deterministic.

use std::time::Instant;

use pnp_bench::{
    bridges, composed_pipe, fault_pipes, fused_pipe, verify_bridge, verify_bridge_threads,
    verify_bridge_with_backend, verify_deadlock_threads,
};
use pnp_bridge::{at_most_n_bridge, crossings_in, exactly_n_bridge, BridgeConfig};
use pnp_core::{ChannelKind, FusedConnectorKind, RecvPortKind, SendPortKind, SystemBuilder};
use pnp_kernel::{Checker, SafetyChecks, SafetyOutcome, VisitedKind};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    e6_e7_e8_bridge_verdicts();
    e2_connector_swap_costs();
    e9_throughput();
    e10_model_reuse();
    e11_fused_vs_composed();
    e14_scaling(full);
    por_ablation();
    fault_costs();
    visited_backends();
    e15_parallel_scaling();
    e16_service_soak();
}

fn e16_service_soak() {
    use pnp_serve::job::{Chaos, JobConfig, JobRequest};
    use pnp_serve::supervisor::{ServeConfig, Supervisor};

    println!("== E16: supervised verification service — soak ==");
    const SPEC: &str = "system {\n    global total = 0;\n\
        component a { var c = 0; state w, d; end d;\n\
            from w if c < 8 do c = c + 1 goto w;\n\
            from w if c >= 8 do total = total + 1 goto d; }\n\
        component b { var c = 0; state w, d; end d;\n\
            from w if c < 8 do c = c + 1 goto w;\n\
            from w if c >= 8 do total = total + 1 goto d; }\n\
        component c { var c = 0; state w, d; end d;\n\
            from w if c < 8 do c = c + 1 goto w;\n\
            from w if c >= 8 do total = total + 1 goto d; }\n\
        property totals: invariant total <= 3;\n}";

    let state_dir = std::env::temp_dir().join(format!("pnp-e16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = ServeConfig {
        workers: 3,
        backoff_base: std::time::Duration::from_millis(5),
        backoff_cap: std::time::Duration::from_millis(25),
        checkpoint_every: 64,
        state_dir: state_dir.clone(),
        ..ServeConfig::default()
    };
    let supervisor = Supervisor::start(config).expect("service starts");

    let budgeted = {
        let mut c = JobConfig::default();
        c.config.max_states = 100;
        c
    };
    let profiles: [(&str, JobConfig, usize); 4] = [
        ("clean", JobConfig::default(), 8),
        (
            "panic once, resume",
            JobConfig {
                chaos: Some(Chaos::PanicOnFlush {
                    flush: 3,
                    attempts: 1,
                }),
                ..JobConfig::default()
            },
            8,
        ),
        (
            "panic storm",
            JobConfig {
                chaos: Some(Chaos::PanicOnFlush {
                    flush: 1,
                    attempts: 99,
                }),
                max_attempts: Some(3),
                ..JobConfig::default()
            },
            4,
        ),
        ("over budget", budgeted, 4),
    ];

    println!(
        "{:<22} {:>5} {:>14} {:>10} {:>9}",
        "profile", "jobs", "verdict", "attempts", "time"
    );
    let t0 = Instant::now();
    for (label, job_config, count) in &profiles {
        let p0 = Instant::now();
        let ids: Vec<_> = (0..*count)
            .map(|_| {
                supervisor
                    .submit(JobRequest::new(SPEC.to_string(), *job_config))
                    .expect("soak stays under the admission watermark")
            })
            .collect();
        let mut verdicts = std::collections::BTreeMap::new();
        let mut attempts = 0u32;
        for id in ids {
            let verdict = supervisor
                .wait_done(id, std::time::Duration::from_secs(120))
                .expect("soak job finishes");
            *verdicts.entry(verdict.as_str()).or_insert(0u32) += 1;
            attempts += supervisor.attempts(id).unwrap_or(0);
        }
        let summary: Vec<String> = verdicts.iter().map(|(v, n)| format!("{n} {v}")).collect();
        println!(
            "{:<22} {:>5} {:>14} {:>10} {:>8.2?}",
            label,
            count,
            summary.join(", "),
            attempts,
            p0.elapsed()
        );
    }
    let stats = supervisor.stats();
    println!(
        "service counters: submitted {} | completed {} | retries {} | \
         panics caught {} | workers replaced {} | shed {}",
        stats.submitted,
        stats.completed,
        stats.retries,
        stats.panics_caught,
        stats.workers_replaced,
        stats.shed
    );
    println!(
        "soak wall clock: {:.2?} for {} jobs\n",
        t0.elapsed(),
        profiles.iter().map(|(_, _, n)| n).sum::<usize>()
    );
    supervisor.drain();
    let _ = std::fs::remove_dir_all(&state_dir);
}

fn e15_parallel_scaling() {
    println!("== E15: parallel safety search — thread scaling ==");
    println!("(host has {} CPU(s) available)", available_cpus());
    println!(
        "{:<34} {:>8} {:>10} {:>10} {:>9} {:>8}",
        "model", "threads", "verdict", "states", "time", "speedup"
    );
    let bridge = exactly_n_bridge(&BridgeConfig::fixed().with_cars(2, 1).with_laps(Some(1)))
        .expect("fixed bridge builds");
    let mut base = None;
    for threads in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let (outcome, stats) = verify_bridge_threads(&bridge, threads);
        let elapsed = t0.elapsed();
        let base_time = *base.get_or_insert(elapsed);
        println!(
            "{:<34} {:>8} {:>10} {:>10} {:>8.2?} {:>7.2}x",
            "bridge fixed (2+1 cars, 1 lap)",
            threads,
            if outcome.is_holds() { "SAFE" } else { "UNSAFE" },
            stats.unique_states,
            elapsed,
            base_time.as_secs_f64() / elapsed.as_secs_f64()
        );
    }
    for (label, system) in fault_pipes(3) {
        let mut base = None;
        for threads in [1usize, 2, 4, 8] {
            let t0 = Instant::now();
            let (outcome, stats) = verify_deadlock_threads(&system, threads);
            let elapsed = t0.elapsed();
            let base_time = *base.get_or_insert(elapsed);
            println!(
                "{:<34} {:>8} {:>10} {:>10} {:>8.2?} {:>7.2}x",
                format!("{label} pipe (3 msgs)"),
                threads,
                if outcome.trace().is_some() {
                    "UNSAFE"
                } else {
                    "SAFE"
                },
                stats.unique_states,
                elapsed,
                base_time.as_secs_f64() / elapsed.as_secs_f64()
            );
        }
    }
    println!(
        "(states are identical at every thread count — only the expansions run on several \
         threads; speedup is wall-clock vs the 1-thread row on this host)"
    );
    println!();
}

/// Number of CPUs the process may actually run on (the scheduler
/// affinity mask bounds any parallel speedup measured above).
fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn visited_backends() {
    println!("== Visited-set backends — memory vs coverage on the fixed bridge ==");
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>14} {:>10}",
        "backend", "verdict", "states", "est. memory", "omission prob", "time"
    );
    let system = exactly_n_bridge(&BridgeConfig::fixed().with_cars(2, 1).with_laps(Some(1)))
        .expect("fixed bridge builds");
    for (label, kind) in [
        ("exact", VisitedKind::Exact),
        ("compact (64-bit)", VisitedKind::Compact),
        ("bitstate (1 MiB)", VisitedKind::bitstate(1 << 20)),
    ] {
        let t0 = Instant::now();
        let (outcome, stats) = verify_bridge_with_backend(&system, kind);
        let (verdict, omission) = match &outcome {
            SafetyOutcome::Holds => ("SAFE", "0".to_string()),
            SafetyOutcome::HoldsApprox {
                omission_probability,
                ..
            } => ("SAFE*", format!("{omission_probability:.2e}")),
            o => (
                "UNSAFE",
                o.trace()
                    .map(|t| format!("trace {}", t.len()))
                    .unwrap_or_default(),
            ),
        };
        println!(
            "{:<22} {:>10} {:>10} {:>12} {:>14} {:>9.2?}",
            label,
            verdict,
            stats.unique_states,
            format!("{} KiB", stats.approx_memory_bytes / 1024),
            omission,
            t0.elapsed()
        );
    }
    println!("(SAFE* = holds modulo hashing: lossy backend, estimated omission probability shown)");
    println!();
}

fn fault_costs() {
    println!("== Fault injection — verification cost under each fault kind ==");
    println!(
        "{:<26} {:>12} {:>10}",
        "pipe variant (2 msgs)", "states", "time"
    );
    for (label, system) in fault_pipes(2) {
        let t0 = Instant::now();
        let stats = Checker::new(system.program()).state_space_size().unwrap();
        println!(
            "{:<26} {:>12} {:>9.2?}",
            label,
            stats.unique_states,
            t0.elapsed()
        );
    }
    println!();
}

fn e6_e7_e8_bridge_verdicts() {
    println!("== E6/E7/E8 — bridge designs: verdicts and state spaces ==");
    println!(
        "{:<22} {:>10} {:>10} {:>14} {:>10}",
        "design", "verdict", "states", "trace (steps)", "time"
    );
    for (name, system) in bridges() {
        let t0 = Instant::now();
        let (outcome, stats) = verify_bridge(&system, true);
        let (verdict, trace_len) = match &outcome {
            SafetyOutcome::Holds => ("SAFE", "-".to_string()),
            o => (
                "UNSAFE",
                o.trace().map(|t| t.len().to_string()).unwrap_or_default(),
            ),
        };
        println!(
            "{:<22} {:>10} {:>10} {:>14} {:>9.2?}",
            name,
            verdict,
            stats.unique_states,
            trace_len,
            t0.elapsed()
        );
    }
    println!();
}

fn e2_connector_swap_costs() {
    println!("== E2 — plug-and-play swaps: re-verification after one block change ==");
    println!("{:<52} {:>10} {:>10}", "composition", "states", "verdict");
    let channel = ChannelKind::Fifo { capacity: 2 };
    for send in SendPortKind::ALL {
        let system = composed_pipe(send, channel, RecvPortKind::blocking(), 2);
        let report = Checker::new(system.program())
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        println!(
            "{:<52} {:>10} {:>10}",
            format!("{} -> FIFO(2) -> BlRecv(remove)", send.name()),
            report.stats.unique_states,
            if report.outcome.is_holds() {
                "ok"
            } else {
                "FAIL"
            }
        );
    }
    for ch in [
        ChannelKind::SingleSlot,
        ChannelKind::Fifo { capacity: 4 },
        ChannelKind::Priority { capacity: 2 },
        ChannelKind::Dropping { capacity: 2 },
    ] {
        let system = composed_pipe(SendPortKind::AsynBlocking, ch, RecvPortKind::blocking(), 2);
        let report = Checker::new(system.program())
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        println!(
            "{:<52} {:>10} {:>10}",
            format!("AsynBlockingSend -> {} -> BlRecv(remove)", ch.name()),
            report.stats.unique_states,
            if report.outcome.is_holds() {
                "ok"
            } else {
                "FAIL"
            }
        );
    }
    println!();
}

fn e9_throughput() {
    println!("== E9 — traffic throughput, 20000 scheduler steps, mean of 5 seeds ==");
    println!(
        "{:<22} {:>12} {:>12}",
        "traffic (blue/red)", "exactly-N", "at-most-N"
    );
    for (blue, red) in [(1usize, 1usize), (1, 0)] {
        let cfg = BridgeConfig::fixed().with_cars(blue, red).with_laps(None);
        let strict = exactly_n_bridge(&cfg).unwrap();
        let flexible = at_most_n_bridge(&cfg).unwrap();
        let mean = |system: &pnp_core::System| -> f64 {
            (0..5)
                .map(|seed| {
                    let (b, r) = crossings_in(system.program(), 20_000, seed).unwrap();
                    (b + r) as f64
                })
                .sum::<f64>()
                / 5.0
        };
        println!(
            "{:<22} {:>12.1} {:>12.1}",
            format!("{blue} blue / {red} red"),
            mean(&strict),
            mean(&flexible)
        );
    }
    println!();
}

fn e10_model_reuse() {
    println!("== E10 — model-construction reuse: full rebuild vs one-block swap ==");
    // Full: construct components + connectors from scratch, N times.
    let iterations = 200;
    let t0 = Instant::now();
    for _ in 0..iterations {
        let system = exactly_n_bridge(&BridgeConfig::buggy()).unwrap();
        std::hint::black_box(system);
    }
    let scratch = t0.elapsed();

    // Reuse: keep the builder (components already constructed), swap the
    // channel kind and re-instantiate.
    let mut sys = SystemBuilder::new();
    let _g = sys.global("g", 0);
    let conn = sys.connector("wire", ChannelKind::Fifo { capacity: 2 });
    let tx = sys.send_port(conn, SendPortKind::AsynBlocking);
    let rx = sys.recv_port(conn, RecvPortKind::blocking());
    pnp_bench::pipe_components(&mut sys, &tx, &rx, 3);
    let t0 = Instant::now();
    for i in 0..iterations {
        let kind = if i % 2 == 0 {
            SendPortKind::SynBlocking
        } else {
            SendPortKind::AsynBlocking
        };
        sys.set_send_port_kind(&tx, kind);
        let system = sys.build().unwrap();
        std::hint::black_box(system);
    }
    let reuse = t0.elapsed();
    println!("full reconstruction x{iterations}: {scratch:?}");
    println!("swap-and-rebuild    x{iterations}: {reuse:?}");
    println!();
}

fn e11_fused_vs_composed() {
    println!("== E11 — Section 6 ablation: composed blocks vs fused connector ==");
    println!("{:<46} {:>10} {:>10}", "connector", "states", "time");
    for messages in [2usize, 3] {
        let composed = composed_pipe(
            SendPortKind::AsynBlocking,
            ChannelKind::Fifo { capacity: 2 },
            RecvPortKind::blocking(),
            messages,
        );
        let fused = fused_pipe(FusedConnectorKind::AsyncFifo { capacity: 2 }, messages);
        for (label, system) in [
            (format!("composed async fifo ({messages} msgs)"), composed),
            (format!("fused async fifo ({messages} msgs)"), fused),
        ] {
            let t0 = Instant::now();
            let stats = Checker::new(system.program()).state_space_size().unwrap();
            println!(
                "{:<46} {:>10} {:>9.2?}",
                label,
                stats.unique_states,
                t0.elapsed()
            );
        }
    }
    println!();
}

fn e14_scaling(full: bool) {
    println!("== E14 — verification cost scaling (exactly-N fixed bridge) ==");
    println!("{:<26} {:>12} {:>10}", "parameter", "states", "time");
    for laps in [1, 2, 3] {
        let system = exactly_n_bridge(&BridgeConfig::fixed().with_laps(Some(laps))).unwrap();
        let t0 = Instant::now();
        let (_, stats) = verify_bridge(&system, true);
        println!(
            "{:<26} {:>12} {:>9.2?}",
            format!("laps = {laps}"),
            stats.unique_states,
            t0.elapsed()
        );
    }
    if full {
        for (blue, red, n) in [(2usize, 2usize, 1i32), (2, 2, 2)] {
            let cfg = BridgeConfig::fixed()
                .with_cars(blue, red)
                .with_cars_per_turn(n)
                .with_laps(Some(1));
            let system = exactly_n_bridge(&cfg).unwrap();
            let t0 = Instant::now();
            let (_, stats) = verify_bridge(&system, true);
            println!(
                "{:<26} {:>12} {:>9.2?}",
                format!("cars {blue}+{red}, N = {n}"),
                stats.unique_states,
                t0.elapsed()
            );
        }
    }
    for capacity in [1usize, 2, 4] {
        let cfg = BridgeConfig {
            enter_channel: ChannelKind::Fifo { capacity },
            ..BridgeConfig::fixed().with_laps(Some(1))
        };
        let system = exactly_n_bridge(&cfg).unwrap();
        let t0 = Instant::now();
        let (_, stats) = verify_bridge(&system, true);
        println!(
            "{:<26} {:>12} {:>9.2?}",
            format!("enter FIFO capacity = {capacity}"),
            stats.unique_states,
            t0.elapsed()
        );
    }
    println!();
}

fn por_ablation() {
    println!("== POR ablation — partial-order reduction on the fixed bridge ==");
    println!("{:<26} {:>12} {:>10}", "reduction", "states", "time");
    let system = exactly_n_bridge(&BridgeConfig::fixed().with_laps(Some(1))).unwrap();
    for (label, por) in [("off (full)", false), ("on (ample sets)", true)] {
        let t0 = Instant::now();
        let (_, stats) = verify_bridge(&system, por);
        println!(
            "{:<26} {:>12} {:>9.2?}",
            label,
            stats.unique_states,
            t0.elapsed()
        );
    }
    println!();
}
