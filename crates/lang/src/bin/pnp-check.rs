//! `pnp-check` — verify a `.pnp` architecture specification.
//!
//! Usage:
//! `pnp-check FILE.pnp [--quiet] [--dot] [--sim STEPS [--seed N]]
//!  [--fault SPEC]... [--budget SPEC]`
//!
//! Compiles the specification, checks every declared property, prints one
//! line per property (plus explained counterexamples unless `--quiet`), and
//! exits nonzero if any property is violated. With `--dot` the architecture
//! diagram is printed as Graphviz dot instead; with `--sim STEPS` a random
//! execution is run and the final global values printed (no verification).
//!
//! Fault injection (`--fault`, repeatable) rewrites the parsed design
//! before compiling, without editing the source file:
//!
//! - `--fault CONN=lossy|duplicating|reordering` decorates connector
//!   `CONN`'s channel;
//! - `--fault CONN.PORT=crash_restart` turns the named send or receive
//!   port into its crash-restart variant.
//!
//! Budgets (`--budget states=N,time=MS,depth=D,mem=BYTES`; any subset of
//! keys) bound the search. A tripped budget reports INCONCLUSIVE with the
//! partial coverage and exits with code 3 — never a panic.
//!
//! Crash tolerance:
//!
//! - `--visited exact|compact|bitstate[:MB]|disk[:DIR]` selects the
//!   visited-set backend; the lossy backends (`compact`, `bitstate`) trade
//!   exactness for memory and report HOLDS (approx) with an omission
//!   estimate, while `disk` keeps the search exact by storing the visited
//!   set out of core (in scratch directory `DIR`, default a directory
//!   under the system temp dir that is removed when the search ends);
//! - `--spill-at MB` arms graceful degradation under memory pressure:
//!   when the search's estimated footprint crosses `MB` MiB it moves the
//!   visited set and frontier to disk *mid-run* instead of stopping
//!   INCONCLUSIVE (`0` spills immediately);
//! - `--checkpoint FILE` flushes search snapshots to `FILE` (periodically
//!   per `--checkpoint-every N` states, default 4096, and always when a
//!   budget trips or the run is interrupted with Ctrl-C);
//! - `--resume FILE` continues an interrupted run from a snapshot.
//!
//! Parallelism: `--threads N` (default 1) expands safety searches' states
//! on `N` threads. A safety search reports the same verdict,
//! counterexample and state count at any `N`. LTL properties run their
//! nested DFS on one thread at any `N`, so their output does not depend
//! on it. Checkpoints written at any thread count can be resumed at any
//! other.
//!
//! Remote verification: `--submit URL` sends the specification (with any
//! `--fault` rewrites applied) to a running `pnp-serve` daemon instead of
//! checking locally, polls until the job finishes, prints the result, and
//! maps the daemon's verdict onto the same exit codes as a local run
//! (0 passed, 1 violated, 2 failed, 3 inconclusive/cancelled). SIGINT or
//! SIGTERM during the wait cancels the remote job cooperatively.
//!
//! Submissions go through the retrying `pnp-net` client with a generated
//! idempotency key, so transient network failures — including ambiguous
//! ones where the daemon may already have admitted the job — retry
//! safely without double-submitting. Against a cluster coordinator,
//! `--workers N` requires at least `N` live workers (the submission is
//! shed with a retry hint otherwise) and `--tenant NAME` attributes the
//! job to a tenant for fair-share quotas.
//!
//! End-to-end deadline: `--deadline MS` bounds the *whole* verification.
//! Locally it clamps the kernel time budget; with `--submit` it travels
//! as `job_deadline_ms` so every dispatch, retry, and migration runs
//! under the shrinking remainder of the original envelope, and the
//! client's own poll loop gives up (exit 3) shortly after the budget
//! expires. Expiry is an honest INCONCLUSIVE with partial statistics,
//! never a hang.

use std::process::ExitCode;
use std::time::Duration;

use pnp_kernel::{
    cancel_on_termination, watch_termination, CancelToken, GenStore, SearchConfig, Snapshot,
    VisitedKind,
};
use pnp_lang::{ChannelFaultAst, Pos, SystemAst, VerifyOptions};
use pnp_net::{json_num, json_str, percent_encode, ClientError, RealTcp, SubmitClient};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pnp-check FILE.pnp [--quiet] [--dot] [--sim STEPS [--seed N]]\n\
         \u{20}                [--fault CONN=lossy|duplicating|reordering]\n\
         \u{20}                [--fault CONN.PORT=crash_restart]\n\
         \u{20}                [--budget states=N,time=MS,depth=D,mem=BYTES]\n\
         \u{20}                [--visited exact|compact|bitstate[:MB]|disk[:DIR]]\n\
         \u{20}                [--spill-at MB]\n\
         \u{20}                [--checkpoint FILE [--checkpoint-every N]]\n\
         \u{20}                [--resume FILE] [--threads N] [--deadline MS]\n\
         \u{20}                [--submit URL [--workers N] [--tenant NAME]]"
    );
    ExitCode::from(2)
}

/// Parses `--visited exact|compact|bitstate[:MB]|disk[:DIR]`, returning
/// the backend and, for `disk:DIR`, the scratch directory.
fn parse_visited(spec: &str) -> Result<(VisitedKind, Option<std::path::PathBuf>), String> {
    match spec {
        "exact" => Ok((VisitedKind::Exact, None)),
        "compact" => Ok((VisitedKind::Compact, None)),
        "bitstate" => Ok((
            VisitedKind::bitstate(VisitedKind::DEFAULT_BITSTATE_ARENA),
            None,
        )),
        "disk" => Ok((VisitedKind::DiskExact, None)),
        other => {
            if let Some(dir) = other.strip_prefix("disk:").filter(|d| !d.is_empty()) {
                return Ok((VisitedKind::DiskExact, Some(dir.into())));
            }
            let mb = other
                .strip_prefix("bitstate:")
                .and_then(|mb| mb.parse::<usize>().ok())
                .filter(|mb| *mb > 0)
                .ok_or_else(|| {
                    format!(
                        "--visited '{spec}': want exact, compact, bitstate[:MB] \
                         with MB a positive arena size in MiB, or disk[:DIR]"
                    )
                })?;
            Ok((VisitedKind::bitstate(mb << 20), None))
        }
    }
}

/// Applies one `--fault` specification to the parsed design.
fn apply_fault(ast: &mut SystemAst, spec: &str) -> Result<(), String> {
    let (target, fault) = spec
        .split_once('=')
        .ok_or_else(|| format!("--fault '{spec}': expected TARGET=FAULT"))?;
    if let Some((conn_name, port)) = target.split_once('.') {
        if fault != "crash_restart" {
            return Err(format!(
                "--fault '{spec}': port faults must be 'crash_restart'"
            ));
        }
        let conn = ast
            .connectors
            .iter_mut()
            .find(|c| c.name == conn_name)
            .ok_or_else(|| format!("--fault '{spec}': no connector '{conn_name}'"))?;
        let known = conn
            .sends
            .iter()
            .map(|(p, _, _)| p)
            .chain(conn.recvs.iter().map(|(p, _, _)| p))
            .any(|p| p == port);
        if !known {
            return Err(format!(
                "--fault '{spec}': connector '{conn_name}' has no port '{port}'"
            ));
        }
        if !conn.crash_ports.iter().any(|(p, _)| p == port) {
            conn.crash_ports
                .push((port.to_string(), Pos { line: 0, col: 0 }));
        }
        Ok(())
    } else {
        let decorator = match fault {
            "lossy" => ChannelFaultAst::Lossy,
            "duplicating" => ChannelFaultAst::Duplicating,
            "reordering" => ChannelFaultAst::Reordering,
            other => {
                return Err(format!(
                    "--fault '{spec}': unknown channel fault '{other}' \
                     (want lossy, duplicating, or reordering)"
                ))
            }
        };
        let conn = ast
            .connectors
            .iter_mut()
            .find(|c| c.name == target)
            .ok_or_else(|| format!("--fault '{spec}': no connector '{target}'"))?;
        conn.fault = Some(decorator);
        Ok(())
    }
}

/// Why each existing generation slot of `base` was refused (another
/// format version, damage), or `None` when there is no slot at all.
fn refused_generations(base: &str) -> Option<String> {
    let store = GenStore::new(pnp_kernel::real_fs(), base);
    let reasons: Vec<String> = store
        .slot_paths()
        .iter()
        .filter_map(|path| {
            let bytes = std::fs::read(path).ok()?;
            let why = match pnp_kernel::decode_generation(&bytes) {
                Ok((_, payload)) => Snapshot::decode(&payload).err()?.to_string(),
                Err(e) => e,
            };
            Some(format!("{}: {why}", path.display()))
        })
        .collect();
    (!reasons.is_empty()).then(|| reasons.join("; "))
}

/// Parses `--budget states=N,time=MS,depth=D,mem=BYTES` (any subset).
fn parse_budget(spec: &str) -> Result<SearchConfig, String> {
    let mut config = SearchConfig::default();
    for item in spec.split(',').filter(|s| !s.is_empty()) {
        let (key, value) = item
            .split_once('=')
            .ok_or_else(|| format!("--budget '{item}': expected KEY=VALUE"))?;
        let n: u64 = value
            .parse()
            .map_err(|_| format!("--budget '{item}': '{value}' is not a number"))?;
        match key {
            "states" => config.max_states = n as usize,
            "time" => config.max_time = Some(Duration::from_millis(n)),
            "depth" => config.max_depth = Some(n as usize),
            "mem" => config.max_memory_bytes = Some(n as usize),
            other => {
                return Err(format!(
                    "--budget '{spec}': unknown key '{other}' \
                     (want states, time, depth, or mem)"
                ))
            }
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        return usage();
    };
    let rest: Vec<String> = args.collect();
    let quiet = rest.iter().any(|a| a == "--quiet");
    let dot = rest.iter().any(|a| a == "--dot");
    let flag_value = |name: &str| -> Option<u64> {
        rest.iter()
            .position(|a| a == name)
            .and_then(|i| rest.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let sim_steps = flag_value("--sim");
    let seed = flag_value("--seed").unwrap_or(0);
    let fault_flags = rest.iter().filter(|a| *a == "--fault").count();
    let faults: Vec<&String> = rest
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--fault")
        .filter_map(|(i, _)| rest.get(i + 1))
        .collect();
    if faults.len() < fault_flags {
        eprintln!("pnp-check: --fault requires a value (TARGET=FAULT)");
        return ExitCode::from(2);
    }
    let flag_str = |name: &str| -> Result<Option<&String>, ExitCode> {
        let present = rest.iter().any(|a| a == name);
        let value = rest
            .iter()
            .position(|a| a == name)
            .and_then(|i| rest.get(i + 1));
        if present && value.is_none() {
            eprintln!("pnp-check: {name} requires a value");
            return Err(ExitCode::from(2));
        }
        Ok(value)
    };
    let budget = match flag_str("--budget") {
        Ok(v) => v,
        Err(code) => return code,
    };
    let visited_spec = match flag_str("--visited") {
        Ok(v) => v,
        Err(code) => return code,
    };
    let checkpoint_path = match flag_str("--checkpoint") {
        Ok(v) => v,
        Err(code) => return code,
    };
    let resume_path = match flag_str("--resume") {
        Ok(v) => v,
        Err(code) => return code,
    };
    let checkpoint_every = flag_value("--checkpoint-every").unwrap_or(4096) as usize;
    let threads = match flag_str("--threads") {
        Ok(None) => 1,
        Ok(Some(value)) => match value.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("pnp-check: --threads '{value}': want a worker count of at least 1");
                return ExitCode::from(2);
            }
        },
        Err(code) => return code,
    };
    let deadline_ms = match flag_str("--deadline") {
        Ok(None) => None,
        Ok(Some(value)) => match value.parse::<u64>() {
            Ok(ms) if ms >= 1 => Some(ms),
            _ => {
                eprintln!(
                    "pnp-check: --deadline '{value}': want a positive budget in milliseconds"
                );
                return ExitCode::from(2);
            }
        },
        Err(code) => return code,
    };
    let submit_url = match flag_str("--submit") {
        Ok(v) => v.cloned(),
        Err(code) => return code,
    };
    let submit_workers = match flag_str("--workers") {
        Ok(None) => None,
        Ok(Some(value)) => match value.parse::<u64>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("pnp-check: --workers '{value}': want a live-worker count of at least 1");
                return ExitCode::from(2);
            }
        },
        Err(code) => return code,
    };
    let tenant = match flag_str("--tenant") {
        Ok(v) => v.cloned(),
        Err(code) => return code,
    };
    if submit_url.is_none() && (submit_workers.is_some() || tenant.is_some()) {
        eprintln!("pnp-check: --workers/--tenant only apply with --submit URL");
        return ExitCode::from(2);
    }

    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pnp-check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut ast = match pnp_lang::parse_system(&source) {
        Ok(ast) => ast,
        Err(e) => {
            eprintln!("{path}:{e}");
            return ExitCode::from(2);
        }
    };
    for fault in &faults {
        if let Err(message) = apply_fault(&mut ast, fault) {
            eprintln!("pnp-check: {message}");
            return ExitCode::from(2);
        }
    }
    let mut config = match budget.map(|b| parse_budget(b)).transpose() {
        Ok(config) => config.unwrap_or_default(),
        Err(message) => {
            eprintln!("pnp-check: {message}");
            return ExitCode::from(2);
        }
    };
    let mut spill_dir = None;
    if let Some(spec) = visited_spec {
        match parse_visited(spec) {
            Ok((kind, dir)) => {
                config.visited = kind;
                spill_dir = dir;
            }
            Err(message) => {
                eprintln!("pnp-check: {message}");
                return ExitCode::from(2);
            }
        };
    }
    let spill_at = match flag_str("--spill-at") {
        Ok(None) => None,
        Ok(Some(value)) => match value.parse::<usize>() {
            Ok(mb) => Some(mb),
            Err(_) => {
                eprintln!("pnp-check: --spill-at '{value}': want a threshold in MiB (0 = spill immediately)");
                return ExitCode::from(2);
            }
        },
        Err(code) => return code,
    };
    if let Some(mb) = spill_at {
        config.spill_at_bytes = Some(mb << 20);
    }
    config.threads = threads;
    if let Some(ms) = deadline_ms {
        // The end-to-end budget doubles as the local time budget, so
        // expiry surfaces as INCONCLUSIVE with partial stats (exit 3).
        config.clamp_time(Duration::from_millis(ms));
    }
    let resume = match resume_path {
        // Prefer the double-buffered generations (`FILE.a`/`FILE.b`),
        // rolling back to the older slot when the newer one is damaged;
        // fall back to a legacy single-file snapshot at `FILE`.
        Some(file) => match pnp_kernel::load_latest_snapshot(&pnp_kernel::real_fs(), file) {
            Ok(Some((generation, snapshot))) => {
                println!(
                    "resuming property '{}' from {file} generation {generation} \
                     ({} states already covered)",
                    snapshot.tag(),
                    snapshot.states_covered()
                );
                Some(snapshot)
            }
            Ok(None) | Err(_) => match pnp_kernel::load_snapshot(file) {
                Ok(snapshot) => {
                    println!(
                        "resuming property '{}' from {file} ({} states already covered)",
                        snapshot.tag(),
                        snapshot.states_covered()
                    );
                    Some(snapshot)
                }
                Err(e) => {
                    let why = refused_generations(file).unwrap_or_else(|| e.to_string());
                    eprintln!("pnp-check: cannot resume from {file}: {why}");
                    return ExitCode::from(2);
                }
            },
        },
        None => None,
    };

    let spec = match pnp_lang::compile_ast(&ast) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{path}:{e}");
            return ExitCode::from(2);
        }
    };

    if let Some(url) = &submit_url {
        if checkpoint_path.is_some() || resume_path.is_some() {
            eprintln!(
                "pnp-check: --submit cannot combine with --checkpoint/--resume \
                 (the daemon manages snapshots)"
            );
            return ExitCode::from(2);
        }
        // The spec compiled locally, so the daemon will accept it; submit
        // the *printed* design so `--fault` rewrites travel with it.
        return submit_remote(
            url,
            &ast.to_string(),
            budget.map(String::as_str),
            visited_spec.map(String::as_str),
            spill_at,
            threads,
            submit_workers,
            tenant.as_deref(),
            deadline_ms,
        );
    }

    if dot {
        print!("{}", spec.system().to_dot());
        return ExitCode::SUCCESS;
    }

    if let Some(steps) = sim_steps {
        let program = spec.system().program();
        let mut sim = pnp_kernel::Simulator::new(program, seed);
        let report = match sim.run(steps as usize) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("pnp-check: simulation failed: {e}");
                return ExitCode::from(2);
            }
        };
        println!(
            "{path}: simulated {} steps (seed {seed}){}",
            report.steps,
            if report.deadlock {
                " — DEADLOCKED"
            } else if report.halted {
                " — halted (all processes done)"
            } else {
                ""
            }
        );
        for (i, (name, _)) in program.globals().iter().enumerate() {
            let value = sim.view().global(pnp_kernel::GlobalId::from_index(i));
            println!("  {name} = {value}");
        }
        return ExitCode::SUCCESS;
    }

    let program = spec.system().program();
    if let Some(snapshot) = &resume {
        // Refuse up front, rather than silently ignoring a snapshot whose
        // tag matches no property of this specification.
        if !snapshot.matches_program(program) {
            eprintln!(
                "pnp-check: cannot resume: snapshot belongs to a different program \
                 (program fingerprint {:#018x}, snapshot has {:#018x})",
                pnp_kernel::program_fingerprint(program),
                snapshot.fingerprint()
            );
            return ExitCode::from(2);
        }
        if !spec.properties().iter().any(|p| p.name() == snapshot.tag()) {
            eprintln!(
                "pnp-check: cannot resume: this specification declares no property '{}'",
                snapshot.tag()
            );
            return ExitCode::from(2);
        }
    }
    println!(
        "{path}: {} processes ({} connector parts, {} components), {} properties",
        program.processes().len(),
        spec.system().topology().connector_process_count(),
        spec.system().topology().component_count(),
        spec.properties().len()
    );
    if !faults.is_empty() {
        println!(
            "  injected faults: {}",
            faults
                .iter()
                .map(|f| f.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // SIGINT and SIGTERM share one path with the daemon's drain: the
    // kernel cancels cooperatively and flushes a final snapshot before
    // the search unwinds.
    let cancel = CancelToken::new();
    cancel_on_termination(cancel.clone());
    let options = VerifyOptions {
        config,
        cancel: Some(cancel),
        checkpoint: checkpoint_path.map(|p| (p.into(), checkpoint_every)),
        resume,
        checkpoint_sink: None,
        vfs: None,
        spill_dir,
    };
    let results = match spec.verify_all_with_options(&options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pnp-check: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failed = 0;
    let mut inconclusive = 0;
    for result in &results {
        println!("  {result}");
        let interesting = result.inconclusive || !result.holds || result.approx;
        if result.inconclusive {
            inconclusive += 1;
        } else if !result.holds {
            failed += 1;
        }
        if interesting && !quiet {
            for line in result.detail.lines() {
                println!("    {line}");
            }
        }
    }
    let spilled: usize = results.iter().map(|r| r.spilled_states).sum();
    if spilled > 0 {
        // One line of memory-pressure context; verdict lines stay
        // byte-identical to an in-memory run.
        println!(
            "spilled {spilled} states to disk ({} bytes, {} merge passes)",
            results.iter().map(|r| r.spill_bytes).sum::<usize>(),
            results.iter().map(|r| r.merge_passes).sum::<usize>(),
        );
    }
    if inconclusive > 0 {
        if let Some((path, _)) = &options.checkpoint {
            println!(
                "checkpoint flushed to {}; resume with --resume {}",
                path.display(),
                path.display()
            );
        }
    }
    if failed == 0 && inconclusive == 0 {
        println!("all {} properties hold", results.len());
        ExitCode::SUCCESS
    } else if failed > 0 {
        println!("{failed} of {} properties violated", results.len());
        ExitCode::FAILURE
    } else {
        println!(
            "{inconclusive} of {} properties inconclusive (budget exhausted or interrupted)",
            results.len()
        );
        ExitCode::from(3)
    }
}

/// Submits the printed design to a `pnp-serve` daemon (single-node or
/// cluster coordinator) through the retrying [`SubmitClient`], waits for
/// the verdict (cancelling the remote job on SIGINT/SIGTERM), and maps
/// it to the local exit codes. Shed submissions (503) and network
/// failures that outlast the client's retries exit 3: both conditions
/// are transient and the caller should retry after the hinted delay —
/// the generated idempotency key makes resubmission safe even when the
/// first attempt's fate is unknown.
#[allow(clippy::too_many_arguments)]
fn submit_remote(
    url: &str,
    source: &str,
    budget: Option<&str>,
    visited: Option<&str>,
    spill_at: Option<usize>,
    threads: usize,
    workers: Option<u64>,
    tenant: Option<&str>,
    deadline_ms: Option<u64>,
) -> ExitCode {
    let Some(host) = url
        .strip_prefix("http://")
        .map(|rest| rest.trim_end_matches('/'))
        .filter(|h| !h.is_empty())
    else {
        eprintln!("pnp-check: --submit wants an http://HOST:PORT URL");
        return ExitCode::from(2);
    };
    let mut query = Vec::new();
    if let Some(b) = budget {
        query.push(format!("budget={}", percent_encode(b)));
    }
    if let Some(v) = visited {
        // Only the backend travels: the daemon assigns its own scratch
        // directory, so a local `disk:DIR` path is stripped.
        let backend = if v.starts_with("disk") { "disk" } else { v };
        query.push(format!("visited={}", percent_encode(backend)));
    }
    if let Some(mb) = spill_at {
        query.push(format!("spill_at={mb}"));
    }
    if threads > 1 {
        query.push(format!("threads={threads}"));
    }
    if let Some(n) = workers {
        query.push(format!("workers={n}"));
    }
    if let Some(t) = tenant {
        query.push(format!("tenant={}", percent_encode(t)));
    }
    if let Some(ms) = deadline_ms {
        query.push(format!("job_deadline_ms={ms}"));
    }

    let mut client = SubmitClient::new(RealTcp::default());
    // Unique per invocation: retries of *this* submission deduplicate on
    // the daemon, while a deliberate re-run submits a fresh job.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    client.idem_key = Some(format!("check-{}-{nanos:x}", std::process::id()));

    let id = match client.submit(host, source, &query.join("&")) {
        Ok(outcome) => outcome.id,
        Err(error @ ClientError::Retryable { .. }) => {
            eprintln!("pnp-check: {error}");
            return ExitCode::from(3);
        }
        Err(ClientError::Fatal(reason)) => {
            eprintln!("pnp-check: {reason}");
            return ExitCode::from(2);
        }
    };
    println!("submitted as {id} to {host}");

    let term = watch_termination();
    let mut cancel_sent = false;
    let mut unreachable_polls = 0u32;
    let started = std::time::Instant::now();
    // Give the daemon a short grace past the job deadline to finalize
    // its own expiry (an INCONCLUSIVE with partial stats) before the
    // client walks away.
    let poll_budget = deadline_ms.map(|ms| Duration::from_millis(ms) + Duration::from_secs(5));
    loop {
        if poll_budget.is_some_and(|limit| started.elapsed() >= limit) {
            eprintln!(
                "pnp-check: deadline exceeded waiting for {id}; \
                 the job expires server-side — result stays at /jobs/{id}/result"
            );
            return ExitCode::from(3);
        }
        if term.is_raised() && !cancel_sent {
            println!(
                "pnp-check: {} — cancelling remote job {id}",
                term.signal_name().unwrap_or("signal")
            );
            let _ = client.cancel(host, &id);
            cancel_sent = true;
        }
        match client.poll_result(host, &id) {
            Ok(Some(body)) => {
                println!("{body}");
                let verdict = json_str(&body, "verdict").unwrap_or_else(|| "unknown".into());
                let attempts = json_num(&body, "attempts").unwrap_or(0);
                println!("remote verdict: {verdict} (after {attempts} attempt(s))");
                let code = json_num(&body, "exit_code").unwrap_or(2);
                return ExitCode::from(u8::try_from(code).unwrap_or(2));
            }
            Ok(None) => {
                unreachable_polls = 0;
                std::thread::sleep(Duration::from_millis(100));
            }
            // Polls are idempotent, so ride out a restarting daemon (a
            // coordinator fail-over restores the job set from its state
            // directory) — but give up once it stays dark for ~30 s.
            // Overload sheds carry a Retry-After hint; honor it.
            Err(ClientError::Retryable {
                reason,
                retry_after_ms,
            }) => {
                unreachable_polls += 1;
                if unreachable_polls >= 30 {
                    eprintln!("pnp-check: {reason}; giving up — job {id} is still remote");
                    return ExitCode::from(3);
                }
                std::thread::sleep(Duration::from_millis(retry_after_ms.unwrap_or(1000)));
            }
            Err(ClientError::Fatal(reason)) => {
                eprintln!("pnp-check: {reason}");
                return ExitCode::from(2);
            }
        }
    }
}
