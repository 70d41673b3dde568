//! `service_small`: a closed loop of clients against a `pnp-serve` daemon
//! over loopback HTTP. Each client submits a tiny spec, long-polls its
//! status with `?wait=`, then fetches the result, and only then submits
//! the next. The kernel takes well under a millisecond of a job; the rest
//! is the service layer, which the `bridge_*` workloads never touch.
//!
//! The daemon is this benchmark's own executable started in `daemon`
//! mode: `Supervisor::start` over the default `ServeConfig` and the
//! `pnp_serve::serve` accept loop, which is what `pnp-serve` runs for a
//! single node. It runs as a child process, is stopped with SIGTERM (the
//! daemon's graceful drain) and waited for.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pnp_kernel::{watch_termination, SplitMix64};
use pnp_lang::PropertyResult;
use pnp_serve::job::{JobConfig, JobRequest};
use pnp_serve::json::find_num;
use pnp_serve::supervisor::{ServeConfig, Supervisor};

use super::{check_verdicts, Run, Setup, SETUP_SLOTS};
use crate::report::Report;
use crate::specs::{render, Prepared, SERVICE_SPECS};
use crate::stats::Summary;
use crate::trace;

/// Daemon starts (spawn to listening) measured on the traced run; the
/// median is `serve.daemon_start_ms`. It is not part of `setup_s`:
/// starting a process varied by half between runs on a 2-vCPU virtual
/// machine.
const DAEMON_STARTS: usize = 15;
/// Clients in the closed loop, at most the number of CPUs.
const CLIENTS: usize = 2;
/// The long-poll window a client asks for.
const WAIT_MS: u64 = 10_000;
/// In-process supervisor jobs on the traced run, for `serve.supervisor_ms`.
const SUPERVISOR_JOBS: usize = 40;
/// Verifications of the four specs in each set-up block, for `verify_s`.
const LOCAL_REPS: usize = 25;

/// Where a run keeps daemon state: inside the working directory, removed
/// when the daemon has stopped.
fn state_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("serve-{}-{tag}", std::process::id()))
}

/// The `daemon` mode: serves until SIGTERM. Prints the bound port on the
/// first line of standard output once the listener accepts connections.
pub fn daemon(state_dir: &Path) -> ExitCode {
    let term = watch_termination();
    let config = ServeConfig {
        state_dir: state_dir.to_path_buf(),
        ..ServeConfig::default()
    };
    let supervisor = match Supervisor::start(config) {
        Ok(supervisor) => Arc::new(supervisor),
        Err(error) => {
            eprintln!("daemon: cannot start: {error}");
            return ExitCode::from(2);
        }
    };
    let listener = match TcpListener::bind("127.0.0.1:0").and_then(|l| {
        let port = l.local_addr()?.port();
        Ok((l, port))
    }) {
        Ok(bound) => bound,
        Err(error) => {
            eprintln!("daemon: cannot listen: {error}");
            return ExitCode::from(2);
        }
    };
    let (listener, port) = listener;
    println!("{port}");
    if std::io::stdout().flush().is_err() {
        return ExitCode::from(2);
    }
    match pnp_serve::serve(listener, supervisor, term) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("daemon: {error}");
            ExitCode::from(2)
        }
    }
}

/// A running daemon child process.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Result<Daemon, String> {
        let dir = state_dir(tag);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let port = match (read, line.trim().parse::<u16>()) {
            (Some(Ok(_)), Ok(port)) => port,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not report its port: {line:?}"));
            }
        };
        Ok(Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            dir,
        })
    }

    /// SIGTERM, then wait: the daemon drains and exits.
    fn stop(mut self) -> Result<(), String> {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        let pid = i32::try_from(self.child.id()).map_err(|e| e.to_string())?;
        // SAFETY: kill(2) only sends a signal; it takes no pointers. The
        // pid is our own child, which has not been waited for, so it
        // cannot have been reused.
        let sent = unsafe { kill(pid, SIGTERM) } == 0;
        if !sent {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        match status.success() {
            true => Ok(()),
            false => Err(format!("daemon exited with {status}")),
        }
    }
}

impl Drop for Daemon {
    /// Never leaves the daemon behind, even when the run fails before
    /// [`Daemon::stop`]; after a stop both calls are no-ops.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {response:?}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, body)| body.to_string());
    Ok((status, body))
}

/// The raw value of `"key":` in a flat JSON object.
fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = &object[object.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Whether a result body reports exactly `expected`: the same properties
/// with the same verdicts and state counts.
fn matches_local(body: &str, expected: &[PropertyResult]) -> bool {
    let objects: Vec<&str> = body.split("{\"name\":").skip(1).collect();
    objects.len() == expected.len()
        && objects.iter().zip(expected).all(|(object, local)| {
            let object = format!("{{\"name\":{object}");
            field(&object, "name") == Some(local.name.as_str())
                && field(&object, "holds") == Some(if local.holds { "true" } else { "false" })
                && field(&object, "inconclusive") == Some("false")
                && field(&object, "states") == Some(local.states.to_string().as_str())
        })
}

/// What one job through the daemon came to.
struct Job {
    latency_s: f64,
    ok: Result<u32, String>,
}

/// Submits, long-polls and fetches one job. `Ok(attempts)` when the
/// result matches `expected`.
fn one_job(addr: SocketAddr, text: &str, expected: &[PropertyResult]) -> Result<u32, String> {
    let (status, body) = {
        let _span = trace::span("http.submit");
        http(addr, "POST", "/jobs", text)?
    };
    if status != 202 {
        return Err(format!("submit answered {status}: {body}"));
    }
    let id = field(&body, "id")
        .ok_or("submit answer has no id")?
        .to_string();
    let (status, body) = {
        let _span = trace::span("http.wait");
        http(addr, "GET", &format!("/jobs/{id}?wait={WAIT_MS}"), "")?
    };
    if status != 200 || field(&body, "phase") != Some("done") {
        return Err(format!("job {id} not done after the long poll: {body}"));
    }
    let (status, body) = {
        let _span = trace::span("http.result");
        http(addr, "GET", &format!("/jobs/{id}/result"), "")?
    };
    if status != 200 || !matches_local(&body, expected) {
        return Err(format!(
            "job {id} result differs from local verify_all: {body}"
        ));
    }
    Ok(find_num(&body, "attempts").unwrap_or(0) as u32)
}

/// The closed loop: `clients` threads, each with its own seeded order of
/// the specs, submitting until `budget` has passed. The loop runs in
/// segments of `segment`; between two, with no job in flight, the
/// set-up blocks that fell due are measured, so that they do not share
/// the CPUs with the daemon. Returns every job and the time the clients
/// were submitting.
fn closed_loop(
    addr: SocketAddr,
    jobs: &[(String, Vec<PropertyResult>)],
    clients: usize,
    rng: &mut SplitMix64,
    (budget, segment): (Duration, Duration),
    (setup, prepared): (&mut Setup<'_>, &[Prepared]),
) -> Result<(Vec<Job>, f64), String> {
    let orders: Vec<Vec<usize>> = (0..clients)
        .map(|_| {
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_index(i + 1));
            }
            order
        })
        .collect();
    let next_request = AtomicU64::new(1);
    let done = Mutex::new(Vec::new());
    // Where each client is in its order, kept across segments.
    let mut positions = vec![0; clients];
    let mut wall = 0.0;
    while wall < budget.as_secs_f64() {
        let start = Instant::now();
        let deadline = start + segment.min(budget.saturating_sub(Duration::from_secs_f64(wall)));
        std::thread::scope(|scope| {
            for (order, position) in orders.iter().zip(&mut positions) {
                let (next_request, done) = (&next_request, &done);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        trace::set_request(next_request.fetch_add(1, Ordering::Relaxed));
                        let (text, expected) = &jobs[order[*position % order.len()]];
                        *position += 1;
                        let begin = Instant::now();
                        let ok = {
                            let _span = trace::span("job");
                            one_job(addr, text, expected)
                        };
                        mine.push(Job {
                            latency_s: begin.elapsed().as_secs_f64(),
                            ok,
                        });
                    }
                    done.lock().expect("no client panics").extend(mine);
                });
            }
        });
        wall += start.elapsed().as_secs_f64();
        setup.catch_up(prepared)?;
    }
    Ok((done.into_inner().expect("no client panics"), wall))
}

/// Runs the workload.
///
/// # Errors
///
/// A spec that fails to compile, a daemon that will not start or stop,
/// or a broken model.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut rng = run.rng();
    let texts: Vec<String> = SERVICE_SPECS
        .iter()
        .map(|(_, text)| render(text, &mut rng))
        .collect();
    let mut report = Report::default();

    let text_refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    // Set-up blocks run between segments of the closed loop: measured
    // back to back before or after it, the same set-ups read up to half
    // apart between runs, and measured while jobs are in flight, they
    // share the CPUs with the daemon.
    let (mut setup, prepared) = Setup::start(run, &text_refs, LOCAL_REPS)?;

    // The known answers: every property of the four specs holds.
    let mut jobs = Vec::new();
    for ((name, _), (text, p)) in SERVICE_SPECS.iter().zip(texts.iter().zip(&prepared)) {
        let expected: Vec<(&str, bool)> = p
            .spec
            .properties()
            .iter()
            .map(|q| (q.name(), true))
            .collect();
        let local = check_verdicts(&mut report, name, p.spec.verify_all(), &expected);
        jobs.push((text.clone(), local));
    }

    let clients = CLIENTS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let daemon = Daemon::start("loop")?;
    let segment = run.budget / SETUP_SLOTS as u32;
    let (plain, plain_wall, traced) = if run.traced {
        let half = (run.budget / 2, segment);
        let (plain, _) = closed_loop(
            daemon.addr,
            &jobs,
            clients,
            &mut rng,
            half,
            (&mut setup, &prepared),
        )?;
        trace::set_enabled(true);
        let (traced, _) = closed_loop(
            daemon.addr,
            &jobs,
            clients,
            &mut rng,
            half,
            (&mut setup, &prepared),
        )?;
        trace::set_enabled(false);
        (plain, 0.0, traced)
    } else {
        let whole = (run.budget, segment);
        let (plain, wall) = closed_loop(
            daemon.addr,
            &jobs,
            clients,
            &mut rng,
            whole,
            (&mut setup, &prepared),
        )?;
        (plain, wall, Vec::new())
    };
    let health = http(daemon.addr, "GET", "/health", "").map(|(_, body)| body);
    let daemon_rss = super::peak_rss_mb(&daemon.child.id().to_string());
    daemon.stop()?;
    let (health, daemon_rss) = (health?, daemon_rss?);
    let local_s = setup.finish(&mut report, &prepared)?;

    let mut attempts = Vec::new();
    for job in plain.iter().chain(&traced) {
        match &job.ok {
            Ok(n) => {
                attempts.push(f64::from(*n));
                report.check(true, String::new);
            }
            Err(why) => report.check(false, || why.clone()),
        }
    }
    report.check(!plain.is_empty(), || "no job completed".into());
    // Latency and throughput count completed jobs; a failed or shed job
    // is counted above, as a failure.
    let latencies = |jobs: &[Job]| -> Option<Summary> {
        let done: Vec<f64> = jobs
            .iter()
            .filter(|j| j.ok.is_ok())
            .map(|j| j.latency_s * 1e3)
            .collect();
        Summary::new(&done)
    };

    if !run.traced {
        let latency = latencies(&plain).ok_or("no job completed")?;
        let tail = latency.tail();
        report.set("job_latency_p50_ms", latency.median());
        report.set("job_latency_tail_ms", tail.value);
        report.set("jobs_per_s", latency.count() as f64 / plain_wall);
        report.set("peak_rss_mb", daemon_rss);
        report.notes.push(format!(
            "job_latency: {} jobs from {clients} clients; tail is p{:.1} with {} beyond",
            latency.count(),
            tail.percentile,
            tail.beyond
        ));
        report.set(
            "verify_s",
            Summary::new(&local_s)
                .ok_or("no local verification")?
                .median(),
        );
        return Ok(report);
    }

    let spans = trace::recorded();
    let seconds = |jobs: &[Job]| jobs.iter().map(|j| j.latency_s).collect::<Vec<_>>();
    super::set_trace_metrics(&mut report, &seconds(&plain), &seconds(&traced), &spans);
    let median_ms =
        |name: &str| Summary::new(&trace::durations_ms(&spans, name)).map(|s| s.median());
    for (metric, span) in [
        ("serve.submit_ms", "http.submit"),
        ("serve.wait_ms", "http.wait"),
        ("serve.result_ms", "http.result"),
    ] {
        report.set(metric, median_ms(span).unwrap_or(0.0));
    }
    report.set("serve.shed", find_num(&health, "shed").unwrap_or(-1) as f64);
    report.set(
        "serve.retries",
        find_num(&health, "retries").unwrap_or(-1) as f64,
    );
    if !attempts.is_empty() {
        report.set(
            "serve.attempts_per_job",
            attempts.iter().sum::<f64>() / attempts.len() as f64,
        );
    }

    let mut starts = Vec::with_capacity(DAEMON_STARTS);
    for i in 0..DAEMON_STARTS {
        let begin = Instant::now();
        let daemon = Daemon::start(&format!("start{i}"))?;
        starts.push(begin.elapsed().as_secs_f64() * 1e3);
        daemon.stop()?;
    }
    report.set(
        "serve.daemon_start_ms",
        Summary::new(&starts).expect("DAEMON_STARTS > 0").median(),
    );

    let supervisor_ms = supervisor_job_ms(&mut report, &jobs)?;
    report.set("serve.supervisor_ms", supervisor_ms);
    if let Some(traced) = latencies(&traced) {
        report.set("serve.http_share", 1.0 - supervisor_ms / traced.median());
    }
    Ok(report)
}

/// The same jobs through an in-process `Supervisor::submit` →
/// `wait_done`, no HTTP: the median job time in ms.
fn supervisor_job_ms(
    report: &mut Report,
    jobs: &[(String, Vec<PropertyResult>)],
) -> Result<f64, String> {
    let dir = state_dir("supervisor");
    let supervisor = Supervisor::start(ServeConfig {
        state_dir: dir.clone(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("supervisor: {e}"))?;
    let mut samples = Vec::with_capacity(SUPERVISOR_JOBS);
    for i in 0..SUPERVISOR_JOBS {
        let (text, expected) = &jobs[i % jobs.len()];
        let begin = Instant::now();
        let id = supervisor.submit(JobRequest::new(text.clone(), JobConfig::default()));
        let done = id
            .as_ref()
            .ok()
            .and_then(|id| supervisor.wait_done(*id, Duration::from_millis(WAIT_MS)));
        samples.push(begin.elapsed().as_secs_f64() * 1e3);
        let results = id.ok().and_then(|id| supervisor.results(id));
        report.check(
            done.is_some()
                && results.is_some_and(|r| {
                    r.len() == expected.len()
                        && r.iter().zip(expected).all(|(a, b)| {
                            a.name == b.name && a.holds == b.holds && a.states == b.states
                        })
                }),
            || format!("in-process supervisor job {i} differs from local verify_all"),
        );
    }
    let stats = supervisor.stats();
    report.check(stats.shed == 0, || {
        format!("{} in-process jobs shed", stats.shed)
    });
    supervisor.drain();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Summary::new(&samples).expect("jobs > 0").median())
}
