//! In-process supervision tests: the kill-the-worker acceptance
//! criterion (a killed job retried from its checkpoint reports totals
//! byte-identical to an uninterrupted run), watchdog deadlines, load
//! shedding, cancellation, permanent vs. transient failure handling, and
//! drain/restore across a supervisor restart.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pnp_kernel::SearchConfig;
use pnp_serve::job::{Chaos, JobConfig, JobId, JobRequest, Verdict};
use pnp_serve::queue::QueuePolicy;
use pnp_serve::supervisor::{ServeConfig, Supervisor};

/// Three independent counters → ~1000 unique states: enough for several
/// checkpoint flushes at `checkpoint_every = 100`, small enough that a
/// debug-build attempt finishes in well under a second.
const COUNTERS: &str = r#"
system {
    global total = 0;

    component a {
        var count = 0;
        state work, done;
        end done;
        from work if count < 8 do count = count + 1 goto work;
        from work if count >= 8 do total = total + 1 goto done;
    }
    component b {
        var count = 0;
        state work, done;
        end done;
        from work if count < 8 do count = count + 1 goto work;
        from work if count >= 8 do total = total + 1 goto done;
    }
    component c {
        var count = 0;
        state work, done;
        end done;
        from work if count < 8 do count = count + 1 goto work;
        from work if count >= 8 do total = total + 1 goto done;
    }

    property totals: invariant total <= 3;
}
"#;

/// Evaluates `1 / zero` with `zero = 0` on the very first step: a
/// deterministic model error, classified permanent — retrying cannot
/// help.
const BROKEN: &str = r#"
system {
    global zero = 0;
    global boom = 0;

    component a {
        state work, done;
        end done;
        from work do boom = 1 / zero goto done;
    }

    property never: invariant boom == 0;
}
"#;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pnp-serve-test-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(tag: &str) -> ServeConfig {
    ServeConfig {
        workers: 2,
        default_deadline: Duration::from_secs(20),
        max_attempts: 3,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(50),
        wedge_grace: Duration::from_secs(3),
        checkpoint_every: 100,
        state_dir: temp_state_dir(tag),
        ..ServeConfig::default()
    }
}

fn request(source: &str, config: JobConfig) -> JobRequest {
    JobRequest::new(source.to_string(), config)
}

const WAIT: Duration = Duration::from_secs(30);

/// The acceptance criterion: a job whose worker panics mid-attempt is
/// retried from its last checkpoint, and its final verdict and totals
/// (unique states, steps, max depth) are byte-identical to an
/// uninterrupted run of the same specification.
#[test]
fn killed_job_retries_from_checkpoint_with_identical_totals() {
    let supervisor = Supervisor::start(test_config("kill")).unwrap();

    let clean = supervisor
        .submit(request(COUNTERS, JobConfig::default()))
        .unwrap();
    assert_eq!(supervisor.wait_done(clean, WAIT), Some(Verdict::Passed));
    assert_eq!(supervisor.attempts(clean), Some(1));

    // Panic just before the third checkpoint flush, first attempt only:
    // two flushes are on disk, so the retry resumes mid-search.
    let killed = supervisor
        .submit(request(
            COUNTERS,
            JobConfig {
                chaos: Some(Chaos::PanicOnFlush {
                    flush: 3,
                    attempts: 1,
                }),
                ..JobConfig::default()
            },
        ))
        .unwrap();
    assert_eq!(supervisor.wait_done(killed, WAIT), Some(Verdict::Passed));
    assert_eq!(supervisor.attempts(killed), Some(2), "one retry expected");

    let reference = supervisor.results(clean).unwrap();
    let retried = supervisor.results(killed).unwrap();
    assert_eq!(reference.len(), retried.len());
    for (a, b) in reference.iter().zip(&retried) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.holds, b.holds);
        assert_eq!(
            (a.states, a.steps, a.max_depth),
            (b.states, b.steps, b.max_depth),
            "resumed totals must match the uninterrupted run for '{}'",
            a.name
        );
    }

    let stats = supervisor.stats();
    assert!(stats.panics_caught >= 1, "the panic must be caught");
    assert!(stats.retries >= 1, "a retry must be scheduled");
    supervisor.drain();
}

/// A watchdog-deadline kill takes the same retry path: the cancelled
/// attempt flushes a final snapshot, the retry resumes, and the totals
/// still match an uninterrupted run.
#[test]
fn deadline_tripped_job_resumes_and_matches() {
    let supervisor = Supervisor::start(test_config("deadline")).unwrap();

    let clean = supervisor
        .submit(request(COUNTERS, JobConfig::default()))
        .unwrap();
    assert_eq!(supervisor.wait_done(clean, WAIT), Some(Verdict::Passed));

    // Attempt 1 sleeps 400 ms per checkpoint flush against a 150 ms
    // deadline: the watchdog cancels it mid-run. Attempt 2 is clean.
    let killed = supervisor
        .submit(request(
            COUNTERS,
            JobConfig {
                deadline: Some(Duration::from_millis(150)),
                chaos: Some(Chaos::SlowFlushMs {
                    ms: 400,
                    attempts: 1,
                }),
                ..JobConfig::default()
            },
        ))
        .unwrap();
    assert_eq!(supervisor.wait_done(killed, WAIT), Some(Verdict::Passed));
    assert!(supervisor.attempts(killed).unwrap() >= 2);

    let reference = supervisor.results(clean).unwrap();
    let retried = supervisor.results(killed).unwrap();
    for (a, b) in reference.iter().zip(&retried) {
        assert_eq!(
            (a.states, a.steps, a.max_depth),
            (b.states, b.steps, b.max_depth)
        );
    }
    supervisor.drain();
}

/// A client-requested budget trip is deterministic: the job finishes as
/// inconclusive with partial statistics on its first attempt — no retry.
#[test]
fn over_budget_job_is_inconclusive_with_partial_stats() {
    let supervisor = Supervisor::start(test_config("budget")).unwrap();
    let mut config = JobConfig::default();
    config.config.max_states = 50;
    let id = supervisor.submit(request(COUNTERS, config)).unwrap();
    assert_eq!(supervisor.wait_done(id, WAIT), Some(Verdict::Inconclusive));
    assert_eq!(supervisor.attempts(id), Some(1), "budget trips never retry");
    let results = supervisor.results(id).unwrap();
    assert!(results[0].inconclusive);
    assert!(results[0].states > 0, "partial coverage must be reported");
    supervisor.drain();
}

/// A deterministic model error fails the job permanently on the first
/// attempt, with the structured reason preserved.
#[test]
fn model_error_fails_permanently_without_retry() {
    let supervisor = Supervisor::start(test_config("permanent")).unwrap();
    let id = supervisor
        .submit(request(BROKEN, JobConfig::default()))
        .unwrap();
    assert_eq!(supervisor.wait_done(id, WAIT), Some(Verdict::Failed));
    assert_eq!(supervisor.attempts(id), Some(1));
    let error = supervisor.error(id).unwrap();
    assert_eq!(error.kind, "permanent");
    assert!(
        error.reason.contains("division by zero"),
        "reason was: {}",
        error.reason
    );
    assert_eq!(supervisor.stats().retries, 0);
    supervisor.drain();
}

/// A fault that persists across every attempt exhausts the retry budget
/// and fails with a structured, non-retryable error.
#[test]
fn persistent_panic_exhausts_retries() {
    let supervisor = Supervisor::start(test_config("exhaust")).unwrap();
    let id = supervisor
        .submit(request(
            COUNTERS,
            JobConfig {
                max_attempts: Some(2),
                chaos: Some(Chaos::PanicOnFlush {
                    flush: 1,
                    attempts: 99,
                }),
                ..JobConfig::default()
            },
        ))
        .unwrap();
    assert_eq!(supervisor.wait_done(id, WAIT), Some(Verdict::Failed));
    assert_eq!(supervisor.attempts(id), Some(2));
    let error = supervisor.error(id).unwrap();
    assert_eq!(error.kind, "transient_exhausted");
    assert!(error.reason.contains("injected panic"));
    supervisor.drain();
}

/// Unparseable source is a permanent failure too — not a panic, not a
/// retry loop.
#[test]
fn garbage_source_fails_cleanly() {
    let supervisor = Supervisor::start(test_config("garbage")).unwrap();
    let id = supervisor
        .submit(request("system { component ???", JobConfig::default()))
        .unwrap();
    assert_eq!(supervisor.wait_done(id, WAIT), Some(Verdict::Failed));
    assert_eq!(supervisor.error(id).unwrap().kind, "permanent");
    supervisor.drain();
}

/// Admission control: past the queue watermark submissions are shed with
/// a structured retry hint while admitted jobs still finish.
#[test]
fn overload_sheds_with_retry_hint_while_in_flight_jobs_finish() {
    let mut config = test_config("shed");
    config.workers = 1;
    config.queue = QueuePolicy {
        capacity: 2,
        max_queued_bytes: 1 << 20,
        retry_after: Duration::from_millis(1234),
    };
    let supervisor = Supervisor::start(config).unwrap();

    // Occupy the single worker for ~1.5 s, then fill the queue.
    let wedged = supervisor
        .submit(request(
            COUNTERS,
            JobConfig {
                chaos: Some(Chaos::WedgeStartMs {
                    ms: 1500,
                    attempts: 1,
                }),
                ..JobConfig::default()
            },
        ))
        .unwrap();
    // Give the worker a moment to pick the job up so it does not count
    // against the queue watermark.
    let deadline = std::time::Instant::now() + WAIT;
    while supervisor.stats().submitted == 1
        && supervisor.health_json().contains("\"queue_depth\":1")
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let queued: Vec<JobId> = (0..2)
        .map(|_| {
            supervisor
                .submit(request(COUNTERS, JobConfig::default()))
                .unwrap()
        })
        .collect();

    let shed = supervisor
        .submit(request(COUNTERS, JobConfig::default()))
        .expect_err("the queue is full; this submission must shed");
    assert_eq!(shed.reason, "queue_full");
    // Pressure-scaled hint: a full queue (depth 2 of capacity 2) pushes
    // back at 3x the base of 1234 ms.
    assert_eq!(shed.retry_after, Duration::from_millis(3 * 1234));
    assert!(shed.queue_depth >= 2);
    assert!(supervisor.stats().shed >= 1);

    // Byte watermark sheds too, independently of the depth watermark.
    let mut config = test_config("shed-bytes");
    config.queue.max_queued_bytes = 8;
    let tiny = Supervisor::start(config).unwrap();
    let shed = tiny
        .submit(request(COUNTERS, JobConfig::default()))
        .expect_err("source larger than the byte watermark must shed");
    assert_eq!(shed.reason, "queue_bytes");
    tiny.drain();

    // Everything admitted still completes.
    assert_eq!(supervisor.wait_done(wedged, WAIT), Some(Verdict::Passed));
    for id in queued {
        assert_eq!(supervisor.wait_done(id, WAIT), Some(Verdict::Passed));
    }
    supervisor.drain();
}

/// Cooperative cancellation: a queued job cancels immediately, a running
/// job cancels at its next kernel budget check, and a done job reports
/// `cancelled: false`.
#[test]
fn cancellation_covers_queued_and_running_jobs() {
    let mut config = test_config("cancel");
    config.workers = 1;
    let supervisor = Supervisor::start(config).unwrap();

    let running = supervisor
        .submit(request(
            COUNTERS,
            JobConfig {
                chaos: Some(Chaos::WedgeStartMs {
                    ms: 400,
                    attempts: 1,
                }),
                ..JobConfig::default()
            },
        ))
        .unwrap();
    let queued = supervisor
        .submit(request(COUNTERS, JobConfig::default()))
        .unwrap();

    assert_eq!(supervisor.cancel(queued), Some(true));
    assert_eq!(supervisor.wait_done(queued, WAIT), Some(Verdict::Cancelled));
    assert_eq!(supervisor.cancel(queued), Some(false), "already terminal");

    assert_eq!(supervisor.cancel(running), Some(true));
    assert_eq!(
        supervisor.wait_done(running, WAIT),
        Some(Verdict::Cancelled)
    );
    assert_eq!(supervisor.cancel(JobId(999)), None);
    supervisor.drain();
}

/// Graceful drain: in-flight jobs are parked with their checkpoints
/// flushed, the queue is persisted, and a new supervisor on the same
/// state directory restores and finishes every job under its original
/// id.
#[test]
fn drain_persists_queue_and_restart_restores_it() {
    let mut config = test_config("drain");
    config.workers = 1;
    let state_dir = config.state_dir.clone();
    let supervisor = Supervisor::start(config.clone()).unwrap();

    let in_flight = supervisor
        .submit(request(
            COUNTERS,
            JobConfig {
                chaos: Some(Chaos::WedgeStartMs {
                    ms: 300,
                    attempts: 1,
                }),
                ..JobConfig::default()
            },
        ))
        .unwrap();
    let queued_a = supervisor
        .submit(request(COUNTERS, JobConfig::default()))
        .unwrap();
    let queued_b = supervisor
        .submit(request(COUNTERS, JobConfig::default()))
        .unwrap();

    supervisor.drain();
    assert!(
        state_dir.join("queue.pnpq").exists(),
        "the drained queue must be persisted"
    );
    let shed = supervisor
        .submit(request(COUNTERS, JobConfig::default()))
        .expect_err("a draining supervisor admits nothing");
    assert_eq!(shed.reason, "draining");

    let restarted = Supervisor::start(config).unwrap();
    assert_eq!(restarted.restored(), 3, "all three jobs must come back");
    for id in [in_flight, queued_a, queued_b] {
        assert_eq!(
            restarted.wait_done(id, WAIT),
            Some(Verdict::Passed),
            "restored job {id} must finish under its original id"
        );
    }
    assert!(
        !state_dir.join("queue.pnpq").exists(),
        "the restored queue file must be consumed"
    );
    restarted.drain();
}

/// A corrupt persisted queue is quarantined, not trusted and not fatal.
#[test]
fn corrupt_queue_file_is_quarantined() {
    let config = test_config("corrupt");
    std::fs::create_dir_all(&config.state_dir).unwrap();
    std::fs::write(config.state_dir.join("queue.pnpq"), b"not a queue").unwrap();
    let supervisor = Supervisor::start(config.clone()).unwrap();
    assert_eq!(supervisor.restored(), 0);
    assert!(config
        .state_dir
        .join("quarantine")
        .join("queue.pnpq.corrupt")
        .exists());
    assert_eq!(supervisor.stats().quarantined, 1);
    supervisor.drain();
}

/// Checkpoint slots of the previous format (`PNPGEN01` around a version 3
/// snapshot, as committed under the repository's `tests/fixtures/`) that
/// belong to a restored job are refused by the startup sweep and
/// quarantined, never resumed: the job reruns from scratch.
#[test]
fn previous_format_checkpoints_are_quarantined() {
    let mut config = test_config("old-format");
    config.workers = 1;
    let supervisor = Supervisor::start(config.clone()).unwrap();
    // Wedge the only worker so the second job is still queued at drain.
    supervisor
        .submit(request(
            COUNTERS,
            JobConfig {
                chaos: Some(Chaos::WedgeStartMs {
                    ms: 300,
                    attempts: 1,
                }),
                ..JobConfig::default()
            },
        ))
        .unwrap();
    let queued = supervisor
        .submit(request(COUNTERS, JobConfig::default()))
        .unwrap();
    supervisor.drain();

    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let slot_name = |slot: &str| format!("job-{}.pnpsnap.{slot}", queued.0);
    for slot in ["a", "b"] {
        let bytes = std::fs::read(fixtures.join(format!("wire_pnpgen01.ckpt.{slot}"))).unwrap();
        std::fs::write(config.state_dir.join(slot_name(slot)), bytes).unwrap();
    }
    let restarted = Supervisor::start(config.clone()).unwrap();
    assert_eq!(restarted.stats().quarantined, 2);
    for slot in ["a", "b"] {
        let quarantined = config.state_dir.join("quarantine").join(slot_name(slot));
        assert!(quarantined.exists(), "{}", quarantined.display());
    }
    assert_eq!(restarted.wait_done(queued, WAIT), Some(Verdict::Passed));
    restarted.drain();
}

/// A liveness workload: `arrives` holds under the default weak fairness
/// (the lone component keeps delivering until it may stop), while
/// `settles` is violated by the terminal stutter lasso — `delivered`
/// leaves 0 and never returns.
const DELIVERY: &str = r#"
system {
    global delivered = 0;

    component src {
        state run, done;
        end done;
        from run if delivered < 2 do delivered = delivered + 1 goto run;
        from run if delivered >= 2 goto done;
    }

    property arrives: ltl "<> ok" where ok = delivered == 2;
    property settles: ltl "[] <> zero" where zero = delivered == 0;
}
"#;

/// `threads` flows from the submission parameters through `SearchConfig`
/// into the kernel's liveness search, which runs on one thread at any
/// value: a threaded LTL job reports exactly the one-thread results,
/// including the counterexample lasso of the violated property.
#[test]
fn threaded_ltl_jobs_report_sequential_verdicts() {
    let supervisor = Supervisor::start(test_config("ltl")).unwrap();
    let mut runs = Vec::new();
    for threads in [1, 4] {
        let id = supervisor
            .submit(request(
                DELIVERY,
                JobConfig {
                    config: SearchConfig {
                        threads,
                        ..SearchConfig::default()
                    },
                    ..JobConfig::default()
                },
            ))
            .unwrap();
        assert_eq!(
            supervisor.wait_done(id, WAIT),
            Some(Verdict::Violated),
            "threads={threads}"
        );
        let results = supervisor.results(id).expect("finished job has results");
        assert_eq!(results.len(), 2, "threads={threads}");
        assert!(results[0].holds, "threads={threads}: arrives must hold");
        assert!(
            !results[1].holds && !results[1].inconclusive,
            "threads={threads}: settles must be violated"
        );
        assert!(
            results[1].detail.contains("-- cycle --"),
            "threads={threads}: violated LTL property must carry a lasso"
        );
        runs.push(results);
    }
    let (seq, par) = (&runs[0], &runs[1]);
    for (s, p) in seq.iter().zip(par.iter()) {
        assert_eq!(
            s.holds, p.holds,
            "{}: verdict diverged across threads",
            s.name
        );
        assert_eq!(
            s.inconclusive, p.inconclusive,
            "{}: conclusiveness diverged across threads",
            s.name
        );
        assert_eq!(
            s.detail, p.detail,
            "{}: detail diverged across threads",
            s.name
        );
    }
    supervisor.drain();
}
