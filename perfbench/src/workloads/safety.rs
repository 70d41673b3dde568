//! `bridge_safety`: exhaustive BFS of the repaired bridge plus the buggy
//! bridge's counterexample. Step semantics and the visited set do nearly
//! all the work; storage and the service do none.

use std::time::Instant;

use super::{check_verdicts, counterexample_replays, options, timed_loop, Run, Setup};
use crate::report::Report;
use crate::specs::{render, BRIDGE_BUGGY, BRIDGE_FIXED};
use crate::stats::Summary;
use crate::trace;

/// Two-thread searches on the traced run; `kernel.verify_2t_s` is their
/// median.
const TWO_THREAD_REPS: usize = 3;

/// Runs the workload.
///
/// # Errors
///
/// A spec that fails to compile, or a broken model.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut rng = run.rng();
    let fixed_text = render(BRIDGE_FIXED, &mut rng);
    let buggy_text = render(BRIDGE_BUGGY, &mut rng);
    let mut report = Report::default();
    let (mut setup, prepared) = Setup::start(run, &[&fixed_text, &buggy_text], 0)?;
    let (fixed, buggy) = (&prepared[0].spec, &prepared[1].spec);
    let one_thread = options(1);

    let mut last_fixed = Vec::new();
    let (plain, traced) = timed_loop(run, 3, (&mut setup, &prepared), |_| {
        let results = {
            let _span = trace::span("verify.fixed");
            fixed.verify_all_with_options(&one_thread)
        };
        last_fixed = check_verdicts(&mut report, "bridge_fixed", results, &[("no_crash", true)]);
        let results = {
            let _span = trace::span("verify.buggy");
            buggy.verify_all_with_options(&one_thread)
        };
        check_verdicts(&mut report, "bridge_buggy", results, &[("no_crash", false)]);
        Ok(())
    })?;
    setup.finish(&mut report, &prepared)?;
    // Outside the timed loop: the verdict's counterexample must replay.
    let replays = counterexample_replays(buggy)?;
    report.check(replays, || {
        "bridge_buggy: counterexample does not replay".into()
    });

    if !run.traced {
        super::set_verify_metrics(&mut report, &plain);
        report.set("peak_rss_mb", super::peak_rss_mb("self")?);
        return Ok(report);
    }

    let spans = trace::recorded();
    super::set_trace_metrics(&mut report, &plain, &traced, &spans);
    let Some(stats) = last_fixed.first() else {
        return Err("bridge_fixed produced no result".into());
    };
    let states = stats.states as f64;
    let one_thread_s = Summary::new(&trace::durations_ms(&spans, "verify.fixed"))
        .expect("traced ops ran")
        .median()
        / 1e3;
    report.set("kernel.states", states);
    report.set("kernel.steps", stats.steps as f64);
    report.set("kernel.peak_frontier", stats.peak_frontier as f64);
    report.set("kernel.states_per_s", states / one_thread_s);
    report.set("kernel.bytes_per_state", stats.memory_bytes as f64 / states);

    let two_threads = options(2);
    let mut samples = Vec::new();
    for _ in 0..TWO_THREAD_REPS {
        let start = Instant::now();
        let results = fixed.verify_all_with_options(&two_threads);
        samples.push(start.elapsed().as_secs_f64());
        check_verdicts(
            &mut report,
            "bridge_fixed 2t",
            results,
            &[("no_crash", true)],
        );
    }
    let two_thread_s = Summary::new(&samples).expect("reps > 0").median();
    report.set("kernel.verify_2t_s", two_thread_s);
    report.set("kernel.states_per_s_2t", states / two_thread_s);
    report.set("kernel.speedup_2t", one_thread_s / two_thread_s);

    report.set(
        "kernel.sim_steps_per_s",
        super::sim_steps_per_s(fixed.system().program(), run.seed)?,
    );
    Ok(report)
}
