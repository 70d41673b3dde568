//! `bridge_liveness`: `[] safe` under weak fairness on the one-lap
//! repaired bridge, plus the starvation lasso of `[] <> blue`. Nested DFS
//! over the Büchi product keeps its own state index and bypasses the BFS
//! engines and the visited-set backends, so a change there should read
//! "no change" here, while a change to the state layout moves this
//! workload and `bridge_safety` together.

use std::time::Instant;

use pnp_kernel::{Checker, Fairness, LtlOutcome, Trace};
use pnp_lang::{ArchSpec, PropertySpec};

use super::{check_verdicts, options, timed_loop, Run, Setup};
use crate::report::Report;
use crate::specs::{render, BRIDGE_LIVE, BRIDGE_STARVE};
use crate::stats::Summary;
use crate::trace;

/// Two-thread CNDFS searches on the traced run; `ltl.cndfs_2t_s` is
/// their median.
const TWO_THREAD_REPS: usize = 2;

/// Runs the workload.
///
/// # Errors
///
/// A spec that fails to compile, or a broken model.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut rng = run.rng();
    let live_text = render(BRIDGE_LIVE, &mut rng);
    let starve_text = render(BRIDGE_STARVE, &mut rng);
    let mut report = Report::default();
    let (mut setup, prepared) = Setup::start(run, &[&live_text, &starve_text], 0)?;
    let (live, starve) = (&prepared[0].spec, &prepared[1].spec);
    let one_thread = options(1);

    let mut last_live = Vec::new();
    let (plain, traced) = timed_loop(run, 3, (&mut setup, &prepared), |_| {
        let results = {
            let _span = trace::span("verify.live");
            live.verify_all_with_options(&one_thread)
        };
        last_live = check_verdicts(
            &mut report,
            "bridge_live",
            results,
            &[("always_safe", true)],
        );
        let results = {
            let _span = trace::span("verify.starve");
            starve.verify_all_with_options(&one_thread)
        };
        check_verdicts(
            &mut report,
            "bridge_starve",
            results,
            &[("blue_progress", false)],
        );
        Ok(())
    })?;
    setup.finish(&mut report, &prepared)?;
    let replays = lasso_replays(starve)?;
    report.check(replays, || "bridge_starve: lasso does not replay".into());

    if !run.traced {
        super::set_verify_metrics(&mut report, &plain);
        report.set("peak_rss_mb", super::peak_rss_mb("self")?);
        return Ok(report);
    }

    let spans = trace::recorded();
    super::set_trace_metrics(&mut report, &plain, &traced, &spans);
    let Some(stats) = last_live.first() else {
        return Err("bridge_live produced no result".into());
    };
    let one_thread_s = Summary::new(&trace::durations_ms(&spans, "verify.live"))
        .expect("traced ops ran")
        .median()
        / 1e3;
    report.set("ltl.product_states", stats.states as f64);
    report.set(
        "ltl.product_states_per_s",
        stats.states as f64 / one_thread_s,
    );

    let two_threads = options(2);
    let mut samples = Vec::new();
    for _ in 0..TWO_THREAD_REPS {
        let start = Instant::now();
        let results = live.verify_all_with_options(&two_threads);
        samples.push(start.elapsed().as_secs_f64());
        check_verdicts(
            &mut report,
            "bridge_live 2t",
            results,
            &[("always_safe", true)],
        );
    }
    report.set(
        "ltl.cndfs_2t_s",
        Summary::new(&samples).expect("reps > 0").median(),
    );
    report.set(
        "kernel.sim_steps_per_s",
        super::sim_steps_per_s(live.system().program(), run.seed)?,
    );
    Ok(report)
}

/// Finds the lasso of `spec`'s first LTL property with
/// `Checker::check_ltl_with` and replays it through
/// `Checker::replay_trace`: the prefix must replay, and the cycle must
/// lead back to the state the prefix ends in.
fn lasso_replays(spec: &ArchSpec) -> Result<bool, String> {
    let Some(PropertySpec::Ltl { formula, props, .. }) = spec.properties().first() else {
        return Err("spec has no leading LTL property".into());
    };
    let checker = Checker::new(spec.system().program());
    let report = checker
        .check_ltl_with(formula, props, Fairness::Weak)
        .map_err(|e| e.to_string())?;
    let LtlOutcome::Violated { prefix, cycle } = report.outcome else {
        return Ok(false);
    };
    let around: Vec<_> = prefix
        .events()
        .iter()
        .chain(cycle.events())
        .cloned()
        .collect();
    let entry = checker.replay_trace(&prefix).map_err(|e| e.to_string())?;
    let back = checker
        .replay_trace(&Trace::new(around))
        .map_err(|e| e.to_string())?;
    Ok(!cycle.is_empty() && entry.is_some() && entry == back)
}
