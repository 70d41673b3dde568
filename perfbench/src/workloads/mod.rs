//! The workloads, and what they share: the set-up measurement, the
//! timed loop, verdict checks and peak memory.

pub mod durable;
pub mod liveness;
pub mod safety;
pub mod service;

use std::time::{Duration, Instant};

use pnp_kernel::{
    Checker, Program, SafetyChecks, SafetyOutcome, SearchConfig, Simulator, SplitMix64,
};
use pnp_lang::{ArchSpec, PropertyResult, PropertySpec, VerifyOptions};

use crate::report::Report;
use crate::specs::{self, Prepared};
use crate::stats::Summary;
use crate::trace;

/// The parameters of one run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Picks the spec renderings and the order of service submissions.
    pub seed: u64,
    /// How long the measured loop runs.
    pub budget: Duration,
    /// Whether this is the traced run, which reports per-layer metrics.
    pub traced: bool,
}

impl Run {
    /// A generator for this run's seeded choices.
    pub fn rng(&self) -> SplitMix64 {
        SplitMix64::seed_from_u64(self.seed)
    }
}

/// Untimed set-ups before the measured ones, so caches and the allocator
/// are warm: the first compiles of a process read up to half again as
/// long as later ones.
const SETUP_WARMUP: usize = 50;
/// Measured set-ups per run; `setup_s` is their lower quartile.
const SETUP_REPS: usize = 400;
/// Set-up blocks per run, due at evenly spaced times over the budget.
pub const SETUP_SLOTS: usize = 20;
/// Set-ups measured back to back in one block.
const SETUP_BLOCK: usize = SETUP_REPS / SETUP_SLOTS;

/// Measures set-up on a workload's spec texts, spec text to compiled
/// specs and automata, [`SETUP_REPS`] times in [`SETUP_SLOTS`] blocks due
/// at evenly spaced times over the run. A block can also time
/// verifications of the same specs.
///
/// `setup_s` is the lower quartile of the set-ups, not their median. On a
/// 2-vCPU AMD EPYC virtual machine, compile-heavy code ran at one of two
/// speeds, about 135 or 205 µs for the same block, switching every few
/// seconds on both CPUs (something else shared the physical cores). The median of a run's
/// blocks then followed whichever speed held longer and jumped between
/// the two from run to run, while the lower quartile of the same blocks
/// stayed within 131–143 µs.
pub struct Setup<'t> {
    texts: Vec<&'t str>,
    traced: bool,
    /// Verifications of all specs each block times.
    verify_reps: usize,
    samples: Vec<f64>,
    verify_samples: Vec<f64>,
    /// When each block not yet measured is due, latest first.
    due: Vec<Instant>,
}

impl<'t> Setup<'t> {
    /// Warms up, measures the first block, schedules the others over
    /// `run.budget` from now, and returns the compiled specs. Each block
    /// also times `verify_reps` verifications of all specs with the
    /// default options.
    ///
    /// # Errors
    ///
    /// A spec that fails to compile, or a broken model.
    pub fn start(
        run: &Run,
        texts: &[&'t str],
        verify_reps: usize,
    ) -> Result<(Setup<'t>, Vec<Prepared>), String> {
        let prepared = texts
            .iter()
            .map(|text| specs::prepare(text))
            .collect::<Result<Vec<_>, _>>()?;
        let mut setup = Setup {
            texts: texts.to_vec(),
            traced: run.traced,
            verify_reps,
            samples: Vec::with_capacity(SETUP_REPS),
            verify_samples: Vec::new(),
            due: Vec::new(),
        };
        for _ in 0..SETUP_WARMUP {
            setup.once()?;
        }
        let now = Instant::now();
        setup.due = (1..SETUP_SLOTS)
            .rev()
            .map(|slot| now + run.budget.mul_f64(slot as f64 / SETUP_SLOTS as f64))
            .collect();
        setup.block(&prepared)?;
        Ok((setup, prepared))
    }

    fn once(&self) -> Result<f64, String> {
        let start = Instant::now();
        for text in &self.texts {
            std::hint::black_box(specs::prepare(text)?);
        }
        Ok(start.elapsed().as_secs_f64())
    }

    /// Measures one block. Spans are on for its set-ups on the traced
    /// run.
    fn block(&mut self, prepared: &[Prepared]) -> Result<(), String> {
        let was = trace::enabled();
        trace::set_enabled(self.traced);
        for _ in 0..SETUP_BLOCK {
            let sample = self.once()?;
            self.samples.push(sample);
        }
        trace::set_enabled(false);
        for _ in 0..self.verify_reps {
            let start = Instant::now();
            for p in prepared {
                std::hint::black_box(p.spec.verify_all().map_err(|e| e.to_string())?);
            }
            self.verify_samples.push(start.elapsed().as_secs_f64());
        }
        trace::set_enabled(was);
        Ok(())
    }

    /// Measures every block that is due by now.
    ///
    /// # Errors
    ///
    /// A spec that fails to compile, or a broken model.
    pub fn catch_up(&mut self, prepared: &[Prepared]) -> Result<(), String> {
        while self.due.last().is_some_and(|&at| at <= Instant::now()) {
            self.due.pop();
            self.block(prepared)?;
        }
        Ok(())
    }

    /// Measures the blocks not yet due, then records the lower quartile
    /// as `setup_s` and, on the traced run, the `lang.*`/`ltl.*` set-up
    /// layers of `prepared`. Returns the verification times the blocks
    /// took.
    ///
    /// # Errors
    ///
    /// A spec that fails to compile, or a broken model.
    pub fn finish(
        mut self,
        report: &mut Report,
        prepared: &[Prepared],
    ) -> Result<Vec<f64>, String> {
        while self.due.pop().is_some() {
            self.block(prepared)?;
        }
        let summary = Summary::new(&self.samples).expect("SETUP_REPS > 0");
        report.set("setup_s", summary.quantile(0.25));
        report.notes.push(format!(
            "setup_s: lower quartile of {} set-ups; median {:.6} s",
            summary.count(),
            summary.median()
        ));
        if self.traced {
            let spans = trace::recorded();
            let per_rep_us = |name: &str| trace::total_ms(&spans, name) * 1e3 / SETUP_REPS as f64;
            report.set("lang.parse_us", per_rep_us("lang.parse"));
            report.set("lang.compile_us", per_rep_us("lang.compile"));
            report.set("ltl.translate_us", per_rep_us("ltl.translate"));
            report.set(
                "lang.program_transitions",
                prepared
                    .iter()
                    .map(|p| p.spec.system().program().transition_count())
                    .sum::<usize>() as f64,
            );
            report.set(
                "ltl.buchi_states",
                prepared.iter().map(|p| p.buchi_states).sum::<usize>() as f64,
            );
        }
        Ok(self.verify_samples)
    }
}

/// Verification options for `threads` worker threads and otherwise the
/// defaults a `pnp-check` user gets.
pub fn options(threads: usize) -> VerifyOptions {
    VerifyOptions {
        config: SearchConfig {
            threads,
            ..SearchConfig::default()
        },
        ..VerifyOptions::default()
    }
}

/// Checks every result against its known verdict: `expected` lists
/// `(property, holds)` in source order, and no result may be
/// inconclusive.
pub fn check_verdicts(
    report: &mut Report,
    label: &str,
    results: Result<Vec<PropertyResult>, pnp_lang::VerifyError>,
    expected: &[(&str, bool)],
) -> Vec<PropertyResult> {
    let results = match results {
        Ok(results) => results,
        Err(error) => {
            report.check(false, || format!("{label}: {error}"));
            return Vec::new();
        }
    };
    let shape_ok = results.len() == expected.len();
    report.check(shape_ok, || {
        format!(
            "{label}: {} results for {} properties",
            results.len(),
            expected.len()
        )
    });
    for (result, (name, holds)) in results.iter().zip(expected) {
        report.check(
            result.name == *name && result.holds == *holds && !result.inconclusive,
            || format!("{label}: {result} (expected {name} holds={holds})"),
        );
    }
    results
}

/// Runs `op` until the budget is spent (and at least `min_ops` times),
/// measuring the blocks of `setup` that fall due between operations. On
/// the traced run every other operation runs with spans on, so the
/// difference of the two medians is the tracing overhead. Returns the
/// untraced and the traced durations in seconds.
pub fn timed_loop(
    run: &Run,
    min_ops: usize,
    (setup, prepared): (&mut Setup<'_>, &[Prepared]),
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let deadline = Instant::now() + run.budget;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < min_ops || Instant::now() < deadline {
        let tracing = run.traced && i % 2 == 0;
        trace::set_enabled(tracing);
        trace::set_request(i as u64 + 1);
        let start = Instant::now();
        let outcome = {
            let _span = trace::span("op");
            op(i)
        };
        let elapsed = start.elapsed().as_secs_f64();
        trace::set_enabled(false);
        trace::set_request(0);
        outcome?;
        if tracing {
            traced.push(elapsed);
        } else {
            plain.push(elapsed);
        }
        setup.catch_up(prepared)?;
        i += 1;
    }
    Ok((plain, traced))
}

/// Records the verification-time metrics of an untraced run from its
/// operation durations: `verify_s` is their median. Each operation is one
/// in-process "job", so the job metrics are the same samples seen as a
/// job: the median and tail latency in ms and the median rate.
pub fn set_verify_metrics(report: &mut Report, ops: &[f64]) {
    let summary = Summary::new(ops).expect("timed_loop runs at least one op");
    let tail = summary.tail();
    report.set("verify_s", summary.median());
    report.set("job_latency_p50_ms", summary.median() * 1e3);
    report.set("job_latency_tail_ms", tail.value * 1e3);
    report.set("jobs_per_s", 1.0 / summary.median());
    report.notes.push(format!(
        "verify_s: median of {} operations; tail p{:.1} with {} beyond",
        summary.count(),
        tail.percentile,
        tail.beyond
    ));
}

/// Records the traced run's bookkeeping: the overhead of tracing as
/// traced minus untraced median operation time, the self time per traced
/// operation of the benchmark's span layers, and how many spans there
/// were.
pub fn set_trace_metrics(
    report: &mut Report,
    plain: &[f64],
    traced: &[f64],
    spans: &[trace::Span],
) {
    if let (Some(p), Some(t)) = (Summary::new(plain), Summary::new(traced)) {
        report.set("trace.overhead_ms", (t.median() - p.median()) * 1e3);
    }
    let selfs = trace::self_times(spans);
    let ops = traced.len().max(1) as f64;
    report.set("self.search_ms", trace::self_ms(&selfs, "verify.") / ops);
    report.set(
        "self.storage_ms",
        (trace::self_ms(&selfs, "vfs.") + trace::self_ms(&selfs, "snapshot.")) / ops,
    );
    report.set("self.http_ms", trace::self_ms(&selfs, "http.") / ops);
    report.set("trace.spans", spans.len() as f64);
}

/// Replays a safety counterexample of `spec`'s first invariant through
/// `Checker::replay_trace`; `true` when the violation is found and its
/// trace replays.
pub fn counterexample_replays(spec: &ArchSpec) -> Result<bool, String> {
    let Some(PropertySpec::Invariant { name, predicate }) = spec.properties().first() else {
        return Err("spec has no leading invariant".into());
    };
    let checker = Checker::new(spec.system().program());
    let outcome = checker
        .check_safety(&SafetyChecks::invariants(vec![(
            name.clone(),
            predicate.clone(),
        )]))
        .map_err(|e| e.to_string())?
        .outcome;
    let SafetyOutcome::InvariantViolated { trace, .. } = outcome else {
        return Ok(false);
    };
    Ok(!trace.is_empty()
        && checker
            .replay_trace(&trace)
            .map_err(|e| e.to_string())?
            .is_some())
}

/// Random-walk steps for `kernel.sim_steps_per_s`.
const SIM_STEPS: usize = 200_000;

/// `Simulator::run` throughput: enabled steps and apply, no visited set.
/// A run that halts early is restarted until [`SIM_STEPS`] steps ran.
pub fn sim_steps_per_s(program: &Program, seed: u64) -> Result<f64, String> {
    let mut sim = Simulator::new(program, seed);
    let start = Instant::now();
    let mut steps = 0;
    while steps < SIM_STEPS {
        let report = sim.run(SIM_STEPS - steps).map_err(|e| e.to_string())?;
        steps += report.steps;
        if report.halted {
            sim.reset();
        }
        if report.steps == 0 {
            return Err("simulation makes no progress".into());
        }
    }
    Ok(steps as f64 / start.elapsed().as_secs_f64())
}

/// Peak resident memory of process `pid` (`"self"` for this one), in MiB,
/// from `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    Ok(kb / 1024.0)
}
