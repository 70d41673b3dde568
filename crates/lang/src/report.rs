//! Verification of compiled specifications and result reporting.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pnp_kernel::{
    real_fs, BudgetKind, CancelToken, Checker, GenSink, KernelError, LtlOutcome, Predicate,
    Proposition, SafetyChecks, SafetyOutcome, SearchConfig, Snapshot, SnapshotSink, VfsHandle,
};
use pnp_ltl::Ltl;

use crate::compile::ArchSpec;

/// A compiled property, ready to check.
#[derive(Debug, Clone)]
pub enum PropertySpec {
    /// An invariant over globals.
    Invariant {
        /// The property's name.
        name: String,
        /// The compiled predicate.
        predicate: Predicate,
    },
    /// An LTL property with its proposition bindings.
    Ltl {
        /// The property's name.
        name: String,
        /// The parsed formula.
        formula: Ltl,
        /// The bound propositions.
        props: Vec<Proposition>,
    },
    /// Absence of deadlock.
    NoDeadlock {
        /// The property's name.
        name: String,
    },
}

impl PropertySpec {
    /// The property's name.
    pub fn name(&self) -> &str {
        match self {
            PropertySpec::Invariant { name, .. }
            | PropertySpec::Ltl { name, .. }
            | PropertySpec::NoDeadlock { name } => name,
        }
    }
}

/// The verdict for one property of a specification.
#[derive(Debug, Clone)]
pub struct PropertyResult {
    /// The property's name.
    pub name: String,
    /// Whether the property holds over the full state space. Always
    /// `false` when [`PropertyResult::inconclusive`] is set: a partial
    /// search cannot establish a property.
    pub holds: bool,
    /// `true` when a search budget tripped before the state space was
    /// exhausted: no violation was found in the covered portion, but the
    /// property may still fail in the unexplored part.
    pub inconclusive: bool,
    /// `true` when the property holds *modulo hashing*: the search ran
    /// under a lossy visited-set backend ([`pnp_kernel::VisitedKind`])
    /// whose hash collisions may have hidden part of the state space. The
    /// detail carries the estimated omission probability.
    pub approx: bool,
    /// A one-line summary; for violations, includes the counterexample
    /// rendered at the building-block level.
    pub detail: String,
    /// States explored while checking.
    pub states: usize,
    /// Transitions (edges) explored while checking.
    pub steps: usize,
    /// Deepest level explored (BFS depth for safety searches, product
    /// search depth bookkeeping for LTL).
    pub max_depth: usize,
    /// Estimated peak memory footprint of the search in bytes (see
    /// [`pnp_kernel::SearchStats::approx_memory_bytes`]). Memory pressure
    /// is visible here before it becomes an OOM kill.
    pub memory_bytes: usize,
    /// Largest BFS frontier observed while checking.
    pub peak_frontier: usize,
    /// States written to out-of-core spill storage (zero when the search
    /// stayed in RAM).
    pub spilled_states: usize,
    /// Bytes written to spill storage.
    pub spill_bytes: usize,
    /// Merge-compaction passes over the on-disk visited runs.
    pub merge_passes: usize,
    /// Why the search stopped early, when it did: the tripped budget, or
    /// [`BudgetKind::Cancelled`] for a cancellation. `None` for a search
    /// that ran to completion. Supervisors use this to tell a
    /// client-requested budget trip (deterministic — finish the job as
    /// inconclusive) from an interruption (retry or drain).
    pub stop: Option<BudgetKind>,
}

impl fmt::Display for PropertyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.inconclusive {
            "INCONCLUSIVE"
        } else if self.holds && self.approx {
            "HOLDS (approx)"
        } else if self.holds {
            "HOLDS"
        } else {
            "VIOLATED"
        };
        write!(f, "{:<24} {} ({} states)", self.name, verdict, self.states)
    }
}

/// Builds the checkpoint sink for one safety property, given the
/// checkpoint path. Lets a supervisor wrap the default generation sink
/// (fault injection for tests, instrumentation) without this layer
/// knowing how.
pub type SinkFactory = Arc<dyn Fn(&Path) -> Box<dyn SnapshotSink> + Send + Sync>;

/// Options for a verification run: search limits plus the crash-tolerance
/// machinery (cancellation, checkpointing, resume).
#[derive(Clone, Default)]
pub struct VerifyOptions {
    /// Search budgets, the visited-set backend, the spill threshold and
    /// the worker-thread count: `config.threads > 1` expands each safety
    /// search's states on that many threads (the same report, trace and
    /// checkpoints as one thread; spilling and resume work as at one
    /// thread). LTL properties run on the calling thread at any value.
    /// See [`SearchConfig::threads`].
    pub config: SearchConfig,
    /// Cooperative cancellation, typically wired to SIGINT. A cancelled
    /// run reports the affected property as inconclusive and — when
    /// checkpointing is on — flushes a final snapshot first.
    pub cancel: Option<CancelToken>,
    /// `(base, every)`: write snapshots of safety searches as
    /// double-buffered generations `base.a`/`base.b` (see
    /// [`pnp_kernel::GenStore`]), flushing every `every` newly discovered
    /// states (`0` = only when a budget trips or the run is cancelled).
    pub checkpoint: Option<(PathBuf, usize)>,
    /// Resume a previously interrupted run. The snapshot applies to the
    /// property whose name matches the snapshot's tag; properties before
    /// it in source order are re-verified from scratch.
    pub resume: Option<Snapshot>,
    /// Replaces the default [`GenSink`] used for
    /// [`VerifyOptions::checkpoint`] with a custom sink built from the
    /// checkpoint base path. `None` → generation sink over
    /// [`VerifyOptions::vfs`].
    pub checkpoint_sink: Option<SinkFactory>,
    /// The filesystem checkpoints go through. `None` → the real
    /// filesystem; tests hand in a [`pnp_kernel::SimFs`] to inject
    /// storage faults into checkpoint flushes.
    pub vfs: Option<VfsHandle>,
    /// Scratch directory for out-of-core search storage (the
    /// `disk`-backed visited set and spilled frontier chunks), accessed
    /// through [`VerifyOptions::vfs`]. `None` → a fresh directory under
    /// the system temp dir when a search actually spills.
    pub spill_dir: Option<PathBuf>,
}

impl fmt::Debug for VerifyOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyOptions")
            .field("config", &self.config)
            .field("cancel", &self.cancel)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume.as_ref().map(Snapshot::tag))
            .field("checkpoint_sink", &self.checkpoint_sink.is_some())
            .field("vfs", &self.vfs)
            .field("spill_dir", &self.spill_dir)
            .finish()
    }
}

/// An error while verifying a specification (a broken model expression).
#[derive(Debug, Clone)]
pub struct VerifyError(pub KernelError);

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed: {}", self.0)
    }
}

impl std::error::Error for VerifyError {}

/// Why a safety search stopped early, if it did.
fn safety_stop(outcome: &SafetyOutcome) -> Option<BudgetKind> {
    match outcome {
        SafetyOutcome::LimitReached { budget, .. } => Some(*budget),
        _ => None,
    }
}

impl ArchSpec {
    /// Checks every declared property, in source order, with default
    /// search limits.
    ///
    /// Invariants and deadlock run the BFS safety search; LTL properties
    /// run the nested-DFS search under weak fairness.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when the model itself fails to evaluate.
    pub fn verify_all(&self) -> Result<Vec<PropertyResult>, VerifyError> {
        self.verify_all_with_config(SearchConfig::default())
    }

    /// Checks every declared property under explicit search limits.
    ///
    /// A tripped budget (`max_states`, `max_time`, `max_depth`,
    /// `max_memory_bytes`) degrades gracefully into an *inconclusive*
    /// [`PropertyResult`] carrying the partial coverage, never a panic.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when the model itself fails to evaluate.
    pub fn verify_all_with_config(
        &self,
        config: SearchConfig,
    ) -> Result<Vec<PropertyResult>, VerifyError> {
        self.verify_all_with_options(&VerifyOptions {
            config,
            ..VerifyOptions::default()
        })
    }

    /// Checks every declared property with full crash tolerance: optional
    /// cancellation, checkpointing of safety searches, and resume from a
    /// snapshot (see [`VerifyOptions`]).
    ///
    /// LTL properties run the nested-DFS search on the calling thread at
    /// any `config.threads`, which supports cancellation but not
    /// checkpoint/resume; a resume snapshot tagged with an LTL property's
    /// name is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when the model itself fails to evaluate,
    /// when a checkpoint cannot be written, or when the resume snapshot
    /// belongs to a different system.
    pub fn verify_all_with_options(
        &self,
        options: &VerifyOptions,
    ) -> Result<Vec<PropertyResult>, VerifyError> {
        let program = self.system().program();
        // Each safety property gets its own checker so the resume snapshot
        // and the checkpoint tag bind to the right property.
        let safety_checker = |name: &str| -> Result<Checker<'_>, VerifyError> {
            let mut checker = match &options.resume {
                Some(snapshot) if snapshot.tag() == name => {
                    Checker::resume_from(program, snapshot.clone())
                        .map_err(|error| {
                            VerifyError(KernelError::Snapshot {
                                message: error.to_string(),
                            })
                        })?
                        .with_search_config(options.config)
                }
                _ => Checker::with_config(program, options.config),
            };
            if let Some(cancel) = &options.cancel {
                checker = checker.with_cancellation(cancel.clone());
            }
            if let Some((path, every)) = &options.checkpoint {
                let sink: Box<dyn SnapshotSink> = match &options.checkpoint_sink {
                    Some(factory) => factory(path),
                    None => {
                        let vfs = options.vfs.clone().unwrap_or_else(real_fs);
                        Box::new(GenSink::new(vfs, path))
                    }
                };
                checker = checker
                    .checkpoint_to(sink)
                    .checkpoint_every(*every)
                    .checkpoint_tag(name);
            }
            if let Some(dir) = &options.spill_dir {
                let vfs = options.vfs.clone().unwrap_or_else(real_fs);
                checker = checker.spill_to(vfs, dir.clone());
            }
            Ok(checker)
        };
        let mut results = Vec::new();
        for prop in self.properties() {
            let result = match prop {
                PropertySpec::Invariant { name, predicate } => {
                    let report = safety_checker(name)?
                        .check_safety(&SafetyChecks {
                            deadlock: false,
                            invariants: vec![(name.clone(), predicate.clone())],
                        })
                        .map_err(VerifyError)?;
                    let (holds, inconclusive, detail) =
                        self.safety_verdict(&report.outcome, "invariant holds");
                    PropertyResult {
                        name: name.clone(),
                        holds,
                        inconclusive,
                        approx: matches!(report.outcome, SafetyOutcome::HoldsApprox { .. }),
                        detail,
                        states: report.stats.unique_states,
                        steps: report.stats.steps,
                        max_depth: report.stats.max_depth,
                        memory_bytes: report.stats.approx_memory_bytes,
                        peak_frontier: report.stats.peak_frontier,
                        spilled_states: report.stats.spilled_states,
                        spill_bytes: report.stats.spill_bytes,
                        merge_passes: report.stats.merge_passes,
                        stop: safety_stop(&report.outcome),
                    }
                }
                PropertySpec::NoDeadlock { name } => {
                    let report = safety_checker(name)?
                        .check_safety(&SafetyChecks::deadlock_only())
                        .map_err(VerifyError)?;
                    let (holds, inconclusive, detail) =
                        self.safety_verdict(&report.outcome, "no deadlock");
                    PropertyResult {
                        name: name.clone(),
                        holds,
                        inconclusive,
                        approx: matches!(report.outcome, SafetyOutcome::HoldsApprox { .. }),
                        detail,
                        states: report.stats.unique_states,
                        steps: report.stats.steps,
                        max_depth: report.stats.max_depth,
                        memory_bytes: report.stats.approx_memory_bytes,
                        peak_frontier: report.stats.peak_frontier,
                        spilled_states: report.stats.spilled_states,
                        spill_bytes: report.stats.spill_bytes,
                        merge_passes: report.stats.merge_passes,
                        stop: safety_stop(&report.outcome),
                    }
                }
                PropertySpec::Ltl {
                    name,
                    formula,
                    props,
                } => {
                    let mut checker = Checker::with_config(program, options.config);
                    if let Some(cancel) = &options.cancel {
                        checker = checker.with_cancellation(cancel.clone());
                    }
                    let report = checker.check_ltl(formula, props).map_err(VerifyError)?;
                    // A truncated product search that found no acceptance
                    // cycle is NOT a proof: report it inconclusive. A
                    // violation found within the budget is still a real
                    // violation.
                    let (holds, inconclusive, detail) = match report.outcome {
                        LtlOutcome::Holds if report.truncated => (
                            false,
                            true,
                            format!(
                                "inconclusive: state budget tripped after {} product \
                                 states; no acceptance cycle found in the covered \
                                 portion",
                                report.stats.unique_states
                            ),
                        ),
                        LtlOutcome::Holds => (
                            true,
                            false,
                            "LTL property holds (weak fairness)".to_string(),
                        ),
                        LtlOutcome::Violated { prefix, cycle } => (
                            false,
                            false,
                            format!(
                                "violated by a lasso ({}-step prefix, {}-step cycle):\n{}  -- cycle --\n{}",
                                prefix.len(),
                                cycle.len(),
                                self.system().explain_trace(&prefix),
                                self.system().explain_trace(&cycle)
                            ),
                        ),
                    };
                    // The product search truncates for exactly two
                    // reasons: the state budget, or a cancellation
                    // observed through the shared token.
                    let stop = if report.truncated {
                        if options.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                            Some(BudgetKind::Cancelled)
                        } else {
                            Some(BudgetKind::States)
                        }
                    } else {
                        None
                    };
                    PropertyResult {
                        name: name.clone(),
                        holds,
                        inconclusive,
                        approx: false,
                        detail,
                        states: report.stats.unique_states,
                        steps: report.stats.steps,
                        max_depth: report.stats.max_depth,
                        memory_bytes: report.stats.approx_memory_bytes,
                        peak_frontier: report.stats.peak_frontier,
                        spilled_states: report.stats.spilled_states,
                        spill_bytes: report.stats.spill_bytes,
                        merge_passes: report.stats.merge_passes,
                        stop,
                    }
                }
            };
            results.push(result);
        }
        Ok(results)
    }

    /// Renders a safety outcome as `(holds, inconclusive, detail)`.
    fn safety_verdict(&self, outcome: &SafetyOutcome, holds_detail: &str) -> (bool, bool, String) {
        match outcome {
            SafetyOutcome::Holds => (true, false, holds_detail.to_string()),
            SafetyOutcome::HoldsApprox {
                hash_mode,
                states_visited,
                omission_probability,
            } => (
                true,
                false,
                format!(
                    "{holds_detail} modulo hashing: {states_visited} states visited \
                     under {hash_mode}; estimated per-state omission probability \
                     ≈ {omission_probability:.2e}"
                ),
            ),
            SafetyOutcome::InvariantViolated { trace, .. } => (
                false,
                false,
                format!(
                    "invariant violated after {} steps:\n{}",
                    trace.len(),
                    self.system().explain_trace(trace)
                ),
            ),
            SafetyOutcome::AssertionFailed { message, trace } => (
                false,
                false,
                format!(
                    "assertion '{message}' failed after {} steps:\n{}",
                    trace.len(),
                    self.system().explain_trace(trace)
                ),
            ),
            SafetyOutcome::Deadlock { trace } => (
                false,
                false,
                format!(
                    "deadlock after {} steps:\n{}",
                    trace.len(),
                    self.system().explain_trace(trace)
                ),
            ),
            SafetyOutcome::LimitReached {
                budget,
                states_covered,
                frontier,
            } => (
                false,
                true,
                format!(
                    "inconclusive: {budget} tripped after {states_covered} states \
                     ({frontier} frontier states unexpanded); no violation found in \
                     the covered portion"
                ),
            ),
            SafetyOutcome::PredicateError {
                name,
                message,
                trace,
            } => (
                false,
                false,
                format!(
                    "predicate '{name}' failed to evaluate ('{message}') after {} steps:\n{}",
                    trace.len(),
                    self.system().explain_trace(trace)
                ),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const COUNTER_SPEC: &str = r#"system {
        global x = 0;
        component c {
            state a, b;
            end b;
            from a do x = 1 goto b;
        }
        property stays_small: invariant x <= 1;
        property reaches_one: ltl "<> one" where one = x == 1;
        property live: no_deadlock;
        property wrong: invariant x == 0;
    }"#;

    #[test]
    fn verify_all_reports_every_property() {
        let spec = compile(COUNTER_SPEC).unwrap();
        let results = spec.verify_all().unwrap();
        assert_eq!(results.len(), 4);
        assert!(results[0].holds);
        assert!(results[1].holds);
        assert!(results[2].holds);
        assert!(!results[3].holds);
        assert!(!results.iter().any(|r| r.inconclusive));
        assert!(
            results[3].detail.contains("component c"),
            "{}",
            results[3].detail
        );
    }

    #[test]
    fn exhausted_budget_reports_inconclusive_not_a_panic() {
        let spec = compile(COUNTER_SPEC).unwrap();
        let config = SearchConfig {
            max_states: 1,
            ..SearchConfig::default()
        };
        let results = spec.verify_all_with_config(config).unwrap();
        // Safety properties trip the one-state budget; their verdicts are
        // inconclusive (not violations) and carry the partial coverage.
        let stays_small = &results[0];
        assert!(stays_small.inconclusive, "{stays_small:?}");
        assert!(!stays_small.holds);
        assert!(
            stays_small.detail.contains("state budget"),
            "{}",
            stays_small.detail
        );
        assert!(stays_small.to_string().contains("INCONCLUSIVE"));
        // The LTL search truncates too: a no-cycle-found verdict from a
        // partial product search must not be reported as a proof.
        let reaches_one = &results[1];
        assert!(reaches_one.inconclusive, "{reaches_one:?}");
        assert!(!reaches_one.holds);
    }
}
