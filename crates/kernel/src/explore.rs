//! Breadth-first safety checking: deadlocks, invariants, assertions.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::arena::{Interned, RowQueue, StateArena};
use crate::expression::{EvalCtx, Expr};
use crate::extmem::SpillFrontier;
use crate::program::Program;
use crate::reduction::{ample_subset, LocalLocations};
use crate::snapshot::{
    program_fingerprint, SearchImage, SnapStats, Snapshot, SnapshotError, SnapshotSink,
    VisitedPayload,
};
use crate::state::{
    apply_step, apply_step_into, enabled_steps, enabled_steps_into, is_valid_end_state,
    KernelError, State, StateView, Step,
};
use crate::trace::Trace;
use crate::vfs::VfsHandle;
use crate::visited::{
    AnyVisited, BitstateVisited, CompactVisited, DiskExactVisited, ExactVisited, Insert,
    VisitedKind, VisitedSet,
};

/// A boolean predicate over system states, used for invariants and LTL
/// propositions.
#[derive(Clone)]
pub struct Predicate(PredImpl);

#[derive(Clone)]
enum PredImpl {
    /// An expression over the program's *globals* (locals are not in scope).
    Expr(Expr),
    /// An arbitrary native predicate.
    Native {
        name: String,
        f: Arc<dyn Fn(&StateView<'_>) -> bool + Send + Sync>,
    },
}

impl Predicate {
    /// A predicate from an expression over the program's global variables.
    ///
    /// Local variables and `_pid` are not in scope; referencing them yields
    /// a checking-time [`KernelError`].
    pub fn from_expr(expr: Expr) -> Predicate {
        Predicate(PredImpl::Expr(expr))
    }

    /// A predicate from a native function with full read access to the
    /// state. The name appears in diagnostics.
    pub fn native(
        name: impl Into<String>,
        f: impl Fn(&StateView<'_>) -> bool + Send + Sync + 'static,
    ) -> Predicate {
        Predicate(PredImpl::Native {
            name: name.into(),
            f: Arc::new(f),
        })
    }

    /// Whether the predicate only reads global variables (and is therefore
    /// invisible to partial-order-reduced local steps).
    pub(crate) fn is_expr_only(&self) -> bool {
        matches!(self.0, PredImpl::Expr(_))
    }

    /// Returns the logical negation of this predicate.
    ///
    /// ```
    /// use pnp_kernel::{expr, Predicate};
    /// let p = Predicate::from_expr(expr::konst(1));
    /// let _not_p = p.negated();
    /// ```
    pub fn negated(&self) -> Predicate {
        match &self.0 {
            PredImpl::Expr(e) => Predicate(PredImpl::Expr(crate::expression::expr::not(e.clone()))),
            PredImpl::Native { name, f } => {
                let f = Arc::clone(f);
                Predicate(PredImpl::Native {
                    name: format!("not ({name})"),
                    f: Arc::new(move |view| !f(view)),
                })
            }
        }
    }

    pub(crate) fn eval(&self, view: &StateView<'_>) -> Result<bool, KernelError> {
        match &self.0 {
            PredImpl::Expr(e) => {
                let ctx = EvalCtx {
                    locals: &[],
                    globals: view.globals(),
                    pid: -1,
                };
                e.eval_bool(&ctx).map_err(|error| KernelError::Eval {
                    process: "(property)".to_string(),
                    transition: e.to_string(),
                    error,
                })
            }
            PredImpl::Native { f, .. } => Ok(f(view)),
        }
    }
}

impl fmt::Debug for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            PredImpl::Expr(e) => write!(f, "Predicate({e})"),
            PredImpl::Native { name, .. } => write!(f, "Predicate(native:{name})"),
        }
    }
}

/// What [`Checker::check_safety`] should look for.
#[derive(Debug, Clone)]
pub struct SafetyChecks {
    /// Report states where no process can move and not every process is in
    /// a marked end location.
    pub deadlock: bool,
    /// Named predicates that must hold in every reachable state.
    pub invariants: Vec<(String, Predicate)>,
}

impl SafetyChecks {
    /// Checks for deadlock only.
    pub fn deadlock_only() -> SafetyChecks {
        SafetyChecks {
            deadlock: true,
            invariants: Vec::new(),
        }
    }

    /// Checks the given invariants (and deadlock).
    pub fn invariants(invariants: Vec<(String, Predicate)>) -> SafetyChecks {
        SafetyChecks {
            deadlock: true,
            invariants,
        }
    }
}

impl Default for SafetyChecks {
    fn default() -> SafetyChecks {
        SafetyChecks::deadlock_only()
    }
}

/// A cooperative cancellation handle for long-running searches.
///
/// Clone it, hand one copy to [`Checker::with_cancellation`], and call
/// [`CancelToken::cancel`] from anywhere (another thread, a signal
/// handler) to make the search stop at its next budget checkpoint with a
/// [`SafetyOutcome::LimitReached`] partial result.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Which search budget stopped an exploration early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// [`SearchConfig::max_states`] unique states were interned.
    States,
    /// [`SearchConfig::max_time`] wall-clock time elapsed.
    Time,
    /// [`SearchConfig::max_depth`] was reached on every remaining
    /// frontier state.
    Depth,
    /// The [`SearchConfig::max_memory_bytes`] estimate was exceeded.
    Memory,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::States => "state budget",
            BudgetKind::Time => "time budget",
            BudgetKind::Depth => "depth budget",
            BudgetKind::Memory => "memory budget",
            BudgetKind::Cancelled => "cancellation",
        })
    }
}

/// Exploration limits and options.
///
/// All budgets degrade gracefully: tripping one ends the search with a
/// [`SafetyOutcome::LimitReached`] carrying partial [`SearchStats`]
/// instead of a panic or a silently-truncated `Holds`.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Stop after interning this many unique states (default one million).
    pub max_states: usize,
    /// Apply partial-order reduction (default on). The reduction is sound
    /// for deadlocks, assertions, and properties over *global* variables;
    /// it switches itself off automatically when a property uses a native
    /// predicate or when weak-fairness liveness search is requested.
    pub partial_order_reduction: bool,
    /// Stop once this much wall-clock time has elapsed (default none).
    pub max_time: Option<Duration>,
    /// Do not expand states deeper than this many steps from the initial
    /// state (default none). Everything up to the bound is still checked.
    pub max_depth: Option<usize>,
    /// Stop once the *estimated* memory footprint of the visited set and
    /// frontier exceeds this many bytes (default none). The estimate
    /// counts state payloads plus interning overhead; it is deterministic
    /// and usually within a small factor of the true footprint.
    pub max_memory_bytes: Option<usize>,
    /// Which visited-set backend to use (default [`VisitedKind::Exact`]).
    /// The lossy backends ([`VisitedKind::Compact`],
    /// [`VisitedKind::Bitstate`]) trade completeness for memory: a
    /// completed search then reports [`SafetyOutcome::HoldsApprox`] with
    /// the estimated omission probability instead of a definitive
    /// [`SafetyOutcome::Holds`].
    pub visited: VisitedKind,
    /// Number of worker threads for the safety search (default 1).
    ///
    /// `0` or `1` expands one state at a time on the calling thread and
    /// spawns none. Larger values take the frontier a round of states at a
    /// time, expand the round's states on that many threads, and then
    /// commit the expansions one by one in queue order through the same
    /// code: every state id, parent link, counterexample and counter
    /// except `elapsed` and `approx_memory_bytes` is the one-thread run's.
    /// Only the budget, spill and checkpoint checks coarsen, to once per
    /// round; every visited backend, spilling, checkpoints and resume
    /// work at any thread count. LTL checking ([`Checker::check_ltl`])
    /// ignores this field: its nested DFS runs on the calling thread at
    /// any value, so an LTL report does not depend on it.
    pub threads: usize,
    /// Memory-pressure spill threshold in bytes (default none). When the
    /// estimated footprint crosses it, the search moves its in-RAM exact
    /// visited set and frontier to the out-of-core structures *mid-run*
    /// (the [`VisitedKind::DiskExact`] backend plus a spilled frontier)
    /// instead of tripping [`SafetyOutcome::LimitReached`]. With a lossy
    /// visited backend only the frontier can spill. At `threads > 1` the
    /// threshold is checked once per round of states.
    pub spill_at_bytes: Option<usize>,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            max_states: 1_000_000,
            partial_order_reduction: true,
            max_time: None,
            max_depth: None,
            max_memory_bytes: None,
            visited: VisitedKind::Exact,
            threads: 1,
            spill_at_bytes: None,
        }
    }
}

impl SearchConfig {
    /// Shrinks the time budget to at most `window` — the deadline→budget
    /// wiring used by the service plane. A caller holding an end-to-end
    /// deadline re-derives the remaining window at every hop (dispatch,
    /// migration, hedged retry) and clamps with it, so a job never runs
    /// past its original envelope no matter how many times it moves. A
    /// zero window still arms a minimal budget (1 ms) so the search trips
    /// [`BudgetKind::Time`] immediately and reports honest partial stats
    /// instead of being skipped.
    pub fn clamp_time(&mut self, window: Duration) {
        let window = window.max(Duration::from_millis(1));
        self.max_time = Some(match self.max_time {
            Some(existing) => existing.min(window),
            None => window,
        });
    }
}

/// Statistics from one exploration.
///
/// Also the partial-progress record when a budget trips: together with
/// [`SafetyOutcome::LimitReached`] these fields make a budget trip
/// diagnosable from the report alone (how far the search got, how much it
/// still had queued, and roughly how much memory it was holding).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Unique states interned.
    pub unique_states: usize,
    /// Transitions (edges) explored.
    pub steps: usize,
    /// Length of the longest shortest-path explored (BFS depth).
    pub max_depth: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Largest BFS frontier (queue length) observed.
    pub peak_frontier: usize,
    /// Estimated peak memory footprint in bytes of the visited hash table
    /// plus frontier (state payloads and interning overhead).
    pub approx_memory_bytes: usize,
    /// Violations found under a lossy visited-set backend that exact
    /// replay could not confirm and were therefore *not* reported (zero in
    /// practice; the counter exists so silent drops are visible).
    pub replay_rejected: usize,
    /// States written to out-of-core spill storage (visited-set runs plus
    /// frontier chunks). Zero for a search that never spilled.
    pub spilled_states: usize,
    /// Bytes written to spill storage, including compaction rewrites.
    pub spill_bytes: usize,
    /// Merge-compaction passes over the on-disk visited runs.
    pub merge_passes: usize,
}

/// Renders a byte count with units chosen by magnitude (KiB, MiB, or
/// GiB), so multi-GiB runs don't print million-KiB figures.
fn fmt_bytes(bytes: usize) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= 1024.0 * MIB {
        format!("{:.1} GiB", b / (1024.0 * MIB))
    } else if b >= MIB {
        format!("{:.1} MiB", b / MIB)
    } else {
        format!("{} KiB", bytes / 1024)
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} steps, depth {}, peak frontier {}, ~{}, {:?}",
            self.unique_states,
            self.steps,
            self.max_depth,
            self.peak_frontier,
            fmt_bytes(self.approx_memory_bytes),
            self.elapsed
        )?;
        if self.spilled_states > 0 || self.spill_bytes > 0 {
            write!(
                f,
                " (spilled {} states, {}, {} merges)",
                self.spilled_states,
                fmt_bytes(self.spill_bytes),
                self.merge_passes
            )?;
        }
        Ok(())
    }
}

/// The result of a safety check.
#[derive(Debug, Clone, PartialEq)]
pub enum SafetyOutcome {
    /// No violation found in the explored (complete, unless `LimitReached`)
    /// state space.
    Holds,
    /// The search completed under a *lossy* visited-set backend: no
    /// violation was found, but a hash collision could have hidden part of
    /// the state space, so this is a strong probabilistic verdict rather
    /// than a proof. (The converse direction is exact: violations reported
    /// under lossy backends are always real — see
    /// [`SearchStats::replay_rejected`].)
    HoldsApprox {
        /// The lossy backend that was used.
        hash_mode: VisitedKind,
        /// Unique states the search believes it visited.
        states_visited: usize,
        /// Estimated probability that any single new distinct state would
        /// have been wrongly skipped at the end of the search (for
        /// bitstate, the Bloom-filter estimate `(1 − e^(−kn/m))^k`; for
        /// compact hashing, `n / 2^64`).
        omission_probability: f64,
    },
    /// A named invariant does not hold in some reachable state.
    InvariantViolated {
        /// The invariant's name.
        name: String,
        /// Shortest counterexample.
        trace: Trace,
    },
    /// An in-model assertion failed.
    AssertionFailed {
        /// The assertion's message.
        message: String,
        /// Shortest counterexample.
        trace: Trace,
    },
    /// A reachable state has no enabled steps and is not a valid
    /// termination.
    Deadlock {
        /// Shortest path to the deadlock.
        trace: Trace,
    },
    /// A search budget tripped before the state space was exhausted.
    ///
    /// This is a *partial* result, not an error: no violation was found
    /// in the portion covered (`states_covered` interned states; see the
    /// report's [`SearchStats`] for depth, frontier, and memory
    /// figures). The property may still fail in the unexplored part.
    LimitReached {
        /// Which budget stopped the search.
        budget: BudgetKind,
        /// Unique states fully or partially explored before the stop.
        states_covered: usize,
        /// Queue length (states discovered but not yet expanded) at the
        /// moment the budget tripped.
        frontier: usize,
    },
    /// A native invariant predicate panicked while evaluating a reachable
    /// state. The panic is caught and isolated to this outcome instead of
    /// unwinding through the search.
    PredicateError {
        /// The invariant whose predicate panicked.
        name: String,
        /// The panic payload, if it was a string.
        message: String,
        /// Shortest path to the state that made the predicate panic.
        trace: Trace,
    },
}

impl SafetyOutcome {
    /// `true` when the full state space was searched and no violation was
    /// found. An approximate verdict ([`SafetyOutcome::HoldsApprox`]) is
    /// *not* `Holds`: use [`SafetyOutcome::holds_modulo_hashing`] to
    /// accept both.
    pub fn is_holds(&self) -> bool {
        matches!(self, SafetyOutcome::Holds)
    }

    /// `true` when no violation was found in a completed search, whether
    /// the visited set was exact or lossy.
    pub fn holds_modulo_hashing(&self) -> bool {
        matches!(
            self,
            SafetyOutcome::Holds | SafetyOutcome::HoldsApprox { .. }
        )
    }

    /// The counterexample trace, if there is a violation.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            SafetyOutcome::Holds
            | SafetyOutcome::HoldsApprox { .. }
            | SafetyOutcome::LimitReached { .. } => None,
            SafetyOutcome::InvariantViolated { trace, .. }
            | SafetyOutcome::AssertionFailed { trace, .. }
            | SafetyOutcome::PredicateError { trace, .. }
            | SafetyOutcome::Deadlock { trace } => Some(trace),
        }
    }

    /// `true` when the search stopped on a budget with a partial result.
    pub fn is_limit_reached(&self) -> bool {
        matches!(self, SafetyOutcome::LimitReached { .. })
    }
}

/// The report of a safety check: the outcome plus exploration statistics.
#[derive(Debug, Clone)]
pub struct SafetyReport {
    /// What was found.
    pub outcome: SafetyOutcome,
    /// Exploration statistics.
    pub stats: SearchStats,
    /// `true` when a search budget ([`SearchConfig::max_states`],
    /// `max_time`, `max_depth`, `max_memory_bytes`, or cancellation)
    /// stopped exploration before the state space was exhausted. The
    /// outcome is then [`SafetyOutcome::LimitReached`] unless a violation
    /// was found first.
    pub truncated: bool,
}

impl fmt::Display for SafetyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match &self.outcome {
            SafetyOutcome::Holds => "holds".to_string(),
            SafetyOutcome::HoldsApprox {
                hash_mode,
                states_visited,
                omission_probability,
            } => format!(
                "holds modulo hashing ({hash_mode}; {states_visited} states; \
                 omission probability ≈ {omission_probability:.2e})"
            ),
            SafetyOutcome::InvariantViolated { name, trace } => {
                format!("invariant '{name}' violated ({}-step trace)", trace.len())
            }
            SafetyOutcome::AssertionFailed { message, trace } => {
                format!("assertion '{message}' failed ({}-step trace)", trace.len())
            }
            SafetyOutcome::Deadlock { trace } => {
                format!("deadlock ({}-step trace)", trace.len())
            }
            SafetyOutcome::LimitReached {
                budget,
                states_covered,
                frontier,
            } => format!(
                "inconclusive: {budget} tripped after {states_covered} states \
                 ({frontier} queued)"
            ),
            SafetyOutcome::PredicateError { name, message, .. } => {
                format!("predicate error in '{name}': {message}")
            }
        };
        write!(f, "{verdict} [{}]", self.stats)?;
        if self.truncated {
            write!(f, " (truncated)")?;
        }
        Ok(())
    }
}

/// What evaluating the invariants at one state produced.
enum InvariantHit {
    /// Some invariant is false there.
    Violated(String),
    /// Some native predicate panicked there.
    Panicked {
        /// The invariant's name.
        name: String,
        /// The stringified panic payload.
        message: String,
    },
}

/// Evaluates every invariant at one state; `Some` when one is violated or
/// its native predicate panicked (the panic is caught and isolated to a
/// [`SafetyOutcome::PredicateError`] instead of unwinding the search).
fn eval_invariants(
    checks: &SafetyChecks,
    view: &StateView<'_>,
) -> Result<Option<InvariantHit>, KernelError> {
    for (name, predicate) in &checks.invariants {
        match catch_unwind(AssertUnwindSafe(|| predicate.eval(view))) {
            Ok(Ok(true)) => {}
            Ok(Ok(false)) => return Ok(Some(InvariantHit::Violated(name.clone()))),
            Ok(Err(error)) => return Err(error),
            Err(payload) => {
                return Ok(Some(InvariantHit::Panicked {
                    name: name.clone(),
                    message: panic_message(payload.as_ref()),
                }))
            }
        }
    }
    Ok(None)
}

/// Converts an [`InvariantHit`] plus its counterexample into an outcome.
fn hit_outcome(hit: InvariantHit, trace: Trace) -> SafetyOutcome {
    match hit {
        InvariantHit::Violated(name) => SafetyOutcome::InvariantViolated { name, trace },
        InvariantHit::Panicked { name, message } => SafetyOutcome::PredicateError {
            name,
            message,
            trace,
        },
    }
}

/// Rebuilds the counterexample trace for state `id` by replaying its
/// discovery chain from the initial state. Under a lossy backend
/// (`verify`), each step is additionally checked for enabledness and the
/// replay must land exactly on `expect` — `Ok(None)` means the chain does
/// not replay (a hash-collision artifact) and the finding must be
/// dropped, so lossy backends never report a false alarm.
fn rebuild_trace(
    program: &Program,
    parents: &[Option<(usize, Step)>],
    id: usize,
    expect: &State,
    verify: bool,
) -> Result<Option<Trace>, KernelError> {
    let mut chain = Vec::new();
    let mut cur = id;
    while let Some((parent, step)) = parents[cur] {
        chain.push(step);
        cur = parent;
    }
    chain.reverse();
    let mut state = State::initial(program);
    let mut events = Vec::new();
    for step in chain {
        if verify && !enabled_steps(program, &state)?.contains(&step) {
            return Ok(None);
        }
        let applied = apply_step(program, &state, step)?;
        events.extend(applied.events);
        state = applied.state;
    }
    if verify && state != *expect {
        return Ok(None);
    }
    Ok(Some(Trace::new(events)))
}

/// Extracts a readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

/// Estimated bytes one interned state costs: the state's words (the
/// program's [`Layout`](crate::state::Layout) fixes their number) plus a
/// flat bookkeeping figure. A flat per-state figure keeps the memory
/// budget deterministic.
///
/// The bookkeeping is billed on purpose as the store before the row arena
/// cost: a boxed, reference-counted [`State`] (its header and two
/// counters), a pointer-sized hash-set entry plus a control byte, the
/// parent link and the depth. The arena's real overhead is smaller (a
/// carried hash and about 12 bytes of id table per row), but re-billing
/// would move every memory-budget trip and spill point, so it waits for
/// the benchmark's spill budget to be chosen again.
fn approx_state_bytes(program: &Program) -> usize {
    use std::mem::size_of;
    let words = program.layout.words() * size_of::<i32>();
    let state = size_of::<State>() + 2 * size_of::<usize>();
    let entry = size_of::<usize>() + 1;
    let parent = size_of::<Option<(usize, Step)>>() + size_of::<usize>();
    words + state + entry + parent
}

/// Captures the visited-set backend's content for a snapshot. Exact sets
/// serialize nothing — their content is reconstructed from the parent links
/// on resume, which is smaller and self-validating. The bitstate arena is
/// borrowed, not copied; compact hashes are sorted into a copy.
fn visited_payload(visited: &AnyVisited) -> VisitedPayload<'_> {
    match visited {
        AnyVisited::Exact(_) | AnyVisited::Disk(_) => VisitedPayload::Exact,
        AnyVisited::Compact(set) => VisitedPayload::Compact(set.snapshot_hashes().into()),
        AnyVisited::Bitstate(set) => {
            let (arena, inserted) = set.snapshot_arena();
            VisitedPayload::Bitstate {
                arena: arena.into(),
                inserted: inserted as u64,
            }
        }
    }
}

/// Encodes the search state into a snapshot, straight from the search's
/// own parent links, depths and queue, and hands it to the sink. Sink
/// failures, and a spilled queue that cannot be read back, surface as
/// [`KernelError::Snapshot`].
#[allow(clippy::too_many_arguments)]
fn flush_checkpoint(
    sink: &Rc<RefCell<dyn SnapshotSink>>,
    fingerprint: u64,
    tag: &str,
    visited: &AnyVisited,
    frontier: &Frontier,
    parents: &[Option<(usize, Step)>],
    depths: &[usize],
    stats: &SearchStats,
    elapsed: Duration,
) -> Result<(), KernelError> {
    let payload = visited_payload(visited);
    let image = SearchImage {
        fingerprint,
        tag,
        kind: visited.kind(),
        stats: SnapStats {
            steps: stats.steps as u64,
            max_depth: stats.max_depth as u64,
            peak_frontier: stats.peak_frontier as u64,
            approx_memory_bytes: stats.approx_memory_bytes as u64,
            elapsed_nanos: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            replay_rejected: stats.replay_rejected as u64,
            spilled_states: stats.spilled_states as u64,
            spill_bytes: stats.spill_bytes as u64,
            merge_passes: stats.merge_passes as u64,
        },
        parents,
        depths,
        visited: &payload,
    };
    let bytes = image
        .encode(frontier.len(), |row| frontier.for_each_row(visited, row))
        .map_err(|error| KernelError::Snapshot {
            message: format!("out-of-core frontier snapshot failed: {error}"),
        })?;
    sink.borrow_mut()
        .store(&bytes)
        .map_err(|error| KernelError::Snapshot {
            message: error.to_string(),
        })
}

/// Replays every state's discovery chain recorded in `parents` into an
/// arena whose row ids are the state ids (parent ids are strictly smaller
/// than their children's, so a single forward pass suffices).
fn replay_states(
    program: &Program,
    parents: &[Option<(usize, Step)>],
) -> Result<StateArena, KernelError> {
    let corrupt = |message: String| KernelError::Snapshot { message };
    let mut arena = StateArena::new();
    let mut parent_state = State::initial(program);
    let mut state = State::initial(program);
    for (id, parent) in parents.iter().enumerate() {
        match parent {
            None if id == 0 => {}
            None => {
                return Err(corrupt(format!(
                    "state {id} has no parent but is not the root"
                )))
            }
            Some((parent_id, step)) => {
                arena.load(*parent_id as u32, &mut parent_state);
                apply_step_into(program, &parent_state, *step, &mut state, None)?;
            }
        }
        match arena.intern(&state, |_| true) {
            Interned::New(_) => {}
            Interned::Old(twin) => return Err(corrupt(format!("state {id} repeats state {twin}"))),
            Interned::Refused => return Err(corrupt(format!("state {id} is past the arena"))),
        }
    }
    Ok(arena)
}

/// Rebuilds the visited-set backend recorded in a snapshot. Exact and
/// disk-backed sets are reconstructed by replaying every state's discovery
/// chain; lossy backends restore their serialized hash content directly.
/// `storage` is where a [`VisitedKind::DiskExact`] rebuild puts its runs.
fn restore_visited(
    program: &Program,
    snapshot: &Snapshot,
    per_state_bytes: usize,
    storage: &(VfsHandle, PathBuf),
    spill_at: Option<usize>,
) -> Result<AnyVisited, KernelError> {
    match &snapshot.visited {
        VisitedPayload::Exact if snapshot.kind == VisitedKind::DiskExact => {
            let mut disk =
                new_disk_visited(storage, spill_at).map_err(|error| KernelError::Snapshot {
                    message: format!("cannot prepare spill storage: {error}"),
                })?;
            let arena = replay_states(program, &snapshot.parents)?;
            for id in 0..arena.len() as u32 {
                disk.insert_new(arena.row(id), arena.hash(id));
                if let Some(error) = disk.take_error() {
                    return Err(KernelError::Snapshot {
                        message: format!("out-of-core visited rebuild failed: {error}"),
                    });
                }
            }
            // The snapshot already carries the uninterrupted spill totals;
            // the rebuild's own writes must not be double-counted.
            disk.reset_spill_counters();
            Ok(AnyVisited::Disk(disk))
        }
        VisitedPayload::Exact => Ok(AnyVisited::Exact(ExactVisited::from_arena(
            replay_states(program, &snapshot.parents)?,
            per_state_bytes,
        ))),
        VisitedPayload::Compact(hashes) => Ok(AnyVisited::Compact(CompactVisited::from_hashes(
            hashes.iter().copied(),
        ))),
        VisitedPayload::Bitstate { arena, inserted } => {
            let VisitedKind::Bitstate {
                arena_bytes,
                hashes,
            } = snapshot.kind
            else {
                return Err(KernelError::Snapshot {
                    message: "bitstate payload under a non-bitstate visited kind".to_string(),
                });
            };
            Ok(AnyVisited::Bitstate(BitstateVisited::from_arena(
                arena_bytes,
                hashes,
                arena.to_vec(),
                usize::try_from(*inserted).unwrap_or(usize::MAX),
            )))
        }
    }
}

/// The exact backend's arena, which an id frontier indexes.
fn exact_rows(visited: &AnyVisited) -> &StateArena {
    match visited {
        AnyVisited::Exact(set) => set.arena(),
        _ => unreachable!("an id frontier belongs to the exact backend"),
    }
}

/// The BFS queue. Under the exact backend every state is a row of its
/// arena, so the queue holds row ids. The other backends keep no states,
/// so their queue holds the rows themselves, in RAM until the spill
/// threshold moves them out of core.
enum Frontier {
    Ids(VecDeque<u32>),
    Rows(RowQueue),
    /// Boxed: a spilled frontier is rare and several times the others'
    /// size.
    Disk(Box<SpillFrontier>),
}

impl Frontier {
    /// An empty queue for the states of `visited`.
    fn new(visited: &AnyVisited) -> Frontier {
        match visited {
            AnyVisited::Exact(_) => Frontier::Ids(VecDeque::new()),
            _ => Frontier::Rows(RowQueue::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Frontier::Ids(queue) => queue.len(),
            Frontier::Rows(queue) => queue.len(),
            Frontier::Disk(spill) => spill.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// RAM resident bytes, as billed (a spilled frontier holds only its
    /// head/tail windows and chunk bookkeeping in memory).
    fn ram_bytes(&self, per_state_bytes: usize) -> usize {
        match self {
            Frontier::Ids(_) | Frontier::Rows(_) => self.len() * per_state_bytes,
            Frontier::Disk(spill) => spill.ram_bytes(),
        }
    }

    /// Pops the oldest state into `into` and returns its id.
    fn pop_front(&mut self, visited: &AnyVisited, into: &mut State) -> io::Result<Option<usize>> {
        match self {
            Frontier::Ids(queue) => Ok(queue.pop_front().map(|id| {
                exact_rows(visited).load(id, into);
                id as usize
            })),
            Frontier::Rows(queue) => Ok(queue.pop_front_into(into)),
            Frontier::Disk(spill) => spill.pop_front_into(into),
        }
    }

    /// Queues the new state `id`, whose words are `state`.
    fn push_back(&mut self, id: usize, state: &State) -> io::Result<()> {
        match self {
            Frontier::Ids(queue) => queue.push_back(id as u32),
            Frontier::Rows(queue) => queue.push_back(id, state.words(), state.content_hash()),
            Frontier::Disk(spill) => {
                return spill.push_back(id, state.words(), state.content_hash())
            }
        }
        Ok(())
    }

    /// Puts the uncommitted states of a round back at the front, in the
    /// order they were popped; infallible in every representation, so a
    /// rollback on a budget trip or an I/O failure can never fail.
    fn requeue(&mut self, round: &[Expansion]) {
        for Expansion { id, state, .. } in round.iter().rev() {
            let (words, hash) = (state.words(), state.content_hash());
            match self {
                Frontier::Ids(queue) => queue.push_front(*id as u32),
                Frontier::Rows(queue) => queue.push_front(*id, words, hash),
                Frontier::Disk(spill) => spill.push_front(*id, words, hash),
            }
        }
    }

    /// Hands every queued state to `row` as (id, words), in FIFO order,
    /// for checkpoint flushes.
    fn for_each_row(
        &self,
        visited: &AnyVisited,
        row: &mut dyn FnMut(usize, &[i32]),
    ) -> io::Result<()> {
        match self {
            Frontier::Ids(queue) => {
                let arena = exact_rows(visited);
                for &id in queue {
                    row(id as usize, arena.row(id));
                }
            }
            Frontier::Rows(queue) => {
                for (id, words, _) in queue.iter() {
                    row(id, words);
                }
            }
            Frontier::Disk(spill) => spill.for_each_row(row)?,
        }
        Ok(())
    }
}

/// The queue of a resumed search: its frontier's states, in the
/// snapshot's order (snapshots from older builds may list them in
/// (depth, id) order, so the ids need not be a contiguous tail). Under the
/// exact backend each state must be the row its id names.
fn restore_frontier(snapshot: &Snapshot, visited: &AnyVisited) -> Result<Frontier, KernelError> {
    let mut frontier = Frontier::new(visited);
    for (id, state) in &snapshot.frontier {
        if let Frontier::Ids(_) = frontier {
            let arena = exact_rows(visited);
            if arena.row(*id as u32) != state.words() {
                return Err(KernelError::Snapshot {
                    message: format!("frontier state {id} is not the state its parents replay to"),
                });
            }
        }
        // In RAM, so the push cannot fail.
        frontier
            .push_back(*id, state)
            .expect("an in-RAM queue push is infallible");
    }
    Ok(frontier)
}

/// Deterministic RAM-footprint estimate of the live search structures.
fn memory_estimate(
    visited: &AnyVisited,
    frontier: &Frontier,
    n_states: usize,
    per_state_bytes: usize,
) -> usize {
    match visited {
        AnyVisited::Exact(_) => {
            // Frontier states are rows of the visited set's arena; only the
            // queue entries themselves count, billed a word each (see
            // `approx_state_bytes` for why the billing is kept).
            visited.approx_bytes() + frontier.len() * std::mem::size_of::<usize>()
        }
        _ => {
            // Lossy and disk backends keep no RAM payloads: the per-state
            // cost is the parent/depth bookkeeping plus the frontier's
            // RAM-resident payloads.
            let parent_entry =
                std::mem::size_of::<Option<(usize, Step)>>() + std::mem::size_of::<usize>();
            visited.approx_bytes() + n_states * parent_entry + frontier.ram_bytes(per_state_bytes)
        }
    }
}

// Out-of-core tuning derived from the spill threshold: a tiny threshold
// (tests, chaos harnesses) gets proportionally tiny write buffers, Bloom
// front, and frontier chunks, so spilling actually exercises the disk
// structures instead of hiding everything in RAM buffers.
//
// The floors are deliberately *not* proportional all the way down: below a
// sane minimum chunk size, every few states cost a run-file write plus a
// merge-compaction rewrite, turning a linear search into quadratic I/O (a
// 0-byte budget once wrote ~70× its payload). Clamping to a few KiB per
// structure bounds the churn at a worst-case ~128 KiB of buffered RAM —
// an honest fixed cost that any out-of-core run must afford.

/// Minimum per-partition write-buffer size (bytes), large enough to
/// amortize run writes and keep compaction rare. Across the 16 partitions
/// about 64 KiB of payloads stay buffered, so a search of a few hundred
/// small states writes no visited run at all; its frontier still spills.
const MIN_DISK_BUF_CAP: usize = 4 << 10;
/// Minimum Bloom-front arena (bytes). A saturated Bloom front forwards
/// every probe to run files, so starving it trades RAM for a read storm.
const MIN_DISK_BLOOM_BYTES: usize = 32 << 10;
/// Minimum frontier chunk size (bytes) before the tail spills. Chunks are
/// written once, read once and never merged, so a small chunk costs only
/// its few file operations, not a rewrite; 1 KiB amortizes those and still
/// lets a small search's frontier reach the disk.
const MIN_FRONTIER_CHUNK_CAP: usize = 1 << 10;

fn disk_buf_cap(spill_at: Option<usize>) -> usize {
    spill_at.map_or(DiskExactVisited::DEFAULT_BUF_CAP, |at| {
        (at / 32).clamp(MIN_DISK_BUF_CAP, DiskExactVisited::DEFAULT_BUF_CAP)
    })
}

fn disk_bloom_bytes(spill_at: Option<usize>) -> usize {
    spill_at.map_or(DiskExactVisited::DEFAULT_BLOOM_BYTES, |at| {
        (at / 2).clamp(MIN_DISK_BLOOM_BYTES, DiskExactVisited::DEFAULT_BLOOM_BYTES)
    })
}

fn frontier_chunk_cap(spill_at: Option<usize>) -> usize {
    spill_at.map_or(1 << 20, |at| {
        (at / 8).clamp(MIN_FRONTIER_CHUNK_CAP, 1 << 20)
    })
}

/// A fresh scratch directory under the system temp dir, for a search that
/// needs spill storage but was given none via [`Checker::spill_to`]. A
/// process-wide counter keeps concurrent searches apart.
fn default_spill_storage() -> (VfsHandle, PathBuf) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pnp-spill-{}-{n}", std::process::id()));
    (crate::vfs::real_fs(), dir)
}

/// Removes a [`default_spill_storage`] directory when the search that
/// made it ends, by whatever path: a verdict, a tripped budget, an error,
/// a cancellation or a panic. Nothing refers to the directory after the
/// search: a checkpoint copies the spilled frontier into the snapshot,
/// and resume rebuilds a disk-backed visited set from the parent links.
struct SpillDirGuard(PathBuf);

impl Drop for SpillDirGuard {
    fn drop(&mut self) {
        // The directory is absent when nothing spilled.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Constructs the disk-backed visited set under `storage`.
fn new_disk_visited(
    storage: &(VfsHandle, PathBuf),
    spill_at: Option<usize>,
) -> io::Result<DiskExactVisited> {
    DiskExactVisited::new(
        VfsHandle::clone(&storage.0),
        storage.1.join("visited"),
        disk_buf_cap(spill_at),
        disk_bloom_bytes(spill_at),
    )
}

/// Decides how an out-of-core I/O failure degrades: a full disk trips the
/// memory budget (an honest `LimitReached` partial result — the structures
/// stay consistent, a failed flush keeps its states buffered); anything
/// else aborts the attempt as a transient [`KernelError::Snapshot`].
fn spill_trip(error: &io::Error, what: &str) -> Result<BudgetKind, KernelError> {
    if error.kind() == io::ErrorKind::StorageFull {
        Ok(BudgetKind::Memory)
    } else {
        Err(KernelError::Snapshot {
            message: format!("{what}: {error}"),
        })
    }
}

/// Moves the in-RAM exact visited set and/or RAM frontier out of core:
/// the arena's rows go to a [`DiskExactVisited`] in content-hash order,
/// the frontier's rows to a [`SpillFrontier`], and then the arena is
/// freed. Non-destructive on failure: each RAM structure is only replaced
/// after its disk counterpart is fully built, so a failed transition
/// leaves the search state intact for an honest budget trip.
fn spill_to_disk(
    storage: &(VfsHandle, PathBuf),
    spill_at: Option<usize>,
    per_state_bytes: usize,
    visited: &mut AnyVisited,
    frontier: &mut Frontier,
) -> io::Result<()> {
    if let AnyVisited::Exact(set) = &*visited {
        let arena = set.arena();
        let mut disk = new_disk_visited(storage, spill_at)?;
        // Content-hash order makes the spill's disk-op sequence a
        // function of the state set alone.
        let mut ids: Vec<u32> = (0..arena.len() as u32).collect();
        ids.sort_unstable_by_key(|&id| arena.hash(id));
        for id in ids {
            disk.insert_new(arena.row(id), arena.hash(id));
            if let Some(error) = disk.take_error() {
                return Err(error);
            }
        }
        // The queued rows leave the arena before it goes.
        if let Frontier::Ids(queue) = &*frontier {
            let mut rows = RowQueue::new();
            for &id in queue {
                rows.push_back(id as usize, arena.row(id), arena.hash(id));
            }
            *frontier = Frontier::Rows(rows);
        }
        *visited = AnyVisited::Disk(disk);
    }
    if let Frontier::Rows(rows) = &*frontier {
        let mut spill = SpillFrontier::new(
            VfsHandle::clone(&storage.0),
            storage.1.join("frontier"),
            frontier_chunk_cap(spill_at),
            per_state_bytes,
        )?;
        for (id, words, hash) in rows.iter() {
            spill.push_back(id, words, hash)?;
        }
        *frontier = Frontier::Disk(Box::new(spill));
    }
    Ok(())
}

/// Folds the live out-of-core counters into the stats, on top of the
/// baseline carried over from a resume snapshot — so a resumed spilled run
/// reports exactly the uninterrupted totals.
fn sync_spill_stats(
    stats: &mut SearchStats,
    base: (usize, usize, usize),
    visited: &AnyVisited,
    frontier: &Frontier,
) {
    let (mut spilled_states, mut spill_bytes, mut merge_passes) = base;
    if let AnyVisited::Disk(disk) = visited {
        spilled_states += disk.spilled_states();
        spill_bytes += disk.spill_bytes();
        merge_passes += disk.merge_passes();
    }
    if let Frontier::Disk(spill) = frontier {
        spilled_states += spill.spilled_states();
        spill_bytes += spill.spill_bytes();
    }
    stats.spilled_states = spilled_states;
    stats.spill_bytes = spill_bytes;
    stats.merge_passes = merge_passes;
}

/// Frontier states taken per round when [`SearchConfig::threads`] is above
/// one. A round's states are expanded concurrently and then committed one
/// by one, so the budget, spill and checkpoint checks run once per round.
/// Large enough that starting the round's workers is a small share of its
/// cost; small enough that its successors stay a few MiB.
const ROUND_STATES: usize = 1024;

/// States a worker claims from a round at a time.
const CLAIM_STATES: usize = 16;

/// One frontier state of a round and what expanding it produced: its
/// steps, each applied step's successor and failed assertion, in step
/// order. The buffers are reused from round to round.
struct Expansion {
    id: usize,
    state: State,
    /// `false` past [`SearchConfig::max_depth`]: the state was checked
    /// when it was discovered, and only its expansion is skipped.
    within_depth: bool,
    /// The enabled steps, restricted to an ample subset under reduction.
    steps: Vec<Step>,
    /// The successor along `steps[k]` is `successors[k]`; entries past
    /// `failed.len()` are stale.
    successors: Vec<State>,
    /// For each applied step, the message of the assertion it failed.
    failed: Vec<Option<String>>,
    /// The model error that stopped the expansion after `failed.len()`
    /// steps.
    error: Option<KernelError>,
}

impl Expansion {
    fn new(program: &Program) -> Expansion {
        Expansion {
            id: 0,
            state: State::initial(program),
            within_depth: true,
            steps: Vec::new(),
            successors: Vec::new(),
            failed: Vec::new(),
            error: None,
        }
    }

    /// Expands the state. Reads only the program and this expansion, so
    /// the states of a round can be expanded on any threads. `message` is
    /// scratch for a rendezvous send's fields.
    fn run(
        &mut self,
        program: &Program,
        reduction: Option<&LocalLocations>,
        message: &mut Vec<i32>,
    ) {
        self.failed.clear();
        self.error = None;
        if !self.within_depth {
            return;
        }
        if let Err(error) = enabled_steps_into(program, &self.state, &mut self.steps, message) {
            self.steps.clear();
            self.error = Some(error);
            return;
        }
        if self.steps.is_empty() {
            return;
        }
        if let Some(analysis) = reduction {
            ample_subset(analysis, program, &self.state, &mut self.steps);
        }
        for (k, &step) in self.steps.iter().enumerate() {
            if k == self.successors.len() {
                self.successors.push(self.state.clone());
            }
            match apply_step_into(program, &self.state, step, &mut self.successors[k], None) {
                Ok(failed) => self.failed.push(failed),
                Err(error) => {
                    self.error = Some(error);
                    return;
                }
            }
        }
    }
}

/// Expands every state of a round: on the calling thread when `threads`
/// is one or the round is a single claim, otherwise on up to `threads`
/// scoped workers, the calling thread among them, that claim
/// [`CLAIM_STATES`] states at a time.
fn expand_round(
    program: &Program,
    reduction: Option<&LocalLocations>,
    round: &mut [Expansion],
    threads: usize,
    message: &mut Vec<i32>,
) {
    let workers = threads.min(round.len().div_ceil(CLAIM_STATES));
    if workers <= 1 {
        for expansion in round {
            expansion.run(program, reduction, message);
        }
        return;
    }
    let claims = Mutex::new(round.chunks_mut(CLAIM_STATES));
    let work = || {
        let mut message = Vec::new();
        loop {
            let claim = claims.lock().expect("round claims poisoned").next();
            let Some(claim) = claim else { break };
            for expansion in claim {
                expansion.run(program, reduction, &mut message);
            }
        }
    };
    thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// The explicit-state model checker.
///
/// Create one per [`Program`]; the checking methods are read-only and can be
/// called repeatedly (e.g. once per property).
#[derive(Clone)]
pub struct Checker<'p> {
    pub(crate) program: &'p Program,
    pub(crate) config: SearchConfig,
    pub(crate) cancel: Option<CancelToken>,
    /// Flush a checkpoint every this many newly interned states (0 = only
    /// on a budget trip or cancellation).
    checkpoint_every: usize,
    /// Where checkpoints go, when checkpointing is enabled.
    sink: Option<Rc<RefCell<dyn SnapshotSink>>>,
    /// Caller label stored in snapshots (e.g. the property name).
    tag: String,
    /// Search state to resume from, set by [`Checker::resume_from`].
    resume: Option<Snapshot>,
    /// Where out-of-core structures live, set by [`Checker::spill_to`].
    storage: Option<(VfsHandle, PathBuf)>,
}

impl fmt::Debug for Checker<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checker")
            .field("config", &self.config)
            .field("cancel", &self.cancel)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("has_sink", &self.sink.is_some())
            .field("tag", &self.tag)
            .field("resuming", &self.resume.is_some())
            .field("has_storage", &self.storage.is_some())
            .finish_non_exhaustive()
    }
}

impl<'p> Checker<'p> {
    /// Creates a checker with the default [`SearchConfig`].
    pub fn new(program: &'p Program) -> Checker<'p> {
        Checker::with_config(program, SearchConfig::default())
    }

    /// Creates a checker with explicit limits.
    pub fn with_config(program: &'p Program, config: SearchConfig) -> Checker<'p> {
        Checker {
            program,
            config,
            cancel: None,
            checkpoint_every: 0,
            sink: None,
            tag: String::new(),
            resume: None,
            storage: None,
        }
    }

    /// Creates a checker that resumes an interrupted safety search from a
    /// [`Snapshot`].
    ///
    /// The snapshot's program fingerprint must match `program`; the
    /// visited-set backend recorded in the snapshot is used regardless of
    /// any later [`Checker::with_search_config`] (a search cannot change
    /// backend midway). Budgets start at the default config — callers
    /// typically raise them via [`Checker::with_search_config`], otherwise
    /// the same budget that tripped the original run trips again.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::FingerprintMismatch`] when the snapshot
    /// was taken from a different program, and
    /// [`SnapshotError::Corrupted`] when a frontier state does not fit the
    /// program's state layout.
    pub fn resume_from(
        program: &'p Program,
        snapshot: Snapshot,
    ) -> Result<Checker<'p>, SnapshotError> {
        let expected = program_fingerprint(program);
        if snapshot.fingerprint != expected {
            return Err(SnapshotError::FingerprintMismatch {
                expected,
                found: snapshot.fingerprint,
            });
        }
        let words = program.layout.words();
        if let Some((id, state)) = snapshot
            .frontier
            .iter()
            .find(|(_, state)| state.words().len() != words)
        {
            return Err(SnapshotError::Corrupted(format!(
                "frontier state {id} has {} words; this program's states have {words}",
                state.words().len()
            )));
        }
        let mut checker = Checker::with_config(
            program,
            SearchConfig {
                visited: snapshot.kind,
                ..SearchConfig::default()
            },
        );
        checker.tag = snapshot.tag.clone();
        checker.resume = Some(snapshot);
        Ok(checker)
    }

    /// Replaces the search configuration. On a resuming checker the
    /// visited-set backend stays pinned to the snapshot's backend.
    pub fn with_search_config(mut self, config: SearchConfig) -> Checker<'p> {
        self.config = config;
        if let Some(snapshot) = &self.resume {
            self.config.visited = snapshot.kind;
        }
        self
    }

    /// Directs out-of-core storage — the [`VisitedKind::DiskExact`]
    /// backend's runs and any spilled frontier chunks — to `dir` on `vfs`.
    ///
    /// Without this, a search that needs spill storage uses a fresh
    /// scratch directory under the system temp dir on the real
    /// filesystem. The directory is scratch space: each search wipes any
    /// stale run files it finds there, and nothing in it outlives the
    /// search usefully.
    pub fn spill_to(mut self, vfs: VfsHandle, dir: impl Into<PathBuf>) -> Checker<'p> {
        self.storage = Some((vfs, dir.into()));
        self
    }

    /// Attaches a cooperative cancellation token; cancelling it makes any
    /// running search stop at its next checkpoint with
    /// [`SafetyOutcome::LimitReached`] (and flush a final snapshot when a
    /// checkpoint sink is attached).
    pub fn with_cancellation(mut self, token: CancelToken) -> Checker<'p> {
        self.cancel = Some(token);
        self
    }

    /// Attaches a checkpoint sink. While a safety search runs, snapshots
    /// are flushed to the sink periodically (see
    /// [`Checker::checkpoint_every`]) and — always — when a budget trips
    /// or the search is cancelled, so an interrupted run loses no work.
    pub fn checkpoint_to(mut self, sink: impl SnapshotSink + 'static) -> Checker<'p> {
        self.sink = Some(Rc::new(RefCell::new(sink)));
        self
    }

    /// Flush a checkpoint every `n_states` newly interned states (in
    /// addition to the final flush on a trip or cancellation). `0`
    /// (the default) disables periodic flushes.
    pub fn checkpoint_every(mut self, n_states: usize) -> Checker<'p> {
        self.checkpoint_every = n_states;
        self
    }

    /// Sets the label stored in snapshots, so a multi-property driver can
    /// tell which property an interrupted checkpoint belongs to.
    pub fn checkpoint_tag(mut self, tag: impl Into<String>) -> Checker<'p> {
        self.tag = tag.into();
        self
    }

    /// The program under check.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Exhaustively explores the reachable state space (breadth-first) and
    /// checks the requested safety properties. Counterexamples are
    /// shortest-path.
    ///
    /// With a lossy visited-set backend ([`SearchConfig::visited`]), a
    /// completed search reports [`SafetyOutcome::HoldsApprox`]; any
    /// violation is re-validated by exact replay from the initial state
    /// before being reported, so lossy backends can hide violations but
    /// never fabricate them.
    ///
    /// With a checkpoint sink attached ([`Checker::checkpoint_to`]),
    /// snapshots are flushed periodically and on every budget trip or
    /// cancellation; [`Checker::resume_from`] continues such a search with
    /// identical results to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when the model itself is broken (an
    /// expression fails to evaluate), when storing a checkpoint fails, or
    /// when a resume snapshot's contents do not replay.
    pub fn check_safety(&self, checks: &SafetyChecks) -> Result<SafetyReport, KernelError> {
        let start = Instant::now();
        let program = self.program;
        let spill_at = self.config.spill_at_bytes;
        // Resolved lazily in spirit but once in practice: the directory is
        // only ever created when something actually spills. A caller's
        // directory stays; the default one goes when `_scratch` drops,
        // after the out-of-core structures declared below it.
        let (storage, _scratch) = match &self.storage {
            Some((vfs, dir)) => ((VfsHandle::clone(vfs), dir.clone()), None),
            None => {
                let storage = default_spill_storage();
                let guard = SpillDirGuard(storage.1.clone());
                (storage, Some(guard))
            }
        };

        // Partial-order reduction is only sound when every property reads
        // globals alone (local steps are then invisible).
        let reduction = (self.config.partial_order_reduction
            && checks.invariants.iter().all(|(_, p)| p.is_expr_only()))
        .then(|| LocalLocations::analyze(program));

        let per_state_bytes = approx_state_bytes(program);
        let lossy = self.config.visited.is_lossy();
        // Only needed when snapshots are written (resume verified it
        // already); computing it walks the whole program, so gate it.
        let fingerprint = if self.sink.is_some() {
            program_fingerprint(program)
        } else {
            0
        };

        // Search state: parent links and depths per interned state id, the
        // frontier (discovered, unexpanded states: arena row ids under the
        // exact backend, rows otherwise), and the visited-set backend.
        // Fresh, or restored from a snapshot.
        let mut stats = SearchStats::default();
        let mut base_elapsed = Duration::ZERO;
        let mut visited: AnyVisited;
        let mut parents: Vec<Option<(usize, Step)>>;
        let mut depths: Vec<usize>;
        let mut frontier: Frontier;

        if let Some(snapshot) = &self.resume {
            visited = restore_visited(program, snapshot, per_state_bytes, &storage, spill_at)?;
            parents = snapshot.parents.clone();
            depths = snapshot.depths.clone();
            frontier = restore_frontier(snapshot, &visited)?;
            stats.steps = snapshot.stats.steps as usize;
            stats.max_depth = snapshot.stats.max_depth as usize;
            stats.peak_frontier = snapshot.stats.peak_frontier as usize;
            stats.approx_memory_bytes = snapshot.stats.approx_memory_bytes as usize;
            stats.replay_rejected = snapshot.stats.replay_rejected as usize;
            stats.spilled_states = snapshot.stats.spilled_states as usize;
            stats.spill_bytes = snapshot.stats.spill_bytes as usize;
            stats.merge_passes = snapshot.stats.merge_passes as usize;
            base_elapsed = Duration::from_nanos(snapshot.stats.elapsed_nanos);
        } else {
            let initial = State::initial(program);
            if let Some(hit) = eval_invariants(checks, &StateView::new(program, &initial))? {
                return Ok(SafetyReport {
                    outcome: hit_outcome(hit, Trace::default()),
                    stats: SearchStats {
                        unique_states: 1,
                        elapsed: start.elapsed(),
                        ..stats
                    },
                    truncated: false,
                });
            }
            visited = match self.config.visited {
                VisitedKind::DiskExact => {
                    AnyVisited::Disk(new_disk_visited(&storage, spill_at).map_err(|error| {
                        KernelError::Snapshot {
                            message: format!("cannot prepare spill storage: {error}"),
                        }
                    })?)
                }
                kind => AnyVisited::new(kind, per_state_bytes),
            };
            visited.insert_if_new(&initial, true);
            parents = vec![None];
            depths = vec![0];
            frontier = Frontier::new(&visited);
            frontier
                .push_back(0, &initial)
                .expect("an in-RAM queue push is infallible");
            stats.peak_frontier = 1;
        }

        // Spill totals carried over from a resume snapshot; the live
        // structure counters start at zero and add on top, so a resumed
        // run reports exactly the uninterrupted totals.
        let spill_base = (stats.spilled_states, stats.spill_bytes, stats.merge_passes);

        let mut tripped: Option<BudgetKind> = None;
        let mut depth_trimmed = false;
        let mut states_at_last_flush = parents.len();
        // The round: the states popped off the front of the queue together,
        // with their expansions. One state at one thread, so every check
        // below runs before each state; up to `ROUND_STATES` at more.
        let threads = self.config.threads.max(1);
        let round_cap = if threads > 1 { ROUND_STATES } else { 1 };
        let mut round: Vec<Expansion> = Vec::new();
        // A rendezvous send's message is built in this, reused across states.
        let mut message = Vec::new();

        'search: loop {
            if frontier.is_empty() {
                break 'search;
            }
            // A disk-backed visited set parks write failures instead of
            // returning them through the infallible trait; drain them here
            // so a full disk degrades to an honest budget trip before the
            // next expansion. (Probe failures never get this far — they
            // abort their expansion immediately, see below.)
            if let AnyVisited::Disk(disk) = &mut visited {
                if let Some(error) = disk.take_error() {
                    tripped = Some(spill_trip(&error, "out-of-core visited write failed")?);
                    break 'search;
                }
            }
            // Budget checkpoints run once per round, *before* its states
            // are popped, so a tripped search's frontier (and thus its
            // snapshot) is complete and resumable without loss.
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                tripped = Some(BudgetKind::Cancelled);
                break 'search;
            }
            if let Some(limit) = self.config.max_time {
                if base_elapsed + start.elapsed() >= limit {
                    tripped = Some(BudgetKind::Time);
                    break 'search;
                }
            }
            let mut mem = memory_estimate(&visited, &frontier, parents.len(), per_state_bytes);
            stats.approx_memory_bytes = stats.approx_memory_bytes.max(mem);
            // Graceful degradation: crossing the spill threshold moves the
            // RAM structures out of core instead of tripping a budget. The
            // estimate is recomputed so the memory budget below sees the
            // post-spill footprint.
            if let Some(threshold) = spill_at {
                let spillable = matches!(visited, AnyVisited::Exact(_))
                    || !matches!(frontier, Frontier::Disk(_));
                if spillable && mem >= threshold {
                    match spill_to_disk(
                        &storage,
                        spill_at,
                        per_state_bytes,
                        &mut visited,
                        &mut frontier,
                    ) {
                        Ok(()) => {
                            mem = memory_estimate(
                                &visited,
                                &frontier,
                                parents.len(),
                                per_state_bytes,
                            );
                        }
                        Err(error) => {
                            tripped = Some(spill_trip(&error, "mid-run spill failed")?);
                            break 'search;
                        }
                    }
                }
            }
            if let Some(limit) = self.config.max_memory_bytes {
                if mem >= limit {
                    tripped = Some(BudgetKind::Memory);
                    break 'search;
                }
            }
            if self.checkpoint_every > 0
                && parents.len() - states_at_last_flush >= self.checkpoint_every
            {
                if let Some(sink) = &self.sink {
                    stats.unique_states = parents.len();
                    sync_spill_stats(&mut stats, spill_base, &visited, &frontier);
                    flush_checkpoint(
                        sink,
                        fingerprint,
                        &self.tag,
                        &visited,
                        &frontier,
                        &parents,
                        &depths,
                        &stats,
                        base_elapsed + start.elapsed(),
                    )?;
                    states_at_last_flush = parents.len();
                }
            }

            // Pop the round, in queue order.
            let mut len = 0;
            while len < round_cap {
                if len == round.len() {
                    round.push(Expansion::new(program));
                }
                let slot = &mut round[len];
                match frontier.pop_front(&visited, &mut slot.state) {
                    Ok(Some(id)) => {
                        slot.id = id;
                        slot.within_depth = self.config.max_depth.is_none_or(|l| depths[id] < l);
                        len += 1;
                    }
                    Ok(None) => break,
                    Err(error) => {
                        frontier.requeue(&round[..len]);
                        tripped = Some(spill_trip(&error, "out-of-core frontier read failed")?);
                        break 'search;
                    }
                }
            }
            if len == 0 {
                break 'search;
            }
            expand_round(
                program,
                reduction.as_ref(),
                &mut round[..len],
                threads,
                &mut message,
            );

            // Commit the expansions in queue order, exactly as one thread
            // expands and commits each state in turn.
            'states: for at in 0..len {
                let expansion = &round[at];
                let (id, state) = (expansion.id, &expansion.state);
                let mut steps_this_expansion = 0;
                // Evaluates to why the search stops at this state, with
                // its expansion rolled back.
                let stop = 'commit: {
                    // The drain above, for the rest of a round.
                    if at > 0 {
                        if let AnyVisited::Disk(disk) = &mut visited {
                            if let Some(error) = disk.take_error() {
                                break 'commit spill_trip(
                                    &error,
                                    "out-of-core visited write failed",
                                );
                            }
                        }
                    }
                    if !expansion.within_depth {
                        depth_trimmed = true;
                        continue 'states;
                    }
                    stats.max_depth = stats.max_depth.max(depths[id]);

                    if expansion.steps.is_empty() && expansion.error.is_none() {
                        if checks.deadlock && !is_valid_end_state(program, state) {
                            match rebuild_trace(program, &parents, id, state, lossy)? {
                                Some(trace) => {
                                    stats.unique_states = parents.len();
                                    stats.elapsed = base_elapsed + start.elapsed();
                                    sync_spill_stats(&mut stats, spill_base, &visited, &frontier);
                                    return Ok(SafetyReport {
                                        outcome: SafetyOutcome::Deadlock { trace },
                                        stats,
                                        truncated: false,
                                    });
                                }
                                None => stats.replay_rejected += 1,
                            }
                        }
                        continue 'states;
                    }

                    for (k, failed) in expansion.failed.iter().enumerate() {
                        let (step, successor) = (expansion.steps[k], &expansion.successors[k]);
                        stats.steps += 1;
                        steps_this_expansion += 1;

                        // Assertions fire on the edge: report even when the
                        // target state was already visited.
                        if let Some(message) = failed {
                            match rebuild_trace(program, &parents, id, state, lossy)? {
                                Some(prefix) => {
                                    let mut events = prefix.events().to_vec();
                                    events.extend(apply_step(program, state, step)?.events);
                                    stats.unique_states = parents.len();
                                    stats.elapsed = base_elapsed + start.elapsed();
                                    sync_spill_stats(&mut stats, spill_base, &visited, &frontier);
                                    return Ok(SafetyReport {
                                        outcome: SafetyOutcome::AssertionFailed {
                                            message: message.clone(),
                                            trace: Trace::new(events),
                                        },
                                        stats,
                                        truncated: false,
                                    });
                                }
                                None => {
                                    stats.replay_rejected += 1;
                                    continue;
                                }
                            }
                        }

                        // Budget counting point: `insert_if_new` refuses
                        // only genuinely new states once `max_states` is
                        // reached, so duplicates are never charged (see
                        // `tests/golden_state_counts.rs` for the regression
                        // pinning it).
                        let room = parents.len() < self.config.max_states;
                        match visited.insert_if_new(successor, room) {
                            Insert::Inserted => {}
                            Insert::Duplicate => {
                                if let AnyVisited::Disk(disk) = &mut visited {
                                    if let Some(error) = disk.take_error() {
                                        // A failed membership probe cannot
                                        // be trusted: interning on a
                                        // conservative "new" answer could
                                        // double-count the state.
                                        break 'commit spill_trip(
                                            &error,
                                            "out-of-core visited probe failed",
                                        );
                                    }
                                }
                                continue;
                            }
                            Insert::BudgetExhausted => break 'commit Ok(BudgetKind::States),
                        }
                        let next_id = parents.len();
                        parents.push(Some((id, step)));
                        depths.push(depths[id] + 1);

                        if let Some(hit) =
                            eval_invariants(checks, &StateView::new(program, successor))?
                        {
                            match rebuild_trace(program, &parents, next_id, successor, lossy)? {
                                Some(trace) => {
                                    stats.unique_states = parents.len();
                                    stats.elapsed = base_elapsed + start.elapsed();
                                    sync_spill_stats(&mut stats, spill_base, &visited, &frontier);
                                    return Ok(SafetyReport {
                                        outcome: hit_outcome(hit, trace),
                                        stats,
                                        truncated: false,
                                    });
                                }
                                None => stats.replay_rejected += 1,
                            }
                        }
                        if let Err(error) = frontier.push_back(next_id, successor) {
                            // The new state is retained in the spilled
                            // frontier's RAM tail even when its chunk flush
                            // fails, so the search state (and any final
                            // snapshot) stays complete.
                            break 'commit spill_trip(&error, "out-of-core frontier write failed");
                        }
                        // The round's uncommitted states are still queued
                        // at one thread.
                        stats.peak_frontier =
                            stats.peak_frontier.max(frontier.len() + len - at - 1);
                    }
                    if let Some(error) = &expansion.error {
                        return Err(error.clone());
                    }
                    continue 'states;
                };
                // Roll the partial expansion back and requeue this state and
                // the rest of its round at the front, so the snapshot
                // frontier is exact and a resumed run re-expands them —
                // re-counting every transition while the dedup check skips
                // the successors interned before the stop, so totals stay
                // exactly those of an uninterrupted run.
                stats.steps -= steps_this_expansion;
                frontier.requeue(&round[at..len]);
                tripped = Some(stop?);
                break 'search;
            }
        }

        // A depth-trimmed search that found nothing is still incomplete.
        if tripped.is_none() && depth_trimmed {
            tripped = Some(BudgetKind::Depth);
        }
        stats.unique_states = parents.len();
        stats.elapsed = base_elapsed + start.elapsed();
        sync_spill_stats(&mut stats, spill_base, &visited, &frontier);
        let outcome = match tripped {
            Some(budget) => {
                // An interrupted search always flushes a final snapshot:
                // budget trips and cancellation lose no work.
                if let Some(sink) = &self.sink {
                    flush_checkpoint(
                        sink,
                        fingerprint,
                        &self.tag,
                        &visited,
                        &frontier,
                        &parents,
                        &depths,
                        &stats,
                        stats.elapsed,
                    )?;
                }
                SafetyOutcome::LimitReached {
                    budget,
                    states_covered: parents.len(),
                    frontier: frontier.len(),
                }
            }
            None if lossy => SafetyOutcome::HoldsApprox {
                hash_mode: visited.kind(),
                states_visited: parents.len(),
                omission_probability: visited.omission_probability(),
            },
            None => SafetyOutcome::Holds,
        };
        Ok(SafetyReport {
            outcome,
            stats,
            truncated: tripped.is_some(),
        })
    }

    /// Searches for a reachable state satisfying `predicate`, returning the
    /// shortest witness trace if one exists (`Ok(Some(trace))`), or
    /// `Ok(None)` when no reachable state satisfies it.
    ///
    /// Reachability is the dual of an invariant: this is implemented as a
    /// violation search for `!predicate`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when the model is broken.
    ///
    /// ```
    /// # use pnp_kernel::{expr, Action, Checker, Guard, Predicate,
    /// #                  ProcessBuilder, ProgramBuilder};
    /// # let mut prog = ProgramBuilder::new();
    /// # let x = prog.global("x", 0);
    /// # let mut p = ProcessBuilder::new("p");
    /// # let s0 = p.location("s0");
    /// # let s1 = p.location("s1");
    /// # p.mark_end(s1);
    /// # p.transition(s0, s1, Guard::always(), Action::assign(x, 5.into()), "set");
    /// # prog.add_process(p)?;
    /// # let program = prog.build()?;
    /// let checker = Checker::new(&program);
    /// let witness = checker.find_reachable(&Predicate::from_expr(
    ///     expr::eq(expr::global(x), 5.into()),
    /// ))?;
    /// assert!(witness.is_some());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn find_reachable(&self, predicate: &Predicate) -> Result<Option<Trace>, KernelError> {
        let report = self.check_safety(&SafetyChecks {
            deadlock: false,
            invariants: vec![("(reachability probe)".into(), predicate.negated())],
        })?;
        Ok(match report.outcome {
            SafetyOutcome::InvariantViolated { trace, .. } => Some(trace),
            _ => None,
        })
    }

    /// Replays a counterexample [`Trace`] against the program, verifying
    /// that its event sequence corresponds to a chain of enabled steps
    /// from the initial state. Returns the state the trace ends in, or
    /// `None` when the trace does not replay (no enabled step matches the
    /// next events at some point).
    ///
    /// Matching is greedy over the events each candidate step produces; a
    /// program whose distinct transitions emit identical event sequences
    /// from the same state can in principle make a genuine trace fail to
    /// replay, but every trace the checker itself reports uses the
    /// discovery chain and replays under this method.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when the model is broken.
    pub fn replay_trace(&self, trace: &Trace) -> Result<Option<State>, KernelError> {
        let program = self.program;
        let mut state = State::initial(program);
        let events = trace.events();
        let mut pos = 0;
        while pos < events.len() {
            let mut advanced = false;
            for step in enabled_steps(program, &state)? {
                let applied = apply_step(program, &state, step)?;
                let n = applied.events.len();
                if n > 0 && pos + n <= events.len() && applied.events[..] == events[pos..pos + n] {
                    state = applied.state;
                    pos += n;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return Ok(None);
            }
        }
        Ok(Some(state))
    }

    /// Counts the reachable state space without checking any property.
    /// Useful for measuring the cost of a design (see the paper's Section 6
    /// discussion of decomposition-induced state growth).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when the model is broken.
    pub fn state_space_size(&self) -> Result<SearchStats, KernelError> {
        let report = self.check_safety(&SafetyChecks {
            deadlock: false,
            invariants: Vec::new(),
        })?;
        Ok(report.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::expr;
    use crate::program::{Action, Guard, ProcessBuilder, ProgramBuilder};
    use crate::trace::EventKind;

    /// Two processes that each toggle a shared flag n times.
    fn toggler(n: i32) -> Program {
        let mut prog = ProgramBuilder::new();
        let flag = prog.global("flag", 0);
        for name in ["a", "b"] {
            let mut p = ProcessBuilder::new(name);
            let count = p.local("count", 0);
            let s0 = p.location("loop");
            let s1 = p.location("done");
            p.mark_end(s1);
            p.transition(
                s0,
                s0,
                Guard::when(expr::lt(expr::local(count), n.into())),
                Action::assign_all(vec![
                    (flag.into(), expr::not(expr::global(flag))),
                    (count.into(), expr::local(count) + 1.into()),
                ]),
                "toggle",
            );
            p.transition(
                s0,
                s1,
                Guard::when(expr::ge(expr::local(count), n.into())),
                Action::Skip,
                "finish",
            );
            prog.add_process(p).unwrap();
        }
        prog.build().unwrap()
    }

    /// `k` independent processes each counting a local var to `n`:
    /// `(n + 1 + 1)^k` states with a BFS frontier wide enough (the
    /// diagonal of a `k`-cube) to overflow the minimum frontier chunk
    /// and force real chunk flushes — unlike `toggler`, whose frontier
    /// never grows past a few dozen states.
    fn counters(k: usize, n: i32) -> Program {
        let mut prog = ProgramBuilder::new();
        for i in 0..k {
            let mut p = ProcessBuilder::new(format!("c{i}"));
            let count = p.local("count", 0);
            let work = p.location("work");
            let done = p.location("done");
            p.mark_end(done);
            p.transition(
                work,
                work,
                Guard::when(expr::lt(expr::local(count), n.into())),
                Action::assign(count, expr::local(count) + 1.into()),
                "inc",
            );
            p.transition(
                work,
                done,
                Guard::when(expr::ge(expr::local(count), n.into())),
                Action::Skip,
                "finish",
            );
            prog.add_process(p).unwrap();
        }
        prog.build().unwrap()
    }

    #[test]
    fn tiny_spill_budget_completes_within_bounded_disk_ops() {
        // Regression for the derived-floor pathology: a 0-byte spill
        // budget used to derive near-zero write buffers and frontier
        // chunks, so every few states cost a run-file write plus a
        // merge-compaction rewrite — quadratic I/O on a linear search.
        // The floors now clamp to sane minimum chunk sizes, so the total
        // op count stays within a small multiple of the state count.
        let program = toggler(200);
        let fs = Arc::new(crate::vfs::SimFs::new(37));
        let report = Checker::with_config(
            &program,
            SearchConfig {
                spill_at_bytes: Some(0),
                ..SearchConfig::default()
            },
        )
        .spill_to(fs.clone() as crate::vfs::VfsHandle, "/spill")
        .check_safety(&SafetyChecks::deadlock_only())
        .unwrap();
        assert_eq!(report.outcome, SafetyOutcome::Holds);
        assert!(report.stats.spilled_states > 0, "{}", report.stats);
        let ops = fs.op_count();
        let states = report.stats.unique_states as u64;
        // With sane floors the run stays well under 1 op and ~1 KiB of
        // run-file writes per state (measured ~0.34 ops and ~190 B); the
        // old proportional floors burned ~2.8 ops and ~3.6 KiB per state.
        assert!(
            ops < states,
            "disk ops regressed to pathological levels: {ops} ops for {states} states"
        );
        assert!(
            report.stats.spill_bytes < report.stats.unique_states * 1000,
            "write amplification regressed: {} bytes for {states} states",
            report.stats.spill_bytes
        );
    }

    #[test]
    fn holds_for_true_invariant() {
        let program = toggler(2);
        let flag = program.global_by_name("flag").unwrap();
        let checker = Checker::new(&program);
        let report = checker
            .check_safety(&SafetyChecks::invariants(vec![(
                "flag is 0 or 1".into(),
                Predicate::from_expr(expr::and(
                    expr::ge(expr::global(flag), 0.into()),
                    expr::le(expr::global(flag), 1.into()),
                )),
            )]))
            .unwrap();
        assert!(report.outcome.is_holds());
        assert!(!report.truncated);
        assert!(report.stats.unique_states > 1);
    }

    #[test]
    fn finds_invariant_violation_with_shortest_trace() {
        let program = toggler(2);
        let flag = program.global_by_name("flag").unwrap();
        let checker = Checker::new(&program);
        let report = checker
            .check_safety(&SafetyChecks::invariants(vec![(
                "flag stays 0".into(),
                Predicate::from_expr(expr::eq(expr::global(flag), 0.into())),
            )]))
            .unwrap();
        match report.outcome {
            SafetyOutcome::InvariantViolated { name, trace } => {
                assert_eq!(name, "flag stays 0");
                // One toggle suffices; BFS must find the 1-step trace.
                assert_eq!(trace.len(), 1);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn initial_state_violation_gives_empty_trace() {
        let program = toggler(1);
        let checker = Checker::new(&program);
        let report = checker
            .check_safety(&SafetyChecks::invariants(vec![(
                "impossible".into(),
                Predicate::from_expr(0.into()),
            )]))
            .unwrap();
        match report.outcome {
            SafetyOutcome::InvariantViolated { trace, .. } => assert!(trace.is_empty()),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn detects_deadlock_on_mutual_wait() {
        // Two processes each wait to receive before sending: classic deadlock.
        let mut prog = ProgramBuilder::new();
        let c1 = prog.channel("c1", 0, 1);
        let c2 = prog.channel("c2", 0, 1);
        for (name, recv_chan, send_chan) in [("p", c1, c2), ("q", c2, c1)] {
            let mut p = ProcessBuilder::new(name);
            let s0 = p.location("wait");
            let s1 = p.location("reply");
            let s2 = p.location("done");
            p.mark_end(s2);
            p.transition(
                s0,
                s1,
                Guard::always(),
                Action::recv_any(recv_chan, 1),
                "recv",
            );
            p.transition(
                s1,
                s2,
                Guard::always(),
                Action::send(send_chan, vec![1.into()]),
                "send",
            );
            prog.add_process(p).unwrap();
        }
        let program = prog.build().unwrap();
        let report = Checker::new(&program)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        match report.outcome {
            SafetyOutcome::Deadlock { trace } => assert!(trace.is_empty()),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn valid_end_states_are_not_deadlocks() {
        let program = toggler(1);
        let report = Checker::new(&program)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        assert!(report.outcome.is_holds());
    }

    #[test]
    fn unmarked_termination_is_a_deadlock() {
        let mut prog = ProgramBuilder::new();
        let mut p = ProcessBuilder::new("p");
        let s0 = p.location("start");
        let s1 = p.location("stuck"); // not marked as an end location
        p.transition(s0, s1, Guard::always(), Action::Skip, "step");
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let report = Checker::new(&program)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        match report.outcome {
            SafetyOutcome::Deadlock { trace } => {
                assert_eq!(trace.len(), 1);
                assert_eq!(trace.events()[0].label(), "step");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn assertion_failures_are_found_with_trace() {
        let mut prog = ProgramBuilder::new();
        let x = prog.global("x", 0);
        let mut p = ProcessBuilder::new("p");
        let s0 = p.location("inc");
        let s1 = p.location("check");
        let s2 = p.location("done");
        p.mark_end(s2);
        p.transition(
            s0,
            s1,
            Guard::always(),
            Action::assign(x, expr::global(x) + 2.into()),
            "x += 2",
        );
        p.transition(
            s1,
            s2,
            Guard::always(),
            Action::assert(expr::lt(expr::global(x), 2.into()), "x < 2"),
            "assert",
        );
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let report = Checker::new(&program)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        match report.outcome {
            SafetyOutcome::AssertionFailed { message, trace } => {
                assert_eq!(message, "x < 2");
                assert_eq!(trace.len(), 2);
                assert!(matches!(trace.events()[1].kind(), EventKind::Internal));
            }
            other => panic!("expected assertion failure, got {other:?}"),
        }
    }

    #[test]
    fn native_predicates_see_full_state() {
        let program = toggler(1);
        let pid = program.process_by_name("a").unwrap();
        let report = Checker::new(&program)
            .check_safety(&SafetyChecks::invariants(vec![(
                "a never finishes".into(),
                Predicate::native("a not done", move |view| view.location_name(pid) != "done"),
            )]))
            .unwrap();
        assert!(matches!(
            report.outcome,
            SafetyOutcome::InvariantViolated { .. }
        ));
    }

    #[test]
    fn max_states_truncates_search() {
        let program = toggler(10);
        let checker = Checker::with_config(
            &program,
            SearchConfig {
                max_states: 5,
                ..SearchConfig::default()
            },
        );
        let report = checker
            .check_safety(&SafetyChecks {
                deadlock: false,
                invariants: Vec::new(),
            })
            .unwrap();
        assert!(report.truncated);
        assert!(report.stats.unique_states <= 5);
    }

    #[test]
    fn zero_time_budget_returns_partial_result() {
        let program = toggler(10);
        let checker = Checker::with_config(
            &program,
            SearchConfig {
                max_time: Some(Duration::ZERO),
                ..SearchConfig::default()
            },
        );
        let report = checker
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        match report.outcome {
            SafetyOutcome::LimitReached {
                budget,
                states_covered,
                ..
            } => {
                assert_eq!(budget, BudgetKind::Time);
                assert!(states_covered >= 1);
            }
            other => panic!("expected LimitReached, got {other:?}"),
        }
        assert!(report.truncated);
        // Partial stats are still populated.
        assert_eq!(report.stats.unique_states, 1);
    }

    #[test]
    fn state_estimate_bills_only_words_that_exist() {
        // One process with one local, plus the given (capacity, arity)
        // channels.
        let estimate = |chans: &[(usize, usize)]| {
            let mut prog = ProgramBuilder::new();
            for (i, &(capacity, arity)) in chans.iter().enumerate() {
                prog.channel(format!("c{i}"), capacity, arity);
            }
            let mut p = ProcessBuilder::new("p");
            p.local("x", 0);
            p.location("s0");
            prog.add_process(p).unwrap();
            approx_state_bytes(&prog.build().unwrap())
        };
        let bare = estimate(&[]);
        // Rendezvous channels never hold a message: no words, no cost.
        assert_eq!(estimate(&[(0, 1), (0, 3), (0, 2)]), bare);
        // A buffered channel costs its length word and its slots.
        assert_eq!(estimate(&[(0, 2), (3, 2)]), bare + 4 * (1 + 3 * 2));
        assert_eq!(
            estimate(&[(1, 1), (2, 4)]),
            bare + 4 * (1 + 1) + 4 * (1 + 2 * 4)
        );
    }

    #[test]
    fn tiny_memory_budget_trips_with_partial_stats() {
        let program = toggler(10);
        let checker = Checker::with_config(
            &program,
            SearchConfig {
                max_memory_bytes: Some(1024),
                ..SearchConfig::default()
            },
        );
        let report = checker
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        match report.outcome {
            SafetyOutcome::LimitReached { budget, .. } => {
                assert_eq!(budget, BudgetKind::Memory);
            }
            other => panic!("expected LimitReached, got {other:?}"),
        }
        assert!(report.stats.approx_memory_bytes >= 1024);
    }

    #[test]
    fn depth_budget_trims_but_still_checks_shallow_states() {
        let program = toggler(10);
        let flag = program.global_by_name("flag").unwrap();
        let checker = Checker::with_config(
            &program,
            SearchConfig {
                max_depth: Some(1),
                ..SearchConfig::default()
            },
        );
        // A violation within the depth bound is still found...
        let report = checker
            .check_safety(&SafetyChecks::invariants(vec![(
                "flag stays 0".into(),
                Predicate::from_expr(expr::eq(expr::global(flag), 0.into())),
            )]))
            .unwrap();
        assert!(matches!(
            report.outcome,
            SafetyOutcome::InvariantViolated { .. }
        ));
        // ...and an exhausted-at-the-bound search reports the trim.
        let report = checker
            .check_safety(&SafetyChecks {
                deadlock: false,
                invariants: Vec::new(),
            })
            .unwrap();
        assert!(matches!(
            report.outcome,
            SafetyOutcome::LimitReached {
                budget: BudgetKind::Depth,
                ..
            }
        ));
    }

    #[test]
    fn cancellation_stops_the_search() {
        let program = toggler(10);
        let token = CancelToken::new();
        token.cancel();
        let report = Checker::new(&program)
            .with_cancellation(token)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        assert!(matches!(
            report.outcome,
            SafetyOutcome::LimitReached {
                budget: BudgetKind::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn max_states_reports_limit_reached() {
        let program = toggler(10);
        let checker = Checker::with_config(
            &program,
            SearchConfig {
                max_states: 5,
                ..SearchConfig::default()
            },
        );
        let report = checker
            .check_safety(&SafetyChecks {
                deadlock: false,
                invariants: Vec::new(),
            })
            .unwrap();
        match report.outcome {
            SafetyOutcome::LimitReached {
                budget,
                states_covered,
                frontier,
            } => {
                assert_eq!(budget, BudgetKind::States);
                assert_eq!(states_covered, 5);
                assert!(frontier > 0, "an early stop must leave a frontier");
            }
            other => panic!("expected LimitReached, got {other:?}"),
        }
    }

    #[test]
    fn resume_refuses_a_frontier_state_of_another_layout() {
        let program = toggler(10);
        let sink = Rc::new(RefCell::new(Vec::new()));
        Checker::with_config(
            &program,
            SearchConfig {
                max_states: 5,
                ..SearchConfig::default()
            },
        )
        .checkpoint_to(Rc::clone(&sink))
        .check_safety(&SafetyChecks::deadlock_only())
        .unwrap();
        let mut snapshot = Snapshot::decode(&sink.borrow()).unwrap();
        assert!(Checker::resume_from(&program, snapshot.clone()).is_ok());
        // Same fingerprint, but a state one word short of the layout.
        let words = snapshot.frontier[0].1.words();
        let short = State::from_words(words[..words.len() - 1].into());
        snapshot.frontier[0].1 = short;
        match Checker::resume_from(&program, snapshot) {
            Err(SnapshotError::Corrupted(message)) => assert!(message.contains("words")),
            other => panic!("expected a corrupted-snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn panicking_native_predicate_is_isolated() {
        let program = toggler(2);
        let flag = program.global_by_name("flag").unwrap();
        let report = Checker::new(&program)
            .check_safety(&SafetyChecks::invariants(vec![(
                "panicky".into(),
                Predicate::native("explodes when flag set", move |view| {
                    assert!(view.global(flag) == 0, "predicate blew up");
                    true
                }),
            )]))
            .unwrap();
        match report.outcome {
            SafetyOutcome::PredicateError {
                name,
                message,
                trace,
            } => {
                assert_eq!(name, "panicky");
                assert!(message.contains("predicate blew up"), "{message}");
                // BFS reaches the offending state in one toggle.
                assert_eq!(trace.len(), 1);
            }
            other => panic!("expected PredicateError, got {other:?}"),
        }
    }

    #[test]
    fn stats_report_peak_frontier_and_memory() {
        let program = toggler(3);
        let report = Checker::new(&program)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        assert!(report.stats.peak_frontier >= 1);
        assert!(report.stats.approx_memory_bytes > 0);
        let text = report.stats.to_string();
        assert!(text.contains("peak frontier"), "{text}");
    }

    #[test]
    fn state_space_size_counts_interleavings() {
        // toggler(1): each process loops once then finishes.
        let small = Checker::new(&toggler(1)).state_space_size().unwrap();
        let large = Checker::new(&toggler(3)).state_space_size().unwrap();
        assert!(small.unique_states > 0);
        assert!(large.unique_states > small.unique_states);
    }

    #[test]
    fn find_reachable_returns_shortest_witness() {
        let program = toggler(2);
        let flag = program.global_by_name("flag").unwrap();
        let checker = Checker::new(&program);
        let witness = checker
            .find_reachable(&Predicate::from_expr(expr::eq(
                expr::global(flag),
                1.into(),
            )))
            .unwrap();
        assert_eq!(witness.unwrap().len(), 1);
        let none = checker
            .find_reachable(&Predicate::from_expr(expr::eq(
                expr::global(flag),
                9.into(),
            )))
            .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn negated_predicates_flip_both_variants() {
        let program = toggler(1);
        let view_holds = |p: &Predicate| {
            let initial = crate::state::State::initial(&program);
            p.eval(&StateView::new(&program, &initial)).unwrap()
        };
        let e = Predicate::from_expr(1.into());
        assert!(view_holds(&e));
        assert!(!view_holds(&e.negated()));
        let n = Predicate::native("always true", |_| true);
        assert!(view_holds(&n));
        assert!(!view_holds(&n.negated()));
    }

    #[test]
    fn reports_display_readably() {
        let program = toggler(1);
        let report = Checker::new(&program)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        let text = report.to_string();
        assert!(text.starts_with("holds ["), "{text}");
        assert!(text.contains("states"), "{text}");
    }

    #[test]
    fn broken_property_expression_is_an_error() {
        let program = toggler(1);
        let report = Checker::new(&program).check_safety(&SafetyChecks::invariants(vec![(
            "bad".into(),
            Predicate::from_expr(expr::eq(Expr::Global(99), 1.into())),
        )]));
        assert!(matches!(report, Err(KernelError::Eval { .. })));
    }

    #[test]
    fn display_picks_units_by_magnitude() {
        let mut stats = SearchStats {
            approx_memory_bytes: 3 << 30,
            ..SearchStats::default()
        };
        assert!(stats.to_string().contains("~3.0 GiB"), "{stats}");
        stats.approx_memory_bytes = 5 << 20;
        assert!(stats.to_string().contains("~5.0 MiB"), "{stats}");
        stats.approx_memory_bytes = 7 << 10;
        assert!(stats.to_string().contains("~7 KiB"), "{stats}");
        assert!(!stats.to_string().contains("spilled"), "{stats}");
        stats.spilled_states = 42;
        stats.spill_bytes = 2 << 20;
        stats.merge_passes = 3;
        let text = stats.to_string();
        assert!(
            text.contains("spilled 42 states, 2.0 MiB, 3 merges"),
            "{text}"
        );
    }

    /// Storage on a seeded simulated filesystem for out-of-core tests.
    fn sim_storage(seed: u64) -> crate::vfs::VfsHandle {
        Arc::new(crate::vfs::SimFs::new(seed))
    }

    #[test]
    fn spilled_search_matches_in_memory_run() {
        // Big enough that the clamped minimum write buffers (see
        // `MIN_DISK_BUF_CAP`) actually flush runs to disk.
        let program = toggler(50);
        let baseline = Checker::new(&program)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        let spilled = Checker::with_config(
            &program,
            SearchConfig {
                // Spill from the very first expansion.
                spill_at_bytes: Some(1),
                ..SearchConfig::default()
            },
        )
        .spill_to(sim_storage(31), "/spill")
        .check_safety(&SafetyChecks::deadlock_only())
        .unwrap();
        assert_eq!(spilled.outcome, baseline.outcome);
        assert_eq!(spilled.stats.unique_states, baseline.stats.unique_states);
        assert_eq!(spilled.stats.steps, baseline.stats.steps);
        assert_eq!(spilled.stats.max_depth, baseline.stats.max_depth);
        assert!(spilled.stats.spilled_states > 0, "{}", spilled.stats);
        assert!(spilled.stats.spill_bytes > 0, "{}", spilled.stats);
        assert_eq!(baseline.stats.spilled_states, 0);
    }

    #[test]
    fn spilled_search_finds_identical_counterexample() {
        let program = toggler(3);
        let flag = program.global_by_name("flag").unwrap();
        let checks = SafetyChecks::invariants(vec![(
            "flag stays 0".into(),
            Predicate::from_expr(expr::eq(expr::global(flag), 0.into())),
        )]);
        let baseline = Checker::new(&program).check_safety(&checks).unwrap();
        let spilled = Checker::with_config(
            &program,
            SearchConfig {
                spill_at_bytes: Some(1),
                ..SearchConfig::default()
            },
        )
        .spill_to(sim_storage(32), "/spill")
        .check_safety(&checks)
        .unwrap();
        assert_eq!(spilled.outcome, baseline.outcome);
    }

    #[test]
    fn disk_visited_backend_matches_exact() {
        let program = toggler(4);
        let baseline = Checker::new(&program)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        let disk = Checker::with_config(
            &program,
            SearchConfig {
                visited: VisitedKind::DiskExact,
                ..SearchConfig::default()
            },
        )
        .spill_to(sim_storage(33), "/spill")
        .check_safety(&SafetyChecks::deadlock_only())
        .unwrap();
        assert_eq!(disk.outcome, baseline.outcome);
        assert_eq!(disk.stats.unique_states, baseline.stats.unique_states);
        assert_eq!(disk.stats.steps, baseline.stats.steps);
        assert_eq!(disk.stats.max_depth, baseline.stats.max_depth);
        // Exhaustive under an exact backend: the verdict is definitive,
        // not approximate.
        assert_eq!(disk.outcome, SafetyOutcome::Holds);
    }

    /// Checks `program` for deadlocks under `config`, with out-of-core
    /// storage on a simulated filesystem seeded with `seed`.
    fn out_of_core_run(program: &Program, config: SearchConfig, seed: u64) -> SafetyReport {
        Checker::with_config(program, config)
            .spill_to(sim_storage(seed), "/spill")
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap()
    }

    #[test]
    fn spilled_and_disk_searches_at_two_threads_match_in_memory_run() {
        // Frontiers of hundreds of states: rounds of many claims, so the
        // expansions really run on two threads.
        let program = counters(3, 20);
        let baseline = Checker::new(&program)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        assert_eq!(baseline.outcome, SafetyOutcome::Holds);
        assert!(baseline.stats.peak_frontier > 4 * CLAIM_STATES);
        let two_threads = SearchConfig {
            threads: 2,
            spill_at_bytes: Some(1),
            ..SearchConfig::default()
        };
        let disk = SearchConfig {
            visited: VisitedKind::DiskExact,
            ..two_threads
        };
        for (name, report) in [
            ("spill", out_of_core_run(&program, two_threads, 36)),
            ("disk", out_of_core_run(&program, disk, 37)),
        ] {
            assert_eq!(report.outcome, baseline.outcome, "{name}");
            assert_eq!(
                report.stats.unique_states, baseline.stats.unique_states,
                "{name}"
            );
            assert_eq!(report.stats.steps, baseline.stats.steps, "{name}");
            assert_eq!(report.stats.max_depth, baseline.stats.max_depth, "{name}");
            assert!(report.stats.spilled_states > 0, "{name}: {}", report.stats);
        }
    }

    #[test]
    fn enospc_during_spill_degrades_to_limit_reached() {
        // Big enough to overflow the minimum write buffers and force a
        // run-file write, which is what trips the fault plan.
        let program = toggler(50);
        let fs = Arc::new(crate::vfs::SimFs::new(35));
        fs.set_plan(crate::vfs::FaultPlan {
            enospc_per_mille: 1000,
            ..crate::vfs::FaultPlan::default()
        });
        let report = Checker::with_config(
            &program,
            SearchConfig {
                spill_at_bytes: Some(1),
                ..SearchConfig::default()
            },
        )
        .spill_to(fs, "/spill")
        .check_safety(&SafetyChecks::deadlock_only())
        .unwrap();
        match report.outcome {
            SafetyOutcome::LimitReached {
                budget,
                states_covered,
                ..
            } => {
                assert_eq!(budget, BudgetKind::Memory);
                assert!(states_covered >= 1);
            }
            other => panic!("expected graceful LimitReached, got {other:?}"),
        }
        assert!(report.truncated);
    }

    #[test]
    fn enospc_interrupted_spilled_run_resumes_to_exact_totals() {
        // Regression for a partial-expansion leak: a frontier chunk
        // write that failed mid-expansion used to keep the steps already
        // counted for the interrupted state without requeueing it, so a
        // resumed run under-counted `steps` by that state's remaining
        // transitions (the serve chaos matrix caught it as a one-step
        // fingerprint divergence on enospc-during-merge seed 5).
        let program = counters(3, 16);
        let baseline = Checker::new(&program)
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();

        let fs = Arc::new(crate::vfs::SimFs::new(10));
        let config = SearchConfig {
            spill_at_bytes: Some(1),
            ..SearchConfig::default()
        };
        let buffer = Rc::new(RefCell::new(Vec::new()));
        let mut trips = 0u32;
        let report = loop {
            // Seeded ENOSPC draws against every spill write; each hit
            // must degrade to an honest memory trip whose final snapshot
            // resumes to exactly the uninterrupted totals. The plan goes
            // clean after a few trips so the loop always converges.
            fs.set_plan(if trips < 8 {
                crate::vfs::FaultPlan {
                    enospc_per_mille: 120,
                    ..crate::vfs::FaultPlan::default()
                }
            } else {
                crate::vfs::FaultPlan::default()
            });
            let checker = if buffer.borrow().is_empty() {
                Checker::with_config(&program, config)
            } else {
                let snapshot = Snapshot::decode(&buffer.borrow()).unwrap();
                Checker::resume_from(&program, snapshot)
                    .unwrap()
                    .with_search_config(config)
            };
            let attempt = checker
                .spill_to(fs.clone(), "/spill")
                .checkpoint_to(Rc::clone(&buffer))
                .check_safety(&SafetyChecks::deadlock_only());
            match attempt {
                Ok(report) => match report.outcome {
                    SafetyOutcome::LimitReached { budget, .. } => {
                        assert_eq!(budget, BudgetKind::Memory);
                        trips += 1;
                        assert!(trips < 50, "spilled search never converged");
                    }
                    _ => break report,
                },
                // An ENOSPC outside a live search (e.g. while rebuilding
                // the on-disk visited set during resume) is a clean
                // transient failure: retry from the same checkpoint.
                Err(KernelError::Snapshot { .. }) => {
                    trips += 1;
                    assert!(trips < 50, "spilled search never converged");
                }
                Err(other) => panic!("unexpected kernel error: {other}"),
            }
        };
        assert!(trips > 0, "fault plan never tripped a spill write");
        assert_eq!(report.outcome, SafetyOutcome::Holds);
        assert_eq!(report.stats.unique_states, baseline.stats.unique_states);
        assert_eq!(report.stats.steps, baseline.stats.steps);
        assert_eq!(report.stats.max_depth, baseline.stats.max_depth);
    }

    #[test]
    fn spilled_run_checkpoints_and_resumes_to_exact_totals() {
        let program = toggler(50);
        let fs = sim_storage(36);
        let config = SearchConfig {
            spill_at_bytes: Some(1),
            ..SearchConfig::default()
        };
        let uninterrupted = Checker::with_config(&program, config)
            .spill_to(fs.clone(), "/spill-a")
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();

        // Trip a state budget partway through, flushing a final snapshot.
        let buffer = Rc::new(RefCell::new(Vec::new()));
        let tripped = Checker::with_config(
            &program,
            SearchConfig {
                max_states: uninterrupted.stats.unique_states / 2,
                ..config
            },
        )
        .spill_to(fs.clone(), "/spill-b")
        .checkpoint_to(Rc::clone(&buffer))
        .check_safety(&SafetyChecks::deadlock_only())
        .unwrap();
        assert!(tripped.truncated);

        let snapshot = Snapshot::decode(&buffer.borrow()).unwrap();
        assert_eq!(snapshot.kind, VisitedKind::DiskExact);
        let resumed = Checker::resume_from(&program, snapshot)
            .unwrap()
            .with_search_config(config)
            .spill_to(fs, "/spill-b")
            .check_safety(&SafetyChecks::deadlock_only())
            .unwrap();
        assert_eq!(resumed.outcome, uninterrupted.outcome);
        assert_eq!(
            resumed.stats.unique_states,
            uninterrupted.stats.unique_states
        );
        assert_eq!(resumed.stats.steps, uninterrupted.stats.steps);
        assert_eq!(resumed.stats.max_depth, uninterrupted.stats.max_depth);
        assert!(resumed.stats.spilled_states > 0);
    }
}
