//! Level-synchronized parallel safety search: N scoped worker threads
//! with per-worker work-stealing deques over a sharded visited set.
//!
//! The search processes the BFS frontier one depth level at a time. A
//! level's jobs are dealt round-robin into per-worker deques; each worker
//! pops from the front of its own deque and, when empty, steals from the
//! back of a victim's. No new work is added to the level while it runs
//! (discoveries belong to the *next* level), so termination per level is
//! simply "all deques drained", and the join at the end of the
//! [`std::thread::scope`] is the level barrier.
//!
//! Level synchronization is what makes the parallel kernel *agree* with
//! the sequential one instead of merely approximating it:
//!
//! * the explored subgraph (with partial-order reduction, whose ample
//!   sets are a deterministic function of the state) is identical, so a
//!   completed exhaustive run reports the same `unique_states`, `steps`,
//!   and `max_depth` as the sequential kernel;
//! * counterexamples are still shortest: a violation found at level `d`
//!   ends the search before any deeper level starts;
//! * checkpoints are only cut at level barriers, when all workers are
//!   drained, so the snapshot frontier is canonical (sorted by depth and
//!   state id) and resumes under either the sequential or the parallel
//!   kernel.
//!
//! The first worker to find a counterexample under an exact backend trips
//! the shared stop flag and cancels its peers through a [`CancelToken`];
//! remaining jobs drain into the level's leftovers. Under a lossy backend
//! violations are *pending* until the coordinator exact-replay-validates
//! them at the barrier — a hash-collision artifact is dropped (counted in
//! `replay_rejected`) and the search continues, so the parallel kernel
//! inherits the sequential guarantee that lossy backends never fabricate
//! a violation.
//!
//! Budgets aggregate across workers: `max_states` is charged through a
//! single atomic [`StateBudget`] at the same counting point as the
//! sequential kernel (after deduplication, under the shard lock), time
//! and cancellation are polled per job, and the memory estimate is
//! checked at level boundaries.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::explore::{
    approx_state_bytes, eval_invariants, flush_checkpoint, hit_outcome, rebuild_trace, BudgetKind,
    CancelToken, Checker, InvariantHit, SafetyChecks, SafetyOutcome, SafetyReport, SearchStats,
};
use crate::program::Program;
use crate::reduction::{ample_subset, LocalLocations};
use crate::snapshot::{program_fingerprint, Snapshot, VisitedPayload};
use crate::state::{
    apply_step, apply_step_into, enabled_steps_into, is_valid_end_state, KernelError, State,
    StateView, Step,
};
use crate::trace::Trace;
use crate::visited::{
    AnySharedVisited, ShardedBitstateVisited, ShardedCompactVisited, ShardedExactVisited,
    SharedInsert, SharedVisitedSet, StateBudget, VisitedKind,
};

/// Stop-flag codes shared by a level's workers; the first cause wins.
const RUNNING: u8 = 0;
const STOP_STATES: u8 = 1;
const STOP_TIME: u8 = 2;
const STOP_CANCELLED: u8 = 3;
const STOP_VIOLATION: u8 = 4;
const STOP_ERROR: u8 = 5;

/// Records `code` as the stop cause unless one is already set.
fn trip(stop: &AtomicU8, code: u8) {
    let _ = stop.compare_exchange(RUNNING, code, Ordering::SeqCst, Ordering::SeqCst);
}

/// One unit of work: an interned state id and its payload.
type Job = (usize, Arc<State>);

/// A violation observed by a worker, resolved (trace rebuilt and, under a
/// lossy backend, exact-replay-validated) by the coordinator at the level
/// barrier.
enum PendingViolation {
    /// `id` has no enabled steps and is not a valid end state.
    Deadlock { id: usize, state: Arc<State> },
    /// Applying `step` from `parent` failed an in-model assertion.
    Assertion {
        parent: usize,
        parent_state: Arc<State>,
        step: Step,
        message: String,
    },
    /// This worker's `disc`-th discovery violates an invariant.
    Invariant { disc: usize, hit: InvariantHit },
}

/// Everything one worker produced during a level.
#[derive(Default)]
struct WorkerOut {
    /// Edges explored (mirrors [`SearchStats::steps`]; rolled back on a
    /// states-budget trip exactly like the sequential kernel).
    steps: usize,
    /// Newly interned states: (state, parent id, discovering step). Ids
    /// are assigned by the coordinator when the level is merged.
    discoveries: Vec<(Arc<State>, usize, Step)>,
    /// Jobs drained without expansion (stop flag set, or the job that
    /// tripped the states budget and must be re-expanded on resume).
    leftover: Vec<Job>,
    /// Violations pending coordinator resolution.
    violations: Vec<PendingViolation>,
    /// Some job sat at the `max_depth` bound and was not expanded.
    depth_trimmed: bool,
    /// At least one job was expanded (for `max_depth` stats parity).
    expanded: bool,
    /// First model error this worker hit.
    error: Option<KernelError>,
}

/// Shared read-only context for one level's workers.
struct LevelCtx<'a> {
    program: &'a Program,
    checks: &'a SafetyChecks,
    reduction: Option<&'a LocalLocations>,
    visited: &'a AnySharedVisited,
    budget: &'a StateBudget,
    stop: &'a AtomicU8,
    /// Cancelled by the first worker that confirms a violation, so peers
    /// stop expanding immediately.
    peer_cancel: &'a CancelToken,
    /// The caller's cooperative cancellation token, if any.
    user_cancel: Option<&'a CancelToken>,
    deadline: Option<Instant>,
    depth: usize,
    max_depth: Option<usize>,
    lossy: bool,
}

/// Pops the next job: front of the worker's own deque, else steal from
/// the back of the first non-empty victim. `None` means the level is
/// drained (no new jobs are ever added to a running level).
fn pop_job(w: usize, deques: &[Mutex<VecDeque<Job>>]) -> Option<Job> {
    if let Some(job) = deques[w].lock().expect("deque poisoned").pop_front() {
        return Some(job);
    }
    for i in 1..deques.len() {
        let victim = (w + i) % deques.len();
        if let Some(job) = deques[victim].lock().expect("deque poisoned").pop_back() {
            return Some(job);
        }
    }
    None
}

/// One worker's loop over a level.
fn run_worker(ctx: &LevelCtx<'_>, w: usize, deques: &[Mutex<VecDeque<Job>>]) -> WorkerOut {
    let mut out = WorkerOut::default();
    // Every successor is built in this buffer and copied out only when new;
    // the step buffers are reused across the worker's states too.
    let mut scratch = State::initial(ctx.program);
    let (mut steps, mut message) = (Vec::new(), Vec::new());
    while let Some((id, state)) = pop_job(w, deques) {
        // Once any stop cause is set, remaining jobs drain into the
        // leftovers so the checkpoint frontier stays complete.
        if ctx.stop.load(Ordering::SeqCst) != RUNNING || ctx.peer_cancel.is_cancelled() {
            out.leftover.push((id, state));
            continue;
        }
        if ctx.user_cancel.is_some_and(|c| c.is_cancelled()) {
            trip(ctx.stop, STOP_CANCELLED);
            out.leftover.push((id, state));
            continue;
        }
        if let Some(deadline) = ctx.deadline {
            if Instant::now() >= deadline {
                trip(ctx.stop, STOP_TIME);
                out.leftover.push((id, state));
                continue;
            }
        }
        if ctx.max_depth.is_some_and(|limit| ctx.depth >= limit) {
            // The state itself was checked when it was discovered; only
            // its expansion is skipped (sequential parity).
            out.depth_trimmed = true;
            continue;
        }
        if let Err(error) = expand(
            ctx,
            id,
            &state,
            &mut scratch,
            &mut steps,
            &mut message,
            &mut out,
        ) {
            trip(ctx.stop, STOP_ERROR);
            out.error = Some(error);
            out.leftover.push((id, state));
        }
    }
    out
}

/// Expands one state: enabled steps, deadlock check, ample-set reduction,
/// successor interning, and per-successor safety checks — the parallel
/// mirror of the sequential kernel's expansion loop. `scratch`, `steps`
/// and `message` are the worker's buffers, reused across its states.
fn expand(
    ctx: &LevelCtx<'_>,
    id: usize,
    state: &Arc<State>,
    scratch: &mut State,
    steps: &mut Vec<Step>,
    message: &mut Vec<i32>,
    out: &mut WorkerOut,
) -> Result<(), KernelError> {
    enabled_steps_into(ctx.program, state, steps, message)?;
    out.expanded = true;

    if steps.is_empty() {
        if ctx.checks.deadlock && !is_valid_end_state(ctx.program, state) {
            out.violations.push(PendingViolation::Deadlock {
                id,
                state: Arc::clone(state),
            });
            if !ctx.lossy {
                trip(ctx.stop, STOP_VIOLATION);
                ctx.peer_cancel.cancel();
            }
        }
        return Ok(());
    }
    if let Some(analysis) = ctx.reduction {
        ample_subset(analysis, ctx.program, state, steps);
    }

    let mut steps_this_expansion = 0;
    for &step in steps.iter() {
        out.steps += 1;
        steps_this_expansion += 1;
        let failed_assertion = apply_step_into(ctx.program, state, step, scratch, None)?;

        // Assertions fire on the edge: report even when the target state
        // was already visited. The successor is skipped either way.
        if let Some(message) = failed_assertion {
            out.violations.push(PendingViolation::Assertion {
                parent: id,
                parent_state: Arc::clone(state),
                step,
                message,
            });
            if !ctx.lossy {
                trip(ctx.stop, STOP_VIOLATION);
                ctx.peer_cancel.cancel();
                return Ok(());
            }
            continue;
        }

        match ctx.visited.insert_if_new(scratch, ctx.budget) {
            SharedInsert::Duplicate => continue,
            SharedInsert::BudgetExhausted => {
                // Mirror the sequential kernel's trip semantics: roll the
                // partial expansion's step count back and requeue this
                // state, so a resumed run re-expands it and ends up
                // counting exactly the steps an uninterrupted run would.
                out.steps -= steps_this_expansion;
                out.leftover.push((id, Arc::clone(state)));
                trip(ctx.stop, STOP_STATES);
                return Ok(());
            }
            SharedInsert::Inserted(next) => {
                let disc = out.discoveries.len();
                out.discoveries.push((Arc::clone(&next), id, step));
                if let Some(hit) = eval_invariants(ctx.checks, &StateView::new(ctx.program, &next))?
                {
                    out.violations
                        .push(PendingViolation::Invariant { disc, hit });
                    if !ctx.lossy {
                        trip(ctx.stop, STOP_VIOLATION);
                        ctx.peer_cancel.cancel();
                        return Ok(());
                    }
                }
            }
        }
    }
    Ok(())
}

/// Captures the shared visited-set backend's content for a snapshot, in
/// the exact format the sequential kernel writes (shared and sequential
/// backends use the same hash family, so snapshots interoperate).
fn shared_visited_payload(visited: &AnySharedVisited) -> VisitedPayload {
    match visited {
        AnySharedVisited::Exact(_) => VisitedPayload::Exact,
        AnySharedVisited::Compact(set) => VisitedPayload::Compact(set.snapshot_hashes()),
        AnySharedVisited::Bitstate(set) => {
            let (arena, inserted) = set.snapshot_arena();
            VisitedPayload::Bitstate {
                arena,
                inserted: inserted as u64,
            }
        }
    }
}

/// Rebuilds a *sharded* visited set from a snapshot (which may have been
/// written by either kernel). Exact sets replay every state's discovery
/// chain; lossy backends restore their serialized hashes directly.
fn restore_shared_visited(
    program: &Program,
    snapshot: &Snapshot,
    per_state_bytes: usize,
) -> Result<AnySharedVisited, KernelError> {
    match &snapshot.visited {
        VisitedPayload::Exact => {
            let set = ShardedExactVisited::new(per_state_bytes);
            let unlimited = StateBudget::unlimited();
            let mut states: Vec<Arc<State>> = Vec::with_capacity(snapshot.parents.len());
            for (id, parent) in snapshot.parents.iter().enumerate() {
                let state = match parent {
                    None if id == 0 => Arc::new(State::initial(program)),
                    None => {
                        return Err(KernelError::Snapshot {
                            message: format!("state {id} has no parent but is not the root"),
                        })
                    }
                    Some((parent_id, step)) => {
                        let applied = apply_step(program, &states[*parent_id], *step)?;
                        Arc::new(applied.state)
                    }
                };
                set.insert_if_new(&state, &unlimited);
                states.push(state);
            }
            Ok(AnySharedVisited::Exact(set))
        }
        VisitedPayload::Compact(hashes) => Ok(AnySharedVisited::Compact(
            ShardedCompactVisited::from_hashes(hashes.iter().copied()),
        )),
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
            Ok(AnySharedVisited::Bitstate(
                ShardedBitstateVisited::from_arena(
                    arena_bytes,
                    hashes,
                    arena.clone(),
                    usize::try_from(*inserted).unwrap_or(usize::MAX),
                ),
            ))
        }
    }
}

/// The frontier in canonical (depth, id) order, as stored in snapshots:
/// a valid sequential BFS queue, so a parallel checkpoint resumes under
/// either kernel.
fn canonical_frontier(pending: &BTreeMap<usize, Vec<Job>>) -> Vec<(usize, State)> {
    let mut frontier = Vec::new();
    for jobs in pending.values() {
        let mut level: Vec<&Job> = jobs.iter().collect();
        level.sort_by_key(|job| job.0);
        frontier.extend(level.into_iter().map(|job| (job.0, (*job.1).clone())));
    }
    frontier
}

/// The parallel counterpart of [`Checker::check_safety`], dispatched to
/// when [`crate::SearchConfig::threads`] is greater than one.
pub(crate) fn check_safety_parallel(
    checker: &Checker<'_>,
    checks: &SafetyChecks,
) -> Result<SafetyReport, KernelError> {
    let start = Instant::now();
    let program = checker.program;
    let config = checker.config;
    let threads = config.threads;

    let reduction = (config.partial_order_reduction
        && checks.invariants.iter().all(|(_, p)| p.is_expr_only()))
    .then(|| LocalLocations::analyze(program));

    let per_state_bytes = approx_state_bytes(program);
    let lossy = config.visited.is_lossy();
    let fingerprint = if checker.sink.is_some() {
        program_fingerprint(program)
    } else {
        0
    };

    let mut stats = SearchStats::default();
    let mut base_elapsed = Duration::ZERO;
    let visited: AnySharedVisited;
    let mut parents: Vec<Option<(usize, Step)>>;
    let mut depths: Vec<usize>;
    // Discovered-but-unexpanded jobs grouped by depth; processed one
    // (minimal-depth) level at a time. A fresh search holds a single
    // group; a resumed snapshot may hold two adjacent depths.
    let mut pending: BTreeMap<usize, Vec<Job>> = BTreeMap::new();

    if let Some(snapshot) = &checker.resume {
        visited = restore_shared_visited(program, snapshot, per_state_bytes)?;
        parents = snapshot.parents.clone();
        depths = snapshot.depths.clone();
        for (id, state) in &snapshot.frontier {
            pending
                .entry(depths[*id])
                .or_default()
                .push((*id, Arc::new(state.clone())));
        }
        stats.steps = snapshot.stats.steps as usize;
        stats.max_depth = snapshot.stats.max_depth as usize;
        stats.peak_frontier = snapshot.stats.peak_frontier as usize;
        stats.approx_memory_bytes = snapshot.stats.approx_memory_bytes as usize;
        stats.replay_rejected = snapshot.stats.replay_rejected as usize;
        base_elapsed = Duration::from_nanos(snapshot.stats.elapsed_nanos);
    } else {
        let initial = Arc::new(State::initial(program));
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
        visited = AnySharedVisited::new(config.visited, per_state_bytes);
        visited.insert_unbudgeted(&initial);
        parents = vec![None];
        depths = vec![0];
        pending.insert(0, vec![(0, initial)]);
        stats.peak_frontier = 1;
    }

    let budget = StateBudget::new(parents.len(), config.max_states);
    let deadline = config.max_time.map(|limit| {
        // A resumed run may already have consumed (part of) the budget.
        start + limit.checked_sub(base_elapsed).unwrap_or(Duration::ZERO)
    });

    let mut tripped: Option<BudgetKind> = None;
    let mut depth_trimmed = false;
    let mut states_at_last_flush = parents.len();

    'levels: while let Some((&depth, _)) = pending.first_key_value() {
        // Level-boundary budget checks: the parallel kernel's equivalent
        // of the sequential per-pop checkpoint (coarser, but every
        // boundary has a complete, canonical frontier to snapshot).
        let frontier_len: usize = pending.values().map(Vec::len).sum();
        let mem = match &visited {
            AnySharedVisited::Exact(_) => {
                visited.approx_bytes() + frontier_len * std::mem::size_of::<usize>()
            }
            _ => {
                let parent_entry =
                    std::mem::size_of::<Option<(usize, Step)>>() + std::mem::size_of::<usize>();
                visited.approx_bytes()
                    + parents.len() * parent_entry
                    + frontier_len * per_state_bytes
            }
        };
        stats.approx_memory_bytes = stats.approx_memory_bytes.max(mem);
        if config.max_memory_bytes.is_some_and(|limit| mem >= limit) {
            tripped = Some(BudgetKind::Memory);
            break 'levels;
        }
        if checker.checkpoint_every > 0
            && parents.len() - states_at_last_flush >= checker.checkpoint_every
        {
            if let Some(sink) = &checker.sink {
                stats.unique_states = parents.len();
                flush_checkpoint(
                    sink,
                    fingerprint,
                    &checker.tag,
                    visited.kind(),
                    shared_visited_payload(&visited),
                    &parents,
                    &depths,
                    canonical_frontier(&pending),
                    &stats,
                    base_elapsed + start.elapsed(),
                )?;
                states_at_last_flush = parents.len();
            }
        }

        let jobs = pending.remove(&depth).expect("minimal depth present");

        // Deal the level round-robin into per-worker deques and run it.
        let deques: Vec<Mutex<VecDeque<Job>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            deques[i % threads]
                .lock()
                .expect("deque poisoned")
                .push_back(job);
        }
        let stop = AtomicU8::new(RUNNING);
        let peer_cancel = CancelToken::new();
        let ctx = LevelCtx {
            program,
            checks,
            reduction: reduction.as_ref(),
            visited: &visited,
            budget: &budget,
            stop: &stop,
            peer_cancel: &peer_cancel,
            user_cancel: checker.cancel.as_ref(),
            deadline,
            depth,
            max_depth: config.max_depth,
            lossy,
        };
        let mut outs: Vec<WorkerOut> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let ctx = &ctx;
                    let deques = &deques;
                    scope.spawn(move || run_worker(ctx, w, deques))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("search worker panicked"))
                .collect()
        });

        // --- the level barrier: merge worker outputs ---
        for out in &mut outs {
            if let Some(error) = out.error.take() {
                return Err(error);
            }
        }
        stats.steps += outs.iter().map(|o| o.steps).sum::<usize>();
        depth_trimmed |= outs.iter().any(|o| o.depth_trimmed);
        if outs.iter().any(|o| o.expanded) {
            stats.max_depth = stats.max_depth.max(depth);
        }

        // Assign ids to discoveries, worker by worker; parent ids are
        // always smaller than child ids, preserving the snapshot replay
        // invariant.
        let mut offsets = Vec::with_capacity(threads);
        let mut next_jobs: Vec<Job> = Vec::new();
        for out in &outs {
            offsets.push(parents.len());
            for (state, parent, step) in &out.discoveries {
                let id = parents.len();
                parents.push(Some((*parent, *step)));
                depths.push(depth + 1);
                next_jobs.push((id, Arc::clone(state)));
            }
        }

        // Resolve pending violations: deadlocks first (their traces are
        // one step shorter than edge/successor violations found in the
        // same pass), then in worker order. Under a lossy backend each
        // candidate is exact-replay-validated; a rejected one is dropped
        // (counted in `replay_rejected`) and the search continues.
        let mut candidates: Vec<(usize, &PendingViolation)> = Vec::new();
        for (w, out) in outs.iter().enumerate() {
            for violation in &out.violations {
                candidates.push((w, violation));
            }
        }
        candidates.sort_by_key(|(_, v)| match v {
            PendingViolation::Deadlock { .. } => 0,
            _ => 1,
        });
        for (w, violation) in candidates {
            let resolved = match violation {
                PendingViolation::Deadlock { id, state } => {
                    rebuild_trace(program, &parents, *id, state, lossy)?
                        .map(|trace| SafetyOutcome::Deadlock { trace })
                }
                PendingViolation::Assertion {
                    parent,
                    parent_state,
                    step,
                    message,
                } => match rebuild_trace(program, &parents, *parent, parent_state, lossy)? {
                    Some(prefix) => {
                        let applied = apply_step(program, parent_state, *step)?;
                        let mut events = prefix.events().to_vec();
                        events.extend(applied.events);
                        Some(SafetyOutcome::AssertionFailed {
                            message: message.clone(),
                            trace: Trace::new(events),
                        })
                    }
                    None => None,
                },
                PendingViolation::Invariant { disc, hit } => {
                    let (state, _, _) = &outs[w].discoveries[*disc];
                    rebuild_trace(program, &parents, offsets[w] + *disc, state, lossy)?
                        .map(|trace| hit_outcome(hit.clone(), trace))
                }
            };
            match resolved {
                Some(outcome) => {
                    stats.unique_states = parents.len();
                    stats.elapsed = base_elapsed + start.elapsed();
                    return Ok(SafetyReport {
                        outcome,
                        stats,
                        truncated: false,
                    });
                }
                None => stats.replay_rejected += 1,
            }
        }

        // Requeue drained jobs at their own depth and push the next level.
        let mut leftover: Vec<Job> = outs.iter_mut().flat_map(|o| o.leftover.drain(..)).collect();
        if !leftover.is_empty() {
            leftover.sort_by_key(|job| job.0);
            pending.entry(depth).or_default().extend(leftover);
        }
        if !next_jobs.is_empty() {
            pending.entry(depth + 1).or_default().extend(next_jobs);
        }
        let frontier_len: usize = pending.values().map(Vec::len).sum();
        stats.peak_frontier = stats.peak_frontier.max(frontier_len);

        match stop.load(Ordering::SeqCst) {
            RUNNING => {}
            STOP_STATES => {
                tripped = Some(BudgetKind::States);
                break 'levels;
            }
            STOP_TIME => {
                tripped = Some(BudgetKind::Time);
                break 'levels;
            }
            STOP_CANCELLED => {
                tripped = Some(BudgetKind::Cancelled);
                break 'levels;
            }
            // A confirmed violation returned above; an exact-backend
            // violation always confirms, so reaching here means nothing
            // survived replay under a lossy backend — keep searching.
            STOP_VIOLATION => debug_assert!(lossy, "exact violation must have been reported"),
            other => debug_assert!(other == STOP_ERROR, "unknown stop code {other}"),
        }
    }

    // A depth-trimmed search that found nothing is still incomplete.
    if tripped.is_none() && depth_trimmed {
        tripped = Some(BudgetKind::Depth);
    }
    stats.unique_states = parents.len();
    stats.elapsed = base_elapsed + start.elapsed();
    let frontier_len: usize = pending.values().map(Vec::len).sum();
    let outcome = match tripped {
        Some(budget) => {
            // An interrupted search always flushes a final snapshot.
            if let Some(sink) = &checker.sink {
                flush_checkpoint(
                    sink,
                    fingerprint,
                    &checker.tag,
                    visited.kind(),
                    shared_visited_payload(&visited),
                    &parents,
                    &depths,
                    canonical_frontier(&pending),
                    &stats,
                    stats.elapsed,
                )?;
            }
            SafetyOutcome::LimitReached {
                budget,
                states_covered: parents.len(),
                frontier: frontier_len,
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
