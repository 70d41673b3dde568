//! Parallel LTL acceptance-cycle search: CNDFS-style swarmed nested DFS.
//!
//! [`Checker::check_ltl`] dispatches here when
//! [`crate::SearchConfig::threads`] is greater than one. The algorithm is
//! the multi-core nested DFS of Evangelista, Laarman, Petrucci and van de
//! Pol (CNDFS): every worker runs its own full nested DFS over the Büchi
//! product with a *per-worker randomized successor order* (seeded from the
//! workspace SplitMix64 family), sharing two global color sets:
//!
//! * **blue** — nodes whose outer DFS (including the red phase of every
//!   accepting node in their subtree) has completed. A worker skips blue
//!   nodes, which is what splits the work across the swarm.
//! * **red** — nodes proven to lie on no accepting cycle. Before a worker
//!   commits its red closure it *awaits* any accepting member still being
//!   red-searched by a peer, preserving the sequential postorder argument.
//!
//! The worker-local **cyan** color (the worker's own outer stack) is what
//! makes a detected cycle real for *that* worker's interleaving: a red DFS
//! reaching a cyan node closes `seed -> ... -> hit -> ... -> seed`.
//!
//! Termination is a shared first-cause-wins stop code plus a peer
//! [`CancelToken`], so the first worker to find a cycle (or
//! hit an error) stops the swarm. Every reported lasso is re-validated
//! through [`Checker::replay_trace`] before it reaches the user; a lasso
//! that fails validation — or a red-await that stalls — falls back to the
//! sequential oracle and says so in [`LtlReport::fallback`]. Both
//! supported fairness modes ([`Fairness::None`] and [`Fairness::Weak`])
//! are preserved: weak fairness lives entirely inside the product nodes
//! (the Choueka counter), so the parallel search explores exactly the
//! same graph the sequential one does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use pnp_ltl::{translate, Ltl};

use crate::explore::{CancelToken, Checker, SearchStats};
use crate::liveness::{
    check_ltl_sequential, compile_buchi, mark_enabled, moved_procs, next_counter,
    CompiledTransition, Edge, Fairness, LtlOutcome, LtlReport, Node, Proposition, SuccPool,
};
use crate::program::Program;
use crate::reduction::{ample_subset, LocalLocations};
use crate::rng::SplitMix64;
use crate::state::{
    apply_step, apply_step_into, enabled_steps, enabled_steps_into, KernelError, State,
    StateHasher, StateView, Step,
};
use crate::trace::{EventKind, Trace, TraceEvent};
use crate::visited::ShardedNodeSet;

/// Stop-flag codes shared by the swarm; the first cause wins.
const RUNNING: u8 = 0;
const STOP_CANCELLED: u8 = 3;
const STOP_CYCLE: u8 = 4;
const STOP_ERROR: u8 = 5;
/// A red-await watched a peer's red search for too long without progress:
/// give up on the swarm and fall back to the sequential oracle rather
/// than hang the checker.
const STOP_STALLED: u8 = 6;

/// Base seed for the per-worker successor shuffles; next member of the
/// `0xb175_7a7e_5eed_xxxx` family used by the visited-set machinery.
const SWARM_SEED: u64 = 0xb175_7a7e_5eed_0005;

/// How long one red-await may spin before declaring the swarm stalled.
const AWAIT_STALL_LIMIT: Duration = Duration::from_secs(10);

/// Records `code` as the stop cause unless one is already set; returns
/// whether this call performed the transition (first cause wins).
fn trip(stop: &AtomicU8, code: u8) -> bool {
    stop.compare_exchange(RUNNING, code, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}

/// A lasso candidate as recorded by the finding worker: edges carry their
/// source *system* state id, enough to rebuild trace events without
/// holding any worker-local maps alive.
struct LassoCandidate {
    /// Root to cycle-start, as `(source system id, edge)` pairs.
    prefix: Vec<(usize, Edge)>,
    /// Around the accepting cycle, back to the cycle-start node.
    cycle: Vec<(usize, Edge)>,
}

/// The shared system-state interner: the parallel analogue of the
/// sequential `ProductGraph`'s `sys_index`/`sys_states`, behind one lock.
/// The `max_states` budget is charged here, at the same counting point as
/// the sequential checker (on first interning).
struct SysInterner {
    index: HashMap<Arc<State>, usize, StateHasher>,
    states: Vec<Arc<State>>,
}

/// Read-only search context plus the shared mutable color state.
struct SharedSearch<'p> {
    program: &'p Program,
    props: &'p [Proposition],
    buchi: Vec<Vec<CompiledTransition>>,
    accepting: Vec<bool>,
    fairness: Fairness,
    n_procs: usize,
    reduction: Option<LocalLocations>,
    max_states: usize,
    roots: Vec<Node>,

    interner: Mutex<SysInterner>,
    blue: ShardedNodeSet,
    red: ShardedNodeSet,
    truncated: AtomicBool,
    stop: AtomicU8,
    peer_cancel: CancelToken,
    user_cancel: Option<CancelToken>,
    edges: AtomicUsize,
    found: Mutex<Option<LassoCandidate>>,
}

impl SharedSearch<'_> {
    /// Whether workers should wind down, polling the caller's cancel
    /// token on the way (cancellation shares the truncation path, exactly
    /// like the sequential checker's `intern_sys`).
    fn should_abandon(&self) -> bool {
        if let Some(cancel) = &self.user_cancel {
            if cancel.is_cancelled() {
                self.truncated.store(true, Ordering::SeqCst);
                if trip(&self.stop, STOP_CANCELLED) {
                    self.peer_cancel.cancel();
                }
            }
        }
        self.stop.load(Ordering::SeqCst) != RUNNING || self.peer_cancel.is_cancelled()
    }

    /// First cycle wins: the worker that trips the stop code owns the
    /// candidate slot; later finds are discarded.
    fn report_cycle(&self, lasso: LassoCandidate) {
        if trip(&self.stop, STOP_CYCLE) {
            *self.found.lock().expect("candidate slot poisoned") = Some(lasso);
            self.peer_cancel.cancel();
        }
    }

    fn report_stall(&self) {
        if trip(&self.stop, STOP_STALLED) {
            self.peer_cancel.cancel();
        }
    }
}

/// A worker's memo of one expanded system state: its `(step, successor
/// system id)` pairs and, under weak fairness, which processes have an
/// enabled step (as actor or rendezvous partner), taken from the full
/// step list before partial-order reduction.
struct Expanded {
    succ: Vec<(Step, usize)>,
    enabled: Vec<bool>,
    /// No step is enabled (stutter applies). A state whose successors
    /// were all refused by the budget has none, and is not terminal.
    terminal: bool,
}

/// Worker-local view of the product: per-worker memo caches over the
/// shared interner (recomputation across workers is the usual swarm
/// overhead; sharing the *interning* is what keeps `max_states` honest),
/// plus the worker's PRNG, successor-buffer pool, and the step, message
/// and successor-state buffers every expansion reuses.
struct WorkerCtx<'a, 'p> {
    shared: &'a SharedSearch<'p>,
    rng: SplitMix64,
    states: Vec<Option<Arc<State>>>,
    succ: HashMap<usize, Arc<Expanded>>,
    labels: HashMap<usize, Arc<Vec<bool>>>,
    pool: SuccPool<(Edge, Node)>,
    edges: usize,
    steps: Vec<Step>,
    message: Vec<i32>,
    scratch: State,
}

/// One outer-DFS stack frame: the node, the edge that reached it, and its
/// (shuffled, pooled) successor buffer.
struct Frame {
    node: Node,
    edge_in: Edge,
    succs: Vec<(Edge, Node)>,
    next: usize,
}

/// The `(source system id, edge)` pairs along `stack[from..to]`, read off
/// the frames' incoming edges.
fn stack_edges(stack: &[Frame], from: usize, to: usize) -> Vec<(usize, Edge)> {
    (from.max(1)..to)
        .map(|i| (stack[i - 1].node.0, stack[i].edge_in))
        .collect()
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_index(i + 1);
        items.swap(i, j);
    }
}

impl<'a, 'p> WorkerCtx<'a, 'p> {
    fn new(shared: &'a SharedSearch<'p>, worker: usize) -> WorkerCtx<'a, 'p> {
        WorkerCtx {
            shared,
            rng: SplitMix64::seed_from_u64(SWARM_SEED ^ (worker as u64 + 1).wrapping_mul(0x9e37)),
            states: Vec::new(),
            succ: HashMap::new(),
            labels: HashMap::new(),
            pool: SuccPool::default(),
            edges: 0,
            steps: Vec::new(),
            message: Vec::new(),
            scratch: State::initial(shared.program),
        }
    }

    fn state_of(&mut self, sys: usize) -> Arc<State> {
        if let Some(Some(state)) = self.states.get(sys) {
            return Arc::clone(state);
        }
        let state = {
            let interner = self.shared.interner.lock().expect("interner poisoned");
            Arc::clone(&interner.states[sys])
        };
        if self.states.len() <= sys {
            self.states.resize(sys + 1, None);
        }
        self.states[sys] = Some(Arc::clone(&state));
        state
    }

    /// Interns a copy of a new system state, charging the shared
    /// `max_states` budget; `None` marks the search truncated, like the
    /// sequential checker.
    fn intern(&self, state: &State) -> Option<usize> {
        let mut interner = self.shared.interner.lock().expect("interner poisoned");
        if let Some(&id) = interner.index.get(state) {
            return Some(id);
        }
        if interner.states.len() >= self.shared.max_states {
            self.shared.truncated.store(true, Ordering::SeqCst);
            return None;
        }
        let id = interner.states.len();
        let rc = Arc::new(state.clone());
        interner.index.insert(Arc::clone(&rc), id);
        interner.states.push(rc);
        Some(id)
    }

    /// Expands system state `sys` once per worker: one step enumeration
    /// yields both its enabled processes and its successors.
    fn sys_successors(&mut self, sys: usize) -> Result<Arc<Expanded>, KernelError> {
        if let Some(cached) = self.succ.get(&sys) {
            return Ok(Arc::clone(cached));
        }
        let state = self.state_of(sys);
        let program = self.shared.program;
        enabled_steps_into(program, &state, &mut self.steps, &mut self.message)?;
        let mut enabled = Vec::new();
        if self.shared.fairness == Fairness::Weak {
            enabled.resize(self.shared.n_procs, false);
            mark_enabled(&self.steps, &mut enabled);
        }
        if let Some(analysis) = &self.shared.reduction {
            ample_subset(analysis, program, &state, &mut self.steps);
        }
        let terminal = self.steps.is_empty();
        let mut succ = Vec::with_capacity(self.steps.len());
        for &step in &self.steps {
            apply_step_into(program, &state, step, &mut self.scratch, None)?;
            if let Some(next) = self.intern(&self.scratch) {
                succ.push((step, next));
            }
        }
        let rc = Arc::new(Expanded {
            succ,
            enabled,
            terminal,
        });
        self.succ.insert(sys, Arc::clone(&rc));
        Ok(rc)
    }

    fn labels_of(&mut self, sys: usize) -> Result<Arc<Vec<bool>>, KernelError> {
        if let Some(cached) = self.labels.get(&sys) {
            return Ok(Arc::clone(cached));
        }
        let state = self.state_of(sys);
        let view = StateView::new(self.shared.program, &state);
        let values = self
            .shared
            .props
            .iter()
            .map(|p| p.predicate.eval(&view))
            .collect::<Result<Vec<bool>, _>>()?;
        let rc = Arc::new(values);
        self.labels.insert(sys, Arc::clone(&rc));
        Ok(rc)
    }

    /// The fairness counter after an edge out of a node with counter
    /// `k`, from a system state with `enabled` processes.
    fn counter(&self, enabled: &[bool], k: u32, source_accepting: bool, moved: &[usize]) -> u32 {
        match self.shared.fairness {
            Fairness::None => 0,
            Fairness::Weak => next_counter(k, source_accepting, enabled, moved),
        }
    }

    /// Product successors of a node into a pooled buffer, in this
    /// worker's randomized order.
    fn successors_into(
        &mut self,
        (sys, b, k): Node,
        out: &mut Vec<(Edge, Node)>,
    ) -> Result<(), KernelError> {
        debug_assert!(out.is_empty());
        let source_accepting = self.shared.accepting[b];
        let expanded = self.sys_successors(sys)?;
        if expanded.terminal {
            // Stutter extension, exactly as in the sequential product.
            let k2 = self.counter(&expanded.enabled, k, source_accepting, &[]);
            let labels = self.labels_of(sys)?;
            for t in &self.shared.buchi[b] {
                if t.literals.iter().all(|&(i, pos)| labels[i] == pos) {
                    out.push((None, (sys, t.target, k2)));
                }
            }
        } else {
            let mut moved = [0usize; 2];
            for &(step, next_sys) in &expanded.succ {
                let n_moved = moved_procs(&step, &mut moved);
                let k2 = self.counter(&expanded.enabled, k, source_accepting, &moved[..n_moved]);
                let labels = self.labels_of(next_sys)?;
                for t in &self.shared.buchi[b] {
                    if t.literals.iter().all(|&(i, pos)| labels[i] == pos) {
                        out.push((Some(step), (next_sys, t.target, k2)));
                    }
                }
            }
        }
        self.edges += out.len();
        shuffle(&mut self.rng, out);
        Ok(())
    }

    fn node_accepting(&self, (_, b, k): Node) -> bool {
        match self.shared.fairness {
            Fairness::None => self.shared.accepting[b],
            Fairness::Weak => k == self.shared.n_procs as u32 + 1,
        }
    }
}

/// The inner (red) DFS from an accepting seed. Returns `true` when it
/// reported a cycle (a cyan hit). On normal completion it awaits any
/// accepting member of its closure still being red-searched by a peer,
/// then commits the whole closure to the global red set.
fn red_dfs(
    ctx: &mut WorkerCtx<'_, '_>,
    seed: Node,
    cyan: &HashMap<Node, usize>,
    blue_stack: &[Frame],
) -> Result<bool, KernelError> {
    struct RedFrame {
        node: Node,
        succs: Vec<(Edge, Node)>,
        next: usize,
    }

    let mut members: HashMap<Node, ()> = HashMap::new();
    let mut parent: HashMap<Node, (Node, Edge)> = HashMap::new();
    members.insert(seed, ());
    let mut seed_succs = ctx.pool.take();
    ctx.successors_into(seed, &mut seed_succs)?;
    let mut stack = vec![RedFrame {
        node: seed,
        succs: seed_succs,
        next: 0,
    }];

    while let Some(top) = stack.last_mut() {
        if ctx.shared.should_abandon() {
            return Ok(false);
        }
        if top.next < top.succs.len() {
            let (edge, target) = top.succs[top.next];
            top.next += 1;
            let source = top.node;
            if let Some(&hit_idx) = cyan.get(&target) {
                // Cyan hit: accepting cycle seed -> ... -> target -> ...
                // -> seed. Part A walks the red parent chain (at least one
                // edge, so a cycle closing directly at the seed is not
                // empty); part B is the worker's own outer-stack segment.
                parent.insert(target, (source, edge));
                let mut part_a: Vec<(usize, Edge)> = Vec::new();
                let mut node = target;
                loop {
                    let &(p, e) = parent.get(&node).expect("red parent chain broken");
                    part_a.push((p.0, e));
                    node = p;
                    if node == seed {
                        break;
                    }
                }
                part_a.reverse();
                let mut cycle = part_a;
                if target != seed {
                    cycle.extend(stack_edges(blue_stack, hit_idx + 1, blue_stack.len()));
                }
                let prefix = stack_edges(blue_stack, 1, blue_stack.len());
                ctx.shared.report_cycle(LassoCandidate { prefix, cycle });
                return Ok(true);
            }
            if !members.contains_key(&target) && !ctx.shared.red.contains(target) {
                members.insert(target, ());
                parent.insert(target, (source, edge));
                let mut succs = ctx.pool.take();
                ctx.successors_into(target, &mut succs)?;
                stack.push(RedFrame {
                    node: target,
                    succs,
                    next: 0,
                });
            }
            continue;
        }
        let frame = stack.pop().expect("red frame present");
        ctx.pool.give(frame.succs);
    }

    // CNDFS await: an accepting member (other than the seed) that is not
    // yet globally red is being red-searched by a peer; committing our
    // closure before that search resolves could mask its cycle. The spin
    // is bounded so a wedged peer degrades to the sequential oracle
    // instead of a hang.
    let await_start = Instant::now();
    for (&node, ()) in &members {
        if node == seed || !ctx.node_accepting(node) {
            continue;
        }
        let mut spins: u32 = 0;
        while !ctx.shared.red.contains(node) {
            if ctx.shared.should_abandon() {
                return Ok(false);
            }
            if await_start.elapsed() > AWAIT_STALL_LIMIT {
                ctx.shared.report_stall();
                return Ok(false);
            }
            spins = spins.wrapping_add(1);
            if spins & 0x3ff == 0 {
                thread::sleep(Duration::from_micros(50));
            } else {
                thread::yield_now();
            }
        }
    }
    for (&node, ()) in &members {
        ctx.shared.red.insert(node);
    }
    Ok(false)
}

/// One worker's outer (blue) DFS from `root`, with early cycle detection
/// on cyan successors and the red phase run in postorder on accepting
/// nodes — the CNDFS `dfsBlue`.
fn blue_dfs(ctx: &mut WorkerCtx<'_, '_>, root: Node) -> Result<(), KernelError> {
    let mut cyan: HashMap<Node, usize> = HashMap::new();
    let mut root_succs = ctx.pool.take();
    ctx.successors_into(root, &mut root_succs)?;
    cyan.insert(root, 0);
    let mut stack: Vec<Frame> = vec![Frame {
        node: root,
        edge_in: None,
        succs: root_succs,
        next: 0,
    }];

    while !stack.is_empty() {
        if ctx.shared.should_abandon() {
            return Ok(());
        }
        let top = stack.len() - 1;
        let next_succ = {
            let frame = &mut stack[top];
            if frame.next < frame.succs.len() {
                let pair = frame.succs[frame.next];
                frame.next += 1;
                Some(pair)
            } else {
                None
            }
        };
        let source = stack[top].node;

        if let Some((edge, target)) = next_succ {
            if let Some(&t_idx) = cyan.get(&target) {
                // Early cycle detection: a cyan successor closes a cycle
                // through the worker's own stack; if either endpoint is
                // accepting the whole stack segment is an accepting cycle.
                if ctx.node_accepting(source) || ctx.node_accepting(target) {
                    let prefix = stack_edges(&stack, 1, t_idx + 1);
                    let mut cycle = stack_edges(&stack, t_idx + 1, stack.len());
                    cycle.push((source.0, edge));
                    ctx.shared.report_cycle(LassoCandidate { prefix, cycle });
                    return Ok(());
                }
                continue;
            }
            if ctx.shared.blue.contains(target) {
                continue;
            }
            cyan.insert(target, stack.len());
            let mut succs = ctx.pool.take();
            ctx.successors_into(target, &mut succs)?;
            stack.push(Frame {
                node: target,
                edge_in: edge,
                succs,
                next: 0,
            });
            continue;
        }

        // Postorder: red phase for accepting nodes, then blue the node.
        if ctx.node_accepting(source) {
            if red_dfs(ctx, source, &cyan, &stack)? {
                return Ok(());
            }
            if ctx.shared.should_abandon() {
                return Ok(());
            }
        }
        ctx.shared.blue.insert(source);
        cyan.remove(&source);
        let frame = stack.pop().expect("outer frame present");
        ctx.pool.give(frame.succs);
    }
    Ok(())
}

/// One worker of the swarm: a full nested DFS from every root, in this
/// worker's shuffled root order, pruned by the shared blue set.
fn run_worker(shared: &SharedSearch<'_>, worker: usize) -> Result<(), KernelError> {
    let mut ctx = WorkerCtx::new(shared, worker);
    let mut roots = shared.roots.clone();
    shuffle(&mut ctx.rng, &mut roots);
    for root in roots {
        if shared.should_abandon() {
            break;
        }
        if shared.blue.contains(root) {
            continue;
        }
        blue_dfs(&mut ctx, root)?;
    }
    shared.edges.fetch_add(ctx.edges, Ordering::Relaxed);
    Ok(())
}

/// Rebuilds trace events for a recorded edge list against the shared
/// interner's states.
fn lasso_events(
    program: &Program,
    states: &[Arc<State>],
    edges: &[(usize, Edge)],
) -> Result<Vec<TraceEvent>, KernelError> {
    let mut events = Vec::new();
    for &(sys, edge) in edges {
        match edge {
            None => events.push(TraceEvent::stutter()),
            Some(step) => events.extend(apply_step(program, &states[sys], step)?.events),
        }
    }
    Ok(events)
}

impl Checker<'_> {
    /// Exact replay validation of a lasso-shaped counterexample: the
    /// prefix plus cycle must replay as a chain of enabled steps from the
    /// initial state ([`Checker::replay_trace`]), stutter events may only
    /// appear as a terminal suffix on a state with no enabled steps, and
    /// a cycle with real steps must close back on the system state the
    /// prefix ends in.
    ///
    /// The parallel CNDFS search runs every candidate through this before
    /// reporting it — no cross-thread bookkeeping ever reaches the user
    /// unchecked — and differential tests use it to hold reported lassos
    /// to the same standard from the outside.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] only when the model itself is broken
    /// (a step fails to apply); an invalid lasso is `Ok(false)`.
    pub fn validate_lasso(&self, prefix: &Trace, cycle: &Trace) -> Result<bool, KernelError> {
        let prefix_events = prefix.events();
        if cycle.is_empty() {
            return Ok(false);
        }
        let is_stutter = |e: &TraceEvent| matches!(e.kind(), EventKind::Stutter);
        let all: Vec<TraceEvent> = prefix_events
            .iter()
            .chain(cycle.events())
            .cloned()
            .collect();
        let real_end = all.iter().position(is_stutter).unwrap_or(all.len());
        if !all[real_end..].iter().all(is_stutter) {
            return Ok(false);
        }
        let Some(end_state) = self.replay_trace(&Trace::new(all[..real_end].to_vec()))? else {
            return Ok(false);
        };
        if real_end < all.len() && !enabled_steps(self.program, &end_state)?.is_empty() {
            return Ok(false);
        }
        if real_end > prefix_events.len() {
            // The cycle has real steps: replaying prefix and prefix+cycle
            // must land on the same system state. (All-stutter cycles
            // close trivially: the system state never changes past the
            // prefix.)
            let Some(mid_state) = self.replay_trace(&Trace::new(prefix_events.to_vec()))? else {
                return Ok(false);
            };
            if mid_state != end_state {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// A fairness mode the swarm cannot preserve routes to the sequential
/// oracle with a reported reason. Both current modes are preserved —
/// weak fairness is encoded in the product nodes themselves — so this
/// returns `None` today; a future mode that changes the acceptance
/// condition *outside* the node (e.g. strong fairness via a Streett
/// condition) would name itself here instead of silently degrading.
fn sequential_only_reason(_fairness: Fairness) -> Option<&'static str> {
    None
}

fn sequential_fallback(
    checker: &Checker<'_>,
    formula: &Ltl,
    props: &[Proposition],
    fairness: Fairness,
    reason: &'static str,
) -> Result<LtlReport, KernelError> {
    let mut report = check_ltl_sequential(checker, formula, props, fairness)?;
    report.fallback = Some(reason);
    Ok(report)
}

/// The parallel counterpart of [`Checker::check_ltl_with`], dispatched to
/// when [`crate::SearchConfig::threads`] is greater than one.
pub(crate) fn check_ltl_parallel(
    checker: &Checker<'_>,
    formula: &Ltl,
    props: &[Proposition],
    fairness: Fairness,
) -> Result<LtlReport, KernelError> {
    if let Some(reason) = sequential_only_reason(fairness) {
        return sequential_fallback(checker, formula, props, fairness, reason);
    }
    let start = Instant::now();
    let program = checker.program;
    let threads = checker.config.threads;

    let buchi = translate(&formula.negated());
    let compiled = compile_buchi(&buchi, props)?;
    let accepting = (0..buchi.state_count())
        .map(|s| buchi.is_accepting(s))
        .collect::<Vec<_>>();

    let initial = Arc::new(State::initial(program));
    let view = StateView::new(program, &initial);
    let labels0 = props
        .iter()
        .map(|p| p.predicate.eval(&view))
        .collect::<Result<Vec<bool>, _>>()?;
    let mut roots: Vec<Node> = Vec::new();
    for t in &compiled[buchi.initial()] {
        if t.literals.iter().all(|&(i, pos)| labels0[i] == pos) {
            roots.push((0, t.target, 0));
        }
    }

    let shared = SharedSearch {
        program,
        props,
        buchi: compiled,
        accepting,
        fairness,
        n_procs: program.processes().len(),
        reduction: (checker.config.partial_order_reduction
            && fairness == Fairness::None
            && props.iter().all(|p| p.predicate.is_expr_only()))
        .then(|| LocalLocations::analyze(program)),
        max_states: checker.config.max_states,
        roots,
        interner: Mutex::new(SysInterner {
            index: HashMap::from_iter([(Arc::clone(&initial), 0)]),
            states: vec![initial],
        }),
        blue: ShardedNodeSet::new(),
        red: ShardedNodeSet::new(),
        truncated: AtomicBool::new(false),
        stop: AtomicU8::new(RUNNING),
        peer_cancel: CancelToken::new(),
        user_cancel: checker.cancel.clone(),
        edges: AtomicUsize::new(0),
        found: Mutex::new(None),
    };

    let mut errors: Vec<KernelError> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let shared = &shared;
                scope.spawn(move || {
                    let result = run_worker(shared, w);
                    if result.is_err() && trip(&shared.stop, STOP_ERROR) {
                        shared.peer_cancel.cancel();
                    }
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("liveness worker panicked").err())
            .collect()
    });
    if let Some(error) = errors.drain(..).next() {
        return Err(error);
    }

    let truncated = shared.truncated.load(Ordering::SeqCst);
    let stats = SearchStats {
        unique_states: shared.blue.len(),
        steps: shared.edges.load(Ordering::Relaxed),
        max_depth: 0,
        elapsed: start.elapsed(),
        ..SearchStats::default()
    };

    match shared.stop.load(Ordering::SeqCst) {
        RUNNING | STOP_CANCELLED => Ok(LtlReport {
            outcome: LtlOutcome::Holds,
            stats,
            truncated: truncated || shared.stop.load(Ordering::SeqCst) == STOP_CANCELLED,
            fallback: None,
        }),
        STOP_CYCLE => {
            let candidate = shared
                .found
                .lock()
                .expect("candidate slot poisoned")
                .take()
                .expect("stop code CYCLE without a candidate");
            let states = {
                let interner = shared.interner.lock().expect("interner poisoned");
                interner.states.clone()
            };
            let prefix = Trace::new(lasso_events(program, &states, &candidate.prefix)?);
            let cycle = Trace::new(lasso_events(program, &states, &candidate.cycle)?);
            if checker.validate_lasso(&prefix, &cycle)? {
                Ok(LtlReport {
                    outcome: LtlOutcome::Violated { prefix, cycle },
                    stats,
                    truncated,
                    fallback: None,
                })
            } else {
                sequential_fallback(
                    checker,
                    formula,
                    props,
                    fairness,
                    "a parallel-found lasso failed exact replay validation",
                )
            }
        }
        STOP_STALLED => sequential_fallback(
            checker,
            formula,
            props,
            fairness,
            "the parallel red-await stalled",
        ),
        other => {
            debug_assert!(other == STOP_ERROR, "unknown stop code {other}");
            // An error stop whose error vanished (the worker recovered at
            // the barrier): degrade honestly rather than guess.
            sequential_fallback(
                checker,
                formula,
                props,
                fairness,
                "the parallel search stopped without a verdict",
            )
        }
    }
}
