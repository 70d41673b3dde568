//! LTL checking: Büchi product construction and nested depth-first search.
//!
//! [`Checker::check_ltl`] verifies `phi` by translating `! phi` to a Büchi
//! automaton ([`pnp_ltl::translate`]), forming the on-the-fly product with
//! the system's state graph, and searching for an accepting cycle with the
//! classic nested-DFS algorithm (Courcoubetis, Vardi, Wolper, Yannakakis).
//! An accepting cycle is a behavior of the system that violates `phi`; it is
//! reported as a lasso (finite prefix + repeating cycle).
//!
//! Terminating runs are handled with the usual stutter extension: a state
//! with no enabled steps gets an implicit self-loop, so e.g. `<> p` is
//! correctly reported violated by a system that halts before `p`.
//!
//! The search keeps its system states in a
//! [`StateArena`] and everything it learns about them in flat arrays
//! indexed by state id, expanding each system state once; product nodes
//! are exact integer keys with one flag byte each, and a found lasso is
//! read off the two DFS stacks (DESIGN.md §4).

use std::collections::HashMap;
use std::time::Instant;

use pnp_ltl::{translate, Buchi, Ltl};

use crate::arena::{Interned, StateArena, MAX_ROWS};
use crate::explore::{CancelToken, Checker, Predicate, SearchStats};
use crate::program::ProcId;
use crate::reduction::{ample_subset, LocalLocations};
use crate::state::{
    apply_step, apply_step_into, enabled_steps, enabled_steps_into, KernelError, State, StateView,
    Step,
};
use crate::trace::{EventKind, Trace, TraceEvent};

/// A named atomic proposition: binds a name used in LTL formulas to a state
/// predicate.
#[derive(Debug, Clone)]
pub struct Proposition {
    pub(crate) name: String,
    pub(crate) predicate: Predicate,
}

impl Proposition {
    /// Creates a proposition.
    pub fn new(name: impl Into<String>, predicate: Predicate) -> Proposition {
        Proposition {
            name: name.into(),
            predicate,
        }
    }

    /// The name referenced from LTL formulas.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The result of an LTL check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LtlOutcome {
    /// No accepting cycle exists: the property holds on every (infinite or
    /// stutter-extended) run.
    Holds,
    /// The property is violated by the run `prefix . cycle^omega`.
    Violated {
        /// Steps from the initial state to the start of the cycle.
        prefix: Trace,
        /// Steps around the accepting cycle.
        cycle: Trace,
    },
}

impl LtlOutcome {
    /// `true` when the property holds.
    pub fn is_holds(&self) -> bool {
        matches!(self, LtlOutcome::Holds)
    }
}

/// The report of an LTL check: the outcome plus exploration statistics.
#[derive(Debug, Clone)]
pub struct LtlReport {
    /// What was found.
    pub outcome: LtlOutcome,
    /// Statistics over the *product* graph (`unique_states` counts product
    /// nodes, which is at most system states x automaton states).
    pub stats: SearchStats,
    /// `true` when the search hit [`crate::SearchConfig::max_states`] system
    /// states before completion; a `Holds` outcome is then only partial.
    pub truncated: bool,
}

/// A compiled Büchi transition: literals resolved to proposition indices.
struct CompiledTransition {
    literals: Vec<(usize, bool)>,
    target: usize,
}

fn compile_buchi(
    buchi: &Buchi,
    props: &[Proposition],
) -> Result<Vec<Vec<CompiledTransition>>, KernelError> {
    let index: HashMap<&str, usize> = props
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();
    let mut compiled = Vec::with_capacity(buchi.state_count());
    for state in 0..buchi.state_count() {
        let mut outgoing = Vec::new();
        for t in buchi.transitions_from(state) {
            let literals = t
                .label
                .iter()
                .map(|lit| {
                    index
                        .get(lit.prop.as_ref())
                        .map(|&i| (i, lit.positive))
                        .ok_or_else(|| KernelError::UnknownProposition {
                            name: lit.prop.to_string(),
                        })
                })
                .collect::<Result<Vec<_>, _>>()?;
            outgoing.push(CompiledTransition {
                literals,
                target: t.target,
            });
        }
        compiled.push(outgoing);
    }
    Ok(compiled)
}

/// Scheduling fairness applied during the acceptance-cycle search.
///
/// The PnP building-block models poll (e.g. a blocking receive port retries
/// on `OUT_FAIL`), so without fairness almost every liveness property is
/// "violated" by a schedule that runs the polling loop forever and starves
/// everyone else. [`Fairness::Weak`] excludes such schedules: a violating
/// cycle must, for every process, either contain a step of that process or
/// a state where the process is blocked (SPIN's `-f` option, implemented
/// with the standard Choueka counter construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fairness {
    /// Consider every schedule, including starving ones.
    None,
    /// Weak fairness: a process that stays enabled forever must eventually
    /// move. The product is unfolded into `N + 2` copies, so exploration
    /// cost grows by that factor in the worst case.
    #[default]
    Weak,
}

/// A recycling arena for product-successor buffers.
///
/// Every DFS frame needs a buffer of product successors, and both
/// nested-DFS loops push and pop frames millions of times on large
/// products — a fresh heap allocation per frame is the hottest allocation
/// site of the liveness checker. The pool hands popped frames' buffers
/// back to new frames (capacity retained, contents cleared), so a search
/// settles into zero successor-buffer allocations once its maximum DFS
/// depth has been reached. One pool serves both loops of a search.
struct SuccPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for SuccPool<T> {
    fn default() -> SuccPool<T> {
        SuccPool { free: Vec::new() }
    }
}

impl<T> SuccPool<T> {
    fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    fn give(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.free.push(buf);
    }
}

/// The process indices moved by one product edge (at most an actor and
/// its rendezvous partner), without a per-edge heap allocation.
fn moved_procs(step: &Step, buf: &mut [usize; 2]) -> usize {
    buf[0] = step.proc.index();
    match step.partner {
        Some((partner, _)) => {
            buf[1] = partner.index();
            2
        }
        None => 1,
    }
}

/// Sets `enabled[p]` exactly for the processes with a step in `steps`,
/// as actor or as rendezvous partner. `steps` must be a state's full step
/// list, taken before any partial-order reduction.
fn mark_enabled(steps: &[Step], enabled: &mut [bool]) {
    enabled.fill(false);
    for step in steps {
        enabled[step.proc.index()] = true;
        if let Some((partner, _)) = step.partner {
            enabled[partner.index()] = true;
        }
    }
}

/// Advances the weak-fairness counter `k` across an edge out of a system
/// state whose processes with an enabled step are marked in `enabled`.
///
/// The counter ranges over `0..=N+1` (`N` = process count): `0` = waiting
/// for an accepting automaton state, `k` in `1..=N` = waiting for process
/// `k-1` to move or block, `N+1` = a fair accepting point.
/// `source_accepting` is whether the automaton state being left is
/// accepting; `moved` lists the processes executed by the edge (empty
/// for stutter).
fn next_counter(k: u32, source_accepting: bool, enabled: &[bool], moved: &[usize]) -> u32 {
    let n = enabled.len() as u32;
    let mut k2 = if k == n + 1 { 0 } else { k };
    if k2 == 0 && source_accepting {
        k2 = 1;
    }
    while k2 >= 1 && k2 <= n {
        let p = (k2 - 1) as usize;
        if moved.contains(&p) || !enabled[p] {
            k2 += 1;
        } else {
            break;
        }
    }
    k2
}

/// [`SysStore::succ`] of a state whose successors are not computed yet.
const UNEXPANDED: (usize, usize) = (usize::MAX, 0);

/// [`SysStore::succ`] of a state with enabled steps whose every successor
/// was refused (by `max_states` or a cancellation): it has no successors
/// in the truncated product, and it is not terminal, so it gets no
/// stutter loop either.
const REFUSED: (usize, usize) = (usize::MAX, usize::MAX);

/// The edge reference of a stutter step (no system step is taken).
const STUTTER: usize = usize::MAX;

/// A [`Step`] as the edge array keeps it: 16 bytes instead of 40.
#[derive(Clone, Copy)]
struct PackedStep {
    proc: u32,
    trans: u32,
    /// The rendezvous partner's process, or `u32::MAX` for none.
    partner: u32,
    partner_trans: u32,
}

impl PackedStep {
    fn pack(step: Step) -> PackedStep {
        let narrow = |v: usize| u32::try_from(v).expect("process and transition indices fit u32");
        let (partner, partner_trans) = match step.partner {
            Some((q, u)) => (narrow(q.index()), narrow(u)),
            None => (u32::MAX, 0),
        };
        PackedStep {
            proc: narrow(step.proc.index()),
            trans: narrow(step.trans),
            partner,
            partner_trans,
        }
    }

    fn unpack(self) -> Step {
        Step {
            proc: ProcId(self.proc as usize),
            trans: self.trans as usize,
            partner: (self.partner != u32::MAX)
                .then_some((ProcId(self.partner as usize), self.partner_trans as usize)),
        }
    }
}

/// The system side of the product: the interned states, and what the
/// search caches about each, in flat arrays indexed by the state's id.
struct SysStore {
    arena: StateArena,
    /// Per state, its successors as `edges[start..end]`, or
    /// [`UNEXPANDED`], or [`REFUSED`]. An empty range means the state is
    /// terminal (stutter applies).
    succ: Vec<(usize, usize)>,
    /// System edges: the step taken and the successor's id.
    edges: Vec<(PackedStep, u32)>,
    /// Per state, the values of the `n_props` propositions, valid once
    /// `labeled`.
    labels: Vec<bool>,
    labeled: Vec<bool>,
    n_props: usize,
    /// Per state, for each of `n_enabled` processes whether it has an
    /// enabled step (as actor or rendezvous partner), written when the
    /// state is expanded. The fairness counters read it; without
    /// fairness `n_enabled` is 0.
    enabled: Vec<bool>,
    n_enabled: usize,
}

impl SysStore {
    /// The id of `state`, interning it (if `admit` allows) when it is new.
    fn intern(&mut self, state: &State, admit: impl FnOnce(usize) -> bool) -> Option<u32> {
        match self.arena.intern(state, admit) {
            Interned::Old(id) => Some(id),
            Interned::New(id) => {
                self.succ.push(UNEXPANDED);
                self.labels.resize(self.labels.len() + self.n_props, false);
                self.labeled.push(false);
                self.enabled
                    .resize(self.enabled.len() + self.n_enabled, false);
                Some(id)
            }
            Interned::Refused => None,
        }
    }

    fn labels(&self, sys: u32) -> &[bool] {
        let at = sys as usize * self.n_props;
        &self.labels[at..at + self.n_props]
    }

    fn enabled(&self, sys: u32) -> &[bool] {
        let at = sys as usize * self.n_enabled;
        &self.enabled[at..at + self.n_enabled]
    }
}

/// Node flag: on the outer DFS stack.
const GRAY: u8 = 1;
/// Node flag: the outer DFS has finished the node.
const BLACK: u8 = 2;
/// Node flag: visited by an inner DFS.
const INNER: u8 = 4;

/// A [`NodeFlags`] slot holding no key; no product key reaches it (see
/// `check_ltl_sequential`'s `limit`).
const NO_KEY: u64 = u64::MAX;

/// One flag byte per product node, in an open-addressed (linear probing)
/// table keyed by the node's exact integer key, kept at most half full.
/// The keys are dense small integers, so a multiply by `2^64 / φ` and the
/// top bits of the product spread them well enough.
struct NodeFlags {
    keys: Vec<u64>,
    flags: Vec<u8>,
    len: usize,
    /// `64 - log2(table size)`.
    shift: u32,
}

impl NodeFlags {
    fn new() -> NodeFlags {
        const BITS: u32 = 10;
        NodeFlags {
            keys: vec![NO_KEY; 1 << BITS],
            flags: vec![0; 1 << BITS],
            len: 0,
            shift: 64 - BITS,
        }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The flags of node `key`, added with none set when it is absent.
    fn get_mut(&mut self, key: u64) -> &mut u8 {
        if self.len * 2 >= self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.home(key);
        while self.keys[slot] != key {
            if self.keys[slot] == NO_KEY {
                self.keys[slot] = key;
                self.len += 1;
                break;
            }
            slot = (slot + 1) & mask;
        }
        &mut self.flags[slot]
    }

    fn grow(&mut self) {
        let size = self.keys.len() * 2;
        let keys = std::mem::replace(&mut self.keys, vec![NO_KEY; size]);
        let flags = std::mem::replace(&mut self.flags, vec![0; size]);
        self.shift -= 1;
        for (key, flag) in keys.into_iter().zip(flags) {
            if key == NO_KEY {
                continue;
            }
            let mut slot = self.home(key);
            while self.keys[slot] != NO_KEY {
                slot = (slot + 1) & (size - 1);
            }
            self.keys[slot] = key;
            self.flags[slot] = flag;
        }
    }
}

/// A product successor in a DFS buffer: the system edge taken (an index
/// into [`SysStore::edges`], or [`STUTTER`]) and the target node's key.
type Succ = (usize, u64);

/// State of the on-the-fly product exploration.
///
/// A product node `(sys, b, k)` is named by the exact integer key
/// `(sys · n_buchi + b) · n_counters + k`.
struct ProductGraph<'p> {
    checker: &'p Checker<'p>,
    props: &'p [Proposition],
    buchi: Vec<Vec<CompiledTransition>>,
    accepting: Vec<bool>,
    fairness: Fairness,
    n_procs: usize,
    /// Partial-order reduction table, when applicable (no fairness, no
    /// native propositions).
    reduction: Option<LocalLocations>,
    sys: SysStore,
    /// Interning stops, truncating the search, at this many system states.
    limit: usize,
    n_buchi: u64,
    /// Counter values per node: `N + 2` under weak fairness, else 1.
    n_counters: u64,
    /// Scratch reused by every expansion: the state expanded or labeled,
    /// a successor, the step list and a rendezvous message.
    current: State,
    next: State,
    steps: Vec<Step>,
    message: Vec<i32>,
    truncated: bool,
    edges_explored: usize,
}

impl ProductGraph<'_> {
    fn key(&self, sys: u32, b: usize, k: u32) -> u64 {
        (u64::from(sys) * self.n_buchi + b as u64) * self.n_counters + u64::from(k)
    }

    /// `(sys, b, k)` of a product key.
    fn node(&self, key: u64) -> (u32, usize, u32) {
        let k = (key % self.n_counters) as u32;
        let rest = key / self.n_counters;
        (
            (rest / self.n_buchi) as u32,
            (rest % self.n_buchi) as usize,
            k,
        )
    }

    /// The successors of system state `sys`, as a range of
    /// [`SysStore::edges`]. The first call enumerates the state's steps
    /// once, records its enabled processes from the full step list, and
    /// interns each successor; later calls return the cached range.
    fn sys_successors(&mut self, sys: u32) -> Result<(usize, usize), KernelError> {
        let cached = self.sys.succ[sys as usize];
        if cached != UNEXPANDED {
            return Ok(cached);
        }
        let (checker, limit) = (self.checker, self.limit);
        let program = checker.program;
        self.sys.arena.load(sys, &mut self.current);
        enabled_steps_into(program, &self.current, &mut self.steps, &mut self.message)?;
        if self.fairness == Fairness::Weak {
            let at = sys as usize * self.n_procs;
            mark_enabled(&self.steps, &mut self.sys.enabled[at..at + self.n_procs]);
        }
        if let Some(analysis) = &self.reduction {
            ample_subset(analysis, program, &self.current, &mut self.steps);
        }
        let start = self.sys.edges.len();
        for &step in &self.steps {
            apply_step_into(program, &self.current, step, &mut self.next, None)?;
            // Cancellation shares the truncation path: the product search
            // stops interning new system states and winds down over the
            // already-explored portion, reporting a truncated
            // (inconclusive) result instead of a proof — the same graceful
            // degradation a tripped state budget gets.
            let admit = |held: usize| {
                held < limit
                    && !checker
                        .cancel
                        .as_ref()
                        .is_some_and(CancelToken::is_cancelled)
            };
            match self.sys.intern(&self.next, admit) {
                Some(id) => self.sys.edges.push((PackedStep::pack(step), id)),
                None => self.truncated = true,
            }
        }
        let range = (start, self.sys.edges.len());
        // Only a state with no enabled step is terminal.
        let range = if range.0 == range.1 && !self.steps.is_empty() {
            REFUSED
        } else {
            range
        };
        self.sys.succ[sys as usize] = range;
        Ok(range)
    }

    /// Evaluates the propositions on system state `sys`, once.
    fn label(&mut self, sys: u32) -> Result<(), KernelError> {
        if self.sys.labeled[sys as usize] {
            return Ok(());
        }
        self.sys.arena.load(sys, &mut self.current);
        let view = StateView::new(self.checker.program, &self.current);
        let at = sys as usize * self.sys.n_props;
        let values = &mut self.sys.labels[at..at + self.sys.n_props];
        for (value, prop) in values.iter_mut().zip(self.props) {
            *value = prop.predicate.eval(&view)?;
        }
        self.sys.labeled[sys as usize] = true;
        Ok(())
    }

    /// The fairness counter after an edge out of `(sys, _, k)`.
    fn counter(&self, sys: u32, k: u32, source_accepting: bool, moved: &[usize]) -> u32 {
        match self.fairness {
            Fairness::None => 0,
            Fairness::Weak => next_counter(k, source_accepting, self.sys.enabled(sys), moved),
        }
    }

    /// Appends `(edge, (sys, t.target, k))` for every automaton transition
    /// `t` out of `b` that the (already evaluated) labels of `sys` enable.
    fn push_enabled(&self, b: usize, sys: u32, k: u32, edge: usize, out: &mut Vec<Succ>) {
        let labels = self.sys.labels(sys);
        for t in &self.buchi[b] {
            if t.literals.iter().all(|&(i, pos)| labels[i] == pos) {
                out.push((edge, self.key(sys, t.target, k)));
            }
        }
    }

    /// Product successors of a node, with the edge that reaches each,
    /// appended into a (pooled) buffer.
    fn successors_into(&mut self, key: u64, out: &mut Vec<Succ>) -> Result<(), KernelError> {
        debug_assert!(out.is_empty());
        let (sys, b, k) = self.node(key);
        let source_accepting = self.accepting[b];
        let (start, end) = self.sys_successors(sys)?;
        if (start, end) == REFUSED {
            // Truncated here: no successors.
        } else if start == end {
            // Stutter extension: self-loop on the terminal system state.
            // No process moves, but none is enabled either, so the fairness
            // counters pass straight through.
            let k2 = self.counter(sys, k, source_accepting, &[]);
            self.label(sys)?;
            self.push_enabled(b, sys, k2, STUTTER, out);
        } else {
            let mut moved = [0usize; 2];
            for edge in start..end {
                let (step, next_sys) = self.sys.edges[edge];
                let n_moved = moved_procs(&step.unpack(), &mut moved);
                let k2 = self.counter(sys, k, source_accepting, &moved[..n_moved]);
                self.label(next_sys)?;
                self.push_enabled(b, next_sys, k2, edge, out);
            }
        }
        self.edges_explored += out.len();
        Ok(())
    }

    /// Whether a product node is accepting under the configured fairness.
    fn node_accepting(&self, key: u64) -> bool {
        let (_, b, k) = self.node(key);
        match self.fairness {
            Fairness::None => self.accepting[b],
            Fairness::Weak => k == self.n_procs as u32 + 1,
        }
    }

    /// The trace events of the edges between consecutive frames of a DFS
    /// stack, appended to `events`.
    fn stack_events(
        &self,
        frames: &[Frame],
        events: &mut Vec<TraceEvent>,
    ) -> Result<(), KernelError> {
        for pair in frames.windows(2) {
            self.edge_events(pair[0].key, pair[1].edge_in, events)?;
        }
        Ok(())
    }

    /// The trace events of product edge `edge` out of node `source`.
    fn edge_events(
        &self,
        source: u64,
        edge: usize,
        events: &mut Vec<TraceEvent>,
    ) -> Result<(), KernelError> {
        if edge == STUTTER {
            events.push(TraceEvent::stutter());
            return Ok(());
        }
        let state = State::from_words(self.sys.arena.row(self.node(source).0).into());
        let step = self.sys.edges[edge].0.unpack();
        let applied = apply_step(self.checker.program, &state, step)?;
        events.extend(applied.events);
        Ok(())
    }
}

/// One nested-DFS frame: a product node, the edge it was entered by (out
/// of the node of the frame below), and its pooled successor buffer.
struct Frame {
    key: u64,
    edge_in: usize,
    succs: Vec<Succ>,
    next: usize,
}

impl Checker<'_> {
    /// Checks the LTL property `formula` (with `props` binding its
    /// proposition names to state predicates) against every run of the
    /// program, including stutter-extended terminating runs.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when the model is broken, a proposition name
    /// in the formula is not bound by `props`, or a predicate fails to
    /// evaluate.
    pub fn check_ltl(
        &self,
        formula: &Ltl,
        props: &[Proposition],
    ) -> Result<LtlReport, KernelError> {
        self.check_ltl_with(formula, props, Fairness::Weak)
    }

    /// Like [`Checker::check_ltl`] with an explicit [`Fairness`] choice.
    ///
    /// The search is the nested DFS below and runs on the calling thread
    /// whatever [`crate::SearchConfig::threads`] says, so a report is the
    /// same at every thread count except for its `elapsed` time.
    ///
    /// # Errors
    ///
    /// As for [`Checker::check_ltl`].
    pub fn check_ltl_with(
        &self,
        formula: &Ltl,
        props: &[Proposition],
        fairness: Fairness,
    ) -> Result<LtlReport, KernelError> {
        check_ltl_sequential(self, formula, props, fairness)
    }

    /// Convenience wrapper: parses `formula` and calls
    /// [`Checker::check_ltl`].
    ///
    /// # Errors
    ///
    /// Additionally returns [`KernelError::LtlParse`] for malformed
    /// formulas.
    pub fn check_ltl_str(
        &self,
        formula: &str,
        props: &[Proposition],
    ) -> Result<LtlReport, KernelError> {
        let parsed = pnp_ltl::parse(formula).map_err(|e| KernelError::LtlParse {
            message: e.to_string(),
        })?;
        self.check_ltl(&parsed, props)
    }

    /// Exact replay validation of a lasso-shaped counterexample: the
    /// prefix plus cycle must replay as a chain of enabled steps from the
    /// initial state ([`Checker::replay_trace`]), stutter events may only
    /// appear as a terminal suffix on a state with no enabled steps, and
    /// a cycle with real steps must close back on the system state the
    /// prefix ends in.
    ///
    /// The differential tests hold every lasso [`Checker::check_ltl`]
    /// reports to this standard from the outside, without reading the
    /// search's own bookkeeping.
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

/// The nested-DFS acceptance-cycle search (CVWY): the one LTL search,
/// run at every thread count.
fn check_ltl_sequential(
    checker: &Checker<'_>,
    formula: &Ltl,
    props: &[Proposition],
    fairness: Fairness,
) -> Result<LtlReport, KernelError> {
    let start = Instant::now();
    let program = checker.program;
    let buchi = translate(&formula.negated());
    let compiled = compile_buchi(&buchi, props)?;
    let accepting = (0..buchi.state_count())
        .map(|s| buchi.is_accepting(s))
        .collect::<Vec<_>>();
    let n_procs = program.processes().len();
    let n_buchi = buchi.state_count().max(1) as u64;
    let n_counters = match fairness {
        Fairness::None => 1,
        Fairness::Weak => n_procs as u64 + 2,
    };
    // Every product key stays below `NO_KEY`: at most `limit` system
    // states, `n_buchi · n_counters` nodes each.
    let key_room = u64::MAX / n_buchi.saturating_mul(n_counters);
    let limit = checker
        .config
        .max_states
        .min(MAX_ROWS)
        .min(usize::try_from(key_room).unwrap_or(usize::MAX));

    let mut graph = ProductGraph {
        checker,
        props,
        buchi: compiled,
        accepting,
        fairness,
        n_procs,
        reduction: (checker.config.partial_order_reduction
            && fairness == Fairness::None
            && props.iter().all(|p| p.predicate.is_expr_only()))
        .then(|| LocalLocations::analyze(program)),
        sys: SysStore {
            arena: StateArena::new(),
            succ: Vec::new(),
            edges: Vec::new(),
            labels: Vec::new(),
            labeled: Vec::new(),
            n_props: props.len(),
            enabled: Vec::new(),
            n_enabled: if fairness == Fairness::Weak {
                n_procs
            } else {
                0
            },
        },
        limit,
        n_buchi,
        n_counters,
        current: State::initial(program),
        next: State::initial(program),
        steps: Vec::new(),
        message: Vec::new(),
        truncated: false,
        edges_explored: 0,
    };

    // The initial state is interned whatever the budget or cancellation
    // say: the search needs a root, and the truncation they cause shows
    // from its first successor on.
    let initial = graph
        .sys
        .intern(&State::initial(program), |_| true)
        .expect("an empty arena admits the initial state");

    // Initial product nodes: automaton transitions out of state 0 that
    // read the initial system state's labels.
    graph.label(initial)?;
    let mut roots = Vec::new();
    graph.push_enabled(buchi.initial(), initial, 0, STUTTER, &mut roots);

    // Nested DFS (CVWY). Gray = on the outer stack; seeds run the inner
    // search in postorder. Both stacks outlive the loop: an accepting
    // cycle is read off them.
    let mut flags = NodeFlags::new();
    let mut colored = 0usize;
    let mut pool = SuccPool::default();
    let mut outer: Vec<Frame> = Vec::new();
    let mut inner: Vec<Frame> = Vec::new();
    // The gray node an inner search reached, and the edge it took there.
    let mut hit: Option<(u64, usize)> = None;

    'roots: for (_, root) in roots {
        let f = flags.get_mut(root);
        if *f & (GRAY | BLACK) != 0 {
            continue;
        }
        *f |= GRAY;
        colored += 1;
        let mut succs = pool.take();
        graph.successors_into(root, &mut succs)?;
        outer.push(Frame {
            key: root,
            edge_in: STUTTER,
            succs,
            next: 0,
        });

        while let Some(frame) = outer.last_mut() {
            if frame.next < frame.succs.len() {
                let (edge, target) = frame.succs[frame.next];
                frame.next += 1;
                let f = flags.get_mut(target);
                if *f & (GRAY | BLACK) == 0 {
                    *f |= GRAY;
                    colored += 1;
                    let mut succs = pool.take();
                    graph.successors_into(target, &mut succs)?;
                    outer.push(Frame {
                        key: target,
                        edge_in: edge,
                        succs,
                        next: 0,
                    });
                }
                continue;
            }

            // Postorder: inner search from accepting nodes.
            let seed = frame.key;
            if graph.node_accepting(seed) {
                *flags.get_mut(seed) |= INNER;
                let mut succs = pool.take();
                graph.successors_into(seed, &mut succs)?;
                inner.push(Frame {
                    key: seed,
                    edge_in: STUTTER,
                    succs,
                    next: 0,
                });
                while let Some(top) = inner.last_mut() {
                    if top.next < top.succs.len() {
                        let (edge, target) = top.succs[top.next];
                        top.next += 1;
                        let f = flags.get_mut(target);
                        if *f & GRAY != 0 {
                            // Target is on the outer stack: accepting
                            // cycle seed -> ... -> target -> ... -> seed.
                            hit = Some((target, edge));
                            break 'roots;
                        }
                        if *f & INNER == 0 {
                            *f |= INNER;
                            let mut succs = pool.take();
                            graph.successors_into(target, &mut succs)?;
                            inner.push(Frame {
                                key: target,
                                edge_in: edge,
                                succs,
                                next: 0,
                            });
                        }
                        continue;
                    }
                    let frame = inner.pop().expect("inner frame present");
                    pool.give(frame.succs);
                }
            }
            let f = flags.get_mut(seed);
            *f = (*f & !GRAY) | BLACK;
            let frame = outer.pop().expect("outer frame present");
            pool.give(frame.succs);
        }
    }

    let stats = SearchStats {
        unique_states: colored,
        steps: graph.edges_explored,
        max_depth: 0,
        elapsed: start.elapsed(),
        ..SearchStats::default()
    };

    let Some((hit, hit_edge)) = hit else {
        return Ok(LtlReport {
            outcome: LtlOutcome::Holds,
            stats,
            truncated: graph.truncated,
        });
    };

    // The lasso is read off the stacks. The outer stack runs from a root
    // to the seed (its top), so it is the prefix. The cycle leaves the
    // seed along the inner stack, takes the hit edge to the gray node,
    // and returns to the seed along the outer stack from there (nothing,
    // when the hit node is the seed itself).
    let mut prefix = Vec::new();
    graph.stack_events(&outer, &mut prefix)?;
    let mut cycle = Vec::new();
    graph.stack_events(&inner, &mut cycle)?;
    let last = inner.last().expect("the inner search is under way");
    graph.edge_events(last.key, hit_edge, &mut cycle)?;
    let hit_at = outer
        .iter()
        .position(|f| f.key == hit)
        .expect("a gray node is on the outer stack");
    graph.stack_events(&outer[hit_at..], &mut cycle)?;

    Ok(LtlReport {
        outcome: LtlOutcome::Violated {
            prefix: Trace::new(prefix),
            cycle: Trace::new(cycle),
        },
        stats,
        truncated: graph.truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::expr;
    use crate::program::{Action, Guard, ProcessBuilder, ProgramBuilder};

    /// A counter that increments to `stop` and halts (end state).
    fn counter(stop: i32) -> crate::program::Program {
        let mut prog = ProgramBuilder::new();
        let n = prog.global("n", 0);
        let mut p = ProcessBuilder::new("counter");
        let s0 = p.location("run");
        let s1 = p.location("halt");
        p.mark_end(s1);
        p.transition(
            s0,
            s0,
            Guard::when(expr::lt(expr::global(n), stop.into())),
            Action::assign(n, expr::global(n) + 1.into()),
            "inc",
        );
        p.transition(
            s0,
            s1,
            Guard::when(expr::ge(expr::global(n), stop.into())),
            Action::Skip,
            "stop",
        );
        prog.add_process(p).unwrap();
        prog.build().unwrap()
    }

    fn prop_n_eq(program: &crate::program::Program, value: i32) -> Proposition {
        let n = program.global_by_name("n").unwrap();
        Proposition::new(
            format!("n{value}"),
            Predicate::from_expr(expr::eq(expr::global(n), value.into())),
        )
    }

    #[test]
    fn eventually_reached_value_holds() {
        let program = counter(3);
        let checker = Checker::new(&program);
        let report = checker
            .check_ltl_str("<> n3", &[prop_n_eq(&program, 3)])
            .unwrap();
        assert!(report.outcome.is_holds(), "{:?}", report.outcome);
    }

    #[test]
    fn eventually_unreachable_value_is_violated_with_lasso() {
        let program = counter(3);
        let checker = Checker::new(&program);
        let report = checker
            .check_ltl_str("<> n5", &[prop_n_eq(&program, 5)])
            .unwrap();
        match report.outcome {
            LtlOutcome::Violated { prefix: _, cycle } => {
                // The violating run ends in stutter at the halt state.
                assert!(!cycle.is_empty());
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn globally_holds_for_true_bound() {
        let program = counter(3);
        let n = program.global_by_name("n").unwrap();
        let checker = Checker::new(&program);
        let bounded = Proposition::new(
            "bounded",
            Predicate::from_expr(expr::le(expr::global(n), 3.into())),
        );
        let report = checker.check_ltl_str("[] bounded", &[bounded]).unwrap();
        assert!(report.outcome.is_holds());
    }

    #[test]
    fn globally_violated_has_finite_prefix() {
        let program = counter(3);
        let n = program.global_by_name("n").unwrap();
        let checker = Checker::new(&program);
        let small = Proposition::new(
            "small",
            Predicate::from_expr(expr::lt(expr::global(n), 2.into())),
        );
        let report = checker.check_ltl_str("[] small", &[small]).unwrap();
        match report.outcome {
            LtlOutcome::Violated { prefix, .. } => {
                // n reaches 2 after two increments.
                assert!(!prefix.is_empty(), "prefix: {prefix:?}");
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    /// An infinite alternator between two locations, exposing a flag.
    fn alternator() -> crate::program::Program {
        let mut prog = ProgramBuilder::new();
        let flag = prog.global("flag", 0);
        let mut p = ProcessBuilder::new("alt");
        let s0 = p.location("off");
        let s1 = p.location("on");
        p.transition(
            s0,
            s1,
            Guard::always(),
            Action::assign(flag, 1.into()),
            "turn on",
        );
        p.transition(
            s1,
            s0,
            Guard::always(),
            Action::assign(flag, 0.into()),
            "turn off",
        );
        prog.add_process(p).unwrap();
        prog.build().unwrap()
    }

    #[test]
    fn infinitely_often_holds_on_alternator() {
        let program = alternator();
        let flag = program.global_by_name("flag").unwrap();
        let on = Proposition::new(
            "on",
            Predicate::from_expr(expr::eq(expr::global(flag), 1.into())),
        );
        let report = Checker::new(&program)
            .check_ltl_str("[] <> on", &[on])
            .unwrap();
        assert!(report.outcome.is_holds());
    }

    #[test]
    fn eventually_always_violated_on_alternator() {
        let program = alternator();
        let flag = program.global_by_name("flag").unwrap();
        let on = Proposition::new(
            "on",
            Predicate::from_expr(expr::eq(expr::global(flag), 1.into())),
        );
        let report = Checker::new(&program)
            .check_ltl_str("<> [] on", &[on])
            .unwrap();
        match report.outcome {
            LtlOutcome::Violated { cycle, .. } => {
                // The cycle alternates, so it has at least two steps.
                assert!(cycle.len() >= 2);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn next_operator_sees_first_transition() {
        let program = counter(2);
        let report = Checker::new(&program)
            .check_ltl_str("X n1", &[prop_n_eq(&program, 1)])
            .unwrap();
        assert!(report.outcome.is_holds());
        let report = Checker::new(&program)
            .check_ltl_str("X n2", &[prop_n_eq(&program, 2)])
            .unwrap();
        assert!(!report.outcome.is_holds());
    }

    #[test]
    fn until_ordering_is_verified() {
        let program = counter(3);
        let n = program.global_by_name("n").unwrap();
        let low = Proposition::new(
            "low",
            Predicate::from_expr(expr::lt(expr::global(n), 2.into())),
        );
        let report = Checker::new(&program)
            .check_ltl_str("low U n2", &[low, prop_n_eq(&program, 2)])
            .unwrap();
        assert!(report.outcome.is_holds());
    }

    #[test]
    fn unknown_proposition_is_an_error() {
        let program = counter(1);
        let err = Checker::new(&program)
            .check_ltl_str("<> mystery", &[])
            .unwrap_err();
        assert!(matches!(
            err,
            KernelError::UnknownProposition { name } if name == "mystery"
        ));
    }

    #[test]
    fn malformed_formula_is_an_error() {
        let program = counter(1);
        let err = Checker::new(&program)
            .check_ltl_str("<> (", &[])
            .unwrap_err();
        assert!(matches!(err, KernelError::LtlParse { .. }));
    }

    /// One process spins forever; another has a single always-enabled step
    /// that sets a flag. `<> flag` distinguishes the fairness modes: an
    /// unfair scheduler may starve the second process forever.
    #[test]
    fn weak_fairness_excludes_starvation() {
        let mut prog = ProgramBuilder::new();
        let flag = prog.global("flag", 0);
        let mut spinner = ProcessBuilder::new("spinner");
        let s0 = spinner.location("spin");
        spinner.transition(s0, s0, Guard::always(), Action::Skip, "spin");
        prog.add_process(spinner).unwrap();
        let mut setter = ProcessBuilder::new("setter");
        let t0 = setter.location("set");
        let t1 = setter.location("done");
        setter.mark_end(t1);
        setter.transition(
            t0,
            t1,
            Guard::always(),
            Action::assign(flag, 1.into()),
            "set flag",
        );
        prog.add_process(setter).unwrap();
        let program = prog.build().unwrap();

        let set = Proposition::new(
            "set",
            Predicate::from_expr(expr::eq(expr::global(flag), 1.into())),
        );
        let checker = Checker::new(&program);
        // Under weak fairness the setter, being continuously enabled, must
        // eventually move.
        let fair = checker
            .check_ltl_with(
                &pnp_ltl::parse("<> set").unwrap(),
                std::slice::from_ref(&set),
                Fairness::Weak,
            )
            .unwrap();
        assert!(fair.outcome.is_holds(), "{:?}", fair.outcome);
        // Without fairness the spinner may be scheduled forever.
        let unfair = checker
            .check_ltl_with(&pnp_ltl::parse("<> set").unwrap(), &[set], Fairness::None)
            .unwrap();
        assert!(!unfair.outcome.is_holds());
    }

    /// A rendezvous partner counts as "moved" for fairness purposes: the
    /// handshake between sender and receiver is one step of both.
    #[test]
    fn rendezvous_partner_counts_as_progress() {
        let mut prog = ProgramBuilder::new();
        let flag = prog.global("flag", 0);
        let ch = prog.channel("ch", 0, 1);
        let mut spinner = ProcessBuilder::new("spinner");
        let s0 = spinner.location("spin");
        spinner.transition(s0, s0, Guard::always(), Action::Skip, "spin");
        prog.add_process(spinner).unwrap();
        let mut sender = ProcessBuilder::new("sender");
        let t0 = sender.location("send");
        let t1 = sender.location("done");
        sender.mark_end(t1);
        sender.transition(
            t0,
            t1,
            Guard::always(),
            Action::send(ch, vec![1.into()]),
            "send",
        );
        prog.add_process(sender).unwrap();
        let mut receiver = ProcessBuilder::new("receiver");
        let r0 = receiver.location("recv");
        let r1 = receiver.location("mark");
        let r2 = receiver.location("done");
        receiver.mark_end(r2);
        receiver.transition(r0, r1, Guard::always(), Action::recv_any(ch, 1), "recv");
        receiver.transition(
            r1,
            r2,
            Guard::always(),
            Action::assign(flag, 1.into()),
            "mark",
        );
        prog.add_process(receiver).unwrap();
        let program = prog.build().unwrap();
        let set = Proposition::new(
            "delivered",
            Predicate::from_expr(expr::eq(expr::global(flag), 1.into())),
        );
        let report = Checker::new(&program)
            .check_ltl_str("<> delivered", &[set])
            .unwrap();
        assert!(report.outcome.is_holds(), "{:?}", report.outcome);
    }

    #[test]
    fn native_propositions_work() {
        let program = counter(2);
        let pid = program.process_by_name("counter").unwrap();
        let halted = Proposition::new(
            "halted",
            Predicate::native("at halt", move |view| view.location_name(pid) == "halt"),
        );
        let report = Checker::new(&program)
            .check_ltl_str("<> halted", &[halted])
            .unwrap();
        assert!(report.outcome.is_holds());
    }
}
