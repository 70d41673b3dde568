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

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use pnp_ltl::{translate, Buchi, Ltl};

use crate::explore::{CancelToken, Checker, Predicate, SearchStats};
use crate::state::{
    apply_step, apply_step_into, enabled_steps, KernelError, State, StateHasher, StateView, Step,
};
use crate::trace::{Trace, TraceEvent};

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
    /// `Some(reason)` when a multi-threaded check
    /// ([`crate::SearchConfig::threads`] > 1) fell back to the sequential
    /// nested-DFS algorithm; the outcome is then the sequential one.
    /// Always `None` for a sequential check.
    pub fallback: Option<&'static str>,
}

/// A compiled Büchi transition: literals resolved to proposition indices.
pub(crate) struct CompiledTransition {
    pub(crate) literals: Vec<(usize, bool)>,
    pub(crate) target: usize,
}

pub(crate) fn compile_buchi(
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

/// State of the on-the-fly product exploration.
struct ProductGraph<'p> {
    checker: &'p Checker<'p>,
    props: &'p [Proposition],
    buchi: Vec<Vec<CompiledTransition>>,
    accepting: Vec<bool>,

    /// Interned system states.
    sys_index: HashMap<Rc<State>, usize, StateHasher>,
    sys_states: Vec<Rc<State>>,
    /// Cached successor lists; `None` until computed. An empty list means
    /// the state is terminal (stutter applies).
    sys_succ: Vec<Option<SuccList>>,
    /// Cached proposition valuations per system state.
    labels: Vec<Option<Rc<Vec<bool>>>>,
    /// Cached per-state "process has an enabled step (as actor or
    /// rendezvous partner)" bitsets, used by the fairness counters.
    enabled_procs: Vec<Option<Rc<Vec<bool>>>>,

    fairness: Fairness,
    n_procs: usize,
    /// Partial-order reduction table, when applicable (no fairness, no
    /// native propositions).
    reduction: Option<crate::reduction::LocalLocations>,
    truncated: bool,
    edges_explored: usize,
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

/// A cached system-successor list: `(step, successor system id)` pairs.
type SuccList = Rc<Vec<(Step, usize)>>;

/// A product node: (system state id, automaton state, fairness counter).
///
/// The counter ranges over `0..=N+1` (`N` = process count): `0` = waiting
/// for an accepting automaton state, `k` in `1..=N` = waiting for process
/// `k-1` to move or block, `N+1` = a fair accepting point.
pub(crate) type Node = (usize, usize, u32);

/// An edge into a node: the system step taken, or `None` for stutter.
pub(crate) type Edge = Option<Step>;

/// A recycling arena for product-successor buffers.
///
/// Every DFS frame needs a `Vec<(Edge, Node)>` of product successors, and
/// both nested-DFS loops push and pop frames millions of times on large
/// products — a fresh heap allocation per frame is the hottest allocation
/// site of the liveness checker. The pool hands popped frames' buffers
/// back to new frames (capacity retained, contents cleared), so a search
/// settles into zero successor-buffer allocations once its maximum DFS
/// depth has been reached. Used by the sequential checker and by each
/// CNDFS worker (one pool per worker; buffers never cross threads).
#[derive(Default)]
pub(crate) struct SuccPool {
    free: Vec<Vec<(Edge, Node)>>,
}

impl SuccPool {
    pub(crate) fn take(&mut self) -> Vec<(Edge, Node)> {
        self.free.pop().unwrap_or_default()
    }

    pub(crate) fn give(&mut self, mut buf: Vec<(Edge, Node)>) {
        buf.clear();
        self.free.push(buf);
    }
}

/// The process indices moved by one product edge (at most an actor and
/// its rendezvous partner), without a per-edge heap allocation.
pub(crate) fn moved_procs(step: &Step, buf: &mut [usize; 2]) -> usize {
    buf[0] = step.proc.index();
    match step.partner {
        Some((partner, _)) => {
            buf[1] = partner.index();
            2
        }
        None => 1,
    }
}

impl<'p> ProductGraph<'p> {
    /// The id of `state`, interning a copy of it when it is new.
    fn intern_sys(&mut self, state: &State) -> Option<usize> {
        if let Some(&id) = self.sys_index.get(state) {
            return Some(id);
        }
        // Cancellation shares the truncation path: the product search
        // stops interning new system states and winds down over the
        // already-explored portion, reporting a truncated (inconclusive)
        // result instead of a proof — the same graceful degradation a
        // tripped state budget gets.
        if self.sys_states.len() >= self.checker.config.max_states
            || self
                .checker
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
        {
            self.truncated = true;
            return None;
        }
        let id = self.sys_states.len();
        let rc = Rc::new(state.clone());
        self.sys_index.insert(Rc::clone(&rc), id);
        self.sys_states.push(rc);
        self.sys_succ.push(None);
        self.labels.push(None);
        self.enabled_procs.push(None);
        Some(id)
    }

    fn enabled_procs_of(&mut self, sys_id: usize) -> Result<Rc<Vec<bool>>, KernelError> {
        if let Some(cached) = &self.enabled_procs[sys_id] {
            return Ok(Rc::clone(cached));
        }
        let state = Rc::clone(&self.sys_states[sys_id]);
        let mut enabled = vec![false; self.n_procs];
        for step in enabled_steps(self.checker.program, &state)? {
            enabled[step.proc.index()] = true;
            if let Some((partner, _)) = step.partner {
                enabled[partner.index()] = true;
            }
        }
        let rc = Rc::new(enabled);
        self.enabled_procs[sys_id] = Some(Rc::clone(&rc));
        Ok(rc)
    }

    /// Advances the weak-fairness counter across an edge out of `(sys, k)`.
    ///
    /// `source_accepting` is whether the automaton state being left is
    /// accepting; `moved` lists the processes executed by the edge (empty
    /// for stutter).
    fn next_counter(
        &mut self,
        sys: usize,
        k: u32,
        source_accepting: bool,
        moved: &[usize],
    ) -> Result<u32, KernelError> {
        if self.fairness == Fairness::None {
            return Ok(0);
        }
        let n = self.n_procs as u32;
        let enabled = self.enabled_procs_of(sys)?;
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
        Ok(k2)
    }

    fn labels_of(&mut self, sys_id: usize) -> Result<Rc<Vec<bool>>, KernelError> {
        if let Some(cached) = &self.labels[sys_id] {
            return Ok(Rc::clone(cached));
        }
        let state = Rc::clone(&self.sys_states[sys_id]);
        let view = StateView::new(self.checker.program, &state);
        let values = self
            .props
            .iter()
            .map(|p| p.predicate.eval(&view))
            .collect::<Result<Vec<bool>, _>>()?;
        let rc = Rc::new(values);
        self.labels[sys_id] = Some(Rc::clone(&rc));
        Ok(rc)
    }

    fn sys_successors(&mut self, sys_id: usize) -> Result<SuccList, KernelError> {
        if let Some(cached) = &self.sys_succ[sys_id] {
            return Ok(Rc::clone(cached));
        }
        let state = Rc::clone(&self.sys_states[sys_id]);
        let mut steps = enabled_steps(self.checker.program, &state)?;
        if let Some(analysis) = &self.reduction {
            crate::reduction::ample_subset(analysis, self.checker.program, &state, &mut steps);
        }
        let mut successors = Vec::with_capacity(steps.len());
        let mut scratch = (*state).clone();
        for step in steps {
            apply_step_into(self.checker.program, &state, step, &mut scratch, None)?;
            if let Some(next_id) = self.intern_sys(&scratch) {
                successors.push((step, next_id));
            }
        }
        let rc = Rc::new(successors);
        self.sys_succ[sys_id] = Some(Rc::clone(&rc));
        Ok(rc)
    }

    /// Product successors of a node, with the edge that reaches each,
    /// appended into a (pooled) buffer.
    fn successors_into(
        &mut self,
        (sys, b, k): Node,
        out: &mut Vec<(Edge, Node)>,
    ) -> Result<(), KernelError> {
        debug_assert!(out.is_empty());
        let source_accepting = self.accepting[b];
        let sys_succ = self.sys_successors(sys)?;
        if sys_succ.is_empty() {
            // Stutter extension: self-loop on the terminal system state.
            // No process moves, but none is enabled either, so the fairness
            // counters pass straight through.
            let k2 = self.next_counter(sys, k, source_accepting, &[])?;
            let labels = self.labels_of(sys)?;
            for t in &self.buchi[b] {
                if t.literals.iter().all(|&(i, pos)| labels[i] == pos) {
                    out.push((None, (sys, t.target, k2)));
                }
            }
        } else {
            let mut moved = [0usize; 2];
            for i in 0..sys_succ.len() {
                let (step, next_sys) = sys_succ[i];
                let n_moved = moved_procs(&step, &mut moved);
                let k2 = self.next_counter(sys, k, source_accepting, &moved[..n_moved])?;
                let labels = self.labels_of(next_sys)?;
                for t in &self.buchi[b] {
                    if t.literals.iter().all(|&(i, pos)| labels[i] == pos) {
                        out.push((Some(step), (next_sys, t.target, k2)));
                    }
                }
            }
        }
        self.edges_explored += out.len();
        Ok(())
    }

    /// Whether a product node is accepting under the configured fairness.
    fn node_accepting(&self, (_, b, k): Node) -> bool {
        match self.fairness {
            Fairness::None => self.accepting[b],
            Fairness::Weak => k == self.n_procs as u32 + 1,
        }
    }

    fn edge_events(&self, source_sys: usize, edge: Edge) -> Result<Vec<TraceEvent>, KernelError> {
        match edge {
            None => Ok(vec![TraceEvent::stutter()]),
            Some(step) => {
                let applied = apply_step(self.checker.program, &self.sys_states[source_sys], step)?;
                Ok(applied.events)
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Color {
    Gray,
    Black,
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
    /// When [`crate::SearchConfig::threads`] is greater than one this
    /// dispatches to the parallel CNDFS search
    /// (`crate::pliveness`); `threads <= 1` runs the sequential nested
    /// DFS below, byte-identically to a build without the parallel path.
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
        if self.config.threads > 1 {
            return crate::pliveness::check_ltl_parallel(self, formula, props, fairness);
        }
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
}

/// The sequential nested-DFS acceptance-cycle search (CVWY). Also the
/// oracle the parallel search falls back to when it cannot preserve a
/// mode, and the algorithm `threads <= 1` runs unchanged.
pub(crate) fn check_ltl_sequential(
    checker: &Checker<'_>,
    formula: &Ltl,
    props: &[Proposition],
    fairness: Fairness,
) -> Result<LtlReport, KernelError> {
    {
        let start = Instant::now();
        let buchi = translate(&formula.negated());
        let compiled = compile_buchi(&buchi, props)?;
        let accepting = (0..buchi.state_count())
            .map(|s| buchi.is_accepting(s))
            .collect::<Vec<_>>();

        let mut graph = ProductGraph {
            checker,
            props,
            buchi: compiled,
            accepting,
            sys_index: HashMap::default(),
            sys_states: Vec::new(),
            sys_succ: Vec::new(),
            labels: Vec::new(),
            enabled_procs: Vec::new(),
            fairness,
            n_procs: checker.program.processes().len(),
            reduction: (checker.config.partial_order_reduction
                && fairness == Fairness::None
                && props.iter().all(|p| p.predicate.is_expr_only()))
            .then(|| crate::reduction::LocalLocations::analyze(checker.program)),
            truncated: false,
            edges_explored: 0,
        };

        let initial_sys = graph
            .intern_sys(&State::initial(checker.program))
            .expect("max_states must be at least 1");

        // Initial product nodes: automaton transitions out of state 0 that
        // read the initial system state's labels.
        let labels0 = graph.labels_of(initial_sys)?;
        let mut roots = Vec::new();
        for t in &graph.buchi[buchi.initial()] {
            if t.literals.iter().all(|&(i, pos)| labels0[i] == pos) {
                roots.push((initial_sys, t.target, 0));
            }
        }

        // Nested DFS (CVWY). Gray = on the outer stack; seeds run the inner
        // search in postorder.
        let mut color: HashMap<Node, Color> = HashMap::new();
        let mut parent1: HashMap<Node, (Node, Edge)> = HashMap::new();
        let mut visited2: HashMap<Node, ()> = HashMap::new();
        let mut parent2: HashMap<Node, (Node, Edge)> = HashMap::new();
        let mut pool = SuccPool::default();

        struct Frame {
            node: Node,
            succs: Vec<(Edge, Node)>,
            next: usize,
        }

        let mut found: Option<(Node, Node)> = None; // (seed, gray hit)

        'roots: for root in roots {
            if color.contains_key(&root) {
                continue;
            }
            color.insert(root, Color::Gray);
            let mut root_succs = pool.take();
            graph.successors_into(root, &mut root_succs)?;
            let mut stack: Vec<Frame> = vec![Frame {
                node: root,
                succs: root_succs,
                next: 0,
            }];

            while let Some(frame) = stack.last_mut() {
                if frame.next < frame.succs.len() {
                    let (edge, target) = frame.succs[frame.next];
                    frame.next += 1;
                    let source = frame.node;
                    if let std::collections::hash_map::Entry::Vacant(e) = color.entry(target) {
                        e.insert(Color::Gray);
                        parent1.insert(target, (source, edge));
                        let mut succs = pool.take();
                        graph.successors_into(target, &mut succs)?;
                        stack.push(Frame {
                            node: target,
                            succs,
                            next: 0,
                        });
                    }
                    continue;
                }

                // Postorder: inner search from accepting nodes.
                let seed = frame.node;
                if graph.node_accepting(seed) {
                    let mut seed_succs = pool.take();
                    graph.successors_into(seed, &mut seed_succs)?;
                    #[allow(clippy::type_complexity)] // explicit DFS frame
                    let mut inner: Vec<(Node, Vec<(Edge, Node)>, usize)> =
                        vec![(seed, seed_succs, 0)];
                    visited2.insert(seed, ());
                    while let Some(entry) = inner.last_mut() {
                        if entry.2 < entry.1.len() {
                            let (edge, target) = entry.1[entry.2];
                            entry.2 += 1;
                            let source = entry.0;
                            if color.get(&target) == Some(&Color::Gray) {
                                // Target is on the outer stack: accepting
                                // cycle seed -> ... -> target -> ... -> seed.
                                parent2.insert(target, (source, edge));
                                found = Some((seed, target));
                                break 'roots;
                            }
                            if let std::collections::hash_map::Entry::Vacant(e) =
                                visited2.entry(target)
                            {
                                e.insert(());
                                parent2.insert(target, (source, edge));
                                let mut succs = pool.take();
                                graph.successors_into(target, &mut succs)?;
                                inner.push((target, succs, 0));
                            }
                            continue;
                        }
                        let (_, succs, _) = inner.pop().expect("inner frame present");
                        pool.give(succs);
                    }
                }
                color.insert(seed, Color::Black);
                let frame = stack.pop().expect("outer frame present");
                pool.give(frame.succs);
            }
        }

        let stats = SearchStats {
            unique_states: color.len(),
            steps: graph.edges_explored,
            max_depth: 0,
            elapsed: start.elapsed(),
            ..SearchStats::default()
        };

        let Some((seed, hit)) = found else {
            return Ok(LtlReport {
                outcome: LtlOutcome::Holds,
                stats,
                truncated: graph.truncated,
                fallback: None,
            });
        };

        // Reconstruct the lasso.
        // Prefix: root -> seed along outer-DFS tree parents.
        let mut prefix_edges: Vec<(usize, Edge)> = Vec::new(); // (source sys, edge)
        {
            let mut node = seed;
            while let Some(&(parent, edge)) = parent1.get(&node) {
                prefix_edges.push((parent.0, edge));
                node = parent;
            }
            prefix_edges.reverse();
        }
        // Cycle part A: seed -> hit along inner-DFS parents.
        let mut cycle_a: Vec<(usize, Edge)> = Vec::new();
        {
            // Walk at least one edge so that a cycle closing directly at the
            // seed (hit == seed) is not reconstructed as empty.
            let mut node = hit;
            loop {
                let &(parent, edge) = parent2.get(&node).expect("inner parent chain broken");
                cycle_a.push((parent.0, edge));
                node = parent;
                if node == seed {
                    break;
                }
            }
            cycle_a.reverse();
        }
        // Cycle part B: hit -> seed along the outer stack segment (outer
        // parents lead from seed back up through hit, since hit is gray).
        let mut cycle_b: Vec<(usize, Edge)> = Vec::new();
        if hit != seed {
            let mut node = seed;
            loop {
                let &(parent, edge) = parent1.get(&node).expect("outer parent chain broken");
                cycle_b.push((parent.0, edge));
                if parent == hit {
                    break;
                }
                node = parent;
            }
            cycle_b.reverse();
        }

        let mut prefix_events = Vec::new();
        for (sys, edge) in prefix_edges {
            prefix_events.extend(graph.edge_events(sys, edge)?);
        }
        let mut cycle_events = Vec::new();
        for (sys, edge) in cycle_a.into_iter().chain(cycle_b) {
            cycle_events.extend(graph.edge_events(sys, edge)?);
        }

        Ok(LtlReport {
            outcome: LtlOutcome::Violated {
                prefix: Trace::new(prefix_events),
                cycle: Trace::new(cycle_events),
            },
            stats,
            truncated: graph.truncated,
            fallback: None,
        })
    }
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
