//! Program representation: channels, processes, guards, actions, builders.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::expression::Expr;
use crate::state::{Layout, Partners};

/// Identifies a channel within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChanId(pub(crate) usize);

/// Identifies a process within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) usize);

/// Identifies a global variable within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub(crate) usize);

/// Identifies a local variable within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub(crate) usize);

/// Identifies a control location within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(pub(crate) u32);

impl ChanId {
    /// The channel's index in declaration order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a `ChanId` from an index. The caller is responsible for
    /// keeping it in range of the program it is used with.
    pub fn from_index(index: usize) -> ChanId {
        ChanId(index)
    }
}

impl ProcId {
    /// The process's index in declaration order (its `_pid`).
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a `ProcId` from an index. The caller is responsible for
    /// keeping it in range of the program it is used with; out-of-range ids
    /// panic when dereferenced.
    pub fn from_index(index: usize) -> ProcId {
        ProcId(index)
    }
}

impl GlobalId {
    /// The global's index in declaration order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a `GlobalId` from an index. The caller is responsible
    /// for keeping it in range of the program it is used with.
    pub fn from_index(index: usize) -> GlobalId {
        GlobalId(index)
    }
}

impl LocalId {
    /// The local's slot index within its process.
    pub fn index(self) -> usize {
        self.0
    }
}

impl Loc {
    /// The location's index within its process.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A channel declaration.
///
/// Capacity `0` declares a rendezvous channel (Promela `[0]`): a send on it
/// only fires together with a matching receive in another process. Capacity
/// `n > 0` declares a bounded FIFO buffer; sends block (are disabled) while
/// the buffer is full.
#[derive(Debug, Clone)]
pub struct ChannelDecl {
    pub(crate) name: String,
    pub(crate) capacity: usize,
    pub(crate) arity: usize,
}

impl ChannelDecl {
    /// The channel's name (for traces and diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The buffer capacity; `0` means rendezvous.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of integer fields in each message.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Whether this is a rendezvous (capacity 0) channel.
    pub fn is_rendezvous(&self) -> bool {
        self.capacity == 0
    }
}

/// A guard: the enabling condition of a transition.
///
/// A transition may fire only when its guard holds. The guard is the
/// conjunction of an optional [`Expr`] (over the process's locals, the
/// globals, and `_pid`) and an optional [`NativeGuard`] (over the locals
/// only, used by connector building blocks for buffer bookkeeping).
#[derive(Clone, Default)]
pub struct Guard {
    pub(crate) expr: Option<Expr>,
    pub(crate) native: Option<NativeGuard>,
}

impl Guard {
    /// The trivially-true guard.
    pub fn always() -> Guard {
        Guard::default()
    }

    /// A guard from an expression (nonzero = enabled).
    pub fn when(expr: Expr) -> Guard {
        Guard {
            expr: Some(expr),
            native: None,
        }
    }

    /// A guard from a native predicate over the process's locals.
    pub fn native(guard: NativeGuard) -> Guard {
        Guard {
            expr: None,
            native: Some(guard),
        }
    }

    /// Conjoins an expression onto this guard.
    pub fn and_when(mut self, expr: Expr) -> Guard {
        self.expr = Some(match self.expr {
            Some(e) => crate::expression::expr::and(e, expr),
            None => expr,
        });
        self
    }

    /// Conjoins a native predicate onto this guard.
    ///
    /// # Panics
    ///
    /// Panics if the guard already has a native predicate.
    pub fn and_native(mut self, guard: NativeGuard) -> Guard {
        assert!(
            self.native.is_none(),
            "guard already has a native predicate"
        );
        self.native = Some(guard);
        self
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.expr, &self.native) {
            (None, None) => write!(f, "Guard(true)"),
            (Some(e), None) => write!(f, "Guard({e})"),
            (None, Some(n)) => write!(f, "Guard(native:{})", n.name),
            (Some(e), Some(n)) => write!(f, "Guard({e} && native:{})", n.name),
        }
    }
}

/// The function type backing a [`NativeGuard`].
pub type NativeGuardFn = dyn Fn(&[i32]) -> bool + Send + Sync;

/// A named native predicate over a process's local variables.
///
/// Native guards let connector building blocks test conditions that would be
/// awkward in the expression language (e.g. "does the buffer contain a
/// message matching this selective-receive tag?").
#[derive(Clone)]
pub struct NativeGuard {
    pub(crate) name: String,
    pub(crate) f: Arc<NativeGuardFn>,
}

impl NativeGuard {
    /// Creates a native guard. The name appears in `Debug` output and
    /// diagnostics.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&[i32]) -> bool + Send + Sync + 'static,
    ) -> Self {
        NativeGuard {
            name: name.into(),
            f: Arc::new(f),
        }
    }
}

impl fmt::Debug for NativeGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NativeGuard({})", self.name)
    }
}

/// The function type backing a [`NativeOp`].
pub type NativeOpFn = dyn Fn(&mut [i32]) + Send + Sync;

/// A named native operation that mutates a process's local variables.
///
/// Used by channel building blocks to implement buffer operations (push,
/// pop, priority insert) over a contiguous block of locals. Native ops must
/// be pure functions of the locals: the kernel re-executes them freely
/// during state-space exploration.
#[derive(Clone)]
pub struct NativeOp {
    pub(crate) name: String,
    pub(crate) f: Arc<NativeOpFn>,
}

impl NativeOp {
    /// Creates a native operation. The name appears in traces.
    pub fn new(name: impl Into<String>, f: impl Fn(&mut [i32]) + Send + Sync + 'static) -> Self {
        NativeOp {
            name: name.into(),
            f: Arc::new(f),
        }
    }

    /// The operation's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for NativeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NativeOp({})", self.name)
    }
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A process-local variable.
    Local(usize),
    /// A local addressed as `base + offset`, with the offset evaluated at
    /// run time.
    LocalIdx(usize, Expr),
    /// A global variable.
    Global(usize),
}

impl From<LocalId> for LValue {
    fn from(id: LocalId) -> LValue {
        LValue::Local(id.0)
    }
}

impl From<GlobalId> for LValue {
    fn from(id: GlobalId) -> LValue {
        LValue::Global(id.0)
    }
}

impl LValue {
    /// An indexed local slot `base + offset`.
    pub fn local_idx(base: LocalId, offset: Expr) -> LValue {
        LValue::LocalIdx(base.0, offset)
    }
}

/// A pattern for one field of a received message.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldPat {
    /// Matches any value (Promela's `_` or a plain variable).
    Any,
    /// Matches when the field equals the expression, evaluated in the
    /// *receiving* process's context (Promela's constant or `eval(...)`).
    Eq(Expr),
}

impl FieldPat {
    /// Matches the receiving process's own id (Promela `eval(_pid)`).
    pub fn self_pid() -> FieldPat {
        FieldPat::Eq(Expr::SelfPid)
    }

    /// Matches a constant.
    pub fn lit(v: i32) -> FieldPat {
        FieldPat::Eq(Expr::Const(v))
    }
}

/// How a buffered receive selects a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecvPolicy {
    /// Promela `?`: only the message at the head of the buffer is
    /// considered; the receive is disabled if the head does not match.
    #[default]
    Head,
    /// Promela `??`: the first message anywhere in the buffer that matches
    /// is received.
    FirstMatch,
}

/// The effect of a transition.
#[derive(Debug, Clone)]
pub enum Action {
    /// No effect (a pure guard step).
    Skip,
    /// One or more assignments, applied left to right.
    Assign(Vec<(LValue, Expr)>),
    /// Sends a message; field expressions are evaluated in the sender's
    /// context. On a rendezvous channel this fires together with a matching
    /// receive; on a buffered channel it is disabled while the buffer is
    /// full.
    Send {
        /// The channel to send on.
        chan: ChanId,
        /// One expression per message field.
        msg: Vec<Expr>,
    },
    /// Receives a message matching `pattern`; `binds` copies message fields
    /// into variables.
    Recv {
        /// The channel to receive from.
        chan: ChanId,
        /// One pattern per message field.
        pattern: Vec<FieldPat>,
        /// `(field index, destination)` pairs applied on receipt.
        binds: Vec<(usize, LValue)>,
        /// Buffered-receive selection policy (ignored for rendezvous).
        policy: RecvPolicy,
    },
    /// Runs a native operation on the process's locals.
    Native(NativeOp),
    /// Evaluates the condition and reports a safety violation if it is
    /// false. The step itself always fires.
    Assert {
        /// Must evaluate nonzero.
        cond: Expr,
        /// Violation message for the report.
        message: String,
    },
}

impl Action {
    /// A single assignment.
    pub fn assign(lvalue: impl Into<LValue>, expr: Expr) -> Action {
        Action::Assign(vec![(lvalue.into(), expr)])
    }

    /// Several assignments applied atomically, left to right.
    pub fn assign_all(assignments: Vec<(LValue, Expr)>) -> Action {
        Action::Assign(assignments)
    }

    /// A send of `msg` on `chan`.
    pub fn send(chan: ChanId, msg: Vec<Expr>) -> Action {
        Action::Send { chan, msg }
    }

    /// A receive on `chan` that accepts any message and discards it.
    pub fn recv_any(chan: ChanId, arity: usize) -> Action {
        Action::Recv {
            chan,
            pattern: vec![FieldPat::Any; arity],
            binds: Vec::new(),
            policy: RecvPolicy::Head,
        }
    }

    /// A receive with explicit patterns and bindings (head policy).
    pub fn recv(chan: ChanId, pattern: Vec<FieldPat>, binds: Vec<(usize, LValue)>) -> Action {
        Action::Recv {
            chan,
            pattern,
            binds,
            policy: RecvPolicy::Head,
        }
    }

    /// An assertion.
    pub fn assert(cond: Expr, message: impl Into<String>) -> Action {
        Action::Assert {
            cond,
            message: message.into(),
        }
    }
}

/// One transition of a process automaton.
#[derive(Debug, Clone)]
pub struct Transition {
    pub(crate) guard: Guard,
    pub(crate) action: Action,
    pub(crate) target: u32,
    pub(crate) label: String,
}

impl Transition {
    /// The transition's human-readable label (shown in traces).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The transition's action.
    pub fn action(&self) -> &Action {
        &self.action
    }

    /// The transition's target location.
    pub fn target(&self) -> Loc {
        Loc(self.target)
    }
}

/// A process definition: a finite automaton over locations with local
/// variables. Build one with [`ProcessBuilder`].
#[derive(Debug, Clone)]
pub struct ProcessDef {
    pub(crate) name: String,
    pub(crate) locals: Vec<(String, i32)>,
    pub(crate) loc_names: Vec<String>,
    pub(crate) init_loc: u32,
    pub(crate) end_locs: BTreeSet<u32>,
    /// Outgoing transitions, indexed by source location.
    pub(crate) outgoing: Vec<Vec<Transition>>,
}

impl ProcessDef {
    /// The process's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of local variables.
    pub fn local_count(&self) -> usize {
        self.locals.len()
    }

    /// The number of control locations.
    pub fn location_count(&self) -> usize {
        self.loc_names.len()
    }

    /// The number of transitions.
    pub fn transition_count(&self) -> usize {
        self.outgoing.iter().map(Vec::len).sum()
    }

    /// The name of a location.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn location_name(&self, loc: Loc) -> &str {
        &self.loc_names[loc.index()]
    }

    /// Whether `loc` is a valid end state (for deadlock detection: a process
    /// resting in an end location is not considered stuck).
    pub fn is_end_location(&self, loc: Loc) -> bool {
        self.end_locs.contains(&loc.0)
    }
}

/// Builder for a [`ProcessDef`].
///
/// # Example
///
/// ```
/// use pnp_kernel::{expr, Action, Guard, ProcessBuilder};
///
/// let mut p = ProcessBuilder::new("counter");
/// let n = p.local("n", 0);
/// let s0 = p.location("loop");
/// p.transition(
///     s0,
///     s0,
///     Guard::when(expr::lt(expr::local(n), 3.into())),
///     Action::assign(n, expr::local(n) + 1.into()),
///     "increment",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ProcessBuilder {
    def: ProcessDef,
}

impl ProcessBuilder {
    /// Starts building a process. The first location added becomes the
    /// initial location unless [`ProcessBuilder::set_initial`] is called.
    pub fn new(name: impl Into<String>) -> ProcessBuilder {
        ProcessBuilder {
            def: ProcessDef {
                name: name.into(),
                locals: Vec::new(),
                loc_names: Vec::new(),
                init_loc: 0,
                end_locs: BTreeSet::new(),
                outgoing: Vec::new(),
            },
        }
    }

    /// Declares a local variable with an initial value.
    pub fn local(&mut self, name: impl Into<String>, init: i32) -> LocalId {
        self.def.locals.push((name.into(), init));
        LocalId(self.def.locals.len() - 1)
    }

    /// Declares a contiguous block of `count` locals (a buffer), all
    /// initialized to `init`. Returns the id of the first slot.
    pub fn local_block(&mut self, name: impl Into<String>, count: usize, init: i32) -> LocalId {
        let name = name.into();
        let first = self.def.locals.len();
        for i in 0..count {
            self.def.locals.push((format!("{name}[{i}]"), init));
        }
        LocalId(first)
    }

    /// Adds a control location.
    pub fn location(&mut self, name: impl Into<String>) -> Loc {
        self.def.loc_names.push(name.into());
        self.def.outgoing.push(Vec::new());
        Loc((self.def.loc_names.len() - 1) as u32)
    }

    /// Sets the initial location (defaults to the first one added).
    pub fn set_initial(&mut self, loc: Loc) {
        self.def.init_loc = loc.0;
    }

    /// Marks a location as a valid end state for deadlock detection.
    pub fn mark_end(&mut self, loc: Loc) {
        self.def.end_locs.insert(loc.0);
    }

    /// Adds a transition from `from` to `to`.
    pub fn transition(
        &mut self,
        from: Loc,
        to: Loc,
        guard: Guard,
        action: Action,
        label: impl Into<String>,
    ) {
        self.def.outgoing[from.index()].push(Transition {
            guard,
            action,
            target: to.0,
            label: label.into(),
        });
    }

    /// The number of locations added so far.
    pub fn location_count(&self) -> usize {
        self.def.loc_names.len()
    }

    pub(crate) fn into_def(self) -> ProcessDef {
        self.def
    }
}

/// A complete, validated program. Build one with [`ProgramBuilder`].
#[derive(Clone)]
pub struct Program {
    pub(crate) channels: Vec<ChannelDecl>,
    pub(crate) processes: Vec<ProcessDef>,
    pub(crate) globals: Vec<(String, i32)>,
    /// Where each part of a state lives in its word slice.
    pub(crate) layout: Layout,
    /// Which receive transitions can partner each rendezvous channel's
    /// sends.
    pub(crate) partners: Partners,
}

/// Renders exactly what a derived `Debug` rendered before the partner
/// index existed: [`program_fingerprint`](crate::program_fingerprint)
/// hashes this text, so a derived field added here would refuse every
/// checkpoint written by an earlier build of the same program.
impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("channels", &self.channels)
            .field("processes", &self.processes)
            .field("globals", &self.globals)
            .field("layout", &self.layout)
            .finish()
    }
}

impl Program {
    /// The channel declarations, in declaration order.
    pub fn channels(&self) -> &[ChannelDecl] {
        &self.channels
    }

    /// The process definitions, in declaration order.
    pub fn processes(&self) -> &[ProcessDef] {
        &self.processes
    }

    /// The names and initial values of the global variables.
    pub fn globals(&self) -> &[(String, i32)] {
        &self.globals
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|(n, _)| n == name)
            .map(GlobalId)
    }

    /// Looks up a process by name.
    pub fn process_by_name(&self, name: &str) -> Option<ProcId> {
        self.processes
            .iter()
            .position(|p| p.name == name)
            .map(ProcId)
    }

    /// Total transition count over all processes (a size measure).
    pub fn transition_count(&self) -> usize {
        self.processes
            .iter()
            .map(ProcessDef::transition_count)
            .sum()
    }
}

/// An error detected while assembling a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A send or receive references a channel with the wrong field count.
    ArityMismatch {
        /// Offending process name.
        process: String,
        /// Offending transition label.
        transition: String,
        /// The channel's declared arity.
        expected: usize,
        /// The arity used by the action.
        found: usize,
    },
    /// A receive bind references a message field beyond the channel arity.
    BindOutOfRange {
        /// Offending process name.
        process: String,
        /// Offending transition label.
        transition: String,
        /// The out-of-range field index.
        field: usize,
        /// The channel's arity.
        arity: usize,
    },
    /// An expression references a local slot the process does not have.
    LocalOutOfRange {
        /// Offending process name.
        process: String,
        /// The out-of-range slot.
        index: usize,
        /// The process's local count.
        len: usize,
    },
    /// An expression references a global the program does not have.
    GlobalOutOfRange {
        /// Offending process name.
        process: String,
        /// The out-of-range index.
        index: usize,
        /// The program's global count.
        len: usize,
    },
    /// A process has no locations.
    EmptyProcess {
        /// Offending process name.
        process: String,
    },
    /// The program has no processes.
    NoProcesses,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ArityMismatch {
                process,
                transition,
                expected,
                found,
            } => write!(
                f,
                "process '{process}', transition '{transition}': channel arity is {expected} but action uses {found} fields"
            ),
            BuildError::BindOutOfRange {
                process,
                transition,
                field,
                arity,
            } => write!(
                f,
                "process '{process}', transition '{transition}': bind references field {field} of a {arity}-field message"
            ),
            BuildError::LocalOutOfRange {
                process,
                index,
                len,
            } => write!(
                f,
                "process '{process}': local slot {index} referenced but only {len} locals declared"
            ),
            BuildError::GlobalOutOfRange {
                process,
                index,
                len,
            } => write!(
                f,
                "process '{process}': global {index} referenced but only {len} globals declared"
            ),
            BuildError::EmptyProcess { process } => {
                write!(f, "process '{process}' has no locations")
            }
            BuildError::NoProcesses => write!(f, "program has no processes"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for a [`Program`].
///
/// Declare globals and channels, add processes built with
/// [`ProcessBuilder`], then call [`ProgramBuilder::build`], which validates
/// cross-references (channel arities, variable indices).
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    channels: Vec<ChannelDecl>,
    processes: Vec<ProcessDef>,
    globals: Vec<(String, i32)>,
    /// The added processes' rendezvous receives, for the partner index.
    receives: Vec<(u32, u32, u32, u32)>,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Declares a global variable with an initial value.
    pub fn global(&mut self, name: impl Into<String>, init: i32) -> GlobalId {
        self.globals.push((name.into(), init));
        GlobalId(self.globals.len() - 1)
    }

    /// Declares a channel. `capacity == 0` means rendezvous; `arity` is the
    /// number of integer fields per message.
    pub fn channel(&mut self, name: impl Into<String>, capacity: usize, arity: usize) -> ChanId {
        self.channels.push(ChannelDecl {
            name: name.into(),
            capacity,
            arity,
        });
        ChanId(self.channels.len() - 1)
    }

    /// Adds a process, validating its references against the channels and
    /// globals declared so far.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the process references channels with
    /// the wrong arity or variables that do not exist.
    pub fn add_process(&mut self, builder: ProcessBuilder) -> Result<ProcId, BuildError> {
        let def = builder.into_def();
        self.validate_process(&def)?;
        let proc = self.processes.len();
        self.receives
            .extend(Partners::receives_of(&self.channels, proc, &def));
        self.processes.push(def);
        Ok(ProcId(proc))
    }

    fn check_expr(&self, process: &str, e: &Expr, locals: usize) -> Result<(), BuildError> {
        if let Some(i) = e.max_local() {
            if i >= locals {
                return Err(BuildError::LocalOutOfRange {
                    process: process.to_string(),
                    index: i,
                    len: locals,
                });
            }
        }
        if let Some(i) = e.max_global() {
            if i >= self.globals.len() {
                return Err(BuildError::GlobalOutOfRange {
                    process: process.to_string(),
                    index: i,
                    len: self.globals.len(),
                });
            }
        }
        Ok(())
    }

    fn check_lvalue(&self, process: &str, lv: &LValue, locals: usize) -> Result<(), BuildError> {
        match lv {
            LValue::Local(i) => {
                if *i >= locals {
                    return Err(BuildError::LocalOutOfRange {
                        process: process.to_string(),
                        index: *i,
                        len: locals,
                    });
                }
            }
            LValue::LocalIdx(base, offset) => {
                if *base >= locals {
                    return Err(BuildError::LocalOutOfRange {
                        process: process.to_string(),
                        index: *base,
                        len: locals,
                    });
                }
                self.check_expr(process, offset, locals)?;
            }
            LValue::Global(i) => {
                if *i >= self.globals.len() {
                    return Err(BuildError::GlobalOutOfRange {
                        process: process.to_string(),
                        index: *i,
                        len: self.globals.len(),
                    });
                }
            }
        }
        Ok(())
    }

    fn validate_process(&self, def: &ProcessDef) -> Result<(), BuildError> {
        if def.loc_names.is_empty() {
            return Err(BuildError::EmptyProcess {
                process: def.name.clone(),
            });
        }
        let locals = def.locals.len();
        for transitions in &def.outgoing {
            for t in transitions {
                if let Some(e) = &t.guard.expr {
                    self.check_expr(&def.name, e, locals)?;
                }
                match &t.action {
                    Action::Skip => {}
                    Action::Assign(assignments) => {
                        for (lv, e) in assignments {
                            self.check_lvalue(&def.name, lv, locals)?;
                            self.check_expr(&def.name, e, locals)?;
                        }
                    }
                    Action::Send { chan, msg } => {
                        let decl = &self.channels[chan.0];
                        if msg.len() != decl.arity {
                            return Err(BuildError::ArityMismatch {
                                process: def.name.clone(),
                                transition: t.label.clone(),
                                expected: decl.arity,
                                found: msg.len(),
                            });
                        }
                        for e in msg {
                            self.check_expr(&def.name, e, locals)?;
                        }
                    }
                    Action::Recv {
                        chan,
                        pattern,
                        binds,
                        ..
                    } => {
                        let decl = &self.channels[chan.0];
                        if pattern.len() != decl.arity {
                            return Err(BuildError::ArityMismatch {
                                process: def.name.clone(),
                                transition: t.label.clone(),
                                expected: decl.arity,
                                found: pattern.len(),
                            });
                        }
                        for p in pattern {
                            if let FieldPat::Eq(e) = p {
                                self.check_expr(&def.name, e, locals)?;
                            }
                        }
                        for (field, lv) in binds {
                            if *field >= decl.arity {
                                return Err(BuildError::BindOutOfRange {
                                    process: def.name.clone(),
                                    transition: t.label.clone(),
                                    field: *field,
                                    arity: decl.arity,
                                });
                            }
                            self.check_lvalue(&def.name, lv, locals)?;
                        }
                    }
                    Action::Native(_) => {}
                    Action::Assert { cond, .. } => {
                        self.check_expr(&def.name, cond, locals)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Finishes the program, deriving its state layout and rendezvous
    /// partner index.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::NoProcesses`] for an empty program.
    pub fn build(self) -> Result<Program, BuildError> {
        if self.processes.is_empty() {
            return Err(BuildError::NoProcesses);
        }
        let layout = Layout::new(&self.channels, &self.processes, &self.globals);
        let partners = Partners::new(self.channels.len(), self.receives);
        Ok(Program {
            channels: self.channels,
            processes: self.processes,
            globals: self.globals,
            layout,
            partners,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::expr;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut prog = ProgramBuilder::new();
        let g0 = prog.global("a", 1);
        let g1 = prog.global("b", 2);
        assert_eq!(g0.index(), 0);
        assert_eq!(g1.index(), 1);
        let c0 = prog.channel("ch", 0, 2);
        assert_eq!(c0.index(), 0);
        let mut p = ProcessBuilder::new("p");
        let l0 = p.local("x", 0);
        let l1 = p.local("y", 0);
        assert_eq!((l0.index(), l1.index()), (0, 1));
        let s0 = p.location("start");
        assert_eq!(s0.index(), 0);
        p.transition(s0, s0, Guard::always(), Action::Skip, "loop");
        let pid = prog.add_process(p).unwrap();
        assert_eq!(pid.index(), 0);
        let program = prog.build().unwrap();
        assert_eq!(program.processes()[0].local_count(), 2);
        assert_eq!(program.transition_count(), 1);
    }

    #[test]
    fn local_block_reserves_contiguous_slots() {
        let mut p = ProcessBuilder::new("p");
        let _x = p.local("x", 0);
        let buf = p.local_block("buf", 3, -1);
        assert_eq!(buf.index(), 1);
        let def = p.into_def();
        assert_eq!(def.local_count(), 4);
        assert_eq!(def.locals[2], ("buf[1]".to_string(), -1));
    }

    #[test]
    fn send_arity_is_validated() {
        let mut prog = ProgramBuilder::new();
        let ch = prog.channel("ch", 1, 2);
        let mut p = ProcessBuilder::new("sender");
        let s0 = p.location("s0");
        p.transition(
            s0,
            s0,
            Guard::always(),
            Action::send(ch, vec![1.into()]),
            "bad send",
        );
        let err = prog.add_process(p).unwrap_err();
        assert!(matches!(
            err,
            BuildError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            }
        ));
    }

    #[test]
    fn recv_bind_range_is_validated() {
        let mut prog = ProgramBuilder::new();
        let ch = prog.channel("ch", 1, 1);
        let mut p = ProcessBuilder::new("receiver");
        let x = p.local("x", 0);
        let s0 = p.location("s0");
        p.transition(
            s0,
            s0,
            Guard::always(),
            Action::recv(ch, vec![FieldPat::Any], vec![(3, x.into())]),
            "bad recv",
        );
        let err = prog.add_process(p).unwrap_err();
        assert!(matches!(err, BuildError::BindOutOfRange { field: 3, .. }));
    }

    #[test]
    fn undeclared_local_is_rejected() {
        let mut prog = ProgramBuilder::new();
        let mut p = ProcessBuilder::new("p");
        let s0 = p.location("s0");
        p.transition(
            s0,
            s0,
            Guard::when(expr::eq(Expr::Local(5), 1.into())),
            Action::Skip,
            "bad guard",
        );
        let err = prog.add_process(p).unwrap_err();
        assert!(matches!(err, BuildError::LocalOutOfRange { index: 5, .. }));
    }

    #[test]
    fn undeclared_global_is_rejected() {
        let mut prog = ProgramBuilder::new();
        let mut p = ProcessBuilder::new("p");
        let s0 = p.location("s0");
        p.transition(
            s0,
            s0,
            Guard::always(),
            Action::assign(LValue::Global(0), 1.into()),
            "bad assign",
        );
        let err = prog.add_process(p).unwrap_err();
        assert!(matches!(err, BuildError::GlobalOutOfRange { index: 0, .. }));
    }

    #[test]
    fn empty_process_is_rejected() {
        let mut prog = ProgramBuilder::new();
        let err = prog.add_process(ProcessBuilder::new("empty")).unwrap_err();
        assert!(matches!(err, BuildError::EmptyProcess { .. }));
    }

    #[test]
    fn empty_program_is_rejected() {
        assert_eq!(
            ProgramBuilder::new().build().unwrap_err(),
            BuildError::NoProcesses
        );
    }

    #[test]
    fn lookups_by_name() {
        let mut prog = ProgramBuilder::new();
        let g = prog.global("hits", 0);
        let mut p = ProcessBuilder::new("worker");
        p.location("s0");
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        assert_eq!(program.global_by_name("hits"), Some(g));
        assert_eq!(program.global_by_name("missing"), None);
        assert_eq!(program.process_by_name("worker"), Some(ProcId(0)));
        assert_eq!(program.process_by_name("missing"), None);
    }

    #[test]
    fn guard_conjunction_builders() {
        let g = Guard::when(expr::gt(Expr::Global(0), 1.into()))
            .and_when(expr::lt(Expr::Global(0), 5.into()));
        assert!(g.expr.is_some());
        let g = Guard::always().and_native(NativeGuard::new("nonempty", |l| l[0] > 0));
        assert!(g.native.is_some());
    }

    #[test]
    fn build_error_messages_are_informative() {
        let err = BuildError::ArityMismatch {
            process: "p".into(),
            transition: "t".into(),
            expected: 2,
            found: 3,
        };
        let text = err.to_string();
        assert!(text.contains("'p'") && text.contains("'t'"));
        assert!(text.contains('2') && text.contains('3'));
    }
}
