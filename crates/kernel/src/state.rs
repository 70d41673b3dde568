//! Global states and the step semantics (enabledness and application).
//!
//! A [`State`] is one flat slice of `i32` words plus a 64-bit content hash
//! computed once, when the state is built. Where each part of the state
//! lives in the slice is fixed per program by its [`Layout`]:
//!
//! ```text
//! [loc₀ locals₀… | loc₁ locals₁… | … | globals… | len_c data_c… | …]
//! ```
//!
//! Each process's locals are contiguous, so expressions, native guards and
//! native operations see them as one slice. Each *buffered* channel holds
//! its length followed by `capacity × arity` message slots; the queue is
//! left-aligned and unused slots are zero, so equal words mean equal
//! content. Rendezvous channels never hold a message and take no words.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::expression::{EvalCtx, EvalError, Expr};
use crate::program::{
    Action, ChanId, ChannelDecl, FieldPat, Guard, LValue, Loc, ProcId, ProcessDef, Program,
    RecvPolicy,
};
use crate::rng::mix64;
use crate::trace::{EventKind, TraceEvent};

/// A message: a fixed-arity tuple of integers, as recorded in traces.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Msg {
    fields: Box<[i32]>,
}

impl Msg {
    /// Creates a message from its field values.
    pub fn new(fields: impl Into<Vec<i32>>) -> Msg {
        Msg {
            fields: fields.into().into_boxed_slice(),
        }
    }

    /// The field values.
    pub fn fields(&self) -> &[i32] {
        &self.fields
    }

    /// The number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }
}

impl fmt::Debug for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Msg{:?}", self.fields)
    }
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Where a buffered channel's queue lives in a state's words: a length
/// word at `at`, then `capacity × arity` left-aligned message slots.
#[derive(Debug, Clone, Copy)]
struct QueueLayout {
    at: usize,
    arity: usize,
}

impl QueueLayout {
    fn len(self, words: &[i32]) -> usize {
        words[self.at] as usize
    }

    /// The fields of the `i`-th oldest message.
    fn message(self, words: &[i32], i: usize) -> &[i32] {
        let start = self.at + 1 + i * self.arity;
        &words[start..start + self.arity]
    }

    /// Appends a message slot and returns where its fields go.
    fn push_slot(self, words: &mut [i32]) -> Range<usize> {
        let start = self.at + 1 + self.len(words) * self.arity;
        words[self.at] += 1;
        start..start + self.arity
    }

    /// Removes the `i`-th oldest message, shifting the younger ones down
    /// and zeroing the freed slot so the encoding stays canonical.
    fn remove(self, words: &mut [i32], i: usize) {
        let data = self.at + 1;
        let end = data + self.len(words) * self.arity;
        words.copy_within(data + (i + 1) * self.arity..end, data + i * self.arity);
        words[end - self.arity..end].fill(0);
        words[self.at] -= 1;
    }
}

/// The word layout of a program's states, derived once by
/// [`ProgramBuilder::build`](crate::ProgramBuilder::build).
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Offset of each process's location word; its locals follow and end
    /// where the next entry begins. The extra last entry is where the
    /// globals begin.
    procs: Box<[usize]>,
    /// One past the last global.
    globals_end: usize,
    /// Each channel's queue; `None` for a rendezvous channel.
    chans: Box<[Option<QueueLayout>]>,
    /// The initial state's words.
    initial: Box<[i32]>,
}

impl Layout {
    pub(crate) fn new(
        channels: &[ChannelDecl],
        processes: &[ProcessDef],
        globals: &[(String, i32)],
    ) -> Layout {
        let mut initial = Vec::new();
        let mut procs = Vec::with_capacity(processes.len() + 1);
        for p in processes {
            procs.push(initial.len());
            initial.push(p.init_loc as i32);
            initial.extend(p.locals.iter().map(|&(_, v)| v));
        }
        procs.push(initial.len());
        initial.extend(globals.iter().map(|&(_, v)| v));
        let globals_end = initial.len();
        let chans = channels
            .iter()
            .map(|c| {
                (c.capacity > 0).then(|| {
                    let at = initial.len();
                    let slots = c
                        .capacity
                        .checked_mul(c.arity)
                        .expect("channel capacity × arity overflows");
                    initial.resize(at + 1 + slots, 0);
                    QueueLayout { at, arity: c.arity }
                })
            })
            .collect();
        Layout {
            procs: procs.into_boxed_slice(),
            globals_end,
            chans,
            initial: initial.into_boxed_slice(),
        }
    }

    /// The number of words in every state of the program.
    pub(crate) fn words(&self) -> usize {
        self.initial.len()
    }

    fn loc(&self, proc: usize) -> usize {
        self.procs[proc]
    }

    fn locals(&self, proc: usize) -> Range<usize> {
        self.procs[proc] + 1..self.procs[proc + 1]
    }

    fn globals(&self) -> Range<usize> {
        self.procs[self.procs.len() - 1]..self.globals_end
    }

    fn queue(&self, chan: ChanId) -> Option<QueueLayout> {
        self.chans[chan.index()]
    }

    fn ctx<'a>(&self, words: &'a [i32], proc: usize) -> EvalCtx<'a> {
        EvalCtx {
            locals: &words[self.locals(proc)],
            globals: &words[self.globals()],
            pid: proc as i32,
        }
    }
}

/// The rendezvous partner index, derived once by
/// [`ProgramBuilder::build`](crate::ProgramBuilder::build) next to the
/// [`Layout`]: for each rendezvous channel, the processes that receive on
/// it, in ascending order, each with its receive transitions on that
/// channel by location. A rendezvous send visits only these transitions.
///
/// The index is three flat arrays, so building it costs a handful of
/// allocations however many channels and processes the program has.
#[derive(Clone)]
pub(crate) struct Partners {
    /// Channel `c`'s receivers are `receivers[chans[c]..chans[c + 1]]`;
    /// a buffered channel has none.
    chans: Box<[u32]>,
    receivers: Box<[Receiver]>,
    /// Every receiver's `(location, transition index)` pairs, ascending.
    recvs: Box<[(u32, u32)]>,
}

/// One process that receives on one channel.
#[derive(Clone)]
struct Receiver {
    proc: usize,
    /// Where its pairs are in `Partners::recvs`.
    recvs: Range<usize>,
}

impl Partners {
    /// `proc`'s rendezvous receives as (channel, process, location,
    /// transition). [`ProgramBuilder`](crate::ProgramBuilder) collects
    /// them as each process is added, while its transitions are still in
    /// cache.
    pub(crate) fn receives_of<'a>(
        channels: &'a [ChannelDecl],
        proc: usize,
        def: &'a ProcessDef,
    ) -> impl Iterator<Item = (u32, u32, u32, u32)> + 'a {
        (0u32..)
            .zip(&def.outgoing)
            .flat_map(move |(loc, transitions)| {
                (0u32..)
                    .zip(transitions)
                    .filter_map(move |(ti, t)| match &t.action {
                        Action::Recv { chan, .. } if channels[chan.index()].is_rendezvous() => {
                            Some((chan.index() as u32, proc as u32, loc, ti))
                        }
                        _ => None,
                    })
            })
    }

    /// Builds the index of `channel_count` channels from every receive
    /// [`Partners::receives_of`] listed; sorted, they are its order.
    pub(crate) fn new(channel_count: usize, mut all: Vec<(u32, u32, u32, u32)>) -> Partners {
        all.sort_unstable();
        // One receiver per (channel, process) run; `chans` counts each
        // channel's receivers, then becomes their offsets.
        let mut chans = vec![0; channel_count + 1];
        let mut receivers = Vec::with_capacity(all.len());
        let mut start = 0;
        for run in all.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (chan, proc, ..) = run[0];
            chans[chan as usize + 1] += 1;
            receivers.push(Receiver {
                proc: proc as usize,
                recvs: start..start + run.len(),
            });
            start += run.len();
        }
        for c in 0..channel_count {
            chans[c + 1] += chans[c];
        }
        Partners {
            chans: chans.into_boxed_slice(),
            receivers: receivers.into_boxed_slice(),
            recvs: all.iter().map(|&(.., loc, ti)| (loc, ti)).collect(),
        }
    }

    /// The processes that receive on `chan`, in ascending order.
    fn receivers(&self, chan: ChanId) -> &[Receiver] {
        let c = chan.index();
        &self.receivers[self.chans[c] as usize..self.chans[c + 1] as usize]
    }

    /// `receiver`'s transitions on its channel at location `loc`.
    fn at(&self, receiver: &Receiver, loc: u32) -> impl Iterator<Item = usize> + '_ {
        self.recvs[receiver.recvs.clone()]
            .iter()
            .filter(move |&&(l, _)| l == loc)
            .map(|&(_, ti)| ti as usize)
    }
}

/// Seed of the hash every [`State`] carries.
const STATE_SEED: u64 = 0xb175_7a7e_5eed_0000;

/// A 64-bit hash of a state's words; `seed` picks one member of an
/// effectively independent family. Two words are absorbed per round by a
/// multiply and a fold of the high half into the low half, and the result
/// is finished with the SplitMix64 mixer.
pub(crate) fn words_hash(words: &[i32], seed: u64) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = mix64(seed);
    let mut absorb = |v: u64| {
        h = (h ^ v).wrapping_mul(K);
        h ^= h >> 32;
    };
    let mut pairs = words.chunks_exact(2);
    for pair in &mut pairs {
        absorb(u64::from(pair[0] as u32) | (u64::from(pair[1] as u32) << 32));
    }
    if let [last] = pairs.remainder() {
        absorb(u64::from(*last as u32));
    }
    mix64(h)
}

/// The hash a state with these words carries.
pub(crate) fn state_hash(words: &[i32]) -> u64 {
    words_hash(words, STATE_SEED)
}

/// A global system state: the words laid out by the program's layout,
/// and their hash.
///
/// States are value types: they compare by content, and hash by writing
/// the carried hash, which is what every visited set relies on. The
/// fields are private to this module so the hash always matches the
/// words.
#[derive(Clone)]
pub struct State {
    words: Box<[i32]>,
    hash: u64,
}

impl State {
    /// The initial state of a program.
    pub fn initial(program: &Program) -> State {
        State::from_words(program.layout.initial.clone())
    }

    pub(crate) fn from_words(words: Box<[i32]>) -> State {
        let hash = state_hash(&words);
        State { words, hash }
    }

    pub(crate) fn words(&self) -> &[i32] {
        &self.words
    }

    /// The hash computed when the state was built.
    pub(crate) fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Overwrites this state, in place, with `words` of the same width
    /// and the hash a state with those words carries (as a
    /// [`crate::arena::StateArena`] row keeps it).
    pub(crate) fn load(&mut self, words: &[i32], hash: u64) {
        debug_assert_eq!(hash, state_hash(words));
        self.words.copy_from_slice(words);
        self.hash = hash;
    }

    fn loc(&self, layout: &Layout, proc: usize) -> u32 {
        self.words[layout.loc(proc)] as u32
    }
}

impl PartialEq for State {
    fn eq(&self, other: &State) -> bool {
        self.hash == other.hash && self.words == other.words
    }
}

impl Eq for State {}

impl Hash for State {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "State{:?}", self.words)
    }
}

/// A read-only view of a [`State`] resolved against its [`Program`], used by
/// native property predicates and simulation observers.
#[derive(Clone, Copy)]
pub struct StateView<'a> {
    pub(crate) program: &'a Program,
    pub(crate) state: &'a State,
}

impl<'a> StateView<'a> {
    /// Creates a view of `state` under `program`.
    pub fn new(program: &'a Program, state: &'a State) -> StateView<'a> {
        StateView { program, state }
    }

    /// The underlying program.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    pub(crate) fn globals(&self) -> &'a [i32] {
        &self.state.words[self.program.layout.globals()]
    }

    /// Reads a global variable.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn global(&self, id: crate::program::GlobalId) -> i32 {
        self.globals()[id.index()]
    }

    /// Reads a global variable by name, if it exists.
    pub fn global_by_name(&self, name: &str) -> Option<i32> {
        self.program
            .global_by_name(name)
            .map(|id| self.globals()[id.index()])
    }

    /// The current control location of a process.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn location(&self, proc: ProcId) -> Loc {
        Loc(self.state.loc(&self.program.layout, proc.index()))
    }

    /// The name of the current location of a process.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn location_name(&self, proc: ProcId) -> &'a str {
        let loc = self.state.loc(&self.program.layout, proc.index());
        &self.program.processes[proc.index()].loc_names[loc as usize]
    }

    /// Reads a local variable of a process by slot index.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn local(&self, proc: ProcId, slot: usize) -> i32 {
        self.state.words[self.program.layout.locals(proc.index())][slot]
    }

    /// The number of messages currently buffered in a channel.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn channel_len(&self, chan: ChanId) -> usize {
        self.program
            .layout
            .queue(chan)
            .map_or(0, |q| q.len(&self.state.words))
    }

    /// The field values of the messages currently buffered in a channel,
    /// oldest first.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn channel_contents(&self, chan: ChanId) -> impl Iterator<Item = &'a [i32]> {
        let words: &'a [i32] = &self.state.words;
        self.program
            .layout
            .queue(chan)
            .into_iter()
            .flat_map(move |q| (0..q.len(words)).map(move |i| q.message(words, i)))
    }
}

impl fmt::Debug for StateView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StateView({:?})", self.state)
    }
}

/// One scheduling choice: which process fires which transition, and, for a
/// rendezvous send, which process/transition receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Step {
    /// The acting process.
    pub proc: ProcId,
    /// Index of the transition within the process's current location.
    pub trans: usize,
    /// For a rendezvous send: the receiving process and its transition
    /// index.
    pub partner: Option<(ProcId, usize)>,
}

/// An error surfaced by the kernel while exploring or simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Evaluating an expression failed; the model is buggy.
    Eval {
        /// The process whose expression failed.
        process: String,
        /// The transition being attempted.
        transition: String,
        /// The underlying error.
        error: EvalError,
    },
    /// An LTL proposition name could not be resolved.
    UnknownProposition {
        /// The unresolved name.
        name: String,
    },
    /// An LTL formula failed to parse.
    LtlParse {
        /// The parser's message.
        message: String,
    },
    /// A checkpoint snapshot could not be written or replayed.
    Snapshot {
        /// Description of the failure.
        message: String,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Eval {
                process,
                transition,
                error,
            } => write!(
                f,
                "evaluation error in process '{process}', transition '{transition}': {error}"
            ),
            KernelError::UnknownProposition { name } => {
                write!(f, "unknown proposition '{name}' in LTL formula")
            }
            KernelError::LtlParse { message } => write!(f, "LTL parse error: {message}"),
            KernelError::Snapshot { message } => write!(f, "snapshot error: {message}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// The result of applying a [`Step`].
pub(crate) struct Applied {
    pub state: State,
    pub events: Vec<TraceEvent>,
}

fn eval_err(program: &Program, proc: ProcId, label: &str, error: EvalError) -> KernelError {
    KernelError::Eval {
        process: program.processes[proc.index()].name.clone(),
        transition: label.to_string(),
        error,
    }
}

fn guard_holds(
    program: &Program,
    words: &[i32],
    proc: usize,
    guard: &Guard,
    label: &str,
) -> Result<bool, KernelError> {
    let ctx = program.layout.ctx(words, proc);
    if let Some(expr) = &guard.expr {
        if !expr
            .eval_bool(&ctx)
            .map_err(|e| eval_err(program, ProcId(proc), label, e))?
        {
            return Ok(false);
        }
    }
    if let Some(native) = &guard.native {
        if !(native.f)(ctx.locals) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluates a send's fields in the sender's context into `out`.
fn eval_msg_into(
    program: &Program,
    words: &[i32],
    proc: usize,
    msg: &[Expr],
    label: &str,
    out: &mut Vec<i32>,
) -> Result<(), KernelError> {
    let ctx = program.layout.ctx(words, proc);
    out.clear();
    for e in msg {
        out.push(
            e.eval(&ctx)
                .map_err(|err| eval_err(program, ProcId(proc), label, err))?,
        );
    }
    Ok(())
}

fn pattern_matches(
    program: &Program,
    words: &[i32],
    proc: usize,
    pattern: &[FieldPat],
    msg: &[i32],
    label: &str,
) -> Result<bool, KernelError> {
    let ctx = program.layout.ctx(words, proc);
    for (pat, &value) in pattern.iter().zip(msg) {
        match pat {
            FieldPat::Any => {}
            FieldPat::Eq(e) => {
                let want = e
                    .eval(&ctx)
                    .map_err(|e| eval_err(program, ProcId(proc), label, e))?;
                if want != value {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// For a buffered receive: the index within the queue of the message that
/// would be taken, if any.
fn buffered_recv_index(
    program: &Program,
    words: &[i32],
    proc: usize,
    queue: QueueLayout,
    pattern: &[FieldPat],
    policy: RecvPolicy,
    label: &str,
) -> Result<Option<usize>, KernelError> {
    let len = queue.len(words);
    let candidates = match policy {
        RecvPolicy::Head => len.min(1),
        RecvPolicy::FirstMatch => len,
    };
    for i in 0..candidates {
        if pattern_matches(
            program,
            words,
            proc,
            pattern,
            queue.message(words, i),
            label,
        )? {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

/// Fills `steps` with every enabled [`Step`] of `state`, in a deterministic
/// order: process index, then transition index, then partner process and
/// transition. `message` is scratch for a rendezvous send's fields; both
/// buffers are the caller's, so a search reuses them across states.
pub(crate) fn enabled_steps_into(
    program: &Program,
    state: &State,
    steps: &mut Vec<Step>,
    message: &mut Vec<i32>,
) -> Result<(), KernelError> {
    let layout = &program.layout;
    let words = &state.words[..];
    steps.clear();
    for (pi, def) in program.processes.iter().enumerate() {
        let loc = state.loc(layout, pi);
        for (ti, t) in def.outgoing[loc as usize].iter().enumerate() {
            if !guard_holds(program, words, pi, &t.guard, &t.label)? {
                continue;
            }
            let alone = Step {
                proc: ProcId(pi),
                trans: ti,
                partner: None,
            };
            match &t.action {
                Action::Skip | Action::Assign(_) | Action::Native(_) | Action::Assert { .. } => {
                    steps.push(alone);
                }
                Action::Send { chan, msg } => match layout.queue(*chan) {
                    Some(queue) => {
                        if queue.len(words) < program.channels[chan.index()].capacity {
                            steps.push(alone);
                        }
                    }
                    None => {
                        // Rendezvous: only the receive transitions the
                        // partner index lists can match, and never the
                        // sender's own.
                        eval_msg_into(program, words, pi, msg, &t.label, message)?;
                        let partners = &program.partners;
                        for receiver in partners.receivers(*chan) {
                            let qi = receiver.proc;
                            if qi == pi {
                                continue;
                            }
                            let qloc = state.loc(layout, qi);
                            let outgoing = &program.processes[qi].outgoing[qloc as usize];
                            for ui in partners.at(receiver, qloc) {
                                let u = &outgoing[ui];
                                let Action::Recv { pattern, .. } = &u.action else {
                                    unreachable!("partner index lists a non-receive");
                                };
                                if guard_holds(program, words, qi, &u.guard, &u.label)?
                                    && pattern_matches(
                                        program, words, qi, pattern, message, &u.label,
                                    )?
                                {
                                    steps.push(Step {
                                        partner: Some((ProcId(qi), ui)),
                                        ..alone
                                    });
                                }
                            }
                        }
                    }
                },
                Action::Recv {
                    chan,
                    pattern,
                    policy,
                    ..
                } => {
                    // Rendezvous receives fire only as a send's partner.
                    if let Some(queue) = layout.queue(*chan) {
                        if buffered_recv_index(
                            program, words, pi, queue, pattern, *policy, &t.label,
                        )?
                        .is_some()
                        {
                            steps.push(alone);
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Every enabled [`Step`] of `state`, in the order of
/// [`enabled_steps_into`], in a fresh `Vec`.
pub(crate) fn enabled_steps(program: &Program, state: &State) -> Result<Vec<Step>, KernelError> {
    let mut steps = Vec::new();
    enabled_steps_into(program, state, &mut steps, &mut Vec::new())?;
    Ok(steps)
}

fn apply_binds(
    program: &Program,
    words: &mut [i32],
    proc: usize,
    binds: &[(usize, LValue)],
    msg: &[i32],
    label: &str,
) -> Result<(), KernelError> {
    for (field, lv) in binds {
        assign_lvalue(program, words, proc, lv, msg[*field], label)?;
    }
    Ok(())
}

fn assign_lvalue(
    program: &Program,
    words: &mut [i32],
    proc: usize,
    lv: &LValue,
    value: i32,
    label: &str,
) -> Result<(), KernelError> {
    let layout = &program.layout;
    let locals = layout.locals(proc);
    let slot = match lv {
        LValue::Local(i) => locals.start + *i,
        LValue::LocalIdx(base, offset) => {
            let off = offset
                .eval(&layout.ctx(words, proc))
                .map_err(|e| eval_err(program, ProcId(proc), label, e))?
                as i64;
            let index = *base as i64 + off;
            let len = locals.len();
            if index < 0 || index >= len as i64 {
                return Err(eval_err(
                    program,
                    ProcId(proc),
                    label,
                    EvalError::IndexOutOfBounds { index, len },
                ));
            }
            locals.start + index as usize
        }
        LValue::Global(i) => layout.globals().start + *i,
    };
    words[slot] = value;
    Ok(())
}

/// Applies `step` to `state`, writing the successor into `next` — a
/// reusable buffer holding any state of the same program — and returning
/// the message of a failing `Assert`. The step's trace events are pushed
/// onto `events` when it is given.
///
/// The caller must only pass steps obtained from [`enabled_steps`] on the
/// same state.
pub(crate) fn apply_step_into(
    program: &Program,
    state: &State,
    step: Step,
    next: &mut State,
    mut events: Option<&mut Vec<TraceEvent>>,
) -> Result<Option<String>, KernelError> {
    let layout = &program.layout;
    let words = &state.words[..];
    next.words.copy_from_slice(words);
    let out = &mut next.words[..];
    let mut assertion_failure = None;
    let recording = events.is_some();
    // Builds the event (and its message copy) only when recording.
    let mut event = |label: &str, kind: &dyn Fn() -> EventKind| {
        if let Some(events) = events.as_deref_mut() {
            events.push(TraceEvent::new(step.proc, label, kind()));
        }
    };

    let pi = step.proc.index();
    let t = &program.processes[pi].outgoing[state.loc(layout, pi) as usize][step.trans];

    match &t.action {
        Action::Skip => event(&t.label, &|| EventKind::Internal),
        Action::Assign(assignments) => {
            for (lv, e) in assignments {
                let value = e
                    .eval(&layout.ctx(out, pi))
                    .map_err(|err| eval_err(program, step.proc, &t.label, err))?;
                assign_lvalue(program, out, pi, lv, value, &t.label)?;
            }
            event(&t.label, &|| EventKind::Internal);
        }
        Action::Native(op) => {
            (op.f)(&mut out[layout.locals(pi)]);
            event(&t.label, &|| EventKind::Internal);
        }
        Action::Assert { cond, message } => {
            let ok = cond
                .eval_bool(&layout.ctx(out, pi))
                .map_err(|err| eval_err(program, step.proc, &t.label, err))?;
            if !ok {
                assertion_failure = Some(message.clone());
            }
            event(&t.label, &|| EventKind::Internal);
        }
        Action::Send { chan, msg } => {
            // Fields are evaluated on the pre-state straight to where they
            // land, so a send allocates nothing unless it is recorded.
            let ctx = layout.ctx(words, pi);
            let field = |e: &Expr| {
                e.eval(&ctx)
                    .map_err(|err| eval_err(program, step.proc, &t.label, err))
            };
            match step.partner {
                None => {
                    let queue = layout
                        .queue(*chan)
                        .expect("buffered send on a buffered channel");
                    let slot = queue.push_slot(out);
                    for (word, e) in out[slot.clone()].iter_mut().zip(msg) {
                        *word = field(e)?;
                    }
                    event(&t.label, &|| EventKind::Send {
                        chan: *chan,
                        msg: Msg::new(&out[slot.clone()]),
                    });
                }
                Some((receiver, ui)) => {
                    // Rendezvous: fire the receiver's transition too.
                    let qi = receiver.index();
                    let u = &program.processes[qi].outgoing[state.loc(layout, qi) as usize][ui];
                    let Action::Recv { binds, .. } = &u.action else {
                        unreachable!("rendezvous partner is not a receive");
                    };
                    for (f, lv) in binds {
                        assign_lvalue(program, out, qi, lv, field(&msg[*f])?, &u.label)?;
                    }
                    out[layout.loc(qi)] = u.target as i32;
                    let fields = if recording {
                        msg.iter().map(field).collect::<Result<Vec<_>, _>>()?
                    } else {
                        Vec::new()
                    };
                    event(&t.label, &|| EventKind::Rendezvous {
                        chan: *chan,
                        msg: Msg::new(&fields[..]),
                        receiver,
                    });
                }
            }
        }
        Action::Recv {
            chan,
            pattern,
            binds,
            policy,
        } => {
            // Only buffered receives fire on their own.
            let queue = layout
                .queue(*chan)
                .expect("receive fired alone on a rendezvous");
            let index = buffered_recv_index(program, words, pi, queue, pattern, *policy, &t.label)?
                .expect("apply_step called with a disabled receive");
            let fields = queue.message(words, index);
            queue.remove(out, index);
            apply_binds(program, out, pi, binds, fields, &t.label)?;
            event(&t.label, &|| EventKind::Recv {
                chan: *chan,
                msg: Msg::new(fields),
            });
        }
    }

    out[layout.loc(pi)] = t.target as i32;
    next.hash = words_hash(&next.words, STATE_SEED);
    Ok(assertion_failure)
}

/// Applies `step` to `state`, producing the successor state and the trace
/// events describing what happened (a failing `Assert` is reported only by
/// [`apply_step_into`]).
///
/// The caller must only pass steps obtained from [`enabled_steps`] on the
/// same state.
pub(crate) fn apply_step(
    program: &Program,
    state: &State,
    step: Step,
) -> Result<Applied, KernelError> {
    let mut next = state.clone();
    let mut events = Vec::new();
    apply_step_into(program, state, step, &mut next, Some(&mut events))?;
    Ok(Applied {
        state: next,
        events,
    })
}

/// Returns true when `state` is a *valid* termination: every process is in
/// a marked end location. A state with no enabled steps that is not a
/// valid termination is a deadlock.
pub(crate) fn is_valid_end_state(program: &Program, state: &State) -> bool {
    program
        .processes
        .iter()
        .enumerate()
        .all(|(pi, def)| def.end_locs.contains(&state.loc(&program.layout, pi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::expr;
    use crate::program::{Action, Guard, ProcessBuilder, ProgramBuilder};

    /// `state` with process `proc` moved to location `loc`.
    fn at_loc(program: &Program, state: &State, proc: usize, loc: u32) -> State {
        let mut words = state.words.clone();
        words[program.layout.loc(proc)] = loc as i32;
        State::from_words(words)
    }

    /// `state` with `msgs` appended to the queue of buffered channel `chan`.
    fn with_queued(program: &Program, state: &State, chan: ChanId, msgs: &[&[i32]]) -> State {
        let queue = program.layout.queue(chan).unwrap();
        let mut words = state.words.clone();
        for msg in msgs {
            let slot = queue.push_slot(&mut words);
            words[slot].copy_from_slice(msg);
        }
        State::from_words(words)
    }

    fn queued(program: &Program, state: &State, chan: ChanId) -> Vec<Vec<i32>> {
        StateView::new(program, state)
            .channel_contents(chan)
            .map(<[i32]>::to_vec)
            .collect()
    }

    /// sender -> (rendezvous) -> receiver, binding the payload.
    fn rendezvous_program() -> Program {
        let mut prog = ProgramBuilder::new();
        let ch = prog.channel("ch", 0, 2);
        let mut sender = ProcessBuilder::new("sender");
        let s0 = sender.location("send");
        let s1 = sender.location("done");
        sender.mark_end(s1);
        sender.transition(
            s0,
            s1,
            Guard::always(),
            Action::send(ch, vec![41.into(), expr::self_pid()]),
            "send m",
        );
        prog.add_process(sender).unwrap();

        let mut receiver = ProcessBuilder::new("receiver");
        let got = receiver.local("got", 0);
        let r0 = receiver.location("recv");
        let r1 = receiver.location("done");
        receiver.mark_end(r1);
        receiver.transition(
            r0,
            r1,
            Guard::always(),
            Action::recv(
                ch,
                vec![FieldPat::Any, FieldPat::Any],
                vec![(0, got.into())],
            ),
            "recv m",
        );
        prog.add_process(receiver).unwrap();
        prog.build().unwrap()
    }

    #[test]
    fn rendezvous_fires_both_processes_atomically() {
        let program = rendezvous_program();
        let s0 = State::initial(&program);
        let steps = enabled_steps(&program, &s0).unwrap();
        assert_eq!(steps.len(), 1);
        let step = steps[0];
        assert_eq!(step.proc, ProcId(0));
        assert_eq!(step.partner, Some((ProcId(1), 0)));

        let applied = apply_step(&program, &s0, step).unwrap();
        let view = StateView::new(&program, &applied.state);
        assert_eq!(view.location(ProcId(0)), Loc(1));
        assert_eq!(view.location(ProcId(1)), Loc(1));
        // Payload bound into the receiver's local.
        assert_eq!(view.local(ProcId(1), 0), 41);
        // Channel remains empty, and a rendezvous channel takes no words.
        assert_eq!(view.channel_len(ChanId(0)), 0);
        assert_eq!(program.layout.words(), 1 + 2);
        assert!(is_valid_end_state(&program, &applied.state));
        // One rendezvous event.
        assert_eq!(applied.events.len(), 1);
        assert!(matches!(
            applied.events[0].kind(),
            EventKind::Rendezvous { .. }
        ));
    }

    /// The partner index must keep the scan's order and filters: partners
    /// in process order on both sides of the sender, two matching receives
    /// at one location, only the current location's receives, never the
    /// sender itself, and neither a false guard, another channel, nor an
    /// `Eq` pattern that does not match.
    #[test]
    fn enabled_steps_keep_process_transition_partner_order() {
        let mut prog = ProgramBuilder::new();
        let off = prog.global("off", 0);
        let ch = prog.channel("ch", 0, 1);
        let other = prog.channel("other", 0, 1);

        // Process 0: five receives at one location.
        let mut low = ProcessBuilder::new("low");
        let got = low.local("got", 0);
        let a = low.location("a");
        let bind = || vec![(0, got.into())];
        low.transition(
            a,
            a,
            Guard::always(),
            Action::recv(ch, vec![FieldPat::Any], bind()),
            "any",
        );
        low.transition(a, a, Guard::always(), Action::recv_any(other, 1), "other");
        low.transition(
            a,
            a,
            Guard::always(),
            Action::recv(ch, vec![FieldPat::lit(7)], bind()),
            "eq 7",
        );
        low.transition(
            a,
            a,
            Guard::when(expr::eq(expr::global(off), 1.into())),
            Action::recv(ch, vec![FieldPat::lit(5)], bind()),
            "guarded eq 5",
        );
        low.transition(
            a,
            a,
            Guard::always(),
            Action::recv(ch, vec![FieldPat::lit(5)], bind()),
            "eq 5",
        );
        prog.add_process(low).unwrap();

        // Process 1 sends 5 on `ch` and receives on it at the same location.
        let mut both = ProcessBuilder::new("both");
        let s = both.location("s");
        both.transition(
            s,
            s,
            Guard::always(),
            Action::send(ch, vec![5.into()]),
            "send 5",
        );
        both.transition(s, s, Guard::always(), Action::recv_any(ch, 1), "self recv");
        both.transition(s, s, Guard::always(), Action::Skip, "skip");
        prog.add_process(both).unwrap();

        // Process 2 receives at two locations; it starts at the second.
        let mut high = ProcessBuilder::new("high");
        let elsewhere = high.location("elsewhere");
        let here = high.location("here");
        high.set_initial(here);
        for (at, label) in [(elsewhere, "recv elsewhere"), (here, "recv here")] {
            high.transition(at, at, Guard::always(), Action::recv_any(ch, 1), label);
        }
        prog.add_process(high).unwrap();

        // Process 3 sends 7 on `ch` and never receives.
        let mut last = ProcessBuilder::new("last");
        let t = last.location("t");
        last.transition(
            t,
            t,
            Guard::always(),
            Action::send(ch, vec![7.into()]),
            "send 7",
        );
        prog.add_process(last).unwrap();

        let program = prog.build().unwrap();
        let state = State::initial(&program);
        let step = |proc, trans, partner: Option<(usize, usize)>| Step {
            proc: ProcId(proc),
            trans,
            partner: partner.map(|(q, u)| (ProcId(q), u)),
        };
        let expected = vec![
            step(1, 0, Some((0, 0))),
            step(1, 0, Some((0, 4))),
            step(1, 0, Some((2, 0))),
            step(1, 2, None),
            step(3, 0, Some((0, 0))),
            step(3, 0, Some((0, 2))),
            step(3, 0, Some((1, 1))),
            step(3, 0, Some((2, 0))),
        ];
        assert_eq!(enabled_steps(&program, &state).unwrap(), expected);

        // A reused buffer is cleared first, and gives the same steps.
        let mut steps = vec![step(0, 9, None)];
        let mut message = vec![1, 2, 3];
        enabled_steps_into(&program, &state, &mut steps, &mut message).unwrap();
        assert_eq!(steps, expected);
    }

    #[test]
    fn rendezvous_receive_does_not_fire_alone() {
        let program = rendezvous_program();
        // Move the sender to done manually; only the receiver remains.
        let state = at_loc(&program, &State::initial(&program), 0, 1);
        let steps = enabled_steps(&program, &state).unwrap();
        assert!(steps.is_empty());
        assert!(!is_valid_end_state(&program, &state));
    }

    fn buffered_program(capacity: usize) -> (Program, ChanId) {
        let mut prog = ProgramBuilder::new();
        let ch = prog.channel("buf", capacity, 1);
        let mut sender = ProcessBuilder::new("sender");
        let s0 = sender.location("loop");
        sender.mark_end(s0);
        sender.transition(
            s0,
            s0,
            Guard::always(),
            Action::send(ch, vec![7.into()]),
            "send",
        );
        prog.add_process(sender).unwrap();
        let mut receiver = ProcessBuilder::new("receiver");
        let r0 = receiver.location("loop");
        receiver.mark_end(r0);
        receiver.transition(r0, r0, Guard::always(), Action::recv_any(ch, 1), "recv");
        prog.add_process(receiver).unwrap();
        (prog.build().unwrap(), ch)
    }

    #[test]
    fn buffered_send_blocks_when_full() {
        let (program, ch) = buffered_program(2);
        let state = with_queued(&program, &State::initial(&program), ch, &[&[1], &[2]]);
        let steps = enabled_steps(&program, &state).unwrap();
        // Sender blocked; only the receiver can act.
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].proc, ProcId(1));
    }

    #[test]
    fn buffered_receive_takes_fifo_order() {
        let (program, ch) = buffered_program(2);
        let state = with_queued(&program, &State::initial(&program), ch, &[&[1], &[2]]);
        let step = Step {
            proc: ProcId(1),
            trans: 0,
            partner: None,
        };
        let applied = apply_step(&program, &state, step).unwrap();
        assert_eq!(queued(&program, &applied.state, ch), vec![vec![2]]);
    }

    #[test]
    fn head_policy_blocks_on_nonmatching_head() {
        let mut prog = ProgramBuilder::new();
        let ch = prog.channel("buf", 2, 1);
        let mut receiver = ProcessBuilder::new("receiver");
        let r0 = receiver.location("loop");
        receiver.transition(
            r0,
            r0,
            Guard::always(),
            Action::recv(ch, vec![FieldPat::lit(9)], vec![]),
            "recv 9",
        );
        prog.add_process(receiver).unwrap();
        let program = prog.build().unwrap();
        let state = with_queued(&program, &State::initial(&program), ch, &[&[1], &[9]]);
        assert!(enabled_steps(&program, &state).unwrap().is_empty());
    }

    #[test]
    fn first_match_policy_skips_nonmatching_head() {
        let mut prog = ProgramBuilder::new();
        let ch = prog.channel("buf", 2, 1);
        let mut receiver = ProcessBuilder::new("receiver");
        let r0 = receiver.location("loop");
        receiver.transition(
            r0,
            r0,
            Guard::always(),
            Action::Recv {
                chan: ch,
                pattern: vec![FieldPat::lit(9)],
                binds: vec![],
                policy: RecvPolicy::FirstMatch,
            },
            "recv 9 anywhere",
        );
        prog.add_process(receiver).unwrap();
        let program = prog.build().unwrap();
        let state = with_queued(&program, &State::initial(&program), ch, &[&[1], &[9]]);
        let steps = enabled_steps(&program, &state).unwrap();
        assert_eq!(steps.len(), 1);
        let applied = apply_step(&program, &state, steps[0]).unwrap();
        // The non-matching head stays; the matching message is gone, and
        // its slot is zeroed: the same content as a queue that only ever
        // held the head.
        assert_eq!(queued(&program, &applied.state, ch), vec![vec![1]]);
        let only_head = with_queued(&program, &State::initial(&program), ch, &[&[1]]);
        assert_eq!(applied.state, only_head);
    }

    #[test]
    fn self_pid_pattern_routes_to_the_right_receiver() {
        // One sender tags messages with a target pid; two receivers match on
        // their own pid. Only the addressed receiver may synchronize.
        let mut prog = ProgramBuilder::new();
        let ch = prog.channel("ch", 0, 1);
        let mut sender = ProcessBuilder::new("sender");
        let s0 = sender.location("send");
        let s1 = sender.location("done");
        sender.mark_end(s1);
        // Address process 2 (the second receiver).
        sender.transition(
            s0,
            s1,
            Guard::always(),
            Action::send(ch, vec![2.into()]),
            "send to pid 2",
        );
        prog.add_process(sender).unwrap();
        for name in ["rcv1", "rcv2"] {
            let mut r = ProcessBuilder::new(name);
            let r0 = r.location("recv");
            let r1 = r.location("done");
            r.mark_end(r1);
            r.transition(
                r0,
                r1,
                Guard::always(),
                Action::recv(ch, vec![FieldPat::self_pid()], vec![]),
                "recv mine",
            );
            prog.add_process(r).unwrap();
        }
        let program = prog.build().unwrap();
        let state = State::initial(&program);
        let steps = enabled_steps(&program, &state).unwrap();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].partner, Some((ProcId(2), 0)));
    }

    #[test]
    fn failing_assert_is_reported() {
        let mut prog = ProgramBuilder::new();
        let g = prog.global("x", 3);
        let mut p = ProcessBuilder::new("p");
        let s0 = p.location("check");
        let s1 = p.location("done");
        p.mark_end(s1);
        p.transition(
            s0,
            s1,
            Guard::always(),
            Action::assert(expr::lt(expr::global(g), 3.into()), "x must stay below 3"),
            "assert x<3",
        );
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let state = State::initial(&program);
        let steps = enabled_steps(&program, &state).unwrap();
        let mut next = state.clone();
        let failed = apply_step_into(&program, &state, steps[0], &mut next, None).unwrap();
        assert_eq!(failed.as_deref(), Some("x must stay below 3"));
    }

    #[test]
    fn native_guard_and_op_work_on_locals() {
        use crate::program::{NativeGuard, NativeOp};
        let mut prog = ProgramBuilder::new();
        let mut p = ProcessBuilder::new("p");
        let _n = p.local("n", 2);
        let s0 = p.location("loop");
        p.transition(
            s0,
            s0,
            Guard::native(NativeGuard::new("n>0", |l| l[0] > 0)),
            Action::Native(NativeOp::new("decrement", |l| l[0] -= 1)),
            "dec",
        );
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let mut state = State::initial(&program);
        for _ in 0..2 {
            let steps = enabled_steps(&program, &state).unwrap();
            assert_eq!(steps.len(), 1);
            state = apply_step(&program, &state, steps[0]).unwrap().state;
        }
        // n reached 0: the native guard now disables the transition.
        assert!(enabled_steps(&program, &state).unwrap().is_empty());
    }

    #[test]
    fn eval_error_is_surfaced_not_panicked() {
        let mut prog = ProgramBuilder::new();
        let g = prog.global("x", 0);
        let mut p = ProcessBuilder::new("p");
        let s0 = p.location("s0");
        p.transition(
            s0,
            s0,
            Guard::when(expr::eq(expr::div(1.into(), expr::global(g)), 1.into())),
            Action::Skip,
            "divide by x",
        );
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let state = State::initial(&program);
        let err = enabled_steps(&program, &state).unwrap_err();
        assert!(matches!(err, KernelError::Eval { .. }));
        assert!(err.to_string().contains("divide by x"));
    }

    #[test]
    fn states_hash_by_content() {
        use std::collections::HashSet;
        let program = rendezvous_program();
        let a = State::initial(&program);
        let b = State::initial(&program);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn state_view_accessors() {
        let mut prog = ProgramBuilder::new();
        let g = prog.global("flag", 5);
        let ch = prog.channel("c", 3, 1);
        let mut p = ProcessBuilder::new("p");
        let l = p.local("v", 9);
        let s0 = p.location("home");
        p.mark_end(s0);
        p.transition(s0, s0, Guard::always(), Action::Skip, "noop");
        let pid = prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let state = with_queued(&program, &State::initial(&program), ch, &[&[4]]);
        let view = StateView::new(&program, &state);
        assert_eq!(view.global(g), 5);
        assert_eq!(view.global_by_name("flag"), Some(5));
        assert_eq!(view.global_by_name("nope"), None);
        assert_eq!(view.location_name(pid), "home");
        assert_eq!(view.local(pid, l.index()), 9);
        assert_eq!(view.channel_len(ch), 1);
        assert_eq!(
            view.channel_contents(ch).collect::<Vec<_>>(),
            vec![&[4][..]]
        );
    }

    #[test]
    fn layout_places_every_part_once() {
        let mut prog = ProgramBuilder::new();
        prog.global("g", 7);
        let rendezvous = prog.channel("r", 0, 3);
        let buffered = prog.channel("b", 2, 3);
        for (name, locals) in [("p", 2), ("q", 0)] {
            let mut p = ProcessBuilder::new(name);
            p.local_block("x", locals, -1);
            p.location("s0");
            prog.add_process(p).unwrap();
        }
        let program = prog.build().unwrap();
        let layout = &program.layout;
        // loc+2 locals, loc+0 locals, 1 global, len + 2×3 slots.
        assert_eq!(layout.words(), 3 + 1 + 1 + 7);
        assert_eq!(layout.locals(0), 1..3);
        assert_eq!(layout.locals(1), 4..4);
        assert_eq!(layout.globals(), 4..5);
        assert!(layout.queue(rendezvous).is_none());
        assert_eq!(layout.queue(buffered).unwrap().at, 5);
        assert_eq!(
            &*State::initial(&program).words,
            &[0, -1, -1, 0, 7, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn queue_encoding_is_canonical() {
        // Sending 1, 2 then receiving gives the same words as sending 2
        // alone: the consumed slot is shifted out and the tail zeroed.
        let (program, ch) = buffered_program(2);
        let s0 = State::initial(&program);
        let send = Step {
            proc: ProcId(0),
            trans: 0,
            partner: None,
        };
        let recv = Step {
            proc: ProcId(1),
            trans: 0,
            partner: None,
        };
        let one = apply_step(&program, &s0, send).unwrap().state;
        let two = apply_step(&program, &one, send).unwrap().state;
        let drained = apply_step(&program, &two, recv).unwrap().state;
        assert_eq!(queued(&program, &two, ch), vec![vec![7], vec![7]]);
        assert_eq!(drained, one);
        assert_eq!(drained.hash, one.hash);
        let empty = apply_step(&program, &drained, recv).unwrap().state;
        assert_eq!(empty, s0);
    }

    #[test]
    fn local_idx_store_is_bounded_per_process() {
        // Process p has two locals and a neighbour q right after it in the
        // word slice; p[2] must fail, not write q's location or locals.
        let mut prog = ProgramBuilder::new();
        let mut p = ProcessBuilder::new("p");
        let buf = p.local_block("buf", 2, 0);
        let s0 = p.location("s0");
        p.transition(
            s0,
            s0,
            Guard::always(),
            Action::assign(LValue::local_idx(buf, 2.into()), 5.into()),
            "buf[2] = 5",
        );
        prog.add_process(p).unwrap();
        let mut q = ProcessBuilder::new("q");
        q.local("neighbour", 0);
        q.location("s0");
        prog.add_process(q).unwrap();
        let program = prog.build().unwrap();
        let state = State::initial(&program);
        let steps = enabled_steps(&program, &state).unwrap();
        let err = apply_step(&program, &state, steps[0]).err().unwrap();
        assert!(
            matches!(
                err,
                KernelError::Eval {
                    error: EvalError::IndexOutOfBounds { index: 2, len: 2 },
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn apply_into_a_reused_buffer_matches_apply() {
        let (program, _) = buffered_program(2);
        let s0 = State::initial(&program);
        let mut scratch = s0.clone();
        let mut events = Vec::new();
        for step in enabled_steps(&program, &s0).unwrap() {
            let applied = apply_step(&program, &s0, step).unwrap();
            apply_step_into(&program, &s0, step, &mut scratch, None).unwrap();
            assert_eq!(scratch, applied.state);
            assert_eq!(scratch.hash, applied.state.hash);
            apply_step_into(&program, &s0, step, &mut scratch, Some(&mut events)).unwrap();
        }
        assert_eq!(events.len(), 1);
    }
}
