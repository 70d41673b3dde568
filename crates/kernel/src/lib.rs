//! # pnp-kernel — explicit-state model-checking kernel
//!
//! This crate is the verification substrate of the PnP (Plug-and-Play
//! architectural design and verification) reproduction. It plays the role
//! that the SPIN model checker and its Promela input language play in the
//! paper: systems are described as collections of communicating processes,
//! and the kernel exhaustively explores their interleavings to check safety
//! and liveness properties.
//!
//! ## Model of computation
//!
//! A [`Program`] consists of
//!
//! * **channels** ([`ChannelDecl`]) — rendezvous (capacity 0, like Promela's
//!   `chan c = [0] of {...}`) or bounded FIFO buffers (capacity > 0);
//! * **processes** ([`ProcessDef`]) — finite automata whose transitions carry
//!   a [`Guard`] and an [`Action`] (send, receive, assignment, assertion, or
//!   a native buffer operation);
//! * **globals** — shared integer variables, typically used to expose
//!   observable state to properties.
//!
//! A global step fires one enabled transition of one process; a rendezvous
//! send and its matching receive fire together as a single atomic step,
//! exactly as in Promela.
//!
//! ## Checking
//!
//! * [`Checker::check_safety`] — breadth-first search for deadlocks,
//!   invariant violations, and failed assertions, returning shortest
//!   counterexample [`Trace`]s;
//! * [`Checker::check_ltl`] — nested depth-first search over the product
//!   with a Büchi automaton produced by [`pnp_ltl`], returning lasso-shaped
//!   counterexamples for liveness violations;
//! * [`Simulator`] — a seeded random walk over the same semantics, used for
//!   quantitative workload statistics (the paper's informal efficiency
//!   comparisons).
//!
//! ## Example
//!
//! ```
//! use pnp_kernel::{expr, Action, Guard, ProcessBuilder, ProgramBuilder};
//! use pnp_kernel::{Checker, Predicate, SafetyChecks, SafetyOutcome};
//!
//! // Two processes increment a shared counter twice each.
//! let mut prog = ProgramBuilder::new();
//! let counter = prog.global("counter", 0);
//! for name in ["inc_a", "inc_b"] {
//!     let mut p = ProcessBuilder::new(name);
//!     let s0 = p.location("first");
//!     let s1 = p.location("second");
//!     let done = p.location("done");
//!     p.mark_end(done);
//!     let bump = Action::assign(counter, expr::global(counter) + 1.into());
//!     p.transition(s0, s1, Guard::always(), bump.clone(), "bump");
//!     p.transition(s1, done, Guard::always(), bump, "bump");
//!     prog.add_process(p)?;
//! }
//! let program = prog.build()?;
//!
//! let checker = Checker::new(&program);
//! let report = checker.check_safety(&SafetyChecks {
//!     deadlock: false,
//!     invariants: vec![(
//!         "counter bounded".into(),
//!         Predicate::from_expr(expr::le(expr::global(counter), 4.into())),
//!     )],
//! })?;
//! assert_eq!(report.outcome, SafetyOutcome::Holds);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
mod arena;
mod dot;
mod durable;
mod explore;
mod expression;
mod extmem;
mod liveness;
mod outcome;
mod program;
mod reduction;
mod rng;
mod signals;
mod sim;
mod snapshot;
mod state;
mod trace;
mod vfs;
mod visited;

pub use durable::{
    decode_generation, encode_generation, load_latest_snapshot, GenScan, GenSink, GenStore,
};
pub use explore::{
    BudgetKind, CancelToken, Checker, Predicate, SafetyChecks, SafetyOutcome, SafetyReport,
    SearchConfig, SearchStats,
};
pub use expression::{expr, EvalError, Expr};
pub use liveness::{Fairness, LtlOutcome, LtlReport, Proposition};
pub use outcome::{panic_message, FailureClass, JobOutcome};
pub use program::{
    Action, BuildError, ChanId, ChannelDecl, FieldPat, GlobalId, Guard, LValue, Loc, LocalId,
    NativeGuard, NativeOp, ProcId, ProcessBuilder, ProcessDef, Program, ProgramBuilder, RecvPolicy,
    Transition,
};
pub use rng::{checksum64, fnv64, mix64, SplitMix64};
pub use signals::{cancel_on_termination, watch_termination, TerminationFlag};
pub use sim::{SimObservation, SimReport, Simulator};
pub use snapshot::{
    load_snapshot, program_fingerprint, FileSink, Snapshot, SnapshotError, SnapshotSink,
};
pub use state::{KernelError, Msg, State, StateView, Step};
pub use trace::{EventKind, Trace, TraceEvent};
pub use vfs::{
    commit_replace, real_fs, tmp_sibling, DiskImage, FaultPlan, FsFaultKind, FsFaultRecord,
    FsInjection, RealFs, SimFs, Vfs, VfsHandle,
};
pub use visited::{
    bloom_omission_probability, BitstateVisited, CompactVisited, DiskExactVisited, ExactVisited,
    Insert, VisitedKind, VisitedSet,
};
