//! The random program family shared by the kernel's property tests and
//! its reference oracle (`tests/reference.rs`): each process runs a list of
//! [`Move`]s over two globals, one buffered channel and one rendezvous
//! channel.

use proptest::prelude::*;

use pnp_kernel::{expr, Action, FieldPat, Guard, ProcessBuilder, Program, ProgramBuilder};

/// Capacity of the one buffered channel `ch`.
pub const CHANNEL_CAPACITY: usize = 2;

/// One step of a random process: the moves are chosen so that any
/// combination yields a *valid* program over 2 globals, 1 buffered and 1
/// rendezvous channel, with all counters bounded (mod 4) to keep state
/// spaces finite.
#[derive(Debug, Clone, Copy)]
pub enum Move {
    BumpGlobal(u8),
    SendChan(i8),
    RecvChan,
    GuardedSkip(u8),
    BumpLocal,
    /// Sends the value on the rendezvous channel `rv`: fires only together
    /// with a matching `RecvRv` of another process.
    SendRv(i8),
    /// Receives on `rv` into the process's counter, or bails out when g0
    /// is 3.
    RecvRv(RvPat),
}

/// The pattern of a rendezvous receive's one field.
#[derive(Debug, Clone, Copy)]
pub enum RvPat {
    Any,
    Eq(i8),
}

pub fn arb_move() -> impl Strategy<Value = Move> {
    prop_oneof![
        (0u8..2).prop_map(Move::BumpGlobal),
        (0i8..3).prop_map(Move::SendChan),
        Just(Move::RecvChan),
        (0u8..2).prop_map(Move::GuardedSkip),
        Just(Move::BumpLocal),
        (0i8..2).prop_map(Move::SendRv),
        prop_oneof![Just(RvPat::Any), (0i8..2).prop_map(RvPat::Eq)].prop_map(Move::RecvRv),
    ]
}

/// Builds a program from per-process move lists. Each process runs its
/// moves in sequence and stops (end state).
pub fn build_program(procs: &[Vec<Move>]) -> Program {
    let mut prog = ProgramBuilder::new();
    let g0 = prog.global("g0", 0);
    let g1 = prog.global("g1", 0);
    let globals = [g0, g1];
    let ch = prog.channel("ch", CHANNEL_CAPACITY, 1);
    let rv = prog.channel("rv", 0, 1);

    for (pi, moves) in procs.iter().enumerate() {
        let mut p = ProcessBuilder::new(format!("p{pi}"));
        let counter = p.local("counter", 0);
        let mut at = p.location("start");
        for (mi, mv) in moves.iter().enumerate() {
            let next = p.location(format!("after{mi}"));
            match mv {
                Move::BumpGlobal(gi) => {
                    let g = globals[*gi as usize];
                    p.transition(
                        at,
                        next,
                        Guard::always(),
                        Action::assign(g, expr::rem(expr::global(g) + 1.into(), 4.into())),
                        "bump global",
                    );
                }
                Move::SendChan(v) => {
                    p.transition(
                        at,
                        next,
                        Guard::always(),
                        Action::send(ch, vec![(*v as i32).into()]),
                        "send",
                    );
                }
                Move::RecvChan => {
                    p.transition(at, next, Guard::always(), Action::recv_any(ch, 1), "recv");
                    // A bail-out so pure receivers do not always deadlock:
                    // when g0 is 3 the process may skip the receive.
                    p.transition(
                        at,
                        next,
                        Guard::when(expr::eq(expr::global(g0), 3.into())),
                        Action::Skip,
                        "skip recv",
                    );
                }
                Move::GuardedSkip(gi) => {
                    let g = globals[*gi as usize];
                    p.transition(
                        at,
                        next,
                        Guard::when(expr::lt(expr::global(g), 3.into())),
                        Action::Skip,
                        "guarded skip",
                    );
                    p.transition(
                        at,
                        next,
                        Guard::when(expr::ge(expr::global(g), 3.into())),
                        Action::assign(g, 0.into()),
                        "reset",
                    );
                }
                Move::SendRv(v) => {
                    p.transition(
                        at,
                        next,
                        Guard::always(),
                        Action::send(rv, vec![(*v as i32).into()]),
                        "send rv",
                    );
                }
                Move::RecvRv(pat) => {
                    let field = match pat {
                        RvPat::Any => FieldPat::Any,
                        RvPat::Eq(v) => FieldPat::lit(i32::from(*v)),
                    };
                    p.transition(
                        at,
                        next,
                        Guard::always(),
                        Action::recv(rv, vec![field], vec![(0, counter.into())]),
                        "recv rv",
                    );
                    p.transition(
                        at,
                        next,
                        Guard::when(expr::eq(expr::global(g0), 3.into())),
                        Action::Skip,
                        "skip recv rv",
                    );
                }
                Move::BumpLocal => {
                    p.transition(
                        at,
                        next,
                        Guard::always(),
                        Action::assign(
                            counter,
                            expr::rem(expr::local(counter) + 1.into(), 4.into()),
                        ),
                        "bump local",
                    );
                }
            }
            at = next;
        }
        p.mark_end(at);
        prog.add_process(p).unwrap();
    }
    prog.build().unwrap()
}
