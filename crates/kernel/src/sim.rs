//! Random simulation of programs, for quantitative workload statistics.
//!
//! The model checker answers "can this happen?"; the simulator answers "how
//! often / how fast does this happen under a random scheduler?". It executes
//! the same step semantics as the explorer, choosing uniformly among enabled
//! steps with a seeded RNG (runs are reproducible). The paper's informal
//! efficiency claims (e.g. the at-most-N bridge design yields better traffic
//! flow) are quantified with it.

use crate::program::Program;
use crate::rng::SplitMix64;
use crate::state::{
    apply_step_into, enabled_steps_into, is_valid_end_state, KernelError, State, StateView, Step,
};
use crate::trace::TraceEvent;

/// What one simulation step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimObservation {
    /// A step fired, producing these events.
    Step(Vec<TraceEvent>),
    /// No step is enabled: the run has halted.
    Halted {
        /// `true` if the halt is a deadlock (some process is stuck outside a
        /// marked end location).
        deadlock: bool,
    },
}

/// Summary of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimReport {
    /// Steps actually executed.
    pub steps: usize,
    /// Whether the run halted before the step budget ran out.
    pub halted: bool,
    /// Whether the halt was a deadlock.
    pub deadlock: bool,
}

/// A seeded random-walk executor over a [`Program`].
///
/// # Example
///
/// ```
/// use pnp_kernel::{expr, Action, Guard, ProcessBuilder, ProgramBuilder, Simulator};
///
/// let mut prog = ProgramBuilder::new();
/// let n = prog.global("n", 0);
/// let mut p = ProcessBuilder::new("ticker");
/// let s0 = p.location("tick");
/// p.transition(s0, s0, Guard::always(), Action::assign(n, expr::global(n) + 1.into()), "tick");
/// prog.add_process(p)?;
/// let program = prog.build()?;
///
/// let mut sim = Simulator::new(&program, 42);
/// let report = sim.run(100)?;
/// assert_eq!(report.steps, 100);
/// assert_eq!(sim.view().global(n), 100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    state: State,
    /// Where the next state is built before it is swapped in.
    scratch: State,
    /// The enabled steps of the current state, and a rendezvous message,
    /// refilled by every step.
    steps: Vec<Step>,
    message: Vec<i32>,
    rng: SplitMix64,
    steps_taken: usize,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator at the program's initial state. The same seed
    /// always reproduces the same run.
    pub fn new(program: &'p Program, seed: u64) -> Simulator<'p> {
        Simulator {
            program,
            state: State::initial(program),
            scratch: State::initial(program),
            steps: Vec::new(),
            message: Vec::new(),
            rng: SplitMix64::seed_from_u64(seed),
            steps_taken: 0,
        }
    }

    /// A read-only view of the current state.
    pub fn view(&self) -> StateView<'_> {
        StateView::new(self.program, &self.state)
    }

    /// The number of steps executed so far.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Resets the simulator to the initial state (keeping the RNG stream).
    pub fn reset(&mut self) {
        self.state = State::initial(self.program);
        self.steps_taken = 0;
    }

    /// Executes one uniformly-random enabled step.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when the model is broken.
    pub fn step(&mut self) -> Result<SimObservation, KernelError> {
        enabled_steps_into(
            self.program,
            &self.state,
            &mut self.steps,
            &mut self.message,
        )?;
        if self.steps.is_empty() {
            return Ok(SimObservation::Halted {
                deadlock: !is_valid_end_state(self.program, &self.state),
            });
        }
        let choice = self.steps[self.rng.gen_index(self.steps.len())];
        let mut events = Vec::new();
        apply_step_into(
            self.program,
            &self.state,
            choice,
            &mut self.scratch,
            Some(&mut events),
        )?;
        std::mem::swap(&mut self.state, &mut self.scratch);
        self.steps_taken += 1;
        Ok(SimObservation::Step(events))
    }

    /// Runs up to `max_steps` steps.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when the model is broken.
    pub fn run(&mut self, max_steps: usize) -> Result<SimReport, KernelError> {
        self.run_with(max_steps, |_, _| {})
    }

    /// Runs up to `max_steps` steps, invoking `observer` with the state
    /// *after* each step and the step's events.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when the model is broken.
    pub fn run_with(
        &mut self,
        max_steps: usize,
        mut observer: impl FnMut(&StateView<'_>, &[TraceEvent]),
    ) -> Result<SimReport, KernelError> {
        let mut executed = 0;
        while executed < max_steps {
            match self.step()? {
                SimObservation::Step(events) => {
                    executed += 1;
                    observer(&StateView::new(self.program, &self.state), &events);
                }
                SimObservation::Halted { deadlock } => {
                    return Ok(SimReport {
                        steps: executed,
                        halted: true,
                        deadlock,
                    });
                }
            }
        }
        Ok(SimReport {
            steps: executed,
            halted: false,
            deadlock: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::expr;
    use crate::program::{Action, Guard, ProcessBuilder, ProgramBuilder};

    fn ticker(stop: Option<i32>) -> Program {
        let mut prog = ProgramBuilder::new();
        let n = prog.global("n", 0);
        let mut p = ProcessBuilder::new("ticker");
        let s0 = p.location("tick");
        let s1 = p.location("halt");
        p.mark_end(s1);
        let guard = match stop {
            Some(v) => Guard::when(expr::lt(expr::global(n), v.into())),
            None => Guard::always(),
        };
        p.transition(
            s0,
            s0,
            guard,
            Action::assign(n, expr::global(n) + 1.into()),
            "tick",
        );
        if let Some(v) = stop {
            p.transition(
                s0,
                s1,
                Guard::when(expr::ge(expr::global(n), v.into())),
                Action::Skip,
                "stop",
            );
        }
        prog.add_process(p).unwrap();
        prog.build().unwrap()
    }

    #[test]
    fn same_seed_reproduces_the_run() {
        // Two competing processes make the schedule nondeterministic.
        let mut prog = ProgramBuilder::new();
        let a = prog.global("a", 0);
        let b = prog.global("b", 0);
        for (name, g) in [("pa", a), ("pb", b)] {
            let mut p = ProcessBuilder::new(name);
            let s0 = p.location("loop");
            p.transition(
                s0,
                s0,
                Guard::always(),
                Action::assign(g, expr::global(g) + 1.into()),
                "bump",
            );
            prog.add_process(p).unwrap();
        }
        let program = prog.build().unwrap();

        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut sim = Simulator::new(&program, 1234);
            sim.run(50).unwrap();
            runs.push((sim.view().global(a), sim.view().global(b)));
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0].0 + runs[0].1, 50);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let mut prog = ProgramBuilder::new();
        let a = prog.global("a", 0);
        let b = prog.global("b", 0);
        for (name, g) in [("pa", a), ("pb", b)] {
            let mut p = ProcessBuilder::new(name);
            let s0 = p.location("loop");
            p.transition(
                s0,
                s0,
                Guard::always(),
                Action::assign(g, expr::global(g) + 1.into()),
                "bump",
            );
            prog.add_process(p).unwrap();
        }
        let program = prog.build().unwrap();
        let outcomes: Vec<i32> = (0..4)
            .map(|seed| {
                let mut sim = Simulator::new(&program, seed);
                sim.run(100).unwrap();
                sim.view().global(a)
            })
            .collect();
        assert!(
            outcomes.windows(2).any(|w| w[0] != w[1]),
            "four seeds all produced identical interleavings: {outcomes:?}"
        );
    }

    #[test]
    fn halts_cleanly_at_end_state() {
        let program = ticker(Some(5));
        let mut sim = Simulator::new(&program, 0);
        let report = sim.run(100).unwrap();
        assert!(report.halted);
        assert!(!report.deadlock);
        assert_eq!(report.steps, 6); // 5 ticks + 1 stop
        assert_eq!(sim.view().global_by_name("n"), Some(5));
    }

    #[test]
    fn reports_deadlock_when_stuck_outside_end_state() {
        let mut prog = ProgramBuilder::new();
        let ch = prog.channel("never", 0, 1);
        let mut p = ProcessBuilder::new("waiter");
        let s0 = p.location("wait");
        let s1 = p.location("done");
        p.mark_end(s1);
        p.transition(s0, s1, Guard::always(), Action::recv_any(ch, 1), "recv");
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let mut sim = Simulator::new(&program, 0);
        let report = sim.run(10).unwrap();
        assert!(report.halted);
        assert!(report.deadlock);
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn observer_sees_every_step() {
        let program = ticker(Some(3));
        let mut sim = Simulator::new(&program, 9);
        let mut labels = Vec::new();
        sim.run_with(100, |_, events| {
            labels.extend(events.iter().map(|e| e.label().to_string()));
        })
        .unwrap();
        assert_eq!(labels, ["tick", "tick", "tick", "stop"]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let program = ticker(None);
        let mut sim = Simulator::new(&program, 0);
        sim.run(10).unwrap();
        assert_eq!(sim.steps_taken(), 10);
        sim.reset();
        assert_eq!(sim.steps_taken(), 0);
        assert_eq!(sim.view().global_by_name("n"), Some(0));
    }
}
