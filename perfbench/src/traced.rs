//! The engine-boundary tracer: a [`Simulatable`] wrapper that counts and
//! times every call the `ulp-sim` [`Engine`](ulp_sim::Engine) makes into
//! a machine, so a traced run splits its wall time into the node's
//! `step`, `skip_to` and `next_wakeup` work and the engine's own loop.

use std::cell::Cell;
use std::time::{Duration, Instant};

use ulp_sim::{Cycles, Simulatable, StepOutcome};

/// Calls and host time at the engine/machine boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BoundaryTimes {
    /// `step` calls.
    pub step_calls: u64,
    /// `step` calls that returned [`StepOutcome::Idle`].
    pub idle_steps: u64,
    /// Simulated cycles covered by `step` calls.
    pub stepped_cycles: u64,
    /// Host time inside `step`.
    pub step: Duration,
    /// `skip_to` calls.
    pub skip_calls: u64,
    /// Simulated cycles covered by `skip_to` calls.
    pub skipped_cycles: u64,
    /// Host time inside `skip_to`.
    pub skip: Duration,
    /// `next_wakeup` calls.
    pub next_wakeup_calls: u64,
    /// Host time inside `next_wakeup`.
    pub next_wakeup: Duration,
}

impl BoundaryTimes {
    /// Host time spent inside the machine.
    pub fn node_time(&self) -> Duration {
        self.step + self.skip + self.next_wakeup
    }

    /// Accumulate another run's figures.
    pub fn add(&mut self, o: &BoundaryTimes) {
        self.step_calls += o.step_calls;
        self.idle_steps += o.idle_steps;
        self.stepped_cycles += o.stepped_cycles;
        self.step += o.step;
        self.skip_calls += o.skip_calls;
        self.skipped_cycles += o.skipped_cycles;
        self.skip += o.skip;
        self.next_wakeup_calls += o.next_wakeup_calls;
        self.next_wakeup += o.next_wakeup;
    }
}

/// A machine whose engine-facing calls are counted and timed. It
/// forwards every call unchanged, so the guest behaves exactly as
/// unwrapped; only host time grows by the clock reads.
#[derive(Debug)]
pub struct Traced<M> {
    inner: M,
    times: BoundaryTimes,
    // `next_wakeup` takes `&self`.
    nw_calls: Cell<u64>,
    nw_time: Cell<Duration>,
}

impl<M> Traced<M> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: M) -> Traced<M> {
        Traced {
            inner,
            times: BoundaryTimes::default(),
            nw_calls: Cell::new(0),
            nw_time: Cell::new(Duration::ZERO),
        }
    }

    /// The wrapped machine.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the wrapped machine (untimed).
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Counters and times so far.
    pub fn times(&self) -> BoundaryTimes {
        BoundaryTimes {
            next_wakeup_calls: self.nw_calls.get(),
            next_wakeup: self.nw_time.get(),
            ..self.times
        }
    }
}

impl<M: Simulatable> Simulatable for Traced<M> {
    fn now(&self) -> Cycles {
        self.inner.now()
    }

    fn step(&mut self) -> StepOutcome {
        let before = self.inner.now();
        let t0 = Instant::now();
        let outcome = self.inner.step();
        self.times.step += t0.elapsed();
        self.times.step_calls += 1;
        self.times.idle_steps += u64::from(outcome == StepOutcome::Idle);
        self.times.stepped_cycles += (self.inner.now() - before).0;
        outcome
    }

    fn next_wakeup(&self) -> Option<Cycles> {
        let t0 = Instant::now();
        let wake = self.inner.next_wakeup();
        self.nw_time.set(self.nw_time.get() + t0.elapsed());
        self.nw_calls.set(self.nw_calls.get() + 1);
        wake
    }

    fn skip_to(&mut self, target: Cycles) {
        let before = self.inner.now();
        let t0 = Instant::now();
        self.inner.skip_to(target);
        self.times.skip += t0.elapsed();
        self.times.skip_calls += 1;
        self.times.skipped_cycles += (target - before).0;
    }

    fn on_epoch(&mut self, index: u64) {
        self.inner.on_epoch(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_sim::Engine;

    /// Busy for two cycles out of every ten.
    struct Blinker {
        now: Cycles,
    }

    impl Simulatable for Blinker {
        fn now(&self) -> Cycles {
            self.now
        }
        fn step(&mut self) -> StepOutcome {
            self.now += Cycles(1);
            if self.now.0 % 10 < 2 {
                StepOutcome::Busy
            } else {
                StepOutcome::Idle
            }
        }
        fn next_wakeup(&self) -> Option<Cycles> {
            Some(Cycles((self.now.0 / 10 + 1) * 10 - 1))
        }
        fn skip_to(&mut self, target: Cycles) {
            self.now = target;
        }
    }

    #[test]
    fn counts_every_boundary_call_and_covers_the_horizon() {
        let mut engine = Engine::new(Traced::new(Blinker { now: Cycles(0) }));
        let stats = engine.run_until_cycle(Cycles(1_000));
        let t = engine.machine().times();
        assert_eq!(t.stepped_cycles, stats.stepped.0);
        assert_eq!(t.skipped_cycles, stats.skipped.0);
        assert_eq!(t.stepped_cycles + t.skipped_cycles, 1_000);
        assert_eq!(t.step_calls, t.stepped_cycles, "one cycle per step");
        assert_eq!(
            t.skip_calls, t.next_wakeup_calls,
            "every idle step asks, then skips"
        );
        assert!(t.idle_steps >= t.skip_calls);
    }
}
