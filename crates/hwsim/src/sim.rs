//! The scheduler: cycle counting and the host-side run deadline.
//!
//! A "system" here is any closed collection of [`Clocked`] modules whose
//! wiring is expressed in plain Rust by the owner (the idiom used by the
//! GA system model: sample every module's registered outputs, hand each
//! module its input bundle, then commit everything). [`Sim`] only owns
//! the clock: it counts the cycles its owner steps or skips.

use std::fmt;
use std::time::{Duration, Instant};

/// A synchronous module driven by a single clock.
///
/// The evaluation phase is module-specific (each module exposes its own
/// `eval(...)` taking a typed input bundle), so the trait only captures
/// the parts the scheduler needs: reset and the commit edge.
pub trait Clocked {
    /// Synchronous reset: drive every internal register to its power-on
    /// value in both phases.
    fn reset(&mut self);

    /// Latch every internal register (the rising clock edge).
    fn commit(&mut self);
}

/// Errors from watchdog- and deadline-bounded run loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The watchdog expired before the condition held.
    Timeout {
        /// Number of cycles that were run before giving up.
        cycles: u64,
    },
    /// A wall-clock [`Deadline`] expired before the condition held —
    /// the *host* ran out of time, not the simulated hardware.
    DeadlineExceeded {
        /// Number of cycles that were run before the deadline fired.
        cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout { cycles } => {
                write!(f, "simulation watchdog expired after {cycles} cycles")
            }
            SimError::DeadlineExceeded { cycles } => {
                write!(f, "wall-clock deadline expired after {cycles} cycles")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A wall-clock budget with amortized checking, for bounding how long a
/// *host* is allowed to spend inside a simulation loop (as opposed to
/// the cycle-count watchdog, which bounds *simulated* time).
///
/// Reading the OS clock every simulated cycle would dominate a tight
/// run loop, so [`Deadline::expired`] only consults [`Instant`] once
/// per skip window. The window is *adaptive*: each clock read measures
/// the cost of the calls since the previous read and grants a skip that
/// cannot consume more than half of the remaining budget, growing at
/// most geometrically from zero so an unmeasured estimate is never
/// trusted with a large window. The first call always checks, which
/// makes a zero-millisecond deadline fire deterministically, and once
/// expired the verdict is sticky — every later call returns `true`.
#[derive(Debug, Clone)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
    /// Calls left to skip before the next clock read.
    countdown: u32,
    /// Skip window granted at the last clock read (geometric-growth cap).
    last_skip: u32,
    /// `expired()` calls answered since the last clock read.
    calls_since_check: u32,
    /// `start.elapsed()` observed at the last clock read.
    last_elapsed: Duration,
    /// Latched on the first expired verdict; never cleared.
    tripped: bool,
}

impl Deadline {
    /// Upper bound on calls between clock reads, however cheap the
    /// loop body measures.
    const MAX_STRIDE: u32 = 1024;

    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            start: Instant::now(),
            budget,
            countdown: 0,
            last_skip: 0,
            calls_since_check: 0,
            last_elapsed: Duration::ZERO,
            tripped: false,
        }
    }

    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        Self::after(Duration::from_millis(ms))
    }

    /// Amortized check: consults the real clock on the first call and
    /// then once per adaptive skip window; in between it returns
    /// `false`. After the first `true` the deadline is latched and
    /// every subsequent call returns `true` without touching the clock.
    #[inline]
    pub fn expired(&mut self) -> bool {
        if self.tripped {
            return true;
        }
        if self.countdown > 0 {
            self.countdown -= 1;
            self.calls_since_check += 1;
            return false;
        }
        let elapsed = self.start.elapsed();
        if elapsed >= self.budget {
            self.tripped = true;
            return true;
        }
        // Size the next window from the measured per-call cost: skip at
        // most the number of calls that fit half the remaining budget,
        // at most double-plus-one the previous window, never more than
        // MAX_STRIDE. A sleep-heavy loop therefore re-checks within
        // ~half of what remains instead of overshooting by a fixed
        // 1024-call stride.
        let calls = u128::from(self.calls_since_check) + 1;
        let per_call_ns = ((elapsed - self.last_elapsed).as_nanos() / calls).max(1);
        let fits = (self.budget - elapsed).as_nanos() / 2 / per_call_ns;
        let cap = u128::from(self.last_skip) * 2 + 1;
        let skip = fits.min(cap).min(u128::from(Self::MAX_STRIDE)) as u32;
        self.countdown = skip;
        self.last_skip = skip;
        self.calls_since_check = 0;
        self.last_elapsed = elapsed;
        false
    }

    /// Immediate (non-amortized) check against the real clock (or the
    /// latched verdict, once [`Deadline::expired`] has tripped).
    #[inline]
    pub fn is_past(&self) -> bool {
        self.tripped || self.start.elapsed() >= self.budget
    }

    /// Time left before expiry (zero once past).
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.start.elapsed())
    }
}

/// Clock/scheduler for a closed system, clocked at the paper's
/// GA-module rate.
#[derive(Debug, Clone, Default)]
pub struct Sim {
    cycle: u64,
}

impl Sim {
    /// Clock period in picoseconds, used to convert cycle counts into
    /// wall-clock time for the paper's runtime comparisons. The GA module
    /// in the paper runs at 50 MHz → 20 000 ps.
    const PERIOD_PS: u64 = 20_000;

    /// The paper's GA-module clock: 50 MHz (20 ns).
    pub fn new_50mhz() -> Self {
        Sim::default()
    }

    /// Cycles elapsed since construction.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Clock period in picoseconds.
    #[inline]
    pub fn period_ps(&self) -> u64 {
        Self::PERIOD_PS
    }

    /// Run one full clock cycle: the caller-provided closure performs the
    /// evaluation phase (sampling outputs, calling each module's `eval`),
    /// then the scheduler invokes `commit` on the system.
    pub fn step<S: Clocked>(&mut self, system: &mut S, eval: impl FnOnce(&mut S)) {
        eval(system);
        system.commit();
        self.cycle += 1;
    }

    /// Count `n` clock cycles without evaluating anything: for an owner
    /// that has computed the state its modules reach after `n` quiet
    /// cycles and set it directly (e.g. a skipped memory scan). The
    /// owner is responsible for that state being exactly what `n`
    /// calls to [`Sim::step`] would have left.
    pub fn advance(&mut self, n: u64) {
        self.cycle += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[derive(Default)]
    struct Count {
        n: Reg<u32>,
    }
    impl Clocked for Count {
        fn reset(&mut self) {
            self.n.reset_to(0);
        }
        fn commit(&mut self) {
            self.n.commit();
        }
    }

    #[test]
    fn advance_counts_cycles_like_steps() {
        let mut sim = Sim::new_50mhz();
        let mut c = Count::default();
        sim.step(&mut c, |_| {});
        sim.advance(41);
        assert_eq!(sim.cycles(), 42);
        assert_eq!(sim.period_ps(), 20_000, "the paper's 50 MHz GA clock");
    }

    #[test]
    fn zero_deadline_expires_on_first_check() {
        // The amortized path must not defer the very first clock read:
        // a 0 ms budget fires deterministically on call one.
        let mut d = Deadline::after_ms(0);
        assert!(d.expired());
        assert!(d.is_past());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn expired_is_sticky_after_first_trip() {
        // Once a deadline has fired it must keep reporting expired on
        // every later call — the old amortized path answered `false`
        // for the rest of the stride, letting a loop that ignores a
        // single verdict run another 1023 iterations for free.
        let mut d = Deadline::after_ms(0);
        assert!(d.expired());
        for _ in 0..5_000 {
            assert!(d.expired(), "expired() must be sticky-monotonic");
        }
        assert!(d.is_past());
    }

    #[test]
    fn slow_loop_does_not_overshoot_by_a_full_stride() {
        // A loop whose body costs ~1 ms per call must notice a 50 ms
        // budget long before the fixed 1024-call stride would (the old
        // code slept through the whole stride: ≥ 1 s of overshoot).
        let budget = Duration::from_millis(50);
        let start = Instant::now();
        let mut d = Deadline::after(budget);
        let mut calls = 0u32;
        while !d.expired() {
            std::thread::sleep(Duration::from_millis(1));
            calls += 1;
            assert!(calls < 4_000, "deadline never tripped");
        }
        let overshoot = start.elapsed().saturating_sub(budget);
        assert!(
            overshoot < Duration::from_millis(450),
            "overshot the budget by {overshoot:?}"
        );
    }

    #[test]
    fn generous_deadline_does_not_expire() {
        let mut d = Deadline::after(Duration::from_secs(3600));
        for _ in 0..10_000 {
            assert!(!d.expired());
        }
        assert!(!d.is_past());
        assert!(d.remaining() > Duration::from_secs(3000));
    }

    #[test]
    fn deadline_error_displays_cycles() {
        let e = SimError::DeadlineExceeded { cycles: 42 };
        assert!(e.to_string().contains("42"));
        assert_ne!(e, SimError::Timeout { cycles: 42 });
    }
}
