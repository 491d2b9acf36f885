//! The RNG hardware module (Fig. 4's "RNG module").
//!
//! A free-standing clocked module holding the PRNG state register. The
//! GA core reads the output register through the `rn` port and pulses a
//! consume/enable wire when it has used the value, so the sequence of
//! numbers the optimizer sees is independent of how many cycles each
//! FSM state takes — which is what makes the behavioral and
//! cycle-accurate models bit-identical and the hardware verifiable
//! against simulation. (§III-B.7: "The GA core reads the output register
//! of the RNG module when it needs a random number.")
//!
//! The kernel (CA or LFSR) is a plain function over the state word,
//! demonstrating the paper's claim that "the operation of the GA core is
//! independent of the RNG implementation".

use carng::{ca, lfsr};
use hwsim::{Clocked, Reg};

/// Clocked RNG module with seed-load and consume-enable inputs.
#[derive(Debug, Clone)]
pub struct RngModule {
    state: Reg<u16>,
    kernel: Kernel,
}

/// The function a consume edge applies to the state word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Ca,
    Lfsr,
}

impl Kernel {
    #[inline]
    fn step(self, s: u16) -> u16 {
        match self {
            Kernel::Ca => ca::CaRng::step_state(s, ca::MAXIMAL_RULE_VECTOR),
            Kernel::Lfsr => lfsr::Lfsr16::step_state(s, lfsr::MAXIMAL_TAPS),
        }
    }
}

impl RngModule {
    /// The paper's configuration: cellular-automaton kernel.
    pub fn new_ca(power_on_seed: u16) -> Self {
        RngModule {
            state: Reg::new(Self::guard(power_on_seed)),
            kernel: Kernel::Ca,
        }
    }

    /// LFSR kernel (for RNG-independence experiments).
    pub fn new_lfsr(power_on_seed: u16) -> Self {
        RngModule {
            state: Reg::new(Self::guard(power_on_seed)),
            kernel: Kernel::Lfsr,
        }
    }

    /// The all-zero state is a fixed point for both kernels.
    fn guard(seed: u16) -> u16 {
        if seed == 0 {
            1
        } else {
            seed
        }
    }

    /// The `rn` output port (registered).
    #[inline]
    pub fn rn(&self) -> u16 {
        self.state.get()
    }

    /// One consume edge without a seed load, as [`RngModule::eval`] and
    /// a commit run it: returns the output the drawing cycle reads.
    #[inline]
    pub(crate) fn draw(&mut self) -> u16 {
        let rn = self.state.get();
        self.state.reset_to(self.kernel.step(rn));
        rn
    }

    /// Evaluation phase: a seed load takes priority over a consume step.
    pub fn eval(&mut self, consume: bool, seed_load: Option<u16>) {
        if let Some(seed) = seed_load {
            self.state.set(Self::guard(seed));
        } else if consume {
            self.state.set(self.kernel.step(self.state.get()));
        }
    }
}

impl Clocked for RngModule {
    fn reset(&mut self) {
        // Reset does not scramble the seed register: the paper allows
        // programming the seed before starting, and the start state
        // reloads it anyway.
        let cur = self.state.get();
        self.state.reset_to(Self::guard(cur));
    }

    fn commit(&mut self) {
        self.state.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::{CaRng, Rng16};

    #[test]
    fn consume_steps_once_per_pulse() {
        let mut m = RngModule::new_ca(0x2961);
        let mut reference = CaRng::new(0x2961);
        for _ in 0..100 {
            assert_eq!(m.rn(), reference.output());
            m.eval(true, None);
            m.commit();
            reference.step();
        }
    }

    #[test]
    fn idle_cycles_hold_the_value() {
        let mut m = RngModule::new_ca(0xB342);
        let v = m.rn();
        for _ in 0..10 {
            m.eval(false, None);
            m.commit();
            assert_eq!(m.rn(), v, "value must hold while the core is busy");
        }
    }

    #[test]
    fn seed_load_overrides_consume() {
        let mut m = RngModule::new_ca(1);
        m.eval(true, Some(0xABCD));
        m.commit();
        assert_eq!(m.rn(), 0xABCD);
    }

    #[test]
    fn zero_seed_guarded() {
        let mut m = RngModule::new_ca(0);
        assert_eq!(m.rn(), 1);
        m.eval(false, Some(0));
        m.commit();
        assert_eq!(m.rn(), 1);
    }

    #[test]
    fn lfsr_kernel_differs_from_ca() {
        let mut a = RngModule::new_ca(0x1234);
        let mut b = RngModule::new_lfsr(0x1234);
        a.eval(true, None);
        b.eval(true, None);
        a.commit();
        b.commit();
        assert_ne!(a.rn(), b.rn());
    }
}
