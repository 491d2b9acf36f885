//! The VRC as a fitness evaluation module.
//!
//! Intrinsic EHW evaluates candidates *on the hardware itself*: the GA
//! core's `candidate` bus is the VRC configuration, the FEM applies all
//! 16 input patterns to the (possibly faulted) fabric and scores the
//! truth-table match against the stored target. One pattern per clock —
//! a 16-cycle evaluation plus handshake, which is exactly the kind of
//! fitness-evaluation-dominated workload where the paper argues the
//! multichip/hybrid topologies remain competitive.

use ga_fitness::fem::{Fem, FemIn, FemOut};
use hwsim::{Clocked, Reg};

use crate::vrc::{Fault, TruthTable, Vrc};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum State {
    #[default]
    Idle,
    /// Applying pattern `i` (sweeps 0..16).
    Sweep,
    Hold,
}

/// The VRC-backed fitness evaluation module.
#[derive(Debug, Clone)]
pub struct VrcFem {
    target: TruthTable,
    fault: Option<Fault>,
    state: Reg<State>,
    pattern: Reg<u8>,
    matches: Reg<u8>,
    config: Reg<u16>,
    fit_value: Reg<u16>,
    fit_valid: Reg<bool>,
}

impl VrcFem {
    /// Build a FEM that scores configurations against `target` on a
    /// fabric with `fault` injected.
    pub fn new(target: TruthTable, fault: Option<Fault>) -> Self {
        VrcFem {
            target,
            fault,
            state: Reg::default(),
            pattern: Reg::default(),
            matches: Reg::default(),
            config: Reg::default(),
            fit_value: Reg::default(),
            fit_valid: Reg::default(),
        }
    }

    /// The target truth table.
    pub fn target(&self) -> TruthTable {
        self.target
    }
}

impl Clocked for VrcFem {
    fn reset(&mut self) {
        self.state.reset_to(State::Idle);
        self.pattern.reset_to(0);
        self.matches.reset_to(0);
        self.config.reset_to(0);
        self.fit_value.reset_to(0);
        self.fit_valid.reset_to(false);
    }

    fn commit(&mut self) {
        self.state.commit();
        self.pattern.commit();
        self.matches.commit();
        self.config.commit();
        self.fit_value.commit();
        self.fit_valid.commit();
    }
}

impl Fem for VrcFem {
    fn eval(&mut self, i: FemIn) {
        match self.state.get() {
            State::Idle => {
                if i.fit_request {
                    self.config.set(i.candidate as u16);
                    self.pattern.set(0);
                    self.matches.set(0);
                    self.state.set(State::Sweep);
                }
            }
            State::Sweep => {
                let p = self.pattern.get();
                let vrc = Vrc {
                    config: self.config.get(),
                    fault: self.fault,
                };
                let got = vrc.eval(p);
                let want = (self.target >> p) & 1 == 1;
                let m = self.matches.get() + u8::from(got == want);
                self.matches.set(m);
                if p == 15 {
                    self.fit_value.set(m as u16 * 4095);
                    self.fit_valid.set(true);
                    self.state.set(State::Hold);
                } else {
                    self.pattern.set(p + 1);
                }
            }
            State::Hold => {
                if !i.fit_request {
                    self.fit_valid.set(false);
                    self.state.set(State::Idle);
                }
            }
        }
    }

    fn out(&self) -> FemOut {
        FemOut {
            fit_value: self.fit_value.get(),
            fit_valid: self.fit_valid.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vrc::healing_fitness;

    fn transact(fem: &mut VrcFem, config: u16) -> (u16, u32) {
        let mut cycles = 0;
        let mut out = None;
        for _ in 0..100 {
            fem.eval(FemIn {
                fit_request: true,
                candidate: config.into(),
            });
            fem.commit();
            cycles += 1;
            if fem.out().fit_valid {
                out = Some(fem.out().fit_value);
                break;
            }
        }
        for _ in 0..5 {
            fem.eval(FemIn::default());
            fem.commit();
            if !fem.out().fit_valid {
                break;
            }
        }
        (out.expect("VRC FEM never answered"), cycles)
    }

    #[test]
    fn fem_matches_reference_fitness() {
        let target = Vrc::new(0x1B26).truth_table();
        let fault = Some(Fault::StuckAt {
            cell: 1,
            value: true,
        });
        let mut fem = VrcFem::new(target, fault);
        fem.reset();
        for cfg in [0u16, 0x1B26, 0xFFFF, 0xA5A5] {
            let (fit, _) = transact(&mut fem, cfg);
            assert_eq!(fit, healing_fitness(cfg, target, fault));
        }
    }

    #[test]
    fn sweep_takes_sixteen_pattern_cycles() {
        let target = 0x0F0F;
        let mut fem = VrcFem::new(target, None);
        fem.reset();
        let (_, cycles) = transact(&mut fem, 0x1234);
        assert_eq!(cycles, 17, "accept + 16 pattern cycles");
    }
}
