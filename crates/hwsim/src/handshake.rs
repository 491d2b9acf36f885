//! Two-way handshake helper state machines.
//!
//! The paper's IP core uses exactly two handshake idioms, both "simple
//! two-way handshaking":
//!
//! * **Parameter initialization** (Table II signals 4–7): the user drives
//!   `index`/`value` and asserts `data_valid`; the core stores the value,
//!   asserts `data_ack`, waits for `data_valid` to fall, then drops
//!   `data_ack`. The core is the *slave* — modeled by [`AckSlave`].
//! * **Fitness evaluation** (signals 8–11): the core drives `candidate`
//!   and asserts `fit_request`; the fitness module computes, drives
//!   `fit_value` and asserts `fit_valid`; the core samples the value and
//!   drops `fit_request`; the module drops `fit_valid`. The core is the
//!   *master*; it sequences the request in its own FSM.
//!
//! [`AckSlave`] is a plain clocked FSM built from [`Reg`]s so it can be
//! embedded in any module and obeys the two-phase discipline.

use crate::reg::Reg;

/// Slave side of a valid/ack handshake (the GA core's init port).
#[derive(Debug, Clone, Default)]
pub struct AckSlave {
    ack: Reg<bool>,
    state: Reg<SlaveState>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum SlaveState {
    #[default]
    Idle,
    /// Ack asserted; waiting for the master's valid to fall.
    Holding,
}

impl AckSlave {
    /// Reset to idle with ack deasserted.
    pub fn reset(&mut self) {
        self.ack.reset_to(false);
        self.state.reset_to(SlaveState::Idle);
    }

    /// Commit internal registers.
    pub fn commit(&mut self) {
        self.ack.commit();
        self.state.commit();
    }

    /// The registered acknowledge line, to be wired back to the master.
    #[inline]
    pub fn ack(&self) -> bool {
        self.ack.get()
    }

    /// Evaluation-phase step. Returns `Some(payload)` exactly once per
    /// transaction, on the cycle the payload is accepted.
    pub fn eval(&mut self, valid: bool, payload: u32) -> Option<u32> {
        match self.state.get() {
            SlaveState::Idle => {
                if valid {
                    self.ack.set(true);
                    self.state.set(SlaveState::Holding);
                    Some(payload)
                } else {
                    None
                }
            }
            SlaveState::Holding => {
                if !valid {
                    self.ack.set(false);
                    self.state.set(SlaveState::Idle);
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slave_holds_ack_until_valid_falls() {
        let mut s = AckSlave::default();
        s.reset();
        assert_eq!(s.eval(true, 7), Some(7));
        s.commit();
        assert!(s.ack());
        // Master keeps valid high: no re-acceptance, ack stays high.
        assert_eq!(s.eval(true, 9), None);
        s.commit();
        assert!(s.ack());
        // Valid falls: ack falls next cycle.
        assert_eq!(s.eval(false, 0), None);
        s.commit();
        assert!(!s.ack());
        // New transaction accepted.
        assert_eq!(s.eval(true, 9), Some(9));
    }
}
