//! The request side of the two-way handshake, driven against
//! [`AckSlave`]. The GA core's fitness port sequences its request in
//! its own FSM, so [`ReqMaster`] is test code: the counterpart that
//! drives the slave through whole transactions.

use hwsim::{AckSlave, Reg};
use proptest::prelude::*;

/// Master side of a request/valid handshake (the GA core's fitness port).
///
/// Protocol timeline (one transaction):
///
/// ```text
/// cycle:      0      1 .. k      k+1        k+2
/// req:        1      1           0          0
/// payload:    D      D           -          -
/// valid:      0      0/1...1     1→(slave)  0
/// resp:              R (while valid)
/// ```
#[derive(Default)]
struct ReqMaster {
    /// Registered request output.
    req: Reg<bool>,
    /// Captured response.
    resp: Reg<u32>,
    state: Reg<MasterState>,
}

#[derive(Clone, Copy, PartialEq, Eq, Default)]
enum MasterState {
    #[default]
    Idle,
    /// Request asserted; waiting for the slave's valid.
    Waiting,
    /// Response captured; waiting for valid to fall before reuse.
    Draining,
}

impl ReqMaster {
    /// Reset to idle with the request deasserted.
    fn reset(&mut self) {
        self.req.reset_to(false);
        self.resp.reset_to(0);
        self.state.reset_to(MasterState::Idle);
    }

    /// Commit all internal registers (call from the owner's `commit`).
    fn commit(&mut self) {
        self.req.commit();
        self.resp.commit();
        self.state.commit();
    }

    /// The registered request line, to be wired to the slave.
    fn req(&self) -> bool {
        self.req.get()
    }

    /// True when no transaction is in flight and a new one may start.
    fn is_idle(&self) -> bool {
        self.state.get() == MasterState::Idle
    }

    /// Begin a transaction: assert `req` from the next cycle. Must only
    /// be called when idle.
    fn start(&mut self) {
        debug_assert!(self.is_idle(), "ReqMaster::start while busy");
        self.req.set(true);
        self.state.set(MasterState::Waiting);
    }

    /// Evaluation-phase step. `valid` and `resp_bus` are the slave's
    /// registered outputs as sampled this cycle. Returns `Some(resp)`
    /// exactly once per transaction, on the cycle the response is
    /// captured.
    fn eval(&mut self, valid: bool, resp_bus: u32) -> Option<u32> {
        match self.state.get() {
            MasterState::Idle => None,
            MasterState::Waiting => {
                if valid {
                    self.resp.set(resp_bus);
                    self.req.set(false);
                    self.state.set(MasterState::Draining);
                    Some(resp_bus)
                } else {
                    None
                }
            }
            MasterState::Draining => {
                if !valid {
                    self.state.set(MasterState::Idle);
                }
                None
            }
        }
    }

    /// The most recently captured response.
    fn response(&self) -> u32 {
        self.resp.get()
    }
}

/// Drive a full master↔slave transaction and check the four-phase
/// sequencing cycle by cycle.
#[test]
fn master_slave_four_phase() {
    let mut m = ReqMaster::default();
    let mut s = AckSlave::default();
    m.reset();
    s.reset();

    // A toy slave that, when it accepts payload P, answers with P+1
    // one cycle later using a valid line (here the slave's ack doubles
    // as valid and we use a separate response register).
    let mut slave_valid = Reg::<bool>::default();
    let mut slave_resp = Reg::<u32>::default();

    m.start();
    m.commit();
    assert!(m.req());

    let mut accepted = None;
    let mut captured = None;
    for _cycle in 0..10 {
        // Slave watches the master's registered request as "valid in".
        if let Some(p) = s.eval(m.req(), 41) {
            accepted = Some(p);
            slave_resp.set(p + 1);
            slave_valid.set(true);
        }
        if !m.req() {
            slave_valid.set(false);
        }
        // Master watches the slave's registered valid.
        if let Some(r) = m.eval(slave_valid.get(), slave_resp.get()) {
            captured = Some(r);
        }
        m.commit();
        s.commit();
        slave_valid.commit();
        slave_resp.commit();
        if m.is_idle() && captured.is_some() {
            break;
        }
    }
    assert_eq!(accepted, Some(41));
    assert_eq!(captured, Some(42));
    assert!(!m.req());
    assert!(m.is_idle());
}

#[test]
fn master_captures_exactly_once() {
    let mut m = ReqMaster::default();
    m.reset();
    m.start();
    m.commit();
    // Valid high for several cycles: the response is delivered once.
    assert_eq!(m.eval(true, 5), Some(5));
    m.commit();
    assert_eq!(m.eval(true, 6), None);
    m.commit();
    assert_eq!(m.eval(false, 0), None);
    m.commit();
    assert!(m.is_idle());
    assert_eq!(m.response(), 5);
}

proptest! {
    /// Master/slave handshake delivers exactly one payload per
    /// transaction under arbitrary slave response latencies.
    #[test]
    fn handshake_delivers_exactly_once(latencies in prop::collection::vec(0u8..12, 1..20)) {
        let mut master = ReqMaster::default();
        let mut slave = AckSlave::default();
        master.reset();
        slave.reset();
        // The slave-side responder: after accepting, waits `latency`
        // cycles, then asserts valid with payload+1 until req falls.
        for (txn, &latency) in latencies.iter().enumerate() {
            let payload = txn as u32 * 31 + 7;
            master.start();
            master.commit();
            let mut countdown: Option<u8> = None;
            let mut accepted: Option<u32> = None;
            let mut responses = 0u32;
            let mut valid = false;
            let mut value = 0u32;
            for _cycle in 0..100 {
                // Slave side.
                if let Some(p) = slave.eval(master.req(), payload) {
                    accepted = Some(p);
                    countdown = Some(latency);
                }
                if let Some(c) = countdown {
                    if c == 0 {
                        valid = true;
                        value = accepted.unwrap() + 1;
                        countdown = None;
                    } else {
                        countdown = Some(c - 1);
                    }
                }
                if !master.req() {
                    valid = false;
                }
                // Master side.
                if let Some(r) = master.eval(valid, value) {
                    prop_assert_eq!(r, payload + 1);
                    responses += 1;
                }
                master.commit();
                slave.commit();
                if master.is_idle() && responses > 0 && !valid {
                    break;
                }
            }
            prop_assert_eq!(responses, 1, "txn {} delivered {} times", txn, responses);
        }
    }
}
