//! Two-phase registers.
//!
//! A [`Reg`] models a D flip-flop (or a bank of them). It holds a
//! *current* value, visible to every reader during the evaluation phase,
//! and a staged *next* value that becomes current when [`Reg::commit`] is
//! called at the simulated clock edge. Writing the next value multiple
//! times within one evaluation phase is allowed — the last write wins,
//! matching the semantics of multiple non-blocking assignments to the
//! same signal inside one always-block.

/// A register (D flip-flop bank) with two-phase update semantics.
///
/// `T` is the value carried by the register; in this codebase it is
/// almost always `u8`/`u16`/`u32`/`bool` or a small `Copy` enum standing
/// in for an FSM state encoding.
#[derive(Debug, Clone)]
pub struct Reg<T: Copy> {
    cur: T,
    nxt: T,
}

impl<T: Copy + Default> Default for Reg<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: Copy> Reg<T> {
    /// Create a register whose current and next values are both `v`.
    pub fn new(v: T) -> Self {
        Reg { cur: v, nxt: v }
    }

    /// Read the current (pre-edge) value. This is the only read that is
    /// legal during an evaluation phase.
    #[inline(always)]
    pub fn get(&self) -> T {
        self.cur
    }

    /// Stage a next value; it becomes visible after the next
    /// [`commit`](Reg::commit). Repeated `set`s in one phase overwrite
    /// each other (last write wins).
    #[inline(always)]
    pub fn set(&mut self, v: T) {
        self.nxt = v;
    }

    /// Latch the staged value: the simulated rising clock edge.
    #[inline(always)]
    pub fn commit(&mut self) {
        self.cur = self.nxt;
    }

    /// Asynchronous reset to a known value (both phases).
    #[inline]
    pub fn reset_to(&mut self, v: T) {
        self.cur = v;
        self.nxt = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_is_invisible_until_commit() {
        let mut r = Reg::new(7u16);
        r.set(9);
        assert_eq!(r.get(), 7);
        r.commit();
        assert_eq!(r.get(), 9);
    }

    #[test]
    fn last_write_wins_within_a_phase() {
        let mut r = Reg::new(0u8);
        r.set(1);
        r.set(2);
        r.set(3);
        r.commit();
        assert_eq!(r.get(), 3);
    }

    #[test]
    fn commit_without_set_holds_value() {
        let mut r = Reg::new(42u32);
        r.commit();
        r.commit();
        assert_eq!(r.get(), 42);
    }

    #[test]
    fn reset_clears_staged_value() {
        let mut r = Reg::new(1u8);
        r.set(200);
        r.reset_to(0);
        r.commit();
        assert_eq!(r.get(), 0);
    }
}
