//! Synchronous memory models with block-RAM semantics.
//!
//! Virtex-II Pro block RAM (the paper's GA memory and lookup-table
//! fitness ROMs) has *synchronous* reads: the address is registered and
//! the data appears on the output port one clock later. The paper relies
//! on this ("the GA core places the memory address on the address bus and
//! reads the memory contents in the next clock cycle"), and the GA core
//! FSM spends an extra state per read because of it — so the latency is
//! load-bearing for the cycle counts reproduced in EXPERIMENTS.md.

use crate::reg::Reg;

/// Single-port synchronous RAM: one read *or* write per cycle.
///
/// Matches the paper's GA memory module: 8-bit address, 32-bit data
/// (16-bit chromosome + 16-bit fitness packed), write strobe, and a
/// registered read port.
#[derive(Debug, Clone)]
pub struct SpRam {
    data: Vec<u32>,
    /// Registered read-data output (block-RAM output register).
    dout: Reg<u32>,
}

impl SpRam {
    /// A RAM with `words` 32-bit words, zero-initialized (FPGA block RAM
    /// powers up to zero unless an INIT attribute says otherwise).
    pub fn new(words: usize) -> Self {
        SpRam {
            data: vec![0; words],
            dout: Reg::new(0),
        }
    }

    /// Number of addressable words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Evaluation phase: one port, write-wins (when `wr` is asserted the
    /// cycle performs a write and the read register holds its old value,
    /// matching `NO_CHANGE` block-RAM write mode).
    pub fn eval(&mut self, addr: u8, din: u32, wr: bool) {
        let a = addr as usize % self.data.len();
        if wr {
            self.data[a] = din;
        } else {
            self.dout.set(self.data[a]);
        }
    }

    /// Registered read data (valid one cycle after the address was
    /// presented with `wr` deasserted).
    #[inline]
    pub fn dout(&self) -> u32 {
        self.dout.get()
    }

    /// Settle the read port on `addr`: the output register takes the
    /// value it holds after one or more committed read cycles of `addr`
    /// with no write in between. Used to jump over a run of reads whose
    /// intermediate outputs nothing samples.
    pub fn settle(&mut self, addr: u8) {
        let v = self.backdoor(addr);
        self.dout.reset_to(v);
    }

    /// Commit the output register.
    pub fn commit(&mut self) {
        self.dout.commit();
    }

    /// Reset: clears the output register, *not* the array contents (block
    /// RAM contents survive logic reset).
    pub fn reset(&mut self) {
        self.dout.reset_to(0);
    }

    /// Testbench backdoor read (no clocking) — the equivalent of reading
    /// the memory via JTAG/readback rather than through the port.
    pub fn backdoor(&self, addr: u8) -> u32 {
        self.data[addr as usize % self.data.len()]
    }

    /// Testbench backdoor write.
    pub fn backdoor_write(&mut self, addr: u8, v: u32) {
        let len = self.data.len();
        self.data[addr as usize % len] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_read_has_one_cycle_latency() {
        let mut m = SpRam::new(256);
        m.backdoor_write(5, 0xDEAD_BEEF);
        m.eval(5, 0, false);
        // Before commit, dout still holds the old value.
        assert_eq!(m.dout(), 0);
        m.commit();
        assert_eq!(m.dout(), 0xDEAD_BEEF);
    }

    #[test]
    fn ram_write_then_read() {
        let mut m = SpRam::new(16);
        m.eval(3, 77, true);
        m.commit();
        m.eval(3, 0, false);
        m.commit();
        assert_eq!(m.dout(), 77);
        assert_eq!(m.backdoor(3), 77);
    }

    #[test]
    fn ram_write_holds_read_register() {
        let mut m = SpRam::new(16);
        m.backdoor_write(1, 11);
        m.eval(1, 0, false);
        m.commit();
        assert_eq!(m.dout(), 11);
        // A write cycle must not disturb the read register (NO_CHANGE).
        m.eval(2, 22, true);
        m.commit();
        assert_eq!(m.dout(), 11);
    }

    #[test]
    fn settle_equals_a_committed_read() {
        let mut stepped = SpRam::new(16);
        stepped.backdoor_write(7, 0xABCD);
        let mut settled = stepped.clone();
        stepped.eval(7, 0, false);
        stepped.commit();
        settled.settle(7);
        assert_eq!(format!("{settled:?}"), format!("{stepped:?}"));
    }

    #[test]
    fn ram_address_wraps_at_size() {
        let mut m = SpRam::new(8);
        m.eval(9, 99, true); // 9 % 8 == 1
        m.commit();
        assert_eq!(m.backdoor(1), 99);
    }
}
