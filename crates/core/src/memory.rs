//! The GA memory module (Fig. 4's "GA memory").
//!
//! A single-port 256 × 32-bit synchronous memory — one Virtex-II Pro
//! block RAM (Table VI: 1% block-memory utilization). Each word packs an
//! individual: chromosome in the upper half, fitness in the lower half.
//! The 256 words are double-buffered into two banks of 128 (current and
//! new population), which is why the core's maximum population size is
//! 128 (the largest preset of Table IV).

use hwsim::{Clocked, SpRam};

use crate::behavioral::Individual;

/// Base address of population bank 0.
pub const BANK0_BASE: u8 = 0;
/// Base address of population bank 1.
pub const BANK1_BASE: u8 = 128;

/// Pack an individual into a 32-bit memory word.
#[inline]
pub fn pack(ind: Individual) -> u32 {
    ((ind.chrom as u32) << 16) | ind.fitness as u32
}

/// Unpack a 32-bit memory word.
#[inline]
pub fn unpack(word: u32) -> Individual {
    Individual {
        chrom: (word >> 16) as u16,
        fitness: (word & 0xFFFF) as u16,
    }
}

/// The 256-word GA memory.
#[derive(Debug, Clone)]
pub struct GaMemory {
    ram: SpRam,
}

impl Default for GaMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl GaMemory {
    /// A zeroed 256 × 32 memory.
    pub fn new() -> Self {
        GaMemory {
            ram: SpRam::new(256),
        }
    }

    /// Evaluation phase: drive the single port with the core's
    /// registered memory outputs.
    pub fn eval(&mut self, addr: u8, data: u32, wr: bool) {
        self.ram.eval(addr, data, wr);
    }

    /// Registered read data (valid one cycle after the address cycle).
    #[inline]
    pub fn dout(&self) -> u32 {
        self.ram.dout()
    }

    /// The word stored at `addr`, read without a clock (what a read
    /// cycle of `addr` would register).
    #[inline]
    pub fn word(&self, addr: u8) -> u32 {
        self.ram.backdoor(addr)
    }

    /// Settle the read register on `addr`, as a run of read cycles
    /// ending on `addr` leaves it (see [`hwsim::SpRam::settle`]).
    pub fn settle_read(&mut self, addr: u8) {
        self.ram.settle(addr);
    }

    /// Store `word` at `addr` without a clock, as a write cycle does;
    /// the read register holds its value (see [`GaMemory::eval`]).
    pub(crate) fn write(&mut self, addr: u8, word: u32) {
        self.ram.backdoor_write(addr, word);
    }

    /// Testbench backdoor: read a whole population bank.
    pub fn backdoor_population(&self, base: u8, pop_size: u8) -> Vec<Individual> {
        (0..pop_size)
            .map(|i| unpack(self.ram.backdoor(base.wrapping_add(i))))
            .collect()
    }
}

impl Clocked for GaMemory {
    fn reset(&mut self) {
        self.ram.reset();
    }

    fn commit(&mut self) {
        self.ram.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (c, f) in [(0u16, 0u16), (0xFFFF, 0xFFFF), (0x1234, 0xABCD)] {
            let ind = Individual {
                chrom: c,
                fitness: f,
            };
            assert_eq!(unpack(pack(ind)), ind);
        }
    }

    #[test]
    fn banks_do_not_overlap() {
        assert_eq!(BANK1_BASE - BANK0_BASE, 128);
        let mut m = GaMemory::new();
        let a = Individual {
            chrom: 1,
            fitness: 10,
        };
        let b = Individual {
            chrom: 2,
            fitness: 20,
        };
        m.eval(BANK0_BASE, pack(a), true);
        m.commit();
        m.eval(BANK1_BASE, pack(b), true);
        m.commit();
        assert_eq!(m.backdoor_population(BANK0_BASE, 1), vec![a]);
        assert_eq!(m.backdoor_population(BANK1_BASE, 1), vec![b]);
    }

    #[test]
    fn read_latency_one_cycle() {
        let mut m = GaMemory::new();
        let ind = Individual {
            chrom: 0xBEEF,
            fitness: 77,
        };
        m.eval(5, pack(ind), true);
        m.commit();
        m.eval(5, 0, false);
        m.commit();
        assert_eq!(unpack(m.dout()), ind);
    }

    #[test]
    fn max_population_fits_either_bank() {
        let mut m = GaMemory::new();
        for i in 0..128u8 {
            m.eval(
                BANK1_BASE + i,
                pack(Individual {
                    chrom: i as u16,
                    fitness: i as u16,
                }),
                true,
            );
            m.commit();
        }
        let pop = m.backdoor_population(BANK1_BASE, 128);
        assert_eq!(pop.len(), 128);
        assert_eq!(pop[127].chrom, 127);
    }
}
