//! Programmable GA parameters (Table III) and preset modes (Table IV).
//!
//! The core's headline feature is that population size, number of
//! generations, crossover threshold, mutation threshold and RNG seed are
//! all *runtime-programmable* through the initialization handshake —
//! no re-synthesis, unlike every prior FPGA GA in Table I. Three preset
//! parameter sets can bypass initialization entirely (fault tolerance in
//! the ASIC version, and convenient starting points for the user).

use carng::seeds::PRESET_SEEDS;

/// Index values of the programmable parameters (Table III). The `index`
/// bus is 3 bits; the two halves of the 32-bit generation count take two
/// slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ParamIndex {
    /// Number of generations, bits \[15:0\].
    NumGensLo = 0,
    /// Number of generations, bits \[31:16\].
    NumGensHi = 1,
    /// Population size (8-bit).
    PopSize = 2,
    /// Crossover rate threshold (4-bit).
    CrossoverRate = 3,
    /// Mutation rate threshold (4-bit).
    MutationRate = 4,
    /// RNG seed (16-bit).
    RngSeed = 5,
}

impl ParamIndex {
    /// Decode a 3-bit index bus value.
    pub fn from_bus(v: u8) -> Option<Self> {
        Some(match v & 0x7 {
            0 => ParamIndex::NumGensLo,
            1 => ParamIndex::NumGensHi,
            2 => ParamIndex::PopSize,
            3 => ParamIndex::CrossoverRate,
            4 => ParamIndex::MutationRate,
            5 => ParamIndex::RngSeed,
            _ => return None,
        })
    }
}

/// Preset mode selector (2-bit `preset` input, Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum PresetMode {
    /// `00`: use the user-programmed parameter registers.
    #[default]
    User = 0b00,
    /// `01`: pop 32, 512 generations, thresholds 12/1.
    Small = 0b01,
    /// `10`: pop 64, 1024 generations, thresholds 13/2.
    Medium = 0b10,
    /// `11`: pop 128, 4096 generations, thresholds 14/3.
    Large = 0b11,
}

impl PresetMode {
    /// Decode the 2-bit preset bus.
    pub fn from_bus(v: u8) -> Self {
        match v & 0b11 {
            0b01 => PresetMode::Small,
            0b10 => PresetMode::Medium,
            0b11 => PresetMode::Large,
            _ => PresetMode::User,
        }
    }
}

/// A complete, validated GA parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaParams {
    /// Population size. The GA memory holds 256 words double-buffered
    /// into two banks, so at most 128 individuals (the largest preset).
    pub pop_size: u8,
    /// Number of generations (32-bit, programmed as two 16-bit halves).
    pub n_gens: u32,
    /// Crossover threshold 0–15: crossover happens when a fresh 4-bit
    /// random draw is **less than** this value (rate = threshold/16).
    pub xover_threshold: u8,
    /// Mutation threshold 0–15 (rate = threshold/16).
    pub mut_threshold: u8,
    /// RNG seed (zero is remapped to 1 by the RNG module).
    pub seed: u16,
}

impl GaParams {
    /// Largest population the double-buffered 256-word GA memory holds.
    pub const MAX_POP: u8 = 128;

    /// Validated constructor.
    pub fn new(
        pop_size: u8,
        n_gens: u32,
        xover_threshold: u8,
        mut_threshold: u8,
        seed: u16,
    ) -> Self {
        let p = GaParams {
            pop_size,
            n_gens,
            xover_threshold,
            mut_threshold,
            seed,
        };
        p.validate().expect("invalid GA parameters");
        p
    }

    /// Check the hardware ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.pop_size < 2 {
            return Err(format!("population size {} < 2", self.pop_size));
        }
        if self.pop_size > Self::MAX_POP {
            return Err(format!(
                "population size {} exceeds the double-buffered memory limit {}",
                self.pop_size,
                Self::MAX_POP
            ));
        }
        if self.xover_threshold > 15 {
            return Err(format!("crossover threshold {} > 15", self.xover_threshold));
        }
        if self.mut_threshold > 15 {
            return Err(format!("mutation threshold {} > 15", self.mut_threshold));
        }
        if self.n_gens == 0 {
            return Err("number of generations must be ≥ 1".into());
        }
        Ok(())
    }

    /// The parameter set of a preset mode (Table IV), or `None` for
    /// [`PresetMode::User`]. Each preset also selects one of the three
    /// built-in RNG seeds.
    pub fn preset(mode: PresetMode) -> Option<GaParams> {
        let (pop, gens, xover, mutn, seed) = match mode {
            PresetMode::User => return None,
            PresetMode::Small => (32, 512, 12, 1, PRESET_SEEDS[0]),
            PresetMode::Medium => (64, 1024, 13, 2, PRESET_SEEDS[1]),
            PresetMode::Large => (128, 4096, 14, 3, PRESET_SEEDS[2]),
        };
        Some(GaParams::new(pop, gens, xover, mutn, seed))
    }

    /// Fitness evaluations one full run consumes: the initial
    /// population plus `pop − 1` offspring per generation (the elite
    /// slot is copied, not re-evaluated). This is the single source of
    /// truth for the formula — the behavioral engine's `evaluations()`
    /// instrumentation and the serving layer's per-job accounting both
    /// pin themselves to it.
    pub fn evaluations_per_run(&self) -> u64 {
        self.pop_size as u64 + self.n_gens as u64 * (self.pop_size as u64 - 1)
    }
}

impl Default for GaParams {
    /// Power-on values: the paper's most common experimental setting
    /// (pop 32, 32 generations, crossover 10/16, mutation 1/16,
    /// seed = first preset seed).
    fn default() -> Self {
        GaParams::new(32, 32, 10, 1, PRESET_SEEDS[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_index_roundtrip() {
        for v in 0..6u8 {
            let idx = ParamIndex::from_bus(v).unwrap();
            assert_eq!(idx as u8, v);
        }
        assert_eq!(ParamIndex::from_bus(6), None);
        assert_eq!(ParamIndex::from_bus(7), None);
        // Bus is 3 bits: higher bits ignored.
        assert_eq!(ParamIndex::from_bus(0b1000_0010), Some(ParamIndex::PopSize));
    }

    #[test]
    fn preset_table_iv_values() {
        let s = GaParams::preset(PresetMode::Small).unwrap();
        assert_eq!(
            (s.pop_size, s.n_gens, s.xover_threshold, s.mut_threshold),
            (32, 512, 12, 1)
        );
        let m = GaParams::preset(PresetMode::Medium).unwrap();
        assert_eq!(
            (m.pop_size, m.n_gens, m.xover_threshold, m.mut_threshold),
            (64, 1024, 13, 2)
        );
        let l = GaParams::preset(PresetMode::Large).unwrap();
        assert_eq!(
            (l.pop_size, l.n_gens, l.xover_threshold, l.mut_threshold),
            (128, 4096, 14, 3)
        );
        assert!(GaParams::preset(PresetMode::User).is_none());
    }

    #[test]
    fn preset_bus_decoding() {
        assert_eq!(PresetMode::from_bus(0b00), PresetMode::User);
        assert_eq!(PresetMode::from_bus(0b01), PresetMode::Small);
        assert_eq!(PresetMode::from_bus(0b10), PresetMode::Medium);
        assert_eq!(PresetMode::from_bus(0b11), PresetMode::Large);
        assert_eq!(PresetMode::from_bus(0b111), PresetMode::Large);
    }

    #[test]
    fn validation_rejects_out_of_range() {
        assert!(GaParams {
            pop_size: 1,
            ..GaParams::default()
        }
        .validate()
        .is_err());
        assert!(GaParams {
            pop_size: 129,
            ..GaParams::default()
        }
        .validate()
        .is_err());
        assert!(GaParams {
            n_gens: 0,
            ..GaParams::default()
        }
        .validate()
        .is_err());
        assert!(GaParams {
            xover_threshold: 16,
            ..GaParams::default()
        }
        .validate()
        .is_err());
        assert!(GaParams {
            mut_threshold: 200,
            ..GaParams::default()
        }
        .validate()
        .is_err());
        assert!(GaParams::default().validate().is_ok());
    }

    #[test]
    fn evaluation_formula_matches_the_engine_contract() {
        // pop + gens·(pop−1): both old call sites (the behavioral
        // engine's counter and the serve backend's RTL accounting) are
        // regression-pinned to this in their own test suites.
        assert_eq!(GaParams::new(16, 5, 10, 1, 3).evaluations_per_run(), 91);
        assert_eq!(GaParams::new(8, 3, 10, 1, 1).evaluations_per_run(), 29);
        assert_eq!(
            GaParams::new(128, 4096, 14, 3, 1).evaluations_per_run(),
            128 + 4096 * 127
        );
    }

    #[test]
    fn paper_mutation_rate_is_one_sixteenth() {
        // Every experiment in the paper uses mutation rate 0.0625 = 1/16,
        // i.e. threshold 1; the default crossover rate is 10/16.
        let p = GaParams::default();
        assert_eq!((p.xover_threshold, p.mut_threshold), (10, 1));
    }
}
