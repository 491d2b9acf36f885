//! A user-defined application fitness: FIR filter coefficient search.
//!
//! The paper's related work includes a GA "for optimization of FRM
//! digital filters over DBNS multiplier coefficient space" (ref. \[16\])
//! and the abstract promises the core "can be tailored to any given
//! application by interfacing with the appropriate application-specific
//! fitness evaluation module". This module is that demonstration: an
//! 8-tap *symmetric* (linear-phase) FIR filter whose four free
//! coefficients are signed 4-bit values packed into one 16-bit
//! chromosome, scored by how closely its magnitude response matches a
//! target response on a frequency grid.
//!
//! Like the paper's test functions, the fitness is served by the
//! standard [`crate::LookupFem`] handshake, which computes each ROM word
//! on read with the same f64-plus-saturating-quantization function the
//! paper's offline ROM holds; Table VI's block-RAM cost for it still
//! comes from the full table's geometry (`FitnessRom`).

use std::f64::consts::PI;

/// Number of taps (symmetric: taps\[k\] == taps\[7−k\]).
pub const TAPS: usize = 8;

/// Frequencies of the evaluation grid (ω = π·k/16 for k = 1..=16,
/// i.e. 16 points from DC-adjacent to Nyquist).
pub const GRID_POINTS: usize = 16;

/// Decode a chromosome into the eight symmetric taps: four signed
/// 4-bit two's-complement coefficients `h0..h3` from the four nibbles
/// (LSB nibble = h0), mirrored.
pub fn decode_taps(chrom: u16) -> [i8; TAPS] {
    let nib = |k: u32| -> i8 {
        let v = ((chrom >> (4 * k)) & 0xF) as i8;
        if v >= 8 {
            v - 16
        } else {
            v
        }
    };
    let h = [nib(0), nib(1), nib(2), nib(3)];
    [h[0], h[1], h[2], h[3], h[3], h[2], h[1], h[0]]
}

/// Magnitude response |H(e^{jω})| of a tap set.
pub fn magnitude_response(taps: &[i8; TAPS], omega: f64) -> f64 {
    let mut re = 0.0;
    let mut im = 0.0;
    for (k, &t) in taps.iter().enumerate() {
        re += t as f64 * (omega * k as f64).cos();
        im -= t as f64 * (omega * k as f64).sin();
    }
    (re * re + im * im).sqrt()
}

/// Magnitude response on the evaluation grid.
pub fn response_grid(taps: &[i8; TAPS]) -> [f64; GRID_POINTS] {
    let mut out = [0.0; GRID_POINTS];
    for (k, slot) in out.iter_mut().enumerate() {
        let omega = PI * (k as f64 + 1.0) / GRID_POINTS as f64;
        *slot = magnitude_response(taps, omega);
    }
    out
}

/// The demo's golden design: a smooth low-pass tap set within the
/// 4-bit coefficient range.
pub const GOLDEN_CHROM: u16 = 0x7521; // h = [1, 2, 5, 7] mirrored

/// The target response: the golden filter's grid response.
pub fn lowpass_target() -> [f64; GRID_POINTS] {
    response_grid(&decode_taps(GOLDEN_CHROM))
}

/// Fitness of a candidate against a target response: full scale minus
/// the scaled sum of absolute response errors over the grid,
/// saturating at zero. The scale (64 fitness units per unit error)
/// keeps the golden design at exactly 65 535 and the worst designs
/// near zero.
pub fn filter_fitness(chrom: u16, target: &[f64; GRID_POINTS]) -> u16 {
    let got = response_grid(&decode_taps(chrom));
    let err: f64 = got.iter().zip(target).map(|(g, t)| (g - t).abs()).sum();
    (65535.0 - 64.0 * err).round().clamp(0.0, 65535.0) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taps_are_symmetric_linear_phase() {
        for chrom in [0u16, 0xFFFF, GOLDEN_CHROM, 0x8421] {
            let t = decode_taps(chrom);
            for k in 0..TAPS / 2 {
                assert_eq!(t[k], t[TAPS - 1 - k], "chrom {chrom:#06x} tap {k}");
            }
        }
    }

    #[test]
    fn nibble_decoding_is_twos_complement() {
        // 0xF = −1, 0x8 = −8, 0x7 = +7.
        let t = decode_taps(0xF887);
        assert_eq!(t[0], 7);
        assert_eq!(t[1], -8);
        assert_eq!(t[2], -8);
        assert_eq!(t[3], -1);
    }

    #[test]
    fn dc_response_is_tap_sum() {
        let taps = decode_taps(GOLDEN_CHROM);
        let sum: f64 = taps.iter().map(|&t| t as f64).sum();
        assert!((magnitude_response(&taps, 0.0) - sum.abs()).abs() < 1e-9);
    }

    #[test]
    fn golden_design_scores_full_scale() {
        let target = lowpass_target();
        assert_eq!(filter_fitness(GOLDEN_CHROM, &target), 65535);
    }

    #[test]
    fn zero_filter_scores_poorly() {
        let target = lowpass_target();
        let zero = filter_fitness(0x0000, &target);
        assert!(zero < 60_000, "all-zero taps score {zero}");
    }

    #[test]
    fn fitness_landscape_is_nontrivial() {
        // Many distinct fitness values, single full-scale optimum class.
        let target = lowpass_target();
        let mut distinct = std::collections::HashSet::new();
        let mut optima = 0u32;
        // Step 3 keeps the sweep fast and lands on the golden chrom
        // (0x7521 = 29 985 = 3 · 9 995).
        for c in (0..=u16::MAX).step_by(3) {
            let f = filter_fitness(c, &target);
            distinct.insert(f);
            if f == 65535 {
                optima += 1;
            }
        }
        assert!(
            distinct.len() > 1000,
            "only {} distinct values",
            distinct.len()
        );
        assert!((1..20).contains(&optima), "{optima} sampled optima");
    }

    #[test]
    fn golden_is_recoverable_by_the_ga_landscape() {
        // The exact optimum set over the full space: the golden chrom
        // must be in it (and symmetric-equivalent encodings may join).
        let target = lowpass_target();
        let optima: Vec<u16> = (0..=u16::MAX)
            .filter(|&c| filter_fitness(c, &target) == 65535)
            .collect();
        assert!(optima.contains(&GOLDEN_CHROM));
        assert!(
            optima.len() <= 4,
            "optimum class too large: {}",
            optima.len()
        );
    }
}
