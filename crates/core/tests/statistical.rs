//! Statistical properties of the genetic operators, measured over long
//! CA-RNG streams — the §II-A contract ("highly fit individuals have a
//! selection probability that is proportional to their fitness").

use carng::{CaRng, Rng16};
use ga_core::ops;

/// One proportionate selection over a fitness vector, through the
/// engines' prefix-sum pick.
fn select_index(fits: &[u16], fit_sum: u32, r: u16) -> usize {
    let mut prefix = Vec::new();
    ops::selection_prefix(fits.iter().copied(), &mut prefix);
    ops::selection_pick(&prefix, ops::selection_threshold(fit_sum, r)).unwrap_or(fits.len() - 1)
}

#[test]
fn selection_frequency_is_proportional_to_fitness() {
    // A population with 1:2:4:8 fitness ratios.
    let fits = [1000u16, 2000, 4000, 8000];
    let fit_sum: u32 = fits.iter().map(|&f| f as u32).sum();
    let mut rng = CaRng::new(0x2961);
    let trials = 60_000u32;
    let mut counts = [0u32; 4];
    for _ in 0..trials {
        counts[select_index(&fits, fit_sum, rng.next_u16())] += 1;
    }
    for (i, &f) in fits.iter().enumerate() {
        let expected = f as f64 / fit_sum as f64;
        let measured = counts[i] as f64 / trials as f64;
        assert!(
            (measured - expected).abs() < 0.01,
            "individual {i}: measured {measured:.4}, expected {expected:.4}"
        );
    }
}

#[test]
fn zero_fitness_individuals_are_never_selected_mid_population() {
    // A zero-fitness individual can only win as the last-index fallback.
    let fits = [0u16, 5000, 0, 5000];
    let fit_sum = 10_000u32;
    let mut rng = CaRng::new(0x061F);
    for _ in 0..20_000 {
        let idx = select_index(&fits, fit_sum, rng.next_u16());
        assert!(idx == 1 || idx == 3, "selected zero-fitness index {idx}");
    }
}

#[test]
fn crossover_rate_matches_threshold_over_the_full_period() {
    // Exact rate over one full CA period: threshold/16 of all draws.
    for threshold in [0u8, 1, 8, 10, 15] {
        let mut rng = CaRng::new(1);
        let mut fired = 0u32;
        for _ in 0..65_535 {
            let (d, _) = ops::xover_fields(rng.next_u16());
            if ops::decision(d, threshold) {
                fired += 1;
            }
        }
        // Over the full period every 16-bit value appears once, so the
        // count is exactly threshold/16 of 65535 (±1 for the missing
        // all-zero state).
        let expected = threshold as u32 * 65_536 / 16;
        let diff = fired.abs_diff(expected);
        assert!(
            diff <= 1 + threshold as u32,
            "threshold {threshold}: fired {fired}, expected {expected}"
        );
    }
}

#[test]
fn crossover_cut_points_uniform_over_full_period() {
    let mut rng = CaRng::new(0xB342);
    let mut counts = [0u32; 16];
    for _ in 0..65_535 {
        let (_, cut) = ops::xover_fields(rng.next_u16());
        counts[cut as usize] += 1;
    }
    for (cut, &c) in counts.iter().enumerate() {
        // Each 4-bit field value appears 4096 times per period (4095
        // once, for the field containing the missing zero state).
        assert!((4095..=4096).contains(&c), "cut {cut} occurred {c} times");
    }
}

#[test]
fn offspring_preserve_allele_origin() {
    // Population-genetics sanity: over many random crossovers, each
    // offspring bit equals one of the parents' bits at that position.
    let mut rng = CaRng::new(0xAAAA);
    for _ in 0..10_000 {
        let p1 = rng.next_u16();
        let p2 = rng.next_u16();
        let (_, cut) = ops::xover_fields(rng.next_u16());
        let (o1, o2) = ops::crossover(p1, p2, cut);
        for bit in 0..16 {
            let m = 1u16 << bit;
            assert!(o1 & m == p1 & m || o1 & m == p2 & m);
            assert!(o2 & m == p1 & m || o2 & m == p2 & m);
        }
    }
}
