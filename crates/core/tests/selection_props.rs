//! Prefix-sum selection picks exactly the member the hardware's linear
//! cumulative scan picks. The engines binary-search prefix sums; the
//! cycle-accurate core still scans. Both must agree on every population
//! and every threshold, including populations with zero-fitness members,
//! all-zero populations, and thresholds on the boundary of a hit.

use ga_core::ops;
use proptest::prelude::*;

/// The scan as the core runs it: first member whose running sum is a
/// hit, or `None` when the scan falls through.
fn linear_scan(fits: &[u16], threshold: u32) -> Option<usize> {
    let mut cum = 0u32;
    for (i, &f) in fits.iter().enumerate() {
        cum += f as u32;
        if ops::selection_hit(cum, threshold) {
            return Some(i);
        }
    }
    None
}

fn prefix_of(fits: &[u16]) -> Vec<u32> {
    let mut prefix = Vec::new();
    ops::selection_prefix(fits.iter().copied(), &mut prefix);
    prefix
}

/// Every threshold where the pick can change: just below and at each
/// prefix sum, plus zero and the fitness sum itself.
fn boundary_thresholds(prefix: &[u32]) -> Vec<u32> {
    let mut t: Vec<u32> = prefix
        .iter()
        .flat_map(|&c| [c.saturating_sub(1), c])
        .collect();
    t.push(0);
    t.push(prefix.last().copied().unwrap_or(0));
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Populations of 1–255 members, about a third of them zero-fitness
    /// (a zero member shares its predecessor's prefix sum, so hits land
    /// on runs of equal sums), at every boundary threshold and at the
    /// thresholds the hardware derives from random draws.
    #[test]
    fn prefix_pick_equals_the_linear_scan(
        members in prop::collection::vec((0u16..=u16::MAX, 0u8..3), 1..256),
        draws in prop::collection::vec(0u16..=u16::MAX, 16..17),
    ) {
        let fits: Vec<u16> = members
            .iter()
            .map(|&(f, zero)| if zero == 0 { 0 } else { f })
            .collect();
        let prefix = prefix_of(&fits);
        let sum = *prefix.last().unwrap();
        let drawn = draws.iter().map(|&r| ops::selection_threshold(sum, r));
        for t in boundary_thresholds(&prefix).into_iter().chain(drawn) {
            prop_assert_eq!(
                ops::selection_pick(&prefix, t),
                linear_scan(&fits, t),
                "threshold {} over {} members", t, fits.len()
            );
        }
    }

    /// An all-zero population never hits: both fall through to the
    /// last member.
    #[test]
    fn all_zero_population_falls_through(len in 1usize..256, r in 0u16..=u16::MAX) {
        let fits = vec![0u16; len];
        let prefix = prefix_of(&fits);
        let t = ops::selection_threshold(0, r);
        prop_assert_eq!(ops::selection_pick(&prefix, t), None);
        prop_assert_eq!(linear_scan(&fits, t), None);
    }
}

#[test]
fn single_member_boundaries() {
    let prefix = prefix_of(&[5]);
    assert_eq!(ops::selection_pick(&prefix, 4), Some(0));
    assert_eq!(ops::selection_pick(&prefix, 5), None);
    assert_eq!(ops::selection_pick(&[], 0), None);
}
