//! The decoded heal word, checked exhaustively against the row
//! evaluator.
//!
//! `HealWords` folds a fault into masks once and selects each cell's
//! function without a branch on its code; `healing_fitness` reads the
//! same datapath. `Vrc::eval`, which walks one input pattern through the
//! cells with a `match` on the fault and on each cell's function, shares
//! none of it. Over every configuration, on every shipped target, the
//! two constant targets, no fault and each of the 48 single-cell faults,
//! the decoded word must equal the rows `Vrc::eval` matches × 4095.

use ga_ehw::{healing_fitness, Fault, HealWords, TruthTable, Vrc, SHIPPED_TARGETS};

/// The truth table `Vrc::eval` gives, one row at a time.
fn rows(vrc: Vrc) -> TruthTable {
    (0..16u8).fold(0, |tt, pattern| {
        tt | (u16::from(vrc.eval(pattern)) << pattern)
    })
}

#[test]
fn decoded_heal_words_match_the_row_evaluator_everywhere() {
    let mut targets: Vec<TruthTable> = SHIPPED_TARGETS
        .iter()
        .map(|&(_, config)| Vrc::new(config).truth_table())
        .collect();
    targets.extend([0x0000, 0xFFFF]);
    let faults: Vec<Option<Fault>> = std::iter::once(None)
        .chain(Fault::all_single_cell().into_iter().map(Some))
        .collect();
    assert_eq!(faults.len(), 49);
    for fault in faults {
        let words: Vec<HealWords> = targets
            .iter()
            .map(|&target| HealWords::new(target, fault))
            .collect();
        for config in 0..=u16::MAX {
            let got = rows(Vrc { config, fault });
            for (&target, words) in targets.iter().zip(&words) {
                let want = (!(got ^ target)).count_ones() as u16 * 4095;
                let (decoded, direct) =
                    (words.word(config), healing_fitness(config, target, fault));
                if (decoded, direct) != (want, want) {
                    panic!(
                        "config {config:#06x} target {target:#06x} fault {fault:?}: \
                         decoded {decoded}, healing_fitness {direct}, rows {want}"
                    );
                }
            }
        }
    }
}
