//! The genetic operators, bit-exact as the datapath computes them, and
//! the one generation loop that sequences them ([`breed`]).
//!
//! The behavioral engine at both widths and the cycle-accurate core's
//! run windows breed through [`breed`] and draw their initial
//! populations through [`sow`]; the core's FSM calls the operators state
//! by state. So the models can only diverge in *when* they draw random
//! numbers — and the differential tests pin that down too.

/// Proportionate-selection threshold (§III-B.2): the population fitness
/// sum scaled down by a 16-bit random number. In hardware this is a
/// 24×16 multiply whose top bits are kept: `(sum · r) >> 16`, which is
/// always strictly less than `sum` whenever `sum > 0`.
#[inline]
pub fn selection_threshold(fit_sum: u32, r: u16) -> u32 {
    ((fit_sum as u64 * r as u64) >> 16) as u32
}

/// Scan step of proportionate selection: given the running cumulative
/// sum *after* adding the current individual's fitness, does this
/// individual win? (First individual whose fitness pushes the cumulative
/// sum **above** the threshold is selected.)
#[inline]
pub fn selection_hit(cum_sum: u32, threshold: u32) -> bool {
    cum_sum > threshold
}

/// Rebuild `prefix` as the population's cumulative fitness sums:
/// `prefix[i]` is the running sum the selection scan holds after
/// member `i`. The buffer is cleared first, so an engine reuses one
/// allocation across generations.
pub fn selection_prefix(fitness: impl IntoIterator<Item = u16>, prefix: &mut Vec<u32>) {
    prefix.clear();
    let mut cum = 0u32;
    prefix.extend(fitness.into_iter().map(|f| {
        cum += f as u32;
        cum
    }));
}

/// The member the selection scan picks, found by binary search over
/// [`selection_prefix`] sums: the first index whose cumulative sum is a
/// [`selection_hit`]. The sums never decrease and the hit test is a
/// strict `>`, so this is the scan's choice bit for bit, in O(log pop)
/// instead of O(pop). `None` means nothing hits (an all-zero
/// population); the scan then falls through to the last member.
#[inline]
pub fn selection_pick(prefix: &[u32], threshold: u32) -> Option<usize> {
    let k = prefix.partition_point(|&cum| !selection_hit(cum, threshold));
    (k < prefix.len()).then_some(k)
}

/// Single-point crossover mask for cut point `n ∈ 0..=15`: ones in bit
/// positions `0..n`, zeros above (§III-B.3: "a mask is generated with 1s
/// from position 0 to n−1 and 0s after n").
#[inline]
pub fn crossover_mask(cut: u8) -> u16 {
    debug_assert!(cut < 16);
    // cut == 0 gives an empty mask: offspring1 == parent2 entirely.
    ((1u32 << cut) - 1) as u16
}

/// Single-point crossover: returns the two offspring (Fig. 3).
/// `off1` takes parent 1's low `cut` bits and parent 2's high bits;
/// `off2` is the complement.
#[inline]
pub fn crossover(p1: u16, p2: u16, cut: u8) -> (u16, u16) {
    let m = crossover_mask(cut);
    ((p1 & m) | (p2 & !m), (p1 & !m) | (p2 & m))
}

/// Single-bit mutation (§III-B.4): XOR with a one-hot mask at the
/// mutation point.
#[inline]
pub fn mutate(chrom: u16, point: u8) -> u16 {
    debug_assert!(point < 16);
    chrom ^ (1u16 << point)
}

/// Threshold comparison used for both crossover and mutation decisions:
/// the operator fires when a fresh 4-bit draw is **less than** the
/// programmed threshold, so threshold/16 is the firing probability
/// (threshold 0 never fires, 15 fires with probability 15/16).
#[inline]
pub fn decision(draw4: u8, threshold: u8) -> bool {
    (draw4 & 0xF) < (threshold & 0xF)
}

/// Crossover fields extracted from **one** 16-bit draw: decision nibble
/// from bits \[3:0\], cut point from bits \[7:4\].
///
/// §III-B.7: "Based on the number of random bits needed, the GA selects
/// the bits from predefined positions." Taking both fields from a single
/// draw is not just a cycle saving — it is statistically load-bearing
/// for a CA PRNG. Over the full period of a maximal-length CA every
/// 16-bit state occurs exactly once, so two disjoint bit fields of the
/// *same* draw are exactly jointly uniform. Fields taken from
/// *consecutive* draws are not: the rule-90/150 update is local, so
/// after conditioning on "low nibble = 0" (a successful mutation
/// decision at the paper's rate 1/16) the next state's low nibble is
/// almost deterministic — an early version of this model could only
/// ever flip chromosome bits 0 and 8, and the GA measurably stalled on
/// Test Function F3.
#[inline]
pub fn xover_fields(draw: u16) -> (u8, u8) {
    ((draw & 0xF) as u8, ((draw >> 4) & 0xF) as u8)
}

/// Mutation fields from one 16-bit draw: decision nibble from bits
/// \[3:0\], mutation point from bits \[11:8\] (see [`xover_fields`] for
/// why the fields share a draw).
#[inline]
pub fn mut_fields(draw: u16) -> (u8, u8) {
    ((draw & 0xF) as u8, ((draw >> 8) & 0xF) as u8)
}

/// How the 4-bit operator fields are extracted from RNG draws — an
/// ablation axis (see [`xover_fields`] for why the shared draw is the
/// correct design for a CA PRNG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FieldMode {
    /// One 16-bit draw carries both the decision nibble and the
    /// cut/mutation point from disjoint predefined positions (the
    /// paper's "bits from predefined positions"; provably jointly
    /// uniform over the CA's full period). The hardware behaviour.
    #[default]
    SharedDraw,
    /// Decision and point come from the low nibbles of *consecutive*
    /// draws — the naive design. With a rule-90/150 CA this conditions
    /// the point on the decision through the local update and visibly
    /// cripples mutation (kept for the ablation study).
    ConsecutiveDraws,
}

/// Where the generation loop's random numbers come from ([`breed`]):
/// a closure returning the RNG's next output, whose operators take
/// both fields from one draw, or [`Consecutive`].
pub trait Draws {
    /// The RNG's next output.
    fn draw(&mut self) -> u16;

    /// One operator's `(decision, point)` fields: `shared` splits a
    /// single draw ([`xover_fields`] or [`mut_fields`]).
    #[inline]
    fn fields(&mut self, shared: fn(u16) -> (u8, u8)) -> (u8, u8) {
        shared(self.draw())
    }
}

impl<D: FnMut() -> u16> Draws for D {
    #[inline]
    fn draw(&mut self) -> u16 {
        self()
    }
}

/// The [`FieldMode::ConsecutiveDraws`] ablation: each operator's
/// decision and point come from the low nibbles of two draws.
pub struct Consecutive<D>(pub D);

impl<D: FnMut() -> u16> Draws for Consecutive<D> {
    #[inline]
    fn draw(&mut self) -> u16 {
        (self.0)()
    }

    #[inline]
    fn fields(&mut self, _: fn(u16) -> (u8, u8)) -> (u8, u8) {
        let decision = (self.draw() & 0xF) as u8;
        (decision, (self.draw() & 0xF) as u8)
    }
}

/// `XoverDecide`'s datapath: the offspring pair of `parents` under the
/// crossover fields `(decision, cut)` and `threshold`.
#[inline]
pub fn crossed(parents: [u16; 2], (xd, cut): (u8, u8), threshold: u8) -> [u16; 2] {
    if decision(xd, threshold) {
        let (o1, o2) = crossover(parents[0], parents[1], cut);
        [o1, o2]
    } else {
        parents
    }
}

/// `MutDecide`'s datapath: `chrom` under the mutation fields
/// `(decision, point)` and `threshold`.
#[inline]
pub fn mutated(chrom: u16, (md, point): (u8, u8), threshold: u8) -> u16 {
    if decision(md, threshold) {
        mutate(chrom, point)
    } else {
        chrom
    }
}

/// Breed `offspring` new members (Fig. 2's inner loop). Per pair: two
/// parent selections, each handing `select` its threshold draw and
/// taking the parent's chromosome back; one crossover draw; then one
/// mutation draw for each offspring the new population has room for,
/// so an odd remainder breeds a pair and keeps its first offspring.
/// `sink` takes each offspring in order. `draws` is the draw source,
/// monomorphised per field mode, and `thresholds` are the crossover and
/// mutation thresholds. Returns the last pair's parents and offspring,
/// each offspring mutated if the new population took it: what the
/// datapath's parent and offspring registers hold.
#[inline]
pub fn breed(
    offspring: usize,
    (xover_threshold, mut_threshold): (u8, u8),
    mut draws: impl Draws,
    mut select: impl FnMut(u16) -> u16,
    mut sink: impl FnMut(u16),
) -> ([u16; 2], [u16; 2]) {
    let mut pair = ([0; 2], [0; 2]);
    let mut bred = 0;
    while bred < offspring {
        let p1 = select(draws.draw());
        let p2 = select(draws.draw());
        let xover = draws.fields(xover_fields);
        let [mut o1, mut o2] = crossed([p1, p2], xover, xover_threshold);
        o1 = mutated(o1, draws.fields(mut_fields), mut_threshold);
        sink(o1);
        bred += 1;
        if bred < offspring {
            o2 = mutated(o2, draws.fields(mut_fields), mut_threshold);
            sink(o2);
            bred += 1;
        }
        pair = ([p1, p2], [o1, o2]);
    }
    pair
}

/// The initial population's chromosomes (Fig. 2, step 1), replacing
/// `chroms`: one `draw` per member, in member order.
pub fn sow(members: usize, chroms: &mut Vec<u16>, mut draw: impl FnMut() -> u16) {
    chroms.clear();
    chroms.extend((0..members).map(|_| draw()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_strictly_below_sum() {
        for sum in [1u32, 100, 65535, 128 * 65535] {
            for r in [0u16, 1, 0x8000, 0xFFFF] {
                assert!(selection_threshold(sum, r) < sum, "sum={sum} r={r}");
            }
        }
        assert_eq!(selection_threshold(0, 0xFFFF), 0);
    }

    #[test]
    fn threshold_scales_linearly() {
        // r = 0x8000 is exactly half.
        assert_eq!(selection_threshold(1000, 0x8000), 500);
        assert_eq!(selection_threshold(1 << 20, 0x4000), 1 << 18);
    }

    #[test]
    fn crossover_paper_example() {
        // Fig. 3: parents 1010_1010_1010_1010 and 0101_0101_0101_0101
        // with the cut in the middle swap halves exactly.
        let p1 = 0b1010_1010_1010_1010u16;
        let p2 = 0b0101_0101_0101_0101u16;
        let (o1, o2) = crossover(p1, p2, 8);
        assert_eq!(o1, 0b0101_0101_1010_1010);
        assert_eq!(o2, 0b1010_1010_0101_0101);
    }

    #[test]
    fn crossover_offspring_are_complementary() {
        for cut in 0..16u8 {
            let (o1, o2) = crossover(0xF0F0, 0x1234, cut);
            // Each bit position comes from exactly one parent in each
            // offspring, and the two offspring take opposite parents.
            assert_eq!(o1 ^ o2, 0xF0F0 ^ 0x1234);
            assert_eq!(o1 & crossover_mask(cut), 0xF0F0 & crossover_mask(cut));
            assert_eq!(o2 & crossover_mask(cut), 0x1234 & crossover_mask(cut));
        }
    }

    #[test]
    fn crossover_extremes() {
        // cut 0: offspring1 is entirely parent 2.
        assert_eq!(crossover(0xAAAA, 0x5555, 0), (0x5555, 0xAAAA));
        // cut 15: only the top bit comes from parent 2.
        let (o1, _) = crossover(0xFFFF, 0x0000, 15);
        assert_eq!(o1, 0x7FFF);
    }

    #[test]
    fn mask_shape() {
        assert_eq!(crossover_mask(0), 0x0000);
        assert_eq!(crossover_mask(1), 0x0001);
        assert_eq!(crossover_mask(8), 0x00FF);
        assert_eq!(crossover_mask(15), 0x7FFF);
    }

    #[test]
    fn mutation_flips_exactly_one_bit() {
        for point in 0..16u8 {
            let m = mutate(0x0000, point);
            assert_eq!(m.count_ones(), 1);
            assert_eq!(mutate(m, point), 0, "mutation is an involution");
        }
    }

    #[test]
    fn decision_rates() {
        // threshold 0 never fires; threshold 15 fires 15/16 of draws.
        for d in 0..16u8 {
            assert!(!decision(d, 0));
        }
        let fires = (0..16u8).filter(|&d| decision(d, 15)).count();
        assert_eq!(fires, 15);
        let fires10 = (0..16u8).filter(|&d| decision(d, 10)).count();
        assert_eq!(fires10, 10, "threshold 10 = rate 0.625 (the paper's XR=10)");
    }

    #[test]
    fn selection_hit_is_strict() {
        assert!(!selection_hit(5, 5));
        assert!(selection_hit(6, 5));
    }

    #[test]
    fn field_extraction_positions() {
        let draw = 0b1010_0110_1100_0011u16;
        assert_eq!(xover_fields(draw), (0b0011, 0b1100));
        assert_eq!(mut_fields(draw), (0b0011, 0b0110));
    }

    #[test]
    fn mutation_point_uniform_given_decision_over_full_ca_period() {
        // The property the shared-draw design buys: conditioned on the
        // mutation decision firing (low nibble < threshold), the
        // mutation point field is still uniform over 0..16 across the
        // CA's full period.
        use carng::{CaRng, Rng16};
        let mut rng = CaRng::new(1);
        let mut counts = [0u32; 16];
        for _ in 0..65535 {
            let d = rng.next_u16();
            let (dec, point) = mut_fields(d);
            if decision(dec, 1) {
                counts[point as usize] += 1;
            }
        }
        let total: u32 = counts.iter().sum();
        assert!(total > 3500, "≈ 65535/16 decisions expected, got {total}");
        for (p, &c) in counts.iter().enumerate() {
            let frac = c as f64 / total as f64;
            assert!(
                (frac - 1.0 / 16.0).abs() < 0.01,
                "mutation point {p} has probability {frac:.4}"
            );
        }
    }
}
