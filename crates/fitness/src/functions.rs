//! The paper's six maximization test functions.
//!
//! All chromosomes are 16 bits. Single-variable functions decode the
//! full word (`x ∈ 0..=65535`); two-variable functions split it into
//! `x = chrom[15:8]` and `y = chrom[7:0]` (the paper: "the two variable
//! experiments have equal ranges (0 to 255)"). Arguments to the
//! trigonometric functions are **integer radians**, as in Haupt & Haupt.
//!
//! Fitness values are unsigned 16-bit. The `f64` reference forms are
//! quantized by round-and-saturate; the saturation is semantically
//! important for mShubert2D, where the plateau of inputs whose scaled
//! value exceeds 65535 forms the set of "global optimal solutions" the
//! paper counts (it reports 48; exhaustive enumeration of this
//! implementation finds 166 — both of the paper's named optima,
//! (x₁,x₂) = (C2,4A)₁₆ and (DB,4A)₁₆, lie on the plateau; see
//! EXPERIMENTS.md).
//!
//! mBF7_2 and mShubert2D are sums and products of one term per 8-bit
//! coordinate, so each term takes only 256 values. Those terms are
//! tabulated once per process (three `[f64; 256]` tables, 6 KB) by the
//! printed f64 expressions, and evaluation reads them and combines them
//! with the printed arithmetic — every result is bit-identical to
//! evaluating the formula directly, at a few table reads per call.
//!
//! BF6 and mBF6_2 take the full 16-bit word, so their `cos(x)` has no
//! coordinate split. Their words ([`TestFunction::eval_u16`]) read it
//! from the angle-sum identity instead: with x = 256·h + l,
//! `cos(x) = cos(256h)·cos(l) − sin(256h)·sin(l)`, whose four factors
//! come from two 256-entry `(cos, sin)` tables (8 KB) built once per
//! process. The table cosine is within 2.3e-16 of `f64::cos` at every x,
//! so a word's value moves by at most 2e-12, while no value lies closer
//! than 2.9e-6 to a rounding boundary: every word equals `quantize` of
//! the printed formula (checked at all 65 536 words in
//! `tests/lookup_fem.rs`). [`bf6`] and [`mbf6_2`], the `f64` reference,
//! still call `cos` directly.

use std::sync::LazyLock;

/// Decode a 16-bit chromosome into two 8-bit variables `(x, y)`:
/// x = high byte, y = low byte.
#[inline]
pub fn decode_xy(chrom: u16) -> (u8, u8) {
    ((chrom >> 8) as u8, (chrom & 0xFF) as u8)
}

/// Encode two 8-bit variables into a 16-bit chromosome.
#[inline]
pub fn encode_xy(x: u8, y: u8) -> u16 {
    ((x as u16) << 8) | y as u16
}

/// Round-and-saturate an `f64` fitness into the 16-bit fitness bus.
/// Rounding is half away from zero, as `f64::round`, but computed from
/// the truncation and its exact remainder, so no libm call is made.
#[inline]
pub fn quantize(v: f64) -> u16 {
    if v.is_nan() {
        return 0;
    }
    let v = v.clamp(0.0, 65535.0);
    let whole = v as u16;
    whole + u16::from(v - f64::from(whole) >= 0.5)
}

/// Test Function #1 (§IV-A): Binary F6,
/// `BF6(x) = ((x² + x)·cos(x)/4 000 000) + 3200`.
/// "A very difficult test function that has numerous local maxima."
pub fn bf6(x: u16) -> f64 {
    bf6_at(x, (x as f64).cos())
}

/// [`bf6`]'s printed expression, given `cos(x)`.
fn bf6_at(x: u16, cos_x: f64) -> f64 {
    let xf = x as f64;
    ((xf * xf + xf) * cos_x / 4_000_000.0) + 3200.0
}

/// Test Function #2 (§IV-A): the mini-max function
/// `F2(x, y) = 8x − 4y + 1020` (maximize x, minimize y; optimum 3060).
pub fn f2(x: u8, y: u8) -> f64 {
    8.0 * x as f64 - 4.0 * y as f64 + 1020.0
}

/// Test Function #3 (§IV-A): the maxi-max function
/// `F3(x, y) = 8x + 4y` (maximize both; optimum 3060).
pub fn f3(x: u8, y: u8) -> f64 {
    8.0 * x as f64 + 4.0 * y as f64
}

/// Modified and scaled Binary F6 (§IV-B):
/// `mBF6_2(x) = 4096 + ((x² + x)·cos(x))/2^20`.
pub fn mbf6_2(x: u16) -> f64 {
    mbf6_2_at(x, (x as f64).cos())
}

/// [`mbf6_2`]'s printed expression, given `cos(x)`.
fn mbf6_2_at(x: u16, cos_x: f64) -> f64 {
    let xf = x as f64;
    4096.0 + (xf * xf + xf) * cos_x / (1u64 << 20) as f64
}

/// `(cos a, sin a)` for 256 evenly spaced integer angles a.
type AngleTable = [(f64, f64); 256];

/// `(cos, sin)` of 256·h for every high byte h, then of l for every low
/// byte l: the factors of [`table_cos`]. Filled in place on the heap, so
/// the one-time build leaves no 8 KB temporaries on a worker's stack.
static ANGLES: LazyLock<Box<[AngleTable; 2]>> = LazyLock::new(|| {
    let mut tables = Box::new([[(0.0, 0.0); 256]; 2]);
    for (table, step) in tables.iter_mut().zip([256.0, 1.0]) {
        for (k, entry) in table.iter_mut().enumerate() {
            let a: f64 = step * k as f64;
            *entry = (a.cos(), a.sin());
        }
    }
    tables
});

/// `cos(x)` for a 16-bit integer radian x = 256·h + l, by the angle-sum
/// identity over the [`ANGLES`] tables.
#[inline]
fn table_cos(x: u16) -> f64 {
    let (h, l) = decode_xy(x);
    let [hi, lo] = &**ANGLES;
    let (cos_h, sin_h) = hi[h as usize];
    let (cos_l, sin_l) = lo[l as usize];
    cos_h * cos_l - sin_h * sin_l
}

/// mBF7_2's x term `x·sin(4x)` for every 8-bit x.
static MBF7_2_X: LazyLock<[f64; 256]> = LazyLock::new(|| {
    std::array::from_fn(|x| {
        let xf = x as f64;
        xf * (4.0 * xf).sin()
    })
});

/// mBF7_2's y term `1.25·y·sin(2y)` for every 8-bit y.
static MBF7_2_Y: LazyLock<[f64; 256]> = LazyLock::new(|| {
    std::array::from_fn(|y| {
        let yf = y as f64;
        1.25 * yf * (2.0 * yf).sin()
    })
});

/// [`shubert1d`] at every 8-bit coordinate.
static SHUBERT1D: LazyLock<[f64; 256]> =
    LazyLock::new(|| std::array::from_fn(|v| shubert1d(v as f64)));

/// Modified Binary F7 (§IV-B):
/// `mBF7_2(x, y) = 32768 + 56·(x·sin(4x) + 1.25·y·sin(2y))`, with each
/// coordinate's term read from its table.
pub fn mbf7_2(x: u8, y: u8) -> f64 {
    32768.0 + 56.0 * (MBF7_2_X[x as usize] + MBF7_2_Y[y as usize])
}

/// The 1-D Shubert sum `Σ_{i=1..5} i·cos((i+1)·x + i)`.
pub fn shubert1d(x: f64) -> f64 {
    (1..=5)
        .map(|i| i as f64 * ((i as f64 + 1.0) * x + i as f64).cos())
        .sum()
}

/// Modified 2-D Shubert function (§IV-B):
/// `mShubert2D(x₁, x₂) = 65535 − 174·(150 + Π_{k=1,2} Σ_{i=1..5} i·cos((i+1)·x_k + i))`,
/// evaluated with saturating 16-bit output; each coordinate's sum is
/// read from its table.
pub fn mshubert2d(x1: u8, x2: u8) -> f64 {
    let s = SHUBERT1D[x1 as usize] * SHUBERT1D[x2 as usize];
    65535.0 - 174.0 * (150.0 + s)
}

/// The test-function catalog: everything the bench harness and the FEM
/// bank need to know about one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestFunction {
    /// Binary F6 (RT-level, Table V rows 1–5).
    Bf6,
    /// Mini-max F2 (RT-level, Table V rows 6–9).
    F2,
    /// Maxi-max F3 (RT-level, Table V row 10).
    F3,
    /// Modified/scaled Binary F6 (hardware, Table VII).
    Mbf6_2,
    /// Modified Binary F7 (hardware, Table VIII).
    Mbf7_2,
    /// Modified 2-D Shubert (hardware, Table IX).
    MShubert2D,
}

impl TestFunction {
    /// All six functions in paper order.
    pub const ALL: [TestFunction; 6] = [
        TestFunction::Bf6,
        TestFunction::F2,
        TestFunction::F3,
        TestFunction::Mbf6_2,
        TestFunction::Mbf7_2,
        TestFunction::MShubert2D,
    ];

    /// Name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            TestFunction::Bf6 => "BF6",
            TestFunction::F2 => "F2",
            TestFunction::F3 => "F3",
            TestFunction::Mbf6_2 => "mBF6_2",
            TestFunction::Mbf7_2 => "mBF7_2",
            TestFunction::MShubert2D => "mShubert2D",
        }
    }

    /// Reference (`f64`) evaluation of a 16-bit chromosome.
    pub fn eval_f64(self, chrom: u16) -> f64 {
        match self {
            TestFunction::Bf6 => bf6(chrom),
            TestFunction::Mbf6_2 => mbf6_2(chrom),
            TestFunction::F2 => {
                let (x, y) = decode_xy(chrom);
                f2(x, y)
            }
            TestFunction::F3 => {
                let (x, y) = decode_xy(chrom);
                f3(x, y)
            }
            TestFunction::Mbf7_2 => {
                let (x, y) = decode_xy(chrom);
                mbf7_2(x, y)
            }
            TestFunction::MShubert2D => {
                let (x1, x2) = decode_xy(chrom);
                mshubert2d(x1, x2)
            }
        }
    }

    /// ROM-form (quantized u16) evaluation — what the block-ROM lookup
    /// FEM stores for this chromosome: [`quantize`] of
    /// [`TestFunction::eval_f64`]. F2 and F3 are exact integers in
    /// 0..=3060, so they are computed in integers, with nothing to round
    /// or clamp. BF6 and mBF6_2 quantize their printed expression with
    /// `cos(x)` read from the angle tables (see the module doc), which
    /// gives the same word at every chromosome.
    pub fn eval_u16(self, chrom: u16) -> u16 {
        let (x, y) = decode_xy(chrom);
        let (x, y) = (u16::from(x), u16::from(y));
        match self {
            TestFunction::F2 => 8 * x + 1020 - 4 * y,
            TestFunction::F3 => 8 * x + 4 * y,
            _ => quantize(self.word_value(chrom)),
        }
    }

    /// The value a floating-point function's word rounds: the printed
    /// formula, with BF6's and mBF6_2's `cos(x)` read from the angle
    /// tables. Kept out of line so the integer F2/F3 words stay a leaf.
    #[inline(never)]
    fn word_value(self, chrom: u16) -> f64 {
        let (x, y) = decode_xy(chrom);
        match self {
            TestFunction::Bf6 => bf6_at(chrom, table_cos(chrom)),
            TestFunction::Mbf6_2 => mbf6_2_at(chrom, table_cos(chrom)),
            TestFunction::Mbf7_2 => mbf7_2(x, y),
            TestFunction::MShubert2D => mshubert2d(x, y),
            TestFunction::F2 | TestFunction::F3 => self.eval_f64(chrom),
        }
    }

    /// 32-bit split evaluation for the ganged dual-core system (§III-D):
    /// the shared fitness module sees the concatenated `{MSB, LSB}`
    /// candidate and scores each 16-bit half with the ROM-form function,
    /// averaging so the result still fits the 16-bit fitness bus. The
    /// same shape as the split-threshold algebra of `ga_core::scaling` —
    /// each half contributes independently, matching the per-half
    /// operator rates.
    pub fn eval_u32_split(self, chrom: u32) -> u16 {
        let msb = (chrom >> 16) as u16;
        let lsb = (chrom & 0xFFFF) as u16;
        ((self.eval_u16(msb) as u32 + self.eval_u16(lsb) as u32) / 2) as u16
    }

    /// Globally maximal quantized fitness, by exhaustive enumeration.
    pub fn global_max(self) -> u16 {
        (0..=u16::MAX).map(|c| self.eval_u16(c)).max().unwrap()
    }

    /// One chromosome achieving the global maximum (lowest such encoding).
    pub fn global_argmax(self) -> u16 {
        let best = self.global_max();
        (0..=u16::MAX).find(|&c| self.eval_u16(c) == best).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_encode_roundtrip() {
        for chrom in [0u16, 0xFFFF, 0x1234, 0xAB00, 0x00CD] {
            let (x, y) = decode_xy(chrom);
            assert_eq!(encode_xy(x, y), chrom);
        }
    }

    #[test]
    fn quantize_saturates_and_rounds() {
        assert_eq!(quantize(-5.0), 0);
        assert_eq!(quantize(0.49), 0);
        assert_eq!(quantize(0.5), 1);
        assert_eq!(quantize(65534.6), 65535);
        assert_eq!(quantize(1e9), 65535);
        assert_eq!(quantize(f64::NAN), 0);
    }

    #[test]
    fn quantize_equals_round_then_clamp() {
        // Every quarter step from below 0 to above 65535, one ULP either
        // side of each, and the values no fitness reaches.
        let reference = |v: f64| v.round().clamp(0.0, 65535.0) as u16;
        for k in -2..=65_537 {
            for base in [0.0, 0.25, 0.5, 0.75].map(|q| f64::from(k) + q) {
                for v in [base.next_down(), base, base.next_up()] {
                    assert_eq!(quantize(v), reference(v), "{v:e}");
                }
            }
        }
        for v in [-0.0, f64::MIN, f64::MAX, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(quantize(v), reference(v), "{v:e}");
        }
    }

    #[test]
    fn u32_split_averages_the_halves() {
        for f in TestFunction::ALL {
            // Equal halves: the average IS the half's score.
            assert_eq!(f.eval_u32_split(0x1234_1234), f.eval_u16(0x1234));
            // Mixed halves: the integer mean of the two half scores.
            let want = ((f.eval_u16(0xFFFF) as u32 + f.eval_u16(0x0000) as u32) / 2) as u16;
            assert_eq!(f.eval_u32_split(0xFFFF_0000), want);
        }
    }

    #[test]
    fn bf6_optimum_matches_paper() {
        // Paper: "exactly one global maxima with a value of 4271 when
        // x = 65522". Exhaustive evaluation of the formula as printed
        // gives 4272 at x = 65521 — a one-ULP disagreement in both value
        // and argument that we attribute to the authors' fixed-point
        // tabulation; we assert our exhaustive ground truth.
        assert_eq!(TestFunction::Bf6.global_max(), 4272);
        assert_eq!(TestFunction::Bf6.global_argmax(), 65521);
        // At the paper's claimed argument the printed formula gives a
        // visibly lower value (3830): the paper's x = 65522 is an
        // off-by-one — the true peak (matching their 4271 ± 1 value) is
        // one step to the left.
        assert_eq!(TestFunction::Bf6.eval_u16(65522), 3830);
    }

    #[test]
    fn f2_optimum_is_minimax() {
        // Maximize x, minimize y.
        assert_eq!(TestFunction::F2.global_max(), 3060);
        let best = TestFunction::F2.global_argmax();
        let (x, y) = decode_xy(best);
        assert_eq!((x, y), (255, 0));
        // Worst case is non-negative (no signed wrap in the ROM).
        assert_eq!(TestFunction::F2.eval_u16(encode_xy(0, 255)), 0);
    }

    #[test]
    fn f3_optimum_is_maximax() {
        assert_eq!(TestFunction::F3.global_max(), 3060);
        let (x, y) = decode_xy(TestFunction::F3.global_argmax());
        assert_eq!((x, y), (255, 255));
    }

    #[test]
    fn mbf6_2_optimum_matches_paper() {
        // Paper: single global optimum at x = 65521 with value 8183; the
        // formula as printed gives 8184 at the same x (rounding).
        assert_eq!(TestFunction::Mbf6_2.global_argmax(), 65521);
        let max = TestFunction::Mbf6_2.global_max();
        assert!((8183..=8184).contains(&max), "max = {max}");
        // The paper's best-found-by-GA solution evaluates close to its
        // reported fitness of 8135.
        let found = TestFunction::Mbf6_2.eval_u16(65345);
        assert!((8130..=8140).contains(&found), "fitness(65345) = {found}");
    }

    #[test]
    fn mbf7_2_optimum_argmax_matches_paper() {
        // Paper: single optimum at x = 247, y = 249 valued 63904. The
        // printed formula gives the same argmax with value 63995.
        let best = TestFunction::Mbf7_2.global_argmax();
        assert_eq!(decode_xy(best), (247, 249));
        let max = TestFunction::Mbf7_2.global_max();
        assert!((63900..=64000).contains(&max), "max = {max}");
        // The paper's best-found candidate 0xECFF ⇒ (x,y) = (EC,FF)₁₆.
        // (Its reported fitness 61496 for y=FF,x=EC.)
        let v = TestFunction::Mbf7_2.eval_u16(0xECFF);
        assert!(v > 60_000, "fitness(ECFF) = {v}");
    }

    #[test]
    fn mshubert_plateau_contains_papers_optima() {
        assert_eq!(TestFunction::MShubert2D.global_max(), 65535);
        // Both globally optimal solutions the paper reports finding:
        // (x1,y1) = (C2,4A) and (x2,y2) = (DB,4A).
        assert_eq!(
            TestFunction::MShubert2D.eval_u16(encode_xy(0xC2, 0x4A)),
            65535
        );
        assert_eq!(
            TestFunction::MShubert2D.eval_u16(encode_xy(0xDB, 0x4A)),
            65535
        );
    }

    #[test]
    fn mshubert_plateau_count() {
        // The paper reports 48 global optima; the printed formula with
        // u16 saturation yields a plateau of 166 encodings. Assert the
        // measured count so any change to the formula is caught.
        let count = (0..=u16::MAX)
            .filter(|&c| TestFunction::MShubert2D.eval_u16(c) == 65535)
            .count();
        assert_eq!(count, 166);
    }

    #[test]
    fn all_functions_fit_u16_everywhere() {
        for f in TestFunction::ALL {
            for c in (0..=u16::MAX).step_by(97) {
                let v = f.eval_f64(c);
                assert!(!v.is_nan());
                let _ = f.eval_u16(c); // must not panic
            }
        }
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = TestFunction::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names, ["BF6", "F2", "F3", "mBF6_2", "mBF7_2", "mShubert2D"]);
    }

    #[test]
    fn tabulated_functions_equal_the_printed_formulas_bit_for_bit() {
        for c in 0..=u16::MAX {
            let (x, y) = decode_xy(c);
            let (xf, yf) = (x as f64, y as f64);
            let mbf7 = 32768.0 + 56.0 * (xf * (4.0 * xf).sin() + 1.25 * yf * (2.0 * yf).sin());
            assert_eq!(
                TestFunction::Mbf7_2.eval_f64(c).to_bits(),
                mbf7.to_bits(),
                "mBF7_2({c:#06x})"
            );
            let shubert = |v: f64| -> f64 {
                (1..=5)
                    .map(|i| i as f64 * ((i as f64 + 1.0) * v + i as f64).cos())
                    .sum()
            };
            let msh = 65535.0 - 174.0 * (150.0 + shubert(xf) * shubert(yf));
            assert_eq!(
                TestFunction::MShubert2D.eval_f64(c).to_bits(),
                msh.to_bits(),
                "mShubert2D({c:#06x})"
            );
        }
    }

    #[test]
    fn shubert1d_range_sanity() {
        // The 1-D Shubert sum is bounded by Σi = 15 in magnitude.
        for x in 0..=255 {
            let s = shubert1d(x as f64);
            assert!(s.abs() <= 15.0 + 1e-9);
        }
    }
}
