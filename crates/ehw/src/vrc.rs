//! The virtual reconfigurable circuit and its fault model.
//!
//! Topology (fixed routing, function-programmable cells — the standard
//! VRC construction):
//!
//! ```text
//! inputs a b c d
//!   layer 1: cell0(a,b)  cell1(b,c)  cell2(c,d)  cell3(d,a) → w x y z
//!   layer 2: cell4(w,x)  cell5(y,z)                         → u v
//!   layer 3: cell6(u,v)                                     → t
//!   output : cell7 post-processor on (t, u)                 → out
//! ```
//!
//! Each of the 8 cells takes a 2-bit function code (AND / OR / XOR /
//! NAND — a functionally complete set), so a full configuration is
//! exactly the GA core's 16-bit chromosome.
//!
//! Two evaluators share no code. [`Vrc::eval`] walks one input pattern
//! through the cells, matching on the fault and on each cell's code: the
//! reference. [`Vrc::truth_table`], [`healing_fitness`] and
//! [`HealWords`] compute all 16 rows at once on a fabric whose fault is
//! decoded into masks, each cell selecting its function with no branch
//! on its code. A heal job decodes its fault once ([`HealWords`]) and
//! reads every word it evaluates from that.

/// Cell function codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CellFn {
    /// `00`: AND.
    And = 0,
    /// `01`: OR.
    Or = 1,
    /// `10`: XOR.
    Xor = 2,
    /// `11`: NAND.
    Nand = 3,
}

impl CellFn {
    /// Every cell function, code order.
    pub const ALL: [CellFn; 4] = [CellFn::And, CellFn::Or, CellFn::Xor, CellFn::Nand];

    /// Decode a 2-bit code.
    pub fn from_code(code: u8) -> Self {
        match code & 0b11 {
            0 => CellFn::And,
            1 => CellFn::Or,
            2 => CellFn::Xor,
            _ => CellFn::Nand,
        }
    }

    /// Apply the function.
    pub fn apply(self, a: bool, b: bool) -> bool {
        match self {
            CellFn::And => a & b,
            CellFn::Or => a | b,
            CellFn::Xor => a ^ b,
            CellFn::Nand => !(a & b),
        }
    }

    /// Stable lowercase name used in the JSONL heal-job schema.
    pub fn name(self) -> &'static str {
        match self {
            CellFn::And => "and",
            CellFn::Or => "or",
            CellFn::Xor => "xor",
            CellFn::Nand => "nand",
        }
    }

    /// Parse a function name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(s))
    }
}

/// A radiation-style fault in one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The cell's output is stuck at a constant (SEU latched in the
    /// output buffer).
    StuckAt {
        /// Faulted cell index (0–7).
        cell: usize,
        /// Stuck output value.
        value: bool,
    },
    /// The cell's function code is corrupted to a fixed wrong value
    /// (SEU in the configuration memory).
    WrongFn {
        /// Faulted cell index (0–7).
        cell: usize,
        /// The function the cell actually performs.
        actual: CellFn,
    },
}

impl Fault {
    /// The faulted cell's index (0–7).
    pub fn cell(&self) -> usize {
        match *self {
            Fault::StuckAt { cell, .. } | Fault::WrongFn { cell, .. } => cell,
        }
    }

    /// Stable wire encoding used by the JSONL heal-job schema:
    /// `stuck0@<cell>`, `stuck1@<cell>`, or `<fn>@<cell>` (e.g.
    /// `nand@5` for a function code corrupted to NAND).
    pub fn wire_name(&self) -> String {
        match *self {
            Fault::StuckAt { cell, value } => {
                format!("stuck{}@{cell}", u8::from(value))
            }
            Fault::WrongFn { cell, actual } => format!("{}@{cell}", actual.name()),
        }
    }

    /// Parse the [`wire_name`](Self::wire_name) encoding. Rejects cell
    /// indices outside 0–7 and unknown fault kinds.
    pub fn parse_wire(s: &str) -> Option<Fault> {
        let (kind, cell) = s.split_once('@')?;
        let cell: usize = cell.parse().ok()?;
        if cell >= 8 {
            return None;
        }
        match kind {
            "stuck0" => Some(Fault::StuckAt { cell, value: false }),
            "stuck1" => Some(Fault::StuckAt { cell, value: true }),
            other => Some(Fault::WrongFn {
                cell,
                actual: CellFn::parse(other)?,
            }),
        }
    }

    /// Every single-cell fault the model can express: per cell, both
    /// stuck-at polarities plus all four wrong-function corruptions
    /// (8 cells × 6 = 48 faults). Campaign grids and the healability
    /// property tests sweep this list.
    pub fn all_single_cell() -> Vec<Fault> {
        let mut out = Vec::with_capacity(48);
        for cell in 0..8 {
            for value in [false, true] {
                out.push(Fault::StuckAt { cell, value });
            }
            for actual in CellFn::ALL {
                out.push(Fault::WrongFn { cell, actual });
            }
        }
        out
    }
}

/// A 4-input truth table: bit `i` is the output for input pattern `i`.
pub type TruthTable = u16;

/// The virtual reconfigurable circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vrc {
    /// 16-bit configuration: cell `k`'s function code is bits
    /// `[2k+1 : 2k]`.
    pub config: u16,
    /// Injected fault, if any.
    pub fault: Option<Fault>,
}

impl Vrc {
    /// A healthy circuit with the given configuration.
    pub fn new(config: u16) -> Self {
        Vrc {
            config,
            fault: None,
        }
    }

    /// Inject a fault (replacing any existing one).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        assert!(fault.cell() < 8, "the VRC has 8 cells");
        self.fault = Some(fault);
        self
    }

    /// Function programmed into cell `k` (before faults).
    pub fn cell_fn(&self, k: usize) -> CellFn {
        CellFn::from_code((self.config >> (2 * k)) as u8)
    }

    /// Evaluate one cell, honoring the fault model.
    fn cell(&self, k: usize, a: bool, b: bool) -> bool {
        match self.fault {
            Some(Fault::StuckAt { cell, value }) if cell == k => value,
            Some(Fault::WrongFn { cell, actual }) if cell == k => actual.apply(a, b),
            _ => self.cell_fn(k).apply(a, b),
        }
    }

    /// Evaluate the circuit on a 4-bit input pattern.
    pub fn eval(&self, pattern: u8) -> bool {
        let a = pattern & 1 != 0;
        let b = pattern & 2 != 0;
        let c = pattern & 4 != 0;
        let d = pattern & 8 != 0;
        let w = self.cell(0, a, b);
        let x = self.cell(1, b, c);
        let y = self.cell(2, c, d);
        let z = self.cell(3, d, a);
        let u = self.cell(4, w, x);
        let v = self.cell(5, y, z);
        let t = self.cell(6, u, v);
        self.cell(7, t, u)
    }

    /// The circuit's full truth table, computed bit-parallel on the
    /// fabric with its fault decoded (see the module docs). This is what
    /// makes exhaustive 65 536-configuration sweeps (fitness ROM
    /// tabulation, healability proofs) cheap.
    pub fn truth_table(&self) -> TruthTable {
        Fabric::new(self.fault).truth_table(self.config)
    }
}

/// Each 2-bit cell code's function as three 16-bit masks, low lane
/// first: whether the cell takes `a & b`, whether it takes `a ^ b`, and
/// whether it inverts. `OR` is `(a & b) ^ (a ^ b)`, `NAND` `a & b`
/// inverted. Indexing it is a load, so a cell's function costs no
/// branch on its code, nor a select the compiler may turn into one.
const CELL_OPS: [u64; 4] = [
    0x0000_0000_FFFF, // AND
    0x0000_FFFF_FFFF, // OR
    0x0000_FFFF_0000, // XOR
    0xFFFF_0000_FFFF, // NAND
];

/// The fabric with its fault decoded: everything [`Vrc::truth_table`]
/// needs that does not depend on the configuration, folded once per
/// fault into masks.
///
/// A wrong-function fault replaces its cell's code in the configuration
/// (`keep`, `code`); a stuck-at fault replaces its cell's output
/// (`live`, `stuck`). Every cell then reads its function's masks from
/// [`CELL_OPS`] by its 2-bit code, with no branch on it: a `match` on
/// each code mispredicts on GA traffic, whose configurations look
/// random to the branch predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fabric {
    /// The configuration bits the cells read: all but a wrong-function
    /// cell's code.
    keep: u16,
    /// The code a wrong-function cell performs, in its place.
    code: u16,
    /// Per cell, the truth-table bits its function drives: none on a
    /// stuck cell.
    live: [u16; 8],
    /// Per cell, the value a stuck output holds.
    stuck: [u16; 8],
}

impl Fabric {
    /// Decode `fault`. A fault on a cell the fabric does not have
    /// changes nothing.
    #[inline]
    fn new(fault: Option<Fault>) -> Self {
        let mut fabric = Fabric {
            keep: 0xFFFF,
            code: 0,
            live: [0xFFFF; 8],
            stuck: [0; 8],
        };
        match fault {
            Some(Fault::StuckAt { cell, value }) if cell < 8 => {
                fabric.live[cell] = 0;
                fabric.stuck[cell] = if value { 0xFFFF } else { 0 };
            }
            Some(Fault::WrongFn { cell, actual }) if cell < 8 => {
                fabric.keep = !(0b11 << (2 * cell));
                fabric.code = (actual as u16) << (2 * cell);
            }
            _ => {}
        }
        fabric
    }

    /// The truth table of `config` on this fabric: the four input
    /// columns are constants (input `a` is high on odd patterns ⇒
    /// 0xAAAA, and so on), and each cell is a few word operations.
    #[inline]
    fn truth_table(&self, config: u16) -> TruthTable {
        const A: u16 = 0xAAAA; // pattern bit 0
        const B: u16 = 0xCCCC; // pattern bit 1
        const C: u16 = 0xF0F0; // pattern bit 2
        const D: u16 = 0xFF00; // pattern bit 3
        let code = (config & self.keep) | self.code;
        let cell = |k: usize, a: u16, b: u16| {
            let op = CELL_OPS[usize::from(code >> (2 * k)) & 0b11];
            let f = (a & b & op as u16) ^ ((a ^ b) & (op >> 16) as u16) ^ (op >> 32) as u16;
            (f & self.live[k]) | self.stuck[k]
        };
        let w = cell(0, A, B);
        let x = cell(1, B, C);
        let y = cell(2, C, D);
        let z = cell(3, D, A);
        let u = cell(4, w, x);
        let v = cell(5, y, z);
        let t = cell(6, u, v);
        cell(7, t, u)
    }
}

/// Healing fitness for one `(target, fault)`, the fault decoded once:
/// [`HealWords::word`] is [`healing_fitness`] word for word, without
/// decoding the fault again on every word. A job builds one and reads
/// every word it evaluates from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealWords {
    fabric: Fabric,
    target: TruthTable,
}

impl HealWords {
    /// The heal words of `target` on a fabric with `fault` injected.
    #[inline]
    pub fn new(target: TruthTable, fault: Option<Fault>) -> Self {
        HealWords {
            fabric: Fabric::new(fault),
            target,
        }
    }

    /// The healing fitness of `config`: each truth-table row that
    /// matches the target is worth 4095.
    #[inline]
    pub fn word(&self, config: u16) -> u16 {
        let got = self.fabric.truth_table(config);
        (!(got ^ self.target)).count_ones() as u16 * 4095
    }
}

/// Healing fitness: how well configuration `config` reproduces `target`
/// on the faulted fabric. Each of the 16 truth-table rows is worth
/// 4095, so a perfect match scores 65 520 (a near-full-scale 16-bit
/// fitness, keeping proportionate selection well conditioned).
#[inline]
pub fn healing_fitness(config: u16, target: TruthTable, fault: Option<Fault>) -> u16 {
    HealWords::new(target, fault).word(config)
}

/// Fitness of a perfect healing (all 16 rows correct).
pub const PERFECT_FITNESS: u16 = 16 * 4095;

/// The shipped healing targets: `(name, healthy configuration)` pairs
/// whose fault-free truth tables are the functions the heal campaign
/// and the healability property tests re-evolve. Chosen for diverse
/// cell mixes (no cell function repeated fabric-wide) and non-trivial
/// truth tables.
pub const SHIPPED_TARGETS: [(&str, u16); 3] = [
    // The healing-demo configuration (truth table 0x9B9B).
    ("mix3", 0x1B26),
    // A fabric using all four cell functions (truth table 0xAE7F).
    ("mix7", 0x6C99),
    // An inverting-heavy fabric, three NAND cells (truth table 0x05F0).
    ("inv5", 0xB1E7),
];

/// Exhaustive healability oracle: is there *any* configuration whose
/// faulted truth table matches `target`? The bit-parallel
/// [`Vrc::truth_table`] makes the 65 536-configuration sweep cheap, so
/// this is the ground truth the GA heal rate is measured against.
pub fn healable(target: TruthTable, fault: Fault) -> bool {
    let fabric = Fabric::new(Some(fault));
    (0..=u16::MAX).any(|config| fabric.truth_table(config) == target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_functions() {
        assert!(CellFn::And.apply(true, true));
        assert!(!CellFn::And.apply(true, false));
        assert!(CellFn::Or.apply(true, false));
        assert!(CellFn::Xor.apply(true, false));
        assert!(!CellFn::Xor.apply(true, true));
        assert!(CellFn::Nand.apply(false, false));
        assert!(!CellFn::Nand.apply(true, true));
    }

    #[test]
    fn config_decoding_per_cell() {
        // config = 0b..._01_00: cell0 = AND, cell1 = OR, cell7 = NAND.
        let cfg = 0b11_00_00_00_00_00_01_00u16;
        let vrc = Vrc::new(cfg);
        assert_eq!(vrc.cell_fn(0), CellFn::And);
        assert_eq!(vrc.cell_fn(1), CellFn::Or);
        assert_eq!(vrc.cell_fn(7), CellFn::Nand);
    }

    #[test]
    fn all_and_circuit_is_conjunction_like() {
        // All cells AND: output for all-ones input must be 1 via the
        // final stage; for all-zeros it is 0.
        let vrc = Vrc::new(0x0000);
        assert!(vrc.eval(0b1111));
        assert!(!vrc.eval(0b0000));
    }

    #[test]
    fn stuck_fault_changes_behaviour() {
        let vrc = Vrc::new(0x0000);
        let faulty = vrc.with_fault(Fault::StuckAt {
            cell: 6,
            value: false,
        });
        // Cell 6 feeds cell 7 (AND): output forced low everywhere
        // except through the u path... with all-AND config, out = t & u
        // and t stuck 0 ⇒ out = 0 everywhere.
        assert_eq!(faulty.truth_table(), 0);
        assert_ne!(vrc.truth_table(), 0);
    }

    #[test]
    fn wrong_fn_fault_applies_the_wrong_function() {
        // With the all-AND configuration a single corrupted cell is
        // masked (out is 1 only on the all-ones row either way) — fault
        // masking is itself worth asserting.
        let masked = Vrc::new(0x0000).with_fault(Fault::WrongFn {
            cell: 0,
            actual: CellFn::Or,
        });
        assert_eq!(masked.truth_table(), Vrc::new(0x0000).truth_table());
        // On a mixed configuration the same corruption is observable.
        let healthy = Vrc::new(0x1B26);
        let faulty = healthy.with_fault(Fault::WrongFn {
            cell: 0,
            actual: CellFn::Nand,
        });
        assert_eq!(healthy.truth_table(), 0x9B9B);
        assert_eq!(faulty.truth_table(), 0x8B8B);
    }

    #[test]
    fn healing_fitness_is_full_scale_for_self_target() {
        for cfg in [0u16, 0xFFFF, 0x1234, 0xBEEF] {
            let target = Vrc::new(cfg).truth_table();
            assert_eq!(healing_fitness(cfg, target, None), PERFECT_FITNESS);
        }
    }

    #[test]
    fn healing_fitness_counts_matching_rows() {
        let target = Vrc::new(0x0000).truth_table();
        // A config differing in exactly the all-ones row scores 15 rows.
        let mut found = false;
        for cfg in 0..=u16::MAX {
            let tt = Vrc::new(cfg).truth_table();
            if (tt ^ target).count_ones() == 1 {
                assert_eq!(healing_fitness(cfg, target, None), 15 * 4095);
                found = true;
                break;
            }
        }
        assert!(found, "no single-row-off configuration exists?");
    }

    #[test]
    fn vrc_expressiveness_census() {
        // How many distinct truth tables can the fabric express? This
        // pins the substrate's behaviour: any change to routing or cell
        // functions shows up here.
        let mut seen = std::collections::HashSet::new();
        for cfg in 0..=u16::MAX {
            seen.insert(Vrc::new(cfg).truth_table());
        }
        // Must be rich (hundreds of functions) but obviously ≤ 2^16.
        assert!(seen.len() > 100, "only {} distinct functions", seen.len());
        // Record the exact census to catch accidental changes.
        assert_eq!(seen.len(), 2339);
    }

    #[test]
    fn bit_parallel_truth_table_matches_per_pattern_eval() {
        // The word-parallel truth table must agree with the reference
        // per-pattern evaluator on every fault variant.
        let faults = {
            let mut f: Vec<Option<Fault>> =
                Fault::all_single_cell().into_iter().map(Some).collect();
            f.push(None);
            f
        };
        for cfg in (0..=u16::MAX).step_by(257) {
            for &fault in &faults {
                let vrc = Vrc { config: cfg, fault };
                let mut reference = 0u16;
                for pattern in 0..16u8 {
                    if vrc.eval(pattern) {
                        reference |= 1 << pattern;
                    }
                }
                assert_eq!(
                    vrc.truth_table(),
                    reference,
                    "cfg {cfg:04X} fault {fault:?}"
                );
            }
        }
    }

    #[test]
    fn fault_wire_codec_roundtrips() {
        let all = Fault::all_single_cell();
        assert_eq!(all.len(), 48);
        for fault in all {
            let name = fault.wire_name();
            assert_eq!(Fault::parse_wire(&name), Some(fault), "{name}");
        }
        assert_eq!(
            Fault::parse_wire("stuck1@2"),
            Some(Fault::StuckAt {
                cell: 2,
                value: true
            })
        );
        assert_eq!(
            Fault::parse_wire("nand@7"),
            Some(Fault::WrongFn {
                cell: 7,
                actual: CellFn::Nand
            })
        );
        for bad in [
            "stuck2@1", "and@8", "and@", "@3", "and", "frob@1", "stuck0@x",
        ] {
            assert_eq!(Fault::parse_wire(bad), None, "{bad}");
        }
    }

    #[test]
    fn shipped_targets_are_distinct_and_nontrivial() {
        let mut tts = Vec::new();
        for (name, cfg) in SHIPPED_TARGETS {
            let tt = Vrc::new(cfg).truth_table();
            assert!(
                tt != 0x0000 && tt != 0xFFFF,
                "{name} has a constant truth table"
            );
            tts.push(tt);
        }
        tts.sort_unstable();
        tts.dedup();
        assert_eq!(
            tts.len(),
            SHIPPED_TARGETS.len(),
            "duplicate target functions"
        );
        // The demo target keeps its pinned truth table.
        assert_eq!(Vrc::new(SHIPPED_TARGETS[0].1).truth_table(), 0x9B9B);
    }

    #[test]
    fn healable_fault_exists_for_representable_target() {
        // Pick a target; inject a stuck fault; exhaustively confirm a
        // perfect healing configuration exists (the premise of the GA
        // healing demo).
        let target = Vrc::new(0x1B26).truth_table();
        let fault = Fault::StuckAt {
            cell: 2,
            value: true,
        };
        let healed = (0..=u16::MAX)
            .filter(|&cfg| healing_fitness(cfg, target, Some(fault)) == PERFECT_FITNESS)
            .count();
        // 240 of 65 536 configurations heal this fault (verified by
        // exhaustive enumeration), e.g. 0x0706.
        assert_eq!(healed, 240);
        assert_eq!(
            healing_fitness(0x0706, target, Some(fault)),
            PERFECT_FITNESS
        );
    }
}
