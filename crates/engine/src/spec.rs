//! The engine-layer vocabulary: what a run request looks like
//! ([`RunSpec`]), what every backend promises ([`Capabilities`]), how a
//! run can fail ([`EngineError`]), and what every backend reports back
//! ([`RunOutcome`]) — plus the [`Engine`] trait tying them together.
//!
//! The shape is deliberately backend-neutral: `best_chrom` is `u32` so
//! the ganged 32-bit core fits the same outcome as the 16-bit engines,
//! and the per-generation [`TrajPoint`] trajectory carries enough state
//! (best individual + fitness sum) for both the Table V convergence
//! metric and the fault-campaign golden comparison, regardless of which
//! backend produced it.

use std::fmt;

use ga_core::GaParams;
use ga_ehw::{Fault, HealWords, TruthTable};
use ga_fitness::TestFunction;

/// Which backend a job names: seven wire names served by three engines
/// ([`BackendKind::engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The behavioral reference engine (`ga_core::GaEngine`).
    Behavioral,
    /// The cycle-accurate hardware system (`ga_core::GaSystem`).
    RtlInterp,
    /// The compiled-netlist backend: compatible jobs share one
    /// bit-sliced CA-RNG run, one job per lane, up to 64 per pack.
    BitSim64,
    /// The compiled-netlist backend with packs of up to 128 jobs.
    BitSim128,
    /// The compiled-netlist backend with packs of up to 256 jobs.
    BitSim256,
    /// The paper's PowerPC software baseline: the same algorithm on the
    /// same CA stream, so it runs the behavioral engine. Its op tally
    /// (`swga::CountingGa`) feeds the speedup bench, not job results.
    Swga,
    /// The cycle-accurate system with two ganged cores
    /// (`ga_core::GaSystem32Hw`, Fig. 6 / §III-D) for `width: 32` jobs.
    Rtl32,
}

impl BackendKind {
    /// Every backend, in dispatch-priority order: the order the
    /// variants are declared in, so `kind as usize` indexes per-kind
    /// tables.
    pub const ALL: [BackendKind; 7] = [
        BackendKind::Behavioral,
        BackendKind::RtlInterp,
        BackendKind::BitSim64,
        BackendKind::BitSim128,
        BackendKind::BitSim256,
        BackendKind::Swga,
        BackendKind::Rtl32,
    ];

    /// Stable lowercase name used in the JSONL schema and reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Behavioral => "behavioral",
            BackendKind::RtlInterp => "rtl",
            BackendKind::BitSim64 => "bitsim64",
            BackendKind::BitSim128 => "bitsim128",
            BackendKind::BitSim256 => "bitsim256",
            BackendKind::Swga => "swga",
            BackendKind::Rtl32 => "rtl32",
        }
    }

    /// Parse a backend name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(s))
    }
}

/// What a run optimizes — the backend-neutral fitness selection. Every
/// engine evaluates a `Workload` the same way, so results are
/// bit-identical across backends regardless of the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One of the paper's benchmark fitness functions. 32-bit engines
    /// evaluate the split-average extension
    /// ([`TestFunction::eval_u32_split`]) of the function
    /// [`Prepared::function`] resolves at admission.
    Function(TestFunction),
    /// VRC healing (`ga-ehw`): evolve a 16-bit fabric configuration
    /// whose *faulted* truth table reproduces `target`. Fitness is
    /// [`ga_ehw::healing_fitness`]; the chromosome *is* the
    /// configuration bitstring, so this workload is 16-bit only
    /// (admission enforces it).
    VrcHeal {
        /// The target 4-input truth table.
        target: TruthTable,
        /// The injected fault the configuration must work around.
        fault: Fault,
    },
}

impl Workload {
    /// Evaluate a 16-bit chromosome.
    #[inline]
    pub fn eval_u16(self, chrom: u16) -> u16 {
        self.words()(chrom)
    }

    /// One job's word source: [`Workload::eval_u16`] word for word, with
    /// what does not depend on the chromosome decoded once, when the job
    /// starts. For a heal workload that is the fault ([`HealWords`]),
    /// which [`ga_ehw::healing_fitness`] decodes again on every word.
    /// Every 16-bit engine reads a job's words from one of these.
    #[inline]
    pub fn words(self) -> impl Fn(u16) -> u16 + Copy + Send + Sync + 'static {
        #[derive(Clone, Copy)]
        enum Words {
            Function(TestFunction),
            Heal(HealWords),
        }
        let words = match self {
            Workload::Function(f) => Words::Function(f),
            Workload::VrcHeal { target, fault } => Words::Heal(HealWords::new(target, Some(fault))),
        };
        move |chrom| match words {
            Words::Function(f) => f.eval_u16(chrom),
            Words::Heal(heal) => heal.word(chrom),
        }
    }

    /// Evaluate a 32-bit chromosome via the split-average extension:
    /// each 16-bit half scored with [`Workload::eval_u16`], averaged —
    /// for a function workload exactly
    /// [`TestFunction::eval_u32_split`]. Total over both variants; the
    /// 32-bit engines admit function workloads only and evaluate the
    /// function [`Prepared::function`] resolves.
    pub fn eval_u32_split(self, chrom: u32) -> u16 {
        let (msb, lsb) = ((chrom >> 16) as u16, chrom as u16);
        ((u32::from(self.eval_u16(msb)) + u32::from(self.eval_u16(lsb))) / 2) as u16
    }
}

impl From<TestFunction> for Workload {
    fn from(f: TestFunction) -> Self {
        Workload::Function(f)
    }
}

/// One GA execution request, backend-neutral: everything an engine
/// needs to know to run, nothing about *how* it runs (watchdog budgets
/// live in [`Limits`], chosen by the caller, not the job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Chromosome width in bits. Checked against
    /// [`Capabilities::widths`] at admission.
    pub width: u8,
    /// Fitness selection (benchmark function or VRC healing).
    pub workload: Workload,
    /// The Table III parameter set. Held unvalidated so a bad spec
    /// surfaces as a typed [`EngineError::InvalidSpec`], never a panic.
    pub params: GaParams,
    /// Optional wall-clock budget; expiry cancels the run with
    /// [`EngineError::DeadlineExceeded`]. An in-flight generation (or
    /// simulated cycle) always completes first.
    pub deadline_ms: Option<u64>,
}

/// What one backend supports — its row of the engine table
/// ([`BackendKind::capabilities`]). All fields are static properties of
/// the kind, not of any one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Chromosome widths this engine implements.
    pub widths: &'static [u8],
    /// How many compatible runs one invocation can execute in lockstep
    /// (1 = solo only; 64 for the bit-sliced netlist).
    pub pack_width: usize,
    /// Can expose a generation-stepping handle ([`Engine::stepper`])
    /// for island-model composition.
    pub stepping: bool,
    /// Where an *infrastructure* failure (watchdog) may gracefully
    /// degrade to, if anywhere. Spec errors never degrade.
    pub degrades_to: Option<BackendKind>,
}

impl Capabilities {
    /// The admission check: width support first (so a wrong-width spec
    /// is reported as [`EngineError::UnsupportedWidth`] even when its
    /// parameters are also bad), then the Table III parameter ranges.
    pub fn admit(&self, spec: &RunSpec) -> Result<(), EngineError> {
        if !self.widths.contains(&spec.width) {
            return Err(EngineError::UnsupportedWidth { width: spec.width });
        }
        if matches!(spec.workload, Workload::VrcHeal { .. }) && spec.width != 16 {
            return Err(heal_is_16_bit());
        }
        spec.params
            .validate()
            .map_err(|msg| EngineError::InvalidSpec { msg })
    }
}

/// The typed refusal of a VRC healing spec at a width other than 16.
pub(crate) fn heal_is_16_bit() -> EngineError {
    EngineError::InvalidSpec {
        msg: "VRC healing is a 16-bit workload (the chromosome is the fabric configuration)".into(),
    }
}

/// Caller-chosen execution budgets, separate from the job itself so a
/// service can tighten them without rewriting specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Simulated-cycle watchdog for the cycle-accurate backends.
    pub sim_watchdog_cycles: u64,
    /// Simulated-step watchdog for the compiled-netlist backend.
    pub stream_watchdog_steps: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            sim_watchdog_cycles: 2_000_000_000,
            stream_watchdog_steps: 2_000_000_000,
        }
    }
}

/// An admitted run: proof that [`Capabilities::admit`] passed. Engines
/// only accept `Prepared`, so the width/parameter checks cannot be
/// skipped by a confused caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prepared {
    spec: RunSpec,
    function: Option<TestFunction>,
}

impl Prepared {
    /// Wrap an admitted spec. Called by [`Engine::prepare`]; custom
    /// engines with extra admission rules construct it the same way
    /// after their own checks.
    pub fn new(spec: RunSpec) -> Self {
        let function = match spec.workload {
            Workload::Function(f) => Some(f),
            Workload::VrcHeal { .. } => None,
        };
        Prepared { spec, function }
    }

    /// The admitted spec.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// The benchmark function the spec optimizes, resolved at
    /// admission; `None` for VRC healing. The 32-bit engines evaluate
    /// only functions and refuse a healing spec with a typed
    /// [`EngineError::InvalidSpec`], never a panic.
    pub fn function(&self) -> Option<TestFunction> {
        self.function
    }
}

/// How a run can fail — every variant is a typed, non-panicking result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Parameters outside the hardware ranges of Table III.
    InvalidSpec {
        /// The validation failure.
        msg: String,
    },
    /// Chromosome width not implemented by this engine.
    UnsupportedWidth {
        /// The requested width.
        width: u8,
    },
    /// The spec's wall-clock deadline expired; the run was cancelled.
    DeadlineExceeded,
    /// A simulated-work watchdog fired ([`Limits`]).
    Watchdog {
        /// Simulated cycles (or netlist steps) charged before giving up.
        cycles: u64,
    },
    /// One member of an island ring failed: an in-process member
    /// panicked, or a remote shard's connection broke or refused an op.
    Island {
        /// The failing member's ring index.
        island: usize,
        /// What went wrong.
        msg: String,
    },
}

impl EngineError {
    /// Whether the failure is a property of the *infrastructure* budget
    /// rather than of the spec — the only class of error where falling
    /// back to [`Capabilities::degrades_to`] can change the answer from
    /// an error into a result. Deadlines are caller contracts and spec
    /// errors are deterministic, so neither degrades.
    pub fn is_infrastructure(&self) -> bool {
        matches!(self, EngineError::Watchdog { .. })
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidSpec { msg } => write!(f, "invalid spec: {msg}"),
            EngineError::UnsupportedWidth { width } => {
                write!(f, "chromosome width {width} unsupported by this engine")
            }
            EngineError::DeadlineExceeded => write!(f, "wall-clock deadline expired"),
            EngineError::Watchdog { cycles } => {
                write!(f, "simulation watchdog expired after {cycles} cycles")
            }
            EngineError::Island { island, msg } => write!(f, "island {island}: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One point of a run's per-generation trajectory: generation 0 is the
/// initial population. Wide enough for every backend (chromosomes as
/// `u32`, 16-bit chromosomes zero-extended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrajPoint {
    /// Generation index (0 = initial population).
    pub gen: u32,
    /// Best chromosome of the population.
    pub best_chrom: u32,
    /// Its fitness.
    pub best_fitness: u16,
    /// Population fitness sum (drives the Table V convergence metric).
    pub fit_sum: u32,
}

/// What a completed run reports back — the one shape every backend
/// produces, so consumers (serve, bench, conformance) never see
/// engine-specific result types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Best chromosome found (16-bit engines zero-extend).
    pub best_chrom: u32,
    /// Its fitness.
    pub best_fitness: u16,
    /// Generations actually run (the full budget on success).
    pub generations: u32,
    /// Fitness evaluations consumed.
    pub evaluations: u64,
    /// Table V style convergence generation, if the run settled.
    pub conv_gen: Option<u32>,
    /// Simulated clock cycles (cycle-accurate backends only).
    pub cycles: Option<u64>,
    /// RNG draws consumed, where the engine counts them.
    pub rng_draws: Option<u64>,
    /// Per-generation history, generation 0 included.
    pub trajectory: Vec<TrajPoint>,
}

/// Table V convergence generation over a backend-neutral trajectory:
/// the first generation after which the population-average fitness
/// never again moves by ≥ 5% window over window. Exactly the algorithm
/// of `ga_core::behavioral::GaRun::convergence_generation`, lifted to
/// [`TrajPoint`] so every backend shares one implementation.
pub fn convergence_generation(trajectory: &[TrajPoint], pop_size: u8) -> Option<u32> {
    if trajectory.len() < 2 {
        return None;
    }
    let avg = |t: &TrajPoint| t.fit_sum as f64 / pop_size as f64;
    // Walk backward to find the last window that still moved ≥ 5%.
    let mut settled_from = 0usize;
    for (i, w) in trajectory.windows(2).enumerate() {
        let (a, b) = (avg(&w[0]), avg(&w[1]));
        let moved = a <= 0.0 || ((b - a).abs() / a) >= 0.05;
        if moved {
            settled_from = i + 1;
        }
    }
    if settled_from + 1 >= trajectory.len() {
        None
    } else {
        Some(trajectory[settled_from.max(1)].gen)
    }
}

/// A GA execution backend. Object-safe: the engine table hands out
/// `&'static dyn Engine` and every consumer dispatches through it.
pub trait Engine: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Static dispatch metadata: the kind's row of the engine table.
    fn capabilities(&self) -> Capabilities {
        self.kind().capabilities()
    }

    /// Admit a spec. The default is [`Capabilities::admit`]; engines
    /// with extra admission rules override and still return a
    /// [`Prepared`] token on success.
    fn prepare(&self, spec: RunSpec) -> Result<Prepared, EngineError> {
        self.capabilities().admit(&spec)?;
        Ok(Prepared::new(spec))
    }

    /// Execute one admitted run under the caller's budgets.
    fn run(&self, prepared: &Prepared, limits: &Limits) -> Result<RunOutcome, EngineError>;

    /// Execute a batch of compatible admitted runs. Engines with
    /// `pack_width > 1` override this to share work across the batch
    /// (the bit-sliced netlist runs one lockstep simulation for all
    /// lanes); the default just runs them one by one.
    fn run_pack(
        &self,
        prepared: &[Prepared],
        limits: &Limits,
    ) -> Vec<Result<RunOutcome, EngineError>> {
        prepared.iter().map(|p| self.run(p, limits)).collect()
    }

    /// A generation-stepping handle for island-model composition. The
    /// member arrives with its population *uninitialized*; the island
    /// driver owns the init / step / migrate schedule. Engines without
    /// `capabilities().stepping` refuse with [`EngineError::InvalidSpec`];
    /// an engine whose handle costs simulated work up front answers a
    /// tripped [`Limits`] watchdog with [`EngineError::Watchdog`].
    fn stepper(
        &self,
        prepared: &Prepared,
        limits: &Limits,
    ) -> Result<Box<dyn ga_core::IslandMember>, EngineError> {
        let _ = (prepared, limits);
        Err(no_stepper(self.kind()))
    }
}

/// The typed refusal of a stepping handle by a kind without one.
pub(crate) fn no_stepper(kind: BackendKind) -> EngineError {
    EngineError::InvalidSpec {
        msg: format!("{} has no stepping handle", kind.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::CaRng;
    use ga_core::GaEngine;

    #[test]
    fn backend_names_roundtrip() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::parse(b.name()), Some(b));
            assert_eq!(BackendKind::parse(&b.name().to_uppercase()), Some(b));
        }
        assert_eq!(BackendKind::parse("vhdl"), None);
        // Per-kind tables index by the discriminant.
        for (i, b) in BackendKind::ALL.into_iter().enumerate() {
            assert_eq!(b as usize, i, "{}", b.name());
        }
    }

    #[test]
    fn admission_reports_width_before_params() {
        let caps = Capabilities {
            widths: &[16],
            pack_width: 1,
            stepping: true,
            degrades_to: None,
        };
        // Both the width and the parameters are bad: width wins, so the
        // caller learns the job can never run here regardless of params.
        let mut spec = RunSpec {
            width: 32,
            workload: Workload::Function(TestFunction::F2),
            params: GaParams {
                pop_size: 1,
                ..GaParams::default()
            },
            deadline_ms: None,
        };
        assert_eq!(
            caps.admit(&spec),
            Err(EngineError::UnsupportedWidth { width: 32 })
        );
        spec.width = 16;
        assert!(matches!(
            caps.admit(&spec),
            Err(EngineError::InvalidSpec { .. })
        ));
        spec.params = GaParams::default();
        assert_eq!(caps.admit(&spec), Ok(()));
    }

    #[test]
    fn healing_workload_is_16_bit_only() {
        let caps = Capabilities {
            widths: &[16, 32],
            pack_width: 1,
            stepping: false,
            degrades_to: None,
        };
        let heal = Workload::VrcHeal {
            target: 0x9B9B,
            fault: ga_ehw::Fault::StuckAt {
                cell: 2,
                value: true,
            },
        };
        let mut spec = RunSpec {
            width: 16,
            workload: heal,
            params: GaParams::default(),
            deadline_ms: None,
        };
        assert_eq!(caps.admit(&spec), Ok(()));
        spec.width = 32;
        assert!(matches!(
            caps.admit(&spec),
            Err(EngineError::InvalidSpec { .. })
        ));
        // Healing fitness agrees with the ehw crate's definition.
        assert_eq!(
            heal.eval_u16(0x0706),
            ga_ehw::vrc::PERFECT_FITNESS,
            "known healing configuration scores perfect"
        );
        // The split extension is total and, for functions, the
        // function's own; the 32-bit engines never see a healing spec.
        assert_eq!(
            heal.eval_u32_split(0x0706_0706),
            ga_ehw::vrc::PERFECT_FITNESS
        );
        for f in TestFunction::ALL {
            let c = 0x1234_ABCD;
            assert_eq!(Workload::Function(f).eval_u32_split(c), f.eval_u32_split(c));
        }
        assert_eq!(Prepared::new(spec).function(), None);
        spec.workload = Workload::Function(TestFunction::F3);
        assert_eq!(Prepared::new(spec).function(), Some(TestFunction::F3));
    }

    #[test]
    fn only_watchdogs_are_infrastructure_failures() {
        assert!(EngineError::Watchdog { cycles: 1 }.is_infrastructure());
        assert!(!EngineError::DeadlineExceeded.is_infrastructure());
        assert!(!EngineError::UnsupportedWidth { width: 8 }.is_infrastructure());
        assert!(!EngineError::InvalidSpec { msg: String::new() }.is_infrastructure());
    }

    #[test]
    fn trajectory_convergence_matches_the_behavioral_run() {
        // The lifted helper must agree with GaRun::convergence_generation
        // on real runs across functions and seeds.
        for f in TestFunction::ALL {
            let params = GaParams::new(16, 24, 10, 1, 0x2961 ^ f as u16);
            let run = GaEngine::new(params, CaRng::new(params.seed), |c| f.eval_u16(c)).run();
            let traj: Vec<TrajPoint> = run
                .history
                .iter()
                .map(|s| TrajPoint {
                    gen: s.gen,
                    best_chrom: s.best.chrom as u32,
                    best_fitness: s.best.fitness,
                    fit_sum: s.fit_sum,
                })
                .collect();
            assert_eq!(
                convergence_generation(&traj, params.pop_size),
                run.convergence_generation(),
                "{}",
                f.name()
            );
        }
    }

    #[test]
    fn short_trajectories_never_converge() {
        assert_eq!(convergence_generation(&[], 8), None);
        let p = TrajPoint {
            gen: 0,
            best_chrom: 1,
            best_fitness: 1,
            fit_sum: 8,
        };
        assert_eq!(convergence_generation(&[p], 8), None);
    }
}
