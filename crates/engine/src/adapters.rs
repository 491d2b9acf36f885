//! [`Engine`] adapters for the concrete backends.
//!
//! Each adapter owns the glue between the backend's native API and the
//! engine-layer contract: spec admission, deadline/watchdog plumbing,
//! trajectory capture, and the evaluation-count bookkeeping for the
//! 16-bit hardware model, which does not count evaluations itself
//! (`GaParams::evaluations_per_run` is the count there).

use carng::{CaRng, Rng16, SnapshotRng};
use ga_core::behavioral::GenStats;
use ga_core::scaling::GenStats32;
use ga_core::{GaEngine, GaSystem, GaSystem32Hw};
use ga_fitness::{FemBank, FemSlot, LookupFem};
use hwsim::{Deadline, SimError};

use crate::pack::{draws_per_run, StreamRng};
use crate::spec::{
    convergence_generation, heal_is_16_bit, no_stepper, BackendKind, Engine, EngineError, Limits,
    Prepared, RunOutcome, RunSpec, TrajPoint,
};

/// Lift a 16-bit per-generation history (shared by the behavioral
/// engine and the RTL interpreter's probe) into the backend-neutral
/// trajectory. Public because the fault campaign compares raw `HwRun`
/// histories against golden runs of the engines.
pub fn trajectory16(history: &[GenStats]) -> Vec<TrajPoint> {
    history
        .iter()
        .map(|s| TrajPoint {
            gen: s.gen,
            best_chrom: s.best.chrom as u32,
            best_fitness: s.best.fitness,
            fit_sum: s.fit_sum,
        })
        .collect()
}

/// Lift a 32-bit history ([`GenStats32`]) into the same trajectory.
pub fn trajectory32(history: &[GenStats32]) -> Vec<TrajPoint> {
    history
        .iter()
        .map(|s| TrajPoint {
            gen: s.gen,
            best_chrom: s.best.chrom,
            best_fitness: s.best.fitness,
            fit_sum: s.fit_sum,
        })
        .collect()
}

/// Behavioral runs of 16-bit specs sharing one generation count, one
/// engine per spec over its own RNG, stepped in generation lockstep;
/// the `Behavioral` and bitsim adapters differ only in the RNG. Each
/// deadline is checked between generations, so an in-flight generation
/// always completes; a run past its deadline drops out. Every deadline
/// starts with the lockstep run, so a packed run's deadline also counts
/// its pack-mates' generations.
fn run16<'a, R: Rng16>(
    runs: impl IntoIterator<Item = (&'a RunSpec, R)>,
) -> Vec<Result<RunOutcome, EngineError>> {
    let mut runs = runs.into_iter().peekable();
    let n_gens = runs.peek().map_or(0, |(spec, _)| spec.params.n_gens);
    let mut runs: Vec<_> = runs
        .map(|(spec, rng)| {
            let mut engine = GaEngine::new(spec.params, rng, spec.workload.words());
            // `n_gens` comes off the wire: grow the history, never size it.
            let history = vec![engine.init_population()];
            Ok((engine, history, spec.deadline_ms.map(Deadline::after_ms)))
        })
        .collect();
    let mut gen = 0;
    while gen < n_gens && runs.iter().any(Result::is_ok) {
        gen += 1;
        for run in &mut runs {
            if let Ok((engine, history, deadline)) = run {
                if deadline.as_mut().is_some_and(|d| d.is_past()) {
                    *run = Err(EngineError::DeadlineExceeded);
                } else {
                    history.push(engine.step_generation());
                }
            }
        }
    }
    let outcome = |(engine, history, _): (GaEngine<R, _>, Vec<GenStats>, _)| {
        let (best, params) = (engine.best(), engine.params());
        let trajectory = trajectory16(&history);
        RunOutcome {
            best_chrom: best.chrom as u32,
            best_fitness: best.fitness,
            generations: params.n_gens,
            evaluations: engine.evaluations(),
            conv_gen: convergence_generation(&trajectory, params.pop_size),
            cycles: None,
            rng_draws: Some(engine.rng_draws()),
            trajectory,
        }
    };
    runs.into_iter().map(|r| r.map(outcome)).collect()
}

/// A stepping handle over the behavioral engine with an arbitrary RNG
/// source — the island-member factory both 16-bit stepping adapters
/// share. The RNG must be snapshot-capable: stepping handles are the
/// checkpoint/resume surface ([`ga_core::IslandMember::snapshot`]).
fn stepper16<R: SnapshotRng + 'static>(spec: &RunSpec, rng: R) -> Box<dyn ga_core::IslandMember> {
    Box::new(GaEngine::new(spec.params, rng, spec.workload.words()))
}

/// The behavioral reference engine (`ga_core::GaEngine` over the CA
/// RNG), the fallback target for infrastructure degradation. It serves
/// two kinds: `behavioral`, and `swga`, the PowerPC software baseline
/// of the paper's §IV-C comparison. That C program runs the IP core's
/// algorithm on the same CA stream, so its run is this engine's; its op
/// tally (`swga::CountingGa`) is a bench figure, not part of a
/// [`RunOutcome`]. `swga` has no stepping handle.
pub struct BehavioralEngine(pub(crate) BackendKind);

impl Engine for BehavioralEngine {
    fn kind(&self) -> BackendKind {
        self.0
    }

    fn run(&self, prepared: &Prepared, _limits: &Limits) -> Result<RunOutcome, EngineError> {
        let spec = prepared.spec();
        let rng = CaRng::new(spec.params.seed);
        run16([(spec, rng)]).pop().expect("one run requested")
    }

    fn stepper(
        &self,
        prepared: &Prepared,
        _limits: &Limits,
    ) -> Result<Box<dyn ga_core::IslandMember>, EngineError> {
        if !self.capabilities().stepping {
            return Err(no_stepper(self.0));
        }
        let spec = prepared.spec();
        Ok(stepper16(spec, CaRng::new(spec.params.seed)))
    }
}

/// The cycle-accurate hardware system (`ga_core::GaSystem`): programs
/// the initialization handshake and runs to `GA_done` under both the
/// simulated-cycle watchdog and the spec's deadline. It serves `rtl` at
/// width 16 and `rtl32` at width 32, the system with two ganged cores
/// (`ga_core::GaSystem32Hw`, Fig. 6 / §III-D) whose shared block-ROM
/// module evaluates the concatenated candidate with
/// [`ga_fitness::TestFunction::eval_u32_split`].
pub struct RtlEngine(pub(crate) BackendKind);

impl Engine for RtlEngine {
    fn kind(&self) -> BackendKind {
        self.0
    }

    fn run(&self, prepared: &Prepared, limits: &Limits) -> Result<RunOutcome, EngineError> {
        let spec = prepared.spec();
        if spec.width == 32 {
            return run_rtl32(prepared, limits);
        }
        run_rtl(spec, limits, spec.workload.words())
    }
}

/// One `rtl` job: the cycle-accurate system run to `GA_done`. Its
/// lookup FEM computes each word on read with `fitness` (for a served
/// job its word source, [`crate::Workload::words`], the function the
/// paper's offline ROM holds), so a job pays for the
/// `evaluations_per_run` words its core reads, not for a 65 536-word
/// table build. Heal tables are no
/// exception: a heal word is a VRC truth-table match count, and
/// tabulating all 65 536 of them costs more than a whole small job.
/// Heal and function workloads take the same path.
fn run_rtl(
    spec: &RunSpec,
    limits: &Limits,
    fitness: impl Fn(u16) -> u16 + Send + Sync + 'static,
) -> Result<RunOutcome, EngineError> {
    let fem = LookupFem::from_fn(fitness);
    let mut sys = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(fem)]));
    sys.program(&spec.params);
    let mut deadline = spec.deadline_ms.map(Deadline::after_ms);
    let run = sys
        .run_with_deadline(limits.sim_watchdog_cycles, deadline.as_mut())
        .map_err(map_sim_error)?;
    let trajectory = trajectory16(&run.history);
    Ok(RunOutcome {
        best_chrom: run.best.chrom as u32,
        best_fitness: run.best.fitness,
        generations: spec.params.n_gens,
        evaluations: spec.params.evaluations_per_run(),
        conv_gen: convergence_generation(&trajectory, spec.params.pop_size),
        cycles: Some(run.cycles),
        rng_draws: Some(run.rng_draws),
        trajectory,
    })
}

/// The compiled-netlist backend: a pack's lanes share one bit-sliced
/// simulation of the CA-RNG netlist, and each lane runs the behavioral
/// engine over its [`StreamRng`]. It serves `bitsim64`, `bitsim128` and
/// `bitsim256`, which differ only in how many jobs one pack may carry.
/// A lane's stream depends only on its seed, so every kind produces
/// bit-identical results.
pub struct BitSimEngine(pub(crate) BackendKind);

/// One lane reader per packed spec over a shared lane source, refused up
/// front if a run's stream (load edge plus a step per draw) overruns the watchdog.
fn lane_rngs(prepared: &[Prepared], limits: &Limits) -> Result<Vec<StreamRng>, EngineError> {
    let max_steps = limits.stream_watchdog_steps;
    if draws_per_run(&prepared[0].spec().params).saturating_add(1) > max_steps {
        return Err(EngineError::Watchdog { cycles: max_steps });
    }
    let seeds: Vec<u16> = prepared.iter().map(|p| p.spec().params.seed).collect();
    Ok(StreamRng::lanes(&seeds))
}

impl Engine for BitSimEngine {
    fn kind(&self) -> BackendKind {
        self.0
    }

    fn run(&self, prepared: &Prepared, limits: &Limits) -> Result<RunOutcome, EngineError> {
        // A solo run is a pack of one: the lane stream still comes from
        // the compiled netlist, not `CaRng`.
        self.run_pack(std::slice::from_ref(prepared), limits)
            .pop()
            .expect("one lane requested")
    }

    fn run_pack(
        &self,
        prepared: &[Prepared],
        limits: &Limits,
    ) -> Vec<Result<RunOutcome, EngineError>> {
        debug_assert!(prepared.len() <= self.capabilities().pack_width);
        if prepared.is_empty() {
            return Vec::new();
        }
        debug_assert!(
            prepared.windows(2).all(|w| {
                let (a, b) = (w[0].spec().params, w[1].spec().params);
                (a.pop_size, a.n_gens) == (b.pop_size, b.n_gens)
            }),
            "packed specs must share one RNG draw schedule"
        );
        // In generation lockstep every lane has drawn the same count
        // when the next block is produced, so each holds at most about
        // one generation plus one block.
        match lane_rngs(prepared, limits) {
            Ok(rngs) => run16(prepared.iter().map(Prepared::spec).zip(rngs)),
            Err(e) => vec![Err(e); prepared.len()],
        }
    }

    fn stepper(
        &self,
        prepared: &Prepared,
        limits: &Limits,
    ) -> Result<Box<dyn ga_core::IslandMember>, EngineError> {
        // A pack of one whose lane refills as it goes: an island member
        // may step past the schedule it was built for, and a restore
        // steps the CA less than one period to the snapshot's position.
        let rng = lane_rngs(std::slice::from_ref(prepared), limits)?.pop();
        Ok(stepper16(prepared.spec(), rng.expect("one lane requested")))
    }
}

/// One `rtl32` job: the system with two ganged cores run to `GA_done`.
fn run_rtl32(prepared: &Prepared, limits: &Limits) -> Result<RunOutcome, EngineError> {
    let spec = prepared.spec();
    let f = prepared.function().ok_or_else(heal_is_16_bit)?;
    let mut sys = GaSystem32Hw::new(move |c: u32| f.eval_u32_split(c));
    sys.program(&spec.params);
    let start_cycles = sys.cycles();
    let mut deadline = spec.deadline_ms.map(Deadline::after_ms);
    let run = sys
        .run_with_deadline(limits.sim_watchdog_cycles, deadline.as_mut())
        .map_err(map_sim_error)?;
    let trajectory = trajectory32(&run.history);
    Ok(RunOutcome {
        best_chrom: run.best.chrom,
        best_fitness: run.best.fitness,
        generations: spec.params.n_gens,
        evaluations: run.evaluations,
        conv_gen: convergence_generation(&trajectory, spec.params.pop_size),
        cycles: Some(sys.cycles() - start_cycles),
        rng_draws: None,
        trajectory,
    })
}

/// Map the simulator's error type onto the engine contract.
fn map_sim_error(e: SimError) -> EngineError {
    match e {
        SimError::Timeout { cycles } => EngineError::Watchdog { cycles },
        SimError::DeadlineExceeded { .. } => EngineError::DeadlineExceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use ga_core::GaParams;
    use ga_fitness::TestFunction;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn spec(width: u8, backendless_params: GaParams) -> RunSpec {
        RunSpec {
            width,
            workload: Workload::Function(TestFunction::Bf6),
            params: backendless_params,
            deadline_ms: None,
        }
    }

    fn run_on(e: &dyn Engine, s: RunSpec) -> Result<RunOutcome, EngineError> {
        let p = e.prepare(s)?;
        e.run(&p, &Limits::default())
    }

    #[test]
    fn an_empty_pack_has_no_results_on_every_kind() {
        for kind in BackendKind::ALL {
            let results = kind.engine().run_pack(&[], &Limits::default());
            assert!(results.is_empty(), "{}", kind.name());
        }
    }

    #[test]
    fn behavioral_and_bitsim_agree_exactly() {
        let s = spec(16, GaParams::new(16, 6, 10, 1, 0x2961));
        let a = run_on(BackendKind::Behavioral.engine(), s).expect("behavioral runs");
        let b = run_on(BackendKind::BitSim64.engine(), s).expect("bitsim runs");
        assert_eq!(a, b, "netlist-streamed lane must match the reference RNG");
    }

    #[test]
    fn rtl_reports_cycles_and_matching_best() {
        let s = spec(16, GaParams::new(8, 4, 10, 1, 0x061F));
        let r = run_on(BackendKind::RtlInterp.engine(), s).expect("rtl runs");
        let b = run_on(BackendKind::Behavioral.engine(), s).expect("behavioral runs");
        assert!(r.cycles.expect("rtl reports cycles") > 0);
        assert_eq!(
            (r.best_chrom, r.best_fitness),
            (b.best_chrom, b.best_fitness),
            "engines must agree on the answer"
        );
        assert_eq!(r.evaluations, b.evaluations, "evaluation formula");
        assert_eq!(r.trajectory, b.trajectory, "probe matches the model");
    }

    #[test]
    fn rtl32_matches_the_behavioral_dual_core_model() {
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let mut s = spec(32, params);
        s.workload = Workload::Function(TestFunction::F3);
        let hw = run_on(BackendKind::Rtl32.engine(), s).expect("rtl32 runs");
        let f = TestFunction::F3;
        let sw = GaEngine::new32(params, CaRng::new(params.seed), move |c| {
            f.eval_u32_split(c)
        })
        .run();
        assert_eq!(hw.best_chrom, sw.best.chrom);
        assert_eq!(hw.best_fitness, sw.best.fitness);
        assert_eq!(hw.trajectory, trajectory32(&sw.history));
        assert_eq!(hw.evaluations, params.evaluations_per_run());
        assert!(hw.cycles.expect("rtl32 reports cycles") > 0);
    }

    #[test]
    fn rtl_job_reads_each_evaluation_once() {
        // The lookup FEM computes words on read, so an `rtl` job must
        // call the fitness function exactly once per evaluation: never
        // on idle cycles, never for a table build.
        for (pop, gens, expect) in [(16, 8, 136), (24, 16, 392), (32, 32, 1024)] {
            let mut s = spec(16, GaParams::new(pop, gens, 10, 1, 0x2961));
            s.workload = Workload::Function(TestFunction::MShubert2D);
            let reads = Arc::new(AtomicU64::new(0));
            let counter = reads.clone();
            let workload = s.workload;
            let counted = run_rtl(&s, &Limits::default(), move |c| {
                counter.fetch_add(1, Ordering::Relaxed);
                workload.eval_u16(c)
            })
            .expect("rtl runs");
            let n = reads.load(Ordering::Relaxed);
            assert_eq!(n, s.params.evaluations_per_run(), "pop {pop} gens {gens}");
            assert_eq!(n, expect);
            assert_eq!(
                counted,
                run_on(BackendKind::RtlInterp.engine(), s).expect("rtl runs")
            );
        }
    }

    #[test]
    fn healing_workload_agrees_across_16_bit_backends() {
        // The heal workload must be served bit-identically by the
        // closure path (behavioral, bitsim, swga) and the lookup-FEM
        // path (cycle-accurate RTL).
        let mut s = spec(16, GaParams::new(16, 12, 10, 1, 0xB342));
        s.workload = Workload::VrcHeal {
            target: 0x9B9B,
            fault: ga_ehw::Fault::StuckAt {
                cell: 2,
                value: true,
            },
        };
        let reference = run_on(BackendKind::Behavioral.engine(), s).expect("behavioral heals");
        for e in [
            BackendKind::RtlInterp.engine(),
            BackendKind::BitSim64.engine(),
            BackendKind::BitSim128.engine(),
            BackendKind::BitSim256.engine(),
        ] {
            let r = run_on(e, s).expect("backend heals");
            assert_eq!(
                (r.best_chrom, r.best_fitness, &r.trajectory),
                (
                    reference.best_chrom,
                    reference.best_fitness,
                    &reference.trajectory
                ),
                "{:?} healing run diverged",
                e.kind()
            );
        }
        // A healing chromosome's fitness is the ehw crate's definition.
        assert_eq!(
            s.workload.eval_u16(reference.best_chrom as u16),
            reference.best_fitness
        );
    }

    #[test]
    fn width_checks_are_per_engine() {
        let s16 = spec(16, GaParams::default());
        let s32 = spec(32, GaParams::default());
        assert!(BackendKind::Behavioral.engine().prepare(s16).is_ok());
        assert_eq!(
            BackendKind::Behavioral
                .engine()
                .prepare(s32)
                .expect_err("width 32 refused"),
            EngineError::UnsupportedWidth { width: 32 }
        );
        assert!(BackendKind::Rtl32.engine().prepare(s32).is_ok());
        assert_eq!(
            BackendKind::Rtl32
                .engine()
                .prepare(s16)
                .expect_err("width 16 refused"),
            EngineError::UnsupportedWidth { width: 16 }
        );
    }

    #[test]
    fn zero_deadline_cancels_every_width16_engine() {
        for e in [
            BackendKind::Behavioral.engine(),
            BackendKind::RtlInterp.engine(),
            BackendKind::BitSim64.engine(),
            BackendKind::Swga.engine(),
        ] {
            let mut s = spec(16, GaParams::new(8, 4, 10, 1, 0xB342));
            s.deadline_ms = Some(0);
            assert_eq!(
                run_on(e, s),
                Err(EngineError::DeadlineExceeded),
                "{} must honor a 0 ms deadline",
                e.kind().name()
            );
        }
    }

    #[test]
    fn a_cancelled_run_stops_stepping_at_once() {
        // A wire-sized generation count under a 0 ms deadline: the run
        // must end at its first check, not count out the generations.
        let mut s = spec(16, GaParams::new(8, 4_294_901_760, 10, 1, 0xB342));
        s.deadline_ms = Some(0);
        let start = std::time::Instant::now();
        assert_eq!(
            run_on(BackendKind::Behavioral.engine(), s),
            Err(EngineError::DeadlineExceeded)
        );
        assert!(start.elapsed().as_secs() < 5, "{:?}", start.elapsed());
    }

    #[test]
    fn watchdogs_are_typed_and_infrastructure() {
        let s = spec(16, GaParams::new(8, 4, 10, 1, 0xB342));
        let tight = Limits {
            sim_watchdog_cycles: 10,
            stream_watchdog_steps: 4,
        };
        let run_tight = |kind: BackendKind| {
            let e = kind.engine();
            e.run(&e.prepare(s).expect("admits"), &tight)
                .expect_err("tight watchdog trips")
        };
        let rtl = run_tight(BackendKind::RtlInterp);
        assert_eq!(rtl, EngineError::Watchdog { cycles: 10 });
        let bit = run_tight(BackendKind::BitSim64);
        assert_eq!(bit, EngineError::Watchdog { cycles: 4 });
        assert!(bit.is_infrastructure());
    }

    #[test]
    fn bitsim_pack_lanes_match_solo_runs() {
        let e = BackendKind::BitSim64.engine();
        let params = GaParams::new(8, 3, 10, 1, 0);
        let packed: Vec<Prepared> = [0x1111u16, 0x2222, 0x3333]
            .iter()
            .map(|&seed| {
                e.prepare(spec(16, GaParams { seed, ..params }))
                    .expect("admits")
            })
            .collect();
        let pack = e.run_pack(&packed, &Limits::default());
        for (p, r) in packed.iter().zip(&pack) {
            let solo = e.run(p, &Limits::default()).expect("solo runs");
            assert_eq!(r.as_ref().expect("lane runs"), &solo);
        }
    }

    #[test]
    fn wide_pack_lanes_beyond_word_zero_match_solo_bitsim64() {
        // 70 jobs overflow the first 64-lane word of a 128-lane pack:
        // lanes 64..70 live in word 1 and must still equal solo 64-lane
        // runs of the same seed.
        let narrow = BackendKind::BitSim64.engine();
        let wide = BackendKind::BitSim128.engine();
        let params = GaParams::new(8, 3, 10, 1, 0);
        let packed: Vec<Prepared> = (0..70u16)
            .map(|i| {
                let seed = i.wrapping_mul(0x9E37) ^ 0x2961;
                wide.prepare(spec(16, GaParams { seed, ..params }))
                    .expect("admits")
            })
            .collect();
        let pack = wide.run_pack(&packed, &Limits::default());
        assert_eq!(pack.len(), 70);
        for (p, r) in packed.iter().zip(&pack) {
            let solo = narrow.run(p, &Limits::default()).expect("solo runs");
            assert_eq!(r.as_ref().expect("lane runs"), &solo);
        }
    }

    #[test]
    fn swga_matches_behavioral_trajectories() {
        let s = spec(16, GaParams::new(16, 8, 10, 1, 0xB342));
        let a = run_on(BackendKind::Behavioral.engine(), s).expect("behavioral runs");
        let w = run_on(BackendKind::Swga.engine(), s).expect("swga runs");
        assert_eq!(a.trajectory, w.trajectory, "same algorithm, same RNG");
        assert_eq!(a.evaluations, w.evaluations);
        assert_eq!(
            (a.best_chrom, a.best_fitness),
            (w.best_chrom, w.best_fitness)
        );
    }

    #[test]
    fn steppers_exist_exactly_where_capabilities_say() {
        let s = spec(16, GaParams::new(8, 4, 10, 1, 1));
        for e in [
            BackendKind::Behavioral.engine(),
            BackendKind::RtlInterp.engine(),
            BackendKind::BitSim64.engine(),
            BackendKind::Swga.engine(),
        ] {
            let p = e.prepare(s).expect("admits");
            assert_eq!(
                e.stepper(&p, &Limits::default()).is_ok(),
                e.capabilities().stepping,
                "{}",
                e.kind().name()
            );
        }
    }
}
