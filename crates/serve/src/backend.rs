//! Backend dispatch: every job goes through the engine table
//! ([`BackendKind::engine`]), so this module contains **no per-engine
//! drive loops** — it admits a job against its kind's capability row,
//! runs it under the service's [`ga_engine::Limits`], and applies the
//! generic degradation policy: an *infrastructure* failure (watchdog)
//! on a kind that declares a [`ga_engine::Capabilities::degrades_to`]
//! edge is re-answered by the fallback engine with typed
//! [`Degradation`] metadata instead of failing the job.

use std::time::Instant;

use ga_core::islands::IslandConfig;
use ga_engine::{EngineError, IslandsEngine, Prepared};

use crate::job::{
    BackendKind, Degradation, GaJob, HealReport, JobOutput, JobResult, ServeError, Workload,
};
use crate::service::ServeConfig;

/// The healing summary for a settled outcome: present iff the job was
/// a heal job and the run (native or degraded) completed.
fn heal_report(job: &GaJob, outcome: &Result<JobOutput, ServeError>) -> Option<HealReport> {
    match (job.workload, outcome) {
        (Workload::VrcHeal { .. }, Ok(o)) => Some(HealReport::from_outcome(o)),
        _ => None,
    }
}

/// Run one job on its selected backend, returning the full result (the
/// executing backend can differ from the requested one when an
/// infrastructure watchdog trips and the engine declares a degradation
/// edge). Validation happens here, so an out-of-range job becomes a
/// typed error result, never a panic.
pub fn run_single(job: &GaJob, i: usize, cfg: &ServeConfig) -> JobResult {
    let t = Instant::now();
    let engine = job.backend.engine();
    let (backend, outcome, degraded) = match job.islands {
        // Island jobs run the ring composite over the backend's
        // stepping handle; they never degrade — a refusal (non-stepping
        // backend, schedule mismatch) is a deterministic typed error.
        Some(cfg_islands) => (job.backend, run_islands(job, cfg_islands, cfg), None),
        None => match engine.prepare(job.spec()) {
            Err(e) => (job.backend, Err(e.into()), None),
            Ok(p) => settle(job, engine.run(&p, &cfg.limits), cfg),
        },
    };
    let heal = heal_report(job, &outcome);
    JobResult {
        job: i,
        backend,
        outcome,
        micros: t.elapsed().as_micros() as u64,
        degraded,
        heal,
    }
}

/// Execute an island job: the ring-migration composite
/// ([`ga_engine::IslandsEngine`]) over the requested backend, folded
/// into the standard [`JobOutput`] shape — the ring-wide best, the
/// summed evaluations, the full `epoch × epochs` generation budget.
/// Per-generation trajectory and convergence metrics are per-island
/// quantities and are deliberately absent from the aggregate.
fn run_islands(
    job: &GaJob,
    config: IslandConfig,
    cfg: &ServeConfig,
) -> Result<JobOutput, ServeError> {
    job.validate()?;
    let ring = IslandsEngine::new(job.backend.engine(), config)
        .map_err(ServeError::from)?
        .with_limits(cfg.limits);
    let run = ring.run(job.spec()).map_err(ServeError::from)?;
    Ok(JobOutput {
        best_chrom: run.best.chrom as u32,
        best_fitness: run.best.fitness,
        generations: job.params.n_gens,
        evaluations: run.evaluations,
        conv_gen: None,
        cycles: None,
        rng_draws: None,
        trajectory: Vec::new(),
    })
}

/// Fold an engine result into the service's (backend, outcome,
/// degradation) triple, applying the capability-driven fallback: only
/// [`EngineError::is_infrastructure`] failures degrade, and only along
/// the requested engine's declared edge.
fn settle(
    job: &GaJob,
    result: Result<JobOutput, EngineError>,
    cfg: &ServeConfig,
) -> (
    BackendKind,
    Result<JobOutput, ServeError>,
    Option<Degradation>,
) {
    match result {
        Ok(o) => (job.backend, Ok(o), None),
        Err(e) => {
            let caps = job.backend.capabilities();
            match caps.degrades_to.filter(|_| e.is_infrastructure()) {
                None => (job.backend, Err(e.into()), None),
                Some(to) => {
                    let fallback = to.engine();
                    let outcome = fallback
                        .prepare(job.spec())
                        .and_then(|p| fallback.run(&p, &cfg.limits))
                        .map_err(ServeError::from);
                    (
                        to,
                        outcome,
                        Some(Degradation {
                            from: job.backend,
                            reason: e.into(),
                        }),
                    )
                }
            }
        }
    }
}

/// Run a pack of compatible jobs (`idxs` index into `all`; at most the
/// engine's pack width, all sharing one [`GaJob::pack_key`]): one
/// [`ga_engine::Engine::run_pack`] invocation shares the lockstep work
/// across the lanes the engine admits. A lane it does not admit gets
/// its own typed error result, as [`run_single`] would give it.
/// Per-job latency charges each job an even share of the shared pack
/// time plus its own settling time. If the engine fails a lane on
/// infrastructure, that lane degrades along the engine's declared edge
/// like any solo job.
pub fn run_pack(all: &[GaJob], idxs: &[usize], cfg: &ServeConfig) -> Vec<JobResult> {
    let Some(&first) = idxs.first() else {
        return Vec::new();
    };
    let kind = all[first].backend;
    debug_assert!(idxs.iter().all(|&i| all[i].backend == kind));
    let engine = kind.engine();
    let t = Instant::now();
    let admitted: Vec<Result<Prepared, EngineError>> = idxs
        .iter()
        .map(|&i| engine.prepare(all[i].spec()))
        .collect();
    let prepared: Vec<Prepared> = admitted.iter().flatten().copied().collect();
    let mut ran = if prepared.is_empty() {
        Vec::new()
    } else {
        engine.run_pack(&prepared, &cfg.limits)
    }
    .into_iter();
    let shared_micros = t.elapsed().as_micros() as u64 / idxs.len() as u64;

    idxs.iter()
        .zip(admitted)
        .map(|(&i, lane)| {
            let t = Instant::now();
            let result = lane.and_then(|_| {
                ran.next().unwrap_or_else(|| {
                    Err(EngineError::InvalidSpec {
                        msg: format!("{} returned no result for this lane", kind.name()),
                    })
                })
            });
            let (backend, outcome, degraded) = settle(&all[i], result, cfg);
            let heal = heal_report(&all[i], &outcome);
            JobResult {
                job: i,
                backend,
                outcome,
                micros: shared_micros + t.elapsed().as_micros() as u64,
                degraded,
                heal,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_core::GaParams;
    use ga_engine::Limits;
    use ga_fitness::TestFunction;

    fn run(job: &GaJob) -> Result<JobOutput, ServeError> {
        run_single(job, 0, &ServeConfig::default()).outcome
    }

    #[test]
    fn behavioral_and_bitsim_agree_exactly() {
        let params = GaParams::new(16, 6, 10, 1, 0x2961);
        let beh = GaJob::new(TestFunction::Bf6, BackendKind::Behavioral, params);
        let bit = GaJob::new(TestFunction::Bf6, BackendKind::BitSim64, params);
        let a = run(&beh).expect("behavioral runs");
        let b = run(&bit).expect("bitsim runs");
        assert_eq!(a, b, "netlist-streamed lane must match the reference RNG");
    }

    #[test]
    fn rtl_reports_cycles_and_matching_best() {
        let params = GaParams::new(8, 4, 10, 1, 0x061F);
        let rtl = GaJob::new(TestFunction::F3, BackendKind::RtlInterp, params);
        let beh = GaJob::new(TestFunction::F3, BackendKind::Behavioral, params);
        let r = run(&rtl).expect("rtl runs");
        let b = run(&beh).expect("behavioral runs");
        assert!(r.cycles.expect("rtl reports cycles") > 0);
        assert_eq!(
            (r.best_chrom, r.best_fitness),
            (b.best_chrom, b.best_fitness),
            "engines must agree on the answer"
        );
        assert_eq!(r.evaluations, b.evaluations, "evaluation formula");
    }

    #[test]
    fn rtl32_serves_width32_jobs() {
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let job = GaJob::new32(TestFunction::F3, params);
        let r = run_single(&job, 0, &ServeConfig::default());
        assert_eq!(r.backend, BackendKind::Rtl32);
        let o = r.outcome.expect("rtl32 runs");
        assert!(o.cycles.expect("rtl32 reports cycles") > 0);
        assert_eq!(o.evaluations, params.evaluations_per_run());
        assert!(o.best_chrom > u16::MAX as u32, "a real 32-bit answer");
    }

    #[test]
    fn zero_deadline_cancels_each_backend() {
        let params = GaParams::new(8, 4, 10, 1, 0xB342);
        for backend in BackendKind::ALL {
            // Aim each job at a width its backend actually implements,
            // so the deadline — not the width gate — is what fires.
            let width = backend.capabilities().widths[0];
            let job = GaJob {
                width,
                ..GaJob::new(TestFunction::F2, backend, params).with_deadline_ms(0)
            };
            assert_eq!(
                run(&job),
                Err(ServeError::DeadlineExceeded),
                "{} must honor a 0 ms deadline",
                backend.name()
            );
        }
    }

    #[test]
    fn rtl_watchdog_is_typed() {
        let params = GaParams::new(8, 4, 10, 1, 0xB342);
        let job = GaJob::new(TestFunction::F2, BackendKind::RtlInterp, params);
        let cfg = ServeConfig {
            limits: Limits {
                sim_watchdog_cycles: 10,
                ..Limits::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            run_single(&job, 0, &cfg).outcome,
            Err(ServeError::Watchdog { cycles: 10 })
        ));
    }

    #[test]
    fn island_jobs_run_the_ring_composite_exactly() {
        let params = GaParams::new(16, 12, 10, 1, 0x2961);
        let config = IslandConfig {
            islands: 3,
            epoch: 4,
            epochs: 3,
        };
        let job =
            GaJob::new(TestFunction::Bf6, BackendKind::Behavioral, params).with_islands(config);
        let out = run(&job).expect("island job runs");

        // The serve answer is the engine composite's answer, verbatim.
        let direct = IslandsEngine::new(BackendKind::Behavioral.engine(), config)
            .expect("steps")
            .run(job.spec())
            .expect("runs");
        assert_eq!(out.best_chrom, direct.best.chrom as u32);
        assert_eq!(out.best_fitness, direct.best.fitness);
        assert_eq!(out.evaluations, direct.evaluations);
        assert_eq!(out.generations, 12);

        // And the lane-stream backend answers bit-identically.
        let bit = GaJob {
            backend: BackendKind::BitSim64,
            ..job
        };
        assert_eq!(run(&bit), Ok(out), "bitsim ring must match behavioral");
    }

    #[test]
    fn island_jobs_on_non_stepping_backends_fail_typed() {
        let params = GaParams::new(16, 12, 10, 1, 0x2961);
        let job =
            GaJob::new(TestFunction::Bf6, BackendKind::Swga, params).with_islands(IslandConfig {
                islands: 2,
                epoch: 6,
                epochs: 2,
            });
        let r = run_single(&job, 0, &ServeConfig::default());
        assert!(matches!(r.outcome, Err(ServeError::InvalidJob { .. })));
        assert_eq!(r.degraded, None, "island refusals never degrade");
    }

    #[test]
    fn invalid_params_fail_validation_not_panic() {
        let mut job = GaJob::new(
            TestFunction::F2,
            BackendKind::Behavioral,
            GaParams::default(),
        );
        job.params.n_gens = 0;
        assert!(matches!(run(&job), Err(ServeError::InvalidJob { .. })));
    }

    #[test]
    fn a_pack_lane_its_engine_refuses_gets_its_own_typed_error() {
        let params = GaParams::new(16, 6, 10, 1, 0x2961);
        let job = |pop_size, seed| {
            GaJob::new(
                TestFunction::Bf6,
                BackendKind::BitSim64,
                GaParams {
                    pop_size,
                    seed,
                    ..params
                },
            )
        };
        // The middle lane's population is below the hardware minimum.
        let all = [job(16, 0x2961), job(1, 0x2961), job(16, 0x061F)];
        let results = run_pack(&all, &[0, 1, 2], &ServeConfig::default());
        assert_eq!(results.len(), 3);
        for (k, r) in results.iter().enumerate() {
            assert_eq!(r.job, k);
            assert_eq!(r.backend, BackendKind::BitSim64);
            assert_eq!(r.degraded, None);
            // Each lane answers as its solo run does: the refused one
            // with the typed error, the others with their results.
            assert_eq!(r.outcome, run(&all[k]), "lane {k}");
        }
        assert!(matches!(
            results[1].outcome,
            Err(ServeError::InvalidJob { .. })
        ));
        assert!(results[0].outcome.is_ok() && results[2].outcome.is_ok());
        assert_eq!(
            run_pack(&all, &[1], &ServeConfig::default())[0].outcome,
            run(&all[1])
        );
    }

    #[test]
    fn bitsim_watchdog_degrades_solo_jobs_to_behavioral() {
        let params = GaParams::new(16, 6, 10, 1, 0x2961);
        let bit = GaJob::new(TestFunction::Bf6, BackendKind::BitSim64, params);
        let beh = GaJob::new(TestFunction::Bf6, BackendKind::Behavioral, params);
        let cfg = ServeConfig {
            limits: Limits {
                stream_watchdog_steps: 4, // far below the needed draw count
                ..Limits::default()
            },
            ..Default::default()
        };
        let r = run_single(&bit, 7, &cfg);
        assert_eq!(r.job, 7);
        assert_eq!(r.backend, BackendKind::Behavioral, "executed by fallback");
        assert_eq!(
            r.degraded,
            Some(Degradation {
                from: BackendKind::BitSim64,
                reason: ServeError::Watchdog { cycles: 4 },
            })
        );
        // The degraded answer is the behavioral answer, not a failure.
        assert_eq!(r.outcome, run(&beh), "fallback result matches behavioral");
    }
}
