//! End-to-end service tests, including the 200-job mixed-backend
//! acceptance batch: deterministic, input-ordered output at every
//! thread count, with packed bitsim lanes bit-identical to solo runs.

use carng::seeds::{PRESET_SEEDS, TABLE5_SEEDS};
use carng::CaRng;
use ga_core::{GaEngine, GaParams};
use ga_engine::draws_per_run;
use ga_fitness::TestFunction;
use ga_serve::{jsonl, serve_batch, BackendKind, GaJob, JobResult, ServeConfig, ServeError};

/// The acceptance fixture: 200 jobs cycling through every registered
/// backend (including 32-bit jobs on the ganged `rtl32` composite),
/// all six fitness functions, and a few parameter shapes (including two
/// bitsim shapes so packing produces multiple groups with tails).
fn mixed_batch_200() -> Vec<GaJob> {
    let shapes = [
        GaParams::new(16, 6, 10, 1, 1),
        GaParams::new(15, 4, 12, 2, 1), // odd population
        GaParams::new(8, 8, 13, 3, 1),
    ];
    (0..200)
        .map(|i| {
            let backend = BackendKind::ALL[i % BackendKind::ALL.len()];
            let function = TestFunction::ALL[i % TestFunction::ALL.len()];
            let mut params = shapes[(i / 3) % shapes.len()];
            // The cycle-accurate interpreters are the slow path; keep
            // their jobs small.
            if matches!(backend, BackendKind::RtlInterp | BackendKind::Rtl32) {
                params = GaParams::new(8, 4, 10, 1, 1);
            }
            params.seed = (i as u16).wrapping_mul(2654).wrapping_add(17);
            if backend == BackendKind::Rtl32 {
                GaJob::new32(function, params)
            } else {
                GaJob::new(function, backend, params)
            }
        })
        .collect()
}

#[test]
fn acceptance_200_job_batch_is_deterministic_and_input_ordered() {
    let jobs = mixed_batch_200();
    let reference = serve_batch(&jobs, &ServeConfig::default());
    assert_eq!(reference.results.len(), jobs.len());
    for (i, r) in reference.results.iter().enumerate() {
        assert_eq!(r.job, i, "results must come back in input order");
        assert_eq!(r.backend, jobs[i].backend);
        assert!(r.outcome.is_ok(), "job {i} failed: {:?}", r.outcome);
    }
    assert_eq!(reference.stats.jobs(), 200);
    assert_eq!(reference.stats.errors(), 0);
    assert!(reference.stats.packs >= 2, "bitsim jobs should pack");

    // Identical payloads and identical packs at every thread count
    // (timing differs, so compare the deterministic fields only): the
    // whole batch is queued before the workers start, and each worker
    // pops a job and gathers its pack-mates under one queue lock, so no
    // pack is ever split between workers.
    let payload = |rs: &[JobResult]| -> Vec<_> {
        rs.iter()
            .map(|r| (r.job, r.backend, r.outcome.clone()))
            .collect::<Vec<_>>()
    };
    for threads in [1, 2, 7, 16] {
        let cfg = ServeConfig {
            threads,
            queue_capacity: 3, // sizes the listener's queue only
            ..ServeConfig::default()
        };
        let got = serve_batch(&jobs, &cfg);
        assert_eq!(
            payload(&got.results),
            payload(&reference.results),
            "results changed with {threads} threads"
        );
        assert_eq!(
            (got.stats.packs, got.stats.packed_lanes),
            (reference.stats.packs, reference.stats.packed_lanes),
            "packs changed with {threads} threads"
        );
    }
}

#[test]
fn packed_lane_equals_solo_run_even_in_the_tail() {
    // 67 compatible bitsim jobs: one full 64-lane pack plus a 3-lane
    // tail pack. Every lane must equal the same job run solo.
    let jobs: Vec<GaJob> = (0..67)
        .map(|i| {
            GaJob::new(
                TestFunction::Bf6,
                BackendKind::BitSim64,
                GaParams::new(12, 5, 10, 1, 0x1000 + i as u16),
            )
        })
        .collect();
    let packed = serve_batch(&jobs, &ServeConfig::default());
    assert_eq!(packed.stats.packs, 2);
    assert_eq!(packed.stats.packed_lanes, 67);

    for (job, r) in jobs.iter().zip(&packed.results) {
        let solo = serve_batch(std::slice::from_ref(job), &ServeConfig::default());
        assert_eq!(
            r.outcome, solo.results[0].outcome,
            "packed lane for seed {:#06x} differs from its solo run",
            job.params.seed
        );
    }
}

#[test]
fn jobs_with_a_deadline_run_solo_with_unchanged_results() {
    // A packed lane runs until its whole pack ends, so a deadline,
    // which counts the job's own run, keeps a job out of packs.
    let jobs: Vec<GaJob> = (0..3)
        .map(|i| {
            GaJob::new(
                TestFunction::Bf6,
                BackendKind::BitSim64,
                GaParams::new(12, 5, 10, 1, 0x1000 + i as u16),
            )
        })
        .collect();
    let packed = serve_batch(&jobs, &ServeConfig::default());
    assert_eq!((packed.stats.packs, packed.stats.packed_lanes), (1, 3));
    let timed: Vec<GaJob> = jobs.iter().map(|j| j.with_deadline_ms(60_000)).collect();
    let solo = serve_batch(&timed, &ServeConfig::default());
    assert_eq!((solo.stats.packs, solo.stats.packed_lanes), (0, 0));
    for (p, s) in packed.results.iter().zip(&solo.results) {
        assert!(s.outcome.is_ok(), "{:?}", s.outcome);
        assert_eq!(p.outcome, s.outcome);
    }
}

#[test]
fn draw_schedule_formula_matches_engine_instrumentation() {
    // The packing layer pre-computes how many draws to extract per lane;
    // if this drifts from the engine's actual consumption, packed runs
    // would truncate. Check the formula against `rng_draws()` across
    // shapes, including the paper's Table IV presets.
    for params in [
        GaParams::new(2, 1, 10, 1, 7),
        GaParams::new(8, 4, 10, 1, 7),
        GaParams::new(15, 3, 12, 2, 7),
        GaParams::new(32, 512, 12, 1, 7),
        GaParams::new(64, 64, 13, 2, 7),
        GaParams::new(128, 4, 14, 3, 7),
    ] {
        let mut engine = GaEngine::new(params, CaRng::new(params.seed), |c| {
            TestFunction::F2.eval_u16(c)
        });
        engine.init_population();
        for _ in 0..params.n_gens {
            engine.step_generation();
        }
        assert_eq!(
            draws_per_run(&params),
            engine.rng_draws(),
            "draw formula wrong for pop {} gens {}",
            params.pop_size,
            params.n_gens
        );
    }
}

#[test]
fn all_width16_backends_agree_on_the_answer() {
    let kinds = BackendKind::supporting_width(16);
    assert!(kinds.len() >= 4, "expected every 16-bit engine registered");
    for &seed in PRESET_SEEDS.iter().chain(&TABLE5_SEEDS) {
        let params = GaParams::new(16, 8, 10, 1, seed);
        let outs: Vec<_> = kinds
            .iter()
            .map(|&b| {
                let job = GaJob::new(TestFunction::Mbf6_2, b, params);
                serve_batch(&[job], &ServeConfig::default()).results[0]
                    .outcome
                    .clone()
                    .expect("backend runs")
            })
            .collect();
        for (kind, out) in kinds.iter().zip(&outs).skip(1) {
            assert_eq!(
                (outs[0].best_chrom, outs[0].best_fitness),
                (out.best_chrom, out.best_fitness),
                "behavioral vs {}, seed {seed}",
                kind.name()
            );
            assert_eq!(
                outs[0].conv_gen,
                out.conv_gen,
                "{} seed {seed}",
                kind.name()
            );
            assert_eq!(
                outs[0].evaluations,
                out.evaluations,
                "{} seed {seed}",
                kind.name()
            );
        }
    }
}

#[test]
fn errors_are_per_job_and_counted() {
    let good = GaJob::new(
        TestFunction::F2,
        BackendKind::Behavioral,
        GaParams::new(8, 4, 10, 1, 3),
    );
    let mut bad = good;
    bad.params.pop_size = 1; // below the hardware minimum
    let timed = GaJob::new(
        TestFunction::F2,
        BackendKind::RtlInterp,
        GaParams::new(8, 4, 10, 1, 3),
    )
    .with_deadline_ms(0);

    let out = serve_batch(&[good, bad, timed], &ServeConfig::default());
    assert!(out.results[0].outcome.is_ok());
    assert!(matches!(
        out.results[1].outcome,
        Err(ServeError::InvalidJob { .. })
    ));
    assert_eq!(out.results[2].outcome, Err(ServeError::DeadlineExceeded));
    assert_eq!(out.stats.jobs(), 3);
    assert_eq!(out.stats.errors(), 2);
}

#[test]
fn jobs200_fixture_is_the_acceptance_batch() {
    // `tests/fixtures/jobs200.jsonl` is what CI serves through
    // `gaserved --input` for the pack-path floors; it must stay exactly
    // this batch.
    let want: String = mixed_batch_200()
        .iter()
        .map(|job| jsonl::job_line(job) + "\n")
        .collect();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/jobs200.jsonl"
    );
    let got = std::fs::read_to_string(path).expect("read the jobs200 fixture");
    assert_eq!(got, want, "fixture drifted from mixed_batch_200()");
}
