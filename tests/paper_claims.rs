//! The paper's quantitative claims as **table-driven regression
//! tests**: every expectation row names the paper table or figure it
//! encodes, the exact setting (function, seed, population, thresholds),
//! and the measured-by-this-implementation floor it must keep meeting.
//! The tolerances are explicit constants below — a failure means either
//! a real engine regression (the rows are deterministic: same seed ⇒
//! same run) or a deliberate algorithm change that must update the
//! tables consciously.
//!
//! All runs dispatch through the engine table (`run_via`) — the
//! cycle-accurate `rtl` backend by default, and Table V additionally on
//! every registered 16-bit backend, which the conformance suite proves
//! trajectory-identical.

use carng::seeds::TABLE7_SEEDS;
use ga_engine::{BackendKind, Limits, RunOutcome, RunSpec};
use ga_ip::prelude::*;

// ---------------------------------------------------------------------
// Explicit tolerances.
// ---------------------------------------------------------------------

/// Abstract: solutions are "within 3.7% of the value of the globally
/// optimal solution".
const ABSTRACT_GAP_PCT: f64 = 3.7;

/// A run counts as converged once its best fitness reaches this
/// fraction of the run's final best (the paper's figures show the
/// best-fitness curve flat; with a different RNG the *last* marginal
/// improvement can land late, so "within 2% of final" is the robust
/// reading of "found the best solution").
const NEAR_BEST_FRACTION: f64 = 0.98;

/// Slack in generations on top of each row's measured settling
/// generation (the 5%-average-change rule of `convergence_generation`).
const SETTLE_MARGIN_GENS: u32 = 4;

/// §IV-B: at least one figure run evaluates "less than 1.1% of the
/// solution space"; every figure run must stay under 3%.
const SEARCH_FRACTION_ANY: f64 = 0.011;
const SEARCH_FRACTION_ALL: f64 = 0.03;

/// Dispatch one run to a registered backend at its native width.
fn run_via(kind: BackendKind, f: TestFunction, params: &GaParams) -> RunOutcome {
    let engine = kind.engine();
    let spec = RunSpec {
        width: engine.capabilities().widths[0],
        workload: ga_engine::Workload::Function(f),
        params: *params,
        deadline_ms: None,
    };
    let prepared = engine.prepare(spec).expect("claim row admitted");
    engine
        .run(&prepared, &Limits::default())
        .expect("claim row runs")
}

fn run_hw(f: TestFunction, params: &GaParams) -> RunOutcome {
    run_via(BackendKind::RtlInterp, f, params)
}

/// First generation whose best fitness reaches
/// `NEAR_BEST_FRACTION × final best`.
fn near_best_generation(run: &RunOutcome) -> u32 {
    let near = (run.best_fitness as f64 * NEAR_BEST_FRACTION) as u16;
    run.trajectory
        .iter()
        .find(|s| s.best_fitness >= near)
        .map(|s| s.gen)
        .expect("final generation always qualifies")
}

// ---------------------------------------------------------------------
// Table V — RT-level simulation runs 1–10 (pop 32/64, 32 generations).
// ---------------------------------------------------------------------

struct Table5Expectation {
    run: u8,
    f: TestFunction,
    seed: u16,
    pop: u8,
    xover: u8,
    /// Best fitness this implementation reaches (deterministic floor).
    min_best: u16,
    /// Settling generation measured at the floor; asserted with
    /// `SETTLE_MARGIN_GENS` slack.
    settle_by: u32,
}

/// Measured on this implementation's CA-RNG (the authors' RNG rule
/// vector is unpublished, so the per-row values differ from the printed
/// table while the qualitative shape reproduces — see EXPERIMENTS.md).
const TABLE5_EXPECTATIONS: [Table5Expectation; 10] = [
    Table5Expectation {
        run: 1,
        f: TestFunction::Bf6,
        seed: 45890,
        pop: 32,
        xover: 10,
        min_best: 4167,
        settle_by: 31,
    },
    Table5Expectation {
        run: 2,
        f: TestFunction::Bf6,
        seed: 45890,
        pop: 64,
        xover: 10,
        min_best: 4182,
        settle_by: 31,
    },
    Table5Expectation {
        run: 3,
        f: TestFunction::Bf6,
        seed: 10593,
        pop: 32,
        xover: 10,
        min_best: 4265,
        settle_by: 1,
    },
    Table5Expectation {
        run: 4,
        f: TestFunction::Bf6,
        seed: 1567,
        pop: 32,
        xover: 10,
        min_best: 4238,
        settle_by: 26,
    },
    Table5Expectation {
        run: 5,
        f: TestFunction::Bf6,
        seed: 1567,
        pop: 32,
        xover: 12,
        min_best: 4251,
        settle_by: 28,
    },
    Table5Expectation {
        run: 6,
        f: TestFunction::F2,
        seed: 45890,
        pop: 32,
        xover: 10,
        min_best: 3052,
        settle_by: 14,
    },
    Table5Expectation {
        run: 7,
        f: TestFunction::F2,
        seed: 45890,
        pop: 64,
        xover: 10,
        min_best: 3048,
        settle_by: 13,
    },
    Table5Expectation {
        run: 8,
        f: TestFunction::F2,
        seed: 10593,
        pop: 64,
        xover: 10,
        min_best: 3060,
        settle_by: 6,
    },
    Table5Expectation {
        run: 9,
        f: TestFunction::F2,
        seed: 10593,
        pop: 32,
        xover: 12,
        min_best: 3060,
        settle_by: 9,
    },
    Table5Expectation {
        run: 10,
        f: TestFunction::F3,
        seed: 1567,
        pop: 32,
        xover: 10,
        min_best: 3060,
        settle_by: 8,
    },
];

#[test]
fn table_v_best_fitness_and_settling_generation() {
    // Every registered 16-bit backend must meet every row's floor —
    // the engine table is the source of truth for what "the engine" is.
    let kinds = BackendKind::supporting_width(16);
    assert!(kinds.len() >= 4, "expected every 16-bit engine registered");
    for row in &TABLE5_EXPECTATIONS {
        let params = GaParams::new(row.pop, 32, row.xover, 1, row.seed);
        for &kind in &kinds {
            let run = run_via(kind, row.f, &params);
            assert!(
                run.best_fitness >= row.min_best,
                "Table V run {} on {}: best {} fell below the recorded {}",
                row.run,
                kind.name(),
                run.best_fitness,
                row.min_best
            );
            let settle = run.conv_gen.unwrap_or(params.n_gens);
            assert!(
                settle <= row.settle_by + SETTLE_MARGIN_GENS,
                "Table V run {} on {}: settled at generation {settle}, bound {} (+{SETTLE_MARGIN_GENS})",
                row.run,
                kind.name(),
                row.settle_by
            );
        }
    }
}

// ---------------------------------------------------------------------
// Tables VII–IX — the hardware grid: TABLE7_SEEDS × pop {32,64} ×
// xover {10,12}, 64 generations, mutation 1/16.
// ---------------------------------------------------------------------

struct GridExpectation {
    table: &'static str,
    f: TestFunction,
    /// Grid-wide best this implementation reaches (deterministic).
    grid_best: u16,
    /// Settings (of 24) that find the global optimum — Table IX's
    /// "more than one globally optimal solution" claim generalized.
    min_optimal_settings: usize,
}

const GRID_EXPECTATIONS: [GridExpectation; 3] = [
    GridExpectation {
        table: "VII",
        f: TestFunction::Mbf6_2,
        grid_best: 8184,
        min_optimal_settings: 1,
    },
    GridExpectation {
        table: "VIII",
        f: TestFunction::Mbf7_2,
        grid_best: 63995,
        min_optimal_settings: 6,
    },
    GridExpectation {
        table: "IX",
        f: TestFunction::MShubert2D,
        grid_best: 65535,
        min_optimal_settings: 20,
    },
];

#[test]
fn tables_vii_ix_grid_best_within_abstract_tolerance() {
    for exp in &GRID_EXPECTATIONS {
        let optimum = exp.f.global_max();
        let mut grid_best = 0u16;
        let mut optimal_settings = 0usize;
        for &seed in &TABLE7_SEEDS {
            for pop in [32u8, 64] {
                for xover in [10u8, 12] {
                    let params = GaParams::new(pop, 64, xover, 1, seed);
                    let best = run_hw(exp.f, &params).best_fitness;
                    grid_best = grid_best.max(best);
                    if best == optimum {
                        optimal_settings += 1;
                    }
                }
            }
        }
        assert!(
            grid_best >= exp.grid_best,
            "Table {}: grid best {grid_best} fell below the recorded {}",
            exp.table,
            exp.grid_best
        );
        let gap = 100.0 * (optimum as f64 - grid_best as f64) / optimum as f64;
        assert!(
            gap <= ABSTRACT_GAP_PCT,
            "Table {}: best {grid_best} is {gap:.2}% below optimum {optimum} (claim: ≤{ABSTRACT_GAP_PCT}%)",
            exp.table
        );
        assert!(
            optimal_settings >= exp.min_optimal_settings,
            "Table {}: only {optimal_settings} of 24 settings found the optimum (recorded {})",
            exp.table,
            exp.min_optimal_settings
        );
    }
}

// ---------------------------------------------------------------------
// Figs. 13–16 — hardware convergence curves (§IV-B): "the GA core finds
// the best solution within the first 10 generations" and "evaluates
// less than 1.1% of the solution space before finding the best
// solution".
// ---------------------------------------------------------------------

struct FigureExpectation {
    fig: &'static str,
    f: TestFunction,
    seed: u16,
    xover: u8,
    /// Generations-to-converge upper bound (paper: 10; measured: ≤7).
    converge_by: u32,
}

const FIGURE_EXPECTATIONS: [FigureExpectation; 4] = [
    FigureExpectation {
        fig: "13",
        f: TestFunction::Mbf6_2,
        seed: 0x061F,
        xover: 10,
        converge_by: 10,
    },
    FigureExpectation {
        fig: "14",
        f: TestFunction::Mbf6_2,
        seed: 0xA0A0,
        xover: 10,
        converge_by: 10,
    },
    FigureExpectation {
        fig: "15",
        f: TestFunction::Mbf7_2,
        seed: 0xAAAA,
        xover: 12,
        converge_by: 10,
    },
    FigureExpectation {
        fig: "16",
        f: TestFunction::MShubert2D,
        seed: 0xAAAA,
        xover: 10,
        converge_by: 10,
    },
];

#[test]
fn figures_13_16_converge_within_ten_generations() {
    let mut min_fraction = f64::MAX;
    for exp in &FIGURE_EXPECTATIONS {
        let params = GaParams::new(64, 64, exp.xover, 1, exp.seed);
        let run = run_hw(exp.f, &params);
        let found_at = near_best_generation(&run);
        assert!(
            found_at <= exp.converge_by,
            "Fig. {}: {}%-of-best only reached at generation {found_at}, bound {}",
            exp.fig,
            NEAR_BEST_FRACTION * 100.0,
            exp.converge_by
        );
        // Candidates evaluated before convergence: initial population
        // plus pop−1 offspring per generation, over a 2^16 space.
        let evaluated = 64 + found_at as u64 * 63;
        let fraction = evaluated as f64 / 65536.0;
        min_fraction = min_fraction.min(fraction);
        assert!(
            fraction < SEARCH_FRACTION_ALL,
            "Fig. {}: evaluated {:.2}% of the space",
            exp.fig,
            fraction * 100.0
        );
    }
    assert!(
        min_fraction < SEARCH_FRACTION_ANY,
        "no run matched the paper's <{:.1}% search fraction: best {:.3}%",
        SEARCH_FRACTION_ANY * 100.0,
        min_fraction * 100.0
    );
}

// ---------------------------------------------------------------------
// Cross-cutting claims.
// ---------------------------------------------------------------------

/// §IV-A (Table V discussion): "when the RNG seed is changed ... the
/// convergence of the GA is better and the global optimum is found
/// under the exact same settings" — seed choice must change the
/// outcome.
#[test]
fn seed_changes_the_outcome_under_fixed_parameters() {
    let results: Vec<u16> = TABLE7_SEEDS
        .iter()
        .map(|&seed| {
            let params = GaParams::new(32, 32, 10, 1, seed);
            run_hw(TestFunction::Bf6, &params).best_fitness
        })
        .collect();
    let distinct: std::collections::HashSet<u16> = results.iter().copied().collect();
    assert!(
        distinct.len() >= 3,
        "seeds barely matter? results {results:?}"
    );
}

/// §IV-C: the hardware GA beats the modeled software implementation by
/// the paper's magnitude (5.16×; we accept 2×–20× as the same shape).
#[test]
fn speedup_is_paper_magnitude() {
    let report = swga::speedup_experiment(swga::PpcCostModel::default(), 6);
    assert!(
        report.speedup >= 2.0 && report.speedup <= 20.0,
        "speedup {:.2}× out of band",
        report.speedup
    );
    // Paper's software time is 37.615 ms; the model must land within
    // one order of magnitude.
    assert!(report.sw_seconds > 3.7e-3 && report.sw_seconds < 0.38);
}

/// Table VI: resource/timing figures from the synthesized netlist.
#[test]
fn table_vi_reproduces() {
    let (_, report) = ga_ip::ga_synth::elaborate_ga_core();
    assert!(
        (8..=18).contains(&report.slice_pct),
        "slices {}%",
        report.slice_pct
    );
    assert!(
        report.timing.fmax_mhz >= 50.0,
        "fmax {:.1}",
        report.timing.fmax_mhz
    );
    // Block-memory rows are exact.
    assert_eq!(ga_ip::ga_fitness::rom::bram16_count(256, 32), 1);
    assert_eq!(ga_ip::ga_fitness::rom::bram16_count(1 << 16, 16), 64);
}
