//! # ga-bench — experiment harness shared by the table/figure binaries
//!
//! One binary per table and figure of the paper's evaluation section
//! (see DESIGN.md §4 for the index):
//!
//! | binary      | regenerates |
//! |-------------|-------------|
//! | `table5`    | Table V — RT-level results for BF6/F2/F3 |
//! | `table6`    | Table VI — post-PAR statistics |
//! | `table7_9`  | Tables VII–IX — hardware best-fitness grids |
//! | `fig7`      | Fig. 7 — BF6 function plot (CSV) |
//! | `fig8_12`   | Figs. 8–12 — RT-level convergence scatter (CSV) |
//! | `fig13_16`  | Figs. 13–16 — hardware best/avg convergence (CSV) |
//! | `speedup`   | §IV-C — hardware vs software runtime |
//! | `scaling32` | §III-D — the 32-bit dual-core composition |
//! | `rngquality`| §II-C — RNG quality statistics |
//!
//! This library holds the run matrices and harness helpers so the
//! binaries stay declarative and the tests can assert the matrices
//! match the paper.

#![forbid(unsafe_code)]

pub mod fault;
pub mod testgen;

pub use fault::{
    classify_hw, golden_hw_run, run_net_injection, run_scan_injection, ClassCounts, NetOutcome,
    ScanInjection,
};
pub use ga_harness::{
    default_threads, gens_override, grid3, json_extract_number, json_extract_string, quick, report,
    run_sweep, sweep, BenchReport, Stopwatch,
};
pub use testgen::{
    evolve_detectors, random_baseline, Detector, Probe, SiteBitmap, TestgenCtx, NET_SITES,
    SCAN_SITES, TOTAL_SITES,
};

use ga_core::{GaParams, GaSystem};
use ga_fitness::{FemBank, FemSlot, LookupFem, TestFunction};

pub use ga_engine::{BackendKind, RunOutcome};

/// One Table V row: run number, function, RNG seed, population size,
/// crossover threshold (all runs: 32 generations, mutation threshold 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table5Row {
    /// Paper run number (1–10).
    pub run: u8,
    /// Test function.
    pub function: TestFunction,
    /// RNG seed (decimal in the paper).
    pub seed: u16,
    /// Population size.
    pub pop: u8,
    /// Crossover threshold.
    pub xover: u8,
}

/// The ten experimental runs of Table V, as printed.
pub const TABLE5_RUNS: [Table5Row; 10] = [
    Table5Row {
        run: 1,
        function: TestFunction::Bf6,
        seed: 45890,
        pop: 32,
        xover: 10,
    },
    Table5Row {
        run: 2,
        function: TestFunction::Bf6,
        seed: 45890,
        pop: 64,
        xover: 10,
    },
    Table5Row {
        run: 3,
        function: TestFunction::Bf6,
        seed: 10593,
        pop: 32,
        xover: 10,
    },
    Table5Row {
        run: 4,
        function: TestFunction::Bf6,
        seed: 1567,
        pop: 32,
        xover: 10,
    },
    Table5Row {
        run: 5,
        function: TestFunction::Bf6,
        seed: 1567,
        pop: 32,
        xover: 12,
    },
    Table5Row {
        run: 6,
        function: TestFunction::F2,
        seed: 45890,
        pop: 32,
        xover: 10,
    },
    Table5Row {
        run: 7,
        function: TestFunction::F2,
        seed: 45890,
        pop: 64,
        xover: 10,
    },
    Table5Row {
        run: 8,
        function: TestFunction::F2,
        seed: 10593,
        pop: 64,
        xover: 10,
    },
    Table5Row {
        run: 9,
        function: TestFunction::F2,
        seed: 10593,
        pop: 32,
        xover: 12,
    },
    Table5Row {
        run: 10,
        function: TestFunction::F3,
        seed: 1567,
        pop: 32,
        xover: 10,
    },
];

/// Population sizes of the Tables VII–IX hardware grid.
pub const TABLE7_POPS: [u8; 2] = [32, 64];
/// Crossover thresholds of the hardware grid (XR = 10, 12).
pub const TABLE7_XRS: [u8; 2] = [10, 12];

/// Build the single-slot hardware system for a paper function.
pub fn hw_system(f: TestFunction) -> GaSystem {
    GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
        LookupFem::for_function(f),
    )]))
}

/// Run `f`/`params` on any backend through the engine table, at the backend's native chromosome width. Panics on
/// rejection or failure — the bench matrices are all known-admissible,
/// and the default [`ga_engine::Limits`] watchdog (~40 s of simulated
/// 50 MHz time) is generous.
pub fn run_on(kind: BackendKind, f: TestFunction, params: &GaParams) -> RunOutcome {
    run_workload_on(kind, ga_engine::Workload::Function(f), params)
}

/// [`run_on`] generalized to any engine-layer workload (the heal
/// campaign drives [`ga_engine::Workload::VrcHeal`] through here).
pub fn run_workload_on(
    kind: BackendKind,
    workload: ga_engine::Workload,
    params: &GaParams,
) -> RunOutcome {
    let engine = kind.engine();
    let spec = ga_engine::RunSpec {
        width: engine.capabilities().widths[0],
        workload,
        params: *params,
        deadline_ms: None,
    };
    let prepared = engine.prepare(spec).expect("bench spec admitted");
    engine
        .run(&prepared, &ga_engine::Limits::default())
        .expect("bench run completed")
}

/// Backend selection for the sweep binaries: `GA_BENCH_BACKEND=<name>`
/// reroutes a sweep onto any backend; otherwise the binary's
/// default backend is used.
pub fn bench_backend(default: BackendKind) -> BackendKind {
    match std::env::var("GA_BENCH_BACKEND") {
        Ok(name) => BackendKind::parse(&name)
            .unwrap_or_else(|| panic!("GA_BENCH_BACKEND={name}: unknown backend")),
        Err(_) => default,
    }
}

/// The sweep binaries' default drive path: the cycle-accurate RTL
/// interpreter via the engine table (overridable with `GA_BENCH_BACKEND`).
pub fn run_hw(f: TestFunction, params: &GaParams) -> RunOutcome {
    run_on(bench_backend(BackendKind::RtlInterp), f, params)
}

/// Table V parameters for a row.
pub fn table5_params(row: &Table5Row) -> GaParams {
    GaParams::new(row.pop, 32, row.xover, 1, row.seed)
}

/// Tables VII–IX parameters for a grid cell.
pub fn table7_params(seed: u16, pop: u8, xover: u8) -> GaParams {
    GaParams::new(pop, 64, xover, 1, seed)
}

/// Render the Tables VII–IX grid: rows = seeds, columns = (pop, xr)
/// cells in the paper's order p32/x10, p32/x12, p64/x10, p64/x12.
pub fn render_grid(title: &str, seeds: &[u16], cells: &[Vec<u16>], maxima: u16) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = writeln!(
        out,
        "{:>10} | {:>8} {:>8} | {:>8} {:>8}",
        "seed", "p32/x10", "p32/x12", "p64/x10", "p64/x12"
    );
    let _ = writeln!(out, "{}", "-".repeat(52));
    for (i, &seed) in seeds.iter().enumerate() {
        let row = &cells[i];
        let mark = |v: u16| {
            if v == maxima {
                format!("{v}*")
            } else {
                format!("{v}")
            }
        };
        let _ = writeln!(
            out,
            "{:>10} | {:>8} {:>8} | {:>8} {:>8}",
            format!("{seed:04X}"),
            mark(row[0]),
            mark(row[1]),
            mark(row[2]),
            mark(row[3])
        );
    }
    let _ = writeln!(out, "(* = globally optimal fitness {maxima})");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_matrix_matches_paper() {
        assert_eq!(TABLE5_RUNS.len(), 10);
        // Rows 1–5 are BF6, 6–9 F2, 10 F3.
        assert!(TABLE5_RUNS[..5]
            .iter()
            .all(|r| r.function == TestFunction::Bf6));
        assert!(TABLE5_RUNS[5..9]
            .iter()
            .all(|r| r.function == TestFunction::F2));
        assert_eq!(TABLE5_RUNS[9].function, TestFunction::F3);
        // Run #3 is run #1 with only the seed changed (the paper's
        // seed-sensitivity argument).
        assert_eq!(TABLE5_RUNS[0].pop, TABLE5_RUNS[2].pop);
        assert_eq!(TABLE5_RUNS[0].xover, TABLE5_RUNS[2].xover);
        assert_ne!(TABLE5_RUNS[0].seed, TABLE5_RUNS[2].seed);
    }

    #[test]
    fn grid_renderer_marks_optima() {
        let s = render_grid("t", &[0x2961], &[vec![10, 20, 30, 65535]], 65535);
        assert!(s.contains("65535*"));
        assert!(s.contains("2961"));
    }

    #[test]
    fn hw_harness_smoke() {
        let params = GaParams::new(8, 2, 10, 1, 0x2961);
        let run = run_hw(TestFunction::F3, &params);
        assert_eq!(run.trajectory.len(), 3);
        assert!(run.cycles.is_some(), "the RTL path reports cycles");
    }

    #[test]
    fn registry_harness_drives_every_backend() {
        // `run_on` must admit the bench workloads on every
        // backend at its native width.
        let params = GaParams::new(8, 2, 10, 1, 0x2961);
        for kind in BackendKind::ALL {
            let run = run_on(kind, TestFunction::F3, &params);
            assert_eq!(run.generations, 2, "{}", kind.name());
            assert!(run.best_fitness > 0, "{}", kind.name());
        }
    }
}
