//! Demonstrate §III-D: the 32-bit GA built from two 16-bit cores.
//!
//! Prints the probability-composition table (the paper's
//! `xovProb32 = p_M + p_L − p_M·p_L` algebra with realizable 4-bit
//! thresholds) and runs the ganged dual-core system — dispatched
//! through the engine table's `rtl32` backend — on the split 32-bit
//! F3 optimization, across the six Table VII seeds via the shared
//! parallel sweep runner, emitting `BENCH_scaling32.json`.
//! `GA_BENCH_GENS` overrides the generation count for smoke runs.
//!
//! Run with `cargo run --release -p ga-bench --bin scaling32`.

use carng::seeds::TABLE7_SEEDS;
use ga_bench::{
    default_threads, gens_override, run_on, run_sweep, BackendKind, BenchReport, Stopwatch,
};
use ga_core::scaling::{compose_prob, split_prob, threshold_for_prob};
use ga_core::GaParams;
use ga_fitness::TestFunction;

/// The split 32-bit workload: the `rtl32` backend's shared fitness module
/// scores each 16-bit half with F3 and averages, so the optimum is
/// F3's own global maximum (reached when both halves are optimal).
const FUNCTION: TestFunction = TestFunction::F3;

fn main() {
    let threads = default_threads();
    let sw = Stopwatch::start();
    println!("§III-D — probability composition for the dual-core 32-bit GA");
    println!(
        "{:>12} {:>12} {:>12} {:>14}",
        "target p32", "per-half p", "threshold", "realized p32"
    );
    println!("{}", "-".repeat(54));
    for target in [0.25, 0.5, 0.625, 0.75, 0.875] {
        let p = split_prob(target);
        let t = threshold_for_prob(p);
        let realized = compose_prob(t as f64 / 16.0, t as f64 / 16.0);
        println!("{target:>12.3} {p:>12.3} {t:>12} {realized:>14.3}");
    }
    println!();

    // Run the ganged dual-core system across the Table VII seed set
    // with per-half thresholds realizing the paper's favorite overall
    // crossover rate of 0.625 (the second core's RNG is hardware-seeded
    // with the complemented seed, mirroring the two independent
    // modules). Each cell is one engine-table dispatch to `rtl32`.
    let per_half = threshold_for_prob(split_prob(0.625));
    let n_gens = gens_override().unwrap_or(64);
    let optimum = FUNCTION.global_max();
    let pop = 64u8;
    let runs = run_sweep(&TABLE7_SEEDS, threads, |_, &seed| {
        let params = GaParams::new(pop, n_gens, per_half, 1, seed);
        run_on(BackendKind::Rtl32, FUNCTION, &params)
    });
    let wall = sw.seconds();

    println!(
        "32-bit {} runs (pop {pop}, {n_gens} gens, per-half xover threshold {per_half}, optimum {optimum}):",
        FUNCTION.name()
    );
    println!(
        "{:>8} {:>12} {:>9} {:>8} {:>12} {:>10}",
        "seed", "best chrom", "fitness", "of opt", "evaluations", "final avg"
    );
    println!("{}", "-".repeat(64));
    let mut evals: u64 = 0;
    for (&seed, run) in TABLE7_SEEDS.iter().zip(&runs) {
        evals += run.evaluations;
        let final_avg = run
            .trajectory
            .last()
            .map(|s| s.fit_sum as f64 / pop as f64)
            .unwrap_or(0.0);
        println!(
            "{:>8} {:>#12.8X} {:>9} {:>7.2}% {:>12} {:>10.0}",
            format!("{seed:04X}"),
            run.best_chrom,
            run.best_fitness,
            100.0 * run.best_fitness as f64 / optimum as f64,
            run.evaluations,
            final_avg
        );
    }
    let best = runs.iter().map(|r| r.best_fitness).max().unwrap();
    let mean = runs.iter().map(|r| r.best_fitness as f64).sum::<f64>() / runs.len() as f64;
    println!("{}", "-".repeat(64));
    println!(
        "best {best} / {optimum} across {} seeds, mean best {mean:.0}",
        runs.len()
    );

    BenchReport::new("scaling32", wall, 1, threads as u64)
        .metric("seeds", runs.len() as f64)
        .metric("evaluations", evals as f64)
        .metric("evaluations_per_sec", evals as f64 / wall)
        .metric("best_fitness", best as f64)
        .metric("mean_best_fitness", mean)
        .emit_or_warn();
}
