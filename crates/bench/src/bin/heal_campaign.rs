//! `heal_campaign` — VRC self-healing sweep through the engine
//! table, emitting `BENCH_ehw.json`.
//!
//! For every shipped healing target (`ga_ehw::SHIPPED_TARGETS`) ×
//! every single-cell fault (`ga_ehw::Fault::all_single_cell`, 8 cells ×
//! {stuck-0, stuck-1, 4 wrong-function} = 48 faults), the campaign:
//!
//! 1. asks the exhaustive oracle (`ga_ehw::healable`) whether *any*
//!    configuration reproduces the target under that fault — the
//!    ground truth the GA is graded against;
//! 2. dispatches a `Workload::VrcHeal` run through the engine table
//!    (round-robin over every 16-bit backend name, so the heal
//!    path of each engine is exercised), retrying with fresh seeds up
//!    to the attempt budget;
//! 3. records healed / generations-to-heal / residual error.
//!
//! Invariants pinned by `benchcheck` in CI: the GA never "heals" an
//! oracle-unhealable case (`ghost_heals == 0`), and the heal rate over
//! oracle-healable cases clears a floor. The report also folds in the
//! headline metrics of `BENCH_testgen.json` (path override:
//! `GA_BENCH_TESTGEN_REF`) so `BENCH_ehw.json` is the one-stop summary
//! of the closed fault loop: evolved test coverage on one side,
//! evolved repair on the other.
//!
//! `GA_BENCH_QUICK` sweeps the first target only (48 cases).

use ga_bench::{json_extract_number, quick, run_workload_on, BenchReport, Stopwatch};
use ga_core::GaParams;
use ga_ehw::{healable, Fault, Vrc, PERFECT_FITNESS, SHIPPED_TARGETS};
use ga_engine::{BackendKind, Workload};

/// Healing GA shape: big enough to heal every oracle-healable shipped
/// case within the attempt budget, small enough to keep the 144-case
/// sweep interactive.
const POP: u8 = 32;
const GENS: u32 = 64;
/// Fresh-seed retries per case before declaring a miss.
const ATTEMPTS: u16 = 16;
const BASE_SEED: u16 = 0x2961;

fn main() {
    let sw = Stopwatch::start();
    let targets: &[(&str, u16)] = if quick() {
        &SHIPPED_TARGETS[..1]
    } else {
        &SHIPPED_TARGETS[..]
    };
    let faults = Fault::all_single_cell();
    let kinds = BackendKind::supporting_width(16);

    println!("## VRC healing campaign (GA repair vs the exhaustive oracle)");
    println!(
        "grid: {} targets x {} faults, pop {POP} gens {GENS}, <= {ATTEMPTS} attempts, \
         backends: {}",
        targets.len(),
        faults.len(),
        kinds
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut cases = 0u64;
    let mut oracle_healable = 0u64;
    let mut healed = 0u64;
    let mut ghost_heals = 0u64;
    let mut gens_sum = 0u64;
    let mut attempts_used = 0u64;
    let mut residual_sum = 0u64;

    for (t, &(name, config)) in targets.iter().enumerate() {
        let target = Vrc::new(config).truth_table();
        let mut t_healed = 0u64;
        let mut t_healable = 0u64;
        let mut unhealable_names: Vec<String> = Vec::new();
        for (f, &fault) in faults.iter().enumerate() {
            cases += 1;
            let oracle = healable(target, fault);
            oracle_healable += u64::from(oracle);
            t_healable += u64::from(oracle);

            let workload = Workload::VrcHeal { target, fault };
            let kind = kinds[(t * faults.len() + f) % kinds.len()];
            let mut case_healed = false;
            let mut best_residual = u64::from(PERFECT_FITNESS);
            for attempt in 0..ATTEMPTS {
                let seed = BASE_SEED
                    .wrapping_add((t as u16) << 11)
                    .wrapping_add((f as u16).wrapping_mul(131))
                    .wrapping_add(attempt.wrapping_mul(7919));
                let params = GaParams::new(POP, GENS, 10, 1, seed);
                let outcome = run_workload_on(kind, workload, &params);
                attempts_used += 1;
                best_residual =
                    best_residual.min(u64::from(PERFECT_FITNESS - outcome.best_fitness));
                if outcome.best_fitness == PERFECT_FITNESS {
                    let heal_gen = outcome
                        .trajectory
                        .iter()
                        .find(|p| p.best_fitness == PERFECT_FITNESS)
                        .map(|p| u64::from(p.gen))
                        .expect("a perfect run has a perfect trajectory point");
                    gens_sum += heal_gen;
                    case_healed = true;
                    break;
                }
            }
            healed += u64::from(case_healed);
            t_healed += u64::from(case_healed);
            ghost_heals += u64::from(case_healed && !oracle);
            residual_sum += best_residual;
            if !oracle {
                unhealable_names.push(fault.wire_name());
            }
        }
        println!(
            "{name} (tt {target:#06x}): {t_healed}/{t_healable} oracle-healable cases healed; \
             unhealable: [{}]",
            unhealable_names.join(", ")
        );
    }

    let heal_rate = if oracle_healable == 0 {
        0.0
    } else {
        healed as f64 / oracle_healable as f64
    };
    let mean_gens = if healed == 0 {
        0.0
    } else {
        gens_sum as f64 / healed as f64
    };
    println!(
        "\ncampaign: {cases} cases, {oracle_healable} oracle-healable, {healed} healed \
         ({:.1}% heal rate, mean {mean_gens:.2} gens to heal, {ghost_heals} ghost heals)",
        100.0 * heal_rate
    );

    // --- Fold in the testgen headline --------------------------------------
    let ref_path =
        std::env::var("GA_BENCH_TESTGEN_REF").unwrap_or_else(|_| "BENCH_testgen.json".to_string());
    let mut testgen = Vec::new();
    match std::fs::read_to_string(&ref_path) {
        Ok(json) => {
            for key in [
                "coverage",
                "coverage_pct",
                "margin_vs_baseline",
                "unsound_detections",
            ] {
                match json_extract_number(&json, key) {
                    Some(v) => testgen.push((format!("testgen_{key}"), v)),
                    None => eprintln!("testgen reference {ref_path} lacks '{key}'"),
                }
            }
            println!("folded testgen headline from {ref_path}");
        }
        Err(e) => eprintln!("testgen reference {ref_path} not readable ({e}); skipping"),
    }

    let mut report = BenchReport::new("ehw", sw.seconds(), 1, 1)
        .metric("cases", cases as f64)
        .metric("oracle_healable", oracle_healable as f64)
        .metric("healed", healed as f64)
        .metric("heal_rate", heal_rate)
        .metric("mean_gens_to_heal", mean_gens)
        .metric("ghost_heals", ghost_heals as f64)
        .metric("attempts", attempts_used as f64)
        .metric("mean_residual", residual_sum as f64 / cases as f64);
    for (k, v) in testgen {
        report = report.metric(k, v);
    }
    report.emit_or_warn();

    if ghost_heals != 0 {
        eprintln!("heal campaign failed: {ghost_heals} ghost heal(s) contradict the oracle");
        std::process::exit(1);
    }
}
