//! The island-model composite in one screen: take any
//! engine with a stepping handle from the engine table, ring-connect four
//! islands of it on disjoint jump-ahead RNG streams, and migrate the
//! best individual every epoch — here over both the behavioral CA
//! engine and the compiled 64-lane netlist, which must agree bit for
//! bit.
//!
//! Run with `cargo run --release --example islands_engine`.

use ga_core::islands::IslandConfig;
use ga_engine::{BackendKind, IslandsEngine, RunSpec};
use ga_ip::prelude::*;

fn main() {
    let config = IslandConfig {
        islands: 4,
        epoch: 8,
        epochs: 4,
    };
    let spec = RunSpec {
        width: 16,
        workload: ga_engine::Workload::Function(TestFunction::Bf6),
        params: GaParams::new(32, 32, 10, 1, 0x2961),
        deadline_ms: None,
    };

    println!("4-island ring on BF6 (pop 32 per island, epoch 8 x 4)\n");
    let mut outcomes = Vec::new();
    for kind in [BackendKind::Behavioral, BackendKind::BitSim64] {
        let engine = kind.engine();
        let run = IslandsEngine::new(engine, config)
            .expect("backend exposes a stepping handle")
            .run(spec)
            .expect("island ring runs");
        println!(
            "{:<11} best {:#06x} fitness {:>5}  ({} evaluations)",
            kind.name(),
            run.best.chrom,
            run.best.fitness,
            run.evaluations,
        );
        for (k, b) in run.island_best.iter().enumerate() {
            println!("  island {k}: best fitness {}", b.fitness);
        }
        outcomes.push(run);
    }

    assert_eq!(
        outcomes[0], outcomes[1],
        "netlist-stream islands must match the behavioral ring exactly"
    );
    println!("\nbehavioral and bitsim64 island rings agree bit for bit.");
}
