//! Chromosome-length scaling (§III-D): optimize a 32-bit problem with
//! two ganged 16-bit cores, programming the per-half crossover/mutation
//! thresholds from the paper's probability-composition equations.
//!
//! ```sh
//! cargo run --release --example scaling_32bit
//! ```

use ga_ip::ga_core::scaling::{compose_prob, split_prob, threshold_for_prob};
use ga_ip::prelude::*;

/// A 32-bit mini-max function in the spirit of F2: maximize the MSB
/// half, minimize the LSB half.
fn f2_32(c: u32) -> u16 {
    let msb = (c >> 16) as i64;
    let lsb = (c & 0xFFFF) as i64;
    // 0.5·msb − 0.5·lsb + 32768 ∈ [0, 65535].
    ((msb - lsb) / 2 + 32768).clamp(0, 65535) as u16
}

fn main() {
    // Target overall crossover rate: the paper's favorite 0.625. Each
    // 16-bit core crosses independently, so program the per-half
    // thresholds from xovProb32 = p_M + p_L − p_M·p_L.
    let target = 0.625;
    let per_half = split_prob(target);
    let xt = threshold_for_prob(per_half);
    println!(
        "target xovProb32 = {target}: per-half p = {per_half:.3} → threshold {xt} (realized {:.3})",
        compose_prob(xt as f64 / 16.0, xt as f64 / 16.0)
    );
    // Same algebra for mutation at the paper's 0.0625.
    let mt = threshold_for_prob(split_prob(0.0625));
    println!("target mutProb32 = 0.0625: per-half threshold {mt}");

    // Both cores run at the thresholds programmed here.
    let params = GaParams::new(64, 64, xt, mt.max(1), 0x2961);
    let run = GaEngine::new32(params, CaRng::new(0x2961), f2_32).run();

    println!(
        "\nbest 32-bit candidate {:#010X}: msb {:#06X} (→ max), lsb {:#06X} (→ min)",
        run.best.chrom,
        run.best.chrom >> 16,
        run.best.chrom & 0xFFFF
    );
    println!(
        "fitness {} / 65535 ({:.2}% of optimum) in {} evaluations",
        run.best.fitness,
        100.0 * run.best.fitness as f64 / 65535.0,
        run.evaluations
    );

    println!("\ngen   best fitness");
    for s in run.history.iter().step_by(8) {
        println!("{:>3} {:>8}", s.gen, s.best.fitness);
    }
}
