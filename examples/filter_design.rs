//! User-defined application fitness: GA-designed FIR filter.
//!
//! The abstract's claim under test: the core "can be tailored to any
//! given application by interfacing with the appropriate
//! application-specific fitness evaluation module". Here the
//! application is linear-phase FIR coefficient search (the domain of
//! the paper's reference [16]): the chromosome packs four signed 4-bit
//! taps, the FEM scores the magnitude response against a low-pass
//! target, and the unmodified GA core searches the 65 536-point
//! coefficient space.
//!
//! ```sh
//! cargo run --release --example filter_design
//! ```

use ga_ip::ga_fitness::apps::{
    decode_taps, filter_fitness, lowpass_target, response_grid, GOLDEN_CHROM,
};
use ga_ip::prelude::*;

fn main() {
    let target = lowpass_target();

    // The application fitness behind the block-ROM lookup FEM in slot
    // 0: each ROM word is computed on read, with the value the paper's
    // offline tabulation would have stored there.
    let fem = LookupFem::from_fn(move |c| filter_fitness(c, &target));
    let mut system = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(fem)]));

    let params = GaParams::new(64, 64, 10, 2, 0xB342);
    let run = system.program_and_run(&params, 1_000_000_000).unwrap();

    println!(
        "GA filter design: {} cycles ({:.2} ms at 50 MHz)",
        run.cycles,
        run.seconds * 1e3
    );
    println!(
        "best chromosome {:#06X}, fitness {} / 65535",
        run.best.chrom, run.best.fitness
    );
    let best_taps = decode_taps(run.best.chrom);
    let golden_taps = decode_taps(GOLDEN_CHROM);
    println!("evolved taps: {best_taps:?}");
    println!("target  taps: {golden_taps:?}");

    println!("\nfrequency response (ω/π, target |H|, evolved |H|):");
    let got = response_grid(&best_taps);
    for (k, (t, g)) in target.iter().zip(&got).enumerate() {
        let bar = "#".repeat((g / 2.0).round() as usize);
        println!("{:5.2}  {:6.2}  {:6.2}  {bar}", (k + 1) as f64 / 16.0, t, g);
    }

    if run.best.chrom == GOLDEN_CHROM {
        println!("\n✔ recovered the golden design exactly");
    } else {
        let err: f64 = got.iter().zip(&target).map(|(g, t)| (g - t).abs()).sum();
        println!("\nresponse error vs target: {err:.3} (sum |Δ| over 16 frequencies)");
    }
}
