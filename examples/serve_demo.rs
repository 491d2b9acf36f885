//! The serving layer in one screen: build a mixed batch of GA jobs,
//! shard it across the worker pool, and read back deterministic,
//! input-ordered results — bitsim jobs packed 64-to-a-netlist-run, and
//! `width: 32` jobs dispatched to the ganged dual-core `rtl32` backend.
//!
//! Run with `cargo run --release --example serve_demo`.

use ga_ip::prelude::*;
use ga_serve::{serve_batch, BackendKind, GaJob, ServeConfig};

fn main() {
    // 40 jobs cycling through every registered backend, two fitness
    // functions, one seed apiece. The bitsim jobs share one parameter
    // shape, so they travel as a single packed lane-group through the
    // compiled CA-RNG netlist.
    let jobs: Vec<GaJob> = (0..40u16)
        .map(|i| {
            let backend = BackendKind::ALL[i as usize % BackendKind::ALL.len()];
            let function = if i % 2 == 0 {
                TestFunction::Mbf6_2
            } else {
                TestFunction::F3
            };
            let params = GaParams::new(16, 8, 10, 1, 0x2961 + i * 131);
            if backend == BackendKind::Rtl32 {
                GaJob::new32(function, params).with_deadline_ms(5_000)
            } else {
                GaJob::new(function, backend, params).with_deadline_ms(5_000)
            }
        })
        .collect();

    let outcome = serve_batch(&jobs, &ServeConfig::default());

    println!("job backend     fn          best        fitness  conv");
    for (job, r) in jobs.iter().zip(&outcome.results) {
        match &r.outcome {
            Ok(o) => println!(
                "{:>3} {:<11} {:<10} {:#010x}  {:>7}  {}",
                r.job,
                r.backend.name(),
                format!("{:?}", job.workload),
                o.best_chrom,
                o.best_fitness,
                o.conv_gen
                    .map(|g| g.to_string())
                    .unwrap_or_else(|| "-".into()),
            ),
            Err(e) => println!("{:>3} {:<11} error: {e}", r.job, r.backend.name()),
        }
    }

    let s = &outcome.stats;
    println!(
        "\n{} jobs in {:.3}s ({:.1} jobs/s) — {} bitsim packs covering {} lanes",
        s.jobs(),
        s.wall_seconds,
        s.jobs_per_sec(),
        s.packs,
        s.packed_lanes
    );
    let per_backend: Vec<String> = BackendKind::ALL
        .into_iter()
        .map(|kind| {
            let c = s.counters(kind);
            format!("{} {} ({:.0} µs avg)", kind.name(), c.jobs, c.avg_micros())
        })
        .collect();
    println!("per backend: {}", per_backend.join(", "));
}
