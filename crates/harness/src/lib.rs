//! # ga-harness — leaf utilities shared by the benches and the server
//!
//! Three std-only pieces that sit below every crate that times or fans
//! out work:
//!
//! * [`report`] — the machine-readable `BENCH_<name>.json` writer and
//!   reader ([`BenchReport`]), the [`Stopwatch`], the `GA_BENCH_*`
//!   environment knobs and [`json_escape`], the workspace's one JSON
//!   string escaper;
//! * [`histo`] — [`LatencyHisto`], the mergeable log-scale latency
//!   histogram behind the server's per-backend percentiles;
//! * [`sweep`] — [`run_sweep`], the scoped-thread claim loop that
//!   returns results in input order, and [`default_threads`].
//!
//! `ga-bench` re-exports the report and the sweep; `ga-serve` uses the
//! report, the histogram and the thread default without pulling in the
//! bench crate.

#![forbid(unsafe_code)]

pub mod histo;
pub mod report;
pub mod sweep;

pub use histo::{LatencyHisto, HISTO_BUCKETS};
pub use report::{
    gens_override, json_escape, json_extract_number, json_extract_string, quick, BenchReport,
    Stopwatch,
};
pub use sweep::{default_threads, grid3, run_sweep};
