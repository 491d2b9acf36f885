//! # ga-serve — a job-oriented GA execution service
//!
//! The layer where every engine of the reproduction sits behind one
//! production-shaped API. A batch of [`GaJob`]s (chromosome width,
//! fitness-function selection, the Table III parameters, seed,
//! generation budget, optional wall-clock deadline) is planned into
//! units (solos and multi-lane packs), distributed over scoped workers
//! by an atomic claim loop (`ga_bench::run_sweep`), and each job is
//! dispatched through the **engine registry** (`ga_engine::global`) to
//! whichever backend it names — `behavioral`, `rtl`, the wide-lane
//! `bitsim64`/`bitsim128`/`bitsim256` family, `swga`, or the 32-bit
//! `rtl32` composite. The service itself contains no per-engine drive
//! loops: admission, packing eligibility (`pack_width`), and the
//! degradation policy (`degrades_to`) are all read off each engine's
//! [`ga_engine::Capabilities`].
//!
//! The service provides a bounded job queue with backpressure for
//! streaming submitters ([`BoundedQueue`]: the submitter blocks while
//! the queue is full), per-job timeout/cancellation with a typed
//! [`ServeError`], and **deterministic, input-ordered results** —
//! result *i* always belongs to `jobs[i]`, whatever the thread count
//! or backend mix. The `gaserved` binary drives the service offline
//! over JSONL files and surfaces per-backend throughput/latency
//! counters — plus the pack-path throughput and the compiled-netlist
//! cache hit/miss deltas — through `ga-bench`'s `BenchReport` as
//! `BENCH_serve.json`.

pub mod backend;
pub mod islands;
pub mod job;
pub mod jsonl;
pub mod net;
pub mod queue;
pub mod service;

pub use islands::{
    read_checkpoint, serve_island_connection, serve_island_worker, write_checkpoint, Coordinator,
};
pub use job::{
    BackendKind, GaJob, HealReport, JobOutput, JobResult, ServeError, Workload, CHROM_WIDTH,
};
pub use net::{AdmissionStats, DrainSummary, NetConfig, Server};
pub use queue::BoundedQueue;
pub use service::{
    serve_batch, BackendCounters, LatencyHisto, ServeConfig, ServeOutcome, ServeStats,
};
