//! # ga-serve — a job-oriented GA execution service
//!
//! The layer where every engine of the reproduction sits behind one
//! production-shaped API. A [`GaJob`] names a chromosome width, a
//! fitness function, the Table III parameters, a seed, a generation
//! budget and an optional wall-clock deadline; each job is dispatched
//! through the **engine table** ([`BackendKind::engine`]) to whichever
//! backend it names — `behavioral`, `rtl`, the wide-lane
//! `bitsim64`/`bitsim128`/`bitsim256` family, `swga`, or the 32-bit
//! `rtl32` composite. The service itself contains no per-engine drive
//! loops: admission, packing eligibility (`pack_width`), and the
//! degradation policy (`degrades_to`) are all read off each kind's
//! [`ga_engine::Capabilities`] row.
//!
//! One scheduler serves every entry point: a fixed worker pool draining
//! one [`BoundedQueue`], gathering same-key bitsim jobs into lockstep
//! packs as it pops. [`Server`] (`gaserved --listen`) feeds it from
//! socket connections with admission control and blocking backpressure;
//! [`serve_jsonl`] (`gaserved --input`) feeds it a whole JSONL file
//! before the workers start; [`serve_batch`] feeds it a slice of jobs.
//! Per-job timeout/cancellation ends in a typed [`ServeError`], and
//! results are **deterministic and input-ordered** — result *i* always
//! belongs to input *i*, whatever the thread count or backend mix.
//! `gaserved` reports per-backend throughput/latency counters — plus
//! the pack-path throughput and the compiled-netlist cache hit/miss
//! deltas — as `BENCH_serve.json` through `ga-harness`'s `BenchReport`.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod backend;
pub mod islands;
pub mod job;
pub mod jsonl;
pub mod net;
mod pool;
pub mod queue;
pub mod service;

pub use islands::{
    read_checkpoint, serve_island_connection, serve_island_worker, write_checkpoint, Coordinator,
};
pub use job::{
    BackendKind, GaJob, HealReport, JobOutput, JobResult, ServeError, Workload, CHROM_WIDTH,
};
pub use net::{serve_jsonl, AdmissionStats, DrainSummary, NetConfig, Server};
pub use queue::BoundedQueue;
pub use service::{serve_batch, BackendCounters, ServeConfig, ServeOutcome, ServeStats};
