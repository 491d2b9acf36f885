//! # swga — the software GA and the §IV-C runtime comparison
//!
//! The paper compares its hardware GA against "a software implementation
//! of a GA optimizer, similar to the GA optimization algorithm in the IP
//! core, developed in the C programming language", running on the
//! Virtex-II Pro's embedded PowerPC processor with the *same* block-RAM
//! lookup fitness module on the FPGA fabric — so the software pays a
//! processor-bus round trip per fitness evaluation. Measured result:
//! 37.615 ms for pop 32 / 32 generations on mBF6_2, a **5.16×** slowdown
//! versus the 50 MHz hardware core.
//!
//! We cannot run a PowerPC 405, so the reproduction works in modeled
//! cycles (the paper itself computes hardware time as counter × clock
//! period):
//!
//! * [`counting::CountingGa`] — the C program's operation tally, in
//!   PPC405 instruction classes. The program is the IP core's algorithm
//!   on the same CA stream, so the tally comes from one
//!   `ga_core::GaEngine` run: closed-form in population, generations,
//!   draws and evaluations, plus the selection scan each pick implies;
//! * [`cost::PpcCostModel`] — per-class cycle costs (documented against
//!   the PPC405 pipeline and PLB bus latency) that convert counts into
//!   seconds;
//! * [`speedup`] — the end-to-end experiment: hardware cycles from the
//!   cycle-accurate `GaSystem` versus modeled software cycles, averaged
//!   over multiple seeds like the paper's six runs.

#![forbid(unsafe_code)]

pub mod cost;
pub mod counting;
pub mod speedup;

pub use cost::{OpCounts, PpcCostModel};
pub use counting::CountingGa;
pub use speedup::{speedup_experiment, SpeedupReport};
