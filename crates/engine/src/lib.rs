//! # ga-engine — the unified engine layer
//!
//! One vocabulary over every GA execution backend in the repo. A
//! backend is an [`Engine`]: it admits jobs through
//! [`Engine::prepare`] against its kind's [`Capabilities`] (supported
//! chromosome widths, pack width, stepping support, degradation
//! target), and executes them into the backend-neutral [`RunOutcome`]
//! shape. The engine table ([`registry`]) maps every [`BackendKind`] to
//! its capability row and its engine, and the lookup is total; serve
//! dispatch, bench sweeps, the fault campaign's golden runs, and the
//! conformance suite all go through it rather than naming engines.
//!
//! Seven names, three engines ([`BackendKind::engine`]):
//!
//! | kind | engine | widths |
//! |---|---|---|
//! | `behavioral` | [`BehavioralEngine`]: `ga_core::GaEngine` over the CA RNG | 16 |
//! | `swga` | [`BehavioralEngine`], standing in for the PowerPC C baseline; no stepping handle | 16 |
//! | `rtl` | [`RtlEngine`]: `ga_core::GaSystem` (cycle-accurate) | 16 |
//! | `rtl32` | [`RtlEngine`]: `ga_core::GaSystem32Hw`, `GaSystem` with two ganged cores (Fig. 6) | 32 |
//! | `bitsim64`/`128`/`256` | [`BitSimEngine`], packs of up to 64/128/256 | 16 |
//!
//! The bitsim engine produces lane streams on demand from the CA-RNG netlist, simulated at the narrowest lane width
//! that holds each pack and compiled once by the [`NetlistCache`].
//!
//! [`IslandsEngine`] composes the ring-migration island model over any
//! backend with a stepping handle. Its epoch loop, [`IslandRing`], is
//! generic over a fallible [`RingMember`], so the serve layer's sharded
//! coordinator runs the same loop over sockets to worker processes, each
//! built by the same [`island_member`]. See DESIGN.md for the layer
//! diagram and the add-a-backend recipe.

#![forbid(unsafe_code)]

pub mod adapters;
pub mod cache;
pub mod islands;
pub mod pack;
pub mod registry;
pub mod spec;

pub use adapters::{trajectory16, trajectory32, BehavioralEngine, BitSimEngine, RtlEngine};
pub use cache::{global_cache, NetlistCache};
pub use islands::{
    island_member, CheckpointBundle, IslandRing, IslandsEngine, RingMember, RingOp, RingReply,
    CHECKPOINT_VERSION,
};
pub use pack::{draws_per_run, try_ca_lane_streams_wide, StreamRng};
pub use registry::{global, EngineTable};
pub use spec::{
    convergence_generation, BackendKind, Capabilities, Engine, EngineError, Limits, Prepared,
    RunOutcome, RunSpec, TrajPoint, Workload,
};
