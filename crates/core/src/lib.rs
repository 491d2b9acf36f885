//! # ga-core — the customizable general-purpose GA IP core
//!
//! Rust reproduction of the paper's primary contribution: a
//! general-purpose, runtime-programmable genetic-algorithm engine
//! designed as a drop-in hardware IP block. Two models of the core are
//! provided, mirroring the paper's design levels:
//!
//! * [`behavioral::GaEngine`] — the behavioral model (the algorithm of
//!   Fig. 2 as plain code), generic over RNG and fitness function;
//! * [`hwcore::GaCoreHw`] + [`system::GaSystem`] — the cycle-accurate
//!   synthesized core with the full Table II port interface, Table III
//!   initialization handshake, Table IV preset modes, scan-chain test
//!   mode, and the Fig. 4 system wiring (RNG module, 256×32 GA memory,
//!   8-slot fitness bank, optional external FEM). Built around a 32-bit
//!   fitness function ([`GaSystem32Hw`]), the same system gangs two
//!   cores into the 32-bit GA of Fig. 6.
//!
//! The two models consume RNG draws in exactly the same order, so they
//! produce bit-identical populations — the cross-model differential
//! tests in `tests/` are the strongest correctness check in the repo.
//!
//! Chromosomes are 16 bits. [`GaEngine32`] is the behavioral engine at
//! width 32, the §III-D recipe for ganging two cores into a 32-bit
//! optimizer; both widths, and the cycle-accurate core's run windows,
//! breed through the one generation loop in [`ops::breed`].

#![forbid(unsafe_code)]

pub mod behavioral;
pub mod hwcore;
pub mod init;
pub mod islands;
pub mod memory;
pub mod ops;
pub mod params;
pub mod ports;
pub mod rngmod;
pub mod scaling;
pub mod snapshot;
pub mod system;

pub use behavioral::{FieldMode, GaEngine, GaEngine32, GaRun, GenStats, Individual};
pub use hwcore::GaCoreHw;
pub use islands::{IslandConfig, IslandMember, IslandRun};
pub use params::{GaParams, ParamIndex, PresetMode};
pub use ports::{GaCoreComb, GaCoreIn, GaCoreOut};
pub use snapshot::{EngineSnapshot, SnapshotError, SNAPSHOT_VERSION};
pub use system::{GaSystem, GaSystem32Hw, HwRun, Port, UserIn};
