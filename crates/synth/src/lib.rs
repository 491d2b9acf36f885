//! # ga-synth — gate-level netlist, mapping, and timing
//!
//! The paper delivers its core as a *soft IP*: "a gate-level netlist is
//! provided which can be readily integrated with the user's system",
//! produced by the AUDI high-level-synthesis flow (Fig. 1: behavioral
//! VHDL → RT-level datapath + KISS controller → SIS logic synthesis →
//! gate-level Verilog over NAND/NOR/AND/OR/XOR/SCAN_REGISTER). Table VI
//! then reports the post-place-and-route numbers on a Virtex-II Pro
//! xc2vp30: 13% slice utilization, 50 MHz, 1% block RAM for the GA
//! memory and 48% for the fitness lookup.
//!
//! This crate rebuilds that tool stack in miniature:
//!
//! * [`netlist`] — the gate-level IR (the same primitive alphabet as
//!   the paper's netlists, plus the dedicated carry mux of the Virtex
//!   slice), with validation, topological levelization, and both
//!   combinational and sequential simulation;
//! * [`bitsim`] — the compiled simulation engine: a [`CompiledNetlist`]
//!   caches validation + topological order in a dense instruction
//!   stream, and [`BitSimW`] evaluates it with `W` `u64` words per net
//!   — 64·W independent simulation lanes per pass (word-level logic
//!   simulation, the netlist-regression analogue of the paper's
//!   population-parallel hardware; [`BitSim`] is the 64-lane `W = 1`
//!   case);
//! * [`builder`] — the RT-level component library (adders, comparators,
//!   muxes, decoders, mask networks, an array multiplier, scan register
//!   banks) elaborated into gates, each builder proven equivalent to
//!   its arithmetic reference by proptest;
//! * [`fsm`] — one-hot controller synthesis from a transition table
//!   (the KISS → SIS step);
//! * [`mapper`] — greedy fanout-free-cone technology mapping into
//!   4-input LUTs (carry muxes map to the dedicated MUXCY chain);
//! * [`timing`] — levelized static timing with Virtex-II-Pro-class
//!   delays → critical path and fmax;
//! * [`device`] — the xc2vp30 resource model (slices, block RAMs);
//! * [`gadesign`] — the structural inventory of the GA core itself,
//!   elaborated through all of the above to regenerate Table VI.

#![forbid(unsafe_code)]

pub mod asic;
pub mod bitsim;
pub mod builder;
pub mod device;
pub mod error;
pub mod fault;
pub mod fsm;
pub mod gadesign;
pub mod mapper;
pub mod netlist;
pub mod opt;
pub mod tern;
pub mod timing;
pub mod verilog;

pub use bitsim::{BitSim, BitSimW, CompiledNetlist, CompiledOp, OpKind};
pub use builder::Builder;
pub use device::Xc2vp30;
pub use error::SynthError;
pub use fault::{FaultInjector, NetFault, NetFaultKind};
pub use gadesign::{elaborate_ga_core, GaCoreReport};
pub use netlist::{GateKind, NetId, Netlist};
pub use tern::Tern;
pub use verilog::emit_verilog;
