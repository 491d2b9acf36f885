//! # ga-ehw — evolvable-hardware substrate for adaptive healing
//!
//! The paper's GA core "has been used as a search engine for real-time
//! adaptive healing" and as a building block of the self-reconfigurable
//! analog array that compensates extreme-temperature effects on VLSI
//! electronics (§I, §V). The actual SRAA is proprietary JPL hardware, so
//! this crate provides the canonical digital stand-in used throughout
//! the intrinsic-EHW literature (Thompson; Kajitani et al.; Sekanina):
//! a **virtual reconfigurable circuit** (VRC) — a small array of
//! function-configurable logic cells whose 16-bit configuration
//! bitstring is exactly one GA chromosome.
//!
//! The healing experiment: a target Boolean function is realized by
//! some configuration; a radiation-style fault is injected into one
//! cell (stuck output or corrupted function LUT); the GA core then
//! searches for a new configuration that restores the target behaviour
//! *around* the fault — intrinsic evolution, with the VRC evaluated as
//! the fitness module.

#![forbid(unsafe_code)]

pub mod fem;
pub mod vrc;

pub use fem::VrcFem;
pub use vrc::{
    healable, healing_fitness, CellFn, Fault, HealWords, TruthTable, Vrc, PERFECT_FITNESS,
    SHIPPED_TARGETS,
};
