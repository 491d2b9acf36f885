//! # hwsim — a cycle-based two-phase hardware simulation kernel
//!
//! This crate is the substrate on which every hardware model in the GA IP
//! core reproduction is built. It provides the synchronous-digital-design
//! semantics that an RTL simulator (the paper used Cadence NC-Launch and
//! ModelSim) would provide, reduced to what a clock-accurate model needs:
//!
//! * [`Reg`] — a register with *two-phase* (current/next) semantics. All
//!   state in a clocked module lives in `Reg`s. During the evaluation
//!   phase every module reads only **current** values and writes only
//!   **next** values; a commit phase then latches every register at once.
//!   This exactly mirrors non-blocking assignment (`<=`) in Verilog and
//!   signal assignment in VHDL processes, and makes module evaluation
//!   order irrelevant — there are no simulation races by construction.
//! * [`Clocked`] — the trait every synchronous module implements
//!   (`reset`, `eval`, `commit`).
//! * [`Sim`] — a tiny scheduler that owns the cycle counter of a closed
//!   system of modules.
//! * [`handshake`] — the slave side of the paper's two-way (valid/ack)
//!   handshake, which the core's init port runs.
//! * [`mem`] — a synchronous single-port RAM model with the one-cycle
//!   read latency of FPGA block RAM (the paper's GA memory).
//! * [`trace`] — a per-cycle signal trace recorder with CSV export, the
//!   moral equivalent of the Chipscope Pro capture cores the paper used
//!   to log `best fitness` and `sum of fitness` per generation.
//! * [`vcd`] — a minimal VCD (value change dump) writer so traces can be
//!   inspected in a waveform viewer.
//!
//! ## Two-phase discipline
//!
//! ```
//! use hwsim::{Reg, Clocked};
//!
//! /// A free-running 8-bit counter with synchronous clear.
//! #[derive(Default)]
//! struct Counter { count: Reg<u8> }
//!
//! impl Counter {
//!     fn eval(&mut self, clear: bool) {
//!         if clear {
//!             self.count.set(0);
//!         } else {
//!             self.count.set(self.count.get().wrapping_add(1));
//!         }
//!     }
//! }
//!
//! impl Clocked for Counter {
//!     fn reset(&mut self) { self.count.reset_to(0); }
//!     fn commit(&mut self) { self.count.commit(); }
//! }
//!
//! let mut c = Counter::default();
//! c.reset();
//! for _ in 0..5 { c.eval(false); c.commit(); }
//! assert_eq!(c.count.get(), 5);
//! c.eval(true); // evaluation phase: next value staged ...
//! assert_eq!(c.count.get(), 5); // ... but current value unchanged
//! c.commit(); // clock edge
//! assert_eq!(c.count.get(), 0);
//! ```

pub mod fault;
pub mod handshake;
pub mod mem;
pub mod monitor;
pub mod reg;
pub mod scoreboard;
pub mod sim;
pub mod trace;
pub mod vcd;

pub use fault::{BitFault, FaultClass, ScanBitOp};
pub use handshake::AckSlave;
pub use mem::SpRam;
pub use monitor::HandshakeMonitor;
pub use reg::Reg;
pub use scoreboard::Scoreboard;
pub use sim::{Clocked, Deadline, Sim, SimError};
pub use trace::{Trace, TraceSeries};
pub use vcd::VcdWriter;
