//! Job packing for the wide-lane bitsim backends.
//!
//! The compiled netlist engine (`ga_synth::bitsim`) advances 64·W
//! independent CA-RNG simulations per pass — but the *GA* around the
//! RNG is data-dependent (selection scans, fitness lookups), so the
//! whole GA cannot be bit-sliced. What CAN be shared is the expensive
//! part the netlist actually models: the RNG stream. Two jobs with the
//! same population size and generation count consume RNG draws on an
//! identical, data-independent schedule ([`draws_per_run`]), so up to
//! 64·W such jobs are packed into **one** lockstep run of the compiled
//! CA-RNG netlist — one seed per lane — and each lane's extracted
//! stream then drives an ordinary behavioral engine via [`StreamRng`].
//! Because the netlist is gate-level equivalent to `carng::CaRng`
//! (proven by `crates/synth/tests/rng_equivalence.rs` and the golden
//! vectors), a packed lane's result is bit-identical to a solo run, at
//! every lane width.
//!
//! Packs smaller than the lane count leave the tail lanes *unseeded*:
//! they hold the CA's all-zero fixed point, never produce a stream,
//! and never touch results or metrics — the padding-skew fix. Active
//! lanes are exactly `seeds.len()`.
//!
//! Extraction runs in two phases. The seed-load edge runs on the full
//! compiled netlist. After it, `ctl` is held at `consume`, so streaming
//! steps the netlist [specialised](CompiledNetlist::specialize) for
//! that mode: the load and consume muxes fold away, and 22 of the 152
//! ops remain. The 16 register words carry over, because both netlists
//! share net indices. Each step's 16 lane-packed `rn` words are turned
//! into per-lane draws with one 8×8 bit transpose per 8 lanes per
//! byte-half.
//!
//! Both compiled netlists come from the process-wide
//! [`crate::cache::NetlistCache`], keyed per lane width, so repeat
//! packs skip validation, topological sorting, flattening, and
//! specialisation entirely.

use std::sync::Arc;

use carng::{Rng16, SnapshotRng};
use ga_core::GaParams;
use ga_synth::bitsim::{BitSimW, CompiledNetlist};
use ga_synth::gadesign::elaborate_ca_rng;

use crate::cache::{global_cache, CacheKey};

/// Exact number of 16-bit RNG draws one GA run consumes — the packing
/// schedule. Per run: `pop` draws seed the initial population; each
/// generation breeds `pop − 1` offspring in pairs, costing two
/// selection draws plus one crossover-field draw per pair and one
/// mutation-field draw per offspring. Asserted against the engine's
/// own `rng_draws()` instrumentation in the service tests.
pub fn draws_per_run(p: &GaParams) -> u64 {
    let pop = p.pop_size as u64;
    let pairs = (pop - 1).div_ceil(2);
    pop + p.n_gens as u64 * (3 * pairs + (pop - 1))
}

/// The compiled CA-RNG netlist for a `W`-word lane width, from the
/// process-wide [`NetlistCache`](crate::cache::NetlistCache): compiled
/// once per width, a cache hit on every later pack. Runs the seed-load
/// edge.
fn compiled_ca(words_per_net: usize) -> Arc<CompiledNetlist> {
    global_cache().get_or_compile(
        CacheKey {
            design: "ca-rng",
            words_per_net,
            seed_bus: "seed",
        },
        || CompiledNetlist::compile(&elaborate_ca_rng()).expect("CA-RNG netlist compiles"),
    )
}

/// The CA-RNG netlist specialised for streaming: `ctl` tied to
/// `consume` (`ctl[0]` = seed_load low, `ctl[1]` = consume high), which
/// folds both register-input muxes away and leaves the rule-90/150 XOR
/// network alone. Same nets and registers as [`compiled_ca`], cached
/// under its own key.
fn consume_ca(words_per_net: usize) -> Arc<CompiledNetlist> {
    global_cache().get_or_compile(
        CacheKey {
            design: "ca-rng/consume",
            words_per_net,
            seed_bus: "seed",
        },
        || {
            let full = compiled_ca(words_per_net);
            let ctl = full.input_bus("ctl").expect("ctl bus");
            full.specialize(&[(ctl[0], false), (ctl[1], true)])
        },
    )
}

/// Streams reserve room for at most this many draws up front and grow
/// past it on demand, so a draw count taken from a job line never
/// sizes an allocation by itself.
const PREALLOC_DRAWS: usize = 1 << 16;

/// Run the compiled CA-RNG netlist with one seed per lane and extract
/// `draws` outputs per seeded lane — `seeds.len()` complete RNG streams
/// from one bit-sliced simulation. Zero seeds get the RNG module's
/// guard remap (0 → 1), matching `carng::CaRng`; *unseeded* tail lanes
/// stay at the CA's all-zero fixed point and are never read.
pub fn ca_lane_streams(seeds: &[u16], draws: usize) -> Vec<Vec<u16>> {
    try_ca_lane_streams(seeds, draws, u64::MAX).expect("unbounded extraction cannot trip")
}

/// [`ca_lane_streams`] under a simulated-step watchdog: extracting
/// `draws` draws costs `draws + 1` netlist steps (one load edge plus
/// one per draw); if the run would exceed `max_steps` the extraction is
/// refused up front with `Err(max_steps)` — the step count the watchdog
/// charged — so the service can degrade the pack to the behavioral
/// backend instead of burning an unbounded amount of host time.
pub fn try_ca_lane_streams(
    seeds: &[u16],
    draws: usize,
    max_steps: u64,
) -> Result<Vec<Vec<u16>>, u64> {
    try_ca_lane_streams_wide::<1>(seeds, draws, max_steps)
}

/// [`try_ca_lane_streams`] at any lane width: one bit-sliced run of the
/// `W`-word simulator extracts up to `64·W` complete RNG streams. The
/// stream a lane produces depends only on its seed, never on `W` — the
/// conformance suite pins wide lanes against solo 64-lane runs.
pub fn try_ca_lane_streams_wide<const W: usize>(
    seeds: &[u16],
    draws: usize,
    max_steps: u64,
) -> Result<Vec<Vec<u16>>, u64> {
    assert!(
        seeds.len() <= BitSimW::<W>::LANES,
        "{} seeds exceed the {} lanes of one pack",
        seeds.len(),
        BitSimW::<W>::LANES
    );
    if (draws as u64).saturating_add(1) > max_steps {
        return Err(max_steps);
    }
    let full = compiled_ca(W);
    let consume = consume_ca(W);
    let seed_bus = full.input_bus("seed").expect("seed bus");
    let ctl_bus = full.input_bus("ctl").expect("ctl bus");
    let rn_bus = consume.output_bus("rn").expect("rn bus");

    // The seed-load edge runs on the full netlist.
    let mut load = full.sim_wide::<W>();
    for (lane, &s) in seeds.iter().enumerate() {
        let s = if s == 0 { 1 } else { s }; // the RNG module's zero-seed guard
        load.set_bus_lane(seed_bus, lane, s as u64);
    }
    load.set_bus_all(ctl_bus, 0b01); // ctl[0] = seed_load
    load.step();
    // Streaming steps only the consume-specialised netlist; the 16
    // register words carry over (both netlists share net indices).
    let mut sim = consume.sim_wide::<W>();
    for r in consume.regs() {
        sim.set_net_words(r.q, load.net_words(r.q));
    }

    // The rn output bus IS the register bank, so after the load edge it
    // already reads the seed; sample-then-advance from here on matches
    // `Rng16::next_u16` (first draw after reseed is the seed itself).
    // Each step's 16 rn words are transposed into one (low, high) byte
    // plane pair per group of 8 lanes and parked in `block`, laid out
    // group-major; every BLOCK draws the planes are appended to the
    // lane streams in one tight pass per lane.
    let groups = seeds.len().div_ceil(8);
    let mut block = vec![[0u64; 2]; groups * BLOCK];
    let mut streams: Vec<Vec<u16>> = (0..seeds.len())
        .map(|_| Vec::with_capacity(draws.min(PREALLOC_DRAWS)))
        .collect();
    let mut done = 0;
    while done < draws {
        let n = BLOCK.min(draws - done);
        for t in 0..n {
            let rn: [[u64; W]; 16] = std::array::from_fn(|i| sim.net_words(rn_bus[i]));
            for g in 0..groups {
                block[g * BLOCK + t] = transpose_group(&rn, g);
            }
            sim.step();
        }
        for (lane, stream) in streams.iter_mut().enumerate() {
            let (g, c) = (lane / 8, 8 * (lane % 8));
            let planes = &block[g * BLOCK..g * BLOCK + n];
            stream.extend(
                planes
                    .iter()
                    .map(|&[lo, hi]| ((lo >> c) & 0xFF) as u16 | (((hi >> c) & 0xFF) as u16) << 8),
            );
        }
        done += n;
    }
    Ok(streams)
}

/// Draws transposed per block before they are appended to the streams.
const BLOCK: usize = 64;

/// Transpose an 8×8 bit matrix held in a `u64`: row `r` is byte `r`,
/// column `c` is bit `c` of that byte. Three delta-swaps exchange the
/// off-diagonal 1×1, 2×2 and 4×4 blocks.
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// One draw for lane group `g` (lanes `8g..8g+8`) from the 16
/// lane-packed `rn` bit words. The 8 low bit rows and the 8 high bit
/// rows each form an 8×8 bit matrix (row = bit, column = lane); one
/// transpose turns each into one byte per lane — byte `c` of the low
/// and high planes is lane `8g + c`'s draw.
#[inline(always)]
fn transpose_group<const W: usize>(rn: &[[u64; W]; 16], g: usize) -> [u64; 2] {
    let (word, shift) = (g / 8, (g % 8) * 8);
    let rows = |bits: &[[u64; W]]| {
        bits.iter()
            .enumerate()
            .fold(0u64, |m, (r, w)| m | ((w[word] >> shift) & 0xFF) << (8 * r))
    };
    [transpose8(rows(&rn[..8])), transpose8(rows(&rn[8..]))]
}

/// An [`Rng16`] replaying a pre-extracted draw stream — the glue
/// between a bitsim lane and the behavioral engine. The stream must
/// hold exactly the draws the consumer will ask for
/// ([`draws_per_run`]); running past the end is an internal invariant
/// violation and panics.
#[derive(Debug, Clone)]
pub struct StreamRng {
    stream: Vec<u16>,
    pos: usize,
}

impl StreamRng {
    /// Wrap an extracted lane stream.
    pub fn new(stream: Vec<u16>) -> Self {
        assert!(!stream.is_empty(), "an RNG stream cannot be empty");
        StreamRng { stream, pos: 0 }
    }

    /// Draws consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl Rng16 for StreamRng {
    fn output(&self) -> u16 {
        self.stream[self.pos]
    }

    fn step(&mut self) {
        self.pos += 1;
    }

    fn fill_u16s(&mut self, out: &mut [u16]) {
        // Batch replay is a slice copy — the stream already holds the
        // consecutive draws. Panics past the end like `next_u16` would.
        out.copy_from_slice(&self.stream[self.pos..self.pos + out.len()]);
        self.pos += out.len();
    }

    fn reseed(&mut self, seed: u16) {
        // The engine reseeds with the job's seed on construction; the
        // stream's first draw must BE that seed (post zero-guard).
        let expect = if seed == 0 { 1 } else { seed };
        debug_assert_eq!(
            self.stream.first().copied(),
            Some(expect),
            "stream does not start at the reseed value"
        );
        self.pos = 0;
    }
}

impl SnapshotRng for StreamRng {
    fn load(&mut self, consumed: u64, next: u16) -> Result<(), &'static str> {
        // `consumed` is the stream cursor directly; `next` cross-checks
        // the snapshot against the extracted stream, so restoring a
        // behavioral snapshot into the wrong lane (or a corrupted one)
        // is caught instead of silently diverging.
        let pos = usize::try_from(consumed)
            .map_err(|_| "stream snapshot position does not fit in memory")?;
        if pos >= self.stream.len() {
            return Err("stream snapshot position is past the extracted stream");
        }
        if self.stream[pos] != next {
            return Err("snapshot RNG value disagrees with the extracted stream");
        }
        self.pos = pos;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::CaRng;

    #[test]
    fn lane_streams_match_the_reference_rng() {
        let seeds = [0xB342u16, 0x2961, 0x061F, 1, 0xFFFF];
        let streams = ca_lane_streams(&seeds, 200);
        assert_eq!(streams.len(), seeds.len());
        for (lane, (&seed, stream)) in seeds.iter().zip(&streams).enumerate() {
            let mut reference = CaRng::new(seed);
            for (k, &v) in stream.iter().enumerate() {
                assert_eq!(
                    v,
                    reference.next_u16(),
                    "lane {lane} seed {seed:#06x} diverged at draw {k}"
                );
            }
        }
    }

    #[test]
    fn zero_seed_gets_the_guard_remap() {
        let streams = ca_lane_streams(&[0], 8);
        let mut reference = CaRng::new(0); // remaps to 1 internally
        for &v in &streams[0] {
            assert_eq!(v, reference.next_u16());
        }
        assert_eq!(streams[0][0], 1);
    }

    #[test]
    fn full_64_lane_pack_is_supported() {
        let seeds: Vec<u16> = (1..=64).collect();
        let streams = ca_lane_streams(&seeds, 4);
        assert_eq!(streams.len(), 64);
        for (s, st) in seeds.iter().zip(&streams) {
            assert_eq!(st[0], *s, "first draw is the seed");
        }
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn more_than_64_seeds_rejected() {
        let seeds: Vec<u16> = (0..65).collect();
        let _ = ca_lane_streams(&seeds, 1);
    }

    #[test]
    fn full_256_lane_pack_matches_the_reference_rng() {
        // 256 seeds through one 4-word run: every lane — including the
        // word-boundary lanes 63/64/127/128/191/192 — must replay its
        // solo CaRng stream exactly.
        let seeds: Vec<u16> = (0..256u16).map(|i| i.wrapping_mul(2731) ^ 5).collect();
        let streams = try_ca_lane_streams_wide::<4>(&seeds, 12, u64::MAX).expect("unbounded");
        assert_eq!(streams.len(), 256);
        for (lane, (&seed, stream)) in seeds.iter().zip(&streams).enumerate() {
            let mut reference = CaRng::new(seed);
            for (k, &v) in stream.iter().enumerate() {
                assert_eq!(v, reference.next_u16(), "lane {lane} draw {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the 128 lanes")]
    fn wide_packs_enforce_their_own_lane_cap() {
        let seeds: Vec<u16> = (0..129).collect();
        let _ = try_ca_lane_streams_wide::<2>(&seeds, 1, u64::MAX);
    }

    #[test]
    fn step_watchdog_refuses_oversized_extractions() {
        assert_eq!(try_ca_lane_streams(&[1], 100, 10), Err(10));
        let ok = try_ca_lane_streams(&[1], 9, 10).expect("9 draws + 1 load step fit in 10");
        assert_eq!(ok[0].len(), 9);
    }

    #[test]
    fn stream_rng_replays_and_reseeds() {
        let mut r = StreamRng::new(vec![7, 8, 9]);
        assert_eq!(r.next_u16(), 7);
        assert_eq!(r.next_u16(), 8);
        assert_eq!(r.consumed(), 2);
        r.reseed(7);
        assert_eq!(r.next_u16(), 7);
    }

    #[test]
    fn stream_rng_snapshot_load_is_checked() {
        let mut r = StreamRng::new(vec![7, 8, 9]);
        r.next_u16();
        assert_eq!(r.save(), 8);
        // Reposition by (consumed, next) — the cross-backend contract.
        let mut other = StreamRng::new(vec![7, 8, 9]);
        other.load(1, 8).expect("valid position");
        assert_eq!(other.next_u16(), 8);
        assert!(other.load(1, 9).is_err(), "value mismatch is typed");
        assert!(other.load(3, 7).is_err(), "past-the-end is typed");
        assert_eq!(other.consumed(), 2, "failed loads leave the cursor");
    }

    #[test]
    fn draw_formula_even_and_odd_pops() {
        // pop 8: init 8, per gen 3·ceil(7/2) + 7 = 19.
        assert_eq!(draws_per_run(&GaParams::new(8, 2, 10, 1, 1)), 8 + 2 * 19);
        // pop 15 (odd): per gen 3·7 + 14 = 35.
        assert_eq!(draws_per_run(&GaParams::new(15, 3, 10, 1, 1)), 15 + 3 * 35);
    }
}
