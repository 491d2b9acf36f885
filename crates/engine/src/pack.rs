//! Job packing for the bitsim backends: lane streams produced on demand.
//!
//! The GA around the RNG is data-dependent, so it cannot be bit-sliced,
//! but the RNG stream the netlist models can. Jobs with the same
//! population size and generation count draw on one data-independent
//! schedule ([`draws_per_run`]), so up to 256 of them share **one** run
//! of the compiled CA-RNG netlist, one seed per lane, each lane driving
//! an ordinary behavioral engine through a [`StreamRng`]. The netlist is
//! gate-level equivalent to `carng::CaRng`, so a packed lane's result is
//! bit-identical to a solo run. A pack runs at the narrowest width
//! W ∈ {1, 2, 4} words per net that holds it; unseeded tail lanes sit
//! at the CA's all-zero fixed point and are never read.
//!
//! Nothing is extracted ahead of the GA, as the paper's core takes one
//! CA word per `rn_consume`: a pack's lane source keeps the 16 CA
//! register words and steps one 64-draw block for every lane when a
//! lane runs dry. Lanes step in generation lockstep, so none holds more
//! than about one generation plus one block, and none can overrun.
//!
//! The seed-load edge runs on the full netlist, streaming on its
//! [specialisation](ga_synth::CompiledNetlist::specialize) for
//! `ctl = consume` (22 of 152 ops); each step's 16 `rn` words become
//! per-lane draws with one 8×8 bit transpose per 8 lanes per byte-half.

use std::sync::{Arc, Mutex, PoisonError};

use carng::{Rng16, SnapshotRng};
use ga_core::GaParams;
use ga_synth::BitSimW;

use crate::cache::global_cache;

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

/// Collect `draws` outputs per seed from one run of the CA-RNG netlist
/// at `W` words per net. Zero seeds get the RNG module's guard remap
/// (0 → 1), as in `carng::CaRng`; a lane's stream never depends on `W`.
/// That costs `draws + 1` netlist steps (the load edge plus one per
/// draw); past `max_steps` it is refused up front with `Err(max_steps)`.
pub fn try_ca_lane_streams_wide<const W: usize>(
    seeds: &[u16],
    draws: usize,
    max_steps: u64,
) -> Result<Vec<Vec<u16>>, u64> {
    if (draws as u64).saturating_add(1) > max_steps {
        return Err(max_steps);
    }
    let mut src = LaneSource::wide::<W>(seeds);
    for _ in 0..draws.div_ceil(BLOCK) {
        (src.block)(&mut src.pending);
    }
    let mut streams: Vec<Vec<u16>> = src.pending.into_iter().flatten().collect();
    streams.iter_mut().for_each(|s| s.truncate(draws));
    Ok(streams)
}

/// Draws each lane receives per block.
const BLOCK: usize = 64;

/// The CA-RNG period: every nonzero register state, so every draw,
/// recurs exactly once per this many draws.
const PERIOD: u64 = 65_535;

/// Steps a pack's CA registers one block and appends each lane's draws
/// to its stream in `pending`.
type BlockFn = dyn FnMut(&mut [Option<Vec<u16>>]) + Send;

/// One pack's lane streams, produced on demand.
struct LaneSource {
    block: Box<BlockFn>,
    /// Per lane, the draws produced but not yet taken (`None` once its
    /// reader is gone).
    pending: Vec<Option<Vec<u16>>>,
}

impl LaneSource {
    /// A source at the narrowest width that holds `seeds`.
    fn new(seeds: &[u16]) -> Self {
        match seeds.len() {
            0..=64 => Self::wide::<1>(seeds),
            65..=128 => Self::wide::<2>(seeds),
            _ => Self::wide::<4>(seeds),
        }
    }

    /// A source at `W` words per net: the seed-load edge runs on the
    /// full netlist, then its register words seed the streaming sim.
    fn wide<const W: usize>(seeds: &[u16]) -> Self {
        assert!(
            seeds.len() <= BitSimW::<W>::LANES,
            "{} seeds exceed the {} lanes of one pack",
            seeds.len(),
            BitSimW::<W>::LANES
        );
        let (full, consume) = (global_cache().ca_rng(), global_cache().ca_rng_consume());
        let seed_bus = full.input_bus("seed").expect("seed bus");
        let mut load = full.sim_wide::<W>();
        for (lane, &s) in seeds.iter().enumerate() {
            load.set_bus_lane(seed_bus, lane, s.max(1) as u64); // the zero-seed guard
        }
        load.set_bus_all(full.input_bus("ctl").expect("ctl bus"), 0b01); // ctl[0] = seed_load
        load.step();
        let mut sim = consume.sim_wide::<W>();
        for r in consume.regs() {
            sim.set_net_words(r.q, load.net_words(r.q));
        }
        let rn_bus = consume.output_bus("rn").expect("rn bus");
        // Planes of one block, group-major: `planes[g * BLOCK + t]` holds
        // draw `t` of lanes `8g..8g+8` as a (low, high) byte-plane pair.
        let mut planes = vec![[0u64; 2]; seeds.len().div_ceil(8) * BLOCK];
        let block = move |pending: &mut [Option<Vec<u16>>]| {
            // The rn output bus IS the register bank, so it already reads
            // the next draw: sample-then-advance matches `Rng16::next_u16`.
            for t in 0..BLOCK {
                let rn: [[u64; W]; 16] = std::array::from_fn(|i| sim.net_words(rn_bus[i]));
                for g in 0..planes.len() / BLOCK {
                    planes[g * BLOCK + t] = transpose_group(&rn, g);
                }
                sim.step();
            }
            for (lane, stream) in pending.iter_mut().enumerate() {
                let (g, c) = (lane / 8, 8 * (lane % 8));
                stream.iter_mut().for_each(|s| {
                    s.extend(planes[g * BLOCK..(g + 1) * BLOCK].iter().map(|&[lo, hi]| {
                        ((lo >> c) & 0xFF) as u16 | (((hi >> c) & 0xFF) as u16) << 8
                    }))
                });
            }
        };
        LaneSource {
            block: Box::new(block),
            pending: vec![Some(Vec::new()); seeds.len()],
        }
    }
}

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

/// An [`Rng16`] over one CA-RNG lane stream — the glue between a bitsim
/// lane and the behavioral engine. It replays the draws in hand and
/// takes the next ones from its lane of a shared lane source.
pub struct StreamRng {
    /// Draws in hand; `buf[pos]` is the next, so `buf` never runs out.
    buf: Vec<u16>,
    pos: usize,
    /// Draws consumed before `buf[0]`.
    base: u64,
    src: Arc<Mutex<LaneSource>>,
    lane: usize,
}

impl StreamRng {
    /// Replay an extracted lane stream, then run on from its last draw:
    /// a CA draw is the register state, so it alone determines the rest.
    pub fn new(mut stream: Vec<u16>) -> Self {
        let last = stream.pop().expect("an RNG stream cannot be empty");
        let mut rng = Self::lanes(&[last]).pop().expect("one lane");
        stream.append(&mut rng.buf);
        rng.buf = stream;
        rng
    }

    /// One reader per seed over a shared lane source.
    pub(crate) fn lanes(seeds: &[u16]) -> Vec<StreamRng> {
        let src = Arc::new(Mutex::new(LaneSource::new(seeds)));
        (0..seeds.len())
            .map(|lane| {
                let (buf, src) = (Vec::new(), Arc::clone(&src));
                let mut rng = StreamRng {
                    buf,
                    pos: 0,
                    base: 0,
                    src,
                    lane,
                };
                rng.refill();
                rng
            })
            .collect()
    }

    /// Draws consumed so far.
    pub fn consumed(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Take the draws produced for this lane, stepping a block first if
    /// there are none; the draws in hand are all consumed.
    #[cold]
    fn refill(&mut self) {
        (self.base, self.pos) = (self.consumed(), 0);
        let src = &mut *self.src.lock().unwrap_or_else(PoisonError::into_inner);
        if src.pending[self.lane].as_ref().is_some_and(Vec::is_empty) {
            (src.block)(&mut src.pending);
        }
        self.buf.clear();
        let pending = src.pending[self.lane]
            .as_mut()
            .expect("a live lane is open");
        std::mem::swap(&mut self.buf, pending);
    }
}

impl Drop for StreamRng {
    fn drop(&mut self) {
        let mut src = self.src.lock().unwrap_or_else(PoisonError::into_inner);
        src.pending[self.lane] = None;
    }
}

impl Rng16 for StreamRng {
    fn output(&self) -> u16 {
        self.buf[self.pos]
    }

    #[inline]
    fn step(&mut self) {
        self.pos += 1;
        if self.pos == self.buf.len() {
            self.refill();
        }
    }

    fn reseed(&mut self, seed: u16) {
        // The engine reseeds on construction: the stream starts there.
        debug_assert_eq!((self.base, self.buf[0]), (0, seed.max(1)));
        self.pos = 0;
    }
}

impl SnapshotRng for StreamRng {
    fn load(&mut self, consumed: u64, next: u16) -> Result<(), &'static str> {
        // Step a fresh lane from the nearest draw in hand to position
        // `consumed`, modulo the CA period, so a restore costs fewer than
        // `PERIOD` netlist steps wherever the snapshot points. `next`
        // cross-checks the snapshot against the stream, so a snapshot
        // from another lane (or a corrupted one) is caught instead of
        // silently diverging. A failed load leaves the cursor as it was.
        let k = consumed
            .saturating_sub(self.base)
            .min(self.buf.len() as u64 - 1);
        let ahead = (consumed % PERIOD + PERIOD - (self.base + k) % PERIOD) % PERIOD;
        let mut lane = Self::lanes(&[self.buf[k as usize]])
            .pop()
            .expect("one lane");
        for _ in 0..ahead {
            lane.step();
        }
        if lane.output() != next {
            return Err("snapshot RNG value disagrees with the lane stream");
        }
        lane.buf.drain(..lane.pos);
        (lane.base, lane.pos) = (consumed, 0);
        *self = lane;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::CaRng;

    fn streams(seeds: &[u16], draws: usize) -> Vec<Vec<u16>> {
        try_ca_lane_streams_wide::<1>(seeds, draws, u64::MAX).expect("unbounded")
    }

    #[test]
    fn lane_streams_match_the_reference_rng() {
        let seeds = [0xB342u16, 0x2961, 0x061F, 1, 0xFFFF];
        let streams = streams(&seeds, 200);
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
        let streams = streams(&[0], 8);
        let mut reference = CaRng::new(0); // remaps to 1 internally
        for &v in &streams[0] {
            assert_eq!(v, reference.next_u16());
        }
        assert_eq!(streams[0][0], 1);
    }

    #[test]
    fn full_64_lane_pack_is_supported() {
        let seeds: Vec<u16> = (1..=64).collect();
        let streams = streams(&seeds, 4);
        assert_eq!(streams.len(), 64);
        for (s, st) in seeds.iter().zip(&streams) {
            assert_eq!(st[0], *s, "first draw is the seed");
        }
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn more_than_64_seeds_rejected() {
        let seeds: Vec<u16> = (0..65).collect();
        let _ = streams(&seeds, 1);
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
        assert_eq!(try_ca_lane_streams_wide::<1>(&[1], 100, 10), Err(10));
        let ok = try_ca_lane_streams_wide::<1>(&[1], 9, 10).expect("9 draws + 1 load step fit");
        assert_eq!(ok[0].len(), 9);
    }

    #[test]
    fn on_demand_lanes_match_the_reference_rng_at_every_width() {
        // Readers of one pack taking their draws in lockstep, one
        // generation-sized gulp per lane per round, at each width.
        for lanes in [3, 100, 200] {
            let seeds: Vec<u16> = (0..lanes as u16).map(|i| i.wrapping_mul(0x9E37)).collect();
            let mut readers = StreamRng::lanes(&seeds);
            let mut reference: Vec<CaRng> = seeds.iter().map(|&s| CaRng::new(s)).collect();
            let mut got = [0u16; 97];
            for _ in 0..10 {
                for (lane, (r, want)) in readers.iter_mut().zip(&mut reference).enumerate() {
                    r.fill_u16s(&mut got);
                    for &v in &got {
                        assert_eq!(v, want.next_u16(), "{lanes} lanes, lane {lane}");
                    }
                }
            }
            assert_eq!(readers[0].consumed(), 970);
        }
    }

    #[test]
    fn stream_rng_replays_then_continues_the_ca() {
        let mut reference = CaRng::new(0x2961);
        let mut whole: Vec<u16> = (0..200).map(|_| reference.next_u16()).collect();
        let mut r = StreamRng::new(whole[..3].to_vec());
        let mut got = vec![0u16; 200];
        r.fill_u16s(&mut got);
        assert_eq!(got, whole);
        whole.push(reference.next_u16());
        assert_eq!(r.next_u16(), whole[200]);
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
        assert!(
            other.load(3, 7).is_err(),
            "a mismatch past the end is typed"
        );
        assert_eq!(other.consumed(), 2, "failed loads leave the cursor");
    }

    #[test]
    fn restore_steps_at_most_one_ca_period() {
        let mut reference = CaRng::new(0xB342);
        let whole: Vec<u16> = (0..1000).map(|_| reference.next_u16()).collect();
        let mut lane = StreamRng::lanes(&[0xB342]).pop().expect("one lane");
        lane.load(301, whole[301])
            .expect("ahead of the draws in hand");
        assert_eq!(lane.next_u16(), whole[301]);
        // One draw behind the first in hand: the worst case, a period
        // less one step on.
        let start = std::time::Instant::now();
        lane.load(300, whole[300])
            .expect("behind the draws in hand");
        assert_eq!(lane.next_u16(), whole[300]);
        assert!(start.elapsed().as_secs() < 5, "{:?}", start.elapsed());
        // The CA repeats every PERIOD draws, so a position any number of
        // periods on is the same draw.
        let far = 1_999_999_000 / PERIOD * PERIOD + 500;
        lane.load(far, whole[500])
            .expect("a far position is one draw");
        assert_eq!((lane.consumed(), lane.next_u16()), (far, whole[500]));
        assert!(lane.load(far + 2, whole[500]).is_err(), "value mismatch");
        assert_eq!(lane.consumed(), far + 1, "failed loads leave the cursor");
        assert_eq!(lane.next_u16(), whole[501]);
    }

    #[test]
    fn draw_formula_even_and_odd_pops() {
        // pop 8: init 8, per gen 3·ceil(7/2) + 7 = 19.
        assert_eq!(draws_per_run(&GaParams::new(8, 2, 10, 1, 1)), 8 + 2 * 19);
        // pop 15 (odd): per gen 3·7 + 14 = 35.
        assert_eq!(draws_per_run(&GaParams::new(15, 3, 10, 1, 1)), 15 + 3 * 35);
    }
}
