//! Durable engine snapshots — the checkpoint/resume substrate.
//!
//! A [`EngineSnapshot`] captures everything the behavioral engine needs
//! to continue a run exactly where it stopped: the parameter set, the
//! live population, the elite/best-so-far, the generation counter, the
//! bookkeeping counters, and the RNG position as the backend-neutral
//! *(draws consumed, next draw)* pair (see [`carng::SnapshotRng`]).
//! Restoring a snapshot taken on one stepping backend into another —
//! behavioral CA register vs. a bitsim lane stream — reproduces the
//! remaining trajectory bit-for-bit, which is what makes sharded
//! multi-process islands resumable after a crash.
//!
//! The wire format is a hand-rolled versioned binary codec (the
//! workspace builds offline with no serde): a 2-byte magic, a version
//! byte, fixed-width little-endian fields, then the length-prefixed
//! population. [`hex_encode`]/[`hex_decode`] wrap it in lowercase hex
//! for JSONL transport and on-disk checkpoint files. The exact bytes
//! are pinned by a golden fixture test and property-tested for
//! round-trip identity and panic-free rejection of corrupted input.

use std::fmt;

use crate::behavioral::{FieldMode, Individual};
use crate::params::GaParams;

/// Current snapshot format version. Decoders reject anything newer.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Format magic: "GS" (GA snapshot).
const MAGIC: [u8; 2] = *b"GS";

/// Full behavioral-engine state at a generation boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// The parameter set in force (including the member's own seed).
    pub params: GaParams,
    /// Elitism toggle (always true outside ablation runs).
    pub elitism: bool,
    /// Operator field-extraction mode.
    pub field_mode: FieldMode,
    /// Generations completed so far.
    pub gen: u32,
    /// Sum of the current population's fitness values.
    pub fit_sum: u32,
    /// Fitness evaluations consumed so far.
    pub evaluations: u64,
    /// RNG draws consumed so far — the stream cursor for replay RNGs.
    pub rng_draws: u64,
    /// The value the next RNG draw will return.
    pub rng_next: u16,
    /// Best individual so far (the elite).
    pub best: Individual,
    /// The current population, in memory order.
    pub population: Vec<Individual>,
}

/// Typed decode failures. Corrupt or truncated input must land here —
/// never in a panic — which the proptest suite enforces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Input ended before a field was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The leading magic is not `GS`.
    BadMagic,
    /// The version byte names a format newer than this decoder.
    UnsupportedVersion {
        /// The version byte found.
        version: u8,
    },
    /// A hex payload had a non-hex digit or odd length.
    BadHex {
        /// Character offset of the offense.
        pos: usize,
    },
    /// Well-formed prefix followed by unconsumed bytes.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A field decoded but is not a reachable engine state.
    BadValue {
        /// What was wrong.
        what: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: needed {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "snapshot magic mismatch"),
            SnapshotError::UnsupportedVersion { version } => {
                write!(
                    f,
                    "snapshot version {version} is not supported (max {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::BadHex { pos } => write!(f, "invalid hex at offset {pos}"),
            SnapshotError::Trailing { extra } => {
                write!(f, "snapshot has {extra} trailing bytes")
            }
            SnapshotError::BadValue { what } => write!(f, "bad snapshot value: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A bounds-checked little-endian byte reader. Every take returns a
/// typed error instead of slicing out of range. Snapshots and island
/// checkpoint bundles both decode through it.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// The next `n` bytes, or [`SnapshotError::Truncated`].
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.bytes.len() {
            return Err(SnapshotError::Truncated {
                needed: self.pos + n,
                have: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// [`SnapshotError::Trailing`] unless every byte was read.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Trailing {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

impl EngineSnapshot {
    /// Serialize to the versioned binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + 4 * self.population.len());
        out.extend_from_slice(&MAGIC);
        out.push(SNAPSHOT_VERSION);
        out.push(self.params.pop_size);
        out.extend_from_slice(&self.params.n_gens.to_le_bytes());
        out.push(self.params.xover_threshold);
        out.push(self.params.mut_threshold);
        out.extend_from_slice(&self.params.seed.to_le_bytes());
        let flags = (self.elitism as u8)
            | (matches!(self.field_mode, FieldMode::ConsecutiveDraws) as u8) << 1;
        out.push(flags);
        out.extend_from_slice(&self.gen.to_le_bytes());
        out.extend_from_slice(&self.fit_sum.to_le_bytes());
        out.extend_from_slice(&self.evaluations.to_le_bytes());
        out.extend_from_slice(&self.rng_draws.to_le_bytes());
        out.extend_from_slice(&self.rng_next.to_le_bytes());
        out.extend_from_slice(&self.best.chrom.to_le_bytes());
        out.extend_from_slice(&self.best.fitness.to_le_bytes());
        out.extend_from_slice(&(self.population.len() as u16).to_le_bytes());
        for ind in &self.population {
            out.extend_from_slice(&ind.chrom.to_le_bytes());
            out.extend_from_slice(&ind.fitness.to_le_bytes());
        }
        out
    }

    /// Decode and validate. Rejects wrong magic, future versions,
    /// truncation, trailing bytes, and states no engine can reach
    /// (invalid params, population/pop_size disagreement, fitness-sum
    /// mismatch) — always as a typed [`SnapshotError`], never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        if r.take(2)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { version });
        }
        let params = GaParams {
            pop_size: r.u8()?,
            n_gens: r.u32()?,
            xover_threshold: r.u8()?,
            mut_threshold: r.u8()?,
            seed: r.u16()?,
        };
        let flags = r.u8()?;
        if flags & !0b11 != 0 {
            return Err(SnapshotError::BadValue {
                what: "unknown flag bits set",
            });
        }
        let elitism = flags & 1 != 0;
        let field_mode = if flags & 2 != 0 {
            FieldMode::ConsecutiveDraws
        } else {
            FieldMode::SharedDraw
        };
        let gen = r.u32()?;
        let fit_sum = r.u32()?;
        let evaluations = r.u64()?;
        let rng_draws = r.u64()?;
        let rng_next = r.u16()?;
        let best = Individual {
            chrom: r.u16()?,
            fitness: r.u16()?,
        };
        let pop_len = r.u16()? as usize;
        let mut population = Vec::with_capacity(pop_len.min(GaParams::MAX_POP as usize));
        for _ in 0..pop_len {
            population.push(Individual {
                chrom: r.u16()?,
                fitness: r.u16()?,
            });
        }
        r.finish()?;

        if params.validate().is_err() {
            return Err(SnapshotError::BadValue {
                what: "invalid GA parameters",
            });
        }
        if population.len() != params.pop_size as usize {
            return Err(SnapshotError::BadValue {
                what: "population length disagrees with pop_size",
            });
        }
        let sum: u32 = population.iter().map(|i| i.fitness as u32).sum();
        if sum != fit_sum {
            return Err(SnapshotError::BadValue {
                what: "fitness sum disagrees with the population",
            });
        }
        let pop_max = population.iter().map(|i| i.fitness).max().unwrap_or(0);
        if best.fitness < pop_max {
            return Err(SnapshotError::BadValue {
                what: "best-so-far is worse than the population",
            });
        }
        Ok(EngineSnapshot {
            params,
            elitism,
            field_mode,
            gen,
            fit_sum,
            evaluations,
            rng_draws,
            rng_next,
            best,
            population,
        })
    }

    /// Lowercase-hex wire form (JSONL transport, checkpoint files).
    pub fn to_hex(&self) -> String {
        hex_encode(&self.encode())
    }

    /// Decode the hex wire form.
    pub fn from_hex(s: &str) -> Result<Self, SnapshotError> {
        Self::decode(&hex_decode(s)?)
    }
}

/// Lowercase hex encoding — two digits per byte, no separators.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
    }
    s
}

/// Strict hex decoding: even length, `[0-9a-fA-F]` only.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, SnapshotError> {
    let b = s.as_bytes();
    if !b.len().is_multiple_of(2) {
        return Err(SnapshotError::BadHex { pos: b.len() });
    }
    let digit = |c: u8, pos: usize| {
        (c as char)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or(SnapshotError::BadHex { pos })
    };
    let mut out = Vec::with_capacity(b.len() / 2);
    for (i, pair) in b.chunks_exact(2).enumerate() {
        out.push((digit(pair[0], 2 * i)? << 4) | digit(pair[1], 2 * i + 1)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineSnapshot {
        EngineSnapshot {
            params: GaParams::new(2, 4, 10, 1, 0x2961),
            elitism: true,
            field_mode: FieldMode::SharedDraw,
            gen: 1,
            fit_sum: 5,
            evaluations: 6,
            rng_draws: 7,
            rng_next: 0x1234,
            best: Individual {
                chrom: 0xABCD,
                fitness: 3,
            },
            population: vec![
                Individual {
                    chrom: 1,
                    fitness: 2,
                },
                Individual {
                    chrom: 3,
                    fitness: 3,
                },
            ],
        }
    }

    /// The golden fixture pinning format v1 byte-for-byte. If this test
    /// fails, the wire format changed: bump [`SNAPSHOT_VERSION`] and
    /// keep a decoder for v1 instead of editing this constant.
    const GOLDEN_HEX: &str = "47530102040000000a016129 01 01000000 05000000 \
                              0600000000000000 0700000000000000 3412 cdab 0300 \
                              0200 01000200 03000300";

    #[test]
    fn golden_fixture_encodes_exactly() {
        let golden: String = GOLDEN_HEX.split_whitespace().collect();
        assert_eq!(sample().to_hex(), golden);
    }

    #[test]
    fn golden_fixture_decodes_exactly() {
        let golden: String = GOLDEN_HEX.split_whitespace().collect();
        assert_eq!(EngineSnapshot::from_hex(&golden).unwrap(), sample());
    }

    #[test]
    fn round_trips_through_bytes_and_hex() {
        let s = sample();
        assert_eq!(EngineSnapshot::decode(&s.encode()).unwrap(), s);
        assert_eq!(EngineSnapshot::from_hex(&s.to_hex()).unwrap(), s);
    }

    #[test]
    fn future_version_is_rejected() {
        let mut b = sample().encode();
        b[2] = SNAPSHOT_VERSION + 1;
        assert_eq!(
            EngineSnapshot::decode(&b),
            Err(SnapshotError::UnsupportedVersion {
                version: SNAPSHOT_VERSION + 1
            })
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut b = sample().encode();
        b[0] = b'X';
        assert_eq!(EngineSnapshot::decode(&b), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let b = sample().encode();
        for n in 0..b.len() {
            let r = EngineSnapshot::decode(&b[..n]);
            assert!(r.is_err(), "prefix of {n} bytes decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut b = sample().encode();
        b.push(0);
        assert_eq!(
            EngineSnapshot::decode(&b),
            Err(SnapshotError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn inconsistent_fit_sum_is_rejected() {
        let mut s = sample();
        s.fit_sum += 1;
        assert_eq!(
            EngineSnapshot::decode(&s.encode()),
            Err(SnapshotError::BadValue {
                what: "fitness sum disagrees with the population"
            })
        );
    }

    #[test]
    fn hex_decoding_is_strict() {
        assert_eq!(hex_decode("abc"), Err(SnapshotError::BadHex { pos: 3 }));
        assert_eq!(hex_decode("zz"), Err(SnapshotError::BadHex { pos: 0 }));
        assert_eq!(hex_decode("00ff"), Ok(vec![0, 0xFF]));
        assert_eq!(hex_encode(&[0, 0xFF, 0x2A]), "00ff2a");
    }
}
