//! The island-model composite: `ga_core::islands::IslandRing` lifted
//! onto the engine layer, so the ring-migration driver can run over
//! *any* registered backend that exposes a stepping handle
//! ([`crate::Capabilities::stepping`]) — the behavioral CA engine or a
//! bitsim64 netlist lane stream, interchangeably — and so the run can
//! be checkpointed after every epoch and resumed bit-identically after
//! a crash ([`CheckpointBundle`], [`IslandsEngine::resume`]).

use ga_core::islands::{island_seed, IslandConfig, IslandRing, IslandRun};
use ga_core::snapshot::{hex_decode, hex_encode, EngineSnapshot, SnapshotError};
use ga_core::{GaParams, Individual};

use crate::spec::{Engine, EngineError, Limits, RunSpec};

/// Current checkpoint-bundle format version. Decoders reject newer.
pub const CHECKPOINT_VERSION: u8 = 1;

/// Bundle magic: "GC" (GA checkpoint).
const MAGIC: [u8; 2] = *b"GC";

/// Everything needed to resume an island run from an epoch barrier:
/// the ring configuration, how many epochs already ran, and one
/// [`EngineSnapshot`] per island in ring order (taken *after* the
/// barrier's migration, so resuming replays nothing and skips nothing).
///
/// The wire format wraps the member snapshots in the same hand-rolled
/// binary+hex discipline as the snapshots themselves: magic `GC`, a
/// version byte, the config words, then length-prefixed member
/// payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointBundle {
    /// The ring configuration the run was started with.
    pub config: IslandConfig,
    /// Epoch barriers crossed before this checkpoint was taken.
    pub epochs_done: u32,
    /// Per-island engine snapshots, `members[k]` = island *k*.
    pub members: Vec<EngineSnapshot>,
}

impl CheckpointBundle {
    /// Serialize to the versioned binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(CHECKPOINT_VERSION);
        out.extend_from_slice(&(self.config.islands as u32).to_le_bytes());
        out.extend_from_slice(&self.config.epoch.to_le_bytes());
        out.extend_from_slice(&self.config.epochs.to_le_bytes());
        out.extend_from_slice(&self.epochs_done.to_le_bytes());
        out.extend_from_slice(&(self.members.len() as u32).to_le_bytes());
        for m in &self.members {
            let b = m.encode();
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(&b);
        }
        out
    }

    /// Decode and validate; corrupt input lands in a typed
    /// [`SnapshotError`], never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], SnapshotError> {
            if *pos + n > bytes.len() {
                return Err(SnapshotError::Truncated {
                    needed: *pos + n,
                    have: bytes.len(),
                });
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let u32_at = |pos: &mut usize| -> Result<u32, SnapshotError> {
            let b = take(pos, 4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        };
        let mut pos = 0usize;
        if take(&mut pos, 2)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = take(&mut pos, 1)?[0];
        if version != CHECKPOINT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { version });
        }
        let islands = u32_at(&mut pos)? as usize;
        let config = IslandConfig {
            islands,
            epoch: u32_at(&mut pos)?,
            epochs: u32_at(&mut pos)?,
        };
        let epochs_done = u32_at(&mut pos)?;
        let count = u32_at(&mut pos)? as usize;
        if count != islands {
            return Err(SnapshotError::BadValue {
                what: "member count disagrees with the island count",
            });
        }
        if epochs_done > config.epochs {
            return Err(SnapshotError::BadValue {
                what: "checkpoint is past the configured epochs",
            });
        }
        let mut members = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let len = u32_at(&mut pos)? as usize;
            members.push(EngineSnapshot::decode(take(&mut pos, len)?)?);
        }
        if pos != bytes.len() {
            return Err(SnapshotError::Trailing {
                extra: bytes.len() - pos,
            });
        }
        Ok(CheckpointBundle {
            config,
            epochs_done,
            members,
        })
    }

    /// Lowercase-hex wire form (socket protocol, checkpoint files).
    pub fn to_hex(&self) -> String {
        hex_encode(&self.encode())
    }

    /// Decode the hex wire form.
    pub fn from_hex(s: &str) -> Result<Self, SnapshotError> {
        Self::decode(&hex_decode(s)?)
    }
}

/// An island-model run over one inner [`Engine`]. Not itself an
/// `Engine` (its result shape is [`IslandRun`], per-island, not one
/// [`crate::RunOutcome`]); it is the composition layer the `islands`
/// bench bin, `examples/islands_engine.rs`, and the serve layer's
/// island workers drive.
pub struct IslandsEngine<'a> {
    inner: &'a dyn Engine,
    config: IslandConfig,
    limits: Limits,
}

/// A live epoch-granular island run: step it, checkpoint it, finish it.
/// Obtained from [`IslandsEngine::start`] (fresh) or
/// [`IslandsEngine::resume`] (from a [`CheckpointBundle`]).
pub struct IslandsDriver {
    ring: IslandRing<'static>,
}

impl IslandsDriver {
    /// Run one epoch (parallel evolution + ring migration) and return
    /// the barrier's checkpoint.
    pub fn step_epoch(&mut self) -> CheckpointBundle {
        self.ring.step_epoch();
        self.checkpoint()
    }

    /// The checkpoint for the current barrier.
    pub fn checkpoint(&self) -> CheckpointBundle {
        CheckpointBundle {
            config: self.ring.config(),
            epochs_done: self.ring.epochs_done(),
            members: self.ring.snapshots(),
        }
    }

    /// Epoch barriers crossed so far.
    pub fn epochs_done(&self) -> u32 {
        self.ring.epochs_done()
    }

    /// True once every configured epoch has run.
    pub fn done(&self) -> bool {
        self.ring.done()
    }

    /// Best individual across the ring right now.
    pub fn best(&self) -> Individual {
        self.ring.best()
    }

    /// Finish: fold the ring into the run result.
    pub fn finish(self) -> IslandRun {
        self.ring.finish()
    }
}

impl<'a> IslandsEngine<'a> {
    /// Compose over `inner`, which must advertise stepping support.
    pub fn new(inner: &'a dyn Engine, config: IslandConfig) -> Result<Self, EngineError> {
        if !inner.capabilities().stepping {
            return Err(EngineError::InvalidSpec {
                msg: format!(
                    "backend {} has no stepping handle; islands need one",
                    inner.kind().name()
                ),
            });
        }
        Ok(IslandsEngine {
            inner,
            config,
            limits: Limits::default(),
        })
    }

    /// Build members under `limits` instead of [`Limits::default`]: the
    /// stream watchdog refuses a bitsim member whose schedule runs too
    /// far down its CA stream.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// The total generation budget the schedule implies, after checking
    /// that `spec.params.n_gens` agrees with it. A disagreement is a
    /// typed [`EngineError::InvalidSpec`] — the schedule used to
    /// silently supersede `n_gens`, which hid caller bugs.
    fn admit_schedule(&self, spec: &RunSpec) -> Result<u32, EngineError> {
        let total = self
            .config
            .epoch
            .checked_mul(self.config.epochs)
            .ok_or_else(|| EngineError::InvalidSpec {
                msg: format!(
                    "island schedule overflows: epoch {} × epochs {}",
                    self.config.epoch, self.config.epochs
                ),
            })?;
        if spec.params.n_gens != total {
            return Err(EngineError::InvalidSpec {
                msg: format!(
                    "params.n_gens {} disagrees with the island schedule \
                     epoch {} × epochs {} = {total}",
                    spec.params.n_gens, self.config.epoch, self.config.epochs
                ),
            });
        }
        Ok(total)
    }

    /// Build one seeded stepping member per island. Island *k* gets the
    /// shared CA stream jumped ahead to its [`island_seed`] slot.
    fn members(&self, spec: &RunSpec) -> Result<Vec<Box<dyn ga_core::IslandMember>>, EngineError> {
        (0..self.config.islands)
            .map(|k| {
                let seed = island_seed(spec.params.seed, k, self.config.islands);
                let p = GaParams {
                    seed,
                    ..spec.params
                };
                let prepared = self.inner.prepare(RunSpec { params: p, ..*spec })?;
                self.inner.stepper(&prepared, &self.limits)
            })
            .collect()
    }

    /// Start a fresh epoch-granular run at barrier zero.
    pub fn start(&self, spec: RunSpec) -> Result<IslandsDriver, EngineError> {
        self.admit_schedule(&spec)?;
        Ok(IslandsDriver {
            ring: IslandRing::new(self.config, self.members(&spec)?),
        })
    }

    /// Reconstruct a run from a checkpoint: fresh members are built
    /// exactly as [`IslandsEngine::start`] builds them, then each is
    /// restored from its snapshot — so the remaining epochs are
    /// bit-identical to the uninterrupted run, even across stepping
    /// backends (a behavioral checkpoint resumes on bitsim and vice
    /// versa; the RNG position survives as the *(draws, next)* pair).
    pub fn resume(
        &self,
        spec: RunSpec,
        bundle: &CheckpointBundle,
    ) -> Result<IslandsDriver, EngineError> {
        self.admit_schedule(&spec)?;
        if bundle.config != self.config {
            return Err(EngineError::InvalidSpec {
                msg: format!(
                    "checkpoint was taken under a different island config \
                     ({:?} vs {:?})",
                    bundle.config, self.config
                ),
            });
        }
        if bundle.members.len() != self.config.islands {
            return Err(EngineError::InvalidSpec {
                msg: format!(
                    "checkpoint has {} member snapshots for {} islands",
                    bundle.members.len(),
                    self.config.islands
                ),
            });
        }
        let mut members = self.members(&spec)?;
        for (k, (m, snap)) in members.iter_mut().zip(&bundle.members).enumerate() {
            m.restore(snap).map_err(|e| EngineError::InvalidSpec {
                msg: format!("island {k} snapshot does not restore: {e}"),
            })?;
        }
        Ok(IslandsDriver {
            ring: IslandRing::resume(self.config, members, bundle.epochs_done),
        })
    }

    /// Run the ring to completion. Island *k* gets the shared CA stream
    /// jumped ahead to its [`island_seed`] slot; `spec.params.n_gens`
    /// must equal `epoch × epochs` ([`EngineError::InvalidSpec`]
    /// otherwise).
    pub fn run(&self, spec: RunSpec) -> Result<IslandRun, EngineError> {
        let mut driver = self.start(spec)?;
        while !driver.done() {
            driver.step_epoch();
        }
        Ok(driver.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{BehavioralEngine, BitSimEngine, SwgaEngine};
    use crate::spec::BackendKind;
    use ga_fitness::TestFunction;

    fn spec(params: GaParams) -> RunSpec {
        RunSpec {
            width: 16,
            workload: crate::spec::Workload::Function(TestFunction::Bf6),
            params,
            deadline_ms: None,
        }
    }

    #[test]
    fn composite_matches_the_core_island_runner() {
        // Over the behavioral backend the composite must reproduce
        // ga_core::run_islands exactly: same seeds, same engines.
        let params = GaParams::new(32, 32, 10, 1, 0x2961);
        let config = IslandConfig {
            islands: 4,
            epoch: 8,
            epochs: 4,
        };
        let composite = IslandsEngine::new(&BehavioralEngine, config)
            .expect("behavioral steps")
            .run(spec(params))
            .expect("runs");
        let f = TestFunction::Bf6;
        let direct = ga_core::run_islands(params, config, |c| f.eval_u16(c));
        assert_eq!(composite, direct);
    }

    #[test]
    fn bitsim_islands_match_behavioral_islands() {
        // The strongest cross-backend check: netlist-extracted lane
        // streams drive the same ring to the same result.
        let params = GaParams::new(16, 16, 10, 1, 0xB342);
        let config = IslandConfig {
            islands: 3,
            epoch: 4,
            epochs: 4,
        };
        let beh = IslandsEngine::new(&BehavioralEngine, config)
            .expect("steps")
            .run(spec(params))
            .expect("runs");
        let bit = IslandsEngine::new(&BitSimEngine(BackendKind::BitSim64), config)
            .expect("steps")
            .run(spec(params))
            .expect("runs");
        assert_eq!(beh, bit, "stream-backed islands must be bit-identical");
    }

    #[test]
    fn non_stepping_backends_are_refused_up_front() {
        let config = IslandConfig {
            islands: 2,
            epoch: 2,
            epochs: 2,
        };
        assert!(matches!(
            IslandsEngine::new(&SwgaEngine, config),
            Err(EngineError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn mismatched_n_gens_is_a_typed_invalid_spec() {
        // The schedule must agree with params.n_gens — no silent
        // supersession.
        let config = IslandConfig {
            islands: 2,
            epoch: 4,
            epochs: 4,
        };
        let engine = IslandsEngine::new(&BehavioralEngine, config).expect("steps");
        let bad = spec(GaParams::new(16, 8, 10, 1, 0x2961)); // 8 ≠ 16
        match engine.run(bad) {
            Err(EngineError::InvalidSpec { msg }) => {
                assert!(msg.contains("n_gens"), "{msg}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        let good = spec(GaParams::new(16, 16, 10, 1, 0x2961));
        assert!(engine.run(good).is_ok());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_across_backends() {
        // Kill after every barrier in turn; resume must converge to the
        // uninterrupted result — including resuming a behavioral
        // checkpoint on bitsim64 and vice versa.
        let params = GaParams::new(16, 12, 10, 1, 0x2961);
        let config = IslandConfig {
            islands: 3,
            epoch: 4,
            epochs: 3,
        };
        let beh = IslandsEngine::new(&BehavioralEngine, config).expect("steps");
        let bit = IslandsEngine::new(&BitSimEngine(BackendKind::BitSim64), config).expect("steps");
        let reference = beh.run(spec(params)).expect("runs");

        let mut driver = beh.start(spec(params)).expect("starts");
        let mut bundles = vec![driver.checkpoint()];
        while !driver.done() {
            bundles.push(driver.step_epoch());
        }
        assert_eq!(driver.finish(), reference);

        for bundle in &bundles {
            // Codec round trip on the real thing.
            let wire = CheckpointBundle::from_hex(&bundle.to_hex()).expect("wire");
            assert_eq!(&wire, bundle);
            for resumer in [&beh, &bit] {
                let mut d = resumer.resume(spec(params), &wire).expect("resumes");
                while !d.done() {
                    d.step_epoch();
                }
                assert_eq!(
                    d.finish(),
                    reference,
                    "resume from barrier {} diverged",
                    bundle.epochs_done
                );
            }
        }
    }

    #[test]
    fn bundle_decode_rejects_corruption_with_typed_errors() {
        let params = GaParams::new(8, 4, 10, 1, 0x061F);
        let config = IslandConfig {
            islands: 2,
            epoch: 2,
            epochs: 2,
        };
        let engine = IslandsEngine::new(&BehavioralEngine, config).expect("steps");
        let mut d = engine.start(spec(params)).expect("starts");
        let bundle = d.step_epoch();
        let bytes = bundle.encode();
        for n in 0..bytes.len() {
            assert!(CheckpointBundle::decode(&bytes[..n]).is_err());
        }
        let mut future = bytes.clone();
        future[2] = CHECKPOINT_VERSION + 1;
        assert!(matches!(
            CheckpointBundle::decode(&future),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert_eq!(
            CheckpointBundle::decode(&wrong_magic),
            Err(SnapshotError::BadMagic)
        );
        // A checkpoint from a different ring shape does not resume.
        let other = IslandsEngine::new(
            &BehavioralEngine,
            IslandConfig {
                islands: 3,
                epoch: 2,
                epochs: 2,
            },
        )
        .expect("steps");
        assert!(matches!(
            other.resume(spec(params), &bundle),
            Err(EngineError::InvalidSpec { .. })
        ));
    }
}
