//! The island model's one migration loop, [`IslandRing`], and the
//! composite that runs it over *any* backend exposing a
//! stepping handle ([`crate::Capabilities::stepping`]) — the behavioral
//! CA engine or a bitsim64 netlist lane stream, interchangeably. The
//! run can be checkpointed after every epoch and resumed bit-identically
//! after a crash ([`CheckpointBundle`], [`IslandsEngine::resume`]).
//!
//! The ring is generic over a fallible [`RingMember`]: an in-process
//! stepping handle here, a socket to an island-worker process in
//! `ga-serve`'s `Coordinator`, whose worker answers through an
//! in-process member built by [`island_member`]. Both run the same
//! epoch loop. Each ring call issues its [`RingOp`] to every member,
//! then collects the replies in ring order, all on the caller's thread:
//! an in-process member does its work when the op is issued, a shard
//! connection sends the op line then and reads the reply later, so
//! shards evolve at the same time. A member that fails — a closed shard
//! connection, a panicking island — surfaces as [`EngineError::Island`]
//! naming its index.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ga_core::islands::{island_seed, IslandConfig, IslandRun};
use ga_core::snapshot::{hex_decode, hex_encode, ByteReader, EngineSnapshot, SnapshotError};
use ga_core::{GaParams, Individual, IslandMember};

use crate::spec::{Engine, EngineError, Limits, Prepared, RunSpec};

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
        let mut r = ByteReader::new(bytes);
        if r.take(2)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u8()?;
        if version != CHECKPOINT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { version });
        }
        let islands = r.u32()? as usize;
        let config = IslandConfig {
            islands,
            epoch: r.u32()?,
            epochs: r.u32()?,
        };
        let epochs_done = r.u32()?;
        let count = r.u32()? as usize;
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
            let len = r.u32()? as usize;
            members.push(EngineSnapshot::decode(r.take(len)?)?);
        }
        r.finish()?;
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

    /// Check that this checkpoint can resume a ring run under `config`:
    /// same ring shape, one snapshot per island. Callers check before
    /// building members from [`CheckpointBundle::members`].
    pub fn fits(&self, config: IslandConfig) -> Result<(), EngineError> {
        let msg = if self.config != config {
            format!(
                "checkpoint was taken under a different island config ({:?} vs {config:?})",
                self.config
            )
        } else if self.members.len() != config.islands {
            format!(
                "checkpoint has {} member snapshots for {} islands",
                self.members.len(),
                config.islands
            )
        } else {
            return Ok(());
        };
        Err(EngineError::InvalidSpec { msg })
    }
}

/// One ring call. The ring issues it to every member before it collects
/// any reply, so members that work elsewhere (shard processes) work at
/// the same time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingOp {
    /// Evolve this many generations; answered by [`RingReply::Best`].
    Evolve(u32),
    /// Replace the worst individual with the migrant; answered by
    /// [`RingReply::Accepted`].
    Accept(Individual),
    /// Capture the full state at the current barrier; answered by
    /// [`RingReply::Snapshot`].
    Capture,
    /// Report the final best and the fitness evaluations consumed;
    /// answered by [`RingReply::Concluded`].
    Conclude,
}

/// A member's answer to a [`RingOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingReply {
    /// The best individual after an [`RingOp::Evolve`].
    Best(Individual),
    /// The migrant of an [`RingOp::Accept`] is in.
    Accepted,
    /// The member's state at the barrier.
    Snapshot(EngineSnapshot),
    /// Final best individual and fitness evaluations consumed.
    Concluded(Individual, u64),
}

/// One island, as the epoch loop sees it. Every ring call is two steps:
/// [`RingMember::issue`] to every member, then [`RingMember::collect`]
/// from each in ring order. Either step may fail — a remote member's
/// connection can drop mid-run — and the ring turns a failure into
/// [`EngineError::Island`] carrying the member's index.
pub trait RingMember {
    /// What [`RingMember::collect`] needs to finish an issued op: the
    /// reply itself for a member that works when the op is issued, the
    /// op for one that reads its reply later.
    type Pending;
    /// Start `op`.
    fn issue(&mut self, op: RingOp) -> Result<Self::Pending, String>;
    /// Finish the op that [`RingMember::issue`] started.
    fn collect(&mut self, pending: Self::Pending) -> Result<RingReply, String>;
}

/// The in-process member: a stepping handle, which does the work on the
/// calling thread when the op is issued. A panic inside it is caught and
/// becomes the member's error.
impl RingMember for Box<dyn IslandMember + '_> {
    type Pending = RingReply;

    fn issue(&mut self, op: RingOp) -> Result<RingReply, String> {
        catch_unwind(AssertUnwindSafe(|| match op {
            RingOp::Evolve(gens) => {
                for _ in 0..gens {
                    self.step_generation();
                }
                RingReply::Best(self.best())
            }
            RingOp::Accept(migrant) => {
                self.inject(migrant);
                RingReply::Accepted
            }
            RingOp::Capture => RingReply::Snapshot(self.snapshot()),
            RingOp::Conclude => RingReply::Concluded(self.best(), self.evaluations()),
        }))
        .map_err(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            format!("island panicked: {msg}")
        })
    }

    fn collect(&mut self, reply: RingReply) -> Result<RingReply, String> {
        Ok(reply)
    }
}

/// The epoch-granular ring: members between epochs, ring migration at
/// every barrier, every call issued to all members before any reply is
/// collected. Stepping one epoch at a time (instead of running to
/// completion) is what lets a caller checkpoint every member after each
/// barrier and resume a killed run from the snapshots — the trajectory
/// is bit-identical either way because all cross-island traffic happens
/// at the barrier.
///
/// The ring starts no threads: in-process members evolve one after
/// another on the caller's thread, so a lone island job does not spread
/// its islands over cores. A server already runs jobs in parallel on its
/// worker pool, and shard members evolve in their own processes.
pub struct IslandRing<M> {
    config: IslandConfig,
    members: Vec<M>,
    epochs_done: u32,
    migrations: u64,
}

/// Maps a member's failure to the typed error naming its island.
fn at(island: usize) -> impl Fn(String) -> EngineError {
    move |msg| EngineError::Island { island, msg }
}

impl<M: RingMember> IslandRing<M> {
    /// A ring over `members`, which are already positioned at the
    /// `epochs_done` barrier (fresh populations at 0, or restored from a
    /// checkpoint). `members[k]` is island *k*; callers seed the members
    /// with disjoint streams ([`island_seed`]). A config with a zero
    /// count, a member count off the island count, or a barrier past the
    /// schedule is an [`EngineError::InvalidSpec`].
    pub fn new(
        config: IslandConfig,
        members: Vec<M>,
        epochs_done: u32,
    ) -> Result<Self, EngineError> {
        let msg = if config.islands == 0 || config.epoch == 0 || config.epochs == 0 {
            format!("island config {config:?} needs at least one island, generation and epoch")
        } else if members.len() != config.islands {
            format!("{} members for {} islands", members.len(), config.islands)
        } else if epochs_done > config.epochs {
            format!("barrier {epochs_done} is past the {} epochs", config.epochs)
        } else {
            return Ok(IslandRing {
                config,
                members,
                epochs_done,
                migrations: 0,
            });
        };
        Err(EngineError::InvalidSpec { msg })
    }

    /// Run one epoch and return the barrier's checkpoint. After an
    /// [`EngineError::Island`] the other members may have stepped while
    /// `epochs_done` did not: drop the ring and resume from the last
    /// checkpoint.
    pub fn step_epoch(&mut self) -> Result<CheckpointBundle, EngineError> {
        self.advance()?;
        self.checkpoint()
    }

    /// Issue `op(k)` to every member *k*, then collect the replies in
    /// ring order, each unpacked by `want` (`None` for a reply of the
    /// wrong kind). Every member that took its op is collected from,
    /// even past a failure, so no reply is left unread on a connection;
    /// the first failure in ring order is the error, naming its island.
    fn call_all<T>(
        &mut self,
        op: impl Fn(usize) -> RingOp,
        want: impl Fn(RingReply) -> Option<T>,
    ) -> Result<Vec<T>, EngineError> {
        let pending: Vec<_> = self
            .members
            .iter_mut()
            .enumerate()
            .map(|(k, m)| m.issue(op(k)))
            .collect();
        let replies: Vec<_> = self
            .members
            .iter_mut()
            .zip(pending)
            .enumerate()
            .map(|(k, (m, p))| {
                let reply = p.and_then(|p| m.collect(p)).map_err(at(k))?;
                want(reply).ok_or_else(|| at(k)(format!("reply does not answer {:?}", op(k))))
            })
            .collect();
        replies.into_iter().collect()
    }

    /// Evolve every island for `epoch` generations, then migrate: island
    /// *k*'s best replaces the worst member of island *(k+1) mod n*.
    /// Past the schedule this steps nothing and is an
    /// [`EngineError::InvalidSpec`].
    fn advance(&mut self) -> Result<(), EngineError> {
        if self.done() {
            return Err(EngineError::InvalidSpec {
                msg: format!("all {} epochs already ran", self.config.epochs),
            });
        }
        let gens = self.config.epoch;
        let bests = self.call_all(
            |_| RingOp::Evolve(gens),
            |r| match r {
                RingReply::Best(b) => Some(b),
                _ => None,
            },
        )?;
        let n = bests.len();
        if n > 1 {
            // All bests are collected before any migrant is issued, so a
            // migrant never leaks into a later island's outgoing best.
            self.call_all(
                |k| RingOp::Accept(bests[(k + n - 1) % n]),
                |r| (r == RingReply::Accepted).then_some(()),
            )?;
            self.migrations += n as u64;
        }
        self.epochs_done += 1;
        Ok(())
    }

    /// The checkpoint for the current barrier: every member captured,
    /// in ring order.
    pub fn checkpoint(&mut self) -> Result<CheckpointBundle, EngineError> {
        let members = self.call_all(
            |_| RingOp::Capture,
            |r| match r {
                RingReply::Snapshot(s) => Some(s),
                _ => None,
            },
        )?;
        Ok(CheckpointBundle {
            config: self.config,
            epochs_done: self.epochs_done,
            members,
        })
    }

    /// Epoch barriers crossed so far (counting resumed-from ones).
    pub fn epochs_done(&self) -> u32 {
        self.epochs_done
    }

    /// True once every configured epoch has run.
    pub fn done(&self) -> bool {
        self.epochs_done >= self.config.epochs
    }

    /// Migrant transfers made by this ring (one per island per barrier
    /// on rings larger than one).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Run the remaining epochs without checkpointing, then finish.
    pub fn run(mut self) -> Result<IslandRun, EngineError> {
        while !self.done() {
            self.advance()?;
        }
        self.finish()
    }

    /// Finish: fold the members into the run result (later islands win
    /// fitness ties).
    pub fn finish(mut self) -> Result<IslandRun, EngineError> {
        let concluded = self.call_all(
            |_| RingOp::Conclude,
            |r| match r {
                RingReply::Concluded(best, evals) => Some((best, evals)),
                _ => None,
            },
        )?;
        let evaluations = concluded.iter().map(|&(_, evals)| evals).sum();
        let island_best: Vec<Individual> = concluded.into_iter().map(|(best, _)| best).collect();
        let best = island_best.iter().copied().max_by_key(|i| i.fitness);
        Ok(IslandRun {
            best: best.ok_or_else(|| EngineError::InvalidSpec {
                msg: "a ring needs at least one island".into(),
            })?,
            island_best,
            evaluations,
        })
    }
}

/// Island `k` of a ring of `islands` over `engine`: the ring's admitted
/// spec with the CA stream jumped ahead to the island's [`island_seed`]
/// slot, as a stepping handle under `limits`. Its population is neither
/// drawn nor restored yet. [`IslandsEngine`] builds every member with
/// it, and so does `ga-serve`'s island worker for its one shard.
pub fn island_member(
    engine: &dyn Engine,
    ring: &Prepared,
    k: usize,
    islands: usize,
    limits: &Limits,
) -> Result<Box<dyn IslandMember>, EngineError> {
    let spec = ring.spec();
    let params = GaParams {
        seed: island_seed(spec.params.seed, k, islands),
        ..spec.params
    };
    let prepared = engine.prepare(RunSpec { params, ..*spec })?;
    engine.stepper(&prepared, limits)
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

    /// Check that `spec.params.n_gens` is the schedule's `epoch ×
    /// epochs`. A disagreement is a typed [`EngineError::InvalidSpec`] —
    /// the schedule used to silently supersede `n_gens`, which hid caller
    /// bugs.
    fn admit_schedule(&self, spec: &RunSpec) -> Result<(), EngineError> {
        let (epoch, epochs, n_gens) = (self.config.epoch, self.config.epochs, spec.params.n_gens);
        let msg = match epoch.checked_mul(epochs) {
            Some(total) if total == n_gens => return Ok(()),
            Some(total) => format!(
                "params.n_gens {n_gens} disagrees with the island schedule \
                 epoch {epoch} × epochs {epochs} = {total}"
            ),
            None => format!("island schedule overflows: epoch {epoch} × epochs {epochs}"),
        };
        Err(EngineError::InvalidSpec { msg })
    }

    /// One seeded stepping member per island ([`island_member`]).
    fn members(&self, spec: RunSpec) -> Result<Vec<Box<dyn IslandMember>>, EngineError> {
        let ring = self.inner.prepare(spec)?;
        let n = self.config.islands;
        (0..n)
            .map(|k| island_member(self.inner, &ring, k, n, &self.limits))
            .collect()
    }

    /// Start a fresh epoch-granular run at barrier zero: every
    /// member's initial population is generated and evaluated.
    pub fn start(&self, spec: RunSpec) -> Result<IslandRing<Box<dyn IslandMember>>, EngineError> {
        self.admit_schedule(&spec)?;
        let mut members = self.members(spec)?;
        for m in &mut members {
            m.init_population();
        }
        IslandRing::new(self.config, members, 0)
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
    ) -> Result<IslandRing<Box<dyn IslandMember>>, EngineError> {
        self.admit_schedule(&spec)?;
        bundle.fits(self.config)?;
        let mut members = self.members(spec)?;
        for (k, (m, snap)) in members.iter_mut().zip(&bundle.members).enumerate() {
            m.restore(snap).map_err(|e| EngineError::InvalidSpec {
                msg: format!("island {k} snapshot does not restore: {e}"),
            })?;
        }
        IslandRing::new(self.config, members, bundle.epochs_done)
    }

    /// Run the ring to completion; `spec.params.n_gens` must equal
    /// `epoch × epochs` ([`EngineError::InvalidSpec`] otherwise).
    pub fn run(&self, spec: RunSpec) -> Result<IslandRun, EngineError> {
        self.start(spec)?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BackendKind;
    use carng::CaRng;
    use ga_core::GaEngine;
    use ga_fitness::rom::FitnessRom;
    use ga_fitness::TestFunction;

    fn spec(params: GaParams) -> RunSpec {
        RunSpec {
            width: 16,
            workload: crate::spec::Workload::Function(TestFunction::Bf6),
            params,
            deadline_ms: None,
        }
    }

    fn cfg(islands: usize) -> IslandConfig {
        IslandConfig {
            islands,
            epoch: 8,
            epochs: 4,
        }
    }

    /// Plain behavioral members over one shared fitness function, island
    /// *k* seeded at its [`island_seed`] slot, populations not yet drawn.
    fn plain_members<'a>(
        params: GaParams,
        config: IslandConfig,
        fitness: &'a dyn Fn(u16) -> u16,
    ) -> Vec<Box<dyn IslandMember + 'a>> {
        (0..config.islands)
            .map(|k| {
                let seed = island_seed(params.seed, k, config.islands);
                let p = GaParams { seed, ..params };
                Box::new(GaEngine::new(p, CaRng::new(seed), fitness)) as Box<dyn IslandMember + 'a>
            })
            .collect()
    }

    /// A fresh ring over [`plain_members`], initial populations drawn.
    fn plain_ring<'a>(
        params: GaParams,
        config: IslandConfig,
        fitness: &'a dyn Fn(u16) -> u16,
    ) -> IslandRing<Box<dyn IslandMember + 'a>> {
        let mut members = plain_members(params, config, fitness);
        for m in &mut members {
            m.init_population();
        }
        IslandRing::new(config, members, 0).expect("valid ring")
    }

    /// The ring run to completion over [`plain_ring`].
    fn run_islands(
        params: GaParams,
        config: IslandConfig,
        fitness: impl Fn(u16) -> u16,
    ) -> IslandRun {
        plain_ring(params, config, &fitness).run().expect("runs")
    }

    #[test]
    fn composite_matches_a_hand_written_epoch_loop() {
        // Over the behavioral backend the composite must equal plain
        // engines stepped epoch by epoch, bests collected, then each
        // injected one island along the ring.
        let params = GaParams::new(32, 32, 10, 1, 0x2961);
        let config = cfg(4);
        let composite = IslandsEngine::new(BackendKind::Behavioral.engine(), config)
            .expect("behavioral steps")
            .run(spec(params))
            .expect("runs");
        let f = TestFunction::Bf6;
        let mut engines: Vec<_> = (0..config.islands)
            .map(|k| {
                let seed = island_seed(params.seed, k, config.islands);
                let p = GaParams { seed, ..params };
                let mut e = GaEngine::new(p, CaRng::new(seed), |c| f.eval_u16(c));
                e.init_population();
                e
            })
            .collect();
        for _ in 0..config.epochs {
            for e in &mut engines {
                for _ in 0..config.epoch {
                    e.step_generation();
                }
            }
            let bests: Vec<Individual> = engines.iter().map(|e| e.best()).collect();
            for (k, b) in bests.into_iter().enumerate() {
                engines[(k + 1) % config.islands].inject(b);
            }
        }
        let island_best: Vec<Individual> = engines.iter().map(|e| e.best()).collect();
        let direct = IslandRun {
            best: *island_best
                .iter()
                .max_by_key(|i| i.fitness)
                .expect("4 islands"),
            evaluations: engines.iter().map(|e| e.evaluations()).sum(),
            island_best,
        };
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
        let beh = IslandsEngine::new(BackendKind::Behavioral.engine(), config)
            .expect("steps")
            .run(spec(params))
            .expect("runs");
        let bit = IslandsEngine::new(BackendKind::BitSim64.engine(), config)
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
            IslandsEngine::new(BackendKind::Swga.engine(), config),
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
        let engine = IslandsEngine::new(BackendKind::Behavioral.engine(), config).expect("steps");
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
    fn a_zero_island_config_is_a_typed_invalid_spec() {
        let config = IslandConfig {
            islands: 0,
            epoch: 2,
            epochs: 2,
        };
        let engine = IslandsEngine::new(BackendKind::Behavioral.engine(), config).expect("steps");
        assert!(matches!(
            engine.run(spec(GaParams::new(16, 4, 10, 1, 0x2961))),
            Err(EngineError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn stepping_a_finished_ring_is_a_typed_error_and_steps_nothing() {
        let config = IslandConfig {
            islands: 2,
            epoch: 2,
            epochs: 2,
        };
        let engine = IslandsEngine::new(BackendKind::Behavioral.engine(), config).expect("steps");
        let mut ring = engine
            .start(spec(GaParams::new(16, 4, 10, 1, 0x2961)))
            .expect("starts");
        ring.step_epoch().expect("epoch 1");
        let last = ring.step_epoch().expect("epoch 2");
        assert!(ring.done());
        assert!(matches!(
            ring.step_epoch(),
            Err(EngineError::InvalidSpec { .. })
        ));
        assert_eq!(ring.epochs_done(), 2);
        assert_eq!(ring.checkpoint().expect("captures"), last);
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
        let beh = IslandsEngine::new(BackendKind::Behavioral.engine(), config).expect("steps");
        let bit = IslandsEngine::new(BackendKind::BitSim64.engine(), config).expect("steps");
        let reference = beh.run(spec(params)).expect("runs");

        let mut driver = beh.start(spec(params)).expect("starts");
        let mut bundles = vec![driver.checkpoint().expect("captures")];
        while !driver.done() {
            bundles.push(driver.step_epoch().expect("epoch"));
        }
        assert_eq!(driver.finish().expect("finishes"), reference);

        for bundle in &bundles {
            // Codec round trip on the real thing.
            let wire = CheckpointBundle::from_hex(&bundle.to_hex()).expect("wire");
            assert_eq!(&wire, bundle);
            for resumer in [&beh, &bit] {
                let mut d = resumer.resume(spec(params), &wire).expect("resumes");
                while !d.done() {
                    d.step_epoch().expect("epoch");
                }
                assert_eq!(
                    d.finish().expect("finishes"),
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
        let engine = IslandsEngine::new(BackendKind::Behavioral.engine(), config).expect("steps");
        let mut d = engine.start(spec(params)).expect("starts");
        let bundle = d.step_epoch().expect("epoch");
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
            BackendKind::Behavioral.engine(),
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

    /// A scripted member: its best is its own index, it records the
    /// migrants it accepts, and it can be told to fail its epoch.
    struct Fake {
        id: u16,
        fail: bool,
        accepted: Vec<u16>,
    }

    impl RingMember for Fake {
        type Pending = RingReply;

        fn issue(&mut self, op: RingOp) -> Result<RingReply, String> {
            match op {
                RingOp::Evolve(_) if self.fail => Err("scripted failure".into()),
                RingOp::Evolve(_) => Ok(RingReply::Best(Individual {
                    chrom: self.id,
                    fitness: self.id,
                })),
                RingOp::Accept(migrant) => {
                    self.accepted.push(migrant.chrom);
                    Ok(RingReply::Accepted)
                }
                RingOp::Capture => Err("fakes keep no state".into()),
                RingOp::Conclude => {
                    let tie = Individual {
                        chrom: self.id,
                        fitness: 7,
                    };
                    Ok(RingReply::Concluded(tie, 1))
                }
            }
        }

        fn collect(&mut self, reply: RingReply) -> Result<RingReply, String> {
            Ok(reply)
        }
    }

    fn fakes(fail: Option<u16>) -> Vec<Fake> {
        (0..3)
            .map(|id| Fake {
                id,
                fail: Some(id) == fail,
                accepted: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn the_ring_routes_migrants_one_island_along() {
        let config = IslandConfig {
            islands: 3,
            epoch: 1,
            epochs: 2,
        };
        let mut ring = IslandRing::new(config, fakes(None), 0).expect("valid ring");
        ring.advance().expect("epoch 1");
        ring.advance().expect("epoch 2");
        assert_eq!(ring.migrations(), 6);
        let accepted: Vec<Vec<u16>> = ring.members.iter().map(|m| m.accepted.clone()).collect();
        assert_eq!(accepted, [vec![2, 2], vec![0, 0], vec![1, 1]]);
        // Fitness ties go to the later island.
        assert_eq!(ring.finish().expect("finishes").best.chrom, 2);
    }

    #[test]
    fn a_failing_member_is_a_typed_error_naming_its_island() {
        let config = IslandConfig {
            islands: 3,
            epoch: 1,
            epochs: 2,
        };
        let mut ring = IslandRing::new(config, fakes(Some(2)), 0).expect("valid ring");
        let err = ring.step_epoch().expect_err("island 2 fails");
        assert_eq!(
            err,
            EngineError::Island {
                island: 2,
                msg: "scripted failure".into()
            }
        );
        assert_eq!(err.to_string(), "island 2: scripted failure");
        assert_eq!(ring.epochs_done(), 0);
        assert!(matches!(
            ring.checkpoint(),
            Err(EngineError::Island { island: 0, .. })
        ));
    }

    // The island-model behaviour tests below ran against the ring in
    // `ga-core` before the loop moved here; members are built exactly
    // as that runner built them.

    #[test]
    fn runs_are_deterministic() {
        let rom = FitnessRom::tabulate(TestFunction::Bf6);
        let params = GaParams::new(32, 32, 10, 1, 0x2961);
        let a = run_islands(params, cfg(4), |c| rom.lookup(c));
        let b = run_islands(params, cfg(4), |c| rom.lookup(c));
        assert_eq!(a, b, "epoch-barrier migration must be deterministic");
    }

    #[test]
    fn four_islands_beat_or_match_one_island_budget_for_budget() {
        // Same total evaluation budget: 1 island × 32 gens of pop 32 vs
        // 4 islands × 32 gens of pop 8... population size floor makes
        // the honest comparison 4×(pop 32, 8 epochs of 4) vs 1×(pop 32,
        // 32 gens): same generations per island member.
        let rom = FitnessRom::tabulate(TestFunction::Bf6);
        let params = GaParams::new(32, 32, 10, 1, 0xB342);
        let single = run_islands(
            params,
            IslandConfig {
                islands: 1,
                epoch: 32,
                epochs: 1,
            },
            |c| rom.lookup(c),
        );
        let multi = run_islands(params, cfg(4), |c| rom.lookup(c));
        assert_eq!(multi.evaluations, 4 * single.evaluations);
        assert!(
            multi.best.fitness >= single.best.fitness,
            "4 islands {} vs 1 island {}",
            multi.best.fitness,
            single.best.fitness
        );
    }

    #[test]
    fn migration_spreads_the_best_individual() {
        let rom = FitnessRom::tabulate(TestFunction::F3);
        let params = GaParams::new(16, 16, 10, 1, 0x061F);
        let run = run_islands(
            params,
            IslandConfig {
                islands: 4,
                epoch: 4,
                epochs: 8,
            },
            |c| rom.lookup(c),
        );
        // After 8 migration rounds on a 4-ring, every island has seen
        // good genes: all island bests within 5% of the global best.
        for (k, b) in run.island_best.iter().enumerate() {
            assert!(
                b.fitness as f64 >= run.best.fitness as f64 * 0.95,
                "island {k} lagging: {} vs {}",
                b.fitness,
                run.best.fitness
            );
        }
    }

    #[test]
    fn ring_checkpoint_resume_is_bit_identical() {
        // Kill-and-resume at a barrier: snapshot after two epochs,
        // rebuild fresh members from the snapshots, finish — the result
        // must equal the uninterrupted run exactly.
        let rom = FitnessRom::tabulate(TestFunction::Bf6);
        let fitness = |c| rom.lookup(c);
        let params = GaParams::new(16, 32, 10, 1, 0x2961);
        let config = cfg(4);
        let reference = plain_ring(params, config, &fitness).run().expect("runs");

        let mut ring = plain_ring(params, config, &fitness);
        ring.step_epoch().expect("epoch 1");
        let snaps = ring.step_epoch().expect("epoch 2").members;
        drop(ring); // the "crash"

        let mut fresh = plain_members(params, config, &fitness);
        for (m, s) in fresh.iter_mut().zip(&snaps) {
            m.restore(s).expect("snapshot restores");
        }
        let mut resumed = IslandRing::new(config, fresh, 2).expect("valid ring");
        assert_eq!(resumed.epochs_done(), 2);
        while !resumed.done() {
            resumed.step_epoch().expect("epoch");
        }
        assert_eq!(resumed.finish().expect("finishes"), reference);
    }

    #[test]
    fn single_island_matches_plain_engine() {
        // One island, one epoch = the plain engine exactly (plus the
        // jump-ahead seed derivation with k = 0, which is the identity).
        let rom = FitnessRom::tabulate(TestFunction::Mbf6_2);
        let params = GaParams::new(32, 16, 10, 1, 0xAAAA);
        let island = run_islands(
            params,
            IslandConfig {
                islands: 1,
                epoch: 16,
                epochs: 1,
            },
            |c| rom.lookup(c),
        );
        let seed0 = island_seed(params.seed, 0, 1);
        let p = GaParams {
            seed: seed0,
            ..params
        };
        let plain = GaEngine::new(p, carng::CaRng::new(seed0), |c| rom.lookup(c)).run();
        assert_eq!(island.best, plain.best);
    }
}
