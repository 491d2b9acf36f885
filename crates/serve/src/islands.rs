//! Sharded multi-process islands: one `gaserved --island-worker`
//! process per island, a [`Coordinator`] doing ring routing, and a
//! drain-safe checkpoint file — the serve-layer realization of the
//! multi-FPGA island deployments of §II-B, where each board evolves its
//! own population and migrants travel over a physical link.
//!
//! The worker speaks a line-oriented flat-JSON op protocol over one
//! accepted TCP connection (the same hand-rolled [`crate::jsonl`]
//! parser as the job schema — no external deps):
//!
//! ```text
//! → {"op":"init","fn":"BF6","backend":"behavioral","pop":16,"gens":12,
//!    "xover":10,"mut":1,"seed":10593,"islands":3,"shard":1}
//! ← {"ok":true,"seed":43690}
//! → {"op":"epoch","gens":4}            evolve 4 generations
//! ← {"ok":true,"chrom":513,"fitness":2800}
//! → {"op":"inject","chrom":777,"fitness":3000}
//! ← {"ok":true}
//! → {"op":"snapshot"}
//! ← {"ok":true,"snapshot":"4753…"}     EngineSnapshot hex
//! → {"op":"finish"}
//! ← {"ok":true,"chrom":513,"fitness":3000,"evaluations":96}
//! ```
//!
//! A member may step `gens` generations in all (`init`'s `gens`, less
//! the snapshot's `gen` on resume): that is the job's generation
//! budget. An `epoch` that would overrun it is refused with an error
//! reply and steps nothing, and a snapshot already past it does not
//! restore.
//!
//! `init` may carry `"snapshot":"<hex>"` to restore the member at a
//! checkpointed barrier instead of generating an initial population —
//! that is the resume path, and because an [`EngineSnapshot`] is
//! backend-neutral, a run checkpointed on `behavioral` workers resumes
//! on `bitsim64` workers bit-identically (and vice versa).
//!
//! The [`Coordinator`] has no epoch loop of its own: it is the engine
//! layer's [`IslandRing`] over one shard connection per island. Each
//! ring call writes its op line to every shard before it reads any
//! reply, then reads the replies in ring order, all on the calling
//! thread: the shards evolve at the same time, then every best is
//! routed one island along the ring and every shard is snapshotted —
//! the same code path as the in-process run, so a multi-process
//! [`CheckpointBundle`] is byte-identical to the in-process one at the
//! same barrier, and a
//! shard that dies, refuses an op, or sends no reply in time (before
//! the job's deadline, or within the default cycle watchdog's simulated
//! time when it has none) is an [`EngineError::Island`] naming it.
//! Every barrier's bundle is flushed to the checkpoint file
//! via write-to-temp + rename, so a coordinator killed mid-write leaves
//! the previous complete checkpoint intact.

use std::fs;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ga_core::islands::{island_seed, IslandRun};
use ga_core::snapshot::EngineSnapshot;
use ga_core::{GaParams, Individual};
use ga_engine::{
    CheckpointBundle, EngineError, IslandRing, Limits, RingMember, RingOp, RingReply, RunSpec,
};

use crate::job::{function_by_name, BackendKind, GaJob, Workload};
use crate::jsonl::{as_int, as_str, escape_string, parse_object, strip_line_ending, JsonValue};

/// Bind `addr`, announce `listening <addr>` on stdout (so `:0` is
/// scriptable, mirroring `gaserved --listen`), accept **one**
/// connection and serve the island-worker op protocol on it until
/// `finish` or EOF.
pub fn serve_island_worker(addr: &str) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("no local addr: {e}"))?;
    println!("listening {local}");
    let (stream, _) = listener
        .accept()
        .map_err(|e| format!("accept failed: {e}"))?;
    serve_island_connection(stream)
}

/// Serve the worker op protocol on an already-accepted connection.
/// Op-level failures (bad line, op before `init`, snapshot that does
/// not restore, epoch past the generation budget) are
/// `{"ok":false,"error":…}` replies — the connection
/// survives them; only transport errors and `finish` end the loop.
pub fn serve_island_connection(stream: TcpStream) -> Result<(), String> {
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut member: Option<WorkerMember> = None;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Ok(()); // coordinator went away; nothing to flush
        }
        let text = strip_line_ending(&line);
        if text.trim().is_empty() {
            continue;
        }
        let (reply, done) = match worker_op(text, &mut member) {
            Ok((reply, done)) => (reply, done),
            Err(msg) => (
                format!("{{\"ok\":false,\"error\":\"{}\"}}", escape_string(&msg)),
                false,
            ),
        };
        writer
            .write_all(format!("{reply}\n").as_bytes())
            .and_then(|_| writer.flush())
            .map_err(|e| format!("write failed: {e}"))?;
        if done {
            return Ok(());
        }
    }
}

/// The worker's island member and the generations left in its budget.
struct WorkerMember {
    engine: Box<dyn ga_core::IslandMember>,
    /// The job's generation budget: `gens` from `init`, minus the
    /// snapshot's `gen` on resume. An `epoch` past it is refused, not
    /// stepped.
    gens_left: u32,
}

/// Execute one op line against the worker's member slot. Returns the
/// reply line and whether the connection is finished.
fn worker_op(text: &str, member: &mut Option<WorkerMember>) -> Result<(String, bool), String> {
    let pairs = parse_object(text)?;
    let field = |name: &str| -> Option<&JsonValue> {
        pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    };
    let int = |name: &str, min: u64, max: u64| -> Result<u64, String> {
        let v = field(name).ok_or_else(|| format!("missing key {name:?}"))?;
        as_int(name, v, min, max)
    };
    let op = match field("op") {
        Some(v) => as_str("op", v)?,
        None => return Err("missing key \"op\"".into()),
    };
    match op.as_str() {
        "init" => {
            let fname = as_str("fn", field("fn").ok_or("missing key \"fn\"")?)?;
            let function = function_by_name(&fname)
                .ok_or_else(|| format!("unknown fitness function {fname:?}"))?;
            let bname = as_str(
                "backend",
                field("backend").ok_or("missing key \"backend\"")?,
            )?;
            let backend =
                BackendKind::parse(&bname).ok_or_else(|| format!("unknown backend {bname:?}"))?;
            let islands = int("islands", 1, 1024)? as usize;
            let shard = int("shard", 0, islands as u64 - 1)? as usize;
            let seed = island_seed(int("seed", 0, u16::MAX as u64)? as u16, shard, islands);
            let gens = int("gens", 1, u32::MAX as u64)? as u32;
            let spec = RunSpec {
                width: crate::job::CHROM_WIDTH,
                workload: Workload::Function(function),
                params: GaParams {
                    pop_size: int("pop", 0, u8::MAX as u64)? as u8,
                    n_gens: gens,
                    xover_threshold: int("xover", 0, 255)? as u8,
                    mut_threshold: int("mut", 0, 255)? as u8,
                    seed,
                },
                deadline_ms: None,
            };
            let engine = backend.engine();
            let prepared = engine.prepare(spec).map_err(|e| e.to_string())?;
            let mut m = engine
                .stepper(&prepared, &Limits::default())
                .map_err(|e| format!("backend {bname}: {e}"))?;
            let gens_left = match field("snapshot") {
                // Resume path: install the checkpointed state instead of
                // drawing an initial population.
                Some(v) => {
                    let hex = as_str("snapshot", v)?;
                    let snap =
                        EngineSnapshot::from_hex(&hex).map_err(|e| format!("snapshot: {e}"))?;
                    let left = gens.checked_sub(snap.gen).ok_or_else(|| {
                        format!(
                            "restore: snapshot is at generation {}, past the budget of {gens}",
                            snap.gen
                        )
                    })?;
                    m.restore(&snap).map_err(|e| format!("restore: {e}"))?;
                    left
                }
                None => {
                    m.init_population();
                    gens
                }
            };
            *member = Some(WorkerMember {
                engine: m,
                gens_left,
            });
            Ok((format!("{{\"ok\":true,\"seed\":{seed}}}"), false))
        }
        "epoch" => {
            let gens = int("gens", 1, u32::MAX as u64)? as u32;
            let m = member.as_mut().ok_or("no member: send \"init\" first")?;
            if gens > m.gens_left {
                return Err(format!(
                    "epoch of {gens} generations overruns the member's budget: {} left",
                    m.gens_left
                ));
            }
            m.gens_left -= gens;
            for _ in 0..gens {
                m.engine.step_generation();
            }
            let b = m.engine.best();
            Ok((
                format!(
                    "{{\"ok\":true,\"chrom\":{},\"fitness\":{}}}",
                    b.chrom, b.fitness
                ),
                false,
            ))
        }
        "inject" => {
            let migrant = Individual {
                chrom: int("chrom", 0, u16::MAX as u64)? as u16,
                fitness: int("fitness", 0, u16::MAX as u64)? as u16,
            };
            let m = member.as_mut().ok_or("no member: send \"init\" first")?;
            m.engine.inject(migrant);
            Ok(("{\"ok\":true}".into(), false))
        }
        "snapshot" => {
            let m = member.as_ref().ok_or("no member: send \"init\" first")?;
            Ok((
                format!(
                    "{{\"ok\":true,\"snapshot\":\"{}\"}}",
                    m.engine.snapshot().to_hex()
                ),
                false,
            ))
        }
        "finish" => {
            let m = member.as_ref().ok_or("no member: send \"init\" first")?;
            let b = m.engine.best();
            Ok((
                format!(
                    "{{\"ok\":true,\"chrom\":{},\"fitness\":{},\"evaluations\":{}}}",
                    b.chrom,
                    b.fitness,
                    m.engine.evaluations()
                ),
                true,
            ))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// One coordinator↔worker connection: a [`RingMember`] that writes
/// each op line when the ring issues it and reads the reply when the
/// ring collects it, so every shard works on its op at the same time.
struct ShardConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The job's deadline, which bounds every wait for a reply.
    deadline: Option<Instant>,
}

/// How long one reply may take when the job sets no deadline: the
/// simulated time of the default cycle watchdog
/// ([`Limits::sim_watchdog_cycles`]) at the GA's 50 MHz clock, 40 s. A
/// shard that stays connected but stops replying is then an error, not
/// a hang.
fn reply_bound() -> Duration {
    Duration::from_nanos(Limits::default().sim_watchdog_cycles.saturating_mul(20))
}

impl ShardConn {
    fn connect(addr: &str, deadline: Option<Instant>) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(ShardConn {
            reader: BufReader::new(stream),
            writer,
            deadline,
        })
    }

    /// Send one op line.
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("shard write failed: {e}"))
    }

    /// Read the reply to the op sent last. An `"ok":false` reply
    /// surfaces the worker's error string; a closed connection surfaces
    /// as a transport error (the campaign's kill-detection signal).
    fn receive(&mut self) -> Result<Vec<(String, JsonValue)>, String> {
        let wait = self.deadline.map_or_else(reply_bound, |at| {
            at.saturating_duration_since(Instant::now())
        });
        if wait.is_zero() {
            return Err("the job's deadline passed before the shard replied".into());
        }
        self.reader
            .get_ref()
            .set_read_timeout(Some(wait))
            .map_err(|e| format!("shard read timeout: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                    format!("shard sent no reply within {} ms", wait.as_millis())
                }
                _ => format!("shard read failed: {e}"),
            })?;
        if n == 0 {
            return Err("shard connection closed".into());
        }
        let pairs = parse_object(strip_line_ending(&reply))?;
        let field = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        match (field("ok"), field("error")) {
            (Some(JsonValue::Bool(true)), _) => Ok(pairs),
            (_, Some(JsonValue::Str(msg))) => Err(format!("worker error: {msg}")),
            _ => Err("worker error: worker refused the op".into()),
        }
    }
}

fn reply_int(pairs: &[(String, JsonValue)], key: &str) -> Result<u64, String> {
    let v = pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("worker reply missing {key:?}"))?;
    as_int(key, v, 0, u64::MAX)
}

fn reply_best(pairs: &[(String, JsonValue)]) -> Result<Individual, String> {
    Ok(Individual {
        chrom: reply_int(pairs, "chrom")? as u16,
        fitness: reply_int(pairs, "fitness")? as u16,
    })
}

impl RingMember for ShardConn {
    type Pending = RingOp;

    fn issue(&mut self, op: RingOp) -> Result<RingOp, String> {
        self.send(&match op {
            RingOp::Evolve(gens) => format!("{{\"op\":\"epoch\",\"gens\":{gens}}}"),
            RingOp::Accept(migrant) => format!(
                "{{\"op\":\"inject\",\"chrom\":{},\"fitness\":{}}}",
                migrant.chrom, migrant.fitness
            ),
            RingOp::Capture => "{\"op\":\"snapshot\"}".into(),
            RingOp::Conclude => "{\"op\":\"finish\"}".into(),
        })?;
        Ok(op)
    }

    fn collect(&mut self, op: RingOp) -> Result<RingReply, String> {
        let pairs = self.receive()?;
        Ok(match op {
            RingOp::Evolve(_) => RingReply::Best(reply_best(&pairs)?),
            RingOp::Accept(_) => RingReply::Accepted,
            RingOp::Capture => match pairs.iter().find(|(k, _)| k == "snapshot") {
                Some((_, JsonValue::Str(hex))) => RingReply::Snapshot(
                    EngineSnapshot::from_hex(hex).map_err(|e| format!("snapshot: {e}"))?,
                ),
                _ => return Err("worker reply missing \"snapshot\"".into()),
            },
            RingOp::Conclude => {
                RingReply::Concluded(reply_best(&pairs)?, reply_int(&pairs, "evaluations")?)
            }
        })
    }
}

/// The ring coordinator: the engine layer's [`IslandRing`] over one
/// [`ShardConn`] per island worker, plus the checkpoint file. Every
/// barrier's [`CheckpointBundle`] is flushed to `checkpoint_path`
/// (write-temp-then-rename, so a mid-write crash never corrupts the
/// last good checkpoint). A shard that dies, refuses an op or sends no
/// reply in time is an [`EngineError::Island`] naming it.
pub struct Coordinator {
    ring: IslandRing<ShardConn>,
    checkpoint_path: PathBuf,
}

impl Coordinator {
    /// Connect to one worker per island and initialize every shard —
    /// fresh populations, or restored members when `resume` carries the
    /// checkpoint to continue from. The job must be an island job
    /// (`job.islands` set, function workload) and `addrs.len()` must
    /// equal the ring size.
    pub fn connect(
        job: &GaJob,
        addrs: &[String],
        checkpoint_path: &Path,
        resume: Option<&CheckpointBundle>,
    ) -> Result<Self, EngineError> {
        let invalid = |msg: String| EngineError::InvalidSpec { msg };
        let config = job
            .islands
            .ok_or_else(|| invalid("job carries no island schedule".into()))?;
        job.validate().map_err(|e| invalid(e.to_string()))?;
        let Workload::Function(function) = job.workload else {
            return Err(invalid(
                "island workers evolve fitness functions only".into(),
            ));
        };
        if addrs.len() != config.islands {
            return Err(invalid(format!(
                "{} worker addrs for {} islands",
                addrs.len(),
                config.islands
            )));
        }
        if let Some(bundle) = resume {
            bundle.fits(config)?;
        }
        // Every reply, from `init` on, must come before the job's
        // deadline.
        let deadline = job
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut shards = Vec::with_capacity(config.islands);
        for (k, addr) in addrs.iter().enumerate() {
            let mut init = format!(
                "{{\"op\":\"init\",\"fn\":\"{}\",\"backend\":\"{}\",\"pop\":{},\"gens\":{},\
                 \"xover\":{},\"mut\":{},\"seed\":{},\"islands\":{},\"shard\":{k}",
                function.name(),
                job.backend.name(),
                job.params.pop_size,
                job.params.n_gens,
                job.params.xover_threshold,
                job.params.mut_threshold,
                job.params.seed,
                config.islands,
            );
            if let Some(bundle) = resume {
                init.push_str(&format!(",\"snapshot\":\"{}\"", bundle.members[k].to_hex()));
            }
            init.push('}');
            let shard = ShardConn::connect(addr, deadline)
                .and_then(|mut c| c.send(&init).and_then(|_| c.receive()).map(|_| c));
            shards.push(shard.map_err(|msg| EngineError::Island { island: k, msg })?);
        }
        Ok(Coordinator {
            ring: IslandRing::new(config, shards, resume.map_or(0, |b| b.epochs_done))?,
            checkpoint_path: checkpoint_path.to_path_buf(),
        })
    }

    /// One epoch barrier of the ring over the shards, its bundle flushed
    /// to the checkpoint file. A file that cannot be written is an
    /// [`EngineError::InvalidSpec`] naming the path.
    pub fn step_epoch(&mut self) -> Result<CheckpointBundle, EngineError> {
        let bundle = self.ring.step_epoch()?;
        write_checkpoint(&self.checkpoint_path, &bundle)
            .map_err(|msg| EngineError::InvalidSpec { msg })?;
        Ok(bundle)
    }

    /// Epoch barriers crossed so far (counting the resumed-from ones).
    pub fn epochs_done(&self) -> u32 {
        self.ring.epochs_done()
    }

    /// True once every configured epoch has run.
    pub fn done(&self) -> bool {
        self.ring.done()
    }

    /// Migrant transfers this coordinator routed (one per island per
    /// barrier on rings larger than one).
    pub fn migrations(&self) -> u64 {
        self.ring.migrations()
    }

    /// Finish every shard and fold the ring result.
    pub fn finish(self) -> Result<IslandRun, EngineError> {
        self.ring.finish()
    }
}

/// Flush a checkpoint durably: write the hex form to `<path>.tmp`,
/// sync, then rename over `path` — a crash mid-flush leaves the
/// previous complete checkpoint readable.
pub fn write_checkpoint(path: &Path, bundle: &CheckpointBundle) -> Result<(), String> {
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name()
            .and_then(|n| n.to_str())
            .ok_or("checkpoint path has no file name")?
    ));
    let mut f = fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    f.write_all(bundle.to_hex().as_bytes())
        .and_then(|_| f.write_all(b"\n"))
        .and_then(|_| f.sync_all())
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

/// Read a checkpoint file written by [`write_checkpoint`].
pub fn read_checkpoint(path: &Path) -> Result<CheckpointBundle, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    CheckpointBundle::from_hex(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ga_core::islands::IslandConfig;
    use ga_fitness::TestFunction;
    use std::thread::JoinHandle;

    fn spawn_worker() -> (String, JoinHandle<Result<(), String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            serve_island_connection(stream)
        });
        (addr, handle)
    }

    fn island_job(backend: BackendKind) -> GaJob {
        GaJob::new(
            TestFunction::Bf6,
            backend,
            GaParams::new(16, 12, 10, 1, 0x2961),
        )
        .with_islands(IslandConfig {
            islands: 3,
            epoch: 4,
            epochs: 3,
        })
    }

    fn ckpt_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ga_islands_{tag}_{}.ckpt", std::process::id()))
    }

    #[test]
    fn worker_replies_typed_errors_and_survives_them() {
        let (addr, worker) = spawn_worker();
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut call = |line: &str| -> String {
            writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        };
        // Ops before init, unknown ops, and garbage are all ok:false
        // replies — the connection stays up.
        assert!(call("{\"op\":\"epoch\",\"gens\":1}").contains("\"ok\":false"));
        assert!(call("{\"op\":\"warp\"}").contains("unknown op"));
        assert!(call("not json").contains("\"ok\":false"));
        let init = "{\"op\":\"init\",\"fn\":\"BF6\",\"backend\":\"behavioral\",\"pop\":16,\
                    \"gens\":4,\"xover\":10,\"mut\":1,\"seed\":10593,\"islands\":1,\"shard\":0}";
        assert!(call(init).contains("\"ok\":true"));
        assert!(call("{\"op\":\"epoch\",\"gens\":4}").contains("\"fitness\""));
        // A snapshot that does not decode is typed, not fatal.
        assert!(call(
            "{\"op\":\"init\",\"fn\":\"BF6\",\"backend\":\"behavioral\",\"pop\":16,\
                      \"gens\":4,\"xover\":10,\"mut\":1,\"seed\":1,\"islands\":1,\"shard\":0,\
                      \"snapshot\":\"zz\"}"
        )
        .contains("snapshot"));
        assert!(call("{\"op\":\"finish\"}").contains("\"evaluations\""));
        worker.join().expect("thread").expect("clean exit");
    }

    #[test]
    fn checkpoint_files_survive_a_torn_write() {
        let path = ckpt_path("torn");
        let bundle = {
            let job = island_job(BackendKind::Behavioral);
            let composite =
                ga_engine::IslandsEngine::new(job.backend.engine(), job.islands.unwrap())
                    .expect("steps");
            let mut d = composite.start(job.spec()).expect("starts");
            d.step_epoch().expect("epoch")
        };
        write_checkpoint(&path, &bundle).expect("flushes");
        // A later, torn flush (the crash window: tmp written, rename
        // never happened) leaves the previous checkpoint intact.
        fs::write(path.with_file_name("garbage.tmp"), "deadbeef").unwrap();
        assert_eq!(read_checkpoint(&path).expect("still readable"), bundle);
        let _ = fs::remove_file(&path);
    }
}
