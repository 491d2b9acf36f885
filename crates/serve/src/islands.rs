//! Sharded multi-process islands: one `gaserved --island-worker`
//! process per island, a [`Coordinator`] doing ring routing, and a
//! drain-safe checkpoint file — the serve-layer realization of the
//! multi-FPGA island deployments of §II-B, where each board evolves its
//! own population and migrants travel over a physical link.
//!
//! A worker serves a line-oriented flat-JSON op protocol on one
//! accepted TCP connection:
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
//! A shard is one island of the engine layer's ring. `init` builds its
//! member with [`ga_engine::island_member`], as
//! [`ga_engine::IslandsEngine`] builds each in-process island, from the
//! job-level seed and `(shard, islands)`; or it restores the member from
//! the `snapshot` hex it may carry (the resume path: an
//! [`EngineSnapshot`] is backend-neutral, so a run checkpointed on
//! `behavioral` workers resumes on `bitsim64` workers bit-identically).
//! Every later line decodes to a [`RingOp`] and is answered by the
//! in-process member's [`RingMember`] impl. One function per direction
//! writes and reads each op line and each reply line, at both ends. The
//! worker's own rule is the generation budget: `init`'s `gens`, less
//! the snapshot's `gen`. An `epoch` past it is refused and steps
//! nothing, and a snapshot already past it does not restore.
//!
//! Lines are read as bytes, capped at [`crate::net::MAX_LINE_BYTES`]
//! (64 KiB), as job lines are. Every non-blank line gets one reply. A
//! line that is not UTF-8, too long or malformed, an op before `init`,
//! a snapshot that does not restore, or a member that panics
//! (`island panicked: …`) is answered `{"ok":false,"error":…}`, and the
//! connection keeps serving. Only EOF, a transport error and `finish`
//! end it.
//!
//! The [`Coordinator`] is the engine layer's [`IslandRing`] over one
//! shard connection per island. Each ring call writes its op line to
//! every shard before it reads any reply, so the shards evolve at the
//! same time, and a multi-process [`CheckpointBundle`] is byte-identical
//! to the in-process one at every barrier. A shard that dies, refuses
//! an op, or sends no reply in time (by the job's deadline, or within
//! the default cycle watchdog's simulated time) is an
//! [`EngineError::Island`] naming it. Each barrier's bundle is flushed
//! to the checkpoint file by write-to-temp + rename, so a coordinator
//! killed mid-write leaves the previous checkpoint intact.

use std::fs;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ga_core::islands::{island_seed, IslandRun};
use ga_core::snapshot::EngineSnapshot;
use ga_core::{GaParams, Individual, IslandMember};
use ga_engine::{
    island_member, CheckpointBundle, EngineError, IslandRing, Limits, RingMember, RingOp,
    RingReply, RunSpec,
};
use ga_harness::json_escape;

use crate::job::{function_by_name, BackendKind, GaJob, Workload};
use crate::jsonl::{as_int, as_str, parse_object, strip_line_ending, JsonValue};
use crate::net::next_line;

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

/// Serve the worker op protocol on an already-accepted connection
/// until EOF, a transport error or `finish`. A line that fails gets its
/// `{"ok":false,…}` reply, and the connection serves on.
pub fn serve_island_connection(stream: TcpStream) -> Result<(), String> {
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut member: Option<WorkerMember> = None;
    let mut buf = Vec::new();
    // `None` is EOF or a failed read: the coordinator went away, and
    // there is nothing to flush.
    while let Some(read) = next_line(&mut reader, &mut buf) {
        if matches!(&read, Ok(text) if text.trim().is_empty()) {
            continue;
        }
        let (reply, done) = match read.and_then(|text| worker_op(&text, &mut member)) {
            Ok(answered) => answered,
            Err(msg) => (
                format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(&msg)),
                false,
            ),
        };
        writer
            .write_all(format!("{reply}\n").as_bytes())
            .and_then(|_| writer.flush())
            .map_err(|e| format!("write failed: {e}"))?;
        if done {
            break;
        }
    }
    Ok(())
}

/// The worker's island member and the generations left in its budget.
struct WorkerMember {
    engine: Box<dyn IslandMember>,
    gens_left: u32,
}

/// Execute one op line against the worker's member slot. Returns the
/// reply line and whether the connection is finished.
fn worker_op(text: &str, member: &mut Option<WorkerMember>) -> Result<(String, bool), String> {
    let pairs = parse_object(text)?;
    let name = as_str("op", field(&pairs, "op")?)?;
    if name == "init" {
        let (built, seed) = init_member(&pairs)?;
        *member = Some(built);
        return Ok((format!("{{\"ok\":true,\"seed\":{seed}}}"), false));
    }
    let op = parse_op(&name, &pairs)?;
    let m = member.as_mut().ok_or("no member: send \"init\" first")?;
    if let RingOp::Evolve(gens) = op {
        m.gens_left = m.gens_left.checked_sub(gens).ok_or_else(|| {
            format!(
                "epoch of {gens} generations overruns the member's budget: {} left",
                m.gens_left
            )
        })?;
    }
    let reply = m.engine.issue(op).and_then(|p| m.engine.collect(p))?;
    Ok((reply_line(&reply), op == RingOp::Conclude))
}

/// Build the shard's member from an `init` line: island `shard` of the
/// ring, with a fresh population or the one its `snapshot` carries.
/// Returns the member and its island seed.
fn init_member(pairs: &Fields) -> Result<(WorkerMember, u16), String> {
    let int = |key: &str, min: u64, max: u64| int_field(pairs, key, min, max);
    let fname = as_str("fn", field(pairs, "fn")?)?;
    let function =
        function_by_name(&fname).ok_or_else(|| format!("unknown fitness function {fname:?}"))?;
    let bname = as_str("backend", field(pairs, "backend")?)?;
    let backend = BackendKind::parse(&bname).ok_or_else(|| format!("unknown backend {bname:?}"))?;
    let islands = int("islands", 1, 1024)? as usize;
    let shard = int("shard", 0, islands as u64 - 1)? as usize;
    let seed = int("seed", 0, u16::MAX as u64)? as u16;
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
    let inner = backend.engine();
    let ring = inner.prepare(spec).map_err(|e| e.to_string())?;
    let mut engine = island_member(inner, &ring, shard, islands, &Limits::default())
        .map_err(|e| format!("backend {bname}: {e}"))?;
    let gens_left = match pairs.iter().find(|(k, _)| k == "snapshot") {
        // Resume path: install the checkpointed state instead of
        // drawing an initial population.
        Some((_, v)) => {
            let hex = as_str("snapshot", v)?;
            let snap = EngineSnapshot::from_hex(&hex).map_err(|e| format!("snapshot: {e}"))?;
            let left = gens.checked_sub(snap.gen).ok_or_else(|| {
                format!(
                    "restore: snapshot is at generation {}, past the budget of {gens}",
                    snap.gen
                )
            })?;
            engine.restore(&snap).map_err(|e| format!("restore: {e}"))?;
            left
        }
        None => {
            engine.init_population();
            gens
        }
    };
    let seed = island_seed(seed, shard, islands);
    Ok((WorkerMember { engine, gens_left }, seed))
}

/// The key/value pairs of one op or reply line.
type Fields = [(String, JsonValue)];

fn field<'a>(pairs: &'a Fields, key: &str) -> Result<&'a JsonValue, String> {
    pairs
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v))
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn int_field(pairs: &Fields, key: &str, min: u64, max: u64) -> Result<u64, String> {
    as_int(key, field(pairs, key)?, min, max)
}

/// An individual carried by a line's `chrom` and `fitness`.
fn individual(pairs: &Fields) -> Result<Individual, String> {
    Ok(Individual {
        chrom: int_field(pairs, "chrom", 0, u16::MAX as u64)? as u16,
        fitness: int_field(pairs, "fitness", 0, u16::MAX as u64)? as u16,
    })
}

/// Op → line: what the coordinator writes for a ring op.
fn op_line(op: RingOp) -> String {
    match op {
        RingOp::Evolve(gens) => format!("{{\"op\":\"epoch\",\"gens\":{gens}}}"),
        RingOp::Accept(migrant) => format!(
            "{{\"op\":\"inject\",\"chrom\":{},\"fitness\":{}}}",
            migrant.chrom, migrant.fitness
        ),
        RingOp::Capture => "{\"op\":\"snapshot\"}".into(),
        RingOp::Conclude => "{\"op\":\"finish\"}".into(),
    }
}

/// Line → op: the ring op an op line other than `init` names.
fn parse_op(name: &str, pairs: &Fields) -> Result<RingOp, String> {
    Ok(match name {
        "epoch" => RingOp::Evolve(int_field(pairs, "gens", 1, u32::MAX as u64)? as u32),
        "inject" => RingOp::Accept(individual(pairs)?),
        "snapshot" => RingOp::Capture,
        "finish" => RingOp::Conclude,
        other => return Err(format!("unknown op {other:?}")),
    })
}

/// Reply → line: what the worker writes for a member's answer.
fn reply_line(reply: &RingReply) -> String {
    match reply {
        RingReply::Best(b) => format!(
            "{{\"ok\":true,\"chrom\":{},\"fitness\":{}}}",
            b.chrom, b.fitness
        ),
        RingReply::Accepted => "{\"ok\":true}".into(),
        RingReply::Snapshot(snap) => format!("{{\"ok\":true,\"snapshot\":\"{}\"}}", snap.to_hex()),
        RingReply::Concluded(b, evaluations) => format!(
            "{{\"ok\":true,\"chrom\":{},\"fitness\":{},\"evaluations\":{evaluations}}}",
            b.chrom, b.fitness
        ),
    }
}

/// Line → reply: the member's answer to `op` that a reply line
/// carries, or the worker's error.
fn parse_reply(op: RingOp, line: &str) -> Result<RingReply, String> {
    let pairs = ok_fields(line)?;
    let answer = match op {
        RingOp::Evolve(_) => individual(&pairs).map(RingReply::Best),
        RingOp::Accept(_) => Ok(RingReply::Accepted),
        RingOp::Capture => as_str("snapshot", field(&pairs, "snapshot")?).and_then(|hex| {
            EngineSnapshot::from_hex(&hex)
                .map(RingReply::Snapshot)
                .map_err(|e| format!("snapshot: {e}"))
        }),
        RingOp::Conclude => Ok(RingReply::Concluded(
            individual(&pairs)?,
            int_field(&pairs, "evaluations", 0, u64::MAX)?,
        )),
    };
    answer.map_err(|e| format!("worker reply: {e}"))
}

/// The fields of an `"ok":true` reply line. An `"ok":false` line
/// surfaces the worker's error string.
fn ok_fields(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let pairs = parse_object(line)?;
    match (field(&pairs, "ok"), field(&pairs, "error")) {
        (Ok(JsonValue::Bool(true)), _) => Ok(pairs),
        (_, Ok(JsonValue::Str(msg))) => Err(format!("worker error: {msg}")),
        _ => Err("worker error: worker refused the op".into()),
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
    /// Connect to the worker at `addr` and initialize it with `init`.
    fn open(addr: &str, deadline: Option<Instant>, init: &str) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        let mut c = ShardConn {
            reader: BufReader::new(stream),
            writer,
            deadline,
        };
        c.send(init)?;
        ok_fields(&c.receive()?)?;
        Ok(c)
    }

    /// Send one op line.
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("shard write failed: {e}"))
    }

    /// Read the reply line to the op sent last. A closed connection
    /// surfaces as a transport error (the campaign's kill-detection
    /// signal).
    fn receive(&mut self) -> Result<String, String> {
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
        Ok(strip_line_ending(&reply).to_owned())
    }
}

impl RingMember for ShardConn {
    type Pending = RingOp;

    fn issue(&mut self, op: RingOp) -> Result<RingOp, String> {
        self.send(&op_line(op))?;
        Ok(op)
    }

    fn collect(&mut self, op: RingOp) -> Result<RingReply, String> {
        parse_reply(op, &self.receive()?)
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
            let shard = ShardConn::open(addr, deadline, &init);
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

    /// A member whose generation step panics.
    struct PanicsOnStep;

    impl IslandMember for PanicsOnStep {
        fn init_population(&mut self) {}
        fn step_generation(&mut self) {
            panic!("member fault")
        }
        fn best(&self) -> Individual {
            Individual {
                chrom: 0,
                fitness: 0,
            }
        }
        fn inject(&mut self, _migrant: Individual) {}
        fn evaluations(&self) -> u64 {
            0
        }
        fn snapshot(&self) -> EngineSnapshot {
            unreachable!("not captured")
        }
        fn restore(&mut self, _snap: &EngineSnapshot) -> Result<(), ga_core::SnapshotError> {
            Ok(())
        }
    }

    #[test]
    fn a_panicking_member_is_an_error_reply_and_the_worker_serves_on() {
        let mut member = Some(WorkerMember {
            engine: Box::new(PanicsOnStep),
            gens_left: 4,
        });
        assert_eq!(
            worker_op(r#"{"op":"epoch","gens":1}"#, &mut member),
            Err("island panicked: member fault".into())
        );
        assert_eq!(
            worker_op(r#"{"op":"finish"}"#, &mut member),
            Ok((
                r#"{"ok":true,"chrom":0,"fitness":0,"evaluations":0}"#.into(),
                true
            ))
        );
    }

    #[test]
    fn every_op_and_reply_reads_back_as_written() {
        let best = Individual {
            chrom: 513,
            fitness: 2800,
        };
        let params = GaParams::new(8, 4, 10, 1, 5);
        let mut engine = ga_core::GaEngine::new(params, carng::CaRng::new(5), |c| c);
        engine.init_population();
        let calls = [
            (RingOp::Evolve(4), RingReply::Best(best)),
            (RingOp::Accept(best), RingReply::Accepted),
            (RingOp::Capture, RingReply::Snapshot(engine.snapshot())),
            (RingOp::Conclude, RingReply::Concluded(best, 96)),
        ];
        for (op, reply) in calls {
            let pairs = parse_object(&op_line(op)).unwrap();
            let name = as_str("op", field(&pairs, "op").unwrap()).unwrap();
            assert_eq!(parse_op(&name, &pairs), Ok(op));
            assert_eq!(parse_reply(op, &reply_line(&reply)), Ok(reply));
        }
        assert_eq!(
            parse_reply(RingOp::Capture, r#"{"ok":false,"error":"no member"}"#),
            Err("worker error: no member".into())
        );
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
