//! The sharded island ring — the serve layer's `Coordinator` running the
//! engine's `IslandRing` over socket connections to island workers —
//! against the in-process ring, barrier for barrier, the typed errors
//! either ring gives when a member fails, and the pipelining that lets
//! shards work at the same time: every op reaches every shard before
//! the coordinator waits on a reply. Workers run on threads through
//! `serve_island_connection`, the op loop `gaserved --island-worker`
//! serves.

use std::cell::RefCell;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

use carng::CaRng;
use ga_core::islands::IslandConfig;
use ga_core::{EngineSnapshot, GaEngine, GaParams, Individual, IslandMember, SnapshotError};
use ga_engine::{EngineError, IslandRing, IslandsEngine, RingMember, RingOp, RingReply};
use ga_fitness::TestFunction;
use ga_serve::islands::read_checkpoint;
use ga_serve::{serve_island_connection, BackendKind, Coordinator, GaJob};

fn spawn_worker() -> (String, JoinHandle<Result<(), String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        serve_island_connection(stream)
    });
    (addr, handle)
}

fn spawn_ring(n: usize) -> (Vec<String>, Vec<JoinHandle<Result<(), String>>>) {
    (0..n).map(|_| spawn_worker()).unzip()
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
fn multi_process_ring_matches_the_in_process_driver_barrier_for_barrier() {
    let job = island_job(BackendKind::Behavioral);
    let config = job.islands.unwrap();
    let engine = job.backend.engine();
    let composite = IslandsEngine::new(engine, config).expect("steps");
    let mut reference = composite.start(job.spec()).expect("starts");

    let path = ckpt_path("match");
    let (addrs, workers) = spawn_ring(config.islands);
    let mut coord = Coordinator::connect(&job, &addrs, &path, None).expect("connects");
    while !coord.done() {
        let ours = coord.step_epoch().expect("epoch");
        let theirs = reference.step_epoch().expect("epoch");
        assert_eq!(
            ours, theirs,
            "barrier {} bundle diverged from the in-process driver",
            ours.epochs_done
        );
        // The durable file holds exactly the latest barrier.
        assert_eq!(read_checkpoint(&path).expect("readable"), ours);
    }
    assert_eq!(coord.migrations(), 3 * 3);
    let run = coord.finish().expect("finishes");
    assert_eq!(run, reference.finish().expect("finishes"));
    for w in workers {
        w.join().expect("worker thread").expect("worker ok");
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn kill_resume_from_the_checkpoint_file_is_bit_identical_across_backends() {
    let job = island_job(BackendKind::Behavioral);
    let config = job.islands.unwrap();
    let engine = job.backend.engine();
    let reference = IslandsEngine::new(engine, config)
        .expect("steps")
        .run(job.spec())
        .expect("runs");

    // Run one epoch, then "crash": drop the coordinator so every
    // worker sees EOF and exits. The checkpoint file survives.
    let path = ckpt_path("resume");
    let (addrs, workers) = spawn_ring(config.islands);
    let mut coord = Coordinator::connect(&job, &addrs, &path, None).expect("connects");
    coord.step_epoch().expect("epoch");
    drop(coord);
    for w in workers {
        w.join().expect("worker thread").expect("EOF is clean");
    }

    // Resume on *bitsim64* workers: snapshots are backend-neutral,
    // so the healed ring must still match the behavioral reference.
    let bundle = read_checkpoint(&path).expect("checkpoint survives the crash");
    assert_eq!(bundle.epochs_done, 1);
    let resumed_job = GaJob {
        backend: BackendKind::BitSim64,
        ..job
    };
    let (addrs, workers) = spawn_ring(config.islands);
    let mut coord =
        Coordinator::connect(&resumed_job, &addrs, &path, Some(&bundle)).expect("reconnects");
    assert_eq!(coord.epochs_done(), 1);
    while !coord.done() {
        coord.step_epoch().expect("epoch");
    }
    assert_eq!(coord.finish().expect("finishes"), reference);
    for w in workers {
        w.join().expect("worker thread").expect("worker ok");
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn a_dropped_shard_is_a_typed_error_naming_its_island() {
    let job = island_job(BackendKind::Behavioral);
    // Shard 1 answers `init`, then closes its socket.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let dropped = listener.local_addr().expect("addr").to_string();
    let dropper = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut init = String::new();
        BufReader::new(&stream).read_line(&mut init).expect("init");
        assert!(init.contains("\"op\":\"init\""), "{init}");
        (&stream)
            .write_all(b"{\"ok\":true,\"seed\":1}\n")
            .expect("reply");
    });
    let (first, w0) = spawn_worker();
    let (last, w2) = spawn_worker();
    let path = ckpt_path("dropped");
    let mut coord =
        Coordinator::connect(&job, &[first, dropped, last], &path, None).expect("connects");
    dropper.join().expect("dropper thread");

    match coord.step_epoch() {
        Err(EngineError::Island { island: 1, msg }) => {
            assert!(!msg.is_empty());
        }
        other => panic!("expected a typed error naming island 1, got {other:?}"),
    }
    assert_eq!(coord.epochs_done(), 0);
    drop(coord);
    for w in [w0, w2] {
        w.join().expect("worker thread").expect("EOF is clean");
    }
    assert!(!path.exists(), "a failed barrier flushes no checkpoint");
}

/// An in-process member that panics on its first step.
struct PanicsOnStep;

impl IslandMember for PanicsOnStep {
    fn init_population(&mut self) {}

    fn step_generation(&mut self) {
        panic!("island member fault");
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
        unreachable!("the ring captures no member after a failed epoch")
    }

    fn restore(&mut self, _snap: &EngineSnapshot) -> Result<(), SnapshotError> {
        Ok(())
    }
}

#[test]
fn a_panicking_in_process_member_is_a_typed_error_naming_its_island() {
    let config = IslandConfig {
        islands: 3,
        epoch: 2,
        epochs: 2,
    };
    let plain = |seed: u16| -> Box<dyn IslandMember> {
        let params = GaParams::new(16, 4, 10, 1, seed);
        let mut e = GaEngine::new(params, CaRng::new(seed), |c| TestFunction::Bf6.eval_u16(c));
        e.init_population();
        Box::new(e)
    };
    let members = vec![
        plain(0x2961),
        Box::new(PanicsOnStep) as Box<_>,
        plain(0x061F),
    ];
    let mut ring = IslandRing::new(config, members, 0).expect("valid ring");
    assert_eq!(
        ring.step_epoch(),
        Err(EngineError::Island {
            island: 1,
            msg: "island panicked: island member fault".into()
        })
    );
    assert_eq!(ring.epochs_done(), 0);
}

/// Counts, per op name, the shards that have received it, so a shard
/// can hold its reply until every shard has its own copy of the op.
#[derive(Default)]
struct Gate {
    seen: Mutex<Vec<String>>,
    all_in: Condvar,
}

impl Gate {
    /// Record that one shard received `op`, then wait (up to `limit`)
    /// until `shards` shards have. False when the wait timed out.
    fn arrive_and_wait(&self, op: &str, shards: usize, limit: Duration) -> bool {
        let mut seen = self.seen.lock().unwrap();
        seen.push(op.to_string());
        self.all_in.notify_all();
        let count = |seen: &Vec<String>| seen.iter().filter(|s| *s == op).count();
        let (seen, timeout) = self
            .all_in
            .wait_timeout_while(seen, limit, |seen| count(seen) < shards)
            .unwrap();
        drop(seen);
        !timeout.timed_out()
    }
}

/// A fake shard that answers every op with canned replies, but holds
/// its `epoch` and `snapshot` replies until every shard has received
/// the same op. A coordinator that waits on one shard's reply before
/// writing the next shard's op never gets past such a barrier.
fn spawn_gated_shard(gate: Arc<Gate>, shards: usize, k: u16, snapshot: String) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut out = &stream;
        for line in BufReader::new(&stream).lines() {
            let line = line.expect("op line");
            let op = ["init", "epoch", "inject", "snapshot", "finish"]
                .into_iter()
                .find(|op| line.contains(&format!("\"op\":\"{op}\"")))
                .expect("a known op");
            let gated = matches!(op, "epoch" | "snapshot");
            if gated && !gate.arrive_and_wait(op, shards, Duration::from_secs(30)) {
                return; // the coordinator never sent every shard this op
            }
            let reply = match op {
                "epoch" => format!("{{\"ok\":true,\"chrom\":{k},\"fitness\":{k}}}"),
                "snapshot" => format!("{{\"ok\":true,\"snapshot\":\"{snapshot}\"}}"),
                _ => "{\"ok\":true,\"seed\":1}".to_string(),
            };
            out.write_all(format!("{reply}\n").as_bytes())
                .expect("reply");
        }
    });
    addr
}

#[test]
fn every_shard_receives_each_op_before_the_coordinator_waits_on_a_reply() {
    let job = island_job(BackendKind::Behavioral);
    let shards = job.islands.unwrap().islands;
    let mut member = GaEngine::new(job.params, CaRng::new(1), |c| c);
    member.init_population();
    let snap = member.snapshot();
    let gate = Arc::new(Gate::default());
    let addrs: Vec<String> = (0..shards as u16)
        .map(|k| spawn_gated_shard(Arc::clone(&gate), shards, k, snap.to_hex()))
        .collect();
    let path = ckpt_path("gated");
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let mut coord = Coordinator::connect(&job, &addrs, &path, None).expect("connects");
        let stepped = coord.step_epoch();
        let _ = fs::remove_file(&path);
        let _ = done.send(stepped);
    });
    // The watchdog: a coordinator that serializes an op hangs on the
    // first gated reply; fail instead of hanging the suite.
    let bundle = result
        .recv_timeout(Duration::from_secs(20))
        .expect("step_epoch finished: every shard got each op before any reply was awaited")
        .expect("epoch");
    assert_eq!(bundle.epochs_done, 1);
    assert_eq!(bundle.members, vec![snap; shards]);
}

/// The thread, step and member of every ring call, in call order.
type CallLog = Rc<RefCell<Vec<(ThreadId, &'static str, u16)>>>;

/// A member that logs every ring call and answers at once.
struct Logged {
    id: u16,
    log: CallLog,
}

impl RingMember for Logged {
    type Pending = RingReply;

    fn issue(&mut self, op: RingOp) -> Result<RingReply, String> {
        let me = std::thread::current().id();
        self.log.borrow_mut().push((me, "issue", self.id));
        let best = Individual {
            chrom: self.id,
            fitness: self.id,
        };
        match op {
            RingOp::Evolve(_) => Ok(RingReply::Best(best)),
            RingOp::Accept(_) => Ok(RingReply::Accepted),
            RingOp::Capture => Err("logged members keep no state".into()),
            RingOp::Conclude => Ok(RingReply::Concluded(best, 1)),
        }
    }

    fn collect(&mut self, reply: RingReply) -> Result<RingReply, String> {
        let me = std::thread::current().id();
        self.log.borrow_mut().push((me, "collect", self.id));
        Ok(reply)
    }
}

#[test]
fn ring_calls_issue_to_every_member_then_collect_on_the_callers_thread() {
    let config = IslandConfig {
        islands: 3,
        epoch: 1,
        epochs: 1,
    };
    let log = CallLog::default();
    let members = (0..3)
        .map(|id| Logged {
            id,
            log: Rc::clone(&log),
        })
        .collect();
    let run = IslandRing::new(config, members, 0)
        .expect("valid ring")
        .run()
        .expect("runs");
    assert_eq!(run.best.chrom, 2);
    let caller = std::thread::current().id();
    let calls: Vec<(&str, u16)> = log
        .borrow()
        .iter()
        .map(|&(thread, step, member)| {
            assert_eq!(thread, caller, "a ring call left the caller's thread");
            (step, member)
        })
        .collect();
    // Evolve, migrate, conclude: each call issued to all three members
    // before any reply is collected, replies collected in ring order.
    let call = [
        ("issue", 0),
        ("issue", 1),
        ("issue", 2),
        ("collect", 0),
        ("collect", 1),
        ("collect", 2),
    ];
    assert_eq!(calls, [call, call, call].concat());
}

#[test]
fn a_shard_that_stops_replying_is_a_typed_error_by_the_jobs_deadline() {
    let job = island_job(BackendKind::Behavioral).with_deadline_ms(500);
    // Shard 1 answers `init`, then reads its ops and never replies.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let stalled = listener.local_addr().expect("addr").to_string();
    let staller = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("init");
        assert!(line.contains("\"op\":\"init\""), "{line}");
        (&stream)
            .write_all(b"{\"ok\":true,\"seed\":1}\n")
            .expect("reply");
        // Hold the connection, silent, until the coordinator hangs up.
        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {}
    });
    let (first, w0) = spawn_worker();
    let (last, w2) = spawn_worker();
    let path = ckpt_path("stalled");
    // On a thread, so a coordinator that waits forever fails the test
    // instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let coordinator_path = path.clone();
    std::thread::spawn(move || {
        let addrs = [first, stalled, last];
        let mut coord =
            Coordinator::connect(&job, &addrs, &coordinator_path, None).expect("connects");
        let _ = tx.send(coord.step_epoch());
    });
    let got = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("a reply within 20 s, not a hang");
    match got {
        Err(EngineError::Island { island: 1, msg }) => {
            assert!(msg.contains("no reply"), "{msg}");
        }
        other => panic!("expected a typed error naming island 1, got {other:?}"),
    }
    staller.join().expect("staller thread");
    for w in [w0, w2] {
        let _ = w.join().expect("worker thread");
    }
    assert!(!path.exists(), "a failed barrier flushes no checkpoint");
}
