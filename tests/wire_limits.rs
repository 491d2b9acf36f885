//! Job lines whose generation counts imply terabytes of RNG stream or
//! history must get a typed reply, never abort the server. Both lines
//! below used to kill `gaserved` (SIGABRT on a failed allocation): the
//! island job asked its bitsim stepper for the whole stream with no
//! watchdog, and the plain job, once its pack watchdog degraded it to
//! behavioral, preallocated one history slot per generation.
//!
//! The island worker's ops obey the same rule: an `epoch` that would
//! step a member past its job's generation budget is an in-band error,
//! and the connection lives. So is a checkpoint a bitsim member cannot
//! continue: a crafted snapshot either resumes exactly as it does on
//! `behavioral` or gets a typed reply.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use carng::{CaRng, Rng16};
use ga_core::islands::{island_seed, IslandConfig, IslandRun};
use ga_core::{EngineSnapshot, FieldMode, GaEngine, GaParams};
use ga_engine::{BackendKind, CheckpointBundle, EngineError, IslandsEngine, RunSpec, Workload};
use ga_fitness::TestFunction;
use ga_serve::jsonl::{parse_job, result_line};
use ga_serve::net::MAX_LINE_BYTES;
use ga_serve::{
    serve_batch, serve_island_connection, serve_jsonl, NetConfig, ServeConfig, ServeError, Server,
};
use proptest::prelude::*;

const ISLAND_LINE: &str = r#"{"fn":"F3","backend":"bitsim64","width":16,"pop":128,"gens":4294901760,"xover":10,"mut":1,"seed":5,"islands":2,"epoch":65535,"epochs":65536,"deadline_ms":50}"#;
const PLAIN_LINE: &str = r#"{"fn":"F3","backend":"bitsim64","width":16,"pop":128,"gens":4294901760,"xover":10,"mut":1,"seed":5,"deadline_ms":50}"#;
const SWGA_LINE: &str = r#"{"fn":"F3","backend":"swga","width":16,"pop":128,"gens":4294901760,"xover":10,"mut":1,"seed":5,"deadline_ms":50}"#;

#[test]
fn oversized_generation_counts_get_one_typed_reply_per_line() {
    let jobs = [ISLAND_LINE, PLAIN_LINE]
        .iter()
        .enumerate()
        .map(|(i, line)| parse_job(line, i).expect("well-formed job line"))
        .collect::<Vec<_>>();
    let out = serve_batch(&jobs, &ServeConfig::default());
    assert_eq!(out.results.len(), 2, "one reply per line");
    for (i, r) in out.results.iter().enumerate() {
        assert_eq!(r.job, i);
        let line = result_line(r);
        assert!(line.contains("\"ok\":false"), "line {i}: {line}");
    }
    // The island stepper's stream watchdog trips before any stepping.
    assert!(
        matches!(out.results[0].outcome, Err(ServeError::Watchdog { .. })),
        "island line: {:?}",
        out.results[0].outcome
    );
    // The plain job degrades to behavioral and runs into its deadline.
    assert_eq!(
        out.results[1].outcome.as_ref().map(|_| ()),
        Err(&ServeError::DeadlineExceeded)
    );
    assert!(
        out.results[1].degraded.is_some(),
        "watchdog degraded the pack"
    );
}

#[test]
fn swga_checks_its_deadline_between_generations() {
    // The software reference used to check its deadline once, before
    // the run, and then ran all 4 294 901 760 generations.
    // On a thread, so a run that ignores its deadline fails the test
    // instead of hanging it.
    let job = parse_job(SWGA_LINE, 0).expect("well-formed job line");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(serve_batch(&[job], &ServeConfig::default())));
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("a reply within five seconds");
    assert_eq!(out.results.len(), 1, "one reply");
    assert_eq!(
        out.results[0].outcome.as_ref().map(|_| ()),
        Err(&ServeError::DeadlineExceeded)
    );
    let line = result_line(&out.results[0]);
    assert!(line.contains("deadline_exceeded"), "{line}");
}

#[test]
fn width_32_heal_lines_get_one_typed_reply_each() {
    // VRC healing is a 16-bit workload: a width-32 heal line is refused
    // at admission on the 32-bit core and on a 16-bit-only engine alike.
    let lines = ["rtl32", "behavioral"].map(|backend| {
        format!(
            r#"{{"heal_target":39835,"heal_fault":"stuck1@2","backend":"{backend}","width":32,"pop":32,"gens":8,"xover":10,"mut":1,"seed":5}}"#
        )
    });
    let jobs: Vec<_> = lines
        .iter()
        .enumerate()
        .map(|(i, line)| parse_job(line, i).expect("well-formed job line"))
        .collect();
    let out = serve_batch(&jobs, &ServeConfig::default());
    assert_eq!(out.results.len(), 2, "one reply per line");
    for (i, r) in out.results.iter().enumerate() {
        assert_eq!(r.job, i);
        assert!(
            matches!(
                r.outcome,
                Err(ServeError::InvalidJob { .. } | ServeError::UnsupportedWidth { .. })
            ),
            "{}: {:?}",
            lines[i],
            r.outcome
        );
        assert!(result_line(r).contains("\"ok\":false"), "{}", lines[i]);
    }
    assert_eq!(out.stats.panics_caught, 0);
}

/// One island worker serving one loopback connection on a thread.
struct Worker {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    thread: JoinHandle<Result<(), String>>,
}

impl Worker {
    fn spawn() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            serve_island_connection(stream)
        });
        let stream = TcpStream::connect(addr).expect("connect");
        Worker {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
            thread,
        }
    }

    /// Send one op line and read its reply; a worker that dies instead
    /// of answering fails here with an empty reply.
    fn call(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send op");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "worker hung up on {line}");
        reply.trim_end().to_string()
    }

    fn finish(mut self) -> String {
        let reply = self.call(r#"{"op":"finish"}"#);
        self.thread
            .join()
            .expect("worker thread")
            .expect("clean exit");
        reply
    }
}

const INIT: &str = r#"{"op":"init","fn":"F3","backend":"bitsim64","islands":1,"shard":0,"pop":8,"gens":4,"xover":10,"mut":1,"seed":5"#;

fn init_line(snapshot: Option<&str>) -> String {
    match snapshot {
        Some(hex) => format!(r#"{INIT},"snapshot":"{hex}"}}"#),
        None => format!("{INIT}}}"),
    }
}

fn assert_typed_error(reply: &str, what: &str) {
    assert!(
        reply.starts_with(r#"{"ok":false,"error":"#) && reply.contains(what),
        "expected an in-band {what:?} error, got {reply}"
    );
}

#[test]
fn island_epochs_past_the_generation_budget_get_a_typed_error() {
    // Fresh member: a 50-generation epoch against a 4-generation budget
    // used to index past the extracted bitsim stream and abort.
    let mut fresh = Worker::spawn();
    assert!(fresh.call(&init_line(None)).starts_with(r#"{"ok":true"#));
    assert_typed_error(&fresh.call(r#"{"op":"epoch","gens":50}"#), "budget");
    assert!(fresh
        .call(r#"{"op":"epoch","gens":2}"#)
        .starts_with(r#"{"ok":true"#));
    let snapshot = fresh.call(r#"{"op":"snapshot"}"#);
    let hex = snapshot
        .strip_prefix(r#"{"ok":true,"snapshot":""#)
        .and_then(|s| s.strip_suffix(r#""}"#))
        .expect("snapshot reply")
        .to_string();
    let last_epoch = fresh.call(r#"{"op":"epoch","gens":2}"#);
    assert!(last_epoch.starts_with(r#"{"ok":true"#), "{last_epoch}");
    assert_typed_error(&fresh.call(r#"{"op":"epoch","gens":1}"#), "budget");
    let fresh_finish = fresh.finish();
    assert!(fresh_finish.starts_with(r#"{"ok":true"#), "{fresh_finish}");

    // Resumed member at generation 2: two generations are left, and
    // the refused epochs stepped nothing, so the run ends where the
    // uninterrupted one did.
    let mut resumed = Worker::spawn();
    assert!(resumed
        .call(&init_line(Some(&hex)))
        .starts_with(r#"{"ok":true"#));
    assert_typed_error(&resumed.call(r#"{"op":"epoch","gens":3}"#), "budget");
    assert_eq!(resumed.call(r#"{"op":"epoch","gens":2}"#), last_epoch);
    assert_eq!(resumed.finish(), fresh_finish);

    // A snapshot already past the budget is refused at restore, and the
    // connection still serves the next init.
    let mut late = Worker::spawn();
    let past = init_line(Some(&hex)).replace(r#""gens":4"#, r#""gens":1"#);
    assert_typed_error(&late.call(&past), "restore");
    assert!(late.call(&init_line(None)).starts_with(r#"{"ok":true"#));
    assert!(late.finish().starts_with(r#"{"ok":true"#));
}

/// The snapshot of an `F3` run on the island seed of `init`'s seed 5
/// after `gens` generations at population `pop`.
fn snapshot_at(pop: u8, gens: u32, mode: FieldMode) -> EngineSnapshot {
    let seed = island_seed(5, 0, 1);
    let f = |c| TestFunction::F3.eval_u16(c);
    let params = GaParams::new(pop, 8, 10, 1, seed);
    let mut e = GaEngine::new(params, CaRng::new(seed), f).with_field_mode(mode);
    e.init_population();
    for _ in 0..gens {
        e.step_generation();
    }
    e.snapshot()
}

/// Draws after which the CA-RNG stream repeats.
const CA_PERIOD: u64 = 65_535;

/// Snapshots a `pop:16,gens:8` member was never built for, each with
/// the generation it stands at. The first three used to run a bitsim64
/// member past its extracted stream and kill the worker.
fn crafted_snapshots() -> Vec<(&'static str, EngineSnapshot)> {
    // A pop-16 snapshot two generations in whose RNG stands 200 draws
    // further along the same CA stream than its generation implies.
    let mut ahead = snapshot_at(16, 2, FieldMode::SharedDraw);
    let mut ca = CaRng::new(ahead.rng_next);
    for _ in 0..200 {
        ca.step();
    }
    ahead.rng_draws += 200;
    ahead.rng_next = ca.output();
    // The same position a whole number of CA periods on, just under
    // the default stream watchdog: the same draw, far down the stream.
    let mut far = snapshot_at(16, 2, FieldMode::SharedDraw);
    far.rng_draws += 1_999_000_000 / CA_PERIOD * CA_PERIOD;
    vec![
        ("pop 32", snapshot_at(32, 0, FieldMode::SharedDraw)),
        (
            "consecutive draws",
            snapshot_at(16, 2, FieldMode::ConsecutiveDraws),
        ),
        ("rng ahead", ahead),
        ("rng periods ahead", far),
    ]
}

#[test]
fn crafted_snapshots_resume_on_bitsim64_workers_like_behavioral() {
    for (what, snap) in crafted_snapshots() {
        let replies = |backend: &str| {
            let mut w = Worker::spawn();
            let init = format!(
                r#"{{"op":"init","fn":"F3","backend":"{backend}","islands":1,"shard":0,"pop":16,"gens":8,"xover":10,"mut":1,"seed":5,"snapshot":"{}"}}"#,
                snap.to_hex()
            );
            let mut out = vec![w.call(&init)];
            out.push(w.call(&format!(r#"{{"op":"epoch","gens":{}}}"#, 8 - snap.gen)));
            out.push(w.call(r#"{"op":"snapshot"}"#));
            out.push(w.finish());
            out
        };
        let behavioral = replies("behavioral");
        assert!(behavioral.iter().all(|r| r.starts_with(r#"{"ok":true"#)));
        assert_eq!(replies("bitsim64"), behavioral, "{what}");
    }
}

#[test]
fn crafted_snapshots_resume_in_process_on_bitsim64_like_behavioral() {
    let config = IslandConfig {
        islands: 1,
        epoch: 2,
        epochs: 4,
    };
    let spec = RunSpec {
        width: 16,
        workload: Workload::Function(TestFunction::F3),
        params: GaParams::new(16, 8, 10, 1, 5),
        deadline_ms: None,
    };
    for (what, snap) in crafted_snapshots() {
        let bundle = CheckpointBundle {
            config,
            epochs_done: snap.gen / config.epoch,
            members: vec![snap],
        };
        let run = |kind: BackendKind| -> Result<IslandRun, EngineError> {
            let engine = kind.engine();
            let mut d = IslandsEngine::new(engine, config)?.resume(spec, &bundle)?;
            while !d.done() {
                d.step_epoch()?;
            }
            d.finish()
        };
        let behavioral = run(BackendKind::Behavioral).expect("behavioral resumes");
        assert_eq!(run(BackendKind::BitSim64), Ok(behavioral), "{what}");
    }
}

#[test]
fn a_far_off_stream_rng_position_gets_a_prompt_typed_reply_on_bitsim64() {
    // An RNG position just under the default stream watchdog whose
    // draw is not the lane's draw there: the restore steps the CA less
    // than one period before refusing it, and the connection lives.
    let mut snap = snapshot_at(8, 2, FieldMode::SharedDraw);
    snap.rng_draws = 1_999_999_999;
    assert_ne!(
        (snap.rng_draws - 8 - 2 * 19) % CA_PERIOD,
        0,
        "off the stream"
    );
    let mut w = Worker::spawn();
    let start = std::time::Instant::now();
    assert_typed_error(&w.call(&init_line(Some(&snap.to_hex()))), "restore");
    assert!(start.elapsed().as_secs() < 10, "{:?}", start.elapsed());
    assert!(w.call(&init_line(None)).starts_with(r#"{"ok":true"#));
    assert!(w.finish().starts_with(r#"{"ok":true"#));
}

const JOB_LINE: &str =
    r#"{"fn":"F3","backend":"behavioral","width":16,"pop":8,"gens":2,"xover":10,"mut":1,"seed":5}"#;

/// A valid job, a line that is not UTF-8, a valid job, a 4 MiB line and
/// a valid job, one line each.
fn mixed_input() -> Vec<u8> {
    let mut input = Vec::new();
    for (k, line) in [
        JOB_LINE.as_bytes().to_vec(),
        b"{\"fn\":\"F3\xff\xfe\",\"pop\":8}".to_vec(),
        JOB_LINE.as_bytes().to_vec(),
        vec![b'x'; 4 << 20],
        JOB_LINE.as_bytes().to_vec(),
    ]
    .into_iter()
    .enumerate()
    {
        assert_eq!(k == 3, line.len() > MAX_LINE_BYTES);
        input.extend(line);
        input.push(b'\n');
    }
    input
}

/// One reply per line of [`mixed_input`], in order: the jobs answered,
/// the other two lines typed `parse` errors at their line numbers.
fn assert_every_line_answered(replies: &[String]) {
    assert_eq!(replies.len(), 5, "{replies:?}");
    for (k, reply) in replies.iter().enumerate() {
        assert!(reply.starts_with(&format!("{{\"job\":{k},")), "{reply}");
        let ok = reply.contains("\"ok\":true");
        assert_eq!(ok, k % 2 == 0, "{reply}");
    }
    assert!(replies[1].contains("\"error\":\"parse\"") && replies[1].contains("UTF-8"));
    assert!(replies[3].contains("\"error\":\"parse\"") && replies[3].contains("longer than"));
}

#[test]
fn every_socket_line_gets_a_reply_however_its_bytes_read() {
    let server = Server::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&mixed_input()).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let replies: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read reply"))
        .collect();
    assert_every_line_answered(&replies);
    let summary = server.drain();
    assert_eq!(summary.admission.rejected_parse, 2);
}

/// A `Write` the batch path can own while the test reads it back.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("unpoisoned").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_batch_line_gets_a_reply_however_its_bytes_read() {
    let out = Shared::default();
    serve_jsonl(&mixed_input(), out.clone(), &ServeConfig::default()).expect("served");
    let text = String::from_utf8(out.0.lock().expect("unpoisoned").clone()).expect("UTF-8");
    let replies: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_every_line_answered(&replies);
}

/// Send `input` over one socket connection and return the replies.
fn socket_replies(input: &[u8]) -> Vec<String> {
    let server = Server::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(input).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let replies = BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read reply"))
        .collect();
    server.drain();
    replies
}

/// Serve `input` as a batch and return the replies.
fn batch_replies(input: &[u8]) -> Vec<String> {
    let out = Shared::default();
    serve_jsonl(input, out.clone(), &ServeConfig::default()).expect("served");
    let text = String::from_utf8(out.0.lock().expect("unpoisoned").clone()).expect("UTF-8");
    text.lines().map(str::to_owned).collect()
}

/// One request line, without its newline: a valid job, a valid job cut
/// short, printable ASCII, or any bytes but a newline.
fn request_line() -> impl Strategy<Value = Vec<u8>> {
    let no_newline = |b: u8| if b == b'\n' { b'{' } else { b };
    prop_oneof![
        Just(JOB_LINE.as_bytes().to_vec()),
        (0..JOB_LINE.len()).prop_map(|n| JOB_LINE.as_bytes()[..n].to_vec()),
        prop::collection::vec(32u8..127, 0..40),
        prop::collection::vec(any::<u8>().prop_map(no_newline), 0..40),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every line gets exactly one reply, in line order, on a socket and
    /// in a batch, except the blank lines the reader skips: an answered
    /// job for each valid line, a typed error at its line number for
    /// each other.
    #[test]
    fn every_line_of_arbitrary_bytes_gets_one_reply_in_order(
        lines in prop::collection::vec(request_line(), 1..13),
    ) {
        let mut input = Vec::new();
        for line in &lines {
            input.extend(line);
            input.push(b'\n');
        }
        let blank = |line: &[u8]| std::str::from_utf8(line).is_ok_and(|t| t.trim().is_empty());
        let answered: Vec<usize> = (0..lines.len()).filter(|&k| !blank(&lines[k])).collect();
        for (path, replies) in [("socket", socket_replies(&input)), ("batch", batch_replies(&input))] {
            prop_assert_eq!(replies.len(), answered.len(), "{}: {:?}", path, replies);
            for (&k, reply) in answered.iter().zip(&replies) {
                let at_line = reply.starts_with(&format!("{{\"job\":{k},"));
                prop_assert!(at_line, "{}: line {}: {}", path, k, reply);
                let ok = reply.contains("\"ok\":true");
                let typed = reply.contains("\"ok\":false,\"error\":\"");
                prop_assert!(ok || typed, "{}: line {}: {}", path, k, reply);
                if lines[k] == JOB_LINE.as_bytes() {
                    prop_assert!(ok, "{}: line {}: {}", path, k, reply);
                }
            }
        }
    }
}
