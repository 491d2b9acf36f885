//! Socket front-end tests: golden-stable streaming over concurrent
//! connections and one reply at a time, jobs run on their connection's
//! reader, graceful drain, and the admission-control rejections (quota,
//! rate limit, load shedding).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::Duration;

use ga_serve::{BackendKind, GaJob, NetConfig, Server};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/jobs16.jsonl"
);
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/results16_golden.jsonl"
);

/// Stream `lines` to the server on one connection (writer thread +
/// concurrent reader, like a real pipelined client), half-close, and
/// collect every response line until the server closes the socket.
fn stream_lines(addr: std::net::SocketAddr, lines: Vec<String>) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut write_half = stream.try_clone().expect("clone");
    let writer = thread::spawn(move || {
        for line in lines {
            write_half.write_all(line.as_bytes()).expect("send");
            write_half.write_all(b"\n").expect("send newline");
        }
        let _ = write_half.shutdown(std::net::Shutdown::Write);
    });
    let got: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read response"))
        .collect();
    writer.join().expect("writer");
    got
}

fn fixture_lines() -> Vec<String> {
    std::fs::read_to_string(FIXTURE)
        .expect("read jobs16.jsonl")
        .lines()
        .map(str::to_string)
        .collect()
}

fn golden_lines() -> Vec<String> {
    std::fs::read_to_string(GOLDEN)
        .expect("read results16_golden.jsonl")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn concurrent_connections_stream_golden_stable_line_aligned_results() {
    // The acceptance criterion: >=2 concurrent connections, each
    // getting byte-identical results to the batch-mode golden, line
    // numbers aligned per connection. Connection A streams the whole
    // fixture (35 lines incl. parse errors, deadline, rtl32, heal and
    // island jobs); connection B concurrently streams a 13-line prefix
    // and must get exactly the first 13 golden lines.
    let server = Server::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let addr = server.local_addr();
    let jobs = fixture_lines();
    let golden = golden_lines();
    assert_eq!(jobs.len(), golden.len(), "fixture has no blank lines");

    let (got_a, got_b) = thread::scope(|s| {
        let full = jobs.clone();
        let prefix: Vec<String> = jobs[..13].to_vec();
        let a = s.spawn(move || stream_lines(addr, full));
        let b = s.spawn(move || stream_lines(addr, prefix));
        (a.join().expect("conn A"), b.join().expect("conn B"))
    });
    assert_eq!(got_a, golden, "full stream must match the batch golden");
    assert_eq!(got_b, golden[..13], "prefix stream is line-aligned too");

    let summary = server.drain();
    assert_eq!(summary.admission.connections, 2);
    // Conn A's non-JSON line, its two unsupported-width lines, and the
    // half-specified island triple are all rejected at the reader,
    // before any backend.
    assert_eq!(summary.admission.rejected_parse, 4);
    // Conn A served its 31 parseable jobs, conn B the prefix's 13.
    assert_eq!(summary.stats.jobs(), 44);
    assert_eq!(summary.admission.rejected_closed, 0, "nothing raced drain");
}

/// Send `lines` on one connection, each only after the previous one's
/// reply is read, as a client waiting on every job does.
fn one_at_a_time(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    lines
        .iter()
        .map(|line| {
            // One write per line: split writes would wait on Nagle.
            stream
                .write_all(format!("{line}\n").as_bytes())
                .expect("send");
            let mut reply = String::new();
            replies.read_line(&mut reply).expect("read response");
            reply.trim_end_matches('\n').to_string()
        })
        .collect()
}

#[test]
fn a_client_waiting_on_each_reply_gets_the_golden_at_any_pool_size() {
    // Most of these jobs run on the connection's reader, the rest
    // (packable and island jobs) on a worker; the replies must not
    // tell the two apart.
    let golden = golden_lines();
    for threads in [1, 2, 4] {
        let mut cfg = NetConfig::default();
        cfg.serve.threads = threads;
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
        let got = one_at_a_time(server.local_addr(), &fixture_lines());
        assert_eq!(got, golden, "{threads} threads");
        let summary = server.drain();
        assert_eq!(summary.stats.jobs(), 31, "{threads} threads");
        assert_eq!(summary.admission.rejected_parse, 4, "{threads} threads");
    }
}

/// The thread each job ran on, in order, for the reader-run test.
static RAN_ON: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

fn note_thread(_: usize, _: &GaJob) {
    RAN_ON
        .lock()
        .expect("thread log")
        .push(thread::current().id());
}

#[test]
fn jobs_run_on_a_waiting_clients_reader_count_in_the_drain_summary() {
    // One worker. A packable job always goes through the queue, so the
    // first job pins the worker's thread; the behavioral jobs after it,
    // each sent once the last reply is read, find the queue empty and
    // the slot free, and run on the connection's reader instead. Only
    // the first of them may still see the worker hold the slot.
    let mut cfg = NetConfig::default();
    cfg.serve.threads = 1;
    cfg.serve.pre_exec = Some(note_thread);
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let job = |backend: &str, seed: usize| {
        format!(
            r#"{{"fn":"F3","backend":"{backend}","pop":8,"gens":2,"xover":10,"mut":1,"seed":{seed}}}"#
        )
    };
    let n = 8;
    let mut lines = vec![job("bitsim64", 0)];
    lines.extend((1..=n).map(|seed| job("behavioral", seed)));
    let got = one_at_a_time(server.local_addr(), &lines);
    assert!(got.iter().all(|l| l.contains("\"ok\":true")), "{got:?}");
    let summary = server.drain();

    let ran_on = RAN_ON.lock().expect("thread log").clone();
    assert_eq!(ran_on.len(), n + 1);
    let worker = ran_on[0];
    let on_reader = ran_on[1..].iter().filter(|&&t| t != worker).count();
    assert!(
        on_reader >= n - 1,
        "only {on_reader} of {n} ran on the reader"
    );
    // The worker's job and the reader's jobs are all in the summary.
    assert_eq!(summary.stats.jobs(), n as u64 + 1);
    assert_eq!(
        summary.stats.counters(BackendKind::Behavioral).jobs,
        n as u64
    );
    assert_eq!(summary.stats.counters(BackendKind::BitSim64).jobs, 1);
    assert_eq!(summary.stats.packed_lanes, 1);
}

#[test]
fn crlf_streams_parse_identically_to_lf() {
    // A CRLF-sending network client (satellite bugfix): same results,
    // same positions, and a CRLF "blank" line skips without shifting
    // the numbering.
    let server = Server::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let addr = server.local_addr();
    let jobs = fixture_lines();
    // stream_lines appends '\n' to each line; a trailing '\r' makes the
    // wire bytes CRLF. Insert a bare "\r" line (a CRLF blank) up front:
    // it must consume line number 0 and produce no output.
    let mut crlf: Vec<String> = vec!["\r".into()];
    crlf.extend(jobs[..6].iter().map(|l| format!("{l}\r")));
    let got = stream_lines(addr, crlf);
    let golden = golden_lines();
    // Expected: the first six golden lines with every job id shifted by
    // one (the blank line advanced the numbering).
    let expected: Vec<String> = golden[..6]
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let old = format!("{{\"job\":{i},");
            let new = format!("{{\"job\":{},", i + 1);
            assert!(line.starts_with(&old), "golden line {i} shape: {line}");
            line.replacen(&old, &new, 1)
        })
        .collect();
    assert_eq!(got, expected, "CRLF client must see LF-identical results");
    server.drain();
}

#[test]
fn drain_answers_every_admitted_job_with_no_lost_tails() {
    // Graceful-drain acceptance: a client that never hangs up is forced
    // to EOF after the grace window, but every line it managed to send
    // still gets exactly one result line before the socket closes.
    let cfg = NetConfig {
        drain_grace_ms: 50,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut write_half = stream.try_clone().expect("clone");
    let n = 20usize;
    for i in 0..n {
        let line = format!(
            "{{\"fn\":\"F3\",\"backend\":\"behavioral\",\"pop\":8,\"gens\":2,\
             \"xover\":10,\"mut\":1,\"seed\":{i}}}"
        );
        write_half.write_all(line.as_bytes()).expect("send");
        write_half.write_all(b"\n").expect("send newline");
    }
    write_half.flush().expect("flush");
    // Deliberately no shutdown and no EOF: the connection idles with 20
    // jobs submitted when the drain lands.
    thread::sleep(Duration::from_millis(50)); // let the reader ingest
    let reader = thread::spawn(move || {
        BufReader::new(stream)
            .lines()
            .map(|l| l.expect("read response"))
            .collect::<Vec<String>>()
    });
    let summary = server.drain();
    let got = reader.join().expect("reader");
    assert_eq!(got.len(), n, "every admitted job answered before close");
    for (i, line) in got.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"job\":{i},")) && line.contains("\"ok\":true"),
            "line {i}: {line}"
        );
    }
    assert_eq!(summary.stats.jobs(), n as u64);
    assert_eq!(summary.stats.errors(), 0);
}

#[test]
fn quota_rejects_excess_lines_with_typed_errors_in_position() {
    let cfg = NetConfig {
        max_jobs_per_conn: 3,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    let lines: Vec<String> = (0..5)
        .map(|i| {
            format!("{{\"fn\":\"F2\",\"pop\":8,\"gens\":2,\"xover\":10,\"mut\":1,\"seed\":{i}}}")
        })
        .collect();
    let got = stream_lines(addr, lines);
    assert_eq!(got.len(), 5, "rejected lines are answered, not dropped");
    for (i, line) in got.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"job\":{i},")),
            "line {i}: {line}"
        );
        if i < 3 {
            assert!(line.contains("\"ok\":true"), "line {i}: {line}");
        } else {
            assert!(
                line.contains("\"error\":\"quota_exceeded\"")
                    && line.contains("\"backend\":\"none\""),
                "line {i}: {line}"
            );
        }
    }
    let summary = server.drain();
    assert_eq!(summary.admission.rejected_quota, 2);
    assert_eq!(
        summary.stats.jobs(),
        3,
        "only admitted jobs reach a backend"
    );
}

#[test]
fn rate_limit_sheds_bursts_but_answers_every_line() {
    // Burst 2 at 1 job/s sustained: a 4-line burst must see at least
    // the burst capacity admitted and at least one rate_limited line;
    // on a slow CI box the bucket may refill mid-burst, so the split is
    // asserted as bounds, not exact counts.
    let cfg = NetConfig {
        rate_per_sec: 1,
        rate_burst: 2,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    let lines: Vec<String> = (0..4)
        .map(|i| {
            format!("{{\"fn\":\"F2\",\"pop\":8,\"gens\":2,\"xover\":10,\"mut\":1,\"seed\":{i}}}")
        })
        .collect();
    let got = stream_lines(addr, lines);
    assert_eq!(got.len(), 4);
    let ok = got.iter().filter(|l| l.contains("\"ok\":true")).count();
    let limited = got
        .iter()
        .filter(|l| l.contains("\"error\":\"rate_limited\""))
        .count();
    assert_eq!(ok + limited, 4, "every line gets exactly one verdict");
    assert!(ok >= 2, "burst capacity must be admitted: {got:?}");
    assert!(
        limited >= 1,
        "the tail of the burst must be limited: {got:?}"
    );
    let summary = server.drain();
    assert_eq!(summary.admission.rejected_rate as usize, limited);
}

/// Gate for the shed test's parking hook (a plain `fn` pointer, so it
/// talks to the test through a static).
static PARK: AtomicBool = AtomicBool::new(false);

fn park_first_job(_: usize, _: &GaJob) {
    while PARK.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn shed_mode_answers_queue_full_when_the_queue_is_at_capacity() {
    // One worker parked on the first job + a one-slot queue: the second
    // line fills the queue and every further line must shed with a
    // typed queue_full line (not block, not drop). The first job packs,
    // so its reader queues it for the worker rather than running it.
    let mut cfg = NetConfig {
        shed: true,
        ..Default::default()
    };
    cfg.serve.threads = 1;
    cfg.serve.queue_capacity = 1;
    cfg.serve.pre_exec = Some(park_first_job);
    PARK.store(true, Ordering::SeqCst);
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut write_half = stream.try_clone().expect("clone");
    let job = |seed: usize| {
        format!("{{\"fn\":\"F3\",\"pop\":8,\"gens\":2,\"xover\":10,\"mut\":1,\"seed\":{seed}}}\n")
    };
    // First job: popped by the (parked) worker.
    let packable = job(0).replacen('{', r#"{"backend":"bitsim64","#, 1);
    write_half.write_all(packable.as_bytes()).expect("send");
    write_half.flush().expect("flush");
    thread::sleep(Duration::from_millis(100));
    // Second fills the one-slot queue; third through fifth must shed.
    for i in 1..5 {
        write_half.write_all(job(i).as_bytes()).expect("send");
    }
    write_half.flush().expect("flush");
    thread::sleep(Duration::from_millis(100)); // let the reader shed 2..5
    PARK.store(false, Ordering::SeqCst);
    let _ = write_half.shutdown(std::net::Shutdown::Write);
    let got: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read response"))
        .collect();

    assert_eq!(got.len(), 5);
    for (i, line) in got.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"job\":{i},")),
            "line {i}: {line}"
        );
    }
    assert!(got[0].contains("\"ok\":true"), "line 0: {}", got[0]);
    assert!(got[1].contains("\"ok\":true"), "line 1: {}", got[1]);
    for line in &got[2..] {
        assert!(line.contains("\"error\":\"queue_full\""), "line: {line}");
    }
    let summary = server.drain();
    assert_eq!(summary.admission.shed_queue_full, 3);
    assert_eq!(summary.stats.jobs(), 2);
}
