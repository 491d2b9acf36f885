//! Pack eligibility is one rule on every serving path. A bitsim64
//! island job runs solo — its ring owns its own lane streams — even
//! when plain bitsim64 jobs with the same (pop, gens) pack key sit in
//! the queue behind it. Sent over a socket, such a batch must come back
//! byte-identical to the batch path's result lines.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use ga_serve::jsonl::{parse_job, result_line};
use ga_serve::{serve_batch, GaJob, NetConfig, ServeConfig, Server};

const LINES: [&str; 5] = [
    r#"{"fn":"BF6","backend":"bitsim64","width":16,"pop":16,"gens":8,"xover":10,"mut":1,"seed":10561,"islands":2,"epoch":4,"epochs":2}"#,
    r#"{"fn":"BF6","backend":"bitsim64","width":16,"pop":16,"gens":8,"xover":10,"mut":1,"seed":53248}"#,
    r#"{"fn":"F2","backend":"bitsim64","width":16,"pop":16,"gens":8,"xover":10,"mut":1,"seed":53249}"#,
    r#"{"fn":"F3","backend":"bitsim64","width":16,"pop":16,"gens":8,"xover":10,"mut":1,"seed":53250}"#,
    r#"{"fn":"mBF7_2","backend":"bitsim64","width":16,"pop":16,"gens":8,"xover":10,"mut":1,"seed":53251}"#,
];

/// Seed of the job that holds the server's only worker while the
/// batch under test queues up behind it.
const BLOCKER_SEED: u16 = 0xB10C;
static HOLD: AtomicBool = AtomicBool::new(true);
static HELD: AtomicBool = AtomicBool::new(false);

fn hold_blocker(_: usize, job: &GaJob) {
    if job.params.seed == BLOCKER_SEED {
        HELD.store(true, Ordering::SeqCst);
        while HOLD.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1));
        }
    }
}

fn send(addr: SocketAddr, lines: &[String]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for line in lines {
        writeln!(stream, "{line}").expect("send line");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    stream
}

fn replies(stream: TcpStream) -> Vec<String> {
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read reply"))
        .collect()
}

#[test]
fn island_job_over_a_socket_replies_like_the_batch_path() {
    let jobs: Vec<GaJob> = LINES
        .iter()
        .enumerate()
        .map(|(i, line)| parse_job(line, i).expect("well-formed job line"))
        .collect();
    let batch = serve_batch(&jobs, &ServeConfig::default());
    let want: Vec<String> = batch.results.iter().map(result_line).collect();
    assert_eq!(batch.stats.packed_lanes, 4, "the island job stays solo");

    // One worker, held on a blocker job from a first connection, so the
    // whole batch is queued when the worker pops its head: the island
    // job, with four same-key pack candidates behind it.
    let mut cfg = NetConfig::default();
    cfg.serve.threads = 1;
    cfg.serve.pre_exec = Some(hold_blocker);
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    let blocker = send(
        addr,
        &[format!(
            r#"{{"fn":"F3","pop":8,"gens":2,"xover":10,"mut":1,"seed":{BLOCKER_SEED}}}"#
        )],
    );
    while !HELD.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(1));
    }
    let lines: Vec<String> = LINES.iter().map(|l| l.to_string()).collect();
    let under_test = send(addr, &lines);
    // Give the connection's reader time to queue all five lines. A
    // slower reader only leaves the worker fewer pack candidates; the
    // replies must match either way.
    thread::sleep(Duration::from_millis(200));
    HOLD.store(false, Ordering::SeqCst);

    assert_eq!(replies(blocker).len(), 1);
    assert_eq!(replies(under_test), want);
    server.drain();
}
