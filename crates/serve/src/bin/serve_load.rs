//! `serve_load` — sustained-load client for `gaserved --listen`.
//!
//! Drives a deterministic mixed-backend job stream over several
//! concurrent TCP connections to an already-running listener (each
//! client writes and reads on separate threads, like a real pipelined
//! submitter) and verifies that every submitted line came back exactly
//! once, in order, and green. It writes no report: the server owns the
//! stats and emits `BENCH_serve.json` when it drains.
//!
//! ```text
//! serve_load --connect ADDR [--conns N] [--jobs N]
//! ```
//!
//! `GA_BENCH_QUICK=1` (the CI burst) cuts the per-connection job count
//! so the step stays fast; `--conns`/`--jobs` override the defaults.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::ExitCode;
use std::thread;
use std::time::Instant;

use ga_core::GaParams;
use ga_fitness::TestFunction;
use ga_serve::{jsonl, BackendKind, GaJob};

/// The load mix: small fast parameter shapes cycling the lockstep-pack
/// family plus the scalar engines, heavy on the cheap backends so the
/// sustained rate lands in the tens of thousands of jobs per second.
/// The cycle-accurate RTL interpreters are deliberately excluded — one
/// 20 ms RTL job per thousand would own every p99 and measure nothing
/// about the serving layer.
fn job_for(conn: usize, i: usize) -> GaJob {
    const MIX: [BackendKind; 8] = [
        BackendKind::Behavioral,
        BackendKind::BitSim64,
        BackendKind::Behavioral,
        BackendKind::BitSim64,
        BackendKind::Swga,
        BackendKind::BitSim128,
        BackendKind::Behavioral,
        BackendKind::BitSim256,
    ];
    let backend = MIX[i % MIX.len()];
    let function = TestFunction::ALL[(conn + i) % TestFunction::ALL.len()];
    // One shared (pop, gens) shape keeps every bitsim job pack-compatible.
    let mut params = GaParams::new(8, 2, 10, 1, 1);
    params.seed = ((conn * 7919 + i) as u16)
        .wrapping_mul(2654)
        .wrapping_add(17);
    GaJob::new(function, backend, params)
}

/// Run the client fleet: one connection per client, a writer thread
/// streaming job lines while the spawning thread reads responses
/// concurrently — a client that wrote everything before reading
/// anything would deadlock against TCP backpressure once both socket
/// buffers fill. Returns the `(ok, failed)` reply counts over all
/// connections.
fn run_clients(addr: SocketAddr, conns: usize, jobs_per_conn: usize) -> (usize, usize) {
    thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect to listener");
                    let mut write_half = stream.try_clone().expect("clone socket");
                    let writer = thread::spawn(move || {
                        for i in 0..jobs_per_conn {
                            let line = jsonl::job_line(&job_for(c, i));
                            write_half.write_all(line.as_bytes()).expect("send line");
                            write_half.write_all(b"\n").expect("send newline");
                        }
                        // Half-close: the server reader sees EOF while
                        // responses keep flowing back to us.
                        let _ = write_half.shutdown(std::net::Shutdown::Write);
                    });
                    let mut ok = 0usize;
                    let mut failed = 0usize;
                    for (seen, line) in BufReader::new(stream).lines().enumerate() {
                        let line = line.expect("read result line");
                        // Results must echo this connection's 0-based
                        // line numbers, in order.
                        assert!(
                            line.starts_with(&format!("{{\"job\":{seen},")),
                            "out-of-order or misnumbered result: {line}"
                        );
                        if line.contains("\"ok\":true") {
                            ok += 1;
                        } else {
                            failed += 1;
                        }
                    }
                    writer.join().expect("writer thread");
                    (ok, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0, 0), |(ok, failed), (o, f)| (ok + o, failed + f))
    })
}

fn main() -> ExitCode {
    let mut conns = 4usize;
    let mut jobs_per_conn = if std::env::var_os("GA_BENCH_QUICK").is_some() {
        1_200
    } else {
        6_000
    };
    let mut connect = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let r = match arg.as_str() {
            "--conns" => value("--conns").and_then(|v| {
                v.parse()
                    .map(|n: usize| conns = n.max(1))
                    .map_err(|e| format!("--conns: {e}"))
            }),
            "--jobs" => value("--jobs").and_then(|v| {
                v.parse()
                    .map(|n: usize| jobs_per_conn = n.max(1))
                    .map_err(|e| format!("--jobs: {e}"))
            }),
            "--connect" => value("--connect").map(|v| connect = Some(v)),
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(msg) = r {
            eprintln!("serve_load: {msg}");
            return ExitCode::FAILURE;
        }
    }

    let Some(target) = connect else {
        eprintln!("serve_load: --connect ADDR is required");
        return ExitCode::FAILURE;
    };
    let addr = match target.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("serve_load: cannot resolve {target}");
            return ExitCode::FAILURE;
        }
    };
    let t = Instant::now();
    let (ok, failed) = run_clients(addr, conns, jobs_per_conn);
    let wall = t.elapsed().as_secs_f64();
    let expected = conns * jobs_per_conn;
    assert_eq!(ok + failed, expected, "every line answered");
    assert_eq!(failed, 0, "burst must be green");
    eprintln!(
        "serve_load: {expected} jobs over {conns} conns to {addr} \
         in {wall:.3}s [{:.0} jobs/s client-side]",
        expected as f64 / wall,
    );
    ExitCode::SUCCESS
}
