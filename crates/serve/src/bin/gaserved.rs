//! `gaserved` — GA execution over JSONL, batch or persistent socket.
//!
//! ```text
//! gaserved --input jobs.jsonl --out results.jsonl [--threads N] [--queue-cap N]
//! gaserved --listen 127.0.0.1:4567 [--threads N] [--queue-cap N] [--shed]
//!          [--max-jobs-per-conn N] [--rate N] [--burst N] [--drain-grace-ms N]
//! gaserved --island-worker 127.0.0.1:0
//! gaserved --list-backends
//! ```
//!
//! **Batch mode** serves the input file as one connection
//! ([`ga_serve::serve_jsonl`]): one result line per non-empty input
//! line, in input order. Lines that fail to parse become
//! `"backend":"none"` error lines in the same position — the batch
//! never aborts on a bad line. The whole file is queued before the
//! workers start, so bitsim packs form in first-appearance order.
//!
//! **Listen mode** serves the same wire format over a persistent TCP
//! socket through the same reader and worker pool — one connection per
//! client, results line-aligned per connection — and announces the
//! bound address on stdout as
//! `listening <addr>` (so `--listen 127.0.0.1:0` is scriptable). The
//! server runs until **stdin reaches EOF** (the std-only shutdown
//! signal: run it with a held-open pipe and close it to stop), then
//! drains gracefully — stops accepting, finishes every admitted job,
//! flushes per-connection tails.
//!
//! **Island-worker mode** hosts one shard of a sharded island run: it
//! binds, announces `listening <addr>` the same way, accepts a single
//! coordinator connection, and serves the `ga_serve::islands` op
//! protocol (init/epoch/inject/snapshot/finish) until the run finishes
//! or the coordinator disconnects.
//!
//! In both modes a human summary goes to stderr and the
//! machine-readable throughput report — now with per-backend
//! p50/p95/p99/max latency — goes to `BENCH_serve.json` (honoring
//! `GA_BENCH_OUT`).

use std::fmt::Display;
use std::fs;
use std::io::{BufWriter, Read as _};
use std::process::ExitCode;
use std::str::FromStr;

use ga_serve::{serve_jsonl, BackendKind, NetConfig, ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input = None;
    let mut out = None;
    let mut listen = None;
    let mut island_worker = None;
    let mut net = NetConfig::default();
    let mut cfg = ServeConfig::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        let r = match arg.as_str() {
            "--input" => value().map(|v| input = Some(v)),
            "--out" => value().map(|v| out = Some(v)),
            "--listen" => value().map(|v| listen = Some(v)),
            "--island-worker" => value().map(|v| island_worker = Some(v)),
            "--shed" => {
                net.shed = true;
                Ok(())
            }
            "--max-jobs-per-conn" => number(arg, value()).map(|n| net.max_jobs_per_conn = n),
            "--rate" => number(arg, value()).map(|n| net.rate_per_sec = n),
            "--burst" => number(arg, value()).map(|n| net.rate_burst = n),
            "--drain-grace-ms" => number(arg, value()).map(|n| net.drain_grace_ms = n),
            "--threads" => number(arg, value()).map(|n: usize| cfg.threads = n.max(1)),
            "--queue-cap" => number(arg, value()).map(|n: usize| cfg.queue_capacity = n.max(1)),
            "--list-backends" => {
                // One line per backend name, machine-greppable: the CI
                // engine-table check compares these lines exactly.
                for kind in BackendKind::ALL {
                    let caps = kind.capabilities();
                    let widths: Vec<String> = caps.widths.iter().map(|w| w.to_string()).collect();
                    println!(
                        "{} widths={} pack_width={} degrades_to={}",
                        kind.name(),
                        widths.join(","),
                        caps.pack_width,
                        caps.degrades_to.map_or("none", |k| k.name()),
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: gaserved --input jobs.jsonl --out results.jsonl \
                     [--threads N] [--queue-cap N]\n       \
                     gaserved --listen ADDR [--threads N] [--queue-cap N] [--shed] \
                     [--max-jobs-per-conn N] [--rate N] [--burst N] [--drain-grace-ms N]\n       \
                     gaserved --island-worker ADDR\n       \
                     gaserved --list-backends"
                );
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other:?} (try --help)")),
        };
        if let Err(msg) = r {
            eprintln!("gaserved: {msg}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(addr) = island_worker {
        // One shard of a sharded island run: serve the op protocol on a
        // single coordinator connection, then exit.
        return match ga_serve::serve_island_worker(&addr) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gaserved: island worker: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(addr) = listen {
        net.serve = cfg;
        return run_listener(&addr, net);
    }

    let (Some(input), Some(out)) = (input, out) else {
        eprintln!("gaserved: --input and --out are required (try --help)");
        return ExitCode::FAILURE;
    };

    // Bytes, not text: a line that is not UTF-8 gets its own typed
    // reply, like any other line that does not parse.
    let text = match fs::read(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gaserved: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let summary = match fs::File::create(&out)
        .and_then(|file| serve_jsonl(&text, BufWriter::new(file), &cfg))
    {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("gaserved: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (stats, adm) = (&summary.stats, &summary.admission);
    eprintln!(
        "gaserved: {} jobs ({} ok, {} errors, {} parse failures) in {:.3}s \
         [{:.1} jobs/s, {} threads, {} bitsim packs]",
        adm.lines,
        stats.jobs() - stats.errors(),
        stats.errors(),
        adm.rejected_parse,
        stats.wall_seconds,
        stats.jobs_per_sec(),
        stats.threads_used,
        stats.packs,
    );
    stats.to_report().emit_or_warn();
    ExitCode::SUCCESS
}

/// Parse the numeric value of `flag`.
fn number<T: FromStr>(flag: &str, value: Result<String, String>) -> Result<T, String>
where
    T::Err: Display,
{
    value?.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Listen mode: bind, announce, serve until stdin EOF, drain, report.
fn run_listener(addr: &str, net: NetConfig) -> ExitCode {
    let server = match Server::bind(addr, net) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gaserved: cannot listen on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Announce on stdout so `--listen 127.0.0.1:0` is scriptable: the
    // caller reads this line to learn the ephemeral port.
    println!("listening {}", server.local_addr());
    // std-only shutdown signal: block until our stdin is closed, then
    // drain. CI holds the pipe open for the test window; interactively,
    // Ctrl-D stops the server.
    let mut sink = [0u8; 4096];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    let summary = server.drain();
    let stats = &summary.stats;
    let adm = &summary.admission;
    eprintln!(
        "gaserved: drained after {:.3}s — {} conns, {} lines, {} jobs \
         ({} errors, {} degraded), rejected {}p/{}q/{}r, shed {}, closed {}",
        stats.wall_seconds,
        adm.connections,
        adm.lines,
        stats.jobs(),
        stats.errors(),
        stats.degraded,
        adm.rejected_parse,
        adm.rejected_quota,
        adm.rejected_rate,
        adm.shed_queue_full,
        adm.rejected_closed,
    );
    stats.to_report().emit_or_warn();
    ExitCode::SUCCESS
}
