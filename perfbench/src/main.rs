//! `perfbench` — the end-to-end and per-layer benchmark for served GA
//! jobs. See `perfbench/README.md` for the metrics, the workloads and
//! why each was chosen.
//!
//! ```text
//! perfbench --workload stream_small|batch_heavy|rtl_closed --seed N \
//!           --seconds S --trace 0|1 --gaserved PATH --out-dir DIR
//! ```
//!
//! `gaserved` always runs as its own process with `--threads 2`; this
//! process is the single load generator (at most two threads and two
//! connections). The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! nonzero when any reply fails the output check.

mod check;
mod gen;
mod layers;
mod load;
mod server;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ga_engine::BackendKind;
use gen::{Job, Workload};
use load::Exchange;
use server::{Env, Listener, ServerReport, SERVER_THREADS};
use stats::{m, Latency, Metric};

/// Timed server launches per run, half before the measured phase and
/// half after it; `setup_s` is their median. Launching at both ends
/// samples the host twice per run, so a slow spell at one end cannot set
/// the figure.
const SETUP_LAUNCHES: usize = 64;

/// An open-loop run is invalid when the generator's p99 lateness
/// exceeds this: it fell behind its schedule.
const MAX_LATENESS_P99_MS: f64 = 2.0;

/// One job in this many (seeded) is re-run in-process and compared byte
/// for byte; every reply gets the structural check.
fn reference_every(w: Workload) -> u64 {
    match w {
        Workload::StreamSmall => 4,
        Workload::BatchHeavy => 16,
        Workload::RtlClosed => 4,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    gaserved: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut gaserved, mut out_dir) = (None, None);
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value()? == "1",
            "--gaserved" => gaserved = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds must be > 0")?,
        trace,
        gaserved: gaserved.ok_or("--gaserved is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

/// Everything the served part of a run measured.
#[derive(Default)]
struct Served {
    setup_s: Vec<f64>,
    /// Warm-up exchanges on the measured server (part of its report).
    warmups: Vec<Exchange>,
    windows: Vec<Window>,
    reports: Vec<ServerReport>,
    attempted: u64,
    failed: u64,
    lateness_ms: Vec<f64>,
    problems: Vec<String>,
}

/// Slices of the measured phase per run. Every end-to-end rate and
/// latency is the median over the windows, so a stall confined to one
/// window cannot move it.
const WINDOWS: usize = 5;

/// One slice of the measured phase.
#[derive(Default)]
struct Window {
    wall_s: f64,
    ok: u64,
    cycles: u64,
    latencies_ms: Vec<f64>,
}

impl Window {
    fn add(&mut self, x: &Exchange, ok: bool) {
        self.latencies_ms.push(x.latency_ms());
        if ok {
            self.ok += 1;
            self.cycles += check::cycles(&x.reply).unwrap_or(0);
        }
    }
}

impl Served {
    fn new() -> Self {
        Served {
            windows: (0..WINDOWS).map(|_| Window::default()).collect(),
            ..Served::default()
        }
    }

    fn note(&mut self, why: String) {
        if self.problems.len() < 5 {
            self.problems.push(why);
        }
    }

    /// Check warm-up replies: every job answered, in order, `ok`.
    fn check_warmup(&mut self, jobs: usize, replies: &[String]) {
        self.attempted += jobs as u64;
        for i in 0..jobs {
            let reply = replies.get(i).map_or("", String::as_str);
            if let Err(e) = check::check_shape(reply, i) {
                self.failed += 1;
                self.note(format!("warm-up: {e}"));
            }
        }
    }
}

fn lines_of(jobs: &[Job]) -> String {
    jobs.iter().map(|j| j.line() + "\n").collect()
}

/// Launch a listener and time it until every warm-up job is answered.
fn warm_listener(env: &Env, w: Workload) -> Result<(Listener, f64, Vec<Exchange>), String> {
    let server = Listener::start(env)?;
    let warm = gen::warmup_jobs(w);
    let mut conn = server::Conn::open(server.addr)?;
    let sent = server.launched.elapsed().as_nanos() as u64;
    conn.send(&lines_of(&warm))?;
    let replies = conn.read_lines(warm.len())?;
    let recv = server.launched.elapsed().as_nanos() as u64;
    let setup = server.launched.elapsed().as_secs_f64();
    let exchanges = warm
        .iter()
        .zip(replies)
        .enumerate()
        .map(|(i, (j, reply))| Exchange {
            index: i as u64,
            line: i,
            request: j.line(),
            due_ns: sent,
            sent_ns: sent,
            recv_ns: recv,
            reply,
            ..Exchange::default()
        })
        .collect();
    Ok((server, setup, exchanges))
}

/// Check every exchange — its shape always, the in-process reference on
/// the seeded sample (spread over two threads) — and return which
/// passed.
fn check_exchanges(a: &Args, xs: &[Exchange], out: &mut Served) -> Vec<bool> {
    let mut ok = Vec::with_capacity(xs.len());
    for x in xs {
        let shape = check::check_shape(&x.reply, x.line);
        ok.push(shape.is_ok());
        if let Err(e) = shape {
            out.note(e);
        }
    }
    let every = reference_every(a.workload);
    let sample: Vec<usize> = (0..xs.len())
        .filter(|&i| ok[i] && check::sampled(a.seed, xs[i].index, every))
        .collect();
    let (left, right) = sample.split_at(sample.len().div_ceil(2));
    let run = |part: &[usize]| -> Vec<(usize, String)> {
        part.iter()
            .filter_map(|&i| {
                let x = &xs[i];
                check::check_reference(&x.request, &x.reply, x.line)
                    .err()
                    .map(|e| (i, e))
            })
            .collect()
    };
    let mismatches = std::thread::scope(|s| {
        let other = s.spawn(|| run(right));
        let mut mine = run(left);
        match other.join() {
            Ok(theirs) => mine.extend(theirs),
            Err(_) => mine.extend(right.iter().map(|&i| (i, "checker panicked".into()))),
        }
        mine
    });
    for (i, e) in mismatches {
        ok[i] = false;
        out.note(e);
    }
    out.attempted += xs.len() as u64;
    out.failed += ok.iter().filter(|&&o| !o).count() as u64;
    ok
}

/// Launch, warm and stop `n` listeners, recording each set-up time.
fn time_listeners(env: &Env, w: Workload, n: usize, out: &mut Served) -> Result<(), String> {
    for _ in 0..n {
        let (server, setup, warm) = warm_listener(env, w)?;
        server.stop()?;
        out.setup_s.push(setup);
        let replies: Vec<String> = warm.into_iter().map(|x| x.reply).collect();
        out.check_warmup(replies.len(), &replies);
    }
    Ok(())
}

/// Run `n` warm-up batches, recording each one's wall time as set-up.
fn time_batches(env: &Env, w: Workload, n: usize, out: &mut Served) -> Result<(), String> {
    let warm = gen::warmup_jobs(w);
    for _ in 0..n {
        let (replies, _, wall) = server::run_batch(env, "warmup", &lines_of(&warm))?;
        out.setup_s.push(wall);
        out.check_warmup(warm.len(), &replies);
    }
    Ok(())
}

fn serve_listen(a: &Args, env: &Env) -> Result<Served, String> {
    let mut out = Served::new();
    time_listeners(env, a.workload, SETUP_LAUNCHES / 2, &mut out)?;
    let (server, setup, warm) = warm_listener(env, a.workload)?;
    out.setup_s.push(setup);
    let replies: Vec<String> = warm.iter().map(|x| x.reply.clone()).collect();
    out.check_warmup(warm.len(), &replies);
    out.warmups = warm;
    let xs = match a.workload {
        Workload::StreamSmall => {
            let rate = gen::STREAM_RATE as f64;
            let n = (rate * a.seconds).round().max(1.0) as u64;
            let jobs: Vec<(u64, String)> = (0..n)
                .map(|k| (k, gen::stream_job(a.seed, k).line()))
                .collect();
            let xs = load::open_loop(server.addr, jobs, rate, Duration::from_secs(30))?;
            out.lateness_ms = load::lateness_ms(&xs);
            xs
        }
        _ => {
            let seed = a.seed;
            load::closed_loop(server.addr, a.seconds, |k| gen::rtl_job(seed, k).line())?
        }
    };
    out.reports.push(server.stop()?);
    time_listeners(env, a.workload, SETUP_LAUNCHES / 2, &mut out)?;
    let ok = check_exchanges(a, &xs, &mut out);
    // Window by when each job was due (open loop) or sent (closed loop).
    let span_ns = ((a.seconds * 1e9) as u64 / WINDOWS as u64).max(1);
    for (x, ok) in xs.iter().zip(ok) {
        let w = ((x.due_ns / span_ns) as usize).min(WINDOWS - 1);
        out.windows[w].add(x, ok);
    }
    for w in &mut out.windows {
        w.wall_s = span_ns as f64 / 1e9;
    }
    Ok(out)
}

fn serve_batches(a: &Args, env: &Env) -> Result<Served, String> {
    let mut out = Served::new();
    time_batches(env, a.workload, SETUP_LAUNCHES / 2, &mut out)?;
    let t = Instant::now();
    let mut b = 0u64;
    // Batches go round-robin into the windows; every job of a batch
    // shares the batch turnaround as its latency.
    while (b as usize) < WINDOWS || t.elapsed().as_secs_f64() < a.seconds {
        let jobs = gen::batch(a.seed, b);
        let (replies, report, wall) = server::run_batch(env, "batch", &lines_of(&jobs))?;
        out.reports.push(report);
        if replies.len() > jobs.len() {
            out.failed += 1;
            out.note(format!(
                "batch {b}: {} replies to {} jobs",
                replies.len(),
                jobs.len()
            ));
        }
        let xs: Vec<Exchange> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| Exchange {
                index: b * gen::BATCH_JOBS as u64 + i as u64,
                line: i,
                request: j.line(),
                recv_ns: (wall * 1e9) as u64,
                reply: replies.get(i).cloned().unwrap_or_default(),
                ..Exchange::default()
            })
            .collect();
        let ok = check_exchanges(a, &xs, &mut out);
        let win = &mut out.windows[b as usize % WINDOWS];
        win.wall_s += wall;
        for (x, ok) in xs.iter().zip(ok) {
            win.add(x, ok);
        }
        b += 1;
    }
    time_batches(env, a.workload, SETUP_LAUNCHES / 2, &mut out)?;
    Ok(out)
}

/// The median over the run's windows of `f`.
fn per_window(s: &Served, f: impl Fn(&Window) -> f64) -> f64 {
    stats::median(&s.windows.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(s: &Served) -> Vec<Metric> {
    let p50 = per_window(s, |w| Latency::of(&w.latencies_ms).p50);
    let tail = per_window(s, |w| Latency::of(&w.latencies_ms).tail);
    vec![
        m(
            "jobs_per_s",
            per_window(s, |w| w.ok as f64 / w.wall_s),
            "jobs/s",
        ),
        m("latency_p50_ms", p50, "ms"),
        m("latency_p99_ms", tail, "ms"),
        m("setup_s", stats::median(&s.setup_s), "s"),
        m(
            "peak_rss_mb",
            s.reports.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
            "MB",
        ),
        m(
            "sim_mcycles_per_s",
            per_window(s, |w| w.cycles as f64 / w.wall_s / 1e6),
            "Mcycles/s",
        ),
    ]
}

/// The end-to-end metric, and the workload, a per-layer metric should
/// move.
fn moves(name: &str) -> &'static str {
    const BY_PREFIX: [(&str, &str); 20] = [
        ("error_rate", "error_rate (all workloads)"),
        ("gen.", "validity of the stream_small open loop"),
        ("jsonl.", "latency_p50_ms on rtl_closed"),
        ("net.wait_share", "latency_p99_ms on rtl_closed"),
        ("net.rejected_lines", "error_rate (all workloads)"),
        ("service.exec_", "latency on the workload using the backend"),
        ("service.pack_occupancy", "jobs_per_s on batch_heavy"),
        ("service.busy_share", "jobs_per_s on batch_heavy"),
        ("service.degraded_jobs", "error_rate (all workloads)"),
        ("engine.netlist_cache", "setup_s on batch_heavy"),
        ("engine.extract", "jobs_per_s on batch_heavy"),
        (
            "backend.",
            "latency, jobs_per_s on the workload using the backend",
        ),
        (
            "engine.",
            "latency, jobs_per_s on the workload using the backend",
        ),
        ("core.rtl", "sim_mcycles_per_s, jobs_per_s on rtl_closed"),
        ("core.evaluations", "none: must repeat exactly"),
        ("core.", "jobs_per_s on batch_heavy"),
        ("fitness.eval", "jobs_per_s on batch_heavy"),
        ("fitness.rom", "latency_p50_ms, jobs_per_s on rtl_closed"),
        ("layer.", "where a saving sits"),
        ("trace.", "none: trace quality"),
    ];
    BY_PREFIX
        .iter()
        .find(|(p, _)| name.starts_with(p))
        .map_or("", |(_, m)| m)
}

fn per_layer(a: &Args, s: &Served) -> Vec<Metric> {
    let mut out = Vec::new();
    let names: Vec<&str> = BackendKind::ALL.iter().map(|b| b.name()).collect();
    let attempted = s.attempted.max(1) as f64;
    out.push(m("error_rate", s.failed as f64 / attempted, "fraction"));
    if a.workload == Workload::StreamSmall {
        let late = Latency::of(&s.lateness_ms);
        out.push(m("gen.lateness_p99_ms", late.tail, "ms"));
        out.push(m(
            "gen.lateness_max_ms",
            s.lateness_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ));
    }

    // Server-side, from the reports of the measured servers.
    let total = |key: &str| s.reports.iter().map(|r| r.metric(key)).sum::<f64>();
    let exec_us: f64 = s.reports.iter().map(|r| r.exec_micros(&names)).sum();
    let measured_ms: f64 = s.windows.iter().flat_map(|w| &w.latencies_ms).sum();
    let warmup_ms: f64 = s.warmups.iter().map(Exchange::latency_ms).sum();
    let client_us = (measured_ms + warmup_ms) * 1e3;
    out.push(m("net.wait_share", 1.0 - exec_us / client_us, "fraction"));
    out.push(m(
        "net.rejected_lines",
        s.reports.iter().map(|r| r.rejected_lines() as f64).sum(),
        "count",
    ));
    for b in &names {
        for (q, key) in [("p50", "exec_p50_us"), ("p99", "exec_p99_us")] {
            let per: Vec<f64> = s
                .reports
                .iter()
                .filter(|r| r.metric(&format!("{b}_jobs")) > 0.0)
                .map(|r| r.metric(&format!("{b}_{q}_us")))
                .collect();
            out.push(m(format!("service.{key}.{b}"), stats::median(&per), "us"));
        }
    }
    // The report counts packs and active lanes but not pack widths, so
    // divide the mean lanes per pack by the job-weighted mean pack width.
    let (packs, lanes) = (total("bitsim_packs"), total("bitsim_active_lanes"));
    let (jobs, width_jobs) = BackendKind::ALL
        .iter()
        .filter_map(|b| {
            let width = ga_engine::global().get(*b)?.capabilities().pack_width;
            (width > 1).then(|| (total(&format!("{}_jobs", b.name())), width as f64))
        })
        .fold((0.0, 0.0), |(n, nw), (j, w)| (n + j, nw + j * w));
    let occupancy = if packs == 0.0 {
        0.0
    } else {
        lanes / packs / (width_jobs / jobs)
    };
    out.push(m("service.pack_occupancy", occupancy, "fraction"));
    let busy_den: f64 = s
        .reports
        .iter()
        .map(|r| r.metric("wall_seconds") * 1e6 * SERVER_THREADS as f64)
        .sum();
    out.push(m("service.busy_share", exec_us / busy_den, "fraction"));
    out.push(m("service.degraded_jobs", total("degraded_jobs"), "count"));
    let (hits, misses) = (total("netlist_cache_hits"), total("netlist_cache_misses"));
    out.push(m(
        "engine.netlist_cache_hit_ratio",
        hits / (hits + misses),
        "fraction",
    ));

    // In-process, from the traced replay.
    let requests = replay_requests(a.workload, a.seed);
    layers::replay(&[], 1, false); // warm: netlists compiled, pages touched
    let plain = layers::replay(&requests, gather(a.workload), false);
    let traced = layers::replay(&requests, gather(a.workload), true);
    out.extend(layers::metrics(&traced));
    out.push(m(
        "trace.overhead",
        traced.wall_s / plain.wall_s - 1.0,
        "fraction",
    ));
    out
}

/// The jobs the traced run replays: the first jobs the served run sent.
fn replay_requests(w: Workload, seed: u64) -> Vec<String> {
    match w {
        Workload::StreamSmall => (0..3000).map(|k| gen::stream_job(seed, k).line()).collect(),
        Workload::BatchHeavy => gen::batch(seed, 0).iter().map(Job::line).collect(),
        Workload::RtlClosed => (0..120).map(|k| gen::rtl_job(seed, k).line()).collect(),
    }
}

/// How many consecutive jobs the replay may gather into packs.
fn gather(w: Workload) -> usize {
    match w {
        Workload::StreamSmall => 4,
        Workload::BatchHeavy => gen::BATCH_JOBS,
        Workload::RtlClosed => 1,
    }
}

/// FNV-1a over the repository sources the program is built from, for
/// provenance when the checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(a: &Args, s: &Served) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let samples: usize = s.windows.iter().map(|w| w.latencies_ms.len()).sum();
    let tail_q = s
        .windows
        .iter()
        .map(|w| Latency::of(&w.latencies_ms).tail_q)
        .fold(1.0, f64::min);
    let late = Latency::of(&s.lateness_ms);
    format!(
        "{{\"provenance\":{{\"commit\":{},\"source_digest\":{},\"profile\":{},\"nproc\":{nproc},\
         \"server_threads\":{SERVER_THREADS},\"workload\":{},\"seed\":{},\"tuning_seed\":{},\
         \"held_out_seed\":{},\"shape\":{},\"seconds\":{},\"offered_rate\":{},\
         \"latency_samples\":{},\"latency_tail_percentile\":{},\"lateness_p99_ms\":{},\
         \"lateness_max_ms\":{}}}}}",
        json_str(&git_commit()),
        json_str(&source_digest(Path::new("."))),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(a.workload.name()),
        a.seed,
        gen::TUNING_SEED,
        gen::HELD_OUT_SEED,
        json_str(&a.workload.shape()),
        a.seconds,
        if a.workload == Workload::StreamSmall {
            gen::STREAM_RATE as f64
        } else {
            0.0
        },
        samples,
        tail_q * 100.0,
        late.tail,
        s.lateness_ms.iter().copied().fold(0.0, f64::max),
    )
}

fn run(a: &Args) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&a.out_dir)
        .map_err(|e| format!("create {}: {e}", a.out_dir.display()))?;
    let env = Env {
        gaserved: a.gaserved.clone(),
        out_dir: a.out_dir.clone(),
    };
    let served = match a.workload {
        Workload::BatchHeavy => serve_batches(a, &env)?,
        _ => serve_listen(a, &env)?,
    };
    let mut valid = true;
    if a.workload == Workload::StreamSmall {
        let late = Latency::of(&served.lateness_ms);
        if late.tail > MAX_LATENESS_P99_MS {
            valid = false;
            eprintln!(
                "perfbench: invalid run — the generator fell behind its schedule \
                 (lateness p99 {:.3} ms > {MAX_LATENESS_P99_MS} ms)",
                late.tail
            );
        }
    }
    for p in &served.problems {
        eprintln!("perfbench: output check failed: {p}");
    }
    let metrics = if a.trace {
        per_layer(a, &served)
    } else {
        end_to_end(&served)
    };
    println!("{}", provenance(a, &served));
    for x in &metrics {
        let target = if a.trace { moves(&x.name) } else { "" };
        println!("{:<36} {:>16.6} {:<10} {target}", x.name, x.value, x.unit);
    }
    let correct = served.failed == 0 && valid;
    let mut body = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&x.name),
            x.value,
            json_str(x.unit)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        served.attempted.max(1),
        served.failed
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
