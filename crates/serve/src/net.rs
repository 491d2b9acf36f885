//! The JSONL front-end: `gaserved --listen` sockets and `gaserved
//! --input` batch files.
//!
//! Both speak the same wire format through the same per-line reader —
//! one job per line in, one result line out per non-empty input line,
//! in input order, with the `job` field echoing the 0-based input line
//! number (blank lines advance the numbering but produce no output;
//! `\r\n` endings parse like `\n`). Because the per-line results are
//! deterministic and timing-free, a golden `results.jsonl` written by
//! batch mode diffs byte-identical against what a socket client streams
//! back.
//!
//! Layering:
//!
//! * the **reader** parses lines, applies admission control
//!   (per-connection quota, token-bucket rate limit, then the shared
//!   [`BoundedQueue`] — blocking backpressure by default, `try_push`
//!   load-shedding when [`NetConfig::shed`] is on) and answers every
//!   rejected line immediately with a typed [`ServeError`] line, so
//!   nothing ever goes unanswered. A socket gets one reader thread per
//!   connection; a batch file is read once, into a queue sized to hold
//!   all of it;
//! * a socket reader runs an admitted job **itself**, with no hop
//!   through the queue, when its client is waiting on it: the job runs
//!   solo and is not an island job, nothing is queued (so no earlier
//!   arrival is overtaken), no further line is buffered on the
//!   connection, and one of the pool's execution slots is free
//!   ([`BoundedQueue::try_claim`]). Otherwise it queues the job. The
//!   reader counts what it ran in its own [`ServeStats`], folded into
//!   the [`DrainSummary`]. Batch mode never runs a job on its reader;
//! * the crate's one **worker pool** (`crate::pool`) pops jobs, gathers
//!   pack-mates in the same queue operation, and runs every unit through
//!   the panic-isolating, retrying executor that reader-run jobs go
//!   through too;
//! * a per-connection **reorder buffer** puts completed results back on
//!   the wire (or into the output file) in input order however the pool
//!   interleaves them.
//!
//! [`Server::drain`] is the graceful-shutdown path the CI step and the
//! stdin-EOF trigger in `gaserved --listen` exercise: stop accepting,
//! give connected clients a grace window to finish submitting, force
//! EOF on the laggards' read halves, run the queue dry, and only then
//! join the pool — every job admitted before the drain gets its result
//! line flushed. The merged [`ServeStats`] (per-worker histograms and
//! counters folded together) is returned so the listener can emit the
//! same `BENCH_serve.json` report as batch mode.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::job::ServeError;
use crate::jsonl;
use crate::pool::{run_unit, runs_on_reader, ConnState, Pool, WorkItem};
use crate::queue::{relock, BoundedQueue};
use crate::service::{ServeConfig, ServeStats};

/// Tuning knobs for the socket front-end, wrapping the pool's
/// [`ServeConfig`] (worker count, queue capacity, watchdogs, retry).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The execution-layer configuration (threads = worker pool size,
    /// queue_capacity = the shared admission queue's bound).
    pub serve: ServeConfig,
    /// Per-connection job quota; once a connection has submitted this
    /// many jobs, every further line is answered with
    /// [`ServeError::QuotaExceeded`]. `0` = unlimited.
    pub max_jobs_per_conn: u64,
    /// Sustained per-connection submission rate (token bucket refill,
    /// jobs/second). Lines arriving with the bucket empty are answered
    /// with [`ServeError::RateLimited`]. `0` = unlimited.
    pub rate_per_sec: u32,
    /// Token-bucket burst capacity (the bucket's size). Clamped to at
    /// least 1 when rate limiting is on.
    pub rate_burst: u32,
    /// Load-shed instead of blocking: admit via
    /// [`BoundedQueue::try_push`] and answer
    /// [`ServeError::QueueFull`] lines when the queue is at capacity,
    /// rather than parking the reader (backpressure). Off by default —
    /// blocking keeps golden-fixture streams deterministic.
    pub shed: bool,
    /// How long [`Server::drain`] waits for connected clients to hang
    /// up on their own before forcing EOF on their read halves.
    pub drain_grace_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            serve: ServeConfig::default(),
            max_jobs_per_conn: 0,
            rate_per_sec: 0,
            rate_burst: 0,
            shed: false,
            drain_grace_ms: 2_000,
        }
    }
}

/// Admission/rejection counters the reader threads keep, aggregated
/// across the server's lifetime. These count *lines answered without
/// reaching a backend*, so they sit beside — not inside — the
/// per-backend [`ServeStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Connections accepted.
    pub connections: u64,
    /// Non-empty lines read across all connections.
    pub lines: u64,
    /// Lines rejected with a `parse` error.
    pub rejected_parse: u64,
    /// Lines rejected with `quota_exceeded`.
    pub rejected_quota: u64,
    /// Lines rejected with `rate_limited`.
    pub rejected_rate: u64,
    /// Lines shed with `queue_full` (only in [`NetConfig::shed`] mode).
    pub shed_queue_full: u64,
    /// Lines refused with `queue_closed` (raced the drain).
    pub rejected_closed: u64,
}

/// What [`Server::drain`] and [`serve_jsonl`] hand back: the merged
/// execution stats (the `BENCH_serve.json` source) plus the
/// admission-layer counters.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// Merged per-backend counters/histograms, pack accounting, cache
    /// deltas, pool size, and server wall time.
    pub stats: ServeStats,
    /// Reader-side admission counters.
    pub admission: AdmissionStats,
}

/// Token bucket for the per-connection rate limit. `per_sec == 0`
/// disables it.
struct TokenBucket {
    per_sec: f64,
    capacity: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(per_sec: u32, burst: u32) -> Self {
        let capacity = burst.max(1) as f64;
        TokenBucket {
            per_sec: per_sec as f64,
            capacity,
            tokens: capacity,
            last: Instant::now(),
        }
    }

    fn admit(&mut self) -> bool {
        if self.per_sec <= 0.0 {
            return true;
        }
        let now = Instant::now();
        self.tokens = (self.tokens + now.duration_since(self.last).as_secs_f64() * self.per_sec)
            .min(self.capacity);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// What the per-line reader needs: the admission settings, the queue it
/// admits into, and the counters it keeps.
struct Intake {
    cfg: NetConfig,
    queue: Arc<BoundedQueue<WorkItem>>,
    admission: Mutex<AdmissionStats>,
    /// What the readers ran themselves, folded in as each one exits;
    /// `None` until one has run a job (a batch reader never does).
    ran: Mutex<Option<ServeStats>>,
}

impl Intake {
    fn new(cfg: NetConfig, queue: &Arc<BoundedQueue<WorkItem>>) -> Intake {
        Intake {
            cfg,
            queue: Arc::clone(queue),
            admission: Mutex::new(AdmissionStats::default()),
            ran: Mutex::new(None),
        }
    }

    /// The summary of a drained pool's `stats`, with the jobs the
    /// readers ran and the admission counters.
    fn summary(&self, mut stats: ServeStats) -> DrainSummary {
        if let Some(ran) = &*relock(self.ran.lock()) {
            stats.merge(ran);
        }
        DrainSummary {
            stats,
            admission: *relock(self.admission.lock()),
        }
    }
}

/// State shared by the accept loop and the connection readers.
struct Shared {
    intake: Intake,
    shutdown: AtomicBool,
    active_conns: AtomicU64,
    next_conn_id: AtomicU64,
    /// Read-half clones of *live* connections (pruned when a reader
    /// exits — a lingering clone would hold the socket open and starve
    /// clients waiting for EOF), so drain can force EOF on clients that
    /// outstay the grace window.
    conn_streams: Mutex<Vec<(u64, TcpStream)>>,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// The listening server. Construct with [`Server::bind`], stop with
/// [`Server::drain`] — dropping without draining aborts connections
/// without their tails.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    pool: Pool,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the accept loop plus the worker pool.
    pub fn bind(addr: &str, cfg: NetConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut pool = Pool::new(&cfg.serve, cfg.serve.queue_capacity);
        pool.start(cfg.serve.threads);
        let shared = Arc::new(Shared {
            intake: Intake::new(cfg, pool.queue()),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(0),
            conn_streams: Mutex::new(Vec::new()),
            conn_handles: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            shared,
            addr: local,
            accept: Some(accept),
            pool,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, give connected clients
    /// [`NetConfig::drain_grace_ms`] to hang up, force EOF on the rest,
    /// run the queue dry, join the pool, and merge the stats. Every job
    /// admitted before the drain gets its result line written before
    /// this returns.
    pub fn drain(mut self) -> DrainSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept loop is parked in `accept()`; poke it awake with a
        // throwaway connection so it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Grace window: let clients that are still submitting finish
        // and close on their own terms…
        let deadline =
            Instant::now() + Duration::from_millis(self.shared.intake.cfg.drain_grace_ms);
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        // …then force EOF on whoever is left. Their already-read lines
        // are in the queue and still get answered; only un-sent input
        // is cut off.
        for (_, s) in relock(self.shared.conn_streams.lock()).iter() {
            let _ = s.shutdown(Shutdown::Read);
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *relock(self.shared.conn_handles.lock()));
        for h in handles {
            let _ = h.join();
        }
        // No reader is alive, so nothing else will enqueue: let the
        // pool drain the tail and fold its workers' stats.
        self.shared.intake.summary(self.pool.drain())
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // the drain poke (or a raced real client) lands here
        }
        let Ok(stream) = stream else { continue };
        relock(shared.intake.admission.lock()).connections += 1;
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
        if let Ok(read_half) = stream.try_clone() {
            relock(shared.conn_streams.lock()).push((conn_id, read_half));
        }
        let shared2 = Arc::clone(shared);
        let handle = thread::spawn(move || {
            connection_loop(&shared2.intake, stream);
            // Drop the registered read-half clone: an fd left behind
            // would keep the socket open after the in-flight results
            // flush, and the client would never see EOF.
            relock(shared2.conn_streams.lock()).retain(|(id, _)| *id != conn_id);
            shared2.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
        relock(shared.conn_handles.lock()).push(handle);
    }
}

/// Serve one socket connection: read it to EOF, with replies on its
/// write half.
fn connection_loop(intake: &Intake, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = ConnState::new(write_half);
    // The client waits on this line's reply when no more of its input
    // is buffered.
    let waiting = |r: &BufReader<TcpStream>| r.buffer().is_empty();
    read_lines(intake, BufReader::new(stream), &conn, waiting);
    // The reader is done; in-flight results still flush through the
    // `ConnState` clones held by queued items. The socket closes when
    // the last of those drops.
}

/// Serve a whole JSONL batch (`gaserved --input`) as one connection
/// whose replies go to `out`, through the same reader and worker pool
/// as a socket. The queue is sized to hold every line, and the workers
/// start only once the whole input is queued, so packs form in
/// first-appearance order at any thread count. Returns the merged
/// stats, or the first error writing or flushing `out`.
pub fn serve_jsonl(
    input: &[u8],
    out: impl Write + Send + 'static,
    cfg: &ServeConfig,
) -> io::Result<DrainSummary> {
    let lines = input.split(|&b| b == b'\n').count();
    let pool = Pool::new(cfg, lines);
    // No quota, rate limit or shedding: only parse failures reject.
    let intake = Intake::new(NetConfig::default(), pool.queue());
    let conn = ConnState::new(out);
    // Every line is queued before the workers start, so packs form in
    // first-appearance order: the reader never runs a job itself.
    read_lines(&intake, input, &conn, |_| false);
    let stats = pool.run_queued();
    conn.finish()?;
    Ok(intake.summary(stats))
}

/// The longest request line read, in bytes, its line ending excluded.
/// A job line is a few hundred bytes. A longer line is answered with a
/// typed `parse` error and skipped through its newline, so it neither
/// grows the reader's buffer nor silences the lines after it.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Read the next line of `reader`, at most [`MAX_LINE_BYTES`] of it
/// kept: its text without the line ending, or why it has none (not
/// UTF-8, too long). `None` at EOF or on a read error.
pub(crate) fn next_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> Option<Result<String, String>> {
    buf.clear();
    // Room for the longest line and its `\r\n`.
    let cap = MAX_LINE_BYTES as u64 + 2;
    match Read::take(&mut *reader, cap).read_until(b'\n', buf) {
        Ok(0) | Err(_) => return None,
        Ok(_) => {}
    }
    let too_long = || Err(format!("line longer than {MAX_LINE_BYTES} bytes"));
    if !buf.ends_with(b"\n") && buf.len() as u64 == cap {
        // Skip the rest of the line; its tail may end at EOF.
        return reader.skip_until(b'\n').ok().map(|_| too_long());
    }
    let Ok(text) = std::str::from_utf8(buf) else {
        return Some(Err("line is not valid UTF-8".into()));
    };
    let text = jsonl::strip_line_ending(text);
    Some(if text.len() > MAX_LINE_BYTES {
        too_long()
    } else {
        Ok(text.to_owned())
    })
}

/// Read `reader` to EOF, answering every non-empty line exactly once:
/// a [`WorkItem`] on success, an immediate typed error line on parse
/// failure or admission rejection. A line that is not UTF-8, or is
/// longer than [`MAX_LINE_BYTES`], is a parse failure. An admitted job
/// that [`runs_on_reader`] runs here when `waiting(&reader)` says the
/// client waits on its reply and a slot is claimed; every other one is
/// queued. What ran here is folded into the intake's stats at EOF.
fn read_lines<R: BufRead>(
    intake: &Intake,
    mut reader: R,
    conn: &Arc<ConnState>,
    waiting: fn(&R) -> bool,
) {
    let cfg = &intake.cfg;
    let mut ran: Option<ServeStats> = None;
    let mut bucket = TokenBucket::new(cfg.rate_per_sec, cfg.rate_burst);
    let mut buf = Vec::new();
    let mut line_no = 0usize; // wire `job` id: counts every input line
    let mut seq = 0u64; // response slot: counts answered lines only
    let mut submitted = 0u64;
    while let Some(read) = next_line(&mut reader, &mut buf) {
        let line = line_no;
        line_no += 1;
        if matches!(&read, Ok(text) if text.trim().is_empty()) {
            continue;
        }
        relock(intake.admission.lock()).lines += 1;
        let this_seq = seq;
        seq += 1;
        let reject = |err: ServeError, field: fn(&mut AdmissionStats) -> &mut u64| {
            *field(&mut relock(intake.admission.lock())) += 1;
            conn.emit(this_seq, jsonl::parse_error_line(line, &err));
        };
        let parsed = read
            .map_err(|msg| ServeError::Parse { line, msg })
            .and_then(|text| jsonl::parse_job(&text, line));
        let job = match parsed {
            Ok(job) => job,
            Err(e) => {
                reject(e, |a| &mut a.rejected_parse);
                continue;
            }
        };
        let quota = cfg.max_jobs_per_conn;
        if quota > 0 && submitted >= quota {
            reject(ServeError::QuotaExceeded { limit: quota }, |a| {
                &mut a.rejected_quota
            });
            continue;
        }
        if !bucket.admit() {
            reject(
                ServeError::RateLimited {
                    per_sec: cfg.rate_per_sec,
                },
                |a| &mut a.rejected_rate,
            );
            continue;
        }
        let item = WorkItem {
            job,
            line,
            seq: this_seq,
            to: Arc::clone(conn) as _,
        };
        submitted += 1;
        if runs_on_reader(&item.job) && waiting(&reader) {
            if let Some(_slot) = intake.queue.try_claim() {
                let stats = ran.get_or_insert_with(ServeStats::default);
                run_unit(std::slice::from_ref(&item), &cfg.serve, stats);
                continue;
            }
        }
        let admitted = if cfg.shed {
            intake.queue.try_push(item).map_err(|(_, e)| e)
        } else {
            intake.queue.push(item)
        };
        match admitted {
            Ok(()) => {}
            Err(e @ ServeError::QueueFull { .. }) => reject(e, |a| &mut a.shed_queue_full),
            // Otherwise QueueClosed: the line raced the drain.
            Err(e) => reject(e, |a| &mut a.rejected_closed),
        }
    }
    if let Some(ran) = ran {
        relock(intake.ran.lock())
            .get_or_insert_with(ServeStats::default)
            .merge(&ran);
    }
}
