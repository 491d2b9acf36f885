//! The load generator: one process, at most two threads, two
//! connections.
//!
//! * Open loop ([`open_loop`]): the calling thread sends job `k` on
//!   connection `k % 2` when it is due, `k / rate` seconds after the
//!   start, whatever the replies do; one reader thread polls both
//!   connections. Latency runs from when a job was due, so a stall
//!   charges every job it delays, and the sender's own lateness is
//!   recorded beside it.
//! * Closed loop ([`closed_loop`]): two threads, one connection each,
//!   each sending its next job only after the previous reply.

use std::net::SocketAddr;
use std::os::fd::AsRawFd;
use std::thread;
use std::time::{Duration, Instant};

use crate::server::Conn;

/// One job's timeline and reply, on the shared clock of the run.
#[derive(Debug, Clone, Default)]
pub struct Exchange {
    /// Global job index (position in the workload's stream).
    pub index: u64,
    /// Which connection carried it, and its line number there.
    pub conn: usize,
    pub line: usize,
    pub request: String,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub reply: String,
}

impl Exchange {
    /// Client-observed latency: from when the job was due (open loop;
    /// in a closed loop a job is due when it is sent) to its reply.
    pub fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Ask for 1 ns timer slack on this thread so `sleep` wakes on time.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// Block until one of `fds` is readable (or `timeout_ms` passes);
/// returns which are readable.
#[cfg(unix)]
fn poll_readable(fds: &[i32], timeout_ms: i32) -> Vec<bool> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `set` is a live array of `set.len()` pollfd structs with
    // the C layout; poll writes only their `revents` fields.
    let rc = unsafe { poll(set.as_mut_ptr(), set.len() as u64, timeout_ms) };
    if rc <= 0 {
        return vec![false; fds.len()];
    }
    // Any event — data, hang-up or error — means a read will not block.
    set.iter().map(|p| p.revents != 0).collect()
}

/// Run an open loop of `jobs` (pre-generated `(index, line)` pairs) at
/// `rate` jobs/s over two fresh connections. Returns every exchange in
/// job order, or an error if a connection failed or a reply never came
/// within `reply_timeout` after the last job was due.
pub fn open_loop(
    addr: SocketAddr,
    jobs: Vec<(u64, String)>,
    rate: f64,
    reply_timeout: Duration,
) -> Result<Vec<Exchange>, String> {
    let mut conns = [Conn::open(addr)?, Conn::open(addr)?];
    let mut xs: Vec<Exchange> = Vec::with_capacity(jobs.len());
    let mut lines_on = [0usize; 2];
    for (k, (index, request)) in jobs.into_iter().enumerate() {
        let conn = k % 2;
        xs.push(Exchange {
            index,
            conn,
            line: lines_on[conn],
            request,
            due_ns: (k as f64 * 1e9 / rate) as u64,
            ..Exchange::default()
        });
        lines_on[conn] += 1;
    }
    let mut reader_conns: Vec<Conn> = Vec::new();
    for c in &conns {
        let stream = c
            .stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        reader_conns.push(Conn::from_stream(stream));
    }
    let expected = lines_on;
    let total_due = xs.last().map_or(0, |x| x.due_ns);
    let deadline_ns = total_due + reply_timeout.as_nanos() as u64;
    let t0 = Instant::now();

    let reader = thread::spawn(move || -> Result<[Vec<(u64, String)>; 2], String> {
        let mut got: [Vec<(u64, String)>; 2] = [
            Vec::with_capacity(expected[0]),
            Vec::with_capacity(expected[1]),
        ];
        let fds: Vec<i32> = reader_conns.iter().map(|c| c.stream.as_raw_fd()).collect();
        while got[0].len() < expected[0] || got[1].len() < expected[1] {
            if ns_since(t0) > deadline_ns {
                return Err(format!(
                    "replies missing: got {}+{} of {}+{}",
                    got[0].len(),
                    got[1].len(),
                    expected[0],
                    expected[1]
                ));
            }
            let ready = poll_readable(&fds, 100);
            for (c, conn) in reader_conns.iter_mut().enumerate() {
                if ready[c] && got[c].len() < expected[c] {
                    let slot = &mut got[c];
                    conn.read_some(|line| slot.push((ns_since(t0), line.to_string())))?;
                }
            }
        }
        Ok(got)
    });

    tighten_timer_slack();
    let mut pending = [String::new(), String::new()];
    let mut k = 0;
    let mut send_error = None;
    while k < xs.len() {
        let now = ns_since(t0);
        if xs[k].due_ns > now {
            thread::sleep(Duration::from_nanos(xs[k].due_ns - now));
            continue;
        }
        // Send everything already due, one write per connection.
        let now = ns_since(t0);
        while k < xs.len() && xs[k].due_ns <= now {
            let x = &mut xs[k];
            x.sent_ns = now;
            pending[x.conn].push_str(&x.request);
            pending[x.conn].push('\n');
            k += 1;
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            if !pending[c].is_empty() {
                if let Err(e) = conn.send(&pending[c]) {
                    send_error = Some(e);
                }
                pending[c].clear();
            }
        }
        if send_error.is_some() {
            break;
        }
    }
    let got = reader
        .join()
        .map_err(|_| "reader thread panicked".to_string())??;
    if let Some(e) = send_error {
        return Err(e);
    }
    let mut next = [0usize; 2];
    for x in &mut xs {
        let (recv_ns, reply) = &got[x.conn][next[x.conn]];
        next[x.conn] += 1;
        x.recv_ns = *recv_ns;
        x.reply = reply.clone();
    }
    Ok(xs)
}

/// Run a closed loop for `seconds`: two threads, each with its own
/// connection, sending the next job of its share of `job_at(i)` only
/// after the previous reply arrived. Exchanges come back in job order.
pub fn closed_loop(
    addr: SocketAddr,
    seconds: f64,
    job_at: impl Fn(u64) -> String + Sync,
) -> Result<Vec<Exchange>, String> {
    let t0 = Instant::now();
    let end_ns = (seconds * 1e9) as u64;
    let client = |c: usize| -> Result<Vec<Exchange>, String> {
        let mut conn = Conn::open(addr)?;
        let mut xs = Vec::new();
        for line in 0.. {
            if ns_since(t0) >= end_ns {
                break;
            }
            let index = 2 * line as u64 + c as u64;
            let request = job_at(index);
            let sent_ns = ns_since(t0);
            conn.send(&format!("{request}\n"))?;
            let reply = conn.read_lines(1)?.pop().unwrap_or_default();
            xs.push(Exchange {
                index,
                conn: c,
                line,
                request,
                due_ns: sent_ns,
                sent_ns,
                recv_ns: ns_since(t0),
                reply,
            });
        }
        Ok(xs)
    };
    let (a, b) = thread::scope(|s| {
        let other = s.spawn(|| client(1));
        let mine = client(0);
        (mine, other.join())
    });
    let mut xs = a?;
    xs.extend(b.map_err(|_| "client thread panicked".to_string())??);
    xs.sort_by_key(|x| x.index);
    Ok(xs)
}

/// Generator lateness (ms) of an open loop: how long after its due time
/// each job was actually sent.
pub fn lateness_ms(xs: &[Exchange]) -> Vec<f64> {
    xs.iter()
        .map(|x| x.sent_ns.saturating_sub(x.due_ns) as f64 / 1e6)
        .collect()
}
