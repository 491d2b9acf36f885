//! The worker pool: the one scheduler behind `gaserved --input`,
//! `gaserved --listen` and [`crate::serve_batch`].
//!
//! Workers drain one [`BoundedQueue`] of [`WorkItem`]s. Each pops the
//! head job together with its queued pack-mates in one queue operation
//! ([`BoundedQueue::pop_group`]; [`pack_width`] is the one eligibility
//! rule), so a batch queued whole before the workers start packs in
//! first-appearance order at any thread count. A socket reader may run
//! a job itself instead ([`runs_on_reader`], `crate::net`), in one of
//! the same execution slots the workers pop in, so the pool size still
//! bounds how many jobs run at once. Workers and readers run each unit
//! through one executor, [`run_unit`]: the panic-isolating, retrying
//! executor, then each result to its item's [`Deliver`] destination: a
//! connection's reorder buffer ([`ConnState`]) or `serve_batch`'s
//! result list.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use ga_harness::Stopwatch;

use crate::job::{GaJob, JobResult};
use crate::jsonl;
use crate::queue::{relock, BoundedQueue};
use crate::service::{exec_unit_with_recovery, ServeConfig, ServeStats};

/// Where a worker hands a finished job.
pub(crate) trait Deliver: Send + Sync {
    /// Accept the result for response slot `seq`.
    fn deliver(&self, seq: u64, result: JobResult);
}

/// One queued job plus where its result goes.
pub(crate) struct WorkItem {
    pub job: GaJob,
    /// Wire-level job id: the 0-based input line number (blank lines
    /// advance it), or the index into a `serve_batch` slice.
    pub line: usize,
    /// Response slot at the destination (dense — one per answered line).
    pub seq: u64,
    pub to: Arc<dyn Deliver>,
}

/// The write half of one connection — a socket, or the output file of
/// `gaserved --input`: result lines are parked by response slot and
/// written strictly in order.
pub(crate) struct ConnState {
    out: Mutex<Reorder>,
}

struct Reorder {
    next: u64,
    pending: BTreeMap<u64, String>,
    sink: Box<dyn Write + Send>,
    /// The first write error; once set, nothing more is written.
    error: Option<io::Error>,
}

impl ConnState {
    pub fn new(sink: impl Write + Send + 'static) -> Arc<ConnState> {
        Arc::new(ConnState {
            out: Mutex::new(Reorder {
                next: 0,
                pending: BTreeMap::new(),
                sink: Box::new(sink),
                error: None,
            }),
        })
    }

    /// Park `line` at slot `seq`; write every now-contiguous line, each
    /// with its newline in one write (a socket sink is unbuffered, so
    /// that is one syscall and one segment per reply). The first write
    /// error is kept for [`ConnState::finish`] and stops further writes:
    /// a socket client that hung up mid-stream forfeits its remaining
    /// results, but the jobs still count in the stats.
    pub fn emit(&self, seq: u64, mut line: String) {
        line.push('\n');
        let mut guard = relock(self.out.lock());
        let o = &mut *guard;
        o.pending.insert(seq, line);
        while let Some(text) = o.pending.remove(&o.next) {
            o.next += 1;
            if o.error.is_none() {
                o.error = o.sink.write_all(text.as_bytes()).err();
            }
        }
    }

    /// Flush the sink, or return the first write error.
    pub fn finish(&self) -> io::Result<()> {
        let mut o = relock(self.out.lock());
        match o.error.take() {
            Some(e) => Err(e),
            None => o.sink.flush(),
        }
    }
}

impl Deliver for ConnState {
    fn deliver(&self, seq: u64, result: JobResult) {
        self.emit(seq, jsonl::result_line(&result));
    }
}

/// The one pack-eligibility rule: how many lanes a job may share a
/// lockstep pack with. That is its backend's pack width when the
/// backend packs, the job is valid (an invalid job must surface its own
/// typed error), it is not an island job (the ring owns its own lane
/// streams) and it has no deadline (a pack's lanes all run until the
/// pack ends, so a packed deadline would count its pack-mates' time);
/// otherwise 1.
fn pack_width(job: &GaJob) -> usize {
    let width = job.backend.capabilities().pack_width;
    if width > 1 && job.islands.is_none() && job.deadline_ms.is_none() && job.validate().is_ok() {
        width
    } else {
        1
    }
}

/// Whether a socket reader may run `job` itself rather than queue it:
/// a job that runs solo wherever it runs, and not an island job, whose
/// ring of engines runs far longer than one request's reply.
pub(crate) fn runs_on_reader(job: &GaJob) -> bool {
    pack_width(job) == 1 && job.islands.is_none()
}

/// A fixed set of workers draining one shared queue. Build it with
/// [`Pool::new`], feed its [`Pool::queue`], start the workers, and
/// [`Pool::drain`] it for the merged stats.
pub(crate) struct Pool {
    queue: Arc<BoundedQueue<WorkItem>>,
    cfg: ServeConfig,
    workers: Vec<JoinHandle<ServeStats>>,
    sw: Stopwatch,
    cache_before: (u64, u64),
}

impl Pool {
    /// An idle pool over an empty queue of `capacity` slots (min 1),
    /// whose jobs run in at most `cfg.threads` execution slots. The wall
    /// clock and the compiled-netlist cache deltas start now.
    pub fn new(cfg: &ServeConfig, capacity: usize) -> Pool {
        Pool {
            queue: Arc::new(BoundedQueue::new(capacity.max(1), cfg.threads.max(1))),
            cfg: cfg.clone(),
            workers: Vec::new(),
            sw: Stopwatch::start(),
            cache_before: ga_engine::global_cache().counters(),
        }
    }

    pub fn queue(&self) -> &Arc<BoundedQueue<WorkItem>> {
        &self.queue
    }

    /// Start `threads` workers (at least one).
    pub fn start(&mut self, threads: usize) {
        for _ in 0..threads.max(1) {
            let (queue, cfg) = (Arc::clone(&self.queue), self.cfg.clone());
            self.workers
                .push(thread::spawn(move || worker_loop(&queue, &cfg)));
        }
    }

    /// Batch mode: with the whole input already queued, start up to
    /// `threads` workers (no more than there are queued jobs) and drain.
    pub fn run_queued(mut self) -> ServeStats {
        self.start(self.cfg.threads.clamp(1, self.queue.len().max(1)));
        self.drain()
    }

    /// Close the queue, let the workers run it dry, join them, and fold
    /// their stats together, stamped with the pool size, the wall time
    /// since [`Pool::new`] and the cache deltas. Re-raises a worker's
    /// panic.
    pub fn drain(self) -> ServeStats {
        self.queue.close();
        let mut stats = ServeStats::default();
        let threads = self.workers.len();
        for w in self.workers {
            // A panic that escaped the unit executor's `catch_unwind` is a
            // pool bug that lost results: fail loudly, not short.
            let local = w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            stats.merge(&local);
        }
        stats.threads_used = threads as u64;
        stats.wall_seconds = self.sw.seconds();
        let (hits, misses) = ga_engine::global_cache().counters();
        stats.cache_hits = hits.saturating_sub(self.cache_before.0);
        stats.cache_misses = misses.saturating_sub(self.cache_before.1);
        stats
    }
}

/// Pop work until the queue closes and drains. A packable head takes
/// its queued pack-mates (same backend and pack key, each packable
/// itself) up to the pack width and runs as one pack, a lone one as a
/// one-lane pack; every other job runs solo.
fn worker_loop(queue: &BoundedQueue<WorkItem>, cfg: &ServeConfig) -> ServeStats {
    let mut stats = ServeStats::default();
    while let Some((items, _slot)) = queue.pop_group(
        |head| pack_width(&head.job) - 1,
        |head, it| {
            it.job.backend == head.job.backend
                && it.job.pack_key() == head.job.pack_key()
                && pack_width(&it.job) > 1
        },
    ) {
        run_unit(&items, cfg, &mut stats);
    }
    stats
}

/// Run one unit — a pack when its head is packable, else one solo job —
/// through the panic-isolating, retrying executor, count it in `stats`,
/// and deliver each result to its item's destination.
pub(crate) fn run_unit(items: &[WorkItem], cfg: &ServeConfig, stats: &mut ServeStats) {
    let jobs: Vec<GaJob> = items.iter().map(|it| it.job).collect();
    let packed = pack_width(&jobs[0]) > 1;
    let t = Instant::now();
    let results = exec_unit_with_recovery(&jobs, packed, cfg, &mut stats.panics_caught);
    if packed {
        stats.packs += 1;
        stats.packed_lanes += jobs.len() as u64;
        stats.pack_micros += t.elapsed().as_micros() as u64;
    }
    for r in results {
        // `r.job` indexes the unit-local `jobs`; rekey it to the
        // item's wire-level id.
        let item = &items[r.job];
        let r = JobResult {
            job: item.line,
            ..r
        };
        stats.absorb_result(&r);
        item.to.deliver(item.seq, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records each `write` call's bytes.
    #[derive(Clone, Default)]
    struct Calls(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            relock(self.0.lock()).push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_result_line_is_one_write_in_slot_order() {
        let calls = Calls::default();
        let conn = ConnState::new(calls.clone());
        for (seq, line) in [(2, "c"), (0, "a"), (1, "b"), (3, "")] {
            conn.emit(seq, line.to_string());
        }
        conn.finish().expect("the sink never fails");
        let calls = relock(calls.0.lock());
        assert_eq!(*calls, [&b"a\n"[..], b"b\n", b"c\n", b"\n"]);
    }
}
