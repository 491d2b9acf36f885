//! Service configuration, the panic-isolating unit executor, the
//! serving statistics, and [`serve_batch`] — a batch of jobs through the
//! worker pool, results in input order.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use ga_engine::Limits;
use ga_harness::{default_threads, BenchReport, LatencyHisto};

use crate::backend;
use crate::job::{BackendKind, GaJob, JobResult, ServeError};
use crate::pool::{Deliver, Pool, WorkItem};
use crate::queue::relock;

/// Attempts per work unit for *transient* failures (worker panics
/// caught at the pool boundary), the first included. Deterministic
/// errors — validation, watchdogs, deadlines — are never retried:
/// rerunning them buys nothing.
const MAX_ATTEMPTS: u32 = 2;

/// Backoff before the first retry; it doubles per subsequent retry.
const BACKOFF_MS: u64 = 5;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (a batch clamps it to its job count). The pool
    /// size that actually ran is recorded in
    /// [`ServeStats::threads_used`] and is what `BENCH_serve.json`
    /// reports.
    pub threads: usize,
    /// Capacity of the listener's shared admission queue
    /// ([`crate::BoundedQueue`]). A batch sizes its queue to hold the
    /// whole input instead.
    pub queue_capacity: usize,
    /// The engine-layer budgets every job runs under: the simulated
    /// cycle watchdog of the RTL backends, and the step watchdog of the
    /// bitsim lane streams, which bounds the netlist steps a pack's (or
    /// island member's) schedule may take. A restore needs no bound of
    /// its own: it steps the stream less than one CA period. A tripped
    /// pack degrades its jobs to the behavioral backend (typed
    /// [`crate::job::Degradation`] metadata) instead of failing them.
    pub limits: Limits,
    /// Chaos/fault-injection hook, called with `(index, job)` right
    /// before each job executes. A panic here exercises exactly the
    /// worker-crash path a misbehaving backend would: caught at the
    /// pool boundary, retried with backoff, then failed as a
    /// typed internal error for that unit only. A plain `fn` pointer so
    /// the config stays `Clone + Debug`.
    pub pre_exec: Option<fn(usize, &GaJob)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: default_threads(),
            queue_capacity: 64,
            limits: Limits::default(),
            pre_exec: None,
        }
    }
}

/// Per-backend throughput/latency counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackendCounters {
    /// Jobs that ran (or were rejected) on this backend.
    pub jobs: u64,
    /// Of those, how many ended in a typed error.
    pub errors: u64,
    /// Sum of per-job latencies.
    pub total_micros: u64,
    /// Largest single-job latency.
    pub max_micros: u64,
    /// Log-scale latency distribution (the p50/p95/p99 source).
    pub histo: LatencyHisto,
}

impl BackendCounters {
    pub(crate) fn absorb(&mut self, micros: u64, ok: bool) {
        self.jobs += 1;
        if !ok {
            self.errors += 1;
        }
        self.total_micros += micros;
        self.max_micros = self.max_micros.max(micros);
        self.histo.record(micros);
    }

    /// Fold another backend's counters in (used when per-worker stats
    /// merge into the server-wide aggregate).
    fn merge(&mut self, other: &BackendCounters) {
        self.jobs += other.jobs;
        self.errors += other.errors;
        self.total_micros += other.total_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
        self.histo.merge(&other.histo);
    }

    /// Mean per-job latency in microseconds (0 when idle).
    pub fn avg_micros(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.jobs as f64
        }
    }
}

/// Aggregate statistics for one served batch. Counters are kept per
/// [`BackendKind`], one slot per kind in [`BackendKind::ALL`] order, so
/// every backend name has its throughput row here and in
/// `BENCH_serve.json` — no hardcoded per-backend fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// `per_backend[k as usize]` counts kind `k`; the variants are
    /// declared in [`BackendKind::ALL`] order.
    per_backend: Box<[BackendCounters; BackendKind::ALL.len()]>,
    /// Number of lockstep packs executed.
    pub packs: u64,
    /// Total *active* lanes across all packs — equals the number of
    /// real packed jobs, NOT `packs × 64`: idle tail lanes of a short
    /// pack do not count (the padding-skew fix).
    pub packed_lanes: u64,
    /// Jobs answered by a fallback backend after their requested one
    /// failed transiently (graceful degradation).
    pub degraded: u64,
    /// Panics the unit executor caught, retried attempts included. Each
    /// one also leaves a structured stderr line; a healthy server
    /// reports 0.
    pub panics_caught: u64,
    /// Worker threads the batch actually ran on — the *clamped* pool
    /// size, not the configured one. This is the `threads` value
    /// `BENCH_serve.json` reports.
    pub threads_used: u64,
    /// Wall time spent executing pack units, summed across workers —
    /// the denominator of the `bitsim_pack_jobs_per_sec` metric.
    pub pack_micros: u64,
    /// Compiled-netlist cache hits charged to this batch (delta of the
    /// process-wide [`ga_engine::NetlistCache`] counters across it).
    pub cache_hits: u64,
    /// Compiled-netlist cache misses charged to this batch.
    pub cache_misses: u64,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            per_backend: Default::default(),
            packs: 0,
            packed_lanes: 0,
            degraded: 0,
            panics_caught: 0,
            threads_used: 1,
            pack_micros: 0,
            cache_hits: 0,
            cache_misses: 0,
            wall_seconds: 0.0,
        }
    }
}

impl ServeStats {
    /// Counters for one backend (zeroed when it never ran).
    pub fn counters(&self, b: BackendKind) -> BackendCounters {
        self.per_backend[b as usize].clone()
    }

    pub(crate) fn counters_mut(&mut self, b: BackendKind) -> &mut BackendCounters {
        &mut self.per_backend[b as usize]
    }

    /// Fold one result's latency/error/degradation accounting in.
    pub(crate) fn absorb_result(&mut self, r: &JobResult) {
        self.counters_mut(r.backend)
            .absorb(r.micros, r.outcome.is_ok());
        if r.degraded.is_some() {
            self.degraded += 1;
        }
    }

    /// Fold another stats block in: per-backend counters (histograms
    /// included), pack accounting, and cache deltas all add. The
    /// identity fields — `threads_used`, `wall_seconds` — are the
    /// owner's and are deliberately left alone; the worker pool merges
    /// each worker's stats through this, then stamps its own.
    pub fn merge(&mut self, other: &ServeStats) {
        for (c, o) in self.per_backend.iter_mut().zip(other.per_backend.iter()) {
            c.merge(o);
        }
        self.packs += other.packs;
        self.packed_lanes += other.packed_lanes;
        self.degraded += other.degraded;
        self.panics_caught += other.panics_caught;
        self.pack_micros += other.pack_micros;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Total jobs across backends.
    pub fn jobs(&self) -> u64 {
        self.per_backend.iter().map(|c| c.jobs).sum()
    }

    /// Total errored jobs across backends.
    pub fn errors(&self) -> u64 {
        self.per_backend.iter().map(|c| c.errors).sum()
    }

    /// Batch throughput in jobs per second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.jobs() as f64 / self.wall_seconds
        }
    }

    /// Throughput of the packed bitsim path alone, in jobs per second:
    /// active pack lanes over the wall time spent inside pack units.
    /// Zero when no pack ran.
    pub fn pack_jobs_per_sec(&self) -> f64 {
        if self.pack_micros == 0 {
            0.0
        } else {
            self.packed_lanes as f64 / (self.pack_micros as f64 / 1e6)
        }
    }

    /// Render as a `BenchReport` (emitted as `BENCH_serve.json`) with a
    /// `<name>_jobs` / `<name>_avg_us` / `<name>_p50_us` /
    /// `<name>_p95_us` / `<name>_p99_us` / `<name>_max_us` block for
    /// **every** backend name — the per-backend floor
    /// `benchcheck --require-backend-throughput` asserts, in
    /// [`BackendKind::ALL`] order. The percentiles come from the merged
    /// [`LatencyHisto`]; `_max_us` is the exact recorded maximum (the
    /// counter that used to be accumulated but silently dropped from the
    /// report). The report's `threads` field is
    /// [`ServeStats::threads_used`] — the pool size that actually ran,
    /// never the configured one. The `lanes` field reports the widest
    /// pack any kind takes when any pack ran, else 1.
    pub fn to_report(&self) -> BenchReport {
        let lanes = if self.packs > 0 {
            BackendKind::ALL
                .iter()
                .fold(1, |w, k| w.max(k.capabilities().pack_width)) as u64
        } else {
            1
        };
        let mut report = BenchReport::new("serve", self.wall_seconds, lanes, self.threads_used)
            .metric("jobs", self.jobs() as f64)
            .metric("errors", self.errors() as f64)
            .metric("jobs_per_sec", self.jobs_per_sec());
        for (kind, c) in BackendKind::ALL.into_iter().zip(self.per_backend.iter()) {
            let name = kind.name();
            report = report
                .metric(format!("{name}_jobs"), c.jobs as f64)
                .metric(format!("{name}_avg_us"), c.avg_micros());
            for (p, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                report = report.metric(format!("{name}_{p}_us"), c.histo.percentile(q) as f64);
            }
            report = report.metric(format!("{name}_max_us"), c.max_micros as f64);
        }
        report
            .metric("bitsim_packs", self.packs as f64)
            .metric("bitsim_active_lanes", self.packed_lanes as f64)
            .metric("bitsim_pack_jobs_per_sec", self.pack_jobs_per_sec())
            .metric("netlist_cache_hits", self.cache_hits as f64)
            .metric("netlist_cache_misses", self.cache_misses as f64)
            .metric("degraded_jobs", self.degraded as f64)
            .metric("panics_caught", self.panics_caught as f64)
    }
}

/// A served batch: results in input order plus the aggregate counters.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// `results[i]` belongs to `jobs[i]`, always.
    pub results: Vec<JobResult>,
    /// Aggregate throughput/latency statistics.
    pub stats: ServeStats,
}

/// Run one unit: the jobs a worker gathered, as one lockstep pack or
/// (a single job) solo. Result `job` ids index `jobs`.
fn exec_unit(jobs: &[GaJob], packed: bool, cfg: &ServeConfig) -> Vec<JobResult> {
    if let Some(hook) = cfg.pre_exec {
        for (i, job) in jobs.iter().enumerate() {
            hook(i, job);
        }
    }
    if packed {
        let lanes: Vec<usize> = (0..jobs.len()).collect();
        backend::run_pack(jobs, &lanes, cfg)
    } else {
        vec![backend::run_single(&jobs[0], 0, cfg)]
    }
}

/// Recover a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// True when any member result failed with an error worth retrying
/// ([`ServeError::is_transient`]) — deterministic failures (invalid
/// job, unsupported width, deadline, watchdog) reproduce identically
/// and are never retried.
fn has_transient_failure(results: &[JobResult]) -> bool {
    results
        .iter()
        .any(|r| matches!(&r.outcome, Err(e) if e.is_transient()))
}

/// Run one unit at the pool boundary: a panic anywhere inside the unit
/// is caught, and both panics and typed transient failures are retried
/// up to [`MAX_ATTEMPTS`] times (exponential backoff from
/// [`BACKOFF_MS`], since a transient fault that just fired tends to
/// need a beat to clear). Each caught panic counts in `panics` and
/// writes one structured stderr line ([`panic_line`]). If every attempt
/// crashes, the panic is converted into one typed
/// [`ServeError::Internal`] result per member job. The worker thread
/// itself never unwinds, so the rest of the batch keeps flowing.
pub(crate) fn exec_unit_with_recovery(
    jobs: &[GaJob],
    packed: bool,
    cfg: &ServeConfig,
    panics: &mut u64,
) -> Vec<JobResult> {
    let mut attempt = 1u32;
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| exec_unit(jobs, packed, cfg))).map_err(|p| {
            let msg = panic_message(p);
            *panics += 1;
            eprintln!("{}", panic_line(jobs, attempt, &msg));
            msg
        });
        let transient = run.as_ref().map_or(true, |r| has_transient_failure(r));
        if transient && attempt < MAX_ATTEMPTS {
            thread::sleep(Duration::from_millis(BACKOFF_MS << (attempt - 1)));
            attempt += 1;
            continue;
        }
        return run.unwrap_or_else(|msg| {
            jobs.iter()
                .enumerate()
                .map(|(i, job)| JobResult {
                    job: i,
                    backend: job.backend,
                    outcome: Err(ServeError::Internal { msg: msg.clone() }),
                    micros: 0,
                    degraded: None,
                    heal: None,
                })
                .collect()
        });
    }
}

/// The stderr line a caught panic leaves: one JSON object naming the
/// unit's backend, its job count, the attempt and the panic message.
fn panic_line(jobs: &[GaJob], attempt: u32, msg: &str) -> String {
    let backend = jobs.first().map_or("none", |j| j.backend.name());
    format!(
        r#"{{"event":"panic_caught","backend":"{backend}","jobs":{},"attempt":{attempt},"msg":"{}"}}"#,
        jobs.len(),
        ga_harness::json_escape(msg)
    )
}

/// `serve_batch`'s destination: results in completion order, sorted
/// back into input order once the pool has drained.
#[derive(Default)]
struct Collect(Mutex<Vec<JobResult>>);

impl Deliver for Collect {
    fn deliver(&self, _seq: u64, result: JobResult) {
        relock(self.0.lock()).push(result);
    }
}

/// Execute a batch of jobs and return results **in input order**.
///
/// A thin wrapper over the worker pool that serves `gaserved`: the whole
/// batch is queued before the workers start, so bitsim-family jobs pack
/// in first-appearance order, at most the backend's pack width per pack,
/// at any thread count. `results[i]` belongs to `jobs[i]` regardless of
/// thread count, completion order, or how jobs were packed. The pool
/// size that actually ran, the wall time spent inside pack units, and
/// the batch's compiled-netlist cache hit/miss deltas are all recorded
/// in the returned [`ServeStats`].
pub fn serve_batch(jobs: &[GaJob], cfg: &ServeConfig) -> ServeOutcome {
    let pool = Pool::new(cfg, jobs.len());
    let done = Arc::new(Collect::default());
    for (i, &job) in jobs.iter().enumerate() {
        let item = WorkItem {
            job,
            line: i,
            seq: i as u64,
            to: done.clone(),
        };
        // Cannot fail: the queue is open and has a slot per job.
        let _ = pool.queue().push(item);
    }
    let stats = pool.run_queued();
    let mut results = std::mem::take(&mut *relock(done.0.lock()));
    results.sort_unstable_by_key(|r| r.job);
    ServeOutcome { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ServeError;
    use ga_core::GaParams;
    use ga_fitness::TestFunction;

    fn quick_job(backend: BackendKind, seed: u16) -> GaJob {
        GaJob::new(TestFunction::F3, backend, GaParams::new(8, 3, 10, 1, seed))
    }

    #[test]
    fn results_are_input_ordered_for_any_thread_count() {
        let jobs: Vec<GaJob> = (0..30)
            .map(|i| {
                let b = match i % 3 {
                    0 => BackendKind::Behavioral,
                    1 => BackendKind::BitSim64,
                    _ => BackendKind::Behavioral,
                };
                quick_job(b, 0x1000 + i as u16)
            })
            .collect();
        let reference = serve_batch(
            &jobs,
            &ServeConfig {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in [2, 8] {
            let out = serve_batch(
                &jobs,
                &ServeConfig {
                    threads,
                    ..Default::default()
                },
            );
            for (i, (a, b)) in reference.results.iter().zip(&out.results).enumerate() {
                assert_eq!(a.job, i);
                assert_eq!(b.job, i);
                assert_eq!(a.outcome, b.outcome, "job {i} differs at {threads} threads");
            }
        }
    }

    #[test]
    fn small_queue_capacity_still_completes() {
        // The queue knob must stay accepted (it sizes the listener's
        // queue; a batch queues all of its jobs), and a batch with far
        // more jobs than threads must drain completely.
        let jobs: Vec<GaJob> = (0..25)
            .map(|i| quick_job(BackendKind::Behavioral, 0x2000 + i as u16))
            .collect();
        let out = serve_batch(
            &jobs,
            &ServeConfig {
                threads: 3,
                queue_capacity: 2,
                ..Default::default()
            },
        );
        assert_eq!(out.results.len(), 25);
        assert_eq!(out.stats.jobs(), 25);
        assert_eq!(out.stats.errors(), 0);
        assert_eq!(out.stats.threads_used, 3, "pool size is recorded");
    }

    #[test]
    fn reported_threads_are_the_clamped_pool_size() {
        // 2 jobs, 16 configured threads: only 2 workers can ever hold
        // a job, and that is what the stats and the report must say.
        let jobs = vec![
            quick_job(BackendKind::Behavioral, 0x2100),
            quick_job(BackendKind::Behavioral, 0x2101),
        ];
        let out = serve_batch(
            &jobs,
            &ServeConfig {
                threads: 16,
                ..Default::default()
            },
        );
        assert_eq!(out.stats.threads_used, 2);
        let json = out.stats.to_report().to_json();
        assert!(json.contains("\"threads\": 2"), "honest threads in {json}");
    }

    #[test]
    fn packing_groups_by_key_and_honors_tails() {
        // 70 compatible bitsim jobs + 5 of another shape: 2 packs
        // (64 + 6 active lanes) + 1 pack of 5 → lanes counted as jobs,
        // not as packs × 64.
        let mut jobs: Vec<GaJob> = (0..70u16)
            .map(|i| quick_job(BackendKind::BitSim64, 0x3000 + i))
            .collect();
        for i in 0..5u16 {
            jobs.push(GaJob::new(
                TestFunction::F2,
                BackendKind::BitSim64,
                GaParams::new(16, 2, 10, 1, 0x4000 + i),
            ));
        }
        let out = serve_batch(&jobs, &ServeConfig::default());
        assert_eq!(out.stats.packs, 3);
        assert_eq!(out.stats.packed_lanes, 75);
        assert_eq!(out.stats.counters(BackendKind::BitSim64).jobs, 75);
        assert_eq!(out.stats.errors(), 0);
        // The pack path ran, so its metrics must be live: nonzero pack
        // wall time, a finite throughput, and one compiled-netlist
        // cache lookup per pack (hit or miss — the cache is
        // process-global, so other tests may have warmed it).
        assert!(out.stats.pack_micros > 0);
        assert!(out.stats.pack_jobs_per_sec() > 0.0);
        assert!(out.stats.cache_hits + out.stats.cache_misses >= out.stats.packs);
    }

    #[test]
    fn wide_backends_pack_beyond_64_lanes() {
        // 200 compatible bitsim256 jobs fit one 256-lane pack; the same
        // load on bitsim128 takes two packs (128 + 72 active lanes).
        for (backend, want_packs) in [(BackendKind::BitSim256, 1), (BackendKind::BitSim128, 2)] {
            let jobs: Vec<GaJob> = (0..200u16)
                .map(|i| quick_job(backend, 0x9000 + i))
                .collect();
            let out = serve_batch(&jobs, &ServeConfig::default());
            assert_eq!(out.stats.packs, want_packs, "{}", backend.name());
            assert_eq!(out.stats.packed_lanes, 200);
            assert_eq!(out.stats.counters(backend).jobs, 200);
            assert_eq!(out.stats.errors(), 0);
        }
    }

    #[test]
    fn every_backend_serves_in_one_batch() {
        // One job per backend name, each at a width its backend
        // implements — the batch must come back fully green with every
        // backend's counter row populated and present in the report.
        let jobs: Vec<GaJob> = (0..)
            .zip(BackendKind::ALL)
            .map(|(i, kind)| GaJob {
                width: kind.capabilities().widths[0],
                ..quick_job(kind, 0x8000 + i)
            })
            .collect();
        assert_eq!(jobs.len(), BackendKind::ALL.len());
        let out = serve_batch(&jobs, &ServeConfig::default());
        assert_eq!(out.stats.errors(), 0);
        let json = out.stats.to_report().to_json();
        for kind in BackendKind::ALL {
            assert_eq!(out.stats.counters(kind).jobs, 1, "{}", kind.name());
            for key in [
                format!("\"{}_jobs\"", kind.name()),
                format!("\"{}_avg_us\"", kind.name()),
            ] {
                assert!(json.contains(&key), "missing {key} in {json}");
            }
        }
    }

    #[test]
    fn island_jobs_run_solo_even_on_packing_backends() {
        // A valid bitsim island job must never join a lockstep pack —
        // the ring owns its own extracted lane streams — while the
        // plain bitsim jobs around it still pack as usual.
        let island = GaJob::new(
            TestFunction::Bf6,
            BackendKind::BitSim64,
            GaParams::new(16, 8, 10, 1, 0x2961),
        )
        .with_islands(ga_core::islands::IslandConfig {
            islands: 2,
            epoch: 4,
            epochs: 2,
        });
        let mut jobs = vec![island];
        for i in 0..4u16 {
            jobs.push(quick_job(BackendKind::BitSim64, 0xD000 + i));
        }
        let out = serve_batch(&jobs, &ServeConfig::default());
        assert_eq!(out.stats.errors(), 0);
        assert_eq!(out.stats.packs, 1, "plain jobs still pack");
        assert_eq!(out.stats.packed_lanes, 4, "the island job stayed solo");
        assert!(out.results[0].outcome.is_ok(), "island job ran");
    }

    #[test]
    fn invalid_jobs_error_without_poisoning_the_batch() {
        let mut jobs = vec![
            quick_job(BackendKind::Behavioral, 1),
            quick_job(BackendKind::BitSim64, 2),
        ];
        jobs[1].params.pop_size = 0; // invalid → solo unit, typed error
        let mut wide = quick_job(BackendKind::Behavioral, 3);
        wide.width = 32;
        jobs.push(wide);
        let out = serve_batch(&jobs, &ServeConfig::default());
        assert!(out.results[0].outcome.is_ok());
        assert!(matches!(
            out.results[1].outcome,
            Err(ServeError::InvalidJob { .. })
        ));
        assert_eq!(
            out.results[2].outcome,
            Err(ServeError::UnsupportedWidth { width: 32 })
        );
        assert_eq!(out.stats.errors(), 2);
        assert_eq!(out.stats.packs, 0, "invalid bitsim jobs never pack");
    }

    /// Chaos hook: crash every attempt of the job seeded 0x5005.
    fn crash_seed_5005(i: usize, job: &GaJob) {
        if job.params.seed == 0x5005 {
            panic!("injected chaos for job {i}");
        }
    }

    #[test]
    fn panicking_job_fails_alone_and_batch_stays_input_ordered() {
        let jobs: Vec<GaJob> = (0..8)
            .map(|i| quick_job(BackendKind::Behavioral, 0x5000 + i as u16))
            .collect();
        let out = serve_batch(
            &jobs,
            &ServeConfig {
                threads: 4,
                pre_exec: Some(crash_seed_5005),
                ..Default::default()
            },
        );
        assert_eq!(out.results.len(), jobs.len());
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.job, i, "input order survives a crashing worker");
            if jobs[i].params.seed == 0x5005 {
                assert!(
                    matches!(&r.outcome,
                        Err(ServeError::Internal { msg }) if msg.contains("injected chaos")),
                    "crashing job carries the recovered panic message"
                );
            } else {
                assert!(r.outcome.is_ok(), "job {i} must be unaffected");
            }
        }
        assert_eq!(out.stats.errors(), 1);
        assert_eq!(out.stats.panics_caught, 2, "both attempts crashed");
        assert!(out
            .stats
            .to_report()
            .to_json()
            .contains("\"panics_caught\": 2"));
    }

    #[test]
    fn a_caught_panic_leaves_one_json_line() {
        let job = quick_job(BackendKind::RtlInterp, 1);
        let line = panic_line(&[job], 2, "bad \"word\"");
        assert_eq!(
            line,
            r#"{"event":"panic_caught","backend":"rtl","jobs":1,"attempt":2,"msg":"bad \"word\""}"#
        );
    }

    /// Chaos hook: crash the job seeded 0x6003, but only the first time
    /// it is attempted — a transient fault the retry policy can absorb.
    fn crash_seed_6003_once(_i: usize, job: &GaJob) {
        use std::sync::atomic::{AtomicBool, Ordering};
        static FIRED: AtomicBool = AtomicBool::new(false);
        if job.params.seed == 0x6003 && !FIRED.swap(true, Ordering::SeqCst) {
            panic!("transient fault");
        }
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        let jobs: Vec<GaJob> = (0..4)
            .map(|i| quick_job(BackendKind::Behavioral, 0x6000 + i as u16))
            .collect();
        let out = serve_batch(
            &jobs,
            &ServeConfig {
                threads: 2,
                pre_exec: Some(crash_seed_6003_once),
                ..Default::default()
            },
        );
        assert_eq!(out.stats.errors(), 0, "one retry absorbs a one-shot fault");
        assert_eq!(
            out.stats.panics_caught, 1,
            "the absorbed crash still counts"
        );
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.job, i);
            assert!(r.outcome.is_ok());
        }
    }

    #[test]
    fn only_transient_errors_qualify_for_retry() {
        let result = |outcome| JobResult {
            job: 0,
            backend: BackendKind::Behavioral,
            outcome,
            micros: 0,
            degraded: None,
            heal: None,
        };
        assert!(has_transient_failure(&[result(Err(
            ServeError::Internal {
                msg: "poisoned".into()
            }
        ))]));
        // Deterministic failures reproduce identically — no retry.
        assert!(!has_transient_failure(&[
            result(Err(ServeError::InvalidJob {
                msg: "pop 0".into()
            })),
            result(Err(ServeError::Watchdog { cycles: 7 })),
            result(Err(ServeError::DeadlineExceeded)),
        ]));
        assert!(!has_transient_failure(&[]));
    }

    #[test]
    fn bitsim_watchdog_degrades_lanes_without_disturbing_the_batch() {
        // Mixed batch: bitsim jobs (which will pack) interleaved with
        // behavioral twins of the same parameters. With the step
        // watchdog set far below the needed draw count, every bitsim
        // lane must come back as a *successful* behavioral answer with
        // typed degradation metadata — and match its twin exactly —
        // while the native behavioral jobs are untouched.
        let mut jobs = Vec::new();
        for i in 0..6u16 {
            jobs.push(quick_job(BackendKind::BitSim64, 0x7000 + i));
            jobs.push(quick_job(BackendKind::Behavioral, 0x7000 + i));
        }
        let out = serve_batch(
            &jobs,
            &ServeConfig {
                limits: Limits {
                    stream_watchdog_steps: 4,
                    ..Limits::default()
                },
                ..Default::default()
            },
        );
        assert_eq!(out.stats.errors(), 0, "degradation is not failure");
        assert_eq!(out.stats.degraded, 6);
        for pair in out.results.chunks(2) {
            let (bit, beh) = (&pair[0], &pair[1]);
            assert_eq!(bit.backend, BackendKind::Behavioral, "fallback executed");
            let d = bit.degraded.as_ref().expect("degradation is surfaced");
            assert_eq!(d.from, BackendKind::BitSim64);
            assert_eq!(d.reason, ServeError::Watchdog { cycles: 4 });
            assert_eq!(beh.degraded, None, "native jobs carry no metadata");
            assert_eq!(bit.outcome, beh.outcome, "fallback answer is exact");
        }
        let json = out.stats.to_report().to_json();
        assert!(json.contains("\"degraded_jobs\": 6"), "missing in {json}");
    }

    #[test]
    fn report_carries_the_serve_schema() {
        let jobs = vec![quick_job(BackendKind::BitSim64, 9)];
        let out = serve_batch(&jobs, &ServeConfig::default());
        let json = out.stats.to_report().to_json();
        for key in [
            "\"name\": \"serve\"",
            "jobs_per_sec",
            "bitsim_packs",
            "bitsim_active_lanes",
            "bitsim_pack_jobs_per_sec",
            "netlist_cache_hits",
            "netlist_cache_misses",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn report_emits_percentiles_and_max_for_every_backend() {
        // The regression this pins: `max_micros` used to be accumulated
        // but silently dropped from the report; now every backend block
        // carries the full `_jobs/_avg_us/_p50_us/_p95_us/_p99_us/
        // _max_us` sextet.
        let jobs: Vec<GaJob> = (0..6)
            .map(|i| quick_job(BackendKind::Behavioral, 0xA000 + i as u16))
            .collect();
        let out = serve_batch(&jobs, &ServeConfig::default());
        let json = out.stats.to_report().to_json();
        for kind in BackendKind::ALL {
            for suffix in ["jobs", "avg_us", "p50_us", "p95_us", "p99_us", "max_us"] {
                let key = format!("\"{}_{suffix}\"", kind.name());
                assert!(json.contains(&key), "missing {key} in {json}");
            }
        }
        // The behavioral block is live: max is the recorded maximum and
        // bounds the histogram percentiles from above.
        let c = out.stats.counters(BackendKind::Behavioral);
        assert_eq!(c.jobs, 6);
        assert_eq!(c.histo.count(), 6);
        assert!(c.max_micros >= c.histo.percentile(0.99));
        assert!(c.histo.percentile(0.50) <= c.histo.percentile(0.95));
        let max_key = format!("\"behavioral_max_us\": {}", c.max_micros);
        assert!(json.contains(&max_key), "missing {max_key} in {json}");
    }

    #[test]
    fn metric_order_is_kind_order_even_when_degraded_target_runs_first() {
        // A degraded bitsim job makes the *behavioral* fallback the
        // first backend to absorb a result, and the batch's only other
        // native jobs are late kinds. The emitted metric order must
        // still be `BackendKind::ALL` order.
        let jobs = vec![
            quick_job(BackendKind::BitSim64, 0xB001), // degrades to behavioral
            quick_job(BackendKind::Swga, 0xB002),
            quick_job(BackendKind::Behavioral, 0xB003),
        ];
        let out = serve_batch(
            &jobs,
            &ServeConfig {
                limits: Limits {
                    stream_watchdog_steps: 4, // force the degradation
                    ..Limits::default()
                },
                ..Default::default()
            },
        );
        assert_eq!(out.stats.degraded, 1, "bitsim job must degrade first");
        let json = out.stats.to_report().to_json();
        let positions: Vec<usize> = BackendKind::ALL
            .iter()
            .map(|k| {
                json.find(&format!("\"{}_jobs\"", k.name()))
                    .unwrap_or_else(|| panic!("{} missing from report", k.name()))
            })
            .collect();
        for w in positions.windows(2) {
            assert!(
                w[0] < w[1],
                "backend metric blocks out of kind order in {json}"
            );
        }
    }

    #[test]
    fn merge_sums_counters_and_keeps_identity_fields() {
        let jobs_a = vec![quick_job(BackendKind::Behavioral, 0xC001)];
        let jobs_b: Vec<GaJob> = (0..3)
            .map(|i| quick_job(BackendKind::BitSim64, 0xC100 + i as u16))
            .collect();
        let a = serve_batch(&jobs_a, &ServeConfig::default()).stats;
        let b = serve_batch(&jobs_b, &ServeConfig::default()).stats;
        let mut m = a.clone();
        m.threads_used = 7;
        m.wall_seconds = 1.25;
        m.merge(&b);
        assert_eq!(m.jobs(), a.jobs() + b.jobs());
        assert_eq!(
            m.counters(BackendKind::BitSim64).jobs,
            b.counters(BackendKind::BitSim64).jobs
        );
        assert_eq!(m.packs, a.packs + b.packs);
        assert_eq!(m.packed_lanes, a.packed_lanes + b.packed_lanes);
        assert_eq!(m.threads_used, 7, "identity fields are the owner's");
        assert_eq!(m.wall_seconds, 1.25);
        let c = m.counters(BackendKind::Behavioral);
        assert_eq!(
            c.histo.count(),
            a.counters(BackendKind::Behavioral).histo.count()
                + b.counters(BackendKind::Behavioral).histo.count()
        );
    }
}
