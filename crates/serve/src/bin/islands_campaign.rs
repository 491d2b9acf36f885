//! `islands_campaign` — the sharded multi-process island proof run.
//!
//! Three phases over one island job (BF6, 3 islands × 4-generation
//! epochs × 3 epochs, the Table III operator rates):
//!
//! 1. **Reference**: the in-process [`ga_engine::IslandRing`] run over
//!    stepping handles, recording the [`CheckpointBundle`] at every
//!    epoch barrier.
//! 2. **Sharded**: one `gaserved --island-worker` process per island,
//!    driven by [`ga_serve::Coordinator`] — the same ring over socket
//!    members; every barrier's bundle must equal the in-process one
//!    byte for byte.
//! 3. **Kill + resume**: a fresh sharded run is killed after its first
//!    barrier (worker 1 is SIGKILLed; the next barrier must fail with
//!    the typed [`EngineError::Island`] naming island 1, and any other
//!    outcome fails the campaign), then resumed from the durable
//!    checkpoint file on *bitsim64* workers — snapshots are
//!    backend-neutral — and must finish bit-identically.
//!
//! Emits `BENCH_islands.json` (honoring `GA_BENCH_OUT`) with the
//! metrics CI pins: shards, epochs, migrations, checkpoint bytes,
//! resume count, resume exactness, and per-barrier trajectory matches.
//! Exits nonzero on any divergence.

use std::error::Error;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;

use ga_core::islands::IslandConfig;
use ga_core::GaParams;
use ga_engine::{CheckpointBundle, EngineError, IslandsEngine};
use ga_fitness::TestFunction;
use ga_harness::BenchReport;
use ga_serve::islands::read_checkpoint;
use ga_serve::{BackendKind, Coordinator, GaJob};

/// One worker process: `gaserved --island-worker 127.0.0.1:0`, with the
/// announced ephemeral address scraped off its stdout.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn spawn(gaserved: &PathBuf) -> Result<Worker, String> {
        let mut child = Command::new(gaserved)
            .args(["--island-worker", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", gaserved.display()))?;
        let stdout = child.stdout.take().ok_or("no stdout pipe")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("worker announce: {e}"))?;
        let addr = line
            .strip_prefix("listening ")
            .ok_or_else(|| format!("bad announce line {line:?}"))?
            .trim()
            .to_string();
        Ok(Worker { child, addr })
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_ring(gaserved: &PathBuf, n: usize) -> Result<Vec<Worker>, String> {
    (0..n).map(|_| Worker::spawn(gaserved)).collect()
}

fn addrs(ring: &[Worker]) -> Vec<String> {
    ring.iter().map(|w| w.addr.clone()).collect()
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("islands_campaign: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let gaserved = match std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("gaserved")))
        .filter(|p| p.exists())
    {
        Some(p) => p,
        None => return fail("gaserved not found next to this binary (build it first)"),
    };

    let config = IslandConfig {
        islands: 3,
        epoch: 4,
        epochs: 3,
    };
    let job = GaJob::new(
        TestFunction::Bf6,
        BackendKind::Behavioral,
        GaParams::new(16, 12, 10, 1, 0x2961),
    )
    .with_islands(config);
    let ckpt = std::env::temp_dir().join(format!("islands_campaign_{}.ckpt", std::process::id()));

    // Phase 1 — the in-process reference trajectory, barrier by barrier.
    let composite = IslandsEngine::new(job.backend.engine(), config).expect("behavioral steps");
    let mut driver = composite.start(job.spec()).expect("starts");
    let mut reference_bundles: Vec<CheckpointBundle> = Vec::new();
    while !driver.done() {
        reference_bundles.push(driver.step_epoch().expect("in-process epoch"));
    }
    let reference = driver.finish().expect("in-process ring finishes");
    let checkpoint_bytes = reference_bundles
        .last()
        .map(|b| b.encode().len())
        .unwrap_or(0);

    // Phase 2 — the sharded run must reproduce every barrier exactly.
    let mut trajectory_matches = 0u64;
    let mut migrations = 0u64;
    {
        let mut ring = match spawn_ring(&gaserved, config.islands) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        let run = (|| -> Result<(), Box<dyn Error>> {
            let mut coord = Coordinator::connect(&job, &addrs(&ring), &ckpt, None)?;
            for want in &reference_bundles {
                let got = coord.step_epoch()?;
                if got != *want {
                    return Err(format!(
                        "barrier {} bundle diverged from the in-process ring",
                        want.epochs_done
                    )
                    .into());
                }
                trajectory_matches += 1;
            }
            migrations = coord.migrations();
            let sharded = coord.finish()?;
            if sharded != reference {
                return Err("sharded run result diverged from the in-process run".into());
            }
            Ok(())
        })();
        for w in &mut ring {
            w.kill();
        }
        if let Err(e) = run {
            return fail(&e.to_string());
        }
    }

    // Phase 3 — kill a worker mid-run, resume from the last durable
    // checkpoint on the *other* stepping backend.
    let mut resume_count = 0u64;
    let mut resume_exact = 0u64;
    {
        let mut ring = match spawn_ring(&gaserved, config.islands) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        let first = (|| -> Result<(), Box<dyn Error>> {
            let mut coord = Coordinator::connect(&job, &addrs(&ring), &ckpt, None)?;
            coord.step_epoch()?; // barrier 1 lands in the checkpoint file
            ring[1].kill(); // the "crash": SIGKILL one shard process
            match coord.step_epoch() {
                Err(e @ EngineError::Island { island: 1, .. }) => {
                    eprintln!("islands_campaign: killed shard surfaced as: {e}");
                    Ok(())
                }
                Err(e) => Err(format!("the killed shard 1 surfaced as another error: {e}").into()),
                Ok(_) => Err("coordinator did not notice the killed shard".into()),
            }
        })();
        for w in &mut ring {
            w.kill();
        }
        if let Err(e) = first {
            return fail(&e.to_string());
        }

        let bundle = match read_checkpoint(&ckpt) {
            Ok(b) => b,
            Err(e) => return fail(&format!("checkpoint did not survive the crash: {e}")),
        };
        if bundle.epochs_done != 1 {
            return fail(&format!(
                "expected the barrier-1 checkpoint, found epochs_done {}",
                bundle.epochs_done
            ));
        }
        let resumed_job = GaJob {
            backend: BackendKind::BitSim64,
            ..job
        };
        let mut ring = match spawn_ring(&gaserved, config.islands) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        let resumed = (|| -> Result<(), Box<dyn Error>> {
            let mut coord =
                Coordinator::connect(&resumed_job, &addrs(&ring), &ckpt, Some(&bundle))?;
            resume_count += 1;
            while !coord.done() {
                let got = coord.step_epoch()?;
                if got != reference_bundles[got.epochs_done as usize - 1] {
                    return Err(format!("resumed barrier {} diverged", got.epochs_done).into());
                }
                trajectory_matches += 1;
            }
            if coord.finish()? != reference {
                return Err("resumed run result diverged from the reference".into());
            }
            resume_exact += 1;
            Ok(())
        })();
        for w in &mut ring {
            w.kill();
        }
        if let Err(e) = resumed {
            return fail(&e.to_string());
        }
    }
    let _ = std::fs::remove_file(&ckpt);

    let wall = t0.elapsed().as_secs_f64();
    // Sharded epochs actually executed: the full phase-2 run, the one
    // pre-kill epoch, and the resumed tail.
    let epochs_run = (config.epochs + 1 + (config.epochs - 1)) as u64;
    println!(
        "islands_campaign: {} shards × {} epochs sharded + killed + resumed in {wall:.3}s \
         ({} barrier bundles bit-identical, {} migrations, checkpoint {} bytes)",
        config.islands, config.epochs, trajectory_matches, migrations, checkpoint_bytes
    );
    BenchReport::new(
        "islands",
        wall,
        config.islands as u64,
        config.islands as u64,
    )
    .metric("shards", config.islands as f64)
    .metric("epochs", config.epochs as f64)
    .metric("migrations", migrations as f64)
    .metric("checkpoint_bytes", checkpoint_bytes as f64)
    .metric("resume_count", resume_count as f64)
    .metric("resume_exact", resume_exact as f64)
    .metric("trajectory_matches", trajectory_matches as f64)
    .metric("epochs_per_sec", epochs_run as f64 / wall)
    .metric("best_fitness", reference.best.fitness as f64)
    .emit_or_warn();
    ExitCode::SUCCESS
}
