//! `gaserved --input` end to end: the committed golden at several pool
//! sizes, and a non-zero exit when the results cannot be written.

use std::path::Path;
use std::process::Command;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/jobs16.jsonl"
);
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/results16_golden.jsonl"
);

/// Run `gaserved --input FIXTURE --out out` with extra args; its exit
/// status and stderr.
fn gaserved(out: &Path, extra: &[&str]) -> (bool, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let run = Command::new(env!("CARGO_BIN_EXE_gaserved"))
        .env("GA_BENCH_OUT", dir)
        .args(["--input", FIXTURE, "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("spawn gaserved");
    (
        run.status.success(),
        String::from_utf8_lossy(&run.stderr).into_owned(),
    )
}

#[test]
fn batch_results_equal_the_golden_at_every_pool_size() {
    let golden = std::fs::read(GOLDEN).expect("read the golden");
    for threads in ["1", "2", "4"] {
        let out =
            Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("results16_t{threads}.jsonl"));
        let (ok, stderr) = gaserved(&out, &["--threads", threads]);
        assert!(ok, "gaserved failed at {threads} threads: {stderr}");
        let got = std::fs::read(&out).expect("read the results");
        assert!(
            got == golden,
            "results differ from the golden at {threads} threads"
        );
    }
}

#[test]
fn unwritable_out_exits_nonzero() {
    let missing_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no/such/dir/out.jsonl");
    let mut targets = vec![missing_dir];
    // A device that accepts the open but fails every write.
    if Path::new("/dev/full").exists() {
        targets.push("/dev/full".into());
    }
    for out in targets {
        let (ok, stderr) = gaserved(&out, &[]);
        assert!(!ok, "gaserved exited 0 writing {}", out.display());
        assert!(stderr.contains("cannot write"), "stderr: {stderr}");
    }
}
