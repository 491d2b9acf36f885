//! CI validator for `BENCH_<name>.json` reports.
//!
//! Usage:
//!
//! ```text
//! benchcheck <file.json> [--require-backend-throughput] [--baseline BASE.json]
//!            [KEY>=MIN ...] [KEY<=MAX ...]
//! ```
//!
//! Checks that the file parses, carries the required schema keys
//! (`name`, `wall_seconds`, `lanes`, `threads`), and that every
//! `KEY>=MIN` / `KEY<=MAX` constraint holds against the report's
//! numbers (top-level fields or metrics — keys are unique across a
//! report). Pairing a floor with a ceiling pins a metric exactly
//! (`unclassified>=0 unclassified<=0`). A bound with an `x` suffix is
//! relative: it is read as that multiple of the baseline report's value
//! for the same key, so `'jobs_per_sec>=0.8x'` fails below 80 % of the
//! baseline, and `'cycles>=1.0x' 'cycles<=1.0x'` pins a metric to the
//! committed report. A relative bound needs `--baseline`, and its key
//! must be in the baseline. With
//! `--require-backend-throughput` the report must additionally carry
//! the full per-backend throughput/latency block (`<name>_jobs`,
//! `<name>_avg_us`, and the `<name>_p50_us`/`_p95_us`/`_p99_us`/
//! `_max_us` histogram metrics) for **every** backend name —
//! so registering a sixth backend without serving it fails CI, and so
//! does a serving-layer report that drops its tail-latency columns. Exits nonzero with a diagnostic
//! on the first violation, so a perf regression below a floor fails the
//! build the same way a lint error does.

use ga_bench::report::{json_extract_number, json_extract_string};
use ga_bench::BackendKind;
use std::process::ExitCode;

/// A constraint's bound: a number, or a multiple of the baseline
/// report's value for the same key (`0.8x`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    Absolute(f64),
    Relative(f64),
}

/// One `KEY>=BOUND` or `KEY<=BOUND` constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Constraint<'a> {
    key: &'a str,
    /// `<=` rather than `>=`.
    ceiling: bool,
    bound: Bound,
}

impl<'a> Constraint<'a> {
    fn parse(c: &'a str) -> Result<Self, String> {
        let (key, ceiling, bound) = if let Some((key, max)) = c.split_once("<=") {
            (key, true, max)
        } else if let Some((key, min)) = c.split_once(">=") {
            (key, false, min)
        } else {
            return Err(format!(
                "bad constraint {c:?} (expected KEY>=MIN or KEY<=MAX)"
            ));
        };
        let bound = bound.trim();
        let number = |text: &str| {
            text.parse::<f64>()
                .map_err(|_| format!("bad constraint {c:?}: {bound:?} is not a number"))
        };
        let bound = match bound.strip_suffix('x') {
            Some(multiple) => Bound::Relative(number(multiple)?),
            None => Bound::Absolute(number(bound)?),
        };
        Ok(Constraint {
            key: key.trim(),
            ceiling,
            bound,
        })
    }
}

/// Check the report at `path` against `constraints`; `baseline` is the
/// path and text of the report relative bounds are read against.
fn check(
    path: &str,
    constraints: &[String],
    require_backends: bool,
    baseline: Option<(&str, &str)>,
) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read ({e})"))?;

    let name = json_extract_string(&json, "name")
        .ok_or_else(|| format!("{path}: missing required key \"name\""))?;
    if name.is_empty() {
        return Err(format!("{path}: empty \"name\""));
    }
    for key in ["wall_seconds", "lanes", "threads"] {
        let v = json_extract_number(&json, key)
            .ok_or_else(|| format!("{path}: missing required numeric key \"{key}\""))?;
        if v < 0.0 {
            return Err(format!("{path}: {key} = {v} is negative"));
        }
    }

    if require_backends {
        for kind in BackendKind::ALL {
            for suffix in ["jobs", "avg_us", "p50_us", "p95_us", "p99_us", "max_us"] {
                let key = format!("{}_{suffix}", kind.name());
                let v = json_extract_number(&json, &key).ok_or_else(|| {
                    format!(
                        "{path}: registered backend {} has no \"{key}\" metric",
                        kind.name()
                    )
                })?;
                if v < 0.0 {
                    return Err(format!("{path}: {key} = {v} is negative"));
                }
            }
            println!(
                "benchcheck: {name}: backend {} throughput present ok",
                kind.name()
            );
        }
    }

    for c in constraints {
        let Constraint {
            key,
            ceiling,
            bound,
        } = Constraint::parse(c)?;
        let bound = match bound {
            Bound::Absolute(v) => v,
            Bound::Relative(m) => {
                let (base_path, base) = baseline
                    .ok_or_else(|| format!("constraint {c:?} is relative: it needs --baseline"))?;
                m * json_extract_number(base, key)
                    .ok_or_else(|| format!("{base_path}: baseline key \"{key}\" not in report"))?
            }
        };
        let got = json_extract_number(&json, key)
            .ok_or_else(|| format!("{path}: constraint key \"{key}\" not in report"))?;
        let (op, kind) = if ceiling {
            ("<=", "ceiling")
        } else {
            (">=", "floor")
        };
        if (ceiling && got > bound) || (!ceiling && got < bound) {
            return Err(format!(
                "{path}: {key} = {got:.3e} violates required {kind} {op} {bound:.3e}"
            ));
        }
        println!("benchcheck: {name}: {key} = {got:.3e} {op} {bound:.3e} ok");
    }
    println!("benchcheck: {path} ok (name = {name})");
    Ok(())
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("benchcheck: FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let n_before = args.len();
    args.retain(|a| a != "--require-backend-throughput");
    let require_backends = args.len() != n_before;
    let baseline = match args.iter().position(|a| a == "--baseline") {
        Some(at) if at + 1 < args.len() => {
            let base = args.remove(at + 1);
            args.remove(at);
            let text = std::fs::read_to_string(&base)
                .map_err(|e| format!("{base}: cannot read baseline ({e})"))?;
            Some((base, text))
        }
        Some(_) => return Err("--baseline needs a file".into()),
        None => None,
    };
    let Some((path, constraints)) = args.split_first() else {
        return Err(
            "usage: benchcheck <file.json> [--require-backend-throughput] \
                    [--baseline BASE.json] [KEY>=MIN ...]"
                .into(),
        );
    };
    let baseline = baseline.as_ref().map(|(p, t)| (p.as_str(), t.as_str()));
    check(path, constraints, require_backends, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"name": "base", "metrics": {"jobs_per_sec": 100, "cycles": 64373}}"#;

    /// Write a report with the given metrics to a temporary file.
    fn report(tag: &str, metrics: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("benchcheck-{tag}-{}.json", std::process::id()));
        let json = format!(
            r#"{{"name": "{tag}", "wall_seconds": 1, "lanes": 1, "threads": 1, "metrics": {{{metrics}}}}}"#
        );
        std::fs::write(&path, json).expect("temp dir is writable");
        path.to_string_lossy().into_owned()
    }

    fn constraints(cs: &[&str]) -> Vec<String> {
        cs.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn parses_absolute_and_relative_bounds() {
        let parse = |c| Constraint::parse(c).map(|c| (c.key, c.ceiling, c.bound));
        assert_eq!(
            parse("runs>=10"),
            Ok(("runs", false, Bound::Absolute(10.0)))
        );
        assert_eq!(
            parse(" steps <= 6.7e1 "),
            Ok(("steps", true, Bound::Absolute(67.0)))
        );
        assert_eq!(
            parse("jobs_per_sec>=0.8x"),
            Ok(("jobs_per_sec", false, Bound::Relative(0.8)))
        );
        assert_eq!(
            parse("cycles<=1.0x"),
            Ok(("cycles", true, Bound::Relative(1.0)))
        );
        for bad in ["runs=10", "runs>=x", "runs>=ten", "runs<=1.0xx"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn relative_bounds_pass_and_fail_against_the_baseline() {
        let path = report("relative", r#""jobs_per_sec": 85, "cycles": 64373"#);
        let check = |cs: &[&str], base| check(&path, &constraints(cs), false, base);
        let base = Some(("base.json", BASE));
        assert_eq!(
            check(
                &["jobs_per_sec>=0.8x", "cycles>=1.0x", "cycles<=1.0x"],
                base
            ),
            Ok(())
        );
        let err = check(&["jobs_per_sec>=0.9x"], base).expect_err("85 < 90");
        assert!(err.contains("violates required floor"), "{err}");
        let err = check(&["jobs_per_sec<=0.8x"], base).expect_err("85 > 80");
        assert!(err.contains("violates required ceiling"), "{err}");
        // Absolute bounds need no baseline; relative ones do.
        assert_eq!(check(&["cycles<=64373"], None), Ok(()));
        let err = check(&["cycles<=1.0x"], None).expect_err("no baseline");
        assert!(err.contains("needs --baseline"), "{err}");
        std::fs::remove_file(&path).expect("written above");
    }

    #[test]
    fn a_relative_key_missing_from_the_baseline_fails() {
        let path = report("missing", r#""host_steps": 67"#);
        let err = check(
            &path,
            &constraints(&["host_steps<=1.0x"]),
            false,
            Some(("base.json", BASE)),
        )
        .expect_err("the baseline has no host_steps");
        assert!(
            err.contains("base.json: baseline key \"host_steps\""),
            "{err}"
        );
        std::fs::remove_file(&path).expect("written above");
    }
}
