//! Machine-readable benchmark reports (`BENCH_<name>.json`).
//!
//! Every experiment binary emits one of these next to its human-readable
//! table so performance can be tracked as a trajectory across commits:
//! wall time, lane and thread counts, and a flat bag of named metrics
//! (simulated cycles, gate-evaluations per second, speedups, …). The
//! writer and the reader are both dependency-free: the format is a
//! single flat-enough JSON object that the hand-rolled extractors in
//! this module (used by the `benchcheck` CI gate) can parse.
//!
//! Environment knobs honoured by the binaries:
//!
//! * `GA_BENCH_OUT` — directory to write `BENCH_<name>.json` into
//!   (default: current directory).
//! * `GA_BENCH_GENS` — override the generation count of GA workloads.
//! * `GA_BENCH_QUICK` — non-empty ⇒ shrink workloads for a CI smoke run.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark report, serialized as
/// `{"name":…,"wall_seconds":…,"lanes":…,"threads":…,"metrics":{…}}`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    wall_seconds: f64,
    lanes: u64,
    threads: u64,
    metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// A report for benchmark `name`: `wall_seconds` of wall-clock time,
    /// `lanes` simulation lanes (1 unless bit-sliced), `threads` worker
    /// threads.
    pub fn new(name: impl Into<String>, wall_seconds: f64, lanes: u64, threads: u64) -> Self {
        BenchReport {
            name: name.into(),
            wall_seconds,
            lanes,
            threads,
            metrics: Vec::new(),
        }
    }

    /// Attach a named metric (builder-style).
    pub fn metric(mut self, key: impl Into<String>, value: f64) -> Self {
        self.metrics.push((key.into(), value));
        self
    }

    /// The report name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Render as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"name\": \"{}\",\n  \"wall_seconds\": {},\n  \"lanes\": {},\n  \"threads\": {},\n  \"metrics\": {{",
            json_escape(&self.name),
            json_number(self.wall_seconds),
            self.lanes,
            self.threads
        );
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {}",
                json_escape(k),
                json_number(*v)
            );
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Write `BENCH_<name>.json` into `$GA_BENCH_OUT` (or the current
    /// directory) and return the path.
    pub fn emit(&self) -> io::Result<PathBuf> {
        let dir = std::env::var_os("GA_BENCH_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// `emit()` with the standard side-channel message on stderr; any
    /// I/O failure is reported but non-fatal (the human-readable table
    /// already went to stdout).
    pub fn emit_or_warn(&self) {
        match self.emit() {
            Ok(path) => eprintln!("bench report: {}", path.display()),
            Err(e) => eprintln!("bench report NOT written ({e})"),
        }
    }
}

/// Escape `s` as the body of a JSON string literal: quotes and
/// backslashes escaped, `\n`, `\t` and `\r` written short, other control
/// characters as `\u00XX`. The one escaper of the workspace: reports,
/// served result lines and lint diagnostics all write strings with it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON number: finite floats as-is, non-finite clamped to 0 (JSON has
/// no NaN/Inf) — a report should never contain one, but a divide-by-
/// zero on a degenerate quick run must not produce unparseable output.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Extract the number following `"key":` anywhere in `json`. Metric
/// keys are unique across a report, so a flat scan is sufficient —
/// this is the reader `benchcheck` validates reports with.
pub fn json_extract_number(json: &str, key: &str) -> Option<f64> {
    let rest = after_key(json, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the string following `"key":`.
pub fn json_extract_string(json: &str, key: &str) -> Option<String> {
    let rest = after_key(json, key)?;
    let rest = rest.strip_prefix('"')?;
    // Report names never contain escapes; a raw quote ends the value.
    Some(rest[..rest.find('"')?].to_string())
}

/// Slice of `json` immediately after `"key":` with whitespace skipped.
fn after_key<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let rest = rest.strip_prefix(':')?;
    Some(rest.trim_start())
}

/// Stopwatch for a whole benchmark binary: `let sw = Stopwatch::start();
/// … ; report(sw.seconds())`.
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Elapsed wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// `GA_BENCH_GENS` as a generation-count override, when set and valid.
pub fn gens_override() -> Option<u32> {
    std::env::var("GA_BENCH_GENS").ok()?.trim().parse().ok()
}

/// True when `GA_BENCH_QUICK` asks for the shrunken CI-smoke workloads
/// (any non-empty value except `0`).
pub fn quick() -> bool {
    std::env::var("GA_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_through_the_extractors() {
        let r = BenchReport::new("table5", 1.25, 1, 4)
            .metric("sim_cycles", 123456.0)
            .metric("gates_per_sec", 5.5e8);
        let j = r.to_json();
        assert_eq!(json_extract_string(&j, "name").as_deref(), Some("table5"));
        assert_eq!(json_extract_number(&j, "wall_seconds"), Some(1.25));
        assert_eq!(json_extract_number(&j, "lanes"), Some(1.0));
        assert_eq!(json_extract_number(&j, "threads"), Some(4.0));
        assert_eq!(json_extract_number(&j, "sim_cycles"), Some(123456.0));
        assert_eq!(json_extract_number(&j, "gates_per_sec"), Some(5.5e8));
        assert_eq!(json_extract_number(&j, "missing"), None);
    }

    #[test]
    fn empty_metrics_object_is_valid() {
        let j = BenchReport::new("x", 0.0, 64, 1).to_json();
        assert!(j.contains("\"metrics\": {}"));
        assert_eq!(json_extract_number(&j, "lanes"), Some(64.0));
    }

    #[test]
    fn non_finite_metrics_stay_parseable() {
        let j = BenchReport::new("x", 0.0, 1, 1)
            .metric("bad", f64::NAN)
            .to_json();
        assert_eq!(json_extract_number(&j, "bad"), Some(0.0));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("n\nt\tr\r\u{1}"), "n\\nt\\tr\\r\\u0001");
    }
}
