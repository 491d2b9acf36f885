//! Every committed `BENCH_<name>.json` has exactly one producer: the
//! file carries `"name": "<name>"`, and exactly one non-test
//! `BenchReport::new("<name>"` call exists under `crates/*/src`. Test
//! modules are skipped by cutting each file at its first `#[cfg(test)]`.

mod common;

use std::fs;
use std::path::PathBuf;

use common::{root, rust_sources};

/// The report names passed to non-test `BenchReport::new` calls, one
/// entry per call, with the file that makes it.
fn producers() -> Vec<(String, PathBuf)> {
    let mut files = Vec::new();
    for entry in fs::read_dir(root().join("crates")).expect("crates dir") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    let mut found = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("readable source");
        let code = text.split("#[cfg(test)]").next().unwrap_or("");
        for (at, call) in code.match_indices("BenchReport::new(") {
            let args = code[at + call.len()..].trim_start();
            if let Some(name) = args.strip_prefix('"').and_then(|a| a.split('"').next()) {
                found.push((name.to_string(), file.clone()));
            }
        }
    }
    found
}

#[test]
fn each_committed_bench_file_has_exactly_one_producer() {
    let producers = producers();
    let mut checked = 0;
    for entry in fs::read_dir(root()).expect("repo root") {
        let path = entry.expect("dir entry").path();
        let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(name) = file
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let json = fs::read_to_string(&path).expect("readable bench file");
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{file} does not carry \"name\": \"{name}\""
        );
        let makers: Vec<_> = producers.iter().filter(|(n, _)| n == name).collect();
        assert_eq!(
            makers.len(),
            1,
            "{file} needs exactly one BenchReport::new(\"{name}\" producer, found {makers:?}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no committed BENCH_*.json found");
}
