//! Every `pub mod m;` a workspace crate declares must be reached: the
//! crate re-exports from it (`pub use m::`), or some source file other
//! than the module's own names a path through it (`m::`). A module only
//! its own tests call is code the build compiles and a reader reads for
//! no caller; delete it, or move it under test code.

mod common;

use std::fs;
use std::path::PathBuf;

use common::{root, rust_sources};

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether the code of `src` (comment lines aside) names `m` as a path
/// segment: `m::`, not the tail of a longer identifier.
fn names_path(src: &str, m: &str) -> bool {
    let pat = format!("{m}::");
    src.lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .any(|l| {
            l.match_indices(&pat)
                .any(|(at, _)| !l[..at].chars().next_back().is_some_and(is_ident_char))
        })
}

/// The modules a crate root declares with `pub mod m;`.
fn pub_mods(lib: &str) -> Vec<&str> {
    lib.lines()
        .filter_map(|l| l.trim().strip_prefix("pub mod ")?.strip_suffix(';'))
        .collect()
}

/// The `name` of a manifest's `[package]`, as a Rust path root.
fn crate_ident(manifest: &str) -> String {
    manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("name = "))
        .expect("package name")
        .trim_matches('"')
        .replace('-', "_")
}

#[test]
fn every_public_module_is_reached_from_outside_its_own_files() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root().join(dir), &mut files);
    }
    let shims = root().join("crates").join("shims");
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .filter(|f| !f.starts_with(&shims))
        .map(|f| {
            let text = fs::read_to_string(&f).expect("readable source");
            (f, text)
        })
        .collect();

    let mut checked = 0;
    let mut unreached = Vec::new();
    for entry in fs::read_dir(root().join("crates")).expect("crates dir") {
        let dir = entry.expect("dir entry").path();
        let lib = dir.join("src").join("lib.rs");
        if dir == shims || !lib.is_file() {
            continue;
        }
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        let lib_src = fs::read_to_string(&lib).expect("crate root");
        for m in pub_mods(&lib_src) {
            checked += 1;
            if lib_src.contains(&format!("pub use {m}::")) {
                continue;
            }
            let own_file = dir.join("src").join(format!("{m}.rs"));
            let own_dir = dir.join("src").join(m);
            let reached = sources
                .iter()
                .any(|(f, s)| *f != own_file && !f.starts_with(&own_dir) && names_path(s, m));
            if !reached {
                unreached.push(format!("{}::{m}", crate_ident(&manifest)));
            }
        }
    }
    assert!(checked > 50, "public modules found ({checked})");
    unreached.sort();
    assert!(
        unreached.is_empty(),
        "public modules nothing outside their own files reaches \
         (delete them, or move them under test code):\n{}",
        unreached.join("\n")
    );
}

#[test]
fn path_matching_needs_a_whole_segment_in_code() {
    assert!(names_path("use ga_core::analysis::diversity;", "analysis"));
    assert!(names_path("let r = timing::analyze_mapped(", "timing"));
    assert!(!names_path("use ga_core::dataanalysis::x;", "analysis"));
    assert!(!names_path("/// see [`analysis::diversity`]", "analysis"));
    assert!(!names_path("mentions analysis in prose", "analysis"));
    assert_eq!(pub_mods("pub mod a;\nmod b;\n    pub mod c;\n"), ["a", "c"]);
}
