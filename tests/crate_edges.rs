//! Every normal dependency a workspace crate takes on another workspace
//! crate must be used by that crate's `src/`: a path it names
//! (`ident::`) or an import (`use ident`). An edge nothing references
//! only adds build order and misstates how the crates layer; a crate
//! its tests alone use belongs in `[dev-dependencies]`.

mod common;

use std::fs;

use common::{root, rust_sources};

/// The non-blank, non-comment lines of one `[section]` of a manifest.
fn section<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The dependency name a manifest line declares (`name.workspace = true`
/// or `name = { ... }`).
fn dep_name(line: &str) -> &str {
    line.split(['=', '.']).next().unwrap_or("").trim()
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `src` names crate `ident` as a path root or imports it.
fn references(src: &str, ident: &str) -> bool {
    src.match_indices(ident).any(|(at, _)| {
        let before = src[..at].chars().next_back();
        let after = &src[at + ident.len()..];
        if before.is_some_and(is_ident_char) || after.starts_with(is_ident_char) {
            return false;
        }
        after.starts_with("::") || src[..at].ends_with("use ")
    })
}

#[test]
fn every_workspace_dependency_is_used_by_its_crate_sources() {
    let workspace = fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    let members: Vec<&str> = section(&workspace, "workspace.dependencies")
        .into_iter()
        .filter(|l| l.contains("path"))
        .map(dep_name)
        .collect();
    assert!(members.contains(&"ga-core"), "workspace crates parsed");

    let mut crates = vec![root().to_path_buf()];
    for entry in fs::read_dir(root().join("crates")).expect("crates dir") {
        let dir = entry.expect("dir entry").path();
        if dir.join("Cargo.toml").is_file() {
            crates.push(dir);
        }
    }
    assert!(crates.len() > 10, "crate directories found");

    let mut unused = Vec::new();
    for dir in &crates {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        let mut files = Vec::new();
        rust_sources(&dir.join("src"), &mut files);
        let sources: Vec<String> = files
            .iter()
            .map(|f| fs::read_to_string(f).expect("readable source"))
            .collect();
        for dep in section(&manifest, "dependencies").into_iter().map(dep_name) {
            if !members.contains(&dep) {
                continue;
            }
            let ident = dep.replace('-', "_");
            if !sources.iter().any(|s| references(s, &ident)) {
                unused.push(format!("{} -> {dep}", dir.display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "normal dependencies no source under src/ references \
         (delete them, or move test-only ones to [dev-dependencies]):\n{}",
        unused.join("\n")
    );
}

#[test]
fn reference_matching_needs_a_path_or_an_import() {
    assert!(references("use ga_core::GaParams;", "ga_core"));
    assert!(references("let e = ga_core::GaEngine::new", "ga_core"));
    assert!(references("pub use carng;", "carng"));
    assert!(!references("use my_ga_core::X;", "ga_core"));
    assert!(!references("// ga_core_extra::y", "ga_core"));
    assert!(!references("mentions ga_core in prose", "ga_core"));
}
