//! The gate itself, as a test: the real workspace must be lint-clean
//! under all seven rule classes (L1–L9 less the retired L4 and L5), with
//! every suppression a tagged, reasoned decision — and the clippy
//! configuration that carries L2's `unwrap`/`expect`/`panic!` half and
//! all of L4 must stay in place.
//!
//! CI also runs the binary (`cargo run -p sketches-lint -- check --github`),
//! but keeping the same assertion in `cargo test` means a violation cannot
//! land even when someone skips the lint job locally.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail fast; a panic here is the test failing"
)]

use std::path::{Path, PathBuf};

use sketches_lint::{check_workspace, discover, find_root, CrateKind, FileContext, Rule};

fn root() -> PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text of `key = [ ... ]` in a TOML document, up to the closing `]`
/// on a line of its own.
fn toml_array<'a>(doc: &'a str, key: &str) -> &'a str {
    let start = doc
        .find(&format!("{key} = ["))
        .unwrap_or_else(|| panic!("`{key}` missing"));
    let len = doc[start..].find("\n]").expect("array closes");
    &doc[start..start + len]
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn workspace_is_lint_clean() {
    // The gate covers the full rule set — a rule class silently dropping
    // out of `Rule::ALL` would weaken this test without failing it.
    assert_eq!(Rule::ALL.len(), 7, "expected all seven rule classes");
    let findings = check_workspace(&root()).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "the workspace must stay lint-clean; findings:\n{}",
        sketches_lint::to_json(&findings)
    );
}

#[test]
fn clippy_carries_l2_panic_half_and_l4() {
    let root = root();

    // L2's panic half: the root lint table keeps these on. CI runs clippy
    // at `-D warnings`, so "warn" is already a gate.
    let manifest = read(&root.join("Cargo.toml"));
    let table = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .and_then(|rest| rest.split("\n[").next())
        .expect("[workspace.lints.clippy] table");
    for lint in [
        "unwrap_used",
        "expect_used",
        "panic",
        "allow_attributes_without_reason",
    ] {
        let value = table
            .lines()
            .find_map(|l| l.split_once('=').filter(|(k, _)| k.trim() == lint))
            .map(|(_, v)| v.trim())
            .unwrap_or_else(|| panic!("clippy::{lint} missing from the root lints"));
        assert!(
            ["\"warn\"", "\"deny\"", "\"forbid\""]
                .iter()
                .any(|level| value.contains(level)),
            "clippy::{lint} must be warn or stricter, got {value}"
        );
    }

    // L4: ambient time and entropy are disallowed.
    let clippy = read(&root.join("crates/clippy.toml"));
    let methods = toml_array(&clippy, "disallowed-methods");
    let types = toml_array(&clippy, "disallowed-types");
    for path in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            methods.contains(&format!("\"{path}\"")),
            "{path} not disallowed"
        );
    }
    for path in [
        "std::time::SystemTime",
        "std::collections::hash_map::RandomState",
    ] {
        assert!(
            types.contains(&format!("\"{path}\"")),
            "{path} not disallowed"
        );
    }

    // The retired comment tags are gone: a leftover one would read as a
    // suppression while suppressing nothing.
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "shims"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in &files {
        let src = read(file);
        for tag in ["panic-ok", "nondeterminism-ok", "clock-impl"] {
            assert!(
                !src.contains(&format!("lint: {tag}(")),
                "{}: retired `{tag}` tag; use #[expect(clippy::..., reason = ...)]",
                file.display()
            );
        }
    }

    // L4's carve-out: outside test code, the one place that may suppress
    // the time/entropy lints is the `MonotonicClock` impl. The bench
    // harness times things by design and is exempt, as it was from L4.
    let mut suppressing = Vec::new();
    for krate in discover(&root).expect("crates dir") {
        if krate.kind == CrateKind::Bench {
            continue;
        }
        for file in &krate.sources {
            let rel = file.strip_prefix(&root).expect("under root");
            let ctx = FileContext::new(rel, &read(file), krate.kind, false);
            let suppresses = ctx.tokens().iter().enumerate().any(|(i, t)| {
                (t.is_ident("disallowed_methods") || t.is_ident("disallowed_types"))
                    && ctx.is_checked_code(i)
            });
            if suppresses {
                suppressing.push(rel.to_path_buf());
            }
        }
    }
    assert_eq!(suppressing, [PathBuf::from("crates/obs/src/clock.rs")]);
}
