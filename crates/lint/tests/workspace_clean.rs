//! The gate itself, as a test: the real workspace must be lint-clean
//! under all five rule classes (L1, L2, L6, L7, L9), with every
//! suppression a tagged, reasoned decision — and the toolchain settings
//! that carry the retired rules must stay in place: clippy for L2's
//! `unwrap`/`expect`/`panic!` half, L4 and L8, rustc's `forbid` for L3.
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

/// The body of the `[header]` table in a TOML document, up to the next
/// table header.
fn toml_table<'a>(doc: &'a str, header: &str) -> &'a str {
    doc.split(&format!("[{header}]\n"))
        .nth(1)
        .and_then(|rest| rest.split("\n[").next())
        .unwrap_or_else(|| panic!("[{header}] table missing"))
}

/// The value of `key = value` in a TOML table body.
fn toml_value<'a>(table: &'a str, key: &str) -> Option<&'a str> {
    table
        .lines()
        .find_map(|l| l.split_once('=').filter(|(k, _)| k.trim() == key))
        .map(|(_, v)| v.trim())
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
    assert_eq!(Rule::ALL.len(), 5, "expected all five rule classes");
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
    let table = toml_table(&manifest, "workspace.lints.clippy");
    for lint in [
        "unwrap_used",
        "expect_used",
        "panic",
        "allow_attributes_without_reason",
    ] {
        let value = toml_value(table, lint)
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
    // suppression while suppressing nothing. The last two were L3's and
    // L8's, whose checks the compiler now makes with no escape.
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "shims"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in &files {
        let src = read(file);
        for tag in [
            "panic-ok",
            "nondeterminism-ok",
            "clock-impl",
            "unsafe-audited",
            "channel-ok",
        ] {
            assert!(
                !src.contains(&format!("lint: {tag}(")),
                "{}: retired `{tag}` tag suppresses nothing",
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
            let ctx = FileContext::new(rel, &read(file), krate.kind);
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

#[test]
fn toolchain_carries_l3_and_l8() {
    let root = root();

    // L3: `forbid`, unlike `deny`, cannot be re-allowed inside a crate
    // (rustc E0453). Every workspace member under crates/ and tests/
    // inherits the root table; the shims set it in their own manifests.
    let manifest = read(&root.join("Cargo.toml"));
    assert_eq!(
        toml_value(toml_table(&manifest, "workspace.lints.rust"), "unsafe_code"),
        Some("\"forbid\"")
    );
    let mut members = vec![root.join("tests/Cargo.toml")];
    let mut shims = Vec::new();
    for (dir, out) in [("crates", &mut members), ("shims", &mut shims)] {
        for entry in std::fs::read_dir(root.join(dir)).expect("readable dir") {
            let manifest = entry.expect("dir entry").path().join("Cargo.toml");
            if manifest.is_file() {
                out.push(manifest);
            }
        }
    }
    assert!(
        members.len() > 20 && shims.len() == 4,
        "{members:?} {shims:?}"
    );
    for manifest in &members {
        let table = toml_table(&read(manifest), "lints").to_string();
        assert_eq!(
            toml_value(&table, "workspace"),
            Some("true"),
            "{} must inherit [workspace.lints]",
            manifest.display()
        );
    }
    for manifest in &shims {
        let table = toml_table(&read(manifest), "lints.rust").to_string();
        assert_eq!(
            toml_value(&table, "unsafe_code"),
            Some("\"forbid\""),
            "{} must forbid unsafe code",
            manifest.display()
        );
    }

    // L8: the crossbeam shim has only `bounded()`; std's unbounded
    // constructor and the two receives with a non-disconnection error
    // are disallowed, which leaves `recv()` and its one error variant.
    let clippy = read(&root.join("crates/clippy.toml"));
    let methods = toml_array(&clippy, "disallowed-methods");
    for path in [
        "std::sync::mpsc::channel",
        "std::sync::mpsc::Receiver::try_recv",
        "std::sync::mpsc::Receiver::recv_timeout",
    ] {
        assert!(
            methods.contains(&format!("\"{path}\"")),
            "{path} not disallowed"
        );
    }
    let channel = read(&root.join("shims/crossbeam/src/channel.rs"));
    assert!(
        !channel.contains("fn unbounded"),
        "the shim must stay bounded-only"
    );
}

#[test]
fn an_unreadable_source_is_an_error_that_names_it() {
    let root =
        std::env::temp_dir().join(format!("sketches-lint-unreadable-{}", std::process::id()));
    let src = root.join("crates/bad/src");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("root manifest");
    std::fs::write(root.join("crates/bad/Cargo.toml"), "[package]\n").expect("manifest");
    std::fs::write(src.join("lib.rs"), [0xff, 0xfe, b'\n']).expect("source");
    let err = check_workspace(&root).expect_err("invalid UTF-8 must not lint clean");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("crates/bad/src/lib.rs"), "{err}");
}
