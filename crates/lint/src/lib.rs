//! `sketches-lint` — the workspace's determinism & concurrency-safety
//! analyzer, for what no toolchain lint checks.
//!
//! A lightweight, dependency-free source scanner (hand-rolled lexer, no
//! `syn`/`proc-macro2`, consistent with the offline-shim constraint in
//! ROADMAP.md) enforcing five invariant classes over the library crates:
//!
//! * **L1 sorted-iteration** — no unordered `HashMap`/`HashSet` iteration
//!   in `merge`/`report`/`serialize`/`Hash`/`Eq` paths (the seed's
//!   `SpaceSaving::merge` bug class).
//! * **L2 panic-boundary** — every `catch_unwind` declares its recovery
//!   contract. (`unwrap()`/`expect()`/`panic!` are clippy's `unwrap_used`,
//!   `expect_used` and `panic`.)
//! * **L6 guard-hygiene** — no blocking operation or user-closure call
//!   while a lock guard is live in scope (the PR 6 deadlock class).
//! * **L7 lock-ordering** — no cycles in the workspace lock-acquisition
//!   graph; nested acquisitions follow one global order.
//! * **L9 drop-safety** — `Drop` impls never lock, do fallible I/O, send,
//!   or panic; fallible teardown goes through a consuming `close()`.
//!
//! Retired ids are never reused. Each retired rule is a toolchain setting
//! checked at `-D warnings`: L3 forbid-unsafe is rustc's
//! `unsafe_code = "forbid"` in the root `[workspace.lints.rust]` (and in
//! each shim manifest); L4 seeded-only is clippy's `disallowed_methods` and
//! `disallowed_types` in `crates/clippy.toml`; L5 missing-docs is rustc's
//! `missing_docs`; L8 channel-discipline is the crossbeam shim having only
//! `bounded()`, `disallowed_methods` on std's `mpsc::channel`, `try_recv`
//! and `recv_timeout`, and clippy's `unwrap_used` on a receive.
//!
//! L6, L7, and L9 run on the guard-liveness model in [`scope`] — a
//! brace-matched block tree over the token stream with let-binding
//! tracking, so the analyzer knows which guards are live where.
//!
//! Run as `cargo run -p sketches-lint -- check [--json|--github]`; the
//! process exits
//! non-zero when any rule fires, which is how CI gates regressions. Every
//! rule has an escape hatch of the form `// lint: <tag>(reason)` — the
//! reason is mandatory, so each suppression is an auditable decision. See
//! `DESIGN.md` §7 for the policy and `fixtures/` for canonical examples.

pub mod findings;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod workspace;

use std::path::Path;

pub use findings::{to_github, to_json, Finding, Rule};
pub use rules::FileContext;
pub use workspace::{discover, find_root, CrateKind, WorkspaceCrate};

/// Lints one source string as a file of crate kind `kind`.
///
/// The cross-file L7 lock-ordering pass runs with this one file as the
/// whole workspace — a single-file cycle (the fixture shape) is still
/// detected. This is the entry point the fixture tests use;
/// [`check_workspace`] is the filesystem-walking wrapper.
#[must_use]
pub fn check_source(path: &Path, src: &str, kind: CrateKind) -> Vec<Finding> {
    let ctx = FileContext::new(path, src, kind);
    let mut out = rules::run_all(&ctx);
    out.extend(rules::l7_lock_order::check_files(std::slice::from_ref(
        &ctx,
    )));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Lints every crate under `<root>/crates/`.
///
/// Per-file rules (L1, L2, L6, L9) run on each file's context; the L7
/// lock-ordering pass then runs once over *all* contexts, since its
/// acquisition graph spans the workspace.
///
/// # Errors
/// Returns an error when the workspace layout or any source file cannot be
/// read; the message names the file.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    // Load every source first so all contexts can coexist for L7.
    let mut files: Vec<(std::path::PathBuf, String, CrateKind)> = Vec::new();
    for krate in discover(root)? {
        for file in &krate.sources {
            let src = std::fs::read_to_string(file)
                .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", file.display())))?;
            files.push((
                workspace::relative(root, file).to_path_buf(),
                src,
                krate.kind,
            ));
        }
    }
    let ctxs: Vec<FileContext<'_>> = files
        .iter()
        .map(|(rel, src, kind)| FileContext::new(rel, src, *kind))
        .collect();
    let mut out = Vec::new();
    for ctx in &ctxs {
        out.extend(rules::run_all(ctx));
    }
    out.extend(rules::l7_lock_order::check_files(&ctxs));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}
