//! `sketches-lint` — the workspace's determinism & panic-safety analyzer.
//!
//! A lightweight, dependency-free source scanner (hand-rolled lexer, no
//! `syn`/`proc-macro2`, consistent with the offline-shim constraint in
//! ROADMAP.md) enforcing eight invariant classes over the library crates:
//!
//! * **L1 sorted-iteration** — no unordered `HashMap`/`HashSet` iteration
//!   in `merge`/`report`/`serialize`/`Hash`/`Eq` paths (the seed's
//!   `SpaceSaving::merge` bug class).
//! * **L2 panic-free** — no `unwrap()`/`expect()`/`panic!` in library
//!   non-test code without a documented invariant.
//! * **L3 forbid-unsafe** — `#![forbid(unsafe_code)]` in every crate root.
//! * **L4 seeded-only** — no ambient randomness or wall-clock time in
//!   sketch crates; everything flows through explicit seeds.
//! * *(L5 missing-docs is retired — the workspace builds with rustc's
//!   `missing_docs` at `-D warnings`; the id is not reused.)*
//! * **L6 guard-hygiene** — no blocking operation or user-closure call
//!   while a lock guard is live in scope (the PR 6 deadlock class).
//! * **L7 lock-ordering** — no cycles in the workspace lock-acquisition
//!   graph; nested acquisitions follow one global order.
//! * **L8 channel-discipline** — bounded channels only, receive results
//!   handled, disconnection arms present.
//! * **L9 drop-safety** — `Drop` impls never lock, do fallible I/O, send,
//!   or panic; fallible teardown goes through a consuming `close()`.
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

#![forbid(unsafe_code)]

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
/// `is_crate_root` controls whether the crate-root rules (L3) apply. The
/// cross-file L7 lock-ordering pass runs with this one file as the whole
/// workspace — a single-file cycle (the fixture shape) is still detected.
/// This is the entry point the fixture tests use; [`check_workspace`] is
/// the filesystem-walking wrapper.
#[must_use]
pub fn check_source(path: &Path, src: &str, kind: CrateKind, is_crate_root: bool) -> Vec<Finding> {
    let ctx = FileContext::new(path, src, kind, is_crate_root);
    let mut out = rules::run_all(&ctx);
    out.extend(rules::l7_lock_order::check_files(std::slice::from_ref(
        &ctx,
    )));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Lints every crate under `<root>/crates/`.
///
/// Per-file rules (L1–L6, L8, L9) run on each file's context; the L7
/// lock-ordering pass then runs once over *all* contexts, since its
/// acquisition graph spans the workspace.
///
/// # Errors
/// Returns an error when the workspace layout cannot be read; individual
/// unreadable files surface as findings rather than errors so one bad file
/// cannot mask the rest.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut out = Vec::new();
    // Load every source first so all contexts can coexist for L7.
    let mut files: Vec<(std::path::PathBuf, String, CrateKind, bool)> = Vec::new();
    for krate in discover(root)? {
        for file in &krate.sources {
            let rel = workspace::relative(root, file).to_path_buf();
            match std::fs::read_to_string(file) {
                Ok(src) => {
                    let is_root = krate.roots.contains(file);
                    files.push((rel, src, krate.kind, is_root));
                }
                Err(e) => out.push(Finding {
                    rule: Rule::L3ForbidUnsafe,
                    file: rel,
                    line: 0,
                    message: format!("unreadable source file: {e}"),
                }),
            }
        }
    }
    let ctxs: Vec<FileContext<'_>> = files
        .iter()
        .map(|(rel, src, kind, is_root)| FileContext::new(rel, src, *kind, *is_root))
        .collect();
    for ctx in &ctxs {
        out.extend(rules::run_all(ctx));
    }
    out.extend(rules::l7_lock_order::check_files(&ctxs));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}
