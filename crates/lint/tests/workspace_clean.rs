//! The gate itself, as a test: the real workspace must be lint-clean
//! under all eight rule classes (L1–L9 less the retired L5), with every
//! suppression a tagged, reasoned decision.
//!
//! CI also runs the binary (`cargo run -p sketches-lint -- check --github`),
//! but keeping the same assertion in `cargo test` means a violation cannot
//! land even when someone skips the lint job locally.

use std::path::Path;

use sketches_lint::{check_workspace, find_root, Rule};

#[test]
fn workspace_is_lint_clean() {
    // The gate covers the full rule set — a rule class silently dropping
    // out of `Rule::ALL` would weaken this test without failing it.
    assert_eq!(Rule::ALL.len(), 8, "expected all eight rule classes");
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let findings = check_workspace(&root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "the workspace must stay lint-clean; findings:\n{}",
        sketches_lint::to_json(&findings)
    );
}
