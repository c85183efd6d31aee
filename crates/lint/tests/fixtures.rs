//! Fixture-driven contract tests: each rule fires on its violation fixture
//! and stays quiet on the suppressed twin. The fixtures under `fixtures/`
//! are the canonical examples referenced by DESIGN.md §7.

#![allow(clippy::panic, reason = "a missing fixture is the test failing")]

use std::path::Path;

use sketches_lint::{check_source, CrateKind, Finding, Rule};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Lints one fixture as a library file.
fn run(name: &str) -> Vec<Finding> {
    check_source(Path::new(name), &fixture(name), CrateKind::Library)
}

/// Asserts the violation fixture produces exactly one finding of `rule`
/// (and nothing else — fixtures must not trip unrelated rules), and that
/// the suppressed twin is completely clean.
fn assert_pair(rule: Rule, violation: &str, suppressed: &str) {
    let fired = run(violation);
    assert_eq!(
        fired.len(),
        1,
        "{violation}: expected exactly one finding, got {fired:#?}"
    );
    assert_eq!(fired[0].rule, rule, "{violation}: wrong rule: {fired:#?}");
    let quiet = run(suppressed);
    assert!(
        quiet.is_empty(),
        "{suppressed}: expected no findings, got {quiet:#?}"
    );
}

#[test]
fn l1_sorted_iteration_pair() {
    assert_pair(
        Rule::L1SortedIteration,
        "l1_violation.rs",
        "l1_suppressed.rs",
    );
}

#[test]
fn l2_boundary_pair() {
    assert_pair(
        Rule::L2PanicFree,
        "l2_boundary_violation.rs",
        "l2_boundary_suppressed.rs",
    );
}

#[test]
fn l2_replay_boundary_pair() {
    // Any `catch_unwind` — here the durable store's WAL-replay supervisor
    // shape — must carry a `panic-boundary(reason)` tag naming its
    // recovery contract.
    assert_pair(
        Rule::L2PanicFree,
        "l2_replay_boundary_violation.rs",
        "l2_replay_boundary_suppressed.rs",
    );
}

#[test]
fn l2_worker_boundary_pair() {
    // The concurrent engine's shape: a supervisor around a long-lived
    // shard worker that poisons the engine on panic. The tag must state
    // what readers observe afterwards (the last published epoch).
    assert_pair(
        Rule::L2PanicFree,
        "l2_worker_boundary_violation.rs",
        "l2_worker_boundary_suppressed.rs",
    );
}

#[test]
fn l6_guard_hygiene_pair() {
    assert_pair(Rule::L6GuardHygiene, "l6_violation.rs", "l6_suppressed.rs");
}

#[test]
fn l6_query_view_pair() {
    // Pins the read/write-split contract from the engine side: cutting a
    // query view must never block under the epoch slot's guard. The clean
    // twin is the canonical impl shape (clone out of the guard in one
    // statement) and needs no suppression tag to pass.
    assert_pair(
        Rule::L6GuardHygiene,
        "l6_query_view_violation.rs",
        "l6_query_view_suppressed.rs",
    );
}

#[test]
fn l7_lock_order_pair() {
    assert_pair(Rule::L7LockOrder, "l7_violation.rs", "l7_suppressed.rs");
}

#[test]
fn l7_cycle_names_both_acquisition_sites() {
    // The deadlock report is only actionable if it points at *both* ends
    // of the reversed order, in their respective functions.
    let fired = run("l7_violation.rs");
    assert_eq!(fired.len(), 1, "{fired:#?}");
    let msg = &fired[0].message;
    assert!(
        msg.contains("fn `transfer_ab`") && msg.contains("fn `transfer_ba`"),
        "both functions must be named: {msg}"
    );
    assert_eq!(
        msg.matches("l7_violation.rs:").count(),
        2,
        "both acquisition sites must be cited: {msg}"
    );
}

#[test]
fn l9_drop_safety_pair() {
    assert_pair(Rule::L9DropSafety, "l9_violation.rs", "l9_suppressed.rs");
}

#[test]
fn bench_crates_are_exempt_from_sketch_rules() {
    // The same L1 violation is legal in the bench harness.
    let findings = check_source(
        Path::new("l1_violation.rs"),
        &fixture("l1_violation.rs"),
        CrateKind::Bench,
    );
    assert!(findings.is_empty(), "bench exemption broken: {findings:#?}");
}

#[test]
fn json_output_is_well_formed_for_fixture_findings() {
    let findings = run("l2_boundary_violation.rs");
    let json = sketches_lint::to_json(&findings);
    assert!(json.contains("\"rule\": \"L2\""));
    assert!(json.contains("\"count\": 1"));
    assert!(json.contains("\"ok\": false"));
}
