//! Regression contract for the `--json` machine interface: the document is
//! versioned (`schema_version`) and finding order is fully deterministic
//! (sorted by file, then line, then rule), so CI diffs and stored
//! baselines stay byte-stable across runs and refactors.

use std::path::PathBuf;

use sketches_lint::findings::{to_json, JSON_SCHEMA_VERSION};
use sketches_lint::{Finding, Rule};

fn finding(file: &str, line: u32, rule: Rule) -> Finding {
    Finding {
        rule,
        file: PathBuf::from(file),
        line,
        message: format!("{} at {file}:{line}", rule.id()),
    }
}

#[test]
fn document_is_versioned() {
    let header = format!("\"schema_version\": {JSON_SCHEMA_VERSION}");
    assert!(to_json(&[]).contains(&header));
    assert!(to_json(&[finding("a.rs", 1, Rule::L2PanicFree)]).contains(&header));
}

#[test]
fn empty_document_reports_ok() {
    let doc = to_json(&[]);
    assert!(doc.contains("\"count\": 0"));
    assert!(doc.contains("\"ok\": true"));
}

#[test]
fn order_is_deterministic_regardless_of_input_order() {
    let a = finding("crates/a/src/lib.rs", 10, Rule::L6GuardHygiene);
    let b = finding("crates/a/src/lib.rs", 10, Rule::L9DropSafety);
    let c = finding("crates/a/src/lib.rs", 2, Rule::L2PanicFree);
    let d = finding("crates/b/src/lib.rs", 1, Rule::L1SortedIteration);
    let sorted = to_json(&[c.clone(), a.clone(), b.clone(), d.clone()]);
    let shuffled = to_json(&[d, b, a, c]);
    assert_eq!(sorted, shuffled, "output must not depend on input order");
    // And the canonical order is (file, line, rule).
    let pos = |needle: &str| {
        sorted
            .find(needle)
            .unwrap_or_else(|| panic!("{needle} missing"))
    };
    assert!(pos("L2 at crates/a/src/lib.rs:2") < pos("L6 at crates/a/src/lib.rs:10"));
    assert!(pos("L6 at crates/a/src/lib.rs:10") < pos("L9 at crates/a/src/lib.rs:10"));
    assert!(pos("L9 at crates/a/src/lib.rs:10") < pos("L1 at crates/b/src/lib.rs:1"));
}

#[test]
fn fields_are_stable() {
    // The five per-finding fields CI parses; renaming any is a breaking
    // change that must bump JSON_SCHEMA_VERSION.
    let doc = to_json(&[finding("a.rs", 3, Rule::L7LockOrder)]);
    for field in [
        "\"rule\":",
        "\"name\":",
        "\"file\":",
        "\"line\":",
        "\"message\":",
    ] {
        assert!(doc.contains(field), "missing {field} in {doc}");
    }
    assert!(doc.contains("\"name\": \"lock-ordering\""));
}
