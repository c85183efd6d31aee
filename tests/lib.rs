//! Helper library for the workspace integration tests.
//!
//! The actual integration tests live in `tests/tests/*.rs`; this crate only
//! exists to give them a package to hang off and a couple of shared
//! helpers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory path under the system temp dir, unique within
/// this process: `<prefix>-<pid>-<tag>-<n>`.
///
/// A run that fails before its cleanup leaves its directory behind, and a
/// later run can reuse the pid; anything already at the path is removed
/// first, so a durable engine created there never finds stale files.
#[must_use]
pub fn scratch_dir(prefix: &str, tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("{prefix}-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts that `actual` is within `tol` relative error of `expected`.
///
/// # Panics
/// Panics with a diagnostic message when the relative error exceeds `tol`.
pub fn assert_rel_err(expected: f64, actual: f64, tol: f64, context: &str) {
    let denom = expected.abs().max(1e-12);
    let rel = (actual - expected).abs() / denom;
    assert!(
        rel <= tol,
        "{context}: expected {expected}, got {actual} (relative error {rel:.4} > {tol})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_passes_within_tolerance() {
        assert_rel_err(100.0, 104.0, 0.05, "ok");
    }

    #[test]
    #[should_panic(expected = "relative error")]
    fn rel_err_fails_outside_tolerance() {
        assert_rel_err(100.0, 120.0, 0.05, "bad");
    }
}
