//! Support library for the experiments binary: table printing and timing.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods,
    reason = "the experiment harness is a fail-fast binary that times things: a \
              sketch-construction error here is a bug in the experiment itself, and \
              wall-clock reads are its job, never sketch state"
)]

use std::sync::OnceLock;
use std::time::Instant;

pub mod experiments;

/// Whether `--metrics-json` was passed to the experiments driver.
static METRICS_JSON: OnceLock<bool> = OnceLock::new();

/// Records the `--metrics-json` flag (first call wins; later calls are
/// ignored so tests can't fight over process-global state).
pub fn set_metrics_json(enabled: bool) {
    let _ = METRICS_JSON.set(enabled);
}

/// True when the driver was asked to dump telemetry snapshots as JSON
/// (experiments that cut a snapshot append it after their table).
#[must_use]
pub fn metrics_json_enabled() -> bool {
    *METRICS_JSON.get().unwrap_or(&false)
}

/// Prints an experiment header.
pub fn header(id: &str, claim: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{id}: {claim}");
    println!("{}", "=".repeat(78));
}

/// Prints a table row from already-formatted cells, right-aligned in
/// 12-char columns (first column 24 chars, left-aligned).
pub fn row(cells: &[String]) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i == 0 {
            line.push_str(&format!("{c:<26}"));
        } else {
            line.push_str(&format!("{c:>13}"));
        }
    }
    println!("{line}");
}

/// Convenience: builds a row from display items.
#[macro_export]
macro_rules! trow {
    ($($cell:expr),* $(,)?) => {
        $crate::row(&[$(format!("{}", $cell)),*])
    };
}

/// Times a closure, returning (result, seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Formats a byte count human-readably.
#[must_use]
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
    }
}
