//! Pluggable time sources.
//!
//! Clippy's `disallowed_methods` (see `crates/clippy.toml`) bans ambient time
//! reads because sketch behavior must be a pure function of
//! `(input, seed)`. Telemetry still needs wall time, so the workspace
//! routes every time read through the [`Clock`] trait: binaries install
//! [`MonotonicClock`] (the single sanctioned `Instant::now` call site,
//! under an `#[expect(clippy::disallowed_methods)]`), and
//! tests install [`ManualClock`], which only moves when advanced by hand.
//! Clock readings feed *metrics only* — never sketch state — so replicas
//! fed the same stream still produce identical summaries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A monotonic nanosecond time source.
///
/// Implementations must be monotone (readings never decrease) and cheap —
/// the engines read the clock a couple of times per *batch*, never per
/// row.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin (e.g. first read).
    fn now_nanos(&self) -> u64;
}

/// Real monotonic time, anchored at the first reading.
///
/// The anchor lives inside the first `now_nanos` call rather than the
/// constructor so that *every* `Instant::now` in library code sits
/// lexically inside this `Clock` impl, the one place outside test code
/// that suppresses `clippy::disallowed_methods` (the `sketches-lint`
/// test `clippy_carries_l2_panic_half_and_l4` pins that).
#[derive(Debug, Default)]
pub struct MonotonicClock {
    origin: OnceLock<Instant>,
}

impl MonotonicClock {
    /// Creates an unanchored clock; the origin is fixed at the first read.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        #[expect(
            clippy::disallowed_methods,
            reason = "the one sanctioned ambient-time read; feeds latency metrics only, never sketch state"
        )]
        let now = Instant::now();
        let origin = self.origin.get_or_init(|| now);
        // u64 nanos covers ~584 years of process uptime.
        now.saturating_duration_since(*origin).as_nanos() as u64
    }
}

/// A deterministic clock for tests: reads only change via [`advance`]
/// (or [`set`]), so timing-derived metrics are reproducible bit-for-bit.
///
/// [`advance`]: ManualClock::advance
/// [`set`]: ManualClock::set
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// Creates a clock reading zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a clock reading `nanos`.
    #[must_use]
    pub fn starting_at(nanos: u64) -> Self {
        Self {
            nanos: AtomicU64::new(nanos),
        }
    }

    /// Moves the clock forward by `delta_nanos`.
    pub fn advance(&self, delta_nanos: u64) {
        self.nanos.fetch_add(delta_nanos, Ordering::Relaxed);
    }

    /// Sets the absolute reading. Callers are responsible for keeping it
    /// monotone.
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        assert_eq!(c.now_nanos(), 0);
        c.advance(250);
        assert_eq!(c.now_nanos(), 250);
        c.set(1_000);
        assert_eq!(c.now_nanos(), 1_000);
    }

    #[test]
    fn monotonic_clock_is_monotone_and_starts_near_zero() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
        // The first read anchors the origin, so it is exactly zero.
        assert_eq!(a, 0);
    }

    #[test]
    fn clock_trait_objects_are_shareable() {
        let c: std::sync::Arc<dyn Clock> = std::sync::Arc::new(ManualClock::starting_at(7));
        assert_eq!(c.now_nanos(), 7);
    }
}
