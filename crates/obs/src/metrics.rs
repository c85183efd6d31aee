//! Metric primitives: atomic counters and gauges, and a KLL-backed
//! latency histogram.
//!
//! Counters and gauges update through `&self` (relaxed atomics) so they
//! can be bumped from shard workers without locks; the histogram records
//! through `&mut self` — the engines only touch it at batch granularity,
//! where exclusive access is already in hand — and queries through
//! `&self`.

use std::sync::atomic::{AtomicU64, Ordering};

use sketches_core::MergeSketch;
use sketches_core::QuantileSketch;
use sketches_core::Update;
use sketches_quantiles::KllSketch;

use crate::clock::Clock;
use crate::snapshot::HistogramSnapshot;

/// KLL accuracy parameter shared by every obs histogram. Fixed so that
/// histograms from different shards/processes always merge.
pub const OBS_KLL_K: usize = 128;

/// KLL seed shared by every obs histogram; same rationale as [`OBS_KLL_K`].
pub const OBS_KLL_SEED: u64 = 0x0B5E_0B5E_0B5E;

/// A monotone event counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Rewinds to an absolute value — used by transactional ingest to
    /// restore the pre-batch reading when a batch rolls back, keeping
    /// counters exact rather than merely monotone.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Self {
            value: AtomicU64::new(self.get()),
        }
    }
}

/// A point-in-time level (relaxed atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `n` to the level.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Clone for Gauge {
    fn clone(&self) -> Self {
        let g = Self::new();
        g.set(self.get());
        g
    }
}

/// A latency distribution held in the workspace's own KLL sketch.
///
/// Unlike fixed-bucket histograms, the sketch needs no a-priori bucket
/// layout, merges losslessly across shards, and answers arbitrary
/// quantiles (p50/p90/p99/max) with the KLL rank guarantee. Values are
/// recorded in nanoseconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    kll: KllSketch,
}

impl LatencyHistogram {
    /// Creates an empty histogram with the workspace-standard shape
    /// ([`OBS_KLL_K`], [`OBS_KLL_SEED`]).
    #[must_use]
    pub fn new() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "OBS_KLL_K is a compile-time constant >= 8, so construction cannot fail"
        )]
        let kll = KllSketch::new(OBS_KLL_K, OBS_KLL_SEED).expect("OBS_KLL_K is a valid KLL k");
        Self { kll }
    }

    /// Records one duration in nanoseconds.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.kll.update(&(nanos as f64));
    }

    /// Records one duration in seconds.
    pub fn record_secs(&mut self, secs: f64) {
        if secs.is_finite() && secs >= 0.0 {
            self.kll.update(&(secs * 1e9));
        }
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.kll.count()
    }

    /// A mergeable point-in-time copy of the distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::from_kll(self.kll.clone())
    }

    /// Folds another histogram's recordings into this one, losslessly.
    /// Infallible: every obs histogram is built with the same fixed shape
    /// ([`OBS_KLL_K`], [`OBS_KLL_SEED`]), so the KLL merge cannot reject.
    pub fn merge(&mut self, other: &Self) {
        #[expect(
            clippy::expect_used,
            reason = "every obs histogram shares one fixed (k, seed), so KLL merge cannot fail"
        )]
        self.kll
            .merge(&other.kll)
            .expect("obs histograms share one KLL shape");
    }

    /// Starts an RAII span that records into this histogram when dropped.
    pub fn time<'a>(&'a mut self, clock: &'a dyn Clock) -> Span<'a> {
        Span::start(clock, self)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// An RAII timer: measures from construction to drop and records the
/// elapsed nanoseconds into a [`LatencyHistogram`].
///
/// ```
/// use sketches_obs::{LatencyHistogram, ManualClock, Span};
/// let clock = ManualClock::new();
/// let mut hist = LatencyHistogram::new();
/// {
///     let _guard = Span::start(&clock, &mut hist);
///     clock.advance(42);
/// }
/// assert_eq!(hist.count(), 1);
/// ```
#[derive(Debug)]
pub struct Span<'a> {
    clock: &'a dyn Clock,
    hist: &'a mut LatencyHistogram,
    start: u64,
}

impl<'a> Span<'a> {
    /// Starts timing now.
    pub fn start(clock: &'a dyn Clock, hist: &'a mut LatencyHistogram) -> Self {
        let start = clock.now_nanos();
        Self { clock, hist, start }
    }

    /// Nanoseconds elapsed so far.
    #[must_use]
    pub fn elapsed_nanos(&self) -> u64 {
        self.clock.now_nanos().saturating_sub(self.start)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let elapsed = self.elapsed_nanos();
        self.hist.record_nanos(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn counter_add_get_set_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.set(7);
        assert_eq!(c.get(), 7);
        assert_eq!(c.clone().get(), 7);
    }

    #[test]
    fn gauge_tracks_level() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        assert_eq!(g.get(), 15);
        assert_eq!(g.clone().get(), 15);
    }

    #[test]
    fn histogram_reports_quantiles() {
        let mut h = LatencyHistogram::new();
        for n in 1..=1_000u64 {
            h.record_nanos(n);
        }
        assert_eq!(h.count(), 1_000);
        let snap = h.snapshot();
        let p50 = snap.quantile_nanos(0.5).unwrap();
        assert!((400.0..=600.0).contains(&p50), "p50 = {p50}");
        assert_eq!(snap.quantile_nanos(1.0).unwrap(), 1_000.0);
    }

    #[test]
    fn record_secs_converts_and_rejects_garbage() {
        let mut h = LatencyHistogram::new();
        h.record_secs(1.5e-6);
        h.record_secs(f64::NAN);
        h.record_secs(-1.0);
        assert_eq!(h.count(), 1);
        let max = h.snapshot().quantile_nanos(1.0).unwrap();
        assert!((max - 1_500.0).abs() < 1e-9);
    }

    #[test]
    fn merge_is_lossless_on_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for n in 0..500u64 {
            a.record_nanos(n);
            b.record_nanos(10_000 + n);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1_000);
        assert_eq!(a.snapshot().quantile_nanos(1.0).unwrap(), 10_499.0);
    }

    #[test]
    fn span_records_on_drop() {
        let clock = ManualClock::new();
        let mut h = LatencyHistogram::new();
        {
            let span = h.time(&clock);
            clock.advance(1_234);
            assert_eq!(span.elapsed_nanos(), 1_234);
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.snapshot().quantile_nanos(1.0).unwrap(), 1_234.0);
    }
}
