//! The buffered (thread-local + epoch-merge) concurrent sketch wrapper.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use sketches_core::{Clear, MergeSketch, SketchError, SketchResult, Update};

/// Process-wide count of buffered updates that were lost because a
/// [`WriterHandle`] was dropped while its final flush failed (see
/// [`lost_updates`]). Monotone; never reset.
static LOST_UPDATES: AtomicU64 = AtomicU64::new(0);

/// Buffered updates lost to failed drop-time flushes, process-wide.
///
/// A [`WriterHandle`] dropped with pending updates flushes them as a last
/// resort, but `Drop` cannot surface a flush error — the loss is recorded
/// here instead so operators (and tests) can observe it. Call
/// [`WriterHandle::close`] to surface the error as a `Result` and keep
/// this counter at zero.
#[must_use]
pub fn lost_updates() -> u64 {
    LOST_UPDATES.load(Ordering::Relaxed)
}

/// A concurrent wrapper around any mergeable sketch `S`.
///
/// Writers call [`BufferedConcurrent::writer`] to obtain a
/// [`WriterHandle`] holding a private local sketch; every `buffer_size`
/// updates (and on drop) the local sketch is merged into the shared
/// global under a short write lock. Readers call
/// [`BufferedConcurrent::snapshot`] for a relaxed-consistency copy.
#[derive(Debug)]
pub struct BufferedConcurrent<S> {
    global: Arc<RwLock<S>>,
    /// A pristine clone used to mint fresh local sketches (same seeds, so
    /// locals merge into the global without error).
    template: S,
    buffer_size: usize,
}

impl<S: MergeSketch + Clear + Clone> BufferedConcurrent<S> {
    /// Wraps a sketch; locals flush every `buffer_size` updates.
    ///
    /// If `sketch` is non-empty its contents are **retained as the global
    /// baseline** — they appear in every [`snapshot`](Self::snapshot), as
    /// if they had been flushed by a writer before the wrapper was built.
    /// This is deliberate (it lets a checkpointed sketch resume under
    /// concurrent writers). The writer template is cleared here, so
    /// [`writer`](Self::writer) handles always start empty and never
    /// re-merge the baseline.
    ///
    /// # Errors
    /// Returns a typed [`SketchError::InvalidParameter`] if
    /// `buffer_size == 0` — the same contract as every other capacity
    /// parameter in the workspace. (Before this validation the zero was
    /// silently clamped to 1, hiding caller bugs.)
    pub fn new(sketch: S, buffer_size: usize) -> SketchResult<Self> {
        if buffer_size == 0 {
            return Err(SketchError::invalid(
                "buffer_size",
                "need a buffer of at least one update",
            ));
        }
        let mut template = sketch.clone();
        template.clear();
        Ok(Self {
            template,
            global: Arc::new(RwLock::new(sketch)),
            buffer_size,
        })
    }

    /// Mints a writer handle with its own (empty) local sketch.
    #[must_use]
    pub fn writer(&self) -> WriterHandle<S> {
        let local = self.template.clone();
        WriterHandle {
            global: Arc::clone(&self.global),
            local,
            pending: 0,
            buffer_size: self.buffer_size,
        }
    }

    /// A relaxed-consistency snapshot of the global sketch (updates still
    /// sitting in writer buffers are not included).
    #[must_use]
    pub fn snapshot(&self) -> S {
        self.global.read().clone()
    }

    /// Applies `f` to a fresh snapshot of the global sketch.
    ///
    /// The closure runs on a clone taken *after* the read lock has been
    /// released, so `f` may freely touch this wrapper again (call
    /// [`snapshot`](Self::snapshot), mint a writer, even flush) without
    /// deadlocking. An earlier version ran `f` under the `parking_lot`
    /// read lock, which is not reentrant — a closure that re-entered the
    /// wrapper could deadlock against a queued writer.
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.snapshot())
    }
}

/// A per-thread writer for a [`BufferedConcurrent`].
#[derive(Debug)]
pub struct WriterHandle<S: MergeSketch + Clear> {
    global: Arc<RwLock<S>>,
    local: S,
    pending: usize,
    buffer_size: usize,
}

impl<S: MergeSketch + Clear> WriterHandle<S> {
    /// Absorbs one item into the local sketch, flushing when the buffer
    /// epoch ends.
    pub fn update<T: ?Sized>(&mut self, item: &T)
    where
        S: Update<T>,
    {
        self.local.update(item);
        self.pending += 1;
        if self.pending >= self.buffer_size {
            #[expect(
                clippy::expect_used,
                reason = "local and global are clones of one template, so merge parameters always match"
            )]
            self.flush().expect("template-derived locals always merge");
        }
    }

    /// Merges the local buffer into the global sketch.
    ///
    /// # Errors
    /// Propagates merge incompatibility (impossible for handles minted by
    /// [`BufferedConcurrent::writer`]).
    pub fn flush(&mut self) -> SketchResult<()> {
        if self.pending == 0 {
            return Ok(());
        }
        self.global.write().merge(&self.local)?;
        self.local.clear();
        self.pending = 0;
        Ok(())
    }

    /// Updates not yet visible to readers.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Flushes any pending updates and consumes the handle, surfacing the
    /// flush error that `Drop` would otherwise have to swallow.
    ///
    /// On error the buffered updates are discarded (they could not be
    /// merged) but the loss is *reported to the caller* rather than
    /// counted in [`lost_updates`]; prefer this over relying on `Drop`
    /// whenever the flush result matters.
    ///
    /// # Errors
    /// Propagates merge incompatibility from the final flush (impossible
    /// for handles minted by [`BufferedConcurrent::writer`], possible if
    /// the handle outlived a global swapped to an incompatible sketch).
    pub fn close(mut self) -> SketchResult<()> {
        let result = self.flush();
        if result.is_err() {
            // The error is being surfaced to the caller; zero the buffer so
            // the upcoming Drop does not also count the loss in
            // `lost_updates` (that counter is for *silent* losses only).
            self.local.clear();
            self.pending = 0;
        }
        result
    }
}

impl<S: MergeSketch + Clear> Drop for WriterHandle<S> {
    fn drop(&mut self) {
        // `flush` leaves `pending` untouched on error, so on failure it
        // still counts the updates that just vanished. Drop cannot return
        // the error; record the loss where operators and tests can see it.
        // lint: drop-ok(best-effort backstop: failure is counted in LOST_UPDATES; close() is the error-surfacing path)
        if self.flush().is_err() {
            LOST_UPDATES.fetch_add(self.pending as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_cardinality::HyperLogLog;
    use sketches_core::CardinalityEstimator;
    use sketches_core::FrequencyEstimator;
    use sketches_frequency::CountMinSketch;

    /// A sketch whose merges can be made to fail on demand: flipping
    /// `reject_merges` on the *global* simulates a merge-incompatible
    /// global (wrong seeds / swapped sketch) without unsafe tricks.
    /// `Clear` preserves the flag, so a rejecting global stays rejecting.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct RejectingMerge {
        count: u64,
        reject_merges: bool,
    }

    impl RejectingMerge {
        fn new() -> Self {
            Self {
                count: 0,
                reject_merges: false,
            }
        }
    }

    impl Update<u64> for RejectingMerge {
        fn update(&mut self, _item: &u64) {
            self.count += 1;
        }
    }

    impl MergeSketch for RejectingMerge {
        fn merge(&mut self, other: &Self) -> SketchResult<()> {
            if self.reject_merges {
                return Err(SketchError::incompatible("merge rejected by test"));
            }
            self.count += other.count;
            Ok(())
        }
    }

    impl Clear for RejectingMerge {
        fn clear(&mut self) {
            self.count = 0;
        }
    }

    #[test]
    fn single_writer_roundtrip() {
        let hll = HyperLogLog::new(12, 1).unwrap();
        let conc = BufferedConcurrent::new(hll, 64).unwrap();
        let mut w = conc.writer();
        for i in 0..10_000u64 {
            w.update(&i);
        }
        w.flush().unwrap();
        let est = conc.snapshot().estimate();
        let rel = (est - 10_000.0).abs() / 10_000.0;
        assert!(rel < 0.1, "estimate {est}");
    }

    #[test]
    fn snapshot_lags_by_at_most_buffer() {
        let hll = HyperLogLog::new(10, 2).unwrap();
        let conc = BufferedConcurrent::new(hll, 100).unwrap();
        let mut w = conc.writer();
        for i in 0..50u64 {
            w.update(&i);
        }
        // Not yet flushed: snapshot sees nothing.
        assert_eq!(conc.snapshot().estimate(), 0.0);
        assert_eq!(w.pending(), 50);
        for i in 50..100u64 {
            w.update(&i);
        }
        // Buffer hit 100 → auto-flush.
        assert_eq!(w.pending(), 0);
        assert!(conc.snapshot().estimate() > 50.0);
    }

    #[test]
    fn multi_threaded_writers_converge() {
        let cm = CountMinSketch::new(2048, 5, 3).unwrap();
        let conc = BufferedConcurrent::new(cm, 256).unwrap();
        let threads = 8u64;
        let per_thread = 20_000u32;
        crossbeam::scope(|scope| {
            for t in 0..threads {
                let mut w = conc.writer();
                scope.spawn(move |_| {
                    for i in 0..per_thread {
                        // Every thread hits item (i % 100): total count per
                        // item = threads * per_thread / 100.
                        w.update(&(i % 100));
                        let _ = t;
                    }
                    // Drop flushes the tail.
                });
            }
        })
        .expect("threads join");
        let snap = conc.snapshot();
        let expected = threads * u64::from(per_thread) / 100;
        for item in 0..100u32 {
            let est = FrequencyEstimator::estimate(&snap, &item);
            assert!(
                est >= expected && est <= expected + expected / 5,
                "item {item}: {est} vs expected {expected}"
            );
        }
        assert_eq!(snap.total(), threads * u64::from(per_thread));
    }

    #[test]
    fn pre_seeded_sketch_is_baseline_not_writer_state() {
        // A non-empty input sketch must be retained in the global (it shows
        // up in snapshots) but must NOT leak into writer locals — before the
        // template was cleared in `new`, each writer handle depended on
        // `writer()` remembering to clear, and the merged result would
        // double-count the baseline if that clear were ever dropped.
        let mut seeded = HyperLogLog::new(10, 7).unwrap();
        for i in 0..5_000u64 {
            sketches_core::Update::update(&mut seeded, &i);
        }
        let baseline = seeded.clone();
        let conc = BufferedConcurrent::new(seeded, 64).unwrap();
        // Snapshot reflects the baseline before any writer activity.
        assert_eq!(conc.snapshot(), baseline);
        // A writer flushing nothing new leaves the global bit-identical:
        // its local started empty, so merging it is a no-op.
        let mut w = conc.writer();
        for i in 0..5_000u64 {
            w.update(&i);
        }
        w.flush().unwrap();
        assert_eq!(conc.snapshot(), baseline);
        // Genuinely new items still land on top of the baseline.
        for i in 5_000..6_000u64 {
            w.update(&i);
        }
        w.flush().unwrap();
        let est = conc.snapshot().estimate();
        let rel = (est - 6_000.0).abs() / 6_000.0;
        assert!(rel < 0.15, "estimate {est} should cover baseline + new");
    }

    #[test]
    fn drop_flushes_pending() {
        let hll = HyperLogLog::new(10, 4).unwrap();
        let conc = BufferedConcurrent::new(hll, 1_000_000).unwrap();
        {
            let mut w = conc.writer();
            for i in 0..500u64 {
                w.update(&i);
            }
            assert_eq!(conc.snapshot().estimate(), 0.0);
        } // drop here
        assert!(conc.snapshot().estimate() > 400.0);
    }

    #[test]
    fn hll_concurrent_matches_sequential_exactly() {
        // Register-max merging is order-independent, so the concurrent
        // result must equal the sequential sketch bit for bit.
        let seq = {
            let mut h = HyperLogLog::new(11, 5).unwrap();
            for i in 0..30_000u64 {
                sketches_core::Update::update(&mut h, &i);
            }
            h
        };
        let conc = BufferedConcurrent::new(HyperLogLog::new(11, 5).unwrap(), 128).unwrap();
        crossbeam::scope(|scope| {
            for t in 0..6u64 {
                let mut w = conc.writer();
                scope.spawn(move |_| {
                    let mut i = t;
                    while i < 30_000 {
                        w.update(&i);
                        i += 6;
                    }
                });
            }
        })
        .expect("join");
        assert_eq!(conc.snapshot(), seq);
    }

    #[test]
    fn zero_buffer_size_is_a_typed_error() {
        // Regression: `new(sketch, 0)` used to silently clamp to 1; it must
        // reject with the same typed error family as ShardedEngine's
        // `num_shards == 0` validation.
        let hll = HyperLogLog::new(10, 1).unwrap();
        let err = BufferedConcurrent::new(hll, 0).unwrap_err();
        assert!(
            matches!(err, SketchError::InvalidParameter { name, .. } if name == "buffer_size"),
            "want InvalidParameter(buffer_size), got {err:?}"
        );
    }

    #[test]
    fn close_surfaces_flush_error_without_counting_loss() {
        // Regression: dropping a writer whose final flush fails used to
        // swallow the error with no trace. `close()` must surface it.
        let conc = BufferedConcurrent::new(RejectingMerge::new(), 1_000).unwrap();
        let mut w = conc.writer();
        for i in 0..10u64 {
            w.update(&i); // buffer_size 1000 → no auto-flush
        }
        // Sabotage the global so the final merge fails.
        conc.global.write().reject_merges = true;
        let before = lost_updates();
        let err = w.close().unwrap_err();
        assert!(matches!(err, SketchError::Incompatible { .. }), "{err:?}");
        // The loss was *reported*, not silent: the counter must not move.
        assert_eq!(lost_updates(), before);
    }

    #[test]
    fn drop_records_silent_loss_in_counter() {
        // Regression: a failed drop-time flush must be observable.
        let conc = BufferedConcurrent::new(RejectingMerge::new(), 1_000).unwrap();
        let mut w = conc.writer();
        for i in 0..7u64 {
            w.update(&i);
        }
        conc.global.write().reject_merges = true;
        let before = lost_updates();
        drop(w);
        assert_eq!(
            lost_updates() - before,
            7,
            "drop must count every update lost to the failed flush"
        );
        // A clean drop (flush succeeds) leaves the counter alone.
        conc.global.write().reject_merges = false;
        let mut w2 = conc.writer();
        w2.update(&1u64);
        let before = lost_updates();
        drop(w2);
        assert_eq!(lost_updates(), before);
    }

    #[test]
    fn read_closure_may_reenter_the_wrapper() {
        // Regression: `read` used to hold the read lock across the caller's
        // closure; a closure touching the same wrapper could deadlock
        // against a queued writer. Clone-then-call makes re-entry safe.
        let hll = HyperLogLog::new(10, 3).unwrap();
        let conc = BufferedConcurrent::new(hll, 4).unwrap();
        let mut w = conc.writer();
        for i in 0..16u64 {
            w.update(&i);
        }
        w.flush().unwrap();
        let (outer, inner) = conc.read(|snap| {
            // Re-entering the wrapper inside the closure: snapshot() takes
            // the read lock again, and a writer flush takes the write lock.
            let nested = conc.read(|s| s.estimate());
            let mut w2 = conc.writer();
            w2.update(&99_999u64);
            w2.flush().unwrap();
            (snap.estimate(), nested)
        });
        assert_eq!(outer, inner);
        assert!(conc.snapshot().estimate() > outer);
    }
}
