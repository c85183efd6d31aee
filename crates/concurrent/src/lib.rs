//! Concurrent sketches, after Rinberg et al., *Fast Concurrent Data
//! Sketches* (ACM TOPC 2022) — the engineering the survey credits the
//! Yahoo!/Apache DataSketches project with emphasizing: "the need for
//! concurrency and mergability of sketches".
//!
//! Three designs, compared in experiment E14:
//!
//! * [`buffered::BufferedConcurrent`] — the DataSketches architecture:
//!   each writer thread owns a small local sketch and periodically folds
//!   it into a shared global sketch under a short write lock. Readers get
//!   relaxed-consistency snapshots (they may miss the last `< b` updates
//!   per writer).
//! * [`atomic::AtomicCountMin`] — a lock-free Count-Min over `AtomicU64`
//!   counters: contention-free updates, exactly equal to the sequential
//!   sketch.
//! * [`mutex::MutexSketch`] — the baseline everyone starts with: one big
//!   lock around a sequential sketch.

pub mod atomic;
pub mod buffered;
pub mod mutex;

pub use atomic::AtomicCountMin;
pub use buffered::{BufferedConcurrent, WriterHandle};
pub use mutex::MutexSketch;
