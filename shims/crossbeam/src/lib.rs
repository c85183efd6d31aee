//! Offline stand-in for `crossbeam`: scoped threads over
//! `std::thread::scope` and MPSC channels over `std::sync::mpsc`.
//!
//! The API mirrors the crossbeam 0.8 call sites used in this workspace:
//!
//! * `crossbeam::scope(|scope| { scope.spawn(|_| ...); })` returning
//!   `Result<R, Box<dyn Any + Send>>` (Err when any spawned thread
//!   panicked).
//! * `crossbeam::channel::bounded` with cloneable senders and iterable
//!   receivers. `unbounded` is left out on purpose: every queue in the
//!   workspace applies backpressure.

pub mod channel;
pub mod thread;

pub use thread::scope;
