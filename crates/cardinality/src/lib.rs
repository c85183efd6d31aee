//! Cardinality (count-distinct, a.k.a. `F0`) sketches.
//!
//! This crate implements the full lineage of distinct-counting summaries
//! surveyed in Cormode's *Gems of PODS 2023* paper, from the 1977 Morris
//! counter to the modern HyperLogLog++ used across industry:
//!
//! | Module | Algorithm | Year | Space for n distinct |
//! |---|---|---|---|
//! | [`morris`] | Morris approximate counter | 1977 | `O(log log n)` bits |
//! | [`fm`] | Flajolet–Martin / PCSA | 1983 | `O(m log n)` bits |
//! | [`linear_counting`] | Linear Counting | 1990 | `O(n)` bits (small constants) |
//! | [`loglog`] | Durand–Flajolet LogLog | 2003 | `m · log log n` bits |
//! | [`hll`] | HyperLogLog | 2007 | `m · 6` bits, ±1.04/√m |
//! | [`hllpp`] | HLL++ (sparse + improved estimator) | 2013 | adaptive |
//! | [`kmv`] | KMV / bottom-k (θ-sketch style) | 2002+ | `k` hashes, set algebra |
//!
//! All hash-based sketches accept any `T: Hash` via [`sketches_core::Update`]
//! and merge via [`sketches_core::MergeSketch`]; merging two sketches of
//! different substreams yields exactly the sketch of the union (a property
//! the tests verify).
//!
//! # Quick example
//!
//! ```
//! use sketches_cardinality::hll::HyperLogLog;
//! use sketches_core::{CardinalityEstimator, Update};
//!
//! let mut hll = HyperLogLog::new(12, 7).unwrap(); // 4096 registers, seed 7
//! for user in 0..100_000u64 {
//!     hll.update(&user);
//!     hll.update(&user); // duplicates don't count
//! }
//! let est = hll.estimate();
//! assert!((est - 100_000.0).abs() / 100_000.0 < 0.05);
//! ```

pub mod fm;
pub mod hll;
pub mod hllpp;
pub mod kmv;
pub mod linear_counting;
pub mod loglog;
pub mod morris;

pub use fm::Pcsa;
pub use hll::HyperLogLog;
pub use hllpp::HyperLogLogPlusPlus;
pub use kmv::KmvSketch;
pub use linear_counting::LinearCounter;
pub use loglog::LogLog;
pub use morris::MorrisCounter;
