//! Quantile summaries — the survey's "keystone problem for sketching".
//!
//! The full lineage is implemented, from the 1980 tape-era algorithm to the
//! modern optimal sketch:
//!
//! | Module | Algorithm | Year | Space | Mergeable |
//! |---|---|---|---|---|
//! | [`mrl`] | Munro–Paterson → Manku–Rajagopalan–Lindsay | 1980/1998 | `O((1/ε)·log²(εn))` | ✓ |
//! | [`gk`] | Greenwald–Khanna | 2001 | `O((1/ε)·log(εn))` | ✗ (streaming only) |
//! | [`qdigest`] | q-digest (Shrivastava et al.) | 2004 | `O((1/ε)·log U)` | ✓ |
//! | [`kll`] | Karnin–Lang–Liberty | 2016 | `O((1/ε)·√log(1/δ))` | ✓ |
//! | [`tdigest`] | t-digest (Dunning) | 2013+ | `O(δ)` centroids | ✓ |
//! | [`exact`] | sorted-buffer baseline | — | `O(n)` | ✓ |
//!
//! All real-valued summaries implement [`sketches_core::QuantileSketch`]
//! (`quantile(q)` / `rank(v)` / `count()`); the q-digest works over a
//! bounded integer domain and exposes its own typed API.
//!
//! Experiments E6 (mergeability), E18 (error-vs-space across the lineage),
//! and E19 (tail accuracy, relative-error quantiles) exercise this crate.
//!
//! # Quick example
//!
//! ```
//! use sketches_quantiles::KllSketch;
//! use sketches_core::{MergeSketch, QuantileSketch, Update};
//!
//! let mut site_a = KllSketch::new(200, 1).unwrap();
//! let mut site_b = KllSketch::new(200, 2).unwrap();
//! for i in 0..10_000 {
//!     site_a.update(&f64::from(i));
//!     site_b.update(&f64::from(i + 10_000));
//! }
//! site_a.merge(&site_b).unwrap(); // distributed quantiles: just merge
//! let median = site_a.quantile(0.5).unwrap();
//! assert!((median - 10_000.0).abs() < 600.0);
//! ```

pub mod exact;
pub mod gk;
pub mod kll;
pub mod mrl;
pub mod qdigest;
pub mod tdigest;

pub use exact::ExactQuantiles;
pub use gk::GreenwaldKhanna;
pub use kll::KllSketch;
pub use mrl::MrlSketch;
pub use qdigest::QDigest;
pub use tdigest::TDigest;
