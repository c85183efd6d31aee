//! Frequency-estimation sketches and heavy-hitter trackers.
//!
//! The survey traces two families of frequency summaries, both implemented
//! here:
//!
//! **Counter-based (deterministic)** — keep a small set of candidate items
//! with counters:
//! * [`majority::BoyerMoore`] — the 1981 majority-vote algorithm.
//! * [`misra_gries::MisraGries`] — its k-counter generalization (1982),
//!   estimating every frequency within `n/k` using `k − 1` counters.
//! * [`space_saving::SpaceSaving`] — the 2005 always-overestimate variant,
//!   later shown equivalent to Misra–Gries.
//!
//! **Linear sketches (randomized)** — hash counts into a small matrix:
//! * [`count_min::CountMinSketch`] — `ε‖f‖₁` error in `O((1/ε)·log(1/δ))`
//!   counters, plus conservative update and dyadic range queries.
//! * [`count_sketch::CountSketch`] — the Charikar–Chen–Farach-Colton
//!   sketch with `ε‖f‖₂` error, the stronger guarantee on flat streams.
//!
//! Experiments E4/E5 reproduce the survey's claim that skew decides the
//! winner between the `L1` and `L2` guarantees.
//!
//! [`heavy_hitters::HeavyHittersTracker`] combines a linear sketch with a
//! candidate heap to report all items above a `φ·n` threshold.
//!
//! [`sf::SfSketch`] is the two-stage (read/write-split) frequency sketch:
//! a fat Count-Min update side maintains a far smaller slim query side
//! that ships across shards and the wire via
//! [`sketches_core::QueryView`].
//!
//! # Quick example
//!
//! ```
//! use sketches_frequency::{CountMinSketch, SpaceSaving};
//! use sketches_core::{FrequencyEstimator, Update};
//!
//! let mut cm = CountMinSketch::new(1024, 5, 42).unwrap();
//! let mut top: SpaceSaving<&str> = SpaceSaving::new(8).unwrap();
//! for _ in 0..1_000 {
//!     cm.update("popular");
//!     top.update(&"popular");
//! }
//! cm.update("rare");
//! assert!(FrequencyEstimator::estimate(&cm, "popular") >= 1_000);
//! assert_eq!(top.top_k(1)[0].0, "popular");
//! ```

pub mod count_min;
pub mod count_sketch;
pub mod heavy_hitters;
pub mod majority;
pub mod misra_gries;
pub mod sf;
pub mod space_saving;

pub use count_min::{CmRangeSketch, CountMinSketch};
pub use count_sketch::CountSketch;
pub use heavy_hitters::HeavyHittersTracker;
pub use majority::BoyerMoore;
pub use misra_gries::MisraGries;
pub use sf::{SfSketch, SlimSketch};
pub use space_saving::SpaceSaving;
