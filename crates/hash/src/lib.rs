//! Deterministic hashing primitives and pseudo-random number generation for
//! data sketches.
//!
//! Every sketch in this workspace is randomized, and every experiment must be
//! bit-reproducible across runs and platforms. This crate therefore provides
//! the full random toolbox used by the rest of the workspace, with no
//! dependence on platform hashers or external RNG crates:
//!
//! * [`mix`] — finalizer-style 64-bit mixers (SplitMix64, Murmur3 `fmix64`).
//! * [`xxhash`] — a faithful XXH64 implementation for hashing byte strings.
//! * [`hasher`] — a seeded [`std::hash::Hasher`] so that any `T: Hash` can be
//!   fed to a sketch deterministically, plus the [`hash_item`] convenience.
//! * [`family`] — k-wise independent hash families (multiply-shift pairwise,
//!   polynomial over the Mersenne prime `2^61 - 1`) and sign hashes used by
//!   AMS / Count-Sketch style algorithms.
//! * [`tabulation`] — simple tabulation hashing (3-wise independent, and
//!   empirically far stronger).
//! * [`rng`] — SplitMix64 and Xoshiro256++ PRNGs with helpers for uniform
//!   ranges, floats, Gaussians, exponentials, and permutations.
//! * [`bits`] — small bit-twiddling helpers shared by the sketch crates.
//!
//! # Example
//!
//! ```
//! use sketches_hash::{hash_item, family::PairwiseHash, rng::SplitMix64};
//!
//! // Hash any `T: Hash` under a seed:
//! let h1 = hash_item(&"alice", 7);
//! let h2 = hash_item(&"alice", 7);
//! assert_eq!(h1, h2);
//! assert_ne!(hash_item(&"alice", 7), hash_item(&"alice", 8));
//!
//! // Draw a pairwise-independent function mapping u64 -> [0, 1024):
//! let mut rng = SplitMix64::new(42);
//! let f = PairwiseHash::random(10, &mut rng);
//! assert!(f.hash(12345) < 1024);
//! ```

pub mod bits;
pub mod family;
pub mod hasher;
pub mod mix;
pub mod rng;
pub mod tabulation;
pub mod xxhash;

pub use hasher::{hash_bytes, hash_item, SeededBuildHasher};
pub use mix::mix64;
pub use rng::{Rng64, SplitMix64, Xoshiro256PlusPlus};
