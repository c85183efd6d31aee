//! Approximate-membership filters.
//!
//! The Bloom filter (1970) is the survey's canonical "first sketch": a bit
//! array answering *"have I seen this key?"* with no false negatives and a
//! tunable false-positive rate. This crate provides the classic filter and
//! the three engineering descendants a production system reaches for:
//!
//! * [`bloom::BloomFilter`] — the classic `k`-hash filter, with the
//!   double-hashing optimization of Kirsch–Mitzenmacher.
//! * [`bloom::PartitionedBloomFilter`] — one bit per `m/k`-bit partition,
//!   slightly worse FPR but word-parallel friendly and simpler analysis.
//! * [`counting::CountingBloomFilter`] — 8-bit counters instead of bits,
//!   buying deletion support at 8× the space.
//! * [`blocked::BlockedBloomFilter`] — all `k` probes confined to one
//!   64-byte cache line (Putze–Sanders–Singler), trading a little FPR for
//!   one cache miss per op.
//! * [`cuckoo::CuckooFilter`] — fingerprints in a cuckoo hash table (Fan et
//!   al. 2014): deletion support *and* better space at low FPR, the modern
//!   comparator benchmarked in experiment E7.
//!
//! # Quick example
//!
//! ```
//! use sketches_membership::bloom::BloomFilter;
//! use sketches_core::{MembershipTester, Update};
//!
//! let mut f = BloomFilter::with_capacity(10_000, 0.01, 42).unwrap();
//! f.update("alice@example.com");
//! assert!(f.contains("alice@example.com")); // no false negatives
//! ```

pub mod blocked;
pub mod bloom;
pub mod counting;
pub mod cuckoo;
pub(crate) mod util;

pub use blocked::BlockedBloomFilter;
pub use bloom::{BloomFilter, PartitionedBloomFilter};
pub use counting::CountingBloomFilter;
pub use cuckoo::CuckooFilter;
