//! Locality-sensitive hashing (Indyk & Motwani, STOC 1998).
//!
//! The survey highlights LSH as the sketch family behind multimedia
//! similarity search at the early internet companies, and notes the same
//! machinery now serves learned vector embeddings. Three classic families
//! and an index:
//!
//! * [`minhash`] — MinHash signatures for Jaccard similarity of sets
//!   (k-hash and one-permutation-with-densification variants).
//! * [`simhash`] — sign-random-projection signatures for cosine/angular
//!   similarity of vectors.
//! * [`pstable`] — p-stable (Gaussian, `p = 2`) LSH for Euclidean
//!   distance, the E2LSH scheme.
//! * [`index`] — banded candidate-generation indexes over MinHash
//!   signatures (the LSH S-curve of experiment E10) and over concatenated
//!   E2LSH keys.

pub mod index;
pub mod minhash;
pub mod pstable;
pub mod simhash;

pub use index::{EuclideanLshIndex, MinHashIndex};
pub use minhash::{MinHashSignature, MinHasher, OnePermMinHasher};
pub use pstable::PStableHasher;
pub use simhash::{SimHashSignature, SimHasher};
