//! # sketches — the data-summary toolbox of the PODS 2023 survey
//!
//! A comprehensive Rust implementation of the sketching landscape surveyed
//! in Graham Cormode's *"Gems of PODS: Applications of Sketching and
//! Pathways to Impact"* (PODS 2023): every major summary from the 1970
//! Bloom filter through HyperLogLog++, KLL, adversarially robust
//! estimators, concurrent sketches, privacy-preserving collection, and
//! sketched federated learning — plus the application substrates the
//! survey says sketches were deployed in.
//!
//! This crate is a facade: each family lives in its own workspace crate,
//! re-exported here under a stable path.
//!
//! | Module | Contents |
//! |---|---|
//! | [`cardinality`] | Morris, Flajolet–Martin, Linear Counting, LogLog, HLL, HLL++, KMV |
//! | [`membership`] | Bloom (classic/partitioned/counting/blocked), Cuckoo filter |
//! | [`frequency`] | Boyer–Moore, Misra–Gries, SpaceSaving, Count-Min, Count-Sketch |
//! | [`quantiles`] | Greenwald–Khanna, MRL, q-digest, KLL, t-digest |
//! | [`sampling`] | Reservoir (R/L), A-ES weighted, distinct, sparse recovery, L0/Lp |
//! | [`linalg`] | AMS, JL (dense/sparse), Frequent Directions, TensorSketch |
//! | [`lsh`] | MinHash, SimHash, p-stable E2LSH, banded indexes |
//! | [`graph`] | AGM linear graph sketches, dynamic connectivity |
//! | [`privacy`] | Randomized response, RAPPOR, private Count-Min, DP sketches |
//! | [`robust`] | Sketch switching, flip numbers, the adaptive-attack harness |
//! | [`concurrent`] | Buffered concurrency, atomic Count-Min, mutex baseline |
//! | [`streamdb`] | Gigascope-style GROUP BY engine with per-group sketches |
//! | [`ml`] | FetchSGD: Count-Sketch gradient compression |
//! | [`hash`] | Deterministic hashing, hash families, PRNGs |
//! | [`core`] | The `Update` / `MergeSketch` / query trait vocabulary |
//!
//! # Quickstart
//!
//! ```
//! use sketches::prelude::*;
//!
//! // How many distinct users did this stream contain?
//! let mut hll = HyperLogLog::new(12, 42).unwrap();
//! for user in 0..50_000u64 {
//!     hll.update(&user);
//! }
//! assert!((hll.estimate() - 50_000.0).abs() / 50_000.0 < 0.05);
//!
//! // Which items were frequent, and how frequent?
//! let mut topk = SpaceSaving::new(8).unwrap();
//! for _ in 0..1_000 {
//!     topk.update(&"popular");
//! }
//! topk.update(&"rare");
//! assert_eq!(topk.top_k(1)[0].0, "popular");
//!
//! // What was the p99 latency?
//! let mut lat = KllSketch::new(200, 7).unwrap();
//! for i in 0..10_000 {
//!     lat.update(&f64::from(i));
//! }
//! assert!(lat.quantile(0.99).unwrap() > 9_500.0);
//! ```

/// The trait vocabulary (`Update`, `MergeSketch`, `SpaceUsage`, …).
pub mod core {
    pub use sketches_core::*;
}

/// Deterministic hashing primitives, hash families, and PRNGs.
pub mod hash {
    pub use sketches_hash::*;
}

/// Count-distinct sketches.
pub mod cardinality {
    pub use sketches_cardinality::*;
}

/// Approximate-membership filters.
pub mod membership {
    pub use sketches_membership::*;
}

/// Frequency estimation and heavy hitters.
pub mod frequency {
    pub use sketches_frequency::*;
}

/// Quantile summaries.
pub mod quantiles {
    pub use sketches_quantiles::*;
}

/// Stream sampling and sparse recovery.
pub mod sampling {
    pub use sketches_sampling::*;
}

/// Linear-algebra sketches.
pub mod linalg {
    pub use sketches_linalg::*;
}

/// Locality-sensitive hashing.
pub mod lsh {
    pub use sketches_lsh::*;
}

/// Linear graph sketching.
pub mod graph {
    pub use sketches_graph::*;
}

/// Privacy-preserving sketches.
pub mod privacy {
    pub use sketches_privacy::*;
}

/// Adversarially robust streaming.
pub mod robust {
    pub use sketches_robust::*;
}

/// Concurrent sketches.
pub mod concurrent {
    pub use sketches_concurrent::*;
}

/// The mini stream-aggregation engine.
pub mod streamdb {
    pub use sketches_streamdb::*;
}

/// Sketched federated learning.
pub mod ml {
    pub use sketches_ml::*;
}

/// The most common names, importable in one line.
pub mod prelude {
    pub use sketches_cardinality::{
        HyperLogLog, HyperLogLogPlusPlus, KmvSketch, LinearCounter, LogLog, MorrisCounter,
    };
    pub use sketches_core::{
        CardinalityEstimator, Clear, FrequencyEstimator, MembershipTester, MergeSketch,
        QuantileSketch, QueryView, SketchError, SketchResult, SpaceUsage, Update,
    };
    pub use sketches_frequency::{
        CountMinSketch, CountSketch, HeavyHittersTracker, MisraGries, SfSketch, SlimSketch,
        SpaceSaving,
    };
    pub use sketches_membership::{BloomFilter, CountingBloomFilter, CuckooFilter};
    pub use sketches_quantiles::{GreenwaldKhanna, KllSketch, QDigest, TDigest};
    pub use sketches_sampling::{DistinctSampler, L0Sampler, ReservoirR, WeightedReservoir};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_paths_resolve() {
        let mut hll = HyperLogLog::new(8, 0).unwrap();
        hll.update(&1u64);
        assert!(hll.estimate() > 0.0);
        let _ = crate::lsh::MinHasher::new(4, 0).unwrap();
        let _ = crate::graph::UnionFind::new(4);
        let _ = crate::privacy::PrivacyBudget::new(1.0).unwrap();
        let _ = crate::ml::LogisticModel::new(4);
    }
}
