//! Stream sampling — the oldest sketch of all.
//!
//! The survey opens its history with reservoir sampling ("the earliest
//! instance of something that we could reasonably refer to as a sketch
//! algorithm") and closes it with the `L_p` samplers of the PODS 2011
//! test-of-time award. Both ends of that arc live here:
//!
//! * [`reservoir`] — uniform reservoir sampling, both the classic
//!   Algorithm R (one coin per item) and the skip-ahead Algorithm L
//!   (`O(k·log(n/k))` coins total).
//! * [`weighted`] — the Efraimidis–Spirakis A-ES weighted reservoir
//!   (`Pr[i ∈ sample] ∝ wᵢ` via keys `uᵢ^{1/wᵢ}`).
//! * [`bernoulli`] — fixed-rate sampling, the baseline the advertising
//!   section of the survey says "exact" warehouses actually use.
//! * [`distinct`] — min-wise distinct sampling: a uniform sample of the
//!   *support* rather than of the occurrences.
//! * [`recovery`] — 1-sparse and s-sparse vector recovery over turnstile
//!   (insert/delete) streams, the building block of graph sketching.
//! * [`l0`] — the L0 sampler: a uniform sample of the nonzero coordinates
//!   of a dynamic vector, built from levelled sparse recovery.
//! * [`lp`] — precision sampling (`Pr[i] ∝ fᵢᵖ / Fₚ`) via scaled
//!   Count-Sketch with dyadic argmax search, p ∈ (0, 2].

pub mod bernoulli;
pub mod distinct;
pub mod l0;
pub mod lp;
pub mod recovery;
pub mod reservoir;
pub mod weighted;

pub use bernoulli::BernoulliSampler;
pub use distinct::DistinctSampler;
pub use l0::L0Sampler;
pub use lp::LpSampler;
pub use recovery::{OneSparseRecovery, SparseRecovery};
pub use reservoir::{ReservoirL, ReservoirR};
pub use weighted::WeightedReservoir;
