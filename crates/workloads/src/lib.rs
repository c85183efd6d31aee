//! Deterministic workload generators and exact baselines.
//!
//! Every experiment in this workspace runs on synthetic data generated
//! here (the substitution table in `DESIGN.md` maps each generator to the
//! production data source it stands in for):
//!
//! * [`zipf`] — Zipf-distributed item streams via Hörmann
//!   rejection-inversion (`O(1)` memory, any exponent ≥ 0).
//! * [`streams`] — uniform/sequential/Gaussian/sorted/shuffled streams
//!   for cardinality and quantile experiments.
//! * [`flows`] — synthetic IP 5-tuple flow records (the Gigascope/CMON
//!   network-monitoring workload of experiment E16).
//! * [`ads`] — synthetic ad-impression logs with user ids, campaigns, and
//!   demographic slices (the reach-measurement workload of E8).
//! * [`exact`] — hash-set / hash-map exact baselines for distinct counts,
//!   frequencies, and heavy hitters.
//! * [`stats`] — mean/stddev/percentile helpers for aggregating trial
//!   errors in EXPERIMENTS.md tables.
//! * [`faults`] — seeded fault plans (injected ingest errors/panics,
//!   snapshot bit flips and truncations) for the recovery drills of E22.
//! * [`serving`] — mixed ingest+query serving workload (Zipf-hot groups,
//!   independent seeded query schedule) for the concurrency drill of E25.

pub mod ads;
pub mod exact;
pub mod faults;
pub mod flows;
pub mod serving;
pub mod stats;
pub mod streams;
pub mod zipf;

pub use ads::{AdImpression, AdWorkload};
pub use exact::{ExactDistinct, ExactFrequency};
pub use faults::{Corruption, CrashOp, CrashPlan, FaultPlan, IngestFault, PlannedFault};
pub use flows::{FlowRecord, FlowWorkload};
pub use serving::{OverloadBurst, ServingEvent, ServingWorkload};
pub use stats::{mean, percentile, relative_error, stddev};
pub use zipf::ZipfGenerator;
