//! Privacy-preserving data analysis with sketches (§3 of the survey,
//! "Private Data Analysis").
//!
//! The survey's observation: sketch representations "mix and concentrate
//! the information from many individuals, making the perturbations due to
//! privacy less disruptive than other representations would be". This
//! crate builds the deployed systems it names:
//!
//! * [`mechanisms`] — randomized response (Warner 1965), the Laplace and
//!   discrete geometric mechanisms, and ε-budget accounting.
//! * [`frequency_oracle`] — k-ary randomized response (generalized RR),
//!   the basic ε-LDP frequency oracle.
//! * [`rappor`] — Google's RAPPOR (CCS 2014): Bloom filter + permanent
//!   randomized response (plus the longitudinal instantaneous layer),
//!   with a Count-Min-style debiased decoder.
//! * [`private_cms`] — Apple's private Count-Mean-Sketch (2017): one-hot
//!   rows under symmetric RR, aggregated and debiased server-side.
//! * [`dp_sketch`] — central-DP linear sketches (Zhao et al., NeurIPS
//!   2022): Laplace-noised Count-Min and Count-Sketch with
//!   sensitivity-calibrated scale, and the noisy-histogram baseline for
//!   experiment E12.

pub mod dp_sketch;
pub mod frequency_oracle;
pub mod mechanisms;
pub mod private_cms;
pub mod rappor;

pub use dp_sketch::{DpCountMin, DpCountSketch, DpHistogram};
pub use frequency_oracle::GrrFrequencyOracle;
pub use mechanisms::{discrete_geometric, laplace_noise, randomized_response, PrivacyBudget};
pub use private_cms::{PrivateCmsClient, PrivateCmsServer};
pub use rappor::{LongitudinalReporter, RapporAggregator, RapporClient};
