//! Sketched distributed machine learning, after FetchSGD (Rothchild et
//! al., ICML 2020) — the survey's "optimizing machine learning" direction:
//! "sketches that preserve the norm of data in high-dimensional space …
//! leveraged to reduce the communication cost of distributed machine
//! learning".
//!
//! * [`data`] — synthetic linearly-separable classification tasks sharded
//!   across simulated clients.
//! * [`model`] — logistic regression: prediction, loss, gradients.
//! * [`compress`] — the Count-Sketch gradient compressor with top-k
//!   extraction.
//! * [`fetchsgd`] — the training loops: uncompressed FedSGD and FetchSGD
//!   (sketched gradients, server-side momentum and error feedback in
//!   sketch space), with communication accounting for experiment E15.

pub mod compress;
pub mod data;
pub mod fetchsgd;
pub mod model;

pub use compress::GradientSketch;
pub use data::SyntheticTask;
pub use fetchsgd::{FedSgdTrainer, FetchSgdConfig, FetchSgdTrainer, TrainReport};
pub use model::LogisticModel;
