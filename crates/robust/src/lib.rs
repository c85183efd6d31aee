//! Adversarially robust streaming (Ben-Eliezer, Jayaram, Woodruff & Yogev,
//! PODS 2020 best paper).
//!
//! Classic randomized sketches are analyzed against *oblivious* streams.
//! An adversary who sees each estimate before choosing the next update can
//! learn the sketch's randomness and construct a stream that breaks it —
//! [`attack`] implements exactly that against the AMS F₂ sketch. The
//! *sketch switching* defense ([`switching`]) runs λ independent copies
//! (λ = the ε-flip number of the monotone quantity) and reveals a lazily
//! updated estimate, so each copy's randomness is spent only once.
//! Experiment E13 reproduces the break-then-defend story.

pub mod attack;
pub mod switching;

pub use attack::AdaptiveF2Attack;
pub use switching::{flip_number, RobustDistinct, RobustF2};
