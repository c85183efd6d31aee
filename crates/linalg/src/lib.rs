//! Sketching as a tool for numerical linear algebra (Woodruff's monograph,
//! cited by the survey as the root of compressed sensing and subspace
//! embeddings).
//!
//! * [`matrix`] — a minimal dense `Matrix` type with the operations the
//!   sketches need (multiply, transpose, norms, Jacobi eigensolver).
//! * [`ams`] — the Alon–Matias–Szegedy "tug-of-war" sketch (STOC 1996)
//!   estimating the second frequency moment `F₂ = ‖f‖₂²`; the survey calls
//!   it "a small-space version of the Johnson–Lindenstrauss lemma".
//! * [`jl`] — dense Johnson–Lindenstrauss transforms (Gaussian and
//!   Rademacher) with distortion-verification helpers.
//! * [`sparse_jl`] — the Kane–Nelson sparse JL transform and its `s = 1`
//!   special case, the CountSketch transform, plus sketched approximate
//!   matrix multiplication.
//! * [`regression`] — sketch-and-solve least squares via subspace
//!   embedding: solve `min ‖Ax−b‖` on a CountSketched problem within
//!   `(1+ε)` of optimal.
//! * [`frequent_directions`] — Liberty's deterministic matrix sketch:
//!   `‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F²/ℓ` in `2ℓ` rows.
//! * [`tensor_sketch`] — Pham–Pagh polynomial-kernel sketching
//!   (`⟨TS(x), TS(y)⟩ ≈ ⟨x, y⟩^q`) via convolution of CountSketches.
//!
//! Experiment E9 reproduces the norm-preservation claims.

pub mod ams;
pub mod frequent_directions;
pub mod jl;
pub mod matrix;
pub mod regression;
pub mod sparse_jl;
pub mod tensor_sketch;

pub use ams::AmsSketch;
pub use frequent_directions::FrequentDirections;
pub use jl::{DenseJl, JlKind};
pub use matrix::Matrix;
pub use regression::{exact_least_squares, residual_norm, sketched_least_squares};
pub use sparse_jl::{approximate_matrix_product, CountSketchTransform, SparseJl};
pub use tensor_sketch::TensorSketch;
