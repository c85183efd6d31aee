//! Trait framework and shared types for the `sketches` workspace.
//!
//! Every sketch in this workspace — cardinality estimators, frequency
//! sketches, quantile summaries, membership filters, samplers, linear-algebra
//! sketches, graph sketches — implements a small common vocabulary defined
//! here:
//!
//! * [`Update`] — absorb one stream item (the *streaming* model).
//! * [`MergeSketch`] — combine two sketches built over different substreams
//!   (the *distributed* model; "mergeable summaries").
//! * [`SpaceUsage`] — report the heap footprint, so experiments can put
//!   accuracy and space on the same axis.
//! * [`Clear`] — reset to the empty-stream state.
//! * Query-side traits: [`CardinalityEstimator`], [`FrequencyEstimator`],
//!   [`QuantileSketch`], [`MembershipTester`].
//! * [`QueryView`] — the read/write split: a fat update-side sketch cuts a
//!   slim query-side view that is cheap to clone, serialize, and merge.
//!
//! The paper this workspace reproduces (Cormode, *Gems of PODS 2023*) frames
//! a sketch as exactly this triple — a compact structure plus an update
//! routine plus a merge routine — and the traits encode that contract.
//!
//! Errors are deliberately explicit: constructing a sketch with invalid
//! parameters or merging incompatible sketches returns
//! [`SketchError`] rather than panicking, because in production
//! stream-processing systems both conditions arrive from configuration and
//! remote data, not from programmer error.

pub mod codec;
pub mod error;
pub mod traits;

pub use codec::{ByteReader, ByteWriter};
pub use error::{SketchError, SketchResult};
pub use traits::{
    CardinalityEstimator, Clear, FrequencyEstimator, MembershipTester, MergeSketch, QuantileSketch,
    QueryView, SpaceUsage, Update,
};

/// Validates that a parameter is within an inclusive range, with a readable
/// error naming the parameter.
///
/// # Errors
/// Returns [`SketchError::InvalidParameter`] when out of range.
pub fn check_range<T: PartialOrd + std::fmt::Display + Copy>(
    name: &'static str,
    value: T,
    lo: T,
    hi: T,
) -> SketchResult<T> {
    if value < lo || value > hi {
        return Err(SketchError::InvalidParameter {
            name,
            reason: format!("{value} is outside [{lo}, {hi}]"),
        });
    }
    Ok(value)
}

/// Validates that a floating parameter is strictly positive and finite —
/// the common contract for rates, scales, and privacy budgets.
///
/// # Errors
/// Returns [`SketchError::InvalidParameter`] for NaN, non-positive, or
/// infinite values.
pub fn check_positive_finite(name: &'static str, value: f64) -> SketchResult<f64> {
    if value.is_nan() || value <= 0.0 || !value.is_finite() {
        return Err(SketchError::InvalidParameter {
            name,
            reason: format!("{value} must be positive and finite"),
        });
    }
    Ok(value)
}

/// Median of a mutable slice of `f64` (sorts in place; averages the two
/// middle elements for even lengths). All median-of-rows estimators in the
/// workspace share this so their even-length behaviour cannot drift.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median of a mutable slice of `i64` (integer mean of the two middle
/// elements for even lengths).
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn median_i64(values: &mut [i64]) -> i64 {
    assert!(!values.is_empty(), "median of empty slice");
    values.sort_unstable();
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2
    }
}

/// Validates that a floating parameter is finite and strictly inside `(lo, hi)`.
///
/// # Errors
/// Returns [`SketchError::InvalidParameter`] when outside the open interval
/// or not finite.
pub fn check_open_unit(name: &'static str, value: f64, lo: f64, hi: f64) -> SketchResult<f64> {
    if !value.is_finite() || value <= lo || value >= hi {
        return Err(SketchError::InvalidParameter {
            name,
            reason: format!("{value} is outside the open interval ({lo}, {hi})"),
        });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_range_accepts_and_rejects() {
        assert_eq!(check_range("k", 5usize, 1, 10).unwrap(), 5);
        assert!(check_range("k", 0usize, 1, 10).is_err());
        assert!(check_range("k", 11usize, 1, 10).is_err());
        let err = check_range("width", 0usize, 1, 100).unwrap_err();
        assert!(err.to_string().contains("width"));
    }

    #[test]
    fn check_positive_finite_contract() {
        assert_eq!(check_positive_finite("x", 1.5).unwrap(), 1.5);
        assert!(check_positive_finite("x", 0.0).is_err());
        assert!(check_positive_finite("x", -1.0).is_err());
        assert!(check_positive_finite("x", f64::NAN).is_err());
        assert!(check_positive_finite("x", f64::INFINITY).is_err());
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_i64(&mut [3, 1, 2]), 2);
        assert_eq!(median_i64(&mut [4, 1, 2, 3]), 2);
        assert_eq!(median_f64(&mut [7.0]), 7.0);
    }

    #[test]
    fn check_open_unit_rejects_boundaries_and_nan() {
        assert!(check_open_unit("eps", 0.5, 0.0, 1.0).is_ok());
        assert!(check_open_unit("eps", 0.0, 0.0, 1.0).is_err());
        assert!(check_open_unit("eps", 1.0, 0.0, 1.0).is_err());
        assert!(check_open_unit("eps", f64::NAN, 0.0, 1.0).is_err());
        assert!(check_open_unit("eps", f64::INFINITY, 0.0, 1.0).is_err());
    }
}
