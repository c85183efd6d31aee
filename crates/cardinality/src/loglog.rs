//! The Durand–Flajolet LogLog counter (ESA 2003).
//!
//! LogLog was the step between Flajolet–Martin and HyperLogLog: keep `m`
//! registers of `ρ` values (position of the first 1-bit) and estimate via
//! the *geometric* mean `α_m · m · 2^{(1/m)Σ M_j}`. Registers only need
//! `log log n` bits, the titular improvement. Standard error is `≈ 1.30/√m`
//! (HyperLogLog later cut this to `1.04/√m` by switching to the harmonic
//! mean — experiment E1 puts the two side by side).

use sketches_core::{
    CardinalityEstimator, Clear, MergeSketch, SketchError, SketchResult, SpaceUsage, Update,
};
use sketches_hash::bits::rho_leading;
use sketches_hash::hash_item;
use sketches_hash::mix::mix64_seeded;
use std::hash::Hash;

/// Asymptotic LogLog correction constant `α_∞ = e^{-γ}·√2/2` adjusted per
/// Durand–Flajolet; 0.39701 is the standard value used for m ≥ 64.
const ALPHA_LOGLOG: f64 = 0.39701;

/// A LogLog cardinality sketch with `2^p` registers.
#[derive(Debug, Clone)]
pub struct LogLog {
    registers: Vec<u8>,
    precision: u32,
    seed: u64,
}

impl LogLog {
    /// Creates a LogLog sketch with `2^precision` registers
    /// (`precision` in `4..=16`).
    ///
    /// # Errors
    /// Returns an error for precision outside `4..=16`.
    pub fn new(precision: u32, seed: u64) -> SketchResult<Self> {
        sketches_core::check_range("precision", precision, 4, 16)?;
        Ok(Self {
            registers: vec![0u8; 1 << precision],
            precision,
            seed,
        })
    }

    /// Absorbs a pre-hashed item.
    #[inline]
    pub fn update_hash(&mut self, hash: u64) {
        let h = mix64_seeded(hash, self.seed);
        let idx = (h >> (64 - self.precision)) as usize;
        let r = rho_leading(h, 64 - self.precision);
        if r > self.registers[idx] {
            self.registers[idx] = r;
        }
    }

    /// Number of registers.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// Theoretical relative standard error `1.30/√m`.
    #[must_use]
    pub fn theoretical_rse(&self) -> f64 {
        1.30 / (self.registers.len() as f64).sqrt()
    }
}

impl<T: Hash + ?Sized> Update<T> for LogLog {
    fn update(&mut self, item: &T) {
        self.update_hash(hash_item(item, 0x1061_1061));
    }
}

impl CardinalityEstimator for LogLog {
    fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let mean: f64 = self.registers.iter().map(|&r| f64::from(r)).sum::<f64>() / m;
        ALPHA_LOGLOG * m * 2f64.powf(mean)
    }
}

impl Clear for LogLog {
    fn clear(&mut self) {
        self.registers.fill(0);
    }
}

impl SpaceUsage for LogLog {
    fn space_bytes(&self) -> usize {
        self.registers.len()
    }
}

impl MergeSketch for LogLog {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.precision != other.precision {
            return Err(SketchError::incompatible("precisions differ"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_precision() {
        assert!(LogLog::new(3, 0).is_err());
        assert!(LogLog::new(17, 0).is_err());
        assert!(LogLog::new(10, 0).is_ok());
    }

    #[test]
    fn estimate_large_cardinality() {
        // p=10 → m=1024, stderr ≈ 4.1%. Allow 4 sigma.
        let mut ll = LogLog::new(10, 5).unwrap();
        let n = 500_000u64;
        for i in 0..n {
            ll.update(&i);
        }
        let rel = (ll.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 0.17, "relative error {rel:.3}");
    }

    #[test]
    fn duplicates_ignored() {
        let mut a = LogLog::new(8, 1).unwrap();
        let mut b = LogLog::new(8, 1).unwrap();
        for i in 0..10_000u64 {
            a.update(&i);
            b.update(&i);
            b.update(&(i));
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LogLog::new(9, 2).unwrap();
        let mut b = LogLog::new(9, 2).unwrap();
        let mut u = LogLog::new(9, 2).unwrap();
        for i in 0..20_000u64 {
            a.update(&i);
            u.update(&i);
        }
        for i in 10_000..30_000u64 {
            b.update(&i);
            u.update(&i);
        }
        a.merge(&b).unwrap();
        assert_eq!(a.estimate(), u.estimate());
    }

    #[test]
    fn rse_matches_durand_flajolet_theory() {
        // Pins the estimator's error to the 1.30/sqrt(m) law from BOTH
        // sides: an RSE far below theory is as much a bug (a broken
        // measurement, or an estimator that is not LogLog's geometric
        // mean) as one far above it. p=8 -> m=256, theory RSE ~ 0.0813.
        let trials = 60u64;
        let n = 20_000u64;
        let mut errs = Vec::new();
        for t in 0..trials {
            let mut ll = LogLog::new(8, 0xE1_00 + t).unwrap();
            for i in 0..n {
                ll.update(&(t * n + i));
            }
            errs.push((ll.estimate() - n as f64) / n as f64);
        }
        let rse = (errs.iter().map(|e| e * e).sum::<f64>() / trials as f64).sqrt();
        let theory = 1.30 / 16.0;
        assert!(
            rse > 0.55 * theory && rse < 1.5 * theory,
            "measured RSE {rse:.4} deviates from theory {theory:.4}"
        );
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = LogLog::new(8, 0).unwrap();
        assert!(a.merge(&LogLog::new(9, 0).unwrap()).is_err());
        assert!(a.merge(&LogLog::new(8, 9).unwrap()).is_err());
    }

    #[test]
    fn space_is_m_bytes() {
        let ll = LogLog::new(12, 0).unwrap();
        assert_eq!(ll.space_bytes(), 4096);
    }

    #[test]
    fn clear_resets() {
        let mut ll = LogLog::new(6, 0).unwrap();
        ll.update(&42u64);
        ll.clear();
        assert_eq!(ll.registers.iter().map(|&r| u32::from(r)).sum::<u32>(), 0);
    }
}
