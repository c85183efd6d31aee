//! HyperLogLog (Flajolet, Fusy, Gandouet & Meunier, AOFA 2007).
//!
//! The survey calls HyperLogLog "very simple to implement" with a "highly
//! sophisticated" analysis — the structure is `m = 2^p` registers holding
//! the max leading-zero count among hashes routed to each register, and the
//! estimator is the *harmonic* mean `α_m · m² / Σ 2^{-M_j}` with standard
//! error `≈ 1.04/√m` (verified by experiment E1).
//!
//! This implementation follows the original paper: 64-bit hashing (which
//! removes the large-range correction needed with 32-bit hashes, per Heule
//! et al.) and the linear-counting fallback for small cardinalities.
//! The bias-corrected HLL++ variant lives in [`crate::hllpp`].

use sketches_core::{
    ByteReader, ByteWriter, CardinalityEstimator, Clear, MergeSketch, SketchError, SketchResult,
    SpaceUsage, Update,
};
use sketches_hash::bits::rho_leading;
use sketches_hash::hash_item;
use sketches_hash::mix::mix64_seeded;
use std::hash::Hash;

/// Hash seed for item-level updates, shared with [`crate::hllpp`] so both
/// sketches fingerprint items identically before domain separation.
pub(crate) const ITEM_SEED: u64 = 0x5EED_BA5E;

/// Returns the HyperLogLog bias-correction constant `α_m`.
#[must_use]
pub fn alpha(m: usize) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// A HyperLogLog sketch with `2^p` 8-bit registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    registers: Vec<u8>,
    precision: u32,
    seed: u64,
}

impl HyperLogLog {
    /// Creates a sketch with `2^precision` registers (`precision` in
    /// `4..=18`).
    ///
    /// # Errors
    /// Returns an error for precision outside `4..=18`.
    pub fn new(precision: u32, seed: u64) -> SketchResult<Self> {
        sketches_core::check_range("precision", precision, 4, 18)?;
        Ok(Self {
            registers: vec![0u8; 1 << precision],
            precision,
            seed,
        })
    }

    /// Absorbs a pre-hashed item (use when the caller already has a good
    /// 64-bit fingerprint; [`Update::update`] handles arbitrary keys).
    #[inline]
    pub fn update_hash(&mut self, hash: u64) {
        let h = mix64_seeded(hash, self.seed);
        let idx = (h >> (64 - self.precision)) as usize;
        let r = rho_leading(h, 64 - self.precision);
        if r > self.registers[idx] {
            self.registers[idx] = r;
        }
    }

    /// Number of registers `m`.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// Precision `p` (so `m = 2^p`).
    #[must_use]
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// Read-only view of the registers (used by HLL++ and by tests).
    #[must_use]
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// The seed this sketch hashes with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets register `idx` to `max(current, value)`; used by the sparse
    /// HLL++ representation when upgrading to dense.
    pub(crate) fn offer_register(&mut self, idx: usize, value: u8) {
        if value > self.registers[idx] {
            self.registers[idx] = value;
        }
    }

    /// Creates an HLL that expects callers to pre-mix hashes themselves
    /// (used by HLL++, which applies its own seeding before routing).
    pub(crate) fn with_seed_raw(precision: u32, seed: u64) -> Self {
        Self {
            registers: vec![0u8; 1 << precision],
            precision,
            seed,
        }
    }

    /// Absorbs an already-mixed 64-bit hash without further seeding.
    #[inline]
    pub(crate) fn insert_mixed(&mut self, h: u64) {
        let idx = (h >> (64 - self.precision)) as usize;
        let r = rho_leading(h, 64 - self.precision);
        if r > self.registers[idx] {
            self.registers[idx] = r;
        }
    }

    /// Serializes the full sketch state — precision, seed, registers — in
    /// the workspace checkpoint layout ([`HyperLogLog::read_state`] inverts
    /// it exactly). The register count is implied by the precision, so no
    /// separate length field is stored.
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_u32(self.precision);
        w.put_u64(self.seed);
        w.put_bytes(&self.registers);
    }

    /// Restores a sketch from [`HyperLogLog::write_state`] bytes.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on truncation or a precision
    /// outside `4..=18`. (Bit-level integrity is the enclosing snapshot
    /// checksum's job; this validates structure.)
    pub fn read_state(r: &mut ByteReader<'_>) -> SketchResult<Self> {
        let precision = r.u32()?;
        if !(4..=18).contains(&precision) {
            return Err(SketchError::corrupted(format!(
                "HLL precision {precision} outside 4..=18"
            )));
        }
        let seed = r.u64()?;
        let registers = r.bytes(1 << precision)?.to_vec();
        Ok(Self {
            registers,
            precision,
            seed,
        })
    }

    /// Theoretical relative standard error `1.04/√m`.
    #[must_use]
    pub fn theoretical_rse(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// The raw (uncorrected) harmonic-mean estimate.
    #[must_use]
    pub fn raw_estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let inv_sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        alpha(self.registers.len()) * m * m / inv_sum
    }

    /// Number of registers still zero.
    #[must_use]
    pub fn zero_registers(&self) -> usize {
        self.registers.iter().filter(|&&r| r == 0).count()
    }
}

impl<T: Hash + ?Sized> Update<T> for HyperLogLog {
    fn update(&mut self, item: &T) {
        self.update_hash(hash_item(item, ITEM_SEED));
    }

    /// Batched ingest: hoists the register-shift and seed out of the loop
    /// and writes registers directly, skipping the per-call setup of
    /// [`HyperLogLog::update_hash`]. Register-max updates commute, so the
    /// result is identical to per-item updates in any order.
    fn update_slice(&mut self, items: &[T])
    where
        T: Sized,
    {
        let shift = 64 - self.precision;
        for item in items {
            let h = mix64_seeded(hash_item(item, ITEM_SEED), self.seed);
            let idx = (h >> shift) as usize;
            let r = rho_leading(h, shift);
            if r > self.registers[idx] {
                self.registers[idx] = r;
            }
        }
    }
}

impl CardinalityEstimator for HyperLogLog {
    fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let raw = self.raw_estimate();
        if raw <= 2.5 * m {
            let zeros = self.zero_registers();
            if zeros > 0 {
                // Small-range correction: linear counting on the registers.
                return m * (m / zeros as f64).ln();
            }
        }
        // With a 64-bit hash the large-range correction is unnecessary.
        raw
    }
}

impl Clear for HyperLogLog {
    fn clear(&mut self) {
        self.registers.fill(0);
    }
}

impl SpaceUsage for HyperLogLog {
    fn space_bytes(&self) -> usize {
        self.registers.len()
    }
}

impl MergeSketch for HyperLogLog {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.precision != other.precision {
            return Err(SketchError::incompatible(format!(
                "precisions differ: {} vs {}",
                self.precision, other.precision
            )));
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

/// Estimates `|A ∩ B|` from HLL sketches by inclusion–exclusion:
/// `|A| + |B| − |A ∪ B|`. The result can be negative for small overlaps —
/// it is clamped at zero — and its error grows with `|A ∪ B|`, which is the
/// documented weakness of slice-and-dice reach analytics (experiment E8).
///
/// # Errors
/// Returns an error if the sketches are incompatible.
pub fn intersection_estimate(a: &HyperLogLog, b: &HyperLogLog) -> SketchResult<f64> {
    let mut union = a.clone();
    union.merge(b)?;
    Ok((a.estimate() + b.estimate() - union.estimate()).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_precision() {
        assert!(HyperLogLog::new(3, 0).is_err());
        assert!(HyperLogLog::new(19, 0).is_err());
        assert!(HyperLogLog::new(4, 0).is_ok());
        assert!(HyperLogLog::new(18, 0).is_ok());
    }

    #[test]
    fn alpha_values() {
        assert!((alpha(16) - 0.673).abs() < 1e-12);
        assert!((alpha(4096) - 0.7213 / (1.0 + 1.079 / 4096.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_estimates_zero() {
        let h = HyperLogLog::new(10, 0).unwrap();
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn estimate_within_four_sigma_across_scales() {
        let p = 12; // m = 4096, stderr ≈ 1.63%
        for (n, seed) in [(1_000u64, 1u64), (10_000, 2), (100_000, 3), (1_000_000, 4)] {
            let mut h = HyperLogLog::new(p, seed).unwrap();
            for i in 0..n {
                h.update(&i);
            }
            let rel = (h.estimate() - n as f64).abs() / n as f64;
            assert!(rel < 4.0 * h.theoretical_rse(), "n={n}: rel err {rel:.4}");
        }
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let mut h = HyperLogLog::new(12, 9).unwrap();
        for i in 0..100u64 {
            h.update(&i);
        }
        // At n=100 with m=4096 almost all registers are zero; the linear
        // counting path should be nearly exact.
        let rel = (h.estimate() - 100.0).abs() / 100.0;
        assert!(rel < 0.05, "small-range estimate off by {rel:.4}");
    }

    #[test]
    fn duplicates_ignored() {
        let mut a = HyperLogLog::new(10, 1).unwrap();
        let mut b = HyperLogLog::new(10, 1).unwrap();
        for i in 0..10_000u64 {
            a.update(&i);
            b.update(&i);
            b.update(&i);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn update_slice_matches_per_item_exactly() {
        let data: Vec<u64> = (0..40_000).collect();
        let mut per_item = HyperLogLog::new(11, 6).unwrap();
        for x in &data {
            per_item.update(x);
        }
        for chunk in [data.len(), 1, 7, 613] {
            let mut sliced = HyperLogLog::new(11, 6).unwrap();
            for part in data.chunks(chunk) {
                sliced.update_slice(part);
            }
            assert_eq!(sliced, per_item, "chunk size {chunk}");
        }
    }

    #[test]
    fn merge_is_exactly_union() {
        let mut a = HyperLogLog::new(11, 3).unwrap();
        let mut b = HyperLogLog::new(11, 3).unwrap();
        let mut u = HyperLogLog::new(11, 3).unwrap();
        for i in 0..50_000u64 {
            a.update(&i);
            u.update(&i);
        }
        for i in 25_000..75_000u64 {
            b.update(&i);
            u.update(&i);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, u, "merged sketch must equal union-stream sketch");
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let mut a = HyperLogLog::new(8, 5).unwrap();
        let mut b = HyperLogLog::new(8, 5).unwrap();
        for i in 0..1000u64 {
            a.update(&i);
        }
        for i in 500..1500u64 {
            b.update(&i);
        }
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba);
        let mut aa = ab.clone();
        aa.merge(&ab).unwrap();
        assert_eq!(aa, ab, "self-merge must be a no-op");
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = HyperLogLog::new(8, 0).unwrap();
        assert!(a.merge(&HyperLogLog::new(9, 0).unwrap()).is_err());
        assert!(a.merge(&HyperLogLog::new(8, 1).unwrap()).is_err());
    }

    #[test]
    fn intersection_estimate_reasonable() {
        let mut a = HyperLogLog::new(12, 7).unwrap();
        let mut b = HyperLogLog::new(12, 7).unwrap();
        // |A| = 60k, |B| = 60k, overlap 20k.
        for i in 0..60_000u64 {
            a.update(&i);
        }
        for i in 40_000..100_000u64 {
            b.update(&i);
        }
        let inter = intersection_estimate(&a, &b).unwrap();
        let rel = (inter - 20_000.0).abs() / 20_000.0;
        assert!(rel < 0.25, "intersection {inter} off by {rel:.3}");
    }

    #[test]
    fn string_keys_work() {
        let mut h = HyperLogLog::new(10, 2).unwrap();
        for i in 0..5_000u32 {
            h.update(&format!("user-{i}"));
        }
        let rel = (h.estimate() - 5_000.0).abs() / 5_000.0;
        assert!(rel < 0.15, "rel {rel}");
    }

    #[test]
    fn clear_and_space() {
        let mut h = HyperLogLog::new(10, 0).unwrap();
        h.update(&1u8);
        assert!(h.estimate() > 0.0);
        h.clear();
        assert_eq!(h.estimate(), 0.0);
        assert_eq!(h.space_bytes(), 1024);
    }

    #[test]
    fn state_round_trips_exactly() {
        let mut h = HyperLogLog::new(7, 0xFACE).unwrap();
        for i in 0..5_000u64 {
            h.update(&i);
        }
        let mut w = ByteWriter::new();
        h.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let restored = HyperLogLog::read_state(&mut r).unwrap();
        r.expect_end("hll state").unwrap();
        assert_eq!(restored, h);
        // Canonical encoding: re-serializing yields identical bytes.
        let mut w2 = ByteWriter::new();
        restored.write_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn state_corruption_is_typed() {
        let mut h = HyperLogLog::new(4, 1).unwrap();
        h.update(&42u64);
        let mut w = ByteWriter::new();
        h.write_state(&mut w);
        let bytes = w.into_bytes();
        // Every truncation fails with Corrupted, never a panic.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let got = HyperLogLog::read_state(&mut r);
            assert!(
                matches!(got, Err(SketchError::Corrupted { .. })),
                "cut {cut}"
            );
        }
        // An impossible precision is structurally rejected.
        let mut bad = bytes.clone();
        bad[0] = 200;
        let mut r = ByteReader::new(&bad);
        assert!(matches!(
            HyperLogLog::read_state(&mut r),
            Err(SketchError::Corrupted { .. })
        ));
    }
}
