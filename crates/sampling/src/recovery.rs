//! Sparse vector recovery over turnstile streams.
//!
//! A *1-sparse recovery* structure ingests `(index, ±delta)` updates and —
//! if the net vector has exactly one nonzero coordinate — recovers it
//! exactly, detecting all other cases with high probability via a
//! polynomial fingerprint. An *s-sparse recovery* structure hashes indices
//! into a grid of 1-sparse cells and peels. These are the decoding
//! primitives beneath L0 sampling and the AGM graph sketches.

use std::collections::BTreeMap;

use sketches_core::{Clear, MergeSketch, SketchError, SketchResult, SpaceUsage};
use sketches_hash::family::{mul_mod, MERSENNE_61};
use sketches_hash::mix::mix64_seeded;
use sketches_hash::rng::{Rng64, SplitMix64};

/// Computes `base^exp mod 2^61 − 1`.
fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    base %= MERSENNE_61;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// Signed value reduced into the field.
fn signed_mod(v: i64) -> u64 {
    v.rem_euclid(MERSENNE_61 as i64) as u64
}

/// Result of a 1-sparse recovery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryResult {
    /// The net vector is zero.
    Zero,
    /// Exactly one nonzero coordinate `(index, weight)`.
    OneSparse(u64, i64),
    /// More than one nonzero coordinate (or a detected inconsistency).
    NotSparse,
}

/// A 1-sparse recovery cell: three linear measurements of the vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneSparseRecovery {
    /// Σ cᵢ
    weight_sum: i64,
    /// Σ cᵢ·i (128-bit to survive large indices)
    index_sum: i128,
    /// Σ cᵢ·zⁱ mod p — the Schwartz–Zippel fingerprint.
    fingerprint: u64,
    /// The random evaluation point z.
    z: u64,
}

impl OneSparseRecovery {
    /// Creates a cell with fingerprint point drawn from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x15A2_5E0F);
        Self {
            weight_sum: 0,
            index_sum: 0,
            fingerprint: 0,
            z: rng.gen_range(MERSENNE_61 - 2) + 1,
        }
    }

    /// Applies the update `vector[index] += delta`.
    pub fn update(&mut self, index: u64, delta: i64) {
        self.weight_sum += delta;
        self.index_sum += i128::from(delta) * i128::from(index);
        let term = mul_mod(signed_mod(delta), pow_mod(self.z, index));
        self.fingerprint = (self.fingerprint + term) % MERSENNE_61;
    }

    /// Attempts recovery.
    #[must_use]
    pub fn recover(&self) -> RecoveryResult {
        if self.weight_sum == 0 && self.index_sum == 0 && self.fingerprint == 0 {
            return RecoveryResult::Zero;
        }
        if self.weight_sum != 0 && self.index_sum % i128::from(self.weight_sum) == 0 {
            let idx = self.index_sum / i128::from(self.weight_sum);
            if idx >= 0 && idx <= i128::from(u64::MAX) {
                let idx = idx as u64;
                let expect = mul_mod(signed_mod(self.weight_sum), pow_mod(self.z, idx));
                if expect == self.fingerprint {
                    return RecoveryResult::OneSparse(idx, self.weight_sum);
                }
            }
        }
        RecoveryResult::NotSparse
    }

    /// Whether the cell is (apparently) empty.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        matches!(self.recover(), RecoveryResult::Zero)
    }
}

impl Clear for OneSparseRecovery {
    fn clear(&mut self) {
        self.weight_sum = 0;
        self.index_sum = 0;
        self.fingerprint = 0;
    }
}

impl SpaceUsage for OneSparseRecovery {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl MergeSketch for OneSparseRecovery {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.z != other.z {
            return Err(SketchError::incompatible("fingerprint points differ"));
        }
        self.weight_sum += other.weight_sum;
        self.index_sum += other.index_sum;
        self.fingerprint = (self.fingerprint + other.fingerprint) % MERSENNE_61;
        Ok(())
    }
}

/// An s-sparse recovery structure: `rows × 2s` grid of 1-sparse cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseRecovery {
    cells: Vec<OneSparseRecovery>,
    rows: usize,
    cols: usize,
    s: usize,
    seed: u64,
}

impl SparseRecovery {
    /// Creates a structure that recovers vectors with up to `s` nonzero
    /// coordinates, using `rows` hash rows (more rows → lower failure
    /// probability; 4–6 is typical).
    ///
    /// # Errors
    /// Returns an error if `s == 0` or `rows == 0`.
    pub fn new(s: usize, rows: usize, seed: u64) -> SketchResult<Self> {
        if s == 0 {
            return Err(SketchError::invalid("s", "need s >= 1"));
        }
        if rows == 0 {
            return Err(SketchError::invalid("rows", "need rows >= 1"));
        }
        let cols = 2 * s;
        let cells = (0..rows * cols)
            .map(|i| OneSparseRecovery::new(seed.wrapping_add(0x9E37 * i as u64 + 1)))
            .collect();
        Ok(Self {
            cells,
            rows,
            cols,
            s,
            seed,
        })
    }

    #[inline]
    fn cell_of(&self, index: u64, row: usize) -> usize {
        let h = mix64_seeded(index, self.seed ^ (row as u64).wrapping_mul(0xA5A5_5A5A));
        row * self.cols + (h % self.cols as u64) as usize
    }

    /// Applies the update `vector[index] += delta`.
    pub fn update(&mut self, index: u64, delta: i64) {
        for row in 0..self.rows {
            let c = self.cell_of(index, row);
            self.cells[c].update(index, delta);
        }
    }

    /// Attempts to recover the full vector. Returns `Some(map)` when the
    /// candidates fully explain every measurement (w.h.p. the exact
    /// vector), `None` when the vector is denser than `s` or recovery
    /// failed.
    #[must_use]
    pub fn recover(&self) -> Option<BTreeMap<u64, i64>> {
        let mut candidates: BTreeMap<u64, i64> = BTreeMap::new();
        for cell in &self.cells {
            if let RecoveryResult::OneSparse(idx, w) = cell.recover() {
                candidates.insert(idx, w);
            }
        }
        if candidates.len() > self.s {
            return None;
        }
        // Verify: re-encoding the candidates must reproduce every cell.
        #[expect(
            clippy::expect_used,
            reason = "parameters were validated when self was constructed with them"
        )]
        let mut check = Self::new(self.s, self.rows, self.seed).expect("same params");
        for (&idx, &w) in &candidates {
            check.update(idx, w);
        }
        if check.cells == self.cells {
            Some(candidates)
        } else {
            None
        }
    }

    /// The sparsity budget `s`.
    #[must_use]
    pub fn sparsity(&self) -> usize {
        self.s
    }
}

impl Clear for SparseRecovery {
    fn clear(&mut self) {
        for c in &mut self.cells {
            c.clear();
        }
    }
}

impl SpaceUsage for SparseRecovery {
    fn space_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<OneSparseRecovery>()
    }
}

impl MergeSketch for SparseRecovery {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.s != other.s || self.rows != other.rows || self.seed != other.seed {
            return Err(SketchError::incompatible("parameters differ"));
        }
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            a.merge(b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sparse_detects_zero() {
        let r = OneSparseRecovery::new(1);
        assert_eq!(r.recover(), RecoveryResult::Zero);
        let mut r = OneSparseRecovery::new(1);
        r.update(42, 5);
        r.update(42, -5);
        assert_eq!(r.recover(), RecoveryResult::Zero);
    }

    #[test]
    fn one_sparse_recovers_single_item() {
        let mut r = OneSparseRecovery::new(2);
        r.update(123_456, 7);
        assert_eq!(r.recover(), RecoveryResult::OneSparse(123_456, 7));
        r.update(123_456, -3);
        assert_eq!(r.recover(), RecoveryResult::OneSparse(123_456, 4));
    }

    #[test]
    fn one_sparse_rejects_two_items() {
        let mut r = OneSparseRecovery::new(3);
        r.update(10, 1);
        r.update(20, 1);
        assert_eq!(r.recover(), RecoveryResult::NotSparse);
    }

    #[test]
    fn one_sparse_rejects_adversarial_average() {
        // Two items whose weighted index average is integral: the naive
        // (w, s) test would wrongly report index 15; the fingerprint must
        // catch it.
        let mut r = OneSparseRecovery::new(4);
        r.update(10, 1);
        r.update(20, 1);
        // index_sum = 30, weight = 2 → idx = 15 divides exactly.
        assert_eq!(r.recover(), RecoveryResult::NotSparse);
    }

    #[test]
    fn one_sparse_negative_weights() {
        let mut r = OneSparseRecovery::new(5);
        r.update(99, -4);
        assert_eq!(r.recover(), RecoveryResult::OneSparse(99, -4));
    }

    #[test]
    fn one_sparse_merge() {
        let mut a = OneSparseRecovery::new(6);
        let mut b = OneSparseRecovery::new(6);
        a.update(7, 3);
        b.update(7, 2);
        a.merge(&b).unwrap();
        assert_eq!(a.recover(), RecoveryResult::OneSparse(7, 5));
        let c = OneSparseRecovery::new(7);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn pow_mod_matches_naive() {
        for (b, e) in [(2u64, 10u64), (3, 0), (7, 61), (123_456_789, 17)] {
            let mut naive = 1u64;
            for _ in 0..e {
                naive = mul_mod(naive, b);
            }
            assert_eq!(pow_mod(b, e), naive);
        }
    }

    #[test]
    fn s_sparse_recovers_exactly() {
        let mut sr = SparseRecovery::new(8, 4, 1).unwrap();
        let truth: Vec<(u64, i64)> = vec![(5, 3), (1000, -2), (7777, 10), (42, 1)];
        for &(i, w) in &truth {
            sr.update(i, w);
        }
        let rec = sr.recover().expect("4-sparse must recover with s=8");
        assert_eq!(rec.len(), 4);
        for &(i, w) in &truth {
            assert_eq!(rec.get(&i), Some(&w));
        }
    }

    #[test]
    fn s_sparse_handles_cancellation() {
        let mut sr = SparseRecovery::new(4, 4, 2).unwrap();
        sr.update(10, 5);
        sr.update(20, 3);
        sr.update(10, -5); // cancels
        let rec = sr.recover().expect("1-sparse after cancellation");
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.get(&20), Some(&3));
    }

    #[test]
    fn s_sparse_fails_on_dense_vectors() {
        let mut sr = SparseRecovery::new(4, 4, 3).unwrap();
        for i in 0..1000u64 {
            sr.update(i, 1);
        }
        assert!(sr.recover().is_none(), "dense vector must not recover");
    }

    #[test]
    fn s_sparse_empty_recovers_empty() {
        let sr = SparseRecovery::new(4, 3, 4).unwrap();
        let rec = sr.recover().expect("empty recovers");
        assert!(rec.is_empty());
    }

    #[test]
    fn s_sparse_merge_recovers_union() {
        let mut a = SparseRecovery::new(8, 4, 5).unwrap();
        let mut b = SparseRecovery::new(8, 4, 5).unwrap();
        a.update(1, 1);
        a.update(2, 2);
        b.update(2, -2); // cancels in the merge
        b.update(3, 3);
        a.merge(&b).unwrap();
        let rec = a.recover().expect("recover merged");
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.get(&1), Some(&1));
        assert_eq!(rec.get(&3), Some(&3));
        assert!(a.merge(&SparseRecovery::new(8, 4, 6).unwrap()).is_err());
    }

    #[test]
    fn clear_resets() {
        let mut sr = SparseRecovery::new(2, 2, 7).unwrap();
        sr.update(5, 5);
        sr.clear();
        assert!(sr.recover().expect("empty").is_empty());
    }
}
