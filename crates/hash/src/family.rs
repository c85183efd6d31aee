//! k-wise independent hash families.
//!
//! Sketch analyses typically require limited independence rather than "ideal"
//! hashing: Count-Min needs pairwise-independent row hashes, AMS / Count
//! sketch need 4-wise independent sign hashes, and Lp samplers need higher
//! independence still. This module provides:
//!
//! * [`PairwiseHash`] — the multiply-shift family of Dietzfelbinger et al.,
//!   2-universal and extremely fast, mapping `u64` to `d`-bit outputs.
//! * [`KWiseHash`] — degree-(k−1) polynomials over the Mersenne prime
//!   `p = 2^61 − 1`, giving exact k-wise independence for any `k`.
//! * [`SignHash`] — a 4-wise independent ±1 hash built on [`KWiseHash`],
//!   used by AMS and Count-Sketch estimators.

use crate::rng::Rng64;

/// The Mersenne prime `2^61 - 1` used as the field modulus for polynomial
/// hashing.
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// Reduces `x` modulo `2^61 - 1` given `x < 2^122`.
#[inline]
#[must_use]
pub fn mod_mersenne_128(x: u128) -> u64 {
    const P: u128 = MERSENNE_61 as u128;
    // x = hi * 2^61 + lo, and 2^61 ≡ 1 (mod p).
    let folded = (x & P) + (x >> 61);
    let folded = (folded & P) + (folded >> 61);
    let r = folded as u64;
    if r >= MERSENNE_61 {
        r - MERSENNE_61
    } else {
        r
    }
}

/// Multiplies two field elements modulo `2^61 - 1`.
#[inline]
#[must_use]
pub fn mul_mod(a: u64, b: u64) -> u64 {
    mod_mersenne_128(u128::from(a) * u128::from(b))
}

/// A 2-universal (pairwise-independent) hash from `u64` to `d`-bit values.
///
/// Implements the multiply-shift scheme `h(x) = (a*x + b) >> (64 - d)` with
/// odd `a`, which is 2-universal on `d`-bit outputs and compiles to a couple
/// of instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
    shift: u32,
}

impl PairwiseHash {
    /// Draws a random function with `output_bits`-bit outputs (1..=63).
    ///
    /// # Panics
    /// Panics if `output_bits` is 0 or ≥ 64.
    #[must_use]
    pub fn random(output_bits: u32, rng: &mut impl Rng64) -> Self {
        assert!(
            (1..64).contains(&output_bits),
            "output_bits must be in 1..=63"
        );
        Self {
            a: rng.next_u64() | 1,
            b: rng.next_u64(),
            shift: 64 - output_bits,
        }
    }

    /// Evaluates the hash; the result is `< 2^output_bits`.
    #[inline]
    #[must_use]
    pub fn hash(&self, x: u64) -> u64 {
        self.a.wrapping_mul(x).wrapping_add(self.b) >> self.shift
    }

    /// Number of output bits.
    #[must_use]
    pub fn output_bits(&self) -> u32 {
        64 - self.shift
    }
}

/// A k-wise independent hash: a uniformly random degree-(k−1) polynomial
/// over GF(2^61 − 1).
///
/// `hash(x)` returns a value in `[0, 2^61 - 1)`; [`KWiseHash::hash_range`]
/// maps it onto `[0, n)` and [`KWiseHash::hash_unit`] onto `[0, 1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseHash {
    /// Coefficients, constant term last (Horner order: highest degree first).
    coeffs: Vec<u64>,
}

impl KWiseHash {
    /// Draws a random k-wise independent function (`k >= 1`).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn random(k: usize, rng: &mut impl Rng64) -> Self {
        assert!(k >= 1, "independence k must be at least 1");
        let coeffs = (0..k)
            .map(|i| {
                let c = rng.gen_range(MERSENNE_61);
                // Leading coefficient must be nonzero so the polynomial has
                // full degree (required for exact k-wise independence).
                if i == 0 && k > 1 && c == 0 {
                    1
                } else {
                    c
                }
            })
            .collect();
        Self { coeffs }
    }

    /// Evaluates the polynomial at `x` (reduced into the field first).
    #[inline]
    #[must_use]
    pub fn hash(&self, x: u64) -> u64 {
        let x = x % MERSENNE_61;
        let mut acc = 0u64;
        for &c in &self.coeffs {
            acc = mod_mersenne_128(u128::from(mul_mod(acc, x)) + u128::from(c));
        }
        acc
    }

    /// Evaluates the hash and maps it onto `[0, n)`.
    #[inline]
    #[must_use]
    pub fn hash_range(&self, x: u64, n: u64) -> u64 {
        // Multiply-high reduction against the field size keeps the map fair.
        ((u128::from(self.hash(x)) * u128::from(n)) / u128::from(MERSENNE_61)) as u64
    }

    /// Evaluates the hash and maps it onto `[0, 1)`.
    #[inline]
    #[must_use]
    pub fn hash_unit(&self, x: u64) -> f64 {
        self.hash(x) as f64 / MERSENNE_61 as f64
    }

    /// The independence level `k` this function was drawn with.
    #[must_use]
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }
}

/// A 4-wise independent ±1 sign hash, as required by AMS and Count-Sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignHash {
    inner: KWiseHash,
}

impl SignHash {
    /// Draws a random 4-wise independent sign function.
    #[must_use]
    pub fn random(rng: &mut impl Rng64) -> Self {
        Self {
            inner: KWiseHash::random(4, rng),
        }
    }

    /// Returns `+1` or `-1`.
    #[inline]
    #[must_use]
    pub fn sign(&self, x: u64) -> i64 {
        // Take one bit of the field element; the low bit of a k-wise
        // independent value is k-wise independent.
        if self.inner.hash(x) & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn mersenne_reduction_is_correct() {
        assert_eq!(mod_mersenne_128(0), 0);
        assert_eq!(mod_mersenne_128(u128::from(MERSENNE_61)), 0);
        assert_eq!(mod_mersenne_128(u128::from(MERSENNE_61) + 5), 5);
        // Against a direct (slow) computation.
        for i in 0..1000u128 {
            let x = i * 0x0123_4567_89AB_CDEF_u128 + i;
            assert_eq!(u128::from(mod_mersenne_128(x)), x % u128::from(MERSENNE_61));
        }
    }

    #[test]
    fn mul_mod_matches_naive() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let a = rng.gen_range(MERSENNE_61);
            let b = rng.gen_range(MERSENNE_61);
            let expect = ((u128::from(a) * u128::from(b)) % u128::from(MERSENNE_61)) as u64;
            assert_eq!(mul_mod(a, b), expect);
        }
    }

    #[test]
    fn pairwise_output_range() {
        let mut rng = SplitMix64::new(2);
        for bits in [1u32, 8, 16, 32, 63] {
            let h = PairwiseHash::random(bits, &mut rng);
            assert_eq!(h.output_bits(), bits);
            for x in 0..1000u64 {
                assert!(h.hash(x) < (1u64 << bits));
            }
        }
    }

    #[test]
    #[should_panic(expected = "output_bits")]
    fn pairwise_rejects_zero_bits() {
        let mut rng = SplitMix64::new(3);
        let _ = PairwiseHash::random(0, &mut rng);
    }

    #[test]
    fn pairwise_collision_rate_matches_universality() {
        // For 2-universal hashing into 2^10 buckets, Pr[collision] <= 2^-10.
        let mut rng = SplitMix64::new(4);
        let h = PairwiseHash::random(10, &mut rng);
        let n = 2000u64;
        let mut collisions = 0u64;
        let hashes: Vec<u64> = (0..n).map(|x| h.hash(x)).collect();
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                if hashes[i] == hashes[j] {
                    collisions += 1;
                }
            }
        }
        let pairs = n * (n - 1) / 2;
        let rate = collisions as f64 / pairs as f64;
        // Allow 3x slack over the 2^-10 bound for test stability.
        assert!(rate < 3.0 / 1024.0, "collision rate {rate} too high");
    }

    #[test]
    fn kwise_values_in_field() {
        let mut rng = SplitMix64::new(5);
        let h = KWiseHash::random(4, &mut rng);
        assert_eq!(h.independence(), 4);
        for x in 0..10_000u64 {
            assert!(h.hash(x) < MERSENNE_61);
        }
    }

    #[test]
    fn kwise_range_and_unit_maps() {
        let mut rng = SplitMix64::new(6);
        let h = KWiseHash::random(2, &mut rng);
        for x in 0..10_000u64 {
            assert!(h.hash_range(x, 97) < 97);
            let u = h.hash_unit(x);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn kwise_is_roughly_uniform() {
        let mut rng = SplitMix64::new(7);
        let h = KWiseHash::random(3, &mut rng);
        let buckets = 8u64;
        let mut counts = [0u32; 8];
        let trials = 80_000u64;
        for x in 0..trials {
            counts[h.hash_range(x, buckets) as usize] += 1;
        }
        let expected = (trials / buckets) as f64;
        for &c in &counts {
            assert!((f64::from(c) - expected).abs() / expected < 0.05);
        }
    }

    #[test]
    fn sign_hash_is_balanced() {
        let mut rng = SplitMix64::new(8);
        let s = SignHash::random(&mut rng);
        let total: i64 = (0..100_000u64).map(|x| s.sign(x)).sum();
        // Mean should be near 0; stderr of the sum is ~316.
        assert!(total.abs() < 1500, "sign sum {total} too biased");
    }

    #[test]
    fn sign_hash_values_are_plus_minus_one() {
        let mut rng = SplitMix64::new(9);
        let s = SignHash::random(&mut rng);
        for x in 0..1000u64 {
            let v = s.sign(x);
            assert!(v == 1 || v == -1);
        }
    }

    #[test]
    fn distinct_draws_differ() {
        let mut rng = SplitMix64::new(10);
        let h1 = KWiseHash::random(4, &mut rng);
        let h2 = KWiseHash::random(4, &mut rng);
        assert_ne!(h1, h2);
    }
}
