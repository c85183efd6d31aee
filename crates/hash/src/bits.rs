//! Bit-twiddling helpers shared by the sketch crates.

/// Position of the first 1-bit (counting from 1) in the low `width` bits of
/// `hash`, or `width + 1` if they are all zero.
///
/// This is the `rho` function of Flajolet–Martin / LogLog / HyperLogLog:
/// under a uniform hash, `Pr[rho(h) = k] = 2^{-k}`.
#[inline]
#[must_use]
pub fn rho(hash: u64, width: u32) -> u8 {
    debug_assert!(width <= 64);
    let masked = if width == 64 {
        hash
    } else {
        hash & ((1u64 << width) - 1)
    };
    if masked == 0 {
        (width + 1) as u8
    } else {
        (masked.trailing_zeros() + 1) as u8
    }
}

/// Number of leading zeros in the low `width` bits of `hash`, plus one —
/// the register value used by HyperLogLog when the bucket index is taken
/// from the *high* bits.
#[inline]
#[must_use]
pub fn rho_leading(hash: u64, width: u32) -> u8 {
    debug_assert!((1..=64).contains(&width));
    let shifted = hash << (64 - width);
    if shifted == 0 {
        (width + 1) as u8
    } else {
        (shifted.leading_zeros() + 1) as u8
    }
}

/// Returns the smallest power of two `>= n` (and at least 1).
#[inline]
#[must_use]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Returns `true` if `n` is a power of two (0 is not).
#[inline]
#[must_use]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// A compact, growable bit vector used by Bloom filters and related
/// structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a bit vector of `len` zero bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to 1, returning its previous value.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was = *word & mask != 0;
        *word |= mask;
        was
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear_bit(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Zeroes every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Bitwise OR with another vector of the same length.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Bitwise AND with another vector of the same length.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn intersect_with(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Heap space in bytes.
    #[must_use]
    pub fn space_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_small_cases() {
        assert_eq!(rho(0b1, 8), 1);
        assert_eq!(rho(0b10, 8), 2);
        assert_eq!(rho(0b100, 8), 3);
        assert_eq!(rho(0, 8), 9);
        assert_eq!(rho(0, 64), 65);
        assert_eq!(rho(u64::MAX, 64), 1);
    }

    #[test]
    fn rho_distribution_is_geometric() {
        use crate::mix::mix64;
        let mut counts = [0u32; 8];
        let n = 1_000_000u64;
        for x in 0..n {
            let r = rho(mix64(x), 64) as usize;
            if r <= 8 {
                counts[r - 1] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = n as f64 / 2f64.powi(i as i32 + 1);
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.05, "rho={} count {} vs {}", i + 1, c, expected);
        }
    }

    #[test]
    fn rho_leading_small_cases() {
        // With width 8, hash bits b7..b0 are examined from the top.
        assert_eq!(rho_leading(0b1000_0000, 8), 1);
        assert_eq!(rho_leading(0b0100_0000, 8), 2);
        assert_eq!(rho_leading(0b0000_0001, 8), 8);
        assert_eq!(rho_leading(0, 8), 9);
    }

    #[test]
    fn pow2_helpers() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1024), 1024);
        assert!(is_pow2(1));
        assert!(is_pow2(64));
        assert!(!is_pow2(0));
        assert!(!is_pow2(12));
    }

    #[test]
    fn bitvec_set_get_clear() {
        let mut bv = BitVec::zeros(130);
        assert_eq!(bv.len(), 130);
        assert!(!bv.get(0));
        assert!(!bv.set(0));
        assert!(bv.set(0), "second set reports already-set");
        assert!(bv.get(0));
        bv.set(129);
        assert!(bv.get(129));
        assert_eq!(bv.count_ones(), 2);
        bv.clear_bit(0);
        assert!(!bv.get(0));
        bv.clear();
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitvec_bounds_checked() {
        let bv = BitVec::zeros(10);
        let _ = bv.get(10);
    }

    #[test]
    fn bitvec_union_and_intersect() {
        let mut a = BitVec::zeros(100);
        let mut b = BitVec::zeros(100);
        a.set(1);
        a.set(50);
        b.set(50);
        b.set(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert!(u.get(1) && u.get(50) && u.get(99));
        assert_eq!(u.count_ones(), 3);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert!(i.get(50));
        assert_eq!(i.count_ones(), 1);
    }

    #[test]
    fn bitvec_space() {
        let bv = BitVec::zeros(128);
        assert_eq!(bv.space_bytes(), 16);
        let bv = BitVec::zeros(129);
        assert_eq!(bv.space_bytes(), 24);
    }
}
