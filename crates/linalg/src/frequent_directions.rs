//! Frequent Directions (Liberty, KDD 2013; Ghashami et al.), the matrix
//! analogue of Misra–Gries the survey's "deep theoretical advances" era
//! produced.
//!
//! Maintains an `ℓ × d` sketch `B` of a row stream `A` such that
//! `0 ⪯ AᵀA − BᵀB ⪯ (‖A‖_F²/ℓ)·I`. When the buffer fills, an SVD shrinks
//! all singular values by the ℓ-th one — the "decrement all counters" step
//! of Misra–Gries, lifted to rows. The SVD is computed via a symmetric
//! eigendecomposition of the small `2ℓ × 2ℓ` Gram matrix `BBᵀ`, so the
//! cost never depends on the stream length.

use sketches_core::{Clear, MergeSketch, SketchError, SketchResult, SpaceUsage};

use crate::matrix::Matrix;

/// A Frequent Directions sketch with `ℓ` retained directions over
/// `d`-dimensional rows.
#[derive(Debug, Clone)]
pub struct FrequentDirections {
    /// The 2ℓ-row working buffer; the invariant keeps at most ℓ nonzero
    /// rows between shrinks.
    buffer: Matrix,
    /// Next free row in the buffer.
    next_row: usize,
    l: usize,
    d: usize,
    rows_seen: u64,
}

impl FrequentDirections {
    /// Creates a sketch with `l >= 2` directions over dimension `d >= 1`.
    ///
    /// # Errors
    /// Returns an error for degenerate parameters.
    pub fn new(l: usize, d: usize) -> SketchResult<Self> {
        if l < 2 {
            return Err(SketchError::invalid("l", "need l >= 2"));
        }
        if d == 0 {
            return Err(SketchError::invalid("d", "need d >= 1"));
        }
        Ok(Self {
            buffer: Matrix::zeros(2 * l, d),
            next_row: 0,
            l,
            d,
            rows_seen: 0,
        })
    }

    /// Appends a row of the input matrix.
    ///
    /// # Errors
    /// Returns an error on dimension mismatch.
    pub fn append(&mut self, row: &[f64]) -> SketchResult<()> {
        if row.len() != self.d {
            return Err(SketchError::invalid("row", "dimension mismatch"));
        }
        if self.next_row == 2 * self.l {
            self.shrink();
        }
        self.buffer.row_mut(self.next_row).copy_from_slice(row);
        self.next_row += 1;
        self.rows_seen += 1;
        Ok(())
    }

    /// The Misra–Gries shrink: SVD the buffer, subtract `σ_ℓ²` from every
    /// squared singular value, and keep the top ℓ directions.
    fn shrink(&mut self) {
        let m = self.next_row;
        // Gram matrix G = B·Bᵀ over the occupied rows (m × m, small).
        let mut g = Matrix::zeros(m, m);
        for i in 0..m {
            for j in i..m {
                let v = crate::matrix::dot(self.buffer.row(i), self.buffer.row(j));
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "g is built l x l symmetric just above, the only failure symmetric_eigen checks"
        )]
        let (eigvals, u) = g.symmetric_eigen().expect("square by construction");
        // Singular values: σᵢ = √λᵢ; shrink by λ_ℓ (0-indexed l-1 .. use the
        // ℓ-th largest, i.e. index l-1, per the FD guarantee).
        let delta = eigvals.get(self.l - 1).copied().unwrap_or(0.0).max(0.0);
        // New rows: for each kept direction i, row = √(λᵢ−δ)/σᵢ · (uᵢᵀ B).
        let mut new_buffer = Matrix::zeros(2 * self.l, self.d);
        let mut out_row = 0;
        for (i, &lambda) in eigvals.iter().enumerate().take(self.l) {
            let shrunk = (lambda - delta).max(0.0);
            if shrunk <= 1e-30 {
                continue;
            }
            let sigma = lambda.max(1e-300).sqrt();
            let scale = shrunk.sqrt() / sigma;
            // vᵢᵀ = (1/σᵢ)·uᵢᵀB ; new row = √shrunk · vᵢᵀ = scale · uᵢᵀB.
            for r in 0..m {
                let coef = u[(r, i)] * scale;
                if coef == 0.0 {
                    continue;
                }
                let src = self.buffer.row(r).to_vec();
                let dst = new_buffer.row_mut(out_row);
                for (dv, sv) in dst.iter_mut().zip(&src) {
                    *dv += coef * sv;
                }
            }
            out_row += 1;
        }
        self.buffer = new_buffer;
        self.next_row = out_row;
    }

    /// The current sketch matrix `B` (at most `2ℓ` rows; call after
    /// [`Self::compact`] for the canonical ≤ℓ-row form).
    #[must_use]
    pub fn sketch(&self) -> Matrix {
        let mut b = Matrix::zeros(self.next_row, self.d);
        for r in 0..self.next_row {
            b.row_mut(r).copy_from_slice(self.buffer.row(r));
        }
        b
    }

    /// Forces a shrink so the sketch has at most `ℓ` rows.
    pub fn compact(&mut self) {
        if self.next_row > self.l {
            self.shrink();
        }
    }

    /// The covariance error bound `‖A‖_F²/ℓ` requires knowing `‖A‖_F²`;
    /// this returns the sketch's own `‖B‖_F²` (a lower bound on it).
    #[must_use]
    pub fn sketch_frobenius_sq(&self) -> f64 {
        let b = self.sketch();
        let f = b.frobenius_norm();
        f * f
    }

    /// Number of directions `ℓ`.
    #[must_use]
    pub fn l(&self) -> usize {
        self.l
    }

    /// Rows appended so far.
    #[must_use]
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }
}

impl Clear for FrequentDirections {
    fn clear(&mut self) {
        self.buffer = Matrix::zeros(2 * self.l, self.d);
        self.next_row = 0;
        self.rows_seen = 0;
    }
}

impl SpaceUsage for FrequentDirections {
    fn space_bytes(&self) -> usize {
        2 * self.l * self.d * std::mem::size_of::<f64>()
    }
}

impl MergeSketch for FrequentDirections {
    /// FD is mergeable (Ghashami et al.): append the other sketch's rows
    /// and re-shrink.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.l != other.l || self.d != other.d {
            return Err(SketchError::incompatible("shapes differ"));
        }
        let other_rows = other.sketch();
        let seen = other.rows_seen;
        for r in 0..other_rows.rows() {
            // append() counts rows_seen; correct afterwards.
            self.append(other_rows.row(r))?;
            self.rows_seen -= 1;
        }
        self.rows_seen += seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_hash::rng::{Rng64, Xoshiro256PlusPlus};

    /// Builds a random low-rank-ish matrix and returns (rows, AᵀA).
    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        // Rows concentrated on a few directions plus noise.
        let dirs: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..d).map(|_| rng.gauss()).collect())
            .collect();
        (0..n)
            .map(|_| {
                let mut row: Vec<f64> = (0..d).map(|_| rng.gauss() * 0.1).collect();
                for dir in &dirs {
                    let c = rng.gauss() * 3.0;
                    for (r, &dv) in row.iter_mut().zip(dir) {
                        *r += c * dv;
                    }
                }
                row
            })
            .collect()
    }

    fn gram(rows: &[Vec<f64>], d: usize) -> Matrix {
        let mut g = Matrix::zeros(d, d);
        for row in rows {
            for i in 0..d {
                for j in 0..d {
                    g[(i, j)] += row[i] * row[j];
                }
            }
        }
        g
    }

    #[test]
    fn rejects_bad_params() {
        assert!(FrequentDirections::new(1, 4).is_err());
        assert!(FrequentDirections::new(4, 0).is_err());
        let mut fd = FrequentDirections::new(4, 3).unwrap();
        assert!(fd.append(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn covariance_error_within_guarantee() {
        let d = 20;
        let l = 10;
        let rows = random_rows(500, d, 1);
        let mut fd = FrequentDirections::new(l, d).unwrap();
        for row in &rows {
            fd.append(row).unwrap();
        }
        fd.compact();
        let b = fd.sketch();
        assert!(b.rows() <= l, "sketch has {} rows", b.rows());
        let ata = gram(&rows, d);
        let btb = b.transpose().matmul(&b).unwrap();
        // diff = AᵀA − BᵀB must be PSD with spectral norm ≤ ‖A‖_F²/ℓ.
        let mut diff = Matrix::zeros(d, d);
        for i in 0..d {
            for j in 0..d {
                diff[(i, j)] = ata[(i, j)] - btb[(i, j)];
            }
        }
        let frob_sq: f64 = rows.iter().map(|r| crate::matrix::dot(r, r)).sum();
        let bound = frob_sq / l as f64;
        let err = diff.spectral_norm();
        assert!(
            err <= bound * 1.05,
            "spectral err {err:.2} vs bound {bound:.2}"
        );
        // PSD check: smallest eigenvalue of diff is ≥ -tiny.
        let (vals, _) = diff.symmetric_eigen().unwrap();
        let min = vals.last().copied().unwrap_or(0.0);
        assert!(min > -1e-6 * frob_sq, "AᵀA − BᵀB not PSD: min eig {min}");
    }

    #[test]
    fn exact_when_rows_fit() {
        let mut fd = FrequentDirections::new(8, 4).unwrap();
        let rows = vec![
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0, 0.0],
            vec![0.0, 0.0, 3.0, 0.0],
        ];
        for r in &rows {
            fd.append(r).unwrap();
        }
        // No shrink happened: BᵀB = AᵀA exactly.
        let b = fd.sketch();
        let btb = b.transpose().matmul(&b).unwrap();
        let ata = gram(&rows, 4);
        for i in 0..4 {
            for j in 0..4 {
                assert!((btb[(i, j)] - ata[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn top_direction_preserved() {
        // One dominant direction; FD must keep it almost exactly.
        let d = 10;
        let mut fd = FrequentDirections::new(4, d).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(7);
        let dir: Vec<f64> = {
            let v: Vec<f64> = (0..d).map(|_| rng.gauss()).collect();
            let n = crate::matrix::l2_norm(&v);
            v.into_iter().map(|x| x / n).collect()
        };
        let mut rows = Vec::new();
        for _ in 0..200 {
            let c = 10.0 + rng.gauss();
            let noise: Vec<f64> = (0..d).map(|_| rng.gauss() * 0.05).collect();
            let row: Vec<f64> = dir
                .iter()
                .zip(&noise)
                .map(|(&dv, &nv)| c * dv + nv)
                .collect();
            rows.push(row);
        }
        for r in &rows {
            fd.append(r).unwrap();
        }
        fd.compact();
        let b = fd.sketch();
        // The energy of B along `dir` should be close to A's.
        let energy =
            |m: &[Vec<f64>]| -> f64 { m.iter().map(|r| crate::matrix::dot(r, &dir).powi(2)).sum() };
        let b_rows: Vec<Vec<f64>> = (0..b.rows()).map(|r| b.row(r).to_vec()).collect();
        let ea = energy(&rows);
        let eb = energy(&b_rows);
        assert!(
            (ea - eb).abs() / ea < 0.15,
            "dominant-direction energy {eb:.1} vs {ea:.1}"
        );
    }

    #[test]
    fn merge_preserves_guarantee() {
        let d = 12;
        let l = 8;
        let rows = random_rows(400, d, 9);
        let mut a = FrequentDirections::new(l, d).unwrap();
        let mut b = FrequentDirections::new(l, d).unwrap();
        for (i, row) in rows.iter().enumerate() {
            if i % 2 == 0 {
                a.append(row).unwrap();
            } else {
                b.append(row).unwrap();
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a.rows_seen(), 400);
        a.compact();
        let bm = a.sketch();
        let ata = gram(&rows, d);
        let btb = bm.transpose().matmul(&bm).unwrap();
        let mut diff = Matrix::zeros(d, d);
        for i in 0..d {
            for j in 0..d {
                diff[(i, j)] = ata[(i, j)] - btb[(i, j)];
            }
        }
        let frob_sq: f64 = rows.iter().map(|r| crate::matrix::dot(r, r)).sum();
        // Merged FD guarantee is 2·‖A‖_F²/ℓ in the worst case.
        assert!(diff.spectral_norm() <= 2.0 * frob_sq / l as f64 * 1.05);
        assert!(a
            .merge(&FrequentDirections::new(l, d + 1).unwrap())
            .is_err());
    }

    #[test]
    fn clear_resets() {
        let mut fd = FrequentDirections::new(4, 3).unwrap();
        fd.append(&[1.0, 2.0, 3.0]).unwrap();
        fd.clear();
        assert_eq!(fd.rows_seen(), 0);
        assert_eq!(fd.sketch().rows(), 0);
    }
}
