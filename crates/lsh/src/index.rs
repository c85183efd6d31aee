//! Candidate-generation LSH indexes.
//!
//! * [`MinHashIndex`] — the banding construction over MinHash signatures:
//!   `b` bands of `r` rows; two sets become candidates when any band
//!   matches, giving the S-curve `1 − (1 − j^r)^b` (experiment E10).
//! * [`EuclideanLshIndex`] — `L` tables of `k` concatenated p-stable
//!   hashes for approximate near-neighbour search in `ℝ^d`.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

use sketches_core::{SketchError, SketchResult, SpaceUsage, Update};
use sketches_hash::hash_bytes;

use crate::minhash::{MinHashSignature, MinHasher};
use crate::pstable::PStableHasher;

/// A banded index over MinHash signatures; item payloads are `u64` ids.
#[derive(Debug, Clone)]
pub struct MinHashIndex {
    bands: usize,
    rows: usize,
    seed: u64,
    /// One bucket map per band: band-key → item ids.
    tables: Vec<HashMap<u64, Vec<u64>>>,
    items: usize,
}

impl MinHashIndex {
    /// Creates an index with `bands × rows` signature components.
    ///
    /// # Errors
    /// Returns an error if either parameter is zero.
    pub fn new(bands: usize, rows: usize, seed: u64) -> SketchResult<Self> {
        if bands == 0 || rows == 0 {
            return Err(SketchError::invalid("bands/rows", "must be positive"));
        }
        Ok(Self {
            bands,
            rows,
            seed,
            tables: vec![HashMap::new(); bands],
            items: 0,
        })
    }

    /// Builds the signature of a set with the index's parameters.
    pub fn signature_of<T: Hash, I: IntoIterator<Item = T>>(&self, set: I) -> MinHashSignature {
        #[expect(
            clippy::expect_used,
            reason = "bands and rows were validated positive in new(), so the component count is positive"
        )]
        let mut mh = MinHasher::new(self.bands * self.rows, self.seed).expect("validated");
        for item in set {
            mh.update(&item);
        }
        mh.signature()
    }

    fn band_key(&self, sig: &MinHashSignature, band: usize) -> u64 {
        let slice = &sig.0[band * self.rows..(band + 1) * self.rows];
        let bytes: Vec<u8> = slice.iter().flat_map(|v| v.to_le_bytes()).collect();
        hash_bytes(&bytes, band as u64)
    }

    /// Inserts an item id with its signature.
    ///
    /// # Errors
    /// Returns an error if the signature has the wrong length.
    pub fn insert(&mut self, id: u64, sig: &MinHashSignature) -> SketchResult<()> {
        if sig.len() != self.bands * self.rows {
            return Err(SketchError::invalid("sig", "signature length mismatch"));
        }
        for band in 0..self.bands {
            let key = self.band_key(sig, band);
            self.tables[band].entry(key).or_default().push(id);
        }
        self.items += 1;
        Ok(())
    }

    /// Returns the candidate ids sharing at least one band with `sig`, as
    /// an ordered set (iteration order is ascending id, never hash order).
    ///
    /// # Errors
    /// Returns an error if the signature has the wrong length.
    pub fn candidates(&self, sig: &MinHashSignature) -> SketchResult<BTreeSet<u64>> {
        if sig.len() != self.bands * self.rows {
            return Err(SketchError::invalid("sig", "signature length mismatch"));
        }
        let mut out = BTreeSet::new();
        for band in 0..self.bands {
            let key = self.band_key(sig, band);
            if let Some(ids) = self.tables[band].get(&key) {
                out.extend(ids.iter().copied());
            }
        }
        Ok(out)
    }

    /// Theoretical probability that a pair with Jaccard `j` becomes a
    /// candidate: `1 − (1 − j^r)^b`.
    #[must_use]
    pub fn candidate_probability(&self, j: f64) -> f64 {
        1.0 - (1.0 - j.powi(self.rows as i32)).powi(self.bands as i32)
    }

    /// Number of inserted items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }
}

impl SpaceUsage for MinHashIndex {
    fn space_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.values().map(|v| 8 + v.len() * 8).sum::<usize>())
            .sum()
    }
}

/// An E2LSH index: `L` tables keyed by `k` concatenated p-stable hashes.
#[derive(Debug)]
pub struct EuclideanLshIndex {
    hashers: Vec<Vec<PStableHasher>>,
    tables: Vec<HashMap<Vec<i64>, Vec<u64>>>,
    points: Vec<Vec<f64>>,
    d: usize,
}

impl EuclideanLshIndex {
    /// Creates an index over dimension `d` with `l` tables of `k`
    /// concatenated hashes of width `w`.
    ///
    /// # Errors
    /// Returns an error for zero parameters or a bad width.
    pub fn new(d: usize, l: usize, k: usize, w: f64, seed: u64) -> SketchResult<Self> {
        if l == 0 || k == 0 {
            return Err(SketchError::invalid("l/k", "must be positive"));
        }
        let hashers = (0..l)
            .map(|t| {
                (0..k)
                    .map(|i| PStableHasher::new(d, w, seed ^ ((t * 1000 + i) as u64 + 1)))
                    .collect::<SketchResult<Vec<_>>>()
            })
            .collect::<SketchResult<Vec<_>>>()?;
        Ok(Self {
            hashers,
            tables: vec![HashMap::new(); l],
            points: Vec::new(),
            d,
        })
    }

    fn key(&self, table: usize, v: &[f64]) -> SketchResult<Vec<i64>> {
        self.hashers[table].iter().map(|h| h.hash(v)).collect()
    }

    /// Inserts a point, returning its id.
    ///
    /// # Errors
    /// Returns an error on dimension mismatch.
    pub fn insert(&mut self, v: &[f64]) -> SketchResult<u64> {
        if v.len() != self.d {
            return Err(SketchError::invalid("v", "dimension mismatch"));
        }
        let id = self.points.len() as u64;
        for t in 0..self.tables.len() {
            let key = self.key(t, v)?;
            self.tables[t].entry(key).or_default().push(id);
        }
        self.points.push(v.to_vec());
        Ok(id)
    }

    /// Returns candidate ids colliding with `v` in any table, as an ordered
    /// set (iteration order is ascending id, never hash order).
    ///
    /// # Errors
    /// Returns an error on dimension mismatch.
    pub fn candidates(&self, v: &[f64]) -> SketchResult<BTreeSet<u64>> {
        if v.len() != self.d {
            return Err(SketchError::invalid("v", "dimension mismatch"));
        }
        let mut out = BTreeSet::new();
        for t in 0..self.tables.len() {
            let key = self.key(t, v)?;
            if let Some(ids) = self.tables[t].get(&key) {
                out.extend(ids.iter().copied());
            }
        }
        Ok(out)
    }

    /// Approximate nearest neighbour: the closest candidate (or `None` if
    /// no candidates collide).
    ///
    /// # Errors
    /// Returns an error on dimension mismatch.
    pub fn nearest(&self, v: &[f64]) -> SketchResult<Option<(u64, f64)>> {
        let cands = self.candidates(v)?;
        // Ties in distance break toward the smallest id: a total order, so
        // the reported neighbour is the same in every run.
        Ok(cands
            .into_iter()
            .map(|id| {
                let p = &self.points[id as usize];
                let d2: f64 = p.iter().zip(v).map(|(&a, &b)| (a - b) * (a - b)).sum();
                (id, d2.sqrt())
            })
            .min_by(|a, b| f64::total_cmp(&a.1, &b.1).then_with(|| a.0.cmp(&b.0))))
    }

    /// Stored point by id.
    #[must_use]
    pub fn point(&self, id: u64) -> Option<&[f64]> {
        self.points.get(id as usize).map(Vec::as_slice)
    }

    /// Number of stored points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_hash::rng::{Rng64, Xoshiro256PlusPlus};

    #[test]
    fn rejects_bad_params() {
        assert!(MinHashIndex::new(0, 4, 0).is_err());
        assert!(MinHashIndex::new(4, 0, 0).is_err());
        assert!(EuclideanLshIndex::new(4, 0, 2, 1.0, 0).is_err());
    }

    #[test]
    fn similar_sets_become_candidates() {
        let mut idx = MinHashIndex::new(16, 4, 1).unwrap();
        // 20 base sets; set i shares 90% of its elements with set 0 when
        // i < 3, nothing otherwise.
        let mut sigs = Vec::new();
        for i in 0..20u64 {
            let set: Vec<u64> = if i < 3 {
                (0..90).chain(1000 * i..1000 * i + 10).collect()
            } else {
                (10_000 * i..10_000 * i + 100).collect()
            };
            let sig = idx.signature_of(set);
            idx.insert(i, &sig).unwrap();
            sigs.push(sig);
        }
        let cands = idx.candidates(&sigs[0]).unwrap();
        assert!(cands.contains(&0));
        assert!(cands.contains(&1), "highly similar set 1 missed");
        assert!(cands.contains(&2), "highly similar set 2 missed");
        // Unrelated sets should mostly NOT be candidates.
        let noise: usize = (3..20u64).filter(|i| cands.contains(i)).count();
        assert!(noise <= 2, "{noise} dissimilar sets were candidates");
    }

    #[test]
    fn s_curve_probability() {
        let idx = MinHashIndex::new(20, 5, 0).unwrap();
        // r=5, b=20: threshold ≈ (1/b)^(1/r) ≈ 0.55.
        assert!(idx.candidate_probability(0.2) < 0.1);
        assert!(idx.candidate_probability(0.8) > 0.99);
        // Monotone.
        let mut last = 0.0;
        for j in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let p = idx.candidate_probability(j);
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn empirical_candidate_rate_matches_s_curve() {
        // Pairs with Jaccard ~0.6 under a 10x4 banding.
        let mut hits = 0u32;
        let trials = 400;
        for t in 0..trials {
            let mut idx = MinHashIndex::new(10, 4, 777 + t as u64).unwrap();
            // Build two sets with Jaccard 0.6: |A∩B|=60, |A∪B|=100.
            let a: Vec<u64> = (0..80).collect();
            let b: Vec<u64> = (20..100).collect(); // inter 60, union 100
            let sa = idx.signature_of(a);
            let sb = idx.signature_of(b);
            idx.insert(1, &sa).unwrap();
            if idx.candidates(&sb).unwrap().contains(&1) {
                hits += 1;
            }
        }
        let emp = f64::from(hits) / f64::from(trials);
        let theory = MinHashIndex::new(10, 4, 0)
            .unwrap()
            .candidate_probability(0.6);
        assert!(
            (emp - theory).abs() < 0.1,
            "empirical {emp:.3} vs S-curve {theory:.3}"
        );
    }

    #[test]
    fn euclidean_index_finds_near_neighbour() {
        let d = 8;
        let mut rng = Xoshiro256PlusPlus::new(5);
        let mut idx = EuclideanLshIndex::new(d, 8, 4, 4.0, 6).unwrap();
        let mut points = Vec::new();
        for _ in 0..200 {
            let p: Vec<f64> = (0..d).map(|_| rng.gauss() * 10.0).collect();
            idx.insert(&p).unwrap();
            points.push(p);
        }
        // Query near point 17.
        let q: Vec<f64> = points[17].iter().map(|&x| x + 0.01).collect();
        let (id, dist) = idx.nearest(&q).unwrap().expect("neighbour found");
        assert_eq!(id, 17);
        assert!(dist < 0.1);
    }

    #[test]
    fn euclidean_index_rejects_bad_dims() {
        let mut idx = EuclideanLshIndex::new(4, 2, 2, 1.0, 0).unwrap();
        assert!(idx.insert(&[1.0, 2.0]).is_err());
        assert!(idx.candidates(&[1.0]).is_err());
    }

    #[test]
    fn far_points_rarely_candidates() {
        let d = 8;
        let mut idx = EuclideanLshIndex::new(d, 4, 6, 1.0, 9).unwrap();
        let origin = vec![0.0; d];
        idx.insert(&origin).unwrap();
        let mut far = vec![0.0; d];
        far[0] = 1000.0;
        assert!(!idx.candidates(&far).unwrap().contains(&0));
    }
}
