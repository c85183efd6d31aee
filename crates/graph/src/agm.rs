//! The AGM linear graph sketch: dynamic connectivity from L0 samplers over
//! signed edge-incidence vectors.

use sketches_core::{Clear, MergeSketch, SketchError, SketchResult, SpaceUsage};
use sketches_sampling::L0Sampler;

use crate::union_find::UnionFind;

/// An AGM graph sketch over vertices `0..n`.
///
/// Keeps `rounds` independent sketch copies per vertex (one consumed per
/// Borůvka round for independence); each copy is an [`L0Sampler`] over the
/// edge-index space `[0, n²)` with `2·log2(n) + 4` subsampling levels.
#[derive(Debug, Clone)]
pub struct AgmGraphSketch {
    /// `samplers[round][vertex]`.
    samplers: Vec<Vec<L0Sampler>>,
    n: usize,
    rounds: usize,
    edges_alive: i64,
}

impl AgmGraphSketch {
    /// Creates a sketch for `n >= 2` vertices with `rounds` Borůvka rounds
    /// (use `≥ log2(n) + 2` for high success probability) and per-level
    /// recovery sparsity `s`.
    ///
    /// # Errors
    /// Returns an error for degenerate parameters.
    pub fn new(n: usize, rounds: usize, s: usize, seed: u64) -> SketchResult<Self> {
        if n < 2 {
            return Err(SketchError::invalid("n", "need at least 2 vertices"));
        }
        if rounds == 0 {
            return Err(SketchError::invalid("rounds", "need at least 1 round"));
        }
        let levels = 2 * (usize::BITS - n.leading_zeros()) as usize + 4;
        let samplers = (0..rounds)
            .map(|r| {
                (0..n)
                    .map(|_v| {
                        // IMPORTANT: all vertices in a round share the same
                        // sampler seed so their sketches are mergeable
                        // (linear in the same random basis).
                        L0Sampler::with_levels(s, 3, levels, seed ^ ((r as u64) << 32 | 0xA6E0))
                    })
                    .collect::<SketchResult<Vec<_>>>()
            })
            .collect::<SketchResult<Vec<_>>>()?;
        Ok(Self {
            samplers,
            n,
            rounds,
            edges_alive: 0,
        })
    }

    /// Encodes edge `(a, b)` (with `a < b`) as an index in `[0, n²)`.
    fn encode(&self, a: usize, b: usize) -> u64 {
        (a as u64) * (self.n as u64) + b as u64
    }

    /// Decodes an edge index back to `(a, b)`.
    fn decode(&self, e: u64) -> (usize, usize) {
        ((e / self.n as u64) as usize, (e % self.n as u64) as usize)
    }

    fn apply_edge(&mut self, u: usize, v: usize, delta: i64) -> SketchResult<()> {
        if u >= self.n || v >= self.n {
            return Err(SketchError::invalid("vertex", "out of range"));
        }
        if u == v {
            return Err(SketchError::invalid("edge", "self-loops not supported"));
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let e = self.encode(a, b);
        for round in &mut self.samplers {
            round[a].update(e, delta);
            round[b].update(e, -delta);
        }
        self.edges_alive += delta;
        Ok(())
    }

    /// Inserts edge `(u, v)`.
    ///
    /// # Errors
    /// Returns an error for out-of-range vertices or self-loops.
    pub fn insert_edge(&mut self, u: usize, v: usize) -> SketchResult<()> {
        self.apply_edge(u, v, 1)
    }

    /// Deletes edge `(u, v)` (must have been inserted — this is a linear
    /// sketch, it cannot detect spurious deletions).
    ///
    /// # Errors
    /// Returns an error for out-of-range vertices or self-loops.
    pub fn delete_edge(&mut self, u: usize, v: usize) -> SketchResult<()> {
        self.apply_edge(u, v, -1)
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Net number of edges currently present.
    #[must_use]
    pub fn edges_alive(&self) -> i64 {
        self.edges_alive
    }

    /// Runs Borůvka over the sketches and returns the spanning forest
    /// found plus the final component structure.
    ///
    /// Each round merges (sums) every current component's vertex sketches
    /// — cancelling intra-component edges — and samples one outgoing edge
    /// per component. With `rounds ≈ log2(n) + O(1)` the result is the true
    /// component structure with high probability.
    #[must_use]
    pub fn spanning_forest(&self) -> (Vec<(usize, usize)>, UnionFind) {
        self.spanning_forest_rounds(0, self.rounds)
    }

    /// Borůvka restricted to sampler rounds `[start, end)` — lets the
    /// k-connectivity certificate give each layer disjoint randomness.
    fn spanning_forest_rounds(&self, start: usize, end: usize) -> (Vec<(usize, usize)>, UnionFind) {
        let mut uf = UnionFind::new(self.n);
        let mut forest = Vec::new();
        for round in &self.samplers[start.min(self.rounds)..end.min(self.rounds)] {
            if uf.num_components() == 1 {
                break;
            }
            // Aggregate each component's sketch for this round. A BTreeMap
            // keyed by component root makes the union order below a pure
            // function of the graph — with a hash map the forest varied
            // from run to run whenever two components' samples conflicted.
            let labels = uf.labels();
            let mut agg: std::collections::BTreeMap<usize, L0Sampler> =
                std::collections::BTreeMap::new();
            for v in 0..self.n {
                let root = labels[v];
                match agg.get_mut(&root) {
                    None => {
                        agg.insert(root, round[v].clone());
                    }
                    Some(s) => {
                        #[expect(
                            clippy::expect_used,
                            reason = "all per-vertex samplers are built in new() from the same seed, so merge cannot fail"
                        )]
                        s.merge(&round[v]).expect("same seed by construction");
                    }
                }
            }
            // Sample one cut edge per component and union.
            let mut progressed = false;
            for (_root, sketch) in agg {
                if let Some((e, _w)) = sketch.sample() {
                    let (a, b) = self.decode(e);
                    if a < self.n && b < self.n && uf.union(a, b) {
                        forest.push((a, b));
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        (forest, uf)
    }

    /// Component label per vertex (labels are representative vertex ids).
    #[must_use]
    pub fn connected_components(&self) -> Vec<usize> {
        let (_, mut uf) = self.spanning_forest();
        uf.labels()
    }

    /// Whether the graph is (with high probability) connected.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let (_, uf) = self.spanning_forest();
        uf.num_components() == 1
    }

    /// A k-edge-connectivity certificate (AGM): the union of `k` layered
    /// spanning forests, `F₁ ∪ … ∪ F_k`, where `F_i` is a spanning forest
    /// of the graph minus the earlier layers. The certificate preserves
    /// every cut of size up to `k` (min-cut(certificate) = min(k,
    /// min-cut(G))), in at most `k·(n−1)` edges.
    ///
    /// Each layer queries a *disjoint block* of sampler rounds
    /// (`rounds / k` per layer), so layer `i+1` never re-queries randomness
    /// that layer `i`'s deletions were derived from. Construct the sketch
    /// with `rounds ≥ k·(log₂ n + 2)` so each block suffices for a full
    /// Borůvka walk; with fewer rounds the later layers may fail to find
    /// their forests (under-reporting connectivity, never over-reporting).
    ///
    /// # Errors
    /// Propagates edge-update errors (impossible for edges the sketch
    /// itself produced).
    pub fn k_connectivity_certificate(&self, k: usize) -> SketchResult<Vec<(usize, usize)>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let per_layer = (self.rounds / k).max(1);
        let mut working = self.clone();
        let mut certificate = Vec::new();
        for layer in 0..k {
            let start = layer * per_layer;
            if start >= self.rounds {
                break;
            }
            // The last layer takes any remainder rounds.
            let end = if layer == k - 1 {
                self.rounds
            } else {
                (start + per_layer).min(self.rounds)
            };
            let (forest, _) = working.spanning_forest_rounds(start, end);
            if forest.is_empty() {
                break;
            }
            for &(a, b) in &forest {
                working.delete_edge(a, b)?;
            }
            certificate.extend_from_slice(&forest);
        }
        Ok(certificate)
    }
}

impl Clear for AgmGraphSketch {
    fn clear(&mut self) {
        for round in &mut self.samplers {
            for s in round {
                s.clear();
            }
        }
        self.edges_alive = 0;
    }
}

impl SpaceUsage for AgmGraphSketch {
    fn space_bytes(&self) -> usize {
        self.samplers
            .iter()
            .flat_map(|round| round.iter().map(SpaceUsage::space_bytes))
            .sum()
    }
}

impl MergeSketch for AgmGraphSketch {
    /// Merging two sketches of edge-disjoint graphs over the same vertex
    /// set yields the sketch of the union graph (linearity).
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.n != other.n || self.rounds != other.rounds {
            return Err(SketchError::incompatible("shapes differ"));
        }
        for (ra, rb) in self.samplers.iter_mut().zip(&other.samplers) {
            for (a, b) in ra.iter_mut().zip(rb) {
                a.merge(b)?;
            }
        }
        self.edges_alive += other.edges_alive;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(n: usize, seed: u64) -> AgmGraphSketch {
        let rounds = (usize::BITS - n.leading_zeros()) as usize + 3;
        AgmGraphSketch::new(n, rounds, 8, seed).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(AgmGraphSketch::new(1, 4, 8, 0).is_err());
        assert!(AgmGraphSketch::new(8, 0, 8, 0).is_err());
        let mut g = sketch(4, 0);
        assert!(g.insert_edge(0, 0).is_err());
        assert!(g.insert_edge(0, 9).is_err());
    }

    #[test]
    fn empty_graph_is_fully_disconnected() {
        let g = sketch(8, 1);
        let (forest, uf) = g.spanning_forest();
        assert!(forest.is_empty());
        assert_eq!(uf.num_components(), 8);
    }

    #[test]
    fn single_edge() {
        let mut g = sketch(4, 2);
        g.insert_edge(1, 3).unwrap();
        let (forest, mut uf) = g.spanning_forest();
        assert_eq!(forest, vec![(1, 3)]);
        assert!(uf.connected(1, 3));
        assert_eq!(uf.num_components(), 3);
    }

    #[test]
    fn path_graph_connects() {
        let n = 32;
        let mut g = sketch(n, 3);
        for i in 0..n - 1 {
            g.insert_edge(i, i + 1).unwrap();
        }
        assert!(g.is_connected(), "path graph should be connected");
        let (forest, _) = g.spanning_forest();
        assert_eq!(forest.len(), n - 1);
    }

    #[test]
    fn two_cliques_form_two_components() {
        let n = 20;
        let mut g = sketch(n, 4);
        for a in 0..10 {
            for b in (a + 1)..10 {
                g.insert_edge(a, b).unwrap();
            }
        }
        for a in 10..n {
            for b in (a + 1)..n {
                g.insert_edge(a, b).unwrap();
            }
        }
        let (_, mut uf) = g.spanning_forest();
        assert_eq!(uf.num_components(), 2);
        assert!(uf.connected(0, 9));
        assert!(uf.connected(10, 19));
        assert!(!uf.connected(0, 10));
    }

    #[test]
    fn deletion_disconnects() {
        // Bridge between two triangles; deleting it splits the graph.
        let mut g = sketch(6, 5);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.insert_edge(a, b).unwrap();
        }
        g.insert_edge(2, 3).unwrap(); // the bridge
        assert!(g.is_connected());
        g.delete_edge(2, 3).unwrap();
        let (_, mut uf) = g.spanning_forest();
        assert_eq!(uf.num_components(), 2);
        assert!(!uf.connected(0, 5));
    }

    #[test]
    fn insert_delete_churn() {
        // Insert a dense graph, delete everything except a spanning path.
        let n = 16;
        let mut g = sketch(n, 6);
        for a in 0..n {
            for b in (a + 1)..n {
                g.insert_edge(a, b).unwrap();
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                if b != a + 1 {
                    g.delete_edge(a, b).unwrap();
                }
            }
        }
        assert_eq!(g.edges_alive(), (n - 1) as i64);
        assert!(g.is_connected(), "surviving path must keep graph connected");
    }

    #[test]
    fn matches_union_find_on_random_graphs() {
        use sketches_hash::rng::{Rng64, Xoshiro256PlusPlus};
        let mut rng = Xoshiro256PlusPlus::new(77);
        for trial in 0..5u64 {
            let n = 24;
            let mut g = sketch(n, 100 + trial);
            let mut uf = UnionFind::new(n);
            // Random sparse graph.
            for _ in 0..20 {
                let a = rng.gen_range(n as u64) as usize;
                let b = rng.gen_range(n as u64) as usize;
                if a != b {
                    g.insert_edge(a, b).unwrap();
                    uf.union(a, b);
                }
            }
            let (_, mut sketch_uf) = g.spanning_forest();
            assert_eq!(
                sketch_uf.num_components(),
                uf.num_components(),
                "trial {trial}: component counts differ"
            );
            // Every sketched connection must be real (forest edges are real
            // edges by linearity) — verify pairwise agreement.
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        sketch_uf.connected(a, b),
                        uf.connected(a, b),
                        "trial {trial}: pair ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_unions_edge_sets() {
        let mut a = sketch(8, 9);
        let mut b = sketch(8, 9);
        a.insert_edge(0, 1).unwrap();
        a.insert_edge(2, 3).unwrap();
        b.insert_edge(1, 2).unwrap();
        a.merge(&b).unwrap();
        let (_, mut uf) = a.spanning_forest();
        assert!(uf.connected(0, 3), "merged graph should chain 0-1-2-3");
        assert!(a.merge(&sketch(9, 9)).is_err());
    }

    #[test]
    fn space_is_subquadratic_in_edges() {
        // The whole point: a clique on n vertices has ~n²/2 edges, but the
        // sketch stores O(n·polylog) — check the sketch is much smaller
        // than an edge list for a dense graph.
        let n = 64;
        let g = sketch(n, 10);
        let edge_list_bytes = (n * (n - 1) / 2) * 2 * std::mem::size_of::<u32>();
        // The sketch wins asymptotically; at n=64 just confirm it is within
        // a polylog factor rather than quadratic blowup.
        let ratio = g.space_bytes() as f64 / edge_list_bytes as f64;
        assert!(
            ratio < 2_000.0,
            "sketch/edge-list ratio {ratio:.1} unexpectedly large"
        );
    }

    #[test]
    fn clear_resets() {
        let mut g = sketch(4, 11);
        g.insert_edge(0, 1).unwrap();
        g.clear();
        assert_eq!(g.edges_alive(), 0);
        let (forest, _) = g.spanning_forest();
        assert!(forest.is_empty());
    }
}

#[cfg(test)]
mod certificate_tests {
    use super::*;

    fn sketch(n: usize, seed: u64) -> AgmGraphSketch {
        // Extra rounds so each certificate layer gets fresh randomness.
        let rounds = 3 * ((usize::BITS - n.leading_zeros()) as usize + 2);
        AgmGraphSketch::new(n, rounds, 8, seed).unwrap()
    }

    #[test]
    fn certificate_of_a_tree_is_the_tree() {
        let n = 12;
        let mut g = sketch(n, 1);
        for i in 0..n - 1 {
            g.insert_edge(i, i + 1).unwrap();
        }
        let cert = g.k_connectivity_certificate(3).unwrap();
        // A tree has exactly one spanning forest; layers 2 and 3 are empty.
        assert_eq!(cert.len(), n - 1);
        let mut uf = UnionFind::new(n);
        for &(a, b) in &cert {
            uf.union(a, b);
        }
        assert_eq!(uf.num_components(), 1);
    }

    #[test]
    fn certificate_of_a_cycle_recovers_both_layers() {
        // A cycle is 2-edge-connected: layer 1 is a Hamiltonian path,
        // layer 2 must contain the one remaining edge.
        let n = 10;
        let mut g = sketch(n, 2);
        for i in 0..n {
            g.insert_edge(i, (i + 1) % n).unwrap();
        }
        let cert = g.k_connectivity_certificate(2).unwrap();
        assert_eq!(cert.len(), n, "cycle certificate must keep all n edges");
    }

    #[test]
    fn certificate_preserves_bridges() {
        // Two triangles joined by a bridge: any k>=1 certificate must keep
        // the bridge (it is the only 0-2 ... 3-5 connection).
        let mut g = sketch(6, 3);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            g.insert_edge(a, b).unwrap();
        }
        let cert = g.k_connectivity_certificate(2).unwrap();
        assert!(
            cert.contains(&(2, 3)),
            "bridge (2,3) missing from certificate {cert:?}"
        );
        // Certificate keeps the graph connected.
        let mut uf = UnionFind::new(6);
        for &(a, b) in &cert {
            uf.union(a, b);
        }
        assert_eq!(uf.num_components(), 1);
    }

    #[test]
    fn certificate_is_bounded_by_k_spanning_forests() {
        let n = 16;
        let mut g = sketch(n, 4);
        // Dense graph.
        for a in 0..n {
            for b in (a + 1)..n {
                g.insert_edge(a, b).unwrap();
            }
        }
        let cert = g.k_connectivity_certificate(3).unwrap();
        assert!(cert.len() <= 3 * (n - 1), "{} edges", cert.len());
        assert!(cert.len() >= n - 1);
        // Edges must be distinct (each layer removed its forest).
        let set: std::collections::HashSet<(usize, usize)> = cert.iter().copied().collect();
        assert_eq!(set.len(), cert.len(), "duplicate edge in certificate");
    }
}
