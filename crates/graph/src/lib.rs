//! Linear graph sketching (Ahn, Guha & McGregor, SODA 2012).
//!
//! The survey's example of sketches escaping "flat" frequency vectors:
//! each vertex keeps an L0 sampler over the *signed edge-incidence vector*
//! (edge `(a, b)`, `a < b`, counts `+1` at `a` and `−1` at `b`). Summing
//! the sketches of a vertex set cancels internal edges and leaves exactly
//! the cut — so Borůvka rounds over merged sketches compute connected
//! components and spanning forests of a *dynamic* (insert/delete) graph in
//! `O(n·polylog n)` space, sublinear in the number of edges.
//!
//! * [`union_find`] — the exact baseline (and the component tracker the
//!   sketch decoder itself uses).
//! * [`agm`] — the AGM sketch with connectivity / spanning-forest /
//!   component queries (experiment E11).

pub mod agm;
pub mod union_find;

pub use agm::AgmGraphSketch;
pub use union_find::UnionFind;
