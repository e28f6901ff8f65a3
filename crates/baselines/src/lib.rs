//! # hoplite-baselines
//!
//! From-scratch implementations of every reachability index the
//! VLDB 2013 reachability-oracle paper evaluates against (§6):
//!
//! | module | paper column | approach |
//! |---|---|---|
//! | [`online`] | (DFS/BFS) | index-free online search |
//! | [`grail`] | GL | GRAIL random-interval labels + pruned DFS |
//! | [`interval`] | INT | Nuutila post-order interval compression |
//! | [`pathtree`] | PT | path-decomposition (chain) compressed TC |
//! | [`pwah`] | PW8 | PWAH-8 word-aligned compressed bit vectors |
//! | [`twohop`] | 2HOP | Cohen et al. greedy set-cover 2-hop |
//! | [`kreach`] | KR | vertex-cover + cover-pair TC (K-Reach, k = ∞) |
//! | [`tflabel`] | TF | TF-label (≈ HL with ε = 1) |
//! | [`pruned_landmark`] | PL | pruned landmark *distance* labeling |
//! | [`scarab`] | GL\*, PT\* | SCARAB backbone wrapper over any index |
//! | [`fulltc`] | — | uncompressed transitive closure (reference) |
//!
//! All types implement [`hoplite_core::ReachIndex`], so the benchmark
//! harness and the tests drive them uniformly. Each index is proven
//! against BFS by its rows of the workspace correctness matrix
//! (`all_indexes` in `tests/correctness.rs`); the unit tests here cover
//! structure: budgets, covers, decompositions, sizes and distances.

pub mod fulltc;
pub mod grail;
pub mod interval;
pub mod kreach;
pub mod online;
pub mod pathtree;
pub mod pruned_landmark;
pub mod pwah;
pub mod scarab;
pub mod tflabel;
pub mod twohop;

pub use fulltc::FullTc;
pub use grail::Grail;
pub use interval::IntervalIndex;
pub use kreach::{KReach, KReachBounded};
pub use online::{BfsOnline, BidirOnline, DfsOnline};
pub use pathtree::PathTree;
pub use pruned_landmark::PrunedLandmark;
pub use pwah::Pwah8;
pub use scarab::Scarab;
pub use tflabel::TfLabel;
pub use twohop::TwoHop;

/// BFS shortest-path distance from `u` to `v`, the ground truth for
/// the distance-answering baselines' tests.
#[cfg(test)]
fn bfs_distance(dag: &hoplite_graph::Dag, u: u32, v: u32) -> Option<u32> {
    use hoplite_graph::traversal::{bounded_neighborhood, Direction, TraversalScratch};
    let mut scratch = TraversalScratch::new(dag.num_vertices());
    let mut out = Vec::new();
    let eps = dag.num_vertices() as u32;
    bounded_neighborhood(
        dag.graph(),
        u,
        eps,
        Direction::Forward,
        &mut scratch,
        &mut out,
    );
    out.iter().find(|&&(x, _)| x == v).map(|&(_, d)| d)
}
