//! Pruned Landmark Labeling (Akiba, Iwata & Yoshida, SIGMOD 2013) —
//! the paper's PL baseline.
//!
//! PL is a *distance* labeling: every label entry carries
//! `(hop rank, distance)`, BFS pruning keeps an entry only when the
//! current labels cannot already certify a distance at least as small,
//! and a query evaluates `min over common hops of d₁ + d₂`. §2.4 calls
//! DL "similar in spirit" but notes the differences reproduced here:
//! PL's prune condition is distance-based (strictly weaker than DL's
//! reachability-based prune, so PL labels are supersets), and queries
//! pay "additional distance comparison cost" — the full merge runs to
//! the end instead of stopping at the first common hop, which is why
//! the paper measures PL near GRAIL rather than near DL.

use std::collections::VecDeque;

use hoplite_core::{OrderKind, ReachIndex};
use hoplite_graph::traversal::VisitedSet;
use hoplite_graph::{Dag, VertexId};

/// One label entry: hop rank and BFS distance to/from it.
type Entry = (u32, u32);

/// Pruned landmark distance labels answering reachability.
pub struct PrunedLandmark {
    out: Vec<Vec<Entry>>,
    in_: Vec<Vec<Entry>>,
}

impl PrunedLandmark {
    /// Builds PL with the same degree-product rank order as DL.
    pub fn build(dag: &Dag) -> Self {
        let order = OrderKind::DegProduct.compute(dag);
        let n = dag.num_vertices();
        let g = dag.graph();
        let mut out: Vec<Vec<Entry>> = vec![Vec::new(); n];
        let mut in_: Vec<Vec<Entry>> = vec![Vec::new(); n];
        let mut visited = VisitedSet::new(n);
        let mut queue: VecDeque<(VertexId, u32)> = VecDeque::new();

        for (rank, &vi) in order.iter().enumerate() {
            let r = rank as u32;
            // Reverse BFS: vi enters L_out of its ancestors.
            visited.clear();
            queue.clear();
            visited.insert(vi);
            queue.push_back((vi, 0));
            while let Some((u, d)) = queue.pop_front() {
                // Prune iff existing labels already certify
                // dist(u, vi) ≤ d.
                if distance_between(&out[u as usize], &in_[vi as usize]).is_some_and(|cur| cur <= d)
                {
                    continue;
                }
                out[u as usize].push((r, d));
                for &w in g.in_neighbors(u) {
                    if visited.insert(w) {
                        queue.push_back((w, d + 1));
                    }
                }
            }
            // Forward BFS: vi enters L_in of its descendants.
            visited.clear();
            queue.clear();
            visited.insert(vi);
            queue.push_back((vi, 0));
            while let Some((w, d)) = queue.pop_front() {
                if distance_between(&out[vi as usize], &in_[w as usize]).is_some_and(|cur| cur <= d)
                {
                    continue;
                }
                in_[w as usize].push((r, d));
                for &x in g.out_neighbors(w) {
                    if visited.insert(x) {
                        queue.push_back((x, d + 1));
                    }
                }
            }
        }

        PrunedLandmark { out, in_ }
    }

    /// Exact shortest-path distance from `u` to `v` (in edges), or
    /// `None` if unreachable. `Some(0)` when `u == v`.
    pub fn distance(&self, u: VertexId, v: VertexId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        distance_between(&self.out[u as usize], &self.in_[v as usize])
    }

    /// **k-reach** (Cheng et al., VLDB 2012; listed as future work in
    /// §7 of the reachability-oracle paper): can `u` reach `v` within
    /// `k` edges? Answered exactly from the distance labels — because
    /// hop distances are shortest-path distances, `min d₁+d₂` over
    /// common hops is the true distance.
    pub fn within_k(&self, u: VertexId, v: VertexId, k: u32) -> bool {
        self.distance(u, v).is_some_and(|d| d <= k)
    }
}

/// `min over common hops of d₁ + d₂`; a full merge without early exit
/// (distances must be compared even after the first common hop).
fn distance_between(a: &[Entry], b: &[Entry]) -> Option<u32> {
    let (mut i, mut j) = (0usize, 0usize);
    let mut best: Option<u32> = None;
    while i < a.len() && j < b.len() {
        let ((ra, da), (rb, db)) = (a[i], b[j]);
        match ra.cmp(&rb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let d = da + db;
                best = Some(best.map_or(d, |x| x.min(d)));
                i += 1;
                j += 1;
            }
        }
    }
    best
}

impl ReachIndex for PrunedLandmark {
    fn name(&self) -> &'static str {
        "PL"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        self.distance(u, v).is_some()
    }

    fn size_in_integers(&self) -> u64 {
        let entries: usize = self
            .out
            .iter()
            .chain(self.in_.iter())
            .map(|l| l.len() * 2)
            .sum();
        entries as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_distance;
    use hoplite_graph::gen;

    #[test]
    fn distances_are_exact() {
        for seed in 0..4 {
            let dag = gen::random_dag(30, 80, seed);
            let idx = PrunedLandmark::build(&dag);
            for u in 0..30u32 {
                for v in 0..30u32 {
                    assert_eq!(
                        idx.distance(u, v),
                        bfs_distance(&dag, u, v),
                        "distance mismatch at ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn distance_labels_not_smaller_than_dl() {
        // PL's weaker pruning must never give *fewer* entries than DL.
        use hoplite_core::{DistributionLabeling, DlConfig};
        let dag = gen::random_dag(60, 200, 9);
        let pl = PrunedLandmark::build(&dag);
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        let pl_entries: usize = pl.out.iter().chain(pl.in_.iter()).map(Vec::len).sum();
        assert!(pl_entries as u64 >= dl.labeling().total_entries());
    }

    #[test]
    fn tree_distances() {
        let dag = gen::tree_plus_dag(50, 0, 3);
        let idx = PrunedLandmark::build(&dag);
        for u in 0..50u32 {
            assert_eq!(idx.distance(u, u), Some(0));
        }
    }

    #[test]
    fn within_k_matches_bounded_bfs() {
        use hoplite_graph::traversal::{bounded_neighborhood, Direction, TraversalScratch};
        for seed in 0..3 {
            let dag = gen::random_dag(40, 110, seed);
            let idx = PrunedLandmark::build(&dag);
            let mut scratch = TraversalScratch::new(40);
            let mut nbhd = Vec::new();
            for u in 0..40u32 {
                for k in [0u32, 1, 2, 4] {
                    nbhd.clear();
                    bounded_neighborhood(
                        dag.graph(),
                        u,
                        k,
                        Direction::Forward,
                        &mut scratch,
                        &mut nbhd,
                    );
                    for v in 0..40u32 {
                        let truth = nbhd.iter().any(|&(x, _)| x == v);
                        assert_eq!(
                            idx.within_k(u, v, k),
                            truth,
                            "within_k({u},{v},{k}) seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn within_k_monotone_in_k() {
        let dag = gen::power_law_dag(50, 150, 5);
        let idx = PrunedLandmark::build(&dag);
        for u in 0..50u32 {
            for v in 0..50u32 {
                for k in 0..6u32 {
                    if idx.within_k(u, v, k) {
                        assert!(idx.within_k(u, v, k + 1), "monotonicity broke");
                    }
                }
            }
        }
    }
}
