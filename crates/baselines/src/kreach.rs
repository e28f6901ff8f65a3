//! K-Reach (Cheng et al., VLDB 2012) instantiated for plain
//! reachability (`k = ∞`), the paper's KR baseline.
//!
//! A **vertex cover** `S` (classic 2-approximation: repeatedly take
//! both endpoints of an uncovered edge) is, as the paper notes, exactly
//! a one-side reachability backbone with ε = 1. The pairwise
//! reachability *between cover vertices* is fully materialized as
//! |S|×|S| bit rows — the design decision that makes KR competitive on
//! small graphs and infeasible on large ones ("for very large graphs
//! where the vertex cover is often large, the pair-wise reachability
//! materialization is not feasible", §2.3).
//!
//! Query `u → v`: if `u ∉ S` every out-neighbor of `u` is in `S`
//! (otherwise the edge would be uncovered), and symmetrically for `v`'s
//! in-neighbors, so it suffices to test cover pairs
//! `(a, b) ∈ A × B` with `A = {u}∩S ∪ out(u)`, `B = {v}∩S ∪ in(v)`.

use hoplite_core::ReachIndex;
use hoplite_graph::bitset::FixedBitset;
use hoplite_graph::traversal::TraversalScratch;
use hoplite_graph::{Dag, DiGraph, GraphError, VertexId, INVALID_VERTEX};

/// K-Reach index (k = ∞).
pub struct KReach {
    g: DiGraph,
    /// Vertex → dense cover id, or [`INVALID_VERTEX`].
    cover_id: Vec<VertexId>,
    /// `rows[a]` = cover vertices reachable from cover vertex `a`
    /// (excluding itself), over dense cover ids.
    rows: Vec<FixedBitset>,
}

impl KReach {
    /// Builds the index; fails once the |S|² bit matrix would exceed
    /// `budget_bytes` (the paper's KR fails on all large graphs).
    pub fn build(dag: &Dag, budget_bytes: u64) -> Result<Self, GraphError> {
        Self::build_limited(dag, budget_bytes, None)
    }

    /// [`Self::build`] with an additional wall-clock cap: the per-cover
    /// BFS phase is Θ(|S|·m), which on closure-dense graphs outlasts
    /// any realistic patience long before memory runs out.
    pub fn build_limited(
        dag: &Dag,
        budget_bytes: u64,
        time_budget: Option<std::time::Duration>,
    ) -> Result<Self, GraphError> {
        let start = std::time::Instant::now();
        let n = dag.num_vertices();
        let g = dag.graph();

        // --- 2-approximate vertex cover. ------------------------------
        let mut in_cover = vec![false; n];
        for (u, v) in g.edges() {
            if !in_cover[u as usize] && !in_cover[v as usize] {
                in_cover[u as usize] = true;
                in_cover[v as usize] = true;
            }
        }
        let mut cover_id = vec![INVALID_VERTEX; n];
        let mut cover: Vec<VertexId> = Vec::new();
        for v in 0..n as VertexId {
            if in_cover[v as usize] {
                cover_id[v as usize] = cover.len() as VertexId;
                cover.push(v);
            }
        }
        let s = cover.len();
        let required = (s as u64) * (s as u64).div_ceil(64) * 8;
        if required > budget_bytes {
            return Err(GraphError::BudgetExceeded {
                what: "K-Reach cover matrix",
                required_bytes: required,
                budget_bytes,
            });
        }

        // --- Materialize cover-pair reachability by BFS. --------------
        let mut rows: Vec<FixedBitset> = (0..s).map(|_| FixedBitset::new(s)).collect();
        let mut scratch = TraversalScratch::new(n);
        for (a, &va) in cover.iter().enumerate() {
            if let Some(tb) = time_budget {
                if a % 64 == 0 && start.elapsed() > tb {
                    return Err(GraphError::BudgetExceeded {
                        what: "K-Reach construction time",
                        required_bytes: start.elapsed().as_millis() as u64,
                        budget_bytes: tb.as_millis() as u64,
                    });
                }
            }
            scratch.reset();
            scratch.visited.insert(va);
            scratch.queue.push_back(va);
            while let Some(x) = scratch.queue.pop_front() {
                for &w in g.out_neighbors(x) {
                    if scratch.visited.insert(w) {
                        scratch.queue.push_back(w);
                        let cw = cover_id[w as usize];
                        if cw != INVALID_VERTEX {
                            rows[a].set(cw as usize);
                        }
                    }
                }
            }
        }

        Ok(KReach {
            g: g.clone(),
            cover_id,
            rows,
        })
    }

    /// Number of cover vertices.
    pub fn cover_size(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    fn cover_reaches(&self, a: VertexId, b: VertexId) -> bool {
        a == b || self.rows[a as usize].contains(b as usize)
    }
}

impl ReachIndex for KReach {
    fn name(&self) -> &'static str {
        "K-Reach"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return true;
        }
        if self.g.has_edge(u, v) {
            return true;
        }
        let cu = self.cover_id[u as usize];
        let cv = self.cover_id[v as usize];
        // Entry candidates: u itself if covered, else its out-neighbors
        // (all of which are necessarily in the cover).
        let a_self = [u];
        let entries: &[VertexId] = if cu != INVALID_VERTEX {
            &a_self
        } else {
            self.g.out_neighbors(u)
        };
        let b_self = [v];
        let exits: &[VertexId] = if cv != INVALID_VERTEX {
            &b_self
        } else {
            self.g.in_neighbors(v)
        };
        for &a in entries {
            let ca = self.cover_id[a as usize];
            debug_assert_ne!(
                ca, INVALID_VERTEX,
                "neighbors of uncovered vertices must be covered"
            );
            for &b in exits {
                let cb = self.cover_id[b as usize];
                if self.cover_reaches(ca, cb) {
                    return true;
                }
            }
        }
        false
    }

    fn size_in_integers(&self) -> u64 {
        let matrix_words: usize = self.rows.iter().map(|r| r.memory_bytes() / 8).sum();
        self.cover_id.len() as u64 + 2 * matrix_words as u64
    }
}

/// The *k-bounded* K-Reach index — the query type Cheng et al. actually
/// introduce ("who is in your small world"), and the second future-work
/// item of the reachability-oracle paper (§7: "apply them on more
/// general reachability computation, such as k-reach problem").
///
/// Same vertex cover as [`KReach`], but the cover-pair matrix stores
/// *shortest-path distances* (`u16`, `MAX` = unreachable) instead of
/// bits. Because every vertex is at distance ≤ 1 from the cover, the
/// minimum of `d(u,a) + dist(a,b) + d(b,v)` over entry/exit cover pairs
/// is the exact shortest-path distance, so `within_k` is exact for
/// every `k`.
pub struct KReachBounded {
    g: DiGraph,
    cover_id: Vec<VertexId>,
    /// Dense |S|×|S| distance matrix over cover ids; `u16::MAX` means
    /// unreachable, diagonal is 0.
    dist: Vec<u16>,
    s: usize,
}

impl KReachBounded {
    /// Builds the distance-matrix variant; the |S|² `u16` matrix must
    /// fit in `budget_bytes`.
    pub fn build(dag: &Dag, budget_bytes: u64) -> Result<Self, GraphError> {
        let n = dag.num_vertices();
        let g = dag.graph();
        let mut in_cover = vec![false; n];
        for (u, v) in g.edges() {
            if !in_cover[u as usize] && !in_cover[v as usize] {
                in_cover[u as usize] = true;
                in_cover[v as usize] = true;
            }
        }
        let mut cover_id = vec![INVALID_VERTEX; n];
        let mut cover: Vec<VertexId> = Vec::new();
        for v in 0..n as VertexId {
            if in_cover[v as usize] {
                cover_id[v as usize] = cover.len() as VertexId;
                cover.push(v);
            }
        }
        let s = cover.len();
        let required = (s as u64) * (s as u64) * 2;
        if required > budget_bytes {
            return Err(GraphError::BudgetExceeded {
                what: "k-reach cover distance matrix",
                required_bytes: required,
                budget_bytes,
            });
        }

        let mut dist = vec![u16::MAX; s * s];
        let mut depth = vec![0u32; n];
        let mut scratch = TraversalScratch::new(n);
        for (a, &va) in cover.iter().enumerate() {
            dist[a * s + a] = 0;
            scratch.reset();
            scratch.visited.insert(va);
            scratch.queue.push_back(va);
            depth[va as usize] = 0;
            while let Some(x) = scratch.queue.pop_front() {
                let dx = depth[x as usize];
                for &w in g.out_neighbors(x) {
                    if scratch.visited.insert(w) {
                        depth[w as usize] = dx + 1;
                        scratch.queue.push_back(w);
                        let cw = cover_id[w as usize];
                        if cw != INVALID_VERTEX {
                            // Saturate below the MAX sentinel; paths of
                            // 65534+ edges are beyond any workload here.
                            dist[a * s + cw as usize] = (dx + 1).min(u16::MAX as u32 - 1) as u16;
                        }
                    }
                }
            }
        }

        Ok(KReachBounded {
            g: g.clone(),
            cover_id,
            dist,
            s,
        })
    }

    /// Number of cover vertices.
    pub fn cover_size(&self) -> usize {
        self.s
    }

    #[inline]
    fn cover_dist(&self, a: VertexId, b: VertexId) -> u32 {
        match self.dist[a as usize * self.s + b as usize] {
            u16::MAX => u32::MAX,
            d => d as u32,
        }
    }

    /// Exact shortest-path distance (in edges) from `u` to `v`, or
    /// `None` if `v` is unreachable.
    pub fn distance(&self, u: VertexId, v: VertexId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let mut best = if self.g.has_edge(u, v) {
            1u32
        } else {
            u32::MAX
        };
        let (cu, cv) = (self.cover_id[u as usize], self.cover_id[v as usize]);
        let a_self = [u];
        let entries: &[VertexId] = if cu != INVALID_VERTEX {
            &a_self
        } else {
            self.g.out_neighbors(u)
        };
        let b_self = [v];
        let exits: &[VertexId] = if cv != INVALID_VERTEX {
            &b_self
        } else {
            self.g.in_neighbors(v)
        };
        for &a in entries {
            let da = u32::from(a != u);
            let ca = self.cover_id[a as usize];
            for &b in exits {
                let db = u32::from(b != v);
                let cb = self.cover_id[b as usize];
                let mid = self.cover_dist(ca, cb);
                if mid != u32::MAX {
                    best = best.min(da + mid + db);
                }
            }
        }
        (best != u32::MAX).then_some(best)
    }

    /// Does `u` reach `v` within at most `k` edges? Exact.
    pub fn within_k(&self, u: VertexId, v: VertexId, k: u32) -> bool {
        self.distance(u, v).is_some_and(|d| d <= k)
    }

    /// Index size in 32-bit integers (the `u16` matrix counts as half
    /// an integer per entry).
    pub fn size_in_integers(&self) -> u64 {
        self.cover_id.len() as u64 + (self.s as u64 * self.s as u64).div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_distance;
    use hoplite_graph::gen;

    #[test]
    fn cover_is_a_vertex_cover() {
        let dag = gen::random_dag(60, 180, 4);
        let idx = KReach::build(&dag, u64::MAX).unwrap();
        for (u, v) in dag.graph().edges() {
            assert!(
                idx.cover_id[u as usize] != INVALID_VERTEX
                    || idx.cover_id[v as usize] != INVALID_VERTEX,
                "edge ({u},{v}) uncovered"
            );
        }
    }

    #[test]
    fn budget_enforced() {
        let dag = gen::random_dag(3000, 15000, 1);
        assert!(matches!(
            KReach::build(&dag, 100),
            Err(GraphError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn edgeless_graph_has_empty_cover() {
        let dag = Dag::from_edges(4, &[]).unwrap();
        let idx = KReach::build(&dag, u64::MAX).unwrap();
        assert_eq!(idx.cover_size(), 0);
    }

    #[test]
    fn bounded_distances_are_exact() {
        for seed in 0..5 {
            let dag = gen::random_dag(50, 140, seed);
            let idx = KReachBounded::build(&dag, u64::MAX).unwrap();
            for u in 0..50u32 {
                for v in 0..50u32 {
                    assert_eq!(
                        idx.distance(u, v),
                        bfs_distance(&dag, u, v),
                        "distance ({u},{v}) seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn within_k_sweeps_the_whole_range() {
        let dag = gen::layered_dag(60, 6, 150, 3);
        let idx = KReachBounded::build(&dag, u64::MAX).unwrap();
        for u in 0..60u32 {
            for v in 0..60u32 {
                let d = bfs_distance(&dag, u, v);
                for k in 0..8u32 {
                    assert_eq!(
                        idx.within_k(u, v, k),
                        d.is_some_and(|d| d <= k),
                        "within_{k}({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_on_path_graph() {
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(10, &edges).unwrap();
        let idx = KReachBounded::build(&dag, u64::MAX).unwrap();
        assert_eq!(idx.distance(0, 9), Some(9));
        assert!(idx.within_k(0, 9, 9));
        assert!(!idx.within_k(0, 9, 8));
        assert_eq!(idx.distance(9, 0), None);
    }

    #[test]
    fn bounded_budget_enforced() {
        let dag = gen::random_dag(3000, 15000, 1);
        assert!(matches!(
            KReachBounded::build(&dag, 100),
            Err(GraphError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn bounded_and_unbounded_agree_on_reachability() {
        for seed in 0..4 {
            let dag = gen::power_law_dag(60, 180, seed);
            let kr = KReach::build(&dag, u64::MAX).unwrap();
            let krb = KReachBounded::build(&dag, u64::MAX).unwrap();
            for u in 0..60u32 {
                for v in 0..60u32 {
                    assert_eq!(
                        kr.query(u, v),
                        krb.within_k(u, v, u32::MAX),
                        "({u},{v}) seed {seed}"
                    );
                }
            }
        }
    }
}
