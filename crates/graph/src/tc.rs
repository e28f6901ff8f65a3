//! Full transitive-closure materialization.
//!
//! One bitset row per vertex, filled by dynamic programming over the
//! reverse topological order: `row(v) = {v's successors} ∪ ⋃ row(w)`.
//! This is the "one extreme" of §2.1 of the paper — O(n²/8) bytes, so
//! it only scales to small graphs, but it provides:
//!
//! * ground truth for every index's correctness tests,
//! * the substrate the compression baselines (PWAH-8, Interval) encode,
//! * `|TC|` statistics used when sampling positive query workloads.

use crate::bitset::FixedBitset;
use crate::dag::Dag;
use crate::error::{GraphError, Result};
use crate::VertexId;

/// Materialized transitive closure of a [`Dag`].
///
/// By convention rows *exclude* the vertex itself; [`Self::reaches`]
/// special-cases `u == v` to `true` (every vertex reaches itself via the
/// empty path, matching the paper's query semantics).
#[derive(Clone, Debug)]
pub struct TransitiveClosure {
    rows: Vec<FixedBitset>,
}

impl TransitiveClosure {
    /// Materializes the closure of `dag`.
    ///
    /// Memory is Θ(n²/8); use [`Self::build_with_budget`] when the input
    /// size is not known to be small.
    ///
    /// ```
    /// use hoplite_graph::{Dag, TransitiveClosure};
    ///
    /// let dag = Dag::from_edges(3, &[(0, 1), (1, 2)])?;
    /// let tc = TransitiveClosure::build(&dag);
    /// assert!(tc.reaches(0, 2));
    /// assert_eq!(tc.num_pairs(), 3); // (0,1) (0,2) (1,2)
    /// # Ok::<(), hoplite_graph::GraphError>(())
    /// ```
    pub fn build(dag: &Dag) -> Self {
        Self::build_with_budget(dag, u64::MAX).expect("unlimited budget cannot be exceeded")
    }

    /// Materializes the closure unless it would exceed `budget_bytes`.
    pub fn build_with_budget(dag: &Dag, budget_bytes: u64) -> Result<Self> {
        let n = dag.num_vertices();
        let required = (n as u64) * (n as u64).div_ceil(64) * 8;
        if required > budget_bytes {
            return Err(GraphError::BudgetExceeded {
                what: "transitive closure",
                required_bytes: required,
                budget_bytes,
            });
        }
        let mut rows: Vec<FixedBitset> = (0..n).map(|_| FixedBitset::new(n)).collect();
        // Reverse topological order: successors' rows are complete when
        // a vertex is processed.
        for &v in dag.topo_order().iter().rev() {
            // Split borrows: move v's row out, merge successors, put back.
            let mut row = std::mem::replace(&mut rows[v as usize], FixedBitset::new(0));
            for &w in dag.out_neighbors(v) {
                row.set(w as usize);
                row.union_with(&rows[w as usize]);
            }
            rows[v as usize] = row;
        }
        Ok(TransitiveClosure { rows })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff `u` reaches `v` (reflexive).
    #[inline]
    pub fn reaches(&self, u: VertexId, v: VertexId) -> bool {
        u == v || self.rows[u as usize].contains(v as usize)
    }

    /// The closure row of `u`: all vertices it reaches, excluding itself.
    pub fn row(&self, u: VertexId) -> &FixedBitset {
        &self.rows[u as usize]
    }

    /// Total number of reachable pairs `(u, v)` with `u != v`.
    /// This is the `|TC|` the 2-hop literature measures.
    pub fn num_pairs(&self) -> u64 {
        self.rows.iter().map(|r| r.count_ones() as u64).sum()
    }

    /// Heap bytes used by the closure rows.
    pub fn memory_bytes(&self) -> usize {
        self.rows.iter().map(|r| r.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn diamond_matches_bfs() {
        let dag = Dag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let tc = TransitiveClosure::build(&dag);
        traversal::assert_matches_bfs(dag.graph(), "diamond", |u, v| tc.reaches(u, v));
    }

    #[test]
    fn disconnected_matches_bfs() {
        let dag = Dag::from_edges(6, &[(0, 1), (2, 3)]).unwrap();
        let tc = TransitiveClosure::build(&dag);
        traversal::assert_matches_bfs(dag.graph(), "disconnected", |u, v| tc.reaches(u, v));
        assert_eq!(tc.num_pairs(), 2);
    }

    #[test]
    fn path_pair_count() {
        // Path of 4 vertices: pairs = 3 + 2 + 1 = 6.
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let tc = TransitiveClosure::build(&dag);
        assert_eq!(tc.num_pairs(), 6);
    }

    #[test]
    fn reflexive_reachability() {
        let dag = Dag::from_edges(2, &[]).unwrap();
        let tc = TransitiveClosure::build(&dag);
        assert!(tc.reaches(0, 0));
        assert!(tc.reaches(1, 1));
        assert!(!tc.reaches(0, 1));
    }

    #[test]
    fn budget_is_enforced() {
        let dag = Dag::from_edges(1000, &[(0, 1)]).unwrap();
        match TransitiveClosure::build_with_budget(&dag, 1024) {
            Err(GraphError::BudgetExceeded { required_bytes, .. }) => {
                assert!(required_bytes > 1024)
            }
            other => panic!("expected budget error, got {other:?}"),
        }
        assert!(TransitiveClosure::build_with_budget(&dag, u64::MAX).is_ok());
    }

    #[test]
    fn empty_graph() {
        let dag = Dag::from_edges(0, &[]).unwrap();
        let tc = TransitiveClosure::build(&dag);
        assert_eq!(tc.num_pairs(), 0);
        assert_eq!(tc.num_vertices(), 0);
    }
}
