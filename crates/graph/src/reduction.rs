//! Transitive reduction of DAGs.
//!
//! Definition 1 of the paper notes that backbone edge sets "can be
//! simplified as a transitive reduction (the minimal edge set
//! preserving the reachability)" but that computing it exactly "is as
//! expensive as transitive closure", which is why the backbone uses a
//! local ε-rule instead. This module provides both:
//!
//! * [`transitive_reduction`] — the exact reduction via materialized
//!   closure (Θ(n²/8) memory; small graphs only), used by tests and
//!   offline tooling;
//! * [`is_redundant_edge`] — the point query the exact algorithm is
//!   built from, usable with any closure the caller already holds.
//!
//! For a DAG (no cycles), the transitive reduction is unique.

use crate::dag::Dag;
use crate::digraph::{DiGraph, GraphBuilder};
use crate::error::Result;
use crate::tc::TransitiveClosure;
use crate::VertexId;

/// `true` iff the edge `(u, v)` is redundant: some other successor of
/// `u` already reaches `v`, so removing the edge preserves
/// reachability.
pub fn is_redundant_edge(g: &DiGraph, tc: &TransitiveClosure, u: VertexId, v: VertexId) -> bool {
    g.out_neighbors(u)
        .iter()
        .any(|&w| w != v && tc.reaches(w, v))
}

/// Computes the (unique) transitive reduction of `dag`.
///
/// Materializes the transitive closure, so the memory bill is
/// Θ(n²/8) bytes — pass a budget if the input size is unknown.
pub fn transitive_reduction(dag: &Dag) -> Dag {
    transitive_reduction_with_budget(dag, u64::MAX).expect("unlimited budget")
}

/// Budgeted variant of [`transitive_reduction`].
pub fn transitive_reduction_with_budget(dag: &Dag, budget_bytes: u64) -> Result<Dag> {
    let tc = TransitiveClosure::build_with_budget(dag, budget_bytes)?;
    let g = dag.graph();
    let mut b = GraphBuilder::with_capacity(dag.num_vertices(), dag.num_edges());
    for (u, v) in g.edges() {
        if !is_redundant_edge(g, &tc, u, v) {
            b.add_edge_unchecked(u, v);
        }
    }
    Ok(Dag::new(b.build()).expect("subgraph of a DAG is acyclic"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::traversal;

    #[test]
    fn diamond_with_shortcut_loses_the_shortcut() {
        // 0 -> 1 -> 2 plus shortcut 0 -> 2: the shortcut is redundant.
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let red = transitive_reduction(&dag);
        assert_eq!(red.num_edges(), 2);
        assert!(!red.graph().has_edge(0, 2));
        assert!(red.graph().has_edge(0, 1) && red.graph().has_edge(1, 2));
    }

    #[test]
    fn reduction_preserves_reachability() {
        for seed in 0..5 {
            let dag = gen::random_dag(40, 160, seed);
            let red = transitive_reduction(&dag);
            assert!(red.num_edges() <= dag.num_edges());
            let what = format!("reduction of random_dag seed {seed}");
            traversal::assert_matches_bfs(dag.graph(), &what, |u, v| {
                traversal::reaches(red.graph(), u, v)
            });
        }
    }

    #[test]
    fn reduction_is_minimal() {
        // Removing any kept edge must change reachability.
        let dag = gen::random_dag(20, 60, 7);
        let red = transitive_reduction(&dag);
        let edges: Vec<_> = red.graph().edges().collect();
        for &(u, v) in &edges {
            let remaining: Vec<_> = edges.iter().copied().filter(|&e| e != (u, v)).collect();
            let sub = Dag::from_edges(20, &remaining).unwrap();
            assert!(
                !traversal::reaches(sub.graph(), u, v),
                "edge ({u},{v}) was removable: reduction not minimal"
            );
        }
    }

    #[test]
    fn tree_is_its_own_reduction() {
        let dag = gen::tree_plus_dag(60, 0, 3);
        let red = transitive_reduction(&dag);
        assert_eq!(red.graph(), dag.graph());
    }

    #[test]
    fn reduction_is_idempotent() {
        let dag = gen::random_dag(30, 120, 9);
        let once = transitive_reduction(&dag);
        let twice = transitive_reduction(&once);
        assert_eq!(once.graph(), twice.graph());
    }

    #[test]
    fn budget_propagates() {
        let dag = gen::random_dag(2000, 6000, 1);
        assert!(transitive_reduction_with_budget(&dag, 64).is_err());
    }
}
