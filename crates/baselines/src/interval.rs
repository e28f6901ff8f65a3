//! Nuutila-style interval compression of the transitive closure —
//! the paper's INT baseline, "recently demonstrated to be one of the
//! fastest reachability computation methods" (van Schaik & de Moor).
//!
//! A DFS spanning forest assigns every vertex a post-order number; the
//! tree descendants of `v` occupy the contiguous range
//! `[tlow(v), post(v)]`. The reachable set of `v` is then the union of
//! its own tree interval with its successors' interval sets, computed
//! by one reverse-topological sweep and stored as a sorted, coalesced
//! interval list. `u → v` iff `post(v)` falls inside one of `u`'s
//! intervals (binary search).
//!
//! Like the original, the interval lists can approach Θ(n) per vertex
//! on closure-dense graphs — construction takes a byte budget and
//! reports [`GraphError::BudgetExceeded`] the way the paper's INT
//! column reports "—" on graphs it cannot handle.

use hoplite_core::ReachIndex;
use hoplite_graph::{Dag, GraphError, VertexId};

/// Interval-compressed transitive closure.
pub struct IntervalIndex {
    /// Post-order number of each vertex.
    post: Vec<u32>,
    /// CSR: interval list of vertex `v` is
    /// `intervals[offsets[v]..offsets[v+1]]`, sorted, disjoint, and
    /// non-adjacent (maximally coalesced).
    offsets: Vec<u32>,
    intervals: Vec<(u32, u32)>,
}

impl IntervalIndex {
    /// Builds the index, failing once the interval lists exceed
    /// `budget_bytes`.
    pub fn build(dag: &Dag, budget_bytes: u64) -> Result<Self, GraphError> {
        Self::build_limited(dag, budget_bytes, None)
    }

    /// [`Self::build`] with an additional wall-clock cap for the
    /// interval-merging sweep.
    pub fn build_limited(
        dag: &Dag,
        budget_bytes: u64,
        time_budget: Option<std::time::Duration>,
    ) -> Result<Self, GraphError> {
        let start = std::time::Instant::now();
        let n = dag.num_vertices();
        let g = dag.graph();

        // --- DFS forest post-order + subtree-minimum (tlow). ---------
        let mut post = vec![0u32; n];
        let mut tlow = vec![0u32; n];
        let mut visited = vec![false; n];
        let mut counter = 0u32;
        let mut stack: Vec<(VertexId, usize)> = Vec::new();
        for root in 0..n as VertexId {
            // Every vertex is below some in-degree-0 vertex in a DAG,
            // but scanning all vertices also covers isolated ones and
            // keeps the code independent of root enumeration order.
            if visited[root as usize] || g.in_degree(root) != 0 {
                continue;
            }
            visit_dfs(
                g,
                root,
                &mut visited,
                &mut post,
                &mut tlow,
                &mut counter,
                &mut stack,
            );
        }
        debug_assert_eq!(counter as usize, n);

        // --- Reverse-topological interval union. ---------------------
        let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut total: u64 = 0;
        let mut buf: Vec<(u32, u32)> = Vec::new();
        for (step, &v) in dag.topo_order().iter().rev().enumerate() {
            if let Some(tb) = time_budget {
                if step % 1024 == 0 && start.elapsed() > tb {
                    return Err(GraphError::BudgetExceeded {
                        what: "interval-index construction time",
                        required_bytes: start.elapsed().as_millis() as u64,
                        budget_bytes: tb.as_millis() as u64,
                    });
                }
            }
            buf.clear();
            buf.push((tlow[v as usize], post[v as usize]));
            for &w in g.out_neighbors(v) {
                buf.extend_from_slice(&lists[w as usize]);
            }
            let merged = coalesce(&mut buf);
            total += merged.len() as u64;
            if total * 8 > budget_bytes {
                return Err(GraphError::BudgetExceeded {
                    what: "interval index",
                    required_bytes: total * 8,
                    budget_bytes,
                });
            }
            lists[v as usize] = merged;
        }

        // --- Freeze into CSR. -----------------------------------------
        let mut offsets = Vec::with_capacity(n + 1);
        let mut intervals = Vec::with_capacity(total as usize);
        offsets.push(0u32);
        for l in &lists {
            intervals.extend_from_slice(l);
            offsets.push(intervals.len() as u32);
        }
        Ok(IntervalIndex {
            post,
            offsets,
            intervals,
        })
    }

    fn list(&self, v: VertexId) -> &[(u32, u32)] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.intervals[lo..hi]
    }
}

/// Iterative DFS assigning post-order numbers and subtree minima.
fn visit_dfs(
    g: &hoplite_graph::DiGraph,
    root: VertexId,
    visited: &mut [bool],
    post: &mut [u32],
    tlow: &mut [u32],
    counter: &mut u32,
    stack: &mut Vec<(VertexId, usize)>,
) {
    visited[root as usize] = true;
    stack.push((root, 0));
    // tlow is the post number of the first finished vertex of the
    // subtree; DFS post-order finishes subtrees contiguously, so it is
    // the counter value when the vertex is first pushed.
    tlow[root as usize] = *counter;
    while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
        let succs = g.out_neighbors(v);
        if let Some(&w) = succs.get(*idx) {
            *idx += 1;
            if !visited[w as usize] {
                visited[w as usize] = true;
                tlow[w as usize] = *counter;
                stack.push((w, 0));
            }
        } else {
            post[v as usize] = *counter;
            *counter += 1;
            stack.pop();
        }
    }
}

/// Sorts intervals by start and coalesces overlapping / adjacent ones.
fn coalesce(buf: &mut [(u32, u32)]) -> Vec<(u32, u32)> {
    buf.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(buf.len());
    for &(lo, hi) in buf.iter() {
        match out.last_mut() {
            Some(&mut (_, ref mut phi)) if lo <= phi.saturating_add(1) => {
                *phi = (*phi).max(hi);
            }
            _ => out.push((lo, hi)),
        }
    }
    out
}

impl ReachIndex for IntervalIndex {
    fn name(&self) -> &'static str {
        "INT"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        let p = self.post[v as usize];
        let list = self.list(u);
        // Last interval starting at or before p.
        match list.partition_point(|&(lo, _)| lo <= p).checked_sub(1) {
            Some(i) => list[i].1 >= p,
            None => false,
        }
    }

    fn size_in_integers(&self) -> u64 {
        (self.post.len() + self.offsets.len() + 2 * self.intervals.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::gen;

    #[test]
    fn tree_needs_one_interval_per_vertex() {
        // On a pure tree the reachable set of each vertex is exactly its
        // subtree: a single interval.
        let dag = gen::tree_plus_dag(100, 0, 7);
        let idx = IntervalIndex::build(&dag, u64::MAX).unwrap();
        for v in 0..100u32 {
            assert_eq!(idx.list(v).len(), 1, "tree vertex {v} needs 1 interval");
        }
    }

    #[test]
    fn coalesce_merges_overlaps_and_adjacency() {
        let mut buf = vec![(5, 7), (0, 2), (3, 4), (9, 9), (6, 8)];
        // (0,2)+(3,4)+(5,7)+(6,8) all chain together; (9,9) adjacent to 8.
        assert_eq!(coalesce(&mut buf), vec![(0, 9)]);
        let mut buf = vec![(0, 1), (4, 5)];
        assert_eq!(coalesce(&mut buf), vec![(0, 1), (4, 5)]);
    }

    #[test]
    fn budget_enforced() {
        let dag = gen::random_dag(300, 2000, 3);
        assert!(matches!(
            IntervalIndex::build(&dag, 64),
            Err(GraphError::BudgetExceeded { .. })
        ));
    }
}
