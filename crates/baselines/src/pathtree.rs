//! Path-Tree-family compression (the paper's PT baseline, Jin et al.
//! SIGMOD 2008 / TODS 2011).
//!
//! The DAG is decomposed into vertex-disjoint **paths**; positions
//! reachable from any vertex on a given path always form a *suffix* of
//! that path (if you can reach position `j` you can walk the path edge
//! to `j+1`). The compressed closure of `v` is therefore one
//! `(path, min_position)` pair per path it reaches — the
//! chain-compression idea PT builds on. `u → v` iff `u`'s list has an
//! entry for `path(v)` with `min_position ≤ pos(v)` (binary search).
//!
//! The full Path-Tree adds a tree over the paths to shave entries off
//! these lists; this implementation keeps the flat path decomposition,
//! which preserves PT's evaluation profile — the fastest queries on
//! small graphs and an index that outgrows memory on large ones.

use hoplite_core::ReachIndex;
use hoplite_graph::{Dag, GraphError, VertexId, INVALID_VERTEX};

/// Path-decomposition compressed transitive closure.
pub struct PathTree {
    /// Path id and position of each vertex.
    path_of: Vec<u32>,
    pos_of: Vec<u32>,
    /// CSR of `(path, min_pos)` entries per vertex, sorted by path id.
    offsets: Vec<u32>,
    entries: Vec<(u32, u32)>,
    /// Number of paths in the decomposition.
    num_paths: usize,
}

impl PathTree {
    /// Builds the index, failing once the entry lists exceed
    /// `budget_bytes` (the paper's PT fails to build on most large
    /// graphs; this reproduces those "—" cells).
    pub fn build(dag: &Dag, budget_bytes: u64) -> Result<Self, GraphError> {
        Self::build_limited(dag, budget_bytes, None)
    }

    /// [`Self::build`] with an additional wall-clock cap for the
    /// list-merging sweep (quadratic-ish on closure-dense graphs).
    pub fn build_limited(
        dag: &Dag,
        budget_bytes: u64,
        time_budget: Option<std::time::Duration>,
    ) -> Result<Self, GraphError> {
        let start = std::time::Instant::now();
        let n = dag.num_vertices();
        let g = dag.graph();

        // --- Greedy path decomposition along the topological order. --
        let mut path_of = vec![INVALID_VERTEX; n];
        let mut pos_of = vec![0u32; n];
        let mut num_paths = 0usize;
        for &start in dag.topo_order() {
            if path_of[start as usize] != INVALID_VERTEX {
                continue;
            }
            let pid = num_paths as u32;
            num_paths += 1;
            let mut v = start;
            let mut pos = 0u32;
            loop {
                path_of[v as usize] = pid;
                pos_of[v as usize] = pos;
                pos += 1;
                // Extend with the unassigned successor that comes first
                // in topological order (keeps chains long).
                let next = g
                    .out_neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| path_of[w as usize] == INVALID_VERTEX)
                    .min_by_key(|&w| dag.topo_pos(w));
                match next {
                    Some(w) => v = w,
                    None => break,
                }
            }
        }

        // --- Reverse-topological suffix lists. ------------------------
        let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut total: u64 = 0;
        let mut buf: Vec<(u32, u32)> = Vec::new();
        for (step, &v) in dag.topo_order().iter().rev().enumerate() {
            if let Some(tb) = time_budget {
                if step % 1024 == 0 && start.elapsed() > tb {
                    return Err(GraphError::BudgetExceeded {
                        what: "path-tree construction time",
                        required_bytes: start.elapsed().as_millis() as u64,
                        budget_bytes: tb.as_millis() as u64,
                    });
                }
            }
            buf.clear();
            buf.push((path_of[v as usize], pos_of[v as usize]));
            for &w in g.out_neighbors(v) {
                buf.extend_from_slice(&lists[w as usize]);
            }
            // Keep the minimum position per path.
            buf.sort_unstable();
            let mut merged: Vec<(u32, u32)> = Vec::with_capacity(buf.len());
            for &(p, pos) in buf.iter() {
                if merged.last().map(|&(lp, _)| lp) != Some(p) {
                    merged.push((p, pos)); // first occurrence = min pos
                }
            }
            total += merged.len() as u64;
            if total * 8 > budget_bytes {
                return Err(GraphError::BudgetExceeded {
                    what: "path-tree index",
                    required_bytes: total * 8,
                    budget_bytes,
                });
            }
            lists[v as usize] = merged;
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(total as usize);
        offsets.push(0u32);
        for l in &lists {
            entries.extend_from_slice(l);
            offsets.push(entries.len() as u32);
        }
        Ok(PathTree {
            path_of,
            pos_of,
            offsets,
            entries,
            num_paths,
        })
    }

    /// Number of paths the DAG was decomposed into.
    pub fn num_paths(&self) -> usize {
        self.num_paths
    }

    fn list(&self, v: VertexId) -> &[(u32, u32)] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.entries[lo..hi]
    }
}

impl ReachIndex for PathTree {
    fn name(&self) -> &'static str {
        "PT"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        let (p, pos) = (self.path_of[v as usize], self.pos_of[v as usize]);
        let list = self.list(u);
        match list.binary_search_by_key(&p, |&(lp, _)| lp) {
            Ok(i) => list[i].1 <= pos,
            Err(_) => false,
        }
    }

    fn size_in_integers(&self) -> u64 {
        (self.path_of.len() + self.pos_of.len() + self.offsets.len() + 2 * self.entries.len())
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::gen;

    #[test]
    fn single_path_graph_uses_one_path() {
        let n = 50;
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(n, &edges).unwrap();
        let idx = PathTree::build(&dag, u64::MAX).unwrap();
        assert_eq!(idx.num_paths(), 1);
        // Every vertex stores exactly one (path, pos) entry.
        assert_eq!(idx.entries.len(), n);
    }

    #[test]
    fn decomposition_covers_every_vertex_once() {
        let dag = gen::random_dag(80, 200, 9);
        let idx = PathTree::build(&dag, u64::MAX).unwrap();
        for v in 0..80u32 {
            assert_ne!(idx.path_of[v as usize], INVALID_VERTEX);
            assert!((idx.path_of[v as usize] as usize) < idx.num_paths());
        }
    }

    #[test]
    fn budget_enforced() {
        let dag = gen::random_dag(300, 2000, 3);
        assert!(matches!(
            PathTree::build(&dag, 64),
            Err(GraphError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn edgeless_graph_each_vertex_its_own_path() {
        let dag = Dag::from_edges(4, &[]).unwrap();
        let idx = PathTree::build(&dag, u64::MAX).unwrap();
        assert_eq!(idx.num_paths(), 4);
    }
}
