//! Index-free online search baselines.
//!
//! The "other extreme" of §2.1: no precomputation, no index memory,
//! but query time proportional to the searched subgraph. Three
//! variants: forward BFS, forward DFS, and bidirectional BFS (the
//! strongest of the three and the default "no index" comparator).

use std::cell::RefCell;

use hoplite_core::ReachIndex;
use hoplite_graph::traversal::{self, TraversalScratch, VisitedSet};
use hoplite_graph::{Dag, DiGraph, VertexId};

/// Forward-BFS online search.
pub struct BfsOnline {
    g: DiGraph,
    scratch: RefCell<TraversalScratch>,
}

impl BfsOnline {
    /// Captures the graph; no index is built.
    pub fn build(dag: &Dag) -> Self {
        BfsOnline {
            scratch: RefCell::new(TraversalScratch::new(dag.num_vertices())),
            g: dag.graph().clone(),
        }
    }
}

impl ReachIndex for BfsOnline {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        traversal::reaches_with(&self.g, u, v, &mut self.scratch.borrow_mut())
    }

    fn size_in_integers(&self) -> u64 {
        0 // online search stores nothing beyond the graph itself
    }
}

/// Forward-DFS online search.
pub struct DfsOnline {
    g: DiGraph,
    scratch: RefCell<(VisitedSet, Vec<VertexId>)>,
}

impl DfsOnline {
    /// Captures the graph; no index is built.
    pub fn build(dag: &Dag) -> Self {
        DfsOnline {
            scratch: RefCell::new((VisitedSet::new(dag.num_vertices()), Vec::new())),
            g: dag.graph().clone(),
        }
    }
}

impl ReachIndex for DfsOnline {
    fn name(&self) -> &'static str {
        "DFS"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return true;
        }
        let mut s = self.scratch.borrow_mut();
        let (visited, stack) = &mut *s;
        visited.clear();
        stack.clear();
        visited.insert(u);
        stack.push(u);
        while let Some(x) = stack.pop() {
            for &w in self.g.out_neighbors(x) {
                if w == v {
                    return true;
                }
                if visited.insert(w) {
                    stack.push(w);
                }
            }
        }
        false
    }

    fn size_in_integers(&self) -> u64 {
        0
    }
}

/// Bidirectional-BFS online search.
pub struct BidirOnline {
    g: DiGraph,
    scratch: RefCell<(TraversalScratch, TraversalScratch)>,
}

impl BidirOnline {
    /// Captures the graph; no index is built.
    pub fn build(dag: &Dag) -> Self {
        let n = dag.num_vertices();
        BidirOnline {
            scratch: RefCell::new((TraversalScratch::new(n), TraversalScratch::new(n))),
            g: dag.graph().clone(),
        }
    }
}

impl ReachIndex for BidirOnline {
    fn name(&self) -> &'static str {
        "BiBFS"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        let mut s = self.scratch.borrow_mut();
        let (f, b) = &mut *s;
        traversal::bidirectional_reaches(&self.g, u, v, f, b)
    }

    fn size_in_integers(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::gen;

    #[test]
    fn zero_index_size() {
        let dag = gen::random_dag(10, 20, 0);
        assert_eq!(BfsOnline::build(&dag).size_in_integers(), 0);
        assert_eq!(DfsOnline::build(&dag).size_in_integers(), 0);
        assert_eq!(BidirOnline::build(&dag).size_in_integers(), 0);
    }
}
