//! SCARAB (Jin, Ruan, Dey & Yu, SIGMOD 2012) — the scaling framework
//! behind the paper's GRAIL\* and PATH-TREE\* columns (§2.3).
//!
//! A reachability backbone (ε = 2 in the paper's experiments) carries
//! the long-range "reachability flow"; any existing index is built only
//! on the much smaller backbone. A query `u → v`:
//!
//! 1. forward-BFS from `u` up to ε steps — if `v` appears the pair is
//!    local; the BFS also collects `u`'s *entry* backbone vertices
//!    (first-reached, as in Formulas 1–2);
//! 2. backward-BFS from `v` collects its *exit* vertices;
//! 3. the inner index decides whether any entry reaches any exit.
//!
//! This trades query time (two local BFS + |entries|·|exits| inner
//! queries — the paper measures 2–3× slower than the raw index) for
//! the ability to build the inner index at all on large graphs.

use std::cell::RefCell;

use hoplite_core::backbone::Backbone;
use hoplite_core::ReachIndex;
use hoplite_graph::traversal::TraversalScratch;
use hoplite_graph::{Dag, DiGraph, GraphError, VertexId};

/// A SCARAB-wrapped reachability index.
pub struct Scarab<I> {
    g: DiGraph,
    eps: u32,
    backbone: Backbone,
    inner: I,
    name: &'static str,
    scratch: RefCell<ScarabScratch>,
}

struct ScarabScratch {
    fwd: TraversalScratch,
    bwd: TraversalScratch,
    entries: Vec<VertexId>,
    exits: Vec<VertexId>,
}

impl<I: ReachIndex> Scarab<I> {
    /// Extracts the ε-backbone of `dag` and builds the inner index on
    /// it via `build_inner`. `name` is the reported column name
    /// (e.g. `"GRAIL*"`).
    pub fn build(
        dag: &Dag,
        eps: u32,
        name: &'static str,
        build_inner: impl FnOnce(&Dag) -> Result<I, GraphError>,
    ) -> Result<Self, GraphError> {
        let backbone = Backbone::extract(dag, eps);
        let inner = build_inner(&backbone.dag)?;
        let n = dag.num_vertices();
        Ok(Scarab {
            g: dag.graph().clone(),
            eps,
            backbone,
            inner,
            name,
            scratch: RefCell::new(ScarabScratch {
                fwd: TraversalScratch::new(n),
                bwd: TraversalScratch::new(n),
                entries: Vec::new(),
                exits: Vec::new(),
            }),
        })
    }

    /// Number of backbone vertices the inner index was built on.
    pub fn backbone_size(&self) -> usize {
        self.backbone.num_vertices()
    }

    /// The inner index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// ε-BFS from `start`: returns `true` if `target` is found locally;
    /// otherwise fills `acc` with first-reached backbone vertices.
    fn local_sweep(
        &self,
        start: VertexId,
        target: VertexId,
        forward: bool,
        scratch: &mut TraversalScratch,
        acc: &mut Vec<VertexId>,
    ) -> bool {
        scratch.reset();
        acc.clear();
        scratch.visited.insert(start);
        scratch.queue.push_back(start);
        if self.backbone.contains(start) {
            // A backbone endpoint is its own entry/exit.
            acc.push(start);
            return false;
        }
        let mut depth = 0;
        while depth < self.eps && !scratch.queue.is_empty() {
            depth += 1;
            for _ in 0..scratch.queue.len() {
                let x = scratch.queue.pop_front().expect("nonempty frontier");
                let neigh = if forward {
                    self.g.out_neighbors(x)
                } else {
                    self.g.in_neighbors(x)
                };
                for &w in neigh {
                    if w == target {
                        return true;
                    }
                    if !scratch.visited.insert(w) {
                        continue;
                    }
                    if self.backbone.contains(w) {
                        acc.push(w); // entry/exit: do not expand past it
                    } else {
                        scratch.queue.push_back(w);
                    }
                }
            }
        }
        false
    }
}

impl<I: ReachIndex> ReachIndex for Scarab<I> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return true;
        }
        let mut s = self.scratch.borrow_mut();
        let ScarabScratch {
            fwd,
            bwd,
            entries,
            exits,
        } = &mut *s;
        if self.local_sweep(u, v, true, fwd, entries) {
            return true;
        }
        if entries.is_empty() {
            return false;
        }
        if self.local_sweep(v, u, false, bwd, exits) {
            return true;
        }
        if exits.is_empty() {
            return false;
        }
        for &a in entries.iter() {
            let ca = self.backbone.parent_to_backbone[a as usize];
            for &b in exits.iter() {
                let cb = self.backbone.parent_to_backbone[b as usize];
                if self.inner.query(ca, cb) {
                    return true;
                }
            }
        }
        false
    }

    fn size_in_integers(&self) -> u64 {
        self.inner.size_in_integers()
            + self.backbone.to_parent.len() as u64
            + self.backbone.parent_to_backbone.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grail::Grail;
    use crate::pathtree::PathTree;
    use hoplite_graph::gen;

    #[test]
    fn backbone_is_smaller_than_graph() {
        let dag = gen::random_dag(400, 1200, 3);
        let idx = Scarab::build(&dag, 2, "GRAIL*", |bb| Ok(Grail::build(bb, 5, 3))).unwrap();
        assert!(
            idx.backbone_size() < 400,
            "backbone ({}) should shrink the graph",
            idx.backbone_size()
        );
    }

    #[test]
    fn inner_build_failure_propagates() {
        let dag = gen::random_dag(300, 900, 4);
        let res: Result<Scarab<PathTree>, _> =
            Scarab::build(&dag, 2, "PT*", |bb| PathTree::build(bb, 8));
        assert!(res.is_err(), "inner budget failure must propagate");
    }
}
