//! GRAIL (Yildirim, Chaoji & Zaki, VLDB 2010) — the paper's
//! state-of-the-art *online search* baseline (column GL).
//!
//! Each of `k` randomized traversals assigns every vertex an interval
//! `[m_i(v), r_i(v)]`, where `r_i` is the vertex's post-order rank and
//! `m_i(v) = min(r_i(v), min over successors' m_i)` — the smallest
//! post-order rank reachable from `v`. If `u` reaches `v` then
//! `[m_i(v), r_i(v)] ⊆ [m_i(u), r_i(u)]` for *every* traversal, so any
//! non-containment proves non-reachability. Containment can be a false
//! positive, so positive answers fall back to a DFS that prunes every
//! vertex whose intervals do not contain `v`'s.
//!
//! The paper runs GRAIL with five traversals; that is the default here.

use std::cell::RefCell;

use hoplite_core::ReachIndex;
use hoplite_graph::gen::Rng;
use hoplite_graph::traversal::VisitedSet;
use hoplite_graph::{Dag, DiGraph, VertexId};

/// Number of random traversals the paper uses.
pub const DEFAULT_TRAVERSALS: usize = 5;

/// GRAIL index: `k` interval labels per vertex plus the graph for the
/// pruned-DFS fallback.
///
/// ```
/// use hoplite_graph::gen;
/// use hoplite_baselines::Grail;
/// use hoplite_core::ReachIndex;
///
/// let dag = gen::tree_plus_dag(500, 50, 1);
/// let grail = Grail::build(&dag, 5, 42);
/// let root = dag.graph().roots().next().unwrap();
/// let leaf = dag.graph().leaves().next().unwrap();
/// assert!(grail.query(root, leaf));
/// ```
pub struct Grail {
    g: DiGraph,
    k: usize,
    /// `mins[i * n + v]`, `posts[i * n + v]` = interval of `v` in
    /// traversal `i`.
    mins: Vec<u32>,
    posts: Vec<u32>,
    scratch: RefCell<(VisitedSet, Vec<VertexId>)>,
}

impl Grail {
    /// Builds a GRAIL index with `k` random traversals.
    pub fn build(dag: &Dag, k: usize, seed: u64) -> Self {
        assert!(k >= 1, "GRAIL needs at least one traversal");
        let n = dag.num_vertices();
        let g = dag.graph();
        let mut rng = Rng::new(seed);
        let mut mins = vec![0u32; k * n];
        let mut posts = vec![0u32; k * n];

        for i in 0..k {
            let (m, p) = random_postorder_labels(dag, &mut rng);
            mins[i * n..(i + 1) * n].copy_from_slice(&m);
            posts[i * n..(i + 1) * n].copy_from_slice(&p);
        }

        Grail {
            g: g.clone(),
            k,
            mins,
            posts,
            scratch: RefCell::new((VisitedSet::new(n), Vec::new())),
        }
    }

    /// `true` iff every traversal's interval of `v` is contained in
    /// `u`'s — the necessary condition for `u → v`.
    #[inline]
    fn subsumes(&self, u: VertexId, v: VertexId) -> bool {
        let n = self.g.num_vertices();
        for i in 0..self.k {
            let (ui, vi) = (i * n + u as usize, i * n + v as usize);
            if self.mins[ui] > self.mins[vi] || self.posts[vi] > self.posts[ui] {
                return false;
            }
        }
        true
    }
}

/// One randomized traversal: post-order ranks `r` via a DFS with
/// shuffled root and child order, then `m(v)` by reverse-topological
/// minimization over all successors.
fn random_postorder_labels(dag: &Dag, rng: &mut Rng) -> (Vec<u32>, Vec<u32>) {
    let g = dag.graph();
    let n = dag.num_vertices();
    let mut post = vec![0u32; n];
    let mut visited = vec![false; n];
    let mut counter = 0u32;

    let mut roots: Vec<VertexId> = g.roots().collect();
    rng.shuffle(&mut roots);
    // Iterative DFS storing each vertex's shuffled child list offset.
    let mut stack: Vec<(VertexId, Vec<VertexId>, usize)> = Vec::new();
    for &root in &roots {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        let mut kids = g.out_neighbors(root).to_vec();
        rng.shuffle(&mut kids);
        stack.push((root, kids, 0));
        while let Some((v, kids, idx)) = stack.last_mut() {
            if let Some(&w) = kids.get(*idx) {
                *idx += 1;
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    let mut wk = g.out_neighbors(w).to_vec();
                    rng.shuffle(&mut wk);
                    stack.push((w, wk, 0));
                }
            } else {
                post[*v as usize] = counter;
                counter += 1;
                stack.pop();
            }
        }
    }
    debug_assert_eq!(counter as usize, n, "every DAG vertex sits under a root");

    // m(v) = min post-order rank among v and everything it reaches.
    let mut mins = post.clone();
    for &v in dag.topo_order().iter().rev() {
        for &w in g.out_neighbors(v) {
            mins[v as usize] = mins[v as usize].min(mins[w as usize]);
        }
    }
    (mins, post)
}

impl ReachIndex for Grail {
    fn name(&self) -> &'static str {
        "GRAIL"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return true;
        }
        if !self.subsumes(u, v) {
            return false;
        }
        // Pruned DFS: only descend into vertices whose intervals still
        // contain v's.
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
                if visited.insert(w) && self.subsumes(w, v) {
                    stack.push(w);
                }
            }
        }
        false
    }

    fn size_in_integers(&self) -> u64 {
        (self.mins.len() + self.posts.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::{gen, traversal};

    #[test]
    fn subsumption_is_sound_for_reachable_pairs() {
        // u -> v must imply containment in every traversal.
        let dag = gen::power_law_dag(60, 180, 4);
        let idx = Grail::build(&dag, 3, 7);
        for u in 0..60u32 {
            for v in 0..60u32 {
                if traversal::reaches(dag.graph(), u, v) {
                    assert!(idx.subsumes(u, v), "reachable pair not subsumed");
                }
            }
        }
    }

    #[test]
    fn size_counts_two_ints_per_traversal_per_vertex() {
        let dag = gen::random_dag(30, 60, 1);
        let idx = Grail::build(&dag, 5, 1);
        assert_eq!(idx.size_in_integers(), (2 * 5 * 30) as u64);
    }
}
