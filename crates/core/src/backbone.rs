//! One-side reachability backbone extraction (Definition 1, via the
//! SCARAB *FastCover* approach).
//!
//! A backbone `G* = (V*, E*)` of `G` with locality `ε` guarantees that
//! every reachable pair `(u, v)` with `d(u, v) > ε` has backbone
//! *entry/exit witnesses*: `u* , v* ∈ V*` with `d(u, u*) ≤ ε`,
//! `d(v*, v) ≤ ε`, and `u* → v*` within `G*`.
//!
//! ## Vertex selection
//!
//! `V*` is chosen as a *hitting set of every ε-edge path*. Vertices are
//! scanned in descending degree-product order (the paper's importance
//! rank); when the scan finds a vertex `x` with an ε-path through it
//! that still avoids `V*` (maximal backward + forward depths in
//! `G \ V*` sum to `≥ ε`), it adds the **midpoint** of that forward
//! chain (the vertex `⌈ε/2⌉` ahead) rather than `x` itself — the
//! midpoint covers the window on both sides, which is what makes a
//! pure path shrink by ~2× per level instead of keeping almost every
//! vertex. Because an addition can land off the specific uncovered
//! path, the scan repeats until a pass adds nothing (a fixpoint: no
//! ε-path avoids `V*`); paths reach the fixpoint in two passes, and a
//! bounded fallback pass (add `x` itself, which always hits) caps the
//! iteration at `ε + 2` passes on adversarial inputs. For `ε = 1` this
//! behaves like the greedy vertex cover of the paper's Example 4.1;
//! the per-vertex work is an ε-bounded BFS, matching FastCover's
//! `O(Σ |Nε(v)| log |Nε(v)| + |Eε(v)|)` complexity envelope per pass.
//!
//! ## Edge construction
//!
//! For each `u* ∈ V*`, a forward BFS of depth `≤ ε+1` that does **not
//! expand through backbone vertices** adds an edge `u* → x` for every
//! backbone vertex `x` it first reaches. Not expanding through backbone
//! vertices is exactly the paper's local transitive-reduction rule:
//! a pair `(u*, v*)` connected only through an intermediate backbone
//! vertex `x` (`d(u*,x) ≤ ε`, `d(x,v*) ≤ ε`) is represented by the two
//! edges `u* → x → v*` instead.

use std::collections::VecDeque;

use hoplite_graph::digraph::{DiGraph, GraphBuilder};
use hoplite_graph::traversal::{Direction, TraversalScratch, VisitedSet};
use hoplite_graph::{Dag, VertexId, INVALID_VERTEX};

use crate::order::OrderKind;

/// A reachability backbone of a parent DAG, over compact vertex ids.
#[derive(Clone, Debug)]
pub struct Backbone {
    /// The backbone graph `G* = (V*, E*)`, re-indexed to `0..|V*|`.
    pub dag: Dag,
    /// `to_parent[c]` = parent-graph vertex of backbone vertex `c`.
    pub to_parent: Vec<VertexId>,
    /// `parent_to_backbone[v]` = compact id of `v` in the backbone, or
    /// [`INVALID_VERTEX`] if `v` was not selected.
    pub parent_to_backbone: Vec<VertexId>,
}

impl Backbone {
    /// Number of backbone vertices.
    pub fn num_vertices(&self) -> usize {
        self.to_parent.len()
    }

    /// Is parent vertex `v` in the backbone?
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.parent_to_backbone[v as usize] != INVALID_VERTEX
    }

    /// Extracts the one-side reachability backbone of `parent` with
    /// locality threshold `eps` (the paper uses `eps = 2`).
    ///
    /// ```
    /// use hoplite_graph::Dag;
    /// use hoplite_core::Backbone;
    ///
    /// // A path of 7 vertices: the eps=2 backbone can skip most of it.
    /// let edges: Vec<_> = (0..6u32).map(|i| (i, i + 1)).collect();
    /// let dag = Dag::from_edges(7, &edges)?;
    /// let bb = Backbone::extract(&dag, 2);
    /// assert!(bb.num_vertices() < 7);
    /// # Ok::<(), hoplite_graph::GraphError>(())
    /// ```
    pub fn extract(parent: &Dag, eps: u32) -> Backbone {
        let g = parent.graph();
        let n = parent.num_vertices();
        let mut in_backbone = vec![false; n];

        // --- Vertex selection: hit every ε-path. -------------------
        let order = OrderKind::DegProduct.compute(parent);
        let mut scratch = TraversalScratch::new(n);
        // Midpoint-hitting passes to a fixpoint (see module docs). The
        // last permitted pass falls back to adding `x` itself, which
        // always hits the witnessed path, so the loop is bounded.
        for pass in 0..=eps + 1 {
            let midpoint_pass = pass <= eps; // final pass: add x itself
            let mut added = false;
            for &x in &order {
                if in_backbone[x as usize] {
                    continue;
                }
                let (f, mid) = depth_and_midpoint(
                    g,
                    x,
                    eps,
                    Direction::Forward,
                    &in_backbone,
                    &mut scratch,
                    eps.div_ceil(2),
                );
                let hit = if f >= eps {
                    true
                } else {
                    let (b, _) = depth_and_midpoint(
                        g,
                        x,
                        eps - f,
                        Direction::Reverse,
                        &in_backbone,
                        &mut scratch,
                        0,
                    );
                    f + b >= eps
                };
                if hit {
                    let w = if midpoint_pass { mid.unwrap_or(x) } else { x };
                    in_backbone[w as usize] = true;
                    added = true;
                }
            }
            if !added {
                break;
            }
        }

        // --- Compact ids. -------------------------------------------
        let mut to_parent = Vec::new();
        let mut parent_to_backbone = vec![INVALID_VERTEX; n];
        for v in 0..n as VertexId {
            if in_backbone[v as usize] {
                parent_to_backbone[v as usize] = to_parent.len() as VertexId;
                to_parent.push(v);
            }
        }

        // --- Edge construction. --------------------------------------
        let nb = to_parent.len();
        let mut builder = GraphBuilder::new(nb);
        let mut visited = VisitedSet::new(n);
        let mut queue: VecDeque<VertexId> = VecDeque::new();
        for (cu, &u) in to_parent.iter().enumerate() {
            // Forward BFS ≤ eps+1 steps, not expanding through backbone
            // vertices; every first-reached backbone vertex gets an edge.
            visited.clear();
            queue.clear();
            visited.insert(u);
            queue.push_back(u);
            let mut depth = 0;
            while depth < eps + 1 && !queue.is_empty() {
                depth += 1;
                for _ in 0..queue.len() {
                    let x = queue.pop_front().expect("nonempty frontier");
                    for &w in g.out_neighbors(x) {
                        if !visited.insert(w) {
                            continue;
                        }
                        if in_backbone[w as usize] {
                            builder
                                .add_edge_unchecked(cu as VertexId, parent_to_backbone[w as usize]);
                            // do not expand past a backbone vertex
                        } else {
                            queue.push_back(w);
                        }
                    }
                }
            }
        }

        let dag = Dag::new(builder.build())
            .expect("backbone of a DAG is acyclic: edges follow parent reachability");
        Backbone {
            dag,
            to_parent,
            parent_to_backbone,
        }
    }
}

/// Maximal depth (capped at `cap`) reachable from `x` in direction
/// `dir` using only non-backbone vertices, plus a representative
/// vertex at layer `pick_depth` of that sweep (`None` when the sweep
/// is shallower or `pick_depth` is 0). `x` itself must not be in the
/// backbone (callers scan unselected vertices).
fn depth_and_midpoint(
    g: &DiGraph,
    x: VertexId,
    cap: u32,
    dir: Direction,
    in_backbone: &[bool],
    scratch: &mut TraversalScratch,
    pick_depth: u32,
) -> (u32, Option<VertexId>) {
    if cap == 0 {
        return (0, None);
    }
    scratch.reset();
    scratch.visited.insert(x);
    scratch.queue.push_back(x);
    let mut depth = 0;
    let mut pick = None;
    while depth < cap && !scratch.queue.is_empty() {
        let mut advanced = false;
        for _ in 0..scratch.queue.len() {
            let y = scratch.queue.pop_front().expect("nonempty frontier");
            for &w in dir.neighbors(g, y) {
                if !in_backbone[w as usize] && scratch.visited.insert(w) {
                    scratch.queue.push_back(w);
                    advanced = true;
                }
            }
        }
        if advanced {
            depth += 1;
            if depth == pick_depth {
                pick = scratch.queue.front().copied();
            }
        } else {
            break;
        }
    }
    (depth, pick)
}

/// Collects `B^ε_out(v)` / `B^ε_in(v)` (Formulas 1–2): the backbone
/// vertices first reached from `v` within `eps` steps, where the BFS
/// does not expand through backbone vertices (the formulas' local
/// redundancy rule). `v` itself is excluded; results are parent-graph
/// vertex ids appended to `out`.
pub fn backbone_vertex_set(
    g: &DiGraph,
    v: VertexId,
    eps: u32,
    dir: Direction,
    is_backbone: impl Fn(VertexId) -> bool,
    scratch: &mut TraversalScratch,
    out: &mut Vec<VertexId>,
) {
    scratch.reset();
    scratch.visited.insert(v);
    scratch.queue.push_back(v);
    let mut depth = 0;
    while depth < eps && !scratch.queue.is_empty() {
        depth += 1;
        for _ in 0..scratch.queue.len() {
            let x = scratch.queue.pop_front().expect("nonempty frontier");
            for &w in dir.neighbors(g, x) {
                if !scratch.visited.insert(w) {
                    continue;
                }
                if is_backbone(w) {
                    out.push(w);
                } else {
                    scratch.queue.push_back(w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::{gen, traversal};

    /// Definition 1's guarantee: every reachable pair at distance > eps
    /// has backbone witnesses u*, v* with d(u,u*) <= eps, d(v*,v) <= eps
    /// and u* -> v* in the backbone.
    fn check_backbone_property(dag: &Dag, eps: u32) {
        let bb = Backbone::extract(dag, eps);
        let g = dag.graph();
        let n = dag.num_vertices() as VertexId;
        let mut scratch = TraversalScratch::new(dag.num_vertices());
        let mut nbhd = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u == v || !traversal::reaches(g, u, v) {
                    continue;
                }
                // Distance check: is v within eps of u?
                nbhd.clear();
                traversal::bounded_neighborhood(
                    g,
                    u,
                    eps,
                    Direction::Forward,
                    &mut scratch,
                    &mut nbhd,
                );
                if nbhd.iter().any(|&(x, _)| x == v) {
                    continue; // local pair: backbone not required
                }
                // Entry candidates: backbone vertices within eps of u.
                let entries: Vec<VertexId> = nbhd
                    .iter()
                    .map(|&(x, _)| x)
                    .filter(|&x| bb.contains(x))
                    .collect();
                nbhd.clear();
                traversal::bounded_neighborhood(
                    g,
                    v,
                    eps,
                    Direction::Reverse,
                    &mut scratch,
                    &mut nbhd,
                );
                let exits: Vec<VertexId> = nbhd
                    .iter()
                    .map(|&(x, _)| x)
                    .filter(|&x| bb.contains(x))
                    .collect();
                assert!(
                    !entries.is_empty() && !exits.is_empty(),
                    "non-local pair ({u},{v}) lacks entry/exit witnesses"
                );
                let witnessed = entries.iter().any(|&a| {
                    exits.iter().any(|&b| {
                        traversal::reaches(
                            bb.dag.graph(),
                            bb.parent_to_backbone[a as usize],
                            bb.parent_to_backbone[b as usize],
                        )
                    })
                });
                assert!(witnessed, "pair ({u},{v}) has no connected witness pair");
            }
        }
    }

    #[test]
    fn backbone_property_random_dags() {
        for seed in 0..6 {
            let dag = gen::random_dag(30, 70, seed);
            check_backbone_property(&dag, 2);
        }
    }

    #[test]
    fn backbone_property_eps1_and_eps3() {
        for seed in 0..4 {
            let dag = gen::random_dag(25, 55, seed);
            check_backbone_property(&dag, 1);
            check_backbone_property(&dag, 3);
        }
    }

    #[test]
    fn backbone_property_tree_like() {
        for seed in 0..4 {
            let dag = gen::tree_plus_dag(40, 10, seed);
            check_backbone_property(&dag, 2);
        }
    }

    #[test]
    fn backbone_shrinks_path_graph() {
        // A long path: V* must hit every eps-window but can skip most
        // vertices.
        let n = 200;
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(n, &edges).unwrap();
        let bb = Backbone::extract(&dag, 2);
        assert!(bb.num_vertices() < n, "backbone should shrink a path");
        assert!(
            bb.num_vertices() >= n / 3 - 2,
            "eps=2 can skip at most 2 of every 3 path vertices"
        );
    }

    #[test]
    fn backbone_reachability_is_preserved_among_backbone_vertices() {
        // Lemma 1 first claim: u,v in V* reach in G iff in G*.
        for seed in 0..5 {
            let dag = gen::random_dag(35, 90, seed);
            let bb = Backbone::extract(&dag, 2);
            let what = format!("backbone of random_dag seed {seed}");
            traversal::assert_matches_bfs(bb.dag.graph(), &what, |ca, cb| {
                let (a, b) = (bb.to_parent[ca as usize], bb.to_parent[cb as usize]);
                traversal::reaches(dag.graph(), a, b)
            });
        }
    }

    #[test]
    fn eps1_is_a_vertex_cover() {
        // Example 4.1: with eps = 1 the backbone vertices must cover
        // every edge.
        for seed in 0..5 {
            let dag = gen::random_dag(30, 80, seed);
            let bb = Backbone::extract(&dag, 1);
            for (u, v) in dag.graph().edges() {
                assert!(
                    bb.contains(u) || bb.contains(v),
                    "edge ({u},{v}) uncovered by eps=1 backbone"
                );
            }
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let dag = Dag::from_edges(0, &[]).unwrap();
        let bb = Backbone::extract(&dag, 2);
        assert_eq!(bb.num_vertices(), 0);

        let dag = Dag::from_edges(5, &[]).unwrap();
        let bb = Backbone::extract(&dag, 2);
        assert_eq!(bb.num_vertices(), 0, "no eps-paths, nothing to cover");
    }

    #[test]
    fn backbone_vertex_sets_stop_at_first_backbone() {
        // Path 0 -> 1 -> 2 -> 3 with backbone {1, 2}: B^2_out(0) should
        // contain 1 but not 2 (2 is only reachable through 1).
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let is_bb = |v: VertexId| v == 1 || v == 2;
        let mut scratch = TraversalScratch::new(4);
        let mut out = Vec::new();
        backbone_vertex_set(
            dag.graph(),
            0,
            2,
            Direction::Forward,
            is_bb,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, vec![1]);
        out.clear();
        backbone_vertex_set(
            dag.graph(),
            3,
            2,
            Direction::Reverse,
            is_bb,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, vec![2]);
    }
}
