//! BFS/DFS machinery with reusable scratch buffers.
//!
//! Traversals dominate both the online-search baselines (GRAIL's pruned
//! DFS, plain BFS/DFS) and index construction (Distribution-Labeling's
//! pruned BFS, FastCover's ε-BFS). All entry points here either take a
//! [`TraversalScratch`] so repeated traversals never reallocate, or hide
//! one internally for one-shot convenience.

use std::collections::VecDeque;

use crate::digraph::DiGraph;
use crate::VertexId;

/// Traversal direction over a [`DiGraph`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges `u -> v` from `u` to `v`.
    Forward,
    /// Follow edges backwards, from `v` to `u`.
    Reverse,
}

impl Direction {
    /// The neighbor list of `v` in this direction.
    #[inline]
    pub fn neighbors(self, g: &DiGraph, v: VertexId) -> &[VertexId] {
        match self {
            Direction::Forward => g.out_neighbors(v),
            Direction::Reverse => g.in_neighbors(v),
        }
    }

    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Reverse,
            Direction::Reverse => Direction::Forward,
        }
    }
}

/// An O(1)-clear visited set using epoch stamping.
///
/// `clear` bumps an epoch counter instead of zeroing the array, so a
/// 100k-query workload over a million-vertex graph pays the `memset`
/// only once.
#[derive(Clone, Debug)]
pub struct VisitedSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl VisitedSet {
    /// A visited set for vertices `0..n`.
    pub fn new(n: usize) -> Self {
        VisitedSet {
            stamp: vec![0; n],
            epoch: 1,
        }
    }

    /// Number of vertices this set covers.
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// `true` if the set covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty()
    }

    /// Marks `v` visited. Returns `true` if `v` was *not* previously
    /// visited in the current epoch.
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> bool {
        let s = &mut self.stamp[v as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }

    /// `true` iff `v` was visited in the current epoch.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// Forgets all visited marks in O(1) (amortized).
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

/// Reusable queue + visited set for BFS-style traversals.
#[derive(Clone, Debug)]
pub struct TraversalScratch {
    /// Visited marks, cleared in O(1) between traversals.
    pub visited: VisitedSet,
    /// BFS frontier queue.
    pub queue: VecDeque<VertexId>,
}

impl TraversalScratch {
    /// Scratch space for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        TraversalScratch {
            visited: VisitedSet::new(n),
            queue: VecDeque::new(),
        }
    }

    /// Resets for a new traversal.
    pub fn reset(&mut self) {
        self.visited.clear();
        self.queue.clear();
    }
}

/// One-shot reachability check: does `u` reach `v`? Plain forward BFS
/// with early exit. This is the paper's index-free baseline.
pub fn reaches(g: &DiGraph, u: VertexId, v: VertexId) -> bool {
    let mut scratch = TraversalScratch::new(g.num_vertices());
    reaches_with(g, u, v, &mut scratch)
}

/// Reachability check reusing caller-provided scratch space.
pub fn reaches_with(g: &DiGraph, u: VertexId, v: VertexId, scratch: &mut TraversalScratch) -> bool {
    if u == v {
        return true;
    }
    scratch.reset();
    scratch.visited.insert(u);
    scratch.queue.push_back(u);
    while let Some(x) = scratch.queue.pop_front() {
        for &w in g.out_neighbors(x) {
            if w == v {
                return true;
            }
            if scratch.visited.insert(w) {
                scratch.queue.push_back(w);
            }
        }
    }
    false
}

/// Bidirectional reachability check: expands the smaller frontier first,
/// meeting in the middle. Usually far fewer vertex visits than one-sided
/// BFS on graphs with both fan-out and fan-in.
pub fn bidirectional_reaches(
    g: &DiGraph,
    u: VertexId,
    v: VertexId,
    fwd: &mut TraversalScratch,
    bwd: &mut TraversalScratch,
) -> bool {
    if u == v {
        return true;
    }
    fwd.reset();
    bwd.reset();
    fwd.visited.insert(u);
    fwd.queue.push_back(u);
    bwd.visited.insert(v);
    bwd.queue.push_back(v);

    while !fwd.queue.is_empty() && !bwd.queue.is_empty() {
        // Expand the smaller frontier one full level.
        if fwd.queue.len() <= bwd.queue.len() {
            for _ in 0..fwd.queue.len() {
                let x = fwd.queue.pop_front().expect("nonempty frontier");
                for &w in g.out_neighbors(x) {
                    if bwd.visited.contains(w) {
                        return true;
                    }
                    if fwd.visited.insert(w) {
                        fwd.queue.push_back(w);
                    }
                }
            }
        } else {
            for _ in 0..bwd.queue.len() {
                let x = bwd.queue.pop_front().expect("nonempty frontier");
                for &w in g.in_neighbors(x) {
                    if fwd.visited.contains(w) {
                        return true;
                    }
                    if bwd.visited.insert(w) {
                        bwd.queue.push_back(w);
                    }
                }
            }
        }
    }
    false
}

/// Collects every vertex reachable from `v` (inclusive) in `dir`,
/// appending to `out` in BFS order.
pub fn collect_reachable(
    g: &DiGraph,
    v: VertexId,
    dir: Direction,
    scratch: &mut TraversalScratch,
    out: &mut Vec<VertexId>,
) {
    scratch.reset();
    scratch.visited.insert(v);
    scratch.queue.push_back(v);
    out.push(v);
    while let Some(x) = scratch.queue.pop_front() {
        for &w in dir.neighbors(g, x) {
            if scratch.visited.insert(w) {
                scratch.queue.push_back(w);
                out.push(w);
            }
        }
    }
}

/// Collects every vertex within `eps` steps of `v` in `dir`, inclusive
/// of `v` (distance 0), appending `(vertex, distance)` pairs in BFS
/// order. This is the ε-neighborhood `N^ε(v)` of the paper (Def. 1).
pub fn bounded_neighborhood(
    g: &DiGraph,
    v: VertexId,
    eps: u32,
    dir: Direction,
    scratch: &mut TraversalScratch,
    out: &mut Vec<(VertexId, u32)>,
) {
    scratch.reset();
    scratch.visited.insert(v);
    scratch.queue.push_back(v);
    out.push((v, 0));
    let mut depth = 0;
    while depth < eps && !scratch.queue.is_empty() {
        depth += 1;
        for _ in 0..scratch.queue.len() {
            let x = scratch.queue.pop_front().expect("nonempty frontier");
            for &w in dir.neighbors(g, x) {
                if scratch.visited.insert(w) {
                    scratch.queue.push_back(w);
                    out.push((w, depth));
                }
            }
        }
    }
}

/// Asserts `answer(u, v)` equals BFS reachability in `g` for every
/// ordered pair, building one [`collect_reachable`] row per source.
/// This is the ground truth every index and serving layer is tested
/// against.
///
/// # Panics
///
/// On the first disagreement, with the one-line message
/// `"{what}: reach(u, v) = got, BFS = want"`. Put the seed and step in
/// `what`, and that line is the reproducer.
#[track_caller]
pub fn assert_matches_bfs(
    g: &DiGraph,
    what: &str,
    mut answer: impl FnMut(VertexId, VertexId) -> bool,
) {
    let n = g.num_vertices();
    let mut scratch = TraversalScratch::new(n);
    let mut row = Vec::new();
    for u in 0..n as VertexId {
        row.clear();
        collect_reachable(g, u, Direction::Forward, &mut scratch, &mut row);
        // The row's vertices are exactly those left marked visited.
        for v in 0..n as VertexId {
            let want = scratch.visited.contains(v);
            let got = answer(u, v);
            assert!(got == want, "{what}: reach({u}, {v}) = {got}, BFS = {want}");
        }
    }
}

/// Vertices in DFS preorder from `v` following `dir`. Iterative; used by
/// GRAIL-style labeling and tests.
pub fn dfs_preorder(g: &DiGraph, v: VertexId, dir: Direction) -> Vec<VertexId> {
    let mut visited = VisitedSet::new(g.num_vertices());
    let mut order = Vec::new();
    let mut stack = vec![v];
    visited.insert(v);
    while let Some(x) = stack.pop() {
        order.push(x);
        // Push in reverse so the smallest-id neighbor is visited first.
        for &w in dir.neighbors(g, x).iter().rev() {
            if visited.insert(w) {
                stack.push(w);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiGraph;

    fn diamond() -> DiGraph {
        DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn reaches_basic() {
        let g = diamond();
        assert!(reaches(&g, 0, 4));
        assert!(reaches(&g, 1, 4));
        assert!(!reaches(&g, 1, 2));
        assert!(!reaches(&g, 4, 0));
        assert!(reaches(&g, 2, 2), "self-reachability");
    }

    #[test]
    fn bidirectional_matches_plain() {
        let g = diamond();
        let mut f = TraversalScratch::new(g.num_vertices());
        let mut b = TraversalScratch::new(g.num_vertices());
        for u in 0..5u32 {
            for v in 0..5u32 {
                assert_eq!(
                    reaches(&g, u, v),
                    bidirectional_reaches(&g, u, v, &mut f, &mut b),
                    "mismatch at ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn visited_set_epochs() {
        let mut s = VisitedSet::new(3);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(1));
        s.clear();
        assert!(!s.contains(1));
        assert!(s.insert(1));
    }

    #[test]
    fn visited_set_epoch_wraparound() {
        let mut s = VisitedSet::new(2);
        s.epoch = u32::MAX - 1;
        s.insert(0);
        s.clear(); // epoch == MAX
        assert!(!s.contains(0));
        s.insert(1);
        s.clear(); // wraps: full reset path
        assert!(!s.contains(1));
        assert!(s.insert(1));
    }

    #[test]
    fn collect_reachable_directions() {
        let g = diamond();
        let mut scratch = TraversalScratch::new(g.num_vertices());
        let mut out = Vec::new();
        collect_reachable(&g, 1, Direction::Forward, &mut scratch, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 3, 4]);
        out.clear();
        collect_reachable(&g, 3, Direction::Reverse, &mut scratch, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bounded_neighborhood_respects_eps() {
        let g = diamond();
        let mut scratch = TraversalScratch::new(g.num_vertices());
        let mut out = Vec::new();
        bounded_neighborhood(&g, 0, 1, Direction::Forward, &mut scratch, &mut out);
        let verts: Vec<_> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(verts, vec![0, 1, 2]);
        out.clear();
        bounded_neighborhood(&g, 0, 2, Direction::Forward, &mut scratch, &mut out);
        assert!(out.contains(&(3, 2)));
        assert!(!out.iter().any(|&(v, _)| v == 4));
        out.clear();
        bounded_neighborhood(&g, 0, 0, Direction::Forward, &mut scratch, &mut out);
        assert_eq!(out, vec![(0, 0)]);
    }

    #[test]
    fn bounded_neighborhood_reverse() {
        let g = diamond();
        let mut scratch = TraversalScratch::new(g.num_vertices());
        let mut out = Vec::new();
        bounded_neighborhood(&g, 4, 2, Direction::Reverse, &mut scratch, &mut out);
        let verts: Vec<_> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(verts, vec![4, 3, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "diamond seed 7: reach(4, 0) = true, BFS = false")]
    fn checker_names_what_and_the_flipped_pair() {
        let g = diamond();
        assert_matches_bfs(&g, "diamond seed 7", |u, v| {
            (u, v) == (4, 0) || reaches(&g, u, v)
        });
    }

    #[test]
    fn dfs_preorder_visits_all_reachable() {
        let g = diamond();
        let order = dfs_preorder(&g, 0, Direction::Forward);
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], 0);
        let from1 = dfs_preorder(&g, 1, Direction::Forward);
        let mut sorted = from1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 3, 4]);
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Forward.flip(), Direction::Reverse);
        assert_eq!(Direction::Reverse.flip(), Direction::Forward);
    }
}
