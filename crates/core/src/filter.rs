//! O(1) query pre-filters over a (condensation) DAG.
//!
//! O'Reach (Hanauer, Schulz & Trummer, *"O'Reach: Even Faster
//! Reachability in Large Graphs"*, SEA 2021 / JEA 2022) observes that
//! on real workloads the vast majority of reachability queries can be
//! answered by cheap constant-time *observations* before any index is
//! touched. This module is that layer for the hoplite pipeline: a
//! [`QueryFilters`] stage sits in front of the Distribution-Labeling
//! intersection in [`crate::Oracle`], the batch paths of
//! [`crate::parallel`], and (through the `Oracle`) the `hoplite-server`
//! REACH/BATCH handlers.
//!
//! Four observations are precomputed in `O(n + m)` from the DAG and
//! packed into one 32-byte `FilterRecord` per vertex:
//!
//! * **Topological levels** (negative cut): `u → v` implies
//!   `level(u) < level(v)`, where `level` is the longest-path depth.
//!   Any pair with `level(u) ≥ level(v)` (and `u ≠ v`) is unreachable.
//! * **DFS spanning-forest intervals** (positive cut): a deterministic
//!   DFS assigns each vertex a preorder number and a contiguous
//!   `[pre, pre_end)` interval covering exactly its tree descendants —
//!   all of which it reaches. Containment proves reachability.
//! * **GRAIL-style min-post intervals** (negative cut, after Yildirim,
//!   Chaoji & Zaki, VLDB 2010): with `post` the DFS postorder and
//!   `mpost(v)` the minimum postorder reachable from `v`, `u → v`
//!   implies `[mpost(v), post(v)] ⊆ [mpost(u), post(u)]`;
//!   non-containment proves unreachability. **Two** independent
//!   intervals are kept (GRAIL's `k = 2`), from two DFS runs with
//!   opposite root and child visit orders — pairs that slip through
//!   one forest's intervals are usually caught by the other's, and
//!   both live in the record already loaded.
//! * **Degree-zero shortcuts** (negative cut): a sink source-side
//!   (`N_out(u) = ∅`) reaches nothing but itself; a source target-side
//!   (`N_in(v) = ∅`) is reached by nothing but itself.
//!
//! Every observation is *sound* in isolation, so [`QueryFilters::check`]
//! may apply them in any order; the order below is tuned cheap-first.
//! Queries no filter decides fall through to the hop-label
//! intersection — [`FilterVerdict`] tells the `paper perf` harness
//! which layer fired, feeding the hit-rate stats in `BENCH_*.json`.

use hoplite_graph::{Dag, VertexId};

use crate::store::{MemorySplit, Store, StoreBackend};

/// Which pre-filter layer decided a query, if any.
///
/// Used by the perf harness to report per-layer hit rates; the hot
/// path ([`QueryFilters::check`]) carries no counters.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FilterVerdict {
    /// `u == v` in filter space (same condensation component).
    SameComponent,
    /// Topological-level negative cut fired.
    LevelCut,
    /// Spanning-forest interval positive cut fired.
    TreeHit,
    /// Degree-zero source/sink shortcut fired.
    DegreeCut,
    /// GRAIL min-post interval negative cut fired.
    IntervalCut,
    /// No filter decided; the caller must run the label intersection.
    Fallthrough,
}

impl FilterVerdict {
    /// The decided answer, or `None` for [`FilterVerdict::Fallthrough`].
    #[inline]
    pub fn decided(self) -> Option<bool> {
        match self {
            FilterVerdict::SameComponent | FilterVerdict::TreeHit => Some(true),
            FilterVerdict::LevelCut | FilterVerdict::DegreeCut | FilterVerdict::IntervalCut => {
                Some(false)
            }
            FilterVerdict::Fallthrough => None,
        }
    }

    /// Stable snake_case name (JSON keys of the perf report).
    pub fn name(self) -> &'static str {
        match self {
            FilterVerdict::SameComponent => "same_component",
            FilterVerdict::LevelCut => "level_cut",
            FilterVerdict::TreeHit => "tree_hit",
            FilterVerdict::DegreeCut => "degree_cut",
            FilterVerdict::IntervalCut => "interval_cut",
            FilterVerdict::Fallthrough => "fallthrough",
        }
    }

    /// All verdicts in [`QueryFilters::classify`] evaluation order.
    pub const ALL: [FilterVerdict; 6] = [
        FilterVerdict::SameComponent,
        FilterVerdict::LevelCut,
        FilterVerdict::TreeHit,
        FilterVerdict::DegreeCut,
        FilterVerdict::IntervalCut,
        FilterVerdict::Fallthrough,
    ];
}

/// [`FilterRecord::flags`] bit: `N_out(v) = ∅`.
const FLAG_SINK: u32 = 1;
/// [`FilterRecord::flags`] bit: `N_in(v) = ∅`.
const FLAG_SOURCE: u32 = 2;

/// Every per-vertex filter quantity packed into one 32-byte record
/// (exactly half a cache line), so a query touches one line per side
/// instead of up to seven scattered arrays — the same memory-layout
/// argument the paper makes for sorted label arrays, applied to the
/// filter stage.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub(crate) struct FilterRecord {
    /// Longest-path level.
    level: u32,
    /// DFS preorder number (forest 1). Unique per vertex, so equal
    /// `pre` on a projected set proves same-component.
    pre: u32,
    /// Exclusive end of the DFS-tree subtree preorder interval.
    pre_end: u32,
    /// DFS postorder number (forest 1).
    post: u32,
    /// Minimum postorder reachable (over *all* edges, not just tree
    /// edges; forest 1).
    mpost: u32,
    /// DFS postorder number of the second, oppositely-ordered forest.
    post2: u32,
    /// Minimum reachable postorder in the second forest.
    mpost2: u32,
    /// [`FLAG_SINK`] | [`FLAG_SOURCE`].
    flags: u32,
}

/// Byte size of one [`FilterRecord`] — eight `u32` fields, no padding.
/// This is the unit the HOPL v4 `FILTREC` arena section is measured
/// in; the const assertion below keeps the wire contract honest.
pub(crate) const FILTER_RECORD_BYTES: usize = 32;
const _: () = assert!(std::mem::size_of::<FilterRecord>() == FILTER_RECORD_BYTES);
const _: () = assert!(std::mem::align_of::<FilterRecord>() == 4);

// SAFETY: `FilterRecord` is `repr(C)`, all fields are `u32` (no
// padding, no invalid bit patterns, no pointers).
unsafe impl crate::store::Pod for FilterRecord {}

/// One deterministic iterative DFS over the forest rooted at the
/// in-degree-zero vertices, returning `(pre, pre_end, post)`.
/// `mirrored` flips both the root order (descending ids) and the
/// child visit order (reverse adjacency), yielding a forest as
/// independent of the first as a deterministic scheme gets.
fn dfs_forest(dag: &Dag, mirrored: bool) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let n = dag.num_vertices();
    let g = dag.graph();
    let mut pre = vec![0u32; n];
    let mut pre_end = vec![0u32; n];
    let mut post = vec![0u32; n];
    let mut visited = vec![false; n];
    let mut pre_counter = 0u32;
    let mut post_counter = 0u32;
    // (vertex, next-out-neighbor cursor) frames.
    let mut stack: Vec<(VertexId, u32)> = Vec::new();
    let mut roots: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| g.in_degree(v) == 0)
        .collect();
    if mirrored {
        roots.reverse();
    }
    for root in roots {
        debug_assert!(!visited[root as usize], "sources have no ancestors");
        visited[root as usize] = true;
        pre[root as usize] = pre_counter;
        pre_counter += 1;
        stack.push((root, 0));
        while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
            let succs = g.out_neighbors(v);
            if (*cursor as usize) < succs.len() {
                let w = if mirrored {
                    succs[succs.len() - 1 - *cursor as usize]
                } else {
                    succs[*cursor as usize]
                };
                *cursor += 1;
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    pre[w as usize] = pre_counter;
                    pre_counter += 1;
                    stack.push((w, 0));
                }
            } else {
                // Finished: everything pre-numbered since v's own
                // number is exactly v's DFS subtree.
                pre_end[v as usize] = pre_counter;
                post[v as usize] = post_counter;
                post_counter += 1;
                stack.pop();
            }
        }
    }
    // Every DAG vertex has an in-degree-zero ancestor, so the forest
    // over the sources covers the whole graph.
    debug_assert!(visited.iter().all(|&b| b));
    (pre, pre_end, post)
}

/// `mpost(v) = min(post(v), min over successors)` in reverse
/// topological order — successors are final before `v` is visited.
fn min_reachable_post(dag: &Dag, post: &[u32]) -> Vec<u32> {
    let g = dag.graph();
    let mut mpost = post.to_vec();
    for &v in dag.topo_order().iter().rev() {
        let mut m = mpost[v as usize];
        for &w in g.out_neighbors(v) {
            m = m.min(mpost[w as usize]);
        }
        mpost[v as usize] = m;
    }
    mpost
}

/// Precomputed O(1) pre-filters for reachability queries on a DAG.
///
/// Built in `O(n + m)` by [`QueryFilters::build`]; all state is one
/// flat array of 32-byte per-vertex records, so a filter set is cheap
/// to clone and ship — [`crate::persist`] writes the records verbatim
/// as the HOPL `FILTREC` section and serves them from the arena on
/// open, with nothing rebuilt.
///
/// ```
/// use hoplite_graph::Dag;
/// use hoplite_core::QueryFilters;
///
/// let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (1, 3)])?;
/// let f = QueryFilters::build(&dag);
/// assert_eq!(f.check(0, 2), Some(true));   // spanning-tree descendant
/// assert_eq!(f.check(2, 0), Some(false));  // level cut
/// assert_eq!(f.check(2, 3), Some(false));  // 2 is a sink
/// # Ok::<(), hoplite_graph::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct QueryFilters {
    recs: Store<FilterRecord>,
}

impl QueryFilters {
    /// Precomputes all filter layers for `dag` in `O(n + m)`.
    ///
    /// Deterministic: the first DFS forest is rooted at the
    /// in-degree-zero vertices in ascending id order with children
    /// visited in adjacency order; the second uses descending roots
    /// and reversed child order. Two builds over the same DAG agree
    /// exactly.
    pub fn build(dag: &Dag) -> Self {
        let n = dag.num_vertices();
        let g = dag.graph();
        let level = dag.longest_path_levels();

        let (pre, pre_end, post) = dfs_forest(dag, false);
        let mpost = min_reachable_post(dag, &post);
        // The second, independently ordered forest (GRAIL k = 2): its
        // tree interval is discarded, only the min-post interval kept.
        let (_, _, post2) = dfs_forest(dag, true);
        let mpost2 = min_reachable_post(dag, &post2);

        let recs = (0..n)
            .map(|v| FilterRecord {
                level: level[v],
                pre: pre[v],
                pre_end: pre_end[v],
                post: post[v],
                mpost: mpost[v],
                post2: post2[v],
                mpost2: mpost2[v],
                flags: (g.out_degree(v as VertexId) == 0) as u32 * FLAG_SINK
                    + (g.in_degree(v as VertexId) == 0) as u32 * FLAG_SOURCE,
            })
            .collect::<Vec<_>>();

        QueryFilters { recs: recs.into() }
    }

    /// Wraps a store of records directly — the HOPL v4 arena path. The
    /// 32-byte filter records are persisted verbatim, so a mapped open
    /// performs **no** filter recomputation (the expensive-to-derive /
    /// cheap-to-store trade O'Reach points out).
    pub(crate) fn from_store(recs: Store<FilterRecord>) -> QueryFilters {
        QueryFilters { recs }
    }

    /// The records as raw little-endian bytes — the persistence
    /// layer's view (written verbatim as the v4 `FILTREC` section).
    pub(crate) fn record_bytes(&self) -> &[u8] {
        // SAFETY: `FilterRecord` is Pod (`repr(C)`, padding-free), so
        // viewing the slice as bytes is always defined.
        unsafe {
            std::slice::from_raw_parts(
                self.recs.as_ptr() as *const u8,
                self.recs.len() * FILTER_RECORD_BYTES,
            )
        }
    }

    /// True byte footprint of the filter stage, split by backing.
    pub fn memory(&self) -> MemorySplit {
        MemorySplit::of(&self.recs)
    }

    /// [`StoreBackend::Mapped`] iff the records live in a shared arena.
    pub fn backend(&self) -> StoreBackend {
        self.recs.backend()
    }

    /// Re-indexes the filter set from condensation-component space into
    /// *original-vertex* space: vertex `v`'s record becomes a copy of
    /// its component's record. Queries then skip the `comp_of`
    /// indirection entirely on the filter fast path — one cache-line
    /// load per side instead of two *dependent* loads — and same-SCC
    /// pairs are still answered correctly because two vertices share a
    /// preorder number iff they share a component (see
    /// [`QueryFilters::classify`]). [`crate::Oracle`] queries through a
    /// projected set; the component-space set remains the right tool
    /// for DAG-space callers.
    pub fn project(&self, comp_of: &[VertexId]) -> QueryFilters {
        QueryFilters {
            recs: comp_of
                .iter()
                .map(|&c| self.recs[c as usize])
                .collect::<Vec<_>>()
                .into(),
        }
    }

    /// Vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.recs.len()
    }

    /// Footprint in 32-bit integers (the workspace's index-size unit):
    /// eight per vertex (seven quantities plus the packed flag word).
    pub fn size_in_integers(&self) -> u64 {
        8 * self.recs.len() as u64
    }

    /// Hints the CPU to pull `u`'s and `v`'s records toward L1 — the
    /// batch paths issue this a dozen queries ahead so the record
    /// loads in [`QueryFilters::check`] hit cache instead of stalling
    /// (the record array outgrows L2 on bench-scale graphs). Purely a
    /// hint: no-op off x86_64, never dereferences, and out-of-range
    /// ids are harmless (the address is computed without `add`'s
    /// in-bounds contract).
    #[inline]
    pub fn prefetch(&self, u: VertexId, v: VertexId) {
        crate::label::prefetch_index(&self.recs[..], u as usize);
        crate::label::prefetch_index(&self.recs[..], v as usize);
    }

    /// Negative cut: `true` ⇒ `u` does **not** reach `v` (`u ≠ v`).
    ///
    /// Sound on projected sets too: equal preorder numbers mean `u`
    /// and `v` share an SCC (reachable), so the cut must not fire.
    #[inline]
    pub fn level_cut(&self, u: VertexId, v: VertexId) -> bool {
        let (ru, rv) = (&self.recs[u as usize], &self.recs[v as usize]);
        ru.level >= rv.level && ru.pre != rv.pre
    }

    /// Positive cut: `true` ⇒ `v` is a DFS-tree descendant of `u`,
    /// hence reachable.
    #[inline]
    pub fn tree_hit(&self, u: VertexId, v: VertexId) -> bool {
        let (ru, rv) = (&self.recs[u as usize], &self.recs[v as usize]);
        ru.pre <= rv.pre && rv.pre < ru.pre_end
    }

    /// Negative cut: `true` ⇒ unreachable because `u` is a sink or `v`
    /// is a source (`u ≠ v`).
    ///
    /// Sound on projected sets too: same-SCC pairs (equal preorder
    /// numbers) are reachable, so the cut must not fire for them.
    #[inline]
    pub fn degree_cut(&self, u: VertexId, v: VertexId) -> bool {
        let (ru, rv) = (&self.recs[u as usize], &self.recs[v as usize]);
        ((ru.flags & FLAG_SINK) | (rv.flags & FLAG_SOURCE)) != 0 && ru.pre != rv.pre
    }

    /// Negative cut: `true` ⇒ in either DFS forest, the GRAIL interval
    /// of `v` is not contained in `u`'s, hence unreachable.
    #[inline]
    pub fn interval_cut(&self, u: VertexId, v: VertexId) -> bool {
        let (ru, rv) = (&self.recs[u as usize], &self.recs[v as usize]);
        rv.mpost < ru.mpost || rv.post > ru.post || rv.mpost2 < ru.mpost2 || rv.post2 > ru.post2
    }

    /// Runs the filter stack cheap-first and reports which layer
    /// decided. [`FilterVerdict::Fallthrough`] means the caller must
    /// run the label intersection.
    ///
    /// Both records are loaded once up front — every layer then works
    /// out of the two cache lines already in hand.
    #[inline]
    pub fn classify(&self, u: VertexId, v: VertexId) -> FilterVerdict {
        if u == v {
            return FilterVerdict::SameComponent;
        }
        let (ru, rv) = (self.recs[u as usize], self.recs[v as usize]);
        if ru.level >= rv.level {
            // Preorder numbers are unique per component, so equal `pre`
            // means `u` and `v` share an SCC (possible only on a
            // projected set — see [`QueryFilters::project`]): reachable.
            return if ru.pre == rv.pre {
                FilterVerdict::SameComponent
            } else {
                FilterVerdict::LevelCut
            };
        }
        if ru.pre <= rv.pre && rv.pre < ru.pre_end {
            return FilterVerdict::TreeHit;
        }
        if ((ru.flags & FLAG_SINK) | (rv.flags & FLAG_SOURCE)) != 0 {
            return FilterVerdict::DegreeCut;
        }
        if rv.mpost < ru.mpost || rv.post > ru.post || rv.mpost2 < ru.mpost2 || rv.post2 > ru.post2
        {
            return FilterVerdict::IntervalCut;
        }
        FilterVerdict::Fallthrough
    }

    /// The O(1) pre-filter stage: `Some(answer)` if any layer decides
    /// the query, `None` if it must fall through to the index.
    #[inline]
    pub fn check(&self, u: VertexId, v: VertexId) -> Option<bool> {
        self.classify(u, v).decided()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::{gen, traversal};

    /// Soundness: on arbitrary DAGs every decided verdict must agree
    /// with BFS ground truth, for every layer individually.
    #[test]
    fn every_layer_is_sound_on_random_dags() {
        for seed in 0..6 {
            for dag in [
                gen::random_dag(60, 180, seed),
                gen::tree_plus_dag(60, 15, seed),
                gen::power_law_dag(60, 180, seed),
            ] {
                let f = QueryFilters::build(&dag);
                let n = dag.num_vertices() as VertexId;
                for u in 0..n {
                    for v in 0..n {
                        let truth = traversal::reaches(dag.graph(), u, v);
                        if u != v {
                            if f.tree_hit(u, v) {
                                assert!(truth, "tree_hit false positive ({u},{v}) seed {seed}");
                            }
                            if f.level_cut(u, v) || f.degree_cut(u, v) || f.interval_cut(u, v) {
                                assert!(!truth, "negative cut false ({u},{v}) seed {seed}");
                            }
                        }
                        if let Some(ans) = f.check(u, v) {
                            assert_eq!(ans, truth, "check() wrong at ({u},{v}) seed {seed}");
                        }
                        assert_eq!(f.classify(u, v).decided(), f.check(u, v));
                    }
                }
            }
        }
    }

    #[test]
    fn chains_are_fully_decided_by_the_tree_cut() {
        // On a path the DFS tree is the graph: every query is decided.
        let dag = Dag::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let f = QueryFilters::build(&dag);
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert_eq!(f.check(u, v), Some(u <= v), "({u},{v})");
            }
        }
    }

    #[test]
    fn degree_shortcuts_fire_on_sources_and_sinks() {
        // 0 → 1, 2 isolated: 2 is both source and sink.
        let dag = Dag::from_edges(3, &[(0, 1)]).unwrap();
        let f = QueryFilters::build(&dag);
        assert_eq!(f.check(1, 2), Some(false), "1 is a sink");
        assert_eq!(f.check(2, 0), Some(false), "0 is a source");
        assert_eq!(f.check(2, 2), Some(true), "reflexive");
        assert!(f.degree_cut(1, 0));
    }

    #[test]
    fn verdict_names_and_order_are_stable() {
        assert_eq!(FilterVerdict::ALL.len(), 6);
        let names: Vec<&str> = FilterVerdict::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            [
                "same_component",
                "level_cut",
                "tree_hit",
                "degree_cut",
                "interval_cut",
                "fallthrough"
            ]
        );
        assert_eq!(FilterVerdict::Fallthrough.decided(), None);
    }

    /// Projection into original-vertex space must stay sound on cyclic
    /// graphs: same-SCC pairs (identical records) are recognized as
    /// reachable via preorder equality, everything else matches the
    /// component-space verdict.
    #[test]
    fn projected_filters_match_component_space_on_cyclic_graphs() {
        for seed in 0..4u64 {
            let n = 40usize;
            let g = gen::random_digraph(n, 160, 77 + seed);
            let cond = Dag::condense(&g);
            let comp = QueryFilters::build(&cond.dag);
            let proj = comp.project(&cond.comp_of);
            assert_eq!(proj.num_vertices(), n);
            for u in 0..n as VertexId {
                for v in 0..n as VertexId {
                    let (cu, cv) = (cond.comp_of[u as usize], cond.comp_of[v as usize]);
                    let expect = if cu == cv {
                        Some(true)
                    } else {
                        comp.check(cu, cv)
                    };
                    assert_eq!(proj.check(u, v), expect, "({u},{v}) seed {seed}");
                    if u != v && cu == cv {
                        assert_eq!(
                            proj.classify(u, v),
                            FilterVerdict::SameComponent,
                            "({u},{v}) seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let f = QueryFilters::build(&Dag::from_edges(0, &[]).unwrap());
        assert_eq!(f.num_vertices(), 0);
        let f = QueryFilters::build(&Dag::from_edges(1, &[]).unwrap());
        assert_eq!(f.check(0, 0), Some(true));
    }

    /// Filters must prune a meaningful share of a random negative-heavy
    /// workload — the whole point of the layer. (Loose bound; the perf
    /// harness reports the real rates.)
    #[test]
    fn filters_decide_most_random_queries() {
        let dag = gen::random_dag(400, 1200, 9);
        let f = QueryFilters::build(&dag);
        let mut rng = gen::Rng::new(7);
        let total = 4_000;
        let decided = (0..total)
            .filter(|_| {
                let u = rng.gen_range(400) as VertexId;
                let v = rng.gen_range(400) as VertexId;
                f.check(u, v).is_some()
            })
            .count();
        assert!(
            decided * 2 > total,
            "filters decided only {decided}/{total} random queries"
        );
    }
}
