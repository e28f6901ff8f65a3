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
//! Three observations are precomputed in `O(n + m)` from the DAG and
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
//!
//! A degree-zero cut (a sink `u` or a source `v`) would add nothing:
//! a source has level 0, so the level cut already fires for it, and a
//! sink has `mpost = post`, so the min-post interval cut does.
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
            FilterVerdict::LevelCut | FilterVerdict::IntervalCut => Some(false),
            FilterVerdict::Fallthrough => None,
        }
    }

    /// Stable snake_case name (JSON keys of the perf report).
    pub fn name(self) -> &'static str {
        match self {
            FilterVerdict::SameComponent => "same_component",
            FilterVerdict::LevelCut => "level_cut",
            FilterVerdict::TreeHit => "tree_hit",
            FilterVerdict::IntervalCut => "interval_cut",
            FilterVerdict::Fallthrough => "fallthrough",
        }
    }

    /// All verdicts in [`QueryFilters::classify`] evaluation order.
    pub const ALL: [FilterVerdict; 5] = [
        FilterVerdict::SameComponent,
        FilterVerdict::LevelCut,
        FilterVerdict::TreeHit,
        FilterVerdict::IntervalCut,
        FilterVerdict::Fallthrough,
    ];
}

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
    /// Reserved: written as 0 and never read (it held degree flags
    /// before). It keeps the record at 32 bytes.
    reserved: u32,
}

impl FilterRecord {
    /// Negative cut for `self = u`, `r = v`: `u → v` implies
    /// `level(u) < level(v)`. Sound only for `u` and `v` in different
    /// components — on a projected set same-SCC vertices share one
    /// record, so [`QueryFilters::classify`] checks
    /// [`Self::same_component`] before it reports this cut.
    #[inline]
    fn level_cut(&self, r: &FilterRecord) -> bool {
        self.level >= r.level
    }

    /// Preorder numbers are unique per component, so equal `pre`
    /// means the same component (on a projected set, the same SCC).
    #[inline]
    fn same_component(&self, r: &FilterRecord) -> bool {
        self.pre == r.pre
    }

    /// Positive cut: `r` is a DFS-tree descendant of `self`, hence
    /// reachable.
    #[inline]
    fn tree_hit(&self, r: &FilterRecord) -> bool {
        self.pre <= r.pre && r.pre < self.pre_end
    }

    /// Negative cut: in either DFS forest, `r`'s GRAIL interval is not
    /// contained in `self`'s, hence unreachable.
    #[inline]
    fn interval_cut(&self, r: &FilterRecord) -> bool {
        r.mpost < self.mpost || r.post > self.post || r.mpost2 < self.mpost2 || r.post2 > self.post2
    }
}

/// Byte size of one [`FilterRecord`] — eight `u32` fields, no padding.
/// This is the unit the HOPL v5 `FILTREC` arena section is measured
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
/// assert_eq!(f.check(2, 3), Some(false));  // level cut (equal levels)
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
                reserved: 0,
            })
            .collect::<Vec<_>>();

        QueryFilters { recs: recs.into() }
    }

    /// Wraps a store of records directly — the HOPL v5 arena path. The
    /// 32-byte filter records are persisted verbatim, so a mapped open
    /// performs **no** filter recomputation (the expensive-to-derive /
    /// cheap-to-store trade O'Reach points out).
    pub(crate) fn from_store(recs: Store<FilterRecord>) -> QueryFilters {
        QueryFilters { recs }
    }

    /// The records as raw little-endian bytes — the persistence
    /// layer's view (written verbatim as the v5 `FILTREC` section).
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
    /// eight per vertex (seven quantities plus the reserved word).
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
        if ru.level_cut(&rv) {
            // Same-SCC pairs share a record, so they land here (only
            // on a projected set — see [`QueryFilters::project`]).
            return if ru.same_component(&rv) {
                FilterVerdict::SameComponent
            } else {
                FilterVerdict::LevelCut
            };
        }
        if ru.tree_hit(&rv) {
            return FilterVerdict::TreeHit;
        }
        if ru.interval_cut(&rv) {
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

    /// The DAG families the soundness tests run over.
    fn random_dags(seed: u64) -> [Dag; 3] {
        [
            gen::random_dag(60, 180, seed),
            gen::tree_plus_dag(60, 15, seed),
            gen::power_law_dag(60, 180, seed),
        ]
    }

    /// Soundness: on arbitrary DAGs every decided verdict must agree
    /// with BFS ground truth, for every layer individually.
    #[test]
    fn every_layer_is_sound_on_random_dags() {
        for seed in 0..6 {
            for dag in random_dags(seed) {
                let f = QueryFilters::build(&dag);
                let n = dag.num_vertices() as VertexId;
                for u in 0..n {
                    for v in 0..n {
                        let truth = traversal::reaches(dag.graph(), u, v);
                        let (ru, rv) = (&f.recs[u as usize], &f.recs[v as usize]);
                        if u != v {
                            assert!(!ru.same_component(rv), "({u},{v}) seed {seed}");
                            if ru.tree_hit(rv) {
                                assert!(truth, "tree_hit false positive ({u},{v}) seed {seed}");
                            }
                            if ru.level_cut(rv) || ru.interval_cut(rv) {
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

    /// Why there is no degree-zero cut: every pair whose `u` is a sink
    /// or whose `v` is a source, in different components, is already
    /// decided unreachable by the level cut or the interval cut. `dag`
    /// is the condensation the records were built over, `comp_of` maps
    /// the filter set's vertices onto it.
    fn assert_degree_zero_pairs_are_cut(
        f: &QueryFilters,
        dag: &Dag,
        comp_of: &[VertexId],
        what: &str,
    ) -> usize {
        let g = dag.graph();
        let n = f.num_vertices() as VertexId;
        let mut checked = 0;
        for u in 0..n {
            for v in 0..n {
                let (cu, cv) = (comp_of[u as usize], comp_of[v as usize]);
                if cu == cv || (g.out_degree(cu) != 0 && g.in_degree(cv) != 0) {
                    continue;
                }
                let verdict = f.classify(u, v);
                assert!(
                    matches!(
                        verdict,
                        FilterVerdict::LevelCut | FilterVerdict::IntervalCut
                    ),
                    "{what}: ({u},{v}) classified {verdict:?}"
                );
                checked += 1;
            }
        }
        checked
    }

    #[test]
    fn sinks_and_sources_are_cut_by_level_or_interval() {
        let mut checked = 0;
        for seed in 0..6 {
            for dag in random_dags(seed) {
                let f = QueryFilters::build(&dag);
                let identity: Vec<VertexId> = (0..dag.num_vertices() as VertexId).collect();
                checked += assert_degree_zero_pairs_are_cut(&f, &dag, &identity, "dag");
            }
        }
        for seed in 0..4u64 {
            let g = gen::random_digraph(40, 60, 31 + seed);
            let cond = Dag::condense(&g);
            let proj = QueryFilters::build(&cond.dag).project(&cond.comp_of);
            checked += assert_degree_zero_pairs_are_cut(&proj, &cond.dag, &cond.comp_of, "cyclic");
        }
        assert!(checked > 10_000, "only {checked} degree-zero pairs");
    }

    #[test]
    fn verdict_names_and_order_are_stable() {
        assert_eq!(FilterVerdict::ALL.len(), 5);
        let names: Vec<&str> = FilterVerdict::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            [
                "same_component",
                "level_cut",
                "tree_hit",
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
