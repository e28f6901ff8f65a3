//! The query interface shared by every reachability index in the
//! workspace, and the batteries-included [`Oracle`] over arbitrary
//! (cyclic) digraphs.

use std::borrow::Cow;
use std::sync::OnceLock;

use hoplite_graph::scc::Condensation;
use hoplite_graph::{Dag, DiGraph, VertexId};

use crate::distribution::{DistributionLabeling, DlConfig};
use crate::filter::QueryFilters;
use crate::store::{MemorySplit, Store, StoreBackend};

/// A built reachability index over a fixed DAG.
///
/// Implementations exist for the paper's two oracles
/// ([`crate::DistributionLabeling`], [`crate::HierarchicalLabeling`])
/// and for every baseline in `hoplite-baselines`. The trait is
/// deliberately tiny: the benchmark harness drives heterogeneous
/// indexes through `Box<dyn ReachIndex>`.
///
/// Queries use *reflexive* reachability semantics (`query(v, v)` is
/// always `true`), matching the paper's query workloads.
///
/// Implementations may keep interior-mutable scratch space (e.g. the
/// visited set of a pruned DFS), so they are required to be `Send` but
/// not `Sync`; parallel callers give each worker its own index.
pub trait ReachIndex: Send {
    /// Short display name matching the paper's table headers
    /// (e.g. `"DL"`, `"GRAIL"`).
    fn name(&self) -> &'static str;

    /// Does `u` reach `v`?
    fn query(&self, u: VertexId, v: VertexId) -> bool;

    /// Index size in the unit the paper's Figures 3–4 report: the
    /// number of 32-bit integers the index stores.
    fn size_in_integers(&self) -> u64;

    /// Approximate heap footprint in bytes. Defaults to
    /// `4 · size_in_integers()`.
    fn memory_bytes(&self) -> u64 {
        self.size_in_integers() * 4
    }
}

/// The batteries-included reachability oracle.
///
/// Wraps the full pipeline a downstream user wants: SCC condensation
/// of an arbitrary digraph, Distribution-Labeling of the condensation
/// (the paper's recommended algorithm), and queries in terms of the
/// *original* vertex ids.
///
/// ```
/// use hoplite_graph::DiGraph;
/// use hoplite_core::Oracle;
///
/// // Any directed graph — cycles welcome (they are condensed away).
/// let g = DiGraph::from_edges(6, &[
///     (0, 1), (1, 2), (2, 0),  // a strongly connected component
///     (2, 3), (3, 4), (5, 3),
/// ]).unwrap();
///
/// let oracle = Oracle::new(&g);
/// assert!(oracle.reaches(0, 4));   // through the SCC and onwards
/// assert!(oracle.reaches(1, 0));   // inside the SCC
/// assert!(!oracle.reaches(4, 5));
/// ```
///
/// A built oracle can be shipped to query-serving replicas as a HOPL v5
/// arena with [`Oracle::save_arena`] (see [`crate::persist`]), opened
/// zero-copy with [`Oracle::open`], and served over the network by
/// `hoplite-server`.
#[derive(Clone, Debug)]
pub struct Oracle {
    /// `comp_of[v]` = condensation component of original vertex `v`.
    /// A [`Store`] so a mapped open addresses the table in place.
    comp_of: Store<u32>,
    /// Original vertices per component.
    comp_sizes: Store<u32>,
    /// The condensation DAG (component ids are topological:
    /// `tail < head` on every edge). Queries never touch it — it
    /// serves `save_arena`/introspection — so a mapped open leaves it
    /// unmaterialized and [`Oracle::dag`] builds it on first use from
    /// `dag_csr`.
    dag: OnceLock<Dag>,
    /// The persisted condensation CSR sections backing a lazy
    /// [`Oracle::dag`]; `None` when `dag` was built eagerly.
    dag_csr: Option<DagCsr>,
    dl: DistributionLabeling,
    /// O(1) pre-filters, projected into original-vertex space. Built
    /// from the DAG on construction; addressed in place (no
    /// recomputation) on HOPL v5 opens.
    filters: QueryFilters,
}

/// The condensation DAG's four CSR sections as (usually mapped)
/// stores — the raw material [`Oracle::dag`] materializes lazily.
#[derive(Clone, Debug)]
pub(crate) struct DagCsr {
    pub(crate) out_offsets: Store<u32>,
    pub(crate) out_targets: Store<u32>,
    pub(crate) in_offsets: Store<u32>,
    pub(crate) in_targets: Store<u32>,
}

impl Oracle {
    /// Builds an oracle over any directed graph (cyclic or not) using
    /// Distribution-Labeling with the paper's default configuration.
    pub fn new(g: &DiGraph) -> Self {
        Self::with_config(g, &DlConfig::default())
    }

    /// Builds with a custom Distribution-Labeling configuration.
    pub fn with_config(g: &DiGraph, cfg: &DlConfig) -> Self {
        let cond = Dag::condense(g);
        let dl = DistributionLabeling::build(&cond.dag, cfg);
        Self::from_parts(cond, dl)
    }

    /// [`Self::with_config`] with construction-phase span tracing: the
    /// SCC condensation, the labeling's order/distribute/freeze phases
    /// (see [`DistributionLabeling::build_traced`]), and the final
    /// filter assembly each record a span into `trace`.
    pub fn with_config_traced(
        g: &DiGraph,
        cfg: &DlConfig,
        trace: &crate::metrics::BuildTrace,
    ) -> Self {
        let cond = trace.span("scc_condense", || Dag::condense(g));
        let dl = DistributionLabeling::build_traced(&cond.dag, cfg, Some(trace));
        trace.span("filters", || Self::from_parts(cond, dl))
    }

    /// Assembles an oracle from a condensation and the labeling built
    /// over its components. The query pre-filters are derived from the
    /// condensation DAG here and projected into original-vertex space,
    /// so the filter fast path skips the `comp_of` indirection.
    pub(crate) fn from_parts(cond: Condensation, dl: DistributionLabeling) -> Self {
        debug_assert_eq!(cond.num_components(), dl.labeling().num_vertices());
        let filters = QueryFilters::build(&cond.dag).project(&cond.comp_of);
        Oracle {
            comp_of: cond.comp_of.into(),
            comp_sizes: cond.comp_sizes.into(),
            dag: OnceLock::from(cond.dag),
            dag_csr: None,
            dl,
            filters,
        }
    }

    /// Reassembles an oracle from fully persisted state — the HOPL v5
    /// arena path: the filter records arrive ready-made (and possibly
    /// mapped), so nothing is derived here — not even the DAG, which
    /// materializes from its CSR sections on first [`Oracle::dag`]
    /// use. The caller has validated the cross-array invariants.
    pub(crate) fn from_open_parts(
        comp_of: Store<u32>,
        comp_sizes: Store<u32>,
        dag_csr: DagCsr,
        dl: DistributionLabeling,
        filters: QueryFilters,
    ) -> Self {
        debug_assert_eq!(comp_sizes.len(), dl.labeling().num_vertices());
        debug_assert_eq!(comp_of.len(), filters.num_vertices());
        Oracle {
            comp_of,
            comp_sizes,
            dag: OnceLock::new(),
            dag_csr: Some(dag_csr),
            dl,
            filters,
        }
    }

    /// Does `u` reach `v` in the original graph? Reflexive.
    ///
    /// [`Self::reaches_tallied`] with a throwaway tally: the O(1)
    /// pre-filter stack ([`QueryFilters`], projected into
    /// original-vertex space — one cache-line load per side, no
    /// component mapping) runs first; most queries never reach the
    /// label intersection, and only the ones that do pay the `comp_of`
    /// lookup.
    pub fn reaches(&self, u: VertexId, v: VertexId) -> bool {
        self.reaches_tallied(u, v, &mut crate::parallel::QueryTally::default())
    }

    /// [`Self::reaches`] that also bumps the stage counter the query
    /// died at in `tally`: the batch kernel's stages for one pair, so
    /// answer and tally equal [`Self::reaches_batch_into`]'s for that
    /// pair. The one single-query body.
    #[inline]
    pub fn reaches_tallied(
        &self,
        u: VertexId,
        v: VertexId,
        tally: &mut crate::parallel::QueryTally,
    ) -> bool {
        crate::parallel::answer_tallied(
            self.dl.labeling(),
            Some(&self.filters),
            &self.comp_of,
            u,
            v,
            tally,
        )
    }

    /// The batch kernel ([`crate::parallel::par_query_batch_into`])
    /// over this oracle: answers `pairs[i]` into `out[i]` on `threads`
    /// workers, preserving order, and reports where the queries died
    /// (filter / reach masks, tallied as `signature_cut` / merge). The
    /// labels and filters are immutable, so this needs no
    /// synchronization, and it allocates nothing per call beyond each
    /// worker's bounded merge queue. Answers and tally equal
    /// [`Self::reaches_tallied`] pair by pair.
    ///
    /// # Panics
    /// Panics if `out` and `pairs` differ in length or a vertex id is
    /// out of range.
    pub fn reaches_batch_into(
        &self,
        pairs: &[(VertexId, VertexId)],
        out: &mut [bool],
        threads: usize,
    ) -> crate::parallel::QueryTally {
        crate::parallel::par_query_batch_into(
            self.dl.labeling(),
            Some(&self.filters),
            &self.comp_of,
            pairs,
            out,
            threads,
        )
    }

    /// [`Self::reaches_batch_into`] into a fresh vector. Kept for
    /// hopbench (ROADMAP item 6).
    pub fn reaches_batch(&self, pairs: &[(VertexId, VertexId)], threads: usize) -> Vec<bool> {
        self.reaches_batch_tallied(pairs, threads).0
    }

    /// [`Self::reaches_batch_into`] into a fresh vector, with the
    /// tally. Kept for hopbench (ROADMAP item 6).
    pub fn reaches_batch_tallied(
        &self,
        pairs: &[(VertexId, VertexId)],
        threads: usize,
    ) -> (Vec<bool>, crate::parallel::QueryTally) {
        let mut answers = vec![false; pairs.len()];
        let tally = self.reaches_batch_into(pairs, &mut answers, threads);
        (answers, tally)
    }

    /// Number of vertices of the original graph.
    pub fn num_vertices(&self) -> usize {
        self.comp_of.len()
    }

    /// Number of strongly connected components of the input.
    pub fn num_components(&self) -> usize {
        self.comp_sizes.len()
    }

    /// Total hop-label entries of the underlying oracle (the paper's
    /// index-size metric).
    pub fn label_entries(&self) -> u64 {
        self.dl.labeling().total_entries()
    }

    /// `comp_of[v]` = condensation component of original vertex `v`.
    pub fn comp_of(&self) -> &[VertexId] {
        &self.comp_of
    }

    /// Original vertices per component.
    pub fn comp_sizes(&self) -> &[u32] {
        &self.comp_sizes
    }

    /// The condensation DAG (component ids topological: `tail < head`).
    ///
    /// On an [`Oracle::open`]ed index this materializes lazily from
    /// the persisted CSR sections — queries never pay for it, only
    /// `save_arena`/introspection callers do, once.
    ///
    /// # Panics
    /// On a mapped oracle, panics if the persisted CSR turns out
    /// malformed — possible only for a file that passes its checksums
    /// yet was not produced by [`Oracle::save_arena`] (the arena
    /// reader's documented trust model; see [`crate::persist`]).
    pub fn dag(&self) -> &Dag {
        self.dag.get_or_init(|| {
            let csr = self
                .dag_csr
                .as_ref()
                .expect("an oracle holds its DAG or the CSR to build it");
            let g = DiGraph::from_csr(
                csr.out_offsets.to_vec(),
                csr.out_targets.to_vec(),
                csr.in_offsets.to_vec(),
                csr.in_targets.to_vec(),
            )
            .expect("arena condensation CSR is malformed despite valid checksums");
            for u in 0..g.num_vertices() as VertexId {
                assert!(
                    g.out_neighbors(u).first().is_none_or(|&t| t > u),
                    "arena condensation edge from {u} is not topological"
                );
            }
            Dag::new(g).expect("topological edges are acyclic")
        })
    }

    /// True byte footprint of everything the oracle serves from —
    /// labels, reach masks, the rank order, filter records, the
    /// component tables, and the (always owned) condensation DAG —
    /// split into heap vs mapped-arena bytes. An index opened with
    /// [`Oracle::open`] reports almost everything under
    /// `mapped_bytes`, and those bytes are shared page cache across
    /// every replica of the same file.
    pub fn memory(&self) -> MemorySplit {
        let mut m = self.dl.memory();
        m.add(self.filters.memory());
        m.add(MemorySplit::of(&self.comp_of));
        m.add(MemorySplit::of(&self.comp_sizes));
        if let Some(dag) = self.dag.get() {
            m.add(MemorySplit {
                heap_bytes: dag.graph().memory_bytes() as u64,
                mapped_bytes: 0,
            });
        }
        if let Some(csr) = &self.dag_csr {
            m.add(MemorySplit::of(&csr.out_offsets));
            m.add(MemorySplit::of(&csr.out_targets));
            m.add(MemorySplit::of(&csr.in_offsets));
            m.add(MemorySplit::of(&csr.in_targets));
        }
        m
    }

    /// [`StoreBackend::Mapped`] iff the hot arrays live in a shared
    /// arena (the label store is the tell — every v5 section shares
    /// one buffer).
    pub fn backend(&self) -> StoreBackend {
        self.dl.labeling().backend()
    }

    /// The O(1) query pre-filter stack, projected into
    /// *original-vertex* space ([`QueryFilters::project`]) — index it
    /// with original graph ids, not component ids.
    pub fn filters(&self) -> &QueryFilters {
        &self.filters
    }

    /// The underlying Distribution-Labeling oracle over the
    /// condensation DAG.
    pub fn inner(&self) -> &DistributionLabeling {
        &self.dl
    }

    /// Keeps what a dynamic namespace queries — `comp_of` and the
    /// labeling, mapped or owned as they are — and drops the filters
    /// and the condensation.
    pub(crate) fn into_labels(self) -> (Store<u32>, DistributionLabeling) {
        (self.comp_of, self.dl)
    }
}

impl crate::wal::Checkpoint for Oracle {
    fn index(&self) -> Cow<'_, Oracle> {
        Cow::Borrowed(self)
    }
}

impl crate::wal::Checkpoint for Dag {
    /// Labels the DAG once, with the default configuration.
    fn index(&self) -> Cow<'_, Oracle> {
        Cow::Owned(Oracle::new(self.graph()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Trivial;
    impl ReachIndex for Trivial {
        fn name(&self) -> &'static str {
            "trivial"
        }
        fn query(&self, u: VertexId, v: VertexId) -> bool {
            u == v
        }
        fn size_in_integers(&self) -> u64 {
            3
        }
    }

    #[test]
    fn default_memory_is_four_bytes_per_integer() {
        let t = Trivial;
        assert_eq!(t.memory_bytes(), 12);
        assert!(t.query(1, 1));
        assert!(!t.query(1, 2));
    }

    #[test]
    fn trait_is_object_safe() {
        let b: Box<dyn ReachIndex> = Box::new(Trivial);
        assert_eq!(b.name(), "trivial");
    }
}
