//! Incremental reachability on growing DAGs — the paper's first
//! future-work item ("we will investigate the labeling on dynamic
//! graphs", §7).
//!
//! Rebuilding a Distribution-Labeling from scratch on every edge
//! insertion wastes its excellent construction speed. This module uses
//! the standard *delta overlay* design instead:
//!
//! * queries against the labeled snapshot stay O(|labels|);
//! * inserted edges accumulate in an overlay `Δ`;
//! * a query `u → v` holds in `G ∪ Δ` iff some path alternates static
//!   segments with Δ-edges:
//!   `u →G a₁ →Δ b₁ →G a₂ →Δ b₂ … →G v` — checked by a BFS over the
//!   Δ-edges, with each static segment answered by the oracle;
//! * once `Δ` outgrows a threshold, the oracle is rebuilt (DL's
//!   construction is fast enough that amortized cost stays low —
//!   that is precisely the paper's headline property). Each snapshot
//!   is labeled once, as an [`Oracle`] that a durable namespace also
//!   checkpoints and recovery adopts ([`DynamicOracle::from_index`]).
//!
//! Edge *deletions* use the dual trick: removing edges can only shrink
//! reachability, so the stale oracle stays a sound *over*-approximation.
//! A query that the (oracle + Δ) machinery answers `false` is final;
//! a `true` with deletions pending is confirmed by one BFS on the
//! current logical graph. Deletions are therefore O(1) to apply, and
//! the confirmation cost is amortized away by the same
//! threshold-triggered rebuild.
//!
//! Two serving-tier concerns layer on top:
//!
//! * **Durability** — a [`Durability`] hook logs every mutation to a
//!   write-ahead log *before* it is applied (and before any caller
//!   acknowledges it), so `acknowledged ⇒ logged` holds and a crash
//!   recovers a prefix of acknowledged operations (see [`crate::wal`]).
//! * **Non-blocking rebuild** — instead of the inline
//!   [`DynamicOracle::rebuild`] a server takes a cheap
//!   [`DynamicOracle::rebuild_plan`] snapshot, runs the
//!   heavy [`RebuildPlan::execute`] off-lock on a worker thread while
//!   readers keep answering through the overlay, and finally
//!   [`DynamicOracle::publish`]es the result: the overlay is re-derived by set
//!   algebra so mutations that landed *mid-rebuild* are preserved.

use std::cell::RefCell;
use std::fmt;
use std::io;

use hoplite_graph::digraph::GraphBuilder;
use hoplite_graph::{Dag, GraphError, VertexId};

use crate::distribution::{DistributionLabeling, DlConfig};
use crate::oracle::{Oracle, ReachIndex};
use crate::store::{MemorySplit, Store};
use crate::wal::{Durability, EdgeOp};

/// Why a mutation was refused. Either the edge itself is invalid for
/// the current graph, or the durability hook could not log it — in
/// both cases the oracle is unchanged and the mutation must not be
/// acknowledged.
#[derive(Debug)]
pub enum MutationError {
    /// Structurally invalid: the edge would close a cycle, or an
    /// endpoint is out of range.
    Graph(GraphError),
    /// The write-ahead log rejected the record; nothing was applied.
    Durability(io::Error),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::Graph(e) => write!(f, "{e}"),
            MutationError::Durability(e) => write!(f, "durability: {e}"),
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::Graph(e) => Some(e),
            MutationError::Durability(e) => Some(e),
        }
    }
}

impl From<GraphError> for MutationError {
    fn from(e: GraphError) -> Self {
        MutationError::Graph(e)
    }
}

/// How an insert changes the overlay, decided before anything is
/// logged or applied.
enum InsertAction {
    /// Already live — nothing to log, nothing to do.
    Noop,
    /// The edge is a tombstoned snapshot edge; clear the tombstone at
    /// this index.
    ClearTombstone(usize),
    /// A genuinely new edge for the Δ overlay.
    Append,
}

/// How a remove changes the overlay.
enum RemoveAction {
    /// Not present (neither snapshot nor overlay).
    Missing,
    /// Drop the overlay edge at this index.
    DropDelta(usize),
    /// Tombstone a live snapshot edge.
    Tombstone,
}

/// A reachability oracle over a DAG that accepts edge insertions.
///
/// ```
/// use hoplite_graph::Dag;
/// use hoplite_core::dynamic::DynamicOracle;
///
/// let dag = Dag::from_edges(4, &[(0, 1), (2, 3)])?;
/// let mut oracle = DynamicOracle::new(dag);
/// assert!(!oracle.query(0, 3));
/// oracle.insert_edge(1, 2)?;          // answered through the overlay
/// assert!(oracle.query(0, 3));
/// assert!(oracle.insert_edge(3, 0).is_err());  // would close a cycle
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DynamicOracle {
    dag: Dag,
    /// The snapshot's labels, over the condensation of `dag`, which
    /// `comp_of` renumbers original vertices into.
    dl: DistributionLabeling,
    comp_of: Store<u32>,
    cfg: DlConfig,
    /// Edges inserted since the last rebuild.
    delta: Vec<(VertexId, VertexId)>,
    /// Snapshot edges logically removed since the last rebuild.
    deleted: Vec<(VertexId, VertexId)>,
    /// Rebuild once `delta` or `deleted` reaches this size.
    rebuild_threshold: usize,
    /// Inline rebuild at the threshold (library default). A serving
    /// tier turns this off and drives [`Self::rebuild_plan`] /
    /// [`Self::publish`] from a background worker instead.
    auto_rebuild: bool,
    /// Logs every mutation before it is applied; `None` = volatile.
    durability: Option<Box<dyn Durability>>,
    /// Per-query visited marks over delta-edge indices.
    visited: RefCell<Vec<bool>>,
    /// Per-query visited marks over vertices (deletion-confirm BFS).
    vertex_visited: RefCell<Vec<bool>>,
    rebuilds: usize,
}

impl DynamicOracle {
    /// Default overlay size before an automatic rebuild.
    pub const DEFAULT_REBUILD_THRESHOLD: usize = 64;

    /// Builds the initial oracle over `dag`.
    pub fn new(dag: Dag) -> Self {
        Self::with_config(dag, DlConfig::default(), Self::DEFAULT_REBUILD_THRESHOLD)
    }

    /// Builds with a custom DL configuration and rebuild threshold.
    pub fn with_config(dag: Dag, cfg: DlConfig, rebuild_threshold: usize) -> Self {
        assert!(rebuild_threshold >= 1);
        let index = Oracle::with_config(dag.graph(), &cfg);
        DynamicOracle {
            cfg,
            rebuild_threshold,
            ..Self::from_index(dag, index)
        }
    }

    /// Serves `index`, an [`Oracle`] built or opened over exactly
    /// `dag`, without relabeling: keeps its labeling and `comp_of`
    /// table (mapped ones stay mapped) and drops the rest. Panics if
    /// `index` does not have one component per vertex of `dag`.
    pub fn from_index(dag: Dag, index: Oracle) -> Self {
        let n = dag.num_vertices();
        assert!(
            index.num_vertices() == n && index.num_components() == n,
            "index is not over this DAG"
        );
        let (comp_of, dl) = index.into_labels();
        DynamicOracle {
            dag,
            dl,
            comp_of,
            cfg: DlConfig::default(),
            delta: Vec::new(),
            deleted: Vec::new(),
            rebuild_threshold: Self::DEFAULT_REBUILD_THRESHOLD,
            auto_rebuild: true,
            durability: None,
            visited: RefCell::new(Vec::new()),
            vertex_visited: RefCell::new(Vec::new()),
            rebuilds: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.dag.num_vertices()
    }

    /// Edges waiting in the overlay.
    pub fn pending_edges(&self) -> usize {
        self.delta.len()
    }

    /// Snapshot edges logically deleted but not yet folded out.
    pub fn pending_deletions(&self) -> usize {
        self.deleted.len()
    }

    /// How many automatic/explicit rebuilds have happened.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Hop-label entries of the labeled snapshot (overlay excluded) —
    /// the paper's index-size metric, surfaced for serving-side stats.
    pub fn label_entries(&self) -> u64 {
        self.dl.labeling().total_entries()
    }

    /// Footprint of the snapshot labeling's top-hop reach masks in
    /// bytes (see [`crate::Labeling::mask_bytes`]).
    pub fn mask_bytes(&self) -> u64 {
        self.dl.labeling().mask_bytes()
    }

    /// True byte footprint: the labeled snapshot (labels, reach masks,
    /// rank order, `comp_of`; mapped when adopted from a checkpoint),
    /// the DAG, and the mutation overlay.
    pub fn memory(&self) -> MemorySplit {
        let mut m = self.dl.memory();
        m.add(MemorySplit::of(&self.comp_of));
        m.add(MemorySplit {
            heap_bytes: self.dag.graph().memory_bytes() as u64
                + ((self.delta.capacity() + self.deleted.capacity())
                    * std::mem::size_of::<(VertexId, VertexId)>()) as u64,
            mapped_bytes: 0,
        });
        m
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Installs the durability hook. Every subsequent mutation is
    /// logged through it *before* being applied, so `Ok` from
    /// [`Self::insert_edge`]/[`Self::remove_edge`] implies the op is
    /// in the log.
    pub fn set_durability(&mut self, durability: Box<dyn Durability>) {
        self.durability = Some(durability);
    }

    /// The installed hook, if any (the serving tier rotates the log
    /// through this at publish time).
    pub fn durability_mut(&mut self) -> Option<&mut (dyn Durability + 'static)> {
        self.durability.as_deref_mut()
    }

    /// Forces every logged record to stable storage (graceful
    /// shutdown). No-op without a hook.
    pub fn sync_durability(&mut self) -> io::Result<()> {
        match self.durability.as_deref_mut() {
            Some(d) => d.sync(),
            None => Ok(()),
        }
    }

    /// Bytes in the current WAL generation (0 without a hook).
    pub fn wal_bytes(&self) -> u64 {
        self.durability.as_deref().map_or(0, |d| d.wal_bytes())
    }

    /// Records logged over the namespace's lifetime (0 without a hook).
    pub fn wal_records_total(&self) -> u64 {
        self.durability
            .as_deref()
            .map_or(0, |d| d.wal_records_total())
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Inserts the edge `u → v`.
    ///
    /// Returns [`GraphError::Cycle`] (wrapped, and leaves the oracle
    /// unchanged) if the edge would close a directed cycle,
    /// [`GraphError::VertexOutOfRange`] for bad endpoints, and
    /// [`MutationError::Durability`] if the WAL refused the record —
    /// in every error case nothing was applied. Triggers an automatic
    /// inline rebuild at the threshold unless
    /// [`Self::set_auto_rebuild`]`(false)`.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), MutationError> {
        let action = self.plan_insert(u, v)?;
        if matches!(action, InsertAction::Noop) {
            return Ok(());
        }
        if let Some(d) = self.durability.as_deref_mut() {
            d.log(EdgeOp::Insert(u, v))
                .map_err(MutationError::Durability)?;
        }
        match action {
            InsertAction::Noop => unreachable!(),
            InsertAction::ClearTombstone(i) => {
                self.deleted.swap_remove(i);
            }
            InsertAction::Append => self.delta.push((u, v)),
        }
        self.maybe_auto_rebuild();
        Ok(())
    }

    fn plan_insert(&self, u: VertexId, v: VertexId) -> Result<InsertAction, GraphError> {
        let n = self.dag.num_vertices();
        for x in [u, v] {
            if (x as usize) >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: x as u64,
                    num_vertices: n,
                });
            }
        }
        if u == v || self.query(v, u) {
            return Err(GraphError::Cycle { vertex: u });
        }
        // Set semantics: re-inserting a live edge is a no-op, and
        // re-inserting a logically deleted snapshot edge just clears
        // the deletion mark.
        if let Some(i) = self.deleted.iter().position(|&e| e == (u, v)) {
            return Ok(InsertAction::ClearTombstone(i));
        }
        if self.delta.contains(&(u, v)) || self.dag.graph().has_edge(u, v) {
            return Ok(InsertAction::Noop);
        }
        Ok(InsertAction::Append)
    }

    /// Removes an edge lazily: overlay edges are dropped in place, and
    /// snapshot edges are marked deleted in O(1) — the stale labels
    /// stay sound because deletions only shrink reachability (see
    /// [`Self::query`]). A rebuild folds the marks out once they reach
    /// the threshold. `Ok(false)` means the edge did not exist
    /// (neither live in the snapshot nor in the overlay) — nothing is
    /// logged for a no-op.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool, MutationError> {
        let action = self.plan_remove(u, v);
        if matches!(action, RemoveAction::Missing) {
            return Ok(false);
        }
        if let Some(d) = self.durability.as_deref_mut() {
            d.log(EdgeOp::Remove(u, v))
                .map_err(MutationError::Durability)?;
        }
        match action {
            RemoveAction::Missing => unreachable!(),
            RemoveAction::DropDelta(i) => {
                self.delta.swap_remove(i);
            }
            RemoveAction::Tombstone => self.deleted.push((u, v)),
        }
        self.maybe_auto_rebuild();
        Ok(true)
    }

    fn plan_remove(&self, u: VertexId, v: VertexId) -> RemoveAction {
        if let Some(i) = self.delta.iter().position(|&e| e == (u, v)) {
            return RemoveAction::DropDelta(i);
        }
        if !self.dag.graph().has_edge(u, v) || self.deleted.contains(&(u, v)) {
            return RemoveAction::Missing;
        }
        RemoveAction::Tombstone
    }

    /// Re-applies recovered WAL operations without re-logging them
    /// (they are already in the log). Auto-rebuild is suppressed while
    /// replaying and a single rebuild folds the overlay afterwards if
    /// it crossed the threshold. Replaying a valid log prefix cannot
    /// fail — each op was validated against exactly the state its
    /// acknowledgment saw — but errors surface rather than panic in
    /// case the caller feeds a log that does not match the base.
    pub fn replay(&mut self, ops: &[EdgeOp]) -> Result<(), MutationError> {
        let durability = self.durability.take();
        let auto = self.auto_rebuild;
        self.auto_rebuild = false;
        let mut result = Ok(());
        for &op in ops {
            let applied = match op {
                EdgeOp::Insert(u, v) => self.insert_edge(u, v),
                EdgeOp::Remove(u, v) => self.remove_edge(u, v).map(|_| ()),
            };
            if let Err(e) = applied {
                result = Err(e);
                break;
            }
        }
        self.auto_rebuild = auto;
        self.durability = durability;
        if result.is_ok() && self.auto_rebuild && self.needs_rebuild() {
            self.rebuild();
        }
        result
    }

    // ------------------------------------------------------------------
    // Rebuilds — inline and backgroundable
    // ------------------------------------------------------------------

    /// Whether the inline threshold rebuild is armed (default `true`).
    /// A serving tier disables it and watches [`Self::needs_rebuild`]
    /// to drive the background plan/execute/publish cycle instead.
    pub fn set_auto_rebuild(&mut self, auto: bool) {
        self.auto_rebuild = auto;
    }

    /// Re-tunes the overlay size that arms a rebuild (panics on 0).
    pub fn set_rebuild_threshold(&mut self, threshold: usize) {
        assert!(threshold >= 1);
        self.rebuild_threshold = threshold;
    }

    /// Has the overlay reached the rebuild threshold?
    pub fn needs_rebuild(&self) -> bool {
        self.delta.len() >= self.rebuild_threshold || self.deleted.len() >= self.rebuild_threshold
    }

    fn maybe_auto_rebuild(&mut self) {
        if self.auto_rebuild && self.needs_rebuild() {
            self.rebuild();
        }
    }

    /// Folds the overlay (insertions *and* deletions) into the snapshot
    /// and relabels. Called automatically at the thresholds; callable
    /// eagerly (e.g. before a query burst).
    pub fn rebuild(&mut self) {
        if !self.delta.is_empty() || !self.deleted.is_empty() {
            let rebuilt = self.rebuild_plan().execute();
            self.publish(rebuilt);
        }
    }

    /// Snapshots everything a background rebuild needs: the current
    /// base DAG plus the overlay as of now. Cheap relative to a label
    /// build (one CSR clone + two small Vec clones) — called under the
    /// serving lock; the heavy [`RebuildPlan::execute`] then runs with
    /// no lock held at all.
    pub fn rebuild_plan(&self) -> RebuildPlan {
        RebuildPlan {
            dag: self.dag.clone(),
            delta: self.delta.clone(),
            deleted: self.deleted.clone(),
            cfg: self.cfg.clone(),
        }
    }

    /// Atomically adopts a finished background rebuild. The overlay is
    /// re-derived so mutations that landed between
    /// [`Self::rebuild_plan`] and this call are preserved:
    ///
    /// with `D₀`/`R₀` the overlay the plan captured and
    /// `Δ`/`R` the overlay now,
    ///
    /// * `Δ' = (Δ \ D₀) ∪ (R₀ \ R)` — new inserts, plus base edges the
    ///   plan folded *out* that were re-inserted mid-rebuild;
    /// * `R' = (R \ R₀) ∪ (D₀ \ Δ)` — new tombstones, plus edges the
    ///   plan folded *in* that were removed mid-rebuild.
    ///
    /// Returns the new overlay as WAL ops — exactly what
    /// [`Durability::rotate`] must seed the next log generation with.
    /// Removes come **before** inserts: recovery replays the rotated
    /// log against the new checkpoint with [`Self::replay`], which
    /// re-validates every op against live state, and an overlay insert
    /// may be valid only because some new-base edge is tombstoned
    /// (remove `a→b`, then insert `b→a`, landing mid-rebuild).
    /// Tombstoning a base edge is always valid first; the inserts then
    /// see exactly the post-remove state their acknowledgment saw.
    /// Inserts are mutually order-insensitive (every intermediate
    /// state is a subgraph of the final, acyclic, graph).
    pub fn publish(&mut self, rebuilt: RebuiltIndex) -> Vec<EdgeOp> {
        let RebuiltIndex {
            dag,
            index,
            base_delta,
            base_deleted,
        } = rebuilt;
        let delta = minus(&self.delta, &base_delta)
            .chain(minus(&base_deleted, &self.deleted))
            .collect();
        let deleted = minus(&self.deleted, &base_deleted)
            .chain(minus(&base_delta, &self.delta))
            .collect();
        self.dag = dag;
        (self.comp_of, self.dl) = index.into_labels();
        self.delta = delta;
        self.deleted = deleted;
        self.rebuilds += 1;
        self.deleted
            .iter()
            .map(|&(u, v)| EdgeOp::Remove(u, v))
            .chain(self.delta.iter().map(|&(u, v)| EdgeOp::Insert(u, v)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Does `u` reach `v` in the current graph
    /// (snapshot − deletions + overlay)?
    pub fn query(&self, u: VertexId, v: VertexId) -> bool {
        let optimistic = self.query_optimistic(u, v);
        // Deletions only shrink reachability, so the stale oracle is a
        // sound over-approximation: a `false` is final, a `true` needs
        // one BFS on the logical graph while deletions are pending.
        if !optimistic {
            return false;
        }
        if self.deleted.is_empty() {
            return true;
        }
        self.confirm_bfs(u, v)
    }

    /// `u → v` over the *optimistic* graph (snapshot + overlay,
    /// deletions ignored).
    fn query_optimistic(&self, u: VertexId, v: VertexId) -> bool {
        if self.snapshot_reaches(u, v) {
            return true;
        }
        if self.delta.is_empty() {
            return false;
        }
        // BFS over delta edges: edge i is *entered* when some already
        // reached point statically reaches its tail.
        let mut visited = self.visited.borrow_mut();
        visited.clear();
        visited.resize(self.delta.len(), false);
        let mut frontier: Vec<usize> = Vec::new();
        for (i, &(a, _)) in self.delta.iter().enumerate() {
            if self.snapshot_reaches(u, a) {
                visited[i] = true;
                frontier.push(i);
            }
        }
        while let Some(i) = frontier.pop() {
            let (_, b) = self.delta[i];
            if self.snapshot_reaches(b, v) {
                return true;
            }
            for (j, &(a2, _)) in self.delta.iter().enumerate() {
                if !visited[j] && self.snapshot_reaches(b, a2) {
                    visited[j] = true;
                    frontier.push(j);
                }
            }
        }
        false
    }

    /// `u → v` in the labeled snapshot alone.
    fn snapshot_reaches(&self, u: VertexId, v: VertexId) -> bool {
        self.dl
            .query(self.comp_of[u as usize], self.comp_of[v as usize])
    }

    /// One BFS over the logical graph (snapshot edges minus `deleted`,
    /// plus `delta`). Only runs while deletions are pending and the
    /// optimistic answer was positive.
    fn confirm_bfs(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return true;
        }
        let mut visited = self.vertex_visited.borrow_mut();
        visited.clear();
        visited.resize(self.dag.num_vertices(), false);
        let mut stack = vec![u];
        visited[u as usize] = true;
        while let Some(x) = stack.pop() {
            // Snapshot edges, skipping logically deleted ones (the
            // deleted list is bounded by the rebuild threshold, so the
            // scan is a handful of comparisons).
            for &w in self.dag.graph().out_neighbors(x) {
                if !visited[w as usize] && !self.deleted.contains(&(x, w)) {
                    if w == v {
                        return true;
                    }
                    visited[w as usize] = true;
                    stack.push(w);
                }
            }
            for &(a, b) in &self.delta {
                if a == x && !visited[b as usize] {
                    if b == v {
                        return true;
                    }
                    visited[b as usize] = true;
                    stack.push(b);
                }
            }
        }
        false
    }

    /// The current snapshot (overlay not included).
    pub fn snapshot(&self) -> &Dag {
        &self.dag
    }
}

/// Folds an overlay into a base DAG: snapshot edges minus `deleted`,
/// plus `delta`.
fn fold_overlay(
    dag: &Dag,
    delta: &[(VertexId, VertexId)],
    deleted: &[(VertexId, VertexId)],
) -> Dag {
    let n = dag.num_vertices();
    let mut b = GraphBuilder::with_capacity(n, dag.num_edges() + delta.len());
    for (a, c) in dag.graph().edges() {
        if !deleted.contains(&(a, c)) {
            b.add_edge_unchecked(a, c);
        }
    }
    for &(a, c) in delta {
        b.add_edge_unchecked(a, c);
    }
    Dag::new(b.build()).expect("cycle-checked insertions stay acyclic")
}

/// `a \ b`, in `a`'s order.
fn minus<'a, T: Copy + PartialEq>(a: &'a [T], b: &'a [T]) -> impl Iterator<Item = T> + 'a {
    a.iter().copied().filter(|e| !b.contains(e))
}

/// A consistent snapshot of everything a background rebuild needs,
/// detached from the live oracle. See [`DynamicOracle::rebuild_plan`].
pub struct RebuildPlan {
    dag: Dag,
    delta: Vec<(VertexId, VertexId)>,
    deleted: Vec<(VertexId, VertexId)>,
    cfg: DlConfig,
}

impl RebuildPlan {
    /// The heavy part: folds the captured overlay into the base and
    /// labels it, once. Runs with no lock held; readers keep answering
    /// through the live oracle's overlay path meanwhile.
    pub fn execute(self) -> RebuiltIndex {
        let dag = fold_overlay(&self.dag, &self.delta, &self.deleted);
        let index = Oracle::with_config(dag.graph(), &self.cfg);
        RebuiltIndex {
            dag,
            index,
            base_delta: self.delta,
            base_deleted: self.deleted,
        }
    }
}

/// A finished background rebuild, ready for
/// [`DynamicOracle::publish`].
pub struct RebuiltIndex {
    dag: Dag,
    index: Oracle,
    /// The Δ the plan folded in — needed by publish's set algebra.
    base_delta: Vec<(VertexId, VertexId)>,
    /// The tombstones the plan folded out.
    base_deleted: Vec<(VertexId, VertexId)>,
}

impl RebuiltIndex {
    /// The new base DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The new index over [`Self::dag`]: what the namespace serves
    /// after publish, and what a durable namespace stages as its next
    /// checkpoint ([`crate::WalDir::prepare_checkpoint`]).
    pub fn index(&self) -> &Oracle {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::gen::Rng;
    use hoplite_graph::{gen, traversal, DiGraph};

    fn is_cycle(e: &MutationError) -> bool {
        matches!(e, MutationError::Graph(GraphError::Cycle { .. }))
    }

    #[test]
    fn insertions_answered_without_rebuild() {
        // Two chains joined live by a delta edge.
        let dag = Dag::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let mut o = DynamicOracle::with_config(dag, DlConfig::default(), 1000);
        assert!(!o.query(0, 5));
        o.insert_edge(2, 3).unwrap();
        assert_eq!(o.pending_edges(), 1);
        assert_eq!(o.rebuilds(), 0);
        assert!(o.query(0, 5), "path through the overlay edge");
        assert!(o.query(2, 4));
        assert!(!o.query(5, 0));
    }

    #[test]
    fn chains_of_delta_edges() {
        // u ->G a ->Δ b ->G c ->Δ d ->G v with multiple hops.
        let dag = Dag::from_edges(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]).unwrap();
        let mut o = DynamicOracle::with_config(dag, DlConfig::default(), 1000);
        o.insert_edge(1, 2).unwrap();
        o.insert_edge(3, 4).unwrap();
        o.insert_edge(5, 6).unwrap();
        assert!(o.query(0, 7), "three delta edges chained");
        assert!(!o.query(7, 0));
    }

    #[test]
    fn cycle_insertions_rejected() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut o = DynamicOracle::new(dag);
        assert!(o.insert_edge(2, 0).is_err_and(|e| is_cycle(&e)));
        assert!(o.insert_edge(1, 1).is_err_and(|e| is_cycle(&e)));
        // Overlay cycles are caught too.
        o.insert_edge(2, 0).err().unwrap();
        let dag = Dag::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut o = DynamicOracle::with_config(dag, DlConfig::default(), 1000);
        o.insert_edge(1, 2).unwrap();
        assert!(o.insert_edge(3, 0).is_err_and(|e| is_cycle(&e)));
    }

    #[test]
    fn out_of_range_rejected() {
        let dag = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let mut o = DynamicOracle::new(dag);
        assert!(matches!(
            o.insert_edge(0, 5),
            Err(MutationError::Graph(GraphError::VertexOutOfRange { .. }))
        ));
    }

    #[test]
    fn automatic_rebuild_at_threshold() {
        let dag = Dag::from_edges(10, &[]).unwrap();
        let mut o = DynamicOracle::with_config(dag, DlConfig::default(), 3);
        o.insert_edge(0, 1).unwrap();
        o.insert_edge(1, 2).unwrap();
        assert_eq!(o.rebuilds(), 0);
        o.insert_edge(2, 3).unwrap();
        assert_eq!(o.rebuilds(), 1);
        assert_eq!(o.pending_edges(), 0);
        assert!(o.query(0, 3));
        assert_eq!(o.snapshot().num_edges(), 3);
    }

    #[test]
    fn removal_is_lazy_and_answers() {
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut o = DynamicOracle::new(dag);
        assert!(o.query(0, 3));
        assert!(o.remove_edge(1, 2).unwrap());
        assert_eq!(o.rebuilds(), 0, "deletion is applied lazily");
        assert_eq!(o.pending_deletions(), 1);
        assert!(!o.query(0, 3), "cut by the pending deletion");
        assert!(o.query(0, 1));
        assert!(o.query(2, 3));
        assert!(!o.remove_edge(1, 2).unwrap(), "already gone");
        // Removing a pending overlay edge drops it in place.
        let before = o.rebuilds();
        o.insert_edge(1, 2).unwrap();
        assert!(o.query(0, 3), "re-inserted");
        assert!(o.remove_edge(1, 2).unwrap());
        assert_eq!(o.rebuilds(), before);
        assert!(!o.query(0, 3));
    }

    #[test]
    fn reinserting_deleted_edge_clears_the_mark() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut o = DynamicOracle::new(dag);
        assert!(o.remove_edge(0, 1).unwrap());
        assert!(!o.query(0, 2));
        o.insert_edge(0, 1).unwrap();
        assert_eq!(o.pending_deletions(), 0, "mark cleared, no delta entry");
        assert_eq!(o.pending_edges(), 0);
        assert!(o.query(0, 2));
    }

    #[test]
    fn inserting_live_edge_is_a_noop() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut o = DynamicOracle::new(dag);
        o.insert_edge(0, 1).unwrap();
        assert_eq!(o.pending_edges(), 0);
        // Removing it once must actually cut it.
        assert!(o.remove_edge(0, 1).unwrap());
        assert!(!o.query(0, 2));
    }

    #[test]
    fn deletion_threshold_triggers_rebuild() {
        let edges: Vec<(u32, u32)> = (0..6).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(7, &edges).unwrap();
        let mut o = DynamicOracle::with_config(dag, DlConfig::default(), 3);
        assert!(o.remove_edge(0, 1).unwrap());
        assert!(o.remove_edge(2, 3).unwrap());
        assert_eq!(o.rebuilds(), 0);
        assert!(o.remove_edge(4, 5).unwrap());
        assert_eq!(o.rebuilds(), 1, "third deletion folds the overlay");
        assert_eq!(o.pending_deletions(), 0);
        assert_eq!(o.snapshot().num_edges(), 3);
        assert!(!o.query(0, 2));
        assert!(o.query(1, 2));
    }

    #[test]
    fn reverse_edge_insertable_after_deletion() {
        // Deleting a->b makes b->a legal; the optimistic structure then
        // holds both, which must not confuse the exact query.
        let dag = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let mut o = DynamicOracle::new(dag);
        assert!(o.insert_edge(1, 0).is_err_and(|e| is_cycle(&e)));
        assert!(o.remove_edge(0, 1).unwrap());
        o.insert_edge(1, 0).unwrap();
        assert!(o.query(1, 0));
        assert!(!o.query(0, 1), "original direction is gone");
        // Folding keeps the logical graph, not the optimistic one.
        o.rebuild();
        assert!(o.query(1, 0));
        assert!(!o.query(0, 1));
        assert_eq!(o.snapshot().num_edges(), 1);
    }

    // ------------------------------------------------------------------
    // Durability hook
    // ------------------------------------------------------------------

    /// A test hook that records ops and can be told to refuse.
    struct MemLog {
        ops: std::sync::Arc<std::sync::Mutex<Vec<EdgeOp>>>,
        fail: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl Durability for MemLog {
        fn log(&mut self, op: EdgeOp) -> io::Result<()> {
            if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(io::Error::other("refused"));
            }
            self.ops.lock().unwrap().push(op);
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }

        fn rotate(&mut self, overlay: &[EdgeOp]) -> io::Result<()> {
            let mut ops = self.ops.lock().unwrap();
            ops.clear();
            ops.extend_from_slice(overlay);
            Ok(())
        }
    }

    #[test]
    fn mutations_log_before_apply_and_noops_log_nothing() {
        let ops = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let fail = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let dag = Dag::from_edges(4, &[(0, 1)]).unwrap();
        let mut o = DynamicOracle::with_config(dag, DlConfig::default(), 1000);
        o.set_durability(Box::new(MemLog {
            ops: ops.clone(),
            fail: fail.clone(),
        }));
        o.insert_edge(1, 2).unwrap();
        o.insert_edge(1, 2).unwrap(); // no-op re-insert: not logged
        o.insert_edge(0, 1).unwrap(); // live snapshot edge: not logged
        assert!(!o.remove_edge(2, 3).unwrap()); // missing: not logged
        assert!(o.remove_edge(0, 1).unwrap());
        assert_eq!(
            *ops.lock().unwrap(),
            [EdgeOp::Insert(1, 2), EdgeOp::Remove(0, 1)]
        );
        // A refused log leaves the oracle untouched.
        fail.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(matches!(
            o.insert_edge(2, 3),
            Err(MutationError::Durability(_))
        ));
        assert!(!o.query(2, 3));
        assert!(matches!(
            o.remove_edge(1, 2),
            Err(MutationError::Durability(_))
        ));
        assert!(o.query(1, 2), "refused removal left the edge live");
        // Validation errors surface as Graph, not Durability, and are
        // not logged either.
        fail.store(false, std::sync::atomic::Ordering::Relaxed);
        assert!(o.insert_edge(2, 1).is_err_and(|e| is_cycle(&e)));
        assert_eq!(ops.lock().unwrap().len(), 2);
    }

    #[test]
    fn replay_does_not_relog_and_matches_direct_application() {
        let ops = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let fail = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let dag = Dag::from_edges(6, &[(0, 1), (1, 2)]).unwrap();
        let mut o = DynamicOracle::with_config(dag.clone(), DlConfig::default(), 3);
        o.set_durability(Box::new(MemLog {
            ops: ops.clone(),
            fail,
        }));
        let log = [
            EdgeOp::Insert(2, 3),
            EdgeOp::Remove(0, 1),
            EdgeOp::Insert(3, 4),
            EdgeOp::Insert(0, 1), // re-insert clears the tombstone
            EdgeOp::Insert(4, 5),
        ];
        o.replay(&log).unwrap();
        assert!(ops.lock().unwrap().is_empty(), "replay must not re-log");
        assert!(o.query(0, 5));
        assert_eq!(o.rebuilds(), 1, "threshold folded once after replay");
        // Replaying the recovered state from scratch (double replay à
        // la a second recovery) lands in the same logical graph.
        let mut o2 = DynamicOracle::with_config(dag, DlConfig::default(), 3);
        o2.replay(&log).unwrap();
        for a in 0..6u32 {
            for b in 0..6u32 {
                assert_eq!(o.query(a, b), o2.query(a, b), "({a},{b})");
            }
        }
    }

    // ------------------------------------------------------------------
    // Background rebuild: plan / execute / publish
    // ------------------------------------------------------------------

    #[test]
    fn background_rebuild_preserves_mid_rebuild_mutations() {
        let dag = Dag::from_edges(8, &[(0, 1), (1, 2), (4, 5), (6, 7)]).unwrap();
        let mut o = DynamicOracle::with_config(dag, DlConfig::default(), 1000);
        o.set_auto_rebuild(false);
        o.insert_edge(2, 3).unwrap(); // D0
        o.remove_edge(4, 5).unwrap(); // R0
        let plan = o.rebuild_plan();

        // Mutations landing "mid-rebuild", touching every re-apply case:
        o.insert_edge(3, 4).unwrap(); // plain new insert
        o.insert_edge(4, 5).unwrap(); // re-insert of an R0 edge
        o.remove_edge(6, 7).unwrap(); // plain new tombstone
        o.remove_edge(2, 3).unwrap(); // removal of a D0 edge

        let rebuilt = plan.execute();
        assert_eq!(rebuilt.dag().num_edges(), 4, "base − R0 + D0");
        let overlay = o.publish(rebuilt);
        assert_eq!(o.rebuilds(), 1);

        // Overlay re-derivation: Δ' = {(3,4), (4,5)}, R' = {(6,7), (2,3)}.
        let overlay: std::collections::BTreeSet<_> = overlay.into_iter().collect();
        let want: std::collections::BTreeSet<_> = [
            EdgeOp::Insert(3, 4),
            EdgeOp::Insert(4, 5),
            EdgeOp::Remove(6, 7),
            EdgeOp::Remove(2, 3),
        ]
        .into_iter()
        .collect();
        assert_eq!(overlay, want);

        // And the logical graph is exactly base + all six mutations.
        let g = DiGraph::from_edges(8, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        traversal::assert_matches_bfs(&g, "after publish", |a, b| o.query(a, b));
        // Folding the published overlay inline agrees too.
        o.rebuild();
        traversal::assert_matches_bfs(&g, "after inline fold", |a, b| o.query(a, b));
    }

    // ------------------------------------------------------------------
    // Randomized mutations
    // ------------------------------------------------------------------

    /// Seeded random mutations under every way the overlay is folded,
    /// with all pairs checked against BFS over the logical edge list
    /// after every round. A failure names the row, seed and round. In
    /// the manual row auto rebuild is off: each round plans a rebuild,
    /// mutates while it runs, publishes it, and mutates again.
    #[test]
    fn randomized_mutations_match_bfs() {
        for (row, threshold, remove_p, manual) in [
            ("insert-only", 7, 0.0, false),
            ("insert+remove, auto rebuild", 5, 0.35, false),
            ("plan, mutate, publish", 1_000, 0.4, true),
        ] {
            for seed in 0..3 {
                let mut rng = Rng::new(seed);
                // Past the top hops, so snapshots carry label lists.
                let base = gen::random_dag(96, 160, seed);
                let n = base.num_vertices();
                let mut edges: Vec<(u32, u32)> = base.graph().edges().collect();
                let mut o = DynamicOracle::with_config(base, DlConfig::default(), threshold);
                o.set_auto_rebuild(!manual);
                let mut mutate = |o: &mut DynamicOracle, edges: &mut Vec<(u32, u32)>| {
                    for _ in 0..8 {
                        if rng.gen_bool(remove_p) && !edges.is_empty() {
                            let (a, b) = edges.swap_remove(rng.gen_index(edges.len()));
                            assert!(o.remove_edge(a, b).unwrap(), "({a},{b}) exists");
                            continue;
                        }
                        let (u, v) = (rng.gen_index(n) as u32, rng.gen_index(n) as u32);
                        match o.insert_edge(u, v) {
                            Ok(()) if !edges.contains(&(u, v)) => edges.push((u, v)),
                            Ok(()) => {}
                            Err(e) if is_cycle(&e) => {
                                let g = DiGraph::from_edges(n, edges).unwrap();
                                let closes_cycle = u == v || traversal::reaches(&g, v, u);
                                assert!(closes_cycle, "({u},{v}) wrongly rejected as a cycle");
                            }
                            Err(e) => panic!("unexpected {e}"),
                        }
                    }
                };
                for round in 0..8 {
                    mutate(&mut o, &mut edges);
                    if manual {
                        let plan = o.rebuild_plan();
                        mutate(&mut o, &mut edges); // lands mid-rebuild
                        o.publish(plan.execute());
                        mutate(&mut o, &mut edges); // lands after publish
                    }
                    let g = DiGraph::from_edges(n, &edges).unwrap();
                    let what = format!("{row} seed {seed} round {round}");
                    traversal::assert_matches_bfs(&g, &what, |a, b| o.query(a, b));
                }
                assert!(o.rebuilds() > 0, "{row} seed {seed} never folded");
            }
        }
    }
}
