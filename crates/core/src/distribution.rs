//! Distribution-Labeling (DL) — Algorithm 2 of the paper.
//!
//! The "simplest hierarchy": a total order of vertices. Hops are
//! processed from the highest rank down; hop `v_i` is *distributed*
//! into the labels of exactly the vertices whose coverage it extends
//! (Theorem 2):
//!
//! * a **reverse** BFS from `v_i` adds `v_i` to `L_out(u)` for every
//!   `u ∈ TC⁻¹(v_i) \ TC⁻¹(X)`, pruning (and not expanding) any `u`
//!   with `L_out(u) ∩ L_in(v_i) ≠ ∅` — such a `u` already reaches `v_i`
//!   through a higher-ranked hop;
//! * a **forward** BFS symmetrically adds `v_i` to `L_in(w)`.
//!
//! The resulting labeling is complete (Theorem 3) and **non-redundant**
//! (Theorem 4): removing any single hop entry breaks completeness. Both
//! properties are enforced by this crate's tests.
//!
//! ### The top hops live in reach masks
//!
//! The [`TOP_HOPS`] highest-ranked hops are not distributed into the
//! lists at all. One topological sweep per side records, for every
//! vertex `c`, which of them `c` reaches (`F(c)`) and which reach `c`
//! (`B(c)`) — see [`crate::label`]. Distribution then starts at rank
//! [`TOP_HOPS`], so the 64 least-pruned BFS passes never run, and the
//! lists keep exactly the paper's entries of rank ≥ [`TOP_HOPS`]:
//!
//! * a `u → v` path through a top hop shows as `F(u) & B(v) ≠ 0`;
//! * otherwise the pair's highest-ranked witness has rank ≥
//!   [`TOP_HOPS`] and is still in both lists.
//!
//! By the same argument a hop-`h` BFS prunes `u` on the reverse side
//! when `F(u) & B(h) ≠ 0`, and `w` on the forward side when
//! `F(h) & B(w) ≠ 0`, before its rank-set test.
//! [`DistributionLabeling::full_labels`] restores the top hops' exact
//! Algorithm 2 entries from the masks.
//!
//! ### Hop ids are ranks
//!
//! Labels store the *rank* of a hop, not its vertex id. Ranks are
//! assigned in processing order, so every label list is born sorted —
//! no per-list sort is ever needed, and the merge-intersection query
//! works directly on ranks. [`DistributionLabeling::vertex_at_rank`]
//! recovers the underlying vertex.
//!
//! Worst-case construction cost is `O(n·(n+m)·L)` like the paper's
//! Algorithm 2, but the pruning makes it far faster in practice — that
//! is the paper's central claim, reproduced by `paper table4` and
//! `paper table7` (README, "Build, test, bench").
//!
//! ### The build engine
//!
//! The textbook transcription of Algorithm 2 pays a full sorted-merge
//! `L_out(u) ∩ L_in(v_i)` on **every** BFS pop. Within one hop's BFS the
//! right-hand side of every pruning test is the *same* list (`L_in(v_i)`
//! for the reverse side, `L_out(v_i)` for the forward side), so the
//! engine snapshots it once per side into an epoch-stamped, rank-indexed
//! membership array: each test becomes `O(|L_out(u)|)` probes with O(1)
//! lookups, and the epoch stamp makes the per-side reset O(1) instead of
//! O(n). The emitted labels are byte-identical to the paper-literal
//! per-pop sorted merge minus its rank < [`TOP_HOPS`] entries, enforced
//! by tests against a test-only transcription of that loop.
//!
//! The engine runs on one thread: past the mask-swept top hops, BFS
//! levels wide enough to share out over threads (≥ 512 entries) hold 537
//! of 1,822,184 frontier entries on a 48k-vertex `random_dag` and none
//! on `deep_chain`; only power-law graphs gave a level-splitting pool
//! work, for about 1.2× at two threads.

use hoplite_graph::{Dag, VertexId};

use crate::label::{Labeling, LabelingBuilder, ReachMasks, TOP_HOPS};
use crate::metrics::BuildTrace;
use crate::oracle::ReachIndex;
use crate::order::OrderKind;
use crate::store::Store;

/// Configuration for [`DistributionLabeling::build`].
#[derive(Clone, Debug, Default)]
pub struct DlConfig {
    /// Vertex processing order (default: the paper's degree product).
    pub order: OrderKind,
}

/// Epoch-stamped membership set over `0..n`: the per-side snapshot of
/// one hop's label (over ranks) and the BFS visited set (over vertices).
///
/// Starting an epoch invalidates the whole set in O(1), so per-side
/// reuse never pays a clear; `load` snapshots one sorted rank list in
/// `O(len)`, and `intersects` then answers "does this other list share
/// an element?" in `O(len(other))` with O(1) probes.
struct EpochSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl EpochSet {
    fn new(n: usize) -> Self {
        EpochSet {
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// Starts a fresh, empty epoch.
    fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Starts a fresh epoch containing exactly `ranks`.
    fn load(&mut self, ranks: &[u32]) {
        self.clear();
        for &r in ranks {
            self.stamp[r as usize] = self.epoch;
        }
    }

    /// Adds `x`; `true` iff it was not in the set yet.
    #[inline]
    fn insert(&mut self, x: u32) -> bool {
        let stamp = &mut self.stamp[x as usize];
        if *stamp == self.epoch {
            return false;
        }
        *stamp = self.epoch;
        true
    }

    /// `true` iff any rank in `ranks` is in the current epoch's set.
    #[inline]
    fn intersects(&self, ranks: &[u32]) -> bool {
        ranks.iter().any(|&r| self.stamp[r as usize] == self.epoch)
    }
}

/// A complete, non-redundant reachability oracle built by
/// Distribution-Labeling.
#[derive(Clone, Debug)]
pub struct DistributionLabeling {
    labeling: Labeling,
    /// `order[r]` = vertex processed at rank `r`. A [`Store`] so a
    /// HOPL v4 open addresses the persisted table in place.
    order: Store<u32>,
}

impl DistributionLabeling {
    /// Runs Algorithm 2 on `dag`.
    ///
    /// ```
    /// use hoplite_graph::Dag;
    /// use hoplite_core::{DistributionLabeling, DlConfig, ReachIndex};
    ///
    /// let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (1, 3)])?;
    /// let dl = DistributionLabeling::build(&dag, &DlConfig::default());
    /// assert!(dl.query(0, 3));
    /// assert!(!dl.query(2, 3));
    /// # Ok::<(), hoplite_graph::GraphError>(())
    /// ```
    pub fn build(dag: &Dag, cfg: &DlConfig) -> Self {
        Self::build_traced(dag, cfg, None)
    }

    /// [`Self::build`] with construction-phase span tracing: the order
    /// computation, the hop-distribution loop, and the label freeze
    /// each record a span into `trace`, and every hop (both BFS sides)
    /// records one sample into the trace's per-hop duration histogram.
    /// With `trace = None` this is exactly [`Self::build`] — the engine
    /// takes one dead branch per hop and records nothing.
    pub fn build_traced(dag: &Dag, cfg: &DlConfig, trace: Option<&BuildTrace>) -> Self {
        let order = match trace {
            Some(t) => t.span("order", || cfg.order.compute(dag)),
            None => cfg.order.compute(dag),
        };
        Self::label_in_order(dag, order, trace)
    }

    /// Runs Algorithm 2 with an explicit processing order (`order[0]`
    /// is the highest-ranked hop). The order must be a permutation of
    /// the vertices; domain-specific orders can beat the degree
    /// heuristics when the caller knows the graph's hub structure.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn build_with_order(dag: &Dag, order: Vec<VertexId>) -> Self {
        Self::label_in_order(dag, order, None)
    }

    /// The body of every build: reach masks for the top hops, the
    /// distribution of every other hop, the freeze.
    fn label_in_order(dag: &Dag, order: Vec<VertexId>, trace: Option<&BuildTrace>) -> Self {
        let n = dag.num_vertices();
        assert_eq!(order.len(), n, "order must cover every vertex");
        debug_assert!({
            let mut seen = vec![false; n];
            order.iter().all(|&v| {
                let s = &mut seen[v as usize];
                !std::mem::replace(s, true)
            })
        });
        let engine = || {
            let masks = ReachMasks::compute(dag, &order[..n.min(TOP_HOPS)]);
            let lists = distribute(dag, &order, &masks, trace);
            (lists, masks)
        };
        let (lists, masks) = match trace {
            Some(t) => t.span("distribute", engine),
            None => engine(),
        };
        let freeze = || lists.finish_with_masks(masks);
        let labeling = match trace {
            Some(t) => t.span("freeze", freeze),
            None => freeze(),
        };
        DistributionLabeling {
            labeling,
            order: order.into(),
        }
    }

    /// The underlying label store.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// Reassembles an oracle from persisted parts: a HOPL v4 open
    /// hands in the label stores and the mapped order table.
    pub(crate) fn from_parts(labeling: Labeling, order: impl Into<Store<u32>>) -> Self {
        DistributionLabeling {
            labeling,
            order: order.into(),
        }
    }

    /// True byte footprint (labels + reach masks + the order table),
    /// split by backing.
    pub fn memory(&self) -> crate::store::MemorySplit {
        let mut m = self.labeling.memory();
        m.add(crate::store::MemorySplit::of(&self.order));
        m
    }

    /// The vertex that was assigned rank `r` (hop id `r` in the labels).
    pub fn vertex_at_rank(&self, r: u32) -> VertexId {
        self.order[r as usize]
    }

    /// The full rank → vertex order.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// The complete labels the paper's Algorithm 2 emits: the stored
    /// lists with the top hops' entries restored from the reach masks.
    /// Top hop `i` is in `L_out(c)` iff `c` reaches it and no
    /// higher-ranked top hop lies between them (`F(c) & B(v_i)` has no
    /// bit below `i`), and in `L_in(c)` iff it reaches `c` and
    /// `B(c) & F(v_i)` has no bit below `i`. HL labels its core with
    /// these; queries never need them.
    pub fn full_labels(&self) -> LabelingBuilder {
        let l = &self.labeling;
        let n = l.num_vertices();
        let mut b = LabelingBuilder::new(n);
        let top_entries = |own: u64, hop_mask: &dyn Fn(VertexId) -> u64| -> Vec<u32> {
            let mut ranks = Vec::new();
            let mut bits = own;
            while bits != 0 {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                let below = (1u64 << i) - 1;
                if own & hop_mask(self.order[i as usize]) & below == 0 {
                    ranks.push(i);
                }
            }
            ranks
        };
        for c in 0..n as VertexId {
            let out = &mut b.out[c as usize];
            *out = top_entries(l.out_mask(c), &|h| l.in_mask(h));
            out.extend_from_slice(l.out_label(c));
            let in_ = &mut b.in_[c as usize];
            *in_ = top_entries(l.in_mask(c), &|h| l.out_mask(h));
            in_.extend_from_slice(l.in_label(c));
        }
        b
    }
}

// Why the engine's labels equal the paper's: within one hop side, a
// vertex `u` is popped at most once (the visited set claims it), and
// its prune test reads only `u`'s own list — which no other vertex's
// processing in this side can touch — and the hop's snapshot, fixed
// before the side's BFS starts. So the set of vertices that receive
// rank `r` does not depend on the order they are visited in. The mask
// probe is sound for the same reason: it reads `u`'s own mask and the
// hop's, both fixed before distribution starts.

/// The hop loop: for every hop of rank ≥ [`TOP_HOPS`], a reverse pruned
/// BFS appending its rank to `L_out`, then a forward one appending to
/// `L_in`, each tested against a snapshot of the hop's own opposite
/// list taken as the side starts — the paper's order. With a trace,
/// each hop (both sides) lands in the trace's per-hop histogram.
fn distribute(
    dag: &Dag,
    order: &[VertexId],
    masks: &ReachMasks,
    trace: Option<&BuildTrace>,
) -> LabelingBuilder {
    let n = dag.num_vertices();
    let g = dag.graph();
    let mut lists = LabelingBuilder::new(n);
    let mut members = EpochSet::new(n);
    let mut bfs = PrunedBfs {
        visited: EpochSet::new(n),
        queue: Vec::new(),
    };
    for (rank, &h) in order.iter().enumerate().skip(TOP_HOPS) {
        let hop_started = trace.map(|_| std::time::Instant::now());
        let r = rank as u32;
        // Reverse: `u` reaches the hop through a top hop iff
        // `F(u) & B(h) ≠ 0`. A zero hop word (no top hop on this side
        // of the hop, the common case on sparse graphs) skips the mask
        // load.
        members.load(&lists.in_[h as usize]);
        let word = masks.in_[h as usize];
        bfs.run(
            h,
            r,
            &mut lists.out,
            |u, list| (word != 0 && masks.out[u as usize] & word != 0) || members.intersects(list),
            |u| g.in_neighbors(u),
        );
        // Forward: the hop reaches `w` through a top hop iff
        // `F(h) & B(w) ≠ 0`.
        members.load(&lists.out[h as usize]);
        let word = masks.out[h as usize];
        bfs.run(
            h,
            r,
            &mut lists.in_,
            |w, list| (word != 0 && masks.in_[w as usize] & word != 0) || members.intersects(list),
            |w| g.out_neighbors(w),
        );
        if let (Some(t), Some(started)) = (trace, hop_started) {
            t.record_hop(started.elapsed().as_nanos() as u64);
        }
    }
    lists
}

/// One side of one hop's distribution, with its scratch kept across
/// hops.
struct PrunedBfs {
    visited: EpochSet,
    queue: Vec<VertexId>,
}

impl PrunedBfs {
    /// BFS from hop `h` over `neighbors`: every popped vertex `u` with
    /// `!pruned(u, lists[u])` gets rank `r` appended and its unvisited
    /// neighbors queued; a pruned vertex is not expanded.
    fn run<'g>(
        &mut self,
        h: VertexId,
        r: u32,
        lists: &mut [Vec<u32>],
        pruned: impl Fn(VertexId, &[u32]) -> bool,
        neighbors: impl Fn(VertexId) -> &'g [VertexId],
    ) {
        self.visited.clear();
        self.visited.insert(h);
        self.queue.clear();
        self.queue.push(h);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let list = &mut lists[u as usize];
            if pruned(u, list) {
                continue;
            }
            list.push(r);
            for &w in neighbors(u) {
                if self.visited.insert(w) {
                    self.queue.push(w);
                }
            }
        }
    }
}

impl ReachIndex for DistributionLabeling {
    fn name(&self) -> &'static str {
        "DL"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        self.labeling.query(u, v)
    }

    fn size_in_integers(&self) -> u64 {
        // Labels + offsets + the rank→vertex table + the reach masks
        // (two u64 = four u32 per component): the masks hold the top
        // hops' answers the lists no longer do.
        self.labeling.size_in_integers() + 5 * self.order.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::sorted_intersect;
    use hoplite_graph::{gen, traversal};
    use std::collections::VecDeque;

    #[test]
    fn diamond_complete() {
        let dag = Dag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        traversal::assert_matches_bfs(dag.graph(), "diamond", |u, v| dl.query(u, v));
    }

    #[test]
    fn every_vertex_labels_itself() {
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        for v in 0..4u32 {
            assert!(dl.query(v, v));
        }
    }

    /// Every order, on graphs past [`TOP_HOPS`] so the mask-pruned
    /// distribution runs: the stored lists are the reference's minus
    /// its top hops, and every answer matches BFS.
    #[test]
    fn random_dags_complete_all_orders() {
        for seed in 0..8 {
            let dag = gen::random_dag(160, 480, seed);
            for order in [
                OrderKind::DegProduct,
                OrderKind::DegSum,
                OrderKind::Random(seed),
                OrderKind::Topological,
                OrderKind::CoverSize,
            ] {
                let what = format!("{order:?}, random_dag seed {seed}");
                let dl = assert_matches_reference(&dag, order, &what);
                assert!(dl.labeling().total_entries() > 0, "{what}");
                traversal::assert_matches_bfs(dag.graph(), &what, |u, v| dl.query(u, v));
            }
        }
    }

    #[test]
    fn tree_and_powerlaw_complete() {
        for seed in 0..4 {
            for (dag, family) in [
                (gen::tree_plus_dag(150, 40, seed), "tree"),
                (gen::power_law_dag(150, 450, seed), "power-law"),
            ] {
                let dl = DistributionLabeling::build(&dag, &DlConfig::default());
                let what = format!("{family} seed {seed}");
                assert!(dl.labeling().total_entries() > 0, "{what}");
                traversal::assert_matches_bfs(dag.graph(), &what, |u, v| dl.query(u, v));
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let dag = Dag::from_edges(0, &[]).unwrap();
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        assert_eq!(dl.labeling().total_entries(), 0);

        let dag = Dag::from_edges(1, &[]).unwrap();
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        assert!(dl.query(0, 0));
        // The singleton is top hop 0: its masks hold it, its lists are
        // empty, and the full labels list it on both sides.
        assert_eq!(dl.labeling().total_entries(), 0);
        assert_eq!(
            (dl.labeling().out_mask(0), dl.labeling().in_mask(0)),
            (1, 1)
        );
        let full = dl.full_labels();
        assert_eq!((&full.out[0][..], &full.in_[0][..]), (&[0][..], &[0][..]));
    }

    /// `F` and `B` are exact: bit `i` of `F(c)` iff `c` reaches the
    /// rank-`i` hop, of `B(c)` iff that hop reaches `c` — on graphs
    /// smaller than [`TOP_HOPS`] (every vertex a top hop, every list
    /// empty), around it, and larger.
    #[test]
    fn masks_match_bfs_on_small_dags() {
        let mut dags = vec![
            Dag::from_edges(0, &[]).unwrap(),
            Dag::from_edges(1, &[]).unwrap(),
            Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
        ];
        for (n, seed) in [(20, 1), (63, 2), (64, 3), (65, 4), (150, 5)] {
            dags.push(gen::random_dag(n, 3 * n, seed));
        }
        for dag in &dags {
            let n = dag.num_vertices();
            let dl = DistributionLabeling::build(dag, &DlConfig::default());
            let l = dl.labeling();
            for c in 0..n as VertexId {
                for (i, &h) in dl.order().iter().take(TOP_HOPS).enumerate() {
                    let what = format!("n={n}, c={c}, top hop {i} = {h}");
                    let reaches = |a, b| traversal::reaches(dag.graph(), a, b);
                    assert_eq!(l.out_mask(c) >> i & 1 == 1, reaches(c, h), "F: {what}");
                    assert_eq!(l.in_mask(c) >> i & 1 == 1, reaches(h, c), "B: {what}");
                }
            }
            if n <= TOP_HOPS {
                assert_eq!(l.total_entries(), 0, "n={n}: every vertex is a top hop");
            }
            for c in 0..n as VertexId {
                let mut stored = l.out_label(c).iter().chain(l.in_label(c));
                assert!(stored.all(|&r| r as usize >= TOP_HOPS), "n={n}, c={c}");
            }
            traversal::assert_matches_bfs(dag.graph(), &format!("masks, n={n}"), |u, v| {
                dl.query(u, v)
            });
        }
    }

    #[test]
    fn label_lists_are_strictly_sorted_ranks() {
        let dag = gen::random_dag(200, 600, 3);
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        assert!(dl.labeling().total_entries() > 0);
        for v in 0..200u32 {
            for l in [dl.labeling().out_label(v), dl.labeling().in_label(v)] {
                assert!(l.windows(2).all(|w| w[0] < w[1]), "unsorted label at {v}");
            }
        }
    }

    /// Theorem 4: the labeling is non-redundant — removing any single
    /// hop entry of the full labels breaks completeness.
    #[test]
    fn non_redundancy_on_small_dags() {
        for seed in 0..5 {
            let dag = gen::random_dag(14, 28, seed);
            let dl = DistributionLabeling::build(&dag, &DlConfig::default());
            let n = dag.num_vertices();
            let LabelingBuilder { out, in_ } = dl.full_labels();
            // Completeness in the paper's Cov(V) sense: labels must
            // cover reflexive pairs too (every vertex records itself),
            // so the intersection is checked without a u == v shortcut.
            let answers = |out: &[Vec<u32>], in_: &[Vec<u32>]| -> Vec<bool> {
                (0..n)
                    .flat_map(|u| (0..n).map(move |v| (u, v)))
                    .map(|(u, v)| sorted_intersect(&out[u], &in_[v]))
                    .collect()
            };
            let full = answers(&out, &in_);
            let what = format!("labels of random_dag seed {seed}");
            traversal::assert_matches_bfs(dag.graph(), &what, |u, v| {
                full[u as usize * n + v as usize]
            });
            // Trimming only loses answers, so a complete labeling stays
            // complete iff it still gives every answer `full` gives.
            let complete = |out: &[Vec<u32>], in_: &[Vec<u32>]| answers(out, in_) == full;
            for v in 0..n {
                for k in 0..out[v].len() {
                    let mut trimmed = out.clone();
                    trimmed[v].remove(k);
                    assert!(
                        !complete(&trimmed, &in_),
                        "removing hop {} from Lout({v}) kept completeness (seed {seed})",
                        out[v][k]
                    );
                }
                for k in 0..in_[v].len() {
                    let mut trimmed = in_.clone();
                    trimmed[v].remove(k);
                    assert!(
                        !complete(&out, &trimmed),
                        "removing hop {} from Lin({v}) kept completeness (seed {seed})",
                        in_[v][k]
                    );
                }
            }
        }
    }

    /// The paper-literal Algorithm 2: one BFS per hop and side, with a
    /// full sorted-merge prune test on every pop. The engine must emit
    /// exactly these lists minus their rank < [`TOP_HOPS`] entries, and
    /// [`DistributionLabeling::full_labels`] exactly these lists.
    fn sorted_merge_reference(dag: &Dag, order: &[VertexId]) -> LabelingBuilder {
        fn distribute<'g>(
            side: &mut [Vec<u32>],
            vi: VertexId,
            r: u32,
            neighbors: impl Fn(VertexId) -> &'g [VertexId],
            prune: impl Fn(&[u32]) -> bool,
        ) {
            let mut visited = vec![false; side.len()];
            let mut queue = VecDeque::from([vi]);
            visited[vi as usize] = true;
            while let Some(u) = queue.pop_front() {
                if prune(&side[u as usize]) {
                    continue;
                }
                side[u as usize].push(r);
                for &w in neighbors(u) {
                    if !std::mem::replace(&mut visited[w as usize], true) {
                        queue.push_back(w);
                    }
                }
            }
        }
        let g = dag.graph();
        let mut b = LabelingBuilder::new(dag.num_vertices());
        for (rank, &vi) in order.iter().enumerate() {
            let r = rank as u32;
            let l_in = b.in_[vi as usize].clone();
            distribute(
                &mut b.out,
                vi,
                r,
                |u| g.in_neighbors(u),
                |l| sorted_intersect(l, &l_in),
            );
            let l_out = b.out[vi as usize].clone();
            distribute(
                &mut b.in_,
                vi,
                r,
                |w| g.out_neighbors(w),
                |l| sorted_intersect(l, &l_out),
            );
        }
        b
    }

    /// Builds with `kind` and asserts the order, every stored list (the
    /// reference's with ranks < [`TOP_HOPS`] removed) and every full
    /// label list are byte-identical to [`sorted_merge_reference`].
    fn assert_matches_reference(dag: &Dag, kind: OrderKind, what: &str) -> DistributionLabeling {
        let order = kind.compute(dag);
        let reference = sorted_merge_reference(dag, &order);
        let dl = DistributionLabeling::build(dag, &DlConfig { order: kind });
        assert_eq!(dl.order(), &order[..], "{what}");
        let trimmed = |list: &[u32]| -> Vec<u32> {
            list.iter()
                .copied()
                .filter(|&r| r as usize >= TOP_HOPS)
                .collect()
        };
        let full = dl.full_labels();
        for v in 0..dag.num_vertices() as VertexId {
            let (want_out, want_in) = (&reference.out[v as usize], &reference.in_[v as usize]);
            assert_eq!(
                dl.labeling().out_label(v),
                trimmed(want_out),
                "{what}, L_out({v})"
            );
            assert_eq!(
                dl.labeling().in_label(v),
                trimmed(want_in),
                "{what}, L_in({v})"
            );
            assert_eq!(&full.out[v as usize], want_out, "{what}, full L_out({v})");
            assert_eq!(&full.in_[v as usize], want_in, "{what}, full L_in({v})");
        }
        dl
    }

    /// [`TOP_HOPS`] stars of 25 + 25 private leaves (degree product
    /// 676) ahead of a 600-wide fan `w → mids → s` (product 601): the
    /// first distributed hops run BFS levels of 600 vertices.
    fn wide_fan_behind_top_hops() -> Dag {
        let mut edges = Vec::new();
        let mut next = TOP_HOPS as VertexId;
        for hub in 0..TOP_HOPS as VertexId {
            for _ in 0..25 {
                edges.push((next, hub));
                edges.push((hub, next + 1));
                next += 2;
            }
        }
        let (w, s) = (next, next + 1);
        for mid in s + 1..s + 601 {
            edges.push((w, mid));
            edges.push((mid, s));
        }
        Dag::from_edges(s as usize + 601, &edges).unwrap()
    }

    /// The engine emits the reference's labels byte for byte on the
    /// random, power-law and tree families, on a wide fan and on graphs
    /// of 80 vertices, and every answer matches BFS.
    #[test]
    fn engine_byte_identical_to_sorted_merge_reference() {
        let mut graphs = vec![
            (wide_fan_behind_top_hops(), "wide fan behind the top hops"),
            (gen::random_dag(600, 2_400, 5), "random 600"),
            (gen::power_law_dag(300, 900, 7), "power-law 300"),
            (gen::tree_plus_dag(500, 60, 8), "tree 500"),
        ];
        for seed in 0..4 {
            graphs.push((gen::random_dag(80, 240, seed), "random 80"));
            graphs.push((gen::power_law_dag(80, 240, seed), "power-law 80"));
            graphs.push((gen::tree_plus_dag(80, 20, seed), "tree 80"));
        }
        for (dag, what) in &graphs {
            let dl = assert_matches_reference(dag, OrderKind::DegProduct, what);
            traversal::assert_matches_bfs(dag.graph(), what, |u, v| dl.query(u, v));
        }
    }

    /// The engine must also hold on degenerate shapes where one side's
    /// BFS is empty or the whole graph is edge-free.
    #[test]
    fn engine_handles_degenerate_graphs() {
        for dag in [
            Dag::from_edges(0, &[]).unwrap(),
            Dag::from_edges(1, &[]).unwrap(),
            Dag::from_edges(5, &[]).unwrap(),
            Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
        ] {
            let what = format!("degenerate n={}", dag.num_vertices());
            let dl = assert_matches_reference(&dag, OrderKind::DegProduct, &what);
            traversal::assert_matches_bfs(dag.graph(), &what, |u, v| dl.query(u, v));
        }
    }

    /// Tracing must be an observer: a traced build emits exactly the
    /// labels of the untraced one, records the expected spans, and
    /// records one per-hop sample per distributed hop (every vertex
    /// past the top hops).
    #[test]
    fn traced_build_is_label_identical_and_records_spans() {
        use crate::metrics::BuildTrace;
        let dag = gen::random_dag(120, 360, 9);
        let plain = DistributionLabeling::build(&dag, &DlConfig::default());
        let trace = BuildTrace::new();
        let traced = DistributionLabeling::build_traced(&dag, &DlConfig::default(), Some(&trace));
        assert_eq!(traced.order(), plain.order());
        for v in 0..dag.num_vertices() as VertexId {
            assert_eq!(
                traced.labeling().out_label(v),
                plain.labeling().out_label(v)
            );
            assert_eq!(traced.labeling().in_label(v), plain.labeling().in_label(v));
        }
        let names: Vec<String> = trace.spans().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, ["order", "distribute", "freeze"]);
        assert_eq!(
            trace.hop_snapshot().count(),
            (dag.num_vertices() - TOP_HOPS) as u64
        );
    }

    #[test]
    fn rank_mapping_roundtrips() {
        let dag = gen::random_dag(30, 60, 11);
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        for (r, &v) in dl.order().iter().enumerate() {
            assert_eq!(dl.vertex_at_rank(r as u32), v);
        }
    }
}
