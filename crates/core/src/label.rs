//! Hop-label storage and the sorted-list intersection query.
//!
//! The paper observes (§1) that earlier hop-labeling implementations
//! lost up to an order of magnitude of query performance by storing
//! `L_out`/`L_in` as hash sets; *sorted arrays with a merge
//! intersection* close the gap. [`Labeling`] therefore keeps all labels
//! in two flat CSR arrays of sorted `u32` hop ids — one cache-friendly
//! slice lookup per side, then a linear merge.
//!
//! Hop ids are opaque: Distribution-Labeling stores *ranks* (its hops
//! arrive in rank order, so lists are born sorted), while
//! Hierarchical-Labeling stores original vertex ids. Queries only need
//! the two sides to share a namespace.
//!
//! ### Top-hop reach masks
//!
//! On top of the CSR, [`Labeling`] keeps two exact 64-bit *reach masks*
//! per vertex over the [`TOP_HOPS`] highest-ranked hops — O'Reach's
//! supportive vertices (Hanauer, Schulz & Trummer) stored the way
//! pruned landmark labeling stores its bit-parallel roots (Akiba,
//! Iwata & Yoshida): bit `i` of `F(v)` is set iff `v` reaches top hop
//! `i`, and bit `i` of `B(v)` iff top hop `i` reaches `v`.
//! [`Labeling::query`] tests them before touching either list:
//!
//! * `F(u) & B(v) ≠ 0` — a top hop lies on a `u → v` path: reachable;
//! * `B(u) & !B(v) ≠ 0` or `F(v) & !F(u) ≠ 0` — some top hop reaches
//!   `u` but not `v`, or is reached from `v` but not from `u`:
//!   unreachable.
//!
//! Both tests are exact for masks over *any* set of at most
//! [`TOP_HOPS`] vertices, so every labeling carries them:
//! Distribution-Labeling stores the masks *instead of* its 64 top hops'
//! label entries (the masks hold answers the lists no longer do, so no
//! query path may skip them), while labelings that keep full lists (HL,
//! the 2HOP baseline) add masks over the DAG's [`TOP_HOPS`] highest
//! degree products (DL's default order) as a pure O(1) shortcut. Pairs
//! the masks leave open run a size-adaptive kernel: an 8-lane unrolled
//! merge on near-equal list lengths, galloping
//! ([`sorted_intersect_adaptive`]) on skewed ones.

use hoplite_graph::{Dag, VertexId};

use crate::stats::LabelStats;
use crate::store::{MemorySplit, Store, StoreBackend};

/// Lists whose length ratio is at least this gallop instead of merging
/// (`O(s·log(L/s))` beats `O(s + L)` only on real skew).
const GALLOP_RATIO: usize = 16;

/// `true` iff two ascending-sorted slices share an element.
///
/// This is the entire query path of a reachability oracle:
/// `O(|L_out(u)| + |L_in(v)|)`.
///
/// ```
/// use hoplite_core::sorted_intersect;
/// assert!(sorted_intersect(&[1, 4, 9], &[2, 4]));
/// assert!(!sorted_intersect(&[1, 4, 9], &[2, 5]));
/// ```
#[inline]
pub fn sorted_intersect(a: &[u32], b: &[u32]) -> bool {
    // O(1) disjointness pre-check: if the ranges don't overlap (one
    // list ends before the other starts) the merge cannot hit.
    let (Some(&a_last), Some(&b_last)) = (a.last(), b.last()) else {
        return false;
    };
    if a_last < b[0] || b_last < a[0] {
        return false;
    }
    merge_intersect(a, b)
}

/// The branch-light merge core: exactly one cursor moves per step, so
/// an 8-step unrolled body stays in bounds while both cursors are ≥ 8
/// from their ends — the main loop runs without per-step bound checks
/// or early exits, and the hit flag is folded once per chunk.
#[inline]
fn merge_intersect(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i + 8 <= a.len() && j + 8 <= b.len() {
        let mut hit = false;
        // 8 unrolled lanes. On a hit neither cursor advances, so the
        // remaining lanes re-compare the same pair — harmless, and the
        // chunk exits with `hit` set.
        for _ in 0..8 {
            let (x, y) = (a[i], b[j]);
            hit |= x == y;
            i += (x < y) as usize;
            j += (y < x) as usize;
        }
        if hit {
            return true;
        }
    }
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            return true;
        }
        i += (x < y) as usize;
        j += (y < x) as usize;
    }
    false
}

/// Size-adaptive intersection — the query kernel behind
/// [`Labeling::query`]: when one list is at least [`GALLOP_RATIO`]×
/// longer, gallop (exponential + binary search) through it instead of
/// merging — `O(s·log(L/s))` versus `O(s + L)`; on the near-equal
/// lengths hop labels usually have it falls back to the 8-lane
/// unrolled merge of [`sorted_intersect`].
#[inline]
pub fn sorted_intersect_adaptive(a: &[u32], b: &[u32]) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return false;
    }
    if large.len() / small.len() < GALLOP_RATIO {
        return sorted_intersect(a, b);
    }
    // Range pre-check, same as the merge path: gallop only runs over
    // the overlapping window anyway, but an empty window is free.
    if *large.last().expect("nonempty") < small[0] || *small.last().expect("nonempty") < large[0] {
        return false;
    }
    let mut lo = 0usize;
    for &x in small {
        // Gallop from the last position until large[hi] >= x (or end).
        let mut step = 1usize;
        let mut hi = lo;
        while hi < large.len() && large[hi] < x {
            hi = (hi + step).min(large.len());
            step *= 2;
        }
        // The stop position itself may hold x: include it in the window.
        let end = (hi + 1).min(large.len());
        match large[lo..end].binary_search(&x) {
            Ok(_) => return true,
            Err(pos) => lo += pos,
        }
        if lo >= large.len() {
            return false;
        }
    }
    false
}

/// Cache-prefetch hint for `slice[i]`'s line — the crate's one
/// prefetch primitive, behind the batch kernel's lookahead
/// ([`crate::parallel`]), [`Labeling::prefetch_offsets`],
/// [`Labeling::prefetch_lists`] and [`crate::QueryFilters::prefetch`].
/// Purely advisory: no-op off x86_64, never dereferences, and
/// out-of-range indices are harmless (the address is computed without
/// `add`'s in-bounds contract).
#[inline(always)]
pub(crate) fn prefetch_index<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint that never faults, whatever the
    // address; `wrapping_add` makes computing it defined too.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(slice.as_ptr().wrapping_add(i) as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, i);
    }
}

/// Cache lines of one list [`Labeling::prefetch_lists`] requests at
/// most. A merge walks a list from its head and galloping touches only
/// a few lines of a long one, so the head lines are the ones the
/// kernel stalls on; the hardware streamer covers the rest.
const LIST_PREFETCH_LINES: usize = 8;

/// Prefetches the lines `hops[lo..hi]` spans, at most
/// [`LIST_PREFETCH_LINES`] of them, head first.
#[inline(always)]
fn prefetch_list(hops: &[u32], lo: usize, hi: usize) {
    const LINE: usize = 64;
    const PER_LINE: usize = LINE / std::mem::size_of::<u32>();
    if lo >= hi {
        return;
    }
    let line_of = |i: usize| (hops.as_ptr() as usize + i * std::mem::size_of::<u32>()) / LINE;
    let lines = (line_of(hi - 1) - line_of(lo) + 1).min(LIST_PREFETCH_LINES);
    // `lo + k·PER_LINE` sits at the same offset one line further on,
    // so the k-th hint lands in the list's k-th line.
    for k in 0..lines {
        prefetch_index(hops, lo + k * PER_LINE);
    }
}

/// Hops the reach masks cover: the `TOP_HOPS` highest-ranked, one bit
/// each of a `u64`. Distribution-Labeling stores these hops in the
/// masks and starts list distribution at rank `TOP_HOPS`.
pub const TOP_HOPS: usize = 64;

/// The exact reach masks of every vertex over up to [`TOP_HOPS`] top
/// hops: `out[v]` = `F(v)`, `in_[v]` = `B(v)` (see the module docs).
pub(crate) struct ReachMasks {
    pub(crate) out: Vec<u64>,
    pub(crate) in_: Vec<u64>,
}

impl ReachMasks {
    /// One topological sweep per side, `O(n + m)` word ops: a vertex's
    /// `B` is its own bit (when `top[i]` is it) OR'd with its
    /// in-neighbors' `B`, sources first; `F` likewise over
    /// out-neighbors, sinks first.
    ///
    /// # Panics
    /// Panics if `top` holds more than [`TOP_HOPS`] vertices.
    pub(crate) fn compute(dag: &Dag, top: &[VertexId]) -> Self {
        assert!(top.len() <= TOP_HOPS, "at most {TOP_HOPS} top hops");
        let g = dag.graph();
        let mut own = vec![0u64; dag.num_vertices()];
        for (i, &h) in top.iter().enumerate() {
            own[h as usize] = 1 << i;
        }
        let mut in_ = own.clone();
        for &v in dag.topo_order() {
            in_[v as usize] = g
                .in_neighbors(v)
                .iter()
                .fold(in_[v as usize], |m, &u| m | in_[u as usize]);
        }
        let mut out = own;
        for &v in dag.topo_order().iter().rev() {
            out[v as usize] = g
                .out_neighbors(v)
                .iter()
                .fold(out[v as usize], |m, &w| m | out[w as usize]);
        }
        ReachMasks { out, in_ }
    }
}

/// Mutable per-vertex label lists used during construction.
///
/// Finish with [`LabelingBuilder::finish`] (lists must already be
/// sorted, e.g. hops appended in rank order) or
/// [`LabelingBuilder::finish_sorting`] (sorts and dedups first). Both
/// compute the reach masks over the first [`TOP_HOPS`] vertices of the
/// order they are given, so the lists must answer every pair a path
/// through those hops does not — complete lists always do.
#[derive(Clone, Debug)]
pub struct LabelingBuilder {
    /// `out[v]` = hops reached from `v`.
    pub out: Vec<Vec<u32>>,
    /// `in_[v]` = hops reaching `v`.
    pub in_: Vec<Vec<u32>>,
}

impl LabelingBuilder {
    /// Empty labels for `n` vertices.
    pub fn new(n: usize) -> Self {
        LabelingBuilder {
            out: vec![Vec::new(); n],
            in_: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Freezes into a [`Labeling`] whose reach masks cover the first
    /// [`TOP_HOPS`] vertices of `order` — vertices of `dag`, the graph
    /// these lists label, most central first — asserting (in debug
    /// builds) that every list is strictly ascending.
    ///
    /// # Panics
    /// Panics if `dag` has a different vertex count than the lists.
    pub fn finish(self, dag: &Dag, order: &[VertexId]) -> Labeling {
        assert_eq!(dag.num_vertices(), self.num_vertices());
        let top = &order[..order.len().min(TOP_HOPS)];
        self.finish_with_masks(ReachMasks::compute(dag, top))
    }

    /// Sorts and dedups every list, then freezes as [`Self::finish`].
    pub fn finish_sorting(mut self, dag: &Dag, order: &[VertexId]) -> Labeling {
        for l in self.out.iter_mut().chain(self.in_.iter_mut()) {
            l.sort_unstable();
            l.dedup();
        }
        self.finish(dag, order)
    }

    /// Freezes with the given reach masks; see the module docs.
    pub(crate) fn finish_with_masks(self, masks: ReachMasks) -> Labeling {
        debug_assert!(self
            .out
            .iter()
            .chain(self.in_.iter())
            .all(|l| l.windows(2).all(|w| w[0] < w[1])));
        let ReachMasks {
            out: out_masks,
            in_: in_masks,
        } = masks;
        assert_eq!(out_masks.len(), self.num_vertices());
        assert_eq!(in_masks.len(), self.num_vertices());
        let (out_offsets, out_hops) = pack(&self.out);
        let (in_offsets, in_hops) = pack(&self.in_);
        Labeling {
            out_offsets: out_offsets.into(),
            out_hops: out_hops.into(),
            in_offsets: in_offsets.into(),
            in_hops: in_hops.into(),
            out_masks: out_masks.into(),
            in_masks: in_masks.into(),
        }
    }
}

/// Packs per-vertex lists into one CSR `(offsets, hops)` pair.
fn pack(lists: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let total: usize = lists.iter().map(Vec::len).sum();
    assert!(
        (total as u64) < u32::MAX as u64,
        "label entries exceed u32 offset space"
    );
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    let mut hops = Vec::with_capacity(total);
    offsets.push(0u32);
    for l in lists {
        hops.extend_from_slice(l);
        offsets.push(hops.len() as u32);
    }
    (offsets, hops)
}

/// Which stage of the label store answered a query — the query-side
/// analogue of [`crate::FilterVerdict`], feeding the `signature`/merge
/// hit counters the `STATS` wire reply and `paper perf` report.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LabelPath {
    /// `u == v`; no label was touched.
    Reflexive,
    /// The O(1) top-hop reach masks decided (either answer). Counted
    /// as `signature` by the tallies and metrics.
    Masked,
    /// The adaptive intersection kernel ran over the two lists.
    Merge,
}

/// Immutable hop labels in CSR form plus the top-hop reach masks: the
/// complete reachability oracle.
///
/// Every array lives in a [`Store`]: owned `Vec`s when built in
/// process, typed windows into one shared arena when opened from a
/// HOPL v4 file (see [`crate::store`]). The accessors below cannot tell
/// the difference.
#[derive(Clone, Debug)]
pub struct Labeling {
    out_offsets: Store<u32>,
    out_hops: Store<u32>,
    in_offsets: Store<u32>,
    in_hops: Store<u32>,
    /// `out_masks[v]` = `F(v)`: bit `i` ⇔ `v` reaches top hop `i`.
    out_masks: Store<u64>,
    /// `in_masks[v]` = `B(v)`: bit `i` ⇔ top hop `i` reaches `v`.
    in_masks: Store<u64>,
}

impl Labeling {
    /// Number of vertices labeled.
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// `L_out(v)`: sorted hop ids `v` reaches.
    #[inline]
    pub fn out_label(&self, v: VertexId) -> &[u32] {
        let lo = self.out_offsets[v as usize] as usize;
        let hi = self.out_offsets[v as usize + 1] as usize;
        &self.out_hops[lo..hi]
    }

    /// `L_in(v)`: sorted hop ids reaching `v`.
    #[inline]
    pub fn in_label(&self, v: VertexId) -> &[u32] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_hops[lo..hi]
    }

    /// `F(v)`: bit `i` set iff `v` reaches top hop `i`.
    #[inline]
    pub fn out_mask(&self, v: VertexId) -> u64 {
        self.out_masks[v as usize]
    }

    /// `B(v)`: bit `i` set iff top hop `i` reaches `v`.
    #[inline]
    pub fn in_mask(&self, v: VertexId) -> u64 {
        self.in_masks[v as usize]
    }

    /// Footprint of the mask arrays in bytes (16 per vertex),
    /// whichever backing they live in.
    pub fn mask_bytes(&self) -> u64 {
        ((self.out_masks.len() + self.in_masks.len()) * std::mem::size_of::<u64>()) as u64
    }

    /// True byte footprint of the label store — CSR offsets, hop
    /// arrays, *and* the mask arrays — split by backing.
    pub fn memory(&self) -> MemorySplit {
        let mut m = MemorySplit::default();
        m.add(MemorySplit::of(&self.out_offsets));
        m.add(MemorySplit::of(&self.out_hops));
        m.add(MemorySplit::of(&self.in_offsets));
        m.add(MemorySplit::of(&self.in_hops));
        m.add(MemorySplit::of(&self.out_masks));
        m.add(MemorySplit::of(&self.in_masks));
        m
    }

    /// [`StoreBackend::Mapped`] iff the arrays live in a shared arena.
    pub fn backend(&self) -> StoreBackend {
        self.out_hops.backend()
    }

    /// The reach-mask stage: `Some(answer)` when the masks decide
    /// `u → v` (`u != v`), `None` when the lists must.
    #[inline(always)]
    pub(crate) fn mask_verdict(&self, u: VertexId, v: VertexId) -> Option<bool> {
        let (fu, bu) = (self.out_masks[u as usize], self.in_masks[u as usize]);
        let (fv, bv) = (self.out_masks[v as usize], self.in_masks[v as usize]);
        if fu & bv != 0 {
            Some(true)
        } else if (bu & !bv) | (fv & !fu) != 0 {
            Some(false)
        } else {
            None
        }
    }

    /// The list stage: does `L_out(u)` share a hop with `L_in(v)`?
    #[inline(always)]
    pub(crate) fn lists_intersect(&self, u: VertexId, v: VertexId) -> bool {
        sorted_intersect_adaptive(self.out_label(u), self.in_label(v))
    }

    /// Hints `L_out(u)`'s and `L_in(v)`'s CSR offsets toward L1, so a
    /// later [`Self::prefetch_lists`] of the same pair finds them.
    #[inline(always)]
    pub(crate) fn prefetch_offsets(&self, u: VertexId, v: VertexId) {
        prefetch_index(&self.out_offsets[..], u as usize);
        prefetch_index(&self.in_offsets[..], v as usize);
    }

    /// Hints the head lines of `L_out(u)` and `L_in(v)` toward L1
    /// (see [`LIST_PREFETCH_LINES`]). Reads the four CSR offsets, so
    /// issue [`Self::prefetch_offsets`] for the pair well before.
    #[inline(always)]
    pub(crate) fn prefetch_lists(&self, u: VertexId, v: VertexId) {
        let (u, v) = (u as usize, v as usize);
        let out = (
            self.out_offsets[u] as usize,
            self.out_offsets[u + 1] as usize,
        );
        let in_ = (self.in_offsets[v] as usize, self.in_offsets[v + 1] as usize);
        prefetch_list(&self.out_hops, out.0, out.1);
        prefetch_list(&self.in_hops, in_.0, in_.1);
    }

    /// The oracle query: `u` reaches `v` iff the masks say so or the
    /// lists intersect. Reflexive: `query(v, v)` is `true`.
    ///
    /// Runs the O(1) reach-mask test first; pairs it leaves open fall
    /// through to the size-adaptive intersection kernel.
    #[inline]
    pub fn query(&self, u: VertexId, v: VertexId) -> bool {
        u == v
            || self
                .mask_verdict(u, v)
                .unwrap_or_else(|| sorted_intersect_adaptive(self.out_label(u), self.in_label(v)))
    }

    /// [`Self::query`] that also reports which stage decided — the
    /// instrumented twin behind the signature/merge counters of
    /// `hoplite-server`'s `STATS` reply and `paper perf`.
    #[inline]
    pub fn query_traced(&self, u: VertexId, v: VertexId) -> (bool, LabelPath) {
        if u == v {
            return (true, LabelPath::Reflexive);
        }
        match self.mask_verdict(u, v) {
            Some(answer) => (answer, LabelPath::Masked),
            None => (
                sorted_intersect_adaptive(self.out_label(u), self.in_label(v)),
                LabelPath::Merge,
            ),
        }
    }

    /// Total label entries `Σ (|L_out(v)| + |L_in(v)|)` — the
    /// paper's index-size metric (Figures 3–4 count integers). The
    /// reach masks are not entries; owners that store answers in them
    /// count their words separately.
    pub fn total_entries(&self) -> u64 {
        (self.out_hops.len() + self.in_hops.len()) as u64
    }

    /// Size in stored integers, including the CSR offset arrays.
    pub fn size_in_integers(&self) -> u64 {
        self.total_entries() + (self.out_offsets.len() + self.in_offsets.len()) as u64
    }

    /// Distribution statistics over label lengths.
    pub fn stats(&self) -> LabelStats {
        LabelStats::from_labeling(self)
    }

    /// Raw CSR parts `(out_offsets, out_hops, in_offsets, in_hops)` —
    /// the persistence layer's view.
    pub(crate) fn csr_parts(&self) -> (&[u32], &[u32], &[u32], &[u32]) {
        (
            &self.out_offsets,
            &self.out_hops,
            &self.in_offsets,
            &self.in_hops,
        )
    }

    /// The mask arrays `(out_masks, in_masks)` — the persistence
    /// layer's view.
    pub(crate) fn mask_parts(&self) -> (&[u64], &[u64]) {
        (&self.out_masks, &self.in_masks)
    }

    /// Assembles a labeling directly from stores — the HOPL v4 arena
    /// path: nothing is copied and nothing is re-derived. The caller
    /// (the arena reader) must have validated that offsets are
    /// monotone; sorted lists and exact masks are the checksummed
    /// arena's writer guarantee.
    pub(crate) fn from_stores_unchecked(
        out_offsets: Store<u32>,
        out_hops: Store<u32>,
        in_offsets: Store<u32>,
        in_hops: Store<u32>,
        out_masks: Store<u64>,
        in_masks: Store<u64>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), in_offsets.len());
        debug_assert_eq!(out_offsets.len(), out_masks.len() + 1);
        debug_assert_eq!(out_masks.len(), in_masks.len());
        Labeling {
            out_offsets,
            out_hops,
            in_offsets,
            in_hops,
            out_masks,
            in_masks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_intersect_cases() {
        assert!(sorted_intersect(&[1, 3, 5], &[2, 3]));
        assert!(!sorted_intersect(&[1, 3, 5], &[2, 4, 6]));
        assert!(!sorted_intersect(&[], &[1]));
        assert!(!sorted_intersect(&[1], &[]));
        assert!(sorted_intersect(&[7], &[7]));
        assert!(sorted_intersect(&[1, 2, 3, 4, 5], &[5]));
        assert!(sorted_intersect(&[5], &[1, 2, 3, 4, 5]));
    }

    #[test]
    fn disjoint_ranges_short_circuit() {
        // Entirely below / entirely above: the O(1) pre-check path.
        assert!(!sorted_intersect(&[1, 2, 3], &[4, 5, 6]));
        assert!(!sorted_intersect(&[4, 5, 6], &[1, 2, 3]));
        // Touching boundaries still intersect.
        assert!(sorted_intersect(&[1, 2, 4], &[4, 9]));
        assert!(sorted_intersect(&[4, 9], &[1, 2, 4]));
    }

    #[test]
    fn adaptive_matches_merge_on_many_shapes() {
        use hoplite_graph::gen::Rng;
        let mut rng = Rng::new(31337);
        for _ in 0..500 {
            let la = rng.gen_index(40);
            let lb = if rng.gen_bool(0.5) {
                rng.gen_index(40)
            } else {
                rng.gen_index(2000) // force the galloping path
            };
            let mut a: Vec<u32> = (0..la).map(|_| rng.gen_range(5000) as u32).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| rng.gen_range(5000) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            assert_eq!(
                sorted_intersect(&a, &b),
                sorted_intersect_adaptive(&a, &b),
                "a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn adaptive_gallops_past_long_prefixes() {
        let small = [9_000u32, 9_500];
        let large: Vec<u32> = (0..10_000).collect();
        assert!(sorted_intersect_adaptive(&small, &large));
        let small = [20_000u32];
        assert!(!sorted_intersect_adaptive(&small, &large));
        assert!(!sorted_intersect_adaptive(&[], &large));
    }

    #[test]
    fn unrolled_merge_matches_reference_on_many_shapes() {
        use hoplite_graph::gen::Rng;
        // Long lists exercise the 8-lane main loop; short ones the
        // scalar tail; mixed lengths the crossover between them.
        let mut rng = Rng::new(0xA11CE);
        for _ in 0..800 {
            let la = rng.gen_index(64);
            let lb = rng.gen_index(64);
            let mut a: Vec<u32> = (0..la).map(|_| rng.gen_range(200) as u32).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| rng.gen_range(200) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let expect = a.iter().any(|x| b.contains(x));
            assert_eq!(sorted_intersect(&a, &b), expect, "a={a:?} b={b:?}");
            assert_eq!(sorted_intersect_adaptive(&a, &b), expect, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn unrolled_merge_hits_at_chunk_boundaries() {
        // Shared element landing at lane 0, mid-chunk, the chunk seam,
        // and the scalar tail.
        let a: Vec<u32> = (0..32).map(|i| i * 2).collect();
        for shared in [0u32, 14, 16, 62] {
            let mut b = vec![1u32, 3, 5, 7, 9, 11, 13, 63, 65, 67, 69, 71, 73, 75, 77];
            b.push(shared);
            b.sort_unstable();
            b.dedup();
            assert!(sorted_intersect(&a, &b), "shared={shared}");
        }
        // Fully disjoint interleave: merge must walk both to the end.
        let evens: Vec<u32> = (0..40).map(|i| i * 2).collect();
        let odds: Vec<u32> = (0..40).map(|i| i * 2 + 1).collect();
        assert!(!sorted_intersect(&evens, &odds));
    }

    fn dag(n: usize, edges: &[(VertexId, VertexId)]) -> Dag {
        Dag::from_edges(n, edges).unwrap()
    }

    #[test]
    fn no_top_hops_leave_every_pair_to_the_lists() {
        let mut b = LabelingBuilder::new(3);
        b.out[0] = vec![0];
        b.in_[1] = vec![63];
        b.out[2] = vec![0, 63];
        let l = b.finish(&dag(3, &[]), &[]);
        assert_eq!(l.mask_bytes(), 6 * 8);
        assert_eq!(l.query_traced(0, 0), (true, LabelPath::Reflexive));
        assert_eq!(l.query_traced(0, 1), (false, LabelPath::Merge));
        assert_eq!(l.query_traced(2, 1), (true, LabelPath::Merge));
    }

    /// A 4-path `0 → 1 → 2 → 3` whose only top hop (bit 0) is vertex
    /// 1: the masks decide every pair that 1's cones separate, and the
    /// lists hold only the answers the masks cannot give.
    #[test]
    fn masks_decide_before_the_lists() {
        let path = dag(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut b = LabelingBuilder::new(4);
        b.out[2] = vec![64];
        b.in_[2] = vec![64];
        b.in_[3] = vec![64];
        let l = b.finish(&path, &[1]);
        // F: 0 and 1 reach hop 1; B: 1, 2 and 3 are reached from it.
        assert_eq!(
            (0..4).map(|v| l.out_mask(v)).collect::<Vec<_>>(),
            [1, 1, 0, 0]
        );
        assert_eq!(
            (0..4).map(|v| l.in_mask(v)).collect::<Vec<_>>(),
            [0, 1, 1, 1]
        );
        assert_eq!(l.query_traced(0, 3), (true, LabelPath::Masked));
        assert_eq!(l.query_traced(1, 2), (true, LabelPath::Masked));
        // Hop 1 reaches 3 but not 0, and 2 but not 1's ancestors.
        assert_eq!(l.query_traced(3, 0), (false, LabelPath::Masked));
        assert_eq!(l.query_traced(2, 0), (false, LabelPath::Masked));
        // Hop 1 reaches both 2 and 3 and neither reaches it: the lists
        // decide.
        assert_eq!(l.query_traced(2, 3), (true, LabelPath::Merge));
        assert_eq!(l.query_traced(3, 2), (false, LabelPath::Merge));
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(l.query_traced(u, v).0, l.query(u, v));
                assert_eq!(l.query(u, v), u <= v, "({u}, {v})");
            }
        }
    }

    /// Masks over *any* top-hop set are exact beside complete lists:
    /// every choice of top hops on a small random DAG leaves every
    /// answer equal to BFS, and some choice lets the masks decide.
    #[test]
    fn masks_over_any_top_set_keep_complete_lists_exact() {
        use hoplite_graph::{gen, traversal};
        let g = gen::random_dag(40, 100, 17);
        let mut full = LabelingBuilder::new(40);
        for v in 0..40 {
            // Complete, redundant lists: every vertex lists its whole
            // forward and backward cone.
            for w in 0..40 {
                if traversal::reaches(g.graph(), v, w) {
                    full.out[v as usize].push(w);
                    full.in_[w as usize].push(v);
                }
            }
        }
        let mut masked = 0;
        for top in [vec![], vec![0], vec![39, 7, 3], (0..40).rev().collect()] {
            let l = full.clone().finish(&g, &top);
            traversal::assert_matches_bfs(g.graph(), &format!("top {top:?}"), |u, v| l.query(u, v));
            masked += (0..40)
                .flat_map(|u| (0..40).map(move |v| (u, v)))
                .filter(|&(u, v)| l.query_traced(u, v).1 == LabelPath::Masked)
                .count();
        }
        assert!(masked > 0);
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = LabelingBuilder::new(3);
        b.out[0] = vec![0, 2];
        b.in_[2] = vec![0, 1];
        b.out[1] = vec![1];
        b.in_[1] = vec![1];
        let l = b.finish(&dag(3, &[(0, 2), (1, 2)]), &[]);
        assert_eq!(l.out_label(0), &[0, 2]);
        assert_eq!(l.in_label(2), &[0, 1]);
        assert_eq!(l.out_label(2), &[] as &[u32]);
        assert!(l.query(0, 2), "hop 0 is shared");
        assert!(!l.query(1, 0));
        assert!(l.query(1, 1), "reflexive");
        assert_eq!(l.total_entries(), 6);
    }

    #[test]
    fn finish_sorting_sorts_and_dedups() {
        let mut b = LabelingBuilder::new(2);
        b.out[0] = vec![5, 1, 5, 3];
        b.in_[1] = vec![3, 3];
        let l = b.finish_sorting(&dag(2, &[(0, 1)]), &[]);
        assert_eq!(l.out_label(0), &[1, 3, 5]);
        assert_eq!(l.in_label(1), &[3]);
        assert!(l.query(0, 1));
    }

    #[test]
    fn size_metrics() {
        let mut b = LabelingBuilder::new(2);
        b.out[0] = vec![1];
        b.in_[1] = vec![1];
        let l = b.finish(&dag(2, &[(0, 1)]), &[]);
        assert_eq!(l.total_entries(), 2);
        // 2 entries + two offset arrays of len 3 each.
        assert_eq!(l.size_in_integers(), 2 + 6);
    }

    #[test]
    fn empty_labeling() {
        let l = LabelingBuilder::new(0).finish(&dag(0, &[]), &[]);
        assert_eq!(l.num_vertices(), 0);
        assert_eq!(l.total_entries(), 0);
    }
}
