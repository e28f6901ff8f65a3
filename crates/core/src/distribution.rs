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
//! `L_out(u) ∩ L_in(v_i)` on **every** BFS pop. Two observations make
//! the build much faster without changing a single emitted label:
//!
//! 1. **Rank-bitmap pruning.** Within one hop's BFS the right-hand side
//!    of every pruning test is the *same* list (`L_in(v_i)` for the
//!    reverse side, `L_out(v_i)` for the forward side). Snapshotting it
//!    once per hop into an epoch-stamped, rank-indexed membership array
//!    turns each test into `O(|L_out(u)|)` probes with O(1) lookups —
//!    and the epoch stamp makes the per-hop reset O(1) instead of O(n).
//! 2. **N-thread chunked hop distribution** ([`Parallelism`]). Each
//!    hop's BFSs run *level-synchronously*: a frontier is scanned, the
//!    survivors get rank `r` appended, and their unvisited neighbors
//!    form the next frontier. Within one level every frontier entry is
//!    independent (the prune test reads only that vertex's own list
//!    plus the per-hop snapshot), so large frontiers are split into
//!    vertex-range chunks pulled from a shared atomic cursor by a
//!    `std::thread`-scoped worker pool, with a barrier at each level.
//!    The set of vertices a hop labels is order-independent (each
//!    vertex is claimed and tested exactly once, against state fixed at
//!    hop start), so every thread count emits labels *byte-identical*
//!    to the paper-literal per-pop sorted merge minus its rank <
//!    [`TOP_HOPS`] entries — enforced by tests across {1, 2, 3, 4, 8}
//!    threads against a test-only transcription of that loop.
//!
//! Levels too small to be worth waking the pool — every level at
//! width 1, and most levels of the heavily pruned low-rank hops at any
//! width — are scanned by the coordinating thread alone, with plain
//! (non-RMW) visited claims and no chunk cursor, so a one-thread build
//! pays nothing for the pool it does not use.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use hoplite_graph::{Dag, DiGraph, VertexId};

use crate::label::{Labeling, LabelingBuilder, ReachMasks, TOP_HOPS};
use crate::metrics::BuildTrace;
use crate::oracle::ReachIndex;
use crate::order::OrderKind;
use crate::store::Store;

/// Below this vertex count [`Parallelism::Auto`] uses one thread: the
/// per-hop coordination costs more than tiny BFSs save.
const PARALLEL_MIN_VERTICES: usize = 2_048;

/// Frontier entries per chunk claimed from the shared cursor.
const CHUNK: usize = 256;

/// Frontiers smaller than this are scanned inline by the coordinating
/// thread — waking the pool costs more than the scan itself. Pruned
/// BFS frontiers are tiny for most hops; the pool engages exactly on
/// the early high-rank hops whose frontiers span much of the graph.
const PAR_FRONTIER_MIN: usize = 2 * CHUNK;

/// Cap on [`Parallelism::Auto`]'s pool size: chunk scanning saturates
/// memory bandwidth well before this on every graph we measure.
const MAX_AUTO_THREADS: usize = 8;

/// How many OS threads [`DistributionLabeling::build`] may use. Every
/// width emits byte-identical labels; the policy trades construction
/// time only.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread per available core (capped at [`MAX_AUTO_THREADS`])
    /// when the DAG has at least [`PARALLEL_MIN_VERTICES`] vertices and
    /// the host has ≥ 2 cores; one thread otherwise.
    #[default]
    Auto,
    /// Exactly this many threads (clamped to ≥ 1; `Threads(1)` builds
    /// on the calling thread alone).
    Threads(usize),
}

impl Parallelism {
    /// The thread count this policy resolves to for an `n`-vertex DAG
    /// on the current host — the number the build engine actually
    /// uses, exposed so reports (`paper perf`) state it without
    /// re-deriving the policy.
    pub fn resolve(self, n: usize) -> usize {
        match self {
            Parallelism::Threads(t) => t.max(1),
            Parallelism::Auto => {
                if n >= PARALLEL_MIN_VERTICES {
                    std::thread::available_parallelism()
                        .map_or(1, |p| p.get().min(MAX_AUTO_THREADS))
                } else {
                    1
                }
            }
        }
    }
}

/// Configuration for [`DistributionLabeling::build`].
#[derive(Clone, Debug, Default)]
pub struct DlConfig {
    /// Vertex processing order (default: the paper's degree product).
    pub order: OrderKind,
    /// Thread policy for the hop-distribution loop.
    pub parallelism: Parallelism,
}

/// Epoch-stamped membership set over hop ranks `0..n`.
///
/// `load` snapshots one sorted rank list in `O(len)`; `intersects`
/// then answers "does this other list share an element?" in
/// `O(len(other))` with O(1) probes. Bumping the epoch invalidates the
/// whole set in O(1), so per-hop reuse never pays a clear.
#[derive(Clone, Debug)]
struct RankSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl RankSet {
    fn new(n: usize) -> Self {
        RankSet {
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// Starts a fresh epoch containing exactly `ranks`.
    fn load(&mut self, ranks: &[u32]) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        for &r in ranks {
            self.stamp[r as usize] = self.epoch;
        }
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
        Self::build_ordered(dag, cfg.order.compute(dag), cfg)
    }

    /// [`Self::build`] with construction-phase span tracing: the order
    /// computation, the hop-distribution loop, and the label freeze
    /// each record a span into `trace`, and every hop (both BFS sides)
    /// records one sample into the trace's per-hop duration histogram,
    /// at every thread count. With `trace = None` this is exactly
    /// [`Self::build`] — the engine takes one dead branch per hop and
    /// records nothing.
    pub fn build_traced(dag: &Dag, cfg: &DlConfig, trace: Option<&BuildTrace>) -> Self {
        let order = match trace {
            Some(t) => t.span("order", || cfg.order.compute(dag)),
            None => cfg.order.compute(dag),
        };
        Self::build_ordered_traced(dag, order, cfg, trace)
    }

    /// Runs Algorithm 2 with an explicit processing order (`order[0]`
    /// is the highest-ranked hop). The order must be a permutation of
    /// the vertices; domain-specific orders can beat the degree
    /// heuristics when the caller knows the graph's hub structure.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn build_with_order(dag: &Dag, order: Vec<VertexId>) -> Self {
        Self::build_ordered(dag, order, &DlConfig::default())
    }

    /// [`Self::build_with_order`] with an explicit thread policy
    /// (`cfg.order` is ignored in favor of `order`).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn build_ordered(dag: &Dag, order: Vec<VertexId>, cfg: &DlConfig) -> Self {
        Self::build_ordered_traced(dag, order, cfg, None)
    }

    /// [`Self::build_ordered`] with optional span tracing (see
    /// [`Self::build_traced`]).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn build_ordered_traced(
        dag: &Dag,
        order: Vec<VertexId>,
        cfg: &DlConfig,
        trace: Option<&BuildTrace>,
    ) -> Self {
        let n = dag.num_vertices();
        assert_eq!(order.len(), n, "order must cover every vertex");
        debug_assert!({
            let mut seen = vec![false; n];
            order.iter().all(|&v| {
                let s = &mut seen[v as usize];
                !std::mem::replace(s, true)
            })
        });
        let threads = cfg.parallelism.resolve(n);
        let engine = || {
            let masks = ReachMasks::compute(dag, &order[..n.min(TOP_HOPS)]);
            let lists = build_chunked(dag, &order, &masks, threads, trace);
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

// ---------------------------------------------------------------------
// The chunked engine
// ---------------------------------------------------------------------
//
// Why chunking a pruned BFS is sound *and* byte-identical: within one
// hop, a visited vertex `u` is popped exactly once (the visited set
// claims it), its prune test reads only `u`'s own label list — which no
// other vertex's processing in this hop can touch — and the fixed
// per-hop snapshot. So the set of vertices that survive (and therefore
// receive rank `r`) is a function of the hop-start state alone, not of
// the processing order. Chunks may interleave arbitrarily across
// threads and levels may gather next-frontiers in any order; the
// emitted labels cannot differ.
//
// The mask probe is sound for the same reason: it reads `u`'s own mask
// and the hop's, both fixed before distribution starts.
//
// Snapshot timing: both snapshots are taken at hop start, *before* the
// reverse BFS runs. The paper's loop intersects with `L_out(v_i)` after
// its reverse BFS (which may have appended `r` to it), but the forward
// prune test compares against `L_in(w)` lists that cannot contain `r`
// before their own append — so the timing difference is unobservable.

/// Which side of a hop a level belongs to.
#[derive(Copy, Clone)]
enum Side {
    /// BFS over in-neighbors, appending to `L_out`.
    Reverse,
    /// BFS over out-neighbors, appending to `L_in`.
    Forward,
}

/// Epoch-stamped visited set with thread-safe claiming. The epoch is
/// bumped by the coordinator between levels/sides (never concurrently
/// with claims), so `Relaxed` loads of it are safe.
struct AtomicVisited {
    stamp: Vec<AtomicU32>,
    epoch: AtomicU32,
}

impl AtomicVisited {
    fn new(n: usize) -> Self {
        AtomicVisited {
            stamp: (0..n).map(|_| AtomicU32::new(0)).collect(),
            epoch: AtomicU32::new(0),
        }
    }

    /// Starts a fresh epoch. Coordinator only, with the pool idle.
    fn next_epoch(&self) {
        let e = self.epoch.load(Ordering::Relaxed);
        if e == u32::MAX {
            for s in &self.stamp {
                s.store(0, Ordering::Relaxed);
            }
            self.epoch.store(1, Ordering::Relaxed);
        } else {
            self.epoch.store(e + 1, Ordering::Relaxed);
        }
    }

    /// `true` iff this call claimed `v` for the current epoch. With
    /// `PARKED` the caller is the coordinator with the pool parked —
    /// the only thread touching the stamps — so a plain load + store
    /// suffices; otherwise the swap makes exactly one of the
    /// concurrent claimers win. The job/done mutex handoffs order the
    /// two modes' accesses.
    #[inline]
    fn claim<const PARKED: bool>(&self, v: VertexId) -> bool {
        let e = self.epoch.load(Ordering::Relaxed);
        let stamp = &self.stamp[v as usize];
        if PARKED {
            if stamp.load(Ordering::Relaxed) == e {
                return false;
            }
            stamp.store(e, Ordering::Relaxed);
            true
        } else {
            stamp.swap(e, Ordering::Relaxed) != e
        }
    }
}

/// A label side (`&mut [Vec<u32>]`) shared across chunk workers.
///
/// Safety contract: a level's frontier contains each vertex at most
/// once ([`AtomicVisited::claim`]) and chunks partition the frontier,
/// so no two threads ever hold the same cell; the coordinator touches
/// cells outside a level scan only while the pool is parked
/// (established by the job/done mutex handoffs).
struct SharedLists {
    ptr: *mut Vec<u32>,
    len: usize,
}

// SAFETY: the pointer targets a `Vec<Vec<u32>>` that outlives the
// scoped pool, and the struct docs' contract keeps every cell
// exclusive to one thread at a time.
unsafe impl Send for SharedLists {}
unsafe impl Sync for SharedLists {}

impl SharedLists {
    fn new(lists: &mut [Vec<u32>]) -> Self {
        SharedLists {
            ptr: lists.as_mut_ptr(),
            len: lists.len(),
        }
    }

    /// # Safety
    /// No other live reference to cell `v` may exist (see the struct
    /// docs for how the engine guarantees that).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn cell(&self, v: VertexId) -> &mut Vec<u32> {
        debug_assert!((v as usize) < self.len);
        &mut *self.ptr.add(v as usize)
    }
}

/// [`RankSet`] behind an `UnsafeCell` so the coordinator can reload it
/// between hops while workers hold shared references during levels.
struct SyncRankSet(UnsafeCell<RankSet>);

// SAFETY: reloaded only by the coordinator while the pool is parked;
// workers only read it during a level.
unsafe impl Sync for SyncRankSet {}

/// One level's worth of parallel work: scan `frontier`, append rank
/// `r` to survivors on `side`. `word` is the hop's own reach mask on
/// that side (`B(h)` reverse, `F(h)` forward). The frontier buffer
/// lives on the coordinator's stack and is stable for the job's
/// lifetime.
#[derive(Copy, Clone)]
struct LevelJob {
    side: Side,
    r: u32,
    word: u64,
    frontier: *const VertexId,
    frontier_len: usize,
}

// SAFETY: the coordinator keeps the frontier buffer alive and
// untouched until every worker has reported the job done.
unsafe impl Send for LevelJob {}

/// Latest published job plus the lifecycle flags workers watch.
struct JobSlot {
    /// Bumped on every publication; workers compare-and-sleep on it.
    seq: u64,
    /// Terminates the pool.
    stop: bool,
    job: Option<LevelJob>,
}

/// Everything the coordinator and the pool share: the graph, the
/// reach masks, both label sides, both per-hop snapshots, the visited
/// set, job dispatch, the chunk cursor, the gathered next frontier,
/// and completion tracking.
struct Engine<'g> {
    g: &'g DiGraph,
    masks: &'g ReachMasks,
    out: SharedLists,
    in_: SharedLists,
    members_rev: SyncRankSet,
    members_fwd: SyncRankSet,
    visited: AtomicVisited,
    job: Mutex<JobSlot>,
    job_cv: Condvar,
    done: Mutex<usize>,
    done_cv: Condvar,
    cursor: AtomicUsize,
    next: Mutex<Vec<VertexId>>,
}

/// Rank-bitmap engine: level-synchronous BFS from every hop of rank ≥
/// [`TOP_HOPS`], where large frontiers are split into [`CHUNK`]-sized
/// ranges pulled from a shared atomic cursor by `threads − 1`
/// long-lived scoped workers (plus the coordinator itself). Small
/// frontiers — the common case on pruned hops, and every frontier at
/// `threads == 1` — are scanned inline without waking the pool. With a
/// trace, each distributed hop (both BFS sides) lands in the trace's
/// per-hop histogram.
fn build_chunked(
    dag: &Dag,
    order: &[VertexId],
    masks: &ReachMasks,
    threads: usize,
    trace: Option<&BuildTrace>,
) -> LabelingBuilder {
    let n = dag.num_vertices();
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut in_: Vec<Vec<u32>> = vec![Vec::new(); n];
    let workers = threads.saturating_sub(1);
    {
        let engine = Engine {
            g: dag.graph(),
            masks,
            out: SharedLists::new(&mut out),
            in_: SharedLists::new(&mut in_),
            members_rev: SyncRankSet(UnsafeCell::new(RankSet::new(n))),
            members_fwd: SyncRankSet(UnsafeCell::new(RankSet::new(n))),
            visited: AtomicVisited::new(n),
            job: Mutex::new(JobSlot {
                seq: 0,
                stop: false,
                job: None,
            }),
            job_cv: Condvar::new(),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            next: Mutex::new(Vec::new()),
        };
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| engine.worker_loop());
            }
            engine.run_hops(order, workers, trace);
            engine.job.lock().expect("job lock").stop = true;
            engine.job_cv.notify_all();
        });
    }
    LabelingBuilder { out, in_ }
}

impl Engine<'_> {
    /// The coordinator body of [`build_chunked`]: the per-hop loop.
    fn run_hops(&self, order: &[VertexId], workers: usize, trace: Option<&BuildTrace>) {
        let mut frontier: Vec<VertexId> = Vec::new();
        let mut next: Vec<VertexId> = Vec::new();
        for (rank, &vi) in order.iter().enumerate().skip(TOP_HOPS) {
            let hop_started = trace.map(|_| std::time::Instant::now());
            let r = rank as u32;
            // Hop-start snapshots for both sides (see the timing note
            // above). SAFETY: the pool is parked between levels, so no
            // worker holds a snapshot or a label cell.
            unsafe {
                (*self.members_rev.0.get()).load(self.in_.cell(vi));
                (*self.members_fwd.0.get()).load(self.out.cell(vi));
            }
            for side in [Side::Reverse, Side::Forward] {
                let word = match side {
                    Side::Reverse => self.masks.in_[vi as usize],
                    Side::Forward => self.masks.out[vi as usize],
                };
                self.visited.next_epoch();
                let claimed = self.visited.claim::<true>(vi);
                debug_assert!(claimed, "fresh epoch cannot have claimed vi");
                frontier.clear();
                frontier.push(vi);
                while !frontier.is_empty() {
                    next.clear();
                    if workers == 0 || frontier.len() < PAR_FRONTIER_MIN {
                        self.scan::<true>(side, r, word, &frontier, &mut next);
                    } else {
                        let job = LevelJob {
                            side,
                            r,
                            word,
                            frontier: frontier.as_ptr(),
                            frontier_len: frontier.len(),
                        };
                        self.run_level_parallel(&job, workers, &mut next);
                    }
                    std::mem::swap(&mut frontier, &mut next);
                }
            }
            if let (Some(t), Some(started)) = (trace, hop_started) {
                t.record_hop(started.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Scans one slice of a level's frontier on `side`: prune-test each
    /// vertex against the hop's mask `word` and the hop-start snapshot,
    /// append `r` to survivors, claim-and-collect their unvisited
    /// neighbors into `discovered`. `PARKED` selects the claim mode
    /// ([`AtomicVisited::claim`]).
    #[inline]
    fn scan<const PARKED: bool>(
        &self,
        side: Side,
        r: u32,
        word: u64,
        frontier: &[VertexId],
        discovered: &mut Vec<VertexId>,
    ) {
        let g = self.g;
        // SAFETY (snapshots): reloaded only while the pool is parked.
        // Reverse: `u` reaches the hop through a top hop iff
        // `F(u) & B(h) ≠ 0`; forward: `F(h) & B(w) ≠ 0`.
        match side {
            Side::Reverse => self.scan_side::<PARKED>(
                frontier,
                r,
                &self.masks.out,
                word,
                &self.out,
                unsafe { &*self.members_rev.0.get() },
                |u| g.in_neighbors(u),
                discovered,
            ),
            Side::Forward => self.scan_side::<PARKED>(
                frontier,
                r,
                &self.masks.in_,
                word,
                &self.in_,
                unsafe { &*self.members_fwd.0.get() },
                |w| g.out_neighbors(w),
                discovered,
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn scan_side<'a, const PARKED: bool>(
        &self,
        frontier: &[VertexId],
        r: u32,
        masks: &[u64],
        word: u64,
        lists: &SharedLists,
        members: &RankSet,
        neighbors: impl Fn(VertexId) -> &'a [VertexId],
        discovered: &mut Vec<VertexId>,
    ) {
        for &u in frontier {
            // A zero hop word (no top hop on this side of the hop, the
            // common case on sparse graphs) skips the mask load.
            if word != 0 && masks[u as usize] & word != 0 {
                continue;
            }
            // SAFETY: `u` appears exactly once in this level's frontier
            // and the chunks partition it.
            let list = unsafe { lists.cell(u) };
            if members.intersects(list) {
                continue;
            }
            list.push(r);
            for &w in neighbors(u) {
                if self.visited.claim::<PARKED>(w) {
                    discovered.push(w);
                }
            }
        }
    }

    /// Claims chunks from the shared cursor until the frontier is
    /// exhausted, collecting discovered vertices into `local`.
    fn drain_chunks(&self, job: &LevelJob, local: &mut Vec<VertexId>) {
        // SAFETY: the coordinator keeps the frontier buffer alive and
        // untouched until every participant reported done.
        let frontier = unsafe { std::slice::from_raw_parts(job.frontier, job.frontier_len) };
        loop {
            let start = self.cursor.fetch_add(CHUNK, Ordering::Relaxed);
            if start >= frontier.len() {
                return;
            }
            let chunk = &frontier[start..(start + CHUNK).min(frontier.len())];
            self.scan::<false>(job.side, job.r, job.word, chunk, local);
        }
    }

    /// A pool worker: sleep until a new job (or stop) is published,
    /// drain chunks, hand discovered vertices to the shared next
    /// frontier, report done.
    fn worker_loop(&self) {
        let mut last_seen = 0u64;
        let mut local: Vec<VertexId> = Vec::new();
        loop {
            let job = {
                let mut slot = self.job.lock().expect("job lock");
                loop {
                    if slot.stop {
                        return;
                    }
                    if slot.seq != last_seen {
                        break;
                    }
                    slot = self.job_cv.wait(slot).expect("job wait");
                }
                last_seen = slot.seq;
                slot.job.expect("seq bumped with a job published")
            };
            self.drain_chunks(&job, &mut local);
            if !local.is_empty() {
                self.next.lock().expect("next lock").append(&mut local);
            }
            *self.done.lock().expect("done lock") += 1;
            // Only the coordinator waits on this; notify_one suffices.
            self.done_cv.notify_one();
        }
    }

    /// Fans one big level out over the pool: publish the job,
    /// participate in the chunk scan, wait for every worker (the level
    /// barrier), gather the next frontier.
    fn run_level_parallel(&self, job: &LevelJob, workers: usize, next: &mut Vec<VertexId>) {
        self.cursor.store(0, Ordering::Relaxed);
        *self.done.lock().expect("done lock") = 0;
        {
            let mut slot = self.job.lock().expect("job lock");
            slot.seq += 1;
            slot.job = Some(*job);
        }
        self.job_cv.notify_all();
        self.drain_chunks(job, next);
        let mut done = self.done.lock().expect("done lock");
        while *done < workers {
            done = self.done_cv.wait(done).expect("done wait");
        }
        drop(done);
        next.append(&mut self.next.lock().expect("next lock"));
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
                let dl = assert_matches_reference(&dag, order, 2, &what);
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
    /// exactly these lists minus their rank < [`TOP_HOPS`] entries at
    /// every width, and [`DistributionLabeling::full_labels`] exactly
    /// these lists.
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

    /// Builds with `kind` at `threads` and asserts the order, every
    /// stored list (the reference's with ranks < [`TOP_HOPS`] removed)
    /// and every full label list are byte-identical to
    /// [`sorted_merge_reference`].
    fn assert_matches_reference(
        dag: &Dag,
        kind: OrderKind,
        threads: usize,
        what: &str,
    ) -> DistributionLabeling {
        let order = kind.compute(dag);
        let reference = sorted_merge_reference(dag, &order);
        let dl = DistributionLabeling::build(
            dag,
            &DlConfig {
                order: kind,
                parallelism: Parallelism::Threads(threads),
            },
        );
        assert_eq!(dl.order(), &order[..], "{what}, t={threads}");
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
                "{what}, t={threads}, L_out({v})"
            );
            assert_eq!(
                dl.labeling().in_label(v),
                trimmed(want_in),
                "{what}, t={threads}, L_in({v})"
            );
            assert_eq!(
                &full.out[v as usize], want_out,
                "{what}, t={threads}, full L_out({v})"
            );
            assert_eq!(
                &full.in_[v as usize], want_in,
                "{what}, t={threads}, full L_in({v})"
            );
        }
        dl
    }

    /// [`TOP_HOPS`] stars of 25 + 25 private leaves (degree product
    /// 676) ahead of a 600-wide fan `w → mids → s` (product 601): the
    /// first distributed hops have levels wide enough
    /// (≥ PAR_FRONTIER_MIN) to wake the pool.
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

    /// The identity matrix: widths {1, 2, 3, 4, 8} emit the reference's
    /// labels byte for byte, on the random, power-law and tree families,
    /// on graphs both larger and smaller than the chunk size
    /// (CHUNK = 256 frontier entries), and every answer matches BFS.
    #[test]
    fn chunked_engine_byte_identical_across_thread_matrix() {
        let mut graphs = vec![
            (wide_fan_behind_top_hops(), "wide fan behind the top hops"),
            (gen::random_dag(600, 2_400, 5), "random 600"),
            (gen::power_law_dag(300, 900, 7), "power-law 300"),
            (gen::tree_plus_dag(500, 60, 8), "tree 500"),
        ];
        for seed in 0..4 {
            graphs.push((gen::random_dag(80, 240, seed), "random 80 (sub-chunk)"));
            graphs.push((gen::power_law_dag(80, 240, seed), "power-law 80"));
            graphs.push((gen::tree_plus_dag(80, 20, seed), "tree 80"));
        }
        for (dag, what) in &graphs {
            for threads in [1usize, 2, 3, 4, 8] {
                let dl = assert_matches_reference(dag, OrderKind::DegProduct, threads, what);
                let what = format!("{what}, t={threads}");
                traversal::assert_matches_bfs(dag.graph(), &what, |u, v| dl.query(u, v));
            }
        }
    }

    /// The engine must also hold on degenerate shapes where one side's
    /// BFS is empty or the whole graph is edge-free — all far smaller
    /// than one chunk.
    #[test]
    fn chunked_engine_handles_degenerate_graphs() {
        for dag in [
            Dag::from_edges(0, &[]).unwrap(),
            Dag::from_edges(1, &[]).unwrap(),
            Dag::from_edges(5, &[]).unwrap(),
            Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
        ] {
            for threads in [1usize, 2, 8] {
                let dl =
                    assert_matches_reference(&dag, OrderKind::DegProduct, threads, "degenerate");
                let what = format!("degenerate n={}, t={threads}", dag.num_vertices());
                traversal::assert_matches_bfs(dag.graph(), &what, |u, v| dl.query(u, v));
            }
        }
    }

    /// Tracing must be an observer: a traced build emits exactly the
    /// labels of the untraced one, records the expected spans, and
    /// records one per-hop sample per distributed hop (every vertex
    /// past the top hops) at every width.
    #[test]
    fn traced_build_is_label_identical_and_records_spans() {
        use crate::metrics::BuildTrace;
        let dag = gen::random_dag(120, 360, 9);
        let plain = DistributionLabeling::build(&dag, &DlConfig::default());
        for threads in [1usize, 4] {
            let trace = BuildTrace::new();
            let cfg = DlConfig {
                parallelism: Parallelism::Threads(threads),
                ..DlConfig::default()
            };
            let traced = DistributionLabeling::build_traced(&dag, &cfg, Some(&trace));
            assert_eq!(traced.order(), plain.order());
            for v in 0..dag.num_vertices() as VertexId {
                assert_eq!(
                    traced.labeling().out_label(v),
                    plain.labeling().out_label(v)
                );
                assert_eq!(traced.labeling().in_label(v), plain.labeling().in_label(v));
            }
            let names: Vec<String> = trace.spans().iter().map(|s| s.name.clone()).collect();
            assert_eq!(names, ["order", "distribute", "freeze"], "t={threads}");
            assert_eq!(
                trace.hop_snapshot().count(),
                (dag.num_vertices() - TOP_HOPS) as u64,
                "t={threads}"
            );
        }
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
