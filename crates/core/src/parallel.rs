//! The batch query kernel, and its fan-out over threads.
//!
//! A built oracle is immutable, so concurrent readers need no
//! synchronization at all: [`Labeling`] is `Sync`. Every batch query
//! runs one kernel, [`par_query_batch_into`], which writes answers into
//! a caller-owned `&mut [bool]` and tallies where each query was
//! decided ([`QueryTally`]). It splits the batch into one
//! equal chunk per scoped OS thread (`std::thread::scope`, keeping the
//! runtime crates dependency-free); chunks of equal count balance well
//! without work stealing.
//!
//! ### Two stages per block
//!
//! Each worker walks its chunk in blocks of `BLOCK_PAIRS` (1,024)
//! pairs, and each block in two passes:
//!
//! 1. **Decide.** The O(1) stages run on every pair: the pre-filter
//!    stack ([`QueryFilters`]), the `comp_of` mapping, and the top-hop
//!    reach masks (see [`crate::label`]). Filter records (or,
//!    unfiltered, `comp_of` entries) are prefetched 12 pairs ahead, and
//!    so are the two mask records when the masks cover more than 64
//!    hops.
//!    Decided answers go straight to the output. Each pair left open
//!    is queued as `(index, cu, cv)`, and its two CSR offsets are
//!    prefetched.
//! 2. **Merge.** The queue runs the size-adaptive list intersection
//!    ([`crate::sorted_intersect_adaptive`]), prefetching the head
//!    lines of `L_out(cu')` and `L_in(cv')` 8 merges ahead.
//!
//! The split exists for the second prefetch. On graphs whose labels
//! outgrow the cache, a merge spends more than half its time waiting
//! for its two lists. A one-pass loop learns that a pair needs the
//! lists only when it reaches that pair, too late to fetch them ahead;
//! the queue knows the next merges in advance (group prefetching, Chen,
//! Ailamaki, Gibbons & Mowry, ICDE 2004). The queue holds at most one
//! block, so the kernel's scratch does not grow with the batch.
//!
//! This serves the serving-side story the paper's introduction
//! motivates (reachability as a high-QPS primitive inside social
//! network / ontology / web services): once Distribution-Labeling has
//! built its small labels, query throughput scales with cores. The
//! scaling stage of `paper perf` measures the curve.
//!
//! ```
//! use hoplite_graph::gen;
//! use hoplite_core::Oracle;
//! use hoplite_core::parallel::par_query_batch_into;
//!
//! let oracle = Oracle::new(&gen::random_digraph(200, 600, 7));
//! let pairs = [(0, 10), (5, 199), (42, 42)];
//! let mut answers = [false; 3];
//! let tally = par_query_batch_into(
//!     oracle.inner().labeling(),
//!     Some(oracle.filters()),
//!     oracle.comp_of(),
//!     &pairs,
//!     &mut answers,
//!     2,
//! );
//! assert!(answers[2], "reflexive");
//! assert_eq!(tally.total(), 3);
//! ```

use hoplite_graph::VertexId;

use crate::filter::QueryFilters;
use crate::label::{prefetch_index, Labeling, TOP_HOPS};

/// Where a workload's queries died, per stage: the O(1) pre-filter
/// stack, the O(1) top-hop reach masks, or the intersection kernel.
/// Accumulated off the hot path (each batch worker counts locally and
/// totals are folded once per chunk), so operators can watch the stage
/// mix without taxing throughput.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryTally {
    /// Decided by the pre-filter stack (including reflexive /
    /// same-component pairs).
    pub filter_decided: u64,
    /// Decided (either answer) by the top-hop reach masks. The name
    /// predates the masks: it is the `signature` stage of every tally,
    /// metric and `STATS` reply.
    pub signature_cut: u64,
    /// Ran the adaptive label-intersection kernel.
    pub merged: u64,
}

impl QueryTally {
    /// Queries accounted for.
    pub fn total(&self) -> u64 {
        self.filter_decided + self.signature_cut + self.merged
    }

    /// Folds another tally in.
    pub fn add(&mut self, other: &QueryTally) {
        self.filter_decided += other.filter_decided;
        self.signature_cut += other.signature_cut;
        self.merged += other.merged;
    }
}

/// Pairs per kernel block: stage 1 decides a block, then stage 2
/// merges what it left open. Large enough that the merge queue runs
/// long past its prefetch distance, small enough that the block's
/// pairs, answers and queue stay in L1/L2.
const BLOCK_PAIRS: usize = 1024;

/// How many pairs ahead stage 1 prefetches filter records (or `comp_of`
/// entries): far enough to cover an L3 miss, close enough that the
/// lines are still resident when their pair comes up.
const PREFETCH_DISTANCE: usize = 12;

/// How many queued merges ahead stage 2 prefetches label lists.
const MERGE_PREFETCH_DISTANCE: usize = 8;

/// The O(1) stages of one query, tallied: the pre-filter stack (when
/// given), the component mapping, the same-component check, and the
/// reach masks. `Ok(answer)` when one of them decides; `Err((cu, cv))`
/// when the lists must, which the caller tallies as a merge.
#[inline(always)]
fn decide(
    labeling: &Labeling,
    filters: Option<&QueryFilters>,
    comp_of: &[VertexId],
    u: VertexId,
    v: VertexId,
    tally: &mut QueryTally,
) -> Result<bool, (VertexId, VertexId)> {
    if let Some(f) = filters {
        // Same-component pairs are decided here (preorder equality
        // inside the level branch).
        if let Some(decided) = f.check(u, v) {
            tally.filter_decided += 1;
            return Ok(decided);
        }
    }
    let (cu, cv) = (comp_of[u as usize], comp_of[v as usize]);
    if cu == cv {
        // Without a filter stack a reflexive pair is still an O(1)
        // pre-label decision; count it with the filter stage.
        tally.filter_decided += 1;
        return Ok(true);
    }
    match labeling.mask_verdict(cu, cv) {
        Some(answer) => {
            tally.signature_cut += 1;
            Ok(answer)
        }
        None => Err((cu, cv)),
    }
}

/// The single-query body behind [`crate::Oracle::reaches_tallied`]:
/// the batch kernel's stages for one pair, with the same answer and
/// the same stage counter bump. `filters` must be indexed in
/// `(u, v)`'s space (see [`par_query_batch_into`]); `comp_of` is only
/// consulted when the filters fall through.
#[inline]
pub(crate) fn answer_tallied(
    labeling: &Labeling,
    filters: Option<&QueryFilters>,
    comp_of: &[VertexId],
    u: VertexId,
    v: VertexId,
    tally: &mut QueryTally,
) -> bool {
    decide(labeling, filters, comp_of, u, v, tally).unwrap_or_else(|(cu, cv)| {
        tally.merged += 1;
        labeling.lists_intersect(cu, cv)
    })
}

/// The kernel's inputs. `Copy`, so each scoped worker takes its own.
#[derive(Clone, Copy)]
struct Kernel<'a> {
    labeling: &'a Labeling,
    filters: Option<&'a QueryFilters>,
    comp_of: &'a [VertexId],
}

/// A pair stage 1 left to the lists: its index in the block and its
/// two component ids.
type Undecided = (u32, VertexId, VertexId);

impl Kernel<'_> {
    /// Answers `pairs` into `out` on up to `threads` workers (clamped
    /// to `1..=pairs.len()`; `0` or `1` runs inline on the caller's
    /// thread) and folds their tallies.
    fn run(self, pairs: &[(VertexId, VertexId)], out: &mut [bool], threads: usize) -> QueryTally {
        assert_eq!(pairs.len(), out.len(), "one answer slot per pair");
        let threads = threads.max(1).min(pairs.len().max(1));
        if threads <= 1 {
            return self.scan(pairs, out);
        }
        let chunk = pairs.len().div_ceil(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = pairs
                .chunks(chunk)
                .zip(out.chunks_mut(chunk))
                .map(|(part, out)| s.spawn(move || self.scan(part, out)))
                .collect();
            let mut tally = QueryTally::default();
            for h in handles {
                tally.add(&h.join().expect("query worker panicked"));
            }
            tally
        })
    }

    /// One worker: the two stages over each block of `part`.
    fn scan(self, part: &[(VertexId, VertexId)], out: &mut [bool]) -> QueryTally {
        let Kernel {
            labeling,
            filters,
            comp_of,
        } = self;
        // Past 64 hops a component's mask record is 32 or 64 bytes, and
        // the records of a large graph outgrow the cache: fetch them
        // ahead too. At 64 hops four records share a line.
        let wide_masks = labeling.mask_hops() > TOP_HOPS;
        let mut tally = QueryTally::default();
        let mut queue: Vec<Undecided> = Vec::with_capacity(part.len().min(BLOCK_PAIRS));
        for (b, out) in out.chunks_mut(BLOCK_PAIRS).enumerate() {
            let start = b * BLOCK_PAIRS;
            // Stage 1: decide in O(1), queue the rest.
            for (i, slot) in out.iter_mut().enumerate() {
                if let Some(&(pu, pv)) = part.get(start + i + PREFETCH_DISTANCE) {
                    self.lookahead(pu, pv, wide_masks);
                }
                let (u, v) = part[start + i];
                match decide(labeling, filters, comp_of, u, v, &mut tally) {
                    Ok(answer) => *slot = answer,
                    Err((cu, cv)) => {
                        labeling.prefetch_offsets(cu, cv);
                        queue.push((i as u32, cu, cv));
                    }
                }
            }
            // Stage 2: merge the queue, its lists prefetched ahead.
            for &(_, cu, cv) in queue.iter().take(MERGE_PREFETCH_DISTANCE) {
                labeling.prefetch_lists(cu, cv);
            }
            for (k, &(i, cu, cv)) in queue.iter().enumerate() {
                if let Some(&(_, pu, pv)) = queue.get(k + MERGE_PREFETCH_DISTANCE) {
                    labeling.prefetch_lists(pu, pv);
                }
                out[i as usize] = labeling.lists_intersect(cu, cv);
            }
            tally.merged += queue.len() as u64;
            queue.clear();
        }
        tally
    }

    /// Stage 1's lookahead: the first lines a pair will load, and with
    /// `wide_masks` its two mask records.
    #[inline(always)]
    fn lookahead(self, u: VertexId, v: VertexId, wide_masks: bool) {
        match self.filters {
            Some(f) => f.prefetch(u, v),
            None => {
                prefetch_index(self.comp_of, u as usize);
                prefetch_index(self.comp_of, v as usize);
            }
        }
        if wide_masks {
            let (cu, cv) = (self.comp_of[u as usize], self.comp_of[v as usize]);
            self.labeling.prefetch_masks(cu, cv);
        }
    }
}

/// The batch kernel (see the module docs), in *original-graph* vertex
/// space: answers `pairs[i]` into `out[i]` on `threads` workers and
/// reports where the queries were decided.
///
/// `threads` is clamped to `1..=pairs.len()`; passing `0` or `1` runs
/// inline on the caller's thread (no spawn cost for small batches).
///
/// When `filters` is given it must be indexed in the same space as
/// `pairs` (for an oracle over a cyclic graph that means projected
/// through [`QueryFilters::project`]), so the O(1) pre-filter stack
/// runs *before* any component mapping — only queries that fall
/// through pay the `comp_of` lookups, which each worker does inline
/// (no serial prepass, no mapped copy of the batch). `comp_of` may
/// also be the identity when the pairs are already in label space.
/// Answers and tally are identical to answering each pair on its own
/// ([`crate::Oracle::reaches_tallied`]); answers are the same with
/// and without `filters`.
///
/// # Panics
/// Panics if `out` and `pairs` differ in length, or if any vertex id
/// in `pairs` is out of `comp_of`'s range.
pub fn par_query_batch_into(
    labeling: &Labeling,
    filters: Option<&QueryFilters>,
    comp_of: &[VertexId],
    pairs: &[(VertexId, VertexId)],
    out: &mut [bool],
    threads: usize,
) -> QueryTally {
    Kernel {
        labeling,
        filters,
        comp_of,
    }
    .run(pairs, out, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{LabelPath, LabelingBuilder};
    use crate::Oracle;
    use hoplite_graph::{gen, Dag};

    fn random_pairs(n: usize, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut rng = gen::Rng::new(seed);
        (0..count)
            .map(|_| (rng.gen_index(n) as VertexId, rng.gen_index(n) as VertexId))
            .collect()
    }

    /// `labeling.query_traced`, tallied the way the kernel counts its
    /// stages.
    fn traced(labeling: &Labeling, u: VertexId, v: VertexId, tally: &mut QueryTally) -> bool {
        let (answer, path) = labeling.query_traced(u, v);
        match path {
            LabelPath::Reflexive => tally.filter_decided += 1,
            LabelPath::Masked => tally.signature_cut += 1,
            LabelPath::Merge => tally.merged += 1,
        }
        answer
    }

    /// The per-pair reference, built without the kernel's own stage
    /// code: the filter stack when `filtered`, then the labeling's
    /// traced query on the pair's components.
    fn per_pair(
        oracle: &Oracle,
        filtered: bool,
        pairs: &[(VertexId, VertexId)],
    ) -> (Vec<bool>, QueryTally) {
        let (labeling, comp_of) = (oracle.inner().labeling(), oracle.comp_of());
        let mut tally = QueryTally::default();
        let answers = pairs
            .iter()
            .map(|&(u, v)| {
                if let Some(answer) = oracle.filters().check(u, v).filter(|_| filtered) {
                    tally.filter_decided += 1;
                    return answer;
                }
                traced(
                    labeling,
                    comp_of[u as usize],
                    comp_of[v as usize],
                    &mut tally,
                )
            })
            .collect();
        (answers, tally)
    }

    /// Runs the kernel at 0 (inline), 1, 2, 3 and 7 threads into a
    /// buffer holding the wrong answer in every slot, so a slot left
    /// unwritten fails too, and checks answers and tally against
    /// `want`.
    fn assert_kernel(
        labeling: &Labeling,
        filters: Option<&QueryFilters>,
        comp_of: &[VertexId],
        pairs: &[(VertexId, VertexId)],
        want: &(Vec<bool>, QueryTally),
        what: &str,
    ) {
        for threads in [0, 1, 2, 3, 7] {
            let mut out: Vec<bool> = want.0.iter().map(|b| !b).collect();
            let tally = par_query_batch_into(labeling, filters, comp_of, pairs, &mut out, threads);
            assert_eq!(out, want.0, "{what}, {threads} threads");
            assert_eq!(tally, want.1, "{what}, {threads} threads");
        }
    }

    /// The kernel, filtered and unfiltered, against the per-pair
    /// reference and (filtered) `Oracle::reaches_tallied`. Returns the
    /// filtered and the unfiltered tally.
    fn assert_matches_per_pair(
        oracle: &Oracle,
        pairs: &[(VertexId, VertexId)],
        what: &str,
    ) -> [QueryTally; 2] {
        let (labeling, comp_of) = (oracle.inner().labeling(), oracle.comp_of());
        [true, false].map(|filtered| {
            let want = per_pair(oracle, filtered, pairs);
            if filtered {
                let mut tally = QueryTally::default();
                let answers: Vec<bool> = pairs
                    .iter()
                    .map(|&(u, v)| oracle.reaches_tallied(u, v, &mut tally))
                    .collect();
                assert_eq!((answers, tally), want, "{what}: reaches_tallied");
            }
            let filters = filtered.then(|| oracle.filters());
            let what = format!("{what}, filtered={filtered}");
            assert_kernel(labeling, filters, comp_of, pairs, &want, &what);
            want.1
        })
    }

    /// A cyclic graph whose condensation reaches past the top hops, so
    /// every stage decides some pairs.
    fn cyclic_oracle(seed: u64) -> (usize, Oracle) {
        let n = 1000;
        let oracle = Oracle::new(&gen::random_digraph(n, 1400, seed));
        assert!(oracle.label_entries() > 0, "lists past the top hops");
        (n, oracle)
    }

    #[test]
    fn kernel_matches_per_pair_at_block_edges() {
        let (n, oracle) = cyclic_oracle(12);
        for len in [
            0,
            1,
            BLOCK_PAIRS - 1,
            BLOCK_PAIRS,
            BLOCK_PAIRS + 1,
            3 * BLOCK_PAIRS + 7,
        ] {
            let pairs = random_pairs(n, len, len as u64);
            let [filtered, unfiltered] =
                assert_matches_per_pair(&oracle, &pairs, &format!("{len} pairs"));
            assert_eq!(filtered.total(), len as u64);
            if len >= BLOCK_PAIRS {
                assert!(
                    filtered.filter_decided > 0 && filtered.merged > 0,
                    "{filtered:?}"
                );
                assert!(
                    unfiltered.signature_cut > 0 && unfiltered.merged > 0,
                    "{unfiltered:?}"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_per_pair_when_the_filters_decide_every_pair() {
        let (n, oracle) = cyclic_oracle(13);
        let pairs: Vec<_> = random_pairs(n, 20 * BLOCK_PAIRS, 5)
            .into_iter()
            .filter(|&(u, v)| oracle.filters().check(u, v).is_some())
            .take(2 * BLOCK_PAIRS + 3)
            .collect();
        assert_eq!(pairs.len(), 2 * BLOCK_PAIRS + 3);
        let [filtered, _] = assert_matches_per_pair(&oracle, &pairs, "filter-decided");
        assert_eq!(
            filtered,
            QueryTally {
                filter_decided: pairs.len() as u64,
                ..QueryTally::default()
            }
        );
    }

    /// Hand-made lists without top hops, so every pair but the
    /// reflexive ones merges: vertex 0's out-list holds 4,000 hops and
    /// every in-list at most 8, so `(0, v)` gallops, and lists of many
    /// cache lines meet the prefetch's line cap.
    #[test]
    fn kernel_matches_per_pair_on_galloping_lists() {
        let n = 300;
        let mut rng = gen::Rng::new(8);
        let mut sorted = |len: usize| {
            let mut l: Vec<u32> = (0..len).map(|_| rng.gen_range(12_000) as u32).collect();
            l.sort_unstable();
            l.dedup();
            l
        };
        let mut b = LabelingBuilder::new(n);
        b.out[0] = (0..4_000).map(|h| h * 3).collect();
        for v in 1..n {
            b.out[v] = sorted(v % 40);
            b.in_[v] = sorted(v % 9);
        }
        let labeling = b.finish(&Dag::from_edges(n, &[]).unwrap(), &[]);
        let identity: Vec<VertexId> = (0..n as VertexId).collect();
        let mut pairs: Vec<_> = (0..n as VertexId).map(|v| (0, v)).collect();
        pairs.extend(random_pairs(n, 2 * BLOCK_PAIRS, 9));
        let galloping: Vec<bool> = (1..n as VertexId)
            .filter(|&v| !labeling.in_label(v).is_empty())
            .map(|v| labeling.query(0, v))
            .collect();
        assert!(galloping.contains(&true) && galloping.contains(&false));

        let mut tally = QueryTally::default();
        let answers = pairs
            .iter()
            .map(|&(u, v)| traced(&labeling, u, v, &mut tally))
            .collect();
        let want = (answers, tally);
        assert_eq!(want.1.signature_cut, 0);
        assert_kernel(&labeling, None, &identity, &pairs, &want, "galloping");
    }

    #[test]
    fn kernel_matches_per_pair_on_a_mapped_arena() {
        let (n, built) = cyclic_oracle(14);
        let path = std::env::temp_dir().join(format!(
            "hoplite-kernel-test-{}-{:p}.hopl",
            std::process::id(),
            &built
        ));
        let mut bytes = Vec::new();
        built.save_arena(&mut bytes).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let mapped = Oracle::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        #[cfg(unix)]
        assert_eq!(mapped.backend(), crate::StoreBackend::Mapped);
        let pairs = random_pairs(n, 2 * BLOCK_PAIRS + 5, 3);
        assert_eq!(
            assert_matches_per_pair(&mapped, &pairs, "mapped"),
            assert_matches_per_pair(&built, &pairs, "built")
        );
    }
}
