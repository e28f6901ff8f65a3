//! Parallel batch-query evaluation over a frozen [`Labeling`].
//!
//! A built oracle is immutable, so concurrent readers need no
//! synchronization at all: [`Labeling`] is `Sync`, and the query is two
//! slice lookups plus a merge. This module fans a batch of queries out
//! over scoped OS threads (`std::thread::scope`, keeping the runtime
//! crates dependency-free) with static chunking —
//! every query costs `O(|L_out| + |L_in|)`, so chunks of equal count
//! balance well without work stealing.
//!
//! This serves the serving-side story the paper's introduction
//! motivates (reachability as a high-QPS primitive inside social
//! network / ontology / web services): once Distribution-Labeling has
//! built its small labels, query throughput scales with cores. The
//! scaling stage of `paper perf` measures the curve.
//!
//! ```
//! use hoplite_graph::{gen, Dag};
//! use hoplite_core::{DistributionLabeling, DlConfig};
//! use hoplite_core::parallel::par_query_batch;
//!
//! let dag = gen::random_dag(200, 600, 7);
//! let dl = DistributionLabeling::build(&dag, &DlConfig::default());
//! let pairs = vec![(0, 10), (5, 199), (42, 42)];
//! let answers = par_query_batch(dl.labeling(), &pairs, 2);
//! assert_eq!(answers.len(), pairs.len());
//! assert!(answers[2], "reflexive");
//! ```

use hoplite_graph::VertexId;

use crate::filter::QueryFilters;
use crate::label::{LabelPath, Labeling};

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

/// The instrumented single-query path shared by
/// [`par_query_batch_mapped_tallied`] and
/// [`crate::Oracle::reaches_tallied`]: identical answers to the
/// uninstrumented path, plus one stage counter bump. `filters` must be
/// indexed in `(u, v)`'s space (see [`par_query_batch_mapped`]);
/// `comp_of` is only consulted when the filters fall through.
#[inline]
pub(crate) fn answer_tallied(
    labeling: &Labeling,
    filters: Option<&QueryFilters>,
    comp_of: &[VertexId],
    u: VertexId,
    v: VertexId,
    tally: &mut QueryTally,
) -> bool {
    if let Some(f) = filters {
        if let Some(decided) = f.check(u, v) {
            tally.filter_decided += 1;
            return decided;
        }
    }
    let (cu, cv) = (comp_of[u as usize], comp_of[v as usize]);
    let (answer, path) = labeling.query_traced(cu, cv);
    match path {
        // Without a filter stack a reflexive pair is still an O(1)
        // pre-label decision; count it with the filter stage.
        LabelPath::Reflexive => tally.filter_decided += 1,
        LabelPath::Masked => tally.signature_cut += 1,
        LabelPath::Merge => tally.merged += 1,
    }
    answer
}

/// Answers every `(u, v)` pair in `pairs` using `threads` worker
/// threads, preserving order.
///
/// `threads` is clamped to `1..=pairs.len()`; passing `0` or `1` runs
/// inline on the caller's thread (no spawn cost for small batches).
pub fn par_query_batch(
    labeling: &Labeling,
    pairs: &[(VertexId, VertexId)],
    threads: usize,
) -> Vec<bool> {
    run_chunked(pairs, threads, |u, v| labeling.query(u, v))
}

/// Batch evaluation in *original-graph* vertex space: when `filters`
/// is given it must be indexed in the same space as `pairs` (for an
/// oracle over a cyclic graph that means projected through
/// [`QueryFilters::project`]), so the O(1) pre-filter stack runs
/// *before* any component mapping — only queries that fall through to
/// the label intersection pay the `comp_of` lookups, which each worker
/// does inline (no serial prepass, no mapped copy of the batch). This
/// is [`crate::Oracle::reaches_batch`]'s engine.
///
/// `comp_of` may also be the identity when the pairs are already in
/// label space. Answers are order-preserving and identical with and
/// without `filters`.
///
/// # Panics
/// Panics if any vertex id in `pairs` is out of `comp_of`'s range.
pub fn par_query_batch_mapped(
    labeling: &Labeling,
    filters: Option<&QueryFilters>,
    comp_of: &[VertexId],
    pairs: &[(VertexId, VertexId)],
    threads: usize,
) -> Vec<bool> {
    run_chunked_lookahead(
        pairs,
        threads,
        move |u, v| {
            if let Some(f) = filters {
                // Same-component pairs are decided here (preorder
                // equality inside the level branch), so the fallthrough
                // below only ever maps genuinely undecided pairs.
                if let Some(decided) = f.check(u, v) {
                    return decided;
                }
            }
            let (cu, cv) = (comp_of[u as usize], comp_of[v as usize]);
            labeling.query(cu, cv)
        },
        move |pu, pv| match filters {
            Some(f) => f.prefetch(pu, pv),
            None => {
                prefetch_index(comp_of, pu as usize);
                prefetch_index(comp_of, pv as usize);
            }
        },
    )
}

/// Cache-prefetch hint for `slice[i]`'s line. Purely advisory: no-op
/// off x86_64, never dereferences, out-of-range indices are harmless
/// (address computed without `add`'s in-bounds contract).
#[inline]
fn prefetch_index<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(slice.as_ptr().wrapping_add(i) as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, i);
    }
}

/// How many queries ahead the batch loops issue filter-record
/// prefetches: far enough to cover an L3 miss, close enough that the
/// lines are still resident when their query runs.
const PREFETCH_DISTANCE: usize = 12;

/// [`par_query_batch_mapped`] that also reports *where queries died*
/// (pre-filter, reach masks, merge) as a [`QueryTally`]. Answers are
/// identical; the tally costs each worker three register increments
/// per query plus one fold per chunk. This is the engine behind
/// [`crate::Oracle::reaches_batch_tallied`] and the `hoplite-server`
/// `STATS` counters.
///
/// # Panics
/// Panics if any vertex id in `pairs` is out of `comp_of`'s range.
pub fn par_query_batch_mapped_tallied(
    labeling: &Labeling,
    filters: Option<&QueryFilters>,
    comp_of: &[VertexId],
    pairs: &[(VertexId, VertexId)],
    threads: usize,
) -> (Vec<bool>, QueryTally) {
    let scan = move |part: &[(VertexId, VertexId)], out: &mut [bool]| -> QueryTally {
        let mut local = QueryTally::default();
        for (i, (slot, &(u, v))) in out.iter_mut().zip(part).enumerate() {
            if let Some(&(pu, pv)) = part.get(i + PREFETCH_DISTANCE) {
                match filters {
                    Some(f) => f.prefetch(pu, pv),
                    None => {
                        prefetch_index(comp_of, pu as usize);
                        prefetch_index(comp_of, pv as usize);
                    }
                }
            }
            *slot = answer_tallied(labeling, filters, comp_of, u, v, &mut local);
        }
        local
    };
    let mut answers = vec![false; pairs.len()];
    let threads = effective_threads(threads, pairs.len());
    if threads <= 1 {
        let tally = scan(pairs, &mut answers);
        return (answers, tally);
    }
    let chunk = pairs.len().div_ceil(threads);
    let mut tally = QueryTally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .zip(answers.chunks_mut(chunk))
            .map(|(part, out)| s.spawn(move || scan(part, out)))
            .collect();
        for h in handles {
            tally.add(&h.join().expect("query worker panicked"));
        }
    });
    (answers, tally)
}

/// [`par_query_batch`] that only counts positive answers — the
/// aggregate most workload drivers want, without materializing the
/// answer vector.
pub fn par_count_reachable(
    labeling: &Labeling,
    pairs: &[(VertexId, VertexId)],
    threads: usize,
) -> u64 {
    let threads = effective_threads(threads, pairs.len());
    if threads <= 1 {
        return pairs.iter().filter(|&&(u, v)| labeling.query(u, v)).count() as u64;
    }
    let chunk = pairs.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || part.iter().filter(|&&(u, v)| labeling.query(u, v)).count() as u64)
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query worker panicked"))
            .sum()
    })
}

/// Wall-clock throughput measurement of a query batch at a given
/// thread count.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputReport {
    /// Worker threads actually used.
    pub threads: usize,
    /// Queries answered.
    pub queries: usize,
    /// Positive (reachable) answers.
    pub positive: u64,
    /// Total wall-clock time for the batch.
    pub elapsed: std::time::Duration,
}

impl ThroughputReport {
    /// Queries per second.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Runs the batch at each requested thread count and reports the
/// scaling curve. `examples/parallel_service.rs` prints it.
pub fn measure_scaling(
    labeling: &Labeling,
    pairs: &[(VertexId, VertexId)],
    thread_counts: &[usize],
) -> Vec<ThroughputReport> {
    thread_counts
        .iter()
        .map(|&t| {
            let start = std::time::Instant::now();
            let positive = par_count_reachable(labeling, pairs, t);
            ThroughputReport {
                threads: effective_threads(t, pairs.len()),
                queries: pairs.len(),
                positive,
                elapsed: start.elapsed(),
            }
        })
        .collect()
}

fn effective_threads(requested: usize, work_items: usize) -> usize {
    requested.max(1).min(work_items.max(1))
}

/// The shared fan-out skeleton: evaluates `answer` over every pair on
/// `threads` statically chunked workers, preserving order. `answer`
/// must be `Copy` (capture only shared references) so each scoped
/// worker takes its own copy.
fn run_chunked(
    pairs: &[(VertexId, VertexId)],
    threads: usize,
    answer: impl Fn(VertexId, VertexId) -> bool + Copy + Send,
) -> Vec<bool> {
    run_chunked_lookahead(pairs, threads, answer, |_, _| {})
}

/// [`run_chunked`] with a software-pipelining hook: `lookahead` is
/// called with the pair `PREFETCH_DISTANCE` queries ahead of the one
/// being answered, so its cache lines (filter records, component ids)
/// are already on their way up the hierarchy when their turn comes —
/// the random-access loads are the batch hot path's dominant stall.
fn run_chunked_lookahead(
    pairs: &[(VertexId, VertexId)],
    threads: usize,
    answer: impl Fn(VertexId, VertexId) -> bool + Copy + Send,
    lookahead: impl Fn(VertexId, VertexId) + Copy + Send,
) -> Vec<bool> {
    let mut answers = vec![false; pairs.len()];
    let threads = effective_threads(threads, pairs.len());
    if threads <= 1 {
        scan_pairs(pairs, &mut answers, answer, lookahead);
        return answers;
    }
    let chunk = pairs.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (part, out) in pairs.chunks(chunk).zip(answers.chunks_mut(chunk)) {
            s.spawn(move || scan_pairs(part, out, answer, lookahead));
        }
    });
    answers
}

/// One worker's batch loop; see [`run_chunked_lookahead`].
fn scan_pairs(
    part: &[(VertexId, VertexId)],
    out: &mut [bool],
    answer: impl Fn(VertexId, VertexId) -> bool,
    lookahead: impl Fn(VertexId, VertexId),
) {
    for (i, (slot, &(u, v))) in out.iter_mut().zip(part).enumerate() {
        if let Some(&(pu, pv)) = part.get(i + PREFETCH_DISTANCE) {
            lookahead(pu, pv);
        }
        *slot = answer(u, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistributionLabeling, DlConfig};
    use hoplite_graph::gen;

    fn fixture() -> (Labeling, Vec<(VertexId, VertexId)>) {
        let dag = gen::power_law_dag(300, 900, 21);
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        let mut rng = gen::Rng::new(99);
        let pairs: Vec<_> = (0..1000)
            .map(|_| (rng.gen_range(300) as u32, rng.gen_range(300) as u32))
            .collect();
        (dl.labeling().clone(), pairs)
    }

    #[test]
    fn parallel_matches_sequential_at_every_width() {
        let (labeling, pairs) = fixture();
        let seq = par_query_batch(&labeling, &pairs, 1);
        for threads in [2, 3, 4, 7, 16, 1000] {
            assert_eq!(
                par_query_batch(&labeling, &pairs, threads),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn count_matches_batch_sum() {
        let (labeling, pairs) = fixture();
        let batch = par_query_batch(&labeling, &pairs, 4);
        let expected = batch.iter().filter(|&&b| b).count() as u64;
        for threads in [1, 2, 5, 8] {
            assert_eq!(par_count_reachable(&labeling, &pairs, threads), expected);
        }
    }

    #[test]
    fn zero_threads_and_empty_batches_are_safe() {
        let (labeling, pairs) = fixture();
        assert_eq!(
            par_query_batch(&labeling, &pairs, 0),
            par_query_batch(&labeling, &pairs, 1)
        );
        assert!(par_query_batch(&labeling, &[], 8).is_empty());
        assert_eq!(par_count_reachable(&labeling, &[], 8), 0);
    }

    #[test]
    fn scaling_report_is_consistent() {
        let (labeling, pairs) = fixture();
        let reports = measure_scaling(&labeling, &pairs, &[1, 2, 4]);
        assert_eq!(reports.len(), 3);
        let positives: Vec<u64> = reports.iter().map(|r| r.positive).collect();
        assert!(
            positives.windows(2).all(|w| w[0] == w[1]),
            "same answers at every width"
        );
        for r in &reports {
            assert_eq!(r.queries, pairs.len());
            assert!(r.qps() > 0.0);
        }
        assert_eq!(reports[0].threads, 1);
        assert_eq!(reports[2].threads, 4);
    }

    #[test]
    fn mapped_batch_matches_plain_batch_with_and_without_filters() {
        let dag = gen::power_law_dag(300, 900, 21);
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        let filters = QueryFilters::build(&dag);
        let identity: Vec<VertexId> = (0..300).collect();
        let mut rng = gen::Rng::new(99);
        let pairs: Vec<_> = (0..1000)
            .map(|_| (rng.gen_range(300) as u32, rng.gen_range(300) as u32))
            .collect();
        let expected = par_query_batch(dl.labeling(), &pairs, 1);
        for threads in [1, 2, 7, 64] {
            assert_eq!(
                par_query_batch_mapped(dl.labeling(), None, &identity, &pairs, threads),
                expected,
                "unfiltered, threads={threads}"
            );
            assert_eq!(
                par_query_batch_mapped(dl.labeling(), Some(&filters), &identity, &pairs, threads),
                expected,
                "filtered, threads={threads}"
            );
        }
        assert!(
            par_query_batch_mapped(dl.labeling(), Some(&filters), &identity, &[], 4).is_empty()
        );
    }

    #[test]
    fn tallied_batch_matches_answers_and_accounts_every_query() {
        let dag = gen::power_law_dag(300, 900, 21);
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        let filters = QueryFilters::build(&dag);
        let identity: Vec<VertexId> = (0..300).collect();
        let mut rng = gen::Rng::new(5);
        let pairs: Vec<_> = (0..2000)
            .map(|_| (rng.gen_range(300) as u32, rng.gen_range(300) as u32))
            .collect();
        let expected = par_query_batch(dl.labeling(), &pairs, 1);
        let mut reference: Option<QueryTally> = None;
        for threads in [1, 2, 7] {
            for filters in [None, Some(&filters)] {
                let (answers, tally) = par_query_batch_mapped_tallied(
                    dl.labeling(),
                    filters,
                    &identity,
                    &pairs,
                    threads,
                );
                assert_eq!(answers, expected, "threads={threads}");
                assert_eq!(tally.total(), pairs.len() as u64, "threads={threads}");
                if filters.is_some() {
                    // The tally is deterministic: same workload, same
                    // stage mix at every width.
                    match &reference {
                        None => reference = Some(tally),
                        Some(want) => assert_eq!(&tally, want, "threads={threads}"),
                    }
                }
            }
        }
        let with_filters = reference.expect("filtered runs happened");
        assert!(
            with_filters.filter_decided > 0,
            "filters decided nothing: {with_filters:?}"
        );
    }

    #[test]
    fn more_threads_than_queries_clamps() {
        let (labeling, _) = fixture();
        let pairs = [(0u32, 1u32), (1, 0)];
        let r = measure_scaling(&labeling, &pairs, &[64]);
        assert_eq!(r[0].threads, 2, "clamped to batch size");
    }
}
