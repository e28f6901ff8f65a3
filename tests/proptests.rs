//! Property-based tests over randomized DAGs (proptest).
//!
//! Strategy: an arbitrary edge set over `n ≤ 120` vertices is forced
//! acyclic by orienting every edge from the smaller to the larger id;
//! vertex ids are *not* permuted here, which is fine because the crates
//! under test never assume id order (the correctness matrix in
//! `tests/correctness.rs` covers permuted generators).

use std::ops::RangeInclusive;

use proptest::prelude::*;

use hoplite::baselines::{Grail, IntervalIndex, KReach, PathTree, Pwah8, TfLabel};
use hoplite::core::{
    par_query_batch_into, sorted_intersect, DistributionLabeling, DlConfig, HierarchicalLabeling,
    HlConfig, LabelPath, LabelingBuilder, OrderKind, QueryFilters, QueryTally, ReachIndex,
    TOP_HOPS,
};
use hoplite::graph::{scc, traversal, Dag, DiGraph};

/// Vertex counts past [`TOP_HOPS`]: DL stores label lists only for the
/// ranks after its top hops, so a DL property checked on fewer vertices
/// would exercise the reach masks alone.
const PAST_TOP_HOPS: RangeInclusive<u32> = TOP_HOPS as u32 + 1..=120;

/// An arbitrary DAG with a vertex count in `n_range` and up to `max_m`
/// candidate edges.
fn arb_dag(n_range: RangeInclusive<u32>, max_m: usize) -> impl Strategy<Value = Dag> {
    n_range.prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs
                .into_iter()
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
                .collect();
            Dag::from_edges(n as usize, &edges).expect("forward edges are acyclic")
        })
    })
}

/// An arbitrary digraph (cycles allowed).
fn arb_digraph(max_n: u32, max_m: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |pairs| {
            DiGraph::from_edges(
                n as usize,
                &pairs
                    .into_iter()
                    .filter(|&(a, b)| a != b)
                    .collect::<Vec<_>>(),
            )
            .expect("in range")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The mask-accelerated hot path (`Oracle::reaches`), the
    /// filter-free label path (`Labeling::query` on the components,
    /// masks on), the tallied batch path, the unfiltered batch kernel,
    /// and BFS ground truth all agree on random
    /// *cyclic* digraphs, and every verdict the top-hop reach masks
    /// give (the `signature` stage) is BFS's. Condensations of at most
    /// `TOP_HOPS` components make every vertex a top hop, so there the
    /// masks decide every pair and no query merges.
    #[test]
    fn signature_query_paths_match_bfs_on_cyclic_digraphs(g in arb_digraph(100, 220)) {
        let oracle = hoplite::Oracle::new(&g);
        let comp_of = oracle.comp_of();
        let labeling = oracle.inner().labeling();
        let n = g.num_vertices();
        traversal::assert_matches_bfs(&g, "filtered", |u, v| oracle.reaches(u, v));
        traversal::assert_matches_bfs(&g, "unfiltered", |u, v| {
            labeling.query(comp_of[u as usize], comp_of[v as usize])
        });
        traversal::assert_matches_bfs(&g, "mask-decided", |u, v| {
            match labeling.query_traced(comp_of[u as usize], comp_of[v as usize]) {
                (answer, LabelPath::Masked) => answer,
                _ => traversal::reaches(&g, u, v),
            }
        });
        let pairs: Vec<(u32, u32)> =
            (0..n as u32).flat_map(|u| (0..n as u32).map(move |v| (u, v))).collect();
        let mut answers = vec![false; pairs.len()];
        let tally = oracle.reaches_batch_into(&pairs, &mut answers, 3);
        traversal::assert_matches_bfs(&g, "tallied batch", |u, v| {
            answers[u as usize * n + v as usize]
        });
        let mut unfiltered = vec![false; pairs.len()];
        par_query_batch_into(labeling, None, comp_of, &pairs, &mut unfiltered, 3);
        prop_assert_eq!(&unfiltered, &answers);
        prop_assert_eq!(tally.total(), pairs.len() as u64);
        // The batch kernel decides every pair at the stage the
        // single-query path does.
        let mut per_pair = QueryTally::default();
        for &(u, v) in &pairs {
            oracle.reaches_tallied(u, v, &mut per_pair);
        }
        prop_assert_eq!(tally, per_pair);
        if oracle.num_components() <= TOP_HOPS {
            prop_assert_eq!(tally.merged, 0);
        }
    }

    /// The flagship invariant: both of the paper's oracles agree with
    /// ground truth on every pair of every random DAG.
    #[test]
    fn dl_and_hl_match_ground_truth(dag in arb_dag(PAST_TOP_HOPS, 400)) {
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        prop_assert!(dl.labeling().total_entries() > 0);
        let hl = HierarchicalLabeling::build(&dag, &HlConfig {
            core_size_limit: 6,
            ..HlConfig::default()
        });
        traversal::assert_matches_bfs(dag.graph(), "DL", |u, v| dl.query(u, v));
        traversal::assert_matches_bfs(dag.graph(), "HL", |u, v| hl.query(u, v));
    }

    /// DL with *any* processing order stays complete (Theorem 3 does
    /// not depend on the rank function).
    #[test]
    fn dl_complete_under_random_orders(dag in arb_dag(PAST_TOP_HOPS, 300), seed in 0u64..1000) {
        let dl = DistributionLabeling::build(&dag, &DlConfig {
            order: OrderKind::Random(seed),
            ..DlConfig::default()
        });
        prop_assert!(dl.labeling().total_entries() > 0);
        let what = format!("DL, Random({seed}) order");
        traversal::assert_matches_bfs(dag.graph(), &what, |u, v| dl.query(u, v));
    }

    /// Theorem 4 (non-redundancy) as a property: no single hop of DL's
    /// full labels (top hops restored from the masks) can be dropped
    /// without breaking label-level completeness.
    #[test]
    fn dl_non_redundant(dag in arb_dag(2..=14, 34)) {
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        let n = dag.num_vertices();
        let LabelingBuilder { out, in_ } = dl.full_labels();
        let answers = |out: &[Vec<u32>], in_: &[Vec<u32>]| -> Vec<bool> {
            (0..n)
                .flat_map(|u| (0..n).map(move |v| (u, v)))
                .map(|(u, v)| sorted_intersect(&out[u], &in_[v]))
                .collect()
        };
        let full = answers(&out, &in_);
        traversal::assert_matches_bfs(dag.graph(), "DL labels", |u, v| {
            full[u as usize * n + v as usize]
        });
        // Trimming only loses answers, so a complete labeling stays
        // complete iff it still gives every answer `full` gives.
        let complete = |out: &[Vec<u32>], in_: &[Vec<u32>]| answers(out, in_) == full;
        for v in 0..n {
            for k in 0..out[v].len() {
                let mut t = out.clone();
                t[v].remove(k);
                prop_assert!(!complete(&t, &in_), "redundant out-hop at vertex {}", v);
            }
            for k in 0..in_[v].len() {
                let mut t = in_.clone();
                t[v].remove(k);
                prop_assert!(!complete(&out, &t), "redundant in-hop at vertex {}", v);
            }
        }
    }

    /// Baseline indexes agree with ground truth on random DAGs.
    #[test]
    fn baselines_match_ground_truth(dag in arb_dag(2..=30, 90), seed in 0u64..100) {
        let indexes: Vec<Box<dyn ReachIndex>> = vec![
            Box::new(Grail::build(&dag, 3, seed)),
            Box::new(IntervalIndex::build(&dag, u64::MAX).unwrap()),
            Box::new(PathTree::build(&dag, u64::MAX).unwrap()),
            Box::new(Pwah8::build(&dag, u64::MAX).unwrap()),
            Box::new(KReach::build(&dag, u64::MAX).unwrap()),
            Box::new(TfLabel::build(&dag, 6)),
        ];
        for idx in &indexes {
            let what = format!("{}, seed {seed}", idx.name());
            traversal::assert_matches_bfs(dag.graph(), &what, |u, v| idx.query(u, v));
        }
    }

    /// SCC condensation preserves reachability for arbitrary digraphs:
    /// u reaches v in G iff comp(u) reaches comp(v) in the DAG.
    #[test]
    fn condensation_preserves_reachability(g in arb_digraph(24, 80)) {
        let cond = scc::condense(&g);
        traversal::assert_matches_bfs(&g, "via the condensation", |u, v| {
            let (cu, cv) = (cond.comp_of[u as usize], cond.comp_of[v as usize]);
            cu == cv || traversal::reaches(cond.dag.graph(), cu, cv)
        });
    }

    /// Condensation component ids are topological.
    #[test]
    fn condensation_ids_topological(g in arb_digraph(24, 80)) {
        let cond = scc::condense(&g);
        for (a, b) in cond.dag.graph().edges() {
            prop_assert!(a < b);
        }
        // Sizes add up to n.
        let total: u32 = cond.comp_sizes.iter().sum();
        prop_assert_eq!(total as usize, g.num_vertices());
    }

    /// Label lists produced by DL are strictly increasing (sorted,
    /// duplicate-free) — the invariant the query merge relies on.
    #[test]
    fn dl_labels_sorted(dag in arb_dag(PAST_TOP_HOPS, 300)) {
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        prop_assert!(dl.labeling().total_entries() > 0);
        for v in 0..dag.num_vertices() as u32 {
            let l = dl.labeling();
            prop_assert!(l.out_label(v).windows(2).all(|w| w[0] < w[1]));
            prop_assert!(l.in_label(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// `sorted_intersect` agrees with a set-based intersection oracle.
    #[test]
    fn sorted_intersect_matches_sets(
        mut a in proptest::collection::vec(0u32..64, 0..24),
        mut b in proptest::collection::vec(0u32..64, 0..24),
    ) {
        a.sort_unstable(); a.dedup();
        b.sort_unstable(); b.dedup();
        let sa: std::collections::HashSet<u32> = a.iter().copied().collect();
        let truth = b.iter().any(|x| sa.contains(x));
        prop_assert_eq!(sorted_intersect(&a, &b), truth);
        prop_assert_eq!(
            hoplite::core::label::sorted_intersect_adaptive(&a, &b),
            truth
        );
    }

    /// Graph parsers never panic on arbitrary input — they either
    /// produce a graph or a structured error (failure injection for
    /// the io layer).
    #[test]
    fn io_parsers_never_panic(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
        use std::io::Cursor;
        let _ = hoplite::graph::io::read_edge_list(Cursor::new(&junk));
        let _ = hoplite::graph::io::read_gra(Cursor::new(&junk));
    }

    /// Printable-text fuzz of the edge-list parser: parse errors are
    /// reported with a line number, success round-trips through the
    /// writer.
    #[test]
    fn edge_list_text_fuzz(lines in proptest::collection::vec("[ 0-9a-z#]{0,16}", 0..24)) {
        use std::io::Cursor;
        let text = lines.join("\n");
        if let Ok(g) = hoplite::graph::io::read_edge_list(Cursor::new(text.as_bytes())) {
            let mut buf = Vec::new();
            hoplite::graph::io::write_edge_list(&g, &mut buf).expect("write ok");
            let g2 = hoplite::graph::io::read_edge_list(Cursor::new(&buf)).expect("reparse ok");
            prop_assert_eq!(g, g2);
        }
    }

    /// PWAH-8 compressed OR over an arbitrary fold of bitmaps matches
    /// plain set union.
    #[test]
    fn pwah_fold_matches_union(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u32..400, 0..32), 1..6
        ),
    ) {
        use hoplite::baselines::pwah::PwahVec;
        let mut acc = PwahVec::empty();
        let mut truth = std::collections::BTreeSet::new();
        for s in &sets {
            let positions: Vec<u32> = s.iter().copied().collect();
            acc = PwahVec::or(&acc, &PwahVec::from_sorted_positions(&positions));
            truth.extend(s.iter().copied());
        }
        for p in 0..=400u32 {
            prop_assert_eq!(acc.contains(p), truth.contains(&p), "bit {}", p);
        }
        prop_assert_eq!(acc.count_ones(), truth.len() as u64);
    }

    /// Persisted oracles reopen to BFS-exact answers.
    #[test]
    fn persistence_roundtrip(dag in arb_dag(PAST_TOP_HOPS, 300)) {
        let oracle = hoplite::Oracle::new(dag.graph());
        prop_assert!(oracle.label_entries() > 0);
        let mut buf = Vec::new();
        oracle.save_arena(&mut buf).expect("serialize");
        let reopened = hoplite::Oracle::open_arena_bytes(&buf).expect("open");
        traversal::assert_matches_bfs(dag.graph(), "reopened", |u, v| reopened.reaches(u, v));
    }

    /// Generators are pure functions of `(parameters, seed)` and keep
    /// their structural contracts for arbitrary parameters.
    #[test]
    fn generators_deterministic_and_structured(
        n in 2usize..120,
        m in 0usize..400,
        seed in 0u64..500,
    ) {
        use hoplite::graph::gen;
        let (a, a2) = (gen::random_dag(n, m, seed), gen::random_dag(n, m, seed));
        prop_assert_eq!(a.graph(), a2.graph());
        prop_assert_eq!(a.num_vertices(), n);
        prop_assert!(a.num_edges() <= m);

        let (f, f2) = (gen::forest_dag(n, m, seed), gen::forest_dag(n, m, seed));
        prop_assert_eq!(f.graph(), f2.graph());
        for v in 0..n as u32 {
            prop_assert!(f.in_degree(v) <= 1, "forest vertex {} has 2 parents", v);
        }

        let extra = m.min(60);
        let (t, t2) = (
            gen::tree_plus_dag(n, extra, seed),
            gen::tree_plus_dag(n, extra, seed),
        );
        prop_assert_eq!(t.graph(), t2.graph());
        prop_assert!(t.num_edges() >= n - 1, "spanning tree edges present");

        let (p, p2) = (gen::power_law_dag(n, m, seed), gen::power_law_dag(n, m, seed));
        prop_assert_eq!(p.graph(), p2.graph());
    }

    /// Parallel batch evaluation over label-space pairs (identity
    /// `comp_of`), with and without the DAG's filter stack, is BFS's
    /// answer at any thread count (order preserved, no lost or
    /// duplicated work, every pair tallied once).
    #[test]
    fn parallel_batch_matches_sequential(
        dag in arb_dag(PAST_TOP_HOPS, 300),
        threads in 0usize..9,
        seed in 0u64..100,
    ) {
        use hoplite::graph::gen::Rng;
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        prop_assert!(dl.labeling().total_entries() > 0);
        let n = dag.num_vertices();
        let identity: Vec<u32> = (0..n as u32).collect();
        let mut rng = Rng::new(seed);
        let pairs: Vec<(u32, u32)> = (0..64)
            .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
            .collect();
        let expected: Vec<bool> = pairs
            .iter()
            .map(|&(u, v)| traversal::reaches(dag.graph(), u, v))
            .collect();
        let filters = QueryFilters::build(&dag);
        for filters in [None, Some(&filters)] {
            let mut out: Vec<bool> = expected.iter().map(|b| !b).collect();
            let tally =
                par_query_batch_into(dl.labeling(), filters, &identity, &pairs, &mut out, threads);
            prop_assert_eq!(&out, &expected);
            prop_assert_eq!(tally.total(), pairs.len() as u64);
        }
    }

    /// Latency-histogram round-trip: recording arbitrary values and
    /// asking for any quantile returns exactly the upper bound of the
    /// bucket holding the rank-th smallest sample (clamped to the
    /// observed max) — i.e. the log-linear bucketing loses rank
    /// information never, and magnitude only within one bucket.
    #[test]
    fn histogram_quantiles_round_trip_through_buckets(
        raw in proptest::collection::vec((0u64..3, 0u64..(1 << 50)), 1..200),
        q_milli in 0u64..1001,
    ) {
        use hoplite::core::metrics::{bucket_high, bucket_index};
        use hoplite::core::{Histogram, HistogramSnapshot};
        // Mixed magnitudes: exact linear buckets, mid-range, and the
        // high log-bucket tail.
        let values: Vec<u64> = raw
            .into_iter()
            .map(|(sel, v)| match sel {
                0 => v % 64,
                1 => v % 100_000,
                _ => v,
            })
            .collect();
        let q = q_milli as f64 / 1000.0;
        let shared = Histogram::new();
        let mut owned = HistogramSnapshot::empty();
        for &v in &values {
            shared.record(v);
            owned.record(v);
        }
        let snap = shared.snapshot();
        prop_assert_eq!(&snap, &owned, "atomic and owned recording agree");
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.count(), sorted.len() as u64);
        prop_assert_eq!(snap.max(), *sorted.last().unwrap());
        prop_assert_eq!(snap.sum(), sorted.iter().sum::<u64>());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let sample = sorted[rank - 1];
        let expect = bucket_high(bucket_index(sample)).min(snap.max());
        prop_assert_eq!(snap.quantile(q), expect, "q={} rank={} sample={}", q, rank, sample);
        // Reported quantiles never undershoot the true sample and
        // never exceed the observed max.
        prop_assert!(snap.quantile(q) >= sample && snap.quantile(q) <= snap.max());
    }

    /// Snapshot merge is associative and commutative, and merging
    /// per-chunk snapshots equals recording the concatenation — the
    /// property per-worker aggregation (loadgen, METRICS) relies on.
    #[test]
    fn histogram_merge_is_associative_and_chunk_invariant(
        a in proptest::collection::vec(0u64..1_000_000, 0..64),
        b in proptest::collection::vec(0u64..1_000_000, 0..64),
        c in proptest::collection::vec(0u64..1_000_000, 0..64),
    ) {
        use hoplite::core::HistogramSnapshot;
        let snap = |values: &[u64]| {
            let mut s = HistogramSnapshot::empty();
            for &v in values {
                s.record(v);
            }
            s
        };
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut right_tail = sb.clone();
        right_tail.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right, "associativity");
        // c ⊕ b ⊕ a
        let mut rev = sc;
        rev.merge(&sb);
        rev.merge(&sa);
        prop_assert_eq!(&left, &rev, "commutativity");
        // One snapshot over the concatenation.
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&left, &snap(&all), "merge equals concatenation");
    }

    /// Dynamic overlay queries equal a from-scratch rebuild after any
    /// sequence of acyclic insertions.
    #[test]
    fn dynamic_overlay_matches_rebuild(
        dag in arb_dag(PAST_TOP_HOPS, 160),
        extra in proptest::collection::vec((0u32..120, 0u32..120), 0..12),
    ) {
        use hoplite::core::dynamic::DynamicOracle;
        let n = dag.num_vertices();
        let mut edges: Vec<(u32, u32)> = dag.graph().edges().collect();
        let mut oracle = DynamicOracle::with_config(
            dag.clone(), DlConfig::default(), usize::MAX >> 1,
        );
        for &(u, v) in &extra {
            let (u, v) = (u % n as u32, v % n as u32);
            if oracle.insert_edge(u, v).is_ok() {
                edges.push((u, v));
            }
        }
        let rebuilt = DiGraph::from_edges(n, &edges).expect("valid");
        traversal::assert_matches_bfs(&rebuilt, "overlay", |u, v| oracle.query(u, v));
    }
}
