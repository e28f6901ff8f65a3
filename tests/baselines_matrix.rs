//! Scale-level validation matrix: every index on ~1–2 k-vertex graphs
//! of each generator family, validated against sampled ground-truth
//! workloads (all-pairs checks live in `correctness.rs` at smaller n).
//! Also asserts the cross-method *relationships* the paper's evaluation
//! hinges on (label compactness, backbone shrinkage, compression
//! ordering) at a scale where they are meaningful.

use hoplite::baselines::twohop::TwoHopConfig;
use hoplite::baselines::{
    FullTc, Grail, IntervalIndex, KReach, PathTree, PrunedLandmark, Pwah8, Scarab, TfLabel, TwoHop,
};
use hoplite::core::{DistributionLabeling, DlConfig, HierarchicalLabeling, HlConfig, ReachIndex};
use hoplite::graph::{gen, Dag};
use hoplite_bench::workload::{equal_workload, random_workload};

/// Validates `idx` against both workload kinds.
fn validate(idx: &dyn ReachIndex, dag: &Dag, queries: usize, seed: u64) {
    for w in [
        equal_workload(dag, queries, seed),
        random_workload(dag, queries, seed ^ 0xA5A5),
    ] {
        for (&(u, v), &truth) in w.pairs.iter().zip(&w.expected) {
            assert_eq!(idx.query(u, v), truth, "{} wrong at ({u},{v})", idx.name());
        }
    }
}

fn families(n: usize, seed: u64) -> Vec<(&'static str, Dag)> {
    vec![
        ("random", gen::random_dag(n, n * 3, seed)),
        ("power_law", gen::power_law_dag(n, n * 3, seed + 1)),
        ("tree_plus", gen::tree_plus_dag(n, n / 3, seed + 2)),
        ("layered", gen::layered_dag(n, 12, n * 3, seed + 3)),
    ]
}

#[test]
fn oracles_validate_at_scale() {
    for (family, dag) in families(2000, 40) {
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        validate(&dl, &dag, 1500, 7);
        let hl = HierarchicalLabeling::build(&dag, &HlConfig::default());
        validate(&hl, &dag, 1500, 7);
        // The paper's compactness shape: HL labels are in DL's
        // ballpark, never an order of magnitude smaller (DL is the
        // non-redundant one).
        assert!(
            dl.labeling().total_entries() <= 2 * hl.labeling().total_entries(),
            "{family}: DL {} vs HL {}",
            dl.labeling().total_entries(),
            hl.labeling().total_entries()
        );
    }
}

#[test]
fn tc_compression_family_validates_at_scale() {
    for (_family, dag) in families(1500, 50) {
        validate(&IntervalIndex::build(&dag, u64::MAX).unwrap(), &dag, 800, 9);
        validate(&PathTree::build(&dag, u64::MAX).unwrap(), &dag, 800, 9);
        validate(&Pwah8::build(&dag, u64::MAX).unwrap(), &dag, 800, 9);
    }
}

#[test]
fn search_and_cover_family_validates_at_scale() {
    for (_family, dag) in families(1500, 60) {
        validate(&Grail::build(&dag, 5, 3), &dag, 800, 11);
        validate(&PrunedLandmark::build(&dag), &dag, 800, 11);
        validate(&TfLabel::build(&dag, 64), &dag, 800, 11);
        validate(&KReach::build(&dag, u64::MAX).unwrap(), &dag, 800, 11);
    }
}

#[test]
fn twohop_validates_at_moderate_scale() {
    // The set-cover construction is the expensive one (the paper's
    // whole point) — validate it at the largest n it can finish
    // quickly.
    let dag = gen::tree_plus_dag(800, 260, 70);
    let idx = TwoHop::build(&dag, &TwoHopConfig::default()).unwrap();
    validate(&idx, &dag, 800, 13);

    // Headline compactness claim (§6.2, Figure 3): DL labels are no
    // larger than the set-cover 2HOP labels.
    let dl = DistributionLabeling::build(&dag, &DlConfig::default());
    assert!(
        dl.labeling().total_entries() <= idx.size_in_integers(),
        "DL {} entries vs 2HOP {} integers",
        dl.labeling().total_entries(),
        idx.size_in_integers()
    );
}

#[test]
fn compression_wins_on_structured_graphs() {
    // TC compression is a bet on structure. On the tree-like and
    // layered families (the paper's metabolic/XML datasets) PWAH-8 and
    // INT must beat the raw bitset TC; on an unstructured random DAG
    // of the same size INT's interval lists can exceed it — exactly
    // the regime where the paper's Tables 5–7 show the compression
    // family collapsing.
    // PWAH's run-length words compress both sparse closures (runs of
    // zeros) and dense layered closures (runs of ones); INT's interval
    // lists only pay off when the closure is contiguous in post-order,
    // i.e. on the tree-like family.
    let structured = [
        ("tree_plus", gen::tree_plus_dag(1200, 400, 81), true),
        ("layered", gen::layered_dag(1200, 12, 3600, 82), false),
    ];
    for (family, dag, int_compresses) in structured {
        let raw = FullTc::build(&dag, u64::MAX).unwrap();
        let pwah = Pwah8::build(&dag, u64::MAX).unwrap();
        let int = IntervalIndex::build(&dag, u64::MAX).unwrap();
        assert!(
            pwah.size_in_integers() < raw.size_in_integers(),
            "{family}: PWAH {} !< raw {}",
            pwah.size_in_integers(),
            raw.size_in_integers()
        );
        assert_eq!(
            int.size_in_integers() < raw.size_in_integers(),
            int_compresses,
            "{family}: INT {} vs raw {}",
            int.size_in_integers(),
            raw.size_in_integers()
        );
    }

    // Structure drives compressibility: the same-sized random DAG
    // needs far more intervals than the tree-like one.
    let tree = IntervalIndex::build(&gen::tree_plus_dag(1200, 400, 83), u64::MAX).unwrap();
    let rand = IntervalIndex::build(&gen::random_dag(1200, 3600, 83), u64::MAX).unwrap();
    assert!(
        tree.size_in_integers() * 2 < rand.size_in_integers(),
        "tree {} vs random {}",
        tree.size_in_integers(),
        rand.size_in_integers()
    );
}

#[test]
fn recursive_scarab_is_correct_and_shrinks_twice() {
    // §2.3: "theoretically, the reachability backbone could be applied
    // recursively; this may further slow down query performance. In
    // [23], this option is not studied." — we study it: a depth-2
    // SCARAB (backbone of the backbone) must stay exact, and each
    // level must shrink the vertex set.
    for seed in [0u64, 1, 2] {
        let dag = gen::random_dag(900, 2700, seed);
        let depth1 = Scarab::build(&dag, 2, "GL*", |bb| Ok(Grail::build(bb, 5, seed))).unwrap();
        let depth2 = Scarab::build(&dag, 2, "GL**", |bb| {
            Scarab::build(bb, 2, "GL*", |bb2| Ok(Grail::build(bb2, 5, seed)))
        })
        .unwrap();
        let level1 = depth1.backbone_size();
        let level2 = depth2.inner().backbone_size();
        assert!(level1 < dag.num_vertices(), "seed {seed}");
        assert!(level2 < level1, "seed {seed}: {level2} !< {level1}");
        validate(&depth2, &dag, 700, seed);
    }
}

#[test]
fn recursive_scarab_with_dl_inner() {
    // The oracle itself as the innermost index of a depth-2 SCARAB —
    // the full composition a downstream user might reach for on a
    // graph too large to label directly.
    let dag = gen::power_law_dag(1000, 3000, 17);
    let idx = Scarab::build(&dag, 2, "DL**", |bb| {
        Scarab::build(bb, 2, "DL*", |bb2| {
            Ok(DistributionLabeling::build(bb2, &DlConfig::default()))
        })
    })
    .unwrap();
    validate(&idx, &dag, 800, 19);
}

#[test]
fn equal_workload_is_balanced_at_scale() {
    // The harness premise: the equal load really is ~half positive
    // wherever the graph has enough reachable pairs.
    for (family, dag) in families(1500, 90) {
        let w = equal_workload(&dag, 4000, 21);
        let ratio = w.positive_ratio();
        assert!(
            (0.4..=0.6).contains(&ratio),
            "{family}: positive ratio {ratio}"
        );
    }
}
