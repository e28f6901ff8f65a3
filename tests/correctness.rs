//! Cross-crate correctness: every index in the workspace must agree
//! with BFS on every vertex pair, for every generator family. This
//! matrix is the one place that proves "index X = BFS on family F"; a
//! new index or configuration is proven by adding a row to
//! [`all_indexes`].

use hoplite::baselines::twohop::TwoHopConfig;
use hoplite::baselines::{
    BfsOnline, BidirOnline, DfsOnline, FullTc, Grail, IntervalIndex, KReach, PathTree,
    PrunedLandmark, Pwah8, Scarab, TfLabel, TwoHop,
};
use hoplite::core::{DistributionLabeling, DlConfig, HierarchicalLabeling, HlConfig, ReachIndex};
use hoplite::graph::{gen, traversal, Dag};

/// Builds one of every index over `dag`.
fn all_indexes(dag: &Dag, seed: u64) -> Vec<Box<dyn ReachIndex>> {
    vec![
        Box::new(DistributionLabeling::build(dag, &DlConfig::default())),
        Box::new(HierarchicalLabeling::build(
            dag,
            &HlConfig {
                core_size_limit: 16,
                ..HlConfig::default()
            },
        )),
        Box::new(Grail::build(dag, 5, seed)),
        Box::new(Grail::build(dag, 1, seed)),
        Box::new(IntervalIndex::build(dag, u64::MAX).expect("no budget")),
        Box::new(PathTree::build(dag, u64::MAX).expect("no budget")),
        Box::new(Pwah8::build(dag, u64::MAX).expect("no budget")),
        Box::new(KReach::build(dag, u64::MAX).expect("no budget")),
        Box::new(TwoHop::build(dag, &TwoHopConfig::default()).expect("no budget")),
        Box::new(TfLabel::build(dag, 12)),
        Box::new(TfLabel::build(dag, 8)),
        Box::new(PrunedLandmark::build(dag)),
        Box::new(
            Scarab::build(dag, 2, "GL*", |bb| Ok(Grail::build(bb, 5, seed))).expect("inner ok"),
        ),
        Box::new(
            Scarab::build(dag, 2, "PT*", |bb| PathTree::build(bb, u64::MAX)).expect("inner ok"),
        ),
        Box::new(
            Scarab::build(dag, 1, "GL*", |bb| Ok(Grail::build(bb, 3, seed))).expect("inner ok"),
        ),
        Box::new(
            Scarab::build(dag, 3, "GL*", |bb| Ok(Grail::build(bb, 3, seed))).expect("inner ok"),
        ),
        Box::new(BfsOnline::build(dag)),
        Box::new(DfsOnline::build(dag)),
        Box::new(BidirOnline::build(dag)),
        Box::new(FullTc::build(dag, u64::MAX).expect("no budget")),
    ]
}

fn check_all(dag: &Dag, seed: u64) {
    for (row, idx) in all_indexes(dag, seed).iter().enumerate() {
        let what = format!("all_indexes[{row}] ({}), seed {seed}", idx.name());
        traversal::assert_matches_bfs(dag.graph(), &what, |u, v| idx.query(u, v));
    }
}

#[test]
fn all_indexes_on_random_dags() {
    for seed in 0..4 {
        check_all(&gen::random_dag(70, 200, seed), seed);
    }
}

#[test]
fn all_indexes_on_tree_like_dags() {
    for seed in 0..3 {
        check_all(&gen::tree_plus_dag(80, 24, seed), seed);
    }
    // A pure tree: every reachable set is one subtree.
    check_all(&gen::tree_plus_dag(80, 0, 3), 3);
}

#[test]
fn all_indexes_on_power_law_dags() {
    for seed in 0..3 {
        check_all(&gen::power_law_dag(80, 240, seed), seed);
    }
}

#[test]
fn all_indexes_on_layered_dags() {
    for seed in 0..3 {
        check_all(&gen::layered_dag(80, 6, 200, seed), seed);
    }
}

#[test]
fn all_indexes_on_forest_dags() {
    for seed in 0..3 {
        check_all(&gen::forest_dag(80, 50, seed), seed);
    }
}

#[test]
fn all_indexes_on_deep_chain_dags() {
    // The `batch_scan` benchmark's family: six deep chains with sparse
    // cross edges.
    for seed in 0..3 {
        check_all(&gen::deep_chain_dag(240, 6, 40, seed), seed);
    }
}

#[test]
fn all_indexes_on_kronecker_dags() {
    for seed in 0..3 {
        check_all(&gen::kronecker_dag(7, 400, seed), seed);
    }
}

#[test]
fn all_indexes_on_grid() {
    check_all(&gen::grid_dag(7, 9), 0);
}

#[test]
fn all_indexes_on_degenerate_graphs() {
    // Edgeless and single-vertex graphs: every index must degrade
    // gracefully to the identity relation.
    for dag in [
        Dag::from_edges(1, &[]).unwrap(),
        Dag::from_edges(9, &[]).unwrap(),
        Dag::from_edges(2, &[(0, 1)]).unwrap(),
    ] {
        check_all(&dag, 0);
    }
}

#[test]
fn all_indexes_on_long_path() {
    // Deep DAG: exercises recursion-free traversals and interval
    // chains. 300 vertices keeps the all-pairs check cheap.
    let n = 300;
    let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    check_all(&Dag::from_edges(n, &edges).unwrap(), 0);
}

#[test]
fn index_size_reporting_is_consistent() {
    // Sizes must be positive for real indexes and zero for online
    // search; the oracle sizes must count every label entry.
    let dag = gen::random_dag(60, 170, 9);
    let dl = DistributionLabeling::build(&dag, &DlConfig::default());
    assert!(dl.size_in_integers() >= dl.labeling().total_entries());
    assert_eq!(BfsOnline::build(&dag).size_in_integers(), 0);
    let tc = FullTc::build(&dag, u64::MAX).unwrap();
    assert!(tc.size_in_integers() > 0);
}
