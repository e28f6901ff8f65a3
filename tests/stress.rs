//! Stress and adversarial-shape tests: structures that historically
//! break reachability indexes (deep paths, wide fans, dense bipartite
//! cores) at sizes where all-pairs verification is still feasible, and
//! larger sizes with sampled verification.

use hoplite::baselines::{Grail, IntervalIndex, PathTree, Pwah8};
use hoplite::core::{DistributionLabeling, DlConfig, HierarchicalLabeling, HlConfig, ReachIndex};
use hoplite::graph::gen::Rng;
use hoplite::graph::{traversal, Dag, DiGraph};
use hoplite::Oracle;

/// One root fanning to `w` middles joining into one sink. The middle
/// layer is a worst case for naive hop selection; the hub-aware orders
/// must keep labels linear.
fn fan_graph(w: u32) -> Dag {
    let mut edges = Vec::with_capacity(2 * w as usize);
    for m in 1..=w {
        edges.push((0u32, m));
        edges.push((m, w + 1));
    }
    Dag::from_edges(w as usize + 2, &edges).unwrap()
}

#[test]
fn wide_fan_labels_stay_linear() {
    let w = 5_000;
    let dag = fan_graph(w);
    let dl = DistributionLabeling::build(&dag, &DlConfig::default());
    // Root and sink have the top degree products; every middle vertex
    // should need O(1) hops, keeping totals linear in n.
    let total = dl.labeling().total_entries();
    assert!(
        total < 8 * (w as u64 + 2),
        "fan labels should be linear, got {total} entries for {w} middles"
    );
    assert!(dl.query(0, w + 1));
    assert!(dl.query(0, 17));
    assert!(dl.query(17, w + 1));
    assert!(!dl.query(17, 18), "middles are incomparable");
}

#[test]
fn dense_bipartite_core() {
    // Complete bipartite 40x40 plus chains on both sides: the classic
    // case where one hub hop covers 1600 pairs.
    let (a, b) = (40u32, 40u32);
    let n = (a + b) as usize;
    let mut edges = Vec::new();
    for i in 0..a {
        for j in 0..b {
            edges.push((i, a + j));
        }
    }
    let dag = Dag::from_edges(n, &edges).unwrap();
    let dl = DistributionLabeling::build(&dag, &DlConfig::default());
    let hl = HierarchicalLabeling::build(&dag, &HlConfig::default());
    traversal::assert_matches_bfs(dag.graph(), "DL on the biclique", |u, v| dl.query(u, v));
    traversal::assert_matches_bfs(dag.graph(), "HL on the biclique", |u, v| hl.query(u, v));
    // A direct biclique has no middle vertex, so *any* 2-hop labeling
    // needs Θ(a·b) entries (each of the 1600 pairs needs a witness
    // that is one of its own endpoints). Check DL's full labels (the
    // top hops' entries restored from the reach masks) are within a
    // small constant of that information-theoretic floor, not above n².
    let full = dl.full_labels();
    let total: u64 = full
        .out
        .iter()
        .chain(&full.in_)
        .map(|l| l.len() as u64)
        .sum();
    assert!(
        (1_600..=4 * 1_600).contains(&total),
        "biclique labels should be Θ(a·b) = ~1600, got {total}"
    );
}

#[test]
fn deep_path_sampled_verification() {
    // 50k-vertex path: exercises deep hierarchies and iterative
    // traversals; verification by sampling. DL uses a *random* order
    // here — see `dl_degree_order_degenerates_on_paths` below for why.
    let n = 50_000u32;
    let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let dag = Dag::from_edges(n as usize, &edges).unwrap();
    let dl = DistributionLabeling::build(
        &dag,
        &DlConfig {
            order: hoplite::OrderKind::Random(17),
        },
    );
    // Random order behaves like randomized divide-and-conquer on a
    // path: expected Θ(n log n) label entries.
    assert!(
        dl.labeling().total_entries() < 40 * n as u64,
        "random-order DL on a path should be ~n log n, got {}",
        dl.labeling().total_entries()
    );
    let hl = HierarchicalLabeling::build(
        &dag,
        &HlConfig {
            core_size_limit: 64,
            ..HlConfig::default()
        },
    );
    let mut rng = Rng::new(5);
    for _ in 0..2_000 {
        let u = rng.gen_index(n as usize) as u32;
        let v = rng.gen_index(n as usize) as u32;
        let truth = u <= v;
        assert_eq!(dl.query(u, v), truth, "DL ({u},{v})");
        assert_eq!(hl.query(u, v), truth, "HL ({u},{v})");
    }
}

/// A documented limitation of the paper's degree-product rank: on a
/// pure path every vertex ties, ties break by id, and processing
/// vertices front-to-back degenerates DL to Θ(n²) label entries —
/// the same failure mode as first-element-pivot quicksort on sorted
/// input. A random order restores Θ(n log n). (Real graphs have degree
/// skew, which is exactly what the rank function exploits; the
/// hierarchical decomposition of HL handles paths gracefully instead.)
#[test]
fn dl_degree_order_degenerates_on_paths() {
    let n = 1_000u32;
    let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let dag = Dag::from_edges(n as usize, &edges).unwrap();
    let degree_order = DistributionLabeling::build(&dag, &DlConfig::default());
    let random_order = DistributionLabeling::build(
        &dag,
        &DlConfig {
            order: hoplite::OrderKind::Random(3),
        },
    );
    let (dq, rq) = (
        degree_order.labeling().total_entries(),
        random_order.labeling().total_entries(),
    );
    assert!(
        dq > (n as u64) * (n as u64) / 4,
        "expected quadratic blowup with the id-tied degree order, got {dq}"
    );
    assert!(
        rq < 40 * n as u64,
        "random order should stay near n log n, got {rq}"
    );
    // Both remain complete regardless of size.
    for &(u, v) in &[(0u32, 999u32), (500, 499), (3, 3)] {
        assert_eq!(degree_order.query(u, v), u <= v);
        assert_eq!(random_order.query(u, v), u <= v);
    }
}

#[test]
fn baselines_on_the_fan() {
    let dag = fan_graph(300);
    let n = dag.num_vertices() as u32;
    let indexes: Vec<Box<dyn ReachIndex>> = vec![
        Box::new(Grail::build(&dag, 5, 1)),
        Box::new(IntervalIndex::build(&dag, u64::MAX).unwrap()),
        Box::new(PathTree::build(&dag, u64::MAX).unwrap()),
        Box::new(Pwah8::build(&dag, u64::MAX).unwrap()),
    ];
    for idx in &indexes {
        for u in (0..n).step_by(13) {
            for v in (0..n).step_by(7) {
                assert_eq!(
                    idx.query(u, v),
                    traversal::reaches(dag.graph(), u, v),
                    "{} at ({u},{v})",
                    idx.name()
                );
            }
        }
    }
}

#[test]
fn oracle_on_giant_cycle() {
    // The whole graph is one SCC: everything reaches everything.
    let n = 10_000u32;
    let mut edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.push((n - 1, 0));
    let g = DiGraph::from_edges(n as usize, &edges).unwrap();
    let oracle = Oracle::new(&g);
    assert_eq!(oracle.num_components(), 1);
    let mut rng = Rng::new(11);
    for _ in 0..500 {
        let u = rng.gen_index(n as usize) as u32;
        let v = rng.gen_index(n as usize) as u32;
        assert!(oracle.reaches(u, v));
    }
}

#[test]
fn builder_swallows_heavy_duplication() {
    // 50k copies of the same few edges must collapse cleanly.
    let mut edges = Vec::with_capacity(50_000);
    for _ in 0..10_000 {
        edges.extend_from_slice(&[(0u32, 1u32), (1, 2), (2, 3), (0, 3), (3, 3)]);
    }
    let g = DiGraph::from_edges(4, &edges).unwrap();
    assert_eq!(g.num_edges(), 4, "dedup + self-loop removal");
    let dag = Dag::new(g).unwrap();
    let dl = DistributionLabeling::build(&dag, &DlConfig::default());
    assert!(dl.query(0, 3));
}

#[test]
fn two_disconnected_cliquelike_blocks() {
    // Index must never leak reachability across components.
    let mut edges = Vec::new();
    for u in 0..50u32 {
        for v in (u + 1)..50 {
            if (u + v) % 3 == 0 {
                edges.push((u, v));
            }
        }
    }
    // Second block shifted by 50.
    let shifted: Vec<_> = edges.iter().map(|&(u, v)| (u + 50, v + 50)).collect();
    edges.extend(shifted);
    let dag = Dag::from_edges(100, &edges).unwrap();
    let dl = DistributionLabeling::build(&dag, &DlConfig::default());
    traversal::assert_matches_bfs(dag.graph(), "two blocks", |u, v| dl.query(u, v));
}
