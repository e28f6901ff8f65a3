//! The paper's running examples as executable fixtures.
//!
//! Figure 2's cover-structure walkthrough (Cov(13) → Cov({13,7}) →
//! Cov({13,7,25})) is fully recoverable from the text and asserted
//! exactly; Figure 1's 40-vertex drawing is not (only fragments of it
//! are described), so its fixture asserts the *invariants* the example
//! demonstrates on a structurally matching DAG.

use hoplite::core::hierarchy::{Hierarchy, HierarchyConfig};
use hoplite::core::{DistributionLabeling, HierarchicalLabeling, HlConfig};
use hoplite::graph::{gen, traversal, Dag};
use hoplite::ReachIndex;

/// The Figure 2 graph: every constraint the paper states holds.
/// `7 → 13`; `TC⁻¹(13) = TC⁻¹(7) ∪ {11}`; `TC(13) ⊂ TC(7)`; both 13
/// and 7 reach 25 (X = {13,7}); 25 reaches no processed hop (Y = ∅).
fn figure2_graph() -> (Dag, Vec<u32>) {
    let edges = [
        (1u32, 7u32),
        (2, 7),
        (7, 13),
        (7, 31),
        (11, 13),
        (13, 30),
        (13, 25),
    ];
    let dag = Dag::from_edges(32, &edges).unwrap();
    let mut order = vec![13u32, 7, 25];
    order.extend((0..32u32).filter(|v| ![13, 7, 25].contains(v)));
    (dag, order)
}

#[test]
fn figure2_constraints_hold_in_the_fixture() {
    let (dag, _) = figure2_graph();
    let g = dag.graph();
    // 7 -> 13.
    assert!(g.has_edge(7, 13));
    // TC^-1(13) = TC^-1(7) ∪ {11}.
    let anc = |v: u32| -> Vec<u32> {
        (0..32u32)
            .filter(|&u| u != v && traversal::reaches(g, u, v))
            .collect()
    };
    let mut anc7_plus_7_and_11 = anc(7);
    anc7_plus_7_and_11.extend([7, 11]);
    anc7_plus_7_and_11.sort_unstable();
    assert_eq!(anc(13), anc7_plus_7_and_11);
    // TC(13) ⊂ TC(7).
    let desc = |v: u32| -> Vec<u32> {
        (0..32u32)
            .filter(|&w| w != v && traversal::reaches(g, v, w))
            .collect()
    };
    let (d13, d7) = (desc(13), desc(7));
    assert!(d13.iter().all(|x| d7.contains(x)) && d13.len() < d7.len());
    // X = {13, 7} for hop 25; Y = ∅.
    assert!(traversal::reaches(g, 13, 25) && traversal::reaches(g, 7, 25));
    assert!(!traversal::reaches(g, 25, 13) && !traversal::reaches(g, 25, 7));
}

#[test]
fn figure2_distribution_steps_match_the_paper() {
    let (dag, order) = figure2_graph();
    let dl = DistributionLabeling::build_with_order(&dag, order.clone());
    // All 32 vertices are top hops, so the stored lists are empty and
    // the masks hold every answer; the walkthrough reads Algorithm 2's
    // labels, which `full_labels` restores from the masks.
    let full = dl.full_labels();
    let out_label = |v: u32| -> &[u32] { &full.out[v as usize] };
    let in_label = |v: u32| -> &[u32] { &full.in_[v as usize] };
    let names = |hops: &[u32]| -> Vec<u32> { hops.iter().map(|&r| order[r as usize]).collect() };
    let walkthrough = |hops: &[u32]| -> Vec<u32> {
        let mut v: Vec<u32> = names(hops)
            .into_iter()
            .filter(|h| [13, 7, 25].contains(h))
            .collect();
        v.sort_unstable();
        v
    };

    // Figure 2(b): "for all u ∈ TC^-1(7), Lout(u) = {7, 13}".
    for u in [1u32, 2, 7] {
        assert_eq!(walkthrough(out_label(u)), vec![7, 13], "ancestor {u}");
    }
    // "...and for all w ∈ TC(7) \ TC(13), Lin(w) = {7}".
    assert_eq!(walkthrough(in_label(31)), vec![7]);
    assert_eq!(walkthrough(in_label(7)), vec![7]);
    // Descendants of 13 carry hop 13, not 7 (Lemma 2's split).
    assert_eq!(walkthrough(in_label(30)), vec![13]);
    assert_eq!(walkthrough(in_label(13)), vec![13]);
    // Figure 2(c): 25 is added to Lin(w) for w ∈ TC(25) and to
    // Lout(u) only for u ∈ TC^-1(25) \ (TC^-1(13) ∪ TC^-1(7)) = {25}.
    assert_eq!(walkthrough(in_label(25)), vec![13, 25]);
    assert_eq!(walkthrough(out_label(25)), vec![25]);
    for u in [1u32, 2, 7, 11, 13] {
        assert!(
            !walkthrough(out_label(u)).contains(&25),
            "hop 25 must be pruned from Lout({u}) (X covers it)"
        );
    }
    // 11 reaches 13 but not 7.
    let l11 = walkthrough(out_label(11));
    assert!(l11.contains(&13) && !l11.contains(&7));

    // And the whole labeling answers correctly.
    traversal::assert_matches_bfs(dag.graph(), "Figure 2 DL", |u, v| dl.query(u, v));
}

#[test]
fn figure1_hierarchy_and_labeling_invariants() {
    // A 40-vertex DAG standing in for the paper's drawing.
    let dag = gen::random_dag(40, 90, 1);
    let cfg = HierarchyConfig {
        eps: 2,
        core_size_limit: 4,
        max_levels: 4,
    };
    let hier = Hierarchy::build(&dag, &cfg);
    // The drawing has three levels (G0, G1, G2); ours must decompose
    // at least twice as well.
    assert!(hier.num_levels() >= 3, "sizes: {:?}", hier.level_sizes());
    let sizes = hier.level_sizes();
    for w in sizes.windows(2) {
        assert!(w[1] < w[0]);
    }
    // Lemma 1 on the fixture: level-1 reachability equals G0's.
    let l1 = &hier.levels[1];
    traversal::assert_matches_bfs(l1.dag.graph(), "Figure 1 level 1", |a, b| {
        let (a, b) = (l1.to_orig[a as usize], l1.to_orig[b as usize]);
        traversal::reaches(dag.graph(), a, b)
    });
    // The level-wise labeling is complete (Theorem 1).
    let hl = HierarchicalLabeling::build(
        &dag,
        &HlConfig {
            eps: 2,
            core_size_limit: 4,
            max_levels: 4,
            ..HlConfig::default()
        },
    );
    traversal::assert_matches_bfs(dag.graph(), "Figure 1 HL", |u, v| hl.query(u, v));
    // "each vertex by default records itself in both Lin and Lout".
    for v in 0..40u32 {
        assert!(hl.labeling().out_label(v).contains(&v));
        assert!(hl.labeling().in_label(v).contains(&v));
    }
}
