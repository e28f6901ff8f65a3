//! End-to-end pipeline tests: the path a downstream user walks —
//! arbitrary digraph → condensation → oracle → queries — plus the
//! benchmark harness wiring.

use std::io::Cursor;

use hoplite::graph::{gen, io, scc, traversal};
use hoplite::{DiGraph, Oracle};
use hoplite_bench::runner::{build_method, validate, MethodId, RunConfig};
use hoplite_bench::workload::{equal_workload, random_workload};
use hoplite_bench::{large_datasets, small_datasets};

/// A digraph with cycles whose reachability we can still ground-truth
/// with BFS on the original graph.
fn cyclic_graph(seed: u64) -> DiGraph {
    // Random DAG + back edges inside random vertex pairs to create SCCs.
    let dag = gen::random_dag(60, 150, seed);
    let mut edges: Vec<(u32, u32)> = dag.graph().edges().collect();
    // Close one in every few edges into a 2-cycle.
    let back: Vec<(u32, u32)> = edges
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == 0)
        .map(|(_, &(u, v))| (v, u))
        .collect();
    edges.extend(back);
    DiGraph::from_edges(60, &edges).unwrap()
}

#[test]
fn file_roundtrip_to_oracle() {
    // Write a graph, read it back, condense, query — the dataset_tool
    // code path.
    let g = cyclic_graph(7);
    let mut buf = Vec::new();
    io::write_edge_list(&g, &mut buf).unwrap();
    let g2 = io::read_edge_list(Cursor::new(&buf)).unwrap();
    assert_eq!(g, g2);

    let cond = scc::condense(&g2);
    assert!(cond.num_components() < 60, "back edges must form SCCs");
    let oracle = Oracle::new(&g2);
    traversal::assert_matches_bfs(&g, "edge-list roundtrip", |u, v| oracle.reaches(u, v));
}

#[test]
fn harness_runs_every_method_on_one_small_analogue() {
    let spec = small_datasets()
        .into_iter()
        .find(|s| s.name == "hpycyc")
        .unwrap();
    let dag = spec.generate(0.15);
    let cfg = RunConfig {
        budget_bytes: 1 << 28,
        ..RunConfig::default()
    };
    let equal = equal_workload(&dag, 400, 3);
    let random = random_workload(&dag, 400, 4);
    for mid in MethodId::paper_columns() {
        let outcome = build_method(mid, &dag, &cfg);
        let idx = outcome
            .index
            .unwrap_or_else(|| panic!("{} failed: {:?}", mid.name(), outcome.error));
        assert!(validate(idx.as_ref(), &equal), "{} equal load", mid.name());
        assert!(
            validate(idx.as_ref(), &random),
            "{} random load",
            mid.name()
        );
        assert!(!idx.name().is_empty());
    }
}

#[test]
fn harness_reproduces_paper_feasibility_boundary() {
    // On a large analogue with a small budget, the heavyweight
    // baselines must fail while the oracles and online-ish methods
    // survive — the paper's core scaling claim in miniature.
    let spec = large_datasets()
        .into_iter()
        .find(|s| s.name == "cit-Patents")
        .unwrap();
    let dag = spec.generate(0.002); // ~7.5k vertices, dense closure
    let cfg = RunConfig {
        budget_bytes: 4 << 20, // 4 MiB per index
        ..RunConfig::default()
    };
    let must_survive = [
        MethodId::Grail,
        MethodId::Hl,
        MethodId::Dl,
        MethodId::TfLabel,
    ];
    for mid in must_survive {
        let o = build_method(mid, &dag, &cfg);
        assert!(
            o.index.is_some(),
            "{} should scale, failed: {:?}",
            mid.name(),
            o.error
        );
    }
    let must_fail = [MethodId::KReach, MethodId::TwoHop];
    for mid in must_fail {
        let o = build_method(mid, &dag, &cfg);
        assert!(
            o.index.is_none(),
            "{} unexpectedly fit in a 4 MiB budget",
            mid.name()
        );
    }
}

#[test]
fn oracle_label_metrics_exposed() {
    let g = cyclic_graph(11);
    let oracle = Oracle::new(&g);
    let c = oracle.num_components();
    assert!(c > 1);
    assert_eq!(oracle.comp_of().len(), g.num_vertices());
    // The inner DL oracle is reachable for power users.
    let labeling = oracle.inner().labeling();
    assert!(labeling.total_entries() == oracle.label_entries());
    // At most 60 components: every one is a top hop, so the reach
    // masks (one 16 B record per component) hold the whole index and
    // the label lists are empty.
    assert!(c <= hoplite::core::TOP_HOPS);
    assert_eq!(oracle.label_entries(), 0);
    assert_eq!(labeling.mask_hops(), hoplite::core::TOP_HOPS);
    assert_eq!(labeling.mask_bytes(), 16 * c as u64);
    assert!((0..c as u32).all(|x| labeling.out_mask(x)[0] & labeling.in_mask(x)[0] != 0));
}
