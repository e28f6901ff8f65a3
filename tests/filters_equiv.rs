//! Randomized equivalence suite for the query pre-filter stack: the
//! filtered `Oracle` hot path, the unfiltered label-intersection path,
//! and BFS ground truth must agree on random cyclic digraphs, plain
//! DAGs and DAGs with many small SCCs — on the freshly built oracle,
//! after a HOPL v4 `save_arena`/open round-trip, and through the
//! `hoplite-server` wire path. This is the root facade's all-pairs BFS
//! sweep: singles and batches, filtered and unfiltered, at 1 and 3
//! threads, plus the batch kernel's stage tally against the per-pair
//! path's.

use std::sync::Arc;

use hoplite::core::{par_query_batch_into, FilterVerdict, OrderKind, QueryTally};
use hoplite::graph::gen::{self, Rng};
use hoplite::graph::traversal;
use hoplite::server::{Client, Registry, Server, ServerConfig};
use hoplite::{DiGraph, DlConfig, Oracle, VertexId};

/// Checks every query entry point against BFS on all n² pairs:
/// filtered singles, unfiltered singles (the labeling's own query on
/// the pair's components), filtered and unfiltered batches at 1 and 3
/// threads, and the batch kernel against the tallied singles at 1, 2
/// and 3 threads.
fn check_entry_points(g: &DiGraph, oracle: &Oracle, what: &str) {
    let n = g.num_vertices();
    let (labeling, comp_of) = (oracle.inner().labeling(), oracle.comp_of());
    traversal::assert_matches_bfs(g, &format!("{what}, filtered"), |u, v| oracle.reaches(u, v));
    traversal::assert_matches_bfs(g, &format!("{what}, unfiltered"), |u, v| {
        labeling.query(comp_of[u as usize], comp_of[v as usize])
    });
    let pairs: Vec<(VertexId, VertexId)> = (0..n as VertexId)
        .flat_map(|u| (0..n as VertexId).map(move |v| (u, v)))
        .collect();
    for threads in [1, 3] {
        for (path, filters) in [("filtered", Some(oracle.filters())), ("unfiltered", None)] {
            let mut batch = vec![false; pairs.len()];
            par_query_batch_into(labeling, filters, comp_of, &pairs, &mut batch, threads);
            let what = format!("{what}, {path} batch, {threads} threads");
            traversal::assert_matches_bfs(g, &what, |u, v| batch[u as usize * n + v as usize]);
        }
    }
    // The batch kernel into a caller's buffer: the per-pair tallied
    // path's answers (BFS's, checked above) and its stage tally, every
    // slot written at every width.
    let mut per_pair = QueryTally::default();
    let want: Vec<bool> = pairs
        .iter()
        .map(|&(u, v)| oracle.reaches_tallied(u, v, &mut per_pair))
        .collect();
    for threads in [1, 2, 3] {
        let mut out: Vec<bool> = want.iter().map(|b| !b).collect();
        let tally = oracle.reaches_batch_into(&pairs, &mut out, threads);
        assert!(out == want, "{what}, batch into, {threads} threads");
        assert_eq!(tally, per_pair, "{what}, batch into, {threads} threads");
    }
}

#[test]
fn filtered_unfiltered_and_bfs_agree_on_random_cyclic_digraphs() {
    for seed in 0..8u64 {
        // Sweep density: sparse graphs exercise the negative cuts,
        // dense ones the SCC condensation and positive cuts.
        let n = 48 + (seed as usize % 3) * 16;
        let m = n * (2 + seed as usize % 4);
        let g = gen::random_digraph(n, m, 0xC0FFEE ^ seed);
        let oracle = Oracle::new(&g);
        check_entry_points(&g, &oracle, &format!("seed {seed}"));
    }
    // Two more shapes: a plain DAG (nothing to condense), and the same
    // DAG with every fifth edge closed into a 2-cycle (many small SCCs).
    for seed in 0..5u64 {
        let dag = gen::random_dag(60, 150, seed);
        let mut edges: Vec<(VertexId, VertexId)> = dag.graph().edges().collect();
        let back: Vec<_> = edges.iter().step_by(5).map(|&(u, v)| (v, u)).collect();
        edges.extend(back);
        let two_cycles = DiGraph::from_edges(60, &edges).unwrap();
        for (g, shape) in [(dag.graph(), "dag"), (&two_cycles, "dag + 2-cycles")] {
            check_entry_points(g, &Oracle::new(g), &format!("{shape} seed {seed}"));
        }
    }
}

#[test]
fn every_build_engine_feeds_an_equivalent_oracle() {
    // Sparse enough to condense past the top hops, so every order's
    // non-degree masks and label lists are exercised.
    let g = gen::random_digraph(120, 160, 0xFADE);
    for order in [
        OrderKind::DegProduct,
        OrderKind::DegSum,
        OrderKind::Random(99),
        OrderKind::Topological,
        OrderKind::CoverSize,
    ] {
        let oracle = Oracle::with_config(&g, &DlConfig { order });
        assert!(
            oracle.label_entries() > 0,
            "{order:?}: lists past the top hops"
        );
        check_entry_points(&g, &oracle, &format!("{order:?}"));
    }
}

#[test]
fn equivalence_survives_save_load_roundtrip() {
    for seed in 0..4u64 {
        let g = gen::random_digraph(56, 180, 0xBEEF ^ seed);
        let oracle = Oracle::new(&g);
        let mut buf = Vec::new();
        oracle.save_arena(&mut buf).expect("save");
        let restored = Oracle::open_arena_bytes(&buf).expect("open");
        // The filter records are served straight from the arena, so
        // the restored oracle must pass the same full-matrix check.
        check_entry_points(&g, &restored, &format!("roundtrip seed {seed}"));
        // And the two oracles' filter verdicts are identical: the
        // arena carries the built records byte for byte.
        let n = g.num_vertices() as VertexId;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    oracle.filters().classify(u, v),
                    restored.filters().classify(u, v),
                    "verdict diverged at ({u},{v})"
                );
            }
        }
    }
}

#[test]
fn equivalence_through_the_server_wire_path() {
    // Sparse enough to condense past the top hops: the wire path
    // serves masks and label lists.
    let n = 100usize;
    let g = gen::random_digraph(n, 170, 0xFADE);
    let oracle = Oracle::new(&g);
    assert!(
        oracle.label_entries() > 0,
        "the fixture reaches past the top hops"
    );
    let registry = Registry::new();
    registry.insert_frozen("equiv", oracle).unwrap();
    let handle = Server::bind("127.0.0.1:0", Arc::new(registry), ServerConfig::default())
        .expect("bind ephemeral loopback port");

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let pairs: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| (0..n as u32).map(move |v| (u, v)))
        .collect();
    // REACH and BATCH over the full matrix: both handlers run the
    // filtered hot path.
    traversal::assert_matches_bfs(&g, "wire REACH", |u, v| {
        client.reach("equiv", u, v).expect("REACH")
    });
    let batch: Vec<bool> = pairs
        .chunks(500)
        .flat_map(|chunk| client.reach_batch("equiv", chunk).expect("BATCH"))
        .collect();
    traversal::assert_matches_bfs(&g, "wire BATCH", |u, v| batch[u as usize * n + v as usize]);
    handle.shutdown();
}

/// The filter layer must actually fire on a realistic workload — an
/// always-fallthrough stack would silently degrade the hot path back
/// to label intersections.
#[test]
fn filters_decide_queries_on_the_oracle_workload() {
    let g = gen::random_digraph(300, 900, 0xABCD);
    let oracle = Oracle::new(&g);
    let mut rng = Rng::new(1);
    let mut decided = 0usize;
    let total = 5_000usize;
    for _ in 0..total {
        let u = rng.gen_index(300) as u32;
        let v = rng.gen_index(300) as u32;
        // Oracle filters are projected: classify in original-id space.
        if oracle.filters().classify(u, v) != FilterVerdict::Fallthrough {
            decided += 1;
        }
    }
    assert!(
        decided * 2 > total,
        "filters decided only {decided}/{total} queries"
    );
}
