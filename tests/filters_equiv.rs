//! Randomized equivalence suite for the query pre-filter stack: the
//! filtered `Oracle` hot path, the unfiltered label-intersection path,
//! and BFS ground truth must agree on random cyclic digraphs — on the
//! freshly built oracle, after a HOPL v3 `save_arena`/open round-trip,
//! and through the `hoplite-server` wire path.

use std::sync::Arc;

use hoplite::core::{FilterVerdict, Parallelism};
use hoplite::graph::gen::Rng;
use hoplite::graph::traversal;
use hoplite::server::{Client, Registry, Server, ServerConfig};
use hoplite::{DiGraph, DlConfig, Oracle, VertexId};

fn random_cyclic_digraph(n: usize, m: usize, seed: u64) -> DiGraph {
    let mut rng = Rng::new(seed);
    let edges: Vec<(VertexId, VertexId)> = (0..m)
        .filter_map(|_| {
            let u = rng.gen_index(n) as VertexId;
            let v = rng.gen_index(n) as VertexId;
            (u != v).then_some((u, v))
        })
        .collect();
    DiGraph::from_edges(n, &edges).expect("edges are in range")
}

/// Asserts the oracle agrees with BFS on all n² pairs, via every query
/// entry point: filtered single, unfiltered single, filtered batch,
/// unfiltered batch.
fn assert_oracle_matches_bfs(g: &DiGraph, oracle: &Oracle, ctx: &str) {
    let n = g.num_vertices() as VertexId;
    let mut scratch = hoplite::graph::traversal::TraversalScratch::new(g.num_vertices());
    let pairs: Vec<(VertexId, VertexId)> =
        (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
    let truth: Vec<bool> = pairs
        .iter()
        .map(|&(u, v)| traversal::reaches_with(g, u, v, &mut scratch))
        .collect();
    for (&(u, v), &expect) in pairs.iter().zip(&truth) {
        assert_eq!(oracle.reaches(u, v), expect, "{ctx}: filtered ({u},{v})");
        assert_eq!(
            oracle.reaches_unfiltered(u, v),
            expect,
            "{ctx}: unfiltered ({u},{v})"
        );
    }
    for threads in [1, 3] {
        assert_eq!(
            oracle.reaches_batch(&pairs, threads),
            truth,
            "{ctx}: filtered batch, {threads} threads"
        );
        assert_eq!(
            oracle.reaches_batch_unfiltered(&pairs, threads),
            truth,
            "{ctx}: unfiltered batch, {threads} threads"
        );
    }
}

#[test]
fn filtered_unfiltered_and_bfs_agree_on_random_cyclic_digraphs() {
    for seed in 0..8u64 {
        // Sweep density: sparse graphs exercise the negative cuts,
        // dense ones the SCC condensation and positive cuts.
        let n = 48 + (seed as usize % 3) * 16;
        let m = n * (2 + seed as usize % 4);
        let g = random_cyclic_digraph(n, m, 0xC0FFEE ^ seed);
        let oracle = Oracle::new(&g);
        assert_oracle_matches_bfs(&g, &oracle, &format!("seed {seed}"));
    }
}

#[test]
fn every_build_engine_feeds_an_equivalent_oracle() {
    let g = random_cyclic_digraph(70, 250, 99);
    for parallelism in [
        Parallelism::Auto,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ] {
        let oracle = Oracle::with_config(
            &g,
            &DlConfig {
                parallelism,
                ..DlConfig::default()
            },
        );
        assert_oracle_matches_bfs(&g, &oracle, &format!("{parallelism:?}"));
    }
}

#[test]
fn equivalence_survives_save_load_roundtrip() {
    for seed in 0..4u64 {
        let g = random_cyclic_digraph(56, 180, 0xBEEF ^ seed);
        let oracle = Oracle::new(&g);
        let mut buf = Vec::new();
        oracle.save_arena(&mut buf).expect("save");
        let restored = Oracle::open_arena_bytes(&buf).expect("open");
        // The filter records are served straight from the arena, so
        // the restored oracle must pass the same full-matrix check.
        assert_oracle_matches_bfs(&g, &restored, &format!("roundtrip seed {seed}"));
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
    let n = 50usize;
    let g = random_cyclic_digraph(n, 170, 0xFADE);
    let registry = Registry::new();
    registry.insert_frozen("equiv", Oracle::new(&g)).unwrap();
    let handle = Server::bind("127.0.0.1:0", Arc::new(registry), ServerConfig::default())
        .expect("bind ephemeral loopback port");

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut scratch = hoplite::graph::traversal::TraversalScratch::new(n);
    let pairs: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| (0..n as u32).map(move |v| (u, v)))
        .collect();
    // Singles for a sample, BATCH for the full matrix: both handlers
    // run the filtered hot path.
    for &(u, v) in pairs.iter().step_by(17) {
        assert_eq!(
            client.reach("equiv", u, v).expect("REACH"),
            traversal::reaches_with(&g, u, v, &mut scratch),
            "wire REACH ({u},{v})"
        );
    }
    for chunk in pairs.chunks(500) {
        let answers = client.reach_batch("equiv", chunk).expect("BATCH");
        for (&(u, v), &got) in chunk.iter().zip(&answers) {
            assert_eq!(
                got,
                traversal::reaches_with(&g, u, v, &mut scratch),
                "wire BATCH ({u},{v})"
            );
        }
    }
    handle.shutdown();
}

/// The filter layer must actually fire on a realistic workload — an
/// always-fallthrough stack would silently degrade the hot path back
/// to label intersections.
#[test]
fn filters_decide_queries_on_the_oracle_workload() {
    let g = random_cyclic_digraph(300, 900, 0xABCD);
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
