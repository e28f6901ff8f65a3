//! Dynamic-graph scenario — the paper's future-work direction (§7),
//! implemented with the delta-overlay design of
//! `hoplite_core::dynamic`.
//!
//! Simulates a living dependency graph: packages gain dependencies
//! over time, some dependencies are dropped (O(1) lazy deletions,
//! confirmed on the query path), reachability queries interleave with
//! the updates, and the oracle transparently rebuilds when either
//! overlay gets large. Also demonstrates saving the final index to
//! disk as a HOPL v5 arena and opening it back.
//!
//! ```sh
//! cargo run --release --example dynamic_updates
//! ```

use std::time::Instant;

use hoplite::core::dynamic::{DynamicOracle, MutationError};
use hoplite::core::DlConfig;
use hoplite::graph::gen::{self, Rng};
use hoplite::graph::GraphError;
use hoplite::Oracle;

fn main() {
    // Start with a 20k-vertex dependency DAG.
    let base = gen::tree_plus_dag(20_000, 5_000, 7);
    println!(
        "initial graph: {} packages, {} dependencies",
        base.num_vertices(),
        base.num_edges()
    );
    let n = base.num_vertices();
    let mut oracle = DynamicOracle::with_config(base, DlConfig::default(), 128);

    let mut rng = Rng::new(2024);
    let mut inserted = 0usize;
    let mut rejected = 0usize;
    let mut queries = 0usize;
    let t = Instant::now();
    while inserted < 1_000 {
        // One insertion ...
        let u = rng.gen_index(n) as u32;
        let v = rng.gen_index(n) as u32;
        match oracle.insert_edge(u, v) {
            Ok(()) => inserted += 1,
            Err(MutationError::Graph(GraphError::Cycle { .. })) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
        // ... interleaved with a burst of queries.
        for _ in 0..50 {
            let a = rng.gen_index(n) as u32;
            let b = rng.gen_index(n) as u32;
            std::hint::black_box(oracle.query(a, b));
            queries += 1;
        }
    }
    let elapsed = t.elapsed().as_secs_f64();
    println!(
        "\nprocessed {inserted} insertions (+{rejected} cycle-rejected) and {queries} queries \
         in {elapsed:.2} s"
    );
    println!(
        "automatic rebuilds: {}, overlay now holds {} pending edges",
        oracle.rebuilds(),
        oracle.pending_edges()
    );

    // Dependencies get dropped too: deletions are applied lazily (the
    // stale labels stay a sound over-approximation), and queries keep
    // answering exactly.
    let t = Instant::now();
    let mut removed = 0usize;
    let snapshot_edges: Vec<(u32, u32)> = oracle.snapshot().graph().edges().collect();
    for i in (0..snapshot_edges.len()).step_by(snapshot_edges.len() / 60) {
        let (a, b) = snapshot_edges[i];
        if oracle.remove_edge(a, b).expect("no WAL attached") {
            removed += 1;
            let reachable_now = oracle.query(a, b);
            if removed <= 3 {
                println!(
                    "dropped dependency {a} -> {b}; still reachable via another path: \
                     {reachable_now}"
                );
            }
        }
    }
    println!(
        "removed {removed} dependencies in {:.1} ms \
         ({} deletions pending, {} rebuilds total)",
        t.elapsed().as_secs_f64() * 1e3,
        oracle.pending_deletions(),
        oracle.rebuilds()
    );

    // Fold the overlay and ship the final index to a file as a HOPL v5
    // arena, then open it the way a serving replica would.
    oracle.rebuild();
    let final_index = Oracle::new(oracle.snapshot().graph());
    let path = std::env::temp_dir().join("hoplite-dynamic-example.hopl");
    let file = std::fs::File::create(&path).expect("temp file writable");
    final_index
        .save_arena(std::io::BufWriter::new(file))
        .expect("index serializes");
    let bytes = std::fs::metadata(&path).expect("file exists").len();
    println!("\nsaved final index to {} ({bytes} bytes)", path.display());

    let loaded = Oracle::open(&path).expect("index opens");
    println!(
        "reopened: {} label entries — queries match: {}",
        loaded.label_entries(),
        (0..1_000).all(|_| {
            let a = rng.gen_index(n) as u32;
            let b = rng.gen_index(n) as u32;
            loaded.reaches(a, b) == oracle.query(a, b)
        })
    );
    let _ = std::fs::remove_file(&path);
}
