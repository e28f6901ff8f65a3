//! A reachability query *service*, end to end over the real wire
//! protocol.
//!
//! `parallel_service` shows the in-process story: a frozen oracle
//! shared across threads. This example is the networked sibling —
//! build an index, register it in a namespace registry next to a
//! mutable namespace, serve both on an ephemeral loopback port with
//! `hoplite-server`, replay a concurrent client workload through TCP,
//! and print the wire-level QPS.
//!
//! ```text
//! cargo run --release --example reachability_service
//! ```

use std::sync::Arc;
use std::time::Instant;

use hoplite::core::DynamicOracle;
use hoplite::graph::gen::{self, Rng};
use hoplite::server::{Client, Registry, Server, ServerConfig};
use hoplite::Oracle;

fn main() {
    // A skewed, web-like graph: 30 k vertices, 90 k edges.
    let dag = gen::power_law_dag(30_000, 90_000, 42);
    let n = dag.num_vertices();
    let g = dag.into_graph();

    let t = Instant::now();
    let oracle = Oracle::new(&g);
    println!(
        "index: {} vertices, {} components, {} label entries ({:.0} ms build)",
        n,
        oracle.num_components(),
        oracle.label_entries(),
        t.elapsed().as_secs_f64() * 1e3
    );

    // Two namespaces: the frozen web snapshot, and a small mutable
    // ontology accepting live edits. The snapshot goes in behind an
    // `Arc` so the reload below can serialize the exact bytes being
    // served.
    let registry = Arc::new(Registry::new());
    let web = Arc::new(oracle);
    registry.insert_frozen("web", Arc::clone(&web)).unwrap();
    let onto = gen::random_dag(2_000, 5_000, 7);
    registry
        .insert_dynamic("ontology", DynamicOracle::new(onto))
        .unwrap();

    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind ephemeral loopback port");
    let addr = server.local_addr();
    println!("serving on {addr}\n");

    // 4 concurrent clients × 50 k queries in 512-pair BATCH frames —
    // uniform-random pairs, the oracle's worst case (§6.2 obs. 3).
    let clients = 4;
    let per_client = 50_000usize;
    let batch = 512usize;
    let start = Instant::now();
    let positive: u64 = std::thread::scope(|scope| {
        (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut rng = Rng::new(0xC0FFEE + c as u64);
                    let mut positive = 0u64;
                    let mut sent = 0usize;
                    while sent < per_client {
                        let k = batch.min(per_client - sent);
                        let pairs: Vec<(u32, u32)> = (0..k)
                            .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
                            .collect();
                        let answers = client.reach_batch("web", &pairs).expect("BATCH");
                        positive += answers.iter().filter(|&&b| b).count() as u64;
                        sent += k;
                    }
                    positive
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    let elapsed = start.elapsed();
    let total = (clients * per_client) as f64;
    println!(
        "wire throughput: {total:.0} queries over {clients} clients in {:.1} ms → {:.2} Mqueries/s ({positive} positive)",
        elapsed.as_secs_f64() * 1e3,
        total / elapsed.as_secs_f64() / 1e6,
    );

    // Live mutation on the dynamic namespace, visible immediately.
    let mut client = Client::connect(addr).expect("connect");
    let before = client.reach("ontology", 0, 1999).unwrap();
    println!("\nontology: 0 → 1999 before edit: {before}");
    if !before {
        client.add_edge("ontology", 0, 1999).unwrap();
        println!(
            "ontology: 0 → 1999 after ADD_EDGE: {}",
            client.reach("ontology", 0, 1999).unwrap()
        );
    }

    for info in client.list().unwrap() {
        let stats = client.stats(&info.name).unwrap();
        println!(
            "namespace {:>8} [{}]: {} vertices, {} label entries, {} queries served",
            info.name, info.kind, stats.vertices, stats.label_entries, stats.queries
        );
    }

    // Zero-copy reload: persist the snapshot as a HOPL v5 arena, open
    // it mapped (O(header) — no deserialization, no filter/reach-mask
    // recompute), and atomically swap it in. One `Arc<Oracle>` backs
    // both the fresh "web" and a fan-out replica namespace, so the
    // reload shares a single file mapping instead of cloning a
    // multi-MB index per namespace.
    let arena_path = std::env::temp_dir().join(format!(
        "hoplite-reachability-service-{}.hopl3",
        std::process::id()
    ));
    let file = std::fs::File::create(&arena_path).expect("create arena file");
    web.save_arena(std::io::BufWriter::new(file))
        .expect("write arena");
    let t = Instant::now();
    let reloaded = std::sync::Arc::new(Oracle::open(&arena_path).expect("mapped open"));
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    registry
        .insert_frozen("web", std::sync::Arc::clone(&reloaded))
        .unwrap();
    registry.insert_frozen("web-replica", reloaded).unwrap();
    std::fs::remove_file(&arena_path).ok();

    let stats = client.stats("web").unwrap();
    println!(
        "\nzero-copy reload: opened {} vertices in {open_ms:.2} ms, backend {}, \
         {} heap B + {} mapped B (shared with web-replica)",
        stats.vertices, stats.backend, stats.heap_bytes, stats.mapped_bytes
    );
    assert!(
        client.reach("web", 0, 1).is_ok(),
        "reloaded snapshot serves"
    );

    server.shutdown();
    println!("\nserver drained and shut down cleanly");
}
