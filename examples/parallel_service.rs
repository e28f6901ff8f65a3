//! Multi-core query serving with a frozen reachability oracle.
//!
//! The intro's motivating workloads (social-network analysis, ontology
//! reasoning, web-graph services) are read-heavy: build once, answer
//! millions of reachability probes. A built oracle is immutable, so a
//! serving tier just shares it across threads — this example builds a
//! web-style DAG, replays a 400 k-query batch through
//! `Oracle::reaches_batch_into` at increasing thread counts, and
//! prints the scaling curve.
//!
//! ```text
//! cargo run --release --example parallel_service
//! ```

use std::time::Instant;

use hoplite::graph::gen::{self, Rng};
use hoplite::Oracle;

fn main() {
    // A skewed, web-like DAG: 60 k vertices, 180 k edges.
    let dag = gen::power_law_dag(60_000, 180_000, 42);
    println!(
        "graph: {} vertices, {} edges",
        dag.num_vertices(),
        dag.num_edges()
    );

    let t = Instant::now();
    let oracle = Oracle::new(dag.graph());
    println!(
        "build: {:.0} ms, {} label entries ({:.2} per vertex)",
        t.elapsed().as_secs_f64() * 1e3,
        oracle.label_entries(),
        oracle.label_entries() as f64 / dag.num_vertices() as f64
    );

    // A 400 k uniform-random batch — the worst case for the oracle
    // (mostly negative queries scan both labels fully, §6.2 obs. 3).
    let mut rng = Rng::new(7);
    let n = dag.num_vertices();
    let pairs: Vec<(u32, u32)> = (0..400_000)
        .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
        .collect();

    println!(
        "\n{:>8} {:>12} {:>12} {:>9}",
        "threads", "elapsed ms", "Mqueries/s", "speedup"
    );
    // The answer buffer is reused at every width, as a server reuses
    // one across requests.
    let mut answers = vec![false; pairs.len()];
    let mut base_qps = None;
    for threads in [1, 2, 4, 8] {
        let start = Instant::now();
        oracle.reaches_batch_into(&pairs, &mut answers, threads);
        let elapsed = start.elapsed().as_secs_f64();
        let qps = pairs.len() as f64 / elapsed;
        let base = *base_qps.get_or_insert(qps);
        println!(
            "{threads:>8} {:>12.1} {:>12.2} {:>8.2}x",
            elapsed * 1e3,
            qps / 1e6,
            qps / base
        );
    }

    // The batch API preserves order, so positional post-processing is
    // safe — e.g. joining answers back to request ids.
    println!("\nfirst 8 answers: {:?}", &answers[..8]);
}
