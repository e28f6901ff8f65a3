//! Workspace smoke test: the batteries-included [`hoplite::Oracle`]
//! facade, end to end, on random *cyclic* digraphs.
//!
//! This is the one test a fresh checkout should be able to point at to
//! know the whole stack works: SCC condensation (`hoplite-graph`),
//! Distribution-Labeling construction and queries (`hoplite-core`), the
//! parallel batch path (`hoplite-core::parallel`), all driven through
//! the root facade exactly the way the README quickstart does. Ground
//! truth is plain BFS over the original graph
//! ([`hoplite::graph::traversal::reaches`]).

use hoplite::graph::gen::{self, Rng};
use hoplite::graph::traversal;
use hoplite::{Oracle, ReachIndex, VertexId};

#[test]
fn batch_path_matches_singles_and_bfs() {
    let g = gen::random_digraph(40, 130, 7);
    let oracle = Oracle::new(&g);
    let mut rng = Rng::new(99);
    let pairs: Vec<(VertexId, VertexId)> = (0..2000)
        .map(|_| (rng.gen_index(40) as VertexId, rng.gen_index(40) as VertexId))
        .collect();
    for threads in [1, 2, 8] {
        let batch = oracle.reaches_batch(&pairs, threads);
        assert_eq!(batch.len(), pairs.len());
        for (&(u, v), &got) in pairs.iter().zip(&batch) {
            assert_eq!(
                got,
                traversal::reaches(&g, u, v),
                "({u},{v}) at {threads} threads"
            );
        }
    }
}

#[test]
fn oracle_reports_nonempty_index_stats() {
    let g = gen::random_digraph(30, 70, 11);
    let oracle = Oracle::new(&g);
    // Every component of a 30-vertex graph is a top hop, so the index
    // lives in the reach masks: each component's masks record itself.
    let labeling = oracle.inner().labeling();
    assert!(
        (0..labeling.num_vertices() as u32)
            .all(|x| labeling.out_mask(x) & labeling.in_mask(x) != 0),
        "labels were built"
    );
    // Three independent views of the component structure must agree:
    // the size-table length, the DAG, and the labeled vertex count.
    let c = oracle.num_components();
    assert!(c > 0 && c <= oracle.num_vertices());
    assert_eq!(oracle.dag().num_vertices(), c);
    assert_eq!(oracle.inner().labeling().num_vertices(), c);
    assert_eq!(
        oracle
            .comp_sizes()
            .iter()
            .map(|&s| s as usize)
            .sum::<usize>(),
        oracle.num_vertices(),
        "components partition the vertices"
    );
    // The inner DL oracle answers condensation-level queries reflexively.
    assert!(oracle.inner().query(0, 0));
}
