//! Query workload generation (§6.1 of the paper).
//!
//! Two loads, both 100 000 queries in the paper:
//!
//! * **equal** — ≈50 % positive (reachable) pairs "generated by
//!   sampling the transitive closure" (uniform over reachable pairs
//!   when the closure fits a sampling budget, height-scaled random
//!   walks beyond that), 50 % negative pairs rejection-sampled and
//!   verified unreachable;
//! * **random** — uniformly random vertex pairs (on sparse DAGs these
//!   are overwhelmingly negative, which is why the paper's oracles scan
//!   whole labels on this load).

use hoplite_graph::gen::Rng;
use hoplite_graph::traversal::{self, TraversalScratch};
use hoplite_graph::{Dag, VertexId};

/// A reachability query workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Query pairs `(u, v)`.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Ground-truth answers, aligned with `pairs`.
    pub expected: Vec<bool>,
}

impl Workload {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the workload holds no queries.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Fraction of positive (reachable) queries.
    pub fn positive_ratio(&self) -> f64 {
        if self.expected.is_empty() {
            return 0.0;
        }
        self.expected.iter().filter(|&&e| e).count() as f64 / self.expected.len() as f64
    }
}

/// Budget for materializing the closure during positive-pair sampling
/// (small graphs only; larger inputs fall back to random walks).
const TC_SAMPLING_BUDGET: u64 = 256 << 20;

/// The paper's *equal* load: `count` queries, half positive.
///
/// Positive pairs are **sampled uniformly from the transitive
/// closure** (the paper's §6.1 method) whenever the closure fits a
/// 256 MiB budget; otherwise they come from long random forward walks.
/// Negative pairs are uniform samples verified unreachable by
/// bidirectional BFS.
pub fn equal_workload(dag: &Dag, count: usize, seed: u64) -> Workload {
    let n = dag.num_vertices();
    let g = dag.graph();
    let mut fwd = TraversalScratch::new(n);
    let mut bwd = TraversalScratch::new(n);
    equal_workload_with(dag, count, seed, move |u, v| {
        traversal::bidirectional_reaches(g, u, v, &mut fwd, &mut bwd)
    })
}

/// [`equal_workload`] with *negative-pair* reachability decided by a
/// caller-provided oracle instead of per-pair BFS. On large dense
/// graphs the harness passes an already-built index here; generation
/// drops from minutes to milliseconds. The oracle **must** be exact —
/// the harness spot-checks it against BFS (see `runner::run_suite`).
pub fn equal_workload_with(
    dag: &Dag,
    count: usize,
    seed: u64,
    mut reach: impl FnMut(VertexId, VertexId) -> bool,
) -> Workload {
    let n = dag.num_vertices();
    let mut pairs = Vec::with_capacity(count);
    let mut expected = Vec::with_capacity(count);
    if n < 2 {
        return Workload { pairs, expected };
    }
    let mut rng = Rng::new(seed);
    let n_pos = count / 2;
    match sample_tc_positives(dag, n_pos, &mut rng) {
        Some(pos) => {
            for (u, v) in pos {
                pairs.push((u, v));
                expected.push(true);
            }
        }
        None => {
            // Closure too large: long random walks approximate it.
            sample_walk_positives(dag, n_pos, &mut rng, &mut pairs, &mut expected);
        }
    }
    // Negative pairs: uniform samples verified unreachable.
    let n_neg = count - pairs.len();
    let mut produced = 0usize;
    let mut attempts = 0usize;
    let budget = count.saturating_mul(50) + 1000;
    while produced < n_neg && attempts < budget {
        attempts += 1;
        let u = rng.gen_index(n) as VertexId;
        let v = rng.gen_index(n) as VertexId;
        if u != v && !reach(u, v) {
            pairs.push((u, v));
            expected.push(false);
            produced += 1;
        }
    }
    shuffle_workload(&mut rng, pairs, expected)
}

/// Uniform sample of `count` reachable pairs straight from the
/// materialized closure, or `None` if the closure exceeds the
/// sampling budget. Sampling is uniform over *pairs* (vertices are
/// weighted by their closure row size).
fn sample_tc_positives(
    dag: &Dag,
    count: usize,
    rng: &mut Rng,
) -> Option<Vec<(VertexId, VertexId)>> {
    use hoplite_graph::TransitiveClosure;
    let tc = TransitiveClosure::build_with_budget(dag, TC_SAMPLING_BUDGET).ok()?;
    let n = dag.num_vertices();
    // prefix[u] = number of reachable pairs with source < u.
    let mut prefix: Vec<u64> = Vec::with_capacity(n + 1);
    prefix.push(0);
    for u in 0..n as VertexId {
        prefix.push(prefix[u as usize] + tc.row(u).count_ones() as u64);
    }
    let total = *prefix.last().expect("nonempty prefix");
    if total == 0 {
        return Some(Vec::new());
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let r = rng.gen_range(total);
        // Row owning the r-th pair.
        let u = (prefix.partition_point(|&p| p <= r) - 1) as VertexId;
        let k = (r - prefix[u as usize]) as usize;
        let v = tc
            .row(u)
            .ones()
            .nth(k)
            .expect("k < row cardinality by construction") as VertexId;
        out.push((u, v));
    }
    Some(out)
}

/// Positive pairs via random forward walks whose length scales with
/// the DAG height (so deep reachable pairs are represented).
fn sample_walk_positives(
    dag: &Dag,
    count: usize,
    rng: &mut Rng,
    pairs: &mut Vec<(VertexId, VertexId)>,
    expected: &mut Vec<bool>,
) {
    let n = dag.num_vertices();
    let g = dag.graph();
    let max_steps = (dag.height() as usize).clamp(8, 256);
    let mut produced = 0usize;
    let mut attempts = 0usize;
    let budget = count.saturating_mul(50) + 1000;
    while produced < count && attempts < budget {
        attempts += 1;
        let u = rng.gen_index(n) as VertexId;
        let mut v = u;
        let steps = 1 + rng.gen_index(max_steps);
        for _ in 0..steps {
            match rng.choose(g.out_neighbors(v)) {
                Some(&w) => v = w,
                None => break,
            }
        }
        if v != u {
            pairs.push((u, v));
            expected.push(true);
            produced += 1;
        }
    }
}

/// Interleaves positives and negatives.
fn shuffle_workload(
    rng: &mut Rng,
    pairs: Vec<(VertexId, VertexId)>,
    expected: Vec<bool>,
) -> Workload {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    rng.shuffle(&mut order);
    Workload {
        pairs: order.iter().map(|&i| pairs[i]).collect(),
        expected: order.iter().map(|&i| expected[i]).collect(),
    }
}

/// The paper's *random* load: uniform vertex pairs with ground truth
/// from bidirectional BFS.
pub fn random_workload(dag: &Dag, count: usize, seed: u64) -> Workload {
    let n = dag.num_vertices();
    let g = dag.graph();
    let mut fwd = TraversalScratch::new(n);
    let mut bwd = TraversalScratch::new(n);
    random_workload_with(dag, count, seed, move |u, v| {
        traversal::bidirectional_reaches(g, u, v, &mut fwd, &mut bwd)
    })
}

/// [`random_workload`] with a caller-provided reachability oracle.
pub fn random_workload_with(
    dag: &Dag,
    count: usize,
    seed: u64,
    mut reach: impl FnMut(VertexId, VertexId) -> bool,
) -> Workload {
    let n = dag.num_vertices();
    let mut pairs = Vec::with_capacity(count);
    let mut expected = Vec::with_capacity(count);
    if n == 0 {
        return Workload { pairs, expected };
    }
    let mut rng = Rng::new(seed);
    for _ in 0..count {
        let u = rng.gen_index(n) as VertexId;
        let v = rng.gen_index(n) as VertexId;
        pairs.push((u, v));
        expected.push(reach(u, v));
    }
    Workload { pairs, expected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::gen;

    #[test]
    fn equal_load_is_balanced_and_correct() {
        let dag = gen::random_dag(200, 600, 1);
        let w = equal_workload(&dag, 1000, 7);
        assert_eq!(w.len(), 1000);
        let ratio = w.positive_ratio();
        assert!(
            (0.45..=0.55).contains(&ratio),
            "positive ratio {ratio} outside tolerance"
        );
        for (&(u, v), &e) in w.pairs.iter().zip(&w.expected) {
            assert_eq!(traversal::reaches(dag.graph(), u, v), e);
        }
    }

    #[test]
    fn random_load_truth_is_correct() {
        let dag = gen::power_law_dag(150, 450, 2);
        let w = random_workload(&dag, 500, 3);
        assert_eq!(w.len(), 500);
        for (&(u, v), &e) in w.pairs.iter().zip(&w.expected) {
            assert_eq!(traversal::reaches(dag.graph(), u, v), e);
        }
    }

    #[test]
    fn random_load_is_mostly_negative_on_sparse_dags() {
        let dag = gen::tree_plus_dag(500, 20, 4);
        let w = random_workload(&dag, 1000, 5);
        assert!(
            w.positive_ratio() < 0.2,
            "sparse DAG random pairs should be mostly unreachable"
        );
    }

    #[test]
    fn workloads_are_deterministic() {
        let dag = gen::random_dag(100, 300, 6);
        let a = equal_workload(&dag, 200, 9);
        let b = equal_workload(&dag, 200, 9);
        assert_eq!(a.pairs, b.pairs);
        let c = equal_workload(&dag, 200, 10);
        assert_ne!(a.pairs, c.pairs);
    }

    #[test]
    fn degenerate_graphs() {
        let dag = Dag::from_edges(1, &[]).unwrap();
        assert!(equal_workload(&dag, 100, 1).is_empty());
        let dag = Dag::from_edges(0, &[]).unwrap();
        assert!(random_workload(&dag, 100, 1).is_empty());
    }
}
