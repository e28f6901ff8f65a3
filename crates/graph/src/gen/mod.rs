//! Seeded synthetic DAG generators.
//!
//! These stand in for the paper's real-world datasets (Table 1), one
//! generator family per dataset family:
//!
//! * [`tree_plus_dag`] — metabolic / ontology graphs (agrocyc, kegg,
//!   ecoo, go_uniprot, uniprotenc…): |E| ≈ |V|, shallow and tree-like.
//! * [`power_law_dag`] — citation and web/social graphs (citeseer,
//!   cit-Patents, arxiv, web, wiki, lj): heavy-tailed in-degrees.
//! * [`random_dag`] — uniform Erdős–Rényi DAGs (p2p-like).
//! * [`layered_dag`] — XML-ish layered documents (xmark).
//! * [`grid_dag`] — deterministic worst-case-ish lattice used in tests.
//! * [`random_digraph`] — a cyclic digraph (not a [`Dag`]) for the
//!   layers that condense SCCs first.
//!
//! All generators are deterministic in `(parameters, seed)`. The DAG
//! families return validated [`Dag`]s: edges always go from a smaller
//! to a larger position in a hidden random permutation, so acyclicity
//! holds by construction (and is re-checked by `Dag::new`).

mod rng;

pub use rng::Rng;

use crate::dag::Dag;
use crate::digraph::{DiGraph, GraphBuilder};
use crate::hash::FxHashSet;
use crate::VertexId;

/// Maximum number of edges an `n`-vertex DAG can have.
fn max_edges(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

/// Uniform random DAG with `n` vertices and (up to) `m` edges.
///
/// Vertex ids are randomly permuted so that id order carries no
/// topological information (several baselines are sensitive to that).
/// `m` is clamped to the maximum possible `n·(n−1)/2`.
///
/// ```
/// use hoplite_graph::gen;
/// let dag = gen::random_dag(100, 250, 42);
/// assert_eq!(dag.num_vertices(), 100);
/// assert_eq!(dag.num_edges(), 250);
/// // Same seed, same graph:
/// assert_eq!(dag.graph(), gen::random_dag(100, 250, 42).graph());
/// ```
pub fn random_dag(n: usize, m: usize, seed: u64) -> Dag {
    let mut rng = Rng::new(seed);
    let m = (m as u64).min(max_edges(n)) as usize;
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);

    let mut chosen: FxHashSet<(u32, u32)> = FxHashSet::default();
    chosen.reserve(m);
    let mut b = GraphBuilder::with_capacity(n, m);
    // Dense fallback: when m is close to the maximum, rejection sampling
    // thrashes; enumerate all pairs and sample instead.
    if n >= 2 && (m as u64) * 3 > max_edges(n) * 2 {
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(max_edges(n) as usize);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                pairs.push((i, j));
            }
        }
        rng.shuffle(&mut pairs);
        for &(i, j) in pairs.iter().take(m) {
            b.add_edge_unchecked(perm[i as usize], perm[j as usize]);
        }
    } else if n >= 2 {
        while chosen.len() < m {
            let i = rng.gen_index(n) as u32;
            let j = rng.gen_index(n) as u32;
            if i == j {
                continue;
            }
            let (i, j) = if i < j { (i, j) } else { (j, i) };
            if chosen.insert((i, j)) {
                b.add_edge_unchecked(perm[i as usize], perm[j as usize]);
            }
        }
    }
    Dag::new(b.build()).expect("generator emits forward edges only")
}

/// Citation-style DAG with preferential attachment (heavy-tailed
/// in-degree on "old" vertices, like heavily cited papers).
///
/// Vertices arrive one at a time; each vertex draws ~`m/n` out-edges to
/// earlier vertices, choosing an endpoint from the attachment pool with
/// probability `1 − uniform_mix` (rich get richer) and uniformly
/// otherwise. `uniform_mix = 0.2` matches observed citation-graph tails
/// reasonably; the exact constant only shapes the skew.
pub fn power_law_dag(n: usize, m: usize, seed: u64) -> Dag {
    let mut rng = Rng::new(seed);
    let m = (m as u64).min(max_edges(n)) as usize;
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);

    const UNIFORM_MIX: f64 = 0.2;
    let mut b = GraphBuilder::with_capacity(n, m);
    if n >= 2 && m > 0 {
        // pool holds one entry per edge endpoint + one per vertex, so
        // sampling from it is degree-proportional.
        let mut pool: Vec<u32> = Vec::with_capacity(m + n);
        pool.push(0);
        let mut emitted = 0usize;
        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        for v in 1..n as u32 {
            // Distribute remaining edges evenly over remaining vertices.
            let remaining_vertices = (n as u32 - v) as usize;
            let k = (m - emitted).div_ceil(remaining_vertices).min(v as usize);
            for _ in 0..k {
                let t = if rng.gen_bool(UNIFORM_MIX) || pool.is_empty() {
                    rng.gen_range(v as u64) as u32
                } else {
                    *rng.choose(&pool).expect("pool nonempty")
                };
                if t < v && seen.insert((t, v)) {
                    // New vertex cites old: edge new -> old, so heavily
                    // cited vertices accrue in-degree (the citation-graph
                    // heavy tail).
                    b.add_edge_unchecked(perm[v as usize], perm[t as usize]);
                    pool.push(t);
                    emitted += 1;
                }
            }
            pool.push(v);
        }
    }
    Dag::new(b.build()).expect("generator emits forward edges only")
}

/// Tree-like DAG: a random spanning tree plus `extra` forward cross
/// edges. With `extra ≪ n` this matches the metabolic / ontology
/// datasets of the paper, where |E| ≈ 1.05·|V| and most vertices have a
/// single parent.
pub fn tree_plus_dag(n: usize, extra: usize, seed: u64) -> Dag {
    let mut rng = Rng::new(seed);
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);

    let mut b = GraphBuilder::with_capacity(n, n + extra);
    for v in 1..n as u32 {
        let parent = rng.gen_range(v as u64) as u32;
        b.add_edge_unchecked(perm[parent as usize], perm[v as usize]);
    }
    let mut added = 0usize;
    let mut attempts = 0usize;
    let budget = extra.saturating_mul(20) + 100;
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    while n >= 2 && added < extra && attempts < budget {
        attempts += 1;
        let i = rng.gen_index(n) as u32;
        let j = rng.gen_index(n) as u32;
        if i == j {
            continue;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        if seen.insert((i, j)) {
            b.add_edge_unchecked(perm[i as usize], perm[j as usize]);
            added += 1;
        }
    }
    Dag::new(b.build()).expect("generator emits forward edges only")
}

/// Sparse random forest DAG with exactly `m ≤ n−1` parent edges:
/// `m` randomly chosen vertices receive one parent each (uniform among
/// their predecessors in a hidden permutation). Several of the paper's
/// condensed datasets have |E| < |V| (citeseer, the uniprotenc family);
/// this is their generator.
pub fn forest_dag(n: usize, m: usize, seed: u64) -> Dag {
    let mut rng = Rng::new(seed);
    let m = m.min(n.saturating_sub(1));
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);
    // Choose which of the vertices 1..n get a parent.
    let mut children: Vec<u32> = (1..n as u32).collect();
    rng.shuffle(&mut children);
    children.truncate(m);
    let mut b = GraphBuilder::with_capacity(n, m);
    for &v in &children {
        let parent = rng.gen_range(v as u64) as u32;
        b.add_edge_unchecked(perm[parent as usize], perm[v as usize]);
    }
    Dag::new(b.build()).expect("generator emits forward edges only")
}

/// Layered DAG: `layers` strata; edges go from one layer to the next
/// (90 %) or skip one layer (10 %). Models XML-document shapes (xmark).
pub fn layered_dag(n: usize, layers: usize, m: usize, seed: u64) -> Dag {
    assert!(layers >= 2, "layered_dag needs at least two layers");
    let mut rng = Rng::new(seed);
    let m = (m as u64).min(max_edges(n)) as usize;
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);
    // Layer of (pre-permutation) vertex i: proportional split.
    let layer_of = |i: usize| -> usize { i * layers / n.max(1) };
    let layer_bounds: Vec<(usize, usize)> = (0..layers)
        .map(|l| {
            let lo = l * n / layers;
            let hi = ((l + 1) * n / layers).max(lo);
            (lo, hi)
        })
        .collect();

    let mut b = GraphBuilder::with_capacity(n, m);
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut added = 0usize;
    let mut attempts = 0usize;
    let budget = m.saturating_mul(20) + 100;
    while n >= 2 && added < m && attempts < budget {
        attempts += 1;
        let u = rng.gen_index(n);
        let lu = layer_of(u);
        let skip = if rng.gen_bool(0.1) { 2 } else { 1 };
        let lt = lu + skip;
        if lt >= layers {
            continue;
        }
        let (lo, hi) = layer_bounds[lt];
        if lo == hi {
            continue;
        }
        let v = lo + rng.gen_index(hi - lo);
        if seen.insert((u as u32, v as u32)) {
            b.add_edge_unchecked(perm[u], perm[v]);
            added += 1;
        }
    }
    Dag::new(b.build()).expect("generator emits forward edges only")
}

/// Bundle of `chains` parallel deep chains plus `cross` random
/// forward cross edges — the `deep_chain` perf family.
///
/// Hidden positions `0..n` are dealt round-robin onto the chains
/// (chain `c` owns positions `c, c+chains, c+2·chains, …`), every
/// chain links consecutive positions, and cross edges go from a
/// smaller to a larger position — so acyclicity holds by construction
/// and every chain is `n/chains` deep. The shape is adversarial for
/// the level-cut pre-filter: all chains share the same level profile,
/// so cross-chain pairs survive it about half the time and the later
/// layers must carry the load (measured in `BENCH_4.json`: the
/// doubled GRAIL interval cuts absorb most cross-chain negatives
/// before the reach-mask stage ever sees them).
pub fn deep_chain_dag(n: usize, chains: usize, cross: usize, seed: u64) -> Dag {
    assert!(chains >= 1, "deep_chain_dag needs at least one chain");
    let mut rng = Rng::new(seed);
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);

    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(chains) + cross);
    // Chain links: position p → p + chains (same chain, next depth).
    for p in 0..n.saturating_sub(chains) {
        b.add_edge_unchecked(perm[p], perm[p + chains]);
    }
    let mut added = 0usize;
    let mut attempts = 0usize;
    let budget = cross.saturating_mul(20) + 100;
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    while n >= 2 && added < cross && attempts < budget {
        attempts += 1;
        let i = rng.gen_index(n) as u32;
        let j = rng.gen_index(n) as u32;
        if i == j {
            continue;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        // Skip pairs that duplicate a chain link.
        if j as usize == i as usize + chains {
            continue;
        }
        if seen.insert((i, j)) {
            b.add_edge_unchecked(perm[i as usize], perm[j as usize]);
            added += 1;
        }
    }
    Dag::new(b.build()).expect("generator emits forward edges only")
}

/// Kronecker/R-MAT-style DAG with `1 << scale` vertices and (up to)
/// `edges` edges — the `kronecker` perf family (scale-free degrees and
/// a self-similar adjacency structure, after Chakrabarti, Zhan &
/// Faloutsos, and the Graph500 generator).
///
/// Each edge endpoint pair is drawn by `scale` recursive quadrant
/// choices with the Graph500 probabilities `(a, b, c, d) =
/// (0.57, 0.19, 0.19, 0.05)`; a hidden random priority permutation
/// orients every sampled pair from lower to higher priority, so the
/// result is acyclic by construction while keeping the Kronecker block
/// structure on vertex ids.
pub fn kronecker_dag(scale: u32, edges: usize, seed: u64) -> Dag {
    assert!(scale <= 30, "kronecker_dag scale {scale} is unreasonable");
    let n = 1usize << scale;
    let mut rng = Rng::new(seed);
    let edges = (edges as u64).min(max_edges(n)) as usize;
    // prio is a topological order over vertex ids; sampled pairs are
    // oriented along it.
    let mut prio: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut prio);

    let (a, b_p, c_p) = (0.57, 0.19, 0.19);
    let sample = |rng: &mut Rng| -> (u32, u32) {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let x = rng.gen_f64();
            if x < a {
                // top-left quadrant: neither bit set
            } else if x < a + b_p {
                v |= 1;
            } else if x < a + b_p + c_p {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        (u, v)
    };

    let mut builder = GraphBuilder::with_capacity(n, edges);
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut added = 0usize;
    let mut attempts = 0usize;
    let budget = edges.saturating_mul(20) + 100;
    while n >= 2 && added < edges && attempts < budget {
        attempts += 1;
        let (u, v) = sample(&mut rng);
        if u == v {
            continue;
        }
        let (u, v) = if prio[u as usize] < prio[v as usize] {
            (u, v)
        } else {
            (v, u)
        };
        if seen.insert((u, v)) {
            builder.add_edge_unchecked(u, v);
            added += 1;
        }
    }
    Dag::new(builder.build()).expect("priority-oriented edges are acyclic")
}

/// Random digraph with `n` vertices and up to `m` edges: `m` uniform
/// endpoint draws, self-loops skipped, so cycles and duplicate edges
/// are very much included. The cyclic input every SCC-condensing layer
/// is tested on.
///
/// ```
/// use hoplite_graph::gen;
/// let g = gen::random_digraph(30, 90, 7);
/// assert_eq!(g.num_vertices(), 30);
/// assert_eq!(g, gen::random_digraph(30, 90, 7));
/// ```
pub fn random_digraph(n: usize, m: usize, seed: u64) -> DiGraph {
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

/// Deterministic `rows × cols` grid DAG with edges right and down.
/// Dense reachability and long paths; handy in tests and ablations.
pub fn grid_dag(rows: usize, cols: usize) -> Dag {
    let n = rows * cols;
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge_unchecked(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge_unchecked(id(r, c), id(r + 1, c));
            }
        }
    }
    Dag::new(b.build()).expect("grid is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_dag_shape() {
        let d = random_dag(100, 300, 1);
        assert_eq!(d.num_vertices(), 100);
        assert_eq!(d.num_edges(), 300);
    }

    #[test]
    fn random_dag_deterministic() {
        let a = random_dag(50, 120, 7);
        let b = random_dag(50, 120, 7);
        assert_eq!(a.graph(), b.graph());
        let c = random_dag(50, 120, 8);
        assert_ne!(a.graph(), c.graph());
    }

    #[test]
    fn random_dag_dense_request_clamped() {
        // Ask for more edges than possible.
        let d = random_dag(10, 1000, 3);
        assert_eq!(d.num_edges(), 45);
    }

    #[test]
    fn random_dag_degenerate_sizes() {
        assert_eq!(random_dag(0, 10, 1).num_vertices(), 0);
        assert_eq!(random_dag(1, 10, 1).num_edges(), 0);
        assert_eq!(random_dag(2, 1, 1).num_edges(), 1);
    }

    #[test]
    fn power_law_dag_has_skew() {
        let d = power_law_dag(2000, 8000, 42);
        assert_eq!(d.num_vertices(), 2000);
        assert!(d.num_edges() >= 7000, "got {} edges", d.num_edges());
        let max_in = (0..2000u32).map(|v| d.in_degree(v)).max().unwrap();
        let avg_in = d.num_edges() as f64 / 2000.0;
        assert!(
            (max_in as f64) > avg_in * 5.0,
            "expected heavy tail: max in-degree {max_in}, avg {avg_in:.1}"
        );
    }

    #[test]
    fn tree_plus_dag_is_connected_tree_plus_extras() {
        let d = tree_plus_dag(500, 25, 9);
        assert_eq!(d.num_vertices(), 500);
        assert_eq!(d.num_edges(), 499 + 25);
        // Exactly one root in a tree (+extras never add roots... they may
        // remove none); every vertex except the root has >= 1 parent.
        let roots: Vec<_> = d.graph().roots().collect();
        assert_eq!(roots.len(), 1);
    }

    #[test]
    fn forest_dag_shape() {
        let d = forest_dag(1000, 450, 3);
        assert_eq!(d.num_vertices(), 1000);
        assert_eq!(d.num_edges(), 450);
        // Forest: every vertex has at most one parent.
        for v in 0..1000u32 {
            assert!(d.in_degree(v) <= 1);
        }
        // Over-asking is clamped to a spanning tree.
        let d = forest_dag(10, 100, 4);
        assert_eq!(d.num_edges(), 9);
    }

    #[test]
    fn layered_dag_respects_layers() {
        let d = layered_dag(400, 8, 1200, 5);
        assert_eq!(d.num_vertices(), 400);
        assert!(d.num_edges() > 1000);
        // The longest path cannot exceed the layer count.
        assert!(d.height() <= 8);
    }

    #[test]
    fn grid_dag_shape_and_height() {
        let d = grid_dag(4, 5);
        assert_eq!(d.num_vertices(), 20);
        // Edges: right 4*(5-1)=16, down (4-1)*5=15.
        assert_eq!(d.num_edges(), 31);
        assert_eq!(d.height(), 8); // path of length (4-1)+(5-1)=7 → 8 vertices
    }

    #[test]
    fn deep_chain_dag_is_deep_and_deterministic() {
        let d = deep_chain_dag(1000, 10, 100, 3);
        assert_eq!(d.num_vertices(), 1000);
        assert_eq!(d.num_edges(), 990 + 100);
        // Every chain is n/chains deep; each cross edge on a path can
        // add at most one extra step, so the height stays deep and
        // close to the chain length.
        assert!(
            (100..=100 + 100).contains(&d.height()),
            "height {}",
            d.height()
        );
        assert_eq!(d.graph(), deep_chain_dag(1000, 10, 100, 3).graph());
        // Single chain degenerates to a path.
        let path = deep_chain_dag(50, 1, 0, 4);
        assert_eq!(path.num_edges(), 49);
        assert_eq!(path.height(), 50);
    }

    #[test]
    fn kronecker_dag_shape_and_skew() {
        let d = kronecker_dag(11, 8_192, 42);
        assert_eq!(d.num_vertices(), 2048);
        assert!(d.num_edges() >= 7_000, "got {} edges", d.num_edges());
        assert_eq!(d.graph(), kronecker_dag(11, 8_192, 42).graph());
        // R-MAT's 0.57 corner concentrates degree on low ids: the tail
        // must be heavy relative to the mean (scale-free-ish).
        let max_deg = (0..2048u32)
            .map(|v| d.in_degree(v) + d.out_degree(v))
            .max()
            .unwrap();
        let avg = 2.0 * d.num_edges() as f64 / 2048.0;
        assert!(
            max_deg as f64 > avg * 5.0,
            "expected heavy tail: max degree {max_deg}, avg {avg:.1}"
        );
    }

    #[test]
    fn generators_produce_valid_dags() {
        // Dag::new re-validates; reaching here means acyclicity held.
        for seed in 0..5 {
            random_dag(64, 200, seed);
            power_law_dag(64, 200, seed);
            tree_plus_dag(64, 20, seed);
            layered_dag(64, 4, 150, seed);
            deep_chain_dag(64, 4, 30, seed);
            kronecker_dag(6, 150, seed);
        }
    }
}
