//! Vertex-order (rank) functions.
//!
//! Distribution-Labeling replaces the recursive hierarchy with "the
//! simplest hierarchy — a total order" (§5). The paper's chosen rank is
//! the degree product `(|N_out(v)|+1)·(|N_in(v)|+1)`, which counts the
//! vertex pairs within distance 2 that `v` can cover. The alternatives
//! here exist for the DL order table of `paper ablation`.

use hoplite_graph::gen::Rng;
use hoplite_graph::{Dag, TransitiveClosure, VertexId};

/// Rank function selecting the processing order of hops.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum OrderKind {
    /// `(|N_out|+1)·(|N_in|+1)`, descending — the paper's choice.
    #[default]
    DegProduct,
    /// `|N_out| + |N_in|`, descending.
    DegSum,
    /// Uniformly random order with the given seed (ablation control).
    Random(u64),
    /// Topological order, sources first (ablation: a *bad* order for
    /// DAGs with long paths — early hops cover few pairs).
    Topological,
    /// Exact covering power `|Cov(v)| = |TC⁻¹(v)|·|TC(v)|`, descending
    /// — the order §5.2 names as principled "but this still needs to
    /// compute transitive closure". Provided for the ordering ablation
    /// on graphs small enough to materialize TC; `compute` panics if
    /// the closure would exceed ~256 MiB.
    CoverSize,
}

impl OrderKind {
    /// Short name for table output.
    pub fn name(&self) -> &'static str {
        match self {
            OrderKind::DegProduct => "deg-product",
            OrderKind::DegSum => "deg-sum",
            OrderKind::Random(_) => "random",
            OrderKind::Topological => "topological",
            OrderKind::CoverSize => "cov-size",
        }
    }

    /// Vertices of `dag` in processing order (highest importance
    /// first). Ties break by vertex id for determinism.
    pub fn compute(&self, dag: &Dag) -> Vec<VertexId> {
        let n = dag.num_vertices();
        match self {
            OrderKind::DegProduct => {
                let mut v: Vec<VertexId> = (0..n as VertexId).collect();
                let key =
                    |x: &VertexId| (dag.out_degree(*x) as u64 + 1) * (dag.in_degree(*x) as u64 + 1);
                v.sort_by(|a, b| key(b).cmp(&key(a)).then(a.cmp(b)));
                v
            }
            OrderKind::DegSum => {
                let mut v: Vec<VertexId> = (0..n as VertexId).collect();
                let key = |x: &VertexId| (dag.out_degree(*x) + dag.in_degree(*x)) as u64;
                v.sort_by(|a, b| key(b).cmp(&key(a)).then(a.cmp(b)));
                v
            }
            OrderKind::Random(seed) => {
                let mut v: Vec<VertexId> = (0..n as VertexId).collect();
                Rng::new(*seed).shuffle(&mut v);
                v
            }
            OrderKind::Topological => dag.topo_order().to_vec(),
            OrderKind::CoverSize => {
                let tc = TransitiveClosure::build_with_budget(dag, 256 << 20)
                    .expect("CoverSize order needs the TC to fit in 256 MiB");
                // |TC(v)| per vertex (including v itself), and its
                // reverse by transposing counts over rows.
                let mut fwd = vec![0u64; n];
                let mut rev = vec![0u64; n];
                for (u, fwd_u) in fwd.iter_mut().enumerate() {
                    for v in tc.row(u as VertexId).ones() {
                        *fwd_u += 1;
                        rev[v] += 1;
                    }
                }
                let mut v: Vec<VertexId> = (0..n as VertexId).collect();
                // +1 on both sides counts v as its own ancestor and
                // descendant, matching Cov's closed form.
                let key = |x: &VertexId| (fwd[*x as usize] + 1) * (rev[*x as usize] + 1);
                v.sort_by(|a, b| key(b).cmp(&key(a)).then(a.cmp(b)));
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> Dag {
        // 0 -> {1..4}; 5 -> 0. Vertex 0 has the largest degree product.
        Dag::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (5, 0)]).unwrap()
    }

    #[test]
    fn deg_product_puts_hub_first() {
        let order = OrderKind::DegProduct.compute(&star());
        assert_eq!(order[0], 0, "hub has (4+1)*(1+1)=10, others <= 2");
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn deg_sum_puts_hub_first() {
        let order = OrderKind::DegSum.compute(&star());
        assert_eq!(order[0], 0);
    }

    #[test]
    fn random_is_seeded_permutation() {
        let d = star();
        let a = OrderKind::Random(1).compute(&d);
        let b = OrderKind::Random(1).compute(&d);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn topological_respects_edges() {
        let d = star();
        let order = OrderKind::Topological.compute(&d);
        let pos = |v: VertexId| order.iter().position(|&x| x == v).unwrap();
        for (u, v) in d.graph().edges() {
            assert!(pos(u) < pos(v));
        }
    }

    #[test]
    fn ties_break_by_id() {
        // All vertices identical degree: order must be 0..n.
        let d = Dag::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let order = OrderKind::DegProduct.compute(&d);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn names() {
        assert_eq!(OrderKind::default().name(), "deg-product");
        assert_eq!(OrderKind::Random(3).name(), "random");
        assert_eq!(OrderKind::CoverSize.name(), "cov-size");
    }

    #[test]
    fn cover_size_ranks_path_center_first() {
        // On a path every vertex ties under DegProduct, but CoverSize
        // sees the middle vertex covering the most pairs:
        // Cov(v) = (ancestors+1)·(descendants+1), maximal at the center.
        let edges: Vec<(u32, u32)> = (0..4).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(5, &edges).unwrap();
        let order = OrderKind::CoverSize.compute(&dag);
        assert_eq!(order[0], 2, "center covers 3*3=9 pairs");
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn cover_size_beats_degree_on_decoy_hub() {
        // Vertex 7 fans out to six leaves: degree product (6+1)·(0+1)=7
        // beats every internal path vertex's (1+1)·(1+1)=4, but it
        // covers only the 7 pairs it touches. The 7-vertex path's
        // center covers (3+1)·(3+1)=16.
        let mut edges: Vec<(u32, u32)> = (0..6).map(|i| (i, i + 1)).collect();
        for leaf in 8..14 {
            edges.push((7, leaf));
        }
        let dag = Dag::from_edges(14, &edges).unwrap();
        let deg = OrderKind::DegProduct.compute(&dag);
        let cov = OrderKind::CoverSize.compute(&dag);
        assert_eq!(deg[0], 7, "degree product falls for the fan");
        assert_eq!(cov[0], 3, "covering power sees the path center");
    }
}
