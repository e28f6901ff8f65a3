//! Hierarchical-Labeling (HL) — Algorithm 1 of the paper.
//!
//! Labels flow *down* a hierarchical DAG decomposition
//! ([`crate::hierarchy`]):
//!
//! 1. the **core graph** `G_h` is labeled with a complete oracle — the
//!    paper uses either Formula 3 (when the core diameter ≤ ε) or an
//!    existing 2-hop labeling; we use [`DistributionLabeling`], which is
//!    complete on any DAG and matches the paper's "stop at a small core
//!    and label it directly" practice;
//! 2. every lower level `i = h−1 … 0` labels its vertices
//!    `v ∈ V_i \ V_{i+1}` by Formulas 4–5:
//!    `L_out(v) = N^⌈ε/2⌉_out(v|G_i) ∪ ⋃_{u ∈ B^ε_out(v)} L_out(u)`
//!    (and symmetrically for `L_in`), where `B^ε` are the first-reached
//!    backbone vertex sets of Formulas 1–2.
//!
//! Hop ids in the resulting labels are **original vertex ids** (unlike
//! DL, which stores ranks); lists are sorted and deduplicated as they
//! are merged. The lists are complete; the labeling's reach masks
//! ([`crate::label`]) cover the DAG's [`crate::TOP_HOPS`] highest degree
//! products on top of them, an O(1) shortcut for the pairs those hubs
//! decide.
//!
//! Unlike DL, HL cannot detect that an inherited hop is redundant
//! (§5's motivation for DL) — the `hl_labels_can_be_redundant` test
//! below exhibits exactly that.

use hoplite_graph::traversal::{self, Direction, TraversalScratch};
use hoplite_graph::{Dag, VertexId};

use crate::backbone::backbone_vertex_set;
use crate::distribution::{DistributionLabeling, DlConfig};
use crate::hierarchy::{Hierarchy, HierarchyConfig};
use crate::label::{Labeling, LabelingBuilder};
use crate::oracle::ReachIndex;
use crate::order::OrderKind;

/// How Algorithm 1 labels the core graph `G_h` (its Line 2).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum CoreLabeler {
    /// Label the core with [`DistributionLabeling`] — complete on any
    /// DAG, matching the paper's "employ the existing 2-hop labeling"
    /// practical rule. The default.
    #[default]
    Distribution,
    /// Formula 3: `L_out(v) = N^⌈ε/2⌉_out(v|G_h)` (and symmetrically
    /// for `L_in`). Complete **only when the core diameter is ≤ ε**;
    /// the builder verifies that (all-pairs BFS over the small core)
    /// and falls back to [`CoreLabeler::Distribution`] otherwise —
    /// check [`HierarchicalLabeling::core_formula3_used`].
    EpsilonNeighborhood,
}

/// Configuration for [`HierarchicalLabeling::build`].
#[derive(Clone, Debug)]
pub struct HlConfig {
    /// Locality threshold ε (paper default 2; TF-label ≈ ε = 1).
    pub eps: u32,
    /// Decomposition stops at this core size (§4.1 suggests ≤ 10 K for
    /// the paper's graph sizes; scaled down with our datasets).
    pub core_size_limit: usize,
    /// Hard cap on hierarchy depth.
    pub max_levels: usize,
    /// Vertex order for the core graph's DL labeling.
    pub core_order: OrderKind,
    /// Core labeling strategy (Algorithm 1, Line 2).
    pub core_labeler: CoreLabeler,
}

impl Default for HlConfig {
    fn default() -> Self {
        HlConfig {
            eps: 2,
            core_size_limit: 1_000,
            max_levels: 10,
            core_order: OrderKind::DegProduct,
            core_labeler: CoreLabeler::Distribution,
        }
    }
}

/// A complete reachability oracle built by Hierarchical-Labeling.
#[derive(Clone, Debug)]
pub struct HierarchicalLabeling {
    labeling: Labeling,
    level_sizes: Vec<usize>,
    core_formula3_used: bool,
}

impl HierarchicalLabeling {
    /// Runs Algorithm 1 on `dag`.
    pub fn build(dag: &Dag, cfg: &HlConfig) -> Self {
        let hier = Hierarchy::build(
            dag,
            &HierarchyConfig {
                eps: cfg.eps,
                core_size_limit: cfg.core_size_limit,
                max_levels: cfg.max_levels,
            },
        );
        Self::build_with_hierarchy(dag, cfg, &hier)
    }

    /// Runs the labeling phase against a pre-built hierarchy (exposed
    /// for the ε/core-size ablation benches, which reuse hierarchies).
    pub fn build_with_hierarchy(dag: &Dag, cfg: &HlConfig, hier: &Hierarchy) -> Self {
        let n = dag.num_vertices();
        let mut b = LabelingBuilder::new(n);
        let h = hier.num_levels() - 1;

        // --- Core graph labeling (Algorithm 1, Line 2). ---------------
        let core = hier.core();
        let use_formula3 = cfg.core_labeler == CoreLabeler::EpsilonNeighborhood
            && core_diameter_at_most(&core.dag, cfg.eps);
        if use_formula3 {
            // Formula 3: ⌈ε/2⌉-neighborhoods are complete because every
            // reachable core pair is within ε and thus shares a middle
            // vertex.
            let half = cfg.eps.div_ceil(2);
            let g = core.dag.graph();
            let mut scratch = TraversalScratch::new(core.dag.num_vertices());
            let mut nbhd: Vec<(VertexId, u32)> = Vec::new();
            for c in 0..core.dag.num_vertices() as VertexId {
                let orig = core.to_orig[c as usize] as usize;
                for dir in [Direction::Forward, Direction::Reverse] {
                    nbhd.clear();
                    traversal::bounded_neighborhood(g, c, half, dir, &mut scratch, &mut nbhd);
                    let mut hops: Vec<u32> = nbhd
                        .iter()
                        .map(|&(x, _)| core.to_orig[x as usize])
                        .collect();
                    hops.sort_unstable();
                    match dir {
                        Direction::Forward => b.out[orig] = hops,
                        Direction::Reverse => b.in_[orig] = hops,
                    }
                }
            }
        } else {
            // DL on the core, its complete labels (top hops restored
            // from the reach masks) translated to original ids.
            let dl = DistributionLabeling::build(
                &core.dag,
                &DlConfig {
                    order: cfg.core_order,
                },
            );
            let full = dl.full_labels();
            for c in 0..core.dag.num_vertices() {
                let orig = core.to_orig[c] as usize;
                let translate = |ranks: &[u32]| -> Vec<u32> {
                    let mut hops: Vec<u32> = ranks
                        .iter()
                        .map(|&r| core.to_orig[dl.vertex_at_rank(r) as usize])
                        .collect();
                    hops.sort_unstable();
                    hops
                };
                b.out[orig] = translate(&full.out[c]);
                b.in_[orig] = translate(&full.in_[c]);
            }
        }

        // --- Levels h-1 .. 0: Formulas 4 and 5. -----------------------
        let half = cfg.eps.div_ceil(2);
        for i in (0..h).rev() {
            let level = &hier.levels[i];
            let g = level.dag.graph();
            let mut scratch = TraversalScratch::new(level.dag.num_vertices());
            let mut nbhd: Vec<(VertexId, u32)> = Vec::new();
            let mut bset: Vec<VertexId> = Vec::new();
            let in_next = |c: VertexId| -> bool {
                hier.compact_id(i + 1, level.to_orig[c as usize]).is_some()
            };

            for c in 0..level.dag.num_vertices() as VertexId {
                let orig = level.to_orig[c as usize];
                if hier.level_of[orig as usize] != i as u32 {
                    continue; // labeled at a higher level already
                }
                for dir in [Direction::Forward, Direction::Reverse] {
                    let mut hops: Vec<u32> = Vec::new();
                    // N^{⌈ε/2⌉}(v | G_i), translated to original ids.
                    nbhd.clear();
                    traversal::bounded_neighborhood(g, c, half, dir, &mut scratch, &mut nbhd);
                    hops.extend(nbhd.iter().map(|&(x, _)| level.to_orig[x as usize]));
                    // ⋃ labels of the backbone vertex set B^ε(v | G_i).
                    bset.clear();
                    backbone_vertex_set(g, c, cfg.eps, dir, in_next, &mut scratch, &mut bset);
                    for &u in &bset {
                        let u_orig = level.to_orig[u as usize] as usize;
                        match dir {
                            Direction::Forward => hops.extend_from_slice(&b.out[u_orig]),
                            Direction::Reverse => hops.extend_from_slice(&b.in_[u_orig]),
                        }
                    }
                    hops.sort_unstable();
                    hops.dedup();
                    match dir {
                        Direction::Forward => b.out[orig as usize] = hops,
                        Direction::Reverse => b.in_[orig as usize] = hops,
                    }
                }
            }
        }

        HierarchicalLabeling {
            labeling: b.finish(dag, &OrderKind::DegProduct.compute(dag)),
            level_sizes: hier.level_sizes(),
            core_formula3_used: use_formula3,
        }
    }

    /// Did the core use Formula 3? `false` when
    /// [`CoreLabeler::Distribution`] was configured *or* the diameter
    /// check forced the fallback.
    pub fn core_formula3_used(&self) -> bool {
        self.core_formula3_used
    }

    /// The underlying label store (hop ids are original vertex ids).
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// `|V_0| ≥ |V_1| ≥ … ≥ |V_h|` of the decomposition used.
    pub fn level_sizes(&self) -> &[usize] {
        &self.level_sizes
    }
}

/// `true` iff every *reachable* pair of `dag` is within `eps` steps —
/// the applicability condition of Formula 3. All-pairs bounded BFS;
/// the core graph is small by construction.
fn core_diameter_at_most(dag: &Dag, eps: u32) -> bool {
    let g = dag.graph();
    let n = dag.num_vertices();
    let mut scratch = TraversalScratch::new(n);
    let mut within: Vec<(VertexId, u32)> = Vec::new();
    let mut all: Vec<VertexId> = Vec::new();
    for v in 0..n as VertexId {
        within.clear();
        traversal::bounded_neighborhood(g, v, eps, Direction::Forward, &mut scratch, &mut within);
        all.clear();
        traversal::collect_reachable(g, v, Direction::Forward, &mut scratch, &mut all);
        if within.len() != all.len() {
            return false; // some descendant lies beyond eps steps
        }
    }
    true
}

impl ReachIndex for HierarchicalLabeling {
    fn name(&self) -> &'static str {
        "HL"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        self.labeling.query(u, v)
    }

    fn size_in_integers(&self) -> u64 {
        self.labeling.size_in_integers()
    }

    fn memory_bytes(&self) -> u64 {
        // Include the 16 B/vertex reach-mask records the default
        // 4·size_in_integers() knows nothing about (the complete lists
        // alone are the paper's index size; the masks only shortcut).
        self.labeling.memory().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::gen;

    fn small_cfg() -> HlConfig {
        // Force several levels even on tiny test graphs.
        HlConfig {
            eps: 2,
            core_size_limit: 8,
            max_levels: 10,
            ..HlConfig::default()
        }
    }

    #[test]
    fn diamond_complete() {
        let dag = Dag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let hl = HierarchicalLabeling::build(&dag, &small_cfg());
        traversal::assert_matches_bfs(dag.graph(), "diamond", |u, v| hl.query(u, v));
    }

    #[test]
    fn random_dags_complete() {
        for seed in 0..8 {
            let dag = gen::random_dag(60, 180, seed);
            let hl = HierarchicalLabeling::build(&dag, &small_cfg());
            let what = format!("random_dag seed {seed}");
            traversal::assert_matches_bfs(dag.graph(), &what, |u, v| hl.query(u, v));
        }
    }

    #[test]
    fn complete_across_eps_values() {
        for eps in 1..=3 {
            for seed in 0..4 {
                let dag = gen::random_dag(50, 140, seed);
                let cfg = HlConfig { eps, ..small_cfg() };
                let hl = HierarchicalLabeling::build(&dag, &cfg);
                let what = format!("ε={eps}, random_dag seed {seed}");
                traversal::assert_matches_bfs(dag.graph(), &what, |u, v| hl.query(u, v));
            }
        }
    }

    #[test]
    fn tree_and_powerlaw_and_layered_complete() {
        for seed in 0..4 {
            for (dag, family) in [
                (gen::tree_plus_dag(70, 20, seed), "tree"),
                (gen::power_law_dag(70, 210, seed), "power-law"),
                (gen::layered_dag(70, 5, 160, seed), "layered"),
            ] {
                let hl = HierarchicalLabeling::build(&dag, &small_cfg());
                let what = format!("{family} seed {seed}");
                traversal::assert_matches_bfs(dag.graph(), &what, |u, v| hl.query(u, v));
            }
        }
    }

    #[test]
    fn multi_level_hierarchy_actually_used() {
        let dag = gen::random_dag(400, 1200, 9);
        let hl = HierarchicalLabeling::build(&dag, &small_cfg());
        assert!(
            hl.level_sizes().len() >= 2,
            "expected a real hierarchy, got {:?}",
            hl.level_sizes()
        );
        traversal::assert_matches_bfs(dag.graph(), "random_dag seed 9", |u, v| hl.query(u, v));
    }

    #[test]
    fn degenerate_inputs() {
        let dag = Dag::from_edges(0, &[]).unwrap();
        let hl = HierarchicalLabeling::build(&dag, &HlConfig::default());
        assert_eq!(hl.labeling().total_entries(), 0);

        let dag = Dag::from_edges(1, &[]).unwrap();
        let hl = HierarchicalLabeling::build(&dag, &HlConfig::default());
        assert!(hl.query(0, 0));

        let dag = Dag::from_edges(6, &[]).unwrap();
        let hl = HierarchicalLabeling::build(&dag, &HlConfig::default());
        traversal::assert_matches_bfs(dag.graph(), "edgeless", |u, v| hl.query(u, v));
    }

    #[test]
    fn formula3_core_on_shallow_graph() {
        // A 2-level diamond mesh: every reachable pair within 2 steps,
        // so with a large core limit the whole graph is the core and
        // Formula 3 applies directly.
        let dag = Dag::from_edges(6, &[(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)]).unwrap();
        let cfg = HlConfig {
            core_labeler: CoreLabeler::EpsilonNeighborhood,
            core_size_limit: 100,
            ..HlConfig::default()
        };
        let hl = HierarchicalLabeling::build(&dag, &cfg);
        assert!(
            hl.core_formula3_used(),
            "diameter 2 core must use Formula 3"
        );
        traversal::assert_matches_bfs(dag.graph(), "diamond mesh", |u, v| hl.query(u, v));
    }

    #[test]
    fn formula3_falls_back_on_deep_core() {
        // A path of length 6: core diameter > 2, fallback to DL.
        let edges: Vec<_> = (0..6u32).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(7, &edges).unwrap();
        let cfg = HlConfig {
            core_labeler: CoreLabeler::EpsilonNeighborhood,
            core_size_limit: 100, // whole graph stays the core
            ..HlConfig::default()
        };
        let hl = HierarchicalLabeling::build(&dag, &cfg);
        assert!(!hl.core_formula3_used());
        traversal::assert_matches_bfs(dag.graph(), "path", |u, v| hl.query(u, v));
    }

    /// The complete lists carry reach masks over the DAG's highest
    /// degree products: they decide some pairs, and every answer still
    /// matches BFS.
    #[test]
    fn degree_top_hop_masks_decide_exactly() {
        use crate::label::LabelPath;
        let dag = gen::random_dag(300, 900, 4);
        let cfg = HlConfig {
            core_size_limit: 120,
            ..HlConfig::default()
        };
        let hl = HierarchicalLabeling::build(&dag, &cfg);
        assert!(hl.level_sizes().len() > 1, "{:?}", hl.level_sizes());
        let mut masked = 0;
        traversal::assert_matches_bfs(dag.graph(), "HL, masks", |u, v| {
            let (answer, path) = hl.labeling().query_traced(u, v);
            masked += (path == LabelPath::Masked) as usize;
            answer
        });
        assert!(masked > 0);
    }

    #[test]
    fn formula3_complete_on_random_dags_with_hierarchy() {
        // With a forced deep hierarchy the core may or may not satisfy
        // the diameter bound; either path must stay complete.
        for seed in 0..6 {
            let dag = gen::random_dag(60, 170, seed);
            let cfg = HlConfig {
                core_labeler: CoreLabeler::EpsilonNeighborhood,
                ..small_cfg()
            };
            let hl = HierarchicalLabeling::build(&dag, &cfg);
            let what = format!("formula 3, random_dag seed {seed}");
            traversal::assert_matches_bfs(dag.graph(), &what, |u, v| hl.query(u, v));
        }
    }

    #[test]
    fn diameter_check_is_exact() {
        // Diamond: all reachable pairs within 2.
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert!(core_diameter_at_most(&dag, 2));
        assert!(!core_diameter_at_most(&dag, 1));
        // Edgeless: trivially within 0.
        let dag = Dag::from_edges(3, &[]).unwrap();
        assert!(core_diameter_at_most(&dag, 0));
    }

    /// §5's motivation for DL: HL can emit redundant hops. On a path
    /// graph with a forced deep hierarchy, some label entry can be
    /// removed without losing completeness.
    #[test]
    fn hl_labels_can_be_redundant() {
        use crate::label::sorted_intersect;
        let n = 40;
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(n, &edges).unwrap();
        let cfg = HlConfig {
            core_size_limit: 4,
            ..small_cfg()
        };
        let hl = HierarchicalLabeling::build(&dag, &cfg);
        let out: Vec<Vec<u32>> = (0..n as u32)
            .map(|v| hl.labeling().out_label(v).to_vec())
            .collect();
        let in_: Vec<Vec<u32>> = (0..n as u32)
            .map(|v| hl.labeling().in_label(v).to_vec())
            .collect();
        let complete = |out: &[Vec<u32>], in_: &[Vec<u32>]| {
            (0..n as u32).all(|u| {
                (0..n as u32).all(|v| {
                    (u == v || sorted_intersect(&out[u as usize], &in_[v as usize])) == (u <= v)
                })
            })
        };
        assert!(complete(&out, &in_));
        let mut found_redundant = false;
        'outer: for v in 0..n {
            for k in 0..out[v].len() {
                let mut trimmed = out.clone();
                trimmed[v].remove(k);
                if complete(&trimmed, &in_) {
                    found_redundant = true;
                    break 'outer;
                }
            }
        }
        assert!(
            found_redundant,
            "expected at least one redundant HL hop on a path graph"
        );
    }
}
