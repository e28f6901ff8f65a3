//! Hierarchical DAG decomposition (Definition 2).
//!
//! Recursively extracts reachability backbones:
//! `G_0 = G ⊃ G_1 ⊃ G_2 ⊃ … ⊃ G_h`, where each `G_{i+1}` is the
//! one-side reachability backbone of `G_i`. The final `G_h` is the
//! *core graph*. Each vertex is assigned the highest level containing
//! it; Hierarchical-Labeling then labels level by level, top down.
//!
//! Decomposition stops when any of the paper's practical rules fires
//! (§4.1): the level graph is at most `core_size_limit` vertices, the
//! level cap `max_levels` is reached, or the backbone stops shrinking.

use hoplite_graph::{Dag, VertexId, INVALID_VERTEX};

use crate::backbone::Backbone;

/// One level `G_i` of the decomposition.
#[derive(Clone, Debug)]
pub struct Level {
    /// The level graph over compact ids `0..|V_i|`.
    pub dag: Dag,
    /// `to_orig[c]` = the original (`G_0`) vertex of compact vertex `c`.
    pub to_orig: Vec<VertexId>,
}

/// Stop rules for [`Hierarchy::build`].
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// Locality threshold ε (paper default: 2).
    pub eps: u32,
    /// Stop when a level has at most this many vertices (paper: "stop
    /// the decomposition when `V_h` is small enough, typically < 10K").
    pub core_size_limit: usize,
    /// Hard cap on the number of levels (paper suggests ~10).
    pub max_levels: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            eps: 2,
            core_size_limit: 1_000,
            max_levels: 10,
        }
    }
}

/// A complete hierarchical decomposition of a DAG.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// `levels[i]` is `G_i`; `levels[0]` is the input graph.
    pub levels: Vec<Level>,
    /// `level_of[v]` = highest level whose vertex set contains original
    /// vertex `v` (`level(v)` in the paper's notation).
    pub level_of: Vec<u32>,
    /// `orig_to_level[i][v]` = compact id of original vertex `v` in
    /// `G_i`, or [`INVALID_VERTEX`] if `v ∉ V_i`.
    orig_to_level: Vec<Vec<VertexId>>,
}

impl Hierarchy {
    /// Builds the decomposition of `dag`.
    pub fn build(dag: &Dag, cfg: &HierarchyConfig) -> Hierarchy {
        assert!(cfg.eps >= 1, "locality threshold must be at least 1");
        assert!(cfg.max_levels >= 1);
        let n = dag.num_vertices();
        let mut levels = vec![Level {
            dag: dag.clone(),
            to_orig: (0..n as VertexId).collect(),
        }];
        let mut orig_to_level = vec![(0..n as VertexId).collect::<Vec<_>>()];

        while levels.len() < cfg.max_levels {
            let cur = levels.last().expect("at least level 0");
            if cur.dag.num_vertices() <= cfg.core_size_limit {
                break;
            }
            let bb = Backbone::extract(&cur.dag, cfg.eps);
            let shrunk = bb.num_vertices() < cur.dag.num_vertices();
            if bb.num_vertices() == 0 || !shrunk {
                break;
            }
            // Compose mappings: backbone ids -> current-level ids -> orig.
            let to_orig: Vec<VertexId> = bb
                .to_parent
                .iter()
                .map(|&p| cur.to_orig[p as usize])
                .collect();
            let mut o2l = vec![INVALID_VERTEX; n];
            for (c, &orig) in to_orig.iter().enumerate() {
                o2l[orig as usize] = c as VertexId;
            }
            orig_to_level.push(o2l);
            levels.push(Level {
                dag: bb.dag,
                to_orig,
            });
        }

        let mut level_of = vec![0u32; n];
        for (i, lvl) in levels.iter().enumerate() {
            for &orig in &lvl.to_orig {
                level_of[orig as usize] = i as u32;
            }
        }
        Hierarchy {
            levels,
            level_of,
            orig_to_level,
        }
    }

    /// Number of levels `h + 1` (level 0 through the core).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The core graph `G_h`.
    pub fn core(&self) -> &Level {
        self.levels.last().expect("at least level 0")
    }

    /// Compact id of original vertex `v` in level `i`, if present.
    pub fn compact_id(&self, i: usize, v: VertexId) -> Option<VertexId> {
        let c = self.orig_to_level[i][v as usize];
        (c != INVALID_VERTEX).then_some(c)
    }

    /// Vertex counts per level, `|V_0| ≥ |V_1| ≥ …` (useful for the
    /// decomposition statistics the paper reports).
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.dag.num_vertices()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::{gen, traversal};

    #[test]
    fn levels_strictly_shrink() {
        let dag = gen::random_dag(500, 1500, 1);
        let h = Hierarchy::build(
            &dag,
            &HierarchyConfig {
                eps: 2,
                core_size_limit: 10,
                max_levels: 10,
            },
        );
        let sizes = h.level_sizes();
        assert!(sizes.len() >= 2, "expected at least one backbone level");
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "levels must strictly shrink: {sizes:?}");
        }
    }

    #[test]
    fn level_of_matches_membership() {
        let dag = gen::random_dag(200, 600, 2);
        let h = Hierarchy::build(&dag, &HierarchyConfig::default_small());
        for v in 0..200 as VertexId {
            let lv = h.level_of[v as usize] as usize;
            assert!(h.compact_id(lv, v).is_some());
            if lv + 1 < h.num_levels() {
                assert!(h.compact_id(lv + 1, v).is_none());
            }
            // Present in every level up to its own.
            for i in 0..=lv {
                assert!(h.compact_id(i, v).is_some());
            }
        }
    }

    #[test]
    fn reachability_preserved_per_level() {
        // Lemma 1: for u, v in V_i, reachability in G_i equals G_0.
        let dag = gen::random_dag(120, 360, 3);
        let h = Hierarchy::build(&dag, &HierarchyConfig::default_small());
        for i in 1..h.num_levels() {
            let lvl = &h.levels[i];
            traversal::assert_matches_bfs(lvl.dag.graph(), &format!("level {i}"), |a, b| {
                let (a, b) = (lvl.to_orig[a as usize], lvl.to_orig[b as usize]);
                traversal::reaches(dag.graph(), a, b)
            });
        }
    }

    #[test]
    fn small_graph_is_its_own_core() {
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let h = Hierarchy::build(&dag, &HierarchyConfig::default());
        assert_eq!(h.num_levels(), 1, "under core_size_limit: no extraction");
        assert_eq!(h.core().dag.num_vertices(), 4);
    }

    #[test]
    fn max_levels_respected() {
        let dag = gen::random_dag(2000, 6000, 4);
        let h = Hierarchy::build(
            &dag,
            &HierarchyConfig {
                eps: 2,
                core_size_limit: 1,
                max_levels: 3,
            },
        );
        assert!(h.num_levels() <= 3);
    }

    impl HierarchyConfig {
        /// Test helper: small core so several levels appear.
        fn default_small() -> Self {
            HierarchyConfig {
                eps: 2,
                core_size_limit: 8,
                max_levels: 10,
            }
        }
    }
}
