//! TF-label (Cheng, Huang, Wu & Fu, SIGMOD 2013) — the paper's TF
//! baseline.
//!
//! §2.4 of the paper: "it can be considered a special case of HL where
//! ε = 1. The hierarchy being constructed … is based on iteratively
//! extracting a reachability backbone with ε = 1, inspired by
//! independent sets." This module instantiates exactly that special
//! case: [`HierarchicalLabeling`] with locality 1, whose per-level
//! backbone is a vertex cover (the complement of an independent set —
//! the topological folding of TF-label).
//!
//! With ε = 1 each level shrinks more slowly than HL's default ε = 2,
//! so TF is allowed more levels and a smaller core.

use hoplite_core::{HierarchicalLabeling, HlConfig, OrderKind, ReachIndex};
use hoplite_graph::{Dag, VertexId};

/// TF-label: topological-folding reachability labels.
pub struct TfLabel {
    inner: HierarchicalLabeling,
}

impl TfLabel {
    /// Builds TF-label with `core_size_limit` controlling where the
    /// folding stops (the inner core is labeled directly).
    pub fn build(dag: &Dag, core_size_limit: usize) -> Self {
        let cfg = HlConfig {
            eps: 1,
            core_size_limit,
            max_levels: 16,
            core_order: OrderKind::DegProduct,
            ..HlConfig::default()
        };
        TfLabel {
            inner: HierarchicalLabeling::build(dag, &cfg),
        }
    }

    /// Level sizes of the folding hierarchy.
    pub fn level_sizes(&self) -> &[usize] {
        self.inner.level_sizes()
    }

    /// The underlying labeling.
    pub fn labeling(&self) -> &hoplite_core::Labeling {
        self.inner.labeling()
    }
}

impl ReachIndex for TfLabel {
    fn name(&self) -> &'static str {
        "TF"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        self.inner.query(u, v)
    }

    fn size_in_integers(&self) -> u64 {
        self.inner.size_in_integers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::gen;

    #[test]
    fn folds_into_multiple_levels() {
        let dag = gen::random_dag(300, 900, 5);
        let idx = TfLabel::build(&dag, 16);
        assert!(
            idx.level_sizes().len() >= 2,
            "ε=1 folding should produce a hierarchy: {:?}",
            idx.level_sizes()
        );
    }
}
