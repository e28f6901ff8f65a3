//! Fully materialized transitive closure — the O(n²) reference point.

use hoplite_core::ReachIndex;
use hoplite_graph::{Dag, GraphError, TransitiveClosure, VertexId};

/// Uncompressed bit-matrix transitive closure.
///
/// Constant-time queries, quadratic memory: the upper bound every
/// compression approach in the paper is measured against.
pub struct FullTc {
    tc: TransitiveClosure,
}

impl FullTc {
    /// Materializes the closure, failing if it would exceed
    /// `budget_bytes` (emulating the paper's out-of-memory "—" entries).
    pub fn build(dag: &Dag, budget_bytes: u64) -> Result<Self, GraphError> {
        Ok(FullTc {
            tc: TransitiveClosure::build_with_budget(dag, budget_bytes)?,
        })
    }

    /// The underlying closure.
    pub fn closure(&self) -> &TransitiveClosure {
        &self.tc
    }
}

impl ReachIndex for FullTc {
    fn name(&self) -> &'static str {
        "TC"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        self.tc.reaches(u, v)
    }

    fn size_in_integers(&self) -> u64 {
        // Bit-matrix words counted as two 32-bit integers each.
        (self.tc.memory_bytes() as u64) / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::gen;

    #[test]
    fn budget_enforced() {
        let dag = gen::random_dag(5000, 10000, 1);
        assert!(FullTc::build(&dag, 1000).is_err());
    }
}
