//! # hoplite
//!
//! A fast, compact, scalable **reachability oracle** for directed
//! graphs — a production-oriented implementation of *“Simple, Fast,
//! and Scalable Reachability Oracle”* (Ruoming Jin & Guan Wang,
//! PVLDB 2013), together with every baseline index its evaluation
//! compares against.
//!
//! ## The 30-second version
//!
//! ```
//! use hoplite::{DiGraph, Oracle};
//!
//! // Any directed graph — cycles welcome (they are condensed away).
//! let g = DiGraph::from_edges(6, &[
//!     (0, 1), (1, 2), (2, 0),  // a strongly connected component
//!     (2, 3), (3, 4), (5, 3),
//! ]).unwrap();
//!
//! let oracle = Oracle::new(&g);
//! assert!(oracle.reaches(0, 4));   // through the SCC and onwards
//! assert!(oracle.reaches(1, 0));   // inside the SCC
//! assert!(!oracle.reaches(4, 5));
//! ```
//!
//! ## Crate map
//!
//! * [`hoplite_graph`] (re-exported as [`graph`]) — CSR digraphs, SCC
//!   condensation, DAG utilities, traversals, transitive closure,
//!   synthetic generators, graph I/O.
//! * [`hoplite_core`] (re-exported as [`core`]) — the paper's
//!   contribution: [`DistributionLabeling`] (Algorithm 2) and
//!   [`HierarchicalLabeling`] (Algorithm 1) plus reachability
//!   backbones and hierarchical DAG decomposition.
//! * [`hoplite_baselines`] (re-exported as [`baselines`]) — GRAIL,
//!   Path-Tree, Interval, PWAH-8, K-Reach, set-cover 2-HOP, TF-label,
//!   Pruned Landmark, SCARAB, online search, full TC.
//! * [`hoplite_bench`] (re-exported as [`bench`](mod@bench)) — dataset analogues,
//!   query workloads, and the harness regenerating the paper's
//!   Tables 1–7 and Figures 3–4 (`cargo run -p hoplite-bench --bin
//!   paper -- all`).
//! * [`hoplite_server`] (re-exported as [`server`]) — a
//!   dependency-free TCP query service: length-prefixed binary wire
//!   protocol, multi-namespace registry (frozen [`Oracle`] snapshots
//!   and mutable [`hoplite_core::DynamicOracle`]s), an epoll (Linux)
//!   reactor serving loop, a blocking client, and the `hoplited`
//!   daemon.
//!
//! The examples under `examples/` walk through realistic scenarios:
//! `quickstart`, `citation_network`, `ontology`, `paper_figures`,
//! `reachability_service`, and the `dataset_tool` CLI.

pub use hoplite_baselines as baselines;
pub use hoplite_bench as bench;
pub use hoplite_core as core;
pub use hoplite_graph as graph;
pub use hoplite_server as server;

pub use hoplite_core::{
    DistributionLabeling, DlConfig, HierarchicalLabeling, HlConfig, Labeling, Oracle, OrderKind,
    ReachIndex,
};
pub use hoplite_graph::{Dag, DiGraph, GraphBuilder, GraphError, VertexId};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_handles_cycles() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 3)]).unwrap();
        let o = Oracle::new(&g);
        assert_eq!(o.num_components(), 4);
        assert!(o.reaches(0, 4));
        assert!(o.reaches(1, 0), "within the SCC");
        assert!(o.reaches(5, 4));
        assert!(!o.reaches(4, 0));
        assert!(!o.reaches(3, 5));
        assert!(o.reaches(2, 2));
    }
}
