//! # hoplite-graph
//!
//! Directed-graph substrate for the `hoplite` reachability stack.
//!
//! The reachability-oracle literature (and the VLDB 2013 paper this
//! workspace reproduces) works on *DAGs obtained by coalescing the
//! strongly connected components* of an arbitrary directed graph. This
//! crate provides everything below the indexing layer:
//!
//! * [`DiGraph`] — a compact CSR (compressed sparse row) directed graph
//!   with both forward and reverse adjacency, built via [`GraphBuilder`].
//! * [`scc`] — iterative Tarjan SCC decomposition and condensation of a
//!   digraph into its component [`Dag`].
//! * [`Dag`] — a validated acyclic graph with a cached topological order.
//! * [`traversal`] — allocation-reusing BFS/DFS machinery, bounded
//!   neighborhoods, online reachability checks (the "no index"
//!   baseline of the paper), and [`traversal::assert_matches_bfs`],
//!   the one BFS reference every correctness test compares against.
//! * [`bitset`] / [`tc`] — packed bitsets and full transitive-closure
//!   materialization (ground truth for tests; substrate for the
//!   transitive-closure-compression baselines).
//! * [`gen`] — seeded synthetic DAG generators standing in for the
//!   paper's real-world datasets, plus the cyclic
//!   [`gen::random_digraph`] test input.
//! * [`io`] — edge-list and `.gra` (GRAIL/SCARAB) format readers and
//!   writers.
//!
//! ## Example
//!
//! ```
//! use hoplite_graph::{Dag, traversal};
//!
//! // A diamond: 0 -> {1, 2} -> 3
//! let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
//! assert!(traversal::reaches(dag.graph(), 0, 3));
//! assert!(!traversal::reaches(dag.graph(), 1, 2));
//! ```

pub mod bitset;
pub mod dag;
pub mod digraph;
pub mod error;
pub mod gen;
pub mod hash;
pub mod io;
pub mod reduction;
pub mod scc;
pub mod stats;
pub mod tc;
pub mod traversal;

pub use bitset::FixedBitset;
pub use dag::Dag;
pub use digraph::{DiGraph, GraphBuilder};
pub use error::{GraphError, Result};
pub use scc::Condensation;
pub use tc::TransitiveClosure;

/// Vertex identifier. Graphs in this workspace are bounded to
/// `u32::MAX - 1` vertices, which comfortably covers the paper's largest
/// dataset (25 M vertices) at half the memory of `usize` ids.
pub type VertexId = u32;

/// Sentinel for "no vertex" in dense per-vertex arrays.
pub const INVALID_VERTEX: VertexId = VertexId::MAX;
