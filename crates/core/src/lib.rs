//! # hoplite-core
//!
//! The primary contribution of *“Simple, Fast, and Scalable
//! Reachability Oracle”* (Jin & Wang, VLDB 2013): two construction
//! algorithms for 2-hop reachability oracles that avoid both transitive
//! closure materialization and the greedy set-cover framework.
//!
//! A **reachability oracle** assigns each vertex `v` two sorted hop
//! lists, `L_out(v)` and `L_in(v)`, such that
//!
//! > `u` reaches `v` **iff** `L_out(u) ∩ L_in(v) ≠ ∅`.
//!
//! * [`DistributionLabeling`] (§5 of the paper) — vertices are ranked by
//!   `(|N_out|+1)·(|N_in|+1)` and *distributed* in rank order into other
//!   vertices' labels via pruned forward/backward BFS. Produces
//!   **non-redundant** labels (Theorem 4) and is the recommended
//!   default.
//! * [`HierarchicalLabeling`] (§4) — recursive *one-side reachability
//!   backbone* decomposition (SCARAB); labels flow from the core graph
//!   down to level 0.
//!
//! Both implement [`ReachIndex`], the query interface shared with every
//! baseline in `hoplite-baselines`.
//!
//! ## Quickstart
//!
//! ```
//! use hoplite_graph::Dag;
//! use hoplite_core::{DistributionLabeling, DlConfig, ReachIndex};
//!
//! let dag = Dag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
//! let oracle = DistributionLabeling::build(&dag, &DlConfig::default());
//! assert!(oracle.query(0, 4));
//! assert!(!oracle.query(4, 0));
//! ```

pub mod backbone;
pub mod distribution;
pub mod dynamic;
pub mod filter;
pub mod hierarchical;
pub mod hierarchy;
pub mod label;
pub mod metrics;
pub mod oracle;
pub mod order;
pub mod parallel;
pub mod persist;
pub mod stats;
pub mod store;
pub mod wal;

pub use backbone::Backbone;
pub use distribution::{DistributionLabeling, DlConfig};
pub use dynamic::{DynamicOracle, MutationError, RebuildPlan, RebuiltIndex};
pub use filter::{FilterVerdict, QueryFilters};
pub use hierarchical::{CoreLabeler, HierarchicalLabeling, HlConfig};
pub use hierarchy::Hierarchy;
pub use label::{
    sorted_intersect, sorted_intersect_adaptive, LabelPath, Labeling, LabelingBuilder, TOP_HOPS,
};
pub use metrics::{BuildTrace, Counter, Histogram, HistogramSnapshot, TraceSpan};
pub use oracle::{Oracle, ReachIndex};
pub use order::OrderKind;
pub use parallel::{par_query_batch_into, QueryTally};
pub use persist::{OpenOptions, PersistError};
pub use stats::LabelStats;
pub use store::{ArenaBuf, MemorySplit, Store, StoreBackend};
pub use wal::{
    Durability, EdgeOp, FailpointWriter, Recovered, Wal, WalConfig, WalDir, WalDurability,
};
