//! # hoplite-baselines
//!
//! From-scratch implementations of every reachability index the
//! VLDB 2013 reachability-oracle paper evaluates against (§6):
//!
//! | module | paper column | approach |
//! |---|---|---|
//! | [`online`] | (DFS/BFS) | index-free online search |
//! | [`grail`] | GL | GRAIL random-interval labels + pruned DFS |
//! | [`interval`] | INT | Nuutila post-order interval compression |
//! | [`pathtree`] | PT | path-decomposition (chain) compressed TC |
//! | [`pwah`] | PW8 | PWAH-8 word-aligned compressed bit vectors |
//! | [`twohop`] | 2HOP | Cohen et al. greedy set-cover 2-hop |
//! | [`kreach`] | KR | vertex-cover + cover-pair TC (K-Reach, k = ∞) |
//! | [`tflabel`] | TF | TF-label (≈ HL with ε = 1) |
//! | [`pruned_landmark`] | PL | pruned landmark *distance* labeling |
//! | [`scarab`] | GL\*, PT\* | SCARAB backbone wrapper over any index |
//! | [`fulltc`] | — | uncompressed transitive closure (reference) |
//!
//! All types implement [`hoplite_core::ReachIndex`], so the benchmark
//! harness and the tests drive them uniformly.

pub mod fulltc;
pub mod grail;
pub mod interval;
pub mod kreach;
pub mod online;
pub mod pathtree;
pub mod pruned_landmark;
pub mod pwah;
pub mod scarab;
pub mod tflabel;
pub mod twohop;

pub use fulltc::FullTc;
pub use grail::Grail;
pub use interval::IntervalIndex;
pub use kreach::{KReach, KReachBounded};
pub use online::{BfsOnline, BidirOnline, DfsOnline};
pub use pathtree::PathTree;
pub use pruned_landmark::PrunedLandmark;
pub use pwah::Pwah8;
pub use scarab::Scarab;
pub use tflabel::TfLabel;
pub use twohop::TwoHop;
