//! # hoplite-server
//!
//! A dependency-free (std-only: `std::net` + `std::thread`) TCP query
//! service over hoplite's reachability oracles — the serving tier the
//! paper's introduction motivates: reachability as a high-QPS
//! primitive inside social-network, ontology, and web services.
//!
//! [`hoplite_core::persist`] frames the deployment story as "build
//! once, ship the index to query-serving replicas"; this crate *is*
//! that replica. A [`Registry`] holds many named graphs at once —
//! frozen [`hoplite_core::Oracle`] snapshots (loaded from `HOPL` files
//! or built at startup) and mutable [`hoplite_core::DynamicOracle`]
//! namespaces — and a [`Server`] answers the length-prefixed binary
//! protocol of [`protocol`]: `PING`, `REACH`, `BATCH`, `ADD_EDGE`,
//! `REMOVE_EDGE`, `STATS`, `LIST`, `METRICS`. The server is one
//! epoll reactor thread that multiplexes 10k+ sockets and
//! coalesces the `REACH`/`BATCH` frames of every connection into one
//! batch-kernel call per namespace per tick. Frozen labels are
//! immutable, so the query fast path takes no lock; each coalesced
//! batch runs the [`hoplite_core::QueryFilters`] O(1) pre-filter stack
//! before any label intersection and fans out through
//! [`hoplite_core::parallel::par_query_batch_into`] exactly like the
//! in-process [`hoplite_core::Oracle::reaches_batch_into`] API. Serving
//! needs epoll (Linux); elsewhere [`Server::bind`] fails with
//! `ErrorKind::Unsupported`.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use hoplite_core::Oracle;
//! use hoplite_graph::DiGraph;
//! use hoplite_server::{Client, Registry, Server, ServerConfig};
//!
//! // Build (or `Oracle::open`) an index and register it.
//! let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
//! let registry = Arc::new(Registry::new());
//! registry.insert_frozen("web", Oracle::new(&g)).unwrap();
//!
//! // Serve it on an ephemeral loopback port.
//! let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
//!
//! // Query over the wire.
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! assert!(client.reach("web", 0, 3).unwrap());
//! assert_eq!(client.reach_batch("web", &[(3, 0), (1, 0)]).unwrap(), [false, true]);
//! server.shutdown();
//! ```
//!
//! The `hoplited` binary wraps all of this as a daemon: `hoplited
//! serve` loads graphs/indexes from files, `hoplited smoke` is a
//! self-contained CI check. [`loadgen`] drives many pipelined `REACH`
//! connections from a few threads; `paper perf` uses it for its wire
//! sweep and overload drill.

pub mod client;
pub mod loadgen;
pub mod obs;
pub mod protocol;
#[cfg(target_os = "linux")]
mod reactor;
pub mod registry;
pub mod server;

pub use client::{Client, ClientConfig, ClientError};
pub use loadgen::{LoadReport, LoadSpec};
pub use obs::{LogLevel, ServerObs};
pub use protocol::{
    ErrorCode, FrameAccumulator, IndexBackend, MetricsReport, MetricsSummary, NamespaceInfo,
    NamespaceKind, NamespaceStats, PackedPairs, Request, RequestRef, Response, WireError,
    MAX_BATCH_PAIRS, MAX_FRAME_LEN, MAX_NAME_LEN, PROTOCOL_VERSION,
};
pub use registry::{NamespaceHandle, Registry, ServeError};
pub use server::{Server, ServerConfig, ServerHandle};
