//! The multi-namespace oracle registry.
//!
//! A serving process holds many named graphs at once — one per tenant,
//! dataset, or snapshot generation. Each namespace is either a
//! **frozen** [`Oracle`] snapshot (the common case: built offline,
//! shipped via [`hoplite_core::persist`], served read-only) or a
//! **dynamic** [`DynamicOracle`] that additionally accepts
//! `ADD_EDGE` / `REMOVE_EDGE`.
//!
//! Lookups take a short [`RwLock`] read to clone an [`Arc`] handle;
//! from there the frozen fast path touches no lock at all — the labels
//! are immutable, so any number of connection threads answer queries
//! concurrently (`hoplite_core::parallel` relies on the same
//! property). Dynamic namespaces serialize through a per-namespace
//! [`Mutex`], so a mutable tenant never stalls a frozen one.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use hoplite_core::{DynamicOracle, Histogram, MutationError, Oracle, WalConfig, WalDir};
use hoplite_graph::{Dag, GraphError};

use crate::obs::{QueryObs, SlowQuery};
use crate::protocol::{
    MetricsReport, MetricsSummary, NamespaceInfo, NamespaceKind, NamespaceStats, MAX_NAME_LEN,
};

/// Why a request against the registry could not be served.
#[derive(Debug)]
pub enum ServeError {
    /// No namespace registered under this name.
    UnknownNamespace(String),
    /// A vertex id at or past the namespace's vertex count.
    VertexOutOfRange {
        /// The offending id.
        vertex: u32,
        /// The namespace's vertex count.
        vertices: usize,
    },
    /// Mutation attempted on a frozen namespace.
    FrozenNamespace(String),
    /// Rejected or invalid registry name.
    InvalidName(String),
    /// Graph-level rejection (cycle, bad endpoint) from the dynamic
    /// oracle.
    Graph(GraphError),
    /// The write-ahead log refused the mutation (or recovery /
    /// checkpointing failed): the op was **not** applied and must not
    /// be acknowledged.
    Wal(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownNamespace(ns) => write!(f, "unknown namespace {ns:?}"),
            ServeError::VertexOutOfRange { vertex, vertices } => {
                write!(f, "vertex {vertex} out of range (namespace has {vertices})")
            }
            ServeError::FrozenNamespace(ns) => {
                write!(
                    f,
                    "namespace {ns:?} is frozen; edge mutations need a dynamic namespace"
                )
            }
            ServeError::InvalidName(m) => write!(f, "invalid namespace name: {m}"),
            ServeError::Graph(e) => write!(f, "{e}"),
            ServeError::Wal(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Graph(e) => Some(e),
            ServeError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ServeError {
    fn from(e: GraphError) -> Self {
        ServeError::Graph(e)
    }
}

impl From<MutationError> for ServeError {
    fn from(e: MutationError) -> Self {
        match e {
            MutationError::Graph(e) => ServeError::Graph(e),
            MutationError::Durability(e) => ServeError::Wal(e),
        }
    }
}

struct FrozenNs {
    /// The snapshot, behind its own `Arc` so `LIST`-able namespaces,
    /// replicas, and reloads can *share* one index (and, for a mapped
    /// HOPL v4 oracle, one arena) instead of cloning it — see
    /// [`Registry::insert_frozen`].
    oracle: Arc<Oracle>,
    queries: AtomicU64,
    /// Per-stage death counters ("where do my queries die"): decided
    /// by the pre-filter stack / decided by the top-hop reach masks / ran
    /// the intersection kernel. Batches fold a whole
    /// [`hoplite_core::QueryTally`] in at once, so the hot path pays
    /// three relaxed adds per *batch*, not per query.
    filter_hits: AtomicU64,
    signature_hits: AtomicU64,
    merge_runs: AtomicU64,
    /// Latency histograms (split by deciding stage) and the slow-query
    /// log — the namespace's contribution to the `METRICS` op.
    obs: QueryObs,
}

impl FrozenNs {
    fn record(&self, tally: &hoplite_core::QueryTally) {
        self.filter_hits
            .fetch_add(tally.filter_decided, Ordering::Relaxed);
        self.signature_hits
            .fetch_add(tally.signature_cut, Ordering::Relaxed);
        self.merge_runs.fetch_add(tally.merged, Ordering::Relaxed);
    }
}

struct DynamicNs {
    oracle: Mutex<DynamicOracle>,
    queries: AtomicU64,
    /// Background-rebuild latch: the mutation that crosses the overlay
    /// threshold wins this flag and spawns the worker; everyone else
    /// keeps answering through the delta overlay. Readers never block
    /// on a rebuild — the worker holds the namespace mutex only for
    /// the plan snapshot and the final publish, never for the build.
    rebuild_in_flight: AtomicBool,
    /// Background rebuilds completed (worker publishes).
    rebuilds: AtomicU64,
    /// Wall-clock nanoseconds per background rebuild, plan → publish.
    rebuild_ns: Histogram,
    /// Lock-free mirrors of the oracle's durability counters, refreshed
    /// after every mutation/rotation so `METRICS` never queues behind a
    /// writer.
    wal_bytes: AtomicU64,
    wal_records: AtomicU64,
    /// Present iff the namespace is durable: the rebuild worker stages
    /// the next checkpoint here *off* the namespace lock before
    /// `Durability::rotate` publishes it.
    wal: Option<WalDir>,
    /// Unix-epoch milliseconds when the in-flight rebuild started
    /// (zero when idle). Readiness probes compare it against the
    /// registry's stall threshold to spot a wedged worker.
    rebuild_started_ms: AtomicU64,
}

impl DynamicNs {
    fn new(oracle: DynamicOracle, wal: Option<WalDir>) -> Self {
        let (wal_bytes, wal_records) = (oracle.wal_bytes(), oracle.wal_records_total());
        DynamicNs {
            oracle: Mutex::new(oracle),
            queries: AtomicU64::new(0),
            rebuild_in_flight: AtomicBool::new(false),
            rebuilds: AtomicU64::new(0),
            rebuild_ns: Histogram::new(),
            wal_bytes: AtomicU64::new(wal_bytes),
            wal_records: AtomicU64::new(wal_records),
            wal,
            rebuild_started_ms: AtomicU64::new(0),
        }
    }

    /// Refreshes the lock-free durability mirrors; call with the lock
    /// held (or just released) after anything that moved the WAL.
    fn mirror_wal(&self, oracle: &DynamicOracle) {
        self.wal_bytes.store(oracle.wal_bytes(), Ordering::Relaxed);
        self.wal_records
            .store(oracle.wal_records_total(), Ordering::Relaxed);
    }
}

/// Arms the rebuild latch and spawns the worker thread. No-op when a
/// worker is already in flight; on spawn failure the latch is released
/// (queries stay correct through the overlay, only the fold is
/// deferred).
fn spawn_rebuild(name: &str, ns: &Arc<DynamicNs>) {
    if ns.rebuild_in_flight.swap(true, Ordering::AcqRel) {
        return;
    }
    ns.rebuild_started_ms
        .store(now_unix_ms(), Ordering::Relaxed);
    let worker = Arc::clone(ns);
    let spawned = std::thread::Builder::new()
        .name(format!("hoplite-rebuild-{name}"))
        .spawn(move || {
            // A panic anywhere in the rebuild (plan execution,
            // checkpoint staging, publish) must not strand the latch
            // armed: nothing would ever spawn another worker again,
            // the overlay would grow without bound, and quiesce()
            // would spin forever. Queries stay correct through the
            // overlay either way; only the fold is deferred.
            let run =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rebuild_worker(&worker)));
            if run.is_err() {
                worker.rebuild_started_ms.store(0, Ordering::Relaxed);
                worker.rebuild_in_flight.store(false, Ordering::Release);
                crate::log_error!("rebuild", "worker panicked; rebuild latch released");
            }
        });
    if let Err(e) = spawned {
        ns.rebuild_started_ms.store(0, Ordering::Relaxed);
        ns.rebuild_in_flight.store(false, Ordering::Release);
        crate::log_error!("rebuild", "worker spawn failed for {name:?}: {e}");
    }
}

/// Milliseconds since the Unix epoch — coarse wall-clock for the
/// rebuild-stall probe (monotonicity does not matter there; a clock
/// step merely shifts one probe's verdict).
fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The background rebuild loop. Per iteration: snapshot a
/// [`hoplite_core::RebuildPlan`] under the lock, run the expensive
/// label construction (and, for durable namespaces, stage that same
/// index as the next checkpoint) entirely off-lock, then re-take the lock just long
/// enough to publish the fresh index — mutations that landed mid-build
/// survive as the new overlay — and rotate the WAL onto the staged
/// checkpoint. Loops while the overlay is still past threshold (heavy
/// mid-build write traffic), then disarms.
fn rebuild_worker(ns: &Arc<DynamicNs>) {
    loop {
        // Re-stamp per iteration: a worker looping through many quick
        // folds is making progress, not wedged.
        ns.rebuild_started_ms
            .store(now_unix_ms(), Ordering::Relaxed);
        let started = std::time::Instant::now();
        let plan = lock_unpoisoned(&ns.oracle).rebuild_plan();
        let rebuilt = plan.execute();
        // On a staging failure, skip this rotation: the current
        // generation's checkpoint + WAL still reconstruct every
        // acknowledged op.
        let staged = ns.wal.as_ref().is_some_and(|dir| {
            dir.prepare_checkpoint(rebuilt.index())
                .inspect_err(|e| {
                    let dir = dir.path().display();
                    crate::log_error!("rebuild", "checkpoint staging failed in {dir}: {e}")
                })
                .is_ok()
        });
        let more = {
            let mut oracle = lock_unpoisoned(&ns.oracle);
            let overlay = oracle.publish(rebuilt);
            if staged {
                if let Some(d) = oracle.durability_mut() {
                    if let Err(e) = d.rotate(&overlay) {
                        crate::log_error!("rebuild", "wal rotation failed: {e}");
                    }
                }
            }
            ns.mirror_wal(&oracle);
            oracle.needs_rebuild()
        };
        ns.rebuilds.fetch_add(1, Ordering::Relaxed);
        ns.rebuild_ns.record(started.elapsed().as_nanos() as u64);
        if more {
            continue;
        }
        ns.rebuild_started_ms.store(0, Ordering::Relaxed);
        ns.rebuild_in_flight.store(false, Ordering::Release);
        // A mutation may have crossed the threshold between the check
        // above and the disarm — it saw the latch armed and did not
        // spawn, so re-arm and keep going rather than strand it.
        if lock_unpoisoned(&ns.oracle).needs_rebuild()
            && !ns.rebuild_in_flight.swap(true, Ordering::AcqRel)
        {
            continue;
        }
        return;
    }
}

#[derive(Clone)]
enum Inner {
    Frozen(Arc<FrozenNs>),
    Dynamic(Arc<DynamicNs>),
}

/// A cheaply clonable handle to one namespace; survives the namespace
/// being replaced or removed from the registry (in-flight queries on
/// an old snapshot finish against that snapshot).
#[derive(Clone)]
pub struct NamespaceHandle {
    inner: Inner,
}

impl NamespaceHandle {
    /// Frozen snapshot or dynamic oracle?
    pub fn kind(&self) -> NamespaceKind {
        match &self.inner {
            Inner::Frozen(_) => NamespaceKind::Frozen,
            Inner::Dynamic(_) => NamespaceKind::Dynamic,
        }
    }

    /// Is this a frozen (lock-free, batch-coalescable) snapshot?
    pub fn is_frozen(&self) -> bool {
        matches!(&self.inner, Inner::Frozen(_))
    }

    /// Vertices addressable by queries.
    pub fn num_vertices(&self) -> usize {
        match &self.inner {
            Inner::Frozen(ns) => ns.oracle.num_vertices(),
            Inner::Dynamic(ns) => lock_unpoisoned(&ns.oracle).num_vertices(),
        }
    }

    /// Range-checks one query pair without answering it. The reactor's
    /// coalescing layer validates every frame *before* admitting its
    /// pairs into the shared per-tick batch, so one client's
    /// out-of-range vertex fails that client's frame alone — never the
    /// super-batch carrying everyone else's queries.
    pub fn validate_pair(&self, u: u32, v: u32) -> Result<(), ServeError> {
        let n = self.num_vertices();
        self.check(u, n)?;
        self.check(v, n)
    }

    fn check(&self, vertex: u32, vertices: usize) -> Result<(), ServeError> {
        if (vertex as usize) < vertices {
            Ok(())
        } else {
            Err(ServeError::VertexOutOfRange { vertex, vertices })
        }
    }

    /// Does `u` reach `v`? Reflexive, like every oracle in the
    /// workspace.
    ///
    /// Frozen namespaces answer through the full [`Oracle`] hot path:
    /// the O(1) pre-filter stack ([`hoplite_core::QueryFilters`] —
    /// topological levels, spanning-tree and GRAIL-style intervals,
    /// degree shortcuts) decides most queries before the label
    /// intersection runs, so the wire handler's per-query cost is
    /// usually a handful of array probes.
    pub fn reach(&self, u: u32, v: u32) -> Result<bool, ServeError> {
        match &self.inner {
            Inner::Frozen(ns) => {
                let n = ns.oracle.num_vertices();
                self.check(u, n)?;
                self.check(v, n)?;
                ns.queries.fetch_add(1, Ordering::Relaxed);
                let mut tally = hoplite_core::QueryTally::default();
                let started = std::time::Instant::now();
                let answer = ns.oracle.reaches_tallied(u, v, &mut tally);
                ns.obs
                    .record_single(u, v, started.elapsed().as_nanos() as u64, &tally);
                ns.record(&tally);
                Ok(answer)
            }
            Inner::Dynamic(ns) => {
                let oracle = lock_unpoisoned(&ns.oracle);
                let n = oracle.num_vertices();
                self.check(u, n)?;
                self.check(v, n)?;
                ns.queries.fetch_add(1, Ordering::Relaxed);
                Ok(oracle.query(u, v))
            }
        }
    }

    /// Answers every pair, preserving order: [`Self::reach_batch_into`]
    /// into a fresh vector.
    pub fn reach_batch(
        &self,
        pairs: &[(u32, u32)],
        threads: usize,
    ) -> Result<Vec<bool>, ServeError> {
        let mut answers = vec![false; pairs.len()];
        self.reach_batch_into(pairs, &mut answers, threads)?;
        Ok(answers)
    }

    /// Answers `pairs[i]` into `out[i]`. Frozen namespaces run the
    /// batch kernel ([`hoplite_core::parallel::par_query_batch_into`],
    /// which maps component ids and runs the pre-filter stack inside
    /// each of its `threads` workers) straight into `out`; dynamic ones
    /// answer inline under their lock. On `Err` (a vertex out of
    /// range) nothing was answered and `out` is untouched.
    ///
    /// # Panics
    /// Panics if `out` and `pairs` differ in length.
    pub fn reach_batch_into(
        &self,
        pairs: &[(u32, u32)],
        out: &mut [bool],
        threads: usize,
    ) -> Result<(), ServeError> {
        assert_eq!(pairs.len(), out.len(), "one answer slot per pair");
        match &self.inner {
            Inner::Frozen(ns) => {
                let n = ns.oracle.num_vertices();
                for &(u, v) in pairs {
                    self.check(u, n)?;
                    self.check(v, n)?;
                }
                ns.queries.fetch_add(pairs.len() as u64, Ordering::Relaxed);
                let started = std::time::Instant::now();
                let tally = ns.oracle.reaches_batch_into(pairs, out, threads);
                ns.obs.batch_ns.record(started.elapsed().as_nanos() as u64);
                ns.record(&tally);
                Ok(())
            }
            Inner::Dynamic(ns) => {
                let oracle = lock_unpoisoned(&ns.oracle);
                let n = oracle.num_vertices();
                for &(u, v) in pairs {
                    self.check(u, n)?;
                    self.check(v, n)?;
                }
                ns.queries.fetch_add(pairs.len() as u64, Ordering::Relaxed);
                for (slot, &(u, v)) in out.iter_mut().zip(pairs) {
                    *slot = oracle.query(u, v);
                }
                Ok(())
            }
        }
    }

    /// Inserts `u → v`; dynamic namespaces only. Re-inserting a live
    /// edge is a no-op success; closing a cycle is an error. On a
    /// durable namespace the op hits the WAL *before* it is applied —
    /// an `Err` means nothing changed and nothing was logged, so the
    /// caller must not acknowledge. Crossing the overlay threshold
    /// arms a background rebuild; this call never runs one inline.
    pub fn add_edge(&self, name: &str, u: u32, v: u32) -> Result<(), ServeError> {
        match &self.inner {
            Inner::Frozen(_) => Err(ServeError::FrozenNamespace(name.to_owned())),
            Inner::Dynamic(ns) => {
                let rebuild = {
                    let mut oracle = lock_unpoisoned(&ns.oracle);
                    oracle.insert_edge(u, v)?;
                    ns.mirror_wal(&oracle);
                    oracle.needs_rebuild()
                };
                if rebuild {
                    spawn_rebuild(name, ns);
                }
                Ok(())
            }
        }
    }

    /// Removes `u → v`; dynamic namespaces only. Returns whether the
    /// edge existed. Same durability and background-rebuild contract
    /// as [`NamespaceHandle::add_edge`].
    pub fn remove_edge(&self, name: &str, u: u32, v: u32) -> Result<bool, ServeError> {
        match &self.inner {
            Inner::Frozen(_) => Err(ServeError::FrozenNamespace(name.to_owned())),
            Inner::Dynamic(ns) => {
                let (existed, rebuild) = {
                    let mut oracle = lock_unpoisoned(&ns.oracle);
                    let n = oracle.num_vertices();
                    self.check(u, n)?;
                    self.check(v, n)?;
                    let existed = oracle.remove_edge(u, v)?;
                    ns.mirror_wal(&oracle);
                    (existed, oracle.needs_rebuild())
                };
                if rebuild {
                    spawn_rebuild(name, ns);
                }
                Ok(existed)
            }
        }
    }

    /// Is a background rebuild running right now? (Frozen: always
    /// `false`.)
    pub fn rebuild_in_flight(&self) -> bool {
        match &self.inner {
            Inner::Frozen(_) => false,
            Inner::Dynamic(ns) => ns.rebuild_in_flight.load(Ordering::Acquire),
        }
    }

    /// How long the current in-flight rebuild has been running, in
    /// milliseconds — `None` when no rebuild is in flight. The
    /// readiness probe's raw material for wedged-worker detection.
    pub fn rebuild_running_ms(&self) -> Option<u64> {
        let Inner::Dynamic(ns) = &self.inner else {
            return None;
        };
        if !ns.rebuild_in_flight.load(Ordering::Acquire) {
            return None;
        }
        match ns.rebuild_started_ms.load(Ordering::Relaxed) {
            0 => None,
            started => Some(now_unix_ms().saturating_sub(started)),
        }
    }

    /// Background rebuilds published so far.
    pub fn rebuilds_completed(&self) -> u64 {
        match &self.inner {
            Inner::Frozen(_) => 0,
            Inner::Dynamic(ns) => ns.rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Blocks until no background rebuild is in flight and the overlay
    /// is back under threshold — a test/benchmark aid, never needed
    /// for correctness (queries answer through the overlay at any
    /// point). Arms a rebuild itself if one is owed but no worker is
    /// running.
    pub fn quiesce(&self, name: &str) {
        let Inner::Dynamic(ns) = &self.inner else {
            return;
        };
        loop {
            if ns.rebuild_in_flight.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            }
            if lock_unpoisoned(&ns.oracle).needs_rebuild() {
                spawn_rebuild(name, ns);
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            }
            return;
        }
    }

    /// Forces every logged WAL record to stable storage (shutdown /
    /// test hook); no-op for frozen or non-durable namespaces.
    pub fn sync_durability(&self) -> Result<(), ServeError> {
        match &self.inner {
            Inner::Frozen(_) => Ok(()),
            Inner::Dynamic(ns) => lock_unpoisoned(&ns.oracle)
                .sync_durability()
                .map_err(ServeError::Wal),
        }
    }

    /// Point-in-time counters, including the heap-vs-mapped storage
    /// split of the namespace's index ([`hoplite_core::MemorySplit`]):
    /// a replica opened with `--mmap` reports nearly everything under
    /// `mapped_bytes` — shared page cache, not private RSS.
    pub fn stats(&self) -> NamespaceStats {
        match &self.inner {
            Inner::Frozen(ns) => {
                let memory = ns.oracle.memory();
                NamespaceStats {
                    kind: NamespaceKind::Frozen,
                    vertices: ns.oracle.num_vertices() as u64,
                    label_entries: ns.oracle.label_entries(),
                    pending_inserts: 0,
                    pending_deletions: 0,
                    queries: ns.queries.load(Ordering::Relaxed),
                    signature_bytes: ns.oracle.inner().labeling().mask_bytes(),
                    filter_hits: ns.filter_hits.load(Ordering::Relaxed),
                    signature_hits: ns.signature_hits.load(Ordering::Relaxed),
                    merge_runs: ns.merge_runs.load(Ordering::Relaxed),
                    backend: ns.oracle.backend().into(),
                    heap_bytes: memory.heap_bytes,
                    mapped_bytes: memory.mapped_bytes,
                    wal_bytes: 0,
                    wal_records: 0,
                    rebuilds: 0,
                    rebuild_in_flight: false,
                }
            }
            Inner::Dynamic(ns) => {
                let oracle = lock_unpoisoned(&ns.oracle);
                let memory = oracle.memory();
                NamespaceStats {
                    kind: NamespaceKind::Dynamic,
                    vertices: oracle.num_vertices() as u64,
                    label_entries: oracle.label_entries(),
                    pending_inserts: oracle.pending_edges() as u64,
                    pending_deletions: oracle.pending_deletions() as u64,
                    queries: ns.queries.load(Ordering::Relaxed),
                    signature_bytes: oracle.mask_bytes(),
                    // The dynamic query path answers through its
                    // overlay and keeps no per-stage tallies.
                    filter_hits: 0,
                    signature_hits: 0,
                    merge_runs: 0,
                    // Mapped after recovery until the first rebuild.
                    backend: memory.backend().into(),
                    heap_bytes: memory.heap_bytes,
                    mapped_bytes: memory.mapped_bytes,
                    wal_bytes: oracle.wal_bytes(),
                    wal_records: oracle.wal_records_total(),
                    rebuilds: ns.rebuilds.load(Ordering::Relaxed),
                    rebuild_in_flight: ns.rebuild_in_flight.load(Ordering::Acquire),
                }
            }
        }
    }

    /// Appends this namespace's series to a [`MetricsReport`]: the
    /// query/outcome counters for every kind, plus the latency
    /// histograms the frozen hot path records. Dynamic namespaces
    /// answer through their overlay mutex and are not timed.
    pub(crate) fn fold_metrics(&self, name: &str, report: &mut MetricsReport) {
        match &self.inner {
            Inner::Frozen(ns) => {
                report.counters.push((
                    format!("ns_queries_total{{ns={name:?}}}"),
                    ns.queries.load(Ordering::Relaxed),
                ));
                for (outcome, counter) in [
                    ("filter", &ns.filter_hits),
                    ("signature", &ns.signature_hits),
                    ("merge", &ns.merge_runs),
                ] {
                    report.counters.push((
                        format!("ns_query_outcome_total{{ns={name:?},outcome=\"{outcome}\"}}"),
                        counter.load(Ordering::Relaxed),
                    ));
                }
                for (outcome, hist) in [
                    ("filter", &ns.obs.filter_ns),
                    ("signature", &ns.obs.signature_ns),
                    ("merge", &ns.obs.merge_ns),
                ] {
                    report.histograms.push((
                        format!("ns_query_latency_ns{{ns={name:?},outcome=\"{outcome}\"}}"),
                        MetricsSummary::from(&hist.snapshot()),
                    ));
                }
                report.histograms.push((
                    format!("ns_batch_latency_ns{{ns={name:?}}}"),
                    MetricsSummary::from(&ns.obs.batch_ns.snapshot()),
                ));
            }
            Inner::Dynamic(ns) => {
                report.counters.push((
                    format!("ns_queries_total{{ns={name:?}}}"),
                    ns.queries.load(Ordering::Relaxed),
                ));
                // Durability + rebuild series, all off lock-free
                // mirrors — a metrics scrape never queues behind a
                // writer or an in-flight publish.
                for (series, value) in [
                    ("ns_wal_bytes", ns.wal_bytes.load(Ordering::Relaxed)),
                    (
                        "ns_wal_records_total",
                        ns.wal_records.load(Ordering::Relaxed),
                    ),
                    ("ns_rebuilds_total", ns.rebuilds.load(Ordering::Relaxed)),
                    (
                        "ns_rebuild_in_flight",
                        ns.rebuild_in_flight.load(Ordering::Acquire) as u64,
                    ),
                ] {
                    report
                        .counters
                        .push((format!("{series}{{ns={name:?}}}"), value));
                }
                report.histograms.push((
                    format!("ns_rebuild_duration_ns{{ns={name:?}}}"),
                    MetricsSummary::from(&ns.rebuild_ns.snapshot()),
                ));
            }
        }
    }

    /// This namespace's retained worst queries (frozen only), slowest
    /// first.
    pub(crate) fn slow_queries(&self) -> Vec<SlowQuery> {
        match &self.inner {
            Inner::Frozen(ns) => ns.obs.slow.snapshot(),
            Inner::Dynamic(_) => Vec::new(),
        }
    }
}

/// Recovers the guarded value even if another thread panicked while
/// holding the lock — a serving process must not wedge a namespace on
/// one poisoned request.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// All namespaces a server instance exposes.
///
/// ```
/// use hoplite_core::Oracle;
/// use hoplite_graph::DiGraph;
/// use hoplite_server::Registry;
///
/// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let registry = Registry::new();
/// registry.insert_frozen("tiny", Oracle::new(&g)).unwrap();
/// let ns = registry.get("tiny").unwrap();
/// assert!(ns.reach(0, 2).unwrap());
/// assert!(registry.get("absent").is_none());
/// ```
pub struct Registry {
    map: RwLock<HashMap<String, NamespaceHandle>>,
    /// Serving-readiness gate. Starts **true** so embedded/library
    /// users never see refusals; `hoplited serve` clears it before
    /// loading namespaces (WAL replay can take a while) and sets it
    /// once every namespace is registered — the `/readyz` 503→200
    /// flip and the `NOT_READY` wire refusal both key off it.
    ready: AtomicBool,
    /// An in-flight background rebuild older than this many
    /// milliseconds counts as wedged for the readiness probe.
    rebuild_stall_ms: AtomicU64,
}

/// Default wedged-rebuild threshold: rebuilds of production-sized
/// graphs take seconds, not minutes.
const DEFAULT_REBUILD_STALL_MS: u64 = 5 * 60 * 1000;

impl Default for Registry {
    fn default() -> Self {
        Registry {
            map: RwLock::new(HashMap::new()),
            ready: AtomicBool::new(true),
            rebuild_stall_ms: AtomicU64::new(DEFAULT_REBUILD_STALL_MS),
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flips the serving-readiness gate (see the field doc on
    /// [`Registry`]; starts `true`).
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::Release);
    }

    /// The raw readiness flag, without the wedged-rebuild probe.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Overrides the wedged-rebuild threshold for [`Self::readiness`]
    /// (default five minutes).
    pub fn set_rebuild_stall_threshold(&self, threshold: std::time::Duration) {
        self.rebuild_stall_ms
            .store(threshold.as_millis() as u64, Ordering::Relaxed);
    }

    /// The full readiness probe behind `/readyz`: the ready flag must
    /// be set *and* no namespace may be wedged in a background rebuild
    /// past the stall threshold. `Err` carries the human-readable
    /// reason the probe body reports.
    pub fn readiness(&self) -> Result<(), String> {
        if !self.is_ready() {
            return Err("loading: namespace registration in progress".into());
        }
        let stall_ms = self.rebuild_stall_ms.load(Ordering::Relaxed);
        for (name, handle) in self.handles() {
            if let Some(running_ms) = handle.rebuild_running_ms() {
                if running_ms > stall_ms {
                    return Err(format!(
                        "namespace {name:?} wedged in rebuild for {running_ms}ms \
                         (threshold {stall_ms}ms)"
                    ));
                }
            }
        }
        Ok(())
    }

    fn validate_name(name: &str) -> Result<(), ServeError> {
        if name.is_empty() {
            return Err(ServeError::InvalidName("empty name".into()));
        }
        if name.len() > MAX_NAME_LEN {
            return Err(ServeError::InvalidName(format!(
                "{} bytes exceeds the {MAX_NAME_LEN}-byte limit",
                name.len()
            )));
        }
        Ok(())
    }

    fn insert(&self, name: &str, handle: NamespaceHandle) -> Result<bool, ServeError> {
        Self::validate_name(name)?;
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        Ok(map.insert(name.to_owned(), handle).is_some())
    }

    /// Registers (or atomically replaces — the "ship a fresh index to
    /// the replica" path) a frozen snapshot. Returns whether a previous
    /// namespace was replaced.
    ///
    /// Takes anything that converts into an `Arc<Oracle>`: pass an
    /// `Oracle` to move it in, or clone one `Arc<Oracle>` across many
    /// namespaces/registries so every replica serves the **same**
    /// snapshot — zero per-namespace copies, and for an
    /// [`Oracle::open`]ed index one shared file mapping process-wide
    /// (reloads that re-open the same file still share page cache).
    pub fn insert_frozen(
        &self,
        name: &str,
        oracle: impl Into<Arc<Oracle>>,
    ) -> Result<bool, ServeError> {
        self.insert(
            name,
            NamespaceHandle {
                inner: Inner::Frozen(Arc::new(FrozenNs {
                    oracle: oracle.into(),
                    queries: AtomicU64::new(0),
                    filter_hits: AtomicU64::new(0),
                    signature_hits: AtomicU64::new(0),
                    merge_runs: AtomicU64::new(0),
                    obs: QueryObs::new(),
                })),
            },
        )
    }

    /// Registers (or replaces) a dynamic namespace. The registry owns
    /// rebuild scheduling: threshold crossings run on a background
    /// worker thread (never inline under the mutation), so the
    /// oracle's own auto-rebuild is switched off here.
    pub fn insert_dynamic(
        &self,
        name: &str,
        mut oracle: DynamicOracle,
    ) -> Result<bool, ServeError> {
        oracle.set_auto_rebuild(false);
        self.insert(
            name,
            NamespaceHandle {
                inner: Inner::Dynamic(Arc::new(DynamicNs::new(oracle, None))),
            },
        )
    }

    /// Registers (or replaces) a **durable** dynamic namespace backed
    /// by `dir`. A fresh directory labels `seed` once and checkpoints
    /// that same index as generation 0; a directory with history
    /// ignores `seed`, adopts the checkpoint's labels without
    /// relabeling, and replays the valid log prefix (a prefix of the
    /// acknowledged ops; a torn tail from a crash is truncated for
    /// good when the appender reopens). An overlay replayed past the
    /// threshold is folded by a background rebuild. Every later
    /// mutation is logged before it is applied.
    /// `rebuild_threshold` overrides the overlay size that arms a
    /// background rebuild (`None` keeps the oracle default).
    pub fn open_durable(
        &self,
        name: &str,
        seed: Dag,
        dir: impl Into<PathBuf>,
        cfg: WalConfig,
        rebuild_threshold: Option<usize>,
    ) -> Result<bool, ServeError> {
        Self::validate_name(name)?;
        let wal = WalDir::open(dir).map_err(ServeError::Wal)?;
        let (mut oracle, generation, wal_bytes, ops) =
            match wal.recover().map_err(ServeError::Wal)? {
                Some(rec) => (
                    DynamicOracle::from_index(rec.base, rec.index),
                    rec.generation,
                    rec.wal_bytes,
                    rec.ops,
                ),
                None => {
                    let index = Oracle::new(seed.graph());
                    wal.initialize(&index).map_err(ServeError::Wal)?;
                    (DynamicOracle::from_index(seed, index), 0, 0, Vec::new())
                }
            };
        oracle.set_auto_rebuild(false);
        if let Some(threshold) = rebuild_threshold {
            oracle.set_rebuild_threshold(threshold);
        }
        let durability = wal
            .durability(generation, wal_bytes, ops.len() as u64, cfg)
            .map_err(ServeError::Wal)?;
        oracle.set_durability(Box::new(durability));
        oracle.replay(&ops)?;
        let needs_rebuild = oracle.needs_rebuild();
        let ns = Arc::new(DynamicNs::new(oracle, Some(wal)));
        let inner = Inner::Dynamic(Arc::clone(&ns));
        let replaced = self.insert(name, NamespaceHandle { inner })?;
        if needs_rebuild {
            spawn_rebuild(name, &ns);
        }
        Ok(replaced)
    }

    /// Clones the handle registered under `name`.
    pub fn get(&self, name: &str) -> Option<NamespaceHandle> {
        let map = self.map.read().unwrap_or_else(PoisonError::into_inner);
        map.get(name).cloned()
    }

    /// Drops a namespace. In-flight queries holding its handle finish
    /// unaffected.
    pub fn remove(&self, name: &str) -> bool {
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        map.remove(name).is_some()
    }

    /// Forces every durable namespace's WAL tail to stable storage.
    /// The group-commit policy only fires inside appends, so without
    /// this the last records of a burst sit unsynced until the next
    /// mutation arrives — the server calls it on graceful shutdown to
    /// close that window. Returns each namespace whose sync failed
    /// (those tails remain at the mercy of the OS page cache).
    pub fn sync_all(&self) -> Vec<(String, ServeError)> {
        self.handles()
            .into_iter()
            .filter_map(|(name, h)| h.sync_durability().err().map(|e| (name, e)))
            .collect()
    }

    /// Every `(name, handle)` pair, sorted by name — the metrics
    /// collector's iteration order, so exposition output is stable.
    pub(crate) fn handles(&self) -> Vec<(String, NamespaceHandle)> {
        let map = self.map.read().unwrap_or_else(PoisonError::into_inner);
        let mut handles: Vec<(String, NamespaceHandle)> = map
            .iter()
            .map(|(name, h)| (name.clone(), h.clone()))
            .collect();
        handles.sort_by(|a, b| a.0.cmp(&b.0));
        handles
    }

    /// Every namespace, sorted by name for deterministic `LIST` replies.
    pub fn list(&self) -> Vec<NamespaceInfo> {
        let map = self.map.read().unwrap_or_else(PoisonError::into_inner);
        let mut infos: Vec<NamespaceInfo> = map
            .iter()
            .map(|(name, h)| NamespaceInfo {
                name: name.clone(),
                kind: h.kind(),
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Number of registered namespaces.
    pub fn len(&self) -> usize {
        let map = self.map.read().unwrap_or_else(PoisonError::into_inner);
        map.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::{Dag, DiGraph};

    fn frozen_fixture() -> Registry {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        registry
    }

    #[test]
    fn frozen_namespace_answers_and_rejects_mutation() {
        let registry = frozen_fixture();
        let ns = registry.get("g").unwrap();
        assert_eq!(ns.kind(), NamespaceKind::Frozen);
        assert!(ns.reach(0, 3).unwrap());
        assert!(!ns.reach(3, 0).unwrap());
        assert!(ns.reach(1, 0).unwrap(), "inside the SCC");
        assert!(matches!(
            ns.add_edge("g", 3, 4),
            Err(ServeError::FrozenNamespace(_))
        ));
        assert!(matches!(
            ns.remove_edge("g", 0, 1),
            Err(ServeError::FrozenNamespace(_))
        ));
    }

    #[test]
    fn out_of_range_vertices_are_errors_not_panics() {
        let registry = frozen_fixture();
        let ns = registry.get("g").unwrap();
        assert!(matches!(
            ns.reach(0, 5),
            Err(ServeError::VertexOutOfRange { vertex: 5, .. })
        ));
        assert!(matches!(
            ns.reach_batch(&[(0, 1), (9, 0)], 2),
            Err(ServeError::VertexOutOfRange { vertex: 9, .. })
        ));
    }

    #[test]
    fn dynamic_namespace_mutates_and_counts() {
        let registry = Registry::new();
        let dag = Dag::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        registry
            .insert_dynamic("d", DynamicOracle::new(dag))
            .unwrap();
        let ns = registry.get("d").unwrap();
        assert!(!ns.reach(0, 3).unwrap());
        ns.add_edge("d", 1, 2).unwrap();
        assert!(ns.reach(0, 3).unwrap());
        assert!(matches!(
            ns.add_edge("d", 3, 0),
            Err(ServeError::Graph(GraphError::Cycle { .. }))
        ));
        assert!(ns.remove_edge("d", 1, 2).unwrap());
        assert!(!ns.reach(0, 3).unwrap());
        assert!(!ns.remove_edge("d", 1, 2).unwrap(), "already gone");
        let stats = ns.stats();
        assert_eq!(stats.kind, NamespaceKind::Dynamic);
        assert_eq!(stats.vertices, 4);
        assert!(stats.queries >= 3);
    }

    #[test]
    fn batch_matches_singles() {
        let registry = frozen_fixture();
        let ns = registry.get("g").unwrap();
        let pairs: Vec<(u32, u32)> = (0..5).flat_map(|u| (0..5).map(move |v| (u, v))).collect();
        let batch = ns.reach_batch(&pairs, 3).unwrap();
        for (&(u, v), &got) in pairs.iter().zip(&batch) {
            assert_eq!(got, ns.reach(u, v).unwrap(), "({u},{v})");
        }
    }

    #[test]
    fn replace_and_remove() {
        let registry = frozen_fixture();
        let old = registry.get("g").unwrap();
        let g2 = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(registry.insert_frozen("g", Oracle::new(&g2)).unwrap());
        assert_eq!(registry.get("g").unwrap().num_vertices(), 2);
        // The old handle still answers against its own snapshot.
        assert_eq!(old.num_vertices(), 5);
        assert!(registry.remove("g"));
        assert!(registry.get("g").is_none());
        assert!(!registry.remove("g"));
        assert!(registry.is_empty());
    }

    #[test]
    fn names_validated_and_listed_sorted() {
        let registry = Registry::new();
        let g = DiGraph::from_edges(1, &[]).unwrap();
        assert!(matches!(
            registry.insert_frozen("", Oracle::new(&g)),
            Err(ServeError::InvalidName(_))
        ));
        assert!(matches!(
            registry.insert_frozen(&"x".repeat(300), Oracle::new(&g)),
            Err(ServeError::InvalidName(_))
        ));
        registry.insert_frozen("zeta", Oracle::new(&g)).unwrap();
        registry
            .insert_dynamic(
                "alpha",
                DynamicOracle::new(Dag::from_edges(1, &[]).unwrap()),
            )
            .unwrap();
        let names: Vec<String> = registry.list().into_iter().map(|i| i.name).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(registry.len(), 2);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static CALL: AtomicU64 = AtomicU64::new(0);
        let call = CALL.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "hoplite-registry-{tag}-{}-{call}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn background_rebuild_folds_overlay_and_counts() {
        let registry = Registry::new();
        let dag = Dag::from_edges(6, &[(0, 1)]).unwrap();
        let oracle = DynamicOracle::with_config(dag, hoplite_core::DlConfig::default(), 3);
        registry.insert_dynamic("d", oracle).unwrap();
        let ns = registry.get("d").unwrap();
        for (u, v) in [(1, 2), (2, 3), (3, 4), (4, 5)] {
            ns.add_edge("d", u, v).unwrap();
        }
        ns.quiesce("d");
        assert!(ns.rebuilds_completed() >= 1, "threshold crossed twice");
        assert!(!ns.rebuild_in_flight());
        let stats = ns.stats();
        assert!(
            stats.pending_inserts < 3,
            "overlay folded back under threshold: {stats:?}"
        );
        assert_eq!(stats.rebuilds, ns.rebuilds_completed());
        assert!(ns.reach(0, 5).unwrap());
        assert!(!ns.reach(5, 0).unwrap());
        let mut report = MetricsReport::default();
        ns.fold_metrics("d", &mut report);
        assert_eq!(
            report.counter("ns_rebuilds_total{ns=\"d\"}"),
            Some(ns.rebuilds_completed())
        );
        assert_eq!(report.counter("ns_rebuild_in_flight{ns=\"d\"}"), Some(0));
        let hist = report
            .histogram("ns_rebuild_duration_ns{ns=\"d\"}")
            .expect("rebuild histogram folded");
        assert_eq!(hist.count, ns.rebuilds_completed());
    }

    #[test]
    fn durable_namespace_survives_reopen() {
        let dir = temp_dir("reopen");
        let seed = Dag::from_edges(5, &[(0, 1)]).unwrap();
        {
            let registry = Registry::new();
            registry
                .open_durable(
                    "d",
                    seed.clone(),
                    &dir,
                    hoplite_core::WalConfig::sync_every_record(),
                    None,
                )
                .unwrap();
            let ns = registry.get("d").unwrap();
            ns.add_edge("d", 1, 2).unwrap();
            ns.add_edge("d", 2, 3).unwrap();
            ns.remove_edge("d", 0, 1).unwrap();
            let stats = ns.stats();
            assert_eq!(stats.wal_records, 3, "{stats:?}");
            assert_eq!(stats.wal_bytes, 3 * 17, "{stats:?}");
            // Dropped without any checkpoint rotation: recovery must
            // replay the log.
        }
        {
            let registry = Registry::new();
            // A different seed proves the on-disk history wins.
            registry
                .open_durable(
                    "d",
                    Dag::from_edges(5, &[]).unwrap(),
                    &dir,
                    hoplite_core::WalConfig::default(),
                    None,
                )
                .unwrap();
            let ns = registry.get("d").unwrap();
            assert!(ns.reach(1, 3).unwrap());
            assert!(!ns.reach(0, 2).unwrap(), "removal replayed");
            assert_eq!(ns.stats().wal_records, 3, "records_total survives");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_overlay_past_threshold_folds_in_the_background() {
        let dir = temp_dir("refold");
        let cfg = hoplite_core::WalConfig::sync_every_record();
        {
            let registry = Registry::new();
            let seed = Dag::from_edges(5, &[]).unwrap();
            registry.open_durable("d", seed, &dir, cfg, None).unwrap();
            let ns = registry.get("d").unwrap();
            for (u, v) in [(0, 1), (1, 2), (2, 3)] {
                ns.add_edge("d", u, v).unwrap();
            }
        }
        // Reopened with a threshold the replayed overlay already meets:
        // the open itself relabels nothing and hands the fold to a
        // background worker.
        let registry = Registry::new();
        let seed = Dag::from_edges(5, &[]).unwrap();
        registry
            .open_durable("d", seed, &dir, cfg, Some(2))
            .unwrap();
        let ns = registry.get("d").unwrap();
        assert!(ns.rebuild_in_flight() || ns.rebuilds_completed() == 1);
        ns.quiesce("d");
        assert_eq!(ns.rebuilds_completed(), 1);
        assert_eq!(ns.stats().pending_inserts, 0);
        assert!(ns.reach(0, 3).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_rebuild_rotates_checkpoint_and_truncates_log() {
        let dir = temp_dir("rotate");
        let registry = Registry::new();
        registry
            .open_durable(
                "d",
                Dag::from_edges(6, &[]).unwrap(),
                &dir,
                hoplite_core::WalConfig::sync_every_record(),
                Some(3),
            )
            .unwrap();
        {
            let ns = registry.get("d").unwrap();
            for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)] {
                ns.add_edge("d", u, v).unwrap();
            }
            ns.quiesce("d");
            let after = ns.stats();
            assert!(ns.rebuilds_completed() >= 1, "threshold armed the worker");
            assert!(after.pending_inserts < 3, "{after:?}");
            // The rotation truncated the log down to the live overlay:
            // exactly one record per still-pending op.
            assert_eq!(
                after.wal_bytes,
                (after.pending_inserts + after.pending_deletions) * 17
            );
            assert_eq!(after.wal_records, 5, "records_total is monotonic");
            assert!(ns.reach(0, 5).unwrap());
        }
        // The rotation is durable: a reopen starts from the new
        // checkpoint plus the (possibly empty) rotated overlay log.
        let registry2 = Registry::new();
        registry2
            .open_durable(
                "d",
                Dag::from_edges(6, &[]).unwrap(),
                &dir,
                hoplite_core::WalConfig::default(),
                None,
            )
            .unwrap();
        let ns = registry2.get("d").unwrap();
        assert!(ns.reach(0, 5).unwrap());
        assert!(!ns.reach(5, 0).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_queries_count_batch_pairs() {
        let registry = frozen_fixture();
        let ns = registry.get("g").unwrap();
        ns.reach(0, 1).unwrap();
        ns.reach_batch(&[(0, 1), (1, 2), (2, 3)], 1).unwrap();
        assert_eq!(ns.stats().queries, 4);
    }

    #[test]
    fn stats_stage_counters_account_every_frozen_query() {
        let registry = frozen_fixture();
        let ns = registry.get("g").unwrap();
        let pairs: Vec<(u32, u32)> = (0..5).flat_map(|u| (0..5).map(move |v| (u, v))).collect();
        ns.reach_batch(&pairs, 2).unwrap();
        ns.reach(4, 0).unwrap();
        let stats = ns.stats();
        assert_eq!(stats.queries, 26);
        assert_eq!(
            stats.filter_hits + stats.signature_hits + stats.merge_runs,
            26,
            "every query must die in exactly one stage: {stats:?}"
        );
        assert!(stats.filter_hits > 0, "{stats:?}");
        assert!(
            stats.signature_bytes > 0,
            "frozen namespaces report their reach-mask bytes"
        );
    }

    /// A dynamic namespace's snapshot carries reach masks like a frozen
    /// one; over the same DAG, `STATS` reports the same mask bytes, and
    /// both kinds answer a batch into a caller's buffer alike.
    #[test]
    fn dynamic_stats_report_the_snapshot_mask_bytes() {
        let dag = hoplite_graph::gen::random_dag(120, 360, 3);
        let registry = Registry::new();
        registry
            .insert_frozen("f", Oracle::new(dag.graph()))
            .unwrap();
        registry
            .insert_dynamic("d", DynamicOracle::new(dag.clone()))
            .unwrap();
        let (frozen, dynamic) = (registry.get("f").unwrap(), registry.get("d").unwrap());
        let want = frozen.stats().signature_bytes;
        assert_eq!(want, 16 * 120, "one F and one B word per component");
        assert_eq!(dynamic.stats().signature_bytes, want);

        let pairs: Vec<(u32, u32)> = (0..120).map(|u| (u, (u * 7 + 3) % 120)).collect();
        let (mut a, mut b) = (vec![false; pairs.len()], vec![true; pairs.len()]);
        frozen.reach_batch_into(&pairs, &mut a, 2).unwrap();
        dynamic.reach_batch_into(&pairs, &mut b, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, frozen.reach_batch(&pairs, 1).unwrap());
    }
}
