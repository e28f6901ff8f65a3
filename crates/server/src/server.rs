//! The TCP server: [`Server::bind`] starts the epoll reactor
//! (the private `reactor` module) on a background thread and hands back a
//! [`ServerHandle`] that reports counters and shuts it down.
//!
//! One thread multiplexes every connection and coalesces queries
//! across them; connections are never refused below the fd limit, and
//! a slow reader gets backpressure instead. The loop speaks the
//! length-prefixed protocol of [`crate::protocol`]: malformed payloads
//! get an `ERROR` reply and the connection stays usable (the length
//! prefix already delimited the bad bytes); an oversized length prefix
//! gets a final `ERROR` and the connection is closed, because framing
//! can no longer be trusted. Serving needs epoll (Linux); elsewhere
//! [`Server::bind`] fails with `ErrorKind::Unsupported`.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::obs::ServerObs;
use crate::protocol::{MetricsReport, MAX_FRAME_LEN};
#[cfg(target_os = "linux")]
use crate::reactor::spawn as spawn_reactor;
use crate::registry::Registry;

/// Tunables for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Fan-out width for each per-tick coalesced super-batch on a
    /// frozen namespace
    /// ([`hoplite_core::parallel::par_query_batch_into`]).
    pub batch_threads: usize,
    /// Largest accepted frame payload.
    pub max_frame_len: u32,
    /// How often an idle `epoll_wait` re-checks the shutdown flag.
    pub poll_interval: Duration,
    /// Once a connection's buffered unwritten replies exceed this many
    /// bytes, the reactor stops *reading* from it until the peer
    /// drains — bounding per-connection memory with backpressure
    /// instead of unbounded queueing.
    pub write_backpressure: usize,
    /// Maximum age of a frame between **accumulation** (its last byte
    /// arriving off the socket) and dispatch. A frame that sits queued
    /// past the deadline is answered with a `DEADLINE_EXCEEDED`
    /// refusal instead of consuming batch-kernel time — under overload
    /// the server does *useful* work first and tells stale work it was
    /// never done. `None` (the default) disables deadlines.
    pub request_deadline: Option<Duration>,
    /// Close connections that carried no traffic for this long.
    /// `None` (the default) keeps idle peers forever.
    pub idle_timeout: Option<Duration>,
    /// Slow-loris guard: close connections holding an incomplete frame
    /// (a length prefix or partial body with no follow-up bytes) for
    /// this long. `None` disables the guard.
    pub half_frame_deadline: Option<Duration>,
    /// Admission-control high-water mark on decoded frames awaiting
    /// dispatch in one reactor tick. Past it, reads (`REACH`/`BATCH`)
    /// are shed with an `OVERLOADED` refusal carrying
    /// [`Self::retry_after`]; mutations are never shed (their ack is
    /// the WAL ack). `None` (the default) never sheds.
    pub shed_inflight_hwm: Option<usize>,
    /// Cap on query pairs admitted into one namespace's per-tick
    /// coalesced super-batch; frames past it are shed with
    /// `OVERLOADED`. `None` (the default) admits everything.
    pub shed_coalesced_pairs: Option<usize>,
    /// Hard cap on bytes of replies buffered for one connection. A
    /// peer that stops reading long enough to cross it is disconnected
    /// (and counted as reaped) instead of buffered unboundedly —
    /// [`Self::write_backpressure`] throttles, this one evicts.
    pub max_conn_backlog: usize,
    /// Advisory "come back in this long" hint carried by `OVERLOADED`
    /// and `NOT_READY` refusals.
    pub retry_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServerConfig {
            batch_threads: cores.clamp(1, 8),
            max_frame_len: MAX_FRAME_LEN,
            poll_interval: Duration::from_millis(25),
            write_backpressure: 256 * 1024,
            request_deadline: None,
            idle_timeout: None,
            half_frame_deadline: Some(Duration::from_secs(30)),
            shed_inflight_hwm: None,
            shed_coalesced_pairs: None,
            max_conn_backlog: 16 * 256 * 1024,
            retry_after: Duration::from_millis(100),
        }
    }
}

/// Monotonic serving counters, shared between the reactor thread and
/// the handle.
#[derive(Default)]
pub(crate) struct ServerCounters {
    pub(crate) connections: AtomicU64,
    pub(crate) frames: AtomicU64,
    pub(crate) errors: AtomicU64,
    /// Connections currently held open (live slab slots).
    pub(crate) active: AtomicUsize,
    /// Frames answered through a shared (≥ 2-frame) coalesced batch
    /// call, and how many such calls ran; exported as
    /// `reactor_coalesced_frames_total` / `reactor_coalesce_calls_total`.
    pub(crate) coalesced_frames: AtomicU64,
    pub(crate) coalesced_calls: AtomicU64,
    /// Frames shed by admission control (`OVERLOADED` replies).
    pub(crate) frames_shed: AtomicU64,
    /// Frames that aged out before dispatch (`DEADLINE_EXCEEDED`).
    pub(crate) deadline_exceeded: AtomicU64,
    /// Connections closed by hygiene: idle timeout, slow-loris
    /// half-frame deadline, or the hard reply-backlog cap.
    pub(crate) connections_reaped: AtomicU64,
}

/// Without epoll (Linux) there is no serving loop.
#[cfg(not(target_os = "linux"))]
fn spawn_reactor(
    _: TcpListener,
    _: Arc<Registry>,
    _: Arc<ServerConfig>,
    _: Arc<AtomicBool>,
    _: Arc<ServerCounters>,
    _: Arc<ServerObs>,
) -> io::Result<JoinHandle<()>> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "serving needs epoll (Linux)",
    ))
}

/// The server entry point; see [`Server::bind`].
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `registry` in background threads. Returns immediately;
    /// the returned handle reports the bound address and shuts the
    /// server down when told to (or on drop).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use hoplite_core::Oracle;
    /// use hoplite_graph::DiGraph;
    /// use hoplite_server::{Client, Registry, Server, ServerConfig};
    ///
    /// let registry = Arc::new(Registry::new());
    /// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    ///
    /// let handle = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    /// let mut client = Client::connect(handle.local_addr()).unwrap();
    /// assert!(client.reach("g", 0, 2).unwrap());
    /// handle.shutdown();
    /// ```
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<Registry>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServerCounters::default());
        let obs = Arc::new(ServerObs::new());
        let reactor = spawn_reactor(
            listener,
            Arc::clone(&registry),
            Arc::new(config),
            Arc::clone(&stop),
            Arc::clone(&counters),
            Arc::clone(&obs),
        )?;
        Ok(ServerHandle {
            local_addr,
            stop,
            reactor: Some(reactor),
            counters,
            obs,
            registry,
            metrics_thread: None,
        })
    }
}

/// Owns a running server; dropping it shuts the server down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
    counters: Arc<ServerCounters>,
    obs: Arc<ServerObs>,
    registry: Arc<Registry>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.counters.connections.load(Ordering::Relaxed)
    }

    /// Frames answered so far (including error replies).
    pub fn frames_served(&self) -> u64 {
        self.counters.frames.load(Ordering::Relaxed)
    }

    /// Error replies sent so far.
    pub fn errors_replied(&self) -> u64 {
        self.counters.errors.load(Ordering::Relaxed)
    }

    /// Connections currently held open.
    pub fn connections_active(&self) -> usize {
        self.counters.active.load(Ordering::SeqCst)
    }

    /// Frames shed by admission control (`OVERLOADED` replies sent).
    pub fn frames_shed(&self) -> u64 {
        self.counters.frames_shed.load(Ordering::Relaxed)
    }

    /// Frames that aged out past [`ServerConfig::request_deadline`]
    /// before dispatch (`DEADLINE_EXCEEDED` replies sent).
    pub fn deadlines_exceeded(&self) -> u64 {
        self.counters.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Connections closed by hygiene (idle timeout, slow-loris
    /// half-frame deadline, or the hard reply-backlog cap).
    pub fn connections_reaped(&self) -> u64 {
        self.counters.connections_reaped.load(Ordering::Relaxed)
    }

    /// The same report the `METRICS` wire op serves: server-wide
    /// counters and serving-loop histograms, plus every namespace's
    /// query-path series (or just `ns`'s when non-empty).
    pub fn metrics(&self, ns: &str) -> MetricsReport {
        crate::obs::collect_metrics(&self.registry, &self.counters, &self.obs, ns)
    }

    /// Prometheus-style text exposition of [`ServerHandle::metrics`] —
    /// exactly what the `--metrics-addr` HTTP endpoint returns.
    pub fn metrics_text(&self) -> String {
        crate::obs::render_prometheus(&self.metrics(""))
    }

    /// Starts the `GET /metrics` HTTP/1.0 responder on `addr` (port 0
    /// for ephemeral) in a background thread that lives until
    /// shutdown; returns the bound address.
    pub fn serve_metrics(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let (local, thread) = crate::obs::spawn_metrics_http(
            addr,
            Arc::clone(&self.registry),
            Arc::clone(&self.counters),
            Arc::clone(&self.obs),
            Arc::clone(&self.stop),
        )?;
        self.metrics_thread = Some(thread);
        Ok(local)
    }

    /// Graceful shutdown: stop accepting, let in-flight requests
    /// finish, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let serving = self.reactor.is_some() || self.metrics_thread.is_some();
        // Both threads poll the flag between waits, so joining them is
        // prompt: within one `poll_interval` plus the reactor's drain.
        self.stop.store(true, Ordering::SeqCst);
        for thread in [self.reactor.take(), self.metrics_thread.take()]
            .into_iter()
            .flatten()
        {
            let _ = thread.join();
        }
        if serving {
            // Connections are drained: force any unsynced WAL tail to
            // stable storage. The group-commit policy only evaluates
            // inside appends, so the last acknowledged records of a
            // burst would otherwise sit in the page cache until the
            // next mutation arrives — a graceful shutdown must not
            // leave them there.
            for (ns, e) in self.registry.sync_all() {
                crate::log_error!("shutdown", "final WAL sync failed for {ns:?}: {e}");
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
