//! The serving loop: one epoll reactor thread multiplexing every
//! connection, with cross-connection batch coalescing. Linux only.
//!
//! A single thread owns *all* sockets through `epoll(7)` — declared as
//! a std-only `extern "C"` shim, the same pattern as the
//! `hoplite_core::store` mmap shim — so 10k mostly-idle connections
//! cost file descriptors and buffer bytes, not threads, and nobody is
//! ever refused below the fd limit.
//!
//! Per tick the reactor:
//!
//! 1. drains readiness events — accepting new sockets, pulling
//!    whatever bytes each readable connection has (a
//!    [`FrameAccumulator`] tolerates half frames; a slow client can
//!    trickle one byte per tick without desynchronizing framing), and
//!    flushing writable connections' buffered replies;
//! 2. decodes the complete frames in place — each payload is borrowed
//!    from the connection's accumulator and parsed by
//!    [`RequestRef::decode`], so a frame costs no copy and no name
//!    allocation. A namespace is resolved through the [`Registry`]
//!    once per tick, by the first frame naming it; later frames find
//!    the tick's handle by name. `PING`/`LIST`/`STATS`/mutations and
//!    malformed payloads are answered inline; `REACH`/`BATCH` against
//!    **frozen** namespaces are *coalesced* — their pairs from every
//!    connection are gathered into one shared batch per namespace;
//! 3. runs each namespace's gathered batch through one
//!    [`NamespaceHandle::reach_batch_into`] call (i.e.
//!    `hoplite_core::parallel::par_query_batch_into` at the configured
//!    fan-out) into an answer buffer kept across ticks, so the
//!    two-stage prefetching kernel sees deep batches even when every
//!    client sends one-pair frames;
//! 4. scatters the answers back, encoding each connection's replies
//!    straight into its write buffer **in its own request order** (the
//!    protocol guarantee; across connections replies may complete in
//!    any order), then writes as
//!    much as each socket accepts. Unwritten bytes stay in a
//!    per-connection buffer; a connection whose buffered replies
//!    exceed [`ServerConfig::write_backpressure`] stops being *read*
//!    until the peer drains — backpressure instead of unbounded
//!    memory.
//!
//! Shutdown is a graceful drain: stop accepting, answer everything
//! already decoded, briefly flush buffered replies, close.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::obs::ServerObs;
use crate::protocol::{
    encode_bools_into, ErrorCode, FrameAccumulator, RequestRef, Response, WireError,
    MAX_BATCH_PAIRS,
};
use crate::registry::{NamespaceHandle, Registry, ServeError};
use crate::server::{ServerConfig, ServerCounters};

pub(crate) mod sys;

/// The listener's token; connection tokens are slab `index | gen<<32`
/// and an index never reaches `u32::MAX`.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Read-chunk size per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;

/// How often the hygiene sweep walks the slab looking for idle and
/// slow-loris connections. Coarse on purpose: the timeouts it enforces
/// are seconds-scale, so a half-second resolution costs nothing while
/// keeping the per-tick overhead at zero for busy reactors.
const SWEEP_INTERVAL: Duration = Duration::from_millis(500);

// ---------------------------------------------------------------------
// Connection slab
// ---------------------------------------------------------------------

/// One multiplexed connection's state.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    /// Incremental frame parser over whatever bytes have arrived.
    acc: FrameAccumulator,
    /// Encoded-but-unwritten reply bytes; `out_pos` marks the
    /// already-written prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// Close once `out` flushes (EOF seen, or framing broke).
    close_after_flush: bool,
    /// Interest currently registered with the poller.
    interest: (bool, bool),
    /// When the write-backpressure threshold was crossed (reads
    /// paused); `None` while flowing. Feeds the stall metrics.
    stalled_since: Option<Instant>,
    /// Last time bytes arrived (or the connection was accepted); the
    /// idle-reaping clock.
    last_activity: Instant,
    /// When the accumulator first held a half frame that has not since
    /// completed; the slow-loris clock. `None` while frame-aligned.
    partial_since: Option<Instant>,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// Generation-stamped connection storage: tokens from a previous
/// occupant of a slot never resolve, so a reply can never be scattered
/// to a connection that closed (and whose fd was reused) mid-tick.
struct Slab {
    entries: Vec<(u32, Option<Conn>)>,
    free: Vec<u32>,
    live: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> u64 {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let entry = &mut self.entries[index as usize];
            entry.1 = Some(conn);
            token(index, entry.0)
        } else {
            let index = self.entries.len() as u32;
            self.entries.push((0, Some(conn)));
            token(index, 0)
        }
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let (index, gen) = untoken(token);
        match self.entries.get_mut(index as usize) {
            Some((g, slot)) if *g == gen => slot.as_mut(),
            _ => None,
        }
    }

    /// Removes and returns the connection; bumps the generation so the
    /// token (and any copy of it in this tick's slots) goes stale.
    fn remove(&mut self, token: u64) -> Option<Conn> {
        let (index, gen) = untoken(token);
        match self.entries.get_mut(index as usize) {
            Some((g, slot)) if *g == gen && slot.is_some() => {
                *g = g.wrapping_add(1);
                self.free.push(index);
                self.live -= 1;
                slot.take()
            }
            _ => None,
        }
    }

    fn drain_live(&mut self) -> impl Iterator<Item = Conn> + '_ {
        self.live = 0;
        self.entries.iter_mut().filter_map(|(_, slot)| slot.take())
    }
}

fn token(index: u32, gen: u32) -> u64 {
    index as u64 | (gen as u64) << 32
}

fn untoken(token: u64) -> (u32, u32) {
    (token as u32, (token >> 32) as u32)
}

// ---------------------------------------------------------------------
// Per-tick coalescing state
// ---------------------------------------------------------------------

/// Where one coalesced frame's answers live in its namespace's shared
/// pair vector, and what reply shape it expects.
#[derive(Clone, Copy)]
struct Target {
    slot: usize,
    start: usize,
    len: usize,
    /// `BATCH` (bit-packed `BOOLS`) vs single `REACH` (`BOOL`).
    batch: bool,
}

/// One namespace as a tick sees it: the handle the tick's first frame
/// naming it resolved, and, when it is frozen, the reads gathered for
/// its one kernel call. Entries outlive the tick so their vectors are
/// reused; the handle does not, so each tick resolves the namespace
/// afresh and a replaced or removed namespace is never served stale.
struct Job {
    handle: Option<NamespaceHandle>,
    pairs: Vec<(u32, u32)>,
    targets: Vec<Target>,
}

/// One decoded frame awaiting its reply: where it came from, and when
/// its bytes arrived (the deadline clock, and the accept→reply latency
/// histogram).
struct Slot {
    token: u64,
    arrived: Instant,
    reply: Option<Reply>,
}

/// A slot's reply: a response, or a `BATCH` frame's answers as a range
/// of the tick's answer buffer, encoded straight from it.
enum Reply {
    Response(Response),
    Bools(Range<usize>),
}

/// Everything decoded this tick: per-connection replies are emitted in
/// `slots` order, which is arrival order, so pipelined clients read
/// replies in the order they sent requests.
#[derive(Default)]
struct Tick {
    slots: Vec<Slot>,
    /// Every namespace a frame has named, by name: its index in `jobs`.
    names: HashMap<String, usize>,
    jobs: Vec<Job>,
    /// The kernel's answers for every job of the tick, one range per
    /// job, read by `scatter` and kept across ticks like the jobs'
    /// pair vectors.
    answers: Vec<bool>,
    /// Connections touched this tick (deduplicated coarsely); flushed
    /// and swept after scatter.
    dirty: Vec<u64>,
}

impl Tick {
    /// The index in `jobs` of namespace `ns`, whose handle the
    /// registry is asked for only by the tick's first frame naming it.
    fn resolve(&mut self, registry: &Registry, ns: &str) -> Result<usize, ServeError> {
        let unknown = || ServeError::UnknownNamespace(ns.to_owned());
        let Some(&index) = self.names.get(ns) else {
            let handle = registry.get(ns).ok_or_else(unknown)?;
            self.jobs.push(Job {
                handle: Some(handle),
                pairs: Vec::new(),
                targets: Vec::new(),
            });
            self.names.insert(ns.to_owned(), self.jobs.len() - 1);
            return Ok(self.jobs.len() - 1);
        };
        let job = &mut self.jobs[index];
        if job.handle.is_none() {
            job.handle = Some(registry.get(ns).ok_or_else(unknown)?);
        }
        Ok(index)
    }

    /// This tick's handle of a namespace [`Tick::resolve`] found.
    fn handle(&self, index: usize) -> &NamespaceHandle {
        self.jobs[index]
            .handle
            .as_ref()
            .expect("resolve sets the handle for this tick")
    }

    /// This tick's handle of namespace `ns`.
    fn lookup(&mut self, registry: &Registry, ns: &str) -> Result<&NamespaceHandle, ServeError> {
        let index = self.resolve(registry, ns)?;
        Ok(self.handle(index))
    }

    fn push_dirty(&mut self, token: u64) {
        if self.dirty.last() != Some(&token) {
            self.dirty.push(token);
        }
    }

    fn push_slot(&mut self, token: u64, arrived: Instant, response: Option<Response>) {
        self.slots.push(Slot {
            token,
            arrived,
            reply: response.map(Reply::Response),
        });
    }
}

// ---------------------------------------------------------------------
// The reactor loop
// ---------------------------------------------------------------------

/// Starts the reactor thread serving `listener` until `stop`. The
/// poller is set up here, on the caller's thread, so a platform without
/// a readiness backend fails [`crate::Server::bind`] outright.
pub(crate) fn spawn(
    listener: TcpListener,
    registry: Arc<Registry>,
    config: Arc<ServerConfig>,
    stop: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    obs: Arc<ServerObs>,
) -> io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let poller = sys::Poller::new()?;
    poller.add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
    std::thread::Builder::new()
        .name("hoplited-reactor".into())
        .spawn(move || {
            let served = run(
                &listener, &poller, &registry, &config, &stop, &counters, &obs,
            );
            if let Err(e) = served {
                // A reactor that cannot poll cannot serve; surface the
                // reason rather than spinning. (Per-connection errors
                // are handled inline by dropping the connection.)
                crate::log_error!("reactor", "reactor failed: {e}");
            }
        })
}

fn run(
    listener: &TcpListener,
    poller: &sys::Poller,
    registry: &Registry,
    config: &ServerConfig,
    stop: &AtomicBool,
    counters: &ServerCounters,
    obs: &ServerObs,
) -> io::Result<()> {
    let mut slab = Slab::new();
    let mut events: Vec<sys::Event> = Vec::new();
    let mut tick = Tick::default();
    let mut last_sweep = Instant::now();

    while !stop.load(Ordering::SeqCst) {
        poller.wait(&mut events, config.poll_interval)?;
        // Idle wakeups (shutdown poll timeouts) are not ticks worth
        // histogramming; only time passes through real work.
        let tick_started = (!events.is_empty()).then(Instant::now);
        for event in &events {
            if event.token == LISTENER_TOKEN {
                accept_ready(listener, poller, &mut slab, config, counters);
                continue;
            }
            if event.readable {
                read_ready(
                    event.token,
                    &mut slab,
                    &mut tick,
                    registry,
                    config,
                    counters,
                    obs,
                );
            }
            if event.writable {
                tick.push_dirty(event.token);
            }
        }
        if !tick.slots.is_empty() {
            obs.inflight_frames.record(tick.slots.len() as u64);
        }
        run_jobs(&mut tick, config, counters, obs);
        scatter(&mut tick, &mut slab, counters, obs);
        for &token in &tick.dirty {
            flush_and_sweep(token, &mut slab, poller, config, counters, obs);
        }
        tick.dirty.clear();
        tick.slots.clear();
        // Connection hygiene rides the poll tick: reap connections idle
        // past `idle_timeout` and slow-loris peers holding a half frame
        // past `half_frame_deadline`.
        if last_sweep.elapsed() >= SWEEP_INTERVAL {
            last_sweep = Instant::now();
            sweep_stale(&mut slab, config, counters);
        }
        if let Some(started) = tick_started {
            obs.tick_ns.record(started.elapsed().as_nanos() as u64);
        }
    }

    drain(&mut slab, counters);
    poller.remove(listener.as_raw_fd());
    Ok(())
}

/// Accepts everything the listen queue holds. The reactor never
/// refuses a connection: an idle socket costs one fd and a few hundred
/// bytes, so capacity is the fd limit, not a thread count.
fn accept_ready(
    listener: &TcpListener,
    poller: &sys::Poller,
    slab: &mut Slab,
    config: &ServerConfig,
    counters: &ServerCounters,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue; // peer already gone
                }
                let _ = stream.set_nodelay(true);
                let fd = stream.as_raw_fd();
                let token = slab.insert(Conn {
                    stream,
                    fd,
                    acc: FrameAccumulator::new(config.max_frame_len),
                    out: Vec::new(),
                    out_pos: 0,
                    close_after_flush: false,
                    interest: (true, false),
                    stalled_since: None,
                    last_activity: Instant::now(),
                    partial_since: None,
                });
                counters.connections.fetch_add(1, Ordering::Relaxed);
                counters.active.fetch_add(1, Ordering::SeqCst);
                if poller.add(fd, token, true, false).is_err() {
                    // Registration failure (fd limit pressure inside
                    // the poller): drop the connection cleanly.
                    drop_conn(token, slab, counters);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept failure (EMFILE…): back off briefly
                // instead of spinning on a hot listener.
                std::thread::sleep(Duration::from_millis(5));
                break;
            }
        }
    }
}

fn drop_conn(token: u64, slab: &mut Slab, counters: &ServerCounters) {
    if slab.remove(token).is_some() {
        // The poller forgets a closed fd automatically; dropping the
        // stream closes it.
        counters.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Reaps connections that are idle past [`ServerConfig::idle_timeout`]
/// or have held a half-written frame past
/// [`ServerConfig::half_frame_deadline`] (the slow-loris pattern: trickle
/// a length prefix, then hold the fd hostage byte by byte). A
/// connection with buffered replies or buffered request bytes is never
/// "idle" — only a peer with nothing in flight in either direction.
fn sweep_stale(slab: &mut Slab, config: &ServerConfig, counters: &ServerCounters) {
    if config.idle_timeout.is_none() && config.half_frame_deadline.is_none() {
        return;
    }
    let now = Instant::now();
    let mut doomed: Vec<u64> = Vec::new();
    for (index, (gen, slot)) in slab.entries.iter().enumerate() {
        let Some(conn) = slot.as_ref() else {
            continue;
        };
        let idle = config.idle_timeout.is_some_and(|t| {
            conn.acc.pending_bytes() == 0
                && conn.backlog() == 0
                && now.duration_since(conn.last_activity) >= t
        });
        let loris = config.half_frame_deadline.is_some_and(|t| {
            conn.partial_since
                .is_some_and(|since| now.duration_since(since) >= t)
        });
        if idle || loris {
            doomed.push(token(index as u32, *gen));
        }
    }
    for t in doomed {
        counters.connections_reaped.fetch_add(1, Ordering::Relaxed);
        drop_conn(t, slab, counters);
    }
}

/// Pulls the available bytes from a readable connection (until a
/// short read, EOF or one maximal frame's worth) and decodes the
/// complete frames into this tick's slots/jobs.
fn read_ready(
    token: u64,
    slab: &mut Slab,
    tick: &mut Tick,
    registry: &Registry,
    config: &ServerConfig,
    counters: &ServerCounters,
    obs: &ServerObs,
) {
    let Some(conn) = slab.get_mut(token) else {
        return;
    };
    if conn.close_after_flush || conn.backlog() > config.write_backpressure {
        // Closing, or backpressured: leave the bytes in the kernel
        // buffer (level-triggered readiness re-reports them once the
        // peer drains our replies).
        if !conn.close_after_flush && conn.stalled_since.is_none() {
            conn.stalled_since = Some(Instant::now());
            obs.stall_count.inc();
        }
        return;
    }
    let mut buf = [0u8; READ_CHUNK];
    let mut eof = false;
    // Every frame completed by this readiness event shares one arrival
    // stamp: the moment its bytes landed. Deadlines are measured from
    // here, so time spent queued behind this tick's other work counts
    // against the budget.
    let now = Instant::now();
    let mut got_bytes = false;
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(k) => {
                got_bytes = true;
                conn.acc.extend(&buf[..k]);
                if k < READ_CHUNK {
                    // A short read drained the socket: skip the read
                    // that would only return `EAGAIN`. Readiness is
                    // level-triggered, so bytes landing after it are
                    // reported again next tick.
                    break;
                }
                if conn.acc.pending_bytes() as u64 > config.max_frame_len as u64 + 4 {
                    break; // one frame's worth is buffered; parse first
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                drop_conn(token, slab, counters);
                return;
            }
        }
    }
    if got_bytes {
        conn.last_activity = now;
    }

    // Decode every complete frame in arrival order, each borrowed from
    // the accumulator.
    loop {
        match conn.acc.next_frame_ref() {
            Ok(Some(payload)) => {
                decode_frame(payload, token, now, tick, registry, config, counters, obs);
            }
            Ok(None) => break,
            Err(e) => {
                // Oversized length prefix: framing can no longer be
                // trusted; final error reply, then close after flush.
                conn.close_after_flush = true;
                tick.push_slot(
                    token,
                    now,
                    Some(Response::Error(format!("bad request: {e}"))),
                );
                break;
            }
        }
    }
    // Track how long a half frame has been outstanding (slow-loris
    // clock): armed when a partial frame first appears, cleared the
    // moment the connection is frame-aligned again.
    if conn.acc.pending_bytes() > 0 {
        conn.partial_since.get_or_insert(now);
    } else {
        conn.partial_since = None;
    }
    if eof {
        // Peer half-closed: answer what it already sent, then close.
        conn.close_after_flush = true;
    }
    tick.push_dirty(token);
}

/// Decodes one frame into an inline reply or a coalesced-job target.
#[allow(clippy::too_many_arguments)] // one call site; a params struct would only rename the list
fn decode_frame(
    payload: &[u8],
    token: u64,
    arrived: Instant,
    tick: &mut Tick,
    registry: &Registry,
    config: &ServerConfig,
    counters: &ServerCounters,
    obs: &ServerObs,
) {
    let response = match RequestRef::decode(payload) {
        Ok(request) => dispatch(request, arrived, tick, registry, config, counters, obs),
        Err(e) => Some(Response::Error(format!("bad request: {e}"))),
    };
    tick.push_slot(token, arrived, response);
}

/// Answers one decoded request inline, or queues a frozen-namespace
/// read on this tick's coalesced job and returns `None` (`run_jobs`
/// fills its slot).
fn dispatch(
    request: RequestRef<'_>,
    arrived: Instant,
    tick: &mut Tick,
    registry: &Registry,
    config: &ServerConfig,
    counters: &ServerCounters,
    obs: &ServerObs,
) -> Option<Response> {
    // A frame that aged past its deadline while waiting to be decoded
    // gets a `DEADLINE_EXCEEDED` reply instead of consuming dispatch
    // time (coalesced queries get a second check at kernel-call time in
    // `run_jobs`). `PING` is exempt: liveness probes must answer even
    // on a drowning server.
    if let Some(deadline) = config.request_deadline {
        if !matches!(request, RequestRef::Ping) && arrived.elapsed() > deadline {
            return Some(Response::deadline_exceeded(
                "request aged past its deadline before dispatch",
            ));
        }
    }
    // Admission control: past the in-flight high-water mark, shed the
    // cheapest work first — read queries, which are free to retry —
    // with a typed `OVERLOADED` reply the client's backoff honors.
    // Mutations (whose reply is the WAL ack) and control-plane ops
    // (`PING`/`STATS`/`LIST`/`METRICS`, exactly what an operator needs
    // *during* overload) are never shed.
    let in_flight = tick.slots.len();
    if config.shed_inflight_hwm.is_some_and(|hwm| in_flight >= hwm)
        && matches!(request, RequestRef::Reach { .. } | RequestRef::Batch { .. })
    {
        return Some(Response::overloaded(
            retry_after_ms(config),
            format!("overloaded: {in_flight} frames already in flight this tick"),
        ));
    }
    // Startup gate: while namespace load / WAL replay is still in
    // progress, everything but `PING` (the liveness probe) and `LIST`
    // (it reports what *has* loaded so far) gets a typed `NOT_READY` —
    // not a misleading "unknown namespace" from a registry that simply
    // hasn't loaded yet.
    if !registry.is_ready() && !matches!(request, RequestRef::Ping | RequestRef::List) {
        return Some(Response::not_ready(
            retry_after_ms(config),
            "server is starting up (namespace load / WAL replay in progress)",
        ));
    }
    fn reply<T>(result: Result<T, ServeError>, ok: impl FnOnce(T) -> Response) -> Response {
        match result {
            Ok(v) => ok(v),
            Err(e) => Response::Error(e.to_string()),
        }
    }
    match request {
        RequestRef::Reach { ns, u, v } => {
            query(tick, registry, config, ns, [(u, v)].into_iter(), false)
        }
        RequestRef::Batch { ns, pairs } => query(tick, registry, config, ns, pairs.iter(), true),
        RequestRef::Ping => Some(Response::Pong),
        RequestRef::List => Some(Response::List(registry.list())),
        RequestRef::AddEdge { ns, u, v } => Some(reply(
            tick.lookup(registry, ns).and_then(|h| h.add_edge(ns, u, v)),
            |()| Response::Bool(true),
        )),
        RequestRef::RemoveEdge { ns, u, v } => Some(reply(
            tick.lookup(registry, ns)
                .and_then(|h| h.remove_edge(ns, u, v)),
            Response::Bool,
        )),
        RequestRef::Stats { ns } => Some(reply(
            tick.lookup(registry, ns).map(|h| h.stats()),
            Response::Stats,
        )),
        RequestRef::Metrics { ns } => Some(match tick.lookup(registry, ns) {
            Err(e) if !ns.is_empty() => Response::Error(e.to_string()),
            _ => Response::Metrics(crate::obs::collect_metrics(registry, counters, obs, ns)),
        }),
    }
}

/// A `REACH` (`batch == false`) or `BATCH` read: queued on its frozen
/// namespace's per-tick job, or answered inline when it fails
/// validation, busts the coalesced-pair budget, or targets a dynamic
/// namespace (those serialize through their mutex regardless).
fn query(
    tick: &mut Tick,
    registry: &Registry,
    config: &ServerConfig,
    ns: &str,
    pairs: impl ExactSizeIterator<Item = (u32, u32)> + Clone,
    batch: bool,
) -> Option<Response> {
    let index = match tick.resolve(registry, ns) {
        Ok(index) => index,
        Err(e) => return Some(Response::Error(e.to_string())),
    };
    let handle = tick.handle(index);
    if !handle.is_frozen() {
        let mut pairs = pairs;
        let answered = match (batch, pairs.next()) {
            // A `REACH` needs neither a pair nor an answer vector.
            (false, Some((u, v))) => handle.reach(u, v).map(Response::Bool),
            (_, first) => {
                let pairs: Vec<(u32, u32)> = first.into_iter().chain(pairs).collect();
                handle.reach_batch(&pairs, 1).map(Response::Bools)
            }
        };
        return Some(answered.unwrap_or_else(|e| Response::Error(e.to_string())));
    }
    if let Err(e) = pairs
        .clone()
        .try_for_each(|(u, v)| handle.validate_pair(u, v))
    {
        return Some(Response::Error(e.to_string()));
    }
    // The per-tick coalesced-pair budget bounds how much kernel time
    // one tick can commit to. A frame that would bust it is shed —
    // unless the namespace's batch is still empty, so an
    // oversized-but-legal batch always makes progress eventually.
    let slot = tick.slots.len();
    let job = &mut tick.jobs[index];
    let queued = job.pairs.len();
    if config
        .shed_coalesced_pairs
        .is_some_and(|budget| queued > 0 && queued + pairs.len() > budget)
    {
        return Some(Response::overloaded(
            retry_after_ms(config),
            format!("overloaded: coalesced-batch budget for namespace {ns:?} exhausted this tick"),
        ));
    }
    job.targets.push(Target {
        slot,
        start: queued,
        len: pairs.len(),
        batch,
    });
    job.pairs.extend(pairs);
    None
}

/// The retry-after hint in the unit the wire carries (saturating; a
/// hint longer than ~49 days caps out).
fn retry_after_ms(config: &ServerConfig) -> u32 {
    config.retry_after.as_millis().min(u32::MAX as u128) as u32
}

/// Runs every namespace's coalesced batch through one kernel call
/// into its own range of the tick's answer buffer, then fills the
/// targets' slots. Every job leaves emptied and its handle dropped;
/// its vectors are kept for the next tick, each at most one maximal
/// batch's worth. The answers stay until `scatter` has encoded them.
fn run_jobs(tick: &mut Tick, config: &ServerConfig, counters: &ServerCounters, obs: &ServerObs) {
    let dispatch = Instant::now();
    for job in &mut tick.jobs {
        if let Some(handle) = job.handle.take() {
            if !job.targets.is_empty() {
                run_job(
                    &handle,
                    job,
                    &mut tick.answers,
                    &mut tick.slots,
                    dispatch,
                    config,
                    counters,
                    obs,
                );
            }
        }
        job.pairs.clear();
        job.pairs.shrink_to(MAX_BATCH_PAIRS as usize);
        job.targets.clear();
    }
}

/// One namespace's kernel call for this tick.
#[allow(clippy::too_many_arguments)] // one call site, like `decode_frame`
fn run_job(
    handle: &NamespaceHandle,
    job: &mut Job,
    answers: &mut Vec<bool>,
    slots: &mut [Slot],
    dispatch: Instant,
    config: &ServerConfig,
    counters: &ServerCounters,
    obs: &ServerObs,
) {
    // Last deadline check, at the moment the kernel call would start:
    // frames that aged out queued behind this tick's other work answer
    // `DEADLINE_EXCEEDED` and their pairs drop out of the batch (the
    // live ones slide down in place) rather than consuming kernel time.
    if let Some(deadline) = config.request_deadline {
        let mut live = 0;
        job.targets.retain_mut(|target| {
            let slot = &mut slots[target.slot];
            if dispatch.duration_since(slot.arrived) > deadline {
                slot.reply = Some(Reply::Response(Response::deadline_exceeded(
                    "request aged past its deadline before dispatch",
                )));
                return false;
            }
            job.pairs
                .copy_within(target.start..target.start + target.len, live);
            target.start = live;
            live += target.len;
            true
        });
        job.pairs.truncate(live);
        if job.targets.is_empty() {
            return;
        }
    }
    obs.coalesce_batch.record(job.pairs.len() as u64);
    let base = answers.len();
    answers.resize(base + job.pairs.len(), false);
    // Unreachable in practice: every pair was validated at decode
    // time. Fail the frames of this namespace rather than the whole
    // tick.
    let failed = handle
        .reach_batch_into(&job.pairs, &mut answers[base..], config.batch_threads)
        .err()
        .map(|e| e.to_string());
    if job.targets.len() > 1 {
        counters.coalesced_calls.fetch_add(1, Ordering::Relaxed);
        counters
            .coalesced_frames
            .fetch_add(job.targets.len() as u64, Ordering::Relaxed);
    }
    for target in &job.targets {
        let start = base + target.start;
        let reply = match &failed {
            Some(message) => Reply::Response(Response::Error(message.clone())),
            None if target.batch => Reply::Bools(start..start + target.len),
            None => Reply::Response(Response::Bool(answers[start])),
        };
        slots[target.slot].reply = Some(reply);
    }
}

/// Appends every slot's encoded reply to its connection's write
/// buffer, in slot order — which is per-connection arrival order —
/// then empties the tick's answer buffer, keeping at most one maximal
/// batch's worth of it.
fn scatter(tick: &mut Tick, slab: &mut Slab, counters: &ServerCounters, obs: &ServerObs) {
    for slot in tick.slots.drain(..) {
        let reply = slot.reply.unwrap_or_else(|| {
            Reply::Response(Response::Error("internal: request went unanswered".into()))
        });
        // Count before the connection lookup: a frame whose connection
        // died mid-tick was still served, and the books must reconcile
        // (frames = answers + sheds + deadline refusals).
        counters.frames.fetch_add(1, Ordering::Relaxed);
        if let Reply::Response(response) = &reply {
            count_refusal(counters, response);
        }
        let Some(conn) = slab.get_mut(slot.token) else {
            continue; // connection died mid-tick; drop its replies
        };
        match reply {
            Reply::Response(response) => {
                encode_frame(&mut conn.out, |out| response.encode_into(out))
            }
            Reply::Bools(range) => {
                let answers = &tick.answers[range];
                encode_frame(&mut conn.out, |out| encode_bools_into(out, answers))
            }
        }
        obs.reply_latency_ns
            .record(slot.arrived.elapsed().as_nanos() as u64);
    }
    tick.answers.clear();
    tick.answers.shrink_to(MAX_BATCH_PAIRS as usize);
}

/// Books an outgoing error or refusal into its counter, so the
/// exposition reconciles with what peers observed.
fn count_refusal(counters: &ServerCounters, response: &Response) {
    let counter = match response {
        Response::Error(_)
        | Response::Fail {
            code: ErrorCode::NotReady,
            ..
        } => &counters.errors,
        Response::Fail {
            code: ErrorCode::Overloaded,
            ..
        } => &counters.frames_shed,
        Response::Fail {
            code: ErrorCode::DeadlineExceeded,
            ..
        } => &counters.deadline_exceeded,
        _ => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Encodes one length-prefixed frame in place at the end of `out`:
/// `put` appends the payload straight into the buffer (or leaves it
/// untouched on error) and the length prefix is patched in after it.
fn encode_frame(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    if let Err(e) = put(out) {
        Response::Error(format!("internal encode failure: {e}"))
            .encode_into(out)
            .expect("plain error replies always encode");
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes as much of a connection's buffer as the socket accepts, then
/// reconciles poller interest: write interest while a backlog remains,
/// read interest unless closing or backpressured.
fn flush_and_sweep(
    token: u64,
    slab: &mut Slab,
    poller: &sys::Poller,
    config: &ServerConfig,
    counters: &ServerCounters,
    obs: &ServerObs,
) {
    let Some(conn) = slab.get_mut(token) else {
        return;
    };
    obs.queue_depth.record(conn.backlog() as u64);
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                drop_conn(token, slab, counters);
                return;
            }
            Ok(k) => conn.out_pos += k,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                drop_conn(token, slab, counters);
                return;
            }
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_flush {
            drop_conn(token, slab, counters);
            return;
        }
    } else if conn.backlog() > config.max_conn_backlog {
        // Soft backpressure pauses reads; this is the hard line. A peer
        // that pipelines faster than it drains replies past the cap is
        // abusive (or dead), and holding its buffer hostage-style costs
        // memory every other connection shares. Close it.
        counters.connections_reaped.fetch_add(1, Ordering::Relaxed);
        drop_conn(token, slab, counters);
        return;
    } else if conn.out_pos >= 64 * 1024 {
        // Reclaim the written prefix of a large backlog.
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    let want_write = conn.backlog() > 0;
    let want_read = !conn.close_after_flush && conn.backlog() <= config.write_backpressure;
    if want_read {
        if let Some(stalled) = conn.stalled_since.take() {
            obs.stall_ns.add(stalled.elapsed().as_nanos() as u64);
        }
    }
    if conn.interest != (want_read, want_write) {
        conn.interest = (want_read, want_write);
        if poller
            .modify(conn.fd, token, want_read, want_write)
            .is_err()
        {
            drop_conn(token, slab, counters);
        }
    }
}

/// Graceful-drain tail of a shutdown: briefly flush whatever replies
/// are still buffered (bounded per connection *and* overall, so a
/// wedged peer cannot hold the process), then close everything.
fn drain(slab: &mut Slab, counters: &ServerCounters) {
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut closed = 0u64;
    for conn in slab.drain_live() {
        closed += 1;
        if conn.backlog() > 0 && Instant::now() < deadline {
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn
                .stream
                .set_write_timeout(Some(Duration::from_millis(100)));
            let mut stream = conn.stream;
            let _ = stream.write_all(&conn.out[conn.out_pos..]);
        }
    }
    // drain_live consumed the gauge's connections in one sweep.
    counters.active.fetch_sub(closed as usize, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_conn() -> Conn {
        // A loopback socket pair gives the slab something real to own.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let fd = stream.as_raw_fd();
        Conn {
            stream,
            fd,
            acc: FrameAccumulator::new(1024),
            out: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            interest: (true, false),
            stalled_since: None,
            last_activity: Instant::now(),
            partial_since: None,
        }
    }

    #[test]
    fn slab_tokens_go_stale_on_removal_and_slots_are_reused() {
        let mut slab = Slab::new();
        let t1 = slab.insert(dummy_conn());
        assert!(slab.get_mut(t1).is_some());
        assert!(slab.remove(t1).is_some());
        assert!(slab.get_mut(t1).is_none(), "stale token must not resolve");
        assert!(slab.remove(t1).is_none(), "double remove is a no-op");

        let t2 = slab.insert(dummy_conn());
        let (i1, g1) = untoken(t1);
        let (i2, g2) = untoken(t2);
        assert_eq!(i1, i2, "slot is reused");
        assert_ne!(g1, g2, "generation advanced");
        assert!(slab.get_mut(t1).is_none(), "old token still stale");
        assert!(slab.get_mut(t2).is_some());
        assert_eq!(slab.live, 1);
    }

    #[test]
    fn poller_reports_readable_loopback_data() {
        let poller = sys::Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(b.as_raw_fd(), 7, true, false).unwrap();

        // Nothing pending: the wait times out empty.
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.iter().all(|e| e.token != 7));

        a.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "readiness never reported");
        }
        poller.remove(b.as_raw_fd());
    }
}
