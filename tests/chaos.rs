//! Wire-level chaos harness for the overload-resilience machinery
//! (PR 9 tentpole).
//!
//! A fault-injecting TCP proxy sits between the load generator and the
//! server, cutting, truncating, and delaying traffic at configurable
//! byte offsets, while the suite drives load well past the configured
//! shed thresholds. The contracts under test:
//!
//! - no reply ever corrupts framing (a fault costs a connection, never
//!   a parse error on a surviving one);
//! - the shed rate under overload is nonzero but bounded, and the
//!   accepted-query p99 stays under a gate;
//! - acknowledged mutations survive a restart even when the wire that
//!   carried them was chaotic;
//! - server-side counters reconcile with client-observed replies;
//! - idle, slow-loris, and never-reading connections are reaped;
//! - `/readyz` flips 503 → 200 exactly at end-of-replay, with data
//!   reads refused as typed `NOT_READY` until then.

use std::fs;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hoplite::core::WalConfig;
use hoplite::graph::{gen, traversal};
use hoplite::server::loadgen::{run_load, LoadSpec};
use hoplite::server::{
    Client, ClientError, ErrorCode, Registry, Request, Server, ServerConfig, ServerHandle,
};
use hoplite::{Dag, Oracle};

// ---------------------------------------------------------------------
// Fault-injecting proxy.
// ---------------------------------------------------------------------

/// One wire-level fault, applied to one proxied connection.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Forward faithfully.
    None,
    /// Forward the first `after` server→client bytes, then cut both
    /// directions: a reply truncated mid-frame, as a dying middlebox
    /// would leave it.
    TruncateReplies { after: usize },
    /// Forward the first `after` client→server bytes, then cut both
    /// directions: a request stream dropped mid-frame.
    CutRequests { after: usize },
    /// Forward everything, pausing before each chunk — a congested
    /// path that stretches pipelines across many reactor ticks.
    Delay { per_chunk: Duration },
}

/// A TCP proxy that applies a cycling per-connection fault plan.
/// Dropping it stops the accept loop; pump threads die with their
/// sockets.
struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    fn start(upstream: SocketAddr, plan: Vec<Fault>) -> ChaosProxy {
        assert!(!plan.is_empty());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy port");
        listener.set_nonblocking(true).expect("nonblocking accept");
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut accepted = 0usize;
            while !stop_flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let fault = plan[accepted % plan.len()];
                        accepted += 1;
                        if let Ok(server) = TcpStream::connect(upstream) {
                            splice(client, server, fault);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        ChaosProxy {
            addr,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Wires the two pump directions for one proxied connection.
fn splice(client: TcpStream, server: TcpStream, fault: Fault) {
    let client2 = client.try_clone().expect("clone client socket");
    let server2 = server.try_clone().expect("clone server socket");
    let (c2s_budget, s2c_budget, delay) = match fault {
        Fault::None => (None, None, None),
        Fault::TruncateReplies { after } => (None, Some(after), None),
        Fault::CutRequests { after } => (Some(after), None, None),
        Fault::Delay { per_chunk } => (None, None, Some(per_chunk)),
    };
    std::thread::spawn(move || pump(client, server2, c2s_budget, delay));
    std::thread::spawn(move || pump(server, client2, s2c_budget, delay));
}

/// Copies `from` → `to` until EOF or error. With a byte `budget`, the
/// fault fires at that offset: the connection is cut in **both**
/// directions, so the victim sees a prompt EOF rather than a silent
/// stall (the stall case gets its own dedicated test below).
fn pump(mut from: TcpStream, mut to: TcpStream, budget: Option<usize>, delay: Option<Duration>) {
    let mut remaining = budget;
    let mut buf = [0u8; 4096];
    loop {
        let got = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(k) => k,
        };
        if let Some(pause) = delay {
            std::thread::sleep(pause);
        }
        let take = remaining.map_or(got, |r| r.min(got));
        if take > 0 && to.write_all(&buf[..take]).is_err() {
            break;
        }
        if let Some(r) = &mut remaining {
            *r -= take;
            if *r == 0 {
                break; // fault fires: cut both ways below
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------

/// A fresh scratch directory per call (pid + counter keep parallel
/// test binaries and repeated runs apart).
fn temp_dir(tag: &str) -> PathBuf {
    static CALL: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hoplite-chaos-{tag}-{}-{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    dir
}

/// A server admitting roughly `1/factor` of the load the spec offers —
/// the drill every overload test runs at 3–4x the shed threshold.
/// Both budgets count frames in flight per reactor tick, across every
/// connection.
fn overloaded_server(
    registry: Registry,
    conns: usize,
    pipeline: usize,
    factor: usize,
    deadline: Duration,
) -> ServerHandle {
    let inflight = conns * pipeline;
    let config = ServerConfig {
        shed_inflight_hwm: Some((inflight / factor).max(1)),
        shed_coalesced_pairs: Some((inflight / factor).max(1)),
        request_deadline: Some(deadline),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", Arc::new(registry), config).expect("bind ephemeral loopback port")
}

fn frozen_registry(vertices: usize, edges: usize, seed: u64) -> Registry {
    let g = gen::random_digraph(vertices, edges, seed);
    let registry = Registry::new();
    registry.insert_frozen("web", Oracle::new(&g)).unwrap();
    registry
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read HTTP reply");
    out
}

/// Spin until `probe` holds or `wait` elapses; panics with `what` on
/// timeout. Keeps timing-sensitive assertions robust under TSan-style
/// slowdowns without hard sleeps.
fn wait_until(wait: Duration, what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + wait;
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

// ---------------------------------------------------------------------
// Overload on a clean wire: typed sheds, bounded rate, exact books.
// ---------------------------------------------------------------------

#[test]
fn overload_sheds_bounded_stays_typed_and_reconciles_exactly() {
    let (conns, pipeline) = (16, 8);
    let mut handle = overloaded_server(
        frozen_registry(1500, 5000, 0x0C0A),
        conns,
        pipeline,
        3,
        Duration::from_millis(500),
    );
    let metrics = handle
        .serve_metrics("127.0.0.1:0")
        .expect("bind metrics listener");
    let spec = LoadSpec {
        addr: handle.local_addr(),
        ns: "web".to_owned(),
        vertices: 1500,
        connections: conns,
        threads: 4,
        pipeline_depth: pipeline,
        queries: 30_000,
        seed: 0xC0FFEE,
    };
    let report = run_load(&spec).expect("overload must never corrupt framing");

    // The shed rate is nonzero (the drill runs at 3x the budget)
    // but bounded: the server keeps doing useful work.
    assert_eq!(report.errors, 0, "no untyped errors on a clean wire");
    assert!(report.shed > 0, "no sheds at 3x the admission budget");
    assert!(
        report.shed_fraction() < 0.95,
        "shedding must stay bounded, got {:.1}%",
        report.shed_fraction() * 100.0
    );
    assert!(report.queries > 0, "some queries must be admitted");

    // Accepted queries stayed fast: their p99 is bounded by the
    // request deadline plus processing, far under the 3s gate.
    let p99 = Duration::from_nanos(report.latency.p99());
    assert!(
        p99 < Duration::from_secs(3),
        "accepted-query p99 {p99:?} over the overload gate"
    );

    // Books reconcile exactly: every offered frame was answered
    // once, and the server's counters match what the client saw.
    assert_eq!(handle.frames_shed(), report.shed, "shed books");
    assert_eq!(
        handle.deadlines_exceeded(),
        report.deadline_exceeded,
        "deadline books"
    );
    assert_eq!(
        handle.frames_served(),
        report.queries + report.shed + report.deadline_exceeded,
        "every frame accounted exactly once"
    );

    // The same numbers flow out of the metrics exposition.
    let text = http_get(metrics, "/metrics");
    assert!(
        text.contains(&format!(
            "server_frames_shed_total {}",
            handle.frames_shed()
        )),
        "exposition must carry the shed counter"
    );
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Overload on a chaotic wire: faults cost connections, never framing.
// ---------------------------------------------------------------------

#[test]
fn wire_faults_never_corrupt_framing_and_books_stay_sane() {
    let (conns, pipeline) = (12, 8);
    let handle = overloaded_server(
        frozen_registry(1200, 4000, 0xFA07),
        conns,
        pipeline,
        4,
        Duration::from_secs(1),
    );
    // Offsets are deliberately unaligned with any frame boundary,
    // so cuts land mid-length-prefix and mid-body.
    let proxy = ChaosProxy::start(
        handle.local_addr(),
        vec![
            Fault::None,
            Fault::TruncateReplies { after: 1777 },
            Fault::None,
            Fault::CutRequests { after: 2913 },
            Fault::Delay {
                per_chunk: Duration::from_micros(200),
            },
            Fault::None,
        ],
    );
    let spec = LoadSpec {
        addr: proxy.addr,
        ns: "web".to_owned(),
        vertices: 1200,
        connections: conns,
        threads: 4,
        pipeline_depth: pipeline,
        queries: 16_000,
        seed: 0x0BAD,
    };
    // `run_load` is fatal on any frame that parses wrong — cuts
    // surface as clean EOFs (reconnect + forfeit), never as a
    // corrupt reply on a surviving connection.
    let report = run_load(&spec).expect("a faulty wire must never yield an unparseable reply");

    assert!(report.queries > 0, "queries must flow through the chaos");
    assert!(handle.frames_shed() > 0, "3x+ load must shed server-side");
    // Faults eat replies in flight, so client tallies are a lower
    // bound on the server's books — but never higher.
    assert!(
        handle.frames_shed() >= report.shed,
        "client saw more sheds than the server issued"
    );
    assert!(
        handle.deadlines_exceeded() >= report.deadline_exceeded,
        "client saw more deadline refusals than issued"
    );
    assert!(
        handle.frames_served() >= report.queries + report.shed + report.deadline_exceeded,
        "server served fewer frames than the client observed"
    );
    drop(proxy);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Connection hygiene: idle and slow-loris peers are reaped.
// ---------------------------------------------------------------------

#[test]
fn idle_and_slow_loris_connections_are_reaped() {
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        half_frame_deadline: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    };
    let registry = frozen_registry(50, 150, 0x1D1E);
    let handle = Server::bind("127.0.0.1:0", Arc::new(registry), config).expect("bind loopback");
    let addr = handle.local_addr();

    // One peer that connects and never speaks; one slow loris that
    // promises a 100-byte frame and delivers a single byte.
    let mut idle = TcpStream::connect(addr).unwrap();
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(&100u32.to_le_bytes()).unwrap();
    loris.write_all(&[7]).unwrap();

    wait_until(
        Duration::from_secs(15),
        "both stale connections to be reaped",
        || handle.connections_reaped() >= 2,
    );

    // Both sockets observe the server-side close (EOF or reset).
    for (name, sock) in [("idle", &mut idle), ("loris", &mut loris)] {
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let gone = match sock.read(&mut [0u8; 8]) {
            Ok(0) | Err(_) => true,
            Ok(_) => false,
        };
        assert!(gone, "{name} socket must be closed");
    }

    // Hygiene never touches a live client.
    let mut fresh = Client::connect(addr).unwrap();
    fresh.ping().unwrap();
    fresh.reach("web", 0, 1).unwrap();
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Deadlines: a zero budget refuses every query but never the probe.
// ---------------------------------------------------------------------

#[test]
fn zero_deadline_expires_queries_but_spares_ping() {
    let config = ServerConfig {
        request_deadline: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let registry = frozen_registry(50, 150, 0xDEAD);
    let handle = Server::bind("127.0.0.1:0", Arc::new(registry), config).expect("bind loopback");
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Liveness probes are exempt: they must answer on a drowning
    // server, or the orchestrator kills a healthy process.
    client.ping().unwrap();

    match client.reach("web", 0, 1) {
        Err(
            refusal @ ClientError::Refused {
                code: ErrorCode::DeadlineExceeded,
                ..
            },
        ) => {
            assert!(
                !refusal.is_retryable(),
                "a blown deadline is terminal — the caller's own budget is gone"
            );
        }
        other => panic!("expected DEADLINE_EXCEEDED, got {other:?}"),
    }
    assert!(handle.deadlines_exceeded() >= 1, "counter must move");
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Hard backlog cap: a never-reading pipeliner is evicted, not buffered.
// ---------------------------------------------------------------------

#[test]
fn reactor_evicts_nonreading_pipeliner_at_hard_backlog_cap() {
    let config = ServerConfig {
        max_conn_backlog: 4096,
        ..ServerConfig::default()
    };
    let registry = frozen_registry(50, 150, 0xB10C);
    let handle = Server::bind("127.0.0.1:0", Arc::new(registry), config).expect("bind loopback");
    let addr = handle.local_addr();

    // A black-hole client: pipelines requests forever, reads nothing.
    // Replies pile up — first in the kernel socket buffers, then in
    // the reactor's per-connection backlog — until the hard cap evicts
    // it instead of buffering unboundedly.
    let mut hog = TcpStream::connect(addr).unwrap();
    hog.set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let payload = Request::Reach {
        ns: "web".to_owned(),
        u: 0,
        v: 1,
    }
    .encode()
    .unwrap();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    let burst: Vec<u8> = frame
        .iter()
        .copied()
        .cycle()
        .take(frame.len() * 256)
        .collect();

    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.connections_reaped() == 0 {
        assert!(
            Instant::now() < deadline,
            "non-reading pipeliner was never evicted (reaped = {})",
            handle.connections_reaped()
        );
        // Once evicted, writes fail (EPIPE/reset) or stall out — both
        // just mean "stop offering".
        if hog.write_all(&burst).is_err() {
            break;
        }
    }
    wait_until(
        Duration::from_secs(10),
        "the eviction to be counted",
        || handle.connections_reaped() >= 1,
    );

    // The eviction is surgical: a well-behaved client on the same
    // reactor keeps getting answers.
    let mut healthy = Client::connect(addr).unwrap();
    healthy.ping().unwrap();
    healthy.reach("web", 0, 1).unwrap();
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Durability through chaos: every acked mutation survives a restart.
// ---------------------------------------------------------------------

#[test]
fn acked_mutations_survive_chaotic_wire_and_restart() {
    let ops = 150u32;
    let vertices = 2 * ops;
    let root = temp_dir("acked");
    let seed_dag = || Dag::from_edges(vertices as usize, &[]).unwrap();
    {
        let registry = Registry::new();
        registry
            .open_durable(
                "live",
                seed_dag(),
                root.join("live"),
                WalConfig::sync_every_record(),
                None,
            )
            .unwrap();
        let handle = Server::bind("127.0.0.1:0", Arc::new(registry), ServerConfig::default())
            .expect("bind loopback");
        // Cut replies mid-ack and requests mid-frame every few
        // connections — acks will be lost in flight, connections
        // will die, and none of it may cost a *acknowledged* edge.
        let proxy = ChaosProxy::start(
            handle.local_addr(),
            vec![
                Fault::None,
                Fault::TruncateReplies { after: 601 },
                Fault::CutRequests { after: 443 },
            ],
        );
        let reconnect = |addr: SocketAddr| -> Client {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match Client::connect(addr) {
                    Ok(c) => return c,
                    Err(e) => {
                        assert!(Instant::now() < deadline, "re-dial proxy: {e}");
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        };
        let mut client = reconnect(proxy.addr);
        let mut acked: Vec<(u32, u32)> = Vec::new();
        for i in 0..ops {
            // Disjoint edges: replaying any subset is still a DAG,
            // and each ack is independently checkable.
            let (u, v) = (2 * i, 2 * i + 1);
            match client.add_edge("live", u, v) {
                Ok(()) => acked.push((u, v)),
                // The wire died around this op: the edge may or
                // may not have landed — either is legal, because
                // no ack reached us. Re-dial and move on.
                Err(_) => client = reconnect(proxy.addr),
            }
        }
        assert!(
            acked.len() as u32 > ops / 2,
            "chaos plan too aggressive: only {}/{ops} acks",
            acked.len()
        );
        drop(proxy);
        handle.shutdown();

        // Restart: recover purely from the WAL the acks fsynced.
        let recovered = Registry::new();
        recovered
            .open_durable(
                "live",
                seed_dag(),
                root.join("live"),
                WalConfig::sync_every_record(),
                None,
            )
            .unwrap();
        let ns = recovered.get("live").unwrap();
        for (u, v) in &acked {
            assert!(
                ns.reach(*u, *v).unwrap(),
                "acked edge ({u}, {v}) lost across restart"
            );
        }
    }
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Readiness: /readyz flips 503 → 200 exactly at end-of-replay.
// ---------------------------------------------------------------------

#[test]
fn readyz_flips_exactly_at_end_of_replay() {
    let root = temp_dir("readyz");
    let seed_dag = || Dag::from_edges(4, &[]).unwrap();

    // A previous life acked two edges durably.
    {
        let prior = Registry::new();
        prior
            .open_durable(
                "live",
                seed_dag(),
                root.join("live"),
                WalConfig::sync_every_record(),
                None,
            )
            .unwrap();
        let ns = prior.get("live").unwrap();
        ns.add_edge("live", 0, 1).unwrap();
        ns.add_edge("live", 1, 2).unwrap();
    }

    // Restart, in the order `hoplited serve` uses: bind the listeners
    // first (so probes can reach us), then load — the window between
    // is exactly what readiness gates.
    let registry = Arc::new(Registry::new());
    registry.set_ready(false);
    let mut handle = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let metrics = handle
        .serve_metrics("127.0.0.1:0")
        .expect("bind metrics listener");

    // Alive but not ready: liveness 200, readiness 503.
    assert!(http_get(metrics, "/healthz").starts_with("HTTP/1.0 200"));
    let before = http_get(metrics, "/readyz");
    assert!(before.starts_with("HTTP/1.0 503"), "got: {before}");

    // On the wire: probes answer, data reads are refused typed — and
    // the refusal is retryable, because readiness is transient.
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.ping().unwrap();
    match client.reach("live", 0, 2) {
        Err(
            refusal @ ClientError::Refused {
                code: ErrorCode::NotReady,
                ..
            },
        ) => assert!(refusal.is_retryable(), "NOT_READY must invite a retry"),
        other => panic!("expected NOT_READY before replay, got {other:?}"),
    }

    // End of replay: load the durable namespace (replaying its WAL)
    // and flip. The very same connection now gets real answers — and
    // they include the replayed mutations.
    registry
        .open_durable(
            "live",
            seed_dag(),
            root.join("live"),
            WalConfig::sync_every_record(),
            None,
        )
        .unwrap();
    registry.set_ready(true);

    assert!(http_get(metrics, "/readyz").starts_with("HTTP/1.0 200"));
    assert!(
        client.reach("live", 0, 2).unwrap(),
        "replayed mutations must be visible the instant readiness flips"
    );
    handle.shutdown();
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Readiness on the coalesced path: frozen-namespace reads are gated too.
// ---------------------------------------------------------------------

#[test]
fn reactor_coalesced_reads_refuse_typed_not_ready_during_startup() {
    let registry = Arc::new(frozen_registry(50, 150, 0x4EAD));
    registry.set_ready(false);
    let handle = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.ping().unwrap();
    match client.reach("web", 0, 1) {
        Err(ClientError::Refused {
            code: ErrorCode::NotReady,
            ..
        }) => {}
        other => panic!("expected NOT_READY on the coalesced path, got {other:?}"),
    }
    registry.set_ready(true);
    client.reach("web", 0, 1).unwrap();
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Sanity: the proxy itself is transparent when told to be.
// ---------------------------------------------------------------------

#[test]
fn proxy_with_no_faults_is_transparent() {
    let registry = frozen_registry(60, 200, 0xFEED);
    let g = gen::random_digraph(60, 200, 0xFEED);
    let handle = Server::bind("127.0.0.1:0", Arc::new(registry), ServerConfig::default())
        .expect("bind loopback");
    let proxy = ChaosProxy::start(handle.local_addr(), vec![Fault::None]);
    let mut client = Client::connect(proxy.addr).unwrap();
    traversal::assert_matches_bfs(&g, "through the transparent proxy", |u, v| {
        client.reach("web", u, v).unwrap()
    });
    handle.shutdown();
}
