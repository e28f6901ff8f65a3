//! Integration suite for the `hoplite-server` serving tier: concurrent
//! clients over a real loopback socket cross-checked against BFS
//! ground truth, dynamic edge-mutation visibility, and a fuzz-style
//! pass feeding truncated / corrupt / oversized frames (the wire-level
//! sibling of `tests/persist_fuzz.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use hoplite::core::DynamicOracle;
use hoplite::graph::gen::{self, Rng};
use hoplite::graph::traversal;
use hoplite::server::{
    Client, ClientError, NamespaceKind, Registry, Request, Response, Server, ServerConfig,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use hoplite::{Dag, DiGraph, Oracle};

fn serve(registry: Registry) -> hoplite::server::ServerHandle {
    serve_with(registry, ServerConfig::default())
}

fn serve_with(registry: Registry, config: ServerConfig) -> hoplite::server::ServerHandle {
    Server::bind("127.0.0.1:0", Arc::new(registry), config).expect("bind ephemeral loopback port")
}

#[test]
fn concurrent_clients_agree_with_bfs_ground_truth() {
    let n = 60;
    let g = gen::random_digraph(n, 200, 0xFEED);
    let registry = Registry::new();
    registry.insert_frozen("web", Oracle::new(&g)).unwrap();
    let handle = serve(registry);
    let addr = handle.local_addr();

    // 6 concurrent clients; client c takes the pairs whose matrix
    // index u·n + v is c mod 6, alternating single REACH and BATCH
    // frames.
    let clients = 6u32;
    let mut answers = vec![false; n * n];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mine: Vec<(u32, u32)> = (0..n as u32)
                        .flat_map(|u| (0..n as u32).map(move |v| (u, v)))
                        .filter(|&(u, v)| (u * n as u32 + v) % clients == c)
                        .collect();
                    let mut got = Vec::with_capacity(mine.len());
                    for chunk in mine.chunks(64) {
                        if chunk.len() % 2 == 1 {
                            // Odd chunks go one by one.
                            got.extend(
                                chunk
                                    .iter()
                                    .map(|&(u, v)| client.reach("web", u, v).expect("REACH")),
                            );
                        } else {
                            got.extend(client.reach_batch("web", chunk).expect("BATCH"));
                        }
                    }
                    mine.into_iter().zip(got).collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for ((u, v), got) in worker.join().expect("client thread") {
                answers[u as usize * n + v as usize] = got;
            }
        }
    });
    traversal::assert_matches_bfs(&g, "6 concurrent clients", |u, v| {
        answers[u as usize * n + v as usize]
    });

    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.stats("web").unwrap();
    assert_eq!(stats.kind, NamespaceKind::Frozen);
    assert_eq!(stats.vertices, n as u64);
    assert_eq!(stats.queries, (n * n) as u64, "every pair queried once");
    assert!(handle.connections_accepted() >= clients as u64);
    handle.shutdown();
}

#[test]
fn dynamic_mutations_become_visible_to_subsequent_queries() {
    let dag = Dag::from_edges(8, &[(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)]).unwrap();
    let registry = Registry::new();
    registry
        .insert_dynamic("live", DynamicOracle::new(dag))
        .unwrap();
    let handle = serve(registry);
    let addr = handle.local_addr();

    let mut writer = Client::connect(addr).unwrap();
    let mut reader = Client::connect(addr).unwrap();

    assert!(!reader.reach("live", 0, 5).unwrap());
    writer.add_edge("live", 2, 3).unwrap();
    assert!(
        reader.reach("live", 0, 5).unwrap(),
        "insert visible across connections"
    );

    writer.add_edge("live", 5, 6).unwrap();
    assert!(reader.reach("live", 0, 7).unwrap(), "chained delta edges");

    // Cycle-closing inserts are rejected with an error reply, and the
    // graph is unchanged.
    match writer.add_edge("live", 5, 0) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("cycle"), "got: {message}")
        }
        other => panic!("cycle insert returned {other:?}"),
    }
    assert!(reader.reach("live", 0, 5).unwrap());

    assert!(writer.remove_edge("live", 2, 3).unwrap());
    assert!(
        !reader.reach("live", 0, 5).unwrap(),
        "removal visible across connections"
    );
    assert!(!writer.remove_edge("live", 2, 3).unwrap(), "already gone");

    let stats = reader.stats("live").unwrap();
    assert_eq!(stats.kind, NamespaceKind::Dynamic);
    assert_eq!(stats.vertices, 8);
    handle.shutdown();
}

#[test]
fn batch_and_single_queries_agree_through_the_wire() {
    let g = gen::random_digraph(40, 130, 7);
    let registry = Registry::new();
    registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    let handle = serve(registry);

    let mut client = Client::connect(handle.local_addr()).unwrap();
    let mut rng = Rng::new(99);
    let pairs: Vec<(u32, u32)> = (0..500)
        .map(|_| (rng.gen_index(40) as u32, rng.gen_index(40) as u32))
        .collect();
    let batch = client.reach_batch("g", &pairs).unwrap();
    for (&(u, v), &got) in pairs.iter().zip(&batch) {
        assert_eq!(got, client.reach("g", u, v).unwrap(), "({u},{v})");
    }
    assert!(client.reach_batch("g", &[]).unwrap().is_empty());
    handle.shutdown();
}

#[test]
fn semantic_errors_are_replies_not_disconnects() {
    let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let registry = Registry::new();
    registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    let handle = serve(registry);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    for (err, needle) in [
        (
            client.reach("absent", 0, 1).unwrap_err(),
            "unknown namespace",
        ),
        (client.reach("g", 0, 99).unwrap_err(), "out of range"),
        (client.add_edge("g", 0, 2).unwrap_err(), "frozen"),
        (client.stats("absent").unwrap_err(), "unknown namespace"),
    ] {
        match err {
            ClientError::Server(message) => {
                assert!(message.contains(needle), "{message:?} lacks {needle:?}")
            }
            other => panic!("expected a server error reply, got {other:?}"),
        }
        // The connection survives every semantic error.
        client.ping().expect("connection still serviceable");
    }
    handle.shutdown();
}

/// Sends raw bytes as one frame and returns the decoded reply (if the
/// server replied at all before closing).
fn send_raw(addr: std::net::SocketAddr, payload: &[u8]) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).ok()?;
    let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut reply).ok()?;
    Some(Response::decode(&reply).expect("server replies are well-formed"))
}

#[test]
fn malformed_frames_get_clean_error_replies_never_panics_or_wrong_answers() {
    let g = gen::random_digraph(20, 60, 3);
    let registry = Registry::new();
    registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    let handle = serve(registry);
    let addr = handle.local_addr();

    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty payload", vec![]),
        ("version only", vec![PROTOCOL_VERSION]),
        ("bad version", vec![99, 0x01]),
        // One dialect: the versions around the current one are refused
        // like any other, never decoded under older or newer rules.
        ("v3 frame", vec![3, 0x01]),
        ("v5 frame", vec![PROTOCOL_VERSION - 1, 0x01]),
        ("v7 frame", vec![PROTOCOL_VERSION + 1, 0x01]),
        ("unknown opcode", vec![PROTOCOL_VERSION, 0x42]),
        ("reach with no body", vec![PROTOCOL_VERSION, 0x02]),
        (
            "reach with truncated vertex",
            vec![PROTOCOL_VERSION, 0x02, 1, b'g', 1, 0, 0],
        ),
        (
            "name length past end",
            vec![PROTOCOL_VERSION, 0x06, 200, b'g'],
        ),
        ("non-utf8 name", vec![PROTOCOL_VERSION, 0x06, 2, 0xFF, 0xFE]),
        ("trailing bytes", {
            let mut b = vec![PROTOCOL_VERSION, 0x01];
            b.push(0);
            b
        }),
        ("batch count mismatch", {
            let mut b = vec![PROTOCOL_VERSION, 0x03, 1, b'g'];
            b.extend_from_slice(&1000u32.to_le_bytes());
            b.extend_from_slice(&[1, 2, 3]);
            b
        }),
        ("batch count over limit", {
            let mut b = vec![PROTOCOL_VERSION, 0x03, 1, b'g'];
            b.extend_from_slice(&u32::MAX.to_le_bytes());
            b
        }),
    ];
    for (what, payload) in &cases {
        match send_raw(addr, payload) {
            Some(Response::Error(message)) => {
                assert!(
                    message.starts_with("bad request:"),
                    "{what}: unexpected message {message:?}"
                );
            }
            Some(other) => panic!("{what}: got non-error reply {other:?}"),
            None => panic!("{what}: connection closed without a reply"),
        }
    }

    // Oversized length prefix: error reply, then the connection closes
    // (framing can no longer be trusted).
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(&(MAX_FRAME_LEN + 1).to_le_bytes())
            .unwrap();
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).unwrap();
        let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut reply).unwrap();
        match Response::decode(&reply).unwrap() {
            Response::Error(message) => assert!(message.contains("exceeds"), "{message}"),
            other => panic!("oversized frame got {other:?}"),
        }
        let mut probe = [0u8; 1];
        assert_eq!(stream.read(&mut probe).unwrap(), 0, "connection closed");
    }

    // Seeded garbage fuzz: random payloads must produce error replies
    // (or at worst a clean close), and the server must keep serving
    // correct answers afterwards.
    let mut rng = Rng::new(0xBAD5EED);
    for round in 0..64 {
        let len = rng.gen_index(48);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(256) as u8).collect();
        // Skip the rare case where garbage forms a valid request; any
        // reply (or clean close) is acceptable then.
        if let Some(Response::Error(message)) = send_raw(addr, &payload) {
            assert!(!message.is_empty(), "round {round}");
        }
    }

    let mut client = Client::connect(addr).unwrap();
    client.ping().expect("server alive after the fuzz barrage");
    for (u, v) in [(0u32, 5u32), (3, 3), (7, 19)] {
        assert_eq!(
            client.reach("g", u, v).unwrap(),
            traversal::reaches(&g, u, v),
            "post-fuzz answers stay correct"
        );
    }
    assert!(handle.errors_replied() >= cases.len() as u64);
    handle.shutdown();
}

#[test]
fn frozen_namespace_from_saved_index_serves_identically() {
    // The "build once, ship to replicas" path: save an Oracle, load it
    // as a replica would, serve the loaded copy, and cross-check.
    let g = gen::random_digraph(32, 100, 21);
    let original = Oracle::new(&g);
    let mut blob = Vec::new();
    original.save_arena(&mut blob).unwrap();
    let replica = Oracle::open_arena_bytes(&blob).unwrap();

    let registry = Registry::new();
    registry.insert_frozen("replica", replica).unwrap();
    let handle = serve(registry);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    traversal::assert_matches_bfs(&g, "replica", |u, v| client.reach("replica", u, v).unwrap());
    handle.shutdown();
}

#[test]
fn mapped_arena_index_serves_and_reports_its_backend() {
    // The zero-copy replica path: save a HOPL v4 arena, open it
    // mapped, register ONE Arc'd snapshot under several namespaces
    // (replica fan-out without cloning the index), serve over the
    // wire, and cross-check against BFS ground truth. STATS must
    // report the mapped backend and a mapped-byte footprint.
    let g = gen::random_digraph(40, 130, 23);
    let original = Oracle::new(&g);
    let path =
        std::env::temp_dir().join(format!("hoplite-server-arena-{}.hopl3", std::process::id()));
    let mut blob = Vec::new();
    original.save_arena(&mut blob).unwrap();
    std::fs::write(&path, &blob).unwrap();
    let snapshot = Arc::new(Oracle::open(&path).expect("mapped open"));
    std::fs::remove_file(&path).ok();

    let registry = Registry::new();
    registry
        .insert_frozen("web", Arc::clone(&snapshot))
        .unwrap();
    registry.insert_frozen("web-replica", snapshot).unwrap();
    let handle = serve(registry);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for ns in ["web", "web-replica"] {
        let pairs: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|u| (0..40u32).map(move |v| (u, v)))
            .collect();
        let answers = client.reach_batch(ns, &pairs).unwrap();
        traversal::assert_matches_bfs(&g, ns, |u, v| answers[(u * 40 + v) as usize]);
        let stats = client.stats(ns).unwrap();
        // Only a real mmap may report "mapped" (the split is an RSS
        // report); off unix, map_file falls back to a heap read and
        // honestly reports heap.
        #[cfg(unix)]
        {
            assert_eq!(stats.backend, hoplite::server::IndexBackend::Mapped);
            assert!(stats.mapped_bytes > 0, "{stats:?}");
            assert!(
                stats.mapped_bytes > stats.heap_bytes,
                "a mapped index keeps its bulk in the arena: {stats:?}"
            );
        }
        assert_eq!(
            stats.filter_hits + stats.signature_hits + stats.merge_runs,
            pairs.len() as u64,
            "every query dies in exactly one stage: {stats:?}"
        );
    }
    // A built-in-process namespace reports heap, for contrast.
    let registry = Registry::new();
    registry.insert_frozen("heap", Oracle::new(&g)).unwrap();
    let handle2 = serve(registry);
    let mut client2 = Client::connect(handle2.local_addr()).unwrap();
    let stats = client2.stats("heap").unwrap();
    assert_eq!(stats.backend, hoplite::server::IndexBackend::Heap);
    assert_eq!(stats.mapped_bytes, 0, "{stats:?}");
    assert!(stats.heap_bytes > 0, "{stats:?}");
    handle.shutdown();
    handle2.shutdown();
}

/// The `hoplited` binary of this workspace, built on demand into the
/// target directory and profile these tests run from: the root
/// package's tests cannot name another package's binary through
/// `CARGO_BIN_EXE_*`, and a copy left by an older build must not
/// stand in for the current source.
fn hoplited_binary() -> std::path::PathBuf {
    // <target>/<profile>/deps/server-<hash> → <target>/<profile>
    let exe = std::env::current_exe().expect("test binary path");
    let profile_dir = exe
        .parent()
        .and_then(std::path::Path::parent)
        .expect("test binaries live in <target>/<profile>/deps");
    let mut cargo = std::process::Command::new(env!("CARGO"));
    cargo
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([
            "build",
            "--quiet",
            "-p",
            "hoplite-server",
            "--bin",
            "hoplited",
        ])
        .arg("--target-dir")
        .arg(profile_dir.parent().expect("profile dir has a parent"));
    if profile_dir.ends_with("release") {
        cargo.arg("--release");
    }
    let status = cargo.status().expect("cargo runs");
    assert!(status.success(), "building hoplited failed: {status}");
    profile_dir.join(format!("hoplited{}", std::env::consts::EXE_SUFFIX))
}

#[test]
fn hoplited_refuses_a_v1_index_at_startup() {
    // Indexes are derived data: a file in the retired v1 streaming
    // format (hand-written header: magic, version 1, kind = Oracle,
    // vertex count, then payload) must stop the daemon at startup with
    // a message naming the version and the rebuild route — never serve.
    let mut v1 = b"HOPL".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.push(4);
    v1.extend_from_slice(&32u64.to_le_bytes());
    v1.extend_from_slice(&[0u8; 256]);
    let path = std::env::temp_dir().join(format!("hoplite-server-v1-{}.hopl", std::process::id()));
    std::fs::write(&path, &v1).unwrap();

    let mut child = std::process::Command::new(hoplited_binary())
        .args(["serve", "--listen", "127.0.0.1:0", "--index"])
        .arg(format!("legacy={}", path.display()))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("hoplited starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on hoplited") {
            break status;
        }
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            std::fs::remove_file(&path).ok();
            panic!("hoplited kept running on a v1 index");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    std::fs::remove_file(&path).ok();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(!status.success(), "hoplited served a v1 index: {stderr}");
    assert!(
        stderr.contains("version 1") && stderr.contains("--frozen"),
        "the refusal must name the version and the rebuild route: {stderr}"
    );
}

/// Edge cases of the epoll reactor: partial frames, idle
/// sockets, write backpressure, a 1k-connection sweep against ground
/// truth, and shutdown with a frame in flight.
mod reactor {
    use super::*;
    use hoplite::server::FrameAccumulator;
    use std::time::{Duration, Instant};

    /// One length-prefixed wire frame for `req`.
    fn frame(req: &Request) -> Vec<u8> {
        let payload = req.encode().expect("encode request");
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        bytes
    }

    fn reach(u: u32, v: u32) -> Request {
        Request::Reach {
            ns: "g".into(),
            u,
            v,
        }
    }

    /// A single-fd raw connection (no `try_clone`, so a thousand of
    /// these cost a thousand fds, not two thousand).
    struct RawConn {
        stream: TcpStream,
        acc: FrameAccumulator,
    }

    impl RawConn {
        fn connect(addr: std::net::SocketAddr) -> RawConn {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.set_nodelay(true).unwrap();
            RawConn {
                stream,
                acc: FrameAccumulator::new(MAX_FRAME_LEN),
            }
        }

        fn recv(&mut self) -> Response {
            let mut buf = [0u8; 4096];
            loop {
                if let Some(frame) = self.acc.next_frame().expect("well-formed reply") {
                    return Response::decode(&frame).expect("decodable reply");
                }
                let k = self.stream.read(&mut buf).expect("reply bytes");
                assert!(k > 0, "connection closed while a reply was pending");
                self.acc.extend(&buf[..k]);
            }
        }
    }

    #[test]
    fn byte_at_a_time_half_frames_are_reassembled() {
        let g = gen::random_digraph(30, 90, 0xD1CE);
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let handle = serve(registry);

        let mut conn = RawConn::connect(handle.local_addr());
        for &(u, v) in &[(0u32, 17u32), (5, 5), (29, 3), (12, 28)] {
            // Dribble the frame one byte per write; the reactor must
            // accumulate across however many readiness events that
            // takes and answer exactly once.
            for &byte in &frame(&reach(u, v)) {
                conn.stream.write_all(&[byte]).unwrap();
            }
            match conn.recv() {
                Response::Bool(got) => {
                    assert_eq!(got, traversal::reaches(&g, u, v), "({u},{v})")
                }
                other => panic!("({u},{v}) got {other:?}"),
            }
        }
        handle.shutdown();
    }

    /// One `BATCH` frame over twice the reactor's 64 KiB read chunk,
    /// then a `REACH`, sent in a single `write`: a full chunk must keep
    /// the read loop going (only a short read ends it), and both frames
    /// are answered, matching BFS.
    #[test]
    fn a_batch_frame_larger_than_a_read_chunk_in_one_write() {
        let n = 200usize;
        let g = gen::random_digraph(n, 600, 0xB16);
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let handle = serve(registry);

        let mut rng = Rng::new(0xC4A);
        let pairs: Vec<(u32, u32)> = (0..20_000)
            .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
            .collect();
        let mut bytes = frame(&Request::Batch {
            ns: "g".into(),
            pairs: pairs.clone(),
        });
        assert!(bytes.len() > 2 * 64 * 1024, "{} bytes", bytes.len());
        bytes.extend(frame(&reach(3, 150)));
        let mut conn = RawConn::connect(handle.local_addr());
        // A blocking send queues the whole buffer in one call.
        assert_eq!(conn.stream.write(&bytes).unwrap(), bytes.len());
        match conn.recv() {
            Response::Bools(got) => {
                assert_eq!(got.len(), pairs.len());
                for (&(u, v), &b) in pairs.iter().zip(&got) {
                    assert_eq!(b, traversal::reaches(&g, u, v), "({u},{v})");
                }
            }
            other => panic!("BATCH got {other:?}"),
        }
        match conn.recv() {
            Response::Bool(got) => assert_eq!(got, traversal::reaches(&g, 3, 150)),
            other => panic!("REACH got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn one_pipelined_burst_across_namespaces_replies_in_send_order() {
        // Two frozen namespaces, one dynamic one, and frames that name
        // each of them, an unknown one and none at all, sent in one
        // write so they decode in one tick. The reactor resolves each
        // namespace once per tick and reuses the handle for later
        // frames; every reply must still match its own frame.
        let ga = gen::random_digraph(40, 120, 0xA11);
        let gb = gen::random_digraph(30, 90, 0xB22);
        let dag = gen::random_dag(25, 60, 0xD33);
        let gd = dag.graph().clone();
        let registry = Arc::new(Registry::new());
        registry.insert_frozen("a", Oracle::new(&ga)).unwrap();
        registry.insert_frozen("b", Oracle::new(&gb)).unwrap();
        registry
            .insert_dynamic("d", DynamicOracle::new(dag))
            .unwrap();
        let handle = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
        )
        .expect("bind ephemeral loopback port");

        let batch: Vec<(u32, u32)> = (0..30).map(|i| (i, (i * 7 + 3) % 30)).collect();
        let mut burst = Vec::new();
        for req in [
            Request::Reach {
                ns: "a".into(),
                u: 0,
                v: 17,
            },
            Request::Batch {
                ns: "b".into(),
                pairs: batch.clone(),
            },
            Request::Reach {
                ns: "absent".into(),
                u: 0,
                v: 1,
            },
            Request::Reach {
                ns: "a".into(),
                u: 3,
                v: 40,
            },
        ] {
            burst.extend_from_slice(&frame(&req));
        }
        burst.extend_from_slice(&2u32.to_le_bytes());
        burst.extend_from_slice(&[PROTOCOL_VERSION, 0x42]); // unknown opcode
        for req in [
            Request::Reach {
                ns: "d".into(),
                u: 2,
                v: 21,
            },
            Request::Reach {
                ns: "a".into(),
                u: 39,
                v: 5,
            },
        ] {
            burst.extend_from_slice(&frame(&req));
        }
        let mut conn = RawConn::connect(handle.local_addr());
        conn.stream.write_all(&burst).unwrap();

        let error = |conn: &mut RawConn, what: &str, needle: &str| match conn.recv() {
            Response::Error(message) => {
                assert!(
                    message.contains(needle),
                    "{what}: {message:?} lacks {needle:?}"
                )
            }
            other => panic!("{what}: expected an error reply, got {other:?}"),
        };
        let reach = |conn: &mut RawConn, g: &DiGraph, u: u32, v: u32| match conn.recv() {
            Response::Bool(got) => assert_eq!(got, traversal::reaches(g, u, v), "({u},{v})"),
            other => panic!("({u},{v}): expected BOOL, got {other:?}"),
        };
        reach(&mut conn, &ga, 0, 17);
        match conn.recv() {
            Response::Bools(got) => {
                assert_eq!(got.len(), batch.len());
                for (&(u, v), got) in batch.iter().zip(got) {
                    assert_eq!(got, traversal::reaches(&gb, u, v), "batch ({u},{v})");
                }
            }
            other => panic!("BATCH on b: expected BOOLS, got {other:?}"),
        }
        error(&mut conn, "unknown namespace", "unknown namespace");
        error(&mut conn, "out-of-range vertex", "out of range");
        error(&mut conn, "bad opcode", "unknown opcode");
        reach(&mut conn, &gd, 2, 21);
        reach(&mut conn, &ga, 39, 5);

        // Only the answered pairs were queried.
        let mut client = Client::connect(handle.local_addr()).unwrap();
        assert_eq!(client.stats("a").unwrap().queries, 2);
        assert_eq!(client.stats("b").unwrap().queries, batch.len() as u64);

        // A tick's handles do not outlive it: once `a` is replaced and
        // `b` removed, the next burst sees the new `a` and no `b`.
        let ga2 = gen::random_digraph(40, 120, 0xA12);
        registry.insert_frozen("a", Oracle::new(&ga2)).unwrap();
        assert!(registry.remove("b"));
        let mut burst = Vec::new();
        for req in [
            Request::Reach {
                ns: "a".into(),
                u: 0,
                v: 17,
            },
            Request::Reach {
                ns: "b".into(),
                u: 0,
                v: 1,
            },
        ] {
            burst.extend_from_slice(&frame(&req));
        }
        conn.stream.write_all(&burst).unwrap();
        reach(&mut conn, &ga2, 0, 17);
        error(&mut conn, "removed namespace", "unknown namespace");
        assert_eq!(client.stats("a").unwrap().queries, 1, "the new snapshot");
        handle.shutdown();
    }

    #[test]
    fn slow_loris_idle_sockets_do_not_starve_active_clients() {
        let g = gen::random_digraph(30, 90, 0x510);
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let handle = serve(registry);
        let addr = handle.local_addr();

        // 64 connections that never complete a request: half send
        // nothing at all, half park a half-written frame and stall.
        let mut idle = Vec::new();
        for i in 0..64 {
            let mut conn = RawConn::connect(addr);
            if i % 2 == 1 {
                let bytes = frame(&reach(1, 2));
                conn.stream.write_all(&bytes[..bytes.len() / 2]).unwrap();
            }
            idle.push(conn);
        }

        // An active client arriving *after* the loris flood must still
        // get every answer — idle sockets cost the reactor nothing but
        // their fds.
        let mut client = Client::connect(addr).unwrap();
        traversal::assert_matches_bfs(&g, "behind the loris flood", |u, v| {
            client.reach("g", u, v).unwrap()
        });

        // The parked half-frames are still half a frame, not garbage:
        // completing one now gets its answer.
        let loris = &mut idle[1];
        let bytes = frame(&reach(1, 2));
        loris.stream.write_all(&bytes[bytes.len() / 2..]).unwrap();
        match loris.recv() {
            Response::Bool(got) => assert_eq!(got, traversal::reaches(&g, 1, 2)),
            other => panic!("completed loris frame got {other:?}"),
        }

        assert!(
            handle.connections_active() >= 65,
            "held {} active connections, expected the loris flood + client",
            handle.connections_active()
        );
        handle.shutdown();
    }

    #[test]
    fn write_backpressure_on_oversized_batch_replies_stalls_and_recovers() {
        let n = 50u32;
        let g = gen::random_digraph(n as usize, 170, 0xBACC);
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        // A deliberately tiny write budget: a couple of BATCH replies
        // overflow it, so the reactor must stop reading this
        // connection mid-pipeline and resume once the client drains.
        let handle = serve_with(
            registry,
            ServerConfig {
                write_backpressure: 2 * 1024,
                ..ServerConfig::default()
            },
        );

        let frames = 32usize;
        let per_batch = 4096usize;
        let mut rng = Rng::new(0x5EED);
        let batches: Vec<Vec<(u32, u32)>> = (0..frames)
            .map(|_| {
                (0..per_batch)
                    .map(|_| {
                        (
                            rng.gen_index(n as usize) as u32,
                            rng.gen_index(n as usize) as u32,
                        )
                    })
                    .collect()
            })
            .collect();

        let mut writer = TcpStream::connect(handle.local_addr()).unwrap();
        writer.set_nodelay(true).unwrap();
        let reader_stream = writer.try_clone().unwrap();
        reader_stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let replies: Vec<Vec<bool>> = std::thread::scope(|scope| {
            // Reader on its own thread: with the server stalled on
            // backpressure, writer and reader must overlap or the test
            // itself would deadlock against the kernel buffers.
            let reader = scope.spawn(move || {
                let mut conn = RawConn {
                    stream: reader_stream,
                    acc: FrameAccumulator::new(MAX_FRAME_LEN),
                };
                (0..frames)
                    .map(|i| match conn.recv() {
                        Response::Bools(bs) => bs,
                        other => panic!("batch {i} got {other:?}"),
                    })
                    .collect::<Vec<_>>()
            });
            for pairs in &batches {
                writer
                    .write_all(&frame(&Request::Batch {
                        ns: "g".into(),
                        pairs: pairs.clone(),
                    }))
                    .unwrap();
            }
            reader.join().expect("reader thread")
        });

        for (i, (pairs, bools)) in batches.iter().zip(&replies).enumerate() {
            assert_eq!(bools.len(), pairs.len(), "batch {i}");
            for (&(u, v), &got) in pairs.iter().zip(bools) {
                assert_eq!(got, traversal::reaches(&g, u, v), "batch {i}: ({u},{v})");
            }
        }
        handle.shutdown();
    }

    #[test]
    fn a_thousand_concurrent_connections_agree_with_bfs_ground_truth() {
        let n = 40u32;
        let g = gen::random_digraph(n as usize, 130, 0x1000);
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let handle = serve(registry);
        let addr = handle.local_addr();

        // 1000 single-fd connections, all open at once (2000 fds with
        // the server's ends — CI raises `ulimit -n` for this). Each
        // pipelines 2 REACH frames from a disjoint slice of the n×n
        // matrix before anything is read back, so the reactor sees
        // cross-connection bursts it can coalesce.
        let conns_total = 1000usize;
        let per_conn = 2usize;
        let pairs: Vec<(u32, u32)> = (0..conns_total * per_conn)
            .map(|i| {
                let i = i as u32;
                (i / per_conn as u32 % n, i % n)
            })
            .collect();
        let mut conns: Vec<RawConn> = (0..conns_total).map(|_| RawConn::connect(addr)).collect();
        for (c, conn) in conns.iter_mut().enumerate() {
            let mut burst = Vec::new();
            for k in 0..per_conn {
                let (u, v) = pairs[c * per_conn + k];
                burst.extend_from_slice(&frame(&reach(u, v)));
            }
            conn.stream.write_all(&burst).unwrap();
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            for k in 0..per_conn {
                let (u, v) = pairs[c * per_conn + k];
                match conn.recv() {
                    Response::Bool(got) => {
                        assert_eq!(got, traversal::reaches(&g, u, v), "conn {c}: ({u},{v})")
                    }
                    other => panic!("conn {c}: ({u},{v}) got {other:?}"),
                }
            }
        }

        assert_eq!(
            handle.connections_active(),
            conns_total,
            "all connections stay registered until dropped"
        );
        assert!(
            handle.connections_accepted() >= conns_total as u64,
            "accepted {}",
            handle.connections_accepted()
        );
        // Each connection's two frames arrive in one write, so the tick
        // that reads them queues both on one job: the coalescer must
        // have run, and every call it counts serves at least 2 frames.
        let metrics = handle.metrics("");
        let calls = metrics.counter("reactor_coalesce_calls_total").unwrap();
        let frames = metrics.counter("reactor_coalesced_frames_total").unwrap();
        assert!(
            calls > 0,
            "no coalesced batch call over {conns_total} pipelining connections"
        );
        assert!(
            frames >= 2 * calls,
            "{frames} coalesced frames over {calls} calls"
        );
        drop(conns);
        handle.shutdown();
    }

    #[test]
    fn shutdown_with_a_half_frame_in_flight_is_prompt_and_clean() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let handle = serve(registry);

        // A healthy connection first, so the half-frame below is
        // parked on a connection the reactor has fully registered.
        let mut conn = RawConn::connect(handle.local_addr());
        conn.stream.write_all(&frame(&Request::Ping)).unwrap();
        assert!(matches!(conn.recv(), Response::Pong));
        let bytes = frame(&reach(0, 2));
        conn.stream.write_all(&bytes[..bytes.len() - 3]).unwrap();
        // Give the reactor a tick to pull the partial bytes in.
        std::thread::sleep(Duration::from_millis(60));

        let started = Instant::now();
        handle.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown must not wait on the unfinished frame"
        );
        // The parked connection observes the close instead of hanging.
        let mut probe = [0u8; 16];
        match conn.stream.read(&mut probe) {
            Ok(0) => {}
            Ok(k) => panic!("server invented {k} bytes of reply to half a frame"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ),
                "unexpected error {e:?}"
            ),
        }
    }
}

#[test]
fn metrics_op_reports_query_outcomes_and_latency_summaries() {
    let n = 30u32;
    let g = gen::random_digraph(n as usize, 90, 0x0B5);
    let registry = Registry::new();
    registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    registry
        .insert_dynamic(
            "live",
            DynamicOracle::new(Dag::from_edges(2, &[(0, 1)]).unwrap()),
        )
        .unwrap();
    let handle = serve(registry);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let pairs: Vec<(u32, u32)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
    client.reach_batch("g", &pairs).unwrap();
    for (u, v) in [(0, 1), (5, 7), (9, 9)] {
        client.reach("g", u, v).unwrap();
    }
    client.reach("live", 0, 1).unwrap();

    let report = client.metrics("").unwrap();
    let total = (pairs.len() + 3) as u64;
    assert_eq!(
        report.counter("ns_queries_total{ns=\"g\"}"),
        Some(total),
        "{report:?}"
    );
    assert_eq!(report.counter("ns_queries_total{ns=\"live\"}"), Some(1));
    // Every query dies in exactly one stage, and the outcome split
    // must account for all of them — batch and single alike.
    let outcomes: u64 = ["filter", "signature", "merge"]
        .iter()
        .map(|o| {
            report
                .counter(&format!("ns_query_outcome_total{{ns=\"g\",outcome={o:?}}}"))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(outcomes, total);
    // The reactor answers every frozen-namespace read through the
    // coalesced batch kernel: the frames above arrive one per tick, so
    // the BATCH and each single REACH are one kernel call apiece, all
    // timed into the batch histogram, the one latency series a frozen
    // namespace exports.
    let g_series: Vec<&str> = report
        .histograms
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| name.contains("ns=\"g\""))
        .collect();
    assert_eq!(g_series, ["ns_batch_latency_ns{ns=\"g\"}"]);
    let text = handle.metrics_text();
    assert!(!text.contains("# slow_query"), "{text}");
    let batch_hist = report
        .histogram("ns_batch_latency_ns{ns=\"g\"}")
        .expect("batch latency summary present");
    assert_eq!(batch_hist.count, 4, "one kernel call per frame");
    assert!(batch_hist.max >= batch_hist.p50);
    // Server-wide series ride along.
    assert!(report.counter("server_frames_total").unwrap_or(0) >= total / pairs.len() as u64);
    assert!(report.histogram("server_reply_latency_ns").is_some());

    // A namespace filter restricts the per-namespace section.
    let filtered = client.metrics("live").unwrap();
    assert!(filtered.counter("ns_queries_total{ns=\"live\"}").is_some());
    assert!(filtered.counter("ns_queries_total{ns=\"g\"}").is_none());

    // An unknown namespace is a clean error reply.
    match client.metrics("absent") {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("unknown namespace"), "{message}")
        }
        other => panic!("METRICS on absent namespace got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn v3_frames_get_a_version_error_and_the_connection_keeps_serving() {
    let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let registry = Registry::new();
    registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    let handle = serve(registry);

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut roundtrip = |payload: &[u8]| {
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(payload).unwrap();
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).unwrap();
        let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut reply).unwrap();
        assert_eq!(reply[0], PROTOCOL_VERSION, "replies speak the one dialect");
        Response::decode(&reply).unwrap()
    };
    let reach = Request::Reach {
        ns: "g".into(),
        u: 0,
        v: 2,
    }
    .encode()
    .unwrap();

    // A v3 REACH is not answered under old rules: it gets one ERROR
    // reply naming the version the server speaks.
    let mut v3 = reach.clone();
    v3[0] = 3;
    match roundtrip(&v3) {
        Response::Error(message) => {
            assert!(message.contains("version 3"), "{message}");
            assert!(message.contains("supports 6"), "{message}");
        }
        other => panic!("v3 frame got {other:?}"),
    }
    // The length prefix delimited the refused frame, so the same
    // connection answers the current dialect correctly next.
    assert_eq!(roundtrip(&reach), Response::Bool(true));
    handle.shutdown();
}

#[test]
fn list_reflects_registry_contents() {
    let registry = Registry::new();
    let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
    registry.insert_frozen("beta", Oracle::new(&g)).unwrap();
    registry
        .insert_dynamic(
            "alpha",
            DynamicOracle::new(Dag::from_edges(2, &[]).unwrap()),
        )
        .unwrap();
    let handle = serve(registry);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let infos = client.list().unwrap();
    assert_eq!(infos.len(), 2);
    assert_eq!(infos[0].name, "alpha");
    assert_eq!(infos[0].kind, NamespaceKind::Dynamic);
    assert_eq!(infos[1].name, "beta");
    assert_eq!(infos[1].kind, NamespaceKind::Frozen);
    handle.shutdown();
}
