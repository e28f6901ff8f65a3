//! `hoplited` — the hoplite reachability query daemon.
//!
//! ```text
//! hoplited serve --listen 127.0.0.1:7411 \
//!     --frozen web=web.el --index cit=cit.hopl --dynamic onto=onto.gra
//! hoplited smoke
//! ```
//!
//! * `serve` loads graphs (`--frozen`, edge-list or `.gra` via
//!   `hoplite_graph::io`), prebuilt HOPL v5 indexes (`--index`, via
//!   `hoplite_core::persist`), and mutable DAGs (`--dynamic`), then
//!   serves them until killed.
//! * `smoke` starts a server on port 0, runs PING / REACH / STATS /
//!   LIST / dynamic mutations against it, shuts down, and exits 0 —
//!   the CI liveness check for the serving path.
//!
//! Wire-level load (connection sweeps, the overload drill) is measured
//! by `paper perf`, which drives a child server with
//! `hoplite_server::loadgen`; end-to-end workloads live in `hopbench`.

use std::fs::File;
use std::io::{BufReader, Read};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hoplite_core::{BuildTrace, DlConfig, DynamicOracle, Oracle, WalConfig};
use hoplite_graph::{io as gio, Dag, DiGraph};
use hoplite_server::{log_error, log_info, Client, Registry, Server, ServerConfig};

const USAGE: &str = "\
hoplited — hoplite reachability query daemon

USAGE:
    hoplited serve --listen ADDR [OPTIONS] [NAMESPACES]
    hoplited smoke
    hoplited help

SERVE:
    --listen ADDR          bind address, e.g. 127.0.0.1:7411 (port 0 = ephemeral)
    --reactor              accepted and ignored: the epoll reactor (Linux)
                           is the only serving loop
    --batch-threads N      fan-out width for BATCH queries (default: cores, max 8)
    --frozen NAME=FILE     build a frozen namespace from a graph file
                           (.gra adjacency, anything else = edge list)
    --index NAME=FILE      load a frozen namespace from a HOPL v5 arena
                           (Oracle::save_arena); any other version is
                           refused at startup: rebuild it with --frozen
    --mmap                 serve indexes zero-copy out of an mmap
                           instead of reading them onto the heap
                           (position-independent: applies to every --index)
    --prefault             walk the mapping at open so first queries
                           don't page-fault (pairs with --mmap)
    --dynamic NAME=FILE    load a DAG file as a mutable namespace
    --wal-dir DIR          make every dynamic namespace durable: edge
                           mutations hit a checksummed write-ahead log
                           in DIR/NAME before they are acknowledged,
                           background rebuilds checkpoint + rotate it,
                           and a restart replays checkpoint + WAL (a
                           namespace with history ignores its FILE)
    --metrics-addr ADDR    also serve Prometheus-style text on
                           http://ADDR/metrics (HTTP/1.0 GET; port 0 =
                           ephemeral) — counters and latency
                           quantiles — plus /healthz (process live)
                           and /readyz (200 once loading/WAL replay
                           finishes and no rebuild is wedged; 503
                           before)
    --trace-out FILE       write one JSON build-trace line per --frozen
                           namespace (SCC/order/distribute/freeze span
                           timings and the per-hop labeling histogram)
    --request-deadline MS  refuse frames older than MS with a typed
                           DEADLINE_EXCEEDED reply instead of serving
                           stale work (default: off)
    --idle-timeout SECS    reap connections idle this long (default: off)
    --shed-inflight N      admission high-water mark: past N in-flight
                           frames, shed read queries with OVERLOADED +
                           retry-after (mutations are never shed)
    --shed-pairs N         per-tick coalesced-pair budget; reads past it
                           shed with OVERLOADED (default: off)
    --rebuild-stall SECS   /readyz reports 503 when a namespace has been
                           stuck in a background rebuild this long
                           (default 300)

SMOKE:
    self-contained serving-path check: ephemeral server, PING, REACH,
    BATCH, STATS, LIST, dynamic ADD/REMOVE_EDGE, METRICS, a /metrics
    scrape, graceful shutdown.

Logging goes to stderr; set HOPLITE_LOG=debug|info|warn|error
(default info).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("smoke") => cmd_smoke(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `hoplited help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            log_error!("hoplited", "{message}");
            ExitCode::from(2)
        }
    }
}

/// Splits `NAME=FILE`.
fn split_spec(spec: &str) -> Result<(&str, &str), String> {
    spec.split_once('=')
        .filter(|(name, path)| !name.is_empty() && !path.is_empty())
        .ok_or_else(|| format!("expected NAME=FILE, got {spec:?}"))
}

fn load_graph(path: &str) -> Result<DiGraph, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let reader = BufReader::new(file);
    let graph = if path.ends_with(".gra") {
        gio::read_gra(reader)
    } else {
        gio::read_edge_list(reader)
    };
    graph.map_err(|e| format!("parse {path}: {e}"))
}

fn parse_num(flag: &str, value: Option<&String>) -> Result<usize, String> {
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse::<usize>()
        .map_err(|e| format!("{flag}: {e}"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut listen: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut wal_dir: Option<String> = None;
    let mut config = ServerConfig::default();
    let registry = Arc::new(Registry::new());
    let mut open_opts = hoplite_core::OpenOptions {
        mmap: false,
        ..hoplite_core::OpenOptions::default()
    };
    enum Spec {
        Frozen(String, String),
        Index(String, String),
        Dynamic(String, String),
    }

    // Pass 1: parse every flag before loading anything, so `--mmap` /
    // `--prefault` apply to all `--index` specs regardless of where
    // they appear on the command line.
    let mut specs: Vec<Spec> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => listen = Some(it.next().ok_or("--listen needs a value")?.clone()),
            "--metrics-addr" => {
                metrics_addr = Some(it.next().ok_or("--metrics-addr needs a value")?.clone())
            }
            "--trace-out" => {
                trace_out = Some(it.next().ok_or("--trace-out needs a value")?.clone())
            }
            "--wal-dir" => wal_dir = Some(it.next().ok_or("--wal-dir needs a value")?.clone()),
            // The only serving loop; the flag stays for old command lines.
            "--reactor" => {}
            "--batch-threads" => {
                config.batch_threads = parse_num("--batch-threads", it.next()).map(|n| n.max(1))?
            }
            "--mmap" => open_opts.mmap = true,
            "--prefault" => open_opts.prefault = true,
            "--request-deadline" => {
                config.request_deadline = Some(Duration::from_millis(parse_num(
                    "--request-deadline",
                    it.next(),
                )? as u64))
            }
            "--idle-timeout" => {
                config.idle_timeout = Some(Duration::from_secs(parse_num(
                    "--idle-timeout",
                    it.next(),
                )? as u64))
            }
            "--shed-inflight" => {
                config.shed_inflight_hwm =
                    Some(parse_num("--shed-inflight", it.next()).map(|n| n.max(1))?)
            }
            "--shed-pairs" => {
                config.shed_coalesced_pairs =
                    Some(parse_num("--shed-pairs", it.next()).map(|n| n.max(1))?)
            }
            "--rebuild-stall" => registry.set_rebuild_stall_threshold(Duration::from_secs(
                parse_num("--rebuild-stall", it.next())? as u64,
            )),
            "--frozen" => {
                let (name, path) = split_spec(it.next().ok_or("--frozen needs NAME=FILE")?)?;
                specs.push(Spec::Frozen(name.to_owned(), path.to_owned()));
            }
            "--index" => {
                let (name, path) = split_spec(it.next().ok_or("--index needs NAME=FILE")?)?;
                specs.push(Spec::Index(name.to_owned(), path.to_owned()));
            }
            "--dynamic" => {
                let (name, path) = split_spec(it.next().ok_or("--dynamic needs NAME=FILE")?)?;
                specs.push(Spec::Dynamic(name.to_owned(), path.to_owned()));
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }

    // Bind listeners *before* loading: the wire and metrics endpoints
    // come up immediately so orchestrators can probe them, but the
    // registry is marked not-ready — data requests get a typed
    // NOT_READY reply (with a retry-after hint) until every namespace,
    // including WAL replay for durable ones, has landed. /readyz on the
    // metrics listener flips 503 → 200 at exactly that point.
    let listen = listen.ok_or("serve needs --listen ADDR")?;
    registry.set_ready(false);
    let mut handle = Server::bind(listen.as_str(), Arc::clone(&registry), config.clone())
        .map_err(|e| format!("bind {listen}: {e}"))?;
    println!("hoplited listening on {}", handle.local_addr());
    if let Some(addr) = &metrics_addr {
        let bound = handle
            .serve_metrics(addr.as_str())
            .map_err(|e| format!("bind metrics {addr}: {e}"))?;
        log_info!("serve", "metrics exposition on http://{bound}/metrics");
    }

    // Pass 2: load namespaces in command-line order.
    let mut loaded = 0usize;
    let mut traces: Vec<String> = Vec::new();
    for spec in specs {
        match spec {
            Spec::Frozen(name, path) => {
                let graph = load_graph(&path)?;
                let t = Instant::now();
                let oracle = if trace_out.is_some() {
                    let trace = BuildTrace::new();
                    let oracle = Oracle::with_config_traced(&graph, &DlConfig::default(), &trace);
                    traces.push(trace.to_json(&name));
                    oracle
                } else {
                    Oracle::new(&graph)
                };
                log_info!(
                    "serve",
                    "{name}: built frozen oracle from {path} \
                     ({} vertices, {} edges, {} label entries, {:.0} ms)",
                    graph.num_vertices(),
                    graph.num_edges(),
                    oracle.label_entries(),
                    t.elapsed().as_secs_f64() * 1e3,
                );
                registry
                    .insert_frozen(&name, oracle)
                    .map_err(|e| e.to_string())?;
                loaded += 1;
            }
            Spec::Index(name, path) => {
                let t = Instant::now();
                let oracle = Oracle::open_with(&path, &open_opts)
                    .map_err(|e| format!("open index {path}: {e}"))?;
                let memory = oracle.memory();
                log_info!(
                    "serve",
                    "{name}: opened prebuilt index from {path} in {:.1} ms \
                     ({} vertices, {} components, {} label entries, backend {}, \
                     {} heap B + {} mapped B)",
                    t.elapsed().as_secs_f64() * 1e3,
                    oracle.num_vertices(),
                    oracle.num_components(),
                    oracle.label_entries(),
                    oracle.backend(),
                    memory.heap_bytes,
                    memory.mapped_bytes,
                );
                registry
                    .insert_frozen(&name, oracle)
                    .map_err(|e| e.to_string())?;
                loaded += 1;
            }
            Spec::Dynamic(name, path) => {
                let graph = load_graph(&path)?;
                let dag = Dag::new(graph)
                    .map_err(|e| format!("{path}: dynamic namespaces need a DAG: {e}"))?;
                match &wal_dir {
                    Some(root) => {
                        let dir = std::path::Path::new(root).join(&name);
                        registry
                            .open_durable(&name, dag, &dir, WalConfig::default(), None)
                            .map_err(|e| format!("{name}: wal dir {}: {e}", dir.display()))?;
                        let ns = registry.get(&name).expect("just inserted");
                        let stats = ns.stats();
                        log_info!(
                            "serve",
                            "{name}: durable dynamic oracle in {} \
                             ({} vertices, {} replayed WAL record(s), seed {path})",
                            dir.display(),
                            stats.vertices,
                            stats.wal_records,
                        );
                    }
                    None => {
                        log_info!(
                            "serve",
                            "{name}: built dynamic oracle from {path} ({} vertices, {} edges)",
                            dag.num_vertices(),
                            dag.num_edges(),
                        );
                        registry
                            .insert_dynamic(&name, DynamicOracle::new(dag))
                            .map_err(|e| e.to_string())?;
                    }
                }
                loaded += 1;
            }
        }
    }
    if let Some(path) = &trace_out {
        let mut body = traces.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))?;
        log_info!("serve", "wrote {} build trace(s) to {path}", traces.len());
    }

    // Everything (including WAL replay, which `open_durable` runs
    // synchronously) is loaded: open the gates.
    registry.set_ready(true);
    log_info!(
        "serve",
        "{loaded} namespace(s), reactor event loop, batch fan-out {}",
        config.batch_threads
    );
    // Serve until killed; the reactor thread does all the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_smoke() -> Result<(), String> {
    fn fail(what: &'static str) -> impl Fn(hoplite_server::ClientError) -> String {
        move |e| format!("{what}: {e}")
    }

    // A cyclic digraph for the frozen namespace, a DAG for the dynamic.
    let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 3)])
        .map_err(|e| e.to_string())?;
    let dag = Dag::from_edges(4, &[(0, 1), (2, 3)]).map_err(|e| e.to_string())?;

    // The dynamic namespace runs durable so the smoke covers the WAL
    // logging path over the wire and the recovery path after shutdown.
    let wal_root = std::env::temp_dir().join(format!("hoplited-smoke-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);

    let registry = Arc::new(Registry::new());
    registry
        .insert_frozen("web", Oracle::new(&g))
        .map_err(|e| e.to_string())?;
    registry
        .open_durable(
            "live",
            dag,
            wal_root.join("live"),
            WalConfig::default(),
            None,
        )
        .map_err(|e| e.to_string())?;

    let mut handle = Server::bind("127.0.0.1:0", registry, ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = handle.local_addr();
    let metrics_addr = handle
        .serve_metrics("127.0.0.1:0")
        .map_err(|e| format!("bind metrics: {e}"))?;
    println!("smoke: serving on {addr} (metrics on {metrics_addr})");

    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(fail("PING"))?;

    let names: Vec<String> = client
        .list()
        .map_err(fail("LIST"))?
        .into_iter()
        .map(|i| i.name)
        .collect();
    if names != ["live", "web"] {
        return Err(format!("LIST returned {names:?}"));
    }

    if !client.reach("web", 0, 4).map_err(fail("REACH"))? {
        return Err("web: 0 must reach 4".into());
    }
    if client.reach("web", 4, 5).map_err(fail("REACH"))? {
        return Err("web: 4 must not reach 5".into());
    }
    let batch = client
        .reach_batch("web", &[(1, 0), (3, 5)])
        .map_err(fail("BATCH"))?;
    if batch != [true, false] {
        return Err(format!("BATCH returned {batch:?}"));
    }

    if client.reach("live", 0, 3).map_err(fail("REACH live"))? {
        return Err("live: 0 must not reach 3 yet".into());
    }
    client.add_edge("live", 1, 2).map_err(fail("ADD_EDGE"))?;
    if !client.reach("live", 0, 3).map_err(fail("REACH live"))? {
        return Err("live: 0 must reach 3 after ADD_EDGE".into());
    }
    if !client
        .remove_edge("live", 1, 2)
        .map_err(fail("REMOVE_EDGE"))?
    {
        return Err("live: REMOVE_EDGE must report the edge existed".into());
    }
    if client.add_edge("web", 0, 3).is_ok() {
        return Err("frozen namespace must reject ADD_EDGE".into());
    }

    let stats = client.stats("web").map_err(fail("STATS"))?;
    if stats.vertices != 6 || stats.queries < 4 {
        return Err(format!("unexpected web stats: {stats:?}"));
    }

    // A deliberately corrupt frame must get an error reply, not a hang
    // or a dropped server.
    {
        use std::io::Write as _;
        let mut raw = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let garbage = [9u8, 0x02, 0xFF];
        raw.write_all(&(garbage.len() as u32).to_le_bytes())
            .map_err(|e| e.to_string())?;
        raw.write_all(&garbage).map_err(|e| e.to_string())?;
        let mut len = [0u8; 4];
        raw.read_exact(&mut len).map_err(|e| e.to_string())?;
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        raw.read_exact(&mut payload).map_err(|e| e.to_string())?;
        match hoplite_server::Response::decode(&payload) {
            Ok(hoplite_server::Response::Error(_)) => {}
            other => return Err(format!("corrupt frame produced {other:?}")),
        }
    }
    client.ping().map_err(fail("PING after corrupt frame"))?;

    // METRICS over the wire: the queries above must have been counted,
    // split by outcome, with latency quantiles attached.
    let report = client.metrics("").map_err(fail("METRICS"))?;
    let web_queries = report
        .counter("ns_queries_total{ns=\"web\"}")
        .ok_or("METRICS missing ns_queries_total for web")?;
    if web_queries < 4 {
        return Err(format!("METRICS counted only {web_queries} web queries"));
    }
    if report.counter("server_frames_total").unwrap_or(0) == 0 {
        return Err("METRICS reports zero frames served".into());
    }
    let outcomes: u64 = ["filter", "signature", "merge"]
        .iter()
        .filter_map(|o| {
            report.counter(&format!(
                "ns_query_outcome_total{{ns=\"web\",outcome={o:?}}}"
            ))
        })
        .sum();
    if outcomes == 0 {
        return Err("METRICS outcome counters are all zero".into());
    }
    if report.histogram("server_reply_latency_ns").is_none() {
        return Err("METRICS missing server_reply_latency_ns summary".into());
    }

    // And the same data over the text exposition endpoint.
    {
        use std::io::Write as _;
        let mut http = std::net::TcpStream::connect(metrics_addr).map_err(|e| e.to_string())?;
        http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut body = String::new();
        http.read_to_string(&mut body).map_err(|e| e.to_string())?;
        if !body.starts_with("HTTP/1.0 200") {
            return Err(format!("GET /metrics: unexpected status: {body:.60}"));
        }
        if !body.contains("# TYPE ns_queries_total counter") {
            return Err("exposition missing ns_queries_total TYPE line".into());
        }
        let counted = body
            .lines()
            .find(|l| l.starts_with("ns_queries_total{ns=\"web\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|n| n.parse::<u64>().ok())
            .ok_or("exposition missing ns_queries_total{ns=\"web\"} sample")?;
        if counted < 4 {
            return Err(format!("exposition counted only {counted} web queries"));
        }
        if !body.contains("reactor_coalesce_batch_pairs") {
            return Err("exposition missing coalesce batch-size summary".into());
        }
    }

    handle.shutdown();

    // Restart-and-replay: the acknowledged mutations (ADD then REMOVE
    // of 1→2) must come back from checkpoint + WAL, not from the seed.
    {
        let recovered = Registry::new();
        recovered
            .open_durable(
                "live",
                Dag::from_edges(4, &[]).map_err(|e| e.to_string())?,
                wal_root.join("live"),
                WalConfig::default(),
                None,
            )
            .map_err(|e| format!("recover live: {e}"))?;
        let ns = recovered
            .get("live")
            .ok_or("recovered registry lost live")?;
        let stats = ns.stats();
        if stats.wal_records != 2 {
            return Err(format!("expected 2 replayed WAL records: {stats:?}"));
        }
        if !ns.reach(2, 3).map_err(|e| e.to_string())? {
            return Err("live after recovery: seeded edge 2→3 lost".into());
        }
        if ns.reach(0, 3).map_err(|e| e.to_string())? {
            return Err("live after recovery: removed edge 1→2 came back".into());
        }
    }
    let _ = std::fs::remove_dir_all(&wal_root);
    println!("smoke: OK");
    Ok(())
}
