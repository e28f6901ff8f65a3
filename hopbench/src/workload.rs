//! The three workloads: inputs from the seed, the `hoplited` they
//! start, the phases they drive, and the checks on every answer.

use std::collections::{HashSet, VecDeque};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hoplite_core::{DynamicOracle, EdgeOp, Oracle};
use hoplite_graph::gen::{self, Rng};
use hoplite_graph::traversal::{reaches_with, TraversalScratch};
use hoplite_graph::{io as gio, Dag, DiGraph};
use hoplite_server::protocol::{MetricsReport, NamespaceStats, Request, Response};
use hoplite_server::Registry;

use crate::calibrate;
use crate::layers;
use crate::proc::{CpuSplit, ScratchDir, Server};
use crate::stats::{median, order_stat, quantile};
use crate::trace::Spans;
use crate::wire::{put_frame, run_phase, Clock, Conn, Failure, Pace, Record, Source, Stream};
use crate::Metrics;

/// The namespace every workload serves.
const NS: &str = "g";
/// Pairs checked against BFS per workload (and per check point in
/// `durable_mixed`).
const BFS_PAIRS: usize = 2000;
/// Open-loop phases fail when more than this share of their scheduled
/// requests never went out.
const MAX_UNSENT: f64 = 0.01;
/// `durable_mixed` needs this many background rebuilds in its measured
/// phases to count as exercising the rebuild path.
const MIN_REBUILDS: u64 = 4;
/// The fixed rate of `durable_mixed`'s durable writes: half its lowest
/// measured write ceiling, the highest paced rate at which the one-CPU
/// server's background rebuilds keep up (`hopbench write-ceiling`:
/// 60–80 writes/s on the development host, where one rebuild takes
/// 0.6–0.8 s). The WAL alone acknowledges thousands of writes a
/// second, but past the ceiling rebuilds run back to back, the overlay
/// every read walks keeps growing, and throughput swings between bursts
/// and stalls. Half leaves room for the host's slow stretches, which
/// halve its speed.
pub const WRITES_PER_SEC: f64 = 30.0;
/// Traced phases give every this-many-th request client spans.
const TRACE_EVERY_REACH: u64 = 1024;
const TRACE_EVERY_BATCH: u64 = 16;

/// What to run.
pub struct Opts {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the measured phases, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

/// What a run found.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Requests sent, in every phase and check.
    pub attempted: u64,
    /// Error or refusal replies and requests never answered.
    pub failed: u64,
    /// Answers that disagreed with the expected answer.
    pub wrong: u64,
    /// Everything that makes the run invalid, failures included.
    pub problems: Vec<String>,
    /// Informational lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// No wrong answer and no broken validity condition.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.problems.is_empty()
    }

    fn tally(&mut self, what: &str, rec: &Record) {
        self.attempted += rec.sent;
        self.failed += rec.failed;
        self.wrong += rec.wrong;
        if let Some(p) = &rec.first_problem {
            self.problems.push(format!("{what}: {p}"));
        }
    }
}

/// Expected answer for one query pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Yes,
    No,
    /// Concurrent writes may make the pair go either way.
    Either,
}

impl Expect {
    fn of(b: bool) -> Expect {
        if b {
            Expect::Yes
        } else {
            Expect::No
        }
    }

    fn admits(self, b: bool) -> bool {
        !matches!((self, b), (Expect::Yes, false) | (Expect::No, true))
    }
}

fn refusal(reply: Response) -> Failure {
    match reply {
        Response::Error(m) => Failure::Refused(m),
        Response::Fail { code, message, .. } => Failure::Refused(format!("{code}: {message}")),
        other => Failure::Wrong(format!("unexpected reply {other:?}")),
    }
}

/// Single-pair `REACH` frames, pre-encoded so the load generator only copies
/// bytes on the timed path.
pub struct ReachPool {
    pub pairs: Vec<(u32, u32)>,
    pub expect: Vec<Expect>,
    frames: Vec<u8>,
    stride: usize,
}

impl ReachPool {
    pub fn new(pairs: Vec<(u32, u32)>, expect: Vec<Expect>) -> ReachPool {
        assert_eq!(pairs.len(), expect.len());
        let mut frames = Vec::new();
        for &(u, v) in &pairs {
            put_frame(
                &mut frames,
                &Request::Reach {
                    ns: NS.into(),
                    u,
                    v,
                },
            );
        }
        let stride = frames.len() / pairs.len().max(1);
        ReachPool {
            pairs,
            expect,
            frames,
            stride,
        }
    }

    fn frame(&self, i: usize) -> &[u8] {
        &self.frames[i * self.stride..(i + 1) * self.stride]
    }

    /// The frame payload (no length prefix) of pool entry `i`.
    fn payload(&self, i: usize) -> &[u8] {
        &self.frame(i)[4..]
    }
}

/// Cycles through a [`ReachPool`] from a starting offset.
pub struct ReachSource<'a> {
    pub pool: &'a ReachPool,
    pub cursor: usize,
}

impl Source for ReachSource<'_> {
    fn next(&mut self, out: &mut Vec<u8>) -> u64 {
        let i = self.cursor;
        self.cursor = (i + 1) % self.pool.pairs.len();
        out.extend_from_slice(self.pool.frame(i));
        i as u64
    }

    fn check(&mut self, tag: u64, reply: Response) -> Result<u64, Failure> {
        let i = tag as usize;
        match reply {
            Response::Bool(b) if self.pool.expect[i].admits(b) => Ok(1),
            Response::Bool(b) => {
                let (u, v) = self.pool.pairs[i];
                Err(Failure::Wrong(format!(
                    "REACH({u},{v}) answered {b}, expected {:?}",
                    self.pool.expect[i]
                )))
            }
            other => Err(refusal(other)),
        }
    }
}

/// `BATCH` frames of a fixed pair count, pre-encoded.
pub struct BatchPool {
    pairs: Vec<Vec<(u32, u32)>>,
    expect: Vec<Vec<bool>>,
    frames: Vec<Vec<u8>>,
}

impl BatchPool {
    fn new(pairs: Vec<Vec<(u32, u32)>>, expect: Vec<Vec<bool>>) -> BatchPool {
        let frames = pairs
            .iter()
            .map(|p| {
                let mut f = Vec::new();
                put_frame(
                    &mut f,
                    &Request::Batch {
                        ns: NS.into(),
                        pairs: p.clone(),
                    },
                );
                f
            })
            .collect();
        BatchPool {
            pairs,
            expect,
            frames,
        }
    }
}

struct BatchSource<'a> {
    pool: &'a BatchPool,
    cursor: usize,
}

impl Source for BatchSource<'_> {
    fn next(&mut self, out: &mut Vec<u8>) -> u64 {
        let i = self.cursor;
        self.cursor = (i + 1) % self.pool.frames.len();
        out.extend_from_slice(&self.pool.frames[i]);
        i as u64
    }

    fn check(&mut self, tag: u64, reply: Response) -> Result<u64, Failure> {
        let i = tag as usize;
        match reply {
            Response::Bools(got) if got == self.pool.expect[i] => Ok(got.len() as u64),
            Response::Bools(got) => {
                let k = (0..got.len().min(self.pool.expect[i].len()))
                    .find(|&k| got[k] != self.pool.expect[i][k])
                    .unwrap_or(0);
                let (u, v) = self.pool.pairs[i].get(k).copied().unwrap_or((0, 0));
                Err(Failure::Wrong(format!(
                    "BATCH frame {i}: {} answers for {} pairs; pair ({u},{v}) answered {:?}",
                    got.len(),
                    self.pool.expect[i].len(),
                    got.get(k)
                )))
            }
            other => Err(refusal(other)),
        }
    }
}

/// The durable writer of `durable_mixed`: 7 in 8 ops insert a fresh
/// edge oriented along the base DAG's topological order (so the graph
/// stays acyclic and every rejection is a failure), 1 in 8 remove one of
/// its own earlier inserts.
struct Writer<'a> {
    dag: &'a Dag,
    rng: Rng,
    /// Inserted edges currently live, as this writer has sent them.
    live: Vec<(u32, u32)>,
    live_set: HashSet<(u32, u32)>,
    inflight: VecDeque<EdgeOp>,
    /// The first acknowledged ops, for the in-process WAL replay.
    acked: Vec<EdgeOp>,
    acks: u64,
}

impl<'a> Writer<'a> {
    fn new(dag: &'a Dag, seed: u64) -> Writer<'a> {
        Writer {
            dag,
            rng: Rng::new(seed ^ 0x5752_4954_4552),
            live: Vec::new(),
            live_set: HashSet::new(),
            inflight: VecDeque::new(),
            acked: Vec::new(),
            acks: 0,
        }
    }

    fn next_op(&mut self) -> EdgeOp {
        if self.rng.gen_range(8) == 0 && !self.live.is_empty() {
            let e = self.live.swap_remove(self.rng.gen_index(self.live.len()));
            self.live_set.remove(&e);
            return EdgeOp::Remove(e.0, e.1);
        }
        let (u, v) = self.insert();
        EdgeOp::Insert(u, v)
    }

    /// Picks a fresh edge along the topological order and records it as
    /// live.
    fn insert(&mut self) -> (u32, u32) {
        let n = self.dag.num_vertices();
        loop {
            let (a, b) = (self.rng.gen_index(n) as u32, self.rng.gen_index(n) as u32);
            if a == b {
                continue;
            }
            let (u, v) = if self.dag.topo_pos(a) < self.dag.topo_pos(b) {
                (a, b)
            } else {
                (b, a)
            };
            if self.dag.graph().has_edge(u, v) || !self.live_set.insert((u, v)) {
                continue;
            }
            self.live.push((u, v));
            return (u, v);
        }
    }

    /// Every edge the server holds once all sent ops are acknowledged.
    fn graph(&self) -> DiGraph {
        let mut edges: Vec<(u32, u32)> = self.dag.graph().edges().collect();
        edges.extend(self.live.iter().copied());
        DiGraph::from_edges(self.dag.num_vertices(), &edges).expect("vertex ids are in range")
    }
}

impl Source for Writer<'_> {
    fn next(&mut self, out: &mut Vec<u8>) -> u64 {
        let op = self.next_op();
        let req = match op {
            EdgeOp::Insert(u, v) => Request::AddEdge {
                ns: NS.into(),
                u,
                v,
            },
            EdgeOp::Remove(u, v) => Request::RemoveEdge {
                ns: NS.into(),
                u,
                v,
            },
        };
        put_frame(out, &req);
        self.inflight.push_back(op);
        0
    }

    fn check(&mut self, _tag: u64, reply: Response) -> Result<u64, Failure> {
        let op = self
            .inflight
            .pop_front()
            .expect("a reply matches a sent op");
        match reply {
            Response::Bool(true) => {
                self.acks += 1;
                if self.acked.len() < 4096 {
                    self.acked.push(op);
                }
                Ok(1)
            }
            Response::Bool(false) => Err(Failure::Wrong(format!(
                "{op:?} of an edge this writer inserted returned false"
            ))),
            other => Err(refusal(other)),
        }
    }
}

/// Shared state of one run.
struct Ctx {
    opts: Opts,
    bin: PathBuf,
    cpus: CpuSplit,
    dir: ScratchDir,
    clock: Clock,
    out: Outcome,
    spans: Spans,
    logs: usize,
    /// Calibration kernel ns/step, one per probe.
    host_probes: Vec<f64>,
}

/// Phase lengths as shares of `--seconds`.
const WARM: f64 = 0.10;
const OPEN_LO: f64 = 0.25;
const OPEN_HI: f64 = 0.25;
const SATURATE: f64 = 0.40;
/// Windows per kind of measured phase, over all rounds; each metric is
/// an order statistic over the windows of its kind.
const WINDOWS: usize = 20;
/// Interleaved rounds of the measured phases.
const ROUNDS: usize = 5;
/// Metrics take the fastest tenth of windows (see [`put_latency`]).
const FAST_WINDOWS: f64 = 0.1;
/// How long a phase waits for its last replies.
const DRAIN: Duration = Duration::from_secs(10);

impl Ctx {
    fn new(opts: Opts, bin: PathBuf, cpus: CpuSplit, work: PathBuf) -> Result<Ctx, String> {
        Ok(Ctx {
            opts,
            bin,
            cpus,
            dir: ScratchDir::create(work)?,
            clock: Clock::new(),
            out: Outcome::default(),
            spans: Spans::default(),
            logs: 0,
            host_probes: Vec::new(),
        })
    }

    fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.opts.seconds * share)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.path().join(name)
    }

    /// Times the calibration kernel on the server's CPUs; call only
    /// while the server is idle.
    fn probe_host(&mut self) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate hopbench: {e}"))?;
        let ns = calibrate::probe(&exe, self.cpus.server.as_deref())?;
        self.host_probes.push(ns);
        Ok(())
    }

    /// Scales the timing metrics to the reference host speed (see
    /// [`calibrate`]) and records the speed and the raw values.
    fn calibrate_metrics(&mut self) {
        if self.host_probes.is_empty() {
            return;
        }
        let speed = calibrate::REFERENCE_NS_PER_STEP / median(&self.host_probes);
        for (name, per_time) in [
            ("setup_s", true),
            ("read_qps", false),
            ("read_p90_us.lo", true),
            ("read_p50_us.hi", true),
            ("server_cpu_us_per_op", true),
        ] {
            let factor = if per_time { speed } else { 1.0 / speed };
            if let Some(raw) = self.out.metrics.scale(name, factor) {
                self.out.notes.push(format!("{name} as measured: {raw}"));
            }
        }
        self.out.metrics.put(
            "bench.host.speed",
            speed,
            &format!(
                "reference / median of {} kernel probes",
                self.host_probes.len()
            ),
        );
    }

    /// Starts `hoplited serve` and waits for its first answered REACH;
    /// returns the server and that wait in seconds.
    fn spawn_ready(&mut self, args: &[String]) -> Result<(Server, f64), String> {
        self.logs += 1;
        let log = self.path(&format!("hoplited-{}.log", self.logs));
        let t0 = Instant::now();
        let server = Server::spawn(&self.bin, self.cpus.server.as_deref(), args, &log)?;
        let mut conn = connect(&server)?;
        let probe = Request::Reach {
            ns: NS.into(),
            u: 0,
            v: 0,
        };
        loop {
            self.out.attempted += 1;
            match conn.call(&probe).map_err(|e| server.failure(&e))? {
                Response::Bool(_) => break,
                Response::Fail { .. } if t0.elapsed() < Duration::from_secs(120) => {
                    std::thread::sleep(Duration::from_micros(200))
                }
                other => return Err(server.failure(&format!("not ready: {other:?}"))),
            }
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    /// Starts the server `spawns` times (each with `args(i)`), reports
    /// the median time to the first answer as `setup_s`, and keeps the
    /// last one running.
    fn setup(
        &mut self,
        spawns: usize,
        args: impl Fn(usize) -> Vec<String>,
    ) -> Result<Server, String> {
        let mut times = Vec::new();
        let mut kept = None;
        for i in 0..spawns {
            let (server, secs) = self.spawn_ready(&args(i))?;
            times.push(secs);
            kept = Some(server);
        }
        let each: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
        self.out.metrics.put(
            "setup_s",
            median(&times),
            &format!("median of {spawns} spawns: {} s", each.join(", ")),
        );
        Ok(kept.expect("at least one spawn"))
    }

    /// Counts one phase's requests and failures; returns the operations
    /// it answered.
    fn tally_phase(&mut self, what: &str, recs: &PhaseRecs) -> u64 {
        let mut ops = 0;
        for rec in recs.readers.iter().chain(&recs.background) {
            self.out.tally(what, rec);
            ops += rec.ops;
        }
        ops
    }

    fn open_loop_checks(&mut self, what: &str, recs: &[&Record]) {
        for rec in recs {
            if rec.scheduled > 0 && rec.unsent() as f64 > MAX_UNSENT * rec.scheduled as f64 {
                self.out.problems.push(format!(
                    "{what}: {} of {} scheduled requests unsent",
                    rec.unsent(),
                    rec.scheduled
                ));
            }
        }
    }
}

/// The latency samples of streams that ran side by side, window by
/// window.
fn pooled(recs: &[&Record]) -> Vec<Vec<u32>> {
    let windows = recs.iter().map(|r| r.latencies.len()).max().unwrap_or(0);
    (0..windows)
        .map(|w| {
            recs.iter()
                .filter_map(|r| r.latencies.get(w))
                .flatten()
                .copied()
                .collect()
        })
        .collect()
}

/// Puts each window's `q`-quantile latency, in µs, taken at the lower
/// decile across windows: the latency of the fastest tenth of windows.
/// Other tenants of the host slow its CPUs by up to half for seconds at
/// a time and stall them for milliseconds; that interference only ever
/// adds latency, so the fast windows track the code and the rest track
/// the neighbours.
fn put_latency(m: &mut Metrics, name: &str, windows: &mut [Vec<u32>], q: f64) {
    let n: usize = windows.iter().map(Vec::len).sum();
    let per_window: Vec<f64> = windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q) / 1e3)
        .collect();
    if per_window.is_empty() {
        m.put(name, f64::NAN, "no samples");
        return;
    }
    m.put(
        name,
        order_stat(&per_window, FAST_WINDOWS),
        &format!("lower decile of {} windows, n={n}", per_window.len()),
    );
}

/// The `q`-quantile over every sample of every window, in µs.
fn overall(windows: &[Vec<u32>], q: f64) -> f64 {
    let mut all: Vec<u32> = windows.iter().flatten().copied().collect();
    if all.is_empty() {
        return f64::NAN;
    }
    quantile(&mut all, q) / 1e3
}

fn connect(server: &Server) -> Result<Conn, String> {
    Conn::connect(server.addr).map_err(|e| server.failure(&e.to_string()))
}

fn stats(conn: &mut Conn) -> Result<NamespaceStats, String> {
    match conn.call(&Request::Stats { ns: NS.into() })? {
        Response::Stats(s) => Ok(s),
        other => Err(format!("STATS: {other:?}")),
    }
}

fn metrics_report(conn: &mut Conn) -> Result<MetricsReport, String> {
    match conn.call(&Request::Metrics { ns: String::new() })? {
        Response::Metrics(m) => Ok(m),
        other => Err(format!("METRICS: {other:?}")),
    }
}

/// Server-side state at a phase boundary.
struct Snapshot {
    cpu_us: u64,
    ctxsw: (u64, u64),
    report: Option<MetricsReport>,
}

fn snapshot(server: &Server, conn: &mut Conn, with_report: bool) -> Result<Snapshot, String> {
    Ok(Snapshot {
        cpu_us: server.cpu_us()?,
        ctxsw: server.context_switches(),
        report: if with_report {
            Some(metrics_report(conn)?)
        } else {
            None
        },
    })
}

/// Uniform pairs over `0..n`.
fn uniform_pairs(n: usize, count: usize, rng: &mut Rng) -> Vec<(u32, u32)> {
    (0..count)
        .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
        .collect()
}

/// Compares the in-process answers for the first [`BFS_PAIRS`] pairs
/// with plain BFS over `g`.
fn check_against_bfs(
    out: &mut Outcome,
    what: &str,
    g: &DiGraph,
    pairs: &[(u32, u32)],
    answers: &[bool],
) {
    let mut scratch = TraversalScratch::new(g.num_vertices());
    let mut wrong = 0u64;
    for (&(u, v), &a) in pairs.iter().zip(answers).take(BFS_PAIRS) {
        if reaches_with(g, u, v, &mut scratch) != a {
            if wrong == 0 {
                out.problems
                    .push(format!("{what}: ({u},{v}) answered {a}, BFS disagrees"));
            }
            wrong += 1;
        }
    }
    out.wrong += wrong;
}

fn write_edge_list(g: &DiGraph, path: &Path) -> Result<(), String> {
    let f = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(f);
    gio::write_edge_list(g, &mut w).map_err(|e| format!("write {}: {e}", path.display()))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("write {}: {e}", path.display()))
}

fn listen_args() -> Vec<String> {
    ["--reactor", "--listen", "127.0.0.1:0"]
        .map(String::from)
        .to_vec()
}

/// Runs one workload.
pub fn run(opts: Opts, bin: PathBuf, cpus: CpuSplit, work: PathBuf) -> Result<Outcome, String> {
    let mut ctx = Ctx::new(opts, bin, cpus, work)?;
    match ctx.opts.workload {
        "point_reads" => point_reads(&mut ctx)?,
        "batch_scan" => batch_scan(&mut ctx)?,
        "durable_mixed" => durable_mixed(&mut ctx)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    ctx.calibrate_metrics();
    if ctx.opts.trace {
        std::fs::write(
            &ctx.opts.trace_out,
            ctx.spans.to_json(ctx.opts.workload, ctx.opts.seed),
        )
        .map_err(|e| format!("write {}: {e}", ctx.opts.trace_out.display()))?;
        ctx.out.notes.push(format!(
            "{} spans written to {}",
            ctx.spans.spans.len(),
            ctx.opts.trace_out.display()
        ));
    }
    Ok(ctx.out)
}

/// One connection and the requests it sends.
struct Load<'a> {
    conn: &'a mut Conn,
    source: &'a mut dyn Source,
}

/// How a workload offers reads: the same shape on every workload, so
/// every end-to-end metric means the same thing everywhere.
struct ReadPlan {
    /// Requests in flight per reader connection at saturation.
    depth: usize,
    /// Open-loop rates over all reader connections, in requests/s.
    lo: f64,
    hi: f64,
    /// Pairs per request.
    pairs_per_req: u64,
    /// Traced phases give every this-many-th read client spans.
    trace_every: u64,
}

/// Records of one phase: one per reader, and the background stream's.
struct PhaseRecs {
    readers: Vec<Record>,
    background: Option<Record>,
}

/// Runs the readers at `pace` (and the background stream at its own
/// pace) for `secs`.
#[allow(clippy::too_many_arguments)]
fn phase(
    ctx: &mut Ctx,
    readers: &mut [Load],
    pace: Pace,
    background: Option<&mut (Load, Pace)>,
    secs: Duration,
    windows: usize,
    trace_every: Option<u64>,
) -> Result<PhaseRecs, String> {
    let mut streams: Vec<Stream> = readers
        .iter_mut()
        .map(|l| Stream::new(&mut *l.conn, pace, &mut *l.source))
        .collect();
    let with_background = background.is_some();
    if let Some((l, p)) = background {
        let mut s = Stream::new(&mut *l.conn, *p, &mut *l.source);
        s.traced = false;
        streams.push(s);
    }
    let clock = ctx.clock;
    let trace = trace_every.map(|every| (&mut ctx.spans, every));
    run_phase(&clock, &mut streams, secs, windows, DRAIN, trace)?;
    let mut readers: Vec<Record> = streams.into_iter().map(|s| s.rec).collect();
    let background = with_background.then(|| readers.pop().expect("background stream"));
    Ok(PhaseRecs {
        readers,
        background,
    })
}

/// Per-window read rates (pairs/s) of a closed-loop phase, summed over
/// the readers.
fn window_rates(recs: &[Record], window: Duration) -> Vec<f64> {
    let windows = recs.iter().map(|r| r.window_ops.len()).max().unwrap_or(0);
    (0..windows)
        .map(|w| recs.iter().map(|r| r.window_rates(window)[w]).sum())
        .collect()
}

/// What the measured phases leave behind.
struct ReadRun {
    read_qps: f64,
    /// Operations answered in the measured phases.
    ops: u64,
    before: Snapshot,
    after: Snapshot,
    lateness: Vec<u32>,
    outstanding_max: usize,
}

/// The measured phases every workload shares, run in interleaved
/// rounds so that each metric samples the whole run: the host's speed
/// drifts over seconds, and one long phase per metric would hand each
/// metric a different stretch of it. A round is open-loop reads at the
/// plan's `lo` and `hi` rates (beside the background stream, if any),
/// then closed-loop saturation with reads alone.
struct Measure {
    before: Snapshot,
    lo: Vec<Vec<u32>>,
    hi: Vec<Vec<u32>>,
    sat: Vec<Vec<u32>>,
    sat_rates: Vec<f64>,
    writes: Vec<Vec<u32>>,
    ops: u64,
    /// Server CPU from the start of each round's open-loop phases to the
    /// start of its saturation phase (so `durable_mixed`'s settling and
    /// the rebuilds it waits for are in), and the operations the
    /// open-loop phases answered.
    open_cpu_us: u64,
    open_ops: u64,
    open_since: Option<u64>,
    lateness: Vec<u32>,
    outstanding_max: usize,
}

impl Measure {
    /// Warm-up (closed loop, background running), then the snapshot
    /// that opens the measured phases.
    fn start(
        ctx: &mut Ctx,
        server: &Server,
        control: &mut Conn,
        readers: &mut [Load],
        background: Option<&mut (Load, Pace)>,
        plan: &ReadPlan,
    ) -> Result<Measure, String> {
        let warm = phase(
            ctx,
            readers,
            Pace::Closed(plan.depth),
            background,
            ctx.secs(WARM),
            1,
            None,
        )?;
        ctx.tally_phase("warm-up", &warm);
        Ok(Measure {
            before: snapshot(server, control, ctx.opts.trace)?,
            lo: Vec::new(),
            hi: Vec::new(),
            sat: Vec::new(),
            sat_rates: Vec::new(),
            writes: Vec::new(),
            ops: 0,
            open_cpu_us: 0,
            open_ops: 0,
            open_since: None,
            lateness: Vec::new(),
            outstanding_max: 0,
        })
    }

    /// One round's open-loop phases.
    fn open(
        &mut self,
        ctx: &mut Ctx,
        server: &Server,
        readers: &mut [Load],
        mut background: Option<&mut (Load, Pace)>,
        plan: &ReadPlan,
    ) -> Result<(), String> {
        ctx.probe_host()?;
        self.open_since = Some(server.cpu_us()?);
        for (label, rate, share) in [("lo", plan.lo, OPEN_LO), ("hi", plan.hi, OPEN_HI)] {
            let recs = phase(
                ctx,
                readers,
                Pace::Open(rate / readers.len() as f64),
                background.as_deref_mut(),
                ctx.secs(share / ROUNDS as f64),
                WINDOWS / ROUNDS,
                None,
            )?;
            let readers_recs: Vec<&Record> = recs.readers.iter().collect();
            let windows = if label == "lo" {
                &mut self.lo
            } else {
                &mut self.hi
            };
            windows.extend(pooled(&readers_recs));
            if let Some(w) = &recs.background {
                self.writes.extend(w.latencies.iter().cloned());
            }
            let all: Vec<&Record> = recs.readers.iter().chain(&recs.background).collect();
            ctx.open_loop_checks(&format!("open loop {label}"), &all);
            for r in &recs.readers {
                self.lateness.extend_from_slice(&r.lateness);
                self.outstanding_max = self.outstanding_max.max(r.outstanding_max);
            }
            let ops = ctx.tally_phase(&format!("open loop {label}"), &recs);
            self.ops += ops;
            self.open_ops += ops;
        }
        Ok(())
    }

    /// One round's saturation phase.
    fn saturate(
        &mut self,
        ctx: &mut Ctx,
        server: &Server,
        readers: &mut [Load],
        plan: &ReadPlan,
    ) -> Result<(), String> {
        if let Some(since) = self.open_since.take() {
            self.open_cpu_us += server.cpu_us()?.saturating_sub(since);
        }
        let secs = ctx.secs(SATURATE / ROUNDS as f64);
        let windows = WINDOWS / ROUNDS;
        let recs = phase(
            ctx,
            readers,
            Pace::Closed(plan.depth),
            None,
            secs,
            windows,
            None,
        )?;
        self.sat_rates
            .extend(window_rates(&recs.readers, secs / windows as u32));
        let readers_recs: Vec<&Record> = recs.readers.iter().collect();
        self.sat.extend(pooled(&readers_recs));
        self.ops += ctx.tally_phase("saturation", &recs);
        Ok(())
    }

    /// Closes the measured phases and reports their end-to-end metrics.
    fn finish(
        mut self,
        ctx: &mut Ctx,
        server: &Server,
        control: &mut Conn,
    ) -> Result<ReadRun, String> {
        let after = snapshot(server, control, ctx.opts.trace)?;
        ctx.probe_host()?;
        let m = &mut ctx.out.metrics;
        let read_qps = order_stat(&self.sat_rates, 1.0 - FAST_WINDOWS);
        m.put(
            "read_qps",
            read_qps,
            &format!("upper decile of {} windows", self.sat_rates.len()),
        );
        put_latency(m, "read_p90_us.lo", &mut self.lo, 0.90);
        put_latency(m, "read_p50_us.hi", &mut self.hi, 0.50);
        let cpu = self.open_cpu_us as f64;
        m.put(
            "server_cpu_us_per_op",
            cpu / self.open_ops.max(1) as f64,
            &format!(
                "{:.0} ms CPU / {} ops, open-loop phases",
                cpu / 1e3,
                self.open_ops
            ),
        );
        for (label, w) in [("lo", &self.lo), ("hi", &self.hi), ("saturated", &self.sat)] {
            ctx.out.notes.push(format!(
                "reads {label}: whole-run p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us",
                overall(w, 0.5),
                overall(w, 0.99),
                overall(w, 0.999),
            ));
        }
        if !self.writes.is_empty() {
            ctx.out.notes.push(format!(
                "writes: p50 {:.1} us, p99 {:.1} us (n={})",
                overall(&self.writes, 0.5),
                overall(&self.writes, 0.99),
                self.writes.iter().map(Vec::len).sum::<usize>()
            ));
        }
        Ok(ReadRun {
            read_qps,
            ops: self.ops,
            before: self.before,
            after,
            lateness: self.lateness,
            outstanding_max: self.outstanding_max,
        })
    }
}

/// Index size and peak memory, from STATS and `/proc`.
fn put_footprint(ctx: &mut Ctx, server: &Server, st: &NamespaceStats) -> Result<(), String> {
    ctx.out.metrics.put(
        "index_bytes",
        (st.heap_bytes + st.mapped_bytes) as f64,
        &format!("{} heap + {} mapped", st.heap_bytes, st.mapped_bytes),
    );
    ctx.out.metrics.put(
        "server_rss_mb",
        server.peak_rss_bytes()? as f64 / (1024.0 * 1024.0),
        "VmHWM",
    );
    Ok(())
}

/// The traced run's extra saturation phase, with client spans on
/// sampled reads; returns untraced ÷ traced `read_qps`.
fn traced_saturation(
    ctx: &mut Ctx,
    readers: &mut [Load],
    plan: &ReadPlan,
    untraced_qps: f64,
) -> Result<f64, String> {
    let (secs, windows) = (ctx.secs(SATURATE / 2.0), WINDOWS / 2);
    let recs = phase(
        ctx,
        readers,
        Pace::Closed(plan.depth),
        None,
        secs,
        windows,
        Some(plan.trace_every),
    )?;
    ctx.tally_phase("traced saturation", &recs);
    let rates = window_rates(&recs.readers, secs / windows as u32);
    Ok(untraced_qps / order_stat(&rates, 1.0 - FAST_WINDOWS))
}

/// Server-side per-layer numbers: METRICS and `/proc` deltas between
/// two snapshots of the measured phases.
fn server_layers(m: &mut Metrics, a: &Snapshot, b: &Snapshot, ops: u64) {
    let (ra, rb) = (
        a.report.as_ref().expect("traced snapshot"),
        b.report.as_ref().expect("traced snapshot"),
    );
    let dc = |name: &str| rb.counter(name).unwrap_or(0) - ra.counter(name).unwrap_or(0);
    let dh = |name: &str| {
        let (x, y) = (
            ra.histogram(name).copied().unwrap_or_default(),
            rb.histogram(name).copied().unwrap_or_default(),
        );
        (y.count - x.count, y.sum - x.sum, y.p99)
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let note = format!("measured phases, {ops} ops");
    m.put("server.frames", dc("server_frames_total") as f64, &note);
    let (ticks, tick_sum, tick_p99) = dh("reactor_tick_ns");
    m.put("server.reactor.ticks", ticks as f64, &note);
    m.put("server.reactor.tick_mean_ns", ratio(tick_sum, ticks), &note);
    m.put("server.reactor.tick_p99_ns", tick_p99 as f64, "whole run");
    let (frames, calls) = (
        dc("reactor_coalesced_frames_total"),
        dc("reactor_coalesce_calls_total"),
    );
    m.put(
        "server.reactor.frames_per_call",
        ratio(frames, calls),
        &format!("{frames} coalesced frames / {calls} calls"),
    );
    let (_, _, inflight_p99) = dh("server_inflight_frames");
    m.put("server.inflight_p99", inflight_p99 as f64, "whole run");
    let (replies, reply_sum, reply_p99) = dh("server_reply_latency_ns");
    m.put("server.reply_mean_ns", ratio(reply_sum, replies), &note);
    m.put("server.reply_p99_ns", reply_p99 as f64, "whole run");
    m.put(
        "server.rebuilds",
        dc(&format!("ns_rebuilds_total{{ns={NS:?}}}")) as f64,
        &note,
    );
    let outcome = |o: &str| {
        dc(&format!(
            "ns_query_outcome_total{{ns={NS:?},outcome=\"{o}\"}}"
        ))
    };
    let (f, s, g) = (outcome("filter"), outcome("signature"), outcome("merge"));
    let base = f + s + g;
    let onote = format!("of {base} queries");
    m.put("ns.outcome.filter_frac", ratio(f, base), &onote);
    m.put("ns.outcome.signature_frac", ratio(s, base), &onote);
    m.put("ns.outcome.merge_frac", ratio(g, base), &onote);

    m.put(
        "os.server_cpu_ms",
        (b.cpu_us - a.cpu_us) as f64 / 1e3,
        &note,
    );
    m.put(
        "os.server_ctxsw_voluntary",
        b.ctxsw.0.saturating_sub(a.ctxsw.0) as f64,
        "live threads",
    );
    m.put(
        "os.server_ctxsw_involuntary",
        b.ctxsw.1.saturating_sub(a.ctxsw.1) as f64,
        "live threads",
    );
}

fn generator_layers(m: &mut Metrics, lateness: Vec<u32>, outstanding_max: usize, overhead: f64) {
    let n = lateness.len();
    m.put(
        "bench.gen.lateness_p99_us",
        overall(&[lateness], 0.99),
        &format!("n={n}"),
    );
    m.put(
        "bench.gen.outstanding_max",
        outstanding_max as f64,
        "open-loop phases",
    );
    m.put("bench.trace.overhead", overhead, "untraced / traced qps");
}

/// How the in-process replay answers one traced request.
enum Replay<'a> {
    Frozen(&'a Oracle),
    Dynamic(&'a DynamicOracle),
}

/// Replays every traced request's frame through the in-process chain
/// `protocol.decode → registry.reach → oracle.reaches → protocol.encode`
/// and reports per-layer times and the wire residual (client latency
/// minus the in-process sum).
fn replay_layers(
    ctx: &mut Ctx,
    registry: &Registry,
    replay: Replay,
    payload: &dyn Fn(u64) -> Vec<u8>,
    pairs_per_req: u64,
) -> Result<(), String> {
    let handle = registry.get(NS).expect("namespace registered for replay");
    let roots: Vec<(u32, u64, u64)> = ctx
        .spans
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "client.request" && s.end > s.start)
        .map(|(i, s)| (i as u32, s.req, s.tag))
        .collect();
    let clock = ctx.clock;
    let mut residual = Vec::new();
    let (mut dec, mut reg, mut enc) = (0u64, 0u64, 0u64);
    for &(client_root, req, tag) in &roots {
        let bytes = payload(tag);
        let t0 = clock.now();
        let root = ctx.spans.open("replay", t0, req);
        let request = Request::decode(&bytes).map_err(|e| format!("replay decode: {e}"))?;
        let t1 = clock.now();
        let answer = match &request {
            Request::Reach { u, v, .. } => {
                Response::Bool(handle.reach(*u, *v).map_err(|e| e.to_string())?)
            }
            Request::Batch { pairs, .. } => {
                Response::Bools(handle.reach_batch(pairs, 1).map_err(|e| e.to_string())?)
            }
            other => return Err(format!("replay of unexpected request {other:?}")),
        };
        let t2 = clock.now();
        std::hint::black_box(answer.encode().map_err(|e| format!("replay encode: {e}"))?);
        let t3 = clock.now();
        // The registry call cannot be opened from outside, so its oracle
        // child is replayed once the chain is done; the registry's self
        // time is its span minus this one.
        match (&request, &replay) {
            (Request::Reach { u, v, .. }, Replay::Frozen(o)) => {
                std::hint::black_box(o.reaches(*u, *v));
            }
            (Request::Reach { u, v, .. }, Replay::Dynamic(d)) => {
                std::hint::black_box(d.query(*u, *v));
            }
            (Request::Batch { pairs, .. }, Replay::Frozen(o)) => {
                std::hint::black_box(o.reaches_batch(pairs, 1));
            }
            (Request::Batch { pairs, .. }, Replay::Dynamic(d)) => {
                std::hint::black_box(pairs.iter().filter(|&&(u, v)| d.query(u, v)).count());
            }
            _ => {}
        }
        let t4 = clock.now();
        ctx.spans.child(root, "protocol.decode", t0, t1);
        let registry_span = ctx.spans.child(root, "registry.reach", t1, t2);
        ctx.spans.child(registry_span, "oracle.reaches", t3, t4);
        ctx.spans.child(root, "protocol.encode", t2, t3);
        ctx.spans.close(root, t3);

        dec += t1 - t0;
        reg += (t2 - t1).saturating_sub(t4 - t3);
        enc += t3 - t2;
        let client = &ctx.spans.spans[client_root as usize];
        residual.push((client.end - client.start) as f64 - (t3 - t0) as f64);
    }
    let n = roots.len().max(1) as f64;
    let per = n * pairs_per_req as f64;
    let note = format!("{} traced requests", roots.len());
    let m = &mut ctx.out.metrics;
    m.put("server.protocol.decode_ns", dec as f64 / per, &note);
    m.put("server.protocol.encode_ns", enc as f64 / per, &note);
    m.put("server.registry.reach_ns", reg as f64 / per, &note);
    let residual = if residual.is_empty() {
        f64::NAN
    } else {
        median(&residual)
    };
    m.put("bench.wire.residual_ns", residual, &note);
    Ok(())
}

/// The per-request pool answers, checked against BFS on a sample.
fn reference_answers(
    out: &mut Outcome,
    what: &str,
    g: &DiGraph,
    oracle: &Oracle,
    pairs: &[(u32, u32)],
) -> Vec<bool> {
    let answers = oracle.reaches_batch(pairs, 1);
    check_against_bfs(out, what, g, pairs, &answers);
    answers
}

/// Topologically oriented insert/remove ops for the in-process WAL and
/// dynamic-oracle layers of the read-only workloads.
fn writer_ops(dag: &Dag, seed: u64, count: usize) -> Vec<EdgeOp> {
    let mut w = Writer::new(dag, seed);
    (0..count).map(|_| w.next_op()).collect()
}

fn point_reads(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.opts.seed;
    let dag = gen::random_dag(48_000, 192_000, seed);
    let edge_list = ctx.path("graph.el");
    write_edge_list(dag.graph(), &edge_list)?;
    let oracle = Arc::new(Oracle::new(dag.graph()));
    let arena = ctx.path("graph.hopl");
    let mut bytes = Vec::new();
    oracle
        .save_arena(&mut bytes)
        .map_err(|e| format!("save arena: {e}"))?;
    std::fs::write(&arena, &bytes).map_err(|e| format!("write arena: {e}"))?;

    let mut rng = Rng::new(seed ^ 0x5245_4144);
    let pairs = uniform_pairs(dag.num_vertices(), 1 << 20, &mut rng);
    let answers = reference_answers(&mut ctx.out, "reference", dag.graph(), &oracle, &pairs);
    let pool = ReachPool::new(pairs, answers.into_iter().map(Expect::of).collect());

    let mut args = listen_args();
    args.extend([
        "--index".to_string(),
        format!("{NS}={}", arena.display()),
        "--mmap".to_string(),
    ]);
    let server = ctx.setup(21, |_| args.clone())?;
    let mut a = ReachSource {
        pool: &pool,
        cursor: 0,
    };
    let mut b = ReachSource {
        pool: &pool,
        cursor: pool.pairs.len() / 2,
    };
    serve_frozen(
        ctx,
        &server,
        [&mut a, &mut b],
        &ReadPlan {
            depth: 64,
            lo: 100_000.0,
            hi: 400_000.0,
            pairs_per_req: 1,
            trace_every: TRACE_EVERY_REACH,
        },
        &oracle,
        &|tag| pool.payload(tag as usize).to_vec(),
        LayerSetup {
            dag: &dag,
            edge_list: &edge_list,
            pairs: &pool.pairs[..1 << 16],
        },
    )
}

fn batch_scan(ctx: &mut Ctx) -> Result<(), String> {
    const PAIRS_PER_FRAME: usize = 4096;
    const FRAMES: usize = 256;
    let seed = ctx.opts.seed;
    let dag = gen::deep_chain_dag(100_000, 64, 10_000, seed);
    let edge_list = ctx.path("graph.el");
    write_edge_list(dag.graph(), &edge_list)?;
    let oracle = Arc::new(Oracle::new(dag.graph()));

    let mut rng = Rng::new(seed ^ 0x4241_5443);
    let flat = uniform_pairs(dag.num_vertices(), PAIRS_PER_FRAME * FRAMES, &mut rng);
    let answers = reference_answers(&mut ctx.out, "reference", dag.graph(), &oracle, &flat);
    let pool = BatchPool::new(
        flat.chunks(PAIRS_PER_FRAME).map(<[_]>::to_vec).collect(),
        answers.chunks(PAIRS_PER_FRAME).map(<[_]>::to_vec).collect(),
    );

    let mut args = listen_args();
    args.extend([
        "--frozen".to_string(),
        format!("{NS}={}", edge_list.display()),
    ]);
    let server = ctx.setup(5, |_| args.clone())?;
    let mut a = BatchSource {
        pool: &pool,
        cursor: 0,
    };
    let mut b = BatchSource {
        pool: &pool,
        cursor: FRAMES / 2,
    };
    serve_frozen(
        ctx,
        &server,
        [&mut a, &mut b],
        &ReadPlan {
            depth: 1,
            lo: 200.0,
            hi: 400.0,
            pairs_per_req: PAIRS_PER_FRAME as u64,
            trace_every: TRACE_EVERY_BATCH,
        },
        &oracle,
        &|tag| pool.frames[tag as usize][4..].to_vec(),
        LayerSetup {
            dag: &dag,
            edge_list: &edge_list,
            pairs: &flat[..1 << 16],
        },
    )
}

/// Inputs for the in-process layers of a frozen workload.
struct LayerSetup<'a> {
    dag: &'a Dag,
    edge_list: &'a Path,
    pairs: &'a [(u32, u32)],
}

/// Drives a frozen namespace from two reader connections, reports the
/// end-to-end metrics, and in a traced run every per-layer metric.
#[allow(clippy::too_many_arguments)]
fn serve_frozen(
    ctx: &mut Ctx,
    server: &Server,
    [a, b]: [&mut dyn Source; 2],
    plan: &ReadPlan,
    oracle: &Arc<Oracle>,
    payload: &dyn Fn(u64) -> Vec<u8>,
    layer: LayerSetup,
) -> Result<(), String> {
    let (mut c0, mut c1, mut control) = (connect(server)?, connect(server)?, connect(server)?);
    let mut readers = [
        Load {
            conn: &mut c0,
            source: a,
        },
        Load {
            conn: &mut c1,
            source: b,
        },
    ];
    let mut m = Measure::start(ctx, server, &mut control, &mut readers, None, plan)?;
    for _ in 0..ROUNDS {
        m.open(ctx, server, &mut readers, None, plan)?;
        m.saturate(ctx, server, &mut readers, plan)?;
    }
    let run = m.finish(ctx, server, &mut control)?;
    let st = stats(&mut control)?;
    put_footprint(ctx, server, &st)?;
    if !ctx.opts.trace {
        return Ok(());
    }

    server_layers(&mut ctx.out.metrics, &run.before, &run.after, run.ops);
    let overhead = traced_saturation(ctx, &mut readers, plan, run.read_qps)?;
    generator_layers(
        &mut ctx.out.metrics,
        run.lateness,
        run.outstanding_max,
        overhead,
    );
    let registry = Registry::new();
    registry
        .insert_frozen(NS, Arc::clone(oracle))
        .map_err(|e| e.to_string())?;
    replay_layers(
        ctx,
        &registry,
        Replay::Frozen(oracle),
        payload,
        plan.pairs_per_req,
    )?;
    let ops = writer_ops(layer.dag, ctx.opts.seed, 4096);
    let work = ctx.path("layers");
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    layers::measure(
        &layers::Inputs {
            dag: layer.dag,
            edge_list: layer.edge_list,
            oracle,
            pairs: layer.pairs,
            ops: &ops,
            killed_wal_dir: None,
            work: &work,
        },
        &mut ctx.out.metrics,
    )
}

/// `durable_mixed`'s inputs: the base DAG, its edge list on disk, the
/// in-process oracle of the base, and the read pool with what each pair
/// may answer while writes race reads.
fn durable_inputs(ctx: &mut Ctx) -> Result<(Dag, PathBuf, Arc<Oracle>, ReachPool), String> {
    let seed = ctx.opts.seed;
    let dag = gen::random_dag(48_000, 192_000, seed);
    let edge_list = ctx.path("graph.el");
    write_edge_list(dag.graph(), &edge_list)?;

    // Base edges are never removed and every insert follows the base
    // topological order, so a base-reachable pair stays reachable and a
    // pair against that order stays unreachable, whatever the writer
    // has done; the rest may go either way while writes race reads.
    let base = Arc::new(Oracle::new(dag.graph()));
    let mut rng = Rng::new(seed ^ 0x4455_5241);
    let pairs = uniform_pairs(dag.num_vertices(), 1 << 16, &mut rng);
    let answers = reference_answers(&mut ctx.out, "base reference", dag.graph(), &base, &pairs);
    let expect: Vec<Expect> = pairs
        .iter()
        .zip(&answers)
        .map(|(&(u, v), &a)| {
            if a {
                Expect::Yes
            } else if dag.topo_pos(u) > dag.topo_pos(v) {
                Expect::No
            } else {
                Expect::Either
            }
        })
        .collect();
    let either = expect.iter().filter(|&&e| e == Expect::Either).count();
    ctx.out.notes.push(format!(
        "{either} of {} read pairs may change under writes",
        expect.len()
    ));
    Ok((dag, edge_list, base, ReachPool::new(pairs, expect)))
}

/// `hoplited serve` arguments for a durable dynamic namespace.
fn durable_args(edge_list: &Path, wal_dir: &Path) -> Vec<String> {
    let mut a = listen_args();
    a.extend([
        "--dynamic".to_string(),
        format!("{NS}={}", edge_list.display()),
        "--wal-dir".to_string(),
        wal_dir.display().to_string(),
    ]);
    a
}

const DURABLE_PLAN: ReadPlan = ReadPlan {
    depth: 64,
    lo: 5_000.0,
    hi: 10_000.0,
    pairs_per_req: 1,
    trace_every: TRACE_EVERY_REACH,
};

fn durable_mixed(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.opts.seed;
    let (dag, edge_list, base, pool) = durable_inputs(ctx)?;
    let wal_root = ctx.path("wal");
    let args = |i: usize| durable_args(&edge_list, &wal_root.join(format!("spawn{i}")));
    const SPAWNS: usize = 7;
    let mut server = ctx.setup(SPAWNS, args)?;
    let (mut wconn, mut rconn, mut control) =
        (connect(&server)?, connect(&server)?, connect(&server)?);
    let mut writer = Writer::new(&dag, seed);
    let mut reader = ReachSource {
        pool: &pool,
        cursor: 0,
    };
    let plan = DURABLE_PLAN;
    let rebuilds_before = stats(&mut control)?.rebuilds;
    let mut readers = [Load {
        conn: &mut rconn,
        source: &mut reader,
    }];
    let writes = Pace::Open(WRITES_PER_SEC);
    let mut m = Measure::start(
        ctx,
        &server,
        &mut control,
        &mut readers,
        Some(&mut (
            Load {
                conn: &mut wconn,
                source: &mut writer,
            },
            writes,
        )),
        &plan,
    )?;
    let mut st = None;
    for _ in 0..ROUNDS {
        let mut background = (
            Load {
                conn: &mut wconn,
                source: &mut writer,
            },
            writes,
        );
        m.open(ctx, &server, &mut readers, Some(&mut background), &plan)?;
        st = Some(settle(&server, &mut control, &mut wconn, &mut writer)?);
        m.saturate(ctx, &server, &mut readers, &plan)?;
    }
    let st = st.expect("at least one round");
    let rebuilds = st.rebuilds - rebuilds_before;
    ctx.out.notes.push(format!(
        "{rebuilds} background rebuilds; {} live inserted edges; {} writes acknowledged",
        writer.live.len(),
        writer.acks
    ));
    if rebuilds < MIN_REBUILDS {
        ctx.out.problems.push(format!(
            "only {rebuilds} background rebuilds (need {MIN_REBUILDS})"
        ));
    }
    let run = m.finish(ctx, &server, &mut control)?;
    let overhead = if ctx.opts.trace {
        traced_saturation(ctx, &mut readers, &plan, run.read_qps)?
    } else {
        f64::NAN
    };
    put_footprint(ctx, &server, &st)?;

    // Every acknowledged op must be visible, before the kill and after
    // recovery.
    let acked = writer.graph();
    let mut rng = Rng::new(seed ^ 0x4246_5321);
    let check_pairs = uniform_pairs(dag.num_vertices(), BFS_PAIRS, &mut rng);
    wire_bfs_check(ctx, &mut control, "before kill", &acked, &check_pairs)?;
    let killed_dir = wal_root.join(format!("spawn{}", SPAWNS - 1)).join(NS);
    server.kill();
    drop((wconn, rconn, control));

    if ctx.opts.trace {
        server_layers(&mut ctx.out.metrics, &run.before, &run.after, run.ops);
        generator_layers(
            &mut ctx.out.metrics,
            run.lateness,
            run.outstanding_max,
            overhead,
        );
        let registry = Registry::new();
        registry
            .insert_dynamic(NS, DynamicOracle::new(dag.clone()))
            .map_err(|e| e.to_string())?;
        let child = DynamicOracle::new(dag.clone());
        replay_layers(
            ctx,
            &registry,
            Replay::Dynamic(&child),
            &|tag| pool.payload(tag as usize).to_vec(),
            1,
        )?;
        let work = ctx.path("layers");
        std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
        layers::measure(
            &layers::Inputs {
                dag: &dag,
                edge_list: &edge_list,
                oracle: &base,
                pairs: &pool.pairs,
                ops: &writer.acked,
                killed_wal_dir: Some(&killed_dir),
                work: &work,
            },
            &mut ctx.out.metrics,
        )?;
    }

    let (recovered, secs) = ctx.spawn_ready(&args(SPAWNS - 1))?;
    ctx.out
        .notes
        .push(format!("restart after SIGKILL answered in {secs:.3} s"));
    let mut control = connect(&recovered)?;
    wire_bfs_check(ctx, &mut control, "after recovery", &acked, &check_pairs)
}

/// Stops the writer's load and brings the namespace to a fixed state
/// for the saturation phase: no rebuild in flight, an empty overlay and
/// no pending deletions. Inserts top the overlay up to the rebuild
/// threshold until a rebuild folds everything in.
fn settle(
    server: &Server,
    control: &mut Conn,
    wconn: &mut Conn,
    writer: &mut Writer,
) -> Result<NamespaceStats, String> {
    let started = Instant::now();
    loop {
        let st = stats(control)?;
        if !st.rebuild_in_flight {
            if st.pending_inserts == 0 && st.pending_deletions == 0 {
                return Ok(st);
            }
            let threshold = DynamicOracle::DEFAULT_REBUILD_THRESHOLD as u64;
            for _ in st.pending_inserts..threshold {
                let (u, v) = writer.insert();
                match wconn.call(&Request::AddEdge {
                    ns: NS.into(),
                    u,
                    v,
                })? {
                    Response::Bool(true) => writer.acks += 1,
                    other => return Err(format!("settling insert ({u},{v}): {other:?}")),
                }
            }
        }
        if started.elapsed() > Duration::from_secs(60) {
            return Err(server.failure("namespace did not settle within 60 s"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Paced write rates the write-ceiling probe steps through, writes/s.
const CEILING_RATES: &[f64] = &[
    20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 120.0, 140.0, 160.0, 200.0,
];
/// Each rung of the probe runs in slices of this length; the overlay is
/// sampled between slices.
const CEILING_SLICE: Duration = Duration::from_millis(500);

/// One rung of the write-ceiling probe: `durable_mixed`'s reads at its
/// `lo` rate beside durable writes at `rate`.
pub struct CeilingRung {
    /// Paced write rate, writes/s.
    pub rate: f64,
    /// Writes acknowledged per second of the rung.
    pub acked_per_sec: f64,
    /// Background rebuilds that finished during the rung.
    pub rebuilds: u64,
    /// Share of the rung's wall time a background rebuild was running.
    pub rebuild_busy: f64,
    /// Largest overlay (pending inserts + deletions) sampled.
    pub overlay_peak: u64,
    pub write_p50_us: f64,
    pub write_p99_us: f64,
    pub read_p90_us: f64,
}

impl CeilingRung {
    /// Rebuilds keep up when the rebuild worker is idle at least a
    /// tenth of the time and the overlay never reaches twice the rebuild
    /// threshold, that is, a rebuild's worth of writes never piles up
    /// while the previous rebuild runs.
    pub fn keeps_up(&self) -> bool {
        let threshold = DynamicOracle::DEFAULT_REBUILD_THRESHOLD as u64;
        self.rebuild_busy < 0.9 && self.overlay_peak < 2 * threshold
    }
}

/// Steps `durable_mixed`'s writer through [`CEILING_RATES`], each rung
/// for `opts.seconds`, and stops after the first rung at which
/// background rebuilds no longer keep up. The highest rung that keeps up
/// is the write ceiling [`WRITES_PER_SEC`] is derived from.
pub fn write_ceiling(
    opts: Opts,
    bin: PathBuf,
    cpus: CpuSplit,
    work: PathBuf,
) -> Result<Vec<CeilingRung>, String> {
    let mut ctx = Ctx::new(opts, bin, cpus, work)?;
    let ctx = &mut ctx;
    let (dag, edge_list, _, pool) = durable_inputs(ctx)?;
    let (server, _) = ctx.spawn_ready(&durable_args(&edge_list, &ctx.path("wal")))?;
    let (mut wconn, mut rconn, mut control) =
        (connect(&server)?, connect(&server)?, connect(&server)?);
    let mut writer = Writer::new(&dag, ctx.opts.seed);
    let mut reader = ReachSource {
        pool: &pool,
        cursor: 0,
    };
    let slices = ((ctx.opts.seconds / CEILING_SLICE.as_secs_f64()).ceil() as usize).max(2);
    let rebuild_hist = format!("ns_rebuild_duration_ns{{ns={NS:?}}}");
    let rebuild_time = |control: &mut Conn| -> Result<(u64, u64), String> {
        let h = metrics_report(control)?
            .histogram(&rebuild_hist)
            .copied()
            .unwrap_or_default();
        Ok((h.count, h.sum))
    };
    let mut rungs = Vec::new();
    for &rate in CEILING_RATES {
        settle(&server, &mut control, &mut wconn, &mut writer)?;
        let (count0, sum0) = rebuild_time(&mut control)?;
        let (acks0, t0) = (writer.acks, Instant::now());
        let (mut overlay, mut reads, mut writes) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..slices {
            let mut readers = [Load {
                conn: &mut rconn,
                source: &mut reader,
            }];
            let mut background = (
                Load {
                    conn: &mut wconn,
                    source: &mut writer,
                },
                Pace::Open(rate),
            );
            let recs = phase(
                ctx,
                &mut readers,
                Pace::Open(DURABLE_PLAN.lo),
                Some(&mut background),
                CEILING_SLICE,
                1,
                None,
            )?;
            ctx.tally_phase("write ceiling", &recs);
            reads.extend(recs.readers[0].latencies.iter().cloned());
            writes.extend(recs.background.iter().flat_map(|r| r.latencies.clone()));
            let st = stats(&mut control)?;
            overlay.push(st.pending_inserts + st.pending_deletions);
        }
        let secs = t0.elapsed().as_secs_f64();
        let (count1, sum1) = rebuild_time(&mut control)?;
        let rung = CeilingRung {
            rate,
            acked_per_sec: (writer.acks - acks0) as f64 / secs,
            rebuilds: count1 - count0,
            rebuild_busy: (sum1 - sum0) as f64 / 1e9 / secs,
            overlay_peak: overlay.iter().copied().max().unwrap_or(0),
            write_p50_us: overall(&writes, 0.5),
            write_p99_us: overall(&writes, 0.99),
            read_p90_us: overall(&reads, 0.9),
        };
        let done = !rung.keeps_up();
        rungs.push(rung);
        if done {
            break;
        }
    }
    if !ctx.out.correct() || ctx.out.failed > 0 {
        return Err(format!(
            "write-ceiling probe saw failures: {}",
            ctx.out.problems.join("; ")
        ));
    }
    Ok(rungs)
}

/// Asks the server for `pairs` in one BATCH and compares every answer
/// with BFS over `g`.
fn wire_bfs_check(
    ctx: &mut Ctx,
    conn: &mut Conn,
    what: &str,
    g: &DiGraph,
    pairs: &[(u32, u32)],
) -> Result<(), String> {
    ctx.out.attempted += 1;
    let answers = match conn.call(&Request::Batch {
        ns: NS.into(),
        pairs: pairs.to_vec(),
    })? {
        Response::Bools(a) if a.len() == pairs.len() => a,
        other => {
            ctx.out.failed += 1;
            ctx.out
                .problems
                .push(format!("{what}: BFS check batch got {other:?}"));
            return Ok(());
        }
    };
    check_against_bfs(&mut ctx.out, what, g, pairs, &answers);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_answer_is_caught() {
        let pool = ReachPool::new(vec![(0, 1), (1, 0)], vec![Expect::Yes, Expect::No]);
        let mut src = ReachSource {
            pool: &pool,
            cursor: 0,
        };
        let mut frame = Vec::new();
        assert_eq!(src.next(&mut frame), 0);
        assert!(src.check(0, Response::Bool(true)).is_ok());
        assert!(matches!(
            src.check(1, Response::Bool(true)),
            Err(Failure::Wrong(_))
        ));
        assert!(matches!(
            src.check(0, Response::Error("x".into())),
            Err(Failure::Refused(_))
        ));

        let mut out = Outcome::default();
        let rec = Record {
            sent: 2,
            wrong: 1,
            first_problem: Some("flipped".into()),
            ..Record::default()
        };
        out.tally("probe", &rec);
        assert!(!out.correct());
    }

    #[test]
    fn bfs_check_flags_a_flipped_reference() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let pairs = [(0, 2), (2, 0)];
        let mut out = Outcome::default();
        check_against_bfs(&mut out, "ok", &g, &pairs, &[true, false]);
        assert!(out.correct());
        check_against_bfs(&mut out, "flipped", &g, &pairs, &[true, true]);
        assert_eq!(out.wrong, 1);
        assert!(!out.correct());
    }

    #[test]
    fn batch_frames_check_every_pair() {
        let pool = BatchPool::new(vec![vec![(0, 1), (1, 0)]], vec![vec![true, false]]);
        let mut src = BatchSource {
            pool: &pool,
            cursor: 0,
        };
        assert_eq!(
            src.check(0, Response::Bools(vec![true, false])).ok(),
            Some(2)
        );
        assert!(matches!(
            src.check(0, Response::Bools(vec![true, true])),
            Err(Failure::Wrong(_))
        ));
    }

    #[test]
    fn writer_ops_stay_acyclic_and_remove_only_its_own_edges() {
        let dag = gen::random_dag(200, 600, 3);
        let mut w = Writer::new(&dag, 3);
        let mut inserted = HashSet::new();
        let mut removes = 0;
        for _ in 0..2000 {
            match w.next_op() {
                EdgeOp::Insert(u, v) => {
                    assert!(dag.topo_pos(u) < dag.topo_pos(v));
                    assert!(!dag.graph().has_edge(u, v));
                    assert!(inserted.insert((u, v)));
                }
                EdgeOp::Remove(u, v) => {
                    assert!(inserted.remove(&(u, v)));
                    removes += 1;
                }
            }
        }
        assert!(removes > 100);
        assert!(Dag::new(w.graph()).is_ok());
    }
}
