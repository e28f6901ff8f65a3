//! `paper perf` — the machine-readable hot-path benchmark.
//!
//! Every stage returns one [`Stage`]: a name and its named metrics. The
//! report is those stages plus the gate table, written by
//! [`PerfReport::to_json`] as schema 11:
//!
//! ```text
//! { "bench": "perf", "schema": 11, "quick", "seed", "host_cores",
//!   "stages": { stage: { metric: value } },
//!   "gates": [ { stage, metric, op, bound, value, pass } ] }
//! ```
//!
//! Adding a stage or a metric touches only the stage function; neither
//! the writer nor the schema number changes. The stages:
//!
//! * `random_dag`, `deep_chain`, `kronecker` — one per graph family:
//!   the [`Oracle`] build, filtered vs unfiltered batch
//!   throughput through [`par_query_batch_into`] with and without the
//!   oracle's filter stack, the per-layer
//!   [`FilterVerdict`] counts, the [`QueryTally`] stage mix (pre-filter
//!   / reach masks / merge) and the index footprint. `deep_chain` is
//!   adversarial for the level cut; `kronecker` has scale-free degrees,
//!   where a few top hops cover most pairs.
//! * `build` — the Distribution-Labeling build on the headline graph.
//! * `threads_N` — one per query width: the filtered batch throughput
//!   at N threads, the thread-scaling curve; `scaling` holds the best
//!   parallel width against one thread.
//! * `cold_start` — the saved HOPL v5 arena opened read into the heap
//!   vs mapped: open times, and the share of the file each open copies
//!   onto the heap.
//! * `metrics_overhead` — what the served batch path's instrumentation
//!   costs per kernel call, as a share of the call.
//! * `dynamic` — a durable [`hoplite_server::Registry`] namespace under
//!   a writer, concurrent readers and background rebuilds.
//! * `wire_N` — QPS and reply latency at N concurrent connections
//!   through a [`hoplite_server::Server`] in a child process, driven by
//!   [`hoplite_server::loadgen`]'s `REACH` frames over loopback TCP;
//!   `overload` — the same child with admission budgets, driven flat
//!   out. Both run only when the caller supplies a server executable,
//!   so never under `cargo test`.
//!
//! Every timed path is cross-checked for answer equivalence, so a
//! fast-but-wrong regression fails the run instead of producing a
//! flattering number. `--check` evaluates [`gate_table`] and reports
//! every row whose metric misses its bound.
//!
//! The report carries no baseline of its own: whether a change made the
//! served index slower is judged end to end by `hopbench compare`,
//! which runs parent and change alternately and reports medians with
//! their noise.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hoplite_core::{
    par_query_batch_into, DistributionLabeling, DlConfig, FilterVerdict, Histogram, OpenOptions,
    Oracle, QueryTally,
};
use hoplite_graph::{gen, Dag};
use hoplite_server::{loadgen, LoadSpec, ServeError};

/// Query widths of the scaling curve, one thread first.
const WIDTHS: [usize; 5] = [1, 2, 3, 4, 8];

/// The graph families, headline first.
const FAMILIES: [&str; 3] = ["random_dag", "deep_chain", "kronecker"];

/// Best-of rounds for every timing except the two below.
const ROUNDS: usize = 2;

/// Interleaved rounds of the filtered vs unfiltered comparison
/// `--check` gates. A quick-mode call lasts a few milliseconds, and on
/// a shared host one preempted thread can double a single window, so
/// each side keeps its best of this many rounds.
const PAIRED_ROUNDS: usize = 7;

/// Best-of rounds per cold-start open: opens are fast, and extra
/// rounds steady the reported open times.
const OPEN_ROUNDS: usize = 3;

/// Pairs per kernel call in the metrics-overhead stage: one `BATCH`
/// frame of the size the served path records one histogram sample for.
const KERNEL_CALL_PAIRS: usize = 4_096;

/// Iterations of the timed instrumentation loop.
const INSTRUMENT_ITERS: u32 = 1 << 20;

/// Offered in-flight load per admission budget in the overload drill.
/// At 3x, a correct limiter sheds roughly two thirds of the offered
/// queries and keeps goodput near the unthrottled ceiling.
const OVERLOAD_FACTOR: usize = 3;

/// Options for [`run_perf`], parsed by the `paper` binary.
#[derive(Clone, Debug)]
pub struct PerfOptions {
    /// Small graphs + workloads for CI (seconds, not minutes).
    pub quick: bool,
    /// Generator and workload seed.
    pub seed: u64,
    /// Executable serving the hidden `__wire-server` subcommand (the
    /// `paper` binary passes its own path). `None` skips the wire
    /// stages — the only option under `cargo test`, where the test
    /// binary cannot serve the subcommand.
    pub wire_server: Option<PathBuf>,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            quick: false,
            seed: 7,
            wire_server: None,
        }
    }
}

/// One stage's measurements, in report order.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Stage name, unique within a report.
    pub name: String,
    /// `(metric, value)` pairs; names are unique within the stage.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Stage {
    fn new(name: impl Into<String>, metrics: Vec<(&'static str, f64)>) -> Self {
        Stage {
            name: name.into(),
            metrics,
        }
    }

    /// The named metric, or NaN when the stage has none.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|&&(metric, _)| metric == name)
            .map_or(f64::NAN, |&(_, value)| value)
    }
}

/// The comparison a gate's metric must pass against its bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// `value >= bound`.
    AtLeast(f64),
    /// `value > bound`.
    Above(f64),
    /// `value <= bound`.
    AtMost(f64),
    /// `value < bound`.
    Below(f64),
}

impl Bound {
    /// Whether `value` passes. NaN (a metric the report lacks) never
    /// does.
    pub fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(b) => value >= b,
            Bound::Above(b) => value > b,
            Bound::AtMost(b) => value <= b,
            Bound::Below(b) => value < b,
        }
    }

    /// The operator and the bound, as the report writes them.
    pub fn parts(self) -> (&'static str, f64) {
        match self {
            Bound::AtLeast(b) => (">=", b),
            Bound::Above(b) => (">", b),
            Bound::AtMost(b) => ("<=", b),
            Bound::Below(b) => ("<", b),
        }
    }
}

/// One row of the gate table: `stage.metric` must pass `bound`.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Stage the metric lives in.
    pub stage: String,
    /// Metric the gate reads.
    pub metric: &'static str,
    /// What the metric must satisfy.
    pub bound: Bound,
}

/// The `--check` gate table. A row is conditional only on whether the
/// run could measure what it reads: the scaling gate binds on hosts
/// with ≥ 2 cores (the CI `perf-multicore` job), and the wire gates
/// when the wire stages ran.
pub fn gate_table(quick: bool, host_cores: usize, wire: bool) -> Vec<Gate> {
    use Bound::*;
    let mut rows = vec![
        // The pre-filter stack must decide some queries.
        ("random_dag".to_string(), "filter_hit_rate", Above(0.0)),
        // "The filter stack is not a pessimization", with 5% for the
        // jitter a shared host still puts on single windows.
        ("random_dag".into(), "filtered_vs_unfiltered", AtLeast(0.95)),
        // The same on scale-free degrees. `deep_chain` has no such row:
        // there the masks already decide most pairs the level cut
        // takes, and its quick ratio reads 0.75–0.82.
        ("kronecker".into(), "filtered_vs_unfiltered", AtLeast(0.95)),
        // What mapping saves: a mapped open puts none of the arena on
        // the heap (measured 0), the read fallback all of it (~1.0). A
        // byte count, not a timing, so it binds in quick runs too.
        ("cold_start".into(), "mapped_heap_frac", AtMost(0.05)),
        // Instrumentation on the served batch path costs at most 3% of
        // the kernel call it wraps.
        ("metrics_overhead".into(), "cost_ratio", AtMost(0.03)),
        // The dynamic stage saw a background reindex, and reads that
        // overlapped one answered through the delta overlay. 150 ms is
        // far above group-commit fsync contention and far below a
        // reader queued behind the reindex (~700 ms at bench scale).
        ("dynamic".into(), "rebuilds", AtLeast(1.0)),
        (
            "dynamic".into(),
            "read_p99_during_rebuild_ns",
            AtMost(150e6),
        ),
    ];
    // Every family's stage tally accounts for every query.
    for family in FAMILIES {
        rows.push((family.into(), "tally_unaccounted", AtMost(0.0)));
    }
    if host_cores >= 2 {
        // The best parallel query width at least matches one thread
        // (same 5% allowance as above).
        rows.push(("scaling".into(), "parallel_query_vs_one", AtLeast(0.95)));
    }
    if wire {
        // Far below observed numbers (a 1-core box sustains > 160k q/s
        // at 10k connections): the floor catches a serving tier that
        // falls off a cliff or starts refusing, not runner noise.
        let floor = if quick { 25_000.0 } else { 50_000.0 };
        for &connections in wire_sweep(quick).0 {
            rows.push((format!("wire_{connections}"), "errors", AtMost(0.0)));
            rows.push((format!("wire_{connections}"), "qps", AtLeast(floor)));
        }
        // The limiter engages, refuses with typed replies only, leaves
        // the server doing useful work, and keeps admitted traffic
        // fast: the child's 1 s request deadline bounds anything it
        // chose to answer, so 5 s trips only when admission control
        // stops protecting it.
        rows.push(("overload".into(), "errors", AtMost(0.0)));
        rows.push(("overload".into(), "shed", Above(0.0)));
        rows.push(("overload".into(), "shed_fraction", Below(0.95)));
        rows.push(("overload".into(), "queries", Above(0.0)));
        rows.push(("overload".into(), "accepted_p99_ns", AtMost(5e9)));
    }
    rows.into_iter()
        .map(|(stage, metric, bound)| Gate {
            stage,
            metric,
            bound,
        })
        .collect()
}

/// One measured suite; serializes with [`PerfReport::to_json`].
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Whether the quick workloads ran.
    pub quick: bool,
    /// Seed used.
    pub seed: u64,
    /// Host cores visible to the process.
    pub host_cores: usize,
    /// Every stage, in run order.
    pub stages: Vec<Stage>,
    /// The rows `--check` evaluates.
    pub gates: Vec<Gate>,
}

impl PerfReport {
    /// `stage.metric`, or NaN when the report has no such metric.
    pub fn metric(&self, stage: &str, metric: &str) -> f64 {
        self.stages
            .iter()
            .find(|s| s.name == stage)
            .map_or(f64::NAN, |s| s.metric(metric))
    }

    /// Evaluates every gate; `Err` names each one that failed.
    pub fn check(&self) -> Result<(), Vec<String>> {
        let failed: Vec<String> = self
            .gates
            .iter()
            .filter_map(|g| {
                let value = self.metric(&g.stage, g.metric);
                let (op, bound) = g.bound.parts();
                (!g.bound.holds(value)).then(|| {
                    let (value, bound) = (json_number(value), json_number(bound));
                    format!("{}.{} = {value} fails {op} {bound}", g.stage, g.metric)
                })
            })
            .collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(failed)
        }
    }

    /// The machine-readable report (schema 11).
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                let metrics: Vec<String> = s
                    .metrics
                    .iter()
                    .map(|&(name, value)| format!("\"{name}\": {}", json_number(value)))
                    .collect();
                format!("    \"{}\": {{ {} }}", s.name, metrics.join(", "))
            })
            .collect();
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                let value = self.metric(&g.stage, g.metric);
                let (op, bound) = g.bound.parts();
                format!(
                    "    {{ \"stage\": \"{}\", \"metric\": \"{}\", \"op\": \"{op}\", \
                     \"bound\": {}, \"value\": {}, \"pass\": {} }}",
                    g.stage,
                    g.metric,
                    json_number(bound),
                    json_number(value),
                    g.bound.holds(value)
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"perf\",\n  \"schema\": 11,\n  \"quick\": {},\n  \"seed\": {},\n  \
             \"host_cores\": {},\n  \"stages\": {{\n{}\n  }},\n  \"gates\": [\n{}\n  ]\n}}",
            self.quick,
            self.seed,
            self.host_cores,
            stages.join(",\n"),
            gates.join(",\n")
        )
    }
}

/// A metric as a JSON number with five significant digits (well past
/// the noise of any timing here); non-finite values (a zero-time
/// division, a missing metric) become `null`.
pub fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "null".to_string();
    }
    let decimals = (4.0 - value.abs().log10().floor()).clamp(0.0, 17.0) as usize;
    let text = format!("{value:.decimals$}");
    if text.contains('.') {
        text.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        text
    }
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Times `f` `rounds` times and keeps the fastest (noise floor on
/// shared CI runners).
fn best_ms<T>(rounds: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut value, mut best) = time_ms(&mut f);
    for _ in 1..rounds {
        let (v, ms) = time_ms(&mut f);
        if ms < best {
            best = ms;
            value = v;
        }
    }
    (value, best)
}

/// One family's stage: builds (timed), queries (filtered +
/// unfiltered, timed), classifies and stage-tallies the workload,
/// cross-checking the filtered, unfiltered and tallied answers. Returns
/// the built oracle and the exact pair workload too, so later stages
/// measure the same index on the same pairs.
fn run_family(
    kind: &'static str,
    dag: &Dag,
    queries: usize,
    threads: usize,
    seed: u64,
) -> (Stage, Oracle, Vec<(u32, u32)>) {
    eprintln!("# perf[{kind}]: building ...");
    let (oracle, build_ms) = best_ms(ROUNDS, || Oracle::new(dag.graph()));
    let n = dag.num_vertices();
    let mut rng = gen::Rng::new(seed ^ 0x9E37_79B9);
    let pairs: Vec<(u32, u32)> = (0..queries)
        .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
        .collect();
    // Unfiltered and filtered rounds alternate, best-of per side: both
    // paths see the same machine-load phases, which the
    // filtered-vs-unfiltered gate depends on.
    eprintln!(
        "# perf[{kind}]: timing unfiltered vs filtered batch \
         ({queries} queries, {threads} threads) ..."
    );
    let mut unfiltered_ms = f64::INFINITY;
    let mut filtered_ms = f64::INFINITY;
    let (labeling, comp_of) = (oracle.inner().labeling(), oracle.comp_of());
    let mut unfiltered = vec![false; queries];
    let mut filtered = vec![false; queries];
    for _ in 0..PAIRED_ROUNDS {
        let (_, ms) = time_ms(|| {
            par_query_batch_into(labeling, None, comp_of, &pairs, &mut unfiltered, threads)
        });
        unfiltered_ms = unfiltered_ms.min(ms);
        let (_, ms) = time_ms(|| oracle.reaches_batch_into(&pairs, &mut filtered, threads));
        filtered_ms = filtered_ms.min(ms);
        assert_eq!(
            filtered, unfiltered,
            "{kind}: filtered and unfiltered batch answers diverged"
        );
    }
    // Stage mix and verdicts, off the timed path; answers re-checked
    // once more, into a buffer holding the wrong answer in every slot.
    // Oracle filters are projected into original-vertex space, so
    // classification takes original ids directly.
    let mut tallied: Vec<bool> = filtered.iter().map(|b| !b).collect();
    let tally = oracle.reaches_batch_into(&pairs, &mut tallied, threads);
    assert_eq!(tallied, filtered, "{kind}: tallied answers diverged");
    let filters = oracle.filters();
    let mut verdicts = [0u64; FilterVerdict::ALL.len()];
    for &(u, v) in &pairs {
        let verdict = filters.classify(u, v);
        let slot = FilterVerdict::ALL.iter().position(|&x| x == verdict);
        verdicts[slot.expect("ALL lists every verdict")] += 1;
    }
    let q = queries as f64;
    let mut metrics = vec![
        ("vertices", n as f64),
        ("edges", dag.num_edges() as f64),
        ("components", oracle.num_components() as f64),
        ("label_entries", oracle.label_entries() as f64),
        ("filter_integers", filters.size_in_integers() as f64),
        ("mask_bytes", oracle.inner().labeling().mask_bytes() as f64),
        ("mask_hops", oracle.inner().labeling().mask_hops() as f64),
        ("build_ms", build_ms),
        ("queries", q),
        ("threads", threads as f64),
        ("reachable", filtered.iter().filter(|&&b| b).count() as f64),
        ("unfiltered_qps", q / (unfiltered_ms / 1e3)),
        ("filtered_qps", q / (filtered_ms / 1e3)),
        ("filtered_vs_unfiltered", unfiltered_ms / filtered_ms),
        ("filter_hit_rate", tally.filter_decided as f64 / q),
        ("filter_decided", tally.filter_decided as f64),
        ("mask_decided", tally.signature_cut as f64),
        ("merged", tally.merged as f64),
        ("tally_unaccounted", (q - tally.total() as f64).abs()),
    ];
    metrics.extend(
        FilterVerdict::ALL
            .iter()
            .zip(verdicts)
            .map(|(v, count)| (v.name(), count as f64)),
    );
    (Stage::new(kind, metrics), oracle, pairs)
}

/// The `build` stage: the Distribution-Labeling build alone, best of
/// [`ROUNDS`].
fn run_build(dag: &Dag) -> Stage {
    eprintln!("# perf[build]: timing the DL build ...");
    let (_, build_ms) = best_ms(ROUNDS, || {
        DistributionLabeling::build(dag, &DlConfig::default())
    });
    Stage::new("build", vec![("build_ms", build_ms)])
}

/// The thread-scaling curve on the headline index and pairs: one
/// `threads_N` stage per width of [`WIDTHS`] with the filtered batch
/// throughput at N threads, then `scaling` — the best parallel width
/// against one thread.
fn run_scaling(oracle: &Oracle, pairs: &[(u32, u32)], reachable: f64) -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut qps = Vec::new();
    for threads in WIDTHS {
        eprintln!("# perf[scaling]: filtered batch at {threads} thread(s) ...");
        let mut answers = vec![false; pairs.len()];
        let (_, ms) = best_ms(ROUNDS, || {
            oracle.reaches_batch_into(pairs, &mut answers, threads)
        });
        assert_eq!(
            answers.iter().filter(|&&b| b).count() as f64,
            reachable,
            "scaling run at {threads} threads changed the answers"
        );
        qps.push(pairs.len() as f64 / (ms / 1e3));
        stages.push(Stage::new(
            format!("threads_{threads}"),
            vec![("query_qps", qps[qps.len() - 1])],
        ));
    }
    // WIDTHS[0] is the one-thread point.
    let best_query = qps[1..].iter().copied().fold(0.0, f64::max);
    stages.push(Stage::new(
        "scaling",
        vec![("parallel_query_vs_one", best_query / qps[0])],
    ));
    stages
}

/// The `cold_start` stage: persist the built index as a HOPL v5 arena,
/// drop every in-memory structure, and time opening it read into the
/// heap (`mmap: false`) and mapped, verified and unverified. Beside the
/// times it reports what each open put on the heap as a share of the
/// file — what mapping saves, exact where the times are noisy. Answers
/// of every reopened oracle are cross-checked against the builder's
/// before any number is reported; the temp file is removed either way.
fn run_cold_start(oracle: &Oracle, pairs: &[(u32, u32)], seed: u64) -> Stage {
    // The stamp carries a process-wide counter besides pid + seed:
    // parallel tests in one process call this with the same seed and
    // must not race on the same temp files.
    static CALL: AtomicU64 = AtomicU64::new(0);
    let call = CALL.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "hoplite-perf-{}-{seed}-{call}.hopl",
        std::process::id()
    ));
    let mut bytes = Vec::new();
    oracle.save_arena(&mut bytes).expect("serialize arena");
    std::fs::write(&path, &bytes).expect("write arena");
    let file_bytes = bytes.len() as f64;
    drop(bytes);

    let open = |mmap: bool, verify: bool| {
        let opts = OpenOptions {
            mmap,
            verify,
            ..OpenOptions::default()
        };
        let path = &path;
        move || Oracle::open_with(path, &opts).expect("arena written above opens")
    };
    eprintln!("# perf[cold_start]: timing read-fallback vs mapped open ...");
    let (read, read_open_ms) = best_ms(OPEN_ROUNDS, open(false, true));
    let (mapped, mapped_open_ms) = best_ms(OPEN_ROUNDS, open(true, true));
    let (unverified, mapped_unverified_open_ms) = best_ms(OPEN_ROUNDS, open(true, false));
    std::fs::remove_file(&path).ok();
    let heap_frac = |o: &Oracle| o.memory().heap_bytes as f64 / file_bytes;
    let (read_heap_frac, mapped_heap_frac) = (heap_frac(&read), heap_frac(&mapped));

    let probe = &pairs[..pairs.len().min(20_000)];
    let answers = |o: &Oracle| {
        let mut out = vec![false; probe.len()];
        o.reaches_batch_into(probe, &mut out, 1);
        out
    };
    let want = answers(oracle);
    for (what, reopened) in [
        ("read", &read),
        ("mapped", &mapped),
        ("unverified", &unverified),
    ] {
        assert_eq!(
            answers(reopened),
            want,
            "{what}-open answers diverged from the built index"
        );
    }

    Stage::new(
        "cold_start",
        vec![
            ("file_bytes", file_bytes),
            ("read_open_ms", read_open_ms),
            ("mapped_open_ms", mapped_open_ms),
            ("mapped_unverified_open_ms", mapped_unverified_open_ms),
            ("mapped_vs_read_speedup", read_open_ms / mapped_open_ms),
            ("read_heap_frac", read_heap_frac),
            ("mapped_heap_frac", mapped_heap_frac),
        ],
    )
}

/// What `NamespaceHandle::reach_batch_into` adds around each frozen
/// namespace's kernel call: one `queries` add, the `Instant::now` /
/// `elapsed` pair, one [`Histogram::record`] and the three stage-tally
/// adds.
fn served_instrumentation() -> impl FnMut(&QueryTally) {
    let queries = AtomicU64::new(0);
    let batch_ns = Histogram::new();
    let stage_hits: [AtomicU64; 3] = Default::default();
    move |tally| {
        queries.fetch_add(KERNEL_CALL_PAIRS as u64, Ordering::Relaxed);
        let started = Instant::now();
        batch_ns.record(started.elapsed().as_nanos() as u64);
        stage_hits[0].fetch_add(tally.filter_decided, Ordering::Relaxed);
        stage_hits[1].fetch_add(tally.signature_cut, Ordering::Relaxed);
        stage_hits[2].fetch_add(tally.merged, Ordering::Relaxed);
    }
}

/// The `metrics_overhead` stage: the per-call cost of `instrument`
/// (normally [`served_instrumentation`]) as a share of one
/// [`KERNEL_CALL_PAIRS`]-pair [`Oracle::reaches_batch_into`] call on
/// the same index. `instrument` runs `iters` times in a tight loop on a
/// real call's tally and the stage's kernel time in ns, the best
/// round's mean over every full chunk of `pairs`. Timing the
/// instrumentation directly, rather than racing an instrumented loop
/// against a plain one, resolves a cost far below the noise of two
/// kernel loops on a shared host. The per-pair tally the kernel keeps
/// is inside the kernel time, so this stage does not measure it.
fn run_metrics_overhead(
    oracle: &Oracle,
    pairs: &[(u32, u32)],
    threads: usize,
    iters: u32,
    mut instrument: impl FnMut(&QueryTally, f64),
) -> Stage {
    let calls = pairs.len() / KERNEL_CALL_PAIRS;
    assert!(
        calls > 0,
        "metrics overhead needs {KERNEL_CALL_PAIRS} pairs"
    );
    eprintln!(
        "# perf[metrics_overhead]: timing {calls} kernel calls and {iters} instrumentations ..."
    );
    let mut kernel_ns = f64::INFINITY;
    let mut tally = QueryTally::default();
    let mut out = vec![false; KERNEL_CALL_PAIRS];
    for _ in 0..ROUNDS {
        let started = Instant::now();
        for chunk in pairs.chunks_exact(KERNEL_CALL_PAIRS) {
            tally = oracle.reaches_batch_into(chunk, &mut out, threads);
            std::hint::black_box(&out);
        }
        kernel_ns = kernel_ns.min(started.elapsed().as_nanos() as f64 / calls as f64);
    }
    let started = Instant::now();
    for _ in 0..iters {
        instrument(std::hint::black_box(&tally), kernel_ns);
    }
    let instrumentation_ns = started.elapsed().as_nanos() as f64 / f64::from(iters);
    Stage::new(
        "metrics_overhead",
        vec![
            ("pairs_per_call", KERNEL_CALL_PAIRS as f64),
            ("kernel_call_ns", kernel_ns),
            ("iterations", f64::from(iters)),
            ("instrumentation_ns", instrumentation_ns),
            ("cost_ratio", instrumentation_ns / kernel_ns),
        ],
    )
}

/// The `dynamic` stage: a durable [`hoplite_server::Registry`]
/// namespace (WAL group commit + checkpoint rotation in a scratch dir)
/// under a writer applying edge mutations while reader threads hammer
/// point queries, with a low rebuild threshold forcing background
/// reindexes *during* the measurement. Reports mutation throughput
/// (each mutation is logged to the WAL before it is acknowledged) and
/// the read-latency tail — overall and for reads that overlapped an
/// in-flight rebuild, which must answer through the delta overlay, never
/// behind the reindex. The final answers are cross-checked against BFS.
///
/// # Panics
/// On any mutation error other than a planner rejection
/// ([`ServeError::Graph`], a would-be cycle): a WAL failure must fail
/// the run, not pass as a rejection.
fn run_dynamic(
    n: usize,
    m: usize,
    target_mutations: u64,
    rebuild_threshold: usize,
    reader_threads: usize,
    seed: u64,
) -> Stage {
    use hoplite_server::Registry;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    eprintln!(
        "# perf[dynamic]: {target_mutations} mutations over random_dag(n={n}, m={m}), \
         rebuild threshold {rebuild_threshold}, {reader_threads} reader thread(s) ..."
    );
    let dag = gen::random_dag(n, m, seed);
    // Any edge consistent with one fixed topological order of the seed
    // keeps the graph acyclic no matter how many are inserted, so
    // orienting inserts by seed topo rank makes most attempts land;
    // the deliberately unoriented minority exercises the planner's
    // cycle rejection (a real mixed workload has both).
    let topo_pos: Vec<u32> = (0..n as u32).map(|v| dag.topo_pos(v)).collect();
    let mut truth: std::collections::BTreeSet<(u32, u32)> = dag.graph().edges().collect();

    // One directory per call: concurrent runs with the same seed (the
    // unit tests) must not remove each other's WAL.
    static CALL: AtomicU64 = AtomicU64::new(0);
    let wal_root = std::env::temp_dir().join(format!(
        "hoplite-perf-dynamic-{}-{seed}-{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&wal_root);
    let registry = Arc::new(Registry::new());
    registry
        .open_durable(
            "dyn",
            dag,
            &wal_root,
            hoplite_core::WalConfig::default(),
            Some(rebuild_threshold),
        )
        .expect("open durable bench namespace");

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..reader_threads)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let handle = registry.get("dyn").expect("namespace registered");
                let mut all = hoplite_core::HistogramSnapshot::empty();
                let mut during = hoplite_core::HistogramSnapshot::empty();
                let mut state = seed ^ (0xD1E5_u64 << t);
                while !stop.load(Ordering::Relaxed) {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let u = (state % n as u64) as u32;
                    let v = ((state >> 32) % n as u64) as u32;
                    let in_flight_before = handle.rebuild_in_flight();
                    let started = Instant::now();
                    handle.reach(u, v).expect("concurrent read");
                    let ns = started.elapsed().as_nanos() as u64;
                    all.record(ns);
                    if in_flight_before || handle.rebuild_in_flight() {
                        during.record(ns);
                    }
                }
                (all, during)
            })
        })
        .collect();

    let handle = registry.get("dyn").expect("namespace registered");
    let mut state = seed ^ 0xBEEF_CAFE;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut inserted: Vec<(u32, u32)> = Vec::new();
    let mut acknowledged = 0u64;
    let mut rejected = 0u64;
    let started = Instant::now();
    while acknowledged < target_mutations {
        let r = next();
        if r % 8 == 7 && !inserted.is_empty() {
            // Remove one of our own inserts (always present, always
            // acknowledged).
            let (u, v) = inserted.swap_remove((next() % inserted.len() as u64) as usize);
            handle.remove_edge("dyn", u, v).expect("remove");
            truth.remove(&(u, v));
            acknowledged += 1;
            continue;
        }
        let a = (r % n as u64) as u32;
        let b = ((r >> 32) % n as u64) as u32;
        if a == b {
            continue;
        }
        // 7 in 8 inserts are topo-oriented (guaranteed acyclic); the
        // rest keep the random orientation and may be rejected.
        let (u, v) = if r % 16 < 14 && topo_pos[a as usize] > topo_pos[b as usize] {
            (b, a)
        } else {
            (a, b)
        };
        match handle.add_edge("dyn", u, v) {
            Ok(()) => {
                if truth.insert((u, v)) {
                    inserted.push((u, v));
                }
                acknowledged += 1;
            }
            Err(ServeError::Graph(_)) => rejected += 1,
            Err(e) => panic!("dynamic stage: add_edge({u}, {v}) failed: {e}"),
        }
    }
    let mutate_secs = started.elapsed().as_secs_f64();
    handle.quiesce("dyn");

    stop.store(true, Ordering::Relaxed);
    let mut all = hoplite_core::HistogramSnapshot::empty();
    let mut during = hoplite_core::HistogramSnapshot::empty();
    for r in readers {
        let (a, d) = r.join().expect("reader thread");
        all.merge(&a);
        during.merge(&d);
    }

    // Cross-check: the served answers must equal BFS over the
    // acknowledged edge set — a fast-but-wrong dynamic path fails the
    // run instead of producing a flattering number.
    let edges: Vec<(u32, u32)> = truth.iter().copied().collect();
    let final_graph =
        hoplite_graph::DiGraph::from_edges(n, &edges).expect("acknowledged set stayed acyclic");
    for _ in 0..200 {
        let r = next();
        let u = (r % n as u64) as u32;
        let v = ((r >> 32) % n as u64) as u32;
        assert_eq!(
            handle.reach(u, v).expect("verify read"),
            hoplite_graph::traversal::reaches(&final_graph, u, v),
            "dynamic stage diverged from BFS at ({u}, {v})"
        );
    }

    let rebuilds = handle.rebuilds_completed();
    handle.sync_durability().expect("final WAL sync");
    drop(handle);
    drop(registry);
    let _ = std::fs::remove_dir_all(&wal_root);

    Stage::new(
        "dynamic",
        vec![
            ("vertices", n as f64),
            ("seed_edges", m as f64),
            ("mutations", acknowledged as f64),
            ("rejected", rejected as f64),
            ("mutation_qps", acknowledged as f64 / mutate_secs),
            ("rebuild_threshold", rebuild_threshold as f64),
            ("rebuilds", rebuilds as f64),
            ("reader_threads", reader_threads as f64),
            ("reads", all.count() as f64),
            ("read_p50_ns", all.p50() as f64),
            ("read_p99_ns", all.p99() as f64),
            ("reads_during_rebuild", during.count() as f64),
            ("read_p99_during_rebuild_ns", during.p99() as f64),
            ("read_max_during_rebuild_ns", during.max() as f64),
        ],
    )
}

/// Workload sizes for one run of the suite.
struct Scale {
    /// Headline `random_dag` `(vertices, edges)`.
    dag: (usize, usize),
    /// Batch queries per family.
    queries: usize,
    /// `deep_chain_dag(vertices, chains, cross_edges)`.
    chain: (usize, usize, usize),
    /// `kronecker_dag(scale, edges)`.
    kronecker: (u32, usize),
    /// Dynamic stage `(vertices, edges, mutations, rebuild_threshold)`.
    dynamic: (usize, usize, u64, usize),
    /// Cap on the dynamic stage's reader threads.
    max_readers: usize,
}

const QUICK: Scale = Scale {
    dag: (4_000, 16_000),
    queries: 200_000,
    chain: (4_000, 20, 400),
    kronecker: (12, 16_000),
    dynamic: (12_000, 48_000, 2_000, 400),
    max_readers: 2,
};

const FULL: Scale = Scale {
    dag: (48_000, 192_000),
    queries: 1_000_000,
    chain: (48_000, 48, 4_800),
    kronecker: (16, 192_000),
    dynamic: (48_000, 192_000, 10_000, 1_500),
    max_readers: 3,
};

/// Runs every stage and cross-checks equivalence along the way.
///
/// # Panics
/// Panics if any query path disagrees with the reference
/// answers — a perf report for a wrong oracle is worthless.
pub fn run_perf(opts: &PerfOptions) -> PerfReport {
    run_at(if opts.quick { &QUICK } else { &FULL }, opts)
}

fn run_at(scale: &Scale, opts: &PerfOptions) -> PerfReport {
    let seed = opts.seed;
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (n, m) = scale.dag;
    eprintln!("# perf: generating random_dag(n={n}, m={m}, seed={seed})");
    let dag = gen::random_dag(n, m, seed);
    let (chain_n, chains, cross) = scale.chain;
    let chain = gen::deep_chain_dag(chain_n, chains, cross, seed);
    let kron = gen::kronecker_dag(scale.kronecker.0, scale.kronecker.1, seed);

    let build = run_build(&dag);
    let (main, oracle, pairs) = run_family(FAMILIES[0], &dag, scale.queries, host_cores, seed);
    let reachable = main.metric("reachable");
    let mut stages = vec![build, main];
    for (kind, family) in FAMILIES[1..].iter().zip([&chain, &kron]) {
        stages.push(run_family(kind, family, scale.queries, host_cores, seed).0);
    }
    stages.extend(run_scaling(&oracle, &pairs, reachable));
    stages.push(run_cold_start(&oracle, &pairs, seed));
    let mut served = served_instrumentation();
    stages.push(run_metrics_overhead(
        &oracle,
        &pairs,
        host_cores,
        INSTRUMENT_ITERS,
        |tally, _| served(tally),
    ));
    let (dn, dm, mutations, threshold) = scale.dynamic;
    let readers = (host_cores - 1).clamp(1, scale.max_readers);
    stages.push(run_dynamic(dn, dm, mutations, threshold, readers, seed));
    if let Some(exe) = opts.wire_server.as_deref() {
        let wire = run_wire(exe, opts.quick, seed, host_cores);
        stages.extend(wire.unwrap_or_else(|e| panic!("wire stage failed: {e}")));
        let overload = run_overload(exe, opts.quick, seed, host_cores);
        stages.push(overload.unwrap_or_else(|e| panic!("overload stage failed: {e}")));
    }

    PerfReport {
        quick: opts.quick,
        seed,
        host_cores,
        stages,
        gates: gate_table(opts.quick, host_cores, opts.wire_server.is_some()),
    }
}

/// Spawns `server_exe __wire-server <args>` — the `paper` binary's
/// hidden subcommand that builds an oracle over the `random_dag`
/// family, binds a server on an ephemeral loopback port, prints
/// `ADDR <addr>`, and serves until its stdin closes — and runs `drive`
/// against that address. A child process rather than an in-process
/// server because the full sweep holds 10k concurrent connections:
/// each connection costs one fd on *both* ends, and splitting the ends
/// across two processes gives each its own fd budget.
fn with_wire_server<T>(
    server_exe: &Path,
    args: &[u64],
    drive: impl FnOnce(std::net::SocketAddr) -> Result<T, String>,
) -> Result<T, String> {
    use std::process::{Command, Stdio};
    let mut child = Command::new(server_exe)
        .arg("__wire-server")
        .args(args.iter().map(u64::to_string))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", server_exe.display()))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut line = String::new();
    let result = std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("read server address: {e}"))
        .and_then(|_| {
            line.trim()
                .strip_prefix("ADDR ")
                .ok_or_else(|| format!("wire server said {line:?}, expected \"ADDR <addr>\""))?
                .parse()
                .map_err(|e| format!("parse server address {line:?}: {e}"))
        })
        .and_then(drive);
    // Closing stdin is the shutdown signal; on the error path make
    // sure the child dies rather than outliving the benchmark.
    drop(child.stdin.take());
    if result.is_err() {
        let _ = child.kill();
    }
    let _ = child.wait();
    result
}

/// The graph the wire child serves, `(vertices, edges)`.
fn wire_graph(quick: bool) -> (usize, usize) {
    if quick {
        (20_000, 60_000)
    } else {
        (48_000, 192_000)
    }
}

/// The wire sweep: connection counts and queries per step. Quick mode
/// stays under the 1024-fd default soft limit of stock CI runners; the
/// full sweep assumes `ulimit -n` has been raised.
fn wire_sweep(quick: bool) -> (&'static [usize], u64) {
    if quick {
        (&[64, 512], 100_000)
    } else {
        (&[100, 1_000, 10_000], 300_000)
    }
}

/// The `wire_N` stages: [`loadgen::run_load`] at each connection count
/// of [`wire_sweep`] against one [`with_wire_server`] child, with
/// per-reply latency percentiles from the loadgen histogram.
fn run_wire(
    server_exe: &Path,
    quick: bool,
    seed: u64,
    host_cores: usize,
) -> Result<Vec<Stage>, String> {
    let (n, m) = wire_graph(quick);
    let (sweep, queries) = wire_sweep(quick);
    let pipeline = 8;
    let loadgen_threads = host_cores.clamp(1, 8);

    eprintln!("# perf[wire]: spawning server ({n} vertices, {m} edges) ...");
    with_wire_server(server_exe, &[n as u64, m as u64, seed], |addr| {
        sweep
            .iter()
            .map(|&connections| {
                eprintln!("# perf[wire]: sweeping {connections} connections ...");
                let report = loadgen::run_load(&LoadSpec {
                    addr,
                    ns: "bench".to_string(),
                    vertices: n as u32,
                    connections,
                    threads: loadgen_threads,
                    pipeline_depth: pipeline,
                    queries,
                    seed,
                })
                .map_err(|e| format!("wire sweep at {connections} connections: {e}"))?;
                Ok(Stage::new(
                    format!("wire_{connections}"),
                    vec![
                        ("connections", connections as f64),
                        ("pipeline", pipeline as f64),
                        ("loadgen_threads", loadgen_threads as f64),
                        ("qps", report.qps()),
                        ("queries", report.queries as f64),
                        ("errors", report.errors as f64),
                        ("p50_ns", report.latency.p50() as f64),
                        ("p99_ns", report.latency.p99() as f64),
                        ("p999_ns", report.latency.p999() as f64),
                    ],
                ))
            })
            .collect()
    })
}

/// The `overload` stage. Runs a [`with_wire_server`] child with
/// admission budgets (`shed_inflight_hwm`, `shed_coalesced_pairs`, a
/// 1 s request deadline) sized to admit roughly `1/OVERLOAD_FACTOR` of
/// the offered in-flight load, then drives it flat out and reports the
/// degradation shape: typed shed fraction, goodput, and accepted-reply
/// percentiles.
fn run_overload(
    server_exe: &Path,
    quick: bool,
    seed: u64,
    host_cores: usize,
) -> Result<Stage, String> {
    let (n, m) = wire_graph(quick);
    let (connections, queries) = if quick {
        (64usize, 80_000u64)
    } else {
        (256usize, 300_000u64)
    };
    let pipeline = 8usize;
    let inflight = connections * pipeline;
    let hwm = (inflight / OVERLOAD_FACTOR).max(1);

    eprintln!(
        "# perf[overload]: spawning budget-limited server \
         (hwm {hwm}, {OVERLOAD_FACTOR}x offered in-flight {inflight}) ..."
    );
    // One pair per frame, so the pairs budget equals the frame budget;
    // the last argument is the request deadline in ms.
    let args = [n as u64, m as u64, seed, hwm as u64, hwm as u64, 1000];
    with_wire_server(server_exe, &args, |addr| {
        let report = loadgen::run_load(&LoadSpec {
            addr,
            ns: "bench".to_string(),
            vertices: n as u32,
            connections,
            threads: host_cores.clamp(1, 8),
            pipeline_depth: pipeline,
            queries,
            seed: seed ^ 0x0BAD,
        })
        .map_err(|e| format!("overload drill: {e}"))?;
        Ok(Stage::new(
            "overload",
            vec![
                ("connections", connections as f64),
                ("pipeline", pipeline as f64),
                ("factor", OVERLOAD_FACTOR as f64),
                ("shed_inflight_hwm", hwm as f64),
                (
                    "offered",
                    (report.queries + report.shed + report.deadline_exceeded) as f64,
                ),
                ("queries", report.queries as f64),
                ("shed", report.shed as f64),
                ("deadline_exceeded", report.deadline_exceeded as f64),
                ("errors", report.errors as f64),
                ("shed_fraction", report.shed_fraction()),
                ("goodput_qps", report.qps()),
                ("accepted_p50_ns", report.latency.p50() as f64),
                ("accepted_p99_ns", report.latency.p99() as f64),
            ],
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Toy sizes, so the debug-build suite stays fast.
    const TINY: Scale = Scale {
        dag: (300, 1_200),
        queries: 5_000,
        chain: (300, 6, 40),
        kronecker: (8, 700),
        dynamic: (400, 1_200, 150, 24),
        max_readers: 1,
    };

    /// One tiny run through the real stages, shared by every test.
    fn tiny() -> PerfReport {
        static REPORT: OnceLock<PerfReport> = OnceLock::new();
        REPORT
            .get_or_init(|| {
                let opts = PerfOptions {
                    quick: true,
                    seed: 5,
                    wire_server: None,
                };
                run_at(&TINY, &opts)
            })
            .clone()
    }

    /// Sets `stage.metric`, adding the stage or metric if missing.
    fn set(report: &mut PerfReport, stage: &str, metric: &'static str, value: f64) {
        let at = match report.stages.iter().position(|s| s.name == stage) {
            Some(at) => at,
            None => {
                report.stages.push(Stage::new(stage, Vec::new()));
                report.stages.len() - 1
            }
        };
        let metrics = &mut report.stages[at].metrics;
        match metrics.iter_mut().find(|(name, _)| *name == metric) {
            Some(slot) => slot.1 = value,
            None => metrics.push((metric, value)),
        }
    }

    fn passing(bound: Bound) -> f64 {
        match bound {
            Bound::AtLeast(b) | Bound::AtMost(b) => b,
            Bound::Above(b) => b + 1.0,
            Bound::Below(b) => b / 2.0,
        }
    }

    fn failing(bound: Bound) -> f64 {
        match bound {
            Bound::AtLeast(b) => b - 1.0,
            Bound::AtMost(b) => b + 1.0,
            Bound::Above(b) | Bound::Below(b) => b,
        }
    }

    fn gate_ids(gates: &[Gate]) -> Vec<String> {
        gates
            .iter()
            .map(|g| format!("{}.{}", g.stage, g.metric))
            .collect()
    }

    #[test]
    fn tiny_run_emits_every_metric_its_gates_read() {
        let report = tiny();
        for g in &report.gates {
            let value = report.metric(&g.stage, g.metric);
            assert!(value.is_finite(), "{}.{} = {value}", g.stage, g.metric);
        }
        for family in FAMILIES {
            assert_eq!(report.metric(family, "tally_unaccounted"), 0.0, "{family}");
            assert!(report.metric(family, "filter_hit_rate") > 0.0, "{family}");
            let verdicts: f64 = FilterVerdict::ALL
                .iter()
                .map(|v| report.metric(family, v.name()))
                .sum();
            assert_eq!(verdicts, report.metric(family, "queries"), "{family}");
        }
        assert!(report.metric("cold_start", "file_bytes") % 64.0 == 0.0);
        assert!(
            report.metric("dynamic", "rebuilds") >= 1.0,
            "tiny dynamic stage never rebuilt"
        );
        assert_eq!(report.metric("dynamic", "mutations"), 150.0);
        assert_eq!(
            report.metric("metrics_overhead", "iterations"),
            f64::from(INSTRUMENT_ITERS)
        );
        assert!(report.metric("build", "build_ms") > 0.0);
        for width in WIDTHS {
            let stage = format!("threads_{width}");
            assert!(report.metric(&stage, "query_qps") > 0.0, "{stage}");
        }
        assert!(report.metric("scaling", "parallel_query_vs_one") > 0.0);
    }

    /// Every gate row trips when the one metric it reads misses its
    /// bound, and `check` names exactly that row.
    #[test]
    fn every_gate_trips_on_its_own_metric() {
        let mut report = tiny();
        report.gates = gate_table(false, 2, true);
        assert_eq!(
            gate_ids(&report.gates),
            [
                "random_dag.filter_hit_rate",
                "random_dag.filtered_vs_unfiltered",
                "kronecker.filtered_vs_unfiltered",
                "cold_start.mapped_heap_frac",
                "metrics_overhead.cost_ratio",
                "dynamic.rebuilds",
                "dynamic.read_p99_during_rebuild_ns",
                "random_dag.tally_unaccounted",
                "deep_chain.tally_unaccounted",
                "kronecker.tally_unaccounted",
                "scaling.parallel_query_vs_one",
                "wire_100.errors",
                "wire_100.qps",
                "wire_1000.errors",
                "wire_1000.qps",
                "wire_10000.errors",
                "wire_10000.qps",
                "overload.errors",
                "overload.shed",
                "overload.shed_fraction",
                "overload.queries",
                "overload.accepted_p99_ns",
            ]
        );
        // Debug-build timings on toy graphs are not what this probes:
        // pin every gated metric healthy first (the wire stages, which
        // need a server executable, are created here).
        for g in report.gates.clone() {
            set(&mut report, &g.stage, g.metric, passing(g.bound));
        }
        report
            .check()
            .expect("every gate passes at its pinned value");
        for g in report.gates.clone() {
            let id = format!("{}.{}", g.stage, g.metric);
            let mut tripped = report.clone();
            set(&mut tripped, &g.stage, g.metric, failing(g.bound));
            let failed = tripped.check().expect_err(&id);
            assert_eq!(failed.len(), 1, "{id}: {failed:?}");
            assert!(
                failed[0].starts_with(&format!("{id} = ")),
                "{id}: {failed:?}"
            );
            // So does a NaN: a missing metric reads as one.
            let mut missing = report.clone();
            set(&mut missing, &g.stage, g.metric, f64::NAN);
            assert_eq!(missing.check().expect_err(&id).len(), 1, "{id}");
        }
    }

    #[test]
    fn conditional_gates_bind_only_where_measured() {
        let full = gate_ids(&gate_table(false, 2, true));
        let quick_one_core = gate_ids(&gate_table(true, 1, false));
        let dropped: Vec<&String> = full
            .iter()
            .filter(|id| !quick_one_core.contains(id))
            .collect();
        assert!(dropped.iter().all(|id| id.starts_with("scaling.")
            || id.starts_with("wire_")
            || id.starts_with("overload.")));
        assert_eq!(dropped.len(), 1 + 6 + 5);
        // The quick sweep's steps carry their own gates.
        let quick_wire = gate_ids(&gate_table(true, 1, true));
        assert!(quick_wire.contains(&"wire_64.qps".to_string()));
        assert!(quick_wire.contains(&"wire_512.errors".to_string()));
    }

    #[test]
    fn writer_emits_every_stage_and_nulls_non_finite_values() {
        let mut report = tiny();
        let mut names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), report.stages.len(), "duplicate stage name");
        for s in &report.stages {
            let mut metrics: Vec<&str> = s.metrics.iter().map(|&(name, _)| name).collect();
            metrics.sort_unstable();
            metrics.dedup();
            assert_eq!(
                metrics.len(),
                s.metrics.len(),
                "duplicate metric in {}",
                s.name
            );
        }
        report.stages.push(Stage::new(
            "added_in_test",
            vec![("answer", 42.0), ("nan", f64::NAN), ("inf", f64::INFINITY)],
        ));
        let json = report.to_json();
        assert!(json.contains("\"schema\": 11"), "{json}");
        assert!(
            json.contains("\"added_in_test\": { \"answer\": 42, \"nan\": null, \"inf\": null }"),
            "{json}"
        );
        for s in &report.stages {
            assert!(json.contains(&format!("\"{}\": {{ ", s.name)), "{}", s.name);
        }
        assert!(json.contains("\"metric\": \"cost_ratio\", \"op\": \"<=\", \"bound\": 0.03"));
        assert!(!json.contains("NaN") && !json.contains("inf,"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// The cold-start gate reads what mapping saves: the mapped open
    /// copies none of the arena onto the heap, and the read fallback's
    /// fraction, in the mapped slot, trips the gate.
    #[test]
    fn read_fallback_heap_fraction_trips_the_cold_start_gate() {
        let mut report = tiny();
        assert_eq!(report.metric("cold_start", "mapped_heap_frac"), 0.0);
        let read = report.metric("cold_start", "read_heap_frac");
        assert!(read > 0.9, "the read fallback copies the arena: {read}");
        set(&mut report, "cold_start", "mapped_heap_frac", read);
        let failed = report
            .check()
            .expect_err("a heap-read arena must trip the gate");
        assert!(
            failed
                .iter()
                .any(|f| f.starts_with("cold_start.mapped_heap_frac = ")),
            "{failed:?}"
        );
    }

    /// Instrumentation that also spins for 5% of a kernel call trips the
    /// overhead gate. The spin is calibrated against the kernel time the
    /// same stage measured, so host load cannot shrink the ratio.
    #[test]
    fn injected_instrumentation_cost_trips_the_overhead_gate() {
        let dag = gen::random_dag(300, 1_200, 5);
        let (_, oracle, pairs) = run_family("random_dag", &dag, 5_000, 2, 5);
        let mut served = served_instrumentation();
        let injected = run_metrics_overhead(&oracle, &pairs, 2, 200, |tally, kernel_ns| {
            served(tally);
            let spin = std::time::Duration::from_nanos((kernel_ns * 0.05).ceil() as u64);
            let started = Instant::now();
            while started.elapsed() < spin {}
        });
        let mut report = tiny();
        report.stages.retain(|s| s.name != "metrics_overhead");
        report.stages.push(injected);
        let failed = report
            .check()
            .expect_err("5% instrumentation must trip the gate");
        assert!(
            failed
                .iter()
                .any(|f| f.starts_with("metrics_overhead.cost_ratio = ")),
            "{failed:?}"
        );
    }
}
