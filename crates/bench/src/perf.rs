//! `paper perf` — the machine-readable hot-path benchmark.
//!
//! Measures the two overhauled hot paths and emits one JSON object
//! (the `BENCH_*.json` trajectory the ROADMAP calls for):
//!
//! * **Construction** — the Distribution-Labeling build at several
//!   thread widths ([`Parallelism::Threads`]) plus the shipped default
//!   ([`Parallelism::Auto`]). Every width is verified to emit
//!   **byte-identical labels** to the 1-thread build before any number
//!   is reported.
//! * **Query** — filtered vs unfiltered batch throughput through
//!   [`Oracle::reaches_batch`] / [`Oracle::reaches_batch_unfiltered`],
//!   per-layer [`FilterVerdict`] hit rates, and the
//!   [`QueryTally`] stage mix (pre-filter / reach masks / merge)
//!   over the same workload.
//! * **Graph families** — beyond the headline `random_dag` workload,
//!   a `deep_chain` bundle (adversarial for the level cut; the
//!   doubled interval cuts carry it) and a `kronecker` R-MAT DAG
//!   (scale-free degrees, where a few top hops cover most pairs), each
//!   with its own build/query/stage numbers.
//! * **Thread scaling** — build time and batch-query throughput on the
//!   headline index at 1/2/4/8 threads, the curve the CI
//!   `perf-multicore` job records so a parallelism regression shows up
//!   as a flat line instead of staying invisible on 1-core runners.
//! * **Wire** — QPS vs concurrent-connection count through a *real*
//!   [`hoplite_server::Server`] in a child process, driven by
//!   [`hoplite_server::loadgen`]'s `REACH` frames over loopback TCP
//!   (child process because one process's fd budget cannot hold both
//!   ends of a 10k-socket sweep), with per-step reply-latency
//!   p50/p99/p99.9 from the loadgen histogram. Skipped
//!   (`"wire": null`) when the caller does not supply a server
//!   executable — i.e. under `cargo test`.
//! * **Wire overload** — the same child server rebound with admission
//!   budgets admitting ~1/3 of the offered in-flight load, then driven
//!   flat out: typed shed fraction, goodput, and accepted-reply
//!   latency percentiles, gated so refusals stay typed, shedding stays
//!   bounded, and admitted traffic stays fast. Skipped alongside the
//!   wire stage.
//! * **Metrics overhead** — the filtered batch loop chunked with a
//!   per-chunk [`hoplite_core::Histogram`] record against the same
//!   loop without one; `--check` requires the instrumented loop to
//!   hold ≥ 97% of plain throughput, the bar the observability layer
//!   is sold under.
//! * **Dynamic mixed workload** — a durable
//!   [`hoplite_server::Registry`] namespace (WAL group commit +
//!   checkpoint rotation in a scratch dir) under a mutating writer and
//!   concurrent readers, with a low rebuild threshold forcing several
//!   background reindexes mid-measurement. Reports mutation
//!   throughput (WAL append on the acknowledgement path) and the
//!   read-latency tail; `--check` requires ≥ 1 rebuild and holds the
//!   p99 of reads that *overlapped* a rebuild under 150 ms — readers
//!   answer through the delta overlay (plus group-commit contention),
//!   never behind the reindex itself. The final answers are
//!   cross-checked against BFS ground truth.
//!
//! Every timed path is also cross-checked for answer equivalence, so a
//! fast-but-wrong regression fails the run instead of producing a
//! flattering number. `--check` additionally enforces the CI
//! invariants (nonzero filter hit rate, filtered throughput at least
//! matching unfiltered, `Parallelism::Auto` landing within 10% of
//! the best timed width on the host — Auto must never pick a loser —
//! plus, on multi-core hosts, parallel build/query at least matching
//! one thread, and a wire-QPS floor with zero error replies on every
//! sweep step; full runs also hold a mapped open to at least 4x the
//! read-fallback open of the same arena).
//!
//! The report carries no baseline of its own: whether a change made the
//! served index slower is judged end to end by `hopbench compare`,
//! which runs parent and change alternately and reports medians with
//! their noise.

use std::collections::HashMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::time::Instant;

use hoplite_core::{
    DistributionLabeling, DlConfig, FilterVerdict, Histogram, OpenOptions, Oracle, Parallelism,
    QueryTally,
};
use hoplite_graph::{gen, Dag};
use hoplite_server::{loadgen, LoadSpec};

/// Build widths timed individually; the first is the reference the
/// others' labels are checked against.
const TIMED_WIDTHS: [usize; 3] = [1, 2, 4];
/// Widths whose output is verified byte-identical to the 1-thread build.
const IDENTITY_WIDTHS: [usize; 5] = [1, 2, 3, 4, 8];
/// Thread counts the scaling stage records build + query numbers for.
const SCALING_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Minimum mapped-open speedup over the read-fallback open of the same
/// arena that a full `--check` run accepts. On the 48k/192k index the
/// ratio measured 6.8-8.8x over three runs on one host and 4.6-5.5x
/// over three on a shared 2-CPU VM; the gate sits below both.
const COLD_START_MIN_SPEEDUP: f64 = 4.0;

/// Pairs per chunk of the metrics-overhead stage — the granularity a
/// serving tier would realistically record at (one histogram sample
/// per batch frame, never per pair).
const OVERHEAD_CHUNK_PAIRS: usize = 4_096;
/// Minimum instrumented/plain throughput ratio `--check` accepts.
const OVERHEAD_FLOOR: f64 = 0.97;

/// Interleaved rounds for the two side-by-side query comparisons
/// `--check` gates (filtered vs unfiltered, instrumented vs plain). A
/// quick-mode call lasts a few milliseconds, and on a shared host one
/// preempted thread can double a single window, so each side keeps its
/// best of this many rounds.
const PAIRED_ROUNDS: usize = 7;

/// Wire-stage QPS floor per sweep step. Deliberately far below
/// observed numbers (a 1-core box sustains > 160k q/s even at 10k
/// connections) — the gate exists to catch a serving tier that falls
/// off a cliff, not to chase the noise on shared runners.
const WIRE_FLOOR_QUICK_QPS: f64 = 25_000.0;
const WIRE_FLOOR_FULL_QPS: f64 = 50_000.0;

/// Overload drill: offered in-flight load per admission budget. At 3x,
/// a correct limiter sheds roughly two thirds of the offered queries
/// and keeps goodput near the unthrottled ceiling.
const OVERLOAD_FACTOR: usize = 3;

/// Ceiling on the accepted-reply p99 during the overload drill. The
/// child runs a 1 s request deadline, so anything the server *chose*
/// to answer is at most deadline + dispatch old; 5 s only trips when
/// admission control stops protecting the admitted traffic.
const OVERLOAD_ACCEPTED_P99_BOUND_NS: u64 = 5_000_000_000;

/// Options for [`run_perf`], parsed by the `paper` binary.
#[derive(Clone, Debug)]
pub struct PerfOptions {
    /// Small graphs + workloads for CI (seconds, not minutes).
    pub quick: bool,
    /// Generator and workload seed.
    pub seed: u64,
    /// Executable serving the hidden `__wire-server` subcommand (the
    /// `paper` binary passes its own path). `None` skips the wire
    /// stage — the only option under `cargo test`, where the test
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

/// Build wall-clock results on the headline workload.
#[derive(Clone, Debug)]
pub struct EngineTimings {
    /// Build time per timed width, `(threads, ms)`.
    pub width_ms: Vec<(usize, f64)>,
    /// The shipped default (`Parallelism::Auto`).
    pub auto_ms: f64,
    /// Threads `Auto` resolved to on this host.
    pub auto_threads: usize,
}

impl EngineTimings {
    /// Fastest timed width — the bar `Auto` is held to.
    pub fn best_ms(&self) -> f64 {
        self.width_ms
            .iter()
            .map(|&(_, ms)| ms)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Cold-start measurements on the headline index: save → drop → open
/// the HOPL v4 arena, read into the heap vs mapped.
#[derive(Clone, Debug)]
pub struct ColdStart {
    /// HOPL v4 arena size in bytes.
    pub file_bytes: u64,
    /// `Oracle::open_with` `mmap: false`: the portable fallback that
    /// reads the whole file into an aligned heap buffer, then
    /// validates and checksums it.
    pub read_open_ms: f64,
    /// `Oracle::open` on the arena: mmap + table validation +
    /// checksum pass, no copy into the heap.
    pub mapped_open_ms: f64,
    /// Mapped open with `verify: false` — the strictly O(header)
    /// path, for reference.
    pub mapped_unverified_open_ms: f64,
}

impl ColdStart {
    /// `read_open_ms / mapped_open_ms` — the win `--check` holds the
    /// mapped open to ([`COLD_START_MIN_SPEEDUP`] on the full run).
    pub fn speedup(&self) -> f64 {
        self.read_open_ms / self.mapped_open_ms.max(f64::MIN_POSITIVE)
    }
}

/// The metrics-overhead stage: the filtered batch hot path chunked at
/// [`OVERHEAD_CHUNK_PAIRS`] pairs, once with a per-chunk
/// [`Histogram`] record and once without, interleaved best-of like the
/// build engines so both see the same machine-load phases.
#[derive(Clone, Debug)]
pub struct MetricsOverhead {
    /// Pairs per instrumented chunk.
    pub chunk_pairs: usize,
    /// Throughput of the plain chunked loop.
    pub plain_qps: f64,
    /// Throughput of the same loop with one histogram record per chunk.
    pub instrumented_qps: f64,
}

impl MetricsOverhead {
    /// `instrumented_qps / plain_qps` — `--check` requires
    /// [`OVERHEAD_FLOOR`].
    pub fn ratio(&self) -> f64 {
        self.instrumented_qps / self.plain_qps.max(f64::MIN_POSITIVE)
    }
}

/// The dynamic mixed read/mutate stage: a durable
/// [`hoplite_server::Registry`] namespace (WAL + checkpoint in a
/// scratch dir) under a writer applying edge mutations while reader
/// threads hammer point queries, with the low rebuild threshold
/// guaranteeing several background reindexes happen *during* the
/// measurement. The headline numbers are mutation throughput (each
/// mutation is logged to the WAL before it is acknowledged) and the
/// read-latency tail — overall and, separately, for reads that
/// overlapped an in-flight rebuild, the tail `--check` holds to
/// [`READ_STALL_BOUND_NS`]: readers must answer through the delta
/// overlay, never block behind the reindex.
#[derive(Clone, Debug)]
pub struct DynamicStage {
    /// Vertices of the seed DAG.
    pub vertices: usize,
    /// Edges of the seed DAG.
    pub seed_edges: usize,
    /// Acknowledged mutations (logged, applied, and visible).
    pub mutations: u64,
    /// Mutation attempts the planner rejected (would-be cycles) —
    /// context, not counted in the throughput.
    pub rejected: u64,
    /// Acknowledged mutations per second, WAL append included.
    pub mutation_qps: f64,
    /// Overlay size that arms a background rebuild.
    pub rebuild_threshold: usize,
    /// Background rebuilds completed during the stage.
    pub rebuilds: u64,
    /// Concurrent reader threads.
    pub reader_threads: usize,
    /// Point queries answered while the writer ran.
    pub reads: u64,
    /// Median read latency in nanoseconds.
    pub read_p50_ns: u64,
    /// 99th-percentile read latency in nanoseconds.
    pub read_p99_ns: u64,
    /// Reads that overlapped an in-flight background rebuild.
    pub reads_during_rebuild: u64,
    /// 99th-percentile latency of those overlapping reads — the
    /// number the non-blocking-rebuild design is sold on.
    pub read_p99_during_rebuild_ns: u64,
    /// Worst overlapping read observed (exact, not bucketed).
    pub read_max_during_rebuild_ns: u64,
}

/// `--check` bound on [`DynamicStage::read_p99_during_rebuild_ns`].
/// Set far above honest contention — WAL group-commit fsyncs hold the
/// namespace lock and share the disk with the checkpoint writer, so a
/// loaded box sees tens of milliseconds at the tail — and far below a
/// reader actually queued behind the reindex (label build plus
/// checkpoint construction is ~700 ms at bench scale): the gate
/// catches a blocking rebuild, not fsync noise.
const READ_STALL_BOUND_NS: u64 = 150_000_000;

/// One graph family's build + query measurements.
#[derive(Clone, Debug)]
pub struct FamilyReport {
    /// Family name (`random_dag`, `deep_chain`, `kronecker`).
    pub kind: &'static str,
    /// Vertices.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Condensation components (== `n` on DAG workloads).
    pub components: usize,
    /// Total hop-label entries of the built index.
    pub label_entries: u64,
    /// `Parallelism::Auto` build time.
    pub build_auto_ms: f64,
    /// Query batch size.
    pub queries: usize,
    /// Positive answers (sanity/context).
    pub reachable: usize,
    /// Throughput with the pre-filter stack disabled (reach masks on —
    /// they are part of the label store).
    pub unfiltered_qps: f64,
    /// Throughput through the full hot path.
    pub filtered_qps: f64,
    /// Share of queries decided before the label store.
    pub filter_hit_rate: f64,
    /// Where the workload's queries died (filter / signature / merge).
    pub tally: QueryTally,
}

impl FamilyReport {
    /// `filtered_qps / unfiltered_qps`.
    pub fn query_speedup(&self) -> f64 {
        self.filtered_qps / self.unfiltered_qps.max(f64::MIN_POSITIVE)
    }
}

/// One point of the thread-scaling curve on the headline workload.
#[derive(Clone, Debug)]
pub struct ScalingStep {
    /// Threads used for both measurements.
    pub threads: usize,
    /// Build wall clock at this width (the same builds the
    /// construction stage verifies byte-identical).
    pub build_ms: f64,
    /// Filtered batch-query throughput at this width.
    pub query_qps: f64,
}

/// One point of the wire sweep: QPS at a concurrent-connection count.
#[derive(Clone, Debug)]
pub struct WireStep {
    /// Concurrent sockets held open for the whole step.
    pub connections: usize,
    /// Reachability queries per second over the wire.
    pub qps: f64,
    /// Queries answered.
    pub queries: u64,
    /// `ERROR` replies observed (`--check` requires zero).
    pub errors: u64,
    /// Median per-reply wire latency in nanoseconds (pipelined
    /// send-to-reply, from [`hoplite_server::LoadReport::latency`]).
    pub p50_ns: u64,
    /// 99th-percentile reply latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile reply latency in nanoseconds.
    pub p999_ns: u64,
}

/// The wire stage: a server in a child process, swept over connection
/// counts by [`hoplite_server::loadgen`].
#[derive(Clone, Debug)]
pub struct WireReport {
    /// Frames in flight per connection within a round.
    pub pipeline: usize,
    /// Load-generator worker threads.
    pub loadgen_threads: usize,
    /// One entry per swept connection count, ascending.
    pub steps: Vec<WireStep>,
}

/// The overload drill: the same child-process server rebound with
/// admission budgets sized to admit roughly `1/factor` of the offered
/// in-flight load, then driven flat out. What the report captures is
/// the *degradation shape*: how much was shed (typed, not errored),
/// what goodput the admitted traffic kept, and how fast the accepted
/// replies stayed.
#[derive(Clone, Debug)]
pub struct OverloadStage {
    /// Concurrent sockets held open for the whole drill.
    pub connections: usize,
    /// Frames in flight per connection within a round.
    pub pipeline: usize,
    /// Overload factor: budgets admit ~`1/factor` of the offered load.
    pub factor: usize,
    /// `shed_inflight_hwm` the child ran with.
    pub shed_inflight_hwm: usize,
    /// Queries offered = answered + shed + deadline-refused.
    pub offered: u64,
    /// Queries admitted and answered.
    pub queries: u64,
    /// Queries shed with a typed `OVERLOADED` refusal.
    pub shed: u64,
    /// Queries refused with a typed `DEADLINE_EXCEEDED`.
    pub deadline_exceeded: u64,
    /// Untyped `ERROR` replies (`--check` requires zero).
    pub errors: u64,
    /// `shed / offered`.
    pub shed_fraction: f64,
    /// Answered queries per second — goodput, not offered throughput.
    pub goodput_qps: f64,
    /// Median latency of **accepted** replies (ns).
    pub accepted_p50_ns: u64,
    /// 99th-percentile latency of accepted replies (ns).
    pub accepted_p99_ns: u64,
}

/// One measured suite; serializes with [`PerfReport::to_json`].
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Options the suite ran with.
    pub quick: bool,
    /// Seed used.
    pub seed: u64,
    /// Host cores visible to the process.
    pub host_cores: usize,
    /// Worker threads used for the batch measurements.
    pub query_threads: usize,
    /// The headline `random_dag` workload.
    pub main: FamilyReport,
    /// Pre-filter footprint in 32-bit integers.
    pub filter_integers: u64,
    /// Top-hop reach-mask footprint in bytes (the JSON key keeps its
    /// pre-mask name, `signature_bytes`).
    pub signature_bytes: u64,
    /// Build-engine timings on the headline workload.
    pub build: EngineTimings,
    /// Chunked-engine widths verified byte-identical to the seed build.
    pub identity_widths: Vec<usize>,
    /// Count per [`FilterVerdict`] over the headline workload, in
    /// [`FilterVerdict::ALL`] order.
    pub verdict_counts: Vec<(FilterVerdict, usize)>,
    /// The additional graph families (`deep_chain`, `kronecker`).
    pub families: Vec<FamilyReport>,
    /// Cold-start stage on the headline index (owned vs mapped open).
    pub cold_start: ColdStart,
    /// Thread-scaling curve (build + query) on the headline workload,
    /// one step per [`SCALING_WIDTHS`] entry.
    pub scaling: Vec<ScalingStep>,
    /// Instrumented vs plain chunked query throughput on the headline
    /// workload.
    pub metrics_overhead: MetricsOverhead,
    /// Mixed read/mutate stage on a durable dynamic namespace with
    /// background rebuilds in flight.
    pub dynamic: DynamicStage,
    /// Wire sweep through a child-process server; `None` when no
    /// server executable was supplied (e.g. under `cargo test`).
    pub wire: Option<WireReport>,
    /// Overload drill against a budget-limited child server; `None`
    /// when no server executable was supplied.
    pub wire_overload: Option<OverloadStage>,
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

/// Panics unless `dl` and `reference` carry byte-identical labels.
fn assert_identical_labels(
    engine: &str,
    dl: &DistributionLabeling,
    reference: &DistributionLabeling,
) {
    assert_eq!(
        dl.order(),
        reference.order(),
        "engine {engine} used a different order"
    );
    for v in 0..reference.labeling().num_vertices() as u32 {
        assert_eq!(
            dl.labeling().out_label(v),
            reference.labeling().out_label(v),
            "engine {engine} diverged at L_out({v})"
        );
        assert_eq!(
            dl.labeling().in_label(v),
            reference.labeling().in_label(v),
            "engine {engine} diverged at L_in({v})"
        );
    }
}

/// Builds (Auto, timed), queries (filtered + unfiltered, timed), and
/// stage-tallies one family's workload. Cross-checks answer
/// equivalence along the way. Returns the built oracle and the exact
/// pair workload too, so callers needing derived stats (verdict
/// counts, footprints) neither rebuild the index nor re-derive the
/// workload.
fn run_family(
    kind: &'static str,
    dag: &Dag,
    queries: usize,
    rounds: usize,
    threads: usize,
    seed: u64,
) -> (FamilyReport, Oracle, Vec<(u32, u32)>) {
    eprintln!("# perf[{kind}]: building (auto) ...");
    let (oracle, build_auto_ms) = best_ms(rounds, || Oracle::new(dag.graph()));
    let n = dag.num_vertices();
    let mut rng = gen::Rng::new(seed ^ 0x9E37_79B9);
    let pairs: Vec<(u32, u32)> = (0..queries)
        .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
        .collect();
    // Unfiltered and filtered rounds alternate, best-of per side, like
    // the build widths: both paths see the same machine-load phases,
    // which the filtered-vs-unfiltered `--check` bar depends on.
    eprintln!(
        "# perf[{kind}]: timing unfiltered vs filtered batch \
         ({queries} queries, {threads} threads) ..."
    );
    let mut unfiltered_ms = f64::INFINITY;
    let mut filtered_ms = f64::INFINITY;
    let mut filtered = Vec::new();
    for _ in 0..rounds.max(PAIRED_ROUNDS) {
        let (unfiltered, ms) = time_ms(|| oracle.reaches_batch_unfiltered(&pairs, threads));
        unfiltered_ms = unfiltered_ms.min(ms);
        let (answers, ms) = time_ms(|| oracle.reaches_batch(&pairs, threads));
        filtered_ms = filtered_ms.min(ms);
        assert_eq!(
            answers, unfiltered,
            "{kind}: filtered and unfiltered batch answers diverged"
        );
        filtered = answers;
    }
    // Stage mix, off the timed path; answers re-checked once more.
    let (tallied, tally) = oracle.reaches_batch_tallied(&pairs, threads);
    assert_eq!(tallied, filtered, "{kind}: tallied answers diverged");
    assert_eq!(tally.total(), queries as u64);
    let reachable = filtered.iter().filter(|&&b| b).count();
    let report = FamilyReport {
        kind,
        n,
        m: dag.num_edges(),
        components: oracle.num_components(),
        label_entries: oracle.label_entries(),
        build_auto_ms,
        queries,
        reachable,
        unfiltered_qps: queries as f64 / (unfiltered_ms / 1e3).max(f64::MIN_POSITIVE),
        filtered_qps: queries as f64 / (filtered_ms / 1e3).max(f64::MIN_POSITIVE),
        filter_hit_rate: tally.filter_decided as f64 / queries.max(1) as f64,
        tally,
    };
    (report, oracle, pairs)
}

/// The cold-start stage: persist the built index as a HOPL v4 arena,
/// drop every in-memory structure, and time opening it read into the
/// heap (`mmap: false`) and mapped, verified and unverified. Answers of
/// every reopened oracle are cross-checked against the builder's
/// before any number is reported; the temp file is removed either way.
fn run_cold_start(oracle: &Oracle, pairs: &[(u32, u32)], rounds: usize, seed: u64) -> ColdStart {
    // The stamp carries a process-wide counter besides pid + seed:
    // parallel tests in one process call this with the same seed and
    // must not race on the same temp files.
    static CALL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = CALL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "hoplite-perf-{}-{seed}-{call}.hopl3",
        std::process::id()
    ));
    let mut bytes = Vec::new();
    oracle.save_arena(&mut bytes).expect("serialize arena");
    std::fs::write(&path, &bytes).expect("write arena");
    let file_bytes = bytes.len() as u64;
    drop(bytes);

    // Opens are fast; extra rounds cost little and steady the ratio
    // the --check gate depends on.
    let opens = rounds.max(3);
    let path_ref = &path;
    let open = |mmap: bool, verify: bool| {
        let opts = OpenOptions {
            mmap,
            verify,
            ..OpenOptions::default()
        };
        move || Oracle::open_with(path_ref, &opts).expect("arena written above opens")
    };
    eprintln!("# perf[cold]: timing read-fallback vs mapped open ...");
    let (read, read_open_ms) = best_ms(opens, open(false, true));
    let (mapped, mapped_open_ms) = best_ms(opens, open(true, true));
    let (unverified, mapped_unverified_open_ms) = best_ms(opens, open(true, false));
    std::fs::remove_file(&path).ok();

    let probe = &pairs[..pairs.len().min(20_000)];
    let want = oracle.reaches_batch(probe, 1);
    for (what, reopened) in [
        ("read", &read),
        ("mapped", &mapped),
        ("unverified", &unverified),
    ] {
        assert_eq!(
            reopened.reaches_batch(probe, 1),
            want,
            "{what}-open answers diverged from the built index"
        );
    }

    ColdStart {
        file_bytes,
        read_open_ms,
        mapped_open_ms,
        mapped_unverified_open_ms,
    }
}

/// The metrics-overhead stage. Both loops chunk identically (the
/// chunking itself is not the cost under test); the instrumented one
/// additionally records each chunk's wall clock into a lock-free
/// [`Histogram`] — exactly what the serving tier's query-path
/// observability does per frame. Rounds interleave plain and
/// instrumented so machine-load phases hit both equally.
fn run_metrics_overhead(
    oracle: &Oracle,
    pairs: &[(u32, u32)],
    threads: usize,
    rounds: usize,
) -> MetricsOverhead {
    eprintln!("# perf[metrics]: timing plain vs instrumented chunked filtered batch ...");
    let hist = Histogram::new();
    let plain_loop = || {
        let mut positives = 0usize;
        for chunk in pairs.chunks(OVERHEAD_CHUNK_PAIRS) {
            positives += oracle
                .reaches_batch(chunk, threads)
                .iter()
                .filter(|&&b| b)
                .count();
        }
        positives
    };
    let instrumented_loop = || {
        let mut positives = 0usize;
        for chunk in pairs.chunks(OVERHEAD_CHUNK_PAIRS) {
            let started = Instant::now();
            positives += oracle
                .reaches_batch(chunk, threads)
                .iter()
                .filter(|&&b| b)
                .count();
            hist.record(started.elapsed().as_nanos() as u64);
        }
        positives
    };
    let mut plain_ms = f64::INFINITY;
    let mut instrumented_ms = f64::INFINITY;
    let mut want: Option<usize> = None;
    // The measured effect is tiny (one clock pair + one record per
    // 4096-pair chunk), so the gate is noise-bound: interleave more
    // rounds than the other stages and keep the best of each side.
    for _ in 0..rounds.max(PAIRED_ROUNDS) {
        let (positives, ms) = time_ms(plain_loop);
        plain_ms = plain_ms.min(ms);
        let want = *want.get_or_insert(positives);
        assert_eq!(positives, want, "plain chunked loop changed the answers");
        let (positives, ms) = time_ms(instrumented_loop);
        instrumented_ms = instrumented_ms.min(ms);
        assert_eq!(
            positives, want,
            "instrumented chunked loop changed the answers"
        );
    }
    MetricsOverhead {
        chunk_pairs: OVERHEAD_CHUNK_PAIRS,
        plain_qps: pairs.len() as f64 / (plain_ms / 1e3).max(f64::MIN_POSITIVE),
        instrumented_qps: pairs.len() as f64 / (instrumented_ms / 1e3).max(f64::MIN_POSITIVE),
    }
}

/// The dynamic mixed stage at explicit sizes (the tiny test harness
/// shrinks everything; [`run_perf`] picks bench scale).
fn run_dynamic(
    n: usize,
    m: usize,
    target_mutations: u64,
    rebuild_threshold: usize,
    reader_threads: usize,
    seed: u64,
) -> DynamicStage {
    use hoplite_server::Registry;
    use std::sync::atomic::{AtomicBool, Ordering};
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
    static CALL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
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
            Err(_) => rejected += 1,
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

    DynamicStage {
        vertices: n,
        seed_edges: m,
        mutations: acknowledged,
        rejected,
        mutation_qps: acknowledged as f64 / mutate_secs.max(f64::MIN_POSITIVE),
        rebuild_threshold,
        rebuilds,
        reader_threads,
        reads: all.count(),
        read_p50_ns: all.p50(),
        read_p99_ns: all.p99(),
        reads_during_rebuild: during.count(),
        read_p99_during_rebuild_ns: during.p99(),
        read_max_during_rebuild_ns: during.max(),
    }
}

/// Builds the workloads, measures every build width and both query
/// paths, and cross-checks equivalence along the way.
///
/// # Panics
/// Panics if any build width or query path disagrees with the reference
/// answers — a perf report for a wrong oracle is worthless.
pub fn run_perf(opts: &PerfOptions) -> PerfReport {
    // The headline workload: Erdős–Rényi at bench scale. The quick
    // variant keeps CI in seconds while exercising the identical code
    // paths.
    let (n, m, queries, rounds) = if opts.quick {
        (4_000, 16_000, 200_000, 2)
    } else {
        (48_000, 192_000, 1_000_000, 2)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!(
        "# perf: generating random_dag(n={n}, m={m}, seed={})",
        opts.seed
    );
    let dag = gen::random_dag(n, m, opts.seed);

    // --- Construction. ---------------------------------------------
    let dag_ref = &dag;
    let build = |parallelism: Parallelism| {
        let cfg = DlConfig {
            parallelism,
            ..DlConfig::default()
        };
        move || DistributionLabeling::build(dag_ref, &cfg)
    };
    // The widths are timed round-robin (width-major inside each round,
    // best-of across rounds) rather than width-by-width: on shared
    // hosts machine-load phases last seconds, and measuring each width
    // in its own phase can skew identical code paths by tens of
    // percent — interleaving exposes every width to the same phases,
    // which the Auto-vs-best `--check` guard depends on.
    let mut width_ms: Vec<(usize, f64)> =
        TIMED_WIDTHS.iter().map(|&w| (w, f64::INFINITY)).collect();
    let mut auto_ms = f64::INFINITY;
    let mut reference: Option<DistributionLabeling> = None;
    for round in 0..rounds {
        eprintln!("# perf: timing builds, round {} ...", round + 1);
        for slot in width_ms.iter_mut() {
            let (dl, ms) = time_ms(build(Parallelism::Threads(slot.0)));
            slot.1 = slot.1.min(ms);
            match &reference {
                None => reference = Some(dl),
                Some(r) if round == 0 => assert_identical_labels(&format!("t{}", slot.0), &dl, r),
                Some(_) => {}
            }
        }
        let (dl, ms) = time_ms(build(Parallelism::Auto));
        auto_ms = auto_ms.min(ms);
        if round == 0 {
            assert_identical_labels("auto", &dl, reference.as_ref().expect("built above"));
        }
    }
    let reference = reference.expect("at least one round ran");
    // Build leg of the thread-scaling curve. Widths already timed
    // reuse their numbers; the rest are measured — and label
    // identity-checked — here.
    let mut verified: Vec<usize> = TIMED_WIDTHS.to_vec();
    let scaling_build_ms: Vec<f64> = SCALING_WIDTHS
        .iter()
        .map(|&t| match width_ms.iter().find(|&&(w, _)| w == t) {
            Some(&(_, ms)) => ms,
            None => {
                eprintln!("# perf[scaling]: timing build at {t} threads ...");
                let (dl, ms) = best_ms(rounds, build(Parallelism::Threads(t)));
                assert_identical_labels(&format!("t{t}"), &dl, &reference);
                verified.push(t);
                ms
            }
        })
        .collect();
    // The full identity matrix: every tested width emits
    // byte-identical labels.
    for width in IDENTITY_WIDTHS {
        if !verified.contains(&width) {
            eprintln!("# perf: verifying label identity at {width} threads ...");
            let dl = build(Parallelism::Threads(width))();
            assert_identical_labels(&format!("t{width}"), &dl, &reference);
        }
    }
    let build = EngineTimings {
        width_ms,
        auto_ms,
        auto_threads: Parallelism::Auto.resolve(n),
    };

    // --- Headline query paths. -------------------------------------
    let threads = host_cores;
    let (main, oracle, pairs) = run_family("random_dag", &dag, queries, rounds, threads, opts.seed);

    // --- Per-layer verdicts (off the timed path), over the *same*
    // pair workload the throughput and stage numbers came from.
    // Oracle filters are projected into original-vertex space, so
    // classification takes original ids directly.
    let filters = oracle.filters();
    let mut counts: HashMap<FilterVerdict, usize> = HashMap::new();
    for &(u, v) in &pairs {
        *counts.entry(filters.classify(u, v)).or_insert(0) += 1;
    }
    let verdict_counts: Vec<(FilterVerdict, usize)> = FilterVerdict::ALL
        .iter()
        .map(|&v| (v, counts.get(&v).copied().unwrap_or(0)))
        .collect();

    // --- The additional graph families. -----------------------------
    let (chain_n, chain_chains, chain_cross, krn_scale, krn_edges) = if opts.quick {
        (4_000, 20, 400, 12, 16_000)
    } else {
        (48_000, 48, 4_800, 16, 192_000)
    };
    eprintln!("# perf: generating deep_chain_dag(n={chain_n}, chains={chain_chains}) ...");
    let chain = gen::deep_chain_dag(chain_n, chain_chains, chain_cross, opts.seed);
    eprintln!("# perf: generating kronecker_dag(scale={krn_scale}, edges={krn_edges}) ...");
    let kron = gen::kronecker_dag(krn_scale, krn_edges, opts.seed);
    let families = vec![
        run_family("deep_chain", &chain, queries, rounds, threads, opts.seed).0,
        run_family("kronecker", &kron, queries, rounds, threads, opts.seed).0,
    ];

    // --- Cold start: save → drop → open, owned vs mapped. -----------
    let cold_start = run_cold_start(&oracle, &pairs, rounds, opts.seed);

    // --- Query leg of the thread-scaling curve, same index + pairs
    // as the headline numbers so the curve is comparable.
    let mut scaling = Vec::with_capacity(SCALING_WIDTHS.len());
    for (&t, &build_ms) in SCALING_WIDTHS.iter().zip(&scaling_build_ms) {
        eprintln!("# perf[scaling]: filtered batch at {t} thread(s) ...");
        let (answers, ms) = best_ms(rounds, || oracle.reaches_batch(&pairs, t));
        assert_eq!(
            answers.iter().filter(|&&b| b).count(),
            main.reachable,
            "scaling run at {t} threads changed the answers"
        );
        scaling.push(ScalingStep {
            threads: t,
            build_ms,
            query_qps: queries as f64 / (ms / 1e3).max(f64::MIN_POSITIVE),
        });
    }

    // --- Metrics overhead on the same index + pairs. ----------------
    let metrics_overhead = run_metrics_overhead(&oracle, &pairs, threads, rounds);

    // --- Dynamic mixed read/mutate stage (durable namespace, WAL +
    // background rebuilds under concurrent readers). -----------------
    let dynamic = if opts.quick {
        run_dynamic(
            12_000,
            48_000,
            2_000,
            400,
            (host_cores - 1).clamp(1, 2),
            opts.seed,
        )
    } else {
        run_dynamic(n, m, 10_000, 1_500, (host_cores - 1).clamp(1, 3), opts.seed)
    };

    // --- Wire sweep through a child-process reactor server. ---------
    let wire = opts.wire_server.as_deref().map(|exe| {
        run_wire(exe, opts.quick, opts.seed, host_cores)
            .unwrap_or_else(|e| panic!("wire stage failed: {e}"))
    });

    // --- Overload drill against a budget-limited child server. ------
    let wire_overload = opts.wire_server.as_deref().map(|exe| {
        run_overload(exe, opts.quick, opts.seed, host_cores)
            .unwrap_or_else(|e| panic!("overload stage failed: {e}"))
    });

    PerfReport {
        quick: opts.quick,
        seed: opts.seed,
        host_cores,
        query_threads: threads,
        main,
        filter_integers: filters.size_in_integers(),
        signature_bytes: oracle.inner().labeling().mask_bytes(),
        build,
        identity_widths: IDENTITY_WIDTHS.to_vec(),
        verdict_counts,
        families,
        cold_start,
        scaling,
        metrics_overhead,
        dynamic,
        wire,
        wire_overload,
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
    server_exe: &std::path::Path,
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

/// The wire stage: sweeps [`loadgen::run_load`] over the connection
/// counts against one [`with_wire_server`] child.
fn run_wire(
    server_exe: &std::path::Path,
    quick: bool,
    seed: u64,
    host_cores: usize,
) -> Result<WireReport, String> {
    // Quick mode stays under the 1024-fd default soft limit of stock
    // CI runners; the full sweep assumes `ulimit -n` has been raised
    // (the perf workflow does so explicitly).
    let (n, m) = wire_graph(quick);
    let (sweep, queries_per_step): (&[usize], u64) = if quick {
        (&[64, 512], 100_000)
    } else {
        (&[100, 1_000, 10_000], 300_000)
    };
    let pipeline = 8;
    let loadgen_threads = host_cores.clamp(1, 8);

    eprintln!("# perf[wire]: spawning server ({n} vertices, {m} edges) ...");
    with_wire_server(server_exe, &[n as u64, m as u64, seed], |addr| {
        let mut steps = Vec::with_capacity(sweep.len());
        for &connections in sweep {
            eprintln!("# perf[wire]: sweeping {connections} connections ...");
            let report = loadgen::run_load(&LoadSpec {
                addr,
                ns: "bench".to_string(),
                vertices: n as u32,
                connections,
                threads: loadgen_threads,
                pipeline_depth: pipeline,
                queries: queries_per_step,
                seed,
            })
            .map_err(|e| format!("wire sweep at {connections} connections: {e}"))?;
            steps.push(WireStep {
                connections,
                qps: report.qps(),
                queries: report.queries,
                errors: report.errors,
                p50_ns: report.latency.p50(),
                p99_ns: report.latency.p99(),
                p999_ns: report.latency.p999(),
            });
        }
        Ok(WireReport {
            pipeline,
            loadgen_threads,
            steps,
        })
    })
}

/// The overload drill. Runs a [`with_wire_server`] child with admission
/// budgets (`shed_inflight_hwm`, `shed_coalesced_pairs`, a 1 s request
/// deadline) sized to admit roughly `1/OVERLOAD_FACTOR` of the offered
/// in-flight load, then drives it flat out and reports the degradation
/// shape: typed shed fraction, goodput, and accepted-reply percentiles.
fn run_overload(
    server_exe: &std::path::Path,
    quick: bool,
    seed: u64,
    host_cores: usize,
) -> Result<OverloadStage, String> {
    let (n, m) = wire_graph(quick);
    let (connections, queries) = if quick {
        (64usize, 80_000u64)
    } else {
        (256usize, 300_000u64)
    };
    let pipeline = 8usize;
    let factor = OVERLOAD_FACTOR;
    let inflight = connections * pipeline;
    let hwm = (inflight / factor).max(1);
    let loadgen_threads = host_cores.clamp(1, 8);

    eprintln!(
        "# perf[overload]: spawning budget-limited server \
         (hwm {hwm}, {factor}x offered in-flight {inflight}) ..."
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
            threads: loadgen_threads,
            pipeline_depth: pipeline,
            queries,
            seed: seed ^ 0x0BAD,
        })
        .map_err(|e| format!("overload drill: {e}"))?;
        Ok(OverloadStage {
            connections,
            pipeline,
            factor,
            shed_inflight_hwm: hwm,
            offered: report.queries + report.shed + report.deadline_exceeded,
            queries: report.queries,
            shed: report.shed,
            deadline_exceeded: report.deadline_exceeded,
            errors: report.errors,
            shed_fraction: report.shed_fraction(),
            goodput_qps: report.qps(),
            accepted_p50_ns: report.latency.p50(),
            accepted_p99_ns: report.latency.p99(),
        })
    })
}

impl PerfReport {
    /// CI sanity invariants: the filter stack must decide *some*
    /// queries, the filtered hot path must not be slower than the
    /// unfiltered one, and `Parallelism::Auto` must land within 10% of
    /// the best timed width (plus a small absolute slack so quick-mode
    /// timing noise on tiny graphs cannot flake CI).
    pub fn check(&self) -> Result<(), String> {
        if self.main.filter_hit_rate <= 0.0 {
            return Err("filter hit-rate is zero — the pre-filter stack decided nothing".into());
        }
        // 5% tolerance: the two sides are interleaved best-of-N, but a
        // shared CI host still jitters single windows; the invariant is
        // "the filter stack is not a pessimization", not an exact
        // ordering of two noisy samples.
        if self.main.filtered_qps < self.main.unfiltered_qps * 0.95 {
            return Err(format!(
                "filtered throughput {:.0} q/s fell below unfiltered {:.0} q/s",
                self.main.filtered_qps, self.main.unfiltered_qps
            ));
        }
        let best = self.build.best_ms();
        let bar = best * 1.10 + 25.0;
        if self.build.auto_ms > bar {
            return Err(format!(
                "Parallelism::Auto picked a loser: {:.1} ms vs best width {:.1} ms \
                 (allowed {:.1} ms)",
                self.build.auto_ms, best, bar
            ));
        }
        for f in std::iter::once(&self.main).chain(&self.families) {
            if f.tally.total() != f.queries as u64 {
                return Err(format!(
                    "{}: stage tally accounts {} of {} queries",
                    f.kind,
                    f.tally.total(),
                    f.queries
                ));
            }
        }
        // The mapping's reason to exist: on the full run, a mapped open
        // must beat reading the same arena into the heap severalfold.
        // (Quick mode's index is small enough that constant costs blur
        // the ratio, so the gate binds on full runs only.)
        if !self.quick && self.cold_start.speedup() < COLD_START_MIN_SPEEDUP {
            return Err(format!(
                "mapped open is only {:.1}x faster than the read-fallback open \
                 ({:.2} ms vs {:.2} ms); the gate is {COLD_START_MIN_SPEEDUP}x",
                self.cold_start.speedup(),
                self.cold_start.mapped_open_ms,
                self.cold_start.read_open_ms
            ));
        }
        // Scaling sanity: on a multi-core host, the best parallel
        // width must at least match one thread (same 5% / small-ms
        // noise allowances as above). On a 1-core host extra threads
        // are pure overhead, so the curve is recorded but not gated —
        // the CI `perf-multicore` job is where this gate has teeth.
        if self.host_cores >= 2 {
            let seq = self
                .scaling
                .iter()
                .find(|s| s.threads == 1)
                .ok_or("scaling curve is missing the 1-thread point")?;
            let parallel = self.scaling.iter().filter(|s| s.threads > 1);
            let best_qps = parallel.clone().map(|s| s.query_qps).fold(0.0, f64::max);
            if best_qps < seq.query_qps * 0.95 {
                return Err(format!(
                    "parallel batch query never matched one thread: best {:.0} q/s \
                     vs 1-thread {:.0} q/s",
                    best_qps, seq.query_qps
                ));
            }
            let best_build = parallel.map(|s| s.build_ms).fold(f64::INFINITY, f64::min);
            if best_build > seq.build_ms * 1.05 + 25.0 {
                return Err(format!(
                    "parallel build never matched one thread: best {:.1} ms \
                     vs 1-thread {:.1} ms",
                    best_build, seq.build_ms
                ));
            }
        }
        // The observability layer's headline promise: one histogram
        // record per batch chunk must not cost measurable throughput.
        // Both loops are interleaved best-of-N over the identical
        // code path, so a miss here is overhead, not scheduler noise.
        if self.metrics_overhead.ratio() < OVERHEAD_FLOOR {
            return Err(format!(
                "instrumented chunked query throughput {:.0} q/s is below {:.0}% of plain \
                 {:.0} q/s",
                self.metrics_overhead.instrumented_qps,
                OVERHEAD_FLOOR * 100.0,
                self.metrics_overhead.plain_qps
            ));
        }
        // The non-blocking-rebuild promise: the stage must have seen
        // at least one background reindex, and reads overlapping it
        // must never have queued behind the rebuild.
        if self.dynamic.rebuilds < 1 {
            return Err(
                "dynamic stage observed no background rebuild — the threshold never fired".into(),
            );
        }
        if self.dynamic.reads_during_rebuild > 0
            && self.dynamic.read_p99_during_rebuild_ns > READ_STALL_BOUND_NS
        {
            return Err(format!(
                "reads during background rebuild stalled: p99 {:.2} ms exceeds the \
                 {:.0} ms bound (readers must answer through the overlay, not wait \
                 for the reindex)",
                self.dynamic.read_p99_during_rebuild_ns as f64 / 1e6,
                READ_STALL_BOUND_NS as f64 / 1e6
            ));
        }
        // Wire floor: every sweep step — including the 10k-socket one —
        // must clear a deliberately low QPS bar with zero error
        // replies. Catches a serving tier that collapses or starts
        // refusing under connection pressure.
        if let Some(wire) = &self.wire {
            let floor = if self.quick {
                WIRE_FLOOR_QUICK_QPS
            } else {
                WIRE_FLOOR_FULL_QPS
            };
            for step in &wire.steps {
                if step.errors > 0 {
                    return Err(format!(
                        "wire sweep at {} connections saw {} error replies",
                        step.connections, step.errors
                    ));
                }
                if step.qps < floor {
                    return Err(format!(
                        "wire sweep at {} connections fell to {:.0} q/s \
                         (floor {:.0} q/s)",
                        step.connections, step.qps, floor
                    ));
                }
            }
        }
        // Overload drill: the shed rate at `OVERLOAD_FACTOR`x load must
        // be nonzero (the limiter is on) but bounded (the server still
        // does useful work), every refusal must be typed (zero untyped
        // errors), and the traffic the server *chose* to admit must
        // have stayed fast.
        if let Some(ov) = &self.wire_overload {
            if ov.errors > 0 {
                return Err(format!(
                    "overload drill saw {} untyped error replies — refusals must be typed",
                    ov.errors
                ));
            }
            if ov.shed == 0 {
                return Err(format!(
                    "overload drill at {}x the admission budget never shed",
                    ov.factor
                ));
            }
            if ov.shed_fraction >= 0.95 {
                return Err(format!(
                    "overload drill shed {:.1}% — the server did almost no useful work",
                    ov.shed_fraction * 100.0
                ));
            }
            if ov.queries == 0 {
                return Err("overload drill admitted zero queries".into());
            }
            if ov.accepted_p99_ns > OVERLOAD_ACCEPTED_P99_BOUND_NS {
                return Err(format!(
                    "accepted-reply p99 {:.1} ms exceeds the {:.0} ms overload bound — \
                     admission control stopped protecting admitted traffic",
                    ov.accepted_p99_ns as f64 / 1e6,
                    OVERLOAD_ACCEPTED_P99_BOUND_NS as f64 / 1e6
                ));
            }
        }
        Ok(())
    }

    fn family_json(f: &FamilyReport, indent: &str) -> String {
        format!(
            r#"{indent}{{
{indent}  "kind": "{kind}",
{indent}  "vertices": {n},
{indent}  "edges": {m},
{indent}  "components": {components},
{indent}  "label_entries": {label_entries},
{indent}  "build_auto_ms": {build_auto:.2},
{indent}  "queries": {queries},
{indent}  "reachable": {reachable},
{indent}  "unfiltered_qps": {unfiltered:.0},
{indent}  "filtered_qps": {filtered:.0},
{indent}  "speedup_filtered_vs_unfiltered": {speedup:.3},
{indent}  "filter_hit_rate": {hit_rate:.4},
{indent}  "stages": {{
{indent}    "filter_decided": {filter_decided},
{indent}    "signature_cut": {signature_cut},
{indent}    "merged": {merged}
{indent}  }}
{indent}}}"#,
            indent = indent,
            kind = f.kind,
            n = f.n,
            m = f.m,
            components = f.components,
            label_entries = f.label_entries,
            build_auto = f.build_auto_ms,
            queries = f.queries,
            reachable = f.reachable,
            unfiltered = f.unfiltered_qps,
            filtered = f.filtered_qps,
            speedup = f.query_speedup(),
            hit_rate = f.filter_hit_rate,
            filter_decided = f.tally.filter_decided,
            signature_cut = f.tally.signature_cut,
            merged = f.tally.merged,
        )
    }

    /// The machine-readable report (schema 9).
    pub fn to_json(&self) -> String {
        let scaling = self
            .scaling
            .iter()
            .map(|s| {
                format!(
                    "    {{ \"threads\": {}, \"build_ms\": {:.2}, \"query_qps\": {:.0} }}",
                    s.threads, s.build_ms, s.query_qps
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let wire = match &self.wire {
            None => "null".to_string(),
            Some(w) => {
                let steps = w
                    .steps
                    .iter()
                    .map(|s| {
                        format!(
                            "      {{ \"connections\": {}, \"qps\": {:.0}, \
                             \"queries\": {}, \"errors\": {}, \"p50_ns\": {}, \
                             \"p99_ns\": {}, \"p999_ns\": {} }}",
                            s.connections,
                            s.qps,
                            s.queries,
                            s.errors,
                            s.p50_ns,
                            s.p99_ns,
                            s.p999_ns
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!(
                    r#"{{
    "pipeline": {pipeline},
    "loadgen_threads": {threads},
    "qps_floor": {floor:.0},
    "steps": [
{steps}
    ]
  }}"#,
                    pipeline = w.pipeline,
                    threads = w.loadgen_threads,
                    floor = if self.quick {
                        WIRE_FLOOR_QUICK_QPS
                    } else {
                        WIRE_FLOOR_FULL_QPS
                    },
                )
            }
        };
        let wire_overload = match &self.wire_overload {
            None => "null".to_string(),
            Some(ov) => format!(
                r#"{{
    "connections": {connections},
    "pipeline": {pipeline},
    "factor": {factor},
    "shed_inflight_hwm": {hwm},
    "offered": {offered},
    "queries": {queries},
    "shed": {shed},
    "deadline_exceeded": {deadline_exceeded},
    "errors": {errors},
    "shed_fraction": {shed_fraction:.4},
    "goodput_qps": {goodput:.0},
    "accepted_p50_ns": {p50},
    "accepted_p99_ns": {p99},
    "accepted_p99_bound_ns": {p99_bound}
  }}"#,
                connections = ov.connections,
                pipeline = ov.pipeline,
                factor = ov.factor,
                hwm = ov.shed_inflight_hwm,
                offered = ov.offered,
                queries = ov.queries,
                shed = ov.shed,
                deadline_exceeded = ov.deadline_exceeded,
                errors = ov.errors,
                shed_fraction = ov.shed_fraction,
                goodput = ov.goodput_qps,
                p50 = ov.accepted_p50_ns,
                p99 = ov.accepted_p99_ns,
                p99_bound = OVERLOAD_ACCEPTED_P99_BOUND_NS,
            ),
        };
        let verdicts = self
            .verdict_counts
            .iter()
            .map(|(v, c)| format!("    \"{}\": {c}", v.name()))
            .collect::<Vec<_>>()
            .join(",\n");
        let widths = self
            .build
            .width_ms
            .iter()
            .map(|(t, ms)| format!("    \"threads_{t}_ms\": {ms:.2}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let identity = self
            .identity_widths
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let families = self
            .families
            .iter()
            .map(|f| Self::family_json(f, "    "))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            r#"{{
  "bench": "perf",
  "schema": 9,
  "quick": {quick},
  "seed": {seed},
  "host_cores": {host_cores},
  "graph": {{
    "kind": "random_dag",
    "vertices": {n},
    "edges": {m},
    "components": {components}
  }},
  "index": {{
    "label_entries": {label_entries},
    "filter_integers": {filter_integers},
    "signature_bytes": {signature_bytes}
  }},
  "build": {{
{widths},
    "auto_ms": {auto:.2},
    "auto_threads": {auto_threads},
    "identical_label_thread_counts": [{identity}]
  }},
  "query": {{
    "queries": {queries},
    "threads": {threads},
    "reachable": {reachable},
    "unfiltered_qps": {unfiltered_qps:.0},
    "filtered_qps": {filtered_qps:.0},
    "speedup_filtered_vs_unfiltered": {query_speedup:.3},
    "stages": {{
      "filter_decided": {filter_decided},
      "signature_cut": {signature_cut},
      "merged": {merged}
    }}
  }},
  "filters": {{
{verdicts},
    "hit_rate": {hit_rate:.4}
  }},
  "families": [
{families}
  ],
  "cold_start": {{
    "file_bytes": {file_bytes},
    "read_open_ms": {read_open:.3},
    "mapped_open_ms": {mapped_open:.3},
    "mapped_unverified_open_ms": {mapped_unverified:.3},
    "mapped_vs_read_speedup": {cold_speedup:.2}
  }},
  "scaling": [
{scaling}
  ],
  "metrics_overhead": {{
    "chunk_pairs": {overhead_chunk},
    "plain_qps": {overhead_plain:.0},
    "instrumented_qps": {overhead_inst:.0},
    "ratio": {overhead_ratio:.4},
    "ratio_floor": {overhead_floor:.2}
  }},
  "dynamic": {{
    "vertices": {dyn_n},
    "seed_edges": {dyn_m},
    "mutations": {dyn_mutations},
    "rejected": {dyn_rejected},
    "mutation_qps": {dyn_mut_qps:.0},
    "rebuild_threshold": {dyn_threshold},
    "rebuilds": {dyn_rebuilds},
    "reader_threads": {dyn_readers},
    "reads": {dyn_reads},
    "read_p50_ns": {dyn_p50},
    "read_p99_ns": {dyn_p99},
    "reads_during_rebuild": {dyn_reads_rebuild},
    "read_p99_during_rebuild_ns": {dyn_p99_rebuild},
    "read_max_during_rebuild_ns": {dyn_max_rebuild},
    "read_stall_bound_ns": {dyn_bound}
  }},
  "wire": {wire},
  "wire_overload": {wire_overload}
}}"#,
            quick = self.quick,
            seed = self.seed,
            host_cores = self.host_cores,
            n = self.main.n,
            m = self.main.m,
            components = self.main.components,
            label_entries = self.main.label_entries,
            filter_integers = self.filter_integers,
            signature_bytes = self.signature_bytes,
            auto = self.build.auto_ms,
            auto_threads = self.build.auto_threads,
            queries = self.main.queries,
            threads = self.query_threads,
            reachable = self.main.reachable,
            unfiltered_qps = self.main.unfiltered_qps,
            filtered_qps = self.main.filtered_qps,
            query_speedup = self.main.query_speedup(),
            filter_decided = self.main.tally.filter_decided,
            signature_cut = self.main.tally.signature_cut,
            merged = self.main.tally.merged,
            hit_rate = self.main.filter_hit_rate,
            overhead_chunk = self.metrics_overhead.chunk_pairs,
            overhead_plain = self.metrics_overhead.plain_qps,
            overhead_inst = self.metrics_overhead.instrumented_qps,
            overhead_ratio = self.metrics_overhead.ratio(),
            overhead_floor = OVERHEAD_FLOOR,
            dyn_n = self.dynamic.vertices,
            dyn_m = self.dynamic.seed_edges,
            dyn_mutations = self.dynamic.mutations,
            dyn_rejected = self.dynamic.rejected,
            dyn_mut_qps = self.dynamic.mutation_qps,
            dyn_threshold = self.dynamic.rebuild_threshold,
            dyn_rebuilds = self.dynamic.rebuilds,
            dyn_readers = self.dynamic.reader_threads,
            dyn_reads = self.dynamic.reads,
            dyn_p50 = self.dynamic.read_p50_ns,
            dyn_p99 = self.dynamic.read_p99_ns,
            dyn_reads_rebuild = self.dynamic.reads_during_rebuild,
            dyn_p99_rebuild = self.dynamic.read_p99_during_rebuild_ns,
            dyn_max_rebuild = self.dynamic.read_max_during_rebuild_ns,
            dyn_bound = READ_STALL_BOUND_NS,
            file_bytes = self.cold_start.file_bytes,
            read_open = self.cold_start.read_open_ms,
            mapped_open = self.cold_start.mapped_open_ms,
            mapped_unverified = self.cold_start.mapped_unverified_open_ms,
            cold_speedup = self.cold_start.speedup(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_report_is_consistent_and_serializes() {
        let report = run_perf_tiny_for_tests();
        assert_eq!(report.verdict_counts.len(), FilterVerdict::ALL.len());
        assert!(report.cold_start.read_open_ms > 0.0);
        assert!(report.cold_start.mapped_open_ms > 0.0);
        assert!(report.cold_start.file_bytes % 64 == 0);
        assert_eq!(report.main.tally.total(), report.main.queries as u64);
        for f in &report.families {
            assert_eq!(f.tally.total(), f.queries as u64, "{}", f.kind);
        }
        assert!(report.main.filter_hit_rate > 0.0 && report.main.filter_hit_rate <= 1.0);
        let json = report.to_json();
        for key in [
            "\"threads_1_ms\"",
            "\"threads_2_ms\"",
            "\"filtered_qps\"",
            "\"signature_cut\"",
            "\"deep_chain\"",
            "\"kronecker\"",
            "\"schema\": 9",
            "\"hit_rate\"",
            "\"cold_start\"",
            "\"read_open_ms\"",
            "\"mapped_open_ms\"",
            "\"mapped_vs_read_speedup\"",
            "\"scaling\"",
            "\"query_qps\"",
            "\"metrics_overhead\"",
            "\"instrumented_qps\"",
            "\"wire\": null",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
    }

    #[test]
    fn wire_report_serializes_and_check_gates_floor_and_errors() {
        let mut report = run_perf_tiny_for_tests();
        report.main.filtered_qps = report.main.filtered_qps.max(report.main.unfiltered_qps);
        report.wire = Some(WireReport {
            pipeline: 8,
            loadgen_threads: 2,
            steps: vec![
                WireStep {
                    connections: 64,
                    qps: 200_000.0,
                    queries: 100_000,
                    errors: 0,
                    p50_ns: 120_000,
                    p99_ns: 900_000,
                    p999_ns: 2_400_000,
                },
                WireStep {
                    connections: 512,
                    qps: 150_000.0,
                    queries: 100_000,
                    errors: 0,
                    p50_ns: 250_000,
                    p99_ns: 1_500_000,
                    p999_ns: 4_000_000,
                },
            ],
        });
        report.check().expect("healthy wire sweep passes");
        let json = report.to_json();
        for key in [
            "\"qps_floor\"",
            "\"connections\": 512",
            "\"loadgen_threads\": 2",
            "\"p50_ns\": 250000",
            "\"p99_ns\": 1500000",
            "\"p999_ns\": 4000000",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("\"mode\""), "vestigial mode key in {json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        report.wire.as_mut().unwrap().steps[1].qps = 10.0;
        let err = report.check().unwrap_err();
        assert!(err.contains("fell to"), "{err}");

        report.wire.as_mut().unwrap().steps[1].qps = 150_000.0;
        report.wire.as_mut().unwrap().steps[0].errors = 3;
        let err = report.check().unwrap_err();
        assert!(err.contains("error replies"), "{err}");
    }

    #[test]
    fn check_gates_a_flat_scaling_curve_on_multicore_hosts() {
        let mut report = run_perf_tiny_for_tests();
        report.main.filtered_qps = report.main.filtered_qps.max(report.main.unfiltered_qps);
        // 1-core hosts record the curve but never gate it.
        report.scaling = vec![
            ScalingStep {
                threads: 1,
                build_ms: 10.0,
                query_qps: 1_000_000.0,
            },
            ScalingStep {
                threads: 4,
                build_ms: 40.0,
                query_qps: 200_000.0,
            },
        ];
        report.host_cores = 1;
        report.check().expect("1-core host is not gated");
        // On a multi-core host the same flat curve fails.
        report.host_cores = 4;
        let err = report.check().unwrap_err();
        assert!(err.contains("parallel batch query"), "{err}");
        // A healthy curve passes.
        report.scaling[1].query_qps = 2_000_000.0;
        report.scaling[1].build_ms = 6.0;
        report.check().expect("healthy curve passes");
    }

    #[test]
    fn check_gates_metrics_overhead() {
        let mut report = run_perf_tiny_for_tests();
        report.main.filtered_qps = report.main.filtered_qps.max(report.main.unfiltered_qps);
        report.check().expect("tiny report passes");
        report.metrics_overhead.instrumented_qps = report.metrics_overhead.plain_qps * 0.5;
        let err = report.check().unwrap_err();
        assert!(err.contains("instrumented"), "{err}");
    }

    #[test]
    fn check_gates_cold_start_on_full_runs_only() {
        let mut report = run_perf_tiny_for_tests();
        report.main.filtered_qps = report.main.filtered_qps.max(report.main.unfiltered_qps);
        report.cold_start.read_open_ms = 3.0;
        report.cold_start.mapped_open_ms = 1.0;
        report.check().expect("quick runs do not gate cold start");
        report.quick = false;
        let err = report.check().unwrap_err();
        assert!(err.contains("read-fallback"), "{err}");
        report.cold_start.read_open_ms = 5.0;
        report.check().expect("5x clears the gate");
    }

    #[test]
    fn check_rejects_a_losing_auto_engine() {
        let mut report = run_perf_tiny_for_tests();
        // Normalize debug-build timing noise out of the invariant not
        // under test (the real run measures in release mode).
        report.main.filtered_qps = report.main.filtered_qps.max(report.main.unfiltered_qps);
        report.check().expect("tiny report passes");
        report.build.auto_ms = report.build.best_ms() * 2.0 + 100.0;
        let err = report.check().unwrap_err();
        assert!(err.contains("picked a loser"), "{err}");
    }

    /// A miniature run through the real plumbing so the debug-build
    /// test suite stays fast.
    fn run_perf_tiny_for_tests() -> PerfReport {
        // The real dynamic stage at toy scale: enough mutations over a
        // threshold of 24 to force several background rebuilds, then
        // pin the rebuild-overlap tail healthy — debug-build timing
        // noise on a 400-vertex graph is not what the gate probes.
        let mut dynamic = run_dynamic(400, 1_200, 150, 24, 1, 5);
        assert!(dynamic.rebuilds >= 1, "tiny dynamic stage never rebuilt");
        assert_eq!(dynamic.mutations, 150);
        dynamic.read_p99_during_rebuild_ns =
            dynamic.read_p99_during_rebuild_ns.min(READ_STALL_BOUND_NS);
        let dag = gen::random_dag(300, 1_200, 5);
        let chain = gen::deep_chain_dag(300, 6, 40, 5);
        let kron = gen::kronecker_dag(8, 700, 5);
        let (main, oracle, pairs) = run_family("random_dag", &dag, 5_000, 1, 2, 5);
        let cold_start = run_cold_start(&oracle, &pairs, 1, 5);
        // Exercise the real stage for its internal cross-checks, then
        // pin the ratio healthy — debug-build timing noise on a
        // two-chunk workload is not what the gate tests probe.
        let mut metrics_overhead = run_metrics_overhead(&oracle, &pairs, 2, 1);
        metrics_overhead.instrumented_qps = metrics_overhead
            .instrumented_qps
            .max(metrics_overhead.plain_qps);
        let families = vec![
            run_family("deep_chain", &chain, 5_000, 1, 2, 5).0,
            run_family("kronecker", &kron, 5_000, 1, 2, 5).0,
        ];
        let mut counts: HashMap<FilterVerdict, usize> = HashMap::new();
        for &(u, v) in &pairs {
            *counts.entry(oracle.filters().classify(u, v)).or_insert(0) += 1;
        }
        PerfReport {
            quick: true,
            seed: 5,
            host_cores: 1,
            query_threads: 2,
            main,
            filter_integers: oracle.filters().size_in_integers(),
            signature_bytes: oracle.inner().labeling().mask_bytes(),
            build: EngineTimings {
                width_ms: vec![(1, 2.0), (2, 2.5), (4, 2.6)],
                auto_ms: 2.0,
                auto_threads: 1,
            },
            identity_widths: IDENTITY_WIDTHS.to_vec(),
            verdict_counts: FilterVerdict::ALL
                .iter()
                .map(|&v| (v, counts.get(&v).copied().unwrap_or(0)))
                .collect(),
            families,
            cold_start,
            scaling: SCALING_WIDTHS
                .iter()
                .map(|&t| ScalingStep {
                    threads: t,
                    build_ms: 4.0 / t as f64 + 1.0,
                    query_qps: 1_000_000.0 * t as f64,
                })
                .collect(),
            metrics_overhead,
            dynamic,
            wire: None,
            wire_overload: None,
        }
    }

    #[test]
    fn check_gates_the_dynamic_stage() {
        let mut report = run_perf_tiny_for_tests();
        report.main.filtered_qps = report.main.filtered_qps.max(report.main.unfiltered_qps);
        report.check().expect("tiny report passes");
        let json = report.to_json();
        for key in [
            "\"dynamic\"",
            "\"mutation_qps\"",
            "\"rebuilds\"",
            "\"read_p99_during_rebuild_ns\"",
            "\"read_stall_bound_ns\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No rebuild observed ⇒ the stage measured nothing.
        let rebuilds = report.dynamic.rebuilds;
        report.dynamic.rebuilds = 0;
        let err = report.check().unwrap_err();
        assert!(err.contains("no background rebuild"), "{err}");
        report.dynamic.rebuilds = rebuilds;
        // Readers queued behind the reindex ⇒ fail.
        report.dynamic.reads_during_rebuild = report.dynamic.reads_during_rebuild.max(1);
        report.dynamic.read_p99_during_rebuild_ns = READ_STALL_BOUND_NS * 20;
        let err = report.check().unwrap_err();
        assert!(err.contains("stalled"), "{err}");
    }

    #[test]
    fn check_gates_the_overload_stage() {
        let mut report = run_perf_tiny_for_tests();
        report.main.filtered_qps = report.main.filtered_qps.max(report.main.unfiltered_qps);
        report.wire_overload = Some(OverloadStage {
            connections: 64,
            pipeline: 8,
            factor: 3,
            shed_inflight_hwm: 170,
            offered: 90_000,
            queries: 30_000,
            shed: 58_000,
            deadline_exceeded: 2_000,
            errors: 0,
            shed_fraction: 58_000.0 / 90_000.0,
            goodput_qps: 120_000.0,
            accepted_p50_ns: 1_000_000,
            accepted_p99_ns: 90_000_000,
        });
        report.check().expect("healthy overload stage passes");
        let json = report.to_json();
        for key in [
            "\"wire_overload\"",
            "\"shed_fraction\"",
            "\"goodput_qps\"",
            "\"accepted_p99_ns\"",
            "\"accepted_p99_bound_ns\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No sheds at 3x load ⇒ the limiter never engaged.
        report.wire_overload.as_mut().unwrap().shed = 0;
        let err = report.check().unwrap_err();
        assert!(err.contains("never shed"), "{err}");
        report.wire_overload.as_mut().unwrap().shed = 58_000;
        // Untyped errors ⇒ refusals leaked out as ERROR replies.
        report.wire_overload.as_mut().unwrap().errors = 3;
        let err = report.check().unwrap_err();
        assert!(err.contains("typed"), "{err}");
        report.wire_overload.as_mut().unwrap().errors = 0;
        // Slow accepted traffic ⇒ admission control stopped helping.
        report.wire_overload.as_mut().unwrap().accepted_p99_ns = OVERLOAD_ACCEPTED_P99_BOUND_NS + 1;
        let err = report.check().unwrap_err();
        assert!(err.contains("p99"), "{err}");
    }
}
