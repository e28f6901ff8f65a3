//! Per-layer numbers measured in process: the benchmark replays the
//! run's own inputs through each module's public functions and times
//! the calls. Only the traced run does this.

use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, BufReader, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use hoplite_core::wal::WalFile;
use hoplite_core::{
    BuildTrace, DlConfig, DynamicOracle, EdgeOp, OpenOptions, Oracle, QueryTally, Wal, WalConfig,
    WalDir,
};
use hoplite_graph::{io as gio, Dag};

use crate::stats::median;
use crate::Metrics;

/// The run's inputs, as the layers see them.
pub struct Inputs<'a> {
    pub dag: &'a Dag,
    /// The workload's graph as an edge list on disk.
    pub edge_list: &'a Path,
    /// The in-process oracle answering this run's pairs.
    pub oracle: &'a Oracle,
    /// A sample of the run's query pairs.
    pub pairs: &'a [(u32, u32)],
    /// Edge mutations of the kind the workload's writer sends.
    pub ops: &'a [EdgeOp],
    /// A WAL directory left behind by a killed server, when the
    /// workload has one.
    pub killed_wal_dir: Option<&'a Path>,
    /// Scratch space on the run's filesystem.
    pub work: &'a Path,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(&samples))
}

pub fn measure(inp: &Inputs, out: &mut Metrics) -> Result<(), String> {
    let io_err = |what: &str| {
        let what = what.to_string();
        move |e: io::Error| format!("{what}: {e}")
    };

    // hoplite_graph::io
    let read = time_median(3, || {
        let f = File::open(inp.edge_list).expect("edge list written by this run");
        gio::read_edge_list(BufReader::new(f)).expect("edge list parses")
    });
    out.put("graph.io.read_ms", ms(read), "median of 3");

    // core::oracle build phases
    let trace = BuildTrace::new();
    let built = Oracle::with_config_traced(inp.dag.graph(), &DlConfig::default(), &trace);
    for (span, metric) in [
        ("scc_condense", "core.build.scc_condense_ms"),
        ("order", "core.build.order_ms"),
        ("distribute", "core.build.distribute_ms"),
        ("freeze", "core.build.freeze_ms"),
        ("filters", "core.build.filters_ms"),
    ] {
        let ns: u64 = trace
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.duration_ns)
            .sum();
        out.put(metric, ns as f64 / 1e6, "one traced build");
    }
    out.put("core.label.entries", built.label_entries() as f64, "");
    drop(built);

    // core::persist / store
    let arena = inp.work.join("layer.hopl");
    let mut bytes = Vec::new();
    inp.oracle
        .save_arena(&mut bytes)
        .map_err(io_err("save arena"))?;
    fs::write(&arena, &bytes).map_err(io_err("write arena"))?;
    out.put("core.persist.arena_bytes", bytes.len() as f64, "");
    let open = time_median(5, || {
        Oracle::open_with(&arena, &OpenOptions::default()).expect("arena written by this run opens")
    });
    out.put(
        "core.persist.open_ms",
        ms(open),
        "mmap + verify, median of 5",
    );

    // core::filter and the core::label kernel
    let (_, tally) = inp.oracle.reaches_batch_tallied(inp.pairs, 1);
    let total = tally.total().max(1) as f64;
    out.put(
        "core.filter.decided_frac",
        tally.filter_decided as f64 / total,
        &format!("of {} pairs", tally.total()),
    );
    out.put(
        "core.label.sig_cut_frac",
        tally.signature_cut as f64 / total,
        &format!("of {} pairs", tally.total()),
    );
    out.put(
        "core.label.merged_frac",
        tally.merged as f64 / total,
        &format!("of {} pairs", tally.total()),
    );
    let labeling = inp.oracle.inner().labeling();
    let comp_of = inp.oracle.comp_of();
    let merged: Vec<(u32, u32)> = inp
        .pairs
        .iter()
        .filter_map(|&(u, v)| {
            let mut t = QueryTally::default();
            inp.oracle.reaches_tallied(u, v, &mut t);
            (t.merged == 1).then(|| (comp_of[u as usize], comp_of[v as usize]))
        })
        .collect();
    let merge = per_item_ns(&merged, |&(cu, cv)| labeling.query(cu, cv));
    out.put(
        "core.label.merge_ns",
        merge,
        &format!("{} merged pairs", merged.len()),
    );

    // core::oracle / parallel
    let reach = per_item_ns(inp.pairs, |&(u, v)| inp.oracle.reaches(u, v));
    out.put(
        "core.oracle.reach_ns",
        reach,
        &format!("{} pairs", inp.pairs.len()),
    );
    let batch = time_median(3, || inp.oracle.reaches_batch(inp.pairs, 1));
    out.put(
        "core.oracle.batch_ns_per_pair",
        batch.as_nanos() as f64 / inp.pairs.len().max(1) as f64,
        "1 thread, median of 3",
    );

    wal_layer(inp, out)?;
    dynamic_layer(inp, out);
    Ok(())
}

/// Mean ns per item of `f` over `items`, best of three passes.
fn per_item_ns<T>(items: &[T], f: impl Fn(&T) -> bool) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                black_box(f(black_box(item)));
            }
            t.elapsed()
        })
        .min()
        .expect("three passes");
    best.as_nanos() as f64 / items.len() as f64
}

/// A WAL file that counts and times its syncs.
struct TimedFile {
    file: File,
    syncs: u64,
    sync_ns: u64,
}

impl Write for TimedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl WalFile for TimedFile {
    fn sync(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.file.sync_data();
        self.sync_ns += t.elapsed().as_nanos() as u64;
        self.syncs += 1;
        r
    }
}

fn wal_layer(inp: &Inputs, out: &mut Metrics) -> Result<(), String> {
    let path = inp.work.join("layer.wal");
    let file = File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut wal = Wal::from_writer(
        TimedFile {
            file,
            syncs: 0,
            sync_ns: 0,
        },
        0,
        WalConfig::default(),
    );
    let t = Instant::now();
    for &op in inp.ops {
        wal.append(op).map_err(|e| format!("wal append: {e}"))?;
    }
    let total_ns = t.elapsed().as_nanos() as u64;
    let timed = wal.inner();
    let appends = inp.ops.len().max(1) as f64;
    let note = format!("{} appends, WalConfig::default", inp.ops.len());
    out.put(
        "core.wal.append_ns",
        total_ns.saturating_sub(timed.sync_ns) as f64 / appends,
        &note,
    );
    out.put(
        "core.wal.sync_ns",
        timed.sync_ns as f64 / timed.syncs.max(1) as f64,
        &format!("{} syncs", timed.syncs),
    );
    out.put(
        "core.wal.syncs_per_append",
        timed.syncs as f64 / appends,
        &note,
    );
    drop(wal);

    // Recovery: the killed server's directory when there is one (recover
    // is read-only), else a directory holding this run's ops.
    let owned;
    let dir = match inp.killed_wal_dir {
        Some(d) => d,
        None => {
            owned = inp.work.join("layer-waldir");
            let wd = WalDir::open(&owned).map_err(|e| format!("wal dir: {e}"))?;
            wd.initialize(inp.dag)
                .map_err(|e| format!("wal init: {e}"))?;
            let mut log = wd
                .durability(0, 0, 0, WalConfig::default())
                .map_err(|e| format!("wal open: {e}"))?;
            for &op in inp.ops {
                hoplite_core::Durability::log(&mut log, op).map_err(|e| format!("wal log: {e}"))?;
            }
            hoplite_core::Durability::sync(&mut log).map_err(|e| format!("wal sync: {e}"))?;
            &owned
        }
    };
    let wd = WalDir::open(dir).map_err(|e| format!("wal dir: {e}"))?;
    let recover = time_median(3, || wd.recover().expect("wal dir recovers"));
    out.put(
        "core.wal.recover_ms",
        ms(recover),
        if inp.killed_wal_dir.is_some() {
            "killed server's dir, median of 3"
        } else {
            "dir of this run's ops, median of 3"
        },
    );
    Ok(())
}

fn dynamic_layer(inp: &Inputs, out: &mut Metrics) {
    let mut dynamic = DynamicOracle::with_config(inp.dag.clone(), DlConfig::default(), usize::MAX);
    // One overlay's worth of inserts: the server rebuilds at this size.
    let inserts: Vec<(u32, u32)> = inp
        .ops
        .iter()
        .filter_map(|op| match *op {
            EdgeOp::Insert(u, v) => Some((u, v)),
            EdgeOp::Remove(..) => None,
        })
        .take(DynamicOracle::DEFAULT_REBUILD_THRESHOLD)
        .collect();
    let t = Instant::now();
    for &(u, v) in &inserts {
        dynamic
            .insert_edge(u, v)
            .expect("writer ops follow the topological order");
    }
    out.put(
        "core.dynamic.insert_ns",
        t.elapsed().as_nanos() as f64 / inserts.len().max(1) as f64,
        &format!("{} inserts, no durability", inserts.len()),
    );
    let pairs = &inp.pairs[..inp.pairs.len().min(1 << 14)];
    let reach = per_item_ns(pairs, |&(u, v)| dynamic.query(u, v));
    out.put(
        "core.dynamic.reach_ns",
        reach,
        &format!("overlay of {}", dynamic.pending_edges()),
    );
    let t = Instant::now();
    dynamic.rebuild();
    out.put(
        "core.dynamic.rebuild_ms",
        ms(t.elapsed()),
        "one inline rebuild",
    );
}
