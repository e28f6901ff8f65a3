//! `paper` — regenerate the tables and figures of the VLDB 2013
//! reachability-oracle evaluation on the synthetic dataset analogues.
//!
//! Run `paper help` for the commands and flags; the `USAGE` text below
//! is the one list of them.
//!
//! Query-time cells are the total milliseconds for the whole workload
//! (`--queries`, default 20 000), mirroring the paper's "running time
//! of a total of 100,000 reachability queries". "—" marks builds that
//! exceeded the memory or time budget, exactly like the paper's
//! out-of-memory / 24-hour entries.

use std::time::Duration;

use hoplite_bench::runner::{run_suite, MethodId, RunConfig};
use hoplite_bench::tables::{render, render_suite, Projection};
use hoplite_bench::{large_datasets, small_datasets, DatasetSpec};

const USAGE: &str = "\
paper — regenerate the VLDB 2013 reachability-oracle evaluation

usage: paper <command> [--scale-small=F] [--scale-large=F] [--queries=N]
                       [--budget-mb=N] [--time-cap-s=N] [--seed=N]

commands:
  table1   dataset statistics (Table 1)
  table2   query time, equal load, small graphs (Table 2)
  table3   query time, random load, small graphs (Table 3)
  table4   construction time, small graphs (Table 4)
  table5   query time, equal load, large graphs (Table 5)
  table6   query time, random load, large graphs (Table 6)
  table7   construction time, large graphs (Table 7)
  fig3     index size, small graphs (Figure 3)
  fig4     index size, large graphs (Figure 4)
  small    tables 2-4 + figure 3 from one measured suite
  large    tables 5-7 + figure 4 from one measured suite
  all      everything above

  backbone      hierarchy shrinkage per level (§4.1)
  verify        validate every method against ground truth
  smoke         fast non-timed sanity check (one dataset, one method)
  ablation      DL order / HL eps / core-labeler tables
  scarab-depth  recursive SCARAB study (§2.3's open option)
  perf          hot-path JSON benchmark: DL build, query filters,
                thread scaling, cold start, metrics overhead, a dynamic
                stage, and a wire sweep (100/1k/10k connections on full
                runs) plus an overload drill against a child server
                (flags: --quick --check --out=FILE --seed=N --no-wire)
  help          this text";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return;
    }
    if command == "perf" {
        perf_cmd(&args[1..]);
        return;
    }
    // Hidden: the perf wire stage re-invokes this binary as the server
    // side of the sweep (own process == own fd budget).
    if command == "__wire-server" {
        wire_server_cmd(&args[1..]);
        return;
    }
    let mut cfg = RunConfig::default();
    for a in &args[1..] {
        let Some((key, val)) = a.split_once('=') else {
            eprintln!("unrecognized flag {a} (expected --key=value)");
            std::process::exit(2);
        };
        match key {
            "--scale-small" => cfg.scale_small = parse(a, val),
            "--scale-large" => cfg.scale_large = parse(a, val),
            "--queries" => cfg.queries = parse::<u64>(a, val) as usize,
            "--budget-mb" => cfg.budget_bytes = parse_budget_mb(val).unwrap_or_else(|| bad_flag(a)),
            "--time-cap-s" => cfg.time_budget = Duration::from_secs(parse(a, val)),
            "--seed" => cfg.seed = parse(a, val),
            _ => {
                eprintln!("unknown flag {key}");
                std::process::exit(2);
            }
        }
    }

    let small_all = [
        Projection::EqualQuery,
        Projection::RandomQuery,
        Projection::Construction,
        Projection::IndexSize,
    ];
    match command.as_str() {
        "table1" => table1(&cfg),
        "table2" => small_suite(&cfg, &[Projection::EqualQuery]),
        "table3" => small_suite(&cfg, &[Projection::RandomQuery]),
        "table4" => small_suite(&cfg, &[Projection::Construction]),
        "fig3" => small_suite(&cfg, &[Projection::IndexSize]),
        "table5" => large_suite(&cfg, &[Projection::EqualQuery]),
        "table6" => large_suite(&cfg, &[Projection::RandomQuery]),
        "table7" => large_suite(&cfg, &[Projection::Construction]),
        "fig4" => large_suite(&cfg, &[Projection::IndexSize]),
        "small" => small_suite(&cfg, &small_all),
        "large" => large_suite(&cfg, &small_all),
        "backbone" => backbone_stats(&cfg),
        "verify" => verify(&cfg),
        "smoke" => smoke(&cfg),
        "ablation" => ablation(&cfg),
        "scarab-depth" => scarab_depth(&cfg),
        "all" => {
            table1(&cfg);
            small_suite(&cfg, &small_all);
            large_suite(&cfg, &small_all);
            backbone_stats(&cfg);
        }
        other => {
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    }
}

/// `paper perf [--quick] [--check] [--out=FILE] [--seed=N] [--no-wire]`
/// — runs the hot-path suite (`hoplite_bench::perf`), prints the JSON
/// report to stdout (and `--out=FILE`), one line per stage to stderr,
/// and with `--check` exits 1 naming every failed row of
/// `perf::gate_table`. `--no-wire` skips both wire stages (the sweep
/// and the overload drill), for sandboxes without loopback TCP.
fn perf_cmd(args: &[String]) {
    use hoplite_bench::perf::{json_number, run_perf, PerfOptions};
    // The wire stage re-invokes this very binary as the server child.
    let mut opts = PerfOptions {
        wire_server: std::env::current_exe().ok(),
        ..PerfOptions::default()
    };
    let mut check = false;
    let mut out: Option<String> = None;
    for a in args {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--check" => check = true,
            "--no-wire" => opts.wire_server = None,
            other => match other.split_once('=') {
                Some(("--out", path)) => out = Some(path.to_string()),
                Some(("--seed", val)) => opts.seed = parse(a, val),
                _ => {
                    eprintln!(
                        "unknown perf flag {a} \
                         (expected --quick, --check, --no-wire, --out=, --seed=)"
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    let report = run_perf(&opts);
    let json = report.to_json();
    println!("{json}");
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("perf: could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("# perf: report written to {path}");
    }
    for stage in &report.stages {
        let metrics: Vec<String> = stage
            .metrics
            .iter()
            .map(|&(name, value)| format!("{name}={}", json_number(value)))
            .collect();
        eprintln!("# perf[{}]: {}", stage.name, metrics.join(" "));
    }
    if opts.wire_server.is_none() {
        eprintln!("# perf: wire sweep and overload drill skipped (--no-wire)");
    }
    if check {
        if let Err(failed) = report.check() {
            for gate in &failed {
                eprintln!("perf check FAILED: {gate}");
            }
            std::process::exit(1);
        }
        eprintln!("# perf: all {} gates passed", report.gates.len());
    }
}

/// `paper __wire-server <vertices> <edges> <seed> [<hwm> <pairs>
/// <deadline_ms>]` — the server side of the perf wire sweep and (with
/// the trailing budget args) of the overload drill. Builds an oracle
/// over the same `random_dag` family the headline numbers use, binds
/// a server on an ephemeral loopback port, prints `ADDR <addr>` so the
/// parent can connect, and serves until stdin reaches EOF — which is
/// how the parent says "done" without signals.
fn wire_server_cmd(args: &[String]) {
    use hoplite_core::Oracle;
    use hoplite_server::{Registry, Server, ServerConfig};
    use std::io::{Read, Write};
    use std::sync::Arc;

    if args.len() != 3 && args.len() != 6 {
        eprintln!(
            "usage: paper __wire-server <vertices> <edges> <seed> \
             [<shed_inflight_hwm> <shed_pairs> <deadline_ms>]"
        );
        std::process::exit(2);
    }
    let n: usize = parse("vertices", &args[0]);
    let m: usize = parse("edges", &args[1]);
    let seed: u64 = parse("seed", &args[2]);

    let dag = hoplite_graph::gen::random_dag(n, m, seed);
    let oracle = Oracle::new(dag.graph());
    let registry = Arc::new(Registry::new());
    registry
        .insert_frozen("bench", oracle)
        .expect("fresh registry accepts one namespace");
    let mut config = ServerConfig::default();
    // The overload drill passes admission budgets; zero means "leave
    // that knob off".
    if args.len() == 6 {
        let hwm: usize = parse("shed_inflight_hwm", &args[3]);
        let pairs: usize = parse("shed_pairs", &args[4]);
        let deadline_ms: u64 = parse("deadline_ms", &args[5]);
        if hwm > 0 {
            config.shed_inflight_hwm = Some(hwm);
        }
        if pairs > 0 {
            config.shed_coalesced_pairs = Some(pairs);
        }
        if deadline_ms > 0 {
            config.request_deadline = Some(Duration::from_millis(deadline_ms));
        }
    }
    let handle = Server::bind("127.0.0.1:0", registry, config).expect("bind loopback server");
    println!("ADDR {}", handle.local_addr());
    std::io::stdout().flush().expect("flush address line");

    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.shutdown();
}

fn parse<T: std::str::FromStr>(flag: &str, val: &str) -> T {
    val.parse().unwrap_or_else(|_| bad_flag(flag))
}

fn bad_flag(flag: &str) -> ! {
    eprintln!("could not parse flag {flag}");
    std::process::exit(2);
}

/// `--budget-mb=N` in bytes; `None` when N is not a number or N MiB
/// does not fit in a `u64` (a shift would silently wrap to a tiny
/// budget).
fn parse_budget_mb(val: &str) -> Option<u64> {
    val.parse::<u64>().ok()?.checked_mul(1 << 20)
}

/// Table 1: dataset statistics — the paper's sizes next to the
/// generated analogue sizes at the current scale, plus the structural
/// quantities (height, closure density) that drive index behaviour.
fn table1(cfg: &RunConfig) {
    use hoplite_graph::stats::estimate_closure_density;
    let headers: Vec<String> = [
        "paper |V|",
        "paper |E|",
        "scale",
        "gen |V|",
        "gen |E|",
        "height",
        "tc-density",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let specs: Vec<DatasetSpec> = small_datasets()
        .into_iter()
        .chain(large_datasets())
        .collect();
    for spec in specs {
        let scale = if spec.small {
            cfg.scale_small
        } else {
            cfg.scale_large
        };
        let dag = spec.generate(scale);
        let density = estimate_closure_density(&dag, 500, cfg.seed);
        rows.push(spec.name.to_string());
        cells.push(vec![
            spec.paper_vertices.to_string(),
            spec.paper_edges.to_string(),
            format!("{scale}"),
            dag.num_vertices().to_string(),
            dag.num_edges().to_string(),
            dag.height().to_string(),
            format!("{density:.4}"),
        ]);
    }
    println!(
        "{}",
        render(
            "Table 1: Real datasets (paper sizes vs generated analogues)",
            "Dataset",
            &headers,
            &rows,
            &cells
        )
    );
}

/// Ablation tables for the paper's design choices:
/// DL vertex order (§5.2), HL backbone locality ε and core-size stop
/// rule (§4.1), and the Formula-3 core labeler (Algorithm 1, Line 2).
fn ablation(cfg: &RunConfig) {
    use hoplite_bench::workload::equal_workload;
    use hoplite_core::{
        CoreLabeler, DistributionLabeling, DlConfig, HierarchicalLabeling, HlConfig, OrderKind,
        ReachIndex,
    };
    use std::time::Instant;

    let picks = ["agrocyc", "arxiv", "p2p"];
    let specs: Vec<DatasetSpec> = small_datasets()
        .into_iter()
        .filter(|s| picks.contains(&s.name))
        .collect();

    // --- DL vertex order. -------------------------------------------
    let orders = [
        ("deg-product", OrderKind::DegProduct),
        ("deg-sum", OrderKind::DegSum),
        ("random", OrderKind::Random(cfg.seed)),
        ("topological", OrderKind::Topological),
        // §5.2's "principled but needs the TC" order — the ablation
        // quantifies how close the cheap deg-product proxy gets.
        ("cov-size", OrderKind::CoverSize),
    ];
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for spec in &specs {
        let dag = spec.generate(cfg.scale_small);
        let load = equal_workload(&dag, cfg.queries.min(20_000), cfg.seed);
        for (name, order) in orders {
            let t = Instant::now();
            let dl = DistributionLabeling::build(&dag, &DlConfig { order });
            let build_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let mut hits = 0usize;
            for &(u, v) in &load.pairs {
                hits += dl.query(u, v) as usize;
            }
            let query_ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(hits);
            rows.push(format!("{}/{name}", spec.name));
            cells.push(vec![
                format!("{build_ms:.1}"),
                format!("{:.1}", dl.labeling().total_entries() as f64 / 1e3),
                format!("{query_ms:.1}"),
            ]);
        }
    }
    println!(
        "{}",
        render(
            "Ablation A: DL vertex order (build ms / label k-ints / equal-load query ms, §5.2)",
            "Dataset/order",
            &["build".into(), "k-ints".into(), "query".into()],
            &rows,
            &cells
        )
    );

    // --- HL locality ε and core limit. --------------------------------
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for spec in &specs {
        let dag = spec.generate(cfg.scale_small);
        let load = equal_workload(&dag, cfg.queries.min(20_000), cfg.seed);
        for eps in [1u32, 2, 3] {
            let hl_cfg = HlConfig {
                eps,
                ..HlConfig::default()
            };
            let t = Instant::now();
            let hl = HierarchicalLabeling::build(&dag, &hl_cfg);
            let build_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let mut hits = 0usize;
            for &(u, v) in &load.pairs {
                hits += hl.query(u, v) as usize;
            }
            let query_ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(hits);
            rows.push(format!("{}/eps={eps}", spec.name));
            cells.push(vec![
                format!("{build_ms:.1}"),
                format!("{:.1}", hl.labeling().total_entries() as f64 / 1e3),
                format!("{query_ms:.1}"),
                format!("{}", hl.level_sizes().len()),
            ]);
        }
    }
    println!(
        "{}",
        render(
            "Ablation B: HL backbone locality eps (build ms / label k-ints / query ms / levels, §4)",
            "Dataset/eps",
            &["build".into(), "k-ints".into(), "query".into(), "levels".into()],
            &rows,
            &cells
        )
    );

    // --- Core labeler: DL vs Formula 3. -------------------------------
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for spec in &specs {
        let dag = spec.generate(cfg.scale_small);
        for (name, core_labeler) in [
            ("dl-core", CoreLabeler::Distribution),
            ("formula3", CoreLabeler::EpsilonNeighborhood),
        ] {
            let hl_cfg = HlConfig {
                core_labeler,
                core_size_limit: 64,
                ..HlConfig::default()
            };
            let t = Instant::now();
            let hl = HierarchicalLabeling::build(&dag, &hl_cfg);
            let build_ms = t.elapsed().as_secs_f64() * 1e3;
            rows.push(format!("{}/{name}", spec.name));
            cells.push(vec![
                format!("{build_ms:.1}"),
                format!("{:.1}", hl.labeling().total_entries() as f64 / 1e3),
                if hl.core_formula3_used() {
                    "yes"
                } else {
                    "no (fallback)"
                }
                .into(),
            ]);
        }
    }
    println!(
        "{}",
        render(
            "Ablation C: core labeler (build ms / label k-ints / Formula 3 used, Alg. 1 Line 2)",
            "Dataset/core",
            &["build".into(), "k-ints".into(), "formula3".into()],
            &rows,
            &cells
        )
    );
}

/// Recursive SCARAB study. §2.3 observes that "theoretically, the
/// reachability backbone could be applied recursively; this may
/// further slow down query performance. In \[23\], this option is not
/// studied." — here we measure it: GRAIL behind a depth-0/1/2
/// backbone stack, reporting backbone size, build time, and
/// equal-load query time per depth.
fn scarab_depth(cfg: &RunConfig) {
    use hoplite_baselines::{Grail, Scarab};
    use hoplite_bench::workload::equal_workload;
    use hoplite_core::ReachIndex;
    use std::time::Instant;

    let picks = ["agrocyc", "arxiv", "p2p"];
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for spec in small_datasets()
        .into_iter()
        .filter(|s| picks.contains(&s.name))
    {
        let dag = spec.generate(cfg.scale_small);
        let load = equal_workload(&dag, cfg.queries.min(20_000), cfg.seed);
        let mut measure = |label: &str, verts: usize, build: &dyn Fn() -> Box<dyn ReachIndex>| {
            let t = Instant::now();
            let idx = build();
            let build_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let mut hits = 0usize;
            for &(u, v) in &load.pairs {
                hits += idx.query(u, v) as usize;
            }
            let query_ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(hits);
            rows.push(format!("{}/{label}", spec.name));
            cells.push(vec![
                verts.to_string(),
                format!("{build_ms:.1}"),
                format!("{query_ms:.1}"),
            ]);
        };
        let seed = cfg.seed;
        measure("depth0", dag.num_vertices(), &|| {
            Box::new(Grail::build(&dag, 5, seed))
        });
        let d1 = Scarab::build(&dag, 2, "GL*", |bb| Ok(Grail::build(bb, 5, seed)))
            .expect("grail never fails");
        let d1_size = d1.backbone_size();
        drop(d1);
        measure("depth1", d1_size, &|| {
            Box::new(Scarab::build(&dag, 2, "GL*", |bb| Ok(Grail::build(bb, 5, seed))).unwrap())
        });
        let d2 = Scarab::build(&dag, 2, "GL**", |bb| {
            Scarab::build(bb, 2, "GL*", |bb2| Ok(Grail::build(bb2, 5, seed)))
        })
        .expect("grail never fails");
        let d2_size = d2.inner().backbone_size();
        drop(d2);
        measure("depth2", d2_size, &|| {
            Box::new(
                Scarab::build(&dag, 2, "GL**", |bb| {
                    Scarab::build(bb, 2, "GL*", |bb2| Ok(Grail::build(bb2, 5, seed)))
                })
                .unwrap(),
            )
        });
    }
    println!(
        "{}",
        render(
            "Recursive SCARAB (GRAIL inner): innermost |V| / build ms / equal-load query ms",
            "Dataset/depth",
            &["inner |V|".into(), "build".into(), "query".into()],
            &rows,
            &cells
        )
    );
}

/// Smoke verification: every method on every small analogue at a tiny
/// scale, validated against workload ground truth. Exits non-zero on
/// the first wrong answer — run this before trusting any table.
fn verify(cfg: &RunConfig) {
    use hoplite_bench::runner::{build_method, validate};
    use hoplite_bench::workload::{equal_workload, random_workload};
    let scale = cfg.scale_small.min(0.05);
    let mut checked = 0usize;
    let mut skipped = 0usize;
    for spec in small_datasets() {
        let dag = spec.generate(scale);
        let equal = equal_workload(&dag, 1_000, cfg.seed);
        let random = random_workload(&dag, 1_000, cfg.seed ^ 1);
        for mid in MethodId::paper_columns() {
            let outcome = build_method(mid, &dag, cfg);
            match outcome.index {
                Some(idx) => {
                    if !validate(idx.as_ref(), &equal) || !validate(idx.as_ref(), &random) {
                        eprintln!("FAIL: {} on {} gave a wrong answer", mid.name(), spec.name);
                        std::process::exit(1);
                    }
                    checked += 1;
                }
                None => skipped += 1,
            }
        }
    }
    println!(
        "verify: {checked} method/dataset builds validated against ground truth \
         ({skipped} skipped on budget), 0 mismatches"
    );
}

/// Fast non-timed sanity check for CI: one tiny dataset, the paper's
/// recommended method, validated against workload ground truth. Proves
/// the harness still launches end to end in well under a second.
fn smoke(cfg: &RunConfig) {
    use hoplite_bench::runner::{build_method, validate};
    use hoplite_bench::workload::random_workload;
    let spec = small_datasets()
        .into_iter()
        .next()
        .expect("at least one small dataset");
    let dag = spec.generate(cfg.scale_small.min(0.05));
    let workload = random_workload(&dag, 500, cfg.seed);
    let outcome = build_method(MethodId::Dl, &dag, cfg);
    let idx = outcome
        .index
        .unwrap_or_else(|| panic!("DL build failed: {:?}", outcome.error));
    if !validate(idx.as_ref(), &workload) {
        eprintln!("FAIL: smoke validation mismatch on {}", spec.name);
        std::process::exit(1);
    }
    println!(
        "smoke ok: {} ({} vertices, {} edges), DL validated on {} queries",
        spec.name,
        dag.num_vertices(),
        dag.num_edges(),
        workload.len()
    );
}

/// Hierarchy shrinkage per dataset (§4.1: "the vertex set V_i shrinks
/// very quickly"; SCARAB reports backbones near 1/10 of |V|). One row
/// per dataset, one column per decomposition level.
fn backbone_stats(cfg: &RunConfig) {
    use hoplite_core::hierarchy::{Hierarchy, HierarchyConfig};
    let hcfg = HierarchyConfig {
        eps: 2,
        core_size_limit: 32,
        max_levels: 7,
    };
    let mut rows = Vec::new();
    let mut cells: Vec<Vec<String>> = Vec::new();
    let mut max_levels = 0usize;
    for spec in small_datasets() {
        let dag = spec.generate(cfg.scale_small);
        let hier = Hierarchy::build(&dag, &hcfg);
        let sizes = hier.level_sizes();
        max_levels = max_levels.max(sizes.len());
        rows.push(spec.name.to_string());
        cells.push(sizes.iter().map(|s| s.to_string()).collect());
    }
    for row in &mut cells {
        row.resize(max_levels, String::new());
    }
    let headers: Vec<String> = (0..max_levels).map(|i| format!("|V{i}|")).collect();
    println!(
        "{}",
        render(
            "Hierarchy shrinkage (eps=2) on small analogues (Section 4.1)",
            "Dataset",
            &headers,
            &rows,
            &cells
        )
    );
}

fn small_suite(cfg: &RunConfig, projections: &[Projection]) {
    let specs = small_datasets();
    eprintln!(
        "# building 12 methods x {} small datasets (scale {}) ...",
        specs.len(),
        cfg.scale_small
    );
    let suite = run_suite(&specs, &MethodId::paper_columns(), cfg);
    for &p in projections {
        let title = match p {
            Projection::EqualQuery => {
                "Table 2: Query Time (ms) Based on Equal Query of Small Real Datasets"
            }
            Projection::RandomQuery => {
                "Table 3: Query Time (ms) Based on Random Query of Small Real Datasets"
            }
            Projection::Construction => "Table 4: Construction Time (ms) of Small Real Datasets",
            Projection::IndexSize => {
                "Figure 3: Index Size on Small Real Graphs (1000s of integers)"
            }
        };
        println!("{}", render_suite(title, &suite, p));
    }
}

fn large_suite(cfg: &RunConfig, projections: &[Projection]) {
    let specs = large_datasets();
    eprintln!(
        "# building 12 methods x {} large datasets (scale {}) ...",
        specs.len(),
        cfg.scale_large
    );
    let suite = run_suite(&specs, &MethodId::paper_columns(), cfg);
    for &p in projections {
        let title = match p {
            Projection::EqualQuery => {
                "Table 5: Query Time (ms) Based on Equal Query of Large Real Datasets"
            }
            Projection::RandomQuery => {
                "Table 6: Query Time (ms) Based on Random Query of Large Real Datasets"
            }
            Projection::Construction => "Table 7: Construction Time (ms) of Large Real Datasets",
            Projection::IndexSize => {
                "Figure 4: Index Size on Large Real Graphs (1000s of integers)"
            }
        };
        println!("{}", render_suite(title, &suite, p));
    }
}

#[cfg(test)]
mod tests {
    use super::parse_budget_mb;

    #[test]
    fn budget_mb_converts_and_rejects_overflow() {
        assert_eq!(parse_budget_mb("1024"), Some(1 << 30));
        // 2^44 - 1 MiB is the largest budget that fits; 2^44 MiB is 2^64
        // bytes, which a shift would wrap to a 0-byte budget.
        assert_eq!(parse_budget_mb("17592186044415"), Some(u64::MAX << 20));
        assert_eq!(parse_budget_mb("17592186044416"), None);
        assert_eq!(parse_budget_mb("lots"), None);
    }
}
