//! Every workload and metric `hopbench` reports. `BENCHMARK.json` at
//! the repository root carries the same names, units, directions and
//! bounds; a unit test keeps the two in step.

/// A benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "point_reads",
        why: "single REACH frames on a mapped HOPL v3 arena: per-frame protocol, reactor and socket cost dominate; O(1) filters decide most pairs",
    },
    Workload {
        name: "batch_scan",
        why: "4096-pair BATCH frames on a deep-chain DAG built at startup: the filter-signature-merge kernel and DL construction dominate",
    },
    Workload {
        name: "durable_mixed",
        why: "REACH beside durable ADD/REMOVE_EDGE at 30/s, half the rate rebuilds keep up with: overlay reads and background rebuilds, gated by server CPU per op",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the server sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_qps",
        unit: "pairs/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "read_p90_us.lo",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "read_p50_us.hi",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "server_cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "index_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "server_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A per-layer metric from the traced run: the layer (module) it
/// measures, and the end-to-end metric and workload it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: Better::$better,
        }
    };
}

pub const PER_LAYER: &[PerLayer] = &[
    // hoplite_graph::io
    layer!("graph.io.read_ms", "ms", Lower),
    // core::oracle build spans (Oracle::with_config_traced)
    layer!("core.build.scc_condense_ms", "ms", Lower),
    layer!("core.build.order_ms", "ms", Lower),
    layer!("core.build.distribute_ms", "ms", Lower),
    layer!("core.build.freeze_ms", "ms", Lower),
    layer!("core.build.filters_ms", "ms", Lower),
    // core::label size
    layer!("core.label.entries", "count", Lower),
    // core::persist / store
    layer!("core.persist.open_ms", "ms", Lower),
    layer!("core.persist.arena_bytes", "B", Lower),
    // core::filter
    layer!("core.filter.decided_frac", "ratio", Higher),
    // core::label kernel
    layer!("core.label.sig_cut_frac", "ratio", Higher),
    layer!("core.label.merged_frac", "ratio", Lower),
    layer!("core.label.merge_ns", "ns", Lower),
    // core::oracle / parallel
    layer!("core.oracle.reach_ns", "ns", Lower),
    layer!("core.oracle.batch_ns_per_pair", "ns", Lower),
    // server::protocol
    layer!("server.protocol.decode_ns", "ns", Lower),
    layer!("server.protocol.encode_ns", "ns", Lower),
    // server::registry (self time)
    layer!("server.registry.reach_ns", "ns", Lower),
    // server::reactor and server::server (METRICS deltas)
    layer!("server.frames", "count", Higher),
    layer!("server.reactor.ticks", "count", Lower),
    layer!("server.reactor.tick_mean_ns", "ns", Lower),
    layer!("server.reactor.tick_p99_ns", "ns", Lower),
    layer!("server.reactor.frames_per_call", "ratio", Higher),
    layer!("server.inflight_p99", "frames", Lower),
    layer!("server.reply_mean_ns", "ns", Lower),
    layer!("server.reply_p99_ns", "ns", Lower),
    layer!("server.rebuilds", "count", Lower),
    layer!("ns.outcome.filter_frac", "ratio", Higher),
    layer!("ns.outcome.signature_frac", "ratio", Higher),
    layer!("ns.outcome.merge_frac", "ratio", Lower),
    // core::wal
    layer!("core.wal.append_ns", "ns", Lower),
    layer!("core.wal.sync_ns", "ns", Lower),
    layer!("core.wal.syncs_per_append", "ratio", Lower),
    layer!("core.wal.recover_ms", "ms", Lower),
    // core::dynamic
    layer!("core.dynamic.insert_ns", "ns", Lower),
    layer!("core.dynamic.reach_ns", "ns", Lower),
    layer!("core.dynamic.rebuild_ms", "ms", Lower),
    // server process (/proc)
    layer!("os.server_cpu_ms", "ms", Lower),
    layer!("os.server_ctxsw_voluntary", "count", Lower),
    layer!("os.server_ctxsw_involuntary", "count", Lower),
    // benchmark load generator and calibration
    layer!("bench.host.speed", "ratio", Higher),
    layer!("bench.gen.lateness_p99_us", "us", Lower),
    layer!("bench.gen.outstanding_max", "count", Lower),
    layer!("bench.wire.residual_ns", "ns", Lower),
    layer!("bench.trace.overhead", "ratio", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Unit and direction ("lower"/"higher") of any catalogued metric.
pub fn describe(name: &str) -> Option<(&'static str, &'static str)> {
    end_to_end(name)
        .map(|m| (m.unit, m.better.label()))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.unit, m.better.label()))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// Metric and workload names: a letter or digit, then letters,
    /// digits, `_`, `.` or `-`, at most 64 in all.
    pub(crate) fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key).and_then(Value::as_array).unwrap()
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric or workload name");
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = benchmark_json();
        let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);

        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (theirs, ours) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(theirs, "name"), ours.name);
            assert_eq!(field(theirs, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(
                field(theirs, "better"),
                ours.better.label(),
                "{}",
                ours.name
            );
            let bound = theirs.get("bound").and_then(Value::as_f64).unwrap();
            assert_eq!(bound, ours.bound, "{}", ours.name);
        }

        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (theirs, ours) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(theirs, "name"), ours.name);
            assert_eq!(field(theirs, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(
                field(theirs, "better"),
                ours.better.label(),
                "{}",
                ours.name
            );
        }
    }
}
