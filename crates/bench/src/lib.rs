//! # hoplite-bench
//!
//! Benchmark harness regenerating **every table and figure** of the
//! paper's evaluation (§6):
//!
//! * [`datasets`] — seeded synthetic analogues of the 27 real graphs in
//!   Table 1 (one generator family per dataset family), with a
//!   `--scale` knob.
//! * [`workload`] — the paper's two query loads: *equal*
//!   (≈50 % reachable / 50 % unreachable, 100 000 queries) and
//!   *random* (uniform vertex pairs).
//! * [`runner`] — builds each of the paper's 12 methods on each
//!   dataset under memory/time budgets, measuring construction time,
//!   index size, and query time; budget failures become the paper's
//!   "—" cells.
//! * [`tables`] — plain-text renderers shaped like Tables 1–7 and the
//!   index-size series of Figures 3–4.
//! * [`perf`] — the hot-path JSON benchmark behind `paper perf`
//!   (`BENCH_*.json`): stages of named metrics and one gate table. The
//!   DL build time, filtered vs unfiltered query throughput with
//!   per-layer filter verdicts and the filter/mask/merge stage tally,
//!   query thread scaling at 1, 2, 3, 4 and 8 threads, cold start, the
//!   instrumentation's cost per kernel call, a dynamic stage and the
//!   wire stages.
//!
//! The `paper` binary (`cargo run --release -p hoplite-bench --bin
//! paper -- all`) drives everything.

pub mod datasets;
pub mod perf;
pub mod runner;
pub mod tables;
pub mod workload;

pub use datasets::{large_datasets, small_datasets, DatasetSpec, Family};
pub use runner::{BuildOutcome, MethodId, RunConfig, SuiteResult};
pub use workload::{equal_workload, random_workload, Workload};
