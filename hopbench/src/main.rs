//! `hopbench` — the repository's end-to-end benchmark.
//!
//! It generates each workload's inputs from a seed, starts the real
//! `hoplited serve` daemon as a child process, drives it over loopback
//! TCP from this one single-threaded process, checks every answer, and
//! prints every metric by name with its unit. A traced run (`--trace
//! 1`) repeats the workload and reports the per-layer breakdown
//! instead. See README.md beside this crate.

mod calibrate;
mod catalog;
mod compare;
mod json;
mod layers;
mod proc;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::workload::{Opts, Outcome};

const USAGE: &str = "\
hopbench — end-to-end benchmark of hoplited over loopback TCP

USAGE:
    hopbench [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE]
    hopbench compare PARENT_OUTPUT... -- CHANGE_OUTPUT...
    hopbench write-ceiling [--seed N] [--seconds S]

RUN:
    --workload NAME   one of the workloads below (default: all, in turn)
    --seed N          input seed (default 7)
    --seconds S       length of the measured phases (default 30)
    --trace 0|1       1 = traced run: per-layer metrics instead of end-to-end
    --trace FILE      traced run that writes its spans to FILE (FILE-WORKLOAD.ext
                      for each workload when no --workload is given)

    The last stdout line of a run is one JSON object: correct, attempted,
    failed, metrics. Lines before it start with `#`. hoplited must sit
    next to the hopbench executable.

COMPARE:
    Reads saved run output (any number of runs per file), and prints per
    workload and end-to-end metric the medians, quartiles and a verdict:
    better, worse, unchanged, or unresolved when the parent's own spread
    is wider than the metric's bound. Exits 1 when any metric is worse.

WRITE-CEILING:
    Serves durable_mixed's namespace and paces its writer at rising rates,
    S seconds each (default 10), until background rebuilds no longer keep
    up; prints each rate and the highest that kept up.
";

/// Metrics in the order they were measured: name, value, and a note
/// (sample count or base).
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, String)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, note: &str) {
        self.items.push((name.to_string(), value, note.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|(n, _, _)| n == name).map(|i| i.1)
    }

    /// Multiplies metric `name` by `factor`; returns the old value.
    pub fn scale(&mut self, name: &str, factor: f64) -> Option<f64> {
        let item = self.items.iter_mut().find(|(n, _, _)| n == name)?;
        let raw = item.1;
        item.1 *= factor;
        Some(raw)
    }
}

/// Splits `--key value` and `--key=value` flags.
fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        match key.split_once('=') {
            Some((k, v)) => flags.push((k.to_string(), v.to_string())),
            None => {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.push((key.to_string(), v.clone()));
            }
        }
    }
    Ok(flags)
}

/// The JSON result line: end-to-end metrics, or per-layer metrics for a
/// traced run. Every catalogued metric must be present and finite.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let names: Vec<(&str, &str)> = if trace {
        catalog::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let mut parts = Vec::new();
    for (name, unit) in names {
        let value = out
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} has no value ({value})"));
        }
        parts.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed + out.wrong,
        parts.join(", ")
    ))
}

fn parse_seed(value: &str) -> Result<u64, String> {
    value.parse().map_err(|e| format!("--seed: {e}"))
}

fn parse_seconds(value: &str) -> Result<f64, String> {
    let seconds: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(seconds)
}

/// The directory of this executable and the `hoplited` that must sit
/// beside it.
fn hoplited() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate hopbench: {e}"))?;
    let exe_dir = exe
        .parent()
        .ok_or("hopbench has no parent directory")?
        .to_path_buf();
    let bin = exe_dir.join("hoplited");
    if !bin.is_file() {
        return Err(format!(
            "hoplited not found next to hopbench (looked for {}); build it with \
             `cargo build --release --offline -p hoplite-server` into the same target directory",
            bin.display()
        ));
    }
    Ok((exe_dir, bin))
}

/// `FILE` with `-WORKLOAD` before its extension, so that a run of every
/// workload writes one trace file per workload.
fn per_workload(file: &Path, workload: &str) -> PathBuf {
    let stem = file.file_stem().unwrap_or_default().to_string_lossy();
    let name = match file.extension() {
        Some(ext) => format!("{stem}-{workload}.{}", ext.to_string_lossy()),
        None => format!("{stem}-{workload}"),
    };
    file.with_file_name(name)
}

/// Runs one or every workload; `Ok(true)` when every run was correct
/// with no failed operation.
fn run_cmd(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut trace_out: Option<PathBuf> = None;
    for (key, value) in parse_flags(args)? {
        match key.as_str() {
            "workload" => {
                workload = Some(
                    catalog::workload(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?
                        .name,
                )
            }
            "seed" => seed = parse_seed(&value)?,
            "seconds" => seconds = parse_seconds(&value)?,
            "trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                file => {
                    trace = true;
                    trace_out = Some(PathBuf::from(file));
                }
            },
            other => return Err(format!("unknown flag --{other}")),
        }
    }

    let (exe_dir, bin) = hoplited()?;
    let cpus = proc::pin_load()?;

    let workloads: Vec<&'static str> = match workload {
        Some(w) => vec![w],
        None => catalog::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let several = workloads.len() > 1;
    let mut all_ok = true;
    for name in workloads {
        let trace_file = match &trace_out {
            Some(file) if several => per_workload(file, name),
            Some(file) => file.clone(),
            None => exe_dir
                .join("hopbench-traces")
                .join(format!("{name}-seed{seed}.json")),
        };
        if trace {
            if let Some(parent) = trace_file.parent() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("create {}: {e}", parent.display()))?;
            }
        }
        println!(
            "# hopbench workload={name} seed={seed} seconds={seconds} trace={} ({})",
            trace as u8,
            cpus.describe()
        );
        let work = exe_dir
            .join("hopbench-work")
            .join(format!("{name}-{}", std::process::id()));
        let out = workload::run(
            Opts {
                workload: name,
                seed,
                seconds,
                trace,
                trace_out: trace_file,
            },
            bin.clone(),
            cpus.clone(),
            work,
        )?;
        for note in &out.notes {
            println!("# note: {note}");
        }
        for (metric, value, note) in &out.metrics.items {
            let (unit, better) = catalog::describe(metric).unwrap_or(("?", "?"));
            println!("# {metric} = {value} {unit} [{better} is better] ({note})");
        }
        for problem in &out.problems {
            println!("# PROBLEM: {problem}");
        }
        println!("{}", result_line(&out, trace)?);
        all_ok &= out.correct() && out.failed == 0;
    }
    Ok(all_ok)
}

/// `hopbench write-ceiling`: the write-rate ladder `durable_mixed`'s
/// writer pace is derived from.
fn write_ceiling_cmd(args: &[String]) -> Result<bool, String> {
    let (mut seed, mut seconds) = (7u64, 10.0f64);
    for (key, value) in parse_flags(args)? {
        match key.as_str() {
            "seed" => seed = parse_seed(&value)?,
            "seconds" => seconds = parse_seconds(&value)?,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let (exe_dir, bin) = hoplited()?;
    let cpus = proc::pin_load()?;
    println!(
        "# hopbench write-ceiling seed={seed} seconds={seconds} ({})",
        cpus.describe()
    );
    let rungs = workload::write_ceiling(
        Opts {
            workload: "durable_mixed",
            seed,
            seconds,
            trace: false,
            trace_out: PathBuf::new(),
        },
        bin,
        cpus,
        exe_dir
            .join("hopbench-work")
            .join(format!("write-ceiling-{}", std::process::id())),
    )?;
    println!(
        "{:>8} {:>9} {:>9} {:>13} {:>13} {:>13} {:>13} {:>12}  keeps up",
        "writes/s",
        "acked/s",
        "rebuilds",
        "rebuild busy",
        "overlay peak",
        "write p50 us",
        "write p99 us",
        "read p90 us"
    );
    for r in &rungs {
        println!(
            "{:>8} {:>9.1} {:>9} {:>13.3} {:>13} {:>13.1} {:>13.1} {:>12.1}  {}",
            r.rate,
            r.acked_per_sec,
            r.rebuilds,
            r.rebuild_busy,
            r.overlay_peak,
            r.write_p50_us,
            r.write_p99_us,
            r.read_p90_us,
            if r.keeps_up() { "yes" } else { "no" }
        );
    }
    match rungs.iter().take_while(|r| r.keeps_up()).last() {
        Some(top) => println!(
            "ceiling: {} writes/s; durable_mixed paces its writer at {} writes/s ({:.0}% of it)",
            top.rate,
            workload::WRITES_PER_SEC,
            100.0 * workload::WRITES_PER_SEC / top.rate
        ),
        None => println!("no rung kept up"),
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") => {
            print!("{USAGE}\nWORKLOADS:\n");
            for w in catalog::WORKLOADS {
                println!("    {:<14} {}", w.name, w.why);
            }
            Ok(true)
        }
        Some("compare") => compare::main(&args[1..]),
        Some("calibrate") => {
            println!("{}", calibrate::kernel());
            Ok(true)
        }
        Some("run") => run_cmd(&args[1..]),
        Some("write-ceiling") => write_ceiling_cmd(&args[1..]),
        _ => run_cmd(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("hopbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(trace: bool) -> Outcome {
        let mut out = Outcome::default();
        let names: Vec<&str> = if trace {
            catalog::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            catalog::END_TO_END.iter().map(|m| m.name).collect()
        };
        for (i, name) in names.iter().enumerate() {
            out.metrics.put(name, 1.5 + i as f64, "");
        }
        out.attempted = 10;
        out
    }

    #[test]
    fn result_line_carries_exactly_the_catalogued_names() {
        for trace in [false, true] {
            let line = result_line(&filled(trace), trace).unwrap();
            let doc = json::parse(&line).unwrap();
            let keys: Vec<&str> = doc
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc.get("metrics").and_then(json::Value::as_object).unwrap();
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = if trace {
                catalog::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                catalog::END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(emitted, expected);
            for (name, m) in metrics {
                assert_eq!(
                    m.get("unit").and_then(json::Value::as_str),
                    catalog::describe(name).map(|d| d.0)
                );
            }
        }
    }

    #[test]
    fn a_missing_or_empty_metric_fails_the_result() {
        let mut out = filled(false);
        out.metrics.items.retain(|(n, _, _)| n != "read_qps");
        assert!(result_line(&out, false).is_err());
        let mut out = filled(false);
        out.metrics.put("read_qps", f64::NAN, "");
        out.metrics
            .items
            .retain(|(n, v, _)| n != "read_qps" || v.is_nan());
        assert!(result_line(&out, false).is_err());
    }

    #[test]
    fn a_wrong_answer_makes_the_result_incorrect() {
        let mut out = filled(false);
        out.wrong = 1;
        let doc = json::parse(&result_line(&out, false).unwrap()).unwrap();
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(doc.get("failed").and_then(json::Value::as_f64), Some(1.0));
    }

    #[test]
    fn a_trace_file_for_every_workload_gets_the_workload_name() {
        assert_eq!(
            per_workload(Path::new("out/spans.json"), "batch_scan"),
            Path::new("out/spans-batch_scan.json")
        );
        assert_eq!(
            per_workload(Path::new("spans"), "point_reads"),
            Path::new("spans-point_reads")
        );
    }

    #[test]
    fn flags_take_both_spellings() {
        let args: Vec<String> = ["--seed=3", "--trace", "1"].map(String::from).to_vec();
        assert_eq!(
            parse_flags(&args).unwrap(),
            vec![("seed".into(), "3".into()), ("trace".into(), "1".into())]
        );
        assert!(parse_flags(&["--seed".to_string()]).is_err());
    }
}
