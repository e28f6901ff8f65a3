//! `hopbench compare A… -- B…`: per workload and end-to-end metric,
//! the medians and quartiles of a parent's runs (A) and a change's runs
//! (B), and one verdict.

use std::collections::BTreeMap;

use crate::catalog::{Better, END_TO_END, WORKLOADS};
use crate::json::{self, Value};
use crate::stats::{quartiles, verdict, Verdict};

/// Metric values of one run.
pub type Run = BTreeMap<String, f64>;

/// Runs grouped by workload.
pub type Runs = BTreeMap<String, Vec<Run>>;

/// Reads saved `hopbench` output: every JSON result line, attributed to
/// the workload named by the `# hopbench workload=…` header before it.
pub fn parse_output(text: &str, runs: &mut Runs) -> Result<(), String> {
    let mut workload: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# hopbench ") {
            workload = rest
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("workload="))
                .map(str::to_string);
            continue;
        }
        if !line.starts_with('{') {
            continue;
        }
        let doc = json::parse(line)?;
        let Some(metrics) = doc.get("metrics").and_then(Value::as_object) else {
            continue;
        };
        let name = workload
            .clone()
            .ok_or("result line without a preceding `# hopbench workload=` header")?;
        let run: Run = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        runs.entry(name).or_default().push(run);
    }
    Ok(())
}

/// One line of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub parent: [f64; 3],
    pub change: [f64; 3],
    pub runs: (usize, usize),
    pub verdict: Verdict,
}

/// Compares every end-to-end metric on every workload both sides ran.
pub fn compare(parent: &Runs, change: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let (Some(a), Some(b)) = (parent.get(w.name), change.get(w.name)) else {
            continue;
        };
        for m in END_TO_END {
            let pick = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(m.name).copied())
                    .filter(|v| v.is_finite())
                    .collect()
            };
            let (va, vb) = (pick(a), pick(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: w.name.to_string(),
                metric: m.name,
                parent: quartiles(&va),
                change: quartiles(&vb),
                runs: (va.len(), vb.len()),
                verdict: verdict(&va, &vb, m.better == Better::Lower, m.bound),
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<16} {:>40} {:>40} {:>8}  verdict\n",
        "workload", "metric", "parent median [q1, q3] (n)", "change median [q1, q3] (n)", "delta"
    );
    for r in rows {
        let cell = |q: [f64; 3], n: usize| format!("{} [{}, {}] ({n})", g(q[1]), g(q[0]), g(q[2]));
        let delta = if r.parent[1] == 0.0 {
            f64::NAN
        } else {
            (r.change[1] - r.parent[1]) / r.parent[1] * 100.0
        };
        out.push_str(&format!(
            "{:<14} {:<16} {:>40} {:>40} {:>+7.1}%  {}\n",
            r.workload,
            r.metric,
            cell(r.parent, r.runs.0),
            cell(r.change, r.runs.1),
            delta,
            r.verdict.label()
        ));
    }
    out
}

/// Four significant digits, for table cells.
fn g(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-2) {
        format!("{v:.3e}")
    } else {
        format!("{:.4}", v)
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    }
}

/// `hopbench compare A… -- B…`; exits non-zero when any metric is
/// worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: hopbench compare PARENT_FILE... -- CHANGE_FILE...")?;
    let (a, b) = (&args[..split], &args[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one file on each side of `--`".into());
    }
    let load = |files: &[String]| -> Result<Runs, String> {
        let mut runs = Runs::new();
        for f in files {
            let text = std::fs::read_to_string(f).map_err(|e| format!("read {f}: {e}"))?;
            parse_output(&text, &mut runs).map_err(|e| format!("{f}: {e}"))?;
        }
        Ok(runs)
    };
    let rows = compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("no workload has runs on both sides".into());
    }
    print!("{}", render(&rows));
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(workload: &str, values: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = values
            .iter()
            .map(|(k, v)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
            .collect();
        format!(
            "# hopbench workload={workload} seed=1\n# read_qps = 1 pairs/s\n{{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{{}}}}}\n",
            metrics.join(", ")
        )
    }

    fn side(values: &[(f64, f64)]) -> Runs {
        let mut runs = Runs::new();
        let text: String = values
            .iter()
            .map(|&(qps, setup)| output("point_reads", &[("read_qps", qps), ("setup_s", setup)]))
            .collect();
        parse_output(&text, &mut runs).unwrap();
        runs
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn same_runs_are_unchanged() {
        let a = side(&[(100.0, 1.0), (101.0, 1.01), (99.0, 0.99), (100.5, 1.0)]);
        let rows = compare(&a, &a);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged));
    }

    #[test]
    fn slower_throughput_is_worse_and_faster_setup_is_better() {
        let a = side(&[(100.0, 1.0), (101.0, 1.01), (99.0, 0.99), (100.5, 1.0)]);
        let b = side(&[(60.0, 0.5), (61.0, 0.51), (59.0, 0.49), (60.5, 0.5)]);
        let rows = compare(&a, &b);
        assert_eq!(verdict_of(&rows, "read_qps"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Better);
        assert!(render(&rows).contains("worse"));
    }

    #[test]
    fn noisy_parent_is_unresolved() {
        // qps quartiles spread far wider than its 10% bound.
        let a = side(&[
            (60.0, 1.0),
            (100.0, 1.0),
            (140.0, 1.0),
            (80.0, 1.0),
            (120.0, 1.0),
        ]);
        let b = side(&[(95.0, 1.0), (96.0, 1.0), (97.0, 1.0)]);
        let rows = compare(&a, &b);
        assert_eq!(verdict_of(&rows, "read_qps"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Unchanged);
    }

    #[test]
    fn results_need_a_workload_header() {
        let mut runs = Runs::new();
        assert!(parse_output("{\"metrics\": {}}\n", &mut runs).is_err());
    }
}
