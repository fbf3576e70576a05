//! The steadiness report: runs each workload repeatedly, each run a fresh
//! process on another seed, and prints every end-to-end metric's median,
//! quartiles and spread against its bound, the host steal of each set,
//! and the tracing overhead (traced minus untraced medians).

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::{Command, Stdio};

use pcod::serve::json::{self, Value};

use crate::{stats, WORKLOADS};

/// Untraced runs per workload, on seeds `1..=RUNS`: ten runs to take
/// quartiles over.
const RUNS: u64 = 10;
/// Traced runs per workload, on seeds from 1.
const TRACED_RUNS: u64 = 1;

/// The parsed output of one run.
struct RunResult {
    metrics: BTreeMap<String, f64>,
    meta: Value,
}

fn run_once(
    cod: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = Command::new(exe)
        .arg("--cod")
        .arg(cod)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().ok_or("no output")?)?;
    let meta = lines
        .find_map(|l| l.strip_prefix("meta "))
        .map(json::parse)
        .transpose()?
        .unwrap_or(Value::Null);
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed} reported incorrect answers"));
    }
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return Err("result has no metrics object".into());
    };
    let metrics = metrics
        .iter()
        .filter_map(|(k, v)| match v.get("value") {
            Some(Value::Num(x)) => Some((k.clone(), *x)),
            _ => None,
        })
        .collect();
    Ok(RunResult { metrics, meta })
}

fn meta_num(meta: &Value, key: &str) -> Option<f64> {
    match meta.get(key) {
        Some(Value::Num(x)) => Some(*x),
        _ => None,
    }
}

/// `BENCHMARK.json` from the working directory (the checkout root):
/// each end-to-end metric's bound, and the run length.
fn benchmark_file() -> Result<(HashMap<String, f64>, u64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| match (m.get("name")?.as_str()?, m.get("bound")?) {
            (name, Value::Num(b)) => Some((name.to_string(), *b)),
            _ => None,
        })
        .collect();
    let seconds = v
        .get("run_seconds")
        .and_then(Value::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    Ok((bounds, seconds))
}

fn f(v: Option<f64>) -> String {
    v.map_or("-".into(), |x| format!("{x:.4}"))
}

pub fn main(cod: &Path) -> Result<(), String> {
    let (bounds, seconds) = benchmark_file()?;
    let mut flagged = Vec::new();
    for w in WORKLOADS {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut meta_values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut steal = Vec::new();
        let mut invalid = 0;
        for seed in 1..=RUNS {
            let r = run_once(cod, w, seed, seconds, false)?;
            for (k, v) in r.metrics {
                values.entry(k).or_default().push(v);
            }
            if let Value::Obj(fields) = &r.meta {
                for (k, v) in fields {
                    if let Value::Num(x) = v {
                        meta_values.entry(k.clone()).or_default().push(*x);
                    }
                }
            }
            let st = meta_num(&r.meta, "steal_share").unwrap_or(0.0);
            let late = meta_num(&r.meta, "lateness_p90_ms")
                .map_or(String::new(), |l| format!(" lateness_p90_ms={l:.3}"));
            steal.push(st);
            invalid += (r.meta.get("valid") == Some(&Value::Bool(false))) as u32;
            let row: Vec<String> = values
                .iter()
                .map(|(k, v)| format!("{k}={}", f(v.last().copied())))
                .collect();
            println!(
                "run seed {seed}: steal {:.1}% {}{late}",
                100.0 * st,
                row.join(" ")
            );
        }
        println!(
            "== {w}: {RUNS} runs of {seconds} s, seeds 1..{RUNS}; steal mean {:.2}% max {:.2}%; invalid runs {invalid}",
            100.0 * steal.iter().sum::<f64>() / steal.len().max(1) as f64,
            100.0 * steal.iter().copied().fold(0.0, f64::max),
        );
        println!(
            "{:<18} {:>12} {:>12} {:>12} {:>8} {:>8}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        let mut untraced_median = BTreeMap::new();
        for (k, v) in &values {
            let (q1, q3) = stats::quartiles(v).unzip();
            let med = stats::median(v);
            let spread = stats::spread(v);
            let bound = bounds.get(k).copied();
            println!(
                "{k:<18} {:>12} {:>12} {:>12} {:>7.1}% {:>7}",
                f(med),
                f(q1),
                f(q3),
                100.0 * spread.unwrap_or(f64::NAN),
                bound.map_or("-".into(), |b| format!("{:.0}%", 100.0 * b)),
            );
            if let (Some(s), Some(b)) = (spread, bound) {
                if s > b / 3.0 {
                    flagged.push(format!(
                        "{w}/{k}: spread {:.1}% > a third of bound {:.0}%",
                        100.0 * s,
                        100.0 * b
                    ));
                }
            }
            if let Some(m) = med {
                untraced_median.insert(k.clone(), m);
            }
        }
        println!("-- run metadata (median, quartiles, spread)");
        for (k, v) in &meta_values {
            let (q1, q3) = stats::quartiles(v).unzip();
            println!(
                "{k:<18} {:>12} {:>12} {:>12} {:>7.1}%",
                f(stats::median(v)),
                f(q1),
                f(q3),
                100.0 * stats::spread(v).unwrap_or(f64::NAN),
            );
        }
        // Traced runs: per-layer medians, and the end-to-end values they
        // measured with tracing on, against the untraced medians.
        let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut traced_e2e: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for seed in 1..=TRACED_RUNS {
            let r = run_once(cod, w, seed, seconds, true)?;
            for (k, v) in r.metrics {
                layers.entry(k).or_default().push(v);
            }
            if let Some(Value::Obj(e2e)) = r.meta.get("traced_end_to_end") {
                for (k, v) in e2e {
                    if let Value::Num(x) = v {
                        traced_e2e.entry(k.clone()).or_default().push(*x);
                    }
                }
            }
        }
        println!(
            "-- tracing overhead (traced median - untraced median, {TRACED_RUNS} traced run(s))"
        );
        for (k, v) in &traced_e2e {
            if let (Some(t), Some(u)) = (stats::median(v), untraced_median.get(k)) {
                println!("{k:<18} {:>+12.4} ({:+.1}%)", t - u, 100.0 * (t - u) / u);
            }
        }
        println!("-- per-layer medians (traced)");
        for (k, v) in &layers {
            println!("{k:<32} {:>14}", f(stats::median(v)));
        }
    }
    if flagged.is_empty() {
        println!("every spread is below a third of its bound");
    } else {
        println!("spreads above a third of their bound:");
        for line in flagged {
            println!("  {line}");
        }
    }
    Ok(())
}
