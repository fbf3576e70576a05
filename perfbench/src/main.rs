//! The repository benchmark: three workloads over the real program, timed
//! from outside, with a traced variant that breaks the time into layers.
//!
//! ```text
//! perfbench --cod PATH --workload serve_cora|batch_pubmed|mutate_cora \
//!           --seed N --seconds S --trace 0|1
//! perfbench --cod PATH steady
//! perfbench probe                  (the memory-latency probe's child)
//! ```
//!
//! A run prints one `meta {...}` line and then, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! end-to-end metrics untraced, every per-layer metric traced. It exits 1
//! when a correctness check fails and 2 when the run could not complete.
//! `perfbench/NOTES.md` describes the workloads, metrics and predictions.

mod batch;
mod cpuclock;
mod hostspeed;
mod http;
mod layers;
mod mutate;
mod openloop;
mod procfs;
mod prom;
mod report;
mod serve;
mod spans;
mod stats;
mod steady;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::Measured;
use stats::Percentile;

pub const WORKLOADS: [&str; 3] = ["serve_cora", "batch_pubmed", "mutate_cora"];

/// Seed of the datasets (`cora_like`, `pubmed_like`) and of the index the
/// program builds over them (the HIMOR seed), fixed like a real dataset
/// and its index. The run seed draws everything that flows through them:
/// query targets, arrival times, event order and edits. Regenerating the
/// graph per run seed moved medians by 13% to over 100% between seeds,
/// which would hide any change smaller than that.
pub const DATASET_SEED: u64 = 1;

/// Arguments of one workload run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub cod: PathBuf,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Splits `--key value` options from positional words.
fn parse_options(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut opts = HashMap::new();
    let mut words = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            opts.insert(key.to_string(), value.clone());
            i += 2;
        } else {
            words.push(args[i].clone());
            i += 1;
        }
    }
    Ok((opts, words))
}

pub fn parse_num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    opts.get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{key} wants a number, got {v:?}"))
        })
        .transpose()
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (opts, words) = parse_options(args)?;
    if words.first().map(String::as_str) == Some("probe") {
        return hostspeed::child_main().map(|()| ExitCode::SUCCESS);
    }
    let cod = PathBuf::from(opts.get("cod").ok_or("--cod PATH is required")?);
    if words.first().map(String::as_str) == Some("steady") {
        return steady::main(&cod).map(|()| ExitCode::SUCCESS);
    }
    if let Some(w) = words.first() {
        return Err(format!("unknown command {w:?}"));
    }
    let workload = opts
        .get("workload")
        .ok_or("--workload is required")?
        .clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let trace = match opts.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let run = RunArgs {
        workload,
        seed: parse_num(&opts, "seed")?.ok_or("--seed is required")?,
        seconds: parse_num(&opts, "seconds")?.ok_or("--seconds is required")?,
        trace,
        cod,
    };
    if run.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if !run.cod.is_file() {
        return Err(format!("no cod binary at {}", run.cod.display()));
    }
    let measured = match run.workload.as_str() {
        "serve_cora" => serve::run(&run)?,
        "batch_pubmed" => batch::run(&run)?,
        _ => mutate::run(&run)?,
    };
    report::print(&measured, run.trace)?;
    Ok(if measured.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes `.bench_work` too, unless another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Records a named percentile's sample counts in the run metadata and
/// clears the run's validity when too few samples lie beyond it.
pub fn note_percentile(m: &mut Measured, valid: &mut bool, name: &str, p: &Percentile) {
    *valid &= p.valid();
    m.meta(
        &format!("{name}_samples"),
        report::object([
            ("samples", p.samples.to_string()),
            ("beyond", p.beyond.to_string()),
        ]),
    );
}

/// Sets the end-to-end metrics every workload reports: the median of the
/// run's set-up CPU times and the CPU time per operation, both scaled by
/// the run's memory-latency probe (`hostspeed`), and the peak RSS. The
/// unscaled times and the probe's median, scale and sample count go to
/// the metadata.
pub fn end_to_end(
    m: &mut Measured,
    setups_cpu_s: &[f64],
    peak_rss_mb: f64,
    cpu_ms_per_op: f64,
    probe: &hostspeed::Probe,
) -> Result<(), String> {
    let setup = stats::median(setups_cpu_s).ok_or("no set-up")?;
    let ns = probe.median_ns().ok_or("no probe sample")?;
    let scale = hostspeed::NOMINAL_NS / ns;
    m.e2e = vec![
        ("setup_s", setup * scale, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("norm_cpu_ms_per_op", cpu_ms_per_op * scale, "ms"),
    ];
    m.meta_num("setup_cpu_s", setup);
    m.meta_num("cpu_ms_per_op", cpu_ms_per_op);
    m.meta_num("probe_ns_per_load", ns);
    m.meta_num("probe_scale", scale);
    m.meta("probe_samples", probe.samples().to_string());
    Ok(())
}

/// The nearest-rank percentile of `values`, as an error when empty.
pub fn pct(values: &[f64], p: f64, what: &str) -> Result<Percentile, String> {
    stats::percentile(values, p).ok_or_else(|| format!("no {what} samples in the window"))
}

pub fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Ends a traced run: writes the spans and adds each span name's total
/// self time to the run metadata.
pub fn finish_trace(
    run: &RunArgs,
    spans: &spans::Recorder,
    m: &mut Measured,
) -> Result<(), String> {
    let path =
        PathBuf::from(".bench_out").join(format!("{}-seed{}.spans.json", run.workload, run.seed));
    spans
        .write_json(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    m.meta("spans_file", format!("\"{}\"", path.display()));
    m.meta("spans", spans.spans().len().to_string());
    let self_ms = spans
        .self_ms_by_name()
        .into_iter()
        .map(|(name, v)| (name, report::num(v)));
    m.meta("self_ms_by_span", report::object(self_ms));
    Ok(())
}
