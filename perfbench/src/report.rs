//! The result line every run ends with, the run metadata printed beside
//! it, and the per-layer metric table shared by all workloads.

use std::collections::BTreeMap;

/// Every per-layer metric with its unit. A traced run prints all of them
/// on every workload; a layer the workload bypasses reads 0, and the
/// run's `layers_measured` metadata names the ones it exercised.
pub const LAYERS: &[(&str, &str)] = &[
    ("serve.self_ms", "ms"),
    ("serve.shed_share", "ratio"),
    ("engine.plan_ms", "ms"),
    ("engine.batch_efficiency", "ratio"),
    ("hierarchy.build_s", "s"),
    ("himor.build_s", "s"),
    ("himor.hit_share", "ratio"),
    ("himor.redrawn_share", "ratio"),
    ("recluster.ms_per_query", "ms"),
    ("recluster.hit_share", "ratio"),
    ("recluster.global_build_s", "s"),
    ("influence.sample_ms_per_query", "ms"),
    ("influence.rr_graphs_per_query", "count"),
    ("influence.rr_edges_per_query", "count"),
    ("influence.ns_per_rr_edge", "ns"),
    ("compressed.topk_ms_per_query", "ms"),
    ("compressed.topk_ops_per_query", "count"),
    ("compressed.hfs_nodes_per_query", "count"),
    ("pool.hit_share", "ratio"),
    ("pool.resident_mb", "MiB"),
    ("pool.evictions_per_event", "count"),
    ("dynamic.flush_p50_ms", "ms"),
    ("dynamic.flush_p90_ms", "ms"),
    ("dynamic.rebuild_share", "ratio"),
    ("wal.apply_p50_ms", "ms"),
    ("wal.sync_p50_ms", "ms"),
    ("wal.fsyncs_per_event", "count"),
    ("recovery.checkpoint_p50_ms", "ms"),
    ("recovery.replayed_records", "count"),
];

/// What one run measured.
#[derive(Default)]
pub struct Measured {
    /// End-to-end metrics (name, value, unit), measured with tracing off
    /// (or, in a traced run, reported as metadata for the overhead).
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics the workload exercised (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed in the window.
    pub attempted: u64,
    pub failed: u64,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Run metadata: key to a JSON value.
    pub meta: Vec<(String, String)>,
}

impl Measured {
    pub fn meta(&mut self, key: &str, json: String) {
        self.meta.push((key.to_string(), json));
    }

    pub fn meta_num(&mut self, key: &str, v: f64) {
        self.meta(key, num(v));
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "unknown layer {name}"
        );
        self.layers.insert(name, v);
    }
}

/// A JSON number (`null` when not finite).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON object from already-encoded values.
pub fn object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("\"{}\":{v}", k.as_ref()))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Prints the metadata line and then the result line (the last line of
/// standard output): end-to-end metrics untraced, every per-layer metric
/// traced.
pub fn print(m: &Measured, traced: bool) -> Result<(), String> {
    let mut meta = m.meta.clone();
    if traced {
        let e2e = object(m.e2e.iter().map(|(n, v, _)| (*n, num(*v))));
        meta.push(("traced_end_to_end".into(), e2e));
        let measured: Vec<String> = m.layers.keys().map(|k| format!("\"{k}\"")).collect();
        meta.push((
            "layers_measured".into(),
            format!("[{}]", measured.join(",")),
        ));
    }
    println!("meta {}", object(meta));
    let metrics: Vec<(String, String)> = if traced {
        LAYERS
            .iter()
            .map(|(name, unit)| {
                let v = m.layers.get(name).copied().unwrap_or(0.0);
                (name.to_string(), metric_json(v, unit))
            })
            .collect()
    } else {
        m.e2e
            .iter()
            .map(|(name, v, unit)| (name.to_string(), metric_json(*v, unit)))
            .collect()
    };
    for (name, v) in &metrics {
        if v.contains("null") {
            return Err(format!("metric {name} is not a finite number"));
        }
    }
    println!(
        "{}",
        object([
            ("correct", m.correct.to_string()),
            ("attempted", m.attempted.to_string()),
            ("failed", m.failed.to_string()),
            ("metrics", object(metrics)),
        ])
    );
    Ok(())
}

fn metric_json(v: f64, unit: &str) -> String {
    object([("value", num(v)), ("unit", format!("\"{unit}\""))])
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
