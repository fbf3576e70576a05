//! Timing, formatting and seeded-sampling helpers for the experiment
//! harness.

use std::time::{Duration, Instant};

use cod_core::chain::Chain;
use cod_core::compressed::{compressed_cod, CodOutcome, EvalOptions, Samples};
use cod_core::{CodConfig, HimorIndex};
use cod_graph::{Csr, NodeId};
use cod_hierarchy::{Dendrogram, LcaIndex};
use cod_influence::{InfluenceEstimate, Model, Parallelism, SeedSequence};
use rand::Rng;

/// Runs `f`, returning its result and wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Compressed evaluation of `q` over `chain` under `cfg`'s model and
/// fan-out, at rank threshold `k` with `theta` RR graphs per node, from one
/// master seed drawn from `rng`.
pub fn compressed<R: Rng>(
    g: &Csr,
    cfg: CodConfig,
    chain: &Chain<'_>,
    q: NodeId,
    k: usize,
    theta: usize,
    rng: &mut R,
) -> CodOutcome {
    let opts = EvalOptions {
        par: cfg.parallelism,
        ..EvalOptions::default()
    };
    compressed_cod(
        g,
        cfg.model,
        chain,
        q,
        k,
        theta,
        Samples::Seed(rng.next_u64()),
        opts,
    )
    .expect("valid query")
}

/// The HIMOR index over `(dendro, lca)` under `cfg`, from one master seed
/// drawn from `rng`.
pub fn himor<R: Rng>(
    g: &Csr,
    cfg: CodConfig,
    dendro: &Dendrogram,
    lca: &LcaIndex,
    rng: &mut R,
) -> HimorIndex {
    let seed = rng.next_u64();
    HimorIndex::build(
        g,
        cfg.model,
        dendro,
        lca,
        cfg.theta,
        seed,
        cfg.parallelism,
        None,
    )
    .expect("ungoverned build")
}

/// `theta` RR samples inside `members` (sorted ascending) on one thread,
/// from one master seed drawn from `rng`.
pub fn community_estimate<R: Rng>(
    g: &Csr,
    model: Model,
    members: &[NodeId],
    theta: usize,
    rng: &mut R,
) -> InfluenceEstimate {
    let seeds = SeedSequence::new(rng.next_u64());
    InfluenceEstimate::on_community(g, model, members, theta, seeds, Parallelism::Threads(1))
}

/// Seconds as a compact human string.
pub fn secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Prints a markdown-style table: a header row plus data rows.
pub fn print_table(header: &[String], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut width = vec![0usize; cols];
    for (i, h) in header.iter().enumerate() {
        width[i] = h.chars().count();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| {
        let body: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = width[i]))
            .collect();
        format!("| {} |", body.join(" | "))
    };
    println!("{}", fmt_row(header));
    let sep: Vec<String> = width.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Parses `--flag value` style options from `std::env::args`, with
/// defaults. Recognized: `--queries N`, `--seed N`, `--theta N`,
/// `--datasets a,b,c`, `--scale N`.
#[derive(Clone, Debug)]
pub struct CliOpts {
    /// Queries per dataset.
    pub queries: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// RR graphs per node.
    pub theta: usize,
    /// Dataset names (empty = experiment default).
    pub datasets: Vec<String>,
    /// Node-count override for scaled presets (0 = preset default).
    pub scale: usize,
}

impl CliOpts {
    /// Parses CLI arguments with the given defaults.
    pub fn parse(default_queries: usize) -> Self {
        let mut opts = Self {
            queries: default_queries,
            seed: 42,
            theta: 10,
            datasets: Vec::new(),
            scale: 0,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            match args[i].as_str() {
                "--queries" => opts.queries = args[i + 1].parse().expect("--queries N"),
                "--seed" => opts.seed = args[i + 1].parse().expect("--seed N"),
                "--theta" => opts.theta = args[i + 1].parse().expect("--theta N"),
                "--scale" => opts.scale = args[i + 1].parse().expect("--scale N"),
                "--datasets" => opts.datasets = args[i + 1].split(',').map(str::to_owned).collect(),
                other => panic!("unknown option {other}"),
            }
            i += 2;
        }
        opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formats_ranges() {
        assert!(secs(Duration::from_micros(50)).ends_with("µs"));
        assert!(secs(Duration::from_millis(5)).ends_with("ms"));
        assert!(secs(Duration::from_secs(2)).ends_with('s'));
    }

    #[test]
    fn timed_returns_result() {
        let (x, d) = timed(|| 21 * 2);
        assert_eq!(x, 42);
        assert!(d.as_nanos() > 0);
    }
}
