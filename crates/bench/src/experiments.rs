//! One runner per table/figure of the paper's §V evaluation.

use cod_core::independent::independent_cod;
use cod_core::lore::select_recluster_community;
use cod_core::measures::{answer_quality, average_quality, AnswerQuality};
use cod_core::recluster::{build_hierarchy, global_recluster, local_recluster};
use cod_core::{Chain, CodConfig, CodEngine, Method, Query};
use cod_datasets::{by_name, gen_queries, Dataset};
use cod_graph::{measures as gm, AttrId, AttributedGraph, NodeId};
use cod_hierarchy::{Hierarchy, LcaIndex};
use cod_influence::{InfluenceEstimate, SeedSequence};
use cod_search::atc::AtcParams;
use rand::prelude::*;
use std::sync::Arc;
use std::time::Duration;

use crate::multik::{
    baseline_multi_k, codl_minus_multi_k, codl_multi_k, codr_multi_k, codu_multi_k,
};
use crate::util::{community_estimate, compressed, himor, print_table, secs, timed, CliOpts};

/// ACQ's structural parameter in all experiments (a 2-core keeps ACQ's
/// "large community" character from the paper's discussion).
pub const ACQ_K: u32 = 2;

fn load(name: &str, opts: &CliOpts) -> Dataset {
    if opts.scale > 0 {
        match name {
            "amazon" => return cod_datasets::amazon_like_scaled(opts.scale, opts.seed),
            "dblp" => return cod_datasets::dblp_like_scaled(opts.scale, opts.seed),
            "livejournal" => return cod_datasets::livejournal_like_scaled(opts.scale, opts.seed),
            _ => {}
        }
    }
    by_name(name, opts.seed).unwrap_or_else(|| panic!("unknown dataset {name}"))
}

fn cfg_from(opts: &CliOpts) -> CodConfig {
    CodConfig {
        theta: opts.theta,
        ..CodConfig::default()
    }
}

/// **Table I**: network statistics including the average attribute-aware
/// chain length `|H̄_ℓ(q)|` over a sampled query workload.
pub fn table1(opts: &CliOpts) {
    let names: Vec<String> = if opts.datasets.is_empty() {
        [
            "cora",
            "citeseer",
            "pubmed",
            "retweet",
            "amazon",
            "dblp",
            "livejournal",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    } else {
        opts.datasets.clone()
    };
    let mut rows = Vec::new();
    for name in &names {
        let data = load(name, opts);
        let g = &data.graph;
        let cfg = cfg_from(opts);
        let dendro = build_hierarchy(g.csr());
        let lca = LcaIndex::new(&dendro);
        let mut rng = SmallRng::seed_from_u64(opts.seed);
        let queries = gen_queries(g, opts.queries, &mut rng);
        // |H_ℓ(q)|: length of LORE's composed chain.
        let mut total = 0usize;
        for &(q, a) in &queries {
            total += match select_recluster_community(g, &dendro, &lca, q, a) {
                None => dendro.root_path(q).len(),
                Some(choice) => {
                    let members = dendro.members_sorted(choice.vertex);
                    let (sub, sd) = local_recluster(g, &members, a, cfg.beta);
                    let slca = LcaIndex::new(&sd);
                    Chain::local(&sub, &sd, &slca, q, Some((&dendro, &lca, choice.vertex)))
                        .expect("query node inside C_ell")
                        .len()
                }
            };
        }
        let avg_chain = total as f64 / queries.len().max(1) as f64;
        let (n, m, a) = data.stats();
        rows.push(vec![
            name.clone(),
            n.to_string(),
            m.to_string(),
            a.to_string(),
            format!("{avg_chain:.1}"),
        ]);
    }
    println!("\n== Table I: network statistics (simulated presets) ==");
    print_table(
        ["dataset", "|V|", "|E|", "|A|", "|H_l(q)| avg"]
            .map(String::from)
            .as_ref(),
        &rows,
    );
    println!(
        "(paper, full scale: cora 2485/5069/7/18.5; citeseer 2110/3668/6/18.9; pubmed \
         19717/44327/3/34.2; retweet 18470/48053/2/165.3; amazon 334863/925872/33/54.8; \
         dblp 317080/1049866/31/47.9; livejournal 3997962/34681189/400/271.2)"
    );
}

/// **Fig. 4**: average size of the 5 deepest communities containing a
/// query node, for CODU / CODR / CODL hierarchies.
pub fn fig4(opts: &CliOpts) {
    let names: Vec<String> = if opts.datasets.is_empty() {
        ["cora", "citeseer", "pubmed", "retweet"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        opts.datasets.clone()
    };
    let mut rows = Vec::new();
    for name in &names {
        let data = load(name, opts);
        let g = &data.graph;
        let cfg = cfg_from(opts);
        let dendro = build_hierarchy(g.csr());
        let lca = LcaIndex::new(&dendro);
        let mut rng = SmallRng::seed_from_u64(opts.seed + 4);
        let queries = gen_queries(g, opts.queries, &mut rng);

        let avg5 = |sizes: &mut Vec<f64>| -> f64 {
            let s: f64 = sizes.iter().sum();
            s / sizes.len().max(1) as f64
        };

        let mut codu_sizes = Vec::new();
        let mut codr_sizes = Vec::new();
        let mut codl_sizes = Vec::new();
        for &(q, a) in &queries {
            // CODU: the 5 deepest on T.
            for v in dendro.root_path(q).iter().take(5) {
                codu_sizes.push(dendro.size(*v) as f64);
            }
            // CODR: the 5 deepest on the globally reclustered hierarchy.
            let gr = global_recluster(g, a, cfg.beta);
            for v in gr.root_path(q).iter().take(5) {
                codr_sizes.push(gr.size(*v) as f64);
            }
            // CODL: the 5 deepest on the composed (locally reclustered)
            // chain.
            match select_recluster_community(g, &dendro, &lca, q, a) {
                None => {
                    for v in dendro.root_path(q).iter().take(5) {
                        codl_sizes.push(dendro.size(*v) as f64);
                    }
                }
                Some(choice) => {
                    let members = dendro.members_sorted(choice.vertex);
                    let (sub, sd) = local_recluster(g, &members, a, cfg.beta);
                    let slca = LcaIndex::new(&sd);
                    let chain =
                        Chain::local(&sub, &sd, &slca, q, Some((&dendro, &lca, choice.vertex)))
                            .expect("query node inside C_ell");
                    for h in 0..chain.len().min(5) {
                        codl_sizes.push(chain.size(h) as f64);
                    }
                }
            }
        }
        rows.push(vec![
            name.clone(),
            format!("{:.1}", avg5(&mut codu_sizes)),
            format!("{:.1}", avg5(&mut codr_sizes)),
            format!("{:.1}", avg5(&mut codl_sizes)),
        ]);
    }
    println!("\n== Fig. 4: average size of the 5-deepest communities containing q ==");
    print_table(
        ["dataset", "CODU", "CODR", "CODL"]
            .map(String::from)
            .as_ref(),
        &rows,
    );
    println!("(paper shape: CODU and CODR much larger than CODL, worst on PubMed/Retweet)");
}

/// Per-method accumulators for Fig. 7.
struct Fig7Acc {
    quality: Vec<Vec<AnswerQuality>>,
    influence: Vec<Vec<f64>>,
}

impl Fig7Acc {
    fn new(k_max: usize) -> Self {
        Self {
            quality: vec![Vec::new(); k_max],
            influence: vec![Vec::new(); k_max],
        }
    }

    fn push(
        &mut self,
        g: &AttributedGraph,
        attr: AttrId,
        global_sigma: f64,
        mk: &crate::multik::MultiK,
    ) {
        for (i, ans) in mk.per_k.iter().enumerate() {
            let answer = ans.as_ref().map(|members| cod_core::CodAnswer {
                members: members.clone(),
                rank: 0,
                source: cod_core::pipeline::AnswerSource::Compressed,
                uncertain: false,
                cache: None,
                degraded: None,
                trace: None,
            });
            self.quality[i].push(answer_quality(g, attr, answer.as_ref()));
            if ans.is_some() {
                self.influence[i].push(global_sigma);
            }
        }
    }
}

/// **Fig. 7**: effectiveness of all six methods across `k = 1..=5`
/// (average size, topology density, attribute density, query influence).
pub fn fig7(opts: &CliOpts) {
    let names: Vec<String> = if opts.datasets.is_empty() {
        ["cora", "citeseer", "pubmed", "retweet", "amazon", "dblp"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        opts.datasets.clone()
    };
    let k_max = 5usize;
    let methods = ["ACQ", "ATC", "CAC", "CODU", "CODR", "CODL"];

    for name in &names {
        let data = load(name, opts);
        let g = &data.graph;
        let cfg = cfg_from(opts);
        let ((dendro, lca, index), setup_t) = timed(|| {
            let dendro = build_hierarchy(g.csr());
            let lca = LcaIndex::new(&dendro);
            let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xbeef);
            let index = himor(g.csr(), cfg, &dendro, &lca, &mut rng);
            (dendro, lca, index)
        });
        let mut rng = SmallRng::seed_from_u64(opts.seed + 7);
        let queries = gen_queries(g, opts.queries, &mut rng);
        // One global influence estimate serves every I(q) readout.
        let global_est = InfluenceEstimate::on_graph(
            g.csr(),
            cfg.model,
            cfg.theta * g.num_nodes(),
            SeedSequence::new(rng.next_u64()),
            cfg.parallelism,
        );

        let mut accs: Vec<Fig7Acc> = (0..methods.len()).map(|_| Fig7Acc::new(k_max)).collect();
        for &(q, a) in &queries {
            let sigma = global_est.sigma(q);
            let acq = baseline_multi_k(
                g,
                cfg,
                cod_search::acq_query(g, q, a, ACQ_K),
                q,
                k_max,
                &mut rng,
            );
            let atc = baseline_multi_k(
                g,
                cfg,
                cod_search::atc_query(g, q, a, AtcParams::default()),
                q,
                k_max,
                &mut rng,
            );
            let cac = baseline_multi_k(g, cfg, cod_search::cac_query(g, q, a), q, k_max, &mut rng);
            let codu = codu_multi_k(g, cfg, &dendro, &lca, q, k_max, &mut rng);
            let codr = codr_multi_k(g, cfg, q, a, k_max, &mut rng);
            let codl = codl_multi_k(g, cfg, &dendro, &lca, &index, q, a, k_max, &mut rng);
            for (acc, mk) in accs
                .iter_mut()
                .zip([acq, atc, cac, codu, codr, codl].iter())
            {
                acc.push(g, a, sigma, mk);
            }
        }

        println!(
            "\n== Fig. 7 [{name}]: {} queries, setup {} ==",
            queries.len(),
            secs(setup_t)
        );
        let header: Vec<String> = std::iter::once("method".to_string())
            .chain((1..=k_max).map(|k| format!("k={k}")))
            .collect();
        for (title, pick) in [
            ("average size |C*|", 0usize),
            ("topology density rho(C*)", 1),
            ("attribute density phi(C*)", 2),
            ("query influence I(q) (answered queries)", 3),
        ] {
            let mut rows = Vec::new();
            for (mi, m) in methods.iter().enumerate() {
                let mut row = vec![m.to_string()];
                for ki in 0..k_max {
                    let cell = match pick {
                        0 => format!("{:.1}", average_quality(&accs[mi].quality[ki]).size),
                        1 => format!(
                            "{:.3}",
                            average_quality(&accs[mi].quality[ki]).topology_density
                        ),
                        2 => format!(
                            "{:.3}",
                            average_quality(&accs[mi].quality[ki]).attribute_density
                        ),
                        _ => {
                            let v = &accs[mi].influence[ki];
                            if v.is_empty() {
                                "-".to_string()
                            } else {
                                format!("{:.1}", v.iter().sum::<f64>() / v.len() as f64)
                            }
                        }
                    };
                    row.push(cell);
                }
                rows.push(row);
            }
            println!("\n-- {title} --");
            print_table(&header, &rows);
        }
    }
    println!(
        "\n(paper shape: COD methods find far larger C* than ACQ/ATC/CAC; CODL densest; \
         sizes grow with k; CODL serves queries with the smallest I(q))"
    );
}

/// **Fig. 8**: Compressed vs Independent (both CODR variants) across θ.
pub fn fig8(opts: &CliOpts) {
    let names: Vec<String> = if opts.datasets.is_empty() {
        vec!["cora".into(), "citeseer".into()]
    } else {
        opts.datasets.clone()
    };
    let thetas = [10usize, 20, 40, 80];
    for name in &names {
        let data = load(name, opts);
        let g = &data.graph;
        let base = cfg_from(opts);
        let mut rng = SmallRng::seed_from_u64(opts.seed + 8);
        let queries = gen_queries(g, opts.queries, &mut rng);
        let mut rows = Vec::new();
        for &theta in &thetas {
            let cfg = CodConfig { theta, ..base };
            let mut stats = [Fig8Stat::default(), Fig8Stat::default()];
            for &(q, a) in &queries {
                // Both variants share CODR's attribute-aware hierarchy.
                let dendro = global_recluster(g, a, cfg.beta);
                let lca = LcaIndex::new(&dendro);
                let chain = Chain::new(&dendro, &lca, q).expect("query node within hierarchy");
                if chain.is_empty() {
                    continue;
                }
                let (comp, t_comp) =
                    timed(|| compressed(g.csr(), cfg, &chain, q, cfg.k, theta, &mut rng));
                let (ind, t_ind) = timed(|| {
                    independent_cod(g.csr(), cfg.model, &chain, q, cfg.k, theta, &mut rng)
                });
                let (s0, s1) = stats.split_at_mut(1);
                for (stat, out, t) in [(&mut s0[0], &comp, t_comp), (&mut s1[0], &ind, t_ind)] {
                    stat.time += t;
                    if let Some(h) = out.best_level {
                        let members = chain.members(h);
                        stat.sizes.push(members.len() as f64);
                        let truth = community_estimate(
                            g.csr(),
                            cfg.model,
                            &members,
                            1000 * members.len().min(400),
                            &mut rng,
                        );
                        stat.found += 1;
                        if truth.is_top_k(q, &members, cfg.k) {
                            stat.correct += 1;
                        }
                    }
                }
            }
            for (mi, m) in ["Compressed", "Independent"].iter().enumerate() {
                let s = &stats[mi];
                rows.push(vec![
                    theta.to_string(),
                    m.to_string(),
                    format!("{:.2}", s.precision()),
                    format!("{:.1}", s.avg_size()),
                    format!("{:.0}", s.min_size()),
                    format!("{:.0}", s.max_size()),
                    secs(s.time / queries.len().max(1) as u32),
                ]);
            }
        }
        println!(
            "\n== Fig. 8 [{name}]: Compressed vs Independent ({} queries) ==",
            queries.len()
        );
        print_table(
            [
                "theta",
                "method",
                "top-k precision",
                "avg |C*|",
                "min",
                "max",
                "time/query",
            ]
            .map(String::from)
            .as_ref(),
            &rows,
        );
    }
    println!(
        "\n(paper shape: Compressed has higher precision, slightly smaller C*, and is \
         ~3-10x faster per query at equal theta)"
    );
}

#[derive(Default)]
struct Fig8Stat {
    time: Duration,
    sizes: Vec<f64>,
    found: usize,
    correct: usize,
}

impl Fig8Stat {
    fn precision(&self) -> f64 {
        if self.found == 0 {
            0.0
        } else {
            self.correct as f64 / self.found as f64
        }
    }
    fn avg_size(&self) -> f64 {
        if self.sizes.is_empty() {
            0.0
        } else {
            self.sizes.iter().sum::<f64>() / self.sizes.len() as f64
        }
    }
    fn min_size(&self) -> f64 {
        self.sizes
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(1e18)
    }
    fn max_size(&self) -> f64 {
        self.sizes.iter().copied().fold(0.0, f64::max)
    }
}

/// **Fig. 9**: per-query runtime of CODR vs CODL⁻ vs CODL (the 25×
/// speed-up plot), plus the LiveJournal scalability column.
pub fn fig9(opts: &CliOpts) {
    let names: Vec<String> = if opts.datasets.is_empty() {
        [
            "cora",
            "citeseer",
            "pubmed",
            "retweet",
            "amazon",
            "dblp",
            "livejournal",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    } else {
        opts.datasets.clone()
    };
    let mut rows = Vec::new();
    for name in &names {
        let data = load(name, opts);
        let g = &data.graph;
        let cfg = cfg_from(opts);
        // Scalability datasets get fewer queries to keep CODR affordable.
        let nq = if g.num_nodes() > 40_000 {
            opts.queries.min(3)
        } else {
            opts.queries
        };
        let mut rng = SmallRng::seed_from_u64(opts.seed + 9);
        let queries = gen_queries(g, nq, &mut rng);

        let (prep, t_prep) = timed(|| {
            let dendro = build_hierarchy(g.csr());
            let lca = LcaIndex::new(&dendro);
            let mut irng = SmallRng::seed_from_u64(opts.seed ^ 0xf00d);
            let index = himor(g.csr(), cfg, &dendro, &lca, &mut irng);
            (dendro, lca, index)
        });
        let (dendro, lca, index) = &prep;

        let mut t_codr = Duration::ZERO;
        let mut t_codl_minus = Duration::ZERO;
        let mut t_codl = Duration::ZERO;
        for &(q, a) in &queries {
            let (_, t) = timed(|| codr_multi_k(g, cfg, q, a, cfg.k, &mut rng));
            t_codr += t;
            let (_, t) = timed(|| codl_minus_multi_k(g, cfg, dendro, lca, q, a, cfg.k, &mut rng));
            t_codl_minus += t;
            let (_, t) = timed(|| codl_multi_k(g, cfg, dendro, lca, index, q, a, cfg.k, &mut rng));
            t_codl += t;
        }
        let per = |d: Duration| d / queries.len().max(1) as u32;
        let speedup = t_codr.as_secs_f64() / t_codl.as_secs_f64().max(1e-9);
        rows.push(vec![
            name.clone(),
            queries.len().to_string(),
            secs(per(t_codr)),
            secs(per(t_codl_minus)),
            secs(per(t_codl)),
            format!("{speedup:.1}x"),
            secs(t_prep),
        ]);
    }
    println!("\n== Fig. 9: query runtime (CODR vs CODL- vs CODL) ==");
    print_table(
        [
            "dataset",
            "queries",
            "CODR/q",
            "CODL-/q",
            "CODL/q",
            "CODR/CODL",
            "setup (T+HIMOR)",
        ]
        .map(String::from)
        .as_ref(),
        &rows,
    );
    println!("(paper shape: CODL fastest; ~25x over CODR on DBLP; CODL- in between)");
}

/// **Table II**: HIMOR construction time and index/input memory.
pub fn table2(opts: &CliOpts) {
    let names: Vec<String> = if opts.datasets.is_empty() {
        [
            "cora",
            "citeseer",
            "pubmed",
            "retweet",
            "amazon",
            "dblp",
            "livejournal",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    } else {
        opts.datasets.clone()
    };
    let mut rows = Vec::new();
    for name in &names {
        let data = load(name, opts);
        let g = &data.graph;
        let cfg = cfg_from(opts);
        let dendro = build_hierarchy(g.csr());
        let lca = LcaIndex::new(&dendro);
        let mut rng = SmallRng::seed_from_u64(opts.seed + 10);
        let (index, t_build) = timed(|| himor(g.csr(), cfg, &dendro, &lca, &mut rng));
        // Input size: CSR + attributes + hierarchy, in bytes.
        let input_bytes = g.csr().num_half_edges() * 4
            + (g.num_nodes() + 1) * 8
            + g.attrs().total_pairs() * 4
            + dendro.num_vertices() * 24;
        rows.push(vec![
            name.clone(),
            format!("{:.2}", t_build.as_secs_f64()),
            format!("{:.2}", index.memory_bytes() as f64 / 1048576.0),
            format!("{:.2}", input_bytes as f64 / 1048576.0),
            format!("{:.1}", dendro.avg_chain_len()),
        ]);
    }
    println!("\n== Table II: HIMOR construction time and memory ==");
    print_table(
        [
            "dataset",
            "build time (s)",
            "index (MB)",
            "input (MB)",
            "avg depth",
        ]
        .map(String::from)
        .as_ref(),
        &rows,
    );
    println!(
        "(paper shape: index a small constant factor of the input; skewed hierarchies \
         (retweet) cost disproportionally more build time than same-size pubmed)"
    );
}

/// **Ablation (DESIGN.md §4)**: agglomerative NN-chain vs divisive
/// bisection hierarchies — balancedness, HIMOR cost, and COD answer
/// quality under each (the paper claims COD works over any HGC method).
pub fn ablation_hgc(opts: &CliOpts) {
    let names: Vec<String> = if opts.datasets.is_empty() {
        vec!["cora".into(), "retweet".into()]
    } else {
        opts.datasets.clone()
    };
    let mut rows = Vec::new();
    for name in &names {
        let data = load(name, opts);
        let g = &data.graph;
        let cfg = cfg_from(opts);
        for (method, dendro) in [
            ("nnchain", build_hierarchy(g.csr())),
            ("bisect", cod_hierarchy::bisect(g.csr())),
        ] {
            let lca = LcaIndex::new(&dendro);
            let mut rng = SmallRng::seed_from_u64(opts.seed + 12);
            let (index, t_build) = timed(|| himor(g.csr(), cfg, &dendro, &lca, &mut rng));
            let queries = gen_queries(g, opts.queries, &mut rng);
            let mut qualities = Vec::new();
            for &(q, a) in &queries {
                let chain = Chain::new(&dendro, &lca, q).expect("query node within hierarchy");
                let out = if chain.is_empty() {
                    None
                } else {
                    compressed(g.csr(), cfg, &chain, q, cfg.k, cfg.theta, &mut rng).best_level
                };
                let ans = out.map(|h| cod_core::CodAnswer {
                    members: chain.members(h),
                    rank: 0,
                    source: cod_core::pipeline::AnswerSource::Compressed,
                    uncertain: false,
                    cache: None,
                    degraded: None,
                    trace: None,
                });
                qualities.push(answer_quality(g, a, ans.as_ref()));
            }
            let avg = average_quality(&qualities);
            rows.push(vec![
                name.clone(),
                method.to_string(),
                format!("{:.1}", dendro.avg_chain_len()),
                format!("{:.2}", t_build.as_secs_f64()),
                format!("{:.2}", index.memory_bytes() as f64 / 1048576.0),
                format!("{:.1}", avg.size),
                format!("{:.3}", avg.topology_density),
            ]);
        }
    }
    println!("\n== Ablation: hierarchy construction method (CODU evaluation) ==");
    print_table(
        [
            "dataset",
            "hgc",
            "avg depth",
            "himor build (s)",
            "index (MB)",
            "avg |C*|",
            "rho",
        ]
        .map(String::from)
        .as_ref(),
        &rows,
    );
    println!(
        "(expected: bisection is far more balanced -> cheaper index, but its communities \
         are cut-driven rather than density-driven, typically lowering rho)"
    );
}

/// **Ablation (DESIGN.md §4)**: the `g_ℓ` weight transform — query boost
/// strength β and alternative weighting schemes (the paper treats the
/// transform as orthogonal; this quantifies how much it matters).
pub fn ablation_weights(opts: &CliOpts) {
    use cod_core::recluster::{attribute_weights_with, WeightScheme};
    use cod_hierarchy::Dendrogram;
    let name = opts
        .datasets
        .first()
        .cloned()
        .unwrap_or_else(|| "cora".to_string());
    let data = load(&name, opts);
    let g = &data.graph;
    let cfg = cfg_from(opts);
    let mut rng = SmallRng::seed_from_u64(opts.seed + 13);
    let queries = gen_queries(g, opts.queries, &mut rng);
    let schemes: Vec<(String, WeightScheme)> = vec![
        ("boost b=0".into(), WeightScheme::QueryBoost(0.0)),
        ("boost b=1".into(), WeightScheme::QueryBoost(1.0)),
        ("boost b=4".into(), WeightScheme::QueryBoost(4.0)),
        ("jaccard b=1".into(), WeightScheme::JaccardBlend(1.0)),
        (
            "degree-norm b=1".into(),
            WeightScheme::DegreeNormalized(1.0),
        ),
    ];
    let mut rows = Vec::new();
    for (label, scheme) in &schemes {
        let mut qualities = Vec::new();
        for &(q, a) in &queries {
            // CODR-style: recluster globally under the scheme, evaluate.
            let w = attribute_weights_with(g, a, *scheme);
            let dendro =
                Dendrogram::from_merges(g.num_nodes(), &cod_hierarchy::cluster(g.csr(), &w));
            let lca = LcaIndex::new(&dendro);
            let chain = Chain::new(&dendro, &lca, q).expect("query node within hierarchy");
            let best = if chain.is_empty() {
                None
            } else {
                compressed(g.csr(), cfg, &chain, q, cfg.k, cfg.theta, &mut rng).best_level
            };
            let ans = best.map(|h| cod_core::CodAnswer {
                members: chain.members(h),
                rank: 0,
                source: cod_core::pipeline::AnswerSource::Compressed,
                uncertain: false,
                cache: None,
                degraded: None,
                trace: None,
            });
            qualities.push(answer_quality(g, a, ans.as_ref()));
        }
        let avg = average_quality(&qualities);
        rows.push(vec![
            label.clone(),
            format!("{:.1}", avg.size),
            format!("{:.3}", avg.topology_density),
            format!("{:.3}", avg.attribute_density),
        ]);
    }
    println!(
        "\n== Ablation: g_l weight transform [{name}] ({} queries) ==",
        queries.len()
    );
    print_table(
        ["scheme", "avg |C*|", "rho", "phi"]
            .map(String::from)
            .as_ref(),
        &rows,
    );
    println!("(expected: larger beta raises attribute density phi; b=0 degenerates to CODU)");
}

/// **§V-E case study**: CODL vs ATC/ACQ/CAC communities for two query
/// nodes at `k = 1`, with sizes, in-community ranks and conductance.
pub fn case_study(opts: &CliOpts) {
    let data = load("cora", opts);
    let g = &data.graph;
    let cfg = CodConfig {
        k: 1,
        theta: opts.theta.max(20),
        ..CodConfig::default()
    };
    let dendro = build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let mut rng = SmallRng::seed_from_u64(opts.seed + 11);
    let index = himor(g.csr(), cfg, &dendro, &lca, &mut rng);
    let engine = CodEngine::from_parts(
        Arc::new(g.clone()),
        cfg,
        Arc::new(Hierarchy { dendro, lca }),
        Arc::new(index),
    );

    let queries = gen_queries(g, 400, &mut rng);
    let mut shown = 0;
    for &(q, a) in &queries {
        if shown >= 2 {
            break;
        }
        let query = Query::new(q, a, Method::Codl);
        let Some(cod_ans) = engine.query(query, &mut rng).expect("valid query") else {
            continue;
        };
        let atc = cod_search::atc_query(g, q, a, AtcParams::default());
        let Some(atc_c) = atc else { continue };
        shown += 1;
        println!("\n== case study query node {q} (attribute {a}, k = 1) ==");
        let mut rows = Vec::new();
        let communities: Vec<(&str, Vec<NodeId>)> =
            vec![("CODL", cod_ans.members.clone()), ("ATC", atc_c)]
                .into_iter()
                .chain(cod_search::acq_query(g, q, a, ACQ_K).map(|c| ("ACQ", c)))
                .chain(cod_search::cac_query(g, q, a).map(|c| ("CAC", c)))
                .collect();
        for (m, c) in &communities {
            let est = community_estimate(g.csr(), cfg.model, c, 200 * c.len(), &mut rng);
            rows.push(vec![
                m.to_string(),
                c.len().to_string(),
                est.rank(q, c).to_string(),
                format!("{:.3}", gm::conductance(g.csr(), c)),
                format!("{:.3}", gm::topology_density(g.csr(), c)),
            ]);
        }
        print_table(
            ["method", "|C|", "rank(q)", "conductance", "rho"]
                .map(String::from)
                .as_ref(),
            &rows,
        );
    }
    if shown == 0 {
        println!("no query with both a CODL and an ATC community found — rerun with another seed");
    }
    println!(
        "\n(paper shape: CODL's community is larger, has lower conductance, and ranks \
         the query node at least as high as ATC/ACQ/CAC do)"
    );
}
