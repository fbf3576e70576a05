//! Statistical-equivalence harness for the confidence-bound adaptive
//! evaluator over the shared RR pool (`compressed_cod_adaptive`).
//!
//! The adaptive loop doubles the per-node sample rate until the top-k
//! verdict at every level is certain *and* the influence estimate's
//! confidence half-width (empirical-Bernstein / Hoeffding, whichever is
//! tighter) falls below `ε`. These tests pin the statistical contract on a
//! 40-query Cora-scale grid:
//!
//! * **agreement** — adaptive answers match a fixed reference run at four
//!   times the starting rate on at least 95% of the grid,
//! * **honesty** — the reported half-width is exactly the documented bound
//!   evaluated at the answer, and a converged report never claims a
//!   half-width above its `ε`,
//! * **consistency** — at the common answer level, the adaptive and
//!   reference influence estimates differ by no more than the sum of
//!   their confidence intervals (with both estimates folding prefixes of
//!   the *same* pool, a violation would mean the bound is mis-derived).

use pcod::cod::compressed::{
    compressed_cod, compressed_cod_adaptive, influence_half_width, EvalOptions, Samples,
};
use pcod::cod::pool::RrPoolEntry;
use pcod::cod::recluster::build_hierarchy;
use pcod::prelude::*;
use rand::prelude::*;
use std::sync::Arc;

/// Two-thread evaluation options over the shared workspace `ws`.
fn opts(ws: &mut QueryScratch) -> EvalOptions<'_> {
    EvalOptions {
        par: Parallelism::Threads(2),
        scratch: Some(ws),
        ..EvalOptions::default()
    }
}

/// Confidence parameters documented in DESIGN.md §13: half-width bound
/// `ε` on the normalized influence scale at confidence `1 − δ`.
const EPSILON: f64 = 0.05;
const DELTA: f64 = 0.05;
/// Reference rate: 4× the adaptive starting rate (`θ_ref = 4·θ₀`).
const THETA_START: usize = 2;
const THETA_REF: usize = 4 * THETA_START;

struct Grid {
    data: pcod::datasets::Dataset,
    dendro: Dendrogram,
    lca: LcaIndex,
    queries: Vec<NodeId>,
    pool: Arc<RrPoolEntry>,
}

/// The 40-query Cora grid, with one shared pool: Cora is connected, so
/// every query's chain tops out at the whole vertex set and all 40
/// queries share a single `(attr: none, universe: V)` pool key.
fn grid() -> Grid {
    let data = pcod::datasets::by_name("cora", 42).expect("cora generator exists");
    let dendro = build_hierarchy(data.graph.csr(), Linkage::Average);
    let lca = LcaIndex::new(&dendro);
    let mut rng = SmallRng::seed_from_u64(0xC0DA);
    let queries: Vec<NodeId> = pcod::datasets::gen_queries(&data.graph, 40, &mut rng)
        .into_iter()
        .map(|(q, _)| q)
        .collect();
    assert_eq!(queries.len(), 40, "grid must hold 40 queries");
    let universe: Arc<Vec<NodeId>> = Arc::new((0..data.graph.num_nodes() as NodeId).collect());
    let pool = Arc::new(RrPoolEntry::new(None, universe, false));
    Grid {
        data,
        dendro,
        lca,
        queries,
        pool,
    }
}

/// Adaptive vs fixed-θ reference across the whole grid. One test drives
/// all three contract clauses so the (shared, grown-once) pool is built a
/// single time.
#[test]
fn adaptive_agrees_with_fixed_reference_on_95_percent_of_the_grid() {
    let grid = grid();
    let g = grid.data.graph.csr();
    let n = g.num_nodes();
    let mut ws = QueryScratch::new();
    let mut agree = 0usize;
    let mut converged = 0usize;
    for &q in &grid.queries {
        let chain = DendroChain::new(&grid.dendro, &grid.lca, q).expect("chain exists");
        let universe_len = chain.universe().len();
        assert_eq!(universe_len, n, "cora is connected: the chain spans V");
        let (adaptive, report) = compressed_cod_adaptive(
            g,
            Model::WeightedCascade,
            &chain,
            q,
            3,
            THETA_START,
            THETA_REF,
            EPSILON,
            DELTA,
            &grid.pool,
            Parallelism::Threads(2),
            Some(&mut ws),
            None,
        )
        .expect("valid query");
        let reference = compressed_cod(
            g,
            Model::WeightedCascade,
            &chain,
            q,
            3,
            THETA_REF,
            Samples::Pool(&grid.pool),
            opts(&mut ws),
        )
        .expect("valid query");

        // Honesty: the report's half-width is the documented bound
        // evaluated at the answer's level, and convergence implies it met ε.
        assert!(report.rounds >= 1 && report.theta > 0);
        assert_eq!(report.epsilon, EPSILON);
        let h = adaptive.best_level.unwrap_or(0);
        let p_hat = adaptive.sigma_q[h] / universe_len as f64;
        let recomputed = influence_half_width(p_hat, adaptive.theta, DELTA);
        assert_eq!(
            report.half_width.to_bits(),
            recomputed.to_bits(),
            "q={q}: reported half-width is not the documented bound"
        );
        if report.converged {
            converged += 1;
            assert!(
                report.half_width <= report.epsilon,
                "q={q}: converged with half-width {} above ε {}",
                report.half_width,
                report.epsilon
            );
        } else {
            // Non-converged runs must have been stopped by the cap, which
            // is exactly the reference rate — so they folded the same
            // prefix as the reference and the answers are identical.
            assert_eq!(
                adaptive.theta, reference.theta,
                "q={q}: non-converged run stopped below the θ_max cap"
            );
        }

        // Agreement: same characteristic community as the 4×θ₀ reference.
        if adaptive.best_level == reference.best_level {
            agree += 1;
        }

        // Consistency: at the common level both estimates fold prefixes of
        // the same sample sequence, so they may differ by at most the sum
        // of their confidence half-widths.
        if let (Some(ha), Some(hr)) = (adaptive.best_level, reference.best_level) {
            if ha == hr {
                let pa = adaptive.sigma_q[ha] / universe_len as f64;
                let pr = reference.sigma_q[hr] / universe_len as f64;
                let bound = influence_half_width(pa, adaptive.theta, DELTA)
                    + influence_half_width(pr, reference.theta, DELTA);
                assert!(
                    (pa - pr).abs() <= bound,
                    "q={q}: |{pa} − {pr}| exceeds the combined CI {bound}"
                );
            }
        }
    }
    assert!(
        agree * 100 >= grid.queries.len() * 95,
        "adaptive agreed with the reference on only {agree}/{} queries",
        grid.queries.len()
    );
    // The grid must actually exercise the early-stopping path, not just
    // run every query to the cap.
    assert!(
        converged > 0,
        "no query converged before θ_max — ε is not exercising the bound"
    );
}

/// The adaptive escalation path is deterministic and thread-invariant:
/// rounds, final θ, half-width, and the outcome replay bit-identically
/// because every round folds a key-derived prefix of the shared pool.
#[test]
fn adaptive_pooled_replays_bit_identically_across_threads() {
    let data = pcod::datasets::amazon_like_scaled(200, 9);
    let g = data.graph.csr();
    let dendro = build_hierarchy(g, Linkage::Average);
    let lca = LcaIndex::new(&dendro);
    let universe: Arc<Vec<NodeId>> = Arc::new((0..g.num_nodes() as NodeId).collect());
    let q = 7u32;
    let chain = DendroChain::new(&dendro, &lca, q).expect("chain exists");
    let run = |t: usize| {
        // A private pool per run: growth itself must be thread-invariant.
        let pool = RrPoolEntry::new(None, universe.clone(), false);
        compressed_cod_adaptive(
            g,
            Model::WeightedCascade,
            &chain,
            q,
            3,
            2,
            16,
            0.02,
            DELTA,
            &pool,
            Parallelism::Threads(t),
            None,
            None,
        )
        .expect("valid query")
    };
    let (ref_out, ref_report) = run(1);
    for t in [1usize, 2, 8] {
        let (out, report) = run(t);
        assert_eq!(out, ref_out, "threads {t}: adaptive outcome diverged");
        assert_eq!(report, ref_report, "threads {t}: adaptive report diverged");
    }
}

/// The bound itself: `influence_half_width` is the min of the
/// empirical-Bernstein and Hoeffding forms, shrinks with Θ, and collapses
/// toward the Bernstein form for small p̂.
#[test]
fn influence_half_width_shapes() {
    assert!(influence_half_width(0.5, 0, DELTA).is_infinite());
    let wide = influence_half_width(0.5, 100, DELTA);
    let tight = influence_half_width(0.5, 10_000, DELTA);
    assert!(tight < wide, "more samples must tighten the bound");
    let hoeffding = |theta: f64| ((2.0 / DELTA).ln() / (2.0 * theta)).sqrt();
    assert!(
        influence_half_width(0.5, 1000, DELTA) <= hoeffding(1000.0) + 1e-12,
        "the returned bound must never exceed Hoeffding"
    );
    // At p̂ near 0, Bernstein's variance term vanishes and the bound beats
    // Hoeffding by a wide margin.
    assert!(influence_half_width(0.001, 10_000, DELTA) < 0.5 * hoeffding(10_000.0));
}
