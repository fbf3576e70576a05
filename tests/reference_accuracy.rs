//! Reference accuracy on a realistic graph: pooled answers at the paper's
//! fixed θ = 10 (§V-A) against an independent reference at 16×θ.
//!
//! `tests/exact_oracle.rs` checks influence estimates on graphs of about a
//! dozen edges; this harness checks answers on `cora_like(1)`. For each
//! query of a seeded `gen_queries` grid, with k = 5, it evaluates
//!
//! * **CODU** — the chain `H(q)` over the base hierarchy `T`, and
//! * **CODL index miss** — the chain that CODL evaluates when the HIMOR
//!   index misses (Algorithm 3, line 3): the reclustered hierarchy inside
//!   the LORE community `C_ℓ`, its root excluded, for every query with a
//!   LORE choice,
//!
//! once over a pool with the engine's key (θ = 10) and once over a second
//! pool, keyed apart so that its samples are independent, at 16×θ = 160.
//! It prints how often the two agree on `C*(q)` (the same level of the same
//! chain) and the mean Jaccard similarity of the two answers' members, and
//! asserts both stay above floors set a few points below what the harness
//! read when it was written. Pools derive their samples from their keys, so
//! the figures are a pure function of the code: a change that moves them
//! changed sampling or evaluation.

use std::sync::Arc;

use pcod::cod::compressed::{compressed_cod, EvalOptions, Samples};
use pcod::cod::lore::select_recluster_community;
use pcod::cod::pool::RrPoolEntry;
use pcod::cod::recluster::{build_hierarchy, local_recluster};
use pcod::cod::CodOutcome;
use pcod::hierarchy::Hierarchy;
use pcod::prelude::*;
use rand::prelude::*;

const K: usize = 5;
const THETA: usize = 10;
const THETA_REF: usize = 16 * THETA;
const QUERIES: usize = 20;

/// Floors on (agreement, mean Jaccard), a few points below what the
/// harness read when it was written: CODU 9/20 with Jaccard 0.710, CODL
/// index miss 16/20 with Jaccard 0.931.
const CODU_FLOOR: (f64, f64) = (0.40, 0.66);
const CODL_FLOOR: (f64, f64) = (0.75, 0.88);

/// The reference pools' attribute key: no preset interns this many
/// attributes, so a reference pool never shares a key, and hence a sample,
/// with the pool it checks.
const REFERENCE_KEY: AttrId = AttrId::MAX;

/// Agreement tallies for one chain kind.
#[derive(Default)]
struct Tally {
    queries: usize,
    agree: usize,
    jaccard: f64,
}

impl Tally {
    fn score(&mut self, chain: &Chain<'_>, answer: &CodOutcome, reference: &CodOutcome) {
        self.queries += 1;
        if answer.best_level == reference.best_level {
            self.agree += 1;
        }
        self.jaccard += match (answer.best_level, reference.best_level) {
            (None, None) => 1.0,
            (Some(a), Some(r)) => jaccard(&chain.members(a), &chain.members(r)),
            _ => 0.0,
        };
    }

    fn agreement(&self) -> f64 {
        self.agree as f64 / self.queries as f64
    }

    fn mean_jaccard(&self) -> f64 {
        self.jaccard / self.queries as f64
    }
}

/// `|a ∩ b| / |a ∪ b|` of two sorted member lists.
fn jaccard(a: &[NodeId], b: &[NodeId]) -> f64 {
    let (mut i, mut j, mut common) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common as f64 / (a.len() + b.len() - common) as f64
}

/// One pooled evaluation of `chain` at `theta` per node.
fn pooled(g: &Csr, chain: &Chain<'_>, q: NodeId, theta: usize, pool: &RrPoolEntry) -> CodOutcome {
    let opts = EvalOptions {
        par: Parallelism::Threads(2),
        ..EvalOptions::default()
    };
    compressed_cod(
        g,
        Model::WeightedCascade,
        chain,
        q,
        K,
        theta,
        Samples::Pool(pool),
        opts,
    )
    .expect("valid query")
}

/// A pool over `chain`'s universe, restricted when that is not the whole
/// graph (the engine's rule).
fn pool_for(g: &Csr, attr: Option<AttrId>, chain: &Chain<'_>) -> RrPoolEntry {
    let universe = chain.universe();
    let restricted = universe.len() < g.num_nodes();
    RrPoolEntry::new(attr, Arc::new(universe), restricted)
}

#[test]
fn pooled_fixed_theta_agrees_with_a_16x_reference_on_cora() {
    let data = pcod::datasets::cora_like(1);
    let graph = &data.graph;
    let g = graph.csr();
    let base = Hierarchy::new(build_hierarchy(g));
    let mut rng = SmallRng::seed_from_u64(7);
    let queries = pcod::datasets::gen_queries(graph, QUERIES, &mut rng);
    assert_eq!(queries.len(), QUERIES);

    // CODU: every chain tops out at V (cora is connected), so one pool of
    // each key serves the whole grid.
    let universe: Arc<Vec<NodeId>> = Arc::new((0..g.num_nodes() as NodeId).collect());
    let codu_pool = RrPoolEntry::new(None, universe.clone(), false);
    let codu_ref = RrPoolEntry::new(Some(REFERENCE_KEY), universe, false);
    let mut codu = Tally::default();
    let mut codl = Tally::default();
    for &(q, a) in &queries {
        let chain = Chain::new(&base.dendro, &base.lca, q).expect("chain exists");
        let answer = pooled(g, &chain, q, THETA, &codu_pool);
        let reference = pooled(g, &chain, q, THETA_REF, &codu_ref);
        codu.score(&chain, &answer, &reference);

        let Some(choice) = select_recluster_community(graph, &base.dendro, &base.lca, q, a) else {
            continue;
        };
        let members = base.dendro.members_sorted(choice.vertex);
        let (sub, dendro) = local_recluster(graph, &members, a, 1.0);
        let local = Hierarchy::new(dendro);
        let chain = Chain::local(&sub, &local.dendro, &local.lca, q, None).expect("q is in C_ℓ");
        if chain.is_empty() {
            continue;
        }
        let answer = pooled(g, &chain, q, THETA, &pool_for(g, Some(a), &chain));
        let reference = pooled(
            g,
            &chain,
            q,
            THETA_REF,
            &pool_for(g, Some(REFERENCE_KEY), &chain),
        );
        codl.score(&chain, &answer, &reference);
    }

    assert!(codl.queries >= QUERIES / 2, "too few LORE choices");
    for (name, t, (agree, jaccard)) in [
        ("CODU", &codu, CODU_FLOOR),
        ("CODL index miss", &codl, CODL_FLOOR),
    ] {
        println!(
            "{name}: same C*(q) on {}/{} queries ({:.1}%), mean Jaccard {:.3}",
            t.agree,
            t.queries,
            100.0 * t.agreement(),
            t.mean_jaccard()
        );
        assert!(t.agreement() >= agree, "{name}: agreement below {agree}");
        assert!(
            t.mean_jaccard() >= jaccard,
            "{name}: Jaccard below {jaccard}"
        );
    }
}
