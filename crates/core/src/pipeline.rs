//! Shared query configuration and answer types for the four COD variants
//! evaluated in the paper's §V (CODU, CODR, CODL⁻, CODL), all served by
//! [`crate::engine::CodEngine`]:
//!
//! * [`CodConfig`] — the paper's parameters plus the serving knobs,
//!   among them the per-query deadline, the one query limit;
//! * [`CodAnswer`] — the characteristic community's members plus
//!   diagnostics ([`AnswerSource`], [`CacheOutcome`]);
//! * `validate_query` — the one boundary check every query passes.

use cod_graph::{AttrId, AttributedGraph, NodeId};
use cod_influence::{Model, Parallelism};

use crate::compressed::total_theta;
use crate::engine::Method;
use crate::error::{CodError, CodResult};

/// Shared configuration for all COD variants (paper §V-A defaults).
#[derive(Clone, Copy, Debug)]
pub struct CodConfig {
    /// Required influence rank `k` (default 5).
    pub k: usize,
    /// RR graphs per node `θ` (default 10).
    pub theta: usize,
    /// Extra weight `β` on query-attributed edges in `g_ℓ` (default 1).
    pub beta: f64,
    /// Diffusion model (default weighted cascade).
    pub model: Model,
    /// Optional cap on the *total* RR samples one query may draw. When the
    /// full `θ·|universe|` exceeds it, evaluation runs with fewer samples
    /// and the answer comes back flagged [`CodAnswer::uncertain`] instead
    /// of failing. `None` (the default) means unbounded.
    pub budget: Option<usize>,
    /// Thread fan-out for RR sampling and index construction (default
    /// `Threads(1)`). Sampling is always seeded per sample index: one
    /// master seed is drawn from the caller's RNG and every sample index
    /// gets its own derived RNG, so answers are bit-identical for every
    /// thread count, `Auto` included.
    pub parallelism: Parallelism,
    /// Arm per-phase wall-clock timers and attach a
    /// [`crate::telemetry::QueryTrace`] to every answer
    /// ([`CodAnswer::trace`]). Off by default: the evaluation path then
    /// performs zero clock reads. Event *counters* are collected either
    /// way, and neither mode touches the RNG — answers are bit-identical
    /// with tracing on or off (asserted by the seed-replay suite).
    pub trace: bool,
    /// Wall-clock deadline per query, measured from when the engine starts
    /// planning it; `None` (the default) means unlimited. A deadline that
    /// never passes is invisible: the cancellation checkpoints never touch
    /// an RNG, so answers are bit-identical to running without one
    /// (asserted by the seed-replay suite). When it passes mid-query the
    /// engine degrades down the method ladder (CODL → CODL⁻ → CODU) and
    /// flags the answer via [`CodAnswer::degraded`]; if no rung can answer,
    /// the query fails with [`CodError::DeadlineExceeded`].
    pub deadline: Option<std::time::Duration>,
    /// Admission-control cap on concurrent
    /// [`crate::engine::CodEngine::query_batch`]
    /// calls. When the cap is reached, further calls are shed immediately
    /// with the retriable [`CodError::Overloaded`] instead of queueing.
    /// `None` (the default) admits everything.
    pub max_inflight: Option<usize>,
    /// Serve compressed evaluations from the engine's cross-query shared
    /// RR-pool cache ([`crate::pool`]): queries on the same
    /// `(attribute, universe)` key re-fold cached RR graphs instead of
    /// resampling. Off by default because pooled sampling is key-derived —
    /// answers are deterministic and identical warm or cold, but not
    /// bit-identical to the unpooled paths' per-query master seeds.
    /// The cache evicts least-recently-used pools past
    /// [`crate::pool::DEFAULT_POOL_BUDGET_BYTES`].
    pub pool: bool,
}

impl Default for CodConfig {
    fn default() -> Self {
        Self {
            k: 5,
            theta: 10,
            beta: 1.0,
            model: Model::WeightedCascade,
            budget: None,
            parallelism: Parallelism::default(),
            trace: false,
            deadline: None,
            max_inflight: None,
            pool: false,
        }
    }
}

/// Validates the user-supplied query parameters against `g` (with
/// `num_attrs` attribute ids, which the caller already knows) and `cfg`
/// before any work happens. The engine calls this once at its boundary, so
/// the algorithm internals can assume well-formed input.
pub(crate) fn validate_query(
    g: &AttributedGraph,
    num_attrs: usize,
    cfg: &CodConfig,
    q: NodeId,
    attr: Option<AttrId>,
) -> CodResult<()> {
    let n = g.num_nodes();
    if (q as usize) >= n {
        return Err(CodError::InvalidQuery(format!(
            "query node {q} out of range (graph has {n} nodes)"
        )));
    }
    if let Some(a) = attr {
        if (a as usize) >= num_attrs {
            return Err(CodError::InvalidQuery(format!(
                "unknown attribute id {a} (graph has {num_attrs} interned attributes)"
            )));
        }
    }
    if cfg.k == 0 {
        return Err(CodError::InvalidQuery(
            "top-k rank threshold k must be at least 1".into(),
        ));
    }
    if cfg.theta == 0 {
        return Err(CodError::InvalidQuery(
            "per-node sample count theta must be at least 1".into(),
        ));
    }
    // Every chain universe and the HIMOR index draw at most θ·|V| samples.
    total_theta(cfg.theta, n)?;
    Ok(())
}

/// How a query was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerSource {
    /// Straight from the HIMOR index (Algorithm 3, lines 1–2).
    Index,
    /// By compressed COD evaluation (Algorithm 1).
    Compressed,
}

/// Whether the engine served a query's reclustered hierarchy from its
/// artifact cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The query attribute's artifact was already resident.
    Hit,
    /// The artifact was built for this query (and cached for the next).
    Miss,
}

/// A characteristic community answer.
#[derive(Clone, Debug)]
pub struct CodAnswer {
    /// Members of `C*(q)`, sorted ascending.
    pub members: Vec<NodeId>,
    /// Estimated 1-based influence rank of `q` in `C*(q)`.
    pub rank: usize,
    /// Where the answer came from.
    pub source: AnswerSource,
    /// Best-effort flag: the winning level's top-k verdict could flip under
    /// sampling noise, or a sample budget truncated the evaluation.
    pub uncertain: bool,
    /// Set when the deadline (or the engine kill switch) forced the
    /// degradation ladder:
    /// the method rung that actually served the answer (equal to the
    /// requested method when the primary rung still answered, lower —
    /// e.g. [`Method::Codu`] for a CODL query — when the engine fell
    /// back). `None` for every answer served without a token firing;
    /// degraded answers are always also [`CodAnswer::uncertain`].
    pub degraded: Option<Method>,
    /// Engine diagnostic: artifact-cache outcome for the query's
    /// reclustered hierarchy. `None` when no recluster was involved (CODU,
    /// index hits, degenerate LORE) or the answer predates the engine.
    pub cache: Option<CacheOutcome>,
    /// Per-query telemetry (phase durations + counter deltas). Attached by
    /// the engine when [`CodConfig::trace`] is set; `None` otherwise.
    pub trace: Option<crate::telemetry::QueryTrace>,
}

/// Equality deliberately ignores [`CodAnswer::cache`] and
/// [`CodAnswer::trace`]: they describe the serving path, not the answer. A
/// warm-cache answer *is* the cold-cache answer (reclustering is
/// deterministic) and a traced answer *is* the untraced answer, and the
/// equivalence suites assert exactly that with `assert_eq!`.
impl PartialEq for CodAnswer {
    fn eq(&self, other: &Self) -> bool {
        self.members == other.members
            && self.rank == other.rank
            && self.source == other.source
            && self.uncertain == other.uncertain
            && self.degraded == other.degraded
    }
}

impl Eq for CodAnswer {}

impl CodAnswer {
    /// `|C*|`.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CodEngine, Query};
    use cod_graph::{AttrInterner, AttrTable, GraphBuilder};
    use rand::prelude::*;

    /// Two attribute-homogeneous triangles bridged; hubs 0 and 3.
    fn toy() -> AttributedGraph {
        let mut b = GraphBuilder::new(8);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 2),
            (3, 4),
            (3, 5),
            (4, 5),
            (2, 3),
            (0, 6),
            (0, 7),
            (6, 7),
        ] {
            b.add_edge(u, v);
        }
        let mut i = AttrInterner::new();
        let a = i.intern("A");
        let c = i.intern("B");
        let lists = vec![
            vec![a],
            vec![a],
            vec![a],
            vec![c],
            vec![c],
            vec![c],
            vec![a],
            vec![a],
        ];
        AttributedGraph::from_parts(b.build(), AttrTable::from_lists(lists), i)
    }

    fn cfg() -> CodConfig {
        CodConfig {
            k: 2,
            theta: 120,
            ..CodConfig::default()
        }
    }

    #[test]
    fn codu_finds_some_community_for_a_hub() {
        let engine = CodEngine::new(toy(), cfg());
        let mut rng = SmallRng::seed_from_u64(31);
        let ans = engine
            .query(Query::codu(0), &mut rng)
            .unwrap()
            .expect("hub has a community");
        assert!(ans.members.contains(&0));
        assert!(ans.rank <= 2);
        assert_eq!(ans.source, AnswerSource::Compressed);
    }

    #[test]
    fn codr_and_codl_minus_accept_attributes() {
        let engine = CodEngine::new(toy(), cfg());
        let mut rng = SmallRng::seed_from_u64(32);
        for method in [Method::Codr, Method::CodlMinus] {
            let ans = engine.query(Query::new(0, 0, method), &mut rng).unwrap();
            assert!(ans.is_some(), "{method:?}");
        }
    }

    #[test]
    fn codl_index_answers_hub_queries() {
        let engine = CodEngine::new(toy(), cfg());
        let mut rng = SmallRng::seed_from_u64(33);
        let ans = engine
            .query(Query::new(0, 0, Method::Codl), &mut rng)
            .unwrap()
            .expect("hub answered");
        assert!(ans.members.contains(&0));
        // The hub is globally influential, so the index should answer.
        assert_eq!(ans.source, AnswerSource::Index);
        assert!(!ans.uncertain);
    }

    #[test]
    fn all_variants_return_communities_containing_q() {
        let g = toy();
        let engine = CodEngine::new(g.clone(), cfg());
        let mut rng = SmallRng::seed_from_u64(34);
        for q in 0..8u32 {
            let attr = g.node_attrs(q)[0];
            for method in [Method::Codu, Method::Codr, Method::CodlMinus, Method::Codl] {
                let Some(ans) = engine.query(Query::new(q, attr, method), &mut rng).unwrap() else {
                    continue;
                };
                assert!(ans.members.contains(&q), "q={q} missing from C*");
                assert!(ans.members.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn boundary_rejects_bad_parameters_without_panicking() {
        let engine = CodEngine::new(toy(), cfg());
        let mut rng = SmallRng::seed_from_u64(35);
        // Node id out of range.
        let err = engine.query(Query::codu(99), &mut rng).unwrap_err();
        assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
        // Unknown attribute id.
        let err = engine
            .query(Query::new(0, 77, Method::Codr), &mut rng)
            .unwrap_err();
        assert!(err.to_string().contains("unknown attribute"), "{err}");
        // k == 0 and theta == 0.
        for bad in [CodConfig { k: 0, ..cfg() }, CodConfig { theta: 0, ..cfg() }] {
            let engine = CodEngine::new(toy(), bad);
            let err = engine.query(Query::codu(0), &mut rng).unwrap_err();
            assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
        }
    }

    #[test]
    fn tight_budget_yields_best_effort_uncertain_answer() {
        let tight = CodConfig {
            budget: Some(8),
            ..cfg()
        };
        let mut rng = SmallRng::seed_from_u64(36);
        // 8 total samples instead of θ·|V| = 960: the query still answers,
        // but must carry the best-effort flag.
        let engine = CodEngine::new(toy(), tight);
        if let Some(ans) = engine.query(Query::codu(0), &mut rng).unwrap() {
            assert!(ans.uncertain, "truncated evaluation must be flagged");
        }
        // A zero budget is a hard error, not a silent empty answer.
        let starved = CodConfig {
            budget: Some(0),
            ..cfg()
        };
        let engine = CodEngine::new(toy(), starved);
        let err = engine.query(Query::codu(0), &mut rng).unwrap_err();
        assert!(matches!(err, CodError::BudgetExhausted { .. }), "{err}");
    }
}
