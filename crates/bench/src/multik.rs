//! Multi-k query evaluation.
//!
//! Fig. 7 sweeps `k = 1..=5` for every method; re-running each method per
//! `k` would quintuple the cost for nothing, because compressed COD
//! evaluation already produces the per-level rank of the query node
//! (`CodOutcome::ranks`), whose entries are exact whenever `≤ k_max`. This
//! module derives all per-k characteristic communities from one evaluation
//! (and one estimate per baseline community).

use cod_core::chain::Chain;
use cod_core::compressed::CodOutcome;
use cod_core::lore::select_recluster_community;
use cod_core::recluster::{global_recluster, local_recluster};
use cod_core::{CodConfig, HimorIndex};
use cod_graph::{AttrId, AttributedGraph, NodeId};
use cod_hierarchy::{Dendrogram, LcaIndex};
use rand::prelude::*;

use crate::util::{community_estimate, compressed};

/// Characteristic communities of one query for each `k = 1..=k_max`.
/// `per_k[k-1]` is `None` when no community qualifies at that `k`.
#[derive(Clone, Debug, Default)]
pub struct MultiK {
    /// Answer members per k (sorted), shared when the level coincides.
    pub per_k: Vec<Option<Vec<NodeId>>>,
}

impl MultiK {
    fn from_outcome(chain: &Chain<'_>, out: &CodOutcome, k_max: usize) -> Self {
        let mut per_k = Vec::with_capacity(k_max);
        for k in 1..=k_max {
            let best = (0..chain.len()).rfind(|&h| out.ranks[h] <= k);
            per_k.push(best.map(|h| chain.members(h)));
        }
        Self { per_k }
    }
}

/// CODU for all `k` at once.
pub fn codu_multi_k<R: Rng>(
    g: &AttributedGraph,
    cfg: CodConfig,
    dendro: &Dendrogram,
    lca: &LcaIndex,
    q: NodeId,
    k_max: usize,
    rng: &mut R,
) -> MultiK {
    let chain = Chain::new(dendro, lca, q).expect("query node within hierarchy");
    if chain.is_empty() {
        return MultiK {
            per_k: vec![None; k_max],
        };
    }
    let out = compressed(g.csr(), cfg, &chain, q, k_max, cfg.theta, rng);
    MultiK::from_outcome(&chain, &out, k_max)
}

/// CODR for all `k` at once (one global reclustering per query).
pub fn codr_multi_k<R: Rng>(
    g: &AttributedGraph,
    cfg: CodConfig,
    q: NodeId,
    attr: AttrId,
    k_max: usize,
    rng: &mut R,
) -> MultiK {
    let dendro = global_recluster(g, attr, cfg.beta);
    let lca = LcaIndex::new(&dendro);
    let chain = Chain::new(&dendro, &lca, q).expect("query node within hierarchy");
    if chain.is_empty() {
        return MultiK {
            per_k: vec![None; k_max],
        };
    }
    let out = compressed(g.csr(), cfg, &chain, q, k_max, cfg.theta, rng);
    MultiK::from_outcome(&chain, &out, k_max)
}

/// CODL⁻ for all `k` at once (LORE chain, no index).
#[allow(clippy::too_many_arguments)] // mirrors the paper's query signature plus shared state
pub fn codl_minus_multi_k<R: Rng>(
    g: &AttributedGraph,
    cfg: CodConfig,
    dendro: &Dendrogram,
    lca: &LcaIndex,
    q: NodeId,
    attr: AttrId,
    k_max: usize,
    rng: &mut R,
) -> MultiK {
    match select_recluster_community(g, dendro, lca, q, attr) {
        None => codu_multi_k(g, cfg, dendro, lca, q, k_max, rng),
        Some(choice) => {
            let members = dendro.members_sorted(choice.vertex);
            let (sub, sd) = local_recluster(g, &members, attr, cfg.beta);
            let slca = LcaIndex::new(&sd);
            let chain = Chain::local(&sub, &sd, &slca, q, Some((dendro, lca, choice.vertex)))
                .expect("query node inside C_ell");
            if chain.is_empty() {
                return MultiK {
                    per_k: vec![None; k_max],
                };
            }
            let out = compressed(g.csr(), cfg, &chain, q, k_max, cfg.theta, rng);
            MultiK::from_outcome(&chain, &out, k_max)
        }
    }
}

/// CODL for all `k` at once: per-k index scan plus (at most) one
/// compressed fallback evaluation inside the reclustered `C_ℓ`.
#[allow(clippy::too_many_arguments)] // mirrors the paper's query signature plus shared state
pub fn codl_multi_k<R: Rng>(
    g: &AttributedGraph,
    cfg: CodConfig,
    dendro: &Dendrogram,
    lca: &LcaIndex,
    index: &HimorIndex,
    q: NodeId,
    attr: AttrId,
    k_max: usize,
    rng: &mut R,
) -> MultiK {
    let choice = select_recluster_community(g, dendro, lca, q, attr);
    let floor = choice.map(|c| c.vertex);
    // Build the fallback (reclustered) outcome lazily, only when some k
    // misses the index.
    let mut fallback: Option<(SubgraphOwned, CodOutcome)> = None;
    let mut per_k = Vec::with_capacity(k_max);
    for k in 1..=k_max {
        if let Some(c) = index.largest_top_k(dendro, q, floor, k) {
            per_k.push(Some(dendro.members_sorted(c)));
            continue;
        }
        let Some(choice) = choice else {
            per_k.push(None);
            continue;
        };
        if fallback.is_none() {
            let members = dendro.members_sorted(choice.vertex);
            let (sub, sd) = local_recluster(g, &members, attr, cfg.beta);
            let slca = LcaIndex::new(&sd);
            let out = {
                let chain =
                    Chain::local(&sub, &sd, &slca, q, None).expect("query node inside C_ell");
                if chain.is_empty() {
                    CodOutcome {
                        best_level: None,
                        ranks: Vec::new(),
                        sigma_q: Vec::new(),
                        uncertain: Vec::new(),
                        theta: 0,
                        truncated: false,
                        cancelled: false,
                    }
                } else {
                    compressed(g.csr(), cfg, &chain, q, k_max, cfg.theta, rng)
                }
            };
            fallback = Some((SubgraphOwned { sub, sd, slca }, out));
        }
        let (owned, out) = fallback.as_ref().unwrap();
        let chain = Chain::local(&owned.sub, &owned.sd, &owned.slca, q, None)
            .expect("query node inside C_ell");
        let best = (0..chain.len()).rfind(|&h| out.ranks[h] <= k);
        per_k.push(best.map(|h| chain.members(h)));
    }
    MultiK { per_k }
}

/// Owned reclustering artifacts kept alive for repeated chain views.
struct SubgraphOwned {
    sub: cod_graph::subgraph::Subgraph,
    sd: Dendrogram,
    slca: LcaIndex,
}

/// A community-search baseline answer turned into per-k characteristic
/// communities: the community counts for `k` iff the query node's
/// estimated influence rank within it is `≤ k` (paper §V-A).
pub fn baseline_multi_k<R: Rng>(
    g: &AttributedGraph,
    cfg: CodConfig,
    community: Option<Vec<NodeId>>,
    q: NodeId,
    k_max: usize,
    rng: &mut R,
) -> MultiK {
    let mut per_k = vec![None; k_max];
    if let Some(members) = community {
        if !members.is_empty() {
            let theta = cfg.theta.max(1) * members.len();
            let est = community_estimate(g.csr(), cfg.model, &members, theta, rng);
            let rank = est.rank(q, &members);
            for (i, slot) in per_k.iter_mut().enumerate() {
                if rank <= i + 1 {
                    *slot = Some(members.clone());
                }
            }
        }
    }
    MultiK { per_k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_core::recluster::build_hierarchy;

    #[test]
    fn per_k_answers_are_nested_in_size() {
        let data = cod_datasets::amazon_like_scaled(500, 5);
        let g = &data.graph;
        let cfg = CodConfig {
            theta: 40,
            ..CodConfig::default()
        };
        let dendro = build_hierarchy(g.csr());
        let lca = LcaIndex::new(&dendro);
        let mut rng = SmallRng::seed_from_u64(6);
        let queries = cod_datasets::gen_queries(g, 6, &mut rng);
        for &(q, _) in &queries {
            let mk = codu_multi_k(g, cfg, &dendro, &lca, q, 5, &mut rng);
            assert_eq!(mk.per_k.len(), 5);
            let mut prev = 0usize;
            for m in mk.per_k.iter().flatten() {
                assert!(m.len() >= prev, "sizes weakly grow with k");
                prev = m.len();
                assert!(m.binary_search(&q).is_ok());
            }
        }
    }

    #[test]
    fn baseline_multi_k_thresholds_by_rank() {
        let data = cod_datasets::paper_example();
        let g = &data.graph;
        let cfg = CodConfig {
            theta: 400,
            ..CodConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(7);
        // Node 6 dominates {6,7,8,9} (it is their hub).
        let mk = baseline_multi_k(g, cfg, Some(vec![6, 7, 8, 9]), 6, 3, &mut rng);
        assert!(mk.per_k[0].is_some(), "hub is rank 1 in its star");
        // Node 9 is a leaf: not rank 1.
        let mk9 = baseline_multi_k(g, cfg, Some(vec![6, 7, 8, 9]), 9, 3, &mut rng);
        assert!(mk9.per_k[0].is_none());
        // And missing communities yield all-None.
        let none = baseline_multi_k(g, cfg, None, 0, 3, &mut rng);
        assert!(none.per_k.iter().all(Option::is_none));
    }
}
