//! Attribute-aware edge weighting and hierarchy (re)construction (§IV).
//!
//! The transform to the weighted graph `g_ℓ` follows the paper's CODR
//! description ("placing additional weights for query attributed edges"):
//! an edge whose endpoints both carry the query attribute gets weight
//! `1 + β`, every other edge weight `1`. The transform scheme is declared
//! orthogonal to the contribution (§V-A); `β` defaults to 1 and is swept in
//! the ablation benches. Every (re)clustering here is §V-A's NN-chain with
//! unweighted-average linkage ([`cod_hierarchy::nnchain`]).

use cod_graph::subgraph::Subgraph;
use cod_graph::{AttrId, AttributedGraph, Csr, NodeId};
use cod_hierarchy::{cluster_governed, cluster_unweighted, Dendrogram};
use cod_influence::CancelToken;

use crate::failpoint;

/// Merges between governance polls of a governed (re)clustering. The first
/// merge also polls, so short clusterings still observe an armed token.
const LINKAGE_CHECK_EVERY: usize = 256;

/// The per-merge callback a governed clustering hands to
/// [`cluster_governed`]: every [`LINKAGE_CHECK_EVERY`] merges (and on the
/// first) it hits the `LinkageRound` failpoint and polls the token.
fn linkage_keep_going(cancel: Option<&CancelToken>) -> impl FnMut(usize) -> bool + '_ {
    move |done| {
        if done != 1 && done % LINKAGE_CHECK_EVERY != 0 {
            return true;
        }
        failpoint::hit(failpoint::Site::LinkageRound, cancel);
        match cancel {
            Some(tok) => !tok.should_stop(),
            None => true,
        }
    }
}

/// Default additional weight `β` for query-attributed edges.
pub const DEFAULT_BETA: f64 = 1.0;

/// How edge weights of `g_ℓ` are derived from attributes. The paper's CODR
/// only requires "additional weights for query attributed edges" and cites
/// more elaborate attributed-clustering schemes \[25, 26\] as orthogonal;
/// all three flavours below are accepted everywhere a `β` is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightScheme {
    /// `w = 1 + β` when both endpoints carry the query attribute, else 1 —
    /// the default transform used throughout the experiments.
    QueryBoost(f64),
    /// `w = 1 + β·J(A(u), A(v))` with an extra `+β` when both endpoints
    /// carry the query attribute: blends overall attribute similarity
    /// (Jaccard) with query relevance, in the spirit of \[26\].
    JaccardBlend(f64),
    /// `w = (1 + β·[query-attributed]) / sqrt(deg(u)·deg(v))`:
    /// degree-normalized boost, damping hub domination (§IV's skew
    /// discussion).
    DegreeNormalized(f64),
}

impl WeightScheme {
    /// Weight of the edge `{u, v}`.
    pub fn weight(&self, g: &AttributedGraph, u: NodeId, v: NodeId, attr: AttrId) -> f64 {
        let attributed = g.edge_is_attributed(u, v, attr);
        match *self {
            WeightScheme::QueryBoost(beta) => {
                if attributed {
                    1.0 + beta
                } else {
                    1.0
                }
            }
            WeightScheme::JaccardBlend(beta) => {
                let a = g.node_attrs(u);
                let b = g.node_attrs(v);
                let inter = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
                let union = a.len() + b.len() - inter;
                let j = if union == 0 {
                    0.0
                } else {
                    inter as f64 / union as f64
                };
                1.0 + beta * j + if attributed { beta } else { 0.0 }
            }
            WeightScheme::DegreeNormalized(beta) => {
                let boost = if attributed { 1.0 + beta } else { 1.0 };
                boost / ((g.degree(u) as f64) * (g.degree(v) as f64)).sqrt()
            }
        }
    }
}

/// Per-half-edge weights of `g_ℓ` for query attribute `attr` (the default
/// [`WeightScheme::QueryBoost`] transform).
pub fn attribute_weights(g: &AttributedGraph, attr: AttrId, beta: f64) -> Vec<f64> {
    attribute_weights_with(g, attr, WeightScheme::QueryBoost(beta))
}

/// Per-half-edge weights of `g_ℓ` under an arbitrary [`WeightScheme`].
pub fn attribute_weights_with(g: &AttributedGraph, attr: AttrId, scheme: WeightScheme) -> Vec<f64> {
    let csr = g.csr();
    let mut w = vec![1.0; csr.num_half_edges()];
    for u in 0..g.num_nodes() as NodeId {
        for (idx, &v) in csr.neighbor_range(u).zip(csr.neighbors(u)) {
            w[idx] = scheme.weight(g, u, v, attr);
        }
    }
    w
}

/// The non-attributed hierarchy `T` (CODU's hierarchy, LORE's reference).
pub fn build_hierarchy(g: &Csr) -> Dendrogram {
    Dendrogram::from_merges(g.num_nodes(), &cluster_unweighted(g))
}

/// CODR's global reclustering: hierarchical clustering of `g_ℓ` from
/// scratch.
pub fn global_recluster(g: &AttributedGraph, attr: AttrId, beta: f64) -> Dendrogram {
    match global_recluster_governed(g, attr, beta, None) {
        Some(d) => d,
        None => unreachable!("an ungoverned reclustering has no token to cancel it"),
    }
}

/// [`global_recluster`] under cooperative governance: polls `cancel` every
/// `LINKAGE_CHECK_EVERY` merges and returns `None` when it fired — a
/// half-clustered hierarchy is never observable. The poll cannot change the
/// merge order, so `cancel: None` (or a token that never fires) reproduces
/// [`global_recluster`] exactly.
pub fn global_recluster_governed(
    g: &AttributedGraph,
    attr: AttrId,
    beta: f64,
    cancel: Option<&CancelToken>,
) -> Option<Dendrogram> {
    let w = attribute_weights(g, attr, beta);
    let merges = cluster_governed(g.csr(), &w, linkage_keep_going(cancel))?;
    Some(Dendrogram::from_merges(g.num_nodes(), &merges))
}

/// LORE's local reclustering: extracts the subgraph induced by `members`
/// (the chosen `C_ℓ`) and clusters it with attribute-aware weights
/// (Algorithm 2, lines 2–3). Returns the subgraph (with its node mapping)
/// and the dendrogram over *local* ids.
pub fn local_recluster(
    g: &AttributedGraph,
    members: &[NodeId],
    attr: AttrId,
    beta: f64,
) -> (Subgraph, Dendrogram) {
    match local_recluster_governed(g, members, attr, beta, None) {
        Some(out) => out,
        None => unreachable!("an ungoverned reclustering has no token to cancel it"),
    }
}

/// [`local_recluster`] under cooperative governance (see
/// [`global_recluster_governed`] for the contract).
pub fn local_recluster_governed(
    g: &AttributedGraph,
    members: &[NodeId],
    attr: AttrId,
    beta: f64,
    cancel: Option<&CancelToken>,
) -> Option<(Subgraph, Dendrogram)> {
    let sub = Subgraph::induced(g.csr(), members);
    let mut w = vec![1.0; sub.csr.num_half_edges()];
    for lu in 0..sub.len() as NodeId {
        let gu = sub.parent(lu);
        if !g.has_attr(gu, attr) {
            continue;
        }
        for (idx, &lv) in sub.csr.neighbor_range(lu).zip(sub.csr.neighbors(lu)) {
            if g.has_attr(sub.parent(lv), attr) {
                w[idx] = 1.0 + beta;
            }
        }
    }
    let merges = cluster_governed(&sub.csr, &w, linkage_keep_going(cancel))?;
    let dendro = Dendrogram::from_merges(sub.len(), &merges);
    Some((sub, dendro))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::{AttrInterner, AttrTable, GraphBuilder};

    /// Path 0-1-2-3 where {0,1} carry attribute 0.
    fn attributed_path() -> AttributedGraph {
        let mut b = GraphBuilder::new(4);
        for v in 0..3 {
            b.add_edge(v, v + 1);
        }
        let attrs = AttrTable::from_lists(vec![vec![0], vec![0], vec![], vec![]]);
        AttributedGraph::from_parts(b.build(), attrs, AttrInterner::new())
    }

    #[test]
    fn attributed_edges_get_boosted() {
        let g = attributed_path();
        let w = attribute_weights(&g, 0, 1.0);
        // Edge (0,1) is attributed: both half-edges weigh 2; others 1.
        let mut boosted = 0;
        for x in &w {
            if (*x - 2.0).abs() < 1e-12 {
                boosted += 1;
            } else {
                assert!((*x - 1.0).abs() < 1e-12);
            }
        }
        assert_eq!(boosted, 2);
    }

    #[test]
    fn global_recluster_prefers_attributed_edge() {
        // Path 0-1-2: unweighted ties; with attribute on {1,2} the first
        // merge must be {1,2}.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let attrs = AttrTable::from_lists(vec![vec![], vec![0], vec![0]]);
        let g = AttributedGraph::from_parts(b.build(), attrs, AttrInterner::new());
        let d = global_recluster(&g, 0, 1.0);
        // First merge vertex (id 3) must be {1,2}.
        assert_eq!(d.members_sorted(3), vec![1, 2]);
    }

    #[test]
    fn local_recluster_stays_inside_members() {
        let g = attributed_path();
        let (sub, d) = local_recluster(&g, &[1, 2, 3], 0, 1.0);
        assert_eq!(sub.len(), 3);
        assert_eq!(d.num_leaves(), 3);
        assert_eq!(d.size(d.root()), 3);
    }

    #[test]
    fn jaccard_blend_rewards_shared_attributes() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let attrs = AttrTable::from_lists(vec![vec![0, 1], vec![0, 1], vec![2]]);
        let g = AttributedGraph::from_parts(b.build(), attrs, AttrInterner::new());
        let s = WeightScheme::JaccardBlend(2.0);
        // (0,1): full Jaccard (1.0) and query-attributed for attr 0.
        let w01 = s.weight(&g, 0, 1, 0);
        assert!((w01 - (1.0 + 2.0 + 2.0)).abs() < 1e-12);
        // (1,2): no shared attributes.
        let w12 = s.weight(&g, 1, 2, 0);
        assert!((w12 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_normalized_damps_hubs() {
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v);
        }
        b.add_edge(1, 2);
        let g = AttributedGraph::unattributed(b.build());
        let s = WeightScheme::DegreeNormalized(0.0);
        // Hub edge (0,1): deg 4·2; peripheral edge (1,2): deg 2·2.
        assert!(s.weight(&g, 0, 1, 0) < s.weight(&g, 1, 2, 0));
    }

    #[test]
    fn query_boost_matches_legacy_weights() {
        let g = attributed_path();
        let a = attribute_weights(&g, 0, 1.5);
        let b = attribute_weights_with(&g, 0, WeightScheme::QueryBoost(1.5));
        assert_eq!(a, b);
    }

    #[test]
    fn build_hierarchy_covers_graph() {
        let g = attributed_path();
        let d = build_hierarchy(g.csr());
        assert_eq!(d.size(d.root()), 4);
    }
}
