//! The naïve per-community COD baseline (§V-C's `Independent`).
//!
//! Evaluates the influence rank of `q` in every community of the chain
//! *from scratch*: each community `C` gets its own `Θ_C = θ·|C|` RR graphs
//! with sources drawn from `C` and traversal restricted to `C`. Total
//! sampling cost `θ·Σ_C |C|`, which is what makes the paper's Fig. 8/9
//! comparisons so lopsided.

use cod_graph::{Csr, NodeId};
use cod_influence::{InfluenceEstimate, Model, Parallelism, SeedSequence};
use rand::prelude::*;

use crate::chain::Chain;
use crate::compressed::CodOutcome;

/// Runs the Independent baseline for query `q` over `chain`. Each
/// community's estimate draws from its own master seed, taken from `rng`
/// in chain order.
pub fn independent_cod<R: Rng>(
    g: &Csr,
    model: Model,
    chain: &Chain<'_>,
    q: NodeId,
    k: usize,
    theta_per_node: usize,
    rng: &mut R,
) -> CodOutcome {
    assert!(k >= 1);
    let m = chain.len();
    let mut best_level = None;
    let mut ranks = Vec::with_capacity(m);
    let mut sigma_q = Vec::with_capacity(m);
    let mut total_theta = 0usize;
    for h in 0..m {
        let members = chain.members(h);
        let theta = theta_per_node.max(1) * members.len();
        total_theta += theta;
        let seeds = SeedSequence::new(rng.next_u64());
        let est = InfluenceEstimate::on_community(
            g,
            model,
            &members,
            theta,
            seeds,
            Parallelism::Threads(1),
        );
        let rank = est.rank(q, &members);
        ranks.push(rank);
        sigma_q.push(est.sigma(q));
        if rank <= k {
            best_level = Some(h);
        }
    }
    CodOutcome {
        best_level,
        ranks,
        sigma_q,
        uncertain: vec![false; m],
        theta: total_theta,
        truncated: false,
        cancelled: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;
    use cod_hierarchy::{cluster_unweighted, Dendrogram, LcaIndex};

    #[test]
    fn agrees_with_structure_on_a_star() {
        let mut b = GraphBuilder::new(6);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        let g = b.build();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(6, &merges);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let out = independent_cod(&g, Model::WeightedCascade, &chain, 0, 1, 200, &mut rng);
        assert_eq!(out.best_level, Some(chain.len() - 1));
        for &r in &out.ranks {
            assert_eq!(r, 1);
        }
    }

    #[test]
    fn total_theta_is_sum_over_communities() {
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(4, &merges);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 1).unwrap();
        let mut rng = SmallRng::seed_from_u64(10);
        let out = independent_cod(&g, Model::WeightedCascade, &chain, 1, 1, 3, &mut rng);
        let expected: usize = (0..chain.len()).map(|h| 3 * chain.size(h)).sum();
        assert_eq!(out.theta, expected);
    }
}
