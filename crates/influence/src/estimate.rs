//! RR-based influence estimation and rank computation.

use cod_graph::{Csr, FxHashMap, NodeId};
use rand::prelude::*;

use crate::model::Model;
use crate::parallel::{par_ranges, Parallelism};
use crate::rrgraph::RrGraph;
use crate::sampler::RrSampler;
use crate::seed::SeedSequence;

fn merge_count_shards(shards: Vec<FxHashMap<NodeId, u32>>) -> FxHashMap<NodeId, u32> {
    let mut iter = shards.into_iter();
    let mut counts = iter.next().unwrap_or_default();
    for shard in iter {
        // Addition commutes, so the merge order cannot affect the result.
        for (v, c) in shard {
            *counts.entry(v).or_insert(0) += c;
        }
    }
    counts
}

/// Where RR-sample sources are drawn from (and what traversal may touch).
#[derive(Clone, Copy, Debug)]
enum SourceUniverse<'a> {
    /// Uniform sources over the whole graph, unrestricted traversal.
    Graph,
    /// Uniform sources over `members` (sorted ascending), traversal
    /// restricted to `members` — the paper's per-community estimator.
    Members(&'a [NodeId]),
}

impl SourceUniverse<'_> {
    fn len(&self, g: &Csr) -> usize {
        match self {
            SourceUniverse::Graph => g.num_nodes(),
            SourceUniverse::Members(m) => m.len(),
        }
    }
}

/// Draws one RR sample per the universe into `rr` and folds its nodes into
/// `counts`: a uniform source from `rng`, then its draw from the same
/// stream. This is the shared per-sample body of every estimation loop.
#[inline]
fn record_one<R: Rng>(
    sampler: &mut RrSampler<'_>,
    universe: SourceUniverse<'_>,
    rng: &mut R,
    rr: &mut RrGraph,
    counts: &mut FxHashMap<NodeId, u32>,
) {
    match universe {
        SourceUniverse::Graph => {
            let s = rng.random_range(0..sampler.graph().num_nodes()) as NodeId;
            sampler.sample_into(s, rng, |_| true, rr);
        }
        SourceUniverse::Members(members) => {
            let s = members[rng.random_range(0..members.len())];
            sampler.sample_into(s, rng, |v| members.binary_search(&v).is_ok(), rr);
        }
    }
    for &v in rr.view().nodes() {
        *counts.entry(v).or_insert(0) += 1;
    }
}

/// RR-sample appearance counts over a node universe of size `universe`,
/// from `theta` samples. `σ̂(v) = count(v) / theta · universe` (Theorem 1).
#[derive(Clone, Debug)]
pub struct InfluenceEstimate {
    counts: FxHashMap<NodeId, u32>,
    theta: usize,
    universe: usize,
}

impl InfluenceEstimate {
    /// The single estimation driver: `theta` RR samples over `universe`,
    /// sample `i` drawn from `seeds.rng_for(i)`, fanned out under `par`.
    /// Each shard draws into its own sampler and [`RrGraph`].
    ///
    /// The estimate is a pure function of `(g, model, universe, theta,
    /// seeds)`: the resolved thread count never changes a sample, and
    /// shards merge by commutative count addition.
    fn with_policy(
        g: &Csr,
        model: Model,
        universe: SourceUniverse<'_>,
        theta: usize,
        seeds: SeedSequence,
        par: Parallelism,
    ) -> InfluenceEstimate {
        assert!(theta > 0 && universe.len(g) > 0);
        if let SourceUniverse::Members(m) = universe {
            debug_assert!(m.windows(2).all(|w| w[0] < w[1]));
        }
        let shards = par_ranges(theta, par.thread_count(), |range| {
            let mut sampler = RrSampler::new(g, model);
            let mut rr = RrGraph::default();
            let mut counts: FxHashMap<NodeId, u32> = FxHashMap::default();
            for i in range {
                let mut rng = seeds.rng_for(i as u64);
                record_one(&mut sampler, universe, &mut rng, &mut rr, &mut counts);
            }
            counts
        });
        InfluenceEstimate {
            counts: merge_count_shards(shards),
            theta,
            universe: universe.len(g),
        }
    }

    /// Estimates influences on the whole graph from `theta` RR graphs with
    /// uniformly random sources. Sample `i` draws its source and RR graph
    /// from `seeds.rng_for(i)`, so the estimate is identical for every
    /// thread count.
    pub fn on_graph(
        g: &Csr,
        model: Model,
        theta: usize,
        seeds: SeedSequence,
        par: Parallelism,
    ) -> InfluenceEstimate {
        Self::with_policy(g, model, SourceUniverse::Graph, theta, seeds, par)
    }

    /// Estimates influences *within a community* from `theta` RR graphs
    /// whose sources are uniform over `members` and whose traversal is
    /// restricted to `members` — the Independent baseline's per-community
    /// estimator (§V-C). `members` must be sorted ascending. Seeded and
    /// thread-count-invariant like [`InfluenceEstimate::on_graph`].
    pub fn on_community(
        g: &Csr,
        model: Model,
        members: &[NodeId],
        theta: usize,
        seeds: SeedSequence,
        par: Parallelism,
    ) -> InfluenceEstimate {
        let universe = SourceUniverse::Members(members);
        Self::with_policy(g, model, universe, theta, seeds, par)
    }

    /// Raw appearance count of `v`.
    #[inline]
    pub fn count(&self, v: NodeId) -> u32 {
        self.counts.get(&v).copied().unwrap_or(0)
    }

    /// Estimated influence `σ̂(v)`.
    #[inline]
    pub fn sigma(&self, v: NodeId) -> f64 {
        self.count(v) as f64 / self.theta as f64 * self.universe as f64
    }

    /// Number of samples used.
    #[inline]
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// Estimated 1-based influence rank of `q` among `members`
    /// (`|{v : σ̂(v) > σ̂(q)}| + 1`, the paper's `rank` with the
    /// top-k convention `rank ≤ k`).
    pub fn rank(&self, q: NodeId, members: &[NodeId]) -> usize {
        let cq = self.count(q);
        let higher = members.iter().filter(|&&v| self.count(v) > cq).count();
        higher + 1
    }

    /// Whether `q` is estimated top-k among `members`.
    pub fn is_top_k(&self, q: NodeId, members: &[NodeId], k: usize) -> bool {
        self.rank(q, members) <= k
    }
}

/// 1-based rank of `q` among `members` under an arbitrary score function
/// (strictly-greater comparison; ties favour `q`).
pub fn rank_in_members(members: &[NodeId], q: NodeId, score: impl Fn(NodeId) -> f64) -> usize {
    let sq = score(q);
    members.iter().filter(|&&v| score(v) > sq).count() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;

    fn star() -> Csr {
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v);
        }
        b.build()
    }

    #[test]
    fn center_of_star_ranks_first() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(5);
        let est = InfluenceEstimate::on_graph(
            &g,
            Model::WeightedCascade,
            5000,
            SeedSequence::new(rng.next_u64()),
            Parallelism::Threads(1),
        );
        let members: Vec<NodeId> = (0..5).collect();
        assert_eq!(est.rank(0, &members), 1);
        // σ(center) = 5 under weighted cascade (see montecarlo tests).
        assert!((est.sigma(0) - 5.0).abs() < 0.35, "sigma {}", est.sigma(0));
    }

    #[test]
    fn estimate_matches_theorem_1_on_pair() {
        // 0 - 1 with p = 1 both ways: every RR set contains both nodes, so
        // σ̂ = 2 exactly for both.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let mut rng = SmallRng::seed_from_u64(6);
        let est = InfluenceEstimate::on_graph(
            &g,
            Model::UniformIc(1.0),
            200,
            SeedSequence::new(rng.next_u64()),
            Parallelism::Threads(1),
        );
        assert_eq!(est.sigma(0), 2.0);
        assert_eq!(est.sigma(1), 2.0);
    }

    #[test]
    fn community_estimate_restricts_universe() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(7);
        let members = vec![0, 1, 2];
        let est = InfluenceEstimate::on_community(
            &g,
            Model::UniformIc(1.0),
            &members,
            300,
            SeedSequence::new(rng.next_u64()),
            Parallelism::Threads(1),
        );
        // With p = 1 inside {0,1,2} every restricted RR set covers all
        // three members.
        for &v in &members {
            assert_eq!(est.sigma(v), 3.0);
        }
        assert_eq!(est.count(3), 0);
    }

    #[test]
    fn seeded_estimates_are_thread_count_invariant() {
        let g = star();
        let seeds = SeedSequence::new(99);
        let members: Vec<NodeId> = (0..5).collect();
        let base = InfluenceEstimate::on_graph(
            &g,
            Model::WeightedCascade,
            512,
            seeds,
            Parallelism::Threads(1),
        );
        let base_c = InfluenceEstimate::on_community(
            &g,
            Model::WeightedCascade,
            &members,
            512,
            seeds,
            Parallelism::Threads(1),
        );
        for t in [2usize, 8] {
            let est = InfluenceEstimate::on_graph(
                &g,
                Model::WeightedCascade,
                512,
                seeds,
                Parallelism::Threads(t),
            );
            let est_c = InfluenceEstimate::on_community(
                &g,
                Model::WeightedCascade,
                &members,
                512,
                seeds,
                Parallelism::Threads(t),
            );
            for v in 0..5 {
                assert_eq!(base.count(v), est.count(v), "graph t={t} v={v}");
                assert_eq!(base_c.count(v), est_c.count(v), "community t={t} v={v}");
            }
        }
    }

    #[test]
    fn rank_breaks_ties_in_favor_of_query() {
        let members = vec![0, 1, 2];
        let score = |v: NodeId| if v == 2 { 5.0 } else { 3.0 };
        assert_eq!(rank_in_members(&members, 0, score), 2);
        assert_eq!(rank_in_members(&members, 2, score), 1);
    }
}
