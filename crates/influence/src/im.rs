//! RR-set-based influence maximization (greedy max-coverage).
//!
//! The paper's estimators build on the reverse-reachable-set IM literature
//! (\[21–24\]; §II-B). This module provides the classic RR-pool greedy
//! seed-selection those papers share: sample `Θ` RR sets, then greedily
//! pick the seed covering the most not-yet-covered sets. The expected
//! influence of a seed set `S` is `|V| · (covered sets) / Θ` (Theorem 1
//! generalized to sets), and lazy-greedy evaluation makes selection
//! near-linear in pool size.
//!
//! Besides being a useful library feature in its own right (pick the *k*
//! CBSM promoters with the widest joint reach), it doubles as a
//! cross-check of the RR machinery: greedy seeds on a star must be the
//! hub, coverage must be monotone and submodular, etc.

use cod_graph::{Csr, NodeId};
use rand::prelude::*;

use crate::model::Model;
use crate::parallel::{par_ranges, Parallelism};
use crate::sampler::RrSampler;
use crate::seed::SeedSequence;

/// A pool of RR sets supporting coverage queries.
pub struct RrPool {
    /// Flattened membership: for each RR set, its node list.
    sets: Vec<Vec<NodeId>>,
    /// For each node, the RR-set indices containing it.
    inverted: Vec<Vec<u32>>,
    universe: usize,
}

impl RrPool {
    /// Samples `theta` RR sets from uniformly random sources, restricted to
    /// `members` (sorted ascending; `None` for the whole graph). Set `i` is
    /// drawn entirely from `seeds.rng_for(i)`, so the pool is a pure
    /// function of `(g, model, theta, seeds, members)` and bit-identical
    /// for every thread count.
    pub fn sample(
        g: &Csr,
        model: Model,
        theta: usize,
        seeds: SeedSequence,
        members: Option<&[NodeId]>,
        par: Parallelism,
    ) -> Self {
        assert!(theta > 0 && g.num_nodes() > 0);
        if let Some(m) = members {
            debug_assert!(m.windows(2).all(|w| w[0] < w[1]));
        }
        let shards = par_ranges(theta, par.thread_count(), |range| {
            let mut sampler = RrSampler::new(g, model);
            let mut sets = Vec::with_capacity(range.len());
            for i in range {
                let mut rng = seeds.rng_for(i as u64);
                let rr = match members {
                    None => sampler.sample_uniform(&mut rng),
                    Some(m) => {
                        let s = m[rng.random_range(0..m.len())];
                        sampler.sample_restricted(s, &mut rng, |v| m.binary_search(&v).is_ok())
                    }
                };
                sets.push(rr.nodes().to_vec());
            }
            sets
        });
        // Ranges are contiguous and returned in index order, so plain
        // concatenation restores the set at its global index.
        let sets: Vec<Vec<NodeId>> = shards.into_iter().flatten().collect();
        let mut inverted = vec![Vec::new(); g.num_nodes()];
        for (i, set) in sets.iter().enumerate() {
            for &v in set {
                inverted[v as usize].push(i as u32);
            }
        }
        Self {
            sets,
            inverted,
            universe: members.map_or(g.num_nodes(), <[NodeId]>::len),
        }
    }

    /// Number of RR sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// The nodes of RR set `i`, in discovery order.
    pub fn set(&self, i: usize) -> &[NodeId] {
        &self.sets[i]
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Estimated influence of a seed set: `universe · covered / Θ`.
    pub fn estimate(&self, seeds: &[NodeId]) -> f64 {
        let mut covered = vec![false; self.sets.len()];
        for &s in seeds {
            for &i in &self.inverted[s as usize] {
                covered[i as usize] = true;
            }
        }
        let c = covered.iter().filter(|&&x| x).count();
        self.universe as f64 * c as f64 / self.sets.len() as f64
    }

    /// Greedy max-coverage seed selection (CELF-style lazy evaluation).
    /// Returns up to `k` seeds with their *marginal* estimated influence
    /// gains, in selection order.
    pub fn greedy_seeds(&self, k: usize) -> Vec<(NodeId, f64)> {
        let n = self.inverted.len();
        let theta = self.sets.len();
        let scale = self.universe as f64 / theta as f64;
        let mut covered = vec![false; theta];
        // Lazy greedy: max-heap of (upper-bound gain, node).
        let mut heap: std::collections::BinaryHeap<(u32, NodeId)> = (0..n as NodeId)
            .filter(|&v| !self.inverted[v as usize].is_empty())
            .map(|v| (self.inverted[v as usize].len() as u32, v))
            .collect();
        let mut out = Vec::with_capacity(k);
        let mut stale = vec![false; n]; // needs re-evaluation
        while out.len() < k {
            let Some((bound, v)) = heap.pop() else { break };
            if stale[v as usize] {
                let fresh = self.inverted[v as usize]
                    .iter()
                    .filter(|&&i| !covered[i as usize])
                    .count() as u32;
                stale[v as usize] = false;
                if fresh > 0 {
                    heap.push((fresh, v));
                }
                continue;
            }
            if bound == 0 {
                break;
            }
            // Select v.
            let mut gained = 0u32;
            for &i in &self.inverted[v as usize] {
                if !covered[i as usize] {
                    covered[i as usize] = true;
                    gained += 1;
                }
            }
            out.push((v, f64::from(gained) * scale));
            for s in stale.iter_mut() {
                *s = true;
            }
            stale[v as usize] = false;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;

    fn two_stars() -> Csr {
        let mut b = GraphBuilder::new(10);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        for v in 7..10 {
            b.add_edge(6, v);
        }
        b.add_edge(5, 6);
        b.build()
    }

    #[test]
    fn greedy_picks_the_hubs_first() {
        let g = two_stars();
        let mut rng = SmallRng::seed_from_u64(1);
        let pool = RrPool::sample(
            &g,
            Model::WeightedCascade,
            20_000,
            SeedSequence::new(rng.next_u64()),
            None,
            Parallelism::Threads(1),
        );
        let seeds = pool.greedy_seeds(2);
        assert_eq!(seeds.len(), 2);
        let picked: Vec<NodeId> = seeds.iter().map(|&(v, _)| v).collect();
        assert!(picked.contains(&0), "big hub selected: {picked:?}");
        assert!(picked.contains(&6), "small hub selected: {picked:?}");
        // Marginal gains are non-increasing (submodularity).
        assert!(seeds[0].1 >= seeds[1].1);
    }

    #[test]
    fn estimate_matches_single_node_sigma() {
        let g = two_stars();
        let mut rng = SmallRng::seed_from_u64(2);
        let pool = RrPool::sample(
            &g,
            Model::WeightedCascade,
            30_000,
            SeedSequence::new(rng.next_u64()),
            None,
            Parallelism::Threads(1),
        );
        let mut mc = SmallRng::seed_from_u64(3);
        let truth = crate::montecarlo::influence(
            &g,
            Model::WeightedCascade,
            0,
            20_000,
            SeedSequence::new(mc.next_u64()),
            Parallelism::Threads(1),
            |_| true,
        );
        let got = pool.estimate(&[0]);
        assert!(
            (got - truth).abs() < 0.2 * truth,
            "pool {got} vs mc {truth}"
        );
    }

    #[test]
    fn coverage_is_monotone() {
        let g = two_stars();
        let mut rng = SmallRng::seed_from_u64(4);
        let pool = RrPool::sample(
            &g,
            Model::WeightedCascade,
            5_000,
            SeedSequence::new(rng.next_u64()),
            None,
            Parallelism::Threads(1),
        );
        let one = pool.estimate(&[0]);
        let two = pool.estimate(&[0, 6]);
        let all: Vec<NodeId> = (0..10).collect();
        let full = pool.estimate(&all);
        assert!(one <= two && two <= full);
        assert!((full - 10.0).abs() < 1e-9, "all seeds cover everything");
    }

    #[test]
    fn restricted_pool_stays_in_community() {
        let g = two_stars();
        let members: Vec<NodeId> = vec![6, 7, 8, 9];
        let mut rng = SmallRng::seed_from_u64(5);
        let pool = RrPool::sample(
            &g,
            Model::WeightedCascade,
            3_000,
            SeedSequence::new(rng.next_u64()),
            Some(&members),
            Parallelism::Threads(1),
        );
        let seeds = pool.greedy_seeds(1);
        assert_eq!(seeds[0].0, 6, "community hub wins inside the community");
        // Outside nodes have no coverage at all.
        assert_eq!(pool.estimate(&[0]), 0.0);
    }

    #[test]
    fn asking_for_more_seeds_than_useful_stops_early() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        let mut rng = SmallRng::seed_from_u64(6);
        let pool = RrPool::sample(
            &g,
            Model::UniformIc(1.0),
            1_000,
            SeedSequence::new(rng.next_u64()),
            None,
            Parallelism::Threads(1),
        );
        let seeds = pool.greedy_seeds(10);
        // Two seeds cover every RR set (component {0,1} and isolated 2).
        assert!(seeds.len() <= 3);
        let picked: Vec<NodeId> = seeds.iter().map(|&(v, _)| v).collect();
        assert!(
            picked.contains(&2),
            "isolated node still covers its own sets"
        );
    }
}
