//! Diffusion models and their reverse-sampling rules.

use cod_graph::{Csr, NodeId};
use rand::prelude::*;

/// A diffusion model with RR-set-compatible reverse sampling (paper §II-A:
/// "our proposed method can support other typical influence models ... as
/// long as they are compatible with RR set-based influence evaluation").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Model {
    /// Independent cascade with weighted-cascade probabilities
    /// `p(u, v) = 1 / deg(v)` (the paper's §V-A default, after \[37, 38\]).
    WeightedCascade,
    /// Independent cascade with one uniform probability for every edge.
    UniformIc(f64),
    /// Linear threshold with uniform edge weights `w(u, v) = 1 / deg(v)`.
    /// Reverse sampling picks exactly one uniformly random neighbor.
    LinearThreshold,
    /// A triggering model \[35\]: each node draws `min(k, deg)` distinct
    /// uniform neighbors as its trigger set; it activates when any trigger
    /// neighbor is active. `RandomK(1)` coincides with
    /// [`Model::LinearThreshold`]; `RandomK(deg)` with always-live IC.
    RandomK(u32),
}

impl Model {
    /// Forward activation probability of the directed edge `u → v`.
    ///
    /// For [`Model::LinearThreshold`] this is the LT edge *weight* (the
    /// probability that `v`'s uniformly drawn threshold is covered by `u`
    /// alone); forward simulation handles LT semantics separately.
    #[inline]
    pub fn edge_prob(&self, g: &Csr, v: NodeId) -> f64 {
        match *self {
            Model::WeightedCascade | Model::LinearThreshold => {
                let d = g.degree(v);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f64
                }
            }
            Model::UniformIc(p) => p,
            Model::RandomK(k) => {
                let d = g.degree(v);
                if d == 0 {
                    0.0
                } else {
                    f64::from(k.min(d as u32)) / d as f64
                }
            }
        }
    }

    /// Reverse expansion from activated node `v`: appends to `out` each
    /// neighbor `u` whose reverse-influence coin `coin(u → v)` comes up live.
    ///
    /// Every incident coin is tested (not only toward inactive nodes); the
    /// caller records all live edges, which is what the possible-world
    /// coupling of Theorem 2 requires.
    ///
    /// Under every model the expansion reads only `g.neighbors(v)`: the row
    /// of the node it expands, never a neighbor's degree or row. Its output
    /// and the RNG draws it consumes are a function of that row alone, so an
    /// edit to any other node's adjacency cannot change them. The HIMOR
    /// patch relies on this to keep the draws that activate no edited node.
    #[inline]
    pub fn reverse_expand<R: Rng>(&self, g: &Csr, v: NodeId, rng: &mut R, out: &mut Vec<NodeId>) {
        let neigh = g.neighbors(v);
        if neigh.is_empty() {
            return;
        }
        match *self {
            Model::WeightedCascade => {
                let p = 1.0 / neigh.len() as f64;
                for &u in neigh {
                    if rng.random_bool(p) {
                        out.push(u);
                    }
                }
            }
            Model::UniformIc(p) => {
                for &u in neigh {
                    if rng.random_bool(p) {
                        out.push(u);
                    }
                }
            }
            Model::LinearThreshold => {
                // LT reverse sampling: exactly one in-neighbor, uniformly
                // (weights sum to 1 under the uniform parametrization).
                let u = neigh[rng.random_range(0..neigh.len())];
                out.push(u);
            }
            Model::RandomK(k) => {
                // Trigger-set reverse sampling: the RR process expands to
                // exactly the members of v's trigger set.
                sample_distinct(neigh, k as usize, rng, out);
            }
        }
    }
}

/// Appends `min(k, |pool|)` distinct uniform elements of `pool` to `out`
/// (partial Fisher–Yates on a copy in `out`'s tail for small pools,
/// rejection sampling otherwise).
fn sample_distinct<R: Rng>(pool: &[NodeId], k: usize, rng: &mut R, out: &mut Vec<NodeId>) {
    let k = k.min(pool.len());
    if k == 0 {
        return;
    }
    if k * 3 >= pool.len() {
        // Dense draw: shuffle a copy partially, in place past `start`, and
        // keep the first `k` slots it settles.
        let start = out.len();
        out.extend_from_slice(pool);
        let copy = &mut out[start..];
        for i in 0..k {
            let j = rng.random_range(i..copy.len());
            copy.swap(i, j);
        }
        out.truncate(start + k);
    } else {
        // Sparse draw: rejection on indices.
        let start = out.len();
        while out.len() - start < k {
            let cand = pool[rng.random_range(0..pool.len())];
            if !out[start..].contains(&cand) {
                out.push(cand);
            }
        }
    }
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
    fn weighted_cascade_prob_is_inverse_degree() {
        let g = star();
        assert_eq!(Model::WeightedCascade.edge_prob(&g, 0), 0.25);
        assert_eq!(Model::WeightedCascade.edge_prob(&g, 1), 1.0);
    }

    #[test]
    fn uniform_ic_prob_is_constant() {
        let g = star();
        assert_eq!(Model::UniformIc(0.3).edge_prob(&g, 0), 0.3);
    }

    #[test]
    fn lt_reverse_picks_exactly_one() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let mut out = Vec::new();
            Model::LinearThreshold.reverse_expand(&g, 0, &mut rng, &mut out);
            assert_eq!(out.len(), 1);
            assert!((1..5).contains(&out[0]));
        }
    }

    #[test]
    fn wc_reverse_expansion_rate_matches_probability() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut total = 0usize;
        let trials = 20_000;
        let mut out = Vec::new();
        for _ in 0..trials {
            out.clear();
            Model::WeightedCascade.reverse_expand(&g, 0, &mut rng, &mut out);
            total += out.len();
        }
        // Expected successes per trial: 4 * 0.25 = 1.
        let mean = total as f64 / trials as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn random_k_picks_distinct_neighbors() {
        let g = star();
        let mut rng = SmallRng::seed_from_u64(4);
        for k in 1..=6u32 {
            for _ in 0..50 {
                let mut out = Vec::new();
                Model::RandomK(k).reverse_expand(&g, 0, &mut rng, &mut out);
                assert_eq!(out.len(), (k as usize).min(4));
                let mut sorted = out.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), out.len(), "duplicates in {out:?}");
            }
        }
    }

    #[test]
    fn random_k_dense_draw_matches_a_shuffled_copy() {
        // The dense branch shuffles its copy inside `out`; the draws must
        // be those of a partial Fisher–Yates over a separate copy.
        let pool: Vec<NodeId> = (10..19).collect();
        for seed in 0..50 {
            for k in 3..=9 {
                let mut got = vec![99];
                sample_distinct(&pool, k, &mut SmallRng::seed_from_u64(seed), &mut got);
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut copy = pool.clone();
                let mut want = vec![99];
                for i in 0..k {
                    let j = rng.random_range(i..copy.len());
                    copy.swap(i, j);
                    want.push(copy[i]);
                }
                assert_eq!(got, want, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn random_k_edge_prob_is_k_over_degree() {
        let g = star();
        assert_eq!(Model::RandomK(1).edge_prob(&g, 0), 0.25);
        assert_eq!(Model::RandomK(2).edge_prob(&g, 0), 0.5);
        assert_eq!(Model::RandomK(9).edge_prob(&g, 0), 1.0);
        assert_eq!(Model::RandomK(1).edge_prob(&g, 1), 1.0);
    }

    #[test]
    fn isolated_node_expands_to_nothing() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let mut b2 = GraphBuilder::new(3);
        b2.add_edge(0, 1);
        let g = b2.build();
        drop(b);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        Model::WeightedCascade.reverse_expand(&g, 2, &mut rng, &mut out);
        assert!(out.is_empty());
        assert_eq!(Model::WeightedCascade.edge_prob(&g, 2), 0.0);
    }
}
