//! Forward-simulation ground truth for influence values.
//!
//! RR-based estimates are validated against plain forward simulation of the
//! diffusion process. This is the reference used for the paper's top-k
//! precision experiments (§V-C) and for tests of Theorems 1 and 2.

use cod_graph::{Csr, NodeId};
use rand::prelude::*;

use crate::model::Model;
use crate::parallel::{par_ranges, Parallelism};
use crate::seed::SeedSequence;

/// Estimates `σ_C(seed)` — the expected number of nodes activated by `seed`
/// when the process runs inside the node set accepted by `keep` — by
/// averaging `trials` forward simulations.
///
/// Edge probabilities are those of the full graph `g` regardless of the
/// restriction, matching the community influence semantics of Theorem 2.
/// Trial `i` runs entirely on `seeds.rng_for(i)`. Activation counts are
/// integers, so the sum over contiguous trial ranges is exact and the
/// estimate is bit-identical for every thread count.
pub fn influence(
    g: &Csr,
    model: Model,
    seed: NodeId,
    trials: usize,
    seeds: SeedSequence,
    par: Parallelism,
    keep: impl Fn(NodeId) -> bool + Sync,
) -> f64 {
    assert!(trials > 0);
    let partials = par_ranges(trials, par.thread_count(), |range| {
        let mut scratch = Scratch::new(g.num_nodes());
        let mut total = 0usize;
        for i in range {
            let mut rng = seeds.rng_for(i as u64);
            total += match model {
                Model::LinearThreshold => simulate_lt(g, seed, &mut rng, &keep, &mut scratch),
                Model::RandomK(k) => simulate_triggering(g, k, seed, &mut rng, &keep, &mut scratch),
                _ => simulate_ic(g, model, seed, &mut rng, &keep, &mut scratch),
            };
        }
        total
    });
    partials.into_iter().sum::<usize>() as f64 / trials as f64
}

struct Scratch {
    stamp: Vec<u32>,
    epoch: u32,
    acc: Vec<f64>,
    threshold: Vec<f64>,
    thr_stamp: Vec<u32>,
    /// Per-node trigger sets (triggering models), lazily sampled per
    /// cascade.
    trigger: Vec<Vec<cod_graph::NodeId>>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            epoch: 0,
            acc: vec![0.0; n],
            threshold: vec![0.0; n],
            thr_stamp: vec![0; n],
            trigger: vec![Vec::new(); n],
        }
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.thr_stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// One forward IC cascade; returns the number of activated nodes.
fn simulate_ic<R: Rng>(
    g: &Csr,
    model: Model,
    seed: NodeId,
    rng: &mut R,
    keep: &impl Fn(NodeId) -> bool,
    s: &mut Scratch,
) -> usize {
    debug_assert!(keep(seed));
    let epoch = s.next_epoch();
    s.stamp[seed as usize] = epoch;
    let mut queue = vec![seed];
    let mut head = 0usize;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &u in g.neighbors(v) {
            if s.stamp[u as usize] == epoch || !keep(u) {
                continue;
            }
            let p = model.edge_prob(g, u);
            if p > 0.0 && rng.random_bool(p.min(1.0)) {
                s.stamp[u as usize] = epoch;
                queue.push(u);
            }
        }
    }
    queue.len()
}

/// One forward LT cascade with uniform weights `w(u, v) = 1/deg(v)`;
/// returns the number of activated nodes.
fn simulate_lt<R: Rng>(
    g: &Csr,
    seed: NodeId,
    rng: &mut R,
    keep: &impl Fn(NodeId) -> bool,
    s: &mut Scratch,
) -> usize {
    debug_assert!(keep(seed));
    let epoch = s.next_epoch();
    s.stamp[seed as usize] = epoch;
    let mut queue = vec![seed];
    let mut head = 0usize;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &u in g.neighbors(v) {
            if s.stamp[u as usize] == epoch || !keep(u) {
                continue;
            }
            // Lazily draw u's threshold once per cascade.
            if s.thr_stamp[u as usize] != epoch {
                s.thr_stamp[u as usize] = epoch;
                s.threshold[u as usize] = rng.random();
                s.acc[u as usize] = 0.0;
            }
            s.acc[u as usize] += 1.0 / g.degree(u) as f64;
            if s.acc[u as usize] >= s.threshold[u as usize] {
                s.stamp[u as usize] = epoch;
                queue.push(u);
            }
        }
    }
    queue.len()
}

/// One forward cascade under the `RandomK` triggering model: each node's
/// trigger set (`min(k, deg)` distinct uniform neighbors) is drawn lazily
/// once per cascade; a node activates when an active neighbor belongs to
/// its trigger set.
fn simulate_triggering<R: Rng>(
    g: &Csr,
    k: u32,
    seed: NodeId,
    rng: &mut R,
    keep: &impl Fn(NodeId) -> bool,
    s: &mut Scratch,
) -> usize {
    debug_assert!(keep(seed));
    let epoch = s.next_epoch();
    s.stamp[seed as usize] = epoch;
    let mut queue = vec![seed];
    let mut head = 0usize;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &u in g.neighbors(v) {
            if s.stamp[u as usize] == epoch || !keep(u) {
                continue;
            }
            if s.thr_stamp[u as usize] != epoch {
                s.thr_stamp[u as usize] = epoch;
                let set = &mut s.trigger[u as usize];
                set.clear();
                Model::RandomK(k).reverse_expand(g, u, rng, set);
            }
            if s.trigger[u as usize].contains(&v) {
                s.stamp[u as usize] = epoch;
                queue.push(u);
            }
        }
    }
    queue.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn seed_always_counts_itself() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let mut r = rng();
        let inf = influence(
            &g,
            Model::UniformIc(0.0),
            0,
            100,
            SeedSequence::new(r.next_u64()),
            Parallelism::Threads(1),
            |_| true,
        );
        assert_eq!(inf, 1.0);
    }

    #[test]
    fn full_probability_reaches_component() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        // node 3 disconnected
        let g = b.build();
        let mut r = rng();
        let inf = influence(
            &g,
            Model::UniformIc(1.0),
            0,
            50,
            SeedSequence::new(r.next_u64()),
            Parallelism::Threads(1),
            |_| true,
        );
        assert_eq!(inf, 3.0);
    }

    #[test]
    fn restriction_limits_spread() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let mut r = rng();
        let inf = influence(
            &g,
            Model::UniformIc(1.0),
            0,
            50,
            SeedSequence::new(r.next_u64()),
            Parallelism::Threads(1),
            |v| v != 2,
        );
        assert_eq!(inf, 2.0);
    }

    #[test]
    fn two_node_wc_influence_matches_closed_form() {
        // 0 - 1: p(0,1) = 1/deg(1) = 1. σ(0) = 2.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let mut r = rng();
        let inf = influence(
            &g,
            Model::WeightedCascade,
            0,
            2000,
            SeedSequence::new(r.next_u64()),
            Parallelism::Threads(1),
            |_| true,
        );
        assert!((inf - 2.0).abs() < 1e-9);
    }

    #[test]
    fn star_center_wc_influence_matches_closed_form() {
        // Star with 4 leaves: center activates each leaf with p = 1
        // (deg(leaf) = 1), so σ(center) = 5; a leaf activates the center
        // with p = 1/4, then the center activates the other 3 leaves:
        // σ(leaf) = 1 + (1/4)(1 + 3) = 2.
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v);
        }
        let g = b.build();
        let mut r = rng();
        let c = influence(
            &g,
            Model::WeightedCascade,
            0,
            4000,
            SeedSequence::new(r.next_u64()),
            Parallelism::Threads(1),
            |_| true,
        );
        assert!((c - 5.0).abs() < 1e-9, "center {c}");
        let l = influence(
            &g,
            Model::WeightedCascade,
            1,
            40_000,
            SeedSequence::new(r.next_u64()),
            Parallelism::Threads(1),
            |_| true,
        );
        assert!((l - 2.0).abs() < 0.08, "leaf {l}");
    }

    #[test]
    fn triggering_with_full_degree_matches_always_live_ic() {
        // RandomK(deg) puts every neighbor in every trigger set: the
        // cascade reaches the whole component deterministically.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let g = b.build();
        let mut r = rng();
        let inf = influence(
            &g,
            Model::RandomK(10),
            0,
            200,
            SeedSequence::new(r.next_u64()),
            Parallelism::Threads(1),
            |_| true,
        );
        assert_eq!(inf, 4.0);
    }

    #[test]
    fn triggering_rr_estimate_matches_simulation() {
        // Star + an extra edge: compare RR-based estimation with the
        // forward triggering simulation for RandomK(2).
        let mut b = GraphBuilder::new(6);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        b.add_edge(1, 2);
        let g = b.build();
        let mut r = rng();
        let est = crate::estimate::InfluenceEstimate::on_graph(
            &g,
            Model::RandomK(2),
            40_000,
            SeedSequence::new(r.next_u64()),
            Parallelism::Threads(1),
        );
        let mut mc = SmallRng::seed_from_u64(99);
        for v in 0..6u32 {
            let truth = influence(
                &g,
                Model::RandomK(2),
                v,
                20_000,
                SeedSequence::new(mc.next_u64()),
                Parallelism::Threads(1),
                |_| true,
            );
            let got = est.sigma(v);
            assert!(
                (got - truth).abs() < 0.25 * truth.max(1.0),
                "node {v}: RR {got} vs MC {truth}"
            );
        }
    }

    #[test]
    fn lt_influence_on_pair_is_exact() {
        // 0 - 1: under LT with weight 1, node 1's threshold is always
        // covered once 0 is active. σ(0) = 2.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let mut r = rng();
        let inf = influence(
            &g,
            Model::LinearThreshold,
            0,
            500,
            SeedSequence::new(r.next_u64()),
            Parallelism::Threads(1),
            |_| true,
        );
        assert_eq!(inf, 2.0);
    }
}
