//! RR-graph generation with reusable scratch space.

use cod_graph::{Csr, NodeId};
use rand::prelude::*;

use crate::model::Model;
use crate::rrgraph::RrGraph;

/// Generates RR graphs on a graph under a diffusion model.
///
/// Scratch arrays (visited stamps, local-id mapping and the expansion
/// list) are allocated once and reused across samples, so generating `Θ`
/// RR graphs costs `O(Θ · ω)` with no per-sample `O(|V|)` term (paper
/// Theorem 4's sampling cost). [`RrSampler::sample_into`] allocates
/// nothing per sample: it refills a caller's [`RrGraph`] in place, writing
/// each CSR row as the BFS settles its node. The owning calls
/// ([`RrSampler::sample_from`], [`RrSampler::sample_uniform`],
/// [`RrSampler::sample_restricted`]) draw into the sampler's own buffer
/// and return an exact-size copy, so their only allocation is the graph
/// they hand back.
///
/// ```
/// use cod_graph::GraphBuilder;
/// use cod_influence::{Model, RrSampler};
/// use rand::prelude::*;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// let mut sampler = RrSampler::new(&g, Model::WeightedCascade);
/// let mut rng = SmallRng::seed_from_u64(7);
/// let rr = sampler.sample_from(1, &mut rng);
/// assert_eq!(rr.source(), 1);
/// assert!(rr.len() >= 1 && rr.len() <= 3);
/// ```
pub struct RrSampler<'g> {
    g: &'g Csr,
    model: Model,
    /// `stamp[v] == epoch` iff `v` is in the RR set being built.
    stamp: Vec<u32>,
    /// Local index of `v` in the current sample (valid when stamped).
    local: Vec<u32>,
    epoch: u32,
    stats: SampleStats,
    /// Live reverse coins of the node being expanded.
    expansion: Vec<NodeId>,
    /// Draw buffer of the owning `sample_*` calls.
    rr: RrGraph,
}

/// Detached sampler scratch buffers, reusable across queries and graphs.
///
/// A sampler borrows the graph, so it cannot outlive a query that owns the
/// graph reference; the scratch can. Move buffers in with
/// [`RrSampler::with_scratch`] and recover them with
/// [`RrSampler::into_scratch`] so repeated queries skip the two `O(|V|)`
/// allocations per sampler.
///
/// The epoch travels with the stamps, so a scratch handed between samplers
/// (even over different graphs) never mistakes a stale stamp for a current
/// one: stamps are always `<= epoch`, and `with_scratch` zero-fills any
/// extension.
#[derive(Default, Debug)]
pub struct SamplerScratch {
    stamp: Vec<u32>,
    local: Vec<u32>,
    epoch: u32,
    stats: SampleStats,
    expansion: Vec<NodeId>,
    rr: RrGraph,
}

impl SamplerScratch {
    /// Bytes held by the scratch buffers (capacity, not length).
    pub fn memory_bytes(&self) -> usize {
        (self.stamp.capacity() + self.local.capacity() + self.expansion.capacity())
            * std::mem::size_of::<u32>()
            + self.rr.memory_bytes()
    }

    /// Cumulative sampling effort recorded by every sampler this scratch
    /// has passed through. Callers that want per-query numbers snapshot
    /// before and after and subtract.
    pub fn stats(&self) -> SampleStats {
        self.stats
    }
}

/// Cumulative sampling-effort counters.
///
/// `graphs` counts RR graphs generated; `edges` counts activated edges
/// recorded across them — together the `Θ · ω` of the paper's sampling
/// cost. Plain integers bumped on the sampling path (no atomics), carried
/// with the sampler and its detachable [`SamplerScratch`] so effort
/// accumulates across scratch reuse. Reading or resetting them never
/// touches the RNG: telemetry cannot change a drawn sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// RR graphs generated.
    pub graphs: u64,
    /// Activated edges recorded across all generated RR graphs.
    pub edges: u64,
}

impl SampleStats {
    /// Component-wise difference since an `earlier` snapshot (saturating,
    /// so a swapped argument order cannot panic).
    #[must_use]
    pub fn delta_since(&self, earlier: SampleStats) -> SampleStats {
        SampleStats {
            graphs: self.graphs.saturating_sub(earlier.graphs),
            edges: self.edges.saturating_sub(earlier.edges),
        }
    }

    /// Component-wise sum.
    #[must_use]
    pub fn merged(&self, other: SampleStats) -> SampleStats {
        SampleStats {
            graphs: self.graphs + other.graphs,
            edges: self.edges + other.edges,
        }
    }
}

impl<'g> RrSampler<'g> {
    /// A sampler over `g` under `model`.
    pub fn new(g: &'g Csr, model: Model) -> Self {
        Self::with_scratch(g, model, SamplerScratch::default())
    }

    /// A sampler over `g` reusing previously allocated `scratch` buffers.
    ///
    /// Sampling behaviour is identical to [`RrSampler::new`] — the scratch
    /// only affects allocation, never the drawn RR graphs.
    pub fn with_scratch(g: &'g Csr, model: Model, scratch: SamplerScratch) -> Self {
        let SamplerScratch {
            mut stamp,
            mut local,
            epoch,
            stats,
            expansion,
            rr,
        } = scratch;
        stamp.resize(g.num_nodes(), 0);
        local.resize(g.num_nodes(), 0);
        Self {
            g,
            model,
            stamp,
            local,
            epoch,
            stats,
            expansion,
            rr,
        }
    }

    /// Releases the scratch buffers for reuse by a later sampler.
    pub fn into_scratch(self) -> SamplerScratch {
        SamplerScratch {
            stamp: self.stamp,
            local: self.local,
            epoch: self.epoch,
            stats: self.stats,
            expansion: self.expansion,
            rr: self.rr,
        }
    }

    /// Cumulative sampling effort (including any carried in via scratch).
    pub fn stats(&self) -> SampleStats {
        self.stats
    }

    /// The diffusion model in use.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Csr {
        self.g
    }

    /// Samples one RR graph from a uniformly random source.
    pub fn sample_uniform<R: Rng>(&mut self, rng: &mut R) -> RrGraph {
        let s = rng.random_range(0..self.g.num_nodes()) as NodeId;
        self.sample_from(s, rng)
    }

    /// Samples one RR graph from `source` (paper Definition 2).
    pub fn sample_from<R: Rng>(&mut self, source: NodeId, rng: &mut R) -> RrGraph {
        self.sample_restricted(source, rng, |_| true)
    }

    /// Samples an RR graph whose traversal never leaves the nodes accepted
    /// by `keep` — RR generation *on the community* used by the Independent
    /// baseline. Edge probabilities stay those of the full graph `g`
    /// (Theorem 2's possible-world coupling).
    ///
    /// `keep(source)` must hold.
    pub fn sample_restricted<R: Rng>(
        &mut self,
        source: NodeId,
        rng: &mut R,
        keep: impl Fn(NodeId) -> bool,
    ) -> RrGraph {
        let mut rr = std::mem::take(&mut self.rr);
        self.sample_into(source, rng, keep, &mut rr);
        let copy = rr.clone();
        self.rr = rr;
        copy
    }

    /// [`RrSampler::sample_restricted`] into `out`, which is cleared and
    /// refilled in place: once `out` and the sampler's buffers have grown to
    /// the largest RR graph seen, a draw allocates nothing. The drawn graph
    /// (and the RNG stream consumed) is the one `sample_restricted` returns.
    ///
    /// The BFS settles nodes in local-index order, so each node's CSR row
    /// is complete before the next opens and is written straight into
    /// `out` with no edge list to sort afterwards.
    ///
    /// A draw reads only the adjacency rows of the nodes it activates
    /// (every node of `out`, the source included): each is expanded once by
    /// [`Model::reverse_expand`], which reads its row alone. So the same
    /// `source` and RNG state give the same graph on any topology that
    /// agrees on those rows — the HIMOR patch keeps every retained draw
    /// that holds no edited node instead of redrawing it.
    pub fn sample_into<R: Rng>(
        &mut self,
        source: NodeId,
        rng: &mut R,
        keep: impl Fn(NodeId) -> bool,
        out: &mut RrGraph,
    ) {
        debug_assert!(keep(source), "source must satisfy the restriction");
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: reset (once every 2^32 samples).
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        out.nodes.clear();
        out.offsets.clear();
        out.targets.clear();
        out.nodes.push(source);
        self.stamp[source as usize] = epoch;
        self.local[source as usize] = 0;
        let mut frontier = 0usize;
        while frontier < out.nodes.len() {
            let v = out.nodes[frontier];
            frontier += 1;
            out.offsets.push(out.targets.len() as u32);
            self.expansion.clear();
            self.model
                .reverse_expand(self.g, v, rng, &mut self.expansion);
            for &u in &self.expansion {
                if !keep(u) {
                    continue;
                }
                let lu = if self.stamp[u as usize] == epoch {
                    self.local[u as usize]
                } else {
                    let lu = out.nodes.len() as u32;
                    self.stamp[u as usize] = epoch;
                    self.local[u as usize] = lu;
                    out.nodes.push(u);
                    lu
                };
                out.targets.push(lu);
            }
        }
        out.offsets.push(out.targets.len() as u32);
        self.stats.graphs += 1;
        self.stats.edges += out.targets.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;

    fn path3() -> Csr {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.build()
    }

    #[test]
    fn deterministic_graph_explores_everything() {
        // UniformIc(1.0): every coin is live, so the RR set is the whole
        // connected component and every directed edge is recorded.
        let g = path3();
        let mut s = RrSampler::new(&g, Model::UniformIc(1.0));
        let mut rng = SmallRng::seed_from_u64(0);
        let r = s.sample_from(1, &mut rng);
        assert_eq!(r.len(), 3);
        // Node 1 has two out-edges; 0 and 2 each record their edge back to 1.
        assert_eq!(r.num_edges(), 4);
    }

    #[test]
    fn zero_probability_keeps_only_source() {
        let g = path3();
        let mut s = RrSampler::new(&g, Model::UniformIc(0.0));
        let mut rng = SmallRng::seed_from_u64(0);
        let r = s.sample_from(1, &mut rng);
        assert_eq!(r.len(), 1);
        assert_eq!(r.source(), 1);
        assert_eq!(r.num_edges(), 0);
    }

    #[test]
    fn restriction_is_respected() {
        let g = path3();
        let mut s = RrSampler::new(&g, Model::UniformIc(1.0));
        let mut rng = SmallRng::seed_from_u64(0);
        let r = s.sample_restricted(0, &mut rng, |v| v != 2);
        assert!(r.nodes().iter().all(|&v| v != 2));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn scratch_reuse_across_samples_is_clean() {
        let g = path3();
        let mut s = RrSampler::new(&g, Model::UniformIc(1.0));
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..100 {
            let r = s.sample_uniform(&mut rng);
            // No duplicate nodes may appear.
            let mut ns = r.nodes().to_vec();
            ns.sort_unstable();
            ns.dedup();
            assert_eq!(ns.len(), r.len());
        }
    }

    #[test]
    fn recycled_scratch_draws_identical_samples() {
        let g = path3();
        let star = {
            let mut b = GraphBuilder::new(5);
            for v in 1..5 {
                b.add_edge(0, v);
            }
            b.build()
        };
        // Fresh-scratch reference stream.
        let mut fresh = RrSampler::new(&g, Model::WeightedCascade);
        let mut rng = SmallRng::seed_from_u64(11);
        let want: Vec<Vec<u32>> = (0..50)
            .map(|_| fresh.sample_uniform(&mut rng).nodes().to_vec())
            .collect();
        // Dirty the scratch on a different (larger) graph, then reuse it.
        let mut scratch = SamplerScratch::default();
        {
            let mut s = RrSampler::with_scratch(&star, Model::WeightedCascade, scratch);
            let mut r2 = SmallRng::seed_from_u64(99);
            for _ in 0..10 {
                s.sample_uniform(&mut r2);
            }
            scratch = s.into_scratch();
        }
        let mut reused = RrSampler::with_scratch(&g, Model::WeightedCascade, scratch);
        let mut rng = SmallRng::seed_from_u64(11);
        let got: Vec<Vec<u32>> = (0..50)
            .map(|_| reused.sample_uniform(&mut rng).nodes().to_vec())
            .collect();
        assert_eq!(want, got, "scratch reuse must not change drawn samples");
    }

    #[test]
    fn stats_count_graphs_and_edges_and_travel_with_scratch() {
        let g = path3();
        let mut s = RrSampler::new(&g, Model::UniformIc(1.0));
        let mut rng = SmallRng::seed_from_u64(3);
        s.sample_from(1, &mut rng); // 3 nodes, 4 recorded edges
        s.sample_from(1, &mut rng);
        assert_eq!(
            s.stats(),
            SampleStats {
                graphs: 2,
                edges: 8
            }
        );
        // Stats ride along when the scratch is recycled into a new sampler.
        let scratch = s.into_scratch();
        assert_eq!(scratch.stats().graphs, 2);
        let mut s2 = RrSampler::with_scratch(&g, Model::UniformIc(0.0), scratch);
        s2.sample_from(0, &mut rng); // source only, no edges
        assert_eq!(
            s2.stats(),
            SampleStats {
                graphs: 3,
                edges: 8
            }
        );
        let d = s2.stats().delta_since(SampleStats {
            graphs: 2,
            edges: 8,
        });
        assert_eq!(
            d,
            SampleStats {
                graphs: 1,
                edges: 0
            }
        );
    }

    /// Reference construction: collect the `(from, to)` pairs of one WC
    /// draw, then counting-sort them into CSR rows.
    fn edge_list_reference<R: Rng>(g: &Csr, source: NodeId, rng: &mut R) -> RrGraph {
        let mut local = std::collections::HashMap::new();
        local.insert(source, 0u32);
        let mut nodes = vec![source];
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut frontier = 0;
        let mut expansion = Vec::new();
        while frontier < nodes.len() {
            let v = nodes[frontier];
            let lv = frontier as u32;
            frontier += 1;
            expansion.clear();
            Model::WeightedCascade.reverse_expand(g, v, rng, &mut expansion);
            for &u in &expansion {
                let lu = *local.entry(u).or_insert_with(|| {
                    nodes.push(u);
                    nodes.len() as u32 - 1
                });
                edges.push((lv, lu));
            }
        }
        let mut offsets = vec![0u32; nodes.len() + 1];
        for &(f, _) in &edges {
            offsets[f as usize + 1] += 1;
        }
        for i in 0..nodes.len() {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(f, t) in &edges {
            targets[cursor[f as usize] as usize] = t;
            cursor[f as usize] += 1;
        }
        RrGraph {
            nodes,
            offsets,
            targets,
        }
    }

    #[test]
    fn sample_into_matches_the_edge_list_construction_without_reallocating() {
        // A dense-ish ring with chords, so RR graphs have several rows.
        let mut b = GraphBuilder::new(40);
        for v in 0..40u32 {
            b.add_edge(v, (v + 1) % 40);
            b.add_edge(v, (v + 7) % 40);
        }
        let g = b.build();
        let mut s = RrSampler::new(&g, Model::WeightedCascade);
        let mut buf = RrGraph::default();
        assert!(buf.is_empty());
        for i in 0..300u64 {
            let source = (i % 40) as NodeId;
            let want = edge_list_reference(&g, source, &mut SmallRng::seed_from_u64(i));
            s.sample_into(source, &mut SmallRng::seed_from_u64(i), |_| true, &mut buf);
            assert_eq!(buf, want, "draw {i}");
            let owned = s.sample_from(source, &mut SmallRng::seed_from_u64(i));
            assert_eq!(owned, want, "draw {i}");
            assert_eq!(
                owned.memory_bytes(),
                4 * (2 * owned.len() + 1 + owned.num_edges())
            );
        }
        // Once grown to the largest draw, refills reuse the same storage.
        let cap = buf.memory_bytes();
        for i in 0..300u64 {
            let source = (i % 40) as NodeId;
            s.sample_into(source, &mut SmallRng::seed_from_u64(i), |_| true, &mut buf);
        }
        assert_eq!(buf.memory_bytes(), cap);
    }

    #[test]
    fn weighted_cascade_respects_structure() {
        // Star: center 0 with leaves. RR from a leaf reaches the center
        // with p = 1 (leaf degree 1); RR from center reaches each leaf
        // with p = 1/4.
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v);
        }
        let g = b.build();
        let mut s = RrSampler::new(&g, Model::WeightedCascade);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut center_reached = 0;
        for _ in 0..500 {
            let r = s.sample_from(1, &mut rng);
            if r.nodes().contains(&0) {
                center_reached += 1;
            }
        }
        assert_eq!(center_reached, 500, "leaf always reaches the center");
    }
}
