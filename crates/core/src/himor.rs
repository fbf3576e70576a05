//! The HIMOR index (§IV-B): precomputed influence ranks of every node in
//! every community of the non-attributed hierarchy `T`.
//!
//! **Compressed construction** extends Algorithm 1 in two ways: HFS runs
//! over the *tree-structured* buckets of `T` (one bucket per community,
//! tagged via O(1) `lca`), and the second stage computes *all* node ranks
//! per community instead of a top-k. Buckets are folded bottom-up: child
//! counts accumulate into an ancestor accumulator, each bucket is sorted
//! once, and child rank lists are merge-sorted with updated entries
//! replacing stale ones (Example 7). Cost
//! `O(Θ·ω + |R|·log|V| + Σ_v dep(v))` (Theorem 6).
//!
//! **Queries** (Algorithm 3): for a query `q` and LORE's choice `C_ℓ`, the
//! largest ancestor of `C_ℓ` on `q`'s root path where `q`'s stored rank is
//! `≤ k` is returned directly; only if none exists does CODL fall back to
//! compressed evaluation inside the reclustered `C_ℓ`.
//!
//! **Patching** ([`HimorPatchState`]): a patchable build keeps its `Θ`
//! samples in one flat [`RrArena`], each with its source, its **span**
//! (the size of its highest HFS tag) and each RR node's tag **level** on
//! the source's root path, plus the master buckets. After a graph
//! mutation [`HimorPatchState::patch`] updates them in place to the index
//! a from-scratch build of the mutated graph returns. It finds the samples
//! whose draws or tags can move from the flat source and span arrays and
//! two per-leaf sizes (the smallest changed community and the smallest
//! community holding an edited node), so it pays the HFS terms only for
//! those samples and reads no other sample's node list; it subtracts a
//! sample by replaying its levels, without an LCA query. Only
//! [`HimorIndex::build`] takes a cancel token; patchable builds and
//! patches run to completion.

use cod_graph::{Csr, FxHashMap, NodeId, Segment};
use cod_hierarchy::{smallest_selected_ancestor, Dendrogram, LcaIndex, TreeDiff, VertexId};
use cod_influence::{
    par_ranges, CancelToken, Model, Parallelism, RrArena, RrGraph, RrSampler, RrView, SampleStats,
    SeedSequence,
};
use rand::prelude::*;

use crate::compressed::total_theta;
use crate::error::{CodError, CodResult};
use crate::failpoint;

/// Draws between governance checkpoints of the HFS stage (matches the
/// compressed-evaluation cadence).
const CHECK_EVERY: usize = 64;

/// Flattened per-node rank rows in CSR-like storage: `of(v)` is node `v`'s
/// rank vector, aligned with its root path (index 0 = deepest community).
///
/// Stored in [`Segment`]s so a memory-mapped CODX v3 artifact can back the
/// table zero-copy; in-RAM builds own their vectors as before.
#[derive(Clone, Debug, Default)]
pub struct RankTable {
    offsets: Segment<usize>,
    values: Segment<u32>,
}

impl RankTable {
    /// Flattens per-node rank rows (the merge stage's output shape).
    pub fn from_nested(rows: Vec<Vec<u32>>) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut values = Vec::new();
        offsets.push(0);
        for row in &rows {
            values.extend_from_slice(row);
            offsets.push(values.len());
        }
        Self {
            offsets: offsets.into(),
            values: values.into(),
        }
    }

    /// Assembles a table over pre-validated storage (owned or mapped).
    /// `offsets` must have length `n + 1`, start at 0, end at
    /// `values.len()`, and be non-decreasing.
    pub fn from_segments(offsets: Segment<usize>, values: Segment<u32>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets.first().copied(), Some(0));
        debug_assert_eq!(offsets.last().copied(), Some(values.len()));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { offsets, values }
    }

    /// Number of nodes covered.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The rank row of node `v`.
    #[inline]
    pub fn of(&self, v: NodeId) -> &[u32] {
        let v = v as usize;
        &self.values[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The raw offset array (`n + 1` entries), for persistence.
    #[inline]
    pub fn raw_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated rank array, for persistence.
    #[inline]
    pub fn raw_values(&self) -> &[u32] {
        &self.values
    }
}

/// Influence ranks of every node along its root path in `T`.
#[derive(Clone, Debug)]
pub struct HimorIndex {
    /// `ranks.of(v)[j]` = 1-based estimated influence rank of node `v` in
    /// its `j`-th root-path community (0 = the deepest, its leaf's parent).
    ranks: RankTable,
    /// Total RR graphs used.
    theta: usize,
    /// Construction-effort counters recorded while building.
    build_stats: BuildStats,
}

/// Effort counters of one HIMOR construction, mirroring Theorem 6's cost
/// terms: `Θ·ω` (graphs × edges sampled) plus one bucket merge per internal
/// vertex of `T`. All zero for an index reloaded from disk
/// ([`HimorIndex::from_table`]) — persistence stores ranks, not provenance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// RR graphs generated during stage 1.
    pub rr_graphs: u64,
    /// Activated edges recorded across those RR graphs.
    pub rr_edges: u64,
    /// Bottom-up bucket merges performed in stage 2 (one per internal
    /// vertex).
    pub bucket_merges: u64,
}

/// What the HFS stage hands back: per-vertex buckets, the drawn samples
/// (empty unless retention was requested), and effort counters.
type HfsStageOutput = (Vec<FxHashMap<NodeId, u32>>, Samples, SampleStats);

/// Detached inputs of one vertex's bucket merge (stage 2).
struct MergeItem<'b> {
    vertex: VertexId,
    bucket: &'b FxHashMap<NodeId, u32>,
    left: Vec<(u32, NodeId)>,
    right: Vec<(u32, NodeId)>,
}

/// The deferred effects of one vertex's bucket merge: applied by the caller
/// in post-order once the whole wave is computed.
struct MergeOutput {
    /// Sorted count list (count desc, id asc) of the merged community.
    merged: Vec<(u32, NodeId)>,
    /// `(new accumulated count, node)` of the bucket's nodes — assignments,
    /// not deltas.
    updated: Vec<(u32, NodeId)>,
    /// `(node, root-path index, rank)` assignments.
    rank_updates: Vec<(NodeId, u32, u32)>,
}

impl HimorIndex {
    /// Builds the index with `Θ = θ·|V|` RR graphs (compressed
    /// construction) using per-index seed derivation: sample `i` is drawn
    /// entirely from the RNG [`SeedSequence::rng_for`] derives for index
    /// `i`, so the index is a pure function of `(g, model, T, θ, seed)` —
    /// bit-identical for every thread count and across repeated runs. Both
    /// the sampling/HFS stage and the bottom-up bucket merge (parallelized
    /// over same-depth tree waves, whose vertices have disjoint member
    /// sets) run on `par`.
    ///
    /// Under cooperative governance the HFS stage polls `cancel` every
    /// `CHECK_EVERY` draws and the merge stage polls it once per depth
    /// wave; checkpoints never touch an RNG, so a token that does not fire
    /// leaves the index bit-identical. Fails with
    /// [`CodError::InvalidQuery`] when `Θ` overflows (before any sampling),
    /// and with [`CodError::DeadlineExceeded`] when the token fires — a
    /// half-built index is never observable.
    #[allow(clippy::too_many_arguments)] // the build inputs plus seed, fan-out and token
    pub fn build(
        g: &Csr,
        model: Model,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        theta_per_node: usize,
        seed: u64,
        par: Parallelism,
        cancel: Option<&CancelToken>,
    ) -> CodResult<Self> {
        let (index, _) = Self::construct(
            g,
            model,
            dendro,
            lca,
            theta_per_node,
            seed,
            par,
            cancel,
            false,
        )?;
        Ok(index)
    }

    /// [`HimorIndex::build`] that additionally retains the drawn RR graphs
    /// and the master per-vertex buckets, so later graph mutations can
    /// *patch* the index via [`HimorPatchState::patch`] instead of
    /// resampling all `Θ` graphs. The index is the one `build` returns.
    /// Ungoverned: fails only with [`CodError::InvalidQuery`] when `Θ`
    /// overflows.
    pub fn build_patchable(
        g: &Csr,
        model: Model,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        theta_per_node: usize,
        seed: u64,
        par: Parallelism,
    ) -> CodResult<(Self, HimorPatchState)> {
        Self::construct(g, model, dendro, lca, theta_per_node, seed, par, None, true)
    }

    /// The build behind [`HimorIndex::build`] and
    /// [`HimorIndex::build_patchable`]; `keep_samples` decides whether the
    /// patch state retains the drawn RR graphs.
    #[allow(clippy::too_many_arguments)] // the build inputs plus the retention switch
    fn construct(
        g: &Csr,
        model: Model,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        theta_per_node: usize,
        seed: u64,
        par: Parallelism,
        cancel: Option<&CancelToken>,
        keep_samples: bool,
    ) -> CodResult<(Self, HimorPatchState)> {
        let n = dendro.num_leaves();
        assert_eq!(g.num_nodes(), n);
        let theta = total_theta(theta_per_node, n)?;
        let threads = par.thread_count();
        let seeds = SeedSequence::new(seed);
        let (buckets, samples, sampled) = Self::hfs_stage(
            g,
            model,
            dendro,
            lca,
            theta,
            seeds,
            threads,
            cancel,
            keep_samples,
        )
        .ok_or(CodError::DeadlineExceeded)?;
        let ranks = Self::merge_stage(dendro, &buckets, threads, cancel)
            .ok_or(CodError::DeadlineExceeded)?;
        let index = Self {
            ranks: RankTable::from_nested(ranks),
            theta,
            build_stats: BuildStats {
                rr_graphs: sampled.graphs,
                rr_edges: sampled.edges,
                bucket_merges: (dendro.num_vertices() - n) as u64,
            },
        };
        let state = HimorPatchState {
            seeds,
            theta,
            samples,
            buckets,
        };
        Ok((index, state))
    }

    /// Stage 1: HFS over the community tree, producing one bucket of
    /// appearance counts per internal vertex. Sample `i` draws from
    /// `seeds.rng_for(i)`; the index range is sharded over `threads`
    /// contiguous ranges whose buckets merge by addition, which commutes,
    /// so chunking cannot affect the result. Returns `None` when `cancel`
    /// fired: a partially sampled bucket set must not rank anyone.
    ///
    /// With `keep_samples` set, the drawn RR graphs are also returned, in
    /// index order (shard ranges are contiguous and ascending), with their
    /// sources, spans and tag levels, so a [`HimorPatchState`] can later
    /// subtract and redraw individual samples.
    #[allow(clippy::too_many_arguments)] // internal stage: build inputs plus the token
    fn hfs_stage(
        g: &Csr,
        model: Model,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        theta: usize,
        seeds: SeedSequence,
        threads: usize,
        cancel: Option<&CancelToken>,
        keep_samples: bool,
    ) -> Option<HfsStageOutput> {
        let nv = dendro.num_vertices();
        let n = dendro.num_leaves();
        let max_depth = (0..n as NodeId)
            .map(|v| dendro.depth(dendro.leaf(v)))
            .max()
            .unwrap_or(1) as usize;
        let shards = par_ranges(theta, threads, |range| {
            let mut sampler = RrSampler::new(g, model);
            let mut rr = RrGraph::default();
            let mut queues: Vec<Vec<(u32, VertexId)>> = vec![Vec::new(); max_depth + 1];
            let mut explored: Vec<bool> = Vec::new();
            let mut buckets: Vec<FxHashMap<NodeId, u32>> = vec![FxHashMap::default(); nv];
            let mut kept = Samples::default();
            let mut levels = Vec::new();
            for (off, i) in range.enumerate() {
                if off % CHECK_EVERY == 0 {
                    failpoint::hit(failpoint::Site::SampleBatch, cancel);
                    if cancel.is_some_and(CancelToken::should_stop) {
                        break;
                    }
                }
                let mut rng = seeds.rng_for(i as u64);
                Self::draw_uniform(&mut sampler, &mut rng, &mut rr);
                let span = Self::hfs_record_tree(
                    dendro,
                    lca,
                    rr.view(),
                    &mut queues,
                    &mut explored,
                    &mut buckets,
                    keep_samples.then_some(&mut levels),
                );
                if keep_samples {
                    kept.push(rr.view(), span, &levels);
                }
            }
            (buckets, kept, sampler.stats())
        });
        let mut sampled = SampleStats::default();
        let mut merged: Vec<FxHashMap<NodeId, u32>> = vec![FxHashMap::default(); nv];
        let mut samples = Samples::default();
        for (shard, kept, stats) in shards {
            sampled = sampled.merged(stats);
            for (slot, bucket) in merged.iter_mut().zip(shard) {
                for (v, c) in bucket {
                    *slot.entry(v).or_insert(0) += c;
                }
            }
            samples.append(kept);
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        Some((merged, samples, sampled))
    }

    /// Draws one RR graph from a uniform source into `rr`, in place: the
    /// source from `rng`, then [`RrSampler::sample_into`] from the same
    /// stream. Builds that keep their samples copy them into an arena.
    fn draw_uniform<R: Rng>(sampler: &mut RrSampler<'_>, rng: &mut R, rr: &mut RrGraph) {
        let s = rng.random_range(0..sampler.graph().num_nodes()) as NodeId;
        sampler.sample_into(s, rng, |_| true, rr);
    }

    /// Records one RR graph into the per-vertex buckets: every RR node goes
    /// to the bucket of its tag, the smallest community containing a path
    /// from the source (tagged via O(1) `lca`), drained deepest-first. With
    /// `levels`, it also sets `levels[k]` to RR node `k`'s tag **level**,
    /// its place on the source's root path: `depth(leaf(s)) − 1 −
    /// depth(tag)`, the index rank rows use (0 = the source's parent). A
    /// patch replays the levels to subtract the sample without traversing
    /// it again; a plain build passes `None` and writes none. Leaves
    /// `queues` empty for reuse.
    ///
    /// Returns the sample's **span**: the size of its highest tag, which is
    /// the LCA of its nodes (the source's parent for a lone source; 0 on a
    /// one-node graph, which tags nothing). Every tag lies on the source's
    /// root path, and tags are visited in non-increasing depth, so the
    /// last one visited is the highest.
    fn hfs_record_tree(
        dendro: &Dendrogram,
        lca: &LcaIndex,
        rr: RrView<'_>,
        queues: &mut [Vec<(u32, VertexId)>],
        explored: &mut Vec<bool>,
        buckets: &mut [FxHashMap<NodeId, u32>],
        mut levels: Option<&mut Vec<u32>>,
    ) -> u32 {
        if let Some(levels) = levels.as_deref_mut() {
            levels.clear();
            levels.resize(rr.len(), 0);
        }
        let s = rr.source();
        let s_leaf = dendro.leaf(s);
        if s_leaf == dendro.root() {
            return 0; // single-node graph: nothing to index
        }
        let tag0 = dendro.parent(s_leaf);
        let d0 = dendro.depth(tag0) as usize;
        explored.clear();
        explored.resize(rr.len(), false);
        queues[d0].push((0, tag0));
        let mut top = tag0;
        for d in (1..=d0).rev() {
            while let Some((v, tag)) = queues[d].pop() {
                if explored[v as usize] {
                    continue;
                }
                explored[v as usize] = true;
                top = tag;
                *buckets[tag as usize].entry(rr.node(v)).or_insert(0) += 1;
                if let Some(levels) = levels.as_deref_mut() {
                    levels[v as usize] = (d0 - d) as u32;
                }
                for &u in rr.out_neighbors(v) {
                    if explored[u as usize] {
                        continue;
                    }
                    // Smallest community containing a path from s to u:
                    // the lca of u's leaf with the current tag.
                    let tu = lca.lca(dendro.leaf(rr.node(u)), tag);
                    queues[dendro.depth(tu) as usize].push((u, tu));
                }
            }
        }
        dendro.size(top) as u32
    }

    /// Stage 2: bottom-up bucket merge producing per-node rank vectors.
    ///
    /// With `threads > 1`, each equal-depth wave of the post-order is
    /// processed in parallel: same-depth vertices root disjoint subtrees,
    /// so their buckets, child lists, and rank rows never overlap, and
    /// every worker reads the accumulator state frozen before its wave —
    /// exactly what the serial order would have shown it. Results are
    /// applied in the fixed post-order, so the output is identical for
    /// every thread count.
    ///
    /// Polls `cancel` once per depth wave; a fired token abandons the
    /// half-merged state and returns `None`.
    fn merge_stage(
        dendro: &Dendrogram,
        buckets: &[FxHashMap<NodeId, u32>],
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<Vec<u32>>> {
        let n = dendro.num_leaves();
        let nv = dendro.num_vertices();
        // acc[v] = accumulated count of v over the already-folded buckets on
        // its root path (exact count within the vertex being processed).
        let mut acc = vec![0u32; n];
        // A leaf at depth `d` has `d - 1` ancestors: its root path's length.
        let mut ranks: Vec<Vec<u32>> = (0..n as NodeId)
            .map(|v| vec![0; dendro.depth(dendro.leaf(v)) as usize - 1])
            .collect();
        // `stale[v]`: v's count changes in the wave being merged, so its
        // entries in the children's lists are superseded. Same-depth
        // subtrees are disjoint, so one flag array serves the whole wave.
        let mut stale = vec![false; n];
        // Sorted count lists (count desc, id asc), one per live vertex.
        let mut lists: Vec<Option<Vec<(u32, NodeId)>>> = (0..nv).map(|_| None).collect();
        for (v, slot) in lists.iter_mut().enumerate().take(n) {
            *slot = Some(vec![(0, v as NodeId)]);
        }

        // Post-order over internal vertices: children have smaller subtree
        // intervals and strictly larger depth; process by depth descending,
        // ties broken arbitrarily (children always deeper than parents).
        let mut order: Vec<VertexId> = (n as VertexId..nv as VertexId).collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(dendro.depth(v)));

        let mut wave_start = 0;
        while wave_start < order.len() {
            failpoint::hit(failpoint::Site::MergeWave, cancel);
            if let Some(tok) = cancel {
                if tok.should_stop() {
                    return None;
                }
            }
            let depth = dendro.depth(order[wave_start]);
            let mut wave_end = wave_start + 1;
            while wave_end < order.len() && dendro.depth(order[wave_end]) == depth {
                wave_end += 1;
            }
            let wave = &order[wave_start..wave_end];
            // Detach each wave vertex's inputs (bucket + child lists) ...
            let items: Vec<MergeItem> = wave
                .iter()
                .map(|&i| {
                    let bucket = &buckets[i as usize];
                    let [a, b] = dendro.children(i);
                    let (Some(left), Some(right)) =
                        (lists[a as usize].take(), lists[b as usize].take())
                    else {
                        unreachable!("children are processed before parents in depth order")
                    };
                    MergeItem {
                        vertex: i,
                        bucket,
                        left,
                        right,
                    }
                })
                .collect();
            // ... compute every merge of the wave against the pre-wave
            // accumulator (same-depth subtrees are disjoint, so no item can
            // observe another's updates even serially) ...
            for &v in items.iter().flat_map(|item| item.bucket.keys()) {
                stale[v as usize] = true;
            }
            let outputs = par_ranges(items.len(), threads, |range| {
                range
                    .map(|idx| Self::merge_one(dendro, &items[idx], &acc, &stale))
                    .collect::<Vec<MergeOutput>>()
            });
            for &v in items.iter().flat_map(|item| item.bucket.keys()) {
                stale[v as usize] = false;
            }
            // ... and apply the results in the fixed post-order.
            for (item, out) in items.iter().zip(outputs.into_iter().flatten()) {
                for &(c, v) in &out.updated {
                    acc[v as usize] = c;
                }
                for &(v, j, r) in &out.rank_updates {
                    ranks[v as usize][j as usize] = r;
                }
                lists[item.vertex as usize] = Some(out.merged);
            }
            wave_start = wave_end;
        }
        Some(ranks)
    }

    /// Folds one internal vertex's bucket into its children's sorted count
    /// lists, returning the merged list plus the accumulator and rank
    /// assignments to apply. Pure in `acc` and `stale` (the wave's bucket
    /// nodes) — the caller applies updates after the whole wave is
    /// computed.
    fn merge_one(
        dendro: &Dendrogram,
        item: &MergeItem,
        acc: &[u32],
        stale: &[bool],
    ) -> MergeOutput {
        // New accumulated counts for nodes recorded in this bucket.
        let mut updated: Vec<(u32, NodeId)> = item
            .bucket
            .iter()
            .map(|(&v, &c)| (acc[v as usize] + c, v))
            .collect();
        updated.sort_unstable_by_key(|&e| rank_key(e));
        // Merge the three runs, skipping stale child entries. Node ids are
        // unique across the runs, so the order is total and the result is
        // the one sorted list of them all.
        let fresh = |e: &&(u32, NodeId)| !stale[e.1 as usize];
        let mut merged = Vec::with_capacity(item.left.len() + item.right.len() + updated.len());
        merge_sorted(
            [
                &mut item.left.iter().filter(fresh),
                &mut item.right.iter().filter(fresh),
                &mut updated.iter(),
            ],
            &mut merged,
        );
        // Assign ranks: ties share the rank of their first position.
        let depth_i = dendro.depth(item.vertex);
        let mut rank_updates = Vec::with_capacity(merged.len());
        let mut rank_of_count = 1u32;
        let mut prev_count = u32::MAX;
        for (pos, &(c, v)) in merged.iter().enumerate() {
            if c != prev_count {
                rank_of_count = pos as u32 + 1;
                prev_count = c;
            }
            let j = dendro.depth(dendro.leaf(v)) - 1 - depth_i;
            rank_updates.push((v, j, rank_of_count));
        }
        MergeOutput {
            merged,
            updated,
            rank_updates,
        }
    }

    /// Reassembles an index from a prebuilt (possibly memory-mapped) rank
    /// table — the CODX v3 zero-copy load path. Row `v` must align with the
    /// root path of `v` in the hierarchy the index will be queried against.
    pub fn from_table(ranks: RankTable, theta: usize) -> Self {
        Self {
            ranks,
            theta,
            build_stats: BuildStats::default(),
        }
    }

    /// The rank table (for persistence).
    pub fn rank_table(&self) -> &RankTable {
        &self.ranks
    }

    /// Construction-effort counters ([`BuildStats`]); all zero for an index
    /// reloaded via [`HimorIndex::from_table`].
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Number of indexed nodes.
    pub fn num_nodes(&self) -> usize {
        self.ranks.num_nodes()
    }

    /// Number of RR graphs used for construction.
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// The stored rank vector of `v`, aligned with
    /// [`Dendrogram::root_path`] (index 0 = deepest community).
    pub fn ranks_of(&self, v: NodeId) -> &[u32] {
        self.ranks.of(v)
    }

    /// Algorithm 3, lines 1–2: the *largest* community on `q`'s root path
    /// that contains `floor` (an ancestor-or-self of `floor`) in which `q`
    /// ranks top-k. `floor = None` scans the whole path.
    pub fn largest_top_k(
        &self,
        dendro: &Dendrogram,
        q: NodeId,
        floor: Option<VertexId>,
        k: usize,
    ) -> Option<VertexId> {
        let path = dendro.root_path(q);
        let ranks = self.ranks_of(q);
        debug_assert_eq!(path.len(), ranks.len());
        for j in (0..path.len()).rev() {
            // Stop below the floor community.
            if let Some(f) = floor {
                if !dendro.is_descendant(f, path[j]) {
                    return None;
                }
            }
            if ranks[j] as usize <= k {
                return Some(path[j]);
            }
        }
        None
    }

    /// Approximate index memory in bytes (rank entries only) — the
    /// Table II "index size" metric.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.ranks.raw_values())
            + std::mem::size_of_val(self.ranks.raw_offsets())
    }
}

/// Sort key of a `(count, node)` rank-list entry: count descending, then
/// node id ascending — the order every sorted count list keeps.
#[inline]
fn rank_key((count, node): (u32, NodeId)) -> u64 {
    (u64::from(!count) << 32) | u64::from(node)
}

/// Appends the merge of three runs sorted by [`rank_key`] to `out`.
fn merge_sorted(runs: [&mut dyn Iterator<Item = &(u32, NodeId)>; 3], out: &mut Vec<(u32, NodeId)>) {
    let mut runs = runs.map(Iterator::peekable);
    loop {
        let mut best: Option<(usize, u64)> = None;
        for (r, run) in runs.iter_mut().enumerate() {
            if let Some(&&e) = run.peek() {
                if best.is_none_or(|(_, k)| rank_key(e) < k) {
                    best = Some((r, rank_key(e)));
                }
            }
        }
        let Some((r, _)) = best else { break };
        if let Some(&e) = runs[r].next() {
            out.push(e);
        }
    }
}

/// Effort counters of one incremental HIMOR patch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// RR samples redrawn on the new topology: their draws activated an
    /// edited node, so they may differ.
    pub samples_redrawn: u64,
    /// RR samples recorded anew from their retained draws: their span
    /// reaches a community that changed, so their tags may move, but they
    /// hold no edited node, so their draws cannot.
    pub samples_rerecorded: u64,
    /// Total retained samples (`Θ`): the denominator of both rates.
    pub samples_total: u64,
}

/// The level store compacts once its dead entries exceed one
/// `LEVELS_COMPACT_RATIO`-th of its live entries, the rule [`RrArena`]
/// follows.
const LEVELS_COMPACT_RATIO: usize = 8;

/// The samples a patchable build keeps, index-aligned with the seed
/// sequence: the drawn RR graphs in one arena, plus each one's source and
/// span in flat arrays, so a patch can pick the samples an event reaches
/// without reading any node list it does not need, and each one's tag
/// levels, so a patch can subtract it without traversing it.
#[derive(Clone, Debug, Default)]
struct Samples {
    /// Sample `i` as last drawn.
    arena: RrArena,
    /// `sources[i]`: the source node of sample `i`.
    sources: Vec<NodeId>,
    /// `spans[i]`: the size of sample `i`'s highest tag under the current
    /// tree (the LCA of its nodes; see [`HimorIndex::hfs_record_tree`]).
    spans: Vec<u32>,
    /// Tag levels under the current tree, one per RR node, aligned with
    /// the sample's node list: sample `i`'s are the `arena.get(i).len()`
    /// entries from `level_at[i]`.
    levels: Vec<u32>,
    level_at: Vec<usize>,
    /// Entries of `levels` no sample covers.
    dead_levels: usize,
}

impl Samples {
    fn push(&mut self, rr: RrView<'_>, span: u32, levels: &[u32]) {
        debug_assert_eq!(levels.len(), rr.len());
        self.arena.push(rr);
        self.sources.push(rr.source());
        self.spans.push(span);
        self.level_at.push(self.levels.len());
        self.levels.extend_from_slice(levels);
    }

    fn append(&mut self, other: Samples) {
        let base = self.levels.len();
        self.arena.append(other.arena);
        self.sources.extend(other.sources);
        self.spans.extend(other.spans);
        self.levels.extend(other.levels);
        self.level_at
            .extend(other.level_at.iter().map(|&at| at + base));
        self.dead_levels += other.dead_levels;
    }

    /// Sample `i`'s tag levels, aligned with its node list.
    fn levels(&self, i: usize) -> &[u32] {
        let at = self.level_at[i];
        &self.levels[at..at + self.arena.get(i).len()]
    }

    /// Makes `levels` sample `i`'s, once the arena holds its current draw;
    /// `old_len` is the node count of the draw they replace. They are
    /// written in place when they fit and appended otherwise, and the
    /// store compacts when its dead entries pass their share.
    fn set_levels(&mut self, i: usize, old_len: usize, levels: &[u32]) {
        debug_assert_eq!(levels.len(), self.arena.get(i).len());
        if levels.len() <= old_len {
            let at = self.level_at[i];
            self.levels[at..at + levels.len()].copy_from_slice(levels);
            self.dead_levels += old_len - levels.len();
        } else {
            self.level_at[i] = self.levels.len();
            self.levels.extend_from_slice(levels);
            self.dead_levels += old_len;
        }
        let live = self.levels.len() - self.dead_levels;
        if self.dead_levels * LEVELS_COMPACT_RATIO > live {
            let mut fresh = Vec::with_capacity(live + live / LEVELS_COMPACT_RATIO);
            for j in 0..self.level_at.len() {
                let at = fresh.len();
                fresh.extend_from_slice(self.levels(j));
                self.level_at[j] = at;
            }
            self.levels = fresh;
            self.dead_levels = 0;
        }
    }

    fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes()
            + self.sources.capacity() * std::mem::size_of::<NodeId>()
            + self.spans.capacity() * std::mem::size_of::<u32>()
            + self.levels.capacity() * std::mem::size_of::<u32>()
            + self.level_at.capacity() * std::mem::size_of::<usize>()
    }
}

/// Per leaf of `d`: the size of its smallest ancestor-or-self that holds a
/// node flagged in `is_edited`, or `u32::MAX` when none does. A sample's
/// nodes all lie in its highest tag, so it can hold an edited node only if
/// its span reaches this size at its source.
fn edit_reach(d: &Dendrogram, is_edited: &[bool]) -> Vec<u32> {
    let n = d.num_leaves();
    let mut holds = is_edited.to_vec();
    holds.resize(d.num_vertices(), false);
    for v in n..d.num_vertices() {
        let [a, b] = d.children(v as VertexId);
        holds[v] = holds[a as usize] || holds[b as usize];
    }
    smallest_selected_ancestor(d, |v| holds[v as usize])
}

/// Retained construction state of a [`HimorIndex::build_patchable`]
/// build: the `Θ` drawn RR graphs with their sources, spans and tag
/// levels, plus the master per-vertex buckets, all keyed to the hierarchy
/// the index was last built against.
///
/// After a graph mutation reclusters the dendrogram, [`HimorPatchState::patch`]
/// produces the index a full `build` on the new graph would produce —
/// bit-identically, because sample `i` is a pure function of
/// `(graph, model, seed, i)` and a draw reads only the adjacency rows of
/// the nodes it activates ([`RrSampler::sample_into`]). A sample that
/// holds an edited node is redrawn; one whose span reaches a community
/// that changed is recorded anew under the new tree; every other sample
/// keeps its bucket contributions, re-keyed through the old→new community
/// matching of [`cod_hierarchy::repair::match_vertices`].
#[derive(Clone, Debug)]
pub struct HimorPatchState {
    seeds: SeedSequence,
    theta: usize,
    samples: Samples,
    /// Master buckets of the current tree (vertex id space of the
    /// hierarchy the last build/patch ran against).
    buckets: Vec<FxHashMap<NodeId, u32>>,
}

impl HimorPatchState {
    /// Total retained RR graphs (`Θ`).
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// Heap bytes retained by the samples (arena, sources, spans, tag
    /// levels) and the master buckets — what keeping the index patchable
    /// costs over a plain build.
    pub fn memory_bytes(&self) -> usize {
        let buckets: usize = self
            .buckets
            .iter()
            .map(|b| b.capacity() * (std::mem::size_of::<NodeId>() + std::mem::size_of::<u32>()))
            .sum();
        self.samples.memory_bytes() + buckets
    }

    /// Patches the retained state across a mutation: `g` is the new
    /// topology, `old_dendro` the hierarchy the state is keyed to, `new_*`
    /// the reclustered hierarchy, `diff` their structural matching, and
    /// `edited` the nodes whose adjacency changed. Returns the index a
    /// fresh [`HimorIndex::build`] on `(g, new_dendro)` with the same seed
    /// would return, bit for bit, plus patch-effort counters.
    ///
    /// A sample of source `s` and span `w` is subtracted under the old
    /// tree and recorded under the new one only when it holds an edited
    /// node or `w ≥ diff.unmatched[s]`. Any other sample's chain of
    /// communities, from its source up to its highest tag, is matched in
    /// both trees with equal leaf sets, so HFS tags each of its nodes the
    /// same way up to the matching, and its contributions move with the
    /// buckets. A sample's nodes all lie in its highest tag, so it can hold
    /// an edited node only if `w` reaches the size of the smallest
    /// ancestor of `s` holding one; only the samples that pass this test
    /// read their node lists. Of the samples recorded anew, those holding an
    /// edited node are redrawn with their per-index seeds; the rest read
    /// only unchanged adjacency rows, so their retained draws are what a
    /// redraw would produce and are recorded as they stand. The
    /// subtraction replays each sample's stored tag levels on its old root
    /// path instead of traversing it; a skipped sample's levels stay valid,
    /// since its chain up to its highest tag is the same families in the
    /// same order in both trees. The master buckets are updated in place
    /// and then moved into the new tree's vertex space.
    ///
    /// `None` means the state was out of sync with `old_dendro`: a
    /// subtraction underflowed, or a bucket survived on an unmatched
    /// community. The state is then torn; drop it and build afresh with
    /// [`HimorIndex::build_patchable`].
    #[allow(clippy::too_many_arguments)] // two hierarchies, their diff and the edit set
    pub fn patch(
        &mut self,
        g: &Csr,
        model: Model,
        old_dendro: &Dendrogram,
        new_dendro: &Dendrogram,
        new_lca: &LcaIndex,
        diff: &TreeDiff,
        edited: &[NodeId],
        par: Parallelism,
    ) -> Option<(HimorIndex, PatchStats)> {
        let n = new_dendro.num_leaves();
        assert_eq!(g.num_nodes(), n, "patch cannot grow nodes");
        assert_eq!(old_dendro.num_leaves(), n);
        debug_assert_eq!(self.buckets.len(), old_dendro.num_vertices());

        // Pick the samples whose tags or draws can move: `(index, redraw)`.
        let mut is_edited = vec![false; n];
        for &v in edited {
            is_edited[v as usize] = true;
        }
        let reach = edit_reach(old_dendro, &is_edited);
        let samples = &self.samples;
        let affected: Vec<(u32, bool)> = (0..samples.spans.len())
            .filter_map(|i| {
                let (s, span) = (samples.sources[i] as usize, samples.spans[i]);
                let redraw = span >= reach[s]
                    && samples
                        .arena
                        .get(i)
                        .nodes()
                        .iter()
                        .any(|&u| is_edited[u as usize]);
                (redraw || span >= diff.unmatched[s]).then_some((i as u32, redraw))
            })
            .collect();

        // Subtract the affected samples' contributions under the old tree by
        // replaying their stored levels: node `k` of sample `i` was counted
        // in the bucket `levels[k]` steps up its source's root path, which
        // is walked once, up to the sample's highest level.
        let mut underflow = false;
        let mut path: Vec<VertexId> = Vec::new();
        for &(i, _) in &affected {
            let i = i as usize;
            if self.samples.spans[i] == 0 {
                continue; // one-node graph: the record tagged nothing
            }
            path.clear();
            path.push(old_dendro.parent(old_dendro.leaf(self.samples.sources[i])));
            let nodes = self.samples.arena.get(i).nodes();
            for (&node, &level) in nodes.iter().zip(self.samples.levels(i)) {
                while path.len() <= level as usize {
                    let Some(&top) = path.last() else {
                        unreachable!("the path starts at the source's parent")
                    };
                    path.push(old_dendro.parent(top));
                }
                let bucket = &mut self.buckets[path[level as usize] as usize];
                match bucket.get_mut(&node) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => {
                        bucket.remove(&node);
                    }
                    None => underflow = true,
                }
            }
        }
        if underflow {
            debug_assert!(false, "patch subtraction underflow: state out of sync");
            return None;
        }

        // Move the surviving buckets into the new tree's vertex space.
        // Every unmatched old community must have been emptied by the
        // subtraction: a sample tagging it has it on its source's chain at
        // or below its highest tag, so its span reaches `diff.unmatched`.
        let old_buckets = std::mem::replace(
            &mut self.buckets,
            vec![FxHashMap::default(); new_dendro.num_vertices()],
        );
        for (v, bucket) in old_buckets.into_iter().enumerate().skip(n) {
            if bucket.is_empty() {
                continue;
            }
            match diff.old_to_new[v] {
                Some(w) => self.buckets[w as usize] = bucket,
                None => {
                    debug_assert!(false, "nonempty bucket on unmatched vertex {v}");
                    return None;
                }
            }
        }

        // Record every affected sample against the new tree: redraw it on
        // the new topology with its original per-index seed when it holds
        // an edited node, and take its retained draw otherwise.
        let max_depth = (0..n as NodeId)
            .map(|v| new_dendro.depth(new_dendro.leaf(v)))
            .max()
            .unwrap_or(1) as usize;
        let mut queues: Vec<Vec<(u32, VertexId)>> = vec![Vec::new(); max_depth + 1];
        let mut explored: Vec<bool> = Vec::new();
        let mut levels: Vec<u32> = Vec::new();
        let mut sampler = RrSampler::new(g, model);
        let mut rr = RrGraph::default();
        let mut redrawn = 0u64;
        for &(i, redraw) in &affected {
            let i = i as usize;
            let old_len = self.samples.arena.get(i).len();
            if redraw {
                let mut rng = self.seeds.rng_for(i as u64);
                HimorIndex::draw_uniform(&mut sampler, &mut rng, &mut rr);
                self.samples.arena.replace(i, rr.view());
                redrawn += 1;
            }
            self.samples.spans[i] = HimorIndex::hfs_record_tree(
                new_dendro,
                new_lca,
                self.samples.arena.get(i),
                &mut queues,
                &mut explored,
                &mut self.buckets,
                Some(&mut levels),
            );
            self.samples.set_levels(i, old_len, &levels);
        }

        // Without a token the merge stage runs to completion.
        let ranks = HimorIndex::merge_stage(new_dendro, &self.buckets, par.thread_count(), None)?;
        let sampled = sampler.stats();
        let index = HimorIndex {
            ranks: RankTable::from_nested(ranks),
            theta: self.theta,
            build_stats: BuildStats {
                rr_graphs: sampled.graphs,
                rr_edges: sampled.edges,
                bucket_merges: (new_dendro.num_vertices() - n) as u64,
            },
        };
        let stats = PatchStats {
            samples_redrawn: redrawn,
            samples_rerecorded: affected.len() as u64 - redrawn,
            samples_total: self.theta as u64,
        };
        Some((index, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;
    use cod_hierarchy::cluster_unweighted;
    use cod_influence::InfluenceEstimate;

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

    /// A one-thread, ungoverned build from `seed`.
    fn build(g: &Csr, d: &Dendrogram, lca: &LcaIndex, theta: usize, seed: u64) -> HimorIndex {
        let par = Parallelism::Threads(1);
        HimorIndex::build(g, Model::WeightedCascade, d, lca, theta, seed, par, None).unwrap()
    }

    fn setup(g: &Csr) -> (Dendrogram, LcaIndex) {
        let merges = cluster_unweighted(g);
        let d = Dendrogram::from_merges(g.num_nodes(), &merges);
        let lca = LcaIndex::new(&d);
        (d, lca)
    }

    #[test]
    fn hub_ranks_first_everywhere() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let mut rng = SmallRng::seed_from_u64(21);
        let idx = build(&g, &d, &lca, 300, rng.next_u64());
        // Node 0 (big hub) must rank 1 in every community on its path.
        for &r in idx.ranks_of(0) {
            assert_eq!(r, 1);
        }
        assert_eq!(
            idx.largest_top_k(&d, 0, None, 1),
            Some(*d.root_path(0).last().unwrap())
        );
    }

    #[test]
    fn ranks_agree_with_direct_community_estimation() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let mut rng = SmallRng::seed_from_u64(22);
        let (theta, seed) = (800, rng.next_u64());
        let idx = build(&g, &d, &lca, theta, seed);
        // Replay the build's draws (sample `i` from `rng_for(i)`) and count
        // each path community `C` directly (Definition 3): `v` scores once
        // per RR graph whose source reaches it inside `C`. The stored rank
        // must equal the direct one exactly, ties sharing a rank.
        let seeds = SeedSequence::new(seed);
        let mut sampler = RrSampler::new(&g, Model::WeightedCascade);
        let (mut draws, mut rr) = (RrArena::default(), RrGraph::default());
        for i in 0..theta * g.num_nodes() {
            HimorIndex::draw_uniform(&mut sampler, &mut seeds.rng_for(i as u64), &mut rr);
            draws.push(rr.view());
        }
        // Independently, the stored rank must match a fresh high-θ estimate
        // within one wherever that estimate separates `q` from every other
        // member by more than a ±2σ count margin (the `uncertain` rule):
        // tied star leaves order by noise there.
        let mut est_rng = SmallRng::seed_from_u64(23);
        for q in 0..g.num_nodes() as NodeId {
            let path = d.root_path(q);
            for (j, &c) in path.iter().enumerate() {
                let members = d.members_sorted(c);
                let inside = |u: NodeId| members.binary_search(&u).is_ok();
                let mut count = vec![0u32; g.num_nodes()];
                for rr in draws.iter() {
                    for v in rr.reachable_within(inside) {
                        count[v as usize] += 1;
                    }
                }
                let cq = count[q as usize];
                let direct = members.iter().filter(|&&v| count[v as usize] > cq).count() + 1;
                let stored = idx.ranks_of(q)[j] as usize;
                assert_eq!(stored, direct, "q={q} level {j}: stored vs same-draw rank");

                let est = InfluenceEstimate::on_community(
                    &g,
                    Model::WeightedCascade,
                    &members,
                    400 * members.len(),
                    SeedSequence::new(est_rng.next_u64()),
                    Parallelism::Threads(1),
                );
                let cq = f64::from(est.count(q));
                let tied = members.iter().any(|&v| {
                    let cv = f64::from(est.count(v));
                    v != q && (cv - cq).abs() <= 2.0 * (cv + cq + 1.0).sqrt()
                });
                if !tied {
                    let fresh = est.rank(q, &members);
                    assert!(
                        stored.abs_diff(fresh) <= 1,
                        "q={q} level {j}: stored {stored} vs fresh estimate {fresh}"
                    );
                }
            }
        }
    }

    #[test]
    fn floor_limits_the_scan() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let mut rng = SmallRng::seed_from_u64(24);
        let idx = build(&g, &d, &lca, 300, rng.next_u64());
        // Query node 9 (a periphery leaf of the small star): with floor at
        // the root, only the root is scanned, and node 9 is not top-1 there.
        let root = d.root();
        assert_eq!(idx.largest_top_k(&d, 9, Some(root), 1), None);
        // With a generous k the root itself qualifies.
        assert_eq!(idx.largest_top_k(&d, 9, Some(root), 10), Some(root));
    }

    #[test]
    fn parallel_build_is_deterministic_and_consistent() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let par = Parallelism::Threads(4);
        let a =
            HimorIndex::build(&g, Model::WeightedCascade, &d, &lca, 200, 77, par, None).unwrap();
        let b =
            HimorIndex::build(&g, Model::WeightedCascade, &d, &lca, 200, 77, par, None).unwrap();
        for v in 0..10u32 {
            assert_eq!(a.ranks_of(v), b.ranks_of(v), "same seed => same index");
        }
        // Structural agreement with a build from another seed: the hub
        // must rank first everywhere under both.
        let other = build(&g, &d, &lca, 200, 78);
        for &r in a.ranks_of(0) {
            assert_eq!(r, 1);
        }
        for &r in other.ranks_of(0) {
            assert_eq!(r, 1);
        }
        assert_eq!(a.theta(), other.theta());
    }

    #[test]
    fn seeded_build_is_thread_count_invariant() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let base = build(&g, &d, &lca, 150, 1234);
        for t in [2usize, 3, 8] {
            let par = Parallelism::Threads(t);
            let idx = HimorIndex::build(&g, Model::WeightedCascade, &d, &lca, 150, 1234, par, None)
                .unwrap();
            for v in 0..10u32 {
                assert_eq!(base.ranks_of(v), idx.ranks_of(v), "threads {t}, node {v}");
            }
            assert_eq!(base.theta(), idx.theta());
        }
    }

    #[test]
    fn build_stats_reflect_construction_effort() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let mut rng = SmallRng::seed_from_u64(31);
        let idx = build(&g, &d, &lca, 10, rng.next_u64());
        let s = idx.build_stats();
        // Every one of the Θ = θ·|V| uniform draws generates an RR graph,
        // and stage 2 merges one bucket per internal vertex.
        assert_eq!(s.rr_graphs, 100);
        assert!(s.rr_edges > 0);
        assert_eq!(s.bucket_merges, (d.num_vertices() - 10) as u64);
        let par = Parallelism::Threads(4);
        let four =
            HimorIndex::build(&g, Model::WeightedCascade, &d, &lca, 10, 9, par, None).unwrap();
        assert_eq!(four.build_stats().rr_graphs, 100);
        assert_eq!(four.build_stats().bucket_merges, s.bucket_merges);
        // A reloaded index carries no provenance.
        let raw = HimorIndex::from_table(RankTable::from_nested(vec![vec![1]]), 5);
        assert_eq!(raw.build_stats(), BuildStats::default());
    }

    #[test]
    fn patchable_build_matches_plain_build() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let par = Parallelism::Threads(3);
        let plain =
            HimorIndex::build(&g, Model::WeightedCascade, &d, &lca, 100, 42, par, None).unwrap();
        let (patchable, state) = HimorIndex::build_patchable(
            &g,
            Model::WeightedCascade,
            &d,
            &lca,
            100,
            42,
            Parallelism::Threads(3),
        )
        .unwrap();
        for v in 0..10u32 {
            assert_eq!(plain.ranks_of(v), patchable.ranks_of(v), "node {v}");
        }
        assert_eq!(state.theta(), plain.theta());
        assert!(state.memory_bytes() > 0);
    }

    #[test]
    fn a_plain_build_keeps_no_levels() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let par = Parallelism::Threads(2);
        let build = |keep| {
            HimorIndex::construct(&g, Model::WeightedCascade, &d, &lca, 20, 5, par, None, keep)
                .unwrap()
                .1
                .samples
        };
        let plain = build(false);
        assert!(plain.levels.is_empty() && plain.level_at.is_empty());
        assert_eq!(
            plain.levels.capacity(),
            0,
            "a plain build allocates no levels"
        );
        // A patchable build keeps one level per RR node: the source's at
        // level 0, and every level on the source's root path.
        let kept = build(true);
        assert_eq!(
            kept.levels.len(),
            kept.arena.iter().map(|rr| rr.len()).sum::<usize>()
        );
        for (i, rr) in kept.arena.iter().enumerate() {
            let levels = kept.levels(i);
            assert_eq!(levels[0], 0, "sample {i}: the source's tag is its parent");
            let path = d.root_path(rr.source()).len() as u32;
            assert!(levels.iter().all(|&l| l < path), "sample {i}: {levels:?}");
        }
    }

    #[test]
    fn patch_reproduces_a_from_scratch_rebuild() {
        use cod_hierarchy::match_vertices;

        let mut rng = SmallRng::seed_from_u64(99);
        for trial in 0..12 {
            // Random sparse graph, then flip one random edge.
            let n = 12usize;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in u + 1..n as u32 {
                    if rng.random_bool(0.28) {
                        edges.push((u, v));
                    }
                }
            }
            edges.push((0, 1));
            edges.sort_unstable();
            edges.dedup();
            let mut b = GraphBuilder::new(n);
            for &(u, v) in &edges {
                b.add_edge(u, v);
            }
            let g0 = b.build();
            let (d0, lca0) = setup(&g0);
            let (_, mut state) = HimorIndex::build_patchable(
                &g0,
                Model::WeightedCascade,
                &d0,
                &lca0,
                20,
                7 + trial,
                Parallelism::Threads(2),
            )
            .unwrap();

            let u = rng.random_range(0..n as u32);
            let v = (u + 1 + rng.random_range(0..(n as u32 - 1))) % n as u32;
            let (u, v) = (u.min(v), u.max(v));
            let mut e1: Vec<_> = edges.iter().copied().filter(|&e| e != (u, v)).collect();
            if e1.len() == edges.len() {
                e1.push((u, v));
                e1.sort_unstable();
            }
            if e1.is_empty() {
                continue;
            }
            let mut b1 = GraphBuilder::new(n);
            for &(x, y) in &e1 {
                b1.add_edge(x, y);
            }
            let g1 = b1.build();
            let d1 = Dendrogram::from_merges(n, &cluster_unweighted(&g1));
            let lca1 = LcaIndex::new(&d1);
            let diff = match_vertices(&d0, &d1);
            let (patched, stats) = state
                .patch(
                    &g1,
                    Model::WeightedCascade,
                    &d0,
                    &d1,
                    &lca1,
                    &diff,
                    &[u, v],
                    Parallelism::Threads(2),
                )
                .unwrap();
            let scratch = HimorIndex::build(
                &g1,
                Model::WeightedCascade,
                &d1,
                &lca1,
                20,
                7 + trial,
                Parallelism::Threads(2),
                None,
            )
            .unwrap();
            for q in 0..n as u32 {
                assert_eq!(
                    patched.ranks_of(q),
                    scratch.ranks_of(q),
                    "trial {trial} node {q}: patched index must equal scratch build"
                );
            }
            assert!(stats.samples_redrawn <= stats.samples_total);
        }
    }

    #[test]
    fn patched_state_equals_a_fresh_patchable_build_across_a_chain() {
        use cod_hierarchy::match_vertices;

        let graph = |n: usize, edges: &[(u32, u32)]| {
            let mut b = GraphBuilder::new(n);
            for &(u, v) in edges {
                b.add_edge(u, v);
            }
            b.build()
        };
        let (n, theta) = (16usize, 30usize);
        let par = Parallelism::Threads(2);
        let mut rng = SmallRng::seed_from_u64(2024);
        let models = [
            Model::WeightedCascade,
            Model::UniformIc(0.3),
            Model::LinearThreshold,
            Model::RandomK(2),
        ];
        for (seed, model) in (300u64..).zip(models) {
            // Sorted edge list of a random graph.
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in u + 1..n as u32 {
                    if rng.random_bool(0.2) {
                        edges.push((u, v));
                    }
                }
            }
            let g = graph(n, &edges);
            let (mut d, lca) = setup(&g);
            let (_, mut state) =
                HimorIndex::build_patchable(&g, model, &d, &lca, theta, seed, par).unwrap();
            let (mut redrawn, mut rerecorded, mut disturbed) = (0, 0, 0);
            let (mut compacted, mut levels_compacted) = (false, false);
            for step in 0..12 {
                // Toggle one or two distinct node pairs.
                let mut toggled: Vec<(u32, u32)> = Vec::new();
                let count = rng.random_range(1..3usize);
                while toggled.len() < count {
                    let u = rng.random_range(0..n as u32);
                    let v = (u + rng.random_range(1..n as u32)) % n as u32;
                    let e = (u.min(v), u.max(v));
                    if toggled.contains(&e) {
                        continue;
                    }
                    toggled.push(e);
                    match edges.binary_search(&e) {
                        Ok(at) => {
                            edges.remove(at);
                        }
                        Err(at) => edges.insert(at, e),
                    }
                }
                let mut edited: Vec<u32> = toggled.iter().flat_map(|&(u, v)| [u, v]).collect();
                edited.sort_unstable();
                edited.dedup();
                let g1 = graph(n, &edges);
                let d1 = Dendrogram::from_merges(n, &cluster_unweighted(&g1));
                let lca1 = LcaIndex::new(&d1);
                let diff = match_vertices(&d, &d1);
                let holding_edited = state
                    .samples
                    .arena
                    .iter()
                    .filter(|rr| rr.nodes().iter().any(|u| edited.contains(u)))
                    .count() as u64;
                // What re-recording every sample that holds a disturbed
                // leaf (a leaf under a changed community) would cost.
                let holding_disturbed = state
                    .samples
                    .arena
                    .iter()
                    .filter(|rr| {
                        !rr.nodes().iter().any(|u| edited.contains(u))
                            && rr
                                .nodes()
                                .iter()
                                .any(|&u| diff.unmatched[u as usize] != u32::MAX)
                    })
                    .count() as u64;
                let dead_before = state.samples.arena.dead_words();
                let dead_levels_before = state.samples.dead_levels;
                let (patched, stats) = state
                    .patch(&g1, model, &d, &d1, &lca1, &diff, &edited, par)
                    .unwrap();
                compacted |= state.samples.arena.dead_words() < dead_before;
                levels_compacted |= state.samples.dead_levels < dead_levels_before;
                let ctx = format!("{model:?} step {step} toggling {toggled:?}");
                let (fresh_index, fresh) =
                    HimorIndex::build_patchable(&g1, model, &d1, &lca1, theta, seed, par).unwrap();
                assert!(
                    state.samples.arena.iter().eq(fresh.samples.arena.iter()),
                    "{ctx}: retained samples"
                );
                assert_eq!(
                    state.samples.sources, fresh.samples.sources,
                    "{ctx}: sources"
                );
                assert_eq!(state.samples.spans, fresh.samples.spans, "{ctx}: spans");
                for i in 0..fresh.samples.spans.len() {
                    assert_eq!(
                        state.samples.levels(i),
                        fresh.samples.levels(i),
                        "{ctx}: tag levels of sample {i}"
                    );
                }
                assert!(state.buckets == fresh.buckets, "{ctx}: master buckets");
                for q in 0..n as NodeId {
                    assert_eq!(
                        patched.ranks_of(q),
                        fresh_index.ranks_of(q),
                        "{ctx}: rank row of {q}"
                    );
                }
                assert_eq!(stats.samples_redrawn, holding_edited, "{ctx}: redraws");
                redrawn += stats.samples_redrawn;
                rerecorded += stats.samples_rerecorded;
                disturbed += holding_disturbed;
                d = d1;
            }
            assert!(
                redrawn > 0 && rerecorded > 0,
                "{model:?}: the chain redrew {redrawn} and re-recorded {rerecorded} samples"
            );
            assert!(
                rerecorded < disturbed,
                "{model:?}: re-recorded {rerecorded} of the {disturbed} samples that hold a \
                 disturbed leaf and no edited node; the span test skipped none"
            );
            assert!(compacted, "{model:?}: the chain never compacted its arena");
            assert!(
                levels_compacted,
                "{model:?}: the chain never compacted its level store"
            );
        }
    }

    #[test]
    fn memory_reflects_total_depth() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let mut rng = SmallRng::seed_from_u64(25);
        let idx = build(&g, &d, &lca, 10, rng.next_u64());
        let entries: usize = (0..10u32).map(|v| d.root_path(v).len()).sum();
        assert!(idx.memory_bytes() >= entries * 4);
    }
}
