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

use cod_graph::{Csr, FxHashMap, NodeId, Segment};
use cod_hierarchy::{Dendrogram, LcaIndex, TreeDiff, VertexId};
use cod_influence::{
    par_ranges, CancelToken, Model, Parallelism, RrGraph, RrSampler, SampleStats, SeedSequence,
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

/// What the HFS stage hands back: per-vertex buckets, the drawn RR
/// graphs (empty unless retention was requested), and effort counters.
type HfsStageOutput = (Vec<FxHashMap<NodeId, u32>>, Vec<RrGraph>, SampleStats);

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
    /// `CHECK_EVERY` draws (charging traversed RR edges against the token's
    /// cap) and the merge stage polls it once per depth wave; checkpoints
    /// never touch an RNG, so a token that does not fire leaves the index
    /// bit-identical. Fails with [`CodError::InvalidQuery`] when `Θ`
    /// overflows (before any sampling), and with
    /// [`CodError::DeadlineExceeded`] when the token fires — a half-built
    /// index is never observable.
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
    #[allow(clippy::too_many_arguments)] // the build inputs plus seed, fan-out and token
    pub fn build_patchable(
        g: &Csr,
        model: Model,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        theta_per_node: usize,
        seed: u64,
        par: Parallelism,
        cancel: Option<&CancelToken>,
    ) -> CodResult<(Self, HimorPatchState)> {
        Self::construct(
            g,
            model,
            dendro,
            lca,
            theta_per_node,
            seed,
            par,
            cancel,
            true,
        )
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
            theta_per_node: theta_per_node.max(1),
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
    /// index order (shard ranges are contiguous and ascending), so a
    /// [`HimorPatchState`] can later subtract and redraw individual samples.
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
            let mut kept: Vec<RrGraph> = Vec::new();
            if keep_samples {
                kept.reserve(range.len());
            }
            let mut charged = sampler.stats();
            for (off, i) in range.enumerate() {
                if off % CHECK_EVERY == 0 {
                    failpoint::hit(failpoint::Site::SampleBatch, cancel);
                    if let Some(tok) = cancel {
                        let now = sampler.stats();
                        tok.charge_rr_edges(now.delta_since(charged).edges);
                        charged = now;
                        if tok.should_stop() {
                            break;
                        }
                    }
                }
                let mut rng = seeds.rng_for(i as u64);
                Self::draw_uniform(&mut sampler, &mut rng, &mut rr);
                Self::hfs_record_tree(dendro, lca, &rr, &mut queues, &mut explored, &mut buckets);
                if keep_samples {
                    kept.push(rr.clone());
                }
            }
            (buckets, kept, sampler.stats())
        });
        let mut sampled = SampleStats::default();
        let mut merged: Vec<FxHashMap<NodeId, u32>> = vec![FxHashMap::default(); nv];
        let mut samples: Vec<RrGraph> = Vec::new();
        if keep_samples {
            samples.reserve(theta);
        }
        for (shard, kept, stats) in shards {
            sampled = sampled.merged(stats);
            for (slot, bucket) in merged.iter_mut().zip(shard) {
                for (v, c) in bucket {
                    *slot.entry(v).or_insert(0) += c;
                }
            }
            samples.extend(kept);
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        Some((merged, samples, sampled))
    }

    /// Draws one RR graph from a uniform source into `rr`, in place: the
    /// graph and the RNG stream of [`RrSampler::sample_uniform`], without
    /// allocating. Builds that keep their samples store exact-size clones.
    fn draw_uniform<R: Rng>(sampler: &mut RrSampler<'_>, rng: &mut R, rr: &mut RrGraph) {
        let s = rng.random_range(0..sampler.graph().num_nodes()) as NodeId;
        sampler.sample_into(s, rng, |_| true, rr);
    }

    /// Records one RR graph into the per-vertex buckets: every RR node goes
    /// to the bucket of the smallest community containing a path from the
    /// source (tagged via O(1) `lca`), drained deepest-first. Leaves
    /// `queues` empty for reuse.
    fn hfs_record_tree(
        dendro: &Dendrogram,
        lca: &LcaIndex,
        rr: &RrGraph,
        queues: &mut [Vec<(u32, VertexId)>],
        explored: &mut Vec<bool>,
        buckets: &mut [FxHashMap<NodeId, u32>],
    ) {
        Self::hfs_visit_tree(dendro, lca, rr, queues, explored, |tag, node| {
            *buckets[tag as usize].entry(node).or_insert(0) += 1;
        });
    }

    /// The HFS tree traversal of one RR graph, factored out so the
    /// incremental patch can *subtract* a sample's contributions with the
    /// same closure shape the build uses to add them. `visit(tag, node)`
    /// fires exactly once per explored RR node, with `tag` the smallest
    /// community containing a source path to it.
    fn hfs_visit_tree(
        dendro: &Dendrogram,
        lca: &LcaIndex,
        rr: &RrGraph,
        queues: &mut [Vec<(u32, VertexId)>],
        explored: &mut Vec<bool>,
        mut visit: impl FnMut(VertexId, NodeId),
    ) {
        let s = rr.source();
        let s_leaf = dendro.leaf(s);
        if s_leaf == dendro.root() {
            return; // single-node graph: nothing to index
        }
        let tag0 = dendro.parent(s_leaf);
        let d0 = dendro.depth(tag0) as usize;
        explored.clear();
        explored.resize(rr.len(), false);
        queues[d0].push((0, tag0));
        for d in (1..=d0).rev() {
            while let Some((v, tag)) = queues[d].pop() {
                if explored[v as usize] {
                    continue;
                }
                explored[v as usize] = true;
                visit(tag, rr.node(v));
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
    /// RR samples subtracted and redrawn (their node sets touched the
    /// mutation's footprint).
    pub samples_redrawn: u64,
    /// Total retained samples (`Θ`): the denominator of the redraw rate.
    pub samples_total: u64,
    /// Old-tree buckets re-keyed onto surviving communities unchanged.
    pub buckets_rekeyed: u64,
}

/// Retained construction state of a [`HimorIndex::build_patchable`]
/// build: the `Θ` drawn RR graphs plus the master per-vertex buckets, both
/// keyed to the hierarchy the index was last built against.
///
/// After a graph mutation repairs the dendrogram, [`HimorPatchState::patch`]
/// produces the index a full `build` on the new graph would produce —
/// bit-identically, because sample `i` is a pure function of
/// `(graph, model, seed, i)` and only samples whose node set touches the
/// mutation footprint can change. Everything else keeps its old draw, and
/// its bucket contributions are re-keyed through the old→new community
/// matching of [`cod_hierarchy::repair::match_vertices`].
#[derive(Clone, Debug)]
pub struct HimorPatchState {
    seeds: SeedSequence,
    theta: usize,
    theta_per_node: usize,
    /// Sample `i` as last drawn (index-aligned with the seed sequence).
    samples: Vec<RrGraph>,
    /// Master buckets of the current tree (vertex id space of the
    /// hierarchy the last build/patch ran against).
    buckets: Vec<FxHashMap<NodeId, u32>>,
}

impl HimorPatchState {
    /// Total retained RR graphs (`Θ`).
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// The per-node sampling density the state was built with.
    pub fn theta_per_node(&self) -> usize {
        self.theta_per_node
    }

    /// Heap bytes retained by the samples and master buckets — what keeping
    /// the index patchable costs over a plain build.
    pub fn memory_bytes(&self) -> usize {
        let samples: usize = self.samples.iter().map(RrGraph::memory_bytes).sum();
        let buckets: usize = self
            .buckets
            .iter()
            .map(|b| b.capacity() * (std::mem::size_of::<NodeId>() + std::mem::size_of::<u32>()))
            .sum();
        samples + buckets
    }

    /// Patches the retained state across a mutation: `g` is the new
    /// topology, `old_*` the hierarchy the state is keyed to, `new_*` the
    /// repaired hierarchy, `diff` their structural matching, and `edited`
    /// the nodes whose adjacency changed. Returns the index a fresh
    /// [`HimorIndex::build`] on `(g, new_dendro)` with the same seed
    /// would return, bit for bit, plus patch-effort counters.
    ///
    /// Only RR samples whose node set intersects the footprint (disturbed
    /// leaves ∪ edited nodes) are subtracted and redrawn; the redraw loop
    /// polls `cancel` (and the `himor_patch` failpoint) every
    /// `CHECK_EVERY` samples. On cancellation — or on an internal
    /// inconsistency — the state is left **unmodified** and `None` is
    /// returned, so the caller can retry or fall back to a full rebuild.
    #[allow(clippy::too_many_arguments)] // two hierarchies plus the token
    pub fn patch(
        &mut self,
        g: &Csr,
        model: Model,
        old_dendro: &Dendrogram,
        old_lca: &LcaIndex,
        new_dendro: &Dendrogram,
        new_lca: &LcaIndex,
        diff: &TreeDiff,
        edited: &[NodeId],
        par: Parallelism,
        cancel: Option<&CancelToken>,
    ) -> Option<(HimorIndex, PatchStats)> {
        let n = new_dendro.num_leaves();
        assert_eq!(g.num_nodes(), n, "patch cannot grow nodes");
        assert_eq!(old_dendro.num_leaves(), n);
        debug_assert_eq!(self.buckets.len(), old_dendro.num_vertices());

        // Footprint: a sample must be redrawn iff its node set touches a
        // disturbed leaf (ancestor chain changed in either tree) or an
        // edited node (its own adjacency draws change).
        let mut hot = vec![false; n];
        for (v, slot) in hot.iter_mut().enumerate() {
            *slot = diff.disturbed[v];
        }
        for &v in edited {
            hot[v as usize] = true;
        }
        let affected: Vec<u32> = self
            .samples
            .iter()
            .enumerate()
            .filter(|(_, rr)| rr.nodes().iter().any(|&u| hot[u as usize]))
            .map(|(i, _)| i as u32)
            .collect();

        // Shared traversal scratch sized for both trees.
        let max_depth = (0..n as NodeId)
            .map(|v| {
                old_dendro
                    .depth(old_dendro.leaf(v))
                    .max(new_dendro.depth(new_dendro.leaf(v)))
            })
            .max()
            .unwrap_or(1) as usize;
        let mut queues: Vec<Vec<(u32, VertexId)>> = vec![Vec::new(); max_depth + 1];
        let mut explored: Vec<bool> = Vec::new();

        // Subtract the affected samples' contributions under the old tree.
        let mut tmp = self.buckets.clone();
        let mut underflow = false;
        for &i in &affected {
            HimorIndex::hfs_visit_tree(
                old_dendro,
                old_lca,
                &self.samples[i as usize],
                &mut queues,
                &mut explored,
                |tag, node| {
                    let bucket = &mut tmp[tag as usize];
                    match bucket.get_mut(&node) {
                        Some(c) if *c > 1 => *c -= 1,
                        Some(_) => {
                            bucket.remove(&node);
                        }
                        None => underflow = true,
                    }
                },
            );
        }
        if underflow {
            debug_assert!(false, "patch subtraction underflow: state out of sync");
            return None;
        }

        // Re-key the surviving buckets into the new tree's vertex space.
        // Every unmatched old community must have been emptied by the
        // subtraction (a sample tagging it necessarily contains a node
        // under it, which the footprint marks disturbed).
        let mut buckets: Vec<FxHashMap<NodeId, u32>> =
            vec![FxHashMap::default(); new_dendro.num_vertices()];
        let mut rekeyed = 0u64;
        for (v, bucket) in tmp.into_iter().enumerate().skip(n) {
            if bucket.is_empty() {
                continue;
            }
            match diff.old_to_new[v] {
                Some(w) => {
                    buckets[w as usize] = bucket;
                    rekeyed += 1;
                }
                None => {
                    debug_assert!(false, "nonempty bucket on unmatched vertex {v}");
                    return None;
                }
            }
        }

        // Redraw the affected samples on the new topology with their
        // original per-index seeds, recording against the new tree.
        let mut sampler = RrSampler::new(g, model);
        let mut charged = sampler.stats();
        let mut redrawn: Vec<(u32, RrGraph)> = Vec::with_capacity(affected.len());
        for (off, &i) in affected.iter().enumerate() {
            if off % CHECK_EVERY == 0 {
                failpoint::hit(failpoint::Site::HimorPatch, cancel);
                if let Some(tok) = cancel {
                    let now = sampler.stats();
                    tok.charge_rr_edges(now.delta_since(charged).edges);
                    charged = now;
                    if tok.should_stop() {
                        return None;
                    }
                }
            }
            let mut rng = self.seeds.rng_for(u64::from(i));
            let rr = sampler.sample_uniform(&mut rng);
            HimorIndex::hfs_visit_tree(
                new_dendro,
                new_lca,
                &rr,
                &mut queues,
                &mut explored,
                |tag, node| {
                    *buckets[tag as usize].entry(node).or_insert(0) += 1;
                },
            );
            redrawn.push((i, rr));
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }

        // Rank merge over a copy, keeping the master buckets for the next
        // patch. Commit only once the whole pipeline succeeded.
        let ranks = HimorIndex::merge_stage(new_dendro, &buckets, par.thread_count(), cancel)?;
        for (i, rr) in redrawn {
            self.samples[i as usize] = rr;
        }
        self.buckets = buckets;
        let stats = PatchStats {
            samples_redrawn: affected.len() as u64,
            samples_total: self.theta as u64,
            buckets_rekeyed: rekeyed,
        };
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
        Some((index, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;
    use cod_hierarchy::{cluster_unweighted, Linkage};
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
        let merges = cluster_unweighted(g, Linkage::Average);
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
        let draws: Vec<RrGraph> = (0..theta * g.num_nodes())
            .map(|i| sampler.sample_uniform(&mut seeds.rng_for(i as u64)))
            .collect();
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
                for rr in &draws {
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
            None,
        )
        .unwrap();
        for v in 0..10u32 {
            assert_eq!(plain.ranks_of(v), patchable.ranks_of(v), "node {v}");
        }
        assert_eq!(state.theta(), plain.theta());
        assert!(state.memory_bytes() > 0);
    }

    #[test]
    fn patch_reproduces_a_from_scratch_rebuild() {
        use cod_hierarchy::{match_vertices, repair_merges};

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
                None,
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
            let repair = repair_merges(&d0, &g1, &[u, v], Linkage::Average, true);
            let d1 = Dendrogram::from_merges(n, &repair.merges);
            let lca1 = LcaIndex::new(&d1);
            let diff = match_vertices(&d0, &d1);
            let (patched, stats) = state
                .patch(
                    &g1,
                    Model::WeightedCascade,
                    &d0,
                    &lca0,
                    &d1,
                    &lca1,
                    &diff,
                    &[u, v],
                    Parallelism::Threads(2),
                    None,
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
    fn memory_reflects_total_depth() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let mut rng = SmallRng::seed_from_u64(25);
        let idx = build(&g, &d, &lca, 10, rng.next_u64());
        let entries: usize = (0..10u32).map(|v| d.root_path(v).len()).sum();
        assert!(idx.memory_bytes() >= entries * 4);
    }
}
