//! COD over evolving graphs (the paper's §IV-B / §VI future-work
//! direction).
//!
//! The paper observes that "updates to graphs have an impact on the
//! structure of hierarchical communities and the process of influence
//! propagation" and that the compressed hierarchy computation "cannot be
//! updated efficiently". [`DynamicCod`] implements an incremental
//! mutation pipeline on top of that observation:
//!
//! * **mutations are O(1)** — edge edits land in a [`DeltaCsr`] overlay
//!   over the last materialized CSR, attribute edits in the attribute
//!   table; nothing is re-sorted or re-hashed per event;
//! * **invalidation is scoped** — each mutation carries a [`Footprint`]
//!   and only evicts the pooled RR graphs it can actually stale (an
//!   attribute edit leaves disjoint attributes' pools resident; an edge
//!   edit keeps restricted pools whose universe avoids both endpoints);
//! * **the hierarchy is repaired, not rebuilt** — on flush, linkage is
//!   re-run only along the leaf-to-root paths of touched nodes
//!   ([`repair_merges`]) and the HIMOR index is patched by
//!   redrawing only the RR samples whose node sets intersect the
//!   footprint ([`crate::himor::HimorPatchState::patch`]); a full rebuild happens only
//!   when the edit volume crosses `rebuild_threshold` or the node range
//!   grows;
//! * **replay is deterministic** — every applied mutation is appended to
//!   a [`MutationLog`]; the HIMOR seed is pinned at construction, so the
//!   repaired index is bit-identical to a from-scratch build of the
//!   mutated graph with the same seed, at any thread count.
//!
//! Every query flushes pending mutations first, so an answer depends only
//! on the seeds, the config and the mutation log — never on when the
//! flushes happened.

use cod_graph::{
    AttrId, AttrInterner, AttrTable, AttributedGraph, Csr, DeltaCsr, FxHashSet, NodeId,
};
use cod_hierarchy::{match_vertices, repair_merges, Dendrogram, LcaIndex, RepairOutcome};
use cod_influence::CancelToken;
use rand::prelude::*;

use crate::chain::{Chain, ComposedChain, DendroChain, SubgraphChain};
use crate::compressed::{compressed_cod, total_theta, EvalOptions, Samples};
use crate::engine::package;
use crate::error::{CodError, CodResult};
use crate::failpoint::{self, Site};
use crate::himor::HimorIndex;
use crate::lore::select_recluster_community;
use crate::mutation::{Footprint, Mutation, MutationKind, MutationLog};
use crate::pipeline::{AnswerSource, CodAnswer, CodConfig};
use crate::pool::{PoolCache, PoolCacheStats};
use crate::recluster::{build_hierarchy, local_recluster};
use crate::telemetry::{MetricsRegistry, MetricsSnapshot};

/// How a [`DynamicCod::flush`] brought the cached artifacts current.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Nothing was pending; the cache already reflected every mutation.
    Noop,
    /// Only the attribute table (or a net-zero edge churn) changed: the
    /// graph was rematerialized, the hierarchy and index were kept.
    Refreshed,
    /// The dendrogram was spliced locally and the HIMOR index patched.
    Repaired {
        /// Whether the localized splice survived verification (false
        /// means verification fell back to recomputed merges).
        spliced: bool,
        /// RR samples whose node sets touched the footprint and were
        /// redrawn on the new topology.
        samples_redrawn: u64,
        /// Total retained samples (`Θ`), the redraw denominator.
        samples_total: u64,
    },
    /// The hierarchy and index were rebuilt from scratch.
    Rebuilt,
}

/// Result of a [`DynamicCod::flush`]: what happened and how many pending
/// mutation events it absorbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationFlushReport {
    /// How the cached artifacts were brought current.
    pub outcome: FlushOutcome,
    /// Mutation events applied since the previous flush (or rebuild).
    pub events: usize,
}

/// The attribute list of every node of `g`.
fn node_attrs(g: &AttributedGraph) -> Vec<Vec<AttrId>> {
    (0..g.num_nodes() as NodeId)
        .map(|v| g.node_attrs(v).to_vec())
        .collect()
}

/// A COD engine over a mutable attributed graph.
pub struct DynamicCod {
    /// Current topology: the last materialized CSR plus a mutable overlay
    /// of inserted/removed edges (and overlay-grown nodes).
    topo: DeltaCsr,
    attrs: Vec<Vec<AttrId>>,
    interner: AttrInterner,
    cfg: CodConfig,
    /// Fraction of `|E|` worth of edits that triggers a full rebuild.
    rebuild_threshold: f64,
    cache: Cache,
    edits_since_build: usize,
    /// Nodes touched by edits since the last rebuild/repair.
    dirty: FxHashSet<NodeId>,
    /// Shared RR-pool cache for [`CodConfig::pool`] queries. Evicted per
    /// mutation through the event's [`Footprint`]: pools provably
    /// untouched by the mutation stay resident.
    pool: PoolCache,
    /// Pinned HIMOR seed: rebuilds and patches both derive per-sample RNGs
    /// from it, so a repaired index is bit-identical to a from-scratch
    /// build of the mutated graph.
    himor_seed: u64,
    /// Every applied mutation, in order — persistable via
    /// [`MutationLog::save`] and replayable with [`DynamicCod::apply`].
    log: MutationLog,
    metrics: MetricsRegistry,
    /// Run the splice-vs-recluster cross-check on every repair (default
    /// true; turn off to benchmark the splice alone).
    verify_repairs: bool,
    /// Events applied since the last flush (the next report's `events`).
    unflushed: usize,
}

struct Cache {
    graph: AttributedGraph,
    dendro: Dendrogram,
    lca: LcaIndex,
    index: HimorIndex,
    /// Retained build state that makes `index` patchable across a
    /// dendrogram repair (`None` for artifacts restored from a checkpoint,
    /// until the first topology flush rebuilds).
    patch: Option<crate::himor::HimorPatchState>,
    /// Graph edits newer than `graph` (CSR/attrs need refresh before
    /// queries).
    csr_stale: bool,
}

impl Cache {
    /// A from-scratch hierarchy and patchable index over `csr`, carrying
    /// the given attribute lists, from the pinned HIMOR `seed`.
    fn build(
        csr: Csr,
        attrs: &[Vec<AttrId>],
        interner: &AttrInterner,
        cfg: &CodConfig,
        seed: u64,
        cancel: Option<&CancelToken>,
    ) -> CodResult<Self> {
        let dendro = build_hierarchy(&csr, cfg.linkage);
        let lca = LcaIndex::new(&dendro);
        let (index, patch) = HimorIndex::build_patchable(
            &csr,
            cfg.model,
            &dendro,
            &lca,
            cfg.theta,
            seed,
            cfg.parallelism,
            cancel,
        )?;
        let graph = AttributedGraph::from_parts(
            csr,
            AttrTable::from_lists(attrs.to_vec()),
            interner.clone(),
        );
        Ok(Self {
            graph,
            dendro,
            lca,
            index,
            patch: Some(patch),
            csr_stale: false,
        })
    }
}

impl DynamicCod {
    /// Starts from an existing attributed graph, drawing the pinned HIMOR
    /// seed from `rng`.
    pub fn new<R: Rng>(g: &AttributedGraph, cfg: CodConfig, rng: &mut R) -> CodResult<Self> {
        Self::with_seed(g, cfg, rng.next_u64())
    }

    /// Starts from an existing attributed graph with an explicit HIMOR
    /// seed. Two instances built with the same seed and fed the same
    /// mutation log answer every query identically — regardless of how
    /// many repair/rebuild cycles each went through and at any thread
    /// count. Fails with [`CodError::InvalidQuery`] when `θ·|V|` overflows.
    pub fn with_seed(g: &AttributedGraph, cfg: CodConfig, seed: u64) -> CodResult<Self> {
        total_theta(cfg.theta, g.num_nodes())?;
        let attrs = node_attrs(g);
        let cache = Cache::build(g.csr().clone(), &attrs, g.interner(), &cfg, seed, None)?;
        Ok(Self::shell(g, attrs, cfg, seed, cache))
    }

    /// Rehydrates a dynamic engine from checkpointed artifacts (a CODX v3
    /// snapshot) without rebuilding anything — the recovery path.
    ///
    /// The artifacts are replayable because every rebuild derives from the
    /// pinned `himor_seed`. The restored cache carries no patch state — the
    /// first topology flush takes the rebuild branch, which the
    /// determinism contract proves bit-identical to a from-scratch build
    /// (see `tests/mutation.rs`).
    pub fn from_artifacts(
        g: &AttributedGraph,
        dendro: Dendrogram,
        index: HimorIndex,
        cfg: CodConfig,
        himor_seed: u64,
    ) -> CodResult<Self> {
        let n = g.num_nodes();
        total_theta(cfg.theta, n)?;
        if dendro.num_leaves() != n || index.num_nodes() != n {
            return Err(CodError::IndexCorrupt(format!(
                "artifact size mismatch: graph has {n} nodes, dendrogram {} leaves, index {}",
                dendro.num_leaves(),
                index.num_nodes()
            )));
        }
        let lca = LcaIndex::new(&dendro);
        let cache = Cache {
            graph: g.clone(),
            dendro,
            lca,
            index,
            patch: None,
            csr_stale: false,
        };
        Ok(Self::shell(g, node_attrs(g), cfg, himor_seed, cache))
    }

    /// Flushes pending mutations and returns the current artifacts
    /// `(graph, dendrogram, index)` — the inputs of
    /// [`crate::codx::serialize_artifacts`], used by checkpointing and the
    /// recovery bit-identity proofs.
    pub fn artifacts(&mut self) -> CodResult<(&AttributedGraph, &Dendrogram, &HimorIndex)> {
        self.flush()?;
        let c = &self.cache;
        Ok((&c.graph, &c.dendro, &c.index))
    }

    fn shell(
        g: &AttributedGraph,
        attrs: Vec<Vec<AttrId>>,
        cfg: CodConfig,
        himor_seed: u64,
        cache: Cache,
    ) -> Self {
        Self {
            topo: DeltaCsr::new(g.csr().clone()),
            attrs,
            interner: g.interner().clone(),
            cfg,
            rebuild_threshold: 0.02,
            cache,
            edits_since_build: 0,
            dirty: FxHashSet::default(),
            pool: PoolCache::new(cfg.pool_budget_bytes),
            himor_seed,
            log: MutationLog::new(),
            metrics: MetricsRegistry::default(),
            verify_repairs: true,
            unflushed: 0,
        }
    }

    /// Sets the edit fraction that forces a hierarchy + index rebuild
    /// instead of a localized repair (default 2% of `|E|`).
    pub fn set_rebuild_threshold(&mut self, fraction: f64) {
        self.rebuild_threshold = fraction.max(0.0);
    }

    /// Toggles the splice-vs-recluster verification cross-check run on
    /// every repair (on by default).
    pub fn set_repair_verification(&mut self, on: bool) {
        self.verify_repairs = on;
    }

    /// The pinned HIMOR seed.
    pub fn himor_seed(&self) -> u64 {
        self.himor_seed
    }

    /// Current number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// Current number of edges.
    pub fn num_edges(&self) -> usize {
        self.topo.num_edges()
    }

    /// Number of edits applied since the hierarchy was last rebuilt or
    /// repaired.
    pub fn pending_edits(&self) -> usize {
        self.edits_since_build
    }

    /// Every mutation applied so far, in order.
    pub fn mutation_log(&self) -> &MutationLog {
        &self.log
    }

    /// A point-in-time snapshot of the mutation/repair telemetry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Registry handle so the durability layer ([`crate::recovery`])
    /// records WAL/recovery counters into the same exposition.
    pub(crate) fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Applies a logged mutation. Returns whether it changed anything
    /// (duplicate edge inserts and absent-edge removals are no-ops).
    pub fn apply(&mut self, m: &Mutation) -> CodResult<bool> {
        match m {
            Mutation::InsertEdge { u, v } => Ok(self.insert_edge(*u, *v)),
            Mutation::RemoveEdge { u, v } => Ok(self.remove_edge(*u, *v)),
            Mutation::SetAttrs { node, attrs } => {
                self.set_attrs(*node, attrs.clone())?;
                Ok(true)
            }
        }
    }

    /// Inserts an undirected edge (growing the node range if needed).
    /// Returns false if it already existed.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.topo.insert(u, v) {
            return false;
        }
        let n = self.topo.num_nodes();
        if n > self.attrs.len() {
            self.attrs.resize(n, Vec::new());
        }
        self.record_edge_event(Mutation::InsertEdge { u, v });
        true
    }

    /// Removes an undirected edge. Returns false if absent.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.topo.remove(u, v) {
            return false;
        }
        self.record_edge_event(Mutation::RemoveEdge { u, v });
        true
    }

    /// Replaces the attribute set of a node. Errors with
    /// [`CodError::InvalidQuery`] if `v` is outside the node range.
    pub fn set_attrs(&mut self, v: NodeId, attrs: Vec<AttrId>) -> CodResult<()> {
        if (v as usize) >= self.num_nodes() {
            return Err(CodError::InvalidQuery(format!(
                "set_attrs target {v} out of range (graph has {} nodes)",
                self.num_nodes()
            )));
        }
        // The footprint covers old ∪ new attributes: pools keyed to either
        // side can see a different LORE choice / g_ℓ weighting, everything
        // else provably cannot.
        let mut fp = Footprint::new();
        fp.add_attr_event(
            v,
            self.attrs[v as usize]
                .iter()
                .copied()
                .chain(attrs.iter().copied()),
        );
        self.attrs[v as usize] = attrs.clone();
        // Attributes only affect LORE's choice and the g_ℓ weights — no
        // hierarchy invalidation needed, but the node's queries should not
        // take the index fast path blindly.
        self.dirty.insert(v);
        self.unflushed += 1;
        self.cache.csr_stale = true; // attribute table lives in the cached graph
        self.metrics.record_mutation(MutationKind::SetAttrs);
        self.log.push(Mutation::SetAttrs { node: v, attrs });
        self.evict_scoped(&fp);
        Ok(())
    }

    /// Interns an attribute name.
    pub fn intern_attr(&mut self, name: &str) -> AttrId {
        self.interner.intern(name)
    }

    fn record_edge_event(&mut self, m: Mutation) {
        let (u, v) = match m {
            Mutation::InsertEdge { u, v } | Mutation::RemoveEdge { u, v } => (u, v),
            Mutation::SetAttrs { .. } => unreachable!("attribute edits use set_attrs"),
        };
        let mut fp = Footprint::new();
        fp.add_edge_event(u, v);
        self.metrics.record_mutation(m.kind());
        self.log.push(m);
        self.edits_since_build += 1;
        self.unflushed += 1;
        self.dirty.insert(u);
        self.dirty.insert(v);
        self.cache.csr_stale = true;
        self.evict_scoped(&fp);
    }

    /// Drops exactly the pooled RR graphs the footprint can stale:
    /// topology events evict unrestricted pools plus restricted pools
    /// whose universe contains a touched endpoint; attribute events evict
    /// pools keyed to a touched attribute. Everything else keeps its
    /// samples (they were drawn on a subgraph the mutation cannot reach).
    fn evict_scoped(&self, fp: &Footprint) {
        let (pools, _bytes) = if fp.touches_topology() {
            self.pool.invalidate_scoped(|e| {
                !e.restricted()
                    || fp
                        .nodes()
                        .iter()
                        .any(|&v| e.universe().binary_search(&v).is_ok())
            })
        } else {
            self.pool
                .invalidate_scoped(|e| e.attr().is_some_and(|a| fp.touches_attr(a)))
        };
        self.metrics.record_pool_scoped_evictions(pools as u64);
    }

    /// Rematerializes the cached graph (CSR + attribute table) from the
    /// overlay without touching the hierarchy or index.
    fn refresh_graph(&mut self) {
        let csr = self.topo.materialize();
        let graph = AttributedGraph::from_parts(
            csr,
            AttrTable::from_lists(self.attrs.clone()),
            self.interner.clone(),
        );
        self.cache.graph = graph;
        self.cache.csr_stale = false;
    }

    /// Rebuild from the pinned seed, retaining the patch state so later
    /// mutations can repair instead of rebuilding.
    fn rebuild_governed(&mut self, cancel: Option<&CancelToken>) -> CodResult<()> {
        let csr = self.topo.materialize();
        self.cache = Cache::build(
            csr.clone(),
            &self.attrs,
            &self.interner,
            &self.cfg,
            self.himor_seed,
            cancel,
        )?;
        self.topo.rebase(csr);
        self.edits_since_build = 0;
        self.dirty.clear();
        Ok(())
    }

    /// Localized repair: splice the dendrogram along the touched
    /// leaf-to-root paths and patch the HIMOR index, committing only when
    /// both succeed (a cancelled repair leaves every artifact as it was).
    fn repair_governed(&mut self, cancel: Option<&CancelToken>) -> CodResult<FlushOutcome> {
        let new_csr = self.topo.materialize();
        let touched = self.topo.touched_nodes();
        failpoint::hit(Site::DendroRepair, cancel);
        if cancel.is_some_and(CancelToken::should_stop) {
            return Err(CodError::DeadlineExceeded);
        }
        let cache = &mut self.cache;
        let rr = repair_merges(
            &cache.dendro,
            &new_csr,
            &touched,
            self.cfg.linkage,
            self.verify_repairs,
        );
        let new_dendro = Dendrogram::from_merges(new_csr.num_nodes(), &rr.merges);
        let new_lca = LcaIndex::new(&new_dendro);
        let diff = match_vertices(&cache.dendro, &new_dendro);
        let Some(mut patch) = cache.patch.take() else {
            unreachable!("flush checked the patch state before choosing repair")
        };
        let patched = patch.patch(
            &new_csr,
            self.cfg.model,
            &cache.dendro,
            &cache.lca,
            &new_dendro,
            &new_lca,
            &diff,
            &touched,
            self.cfg.parallelism,
            cancel,
        );
        let Some((index, stats)) = patched else {
            // Commit-at-end: the cancelled patch left the state untouched.
            cache.patch = Some(patch);
            return Err(CodError::DeadlineExceeded);
        };
        let graph = AttributedGraph::from_parts(
            new_csr.clone(),
            AttrTable::from_lists(self.attrs.clone()),
            self.interner.clone(),
        );
        self.topo.rebase(new_csr);
        self.cache = Cache {
            graph,
            dendro: new_dendro,
            lca: new_lca,
            index,
            patch: Some(patch),
            csr_stale: false,
        };
        self.edits_since_build = 0;
        self.dirty.clear();
        Ok(FlushOutcome::Repaired {
            spliced: rr.outcome == RepairOutcome::Spliced,
            samples_redrawn: stats.samples_redrawn,
            samples_total: stats.samples_total,
        })
    }

    /// Forces an immediate hierarchy + index rebuild. Explicit rebuilds
    /// also start a fresh pooled generation (and bump the pool epoch)
    /// regardless of footprints.
    pub fn rebuild(&mut self) -> CodResult<()> {
        self.rebuild_governed(None)?;
        self.pool.invalidate();
        self.unflushed = 0;
        Ok(())
    }

    /// Brings every cached artifact current with the pending mutations,
    /// choosing between a localized repair and a full rebuild.
    pub fn flush(&mut self) -> CodResult<MutationFlushReport> {
        self.flush_governed(None)
    }

    /// [`DynamicCod::flush`] under cooperative governance: the repair,
    /// patch and rebuild stages poll `cancel`, and a fired token returns
    /// [`CodError::DeadlineExceeded`] with every artifact unchanged (the
    /// pending mutations stay queued for the next flush).
    pub fn flush_governed(
        &mut self,
        cancel: Option<&CancelToken>,
    ) -> CodResult<MutationFlushReport> {
        let events = self.unflushed;
        if !self.cache.csr_stale {
            self.unflushed = 0;
            return Ok(MutationFlushReport {
                outcome: FlushOutcome::Noop,
                events,
            });
        }
        if self.topo.is_clean() {
            // Attribute-only (or net-zero edge) churn: the hierarchy and
            // index are still exact, only the attribute table moved.
            self.refresh_graph();
            self.edits_since_build = 0;
            self.dirty.clear();
            self.unflushed = 0;
            return Ok(MutationFlushReport {
                outcome: FlushOutcome::Refreshed,
                events,
            });
        }
        let grew = self.topo.num_nodes() > self.cache.graph.num_nodes();
        let limit = (self.topo.num_edges() as f64 * self.rebuild_threshold) as usize;
        let repairable = self.cache.patch.is_some();
        let outcome = if grew || !repairable || self.edits_since_build > limit {
            self.rebuild_governed(cancel)?;
            self.metrics.record_full_rebuild();
            FlushOutcome::Rebuilt
        } else {
            let outcome = self.repair_governed(cancel)?;
            self.metrics.record_repair();
            outcome
        };
        self.unflushed = 0;
        Ok(MutationFlushReport { outcome, events })
    }

    /// Whether the next query for `q` may answer from the HIMOR fast path
    /// (false while `q` or the hierarchy is dirty).
    pub fn index_usable_for(&self, q: NodeId) -> bool {
        self.edits_since_build == 0 && !self.dirty.contains(&q)
    }

    /// Answers a COD query on the *current* graph. Pending mutations are
    /// flushed first (repairing or rebuilding as needed), so the answer is
    /// identical to a from-scratch instance of the mutated graph with the
    /// same seed. A compressed evaluation draws one master seed from `rng`
    /// (none when the index answers or [`CodConfig::pool`] is on).
    pub fn query<R: Rng>(
        &mut self,
        q: NodeId,
        attr: AttrId,
        rng: &mut R,
    ) -> CodResult<Option<CodAnswer>> {
        if (q as usize) >= self.num_nodes() {
            return Err(CodError::InvalidQuery(format!(
                "query node {q} out of range (graph has {} nodes)",
                self.num_nodes()
            )));
        }
        if (attr as usize) >= self.interner.len() {
            return Err(CodError::InvalidQuery(format!(
                "unknown attribute id {attr} ({} interned attributes)",
                self.interner.len()
            )));
        }
        if self.cfg.k == 0 {
            return Err(CodError::InvalidQuery(
                "top-k rank threshold k must be at least 1".into(),
            ));
        }
        self.flush()?;
        let use_index = self.index_usable_for(q);
        let c = &self.cache;
        let g = &c.graph;
        let choice = select_recluster_community(g, &c.dendro, &c.lca, q, attr);
        if use_index {
            let floor = choice.map(|x| x.vertex);
            if let Some(v) = c.index.largest_top_k(&c.dendro, q, floor, self.cfg.k) {
                let path = c.dendro.root_path(q);
                let Some(j) = path.iter().position(|&x| x == v) else {
                    unreachable!("largest_top_k only returns vertices on q's root path")
                };
                return Ok(Some(CodAnswer {
                    members: c.dendro.members_sorted(v),
                    rank: c.index.ranks_of(q)[j] as usize,
                    source: AnswerSource::Index,
                    uncertain: false,
                    cache: None,
                    degraded: None,
                    trace: None,
                }));
            }
        }
        match choice {
            None => {
                let chain = DendroChain::new(&c.dendro, &c.lca, q)?;
                self.answer_from_chain(g, &chain, q, attr, rng)
            }
            Some(choice) => {
                let members = c.dendro.members_sorted(choice.vertex);
                let (sub, sd) = local_recluster(g, &members, attr, self.cfg.beta, self.cfg.linkage);
                let slca = LcaIndex::new(&sd);
                let lower = SubgraphChain::new(&sub, &sd, &slca, q, true)?;
                let chain = ComposedChain::new(lower, &c.dendro, &c.lca, choice.vertex)?;
                self.answer_from_chain(g, &chain, q, attr, rng)
            }
        }
    }

    /// Compressed evaluation of `q` over `chain`, packaged as an answer:
    /// folded from the shared RR-pool cache when [`CodConfig::pool`] is
    /// on, drawn fresh from one master seed of `rng` otherwise. An empty
    /// chain answers `None` without drawing a seed or creating a pool.
    fn answer_from_chain<R: Rng>(
        &self,
        g: &AttributedGraph,
        chain: &impl Chain,
        q: NodeId,
        attr: AttrId,
        rng: &mut R,
    ) -> CodResult<Option<CodAnswer>> {
        if chain.is_empty() {
            return Ok(None);
        }
        let entry = self.cfg.pool.then(|| {
            let universe = chain.universe();
            let restricted = universe.len() < g.num_nodes();
            self.pool.get_or_create(Some(attr), &universe, restricted).0
        });
        let samples = match &entry {
            Some(entry) => Samples::Pool(entry),
            None => Samples::Seed(rng.next_u64()),
        };
        let opts = EvalOptions {
            budget: self.cfg.budget,
            par: self.cfg.parallelism,
            ..EvalOptions::default()
        };
        let out = compressed_cod(
            g.csr(),
            self.cfg.model,
            chain,
            q,
            self.cfg.k,
            self.cfg.theta,
            samples,
            opts,
        )?;
        Ok(package(chain, out, None))
    }

    /// Gauges of the shared RR-pool cache (pools resident, bytes, epoch).
    pub fn pool_stats(&self) -> PoolCacheStats {
        self.pool.stats()
    }

    /// The pool cache's invalidation epoch — bumped by every edge insert
    /// or removal, attribute edit and rebuild, so tests can assert that no
    /// mutation path forgets to revisit pooled samples (scoped eviction
    /// bumps the epoch even when every pool survives).
    pub fn pool_epoch(&self) -> u64 {
        self.pool.epoch()
    }

    /// The current graph (flushing pending edits first).
    pub fn graph(&mut self) -> CodResult<&AttributedGraph> {
        self.flush()?;
        Ok(&self.cache.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;
    use cod_influence::Model;

    fn star_graph() -> AttributedGraph {
        let mut b = GraphBuilder::new(8);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        b.add_edge(5, 6);
        b.add_edge(6, 7);
        let attrs = AttrTable::from_lists(vec![vec![0]; 8]);
        let mut interner = AttrInterner::new();
        interner.intern("A");
        AttributedGraph::from_parts(b.build(), attrs, interner)
    }

    fn cfg() -> CodConfig {
        CodConfig {
            k: 2,
            theta: 100,
            model: Model::WeightedCascade,
            ..CodConfig::default()
        }
    }

    #[test]
    fn behaves_like_codl_without_edits() {
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(61);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        assert!(dyn_cod.index_usable_for(0));
        let ans = dyn_cod
            .query(0, 0, &mut rng)
            .unwrap()
            .expect("hub answered");
        assert!(ans.members.contains(&0));
    }

    #[test]
    fn edits_disable_the_fast_path_until_rebuild() {
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(62);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        dyn_cod.set_rebuild_threshold(10.0); // avoid auto-rebuild
        assert!(dyn_cod.insert_edge(1, 2));
        assert!(!dyn_cod.index_usable_for(1));
        assert!(!dyn_cod.index_usable_for(4) || dyn_cod.pending_edits() == 0);
        let _ = dyn_cod.query(1, 0, &mut rng).unwrap();
        dyn_cod.rebuild().unwrap();
        assert!(dyn_cod.index_usable_for(1));
        assert_eq!(dyn_cod.pending_edits(), 0);
    }

    #[test]
    fn influence_sees_fresh_edges_immediately() {
        // Node 7 starts as a path tail; attaching five new leaves to it
        // makes it a hub whose RR counts must reflect the new star even
        // before any rebuild.
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(63);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        dyn_cod.set_rebuild_threshold(10.0);
        for v in 8..13 {
            assert!(dyn_cod.insert_edge(7, v));
        }
        let graph = dyn_cod.graph().unwrap();
        assert_eq!(graph.degree(7), 6);
        assert_eq!(graph.num_nodes(), 13);
    }

    #[test]
    fn duplicate_and_missing_edits_are_rejected() {
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(64);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        assert!(!dyn_cod.insert_edge(0, 1), "edge already present");
        assert!(!dyn_cod.insert_edge(3, 3), "self loop");
        assert!(!dyn_cod.remove_edge(0, 7), "edge absent");
        assert!(dyn_cod.remove_edge(1, 0), "reverse orientation works");
        assert_eq!(dyn_cod.num_edges(), 6);
    }

    #[test]
    fn threshold_triggers_automatic_rebuild() {
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(65);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        dyn_cod.set_rebuild_threshold(0.0); // every edit forces a rebuild
        dyn_cod.insert_edge(2, 3);
        // Next query flushes; with a zero threshold that is a full rebuild
        // and the fast path returns.
        let _ = dyn_cod.query(0, 0, &mut rng).unwrap();
        assert_eq!(dyn_cod.pending_edits(), 0);
        assert!(dyn_cod.index_usable_for(2));
        assert_eq!(dyn_cod.metrics_snapshot().full_rebuilds, 1);
    }

    #[test]
    fn attribute_edits_steer_lore() {
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(66);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        let b = dyn_cod.intern_attr("B");
        dyn_cod.set_attrs(6, vec![b]).unwrap();
        dyn_cod.set_attrs(7, vec![b]).unwrap();
        // Query on the new attribute works (and returns fresh attributes).
        let _ = dyn_cod.query(6, b, &mut rng).unwrap();
        let graph = dyn_cod.graph().unwrap();
        assert!(graph.has_attr(6, b));
    }

    #[test]
    fn set_attrs_out_of_range_is_a_typed_error() {
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(67);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        let err = dyn_cod.set_attrs(99, vec![0]).unwrap_err();
        assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
        assert_eq!(dyn_cod.mutation_log().len(), 0, "rejected edits unlogged");
    }

    #[test]
    fn mutation_log_and_metrics_track_applied_events_only() {
        // Duplicate edge inserts and absent removals must not be logged.
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(68);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        dyn_cod.set_rebuild_threshold(10.0);
        assert!(dyn_cod.insert_edge(1, 3));
        assert!(!dyn_cod.insert_edge(1, 3));
        assert!(dyn_cod.remove_edge(1, 3));
        assert!(!dyn_cod.remove_edge(1, 3));
        dyn_cod.set_attrs(2, vec![0]).unwrap();
        assert_eq!(dyn_cod.mutation_log().len(), 3);
        let snap = dyn_cod.metrics_snapshot();
        assert_eq!(snap.mutations_insert, 1);
        assert_eq!(snap.mutations_remove, 1);
        assert_eq!(snap.mutations_set_attrs, 1);
    }

    #[test]
    fn repair_flush_matches_a_from_scratch_instance() {
        let g = star_graph();
        let mut a = DynamicCod::with_seed(&g, cfg(), 4242).unwrap();
        a.set_rebuild_threshold(10.0); // keep the repair path in play
        assert!(a.insert_edge(1, 2));
        let report = a.flush().unwrap();
        assert!(
            matches!(report.outcome, FlushOutcome::Repaired { .. }),
            "{report:?}"
        );
        assert_eq!(report.events, 1);
        assert_eq!(a.metrics_snapshot().repairs, 1);

        // A from-scratch replica of the mutated graph with the same seed.
        let mut b = GraphBuilder::new(8);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        b.add_edge(5, 6);
        b.add_edge(6, 7);
        b.add_edge(1, 2);
        let attrs = AttrTable::from_lists(vec![vec![0]; 8]);
        let mut interner = AttrInterner::new();
        interner.intern("A");
        let g2 = AttributedGraph::from_parts(b.build(), attrs, interner);
        let mut fresh = DynamicCod::with_seed(&g2, cfg(), 4242).unwrap();

        for q in 0..8u32 {
            let mut r1 = SmallRng::seed_from_u64(100 + u64::from(q));
            let mut r2 = SmallRng::seed_from_u64(100 + u64::from(q));
            let x = a.query(q, 0, &mut r1).unwrap();
            let y = fresh.query(q, 0, &mut r2).unwrap();
            assert_eq!(
                x.map(|ans| (ans.members, ans.rank)),
                y.map(|ans| (ans.members, ans.rank)),
                "node {q}"
            );
        }
    }

    #[test]
    fn net_zero_churn_refreshes_without_repair() {
        let g = star_graph();
        let mut dyn_cod = DynamicCod::with_seed(&g, cfg(), 9).unwrap();
        dyn_cod.set_rebuild_threshold(10.0);
        assert!(dyn_cod.insert_edge(1, 2));
        assert!(dyn_cod.remove_edge(1, 2));
        let report = dyn_cod.flush().unwrap();
        assert_eq!(report.outcome, FlushOutcome::Refreshed);
        assert_eq!(report.events, 2);
        let snap = dyn_cod.metrics_snapshot();
        assert_eq!(snap.repairs, 0);
        assert_eq!(snap.full_rebuilds, 0);
    }
}
