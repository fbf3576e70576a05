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
//! * **the hierarchy is repaired, not rebuilt** — on flush, linkage is
//!   re-run only along the leaf-to-root paths of touched nodes
//!   ([`repair_merges`]) and the HIMOR index is patched: only the RR
//!   samples that hold an edited node are redrawn, and those that reach
//!   only the disturbed region are recorded anew from their retained draws
//!   ([`crate::himor::HimorPatchState::patch`]); a full rebuild happens
//!   only when the edit volume crosses `rebuild_threshold` or the node
//!   range grows;
//! * **reads go through [`CodEngine`]** — the flushed graph, hierarchy
//!   and index are swapped into one engine in place, and every query is
//!   its CODL query (Algorithm 3): an index hit answers from the index;
//!   on a miss, compressed evaluation runs only on the reclustered
//!   hierarchy inside the LORE community `C_ℓ` (the index has ruled out
//!   its ancestors), and no LORE choice answers `None`;
//! * **invalidation is scoped** — each mutation carries a [`Footprint`]
//!   and [`CodEngine::invalidate_scoped`] drops only what it can stale:
//!   an attribute edit drops the recluster artifacts and pools keyed to a
//!   touched attribute; an edge edit drops every recluster artifact (they
//!   are keyed by hierarchy vertex) and the `C_ℓ`-scoped pools whose
//!   universe holds an endpoint. Everything else stays warm across
//!   flushes;
//! * **replay is deterministic** — every applied mutation is appended to
//!   a [`MutationLog`]; the HIMOR seed is pinned at construction, so the
//!   repaired index is bit-identical to a from-scratch build of the
//!   mutated graph with the same seed, at any thread count.
//!
//! Every query flushes pending mutations first, so an answer depends only
//! on the seeds, the config and the mutation log — never on when the
//! flushes happened.

use std::sync::Arc;
use std::time::Instant;

use cod_graph::{AttrId, AttrInterner, AttrTable, AttributedGraph, Csr, DeltaCsr, NodeId};
use cod_hierarchy::{match_vertices, repair_merges, Dendrogram, Hierarchy, RepairOutcome};
use cod_influence::CancelToken;
use rand::prelude::*;

use crate::compressed::total_theta;
use crate::engine::{CodEngine, Method, Query};
use crate::error::{CodError, CodResult};
use crate::failpoint::{self, Site};
use crate::himor::{HimorIndex, HimorPatchState};
use crate::mutation::{Footprint, Mutation, MutationLog};
use crate::pipeline::{CodAnswer, CodConfig};
use crate::pool::PoolCacheStats;
use crate::recluster::build_hierarchy;
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
        /// RR samples that held an edited node and were redrawn on the
        /// new topology.
        samples_redrawn: u64,
        /// RR samples that held a disturbed leaf but no edited node: their
        /// retained draws were recorded anew under the repaired tree.
        samples_rerecorded: u64,
        /// Total retained samples (`Θ`), the denominator of both counts.
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

/// A from-scratch hierarchy and patchable index over `csr`, from the
/// pinned HIMOR `seed`.
fn build_artifacts(
    csr: &Csr,
    cfg: &CodConfig,
    seed: u64,
    cancel: Option<&CancelToken>,
) -> CodResult<(Hierarchy, HimorIndex, HimorPatchState)> {
    let hier = Hierarchy::new(build_hierarchy(csr, cfg.linkage));
    let (index, patch) = HimorIndex::build_patchable(
        csr,
        cfg.model,
        &hier.dendro,
        &hier.lca,
        cfg.theta,
        seed,
        cfg.parallelism,
        cancel,
    )?;
    Ok((hier, index, patch))
}

/// A COD engine over a mutable attributed graph.
///
/// Reads are [`CodEngine`] CODL queries over the flushed artifacts; see
/// [`DynamicCod::query`] for the RNG contract.
pub struct DynamicCod {
    /// Current topology: the last materialized CSR plus a mutable overlay
    /// of inserted/removed edges (and overlay-grown nodes).
    topo: DeltaCsr,
    attrs: Vec<Vec<AttrId>>,
    interner: AttrInterner,
    /// Fraction of `|E|` worth of edits that triggers a full rebuild.
    rebuild_threshold: f64,
    /// The CODL engine over the flushed graph, hierarchy and index. It
    /// answers every query, keeps its recluster cache and RR pools warm
    /// across flushes (minus what each mutation's footprint drops), and
    /// holds the one metrics registry reads, mutations, repairs and the
    /// WAL record into.
    engine: CodEngine,
    cache: Cache,
    edits_since_build: usize,
    /// Pinned HIMOR seed: rebuilds and patches both derive per-sample RNGs
    /// from it, so a repaired index is bit-identical to a from-scratch
    /// build of the mutated graph.
    himor_seed: u64,
    /// Every applied mutation, in order — persistable via
    /// [`MutationLog::save`] and replayable with [`DynamicCod::apply`].
    log: MutationLog,
    /// Run the splice-vs-recluster cross-check on every repair (default
    /// true; see [`DynamicCod::set_repair_verification`]).
    verify_repairs: bool,
    /// Events applied since the last flush (the next report's `events`).
    unflushed: usize,
}

/// The engine's hierarchy and index, kept for the next repair and for
/// checkpoints.
struct Cache {
    hier: Arc<Hierarchy>,
    index: Arc<HimorIndex>,
    /// Retained build state that makes `index` patchable across a
    /// dendrogram repair (`None` for artifacts restored from a checkpoint,
    /// until the first topology flush rebuilds).
    patch: Option<HimorPatchState>,
    /// Graph edits (or interned names) newer than the engine's graph: the
    /// next query flushes first.
    csr_stale: bool,
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
        let (hier, index, patch) = build_artifacts(g.csr(), &cfg, seed, None)?;
        let cache = Cache {
            hier: Arc::new(hier),
            index: Arc::new(index),
            patch: Some(patch),
            csr_stale: false,
        };
        Ok(Self::shell(Arc::new(g.clone()), cfg, seed, cache))
    }

    /// Rehydrates a dynamic engine from checkpointed artifacts (a CODX v3
    /// snapshot) without rebuilding or copying anything — the recovery
    /// path shares the snapshot's graph, hierarchy and index.
    ///
    /// The artifacts are replayable because every rebuild derives from the
    /// pinned `himor_seed`. The restored cache carries no patch state — the
    /// first topology flush takes the rebuild branch, which the
    /// determinism contract proves bit-identical to a from-scratch build
    /// (see `tests/mutation.rs`).
    pub fn from_artifacts(
        g: Arc<AttributedGraph>,
        hier: Arc<Hierarchy>,
        index: Arc<HimorIndex>,
        cfg: CodConfig,
        himor_seed: u64,
    ) -> CodResult<Self> {
        let n = g.num_nodes();
        total_theta(cfg.theta, n)?;
        if hier.dendro.num_leaves() != n || index.num_nodes() != n {
            return Err(CodError::IndexCorrupt(format!(
                "artifact size mismatch: graph has {n} nodes, dendrogram {} leaves, index {}",
                hier.dendro.num_leaves(),
                index.num_nodes()
            )));
        }
        let cache = Cache {
            hier,
            index,
            patch: None,
            csr_stale: false,
        };
        Ok(Self::shell(g, cfg, himor_seed, cache))
    }

    /// Flushes pending mutations and returns the current artifacts
    /// `(graph, dendrogram, index)` — the inputs of
    /// [`crate::codx::serialize_artifacts`], used by checkpointing and the
    /// recovery bit-identity proofs.
    pub fn artifacts(&mut self) -> CodResult<(&AttributedGraph, &Dendrogram, &HimorIndex)> {
        self.flush()?;
        let c = &self.cache;
        Ok((self.engine.graph(), &c.hier.dendro, &c.index))
    }

    fn shell(g: Arc<AttributedGraph>, cfg: CodConfig, himor_seed: u64, cache: Cache) -> Self {
        Self {
            topo: DeltaCsr::new(g.csr().clone()),
            attrs: node_attrs(&g),
            interner: g.interner().clone(),
            rebuild_threshold: 0.02,
            engine: CodEngine::from_parts(g, cfg, cache.hier.clone(), cache.index.clone()),
            cache,
            edits_since_build: 0,
            himor_seed,
            log: MutationLog::new(),
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
    ///
    /// With it on, a repaired hierarchy has exactly the community families
    /// a rebuild would have, so every flushed artifact equals a
    /// from-scratch build of the mutated graph. With it off the splice
    /// stands unchecked and can keep families a rebuild would not: the
    /// flush is cheaper, but answers can drift from a rebuild's, and a
    /// reopened [`crate::DurableCod`], whose recovery rebuilds, can differ
    /// from the live instance.
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

    /// A point-in-time snapshot of the one registry: reads, mutations,
    /// repairs, scoped evictions and (under [`crate::DurableCod`]) WAL and
    /// recovery counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.engine.metrics()
    }

    /// Registry handle so the durability layer ([`crate::recovery`])
    /// records WAL/recovery counters into the same exposition.
    pub(crate) fn metrics_registry(&self) -> &MetricsRegistry {
        self.engine.metrics_registry()
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
        // The footprint covers old ∪ new attributes: artifacts and pools
        // keyed to either side can see a different LORE choice / g_ℓ
        // weighting, everything else provably cannot.
        let mut fp = Footprint::new();
        fp.add_attr_event(
            v,
            self.attrs[v as usize]
                .iter()
                .copied()
                .chain(attrs.iter().copied()),
        );
        self.attrs[v as usize] = attrs.clone();
        self.unflushed += 1;
        self.cache.csr_stale = true; // attribute table lives in the served graph
        self.record(Mutation::SetAttrs { node: v, attrs }, &fp);
        Ok(())
    }

    /// Interns an attribute name. A new name is queryable at once: the
    /// next query flushes it into the served graph.
    pub fn intern_attr(&mut self, name: &str) -> AttrId {
        let known = self.interner.len();
        let id = self.interner.intern(name);
        if self.interner.len() > known {
            self.cache.csr_stale = true;
        }
        id
    }

    fn record_edge_event(&mut self, m: Mutation) {
        let (u, v) = match m {
            Mutation::InsertEdge { u, v } | Mutation::RemoveEdge { u, v } => (u, v),
            Mutation::SetAttrs { .. } => unreachable!("attribute edits use set_attrs"),
        };
        let mut fp = Footprint::new();
        fp.add_edge_event(u, v);
        self.edits_since_build += 1;
        self.unflushed += 1;
        self.cache.csr_stale = true;
        self.record(m, &fp);
    }

    /// Tallies and logs an applied mutation, and drops exactly the cached
    /// artifacts and pools its footprint can stale.
    fn record(&mut self, m: Mutation, fp: &Footprint) {
        self.engine.metrics_registry().record_mutation(m.kind());
        self.log.push(m);
        self.engine.invalidate_scoped(fp);
    }

    /// `csr` with the current attribute table, as the graph to serve.
    fn attributed(&self, csr: Csr) -> Arc<AttributedGraph> {
        Arc::new(AttributedGraph::from_parts(
            csr,
            AttrTable::from_lists(self.attrs.clone()),
            self.interner.clone(),
        ))
    }

    /// Serves `csr` over the cache's hierarchy and index, and rebases the
    /// overlay on it.
    fn install(&mut self, csr: Csr) {
        let graph = self.attributed(csr.clone());
        self.topo.rebase(csr);
        let c = &mut self.cache;
        c.csr_stale = false;
        self.engine.rebase(graph, c.hier.clone(), c.index.clone());
        self.edits_since_build = 0;
    }

    /// Rebuild from the pinned seed, retaining the patch state so later
    /// mutations can repair instead of rebuilding.
    fn rebuild_governed(&mut self, cancel: Option<&CancelToken>) -> CodResult<()> {
        let csr = self.topo.materialize();
        let (hier, index, patch) =
            build_artifacts(&csr, self.engine.config(), self.himor_seed, cancel)?;
        self.cache.hier = Arc::new(hier);
        self.cache.index = Arc::new(index);
        self.cache.patch = Some(patch);
        self.install(csr);
        Ok(())
    }

    /// Localized repair: splice the dendrogram along the touched
    /// leaf-to-root paths and patch the HIMOR index, committing only when
    /// both succeed (a cancelled repair leaves every artifact as it was).
    /// The registry receives the wall-clock time of the `repair` stage
    /// (splice, verification, tree and diff) and of the `himor_patch`
    /// stage of every repair that commits.
    fn repair_governed(&mut self, cancel: Option<&CancelToken>) -> CodResult<FlushOutcome> {
        let new_csr = self.topo.materialize();
        let touched = self.topo.touched_nodes();
        failpoint::hit(Site::DendroRepair, cancel);
        if cancel.is_some_and(CancelToken::should_stop) {
            return Err(CodError::DeadlineExceeded);
        }
        let repair_start = Instant::now();
        let cfg = *self.engine.config();
        let cache = &mut self.cache;
        let old = &cache.hier;
        let rr = repair_merges(
            &old.dendro,
            &new_csr,
            &touched,
            cfg.linkage,
            self.verify_repairs,
        );
        let new = Hierarchy::new(Dendrogram::from_merges(new_csr.num_nodes(), &rr.merges));
        let diff = match_vertices(&old.dendro, &new.dendro);
        let Some(mut patch) = cache.patch.take() else {
            unreachable!("flush checked the patch state before choosing repair")
        };
        let patch_start = Instant::now();
        let patched = patch.patch(
            &new_csr,
            cfg.model,
            &old.dendro,
            &old.lca,
            &new.dendro,
            &new.lca,
            &diff,
            &touched,
            cfg.parallelism,
            cancel,
        );
        let Some((index, stats)) = patched else {
            // Commit-at-end: the cancelled patch left the state untouched.
            cache.patch = Some(patch);
            return Err(CodError::DeadlineExceeded);
        };
        let patch_end = Instant::now();
        cache.hier = Arc::new(new);
        cache.index = Arc::new(index);
        cache.patch = Some(patch);
        self.install(new_csr);
        self.engine.metrics_registry().record_flush_phases(
            (patch_start - repair_start).as_nanos() as u64,
            (patch_end - patch_start).as_nanos() as u64,
        );
        Ok(FlushOutcome::Repaired {
            spliced: rr.outcome == RepairOutcome::Spliced,
            samples_redrawn: stats.samples_redrawn,
            samples_rerecorded: stats.samples_rerecorded,
            samples_total: stats.samples_total,
        })
    }

    /// Forces an immediate hierarchy + index rebuild. Explicit rebuilds
    /// also start a fresh cache generation — every recluster artifact and
    /// pool is dropped and the pool epoch bumps — regardless of
    /// footprints.
    pub fn rebuild(&mut self) -> CodResult<()> {
        self.rebuild_governed(None)?;
        self.engine.clear_cache();
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
            self.install(self.topo.materialize());
            self.unflushed = 0;
            return Ok(MutationFlushReport {
                outcome: FlushOutcome::Refreshed,
                events,
            });
        }
        let grew = self.topo.num_nodes() > self.engine.graph().num_nodes();
        let limit = (self.topo.num_edges() as f64 * self.rebuild_threshold) as usize;
        let repairable = self.cache.patch.is_some();
        let outcome = if grew || !repairable || self.edits_since_build > limit {
            self.rebuild_governed(cancel)?;
            self.engine.metrics_registry().record_full_rebuild();
            FlushOutcome::Rebuilt
        } else {
            let outcome = self.repair_governed(cancel)?;
            self.engine.metrics_registry().record_repair();
            outcome
        };
        self.unflushed = 0;
        Ok(MutationFlushReport { outcome, events })
    }

    /// Answers a CODL query on the *current* graph: pending mutations are
    /// flushed first (repairing or rebuilding as needed), then the query
    /// is the engine's `Query::new(q, attr, Method::Codl)` over the
    /// flushed artifacts, so the answer is identical to a fresh
    /// [`CodEngine::from_parts`] over [`DynamicCod::artifacts`] with the
    /// same RNG. That is Algorithm 3: an index hit answers from the index;
    /// on a miss, compressed evaluation runs on the reclustered hierarchy
    /// inside the LORE community `C_ℓ`, its root excluded, and no LORE
    /// choice answers `None`. A compressed evaluation draws one master
    /// seed from `rng`, pooled or not; index hits and `None` draw nothing.
    /// [`CodConfig::limits`] apply as for any engine query.
    pub fn query<R: Rng>(
        &mut self,
        q: NodeId,
        attr: AttrId,
        rng: &mut R,
    ) -> CodResult<Option<CodAnswer>> {
        self.flush()?;
        self.engine.query(Query::new(q, attr, Method::Codl), rng)
    }

    /// Gauges of the engine's RR-pool cache (pools resident, bytes, epoch).
    pub fn pool_stats(&self) -> PoolCacheStats {
        self.engine.pool_stats()
    }

    /// The pool cache's invalidation epoch — bumped by every edge insert
    /// or removal, attribute edit and rebuild, so tests can assert that no
    /// mutation path forgets to revisit pooled samples (scoped eviction
    /// bumps the epoch even when every pool survives).
    pub fn pool_epoch(&self) -> u64 {
        self.engine.pool_epoch()
    }

    /// The current graph (flushing pending edits first).
    pub fn graph(&mut self) -> CodResult<&AttributedGraph> {
        self.flush()?;
        Ok(self.engine.graph())
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

    /// `d`'s answer and a fresh engine's CODL answer over `d`'s flushed
    /// artifacts, each from an RNG seeded with `seed`.
    fn with_fresh_engine(
        d: &mut DynamicCod,
        q: NodeId,
        attr: AttrId,
        seed: u64,
    ) -> (Option<CodAnswer>, Option<CodAnswer>) {
        let ours = d
            .query(q, attr, &mut SmallRng::seed_from_u64(seed))
            .unwrap();
        let fresh = CodEngine::from_parts(
            Arc::new(d.engine.graph().clone()),
            *d.engine.config(),
            d.cache.hier.clone(),
            d.cache.index.clone(),
        );
        let theirs = fresh
            .query(
                Query::new(q, attr, Method::Codl),
                &mut SmallRng::seed_from_u64(seed),
            )
            .unwrap();
        (ours, theirs)
    }

    #[test]
    fn behaves_like_codl_without_edits() {
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(61);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        for q in 0..8 {
            let (ours, theirs) = with_fresh_engine(&mut dyn_cod, q, 0, 610 + u64::from(q));
            assert_eq!(ours, theirs, "node {q}");
        }
        let ans = dyn_cod
            .query(0, 0, &mut rng)
            .unwrap()
            .expect("hub answered");
        assert!(ans.members.contains(&0));
    }

    #[test]
    fn queries_flush_pending_edits_and_answer_like_the_engine() {
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(62);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        dyn_cod.set_rebuild_threshold(10.0); // avoid auto-rebuild
        assert!(dyn_cod.insert_edge(1, 2));
        assert_eq!(dyn_cod.pending_edits(), 1);
        let (ours, theirs) = with_fresh_engine(&mut dyn_cod, 1, 0, 620);
        assert_eq!(dyn_cod.pending_edits(), 0, "the query repaired first");
        assert_eq!(ours, theirs);
        dyn_cod.rebuild().unwrap();
        assert_eq!(dyn_cod.pending_edits(), 0);
        let (ours, theirs) = with_fresh_engine(&mut dyn_cod, 1, 0, 621);
        assert_eq!(ours, theirs);
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
        let (ours, theirs) = with_fresh_engine(&mut dyn_cod, 2, 0, 650);
        assert_eq!(dyn_cod.pending_edits(), 0);
        assert_eq!(ours, theirs);
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
    fn a_freshly_interned_attribute_is_queryable_before_any_edit() {
        let g = star_graph();
        let mut dyn_cod = DynamicCod::with_seed(&g, cfg(), 66).unwrap();
        let c = dyn_cod.intern_attr("C");
        assert_eq!(dyn_cod.intern_attr("C"), c, "interning is idempotent");
        dyn_cod
            .query(3, c, &mut SmallRng::seed_from_u64(1))
            .unwrap();
        assert_eq!(dyn_cod.graph().unwrap().interner().get("C"), Some(c));
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
