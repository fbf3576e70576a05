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
//! * **the index is patched, not rebuilt** — a flush has one path: it
//!   reclusters the mutated graph exactly as a rebuild clusters it
//!   ([`build_hierarchy`]), [`match_vertices`] diffs the old and the new
//!   tree, and the HIMOR index is patched in place: only the RR samples
//!   that hold an edited node are redrawn, and those whose highest tag
//!   reaches a changed community are recorded anew from their retained
//!   draws ([`crate::himor::HimorPatchState::patch`]). The index is built from
//!   scratch instead only when the edit volume crosses
//!   `rebuild_threshold`, the node range grows, or no consistent patch
//!   state is at hand;
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
//! * **replay is deterministic** — the HIMOR seed is pinned at
//!   construction, so every repaired artifact, the dendrogram's merge
//!   order included, is bit-identical to a from-scratch build of the
//!   mutated graph with the same seed, at any thread count. The applied
//!   events are not kept here; [`crate::DurableCod`] records them in its
//!   write-ahead log.
//!
//! Every query flushes pending mutations first, so an answer depends only
//! on the seeds, the config and the applied events — never on when the
//! flushes happened.

use std::sync::Arc;
use std::time::Instant;

use cod_graph::{AttrId, AttrInterner, AttrTable, AttributedGraph, Csr, DeltaCsr, NodeId};
use cod_hierarchy::{match_vertices, Dendrogram, Hierarchy};
use rand::prelude::*;

use crate::compressed::total_theta;
use crate::engine::{CodEngine, Method, Query};
use crate::error::{CodError, CodResult};
use crate::himor::{HimorIndex, HimorPatchState};
use crate::mutation::{Footprint, Mutation, MutationKind};
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
    /// The mutated graph was reclustered and the HIMOR index patched.
    Repaired {
        /// RR samples that held an edited node and were redrawn on the
        /// new topology.
        samples_redrawn: u64,
        /// RR samples whose highest tag reached a changed community but
        /// that held no edited node: their retained draws were recorded
        /// anew under the repaired tree.
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

/// A COD engine over a mutable attributed graph.
///
/// Reads are [`CodEngine`] CODL queries over the flushed artifacts; see
/// [`DynamicCod::query`] for the RNG contract.
pub struct DynamicCod {
    /// Current topology: the last materialized CSR plus a mutable overlay
    /// of inserted/removed edges (and overlay-grown nodes).
    topo: DeltaCsr,
    attrs: Vec<Vec<AttrId>>,
    /// How many entries of `attrs` name each id, up to the largest id
    /// held. With the interned names it gives the attribute range
    /// [`DynamicCod::set_attrs`] accepts: the current graph's
    /// `num_attrs()`, whenever it was last flushed.
    holders: Vec<usize>,
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
    /// Events applied since the last flush (the next report's `events`).
    unflushed: usize,
}

/// The engine's hierarchy and index, kept for the next repair and for
/// checkpoints.
struct Cache {
    hier: Arc<Hierarchy>,
    index: Arc<HimorIndex>,
    /// Retained build state that makes `index` patchable across a
    /// recluster (`None` for artifacts restored from a checkpoint, until
    /// the first topology flush rebuilds).
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
    /// events answer every query identically — regardless of how
    /// many repair/rebuild cycles each went through and at any thread
    /// count. Fails with [`CodError::InvalidQuery`] when `θ·|V|` overflows.
    pub fn with_seed(g: &AttributedGraph, cfg: CodConfig, seed: u64) -> CodResult<Self> {
        total_theta(cfg.theta, g.num_nodes())?;
        let hier = Hierarchy::new(build_hierarchy(g.csr()));
        let (index, patch) = HimorIndex::build_patchable(
            g.csr(),
            cfg.model,
            &hier.dendro,
            &hier.lca,
            cfg.theta,
            seed,
            cfg.parallelism,
        )?;
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
        let attrs = node_attrs(&g);
        let mut holders = vec![0; g.attrs().max_attr_plus_one()];
        for &a in attrs.iter().flatten() {
            holders[a as usize] += 1;
        }
        Self {
            topo: DeltaCsr::new(g.csr().clone()),
            attrs,
            holders,
            interner: g.interner().clone(),
            rebuild_threshold: 0.02,
            engine: CodEngine::from_parts(g, cfg, cache.hier.clone(), cache.index.clone()),
            cache,
            edits_since_build: 0,
            himor_seed,
            unflushed: 0,
        }
    }

    /// Sets the edit fraction that forces a hierarchy + index rebuild
    /// instead of a repair (default 2% of `|E|`).
    pub fn set_rebuild_threshold(&mut self, fraction: f64) {
        self.rebuild_threshold = fraction.max(0.0);
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
            Mutation::InsertEdge { u, v } => self.insert_edge(*u, *v),
            Mutation::RemoveEdge { u, v } => Ok(self.remove_edge(*u, *v)),
            Mutation::SetAttrs { node, attrs } => {
                self.set_attrs(*node, attrs.clone())?;
                Ok(true)
            }
        }
    }

    /// Inserts an undirected edge. Returns `Ok(false)` if it already
    /// existed. An endpoint may name the next node id, `num_nodes()`, which
    /// grows the node range by one; a larger id is rejected with
    /// [`CodError::InvalidQuery`] before anything changes, so one event can
    /// never size the graph by an arbitrary id.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> CodResult<bool> {
        let n = self.num_nodes();
        if u.max(v) as usize > n {
            return Err(CodError::InvalidQuery(format!(
                "insert_edge endpoint {} out of range (graph has {n} nodes; \
                 an edge may add only node {n})",
                u.max(v)
            )));
        }
        if !self.topo.insert(u, v) {
            return Ok(false);
        }
        let n = self.topo.num_nodes();
        if n > self.attrs.len() {
            self.attrs.resize(n, Vec::new());
        }
        self.record_edge_event(MutationKind::InsertEdge, u, v);
        Ok(true)
    }

    /// Removes an undirected edge. Returns false if absent.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.topo.remove(u, v) {
            return false;
        }
        self.record_edge_event(MutationKind::RemoveEdge, u, v);
        true
    }

    /// Replaces the attribute set of a node. Errors with
    /// [`CodError::InvalidQuery`], before anything changes, if `v` is
    /// outside the node range or an attribute id is past the current
    /// attribute range: the interned names or one past the largest id a
    /// node holds now, whichever is larger. A new attribute comes from
    /// [`DynamicCod::intern_attr`], so one event can never size the
    /// per-attribute tables by an arbitrary id, and the range depends on
    /// the events alone, never on when a flush ran.
    pub fn set_attrs(&mut self, v: NodeId, attrs: Vec<AttrId>) -> CodResult<()> {
        if (v as usize) >= self.num_nodes() {
            return Err(CodError::InvalidQuery(format!(
                "set_attrs target {v} out of range (graph has {} nodes)",
                self.num_nodes()
            )));
        }
        let range = self.interner.len().max(self.holders.len());
        if let Some(&a) = attrs.iter().find(|&&a| a as usize >= range) {
            return Err(CodError::InvalidQuery(format!(
                "set_attrs attribute {a} out of range (graph has {range} attributes)"
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
        for &a in &self.attrs[v as usize] {
            self.holders[a as usize] -= 1;
        }
        for &a in &attrs {
            if a as usize >= self.holders.len() {
                self.holders.resize(a as usize + 1, 0);
            }
            self.holders[a as usize] += 1;
        }
        while self.holders.last() == Some(&0) {
            self.holders.pop();
        }
        self.attrs[v as usize] = attrs;
        self.unflushed += 1;
        self.cache.csr_stale = true; // attribute table lives in the served graph
        self.record(MutationKind::SetAttrs, &fp);
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

    fn record_edge_event(&mut self, kind: MutationKind, u: NodeId, v: NodeId) {
        let mut fp = Footprint::new();
        fp.add_edge_event(u, v);
        self.edits_since_build += 1;
        self.unflushed += 1;
        self.cache.csr_stale = true;
        self.record(kind, &fp);
    }

    /// Tallies an applied mutation and drops exactly the cached artifacts
    /// and pools its footprint can stale.
    fn record(&mut self, kind: MutationKind, fp: &Footprint) {
        self.engine.metrics_registry().record_mutation(kind);
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

    /// Reclusters the current topology and installs it with a HIMOR index
    /// for the new tree. With `may_patch` and a retained patch state, the
    /// state is patched ([`HimorPatchState::patch`]) and the registry
    /// receives the wall-clock time of the `repair` stage (recluster, tree
    /// and diff) and of the `himor_patch` stage. Otherwise, or when the
    /// patch finds its state out of sync (the torn state is dropped), a
    /// fresh patchable index is built from the pinned seed. Either way the
    /// artifacts equal a from-scratch build of the current graph.
    fn reindex(&mut self, may_patch: bool) -> CodResult<FlushOutcome> {
        let csr = self.topo.materialize();
        let cfg = *self.engine.config();
        let repair_start = Instant::now();
        let hier = Hierarchy::new(build_hierarchy(&csr));
        let patched = match self.cache.patch.take() {
            Some(mut state) if may_patch => {
                let old = &self.cache.hier;
                let diff = match_vertices(&old.dendro, &hier.dendro);
                let touched = self.topo.touched_nodes();
                let patch_start = Instant::now();
                state
                    .patch(
                        &csr,
                        cfg.model,
                        &old.dendro,
                        &hier.dendro,
                        &hier.lca,
                        &diff,
                        &touched,
                        cfg.parallelism,
                    )
                    .map(|(index, stats)| {
                        self.engine.metrics_registry().record_flush_phases(
                            (patch_start - repair_start).as_nanos() as u64,
                            patch_start.elapsed().as_nanos() as u64,
                        );
                        let outcome = FlushOutcome::Repaired {
                            samples_redrawn: stats.samples_redrawn,
                            samples_rerecorded: stats.samples_rerecorded,
                            samples_total: stats.samples_total,
                        };
                        (index, state, outcome)
                    })
            }
            _ => None,
        };
        let (index, state, outcome) = match patched {
            Some(patched) => patched,
            None => {
                let (index, state) = HimorIndex::build_patchable(
                    &csr,
                    cfg.model,
                    &hier.dendro,
                    &hier.lca,
                    cfg.theta,
                    self.himor_seed,
                    cfg.parallelism,
                )?;
                (index, state, FlushOutcome::Rebuilt)
            }
        };
        self.cache.hier = Arc::new(hier);
        self.cache.index = Arc::new(index);
        self.cache.patch = Some(state);
        self.install(csr);
        Ok(outcome)
    }

    /// Forces an immediate hierarchy + index rebuild. Explicit rebuilds
    /// also start a fresh cache generation — every recluster artifact and
    /// pool is dropped and the pool epoch bumps — regardless of
    /// footprints.
    pub fn rebuild(&mut self) -> CodResult<()> {
        self.reindex(false)?;
        self.engine.clear_cache();
        self.unflushed = 0;
        Ok(())
    }

    /// Brings every cached artifact current with the pending mutations.
    /// An edge change reclusters the mutated graph and patches the HIMOR
    /// index when a patch state exists, the node range did not grow and
    /// the edits since the last build stay within `rebuild_threshold`;
    /// otherwise it rebuilds the index from scratch.
    pub fn flush(&mut self) -> CodResult<MutationFlushReport> {
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
        let outcome = self.reindex(!grew && self.edits_since_build <= limit)?;
        let registry = self.engine.metrics_registry();
        match outcome {
            FlushOutcome::Repaired { .. } => registry.record_repair(),
            _ => registry.record_full_rebuild(),
        }
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
    /// [`CodConfig::deadline`] applies as for any engine query.
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

    /// Flushes pending mutations and hands over the engine that serves the
    /// flushed artifacts, with its registry (reads, mutations, repairs and
    /// any WAL and recovery counters) and its warm caches.
    pub fn into_engine(mut self) -> CodResult<CodEngine> {
        self.flush()?;
        Ok(self.engine)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::lore::select_recluster_community;
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
        assert!(dyn_cod.insert_edge(1, 2).unwrap());
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
            assert!(dyn_cod.insert_edge(7, v).unwrap());
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
        assert!(!dyn_cod.insert_edge(0, 1).unwrap(), "edge already present");
        assert!(!dyn_cod.insert_edge(3, 3).unwrap(), "self loop");
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
        dyn_cod.insert_edge(2, 3).unwrap();
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

    /// A `SetAttrs` that moves `q`'s LORE choice (dropping `A` from node 3
    /// moves node 1's `C_ℓ` from vertex 11 to vertex 9) reaches the next
    /// read: the engine's cached Δ table for `A` is rebuilt after the
    /// flush, and the answer equals a fresh engine's over the flushed
    /// artifacts.
    #[test]
    fn an_attribute_edit_that_moves_lore_reaches_the_next_read() {
        let g = star_graph();
        let mut d = DynamicCod::with_seed(&g, cfg(), 68).unwrap();
        let choice = |d: &DynamicCod| {
            let hier = &d.cache.hier;
            let cached = d.engine.lore_choice(hier, 1, 0);
            let scanned =
                select_recluster_community(d.engine.graph(), &hier.dendro, &hier.lca, 1, 0);
            assert_eq!(
                cached, scanned,
                "the cached table answers like an edge scan"
            );
            cached.map(|c| c.vertex)
        };
        let (ours, theirs) = with_fresh_engine(&mut d, 1, 0, 680);
        assert_eq!(ours, theirs);
        assert_eq!(choice(&d), Some(11));
        d.set_attrs(3, Vec::new()).unwrap();
        let (ours, theirs) = with_fresh_engine(&mut d, 1, 0, 681);
        assert_eq!(ours, theirs);
        assert_eq!(choice(&d), Some(9), "the edit moved C_ℓ");
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
        assert_eq!(g.num_attrs(), 1);
        // A node past the node range, then ids past the attribute range.
        for (node, attrs) in [(99, vec![0]), (3, vec![1]), (3, vec![0, u32::MAX - 1])] {
            let err = dyn_cod.set_attrs(node, attrs.clone()).unwrap_err();
            assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
            let err = dyn_cod
                .apply(&Mutation::SetAttrs { node, attrs })
                .unwrap_err();
            assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
        }
        let err = dyn_cod.set_attrs(3, vec![1]).unwrap_err();
        assert!(err.to_string().contains("graph has 1 attributes"), "{err}");
        assert_eq!(
            dyn_cod.metrics_snapshot().mutations_set_attrs,
            0,
            "rejected edits uncounted"
        );
        assert_eq!(dyn_cod.graph().unwrap().num_attrs(), 1);
        // The last id of the range is accepted, and an interned name widens
        // the range by one.
        dyn_cod.set_attrs(3, vec![0]).unwrap();
        let b = dyn_cod.intern_attr("B");
        assert_eq!(b, 1);
        dyn_cod.set_attrs(3, vec![0, b]).unwrap();
        assert!(dyn_cod.set_attrs(3, vec![2]).is_err());
        assert_eq!(dyn_cod.graph().unwrap().node_attrs(3), &[0, b]);
    }

    #[test]
    fn the_attribute_range_follows_events_not_flushes() {
        // Ids 0..=4 with no names; node 7 alone holds id 4.
        let mut lists: Vec<Vec<AttrId>> = (0..8).map(|v| vec![v % 4]).collect();
        lists[7] = vec![4];
        let g = AttributedGraph::from_parts(
            star_graph().csr().clone(),
            AttrTable::from_lists(lists),
            AttrInterner::new(),
        );
        assert_eq!(g.num_attrs(), 5);
        // Clearing the only holder of id 4 shrinks the range to 4 whether
        // or not a flush runs before the next event, and an instance
        // restarted from the flushed graph, as recovery restarts from a
        // checkpoint, agrees.
        for flush_between in [false, true] {
            let mut d = DynamicCod::with_seed(&g, cfg(), 5).unwrap();
            d.set_attrs(7, vec![]).unwrap();
            if flush_between {
                d.flush().unwrap();
            }
            let err = d.set_attrs(7, vec![4]).unwrap_err();
            assert!(err.to_string().contains("graph has 4 attributes"), "{err}");
            d.set_attrs(7, vec![3]).unwrap();
            let mut restarted = DynamicCod::with_seed(d.graph().unwrap(), cfg(), 5).unwrap();
            assert!(restarted.set_attrs(0, vec![4]).is_err());
            restarted.set_attrs(0, vec![3]).unwrap();
        }
    }

    #[test]
    fn an_insert_past_the_next_node_id_is_a_typed_error() {
        let g = star_graph();
        let mut dyn_cod = DynamicCod::with_seed(&g, cfg(), 69).unwrap();
        for (u, v) in [(0, 9), (u32::MAX - 1, 0), (9, 9)] {
            let err = dyn_cod.insert_edge(u, v).unwrap_err();
            assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
            assert!(err.to_string().contains("graph has 8 nodes"), "{err}");
            let err = dyn_cod.apply(&Mutation::InsertEdge { u, v }).unwrap_err();
            assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
        }
        assert_eq!(dyn_cod.num_nodes(), 8);
        assert_eq!(dyn_cod.pending_edits(), 0);
        assert_eq!(dyn_cod.metrics_snapshot().mutations_insert, 0);
        // Naming exactly the next id still grows the graph by one node.
        assert!(dyn_cod.insert_edge(3, 8).unwrap());
        assert!(dyn_cod.apply(&Mutation::InsertEdge { u: 9, v: 8 }).unwrap());
        assert_eq!(dyn_cod.num_nodes(), 10);
        assert_eq!(dyn_cod.graph().unwrap().degree(8), 2);
    }

    #[test]
    fn metrics_track_applied_events_only() {
        // Duplicate edge inserts and absent removals must not be counted.
        let g = star_graph();
        let mut rng = SmallRng::seed_from_u64(68);
        let mut dyn_cod = DynamicCod::new(&g, cfg(), &mut rng).unwrap();
        dyn_cod.set_rebuild_threshold(10.0);
        assert!(dyn_cod.insert_edge(1, 3).unwrap());
        assert!(!dyn_cod.insert_edge(1, 3).unwrap());
        assert!(dyn_cod.remove_edge(1, 3));
        assert!(!dyn_cod.remove_edge(1, 3));
        dyn_cod.set_attrs(2, vec![0]).unwrap();
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
        assert!(a.insert_edge(1, 2).unwrap());
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
        assert!(dyn_cod.insert_edge(1, 2).unwrap());
        assert!(dyn_cod.remove_edge(1, 2));
        let report = dyn_cod.flush().unwrap();
        assert_eq!(report.outcome, FlushOutcome::Refreshed);
        assert_eq!(report.events, 2);
        let snap = dyn_cod.metrics_snapshot();
        assert_eq!(snap.repairs, 0);
        assert_eq!(snap.full_rebuilds, 0);
    }
}
