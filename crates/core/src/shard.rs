//! Multi-shard query serving: one [`CodEngine`] per connected-component
//! shard over a single set of shared (possibly memory-mapped) artifacts.
//!
//! The shard map comes from [`cod_graph::partition::partition_components`]:
//! connected components are packed onto `num_shards` shards by
//! longest-processing-time scheduling, so every component — and therefore
//! every community a query can ever return — lives wholly inside one
//! shard. Routing is by the seed node's shard; a batch is scattered into
//! per-shard sub-batches, evaluated concurrently, and gathered back into
//! the caller's order.
//!
//! # Determinism contract
//!
//! A sharded batch answers **bit-identically** to the same batch on a
//! single engine over the same artifacts, for every shard count and every
//! thread count. The mechanism is positional seed derivation
//! ([`CodEngine::query_batch_seeded`]): the batch draws *one* master
//! `u64` from the caller's RNG, expands it into a
//! [`SeedSequence`], and query `i` — by its position in the caller's
//! batch, not its position in any shard's sub-batch — evaluates on
//! `seq.seed_for(i + 1)`. Each evaluation is a pure function of its
//! master seed, so neither the scatter split nor the gather interleaving
//! can shift an answer. Artifacts are prebuilt and shared behind `Arc`,
//! so no shard ever consumes build RNG mid-batch.
//!
//! Caches stay **per-shard** (recluster cache, RR-pool cache, scratch
//! pool): a shard only ever sees queries whose artifacts live in its
//! components, so there is no cross-shard cache churn — and cache state
//! never affects answers, only speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cod_graph::partition::{partition_components, Partition};
use cod_graph::{AttributedGraph, NodeId};
use cod_hierarchy::Hierarchy;
use cod_influence::{par_ranges, SeedSequence};
use rand::prelude::*;

use crate::codx::MappedArtifacts;
use crate::engine::{CodEngine, Query};
use crate::error::CodResult;
use crate::failpoint;
use crate::himor::HimorIndex;
use crate::pipeline::{CodAnswer, CodConfig, QueryLimits};
use crate::telemetry::MetricsSnapshot;

/// A fleet of per-shard [`CodEngine`]s behind one batch API.
///
/// See the module docs for the routing and determinism contract. The
/// public surface mirrors [`CodEngine`] closely enough that the serve
/// tier can front either interchangeably.
pub struct ShardedEngine {
    engines: Vec<CodEngine>,
    partition: Partition,
    g: Arc<AttributedGraph>,
    /// Queries routed to each shard (exported as
    /// `cod_shard_queries_total{shard="i"}`).
    shard_queries: Vec<AtomicU64>,
    /// Batch calls served (`cod_shard_batches_total`).
    batches: AtomicU64,
    /// Batch calls whose scatter touched more than one shard
    /// (`cod_shard_fanout_total`).
    fanouts: AtomicU64,
}

impl ShardedEngine {
    /// A sharded engine over shared prebuilt artifacts. `num_shards` is
    /// clamped to at least 1; shards beyond the component count stay
    /// empty (and idle).
    pub fn from_shared_parts(
        g: Arc<AttributedGraph>,
        cfg: CodConfig,
        base: Arc<Hierarchy>,
        index: Arc<HimorIndex>,
        num_shards: usize,
    ) -> Self {
        let partition = partition_components(g.csr(), num_shards.max(1));
        let engines: Vec<CodEngine> = (0..partition.num_shards())
            .map(|_| {
                CodEngine::from_shared_parts(
                    Arc::clone(&g),
                    cfg,
                    Arc::clone(&base),
                    Arc::clone(&index),
                )
            })
            .collect();
        let shard_queries = (0..engines.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            engines,
            partition,
            g,
            shard_queries,
            batches: AtomicU64::new(0),
            fanouts: AtomicU64::new(0),
        }
    }

    /// A sharded engine over the artifacts persisted in a CODX v3 file:
    /// every shard serves zero-copy views of the same mapping.
    pub fn from_mapped(
        arts: &MappedArtifacts,
        cfg: CodConfig,
        num_shards: usize,
    ) -> CodResult<Self> {
        let g = arts.graph()?;
        let base = arts.hierarchy()?;
        let index = arts.himor()?;
        Ok(Self::from_shared_parts(g, cfg, base, index, num_shards))
    }

    /// A sharded engine that builds the base hierarchy and HIMOR index
    /// eagerly (consuming `rng` exactly as [`CodEngine::ensure_himor`]
    /// would) and shares them across shards. Fails with
    /// [`crate::CodError::InvalidQuery`] when `θ·|V|` overflows `usize`.
    pub fn build<R: Rng>(
        g: Arc<AttributedGraph>,
        cfg: CodConfig,
        num_shards: usize,
        rng: &mut R,
    ) -> CodResult<Self> {
        let builder = CodEngine::from_shared(Arc::clone(&g), cfg);
        let base = builder.base_hierarchy();
        let index = builder.ensure_himor_governed(rng, None)?;
        Ok(Self::from_shared_parts(g, cfg, base, index, num_shards))
    }

    /// The graph being served.
    pub fn graph(&self) -> &AttributedGraph {
        &self.g
    }

    /// The shared configuration.
    pub fn config(&self) -> &CodConfig {
        self.engines[0].config()
    }

    /// The number of shards (≥ 1; trailing shards may be empty).
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// The component partition backing the routing table.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The shard serving `v`, or `None` when `v` is out of range.
    pub fn shard_of(&self, v: NodeId) -> Option<u32> {
        self.partition.shard_of_checked(v)
    }

    /// The per-shard engine (tests and diagnostics).
    pub fn shard_engine(&self, s: usize) -> &CodEngine {
        &self.engines[s]
    }

    /// Routes one query to its shard. Equivalent to a batch of one.
    pub fn query<R: Rng>(&self, query: Query, rng: &mut R) -> CodResult<Option<CodAnswer>> {
        let limits = self.config().limits;
        self.query_with_limits(query, &limits, rng)
    }

    /// [`ShardedEngine::query`] under per-request limits.
    pub fn query_with_limits<R: Rng>(
        &self,
        query: Query,
        limits: &QueryLimits,
        rng: &mut R,
    ) -> CodResult<Option<CodAnswer>> {
        match self
            .query_batch_with_limits(std::slice::from_ref(&query), limits, rng)
            .pop()
        {
            Some(result) => result,
            None => unreachable!("a batch of one yields one result"),
        }
    }

    /// Scatter-gather batch evaluation under the configured limits.
    pub fn query_batch<R: Rng>(
        &self,
        queries: &[Query],
        rng: &mut R,
    ) -> Vec<CodResult<Option<CodAnswer>>> {
        let limits = self.config().limits;
        self.query_batch_with_limits(queries, &limits, rng)
    }

    /// Scatter-gather batch evaluation: draws one master `u64` from
    /// `rng`, derives per-query seeds by the caller's batch position,
    /// scatters per-shard sub-batches (evaluated concurrently under the
    /// configured parallelism), and gathers results back into batch
    /// order. Admission control is **per shard**: an overloaded shard
    /// sheds only the queries routed to it, with the usual retriable
    /// [`crate::CodError::Overloaded`].
    ///
    /// Bit-identical to [`CodEngine::query_batch_seeded`] on a single
    /// engine over the same artifacts with the same master seed, for
    /// every shard count and thread count.
    pub fn query_batch_with_limits<R: Rng>(
        &self,
        queries: &[Query],
        limits: &QueryLimits,
        rng: &mut R,
    ) -> Vec<CodResult<Option<CodAnswer>>> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let seq = SeedSequence::new(rng.next_u64());
        if queries.is_empty() {
            return Vec::new();
        }

        // Scatter: per-shard lists of *global* indices, in batch order.
        // Out-of-range seed nodes route to shard 0, whose engine turns
        // them into the same `InvalidQuery` a single engine would.
        let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let s = self.partition.shard_of_checked(q.node).unwrap_or(0);
            match groups.iter_mut().find(|(shard, _)| *shard == s) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((s, vec![i])),
            }
        }
        if groups.len() > 1 {
            self.fanouts.fetch_add(1, Ordering::Relaxed);
        }
        for (s, idxs) in &groups {
            self.shard_queries[*s as usize].fetch_add(idxs.len() as u64, Ordering::Relaxed);
        }

        // Evaluate each shard's sub-batch. A single-shard batch runs
        // inline; otherwise shards fan out under the configured thread
        // count (each evaluation is a pure function of its positional
        // seed, so the split cannot affect answers).
        let run_shard = |&(s, ref idxs): &(u32, Vec<usize>)| {
            let qs: Vec<Query> = idxs.iter().map(|&i| queries[i]).collect();
            let seeds: Vec<u64> = idxs.iter().map(|&i| seq.seed_for(i as u64 + 1)).collect();
            failpoint::hit(failpoint::Site::ShardGather, None);
            self.engines[s as usize].query_batch_derived(&qs, &seeds, &seq, limits)
        };
        let mut out: Vec<Option<CodResult<Option<CodAnswer>>>> =
            (0..queries.len()).map(|_| None).collect();
        if groups.len() == 1 {
            for (&i, r) in groups[0].1.iter().zip(run_shard(&groups[0])) {
                out[i] = Some(r);
            }
        } else {
            let threads = self.config().parallelism.thread_count();
            let gathered = par_ranges(groups.len(), threads, |range| {
                range
                    .map(|gi| (gi, run_shard(&groups[gi])))
                    .collect::<Vec<_>>()
            });
            for (gi, results) in gathered.into_iter().flatten() {
                for (&i, r) in groups[gi].1.iter().zip(results) {
                    out[i] = Some(r);
                }
            }
        }
        out.into_iter()
            .map(|r| match r {
                Some(r) => r,
                None => unreachable!("every query was routed to exactly one shard"),
            })
            .collect()
    }

    /// Forwards footprint-scoped invalidation to every shard engine (each
    /// keeps its own recluster and RR-pool caches). Returns the summed
    /// `(recluster entries dropped, pools dropped, pool bytes dropped)`.
    pub fn invalidate_scoped(&self, footprint: &crate::mutation::Footprint) -> (usize, usize, u64) {
        let mut total = (0usize, 0usize, 0u64);
        for e in &self.engines {
            let (entries, pools, bytes) = e.invalidate_scoped(footprint);
            total.0 += entries;
            total.1 += pools;
            total.2 += bytes;
        }
        total
    }

    /// Drops every shard's cached artifacts and shared RR pools.
    pub fn clear_cache(&self) {
        for e in &self.engines {
            e.clear_cache();
        }
    }

    /// Initiates drain on every shard engine.
    pub fn begin_drain(&self) {
        for e in &self.engines {
            e.begin_drain();
        }
    }

    /// Fires every shard's kill switch (see
    /// [`CodEngine::cancel_inflight`]).
    pub fn cancel_inflight(&self) {
        for e in &self.engines {
            e.cancel_inflight();
        }
    }

    /// The largest retry-after hint across shards — the bound a caller
    /// should wait before retrying a shed batch.
    pub fn retry_after_hint(&self) -> Duration {
        self.engines
            .iter()
            .map(|e| e.retry_after_hint())
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// One snapshot aggregating every shard's engine metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.engines[0].metrics();
        for e in &self.engines[1..] {
            snap = snap.merged(&e.metrics());
        }
        snap
    }

    /// The Prometheus exposition: the aggregated engine metrics plus the
    /// shard tier's own series (`cod_shard_count`,
    /// `cod_shard_queries_total{shard=...}`, `cod_shard_batches_total`,
    /// `cod_shard_fanout_total`).
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let cache = self
            .engines
            .iter()
            .map(|e| e.cache_stats())
            .reduce(|a, b| crate::cache::CacheStats {
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
                len: a.len + b.len,
                capacity: a.capacity + b.capacity,
            })
            .unwrap_or_default();
        let pool = self
            .engines
            .iter()
            .map(|e| e.pool_stats())
            .reduce(|a, b| crate::pool::PoolCacheStats {
                pools: a.pools + b.pools,
                resident_bytes: a.resident_bytes + b.resident_bytes,
                budget_bytes: a.budget_bytes + b.budget_bytes,
                epoch: a.epoch.max(b.epoch),
            })
            .unwrap_or_default();
        let mut out = self.metrics().render_prometheus(&cache, &pool);
        let _ = writeln!(out, "# HELP cod_shard_count shards serving this engine");
        let _ = writeln!(out, "# TYPE cod_shard_count gauge");
        let _ = writeln!(out, "cod_shard_count {}", self.engines.len());
        let _ = writeln!(
            out,
            "# HELP cod_shard_queries_total queries routed to each shard"
        );
        let _ = writeln!(out, "# TYPE cod_shard_queries_total counter");
        for (s, n) in self.shard_queries.iter().enumerate() {
            let _ = writeln!(
                out,
                "cod_shard_queries_total{{shard=\"{s}\"}} {}",
                n.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "# HELP cod_shard_batches_total scatter-gather batch calls served"
        );
        let _ = writeln!(out, "# TYPE cod_shard_batches_total counter");
        let _ = writeln!(
            out,
            "cod_shard_batches_total {}",
            self.batches.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP cod_shard_fanout_total batches whose scatter touched more than one shard"
        );
        let _ = writeln!(out, "# TYPE cod_shard_fanout_total counter");
        let _ = writeln!(
            out,
            "cod_shard_fanout_total {}",
            self.fanouts.load(Ordering::Relaxed)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Method;
    use cod_graph::{AttrInterner, AttrTable, GraphBuilder};

    fn two_component_graph() -> AttributedGraph {
        let mut b = GraphBuilder::new(9);
        // Component A: a 5-node path with a triangle at one end.
        // Component B: a 4-cycle.
        for (u, v) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (0, 2),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 5),
        ] {
            b.add_edge(u, v);
        }
        let mut i = AttrInterner::new();
        let left = i.intern("left");
        let right = i.intern("right");
        let lists = (0..9)
            .map(|v| vec![if v < 5 { left } else { right }])
            .collect();
        AttributedGraph::from_parts(b.build(), AttrTable::from_lists(lists), i)
    }

    fn cfg() -> CodConfig {
        CodConfig {
            k: 2,
            theta: 60,
            ..CodConfig::default()
        }
    }

    fn all_queries(g: &AttributedGraph) -> Vec<Query> {
        let mut qs = Vec::new();
        for v in 0..g.num_nodes() as NodeId {
            qs.push(Query::codu(v));
            let attr = g.attrs().of(v).first().copied();
            for m in [Method::Codr, Method::CodlMinus, Method::Codl] {
                qs.push(Query {
                    node: v,
                    attr,
                    method: m,
                });
            }
        }
        qs
    }

    /// Everything observable about an answer, for bit-identity asserts.
    #[allow(clippy::type_complexity)]
    fn canon(
        r: &CodResult<Option<CodAnswer>>,
    ) -> Result<Option<(Vec<NodeId>, usize, crate::pipeline::AnswerSource, bool)>, String> {
        match r {
            Ok(Some(a)) => Ok(Some((a.members.clone(), a.rank, a.source, a.uncertain))),
            Ok(None) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    /// An RNG whose first `next_u64` is a fixed master seed — pins the
    /// one draw a sharded batch makes so both sides of an identity test
    /// share the seed sequence.
    struct FixedMaster(u64);
    impl rand::RngCore for FixedMaster {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn sharded_batch_matches_single_engine_seeded() {
        let g = Arc::new(two_component_graph());
        let mut build_rng = SmallRng::seed_from_u64(7);
        let single = CodEngine::from_shared(Arc::clone(&g), cfg());
        let base = single.base_hierarchy();
        let index = single.ensure_himor(&mut build_rng);
        let queries = all_queries(&g);
        let limits = cfg().limits;
        let master = 0xC0D_u64;
        let want = single.query_batch_seeded(&queries, &SeedSequence::new(master), 0, &limits);
        for shards in [1usize, 2, 4] {
            let sharded = ShardedEngine::from_shared_parts(
                Arc::clone(&g),
                cfg(),
                Arc::clone(&base),
                Arc::clone(&index),
                shards,
            );
            let got = sharded.query_batch_with_limits(&queries, &limits, &mut FixedMaster(master));
            assert_eq!(want.len(), got.len());
            for (i, (w, g_)) in want.iter().zip(got.iter()).enumerate() {
                assert_eq!(canon(w), canon(g_), "query {i} diverged at {shards} shards");
            }
        }
    }

    #[test]
    fn routing_respects_components() {
        let g = Arc::new(two_component_graph());
        let mut rng = SmallRng::seed_from_u64(1);
        let sharded = ShardedEngine::build(Arc::clone(&g), cfg(), 2, &mut rng).unwrap();
        assert_eq!(sharded.num_shards(), 2);
        let s0 = sharded.shard_of(0).expect("node 0 in range");
        for v in 1..5 {
            assert_eq!(sharded.shard_of(v), Some(s0), "component A is one shard");
        }
        let s1 = sharded.shard_of(5).expect("node 5 in range");
        assert_ne!(s0, s1, "two components spread over two shards");
        assert_eq!(sharded.shard_of(100), None);
    }

    #[test]
    fn metrics_text_exports_shard_series() {
        let g = Arc::new(two_component_graph());
        let mut rng = SmallRng::seed_from_u64(2);
        let sharded = ShardedEngine::build(Arc::clone(&g), cfg(), 2, &mut rng).unwrap();
        let queries = all_queries(&g);
        let _ = sharded.query_batch(&queries, &mut rng);
        let text = sharded.metrics_text();
        assert!(text.contains("cod_shard_count 2"));
        assert!(text.contains("cod_shard_queries_total{shard=\"0\"}"));
        assert!(text.contains("cod_shard_queries_total{shard=\"1\"}"));
        assert!(text.contains("cod_shard_batches_total 1"));
        assert!(text.contains("cod_shard_fanout_total 1"));
        assert!(text.contains("cod_queries_total"));
    }

    #[test]
    fn out_of_range_node_is_invalid_not_panic() {
        let g = Arc::new(two_component_graph());
        let mut rng = SmallRng::seed_from_u64(3);
        let sharded = ShardedEngine::build(Arc::clone(&g), cfg(), 2, &mut rng).unwrap();
        let result = sharded.query(Query::codu(1_000), &mut rng);
        assert!(matches!(result, Err(crate::CodError::InvalidQuery(_))));
    }
}
