//! The `CodEngine` serving layer: one entry point for all four COD method
//! variants, with shared prepared artifacts, a recluster cache, reusable
//! query workspaces and a batch API.
//!
//! The engine owns the immutable prepared artifacts — the graph, the
//! non-attributed hierarchy `T` (+ LCA), the HIMOR index — behind `Arc`,
//! and layers three kinds of reuse on top:
//!
//! 1. an **artifact cache** ([`ReclusterCache`]) keyed by `(attr, β,
//!    linkage)` for CODR's global `T_ℓ` and LORE's local `C_ℓ` hierarchies;
//! 2. **per-query workspaces** ([`QueryScratch`]) pooled and recycled so RR
//!    sampler stamps, HFS queues and top-k buffers are reused across
//!    queries;
//! 3. a **batch API** ([`CodEngine::query_batch`]) that plans queries
//!    sequentially (preserving the caller-RNG draw order), groups pending
//!    evaluations by `(method, attr)` and fans the groups out under the
//!    configured [`Parallelism`] policy.
//!
//! # Determinism contract
//!
//! The caller's RNG only ever yields master seeds; every RR sample derives
//! from a master seed and its sample index ([`SeedSequence`]). An answer is
//! therefore a pure function of `(seed, config, artifact state)`:
//! bit-identical single or batched, cold or warm cache, traced or not, and
//! for every thread count. The plan pass draws, per query and in query
//! order, exactly one `u64` master seed *iff* that query reaches
//! compressed evaluation (index hits, empty chains and validation errors
//! draw nothing); the first CODL query draws one more for the one-time
//! HIMOR build, unless [`CodEngine::ensure_himor`] already drew it. All
//! plans come first, then the evaluations fan out, so a query's deadline
//! clock starts before earlier queries of its batch evaluate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cod_graph::{AttrId, AttributedGraph, NodeId};
use cod_hierarchy::{Hierarchy, VertexId};
use cod_influence::{par_ranges, CancelToken, Parallelism, SeedSequence};
use rand::prelude::*;

use crate::cache::{LocalRecluster, ReclusterCache};
use crate::chain::{Chain, ComposedChain, DendroChain, SubgraphChain};
use crate::compressed::{compressed_cod, CodOutcome, EvalOptions, Samples};
use crate::error::{CodError, CodResult};
use crate::failpoint;
use crate::himor::HimorIndex;
use crate::lore::select_recluster_community;
use crate::pipeline::{
    validate_query, AnswerSource, CacheOutcome, CodAnswer, CodConfig, QueryLimits,
};
use crate::pool::{PoolCache, PoolCacheStats};
use crate::recluster::{build_hierarchy, global_recluster_governed, local_recluster_governed};
use crate::scratch::QueryScratch;
use crate::telemetry::{
    Counter, MetricsRegistry, MetricsSnapshot, Phase, QueryOutcome, QueryTrace, TraceSink,
};
use std::time::{Duration, Instant};

/// Which COD variant answers a query (paper §V naming).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Non-attributed hierarchy `T` + compressed evaluation. Ignores the
    /// query attribute.
    Codu,
    /// Global reclustering of `g_ℓ` + compressed evaluation.
    Codr,
    /// LORE local reclustering + compressed evaluation over the composed
    /// chain (no index).
    CodlMinus,
    /// LORE + the HIMOR index (Algorithm 3).
    Codl,
}

impl Method {
    fn needs_attr(self) -> bool {
        !matches!(self, Method::Codu)
    }
}

/// One COD query: a node, an optional attribute and the method variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// The query node `q`.
    pub node: NodeId,
    /// The query attribute `ℓ_q`. Required by every method except
    /// [`Method::Codu`], which ignores it.
    pub attr: Option<AttrId>,
    /// The method variant.
    pub method: Method,
}

impl Query {
    /// A CODU query (attribute-free).
    pub fn codu(node: NodeId) -> Self {
        Query {
            node,
            attr: None,
            method: Method::Codu,
        }
    }

    /// A query for `(node, attr)` under `method`.
    pub fn new(node: NodeId, attr: AttrId, method: Method) -> Self {
        Query {
            node,
            attr: Some(attr),
            method,
        }
    }
}

/// Artifacts a pending evaluation borrows its chain from. Chains hold
/// references, so the plan stores the owning `Arc`s and the chain is
/// rebuilt (cheaply, and deterministically) at evaluation time.
enum EvalArtifacts {
    /// `DendroChain` over a whole-graph hierarchy (`T` for CODU/CODL⁻
    /// without a LORE choice, `T_ℓ` for CODR).
    Whole(Arc<Hierarchy>),
    /// CODL⁻: subgraph chain inside `C_ℓ` (root included) composed with
    /// the ancestors of `C_ℓ` in `T`.
    ComposedLocal {
        base: Arc<Hierarchy>,
        local: Arc<LocalRecluster>,
        c_ell: VertexId,
    },
    /// CODL index miss: subgraph chain inside `C_ℓ`, root excluded
    /// (Algorithm 3 already ruled it out via the index).
    SubLocal { local: Arc<LocalRecluster> },
}

/// A chain borrowing from [`EvalArtifacts`] — the one shape compressed
/// evaluation sees.
enum AnyChain<'a> {
    Dendro(DendroChain<'a>),
    Sub(SubgraphChain<'a>),
    Composed(ComposedChain<'a>),
}

impl Chain for AnyChain<'_> {
    fn len(&self) -> usize {
        match self {
            AnyChain::Dendro(c) => c.len(),
            AnyChain::Sub(c) => c.len(),
            AnyChain::Composed(c) => c.len(),
        }
    }

    fn size(&self, h: usize) -> usize {
        match self {
            AnyChain::Dendro(c) => c.size(h),
            AnyChain::Sub(c) => c.size(h),
            AnyChain::Composed(c) => c.size(h),
        }
    }

    fn level_of(&self, u: NodeId) -> Option<usize> {
        match self {
            AnyChain::Dendro(c) => c.level_of(u),
            AnyChain::Sub(c) => c.level_of(u),
            AnyChain::Composed(c) => c.level_of(u),
        }
    }

    fn members(&self, h: usize) -> Vec<NodeId> {
        match self {
            AnyChain::Dendro(c) => c.members(h),
            AnyChain::Sub(c) => c.members(h),
            AnyChain::Composed(c) => c.members(h),
        }
    }

    fn universe(&self) -> Vec<NodeId> {
        match self {
            AnyChain::Dendro(c) => c.universe(),
            AnyChain::Sub(c) => c.universe(),
            AnyChain::Composed(c) => c.universe(),
        }
    }

    fn label(&self, h: usize) -> String {
        match self {
            AnyChain::Dendro(c) => c.label(h),
            AnyChain::Sub(c) => c.label(h),
            AnyChain::Composed(c) => c.label(h),
        }
    }
}

fn build_chain<'a>(artifacts: &'a EvalArtifacts, q: NodeId) -> CodResult<AnyChain<'a>> {
    match artifacts {
        EvalArtifacts::Whole(h) => Ok(AnyChain::Dendro(DendroChain::new(&h.dendro, &h.lca, q)?)),
        EvalArtifacts::ComposedLocal { base, local, c_ell } => {
            let lower =
                SubgraphChain::new(&local.sub, &local.hier.dendro, &local.hier.lca, q, true)?;
            Ok(AnyChain::Composed(ComposedChain::new(
                lower,
                &base.dendro,
                &base.lca,
                *c_ell,
            )?))
        }
        EvalArtifacts::SubLocal { local } => Ok(AnyChain::Sub(SubgraphChain::new(
            &local.sub,
            &local.hier.dendro,
            &local.hier.lca,
            q,
            false,
        )?)),
    }
}

/// The outcome of the planning pass for one query.
enum Plan {
    /// Settled without compressed evaluation: validation error, empty
    /// chain or HIMOR index hit.
    Done(CodResult<Option<CodAnswer>>),
    /// Needs compressed evaluation with the pre-drawn master seed.
    Pending {
        q: NodeId,
        /// The resolved query attribute (`None` for CODU) — half of the
        /// shared RR-pool key when [`CodConfig::pool`] is on.
        attr: Option<AttrId>,
        seed: u64,
        artifacts: EvalArtifacts,
        cache: Option<CacheOutcome>,
        /// The requested method — names the rung an answer degrades from.
        method: Method,
        /// The query's governance token (`None` when the config is
        /// unlimited). Minted at plan time, so the deadline clock covers
        /// planning, artifact builds and evaluation together.
        token: Option<CancelToken>,
        /// Set when planning already degraded the artifacts (an
        /// interrupted recluster or index build): the rung that will
        /// actually serve the answer.
        degraded: Option<Method>,
    },
}

/// How many recycled [`QueryScratch`] workspaces the pool retains.
const SCRATCH_POOL_CAP: usize = 64;

/// Sampling budget of the last degradation-ladder rung: when a cancelled
/// evaluation produced no verdict, the engine retries on the base
/// hierarchy with this many RR draws and no token — cheap and bounded by
/// construction, enough for a coarse best-effort verdict.
const FALLBACK_BUDGET: usize = 256;

/// Default [`ReclusterCache`] capacity.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Base retry-after hint handed out with the first shed of a streak; each
/// consecutive shed doubles it (capped at `BASE << RETRY_AFTER_MAX_SHIFT`,
/// 1.6 s), and a successful admission resets the streak. The hint thereby
/// tracks how persistently the in-flight cap has been saturated — a cheap
/// stand-in for queue depth the engine doesn't otherwise keep.
const RETRY_AFTER_BASE_MS: u64 = 25;
const RETRY_AFTER_MAX_SHIFT: u32 = 6;

/// The shared query-serving engine fronting all four COD variants.
///
/// Construction is cheap: the base hierarchy `T` and the HIMOR index are
/// built lazily on first need (the index build draws its master seed from
/// the RNG of the query that triggers it, or of an explicit
/// [`CodEngine::ensure_himor`] call).
/// `&CodEngine` is `Sync`; queries can be served from multiple threads.
pub struct CodEngine {
    g: Arc<AttributedGraph>,
    cfg: CodConfig,
    base: OnceLock<Arc<Hierarchy>>,
    index: OnceLock<Arc<HimorIndex>>,
    cache: ReclusterCache,
    /// Cross-query shared RR-pool cache, consulted only when
    /// [`CodConfig::pool`] is on (it stays empty otherwise).
    pool: PoolCache,
    scratch: Mutex<Vec<QueryScratch>>,
    metrics: MetricsRegistry,
    /// Concurrent [`CodEngine::query_batch`] calls currently admitted
    /// (only maintained when [`CodConfig::max_inflight`] is set).
    inflight: AtomicUsize,
    /// Consecutive sheds since the last successful admission — the input
    /// to the [`CodError::Overloaded`] retry-after hint.
    shed_streak: AtomicU32,
    /// Engine-wide kill switch: the parent of every per-query token. A
    /// server initiating drain fires it once and every in-flight query
    /// observes it at its next governance checkpoint.
    kill: CancelToken,
    /// Set by [`CodEngine::begin_drain`]. While draining, even unlimited
    /// queries get a (bare) token so the kill switch can reach them.
    draining: AtomicBool,
}

/// RAII in-flight slot: releases the admission counter when the batch
/// call ends — normally or by unwind.
struct InflightPermit<'a>(&'a AtomicUsize);

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl CodEngine {
    /// An engine over `g` with the default cache capacity.
    pub fn new(g: AttributedGraph, cfg: CodConfig) -> Self {
        Self::with_cache_capacity(Arc::new(g), cfg, DEFAULT_CACHE_CAPACITY)
    }

    /// An engine with an explicit recluster-cache capacity (0 disables
    /// artifact caching; answers are unaffected either way).
    pub fn with_cache_capacity(
        g: Arc<AttributedGraph>,
        cfg: CodConfig,
        cache_capacity: usize,
    ) -> Self {
        Self {
            g,
            cfg,
            base: OnceLock::new(),
            index: OnceLock::new(),
            cache: ReclusterCache::new(cache_capacity),
            pool: PoolCache::new(cfg.pool_budget_bytes),
            scratch: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::default(),
            inflight: AtomicUsize::new(0),
            shed_streak: AtomicU32::new(0),
            kill: CancelToken::unlimited(),
            draining: AtomicBool::new(false),
        }
    }

    /// An engine adopting a prebuilt base hierarchy and HIMOR index. The
    /// artifacts are shared, not copied: several engines — or an engine
    /// and the [`crate::codx::MappedArtifacts`] handle they came from — can
    /// point at one hierarchy and one index.
    pub fn from_parts(
        g: Arc<AttributedGraph>,
        cfg: CodConfig,
        base: Arc<Hierarchy>,
        index: Arc<HimorIndex>,
    ) -> Self {
        let engine = Self::with_cache_capacity(g, cfg, DEFAULT_CACHE_CAPACITY);
        let _ = engine.base.set(base);
        let _ = engine.index.set(index);
        engine
    }

    /// An engine over the artifacts persisted in a CODX v3 file (see
    /// [`crate::codx::MappedArtifacts`]): graph, hierarchy and index are
    /// materialized once — zero-copy views of the mapping where the
    /// platform allows — and shared with the engine.
    pub fn from_mapped(arts: &crate::codx::MappedArtifacts, cfg: CodConfig) -> CodResult<Self> {
        Ok(Self::from_parts(
            arts.graph()?,
            cfg,
            arts.hierarchy()?,
            arts.himor()?,
        ))
    }

    /// The graph being served.
    pub fn graph(&self) -> &AttributedGraph {
        &self.g
    }

    /// The shared configuration.
    pub fn config(&self) -> &CodConfig {
        &self.cfg
    }

    /// Recluster-cache counters (hits, misses, residency).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Gauges of the shared RR-pool cache (resident pools and bytes, the
    /// byte budget, the invalidation epoch).
    pub fn pool_stats(&self) -> PoolCacheStats {
        self.pool.stats()
    }

    /// The RR-pool cache's invalidation epoch (bumped by every
    /// [`CodEngine::clear_cache`]).
    pub fn pool_epoch(&self) -> u64 {
        self.pool.epoch()
    }

    /// A snapshot of the engine-lifetime metrics: counter totals, phase
    /// times, outcome tallies and the traced-query latency histogram.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Folds a completed recovery into the engine's metrics so a served
    /// engine built from recovered artifacts exposes `cod_recovery_*`
    /// telemetry (the recovery itself ran before this engine existed).
    pub fn record_recovery(&self, replayed: u64, nanos: u64) {
        self.metrics.record_recovery(replayed, nanos);
    }

    /// Folds WAL activity observed before this engine was constructed
    /// (e.g. by the recovery replay) into its metrics.
    pub fn record_wal_activity(&self, appended: u64, fsyncs: u64) {
        self.metrics.record_wal_activity(appended, fsyncs);
    }

    /// The engine metrics rendered in the Prometheus text exposition
    /// format (counters as `cod_*_total`, recluster-cache gauges, and a
    /// `cod_query_seconds` histogram over traced queries).
    pub fn metrics_text(&self) -> String {
        self.metrics
            .snapshot()
            .render_prometheus(&self.cache.stats(), &self.pool.stats())
    }

    /// Drops every cached recluster artifact and every shared RR pool
    /// (diagnostics/testing; also the coarse invalidation hook for callers
    /// that mutate the graph behind a shared `Arc`).
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.pool.invalidate();
    }

    /// Scoped invalidation for graph mutations: drops only the cached
    /// artifacts and shared RR pools the footprint can have invalidated,
    /// leaving everything else resident.
    ///
    /// * A **topology** footprint clears the recluster cache, the
    ///   unrestricted pools (they sample the whole graph) and the
    ///   restricted pools whose universe contains a touched node; a
    ///   restricted pool disjoint from every touched node samples an
    ///   unchanged subgraph and stays warm.
    /// * A pure **attribute** footprint drops only the entries and pools
    ///   keyed by a touched attribute; attribute-free pools (CODU) and
    ///   pools of disjoint attributes survive.
    ///
    /// Returns `(recluster entries dropped, pools dropped, pool bytes
    /// dropped)`. An empty footprint is a no-op that does not bump the
    /// pool epoch.
    pub fn invalidate_scoped(&self, footprint: &crate::mutation::Footprint) -> (usize, usize, u64) {
        if footprint.is_empty() {
            return (0, 0, 0);
        }
        let entries = self.cache.invalidate_scoped(footprint);
        let (pools, bytes) = if footprint.touches_topology() {
            self.pool.invalidate_scoped(|e| {
                !e.restricted()
                    || footprint
                        .nodes()
                        .iter()
                        .any(|&v| e.universe().binary_search(&v).is_ok())
            })
        } else {
            self.pool
                .invalidate_scoped(|e| e.attr().is_some_and(|a| footprint.touches_attr(a)))
        };
        (entries, pools, bytes)
    }

    /// The non-attributed base hierarchy `T` (+ LCA), built on first use.
    pub fn base_hierarchy(&self) -> Arc<Hierarchy> {
        self.base
            .get_or_init(|| {
                Arc::new(Hierarchy::new(build_hierarchy(
                    self.g.csr(),
                    self.cfg.linkage,
                )))
            })
            .clone()
    }

    /// The HIMOR index if it has been built already.
    pub fn himor(&self) -> Option<Arc<HimorIndex>> {
        self.index.get().cloned()
    }

    /// The HIMOR index, building it on first call from one `u64` master
    /// seed drawn from `rng` (nothing is drawn once the index exists).
    /// Fails with [`CodError::InvalidQuery`] when `θ·|V|` overflows
    /// `usize`.
    pub fn ensure_himor<R: Rng>(&self, rng: &mut R) -> CodResult<Arc<HimorIndex>> {
        self.ensure_himor_governed(rng, None)
    }

    /// [`CodEngine::ensure_himor`] under cooperative governance: the
    /// `CacheBuild` failpoint fires before a build starts, and a token
    /// that fires mid-build aborts it — the error leaves the index unset so
    /// a later (un-pressured) query can build it cleanly. The seed draw
    /// happens either way, so replay divergence stays confined to queries
    /// whose limits actually fired.
    pub(crate) fn ensure_himor_governed<R: Rng>(
        &self,
        rng: &mut R,
        cancel: Option<&CancelToken>,
    ) -> CodResult<Arc<HimorIndex>> {
        if let Some(ix) = self.index.get() {
            return Ok(ix.clone());
        }
        let base = self.base_hierarchy();
        failpoint::hit(failpoint::Site::CacheBuild, cancel);
        let built = HimorIndex::build(
            self.g.csr(),
            self.cfg.model,
            &base.dendro,
            &base.lca,
            self.cfg.theta,
            rng.next_u64(),
            self.cfg.parallelism,
            cancel,
        )?;
        Ok(self.index.get_or_init(|| Arc::new(built)).clone())
    }

    /// [`CodEngine::ensure_himor_governed`] with build telemetry: when
    /// this call is the one that constructs the index, the build's
    /// sampling effort and bucket merges are charged to `sink` — the
    /// paper likewise charges one-time construction to the query that
    /// triggers it. An aborted build records its elapsed time but no
    /// completed-build counters.
    fn ensure_himor_traced<R: Rng>(
        &self,
        rng: &mut R,
        sink: &mut TraceSink,
        cancel: Option<&CancelToken>,
    ) -> Option<Arc<HimorIndex>> {
        if let Some(ix) = self.index.get() {
            return Some(ix.clone());
        }
        let t0 = sink.timing().then(Instant::now);
        let built = self.ensure_himor_governed(rng, cancel);
        if let Some(t0) = t0 {
            sink.add_nanos(Phase::HimorBuild, t0.elapsed().as_nanos() as u64);
        }
        // Queries validated θ·|V| at the boundary, so a failed build is an
        // interruption, never a config error.
        let index = built.ok()?;
        sink.incr(Counter::HimorBuilds);
        let bs = index.build_stats();
        sink.add(Counter::RrGraphsSampled, bs.rr_graphs);
        sink.add(Counter::RrEdgesTraversed, bs.rr_edges);
        sink.add(Counter::HimorBucketMerges, bs.bucket_merges);
        Some(index)
    }

    /// CODR's global hierarchy for `attr`, through the cache.
    pub fn global_hierarchy(&self, attr: AttrId) -> (Arc<Hierarchy>, bool) {
        match self.global_hierarchy_governed(attr, None) {
            Some(out) => out,
            None => unreachable!("an ungoverned build has no token to cancel it"),
        }
    }

    /// [`CodEngine::global_hierarchy`] under cooperative governance:
    /// `None` means the token fired mid-build and nothing was cached.
    fn global_hierarchy_governed(
        &self,
        attr: AttrId,
        cancel: Option<&CancelToken>,
    ) -> Option<(Arc<Hierarchy>, bool)> {
        self.cache
            .try_global(attr, self.cfg.beta, self.cfg.linkage, || {
                failpoint::hit(failpoint::Site::CacheBuild, cancel);
                global_recluster_governed(&self.g, attr, self.cfg.beta, self.cfg.linkage, cancel)
                    .map(|d| Arc::new(Hierarchy::new(d)))
            })
    }

    /// LORE's local artifact for `(attr, vertex)`, through the cache,
    /// under cooperative governance (same contract as
    /// [`CodEngine::global_hierarchy_governed`]).
    fn local_artifact_governed(
        &self,
        attr: AttrId,
        base: &Hierarchy,
        vertex: VertexId,
        cancel: Option<&CancelToken>,
    ) -> Option<(Arc<LocalRecluster>, bool)> {
        self.cache
            .try_local(attr, self.cfg.beta, self.cfg.linkage, vertex, || {
                failpoint::hit(failpoint::Site::CacheBuild, cancel);
                let members = base.dendro.members_sorted(vertex);
                let (sub, sd) = local_recluster_governed(
                    &self.g,
                    &members,
                    attr,
                    self.cfg.beta,
                    self.cfg.linkage,
                    cancel,
                )?;
                Some(Arc::new(LocalRecluster {
                    sub,
                    hier: Hierarchy::new(sd),
                }))
            })
    }

    /// Claims an in-flight slot. `Ok(None)` when no cap is configured;
    /// `Err((cap, retry_after))` when the cap is already saturated (the
    /// call must shed, suggesting the caller retry after the hint).
    fn admit(&self) -> Result<Option<InflightPermit<'_>>, (usize, Duration)> {
        let Some(cap) = self.cfg.max_inflight else {
            return Ok(None);
        };
        match self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            }) {
            Ok(_) => {
                self.shed_streak.store(0, Ordering::Relaxed);
                Ok(Some(InflightPermit(&self.inflight)))
            }
            Err(_) => {
                let streak = self.shed_streak.fetch_add(1, Ordering::Relaxed);
                Err((cap, retry_after_for(streak)))
            }
        }
    }

    /// Batch calls currently holding an admission permit. Only maintained
    /// when [`CodConfig::max_inflight`] is set; always 0 otherwise. The
    /// serve tier asserts this returns to zero after a chaos soak — a
    /// leaked permit would pin it above zero forever.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// The retry-after the *next* shed would carry, without shedding. The
    /// serve tier uses it for `Retry-After` on connections it refuses at
    /// the socket, before any engine call exists to consult.
    pub fn retry_after_hint(&self) -> Duration {
        retry_after_for(self.shed_streak.load(Ordering::Relaxed))
    }

    /// Marks the engine as draining: still answering, but every query
    /// planned from now on carries a token linked to the engine kill
    /// switch — including queries whose limits are unlimited and would
    /// normally skip tokens entirely. Idempotent; there is no un-drain
    /// (the engine is expected to be dropped once the drain completes).
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether [`CodEngine::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Fires the engine kill switch: every in-flight query carrying a
    /// token observes it at its next governance checkpoint and walks the
    /// degradation ladder (degraded answer, or `DeadlineExceeded` when
    /// even the fallback rung can't finish). Queries planned before
    /// [`CodEngine::begin_drain`] under an unlimited config carry no
    /// token and run to completion — callers who need the hard stop call
    /// `begin_drain` first and give in-flight work a grace period.
    pub fn cancel_inflight(&self) {
        self.begin_drain();
        self.kill.cancel();
    }

    /// The governance token for one query: the configured limits, linked
    /// to the engine kill switch. Unlimited queries skip the token (the
    /// fast path — every checkpoint is then a no-op) unless the engine is
    /// draining, in which case they get a bare child of the kill switch.
    fn mint_token(&self, limits: &QueryLimits) -> Option<CancelToken> {
        match limits.token_with_parent(&self.kill) {
            Some(t) => Some(t),
            None if self.is_draining() => {
                Some(CancelToken::with_parent(None, None, None, &self.kill))
            }
            None => None,
        }
    }

    fn take_scratch(&self) -> QueryScratch {
        let mut pool = match self.scratch.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        pool.pop().unwrap_or_default()
    }

    fn put_scratch(&self, ws: QueryScratch) {
        let mut pool = match self.scratch.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(ws);
        }
    }

    /// Answers one COD query. Implemented as a batch of one, so single and
    /// batched answers are identical by construction.
    pub fn query<R: Rng>(&self, query: Query, rng: &mut R) -> CodResult<Option<CodAnswer>> {
        match self.query_batch(std::slice::from_ref(&query), rng).pop() {
            Some(result) => result,
            None => unreachable!("a batch of one yields one result"),
        }
    }

    /// [`CodEngine::query`] under per-request limits (see
    /// [`CodEngine::query_batch_with_limits`]).
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

    /// Answers a batch of COD queries, one result per query, in order.
    ///
    /// Planning runs sequentially in query order (validation, artifact
    /// preparation through the cache, index lookups, master-seed draws);
    /// pending evaluations are then grouped by `(method, attr)` and fanned
    /// out under [`CodConfig::parallelism`], each group reusing one pooled
    /// workspace. Results are bit-identical to issuing the same queries
    /// one at a time with the same RNG (see the module docs for the
    /// determinism contract).
    pub fn query_batch<R: Rng>(
        &self,
        queries: &[Query],
        rng: &mut R,
    ) -> Vec<CodResult<Option<CodAnswer>>> {
        let limits = self.cfg.limits;
        self.query_batch_with_limits(queries, &limits, rng)
    }

    /// [`CodEngine::query_batch`] with the configured [`CodConfig::limits`]
    /// replaced by per-call `limits` — the serve tier maps each HTTP
    /// request's deadline here without rebuilding the engine. Admission
    /// control, caching, telemetry and the determinism contract are
    /// identical; a query whose limits never fire answers bit-identically
    /// to an unlimited one.
    pub fn query_batch_with_limits<R: Rng>(
        &self,
        queries: &[Query],
        limits: &QueryLimits,
        rng: &mut R,
    ) -> Vec<CodResult<Option<CodAnswer>>> {
        // Admission control: with `max_inflight` set, at most that many
        // batch calls run concurrently; excess calls are shed immediately
        // with a retriable error instead of queueing behind a stalled
        // engine. The permit is RAII and minted *before* the plan pass,
        // so any panic beyond this point — planning included — releases
        // it on unwind (regression-tested in tests/governance.rs).
        let _permit = match self.admit() {
            Ok(permit) => permit,
            Err((max_inflight, retry_after)) => {
                self.metrics.record_shed(queries.len() as u64);
                return queries
                    .iter()
                    .map(|_| {
                        Err(CodError::Overloaded {
                            max_inflight,
                            retry_after,
                        })
                    })
                    .collect();
            }
        };
        // One telemetry sink per query: plan-pass events land here
        // directly; evaluation events are absorbed from the workspace sink
        // afterwards. Per-query deltas therefore sum exactly to what the
        // registry aggregates (asserted in tests/telemetry.rs).
        let mut sinks: Vec<TraceSink> = queries
            .iter()
            .map(|_| TraceSink::new(self.cfg.trace))
            .collect();
        let plans: Vec<Plan> = queries
            .iter()
            .zip(sinks.iter_mut())
            .map(|(&query, sink)| self.plan(query, limits, rng, sink))
            .collect();

        // Group pending evaluations by (method, attr), preserving
        // first-appearance order, so one worker serves a whole attribute
        // group from one warm workspace.
        type GroupKey = (Method, Option<AttrId>);
        let mut groups: Vec<(GroupKey, Vec<usize>)> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            if matches!(plan, Plan::Pending { .. }) {
                let key = (queries[i].method, queries[i].attr);
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((key, vec![i])),
                }
            }
        }
        let pending: usize = groups.iter().map(|(_, idxs)| idxs.len()).sum();

        // Each worker takes one pooled workspace and evaluates its groups
        // under panic isolation. A lone pending query runs inline and keeps
        // the configured intra-query parallelism; otherwise the groups fan
        // out and each query runs single-threaded on its own master seed
        // (thread-count invariance makes this bit-identical to any other
        // split).
        let (workers, par) = if pending <= 1 {
            (1, self.cfg.parallelism)
        } else {
            (self.cfg.parallelism.thread_count(), Parallelism::Threads(1))
        };
        let shards = par_ranges(groups.len(), workers, |range| {
            let mut ws = self.take_scratch();
            let mut out: Vec<(usize, CodResult<Option<CodAnswer>>, QueryTrace)> = Vec::new();
            for &i in groups[range].iter().flat_map(|(_, idxs)| idxs) {
                if let Plan::Pending {
                    q,
                    attr,
                    seed,
                    ref artifacts,
                    cache,
                    method,
                    ref token,
                    degraded,
                } = plans[i]
                {
                    ws.sink.reset(self.cfg.trace);
                    let tok = token.as_ref();
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        failpoint::hit(failpoint::Site::EvalWorker, tok);
                        self.eval(
                            q, attr, seed, artifacts, cache, par, &mut ws, tok, degraded, method,
                        )
                    }));
                    let result = match caught {
                        Ok(r) => r,
                        Err(payload) => {
                            // The workspace may hold torn state; start the
                            // next query from a fresh one.
                            ws = QueryScratch::default();
                            Err(CodError::Internal(panic_message(payload)))
                        }
                    };
                    out.push((i, result, ws.sink.take()));
                }
            }
            self.put_scratch(ws);
            out
        });
        let mut evaluated: Vec<Option<(CodResult<Option<CodAnswer>>, QueryTrace)>> =
            (0..plans.len()).map(|_| None).collect();
        for (i, result, trace) in shards.into_iter().flatten() {
            evaluated[i] = Some((result, trace));
        }

        plans
            .into_iter()
            .zip(evaluated)
            .zip(sinks)
            .map(|((plan, evaluated), mut sink)| {
                let mut result = match plan {
                    Plan::Done(r) => r,
                    Plan::Pending { .. } => match evaluated {
                        Some((r, trace)) => {
                            sink.absorb(&trace);
                            r
                        }
                        None => unreachable!("every pending plan was evaluated"),
                    },
                };
                let outcome = match &result {
                    Ok(Some(a)) if a.source == AnswerSource::Index => QueryOutcome::AnswerIndex,
                    Ok(Some(_)) => QueryOutcome::AnswerCompressed,
                    Ok(None) => QueryOutcome::NoAnswer,
                    Err(_) => QueryOutcome::Error,
                };
                if let Ok(Some(a)) = &result {
                    if a.degraded.is_some() {
                        self.metrics.record_degraded();
                    }
                }
                self.metrics.record(&sink, outcome);
                if self.cfg.trace {
                    if let Ok(Some(a)) = &mut result {
                        a.trace = Some(sink.trace());
                    }
                }
                result
            })
            .collect()
    }

    fn plan<R: Rng>(
        &self,
        query: Query,
        limits: &QueryLimits,
        rng: &mut R,
        sink: &mut TraceSink,
    ) -> Plan {
        let t0 = sink.timing().then(Instant::now);
        // Panic isolation: a planning panic (artifact build, index code,
        // an armed failpoint) must not take the whole batch down — it
        // becomes this query's `Internal` error and the engine stays
        // serviceable. Cache and scratch locks recover from poisoning.
        let plan = match catch_unwind(AssertUnwindSafe(|| {
            self.plan_inner(query, limits, rng, sink)
        })) {
            Ok(Ok(plan)) => plan,
            Ok(Err(e)) => Plan::Done(Err(e)),
            Err(payload) => Plan::Done(Err(CodError::Internal(panic_message(payload)))),
        };
        if let Some(t0) = t0 {
            // Plan time is everything not attributed to a build phase
            // during planning. The sink is fresh per query, so the
            // already-recorded phase total is exactly that attributed share.
            let total = t0.elapsed().as_nanos() as u64;
            let attributed = sink.trace().phases.total();
            sink.add_nanos(Phase::Plan, total.saturating_sub(attributed));
        }
        plan
    }

    /// The sequential planning pass for one query: validation, artifact
    /// preparation, index lookup, empty-chain short-circuit, master-seed
    /// draw, in that order (the order fixes the RNG consumption the
    /// determinism contract promises). Telemetry for plan-side events
    /// (cache outcomes, artifact builds, index hits) lands in `sink`;
    /// nothing recorded there reads or writes `rng`.
    fn plan_inner<R: Rng>(
        &self,
        query: Query,
        limits: &QueryLimits,
        rng: &mut R,
        sink: &mut TraceSink,
    ) -> CodResult<Plan> {
        let Query {
            node: q, method, ..
        } = query;
        // CODU ignores the attribute; every other method requires one.
        let attr = if method.needs_attr() {
            match query.attr {
                Some(a) => Some(a),
                None => {
                    return Err(CodError::InvalidQuery(format!(
                        "method {method:?} requires a query attribute"
                    )))
                }
            }
        } else {
            None
        };
        validate_query(&self.g, &self.cfg, q, attr)?;

        // Governance: one token per query, minted after validation (the
        // deadline clock starts here and covers artifact builds and
        // evaluation together). `None` when the limits are unlimited and
        // the engine isn't draining — the common case, which keeps every
        // checkpoint a no-op.
        let token = self.mint_token(limits);
        let mut degraded: Option<Method> = None;

        let mut cache_outcome = None;
        let artifacts = match method {
            Method::Codu => EvalArtifacts::Whole(self.base_hierarchy()),
            Method::Codr => {
                let Some(a) = attr else {
                    unreachable!("validated above: Codr requires an attribute")
                };
                let t0 = sink.timing().then(Instant::now);
                match self.global_hierarchy_governed(a, token.as_ref()) {
                    Some((h, hit)) => {
                        record_lookup(sink, hit, t0);
                        cache_outcome = hit_to_outcome(hit);
                        EvalArtifacts::Whole(h)
                    }
                    // Reclustering interrupted: degrade to the CODU rung
                    // (the non-attributed hierarchy is an engine-lifetime
                    // artifact, already built or cheap to share).
                    None => {
                        record_lookup(sink, false, t0);
                        degraded = Some(Method::Codu);
                        EvalArtifacts::Whole(self.base_hierarchy())
                    }
                }
            }
            Method::CodlMinus => {
                let Some(a) = attr else {
                    unreachable!("validated above: CodlMinus requires an attribute")
                };
                self.lore_artifacts(
                    a,
                    q,
                    sink,
                    token.as_ref(),
                    &mut cache_outcome,
                    &mut degraded,
                )
            }
            Method::Codl => {
                let Some(a) = attr else {
                    unreachable!("validated above: Codl requires an attribute")
                };
                match self.ensure_himor_traced(rng, sink, token.as_ref()) {
                    // Index build interrupted: fall to the CODL⁻ rung
                    // (LORE without the index), which may degrade further.
                    None => {
                        degraded = Some(Method::CodlMinus);
                        self.lore_artifacts(
                            a,
                            q,
                            sink,
                            token.as_ref(),
                            &mut cache_outcome,
                            &mut degraded,
                        )
                    }
                    Some(index) => {
                        let base = self.base_hierarchy();
                        let choice =
                            select_recluster_community(&self.g, &base.dendro, &base.lca, q, a);
                        let floor: Option<VertexId> = choice.map(|c| c.vertex);
                        // Algorithm 3 lines 1–2: answer from the index if
                        // an ancestor of C_ℓ qualifies. No RNG is consumed.
                        if let Some(c) = index.largest_top_k(&base.dendro, q, floor, self.cfg.k) {
                            let path = base.dendro.root_path(q);
                            let Some(j) = path.iter().position(|&v| v == c) else {
                                unreachable!("largest_top_k only returns vertices on q's root path")
                            };
                            sink.incr(Counter::HimorIndexHits);
                            return Ok(Plan::Done(Ok(Some(CodAnswer {
                                members: base.dendro.members_sorted(c),
                                rank: index.ranks_of(q)[j] as usize,
                                source: AnswerSource::Index,
                                uncertain: false,
                                cache: None,
                                degraded: None,
                                trace: None,
                            }))));
                        }
                        // Line 3: compressed evaluation inside the
                        // reclustered C_ℓ.
                        let Some(choice) = choice else {
                            return Ok(Plan::Done(Ok(None)));
                        };
                        let t0 = sink.timing().then(Instant::now);
                        match self.local_artifact_governed(a, &base, choice.vertex, token.as_ref())
                        {
                            Some((local, hit)) => {
                                record_lookup(sink, hit, t0);
                                cache_outcome = hit_to_outcome(hit);
                                EvalArtifacts::SubLocal { local }
                            }
                            None => {
                                record_lookup(sink, false, t0);
                                degraded = Some(Method::Codu);
                                EvalArtifacts::Whole(base)
                            }
                        }
                    }
                }
            }
        };

        // Build the chain once here so construction errors and the
        // empty-chain short-circuit surface in plan order, *before* any
        // seed draw.
        let empty = build_chain(&artifacts, q)?.is_empty();
        if empty {
            return Ok(Plan::Done(Ok(None)));
        }

        // One master seed per evaluated query, drawn in query order.
        Ok(Plan::Pending {
            q,
            attr,
            seed: rng.next_u64(),
            artifacts,
            cache: cache_outcome,
            method,
            token,
            degraded,
        })
    }

    /// CODL⁻'s artifact preparation (also the fallback rung when CODL's
    /// index build is interrupted): LORE community selection plus the
    /// governed local recluster. An interrupted local build degrades to
    /// the CODU rung — the whole-graph hierarchy `T` — and records it in
    /// `degraded`.
    fn lore_artifacts(
        &self,
        a: AttrId,
        q: NodeId,
        sink: &mut TraceSink,
        cancel: Option<&CancelToken>,
        cache_outcome: &mut Option<CacheOutcome>,
        degraded: &mut Option<Method>,
    ) -> EvalArtifacts {
        let base = self.base_hierarchy();
        match select_recluster_community(&self.g, &base.dendro, &base.lca, q, a) {
            // No attribute signal on the path: evaluate T directly.
            None => EvalArtifacts::Whole(base),
            Some(choice) => {
                let t0 = sink.timing().then(Instant::now);
                match self.local_artifact_governed(a, &base, choice.vertex, cancel) {
                    Some((local, hit)) => {
                        record_lookup(sink, hit, t0);
                        *cache_outcome = hit_to_outcome(hit);
                        EvalArtifacts::ComposedLocal {
                            base,
                            local,
                            c_ell: choice.vertex,
                        }
                    }
                    None => {
                        record_lookup(sink, false, t0);
                        *degraded = Some(Method::Codu);
                        EvalArtifacts::Whole(base)
                    }
                }
            }
        }
    }

    /// Compressed evaluation of one planned query on its master seed —
    /// served from the shared RR-pool cache when [`CodConfig::pool`] is on.
    #[allow(clippy::too_many_arguments)]
    fn eval(
        &self,
        q: NodeId,
        attr: Option<AttrId>,
        seed: u64,
        artifacts: &EvalArtifacts,
        cache: Option<CacheOutcome>,
        par: Parallelism,
        ws: &mut QueryScratch,
        cancel: Option<&CancelToken>,
        degraded: Option<Method>,
        requested: Method,
    ) -> CodResult<Option<CodAnswer>> {
        let chain = build_chain(artifacts, q)?;
        let out = if self.cfg.pool {
            self.eval_pooled(q, attr, &chain, par, ws, cancel)?
        } else {
            let opts = EvalOptions {
                budget: self.cfg.budget,
                par,
                cancel,
                scratch: Some(&mut *ws),
            };
            self.compressed(&chain, q, Samples::Seed(seed), opts)?
        };
        // The fallback seed is a derived child stream: disjoint from the
        // primary evaluation's per-index streams by construction.
        let fallback_seed = SeedSequence::new(seed).child(1).master();
        self.finish(
            q,
            &chain,
            out,
            cache,
            degraded,
            requested,
            ws,
            fallback_seed,
        )
    }

    /// [`compressed_cod`] on the served graph under the engine's model, `k`
    /// and `θ`.
    fn compressed(
        &self,
        chain: &impl Chain,
        q: NodeId,
        samples: Samples<'_>,
        opts: EvalOptions<'_>,
    ) -> CodResult<CodOutcome> {
        compressed_cod(
            self.g.csr(),
            self.cfg.model,
            chain,
            q,
            self.cfg.k,
            self.cfg.theta,
            samples,
            opts,
        )
    }

    /// Compressed evaluation served from the shared RR-pool cache: look up
    /// (or create) the pool for the chain's `(attr, universe)` key, grow it
    /// to the resolved `Θ` if needed, fold the pooled graphs, and re-apply
    /// the byte budget afterwards (growth happens outside the cache lock).
    /// All pool telemetry flows through the query's own sink so per-query
    /// trace deltas keep summing to the registry aggregates.
    fn eval_pooled(
        &self,
        q: NodeId,
        attr: Option<AttrId>,
        chain: &AnyChain<'_>,
        par: Parallelism,
        ws: &mut QueryScratch,
        cancel: Option<&CancelToken>,
    ) -> CodResult<CodOutcome> {
        let universe = chain.universe();
        let restricted = universe.len() < self.g.num_nodes();
        let (entry, lookup) = self.pool.get_or_create(attr, &universe, restricted);
        ws.sink.incr(if lookup.hit {
            Counter::PoolHits
        } else {
            Counter::PoolMisses
        });
        ws.sink.add(Counter::PoolEvictedBytes, lookup.evicted_bytes);
        let opts = EvalOptions {
            budget: self.cfg.budget,
            par,
            cancel,
            scratch: Some(&mut *ws),
        };
        let out = self.compressed(chain, q, Samples::Pool(&entry), opts)?;
        ws.sink
            .add(Counter::PoolEvictedBytes, self.pool.enforce_budget(&entry));
        Ok(out)
    }

    /// Turns a (possibly cancelled) compressed outcome into the final
    /// result, walking the degradation ladder:
    ///
    /// 1. an answer from the planned artifacts — flagged with the serving
    ///    rung (and `uncertain`) if planning degraded or evaluation was
    ///    cut short;
    /// 2. no answer but a cancelled evaluation — one bounded retry on the
    ///    base hierarchy with [`FALLBACK_BUDGET`] draws and no token;
    /// 3. still nothing — the hard [`CodError::DeadlineExceeded`].
    ///
    /// A clean (non-cancelled, non-degraded) `None` stays `Ok(None)`: the
    /// chain genuinely has no qualifying community.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        q: NodeId,
        chain: &impl Chain,
        out: CodOutcome,
        cache: Option<CacheOutcome>,
        degraded: Option<Method>,
        requested: Method,
        ws: &mut QueryScratch,
        fallback_seed: u64,
    ) -> CodResult<Option<CodAnswer>> {
        let cancelled = out.cancelled;
        let served = degraded.or_else(|| cancelled.then_some(requested));
        match package(chain, out, cache) {
            Some(mut a) => {
                if let Some(rung) = served {
                    a.degraded = Some(rung);
                    a.uncertain = true;
                }
                Ok(Some(a))
            }
            None if cancelled => self.degraded_fallback(q, fallback_seed, cache, ws),
            None => Ok(None),
        }
    }

    /// The last rung of the degradation ladder (see [`CodEngine::finish`]).
    fn degraded_fallback(
        &self,
        q: NodeId,
        seed: u64,
        cache: Option<CacheOutcome>,
        ws: &mut QueryScratch,
    ) -> CodResult<Option<CodAnswer>> {
        let base = self.base_hierarchy();
        let chain = DendroChain::new(&base.dendro, &base.lca, q)?;
        if chain.is_empty() {
            return Err(CodError::DeadlineExceeded);
        }
        let budget = self
            .cfg
            .budget
            .map_or(FALLBACK_BUDGET, |b| b.min(FALLBACK_BUDGET));
        let opts = EvalOptions {
            budget: Some(budget),
            par: Parallelism::Threads(1),
            cancel: None,
            scratch: Some(ws),
        };
        let out = self.compressed(&chain, q, Samples::Seed(seed), opts)?;
        match package(&chain, out, cache) {
            Some(mut a) => {
                a.degraded = Some(Method::Codu);
                a.uncertain = true;
                Ok(Some(a))
            }
            None => Err(CodError::DeadlineExceeded),
        }
    }
}

impl std::fmt::Debug for CodEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodEngine")
            .field("nodes", &self.g.num_nodes())
            .field("cache", &self.cache.stats())
            .field("himor_built", &self.index.get().is_some())
            .finish_non_exhaustive()
    }
}

/// Packages a compressed outcome into a [`CodAnswer`].
pub(crate) fn package(
    chain: &impl Chain,
    out: CodOutcome,
    cache: Option<CacheOutcome>,
) -> Option<CodAnswer> {
    let level = out.best_level?;
    Some(CodAnswer {
        members: chain.members(level),
        rank: out.ranks[level],
        source: AnswerSource::Compressed,
        uncertain: out.truncated || out.uncertain[level],
        cache,
        degraded: None,
        trace: None,
    })
}

fn hit_to_outcome(hit: bool) -> Option<CacheOutcome> {
    Some(if hit {
        CacheOutcome::Hit
    } else {
        CacheOutcome::Miss
    })
}

/// Cache lookups that miss run a recluster build; attribute the elapsed
/// time to the Recluster phase and tally the outcome.
fn record_lookup(sink: &mut TraceSink, hit: bool, t0: Option<Instant>) {
    if hit {
        sink.incr(Counter::CacheHits);
    } else {
        sink.incr(Counter::CacheMisses);
        sink.incr(Counter::ReclusterBuilds);
        if let Some(t0) = t0 {
            sink.add_nanos(Phase::Recluster, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// The retry-after hint for the given shed streak: exponential from
/// [`RETRY_AFTER_BASE_MS`], capped at 25 ms × 2⁶ = 1.6 s.
fn retry_after_for(streak: u32) -> Duration {
    Duration::from_millis(RETRY_AFTER_BASE_MS << streak.min(RETRY_AFTER_MAX_SHIFT))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "query worker panicked".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::{AttrInterner, AttrTable, GraphBuilder};

    fn toy() -> AttributedGraph {
        let mut b = GraphBuilder::new(8);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 2),
            (3, 4),
            (3, 5),
            (4, 5),
            (2, 3),
            (0, 6),
            (0, 7),
            (6, 7),
        ] {
            b.add_edge(u, v);
        }
        let mut i = AttrInterner::new();
        let a = i.intern("A");
        let c = i.intern("B");
        let lists = vec![
            vec![a],
            vec![a],
            vec![a],
            vec![c],
            vec![c],
            vec![c],
            vec![a],
            vec![a],
        ];
        AttributedGraph::from_parts(b.build(), AttrTable::from_lists(lists), i)
    }

    fn cfg() -> CodConfig {
        CodConfig {
            k: 2,
            theta: 60,
            parallelism: Parallelism::Threads(2),
            ..CodConfig::default()
        }
    }

    #[test]
    fn engine_answers_all_methods() {
        let engine = CodEngine::new(toy(), cfg());
        let mut rng = SmallRng::seed_from_u64(77);
        for method in [Method::Codu, Method::Codr, Method::CodlMinus, Method::Codl] {
            let q = Query {
                node: 0,
                attr: Some(0),
                method,
            };
            let ans = engine.query(q, &mut rng).unwrap();
            if let Some(a) = ans {
                assert!(a.members.contains(&0), "{method:?}");
            }
        }
    }

    #[test]
    fn missing_attribute_is_rejected_for_attributed_methods() {
        let engine = CodEngine::new(toy(), cfg());
        let mut rng = SmallRng::seed_from_u64(1);
        for method in [Method::Codr, Method::CodlMinus, Method::Codl] {
            let err = engine
                .query(
                    Query {
                        node: 0,
                        attr: None,
                        method,
                    },
                    &mut rng,
                )
                .unwrap_err();
            assert!(
                matches!(err, CodError::InvalidQuery(_)),
                "{method:?}: {err}"
            );
        }
        // CODU ignores the attribute entirely.
        assert!(engine.query(Query::codu(0), &mut rng).is_ok());
    }

    #[test]
    fn repeat_attribute_queries_hit_the_cache() {
        let engine = CodEngine::new(toy(), cfg());
        let mut rng = SmallRng::seed_from_u64(5);
        let q = Query::new(0, 0, Method::Codr);
        let first = engine.query(q, &mut rng).unwrap();
        let second = engine.query(q, &mut rng).unwrap();
        assert_eq!(
            first.as_ref().map(|a| a.cache),
            Some(Some(CacheOutcome::Miss))
        );
        assert_eq!(
            second.as_ref().map(|a| a.cache),
            Some(Some(CacheOutcome::Hit))
        );
        let stats = engine.cache_stats();
        assert!(stats.hits >= 1 && stats.misses >= 1);
    }

    #[test]
    fn batch_of_errors_and_answers_keeps_positions() {
        let engine = CodEngine::new(toy(), cfg());
        let mut rng = SmallRng::seed_from_u64(9);
        let queries = [
            Query::codu(0),
            Query::codu(99), // out of range
            Query::new(3, 1, Method::Codr),
        ];
        let results = engine.query_batch(&queries, &mut rng);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CodError::InvalidQuery(_))));
        assert!(results[2].is_ok());
    }
}
