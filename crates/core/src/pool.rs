//! Cross-query shared RR-pool cache.
//!
//! The paper's core efficiency device — one RR pool shared by every
//! community of the chain `H(q)` (Theorem 2) — stops at the query
//! boundary: each query regenerates its pool from scratch. This module
//! extends the sharing *across* queries: RR graphs sampled over a given
//! `(attribute, universe)` pair are kept in an engine-level cache and
//! re-folded by later queries whose chain spans the same universe, so a
//! warm repeat-attribute workload pays only the HFS + top-k scan, never
//! the `Θ·ω` sampling term.
//!
//! # Determinism contract
//!
//! A pool's sample `i` is a pure function of `(graph, model, pool seed,
//! i)`: it is drawn entirely from `SeedSequence::rng_for(i)`, exactly
//! like the per-index compressed path. The pool seed itself is derived
//! from the cache key (attribute + universe content hash), **not** from
//! any caller RNG — so a warm pool, a cold pool, and a pool grown in
//! several top-ups are all bit-identical prefixes of the same infinite
//! sample sequence, at every thread count. `tests/pool_reuse.rs` enforces
//! this (grown ≡ fresh, warm answers ≡ cold answers).
//!
//! # Storage
//!
//! Each growth adds one chunk: an immutable `Arc<RrArena>` holding its
//! samples back to back in three flat arrays (nodes, row starts,
//! targets) plus one extent per sample, so a sample has no allocation of
//! its own. Growth draws with [`RrSampler::sample_into`] into one reused
//! [`RrGraph`] per shard, and the chunk keeps no spare capacity. A fold
//! reads the samples as [`RrView`]s, and dropping a pool frees a few
//! arrays per chunk.
//!
//! # Growth, truncation, invalidation
//!
//! * **Incremental growth**: a query needing `θ′` samples over a pool
//!   holding `θ` tops it up with samples `θ..θ′` in place; existing
//!   chunks are immutable `Arc`s, so concurrent readers are never
//!   disturbed.
//! * **Cancellation**: growth polls its `CancelToken` every
//!   [`CHECK_EVERY`] draws (with a [`Site::PoolGrow`] failpoint) and, if
//!   it stops early, keeps only the *contiguous* prefix of completed
//!   samples — a later query re-derives the dropped indices from their
//!   seeds, so a truncated pool can never introduce a gap or a duplicate.
//! * **Invalidation**: [`PoolCache::invalidate`] bumps an epoch and drops
//!   every pool (`CodEngine::clear_cache`); [`PoolCache::invalidate_scoped`]
//!   bumps it and drops the pools a `DynamicCod` mutation can stale;
//!   queries already holding an `Arc` to an old pool
//!   finish against the snapshot they started with (the graph they were
//!   planned against), new queries build fresh pools.
//! * **Eviction**: pools are evicted least-recently-used once their
//!   total resident bytes exceed the cache's byte budget; the pool a
//!   query is actively using is never evicted under it. Resident bytes
//!   are heap bytes: the sum of the chunks' [`RrArena::memory_bytes`],
//!   which is what [`RrPoolEntry::memory_bytes`], [`GrowthStats::bytes`]
//!   and the `cod_pool_cache_resident_bytes` gauge report.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use cod_graph::{AttrId, Csr, NodeId};
use cod_influence::{
    par_ranges, splitmix64, CancelToken, Model, Parallelism, RrArena, RrGraph, RrSampler, RrView,
    SeedSequence,
};

use crate::failpoint::{self, Site};

/// Cancellation poll cadence during pool growth and pooled folds, matching
/// the compressed path's per-batch checkpoint granularity.
pub const CHECK_EVERY: usize = 64;

/// Default byte budget of an engine's pool cache (LRU eviction threshold),
/// in heap bytes of pooled samples ([`RrArena::memory_bytes`]).
pub const DEFAULT_POOL_BUDGET_BYTES: usize = 256 * 1024 * 1024;

/// An immutable snapshot of a pool's sample prefix: the chunks resident
/// when the view was taken. Iterating yields samples in global index
/// order; chunk boundaries are a storage artifact and never observable in
/// the sample stream.
#[derive(Clone)]
pub struct PoolView {
    chunks: Vec<Arc<RrArena>>,
    len: usize,
}

impl PoolView {
    /// Number of samples in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pooled RR graphs in sample-index order.
    pub fn iter(&self) -> impl Iterator<Item = RrView<'_>> {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

/// What one [`RrPoolEntry::ensure`] call did, for the caller's telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GrowthStats {
    /// RR graphs added to the pool by this call.
    pub graphs: u64,
    /// Activated edges recorded while generating those graphs.
    pub edges: u64,
    /// Heap bytes of the chunk holding the added graphs
    /// ([`RrArena::memory_bytes`]).
    pub bytes: u64,
    /// Whether this call grew a non-empty pool (a top-up, as opposed to
    /// the initial fill or a pure read).
    pub topped_up: bool,
}

/// One shared RR pool: samples over a fixed `(attr, universe)` key, grown
/// on demand, bit-identical to a fresh pool of the same size.
pub struct RrPoolEntry {
    attr: Option<AttrId>,
    universe: Arc<Vec<NodeId>>,
    restricted: bool,
    seeds: SeedSequence,
    /// Serializes growth so concurrent queries never sample overlapping
    /// index ranges; reads proceed under `chunks` alone.
    grow: Mutex<()>,
    /// One arena per growth, in index order.
    chunks: RwLock<Vec<Arc<RrArena>>>,
    samples: AtomicUsize,
    bytes: AtomicUsize,
}

impl RrPoolEntry {
    /// A fresh, empty pool. `universe` must be sorted ascending (the
    /// chain-universe invariant); `restricted` says whether sampling must
    /// stay inside it (`universe` smaller than the whole graph).
    pub fn new(attr: Option<AttrId>, universe: Arc<Vec<NodeId>>, restricted: bool) -> Self {
        debug_assert!(universe.windows(2).all(|w| w[0] < w[1]));
        let seeds = SeedSequence::new(pool_seed(attr, &universe));
        Self {
            attr,
            universe,
            restricted,
            seeds,
            grow: Mutex::new(()),
            chunks: RwLock::new(Vec::new()),
            samples: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    /// The attribute of the cache key.
    pub fn attr(&self) -> Option<AttrId> {
        self.attr
    }

    /// The sorted universe the pool samples over.
    pub fn universe(&self) -> &[NodeId] {
        &self.universe
    }

    /// Whether sampling is restricted to the universe (the universe is a
    /// strict subset of the graph the pool samples).
    pub fn restricted(&self) -> bool {
        self.restricted
    }

    /// Samples currently resident.
    pub fn len(&self) -> usize {
        self.samples.load(Ordering::Acquire)
    }

    /// Whether the pool holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the resident samples occupy: the sum of the chunks'
    /// [`RrArena::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        self.bytes.load(Ordering::Acquire)
    }

    /// Chunk sizes in append order — exposed so tests can assert that
    /// top-ups tile the index space contiguously (injective, gap-free).
    pub fn chunk_lens(&self) -> Vec<usize> {
        match self.chunks.read() {
            Ok(c) => c.iter().map(|chunk| chunk.len()).collect(),
            Err(p) => p.into_inner().iter().map(|chunk| chunk.len()).collect(),
        }
    }

    /// Grows the pool to at least `theta` samples (if it is smaller and
    /// the token allows) and returns a view of the resident prefix plus
    /// what this call added. The view may hold fewer than `theta` samples
    /// only if growth was cancelled mid-way.
    pub fn ensure(
        &self,
        g: &Csr,
        model: Model,
        theta: usize,
        par: Parallelism,
        cancel: Option<&CancelToken>,
    ) -> (PoolView, GrowthStats) {
        let mut grown = GrowthStats::default();
        if self.len() < theta {
            let _guard = match self.grow.lock() {
                Ok(g) => g,
                // A poisoned growth lock means a grower panicked before
                // appending; the chunk list is still consistent.
                Err(p) => p.into_inner(),
            };
            let have = self.samples.load(Ordering::Acquire);
            if have < theta {
                grown = self.grow_locked(g, model, have, theta, par, cancel);
            }
        }
        let chunks = match self.chunks.read() {
            Ok(c) => c.clone(),
            Err(p) => p.into_inner().clone(),
        };
        let len = chunks.iter().map(|c| c.len()).sum();
        (PoolView { chunks, len }, grown)
    }

    /// Samples indices `have..theta` and appends the contiguous completed
    /// prefix as one immutable chunk. Caller holds the growth lock.
    ///
    /// Each shard draws into one reused [`RrGraph`] and copies it into its
    /// own [`RrArena`]; the shards join in index order and the chunk drops
    /// its spare capacity, so it holds exactly its samples.
    fn grow_locked(
        &self,
        g: &Csr,
        model: Model,
        have: usize,
        theta: usize,
        par: Parallelism,
        cancel: Option<&CancelToken>,
    ) -> GrowthStats {
        let n = theta - have;
        // Universe membership as a dense table, so the restricted sampler's
        // `keep` is one load per live edge instead of a binary search.
        let mut inside = Vec::new();
        if self.restricted {
            inside.resize(self.universe.last().map_or(0, |&v| v as usize + 1), false);
            for &v in self.universe.iter() {
                inside[v as usize] = true;
            }
        }
        let inside = &inside;
        let shards = par_ranges(n, par.thread_count(), |range| {
            let mut sampler = RrSampler::new(g, model);
            let mut rr = RrGraph::default();
            let mut out = RrArena::default();
            let mut edges = 0u64;
            let mut complete = true;
            for (j, i) in range.enumerate() {
                if j % CHECK_EVERY == 0 {
                    failpoint::hit(Site::PoolGrow, cancel);
                    if cancel.is_some_and(CancelToken::should_stop) {
                        complete = false;
                        break;
                    }
                }
                let mut rng = self.seeds.rng_for((have + i) as u64);
                let s = self.universe[rand::Rng::random_range(&mut rng, 0..self.universe.len())];
                if self.restricted {
                    let keep = |v: NodeId| inside.get(v as usize).copied().unwrap_or(false);
                    sampler.sample_into(s, &mut rng, keep, &mut rr);
                } else {
                    sampler.sample_into(s, &mut rng, |_| true, &mut rr);
                }
                let drawn = rr.view();
                edges += drawn.num_edges() as u64;
                out.push(drawn);
            }
            (out, edges, complete)
        });

        // Keep only the contiguous prefix of completed samples: once a
        // shard stopped early, everything after it would leave a gap in
        // the index space, so it is dropped and re-derived later.
        let mut fresh = RrArena::default();
        let mut edges = 0u64;
        for (shard, shard_edges, complete) in shards {
            edges += shard_edges;
            fresh.append(shard);
            if !complete {
                break;
            }
        }
        if fresh.is_empty() {
            return GrowthStats::default();
        }
        fresh.shrink_to_fit();
        let bytes = fresh.memory_bytes();
        let stats = GrowthStats {
            graphs: fresh.len() as u64,
            edges,
            bytes: bytes as u64,
            topped_up: have > 0,
        };
        let added = fresh.len();
        let mut w = match self.chunks.write() {
            Ok(w) => w,
            Err(p) => p.into_inner(),
        };
        w.push(Arc::new(fresh));
        self.bytes.fetch_add(bytes, Ordering::AcqRel);
        self.samples.store(have + added, Ordering::Release);
        stats
    }
}

/// What one [`PoolCache::get_or_create`] lookup did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolLookup {
    /// Whether an existing pool matched the key.
    pub hit: bool,
    /// Bytes of pooled samples the lookup's insertion evicted.
    pub evicted_bytes: u64,
}

/// Point-in-time gauges of a [`PoolCache`], for the metrics exposition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCacheStats {
    /// Pools currently resident.
    pub pools: usize,
    /// Total heap bytes of resident pooled samples.
    pub resident_bytes: usize,
    /// The eviction threshold.
    pub budget_bytes: usize,
    /// Invalidation epoch (bumped by every [`PoolCache::invalidate`]).
    pub epoch: u64,
}

struct Slot {
    entry: Arc<RrPoolEntry>,
    stamp: u64,
}

/// The engine-level cache of shared RR pools: keyed lookup, LRU byte-budget
/// eviction, epoch-based invalidation.
///
/// Mirrors the recluster cache's concurrency discipline: one mutex over
/// `(slots, clock)`, sampling always outside the lock, and a poisoned lock
/// degrades to cache-miss behaviour (a detached pool that is simply never
/// cached) rather than wedging queries.
pub struct PoolCache {
    slots: Mutex<(Vec<Slot>, u64)>,
    budget_bytes: usize,
    epoch: AtomicU64,
}

impl PoolCache {
    /// An empty cache evicting past `budget_bytes` of pooled samples.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            slots: Mutex::new((Vec::new(), 0)),
            budget_bytes,
            epoch: AtomicU64::new(0),
        }
    }

    /// The pool for `(attr, universe)`, creating an empty one on miss.
    /// `restricted` must be `universe.len() < g.num_nodes()` for the graph
    /// the pool will sample. On insertion, least-recently-used pools are
    /// evicted until the byte budget holds again (never the pool being
    /// returned).
    pub fn get_or_create(
        &self,
        attr: Option<AttrId>,
        universe: &[NodeId],
        restricted: bool,
    ) -> (Arc<RrPoolEntry>, PoolLookup) {
        let make = || {
            Arc::new(RrPoolEntry::new(
                attr,
                Arc::new(universe.to_vec()),
                restricted,
            ))
        };
        let Ok(mut guard) = self.slots.lock() else {
            // Poisoned: serve a detached pool; correctness never depends
            // on the cache remembering anything.
            return (make(), PoolLookup::default());
        };
        let (slots, clock) = &mut *guard;
        *clock += 1;
        let stamp = *clock;
        if let Some(slot) = slots
            .iter_mut()
            .find(|s| s.entry.attr == attr && s.entry.universe[..] == *universe)
        {
            slot.stamp = stamp;
            return (
                Arc::clone(&slot.entry),
                PoolLookup {
                    hit: true,
                    evicted_bytes: 0,
                },
            );
        }
        let entry = make();
        slots.push(Slot {
            entry: Arc::clone(&entry),
            stamp,
        });
        let evicted_bytes = evict_over_budget(slots, self.budget_bytes, &entry);
        (
            entry,
            PoolLookup {
                hit: false,
                evicted_bytes,
            },
        )
    }

    /// Re-applies the byte budget after `keep` grew (growth happens
    /// outside the cache lock, so insertion-time eviction can't see it).
    /// Returns the bytes evicted; `keep` itself is never evicted.
    pub fn enforce_budget(&self, keep: &Arc<RrPoolEntry>) -> u64 {
        let Ok(mut guard) = self.slots.lock() else {
            return 0;
        };
        evict_over_budget(&mut guard.0, self.budget_bytes, keep)
    }

    /// Drops every pool and bumps the epoch. Called on `clear_cache`,
    /// which an explicit `DynamicCod::rebuild` also calls — a pool sampled
    /// on the old graph must never serve a query planned against the new
    /// one.
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        if let Ok(mut guard) = self.slots.lock() {
            guard.0.clear();
        }
    }

    /// Drops only the pools matching `pred`, leaving the rest resident.
    /// Returns `(pools dropped, bytes dropped)`.
    ///
    /// This is the scoped-invalidation path `DynamicCod` takes through
    /// `CodEngine::invalidate_scoped`: a
    /// mutation's [`Footprint`](crate::mutation::Footprint) translates to a
    /// predicate over `(attr, universe, restricted)`, so a `set_attrs` on
    /// one attribute no longer evicts pools of unrelated attributes. The
    /// epoch is bumped unconditionally — an invalidation event occurred
    /// even when no resident pool matched it.
    pub fn invalidate_scoped(&self, pred: impl Fn(&RrPoolEntry) -> bool) -> (usize, u64) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let Ok(mut guard) = self.slots.lock() else {
            return (0, 0);
        };
        let before = guard.0.len();
        let mut bytes = 0u64;
        guard.0.retain(|s| {
            if pred(&s.entry) {
                bytes += s.entry.memory_bytes() as u64;
                false
            } else {
                true
            }
        });
        (before - guard.0.len(), bytes)
    }

    /// The current invalidation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Current gauges.
    pub fn stats(&self) -> PoolCacheStats {
        let (pools, resident_bytes) = match self.slots.lock() {
            Ok(guard) => (
                guard.0.len(),
                guard.0.iter().map(|s| s.entry.memory_bytes()).sum(),
            ),
            Err(_) => (0, 0),
        };
        PoolCacheStats {
            pools,
            resident_bytes,
            budget_bytes: self.budget_bytes,
            epoch: self.epoch(),
        }
    }
}

/// Evicts least-recently-used slots (never `keep`) until resident bytes
/// fit the budget. Returns the bytes evicted. A single over-budget pool
/// that is currently in use stays resident — the budget bounds steady
/// state, not one query's working set.
fn evict_over_budget(slots: &mut Vec<Slot>, budget: usize, keep: &Arc<RrPoolEntry>) -> u64 {
    let mut evicted = 0u64;
    loop {
        let total: usize = slots.iter().map(|s| s.entry.memory_bytes()).sum();
        if total <= budget {
            return evicted;
        }
        let victim = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !Arc::ptr_eq(&s.entry, keep))
            .min_by_key(|(_, s)| s.stamp)
            .map(|(i, _)| i);
        let Some(i) = victim else {
            return evicted;
        };
        evicted += slots.swap_remove(i).entry.memory_bytes() as u64;
    }
}

/// The deterministic pool master seed: a splitmix fold of the attribute
/// and the universe contents. Key-derived (no caller RNG), so every
/// engine, every run, and every top-up schedule builds the identical
/// sample sequence for a given key.
fn pool_seed(attr: Option<AttrId>, universe: &[NodeId]) -> u64 {
    let mut h = splitmix64(0xC0D_9001 ^ attr.map_or(u64::MAX, u64::from));
    for &v in universe {
        h = splitmix64(h ^ u64::from(v));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;

    fn ring(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            b.add_edge(v as NodeId, ((v + 1) % n) as NodeId);
        }
        b.build()
    }

    fn universe(n: usize) -> Arc<Vec<NodeId>> {
        Arc::new((0..n as NodeId).collect())
    }

    #[test]
    fn grown_pool_is_bit_identical_to_fresh_pool() {
        let g = ring(24);
        let u = universe(24);
        let grown = RrPoolEntry::new(None, u.clone(), false);
        let (_, s1) = grown.ensure(
            &g,
            Model::WeightedCascade,
            50,
            Parallelism::Threads(1),
            None,
        );
        assert!(!s1.topped_up);
        let (gv, s2) = grown.ensure(
            &g,
            Model::WeightedCascade,
            130,
            Parallelism::Threads(2),
            None,
        );
        assert!(s2.topped_up && s2.graphs == 80);
        let fresh = RrPoolEntry::new(None, u, false);
        let (fv, _) = fresh.ensure(
            &g,
            Model::WeightedCascade,
            130,
            Parallelism::Threads(1),
            None,
        );
        assert_eq!(gv.len(), 130);
        assert_eq!(fv.len(), 130);
        assert!(gv.iter().eq(fv.iter()), "top-up diverged from fresh pool");
        assert_eq!(grown.chunk_lens(), vec![50, 80]);
    }

    #[test]
    fn ensure_at_or_below_resident_size_is_a_pure_read() {
        let g = ring(8);
        let entry = RrPoolEntry::new(Some(3), universe(8), false);
        entry.ensure(
            &g,
            Model::WeightedCascade,
            40,
            Parallelism::Threads(1),
            None,
        );
        let bytes = entry.memory_bytes();
        let (view, stats) = entry.ensure(
            &g,
            Model::WeightedCascade,
            40,
            Parallelism::Threads(1),
            None,
        );
        assert_eq!(stats, GrowthStats::default());
        assert_eq!(view.len(), 40);
        assert_eq!(entry.memory_bytes(), bytes);
    }

    #[test]
    fn cancelled_growth_keeps_a_contiguous_prefix() {
        let g = ring(16);
        let entry = RrPoolEntry::new(None, universe(16), false);
        let token = CancelToken::unlimited();
        token.cancel();
        let (view, stats) = entry.ensure(
            &g,
            Model::WeightedCascade,
            200,
            Parallelism::Threads(2),
            Some(&token),
        );
        assert_eq!(stats, GrowthStats::default());
        assert_eq!(view.len(), 0, "pre-cancelled token admits no samples");
        // The dropped indices are re-derived later: a clean ensure ends up
        // identical to a never-cancelled pool.
        let (v2, _) = entry.ensure(
            &g,
            Model::WeightedCascade,
            200,
            Parallelism::Threads(1),
            None,
        );
        let fresh = RrPoolEntry::new(None, universe(16), false);
        let (fv, _) = fresh.ensure(
            &g,
            Model::WeightedCascade,
            200,
            Parallelism::Threads(1),
            None,
        );
        assert!(v2.iter().eq(fv.iter()));
    }

    /// A pool counts the heap bytes of its arenas, each trimmed to its
    /// samples, and the cache's resident bytes sum the resident pools.
    #[test]
    fn pool_bytes_are_the_sum_of_its_chunk_arenas() {
        let g = ring(20);
        let cache = PoolCache::new(usize::MAX);
        let u: Vec<NodeId> = (0..20).collect();
        let (a, _) = cache.get_or_create(Some(1), &u, false);
        let (b, _) = cache.get_or_create(Some(2), &u[..9], true);
        for (entry, thetas) in [(&a, [40, 110]), (&b, [15, 60])] {
            for theta in thetas {
                let (_, grown) = entry.ensure(
                    &g,
                    Model::WeightedCascade,
                    theta,
                    Parallelism::Threads(2),
                    None,
                );
                let chunks = entry.chunks.read().unwrap();
                let last = chunks.last().unwrap();
                assert_eq!(grown.bytes, last.memory_bytes() as u64);
                // A clone holds exactly its contents: the chunk has no slack.
                assert_eq!(last.memory_bytes(), (**last).clone().memory_bytes());
                let sum: usize = chunks.iter().map(|c| c.memory_bytes()).sum();
                assert_eq!(entry.memory_bytes(), sum);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, a.memory_bytes() + b.memory_bytes());
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn cache_hits_by_key_and_misses_across_keys() {
        let cache = PoolCache::new(usize::MAX);
        let u: Vec<NodeId> = (0..10).collect();
        let (a, l1) = cache.get_or_create(Some(1), &u, false);
        assert!(!l1.hit);
        let (b, l2) = cache.get_or_create(Some(1), &u, false);
        assert!(l2.hit);
        assert!(Arc::ptr_eq(&a, &b));
        let (_, l3) = cache.get_or_create(Some(2), &u, false);
        assert!(!l3.hit, "attr is part of the key");
        let (_, l4) = cache.get_or_create(Some(1), &u[..5], true);
        assert!(!l4.hit, "universe is part of the key");
        assert_eq!(cache.stats().pools, 3);
    }

    #[test]
    fn invalidate_bumps_epoch_and_clears() {
        let cache = PoolCache::new(usize::MAX);
        let u: Vec<NodeId> = (0..4).collect();
        cache.get_or_create(None, &u, false);
        assert_eq!(cache.stats().pools, 1);
        let e0 = cache.epoch();
        cache.invalidate();
        assert_eq!(cache.epoch(), e0 + 1);
        assert_eq!(cache.stats().pools, 0);
        let (_, l) = cache.get_or_create(None, &u, false);
        assert!(!l.hit, "post-invalidation lookup rebuilds");
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let g = ring(12);
        let cache = PoolCache::new(1); // any grown pool is over budget
        let ua: Vec<NodeId> = (0..12).collect();
        let ub: Vec<NodeId> = (0..6).collect();
        let (a, _) = cache.get_or_create(Some(1), &ua, false);
        a.ensure(
            &g,
            Model::WeightedCascade,
            30,
            Parallelism::Threads(1),
            None,
        );
        assert!(cache.enforce_budget(&a) == 0, "the active pool survives");
        assert_eq!(cache.stats().pools, 1);
        // A second pool's insertion forces the first (older stamp) out.
        let (b, lookup) = cache.get_or_create(Some(2), &ub, true);
        assert!(
            lookup.evicted_bytes > 0,
            "insertion evicts the grown older pool"
        );
        assert_eq!(cache.stats().pools, 1);
        // Post-growth re-enforcement never evicts the pool in use, even
        // though it alone is over budget.
        b.ensure(
            &g,
            Model::WeightedCascade,
            10,
            Parallelism::Threads(1),
            None,
        );
        assert_eq!(cache.enforce_budget(&b), 0);
        assert_eq!(cache.stats().pools, 1);
        let (_, l) = cache.get_or_create(Some(2), &ub, true);
        assert!(l.hit, "the kept pool is the recently used one");
    }

    #[test]
    fn scoped_invalidation_drops_only_matching_pools() {
        let g = ring(12);
        let cache = PoolCache::new(usize::MAX);
        let full: Vec<NodeId> = (0..12).collect();
        let sub: Vec<NodeId> = (0..6).collect();
        let (a, _) = cache.get_or_create(Some(1), &full, false);
        let (b, _) = cache.get_or_create(Some(2), &sub, true);
        a.ensure(
            &g,
            Model::WeightedCascade,
            20,
            Parallelism::Threads(1),
            None,
        );
        b.ensure(
            &g,
            Model::WeightedCascade,
            20,
            Parallelism::Threads(1),
            None,
        );
        let e0 = cache.epoch();
        let (dropped, bytes) = cache.invalidate_scoped(|e| e.attr() == Some(1));
        assert_eq!(dropped, 1);
        assert!(bytes > 0);
        assert_eq!(cache.epoch(), e0 + 1);
        assert_eq!(cache.stats().pools, 1);
        let (_, l) = cache.get_or_create(Some(2), &sub, true);
        assert!(l.hit, "the unmatched pool stays resident");
        // A predicate that matches nothing still bumps the epoch (an
        // invalidation event happened) but drops nothing.
        let (d2, b2) = cache.invalidate_scoped(|e| e.attr() == Some(9));
        assert_eq!((d2, b2), (0, 0));
        assert_eq!(cache.epoch(), e0 + 2);
        assert_eq!(cache.stats().pools, 1);
        // Universe-scoped predicate: a restricted pool whose universe
        // contains a touched endpoint is dropped.
        let (d3, _) =
            cache.invalidate_scoped(|e| !e.restricted() || e.universe().binary_search(&3).is_ok());
        assert_eq!(d3, 1);
        assert_eq!(cache.stats().pools, 0);
    }

    #[test]
    fn pool_seed_separates_keys_deterministically() {
        let u: Vec<NodeId> = (0..9).collect();
        assert_eq!(pool_seed(None, &u), pool_seed(None, &u));
        assert_ne!(pool_seed(None, &u), pool_seed(Some(0), &u));
        assert_ne!(pool_seed(Some(1), &u), pool_seed(Some(2), &u));
        assert_ne!(pool_seed(None, &u[..8]), pool_seed(None, &u));
    }
}
