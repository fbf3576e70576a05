//! Bounded LRU cache for reclustered hierarchies.
//!
//! CODR rebuilds the global attribute-weighted hierarchy `T_ℓ` per query
//! and LORE rebuilds the local `C_ℓ` hierarchy per query — under one
//! engine's fixed `β`, both pure functions of the attribute
//! (plus the LORE community vertex).
//! Under realistic workloads queries concentrate on a few popular
//! attributes, so the serving layer keeps the last few artifacts around.
//! Because reclustering is deterministic, serving a cached artifact is
//! *exactly* the artifact a cold build would produce: cache state can never
//! change an answer, only its latency.
//!
//! The cache is a mutex-guarded vector scanned linearly. Capacities are
//! small (default 64) and artifacts are large, so a scan beats the constant
//! factors of a hash map + intrusive list, and `CacheKey` only needs
//! `PartialEq`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cod_graph::subgraph::Subgraph;
use cod_graph::AttrId;
use cod_hierarchy::{Hierarchy, VertexId};

/// A cached LORE local recluster: the induced subgraph of `C_ℓ` plus the
/// reclustered hierarchy over it.
pub struct LocalRecluster {
    /// The induced subgraph of the selected community `C_ℓ`.
    pub sub: Subgraph,
    /// The attribute-weighted hierarchy over `sub` with its LCA index.
    pub hier: Hierarchy,
}

/// What a cached artifact was derived from. `β` is not part of it: an
/// engine's [`crate::CodConfig`] never changes after construction, so
/// every lookup of one cache shares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CacheKey {
    attr: AttrId,
    scope: Scope,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scope {
    /// CODR's global `T_ℓ` hierarchy.
    Global,
    /// LORE's local recluster of community `C_ℓ` (identified by its vertex
    /// in the base hierarchy).
    Local(VertexId),
}

#[derive(Clone)]
enum Artifact {
    Global(Arc<Hierarchy>),
    Local(Arc<LocalRecluster>),
}

struct Slot {
    key: CacheKey,
    artifact: Artifact,
    /// Last-touch stamp for LRU eviction (monotone per cache).
    stamp: u64,
}

/// Cumulative cache counters, readable without locking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
    /// Artifacts currently resident.
    pub len: usize,
    /// Maximum resident artifacts.
    pub capacity: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded LRU cache of reclustered hierarchies keyed by the attribute
/// (plus the community vertex for local artifacts). One cache serves one
/// `β`, as one engine does: every `build` closure passed to it must use
/// it, which is why the type stays inside this crate.
pub(crate) struct ReclusterCache {
    slots: Mutex<(Vec<Slot>, u64)>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

impl ReclusterCache {
    /// A cache holding at most `capacity` artifacts (0 disables caching:
    /// every lookup misses and nothing is retained).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            slots: Mutex::new((Vec::new(), 0)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// Fetches or builds CODR's global hierarchy for `attr`. Returns the
    /// artifact and whether it was a cache hit.
    ///
    /// `build` runs outside the cache lock — a long recluster must not
    /// stall readers of other keys. Two racing builders may both build; the
    /// loser's identical artifact is dropped. `build` returning `None` (a
    /// cancelled governed recluster) caches nothing and yields `None` — a
    /// later uncancelled query rebuilds cleanly. The miss is still counted:
    /// work was attempted.
    pub(crate) fn try_global(
        &self,
        attr: AttrId,
        build: impl FnOnce() -> Option<Arc<Hierarchy>>,
    ) -> Option<(Arc<Hierarchy>, bool)> {
        let key = CacheKey {
            attr,
            scope: Scope::Global,
        };
        match self.fetch_or_try_insert(key, || build().map(Artifact::Global))? {
            (Artifact::Global(h), hit) => Some((h, hit)),
            (Artifact::Local(_), _) => unreachable!("global key stored a local artifact"),
        }
    }

    /// Fetches or builds LORE's local recluster of community `c_ell` for
    /// `attr`, under the contract of [`ReclusterCache::try_global`].
    pub(crate) fn try_local(
        &self,
        attr: AttrId,
        c_ell: VertexId,
        build: impl FnOnce() -> Option<Arc<LocalRecluster>>,
    ) -> Option<(Arc<LocalRecluster>, bool)> {
        let key = CacheKey {
            attr,
            scope: Scope::Local(c_ell),
        };
        match self.fetch_or_try_insert(key, || build().map(Artifact::Local))? {
            (Artifact::Local(l), hit) => Some((l, hit)),
            (Artifact::Global(_), _) => unreachable!("local key stored a global artifact"),
        }
    }

    /// Core lookup-or-build: the builder runs *outside* the cache lock and
    /// may decline (`None`) — nothing is inserted then, so an interrupted
    /// build can never leave a partial artifact behind.
    fn fetch_or_try_insert(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Option<Artifact>,
    ) -> Option<(Artifact, bool)> {
        if let Some(found) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some((found, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let artifact = build()?;
        self.insert(key, artifact.clone());
        Some((artifact, false))
    }

    fn lookup(&self, key: CacheKey) -> Option<Artifact> {
        let Ok(mut guard) = self.slots.lock() else {
            return None; // poisoned: a panicking builder elsewhere; degrade to miss
        };
        let (slots, clock) = &mut *guard;
        let slot = slots.iter_mut().find(|s| s.key == key)?;
        *clock += 1;
        slot.stamp = *clock;
        Some(slot.artifact.clone())
    }

    fn insert(&self, key: CacheKey, artifact: Artifact) {
        if self.capacity == 0 {
            return;
        }
        let Ok(mut guard) = self.slots.lock() else {
            return;
        };
        let (slots, clock) = &mut *guard;
        *clock += 1;
        let stamp = *clock;
        if let Some(slot) = slots.iter_mut().find(|s| s.key == key) {
            // Raced with another builder for the same key: keep the
            // incumbent (identical by determinism), refresh recency.
            slot.stamp = stamp;
            return;
        }
        if slots.len() >= self.capacity {
            if let Some(oldest) = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)
            {
                slots.swap_remove(oldest);
            }
        }
        slots.push(Slot {
            key,
            artifact,
            stamp,
        });
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let len = self.slots.lock().map(|g| g.0.len()).unwrap_or(0);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len,
            capacity: self.capacity,
        }
    }

    /// Drops every cached artifact (counters are kept).
    pub(crate) fn clear(&self) {
        if let Ok(mut guard) = self.slots.lock() {
            guard.0.clear();
        }
    }

    /// Drops only the artifacts a mutation footprint can have invalidated;
    /// returns how many were dropped.
    ///
    /// * A **topology** footprint clears everything — every reclustered
    ///   hierarchy embeds the adjacency structure.
    /// * A pure **attribute** footprint drops only the entries keyed by a
    ///   touched attribute: `g_ℓ`'s edge weights depend solely on which
    ///   endpoints carry `ℓ`, so artifacts of untouched attributes are
    ///   bit-identical to what a rebuild would produce and stay resident.
    pub(crate) fn invalidate_scoped(&self, footprint: &crate::mutation::Footprint) -> usize {
        let Ok(mut guard) = self.slots.lock() else {
            return 0;
        };
        let before = guard.0.len();
        if footprint.touches_topology() {
            guard.0.clear();
        } else {
            guard.0.retain(|s| !footprint.touches_attr(s.key.attr));
        }
        before - guard.0.len()
    }
}

impl std::fmt::Debug for ReclusterCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReclusterCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_hierarchy::Dendrogram;

    fn hier() -> Option<Arc<Hierarchy>> {
        Some(Arc::new(Hierarchy::new(Dendrogram::singleton())))
    }

    /// Looks `attr` up, building on a miss; returns whether it hit.
    fn global(cache: &ReclusterCache, attr: AttrId) -> bool {
        let found = cache.try_global(attr, hier);
        found.expect("the builder never declines").1
    }

    #[test]
    fn repeat_lookups_hit() {
        let cache = ReclusterCache::new(4);
        assert!(!global(&cache, 0));
        let (_, hit) = cache
            .try_global(0, || panic!("must not rebuild a cached artifact"))
            .unwrap();
        assert!(hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_parameters_are_distinct_entries() {
        let cache = ReclusterCache::new(8);
        global(&cache, 0);
        let hit = global(&cache, 1);
        assert!(!hit, "different attr is a different artifact");
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn lru_evicts_the_stalest_key() {
        let cache = ReclusterCache::new(2);
        global(&cache, 0);
        global(&cache, 1);
        // Touch attr 0 so attr 1 is the LRU victim.
        cache.try_global(0, || panic!("cached")).unwrap();
        global(&cache, 2);
        let hit0 = global(&cache, 0);
        let hit1 = global(&cache, 1);
        assert!(hit0, "recently touched entry survives");
        assert!(!hit1, "LRU entry was evicted");
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let cache = ReclusterCache::new(0);
        global(&cache, 0);
        let hit = global(&cache, 0);
        assert!(!hit);
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn declined_build_caches_nothing() {
        let cache = ReclusterCache::new(4);
        assert!(cache.try_global(0, || None).is_none());
        let s = cache.stats();
        assert_eq!((s.misses, s.len), (1, 0), "declined build counts a miss");
        // A later successful build inserts cleanly and then hits.
        let (_, hit) = cache.try_global(0, hier).unwrap();
        assert!(!hit);
        let (_, hit) = cache.try_global(0, || None).unwrap();
        assert!(hit, "cached artifact served without invoking the builder");
    }

    #[test]
    fn scoped_invalidation_respects_the_footprint() {
        use crate::mutation::Footprint;
        let cache = ReclusterCache::new(8);
        global(&cache, 0);
        global(&cache, 1);
        global(&cache, 2);

        // Attribute footprint: only the touched attribute's entry drops.
        let mut fp = Footprint::new();
        fp.add_attr_event(5, [1]);
        assert_eq!(cache.invalidate_scoped(&fp), 1);
        let hit0 = global(&cache, 0);
        let hit1 = global(&cache, 1);
        let hit2 = global(&cache, 2);
        assert!(hit0 && !hit1 && hit2, "only attr 1 was invalidated");

        // Topology footprint: everything drops.
        let mut fp = Footprint::new();
        fp.add_edge_event(3, 4);
        assert_eq!(cache.invalidate_scoped(&fp), 3);
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn global_and_local_keys_do_not_collide() {
        let cache = ReclusterCache::new(4);
        global(&cache, 0);
        let (_, hit) = cache
            .try_local(0, 7, || {
                let g = cod_graph::GraphBuilder::new(1).build();
                Some(Arc::new(LocalRecluster {
                    sub: Subgraph::induced(&g, &[0]),
                    hier: Hierarchy::new(Dendrogram::singleton()),
                }))
            })
            .unwrap();
        assert!(!hit, "local scope must not alias the global entry");
        assert_eq!(cache.stats().len, 2);
    }
}
