//! Query observability: per-phase timers, event counters, per-query traces
//! and the engine-level metrics registry.
//!
//! The paper's cost claims are *per-phase* claims — compressed evaluation
//! replaces per-community sampling with one shared `Θ·ω` pass, LORE
//! replaces a global recluster with a local one, HIMOR replaces evaluation
//! with a lookup. This module makes each of those costs visible at query
//! time without disturbing them:
//!
//! * [`Counter`] — the closed set of event counters (RR graphs sampled, RR
//!   edges traversed, HFS visits/prunes, top-k ops, recluster builds, HIMOR
//!   merges, cache hits/misses, index hits);
//! * [`Phase`] — the closed set of query phases (plan, recluster, HIMOR
//!   build, sample generation + HFS, incremental top-k);
//! * [`TraceSink`] — a plain-integer accumulator threaded through one
//!   query's evaluation (it lives inside `QueryScratch`, so the hot path
//!   bumps local `u64`s, never shared atomics);
//! * [`QueryTrace`] — the finalized per-query snapshot surfaced in
//!   [`crate::pipeline::CodAnswer::trace`];
//! * [`MetricsRegistry`] — engine-lifetime atomic aggregates (counter
//!   totals, per-phase nanos, a query-latency histogram) with
//!   Prometheus-style text exposition.
//!
//! # Determinism and overhead contract
//!
//! Telemetry must never change an answer. Counters touch no RNG and are
//! collected unconditionally (plain `u64` adds at per-sample granularity —
//! noise next to the sampling work they count). Phase *timers* call
//! [`Instant::now`] and are gated by [`crate::CodConfig::trace`]; with
//! tracing off a query performs zero clock reads on the evaluation path.
//! Either way the RNG draw order is untouched, which the seed-replay suite
//! (`tests/telemetry.rs`) asserts bit-for-bit at 1/2/8 threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Event counters, one per cost term the paper's analysis names.
///
/// See `DESIGN.md` §10 for the exact semantics of each counter and how it
/// maps onto the paper's `Θ·ω` and `|H(q)|` terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// RR graphs actually generated (sources drawn inside the chain).
    RrGraphsSampled,
    /// Activated edges recorded across all generated RR graphs — the `ω`
    /// factor of the paper's `O(Θ·ω)` sampling cost.
    RrEdgesTraversed,
    /// Nodes recorded into a level bucket by hierarchical-first search.
    HfsNodesVisited,
    /// RR nodes pruned by HFS: reachable in the RR graph but outside every
    /// chain community (plus sources drawn outside the chain).
    HfsNodesPruned,
    /// Candidate evaluations in the incremental top-k scan
    /// (`|pool ∪ bucket|` summed over levels — the `|H(q)|`-driven term).
    TopKHeapOps,
    /// Reclustered hierarchies built (global `T_ℓ` + local `C_ℓ`).
    ReclusterBuilds,
    /// HIMOR index constructions.
    HimorBuilds,
    /// Bottom-up bucket merges during HIMOR construction (one per internal
    /// vertex of `T`).
    HimorBucketMerges,
    /// Queries answered straight from the HIMOR index (Algorithm 3 lines
    /// 1–2; no sampling).
    HimorIndexHits,
    /// Recluster-cache hits observed by queries.
    CacheHits,
    /// Recluster-cache misses observed by queries.
    CacheMisses,
    /// Shared RR-pool cache lookups that found a pool for the query's
    /// `(attr, universe)` key.
    PoolHits,
    /// Shared RR-pool cache lookups that had to create a fresh pool.
    PoolMisses,
    /// Incremental pool growths (a query needed θ′ > θ and topped the
    /// shared pool up in place).
    PoolTopups,
    /// Bytes of pooled RR graphs evicted by the byte-budget LRU, charged
    /// to the query whose insertion forced the eviction.
    PoolEvictedBytes,
}

/// All counters, in `repr` order (the order snapshots iterate in).
pub const COUNTERS: [Counter; NUM_COUNTERS] = [
    Counter::RrGraphsSampled,
    Counter::RrEdgesTraversed,
    Counter::HfsNodesVisited,
    Counter::HfsNodesPruned,
    Counter::TopKHeapOps,
    Counter::ReclusterBuilds,
    Counter::HimorBuilds,
    Counter::HimorBucketMerges,
    Counter::HimorIndexHits,
    Counter::CacheHits,
    Counter::CacheMisses,
    Counter::PoolHits,
    Counter::PoolMisses,
    Counter::PoolTopups,
    Counter::PoolEvictedBytes,
];

/// Number of distinct [`Counter`]s.
pub const NUM_COUNTERS: usize = 15;

impl Counter {
    /// Stable snake_case name (used by the Prometheus exposition and the
    /// bench-report JSON schema — renames break `BENCH_BASELINE.json`).
    pub fn name(self) -> &'static str {
        match self {
            Counter::RrGraphsSampled => "rr_graphs_sampled",
            Counter::RrEdgesTraversed => "rr_edges_traversed",
            Counter::HfsNodesVisited => "hfs_nodes_visited",
            Counter::HfsNodesPruned => "hfs_nodes_pruned",
            Counter::TopKHeapOps => "topk_heap_ops",
            Counter::ReclusterBuilds => "recluster_builds",
            Counter::HimorBuilds => "himor_builds",
            Counter::HimorBucketMerges => "himor_bucket_merges",
            Counter::HimorIndexHits => "himor_index_hits",
            Counter::CacheHits => "recluster_cache_hits",
            Counter::CacheMisses => "recluster_cache_misses",
            Counter::PoolHits => "pool_hits",
            Counter::PoolMisses => "pool_misses",
            Counter::PoolTopups => "pool_topups",
            Counter::PoolEvictedBytes => "pool_evicted_bytes",
        }
    }

    /// One-line help text for the exposition format.
    pub fn help(self) -> &'static str {
        match self {
            Counter::RrGraphsSampled => "RR graphs generated",
            Counter::RrEdgesTraversed => "activated RR edges recorded (the omega in Theta*omega)",
            Counter::HfsNodesVisited => "RR nodes recorded into chain buckets by HFS",
            Counter::HfsNodesPruned => "RR nodes pruned by HFS as outside every chain community",
            Counter::TopKHeapOps => "candidate evaluations in the incremental top-k scan",
            Counter::ReclusterBuilds => "reclustered hierarchies built (global + local)",
            Counter::HimorBuilds => "HIMOR index constructions",
            Counter::HimorBucketMerges => "bucket merges during HIMOR construction",
            Counter::HimorIndexHits => "queries answered from the HIMOR index without sampling",
            Counter::CacheHits => "recluster-cache hits observed by queries",
            Counter::CacheMisses => "recluster-cache misses observed by queries",
            Counter::PoolHits => "shared RR-pool cache hits observed by queries",
            Counter::PoolMisses => "shared RR-pool cache misses observed by queries",
            Counter::PoolTopups => "incremental shared RR-pool growths",
            Counter::PoolEvictedBytes => "pooled RR-graph bytes evicted by the byte-budget LRU",
        }
    }
}

/// Query phases, bounding the intervals the timers measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Sequential planning: validation, artifact lookup, LORE selection,
    /// HIMOR index probe, master-seed draw.
    Plan,
    /// Building a reclustered hierarchy on a cache miss (global `T_ℓ` or
    /// local `C_ℓ`).
    Recluster,
    /// One-time HIMOR index construction (charged to the query that
    /// triggers it).
    HimorBuild,
    /// Stage 1 of Algorithm 1: shared RR sample generation + HFS.
    Sample,
    /// Stage 2 of Algorithm 1: the incremental top-k scan.
    TopK,
}

/// All phases, in `repr` order.
pub const PHASES: [Phase; NUM_PHASES] = [
    Phase::Plan,
    Phase::Recluster,
    Phase::HimorBuild,
    Phase::Sample,
    Phase::TopK,
];

/// Number of distinct [`Phase`]s.
pub const NUM_PHASES: usize = 5;

impl Phase {
    /// Stable snake_case name for the exposition format.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Recluster => "recluster",
            Phase::HimorBuild => "himor_build",
            Phase::Sample => "sample",
            Phase::TopK => "topk",
        }
    }
}

/// An immutable counter snapshot (one value per [`Counter`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot([u64; NUM_COUNTERS]);

impl CounterSnapshot {
    /// The value of one counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// Iterates `(counter, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        COUNTERS.iter().map(move |&c| (c, self.0[c as usize]))
    }
}

/// Per-phase elapsed nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos([u64; NUM_PHASES]);

impl PhaseNanos {
    /// Elapsed nanoseconds attributed to `phase`.
    #[inline]
    pub fn get(&self, p: Phase) -> u64 {
        self.0[p as usize]
    }

    /// Iterates `(phase, nanos)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        PHASES.iter().map(move |&p| (p, self.0[p as usize]))
    }

    /// Total accounted nanoseconds across all phases.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// One query's finalized telemetry: counter deltas plus per-phase
/// durations. Attached to answers as [`crate::pipeline::CodAnswer::trace`]
/// when [`crate::CodConfig::trace`] is set.
///
/// Durations are only non-zero under tracing; the counters are exact either
/// way. Like the cache diagnostic, traces are excluded from `CodAnswer`
/// equality — a traced answer *is* the untraced answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Events this query caused (including any one-time artifact builds it
    /// triggered, which the paper also charges to the triggering query).
    pub counters: CounterSnapshot,
    /// Wall-clock nanoseconds per phase (zero when tracing is disabled).
    pub phases: PhaseNanos,
}

impl QueryTrace {
    /// Total accounted nanoseconds (the sum of the phase durations).
    pub fn total_nanos(&self) -> u64 {
        self.phases.total()
    }

    /// One-line human-readable rendering (the CLI `--trace` output).
    pub fn render_line(&self) -> String {
        let us = |p: Phase| self.phases.get(p) as f64 / 1_000.0;
        format!(
            "trace: plan {:.0}us recluster {:.0}us himor {:.0}us sample {:.0}us topk {:.0}us | \
             rr {} edges {} hfs {}+{} topk-ops {}",
            us(Phase::Plan),
            us(Phase::Recluster),
            us(Phase::HimorBuild),
            us(Phase::Sample),
            us(Phase::TopK),
            self.counters.get(Counter::RrGraphsSampled),
            self.counters.get(Counter::RrEdgesTraversed),
            self.counters.get(Counter::HfsNodesVisited),
            self.counters.get(Counter::HfsNodesPruned),
            self.counters.get(Counter::TopKHeapOps),
        )
    }
}

/// A mutable per-query accumulator of counters and phase durations.
///
/// Lives inside `QueryScratch` (one per worker), so increments on the
/// evaluation hot path are plain integer adds with no sharing. The engine
/// resets it before each evaluation and folds the result into its
/// [`MetricsRegistry`] afterwards.
#[derive(Debug, Default)]
pub struct TraceSink {
    counters: [u64; NUM_COUNTERS],
    phase_nanos: [u64; NUM_PHASES],
    /// Whether phase timers are armed ([`crate::CodConfig::trace`]). Counter
    /// collection is unconditional.
    timing: bool,
}

impl TraceSink {
    /// A fresh sink; `timing` arms the phase timers.
    pub fn new(timing: bool) -> Self {
        Self {
            timing,
            ..Self::default()
        }
    }

    /// Whether phase timers are armed.
    #[inline]
    pub fn timing(&self) -> bool {
        self.timing
    }

    /// Clears all accumulated values and (re)arms the timers.
    pub fn reset(&mut self, timing: bool) {
        self.counters = [0; NUM_COUNTERS];
        self.phase_nanos = [0; NUM_PHASES];
        self.timing = timing;
    }

    /// Adds `n` events to `counter`.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.counters[counter as usize] += n;
    }

    /// Adds one event to `counter`.
    #[inline]
    pub fn incr(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Runs `f`, attributing its wall-clock time to `phase` when timing is
    /// armed. With timing off this is a direct call — no clock reads.
    #[inline]
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        if !self.timing {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.phase_nanos[phase as usize] += start.elapsed().as_nanos() as u64;
        out
    }

    /// Adds pre-measured nanoseconds to `phase` (for intervals measured by
    /// the caller, e.g. around a cache-miss build).
    #[inline]
    pub fn add_nanos(&mut self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase as usize] += nanos;
    }

    /// Folds a finalized trace back into this sink (used to combine a
    /// query's plan-pass sink with the trace of its evaluation, which may
    /// have run in a different workspace).
    pub fn absorb(&mut self, t: &QueryTrace) {
        for (c, v) in t.counters.iter() {
            self.add(c, v);
        }
        for (p, n) in t.phases.iter() {
            self.add_nanos(p, n);
        }
    }

    /// Folds another sink's accumulated values into this one (used to
    /// combine a query's plan-pass sink with its evaluation sink).
    pub fn merge(&mut self, other: &TraceSink) {
        for (slot, v) in self.counters.iter_mut().zip(other.counters) {
            *slot += v;
        }
        for (slot, v) in self.phase_nanos.iter_mut().zip(other.phase_nanos) {
            *slot += v;
        }
    }

    /// Snapshots the accumulated values as an immutable [`QueryTrace`].
    pub fn trace(&self) -> QueryTrace {
        QueryTrace {
            counters: CounterSnapshot(self.counters),
            phases: PhaseNanos(self.phase_nanos),
        }
    }

    /// Returns the accumulated trace and clears the sink for reuse
    /// (retaining the timing flag).
    pub fn take(&mut self) -> QueryTrace {
        let out = self.trace();
        let timing = self.timing;
        self.reset(timing);
        out
    }
}

/// Upper bucket bounds (nanoseconds) of the query-latency histogram:
/// 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s, then +Inf.
const LATENCY_BUCKETS_NS: [u64; 7] = [
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Engine-lifetime aggregates: counter totals, per-phase nanosecond totals,
/// query outcome tallies and a latency histogram, all relaxed atomics so
/// parallel batch workers can record without coordination.
///
/// Exposed by [`crate::CodEngine::metrics`] (a [`MetricsSnapshot`]) and
/// [`crate::CodEngine::metrics_text`] (Prometheus-style exposition).
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; NUM_COUNTERS],
    phase_nanos: [AtomicU64; NUM_PHASES],
    queries: AtomicU64,
    answers_index: AtomicU64,
    answers_compressed: AtomicU64,
    answers_none: AtomicU64,
    errors: AtomicU64,
    answers_degraded: AtomicU64,
    queries_shed: AtomicU64,
    mutations_insert: AtomicU64,
    mutations_remove: AtomicU64,
    mutations_set_attrs: AtomicU64,
    repairs: AtomicU64,
    full_rebuilds: AtomicU64,
    repair_nanos: AtomicU64,
    himor_patch_nanos: AtomicU64,
    pool_scoped_evictions: AtomicU64,
    wal_appended_records: AtomicU64,
    wal_fsyncs: AtomicU64,
    recovery_replayed_records: AtomicU64,
    recovery_nanos: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_NS.len() + 1],
    latency_sum_nanos: AtomicU64,
    /// When this registry was created — the engine's birth, which the
    /// `cod_uptime_seconds` gauge measures from.
    started: Instant,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            counters: Default::default(),
            phase_nanos: Default::default(),
            queries: AtomicU64::new(0),
            answers_index: AtomicU64::new(0),
            answers_compressed: AtomicU64::new(0),
            answers_none: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            answers_degraded: AtomicU64::new(0),
            queries_shed: AtomicU64::new(0),
            mutations_insert: AtomicU64::new(0),
            mutations_remove: AtomicU64::new(0),
            mutations_set_attrs: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            full_rebuilds: AtomicU64::new(0),
            repair_nanos: AtomicU64::new(0),
            himor_patch_nanos: AtomicU64::new(0),
            pool_scoped_evictions: AtomicU64::new(0),
            wal_appended_records: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            recovery_replayed_records: AtomicU64::new(0),
            recovery_nanos: AtomicU64::new(0),
            latency_buckets: Default::default(),
            latency_sum_nanos: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

/// How one query concluded, for the registry's outcome tallies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Answered from the HIMOR index.
    AnswerIndex,
    /// Answered by compressed evaluation.
    AnswerCompressed,
    /// No community where the node is top-k.
    NoAnswer,
    /// The query failed validation or evaluation.
    Error,
}

impl MetricsRegistry {
    /// Folds one query's sink into the aggregates and tallies its outcome.
    /// The latency histogram only observes queries with armed timers (an
    /// untraced query has no measured duration to observe).
    pub fn record(&self, sink: &TraceSink, outcome: QueryOutcome) {
        for (slot, v) in self.counters.iter().zip(sink.counters) {
            if v != 0 {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        }
        for (slot, v) in self.phase_nanos.iter().zip(sink.phase_nanos) {
            if v != 0 {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        let tally = match outcome {
            QueryOutcome::AnswerIndex => &self.answers_index,
            QueryOutcome::AnswerCompressed => &self.answers_compressed,
            QueryOutcome::NoAnswer => &self.answers_none,
            QueryOutcome::Error => &self.errors,
        };
        tally.fetch_add(1, Ordering::Relaxed);
        if sink.timing {
            let nanos: u64 = sink.phase_nanos.iter().sum();
            let bucket = LATENCY_BUCKETS_NS
                .iter()
                .position(|&le| nanos <= le)
                .unwrap_or(LATENCY_BUCKETS_NS.len());
            self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
            self.latency_sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Tallies one degraded answer (a query limit fired and a lower rung
    /// of the degradation ladder served the answer). Recorded *in
    /// addition to* the answer's outcome tally — a degraded answer is
    /// still an answer.
    pub fn record_degraded(&self) {
        self.answers_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Tallies `n` queries shed by admission control. Shed queries never
    /// reach [`MetricsRegistry::record`]; this is their only trace.
    pub fn record_shed(&self, n: u64) {
        self.queries_shed.fetch_add(n, Ordering::Relaxed);
    }

    /// Tallies one applied graph mutation of the given kind.
    pub fn record_mutation(&self, kind: crate::mutation::MutationKind) {
        use crate::mutation::MutationKind::*;
        let tally = match kind {
            InsertEdge => &self.mutations_insert,
            RemoveEdge => &self.mutations_remove,
            SetAttrs => &self.mutations_set_attrs,
        };
        tally.fetch_add(1, Ordering::Relaxed);
    }

    /// Tallies one localized repair (dendrogram splice + HIMOR patch)
    /// absorbing a batch of mutations without a from-scratch rebuild.
    pub fn record_repair(&self) {
        self.repairs.fetch_add(1, Ordering::Relaxed);
    }

    /// Tallies one full from-scratch rebuild (the touched fraction crossed
    /// the rebuild threshold, the node count grew, or no artifacts existed
    /// to repair).
    pub fn record_full_rebuild(&self) {
        self.full_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds the wall-clock nanoseconds of one repaired flush's stages:
    /// `repair` (dendrogram splice, verification, tree and diff) and
    /// `himor_patch`.
    pub fn record_flush_phases(&self, repair_nanos: u64, himor_patch_nanos: u64) {
        self.repair_nanos.fetch_add(repair_nanos, Ordering::Relaxed);
        self.himor_patch_nanos
            .fetch_add(himor_patch_nanos, Ordering::Relaxed);
    }

    /// Tallies `n` RR pools dropped by scoped (footprint-driven)
    /// invalidation — pools that survived a mutation are the difference
    /// between this and the mutation count.
    pub fn record_pool_scoped_evictions(&self, n: u64) {
        self.pool_scoped_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Tallies one record appended to the write-ahead log.
    pub fn record_wal_append(&self) {
        self.wal_appended_records.fetch_add(1, Ordering::Relaxed);
    }

    /// Tallies one WAL fsync (policy-triggered or explicit flush).
    pub fn record_wal_fsync(&self) {
        self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a batch of WAL activity observed elsewhere (e.g. before this
    /// registry existed) into the counters.
    pub fn record_wal_activity(&self, appended: u64, fsyncs: u64) {
        self.wal_appended_records
            .fetch_add(appended, Ordering::Relaxed);
        self.wal_fsyncs.fetch_add(fsyncs, Ordering::Relaxed);
    }

    /// Records one completed recovery: how many WAL records were replayed
    /// and the wall-clock nanoseconds the whole recovery took.
    pub fn record_recovery(&self, replayed: u64, nanos: u64) {
        self.recovery_replayed_records
            .fetch_add(replayed, Ordering::Relaxed);
        self.recovery_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of all aggregates (individual loads are
    /// relaxed; totals lag in-flight queries by at most one update each).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut counters = [0u64; NUM_COUNTERS];
        for (slot, a) in counters.iter_mut().zip(&self.counters) {
            *slot = load(a);
        }
        let mut phase_nanos = [0u64; NUM_PHASES];
        for (slot, a) in phase_nanos.iter_mut().zip(&self.phase_nanos) {
            *slot = load(a);
        }
        let mut latency_buckets = [0u64; LATENCY_BUCKETS_NS.len() + 1];
        for (slot, a) in latency_buckets.iter_mut().zip(&self.latency_buckets) {
            *slot = load(a);
        }
        MetricsSnapshot {
            counters: CounterSnapshot(counters),
            phase_nanos: PhaseNanos(phase_nanos),
            queries: load(&self.queries),
            answers_index: load(&self.answers_index),
            answers_compressed: load(&self.answers_compressed),
            answers_none: load(&self.answers_none),
            errors: load(&self.errors),
            answers_degraded: load(&self.answers_degraded),
            queries_shed: load(&self.queries_shed),
            mutations_insert: load(&self.mutations_insert),
            mutations_remove: load(&self.mutations_remove),
            mutations_set_attrs: load(&self.mutations_set_attrs),
            repairs: load(&self.repairs),
            full_rebuilds: load(&self.full_rebuilds),
            repair_nanos: load(&self.repair_nanos),
            himor_patch_nanos: load(&self.himor_patch_nanos),
            pool_scoped_evictions: load(&self.pool_scoped_evictions),
            wal_appended_records: load(&self.wal_appended_records),
            wal_fsyncs: load(&self.wal_fsyncs),
            recovery_replayed_records: load(&self.recovery_replayed_records),
            recovery_nanos: load(&self.recovery_nanos),
            latency_buckets,
            latency_sum_nanos: load(&self.latency_sum_nanos),
            uptime_nanos: self.started.elapsed().as_nanos() as u64,
        }
    }
}

/// The crate version baked into `cod_build_info`.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// The git hash baked into `cod_build_info` — supplied by CI through the
/// `COD_GIT_HASH` env var at compile time, `"unknown"` for local builds.
pub const BUILD_GIT_HASH: &str = match option_env!("COD_GIT_HASH") {
    Some(h) => h,
    None => "unknown",
};

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals across all recorded queries.
    pub counters: CounterSnapshot,
    /// Per-phase nanosecond totals (non-zero only for traced queries).
    pub phase_nanos: PhaseNanos,
    /// Queries recorded (answers + empty answers + errors).
    pub queries: u64,
    /// Queries answered from the HIMOR index.
    pub answers_index: u64,
    /// Queries answered by compressed evaluation.
    pub answers_compressed: u64,
    /// Queries with no qualifying community.
    pub answers_none: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Answers served by a lower degradation-ladder rung after a query
    /// limit fired (a subset of the answer tallies above).
    pub answers_degraded: u64,
    /// Queries shed by admission control (not part of `queries`; shed
    /// queries are rejected before planning).
    pub queries_shed: u64,
    /// Edge insertions applied to a dynamic graph.
    pub mutations_insert: u64,
    /// Edge removals applied to a dynamic graph.
    pub mutations_remove: u64,
    /// Attribute replacements applied to a dynamic graph.
    pub mutations_set_attrs: u64,
    /// Mutation batches absorbed by localized repair (dendrogram splice +
    /// HIMOR patch) instead of a from-scratch rebuild.
    pub repairs: u64,
    /// Mutation batches that forced a full from-scratch rebuild.
    pub full_rebuilds: u64,
    /// Wall-clock nanoseconds of the `repair` stage (splice, verification,
    /// tree and diff) of every repaired flush.
    pub repair_nanos: u64,
    /// Wall-clock nanoseconds of the `himor_patch` stage of every repaired
    /// flush.
    pub himor_patch_nanos: u64,
    /// RR pools dropped by scoped (footprint-driven) invalidation.
    pub pool_scoped_evictions: u64,
    /// Records appended to the write-ahead log.
    pub wal_appended_records: u64,
    /// WAL fsyncs performed (policy-triggered or explicit flush).
    pub wal_fsyncs: u64,
    /// WAL records replayed by crash recovery.
    pub recovery_replayed_records: u64,
    /// Wall-clock nanoseconds spent in crash recovery.
    pub recovery_nanos: u64,
    /// Disjoint latency observations per bucket (traced queries only; the
    /// last bucket is +Inf). The Prometheus rendering cumulates them.
    pub latency_buckets: [u64; LATENCY_BUCKETS_NS.len() + 1],
    /// Sum of observed traced-query durations, in nanoseconds.
    pub latency_sum_nanos: u64,
    /// Nanoseconds since the owning registry (≈ the engine) was created.
    pub uptime_nanos: u64,
}

impl MetricsSnapshot {
    /// Total latency observations (traced queries recorded so far).
    pub fn latency_count(&self) -> u64 {
        self.latency_buckets.iter().sum()
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// `cache` carries the engine's recluster-cache gauges; `pool` the
    /// shared RR-pool cache gauges.
    pub fn render_prometheus(
        &self,
        cache: &crate::cache::CacheStats,
        pool: &crate::pool::PoolCacheStats,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP cod_{name} {help}");
            let _ = writeln!(out, "# TYPE cod_{name} counter");
            let _ = writeln!(out, "cod_{name} {value}");
        };
        counter(
            "queries_total",
            "queries served (answers + errors)",
            self.queries,
        );
        counter(
            "errors_total",
            "queries that returned an error",
            self.errors,
        );
        counter(
            "degraded_answers_total",
            "answers served by a lower degradation-ladder rung after a query limit fired",
            self.answers_degraded,
        );
        counter(
            "shed_total",
            "queries shed by admission control before planning",
            self.queries_shed,
        );
        counter(
            "repairs_total",
            "mutation batches absorbed by localized repair (splice + HIMOR patch)",
            self.repairs,
        );
        counter(
            "full_rebuilds_total",
            "mutation batches that forced a full from-scratch rebuild",
            self.full_rebuilds,
        );
        counter(
            "pool_scoped_evictions_total",
            "RR pools dropped by scoped footprint-driven invalidation",
            self.pool_scoped_evictions,
        );
        counter(
            "wal_appended_records_total",
            "mutation records appended to the write-ahead log",
            self.wal_appended_records,
        );
        counter(
            "wal_fsyncs_total",
            "write-ahead log fsyncs (policy-triggered or explicit)",
            self.wal_fsyncs,
        );
        counter(
            "recovery_replayed_records_total",
            "WAL records replayed by crash recovery",
            self.recovery_replayed_records,
        );
        for (c, v) in self.counters.iter() {
            counter(&format!("{}_total", c.name()), c.help(), v);
        }
        let _ = writeln!(
            out,
            "# HELP cod_mutations_total graph mutations applied, by kind"
        );
        let _ = writeln!(out, "# TYPE cod_mutations_total counter");
        for (kind, v) in [
            ("insert", self.mutations_insert),
            ("remove", self.mutations_remove),
            ("set_attrs", self.mutations_set_attrs),
        ] {
            let _ = writeln!(out, "cod_mutations_total{{kind=\"{kind}\"}} {v}");
        }
        let _ = writeln!(out, "# HELP cod_answers_total answers by serving path");
        let _ = writeln!(out, "# TYPE cod_answers_total counter");
        for (source, v) in [
            ("index", self.answers_index),
            ("compressed", self.answers_compressed),
            ("none", self.answers_none),
        ] {
            let _ = writeln!(out, "cod_answers_total{{source=\"{source}\"}} {v}");
        }
        let _ = writeln!(
            out,
            "# HELP cod_phase_seconds_total accounted wall-clock per query phase (traced queries)"
        );
        let _ = writeln!(out, "# TYPE cod_phase_seconds_total counter");
        for (p, nanos) in self.phase_nanos.iter() {
            let _ = writeln!(
                out,
                "cod_phase_seconds_total{{phase=\"{}\"}} {:.9}",
                p.name(),
                nanos as f64 / 1e9
            );
        }
        let _ = writeln!(
            out,
            "# HELP cod_flush_phase_seconds_total wall-clock per stage of repaired flushes"
        );
        let _ = writeln!(out, "# TYPE cod_flush_phase_seconds_total counter");
        for (phase, nanos) in [
            ("repair", self.repair_nanos),
            ("himor_patch", self.himor_patch_nanos),
        ] {
            let _ = writeln!(
                out,
                "cod_flush_phase_seconds_total{{phase=\"{phase}\"}} {:.9}",
                nanos as f64 / 1e9
            );
        }
        let _ = writeln!(
            out,
            "# HELP cod_query_seconds latency of traced queries (accounted phase time)"
        );
        let _ = writeln!(out, "# TYPE cod_query_seconds histogram");
        let mut cumulative = 0u64;
        for (i, &count) in self.latency_buckets.iter().enumerate() {
            cumulative += count;
            let le = match LATENCY_BUCKETS_NS.get(i) {
                Some(&ns) => format!("{:.9}", ns as f64 / 1e9),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(out, "cod_query_seconds_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(
            out,
            "cod_query_seconds_sum {:.9}",
            self.latency_sum_nanos as f64 / 1e9
        );
        let _ = writeln!(out, "cod_query_seconds_count {cumulative}");
        let mut gauge = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP cod_{name} {help}");
            let _ = writeln!(out, "# TYPE cod_{name} gauge");
            let _ = writeln!(out, "cod_{name} {value}");
        };
        gauge(
            "recluster_cache_resident",
            "reclustered artifacts currently cached",
            cache.len as u64,
        );
        gauge(
            "recluster_cache_capacity",
            "recluster cache capacity",
            cache.capacity as u64,
        );
        gauge(
            "pool_cache_pools",
            "shared RR pools currently resident",
            pool.pools as u64,
        );
        gauge(
            "pool_cache_resident_bytes",
            "bytes of pooled RR graphs currently resident",
            pool.resident_bytes as u64,
        );
        gauge(
            "pool_cache_budget_bytes",
            "byte budget of the shared RR-pool cache",
            pool.budget_bytes as u64,
        );
        gauge(
            "pool_cache_epoch",
            "invalidation epoch of the shared RR-pool cache",
            pool.epoch,
        );
        let _ = writeln!(
            out,
            "# HELP cod_recovery_seconds wall-clock time crash recovery took at startup"
        );
        let _ = writeln!(out, "# TYPE cod_recovery_seconds gauge");
        let _ = writeln!(
            out,
            "cod_recovery_seconds {:.9}",
            self.recovery_nanos as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "# HELP cod_uptime_seconds seconds since the engine was created"
        );
        let _ = writeln!(out, "# TYPE cod_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "cod_uptime_seconds {:.3}",
            self.uptime_nanos as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "# HELP cod_build_info build metadata as labels (value is always 1)"
        );
        let _ = writeln!(out, "# TYPE cod_build_info gauge");
        let _ = writeln!(
            out,
            "cod_build_info{{version=\"{BUILD_VERSION}\",git_hash=\"{BUILD_GIT_HASH}\"}} 1"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_accumulates_and_takes() {
        let mut sink = TraceSink::new(false);
        sink.add(Counter::RrGraphsSampled, 10);
        sink.incr(Counter::CacheHits);
        sink.incr(Counter::RrGraphsSampled);
        let t = sink.take();
        assert_eq!(t.counters.get(Counter::RrGraphsSampled), 11);
        assert_eq!(t.counters.get(Counter::CacheHits), 1);
        assert_eq!(t.counters.get(Counter::CacheMisses), 0);
        // Taking clears.
        assert_eq!(sink.trace(), QueryTrace::default());
    }

    #[test]
    fn timers_only_fire_when_armed() {
        let mut off = TraceSink::new(false);
        off.time(Phase::Sample, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(off.trace().phases.total(), 0);
        let mut on = TraceSink::new(true);
        on.time(Phase::Sample, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(on.trace().phases.get(Phase::Sample) >= 1_000_000);
        assert_eq!(on.trace().phases.get(Phase::TopK), 0);
    }

    #[test]
    fn merge_is_component_wise() {
        let mut a = TraceSink::new(true);
        a.add(Counter::TopKHeapOps, 3);
        a.add_nanos(Phase::Plan, 5);
        let mut b = TraceSink::new(true);
        b.add(Counter::TopKHeapOps, 4);
        b.add_nanos(Phase::Plan, 7);
        a.merge(&b);
        let t = a.trace();
        assert_eq!(t.counters.get(Counter::TopKHeapOps), 7);
        assert_eq!(t.phases.get(Phase::Plan), 12);
        assert_eq!(t.total_nanos(), 12);
    }

    #[test]
    fn registry_tallies_outcomes_and_buckets() {
        let reg = MetricsRegistry::default();
        let mut sink = TraceSink::new(true);
        sink.add(Counter::RrGraphsSampled, 5);
        sink.add_nanos(Phase::Sample, 50_000); // lands in the 100us bucket
        reg.record(&sink, QueryOutcome::AnswerCompressed);
        let mut sink2 = TraceSink::new(false);
        sink2.add(Counter::RrGraphsSampled, 2);
        reg.record(&sink2, QueryOutcome::Error);
        let snap = reg.snapshot();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.answers_compressed, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.counters.get(Counter::RrGraphsSampled), 7);
        // Only the traced query is observed by the histogram.
        assert_eq!(snap.latency_buckets.iter().sum::<u64>(), 1);
        assert_eq!(snap.latency_buckets[1], 1);
        assert_eq!(snap.latency_sum_nanos, 50_000);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let reg = MetricsRegistry::default();
        let mut sink = TraceSink::new(true);
        sink.add(Counter::RrEdgesTraversed, 9);
        sink.add_nanos(Phase::TopK, 1_000);
        reg.record(&sink, QueryOutcome::AnswerIndex);
        let cache = crate::cache::CacheStats::default();
        let pool = crate::pool::PoolCacheStats::default();
        let text = reg.snapshot().render_prometheus(&cache, &pool);
        assert!(text.contains("cod_queries_total 1"));
        assert!(text.contains("cod_pool_hits_total 0"));
        assert!(text.contains("cod_pool_cache_resident_bytes 0"));
        assert!(text.contains("cod_rr_edges_traversed_total 9"));
        assert!(text.contains("cod_answers_total{source=\"index\"} 1"));
        assert!(text.contains("cod_query_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("cod_query_seconds_count 1"));
        assert!(text.contains("cod_uptime_seconds "));
        assert!(text.contains(&format!(
            "cod_build_info{{version=\"{BUILD_VERSION}\",git_hash=\"{BUILD_GIT_HASH}\"}} 1"
        )));
        // Every HELP line is paired with a TYPE line.
        let helps = text.matches("# HELP").count();
        let types = text.matches("# TYPE").count();
        assert_eq!(helps, types);
    }

    #[test]
    fn mutation_metrics_are_tallied_and_rendered() {
        use crate::mutation::MutationKind;
        let reg = MetricsRegistry::default();
        reg.record_mutation(MutationKind::InsertEdge);
        reg.record_mutation(MutationKind::InsertEdge);
        reg.record_mutation(MutationKind::RemoveEdge);
        reg.record_mutation(MutationKind::SetAttrs);
        reg.record_repair();
        reg.record_flush_phases(2_500_000, 1_000);
        reg.record_full_rebuild();
        reg.record_full_rebuild();
        reg.record_pool_scoped_evictions(3);
        let snap = reg.snapshot();
        assert_eq!(snap.mutations_insert, 2);
        assert_eq!(snap.mutations_remove, 1);
        assert_eq!(snap.mutations_set_attrs, 1);
        assert_eq!(snap.repairs, 1);
        assert_eq!(snap.repair_nanos, 2_500_000);
        assert_eq!(snap.himor_patch_nanos, 1_000);
        assert_eq!(snap.full_rebuilds, 2);
        assert_eq!(snap.pool_scoped_evictions, 3);
        let cache = crate::cache::CacheStats::default();
        let pool = crate::pool::PoolCacheStats::default();
        let text = snap.render_prometheus(&cache, &pool);
        assert!(text.contains("cod_mutations_total{kind=\"insert\"} 2"));
        assert!(text.contains("cod_mutations_total{kind=\"remove\"} 1"));
        assert!(text.contains("cod_mutations_total{kind=\"set_attrs\"} 1"));
        assert!(text.contains("cod_repairs_total 1"));
        assert!(text.contains("cod_flush_phase_seconds_total{phase=\"repair\"} 0.002500000"));
        assert!(text.contains("cod_flush_phase_seconds_total{phase=\"himor_patch\"} 0.000001000"));
        assert!(text.contains("cod_full_rebuilds_total 2"));
        assert!(text.contains("cod_pool_scoped_evictions_total 3"));
        let helps = text.matches("# HELP").count();
        let types = text.matches("# TYPE").count();
        assert_eq!(helps, types);
    }

    #[test]
    fn wal_and_recovery_metrics_are_tallied_and_rendered() {
        let reg = MetricsRegistry::default();
        reg.record_wal_append();
        reg.record_wal_append();
        reg.record_wal_append();
        reg.record_wal_fsync();
        reg.record_recovery(2, 1_500_000_000);
        let snap = reg.snapshot();
        assert_eq!(snap.wal_appended_records, 3);
        assert_eq!(snap.wal_fsyncs, 1);
        assert_eq!(snap.recovery_replayed_records, 2);
        assert_eq!(snap.recovery_nanos, 1_500_000_000);
        let cache = crate::cache::CacheStats::default();
        let pool = crate::pool::PoolCacheStats::default();
        let text = snap.render_prometheus(&cache, &pool);
        assert!(text.contains("cod_wal_appended_records_total 3"));
        assert!(text.contains("cod_wal_fsyncs_total 1"));
        assert!(text.contains("cod_recovery_replayed_records_total 2"));
        assert!(text.contains("cod_recovery_seconds 1.500000000"));
        let helps = text.matches("# HELP").count();
        let types = text.matches("# TYPE").count();
        assert_eq!(helps, types);
    }

    #[test]
    fn uptime_is_monotone_across_snapshots() {
        let reg = MetricsRegistry::default();
        let a = reg.snapshot();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = reg.snapshot();
        assert!(b.uptime_nanos > a.uptime_nanos);
        assert!(a.uptime_nanos < 60 * 1_000_000_000, "fresh registry");
    }
}
