//! Characteristic community discovery (COD) — the paper's core algorithms.
//!
//! Given an attributed graph `g`, a query node `q`, a query attribute `ℓ_q`
//! and a rank threshold `k`, COD finds the *largest* community of a
//! hierarchy in which `q` is top-`k` influential (Definition 1). This crate
//! implements:
//!
//! * [`chain`] — the hierarchical-community chain `H(q)` abstraction that
//!   evaluation runs over (a dendrogram root path, a reclustered-subgraph
//!   path, or the LORE composition of both);
//! * [`compressed`] — **Algorithm 1**: compressed COD evaluation with shared
//!   sample generation, hierarchical-first search and incremental top-k
//!   evaluation (§III);
//! * [`independent`] — the naïve per-community baseline (§V-C's
//!   `Independent`);
//! * [`lore`] — **Algorithm 2**: the LORE reclustering score and community
//!   selection (§IV-A);
//! * [`recluster`] — attribute-aware edge weighting and global/local
//!   re-clustering (the `g_ℓ` transform, §IV);
//! * [`himor`] — the **HIMOR index**: compressed construction over the tree
//!   of buckets and **Algorithm 3** query processing (§IV-B);
//! * [`engine`] — the **CodEngine** serving layer, the one query type:
//!   prepared artifacts behind `Arc`, a bounded recluster cache, reusable
//!   query workspaces and a batch API, serving all four method variants
//!   (`CODU`, `CODR`, `CODL⁻`, `CODL`, §V);
//! * [`pool`] — the cross-query shared RR-pool cache: key-derived
//!   deterministic sampling, incremental top-ups, epoch invalidation and
//!   LRU byte-budget eviction, plus the confidence-bound adaptive
//!   evaluation built on it;
//! * [`pipeline`] — the shared query configuration, limits and answer
//!   types;
//! * [`codx`] — CODX v3, the one on-disk artifact format (graph, hierarchy
//!   and HIMOR index), memory-mappable and lazily CRC-verified;
//! * [`dynamic`], [`mutation`], [`wal`] and [`recovery`] — streaming
//!   graph mutations with localized repair, made crash-safe by a
//!   write-ahead log and checkpoints;
//! * [`measures`] — answer-quality measures (size, `ρ`, `φ`, top-k
//!   precision) shared by the experiment harness.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod chain;
pub mod codx;
pub mod compressed;
pub mod dynamic;
pub mod engine;
pub mod error;
pub mod failpoint;
pub mod himor;
pub mod independent;
pub mod lore;
pub mod measures;
pub mod mutation;
pub mod persist;
pub mod pipeline;
pub mod pool;
pub mod recluster;
pub mod recovery;
pub mod scratch;
pub mod telemetry;
pub mod wal;

pub use cache::{CacheStats, ReclusterCache};
pub use chain::{Chain, ComposedChain, DendroChain, SubgraphChain};
pub use codx::{save_artifacts, serialize_artifacts, MappedArtifacts, CODX_V3};
pub use compressed::{
    compressed_cod, compressed_cod_adaptive, influence_half_width, resolve_theta, AdaptiveReport,
    CodOutcome, EvalOptions, Samples,
};
pub use dynamic::{DynamicCod, FlushOutcome, MutationFlushReport};
pub use engine::{CodEngine, Method, Query};
pub use error::{CodError, CodResult};
pub use himor::{BuildStats, HimorIndex, HimorPatchState, PatchStats};
pub use lore::{select_recluster_community, ReclusterChoice};
pub use mutation::{Footprint, Mutation, MutationKind, MutationLog};
pub use pipeline::{AnswerSource, CacheOutcome, CodAnswer, CodConfig, QueryLimits};
pub use pool::{
    GrowthStats, PoolCache, PoolCacheStats, PoolLookup, PoolView, RrPoolEntry,
    DEFAULT_POOL_BUDGET_BYTES,
};
pub use recovery::{DurabilityConfig, DurableCod, Manifest, RecoveryReport, MANIFEST_NAME};
pub use scratch::QueryScratch;
pub use telemetry::{
    Counter, CounterSnapshot, MetricsRegistry, MetricsSnapshot, Phase, PhaseNanos, QueryOutcome,
    QueryTrace, TraceSink, COUNTERS, PHASES,
};
pub use wal::{AppendReceipt, FsyncPolicy, TornTail, WalWriter};
