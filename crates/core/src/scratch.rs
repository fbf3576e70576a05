//! Reusable per-query workspaces.
//!
//! One compressed COD evaluation allocates sampler stamp arrays, HFS
//! queues, per-level count buckets and top-k candidate vectors — all of
//! which have the same shape on the next query. [`QueryScratch`] owns the
//! lot so a serving layer can run thousands of queries with amortized-zero
//! allocation, the same trick [`cod_influence::RrSampler`] already plays
//! with its stamp arrays, generalized to the whole pipeline.
//!
//! **Determinism invariant:** scratch reuse must never change an answer.
//! Every structure here is either fully reset per query (queues, candidate
//! vectors, count maps via `clear()`) or epoch-stamped
//! ([`cod_influence::SamplerScratch`]). Hash-map *iteration order* can
//! differ between a recycled map and a fresh one (retained capacity), so
//! the evaluation stages only ever fold map contents through commutative
//! addition or sort materialized keys — both order-independent. The
//! seed-replay suite asserts the resulting bit-identity.

use cod_graph::{FxHashMap, NodeId};
use cod_influence::{RrGraph, SamplerScratch};

use crate::telemetry::{QueryTrace, TraceSink};

/// Per-RR scratch for the HFS stage, reused across samples.
#[derive(Default, Debug)]
pub(crate) struct HfsScratch {
    pub(crate) queues: Vec<Vec<u32>>,
    pub(crate) explored: Vec<bool>,
}

impl HfsScratch {
    pub(crate) fn new(m: usize) -> Self {
        Self {
            queues: vec![Vec::new(); m],
            explored: Vec::new(),
        }
    }

    /// Readies the scratch for a chain of `m` levels. Queues are already
    /// drained by `hfs_record_dense`; only the level count needs adjusting.
    pub(crate) fn prepare(&mut self, m: usize) {
        debug_assert!(self.queues.iter().all(Vec::is_empty));
        self.queues.truncate(m);
        self.queues.resize_with(m, Vec::new);
    }
}

/// Scratch for the incremental top-k scan (stage 2 of Algorithm 1).
#[derive(Default, Debug)]
pub(crate) struct TopKScratch {
    pub(crate) tau: FxHashMap<NodeId, u32>,
    pub(crate) pool: Vec<NodeId>,
    pub(crate) candidates: Vec<NodeId>,
    pub(crate) taus: Vec<u32>,
}

impl TopKScratch {
    pub(crate) fn prepare(&mut self) {
        self.tau.clear();
        self.pool.clear();
        self.candidates.clear();
        self.taus.clear();
    }
}

/// A reusable workspace for one in-flight COD query.
///
/// Holds every transient buffer the compressed evaluation path needs:
/// RR-sampler stamps, the RR graph each draw refills, the dense level
/// table, HFS queues, per-level buckets and top-k vectors.
/// Create one per worker (it is `Send` but deliberately not shared), hand
/// it to [`crate::compressed::compressed_cod`] through
/// [`crate::compressed::EvalOptions::scratch`], and reuse it for the next
/// query. Passing a recycled workspace never changes an answer; it
/// only removes allocations.
#[derive(Default, Debug)]
pub struct QueryScratch {
    pub(crate) sampler: SamplerScratch,
    /// The RR graph stage 1 draws into, refilled in place per sample.
    pub(crate) rr: RrGraph,
    /// Dense per-query `node → chain level` table (see
    /// `compressed::fill_levels`): one `level_of` sweep over the universe
    /// per query instead of one per RR-graph node.
    pub(crate) levels: Vec<u32>,
    pub(crate) hfs: HfsScratch,
    pub(crate) buckets: Vec<FxHashMap<NodeId, u32>>,
    pub(crate) topk: TopKScratch,
    /// Telemetry accumulator for the evaluation running in this workspace.
    /// Evaluation *adds to* it; owners that want per-query numbers reset it
    /// beforehand (see [`TraceSink::reset`]) and take the trace afterwards.
    pub(crate) sink: TraceSink,
}

impl QueryScratch {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears accumulated telemetry and arms (`timing: true`) or disarms
    /// the phase timers for the next evaluation run in this workspace.
    pub fn reset_telemetry(&mut self, timing: bool) {
        self.sink.reset(timing);
    }

    /// Returns the telemetry accumulated since the last reset and clears
    /// the sink (retaining its timing mode).
    pub fn take_trace(&mut self) -> QueryTrace {
        self.sink.take()
    }

    /// Clears and resizes the bucket vector for an `m`-level chain,
    /// retaining map capacity from earlier queries.
    pub(crate) fn prepare_buckets(&mut self, m: usize) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.buckets.truncate(m);
        self.buckets.resize_with(m, FxHashMap::default);
        self.hfs.prepare(m);
        self.topk.prepare();
    }
}
