//! Algorithm 1: compressed COD evaluation (§III).
//!
//! Two stages over one shared pool of RR graphs:
//!
//! 1. **Shared sample generation + hierarchical-first search (HFS).** Each
//!    RR graph is traversed once, level by level: a node is recorded in the
//!    bucket of the *deepest* chain community within which it is reachable
//!    from the RR-graph source (Definition 3 / Theorem 2). Per-level FIFO
//!    queues give O(1) insertion, and every RR-graph node is explored once
//!    (Lemma 2).
//! 2. **Incremental top-k evaluation.** Buckets are scanned from the
//!    deepest community upward, accumulating counts (`τ`); by Theorem 3 a
//!    node absent from the current bucket and from the running top-k pool
//!    can never (re-)enter the top-k, so only `(pool ∪ bucket)` needs
//!    re-ranking per level.
//!
//! Total cost `O(Θ·ω + |H(q)|)` (Theorem 4).

use std::ops::Range;

use cod_graph::{Csr, FxHashMap, NodeId};
use cod_influence::{
    par_ranges, CancelToken, Model, Parallelism, RrGraph, RrSampler, RrView, SeedSequence,
};
use rand::prelude::*;

use crate::chain::Chain;
use crate::error::{CodError, CodResult};
use crate::failpoint;
use crate::pool::{PoolView, RrPoolEntry};
use crate::scratch::{HfsScratch, QueryScratch, TopKScratch};
use crate::telemetry::{Counter, Phase, TraceSink};
use std::time::Instant;

/// The result of one compressed COD evaluation.
///
/// `PartialEq` compares every field (including the `f64` sigma estimates
/// bit-for-bit after the IEEE `==`), which is exactly what the seed-replay
/// determinism tests need.
#[derive(Clone, Debug, PartialEq)]
pub struct CodOutcome {
    /// Index (into the chain) of the characteristic community `C*(q)` — the
    /// largest community where `q` ranked top-k — if any.
    pub best_level: Option<usize>,
    /// Per-level estimated 1-based rank of `q`. Exact whenever `≤ k`
    /// (larger values are lower bounds: nodes outside the top-k pool are
    /// not counted).
    pub ranks: Vec<usize>,
    /// Per-level estimated influence `σ̂_{C_h}(q)` (count / Θ · |universe|).
    pub sigma_q: Vec<f64>,
    /// Per-level flag: the top-k verdict could plausibly flip under
    /// sampling noise (an adversarial ±z·√count perturbation changes it).
    /// The answer level's flag feeds [`crate::CodAnswer::uncertain`].
    pub uncertain: Vec<bool>,
    /// Number of RR graphs generated.
    pub theta: usize,
    /// A sample budget cut the evaluation short of the requested `Θ`: the
    /// answer is best-effort and should be flagged `uncertain` downstream.
    pub truncated: bool,
    /// Cooperative cancellation (a deadline, the engine kill switch, or a
    /// forced failpoint injection) stopped stage 1 at a batch boundary: `theta`
    /// reports the samples actually drawn and the answer is best-effort.
    /// Implies [`CodOutcome::truncated`].
    pub cancelled: bool,
}

impl CodOutcome {
    fn empty() -> Self {
        CodOutcome {
            best_level: None,
            ranks: Vec::new(),
            sigma_q: Vec::new(),
            uncertain: Vec::new(),
            theta: 0,
            truncated: false,
            cancelled: false,
        }
    }
}

/// Where stage 1 of an evaluation takes its RR graphs from.
#[derive(Clone, Copy)]
pub enum Samples<'a> {
    /// Fresh draws from a master seed: sample `i` takes its source and RR
    /// graph entirely from [`SeedSequence::rng_for`]`(i)` of
    /// `SeedSequence::new(master)`, so the outcome is a pure function of
    /// `(g, model, chain, q, k, θ, budget, master)`.
    Seed(u64),
    /// Fold the graphs of a shared RR pool (the cross-query cache of
    /// [`crate::pool`]), growing it first if it holds fewer than the
    /// resolved `Θ`. Pool samples derive from the pool's key, so the
    /// outcome is identical warm, cold or grown in several top-ups. It
    /// differs bit-wise from [`Samples::Seed`] outcomes: a fresh draw skips
    /// graph generation for out-of-chain sources, a shared pool cannot.
    Pool(&'a RrPoolEntry),
}

/// How to run one evaluation. None of these options can change a drawn
/// sample: they bound, fan out, interrupt or recycle the work only.
#[derive(Default)]
pub struct EvalOptions<'a> {
    /// Optional cap on the RR samples this evaluation may *draw*. When the
    /// full `Θ = θ·|universe|` exceeds it, the evaluation runs on what the
    /// budget permits and flags the outcome [`CodOutcome::truncated`]. Pooled
    /// samples are already paid for, so a pool charges only its top-up
    /// ([`resolve_theta`]).
    pub budget: Option<usize>,
    /// Fan-out policy for sampling (default `Threads(1)`). Shards merge by
    /// commutative count addition, so every thread count gives the same
    /// outcome.
    pub par: Parallelism,
    /// Cooperative governance: every `CHECK_EVERY` draws (or folds) stage 1
    /// hits a failpoint, polls the token, and stops at the batch boundary
    /// once it fires. The
    /// partial buckets still run stage 2, so the caller gets a best-effort
    /// outcome with [`CodOutcome::cancelled`] set and `theta` reporting the
    /// samples that completed. Checkpoints never touch an RNG, so a token
    /// that never fires leaves the outcome bit-identical.
    pub cancel: Option<&'a CancelToken>,
    /// A reusable workspace ([`QueryScratch`]); recycled capacity never
    /// changes the outcome.
    pub scratch: Option<&'a mut QueryScratch>,
}

/// Runs compressed COD evaluation (Algorithm 1) for query `q` over `chain`.
///
/// `theta_per_node` is the paper's `θ`; the total sample count is
/// `Θ = θ · |universe|` where the universe is the chain's largest community.
/// RR-graph sources are uniform over the universe and traversal is
/// restricted to it (a no-op when the chain tops out at the whole graph).
/// `samples` says where the RR graphs come from; `opts` bounds and fans out
/// the work without changing any sample.
///
/// Fails with [`CodError::InvalidQuery`] when `k == 0`, `q` is not in the
/// chain's deepest community, or `Θ` overflows, and with
/// [`CodError::BudgetExhausted`] when the budget permits no new sample.
#[allow(clippy::too_many_arguments)] // the paper's query signature plus samples and options
pub fn compressed_cod(
    g: &Csr,
    model: Model,
    chain: &Chain<'_>,
    q: NodeId,
    k: usize,
    theta_per_node: usize,
    samples: Samples<'_>,
    opts: EvalOptions<'_>,
) -> CodResult<CodOutcome> {
    if !validate_chain_query(chain, q, k)? {
        return Ok(CodOutcome::empty());
    }
    let EvalOptions {
        budget,
        par,
        cancel,
        scratch,
    } = opts;
    let m = chain.len();
    let mut own = QueryScratch::new();
    let ws = scratch.unwrap_or(&mut own);
    let drawn_universe;
    let (universe, theta, truncated, source): (&[NodeId], _, _, _) = match samples {
        Samples::Seed(master) => {
            drawn_universe = chain.universe();
            let (theta, truncated) =
                resolve_theta(theta_per_node, drawn_universe.len(), budget, 0)?;
            let source = Source::Draw(SeedSequence::new(master));
            (&drawn_universe, theta, truncated, source)
        }
        Samples::Pool(pool) => {
            // The pool keys on the chain's sorted universe and keeps its
            // own copy, so the evaluation reads that instead of building one.
            debug_assert_eq!(
                pool.universe(),
                &chain.universe()[..],
                "pool key does not match the chain's universe"
            );
            let (theta, truncated) =
                resolve_theta(theta_per_node, pool.universe().len(), budget, pool.len())?;
            let (view, grown) = pool.ensure(g, model, theta, par, cancel);
            ws.sink.add(Counter::RrGraphsSampled, grown.graphs);
            ws.sink.add(Counter::RrEdgesTraversed, grown.edges);
            if grown.topped_up {
                ws.sink.incr(Counter::PoolTopups);
            }
            (pool.universe(), theta, truncated, Source::Fold(view))
        }
    };
    ws.prepare_buckets(m);
    fill_levels(chain, universe, &mut ws.levels);

    // --- Stage 1: shared sample generation (or pool fold) + HFS ---------
    // Phase timers are read outside the per-sample loop, and counters are
    // plain integer adds that never touch an RNG — telemetry observes the
    // evaluation without perturbing the drawn samples. Governance polls
    // are integer/atomic reads at batch boundaries, neutral the same way.
    let t_sample = ws.sink.timing().then(Instant::now);
    let completed = match source {
        Source::Draw(seeds) => {
            // The level table moves out of the workspace for the duration
            // of the draws, so shards can share it while the workspace
            // lends out its sampler and buckets.
            let levels = std::mem::take(&mut ws.levels);
            let stage = Stage1 {
                levels: &levels,
                universe,
                restricted: universe.len() < g.num_nodes(),
                m,
                seeds,
                cancel,
            };
            let done = stage.sample(g, model, theta, par, ws);
            ws.levels = levels;
            done
        }
        Source::Fold(view) => fold_pool(&view, theta, m, ws, cancel),
    };
    if let Some(t0) = t_sample {
        ws.sink
            .add_nanos(Phase::Sample, t0.elapsed().as_nanos() as u64);
    }

    // --- Stage 2: incremental top-k evaluation --------------------------
    let cancelled = completed < theta;
    if cancelled && completed == 0 {
        // Nothing was drawn: stage 2 over empty buckets would fabricate a
        // rank-1 verdict from zero evidence. Report "no answer" instead.
        let mut out = CodOutcome::empty();
        out.truncated = true;
        out.cancelled = true;
        return Ok(out);
    }
    let t_topk = ws.sink.timing().then(Instant::now);
    let mut out = incremental_top_k_with(
        &ws.buckets,
        q,
        k,
        completed,
        universe.len(),
        &mut ws.topk,
        &mut ws.sink,
    );
    if let Some(t0) = t_topk {
        ws.sink
            .add_nanos(Phase::TopK, t0.elapsed().as_nanos() as u64);
    }
    out.truncated = truncated || cancelled;
    out.cancelled = cancelled;
    Ok(out)
}

/// Stage 1's graphs once the sample count is resolved: fresh draws, or a
/// view of a pool already grown to cover them.
enum Source {
    Draw(SeedSequence),
    Fold(PoolView),
}

/// Stage-1 draws between governance checkpoints. Polls are this coarse so
/// the ungoverned fast path pays nothing measurable (the ≤5% overhead gate
/// in `bench_report`), yet a fired token stops within one batch.
const CHECK_EVERY: usize = 64;

/// The per-query inputs every stage-1 sampling shard reads.
struct Stage1<'a> {
    levels: &'a [u32],
    universe: &'a [NodeId],
    restricted: bool,
    m: usize,
    seeds: SeedSequence,
    cancel: Option<&'a CancelToken>,
}

impl Stage1<'_> {
    /// Draws samples `0..theta` into `ws.buckets` and returns how many
    /// completed. One thread borrows the workspace's sampler, RR graph,
    /// HFS scratch and buckets. More threads sample contiguous index ranges
    /// into shard-local buckets and sinks, merged by count addition (which
    /// commutes, so the chunking cannot show); a fired token stops every
    /// shard at its next batch boundary.
    fn sample(
        &self,
        g: &Csr,
        model: Model,
        theta: usize,
        par: Parallelism,
        ws: &mut QueryScratch,
    ) -> usize {
        if par.thread_count() <= 1 {
            let mut sampler = RrSampler::with_scratch(g, model, std::mem::take(&mut ws.sampler));
            let done = self.draw_range(
                &mut sampler,
                0..theta,
                &mut ws.rr,
                &mut ws.hfs,
                &mut ws.buckets,
                &mut ws.sink,
            );
            ws.sampler = sampler.into_scratch();
            return done;
        }
        let shards = par_ranges(theta, par.thread_count(), |range| {
            let mut hfs = HfsScratch::new(self.m);
            let mut sink = TraceSink::new(false);
            let mut buckets: Vec<FxHashMap<NodeId, u32>> = vec![FxHashMap::default(); self.m];
            let done = self.draw_range(
                &mut RrSampler::new(g, model),
                range,
                &mut RrGraph::default(),
                &mut hfs,
                &mut buckets,
                &mut sink,
            );
            (buckets, sink, done)
        });
        let mut completed = 0;
        for (shard, sink, done) in shards {
            for (h, bucket) in shard.into_iter().enumerate() {
                for (v, c) in bucket {
                    *ws.buckets[h].entry(v).or_insert(0) += c;
                }
            }
            ws.sink.merge(&sink);
            completed += done;
        }
        completed
    }

    /// The sampling loop of one shard: draws the samples of `range`,
    /// polling governance every `CHECK_EVERY` draws, and charges the drawn
    /// graphs and edges to `sink`. Returns the draws completed.
    fn draw_range(
        &self,
        sampler: &mut RrSampler<'_>,
        range: Range<usize>,
        rr: &mut RrGraph,
        hfs: &mut HfsScratch,
        buckets: &mut [FxHashMap<NodeId, u32>],
        sink: &mut TraceSink,
    ) -> usize {
        let before = sampler.stats();
        let mut done = 0;
        for (off, i) in range.enumerate() {
            if off % CHECK_EVERY == 0 {
                failpoint::hit(failpoint::Site::SampleBatch, self.cancel);
                if self.cancel.is_some_and(CancelToken::should_stop) {
                    break;
                }
            }
            let mut rng = self.seeds.rng_for(i as u64);
            draw_and_record(
                sampler,
                self.levels,
                self.universe,
                self.restricted,
                self.m,
                &mut rng,
                rr,
                hfs,
                buckets,
                sink,
                self.cancel,
            );
            done += 1;
        }
        let drawn = sampler.stats().delta_since(before);
        sink.add(Counter::RrGraphsSampled, drawn.graphs);
        sink.add(Counter::RrEdgesTraversed, drawn.edges);
        done
    }
}

/// Stage 1 over an already-sampled pool view: folds `min(theta,
/// view.len())` graphs through HFS instead of sampling, polling governance
/// at the sampling path's cadence. Returns the folds completed; fewer than
/// `theta` (a growth cancelled mid-way, or a fold stopped at a batch
/// boundary) flags the outcome cancelled, like the sampling path.
fn fold_pool(
    view: &PoolView,
    theta: usize,
    m: usize,
    ws: &mut QueryScratch,
    cancel: Option<&CancelToken>,
) -> usize {
    let mut completed = 0;
    for (i, rr) in view.iter().take(theta).enumerate() {
        if i % CHECK_EVERY == 0 {
            failpoint::hit(failpoint::Site::PoolFold, cancel);
            if cancel.is_some_and(CancelToken::should_stop) {
                break;
            }
        }
        let ls = level(&ws.levels, rr.source()) as usize;
        if ls >= m {
            // Source outside every chain community: the induced RR graph
            // is empty (Example 3) — nothing to record, but the sample
            // still counts toward Θ, exactly like the sampling path.
            ws.sink.incr(Counter::HfsNodesPruned);
        } else {
            hfs_record_dense(
                rr,
                ls,
                m,
                &ws.levels,
                &mut ws.hfs,
                &mut ws.buckets,
                &mut ws.sink,
                cancel,
            );
        }
        completed += 1;
    }
    completed
}

/// Fills the dense per-query level table both stage-1 paths read:
/// `levels[v]` is `chain.level_of(v)` for a universe node, `m` (prune) for
/// a universe node in no chain community, and `u32::MAX` for a node
/// outside the universe. One `level_of` sweep serves the source lookup,
/// the restricted sampler's `keep` and every HFS level lookup. The table
/// ends at the largest universe node; [`level`] reads past it as
/// `u32::MAX`.
fn fill_levels(chain: &Chain<'_>, universe: &[NodeId], levels: &mut Vec<u32>) {
    let m = chain.len() as u32;
    levels.clear();
    levels.resize(universe.last().map_or(0, |&v| v as usize + 1), u32::MAX);
    for &v in universe {
        levels[v as usize] = chain.level_of(v).map_or(m, |l| l as u32);
    }
}

/// `levels[v]`, reading nodes past the table's end as outside the universe.
#[inline]
fn level(levels: &[u32], v: NodeId) -> u32 {
    levels.get(v as usize).copied().unwrap_or(u32::MAX)
}

/// The shared per-sample body of stage 1: draw a source, generate its RR
/// graph into `rr` (restricted to the universe when the chain doesn't span
/// the graph), and fold it into the buckets via HFS.
#[inline]
#[allow(clippy::too_many_arguments)] // private loop body of every sampling shard
fn draw_and_record<R: Rng>(
    sampler: &mut RrSampler<'_>,
    levels: &[u32],
    universe: &[NodeId],
    restricted: bool,
    m: usize,
    rng: &mut R,
    rr: &mut RrGraph,
    hfs: &mut HfsScratch,
    buckets: &mut [FxHashMap<NodeId, u32>],
    sink: &mut TraceSink,
    cancel: Option<&CancelToken>,
) {
    let s = universe[rng.random_range(0..universe.len())];
    let ls = level(levels, s) as usize;
    if ls >= m {
        // Source outside every chain community: its induced RR graphs
        // are all empty (Example 3) — nothing to record.
        sink.incr(Counter::HfsNodesPruned);
        return;
    }
    if restricted {
        sampler.sample_into(s, rng, |v| level(levels, v) != u32::MAX, rr);
    } else {
        sampler.sample_into(s, rng, |_| true, rr);
    }
    hfs_record_dense(rr.view(), ls, m, levels, hfs, buckets, sink, cancel);
}

/// Shared argument validation for the evaluation entry points. `Ok(false)`
/// means the chain is empty and the caller should return
/// [`CodOutcome::empty`].
fn validate_chain_query(chain: &Chain<'_>, q: NodeId, k: usize) -> CodResult<bool> {
    if k == 0 {
        return Err(CodError::InvalidQuery("top-k requires k >= 1".into()));
    }
    if chain.is_empty() {
        return Ok(false);
    }
    if chain.level_of(q) != Some(0) {
        return Err(CodError::InvalidQuery(format!(
            "query node {q} is not in the chain's deepest community"
        )));
    }
    Ok(true)
}

/// `Θ = θ·|universe|`, the total sample count of an evaluation or an index
/// build over `universe_len` nodes (θ is clamped to at least 1). Fails with
/// [`CodError::InvalidQuery`] when the product overflows `usize` — a
/// wrapped count would silently draw a tiny or absurd number of samples.
pub fn total_theta(theta_per_node: usize, universe_len: usize) -> CodResult<usize> {
    theta_per_node
        .max(1)
        .checked_mul(universe_len)
        .ok_or_else(|| {
            CodError::InvalidQuery(format!(
                "theta {theta_per_node} per node over {universe_len} nodes overflows the \
                 total sample count"
            ))
        })
}

/// Resolves the effective sample count of an evaluation whose sample
/// source already holds `pooled` samples (0 for fresh draws). The budget
/// caps *new* draws only — pooled samples are already paid for. Returns
/// `(Θ used, truncated)`.
///
/// With a zero budget the error's `required` figure is the chain-wide
/// `θ·|universe|` net of the pooled samples: exactly the draws this query
/// would still have to make.
pub fn resolve_theta(
    theta_per_node: usize,
    universe_len: usize,
    budget: Option<usize>,
    pooled: usize,
) -> CodResult<(usize, bool)> {
    let full_theta = total_theta(theta_per_node, universe_len)?;
    let needed_new = full_theta.saturating_sub(pooled);
    let theta = match budget {
        Some(0) if needed_new > 0 => {
            return Err(CodError::BudgetExhausted {
                budget: 0,
                required: needed_new,
            });
        }
        Some(b) => full_theta.min(pooled.saturating_add(b)),
        None => full_theta,
    };
    Ok((theta, theta < full_theta))
}

/// Hierarchical-first search over one RR graph (stage 1 inner loop of
/// Algorithm 1): every RR node is recorded in the bucket of the deepest
/// chain community within which it is reachable from the source. `ls` is
/// the source's chain level; `levels` is the query's dense table
/// ([`fill_levels`]). Leaves `scratch.queues` drained for reuse —
/// including on the cancellation early-exit, which abandons the remaining
/// levels of this one RR graph (the caller flags the outcome best-effort).
///
/// **Flat-graph shortcut** (DESIGN.md §3): when no RR node's level exceeds
/// `ls`, the whole graph lies in `C_ls` and every node is reachable from
/// the source, so the level loop would pop every node at level `ls`. The
/// shortcut records them there directly, after the one `HfsLevel`
/// checkpoint that level would make.
#[allow(clippy::too_many_arguments)] // private HFS body: graph, levels, scratch, output, telemetry, token
fn hfs_record_dense(
    rr: RrView<'_>,
    ls: usize,
    m: usize,
    levels: &[u32],
    scratch: &mut HfsScratch,
    buckets: &mut [FxHashMap<NodeId, u32>],
    sink: &mut TraceSink,
    cancel: Option<&CancelToken>,
) {
    let n = rr.len();
    if rr.nodes().iter().all(|&v| level(levels, v) <= ls as u32) {
        failpoint::hit(failpoint::Site::HfsLevel, cancel);
        if cancel.is_some_and(CancelToken::is_cancelled) {
            sink.add(Counter::HfsNodesPruned, n as u64);
            return;
        }
        let bucket = &mut buckets[ls];
        for &v in rr.nodes() {
            *bucket.entry(v).or_insert(0) += 1;
        }
        sink.add(Counter::HfsNodesVisited, n as u64);
        return;
    }
    let mut visited = 0u64;
    scratch.explored.clear();
    scratch.explored.resize(n, false);
    scratch.queues[ls].push(0);
    #[allow(clippy::needless_range_loop)] // h indexes both queues and buckets
    for h in ls..m {
        failpoint::hit(failpoint::Site::HfsLevel, cancel);
        if cancel.is_some_and(CancelToken::is_cancelled) {
            for queue in &mut scratch.queues[h..m] {
                queue.clear();
            }
            break;
        }
        while let Some(v) = scratch.queues[h].pop() {
            if scratch.explored[v as usize] {
                continue;
            }
            scratch.explored[v as usize] = true;
            visited += 1;
            *buckets[h].entry(rr.node(v)).or_insert(0) += 1;
            for &u in rr.out_neighbors(v) {
                if scratch.explored[u as usize] {
                    continue;
                }
                // `m` marks universe nodes outside every chain community
                // (possible when the chain excludes its sampling
                // universe's root) and `u32::MAX` nodes outside the
                // universe: no within-chain path can pass through them.
                let lu = level(levels, rr.node(u)) as usize;
                if lu >= m {
                    continue;
                }
                scratch.queues[lu.max(h)].push(u);
            }
        }
    }
    sink.add(Counter::HfsNodesVisited, visited);
    sink.add(Counter::HfsNodesPruned, n as u64 - visited);
}

/// Stage 2 of Algorithm 1, exposed for direct use and testing: scans
/// buckets from the deepest community upward maintaining the tie-inclusive
/// top-k pool justified by Theorem 3.
///
/// `buckets[h]` maps nodes to the number of RR graphs in which HFS first
/// reached them at level `h`; `theta` and `universe_len` only scale the
/// reported `sigma_q` values.
pub fn incremental_top_k(
    buckets: &[FxHashMap<NodeId, u32>],
    q: NodeId,
    k: usize,
    theta: usize,
    universe_len: usize,
) -> CodOutcome {
    incremental_top_k_with(
        buckets,
        q,
        k,
        theta,
        universe_len,
        &mut TopKScratch::default(),
        &mut TraceSink::default(),
    )
}

/// [`incremental_top_k`] with a reusable scratch workspace (the τ map and
/// the pool/candidate/τ-sort vectors). The scan is iteration-order
/// independent — counts fold through commutative addition and candidates
/// are sorted before use — so recycled map capacity cannot change the
/// outcome.
pub(crate) fn incremental_top_k_with(
    buckets: &[FxHashMap<NodeId, u32>],
    q: NodeId,
    k: usize,
    theta: usize,
    universe_len: usize,
    t: &mut TopKScratch,
    sink: &mut TraceSink,
) -> CodOutcome {
    assert!(k >= 1, "top-k requires k >= 1");
    t.prepare();
    let TopKScratch {
        tau,
        pool,
        candidates,
        taus,
    } = t;
    let m = buckets.len();
    // Pool: every node whose τ ties-or-beats the k-th highest seen so far.
    // Theorem 3 guarantees nodes outside (pool ∪ bucket) cannot enter the
    // top-k at the next level.
    let mut best_level = None;
    let mut ranks = Vec::with_capacity(m);
    let mut sigma_q = Vec::with_capacity(m);
    let mut uncertain = Vec::with_capacity(m);

    #[allow(clippy::needless_range_loop)] // h indexes three parallel per-level structures
    for h in 0..m {
        for (&v, &c) in &buckets[h] {
            *tau.entry(v).or_insert(0) += c;
        }
        candidates.clear();
        candidates.extend(pool.iter().copied());
        candidates.extend(buckets[h].keys().copied());
        candidates.sort_unstable();
        candidates.dedup();
        // The |pool ∪ bucket| candidate evaluations Theorem 3 bounds.
        sink.add(Counter::TopKHeapOps, candidates.len() as u64);

        // k-th highest τ among candidates (0 if fewer than k candidates).
        taus.clear();
        taus.extend(candidates.iter().map(|&v| tau[&v]));
        taus.sort_unstable_by(|a, b| b.cmp(a));
        let t_k = if taus.len() >= k { taus[k - 1] } else { 0 };
        pool.clear();
        pool.extend(
            candidates
                .iter()
                .copied()
                .filter(|&v| tau[&v] >= t_k.max(1)),
        );

        let tq = tau.get(&q).copied().unwrap_or(0);
        let higher = candidates.iter().filter(|&&v| tau[&v] > tq).count();
        let rank = higher + 1;
        // Uncertainty: would an adversarial ±z·√(τ(v)+τ(q)) count
        // perturbation flip the top-k verdict? (z ≈ 2, two-sided ~95%.)
        let margin = |tv: u32| 2.0 * ((tv + tq + 1) as f64).sqrt();
        let higher_lo = candidates
            .iter()
            .filter(|&&v| v != q && tau[&v] as f64 > tq as f64 + margin(tau[&v]))
            .count();
        let higher_hi = candidates
            .iter()
            .filter(|&&v| v != q && tau[&v] as f64 > tq as f64 - margin(tau[&v]))
            .count();
        uncertain.push((higher_lo < k) != (higher_hi < k));
        ranks.push(rank);
        sigma_q.push(tq as f64 / theta as f64 * universe_len as f64);
        if rank <= k {
            best_level = Some(h);
        }
    }

    CodOutcome {
        best_level,
        ranks,
        sigma_q,
        uncertain,
        theta,
        truncated: false,
        cancelled: false,
    }
}

/// The paper's literal heap-based incremental top-k (Algorithm 1, lines
/// 16–27), kept alongside [`incremental_top_k`] for fidelity testing.
///
/// Maintains a size-k min-heap `H` of accumulated counts; a node enters
/// only when its updated count strictly beats the heap minimum (line 22).
/// Under ties this can drop a node that the strictly-greater rank
/// definition would keep, so [`incremental_top_k`]'s tie-inclusive pool is
/// the default; on tie-free inputs both produce identical verdicts (see
/// the equivalence tests).
pub fn incremental_top_k_heap(
    buckets: &[FxHashMap<NodeId, u32>],
    q: NodeId,
    k: usize,
    theta: usize,
    universe_len: usize,
) -> CodOutcome {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    assert!(k >= 1);
    let m = buckets.len();
    let mut tau: FxHashMap<NodeId, u32> = FxHashMap::default();
    // Min-heap over (count, Reverse(node)) so ties pop the larger id first
    // (deterministic). Entries may be stale; validity is checked on pop.
    let mut heap: BinaryHeap<Reverse<(u32, Reverse<NodeId>)>> = BinaryHeap::new();
    let mut in_heap: FxHashSet<NodeId> = FxHashSet::default();
    let mut best_level = None;
    let mut ranks = Vec::with_capacity(m);
    let mut sigma_q = Vec::with_capacity(m);

    let mut entries: Vec<(NodeId, u32)> = Vec::new();
    for (h, bucket) in buckets.iter().enumerate() {
        // Heap admission under ties depends on processing order, and map
        // iteration order is insertion-history-dependent — iterate the
        // bucket in sorted node order so tie-breaks are reproducible.
        entries.clear();
        entries.extend(bucket.iter().map(|(&v, &c)| (v, c)));
        entries.sort_unstable_by_key(|&(v, _)| v);
        for &(v, c) in &entries {
            let t = tau.entry(v).or_insert(0);
            *t += c; // line 20: B_h(v) += τ(v); line 21: τ(v) = B_h(v)
            let tv = *t;
            // Line 22: enter H if beating the current minimum (or H has
            // room); membership updates are handled lazily via stale
            // entries.
            // Clear stale prefix first so peek() reflects a real member.
            while let Some(&Reverse((c0, Reverse(v0)))) = heap.peek() {
                if tau.get(&v0).copied().unwrap_or(0) != c0 || !in_heap.contains(&v0) {
                    heap.pop();
                } else {
                    break;
                }
            }
            let beats = in_heap.len() < k || heap.peek().is_some_and(|Reverse((c0, _))| *c0 < tv);
            if beats || in_heap.contains(&v) {
                heap.push(Reverse((tv, Reverse(v))));
                in_heap.insert(v);
                // Shrink membership past k, skipping stale entries.
                while in_heap.len() > k {
                    let Some(&Reverse((c0, Reverse(v0)))) = heap.peek() else {
                        unreachable!("heap holds an entry per in_heap member");
                    };
                    if tau.get(&v0).copied().unwrap_or(0) != c0 || !in_heap.contains(&v0) {
                        heap.pop(); // stale duplicate
                        continue;
                    }
                    heap.pop();
                    in_heap.remove(&v0);
                }
            }
        }
        // Drop stale heap prefix so the membership test is meaningful.
        while let Some(&Reverse((c0, Reverse(v0)))) = heap.peek() {
            if tau.get(&v0).copied().unwrap_or(0) != c0 || !in_heap.contains(&v0) {
                heap.pop();
            } else {
                break;
            }
        }
        let tq = tau.get(&q).copied().unwrap_or(0);
        let rank_est = if in_heap.contains(&q) {
            // Exact small-k rank among heap members.
            let higher = in_heap
                .iter()
                .filter(|&&v| tau.get(&v).copied().unwrap_or(0) > tq)
                .count();
            higher + 1
        } else {
            k + 1 // not in the top-k structure
        };
        ranks.push(rank_est);
        sigma_q.push(tq as f64 / theta as f64 * universe_len as f64);
        if in_heap.contains(&q) {
            best_level = Some(h); // lines 26–27
        }
    }
    let m_levels = ranks.len();
    CodOutcome {
        best_level,
        ranks,
        sigma_q,
        uncertain: vec![false; m_levels],
        theta,
        truncated: false,
        cancelled: false,
    }
}

use cod_graph::FxHashSet;

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;
    use cod_hierarchy::{cluster_unweighted, Dendrogram, LcaIndex};

    /// One fresh-sample evaluation on the calling thread, its master seed
    /// drawn from `rng`.
    fn eval(
        g: &Csr,
        chain: &Chain<'_>,
        q: NodeId,
        k: usize,
        theta: usize,
        budget: Option<usize>,
        rng: &mut SmallRng,
    ) -> CodResult<CodOutcome> {
        compressed_cod(
            g,
            Model::WeightedCascade,
            chain,
            q,
            k,
            theta,
            Samples::Seed(rng.next_u64()),
            EvalOptions {
                budget,
                par: Parallelism::Threads(1),
                ..EvalOptions::default()
            },
        )
    }

    /// Two stars joined by a bridge: node 0 is the hub of a 5-star
    /// {0..5}, node 6 the hub of a 3-star {6..9}; bridge 5-6.
    fn two_stars() -> Csr {
        let mut b = GraphBuilder::new(10);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        for v in 7..10 {
            b.add_edge(6, v);
        }
        b.add_edge(5, 6);
        b.build()
    }

    #[test]
    fn hub_is_top_1_in_the_whole_graph() {
        let g = two_stars();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = eval(&g, &chain, 0, 1, 200, None, &mut rng).unwrap();
        // Node 0 dominates its star and the whole graph: the characteristic
        // community should be the top of the chain (or near it).
        let best = out.best_level.expect("hub must be top-1 somewhere");
        assert_eq!(best, chain.len() - 1, "hub should win even at the root");
    }

    #[test]
    fn leaf_is_not_top_1_at_the_root() {
        let g = two_stars();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 9).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let out = eval(&g, &chain, 9, 1, 400, None, &mut rng).unwrap();
        assert!(
            *out.ranks.last().unwrap() > 1,
            "a periphery leaf cannot be top-1 globally"
        );
    }

    #[test]
    fn rank_one_at_every_level_for_dominant_node() {
        // A path graph where node 0... actually use the star: its hub is
        // rank 1 at every level of its chain.
        let mut b = GraphBuilder::new(6);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        let g = b.build();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(6, &merges);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let out = eval(&g, &chain, 0, 1, 300, None, &mut rng).unwrap();
        for (h, &r) in out.ranks.iter().enumerate() {
            assert_eq!(r, 1, "hub must rank 1 at level {h}");
        }
        assert_eq!(out.best_level, Some(chain.len() - 1));
    }

    #[test]
    fn sigma_estimates_grow_with_community_size() {
        let g = two_stars();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let out = eval(&g, &chain, 0, 1, 500, None, &mut rng).unwrap();
        // σ is monotone along the chain for a fixed node (more reachable
        // sources in larger communities).
        for w in out.sigma_q.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "sigma must not shrink: {:?}",
                out.sigma_q
            );
        }
        // At the top, σ̂ should be near the Monte-Carlo influence of 0.
        let mut mc_rng = SmallRng::seed_from_u64(5);
        let truth = cod_influence::montecarlo::influence(
            &g,
            Model::WeightedCascade,
            0,
            4000,
            SeedSequence::new(mc_rng.next_u64()),
            Parallelism::Threads(1),
            |_| true,
        );
        let est = *out.sigma_q.last().unwrap();
        assert!(
            (est - truth).abs() < 0.5,
            "sigma estimate {est} vs monte carlo {truth}"
        );
    }

    #[test]
    fn uncertainty_flags_align_with_margins() {
        // Clear-cut counts: no uncertainty. Borderline counts: flagged.
        let mut clear = FxHashMap::default();
        clear.insert(0u32, 1000u32);
        clear.insert(1, 10);
        let out = incremental_top_k(&[clear], 0, 1, 1010, 2);
        assert!(!out.uncertain[0]);
        let mut tight = FxHashMap::default();
        tight.insert(0u32, 100u32);
        tight.insert(1, 101);
        let out = incremental_top_k(&[tight], 0, 1, 201, 2);
        assert!(out.uncertain[0], "one-count gap must be uncertain");
    }

    #[test]
    fn heap_variant_matches_pool_variant_without_ties() {
        // On tie-free counts the paper's heap loop and the tie-inclusive
        // pool must agree on every per-level verdict.
        let mut rng = SmallRng::seed_from_u64(7);
        for trial in 0..40 {
            let levels = 1 + trial % 6;
            let k = 1 + trial % 4;
            let universe = 25u32;
            let mut buckets: Vec<FxHashMap<NodeId, u32>> = Vec::new();
            for _ in 0..levels {
                let mut m = FxHashMap::default();
                for v in 0..universe {
                    if rng.random_bool(0.5) {
                        // Large random counts make ties measure-zero.
                        m.insert(v, rng.random_range(1..1_000_000u32));
                    }
                }
                buckets.push(m);
            }
            let q = rng.random_range(0..universe);
            let a = incremental_top_k(&buckets, q, k, 100, universe as usize);
            let b = incremental_top_k_heap(&buckets, q, k, 100, universe as usize);
            assert_eq!(a.best_level, b.best_level, "trial {trial}");
            for h in 0..levels {
                assert_eq!(
                    a.ranks[h] <= k,
                    b.ranks[h] <= k,
                    "trial {trial} level {h}: {} vs {}",
                    a.ranks[h],
                    b.ranks[h]
                );
                assert_eq!(a.sigma_q[h], b.sigma_q[h]);
            }
        }
    }

    #[test]
    fn heap_variant_on_paper_example_4() {
        // Example 4's bucket contents (Fig. 3(b)): B_0, B_3, B_4 for query
        // v_0 and k = 2.
        let mut b0 = FxHashMap::default();
        for (v, c) in [(0u32, 2u32), (1, 2), (2, 1), (3, 1)] {
            b0.insert(v, c);
        }
        let mut b3 = FxHashMap::default();
        for (v, c) in [(6u32, 3u32), (7, 3), (3, 1)] {
            b3.insert(v, c);
        }
        let mut b4 = FxHashMap::default();
        for (v, c) in [(4u32, 2u32), (5, 2), (2, 1), (0, 1), (3, 1), (6, 1)] {
            b4.insert(v, c);
        }
        let buckets = vec![b0, b3, b4];
        let out = incremental_top_k(&buckets, 0, 2, 40, 10);
        // v_0 is top-2 in B_0 (count 2) and again after B_4 (count 3,
        // tying v_6's 4? — v_6 has 3 + 1 = 4 ... Example 4 reports the
        // final top-2 as {(v_6, .), (v_0, .)}; v_0 must be top-2 at levels
        // 0 and 2 but not 1.
        assert!(out.ranks[0] <= 2, "{:?}", out.ranks);
        assert!(out.ranks[1] > 2, "{:?}", out.ranks);
        assert!(out.ranks[2] <= 2, "{:?}", out.ranks);
        assert_eq!(out.best_level, Some(2));
    }

    #[test]
    fn zero_k_is_rejected_not_panicking() {
        let g = two_stars();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        let err = eval(&g, &chain, 0, 0, 10, None, &mut rng).unwrap_err();
        assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
    }

    #[test]
    fn budget_truncates_and_flags() {
        let g = two_stars();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        // θ=100 per node would mean 1000 samples; a budget of 40 truncates.
        let out = eval(&g, &chain, 0, 1, 100, Some(40), &mut rng).unwrap();
        assert!(out.truncated);
        assert_eq!(out.theta, 40);
        // A generous budget leaves the evaluation untouched.
        let out = eval(&g, &chain, 0, 1, 100, Some(1_000_000), &mut rng).unwrap();
        assert!(!out.truncated);
        assert_eq!(out.theta, 1000);
    }

    #[test]
    fn zero_budget_is_exhausted() {
        let g = two_stars();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(10);
        let err = eval(&g, &chain, 0, 1, 100, Some(0), &mut rng).unwrap_err();
        assert!(
            matches!(err, CodError::BudgetExhausted { budget: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn empty_chain_yields_no_community() {
        let g = GraphBuilder::new(1).build();
        let d = Dendrogram::singleton();
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        let out = eval(&g, &chain, 0, 1, 10, None, &mut rng).unwrap();
        assert!(out.best_level.is_none());
        assert!(out.ranks.is_empty());
    }
}
