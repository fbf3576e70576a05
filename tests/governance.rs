//! Resource-governance suite: deadlines, cooperative cancellation, panic
//! isolation, admission control — driven by the deterministic failpoint
//! harness in `cod_core::failpoint`.
//!
//! The contract under test:
//! * a deadline that never passes leaves answers **bit-identical** to
//!   running without one (the seed-replay suite sweeps this across thread
//!   counts; here we pin the single-engine case),
//! * a deadline that passes produces a **bounded** outcome — a best-effort
//!   answer flagged [`CodAnswer::degraded`]/`uncertain`, or the typed
//!   [`CodError::DeadlineExceeded`] — never a hang,
//! * an injected panic at any site surfaces as [`CodError::Internal`] and
//!   leaves the engine fully serviceable,
//! * admission control sheds excess concurrent batches with the retriable
//!   [`CodError::Overloaded`].
//!
//! Failpoint state is process-global, so every test serializes behind one
//! lock. Injection scenarios are additionally gated on
//! `failpoint::compiled_in()` (failpoints are compiled out of release
//! builds; those tests become no-ops under `--release`).

use pcod::cod::failpoint::{self, Action, Site, SITES};
use pcod::prelude::*;
use rand::prelude::*;
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// Serializes every test in this file: the failpoint registry and the
/// engine metrics they assert on are process-global.
static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn dataset() -> pcod::datasets::Dataset {
    pcod::datasets::amazon_like_scaled(120, 8)
}

/// A deadline armed but long enough that no checkpoint can ever trip it:
/// the governed code paths run, the outcome must not change.
const GENEROUS_DEADLINE: Option<Duration> = Some(Duration::from_secs(3600));

fn base_cfg() -> CodConfig {
    CodConfig {
        k: 3,
        theta: 10,
        parallelism: Parallelism::Threads(2),
        ..CodConfig::default()
    }
}

/// Every method against a couple of query nodes — enough to drive every
/// failpoint site (CODL builds the index, CODR/CODL⁻ recluster).
fn workload(g: &AttributedGraph) -> Vec<Query> {
    let mut queries = Vec::new();
    for &q in &[0u32, 17] {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        queries.push(Query::codu(q));
        queries.push(Query::new(q, attr, Method::Codr));
        queries.push(Query::new(q, attr, Method::CodlMinus));
        queries.push(Query::new(q, attr, Method::Codl));
    }
    queries
}

/// Strips the unequatable error type for whole-sequence comparison.
fn comparable(
    results: Vec<CodResult<Option<CodAnswer>>>,
) -> Vec<Result<Option<CodAnswer>, String>> {
    results
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

fn run_workload(cfg: CodConfig, g: &AttributedGraph) -> Vec<Result<Option<CodAnswer>, String>> {
    let engine = CodEngine::new(g.clone(), cfg);
    let mut rng = SmallRng::seed_from_u64(7777);
    comparable(engine.query_batch(&workload(g), &mut rng))
}

/// A generous deadline leaves every answer bit-identical to the unlimited
/// engine — the governed paths (token polls) must not touch the RNG or
/// alter any result.
#[test]
fn generous_limits_answers_match_unlimited_answers() {
    let _g = guard();
    failpoint::disarm_all();
    let data = dataset();
    let unlimited = run_workload(base_cfg(), &data.graph);
    assert!(unlimited.iter().any(|r| matches!(r, Ok(Some(_)))));
    let governed = run_workload(
        CodConfig {
            deadline: GENEROUS_DEADLINE,
            ..base_cfg()
        },
        &data.graph,
    );
    assert_eq!(
        governed, unlimited,
        "a never-passing deadline changed answers"
    );
    for r in &governed {
        if let Ok(Some(a)) = r {
            assert!(a.degraded.is_none(), "no token fired, yet {a:?} degraded");
        }
    }
}

/// A zero deadline fires at the first checkpoint of every query. Each
/// result must still be bounded and well-typed: a (possibly degraded)
/// answer or `DeadlineExceeded` — never a hang or a panic.
#[test]
fn zero_deadline_queries_stay_bounded_and_flagged() {
    let _g = guard();
    failpoint::disarm_all();
    let data = dataset();
    let cfg = CodConfig {
        deadline: Some(Duration::ZERO),
        ..base_cfg()
    };
    let engine = CodEngine::new(data.graph.clone(), cfg);
    let mut rng = SmallRng::seed_from_u64(7777);
    let results = engine.query_batch(&workload(&data.graph), &mut rng);
    let mut fired = 0u64;
    for r in &results {
        match r {
            Ok(Some(a)) => {
                if let Some(rung) = a.degraded {
                    assert!(a.uncertain, "degraded answer must be uncertain: {a:?}");
                    assert!(
                        matches!(rung, Method::Codu | Method::CodlMinus | Method::Codl),
                        "unexpected serving rung {rung:?}"
                    );
                    fired += 1;
                }
            }
            Ok(None) => {}
            Err(CodError::DeadlineExceeded) => fired += 1,
            Err(other) => panic!("zero deadline produced a non-deadline error: {other}"),
        }
    }
    assert!(fired > 0, "a zero deadline never fired on any query");
    let metrics = engine.metrics();
    assert_eq!(
        metrics.answers_degraded,
        results
            .iter()
            .filter(|r| matches!(r, Ok(Some(a)) if a.degraded.is_some()))
            .count() as u64,
        "degraded counter out of sync with flagged answers"
    );
}

/// Delay injections at every site (the `COD_FAILPOINTS=all` baseline)
/// must be invisible in results: checkpoints are draw-order-neutral.
#[test]
fn delay_injection_at_every_site_preserves_answers() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    failpoint::disarm_all();
    let data = dataset();
    let cfg = CodConfig {
        deadline: GENEROUS_DEADLINE,
        ..base_cfg()
    };
    let baseline = run_workload(cfg, &data.graph);
    for site in SITES {
        failpoint::arm(site, Action::Delay(Duration::from_millis(1)));
    }
    let delayed = run_workload(cfg, &data.graph);
    failpoint::disarm_all();
    assert_eq!(delayed, baseline, "delays at checkpoints changed answers");
}

/// An injected panic at each site surfaces as `CodError::Internal` (never
/// escapes, never poisons), and the engine answers the same workload
/// cleanly once the failpoint is disarmed.
#[test]
fn panic_at_every_site_is_isolated_and_recoverable() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    let data = dataset();
    // Silence the default panic hook for *injected* panics only (the
    // engine catches every one of them); genuine test failures still print.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains("failpoint"));
        if !injected {
            eprintln!("{info}");
        }
    }));
    for site in SITES {
        failpoint::disarm_all();
        failpoint::arm(site, Action::Panic);
        let engine = CodEngine::new(data.graph.clone(), base_cfg());
        let mut rng = SmallRng::seed_from_u64(7777);
        let poisoned = engine.query_batch(&workload(&data.graph), &mut rng);
        let internals = poisoned
            .iter()
            .filter(|r| matches!(r, Err(CodError::Internal(m)) if m.contains("failpoint")))
            .count();
        assert!(
            internals > 0,
            "{site:?}: armed panic never surfaced as CodError::Internal"
        );
        for r in &poisoned {
            if let Err(e) = r {
                assert!(
                    matches!(e, CodError::Internal(_)),
                    "{site:?}: unexpected error kind {e}"
                );
            }
        }
        // Recovery: disarmed, the same engine must serve the full workload
        // without errors — no cache poisoning, no wedged locks.
        failpoint::disarm_all();
        let mut rng = SmallRng::seed_from_u64(7777);
        let recovered = engine.query_batch(&workload(&data.graph), &mut rng);
        assert!(
            recovered.iter().all(|r| r.is_ok()),
            "{site:?}: engine not serviceable after panic injection: {:?}",
            recovered.iter().find(|r| r.is_err())
        );
        assert!(recovered.iter().any(|r| matches!(r, Ok(Some(_)))));
    }
    std::panic::set_hook(prior_hook);
}

/// Forced cancellation at each site: every query completes with a bounded,
/// typed outcome — a degraded answer or `DeadlineExceeded` — and at least
/// one query per site actually degrades. Afterwards the engine serves
/// undegraded answers again (interrupted artifacts were never cached).
#[test]
fn forced_cancellation_at_every_site_degrades_gracefully() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    let data = dataset();
    for site in SITES {
        failpoint::disarm_all();
        failpoint::arm(site, Action::Cancel);
        // A deadline must be armed for a token to exist; a long one never
        // passes on its own, so every cancellation comes from the injection.
        let cfg = CodConfig {
            deadline: GENEROUS_DEADLINE,
            ..base_cfg()
        };
        let engine = CodEngine::new(data.graph.clone(), cfg);
        let mut rng = SmallRng::seed_from_u64(7777);
        let results = engine.query_batch(&workload(&data.graph), &mut rng);
        let mut fired = 0u64;
        for r in &results {
            match r {
                Ok(Some(a)) if a.degraded.is_some() => {
                    assert!(a.uncertain, "{site:?}: degraded answer not uncertain");
                    fired += 1;
                }
                Ok(_) => {}
                Err(CodError::DeadlineExceeded) => fired += 1,
                Err(other) => panic!("{site:?}: unexpected error {other}"),
            }
        }
        assert!(fired > 0, "{site:?}: forced cancellation never degraded");
        // Serviceable after: with the injection gone, fresh queries serve
        // at full fidelity on the same engine.
        failpoint::disarm_all();
        let mut rng = SmallRng::seed_from_u64(7777);
        for r in engine.query_batch(&workload(&data.graph), &mut rng) {
            let r = r.unwrap_or_else(|e| panic!("{site:?}: post-recovery error {e}"));
            if let Some(a) = r {
                assert!(a.degraded.is_none(), "{site:?}: stale degradation: {a:?}");
            }
        }
    }
}

/// Admission control: with `max_inflight = 1` and a slow in-flight batch,
/// concurrent batches are shed immediately with the retriable
/// `Overloaded` error, and a retry after the engine drains succeeds.
#[test]
fn overload_sheds_concurrent_batches_with_retriable_error() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    failpoint::disarm_all();
    // Each evaluation sleeps 100ms, so the barrier-released racers below
    // overlap with certainty.
    failpoint::arm(Site::EvalWorker, Action::Delay(Duration::from_millis(100)));
    let data = dataset();
    let cfg = CodConfig {
        max_inflight: Some(1),
        ..base_cfg()
    };
    let engine = CodEngine::new(data.graph.clone(), cfg);
    let queries = vec![Query::codu(0), Query::codu(17)];
    const RACERS: usize = 4;
    let barrier = Barrier::new(RACERS);
    let outcomes: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RACERS)
            .map(|i| {
                let (engine, barrier, queries) = (&engine, &barrier, &queries);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(9000 + i as u64);
                    barrier.wait();
                    let results = engine.query_batch(queries, &mut rng);
                    let shed = results
                        .iter()
                        .any(|r| matches!(r, Err(CodError::Overloaded { .. })));
                    if shed {
                        // Shedding is all-or-nothing per batch and retriable.
                        for r in &results {
                            match r {
                                Err(
                                    e @ CodError::Overloaded {
                                        max_inflight,
                                        retry_after,
                                    },
                                ) => {
                                    assert_eq!(*max_inflight, 1);
                                    assert!(e.is_retriable());
                                    assert!(
                                        *retry_after >= Duration::from_millis(25),
                                        "hint below the base: {retry_after:?}"
                                    );
                                }
                                other => panic!("mixed shed batch: {other:?}"),
                            }
                        }
                    }
                    shed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shed_batches = outcomes.iter().filter(|&&s| s).count();
    assert!(shed_batches > 0, "no batch was shed at max_inflight = 1");
    assert!(
        shed_batches < RACERS,
        "every batch was shed; none was admitted"
    );
    assert_eq!(
        engine.metrics().queries_shed,
        (shed_batches * queries.len()) as u64
    );
    // The engine has drained: a retry is admitted and succeeds.
    failpoint::disarm_all();
    let mut rng = SmallRng::seed_from_u64(9999);
    for r in engine.query_batch(&queries, &mut rng) {
        assert!(r.is_ok(), "retry after shedding failed: {r:?}");
    }
}

/// Concurrency stress (satellite of the governance tentpole): many threads
/// mixing `query`, `query_batch`, and `clear_cache` under injected delays
/// that widen every race window. Must terminate without deadlock, panic,
/// or error, and leave the cache and metrics tallies consistent.
#[test]
fn concurrent_queries_and_cache_clears_stay_consistent() {
    let _g = guard();
    failpoint::disarm_all();
    if failpoint::compiled_in() {
        for site in SITES {
            failpoint::arm(site, Action::Delay(Duration::from_millis(1)));
        }
    }
    let data = dataset();
    let cfg = CodConfig {
        deadline: GENEROUS_DEADLINE,
        ..base_cfg()
    };
    let engine = CodEngine::new(data.graph.clone(), cfg);
    let queries = workload(&data.graph);
    const WORKERS: usize = 8;
    const ROUNDS: usize = 2;
    let issued: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (engine, queries) = (&engine, &queries);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(4000 + w as u64);
                    let mut issued = 0u64;
                    for round in 0..ROUNDS {
                        match (w + round) % 3 {
                            0 => {
                                for &q in queries {
                                    engine.query(q, &mut rng).unwrap();
                                    issued += 1;
                                }
                            }
                            1 => {
                                for r in engine.query_batch(queries, &mut rng) {
                                    r.unwrap();
                                    issued += 1;
                                }
                            }
                            _ => {
                                engine.clear_cache();
                                for r in engine.query_batch(queries, &mut rng) {
                                    r.unwrap();
                                    issued += 1;
                                }
                            }
                        }
                    }
                    issued
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    failpoint::disarm_all();
    let metrics = engine.metrics();
    assert_eq!(metrics.queries, issued, "metrics lost or double-counted");
    assert_eq!(metrics.errors, 0);
    assert_eq!(metrics.queries_shed, 0, "nothing was shed: no cap set");
    assert_eq!(
        metrics.queries,
        metrics.answers_index + metrics.answers_compressed + metrics.answers_none + metrics.errors,
        "outcome tallies do not partition the query count"
    );
    let stats = engine.cache_stats();
    assert!(stats.misses > 0, "cache never built anything");
    assert!(
        stats.len <= stats.capacity,
        "cache overflowed its capacity: {stats:?}"
    );
    // The engine is still serviceable after the storm.
    let mut rng = SmallRng::seed_from_u64(31);
    assert!(engine.query(Query::codu(0), &mut rng).is_ok());
}

/// Permit-accounting regression (PR 6): a panic during the **plan pass**
/// (cache/index build, before any evaluation worker spawns) must release
/// the admission permit on unwind. The permit is RAII and minted before
/// planning, so `inflight()` must read 0 afterwards and the very next
/// call on a `max_inflight = 1` engine must be admitted — a leaked permit
/// would shed it forever.
#[test]
fn plan_pass_panic_releases_the_admission_permit() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    let data = dataset();
    let cfg = CodConfig {
        max_inflight: Some(1),
        ..base_cfg()
    };
    let engine = CodEngine::new(data.graph.clone(), cfg);
    let queries = workload(&data.graph);

    // CacheBuild fires inside the plan pass (recluster-cache and HIMOR
    // builds); EvalWorker fires inside the evaluation fan-out. Both paths
    // must release the permit whether the panic is swallowed into
    // `CodError::Internal` or unwinds out of the call.
    for site in [Site::CacheBuild, Site::EvalWorker] {
        failpoint::disarm_all();
        failpoint::arm(site, Action::Panic);
        let mut rng = SmallRng::seed_from_u64(606);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.query_batch(&queries, &mut rng)
        }));
        if let Ok(results) = &outcome {
            assert!(
                results.iter().any(|r| r.is_err()),
                "{site:?}: armed panic changed nothing"
            );
            assert!(
                !results
                    .iter()
                    .any(|r| matches!(r, Err(CodError::Overloaded { .. }))),
                "{site:?}: the panicking batch shed itself"
            );
        }
        failpoint::disarm_all();
        assert_eq!(
            engine.inflight(),
            0,
            "{site:?}: admission permit leaked across the panic"
        );
        // The real proof: the next batch is admitted and serves cleanly.
        let mut rng = SmallRng::seed_from_u64(607);
        for r in engine.query_batch(&queries, &mut rng) {
            assert!(
                r.is_ok(),
                "{site:?}: engine unserviceable after panic: {r:?}"
            );
        }
    }
    failpoint::disarm_all();
}

/// The shed-streak behind `Overloaded::retry_after` resets once a call is
/// admitted again: hints grow while pressure persists and fall back to the
/// base after recovery, so clients are never told to back off forever.
#[test]
fn retry_after_hint_grows_under_pressure_and_resets_on_admission() {
    let _g = guard();
    if !failpoint::compiled_in() {
        return;
    }
    failpoint::disarm_all();
    failpoint::arm(Site::EvalWorker, Action::Delay(Duration::from_millis(150)));
    let data = dataset();
    let cfg = CodConfig {
        max_inflight: Some(1),
        ..base_cfg()
    };
    let engine = CodEngine::new(data.graph.clone(), cfg);
    let queries = vec![Query::codu(0)];

    // Hold the only permit with a slow batch, then shed repeatedly.
    let hints: Vec<Duration> = std::thread::scope(|scope| {
        let holder = {
            let (engine, queries) = (&engine, &queries);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(71);
                engine.query_batch(queries, &mut rng)
            })
        };
        // Wait until the holder actually occupies the engine.
        while engine.inflight() == 0 {
            std::thread::yield_now();
        }
        let mut hints = Vec::new();
        for i in 0..4 {
            let mut rng = SmallRng::seed_from_u64(80 + i);
            match engine.query_batch(&queries, &mut rng).remove(0) {
                Err(CodError::Overloaded { retry_after, .. }) => hints.push(retry_after),
                other => panic!("expected a shed, got {other:?}"),
            }
        }
        holder.join().unwrap();
        hints
    });
    assert!(
        hints.windows(2).all(|w| w[0] <= w[1]),
        "hints shrank under sustained pressure: {hints:?}"
    );
    assert!(
        hints.last().unwrap() > &hints[0],
        "hints never grew: {hints:?}"
    );

    // Admission resets the streak: the next shed starts from the base.
    failpoint::disarm_all();
    let mut rng = SmallRng::seed_from_u64(90);
    for r in engine.query_batch(&queries, &mut rng) {
        assert!(r.is_ok());
    }
    assert_eq!(engine.retry_after_hint(), Duration::from_millis(25));
}
