//! Incremental-mutation pipeline suite: the determinism and invalidation
//! contracts of [`DynamicCod`]'s repair/patch path.
//!
//! The contracts under test:
//!
//! * **repaired ≡ rebuilt-from-scratch** — a seeded instance that flushes
//!   every mutation through the repair path (recluster + HIMOR patch)
//!   answers every query and serializes every artifact bit-identically to
//!   an instance that rebuilds from scratch after every event (and answers
//!   like a fresh instance fed the whole mutation log at once), at 1, 2
//!   and 8 threads, over a randomized 200-event schedule on the cora-like
//!   dataset;
//! * **reads are engine reads** — after a repaired, a rebuilt and a
//!   refreshed flush, every [`DynamicCod::query`] equals a fresh
//!   [`CodEngine::from_parts`] CODL query over the flushed artifacts with
//!   the same RNG, pooled and unpooled, with pools kept warm across the
//!   flushes;
//! * **scoped invalidation** — an attribute edit evicts exactly the pooled
//!   RR graphs keyed to a touched attribute: disjoint attributes' pools
//!   stay resident (and still bump the invalidation epoch); an edge
//!   evicts exactly the pools whose `C_ℓ` universe holds an endpoint;
//! * **property sweep** — on small random attributed graphs, the repair
//!   path matches the rebuild path for *every* node after *every* event,
//!   including node-growth events that force the rebuild fallback.

use pcod::cod::dynamic::{DynamicCod, FlushOutcome};
use pcod::cod::{select_recluster_community, serialize_artifacts, AnswerSource, Mutation};
use pcod::graph::{AttrTable, FxHashSet};
use pcod::hierarchy::Hierarchy;
use pcod::prelude::*;
use proptest::prelude::*;
use rand::prelude::*;
use std::sync::Arc;

/// `COD_FAILPOINTS=all` (the CI chaos leg) injects a 1ms delay at every
/// site; shrink the long schedule so the run stays bounded.
fn chaos_armed() -> bool {
    std::env::var_os("COD_FAILPOINTS").is_some()
}

/// Seeded configuration — the family that unlocks the repair/patch path.
fn seeded_cfg(threads: usize) -> CodConfig {
    CodConfig {
        k: 2,
        theta: 2,
        parallelism: Parallelism::Threads(threads),
        ..CodConfig::default()
    }
}

/// The answer fields that define bit-identity (source/trace metadata is
/// allowed to differ between serving paths; membership and rank are not).
fn comparable(ans: Option<CodAnswer>) -> Option<(Vec<NodeId>, usize, bool)> {
    ans.map(|a| (a.members, a.rank, a.uncertain))
}

/// The CODX image of `d`'s flushed graph, hierarchy and index.
fn artifact_bytes(d: &mut DynamicCod) -> Vec<u8> {
    let (g, dendro, index) = d.artifacts().unwrap();
    serialize_artifacts(g, dendro, index).unwrap()
}

/// A deterministic mutation schedule over a mirrored edge set: inserts
/// draw fresh non-edges, removals draw resident edges (so every event
/// applies), attribute edits re-key a random node within the interned
/// attribute range.
fn random_schedule(g: &AttributedGraph, events: usize, seed: u64) -> Vec<Mutation> {
    let n = g.num_nodes() as NodeId;
    let num_attrs = g.interner().len() as AttrId;
    let mut edges: Vec<(NodeId, NodeId)> = g.csr().edges().collect();
    let mut present: FxHashSet<(NodeId, NodeId)> = edges.iter().copied().collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut schedule = Vec::with_capacity(events);
    for _ in 0..events {
        let kind = rng.random_range(0..10u32);
        let m = if kind < 4 || (kind < 7 && edges.is_empty()) {
            loop {
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                let (u, v) = (a.min(b), a.max(b));
                if u != v && !present.contains(&(u, v)) {
                    present.insert((u, v));
                    edges.push((u, v));
                    break Mutation::InsertEdge { u, v };
                }
            }
        } else if kind < 7 {
            let i = rng.random_range(0..edges.len());
            let (u, v) = edges.swap_remove(i);
            present.remove(&(u, v));
            Mutation::RemoveEdge { u, v }
        } else {
            let node = rng.random_range(0..n);
            let take = rng.random_range(1..3usize);
            let mut attrs: Vec<AttrId> =
                (0..take).map(|_| rng.random_range(0..num_attrs)).collect();
            attrs.sort_unstable();
            attrs.dedup();
            Mutation::SetAttrs { node, attrs }
        };
        schedule.push(m);
    }
    schedule
}

/// The flagship equivalence run (the tentpole's acceptance schedule): a
/// randomized mutation stream on cora-like, served four ways —
///
/// * `a1`/`a2`/`a8`: repair-path instances at 1, 2 and 8 threads, flushed
///   at three *different* cadences (every event / every 3rd / every 7th),
/// * `r`: a `rebuild_threshold = 0` reference whose every flush is a full
///   from-scratch rebuild with the same pinned seed.
///
/// All four must answer probe queries bit-identically after every event,
/// and a fresh instance fed the accumulated mutation log in one batch must
/// agree too. `a1`'s serialized artifacts must equal `r`'s after every
/// event, and `a2`'s and `a8`'s at every checkpoint: every CODX section,
/// the dendrogram's merge order included. An insert-then-inverse pair of
/// repairs must restore the original build's bytes. Flush RNG streams are
/// deliberately *different* per instance: the seeded pipeline must never
/// consume them.
#[test]
fn randomized_cora_schedule_repairs_match_rebuilds_across_threads() {
    // The CI chaos leg (1ms delay at every checkpoint) charges every query
    // `samples × |H(q)|` hfs_level sleeps, so realistic graph sizes turn
    // each probe into seconds; the paper's 10-node example still crosses
    // every failpoint site while keeping the leg feasible.
    let (data, events, inverse_pairs) = if chaos_armed() {
        (pcod::datasets::paper_example(), 16, [(0, 9), (4, 9)])
    } else {
        (pcod::datasets::cora_like(7), 200, [(0, 1500), (3, 900)])
    };
    let g = &data.graph;
    const SEED: u64 = 0xC0DA;

    // Insert-then-inverse: adding an absent edge and removing it again,
    // each flushed as a repair, leaves the original build's bytes.
    let mut inv = DynamicCod::with_seed(g, seeded_cfg(1), SEED).unwrap();
    inv.set_rebuild_threshold(10.0);
    let original = artifact_bytes(&mut inv);
    for (u, v) in inverse_pairs {
        assert!(inv.insert_edge(u, v).unwrap(), "{u}-{v} must be absent");
        let rep = inv.flush().unwrap();
        assert!(
            matches!(rep.outcome, FlushOutcome::Repaired { .. }),
            "add {u} {v}: {rep:?}"
        );
        assert!(inv.remove_edge(u, v));
        let rep = inv.flush().unwrap();
        assert!(
            matches!(rep.outcome, FlushOutcome::Repaired { .. }),
            "del {u} {v}: {rep:?}"
        );
        assert!(
            artifact_bytes(&mut inv) == original,
            "add then del {u} {v}: artifacts differ from the original build's"
        );
    }
    drop(inv);

    let mut a1 = DynamicCod::with_seed(g, seeded_cfg(1), SEED).unwrap();
    let mut a2 = DynamicCod::with_seed(g, seeded_cfg(2), SEED).unwrap();
    let mut a8 = DynamicCod::with_seed(g, seeded_cfg(8), SEED).unwrap();
    for a in [&mut a1, &mut a2, &mut a8] {
        a.set_rebuild_threshold(10.0); // keep the repair path in play
    }
    let mut r = DynamicCod::with_seed(g, seeded_cfg(1), SEED).unwrap();
    r.set_rebuild_threshold(0.0); // every flush rebuilds from scratch

    let schedule = random_schedule(g, events, 0xEE);
    let edge_events = schedule
        .iter()
        .filter(|m| !matches!(m, Mutation::SetAttrs { .. }))
        .count();
    let probes: [NodeId; 4] = if chaos_armed() {
        [0, 3, 7, 9]
    } else {
        [0, 17, 401, 1234]
    };
    for (i, m) in schedule.iter().enumerate() {
        let applied = a1.apply(m).unwrap();
        assert!(applied, "schedule draws from the mirror, so events apply");
        assert!(a2.apply(m).unwrap());
        assert!(a8.apply(m).unwrap());
        assert!(r.apply(m).unwrap());

        let ev = i as u64;
        let rep = a1.flush().unwrap();
        let ref_rep = r.flush().unwrap();
        assert_eq!(rep.events, 1);
        if matches!(m, Mutation::SetAttrs { .. }) {
            // Attribute churn never touches the hierarchy on either path.
            assert_eq!(rep.outcome, FlushOutcome::Refreshed, "event {i}");
            assert_eq!(ref_rep.outcome, FlushOutcome::Refreshed, "event {i}");
        } else {
            assert!(
                matches!(rep.outcome, FlushOutcome::Repaired { .. }),
                "event {i}: {rep:?}"
            );
            assert_eq!(ref_rep.outcome, FlushOutcome::Rebuilt, "event {i}");
        }
        assert!(
            artifact_bytes(&mut a1) == artifact_bytes(&mut r),
            "event {i} ({m:?}): repaired artifacts differ from the rebuild's"
        );
        // Staggered cadences: a2 and a8 accumulate events across flushes.
        if i % 3 == 2 {
            a2.flush().unwrap();
        }
        if i % 7 == 6 {
            a8.flush().unwrap();
        }

        // Rotating probe after every event: repaired ≡ from-scratch.
        let q = probes[i % probes.len()];
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        let qseed = 100_000 + ev;
        let x = a1
            .query(q, attr, &mut SmallRng::seed_from_u64(qseed))
            .unwrap();
        let y = r
            .query(q, attr, &mut SmallRng::seed_from_u64(qseed))
            .unwrap();
        assert_eq!(
            comparable(x),
            comparable(y),
            "event {i} ({m:?}): repaired diverged from from-scratch at node {q}"
        );

        // Checkpoint: bring every cadence current and sweep the full probe
        // set across all four instances.
        if (i + 1) % 25 == 0 || i + 1 == schedule.len() {
            a2.flush().unwrap();
            a8.flush().unwrap();
            let reference = artifact_bytes(&mut a1);
            for (inst, name) in [(&mut a2, "2 threads"), (&mut a8, "8 threads")] {
                assert!(
                    artifact_bytes(inst) == reference,
                    "checkpoint {i}: {name} artifacts diverged"
                );
            }
            for &q in &probes {
                let attr = g.node_attrs(q).first().copied().unwrap_or(0);
                let qseed = 900_000 + ev * 10 + u64::from(q % 10);
                let reference = comparable(
                    a1.query(q, attr, &mut SmallRng::seed_from_u64(qseed))
                        .unwrap(),
                );
                for (inst, name) in [
                    (&mut a2, "2 threads"),
                    (&mut a8, "8 threads"),
                    (&mut r, "rebuild"),
                ] {
                    let got = comparable(
                        inst.query(q, attr, &mut SmallRng::seed_from_u64(qseed))
                            .unwrap(),
                    );
                    assert_eq!(got, reference, "checkpoint {i}, node {q}: {name} diverged");
                }
            }
        }
    }

    // The repair instance never fell back; the reference never repaired.
    let snap = a1.metrics_snapshot();
    assert_eq!(snap.repairs as usize, edge_events);
    assert_eq!(snap.full_rebuilds, 0);
    let snap = r.metrics_snapshot();
    assert_eq!(snap.repairs, 0);
    assert_eq!(snap.full_rebuilds as usize, edge_events);

    // Every instance counted the identical event stream: each event of the
    // schedule applied on all four (asserted above), once per kind.
    let kinds = |d: &DynamicCod| {
        let s = d.metrics_snapshot();
        [
            s.mutations_insert,
            s.mutations_remove,
            s.mutations_set_attrs,
        ]
    };
    assert_eq!(kinds(&a1).iter().sum::<u64>() as usize, events);
    for (inst, name) in [(&a2, "2 threads"), (&a8, "8 threads"), (&r, "rebuild")] {
        assert_eq!(kinds(inst), kinds(&a1), "{name} counted other events");
    }

    // Seed + event replay: a fresh instance fed the whole schedule in one
    // batch (one big repair) agrees with the instance that lived through it.
    let mut fresh = DynamicCod::with_seed(g, seeded_cfg(1), SEED).unwrap();
    fresh.set_rebuild_threshold(10.0);
    for m in &schedule {
        assert!(fresh.apply(m).unwrap());
    }
    let rep = fresh.flush().unwrap();
    assert_eq!(rep.events, events);
    assert!(
        matches!(rep.outcome, FlushOutcome::Repaired { .. }),
        "{rep:?}"
    );
    for &q in &probes {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        let x = comparable(a1.query(q, attr, &mut SmallRng::seed_from_u64(5)).unwrap());
        let y = comparable(
            fresh
                .query(q, attr, &mut SmallRng::seed_from_u64(5))
                .unwrap(),
        );
        assert_eq!(x, y, "log replay diverged at node {q}");
    }
}

/// Scoped invalidation (the ISSUE's acceptance case): with pools resident
/// for two disjoint attributes, re-keying a node to one of them evicts
/// exactly that attribute's pools — the other attribute's stay resident —
/// and an edit touching neither leaves every pool untouched. Every
/// mutation still bumps the invalidation epoch.
#[test]
fn attribute_edits_evict_only_the_touched_attributes_pools() {
    // Pool-warming queries pay minutes of injected sleeps under the CI
    // chaos leg, and the pool sites have their own chaos coverage in
    // tests/pool_reuse.rs — the eviction accounting this test checks is
    // delay-independent. Skip it.
    if chaos_armed() {
        return;
    }
    let data = pcod::datasets::amazon_like_scaled(300, 9);
    let g = &data.graph;
    let cfg = CodConfig {
        k: 3,
        theta: 15,
        pool: true,
        parallelism: Parallelism::Threads(1),
        ..CodConfig::default()
    };
    let mut d = DynamicCod::with_seed(g, cfg, 77).unwrap();
    let mut rng = SmallRng::seed_from_u64(1);

    // Warm the pool cache until at least two distinct attributes own
    // pools (index-fast-path queries build none; the compressed fallback
    // does).
    let mut per_attr: Vec<(AttrId, NodeId, usize)> = Vec::new();
    for q in 0..g.num_nodes() as NodeId {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        if per_attr.iter().any(|&(a, ..)| a == attr) {
            continue;
        }
        let before = d.pool_stats().pools;
        let _ = d.query(q, attr, &mut rng).unwrap();
        let after = d.pool_stats().pools;
        if after > before {
            per_attr.push((attr, q, after - before));
            if per_attr.len() >= 2 {
                break;
            }
        }
    }
    let [(attr_a, _, pools_a), (attr_b, q_b, pools_b)] = per_attr[..] else {
        panic!("no two attributes built pools on this dataset");
    };
    let total = d.pool_stats().pools;
    // A pooled CODL read samples inside its LORE community C_ℓ: attr_b's
    // pools span the members of the community LORE picks for (q_b, attr_b).
    let universe_b = {
        let (graph, dendro, _) = d.artifacts().unwrap();
        let lca = LcaIndex::new(dendro);
        let choice = select_recluster_community(graph, dendro, &lca, q_b, attr_b)
            .expect("a compressed CODL read had a LORE choice");
        dendro.members_sorted(choice.vertex)
    };
    assert!(
        universe_b.len() < g.num_nodes(),
        "attr {attr_b}'s pool is scoped to C_ℓ, not the whole graph"
    );
    let num_attrs = g.interner().len() as AttrId;
    let attr_c = (0..num_attrs)
        .find(|a| *a != attr_a && *a != attr_b)
        .expect("a third attribute exists");

    // 1. An edit touching neither pooled attribute: all pools survive,
    //    the epoch still moves (readers must revisit, and may keep).
    let x = (0..g.num_nodes() as NodeId)
        .find(|&v| g.node_attrs(v).iter().all(|&a| a != attr_a && a != attr_b))
        .expect("a node keyed away from both pooled attributes");
    let epoch = d.pool_epoch();
    d.set_attrs(x, vec![attr_c]).unwrap();
    assert_eq!(
        d.pool_stats().pools,
        total,
        "disjoint attribute edit must leave every pool resident"
    );
    assert_eq!(d.pool_epoch(), epoch + 1);
    let evictions_before = d.metrics_snapshot().pool_scoped_evictions;

    // 2. An edit touching `attr_a`: exactly its pools go, `attr_b`'s stay.
    let y = (0..g.num_nodes() as NodeId)
        .find(|&v| v != x && g.node_attrs(v).iter().all(|&a| a != attr_b))
        .expect("a node keyed away from attr_b");
    d.set_attrs(y, vec![attr_a]).unwrap();
    let after = d.pool_stats().pools;
    assert_eq!(
        after,
        total - pools_a,
        "exactly attr {attr_a}'s pools must be evicted"
    );
    assert!(after > 0, "attr {attr_b}'s pools must survive");
    assert_eq!(
        d.metrics_snapshot().pool_scoped_evictions,
        evictions_before + pools_a as u64
    );

    // 3. Topology edits evict exactly the pools whose universe holds an
    //    endpoint (only attr_b's pools are resident now). An edge outside
    //    every universe evicts none; an edge from inside attr_b's universe
    //    evicts all of attr_b's pools. The epoch moves both times.
    let inside = |v: NodeId| universe_b.binary_search(&v).is_ok();
    let absent_edge = |keep: &dyn Fn(NodeId, NodeId) -> bool| {
        let n = g.num_nodes() as NodeId;
        (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .find(|&(u, v)| keep(u, v) && !g.csr().has_edge(u, v))
            .expect("an absent edge of the wanted shape")
    };
    let (u, v) = absent_edge(&|u, v| !inside(u) && !inside(v));
    let epoch = d.pool_epoch();
    let evictions = d.metrics_snapshot().pool_scoped_evictions;
    assert!(d.insert_edge(u, v).unwrap());
    assert_eq!(
        d.pool_stats().pools,
        pools_b,
        "an edge outside every pool universe must evict nothing"
    );
    assert_eq!(d.metrics_snapshot().pool_scoped_evictions, evictions);
    assert_eq!(d.pool_epoch(), epoch + 1);

    let (u, v) = absent_edge(&|u, v| inside(u) && !inside(v));
    let epoch = d.pool_epoch();
    assert!(d.insert_edge(u, v).unwrap());
    assert_eq!(
        d.pool_stats().pools,
        0,
        "an edge into attr {attr_b}'s universe must evict its pools"
    );
    assert_eq!(
        d.metrics_snapshot().pool_scoped_evictions,
        evictions + pools_b as u64
    );
    assert_eq!(d.pool_epoch(), epoch + 1);
}

/// The answer fields an engine read is compared on: members, rank, source
/// and the uncertainty flag.
fn engine_fields(ans: Option<CodAnswer>) -> Option<(Vec<NodeId>, usize, AnswerSource, bool)> {
    ans.map(|a| (a.members, a.rank, a.source, a.uncertain))
}

/// Reads through [`DynamicCod::query`] are [`CodEngine`] CODL reads over
/// the flushed artifacts: after a repaired, a rebuilt and a refreshed
/// (attribute-only) flush, every target answers exactly like a fresh
/// `CodEngine::from_parts` over [`DynamicCod::artifacts`] queried with an
/// equal RNG — pooled (with the dynamic instance's pools kept warm across
/// the flushes, the fresh engine's cold) and unpooled.
#[test]
fn dynamic_reads_equal_engine_codl_over_the_flushed_artifacts() {
    // Under the CI chaos leg every failpoint crossing sleeps, so the
    // paper's 10-node example stands in for cora.
    let (data, targets) = if chaos_armed() {
        (pcod::datasets::paper_example(), 4)
    } else {
        (pcod::datasets::cora_like(1), 128)
    };
    let g = &data.graph;
    let reads = pcod::datasets::gen_queries(g, targets, &mut SmallRng::seed_from_u64(0x51));
    let absent = (1..g.num_nodes() as NodeId)
        .find(|&v| !g.csr().has_edge(0, v))
        .expect("node 0 is not adjacent to every node");
    let (ru, rv) = g.csr().edges().next().expect("the graph has an edge");
    let node = reads[0].0;
    let other = (0..g.num_attrs() as AttrId)
        .find(|a| !g.node_attrs(node).contains(a))
        .expect("an attribute the node lacks");
    for pool in [false, true] {
        let cfg = CodConfig {
            pool,
            parallelism: Parallelism::Threads(1),
            ..CodConfig::default()
        };
        let mut d = DynamicCod::with_seed(g, cfg, 0x5EED).unwrap();
        // Each edit with the rebuild threshold that steers its flush.
        let steps = [
            (Mutation::InsertEdge { u: 0, v: absent }, 10.0, "repaired"),
            (Mutation::RemoveEdge { u: ru, v: rv }, 0.0, "rebuilt"),
            (
                Mutation::SetAttrs {
                    node,
                    attrs: vec![other],
                },
                0.0,
                "refreshed",
            ),
        ];
        for (step, (m, threshold, want)) in steps.into_iter().enumerate() {
            d.set_rebuild_threshold(threshold);
            assert!(d.apply(&m).unwrap(), "step {step}: {m:?} applies");
            let got = match d.flush().unwrap().outcome {
                FlushOutcome::Noop => "noop",
                FlushOutcome::Refreshed => "refreshed",
                FlushOutcome::Repaired { .. } => "repaired",
                FlushOutcome::Rebuilt => "rebuilt",
            };
            assert_eq!(got, want, "step {step}: {m:?}");
            let fresh = {
                let (graph, dendro, index) = d.artifacts().unwrap();
                CodEngine::from_parts(
                    Arc::new(graph.clone()),
                    cfg,
                    Arc::new(Hierarchy::new(dendro.clone())),
                    Arc::new(index.clone()),
                )
            };
            let mut differ = Vec::new();
            for (i, &(q, attr)) in reads.iter().enumerate() {
                let seed = 1000 * step as u64 + i as u64;
                let ours = d.query(q, attr, &mut SmallRng::seed_from_u64(seed));
                let theirs = fresh.query(
                    Query::new(q, attr, Method::Codl),
                    &mut SmallRng::seed_from_u64(seed),
                );
                if engine_fields(ours.unwrap()) != engine_fields(theirs.unwrap()) {
                    differ.push((q, attr));
                }
            }
            assert!(
                differ.is_empty(),
                "pool {pool}, {got} flush: {} of {} reads differ from the engine's, first {:?}",
                differ.len(),
                reads.len(),
                differ.first()
            );
        }
    }
}

/// A mutation followed by its inverse restores every pooled answer. On a
/// pooled [`DynamicCod`], the CODL answers of a fixed target set, each read
/// with its own seeded RNG, are recorded. Then an edge insert, an edge
/// removal and an attribute edit at a pooled target are each applied,
/// flushed and read through, and undone and flushed: every answer must
/// equal the recorded one. The round trip crosses the LORE Δ-table
/// rebuilds, pool eviction and regrowth, and the HIMOR patch there and
/// back.
#[test]
fn a_mutation_and_its_inverse_restore_every_pooled_answer() {
    // Under the CI chaos leg every failpoint crossing sleeps, so every
    // (node, attribute) pair of the paper's 10-node example stands in for
    // cora's sampled targets.
    let data = if chaos_armed() {
        pcod::datasets::paper_example()
    } else {
        pcod::datasets::cora_like(1)
    };
    let g = &data.graph;
    let reads: Vec<(NodeId, AttrId)> = if chaos_armed() {
        (0..g.num_nodes() as NodeId)
            .flat_map(|q| g.node_attrs(q).iter().map(move |&a| (q, a)))
            .collect()
    } else {
        pcod::datasets::gen_queries(g, 40, &mut SmallRng::seed_from_u64(0x1417))
    };
    let cfg = CodConfig {
        theta: 2,
        pool: true,
        parallelism: Parallelism::Threads(1),
        ..CodConfig::default()
    };
    let mut d = DynamicCod::with_seed(g, cfg, 0x1417).unwrap();
    d.set_rebuild_threshold(10.0); // every edge flush patches the index
    let read_all = |d: &mut DynamicCod| -> Vec<_> {
        reads
            .iter()
            .enumerate()
            .map(|(i, &(q, attr))| {
                let mut rng = SmallRng::seed_from_u64(0x1417 + i as u64);
                engine_fields(d.query(q, attr, &mut rng).unwrap())
            })
            .collect()
    };
    let recorded = read_all(&mut d);
    let Some(target) = recorded
        .iter()
        .position(|a| a.as_ref().is_some_and(|a| a.2 == AnswerSource::Compressed))
    else {
        panic!("no target folded a pool");
    };
    let (q, attr) = reads[target];
    let n = g.num_nodes() as NodeId;
    let absent = (0..n)
        .find(|&v| v != q && !g.csr().has_edge(q, v))
        .expect("q is not adjacent to every node");
    let present = g.csr().neighbors(q)[0];
    let other = (0..g.num_attrs() as AttrId)
        .find(|&a| a != attr)
        .expect("a second attribute");
    let pairs = [
        (
            Mutation::InsertEdge { u: q, v: absent },
            Mutation::RemoveEdge { u: q, v: absent },
        ),
        (
            Mutation::RemoveEdge { u: q, v: present },
            Mutation::InsertEdge { u: q, v: present },
        ),
        (
            Mutation::SetAttrs {
                node: q,
                attrs: vec![other],
            },
            Mutation::SetAttrs {
                node: q,
                attrs: g.node_attrs(q).to_vec(),
            },
        ),
    ];
    for (m, inverse) in pairs {
        let evictions = d.metrics_snapshot().pool_scoped_evictions;
        for event in [&m, &inverse] {
            assert!(d.apply(event).unwrap(), "{event:?} applies");
            let outcome = d.flush().unwrap().outcome;
            if matches!(event, Mutation::SetAttrs { .. }) {
                assert_eq!(outcome, FlushOutcome::Refreshed, "{event:?}");
            } else {
                assert!(
                    matches!(outcome, FlushOutcome::Repaired { .. }),
                    "{event:?}: {outcome:?}"
                );
            }
            if std::ptr::eq(event, &m) {
                assert!(
                    d.metrics_snapshot().pool_scoped_evictions > evictions,
                    "{m:?} evicts the pool of ({q}, {attr})"
                );
                // Reads over the mutated graph rebuild the Δ tables and
                // regrow the evicted pools there.
                read_all(&mut d);
            }
        }
        let restored = read_all(&mut d);
        let differ: Vec<_> = (0..reads.len())
            .filter(|&i| restored[i] != recorded[i])
            .map(|i| reads[i])
            .collect();
        assert!(
            differ.is_empty(),
            "{m:?} then its inverse: {} of {} answers changed, first {:?}",
            differ.len(),
            reads.len(),
            differ.first()
        );
    }
}

/// A random connected attributed graph: spanning tree + extra edges,
/// three interned attributes assigned round-robin with a seeded twist.
fn random_attributed(n: usize, extra: usize, seed: u64) -> AttributedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n as NodeId {
        let u = rng.random_range(0..v);
        b.add_edge(u, v);
    }
    for _ in 0..extra {
        let u = rng.random_range(0..n as NodeId);
        let v = rng.random_range(0..n as NodeId);
        b.add_edge(u, v);
    }
    let lists = (0..n)
        .map(|v| vec![((v as u64 + seed) % 3) as AttrId])
        .collect();
    let mut interner = pcod::graph::AttrInterner::new();
    for name in ["A", "B", "C"] {
        interner.intern(name);
    }
    AttributedGraph::from_parts(b.build(), AttrTable::from_lists(lists), interner)
}

proptest! {
    // 12 cases normally; 3 under the delay-everywhere CI chaos leg, where
    // each case pays ~25s of injected checkpoint sleeps.
    #![proptest_config(ProptestConfig::with_cases(if chaos_armed() { 3 } else { 12 }))]

    /// On random small graphs, the repair path and the rebuild-every-time
    /// path answer identically for **every** node after **every** event —
    /// including node-growth inserts, which force the repair instance
    /// through its rebuild fallback.
    #[test]
    fn repaired_equals_rebuilt_for_every_node_after_every_event(
        n in 12usize..28,
        extra in 0usize..20,
        seed in 0u64..500,
    ) {
        let g = random_attributed(n, extra, seed);
        let cfg = CodConfig {
            k: 2,
            theta: 8,
            parallelism: Parallelism::Threads(2),
            ..CodConfig::default()
        };
        let mut a = DynamicCod::with_seed(&g, cfg, 0xBEEF).unwrap();
        a.set_rebuild_threshold(10.0);
        let mut r = DynamicCod::with_seed(&g, cfg, 0xBEEF).unwrap();
        r.set_rebuild_threshold(0.0);

        let mut edges: Vec<(NodeId, NodeId)> = g.csr().edges().collect();
        let mut present: FxHashSet<(NodeId, NodeId)> = edges.iter().copied().collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
        let mut nodes = n as NodeId;
        for i in 0..6u64 {
            let kind = rng.random_range(0..10u32);
            let m = if kind < 3 {
                // Growth: a brand-new node attaches — repair must fall
                // back to a rebuild and still agree.
                let u = rng.random_range(0..nodes);
                let v = nodes;
                nodes += 1;
                present.insert((u, v));
                edges.push((u, v));
                Mutation::InsertEdge { u, v }
            } else if kind < 6 {
                loop {
                    let a0 = rng.random_range(0..nodes);
                    let b0 = rng.random_range(0..nodes);
                    let (u, v) = (a0.min(b0), a0.max(b0));
                    if u != v && !present.contains(&(u, v)) {
                        present.insert((u, v));
                        edges.push((u, v));
                        break Mutation::InsertEdge { u, v };
                    }
                }
            } else if kind < 8 && !edges.is_empty() {
                let j = rng.random_range(0..edges.len());
                let (u, v) = edges.swap_remove(j);
                present.remove(&(u, v));
                Mutation::RemoveEdge { u, v }
            } else {
                let node = rng.random_range(0..nodes);
                Mutation::SetAttrs { node, attrs: vec![rng.random_range(0..3)] }
            };
            prop_assert!(a.apply(&m).unwrap());
            prop_assert!(r.apply(&m).unwrap());
            a.flush().unwrap();
            r.flush().unwrap();
            // Every node normally; every 5th under the CI chaos leg, where
            // each probe pays injected checkpoint sleeps on both instances.
            let stride = if chaos_armed() { 5 } else { 1 };
            for q in (0..nodes).step_by(stride) {
                let attr = (u64::from(q) % 3) as AttrId;
                let qseed = i * 1000 + u64::from(q);
                let x = comparable(a.query(q, attr, &mut SmallRng::seed_from_u64(qseed)).unwrap());
                let y = comparable(r.query(q, attr, &mut SmallRng::seed_from_u64(qseed)).unwrap());
                prop_assert_eq!(x, y, "event {} node {}: {:?}", i, q, m);
            }
        }
    }
}
