//! Property-based tests (proptest) for the core invariants.

use std::sync::Arc;

use cod_graph::FxHashMap;
use pcod::cod::compressed::{compressed_cod, incremental_top_k, CodOutcome, EvalOptions, Samples};
use pcod::cod::pool::RrPoolEntry;
use pcod::cod::recluster::build_hierarchy;
use pcod::cod::{select_recluster_community, DeltaTable};
use pcod::graph::subgraph::Subgraph;
use pcod::hierarchy::VertexId;
use pcod::influence::{RrArena, RrGraph, RrView};
use pcod::prelude::*;
use proptest::prelude::*;
use rand::prelude::*;

/// A random connected graph from a seed and size.
fn random_graph(n: usize, extra_edges: usize, seed: u64) -> Csr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Random spanning tree for connectivity.
    for v in 1..n as NodeId {
        let u = rng.random_range(0..v);
        b.add_edge(u, v);
    }
    for _ in 0..extra_edges {
        let u = rng.random_range(0..n as NodeId);
        let v = rng.random_range(0..n as NodeId);
        b.add_edge(u, v);
    }
    b.build()
}

/// `random_graph` with one or two of `attrs` (1 to 3) interned attributes
/// per node.
fn random_attributed(n: usize, extra_edges: usize, seed: u64, attrs: u32) -> AttributedGraph {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA77);
    let lists = (0..n)
        .map(|_| {
            let a = rng.random_range(0..attrs);
            let b = (a + 1) % attrs;
            if rng.random_bool(0.3) && a != b {
                vec![a.min(b), a.max(b)]
            } else {
                vec![a]
            }
        })
        .collect();
    let mut interner = pcod::graph::AttrInterner::new();
    for name in &["A", "B", "C"][..attrs as usize] {
        interner.intern(name);
    }
    AttributedGraph::from_parts(
        random_graph(n, extra_edges, seed),
        pcod::graph::AttrTable::from_lists(lists),
        interner,
    )
}

/// Definition 3 applied literally: each RR graph's node `v` is recorded
/// at the smallest level `h` whose induced RR graph — the graph restricted
/// to `C_h = {u : level_of(u) ≤ h}` — still reaches `v` from the source,
/// and the buckets are ranked by the paper's stage 2. Graphs whose source
/// lies in no chain community contribute nothing. No level table, no
/// shortcut, no HFS queues: the reference the compressed paths must equal
/// bit for bit.
fn definition3_outcome<'a>(
    chain: &Chain<'_>,
    draws: impl Iterator<Item = Option<RrView<'a>>>,
    q: NodeId,
    k: usize,
    theta: usize,
) -> CodOutcome {
    let m = chain.len();
    let mut buckets: Vec<FxHashMap<NodeId, u32>> = vec![FxHashMap::default(); m];
    for rr in draws.flatten() {
        let mut recorded: Vec<NodeId> = Vec::new();
        for (h, bucket) in buckets.iter_mut().enumerate() {
            for v in rr.reachable_within(|u| chain.level_of(u).is_some_and(|l| l <= h)) {
                if !recorded.contains(&v) {
                    recorded.push(v);
                    *bucket.entry(v).or_insert(0) += 1;
                }
            }
        }
    }
    incremental_top_k(&buckets, q, k, theta, chain.universe().len())
}

/// Algorithm 2 by a literal edge scan, the reference for the Δ tables:
/// each edge whose endpoints both carry `attr` and whose LCA lies on `q`'s
/// root path adds one to that community's Δ, the Eq. 3/4 prefix sum over
/// the path gives the scores, and the first strict maximum wins. Returns
/// the scores' bits and the choice as `(vertex, chain index, score bits)`.
#[allow(clippy::type_complexity)] // the two compared shapes, spelled out
fn scanned_lore(
    g: &AttributedGraph,
    d: &Dendrogram,
    lca: &LcaIndex,
    q: NodeId,
    attr: AttrId,
) -> (Option<Vec<u64>>, Option<(VertexId, usize, u64)>) {
    let path = d.root_path(q);
    if path.is_empty() {
        return (None, None);
    }
    let mut delta = vec![0u64; path.len()];
    for (u, v) in g.edges() {
        if !(g.has_attr(u, attr) && g.has_attr(v, attr)) {
            continue;
        }
        let c = lca.lca(d.leaf(u), d.leaf(v));
        if let Some(i) = path.iter().position(|&p| p == c) {
            delta[i] += 1;
        }
    }
    let mut scores = vec![0.0f64; path.len()];
    let mut best: Option<(VertexId, usize, f64)> = None;
    let mut sum = 0u64;
    for i in 1..path.len() {
        sum += delta[i] * u64::from(d.depth(path[i]));
        scores[i] = sum as f64 / d.size(path[i]) as f64;
        if scores[i] > best.map_or(0.0, |b| b.2) {
            best = Some((path[i], i, scores[i]));
        }
    }
    (
        Some(scores.iter().map(|r| r.to_bits()).collect()),
        best.map(|(v, i, r)| (v, i, r.to_bits())),
    )
}

/// One uniform-source draw: the source from `rng`, then its unrestricted
/// RR graph from the same stream.
fn draw_uniform<R: Rng>(sampler: &mut RrSampler<'_>, rng: &mut R) -> RrGraph {
    let source = rng.random_range(0..sampler.graph().num_nodes()) as NodeId;
    draw(sampler, source, rng, |_| true)
}

/// One draw from `source` whose traversal stays inside `keep`.
fn draw<R: Rng>(
    sampler: &mut RrSampler<'_>,
    source: NodeId,
    rng: &mut R,
    keep: impl Fn(NodeId) -> bool,
) -> RrGraph {
    let mut rr = RrGraph::default();
    sampler.sample_into(source, rng, keep, &mut rr);
    rr
}

/// One draw of compressed stage 1, replayed through the public sampler: a
/// uniform universe source from `rng`, no RR graph when the source is in
/// no chain community, and otherwise its RR graph restricted to the
/// universe, drawn from the same RNG into `rr`. Returns whether it drew.
fn replay_draw<R: Rng>(
    sampler: &mut RrSampler<'_>,
    chain: &Chain<'_>,
    universe: &[NodeId],
    rng: &mut R,
    rr: &mut RrGraph,
) -> bool {
    let s = universe[rng.random_range(0..universe.len())];
    if chain.level_of(s).is_none() {
        return false;
    }
    sampler.sample_into(s, rng, |v| universe.binary_search(&v).is_ok(), rr);
    true
}

/// Checks `chain` against the member sets read off its hierarchies,
/// deepest first: its length, sizes, members and universe, and that
/// `level_of(u)` is the first set holding `u` (`None` when no set does)
/// for every node of the `n`-node graph.
fn assert_chain_reads(chain: &Chain<'_>, sets: &[Vec<NodeId>], universe: &[NodeId], n: usize) {
    assert_eq!(chain.len(), sets.len());
    for (h, set) in sets.iter().enumerate() {
        assert_eq!(chain.size(h), set.len(), "size of C_{h}");
        assert_eq!(&chain.members(h), set, "members of C_{h}");
    }
    assert_eq!(chain.universe(), universe);
    for u in 0..n as NodeId {
        let first = sets.iter().position(|s| s.binary_search(&u).is_ok());
        assert_eq!(chain.level_of(u), first, "level of node {u}");
    }
}

/// Checks both sample sources of `compressed_cod` on `chain` against
/// [`definition3_outcome`] over the very draws they made: per-index seeding
/// at 1 and 2 threads, and a shared pool (the oracle reads the pool's own
/// view).
fn assert_compressed_matches_definition3(g: &Csr, chain: &Chain<'_>, q: NodeId, seed: u64) {
    if chain.is_empty() {
        return;
    }
    let (model, k, theta_per_node) = (Model::WeightedCascade, 2, 6);
    let universe = chain.universe();
    let theta = theta_per_node * universe.len();
    let mut sampler = RrSampler::new(g, model);
    let opts = |t| EvalOptions {
        par: Parallelism::Threads(t),
        ..EvalOptions::default()
    };

    let seeds = SeedSequence::new(seed);
    let (mut draws, mut rr) = (RrArena::default(), RrGraph::default());
    for i in 0..theta {
        let rng = &mut seeds.rng_for(i as u64);
        if replay_draw(&mut sampler, chain, &universe, rng, &mut rr) {
            draws.push(rr.view());
        }
    }
    let want = definition3_outcome(chain, draws.iter().map(Some), q, k, theta);
    for t in [1, 2] {
        let sampled = Samples::Seed(seed);
        let got = compressed_cod(g, model, chain, q, k, theta_per_node, sampled, opts(t)).unwrap();
        assert_eq!(got, want, "seeded, {t} threads");
    }

    let restricted = universe.len() < g.num_nodes();
    let pool = RrPoolEntry::new(None, Arc::new(universe), restricted);
    let pooled = Samples::Pool(&pool);
    let got = compressed_cod(g, model, chain, q, k, theta_per_node, pooled, opts(2)).unwrap();
    let (view, _) = pool.ensure(g, model, theta, Parallelism::Threads(2), None);
    let draws = view
        .iter()
        .take(theta)
        .map(|rr| chain.level_of(rr.source()).map(|_| rr));
    assert_eq!(
        got,
        definition3_outcome(chain, draws, q, k, theta),
        "pooled"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LORE's per-attribute Δ table, built once and read for every query
    /// node, chooses what a literal edge scan chooses: the same vertex,
    /// chain index and score bits, and the same score bits at every level
    /// of the root path, for every `(q, attr)`.
    #[test]
    fn lore_tables_match_a_literal_edge_scan(
        n in 4usize..20,
        extra in 0usize..30,
        seed in 0u64..1000,
        attrs in 1u32..4,
    ) {
        let g = random_attributed(n, extra, seed, attrs);
        let d = build_hierarchy(g.csr());
        let lca = LcaIndex::new(&d);
        for attr in 0..attrs {
            let table = DeltaTable::build(&g, &d, &lca, attr);
            for q in 0..n as NodeId {
                let (scores, choice) = scanned_lore(&g, &d, &lca, q, attr);
                let got = table.scores(&d, q).map(|s| s.iter().map(|r| r.to_bits()).collect());
                prop_assert_eq!(got, scores, "scores of ({}, {})", q, attr);
                let pick = |c: pcod::cod::ReclusterChoice| (c.vertex, c.chain_index, c.score.to_bits());
                prop_assert_eq!(table.select(&d, q).map(pick), choice, "choice of ({}, {})", q, attr);
                prop_assert_eq!(
                    select_recluster_community(&g, &d, &lca, q, attr).map(pick),
                    choice,
                    "one-off choice of ({}, {})", q, attr
                );
            }
        }
    }

    /// Dendrogram structural invariants on random connected graphs.
    #[test]
    fn dendrogram_invariants(n in 2usize..40, extra in 0usize..60, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let d = build_hierarchy(&g);
        prop_assert_eq!(d.num_leaves(), n);
        prop_assert_eq!(d.num_vertices(), 2 * n - 1);
        prop_assert_eq!(d.size(d.root()), n);
        // Children partition their parent.
        for v in n as u32..d.num_vertices() as u32 {
            let [a, b] = d.children(v);
            prop_assert_eq!(d.size(a) + d.size(b), d.size(v));
            prop_assert_eq!(d.depth(a), d.depth(v) + 1);
            let ma = d.members_sorted(a);
            let mb = d.members_sorted(b);
            let mut union: Vec<_> = ma.iter().chain(mb.iter()).copied().collect();
            union.sort_unstable();
            prop_assert_eq!(union, d.members_sorted(v));
        }
        // contains() agrees with membership lists.
        for v in 0..d.num_vertices() as u32 {
            let members = d.members_sorted(v);
            for u in 0..n as NodeId {
                prop_assert_eq!(d.contains(v, u), members.binary_search(&u).is_ok());
            }
        }
    }

    /// LCA index agrees with parent-pointer chasing.
    #[test]
    fn lca_matches_naive(n in 2usize..30, extra in 0usize..40, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let d = build_hierarchy(&g);
        let lca = LcaIndex::new(&d);
        let naive = |a: u32, b: u32| -> u32 {
            let mut anc = vec![a];
            let mut v = a;
            while d.parent(v) != pcod::hierarchy::NO_VERTEX {
                v = d.parent(v);
                anc.push(v);
            }
            let mut v = b;
            loop {
                if anc.contains(&v) {
                    return v;
                }
                v = d.parent(v);
            }
        };
        let nv = d.num_vertices() as u32;
        for a in (0..nv).step_by(3) {
            for b in (0..nv).step_by(4) {
                prop_assert_eq!(lca.lca(a, b), naive(a, b));
            }
        }
    }

    /// Every RR-graph node is reachable from the source, and induced
    /// restriction only keeps members.
    #[test]
    fn rr_graph_reachability(n in 2usize..30, extra in 0usize..50, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        let mut sampler = RrSampler::new(&g, Model::WeightedCascade);
        for _ in 0..10 {
            let rr = draw_uniform(&mut sampler, &mut rng);
            let rr = rr.view();
            let mut all = rr.reachable_within(|_| true);
            all.sort_unstable();
            let mut nodes = rr.nodes().to_vec();
            nodes.sort_unstable();
            prop_assert_eq!(all, nodes);
            // Restriction to even nodes only yields even nodes (or nothing).
            let within = rr.reachable_within(|v| v % 2 == 0);
            prop_assert!(within.iter().all(|&v| v % 2 == 0));
            if rr.source().is_multiple_of(2) {
                prop_assert!(within.contains(&rr.source()));
            } else {
                prop_assert!(within.is_empty());
            }
        }
    }

    /// The incremental top-k scan (Theorem 3's pool rule) is *exactly*
    /// equivalent to brute-force re-ranking of accumulated counts.
    #[test]
    fn incremental_top_k_is_exact(
        levels in 1usize..8,
        k in 1usize..6,
        seed in 0u64..5000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let universe: u32 = 30;
        // Random nested buckets: level h can contain any node id; counts
        // small so ties are frequent (stressing the tie-inclusive pool).
        let mut buckets: Vec<FxHashMap<NodeId, u32>> = Vec::new();
        for _ in 0..levels {
            let mut m = FxHashMap::default();
            for v in 0..universe {
                if rng.random_bool(0.4) {
                    m.insert(v, rng.random_range(1..5u32));
                }
            }
            buckets.push(m);
        }
        let q: NodeId = rng.random_range(0..universe);
        let out = incremental_top_k(&buckets, q, k, 100, universe as usize);

        // Brute force: accumulate counts level by level; q is top-k iff
        // fewer than k nodes have a strictly larger count.
        let mut acc: Vec<u32> = vec![0; universe as usize];
        let mut best = None;
        for (h, b) in buckets.iter().enumerate() {
            for (&v, &c) in b {
                acc[v as usize] += c;
            }
            let tq = acc[q as usize];
            let higher = acc.iter().filter(|&&c| c > tq).count();
            let is_top = higher < k;
            prop_assert_eq!(
                out.ranks[h] <= k,
                is_top,
                "level {}: incremental rank {} vs brute higher {}",
                h, out.ranks[h], higher
            );
            if is_top {
                best = Some(h);
            }
        }
        prop_assert_eq!(out.best_level, best);
    }

    /// Each of the three chains the methods evaluate reads what its
    /// hierarchies hold, and compressed evaluation over it equals the
    /// Definition-3 oracle bit for bit: `H(q)` in the whole-graph
    /// hierarchy, `q`'s path in a reclustered proper community with its
    /// root excluded (restricted sampling, and universe nodes in no chain
    /// community), and that path with the root kept, stacked on the
    /// community's ancestors.
    #[test]
    fn compressed_paths_match_the_definition3_oracle(
        n in 4usize..26,
        extra in 0usize..40,
        gseed in 0u64..1000,
        pick in 0usize..64,
        seed in 0u64..u64::MAX,
    ) {
        let g = random_graph(n, extra, gseed);
        let d = build_hierarchy(&g);
        let lca = LcaIndex::new(&d);
        let q = (gseed % n as u64) as NodeId;
        let path = d.root_path(q);
        let everyone: Vec<NodeId> = (0..n as NodeId).collect();
        let whole: Vec<Vec<NodeId>> = path.iter().map(|&v| d.members_sorted(v)).collect();
        let chain = Chain::new(&d, &lca, q).unwrap();
        assert_chain_reads(&chain, &whole, &everyone, n);
        assert_compressed_matches_definition3(&g, &chain, q, seed);
        let communities: Vec<u32> = path
            .iter()
            .copied()
            .filter(|&c| (3..n).contains(&d.size(c)))
            .collect();
        if !communities.is_empty() {
            let c = communities[pick % communities.len()];
            let sub = Subgraph::induced(&g, &d.members_sorted(c));
            let sd = build_hierarchy(&sub.csr);
            let slca = LcaIndex::new(&sd);
            // `members` lists are ascending and `parent` is monotone, so
            // the mapped sets stay sorted.
            let lower: Vec<Vec<NodeId>> = sd
                .root_path(sub.local(q).unwrap())
                .iter()
                .map(|&v| sd.members_sorted(v).iter().map(|&l| sub.parent(l)).collect())
                .collect();
            let chain = Chain::local(&sub, &sd, &slca, q, None).unwrap();
            assert_chain_reads(&chain, &lower[..lower.len() - 1], &sub.members, n);
            assert_compressed_matches_definition3(&g, &chain, q, seed);
            let above = path.iter().skip_while(|&&v| v != c).skip(1);
            let stitched: Vec<Vec<NodeId>> = lower
                .iter()
                .cloned()
                .chain(above.map(|&v| d.members_sorted(v)))
                .collect();
            let chain = Chain::local(&sub, &sd, &slca, q, Some((&d, &lca, c))).unwrap();
            assert_chain_reads(&chain, &stitched, &everyone, n);
            assert_compressed_matches_definition3(&g, &chain, q, seed);
        }
    }

    /// k-core members all have >= k neighbors inside the community.
    #[test]
    fn kcore_degree_invariant(n in 4usize..40, extra in 5usize..80, seed in 0u64..1000, k in 1u32..5) {
        let g = random_graph(n, extra, seed);
        if let Some(c) = cod_search::kcore::kcore_component(&g, 0, k, |_| true) {
            prop_assert!(c.binary_search(&0).is_ok());
            for &v in &c {
                let internal = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| c.binary_search(&u).is_ok())
                    .count();
                prop_assert!(internal >= k as usize, "node {} has {} < {}", v, internal, k);
            }
        }
    }

    /// Triangle-connected truss community invariants: every community edge
    /// has trussness >= k, shares a triangle with the community, and the
    /// query node is an endpoint of at least one community edge.
    #[test]
    fn truss_community_invariants(n in 4usize..25, extra in 10usize..60, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let t = cod_search::truss::TrussDecomposition::new(&g);
        let q = 0;
        if let Some(kq) = t.max_trussness_at(&g, q) {
            if kq >= 3 {
                let edges = t.triangle_connected_edges(&g, q, kq).unwrap();
                prop_assert!(!edges.is_empty());
                prop_assert!(
                    edges.iter().any(|&(u, v)| u == q || v == q),
                    "q touches the community"
                );
                let edge_set: std::collections::BTreeSet<(NodeId, NodeId)> =
                    edges.iter().copied().collect();
                for &(u, v) in &edges {
                    prop_assert!(t.edge_trussness(u, v).unwrap() >= kq);
                    // Some triangle through (u, v) lies fully inside the
                    // community (triangle connectivity).
                    let has_tri = g.neighbors(u).iter().any(|&w| {
                        g.has_edge(v, w)
                            && edge_set.contains(&(u.min(w), u.max(w)))
                            && edge_set.contains(&(v.min(w), v.max(w)))
                    });
                    prop_assert!(has_tri, "edge ({u},{v}) has no in-community triangle");
                }
                // Node list agrees with the edge endpoints.
                let c = t.triangle_connected_community(&g, q, kq).unwrap();
                let mut endpoints: Vec<NodeId> =
                    edges.iter().flat_map(|&(u, v)| [u, v]).collect();
                endpoints.sort_unstable();
                endpoints.dedup();
                prop_assert_eq!(c, endpoints);
            }
        }
    }

    /// `SeedSequence::seed_for` is injective over any index window: the
    /// derivation composes two bijections, so distinct sample indices can
    /// never collide regardless of the master seed.
    #[test]
    fn seed_derivation_is_injective(master in 0u64..u64::MAX, start in 0u64..1_000_000, span in 1usize..512) {
        let seq = SeedSequence::new(master);
        let seeds: Vec<u64> = (start..start + span as u64).map(|i| seq.seed_for(i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), seeds.len(), "seed collision within index window");
    }

    /// Child streams never collide with each other or with the parent's
    /// per-index seeds (the engine's fallback evaluation relies on its
    /// child stream being disjoint from the primary evaluation's).
    #[test]
    fn child_streams_are_distinct(master in 0u64..u64::MAX, a in 0u64..1000, b in 0u64..1000) {
        let seq = SeedSequence::new(master);
        if a != b {
            prop_assert_ne!(seq.child(a).master(), seq.child(b).master());
        }
        prop_assert_ne!(seq.child(a).master(), seq.master());
    }

    /// Replaying the same `(master, index)` pair reproduces the RR graph
    /// bit for bit: same source, same node order, same adjacency.
    #[test]
    fn same_master_and_index_replays_same_rr_graph(
        n in 2usize..30,
        extra in 0usize..50,
        gseed in 0u64..1000,
        master in 0u64..u64::MAX,
        index in 0u64..10_000,
    ) {
        let g = random_graph(n, extra, gseed);
        let seq = SeedSequence::new(master);
        let mut s1 = RrSampler::new(&g, Model::WeightedCascade);
        let mut s2 = RrSampler::new(&g, Model::WeightedCascade);
        let (rr1, rr2) = (
            draw_uniform(&mut s1, &mut seq.rng_for(index)),
            draw_uniform(&mut s2, &mut seq.rng_for(index)),
        );
        let (rr1, rr2) = (rr1.view(), rr2.view());
        prop_assert_eq!(rr1.source(), rr2.source());
        prop_assert_eq!(rr1.nodes(), rr2.nodes());
        for l in 0..rr1.len() as u32 {
            prop_assert_eq!(rr1.out_neighbors(l), rr2.out_neighbors(l));
        }
    }

    /// A draw reads only the adjacency rows of the nodes it activates
    /// (the contract of `Model::reverse_expand` and
    /// `RrSampler::sample_into`, which the HIMOR patch relies on): under
    /// every model, a seeded draw that avoids both endpoints of a toggled
    /// edge is the same RR graph on the toggled graph. `RrGraph` equality
    /// compares nodes, offsets and targets.
    #[test]
    fn a_draw_that_avoids_a_toggled_edge_is_unchanged(
        n in 3usize..30,
        extra in 0usize..50,
        gseed in 0u64..1000,
        a in 0u32..1000,
        b in 0u32..1000,
        master in 0u64..u64::MAX,
        index in 0u64..10_000,
    ) {
        let g = random_graph(n, extra, gseed);
        let u = a % n as u32;
        let v = (u + 1 + b % (n as u32 - 1)) % n as u32;
        let mut builder = GraphBuilder::new(n);
        for (x, y) in g.edges().filter(|&e| e != (u.min(v), u.max(v))) {
            builder.add_edge(x, y);
        }
        if !g.has_edge(u, v) {
            builder.add_edge(u, v);
        }
        let toggled = builder.build();
        prop_assert_ne!(g.has_edge(u, v), toggled.has_edge(u, v));
        let seq = SeedSequence::new(master);
        for model in [
            Model::WeightedCascade,
            Model::UniformIc(0.3),
            Model::LinearThreshold,
            Model::RandomK(2),
        ] {
            let before = draw_uniform(&mut RrSampler::new(&g, model), &mut seq.rng_for(index));
            if before.view().nodes().contains(&u) || before.view().nodes().contains(&v) {
                continue;
            }
            let after = draw_uniform(&mut RrSampler::new(&toggled, model), &mut seq.rng_for(index));
            prop_assert_eq!(&before, &after, "{:?} toggling ({}, {})", model, u, v);
        }
    }

    /// Under deterministic worlds (`UniformIc(1.0)`, every coin live) the
    /// restricted sample equals reachability-within-the-restriction on the
    /// unrestricted sample — Theorem 2's possible-world coupling, checkable
    /// exactly because no randomness is left.
    #[test]
    fn deterministic_restricted_sample_is_reachability_restriction(
        n in 2usize..30,
        extra in 0usize..50,
        gseed in 0u64..1000,
        master in 0u64..u64::MAX,
    ) {
        let g = random_graph(n, extra, gseed);
        let seq = SeedSequence::new(master);
        let keep = |v: NodeId| v.is_multiple_of(2);
        let source: NodeId = 0; // even, so keep(source) holds
        let mut s1 = RrSampler::new(&g, Model::UniformIc(1.0));
        let mut s2 = RrSampler::new(&g, Model::UniformIc(1.0));
        let restricted = draw(&mut s1, source, &mut seq.rng_for(0), keep);
        let full = draw(&mut s2, source, &mut seq.rng_for(0), |_| true);
        let mut got = restricted.view().nodes().to_vec();
        got.sort_unstable();
        let mut want = full.view().reachable_within(keep);
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Graph measures stay in bounds on arbitrary member subsets.
    #[test]
    fn measures_are_bounded(n in 3usize..30, extra in 0usize..50, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
        let members: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.random_bool(0.5)).collect();
        let rho = pcod::graph::measures::topology_density(&g, &members);
        prop_assert!((0.0..=1.0).contains(&rho));
        let cond = pcod::graph::measures::conductance(&g, &members);
        prop_assert!(cond >= 0.0);
    }

    /// With a shared seeded pool, `C*(q)` grows with `k`. The pooled
    /// samples derive from the pool key, not from `k`; a rank ≤ `k` is
    /// exact; and both the LORE choice and `largest_top_k` are monotone in
    /// `k`. So for CODU, CODL⁻ and CODL, each engine's index seeded alike,
    /// the answer at `k` is a subset of the answer at `k + 1` (`None`
    /// counting as empty).
    #[test]
    fn answers_grow_with_k_under_a_shared_pool(
        n in 4usize..20,
        extra in 0usize..30,
        seed in 0u64..1000,
    ) {
        let g = random_attributed(n, extra, seed, 3);
        let engines: Vec<CodEngine> = (1..=6)
            .map(|k| {
                let cfg = CodConfig { k, theta: 6, pool: true, ..CodConfig::default() };
                let engine = CodEngine::new(g.clone(), cfg);
                engine.ensure_himor(&mut SmallRng::seed_from_u64(seed)).unwrap();
                engine
            })
            .collect();
        for q in 0..n as NodeId {
            let attr = g.node_attrs(q)[0];
            for query in [
                Query::codu(q),
                Query::new(q, attr, Method::CodlMinus),
                Query::new(q, attr, Method::Codl),
            ] {
                let answers: Vec<Vec<NodeId>> = engines
                    .iter()
                    .map(|e| {
                        let ans = e.query(query, &mut SmallRng::seed_from_u64(seed)).unwrap();
                        let mut members = ans.map_or_else(Vec::new, |a| a.members);
                        members.sort_unstable();
                        members
                    })
                    .collect();
                for (k, pair) in (1..).zip(answers.windows(2)) {
                    prop_assert!(
                        pair[0].iter().all(|v| pair[1].binary_search(v).is_ok()),
                        "{:?} of {}: C* at k = {} is {:?}, at k = {} {:?}",
                        query.method, q, k, &pair[0], k + 1, &pair[1]
                    );
                }
            }
        }
    }
}
