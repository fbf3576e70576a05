//! Nearest-neighbour-chain agglomerative clustering on graphs.
//!
//! The paper (§V-A) builds its community hierarchies with "the nearest
//! neighbor chain algorithm \[54, 55\] and the unweighted-average linkage
//! function \[45\]". This module implements exactly that: clusters start as
//! singletons; the NN-chain walks to a pair of *mutual* nearest neighbours
//! and merges them. Two adjacent clusters `A`, `B` with total cross-edge
//! weight `W(A, B)` score `W(A, B) / (|A| · |B|)` (UPGMA on graphs); that
//! similarity is *reducible* (`sim(A ∪ B, C) ≤ max(sim(A, C), sim(B, C))`,
//! the mediant inequality), which guarantees the produced merge order is
//! identical to naive greedy agglomeration.
//!
//! Only *adjacent* clusters (connected by at least one edge) are candidates
//! for merging. If the graph is disconnected, each component is clustered
//! into its own subtree and the component roots are finally chained together
//! with zero-similarity merges so the result is always one dendrogram.

use cod_graph::{Csr, FxHashMap, NodeId};

use crate::dendrogram::VertexId;

/// One agglomerative merge: clusters `a` and `b` become vertex
/// `num_leaves + index`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Merge {
    /// First merged cluster (a leaf or an earlier merge result).
    pub a: VertexId,
    /// Second merged cluster.
    pub b: VertexId,
}

/// Unweighted-average similarity of two adjacent clusters of the given
/// sizes whose cross-edge weights sum to `cross`.
#[inline]
fn similarity(cross: f64, size_a: u32, size_b: u32) -> f64 {
    cross / (size_a as f64 * size_b as f64)
}

/// NN-chain state, indexed by **slot**. There are `n` slots, one per leaf
/// at the start. A merge folds the smaller adjacency map into the larger,
/// and the new cluster keeps the larger map's slot, so only the smaller
/// side's neighbours are re-keyed. Ties and the returned merges use
/// production ids (`num_leaves + merge index`), kept per slot in `id`, so
/// every choice is the one a loop keyed by id would make.
struct ChainState {
    /// `adj[slot]`: neighbour slot -> summed cross weight `W(A, B)`.
    adj: Vec<FxHashMap<u32, f64>>,
    /// `size[slot]`: the cluster's member count.
    size: Vec<u32>,
    /// `id[slot]`: the production id of the cluster in that slot.
    id: Vec<VertexId>,
    /// `slot[id]`: where cluster `id` lives (stale once it merged).
    slot: Vec<u32>,
    /// `alive[id]`: cluster `id` is unmerged and not set aside as a
    /// component root. One entry per production id made so far.
    alive: Vec<bool>,
}

impl ChainState {
    /// Deterministic nearest neighbor of slot `x`: maximum similarity,
    /// ties prefer `prev` (the cluster below `x` on the chain, to make
    /// mutual-NN detection sound under ties), then the smallest id.
    fn nearest(&self, x: u32, prev: Option<u32>) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        for (&y, &cross) in &self.adj[x as usize] {
            debug_assert!(self.alive[self.id[y as usize] as usize]);
            let sim = similarity(cross, self.size[x as usize], self.size[y as usize]);
            let better = match best {
                None => true,
                Some((bs, by)) => {
                    sim > bs
                        || (sim == bs
                            && (Some(y) == prev
                                || (Some(by) != prev
                                    && self.id[y as usize] < self.id[by as usize])))
                }
            };
            if better {
                best = Some((sim, y));
            }
        }
        best.map(|(_, y)| y)
    }

    /// Merges the clusters in slots `a` and `b` into a fresh cluster,
    /// returning its id. It lives in the slot of the larger map.
    fn merge(&mut self, a: u32, b: u32) -> VertexId {
        let c = self.alive.len() as VertexId;
        let (keep, fold) = if self.adj[a as usize].len() >= self.adj[b as usize].len() {
            (a, b)
        } else {
            (b, a)
        };
        let mut kept = std::mem::take(&mut self.adj[keep as usize]);
        let folded = std::mem::take(&mut self.adj[fold as usize]);
        kept.remove(&fold);
        // W(K ∪ F, Y) = W(K, Y) + W(F, Y): one addition per shared
        // neighbour, which commutes, so the sum's bits do not depend on
        // which side is kept. A neighbour of `K` alone is untouched.
        for (y, w) in folded {
            if y == keep {
                continue;
            }
            let sum = match kept.get_mut(&y) {
                Some(acc) => {
                    *acc += w;
                    *acc
                }
                None => {
                    kept.insert(y, w);
                    w
                }
            };
            let ym = &mut self.adj[y as usize];
            ym.remove(&fold);
            ym.insert(keep, sum);
        }
        self.adj[keep as usize] = kept;
        self.size[keep as usize] += self.size[fold as usize];
        self.alive[self.id[a as usize] as usize] = false;
        self.alive[self.id[b as usize] as usize] = false;
        self.alive.push(true);
        self.id[keep as usize] = c;
        self.slot.push(keep);
        c
    }
}

/// Clusters `g` with per-half-edge weights, producing the merge sequence of
/// a full dendrogram (`g.num_nodes() - 1` merges).
///
/// `weights[i]` is the weight of the half-edge at index `i` of the CSR
/// neighbor array (see [`Csr::neighbor_range`]); weights must be symmetric
/// across the two orientations of each edge. Pass [`cluster_unweighted`] for
/// unit weights.
pub fn cluster(g: &Csr, weights: &[f64]) -> Vec<Merge> {
    match cluster_governed(g, weights, |_| true) {
        Some(m) => m,
        None => unreachable!("an always-true callback never aborts"),
    }
}

/// [`cluster`] with a cooperative-cancellation hook: `keep_going` is called
/// after every merge with the number of merges made so far; returning
/// `false` abandons the clustering and yields `None`. Serving layers use it
/// to poll a deadline token every few hundred merges — the callback cannot
/// perturb the merge order, only cut it short.
pub fn cluster_governed(
    g: &Csr,
    weights: &[f64],
    keep_going: impl FnMut(usize) -> bool,
) -> Option<Vec<Merge>> {
    assert_eq!(
        weights.len(),
        g.num_half_edges(),
        "one weight per half-edge"
    );
    cluster_impl(g, |idx| weights[idx], keep_going)
}

/// Clusters `g` with unit edge weights (the non-attributed hierarchy `T`).
///
/// ```
/// use cod_graph::GraphBuilder;
/// use cod_hierarchy::{cluster_unweighted, Dendrogram};
///
/// let mut b = GraphBuilder::new(4);
/// for (u, v) in [(0, 1), (1, 2), (2, 3)] {
///     b.add_edge(u, v);
/// }
/// let g = b.build();
/// let merges = cluster_unweighted(&g);
/// let dendro = Dendrogram::from_merges(4, &merges);
/// assert_eq!(dendro.size(dendro.root()), 4);
/// // H(q): the communities containing node 0, deepest first.
/// let chain = dendro.root_path(0);
/// assert_eq!(*chain.last().unwrap(), dendro.root());
/// ```
pub fn cluster_unweighted(g: &Csr) -> Vec<Merge> {
    match cluster_impl(g, |_idx| 1.0, |_| true) {
        Some(m) => m,
        None => unreachable!("an always-true callback never aborts"),
    }
}

fn cluster_impl(
    g: &Csr,
    weight: impl Fn(usize) -> f64,
    keep_going: impl FnMut(usize) -> bool,
) -> Option<Vec<Merge>> {
    let n = g.num_nodes();
    if n == 0 {
        return Some(Vec::new());
    }
    let mut adj: Vec<FxHashMap<u32, f64>> = Vec::with_capacity(n);
    for u in 0..n as NodeId {
        let mut m = FxHashMap::default();
        m.reserve(g.degree(u));
        let range = g.neighbor_range(u);
        for (idx, &v) in range.clone().zip(g.neighbors(u)) {
            let w = weight(idx);
            debug_assert!(w >= 0.0, "edge weights must be non-negative");
            m.insert(v, w);
        }
        adj.push(m);
    }
    chain_prepared_governed(adj, keep_going)
}

/// Runs the NN-chain loop over singleton clusters: `adj[i]` holds the edge
/// weight from node `i` toward each neighbour. Fresh clusters get ids
/// continuing at `adj.len()`. The chain holds slots; the chain-start
/// cursor scans production ids.
fn chain_prepared_governed(
    adj: Vec<FxHashMap<u32, f64>>,
    mut keep_going: impl FnMut(usize) -> bool,
) -> Option<Vec<Merge>> {
    let n = adj.len();
    if n == 0 {
        return Some(Vec::new());
    }
    let mut slot = Vec::with_capacity(2 * n - 1);
    slot.extend(0..n as u32);
    let mut alive = Vec::with_capacity(2 * n - 1);
    alive.resize(n, true);
    let mut state = ChainState {
        adj,
        size: vec![1; n],
        id: (0..n as VertexId).collect(),
        slot,
        alive,
    };

    let mut merges: Vec<Merge> = Vec::with_capacity(n - 1);
    let mut roots: Vec<VertexId> = Vec::new(); // component roots, set aside
    let mut chain: Vec<u32> = Vec::new();
    let mut cursor: usize = 0; // scan position (an id) for fresh chain starts

    loop {
        if chain.is_empty() {
            // Find the next alive cluster to start a chain from.
            let mut start = None;
            while cursor < state.alive.len() {
                if state.alive[cursor] {
                    let s = state.slot[cursor];
                    if state.adj[s as usize].is_empty() {
                        // Component fully agglomerated: set its root aside.
                        state.alive[cursor] = false;
                        roots.push(cursor as VertexId);
                    } else {
                        start = Some(s);
                        break;
                    }
                }
                cursor += 1;
            }
            match start {
                Some(s) => chain.push(s),
                None => break,
            }
        }
        let Some(&top) = chain.last() else {
            unreachable!("chain refilled above or the loop broke");
        };
        if state.adj[top as usize].is_empty() {
            // Isolated root reached mid-chain.
            chain.pop();
            let id = state.id[top as usize];
            state.alive[id as usize] = false;
            roots.push(id);
            continue;
        }
        let prev = if chain.len() >= 2 {
            Some(chain[chain.len() - 2])
        } else {
            None
        };
        let Some(next) = state.nearest(top, prev) else {
            unreachable!("non-empty adjacency checked above");
        };
        if prev == Some(next) {
            chain.pop();
            chain.pop();
            merges.push(Merge {
                a: state.id[next as usize],
                b: state.id[top as usize],
            });
            let c = state.merge(top, next);
            debug_assert_eq!(c as usize, n + merges.len() - 1);
            if !keep_going(merges.len()) {
                return None;
            }
        } else {
            chain.push(next);
        }
    }

    // Chain component roots together (zero-similarity merges) so the result
    // is a single tree even on disconnected graphs.
    roots.sort_unstable();
    let mut acc = roots[0];
    for &r in &roots[1..] {
        let c = state.merge(state.slot[acc as usize], state.slot[r as usize]);
        merges.push(Merge { a: acc, b: r });
        acc = c;
        if !keep_going(merges.len()) {
            return None;
        }
    }
    debug_assert_eq!(merges.len(), n - 1);
    Some(merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dendrogram::Dendrogram;
    use cod_graph::GraphBuilder;
    use rand::prelude::*;

    fn barbell() -> Csr {
        // Dense triangles {0,1,2} and {3,4,5} joined by a weak bridge.
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Per-half-edge weights from a closure on the (unordered) edge.
    fn edge_weights(g: &Csr, f: impl Fn(NodeId, NodeId) -> f64) -> Vec<f64> {
        let mut w = vec![0.0; g.num_half_edges()];
        for u in 0..g.num_nodes() as NodeId {
            for (idx, &v) in g.neighbor_range(u).zip(g.neighbors(u)) {
                w[idx] = f(u.min(v), u.max(v));
            }
        }
        w
    }

    #[test]
    fn produces_full_hierarchy() {
        let g = barbell();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(6, &merges);
        assert_eq!(d.size(d.root()), 6);
    }

    #[test]
    fn triangles_merge_before_bridge() {
        let g = barbell();
        // Weak bridge: with distinct weights the greedy order is forced and
        // the two children of the root must be exactly the two triangles.
        let w = edge_weights(&g, |u, v| if (u, v) == (2, 3) { 0.25 } else { 1.0 });
        let merges = cluster(&g, &w);
        let d = Dendrogram::from_merges(6, &merges);
        let [a, b] = d.children(d.root());
        let mut sides = [d.members_sorted(a), d.members_sorted(b)];
        sides.sort();
        assert_eq!(sides[0], vec![0, 1, 2]);
        assert_eq!(sides[1], vec![3, 4, 5]);
    }

    #[test]
    fn weights_steer_merges() {
        // Path 0-1-2; edge 1-2 heavier, so {1,2} merges first.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let mut w = vec![0.0; g.num_half_edges()];
        for u in 0..3u32 {
            for (idx, &v) in g.neighbor_range(u).zip(g.neighbors(u)) {
                w[idx] = if (u, v) == (1, 2) || (u, v) == (2, 1) {
                    5.0
                } else {
                    1.0
                };
            }
        }
        let merges = cluster(&g, &w);
        assert_eq!(merges[0], Merge { a: 1, b: 2 });
    }

    #[test]
    fn disconnected_components_are_chained() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        // node 4 isolated
        let g = b.build();
        let merges = cluster_unweighted(&g);
        let d = Dendrogram::from_merges(5, &merges);
        assert_eq!(d.size(d.root()), 5);
        // {0,1} and {2,3} each appear as a community.
        let has = |want: &[NodeId]| {
            (0..d.num_vertices() as VertexId).any(|v| d.members_sorted(v) == want)
        };
        assert!(has(&[0, 1]));
        assert!(has(&[2, 3]));
    }

    #[test]
    fn single_node_graph() {
        let g = GraphBuilder::new(1).build();
        let merges = cluster_unweighted(&g);
        assert!(merges.is_empty());
    }

    #[test]
    fn governed_abort_stops_at_the_requested_merge() {
        let g = barbell();
        let unit = vec![1.0; g.num_half_edges()];
        let mut calls = Vec::new();
        let out = cluster_governed(&g, &unit, |done| {
            calls.push(done);
            done < 3
        });
        assert!(out.is_none(), "callback returning false must abort");
        assert_eq!(calls, vec![1, 2, 3], "one call per merge, in order");
        // An always-true callback reproduces the ungoverned merge sequence.
        let governed = cluster_governed(&g, &unit, |_| true).unwrap();
        assert_eq!(governed, cluster_unweighted(&g));
    }

    #[test]
    fn average_normalizes_by_size_product() {
        assert!((similarity(3.0, 2, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn average_linkage_is_reducible() {
        // sim(A∪B, C) <= max(sim(A,C), sim(B,C)) — mediant inequality.
        let (ac, bc) = (3.0, 1.0);
        let (sa, sb, sc) = (2, 5, 3);
        let lhs = similarity(ac + bc, sa + sb, sc);
        let rhs = similarity(ac, sa, sc).max(similarity(bc, sb, sc));
        assert!(lhs <= rhs + 1e-12);
    }

    /// The NN-chain loop as it stood before slots: keyed by production id,
    /// a merge folds `b`'s map into `a`'s, pushes a fresh map for the new
    /// cluster and re-keys every neighbour of both sides. Kept as the
    /// reference the slot loop must match merge for merge.
    fn reference_chain(mut adj: Vec<FxHashMap<VertexId, f64>>) -> Vec<Merge> {
        let n = adj.len();
        let mut size = vec![1u32; n];
        let mut alive = vec![true; n];
        let nearest = |adj: &[FxHashMap<VertexId, f64>],
                       size: &[u32],
                       x: VertexId,
                       prev: Option<VertexId>| {
            let mut best: Option<(f64, VertexId)> = None;
            for (&y, &cross) in &adj[x as usize] {
                let sim = similarity(cross, size[x as usize], size[y as usize]);
                let better = match best {
                    None => true,
                    Some((bs, by)) => {
                        sim > bs || (sim == bs && (Some(y) == prev || (Some(by) != prev && y < by)))
                    }
                };
                if better {
                    best = Some((sim, y));
                }
            }
            best.map(|(_, y)| y)
        };
        let merge = |adj: &mut Vec<FxHashMap<VertexId, f64>>,
                     size: &mut Vec<u32>,
                     alive: &mut Vec<bool>,
                     a: VertexId,
                     b: VertexId| {
            let c = size.len() as VertexId;
            let mut map_a = std::mem::take(&mut adj[a as usize]);
            let map_b = std::mem::take(&mut adj[b as usize]);
            map_a.remove(&b);
            for (y, w) in map_b {
                if y == a {
                    continue;
                }
                map_a.entry(y).and_modify(|acc| *acc += w).or_insert(w);
            }
            for (&y, &w) in &map_a {
                let ym = &mut adj[y as usize];
                ym.remove(&a);
                ym.remove(&b);
                ym.insert(c, w);
            }
            alive[a as usize] = false;
            alive[b as usize] = false;
            alive.push(true);
            size.push(size[a as usize] + size[b as usize]);
            adj.push(map_a);
            c
        };

        let mut merges = Vec::new();
        let mut roots: Vec<VertexId> = Vec::new();
        let mut chain: Vec<VertexId> = Vec::new();
        let mut cursor = 0;
        loop {
            if chain.is_empty() {
                let mut start = None;
                while cursor < alive.len() {
                    if alive[cursor] {
                        if adj[cursor].is_empty() {
                            alive[cursor] = false;
                            roots.push(cursor as VertexId);
                        } else {
                            start = Some(cursor as VertexId);
                            break;
                        }
                    }
                    cursor += 1;
                }
                match start {
                    Some(s) => chain.push(s),
                    None => break,
                }
            }
            let top = *chain.last().unwrap();
            if adj[top as usize].is_empty() {
                chain.pop();
                alive[top as usize] = false;
                roots.push(top);
                continue;
            }
            let prev = (chain.len() >= 2).then(|| chain[chain.len() - 2]);
            let next = nearest(&adj, &size, top, prev).unwrap();
            if prev == Some(next) {
                chain.pop();
                chain.pop();
                merge(&mut adj, &mut size, &mut alive, top, next);
                merges.push(Merge { a: next, b: top });
            } else {
                chain.push(next);
            }
        }
        roots.sort_unstable();
        let mut acc = roots[0];
        for &r in &roots[1..] {
            let c = merge(&mut adj, &mut size, &mut alive, acc, r);
            merges.push(Merge { a: acc, b: r });
            acc = c;
        }
        merges
    }

    /// The singleton adjacency maps `cluster` starts from.
    fn singleton_maps(g: &Csr, w: &[f64]) -> Vec<FxHashMap<VertexId, f64>> {
        (0..g.num_nodes() as NodeId)
            .map(|u| {
                g.neighbor_range(u)
                    .zip(g.neighbors(u))
                    .map(|(idx, &v)| (v, w[idx]))
                    .collect()
            })
            .collect()
    }

    /// Random edges on `n` nodes with probability `p` each, offset by
    /// `base`, so several calls build several components.
    fn random_edges(rng: &mut SmallRng, base: u32, n: u32, p: f64) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if rng.random_bool(p) {
                    out.push((base + u, base + v));
                }
            }
        }
        out
    }

    #[test]
    fn slot_loop_matches_the_reference_loop_merge_for_merge() {
        let mut rng = SmallRng::seed_from_u64(29);
        // Weight schemes: unit (ties everywhere), small integers (many
        // ties), random reals (ties measure-zero).
        type Scheme = fn(&mut SmallRng) -> f64;
        let schemes: [(&str, Scheme); 3] = [
            ("unit", |_| 1.0),
            ("small-int", |r| f64::from(r.random_range(1..4u32))),
            ("real", |r| 0.1 + r.random::<f64>()),
        ];
        // (name, node count, edges)
        type Case = (String, usize, Vec<(NodeId, NodeId)>);
        let mut graphs: Vec<Case> = Vec::new();
        for trial in 0..60u32 {
            // One component of 2–40 nodes at a varying density.
            let n = 2 + trial % 39;
            let p = [0.08, 0.2, 0.5][trial as usize % 3];
            graphs.push((
                format!("random {trial}"),
                n as usize,
                random_edges(&mut rng, 0, n, p),
            ));
            // Several components, then isolated nodes past them.
            let mut edges = Vec::new();
            let mut base = 0;
            for _ in 0..1 + trial % 4 {
                let size = rng.random_range(1..12u32);
                edges.extend(random_edges(&mut rng, base, size, 0.4));
                base += size;
            }
            let isolated = trial % 3;
            graphs.push((
                format!("components {trial}"),
                (base + isolated) as usize,
                edges,
            ));
        }
        // A hub that absorbs leaves one at a time, with a few leaf pairs.
        for leaves in [1u32, 5, 30, 120] {
            let mut edges: Vec<_> = (1..=leaves).map(|v| (0, v)).collect();
            edges.extend((1..leaves).step_by(7).map(|v| (v, v + 1)));
            graphs.push((format!("hub of {leaves}"), leaves as usize + 1, edges));
        }
        for (name, n, edges) in &graphs {
            let mut b = GraphBuilder::new(*n);
            for &(u, v) in edges {
                b.add_edge(u, v);
            }
            let g = b.build();
            for (scheme, weigh) in schemes {
                let mut wmap = std::collections::BTreeMap::new();
                for e in g.edges() {
                    wmap.insert(e, weigh(&mut rng));
                }
                let w = edge_weights(&g, |u, v| wmap[&(u, v)]);
                assert_eq!(
                    cluster(&g, &w),
                    reference_chain(singleton_maps(&g, &w)),
                    "{name}, {scheme} weights"
                );
            }
        }
    }

    #[test]
    fn matches_naive_greedy_on_small_graphs() {
        // Naive greedy agglomeration: repeatedly merge the globally most
        // similar adjacent pair. For a reducible linkage and tie-free
        // similarities, NN-chain must produce the same set of clusters.
        // Random distinct edge weights make ties measure-zero.
        let mut rng = SmallRng::seed_from_u64(3);
        for trial in 0..20 {
            let n = 8 + (trial % 5);
            let mut b = GraphBuilder::new(n);
            for u in 0..n as NodeId {
                for v in u + 1..n as NodeId {
                    if rng.random_bool(0.4) {
                        b.add_edge(u, v);
                    }
                }
            }
            let g = b.build();
            let mut wmap = std::collections::BTreeMap::new();
            for (u, v) in g.edges() {
                wmap.insert((u, v), 0.5 + rng.random::<f64>());
            }
            let w = edge_weights(&g, |u, v| wmap[&(u, v)]);
            let merges = cluster(&g, &w);
            let d = Dendrogram::from_merges(n, &merges);
            let naive = naive_greedy(&g, &wmap);
            // Compare the sets of communities (both should contain the same
            // non-singleton clusters for a reducible linkage).
            let mut got: Vec<Vec<NodeId>> = (n as VertexId..d.num_vertices() as VertexId)
                .map(|v| d.members_sorted(v))
                .collect();
            got.sort();
            let mut want = naive;
            want.sort();
            assert_eq!(got, want, "trial {trial}");
        }
    }

    /// Reference implementation: O(n^3) greedy average-linkage
    /// agglomeration. Returns the member sets of all internal vertices.
    fn naive_greedy(
        g: &Csr,
        wmap: &std::collections::BTreeMap<(NodeId, NodeId), f64>,
    ) -> Vec<Vec<NodeId>> {
        let n = g.num_nodes();
        let mut clusters: Vec<Option<Vec<NodeId>>> =
            (0..n as NodeId).map(|v| Some(vec![v])).collect();
        let cross = |a: &[NodeId], b: &[NodeId]| -> f64 {
            let mut w = 0.0;
            for &u in a {
                for &v in b {
                    if let Some(x) = wmap.get(&(u.min(v), u.max(v))) {
                        w += x;
                    }
                }
            }
            w / (a.len() as f64 * b.len() as f64)
        };
        let mut out = Vec::new();
        loop {
            let ids: Vec<usize> = clusters
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.as_ref().map(|_| i))
                .collect();
            if ids.len() <= 1 {
                break;
            }
            let mut best: Option<(f64, usize, usize)> = None;
            for (xi, &i) in ids.iter().enumerate() {
                for &j in &ids[xi + 1..] {
                    let w = cross(clusters[i].as_ref().unwrap(), clusters[j].as_ref().unwrap());
                    if w > 0.0 && best.is_none_or(|(bw, _, _)| w > bw) {
                        best = Some((w, i, j));
                    }
                }
            }
            let (i, j) = match best {
                Some((_, i, j)) => (i, j),
                None => {
                    // Disconnected remainder: chain roots in id order.
                    (ids[0], ids[1])
                }
            };
            let mut merged = clusters[i].take().unwrap();
            merged.extend(clusters[j].take().unwrap());
            merged.sort_unstable();
            out.push(merged.clone());
            clusters.push(Some(merged));
        }
        out
    }
}
