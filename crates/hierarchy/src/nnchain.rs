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

struct ChainState {
    /// Per-cluster adjacency: neighbor cluster -> summed cross weight.
    adj: Vec<FxHashMap<VertexId, f64>>,
    size: Vec<u32>,
    alive: Vec<bool>,
}

impl ChainState {
    /// Deterministic nearest neighbor of `x`: maximum similarity, ties
    /// prefer `prev` (the cluster below `x` on the chain, to make mutual-NN
    /// detection sound under ties), then the smallest id.
    fn nearest(&self, x: VertexId, prev: Option<VertexId>) -> Option<VertexId> {
        let mut best: Option<(f64, VertexId)> = None;
        for (&y, &cross) in &self.adj[x as usize] {
            debug_assert!(self.alive[y as usize]);
            let sim = similarity(cross, self.size[x as usize], self.size[y as usize]);
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
    }

    /// Merges clusters `a` and `b` into a fresh cluster, returning its id.
    fn merge(&mut self, a: VertexId, b: VertexId) -> VertexId {
        let c = self.size.len() as VertexId;
        let mut map_a = std::mem::take(&mut self.adj[a as usize]);
        let map_b = std::mem::take(&mut self.adj[b as usize]);
        map_a.remove(&b);
        // Fold b's adjacency into a's: W(A ∪ B, Y) = W(A, Y) + W(B, Y).
        for (y, w) in map_b {
            if y == a {
                continue;
            }
            map_a.entry(y).and_modify(|acc| *acc += w).or_insert(w);
        }
        for (&y, &w) in &map_a {
            let ym = &mut self.adj[y as usize];
            ym.remove(&a);
            ym.remove(&b);
            ym.insert(c, w);
        }
        self.alive[a as usize] = false;
        self.alive[b as usize] = false;
        self.alive.push(true);
        self.size
            .push(self.size[a as usize] + self.size[b as usize]);
        self.adj.push(map_a);
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
    let mut adj: Vec<FxHashMap<VertexId, f64>> = Vec::with_capacity(2 * n);
    for u in 0..n as NodeId {
        let mut m = FxHashMap::default();
        m.reserve(g.degree(u));
        let range = g.neighbor_range(u);
        for (idx, &v) in range.clone().zip(g.neighbors(u)) {
            let w = weight(idx);
            debug_assert!(w >= 0.0, "edge weights must be non-negative");
            m.insert(v as VertexId, w);
        }
        adj.push(m);
    }
    chain_prepared_governed(adj, keep_going)
}

/// Runs the NN-chain loop over singleton clusters: `adj[i]` holds the edge
/// weight from node `i` toward each neighbour. Fresh clusters get ids
/// continuing at `adj.len()`.
fn chain_prepared_governed(
    adj: Vec<FxHashMap<VertexId, f64>>,
    mut keep_going: impl FnMut(usize) -> bool,
) -> Option<Vec<Merge>> {
    let n = adj.len();
    if n == 0 {
        return Some(Vec::new());
    }
    let mut state = ChainState {
        adj,
        size: vec![1; n],
        alive: vec![true; n],
    };

    let mut merges: Vec<Merge> = Vec::with_capacity(n - 1);
    let mut roots: Vec<VertexId> = Vec::new(); // component roots, set aside
    let mut chain: Vec<VertexId> = Vec::new();
    let mut cursor: usize = 0; // scan position for fresh chain starts

    loop {
        if chain.is_empty() {
            // Find the next alive cluster to start a chain from.
            let mut start = None;
            while cursor < state.alive.len() {
                if state.alive[cursor] {
                    if state.adj[cursor].is_empty() {
                        // Component fully agglomerated: set its root aside.
                        state.alive[cursor] = false;
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
        let Some(&top) = chain.last() else {
            unreachable!("chain refilled above or the loop broke");
        };
        if state.adj[top as usize].is_empty() {
            // Isolated root reached mid-chain.
            chain.pop();
            state.alive[top as usize] = false;
            roots.push(top);
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
            let c = state.merge(top, next);
            merges.push(Merge { a: next, b: top });
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
        let c = state.merge(acc, r);
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

    #[test]
    fn matches_naive_greedy_on_small_graphs() {
        // Naive greedy agglomeration: repeatedly merge the globally most
        // similar adjacent pair. For a reducible linkage and tie-free
        // similarities, NN-chain must produce the same set of clusters.
        // Random distinct edge weights make ties measure-zero.
        use rand::prelude::*;
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
