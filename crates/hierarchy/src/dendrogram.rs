//! The community hierarchy `T` as a rooted binary dendrogram.

use cod_graph::NodeId;

use crate::nnchain::Merge;

/// Identifier of a dendrogram vertex. Leaves are `0..num_leaves` (equal to
/// the graph's [`NodeId`]s); internal vertices follow in merge order.
pub type VertexId = u32;

/// Sentinel for "no vertex" (the root's parent).
pub const NO_VERTEX: VertexId = u32::MAX;

/// Why a merge sequence does not describe a valid dendrogram.
///
/// Returned by [`Dendrogram::try_from_merges`]; the panicking
/// [`Dendrogram::from_merges`] reports the same conditions via its panic
/// message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DendrogramError {
    /// `num_leaves == 0`.
    NoLeaves,
    /// The merge count is not `num_leaves - 1`.
    WrongMergeCount { num_leaves: usize, merges: usize },
    /// Merge `index` references a vertex that does not exist yet.
    FutureVertex { index: usize, vertex: VertexId },
    /// A vertex appears as a merge operand twice.
    VertexReused { vertex: VertexId },
    /// The merges leave more than one tree component.
    Disconnected,
}

impl std::fmt::Display for DendrogramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DendrogramError::NoLeaves => write!(f, "dendrogram needs at least one leaf"),
            DendrogramError::WrongMergeCount { num_leaves, merges } => write!(
                f,
                "a full hierarchy over {num_leaves} leaves needs {} merges, got {merges}",
                num_leaves.saturating_sub(1)
            ),
            DendrogramError::FutureVertex { index, vertex } => {
                write!(f, "merge {index} uses future vertex {vertex}")
            }
            DendrogramError::VertexReused { vertex } => write!(f, "vertex {vertex} merged twice"),
            DendrogramError::Disconnected => write!(f, "merges do not form one tree"),
        }
    }
}

impl std::error::Error for DendrogramError {}

/// A rooted binary community hierarchy over the nodes of a graph.
///
/// Every vertex corresponds to a community: a leaf holds a single graph
/// node, the root holds all nodes (paper §II-A). Depth follows the paper's
/// convention: `dep(root) = 1`, increasing toward the leaves, so along the
/// root path of a node the communities `C_0(q), C_1(q), ...` (deepest first)
/// have depths `|H(q)|, |H(q)|-1, ..., 1`.
///
/// Internally each vertex stores the half-open interval of positions its
/// leaves occupy in a DFS leaf ordering, giving O(1) membership tests and
/// O(|C|) member enumeration.
#[derive(Clone, Debug)]
pub struct Dendrogram {
    num_leaves: usize,
    parent: Vec<VertexId>,
    children: Vec<[VertexId; 2]>,
    size: Vec<u32>,
    depth: Vec<u32>,
    root: VertexId,
    /// Leaves (graph nodes) in DFS order.
    leaf_order: Vec<NodeId>,
    /// Position of each leaf in `leaf_order`.
    leaf_pos: Vec<u32>,
    /// Leaf interval `[start, end)` of each vertex in `leaf_order`.
    range: Vec<(u32, u32)>,
}

impl Dendrogram {
    /// Builds a dendrogram over `num_leaves` graph nodes from a merge
    /// sequence (as produced by [`crate::nnchain::cluster`]).
    ///
    /// The merges must form a single tree: exactly `num_leaves - 1` merges,
    /// each operand being either a leaf (`< num_leaves`) or the result of an
    /// earlier merge (`num_leaves + i` for merge `i`), and each used at most
    /// once. Panics otherwise — callers handling untrusted merge data (e.g.
    /// a persisted index) should use [`Dendrogram::try_from_merges`].
    pub fn from_merges(num_leaves: usize, merges: &[Merge]) -> Self {
        match Self::try_from_merges(num_leaves, merges) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Dendrogram::from_merges`]: validates the merge
    /// sequence and returns a [`DendrogramError`] instead of panicking, so
    /// untrusted inputs (persisted indices, user-supplied hierarchies) can
    /// never abort the process.
    pub fn try_from_merges(num_leaves: usize, merges: &[Merge]) -> Result<Self, DendrogramError> {
        if num_leaves == 0 {
            return Err(DendrogramError::NoLeaves);
        }
        if merges.len() != num_leaves - 1 {
            return Err(DendrogramError::WrongMergeCount {
                num_leaves,
                merges: merges.len(),
            });
        }
        let num_vertices = num_leaves + merges.len();
        let mut parent = vec![NO_VERTEX; num_vertices];
        let mut children = vec![[NO_VERTEX; 2]; num_vertices];
        let mut size = vec![1u32; num_vertices];
        for (i, m) in merges.iter().enumerate() {
            let v = (num_leaves + i) as VertexId;
            for &c in &[m.a, m.b] {
                if (c as usize) >= num_leaves + i {
                    return Err(DendrogramError::FutureVertex {
                        index: i,
                        vertex: c,
                    });
                }
                if parent[c as usize] != NO_VERTEX {
                    return Err(DendrogramError::VertexReused { vertex: c });
                }
                parent[c as usize] = v;
            }
            children[v as usize] = [m.a, m.b];
            size[v as usize] = size[m.a as usize] + size[m.b as usize];
        }
        let root = (num_vertices - 1) as VertexId;
        if parent[root as usize] != NO_VERTEX || size[root as usize] as usize != num_leaves {
            return Err(DendrogramError::Disconnected);
        }

        // Iterative DFS: depths (root = 1) and leaf intervals.
        let mut depth = vec![0u32; num_vertices];
        let mut range = vec![(0u32, 0u32); num_vertices];
        let mut leaf_order = Vec::with_capacity(num_leaves);
        let mut leaf_pos = vec![0u32; num_leaves];
        depth[root as usize] = 1;
        // Stack entries: (vertex, entered). On exit we know the interval end.
        let mut stack = vec![(root, false)];
        while let Some((v, entered)) = stack.pop() {
            if entered {
                range[v as usize].1 = leaf_order.len() as u32;
                continue;
            }
            range[v as usize].0 = leaf_order.len() as u32;
            if (v as usize) < num_leaves {
                leaf_pos[v as usize] = leaf_order.len() as u32;
                leaf_order.push(v as NodeId);
                range[v as usize].1 = leaf_order.len() as u32;
                continue;
            }
            stack.push((v, true));
            let [a, b] = children[v as usize];
            depth[a as usize] = depth[v as usize] + 1;
            depth[b as usize] = depth[v as usize] + 1;
            stack.push((b, false));
            stack.push((a, false));
        }

        Ok(Self {
            num_leaves,
            parent,
            children,
            size,
            depth,
            root,
            leaf_order,
            leaf_pos,
            range,
        })
    }

    /// A trivial hierarchy over one node (its leaf is the root).
    pub fn singleton() -> Self {
        Self::from_merges(1, &[])
    }

    /// Number of graph nodes (= leaves).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Total number of vertices (leaves + internal communities).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.parent.len()
    }

    /// The root vertex (the community holding all nodes).
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Parent of `v`, or [`NO_VERTEX`] for the root.
    #[inline]
    pub fn parent(&self, v: VertexId) -> VertexId {
        self.parent[v as usize]
    }

    /// Children of an internal vertex (`[NO_VERTEX; 2]` for leaves).
    #[inline]
    pub fn children(&self, v: VertexId) -> [VertexId; 2] {
        self.children[v as usize]
    }

    /// Whether `v` is a leaf.
    #[inline]
    pub fn is_leaf(&self, v: VertexId) -> bool {
        (v as usize) < self.num_leaves
    }

    /// Community size `|C|` (number of leaves under `v`).
    #[inline]
    pub fn size(&self, v: VertexId) -> usize {
        self.size[v as usize] as usize
    }

    /// Depth of `v`: `dep(root) = 1`, increasing toward leaves (paper §II-A
    /// convention, cf. Examples 2 and 5).
    #[inline]
    pub fn depth(&self, v: VertexId) -> u32 {
        self.depth[v as usize]
    }

    /// The leaf vertex of graph node `u` (identical id).
    #[inline]
    pub fn leaf(&self, u: NodeId) -> VertexId {
        debug_assert!((u as usize) < self.num_leaves);
        u as VertexId
    }

    /// Whether community `v` contains graph node `u` (O(1) interval test).
    #[inline]
    pub fn contains(&self, v: VertexId, u: NodeId) -> bool {
        let p = self.leaf_pos[u as usize];
        let (s, e) = self.range[v as usize];
        s <= p && p < e
    }

    /// Whether `a`'s community is a subset of (or equal to) `b`'s.
    #[inline]
    pub fn is_descendant(&self, a: VertexId, b: VertexId) -> bool {
        let (sa, ea) = self.range[a as usize];
        let (sb, eb) = self.range[b as usize];
        sb <= sa && ea <= eb
    }

    /// The half-open interval of positions community `v`'s leaves occupy in
    /// the DFS leaf order (the span backing [`Dendrogram::members`]).
    #[inline]
    pub fn leaf_span(&self, v: VertexId) -> (u32, u32) {
        self.range[v as usize]
    }

    /// The DFS leaf order backing the membership intervals.
    #[inline]
    pub fn leaf_order(&self) -> &[NodeId] {
        &self.leaf_order
    }

    /// The graph nodes of community `v`, in DFS order (not sorted by id).
    #[inline]
    pub fn members(&self, v: VertexId) -> &[NodeId] {
        let (s, e) = self.range[v as usize];
        &self.leaf_order[s as usize..e as usize]
    }

    /// The graph nodes of community `v`, sorted ascending by node id.
    pub fn members_sorted(&self, v: VertexId) -> Vec<NodeId> {
        let mut m = self.members(v).to_vec();
        m.sort_unstable();
        m
    }

    /// The hierarchical communities `H(u)` of node `u`: all ancestors of its
    /// leaf, from the deepest (`C_0(u)`, the leaf's parent) to the root
    /// (paper §II-A). Empty when the leaf is itself the root (1-node graph).
    pub fn root_path(&self, u: NodeId) -> Vec<VertexId> {
        let mut path = Vec::with_capacity(self.depth[u as usize] as usize);
        let mut v = self.parent[u as usize];
        while v != NO_VERTEX {
            path.push(v);
            v = self.parent[v as usize];
        }
        path
    }

    /// Cuts the hierarchy into (at most) `k` clusters by repeatedly
    /// splitting the shallowest current cluster root, and returns the
    /// per-node cluster labels in `0..returned_k`.
    ///
    /// This is the standard dendrogram flat-cut used to compare a
    /// hierarchy against ground-truth communities (NMI/ARI validation of
    /// the dataset presets). `k` is clamped to `[1, num_leaves]`.
    pub fn cut(&self, k: usize) -> Vec<u32> {
        let k = k.clamp(1, self.num_leaves);
        // Max-heap by (shallowest depth first, then largest size) so the
        // splits peel the top of the tree.
        use std::cmp::Reverse;
        let mut heap: std::collections::BinaryHeap<(Reverse<u32>, u32, VertexId)> =
            std::collections::BinaryHeap::new();
        heap.push((
            Reverse(self.depth(self.root)),
            self.size[self.root as usize],
            self.root,
        ));
        let mut roots = Vec::with_capacity(k);
        while roots.len() + heap.len() < k {
            let Some((_, _, v)) = heap.pop() else { break };
            if self.is_leaf(v) {
                roots.push(v);
                continue;
            }
            for c in self.children(v) {
                heap.push((Reverse(self.depth(c)), self.size[c as usize], c));
            }
        }
        roots.extend(heap.into_iter().map(|(_, _, v)| v));
        let mut labels = vec![0u32; self.num_leaves];
        for (i, &r) in roots.iter().enumerate() {
            for &leaf in self.members(r) {
                labels[leaf as usize] = i as u32;
            }
        }
        labels
    }

    /// The merge sequence that reconstructs this dendrogram via
    /// [`Dendrogram::from_merges`] (used by on-disk persistence).
    pub fn merges(&self) -> Vec<Merge> {
        (self.num_leaves..self.num_vertices())
            .map(|v| {
                let [a, b] = self.children[v];
                Merge { a, b }
            })
            .collect()
    }

    /// Average number of hierarchical communities per node,
    /// `|H̄(q)| = avg_u |H(u)|` (paper Table I reports this).
    pub fn avg_chain_len(&self) -> f64 {
        if self.num_leaves == 0 {
            return 0.0;
        }
        let total: u64 = (0..self.num_leaves)
            .map(|v| u64::from(self.depth[v]) - 1)
            .sum();
        total as f64 / self.num_leaves as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The paper's Fig. 2 hierarchy (10 nodes):
    /// `C_0 = {0,1,2,3}`, `C_1 = {4,5}`, `C_2 = {6,7}`, `C_3 = C_0 ∪ C_2`,
    /// `C_4 = C_3 ∪ C_1`, `C_5 = {8,9}`, `C_6 = C_4 ∪ C_5` (root).
    ///
    /// Binary refinement: `C_0` is built from three binary merges; the
    /// communities named in the paper appear as explicit vertices.
    pub(crate) fn fig2() -> (Dendrogram, Fig2Vertices) {
        let merges = vec![
            Merge { a: 0, b: 1 },   // 10 = {0,1}
            Merge { a: 10, b: 2 },  // 11 = {0,1,2}
            Merge { a: 11, b: 3 },  // 12 = C_0 = {0,1,2,3}
            Merge { a: 4, b: 5 },   // 13 = C_1 = {4,5}
            Merge { a: 6, b: 7 },   // 14 = C_2 = {6,7}
            Merge { a: 12, b: 14 }, // 15 = C_3 = {0,1,2,3,6,7}
            Merge { a: 15, b: 13 }, // 16 = C_4 = {0..7}
            Merge { a: 8, b: 9 },   // 17 = C_5 = {8,9}
            Merge { a: 16, b: 17 }, // 18 = C_6 = all
        ];
        let d = Dendrogram::from_merges(10, &merges);
        let v = Fig2Vertices {
            c0: 12,
            c1: 13,
            c2: 14,
            c3: 15,
            c4: 16,
            c5: 17,
            c6: 18,
        };
        (d, v)
    }

    #[allow(dead_code)] // fixture mirrors all named communities of Fig. 2
    pub(crate) struct Fig2Vertices {
        pub c0: VertexId,
        pub c1: VertexId,
        pub c2: VertexId,
        pub c3: VertexId,
        pub c4: VertexId,
        pub c5: VertexId,
        pub c6: VertexId,
    }

    #[test]
    fn fig2_sizes_and_depths() {
        let (d, v) = fig2();
        assert_eq!(d.size(v.c0), 4);
        assert_eq!(d.size(v.c3), 6);
        assert_eq!(d.size(v.c4), 8);
        assert_eq!(d.size(v.c6), 10);
        // Paper convention: dep(C_6)=1, dep(C_4)=2, dep(C_3)=3 (Example 2).
        assert_eq!(d.depth(v.c6), 1);
        assert_eq!(d.depth(v.c4), 2);
        assert_eq!(d.depth(v.c3), 3);
        assert_eq!(d.depth(v.c0), 4);
    }

    #[test]
    fn fig2_membership() {
        let (d, v) = fig2();
        for u in 0..4 {
            assert!(d.contains(v.c0, u));
        }
        assert!(!d.contains(v.c0, 4));
        assert!(d.contains(v.c3, 6));
        assert!(!d.contains(v.c3, 5));
        assert!(d.contains(v.c6, 9));
    }

    #[test]
    fn fig2_root_path_matches_example_2() {
        let (d, v) = fig2();
        // H(v_0) = {C_0, C_3, C_4, C_6} (plus binary refinement vertices).
        let path = d.root_path(0);
        let named: Vec<_> = path
            .iter()
            .copied()
            .filter(|&x| [v.c0, v.c3, v.c4, v.c6].contains(&x))
            .collect();
        assert_eq!(named, vec![v.c0, v.c3, v.c4, v.c6]);
        assert_eq!(*path.last().unwrap(), d.root());
    }

    #[test]
    fn members_sorted() {
        let (d, v) = fig2();
        assert_eq!(d.members_sorted(v.c3), vec![0, 1, 2, 3, 6, 7]);
        assert_eq!(d.members_sorted(v.c1), vec![4, 5]);
    }

    #[test]
    fn descendant_relation() {
        let (d, v) = fig2();
        assert!(d.is_descendant(v.c0, v.c3));
        assert!(d.is_descendant(v.c3, v.c3));
        assert!(!d.is_descendant(v.c3, v.c0));
        assert!(!d.is_descendant(v.c1, v.c3));
        assert!(d.is_descendant(v.c1, v.c4));
    }

    #[test]
    fn singleton_dendrogram() {
        let d = Dendrogram::singleton();
        assert_eq!(d.num_leaves(), 1);
        assert_eq!(d.root(), 0);
        assert!(d.root_path(0).is_empty());
        assert_eq!(d.members(0), &[0]);
    }

    #[test]
    fn avg_chain_len_on_fig2() {
        let (d, _) = fig2();
        // Each leaf's chain is its depth - 1.
        let manual: f64 = (0..10).map(|u| d.root_path(u).len() as f64).sum::<f64>() / 10.0;
        assert!((d.avg_chain_len() - manual).abs() < 1e-12);
    }

    #[test]
    fn cut_peels_the_top_of_the_tree() {
        let (d, v) = fig2();
        // k = 2: the root's children C_4 and C_5.
        let l2 = d.cut(2);
        for u in 0..8u32 {
            assert_eq!(l2[u as usize], l2[0], "C_4 side");
        }
        assert_eq!(l2[8], l2[9]);
        assert_ne!(l2[0], l2[8]);
        // k = 3: C_3, C_1, C_5.
        let l3 = d.cut(3);
        let groups: std::collections::BTreeSet<u32> = l3.iter().copied().collect();
        assert_eq!(groups.len(), 3);
        assert_eq!(l3[4], l3[5]); // C_1
        assert_eq!(l3[0], l3[6]); // C_3 contains 0..3 and 6,7
        let _ = v;
    }

    #[test]
    fn cut_extremes() {
        let (d, _) = fig2();
        assert!(d.cut(1).iter().all(|&l| l == 0));
        let full = d.cut(10);
        let distinct: std::collections::BTreeSet<u32> = full.iter().copied().collect();
        assert_eq!(distinct.len(), 10);
        // Oversized k clamps.
        assert_eq!(d.cut(99), full);
    }

    #[test]
    #[should_panic(expected = "merged twice")]
    fn rejects_reused_vertex() {
        let merges = vec![Merge { a: 0, b: 1 }, Merge { a: 0, b: 2 }];
        let _ = Dendrogram::from_merges(3, &merges);
    }

    #[test]
    #[should_panic(expected = "needs 2 merges")]
    fn rejects_wrong_merge_count() {
        let _ = Dendrogram::from_merges(3, &[Merge { a: 0, b: 1 }]);
    }

    #[test]
    fn try_from_merges_reports_each_defect() {
        assert_eq!(
            Dendrogram::try_from_merges(0, &[]).unwrap_err(),
            DendrogramError::NoLeaves
        );
        assert_eq!(
            Dendrogram::try_from_merges(3, &[Merge { a: 0, b: 1 }]).unwrap_err(),
            DendrogramError::WrongMergeCount {
                num_leaves: 3,
                merges: 1
            }
        );
        assert_eq!(
            Dendrogram::try_from_merges(2, &[Merge { a: 0, b: 9 }]).unwrap_err(),
            DendrogramError::FutureVertex {
                index: 0,
                vertex: 9
            }
        );
        assert_eq!(
            Dendrogram::try_from_merges(3, &[Merge { a: 0, b: 1 }, Merge { a: 0, b: 2 }])
                .unwrap_err(),
            DendrogramError::VertexReused { vertex: 0 }
        );
    }

    #[test]
    fn try_from_merges_accepts_valid_input() {
        let merges = vec![Merge { a: 0, b: 1 }, Merge { a: 3, b: 2 }];
        let d = Dendrogram::try_from_merges(3, &merges).unwrap();
        assert_eq!(d.num_leaves(), 3);
        assert_eq!(d.size(d.root()), 3);
    }
}
