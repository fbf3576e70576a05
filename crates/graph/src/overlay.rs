//! Delta-overlay adjacency: a mutable edge layer over an immutable [`Csr`].
//!
//! `DynamicCod` used to keep the whole edge set in a `HashSet<(u, v)>` and
//! re-sort it into a fresh CSR on every rebuild — `O(|E| log |E|)` per
//! mutation epoch regardless of how few edges changed. [`DeltaCsr`] keeps
//! the last materialized CSR as an immutable base plus per-node sorted
//! insert/delete lists, and [`DeltaCsr::materialize`] rebuilds the CSR by
//! a per-node sorted merge (`O(|V| + |E|)`, no global sort, no hashing of
//! untouched edges).

use crate::fxhash::FxHashMap;
use crate::{Csr, NodeId};

/// A CSR graph plus an overlay of inserted and removed edges.
///
/// The overlay supports node growth: nodes `base.num_nodes()..num_nodes`
/// have an empty base adjacency and live purely in the delta until the
/// next [`DeltaCsr::materialize`] + [`DeltaCsr::rebase`].
#[derive(Clone, Debug)]
pub struct DeltaCsr {
    base: Csr,
    /// Per-node sorted lists of overlay-inserted neighbors.
    added: FxHashMap<NodeId, Vec<NodeId>>,
    /// Per-node sorted lists of base neighbors masked out by the overlay.
    removed: FxHashMap<NodeId, Vec<NodeId>>,
    num_nodes: usize,
    num_edges: usize,
    /// Undirected edges currently represented in the overlay (inserted or
    /// masked), i.e. how far this view has drifted from `base`.
    delta_edges: usize,
}

impl DeltaCsr {
    /// Wraps an immutable CSR with an empty overlay.
    pub fn new(base: Csr) -> Self {
        let num_nodes = base.num_nodes();
        let num_edges = base.num_edges();
        Self {
            base,
            added: FxHashMap::default(),
            removed: FxHashMap::default(),
            num_nodes,
            num_edges,
            delta_edges: 0,
        }
    }

    /// Number of nodes, including overlay-grown ones.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges in the overlaid view.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Grows the node range so `v` is addressable. New nodes start isolated.
    fn ensure_node(&mut self, v: NodeId) {
        if (v as usize) >= self.num_nodes {
            self.num_nodes = v as usize + 1;
        }
    }

    #[inline]
    fn base_neighbors(&self, v: NodeId) -> &[NodeId] {
        if (v as usize) < self.base.num_nodes() {
            self.base.neighbors(v)
        } else {
            &[]
        }
    }

    #[inline]
    fn in_list(map: &FxHashMap<NodeId, Vec<NodeId>>, u: NodeId, v: NodeId) -> bool {
        map.get(&u).is_some_and(|l| l.binary_search(&v).is_ok())
    }

    /// Whether `{u, v}` is an edge of the overlaid view.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if Self::in_list(&self.added, u, v) {
            return true;
        }
        self.base_neighbors(u).binary_search(&v).is_ok() && !Self::in_list(&self.removed, u, v)
    }

    /// Visits the neighbors of `v` in the overlaid view in ascending
    /// order, merging the base list, the mask and the insert list in
    /// `O(deg(v))` without allocating.
    fn for_each_neighbor(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        static EMPTY: Vec<NodeId> = Vec::new();
        let removed = self.removed.get(&v).unwrap_or(&EMPTY);
        let added = self.added.get(&v).unwrap_or(&EMPTY);
        let base = self.base_neighbors(v);
        let (mut i, mut j) = (0, 0);
        loop {
            let b = base[i..]
                .iter()
                .find(|u| removed.binary_search(u).is_err())
                .copied();
            // Advance `i` past masked entries the scan skipped.
            if let Some(bu) = b {
                while base[i] != bu {
                    i += 1;
                }
            } else {
                i = base.len();
            }
            match (b, added.get(j).copied()) {
                (Some(bu), Some(au)) if au < bu => {
                    f(au);
                    j += 1;
                }
                (Some(bu), _) => {
                    f(bu);
                    i += 1;
                }
                (None, Some(au)) => {
                    f(au);
                    j += 1;
                }
                (None, None) => break,
            }
        }
    }

    fn push_sorted(map: &mut FxHashMap<NodeId, Vec<NodeId>>, u: NodeId, v: NodeId) {
        let list = map.entry(u).or_default();
        if let Err(pos) = list.binary_search(&v) {
            list.insert(pos, v);
        }
    }

    fn drop_sorted(map: &mut FxHashMap<NodeId, Vec<NodeId>>, u: NodeId, v: NodeId) -> bool {
        if let Some(list) = map.get_mut(&u) {
            if let Ok(pos) = list.binary_search(&v) {
                list.remove(pos);
                if list.is_empty() {
                    map.remove(&u);
                }
                return true;
            }
        }
        false
    }

    /// Inserts the undirected edge `{u, v}`. Returns `false` (and changes
    /// nothing) if the edge already exists or `u == v`.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.ensure_node(u);
        self.ensure_node(v);
        let was_masked_base = Self::in_list(&self.removed, u, v);
        if was_masked_base {
            // Reinserting a base edge: unmask instead of double-recording.
            Self::drop_sorted(&mut self.removed, u, v);
            Self::drop_sorted(&mut self.removed, v, u);
            self.delta_edges -= 1;
        } else {
            Self::push_sorted(&mut self.added, u, v);
            Self::push_sorted(&mut self.added, v, u);
            self.delta_edges += 1;
        }
        self.num_edges += 1;
        true
    }

    /// Removes the undirected edge `{u, v}`. Returns `false` (and changes
    /// nothing) if the edge is absent.
    pub fn remove(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        if Self::in_list(&self.added, u, v) {
            // Removing an overlay insert: cancel it.
            Self::drop_sorted(&mut self.added, u, v);
            Self::drop_sorted(&mut self.added, v, u);
            self.delta_edges -= 1;
        } else {
            Self::push_sorted(&mut self.removed, u, v);
            Self::push_sorted(&mut self.removed, v, u);
            self.delta_edges += 1;
        }
        self.num_edges -= 1;
        true
    }

    /// Nodes whose adjacency differs from the base (sorted ascending).
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .added
            .keys()
            .chain(self.removed.keys())
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the overlay is empty (the view equals the base CSR, modulo
    /// overlay-grown isolated nodes).
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.delta_edges == 0 && self.num_nodes == self.base.num_nodes()
    }

    /// Builds a fresh CSR of the overlaid view by a per-node sorted merge —
    /// no global edge sort, untouched nodes are copied wholesale.
    pub fn materialize(&self) -> Csr {
        let mut offsets = Vec::with_capacity(self.num_nodes + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::with_capacity(self.num_edges * 2);
        for v in 0..self.num_nodes as NodeId {
            if self.added.contains_key(&v) || self.removed.contains_key(&v) {
                self.for_each_neighbor(v, |u| neighbors.push(u));
            } else {
                neighbors.extend_from_slice(self.base_neighbors(v));
            }
            offsets.push(neighbors.len());
        }
        Csr::from_raw(offsets, neighbors)
    }

    /// Replaces the base with a freshly materialized CSR and clears the
    /// overlay. `new_base` must equal `self.materialize()` (checked by size
    /// in debug builds).
    pub fn rebase(&mut self, new_base: Csr) {
        debug_assert_eq!(new_base.num_nodes(), self.num_nodes);
        debug_assert_eq!(new_base.num_edges(), self.num_edges);
        self.base = new_base;
        self.added.clear();
        self.removed.clear();
        self.delta_edges = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn graph(n: usize, edges: &[(NodeId, NodeId)]) -> Csr {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    fn path4() -> Csr {
        graph(4, &[(0, 1), (1, 2), (2, 3)])
    }

    /// Every adjacency row of `csr`.
    fn rows(csr: &Csr) -> Vec<Vec<NodeId>> {
        (0..csr.num_nodes() as NodeId)
            .map(|v| csr.neighbors(v).to_vec())
            .collect()
    }

    #[test]
    fn clean_overlay_mirrors_base() {
        let d = DeltaCsr::new(path4());
        assert!(d.is_clean());
        assert_eq!(d.num_nodes(), 4);
        assert_eq!(d.num_edges(), 3);
        assert_eq!(rows(&d.materialize()), rows(&path4()));
        assert!(d.touched_nodes().is_empty());
    }

    #[test]
    fn insert_and_remove_merge_into_the_materialized_rows() {
        let mut d = DeltaCsr::new(path4());
        assert!(d.insert(0, 3));
        assert!(d.remove(1, 2));
        assert!(!d.insert(0, 3), "duplicate insert rejected");
        assert!(!d.insert(3, 0), "reverse orientation is the same edge");
        assert!(!d.remove(1, 2), "double remove rejected");
        assert!(!d.remove(2, 1), "reverse orientation already removed");
        assert!(!d.insert(2, 2), "self-loop rejected");
        assert_eq!(d.num_edges(), 3);
        assert!(!d.is_clean());
        assert_eq!(
            rows(&d.materialize()),
            vec![vec![1, 3], vec![0], vec![3], vec![0, 2]]
        );
        assert_eq!(d.touched_nodes(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reinsert_of_masked_base_edge_unmasks() {
        let mut d = DeltaCsr::new(path4());
        assert!(d.remove(1, 2));
        assert!(!d.is_clean());
        assert!(d.insert(2, 1));
        assert!(d.is_clean());
        assert!(d.touched_nodes().is_empty());
        assert_eq!(d.num_edges(), 3);
        assert_eq!(rows(&d.materialize()), rows(&path4()));
    }

    #[test]
    fn remove_of_overlay_insert_cancels() {
        let mut d = DeltaCsr::new(path4());
        assert!(d.insert(0, 2));
        assert!(d.remove(0, 2));
        assert!(d.is_clean());
        assert_eq!(d.num_edges(), 3);
        assert_eq!(rows(&d.materialize()), rows(&path4()));
    }

    #[test]
    fn node_growth_starts_isolated() {
        let mut d = DeltaCsr::new(path4());
        assert!(d.insert(3, 6));
        assert_eq!(d.num_nodes(), 7);
        assert!(!d.is_clean());
        assert_eq!(d.touched_nodes(), vec![3, 6]);
        let csr = d.materialize();
        assert_eq!(csr.num_nodes(), 7);
        assert!(csr.neighbors(4).is_empty() && csr.neighbors(5).is_empty());
        assert_eq!(csr.neighbors(6), &[3]);
        assert_eq!(csr.neighbors(3), &[2, 6]);
    }

    #[test]
    fn materialize_equals_a_fresh_build_and_rebase_cleans() {
        let mut d = DeltaCsr::new(path4());
        d.insert(0, 3);
        d.remove(0, 1);
        d.insert(1, 5);
        let csr = d.materialize();
        assert_eq!(csr.num_edges(), d.num_edges());
        assert_eq!(
            rows(&csr),
            rows(&graph(6, &[(1, 2), (2, 3), (0, 3), (1, 5)]))
        );
        d.rebase(csr);
        assert!(d.is_clean());
        assert!(d.touched_nodes().is_empty());
        assert!(d.insert(0, 1));
        assert_eq!(d.touched_nodes(), vec![0, 1]);
        assert_eq!(
            rows(&d.materialize()),
            rows(&graph(6, &[(0, 1), (1, 2), (2, 3), (0, 3), (1, 5)]))
        );
    }
}
