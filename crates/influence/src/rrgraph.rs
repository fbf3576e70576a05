//! Reverse-reachable graphs (paper Definitions 2 and 3).

use cod_graph::NodeId;

/// The buffer one draw fills: an RR set together with the edges activated
/// while generating it (Definition 2). Nodes are stored with local indices
/// `0..len`, node `0` being the source; `targets` holds *directed*
/// traversal edges `v ⇒ u` (meaning `u` reverse-activated from `v`, i.e.
/// influence flows `u → v`).
///
/// [`RrSampler::sample_into`](crate::RrSampler::sample_into) refills one
/// graph in place; `Default` gives the empty buffer to start from. Every
/// read goes through [`RrGraph::view`], the shape an
/// [`RrArena`](crate::RrArena) hands out too.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RrGraph {
    /// Global node ids, in exploration (BFS) order; `nodes[0]` is the source.
    pub(crate) nodes: Vec<NodeId>,
    /// CSR offsets into `targets`, per local node.
    pub(crate) offsets: Vec<u32>,
    /// Out-neighbors (local indices) following activated edges away from the
    /// source.
    pub(crate) targets: Vec<u32>,
}

impl RrGraph {
    /// Heap bytes held by this RR graph's three arrays (their capacity),
    /// leaving out the graph's own header. Pools and the HIMOR patch state
    /// keep their samples in an [`RrArena`](crate::RrArena) and count its
    /// [`memory_bytes`](crate::RrArena::memory_bytes) instead.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<NodeId>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.targets.capacity() * size_of::<u32>()
    }

    /// The drawn graph as a borrowed [`RrView`].
    #[inline]
    pub fn view(&self) -> RrView<'_> {
        RrView {
            nodes: &self.nodes,
            offsets: &self.offsets[..self.nodes.len()],
            targets: &self.targets,
        }
    }
}

/// A borrowed RR graph, whether it lives in a draw buffer
/// ([`RrGraph::view`]) or in an [`RrArena`](crate::RrArena). Restricting
/// traversal to a community yields the induced RR graph of Definition 3
/// ([`RrView::reachable_within`]); by Theorem 2 the probability that a
/// node is reachable from the source inside the restriction estimates its
/// influence in that community. `offsets[l]` is where local node `l`'s row
/// starts in `targets`; the row ends where the next one starts, or at the
/// end of `targets` for the last node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RrView<'a> {
    pub(crate) nodes: &'a [NodeId],
    pub(crate) offsets: &'a [u32],
    pub(crate) targets: &'a [u32],
}

impl<'a> RrView<'a> {
    /// The source node (global id).
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Number of nodes in the RR set.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph holds no node (a view of an empty buffer).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of activated (directed traversal) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Global ids of the RR set, in exploration order.
    #[inline]
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// Global id of local node `l`.
    #[inline]
    pub fn node(&self, l: u32) -> NodeId {
        self.nodes[l as usize]
    }

    /// Out-neighbors (local indices) of local node `l`.
    #[inline]
    pub fn out_neighbors(&self, l: u32) -> &'a [u32] {
        let l = l as usize;
        let end = self
            .offsets
            .get(l + 1)
            .map_or(self.targets.len(), |&e| e as usize);
        &self.targets[self.offsets[l] as usize..end]
    }

    /// Nodes reachable from the source when traversal is restricted to
    /// nodes satisfying `keep` — the reachable set of the induced RR graph
    /// `R_g(C)` of Definition 3. Returns global ids; empty if the source
    /// itself is excluded.
    pub fn reachable_within(&self, keep: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        if !keep(self.source()) {
            return Vec::new();
        }
        let mut seen = vec![false; self.len()];
        seen[0] = true;
        let mut stack = vec![0u32];
        let mut out = vec![self.source()];
        while let Some(v) = stack.pop() {
            for &u in self.out_neighbors(v) {
                if !seen[u as usize] && keep(self.nodes[u as usize]) {
                    seen[u as usize] = true;
                    stack.push(u);
                    out.push(self.nodes[u as usize]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// source 7 ⇒ 3 ⇒ 5, and 7 ⇒ 9 (local: 0⇒1⇒2, 0⇒3).
    fn sample() -> RrGraph {
        RrGraph {
            nodes: vec![7, 3, 5, 9],
            offsets: vec![0, 2, 3, 3, 3],
            targets: vec![1, 3, 2],
        }
    }

    #[test]
    fn structure_round_trip() {
        let r = sample();
        let r = r.view();
        assert_eq!(r.source(), 7);
        assert_eq!(r.len(), 4);
        assert_eq!(r.num_edges(), 3);
        assert_eq!(r.out_neighbors(0), &[1, 3]);
        assert_eq!(r.out_neighbors(1), &[2]);
        assert_eq!(r.out_neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn view_reads_like_the_graph() {
        let r = sample();
        let v = r.view();
        assert_eq!((v.source(), v.len(), v.num_edges()), (7, 4, 3));
        assert_eq!(v.nodes(), &r.nodes[..]);
        for l in 0..4u32 {
            let row = r.offsets[l as usize] as usize..r.offsets[l as usize + 1] as usize;
            assert_eq!(v.node(l), r.nodes[l as usize]);
            assert_eq!(v.out_neighbors(l), &r.targets[row], "row {l}");
        }
        assert!(RrGraph::default().view().is_empty());
    }

    #[test]
    fn unrestricted_reachability_is_everything() {
        let r = sample();
        let mut got = r.view().reachable_within(|_| true);
        got.sort_unstable();
        assert_eq!(got, vec![3, 5, 7, 9]);
    }

    #[test]
    fn restriction_cuts_paths() {
        let r = sample();
        // Without node 3, node 5 is unreachable.
        let mut got = r.view().reachable_within(|v| v != 3);
        got.sort_unstable();
        assert_eq!(got, vec![7, 9]);
    }

    #[test]
    fn excluded_source_gives_empty_induced_set() {
        let r = sample();
        assert!(r.view().reachable_within(|v| v != 7).is_empty());
    }
}
