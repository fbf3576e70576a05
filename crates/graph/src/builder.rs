//! Mutable edge-list accumulator producing a sorted, deduplicated [`Csr`].

use crate::csr::Csr;
use crate::NodeId;

/// Accumulates undirected edges and builds a [`Csr`].
///
/// Self-loops are ignored; duplicate edges (in either orientation) are
/// deduplicated at build time. Adding an edge with an endpoint `>= n`
/// grows the node count.
///
/// ```
/// use cod_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 1); // duplicate, collapsed
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// A builder for a graph with (at least) `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates space for `num_edges` edges.
    pub fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        Self {
            num_nodes,
            edges: Vec::with_capacity(num_edges),
        }
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently dropped.
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.num_nodes = self.num_nodes.max(b as usize + 1);
        self.edges.push((a, b));
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Whether the (deduplicated) edge was already added. `O(pending)`; for
    /// generators that need fast membership tests, keep an external set.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&key)
    }

    /// Sorts, deduplicates, and produces the CSR.
    pub fn build(mut self) -> Csr {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.num_nodes;
        let mut degree = vec![0usize; n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; acc];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each node's slice is filled in ascending order of the *other*
        // endpoint only for the `u` side; sort every slice to be safe.
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Csr::from_raw(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates_and_ignores_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(2, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn grows_node_count() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(3, 7);
        let g = b.build();
        assert_eq!(g.num_nodes(), 8);
        assert!(g.has_edge(7, 3));
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(2, 4);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.add_edge(2, 1);
        let g = b.build();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn contains_edge_checks_both_orientations() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        assert!(b.contains_edge(1, 0));
        assert!(!b.contains_edge(0, 0));
    }
}
