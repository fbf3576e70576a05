//! Many RR graphs in three flat arrays.

use cod_graph::NodeId;

use crate::rrgraph::RrView;

/// An arena compacts once its dead words exceed one `COMPACT_RATIO`-th of
/// its live words, so after every replacement they are at most an eighth
/// of the live words.
const COMPACT_RATIO: usize = 8;

/// Where one RR graph lives in an [`RrArena`]: its nodes and row starts at
/// `node..node + len`, its targets at `target..target + edges`.
#[derive(Clone, Copy, Debug)]
struct Extent {
    node: usize,
    target: usize,
    len: u32,
    edges: u32,
}

/// An indexed sequence of RR graphs stored back to back in three flat
/// arrays (nodes, row starts, targets), one extent per graph, instead of
/// three heap allocations per graph. [`RrArena::get`] hands a graph out as
/// an [`RrView`].
///
/// [`RrArena::replace`] overwrites a graph's slot when the new graph fits
/// in it and appends the graph otherwise. Either way the words the old
/// graph held and the new one does not are dead; once they exceed an
/// eighth of the live words, the arena compacts, copying every graph in
/// index order into fresh arrays.
#[derive(Clone, Debug, Default)]
pub struct RrArena {
    nodes: Vec<NodeId>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    extents: Vec<Extent>,
    /// Entries of `nodes` (and as many of `offsets`) no extent covers.
    dead_nodes: usize,
    /// Entries of `targets` no extent covers.
    dead_targets: usize,
}

impl RrArena {
    /// Number of graphs held.
    #[inline]
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// Whether the arena holds no graph.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Graph `i`.
    #[inline]
    pub fn get(&self, i: usize) -> RrView<'_> {
        let e = self.extents[i];
        let nodes = e.node..e.node + e.len as usize;
        RrView {
            nodes: &self.nodes[nodes.clone()],
            offsets: &self.offsets[nodes],
            targets: &self.targets[e.target..e.target + e.edges as usize],
        }
    }

    /// Every graph, in index order.
    pub fn iter(&self) -> impl Iterator<Item = RrView<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends `rr` as graph `len()`.
    pub fn push(&mut self, rr: RrView<'_>) {
        let e = self.store(rr);
        self.extents.push(e);
    }

    /// Appends every graph of `other`, in order.
    pub fn append(&mut self, other: RrArena) {
        if self.extents.is_empty() {
            *self = other;
            return;
        }
        let (node, target) = (self.nodes.len(), self.targets.len());
        self.nodes.extend_from_slice(&other.nodes);
        self.offsets.extend_from_slice(&other.offsets);
        self.targets.extend_from_slice(&other.targets);
        self.extents.extend(other.extents.iter().map(|e| Extent {
            node: e.node + node,
            target: e.target + target,
            ..*e
        }));
        self.dead_nodes += other.dead_nodes;
        self.dead_targets += other.dead_targets;
    }

    /// Makes `rr` graph `i`: in graph `i`'s slot when it fits there,
    /// appended otherwise. Compacts when the dead words pass their share.
    pub fn replace(&mut self, i: usize, rr: RrView<'_>) {
        let old = self.extents[i];
        let (len, edges) = (rr.len() as u32, rr.num_edges() as u32);
        if len <= old.len && edges <= old.edges {
            let nodes = old.node..old.node + rr.len();
            self.nodes[nodes.clone()].copy_from_slice(rr.nodes);
            self.offsets[nodes].copy_from_slice(rr.offsets);
            self.targets[old.target..old.target + rr.num_edges()].copy_from_slice(rr.targets);
            self.extents[i] = Extent { len, edges, ..old };
            self.dead_nodes += (old.len - len) as usize;
            self.dead_targets += (old.edges - edges) as usize;
        } else {
            self.extents[i] = self.store(rr);
            self.dead_nodes += old.len as usize;
            self.dead_targets += old.edges as usize;
        }
        if self.dead_words() * COMPACT_RATIO > self.live_words() {
            self.compact();
        }
    }

    /// Drops the spare capacity of the three arrays and the extents, so
    /// [`RrArena::memory_bytes`] counts the graphs held and their dead
    /// words, with no growth slack.
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.targets.shrink_to_fit();
        self.extents.shrink_to_fit();
    }

    /// Words (`u32`s) of the three arrays that no graph covers.
    #[inline]
    pub fn dead_words(&self) -> usize {
        2 * self.dead_nodes + self.dead_targets
    }

    /// Heap bytes held: the capacity of the three arrays and the extents.
    pub fn memory_bytes(&self) -> usize {
        (self.nodes.capacity() + self.offsets.capacity() + self.targets.capacity())
            * size_of::<u32>()
            + self.extents.capacity() * size_of::<Extent>()
    }

    /// Words the graphs cover.
    fn live_words(&self) -> usize {
        2 * self.nodes.len() + self.targets.len() - self.dead_words()
    }

    /// Writes `rr` at the end of the arrays and returns its extent.
    fn store(&mut self, rr: RrView<'_>) -> Extent {
        let e = Extent {
            node: self.nodes.len(),
            target: self.targets.len(),
            len: rr.len() as u32,
            edges: rr.num_edges() as u32,
        };
        self.nodes.extend_from_slice(rr.nodes);
        self.offsets.extend_from_slice(rr.offsets);
        self.targets.extend_from_slice(rr.targets);
        e
    }

    /// Copies every graph, in index order, into fresh arrays with an
    /// eighth's headroom for appends; no dead word is left.
    fn compact(&mut self) {
        let live_nodes = self.nodes.len() - self.dead_nodes;
        let live_targets = self.targets.len() - self.dead_targets;
        let mut fresh = RrArena {
            nodes: Vec::with_capacity(live_nodes + live_nodes / COMPACT_RATIO),
            offsets: Vec::with_capacity(live_nodes + live_nodes / COMPACT_RATIO),
            targets: Vec::with_capacity(live_targets + live_targets / COMPACT_RATIO),
            extents: Vec::with_capacity(self.extents.len()),
            dead_nodes: 0,
            dead_targets: 0,
        };
        for i in 0..self.len() {
            fresh.push(self.get(i));
        }
        *self = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, RrGraph, RrSampler};
    use cod_graph::GraphBuilder;
    use rand::prelude::*;

    /// `count` draws on a 12-node ring with chords, from per-draw seeds.
    fn draws(count: u64, seed: u64) -> Vec<RrGraph> {
        let mut b = GraphBuilder::new(12);
        for v in 0..12 {
            b.add_edge(v, (v + 1) % 12);
            b.add_edge(v, (v + 5) % 12);
        }
        let g = b.build();
        let mut sampler = RrSampler::new(&g, Model::UniformIc(0.4));
        (0..count)
            .map(|i| {
                let mut rng = SmallRng::seed_from_u64(seed ^ i);
                let mut rr = RrGraph::default();
                let source = rng.random_range(0..g.num_nodes()) as NodeId;
                sampler.sample_into(source, &mut rng, |_| true, &mut rr);
                rr
            })
            .collect()
    }

    #[test]
    fn pushed_graphs_read_back_unchanged() {
        let graphs = draws(40, 1);
        let mut arena = RrArena::default();
        for rr in &graphs {
            arena.push(rr.view());
        }
        assert_eq!(arena.len(), graphs.len());
        assert!(arena.iter().eq(graphs.iter().map(RrGraph::view)));
        assert_eq!(arena.dead_words(), 0);
        let words: usize = graphs
            .iter()
            .map(|rr| 2 * rr.view().len() + rr.view().num_edges())
            .sum();
        arena.shrink_to_fit();
        assert!(arena.iter().eq(graphs.iter().map(RrGraph::view)));
        assert_eq!(
            arena.memory_bytes(),
            words * size_of::<u32>() + graphs.len() * size_of::<Extent>(),
            "a trimmed arena holds no slack"
        );
    }

    #[test]
    fn append_keeps_index_order() {
        let graphs = draws(30, 2);
        let (mut a, mut b, mut whole) =
            (RrArena::default(), RrArena::default(), RrArena::default());
        for (i, rr) in graphs.iter().enumerate() {
            let part = if i < 11 { &mut a } else { &mut b };
            part.push(rr.view());
            whole.push(rr.view());
        }
        a.append(b);
        assert!(a.iter().eq(whole.iter()));
        let mut empty = RrArena::default();
        empty.append(whole.clone());
        assert!(empty.iter().eq(whole.iter()));
    }

    #[test]
    fn replacements_read_back_and_dead_words_stay_bounded() {
        let mut graphs = draws(60, 3);
        let mut arena = RrArena::default();
        for rr in &graphs {
            arena.push(rr.view());
        }
        let mut rng = SmallRng::seed_from_u64(4);
        let mut compactions = 0;
        for round in 0..400u64 {
            let i = rng.random_range(0..graphs.len());
            graphs[i] = draws(1, 1000 + round).remove(0);
            let before = arena.dead_words();
            arena.replace(i, graphs[i].view());
            if arena.dead_words() < before {
                compactions += 1;
            }
            assert!(
                arena.iter().eq(graphs.iter().map(RrGraph::view)),
                "round {round}"
            );
            assert!(arena.dead_words() * COMPACT_RATIO <= arena.live_words());
        }
        assert!(compactions > 0, "400 replacements never compacted");
    }
}
