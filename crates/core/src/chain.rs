//! The chain of nested communities around the query node that COD
//! evaluation (Algorithm 1) runs over.
//!
//! Every chain the method variants evaluate has one shape: `q`'s root path
//! inside a reclustered subgraph (the *lower* part, in global node ids),
//! stacked on the strict ancestors of an *anchor* vertex in a whole-graph
//! dendrogram (the *upper* part), with either part possibly absent:
//!
//! * [`Chain::new`] — `H(q)` in `T` (CODU) or in the reweighted `T_ℓ`
//!   (CODR): no lower part, and the anchor is `q`'s leaf;
//! * [`Chain::local`] without `above` — the reclustered part
//!   `H_ℓ(q | C_ℓ)` that HIMOR-based CODL evaluates on an index miss
//!   (Algorithm 3, line 3): the subgraph root `C_ℓ` excluded, no upper
//!   part;
//! * [`Chain::local`] with `above` — LORE's `H_ℓ(q) = Ancestors(q, T_ℓ) ∪
//!   Ancestors(C_ℓ, T)` (Algorithm 2, line 4), used by CODL⁻: the subgraph
//!   root included, and the anchor is `C_ℓ`.
//!
//! Chains list communities from the deepest (`C_0`, index 0) to the largest.

use cod_graph::subgraph::Subgraph;
use cod_graph::NodeId;
use cod_hierarchy::{Dendrogram, LcaIndex, VertexId, NO_VERTEX};

use crate::error::{CodError, CodResult};

/// The strict ancestors of `anchor` in `dendro`, deepest first.
struct Ancestors<'a> {
    dendro: &'a Dendrogram,
    lca: &'a LcaIndex,
    anchor: VertexId,
    /// `path[i]` has depth `depth(anchor) − 1 − i`.
    path: Vec<VertexId>,
}

impl<'a> Ancestors<'a> {
    fn of(dendro: &'a Dendrogram, lca: &'a LcaIndex, anchor: VertexId) -> Self {
        let mut path = Vec::with_capacity(dendro.depth(anchor) as usize);
        let mut v = dendro.parent(anchor);
        while v != NO_VERTEX {
            path.push(v);
            v = dendro.parent(v);
        }
        Self {
            dendro,
            lca,
            anchor,
            path,
        }
    }

    /// Index in `path` of the deepest ancestor of `anchor` holding vertex
    /// `v`: `depth(anchor) − depth(lca(v, anchor)) − 1`, or 0 when `anchor`
    /// itself holds `v`.
    fn level(&self, v: VertexId) -> usize {
        let d = self.dendro.depth(self.lca.lca(v, self.anchor));
        (self.dendro.depth(self.anchor) - d).saturating_sub(1) as usize
    }
}

/// A chain of strictly nested communities containing the query node,
/// ordered from deepest (smallest, index 0) upward.
///
/// `level_of` is the workhorse of HFS (§III-A): for any node `u` it returns
/// the index of the *deepest* chain community containing `u`, or `None` if
/// `u` lies outside the whole chain.
pub struct Chain<'a> {
    /// `q`'s root path in a reclustered subgraph, whose local ids the
    /// subgraph maps to global ones. The anchor is `q`'s local leaf.
    lower: Option<(&'a Subgraph, Ancestors<'a>)>,
    /// The strict ancestors of the anchor in a whole-graph dendrogram.
    upper: Option<Ancestors<'a>>,
}

impl<'a> Chain<'a> {
    /// `H(q)`, the root path of `q` in a dendrogram over the whole graph.
    /// Fails with [`CodError::InvalidQuery`] when `q` is not a leaf of the
    /// hierarchy.
    pub fn new(dendro: &'a Dendrogram, lca: &'a LcaIndex, q: NodeId) -> CodResult<Self> {
        if (q as usize) >= dendro.num_leaves() {
            return Err(CodError::InvalidQuery(format!(
                "node {q} out of range (hierarchy covers {} nodes)",
                dendro.num_leaves()
            )));
        }
        Ok(Self {
            lower: None,
            upper: Some(Ancestors::of(dendro, lca, dendro.leaf(q))),
        })
    }

    /// The root path of global query node `q` in the hierarchy `dendro`
    /// over the reclustered subgraph `sub`. `q` must be a member of `sub`
    /// (otherwise [`CodError::InvalidQuery`]), and `dendro` must cover it
    /// (otherwise [`CodError::GraphFormat`]).
    ///
    /// With `above = None` the subgraph root `C_ℓ` is left out: Algorithm 3
    /// answers it from the index. With `above = Some((T, lca, c_ell))` the
    /// root is kept and the ancestors of `c_ell` in `T` follow it; `sub`
    /// must then be induced by the members of `c_ell` (otherwise
    /// [`CodError::GraphFormat`]).
    pub fn local(
        sub: &'a Subgraph,
        dendro: &'a Dendrogram,
        lca: &'a LcaIndex,
        q: NodeId,
        above: Option<(&'a Dendrogram, &'a LcaIndex, VertexId)>,
    ) -> CodResult<Self> {
        let Some(q_local) = sub.local(q) else {
            return Err(CodError::InvalidQuery(format!(
                "query node {q} is not a member of the reclustered subgraph"
            )));
        };
        if dendro.num_leaves() != sub.len() {
            return Err(CodError::GraphFormat(format!(
                "subgraph hierarchy covers {} leaves but the subgraph has {} nodes",
                dendro.num_leaves(),
                sub.len()
            )));
        }
        let mut lower = Ancestors::of(dendro, lca, dendro.leaf(q_local));
        let upper = match above {
            None => {
                lower.path.pop();
                None
            }
            Some((t, t_lca, c_ell)) => {
                if (c_ell as usize) >= t.num_vertices() {
                    return Err(CodError::GraphFormat(format!(
                        "C_ell vertex {c_ell} out of range ({} hierarchy vertices)",
                        t.num_vertices()
                    )));
                }
                if sub.len() != t.size(c_ell) {
                    return Err(CodError::GraphFormat(format!(
                        "lower chain spans {} nodes but C_ell has {}",
                        sub.len(),
                        t.size(c_ell)
                    )));
                }
                Some(Ancestors::of(t, t_lca, c_ell))
            }
        };
        Ok(Self {
            lower: Some((sub, lower)),
            upper,
        })
    }

    fn lower_len(&self) -> usize {
        self.lower.as_ref().map_or(0, |(_, l)| l.path.len())
    }

    /// Number of communities `|H(q)|`.
    pub fn len(&self) -> usize {
        self.lower_len() + self.upper.as_ref().map_or(0, |u| u.path.len())
    }

    /// Whether the chain holds no community: a single-node graph, or a
    /// local chain whose only community was the excluded subgraph root.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The part holding `C_h` and `C_h`'s vertex in that part's dendrogram.
    fn vertex(&self, h: usize) -> (&Ancestors<'a>, VertexId) {
        match (&self.lower, &self.upper) {
            (Some((_, l)), _) if h < l.path.len() => (l, l.path[h]),
            (_, Some(u)) => (u, u.path[h - self.lower_len()]),
            _ => panic!("community {h} is past the chain's end"),
        }
    }

    /// Size `|C_h|` of the `h`-th community.
    pub fn size(&self, h: usize) -> usize {
        let (part, v) = self.vertex(h);
        part.dendro.size(v)
    }

    /// Index of the deepest chain community containing `u`, if any.
    pub fn level_of(&self, u: NodeId) -> Option<usize> {
        let mut below = 0;
        if let Some((sub, l)) = &self.lower {
            if let Some(lu) = sub.local(u) {
                // `None` only for the excluded subgraph root.
                let h = l.level(l.dendro.leaf(lu));
                return (h < l.path.len()).then_some(h);
            }
            below = l.path.len();
        }
        let up = self.upper.as_ref()?;
        let h = up.level(up.dendro.leaf(u));
        (h < up.path.len()).then_some(below + h)
    }

    /// Members of `C_h`, sorted ascending by node id.
    pub fn members(&self, h: usize) -> Vec<NodeId> {
        match &self.lower {
            Some((sub, l)) if h < l.path.len() => {
                let mut m: Vec<NodeId> = l
                    .dendro
                    .members(l.path[h])
                    .iter()
                    .map(|&v| sub.parent(v))
                    .collect();
                m.sort_unstable();
                m
            }
            _ => {
                let (part, v) = self.vertex(h);
                part.dendro.members_sorted(v)
            }
        }
    }

    /// The nodes eligible as RR-graph sources (the largest community's
    /// members), sorted ascending. Sampling is restricted here: induced RR
    /// graphs of chain communities never leave it (Definition 3).
    pub fn universe(&self) -> Vec<NodeId> {
        if let Some(up) = &self.upper {
            // The top ancestor, or the anchor alone when it is the root.
            return up
                .dendro
                .members_sorted(up.path.last().copied().unwrap_or(up.anchor));
        }
        // The whole reclustered subgraph, its excluded root included:
        // sources in no chain community contribute nothing and HFS skips
        // them.
        self.lower
            .as_ref()
            .map_or_else(Vec::new, |(sub, _)| sub.members.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::{Csr, GraphBuilder};
    use cod_hierarchy::cluster_unweighted;

    fn line(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v as NodeId, v as NodeId + 1);
        }
        b.build()
    }

    fn dendro(g: &Csr) -> Dendrogram {
        Dendrogram::from_merges(g.num_nodes(), &cluster_unweighted(g))
    }

    #[test]
    fn whole_graph_chain_is_nested_and_ends_at_root() {
        let g = line(8);
        let d = dendro(&g);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 3).unwrap();
        assert!(chain.len() >= 3);
        let mut prev = 0usize;
        for h in 0..chain.len() {
            assert!(chain.size(h) > prev, "sizes strictly increase");
            prev = chain.size(h);
            assert!(chain.members(h).contains(&3));
        }
        assert_eq!(chain.size(chain.len() - 1), 8);
        assert_eq!(chain.universe().len(), 8);
    }

    #[test]
    fn level_of_is_deepest_containing_community() {
        let g = line(8);
        let d = dendro(&g);
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 3).unwrap();
        assert_eq!(chain.level_of(3), Some(0));
        for u in 0..8 {
            let h = chain.level_of(u).unwrap();
            assert!(chain.members(h).contains(&u), "u={u} level {h}");
            if h > 0 {
                assert!(
                    !chain.members(h - 1).contains(&u),
                    "u={u} should not be one level deeper"
                );
            }
        }
    }

    #[test]
    fn single_node_chain_is_empty() {
        let d = Dendrogram::singleton();
        let lca = LcaIndex::new(&d);
        let chain = Chain::new(&d, &lca, 0).unwrap();
        assert!(chain.is_empty());
        assert_eq!(chain.level_of(0), None);
        assert_eq!(chain.universe(), vec![0]);
        assert!(matches!(
            Chain::new(&d, &lca, 1),
            Err(CodError::InvalidQuery(_))
        ));
    }

    #[test]
    fn local_chain_under_c_ell_stitches_lower_and_upper() {
        let g = line(8);
        let d = dendro(&g);
        let lca = LcaIndex::new(&d);
        // Pick C_ℓ = the deepest ancestor of node 3 with size >= 3.
        let path = d.root_path(3);
        let c_ell = *path
            .iter()
            .find(|&&v| d.size(v) >= 3)
            .expect("some ancestor has size >= 3");
        let members = d.members_sorted(c_ell);
        assert!(members.len() < 8, "C_ℓ is a proper community");
        let sub = Subgraph::induced(&g, &members);
        let sd = dendro(&sub.csr);
        let slca = LcaIndex::new(&sd);
        let chain = Chain::local(&sub, &sd, &slca, 3, Some((&d, &lca, c_ell))).unwrap();
        // Chain sizes strictly increase and the top is the whole graph.
        let mut prev = 0usize;
        for h in 0..chain.len() {
            let s = chain.size(h);
            assert!(s > prev);
            prev = s;
        }
        assert_eq!(chain.size(chain.len() - 1), 8);
        // level_of stays consistent with membership across the seam.
        for u in 0..8 {
            let h = chain.level_of(u).unwrap();
            assert!(chain.members(h).contains(&u), "u={u} at level {h}");
            if h > 0 {
                assert!(!chain.members(h - 1).contains(&u));
            }
        }
        // Without `above`, the chain stops below the subgraph root and
        // agrees with the stitched one there.
        let below = Chain::local(&sub, &sd, &slca, 3, None).unwrap();
        let upper = (d.depth(c_ell) - 1) as usize;
        assert_eq!(below.len() + 1 + upper, chain.len());
        assert_eq!(below.universe(), members);
        for u in 0..8 {
            let h = chain.level_of(u).filter(|&h| h < below.len());
            assert_eq!(below.level_of(u), h, "u={u}");
        }
        for h in 0..below.len() {
            assert_eq!(below.members(h), chain.members(h));
        }
        let outside = (0..8).find(|u| !members.contains(u)).unwrap();
        assert!(matches!(
            Chain::local(&sub, &sd, &slca, outside, None),
            Err(CodError::InvalidQuery(_))
        ));
        assert!(matches!(
            Chain::local(&sub, &d, &lca, 3, None),
            Err(CodError::GraphFormat(_))
        ));
        let past = d.num_vertices() as VertexId;
        for bad in [past, d.leaf(3)] {
            assert!(matches!(
                Chain::local(&sub, &sd, &slca, 3, Some((&d, &lca, bad))),
                Err(CodError::GraphFormat(_))
            ));
        }
    }
}
