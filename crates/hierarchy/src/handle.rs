//! Prepared hierarchy handles.
//!
//! A prepared hierarchy is always the *pair* of a [`Dendrogram`] and its
//! [`LcaIndex`] — every COD algorithm that walks `H(q)` also asks `lca`
//! queries against the same tree. [`Hierarchy`] bundles the two so a serving
//! layer can hold one `Arc<Hierarchy>` per prepared artifact and hand clones
//! of the pointer to concurrent queries without re-deriving the LCA sparse
//! table each time.

use crate::dendrogram::Dendrogram;
use crate::lca::LcaIndex;

/// An immutable dendrogram plus its LCA index, built once and shared.
///
/// The `LcaIndex` is derived from the dendrogram at construction, so the two
/// can never drift apart. Fields are public for read access; the struct has
/// no mutating methods.
pub struct Hierarchy {
    /// The community tree `T` (or a reclustered `T_ℓ`).
    pub dendro: Dendrogram,
    /// Constant-time LCA over `dendro`.
    pub lca: LcaIndex,
}

impl Hierarchy {
    /// Wraps a dendrogram, building its LCA index (`O(V log V)`).
    pub fn new(dendro: Dendrogram) -> Self {
        let lca = LcaIndex::new(&dendro);
        Self { dendro, lca }
    }
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("num_vertices", &self.dendro.num_vertices())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_answers_its_dendrogram_lca_queries() {
        let (d, _) = crate::dendrogram::tests::fig2();
        let h = Hierarchy::new(d.clone());
        assert_eq!(
            h.lca.lca(0, 6),
            LcaIndex::new(&d).lca(0, 6),
            "the bundled index answers the same LCA queries"
        );
    }
}
