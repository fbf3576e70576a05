//! Constant-time lowest common ancestors on a [`Dendrogram`].
//!
//! Euler tour + sparse-table range-minimum queries, following Bender et al.
//! (paper reference \[48\]): `O(V log V)` preprocessing, `O(1)` per query.

use crate::dendrogram::{Dendrogram, VertexId, NO_VERTEX};

/// An LCA index over a dendrogram.
///
/// The paper uses `lca` pervasively: `dep(u, v) = dep(lca(u, v))` drives the
/// reclustering score (Definition 4) and HFS community tagging (§III-A,
/// §IV-B).
pub struct LcaIndex {
    /// Euler tour of vertex ids (length `2V - 1`).
    tour: Vec<VertexId>,
    /// Depth of each tour entry.
    tour_depth: Vec<u32>,
    /// First occurrence of each vertex in the tour.
    first: Vec<u32>,
    /// `sparse[k][i]` = index (into `tour`) of the min-depth entry in
    /// `tour[i .. i + 2^k]`.
    sparse: Vec<Vec<u32>>,
}

impl LcaIndex {
    /// Builds the index in `O(V log V)`.
    pub fn new(d: &Dendrogram) -> Self {
        let nv = d.num_vertices();
        let mut tour = Vec::with_capacity(2 * nv);
        let mut tour_depth = Vec::with_capacity(2 * nv);
        let mut first = vec![u32::MAX; nv];

        // Iterative Euler tour: visit vertex, recurse into child, revisit.
        // Stack entries: (vertex, next child index 0|1|2).
        let mut stack: Vec<(VertexId, u8)> = vec![(d.root(), 0)];
        while let Some((v, ci)) = stack.pop() {
            if ci == 0 || !d.is_leaf(v) {
                if first[v as usize] == u32::MAX {
                    first[v as usize] = tour.len() as u32;
                }
                tour.push(v);
                tour_depth.push(d.depth(v));
            }
            if d.is_leaf(v) {
                continue;
            }
            if ci < 2 {
                stack.push((v, ci + 1));
                let child = d.children(v)[ci as usize];
                debug_assert_ne!(child, NO_VERTEX);
                stack.push((child, 0));
            }
        }

        let m = tour.len();
        let levels = (usize::BITS - m.leading_zeros()) as usize;
        let mut sparse: Vec<Vec<u32>> = Vec::with_capacity(levels);
        sparse.push((0..m as u32).collect());
        let mut k = 1usize;
        while (1 << k) <= m {
            let half = 1usize << (k - 1);
            let prev = &sparse[k - 1];
            let mut row = Vec::with_capacity(m - (1 << k) + 1);
            for i in 0..=m - (1 << k) {
                let a = prev[i];
                let b = prev[i + half];
                row.push(if tour_depth[a as usize] <= tour_depth[b as usize] {
                    a
                } else {
                    b
                });
            }
            sparse.push(row);
            k += 1;
        }

        Self {
            tour,
            tour_depth,
            first,
            sparse,
        }
    }

    /// The lowest common ancestor of vertices `a` and `b` in `O(1)`.
    #[inline]
    pub fn lca(&self, a: VertexId, b: VertexId) -> VertexId {
        let (mut i, mut j) = (self.first[a as usize], self.first[b as usize]);
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let len = (j - i + 1) as usize;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let x = self.sparse[k][i as usize];
        let y = self.sparse[k][j as usize + 1 - (1 << k)];
        let best = if self.tour_depth[x as usize] <= self.tour_depth[y as usize] {
            x
        } else {
            y
        };
        self.tour[best as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_lca(d: &Dendrogram, a: VertexId, b: VertexId) -> VertexId {
        let mut anc_a = vec![a];
        let mut v = a;
        while d.parent(v) != NO_VERTEX {
            v = d.parent(v);
            anc_a.push(v);
        }
        let mut v = b;
        loop {
            if anc_a.contains(&v) {
                return v;
            }
            v = d.parent(v);
        }
    }

    #[test]
    fn fig2_lca_matches_example_2() {
        let (d, v) = crate::dendrogram::tests::fig2();
        let idx = LcaIndex::new(&d);
        // lca(v_0, v_6) = C_3 with dep 3 (paper Example 2).
        assert_eq!(idx.lca(0, 6), v.c3);
        assert_eq!(d.depth(idx.lca(0, 6)), 3);
        // lca of nodes in different halves is the root.
        assert_eq!(idx.lca(0, 8), v.c6);
        // lca with itself is the leaf.
        assert_eq!(idx.lca(5, 5), 5);
    }

    #[test]
    fn lca_of_vertex_and_descendant_leaf() {
        let (d, v) = crate::dendrogram::tests::fig2();
        let idx = LcaIndex::new(&d);
        assert_eq!(idx.lca(v.c3, 6), v.c3);
        assert_eq!(idx.lca(v.c3, 4), v.c4);
    }

    #[test]
    fn matches_naive_on_all_pairs() {
        let (d, _) = crate::dendrogram::tests::fig2();
        let idx = LcaIndex::new(&d);
        let nv = d.num_vertices() as VertexId;
        for a in 0..nv {
            for b in 0..nv {
                assert_eq!(idx.lca(a, b), naive_lca(&d, a, b), "lca({a},{b})");
            }
        }
    }

    #[test]
    fn works_on_singleton() {
        let d = Dendrogram::singleton();
        let idx = LcaIndex::new(&d);
        assert_eq!(idx.lca(0, 0), 0);
    }
}
