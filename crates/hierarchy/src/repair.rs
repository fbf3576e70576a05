//! The structural diff between the hierarchies before and after a graph
//! mutation.
//!
//! A repaired flush of a streaming graph builds its new hierarchy the way
//! a rebuild does, by NN-chain clustering of the mutated graph, so the two
//! are equal merge for merge. What a repair saves is the HIMOR index:
//! [`match_vertices`] matches the old and the new communities by leaf-set
//! content (which old communities survive, and as which new vertex) and
//! gives each leaf the size of its smallest ancestor that changed. The
//! HIMOR patch uses it to re-key unaffected bucket contributions and to
//! pick, from each RR sample's source and span alone, the samples whose
//! tags can move under the new tree. It depends only on the community
//! families, never on internal vertex numbering.

use cod_graph::{FxHashMap, NodeId};

use crate::dendrogram::{Dendrogram, VertexId, NO_VERTEX};
use crate::nnchain::Merge;

/// 128-bit order-independent content hash of a leaf set, plus its size.
/// Distinct vertices of one tree always have distinct leaf sets, so within
/// a tree these keys are unique up to (negligible) hash collisions.
type FamilyKey = (u64, u64, u32);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn leaf_key(u: NodeId) -> FamilyKey {
    let h1 = splitmix64(u64::from(u).wrapping_add(1));
    let h2 = splitmix64(h1 ^ 0xA5A5_A5A5_5A5A_5A5A);
    (h1, h2, 1)
}

#[inline]
fn combine(a: FamilyKey, b: FamilyKey) -> FamilyKey {
    (a.0.wrapping_add(b.0), a.1.wrapping_add(b.1), a.2 + b.2)
}

/// Per-vertex family keys for a merge sequence over `n` leaves.
fn family_keys(n: usize, merges: &[Merge]) -> Vec<FamilyKey> {
    let mut keys = Vec::with_capacity(n + merges.len());
    for u in 0..n as NodeId {
        keys.push(leaf_key(u));
    }
    for m in merges {
        keys.push(combine(keys[m.a as usize], keys[m.b as usize]));
    }
    keys
}

/// The structural diff between two hierarchies over the same leaves.
#[derive(Clone, Debug)]
pub struct TreeDiff {
    /// For each old vertex, the new vertex holding exactly the same leaf set
    /// (`None` if the community disappeared). Leaves always match.
    pub old_to_new: Vec<Option<VertexId>>,
    /// Per graph node: the size of the smallest ancestor of its leaf that
    /// is unmatched in either tree, or `u32::MAX` when every ancestor in
    /// both trees is matched. Every community of size below this value on
    /// the node's root path is matched, with an equal leaf set, in both
    /// trees.
    pub unmatched: Vec<u32>,
}

/// Matches communities of `old` against `new` by leaf-set content and
/// gives each leaf the size of its smallest unmatched ancestor. `O(n)`
/// with hash-map lookups.
pub fn match_vertices(old: &Dendrogram, new: &Dendrogram) -> TreeDiff {
    debug_assert_eq!(old.num_leaves(), new.num_leaves());
    let n = old.num_leaves();
    let old_keys = family_keys(n, &old.merges());
    let new_keys = family_keys(n, &new.merges());
    let mut by_key: FxHashMap<FamilyKey, VertexId> = FxHashMap::default();
    by_key.reserve(new.num_vertices() - n);
    for (v, &key) in new_keys.iter().enumerate().skip(n) {
        by_key.insert(key, v as VertexId);
    }
    let mut old_to_new: Vec<Option<VertexId>> = Vec::with_capacity(old.num_vertices());
    for (v, key) in old_keys.iter().enumerate() {
        if v < n {
            old_to_new.push(Some(v as VertexId));
        } else {
            let m = by_key.get(key).copied();
            debug_assert!(
                m.is_none_or(|w| old.members_sorted(v as VertexId) == new.members_sorted(w)),
                "family-key collision"
            );
            old_to_new.push(m);
        }
    }

    let mut new_matched = vec![false; new.num_vertices()];
    for m in old_to_new.iter().flatten() {
        new_matched[*m as usize] = true;
    }
    let in_old = smallest_selected_ancestor(old, |v| old_to_new[v as usize].is_none());
    let in_new = smallest_selected_ancestor(new, |v| !new_matched[v as usize]);
    let unmatched = in_old
        .iter()
        .zip(&in_new)
        .map(|(&a, &b)| a.min(b))
        .collect();

    TreeDiff {
        old_to_new,
        unmatched,
    }
}

/// Per leaf of `d`: the size of its smallest ancestor-or-self that
/// `selected` picks, or `u32::MAX` when it picks none. One top-down pass
/// over the vertices: a parent's id is larger than its children's.
pub fn smallest_selected_ancestor(d: &Dendrogram, selected: impl Fn(VertexId) -> bool) -> Vec<u32> {
    let mut reach = vec![u32::MAX; d.num_vertices()];
    for v in (0..d.num_vertices() as VertexId).rev() {
        reach[v as usize] = if selected(v) {
            d.size(v) as u32
        } else {
            match d.parent(v) {
                NO_VERTEX => u32::MAX,
                p => reach[p as usize],
            }
        };
    }
    reach.truncate(d.num_leaves());
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnchain::cluster_unweighted;
    use cod_graph::{Csr, GraphBuilder};
    use rand::prelude::*;

    fn build(n: usize, edges: &[(NodeId, NodeId)]) -> Csr {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    fn dendro(g: &Csr) -> Dendrogram {
        Dendrogram::from_merges(g.num_nodes(), &cluster_unweighted(g))
    }

    #[test]
    fn match_vertices_on_identical_trees_is_total() {
        let g = build(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let d = dendro(&g);
        let diff = match_vertices(&d, &d);
        assert!(diff.unmatched.iter().all(|&x| x == u32::MAX));
        for (v, m) in diff.old_to_new.iter().enumerate() {
            assert_eq!(*m, Some(v as VertexId));
        }
    }

    #[test]
    fn match_vertices_flags_changed_regions_only() {
        // Path 0-1-2-3-4-5: hierarchy pairs neighbors. Rewire the 4-5 end.
        let g0 = build(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let d0 = dendro(&g0);
        let g1 = build(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]);
        let d1 = dendro(&g1);
        let diff = match_vertices(&d0, &d1);
        // {0,1} merges identically in both clusterings, so leaves 0 and 1
        // must sit under fully matched ancestors... unless the top of the
        // tree changed, which disturbs everything. At minimum, matched
        // communities map to equal member sets (checked by debug_assert in
        // match_vertices) and some vertex is unmatched.
        assert!(diff.unmatched.iter().any(|&x| x != u32::MAX));
        for (v, m) in diff.old_to_new.iter().enumerate().skip(6) {
            if let Some(w) = m {
                assert_eq!(d0.members_sorted(v as VertexId), d1.members_sorted(*w));
            }
        }
    }

    #[test]
    fn unmatched_is_the_size_of_the_smallest_unmatched_ancestor() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut changed = 0;
        for _ in 0..20 {
            let n = 8;
            let mut edges = Vec::new();
            for u in 0..n as NodeId {
                for v in u + 1..n as NodeId {
                    if rng.random_bool(0.4) {
                        edges.push((u, v));
                    }
                }
            }
            edges.push((0, 7));
            let g0 = build(n, &edges);
            let d0 = dendro(&g0);
            let mut e1 = edges.clone();
            e1.retain(|&e| e != (0, 7));
            e1.push((1, 6));
            e1.sort_unstable();
            e1.dedup();
            let g1 = build(n, &e1);
            let d1 = dendro(&g1);
            let diff = match_vertices(&d0, &d1);
            // Reference: the smallest unmatched community on either root
            // path, found by walking both paths.
            let matched: std::collections::HashSet<VertexId> =
                diff.old_to_new.iter().flatten().copied().collect();
            for leaf in 0..n as NodeId {
                let in_old = d0
                    .root_path(leaf)
                    .into_iter()
                    .filter(|&v| diff.old_to_new[v as usize].is_none())
                    .map(|v| d0.size(v) as u32);
                let in_new = d1
                    .root_path(leaf)
                    .into_iter()
                    .filter(|v| !matched.contains(v))
                    .map(|v| d1.size(v) as u32);
                let smallest = in_old.chain(in_new).min().unwrap_or(u32::MAX);
                assert_eq!(diff.unmatched[leaf as usize], smallest, "leaf {leaf}");
                changed += usize::from(smallest != u32::MAX);
            }
        }
        assert!(changed > 0, "no trial changed a community");
    }
}
