//! The structural diff between the hierarchies before and after a graph
//! mutation.
//!
//! A repaired flush of a streaming graph builds its new hierarchy the way
//! a rebuild does, by NN-chain clustering of the mutated graph, so the two
//! are equal merge for merge. What a repair saves is the HIMOR index:
//! [`match_vertices`] matches the old and the new communities by leaf-set
//! content (which old communities survive, and as which new vertex) and
//! marks the leaves that sit under a changed community. The HIMOR patch
//! uses it to re-key unaffected bucket contributions and to bound the set
//! of RR samples that must be recorded anew under the new tree. It depends
//! only on the community families, never on internal vertex numbering.

use cod_graph::{FxHashMap, NodeId};

use crate::dendrogram::{Dendrogram, VertexId};
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
    /// Per graph node: whether any ancestor community of its leaf — in
    /// either tree — is unmatched. RR samples avoiding every disturbed node
    /// contribute to both hierarchies' buckets under the matching.
    pub disturbed: Vec<bool>,
    /// Whether every internal vertex of both trees matched (the trees
    /// describe identical families).
    pub fully_matched: bool,
}

/// Matches communities of `old` against `new` by leaf-set content and marks
/// the leaves whose ancestor chain changed. `O(n)` with hash-map lookups.
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
    let matched_old = old_to_new[n..].iter().filter(|m| m.is_some()).count();
    let fully_matched =
        matched_old == old.num_vertices() - n && matched_old == new.num_vertices() - n;

    let mut disturbed = vec![false; n];
    mark_unmatched_spans(old, |v| old_to_new[v as usize].is_none(), &mut disturbed);
    let mut new_matched = vec![false; new.num_vertices()];
    for m in old_to_new.iter().flatten() {
        new_matched[*m as usize] = true;
    }
    mark_unmatched_spans(new, |v| !new_matched[v as usize], &mut disturbed);

    TreeDiff {
        old_to_new,
        disturbed,
        fully_matched,
    }
}

/// Marks (by node id) every leaf under an internal vertex selected by
/// `unmatched`, via a difference array over the DFS leaf order.
fn mark_unmatched_spans(
    d: &Dendrogram,
    unmatched: impl Fn(VertexId) -> bool,
    disturbed: &mut [bool],
) {
    let n = d.num_leaves();
    let mut diff = vec![0i32; n + 1];
    for v in n..d.num_vertices() {
        if unmatched(v as VertexId) {
            let (s, e) = d.leaf_span(v as VertexId);
            diff[s as usize] += 1;
            diff[e as usize] -= 1;
        }
    }
    let mut depth = 0i32;
    for (pos, &leaf) in d.leaf_order().iter().enumerate() {
        depth += diff[pos];
        if depth > 0 {
            disturbed[leaf as usize] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkage::Linkage;
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
        Dendrogram::from_merges(g.num_nodes(), &cluster_unweighted(g, Linkage::Average))
    }

    #[test]
    fn match_vertices_on_identical_trees_is_total() {
        let g = build(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let d = dendro(&g);
        let diff = match_vertices(&d, &d);
        assert!(diff.fully_matched);
        assert!(diff.disturbed.iter().all(|&x| !x));
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
        assert!(!diff.fully_matched);
        assert!(diff.disturbed.iter().any(|&x| x));
        for (v, m) in diff.old_to_new.iter().enumerate().skip(6) {
            if let Some(w) = m {
                assert_eq!(d0.members_sorted(v as VertexId), d1.members_sorted(*w));
            }
        }
    }

    #[test]
    fn disturbed_covers_every_leaf_under_an_unmatched_vertex() {
        let mut rng = SmallRng::seed_from_u64(7);
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
            // Reference: recompute disturbed by walking root paths.
            for leaf in 0..n as NodeId {
                let old_dist = d0
                    .root_path(leaf)
                    .iter()
                    .any(|&v| diff.old_to_new[v as usize].is_none());
                let matched: std::collections::HashSet<VertexId> =
                    diff.old_to_new.iter().flatten().copied().collect();
                let new_dist = d1.root_path(leaf).iter().any(|&v| !matched.contains(&v));
                assert_eq!(
                    diff.disturbed[leaf as usize],
                    old_dist || new_dist,
                    "leaf {leaf}"
                );
            }
        }
    }
}
