//! Localized dendrogram repair for streaming graphs.
//!
//! A full NN-chain reclustering costs `O(|E| · α)` per mutation epoch no
//! matter how few nodes changed. This module repairs an existing hierarchy
//! around an edge event instead: the internal vertices on the leaf-to-root
//! paths of the touched nodes are *cut* (their merges are stale — a changed
//! adjacency can reorder any merge along those paths), every other merge is
//! kept frozen, and the freed subtrees are re-merged by the same NN-chain
//! loop the full clustering uses, running on the quotient graph whose
//! super-nodes are the freed subtree roots.
//!
//! The splice is a heuristic: it constrains the new hierarchy to keep the
//! frozen subtrees intact, which a from-scratch clustering is not bound by.
//! [`repair_merges`] therefore supports a *verification* mode that runs the
//! full clustering as well and keeps the splice only when both describe the
//! same community families (member sets); otherwise the recomputed merges
//! win. Downstream consumers (HIMOR, the query chains) depend only on the
//! families and per-node rank positions, never on internal vertex numbering,
//! so a verified repair answers every query bit-identically to a rebuild
//! from scratch.
//!
//! [`match_vertices`] computes the structural diff between the old and the
//! repaired hierarchy — which old communities survive (and as which new
//! vertex), and which leaves sit under a changed community. The HIMOR patch
//! uses it to re-key unaffected bucket contributions and to bound the set of
//! RR samples that must be recorded anew under the repaired tree.

use cod_graph::{Csr, FxHashMap, NodeId};

use crate::dendrogram::{Dendrogram, VertexId, NO_VERTEX};
use crate::linkage::{CrossStats, Linkage};
use crate::nnchain::{chain_prepared_governed, cluster_unweighted, Merge};

/// How [`repair_merges`] arrived at its merge sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The localized splice was used (and, if verification ran, it produced
    /// the same community families as a full reclustering).
    Spliced,
    /// Verification found the splice diverging from a full reclustering; the
    /// recomputed merges were returned instead.
    Recomputed,
}

/// Result of [`repair_merges`]: a full merge sequence for the mutated graph
/// plus how it was obtained.
#[derive(Clone, Debug)]
pub struct RepairResult {
    /// `g.num_nodes() - 1` merges, valid for [`Dendrogram::from_merges`].
    pub merges: Vec<Merge>,
    /// Whether the splice survived (or verification was off).
    pub outcome: RepairOutcome,
    /// Internal vertices cut from the old hierarchy (the stale region).
    pub vertices_cut: usize,
}

/// Repairs `old` (a hierarchy of the pre-mutation graph) into a merge
/// sequence for `g` (the post-mutation topology). `touched` lists the nodes
/// whose adjacency changed; `g` must have the same node count as `old` has
/// leaves (node growth requires a rebuild, not a repair).
///
/// With `verify` set, a full reclustering of `g` runs alongside the splice
/// and the splice is kept only if both yield identical community families —
/// the mode `DynamicCod` uses so repaired instances stay bit-identical to
/// rebuilt ones. Without it the splice is trusted as-is (cheaper, but the
/// hierarchy may legitimately differ from a from-scratch clustering).
pub fn repair_merges(
    old: &Dendrogram,
    g: &Csr,
    touched: &[NodeId],
    linkage: Linkage,
    verify: bool,
) -> RepairResult {
    debug_assert_eq!(old.num_leaves(), g.num_nodes(), "repair cannot grow nodes");
    let (spliced, vertices_cut) = splice(old, g, touched, linkage);
    if !verify {
        return RepairResult {
            merges: spliced,
            outcome: RepairOutcome::Spliced,
            vertices_cut,
        };
    }
    let full = cluster_unweighted(g, linkage);
    if family_multiset(old.num_leaves(), &spliced) == family_multiset(old.num_leaves(), &full) {
        RepairResult {
            merges: spliced,
            outcome: RepairOutcome::Spliced,
            vertices_cut,
        }
    } else {
        RepairResult {
            merges: full,
            outcome: RepairOutcome::Recomputed,
            vertices_cut,
        }
    }
}

/// Cuts the stale internal vertices and re-merges the freed subtrees on the
/// quotient graph. Returns the merge sequence and the cut count.
fn splice(old: &Dendrogram, g: &Csr, touched: &[NodeId], linkage: Linkage) -> (Vec<Merge>, usize) {
    let n = old.num_leaves();
    let nv = old.num_vertices();
    // Mark the internal ancestors of every touched leaf. The marked set is
    // upward-closed, i.e. a connected subtree containing the root.
    let mut cut = vec![false; nv];
    let mut any = false;
    for &t in touched {
        debug_assert!((t as usize) < n);
        any = true;
        let mut v = old.parent(old.leaf(t));
        while v != NO_VERTEX && !cut[v as usize] {
            cut[v as usize] = true;
            v = old.parent(v);
        }
    }
    if !any || n <= 1 {
        return (old.merges(), 0);
    }

    // Frozen merges: uncut internal vertices keep their old relative order.
    // The uncut set is downward-closed, so every operand is a leaf or an
    // earlier frozen merge, and old-id order maps monotonically to new ids.
    let mut new_id = vec![NO_VERTEX; nv];
    for (l, slot) in new_id.iter_mut().enumerate().take(n) {
        *slot = l as VertexId;
    }
    let mut merges = Vec::with_capacity(n - 1);
    for v in n..nv {
        if cut[v] {
            continue;
        }
        let [a, b] = old.children(v as VertexId);
        new_id[v] = (n + merges.len()) as VertexId;
        merges.push(Merge {
            a: new_id[a as usize],
            b: new_id[b as usize],
        });
    }
    let frozen = merges.len();
    let cut_count = (nv - n) - frozen;

    // Freed subtree roots: uncut vertices whose parent was cut. A connected
    // cut subtree of `c` vertices in a binary tree frees exactly `c + 1`.
    let freed: Vec<VertexId> = (0..nv as VertexId)
        .filter(|&v| {
            let p = old.parent(v);
            !cut[v as usize] && p != NO_VERTEX && cut[p as usize]
        })
        .collect();
    debug_assert_eq!(freed.len(), cut_count + 1);

    // Quotient graph: super-node i = freed[i]; cross stats from the *new*
    // topology (unit weights, matching `cluster_unweighted`).
    let k = freed.len();
    let mut label = vec![u32::MAX; n];
    for (i, &r) in freed.iter().enumerate() {
        for &leaf in old.members(r) {
            label[leaf as usize] = i as u32;
        }
    }
    debug_assert!(label.iter().all(|&l| l != u32::MAX));
    let mut adj: Vec<FxHashMap<VertexId, CrossStats>> = vec![FxHashMap::default(); k];
    for u in 0..n as NodeId {
        let cu = label[u as usize];
        for &v in g.neighbors(u) {
            if v <= u {
                continue;
            }
            let cv = label[v as usize];
            if cu == cv {
                continue;
            }
            for (x, y) in [(cu, cv), (cv, cu)] {
                adj[x as usize]
                    .entry(y)
                    .and_modify(|s| s.add_edge(1.0))
                    .or_insert_with(|| CrossStats::edge(1.0));
            }
        }
    }
    let sizes: Vec<u32> = freed.iter().map(|&r| old.size(r) as u32).collect();
    let quotient = match chain_prepared_governed(adj, sizes, linkage, |_| true) {
        Some(q) => q,
        None => unreachable!("an always-true callback never aborts"),
    };
    debug_assert_eq!(quotient.len(), cut_count);

    // Translate quotient ids into the spliced merge sequence's id space.
    let translate = |q: VertexId| -> VertexId {
        if (q as usize) < k {
            new_id[freed[q as usize] as usize]
        } else {
            (n + frozen + (q as usize - k)) as VertexId
        }
    };
    for m in &quotient {
        merges.push(Merge {
            a: translate(m.a),
            b: translate(m.b),
        });
    }
    debug_assert_eq!(merges.len(), n - 1);
    (merges, cut_count)
}

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

/// The sorted multiset of internal-vertex family keys — two merge sequences
/// describe the same community families iff these are equal.
fn family_multiset(n: usize, merges: &[Merge]) -> Vec<FamilyKey> {
    let mut keys = family_keys(n, merges).split_off(n);
    keys.sort_unstable();
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
    use cod_graph::GraphBuilder;
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
    fn no_touched_nodes_is_identity() {
        let g = build(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let d = dendro(&g);
        let r = repair_merges(&d, &g, &[], Linkage::Average, true);
        assert_eq!(r.outcome, RepairOutcome::Spliced);
        assert_eq!(r.vertices_cut, 0);
        assert_eq!(r.merges, d.merges());
    }

    #[test]
    fn splice_preserves_frozen_families_and_is_valid() {
        // Two triangles bridged at 2-3; flip an edge inside one triangle.
        let g0 = build(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let d0 = dendro(&g0);
        let g1 = build(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (2, 3)]);
        let r = repair_merges(&d0, &g1, &[3, 5], Linkage::Average, false);
        assert_eq!(r.outcome, RepairOutcome::Spliced);
        assert!(r.vertices_cut >= 1);
        let d1 = Dendrogram::from_merges(6, &r.merges);
        assert_eq!(d1.size(d1.root()), 6);
        // Every internal community of d0 off the touched root paths is
        // frozen and must survive verbatim in the spliced hierarchy.
        let cut: std::collections::HashSet<VertexId> =
            [3u32, 5].iter().flat_map(|&t| d0.root_path(t)).collect();
        let new_families: std::collections::HashSet<Vec<NodeId>> = (6..d1.num_vertices()
            as VertexId)
            .map(|v| d1.members_sorted(v))
            .collect();
        let mut frozen = 0;
        for v in 6..d0.num_vertices() as VertexId {
            if !cut.contains(&v) {
                frozen += 1;
                assert!(
                    new_families.contains(&d0.members_sorted(v)),
                    "frozen community {:?} lost",
                    d0.members_sorted(v)
                );
            }
        }
        assert!(frozen >= 1, "fixture should freeze something");
    }

    #[test]
    fn verified_repair_always_matches_full_reclustering() {
        let mut rng = SmallRng::seed_from_u64(11);
        for trial in 0..40 {
            let n = 6 + (trial % 7);
            let mut edges = Vec::new();
            for u in 0..n as NodeId {
                for v in u + 1..n as NodeId {
                    if rng.random_bool(0.35) {
                        edges.push((u, v));
                    }
                }
            }
            if edges.is_empty() {
                edges.push((0, 1));
            }
            let g0 = build(n, &edges);
            let d0 = dendro(&g0);
            // Flip one random pair.
            let u = rng.random_range(0..n as NodeId);
            let mut v = rng.random_range(0..n as NodeId);
            if v == u {
                v = (v + 1) % n as NodeId;
            }
            let (u, v) = (u.min(v), u.max(v));
            let mut e1: Vec<_> = edges.iter().copied().filter(|&e| e != (u, v)).collect();
            if e1.len() == edges.len() {
                e1.push((u, v));
            }
            if e1.is_empty() {
                continue;
            }
            let g1 = build(n, &e1);
            let r = repair_merges(&d0, &g1, &[u, v], Linkage::Average, true);
            let full = cluster_unweighted(&g1, Linkage::Average);
            assert_eq!(
                family_multiset(n, &r.merges),
                family_multiset(n, &full),
                "trial {trial}: verified repair must agree with reclustering"
            );
            // And the result is a valid dendrogram either way.
            let _ = Dendrogram::from_merges(n, &r.merges);
        }
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
