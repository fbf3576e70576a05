//! Divisive (top-down) hierarchical clustering by recursive bisection.
//!
//! The paper frames COD over *any* hierarchical graph clustering method
//! (§II-B lists divisive methods \[15, 43–45\] alongside the agglomerative
//! family it adopts). This module provides a divisive alternative for
//! ablations: recursive bisection with double-BFS seeding and a
//! Fiduccia–Mattheyses-style greedy refinement pass, producing the same
//! [`Dendrogram`] type as [`crate::nnchain`].
//!
//! Compared with NN-chain average linkage, recursive bisection yields much
//! more *balanced* hierarchies (depth `O(log n)` on well-behaved graphs) —
//! useful to quantify how hierarchy skew drives HIMOR construction cost
//! (paper Table II discussion).

use cod_graph::{Csr, NodeId};

use crate::dendrogram::Dendrogram;
use crate::nnchain::Merge;

/// Builds a dendrogram by recursive balanced bisection.
pub fn bisect(g: &Csr) -> Dendrogram {
    let n = g.num_nodes();
    assert!(n >= 1, "bisection needs at least one node");
    if n == 1 {
        return Dendrogram::singleton();
    }

    // Split tree: children are created after their parent, so iterating
    // part indices in reverse visits children first.
    enum Part {
        Leaf(NodeId),
        Internal(usize, usize),
    }
    let mut parts: Vec<Option<Part>> = vec![None];
    let mut stack: Vec<(Vec<NodeId>, usize)> = vec![((0..n as NodeId).collect(), 0)];
    let mut side = vec![0u8; n]; // scratch for partitioning
    while let Some((set, slot)) = stack.pop() {
        if set.len() == 1 {
            parts[slot] = Some(Part::Leaf(set[0]));
            continue;
        }
        let (a, b) = bipartition(g, &set, &mut side);
        let ia = parts.len();
        parts.push(None);
        let ib = parts.len();
        parts.push(None);
        parts[slot] = Some(Part::Internal(ia, ib));
        stack.push((a, ia));
        stack.push((b, ib));
    }

    // Emit merges children-first.
    let mut vertex_of = vec![0u32; parts.len()];
    let mut merges: Vec<Merge> = Vec::with_capacity(n - 1);
    for i in (0..parts.len()).rev() {
        let Some(part) = parts[i].as_ref() else {
            unreachable!("every slot is filled before the reverse walk");
        };
        match part {
            Part::Leaf(v) => vertex_of[i] = *v,
            Part::Internal(a, b) => {
                let m = Merge {
                    a: vertex_of[*a],
                    b: vertex_of[*b],
                };
                vertex_of[i] = (n + merges.len()) as u32;
                merges.push(m);
            }
        }
    }
    // Children always have larger part indices than their parent, so the
    // reverse walk above emitted every child merge before its parent and
    // all operand ids are valid.
    Dendrogram::from_merges(n, &merges)
}

/// Splits `set` into two non-empty halves: separated components if the
/// induced subgraph is disconnected, otherwise double-BFS seeded balanced
/// growth plus one greedy refinement pass. `side` is caller scratch of
/// size `|V|`.
fn bipartition(g: &Csr, set: &[NodeId], side: &mut [u8]) -> (Vec<NodeId>, Vec<NodeId>) {
    debug_assert!(set.len() >= 2);
    // side: 0 = not in set, 1 = side A, 2 = side B, 3 = in set, unassigned.
    for &v in set {
        side[v as usize] = 3;
    }

    // Component check via BFS from set[0].
    let mut comp = Vec::with_capacity(set.len());
    comp.push(set[0]);
    side[set[0] as usize] = 1;
    let mut head = 0;
    while head < comp.len() {
        let v = comp[head];
        head += 1;
        for &u in g.neighbors(v) {
            if side[u as usize] == 3 {
                side[u as usize] = 1;
                comp.push(u);
            }
        }
    }
    if comp.len() < set.len() {
        // Disconnected: first component vs the rest.
        let a = comp;
        let b: Vec<NodeId> = set
            .iter()
            .copied()
            .filter(|&v| side[v as usize] == 3)
            .collect();
        for &v in set {
            side[v as usize] = 0;
        }
        return (a, b);
    }

    // Double-BFS diameter endpoints as seeds.
    let Some(&s1) = comp.last() else {
        unreachable!("bipartition is only called on non-empty sets");
    };
    for &v in set {
        side[v as usize] = 3;
    }
    let s2 = bfs_farthest(g, s1, set, side);

    // Balanced growth: the smaller side claims one node per step from its
    // candidate frontier; a side whose frontier is exhausted *steals* an
    // arbitrary unassigned node, so the split stays near-balanced even on
    // stars and other frontier-starving topologies.
    for &v in set {
        side[v as usize] = 3;
    }
    side[s1 as usize] = 1;
    side[s2 as usize] = 2;
    let mut cand_a: Vec<NodeId> = g.neighbors(s1).to_vec();
    let mut cand_b: Vec<NodeId> = g.neighbors(s2).to_vec();
    let (mut ha, mut hb) = (0usize, 0usize);
    let (mut ca, mut cb) = (1usize, 1usize);
    let mut unassigned = set.len() - 2;
    let mut steal_cursor = 0usize;
    while unassigned > 0 {
        let grow_a = ca <= cb;
        let (cand, head, mark) = if grow_a {
            (&mut cand_a, &mut ha, 1u8)
        } else {
            (&mut cand_b, &mut hb, 2u8)
        };
        // Next unassigned candidate of this side, if any.
        let mut claimed = None;
        while *head < cand.len() {
            let v = cand[*head];
            *head += 1;
            if side[v as usize] == 3 {
                claimed = Some(v);
                break;
            }
        }
        let v = claimed.unwrap_or_else(|| {
            // Frontier exhausted: steal any unassigned node.
            loop {
                let v = set[steal_cursor];
                steal_cursor += 1;
                if side[v as usize] == 3 {
                    break v;
                }
            }
        });
        side[v as usize] = mark;
        if grow_a {
            ca += 1;
        } else {
            cb += 1;
        }
        unassigned -= 1;
        let cand = if grow_a { &mut cand_a } else { &mut cand_b };
        for &u in g.neighbors(v) {
            if side[u as usize] == 3 {
                cand.push(u);
            }
        }
    }

    // One FM-style refinement pass: move nodes with positive cut gain,
    // never shrinking a side below a quarter of the set.
    let min_side = (set.len() / 4).max(1);
    for &v in set {
        let mine = side[v as usize];
        let other = 3 - mine; // 1 <-> 2
        let (mut to_mine, mut to_other) = (0i64, 0i64);
        for &u in g.neighbors(v) {
            if side[u as usize] == mine {
                to_mine += 1;
            } else if side[u as usize] == other {
                to_other += 1;
            }
        }
        let (cur, oth) = if mine == 1 {
            (&mut ca, &mut cb)
        } else {
            (&mut cb, &mut ca)
        };
        if to_other > to_mine && *cur > min_side {
            side[v as usize] = other;
            *cur -= 1;
            *oth += 1;
        }
    }

    let mut a = Vec::with_capacity(ca);
    let mut b = Vec::with_capacity(cb);
    for &v in set {
        if side[v as usize] == 1 {
            a.push(v);
        } else {
            b.push(v);
        }
        side[v as usize] = 0;
    }
    debug_assert!(!a.is_empty() && !b.is_empty());
    (a, b)
}

/// The farthest node from `start` within `set` (BFS). `side` holds value 3
/// for set members on entry, and is restored to 3 before returning.
fn bfs_farthest(g: &Csr, start: NodeId, set: &[NodeId], side: &mut [u8]) -> NodeId {
    let mut queue = vec![start];
    side[start as usize] = 1;
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &u in g.neighbors(v) {
            if side[u as usize] == 3 {
                side[u as usize] = 1;
                queue.push(u);
            }
        }
    }
    let Some(&far) = queue.last() else {
        unreachable!("BFS starts with the seed enqueued");
    };
    for &v in set {
        side[v as usize] = 3;
    }
    far
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;

    fn barbell() -> Csr {
        let mut b = GraphBuilder::new(8);
        for (u, v) in [
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (2, 3),
            (5, 6),
            (6, 7),
        ] {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn produces_full_dendrogram() {
        let g = barbell();
        let d = bisect(&g);
        assert_eq!(d.num_leaves(), 8);
        assert_eq!(d.num_vertices(), 15);
        assert_eq!(d.size(d.root()), 8);
    }

    #[test]
    fn root_split_is_roughly_balanced() {
        let g = barbell();
        let d = bisect(&g);
        let [a, b] = d.children(d.root());
        let small = d.size(a).min(d.size(b));
        assert!(small >= 2, "root split {}/{}", d.size(a), d.size(b));
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.add_edge(4, 5);
        let d = bisect(&b.build());
        assert_eq!(d.size(d.root()), 6);
        // Each pair must appear as a community somewhere.
        let has =
            |want: &[NodeId]| (0..d.num_vertices() as u32).any(|v| d.members_sorted(v) == want);
        assert!(has(&[0, 1]) && has(&[2, 3]) && has(&[4, 5]));
    }

    #[test]
    fn singleton_graph() {
        let d = bisect(&GraphBuilder::new(1).build());
        assert_eq!(d.num_leaves(), 1);
    }

    #[test]
    fn more_balanced_than_a_star_merge_chain() {
        // A star: agglomerative merging absorbs leaves one at a time
        // (depth O(n)); bisection splits it logarithmically.
        let mut b = GraphBuilder::new(64);
        for v in 1..64 {
            b.add_edge(0, v);
        }
        let g = b.build();
        let divisive = bisect(&g);
        let agglomerative = Dendrogram::from_merges(64, &crate::nnchain::cluster_unweighted(&g));
        assert!(
            divisive.avg_chain_len() < agglomerative.avg_chain_len() / 2.0,
            "divisive {:.1} vs agglomerative {:.1}",
            divisive.avg_chain_len(),
            agglomerative.avg_chain_len()
        );
    }

    #[test]
    fn works_on_random_graphs() {
        use rand::prelude::*;
        let mut rng = SmallRng::seed_from_u64(77);
        for n in [2usize, 3, 5, 17, 50] {
            let mut b = GraphBuilder::new(n);
            for v in 1..n as NodeId {
                b.add_edge(rng.random_range(0..v), v);
            }
            for _ in 0..n {
                let u = rng.random_range(0..n as NodeId);
                let v = rng.random_range(0..n as NodeId);
                b.add_edge(u, v);
            }
            let d = bisect(&b.build());
            assert_eq!(d.num_leaves(), n);
            assert_eq!(d.size(d.root()), n);
        }
    }
}
