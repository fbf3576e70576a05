//! Answer-quality measures for the experiment suite (§V-A, §V-C).

use cod_graph::{measures as gm, AttrId, AttributedGraph, NodeId};
use cod_influence::{InfluenceEstimate, Model, Parallelism, SeedSequence};
use rand::prelude::*;

use crate::pipeline::CodAnswer;

/// The three per-answer quality measures of §V-A, plus the answer size.
/// Missing answers score 0 on every measure (§V-A: "in case a community
/// search method does not return a characteristic community ... we assign
/// 0 to each measure").
#[derive(Clone, Copy, Debug, Default)]
pub struct AnswerQuality {
    /// `|C*|`.
    pub size: f64,
    /// Topology density `ρ(C*)`.
    pub topology_density: f64,
    /// Attribute density `φ(C*)`.
    pub attribute_density: f64,
}

/// Scores one (possibly missing) answer.
pub fn answer_quality(
    g: &AttributedGraph,
    attr: AttrId,
    answer: Option<&CodAnswer>,
) -> AnswerQuality {
    match answer {
        None => AnswerQuality::default(),
        Some(a) => AnswerQuality {
            size: a.members.len() as f64,
            topology_density: gm::topology_density(g.csr(), &a.members),
            attribute_density: gm::attribute_density(g, &a.members, attr),
        },
    }
}

/// Averages qualities over a query workload (missing answers count as 0).
pub fn average_quality(qualities: &[AnswerQuality]) -> AnswerQuality {
    if qualities.is_empty() {
        return AnswerQuality::default();
    }
    let n = qualities.len() as f64;
    AnswerQuality {
        size: qualities.iter().map(|q| q.size).sum::<f64>() / n,
        topology_density: qualities.iter().map(|q| q.topology_density).sum::<f64>() / n,
        attribute_density: qualities.iter().map(|q| q.attribute_density).sum::<f64>() / n,
    }
}

/// Ground-truth check for the paper's *top-k precision* (§V-C): whether `q`
/// really is top-k influential in `members`, judged by a high-θ RR
/// estimate (the paper samples 1000 RR sets per community node) from one
/// master seed drawn from `rng`.
pub fn is_truly_top_k<R: Rng>(
    g: &AttributedGraph,
    model: Model,
    members: &[NodeId],
    q: NodeId,
    k: usize,
    theta_per_node: usize,
    rng: &mut R,
) -> bool {
    if members.is_empty() {
        return false;
    }
    let est = InfluenceEstimate::on_community(
        g.csr(),
        model,
        members,
        theta_per_node * members.len(),
        SeedSequence::new(rng.next_u64()),
        Parallelism::Threads(1),
    );
    est.is_top_k(q, members, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnswerSource;
    use cod_graph::{AttrInterner, AttrTable, GraphBuilder};

    fn tri() -> AttributedGraph {
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
            b.add_edge(u, v);
        }
        let attrs = AttrTable::from_lists(vec![vec![0], vec![0], vec![], vec![]]);
        AttributedGraph::from_parts(b.build(), attrs, AttrInterner::new())
    }

    fn ans(members: Vec<NodeId>) -> CodAnswer {
        CodAnswer {
            members,
            rank: 1,
            source: AnswerSource::Compressed,
            uncertain: false,
            cache: None,
            degraded: None,
            trace: None,
        }
    }

    #[test]
    fn missing_answer_scores_zero() {
        let g = tri();
        let q = answer_quality(&g, 0, None);
        assert_eq!(q.size, 0.0);
        assert_eq!(q.topology_density, 0.0);
        assert_eq!(q.attribute_density, 0.0);
    }

    #[test]
    fn quality_of_triangle() {
        let g = tri();
        let a = ans(vec![0, 1, 2]);
        let q = answer_quality(&g, 0, Some(&a));
        assert_eq!(q.size, 3.0);
        assert!((q.topology_density - 1.0).abs() < 1e-12);
        assert!((q.attribute_density - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn averaging_includes_misses() {
        let g = tri();
        let qs = vec![
            answer_quality(&g, 0, Some(&ans(vec![0, 1, 2]))),
            answer_quality(&g, 0, None),
        ];
        let avg = average_quality(&qs);
        assert_eq!(avg.size, 1.5);
    }

    #[test]
    fn true_top_k_check_on_star() {
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v);
        }
        let g = AttributedGraph::unattributed(b.build());
        let members: Vec<NodeId> = (0..5).collect();
        let mut rng = SmallRng::seed_from_u64(41);
        assert!(is_truly_top_k(
            &g,
            Model::WeightedCascade,
            &members,
            0,
            1,
            200,
            &mut rng
        ));
        assert!(!is_truly_top_k(
            &g,
            Model::WeightedCascade,
            &members,
            3,
            1,
            200,
            &mut rng
        ));
    }
}
