//! Hierarchy-recovery validation: the clustering substrate must actually
//! find the planted communities of the dataset presets — the realism check
//! behind the `DESIGN.md` §5 substitutions.

use pcod::cod::recluster::build_hierarchy;
use pcod::graph::generators::{blocks_from_sizes, lfr_like, make_connected, planted_partition};
use pcod::graph::partition::{adjusted_rand_index, nmi};
use pcod::prelude::*;
use rand::prelude::*;

fn labels_from_blocks(n: usize, blocks: &[Vec<NodeId>]) -> Vec<u32> {
    let mut labels = vec![0u32; n];
    for (i, b) in blocks.iter().enumerate() {
        for &v in b {
            labels[v as usize] = i as u32;
        }
    }
    labels
}

#[test]
fn nnchain_recovers_planted_partition() {
    let mut rng = SmallRng::seed_from_u64(11);
    let n = 300;
    let blocks = blocks_from_sizes(&[30; 10]);
    let g = planted_partition(n, &blocks, 0.35, 0.004, &mut rng);
    let g = make_connected(&g, &mut rng);
    let truth = labels_from_blocks(n, &blocks);
    let dendro = build_hierarchy(&g);
    let cut = dendro.cut(10);
    let score = nmi(&truth, &cut);
    assert!(
        score > 0.75,
        "NMI {score} too low for a clean planted partition"
    );
    assert!(adjusted_rand_index(&truth, &cut) > 0.5);
}

#[test]
fn divisive_bisection_also_recovers_structure() {
    let mut rng = SmallRng::seed_from_u64(12);
    let n = 256;
    let blocks = blocks_from_sizes(&[64; 4]);
    let g = planted_partition(n, &blocks, 0.3, 0.005, &mut rng);
    let g = make_connected(&g, &mut rng);
    let truth = labels_from_blocks(n, &blocks);
    let dendro = pcod::hierarchy::bisect(&g);
    let cut = dendro.cut(4);
    let score = nmi(&truth, &cut);
    assert!(score > 0.6, "bisection NMI {score}");
}

#[test]
fn recovery_degrades_with_lfr_mixing() {
    let mut rng = SmallRng::seed_from_u64(13);
    let n = 300;
    let blocks = blocks_from_sizes(&[50; 6]);
    let truth = labels_from_blocks(n, &blocks);
    let mut scores = Vec::new();
    for &mu in &[0.05f64, 0.5] {
        let g = lfr_like(n, &blocks, 4, 20, 2.5, mu, &mut rng);
        let g = make_connected(&g, &mut rng);
        let dendro = build_hierarchy(&g);
        scores.push(nmi(&truth, &dendro.cut(6)));
    }
    assert!(
        scores[0] > scores[1] + 0.1,
        "mu=0.05 NMI {} should beat mu=0.5 NMI {}",
        scores[0],
        scores[1]
    );
    assert!(
        scores[0] > 0.5,
        "clean LFR should be recoverable: {}",
        scores[0]
    );
}

#[test]
fn preset_hierarchies_align_with_planted_communities() {
    // The experiment presets must expose community structure to the COD
    // hierarchy — otherwise the Fig. 7 attribute densities would be
    // meaningless.
    let data = pcod::datasets::amazon_like_scaled(3000, 14);
    let g = data.graph.csr();
    let n = g.num_nodes();
    let truth = labels_from_blocks(n, &data.communities);
    let dendro = build_hierarchy(g);
    let cut = dendro.cut(data.communities.len());
    let score = nmi(&truth, &cut);
    assert!(score > 0.5, "amazon-like preset NMI {score}");
}
