//! Dataset presets and query workloads for the COD experiment suite.
//!
//! The paper evaluates on six real networks plus LiveJournal (Table I).
//! Those datasets are not redistributable here, so each preset *simulates*
//! its counterpart with matched size, density, attribute count and — most
//! importantly — the structural property the paper exploits it for (see
//! `DESIGN.md` §5):
//!
//! | preset | emulates | generator |
//! |---|---|---|
//! | [`cora_like`] | Cora (2,485 / 5,069 / 7 attrs) | planted partition + noisy class labels |
//! | [`citeseer_like`] | CiteSeer (2,110 / 3,668 / 6) | planted partition + noisy class labels |
//! | [`pubmed_like`] | PubMed (19,717 / 44,327 / 3) | planted partition + noisy class labels |
//! | [`retweet_like`] | Retweet (18,470 / 48,053 / 2) | Barabási–Albert (hub-skewed) + 2 labels |
//! | [`amazon_like`] | Amazon (scaled) | power-law communities + per-community attribute |
//! | [`dblp_like`] | DBLP (scaled) | power-law communities + per-community attribute |
//! | [`livejournal_like`] | LiveJournal (scaled) | power-law communities + per-community attribute |
//!
//! The big three run at a reduced default scale so that the whole
//! experiment suite completes on one machine; pass an explicit `n` to
//! change it. All presets are deterministic given a seed, connected, and
//! have every node carrying at least one attribute.

use cod_graph::generators::{
    assign_class_labels, assign_community_attrs, barabasi_albert, blocks_from_sizes,
    make_connected, planted_partition, power_law_sizes,
};
use cod_graph::{AttrId, AttrInterner, AttrTable, AttributedGraph, GraphBuilder, NodeId};
use rand::prelude::*;

/// A generated dataset with its ground-truth communities (when the
/// generator plants them).
pub struct Dataset {
    /// Preset name (e.g. `"cora"`).
    pub name: String,
    /// The attributed graph.
    pub graph: AttributedGraph,
    /// Planted ground-truth communities (empty for BA-style presets).
    pub communities: Vec<Vec<NodeId>>,
}

impl Dataset {
    /// `(|V|, |E|, |A|)` as in Table I.
    pub fn stats(&self) -> (usize, usize, usize) {
        (
            self.graph.num_nodes(),
            self.graph.num_edges(),
            self.graph.num_attrs(),
        )
    }
}

/// Fraction of nodes that are *pendants*: degree-1 leaves attached
/// preferentially to high-degree core nodes. Real citation and co-purchase
/// graphs are full of such leaves; under average linkage they merge last
/// and produce the skewed hierarchies the paper's Fig. 4 exhibits.
const PENDANT_FRACTION: f64 = 0.25;

/// Attaches nodes `n_core..n_total` as pendants of `core`, preferentially
/// by degree, and returns the combined graph plus the attachment targets.
fn attach_pendants<R: Rng>(
    core: &cod_graph::Csr,
    n_total: usize,
    rng: &mut R,
) -> (cod_graph::Csr, Vec<NodeId>) {
    let n_core = core.num_nodes();
    // Degree-proportional urn over core endpoints.
    let mut urn: Vec<NodeId> = Vec::with_capacity(2 * core.num_edges());
    for (u, v) in core.edges() {
        urn.push(u);
        urn.push(v);
    }
    let mut b = GraphBuilder::with_capacity(n_total, core.num_edges() + (n_total - n_core));
    for (u, v) in core.edges() {
        b.add_edge(u, v);
    }
    let mut targets = Vec::with_capacity(n_total - n_core);
    for v in n_core..n_total {
        let t = if urn.is_empty() {
            0
        } else {
            urn[rng.random_range(0..urn.len())]
        };
        b.add_edge(v as NodeId, t);
        targets.push(t);
    }
    (b.build(), targets)
}

/// Builds a citation-like dataset: planted partition with noisy class
/// labels (one label per node from `num_classes`) plus a pendant fringe.
fn citation_like<R: Rng>(
    name: &str,
    n: usize,
    target_edges: usize,
    num_classes: usize,
    rng: &mut R,
) -> Dataset {
    let n_core = ((n as f64) * (1.0 - PENDANT_FRACTION)) as usize;
    let core_edges = target_edges.saturating_sub(n - n_core);
    let sizes = power_law_sizes(n_core, 8, (n_core / 12).max(30), 2.2, rng);
    let mut blocks = blocks_from_sizes(&sizes);
    // 80% of core edges intra-community, 20% background.
    let intra_pairs: f64 = sizes
        .iter()
        .map(|&s| s as f64 * (s as f64 - 1.0) / 2.0)
        .sum();
    let total_pairs = n_core as f64 * (n_core as f64 - 1.0) / 2.0;
    let p_in = (0.8 * core_edges as f64 / intra_pairs).min(1.0);
    let p_out = 0.2 * core_edges as f64 / total_pairs;
    let core = planted_partition(n_core, &blocks, p_in, p_out, rng);
    let (csr, targets) = attach_pendants(&core, n, rng);
    let csr = make_connected(&csr, rng);
    // A pendant joins the community of its attachment point.
    let block_of = block_index(&blocks, n_core);
    for (i, &t) in targets.iter().enumerate() {
        blocks[block_of[t as usize]].push((n_core + i) as NodeId);
    }
    let attrs = assign_class_labels(n, &blocks, num_classes, 0.1, rng);
    let mut interner = AttrInterner::new();
    for c in 0..num_classes {
        interner.intern(&format!("class_{c}"));
    }
    Dataset {
        name: name.to_owned(),
        graph: AttributedGraph::from_parts(csr, attrs, interner),
        communities: blocks,
    }
}

/// Maps each core node to the index of its block.
fn block_index(blocks: &[Vec<NodeId>], n_core: usize) -> Vec<usize> {
    let mut of = vec![0usize; n_core];
    for (i, b) in blocks.iter().enumerate() {
        for &v in b {
            of[v as usize] = i;
        }
    }
    of
}

/// Builds a ground-truth-community dataset following the paper's Amazon /
/// DBLP / LiveJournal augmentation: power-law community sizes and one
/// random attribute from a pool shared by every node of a community.
fn community_like<R: Rng>(
    name: &str,
    n: usize,
    target_edges: usize,
    num_attrs: usize,
    rng: &mut R,
) -> Dataset {
    let n_core = ((n as f64) * (1.0 - PENDANT_FRACTION)) as usize;
    let core_edges = target_edges.saturating_sub(n - n_core);
    let sizes = power_law_sizes(n_core, 6, 200, 2.5, rng);
    let mut blocks = blocks_from_sizes(&sizes);
    let intra_pairs: f64 = sizes
        .iter()
        .map(|&s| s as f64 * (s as f64 - 1.0) / 2.0)
        .sum();
    let total_pairs = n_core as f64 * (n_core as f64 - 1.0) / 2.0;
    let p_in = (0.85 * core_edges as f64 / intra_pairs).min(1.0);
    let p_out = 0.15 * core_edges as f64 / total_pairs;
    let core = planted_partition(n_core, &blocks, p_in, p_out, rng);
    let (csr, targets) = attach_pendants(&core, n, rng);
    let csr = make_connected(&csr, rng);
    let block_of = block_index(&blocks, n_core);
    for (i, &t) in targets.iter().enumerate() {
        blocks[block_of[t as usize]].push((n_core + i) as NodeId);
    }
    let attrs = assign_community_attrs(n, &blocks, num_attrs, rng);
    let mut interner = AttrInterner::new();
    for a in 0..num_attrs {
        interner.intern(&format!("attr_{a}"));
    }
    Dataset {
        name: name.to_owned(),
        graph: AttributedGraph::from_parts(csr, attrs, interner),
        communities: blocks,
    }
}

/// Cora-like: 2,485 nodes, ≈5,069 edges, 7 classes.
pub fn cora_like(seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    citation_like("cora", 2485, 5069, 7, &mut rng)
}

/// CiteSeer-like: 2,110 nodes, ≈3,668 edges, 6 classes.
pub fn citeseer_like(seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    citation_like("citeseer", 2110, 3668, 6, &mut rng)
}

/// PubMed-like: 19,717 nodes, ≈44,327 edges, 3 classes.
pub fn pubmed_like(seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    citation_like("pubmed", 19717, 44327, 3, &mut rng)
}

/// Retweet-like: 18,470 nodes, hub-skewed (Barabási–Albert), 2 labels.
///
/// The paper uses Retweet to exercise *skewed* hierarchies
/// (`|H̄_ℓ(q)| = 165.3`, Table I); preferential attachment reproduces that
/// skew under average-linkage clustering.
pub fn retweet_like(seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = 18_470;
    // A preferential-attachment core plus a large *viral* pendant fringe:
    // retweet graphs are dominated by a few hubs with thousands of one-off
    // retweeters, which is what produces the extreme hierarchy skew of
    // Table I (avg |H(q)| = 165.3). Pendants pick their hub by a Zipf law
    // over the degree ranking, concentrating them on the top hubs.
    let n_core = ((n as f64) * (1.0 - 2.0 * PENDANT_FRACTION)) as usize;
    let core = barabasi_albert(n_core, 4, &mut rng);
    let mut by_degree: Vec<NodeId> = (0..n_core as NodeId).collect();
    by_degree.sort_unstable_by_key(|&v| std::cmp::Reverse(core.degree(v)));
    let mut cum: Vec<f64> = Vec::with_capacity(n_core);
    let mut acc = 0.0;
    for rank in 0..n_core {
        acc += 1.0 / (rank + 1) as f64;
        cum.push(acc);
    }
    let mut b = GraphBuilder::with_capacity(n, core.num_edges() + (n - n_core));
    for (u, v) in core.edges() {
        b.add_edge(u, v);
    }
    for v in n_core..n {
        let x = rng.random::<f64>() * acc;
        let rank = cum.partition_point(|&c| c < x).min(n_core - 1);
        b.add_edge(v as NodeId, by_degree[rank]);
    }
    let csr = b.build();
    // Two labels, assortative: nodes copy the label of a random neighbor
    // with p = 0.7 (one sweep), else keep a random one — yielding mixed
    // but correlated labels like political retweet communities.
    let mut labels: Vec<AttrId> = (0..n).map(|_| rng.random_range(0..2) as AttrId).collect();
    for v in 0..n {
        if rng.random_bool(0.7) {
            let neigh = csr.neighbors(v as NodeId);
            if !neigh.is_empty() {
                let u = neigh[rng.random_range(0..neigh.len())];
                labels[v] = labels[u as usize];
            }
        }
    }
    let attrs = AttrTable::single_per_node(&labels);
    let mut interner = AttrInterner::new();
    interner.intern("left");
    interner.intern("right");
    Dataset {
        name: "retweet".to_owned(),
        graph: AttributedGraph::from_parts(csr, attrs, interner),
        communities: Vec::new(),
    }
}

/// Amazon-like at a given node count (paper: 334,863; default here 33,000
/// to keep the full suite laptop-scale). The attribute pool keeps the
/// paper's `|A| = 33`.
pub fn amazon_like_scaled(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges = (n as f64 * (925_872.0 / 334_863.0)) as usize;
    community_like("amazon", n, edges, 33, &mut rng)
}

/// Amazon-like at the default reduced scale (33k nodes).
pub fn amazon_like(seed: u64) -> Dataset {
    amazon_like_scaled(33_000, seed)
}

/// DBLP-like at a given node count (paper: 317,080; default 32,000).
/// Keeps the paper's `|A| = 31`.
pub fn dblp_like_scaled(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges = (n as f64 * (1_049_866.0 / 317_080.0)) as usize;
    community_like("dblp", n, edges, 31, &mut rng)
}

/// DBLP-like at the default reduced scale (32k nodes).
pub fn dblp_like(seed: u64) -> Dataset {
    dblp_like_scaled(32_000, seed)
}

/// LiveJournal-like at a given node count (paper: 3,997,962; default
/// 60,000 for the scalability test). `|A| = 400` as in Table I.
pub fn livejournal_like_scaled(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges = (n as f64 * (34_681_189.0 / 3_997_962.0)) as usize;
    community_like("livejournal", n, edges, 400, &mut rng)
}

/// LiveJournal-like at the default reduced scale (60k nodes).
pub fn livejournal_like(seed: u64) -> Dataset {
    livejournal_like_scaled(60_000, seed)
}

/// Looks a preset up by name (accepts the Table I dataset names,
/// case-insensitive).
pub fn by_name(name: &str, seed: u64) -> Option<Dataset> {
    match name.to_ascii_lowercase().as_str() {
        "cora" => Some(cora_like(seed)),
        "citeseer" => Some(citeseer_like(seed)),
        "pubmed" => Some(pubmed_like(seed)),
        "retweet" => Some(retweet_like(seed)),
        "amazon" => Some(amazon_like(seed)),
        "dblp" => Some(dblp_like(seed)),
        "livejournal" => Some(livejournal_like(seed)),
        _ => None,
    }
}

/// The paper's running example: the Fig. 2 ten-node graph with the Fig. 5
/// DB/ML attributes. Used by the quickstart example and as a shared test
/// fixture.
///
/// ```
/// let data = cod_datasets::paper_example();
/// assert_eq!(data.graph.num_nodes(), 10);
/// assert_eq!(data.graph.num_edges(), 15);
/// let db = data.graph.interner().get("DB").unwrap();
/// assert!(data.graph.has_attr(0, db));
/// ```
pub fn paper_example() -> Dataset {
    let mut b = GraphBuilder::new(10);
    for (u, v) in [
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 2),
        (2, 3),
        (2, 4),
        (3, 5),
        (4, 5),
        (3, 7),
        (3, 6),
        (6, 7),
        (5, 6),
        (6, 8),
        (8, 9),
        (6, 9),
    ] {
        b.add_edge(u, v);
    }
    let mut interner = AttrInterner::new();
    let db = interner.intern("DB");
    let ml = interner.intern("ML");
    let lists = (0..10)
        .map(|v| match v {
            0 | 2 | 3 | 4 | 5 | 7 => vec![db],
            _ => vec![ml],
        })
        .collect();
    Dataset {
        name: "paper-example".to_owned(),
        graph: AttributedGraph::from_parts(b.build(), AttrTable::from_lists(lists), interner),
        communities: vec![vec![0, 1, 2, 3], vec![4, 5], vec![6, 7], vec![8, 9]],
    }
}

/// Generates the paper's query workload (§V-A): `count` random query nodes,
/// each paired with one of its own attributes, drawn uniformly. Nodes
/// without attributes are skipped.
pub fn gen_queries<R: Rng>(
    g: &AttributedGraph,
    count: usize,
    rng: &mut R,
) -> Vec<(NodeId, AttrId)> {
    let n = g.num_nodes();
    let mut out = Vec::with_capacity(count);
    let mut guard = 0usize;
    while out.len() < count && guard < 100 * count + 1000 {
        guard += 1;
        let q = rng.random_range(0..n) as NodeId;
        let attrs = g.node_attrs(q);
        if attrs.is_empty() {
            continue;
        }
        let a = attrs[rng.random_range(0..attrs.len())];
        out.push((q, a));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::components::is_connected;

    #[test]
    fn cora_like_matches_table_1_shape() {
        let d = cora_like(1);
        let (n, m, a) = d.stats();
        assert_eq!(n, 2485);
        assert!(
            (m as f64 - 5069.0).abs() < 800.0,
            "edge count {m} too far from 5069"
        );
        assert_eq!(a, 7);
        assert!(is_connected(d.graph.csr()));
    }

    #[test]
    fn every_node_has_an_attribute() {
        for d in [cora_like(2), citeseer_like(2), retweet_like(2)] {
            for v in 0..d.graph.num_nodes() as NodeId {
                assert!(!d.graph.node_attrs(v).is_empty(), "{}: node {v}", d.name);
            }
        }
    }

    #[test]
    fn retweet_like_is_hub_skewed() {
        let d = retweet_like(3);
        let g = d.graph.csr();
        let max_deg = (0..g.num_nodes() as NodeId)
            .map(|v| g.degree(v))
            .max()
            .unwrap();
        assert!(max_deg > 100, "expected hubs, max degree {max_deg}");
        assert!(is_connected(g));
    }

    #[test]
    fn community_like_attributes_are_shared() {
        let d = amazon_like_scaled(2000, 4);
        // All members of each planted community share one attribute.
        for c in d.communities.iter().take(20) {
            let a = d.graph.node_attrs(c[0])[0];
            for &v in c {
                assert!(d.graph.has_attr(v, a));
            }
        }
    }

    #[test]
    fn presets_are_deterministic() {
        let a = cora_like(7);
        let b = cora_like(7);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn queries_use_own_attributes() {
        let d = cora_like(5);
        let mut rng = SmallRng::seed_from_u64(5);
        let qs = gen_queries(&d.graph, 50, &mut rng);
        assert_eq!(qs.len(), 50);
        for (q, a) in qs {
            assert!(d.graph.has_attr(q, a));
        }
    }

    #[test]
    fn by_name_round_trip() {
        assert!(by_name("Cora", 1).is_some());
        assert!(by_name("nope", 1).is_none());
    }

    #[test]
    fn paper_example_matches_fig_2() {
        let d = paper_example();
        assert_eq!(d.graph.num_nodes(), 10);
        assert_eq!(d.graph.num_edges(), 15);
        let db = d.graph.interner().get("DB").unwrap();
        assert!(d.graph.edge_is_attributed(2, 4, db));
        assert!(!d.graph.edge_is_attributed(0, 1, db));
    }
}
