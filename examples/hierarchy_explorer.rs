//! Explore a node's hierarchical communities and influence profile — a
//! walk-through of the machinery behind COD (paper §II–§III).
//!
//! Prints the chain `H(q)`, the reclustering scores LORE computes for each
//! level, and the estimated influence rank of `q` per community, showing
//! the non-monotonicity of ranks (Lemma 1) that makes COD require scanning
//! the entire chain.
//!
//! Run with: `cargo run --release --example hierarchy_explorer [node]`

use pcod::cod::compressed::{compressed_cod, EvalOptions, Samples};
use pcod::cod::{lore, recluster};
use pcod::prelude::*;
use rand::prelude::*;

fn main() {
    let q: NodeId = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(17);
    let seed = 3;
    let data = pcod::datasets::citeseer_like(seed);
    let g = &data.graph;
    let attr = g.node_attrs(q).first().copied().unwrap_or(0);

    println!(
        "dataset {}: {} nodes / {} edges; query node {q}, attribute {}",
        data.name,
        g.num_nodes(),
        g.num_edges(),
        g.interner().name(attr).unwrap_or("?")
    );

    // Build the non-attributed hierarchy T.
    let dendro = recluster::build_hierarchy(g.csr());
    let lca = LcaIndex::new(&dendro);
    let chain = Chain::new(&dendro, &lca, q).unwrap();
    println!("|H(q)| = {} hierarchical communities", chain.len());

    // LORE's reclustering scores along the chain.
    let scores = lore::recluster_scores(g, &dendro, &lca, q, attr).unwrap_or_default();
    let choice = lore::select_recluster_community(g, &dendro, &lca, q, attr);

    // Influence rank of q in every community (compressed evaluation).
    let mut rng = SmallRng::seed_from_u64(seed);
    let k = 5;
    let seed = Samples::Seed(rng.next_u64());
    let opts = EvalOptions::default();
    let out = compressed_cod(
        g.csr(),
        Model::WeightedCascade,
        &chain,
        q,
        k,
        30,
        seed,
        opts,
    )
    .unwrap();

    println!("\nlevel | size     | depth | r(C)     | rank(q) | top-{k}?");
    println!("------+----------+-------+----------+---------+-------");
    let show = chain.len().min(24);
    for h in 0..show {
        let marker = match &choice {
            Some(c) if c.chain_index == h => " <- C_l (LORE reclusters here)",
            _ => "",
        };
        println!(
            "{h:5} | {:8} | {:5} | {:8.4} | {:7} | {}{marker}",
            chain.size(h),
            chain.len() - h,
            scores.get(h).copied().unwrap_or(0.0),
            out.ranks[h],
            if out.ranks[h] <= k { "yes" } else { "no" },
        );
    }
    if chain.len() > show {
        println!("... ({} more levels)", chain.len() - show);
    }

    match out.best_level {
        Some(h) => println!(
            "\ncharacteristic community C*(q): level {h}, {} nodes (largest with rank <= {k})",
            chain.size(h)
        ),
        None => println!("\nno community on the chain has rank(q) <= {k}"),
    }

    // Show the non-monotonicity the paper's Lemma 1 asserts.
    let mut dips = 0;
    for w in out.ranks.windows(2) {
        if w[1] < w[0] {
            dips += 1;
        }
    }
    println!(
        "rank sequence has {dips} decreasing step(s): influence rank is non-monotone in depth"
    );
}
