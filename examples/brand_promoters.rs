//! Community-based social marketing (the paper's §I motivation): find, for
//! each candidate promoter, the widest community in which their voice
//! actually carries — then rank promoters by reach.
//!
//! We build a retweet-like social network (hub-skewed, two "interest"
//! labels), take a set of mid-tier candidate promoters, and use CODL to
//! compute each one's characteristic community for the campaign topic. A
//! promoter with a larger characteristic community can credibly run the
//! campaign at a larger scale.
//!
//! Run with: `cargo run --release --example brand_promoters`

use pcod::graph::measures;
use pcod::prelude::*;
use rand::prelude::*;

fn main() {
    let seed = 11;
    let mut rng = SmallRng::seed_from_u64(seed);
    // A smaller retweet-like network so the example runs in seconds.
    let data = pcod::datasets::by_name("cora", seed).unwrap();
    let g = &data.graph;
    println!(
        "social network: {} users, {} follow edges, {} interests",
        g.num_nodes(),
        g.num_edges(),
        g.num_attrs()
    );

    let cfg = CodConfig {
        k: 5,
        theta: 20,
        ..CodConfig::default()
    };
    let engine = CodEngine::new(g.clone(), cfg);
    engine.ensure_himor(&mut rng).expect("valid config");

    // Candidate promoters: users interested in the campaign topic.
    let topic = 0; // campaign topic = attribute 0
    let candidates: Vec<NodeId> = (0..g.num_nodes() as NodeId)
        .filter(|&v| g.has_attr(v, topic) && g.degree(v) >= 3)
        .take(12)
        .collect();
    println!(
        "evaluating {} candidate promoters for topic {:?} (k = {})",
        candidates.len(),
        g.interner().name(topic).unwrap_or("0"),
        cfg.k
    );

    let mut ranked: Vec<(NodeId, usize, f64)> = Vec::new();
    for &q in &candidates {
        let query = Query::new(q, topic, Method::Codl);
        if let Some(ans) = engine.query(query, &mut rng).expect("valid query") {
            let density = measures::attribute_density(g, &ans.members, topic);
            ranked.push((q, ans.size(), density));
        }
    }
    ranked.sort_by_key(|r| std::cmp::Reverse(r.1));

    println!("\npromoter | community size | topic density");
    println!("---------+----------------+--------------");
    for (q, size, density) in ranked.iter().take(10) {
        println!("{q:8} | {size:14} | {density:13.3}");
    }
    match ranked.first() {
        Some((q, size, _)) => {
            println!("\nbest promoter: user {q} — influential across a {size}-user community")
        }
        None => println!(
            "\nno candidate has a characteristic community at k = {}",
            cfg.k
        ),
    }
}
