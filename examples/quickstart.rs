//! Quickstart: find the characteristic community of a node in the paper's
//! running example (Fig. 2 graph with Fig. 5 attributes).
//!
//! Run with: `cargo run --release --example quickstart`

use pcod::prelude::*;
use rand::prelude::*;

fn main() {
    let data = pcod::datasets::paper_example();
    let g = &data.graph;
    let db = g.interner().get("DB").expect("DB attribute");

    println!(
        "graph: {} nodes, {} edges, {} attributes",
        g.num_nodes(),
        g.num_edges(),
        g.num_attrs()
    );

    let mut rng = SmallRng::seed_from_u64(42);

    // The fully optimized method: LORE + HIMOR index. A looser rank
    // requirement k yields larger characteristic communities (Fig. 7).
    for k in 1..=3 {
        let cfg = CodConfig {
            k,
            theta: 500, // generous sampling: the example graph is tiny
            ..CodConfig::default()
        };
        let engine = CodEngine::new(g.clone(), cfg);
        for q in [0u32, 6] {
            let query = Query::new(q, db, Method::Codl);
            match engine.query(query, &mut rng).expect("valid query") {
                Some(ans) => println!(
                    "k={k}: characteristic community of v{q} is {:?} — rank {} via {:?}",
                    ans.members, ans.rank, ans.source
                ),
                None => println!("k={k}: v{q} has no community where it is top-{k}"),
            }
        }
    }

    // Compare with the naive non-attributed variant (CODU).
    let cfg = CodConfig {
        k: 2,
        theta: 500,
        ..CodConfig::default()
    };
    let engine = CodEngine::new(g.clone(), cfg);
    for q in [0u32, 6] {
        match engine.query(Query::codu(q), &mut rng).expect("valid query") {
            Some(ans) => println!(
                "CODU answer for v{q}: {:?} (rank {})",
                ans.members, ans.rank
            ),
            None => println!("CODU: no answer for v{q}"),
        }
    }
}
