//! Scenario from the paper's §IV intro: organizing an academic conference.
//!
//! "To organize an academic conference on a certain research area, one may
//! send invitations to a characteristic community that comprises
//! researchers in the area."
//!
//! We build a DBLP-like coauthor network (publication-venue communities
//! sharing a topic attribute), pick an organizer, and compare the invitee
//! list produced by CODL against the ACQ / ATC / CAC community-search
//! baselines — reproducing the Example-1 contrast from the paper's
//! introduction.
//!
//! Run with: `cargo run --release --example conference_invite`

use cod_search::atc::AtcParams;
use pcod::graph::measures;
use pcod::prelude::*;
use rand::prelude::*;

fn main() {
    let seed = 7;
    let data = pcod::datasets::dblp_like_scaled(4000, seed);
    let g = &data.graph;
    println!(
        "coauthor network: {} researchers, {} collaborations, {} topics",
        g.num_nodes(),
        g.num_edges(),
        g.num_attrs()
    );

    let mut rng = SmallRng::seed_from_u64(seed);
    let cfg = CodConfig {
        k: 3,
        theta: 20,
        ..CodConfig::default()
    };
    let engine = CodEngine::new(g.clone(), cfg);
    engine.ensure_himor(&mut rng).expect("valid config");

    // Pick organizers: nodes with a topic attribute and decent degree.
    let organizers: Vec<NodeId> = (0..g.num_nodes() as NodeId)
        .filter(|&v| g.degree(v) >= 6 && !g.node_attrs(v).is_empty())
        .take(3)
        .collect();

    for &q in &organizers {
        let topic = g.node_attrs(q)[0];
        let topic_name = g.interner().name(topic).unwrap_or("?").to_owned();
        println!("\n== organizer v{q}, topic {topic_name} ==");

        match engine
            .query(Query::new(q, topic, Method::Codl), &mut rng)
            .expect("valid query")
        {
            Some(ans) => {
                println!(
                    "CODL invites {} researchers (organizer influence rank {}; source {:?})",
                    ans.size(),
                    ans.rank,
                    ans.source
                );
                println!(
                    "   topology density {:.3}, topic density {:.3}, conductance {:.3}",
                    measures::topology_density(g.csr(), &ans.members),
                    measures::attribute_density(g, &ans.members, topic),
                    measures::conductance(g.csr(), &ans.members),
                );
            }
            None => println!("CODL: no community where the organizer is top-{}", cfg.k),
        }

        let acq = cod_search::acq_query(g, q, topic, 2);
        let atc = cod_search::atc_query(g, q, topic, AtcParams::default());
        let cac = cod_search::cac_query(g, q, topic);
        for (name, res) in [("ACQ", acq), ("ATC", atc), ("CAC", cac)] {
            match res {
                Some(c) => println!(
                    "{name} finds {} researchers (density {:.3}) — influence not considered",
                    c.len(),
                    measures::topology_density(g.csr(), &c)
                ),
                None => println!("{name}: no community"),
            }
        }
    }
}
