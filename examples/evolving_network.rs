//! COD on an evolving network, with a persistent index.
//!
//! Demonstrates the two deployment features beyond the paper's core
//! algorithms: [`pcod::cod::dynamic::DynamicCod`] (the paper's §VI
//! future-work direction — queries on a graph receiving edge edits) and
//! [`pcod::cod::codx`] (saving the graph, hierarchy and HIMOR index as one
//! CODX v3 file, reused across sessions).
//!
//! Run with: `cargo run --release --example evolving_network`

use pcod::cod::dynamic::DynamicCod;
use pcod::cod::{save_artifacts, MappedArtifacts};
use pcod::prelude::*;
use rand::prelude::*;

fn main() {
    let seed = 9;
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = pcod::datasets::citeseer_like(seed);
    let g = &data.graph;
    println!(
        "initial network: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );

    let cfg = CodConfig {
        k: 3,
        theta: 15,
        ..CodConfig::default()
    };

    // --- Persistence: build once, save, reload --------------------------
    let engine = CodEngine::new(g.clone(), cfg);
    let index = engine.ensure_himor(&mut rng).expect("valid config");
    let path = std::env::temp_dir().join("citeseer.codx");
    save_artifacts(&path, g, &engine.base_hierarchy().dendro, &index).expect("save index");
    println!(
        "saved HIMOR index ({} KB) to {}",
        index.memory_bytes() / 1024,
        path.display()
    );
    let arts = MappedArtifacts::open(&path).expect("reopen index");
    let reloaded = CodEngine::from_mapped(&arts, cfg).expect("reload index");
    let q = 17;
    let attr = g.node_attrs(q)[0];
    let query = Query::new(q, attr, Method::Codl);
    let before = reloaded.query(query, &mut rng).expect("valid query");
    println!(
        "query from the reloaded index: node {q} -> {:?}",
        before.as_ref().map(|a| a.size())
    );

    // --- Dynamics: edits, then queries that repair before answering -----
    let mut dynamic = DynamicCod::new(g, cfg, &mut rng).expect("valid config");
    println!("\nsimulating growth around node {q}...");
    // Node q gains a cluster of new collaborators.
    let base = g.num_nodes() as NodeId;
    for i in 0..6 {
        dynamic.insert_edge(q, base + i).expect("in range");
        dynamic.set_attrs(base + i, vec![attr]).expect("in range");
    }
    for i in 0..6 {
        for j in i + 1..6 {
            dynamic.insert_edge(base + i, base + j).expect("in range");
        }
    }
    println!("{} edits pending", dynamic.pending_edits());
    // Queries flush first; flushing explicitly shows what the flush did
    // (the node range grew, so this one rebuilds).
    let report = dynamic.flush().expect("ungoverned flush");
    println!(
        "flush absorbed {} events: {:?}",
        report.events, report.outcome
    );
    let after = dynamic.query(q, attr, &mut rng).expect("valid query");
    println!(
        "query on the evolved graph: node {q} -> {:?}",
        after.as_ref().map(|a| (a.size(), a.source))
    );
    dynamic.rebuild().expect("ungoverned rebuild");
    let rebuilt = dynamic.query(q, attr, &mut rng).expect("valid query");
    println!(
        "after an explicit rebuild (same pinned seed): node {q} -> {:?}",
        rebuilt.as_ref().map(|a| (a.size(), a.source))
    );
    std::fs::remove_file(&path).ok();
}
