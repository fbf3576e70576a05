//! COD on an evolving network, with a persistent index.
//!
//! Demonstrates the two deployment features beyond the paper's core
//! algorithms: [`pcod::cod::dynamic::DynamicCod`] (the paper's §VI
//! future-work direction — queries on a graph receiving edge edits) and
//! [`pcod::cod::persist`] (saving the HIMOR index across sessions).
//!
//! Run with: `cargo run --release --example evolving_network`

use pcod::cod::dynamic::DynamicCod;
use pcod::cod::persist::{load_index, save_index};
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
    let codl = Codl::new(g, cfg, &mut rng).expect("valid config");
    let path = std::env::temp_dir().join("citeseer.codx");
    let (dendro, _) = codl.hierarchy();
    save_index(&path, dendro, codl.index()).expect("save index");
    println!(
        "saved HIMOR index ({} KB) to {}",
        codl.index().memory_bytes() / 1024,
        path.display()
    );
    let (dendro2, index2) = load_index(&path).expect("reload index");
    let lca2 = LcaIndex::new(&dendro2);
    let codl2 = Codl::from_parts(g, cfg, dendro2, lca2, index2);
    let q = 17;
    let attr = g.node_attrs(q)[0];
    let before = codl2.query(q, attr, &mut rng).expect("valid query");
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
        dynamic.insert_edge(q, base + i);
        dynamic.set_attrs(base + i, vec![attr]).expect("in range");
    }
    for i in 0..6 {
        for j in i + 1..6 {
            dynamic.insert_edge(base + i, base + j);
        }
    }
    println!(
        "{} edits pending; index fast path for {q}: {}",
        dynamic.pending_edits(),
        dynamic.index_usable_for(q)
    );
    let after = dynamic.query(q, attr, &mut rng).expect("valid query");
    println!(
        "query on the evolved graph: node {q} -> {:?} members",
        after.as_ref().map(|a| a.size())
    );
    dynamic.rebuild().expect("ungoverned rebuild");
    let rebuilt = dynamic.query(q, attr, &mut rng).expect("valid query");
    println!(
        "after full rebuild: node {q} -> {:?} members (index usable: {})",
        rebuilt.as_ref().map(|a| a.size()),
        dynamic.index_usable_for(q)
    );
    std::fs::remove_file(&path).ok();
}
