//! Fault-injection tests for the CODX v3 artifact format.
//!
//! Two attack surfaces, per the robustness contract in `cod_core::codx`:
//!
//! 1. **Bit rot** — *every* single-byte corruption and *every* truncation
//!    of a saved image must be caught as `CodError::IndexCorrupt`, either
//!    when the file is opened or when the damaged artifact is first
//!    materialized: never a panic, never an oversized allocation, never a
//!    silently different artifact.
//! 2. **Interrupted saves** — a `save_artifacts` that fails must never
//!    leave a half-written file where a previous one existed.

use std::sync::Arc;

use pcod::cod::recluster::build_hierarchy;
use pcod::cod::{save_artifacts, serialize_artifacts, MappedArtifacts};
use pcod::hierarchy::Hierarchy;
use pcod::prelude::*;
use rand::prelude::*;

/// A small but structurally interesting artifact set: two communities of
/// unequal size joined by a bridge, with a pendant fan, and attributes on
/// every node so that no section of the image is empty.
fn small_artifacts() -> (AttributedGraph, Dendrogram, HimorIndex) {
    let mut b = GraphBuilder::new(12);
    for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)] {
        b.add_edge(u, v);
    }
    b.add_edge(2, 3);
    for v in 7..12 {
        b.add_edge(6, v);
    }
    let mut names = pcod::graph::AttrInterner::new();
    let (db, ml) = (names.intern("DB"), names.intern("ML"));
    let lists = (0..12)
        .map(|v| match v {
            0..=2 => vec![db],
            3..=6 => vec![ml],
            _ => vec![db, ml],
        })
        .collect();
    let attrs = pcod::graph::AttrTable::from_lists(lists);
    let g = AttributedGraph::from_parts(b.build(), attrs, names);
    let dendro = build_hierarchy(g.csr(), Linkage::Average);
    let lca = LcaIndex::new(&dendro);
    let mut rng = SmallRng::seed_from_u64(77);
    let (seed, par) = (rng.next_u64(), Parallelism::Threads(1));
    let index = HimorIndex::build(
        g.csr(),
        Model::WeightedCascade,
        &dendro,
        &lca,
        20,
        seed,
        par,
        None,
    )
    .unwrap();
    (g, dendro, index)
}

/// The three artifacts of an opened image, or the first error.
type Decoded = (Arc<AttributedGraph>, Arc<Hierarchy>, Arc<HimorIndex>);

fn decode(image: Vec<u8>) -> CodResult<Decoded> {
    let arts = MappedArtifacts::from_vec(image)?;
    Ok((arts.graph()?, arts.hierarchy()?, arts.himor()?))
}

/// Whether a decoded artifact set equals the original, field by field.
fn same_artifacts(
    (g, h, i): &Decoded,
    g0: &AttributedGraph,
    d0: &Dendrogram,
    i0: &HimorIndex,
) -> bool {
    g.csr().raw_offsets() == g0.csr().raw_offsets()
        && g.csr().raw_neighbors() == g0.csr().raw_neighbors()
        && g.attrs().raw_offsets() == g0.attrs().raw_offsets()
        && g.attrs().raw_values() == g0.attrs().raw_values()
        && g.interner().len() == g0.interner().len()
        && h.dendro.merges() == d0.merges()
        && i.theta() == i0.theta()
        && (0..g0.num_nodes() as NodeId).all(|v| i.ranks_of(v) == i0.ranks_of(v))
}

#[test]
fn every_single_byte_flip_is_detected_as_corruption() {
    let (g, dendro, index) = small_artifacts();
    let image = serialize_artifacts(&g, &dendro, &index).unwrap();
    // Deterministic exhaustive fuzz: flip the low bit and all bits of every
    // byte. Each mutant must fail with IndexCorrupt — at open or at the
    // first access of the damaged section — with no panic and bounded
    // allocation throughout (corrupt length fields are checked against the
    // image size before any reservation). The one exception is the zero
    // padding that aligns sections: no CRC covers it and no reader looks at
    // it, so a flip there must decode to the original artifacts unchanged.
    let mut checked = 0usize;
    for pos in 0..image.len() {
        for delta in [0x01u8, 0xFF] {
            let mut mutant = image.clone();
            mutant[pos] ^= delta;
            match decode(mutant) {
                Err(CodError::IndexCorrupt(_)) => checked += 1,
                Err(other) => panic!("byte {pos} ^ {delta:#04x}: wrong error class: {other}"),
                Ok(decoded) => {
                    assert!(
                        same_artifacts(&decoded, &g, &dendro, &index),
                        "byte {pos} ^ {delta:#04x}: corruption changed an artifact"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, image.len() * 2);
}

#[test]
fn every_truncation_is_detected_as_corruption() {
    let (g, dendro, index) = small_artifacts();
    let image = serialize_artifacts(&g, &dendro, &index).unwrap();
    for len in 0..image.len() {
        match decode(image[..len].to_vec()) {
            Err(CodError::IndexCorrupt(_)) => {}
            Err(other) => panic!("prefix of {len}: wrong error class: {other}"),
            Ok(_) => panic!("prefix of {len} accepted"),
        }
    }
}

#[test]
fn interrupted_save_never_clobbers_the_previous_index() {
    let (g, dendro, index) = small_artifacts();
    // A target whose *temp sibling* exceeds NAME_MAX: creating the temp
    // file fails deterministically (works even as root, unlike permission
    // tricks), modelling a failure before any byte reaches the target.
    let dir = std::env::temp_dir().join(format!("cod_fault_atomic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join(format!("{}.codx", "x".repeat(245)));

    // Seed the previous file directly (save_artifacts would hit the same
    // injected failure).
    let image = serialize_artifacts(&g, &dendro, &index).unwrap();
    std::fs::write(&target, &image).unwrap();

    let err = save_artifacts(&target, &g, &dendro, &index).expect_err("temp creation must fail");
    assert!(matches!(err, CodError::Io(_)), "expected Io, got {err}");

    // The previous file is byte-identical and still loads.
    assert_eq!(std::fs::read(&target).unwrap(), image);
    let arts = MappedArtifacts::open(&target).unwrap();
    let decoded = (
        arts.graph().unwrap(),
        arts.hierarchy().unwrap(),
        arts.himor().unwrap(),
    );
    assert!(same_artifacts(&decoded, &g, &dendro, &index));
    drop((arts, decoded));

    // No temp debris left behind.
    let debris: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(debris.is_empty(), "leftover temp files: {debris:?}");

    std::fs::remove_file(&target).ok();
    std::fs::remove_dir(&dir).ok();
}
