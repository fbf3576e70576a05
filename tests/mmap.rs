//! Out-of-core artifact suite: CODX v3 persistence, memory-mapped
//! serving, lazy CRC verification, and version interop.
//!
//! The contract under test (see `cod_core::codx`): a CODX v3 file can be
//! memory-mapped and served **zero-copy** behind the same accessors the
//! in-RAM structs implement — answers from a mapped engine are
//! bit-identical to an engine over eagerly built artifacts; and
//! corruption is caught by per-section CRCs on first access (never a
//! panic, never a wrong answer).

use std::sync::{Arc, Mutex};

use pcod::cod::recluster::build_hierarchy;
use pcod::cod::{save_artifacts, serialize_artifacts, MappedArtifacts};
use pcod::prelude::*;
use rand::prelude::*;

/// The failpoint registry is process-global and one test below arms a
/// panic on the section-access site every other test drives, so the whole
/// suite serializes through this lock (same idiom as `tests/governance.rs`).
static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn dataset() -> pcod::datasets::Dataset {
    pcod::datasets::amazon_like_scaled(150, 9)
}

fn cfg() -> CodConfig {
    CodConfig {
        k: 3,
        theta: 12,
        parallelism: Parallelism::Threads(2),
        ..CodConfig::default()
    }
}

/// Graph + prebuilt artifacts, the same way the engine builds them.
fn build_artifacts(g: &AttributedGraph) -> (Dendrogram, HimorIndex) {
    let engine = CodEngine::new(g.clone(), cfg());
    let mut rng = SmallRng::seed_from_u64(4242);
    let base = engine.base_hierarchy();
    let index = engine.ensure_himor(&mut rng).expect("valid config");
    (base.dendro.clone(), (*index).clone())
}

fn workload(g: &AttributedGraph) -> Vec<Query> {
    let mut queries = Vec::new();
    for &q in &[0u32, 3, 17, 40, 77] {
        let attr = g.node_attrs(q).first().copied().unwrap_or(0);
        queries.push(Query::codu(q));
        queries.push(Query::new(q, attr, Method::Codr));
        queries.push(Query::new(q, attr, Method::CodlMinus));
        queries.push(Query::new(q, attr, Method::Codl));
    }
    queries
}

/// `(members, rank, uncertain)` projection of one answer — the equatable
/// core compared across engines.
type Projected = Option<(Vec<NodeId>, usize, bool)>;

fn comparable(results: Vec<CodResult<Option<CodAnswer>>>) -> Vec<Result<Projected, String>> {
    results
        .into_iter()
        .map(|r| {
            r.map(|opt| opt.map(|a| (a.members, a.rank, a.uncertain)))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Round-trip through a real file: every persisted structure survives
/// byte-exactly, mapped or eager.
#[test]
fn v3_file_round_trips_mapped_and_eager() {
    let _g = guard();
    let data = dataset();
    let g = &data.graph;
    let (dendro, index) = build_artifacts(g);
    let dir = std::env::temp_dir().join(format!("codx_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("arts.codx");
    save_artifacts(&path, g, &dendro, &index).expect("save");

    for (arts, label) in [
        (MappedArtifacts::open(&path).expect("open"), "mapped"),
        (MappedArtifacts::open_eager(&path).expect("eager"), "eager"),
    ] {
        assert_eq!(arts.num_nodes(), g.num_nodes(), "{label}: node count");
        let rg = arts.graph().expect("graph");
        assert_eq!(
            rg.csr().raw_offsets(),
            g.csr().raw_offsets(),
            "{label}: CSR offsets"
        );
        assert_eq!(
            rg.csr().raw_neighbors(),
            g.csr().raw_neighbors(),
            "{label}: CSR targets"
        );
        assert_eq!(
            rg.attrs().raw_values(),
            g.attrs().raw_values(),
            "{label}: attribute values"
        );
        let rh = arts.hierarchy().expect("hierarchy");
        assert_eq!(
            rh.dendro.merges(),
            dendro.merges(),
            "{label}: dendrogram merges"
        );
        let ri = arts.himor().expect("himor");
        assert_eq!(ri.num_nodes(), index.num_nodes(), "{label}: index nodes");
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(ri.ranks_of(v), index.ranks_of(v), "{label}: ranks of {v}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance gate: an engine over the memory mapping answers
/// bit-identically to an engine over eagerly built artifacts.
#[test]
fn mapped_engine_answers_match_eager_engine() {
    let _g = guard();
    let data = dataset();
    let g = &data.graph;
    let (dendro, index) = build_artifacts(g);
    let dir = std::env::temp_dir().join(format!("codx_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("arts.codx");
    save_artifacts(&path, g, &dendro, &index).expect("save");

    let queries = workload(g);
    let lca = LcaIndex::new(&dendro);
    let eager = CodEngine::from_parts(
        Arc::new(g.clone()),
        cfg(),
        Arc::new(pcod::hierarchy::Hierarchy { dendro, lca }),
        Arc::new(index),
    );
    let want = comparable(eager.query_batch(&queries, &mut SmallRng::seed_from_u64(0xC0DE)));
    assert!(want.iter().any(|r| matches!(r, Ok(Some(_)))));

    let arts = MappedArtifacts::open(&path).expect("open");
    assert!(arts.is_mapped(), "expected a live mapping on this platform");
    let mapped = CodEngine::from_mapped(&arts, cfg()).expect("engine");
    // The handle can drop — segments keep the mapping alive via Arc.
    drop(arts);
    let got = comparable(mapped.query_batch(&queries, &mut SmallRng::seed_from_u64(0xC0DE)));
    assert_eq!(got, want, "mapped answers diverged from eager answers");
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-section CRC is lazy: corruption inside one section passes `open`
/// (only the directory is validated), then surfaces as `IndexCorrupt` on
/// first access of that section — never a panic or a silently wrong read.
#[test]
fn corruption_is_caught_lazily_per_section() {
    let _g = guard();
    let data = dataset();
    let g = &data.graph;
    let (dendro, index) = build_artifacts(g);
    let bytes = serialize_artifacts(g, &dendro, &index).expect("serialize");

    // Flip one byte deep in the payload (well past header + directory).
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    let arts = MappedArtifacts::from_vec(corrupt).expect("open parses header + directory");
    // At least one artifact accessor must report the corruption; none may
    // panic or return wrong data silently (the CRC gates every section).
    let results = [
        arts.graph().err().map(|e| e.to_string()),
        arts.hierarchy().err().map(|e| e.to_string()),
        arts.himor().err().map(|e| e.to_string()),
    ];
    assert!(
        results.iter().flatten().any(|e| e.contains("corrupt")),
        "corrupted section went undetected: {results:?}"
    );

    // Whole-file truncation is caught at open by the footer check.
    let truncated = bytes[..bytes.len() - 9].to_vec();
    assert!(MappedArtifacts::from_vec(truncated).is_err());
}

/// The hierarchy built from a v3 file equals the one `build_hierarchy`
/// produces from the same graph (the file stores the merges verbatim).
#[test]
fn persisted_hierarchy_matches_rebuilt_hierarchy() {
    let _g = guard();
    let data = dataset();
    let g = &data.graph;
    let (dendro, index) = build_artifacts(g);
    let bytes = serialize_artifacts(g, &dendro, &index).expect("serialize");
    let arts = MappedArtifacts::from_vec(bytes).expect("open");
    let fresh = build_hierarchy(g.csr());
    assert_eq!(
        arts.hierarchy().expect("hierarchy").dendro.merges(),
        fresh.merges()
    );
}

/// Failpoint leg: `mmap_section` sits on the lazy CRC verification path.
/// A panic armed there is contained by the engine's plan isolation — the
/// batch still returns, queries on already-verified sections answer.
#[test]
fn mmap_section_failpoint_is_contained_by_the_engine() {
    let _g = guard();
    use pcod::cod::failpoint::{self, Action, Site};

    if !failpoint::compiled_in() {
        return; // release builds compile failpoints out
    }
    let data = dataset();
    let g = &data.graph;
    let (dendro, index) = build_artifacts(g);
    let bytes = serialize_artifacts(g, &dendro, &index).expect("serialize");

    // Arm *after* open so the header parse is clean, then panic on the
    // first section access.
    let arts = MappedArtifacts::from_vec(bytes).expect("open");
    failpoint::disarm_all();
    failpoint::arm(Site::MmapSection, Action::Panic);
    let contained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| arts.graph()));
    failpoint::disarm_all();
    assert!(
        contained.is_err(),
        "armed mmap_section failpoint did not fire"
    );
    // Disarmed, the same handle serves normally (lazy slots retry only if
    // the panic did not poison them — a fresh accessor must work).
    let rg = arts.graph().expect("graph after disarm");
    assert_eq!(rg.num_nodes(), g.num_nodes());
}
