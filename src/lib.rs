//! # pcod — personalized characteristic community discovery
//!
//! A Rust implementation of *"Discovering Personalized Characteristic
//! Communities in Attributed Graphs"* (ICDE 2024): given a query node `q`
//! and a query attribute `ℓ_q` in an attributed graph, find the **largest
//! community in which `q` is one of the top-`k` influential nodes** under
//! the independent cascade model.
//!
//! ## Quick start
//!
//! ```
//! use pcod::prelude::*;
//! use rand::prelude::*;
//!
//! // The paper's running example (Fig. 2 graph + Fig. 5 attributes).
//! let data = pcod::datasets::paper_example();
//! let g = &data.graph;
//! let db = g.interner().get("DB").unwrap();
//!
//! // One engine serves all four methods (CODU, CODR, CODL⁻, CODL) from
//! // shared artifacts; the first CODL query builds the HIMOR index.
//! let cfg = CodConfig { k: 1, theta: 200, ..CodConfig::default() };
//! let engine = CodEngine::new(g.clone(), cfg);
//! let mut rng = SmallRng::seed_from_u64(42);
//!
//! // Fully optimized CODL: LORE local reclustering + HIMOR index. `query`
//! // returns `CodResult<Option<CodAnswer>>`: `Err` for invalid input
//! // (including θ·|V| overflowing `usize`), `Ok(None)` when no community
//! // qualifies.
//! let query = Query::new(0, db, Method::Codl);
//! if let Some(answer) = engine.query(query, &mut rng).unwrap() {
//!     assert!(answer.members.contains(&0));
//!     assert!(answer.rank <= 1);
//! }
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | CSR attributed graphs, builders, generators, measures |
//! | [`hierarchy`] | NN-chain agglomerative clustering, dendrograms, O(1) LCA |
//! | [`influence`] | IC/LT models, RR graphs, estimators, Monte-Carlo truth |
//! | [`cod`] | compressed COD evaluation, LORE, HIMOR, the query engine, CODX v3 |
//! | [`search`] | ACQ / ATC / CAC community-search baselines |
//! | [`datasets`] | Table-I dataset presets and query workloads |
//! | [`serve`] | std-only HTTP serving tier with drain + load shedding |

pub use cod_core as cod;
pub use cod_datasets as datasets;
pub use cod_graph as graph;
pub use cod_hierarchy as hierarchy;
pub use cod_influence as influence;
pub use cod_search as search;
pub use cod_serve as serve;

/// The most common imports for COD applications.
pub mod prelude {
    pub use cod_core::{
        CacheOutcome, CacheStats, Chain, CodAnswer, CodConfig, CodEngine, CodError, CodResult,
        ComposedChain, Counter, DendroChain, HimorIndex, Method, MetricsSnapshot, Phase, Query,
        QueryLimits, QueryScratch, QueryTrace,
    };
    pub use cod_graph::{AttrId, AttributedGraph, Csr, GraphBuilder, NodeId};
    pub use cod_hierarchy::{Dendrogram, LcaIndex, Linkage};
    pub use cod_influence::{CancelToken, Model, Parallelism, RrSampler, SeedSequence};
}
