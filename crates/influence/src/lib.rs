//! Influence models and reverse-reachable (RR) estimation for COD.
//!
//! Implements the paper's §II-A influence machinery:
//!
//! * [`model::Model`] — the independent cascade model under the *weighted
//!   cascade* parametrization (`p(u, v) = 1/deg(v)`, the paper's §V-A
//!   default), a uniform-probability IC variant, and the linear threshold
//!   model (the paper's claimed extension, §II-A);
//! * [`rrgraph::RrView`] — an RR set *plus its activated edges*
//!   (Definition 2), supporting induced restriction to a community
//!   (Definition 3) and the possible-world coupling of Theorem 2;
//!   [`rrgraph::RrGraph`] is the buffer one draw fills, read as a view;
//! * [`arena::RrArena`] — many RR graphs in three flat arrays, read back
//!   as views: the one place samples are kept (the HIMOR patch state and
//!   the shared RR pools);
//! * [`sampler::RrSampler`] — RR-graph generation with reusable scratch
//!   space and no allocation per sample: one draw,
//!   [`sampler::RrSampler::sample_into`], optionally restricted to a
//!   community (the Independent baseline and chain universes);
//! * [`montecarlo`] — forward IC/LT simulation for ground-truth influence
//!   `σ_C(q)` (used for the paper's top-k precision measure, §V-C);
//! * [`estimate`] — RR-based influence and rank estimation on a whole graph
//!   or a single community.
//!
//! Influence of `q` in community `C` keeps the *original* edge probabilities
//! of `g` (Theorem 2 couples the community process to possible worlds of
//! `g`); only traversal is restricted to `C`.

pub mod arena;
pub mod cancel;
pub mod estimate;
pub mod model;
pub mod montecarlo;
pub mod parallel;
pub mod rrgraph;
pub mod sampler;
pub mod seed;

pub use arena::RrArena;
pub use cancel::CancelToken;
pub use estimate::{rank_in_members, InfluenceEstimate};
pub use model::Model;
pub use parallel::{par_ranges, Parallelism};
pub use rrgraph::{RrGraph, RrView};
pub use sampler::{RrSampler, SampleStats, SamplerScratch};
pub use seed::{splitmix64, SeedSequence};
