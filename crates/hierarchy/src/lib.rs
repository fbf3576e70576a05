//! Hierarchical agglomerative graph clustering and dendrogram utilities.
//!
//! The COD problem (paper §II) is defined over a *community hierarchy* `T`
//! produced by any hierarchical graph clustering method; following the
//! paper's §V-A we implement the **nearest-neighbour chain** algorithm
//! ([`nnchain`]) with the **unweighted-average linkage** function.
//!
//! The resulting [`Dendrogram`] offers exactly the operations the COD
//! algorithms need:
//!
//! * `H(q)` extraction — [`Dendrogram::root_path`] lists the ancestor
//!   communities of a node from deepest to the root;
//! * constant-time membership tests via DFS leaf intervals
//!   ([`Dendrogram::contains`]);
//! * constant-time lowest common ancestors via an Euler tour + sparse-table
//!   RMQ ([`lca::LcaIndex`], Bender et al. \[48\]);
//! * community sizes and depths with the paper's convention `dep(root) = 1`.

pub mod bisect;
pub mod dendrogram;
pub mod handle;
pub mod lca;
pub mod nnchain;
pub mod repair;

pub use bisect::bisect;
pub use dendrogram::{Dendrogram, DendrogramError, VertexId, NO_VERTEX};
pub use handle::Hierarchy;
pub use lca::LcaIndex;
pub use nnchain::{cluster, cluster_governed, cluster_unweighted, Merge};
pub use repair::{match_vertices, smallest_selected_ancestor, TreeDiff};
