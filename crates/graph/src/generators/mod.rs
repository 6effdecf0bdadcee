//! Random and deterministic graph generators.
//!
//! The paper's experiments run on Barabási–Albert preferential-attachment
//! graphs ([`barabasi_albert`]); the lower-bound construction needs
//! complete `(M+2)`-ary trees ([`kary::KaryTree`]); tests and extra
//! benchmarks use the rest. All random generators take a caller-supplied
//! `rand::Rng` so every experiment is seed-reproducible.
//!
//! A generator that only adds edges lists them first and builds the
//! graph in one pass with [`Graph::from_edges`]. Those that query the
//! graph while they build ([`erdos_renyi_gnm`], [`watts_strogatz`],
//! [`powerlaw_configuration`]) add edges one at a time instead.

mod ba;
mod classic;
mod er;
pub mod kary;
mod powerlaw;
mod trees;
mod ws;

pub use ba::barabasi_albert;
pub use classic::{complete_graph, cycle_graph, grid_graph, path_graph, star_graph};
pub use er::{erdos_renyi_gnm, erdos_renyi_gnp};
pub use kary::KaryTree;
pub use powerlaw::powerlaw_configuration;
pub use trees::{preferential_attachment_tree, random_recursive_tree};
pub use ws::watts_strogatz;

use crate::graph::Graph;
use crate::ids::NodeId;

/// A generator's graph over `n` nodes from its edge list.
fn from_generated(n: usize, edges: &[[NodeId; 2]]) -> Graph {
    Graph::from_edges(n, edges)
        // panic-ok: each generator's loop emits ids below `n`, two
        // distinct endpoints per edge and no edge twice.
        .expect("generated edge list is simple")
}
