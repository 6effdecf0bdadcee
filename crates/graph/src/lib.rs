//! # selfheal-graph
//!
//! Graph substrate for the self-healing network workspace: a dynamic
//! undirected [`Graph`] with stable node ids and tombstoned deletion,
//! frozen [`Csr`] snapshots for fast sweeps, traversal / component /
//! shortest-path algorithms (serial and thread-parallel), and
//! deterministic and random graph generators.
//!
//! Everything is written from scratch on the standard library plus `rand`
//! (sampling); no external graph library is used.
//!
//! ## Quick tour
//! ```
//! use rand::SeedableRng;
//! use selfheal_graph::{generators, components, paths, NodeId};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut g = generators::barabasi_albert(64, 3, &mut rng);
//! assert!(components::is_connected(&g));
//!
//! let hub = g.max_degree_node().unwrap();
//! let victims = g.remove_node(hub).unwrap();
//! assert!(victims.len() >= 3);
//! assert_eq!(paths::distance(&g, hub, NodeId(0)), None); // hub is gone
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod components;
pub mod csr;
pub mod cuts;
pub mod errors;
pub mod forest;
pub mod generators;
mod graph;
pub mod ids;
pub mod parallel;
pub mod paths;
pub mod pool;
pub mod properties;
pub mod traversal;

pub use csr::{Csr, UNREACHABLE};
pub use errors::{GraphError, Result};
pub use graph::{Graph, GraphRead};
pub use ids::{Edge, NodeId};
