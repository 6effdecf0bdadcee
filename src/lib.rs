//! # selfheal
//!
//! Facade crate for the self-healing reconfigurable-network workspace — a
//! full reproduction of *"Picking up the Pieces: Self-Healing in
//! Reconfigurable Networks"* (Saia & Trehan, IPPS 2008).
//!
//! Re-exports the workspace crates under short names and offers a
//! [`prelude`] for examples and downstream users:
//!
//! - [`graph`] — graph substrate (dynamic graphs, generators, components,
//!   shortest paths, parallel sweeps),
//! - [`sim`] — deterministic message-passing simulator,
//! - [`core`] — DASH/SDASH healing algorithms, attacks, engine,
//!   invariants,
//! - [`metrics`] — statistics, stretch, tables,
//! - [`experiments`] — the harness regenerating every figure of the paper,
//! - [`serve`] — healing-as-a-service: tenant shards behind a line
//!   protocol with snapshot queries that never wait on a heal.
//!
//! # Example
//! ```
//! use rand::SeedableRng;
//! use selfheal::prelude::*;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let graph = generators::barabasi_albert(64, 3, &mut rng);
//! let net = HealingNetwork::new(graph, 1);
//! // Any adversary is an event source; scripted schedules can mix
//! // Delete, DeleteBatch and Join events through the same engine.
//! let mut engine = ScenarioEngine::new(net, Dash, MaxNode).with_audit(AuditLevel::Cheap);
//! let report = engine.run_to_empty();
//! assert!(report.violations.is_empty());
//! assert_eq!(report.deletions, 64);
//! ```

pub use selfheal_core as core;
pub use selfheal_experiments as experiments;
pub use selfheal_graph as graph;
pub use selfheal_metrics as metrics;
pub use selfheal_serve as serve;
pub use selfheal_sim as sim;

/// Most-used items in one import.
pub mod prelude {
    pub use selfheal_core::attack::{
        Adversary, CutVertex, EpidemicChurn, FlashCrowd, MaxNode, MinDegree, NeighborOfMax,
        RackPartition, RandomAttack, Scripted,
    };
    pub use selfheal_core::dash::Dash;
    pub use selfheal_core::distributed::{DistributedDash, HealMode};
    pub use selfheal_core::distributed_runner::{
        DistEventRecord, DistScenarioReport, DistributedScenarioRunner,
    };
    pub use selfheal_core::exhaustive::{run_universe, SmallGraph, UniverseConfig, UniverseReport};
    pub use selfheal_core::explore::{
        check_seeded_orders, explore_events, ExplorerConfig, ExplorerReport,
    };
    pub use selfheal_core::ftree::ForgivingTree;
    pub use selfheal_core::invariants::{FamilyAuditor, TheoremAuditor, TheoremBounds};
    pub use selfheal_core::naive::{BinaryTreeHeal, GraphHeal, LineHeal, NoHeal};
    pub use selfheal_core::oracle::OracleDash;
    pub use selfheal_core::ring::RingForgiving;
    pub use selfheal_core::scenario::{
        AuditLevel, AuditObserver, DegreeBatches, EventKind, EventRecord, EventRef, EventSource,
        NetworkEvent, NullObserver, Observer, RandomChurn, RecordLog, ScenarioEngine,
        ScenarioReport, ScriptedEvents,
    };
    pub use selfheal_core::sdash::Sdash;
    pub use selfheal_core::spec::{
        AdversarySpec, AuditSpec, BackendSpec, CuratedSchedule, DynScenarioEngine, GraphSpec,
        HealerSpec, RunOptions, ScenarioSpec, SpecError, SpecOutcome,
    };
    pub use selfheal_core::state::HealingNetwork;
    pub use selfheal_core::strategy::Healer;
    pub use selfheal_core::sweep::{
        replay, run_sweep, SweepAdversary, SweepAggregate, SweepConfig,
    };
    pub use selfheal_graph::{generators, Graph, NodeId};
    pub use selfheal_serve::{Cluster, ShardSnapshot, SnapshotReader};
    pub use selfheal_sim::BatchSchedule;
}
