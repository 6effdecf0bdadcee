//! # selfheal-core
//!
//! The paper's algorithms: **DASH** (Degree-Based Self-Healing,
//! Algorithm 1), **SDASH** (the surrogation heuristic, Algorithm 3), the
//! naive baselines of Section 4.3, the attack strategies of Section 4.2,
//! the LEVELATTACK lower-bound adversary of Theorem 2, and executable
//! versions of every lemma as invariant checks.
//!
//! From *"Picking up the Pieces: Self-Healing in Reconfigurable
//! Networks"*, Jared Saia & Amitabh Trehan, IPPS 2008.
//!
//! ## Quick start
//! ```
//! use rand::SeedableRng;
//! use selfheal_core::{attack::NeighborOfMax, dash::Dash,
//!                     scenario::{AuditLevel, ScenarioEngine},
//!                     state::HealingNetwork};
//! use selfheal_graph::generators::barabasi_albert;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = barabasi_albert(100, 3, &mut rng);
//! let net = HealingNetwork::new(g, 1);
//! // Any Adversary is an EventSource: its picks become Delete events.
//! let mut engine = ScenarioEngine::new(net, Dash, NeighborOfMax::new(1))
//!     .with_audit(AuditLevel::Cheap);
//! let report = engine.run_to_empty();
//! assert!(report.violations.is_empty());
//! assert!((report.max_delta_ever as f64) <= 2.0 * 100f64.log2());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attack;
pub mod batch;
pub mod dash;
pub mod distributed;
pub mod distributed_runner;
pub mod exhaustive;
pub mod explore;
pub mod ftree;
pub mod invariants;
pub mod levelattack;
pub mod naive;
pub mod oracle;
pub mod ring;
pub mod rt;
pub mod scenario;
pub mod sdash;
pub mod snapshot;
pub mod spec;
pub mod state;
pub mod strategy;
pub mod sweep;

pub use dash::Dash;
pub use distributed::{DistributedDash, HealMode};
pub use distributed_runner::{DistEventRecord, DistScenarioReport, DistributedScenarioRunner};
pub use exhaustive::{run_universe, SmallGraph, UniverseConfig, UniverseReport};
pub use explore::{check_seeded_orders, explore_events, ExplorerConfig, ExplorerReport};
pub use ftree::ForgivingTree;
pub use invariants::{FamilyAuditor, TheoremAuditor, TheoremBounds};
pub use ring::RingForgiving;
pub use scenario::{
    AuditLevel, EventRecord, EventRef, EventSource, NetworkEvent, Observer, ScenarioEngine,
    ScenarioReport,
};
pub use sdash::Sdash;
pub use snapshot::StateSnapshot;
pub use spec::{
    AdversarySpec, AuditSpec, BackendSpec, CuratedSchedule, DynScenarioEngine, GraphSpec,
    HealerSpec, RunOptions, ScenarioSpec, SpecError, SpecOutcome,
};
pub use state::HealingNetwork;
pub use strategy::{HealOutcome, Healer};
pub use sweep::{run_sweep, SweepAdversary, SweepAggregate, SweepConfig};
