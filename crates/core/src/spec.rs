//! The declarative scenario layer: one spec, one registry, any backend.
//!
//! Every layer of this workspace consumes the same four ingredients — a
//! starting graph, a healing strategy, an adversarial event source, and
//! an execution backend — but before this module each layer named them
//! its own way (`experiments::config::HealerKind`, `core::sweep`'s
//! healer enum, `core::distributed::HealMode`, hand-wired constructors in
//! every example and test). [`ScenarioSpec`] is the single front door:
//!
//! - [`GraphSpec`] — the generator registry (`ba(64, 3)`, `gnm(50, 120)`,
//!   `ws(64, 4, 0.1)`, `path`/`cycle`/`star`/`complete`/`grid`);
//! - [`HealerSpec`] — the canonical healer registry (all eight
//!   strategies; [`HealerSpec::build`] constructs,
//!   [`HealerSpec::heal_mode`] maps the fabric-capable strategies onto
//!   [`HealMode`] and reports [`SpecError::FabricUnsupported`] — naming
//!   both the healer and the requested backend — for the rest);
//! - [`AdversarySpec`] — every event source in [`crate::attack`] and
//!   [`crate::scenario`], plus the [`CuratedSchedule`] registry of
//!   hand-curated mixed schedules the parity suites replay;
//! - [`BackendSpec`] — centralized [`ScenarioEngine`], the distributed
//!   fabric ([`DistributedScenarioRunner`]), or the paired parity twin;
//! - [`AuditSpec`] — per-event invariant checking up to the full
//!   [`TheoremAuditor`](crate::invariants::TheoremAuditor).
//!
//! Specs have a stable, line-oriented `key = value` text form, hand-rolled
//! so the workspace needs no serialization library.
//! [`ScenarioSpec::parse`] and [`Display`](fmt::Display) round-trip
//! exactly — `parse(to_string(spec)) == spec` is property-tested over
//! the whole registry product — and the checked-in
//! `specs/*.scn` files are parsed, validated and quick-run by
//! `make spec-check`. One seed parameterizes everything (graph
//! generation, ID permutation, adversary streams); sources derive
//! private tagged RNG streams, so a spec plus its seed *is* the run.
//!
//! ```text
//! # specs/rack_partition.scn
//! graph = ba(64, 3)
//! healer = dash
//! adversary = rack-partition(4)
//! seed = 2008
//! audit = theorems
//! backend = parity
//! max-events = 0
//! ```
//!
//! ```
//! use selfheal_core::spec::ScenarioSpec;
//!
//! let spec: ScenarioSpec = "graph = ba(32, 3)\nhealer = sdash\n\
//!                           adversary = epidemic-churn(0.25)\nseed = 7"
//!     .parse()
//!     .unwrap();
//! assert_eq!(spec.to_string().parse::<ScenarioSpec>().unwrap(), spec);
//! let outcome = spec.run().unwrap();
//! assert!(outcome.is_clean(), "{:?}", outcome.violations);
//! ```

use crate::distributed::HealMode;
use crate::distributed_runner::{DistEventRecord, DistScenarioReport, DistributedScenarioRunner};
use crate::explore::{explore_events, ExplorerConfig};
use crate::invariants::Findings;
use crate::scenario::{
    AuditLevel, EventRecord, EventSource, NetworkEvent, NullObserver, RecordLog, ScenarioEngine,
    ScenarioReport, ScriptedEvents,
};
use crate::state::HealingNetwork;
use crate::strategy::Healer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_graph::{generators, Graph, NodeId};
use selfheal_metrics::StretchBaseline;
use std::fmt;
use std::str::FromStr;

/// A fully dynamic engine — registry-built boxed healer driving a
/// registry-built boxed event source (what [`ScenarioSpec::build_engine`]
/// returns).
pub type DynScenarioEngine = ScenarioEngine<Box<dyn Healer>, Box<dyn EventSource>>;

/// Everything that can go wrong turning a spec into a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A line of spec text could not be parsed.
    Parse {
        /// 1-based line number in the spec text.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// A required key was never given.
    MissingKey(&'static str),
    /// The spec parsed but names an impossible configuration.
    Invalid(String),
    /// The named healer has no distributed-fabric implementation, so it
    /// cannot drive the `distributed`, `parity` or `explorer` backends.
    FabricUnsupported {
        /// The healer's stable name.
        healer: &'static str,
        /// The requested backend's stable name.
        backend: &'static str,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { line, msg } => write!(f, "spec line {line}: {msg}"),
            SpecError::MissingKey(key) => write!(f, "spec is missing required key '{key}'"),
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
            SpecError::FabricUnsupported { healer, backend } => write!(
                f,
                "healer '{healer}' has no distributed-fabric implementation \
                 (backend = {backend} unsupported; only dash, sdash and ftree \
                 run on the sim backend); use backend = centralized"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Split a `name` or `name(arg, arg, ...)` value into its parts.
fn parse_call(value: &str) -> Result<(&str, Vec<&str>), String> {
    let value = value.trim();
    let Some(open) = value.find('(') else {
        if value.contains(')') {
            return Err(format!("unbalanced ')' in '{value}'"));
        }
        return Ok((value, Vec::new()));
    };
    let name = value[..open].trim();
    let rest = &value[open + 1..];
    let Some(close) = rest.rfind(')') else {
        return Err(format!("missing ')' in '{value}'"));
    };
    if !rest[close + 1..].trim().is_empty() {
        return Err(format!("trailing text after ')' in '{value}'"));
    }
    let inner = rest[..close].trim();
    if inner.is_empty() {
        return Err(format!("'{name}()' has an empty argument list"));
    }
    Ok((name, inner.split(',').map(str::trim).collect()))
}

fn expect_args(name: &str, args: &[&str], want: usize) -> Result<(), String> {
    if args.len() == want {
        Ok(())
    } else {
        Err(format!(
            "'{name}' takes {want} argument(s), got {}",
            args.len()
        ))
    }
}

fn arg_usize(name: &str, what: &str, arg: &str) -> Result<usize, String> {
    arg.parse()
        .map_err(|_| format!("'{name}': {what} must be an unsigned integer, got '{arg}'"))
}

fn arg_f64(name: &str, what: &str, arg: &str) -> Result<f64, String> {
    arg.parse()
        .map_err(|_| format!("'{name}': {what} must be a number, got '{arg}'"))
}

/// The initial-graph registry. Random generators consume the scenario
/// seed through their own `StdRng`, so a spec plus a seed pins the exact
/// starting topology.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphSpec {
    /// `ba(n, m)` — Barabási–Albert preferential attachment (the paper's
    /// experiment workload).
    BarabasiAlbert {
        /// Nodes.
        n: usize,
        /// Edges per arriving node.
        m: usize,
    },
    /// `gnm(n, m)` — Erdős–Rényi with exactly `m` uniform edges.
    ErdosRenyiGnm {
        /// Nodes.
        n: usize,
        /// Edges.
        m: usize,
    },
    /// `ws(n, k, beta)` — Watts–Strogatz small world.
    WattsStrogatz {
        /// Nodes.
        n: usize,
        /// Nearest-neighbor ring degree (even).
        k: usize,
        /// Rewiring probability.
        beta: f64,
    },
    /// `path(n)`.
    Path {
        /// Nodes.
        n: usize,
    },
    /// `cycle(n)`.
    Cycle {
        /// Nodes.
        n: usize,
    },
    /// `star(n)` — node 0 is the hub.
    Star {
        /// Nodes (hub + `n - 1` spokes).
        n: usize,
    },
    /// `complete(n)`.
    Complete {
        /// Nodes.
        n: usize,
    },
    /// `grid(rows, cols)`.
    Grid {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
}

impl GraphSpec {
    /// Number of nodes the built graph will have. Meaningful only for a
    /// spec that passed [`GraphSpec::validate`], which rejects a `grid`
    /// whose node count overflows `usize`.
    pub fn node_count(&self) -> usize {
        match *self {
            GraphSpec::BarabasiAlbert { n, .. }
            | GraphSpec::ErdosRenyiGnm { n, .. }
            | GraphSpec::WattsStrogatz { n, .. }
            | GraphSpec::Path { n }
            | GraphSpec::Cycle { n }
            | GraphSpec::Star { n }
            | GraphSpec::Complete { n } => n,
            GraphSpec::Grid { rows, cols } => rows * cols,
        }
    }

    /// Check the generator's own parameter preconditions, so building a
    /// validated spec can never panic inside a generator.
    pub fn validate(&self) -> Result<(), SpecError> {
        let fail = |msg: String| Err(SpecError::Invalid(msg));
        match *self {
            GraphSpec::BarabasiAlbert { n, m } => {
                if m < 1 || n <= m {
                    return fail(format!("ba({n}, {m}) needs m >= 1 and n > m"));
                }
            }
            GraphSpec::ErdosRenyiGnm { n, m } => {
                let possible = n.saturating_mul(n.saturating_sub(1)) / 2;
                if n == 0 || m > possible {
                    return fail(format!(
                        "gnm({n}, {m}) needs n >= 1 and at most {possible} edges"
                    ));
                }
            }
            GraphSpec::WattsStrogatz { n, k, beta } => {
                if k % 2 != 0 || k >= n || !(0.0..=1.0).contains(&beta) {
                    return fail(format!(
                        "ws({n}, {k}, {beta}) needs even k < n and beta in [0, 1]"
                    ));
                }
            }
            GraphSpec::Grid { rows, cols } => {
                if rows == 0 || cols == 0 {
                    return fail(format!("grid({rows}, {cols}) must be non-empty"));
                }
                if rows.checked_mul(cols).is_none() {
                    return fail(format!("grid({rows}, {cols}) has too many nodes"));
                }
            }
            GraphSpec::Path { n }
            | GraphSpec::Cycle { n }
            | GraphSpec::Star { n }
            | GraphSpec::Complete { n } => {
                if n == 0 {
                    return fail("graph must have at least one node".to_string());
                }
            }
        }
        Ok(())
    }

    /// Build the initial graph for `seed`.
    pub fn build(&self, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            GraphSpec::BarabasiAlbert { n, m } => generators::barabasi_albert(n, m, &mut rng),
            GraphSpec::ErdosRenyiGnm { n, m } => generators::erdos_renyi_gnm(n, m, &mut rng),
            GraphSpec::WattsStrogatz { n, k, beta } => {
                generators::watts_strogatz(n, k, beta, &mut rng)
            }
            GraphSpec::Path { n } => generators::path_graph(n),
            GraphSpec::Cycle { n } => generators::cycle_graph(n),
            GraphSpec::Star { n } => generators::star_graph(n),
            GraphSpec::Complete { n } => generators::complete_graph(n),
            GraphSpec::Grid { rows, cols } => generators::grid_graph(rows, cols),
        }
    }

    /// Parse the `name(args)` form (the inverse of [`Display`](fmt::Display)).
    pub fn parse(value: &str) -> Result<GraphSpec, String> {
        let (name, args) = parse_call(value)?;
        match name {
            "ba" => {
                expect_args(name, &args, 2)?;
                Ok(GraphSpec::BarabasiAlbert {
                    n: arg_usize(name, "n", args[0])?,
                    m: arg_usize(name, "m", args[1])?,
                })
            }
            "gnm" => {
                expect_args(name, &args, 2)?;
                Ok(GraphSpec::ErdosRenyiGnm {
                    n: arg_usize(name, "n", args[0])?,
                    m: arg_usize(name, "m", args[1])?,
                })
            }
            "ws" => {
                expect_args(name, &args, 3)?;
                Ok(GraphSpec::WattsStrogatz {
                    n: arg_usize(name, "n", args[0])?,
                    k: arg_usize(name, "k", args[1])?,
                    beta: arg_f64(name, "beta", args[2])?,
                })
            }
            "path" | "cycle" | "star" | "complete" => {
                expect_args(name, &args, 1)?;
                let n = arg_usize(name, "n", args[0])?;
                Ok(match name {
                    "path" => GraphSpec::Path { n },
                    "cycle" => GraphSpec::Cycle { n },
                    "star" => GraphSpec::Star { n },
                    _ => GraphSpec::Complete { n },
                })
            }
            "grid" => {
                expect_args(name, &args, 2)?;
                Ok(GraphSpec::Grid {
                    rows: arg_usize(name, "rows", args[0])?,
                    cols: arg_usize(name, "cols", args[1])?,
                })
            }
            other => Err(format!("unknown graph generator '{other}'")),
        }
    }
}

impl fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphSpec::BarabasiAlbert { n, m } => write!(f, "ba({n}, {m})"),
            GraphSpec::ErdosRenyiGnm { n, m } => write!(f, "gnm({n}, {m})"),
            GraphSpec::WattsStrogatz { n, k, beta } => write!(f, "ws({n}, {k}, {beta})"),
            GraphSpec::Path { n } => write!(f, "path({n})"),
            GraphSpec::Cycle { n } => write!(f, "cycle({n})"),
            GraphSpec::Star { n } => write!(f, "star({n})"),
            GraphSpec::Complete { n } => write!(f, "complete({n})"),
            GraphSpec::Grid { rows, cols } => write!(f, "grid({rows}, {cols})"),
        }
    }
}

/// The canonical healer registry — the *one* place a strategy name maps
/// to a constructor. The experiment harness and the sweep fleet consume
/// it directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealerSpec {
    /// Algorithm 1 (Degree-Based Self-Healing).
    Dash,
    /// Algorithm 3 (surrogation).
    Sdash,
    /// Naive binary tree over all neighbors (cycles allowed).
    GraphHeal,
    /// Component-aware, degree-oblivious binary tree.
    BinaryTreeHeal,
    /// Component-aware line (the refs [5, 6] baseline).
    LineHeal,
    /// Control: no healing.
    NoHeal,
    /// Heir-rooted reconnection trees (Trehan's dissertation, Ch. 4):
    /// ≤ 3 new edges per survivor per adjacent deletion, O(log n)
    /// stretch. Fabric-capable.
    ForgivingTree,
    /// `ring(budget)` — cycle plus halving-stride chords under a
    /// per-node budget (the Hayashi-style ring-enhancement family).
    /// Centralized-only.
    RingForgiving {
        /// Chord rounds per heal (≤ `2 + budget` new edges per survivor
        /// per adjacent deletion).
        budget: usize,
    },
}

impl HealerSpec {
    /// Every healer, in registry order. The parameterized
    /// [`RingForgiving`](HealerSpec::RingForgiving) entry carries its
    /// canonical default budget.
    pub const ALL: [HealerSpec; 8] = [
        HealerSpec::Dash,
        HealerSpec::Sdash,
        HealerSpec::GraphHeal,
        HealerSpec::BinaryTreeHeal,
        HealerSpec::LineHeal,
        HealerSpec::NoHeal,
        HealerSpec::ForgivingTree,
        HealerSpec::RingForgiving {
            budget: crate::ring::RingForgiving::DEFAULT_BUDGET,
        },
    ];

    /// The strategies the paper's figures compare (everything but NoHeal).
    pub fn figure_set() -> [HealerSpec; 5] {
        [
            HealerSpec::Dash,
            HealerSpec::Sdash,
            HealerSpec::GraphHeal,
            HealerSpec::BinaryTreeHeal,
            HealerSpec::LineHeal,
        ]
    }

    /// Stable display name (matches [`Healer::name`]).
    pub fn name(self) -> &'static str {
        match self {
            HealerSpec::Dash => "dash",
            HealerSpec::Sdash => "sdash",
            HealerSpec::GraphHeal => "graph-heal",
            HealerSpec::BinaryTreeHeal => "bintree-heal",
            HealerSpec::LineHeal => "line-heal",
            HealerSpec::NoHeal => "no-heal",
            HealerSpec::ForgivingTree => "ftree",
            HealerSpec::RingForgiving { .. } => "ring",
        }
    }

    /// Parse a display name (or the `ring(budget)` call form; a bare
    /// `ring` resolves to the registry's canonical default budget).
    pub fn parse(value: &str) -> Option<HealerSpec> {
        let (name, args) = parse_call(value).ok()?;
        match (name, args.as_slice()) {
            ("ring", [budget]) => budget
                .parse()
                .ok()
                .map(|budget| HealerSpec::RingForgiving { budget }),
            (_, []) => HealerSpec::ALL.into_iter().find(|h| h.name() == name),
            _ => None,
        }
    }

    /// Instantiate the strategy.
    pub fn build(self) -> Box<dyn Healer> {
        match self {
            HealerSpec::Dash => Box::new(crate::dash::Dash),
            HealerSpec::Sdash => Box::new(crate::sdash::Sdash),
            HealerSpec::GraphHeal => Box::new(crate::naive::GraphHeal),
            HealerSpec::BinaryTreeHeal => Box::new(crate::naive::BinaryTreeHeal),
            HealerSpec::LineHeal => Box::new(crate::naive::LineHeal),
            HealerSpec::NoHeal => Box::new(crate::naive::NoHeal),
            HealerSpec::ForgivingTree => Box::new(crate::ftree::ForgivingTree),
            HealerSpec::RingForgiving { budget } => Box::new(crate::ring::RingForgiving { budget }),
        }
    }

    /// The distributed-fabric mode for this healer on the given backend.
    /// Only DASH, SDASH and ForgivingTree exist as message-passing
    /// protocols; every other strategy is centralized-only and reports
    /// [`SpecError::FabricUnsupported`], naming both the healer and the
    /// backend the caller asked for.
    pub fn heal_mode(self, backend: BackendSpec) -> Result<HealMode, SpecError> {
        match self {
            HealerSpec::Dash => Ok(HealMode::Dash),
            HealerSpec::Sdash => Ok(HealMode::Sdash),
            HealerSpec::ForgivingTree => Ok(HealMode::ForgivingTree),
            other => Err(SpecError::FabricUnsupported {
                healer: other.name(),
                backend: backend.name(),
            }),
        }
    }
}

impl fmt::Display for HealerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HealerSpec::RingForgiving { budget } => write!(f, "ring({budget})"),
            plain => f.write_str(plain.name()),
        }
    }
}

/// Hand-curated mixed schedules (simultaneous batches, joins, stale
/// references), promoted from the parity suites into the registry so a
/// spec can replay them by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CuratedSchedule {
    /// The parity acceptance schedule: two interleaved batches, joins in
    /// between, stale references throughout (sized for ~32 nodes).
    MixedAcceptance,
    /// Maximal-independent-set batches on a cycle, then churn (12 nodes).
    CycleBatches,
    /// Hub deletion + batches on a star — stresses surrogation (16 nodes).
    StarBatches,
    /// Eight join/delete pairs then one wide batch (24+ nodes).
    JoinChurn,
}

impl CuratedSchedule {
    /// Every curated schedule, in registry order.
    pub const ALL: [CuratedSchedule; 4] = [
        CuratedSchedule::MixedAcceptance,
        CuratedSchedule::CycleBatches,
        CuratedSchedule::StarBatches,
        CuratedSchedule::JoinChurn,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CuratedSchedule::MixedAcceptance => "mixed-acceptance",
            CuratedSchedule::CycleBatches => "cycle-batches",
            CuratedSchedule::StarBatches => "star-batches",
            CuratedSchedule::JoinChurn => "join-churn",
        }
    }

    /// Parse a display name.
    pub fn parse(name: &str) -> Option<CuratedSchedule> {
        CuratedSchedule::ALL.into_iter().find(|c| c.name() == name)
    }

    /// The fixed event schedule (engine sanitization makes stale
    /// references harmless on undersized graphs).
    pub fn events(self) -> Vec<NetworkEvent> {
        let id = NodeId;
        match self {
            CuratedSchedule::MixedAcceptance => vec![
                NetworkEvent::DeleteBatch(vec![id(0), id(4), id(9), id(4)]),
                NetworkEvent::Join {
                    neighbors: vec![id(2), id(7), id(0)], // 0 is dead by now
                },
                NetworkEvent::Delete(id(11)),
                NetworkEvent::DeleteBatch(vec![id(2), id(6), id(13), id(9)]),
                NetworkEvent::Delete(id(0)), // stale: no-op on both sides
                NetworkEvent::Join {
                    neighbors: vec![id(3)],
                },
                NetworkEvent::DeleteBatch(vec![id(1), id(8)]),
            ],
            CuratedSchedule::CycleBatches => vec![
                NetworkEvent::DeleteBatch((0..12).step_by(2).map(NodeId).collect()),
                NetworkEvent::Join {
                    neighbors: vec![id(1), id(7)],
                },
                NetworkEvent::DeleteBatch(vec![id(1), id(5), id(9)]),
            ],
            CuratedSchedule::StarBatches => vec![
                NetworkEvent::Delete(id(0)),
                NetworkEvent::DeleteBatch(vec![id(3), id(5), id(11)]),
                NetworkEvent::Join {
                    neighbors: vec![id(1), id(2)],
                },
                NetworkEvent::DeleteBatch(vec![id(1), id(7)]),
            ],
            CuratedSchedule::JoinChurn => {
                let mut schedule = Vec::new();
                for i in 0..8u32 {
                    schedule.push(NetworkEvent::Join {
                        neighbors: vec![id(i), id(i + 2), id(i + 20)],
                    });
                    schedule.push(NetworkEvent::Delete(id(2 * i)));
                }
                schedule.push(NetworkEvent::DeleteBatch((24..36).map(NodeId).collect()));
                schedule
            }
        }
    }
}

impl fmt::Display for CuratedSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The adversary registry: every event source the workspace knows how to
/// build, from the paper's single-victim attacks through the structural
/// event-level library to curated replay schedules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdversarySpec {
    /// Delete the current maximum-degree node.
    MaxNode,
    /// Delete a random neighbor of the maximum-degree node (NMS).
    NeighborOfMax,
    /// Delete a uniformly random live node.
    Random,
    /// Delete the current minimum-degree node.
    MinDegree,
    /// Delete the highest-degree articulation point.
    CutVertex,
    /// Mixed join/targeted-delete churn (`random-churn`).
    RandomChurn,
    /// `epidemic-churn(p)` — failures spread along edges with
    /// per-edge probability `p`.
    EpidemicChurn {
        /// Per-edge spread probability per event.
        p: f64,
    },
    /// `flash-crowd(joins, burst)` — join bursts onto the hub, hub kills
    /// between bursts, drain after the budget.
    FlashCrowd {
        /// Total join budget.
        joins: usize,
        /// Joins per burst.
        burst: usize,
    },
    /// `rack-partition(rack_size)` — coordinated batch kills of shuffled
    /// racks.
    RackPartition {
        /// Nodes per rack.
        rack_size: usize,
    },
    /// `degree-batches(k)` — batches of up to `k` independent victims by
    /// descending degree.
    DegreeBatches {
        /// Maximum victims per batch.
        k: usize,
    },
    /// `curated(name)` — replay a [`CuratedSchedule`] verbatim.
    Curated(CuratedSchedule),
}

impl AdversarySpec {
    /// Stable display name (matches the built source's name where the
    /// source has one).
    pub fn name(self) -> &'static str {
        match self {
            AdversarySpec::MaxNode => "max-node",
            AdversarySpec::NeighborOfMax => "neighbor-of-max",
            AdversarySpec::Random => "random",
            AdversarySpec::MinDegree => "min-degree",
            AdversarySpec::CutVertex => "cut-vertex",
            AdversarySpec::RandomChurn => "random-churn",
            AdversarySpec::EpidemicChurn { .. } => "epidemic-churn",
            AdversarySpec::FlashCrowd { .. } => "flash-crowd",
            AdversarySpec::RackPartition { .. } => "rack-partition",
            AdversarySpec::DegreeBatches { .. } => "degree-batches",
            AdversarySpec::Curated(_) => "curated",
        }
    }

    /// Check parameter sanity without building.
    pub fn validate(&self) -> Result<(), SpecError> {
        let fail = |msg: String| Err(SpecError::Invalid(msg));
        match *self {
            AdversarySpec::EpidemicChurn { p } if !(0.0..=1.0).contains(&p) => {
                fail(format!("epidemic-churn({p}): p must be in [0, 1]"))
            }
            AdversarySpec::FlashCrowd { burst: 0, .. } => {
                fail("flash-crowd: burst must be >= 1".to_string())
            }
            AdversarySpec::RackPartition { rack_size: 0 } => {
                fail("rack-partition: rack size must be >= 1".to_string())
            }
            AdversarySpec::DegreeBatches { k: 0 } => {
                fail("degree-batches: k must be >= 1".to_string())
            }
            _ => Ok(()),
        }
    }

    /// Build the event source. Stochastic sources derive their private
    /// tagged RNG stream from `seed` (see
    /// [`source_stream`](crate::scenario) notes in `core::scenario`), so
    /// the same seed replays the same schedule.
    pub fn build(self, seed: u64) -> Box<dyn EventSource> {
        match self {
            AdversarySpec::MaxNode => Box::new(crate::attack::MaxNode),
            AdversarySpec::NeighborOfMax => Box::new(crate::attack::NeighborOfMax::new(seed)),
            AdversarySpec::Random => Box::new(crate::attack::RandomAttack::new(seed)),
            AdversarySpec::MinDegree => Box::new(crate::attack::MinDegree),
            AdversarySpec::CutVertex => Box::new(crate::attack::CutVertex),
            AdversarySpec::RandomChurn => Box::new(crate::scenario::RandomChurn::new(seed)),
            AdversarySpec::EpidemicChurn { p } => {
                Box::new(crate::attack::EpidemicChurn::new(seed, p))
            }
            AdversarySpec::FlashCrowd { joins, burst } => {
                Box::new(crate::attack::FlashCrowd::new(seed, joins, burst))
            }
            AdversarySpec::RackPartition { rack_size } => {
                Box::new(crate::attack::RackPartition::new(seed, rack_size))
            }
            AdversarySpec::DegreeBatches { k } => Box::new(crate::scenario::DegreeBatches::new(k)),
            AdversarySpec::Curated(c) => Box::new(ScriptedEvents::new(c.events())),
        }
    }

    /// Parse the `name(args)` form (the inverse of [`Display`](fmt::Display)).
    pub fn parse(value: &str) -> Result<AdversarySpec, String> {
        let (name, args) = parse_call(value)?;
        match name {
            "max-node" | "neighbor-of-max" | "random" | "min-degree" | "cut-vertex"
            | "random-churn" => {
                expect_args(name, &args, 0)?;
                Ok(match name {
                    "max-node" => AdversarySpec::MaxNode,
                    "neighbor-of-max" => AdversarySpec::NeighborOfMax,
                    "random" => AdversarySpec::Random,
                    "min-degree" => AdversarySpec::MinDegree,
                    "cut-vertex" => AdversarySpec::CutVertex,
                    _ => AdversarySpec::RandomChurn,
                })
            }
            "epidemic-churn" => {
                expect_args(name, &args, 1)?;
                Ok(AdversarySpec::EpidemicChurn {
                    p: arg_f64(name, "p", args[0])?,
                })
            }
            "flash-crowd" => {
                expect_args(name, &args, 2)?;
                Ok(AdversarySpec::FlashCrowd {
                    joins: arg_usize(name, "joins", args[0])?,
                    burst: arg_usize(name, "burst", args[1])?,
                })
            }
            "rack-partition" => {
                expect_args(name, &args, 1)?;
                Ok(AdversarySpec::RackPartition {
                    rack_size: arg_usize(name, "rack size", args[0])?,
                })
            }
            "degree-batches" => {
                expect_args(name, &args, 1)?;
                Ok(AdversarySpec::DegreeBatches {
                    k: arg_usize(name, "k", args[0])?,
                })
            }
            "curated" => {
                expect_args(name, &args, 1)?;
                CuratedSchedule::parse(args[0])
                    .map(AdversarySpec::Curated)
                    .ok_or_else(|| format!("unknown curated schedule '{}'", args[0]))
            }
            other => Err(format!("unknown adversary '{other}'")),
        }
    }
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AdversarySpec::EpidemicChurn { p } => write!(f, "epidemic-churn({p})"),
            AdversarySpec::FlashCrowd { joins, burst } => {
                write!(f, "flash-crowd({joins}, {burst})")
            }
            AdversarySpec::RackPartition { rack_size } => write!(f, "rack-partition({rack_size})"),
            AdversarySpec::DegreeBatches { k } => write!(f, "degree-batches({k})"),
            AdversarySpec::Curated(c) => write!(f, "curated({c})"),
            plain => f.write_str(plain.name()),
        }
    }
}

/// What to check after every event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AuditSpec {
    /// No checking.
    Off,
    /// Engine-level invariant checks, O(n) per event
    /// ([`AuditLevel::Cheap`]).
    #[default]
    Cheap,
    /// Engine-level checks including the O(n²) `rem` potential
    /// ([`AuditLevel::Full`]).
    Full,
    /// The full [`TheoremAuditor`](crate::invariants::TheoremAuditor):
    /// every Theorem 1 bound enforced per event plus the
    /// amortized-latency check at the end of the run
    /// ([`AuditLevel::Theorems`]).
    Theorems,
    /// The exhaustive small-world prover
    /// ([`run_universe`](crate::exhaustive::run_universe)): instead of
    /// playing the spec's adversary, sweep **every** connected graph up
    /// to the spec graph's node count under every deletion order (plus
    /// representative batch partitions), auditing each run with the
    /// per-healer theorem profile. Requires `node_count <= 7` and the
    /// centralized backend.
    Exhaustive,
}

impl AuditSpec {
    /// Every level, in registry order.
    pub const ALL: [AuditSpec; 5] = [
        AuditSpec::Off,
        AuditSpec::Cheap,
        AuditSpec::Full,
        AuditSpec::Theorems,
        AuditSpec::Exhaustive,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            AuditSpec::Off => "off",
            AuditSpec::Cheap => "cheap",
            AuditSpec::Full => "full",
            AuditSpec::Theorems => "theorems",
            AuditSpec::Exhaustive => "exhaustive",
        }
    }

    /// Parse a display name.
    pub fn parse(name: &str) -> Option<AuditSpec> {
        AuditSpec::ALL.into_iter().find(|a| a.name() == name)
    }

    /// The engine audit level this spec level maps to. `exhaustive`
    /// audits its own universe of runs, so its engine runs unaudited.
    pub fn engine_level(self) -> AuditLevel {
        match self {
            AuditSpec::Cheap => AuditLevel::Cheap,
            AuditSpec::Full => AuditLevel::Full,
            AuditSpec::Theorems => AuditLevel::Theorems,
            AuditSpec::Off | AuditSpec::Exhaustive => AuditLevel::Off,
        }
    }
}

impl fmt::Display for AuditSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which execution substrate runs the scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendSpec {
    /// The centralized [`ScenarioEngine`] with modeled accounting.
    #[default]
    Centralized,
    /// The distributed fabric ([`DistributedScenarioRunner`]): the same
    /// schedule executed as real message passing. The centralized engine
    /// still runs alongside to evolve the adversary's view (sources pick
    /// against the modeled network), but the reported numbers are the
    /// fabric's.
    Distributed,
    /// Both backends in lockstep with per-event and final-state byte
    /// parity enforced ([`parity_event`] / [`parity_final`]).
    Parity,
    /// The interleaving schedule explorer ([`explore_events`]): replay
    /// the adversary's events under every DPOR equivalence class of
    /// batch-notification delivery schedules, asserting centralized /
    /// distributed parity under each one. Requires a fabric-capable
    /// healer and `audit = off` (parity *is* the check, and the scenario
    /// is re-run once per class).
    Explorer,
}

impl BackendSpec {
    /// Every backend, in registry order.
    pub const ALL: [BackendSpec; 4] = [
        BackendSpec::Centralized,
        BackendSpec::Distributed,
        BackendSpec::Parity,
        BackendSpec::Explorer,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendSpec::Centralized => "centralized",
            BackendSpec::Distributed => "distributed",
            BackendSpec::Parity => "parity",
            BackendSpec::Explorer => "explorer",
        }
    }

    /// Parse a display name.
    pub fn parse(name: &str) -> Option<BackendSpec> {
        BackendSpec::ALL.into_iter().find(|b| b.name() == name)
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One declarative, replayable scenario: the complete description of a
/// run, parseable from (and printable to) the `.scn` text form.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Initial graph.
    pub graph: GraphSpec,
    /// Healing strategy.
    pub healer: HealerSpec,
    /// Adversarial event source.
    pub adversary: AdversarySpec,
    /// The one seed parameterizing graph generation, the ID permutation,
    /// and every stochastic source's tagged stream.
    pub seed: u64,
    /// Per-event checking level.
    pub audit: AuditSpec,
    /// Execution backend.
    pub backend: BackendSpec,
    /// Event cap (0 = run to source exhaustion).
    pub max_events: u64,
}

impl ScenarioSpec {
    /// A minimal spec with defaults (`audit = cheap`,
    /// `backend = centralized`, `max-events = 0`).
    pub fn new(graph: GraphSpec, healer: HealerSpec, adversary: AdversarySpec, seed: u64) -> Self {
        ScenarioSpec {
            graph,
            healer,
            adversary,
            seed,
            audit: AuditSpec::default(),
            backend: BackendSpec::default(),
            max_events: 0,
        }
    }

    /// The same scenario under a different seed (how sweeps fan one
    /// template out over a seed range).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Check the whole configuration: graph and adversary parameters,
    /// and that the healer can actually drive the chosen backend.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.graph.validate()?;
        self.adversary.validate()?;
        if self.backend != BackendSpec::Centralized {
            self.healer.heal_mode(self.backend)?;
        }
        if self.audit == AuditSpec::Exhaustive {
            if self.backend != BackendSpec::Centralized {
                return Err(SpecError::Invalid(
                    "audit = exhaustive sweeps its own universe on the centralized \
                     engine; set backend = centralized"
                        .to_string(),
                ));
            }
            let n = self.graph.node_count();
            if !(2..=crate::exhaustive::MAX_NODES).contains(&n) {
                return Err(SpecError::Invalid(format!(
                    "audit = exhaustive enumerates every connected graph up to the \
                     spec graph's size; needs 2 <= nodes <= {}, got {n}",
                    crate::exhaustive::MAX_NODES
                )));
            }
        }
        if self.backend == BackendSpec::Explorer && self.audit != AuditSpec::Off {
            return Err(SpecError::Invalid(
                "backend = explorer re-runs the scenario once per schedule class and \
                 parity is the check; set audit = off"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Parse the line-oriented `key = value` text form. Blank lines and
    /// `#` comments are ignored; unknown, duplicate, or malformed keys
    /// are errors; `graph`, `healer`, `adversary` and `seed` are
    /// required.
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        let mut graph: Option<GraphSpec> = None;
        let mut healer: Option<HealerSpec> = None;
        let mut adversary: Option<AdversarySpec> = None;
        let mut seed: Option<u64> = None;
        let mut audit: Option<AuditSpec> = None;
        let mut backend: Option<BackendSpec> = None;
        let mut max_events: Option<u64> = None;

        fn set_once<T>(
            slot: &mut Option<T>,
            value: T,
            key: &str,
            line: usize,
        ) -> Result<(), SpecError> {
            if slot.is_some() {
                return Err(SpecError::Parse {
                    line,
                    msg: format!("duplicate key '{key}'"),
                });
            }
            *slot = Some(value);
            Ok(())
        }

        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let at = |msg: String| SpecError::Parse { line, msg };
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let Some((key, value)) = text.split_once('=') else {
                return Err(at(format!("expected 'key = value', got '{text}'")));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "graph" => set_once(&mut graph, GraphSpec::parse(value).map_err(at)?, key, line)?,
                "healer" => set_once(
                    &mut healer,
                    HealerSpec::parse(value)
                        .ok_or_else(|| at(format!("unknown healer '{value}'")))?,
                    key,
                    line,
                )?,
                "adversary" => set_once(
                    &mut adversary,
                    AdversarySpec::parse(value).map_err(at)?,
                    key,
                    line,
                )?,
                "seed" => set_once(
                    &mut seed,
                    value
                        .parse()
                        .map_err(|_| at(format!("seed must be a u64, got '{value}'")))?,
                    key,
                    line,
                )?,
                "audit" => set_once(
                    &mut audit,
                    AuditSpec::parse(value)
                        .ok_or_else(|| at(format!("unknown audit level '{value}'")))?,
                    key,
                    line,
                )?,
                "backend" => set_once(
                    &mut backend,
                    BackendSpec::parse(value)
                        .ok_or_else(|| at(format!("unknown backend '{value}'")))?,
                    key,
                    line,
                )?,
                "max-events" => set_once(
                    &mut max_events,
                    value
                        .parse()
                        .map_err(|_| at(format!("max-events must be a u64, got '{value}'")))?,
                    key,
                    line,
                )?,
                other => return Err(at(format!("unknown key '{other}'"))),
            }
        }

        Ok(ScenarioSpec {
            graph: graph.ok_or(SpecError::MissingKey("graph"))?,
            healer: healer.ok_or(SpecError::MissingKey("healer"))?,
            adversary: adversary.ok_or(SpecError::MissingKey("adversary"))?,
            seed: seed.ok_or(SpecError::MissingKey("seed"))?,
            audit: audit.unwrap_or_default(),
            backend: backend.unwrap_or_default(),
            max_events: max_events.unwrap_or(0),
        })
    }

    /// Build a ready-to-drive centralized engine from the spec (healer
    /// and source as trait objects — the `Box<dyn EventSource>` blanket
    /// impl makes this a first-class engine instantiation). The audit
    /// level maps through [`AuditSpec::engine_level`].
    pub fn build_engine(&self) -> Result<DynScenarioEngine, SpecError> {
        self.graph.validate()?;
        self.adversary.validate()?;
        let g = self.graph.build(self.seed);
        let source = self.adversary.build(self.seed);
        Ok(ScenarioEngine::new(
            HealingNetwork::new(g, self.seed),
            self.healer.build(),
            source,
        )
        .with_audit(self.audit.engine_level()))
    }

    /// Execute the spec with default options.
    pub fn run(&self) -> Result<SpecOutcome, SpecError> {
        self.run_with(&RunOptions::default())
    }

    /// Execute the spec: build everything, drive the event loop on the
    /// selected backend(s), collect the report(s) and any violations.
    ///
    /// The centralized engine always runs — adversaries observe the
    /// evolving modeled network — and under the `distributed`/`parity`
    /// backends the fabric twin replays each event as real message
    /// passing (with byte-parity enforced for `parity`).
    pub fn run_with(&self, opts: &RunOptions) -> Result<SpecOutcome, SpecError> {
        self.validate()?;
        if self.audit == AuditSpec::Exhaustive {
            return self.run_exhaustive();
        }
        if self.backend == BackendSpec::Explorer {
            return self.run_explorer();
        }
        let g = self.graph.build(self.seed);
        let initial_nodes = g.live_node_count() as u64;
        let baseline = opts.measure_stretch.then(|| StretchBaseline::new(&g, 1));
        let mut source = self.adversary.build(self.seed);
        let mut twin = if self.backend == BackendSpec::Centralized {
            None
        } else {
            // validate() proved heal_mode() succeeds.
            Some(DistributedScenarioRunner::with_mode(
                self.healer.heal_mode(self.backend)?,
                &g,
                self.seed,
            ))
        };
        let mut engine = ScenarioEngine::new(
            HealingNetwork::new(g, self.seed),
            self.healer.build(),
            ScriptedEvents::default(),
        )
        .with_audit(self.audit.engine_level());

        let mut log = opts.keep_log.then(RecordLog::default);
        let mut violations = Vec::new();
        let mut stretch_tenths = None;
        let half_life = initial_nodes.div_ceil(2);
        let mut events = 0u64;
        while self.max_events == 0 || events < self.max_events {
            let Some(event) = source.next_event(&engine.net) else {
                break;
            };
            events += 1;
            let record = engine.apply_with(event.as_event_ref(), &mut NullObserver);
            if let Some(log) = log.as_mut() {
                log.records.push(record);
            }
            if let Some(runner) = twin.as_mut() {
                let dist = runner.apply(&event);
                if self.backend == BackendSpec::Parity {
                    if let Err(e) = parity_event(&record, &dist) {
                        violations.push(format!("parity: {e}"));
                    }
                }
            }
            // Half-life measurement: the paper's stretch metric compares
            // survivors against the initial graph, so sample it while a
            // meaningful survivor population remains.
            if let Some(b) = baseline.as_ref() {
                if stretch_tenths.is_none() && engine.report().deletions >= half_life {
                    stretch_tenths = b
                        .stretch_of(engine.net.graph(), 1)
                        .map(|r| (r.stretch * 10.0).ceil() as u64);
                }
            }
        }
        let report = engine.finish();
        if self.backend == BackendSpec::Parity {
            if let Some(runner) = twin.as_ref() {
                if let Err(e) = parity_final(&engine.net, runner) {
                    violations.push(format!("parity (final): {e}"));
                }
            }
        }
        Ok(SpecOutcome {
            seed: self.seed,
            report,
            dist: twin.map(|r| r.report()),
            log,
            stretch_tenths,
            violations,
            universe: None,
            explorer: None,
        })
    }

    /// `audit = exhaustive`: the spec's graph fixes only the universe
    /// ceiling (its node count) and the healer under test; the adversary
    /// is ignored because the universe *is* every deletion order.
    fn run_exhaustive(&self) -> Result<SpecOutcome, SpecError> {
        let cfg = crate::exhaustive::UniverseConfig {
            max_n: self.graph.node_count(),
            healers: vec![self.healer],
            seed: self.seed,
            ..crate::exhaustive::UniverseConfig::default()
        };
        let universe = crate::exhaustive::run_universe(&cfg)?;
        let violations = outcome_lines(universe.findings.clone(), "exhaustive");
        Ok(SpecOutcome {
            seed: self.seed,
            report: ScenarioReport::default(),
            dist: None,
            log: None,
            stretch_tenths: None,
            violations,
            universe: Some(universe),
            explorer: None,
        })
    }

    /// `backend = explorer`: one audit-off centralized pass records the
    /// adversary's concrete events, then [`explore_events`] replays them
    /// under every DPOR schedule class with parity enforced.
    fn run_explorer(&self) -> Result<SpecOutcome, SpecError> {
        let g = self.graph.build(self.seed);
        let mut source = self.adversary.build(self.seed);
        let mut engine = ScenarioEngine::new(
            HealingNetwork::new(g.clone(), self.seed),
            self.healer.build(),
            ScriptedEvents::default(),
        );
        let mut events = Vec::new();
        while self.max_events == 0 || (events.len() as u64) < self.max_events {
            let Some(event) = source.next_event(&engine.net) else {
                break;
            };
            engine.apply(event.clone());
            events.push(event);
        }
        let report = engine.finish();
        let explorer = explore_events(
            &g,
            self.healer,
            self.seed,
            &events,
            &ExplorerConfig::default(),
        )?;
        let found = explorer.findings.clone().map(|v| format!("explorer: {v}"));
        let violations = outcome_lines(found, "explorer");
        Ok(SpecOutcome {
            seed: self.seed,
            report,
            dist: None,
            log: None,
            stretch_tenths: None,
            violations,
            universe: None,
            explorer: Some(explorer),
        })
    }
}

/// The kept findings as outcome lines, then one line counting the
/// dropped ones, if any.
fn outcome_lines(findings: Findings, source: &str) -> Vec<String> {
    let mut lines = findings.kept().to_vec();
    if findings.truncated() {
        let dropped = findings.dropped();
        lines.push(format!("{source}: {dropped} further findings truncated"));
    }
    lines
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph = {}", self.graph)?;
        writeln!(f, "healer = {}", self.healer)?;
        writeln!(f, "adversary = {}", self.adversary)?;
        writeln!(f, "seed = {}", self.seed)?;
        writeln!(f, "audit = {}", self.audit)?;
        writeln!(f, "backend = {}", self.backend)?;
        writeln!(f, "max-events = {}", self.max_events)
    }
}

impl FromStr for ScenarioSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioSpec::parse(s)
    }
}

/// Knobs for [`ScenarioSpec::run_with`] that are about *observation*,
/// not about the scenario itself (so they live outside the spec text).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Keep the full per-event [`RecordLog`].
    pub keep_log: bool,
    /// Sample the half-life stretch against the initial graph.
    pub measure_stretch: bool,
}

/// Everything one spec run reports back.
#[derive(Clone, Debug)]
pub struct SpecOutcome {
    /// The seed the run used (replays it exactly).
    pub seed: u64,
    /// The centralized engine's report (always present; the engine
    /// drives event generation on every backend).
    pub report: ScenarioReport,
    /// The fabric twin's report (`distributed` and `parity` backends).
    pub dist: Option<DistScenarioReport>,
    /// The per-event record log, when requested.
    pub log: Option<RecordLog>,
    /// Half-life stretch vs the initial graph (×10, rounded up), when
    /// measured and enough baseline nodes survived.
    pub stretch_tenths: Option<u64>,
    /// Parity, exhaustive-universe and explorer findings (the engine's
    /// audit findings, `theorems` included, live in
    /// [`ScenarioReport::violations`]).
    pub violations: Vec<String>,
    /// Exhaustive-universe report (`audit = exhaustive` runs only).
    pub universe: Option<crate::exhaustive::UniverseReport>,
    /// Schedule-explorer report (`backend = explorer` runs only).
    pub explorer: Option<crate::explore::ExplorerReport>,
}

impl SpecOutcome {
    /// No violations from any checking layer.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.report.violations.is_empty()
    }
}

/// Per-event parity between the modeled engine and the fabric twin:
/// kind, effective victim count, join identity, Lemma 8 message count.
///
/// This is *the* definition of per-event byte-identity — the parity
/// test-suites (`tests/distributed_parity.rs`, `tests/scenarios.rs`)
/// delegate to it, so the `parity` backend can never check less than the
/// tests do.
pub fn parity_event(central: &EventRecord, dist: &DistEventRecord) -> Result<(), String> {
    if central.kind != dist.kind {
        return Err(format!(
            "event {}: kind {:?} vs {:?}",
            central.event, central.kind, dist.kind
        ));
    }
    if central.victims != dist.victims {
        return Err(format!(
            "event {}: victims {} vs {}",
            central.event, central.victims, dist.victims
        ));
    }
    if central.joined.map(|v| v.0) != dist.joined {
        return Err(format!(
            "event {}: joined {:?} vs {:?}",
            central.event, central.joined, dist.joined
        ));
    }
    if central.propagation.messages != dist.messages {
        return Err(format!(
            "event {}: messages {} vs {}",
            central.event, central.propagation.messages, dist.messages
        ));
    }
    Ok(())
}

/// Final-state parity: per-slot liveness, adjacency in `G` and `G'`,
/// component IDs, initial IDs, ID-change counts and per-node message
/// counters — the single definition of final-state byte-identity, shared
/// with the parity test-suites.
pub fn parity_final(
    net: &HealingNetwork,
    runner: &DistributedScenarioRunner,
) -> Result<(), String> {
    if net.graph().node_bound() != runner.topology().len() {
        return Err(format!(
            "slot counts {} vs {}",
            net.graph().node_bound(),
            runner.topology().len()
        ));
    }
    for i in 0..net.graph().node_bound() {
        let v = NodeId::from_index(i);
        let u = i as u32;
        if net.is_alive(v) != runner.topology().is_alive(u) {
            return Err(format!("liveness of {v} diverged"));
        }
        if net.is_alive(v) {
            let central: Vec<u32> = net.graph().neighbors(v).iter().map(|x| x.0).collect();
            if central != runner.topology().neighbors(u) {
                return Err(format!(
                    "G adjacency of {v}: {central:?} vs {:?}",
                    runner.topology().neighbors(u)
                ));
            }
            let central_gp: Vec<u32> = net
                .healing_graph()
                .neighbors(v)
                .iter()
                .map(|x| x.0)
                .collect();
            let dist_gp: Vec<u32> = runner
                .protocol()
                .gprime_neighbors(u)
                .iter()
                .copied()
                .collect();
            if central_gp != dist_gp {
                return Err(format!(
                    "G' adjacency of {v}: {central_gp:?} vs {dist_gp:?}"
                ));
            }
            if net.comp_id(v) != runner.protocol().comp_id(u) {
                return Err(format!(
                    "component id of {v}: {} vs {}",
                    net.comp_id(v),
                    runner.protocol().comp_id(u)
                ));
            }
            if net.initial_id(v) != runner.protocol().initial_id(u) {
                return Err(format!(
                    "initial id of {v}: {} vs {}",
                    net.initial_id(v),
                    runner.protocol().initial_id(u)
                ));
            }
            if net.id_changes(v) != runner.protocol().id_changes(u) {
                return Err(format!(
                    "id changes of {v}: {} vs {}",
                    net.id_changes(v),
                    runner.protocol().id_changes(u)
                ));
            }
        }
        if net.messages_sent(v) != runner.metrics().sent(u) {
            return Err(format!(
                "sent count of {v}: {} vs {}",
                net.messages_sent(v),
                runner.metrics().sent(u)
            ));
        }
        if net.messages_received(v) != runner.metrics().received(u) {
            return Err(format!(
                "received count of {v}: {} vs {}",
                net.messages_received(v),
                runner.metrics().received(u)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        ScenarioSpec::new(
            GraphSpec::BarabasiAlbert { n: 24, m: 3 },
            HealerSpec::Dash,
            AdversarySpec::RackPartition { rack_size: 4 },
            2008,
        )
    }

    #[test]
    fn display_parse_round_trip() {
        let spec = sample();
        let text = spec.to_string();
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn parse_accepts_comments_defaults_and_whitespace() {
        let spec = ScenarioSpec::parse(
            "# a comment\n\n  graph= star(8) \nhealer =sdash\nadversary = max-node\nseed = 9\n",
        )
        .unwrap();
        assert_eq!(spec.graph, GraphSpec::Star { n: 8 });
        assert_eq!(spec.healer, HealerSpec::Sdash);
        assert_eq!(spec.audit, AuditSpec::Cheap);
        assert_eq!(spec.backend, BackendSpec::Centralized);
        assert_eq!(spec.max_events, 0);
    }

    #[test]
    fn parse_errors_are_located_and_readable() {
        let err = ScenarioSpec::parse("graph = ba(24, 3)\nbogus line").unwrap_err();
        assert_eq!(
            err,
            SpecError::Parse {
                line: 2,
                msg: "expected 'key = value', got 'bogus line'".to_string()
            }
        );
        let err = ScenarioSpec::parse("graph = ba(24)\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }), "{err}");
        let err = ScenarioSpec::parse("healer = dash\nhealer = sdash\n").unwrap_err();
        assert!(err.to_string().contains("duplicate key 'healer'"), "{err}");
        let err = ScenarioSpec::parse("graph = ba(24, 3)\nhealer = dash\nadversary = max-node\n")
            .unwrap_err();
        assert_eq!(err, SpecError::MissingKey("seed"));
    }

    #[test]
    fn fabric_unsupported_healers_fail_distributed_backends() {
        for healer in [
            HealerSpec::GraphHeal,
            HealerSpec::BinaryTreeHeal,
            HealerSpec::LineHeal,
            HealerSpec::NoHeal,
            HealerSpec::RingForgiving { budget: 2 },
        ] {
            assert_eq!(
                healer.heal_mode(BackendSpec::Parity),
                Err(SpecError::FabricUnsupported {
                    healer: healer.name(),
                    backend: "parity",
                })
            );
            let mut spec = sample();
            spec.healer = healer;
            spec.backend = BackendSpec::Parity;
            assert!(spec.validate().is_err(), "{healer} must not run on sim");
            spec.backend = BackendSpec::Centralized;
            assert!(spec.validate().is_ok());
        }
        assert_eq!(
            HealerSpec::Dash.heal_mode(BackendSpec::Distributed),
            Ok(HealMode::Dash)
        );
        assert_eq!(
            HealerSpec::Sdash.heal_mode(BackendSpec::Parity),
            Ok(HealMode::Sdash)
        );
        assert_eq!(
            HealerSpec::ForgivingTree.heal_mode(BackendSpec::Explorer),
            Ok(HealMode::ForgivingTree)
        );
    }

    /// Satellite: the `FabricUnsupported` message names both the healer
    /// and the requested backend (and keeps the long-standing
    /// "no distributed-fabric" phrasing the gates grep for), so a
    /// `run --spec` failure says exactly which combination was refused.
    #[test]
    fn fabric_unsupported_display_names_healer_and_backend() {
        let err = HealerSpec::RingForgiving { budget: 2 }
            .heal_mode(BackendSpec::Parity)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "healer 'ring' has no distributed-fabric implementation \
             (backend = parity unsupported; only dash, sdash and ftree \
             run on the sim backend); use backend = centralized"
        );
        let err = HealerSpec::NoHeal
            .heal_mode(BackendSpec::Explorer)
            .unwrap_err();
        assert!(err.to_string().contains("backend = explorer unsupported"));
        assert!(err.to_string().contains("no distributed-fabric"));
    }

    #[test]
    fn ring_budget_parses_and_round_trips() {
        assert_eq!(
            HealerSpec::parse("ring"),
            Some(HealerSpec::RingForgiving { budget: 2 })
        );
        assert_eq!(
            HealerSpec::parse("ring(5)"),
            Some(HealerSpec::RingForgiving { budget: 5 })
        );
        assert_eq!(
            HealerSpec::RingForgiving { budget: 5 }.to_string(),
            "ring(5)"
        );
        assert_eq!(HealerSpec::parse("ring()"), None);
        assert_eq!(HealerSpec::parse("ring(x)"), None);
        assert_eq!(HealerSpec::parse("ftree"), Some(HealerSpec::ForgivingTree));
        let mut spec = sample();
        spec.healer = HealerSpec::RingForgiving { budget: 3 };
        let text = spec.to_string();
        assert!(text.contains("healer = ring(3)"), "{text}");
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn invalid_parameters_are_caught_by_validate() {
        let mut spec = sample();
        spec.graph = GraphSpec::BarabasiAlbert { n: 3, m: 3 };
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.graph = GraphSpec::WattsStrogatz {
            n: 10,
            k: 3,
            beta: 0.1,
        };
        assert!(spec.validate().is_err());
        spec.graph = GraphSpec::BarabasiAlbert { n: 24, m: 3 };
        spec.adversary = AdversarySpec::EpidemicChurn { p: 1.5 };
        assert!(spec.validate().is_err());
        spec.adversary = AdversarySpec::RackPartition { rack_size: 0 };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn healer_names_match_built_instances() {
        for healer in HealerSpec::ALL {
            assert_eq!(healer.name(), healer.build().name());
        }
    }

    #[test]
    fn adversary_names_match_built_sources() {
        for spec in [
            AdversarySpec::MaxNode,
            AdversarySpec::NeighborOfMax,
            AdversarySpec::Random,
            AdversarySpec::MinDegree,
            AdversarySpec::CutVertex,
            AdversarySpec::RandomChurn,
            AdversarySpec::EpidemicChurn { p: 0.25 },
            AdversarySpec::FlashCrowd { joins: 4, burst: 2 },
            AdversarySpec::RackPartition { rack_size: 4 },
            AdversarySpec::DegreeBatches { k: 3 },
        ] {
            assert_eq!(spec.name(), spec.build(1).name());
        }
        // Curated schedules replay through ScriptedEvents.
        assert_eq!(
            AdversarySpec::Curated(CuratedSchedule::CycleBatches)
                .build(1)
                .name(),
            "scripted-events"
        );
    }

    #[test]
    fn curated_schedules_are_nonempty_and_named() {
        for c in CuratedSchedule::ALL {
            assert!(!c.events().is_empty(), "{c} has no events");
            assert_eq!(CuratedSchedule::parse(c.name()), Some(c));
        }
    }

    #[test]
    fn build_engine_runs_a_kill_sweep() {
        let spec = ScenarioSpec::new(
            GraphSpec::BarabasiAlbert { n: 16, m: 3 },
            HealerSpec::Dash,
            AdversarySpec::MaxNode,
            5,
        );
        let mut engine = spec.build_engine().unwrap();
        let report = engine.run_to_empty();
        assert_eq!(report.deletions, 16);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn run_covers_all_three_backends() {
        let mut spec = sample();
        spec.audit = AuditSpec::Theorems;
        let central = spec.run().unwrap();
        assert!(central.is_clean(), "{:?}", central.violations);
        assert!(central.dist.is_none());
        assert!(central.report.deletions > 0);

        spec.backend = BackendSpec::Distributed;
        let dist = spec.run().unwrap();
        let fabric = dist.dist.expect("distributed backend reports the fabric");
        assert_eq!(fabric.deletions, dist.report.deletions);

        spec.backend = BackendSpec::Parity;
        let parity = spec.run().unwrap();
        assert!(parity.is_clean(), "{:?}", parity.violations);
        assert_eq!(
            parity.dist.unwrap().total_messages,
            parity.report.total_messages
        );
    }

    #[test]
    fn run_honors_max_events_and_keep_log() {
        let mut spec = sample();
        spec.adversary = AdversarySpec::MaxNode;
        spec.max_events = 5;
        let out = spec
            .run_with(&RunOptions {
                keep_log: true,
                ..RunOptions::default()
            })
            .unwrap();
        assert_eq!(out.report.events, 5);
        assert_eq!(out.log.unwrap().records.len(), 5);
    }

    /// `theorems` is an engine level of its own, not `cheap` plus extra
    /// checks: `cheap` insists G' stays a forest after **every** event,
    /// but a simultaneous deletion batch can legitimately leave a cycle
    /// in G', and the theorem auditor waives the forest check exactly on
    /// multi-victim batches. Demonstrated here: the same batch-heavy
    /// scenario is clean under `theorems` yet flagged by `cheap`.
    #[test]
    fn theorem_audit_waives_the_forest_check_that_cheap_applies_to_batches() {
        assert_eq!(AuditSpec::Off.engine_level(), AuditLevel::Off);
        assert_eq!(AuditSpec::Cheap.engine_level(), AuditLevel::Cheap);
        assert_eq!(AuditSpec::Full.engine_level(), AuditLevel::Full);
        assert_eq!(AuditSpec::Theorems.engine_level(), AuditLevel::Theorems);
        assert_eq!(AuditSpec::Exhaustive.engine_level(), AuditLevel::Off);

        // Simultaneous deletions snapshot each victim's G'-neighbors at
        // deletion time and rebuild RT from the snapshot, so one batch
        // member's heal can re-link survivors a sibling's heal already
        // connected — a legitimate G' cycle. This workload produces one.
        let mut spec = sample();
        spec.adversary = AdversarySpec::DegreeBatches { k: 2 };
        spec.seed = 3;
        spec.audit = AuditSpec::Theorems;
        let theorems = spec.run().unwrap();
        assert!(theorems.is_clean(), "{:?}", theorems.violations);

        spec.audit = AuditSpec::Cheap;
        let cheap = spec.run().unwrap();
        assert!(
            cheap
                .report
                .violations
                .iter()
                .any(|v| v.contains("cycle") || v.contains("forest")),
            "expected a spurious engine-level forest finding, got {:?}",
            cheap.report.violations
        );
    }

    #[test]
    fn exhaustive_audit_entry_round_trips_validates_and_runs() {
        let mut spec = sample();
        spec.graph = GraphSpec::Complete { n: 4 };
        spec.audit = AuditSpec::Exhaustive;
        let text = spec.to_string();
        assert!(text.contains("audit = exhaustive"), "{text}");
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);

        spec.backend = BackendSpec::Parity;
        assert!(spec.validate().is_err(), "exhaustive is centralized-only");
        spec.backend = BackendSpec::Centralized;
        spec.graph = GraphSpec::BarabasiAlbert { n: 24, m: 3 };
        assert!(spec.validate().is_err(), "n = 24 is beyond the universe");

        spec.graph = GraphSpec::Complete { n: 4 };
        let out = spec.run().unwrap();
        let universe = out
            .universe
            .as_ref()
            .expect("exhaustive runs report the universe");
        assert_eq!(universe.graphs, 10, "connected graphs with n <= 4");
        assert!(universe.order_runs > 0 && universe.batch_runs > 0);
        assert!(out.is_clean(), "{:?}", out.violations);
    }

    #[test]
    fn explorer_backend_entry_round_trips_validates_and_runs() {
        let mut spec = sample();
        spec.graph = GraphSpec::BarabasiAlbert { n: 12, m: 3 };
        spec.adversary = AdversarySpec::DegreeBatches { k: 2 };
        spec.healer = HealerSpec::Sdash;
        spec.backend = BackendSpec::Explorer;
        spec.max_events = 2;
        assert!(spec.validate().is_err(), "explorer requires audit = off");
        spec.audit = AuditSpec::Off;
        let text = spec.to_string();
        assert!(text.contains("backend = explorer"), "{text}");
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);

        let out = spec.run().unwrap();
        let explorer = out
            .explorer
            .as_ref()
            .expect("explorer runs report the exploration");
        assert!(explorer.batches >= 1, "{explorer:#?}");
        assert!(explorer.classes >= 2);
        assert_eq!(explorer.checked, 2 * explorer.classes);
        assert!(explorer.pruned() > 0);
        assert!(out.is_clean(), "{:?}", out.violations);
    }
}
