//! The spec layer's contracts, pinned:
//!
//! 1. **Round-trip** — `parse(to_string(spec)) == spec`, property-tested
//!    over the full registry product (every graph generator × healer ×
//!    adversary × audit level × backend, with randomized parameters).
//! 2. **Golden equivalence** — for every healer × {random-churn,
//!    epidemic-churn, rack-partition}, the spec-built run is
//!    byte-identical (full `Debug` report) to the pre-redesign
//!    hand-built construction (`ScenarioEngine` wired by hand), on the
//!    centralized backend always and on the distributed backend for the
//!    three fabric-capable healers.
//! 3. **Checked-in specs** — every `specs/*.scn` parses, validates, and
//!    round-trips through the text format.
//! 4. **Validation** — a spec whose graph size overflows is rejected with
//!    a readable error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal::prelude::*;
use selfheal_core::attack::{EpidemicChurn as RawEpidemic, RackPartition as RawRack};
use selfheal_core::scenario::{RandomChurn as RawChurn, ScenarioEngine, ScriptedEvents};
use selfheal_graph::generators::barabasi_albert;

const N: usize = 24;
const CAP: u64 = 60;

fn graph_variant(idx: usize, a: usize, b: usize, p: f64) -> GraphSpec {
    match idx % 8 {
        0 => GraphSpec::BarabasiAlbert { n: a + b, m: b },
        1 => GraphSpec::ErdosRenyiGnm { n: a, m: b },
        2 => GraphSpec::WattsStrogatz {
            n: a,
            k: b,
            beta: p,
        },
        3 => GraphSpec::Path { n: a },
        4 => GraphSpec::Cycle { n: a },
        5 => GraphSpec::Star { n: a },
        6 => GraphSpec::Complete { n: a },
        _ => GraphSpec::Grid { rows: a, cols: b },
    }
}

fn healer_variant(idx: usize, b: usize) -> HealerSpec {
    match idx % 8 {
        // The ring family is the registry's only parameterized healer —
        // exercise randomized budgets, not just the default.
        0 => HealerSpec::RingForgiving { budget: b },
        i => HealerSpec::ALL[i],
    }
}

fn adversary_variant(idx: usize, a: usize, b: usize, p: f64) -> AdversarySpec {
    match idx % 11 {
        0 => AdversarySpec::MaxNode,
        1 => AdversarySpec::NeighborOfMax,
        2 => AdversarySpec::Random,
        3 => AdversarySpec::MinDegree,
        4 => AdversarySpec::CutVertex,
        5 => AdversarySpec::RandomChurn,
        6 => AdversarySpec::EpidemicChurn { p },
        7 => AdversarySpec::FlashCrowd { joins: a, burst: b },
        8 => AdversarySpec::RackPartition { rack_size: b },
        9 => AdversarySpec::DegreeBatches { k: b },
        _ => AdversarySpec::Curated(CuratedSchedule::ALL[a % CuratedSchedule::ALL.len()]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite: the text format round-trips exactly over the whole
    /// registry product — any spec the API can express can be saved to a
    /// `.scn` file and read back unchanged.
    #[test]
    fn parse_display_round_trip(
        gi in 0usize..8,
        ai in 0usize..11,
        hi in 0usize..8,
        audit_i in 0usize..5,
        backend_i in 0usize..4,
        a in 1usize..200,
        b in 1usize..16,
        p in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
        max_events in 0u64..10_000,
    ) {
        let mut spec = ScenarioSpec::new(
            graph_variant(gi, a, b, p),
            healer_variant(hi, b),
            adversary_variant(ai, a, b, p),
            seed,
        );
        spec.audit = AuditSpec::ALL[audit_i];
        spec.backend = BackendSpec::ALL[backend_i];
        spec.max_events = max_events;
        let text = spec.to_string();
        prop_assert_eq!(text.parse::<ScenarioSpec>().unwrap(), spec);
    }
}

/// The three adversaries the golden matrix drives, as specs and as the
/// exact hand-built sources the pre-redesign call sites constructed.
fn golden_adversaries() -> [AdversarySpec; 3] {
    [
        AdversarySpec::RandomChurn,
        AdversarySpec::EpidemicChurn { p: 0.25 },
        AdversarySpec::RackPartition { rack_size: 4 },
    ]
}

fn hand_source(adversary: AdversarySpec, seed: u64) -> Box<dyn EventSource> {
    match adversary {
        AdversarySpec::RandomChurn => Box::new(RawChurn::new(seed)),
        AdversarySpec::EpidemicChurn { p } => Box::new(RawEpidemic::new(seed, p)),
        AdversarySpec::RackPartition { rack_size } => Box::new(RawRack::new(seed, rack_size)),
        other => unreachable!("not in the golden matrix: {other:?}"),
    }
}

fn hand_healer(healer: HealerSpec) -> Box<dyn Healer> {
    match healer {
        HealerSpec::Dash => Box::new(Dash),
        HealerSpec::Sdash => Box::new(Sdash),
        HealerSpec::GraphHeal => Box::new(GraphHeal),
        HealerSpec::BinaryTreeHeal => Box::new(BinaryTreeHeal),
        HealerSpec::LineHeal => Box::new(LineHeal),
        HealerSpec::NoHeal => Box::new(NoHeal),
        HealerSpec::ForgivingTree => Box::new(ForgivingTree),
        HealerSpec::RingForgiving { budget } => Box::new(RingForgiving { budget }),
    }
}

fn golden_spec(healer: HealerSpec, adversary: AdversarySpec, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        GraphSpec::BarabasiAlbert { n: N, m: 3 },
        healer,
        adversary,
        seed,
    );
    spec.audit = AuditSpec::Off;
    spec.max_events = CAP;
    spec
}

/// Golden equivalence, centralized backend: the spec-built run's full
/// report is byte-identical (Debug form) to the hand-wired
/// `ScenarioEngine` construction every call site used before the
/// redesign — for all eight healers against all three adversaries.
#[test]
fn spec_runs_match_hand_built_centralized_runs() {
    for healer in HealerSpec::ALL {
        for adversary in golden_adversaries() {
            let seed = 2008;
            let spec_report = golden_spec(healer, adversary, seed)
                .run()
                .unwrap_or_else(|e| panic!("{healer} vs {adversary:?}: {e}"))
                .report;

            let g = barabasi_albert(N, 3, &mut StdRng::seed_from_u64(seed));
            let mut engine = ScenarioEngine::new(
                HealingNetwork::new(g, seed),
                hand_healer(healer),
                hand_source(adversary, seed),
            );
            let hand_report = engine.run_events(CAP);

            assert_eq!(
                format!("{spec_report:?}"),
                format!("{hand_report:?}"),
                "{healer} vs {adversary:?}: spec-built run diverged from hand-built"
            );
        }
    }
}

/// Golden equivalence, distributed backend: for the three fabric-capable
/// healers the spec-built fabric report is byte-identical to a hand-run
/// `DistributedScenarioRunner` twin; the other five healers are rejected
/// with `FabricUnsupported` instead of panicking or silently degrading.
#[test]
fn spec_runs_match_hand_built_distributed_runs() {
    for healer in HealerSpec::ALL {
        for adversary in golden_adversaries() {
            let seed = 5;
            let mut spec = golden_spec(healer, adversary, seed);
            spec.backend = BackendSpec::Parity;
            let outcome = spec.run();

            let Ok(mode) = healer.heal_mode(BackendSpec::Parity) else {
                assert!(
                    matches!(outcome, Err(SpecError::FabricUnsupported { .. })),
                    "{healer} must be rejected on the fabric"
                );
                continue;
            };
            let outcome = outcome.unwrap();
            assert!(
                outcome.violations.is_empty(),
                "{healer} vs {adversary:?}: {:?}",
                outcome.violations
            );

            let g = barabasi_albert(N, 3, &mut StdRng::seed_from_u64(seed));
            let mut runner = DistributedScenarioRunner::with_mode(mode, &g, seed);
            let mut engine = ScenarioEngine::new(
                HealingNetwork::new(g, seed),
                hand_healer(healer),
                ScriptedEvents::default(),
            );
            let mut source = hand_source(adversary, seed);
            for _ in 0..CAP {
                let Some(event) = source.next_event(&engine.net) else {
                    break;
                };
                engine.apply(event.clone());
                runner.apply(&event);
            }
            engine.finish();

            assert_eq!(
                format!("{:?}", outcome.dist.unwrap()),
                format!("{:?}", runner.report()),
                "{healer} vs {adversary:?}: fabric twin diverged from hand-built"
            );
        }
    }
}

/// Every checked-in spec parses, validates, and survives the round-trip.
#[test]
fn checked_in_specs_parse_validate_and_round_trip() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("specs/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("scn") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = text
            .parse::<ScenarioSpec>()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            spec.to_string().parse::<ScenarioSpec>().unwrap(),
            spec,
            "{} does not round-trip",
            path.display()
        );
    }
    assert!(seen >= 5, "expected checked-in specs, found {seen}");
}

/// A grid whose node count overflows `usize` is rejected with a readable
/// error, not a multiplication overflow inside `validate`.
#[test]
fn overflowing_grid_spec_is_rejected() {
    let text = "graph = grid(4294967296, 4294967297)\nhealer = dash\n\
                adversary = max-node\nseed = 1\naudit = exhaustive\n";
    let spec: ScenarioSpec = text.parse().expect("the spec is well-formed");
    let err = spec.validate().expect_err("the grid overflows usize");
    assert!(matches!(err, SpecError::Invalid(_)), "{err:?}");
    assert!(err.to_string().contains("too many nodes"), "{err}");
}

/// The curated-schedule registry is the parity suite's schedule set: a
/// curated spec on the parity backend replays byte-identically.
#[test]
fn curated_specs_hold_parity() {
    for schedule in CuratedSchedule::ALL {
        for healer in [
            HealerSpec::Dash,
            HealerSpec::Sdash,
            HealerSpec::ForgivingTree,
        ] {
            let mut spec = ScenarioSpec::new(
                GraphSpec::BarabasiAlbert { n: 32, m: 3 },
                healer,
                AdversarySpec::Curated(schedule),
                5,
            );
            spec.audit = AuditSpec::Off;
            spec.backend = BackendSpec::Parity;
            let outcome = spec.run().unwrap();
            assert!(
                outcome.is_clean(),
                "{healer} / {schedule}: {:?}",
                outcome.violations
            );
        }
    }
}
