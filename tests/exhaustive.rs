//! Integration tiers of the verification layer: the exhaustive
//! small-world prover ([`run_universe`]) and the interleaving schedule
//! explorer ([`explore_events`]), at debug-affordable sizes. The full
//! n ≤ 6 (and `--full` n ≤ 7) tiers run release-built via
//! `run-experiments verify` / `make verify-exhaustive`.

use selfheal::prelude::*;
use selfheal_core::exhaustive::{connected_graphs, CONNECTED_COUNTS};
use selfheal_core::scenario::NetworkEvent;
use selfheal_experiments::specrun::run_spec_text;
use selfheal_graph::generators::cycle_graph;

/// OEIS A001349: the enumeration is only a proof if it is the whole
/// universe, so the census is the anchor everything else trusts.
#[test]
fn connected_graph_census_matches_oeis() {
    for (i, &expected) in CONNECTED_COUNTS.iter().enumerate().take(6) {
        assert_eq!(
            connected_graphs(i + 1).len() as u64,
            expected,
            "n = {}",
            i + 1
        );
    }
}

/// Every healer's theorem profile holds over the whole n ≤ 5 universe —
/// every connected graph, every deletion order, representative batch
/// partitions.
#[test]
fn universe_up_to_five_is_clean_for_every_healer() {
    let cfg = UniverseConfig {
        max_n: 5,
        ..UniverseConfig::default()
    };
    let report = run_universe(&cfg).unwrap();
    assert_eq!(report.graphs, 31, "1+1+2+6+21 connected graphs");
    assert_eq!(report.healers, 8);
    // Σ n! over graphs: 1 + 2 + 12 + 144 + 21·120 = 2679 per healer.
    assert_eq!(report.order_runs, 2679 * 8);
    assert_eq!(report.batch_runs, 31 * 2 * 8);
    assert!(report.is_clean(), "{:#?}", report.findings);
}

/// Tentpole attribution: the two new families alone, over the whole
/// n ≤ 5 universe, with exact run accounting — their per-family bounds
/// (ftree: ≤ 3 edges gained per adjacent deletion and 2 log₂ n stretch;
/// ring: ≤ 2 + budget edges per adjacent deletion) plus connectivity
/// hold on every connected graph under every deletion order and the
/// representative batch partitions. This is the proof the ISSUE's
/// family profiles exist to make possible: the full-registry test above
/// would pass even if the new families were silently skipped; the pins
/// here cannot.
#[test]
fn new_families_alone_are_clean_over_the_whole_small_universe() {
    let cfg = UniverseConfig {
        max_n: 5,
        healers: vec![
            HealerSpec::ForgivingTree,
            HealerSpec::RingForgiving { budget: 2 },
        ],
        ..UniverseConfig::default()
    };
    let report = run_universe(&cfg).unwrap();
    assert_eq!(report.graphs, 31);
    assert_eq!(report.healers, 2);
    assert_eq!(report.order_runs, 2679 * 2);
    assert_eq!(report.batch_runs, 31 * 2 * 2);
    assert!(report.is_clean(), "{:#?}", report.findings);
}

/// The explorer proves centralized/distributed parity over *every* DPOR
/// schedule class of a mixed two-batch scenario, for all three
/// fabric-capable healers, and the prune accounting is exact: 6!·4! raw
/// interleavings collapse to 3!·2! classes, each checked twice
/// (canonical + maximally different representative).
#[test]
fn explorer_proves_two_batch_parity_with_exact_prune_accounting() {
    let g = cycle_graph(16);
    let events = vec![
        NetworkEvent::DeleteBatch(vec![NodeId(0), NodeId(2), NodeId(4)]),
        NetworkEvent::Delete(NodeId(8)),
        NetworkEvent::DeleteBatch(vec![NodeId(11), NodeId(13)]),
        NetworkEvent::Join {
            neighbors: vec![NodeId(5), NodeId(6)],
        },
    ];
    for healer in [
        HealerSpec::Dash,
        HealerSpec::Sdash,
        HealerSpec::ForgivingTree,
    ] {
        let report = explore_events(&g, healer, 17, &events, &ExplorerConfig::default()).unwrap();
        assert_eq!(report.batches, 2);
        assert_eq!(report.interleavings, 720 * 24, "6! x 4! notifications");
        assert_eq!(report.classes, 12, "3! x 2! parking orders");
        assert_eq!(report.checked, 24);
        assert_eq!(report.pruned(), 720 * 24 - 12);
        assert!(report.prune_ratio() > 0.999);
        assert!(
            report.is_clean(),
            "{}: {:#?}",
            healer.name(),
            report.findings
        );
    }
}

/// The checked-in `.scn` entries drive the same machinery through the
/// declarative registry (downscaled to n ≤ 5 here so the debug-profile
/// suite stays fast; `make spec-check` runs the checked-in files
/// verbatim, release-built).
#[test]
fn spec_registry_entries_drive_prover_and_explorer() {
    let exhaustive = std::fs::read_to_string("specs/exhaustive_n6.scn")
        .unwrap()
        .replace("complete(6)", "complete(5)");
    let summary = run_spec_text(&exhaustive, None).unwrap();
    assert!(summary.clean(), "{:?}", summary.outcome.violations);
    let u = summary.outcome.universe.as_ref().unwrap();
    assert_eq!(u.graphs, 31);
    assert!(summary.render().contains("universe: graphs 31"));

    let explorer = std::fs::read_to_string("specs/explorer_batch.scn").unwrap();
    let summary = run_spec_text(&explorer, None).unwrap();
    assert!(summary.clean(), "{:?}", summary.outcome.violations);
    let x = summary.outcome.explorer.as_ref().unwrap();
    assert_eq!(x.batches, 2);
    assert_eq!(x.checked, 2 * x.classes);
    assert!(summary.render().contains("explorer: batches 2"));
}

/// Deterministic replay: the universe report is byte-identical across
/// thread counts — the whole aggregate, not just a few fields, pinned
/// via the Debug rendering so any new field is covered automatically.
#[test]
fn universe_report_is_thread_count_invariant() {
    let base = UniverseConfig {
        max_n: 4,
        ..UniverseConfig::default()
    };
    let one = run_universe(&UniverseConfig {
        threads: 1,
        ..base.clone()
    })
    .unwrap();
    let reference = format!("{one:?}");
    for threads in [2, 8] {
        let multi = run_universe(&UniverseConfig {
            threads,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(
            reference,
            format!("{multi:?}"),
            "universe report diverged at {threads} threads"
        );
    }
}
