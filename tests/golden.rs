//! Golden regression values: exact outputs for fixed seeds.
//!
//! The whole workspace is seed-deterministic, so any change to the
//! healing logic, ID propagation, RNG streams or tie-breaking shows up
//! here first. If a change is *intentional* (e.g. a different ordering
//! rule), update the constants and note it in the commit.
//!
//! Current constants are captured against the vendored deterministic
//! `StdRng` (xoshiro256++; see `vendor/rand`) — the offline build cannot
//! use upstream rand's ChaCha12 stream, so the seed-era values were
//! re-pinned when the workspace first built. Structural assertions
//! (round counts, edge counts, violation-free reports) are unchanged.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::attack::{MaxNode, NeighborOfMax};
use selfheal_core::dash::Dash;
use selfheal_core::levelattack::run_level_attack;
use selfheal_core::scenario::ScenarioEngine;
use selfheal_core::sdash::Sdash;
use selfheal_core::state::HealingNetwork;
use selfheal_graph::generators::barabasi_albert;

fn golden_dash_expected() -> (i64, u32, u64, u64) {
    // Captured from the initial verified implementation (vendored RNG).
    (2, 3, 270, 1206)
}

fn golden_sdash_expected() -> (i64, u32, u64, u64) {
    // Captured from the initial verified implementation (vendored RNG).
    (2, 3, 163, 1205)
}

#[test]
fn golden_levelattack() {
    let r = run_level_attack(Dash, 2, 4, 2008);
    assert_eq!(
        (r.n, r.rounds, r.max_delta_ever, r.max_leaf_delta_ever),
        (341, 118, 5, 5)
    );
}

#[test]
fn golden_graph_generation() {
    let g = barabasi_albert(64, 3, &mut StdRng::seed_from_u64(2008));
    // Fingerprint the edge set without storing it: sum of lo*31+hi.
    let fp: u64 = g
        .edges()
        .map(|e| e.lo().0 as u64 * 31 + e.hi().0 as u64)
        .sum();
    assert_eq!(g.edge_count(), 186);
    assert_eq!(fp, golden_ba_fingerprint(), "BA generator stream changed");
}

fn golden_ba_fingerprint() -> u64 {
    79_390
}

/// Byte-identity of the full healing *trajectory*, not just the final
/// aggregates: every round's victim, reconstruction set, added edges and
/// propagation accounting is folded into one FNV-1a fingerprint. The
/// pooled-adjacency store, the degree-bucket extremes, the live-bitmap
/// sampler and the restricted broadcast all sit under this hash — any
/// deviation in any round of either healer moves it.
#[test]
fn golden_trajectory_fingerprint_is_byte_identical() {
    fn fnv(h: &mut u64, x: u64) {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let fingerprint = |sdash: bool| -> u64 {
        let g = barabasi_albert(100, 3, &mut StdRng::seed_from_u64(2008));
        let mut net = HealingNetwork::new(g, 2008);
        let mut dash = Dash;
        let mut sd = Sdash;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        while let Some(v) = net.graph().max_degree_node() {
            let ctx = net.delete_node(v).unwrap();
            let outcome = if sdash {
                selfheal_core::strategy::Healer::heal(&mut sd, &mut net, &ctx)
            } else {
                selfheal_core::strategy::Healer::heal(&mut dash, &mut net, &ctx)
            };
            let rep = net.propagate_min_id_uniform(&outcome.rt_members);
            fnv(&mut h, v.0 as u64);
            for &m in &outcome.rt_members {
                fnv(&mut h, m.0 as u64 + 1);
            }
            for &(a, b) in &outcome.edges_added {
                fnv(&mut h, (a.0 as u64) << 32 | b.0 as u64);
            }
            fnv(&mut h, rep.changed);
            fnv(&mut h, rep.messages);
            fnv(&mut h, rep.latency);
        }
        h
    };
    assert_eq!(
        (fingerprint(false), fingerprint(true)),
        golden_trajectory_expected(),
        "healing trajectory diverged from the pre-refactor stream"
    );
}

fn golden_trajectory_expected() -> (u64, u64) {
    // Captured from the Vec<Vec<_>> adjacency era; the pooled store must
    // reproduce it bit for bit.
    (3_217_964_881_233_481_011, 224_464_964_141_436_817)
}

/// The unified event-driven engine must reproduce the legacy goldens
/// *exactly* — same RNG streams, tie-breaking, and accounting — proving
/// the refactor changed structure, not behavior.
#[test]
fn golden_scenario_engine_matches_legacy_goldens() {
    let g = barabasi_albert(100, 3, &mut StdRng::seed_from_u64(2008));
    let mut engine = ScenarioEngine::new(HealingNetwork::new(g, 2008), Dash, MaxNode);
    let r = engine.run_to_empty();
    assert_eq!(r.rounds, 100);
    assert_eq!(r.deletions, 100);
    assert_eq!(
        (
            r.max_delta_ever,
            r.max_id_changes,
            r.total_edges_added,
            r.total_messages
        ),
        golden_dash_expected(),
        "ScenarioEngine diverged from the DASH/MaxNode golden: {r:?}"
    );

    let g = barabasi_albert(100, 3, &mut StdRng::seed_from_u64(2008));
    let mut engine = ScenarioEngine::new(
        HealingNetwork::new(g, 2008),
        Sdash,
        NeighborOfMax::new(2008),
    );
    let r = engine.run_to_empty();
    assert_eq!(
        (
            r.max_delta_ever,
            r.max_id_changes,
            r.total_edges_added,
            r.total_messages
        ),
        golden_sdash_expected(),
        "ScenarioEngine diverged from the SDASH/NMS golden: {r:?}"
    );
}
