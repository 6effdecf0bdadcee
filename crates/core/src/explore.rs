//! Interleaving schedule explorer: centralized/distributed parity under
//! **every** batch-notification delivery order.
//!
//! A simultaneous deletion batch leaves the fabric one degree of
//! freedom: the order in which the per-neighbor death notifications
//! land ([`BatchSchedule`]). The parity suite pins a single order
//! (round-robin); this module proves the choice does not matter, by
//! enumerating delivery orders for small batch scenarios and asserting
//! that every one reproduces the centralized engine byte for byte.
//!
//! ## The DPOR argument
//!
//! Enumerating raw interleavings is hopeless (a batch with `N`
//! notifications has `N!` of them), but almost all of them *commute*, in
//! the partial-order-reduction sense:
//!
//! - all victims are dead before any notification fires
//!   ([`Simulator::delete_batch`](selfheal_sim::Simulator::delete_batch)
//!   phase 1), so liveness — and with it each victim's coordinator, its
//!   first live former neighbor — is fixed before the first delivery;
//! - a non-coordinator notification stands down without touching state,
//!   so it commutes with everything;
//! - a coordinator notification only *parks* its victim for the
//!   quiescence barrier; heals then run one per barrier round in
//!   parking order.
//!
//! The only observable choice a schedule makes is therefore the **order
//! in which the `k` coordinator notifications land** — the victims'
//! parking order — collapsing `N!` interleavings into `k!` equivalence
//! classes per batch. The explorer enumerates one canonical
//! representative per class ([`BatchSchedule::VictimOrder`]) and checks
//! exact parity against the centralized engine healing the same victims
//! in the same order; optionally it replays each class through a second,
//! deliberately different representative ([`BatchSchedule::Explicit`]
//! with all non-coordinator deliveries front-loaded) to validate the
//! commutation claim itself empirically.
//!
//! [`explore_events`] is the exhaustive entry point (wired to
//! `backend = explorer` in `.scn` specs); [`check_seeded_orders`] is the
//! stochastic cousin the proptests run at sizes exhaustion cannot reach.

use crate::distributed_runner::DistributedScenarioRunner;
use crate::exhaustive::permutations;
use crate::scenario::{sanitize_batch, NetworkEvent, ScenarioEngine, ScriptedEvents};
use crate::spec::{parity_event, parity_final, HealerSpec, SpecError};
use crate::state::HealingNetwork;
use selfheal_graph::{Graph, NodeId};
use selfheal_sim::{BatchSchedule, SplitMix64};

/// Configuration of one exploration.
#[derive(Clone, Copy, Debug)]
pub struct ExplorerConfig {
    /// Refuse scenarios whose equivalence-class product `Π kᵢ!` exceeds
    /// this (each class is two full runs).
    pub max_classes: u64,
    /// Re-run every class through a second, different representative
    /// interleaving (non-coordinator deliveries front-loaded) to
    /// empirically validate that same-class schedules commute.
    pub equivalence_replays: bool,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            max_classes: 1024,
            equivalence_replays: true,
        }
    }
}

/// Findings kept verbatim; the full count stays exact.
const MAX_KEPT: usize = 16;

/// Outcome of a schedule exploration.
#[derive(Clone, Debug, Default)]
pub struct ExplorerReport {
    /// Events in the explored scenario.
    pub events: u64,
    /// Multi-victim batch events (the reordering points).
    pub batches: u64,
    /// Raw delivery interleavings represented (`Π Nᵢ!` over batches,
    /// saturating).
    pub interleavings: u128,
    /// DPOR equivalence classes enumerated (`Π kᵢ!`).
    pub classes: u64,
    /// Parity runs actually executed (classes, doubled when equivalence
    /// replays are on).
    pub checked: u64,
    /// Exact number of parity violations found.
    pub violation_count: u64,
    /// Up to `MAX_KEPT` violation messages, each naming the victim
    /// orders that produced it.
    pub violations: Vec<String>,
    /// Whether violation messages were dropped after the cap.
    pub truncated: bool,
}

impl ExplorerReport {
    /// Interleavings dismissed by the commutation argument instead of
    /// being run.
    pub fn pruned(&self) -> u128 {
        self.interleavings.saturating_sub(self.classes as u128)
    }

    /// Fraction of raw interleavings pruned (0 when there was nothing
    /// to reorder).
    pub fn prune_ratio(&self) -> f64 {
        if self.interleavings == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.interleavings as f64
        }
    }

    /// Whether parity held under every explored schedule.
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }

    fn absorb(&mut self, finding: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_KEPT {
            self.violations.push(finding);
        } else {
            self.truncated = true;
        }
    }
}

/// Which representative of an equivalence class a variant run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Representative {
    /// Victim-major in parking order (`BatchSchedule::VictimOrder`).
    VictimMajor,
    /// All non-coordinator deliveries first (round-robin over slots
    /// ≥ 1), then the coordinator notifications in parking order — a
    /// maximally different member of the same class.
    LateCoordinators,
}

/// Shape of one batch event: (sanitized victim count, notification
/// count).
type BatchShape = (usize, usize);

/// Replay `events` through both implementations with the given per-batch
/// victim orders and compare everything observable. `order_for(batch,
/// k)` returns the parking order for the `batch`-th multi-victim batch;
/// it must be a permutation of `0..k`. Returns the batch shapes seen.
fn run_variant(
    g: &Graph,
    healer: HealerSpec,
    seed: u64,
    events: &[NetworkEvent],
    order_for: &mut dyn FnMut(usize, usize) -> Vec<usize>,
    representative: Representative,
) -> Result<Vec<BatchShape>, String> {
    let mode = healer
        .heal_mode(crate::spec::BackendSpec::Explorer)
        .map_err(|e| e.to_string())?;
    let net = HealingNetwork::new(g.clone(), seed);
    let mut engine = ScenarioEngine::new(net, healer.build(), ScriptedEvents::default());
    let mut runner = DistributedScenarioRunner::with_mode(mode, g, seed);
    let mut shapes = Vec::new();
    let mut scratch: Vec<NodeId> = Vec::new();

    for event in events {
        let (central, dist) = match event {
            NetworkEvent::DeleteBatch(victims) => {
                // Resolve the batch against the current state with the
                // shared sanitization rules, on both sides, and insist
                // they agree — a shape divergence would itself be a
                // parity bug.
                sanitize_batch(
                    &mut scratch,
                    victims.iter().copied(),
                    |v| engine.net.is_alive(v),
                    |u, v| engine.net.graph().has_edge(u, v),
                );
                let sv = scratch.clone();
                let mut fabric_view: Vec<u32> = Vec::new();
                sanitize_batch(
                    &mut fabric_view,
                    victims.iter().map(|v| v.0),
                    |v| runner.topology().is_alive(v),
                    |u, v| runner.topology().has_edge(u, v),
                );
                if fabric_view != sv.iter().map(|v| v.0).collect::<Vec<u32>>() {
                    return Err(format!(
                        "batch {} sanitizes differently: engine {sv:?}, fabric {fabric_view:?}",
                        shapes.len()
                    ));
                }
                let k = sv.len();
                let order = order_for(shapes.len(), k);
                let degrees: Vec<usize> = sv
                    .iter()
                    .map(|v| runner.topology().neighbors(v.0).len())
                    .collect();
                shapes.push((k, degrees.iter().sum()));

                let schedule = match representative {
                    Representative::VictimMajor => BatchSchedule::VictimOrder(order.clone()),
                    Representative::LateCoordinators => {
                        // Every victim's coordinator is its slot-0 former
                        // neighbor (the whole batch died in phase 1, so
                        // every former neighbor is live). Deliver all
                        // other slots first, then slot 0 per victim in
                        // parking order.
                        let max_degree = degrees.iter().copied().max().unwrap_or(0);
                        let mut pairs = Vec::new();
                        for slot in 1..max_degree {
                            for (v, &deg) in degrees.iter().enumerate() {
                                if slot < deg {
                                    pairs.push((v, slot));
                                }
                            }
                        }
                        for &v in &order {
                            if degrees[v] > 0 {
                                pairs.push((v, 0));
                            }
                        }
                        BatchSchedule::Explicit(pairs)
                    }
                };
                runner.set_batch_schedule(schedule);
                // Centralized side: heal the same victims in parking
                // order. Permuting an already-independent set is
                // sanitization-invariant, so both sides still delete the
                // same set.
                let permuted: Vec<NodeId> = order.iter().map(|&i| sv[i]).collect();
                let central = engine.apply(NetworkEvent::DeleteBatch(permuted));
                let dist = runner.apply(event);
                (central, dist)
            }
            other => {
                let central = engine.apply(other.clone());
                let dist = runner.apply(other);
                (central, dist)
            }
        };
        parity_event(&central, &dist)?;
    }
    engine.finish();
    parity_final(&engine.net, &runner)?;
    Ok(shapes)
}

/// Saturating `n!` as `u128`.
fn factorial_u128(n: usize) -> u128 {
    (2..=n as u128)
        .try_fold(1u128, |acc, i| acc.checked_mul(i))
        .unwrap_or(u128::MAX)
}

/// Exhaustively explore every DPOR equivalence class of notification
/// schedules for `events` on `g`, checking centralized/distributed
/// parity under each. See the module docs for why `Π kᵢ!` classes cover
/// all `Π Nᵢ!` interleavings.
///
/// # Errors
/// Rejects fabric-incapable healers and scenarios whose class count
/// exceeds `cfg.max_classes`.
pub fn explore_events(
    g: &Graph,
    healer: HealerSpec,
    seed: u64,
    events: &[NetworkEvent],
    cfg: &ExplorerConfig,
) -> Result<ExplorerReport, SpecError> {
    healer.heal_mode(crate::spec::BackendSpec::Explorer)?;
    let mut report = ExplorerReport {
        events: events.len() as u64,
        interleavings: 1,
        classes: 1,
        ..ExplorerReport::default()
    };

    // Discovery pass: identity orders, recording each batch's shape.
    let shapes = run_variant(
        g,
        healer,
        seed,
        events,
        &mut |_, k| (0..k).collect(),
        Representative::VictimMajor,
    )
    .map_err(|e| SpecError::Invalid(format!("explorer discovery run failed: {e}")))?;

    for &(k, notifications) in &shapes {
        if k > 1 {
            report.batches += 1;
        }
        report.interleavings = report
            .interleavings
            .saturating_mul(factorial_u128(notifications));
        let classes_here = factorial_u128(k).min(u64::MAX as u128) as u64;
        report.classes = report.classes.saturating_mul(classes_here);
        if report.classes > cfg.max_classes {
            return Err(SpecError::Invalid(format!(
                "schedule explorer would enumerate more than {} classes \
                 (batch shapes {shapes:?}); shrink the batches or raise max_classes",
                cfg.max_classes
            )));
        }
    }

    // Odometer over per-batch victim orders: one canonical run per
    // class, plus an optional maximally-different same-class replay.
    let perms_per_batch: Vec<Vec<Vec<usize>>> =
        shapes.iter().map(|&(k, _)| permutations(k)).collect();
    let mut combo: Vec<usize> = vec![0; shapes.len()];
    loop {
        let label: Vec<&Vec<usize>> = combo
            .iter()
            .zip(&perms_per_batch)
            .map(|(&c, perms)| &perms[c])
            .collect();
        for representative in [
            Representative::VictimMajor,
            Representative::LateCoordinators,
        ] {
            if representative == Representative::LateCoordinators && !cfg.equivalence_replays {
                continue;
            }
            let outcome = run_variant(
                g,
                healer,
                seed,
                events,
                &mut |batch, _| perms_per_batch[batch][combo[batch]].clone(),
                representative,
            );
            report.checked += 1;
            if let Err(e) = outcome {
                report.absorb(format!("orders {label:?} ({representative:?}): {e}"));
            }
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == combo.len() {
                return Ok(report);
            }
            combo[i] += 1;
            if combo[i] < perms_per_batch[i].len() {
                break;
            }
            combo[i] = 0;
            i += 1;
        }
    }
}

/// Parity under *seeded random* victim orders — the stochastic cousin of
/// [`explore_events`], usable at sizes where `Π kᵢ!` is out of reach.
/// Each batch's parking order is an independent seeded shuffle derived
/// from `order_seed`. Returns the number of multi-victim batches
/// actually reordered.
///
/// # Errors
/// Returns the first parity violation (or fabric rejection) as a
/// readable message.
pub fn check_seeded_orders(
    g: &Graph,
    healer: HealerSpec,
    seed: u64,
    events: &[NetworkEvent],
    order_seed: u64,
) -> Result<u64, String> {
    let root = SplitMix64::new(order_seed);
    let mut reordered = 0u64;
    let shapes = run_variant(
        g,
        healer,
        seed,
        events,
        &mut |batch, k| {
            let mut order: Vec<usize> = (0..k).collect();
            root.derive(batch as u64).shuffle(&mut order);
            if k > 1 {
                reordered += 1;
            }
            order
        },
        Representative::VictimMajor,
    )?;
    let _ = shapes;
    Ok(reordered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_graph::generators::{barabasi_albert, cycle_graph};

    fn two_batch_events() -> Vec<NetworkEvent> {
        // The second batch sits far from the first batch's healing zone
        // so its victims stay non-adjacent and it keeps k = 2.
        vec![
            NetworkEvent::DeleteBatch(vec![NodeId(0), NodeId(2), NodeId(4)]),
            NetworkEvent::Delete(NodeId(8)),
            NetworkEvent::DeleteBatch(vec![NodeId(11), NodeId(13)]),
            NetworkEvent::Join {
                neighbors: vec![NodeId(5), NodeId(6)],
            },
        ]
    }

    #[test]
    fn explorer_proves_parity_on_a_two_batch_cycle_scenario() {
        let g = cycle_graph(16);
        for healer in [HealerSpec::Dash, HealerSpec::Sdash] {
            let report = explore_events(
                &g,
                healer,
                17,
                &two_batch_events(),
                &ExplorerConfig::default(),
            )
            .unwrap();
            assert_eq!(report.batches, 2);
            assert_eq!(report.classes, 12, "3! x 2! parking orders");
            assert_eq!(report.checked, 2 * report.classes);
            assert!(report.interleavings > report.classes as u128);
            assert!(report.prune_ratio() > 0.9);
            assert!(report.is_clean(), "{healer}: {:#?}", report.violations);
        }
    }

    #[test]
    fn class_cap_is_enforced_with_a_readable_error() {
        let g = cycle_graph(16);
        let cfg = ExplorerConfig {
            max_classes: 4,
            ..ExplorerConfig::default()
        };
        let err = explore_events(&g, HealerSpec::Dash, 17, &two_batch_events(), &cfg)
            .unwrap_err()
            .to_string();
        assert!(err.contains("classes"), "{err}");
    }

    #[test]
    fn fabric_incapable_healers_are_rejected() {
        let g = cycle_graph(6);
        assert!(explore_events(
            &g,
            HealerSpec::GraphHeal,
            1,
            &[],
            &ExplorerConfig::default()
        )
        .is_err());
    }

    #[test]
    fn seeded_orders_hold_parity_on_a_larger_graph() {
        let g = barabasi_albert(32, 3, &mut StdRng::seed_from_u64(11));
        let events = vec![
            NetworkEvent::DeleteBatch(vec![NodeId(0), NodeId(9), NodeId(17), NodeId(25)]),
            NetworkEvent::DeleteBatch(vec![NodeId(2), NodeId(12), NodeId(22)]),
        ];
        for order_seed in 0..4 {
            let reordered =
                check_seeded_orders(&g, HealerSpec::Sdash, 11, &events, order_seed).unwrap();
            assert_eq!(reordered, 2);
        }
    }
}
