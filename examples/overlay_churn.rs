//! Skype-style P2P overlay under churn — the scenario that motivates the
//! paper (its introduction opens with the August 2007 Skype outage, where
//! the overlay's self-healing failed for 48 hours).
//!
//! We model a supernode overlay as a power-law graph and subject it to a
//! genuinely mixed event stream through the unified `ScenarioEngine`:
//! targeted attacks on well-connected peers, random leaves, occasional
//! *joins* of new peers, and a rack-sized simultaneous failure at the end
//! of every wave — healing with SDASH so that both degrees (supernode
//! load) and route lengths (call setup latency) stay bounded. After each
//! wave we report what an operator would watch: connectivity, maximum
//! peer load, and routing stretch.
//!
//! ```text
//! cargo run --release --example overlay_churn
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal::core::batch::independent_victims;
use selfheal::metrics::StretchBaseline;
use selfheal::prelude::*;

/// Churn model: every 3rd event is a targeted attack (NMS), every 10th a
/// new peer joining 2–3 existing supernodes, every 50th a simultaneous
/// 8-peer rack failure; the rest are random leaves.
struct OverlayChurn {
    targeted: NeighborOfMax,
    random: RandomAttack,
    rng: selfheal::sim::SplitMix64,
    event: u64,
}

impl EventSource for OverlayChurn {
    fn name(&self) -> &'static str {
        "overlay-churn"
    }

    // Batch victims and join targets go into the engine's `ids` buffer
    // and are lent back as the event's slice.
    fn next_event_into<'a>(
        &mut self,
        net: &HealingNetwork,
        ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>> {
        self.event += 1;
        if self.event.is_multiple_of(50) {
            *ids = independent_victims(net, 8, |v| net.graph().degree(v) as i64);
            return Some(EventRef::DeleteBatch(ids));
        }
        if self.event.is_multiple_of(10) {
            let live: Vec<NodeId> = net.graph().live_nodes().collect();
            let k = (2 + self.rng.gen_range(2) as usize).min(live.len());
            ids.clear();
            while ids.len() < k {
                let cand = *self.rng.choose(&live);
                if !ids.contains(&cand) {
                    ids.push(cand);
                }
            }
            return Some(EventRef::Join(ids));
        }
        if self.event.is_multiple_of(3) {
            self.targeted.next_event_into(net, ids)
        } else {
            self.random.next_event_into(net, ids)
        }
    }
}

fn main() {
    let n = 600;
    let seed = 1607;
    let mut rng = StdRng::seed_from_u64(seed);
    let overlay = generators::barabasi_albert(n, 3, &mut rng);
    println!(
        "overlay up: {} peers, {} links, max peer degree {}",
        overlay.live_node_count(),
        overlay.edge_count(),
        selfheal::graph::properties::degree_stats(&overlay)
            .unwrap()
            .max
    );

    let baseline = StretchBaseline::new(&overlay, 2);
    let net = HealingNetwork::new(overlay, seed);
    let churn = OverlayChurn {
        targeted: NeighborOfMax::new(seed),
        random: RandomAttack::new(seed ^ 0xFF),
        rng: selfheal::sim::SplitMix64::new(seed ^ 0xABCD),
        event: 0,
    };
    let mut engine = ScenarioEngine::new(net, Sdash, churn);

    // Drive five waves of churn, each roughly 10% of the original peers.
    let wave = (n / 10) as u64;
    println!(
        "\n{:>5} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "wave", "peers", "max load", "max d-incr", "stretch", "joins"
    );
    for w in 1..=5 {
        for _ in 0..wave {
            if engine.step().is_none() {
                break;
            }
        }
        let g = engine.net.graph();
        let connected = selfheal::graph::components::is_connected(g);
        assert!(connected, "overlay partitioned during wave {w}!");
        let max_load = g.live_nodes().map(|v| g.degree(v)).max().unwrap_or(0);
        let stretch = baseline
            .stretch_of(g, 2)
            .map(|r| format!("{:.2}", r.stretch))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>5} {:>10} {:>10} {:>12} {:>10} {:>8}",
            w,
            g.live_node_count(),
            max_load,
            engine.net.max_delta_alive(),
            stretch,
            engine.report().joins
        );
    }

    let report = engine.report();
    println!(
        "\nsurvived heavy churn ({} deletions incl. rack failures, {} joins): \
         overlay still connected, no peer's degree grew by more than {} \
         (bound: {:.1})",
        report.deletions,
        report.joins,
        engine.net.max_delta_alive().max(0),
        2.0 * (engine.net.total_created() as f64).log2()
    );
}
