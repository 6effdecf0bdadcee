//! Correlated failures: whole racks of nodes dying at once.
//!
//! The paper's exposition deletes one node per round but notes (in its
//! first footnote) that DASH handles simultaneous deletions as long as
//! neighbor-of-neighbor knowledge still covers them — i.e. no two
//! adjacent nodes die together. This example drives `DeleteBatch` events
//! of growing size through the unified `ScenarioEngine` (a custom
//! `EventSource` escalates the batch size each wave) and shows
//! connectivity and the degree bound surviving mass failures.
//!
//! ```text
//! cargo run --release --example batch_failures
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal::core::batch::independent_victims;
use selfheal::prelude::*;

/// Escalating disaster: wave `b` kills up to `2^min(b, 6)` independent
/// victims, ranked by degree (the best-connected racks fail first).
struct EscalatingFailures {
    wave: u32,
}

impl EventSource for EscalatingFailures {
    fn name(&self) -> &'static str {
        "escalating-failures"
    }

    // The victims move into the engine's `ids` buffer and are lent back
    // as the batch.
    fn next_event_into<'a>(
        &mut self,
        net: &HealingNetwork,
        ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>> {
        self.wave += 1;
        let k = 1usize << self.wave.min(6);
        *ids = independent_victims(net, k, |v| net.graph().degree(v) as i64);
        if ids.is_empty() {
            None
        } else {
            Some(EventRef::DeleteBatch(ids))
        }
    }
}

fn main() {
    let n = 512;
    let seed = 404;
    let g = generators::barabasi_albert(n, 3, &mut StdRng::seed_from_u64(seed));
    let net = HealingNetwork::new(g, seed);
    let mut engine = ScenarioEngine::new(net, Dash, EscalatingFailures { wave: 0 });
    let bound = 2.0 * (n as f64).log2();

    println!("network: {n} nodes; killing in growing batches (independent victims)\n");
    println!(
        "{:>7} {:>9} {:>10} {:>10} {:>10}",
        "batch#", "killed", "survivors", "max dδ", "messages"
    );

    while let Some(rec) = engine.step() {
        assert!(
            selfheal::graph::components::is_connected(engine.net.graph()),
            "batch {} disconnected the network",
            rec.event
        );
        let max_delta = engine.net.max_delta_alive();
        assert!((max_delta as f64) <= bound, "degree bound violated");
        println!(
            "{:>7} {:>9} {:>10} {:>10} {:>10}",
            rec.event,
            rec.victims,
            engine.net.graph().live_node_count(),
            max_delta,
            rec.propagation.messages
        );
    }

    let report = engine.report();
    println!(
        "\nkilled all {} nodes across {} batches; the network stayed \
         connected after every batch and no node's degree ever grew \
         beyond 2 log2 n = {bound:.1}.",
        report.deletions, report.rounds
    );
}
