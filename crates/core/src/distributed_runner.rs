//! The sim-side twin of [`ScenarioEngine`](crate::scenario::ScenarioEngine):
//! drives [`DistributedDash`] on the `selfheal-sim` fabric through the
//! same [`NetworkEvent`] vocabulary the centralized engine consumes.
//!
//! The runner replicates the engine's event sanitization *exactly* —
//! dead victims no-op, batches thin to independent sets keeping earlier
//! victims, joins drop dead targets and skip when every target died —
//! so a schedule replayed against both produces the same effective
//! reconfiguration stream. The parity suite (`tests/distributed_parity.rs`)
//! then asserts the strongest claim this repo makes about the paper's
//! accounting: for arbitrary mixed Delete/DeleteBatch/Join schedules the
//! real message-passing protocol reproduces the centralized engine's
//! final topology, healing forest, component IDs and per-event message
//! counts byte for byte, under both DASH and SDASH.
//!
//! Batch events use the fabric's simultaneous kill
//! ([`Simulator::delete_batch`]): all victims die at once, per-neighbor
//! notifications interleave in the order the fabric's [`BatchSchedule`]
//! dictates (round-robin across victims by default), coordinators
//! park their rounds, and the quiescence barrier serializes heal +
//! broadcast per victim — the distributed realization of
//! `batch::heal_batch_into`'s one-accounting-rule semantics
//! (messages add across a round's victims, Lemma 8).

use crate::distributed::{DistributedDash, HealMode};
use crate::scenario::{sanitize_batch, sanitize_join, EventKind, NetworkEvent};
use selfheal_graph::Graph;
use selfheal_sim::{BatchSchedule, SimMetrics, Simulator, Topology};

/// What one event did to the distributed run. The distributed analogue
/// of [`EventRecord`](crate::scenario::EventRecord), with fabric-level
/// delivery accounting instead of modeled propagation reports.
#[derive(Clone, Copy, Debug)]
pub struct DistEventRecord {
    /// 1-based event number (all kinds).
    pub event: u64,
    /// The event's kind.
    pub kind: EventKind,
    /// The victim of a single deletion (even when already dead).
    pub deleted: Option<u32>,
    /// Nodes actually deleted by this event after sanitization.
    pub victims: usize,
    /// The node created by a join.
    pub joined: Option<u32>,
    /// Protocol messages *sent* during this event — the distributed
    /// counterpart of the engine's `propagation.messages` (Lemma 8: each
    /// ID adoption broadcasts to all current neighbors).
    pub messages: u64,
    /// Messages delivered while draining this event.
    pub delivered: u64,
    /// Messages dropped (recipient died in flight) during this event.
    pub dropped: u64,
}

impl DistEventRecord {
    fn empty(event: u64, kind: EventKind) -> Self {
        DistEventRecord {
            event,
            kind,
            deleted: None,
            victims: 0,
            joined: None,
            messages: 0,
            delivered: 0,
            dropped: 0,
        }
    }
}

/// Aggregate statistics over a distributed scenario run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistScenarioReport {
    /// Events consumed (including sanitized no-ops).
    pub events: u64,
    /// Healing rounds (each `Delete` or non-empty `DeleteBatch`).
    pub rounds: u64,
    /// Individual nodes deleted.
    pub deletions: u64,
    /// Nodes joined.
    pub joins: u64,
    /// Total protocol messages sent.
    pub total_messages: u64,
    /// Total messages delivered.
    pub total_delivered: u64,
    /// Total messages dropped.
    pub total_dropped: u64,
}

/// Replays [`NetworkEvent`] schedules against [`DistributedDash`] on the
/// simulator fabric, with engine-identical sanitization.
///
/// # Examples
/// ```
/// use rand::SeedableRng;
/// use selfheal_core::distributed_runner::DistributedScenarioRunner;
/// use selfheal_core::scenario::NetworkEvent;
/// use selfheal_graph::{generators::star_graph, NodeId};
///
/// let g = star_graph(6);
/// let mut runner = DistributedScenarioRunner::new(&g, 7);
/// let rec = runner.apply(&NetworkEvent::Delete(NodeId(0)));
/// assert_eq!(rec.victims, 1);
/// // The five spokes were re-wired into one connected component.
/// assert_eq!(runner.topology().live_count(), 5);
/// ```
pub struct DistributedScenarioRunner {
    sim: Simulator<DistributedDash>,
    report: DistScenarioReport,
    /// Sanitized-victim scratch, reused across events.
    batch: Vec<u32>,
}

impl DistributedScenarioRunner {
    /// Distributed DASH runner over a mirror of `graph`, with the same
    /// seeded ID permutation a [`HealingNetwork`](crate::state::HealingNetwork)
    /// built from `(graph, seed)` would assign.
    ///
    /// # Panics
    /// Panics if `graph` contains tombstoned nodes (mirroring
    /// `HealingNetwork::new`).
    pub fn new(graph: &Graph, seed: u64) -> Self {
        Self::with_mode(HealMode::Dash, graph, seed)
    }

    /// Runner with an explicit healing mode (DASH or SDASH).
    pub fn with_mode(mode: HealMode, graph: &Graph, seed: u64) -> Self {
        let n = graph.node_bound();
        assert_eq!(
            graph.live_node_count(),
            n,
            "initial graph must have all nodes alive"
        );
        let edges: Vec<(u32, u32)> = graph.edges().map(|e| (e.lo().0, e.hi().0)).collect();
        let topology = Topology::from_edges(n, &edges);
        let degrees: Vec<u32> = (0..n as u32)
            .map(|v| topology.neighbors(v).len() as u32)
            .collect();
        let protocol = DistributedDash::with_mode(mode, degrees, seed);
        DistributedScenarioRunner {
            sim: Simulator::new(topology, protocol),
            report: DistScenarioReport::default(),
            batch: Vec::new(),
        }
    }

    /// The underlying simulator (topology, protocol, metrics).
    pub fn sim(&self) -> &Simulator<DistributedDash> {
        &self.sim
    }

    /// The fabric's topology view.
    pub fn topology(&self) -> &Topology {
        &self.sim.topology
    }

    /// The protocol state (component IDs, healing forest, ID changes).
    pub fn protocol(&self) -> &DistributedDash {
        &self.sim.protocol
    }

    /// Per-node fabric message counters.
    pub fn metrics(&self) -> &SimMetrics {
        &self.sim.metrics
    }

    /// The report accumulated so far.
    pub fn report(&self) -> DistScenarioReport {
        self.report
    }

    /// Choose the fabric's batch-notification delivery order for every
    /// subsequent `DeleteBatch` event — the schedule explorer's control
    /// hook. Defaults to [`BatchSchedule::RoundRobin`].
    pub fn set_batch_schedule(&mut self, schedule: BatchSchedule) {
        self.sim.set_batch_schedule(schedule);
    }

    /// Apply one event: sanitize (engine rules), reconfigure the fabric,
    /// and drain to quiescence. Returns what happened.
    pub fn apply(&mut self, event: &NetworkEvent) -> DistEventRecord {
        self.report.events += 1;
        let record = match event {
            NetworkEvent::Delete(v) => self.apply_delete(v.0),
            NetworkEvent::DeleteBatch(victims) => self.apply_batch(victims),
            NetworkEvent::Join { neighbors } => self.apply_join(neighbors),
        };
        self.report.total_messages += record.messages;
        self.report.total_delivered += record.delivered;
        self.report.total_dropped += record.dropped;
        record
    }

    /// Replay a whole schedule; one record per event.
    pub fn run_schedule(&mut self, schedule: &[NetworkEvent]) -> Vec<DistEventRecord> {
        schedule.iter().map(|e| self.apply(e)).collect()
    }

    /// Drain the current event and charge its accounting to `record`.
    fn drain_into(&mut self, record: &mut DistEventRecord, sent_before: u64) {
        let q = self.sim.run_to_quiescence();
        record.messages = self.sim.metrics.total_sent() - sent_before;
        record.delivered = q.delivered;
        record.dropped = q.dropped;
    }

    fn apply_delete(&mut self, v: u32) -> DistEventRecord {
        let mut record = DistEventRecord::empty(self.report.events, EventKind::Delete);
        record.deleted = Some(v);
        if !self.sim.topology.is_alive(v) {
            return record;
        }
        self.report.rounds += 1;
        self.report.deletions += 1;
        record.victims = 1;
        let sent_before = self.sim.metrics.total_sent();
        self.sim.delete_node(v);
        self.drain_into(&mut record, sent_before);
        record
    }

    fn apply_batch(&mut self, victims: &[selfheal_graph::NodeId]) -> DistEventRecord {
        let mut record = DistEventRecord::empty(self.report.events, EventKind::DeleteBatch);
        // Engine-identical by construction: the same `sanitize_batch` the
        // scenario engine runs, over the fabric's topology.
        let topology = &self.sim.topology;
        sanitize_batch(
            &mut self.batch,
            victims.iter().map(|v| v.0),
            |v| topology.is_alive(v),
            |u, v| topology.has_edge(u, v),
        );
        if self.batch.is_empty() {
            return record;
        }
        self.report.rounds += 1;
        self.report.deletions += self.batch.len() as u64;
        record.victims = self.batch.len();
        let sent_before = self.sim.metrics.total_sent();
        let batch = std::mem::take(&mut self.batch);
        self.sim.delete_batch(&batch);
        self.batch = batch;
        self.drain_into(&mut record, sent_before);
        record
    }

    fn apply_join(&mut self, neighbors: &[selfheal_graph::NodeId]) -> DistEventRecord {
        let mut record = DistEventRecord::empty(self.report.events, EventKind::Join);
        // Engine-identical by construction (shared `sanitize_join`): a
        // join whose (non-empty) target list sanitizes to nothing is
        // skipped, an explicitly empty list creates an isolated node.
        let topology = &self.sim.topology;
        sanitize_join(&mut self.batch, neighbors.iter().map(|v| v.0), |u| {
            topology.is_alive(u)
        });
        if self.batch.is_empty() && !neighbors.is_empty() {
            return record;
        }
        let batch = std::mem::take(&mut self.batch);
        let joined = self.sim.join_node(&batch);
        self.batch = batch;
        self.report.joins += 1;
        record.joined = Some(joined);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_graph::generators::{cycle_graph, path_graph, star_graph};
    use selfheal_graph::NodeId;

    #[test]
    fn dead_and_stale_events_are_noops() {
        let g = path_graph(3);
        let mut runner = DistributedScenarioRunner::new(&g, 1);
        let rec = runner.apply(&NetworkEvent::Delete(NodeId(1)));
        assert_eq!(rec.victims, 1);
        let rec = runner.apply(&NetworkEvent::Delete(NodeId(1)));
        assert_eq!(rec.victims, 0);
        let rec = runner.apply(&NetworkEvent::Delete(NodeId(9)));
        assert_eq!(rec.victims, 0);
        let report = runner.report();
        assert_eq!(report.events, 3);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.deletions, 1);
    }

    #[test]
    fn batch_sanitization_matches_engine_rules() {
        let g = path_graph(6);
        let mut runner = DistributedScenarioRunner::new(&g, 3);
        runner.apply(&NetworkEvent::Delete(NodeId(5)));
        // 5 is dead, 1 duplicates, 2 is adjacent to kept 1.
        let rec = runner.apply(&NetworkEvent::DeleteBatch(vec![
            NodeId(5),
            NodeId(1),
            NodeId(1),
            NodeId(2),
            NodeId(3),
        ]));
        assert_eq!(rec.victims, 2);
        assert!(!runner.topology().is_alive(1));
        assert!(runner.topology().is_alive(2));
        assert!(!runner.topology().is_alive(3));
    }

    #[test]
    fn joins_create_skip_and_isolate() {
        let g = path_graph(3);
        let mut runner = DistributedScenarioRunner::new(&g, 1);
        let rec = runner.apply(&NetworkEvent::Join {
            neighbors: vec![NodeId(0), NodeId(0), NodeId(2)],
        });
        let joined = rec.joined.unwrap();
        assert_eq!(runner.topology().neighbors(joined), &[0, 2]);
        runner.apply(&NetworkEvent::Delete(NodeId(joined)));
        // All targets dead: skipped.
        let rec = runner.apply(&NetworkEvent::Join {
            neighbors: vec![NodeId(joined)],
        });
        assert_eq!(rec.joined, None);
        // Explicitly empty: isolated node allowed.
        let rec = runner.apply(&NetworkEvent::Join { neighbors: vec![] });
        let isolated = rec.joined.unwrap();
        assert_eq!(runner.topology().neighbors(isolated), &[] as &[u32]);
        assert_eq!(runner.report().joins, 2);
    }

    #[test]
    fn batch_event_charges_messages_to_one_record() {
        let g = cycle_graph(10);
        let mut runner = DistributedScenarioRunner::new(&g, 2);
        let victims: Vec<NodeId> = (0..10).step_by(2).map(NodeId).collect();
        let rec = runner.apply(&NetworkEvent::DeleteBatch(victims));
        assert_eq!(rec.victims, 5);
        assert!(rec.messages > 0);
        assert_eq!(rec.messages, runner.report().total_messages);
    }

    #[test]
    fn sdash_mode_runs_the_surrogate_branch() {
        let g = star_graph(16);
        let mut runner = DistributedScenarioRunner::with_mode(HealMode::Sdash, &g, 29);
        for v in 0..8u32 {
            runner.apply(&NetworkEvent::Delete(NodeId(v)));
        }
        assert_eq!(runner.report().rounds, 8);
    }
}
