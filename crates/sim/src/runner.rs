//! The simulation driver.

use crate::metrics::SimMetrics;
use crate::protocol::{Ctx, DeletionInfo, LatencyModel, Protocol};
use crate::schedule::BatchSchedule;
use crate::scheduler::EventQueue;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::{TraceBuffer, TraceKind};

/// Result of driving the event queue to quiescence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuiescenceReport {
    /// Messages delivered during this drain.
    pub delivered: u64,
    /// Messages dropped (recipient died in flight).
    pub dropped: u64,
    /// Hops of latency the drain took (0 if nothing was in flight).
    pub latency: u64,
}

/// A deterministic discrete-event simulation of a [`Protocol`] over a
/// [`Topology`].
///
/// # Examples
/// A one-shot flood protocol (every node forwards the first token it sees):
/// ```
/// use selfheal_sim::{Simulator, Topology, Protocol, Ctx, DeletionInfo};
///
/// struct Flood { seen: Vec<bool> }
/// impl Protocol for Flood {
///     type Msg = ();
///     fn on_neighbor_deleted(&mut self, _: &mut Ctx<'_, ()>, _: u32, _: &DeletionInfo) {}
///     fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, me: u32, _from: u32, _msg: ()) {
///         if !self.seen[me as usize] {
///             self.seen[me as usize] = true;
///             for &n in ctx.neighbors(me).to_vec().iter() {
///                 ctx.send(me, n, ());
///             }
///         }
///     }
/// }
///
/// let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let mut sim = Simulator::new(topo, Flood { seen: vec![false; 4] });
/// sim.inject(0, 0, ()); // seed the flood
/// let report = sim.run_to_quiescence();
/// assert!(sim.protocol.seen.iter().all(|&s| s));
/// // seed hop + 3 forwarding hops + the last node's redundant echo
/// assert_eq!(report.latency, 5);
/// ```
pub struct Simulator<P: Protocol> {
    /// The network fabric.
    pub topology: Topology,
    /// Protocol state (all nodes).
    pub protocol: P,
    /// Per-node message counters.
    pub metrics: SimMetrics,
    queue: EventQueue<P::Msg>,
    trace: Option<TraceBuffer>,
    latency: LatencyModel,
    now: SimTime,
    batch_schedule: BatchSchedule,
}

impl<P: Protocol> Simulator<P> {
    /// Build a simulator; calls [`Protocol::on_init`] on every live node.
    pub fn new(topology: Topology, protocol: P) -> Self {
        let n = topology.len();
        let mut sim = Simulator {
            topology,
            protocol,
            metrics: SimMetrics::new(n),
            queue: EventQueue::new(),
            trace: None,
            latency: LatencyModel::Unit,
            now: SimTime::ZERO,
            batch_schedule: BatchSchedule::default(),
        };
        let live: Vec<u32> = sim.topology.live_nodes().collect();
        for v in live {
            let mut ctx = Ctx {
                topology: &mut sim.topology,
                queue: &mut sim.queue,
                metrics: &mut sim.metrics,
                trace: sim.trace.as_mut(),
                latency: &mut sim.latency,
                now: sim.now,
            };
            sim.protocol.on_init(&mut ctx, v);
        }
        sim
    }

    /// Enable event tracing with the given capacity.
    pub fn enable_trace(&mut self, capacity_events: usize) {
        self.trace = Some(TraceBuffer::new(capacity_events));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Switch to adversarial asynchronous delivery: each message takes
    /// `1 + uniform(0..=max_extra)` hops, deterministically per seed.
    pub fn set_latency_jitter(&mut self, seed: u64, max_extra: u64) {
        self.latency = LatencyModel::Jitter {
            rng: crate::rng::SplitMix64::new(seed),
            max_extra,
        };
    }

    /// Choose the delivery order of batch-deletion notifications for
    /// every subsequent [`delete_batch`](Self::delete_batch). The default
    /// is [`BatchSchedule::RoundRobin`], the fabric's historical
    /// interleaving.
    pub fn set_batch_schedule(&mut self, schedule: BatchSchedule) {
        self.batch_schedule = schedule;
    }

    /// The currently active batch-notification schedule.
    pub fn batch_schedule(&self) -> &BatchSchedule {
        &self.batch_schedule
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Inject a message from outside the protocol (e.g. to seed a flood).
    pub fn inject(&mut self, from: u32, to: u32, msg: P::Msg) {
        self.metrics.record_sent(from);
        self.queue.push(from, to, self.now.next(), msg);
    }

    /// Delete node `v`: remove it from the fabric and notify each former
    /// neighbor (in increasing id order) with the same [`DeletionInfo`].
    ///
    /// # Panics
    /// Panics if `v` is dead or out of range.
    pub fn delete_node(&mut self, v: u32) -> DeletionInfo {
        let former = self.topology.kill(v);
        if let Some(tr) = self.trace.as_mut() {
            tr.record(TraceKind::Kill, self.now, v, 0);
        }
        let info = DeletionInfo {
            deleted: v,
            former_neighbors: former.clone(),
            simultaneous: false,
        };
        for &u in &former {
            let mut ctx = Ctx {
                topology: &mut self.topology,
                queue: &mut self.queue,
                metrics: &mut self.metrics,
                trace: self.trace.as_mut(),
                latency: &mut self.latency,
                now: self.now,
            };
            self.protocol.on_neighbor_deleted(&mut ctx, u, &info);
        }
        info
    }

    /// Delete an independent set of victims *simultaneously* (the paper's
    /// footnote-1 batch model): every victim is removed from the fabric
    /// before any notification fires, and the per-neighbor notifications
    /// then land in the order the active [`BatchSchedule`] dictates —
    /// round-robin across victims by default (neighbor 1 of victim A,
    /// neighbor 1 of victim B, neighbor 2 of victim A, …), the delivery
    /// pattern a real fabric would produce when several nodes die in the
    /// same instant. Each notification carries `simultaneous: true`, so
    /// batch-safe protocols defer their heals to the
    /// [`Protocol::on_quiescent`] barrier.
    ///
    /// Returns one [`DeletionInfo`] per victim, in input order.
    ///
    /// # Panics
    /// Panics if any victim is dead, out of range, repeated, or adjacent
    /// to another victim — a dependent batch breaks the
    /// neighbor-of-neighbor knowledge assumption, so the fabric refuses
    /// it loudly (callers sanitize, mirroring the scenario engine).
    pub fn delete_batch(&mut self, victims: &[u32]) -> Vec<DeletionInfo> {
        for (i, &v) in victims.iter().enumerate() {
            assert!(self.topology.is_alive(v), "batch victim {v} is dead");
            for &u in &victims[..i] {
                assert!(u != v, "batch victim {v} repeated");
                assert!(
                    !self.topology.has_edge(u, v),
                    "batch victims {u} and {v} are adjacent; the batch must be independent"
                );
            }
        }
        // Phase 1: all victims die before anyone is told.
        let infos: Vec<DeletionInfo> = victims
            .iter()
            .map(|&v| {
                let former = self.topology.kill(v);
                if let Some(tr) = self.trace.as_mut() {
                    tr.record(TraceKind::Kill, self.now, v, 0);
                }
                DeletionInfo {
                    deleted: v,
                    former_neighbors: former,
                    simultaneous: true,
                }
            })
            .collect();
        // Phase 2: notifications land in schedule order (round-robin
        // across victims by default).
        let degrees: Vec<usize> = infos.iter().map(|i| i.former_neighbors.len()).collect();
        for (v, slot) in self.batch_schedule.delivery_order(&degrees) {
            let info = &infos[v];
            let u = info.former_neighbors[slot];
            let mut ctx = Ctx {
                topology: &mut self.topology,
                queue: &mut self.queue,
                metrics: &mut self.metrics,
                trace: self.trace.as_mut(),
                latency: &mut self.latency,
                now: self.now,
            };
            self.protocol.on_neighbor_deleted(&mut ctx, u, info);
        }
        infos
    }

    /// A new node joins the network, attached to the given live nodes,
    /// and the protocol is told via [`Protocol::on_join`]. Returns the
    /// joiner's id (node slots are append-only, matching
    /// [`Topology::add_node`]).
    ///
    /// # Panics
    /// Panics if any attachment target is dead, out of range, or
    /// repeated (callers sanitize, mirroring the scenario engine).
    pub fn join_node(&mut self, neighbors: &[u32]) -> u32 {
        for (i, &u) in neighbors.iter().enumerate() {
            assert!(self.topology.is_alive(u), "join target {u} is dead");
            assert!(!neighbors[..i].contains(&u), "join target {u} repeated");
        }
        let v = self.topology.add_node();
        for &u in neighbors {
            self.topology.add_edge(v, u);
        }
        self.metrics.grow(self.topology.len());
        if let Some(tr) = self.trace.as_mut() {
            tr.record(TraceKind::Join, self.now, v, neighbors.len() as u32);
        }
        let mut ctx = Ctx {
            topology: &mut self.topology,
            queue: &mut self.queue,
            metrics: &mut self.metrics,
            trace: self.trace.as_mut(),
            latency: &mut self.latency,
            now: self.now,
        };
        self.protocol.on_join(&mut ctx, v, neighbors);
        v
    }

    /// Drain the event queue until no messages are in flight **and** the
    /// protocol reports quiescence: whenever the queue empties,
    /// [`Protocol::on_quiescent`] is offered the barrier — if it performs
    /// deferred work (e.g. heals the next victim of a simultaneous
    /// batch), draining resumes; only when it declines is the run over.
    ///
    /// Time advances to the delivery timestamp of each message; the
    /// returned latency is the number of hops between the first and last
    /// activity in this drain.
    pub fn run_to_quiescence(&mut self) -> QuiescenceReport {
        let start = self.now;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        loop {
            while let Some(env) = self.queue.pop() {
                self.now = env.deliver_at;
                if !self.topology.is_alive(env.to) {
                    dropped += 1;
                    self.metrics.dropped += 1;
                    if let Some(tr) = self.trace.as_mut() {
                        tr.record(TraceKind::Drop, self.now, env.from, env.to);
                    }
                    continue;
                }
                delivered += 1;
                self.metrics.record_received(env.to);
                if let Some(tr) = self.trace.as_mut() {
                    tr.record(TraceKind::Deliver, self.now, env.from, env.to);
                }
                let mut ctx = Ctx {
                    topology: &mut self.topology,
                    queue: &mut self.queue,
                    metrics: &mut self.metrics,
                    trace: self.trace.as_mut(),
                    latency: &mut self.latency,
                    now: self.now,
                };
                self.protocol
                    .on_message(&mut ctx, env.to, env.from, env.payload);
            }
            let mut ctx = Ctx {
                topology: &mut self.topology,
                queue: &mut self.queue,
                metrics: &mut self.metrics,
                trace: self.trace.as_mut(),
                latency: &mut self.latency,
                now: self.now,
            };
            if !self.protocol.on_quiescent(&mut ctx) {
                break;
            }
        }
        QuiescenceReport {
            delivered,
            dropped,
            latency: self.now.since(start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flood protocol that also records the hop distance at which each
    /// node first saw the token.
    struct DistFlood {
        dist: Vec<Option<u64>>,
        origin: SimTime,
    }

    impl Protocol for DistFlood {
        type Msg = ();
        fn on_neighbor_deleted(&mut self, _: &mut Ctx<'_, ()>, _: u32, _: &DeletionInfo) {}
        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, me: u32, _from: u32, _msg: ()) {
            if self.dist[me as usize].is_none() {
                self.dist[me as usize] = Some(ctx.now().since(self.origin));
                let nbrs: Vec<u32> = ctx.neighbors(me).to_vec();
                for n in nbrs {
                    ctx.send(me, n, ());
                }
            }
        }
    }

    fn path_topology(n: usize) -> Topology {
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (i - 1, i)).collect();
        Topology::from_edges(n, &edges)
    }

    #[test]
    fn flood_distances_match_bfs() {
        let mut sim = Simulator::new(
            path_topology(6),
            DistFlood {
                dist: vec![None; 6],
                origin: SimTime::ZERO,
            },
        );
        sim.inject(0, 0, ());
        let report = sim.run_to_quiescence();
        // Node i is reached at hop i + 1 (the injection itself costs one hop).
        for i in 0..6u32 {
            assert_eq!(sim.protocol.dist[i as usize], Some(i as u64 + 1));
        }
        // Node 5 is reached at hop 6 and its redundant send back to node
        // 4 is delivered (and ignored) at hop 7.
        assert_eq!(report.latency, 7);
        assert_eq!(report.dropped, 0);
        // Each node sends to all neighbors once: node degrees on a path
        // are 1,2,2,2,2,1 => 10 sends plus the injection.
        assert_eq!(sim.metrics.total_sent(), 11);
    }

    #[test]
    fn messages_to_dead_nodes_are_dropped() {
        let mut sim = Simulator::new(
            path_topology(3),
            DistFlood {
                dist: vec![None; 3],
                origin: SimTime::ZERO,
            },
        );
        sim.inject(0, 0, ());
        sim.inject(0, 2, ());
        sim.delete_node(2);
        let report = sim.run_to_quiescence();
        assert!(report.dropped >= 1);
        assert_eq!(sim.metrics.dropped, report.dropped);
        assert_eq!(sim.protocol.dist[2], None);
    }

    #[test]
    fn deletion_notifies_neighbors_in_order() {
        struct Recorder {
            calls: Vec<(u32, u32)>,
        }
        impl Protocol for Recorder {
            type Msg = ();
            fn on_neighbor_deleted(&mut self, _: &mut Ctx<'_, ()>, me: u32, info: &DeletionInfo) {
                self.calls.push((me, info.deleted));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: u32, _: u32, _: ()) {}
        }
        let topo = Topology::from_edges(4, &[(1, 0), (1, 2), (1, 3)]);
        let mut sim = Simulator::new(topo, Recorder { calls: vec![] });
        let info = sim.delete_node(1);
        assert_eq!(info.former_neighbors, vec![0, 2, 3]);
        assert_eq!(sim.protocol.calls, vec![(0, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn batch_notifications_interleave_round_robin() {
        struct Recorder {
            calls: Vec<(u32, u32, bool)>,
            other_victim_alive: Vec<bool>,
        }
        impl Protocol for Recorder {
            type Msg = ();
            fn on_neighbor_deleted(&mut self, ctx: &mut Ctx<'_, ()>, me: u32, info: &DeletionInfo) {
                self.calls.push((me, info.deleted, info.simultaneous));
                let other = if info.deleted == 1 { 4 } else { 1 };
                self.other_victim_alive.push(ctx.is_alive(other));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: u32, _: u32, _: ()) {}
        }
        // Victim 1 has neighbors {0, 2, 3}; victim 4 has {5, 6}.
        let topo = Topology::from_edges(7, &[(1, 0), (1, 2), (1, 3), (4, 5), (4, 6)]);
        let mut sim = Simulator::new(
            topo,
            Recorder {
                calls: vec![],
                other_victim_alive: vec![],
            },
        );
        let infos = sim.delete_batch(&[1, 4]);
        assert_eq!(infos[0].former_neighbors, vec![0, 2, 3]);
        assert_eq!(infos[1].former_neighbors, vec![5, 6]);
        // Round-robin across victims, flagged simultaneous.
        assert_eq!(
            sim.protocol.calls,
            vec![
                (0, 1, true),
                (5, 4, true),
                (2, 1, true),
                (6, 4, true),
                (3, 1, true)
            ]
        );
        // Simultaneity: the other victim was already dead in every callback.
        assert!(sim.protocol.other_victim_alive.iter().all(|&a| !a));
    }

    #[test]
    fn batch_schedule_hook_controls_notification_order() {
        struct Recorder {
            calls: Vec<(u32, u32)>,
        }
        impl Protocol for Recorder {
            type Msg = ();
            fn on_neighbor_deleted(&mut self, _: &mut Ctx<'_, ()>, me: u32, info: &DeletionInfo) {
                self.calls.push((me, info.deleted));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: u32, _: u32, _: ()) {}
        }
        let build = || {
            let topo = Topology::from_edges(7, &[(1, 0), (1, 2), (1, 3), (4, 5), (4, 6)]);
            Simulator::new(topo, Recorder { calls: vec![] })
        };

        let mut sim = build();
        sim.set_batch_schedule(BatchSchedule::VictimMajor);
        sim.delete_batch(&[1, 4]);
        assert_eq!(
            sim.protocol.calls,
            vec![(0, 1), (2, 1), (3, 1), (5, 4), (6, 4)]
        );

        let mut sim = build();
        sim.set_batch_schedule(BatchSchedule::VictimOrder(vec![1, 0]));
        sim.delete_batch(&[1, 4]);
        assert_eq!(
            sim.protocol.calls,
            vec![(5, 4), (6, 4), (0, 1), (2, 1), (3, 1)]
        );

        let mut sim = build();
        sim.set_batch_schedule(BatchSchedule::Explicit(vec![
            (0, 2),
            (1, 1),
            (0, 0),
            (1, 0),
            (0, 1),
        ]));
        sim.delete_batch(&[1, 4]);
        assert_eq!(
            sim.protocol.calls,
            vec![(3, 1), (6, 4), (0, 1), (5, 4), (2, 1)]
        );
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn dependent_batch_is_refused() {
        let mut sim = Simulator::new(
            path_topology(3),
            DistFlood {
                dist: vec![None; 3],
                origin: SimTime::ZERO,
            },
        );
        sim.delete_batch(&[0, 1]);
    }

    #[test]
    fn join_grows_fabric_and_notifies_protocol() {
        struct JoinRec {
            joins: Vec<(u32, Vec<u32>)>,
        }
        impl Protocol for JoinRec {
            type Msg = ();
            fn on_neighbor_deleted(&mut self, _: &mut Ctx<'_, ()>, _: u32, _: &DeletionInfo) {}
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: u32, _: u32, _: ()) {}
            fn on_join(&mut self, ctx: &mut Ctx<'_, ()>, me: u32, neighbors: &[u32]) {
                self.joins.push((me, neighbors.to_vec()));
                // Attachment edges are already live at hook time.
                for &u in neighbors {
                    assert!(ctx.neighbors(me).contains(&u));
                }
            }
        }
        let mut sim = Simulator::new(path_topology(3), JoinRec { joins: vec![] });
        sim.enable_trace(8);
        let v = sim.join_node(&[0, 2]);
        assert_eq!(v, 3);
        assert_eq!(sim.protocol.joins, vec![(3, vec![0, 2])]);
        assert_eq!(sim.topology.neighbors(3), &[0, 2]);
        // Metrics grew with the fabric: counting for the joiner works.
        sim.inject(v, 0, ());
        assert_eq!(sim.metrics.sent(v), 1);
        let trace = sim.trace().unwrap().events();
        assert_eq!(trace.last().unwrap().kind, TraceKind::Join);
    }

    #[test]
    fn quiescence_barrier_drives_deferred_work() {
        /// Defers two floods; each on_quiescent call releases one.
        struct Deferred {
            pending: Vec<u32>,
            rounds: Vec<u64>,
        }
        impl Protocol for Deferred {
            type Msg = ();
            fn on_neighbor_deleted(&mut self, _: &mut Ctx<'_, ()>, _: u32, _: &DeletionInfo) {}
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: u32, _: u32, _: ()) {}
            fn on_quiescent(&mut self, ctx: &mut Ctx<'_, ()>) -> bool {
                match self.pending.pop() {
                    Some(v) => {
                        self.rounds.push(ctx.now().0);
                        ctx.send(v, v + 1, ());
                        true
                    }
                    None => false,
                }
            }
        }
        let mut sim = Simulator::new(
            path_topology(4),
            Deferred {
                pending: vec![2, 0],
                rounds: vec![],
            },
        );
        let report = sim.run_to_quiescence();
        assert_eq!(report.delivered, 2);
        // Both deferred sends ran, each in its own barrier round.
        assert_eq!(sim.protocol.rounds.len(), 2);
        assert!(sim.protocol.pending.is_empty());
    }

    #[test]
    fn healing_via_ctx_rewires_topology() {
        struct HealLine;
        impl Protocol for HealLine {
            type Msg = ();
            fn on_neighbor_deleted(&mut self, ctx: &mut Ctx<'_, ()>, me: u32, info: &DeletionInfo) {
                // First former neighbor wires everyone into a line.
                if Some(&me) == info.former_neighbors.first() {
                    for w in info.former_neighbors.windows(2) {
                        ctx.add_link(w[0], w[1]);
                    }
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: u32, _: u32, _: ()) {}
        }
        let topo = Topology::from_edges(4, &[(1, 0), (1, 2), (1, 3)]);
        let mut sim = Simulator::new(topo, HealLine);
        sim.enable_trace(16);
        sim.delete_node(1);
        assert!(sim.topology.has_edge(0, 2));
        assert!(sim.topology.has_edge(2, 3));
        assert!(!sim.topology.has_edge(0, 3));
        let trace = sim.trace().unwrap().events();
        assert_eq!(trace.len(), 3); // 1 kill + 2 links
    }

    #[test]
    fn jitter_delays_but_still_floods_everyone() {
        let mut sim = Simulator::new(
            path_topology(6),
            DistFlood {
                dist: vec![None; 6],
                origin: SimTime::ZERO,
            },
        );
        sim.set_latency_jitter(42, 3);
        sim.inject(0, 0, ());
        let report = sim.run_to_quiescence();
        assert!(sim.protocol.dist.iter().all(Option::is_some));
        // With up to 3 extra hops per message the drain takes longer than
        // the synchronous 7 hops (w.h.p. for this seed, deterministic).
        assert!(report.latency >= 7, "latency {}", report.latency);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(
                path_topology(8),
                DistFlood {
                    dist: vec![None; 8],
                    origin: SimTime::ZERO,
                },
            );
            sim.set_latency_jitter(seed, 4);
            sim.inject(0, 0, ());
            sim.run_to_quiescence();
            sim.protocol.dist.clone()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = Simulator::new(
                path_topology(8),
                DistFlood {
                    dist: vec![None; 8],
                    origin: SimTime::ZERO,
                },
            );
            sim.inject(3, 3, ());
            sim.run_to_quiescence();
            (sim.metrics.total_sent(), sim.protocol.dist.clone())
        };
        assert_eq!(run(), run());
    }
}
