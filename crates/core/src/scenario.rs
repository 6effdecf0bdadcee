//! The unified, event-driven healing engine.
//!
//! The paper's model is a *sequence of reconfiguration events*: an
//! omniscient adversary deletes nodes (one at a time, or simultaneously
//! per footnote 1), new nodes join, and after every event the healer
//! reconnects and the minimum component ID is broadcast. This module
//! runs all three shapes through one loop:
//!
//! - [`NetworkEvent`] — the vocabulary: `Delete`, `DeleteBatch`, `Join`
//!   (owned, the wire and spec type), with [`EventRef`] as its borrowed
//!   form;
//! - [`EventSource`] — anything that emits events against the evolving
//!   network, writing batch and join payloads into a borrowed buffer;
//!   every [`Adversary`] is one via a blanket adapter (its picks become
//!   `Delete` events);
//! - [`Observer`] — a pluggable per-event hook (record logging and
//!   custom auditors plug in here; the engine's own audit channel is
//!   [`AuditLevel`]);
//! - [`ScenarioEngine`] — the one loop that consumes any event stream.
//!
//! Every event kind is allocation-free at steady state for the
//! allocation-free healers (DASH, SDASH): the engine keeps one
//! [`DeletionContext`] and one [`HealOutcome`] per victim slot, grown
//! once to the largest batch seen (`delete_node_into`, `heal_into`); the
//! source lends each event's payload from a buffer the engine keeps;
//! `propagate_min_id_uniform` runs on epoch-stamped scratch buffers
//! owned by [`HealingNetwork`]; and records handed to observers are
//! plain `Copy` data. `crates/bench/tests/alloc.rs` pins this for
//! `Delete`, `DeleteBatch` and `Join` streams.
//!
//! `tests/golden.rs` pins pure `Delete` runs to exact message and edge
//! counts.

use crate::attack::Adversary;
use crate::batch::{delete_validated_batch_into, heal_batch_into, independent_victims};
use crate::invariants::{self, TheoremAuditor};
use crate::state::{DeletionContext, HealingNetwork, PropagationReport};
use crate::strategy::{HealOutcome, Healer};
use selfheal_graph::NodeId;
use selfheal_sim::SplitMix64;
use std::collections::VecDeque;

/// Sanitize a batch into an independent victim set, shared by
/// [`ScenarioEngine`] and the distributed
/// [`DistributedScenarioRunner`](crate::distributed_runner::DistributedScenarioRunner)
/// so the two sides can never drift: keep each victim only if it is
/// alive and neither a duplicate of nor adjacent to an earlier kept
/// victim (paper footnote 1's NoN-knowledge condition), preserving input
/// order.
pub(crate) fn sanitize_batch<T: Copy + PartialEq>(
    out: &mut Vec<T>,
    victims: impl IntoIterator<Item = T>,
    mut is_alive: impl FnMut(T) -> bool,
    mut has_edge: impl FnMut(T, T) -> bool,
) {
    out.clear();
    for v in victims {
        if is_alive(v) && !out.contains(&v) && out.iter().all(|&u| !has_edge(u, v)) {
            out.push(v);
        }
    }
}

/// Sanitize join attachment targets (drop dead targets and duplicates,
/// preserving order) — the other half of the shared engine/runner
/// sanitization contract.
pub(crate) fn sanitize_join<T: Copy + PartialEq>(
    out: &mut Vec<T>,
    targets: impl IntoIterator<Item = T>,
    mut is_alive: impl FnMut(T) -> bool,
) {
    out.clear();
    for u in targets {
        if is_alive(u) && !out.contains(&u) {
            out.push(u);
        }
    }
}

/// Which checks the engine runs after every event. Whatever the level,
/// its findings land in [`ScenarioReport::violations`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AuditLevel {
    /// No checking (experiment/benchmark mode).
    #[default]
    Off,
    /// Connectivity + forest + delta bound + weight conservation: O(n)
    /// per event. Every finding is reported.
    Cheap,
    /// Cheap's checks plus the O(n²) `rem` potential of Lemma 4.
    Full,
    /// The whole of Theorem 1: a [`TheoremAuditor`] at the paper's
    /// bounds after every event, which waives the forest check once a
    /// multi-victim batch lands, and its amortized-latency check once,
    /// at [`ScenarioEngine::finish`]. The report keeps the first
    /// [`MAX_FINDINGS`](invariants::MAX_FINDINGS) findings, then one
    /// `audit: further findings truncated` line when more were found.
    Theorems,
}

/// One reconfiguration event presented to the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetworkEvent {
    /// The adversary deletes a single node.
    Delete(NodeId),
    /// Simultaneous deletion of several nodes (paper footnote 1). The
    /// engine enforces independence: dead, duplicate, or pairwise
    /// adjacent victims are dropped (in input order, keeping the earlier
    /// victim) before the batch is applied atomically.
    DeleteBatch(Vec<NodeId>),
    /// A new node joins, attaching to the given live nodes. Dead or
    /// duplicate targets are dropped; a join whose (originally non-empty)
    /// target list sanitizes to nothing is skipped entirely, while an
    /// explicitly empty list creates an isolated node.
    Join {
        /// Attachment targets for the joining node.
        neighbors: Vec<NodeId>,
    },
}

impl std::fmt::Display for NetworkEvent {
    /// The canonical wire form used by the serving layer's line
    /// protocol: `delete 5`, `delete-batch 1 2 3` (bare `delete-batch`
    /// for an empty batch), `join 4 5` (bare `join` for an isolated
    /// node). `FromStr` is its exact inverse.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkEvent::Delete(v) => write!(f, "delete {}", v.0),
            NetworkEvent::DeleteBatch(vs) => {
                f.write_str("delete-batch")?;
                for v in vs {
                    write!(f, " {}", v.0)?;
                }
                Ok(())
            }
            NetworkEvent::Join { neighbors } => {
                f.write_str("join")?;
                for v in neighbors {
                    write!(f, " {}", v.0)?;
                }
                Ok(())
            }
        }
    }
}

impl std::str::FromStr for NetworkEvent {
    type Err = String;

    /// Parse the wire form produced by `Display`: [`EventRef::parse_into`]
    /// with a fresh payload buffer, which a batch or join keeps.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut ids = Vec::new();
        let join = match EventRef::parse_into(s, &mut ids)? {
            EventRef::Delete(v) => return Ok(NetworkEvent::Delete(v)),
            EventRef::DeleteBatch(_) => false,
            EventRef::Join(_) => true,
        };
        Ok(if join {
            NetworkEvent::Join { neighbors: ids }
        } else {
            NetworkEvent::DeleteBatch(ids)
        })
    }
}

/// A borrowed [`NetworkEvent`]: what [`EventSource::next_event_into`]
/// yields and what [`ScenarioEngine`] dispatches on. Batch victims and
/// join targets are slices, so neither side needs an owned `Vec` per
/// event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventRef<'a> {
    /// See [`NetworkEvent::Delete`].
    Delete(NodeId),
    /// See [`NetworkEvent::DeleteBatch`].
    DeleteBatch(&'a [NodeId]),
    /// See [`NetworkEvent::Join`]; the slice holds the attachment
    /// targets.
    Join(&'a [NodeId]),
}

impl<'a> EventRef<'a> {
    /// Parse the wire form produced by [`NetworkEvent`]'s `Display`: the
    /// one event parser. A batch's victims or a join's targets are
    /// appended to `ids` and lent back as the event's slice; a `delete`
    /// leaves `ids` untouched, and so does every error. So a caller that
    /// keeps one `ids` across events parses without allocating.
    ///
    /// Errors are complete sentences naming the offending token, in the
    /// same hand-rolled style as [`crate::spec`]; the serving layer
    /// surfaces them to clients verbatim. Every id token is checked
    /// before a `delete`'s arity is.
    pub fn parse_into(s: &str, ids: &'a mut Vec<NodeId>) -> Result<EventRef<'a>, String> {
        let mut words = s.split_whitespace();
        let keyword = words.next().ok_or_else(|| "empty event".to_string())?;
        let parse_id = |w: &str| {
            w.parse::<u32>()
                .map(NodeId)
                .map_err(|_| format!("invalid node id '{w}'"))
        };
        match keyword {
            "delete" => {
                let (mut victim, mut count) = (None, 0usize);
                for w in words {
                    victim = victim.or(Some(parse_id(w)?));
                    count += 1;
                }
                match victim {
                    Some(v) if count == 1 => Ok(EventRef::Delete(v)),
                    _ => Err(format!("'delete' takes exactly one node id, got {count}")),
                }
            }
            "delete-batch" | "join" => {
                let start = ids.len();
                for w in words {
                    match parse_id(w) {
                        Ok(v) => ids.push(v),
                        Err(e) => {
                            ids.truncate(start);
                            return Err(e);
                        }
                    }
                }
                let payload = &ids[start..];
                Ok(if keyword == "join" {
                    EventRef::Join(payload)
                } else {
                    EventRef::DeleteBatch(payload)
                })
            }
            other => Err(format!(
                "unknown event '{other}' (expected delete, delete-batch, or join)"
            )),
        }
    }

    /// This event's kind.
    pub fn kind(self) -> EventKind {
        match self {
            EventRef::Delete(_) => EventKind::Delete,
            EventRef::DeleteBatch(_) => EventKind::DeleteBatch,
            EventRef::Join(_) => EventKind::Join,
        }
    }
}

impl NetworkEvent {
    /// This event, borrowed.
    pub fn as_event_ref(&self) -> EventRef<'_> {
        match self {
            NetworkEvent::Delete(v) => EventRef::Delete(*v),
            NetworkEvent::DeleteBatch(victims) => EventRef::DeleteBatch(victims),
            NetworkEvent::Join { neighbors } => EventRef::Join(neighbors),
        }
    }
}

/// A stream of [`NetworkEvent`]s generated against the evolving network.
///
/// Every [`Adversary`] is an `EventSource` via the blanket adapter below:
/// its per-round victim picks become `Delete` events, so any existing
/// attack strategy drives the unified engine unchanged (and on the same
/// RNG stream).
/// `Send` is a supertrait so boxed sources (and the engines holding
/// them) can migrate across the serving layer's worker threads.
pub trait EventSource: Send {
    /// Short stable name used in tables and benchmarks.
    fn name(&self) -> &'static str;

    /// The next event, or `None` to end the scenario.
    ///
    /// A batch's victims or a join's targets are written into `ids`
    /// (replacing whatever it held) and lent back as the event's slice,
    /// which must be `ids` itself or a prefix of it. A caller that keeps
    /// one `ids` across events, as [`ScenarioEngine`] does, lets a source
    /// that reuses the buffer emit every event without allocating.
    fn next_event_into<'a>(
        &mut self,
        net: &HealingNetwork,
        ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>>;

    /// [`EventSource::next_event_into`] as an owned event. A `Delete`
    /// allocates nothing; a batch or join keeps the one `Vec` its payload
    /// was written into.
    ///
    /// # Panics
    /// Panics if the source lent a batch or join slice that is not a
    /// prefix of `ids`, breaking [`EventSource::next_event_into`]'s
    /// contract.
    fn next_event(&mut self, net: &HealingNetwork) -> Option<NetworkEvent> {
        let mut ids = Vec::new();
        let (batch, at, len) = match self.next_event_into(net, &mut ids)? {
            EventRef::Delete(v) => return Some(NetworkEvent::Delete(v)),
            EventRef::DeleteBatch(s) => (true, s.as_ptr(), s.len()),
            EventRef::Join(s) => (false, s.as_ptr(), s.len()),
        };
        assert!(
            len == 0 || (at == ids.as_ptr() && len <= ids.len()),
            "event source '{}' lent a payload that is not a prefix of `ids`",
            self.name()
        );
        ids.truncate(len);
        Some(if batch {
            NetworkEvent::DeleteBatch(ids)
        } else {
            NetworkEvent::Join { neighbors: ids }
        })
    }
}

impl<A: Adversary> EventSource for A {
    fn name(&self) -> &'static str {
        Adversary::name(self)
    }

    fn next_event_into<'a>(
        &mut self,
        net: &HealingNetwork,
        _ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>> {
        self.pick(net).map(EventRef::Delete)
    }
}

/// Boxed dynamic sources are sources themselves (mirroring the
/// `Box<H: Healer>` blanket in [`crate::strategy`]), so registry-built
/// `Box<dyn EventSource>` values plug straight into [`ScenarioEngine`]
/// without generics gymnastics. (A fully generic `Box<S>` impl would
/// overlap the [`Adversary`] adapter above — every sized adversary is
/// already an `EventSource`, hence so is its box — so the impl is
/// written for the trait object, the one case the adapter cannot reach.)
impl EventSource for Box<dyn EventSource> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_event_into<'a>(
        &mut self,
        net: &HealingNetwork,
        ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>> {
        (**self).next_event_into(net, ids)
    }
}

/// Replay a fixed event schedule. Unlike `attack::Scripted` (which skips
/// dead victims at pick time) the schedule is replayed verbatim; the
/// engine's sanitization makes stale references harmless no-ops, so
/// schedules can be written (or generated) without tracking liveness.
#[derive(Clone, Debug, Default)]
pub struct ScriptedEvents {
    queue: VecDeque<NetworkEvent>,
}

impl ScriptedEvents {
    /// Script the given event order.
    pub fn new<I: IntoIterator<Item = NetworkEvent>>(events: I) -> Self {
        ScriptedEvents {
            queue: events.into_iter().collect(),
        }
    }

    /// Append another event.
    pub fn push(&mut self, event: NetworkEvent) {
        self.queue.push_back(event);
    }

    /// Events not yet replayed.
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }
}

impl EventSource for ScriptedEvents {
    fn name(&self) -> &'static str {
        "scripted-events"
    }

    /// Batch and join payloads move into `ids` as they are, so the owned
    /// [`EventSource::next_event`] hands back the scripted `Vec` itself.
    fn next_event_into<'a>(
        &mut self,
        _net: &HealingNetwork,
        ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>> {
        Some(match self.queue.pop_front()? {
            NetworkEvent::Delete(v) => EventRef::Delete(v),
            NetworkEvent::DeleteBatch(victims) => {
                *ids = victims;
                EventRef::DeleteBatch(ids)
            }
            NetworkEvent::Join { neighbors } => {
                *ids = neighbors;
                EventRef::Join(ids)
            }
        })
    }
}

/// Emit `DeleteBatch` events of up to `k` independent victims, ranked by
/// current degree (highest first) — the batch adversary the E8 experiment
/// and the `batch_failures` example sweep. Ends when no victim remains.
#[derive(Clone, Copy, Debug)]
pub struct DegreeBatches {
    k: usize,
}

impl DegreeBatches {
    /// Batches of up to `k` victims.
    pub fn new(k: usize) -> Self {
        DegreeBatches { k }
    }
}

impl EventSource for DegreeBatches {
    fn name(&self) -> &'static str {
        "degree-batches"
    }

    fn next_event_into<'a>(
        &mut self,
        net: &HealingNetwork,
        ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>> {
        *ids = independent_victims(net, self.k, |v| net.graph().degree(v) as i64);
        if ids.is_empty() {
            None
        } else {
            Some(EventRef::DeleteBatch(ids))
        }
    }
}

/// Derive the private RNG stream of a stochastic event source from its
/// seed and a per-source tag.
///
/// Every randomized `EventSource` owns its own [`SplitMix64`] — never a
/// shared generator — so a schedule depends only on (seed, evolving
/// network), not on how many draws *other* components made in between:
/// the same seed replays the same schedule no matter what else runs.
/// The tag keeps two *different* sources built from the same seed (a
/// common pattern in sweeps, where one run seed parameterizes
/// everything) on uncorrelated streams instead of walking the raw
/// `SplitMix64::new(seed)` sequence in lockstep.
pub(crate) fn source_stream(seed: u64, tag: u64) -> SplitMix64 {
    SplitMix64::new(seed).derive(tag)
}

/// Mixed churn: with probability 1/3 a join attaching to 1–3 random live
/// nodes, otherwise a targeted deletion of a random neighbor of the
/// current maximum-degree node (the hub itself when isolated). This is
/// the workload the churn test-suite drives; seeded, so deterministic.
#[derive(Clone, Debug)]
pub struct RandomChurn {
    rng: SplitMix64,
}

impl RandomChurn {
    /// Tag for `source_stream`: `b"churn"` packed big-endian.
    pub const STREAM_TAG: u64 = 0x63_68_75_72_6e;

    /// Seeded churn stream (private tagged RNG; see `source_stream`).
    pub fn new(seed: u64) -> Self {
        RandomChurn {
            rng: source_stream(seed, Self::STREAM_TAG),
        }
    }
}

impl EventSource for RandomChurn {
    fn name(&self) -> &'static str {
        "random-churn"
    }

    fn next_event_into<'a>(
        &mut self,
        net: &HealingNetwork,
        ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>> {
        if net.graph().live_node_count() == 0 {
            return None;
        }
        if self.rng.gen_range(3) == 0 {
            // The join branch samples live nodes by rank via the graph's
            // live bitmap index — same draws as choosing from the
            // ascending collected live list, without the O(n) collect.
            let live = net.graph().live_node_count();
            let k = 1 + self.rng.gen_range(3) as usize;
            ids.clear();
            for _ in 0..k.min(live) {
                let cand = net
                    .graph()
                    .nth_live(self.rng.gen_range(live as u64) as usize)
                    // panic-ok: rank drawn strictly below the live count.
                    .expect("rank < live count");
                if !ids.contains(&cand) {
                    ids.push(cand);
                }
            }
            Some(EventRef::Join(ids))
        } else {
            let hub = net.graph().max_degree_node()?;
            let victim = match net.graph().neighbors(hub) {
                [] => hub,
                nbrs => *self.rng.choose(nbrs),
            };
            Some(EventRef::Delete(victim))
        }
    }
}

/// What kind of event an [`EventRecord`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Single deletion.
    Delete,
    /// Simultaneous batch deletion.
    DeleteBatch,
    /// Node join.
    Join,
}

/// What happened in a single event. Plain `Copy` data — handing one to an
/// observer never allocates.
#[derive(Clone, Copy, Debug)]
pub struct EventRecord {
    /// 1-based event number (all kinds).
    pub event: u64,
    /// Healing rounds completed so far (delete-kind events only).
    pub round: u64,
    /// The event's kind.
    pub kind: EventKind,
    /// The victim of a single deletion (its id even if it was already
    /// dead and the event became a no-op).
    pub deleted: Option<NodeId>,
    /// Nodes actually deleted by this event (0 for no-ops and joins).
    pub victims: usize,
    /// The node created by a join.
    pub joined: Option<NodeId>,
    /// Total reconstruction-set size across this event's heals.
    pub rt_size: usize,
    /// Healing edges added by this event.
    pub edges_added: usize,
    /// Surrogate used (SDASH, single deletions only).
    pub surrogate: Option<NodeId>,
    /// Merged ID-broadcast accounting for this event (see
    /// [`PropagationReport::merge`]).
    pub propagation: PropagationReport,
    /// Maximum `δ` among this event's reconstruction-set members, `None`
    /// when nothing healed (empty RT, no-op events, joins).
    pub round_max_delta: Option<i64>,
}

impl EventRecord {
    fn empty(event: u64, round: u64, kind: EventKind) -> Self {
        EventRecord {
            event,
            round,
            kind,
            deleted: None,
            victims: 0,
            joined: None,
            rt_size: 0,
            edges_added: 0,
            surrogate: None,
            propagation: PropagationReport::default(),
            round_max_delta: None,
        }
    }

    /// This event's contribution to a merge-able
    /// [`TenantStats`](selfheal_metrics::TenantStats) aggregate — the
    /// bridge between the `Observer` hook and the metrics layer's
    /// worker-count-invariant per-tenant accounting.
    #[must_use]
    pub fn tenant_sample(&self) -> selfheal_metrics::TenantSample {
        selfheal_metrics::TenantSample {
            victims: self.victims,
            joined: self.joined.is_some(),
            rt_size: self.rt_size,
            edges_added: self.edges_added,
            messages: self.propagation.messages,
            latency: self.propagation.latency,
            round_max_delta: self.round_max_delta,
        }
    }
}

/// Per-event hook into a running scenario. All methods default to no-ops;
/// implement what you need. Closures work too: any
/// `FnMut(&HealingNetwork, &EventRecord)` is an observer.
pub trait Observer {
    /// Called after every applied event, with the post-event network.
    fn on_event(&mut self, net: &HealingNetwork, record: &EventRecord) {
        let _ = (net, record);
    }
}

/// The do-nothing observer (benchmark mode).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

impl<F: FnMut(&HealingNetwork, &EventRecord)> Observer for F {
    fn on_event(&mut self, net: &HealingNetwork, record: &EventRecord) {
        self(net, record)
    }
}

/// Collect every [`EventRecord`] of a run.
#[derive(Clone, Debug, Default)]
pub struct RecordLog {
    /// Records in event order.
    pub records: Vec<EventRecord>,
}

impl Observer for RecordLog {
    fn on_event(&mut self, _net: &HealingNetwork, record: &EventRecord) {
        self.records.push(*record);
    }
}

/// The engine's audit channel: the checks its [`AuditLevel`] asks for,
/// writing findings into the run report.
#[derive(Clone, Debug)]
enum Audit {
    Off,
    /// The lemma checks of [`invariants::check_all`] (cheap and full).
    Lemmas {
        expect_forest: bool,
        check_rem: bool,
    },
    /// Theorem 1; `finished` once the end-of-run checks have run. Boxed
    /// so the engine is no bigger for the unaudited hot path.
    Theorems {
        auditor: Box<TheoremAuditor>,
        finished: bool,
    },
}

impl Audit {
    fn new(level: AuditLevel, preserves_forest: bool) -> Self {
        match level {
            AuditLevel::Off => Audit::Off,
            AuditLevel::Cheap | AuditLevel::Full => Audit::Lemmas {
                expect_forest: preserves_forest,
                check_rem: level == AuditLevel::Full,
            },
            AuditLevel::Theorems => Audit::Theorems {
                auditor: Box::new(TheoremAuditor::new(preserves_forest)),
                finished: false,
            },
        }
    }

    /// Check the post-event network, appending findings to `out`. Kept
    /// out of line: the unaudited hot path only tests for `Off`.
    #[inline(never)]
    fn on_event(&mut self, net: &HealingNetwork, record: &EventRecord, out: &mut Vec<String>) {
        match self {
            Audit::Off => {}
            Audit::Lemmas {
                expect_forest,
                check_rem,
            } => {
                for v in invariants::check_all(net, *expect_forest, *check_rem) {
                    // Healing rounds are labelled "round N"; joins and
                    // sanitized no-ops carry no round, so attribute those
                    // to their (always unique) event number instead.
                    let label = if record.kind != EventKind::Join && record.victims > 0 {
                        format!("round {}", record.round)
                    } else {
                        format!("event {}", record.event)
                    };
                    out.push(format!("{label}: {v}"));
                }
            }
            Audit::Theorems { auditor, .. } => {
                mirror(auditor, out, |a| a.on_event(net, record));
            }
        }
    }

    /// The end-of-run checks, run at most once.
    fn finish(&mut self, net: &HealingNetwork, report: &ScenarioReport, out: &mut Vec<String>) {
        if let Audit::Theorems { auditor, finished } = self {
            if !*finished {
                *finished = true;
                mirror(auditor, out, |a| a.finish(net, report));
            }
        }
    }
}

/// Run `check` on `auditor`, then append to `out` the findings it newly
/// kept, and the truncation marker the first time one was dropped. So
/// `out` reads as the kept findings, then the marker if any overflowed.
fn mirror(
    auditor: &mut TheoremAuditor,
    out: &mut Vec<String>,
    check: impl FnOnce(&mut TheoremAuditor),
) {
    let (kept, truncated) = (auditor.findings.kept().len(), auditor.findings.truncated());
    check(auditor);
    out.extend_from_slice(&auditor.findings.kept()[kept..]);
    if auditor.findings.truncated() && !truncated {
        out.push("audit: further findings truncated".to_string());
    }
}

/// Aggregate statistics over a scenario run. For pure `Delete` streams
/// `rounds` equals `deletions`.
#[derive(Clone, Debug, Default)]
pub struct ScenarioReport {
    /// Events consumed (all kinds, including sanitized no-ops).
    pub events: u64,
    /// Healing rounds executed (each `Delete` or non-empty `DeleteBatch`
    /// is one round; joins are not rounds).
    pub rounds: u64,
    /// Individual nodes deleted (a batch of `k` counts `k`).
    pub deletions: u64,
    /// Nodes joined.
    pub joins: u64,
    /// Maximum `δ(v)` ever observed for any node at any time.
    pub max_delta_ever: i64,
    /// Maximum number of ID changes suffered by one node.
    pub max_id_changes: u32,
    /// Maximum per-node traffic (ID messages sent + received).
    pub max_traffic: u64,
    /// Total ID-maintenance messages sent.
    pub total_messages: u64,
    /// Total healing edges added to `G'`.
    pub total_edges_added: u64,
    /// Sum of per-round broadcast latencies (for the amortized bound;
    /// within a round latencies merge by max, across rounds they add).
    pub total_propagation_latency: u64,
    /// Maximum single-round broadcast latency.
    pub max_propagation_latency: u64,
    /// Invariant violations found (empty when auditing is off or clean).
    pub violations: Vec<String>,
}

impl ScenarioReport {
    /// Amortized ID-propagation latency per healing round (Lemma 9's
    /// quantity).
    pub fn amortized_latency(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_propagation_latency as f64 / self.rounds as f64
        }
    }
}

/// Drives a [`Healer`] against any [`EventSource`] on `net` — the one
/// engine behind single-round sweeps, batch disasters, and churn.
pub struct ScenarioEngine<H: Healer, S: EventSource> {
    /// The evolving network state (public for metric hooks).
    pub net: HealingNetwork,
    healer: H,
    source: S,
    audit: Audit,
    report: ScenarioReport,
    /// One deletion context per victim slot, grown once to the largest
    /// batch seen and reused across rounds.
    contexts: Vec<DeletionContext>,
    /// One heal outcome per victim slot (`heal_into`), kept like
    /// `contexts`.
    outcomes: Vec<HealOutcome>,
    /// Sanitized victims or join targets, reused across events.
    batch: Vec<NodeId>,
    /// The buffer the source lends batch and join payloads from.
    ids: Vec<NodeId>,
    /// Events in a row that changed nothing (see [`NO_PROGRESS_LIMIT`]).
    consecutive_noops: u64,
}

/// How many consecutive sanitized no-op events (dead victims, skipped
/// joins) the engine tolerates before panicking. Finite scripted
/// schedules with stale references stay well under this; only an event
/// source stuck in a loop — e.g. an adversary that keeps picking a
/// dead node — can reach it, and a loud failure beats a silent infinite
/// `run_to_empty`.
pub const NO_PROGRESS_LIMIT: u64 = 4096;

impl<H: Healer, S: EventSource> ScenarioEngine<H, S> {
    /// New engine with auditing off.
    pub fn new(net: HealingNetwork, healer: H, source: S) -> Self {
        ScenarioEngine {
            net,
            healer,
            source,
            audit: Audit::Off,
            report: ScenarioReport::default(),
            contexts: Vec::new(),
            outcomes: Vec::new(),
            batch: Vec::new(),
            ids: Vec::new(),
            consecutive_noops: 0,
        }
    }

    /// Enable invariant auditing at `level`; findings land in the
    /// report's [`violations`](ScenarioReport::violations).
    pub fn with_audit(mut self, level: AuditLevel) -> Self {
        self.audit = Audit::new(level, self.healer.preserves_forest());
        self
    }

    /// The healer's name.
    pub fn healer_name(&self) -> &'static str {
        self.healer.name()
    }

    /// The report accumulated so far (per-node maxima are only refreshed
    /// by the run methods' final scan).
    pub fn report(&self) -> &ScenarioReport {
        &self.report
    }

    /// Consume and apply one event; `None` when the source is exhausted.
    pub fn step(&mut self) -> Option<EventRecord> {
        self.step_with(&mut NullObserver)
    }

    /// [`ScenarioEngine::step`] with an external observer.
    pub fn step_with(&mut self, observer: &mut dyn Observer) -> Option<EventRecord> {
        // The payload borrows `ids`, so take it out of `self` for the
        // dispatch and put it back after (moving a `Vec` allocates
        // nothing).
        let mut ids = std::mem::take(&mut self.ids);
        let record = self
            .source
            .next_event_into(&self.net, &mut ids)
            .map(|event| self.apply_with(event, observer));
        self.ids = ids;
        record
    }

    /// Apply one externally supplied event (bypassing the source).
    pub fn apply(&mut self, event: NetworkEvent) -> EventRecord {
        self.apply_with(event.as_event_ref(), &mut NullObserver)
    }

    /// [`ScenarioEngine::apply`] on a borrowed event, with an external
    /// observer: the one dispatch behind every event the engine applies,
    /// [`ScenarioEngine::step_with`]'s included.
    ///
    /// # Panics
    /// Panics after [`NO_PROGRESS_LIMIT`] consecutive no-op events — the
    /// signature of an event source stuck on dead nodes.
    pub fn apply_with(&mut self, event: EventRef<'_>, observer: &mut dyn Observer) -> EventRecord {
        self.report.events += 1;
        let record = match event {
            EventRef::Delete(v) => self.apply_delete(v),
            EventRef::DeleteBatch(victims) => self.apply_batch(victims),
            EventRef::Join(targets) => self.apply_join(targets),
        };
        if record.victims == 0 && record.joined.is_none() {
            self.consecutive_noops += 1;
            assert!(
                self.consecutive_noops < NO_PROGRESS_LIMIT,
                "event source '{}' made no progress for {NO_PROGRESS_LIMIT} \
                 consecutive events — adversary picked a dead node?",
                self.source.name()
            );
        } else {
            self.consecutive_noops = 0;
        }
        observer.on_event(&self.net, &record);
        if !matches!(self.audit, Audit::Off) {
            self.audit
                .on_event(&self.net, &record, &mut self.report.violations);
        }
        record
    }

    /// Run until the source stops (for kill-sweeps: the network is
    /// empty), then [`finish`](ScenarioEngine::finish) the run.
    pub fn run_to_empty(&mut self) -> ScenarioReport {
        self.run_to_empty_with(&mut NullObserver)
    }

    /// [`ScenarioEngine::run_to_empty`] with an external observer.
    pub fn run_to_empty_with(&mut self, observer: &mut dyn Observer) -> ScenarioReport {
        while self.step_with(observer).is_some() {}
        self.finish()
    }

    /// Run at most `k` further events and return the report so far, with
    /// per-node maxima refreshed. The run stays open: more events may
    /// follow, and [`finish`](ScenarioEngine::finish) closes it.
    pub fn run_events(&mut self, k: u64) -> ScenarioReport {
        self.run_events_with(k, &mut NullObserver)
    }

    /// [`ScenarioEngine::run_events`] with an external observer.
    pub fn run_events_with(&mut self, k: u64, observer: &mut dyn Observer) -> ScenarioReport {
        for _ in 0..k {
            if self.step_with(observer).is_none() {
                break;
            }
        }
        self.refresh_maxima();
        self.report.clone()
    }

    /// End the run and return the report: per-node maxima are refreshed
    /// as by [`run_events`](ScenarioEngine::run_events), and the audit's
    /// end-of-run checks (Theorem 1's amortized latency, under
    /// [`AuditLevel::Theorems`]) run, once however often this is called.
    /// [`run_to_empty`](ScenarioEngine::run_to_empty) calls it; callers
    /// driving [`ScenarioEngine::step`] or
    /// [`ScenarioEngine::apply_with`] call it at the end.
    pub fn finish(&mut self) -> ScenarioReport {
        self.refresh_maxima();
        let mut violations = std::mem::take(&mut self.report.violations);
        self.audit.finish(&self.net, &self.report, &mut violations);
        self.report.violations = violations;
        self.report.clone()
    }

    /// Refresh the per-node maxima (id changes / traffic) with a full
    /// scan over all node slots, so nodes that were never RT members are
    /// included.
    fn refresh_maxima(&mut self) {
        for i in 0..self.net.graph().node_bound() {
            let v = NodeId::from_index(i);
            self.report.max_id_changes = self.report.max_id_changes.max(self.net.id_changes(v));
            self.report.max_traffic = self.report.max_traffic.max(self.net.traffic(v));
        }
    }

    /// One healing round over live, distinct, pairwise non-adjacent
    /// victims; a single deletion is a round of one. Simultaneous
    /// semantics: every victim's context is captured before any healing,
    /// then [`heal_batch_into`] heals and broadcasts per victim in order.
    /// Both run on the engine's reused contexts and outcomes.
    fn heal_round(&mut self, victims: &[NodeId], record: &mut EventRecord) {
        let k = victims.len();
        self.report.rounds += 1;
        self.report.deletions += k as u64;
        record.round = self.report.rounds;
        record.victims = k;
        delete_validated_batch_into(&mut self.net, victims, &mut self.contexts);
        let propagation = heal_batch_into(
            &mut self.net,
            &mut self.healer,
            &self.contexts[..k],
            &mut self.outcomes,
        );
        // Only reconstruction-set members can gain degree in a round, so
        // the running max of δ over rounds is the global max. ID changes
        // and traffic reach further; `refresh_maxima` rescans every node.
        let mut round_max_delta: Option<i64> = None;
        for o in &self.outcomes[..k] {
            record.rt_size += o.rt_members.len();
            record.edges_added += o.edges_added.len();
            for &m in &o.rt_members {
                let d = self.net.delta(m);
                round_max_delta = Some(round_max_delta.map_or(d, |cur: i64| cur.max(d)));
                self.report.max_id_changes = self.report.max_id_changes.max(self.net.id_changes(m));
                self.report.max_traffic = self.report.max_traffic.max(self.net.traffic(m));
            }
        }
        self.report.total_messages += propagation.messages;
        self.report.total_edges_added += record.edges_added as u64;
        self.report.total_propagation_latency += propagation.latency;
        self.report.max_propagation_latency =
            self.report.max_propagation_latency.max(propagation.latency);
        if let Some(d) = round_max_delta {
            self.report.max_delta_ever = self.report.max_delta_ever.max(d);
        }
        record.propagation = propagation;
        record.round_max_delta = round_max_delta;
    }

    fn apply_delete(&mut self, v: NodeId) -> EventRecord {
        let mut record =
            EventRecord::empty(self.report.events, self.report.rounds, EventKind::Delete);
        record.deleted = Some(v);
        if self.net.is_alive(v) {
            self.heal_round(&[v], &mut record);
            record.surrogate = self.outcomes[0].surrogate;
        }
        record
    }

    fn apply_batch(&mut self, victims: &[NodeId]) -> EventRecord {
        let mut record = EventRecord::empty(
            self.report.events,
            self.report.rounds,
            EventKind::DeleteBatch,
        );
        // The sanitize pass proves independence, so the round skips
        // `delete_independent_batch`'s second O(k²) validation.
        let mut kept = std::mem::take(&mut self.batch);
        let net = &self.net;
        sanitize_batch(
            &mut kept,
            victims.iter().copied(),
            |v| net.is_alive(v),
            |u, v| net.graph().has_edge(u, v),
        );
        if !kept.is_empty() {
            self.heal_round(&kept, &mut record);
        }
        self.batch = kept;
        record
    }

    fn apply_join(&mut self, neighbors: &[NodeId]) -> EventRecord {
        let mut record =
            EventRecord::empty(self.report.events, self.report.rounds, EventKind::Join);
        let net = &self.net;
        sanitize_join(&mut self.batch, neighbors.iter().copied(), |u| {
            net.is_alive(u)
        });
        if self.batch.is_empty() && !neighbors.is_empty() {
            // Every requested attachment died: skip rather than create an
            // accidental isolated component.
            return record;
        }
        let joined = self
            .net
            .join_node(&self.batch)
            // panic-ok: `self.batch` was filtered to live, deduplicated
            // targets immediately above.
            .expect("sanitized join targets are alive and distinct");
        self.report.joins += 1;
        record.joined = Some(joined);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{MaxNode, Scripted};
    use crate::dash::Dash;
    use crate::naive::NoHeal;
    use crate::sdash::Sdash;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_graph::components::is_connected;
    use selfheal_graph::forest::is_forest;
    use selfheal_graph::generators::{barabasi_albert, cycle_graph, path_graph};

    fn ba_net(n: usize, seed: u64) -> HealingNetwork {
        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(seed));
        HealingNetwork::new(g, seed)
    }

    #[test]
    fn event_wire_form_round_trips() {
        let cases = [
            NetworkEvent::Delete(NodeId(5)),
            NetworkEvent::DeleteBatch(vec![]),
            NetworkEvent::DeleteBatch(vec![NodeId(1), NodeId(2), NodeId(3)]),
            NetworkEvent::Join { neighbors: vec![] },
            NetworkEvent::Join {
                neighbors: vec![NodeId(4), NodeId(5)],
            },
        ];
        for ev in cases {
            let wire = ev.to_string();
            let back: NetworkEvent = wire.parse().unwrap_or_else(|e| {
                panic!("'{wire}' failed to parse back: {e}");
            });
            assert_eq!(back, ev, "round trip through '{wire}'");
        }
    }

    #[test]
    fn event_wire_form_rejects_garbage_with_readable_errors() {
        let err = |s: &str| s.parse::<NetworkEvent>().unwrap_err();
        assert!(err("").contains("empty event"));
        assert!(err("explode 3").contains("unknown event 'explode'"));
        assert!(err("delete").contains("exactly one node id"));
        assert!(err("delete 1 2").contains("exactly one node id"));
        assert!(err("delete x").contains("invalid node id 'x'"));
        assert!(err("delete-batch 1 -2").contains("invalid node id '-2'"));
        assert!(err("join 4294967296").contains("invalid node id"));
    }

    #[test]
    fn dash_survives_full_audit_to_empty() {
        let engine = ScenarioEngine::new(ba_net(48, 5), Dash, MaxNode).with_audit(AuditLevel::Full);
        let report = { engine }.run_to_empty();
        assert_eq!(report.rounds, 48);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.max_delta_ever as f64 <= 2.0 * 48f64.log2());
    }

    #[test]
    fn no_heal_audit_detects_disconnection() {
        let mut engine =
            ScenarioEngine::new(ba_net(32, 3), NoHeal, MaxNode).with_audit(AuditLevel::Cheap);
        let report = engine.run_to_empty();
        assert!(
            !report.violations.is_empty(),
            "NoHeal must break connectivity"
        );
    }

    #[test]
    fn theorem_audit_checks_amortized_latency_once_at_finish() {
        // A zero latency factor flags any run whose broadcasts took a hop.
        let tight = invariants::TheoremBounds {
            latency_factor: 0.0,
            ..invariants::TheoremBounds::default()
        };
        let mut engine = ScenarioEngine::new(ba_net(40, 13), Dash, MaxNode);
        engine.audit = Audit::Theorems {
            auditor: Box::new(TheoremAuditor::new(true).with_bounds(tight)),
            finished: false,
        };
        assert!(engine.run_events(20).violations.is_empty());
        let found = engine.finish().violations;
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("finish: amortized latency"));
        assert_eq!(engine.finish().violations, found);
        assert_eq!(engine.run_events(5).violations, found);
        assert_eq!(engine.run_to_empty().violations, found);
    }

    #[test]
    fn dead_delete_events_are_noops() {
        let mut engine = ScenarioEngine::new(
            HealingNetwork::new(path_graph(3), 1),
            Dash,
            ScriptedEvents::new(vec![
                NetworkEvent::Delete(NodeId(1)),
                NetworkEvent::Delete(NodeId(1)), // already dead
                NetworkEvent::Delete(NodeId(9)), // out of range... NodeId(9) is out of bounds
            ]),
        );
        let rec = engine.step().unwrap();
        assert_eq!(rec.victims, 1);
        let rec = engine.step().unwrap();
        assert_eq!(rec.victims, 0);
        assert_eq!(rec.round_max_delta, None);
        let rec = engine.step().unwrap();
        assert_eq!(rec.victims, 0);
        let report = engine.run_to_empty();
        assert_eq!(report.events, 3);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.deletions, 1);
    }

    #[test]
    fn batch_events_fold_the_batch_path() {
        // Alternating cycle deletions: a maximal independent set.
        let victims: Vec<NodeId> = (0..10).step_by(2).map(NodeId).collect();
        let mut engine = ScenarioEngine::new(
            HealingNetwork::new(cycle_graph(10), 2),
            Dash,
            ScriptedEvents::new(vec![NetworkEvent::DeleteBatch(victims)]),
        );
        let rec = engine.step().unwrap();
        assert_eq!(rec.kind, EventKind::DeleteBatch);
        assert_eq!(rec.victims, 5);
        assert!(rec.round_max_delta.is_some());
        assert!(is_connected(engine.net.graph()));
        assert!(is_forest(engine.net.healing_graph()));
        let report = engine.run_to_empty();
        assert_eq!(report.rounds, 1);
        assert_eq!(report.deletions, 5);
    }

    #[test]
    fn batch_sanitization_drops_adjacent_dead_and_duplicate_victims() {
        let mut engine = ScenarioEngine::new(
            HealingNetwork::new(path_graph(6), 3),
            Dash,
            ScriptedEvents::new(vec![
                NetworkEvent::Delete(NodeId(5)),
                // 5 is dead, 1 duplicates, 2 is adjacent to kept 1.
                NetworkEvent::DeleteBatch(vec![
                    NodeId(5),
                    NodeId(1),
                    NodeId(1),
                    NodeId(2),
                    NodeId(3),
                ]),
            ]),
        );
        engine.step().unwrap();
        let rec = engine.step().unwrap();
        assert_eq!(rec.victims, 2); // 1 and 3 survive sanitization
        assert!(!engine.net.is_alive(NodeId(1)));
        assert!(engine.net.is_alive(NodeId(2)));
        assert!(!engine.net.is_alive(NodeId(3)));
    }

    #[test]
    fn join_events_create_and_skip_correctly() {
        let mut engine = ScenarioEngine::new(
            HealingNetwork::new(path_graph(3), 1),
            Dash,
            ScriptedEvents::new(vec![
                NetworkEvent::Join {
                    neighbors: vec![NodeId(0), NodeId(0), NodeId(2)],
                },
                NetworkEvent::Delete(NodeId(3)),
                NetworkEvent::Join {
                    neighbors: vec![NodeId(3)], // now dead: join skipped
                },
            ]),
        );
        let rec = engine.step().unwrap();
        assert_eq!(rec.kind, EventKind::Join);
        let joined = rec.joined.unwrap();
        assert_eq!(engine.net.graph().degree(joined), 2);
        let rec = engine.step().unwrap();
        assert_eq!(rec.victims, 1);
        let rec = engine.step().unwrap();
        assert_eq!(rec.joined, None);
        let report = engine.run_to_empty();
        assert_eq!(report.joins, 1);
        assert_eq!(report.rounds, 1);
    }

    /// A source stuck on dead nodes must fail loudly, not hang
    /// `run_to_empty`.
    #[test]
    #[should_panic(expected = "made no progress")]
    fn run_to_empty_panics_on_a_no_progress_source() {
        struct StuckOnDead;
        impl Adversary for StuckOnDead {
            fn name(&self) -> &'static str {
                "stuck-on-dead"
            }
            fn pick(&mut self, _net: &HealingNetwork) -> Option<NodeId> {
                Some(NodeId(0))
            }
        }
        let mut engine = ScenarioEngine::new(ba_net(8, 4), Dash, StuckOnDead);
        engine.run_to_empty();
    }

    #[test]
    fn observers_see_every_event() {
        let mut log = RecordLog::default();
        let mut engine = ScenarioEngine::new(ba_net(12, 7), Dash, MaxNode);
        let report = engine.run_to_empty_with(&mut log);
        assert_eq!(log.records.len(), report.events as usize);
        assert_eq!(report.rounds, 12);
        for (i, rec) in log.records.iter().enumerate() {
            assert_eq!(rec.event, i as u64 + 1);
            assert_eq!(rec.kind, EventKind::Delete);
        }
    }

    #[test]
    fn closure_observers_work() {
        let mut seen = 0u64;
        let mut engine = ScenarioEngine::new(ba_net(8, 1), Dash, MaxNode);
        engine.run_to_empty_with(&mut |_net: &HealingNetwork, _rec: &EventRecord| seen += 1);
        assert_eq!(seen, 8);
    }

    #[test]
    fn run_events_stops_early() {
        let mut engine = ScenarioEngine::new(ba_net(20, 2), Dash, MaxNode);
        let report = engine.run_events(5);
        assert_eq!(report.rounds, 5);
        assert_eq!(engine.net.graph().live_node_count(), 15);
    }

    #[test]
    fn churn_source_keeps_sdash_invariants() {
        let mut engine = ScenarioEngine::new(ba_net(48, 9), Sdash, RandomChurn::new(9))
            .with_audit(AuditLevel::Cheap);
        // Deletions outpace joins 2:1, so the run may drain the network
        // slightly before the event budget; both endings are valid.
        let report = engine.run_events(60);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.joins > 0, "churn should have produced joins");
        assert!(report.deletions > 0);
        assert!(report.events <= 60);
    }

    #[test]
    fn scripted_run_is_reproducible() {
        let run = || {
            let mut engine =
                ScenarioEngine::new(ba_net(24, 9), Dash, Scripted::new((0..24u32).map(NodeId)));
            let r = engine.run_to_empty();
            (
                r.rounds,
                r.max_delta_ever,
                r.total_messages,
                r.total_edges_added,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn report_amortized_latency() {
        let mut engine = ScenarioEngine::new(ba_net(40, 13), Dash, MaxNode);
        let report = engine.run_to_empty();
        assert!(report.amortized_latency() >= 0.0);
        assert!(report.max_propagation_latency >= 1);
        assert_eq!(ScenarioReport::default().amortized_latency(), 0.0);
    }
}
