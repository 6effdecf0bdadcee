//! One tenant's shard: a spec-built healing engine, its pending event
//! queue, per-tenant metrics, the optional theorem auditor, and the
//! snapshot writer that publishes queryable state after every tick.
//!
//! The shard keeps the request path panic-free by construction:
//! hostile input is rejected at [`Shard::submit`] with a readable
//! error (oversized batches, out-of-range ids), and events the engine
//! would treat as no-ops are counted and skipped *before* they reach
//! [`ScenarioEngine::apply_with`] — so the engine's `NO_PROGRESS_LIMIT`
//! stuck-source panic is unreachable no matter what a client streams at
//! us.
//!
//! [`ScenarioEngine::apply_with`]: selfheal_core::scenario::ScenarioEngine::apply_with

use crate::snapshot::{slot_pair, SnapshotReader, SnapshotWriter};
use selfheal_core::scenario::{EventKind, EventRef, NetworkEvent, NullObserver, Observer};
use selfheal_core::snapshot::StateSnapshot;
use selfheal_core::spec::{AuditSpec, BackendSpec, DynScenarioEngine, ScenarioSpec};
use selfheal_core::state::HealingNetwork;
use selfheal_core::TheoremAuditor;
use selfheal_graph::NodeId;
use selfheal_metrics::TenantStats;
use std::fmt::Write as _;
use std::ops::Range;

/// Hard cap on victims per `delete-batch` and targets per `join` — a
/// hostile stream cannot make one event arbitrarily expensive.
pub const MAX_BATCH: usize = 1024;

/// What queries read: the engine-state snapshot plus the per-tenant
/// aggregate and audit counters, published as one atomic unit.
#[derive(Clone, Debug, Default)]
pub struct ShardSnapshot {
    /// Topology summary (live set, components, `G'` degrees and edge
    /// count).
    pub state: StateSnapshot,
    /// Per-tenant aggregate metrics.
    pub stats: TenantStats,
    /// Findings so far (theorem auditor + engine-level audit).
    pub violations: usize,
    /// Events queued but not yet applied when this epoch published.
    pub pending: usize,
}

/// The events queued for the next tick, their payloads back to back:
/// one `(kind, span)` entry per event, with its ids at `ids[span]` (a
/// `delete`'s victim included). Queueing allocates only while the two
/// buffers grow to their working size, since a tick clears them in
/// place.
#[derive(Default)]
struct Queue {
    ids: Vec<NodeId>,
    events: Vec<(EventKind, Range<usize>)>,
}

impl Queue {
    fn len(&self) -> usize {
        self.events.len()
    }

    /// The `i`-th queued event.
    fn get(&self, i: usize) -> EventRef<'_> {
        let (kind, span) = &self.events[i];
        let ids = &self.ids[span.clone()];
        match kind {
            EventKind::Delete => EventRef::Delete(ids[0]),
            EventKind::DeleteBatch => EventRef::DeleteBatch(ids),
            EventKind::Join => EventRef::Join(ids),
        }
    }

    /// Queue `event`, copying its payload.
    fn push(&mut self, event: EventRef<'_>) {
        let start = self.ids.len();
        match event {
            EventRef::Delete(v) => self.ids.push(v),
            EventRef::DeleteBatch(ids) | EventRef::Join(ids) => self.ids.extend_from_slice(ids),
        }
        self.events.push((event.kind(), start..self.ids.len()));
    }

    /// Parse an event's wire form straight onto the end of `ids` and
    /// queue it if `check` accepts it. A rejected event leaves the
    /// queue as it was.
    fn push_text(
        &mut self,
        text: &str,
        check: impl FnOnce(EventRef<'_>) -> Result<(), String>,
    ) -> Result<(), String> {
        let start = self.ids.len();
        let event = EventRef::parse_into(text, &mut self.ids)?;
        if let Err(e) = check(event) {
            self.ids.truncate(start);
            return Err(e);
        }
        let kind = event.kind();
        if let EventRef::Delete(v) = event {
            self.ids.push(v);
        }
        self.events.push((kind, start..self.ids.len()));
        Ok(())
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.events.clear();
    }
}

/// One tenant's engine plus serving state. Created from a `.scn` spec
/// via [`Shard::from_spec`]; driven by [`Shard::submit`] +
/// [`Shard::tick`]; torn down by [`Shard::finish`].
pub struct Shard {
    tenant: String,
    engine: DynScenarioEngine,
    /// Run-level theorem auditing (`audit = theorems` specs). The
    /// engine's embedded audit level is `Off` for those specs, so the
    /// shard must carry the observer itself — same wiring as
    /// `ScenarioSpec::run_with`.
    auditor: Option<TheoremAuditor>,
    stats: TenantStats,
    queue: Queue,
    writer: SnapshotWriter<ShardSnapshot>,
    reader: SnapshotReader<ShardSnapshot>,
    /// The engine's touched-slot logs drained at the last two publishes
    /// (`[older, newer]`) and whether each was complete: together they
    /// cover every change since the spare snapshot was filled.
    logs: [Vec<NodeId>; 2],
    complete: [bool; 2],
}

impl Shard {
    /// Build a shard from a parsed spec. Specs whose execution model is
    /// not an incrementally drivable centralized engine — `distributed`
    /// / `parity` / `explorer` backends, `exhaustive` audits — are
    /// rejected with a readable reason (the serving loop applies
    /// *client* events; those specs replay whole schedules or
    /// universes on their own).
    pub fn from_spec(tenant: &str, spec: &ScenarioSpec) -> Result<Shard, String> {
        if spec.backend != BackendSpec::Centralized {
            return Err(format!(
                "tenant '{tenant}': backend '{}' is not servable — \
                 selfheal-serve drives the centralized engine only",
                spec.backend
            ));
        }
        if spec.audit == AuditSpec::Exhaustive {
            return Err(format!(
                "tenant '{tenant}': audit 'exhaustive' replays whole graph \
                 universes and cannot be driven by a client event stream"
            ));
        }
        let mut engine = spec
            .build_engine()
            .map_err(|e| format!("tenant '{tenant}': {e}"))?;
        let auditor = (spec.audit == AuditSpec::Theorems)
            .then(|| TheoremAuditor::new(spec.healer.build().preserves_forest()));
        // Both slot values start as one full capture, and the log starts
        // empty from there (this first drain also sizes it): every later
        // spare is then a known state exactly two publishes old. The log
        // never holds more than the initial node count, so the two
        // copies never outgrow this.
        let mut initial = ShardSnapshot::default();
        initial.state.capture(&engine.net);
        let n = engine.net.initial_node_count();
        let mut logs = [Vec::with_capacity(n), Vec::with_capacity(n)];
        engine.net.take_touched(&mut logs[1]);
        let (writer, reader) = slot_pair(initial.clone(), initial);
        let mut shard = Shard {
            tenant: tenant.to_string(),
            engine,
            auditor,
            stats: TenantStats::default(),
            queue: Queue::default(),
            writer,
            reader,
            logs,
            complete: [true, true],
        };
        shard.publish();
        Ok(shard)
    }

    /// The tenant this shard serves.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// A cloneable query handle for this shard.
    pub fn reader(&self) -> SnapshotReader<ShardSnapshot> {
        self.reader.clone()
    }

    /// Validate and enqueue one event. Errors (oversized events,
    /// out-of-range ids) leave the shard untouched; harmless-but-stale
    /// references (dead victims) are accepted and later counted as
    /// skips, mirroring the engine's own sanitization contract.
    pub fn submit(&mut self, event: NetworkEvent) -> Result<(), String> {
        let event = event.as_event_ref();
        validate(&self.tenant, &self.engine.net, event)?;
        self.queue.push(event);
        Ok(())
    }

    /// [`Shard::submit`] on an event's wire form, parsed straight into
    /// the queue: a syntax error comes first, then the checks `submit`
    /// makes. Allocates nothing once the queue has its working size.
    pub(crate) fn submit_text(&mut self, text: &str) -> Result<(), String> {
        let (tenant, net) = (&self.tenant, &self.engine.net);
        self.queue
            .push_text(text, |event| validate(tenant, net, event))
    }

    /// Events queued and not yet applied.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Drain the pending queue through the engine, then publish a fresh
    /// snapshot. Returns `(applied, skipped)` event counts for this
    /// tick. Deterministic: the outcome depends only on the queue
    /// contents and prior shard state, never on who calls it.
    pub fn tick(&mut self) -> (u64, u64) {
        let (mut applied, mut skipped) = (0u64, 0u64);
        let mut null = NullObserver;
        for i in 0..self.queue.len() {
            let event = self.queue.get(i);
            if !would_progress(&self.engine.net, event) {
                self.stats.observe_skipped();
                skipped += 1;
                continue;
            }
            let observer: &mut dyn Observer = match self.auditor.as_mut() {
                Some(a) => a,
                None => &mut null,
            };
            let record = self.engine.apply_with(event, observer);
            self.stats.observe(record.tenant_sample());
            applied += 1;
        }
        self.queue.clear();
        self.publish();
        (applied, skipped)
    }

    /// Current finding count: run-level theorem findings plus whatever
    /// the engine-embedded audit has accumulated in its report.
    fn violation_count(&self) -> usize {
        self.auditor.as_ref().map_or(0, |a| a.violations.len())
            + self.engine.report().violations.len()
    }

    /// Publish the current state. The spare snapshot the writer refills
    /// was filled two publishes ago (or is a copy of that, when a reader
    /// still held it), so replaying the logs of this publish and the one
    /// before brings it up to date; a log that overflowed forces a full
    /// capture instead.
    fn publish(&mut self) {
        self.logs.swap(0, 1);
        self.complete.swap(0, 1);
        self.complete[1] = self.engine.net.take_touched(&mut self.logs[1]);
        let delta = self.complete == [true, true];
        let [older, newer] = &self.logs;
        let engine = &self.engine;
        let stats = self.stats;
        let violations = self.violation_count();
        let pending = self.queue.len();
        self.writer.publish(|snap| {
            if delta {
                snap.state.update(&engine.net, [older, newer]);
            } else {
                snap.state.capture(&engine.net);
            }
            snap.stats = stats;
            snap.violations = violations;
            snap.pending = pending;
        });
    }

    /// Finalize: drain any stragglers, run the auditor's end-of-run
    /// checks (amortized latency), publish the terminal snapshot, and
    /// render the deterministic per-tenant report block.
    pub fn finish(&mut self) -> String {
        self.tick();
        let report = self.engine.finish();
        if let Some(auditor) = self.auditor.as_mut() {
            auditor.finish(&self.engine.net, &report);
        }
        self.publish();
        let (_, snap) = self.reader.get();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tenant {}: healer {}  audit findings {}",
            self.tenant,
            self.engine.healer_name(),
            snap.violations
        );
        let s = &snap.stats;
        let _ = writeln!(
            out,
            "  events {}  skipped {}  deletions {}  joins {}",
            s.events, s.skipped, s.deletions, s.joins
        );
        let _ = writeln!(
            out,
            "  live {}  components {}  gprime-edges {}  max-delta {}",
            snap.state.live_count(),
            snap.state.components.len(),
            snap.state.gprime_edges,
            s.max_delta
        );
        let _ = writeln!(
            out,
            "  messages {}  healing-edges {}  amortized-latency {:.2}",
            s.messages,
            s.edges_added,
            s.amortized_latency()
        );
        if let Some(auditor) = &self.auditor {
            for v in &auditor.violations {
                let _ = writeln!(out, "  VIOLATION: {v}");
            }
            if auditor.truncated {
                let _ = writeln!(out, "  audit: further findings truncated");
            }
        }
        for v in &self.engine.report().violations {
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
        out
    }
}

/// Reject an event the engine must never see: a batch or join past
/// [`MAX_BATCH`], or an id beyond the network's node slots.
fn validate(tenant: &str, net: &HealingNetwork, event: EventRef<'_>) -> Result<(), String> {
    let victim;
    let (ids, what): (&[NodeId], _) = match event {
        EventRef::Delete(v) => {
            victim = [v];
            (&victim, "victim")
        }
        EventRef::DeleteBatch(vs) => {
            if vs.len() > MAX_BATCH {
                return Err(format!(
                    "tenant '{tenant}': batch of {} victims exceeds the \
                     {MAX_BATCH}-victim cap",
                    vs.len()
                ));
            }
            (vs, "victim")
        }
        EventRef::Join(ts) => {
            if ts.len() > MAX_BATCH {
                return Err(format!(
                    "tenant '{tenant}': join with {} targets exceeds the \
                     {MAX_BATCH}-target cap",
                    ts.len()
                ));
            }
            (ts, "join target")
        }
    };
    let bound = net.graph().node_bound();
    for v in ids {
        if v.index() >= bound {
            return Err(format!(
                "tenant '{tenant}': {what} id {} out of range (network has \
                 {bound} node slots)",
                v.0
            ));
        }
    }
    Ok(())
}

/// Would the engine make progress on this event? Mirrors the engine's
/// sanitization: a dead single victim, an all-dead batch, or a join
/// whose non-empty target list is all dead are no-ops (an explicitly
/// empty join creates an isolated node and *does* progress).
fn would_progress(net: &HealingNetwork, event: EventRef<'_>) -> bool {
    match event {
        EventRef::Delete(v) => net.is_alive(v),
        EventRef::DeleteBatch(vs) => vs.iter().any(|&v| net.is_alive(v)),
        EventRef::Join(ts) => ts.is_empty() || ts.iter().any(|&v| net.is_alive(v)),
    }
}
