//! One tenant's shard: a spec-built healing engine, its pending event
//! queue, per-tenant metrics, the optional theorem auditor, and the
//! snapshot writer that publishes queryable state after every tick.
//!
//! The shard keeps the request path panic-free by construction:
//! hostile input is rejected at [`Shard::submit`] with a readable
//! error (oversized batches, out-of-range ids), and events the engine
//! would treat as no-ops are counted and skipped *before* they reach
//! [`ScenarioEngine::apply_with`] — so the engine's
//! `NO_PROGRESS_LIMIT` stuck-source panic is unreachable no matter
//! what a client streams at us.

use crate::snapshot::{slot_pair, SnapshotReader, SnapshotWriter};
use selfheal_core::scenario::{NetworkEvent, NullObserver, Observer};
use selfheal_core::snapshot::StateSnapshot;
use selfheal_core::spec::{AuditSpec, BackendSpec, DynScenarioEngine, ScenarioSpec};
use selfheal_core::TheoremAuditor;
use selfheal_graph::NodeId;
use selfheal_metrics::TenantStats;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Hard cap on victims per `delete-batch` and targets per `join` — a
/// hostile stream cannot make one event arbitrarily expensive.
pub const MAX_BATCH: usize = 1024;

/// What queries read: the engine-state snapshot plus the per-tenant
/// aggregate and audit counters, published as one atomic unit.
#[derive(Clone, Debug, Default)]
pub struct ShardSnapshot {
    /// Topology summary (live set, components, degrees, deltas, `G'`).
    pub state: StateSnapshot,
    /// Per-tenant aggregate metrics.
    pub stats: TenantStats,
    /// Findings so far (theorem auditor + engine-level audit).
    pub violations: usize,
    /// Events queued but not yet applied when this epoch published.
    pub pending: usize,
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
    queue: VecDeque<NetworkEvent>,
    writer: SnapshotWriter<ShardSnapshot>,
    reader: SnapshotReader<ShardSnapshot>,
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
        let engine = spec
            .build_engine()
            .map_err(|e| format!("tenant '{tenant}': {e}"))?;
        let auditor = (spec.audit == AuditSpec::Theorems)
            .then(|| TheoremAuditor::new(spec.healer.build().preserves_forest()));
        let (writer, reader) = slot_pair(ShardSnapshot::default(), ShardSnapshot::default());
        let mut shard = Shard {
            tenant: tenant.to_string(),
            engine,
            auditor,
            stats: TenantStats::default(),
            queue: VecDeque::new(),
            writer,
            reader,
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
        self.validate(&event)?;
        self.queue.push_back(event);
        Ok(())
    }

    /// Events queued and not yet applied.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn validate(&self, event: &NetworkEvent) -> Result<(), String> {
        let (ids, what): (&[NodeId], _) = match event {
            NetworkEvent::Delete(v) => (std::slice::from_ref(v), "victim"),
            NetworkEvent::DeleteBatch(vs) => {
                if vs.len() > MAX_BATCH {
                    return Err(format!(
                        "tenant '{}': batch of {} victims exceeds the \
                         {MAX_BATCH}-victim cap",
                        self.tenant,
                        vs.len()
                    ));
                }
                (vs, "victim")
            }
            NetworkEvent::Join { neighbors } => {
                if neighbors.len() > MAX_BATCH {
                    return Err(format!(
                        "tenant '{}': join with {} targets exceeds the \
                         {MAX_BATCH}-target cap",
                        self.tenant,
                        neighbors.len()
                    ));
                }
                (neighbors, "join target")
            }
        };
        let bound = self.engine.net.graph().node_bound();
        for v in ids {
            if v.index() >= bound {
                return Err(format!(
                    "tenant '{}': {what} id {} out of range (network has \
                     {bound} node slots)",
                    self.tenant, v.0
                ));
            }
        }
        Ok(())
    }

    /// Would the engine make progress on this event? Mirrors the
    /// engine's sanitization: a dead single victim, an all-dead batch,
    /// or a join whose non-empty target list is all dead are no-ops
    /// (an explicitly empty join creates an isolated node and *does*
    /// progress).
    fn would_progress(&self, event: &NetworkEvent) -> bool {
        let net = &self.engine.net;
        match event {
            NetworkEvent::Delete(v) => net.is_alive(*v),
            NetworkEvent::DeleteBatch(vs) => vs.iter().any(|&v| net.is_alive(v)),
            NetworkEvent::Join { neighbors } => {
                neighbors.is_empty() || neighbors.iter().any(|&v| net.is_alive(v))
            }
        }
    }

    /// Drain the pending queue through the engine, then publish a fresh
    /// snapshot. Returns `(applied, skipped)` event counts for this
    /// tick. Deterministic: the outcome depends only on the queue
    /// contents and prior shard state, never on who calls it.
    pub fn tick(&mut self) -> (u64, u64) {
        let (mut applied, mut skipped) = (0u64, 0u64);
        let mut null = NullObserver;
        while let Some(event) = self.queue.pop_front() {
            if !self.would_progress(&event) {
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
        self.publish();
        (applied, skipped)
    }

    /// Current finding count: run-level theorem findings plus whatever
    /// the engine-embedded audit has accumulated in its report.
    fn violation_count(&self) -> usize {
        self.auditor.as_ref().map_or(0, |a| a.violations.len())
            + self.engine.report().violations.len()
    }

    fn publish(&mut self) {
        let engine = &self.engine;
        let stats = self.stats;
        let violations = self.violation_count();
        let pending = self.queue.len();
        self.writer.publish(|snap| {
            snap.state.capture(&engine.net);
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
