//! The per-layer ledger of a traced run: one span per call into a
//! layer's public functions, recorded from the benchmark's own files
//! (nothing inside the program is instrumented).
//!
//! Each span records its duration into a [`Hist`] and the heap
//! allocations made during the call, read from `selfheal-bench`'s
//! counting allocator: the calling thread's counter when the call stays
//! on one thread, the process-wide counter when it fans out to workers.

use crate::hist::Hist;
use selfheal_bench::alloc::{thread_allocations, total_allocations};
use std::time::{Duration, Instant};

/// A call boundary into one layer, named after the repository's
/// modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boundary {
    /// `EventSource::next_event` (`core::attack` / `core::scenario`).
    NextEvent,
    /// `HealingNetwork::delete_node_into` (`core::state`).
    DeleteNodeInto,
    /// `Healer::heal_into` (`core::dash`).
    HealInto,
    /// `HealingNetwork::propagate_min_id_uniform` (`core::state`).
    Propagate,
    /// `HealingNetwork::join_node` (`core::state`).
    JoinNode,
    /// `batch::delete_independent_batch` (`core::batch`).
    BatchDelete,
    /// `Healer::heal`, the allocating per-victim heal of the batch path.
    Heal,
    /// `proto::parse_request` (`serve::proto`).
    ParseRequest,
    /// `Cluster::submit` (`serve::cluster`).
    Submit,
    /// `Cluster::tick` (`serve::cluster`).
    ClusterTick,
    /// `Shard::tick` (`serve::shard`), from a direct shard replay.
    ShardTick,
    /// `ScenarioEngine::apply` on a served spec (`core::scenario`).
    Apply,
    /// `StateSnapshot::capture` (`core::snapshot`).
    Capture,
    /// `SnapshotReader::read` with a no-op closure (`serve::snapshot`).
    SnapshotRead,
    /// `Cluster::query` (`serve::cluster`).
    Query,
}

impl Boundary {
    /// Every boundary, in report order.
    pub const ALL: [Boundary; 15] = [
        Boundary::NextEvent,
        Boundary::DeleteNodeInto,
        Boundary::HealInto,
        Boundary::Propagate,
        Boundary::JoinNode,
        Boundary::BatchDelete,
        Boundary::Heal,
        Boundary::ParseRequest,
        Boundary::Submit,
        Boundary::ClusterTick,
        Boundary::ShardTick,
        Boundary::Apply,
        Boundary::Capture,
        Boundary::SnapshotRead,
        Boundary::Query,
    ];

    /// The metric-name prefix of this boundary.
    pub fn name(self) -> &'static str {
        match self {
            Boundary::NextEvent => "attack.next_event",
            Boundary::DeleteNodeInto => "state.delete_node_into",
            Boundary::HealInto => "healer.heal_into",
            Boundary::Propagate => "state.propagate_min_id_uniform",
            Boundary::JoinNode => "state.join_node",
            Boundary::BatchDelete => "batch.delete_independent_batch",
            Boundary::Heal => "healer.heal",
            Boundary::ParseRequest => "proto.parse_request",
            Boundary::Submit => "cluster.submit",
            Boundary::ClusterTick => "cluster.tick",
            Boundary::ShardTick => "shard.tick",
            Boundary::Apply => "scenario.apply",
            Boundary::Capture => "snapshot.capture",
            Boundary::SnapshotRead => "snapshot.read",
            Boundary::Query => "cluster.query",
        }
    }
}

/// What one boundary accumulated.
#[derive(Clone, Debug, Default)]
pub struct Span {
    /// Per-call durations.
    pub hist: Hist,
    /// Summed duration.
    pub total: Duration,
    /// Summed allocations.
    pub allocs: u64,
}

/// Spans for every boundary.
#[derive(Clone, Debug)]
pub struct Ledger {
    spans: Vec<Span>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            spans: vec![Span::default(); Boundary::ALL.len()],
        }
    }
}

impl Ledger {
    /// Time `f` as one call of `b`, counting the calling thread's
    /// allocations.
    #[inline]
    pub fn time<R>(&mut self, b: Boundary, f: impl FnOnce() -> R) -> R {
        self.time_counted(b, thread_allocations, f)
    }

    /// Time `f` as one call of `b`, counting allocations process-wide
    /// (for calls that fan out to worker threads while nothing else
    /// runs).
    #[inline]
    pub fn time_process<R>(&mut self, b: Boundary, f: impl FnOnce() -> R) -> R {
        self.time_counted(b, total_allocations, f)
    }

    #[inline]
    fn time_counted<R>(&mut self, b: Boundary, count: fn() -> u64, f: impl FnOnce() -> R) -> R {
        let a0 = count();
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        let allocs = count() - a0;
        let span = &mut self.spans[b as usize];
        span.hist.record(took);
        span.total += took;
        span.allocs += allocs;
        out
    }

    /// The accumulated span of `b`.
    pub fn span(&self, b: Boundary) -> &Span {
        &self.spans[b as usize]
    }

    /// Summed duration of the given boundaries.
    pub fn total(&self, bs: &[Boundary]) -> Duration {
        bs.iter().map(|&b| self.span(b).total).sum()
    }

    /// Fold another ledger (e.g. a second thread's) into this one.
    pub fn merge(&mut self, other: &Ledger) {
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            a.hist.merge(&b.hist);
            a.total += b.total;
            a.allocs += b.allocs;
        }
    }
}
