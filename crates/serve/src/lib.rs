//! # selfheal-serve
//!
//! Healing-as-a-service: many independent spec-built healing engines —
//! one shard per tenant — behind a sharded scheduler, ingesting failure
//! events over a line protocol and answering topology queries from
//! epoch-stamped snapshots that never wait on a heal.
//!
//! The paper's model is a batch event loop; the ROADMAP north star is a
//! long-lived, multi-tenant service. This crate is that serving layer:
//!
//! - [`snapshot`] — the read path: each shard publishes an
//!   epoch-stamped `Arc` of its state, swapped under a mutex held only
//!   for the swap, so a read never waits on a heal and a publish never
//!   waits on a read;
//! - [`shard`] — one tenant's engine + queue + metrics + auditor, with
//!   a panic-free request path (hostile streams are rejected or
//!   skipped, never fed to the engine's no-progress panic);
//! - [`cluster`] — the scheduler: every tick claims each shard exactly
//!   once on `graph::parallel`'s pool, so final reports are
//!   byte-identical for any worker count;
//! - [`proto`] — the `tenant-id <event>` line protocol and the query
//!   vocabulary (`components`, `degree`, `gprime-edges`, `stats`).
//!
//! The `selfheal-serve` binary serves a directory of `.scn` specs and
//! drives the cluster from stdin or a replay file; the library API is
//! driven directly by `tests/serve.rs` and experiment E13
//! (`run-experiments serve-bench`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod proto;
pub mod shard;
pub mod snapshot;

pub use cluster::Cluster;
pub use proto::{parse_request, Query, Request};
pub use shard::{Shard, ShardSnapshot, MAX_BATCH};
pub use snapshot::{slot_pair, SnapshotReader, SnapshotWriter};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a panicking holder poisoned it, so
/// one panicking tick or read does not lock every later caller out of
/// a shard or snapshot slot.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
