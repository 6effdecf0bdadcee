//! The sharded scheduler: one [`Shard`] per tenant, ticked in parallel
//! on a persistent `graph::parallel::WorkerPool` with dynamic load
//! balancing, and per-tenant query handles that never wait on a heal.
//!
//! # Determinism contract
//!
//! Each tick claims every shard index exactly once (the pool's atomic
//! dispatch counter), and a shard's tick drains its whole queue — so a
//! shard's evolution depends only on *its own* event sequence, never on
//! which worker ran it or how shards interleaved. Given the same specs
//! and the same per-tenant event streams, the final per-tenant reports
//! ([`Cluster::finish`]) are byte-identical for any worker count —
//! pinned by `tests/serve.rs` and the `make serve-check` smoke gate.
//!
//! The pool's helpers are spawned at the first multi-worker tick and
//! park between ticks; ticks take turns on it, so concurrent `tick`
//! callers are safe. With one worker or one shard, `tick` runs the
//! shards inline and spawns no thread.

use crate::lock;
use crate::proto::{answer_body, parse_request, Query, Request};
use crate::shard::{Shard, ShardSnapshot};
use crate::snapshot::SnapshotReader;
use selfheal_core::scenario::NetworkEvent;
use selfheal_core::spec::ScenarioSpec;
use selfheal_graph::parallel::WorkerPool;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Per-tick `(applied, skipped)` event counts.
type Counts = (u64, u64);

fn add(x: Counts, y: Counts) -> Counts {
    (x.0 + y.0, x.1 + y.1)
}

/// A set of tenant shards behind one scheduler.
pub struct Cluster {
    /// Shared with the pool's helpers, which tick shards by index.
    shards: Arc<Vec<Mutex<Shard>>>,
    tenants: Vec<String>,
    /// Query handles, index-parallel to `shards`: reads take no shard
    /// lock, so they never wait on a tick.
    readers: Vec<SnapshotReader<ShardSnapshot>>,
    threads: usize,
    /// Built at the first multi-worker tick, dropped by `add_spec`. The
    /// lock serializes ticks.
    pool: Mutex<Option<WorkerPool<Counts>>>,
}

impl Cluster {
    /// An empty cluster ticking on `threads` workers (min 1).
    #[must_use]
    pub fn new(threads: usize) -> Cluster {
        Cluster {
            shards: Arc::default(),
            tenants: Vec::new(),
            readers: Vec::new(),
            threads: threads.max(1),
            pool: Mutex::new(None),
        }
    }

    /// Add one tenant backed by `spec`. Errors on duplicate tenant
    /// names, reserved names, and unservable specs (see
    /// [`Shard::from_spec`]).
    pub fn add_spec(&mut self, tenant: &str, spec: &ScenarioSpec) -> Result<(), String> {
        if tenant == "query" || tenant == "tick" {
            return Err(format!(
                "tenant name '{tenant}' is a protocol keyword and cannot be \
                 served"
            ));
        }
        if self.tenants.iter().any(|t| t == tenant) {
            return Err(format!("tenant '{tenant}' is already being served"));
        }
        let shard = Shard::from_spec(tenant, spec)?;
        // Joining the helpers releases their handles on the shards; the
        // next tick builds a pool sized for the new shard count.
        self.pool = Mutex::new(None);
        // panic-ok: the pool just dropped held the only other handle.
        let shards = Arc::get_mut(&mut self.shards).expect("no pool holds the shards");
        self.readers.push(shard.reader());
        shards.push(Mutex::new(shard));
        self.tenants.push(tenant.to_string());
        Ok(())
    }

    /// Load `.scn` specs from a directory, one tenant per file (the
    /// tenant is the file stem), in sorted filename order.
    ///
    /// With `tenants` given, exactly those stems are loaded, in the
    /// given order, and any failure is an error. Without it, every
    /// `.scn` file is tried and unservable or unparsable specs are
    /// *skipped*, each with a readable notice in the returned list —
    /// so a mixed corpus (parity specs, explorer specs) serves its
    /// servable subset.
    pub fn load_dir(
        &mut self,
        dir: &Path,
        tenants: Option<&[&str]>,
    ) -> Result<Vec<String>, String> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read spec directory '{}': {e}", dir.display()))?;
        let mut stems: Vec<String> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list '{}': {e}", dir.display()))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("scn") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    stems.push(stem.to_string());
                }
            }
        }
        stems.sort();
        let mut notices = Vec::new();
        match tenants {
            Some(wanted) => {
                for &name in wanted {
                    if !stems.iter().any(|s| s == name) {
                        return Err(format!(
                            "no spec '{name}.scn' in '{}' (available: {})",
                            dir.display(),
                            stems.join(", ")
                        ));
                    }
                    let spec = load_spec(dir, name)?;
                    self.add_spec(name, &spec)?;
                }
            }
            None => {
                for name in &stems {
                    match load_spec(dir, name).and_then(|spec| self.add_spec(name, &spec)) {
                        Ok(()) => {}
                        Err(reason) => notices.push(format!("skipping {name}.scn: {reason}")),
                    }
                }
            }
        }
        Ok(notices)
    }

    /// The served tenants, in serving order.
    #[must_use]
    pub fn tenants(&self) -> &[String] {
        &self.tenants
    }

    fn index_of(&self, tenant: &str) -> Result<usize, String> {
        self.tenants
            .iter()
            .position(|t| t == tenant)
            .ok_or_else(|| {
                format!(
                    "unknown tenant '{tenant}' (serving: {})",
                    self.tenants.join(", ")
                )
            })
    }

    /// Enqueue one event on a tenant's shard.
    pub fn submit(&self, tenant: &str, event: NetworkEvent) -> Result<(), String> {
        let i = self.index_of(tenant)?;
        lock(&self.shards[i]).submit(event)
    }

    /// A query handle for one tenant — cloneable and usable from any
    /// thread while ticks run.
    pub fn reader(&self, tenant: &str) -> Result<SnapshotReader<ShardSnapshot>, String> {
        Ok(self.readers[self.index_of(tenant)?].clone())
    }

    /// Answer a query from the tenant's *published* snapshot: the one
    /// current when the read began, tagged with its epoch. Never waits
    /// on a heal.
    pub fn query(&self, tenant: &str, query: Query) -> Result<String, String> {
        let i = self.index_of(tenant)?;
        let (epoch, body) = self.readers[i].read(|snap| answer_body(query, snap));
        Ok(format!("epoch {epoch} {body}"))
    }

    /// Apply every queued event on every shard (each shard claimed
    /// exactly once, drained fully) and publish fresh snapshots.
    /// Returns the cluster-wide `(applied, skipped)` counts — a
    /// commutative reduction, so they too are worker-count-invariant.
    pub fn tick(&self) -> (u64, u64) {
        let workers = self.threads.min(self.shards.len());
        if workers <= 1 {
            return self.shards.iter().map(|s| lock(s).tick()).fold((0, 0), add);
        }
        let mut pool = lock(&self.pool);
        let pool = pool.get_or_insert_with(|| {
            let shards = Arc::clone(&self.shards);
            WorkerPool::new(workers, move |acc, i| add(acc, lock(&shards[i]).tick()))
        });
        pool.run(self.shards.len(), add)
    }

    /// Total events queued and not yet applied, across all shards.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| lock(s).pending()).sum()
    }

    /// Tick until no shard has pending events. Returns the total
    /// `(applied, skipped)` counts.
    pub fn run_to_quiescence(&self) -> (u64, u64) {
        let (mut applied, mut skipped) = (0u64, 0u64);
        loop {
            let (a, s) = self.tick();
            applied += a;
            skipped += s;
            if self.pending() == 0 {
                return (applied, skipped);
            }
        }
    }

    /// Finalize every shard (in serving order) and concatenate the
    /// deterministic per-tenant report blocks — the byte-identical
    /// artifact of the determinism contract.
    #[must_use]
    pub fn finish(&self) -> String {
        let mut out = String::new();
        for shard in self.shards.iter() {
            out.push_str(&lock(shard).finish());
        }
        out
    }

    /// Execute one protocol line end to end: parse, dispatch, and
    /// render. Returns the line to print, if any (event submissions are
    /// silent on success; every error becomes a printable
    /// `error: ...` line rather than a failure).
    pub fn handle_line(&self, line: &str) -> Option<String> {
        let request = match parse_request(line) {
            Ok(None) => return None,
            Ok(Some(r)) => r,
            Err(e) => return Some(format!("error: {e}")),
        };
        match request {
            Request::Event { tenant, event } => match self.submit(&tenant, event) {
                Ok(()) => None,
                Err(e) => Some(format!("error: {e}")),
            },
            Request::Query { tenant, query } => match self.query(&tenant, query) {
                Ok(text) => Some(text),
                Err(e) => Some(format!("error: {e}")),
            },
            Request::Tick => {
                let (applied, skipped) = self.tick();
                Some(format!("tick applied {applied} skipped {skipped}"))
            }
        }
    }
}

fn load_spec(dir: &Path, stem: &str) -> Result<ScenarioSpec, String> {
    let path = dir.join(format!("{stem}.scn"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read spec '{}': {e}", path.display()))?;
    let spec = ScenarioSpec::parse(&text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}
