//! The serving workloads: `selfheal-serve`'s `Cluster` driven through
//! its line protocol.
//!
//! Event streams come from [`Stream`], a per-tenant liveness model that
//! tracks every delete and the fresh id each join receives (the next
//! node slot), so every generated event is valid and none is skipped.
//! The stream depends only on the seed, never on the cluster, so it is
//! generated ahead of the timed region and regenerated for the checks.
//!
//! - `serve-ingest`: one client, closed loop. Each episode's tick windows
//!   are generated untimed, then replayed through `Cluster::handle_line`.
//! - `serve-read`: an open-loop writer sends each window's events when
//!   due and its tick half a period later, while one closed-loop reader
//!   thread issues `Cluster::query`. Tick and visibility times are taken
//!   from when the tick and the window were due.
//!
//! After the timed region every tenant's `Cluster::finish` block is
//! compared with a direct `ScenarioEngine` replay of that tenant's
//! stream. The traced run replays the same windows with spans around
//! `parse_request`, `Cluster::submit`, `Cluster::tick` and
//! `Cluster::query`, then a decomposition replay times `Shard::tick`,
//! `ScenarioEngine::apply` and `StateSnapshot::capture` on the same
//! windows and must end in the cluster's state.

use crate::calib::Reference;
use crate::hist::Hist;
use crate::ledger::{Boundary, Ledger};
use crate::slices::Slices;
use crate::{derive_seed, Outcome, Size, Workload, GRAPH_SEED};
use selfheal_bench::alloc::{thread_allocations, total_allocations};
use selfheal_core::scenario::NetworkEvent;
use selfheal_core::snapshot::StateSnapshot;
use selfheal_core::spec::{AdversarySpec, AuditSpec, GraphSpec, HealerSpec, ScenarioSpec};
use selfheal_graph::NodeId;
use selfheal_metrics::TenantStats;
use selfheal_serve::{parse_request, Cluster, Query, Request, Shard};
use selfheal_sim::SplitMix64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The one tenant of `serve-read`.
const READ_TENANT: &str = "t0";
/// How close to a due time the open-loop writer stops sleeping and
/// spins, so its lateness is not the scheduler's timer slack.
const SPIN: Duration = Duration::from_micros(200);

/// A serving workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Tenants (alternating dash and sdash).
    pub tenants: usize,
    /// Nodes per tenant graph, BA(n, 3).
    pub n: usize,
    /// Events per tenant per tick window.
    pub per_tenant: usize,
    /// Cluster worker threads.
    pub workers: usize,
    /// Tick windows per episode. Node slots are never reused, so every
    /// join grows the state a tick captures; a fresh cluster per episode
    /// keeps the measured state near its initial size.
    pub windows: usize,
    /// Window period of the open-loop writer (`serve-read`).
    pub period: Duration,
}

/// The shape of `workload` at `size`.
pub fn shape(workload: Workload, size: Size) -> Shape {
    let ingest = Shape {
        tenants: 4,
        n: 10_000,
        per_tenant: 32,
        workers: 2,
        windows: 128,
        period: Duration::ZERO,
    };
    let read = Shape {
        tenants: 1,
        n: 2_000,
        per_tenant: 8,
        workers: 1,
        windows: 125,
        period: Duration::from_millis(2),
    };
    match (workload, size) {
        (Workload::ServeRead, Size::Full) => read,
        (Workload::ServeRead, Size::Tiny) => Shape {
            n: 50,
            per_tenant: 4,
            windows: 8,
            period: Duration::from_millis(1),
            ..read
        },
        (_, Size::Full) => ingest,
        (_, Size::Tiny) => Shape {
            n: 60,
            per_tenant: 4,
            windows: 8,
            ..ingest
        },
    }
}

/// The tenants' specs: BA(n, 3), dash and sdash alternating, audit off.
pub fn tenant_specs(shape: &Shape, seed: u64) -> Vec<(String, ScenarioSpec)> {
    (0..shape.tenants)
        .map(|i| {
            let healer = if i % 2 == 0 {
                HealerSpec::Dash
            } else {
                HealerSpec::Sdash
            };
            let graph = GraphSpec::BarabasiAlbert { n: shape.n, m: 3 };
            let spec_seed = derive_seed(seed, 100 + i as u64);
            let mut spec = ScenarioSpec::new(graph, healer, AdversarySpec::RandomChurn, spec_seed);
            spec.audit = AuditSpec::Off;
            (format!("t{i}"), spec)
        })
        .collect()
}

fn build_cluster(specs: &[(String, ScenarioSpec)], workers: usize) -> Cluster {
    let mut cluster = Cluster::new(workers);
    for (tenant, spec) in specs {
        cluster
            .add_spec(tenant, spec)
            .expect("benchmark tenant specs are servable");
    }
    cluster
}

/// One tenant's liveness model: the live ids and the next fresh id.
/// A shard checks ids against its node slots when an event is
/// submitted, before the tick applies the window's joins, so a joined
/// node becomes a target only from the next window on. The population
/// stays within a tenth of its initial size.
#[derive(Clone, Debug)]
pub struct TenantModel {
    live: Vec<u32>,
    /// Joined in the current window, live from the next.
    fresh: Vec<u32>,
    next_id: u32,
    n0: usize,
    rng: SplitMix64,
}

impl TenantModel {
    /// A tenant whose graph starts with nodes `0..n0`, all alive.
    pub fn new(n0: usize, seed: u64) -> Self {
        TenantModel {
            live: (0..n0 as u32).collect(),
            fresh: Vec::new(),
            next_id: n0 as u32,
            n0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Live nodes in the model.
    pub fn live(&self) -> usize {
        self.live.len() + self.fresh.len()
    }

    /// Close the window: this window's joiners become targets.
    pub fn end_window(&mut self) {
        self.live.append(&mut self.fresh);
    }

    /// The next event: a delete of a uniformly random live node, or a
    /// join to 2–3 distinct live nodes.
    pub fn next_event(&mut self) -> NetworkEvent {
        let len = self.live.len();
        let population = self.live();
        let join = len < 4
            || population < self.n0 * 9 / 10
            || (population <= self.n0 * 11 / 10 && self.rng.gen_range(2) == 0);
        if join {
            let k = 2 + self.rng.gen_range(2) as usize;
            let mut targets = Vec::with_capacity(k);
            while targets.len() < k {
                let v = NodeId(self.live[self.rng.gen_range(len as u64) as usize]);
                if !targets.contains(&v) {
                    targets.push(v);
                }
            }
            self.fresh.push(self.next_id);
            self.next_id += 1;
            NetworkEvent::Join { neighbors: targets }
        } else {
            let i = self.rng.gen_range(len as u64) as usize;
            NetworkEvent::Delete(NodeId(self.live.swap_remove(i)))
        }
    }
}

/// Every tenant's event stream, cut into tick windows.
#[derive(Clone, Debug)]
pub struct Stream {
    tenants: Vec<(String, TenantModel)>,
    per_tenant: usize,
    /// Deletes generated so far.
    pub deletions: u64,
}

impl Stream {
    /// The stream of `specs`' tenants under `shape`, seeded from `seed`.
    pub fn new(specs: &[(String, ScenarioSpec)], shape: &Shape, seed: u64) -> Self {
        let tenants = specs
            .iter()
            .enumerate()
            .map(|(i, (name, spec))| {
                let model =
                    TenantModel::new(spec.graph.node_count(), derive_seed(seed, 200 + i as u64));
                (name.clone(), model)
            })
            .collect();
        Stream {
            tenants,
            per_tenant: shape.per_tenant,
            deletions: 0,
        }
    }

    /// Lines per window: every event plus the `tick`.
    pub fn window_len(&self) -> usize {
        self.tenants.len() * self.per_tenant + 1
    }

    /// The next window's `(tenant index, event)` pairs, tenants
    /// interleaved round-robin.
    pub fn window(&mut self, out: &mut Vec<(usize, NetworkEvent)>) {
        out.clear();
        for _ in 0..self.per_tenant {
            for (i, (_, model)) in self.tenants.iter_mut().enumerate() {
                let event = model.next_event();
                if matches!(event, NetworkEvent::Delete(_)) {
                    self.deletions += 1;
                }
                out.push((i, event));
            }
        }
        for (_, model) in &mut self.tenants {
            model.end_window();
        }
    }

    /// The next window as protocol lines, ending with `tick`; returns
    /// the window's deletes.
    pub fn window_lines(&mut self, out: &mut Vec<String>) -> u64 {
        let before = self.deletions;
        let mut events = Vec::with_capacity(self.window_len());
        self.window(&mut events);
        for (i, event) in events {
            out.push(format!("{} {event}", self.tenants[i].0));
        }
        out.push("tick".to_string());
        self.deletions - before
    }

    /// The models, in tenant order.
    pub fn models(&self) -> impl Iterator<Item = &TenantModel> {
        self.tenants.iter().map(|(_, m)| m)
    }
}

/// Sends protocol lines to the cluster: through `handle_line` when
/// untraced, through the same calls it makes, each in a span, when
/// traced.
struct Feed<'a> {
    cluster: &'a Cluster,
    ledger: Option<Ledger>,
    /// Count `Cluster::tick` allocations process-wide (worker threads).
    process_ticks: bool,
    errors: u64,
}

impl<'a> Feed<'a> {
    fn new(cluster: &'a Cluster, traced: bool, process_ticks: bool) -> Self {
        Feed {
            cluster,
            ledger: traced.then(Ledger::default),
            process_ticks,
            errors: 0,
        }
    }

    fn event(&mut self, line: &str) {
        let ok = match &mut self.ledger {
            None => self.cluster.handle_line(line).is_none(),
            Some(l) => match l.time(Boundary::ParseRequest, || parse_request(line)) {
                Ok(Some(Request::Event { tenant, event })) => l
                    .time(Boundary::Submit, || self.cluster.submit(&tenant, event))
                    .is_ok(),
                _ => false,
            },
        };
        self.errors += u64::from(!ok);
    }

    /// Send `tick`; returns `(applied, skipped)`.
    fn tick(&mut self) -> (u64, u64) {
        let counts = match &mut self.ledger {
            None => self.cluster.handle_line("tick").and_then(|r| {
                let mut w = r.split_whitespace();
                match (w.next(), w.next(), w.next(), w.next(), w.next()) {
                    (Some("tick"), Some("applied"), Some(a), Some("skipped"), Some(s)) => {
                        Some((a.parse().ok()?, s.parse().ok()?))
                    }
                    _ => None,
                }
            }),
            Some(l) => match l.time(Boundary::ParseRequest, || parse_request("tick")) {
                Ok(Some(Request::Tick)) if self.process_ticks => {
                    Some(l.time_process(Boundary::ClusterTick, || self.cluster.tick()))
                }
                Ok(Some(Request::Tick)) => {
                    Some(l.time(Boundary::ClusterTick, || self.cluster.tick()))
                }
                _ => None,
            },
        };
        self.errors += u64::from(counts.is_none());
        counts.unwrap_or_default()
    }
}

/// What the query reader saw.
#[derive(Clone, Debug, Default)]
struct ReaderStats {
    reads: u64,
    errors: u64,
    regressions: u64,
    ledger: Ledger,
    wall: Duration,
}

/// One or more passes over event streams, summed.
#[derive(Clone, Debug, Default)]
struct Pass {
    events: u64,
    applied: u64,
    skipped: u64,
    errors: u64,
    /// The measured wall: the timed replay (ingest) or the schedule
    /// (read).
    wall: Duration,
    /// Time the writer spent sending (equals `wall` for ingest).
    busy: Duration,
    allocs: u64,
    lag: Hist,
    ledger: Ledger,
    reader: ReaderStats,
}

/// An episode's generated input: windows of `wlen` protocol lines,
/// each ending with `tick`, and each window's delete count.
struct Episode {
    lines: Vec<String>,
    wlen: usize,
    deletes: Vec<u64>,
}

impl Episode {
    fn windows(&self) -> impl Iterator<Item = (&[String], u64)> {
        self.lines
            .chunks(self.wlen)
            .zip(self.deletes.iter().copied())
    }

    fn events(&self) -> u64 {
        (self.lines.len() - self.deletes.len()) as u64
    }
}

impl Pass {
    /// Close a window: `first` is when its first event was sent (or
    /// due), `tick_start` when its tick was sent (or due), `prev` the
    /// end of the window before.
    #[allow(clippy::too_many_arguments)]
    fn window_done(
        &mut self,
        slices: &mut Slices,
        prev: Instant,
        first: Instant,
        tick_start: Instant,
        counts: (u64, u64),
        deletes: u64,
    ) -> Instant {
        let end = Instant::now();
        slices.latency(end - tick_start, end - first);
        // Serve slices close between episodes, never inside a pass.
        slices.work(end - prev, counts.0, deletes);
        self.applied += counts.0;
        self.skipped += counts.1;
        end
    }

    fn absorb(&mut self, p: &Pass) {
        self.events += p.events;
        self.applied += p.applied;
        self.skipped += p.skipped;
        self.errors += p.errors;
        self.wall += p.wall;
        self.busy += p.busy;
        self.allocs += p.allocs;
        self.lag.merge(&p.lag);
        self.ledger.merge(&p.ledger);
        self.ledger.merge(&p.reader.ledger);
        let r = &mut self.reader;
        r.reads += p.reader.reads;
        r.errors += p.reader.errors;
        r.regressions += p.reader.regressions;
        r.wall += p.reader.wall;
    }
}

/// The closed-loop client: replay the episode's windows as fast as the
/// cluster answers.
fn ingest_pass(cluster: &Cluster, ep: &Episode, slices: &mut Slices, traced: bool) -> Pass {
    let mut feed = Feed::new(cluster, traced, true);
    let mut p = Pass::default();
    let a0 = total_allocations();
    let t0 = Instant::now();
    let mut prev = t0;
    for (window, deletes) in ep.windows() {
        let (events, _tick) = window.split_at(window.len() - 1);
        let first = Instant::now();
        for line in events {
            feed.event(line);
        }
        let tick_start = Instant::now();
        let counts = feed.tick();
        prev = p.window_done(slices, prev, first, tick_start, counts, deletes);
    }
    p.wall = t0.elapsed();
    p.allocs = total_allocations() - a0;
    p.busy = p.wall;
    p.events = ep.events();
    p.errors = feed.errors;
    p.ledger = feed.ledger.unwrap_or_default();
    p
}

/// Sleep, then spin, until `due`; returns how late it woke.
fn wait_until(due: Instant) -> Duration {
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The epoch of an answer to `query` on a tenant that started with
/// nodes `0..n0`, or `None` when its body is wrong: a degree that is
/// not a number (an id below `n0` always has a slot), a stats line with
/// skips, violations or a live count other than `n0 + joins −
/// deletions`, or a component list whose length is not its count.
fn checked_epoch(answer: &str, query: Query, n0: usize) -> Option<usize> {
    let (epoch, body) = answer.strip_prefix("epoch ")?.split_once(' ')?;
    let words: Vec<&str> = body.split(' ').collect();
    let ok = match query {
        Query::Degree(v) => {
            words.len() == 3
                && words[..2] == ["degree", v.0.to_string().as_str()]
                && words[2].parse::<usize>().is_ok()
        }
        Query::Stats => {
            let field = |key: &str| -> Option<u64> {
                let at = words.iter().position(|w| *w == key)?;
                words.get(at + 1)?.parse().ok()
            };
            match (
                field("skipped"),
                field("violations"),
                field("live"),
                field("joins"),
                field("deletions"),
            ) {
                (Some(0), Some(0), Some(live), Some(joins), Some(deletions)) => {
                    live + deletions == n0 as u64 + joins
                }
                _ => false,
            }
        }
        Query::Components => {
            words.first() == Some(&"components")
                && words.get(1).and_then(|k| k.strip_suffix(':')?.parse().ok())
                    == Some(words.len() - 2)
        }
        Query::GprimeEdges => false,
    };
    if ok {
        epoch.parse().ok()
    } else {
        None
    }
}

/// The closed-loop reader: mostly `stats` and `degree`, one
/// `components` in 64. Every answer's body is checked; when traced,
/// every eighth read also times a no-op `SnapshotReader::read`.
fn read_loop(
    cluster: &Cluster,
    n0: usize,
    seed: u64,
    traced: bool,
    stop: &AtomicBool,
) -> ReaderStats {
    let reader = cluster.reader(READ_TENANT).expect("served tenant");
    let mut rng = SplitMix64::new(seed);
    let mut st = ReaderStats::default();
    let mut last = 0usize;
    let t0 = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let r = rng.next_u64();
        let query = match r % 64 {
            0 => Query::Components,
            1..=31 => Query::Stats,
            _ => Query::Degree(NodeId(((r >> 8) % n0 as u64) as u32)),
        };
        let answer = if traced {
            st.ledger
                .time(Boundary::Query, || cluster.query(READ_TENANT, query))
        } else {
            cluster.query(READ_TENANT, query)
        };
        match answer
            .as_deref()
            .ok()
            .and_then(|a| checked_epoch(a, query, n0))
        {
            Some(epoch) => {
                st.regressions += u64::from(epoch < last);
                last = epoch;
            }
            None => st.errors += 1,
        }
        if traced && st.reads % 8 == 0 {
            st.ledger
                .time(Boundary::SnapshotRead, || reader.read(|_| ()));
        }
        st.reads += 1;
    }
    st.wall = t0.elapsed();
    st
}

/// The open-loop writer over the episode, one window per period
/// (events when due, the tick half a period later), with one reader
/// thread querying throughout.
fn read_pass(
    cluster: &Cluster,
    ep: &Episode,
    shape: &Shape,
    seed: u64,
    slices: &mut Slices,
    traced: bool,
) -> Pass {
    let stop = AtomicBool::new(false);
    let mut feed = Feed::new(cluster, traced, false);
    let mut p = Pass::default();
    let reader = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(cluster, shape.n, seed, traced, &stop));
        let start = Instant::now() + shape.period;
        let mut prev = start;
        let a0 = thread_allocations();
        for (k, (window, deletes)) in ep.windows().enumerate() {
            let (events, _tick) = window.split_at(window.len() - 1);
            let due = start + shape.period * k as u32;
            p.lag.record(wait_until(due));
            let sent = Instant::now();
            for line in events {
                feed.event(line);
            }
            p.busy += sent.elapsed();
            let tick_due = due + shape.period / 2;
            p.lag.record(wait_until(tick_due));
            let ticked = Instant::now();
            let counts = feed.tick();
            p.busy += ticked.elapsed();
            prev = p.window_done(slices, prev, due, tick_due, counts, deletes);
        }
        p.wall = start.elapsed();
        p.allocs = thread_allocations() - a0;
        stop.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });
    p.reader = reader;
    p.events = ep.events();
    p.errors = feed.errors;
    p.ledger = feed.ledger.unwrap_or_default();
    p
}

/// What a direct replay ends with.
struct Direct {
    /// The per-tenant report blocks, rendered as `Shard::finish` does.
    blocks: String,
    /// Final engine state per tenant.
    engine_states: Vec<StateSnapshot>,
    /// Final published shard state per tenant (decomposition only).
    shard_states: Vec<StateSnapshot>,
}

/// Replay `windows` windows of `stream` straight into one
/// `ScenarioEngine` per tenant. With a ledger this is the decomposition
/// replay: it times every `apply`, and per window and tenant one
/// `StateSnapshot::capture` and one `Shard::tick` of a direct shard fed
/// the same events.
fn direct_replay(
    specs: &[(String, ScenarioSpec)],
    stream: &mut Stream,
    windows: usize,
    mut ledger: Option<&mut Ledger>,
) -> Direct {
    let mut engines: Vec<_> = specs
        .iter()
        .map(|(_, spec)| spec.build_engine().expect("benchmark spec builds"))
        .collect();
    let mut shards: Vec<Shard> = match ledger {
        Some(_) => specs
            .iter()
            .map(|(tenant, spec)| Shard::from_spec(tenant, spec).expect("benchmark spec serves"))
            .collect(),
        None => Vec::new(),
    };
    let mut stats = vec![TenantStats::default(); specs.len()];
    let mut states = vec![StateSnapshot::default(); specs.len()];
    let mut events = Vec::new();
    for _ in 0..windows {
        stream.window(&mut events);
        for (i, event) in events.drain(..) {
            if let Some(shard) = shards.get_mut(i) {
                shard
                    .submit(event.clone())
                    .expect("generated events are valid");
            }
            let engine = &mut engines[i];
            let record = match ledger.as_deref_mut() {
                Some(l) => l.time(Boundary::Apply, || engine.apply(event)),
                None => engine.apply(event),
            };
            stats[i].observe(record.tenant_sample());
        }
        if let Some(l) = ledger.as_deref_mut() {
            for (i, shard) in shards.iter_mut().enumerate() {
                l.time(Boundary::ShardTick, || shard.tick());
                l.time(Boundary::Capture, || states[i].capture(&engines[i].net));
            }
        }
    }
    let mut blocks = String::new();
    for (i, (tenant, _)) in specs.iter().enumerate() {
        let engine = &mut engines[i];
        engine.finish();
        states[i].capture(&engine.net);
        let (s, snap) = (&stats[i], &states[i]);
        blocks.push_str(&format!(
            "tenant {tenant}: healer {}  audit findings {}\n  \
             events {}  skipped {}  deletions {}  joins {}\n  \
             live {}  components {}  gprime-edges {}  max-delta {}\n  \
             messages {}  healing-edges {}  amortized-latency {:.2}\n",
            engine.healer_name(),
            engine.report().violations.len(),
            s.events,
            s.skipped,
            s.deletions,
            s.joins,
            snap.live_count(),
            snap.components.len(),
            snap.gprime_edges,
            s.max_delta,
            s.messages,
            s.edges_added,
            s.amortized_latency()
        ));
    }
    let shard_states = shards.iter().map(|s| s.reader().get().1.state).collect();
    Direct {
        blocks,
        engine_states: states,
        shard_states,
    }
}

fn first_difference(a: &str, b: &str) -> String {
    a.lines().zip(b.lines()).find(|(x, y)| x != y).map_or_else(
        || format!("{} vs {} lines", a.lines().count(), b.lines().count()),
        |(x, y)| format!("cluster '{x}' vs direct '{y}'"),
    )
}

fn check_pass(out: &mut Outcome, p: &Pass, label: &str) {
    out.check("zero_errors", p.errors == 0, || {
        format!("{label}: {} error lines", p.errors)
    });
    out.check("zero_skips", p.skipped == 0, || {
        format!("{label}: {} skipped events", p.skipped)
    });
    out.check("all_applied", p.applied == p.events, || {
        format!("{label}: applied {} of {} events", p.applied, p.events)
    });
    out.check("epochs_monotone", p.reader.regressions == 0, || {
        format!("{label}: {} epoch regressions", p.reader.regressions)
    });
    out.check("queries_answered", p.reader.errors == 0, || {
        format!("{label}: {} queries with a wrong answer", p.reader.errors)
    });
}

/// The decomposition replay must end where the cluster did.
fn check_decomposition(
    out: &mut Outcome,
    cluster: &Cluster,
    specs: &[(String, ScenarioSpec)],
    direct: &Direct,
) {
    for (i, (tenant, _)) in specs.iter().enumerate() {
        let served = cluster.reader(tenant).expect("served tenant").get().1.state;
        let replays = [
            ("engine", &direct.engine_states[i]),
            ("shard", &direct.shard_states[i]),
        ];
        for (what, state) in replays {
            let same = served.live_count() == state.live_count()
                && served.gprime_edges == state.gprime_edges
                && served.components == state.components;
            out.check("decomposition_matches_cluster", same, || {
                format!(
                    "tenant {tenant}: cluster live {} edges {} components {} \
                     vs {what} live {} edges {} components {}",
                    served.live_count(),
                    served.gprime_edges,
                    served.components.len(),
                    state.live_count(),
                    state.gprime_edges,
                    state.components.len()
                )
            });
        }
    }
}

/// Run `serve-ingest` or `serve-read`: episodes, each on a fresh
/// cluster built from episode-seeded specs, until the measured time
/// reaches `budget`.
pub fn run(workload: Workload, seed: u64, budget: Duration, trace: bool, size: Size) -> Outcome {
    let shape = shape(workload, size);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (mut untraced, mut traced) = (Pass::default(), Pass::default());
    // One slice per episode, closed after it. The open loop's rates are
    // set by its schedule, not by host speed, so only its latencies are
    // scaled.
    let reference = Reference::default();
    let closed_loop = workload == Workload::ServeIngest;
    let mut slices = Slices::new(Duration::MAX, Some(reference.clone()), closed_loop);
    let mut episode = 0u64;
    while episode == 0 || untraced.busy.max(untraced.wall) < budget {
        let specs = tenant_specs(&shape, derive_seed(GRAPH_SEED, episode));
        let stream_seed = derive_seed(seed, 1_000_000 + episode);
        let reader_seed = derive_seed(seed, 2_000_000 + episode);
        let new_stream = || Stream::new(&specs, &shape, stream_seed);
        let mut stream = new_stream();
        let mut ep = Episode {
            lines: Vec::with_capacity(shape.windows * stream.window_len()),
            wlen: stream.window_len(),
            deletes: Vec::with_capacity(shape.windows),
        };
        for _ in 0..shape.windows {
            let deletes = stream.window_lines(&mut ep.lines);
            ep.deletes.push(deletes);
        }
        let drive = |cluster: &Cluster, slices: &mut Slices, traced: bool| match workload {
            Workload::ServeIngest => ingest_pass(cluster, &ep, slices, traced),
            _ => read_pass(cluster, &ep, &shape, reader_seed, slices, traced),
        };

        let t = Instant::now();
        let cluster = build_cluster(&specs, shape.workers);
        setups.push((t.elapsed(), reference.slowdown()));
        let p = drive(&cluster, &mut slices, false);
        slices.close();
        check_pass(&mut out, &p, "untraced");
        untraced.absorb(&p);
        let blocks = cluster.finish();
        drop(cluster);
        let direct = direct_replay(&specs, &mut new_stream(), shape.windows, None);
        out.check(
            "finish_equals_direct_replay",
            blocks == direct.blocks,
            || {
                format!(
                    "episode {episode}: {}",
                    first_difference(&blocks, &direct.blocks)
                )
            },
        );

        if trace {
            let cluster = build_cluster(&specs, shape.workers);
            let t = drive(&cluster, &mut Slices::new(Duration::MAX, None, false), true);
            check_pass(&mut out, &t, "traced");
            traced.absorb(&t);
            let direct = direct_replay(
                &specs,
                &mut new_stream(),
                shape.windows,
                Some(&mut traced.ledger),
            );
            check_decomposition(&mut out, &cluster, &specs, &direct);
        }
        episode += 1;
    }
    out.attempted = untraced.events + untraced.reader.reads;
    out.failed = untraced.errors + untraced.skipped + untraced.reader.errors;

    out.set_medians(&setups, &slices.medians());
    let m = &mut out.metrics;
    let p = &untraced;
    m.set("allocs_per_event", p.allocs as f64 / p.events.max(1) as f64);
    if !trace {
        return out;
    }

    let t = &traced;
    let ledger = &t.ledger;
    // Spans of the traced passes only; the decomposition replay's spans
    // sit inside `cluster.tick` and are left out of the coverage.
    let covered = ledger.total(&[
        Boundary::ParseRequest,
        Boundary::Submit,
        Boundary::ClusterTick,
        Boundary::Query,
        Boundary::SnapshotRead,
    ]);
    m.set_layers(ledger, t.wall);
    // Dispatch: what `Cluster::tick` costs beyond running the same shard
    // ticks perfectly spread over its workers.
    let wall_ns = t.wall.as_nanos().max(1) as f64;
    let parallel = shape.workers.min(shape.tenants).max(1) as f64;
    let dispatch = ledger.span(Boundary::ClusterTick).total.as_nanos() as f64
        - ledger.span(Boundary::ShardTick).total.as_nanos() as f64 / parallel;
    m.set("cluster.dispatch_share", dispatch / wall_ns);
    let apply = ledger.span(Boundary::Apply);
    let apply_ns = apply.total.as_nanos() as f64 / apply.hist.count().max(1) as f64;
    let serve_ns = p.busy.as_nanos() as f64 / p.events.max(1) as f64;
    m.set("serve.engine_cost_ratio", serve_ns / apply_ns.max(1e-9));
    m.set_n("gen.lag_p50_us", t.lag.quantile(0.5) / 1e3, t.lag.count());
    m.set_n("gen.lag_p99_us", t.lag.quantile(0.99) / 1e3, t.lag.count());
    let reads_per_s = t.reader.reads as f64 / t.wall.as_secs_f64().max(1e-9);
    m.set_n("reads_per_s", reads_per_s, t.reader.reads);
    m.set(
        "trace.overhead",
        t.busy.as_secs_f64() / p.busy.as_secs_f64().max(1e-9) - 1.0,
    );
    let driven = t.busy + t.reader.wall;
    m.set(
        "trace.coverage",
        covered.as_secs_f64() / driven.as_secs_f64().max(1e-9),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_body_fails_the_query_check() {
        let stats = |live: u32, skipped: u32| {
            format!(
                "epoch 7 stats events 9 skipped {skipped} deletions 5 joins 4 live {live} \
                 max-delta 2 messages 30 healing-edges 6 violations 0 pending 0"
            )
        };
        assert_eq!(checked_epoch(&stats(99, 0), Query::Stats, 100), Some(7));
        assert_eq!(checked_epoch(&stats(98, 0), Query::Stats, 100), None);
        assert_eq!(checked_epoch(&stats(99, 1), Query::Stats, 100), None);
        let degree = Query::Degree(NodeId(3));
        assert_eq!(checked_epoch("epoch 2 degree 3 4", degree, 100), Some(2));
        assert_eq!(checked_epoch("epoch 2 degree 4 4", degree, 100), None);
        let unknown = "epoch 2 degree 3 unknown (node id out of range, 2 slots)";
        assert_eq!(checked_epoch(unknown, degree, 100), None);
        let components = "epoch 5 components 2: 0:60 1:39";
        assert_eq!(checked_epoch(components, Query::Components, 100), Some(5));
        let short = "epoch 5 components 3: 0:60 1:39";
        assert_eq!(checked_epoch(short, Query::Components, 100), None);
    }
}
