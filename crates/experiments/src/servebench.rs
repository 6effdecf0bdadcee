//! E13: serve-bench — the healing-as-a-service soak.
//!
//! Serves the four servable specs in the checked-in corpus as four
//! tenant shards on one [`Cluster`] and drives each with its own
//! deterministic churn stream (single deletions and two-neighbor
//! joins, sampled from the tenant's *published* snapshots, with a
//! population band so the network neither empties nor explodes),
//! while dedicated threads hammer the snapshot readers the whole
//! time. The soak ends with `run_to_quiescence` and a full
//! finalize — end-of-run theorem checks included.
//!
//! Everything on stdout is deterministic in (specs, seed, scale): the
//! streams are derived from a SplitMix generator and snapshot states
//! that only change at tick barriers, ticks claim every shard exactly
//! once, and concurrent readers never mutate — so the summary table is
//! byte-identical for any worker count (`make serve-check` pins the
//! quick tier against `goldens/serve_bench_quick.txt` at 1, 2 and 8
//! threads). Timing — per-shard events/sec, snapshot-read throughput —
//! goes to stderr.

use crate::config::Scale;
use selfheal_core::scenario::NetworkEvent;
use selfheal_core::spec::ScenarioSpec;
use selfheal_metrics::{Table, TenantStats};
use selfheal_serve::Cluster;
use std::sync::atomic::{AtomicBool, Ordering};

/// The served corpus: the theorem-audited `backend = centralized`
/// specs, under stable tenant names. `churn-a`/`churn-b` serve the
/// *same* spec as two independent tenants with different streams —
/// multi-tenancy means isolation, not distinct configs — and the
/// theorem tier keeps the acceptance bar sharp: any nonzero findings
/// count is a real bound violation, not a comparative penalty (the
/// cheap-audited corpus members, e.g. `graph_heal_baseline`, rack up
/// envelope findings by design — E12's job, not a serving gate's).
const TENANTS: [(&str, &str); 4] = [
    ("churn-a", include_str!("../../../specs/random_churn.scn")),
    ("churn-b", include_str!("../../../specs/random_churn.scn")),
    (
        "epidemic",
        include_str!("../../../specs/epidemic_sdash.scn"),
    ),
    (
        "kill-sweep",
        include_str!("../../../specs/max_node_kill_sweep.scn"),
    ),
];

/// `(rounds, events per tenant per round)`. The full tier is the
/// acceptance soak: 4 shards × 400 × 64 = 102 400 events total.
fn soak_shape(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Quick => (64, 64),
        Scale::Full => (400, 64),
    }
}

/// One tenant's final accounting, read from its terminal snapshot.
pub struct SoakRow {
    /// Tenant name.
    pub tenant: String,
    /// The healer family its spec runs.
    pub healer: String,
    /// Per-tenant aggregate counters.
    pub stats: TenantStats,
    /// Live nodes at quiescence.
    pub live: usize,
    /// Broadcast component-ID entries at quiescence.
    pub components: usize,
    /// `G'` edge count at quiescence.
    pub gprime_edges: usize,
    /// Audit findings, end-of-run checks included.
    pub findings: usize,
}

/// The soak's outcome: deterministic rows plus the (timing-dependent)
/// count of snapshot reads completed while the soak churned.
pub struct Soak {
    /// Per-tenant rows, in serving order. Worker-count-invariant.
    pub rows: Vec<SoakRow>,
    /// Total snapshot reads by the concurrent reader threads. *Not*
    /// deterministic — report it on stderr only.
    pub snapshot_reads: u64,
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run the soak. The returned rows depend only on `(scale, base_seed)`.
pub fn run(scale: Scale, base_seed: u64, threads: usize) -> Soak {
    let (rounds, batch) = soak_shape(scale);
    let mut cluster = Cluster::new(threads);
    let mut healers = Vec::new();
    for (tenant, text) in TENANTS {
        // panic-ok: the specs are checked in and spec-check gates them.
        let spec = ScenarioSpec::parse(text).expect("embedded spec parses");
        // panic-ok: as above.
        spec.validate().expect("embedded spec validates");
        healers.push(spec.healer.to_string());
        // panic-ok: the corpus above is servable by construction.
        let added = cluster.add_spec(tenant, &spec);
        added.expect("embedded spec serves"); // panic-ok: as above.
    }

    // Per-tenant stream state: a SplitMix cursor and the population
    // band [3n₀/4, 5n₀/4] around the spec's initial live count.
    let mut streams: Vec<(u64, usize)> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, (tenant, _))| {
            let seed = base_seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
            // panic-ok: the tenant was just added.
            let reader = cluster.reader(tenant).expect("served tenant");
            (seed, reader.read(|snap| snap.state.live_count()).1)
        })
        .collect();

    let stop = AtomicBool::new(false);
    let mut snapshot_reads = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = TENANTS
            .iter()
            .map(|(tenant, _)| {
                // panic-ok: the tenant was just added.
                let reader = cluster.reader(tenant).expect("served tenant");
                let stop = &stop;
                s.spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let (_, live) = reader.read(|snap| snap.state.live_count());
                        assert!(live > 0, "a soak tenant healed to extinction");
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();

        for _ in 0..rounds {
            for (i, (tenant, _)) in TENANTS.iter().enumerate() {
                let (ref mut rng, n0) = streams[i];
                // panic-ok: the tenant was just added.
                let reader = cluster.reader(tenant).expect("served tenant");
                // Deterministic despite the concurrent readers: the
                // published snapshot only changes at tick barriers.
                let (_, live) = reader.read(|snap| snap.state.live_nodes().collect::<Vec<_>>());
                // The population band below steers an *estimate* (est):
                // skipped joins and duplicate-victim deletes make it
                // drift from the true live count within a round, so it
                // is a heuristic, not a proof the set stays non-empty.
                // Fail readably here rather than as a `% 0` panic in
                // `pick` if the band is ever mistuned.
                assert!(
                    !live.is_empty(),
                    "serve-bench: tenant {tenant} has no live nodes at round start \
                     (population band drifted to extinction)"
                );
                let mut est = live.len();
                for _ in 0..batch {
                    let r = splitmix(rng);
                    let pick = |bits: u64| live[(bits % live.len() as u64) as usize];
                    let join = est < n0 * 3 / 4 || (est <= n0 * 5 / 4 && r & 1 == 0);
                    let event = if join {
                        est += 1;
                        NetworkEvent::Join {
                            neighbors: vec![pick(r >> 8), pick(r >> 32)],
                        }
                    } else {
                        est -= 1;
                        NetworkEvent::Delete(pick(r >> 16))
                    };
                    // panic-ok: ids come from the live list, in range.
                    cluster.submit(tenant, event).expect("valid soak event");
                }
            }
            cluster.tick();
        }
        cluster.run_to_quiescence();
        stop.store(true, Ordering::Release);
        for h in handles {
            // panic-ok: reader threads only stop when told to.
            snapshot_reads += h.join().expect("reader thread");
        }
    });

    // Finalize (runs the auditors' end-of-run checks and publishes the
    // terminal snapshots), then read each tenant's final accounting.
    let _ = cluster.finish();
    let rows = TENANTS
        .iter()
        .zip(healers)
        .map(|((tenant, _), healer)| {
            // panic-ok: the tenant was just added.
            let reader = cluster.reader(tenant).expect("served tenant");
            let (_, snap) = reader.get();
            SoakRow {
                tenant: (*tenant).to_string(),
                healer,
                stats: snap.stats,
                live: snap.state.live_count(),
                components: snap.state.components.len(),
                gprime_edges: snap.state.gprime_edges,
                findings: snap.violations,
            }
        })
        .collect();
    Soak {
        rows,
        snapshot_reads,
    }
}

/// Render the deterministic summary table plus the cluster-wide totals
/// line — the bytes `make serve-check` pins.
pub fn render(rows: &[SoakRow]) -> String {
    let mut t = Table::new([
        "tenant",
        "healer",
        "applied",
        "skipped",
        "deletions",
        "joins",
        "live",
        "components",
        "gprime edges",
        "max dδ",
        "messages",
        "healing edges",
        "findings",
    ]);
    for row in rows {
        let s = &row.stats;
        t.row([
            row.tenant.clone(),
            row.healer.clone(),
            s.events.to_string(),
            s.skipped.to_string(),
            s.deletions.to_string(),
            s.joins.to_string(),
            row.live.to_string(),
            row.components.to_string(),
            row.gprime_edges.to_string(),
            s.max_delta.to_string(),
            s.messages.to_string(),
            s.edges_added.to_string(),
            row.findings.to_string(),
        ]);
    }
    let applied: u64 = rows.iter().map(|r| r.stats.events).sum();
    let skipped: u64 = rows.iter().map(|r| r.stats.skipped).sum();
    let findings: usize = rows.iter().map(|r| r.findings).sum();
    format!(
        "{}\nquiescent: applied {applied}  skipped {skipped}  findings {findings}\n",
        t.render().trim_end()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_quick_soak_is_worker_count_invariant_and_audit_clean() {
        let one = run(Scale::Quick, 20080124, 1);
        let four = run(Scale::Quick, 20080124, 4);
        assert_eq!(render(&one.rows), render(&four.rows));
        assert_eq!(one.rows.len(), 4);
        for row in &one.rows {
            assert_eq!(row.findings, 0, "tenant {} has audit findings", row.tenant);
            assert!(row.stats.events > 0);
            assert!(row.live > 0);
        }
    }
}
