//! Serving-layer integration tests: exact wire-form round-trips for the
//! line protocol (mirroring `tests/spec.rs`'s 256-case style), the
//! borrowed `handle_line` route answering exactly as the owned one,
//! hostile input handling with readable errors and no panics, and the
//! determinism contract — byte-identical final reports for any worker
//! count, under concurrent snapshot readers.

use proptest::prelude::*;
use selfheal_core::scenario::NetworkEvent;
use selfheal_core::spec::ScenarioSpec;
use selfheal_graph::NodeId;
use selfheal_serve::{parse_request, Cluster, Query, Request};

/// A deterministic event variant over the whole vocabulary.
fn event_variant(idx: usize, ids: &[u32]) -> NetworkEvent {
    match idx % 3 {
        0 => NetworkEvent::Delete(NodeId(ids[0])),
        1 => NetworkEvent::DeleteBatch(ids.iter().copied().map(NodeId).collect()),
        _ => NetworkEvent::Join {
            neighbors: ids.iter().copied().map(NodeId).collect(),
        },
    }
}

fn query_variant(idx: usize, id: u32) -> Query {
    match idx % 4 {
        0 => Query::Components,
        1 => Query::Degree(NodeId(id)),
        2 => Query::GprimeEdges,
        _ => Query::Stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite: every request the API can express prints to a line
    /// that parses back to exactly itself — the wire form is lossless
    /// over events (all three kinds, empty lists included), queries,
    /// and ticks.
    #[test]
    fn request_wire_form_round_trips(
        kind in 0usize..5,
        ev in 0usize..3,
        qi in 0usize..4,
        id in 0u32..1_000_000,
        ids in proptest::collection::vec(0u32..1_000_000, 0..8),
        tenant_i in 0usize..4,
    ) {
        let tenant = ["alpha", "beta", "rack-7", "t_0"][tenant_i].to_string();
        let mut pool = ids.clone();
        pool.insert(0, id);
        let request = match kind {
            0 | 1 => Request::Event { tenant, event: event_variant(ev, &pool) },
            2 | 3 => Request::Query { tenant, query: query_variant(qi, id) },
            _ => Request::Tick,
        };
        let line = request.to_string();
        let back = parse_request(&line).unwrap().unwrap();
        prop_assert_eq!(back, request, "round trip through '{}'", line);
    }

    /// The event wire form alone round-trips too (the subset the
    /// `tenant-id <event>` lines carry).
    #[test]
    fn event_wire_form_round_trips(
        ev in 0usize..3,
        ids in proptest::collection::vec(0u32..u32::MAX, 1..10),
    ) {
        let event = event_variant(ev, &ids);
        let line = event.to_string();
        prop_assert_eq!(line.parse::<NetworkEvent>().unwrap(), event);
    }
}

/// Tokens to put where an id or an event keyword is due: all but
/// `delete` are invalid there.
const JUNK: [&str; 6] = ["x", "-1", "4294967296", "1.5", "delete", "#"];

/// One protocol line in the shape `kind` selects, for tenant `tenant`
/// (`nobody` is not served). Ids run past both tenants' slot counts.
fn generated_line(kind: usize, tenant: usize, ids: &[u32], junk: usize) -> String {
    let tenant = ["churn", "epidemic", "nobody"][tenant];
    let list = |ids: &[u32]| ids.iter().map(|v| format!(" {v}")).collect::<String>();
    let first = ids.first().copied().unwrap_or(0);
    let junk = JUNK[junk];
    match kind {
        0 | 1 => format!("{tenant} delete {first}"),
        2 => format!("{tenant} delete-batch{}", list(ids)),
        3 => format!("{tenant} join{}", list(ids)),
        // Past the cap, with a bad token at the end half the time.
        4 => {
            let tail = if first % 2 == 0 { junk } else { "" };
            format!("{tenant} delete-batch{} {tail}", " 1".repeat(1025))
        }
        5 => format!("{tenant} join{} {junk}", list(ids)),
        6 => format!("{tenant} delete{}", list(ids)),
        7 => format!("{tenant} {junk}{}", list(ids)),
        8 => tenant.to_string(),
        9 => format!(
            "query {tenant} {}",
            ["stats", "components", "gprime-edges", "degree", "nonsense"][first as usize % 5]
        ),
        10 => format!("query {tenant} degree {first}"),
        11 => ["tick", "tick now", "", "# note"][first as usize % 4].to_string(),
        _ => "tick".to_string(),
    }
}

/// What the owned route answers: [`parse_request`], then
/// `Cluster::submit`, `query` or `tick`, each error printed as
/// `handle_line` prints it.
fn owned_route(cluster: &Cluster, line: &str) -> Option<String> {
    let request = match parse_request(line) {
        Ok(None) => return None,
        Ok(Some(request)) => request,
        Err(e) => return Some(format!("error: {e}")),
    };
    match request {
        Request::Event { tenant, event } => cluster
            .submit(&tenant, event)
            .err()
            .map(|e| format!("error: {e}")),
        Request::Query { tenant, query } => Some(
            cluster
                .query(&tenant, query)
                .unwrap_or_else(|e| format!("error: {e}")),
        ),
        Request::Tick => {
            let (applied, skipped) = cluster.tick();
            Some(format!("tick applied {applied} skipped {skipped}"))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `handle_line` parses event lines straight into the shard queues;
    /// the owned route parses into a `Request` and submits it. Over valid
    /// events, unknown tenants, oversized batches, out-of-range ids and
    /// junk tokens, both answer every line alike and end in the same
    /// state.
    #[test]
    fn handle_line_answers_exactly_as_the_owned_route(
        lines in proptest::collection::vec(
            (
                0usize..13,
                0usize..3,
                proptest::collection::vec(0u32..80, 0..5),
                0usize..JUNK.len(),
            ),
            1..48,
        ),
    ) {
        let borrowed = two_tenant_cluster(2);
        let owned = two_tenant_cluster(1);
        for (kind, tenant, ids, junk) in &lines {
            let line = generated_line(*kind, *tenant, ids, *junk);
            prop_assert_eq!(
                borrowed.handle_line(&line),
                owned_route(&owned, &line),
                "line '{}'",
                line
            );
        }
        prop_assert_eq!(borrowed.finish(), owned.finish());
    }
}

const CHURN_SPEC: &str = include_str!("../../../specs/random_churn.scn");
const EPIDEMIC_SPEC: &str = include_str!("../../../specs/epidemic_sdash.scn");
const EXPLORER_SPEC: &str = include_str!("../../../specs/explorer_batch.scn");
const EXHAUSTIVE_SPEC: &str = include_str!("../../../specs/exhaustive_n6.scn");

fn spec(text: &str) -> ScenarioSpec {
    let s = ScenarioSpec::parse(text).expect("checked-in spec parses");
    s.validate().expect("checked-in spec validates");
    s
}

fn two_tenant_cluster(threads: usize) -> Cluster {
    let mut cluster = Cluster::new(threads);
    cluster.add_spec("churn", &spec(CHURN_SPEC)).unwrap();
    cluster.add_spec("epidemic", &spec(EPIDEMIC_SPEC)).unwrap();
    cluster
}

/// A deterministic adversarial stream: interleaved deletes, batches,
/// and joins against node ids sampled from the tenant's published live
/// list, so the stream stays meaningful as the network churns.
fn drive_stream(cluster: &Cluster, tenant: &str, rounds: usize, salt: u64) {
    let reader = cluster.reader(tenant).unwrap();
    let mut x = salt | 1;
    for round in 0..rounds {
        let (_, live) = reader.read(|snap| snap.state.live_nodes().collect::<Vec<_>>());
        if live.len() < 8 {
            break;
        }
        for k in 0..6usize {
            // SplitMix-ish scramble, fixed per (salt, round, k).
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = |i: u64| live[(i % live.len() as u64) as usize];
            let event = match k % 3 {
                0 => NetworkEvent::Delete(pick(x)),
                1 => NetworkEvent::Delete(pick(x >> 17)),
                _ => NetworkEvent::Join {
                    neighbors: vec![pick(x >> 7), pick(x >> 29)],
                },
            };
            cluster.submit(tenant, event).unwrap();
        }
        cluster.tick();
        let _ = round;
    }
}

#[test]
fn final_reports_are_byte_identical_across_worker_counts() {
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 8] {
        let cluster = two_tenant_cluster(threads);
        drive_stream(&cluster, "churn", 6, 0xA5);
        drive_stream(&cluster, "epidemic", 6, 0x5A);
        cluster.run_to_quiescence();
        outputs.push(cluster.finish());
    }
    assert_eq!(outputs[0], outputs[1], "1-thread vs 2-thread reports");
    assert_eq!(outputs[0], outputs[2], "1-thread vs 8-thread reports");
    assert!(outputs[0].contains("tenant churn:"));
    assert!(outputs[0].contains("tenant epidemic:"));
    assert!(
        outputs[0].contains("audit findings 0"),
        "theorem audit must stay clean:\n{}",
        outputs[0]
    );
}

/// A fixed stream over the initial ids `0..n` only, so every event is
/// valid at submit time however far ticking has got.
fn fixed_stream(n: u64, len: usize, salt: u64) -> Vec<NetworkEvent> {
    let mut x = salt | 1;
    (0..len)
        .map(|k| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = |shift: u32| NodeId(((x >> shift) % n) as u32);
            match k % 3 {
                0 => NetworkEvent::Delete(id(11)),
                1 => NetworkEvent::DeleteBatch(vec![id(23), id(37)]),
                _ => NetworkEvent::Join {
                    neighbors: vec![id(7), id(29)],
                },
            }
        })
        .collect()
}

#[test]
fn concurrent_ticks_and_a_late_tenant_match_a_serial_replay() {
    let early = [
        ("churn", fixed_stream(48, 30, 0xC1)),
        ("epidemic", fixed_stream(64, 30, 0xE1)),
    ];
    let late = [
        ("churn", fixed_stream(48, 60, 0xC2)),
        ("epidemic", fixed_stream(64, 60, 0xE2)),
        ("late", fixed_stream(48, 60, 0x1A)),
    ];

    // Two workers: tick the first two tenants, add a third once the pool
    // is running, then two threads tick while a third submits.
    let mut cluster = two_tenant_cluster(2);
    for (tenant, events) in &early {
        for event in events {
            cluster.submit(tenant, event.clone()).unwrap();
            cluster.tick();
        }
    }
    cluster.add_spec("late", &spec(CHURN_SPEC)).unwrap();
    let submitting = std::sync::atomic::AtomicBool::new(true);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while submitting.load(std::sync::atomic::Ordering::Acquire) {
                    cluster.tick();
                }
            });
        }
        s.spawn(|| {
            for k in 0..60 {
                for (tenant, events) in &late {
                    cluster.submit(tenant, events[k].clone()).unwrap();
                }
            }
            submitting.store(false, std::sync::atomic::Ordering::Release);
        });
    });
    cluster.run_to_quiescence();
    let concurrent = cluster.finish();

    let mut serial = two_tenant_cluster(1);
    serial.add_spec("late", &spec(CHURN_SPEC)).unwrap();
    for (tenant, events) in early.iter().chain(&late) {
        for event in events {
            serial.submit(tenant, event.clone()).unwrap();
        }
    }
    serial.run_to_quiescence();
    assert_eq!(
        concurrent,
        serial.finish(),
        "2-worker concurrent vs 1-worker serial"
    );
    assert!(concurrent.contains("tenant late:"));
    assert!(
        !concurrent.contains("VIOLATION"),
        "theorem audit must stay clean:\n{concurrent}"
    );
}

#[test]
fn concurrent_snapshot_readers_never_block_or_tear_during_a_soak() {
    let cluster = two_tenant_cluster(4);
    let stop = std::sync::atomic::AtomicBool::new(false);
    // Readers that have read once. The soak starts only when both run:
    // its ticks take well under a millisecond, so a reader thread the
    // scheduler starts late could otherwise miss the soak entirely.
    let started = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for tenant in ["churn", "epidemic"] {
            let reader = cluster.reader(tenant).unwrap();
            let (stop, started) = (&stop, &started);
            s.spawn(move || {
                let mut reads = 0u64;
                let mut last_epoch = 0;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let (epoch, (live, degree_slots, components_total)) = reader.read(|snap| {
                        (
                            snap.state.live_count(),
                            snap.state.degrees.len(),
                            snap.state.components.iter().map(|(_, n)| n).sum::<usize>(),
                        )
                    });
                    // Internal consistency: component membership counts
                    // exactly the live set, degrees cover every slot.
                    assert_eq!(components_total, live, "torn snapshot at epoch {epoch}");
                    assert!(degree_slots >= live);
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    last_epoch = epoch;
                    reads += 1;
                    if reads == 1 {
                        started.fetch_add(1, std::sync::atomic::Ordering::Release);
                    }
                }
                assert!(reads > 0);
            });
        }
        while started.load(std::sync::atomic::Ordering::Acquire) < 2 {
            std::thread::yield_now();
        }
        drive_stream(&cluster, "churn", 8, 0x11);
        drive_stream(&cluster, "epidemic", 8, 0x22);
        cluster.run_to_quiescence();
        stop.store(true, std::sync::atomic::Ordering::Release);
    });
    let report = cluster.finish();
    assert!(report.contains("audit findings 0"), "{report}");
}

#[test]
fn hostile_input_gets_readable_errors_and_never_panics() {
    let cluster = two_tenant_cluster(2);

    let err = cluster
        .submit("nobody", NetworkEvent::Delete(NodeId(0)))
        .unwrap_err();
    assert!(err.contains("unknown tenant 'nobody'"), "{err}");
    assert!(err.contains("churn"), "error should list served tenants");

    let err = cluster
        .submit("churn", NetworkEvent::Delete(NodeId(40_000)))
        .unwrap_err();
    assert!(err.contains("out of range"), "{err}");

    let oversized = NetworkEvent::DeleteBatch(vec![NodeId(1); 5_000]);
    let err = cluster.submit("churn", oversized).unwrap_err();
    assert!(err.contains("exceeds"), "{err}");

    let err = cluster
        .submit(
            "churn",
            NetworkEvent::Join {
                neighbors: vec![NodeId(2); 5_000],
            },
        )
        .unwrap_err();
    assert!(err.contains("exceeds"), "{err}");

    for line in [
        "explode 5",
        "churn delete",
        "churn delete x",
        "query churn degree",
        "query churn nonsense",
        "query nobody stats",
        "tick now",
        "bare-tenant",
    ] {
        let response = cluster.handle_line(line).unwrap_or_default();
        assert!(
            response.starts_with("error:"),
            "'{line}' should produce a readable error, got '{response}'"
        );
    }
    assert!(cluster.handle_line("").is_none());
    assert!(cluster.handle_line("# comment").is_none());
}

#[test]
fn a_flood_of_dead_victims_is_skipped_not_panicked() {
    // 5000 consecutive no-progress events would trip the engine's
    // NO_PROGRESS_LIMIT panic if they reached it; the shard's
    // pre-validation must absorb them as skips.
    let cluster = two_tenant_cluster(1);
    cluster
        .submit("churn", NetworkEvent::Delete(NodeId(3)))
        .unwrap();
    cluster.tick();
    for _ in 0..5_000 {
        cluster
            .submit("churn", NetworkEvent::Delete(NodeId(3)))
            .unwrap();
    }
    let (applied, skipped) = cluster.run_to_quiescence();
    assert_eq!(applied, 0);
    assert_eq!(skipped, 5_000);
    let (_, out) = cluster
        .reader("churn")
        .unwrap()
        .read(|snap| (snap.stats.events, snap.stats.skipped));
    assert_eq!(out, (1, 5_000));
}

#[test]
fn unservable_specs_are_rejected_with_readable_reasons() {
    let mut cluster = Cluster::new(1);
    let err = cluster
        .add_spec("explorer", &spec(EXPLORER_SPEC))
        .unwrap_err();
    assert!(err.contains("backend 'explorer'"), "{err}");
    assert!(err.contains("not servable"), "{err}");

    let err = cluster
        .add_spec("universe", &spec(EXHAUSTIVE_SPEC))
        .unwrap_err();
    assert!(err.contains("exhaustive"), "{err}");

    let err = cluster.add_spec("tick", &spec(CHURN_SPEC)).unwrap_err();
    assert!(err.contains("protocol keyword"), "{err}");

    cluster.add_spec("a", &spec(CHURN_SPEC)).unwrap();
    let err = cluster.add_spec("a", &spec(CHURN_SPEC)).unwrap_err();
    assert!(err.contains("already being served"), "{err}");
}

#[test]
fn load_dir_serves_the_servable_subset_with_notices() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut cluster = Cluster::new(2);
    let notices = cluster.load_dir(&dir, None).unwrap();
    assert!(
        cluster.tenants().iter().any(|t| t == "random_churn"),
        "servable specs load: {:?}",
        cluster.tenants()
    );
    assert!(
        notices.iter().any(|n| n.contains("exhaustive_n6.scn")),
        "exhaustive spec must be skipped with a notice: {notices:?}"
    );
    assert!(
        notices.iter().any(|n| n.contains("explorer_batch.scn")),
        "explorer spec must be skipped with a notice: {notices:?}"
    );
    // Every tenant answers a stats query immediately (the load-time
    // snapshot is published as epoch 1).
    for tenant in cluster.tenants() {
        let line = cluster
            .handle_line(&format!("query {tenant} stats"))
            .unwrap();
        assert!(line.starts_with("epoch 1 stats "), "{line}");
    }
}

/// The same `no-heal` + `theorems` spec `tests/spec.rs` runs through
/// `run --spec`, served: 40 deletions overflow the 16-finding cap, and
/// the marker line is counted and rendered as `run --spec` does.
#[test]
fn served_theorem_findings_past_the_cap_end_in_the_marker() {
    let mut cluster = Cluster::new(1);
    let text = "graph = ba(64, 3)\nhealer = no-heal\nadversary = max-node\nseed = 3\n\
                audit = theorems\n";
    cluster.add_spec("noheal", &spec(text)).unwrap();
    for v in 0..40 {
        assert_eq!(cluster.handle_line(&format!("noheal delete {v}")), None);
    }
    cluster.handle_line("tick");
    let stats = cluster.handle_line("query noheal stats").unwrap();
    assert!(stats.contains(" deletions 40 ") && stats.contains(" violations 17 "));
    let report = cluster.finish();
    let findings: String = (5..21)
        .map(|e| format!("  VIOLATION: event {e} (round {e}): G is disconnected\n"))
        .collect();
    assert!(report.starts_with("tenant noheal: healer no-heal  audit findings 17\n"));
    let tail = format!("{findings}  VIOLATION: audit: further findings truncated\n");
    assert!(report.ends_with(&tail), "{report}");
}
