//! Exhaustive interleaving checks for the graph crate's two concurrent
//! protocols (run via `make loom-check`, i.e. `RUSTFLAGS="--cfg loom"
//! cargo test -p selfheal-graph --test loom`):
//!
//! - the `DegreeIndex` hint protocol: `max_degree_node`/`min_degree_node`
//!   repair stranded relaxed hints through `&self` while other readers
//!   repair concurrently and `clone` snapshots the hints mid-repair;
//! - `parallel_fold`'s work dispatch: the relaxed `fetch_add` counter
//!   hands every item to exactly one worker, and the channel fan-in
//!   delivers every partial accumulator;
//! - `WorkerPool`'s rounds: the same claim loop over a counter reset
//!   between rounds, the per-helper wake hand-off, the fan-in of one
//!   partial per helper, and the hang-up that joins the helpers on drop.
//!
//! The hint *updates* (a relaxed load and a conditional store in
//! `DegreeIndex::insert`) take `&mut Graph`, so they cannot race queries
//! by construction; what can race — and what is explored here — is
//! repair vs. repair vs. `clone`'s relaxed snapshot (graph.rs
//! `DegreeIndex::clone`).
//!
//! The degree index is built by the first degree query, through std's
//! `OnceLock::get_or_init`. That first race belongs to std, and loom does
//! not model it: the graphs below are queried once before any thread
//! starts, so every model explores repairs of an index already built.
#![cfg(loom)]

use std::sync::Arc;

use selfheal_graph::parallel::{parallel_fold, WorkerPool};
use selfheal_graph::{Graph, NodeId};

/// Star K1,3 with the hub removed and one fresh edge: true max degree 1
/// (nodes 1,2), true min 0 (node 3), but `max_hint` is stranded at 3 by
/// the hub's departure. Every query must repair to the exact answer.
///
/// The hub query builds the degree index while the hub is still there;
/// built after the removal instead, the index would start from exact
/// hints and no query would have anything to repair.
fn stranded_hint_graph() -> Graph {
    let mut g = Graph::new(4);
    for v in 1..4 {
        g.add_edge(NodeId::from_index(0), NodeId::from_index(v))
            .unwrap();
    }
    assert_eq!(g.max_degree_node(), Some(NodeId::from_index(0)));
    g.remove_node(NodeId::from_index(0)).unwrap();
    g.add_edge(NodeId::from_index(1), NodeId::from_index(2))
        .unwrap();
    g
}

#[test]
fn degree_hint_repairs_race_cleanly() {
    let report = loom::model(|| {
        let g = Arc::new(stranded_hint_graph());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let g = Arc::clone(&g);
                loom::thread::spawn(move || {
                    // Each reader repairs both hints; the answers must
                    // be exact in every interleaving of the relaxed
                    // load/store repair pairs.
                    assert_eq!(g.max_degree_node(), Some(NodeId::from_index(1)));
                    assert_eq!(g.min_degree_node(), Some(NodeId::from_index(3)));
                })
            })
            .collect();
        // Snapshot mid-repair: clone reads both hints with relaxed
        // loads; the copy must still answer exactly and validate.
        let snap = (*g).clone();
        for h in handles {
            h.join().unwrap();
        }
        snap.validate().expect("mid-repair snapshot is consistent");
        assert_eq!(snap.max_degree_node(), Some(NodeId::from_index(1)));
        assert_eq!(snap.min_degree_node(), Some(NodeId::from_index(3)));
        g.validate().expect("shared graph stays consistent");
    });
    println!(
        "loom degree-hint protocol: {} interleavings explored, {} pruned, max depth {}",
        report.schedules, report.pruned, report.max_depth
    );
    assert!(report.schedules > 1, "hint repairs must actually race");
}

#[test]
fn parallel_fold_dispatch_claims_each_item_once() {
    let report = loom::model(|| {
        // 2 workers race the relaxed fetch_add dispatch over 3 items;
        // in every schedule each item must be folded exactly once and
        // every partial accumulator must arrive through the channel.
        let mut claimed = parallel_fold(
            3,
            2,
            Vec::new,
            |mut acc: Vec<usize>, i| {
                acc.push(i);
                acc
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        claimed.sort_unstable();
        assert_eq!(claimed, vec![0, 1, 2]);
    });
    println!(
        "loom parallel_fold dispatch: {} interleavings explored, {} pruned, max depth {}",
        report.schedules, report.pruned, report.max_depth
    );
    assert!(report.schedules > 1, "workers must actually race");
}

/// `workers` workers run `rounds` consecutive rounds over `items`
/// items, then the pool drops. Every round must fold each item exactly once
/// (so every helper's partial arrived), and the drop must join every
/// helper — a helper left blocked would be reported as a deadlock.
fn pool_rounds(workers: usize, rounds: usize, items: usize) -> loom::Report {
    loom::model(move || {
        let mut pool = WorkerPool::new(workers, |mut acc: Vec<usize>, i| {
            acc.push(i);
            acc
        });
        for _ in 0..rounds {
            let mut claimed = pool.run(items, |mut a, mut b| {
                a.append(&mut b);
                a
            });
            claimed.sort_unstable();
            assert_eq!(claimed, (0..items).collect::<Vec<_>>());
        }
        drop(pool);
    })
}

#[test]
fn worker_pool_rounds_claim_each_item_once_and_drop_joins() {
    let report = pool_rounds(2, 2, 3);
    println!(
        "loom WorkerPool rounds: {} interleavings explored, {} pruned, max depth {}",
        report.schedules, report.pruned, report.max_depth
    );
    assert!(report.schedules > 1, "caller and helper must actually race");
}

/// The default tier above keeps `make ci` in seconds; the wider
/// configurations below are opt-in, mirroring `verify --full`:
/// `make loom-check-full` (i.e. `LOOM_FULL=1`).
fn full_tier() -> bool {
    if std::env::var_os("LOOM_FULL").is_some() {
        return true;
    }
    eprintln!("skipped: full-tier loom config (opt in with LOOM_FULL=1 / make loom-check-full)");
    false
}

#[test]
fn full_degree_hint_three_readers() {
    if !full_tier() {
        return;
    }
    let report = loom::model(|| {
        let g = Arc::new(stranded_hint_graph());
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let g = Arc::clone(&g);
                loom::thread::spawn(move || {
                    assert_eq!(g.max_degree_node(), Some(NodeId::from_index(1)));
                    assert_eq!(g.min_degree_node(), Some(NodeId::from_index(3)));
                })
            })
            .collect();
        let snap = (*g).clone();
        for h in handles {
            h.join().unwrap();
        }
        snap.validate().expect("mid-repair snapshot is consistent");
        assert_eq!(snap.max_degree_node(), Some(NodeId::from_index(1)));
        g.validate().expect("shared graph stays consistent");
    });
    println!(
        "loom degree-hint protocol (full, 3 readers): {} interleavings explored, {} pruned, max depth {}",
        report.schedules, report.pruned, report.max_depth
    );
}

#[test]
fn full_parallel_fold_three_workers() {
    if !full_tier() {
        return;
    }
    let report = loom::model(|| {
        let mut claimed = parallel_fold(
            4,
            3,
            Vec::new,
            |mut acc: Vec<usize>, i| {
                acc.push(i);
                acc
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        claimed.sort_unstable();
        assert_eq!(claimed, vec![0, 1, 2, 3]);
    });
    println!(
        "loom parallel_fold dispatch (full, 3 workers): {} interleavings explored, {} pruned, max depth {}",
        report.schedules, report.pruned, report.max_depth
    );
}

#[test]
fn full_worker_pool_three_workers() {
    if !full_tier() {
        return;
    }
    // Two rounds over three items at three workers exceed the explorer's
    // run budget; one round races every item across all three workers,
    // and two single-item rounds race the reset against both helpers.
    for (rounds, items) in [(1, 3), (2, 1)] {
        let report = pool_rounds(3, rounds, items);
        println!(
            "loom WorkerPool (full, 3 workers, {rounds} rounds x {items} items): \
             {} interleavings explored, {} pruned, max depth {}",
            report.schedules, report.pruned, report.max_depth
        );
    }
}
