//! Zero-allocation guarantee for the steady-state healing loop.
//!
//! The PR 7 hot-path refactor claims that once every scratch buffer has
//! grown to its working size, a healing event (delete → heal → broadcast
//! → account) performs **no heap allocations at all**: the pooled
//! adjacency store reuses freed chunks, the degree buckets and the live
//! bitmap keep their capacity, the deletion context / reconstruction-set /
//! δ-order / BFS buffers round-trip through the network, and the
//! engine's `HealOutcome` is recycled.
//!
//! This test installs a counting global allocator and holds the loop to
//! that claim at n = 4096: after a warm-up phase, whole blocks of
//! healing events must allocate *nothing* on this thread.
//!
//! The claim covers every event kind, one test each:
//! - `Delete`: `steady_state_heal_loop_allocates_nothing`;
//! - `DeleteBatch`: `steady_state_rack_partition_allocates_nothing`
//!   (the engine's per-victim contexts and outcomes, and the source's
//!   borrowed payload);
//! - `Join`: `steady_state_churn_allocates_only_for_new_node_slots`,
//!   where a join may allocate only to grow the per-node arrays, and
//!   `join_growth_allocates_no_more_than_the_parent_layout`, which holds
//!   that growth over 2¹⁶ joins to a fixed count.
//!
//! Every run starts from a generated graph:
//! `a_ba_build_allocates_a_constant_count` holds a BA build, which sizes
//! each neighbor list once, to a fixed count whatever n is.
//!
//! The graph's side indexes are built by their first query, inside
//! whichever run asks first; `first_index_queries_allocate_a_constant_count`
//! holds that build to a fixed allocation count, whatever the graph's size,
//! and `removing_a_hub_allocates_nothing` holds a removal whose
//! neighbours span several search batches to none.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfheal_bench::alloc::{thread_allocations, CountingAlloc};
use selfheal_core::attack::{MaxNode, RackPartition};
use selfheal_core::batch::independent_victims;
use selfheal_core::dash::Dash;
use selfheal_core::scenario::{EventKind, NetworkEvent, RandomChurn, ScenarioEngine};
use selfheal_core::state::HealingNetwork;
use selfheal_graph::generators::barabasi_albert;
use selfheal_graph::{Graph, NodeId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of `join_growth_allocates_no_more_than_the_parent_layout`'s
/// stream on the layout before the slot records absorbed G′ (measured:
/// 34; the segmented slot records make 22).
const JOIN_GROWTH_BOUND: u64 = 34;

/// Allocations of one `barabasi_albert(n, 3)` build, whatever n is: the
/// `endpoints` list, the attachment picks, the degree counts, the arena
/// and the neighbor-list handles.
const BA_BUILD_ALLOCS: u64 = 5;

#[test]
fn steady_state_heal_loop_allocates_nothing() {
    let n = 4096usize;
    let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(20080124));
    let mut engine = ScenarioEngine::new(HealingNetwork::new(g, 20080124), Dash, MaxNode);

    // Warm-up: let every reusable buffer reach its high-water mark — the
    // outcome vectors, the epoch-stamped BFS scratch, the heal scratch,
    // the degree buckets, and the chunk pool's arena (whose amortized
    // doubling legitimately allocates while capacity converges; with this
    // seed the last growth happens around event 1100). The warm-up itself
    // must stay amortized-cheap: a bounded trickle, not per-event churn.
    let warmup = 1280u64;
    let before_warmup = thread_allocations();
    engine.run_events(warmup);
    let warmup_allocs = thread_allocations() - before_warmup;
    assert!(
        warmup_allocs < warmup / 8,
        "warm-up phase allocated {warmup_allocs} times over {warmup} events — \
         growth is supposed to be amortized doubling"
    );

    // Steady state: drive the bulk of the sweep in blocks and demand a
    // zero allocation delta for each block. Asserting per block (rather
    // than per event) still catches a single stray allocation anywhere,
    // but reports with enough context to bisect.
    let mut remaining = (n as u64) - warmup - 64;
    let mut block_no = 0u32;
    while remaining > 0 {
        let block = remaining.min(512);
        let before = thread_allocations();
        for i in 0..block {
            let record = engine.step();
            assert!(
                record.is_some(),
                "sweep ended early at event {i} of block {block_no}"
            );
        }
        let after = thread_allocations();
        assert_eq!(
            after - before,
            0,
            "block {block_no}: {} allocation(s) during {} steady-state events",
            after - before,
            block
        );
        remaining -= block;
        block_no += 1;
    }

    // The loop really was healing: finish the sweep and check emptiness.
    while engine.step().is_some() {}
    assert_eq!(engine.net.graph().live_node_count(), 0);
}

#[test]
fn steady_state_rack_partition_allocates_nothing() {
    let n = 4096usize;
    let seed = 20080124;
    let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(seed));
    let mut engine = ScenarioEngine::new(
        HealingNetwork::new(g, seed),
        Dash,
        RackPartition::new(seed, 8),
    );

    // Warm-up. Rack victims are uniformly random, so the largest victim
    // the source ever draws can come arbitrarily late, and with it the
    // last growth of the buffers sized by a victim's degree: the eight
    // per-victim contexts and outcomes and the heal scratch. So the
    // warm-up first deletes the hubs, eight independent victims per
    // batch, highest degree first, which takes every such buffer to its
    // high-water mark; then it steps the source through its first
    // shuffle.
    let before_warmup = thread_allocations();
    for _ in 0..16 {
        let hubs = independent_victims(&engine.net, 8, |v| engine.net.graph().degree(v) as i64);
        let record = engine.apply(NetworkEvent::DeleteBatch(hubs));
        assert_eq!(record.kind, EventKind::DeleteBatch);
    }
    engine.run_events(64);
    let warmup_allocs = thread_allocations() - before_warmup;
    assert!(
        warmup_allocs < 1024,
        "warm-up allocated {warmup_allocs} times over 80 batches"
    );

    // Steady state: every remaining rack, in blocks of up to 512 events,
    // down to the empty network.
    let mut events = 0u64;
    let mut block_no = 0u32;
    loop {
        let before = thread_allocations();
        let mut block = 0u64;
        while block < 512 && engine.step().is_some() {
            block += 1;
        }
        let after = thread_allocations();
        assert_eq!(
            after - before,
            0,
            "block {block_no}: {} allocation(s) during {block} steady-state batch events",
            after - before
        );
        events += block;
        block_no += 1;
        if block < 512 {
            break;
        }
    }
    assert!(events >= 256, "only {events} steady-state batch events");
    assert_eq!(engine.net.graph().live_node_count(), 0);
}

#[test]
fn steady_state_churn_allocates_only_for_new_node_slots() {
    let n = 4096usize;
    let seed = 20080124;
    let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(seed));
    let mut engine =
        ScenarioEngine::new(HealingNetwork::new(g, seed), Dash, RandomChurn::new(seed));

    // Warm-up as in the delete-only test, then 4096 mixed events, about a
    // third of them joins. A join adds a node slot to every per-node
    // array (G's adjacency handles, its degree and live indexes, and the
    // slot records); the first three grow by doubling and the records
    // by segments that double, so across the block they may allocate a
    // few dozen times in all. Anything per join — the join's target list,
    // say — would cost over a thousand.
    engine.run_events(1024);
    let before = thread_allocations();
    let mut joins = 0u64;
    for i in 0..4096 {
        let record = engine
            .step()
            .unwrap_or_else(|| panic!("churn ended early at event {i}"));
        if record.kind == EventKind::Join {
            joins += 1;
        }
    }
    let allocs = thread_allocations() - before;
    assert!(joins > 1000, "only {joins} joins in 4096 churn events");
    assert!(
        allocs < 64,
        "{allocs} allocation(s) during 4096 steady-state churn events ({joins} joins)"
    );
}

#[test]
fn a_ba_build_allocates_a_constant_count() {
    for n in [1usize << 12, 1 << 16] {
        let before = thread_allocations();
        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(20080124));
        let allocs = thread_allocations() - before;
        assert_eq!(allocs, BA_BUILD_ALLOCS, "BA({n}, 3) build");
        assert_eq!(g.edge_count(), 6 + (n - 4) * 3);
    }
}

#[test]
fn first_index_queries_allocate_a_constant_count() {
    let allocations_during = |g: &Graph, query: fn(&Graph) -> Option<_>| {
        let before = thread_allocations();
        assert!(query(g).is_some());
        thread_allocations() - before
    };
    let counts = |n: usize| {
        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(20080124));
        let counts = [
            allocations_during(&g, Graph::max_degree_node),
            allocations_during(&g, |g| g.nth_live(g.live_node_count() / 2)),
        ];
        // Built once: later queries answer from the index.
        assert_eq!(allocations_during(&g, Graph::min_degree_node), 0);
        assert_eq!(allocations_during(&g, |g| g.nth_live(0)), 0);
        counts
    };
    // The degree index: bucket sizes, one arena, bucket handles and
    // positions. The live index: the bitmap's words and the Fenwick
    // tree over its blocks' counts.
    assert_eq!(counts(4096), [4, 2], "index builds at n = 4096");
    assert_eq!(counts(65536), [4, 2], "index builds at n = 65536");
}

#[test]
fn removing_a_hub_allocates_nothing() {
    // A degree-40 hub spans several of `remove_node_into`'s batches. The
    // first hub's removal grows degree bucket 0 to hold its spokes; the
    // spokes then join a second hub, whose removal is measured with both
    // side indexes built and the former-neighbour buffer at capacity.
    let spokes = 40u32;
    let mut g = Graph::new(1 + spokes as usize);
    for v in 1..=spokes {
        g.add_edge(NodeId(0), NodeId(v)).unwrap();
    }
    assert_eq!(g.max_degree_node(), Some(NodeId(0)));
    assert!(g.nth_live(0).is_some());
    let mut former = Vec::with_capacity(spokes as usize);
    g.remove_node_into(NodeId(0), &mut former).unwrap();
    let hub = g.add_node();
    for v in 1..=spokes {
        g.add_edge(hub, NodeId(v)).unwrap();
    }
    let before = thread_allocations();
    g.remove_node_into(hub, &mut former).unwrap();
    assert_eq!(thread_allocations() - before, 0, "removing a degree-40 hub");
    assert_eq!(former.len(), spokes as usize);
    assert_eq!(g.edge_count(), 0);
    g.validate().unwrap();
}

#[test]
fn join_growth_allocates_no_more_than_the_parent_layout() {
    // 2¹⁶ joins onto BA(1024, 3), three distinct uniform targets each,
    // straight through `join_node`: only per-node storage grows. The
    // bound is the allocation count of this stream on the layout before
    // the slot records absorbed G′ (five per-node vectors doubling, plus
    // G's arena). Records that grew one fixed-size block at a time would
    // cost one allocation per block, 64 for 1,024-record blocks, on top
    // of G's own growth.
    let seed = 20080124;
    let g = barabasi_albert(1024, 3, &mut StdRng::seed_from_u64(seed));
    let mut net = HealingNetwork::new(g, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut targets: Vec<NodeId> = Vec::with_capacity(3);
    let before = thread_allocations();
    for _ in 0..1u32 << 16 {
        let bound = net.total_created();
        targets.clear();
        while targets.len() < 3 {
            let v = NodeId::from_index(rng.gen_range(0..bound));
            if !targets.contains(&v) {
                targets.push(v);
            }
        }
        net.join_node(&targets).unwrap();
    }
    let allocs = thread_allocations() - before;
    assert_eq!(net.total_created(), 1024 + (1 << 16));
    assert!(
        allocs <= JOIN_GROWTH_BOUND,
        "{allocs} allocation(s) for 2^16 joins (bound {JOIN_GROWTH_BOUND})"
    );
}
