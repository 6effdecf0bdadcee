//! Host-speed calibration.
//!
//! On a shared host the speed of a vCPU drifts by up to half over
//! seconds to minutes (neighbours on the same physical core), which
//! moves every wall-clock figure of a closed-loop run far more than the
//! changes the benchmark must resolve. A fixed reference run, timed on
//! the same thread right after every measured slice, tracks that drift;
//! closed-loop figures are reported scaled to the reference's nominal
//! speed ("at reference host speed").
//!
//! The reference must not run any of the program's own code, or a
//! change that speeds the program up would speed the reference up too
//! and cancel out of every scaled figure. It is therefore a frozen,
//! self-contained kernel of the same kind of work: churn on a
//! preferential-attachment graph held as adjacency lists, where each
//! deletion reconnects the victim's neighbours in a degree-ordered
//! binary tree. A generic CPU or memory loop tracks the drift far less
//! closely, because contention slows different instruction mixes by
//! different amounts.
//!
//! Nor may the program's heap state move it: the timed region never
//! calls the allocator, because every list is reserved beforehand to
//! the capacity it reaches in a run.

use selfheal_bench::alloc::thread_allocations;
use selfheal_sim::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

/// Nodes of the reference graph.
const NODES: usize = 5_000;
/// Edges per arriving node.
const M: usize = 3;
/// Churn events per timing.
const EVENTS: u32 = 4_000;
/// Nanoseconds per reference event at nominal host speed (a typical
/// phase of a 2-core Xeon VM). Only ratios between runs matter; the
/// constant fixes the unit.
const NOMINAL_NS_PER_EVENT: f64 = 440.0;

/// Nodes that join during one run.
const JOINS: usize = EVENTS as usize / 3;

/// The reference kernel's template graph, with the capacity every list
/// needs in a run.
#[derive(Clone, Debug)]
pub struct Reference {
    /// The initial graph plus an empty list per joining node.
    adj: Vec<Vec<u32>>,
    /// The capacity each list of `adj` reaches in a run.
    caps: Vec<usize>,
    /// The largest neighbourhood a run deletes.
    nbrs_cap: usize,
}

impl Default for Reference {
    /// A preferential-attachment graph from a fixed seed: every new node
    /// links to `M` distinct endpoints drawn from the edge list. A run
    /// is deterministic, so one untimed run learns every capacity the
    /// timed runs need.
    fn default() -> Self {
        let mut rng = SplitMix64::new(0x5EED);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); NODES + JOINS];
        let mut ends: Vec<u32> = Vec::new();
        for v in 0..=M as u32 {
            for u in 0..v {
                adj[v as usize].push(u);
                adj[u as usize].push(v);
                ends.extend([u, v]);
            }
        }
        for v in (M + 1) as u32..NODES as u32 {
            let mut picked: Vec<u32> = Vec::with_capacity(M);
            while picked.len() < M {
                let u = ends[rng.gen_range(ends.len() as u64) as usize];
                if !picked.contains(&u) {
                    picked.push(u);
                }
            }
            for u in picked {
                adj[v as usize].push(u);
                adj[u as usize].push(v);
                ends.extend([u, v]);
            }
        }
        let (mut grown, mut nbrs) = (adj.clone(), Vec::new());
        churn(&mut grown, &mut nbrs);
        Reference {
            caps: grown.iter().map(Vec::capacity).collect(),
            nbrs_cap: nbrs.capacity(),
            adj,
        }
    }
}

fn link(adj: &mut [Vec<u32>], u: u32, v: u32) {
    if u != v && !adj[u as usize].contains(&v) {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
}

/// Two deletions (each rewiring the victim's neighbours into a binary
/// tree, highest degree at the root) per join (to two live nodes) on
/// `adj`, using `nbrs` as the neighbourhood buffer. Returns nanoseconds
/// per event and the allocations made while the clock ran (none when
/// the capacities of `adj` and `nbrs` already suffice).
fn churn(adj: &mut [Vec<u32>], nbrs: &mut Vec<u32>) -> (f64, u64) {
    let mut live: Vec<u32> = Vec::with_capacity(NODES + JOINS);
    live.extend(0..NODES as u32);
    let mut next = NODES as u32;
    let mut rng = SplitMix64::new(0xF00D);
    let (t, a) = (Instant::now(), thread_allocations());
    for event in 0..EVENTS {
        if event % 3 == 2 {
            let v = next;
            next += 1;
            for _ in 0..2 {
                let u = live[rng.gen_range(live.len() as u64) as usize];
                link(adj, v, u);
            }
            live.push(v);
            continue;
        }
        let i = rng.gen_range(live.len() as u64) as usize;
        let victim = live.swap_remove(i);
        nbrs.clear();
        nbrs.extend_from_slice(&adj[victim as usize]);
        adj[victim as usize].clear();
        for &u in nbrs.iter() {
            let list = &mut adj[u as usize];
            if let Some(at) = list.iter().position(|&x| x == victim) {
                list.swap_remove(at);
            }
        }
        nbrs.sort_unstable_by_key(|&u| (std::cmp::Reverse(adj[u as usize].len()), u));
        for k in 1..nbrs.len() {
            link(adj, nbrs[(k - 1) / 2], nbrs[k]);
        }
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(EVENTS);
    let allocs = thread_allocations() - a;
    black_box(adj);
    (ns, allocs)
}

impl Reference {
    /// One timed run on a fresh copy of the template, every list
    /// reserved to the capacity it reaches, so the timed region never
    /// calls the allocator and the program's heap state cannot move it.
    /// Returns nanoseconds per event and the allocations made while the
    /// clock ran.
    pub fn run(&self) -> (f64, u64) {
        let mut adj: Vec<Vec<u32>> = self
            .adj
            .iter()
            .zip(&self.caps)
            .map(|(list, &cap)| {
                let mut copy = Vec::with_capacity(cap);
                copy.extend_from_slice(list);
                copy
            })
            .collect();
        churn(&mut adj, &mut Vec::with_capacity(self.nbrs_cap))
    }

    /// How much slower than nominal the host runs right now (1.0 at
    /// nominal speed, 1.5 when the reference takes half again as long).
    pub fn slowdown(&self) -> f64 {
        self.run().0 / NOMINAL_NS_PER_EVENT
    }
}
