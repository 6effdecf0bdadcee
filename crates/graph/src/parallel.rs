//! Thread-parallel graph sweeps and the persistent worker pool.
//!
//! The expensive analysis in this workspace is all-pairs BFS (used by the
//! stretch metric, Fig. 10 of the paper). The graph being swept is frozen
//! into a [`Csr`] snapshot, which is `Sync`, so the sweep parallelizes
//! embarrassingly: sources are distributed over a small pool of scoped
//! threads with dynamic (atomic-counter) load balancing, and per-thread
//! partial results are folded through a bounded channel.
//!
//! One-shot sweeps spawn their threads per call ([`parallel_fold`]).
//! Short rounds repeated many times — the serving cluster's ticks — run
//! on a [`WorkerPool`] instead, whose helpers park between rounds. Both
//! hand out items through the same claim loop.

use crate::csr::Csr;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

// Under `--cfg loom` the dispatch counter, the fan-in channels, and
// threads are the model checker's mocks, making every claim/send/join a
// schedule point (`make loom-check`).
#[cfg(loom)]
use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::channel::{bounded, Receiver, Sender};
#[cfg(loom)]
use loom::thread::{scope, spawn, JoinHandle};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::mpsc::{sync_channel as bounded, Receiver, SyncSender as Sender};
#[cfg(not(loom))]
use std::thread::{scope, spawn, JoinHandle};

/// A sensible default worker count: available parallelism capped at 8
/// (the sweeps here saturate memory bandwidth long before 8 cores).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// Fold every item in `0..n_items` into per-worker accumulators on a pool
/// of `threads` workers, then combine the worker accumulators with
/// `reduce`.
///
/// This is the workhorse behind both the analysis sweeps in this crate
/// and the scenario sweep fleet in `selfheal-core`: each worker starts
/// from a fresh `init()` accumulator and folds every item it claims
/// (dynamically, via an atomic counter, so uneven per-item costs still
/// balance); the partial accumulators fan into the caller through a
/// bounded channel and are combined with `reduce`.
///
/// The item-to-worker partition and the reduction order are unspecified:
/// for a result that is independent of `threads`, `fold`/`reduce` must be
/// commutative and associative over items (histogram-style counting,
/// `max`/`min`, sums all qualify).
pub fn parallel_fold<A, I, F, R>(n_items: usize, threads: usize, init: I, fold: F, reduce: R) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, usize) -> A + Sync,
    R: Fn(A, A) -> A,
{
    let threads = threads.max(1).min(n_items.max(1));
    if threads == 1 {
        let mut acc = init();
        for i in 0..n_items {
            acc = fold(acc, i);
        }
        return acc;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = bounded::<A>(threads);
    scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let init = &init;
            let fold = &fold;
            scope.spawn(move || {
                let acc = claim_loop(next, n_items, init(), fold);
                // panic-ok: the receiver lives until every worker has
                // sent (the scope joins workers before `rx` drops), so a
                // send failure is unreachable short of a poisoned scope.
                tx.send(acc).expect("result channel closed early");
            });
        }
        drop(tx);
        let mut total = init();
        for part in rx.iter() {
            total = reduce(total, part);
        }
        total
    })
}

/// The one dispatch loop: claim indices from `next` until all of
/// `0..n_items` are handed out, folding each claimed index into `acc`.
/// Every worker of [`parallel_fold`] and of a [`WorkerPool`] round runs
/// this, so each index is folded exactly once per round.
fn claim_loop<A>(
    next: &AtomicUsize,
    n_items: usize,
    mut acc: A,
    fold: &impl Fn(A, usize) -> A,
) -> A {
    loop {
        // relaxed-ok: fetch_add claims each index exactly once whatever
        // the interleaving; no payload is published through this counter
        // (results travel via the channel). Exhaustively checked by
        // `crates/graph/tests/loom.rs` (`make loom-check`).
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_items {
            return acc;
        }
        acc = fold(acc, i);
    }
}

/// What a [`WorkerPool`] shares with its helpers: the round's dispatch
/// counter and the fold every round runs.
struct Job<A> {
    next: AtomicUsize,
    fold: Box<dyn Fn(A, usize) -> A + Send + Sync>,
}

/// A persistent pool for [`parallel_fold`]-style rounds that repeat
/// many times over the same fold, such as the serving cluster's ticks.
///
/// The pool keeps `threads − 1` helper threads parked on a channel;
/// the thread calling [`WorkerPool::run`] claims items too. A round
/// sends one wake message per helper and receives one partial
/// accumulator back from each, and allocates nothing. Idle helpers
/// block in `recv` rather than spin, so they leave the cores to other
/// work between rounds. Dropping the pool hangs up the wake channels
/// and joins every helper.
///
/// Each worker starts a round from `A::default()`, so as with
/// [`parallel_fold`] the result is independent of the worker count
/// only when `fold` and `reduce` are commutative and associative.
pub struct WorkerPool<A> {
    job: Arc<Job<A>>,
    wake: Vec<Sender<usize>>,
    done: Receiver<std::thread::Result<A>>,
    helpers: Vec<JoinHandle<()>>,
}

impl<A: Default + Send + 'static> WorkerPool<A> {
    /// A pool of `threads` workers (min 1): the caller plus
    /// `threads − 1` helpers, each running `fold` on the items it
    /// claims.
    pub fn new(threads: usize, fold: impl Fn(A, usize) -> A + Send + Sync + 'static) -> Self {
        let job = Arc::new(Job {
            next: AtomicUsize::new(0),
            fold: Box::new(fold),
        });
        let helpers = threads.max(1) - 1;
        let (done_tx, done) = bounded(helpers);
        let mut wake = Vec::with_capacity(helpers);
        let mut handles = Vec::with_capacity(helpers);
        for _ in 0..helpers {
            let (wake_tx, wake_rx) = bounded::<usize>(1);
            let (job, done_tx) = (Arc::clone(&job), done_tx.clone());
            handles.push(spawn(move || {
                while let Ok(n_items) = wake_rx.recv() {
                    let part = catch_unwind(AssertUnwindSafe(|| {
                        claim_loop(&job.next, n_items, A::default(), &job.fold)
                    }));
                    if done_tx.send(part).is_err() {
                        return;
                    }
                }
            }));
            wake.push(wake_tx);
        }
        WorkerPool {
            job,
            wake,
            done,
            helpers: handles,
        }
    }

    /// Run one round: fold every item in `0..n_items` across the
    /// workers, then combine the partials with `reduce`.
    ///
    /// A panic in `fold` on any worker, or in `reduce`, is re-raised
    /// here once every helper has reported, so the pool stays usable
    /// for the next round.
    pub fn run(&mut self, n_items: usize, reduce: impl Fn(A, A) -> A) -> A {
        // relaxed-ok: the last round's final claims happen-before the
        // partials it received, and each helper receives this round's
        // wake message (a channel hand-off) before it claims again.
        self.job.next.store(0, Ordering::Relaxed);
        let mut woken = 0;
        for wake in &self.wake {
            woken += usize::from(wake.send(n_items).is_ok());
        }
        let job = &self.job;
        let mut total = catch_unwind(AssertUnwindSafe(|| {
            claim_loop(&job.next, n_items, A::default(), &job.fold)
        }));
        for _ in 0..woken {
            let Ok(part) = self.done.recv() else { break };
            total = match (total, part) {
                (Ok(t), Ok(p)) => catch_unwind(AssertUnwindSafe(|| reduce(t, p))),
                (Err(e), _) | (Ok(_), Err(e)) => Err(e),
            };
        }
        total.unwrap_or_else(|e| resume_unwind(e))
    }
}

impl<A> Drop for WorkerPool<A> {
    fn drop(&mut self) {
        // Hanging up ends each helper's `recv` loop.
        self.wake.clear();
        // While unwinding (as when the model checker tears a run down and
        // its join panics), skip the joins: a second panic would abort
        // the process. The helpers exit on their own after the hang-up.
        if std::thread::panicking() {
            return;
        }
        for helper in self.helpers.drain(..) {
            // A helper never unwinds: fold panics are caught per round.
            let _ = helper.join();
        }
    }
}

/// Map every item in `0..n_items` through `map` on a pool of `threads`
/// workers and fold all results with `reduce`, starting from `identity`
/// in each worker.
///
/// Items are handed out dynamically via an atomic counter, so uneven
/// per-item costs still balance. The reduction order is unspecified;
/// `reduce` must be associative and commutative for a deterministic
/// result (all uses in this crate fold with `max`, which is).
pub fn parallel_map_reduce<T, F, R>(
    n_items: usize,
    threads: usize,
    identity: T,
    map: F,
    reduce: R,
) -> T
where
    T: Send + Sync + Clone,
    F: Fn(usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync + Send,
{
    parallel_fold(
        n_items,
        threads,
        || identity.clone(),
        |acc, i| reduce(acc, map(i)),
        &reduce,
    )
}

/// All-pairs shortest paths over a CSR snapshot using `threads` workers.
///
/// Returns the full `n x n` hop-distance matrix in dense indices,
/// identical to [`crate::paths::apsp`] but computed in parallel. Rows are
/// written in place, so the result is bit-for-bit deterministic regardless
/// of scheduling.
pub fn parallel_apsp(csr: &Csr, threads: usize) -> Vec<Vec<u32>> {
    let n = csr.len();
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    if n == 0 {
        return out;
    }
    let threads = threads.max(1).min(n);
    let next = AtomicUsize::new(0);
    // Hand out rows through raw pointers guarded by the atomic counter:
    // each row index is claimed exactly once, so no two threads touch the
    // same row. A scoped-thread + channel version would avoid the unsafe
    // block but doubles peak memory by staging rows; APSP matrices are the
    // biggest allocation in the workspace, so in-place wins.
    struct RowsPtr(*mut Vec<u32>);
    // SAFETY: the pointer is only dereferenced at indices claimed
    // exactly once through the atomic counter, so no two threads ever
    // alias the same row; the buffer outlives the scope.
    unsafe impl Send for RowsPtr {}
    // SAFETY: shared access is index-disjoint by the same claim
    // protocol; `&RowsPtr` hands out no aliased `&mut`.
    unsafe impl Sync for RowsPtr {}
    let rows = RowsPtr(out.as_mut_ptr());
    scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let rows = &rows;
            scope.spawn(move || {
                let mut queue = Vec::new();
                loop {
                    // relaxed-ok: unique index claim as in
                    // `parallel_fold`; the rows written through the
                    // claimed index are published by the scope join, not
                    // by this counter.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // SAFETY: `i` is claimed exactly once across all
                    // threads (fetch_add), and `out` outlives the scope.
                    let row = unsafe { &mut *rows.0.add(i) };
                    csr.bfs_into(i, row, &mut queue);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::ids::NodeId;
    use crate::paths::apsp;

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n))
                .unwrap();
        }
        g
    }

    #[test]
    fn parallel_apsp_matches_serial() {
        let g = ring(64);
        let csr = Csr::from_graph(&g);
        let serial = apsp(&csr);
        for threads in [1, 2, 4] {
            let par = parallel_apsp(&csr, threads);
            assert_eq!(par, serial, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn parallel_apsp_empty() {
        let mut g = Graph::new(1);
        g.remove_node(NodeId(0)).unwrap();
        let csr = Csr::from_graph(&g);
        assert!(parallel_apsp(&csr, 4).is_empty());
    }

    #[test]
    fn fold_matches_serial_for_any_thread_count() {
        // Histogram-style counting: commutative, so the aggregate must be
        // identical no matter how items land on workers.
        let serial = parallel_fold(
            100,
            1,
            || vec![0u64; 10],
            |mut acc, i| {
                acc[i % 10] += i as u64;
                acc
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
                a
            },
        );
        for threads in [2, 4, 8] {
            let par = parallel_fold(
                100,
                threads,
                || vec![0u64; 10],
                |mut acc, i| {
                    acc[i % 10] += i as u64;
                    acc
                },
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                },
            );
            assert_eq!(par, serial, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn fold_zero_items_returns_init() {
        let out = parallel_fold(0, 4, || 41u64, |a, _| a + 1, |a, b| a + b);
        assert_eq!(out, 41);
    }

    #[test]
    fn map_reduce_sums() {
        let total = parallel_map_reduce(1000, 4, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(total, 499_500);
    }

    #[test]
    fn map_reduce_single_thread_path() {
        let total = parallel_map_reduce(10, 1, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(total, 45);
    }

    #[test]
    fn map_reduce_zero_items() {
        let total = parallel_map_reduce(0, 4, 7u64, |_| 1, |a, b| a.max(b));
        assert_eq!(total, 7);
    }

    #[test]
    fn pool_rounds_match_serial_for_any_thread_count() {
        // Histogram-style counting, as in the `parallel_fold` test above.
        let fold = |mut acc: [u64; 10], i: usize| {
            acc[i % 10] += i as u64;
            acc
        };
        let add = |mut a: [u64; 10], b: [u64; 10]| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        };
        for threads in [1, 2, 4] {
            let mut pool = WorkerPool::new(threads, fold);
            // Rounds of different sizes reuse the same helpers.
            for n in [100, 0, 3, 100] {
                let serial = (0..n).fold([0; 10], fold);
                assert_eq!(pool.run(n, add), serial, "{threads} threads, {n} items");
            }
        }
    }

    #[test]
    fn pool_reraises_a_helper_panic_and_stays_usable() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{mpsc, Mutex, OnceLock};
        use std::time::Duration;
        // The rounds run on their own thread, so a hung fan-in fails the
        // test by timeout. Until a helper has claimed an item, an item on
        // the calling thread waits for the helper's message, so a helper
        // meets the panic in every schedule; only its first item panics.
        let caller = Arc::new(OnceLock::new());
        let me = Arc::clone(&caller);
        let helper_claimed = AtomicBool::new(false);
        let (claimed_tx, claimed_rx) = mpsc::channel();
        let claimed_rx = Mutex::new(claimed_rx);
        let mut pool = WorkerPool::new(2, move |acc: u64, _| {
            if me.get() == Some(&std::thread::current().id()) {
                if !helper_claimed.load(Ordering::SeqCst) {
                    let rx = claimed_rx.lock().expect("only the caller waits");
                    rx.recv_timeout(Duration::from_secs(60)).ok();
                }
            } else if !helper_claimed.swap(true, Ordering::SeqCst) {
                claimed_tx.send(()).ok();
                panic!("item failed on a helper");
            }
            acc + 1
        });
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            caller.set(std::thread::current().id()).ok();
            let first = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(2, |a, b| a + b)));
            let message = first
                .err()
                .and_then(|e| e.downcast_ref::<&str>().map(|m| m.to_string()));
            let second = pool.run(4, |a, b| a + b);
            tx.send((message, second)).ok();
        });
        let (message, second) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a helper panic must not hang the round");
        assert_eq!(message.as_deref(), Some("item failed on a helper"));
        assert_eq!(second, 4, "the next round folds every item");
    }
}
