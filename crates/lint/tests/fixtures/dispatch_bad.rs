//! Dispatch-loop rule: violation — a hand-rolled work-dispatch loop
//! that belongs in `graph::parallel` (`parallel_fold` or `WorkerPool`).
use std::sync::atomic::{AtomicUsize, Ordering};

pub fn drain(next: &AtomicUsize, n: usize) {
    loop {
        // relaxed-ok: claim indices are unique regardless of order.
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
    }
}
