//! The snapshot slot: an epoch-stamped `Arc` that decouples healing
//! (one writer per shard) from topology queries (any number of
//! readers).
//!
//! # Protocol
//!
//! The slot is a mutex around `(epoch, Arc<T>)`, shared by the writer
//! and every reader. The writer also owns one spare `Arc<T>`: the
//! snapshot it published the time before last.
//!
//! - **Readers** ([`SnapshotReader::read`]) clone the published `Arc`
//!   and its epoch under the lock, release it, then run their closure.
//!   The snapshot a reader holds is immutable and kept alive by its own
//!   `Arc`, so it is always one whole published value, tagged with the
//!   epoch that was current when the read began.
//! - **The writer** ([`SnapshotWriter::publish`], unique by
//!   construction: the handle is not `Clone` and `publish` takes
//!   `&mut self`) refills the spare through `Arc::make_mut`, off the
//!   lock, then takes the lock just long enough to bump the epoch and
//!   swap the spare with the published `Arc`.
//!
//! A publish never waits for readers. When no reader still holds the
//! spare, `make_mut` hands it back for an in-place refill, so a
//! steady-state publish reuses the previous-but-one snapshot's
//! allocations. When a read outlives two publishes, `make_mut` clones
//! the spare instead, and the reader frees the old copy when it is done.

use crate::lock;
use std::sync::{Arc, Mutex};

/// The published snapshot and its epoch.
type Published<T> = Mutex<(usize, Arc<T>)>;

/// Create a slot from two initial values (`active` is published first,
/// at epoch 0) and split it into the unique writer and a cloneable
/// reader.
pub fn slot_pair<T>(active: T, spare: T) -> (SnapshotWriter<T>, SnapshotReader<T>) {
    let slot = Arc::new(Mutex::new((0, Arc::new(active))));
    (
        SnapshotWriter {
            slot: slot.clone(),
            spare: Arc::new(spare),
        },
        SnapshotReader { slot },
    )
}

/// The unique publishing handle for one slot. Deliberately not
/// `Clone`, and [`publish`](SnapshotWriter::publish) takes `&mut self`:
/// there is one writer per slot by construction.
pub struct SnapshotWriter<T> {
    slot: Arc<Published<T>>,
    spare: Arc<T>,
}

impl<T: Clone> SnapshotWriter<T> {
    /// Refill the spare snapshot via `fill` (which receives the
    /// previous-but-one contents — reuse its allocations) and publish
    /// it, advancing the epoch by one. Never waits for readers.
    pub fn publish(&mut self, fill: impl FnOnce(&mut T)) {
        fill(Arc::make_mut(&mut self.spare));
        let mut published = lock(&self.slot);
        published.0 += 1;
        std::mem::swap(&mut published.1, &mut self.spare);
    }
}

impl<T> SnapshotWriter<T> {
    /// The published epoch (starts at 0, increments once per publish).
    pub fn epoch(&self) -> usize {
        lock(&self.slot).0
    }
}

/// A cloneable reading handle for one slot.
pub struct SnapshotReader<T> {
    slot: Arc<Published<T>>,
}

impl<T> Clone for SnapshotReader<T> {
    fn clone(&self) -> Self {
        SnapshotReader {
            slot: self.slot.clone(),
        }
    }
}

impl<T> SnapshotReader<T> {
    /// Run `f` against the currently published snapshot, returning its
    /// result tagged with the snapshot's epoch. The lock is held only
    /// to clone the `Arc`, never while `f` runs, so a read never waits
    /// on a heal and never holds up a publish.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> (usize, R) {
        let (epoch, snap) = {
            let published = lock(&self.slot);
            (published.0, Arc::clone(&published.1))
        };
        (epoch, f(&snap))
    }

    /// Clone out the published snapshot (convenience over
    /// [`read`](SnapshotReader::read)).
    pub fn get(&self) -> (usize, T)
    where
        T: Clone,
    {
        self.read(T::clone)
    }

    /// The published epoch (starts at 0, increments once per publish).
    pub fn epoch(&self) -> usize {
        lock(&self.slot).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn publish_advances_the_epoch_and_readers_see_the_latest_value() {
        let (mut w, r) = slot_pair(0u64, 0u64);
        assert_eq!(r.get(), (0, 0));
        for i in 1..=5u64 {
            w.publish(|buf| *buf = i);
            assert_eq!(r.epoch(), i as usize);
            assert_eq!(r.get(), (i as usize, i));
        }
    }

    #[test]
    fn fill_receives_the_stale_buffer_for_allocation_reuse() {
        let (mut w, r) = slot_pair(vec![0u32; 4], vec![0u32; 4]);
        let spare_cap = 4;
        w.publish(|buf| {
            assert_eq!(buf.capacity(), spare_cap, "spare buffer handed back");
            buf.clear();
            buf.extend([1, 2]);
        });
        assert_eq!(r.get().1, vec![1, 2]);
        // The next publish gets the *other* buffer (the original
        // active one), also with its allocation intact.
        w.publish(|buf| {
            assert_eq!(buf.capacity(), spare_cap);
            buf.clear();
            buf.push(9);
        });
        assert_eq!(r.get(), (2, vec![9]));
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_pair() {
        // Publish (i, i) pairs under churn; any mixed pair is a torn
        // read, and epochs must never run backwards for one reader.
        const LAST: u64 = 20_000;
        let (mut w, r) = slot_pair((0u64, 0u64), (0u64, 0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    let mut last_epoch = 0;
                    while last_epoch < LAST as usize {
                        let (epoch, (a, b)) = r.get();
                        assert_eq!(a, b, "torn read at epoch {epoch}");
                        assert!(epoch >= last_epoch, "epoch went backwards");
                        last_epoch = epoch;
                    }
                });
            }
            for i in 1..=LAST {
                w.publish(|buf| *buf = (i, i));
            }
        });
        assert_eq!(w.epoch(), LAST as usize);
    }

    #[test]
    fn publishes_complete_while_a_read_is_open() {
        let (mut w, r) = slot_pair(vec![0u64; 3], vec![0u64; 3]);
        w.publish(|buf| buf.fill(1));
        let (epoch, seen) = r.read(|snap| {
            // Three publishes from another thread while this read holds
            // epoch 1. The third one's spare is the snapshot under this
            // closure: it must copy it rather than refill it, and no
            // publish may wait for the read to end.
            let (done_tx, done_rx) = mpsc::channel();
            let publisher = std::thread::spawn(move || {
                for i in 2..=4 {
                    w.publish(|buf| buf.fill(i));
                }
                done_tx.send(w.epoch()).ok();
            });
            let published = done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("publishes finished while a read was open");
            assert_eq!(published, 4);
            publisher.join().expect("publisher thread");
            snap.clone()
        });
        assert_eq!((epoch, seen), (1, vec![1; 3]));
        assert_eq!(r.get(), (4, vec![4; 3]));
    }
}
