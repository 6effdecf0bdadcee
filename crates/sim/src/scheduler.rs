//! Deterministic event queue.

use crate::message::Envelope;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap of in-flight messages ordered by `(deliver_at, seq)`.
///
/// Because `seq` is unique per send, ordering is total and pops are fully
/// deterministic regardless of insertion order.
pub struct EventQueue<M> {
    heap: BinaryHeap<Entry<M>>,
    next_seq: u64,
}

struct Entry<M>(Envelope<M>);

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest first.
        Reverse(self.0.key()).cmp(&Reverse(other.0.key()))
    }
}

impl<M> EventQueue<M> {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Enqueue a payload from `from` to `to` delivered at `deliver_at`.
    /// Returns the assigned sequence number.
    pub fn push(&mut self, from: u32, to: u32, deliver_at: SimTime, payload: M) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry(Envelope {
            seq,
            deliver_at,
            from,
            to,
            payload,
        }));
        seq
    }

    /// Pop the earliest message, if any.
    pub fn pop(&mut self) -> Option<Envelope<M>> {
        self.heap.pop().map(|e| e.0)
    }

    /// Number of in-flight messages.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total messages ever enqueued.
    pub fn total_sent(&self) -> u64 {
        self.next_seq
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(0, 1, SimTime(5), "late");
        q.push(0, 1, SimTime(1), "early");
        q.push(0, 1, SimTime(3), "mid");
        assert_eq!(q.pop().unwrap().payload, "early");
        assert_eq!(q.pop().unwrap().payload, "mid");
        assert_eq!(q.pop().unwrap().payload, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_send_order() {
        let mut q = EventQueue::new();
        q.push(0, 1, SimTime(1), "first");
        q.push(0, 2, SimTime(1), "second");
        q.push(0, 3, SimTime(1), "third");
        assert_eq!(q.pop().unwrap().payload, "first");
        assert_eq!(q.pop().unwrap().payload, "second");
        assert_eq!(q.pop().unwrap().payload, "third");
    }

    #[test]
    fn bookkeeping() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(0, 1, SimTime(2), ());
        q.push(0, 1, SimTime(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_sent(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.total_sent(), 2);
        assert!(q.is_empty());
    }
}
