//! Bounded binary event trace.
//!
//! For debugging protocol runs the simulator can record every delivery
//! and topology change into a compact fixed-width binary log with a hard
//! capacity so a runaway protocol cannot exhaust memory. Each event is a
//! 17-byte record: the kind byte, then the `u64` time and the `u32`
//! operands `a` and `b`, all big-endian.

use crate::time::SimTime;

/// Kind of a traced event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Message delivered from `a` to `b`.
    Deliver = 0,
    /// Node `a` was deleted (`b` unused).
    Kill = 1,
    /// Link `(a, b)` was added.
    Link = 2,
    /// Message from `a` to dead node `b` was dropped.
    Drop = 3,
    /// Node `a` joined the network (`b` = its attachment count).
    Join = 4,
}

/// One decoded trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: TraceKind,
    /// Timestamp.
    pub time: SimTime,
    /// First operand (sender / victim / endpoint).
    pub a: u32,
    /// Second operand (recipient / endpoint; 0 when unused).
    pub b: u32,
}

const RECORD_BYTES: usize = 1 + 8 + 4 + 4;

/// Fixed-capacity binary ring of simulation events (stops recording when
/// full, counting overflow instead of wrapping, so the *earliest* events —
/// usually the interesting ones when debugging a protocol — survive).
#[derive(Debug)]
pub struct TraceBuffer {
    buf: Vec<u8>,
    capacity_events: usize,
    recorded: usize,
    /// Events that arrived after the buffer filled up.
    pub overflowed: usize,
}

impl TraceBuffer {
    /// A trace that can hold up to `capacity_events` events.
    pub fn new(capacity_events: usize) -> Self {
        TraceBuffer {
            buf: Vec::with_capacity(capacity_events * RECORD_BYTES),
            capacity_events,
            recorded: 0,
            overflowed: 0,
        }
    }

    /// Record an event (silently counted as overflow when full).
    pub fn record(&mut self, kind: TraceKind, time: SimTime, a: u32, b: u32) {
        if self.recorded >= self.capacity_events {
            self.overflowed += 1;
            return;
        }
        self.buf.push(kind as u8);
        self.buf.extend_from_slice(&time.0.to_be_bytes());
        self.buf.extend_from_slice(&a.to_be_bytes());
        self.buf.extend_from_slice(&b.to_be_bytes());
        self.recorded += 1;
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.recorded
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Decode all retained events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf
            .chunks_exact(RECORD_BYTES)
            .map(|r| TraceEvent {
                kind: match r[0] {
                    0 => TraceKind::Deliver,
                    1 => TraceKind::Kill,
                    2 => TraceKind::Link,
                    4 => TraceKind::Join,
                    _ => TraceKind::Drop,
                },
                time: SimTime(u64::from_be_bytes(std::array::from_fn(|i| r[1 + i]))),
                a: u32::from_be_bytes(std::array::from_fn(|i| r[9 + i])),
                b: u32::from_be_bytes(std::array::from_fn(|i| r[13 + i])),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut t = TraceBuffer::new(10);
        t.record(TraceKind::Kill, SimTime(1), 5, 0);
        t.record(TraceKind::Link, SimTime(2), 3, 4);
        t.record(TraceKind::Deliver, SimTime(3), 3, 4);
        t.record(TraceKind::Drop, SimTime(4), 1, 5);
        t.record(TraceKind::Join, SimTime(5), 6, 2);
        let ev = t.events();
        assert_eq!(ev.len(), 5);
        assert_eq!(
            ev[0],
            TraceEvent {
                kind: TraceKind::Kill,
                time: SimTime(1),
                a: 5,
                b: 0
            }
        );
        assert_eq!(ev[1].kind, TraceKind::Link);
        assert_eq!(ev[3].kind, TraceKind::Drop);
        assert_eq!(ev[4].kind, TraceKind::Join);
        assert_eq!(ev[4].b, 2);
    }

    /// The on-buffer layout of one record: kind byte, then `u64` time,
    /// `a` and `b`, all big-endian, 17 bytes in total.
    #[test]
    fn record_layout_is_fixed_width_big_endian() {
        let mut t = TraceBuffer::new(1);
        t.record(
            TraceKind::Link,
            SimTime(0x0102_0304_0506_0708),
            0x0a0b_0c0d,
            0x1a1b_1c1d,
        );
        assert_eq!(
            t.buf,
            [
                2, // TraceKind::Link
                0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // time
                0x0a, 0x0b, 0x0c, 0x0d, // a
                0x1a, 0x1b, 0x1c, 0x1d, // b
            ]
        );
        assert_eq!(t.buf.len(), RECORD_BYTES);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = TraceBuffer::new(2);
        for i in 0..5 {
            t.record(TraceKind::Deliver, SimTime(i), i as u32, 0);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.overflowed, 3);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].time, SimTime(0));
    }

    #[test]
    fn empty_trace() {
        let t = TraceBuffer::new(4);
        assert!(t.is_empty());
        assert!(t.events().is_empty());
    }
}
