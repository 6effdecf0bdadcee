//! Robust end-to-end statistics on a shared host: the timed region is
//! cut into slices of equal measured time, each slice yields its own
//! rates and latency percentiles, and a run reports the median over its
//! slices. A burst of interference that spoils a minority of slices
//! then moves no reported number. With a [`Reference`], each slice is
//! also scaled to the reference host speed read just before and just
//! after it.

use crate::calib::Reference;
use crate::hist::Hist;
use crate::median;
use selfheal_bench::alloc::thread_allocations;
use std::time::{Duration, Instant};

/// Rates and latency percentiles of one closed slice, or their medians
/// over a region's slices.
#[derive(Clone, Copy, Debug, Default)]
pub struct Figures {
    /// Events applied per measured second.
    pub events_per_s: f64,
    /// Nodes deleted per measured second.
    pub victims_per_s: f64,
    /// Tick latency median, µs.
    pub tick_p50_us: f64,
    /// Tick latency 99th percentile, µs.
    pub tick_p99_us: f64,
    /// Visibility delay median, µs.
    pub visible_p50_us: f64,
    /// Visibility delay 99th percentile, µs.
    pub visible_p99_us: f64,
}

impl Figures {
    /// Rates multiplied and visibility delays divided by `r`, tick
    /// latencies divided by `k`.
    fn scaled(self, k: f64, r: f64) -> Figures {
        Figures {
            events_per_s: self.events_per_s * r,
            victims_per_s: self.victims_per_s * r,
            tick_p50_us: self.tick_p50_us / k,
            tick_p99_us: self.tick_p99_us / k,
            visible_p50_us: self.visible_p50_us / r,
            visible_p99_us: self.visible_p99_us / r,
        }
    }

    /// Each figure's median over `all`.
    fn median(all: &[Figures]) -> Figures {
        let med = |f: fn(&Figures) -> f64| median(all.iter().map(f).collect());
        Figures {
            events_per_s: med(|s| s.events_per_s),
            victims_per_s: med(|s| s.victims_per_s),
            tick_p50_us: med(|s| s.tick_p50_us),
            tick_p99_us: med(|s| s.tick_p99_us),
            visible_p50_us: med(|s| s.visible_p50_us),
            visible_p99_us: med(|s| s.visible_p99_us),
        }
    }
}

/// A timed region cut into slices of `len` measured time.
#[derive(Clone, Debug)]
pub struct Slices {
    len: Duration,
    wall: Duration,
    events: u64,
    victims: u64,
    tick: Hist,
    visible: Hist,
    /// Closed slices as measured, and scaled to reference host speed.
    raw: Vec<Figures>,
    scaled: Vec<Figures>,
    /// Latency samples over the whole region (for sample counts).
    samples: u64,
    reference: Option<Reference>,
    /// Scale rates and visibility delays too, not only tick latencies:
    /// in an open loop the schedule sets the rates and most of the
    /// visibility delay, not the host.
    closed_loop: bool,
    slowdowns: Vec<f64>,
    /// The last reference reading, taken before the current slice.
    before: f64,
    /// Time and allocations spent calibrating, for callers whose own
    /// clocks and counters ran across it.
    calibration: (Duration, u64),
}

/// Medians over a region's slices.
#[derive(Clone, Copy, Debug, Default)]
pub struct SliceMedians {
    /// Slices the medians are taken over.
    pub slices: u64,
    /// Latency samples in the region.
    pub samples: u64,
    /// Figures scaled to reference host speed (as measured when
    /// uncalibrated).
    pub scaled: Figures,
    /// Figures as measured on the wall clock.
    pub raw: Figures,
    /// Median host slowdown the slices were scaled by (1 when
    /// uncalibrated).
    pub slowdown: f64,
}

impl Slices {
    /// Slices of `len` measured time each, scaled to reference host
    /// speed when `reference` is given: tick latencies always, rates and
    /// visibility delays in a `closed_loop`.
    pub fn new(len: Duration, reference: Option<Reference>, closed_loop: bool) -> Self {
        let before = reference.as_ref().map_or(1.0, Reference::slowdown);
        Slices {
            len,
            wall: Duration::ZERO,
            events: 0,
            victims: 0,
            tick: Hist::default(),
            visible: Hist::default(),
            raw: Vec::new(),
            scaled: Vec::new(),
            samples: 0,
            reference,
            closed_loop,
            slowdowns: Vec::new(),
            before,
            calibration: (Duration::ZERO, 0),
        }
    }

    /// One latency sample: a tick (or step) and the visibility delay of
    /// the events it applied.
    #[inline]
    pub fn latency(&mut self, tick: Duration, visible: Duration) {
        self.tick.record(tick);
        self.visible.record(visible);
        self.samples += 1;
    }

    /// Add measured time and the work done in it; closes the slice once
    /// it holds `len` of measured time. Returns whether it closed: the
    /// calibration that follows a slice is not measured time, so the
    /// caller restarts its clock.
    #[inline]
    pub fn work(&mut self, wall: Duration, events: u64, victims: u64) -> bool {
        self.wall += wall;
        self.events += events;
        self.victims += victims;
        let full = self.wall >= self.len;
        if full {
            self.close();
        }
        full
    }

    /// Close the current slice now (a no-op when it is empty).
    pub fn close(&mut self) {
        let secs = self.wall.as_secs_f64();
        if self.tick.count() > 0 && secs > 0.0 {
            let (t, a) = (Instant::now(), thread_allocations());
            // The host's speed during the slice: the mean of the
            // readings taken just before and just after it.
            let after = self.reference.as_ref().map_or(1.0, Reference::slowdown);
            let k = (self.before + after) / 2.0;
            self.before = after;
            self.calibration.0 += t.elapsed();
            self.calibration.1 += thread_allocations() - a;
            let r = if self.closed_loop { k } else { 1.0 };
            self.slowdowns.push(k);
            let raw = Figures {
                events_per_s: self.events as f64 / secs,
                victims_per_s: self.victims as f64 / secs,
                tick_p50_us: self.tick.quantile(0.5) / 1e3,
                tick_p99_us: self.tick.quantile(0.99) / 1e3,
                visible_p50_us: self.visible.quantile(0.5) / 1e3,
                visible_p99_us: self.visible.quantile(0.99) / 1e3,
            };
            self.raw.push(raw);
            self.scaled.push(raw.scaled(k, r));
        }
        self.wall = Duration::ZERO;
        self.events = 0;
        self.victims = 0;
        self.tick = Hist::default();
        self.visible = Hist::default();
    }

    /// Time and allocations spent calibrating so far.
    pub fn calibration(&self) -> (Duration, u64) {
        self.calibration
    }

    /// Medians over the closed slices. A trailing partial slice counts
    /// only when no slice closed at all (very short runs).
    pub fn medians(&mut self) -> SliceMedians {
        if self.raw.is_empty() {
            self.close();
        }
        SliceMedians {
            slices: self.raw.len() as u64,
            samples: self.samples,
            scaled: Figures::median(&self.scaled),
            raw: Figures::median(&self.raw),
            slowdown: median(self.slowdowns.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_spoiled_slice_moves_no_median() {
        let mut s = Slices::new(Duration::from_millis(10), None, false);
        for slice in 0..5 {
            let step = if slice == 2 { 100 } else { 1 };
            for _ in 0..10 {
                s.latency(Duration::from_micros(step), Duration::from_micros(step));
                s.work(Duration::from_millis(1), 100, 10);
            }
        }
        let m = s.medians();
        assert_eq!(m.slices, 5);
        assert!((m.scaled.events_per_s - 100_000.0).abs() < 1.0);
        assert!((m.scaled.tick_p99_us - 1.0).abs() < 0.01);
    }
}
