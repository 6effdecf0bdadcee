//! A log-linear latency histogram: fixed size, so recording never
//! allocates and never grows the process's resident set while a timed
//! region runs.
//!
//! Values below 128 ns are kept exactly; above that every power of two
//! is split into 128 equal buckets (under 0.8% relative width).
//! Quantiles interpolate linearly inside the bucket they fall in.

use std::time::Duration;

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// One exact block (values `0..128`) plus one block per octave `2^7..2^64`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Nanosecond latency histogram.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    let block = u64::from(e - SUB_BITS + 1);
    ((block << SUB_BITS) | ((ns >> (e - SUB_BITS)) & (SUB - 1))) as usize
}

/// `(lower bound, width)` of bucket `i`, in ns.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i >> SUB_BITS) - 1;
    let low = (SUB + (i & (SUB - 1))) << shift;
    (low as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Record one sample in ns.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    /// Record one duration.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Add another histogram's samples.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile in ns (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (low, width) = bounds(i);
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return low + frac * width;
            }
            below += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (low, width) = bounds(last);
        low + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for ns in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            9_999_999_999,
        ] {
            let (low, width) = bounds(index(ns));
            assert!(low <= ns as f64 && (ns as f64) < low + width, "{ns}");
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_a_uniform_ramp() {
        let mut h = Hist::default();
        for ns in 1..=10_000u64 {
            h.record_ns(ns);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 5_000.0).abs() < 50.0, "{p50}");
        assert!((p99 - 9_900.0).abs() < 80.0, "{p99}");
    }
}
