//! Power-law graphs via the configuration model.
//!
//! Complements the Barabási–Albert generator with direct control over the
//! degree exponent: degrees are drawn from `P(d) ∝ d^(-gamma)` on
//! `d ∈ [d_min, d_max]`, stubs are shuffled and paired, and self-loops /
//! duplicate edges are dropped (so realized degrees can be slightly lower
//! than drawn ones — the standard erased configuration model).

use crate::graph::Graph;
use crate::ids::NodeId;
use rand::Rng;

/// Sample one degree from a truncated discrete power law by inverse
/// transform over the normalized mass function.
fn sample_degree<R: Rng + ?Sized>(weights: &[f64], d_min: usize, rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return d_min + i;
        }
        x -= w;
    }
    d_min + weights.len() - 1
}

/// Erased configuration model with power-law degrees.
///
/// Builds with [`Graph::add_edge`], not [`Graph::from_edges`]: erasing a
/// repeated stub pair asks the graph whether the edge is already there.
///
/// # Panics
/// Panics if `d_min == 0`, `d_min > d_max`, or `d_max >= n`.
pub fn powerlaw_configuration<R: Rng + ?Sized>(
    n: usize,
    gamma: f64,
    d_min: usize,
    d_max: usize,
    rng: &mut R,
) -> Graph {
    assert!(d_min >= 1, "d_min must be >= 1");
    assert!(d_min <= d_max, "d_min must be <= d_max");
    assert!(d_max < n, "d_max must be < n");
    let weights: Vec<f64> = (d_min..=d_max).map(|d| (d as f64).powf(-gamma)).collect();
    let mut degrees: Vec<usize> = (0..n)
        .map(|_| sample_degree(&weights, d_min, rng))
        .collect();
    // The stub count must be even; bump an arbitrary node if not.
    if degrees.iter().sum::<usize>() % 2 == 1 {
        degrees[0] += 1;
    }
    let mut stubs: Vec<NodeId> = Vec::with_capacity(degrees.iter().sum());
    for (i, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(NodeId::from_index(i), d));
    }
    // Fisher-Yates shuffle, then pair consecutive stubs.
    for i in (1..stubs.len()).rev() {
        stubs.swap(i, rng.gen_range(0..=i));
    }
    let mut g = Graph::new(n);
    for pair in stubs.chunks_exact(2) {
        let (u, v) = (pair[0], pair[1]);
        if u != v {
            let _ = g.ensure_edge(u, v);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::{degree_histogram, degree_stats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn degrees_within_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = powerlaw_configuration(500, 2.5, 1, 30, &mut rng);
        let stats = degree_stats(&g).unwrap();
        // Erasure can only lower degrees below the drawn values.
        assert!(stats.max <= 31, "max degree {}", stats.max);
        assert!(g.edge_count() > 0);
        g.validate().unwrap();
    }

    #[test]
    fn heavier_gamma_means_lighter_tail() {
        let g_heavy = powerlaw_configuration(2000, 2.0, 1, 100, &mut StdRng::seed_from_u64(1));
        let g_light = powerlaw_configuration(2000, 3.5, 1, 100, &mut StdRng::seed_from_u64(1));
        let mh = degree_stats(&g_heavy).unwrap().mean;
        let ml = degree_stats(&g_light).unwrap().mean;
        assert!(
            mh > ml,
            "gamma=2.0 mean {mh} should exceed gamma=3.5 mean {ml}"
        );
    }

    #[test]
    fn low_degrees_dominate() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = powerlaw_configuration(1000, 2.5, 1, 50, &mut rng);
        let hist = degree_histogram(&g);
        let deg1 = hist.get(1).copied().unwrap_or(0);
        let deg5 = hist.get(5).copied().unwrap_or(0);
        assert!(deg1 > deg5, "P(1) = {deg1} should exceed P(5) = {deg5}");
    }

    #[test]
    #[should_panic]
    fn rejects_zero_min_degree() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = powerlaw_configuration(10, 2.5, 0, 3, &mut rng);
    }
}
