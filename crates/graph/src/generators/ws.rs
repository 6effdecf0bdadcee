//! Watts–Strogatz small-world graphs.

use crate::graph::Graph;
use crate::ids::NodeId;
use rand::Rng;

/// Watts–Strogatz small-world graph: a ring lattice where each node is
/// joined to its `k` nearest neighbors (`k` even), then every lattice edge
/// is rewired with probability `beta` to a uniformly random non-duplicate
/// endpoint.
///
/// Builds with [`Graph::add_edge`], not [`Graph::from_edges`]: rewiring
/// asks the graph which edges are present as it goes.
///
/// # Panics
/// Panics if `k` is odd, `k >= n`, or `beta` is not a probability.
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(k.is_multiple_of(2), "k must be even, got {k}");
    assert!(k < n, "k must be < n (k = {k}, n = {n})");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    let mut g = Graph::new(n);
    for i in 0..n {
        for d in 1..=(k / 2) {
            let j = (i + d) % n;
            g.ensure_edge(NodeId::from_index(i), NodeId::from_index(j))
                // panic-ok: ring-lattice endpoints are in range and
                // distinct for `k < n` (ensure_edge tolerates repeats).
                .unwrap();
        }
    }
    if beta == 0.0 {
        return g;
    }
    // Rewire each original lattice edge (i, i+d) with probability beta.
    for i in 0..n {
        for d in 1..=(k / 2) {
            let j = (i + d) % n;
            let (u, v) = (NodeId::from_index(i), NodeId::from_index(j));
            if !g.has_edge(u, v) || !rng.gen_bool(beta) {
                continue;
            }
            // Find a fresh endpoint; give up after a bounded number of
            // tries on very dense graphs.
            for _ in 0..32 {
                let w = NodeId::from_index(rng.gen_range(0..n));
                if w != u && !g.has_edge(u, w) {
                    // panic-ok: `(u, v)` is the lattice edge being
                    // rewired, present until this removal.
                    g.remove_edge(u, v).unwrap();
                    // panic-ok: `w != u` and absence checked above.
                    g.add_edge(u, w).unwrap();
                    break;
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lattice_when_beta_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = watts_strogatz(10, 4, 0.0, &mut rng);
        assert_eq!(g.edge_count(), 10 * 2);
        for v in g.live_nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn edge_count_preserved_by_rewiring() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = watts_strogatz(50, 6, 0.3, &mut rng);
        assert_eq!(g.edge_count(), 50 * 3);
        g.validate().unwrap();
    }

    #[test]
    fn full_rewiring_changes_structure() {
        let mut rng = StdRng::seed_from_u64(2);
        let lattice = watts_strogatz(40, 4, 0.0, &mut StdRng::seed_from_u64(2));
        let rewired = watts_strogatz(40, 4, 1.0, &mut rng);
        let le: Vec<_> = lattice.edges().collect();
        let re: Vec<_> = rewired.edges().collect();
        assert_ne!(le, re);
    }

    #[test]
    #[should_panic]
    fn rejects_odd_k() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = watts_strogatz(10, 3, 0.1, &mut rng);
    }

    #[test]
    #[should_panic]
    fn rejects_k_geq_n() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = watts_strogatz(4, 4, 0.1, &mut rng);
    }
}
