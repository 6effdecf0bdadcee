//! Barabási–Albert preferential attachment (the paper's experiment
//! workload, refs [3, 4] in the paper).
//!
//! The generator keeps one `endpoints` list, two entries per edge in the
//! order the edges arrive: sampling it uniformly samples nodes by
//! degree, and read as consecutive pairs it is the edge list. So no
//! graph exists while edges are drawn; [`Graph::from_edges`] builds it
//! once at the end, carving each neighbor list at its final size in an
//! arena with power-of-two spare room (see `crate::pool`), and sorts
//! only the lists that need it (a node's own picks come first,
//! unsorted; later ids arrive in increasing order).

use super::from_generated;
use crate::graph::Graph;
use crate::ids::NodeId;
use rand::Rng;

/// Generate a Barabási–Albert preferential-attachment graph over `n`
/// nodes where every arriving node attaches to `m` distinct existing
/// nodes with probability proportional to their current degree.
///
/// The seed graph is a complete graph over the first `m + 1` nodes, so the
/// result is always connected and every node has degree ≥ `m`.
///
/// # Panics
/// Panics if `m == 0` or `n < m + 1`.
///
/// # Examples
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let g = selfheal_graph::generators::barabasi_albert(100, 3, &mut rng);
/// assert_eq!(g.live_node_count(), 100);
/// assert!(selfheal_graph::components::is_connected(&g));
/// ```
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1, "attachment count m must be >= 1");
    assert!(n > m, "need at least m + 1 = {} nodes, got {n}", m + 1);
    // `endpoints` holds one entry per edge endpoint; sampling an index
    // uniformly therefore samples nodes proportional to degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * m * n);
    for i in 0..=m {
        for j in 0..i {
            endpoints.push(NodeId::from_index(i));
            endpoints.push(NodeId::from_index(j));
        }
    }
    let mut picked: Vec<NodeId> = Vec::with_capacity(m);
    for i in (m + 1)..n {
        let v = NodeId::from_index(i);
        picked.clear();
        while picked.len() < m {
            let candidate = endpoints[rng.gen_range(0..endpoints.len())];
            if !picked.contains(&candidate) {
                picked.push(candidate);
            }
        }
        // `picked` holds distinct earlier nodes and `v` is the fresh
        // node, so every edge is valid and new.
        for &u in &picked {
            endpoints.push(v);
            endpoints.push(u);
        }
    }
    from_generated(n, endpoints.as_chunks().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::is_connected;
    use crate::properties::degree_stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn correct_node_and_edge_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let (n, m) = (200, 3);
        let g = barabasi_albert(n, m, &mut rng);
        assert_eq!(g.live_node_count(), n);
        // seed clique edges + m per arriving node
        let expected = m * (m + 1) / 2 + (n - m - 1) * m;
        assert_eq!(g.edge_count(), expected);
    }

    #[test]
    fn always_connected_and_min_degree_m() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = barabasi_albert(150, 2, &mut rng);
            assert!(is_connected(&g), "seed {seed}");
            assert!(degree_stats(&g).unwrap().min >= 2, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g1 = barabasi_albert(80, 3, &mut StdRng::seed_from_u64(42));
        let g2 = barabasi_albert(80, 3, &mut StdRng::seed_from_u64(42));
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn heavy_tail_hubs_exist() {
        // A BA graph should have a hub with degree far above the mean.
        let mut rng = StdRng::seed_from_u64(3);
        let g = barabasi_albert(1000, 3, &mut rng);
        let stats = degree_stats(&g).unwrap();
        assert!(
            stats.max as f64 > 4.0 * stats.mean,
            "max {} mean {}",
            stats.max,
            stats.mean
        );
    }

    #[test]
    fn minimal_size_is_clique() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = barabasi_albert(4, 3, &mut rng);
        assert_eq!(g.edge_count(), 6); // K4
    }

    #[test]
    #[should_panic]
    fn rejects_too_small_n() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = barabasi_albert(3, 3, &mut rng);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_m() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = barabasi_albert(10, 0, &mut rng);
    }
}
