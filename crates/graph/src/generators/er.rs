//! Erdős–Rényi random graphs, G(n, p) and G(n, m) flavors.

use super::from_generated;
use crate::graph::Graph;
use crate::ids::NodeId;
use rand::Rng;

/// G(n, p): each of the `n (n-1) / 2` possible edges is present
/// independently with probability `p`.
///
/// # Panics
/// Panics if `p` is not within `[0, 1]`.
pub fn erdos_renyi_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    if p == 0.0 {
        return Graph::new(n);
    }
    // `j > i` keeps endpoints distinct and visits each pair once.
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if p >= 1.0 || rng.gen_bool(p) {
                edges.push([NodeId::from_index(i), NodeId::from_index(j)]);
            }
        }
    }
    from_generated(n, &edges)
}

/// G(n, m): exactly `m` distinct edges chosen uniformly at random.
///
/// Builds with [`Graph::add_edge`], not [`Graph::from_edges`]: rejection
/// sampling asks the graph whether each drawn edge is already present.
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges `n (n-1) / 2`.
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    let possible = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= possible,
        "m = {m} exceeds the {possible} possible edges"
    );
    let mut g = Graph::new(n);
    // Rejection sampling is fine for the sparse graphs used here; switch
    // to dense enumeration when more than half the edges are requested.
    if m * 2 > possible {
        let mut all: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        // Partial Fisher-Yates: shuffle the first m slots.
        for k in 0..m {
            let pick = rng.gen_range(k..all.len());
            all.swap(k, pick);
            let (i, j) = all[k];
            g.add_edge(NodeId::from_index(i), NodeId::from_index(j))
                // panic-ok: partial Fisher–Yates draws each distinct
                // pair at most once from the full pair universe.
                .unwrap();
        }
        return g;
    }
    let mut added = 0;
    while added < m {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i == j {
            continue;
        }
        if g.ensure_edge(NodeId::from_index(i), NodeId::from_index(j))
            // panic-ok: `i != j` checked above and both are below `n`.
            .unwrap()
        {
            added += 1;
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
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(0);
        let empty = erdos_renyi_gnp(10, 0.0, &mut rng);
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi_gnp(10, 1.0, &mut rng);
        assert_eq!(full.edge_count(), 45);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100;
        let p = 0.1;
        let g = erdos_renyi_gnp(n, p, &mut rng);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < 0.3 * expected,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn gnm_exact_edge_count_sparse_and_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let sparse = erdos_renyi_gnm(50, 30, &mut rng);
        assert_eq!(sparse.edge_count(), 30);
        let dense = erdos_renyi_gnm(20, 180, &mut rng); // 190 possible
        assert_eq!(dense.edge_count(), 180);
        dense.validate().unwrap();
    }

    #[test]
    fn gnm_zero_and_full() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(erdos_renyi_gnm(10, 0, &mut rng).edge_count(), 0);
        assert_eq!(erdos_renyi_gnm(6, 15, &mut rng).edge_count(), 15);
    }

    #[test]
    #[should_panic]
    fn gnm_rejects_impossible_m() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = erdos_renyi_gnm(4, 7, &mut rng);
    }

    #[test]
    #[should_panic]
    fn gnp_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = erdos_renyi_gnp(4, 1.5, &mut rng);
    }
}
