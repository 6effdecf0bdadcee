//! Random tree generators used by tests and the Lemma 10 experiments.

use super::from_generated;
use crate::graph::Graph;
use crate::ids::NodeId;
use rand::Rng;

/// Random recursive tree: node `i` attaches to a uniformly random earlier
/// node. Always a tree over `n` nodes.
pub fn random_recursive_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    // `parent < i < n`, each node attached once.
    let edges: Vec<[NodeId; 2]> = (1..n)
        .map(|i| {
            let parent = rng.gen_range(0..i);
            [NodeId::from_index(parent), NodeId::from_index(i)]
        })
        .collect();
    from_generated(n, &edges)
}

/// Preferential-attachment tree (Barabási–Albert with `m = 1`): node `i`
/// attaches to an earlier node chosen proportional to degree. As in
/// [`barabasi_albert`](super::barabasi_albert), the sampled `endpoints`
/// list, read as pairs, is the edge list.
pub fn preferential_attachment_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    if n <= 1 {
        return Graph::new(n);
    }
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n);
    endpoints.push(NodeId(0));
    endpoints.push(NodeId(1));
    // `v` is fresh, so its edge to any earlier node is new.
    for i in 2..n {
        let v = NodeId::from_index(i);
        let u = endpoints[rng.gen_range(0..endpoints.len())];
        endpoints.push(v);
        endpoints.push(u);
    }
    from_generated(n, endpoints.as_chunks().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::is_tree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recursive_tree_is_tree() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_recursive_tree(100, &mut rng);
            assert!(is_tree(&g), "seed {seed}");
        }
    }

    #[test]
    fn pa_tree_is_tree() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = preferential_attachment_tree(100, &mut rng);
            assert!(is_tree(&g), "seed {seed}");
        }
    }

    #[test]
    fn degenerate_sizes() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(random_recursive_tree(0, &mut rng).live_node_count(), 0);
        assert_eq!(random_recursive_tree(1, &mut rng).edge_count(), 0);
        assert_eq!(preferential_attachment_tree(1, &mut rng).edge_count(), 0);
        assert_eq!(preferential_attachment_tree(2, &mut rng).edge_count(), 1);
    }

    #[test]
    fn pa_tree_has_bigger_hubs_than_recursive() {
        // Statistical smoke test: preferential attachment should produce a
        // larger maximum degree on average.
        let mut pa_max = 0usize;
        let mut rr_max = 0usize;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            pa_max += crate::properties::degree_stats(&preferential_attachment_tree(500, &mut rng))
                .unwrap()
                .max;
            let mut rng = StdRng::seed_from_u64(seed);
            rr_max += crate::properties::degree_stats(&random_recursive_tree(500, &mut rng))
                .unwrap()
                .max;
        }
        assert!(pa_max > rr_max, "pa {pa_max} vs rr {rr_max}");
    }
}
