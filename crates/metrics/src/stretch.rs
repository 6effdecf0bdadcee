//! Stretch — the Fig. 10 metric.
//!
//! The stretch of a healed network relative to the original is the
//! maximum, over all pairs of *surviving* nodes, of
//! `dist_healed(u, v) / dist_original(u, v)` (Section 4.6.1 of the
//! paper). Healing edges only ever connect former neighbors of deleted
//! nodes, so paths can lengthen; surrogation (SDASH) exists precisely to
//! fight this.
//!
//! Computing stretch needs all-pairs distances in both graphs. The
//! original graph's APSP is computed once (in parallel) at baseline
//! construction; each evaluation then runs one BFS per surviving node
//! over the healed snapshot, distributed over threads.

use selfheal_graph::parallel::{parallel_apsp, parallel_map_reduce};
use selfheal_graph::{Csr, Graph, NodeId, UNREACHABLE};

/// The frozen original network plus its all-pairs distances.
pub struct StretchBaseline {
    csr: Csr,
    dist: Vec<Vec<u32>>,
}

/// Result of a stretch evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StretchResult {
    /// Maximum distance ratio over surviving pairs.
    pub stretch: f64,
    /// A witness pair realizing the maximum.
    pub witness: (NodeId, NodeId),
}

impl StretchBaseline {
    /// Snapshot `original` (which must be connected) and precompute its
    /// APSP with `threads` workers.
    pub fn new(original: &Graph, threads: usize) -> Self {
        let csr = Csr::from_graph(original);
        let dist = parallel_apsp(&csr, threads);
        StretchBaseline { csr, dist }
    }

    /// Evaluate the stretch of `healed` (a later state of the same node
    /// universe) using `threads` workers.
    ///
    /// Nodes absent from the baseline (joined after the snapshot, under
    /// churn) have no original distance and are skipped — stretch is the
    /// paper's metric over surviving *original* pairs.
    ///
    /// Returns `None` when some surviving original pair is disconnected
    /// in the healed graph (stretch is undefined/infinite — happens only
    /// for non-healing strategies) or when fewer than two nodes survive.
    pub fn stretch_of(&self, healed: &Graph, threads: usize) -> Option<StretchResult> {
        let hcsr = Csr::from_graph(healed);
        let n = hcsr.len();
        if n < 2 {
            return None;
        }
        // (max ratio, witness healed-dense pair, disconnected?) per source.
        let folded = parallel_map_reduce(
            n,
            threads,
            (0.0f64, (0usize, 0usize), false),
            |src| {
                let orig_src = hcsr.original_id(src);
                let Some(bsrc) = self.csr.dense_index(orig_src) else {
                    return (0.0, (src, src), false); // joined after baseline
                };
                let hdist = hcsr.bfs(src);
                let bdist = &self.dist[bsrc];
                let mut best = 0.0f64;
                let mut witness = (src, src);
                for (j, &dh) in hdist.iter().enumerate() {
                    if j == src {
                        continue;
                    }
                    let orig_j = hcsr.original_id(j);
                    let Some(bj) = self.csr.dense_index(orig_j) else {
                        continue; // joined after baseline
                    };
                    if dh == UNREACHABLE {
                        return (f64::INFINITY, (src, j), true);
                    }
                    let d0 = bdist[bj];
                    debug_assert!(d0 != UNREACHABLE && d0 > 0);
                    let ratio = dh as f64 / d0 as f64;
                    if ratio > best {
                        best = ratio;
                        witness = (src, j);
                    }
                }
                (best, witness, false)
            },
            |a, b| {
                if b.2 || b.0 > a.0 {
                    if a.2 {
                        a
                    } else {
                        b
                    }
                } else {
                    a
                }
            },
        );
        if folded.2 {
            return None;
        }
        Some(StretchResult {
            stretch: folded.0,
            witness: (hcsr.original_id(folded.1 .0), hcsr.original_id(folded.1 .1)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_graph::generators::{cycle_graph, path_graph, star_graph};

    #[test]
    fn identical_graph_has_stretch_one() {
        let g = path_graph(6);
        let base = StretchBaseline::new(&g, 2);
        let r = base.stretch_of(&g, 2).unwrap();
        assert!((r.stretch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn removing_a_chord_stretches() {
        // Cycle of 6: distance 0-3 is 3. Remove edge (0,5): now 0-5 costs 5
        // instead of 1 => stretch 5.
        let g = cycle_graph(6);
        let base = StretchBaseline::new(&g, 2);
        let mut healed = g.clone();
        healed.remove_edge(NodeId(0), NodeId(5)).unwrap();
        let r = base.stretch_of(&healed, 2).unwrap();
        assert!((r.stretch - 5.0).abs() < 1e-12);
        let w = (r.witness.0.min(r.witness.1), r.witness.0.max(r.witness.1));
        assert_eq!(w, (NodeId(0), NodeId(5)));
    }

    #[test]
    fn deleted_nodes_are_ignored() {
        // Star: delete a spoke; remaining pairs keep their distances.
        let g = star_graph(5);
        let base = StretchBaseline::new(&g, 1);
        let mut healed = g.clone();
        healed.remove_node(NodeId(4)).unwrap();
        let r = base.stretch_of(&healed, 1).unwrap();
        assert!((r.stretch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_healed_graph_is_none() {
        let g = path_graph(4);
        let base = StretchBaseline::new(&g, 1);
        let mut healed = g.clone();
        healed.remove_edge(NodeId(1), NodeId(2)).unwrap();
        assert!(base.stretch_of(&healed, 2).is_none());
    }

    #[test]
    fn tiny_graphs_are_none() {
        let g = path_graph(2);
        let base = StretchBaseline::new(&g, 1);
        let mut healed = g.clone();
        healed.remove_node(NodeId(0)).unwrap();
        assert!(base.stretch_of(&healed, 1).is_none());
    }

    #[test]
    fn joined_nodes_are_skipped() {
        // A node added after the baseline snapshot has no original
        // distances; pairs involving it are excluded from the metric.
        let g = path_graph(4);
        let base = StretchBaseline::new(&g, 1);
        let mut healed = g.clone();
        let joiner = healed.add_node();
        healed.add_edge(joiner, NodeId(0)).unwrap();
        let r = base.stretch_of(&healed, 1).unwrap();
        assert!((r.stretch - 1.0).abs() < 1e-12);
        assert_ne!(r.witness.0, joiner);
        assert_ne!(r.witness.1, joiner);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let g = cycle_graph(32);
        let base = StretchBaseline::new(&g, 4);
        let mut healed = g.clone();
        healed.remove_edge(NodeId(0), NodeId(31)).unwrap();
        let s1 = base.stretch_of(&healed, 1).unwrap().stretch;
        let s4 = base.stretch_of(&healed, 4).unwrap().stretch;
        assert_eq!(s1, s4);
    }
}
