//! Reconstruction-tree (RT) machinery shared by the healing strategies.
//!
//! When node `v` is deleted, DASH reconnects the set
//! `UN(v, G) ∪ N(v, G')` (Algorithm 1):
//!
//! - `N(v, G')` — all of `v`'s neighbors in the healing forest; removing
//!   `v` split its `G'` tree into fragments and each fragment contains
//!   exactly one such neighbor, so including all of them re-merges `v`'s
//!   old tree.
//! - `UN(v, G)` — *unique neighbors*: the remaining `G`-neighbors of `v`
//!   are partitioned by their current component ID (nodes with the same
//!   ID are in the same `G'` tree) and each partition contributes its
//!   lowest-initial-ID member. Neighbors that carry `v`'s own component
//!   ID are excluded — their fragment is already represented by a
//!   `N(v, G')` member.
//!
//! Using one representative per component is what keeps the number of new
//! edges (and hence degree increase) low; see Section 3.1 of the paper
//! for why component tracking is necessary.

use crate::state::{DeletionContext, HealingNetwork};
use selfheal_graph::NodeId;

/// Compute `UN(v, G)`: one representative (lowest initial ID) per distinct
/// component ID among `v`'s `G`-neighbors, excluding `v`'s own component.
pub fn unique_neighbors(net: &HealingNetwork, ctx: &DeletionContext) -> Vec<NodeId> {
    let mut tagged = Vec::new();
    let mut reps = Vec::new();
    unique_neighbors_into(net, ctx, &mut tagged, &mut reps);
    reps
}

/// [`unique_neighbors`] on caller-owned buffers (both cleared first):
/// `tagged` is the sort scratch, `out` receives the representatives. The
/// hot heal path reuses both across rounds via
/// [`HealingNetwork::take_heal_scratch`], so steady-state heals allocate
/// nothing here.
pub fn unique_neighbors_into(
    net: &HealingNetwork,
    ctx: &DeletionContext,
    tagged: &mut Vec<(u64, u64, NodeId)>,
    out: &mut Vec<NodeId>,
) {
    // (comp_id, initial_id, node): pick min initial_id per comp_id.
    tagged.clear();
    out.clear();
    tagged.extend(
        ctx.g_neighbors
            .iter()
            .copied()
            .filter(|&u| net.comp_id(u) != ctx.deleted_comp_id)
            .map(|u| (net.comp_id(u), net.initial_id(u), u)),
    );
    tagged.sort_unstable();
    let mut last_comp: Option<u64> = None;
    for &(comp, _, node) in tagged.iter() {
        if last_comp != Some(comp) {
            out.push(node);
            last_comp = Some(comp);
        }
    }
}

/// The full reconstruction set `UN(v, G) ∪ N(v, G')`, sorted by node id.
///
/// The two sets are disjoint by construction (`N(v, G')` members carry
/// `v`'s component ID, which `UN` excludes).
pub fn reconstruction_set(net: &HealingNetwork, ctx: &DeletionContext) -> Vec<NodeId> {
    let mut tagged = Vec::new();
    let mut members = Vec::new();
    reconstruction_set_into(net, ctx, &mut tagged, &mut members);
    members
}

/// [`reconstruction_set`] on caller-owned buffers (cleared first);
/// `tagged` is the unique-neighbor sort scratch, `out` receives the
/// sorted member set.
pub fn reconstruction_set_into(
    net: &HealingNetwork,
    ctx: &DeletionContext,
    tagged: &mut Vec<(u64, u64, NodeId)>,
    out: &mut Vec<NodeId>,
) {
    unique_neighbors_into(net, ctx, tagged, out);
    out.extend_from_slice(&ctx.gprime_neighbors);
    out.sort_unstable();
    out.dedup();
}

/// Order RT members for the complete binary tree: increasing `δ`, ties by
/// initial ID. Algorithm 1 maps this order "left to right, top down", so
/// the lowest-δ node becomes the root and the highest-δ nodes become
/// leaves (which gain at most one edge).
pub fn order_by_delta(net: &HealingNetwork, members: &[NodeId]) -> Vec<NodeId> {
    let mut keys = Vec::new();
    let mut ordered = Vec::new();
    delta_keys_into(net, members, &mut keys);
    order_keys_into(&mut keys, &mut ordered);
    ordered
}

/// The `(δ, initial_id, node)` sort key of each member, computed once per
/// member, into a caller-owned buffer (cleared first).
pub fn delta_keys_into(
    net: &HealingNetwork,
    members: &[NodeId],
    keys: &mut Vec<(i64, u64, NodeId)>,
) {
    keys.clear();
    keys.extend(
        members
            .iter()
            .map(|&v| (net.delta(v), net.initial_id(v), v)),
    );
}

/// [`order_by_delta`] on caller-owned buffers: sort the
/// [`delta_keys_into`] keys and write their nodes, in that order, into
/// `out` (cleared first). The `(δ, initial_id)` prefixes are distinct
/// (initial IDs are unique), so the unstable sort is deterministic.
pub fn order_keys_into(keys: &mut [(i64, u64, NodeId)], out: &mut Vec<NodeId>) {
    keys.sort_unstable();
    out.clear();
    out.extend(keys.iter().map(|&(_, _, v)| v));
}

/// Wire `ordered` into a complete binary tree, adding each edge to both
/// `G` and `G'`. Returns the edges added to `G'`.
pub fn connect_binary_tree(net: &mut HealingNetwork, ordered: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut added = Vec::with_capacity(ordered.len().saturating_sub(1));
    connect_binary_tree_into(net, ordered, &mut added);
    added
}

/// [`connect_binary_tree`] appending the `G'`-new edges to a caller-owned
/// buffer (NOT cleared — SDASH's fallback arm appends after its star
/// attempt). The parent of position `i` in the complete binary tree is
/// `(i - 1) / 2`, matching
/// [`selfheal_graph::forest::complete_binary_tree_edges`] edge for edge
/// without materializing the edge list.
pub fn connect_binary_tree_into(
    net: &mut HealingNetwork,
    ordered: &[NodeId],
    added: &mut Vec<(NodeId, NodeId)>,
) {
    for i in 1..ordered.len() {
        let (a, b) = (ordered[(i - 1) / 2], ordered[i]);
        // panic-ok: `ordered` holds reconstruction-set members, all of
        // which survived the deletion that triggered this heal.
        let (_, new_gp) = net.add_heal_edge(a, b).expect("RT endpoints must be alive");
        if new_gp {
            added.push((a, b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_graph::generators::star_graph;
    use selfheal_graph::Graph;

    /// A star with hub 0 and 6 spokes; delete the hub.
    fn star_deletion() -> (HealingNetwork, DeletionContext) {
        let mut net = HealingNetwork::new(star_graph(7), 7);
        let ctx = net.delete_node(NodeId(0)).unwrap();
        (net, ctx)
    }

    #[test]
    fn all_singleton_components_are_unique_neighbors() {
        let (net, ctx) = star_deletion();
        // No healing edges yet: every spoke is its own component.
        let un = unique_neighbors(&net, &ctx);
        assert_eq!(un.len(), 6);
        let rt = reconstruction_set(&net, &ctx);
        assert_eq!(rt.len(), 6);
    }

    #[test]
    fn same_component_collapses_to_lowest_initial_id() {
        let mut net = HealingNetwork::new(star_graph(5), 3);
        // Join spokes 1 and 2 in G' and give them a common component id.
        net.add_heal_edge(NodeId(1), NodeId(2)).unwrap();
        net.propagate_min_id(&[NodeId(1), NodeId(2)]);
        let ctx = net.delete_node(NodeId(0)).unwrap();
        let un = unique_neighbors(&net, &ctx);
        assert_eq!(un.len(), 3, "spokes 1,2 should share one representative");
        let rep = if net.initial_id(NodeId(1)) < net.initial_id(NodeId(2)) {
            NodeId(1)
        } else {
            NodeId(2)
        };
        assert!(un.contains(&rep));
        assert!(un.contains(&NodeId(3)));
        assert!(un.contains(&NodeId(4)));
    }

    #[test]
    fn gprime_neighbors_excluded_from_un_but_in_rt() {
        let mut net = HealingNetwork::new(star_graph(5), 9);
        net.add_heal_edge(NodeId(0), NodeId(1)).unwrap();
        net.propagate_min_id(&[NodeId(0), NodeId(1)]);
        let ctx = net.delete_node(NodeId(0)).unwrap();
        assert_eq!(ctx.gprime_neighbors, vec![NodeId(1)]);
        let un = unique_neighbors(&net, &ctx);
        assert!(
            !un.contains(&NodeId(1)),
            "node 1 shares the deleted node's comp id"
        );
        let rt = reconstruction_set(&net, &ctx);
        assert!(rt.contains(&NodeId(1)));
        assert_eq!(rt.len(), 4);
    }

    #[test]
    fn order_by_delta_puts_high_delta_last() {
        let mut net = HealingNetwork::new(star_graph(6), 11);
        // Bump δ of node 3 by healing two extra edges onto it.
        net.add_heal_edge(NodeId(3), NodeId(4)).unwrap();
        net.add_heal_edge(NodeId(3), NodeId(5)).unwrap();
        let members = vec![NodeId(1), NodeId(2), NodeId(3)];
        let ordered = order_by_delta(&net, &members);
        assert_eq!(*ordered.last().unwrap(), NodeId(3));
        // δ ties between 1 and 2 are broken by initial id.
        let first_two: Vec<u64> = ordered[..2].iter().map(|&v| net.initial_id(v)).collect();
        assert!(first_two[0] < first_two[1]);
    }

    #[test]
    fn connect_binary_tree_builds_tree_in_gprime() {
        let mut net = HealingNetwork::new(Graph::new(7), 1);
        let nodes: Vec<NodeId> = (0..7).map(NodeId).collect();
        let added = connect_binary_tree(&mut net, &nodes);
        assert_eq!(added.len(), 6);
        assert!(selfheal_graph::forest::is_tree(net.healing_graph()));
        // Max degree 3 in a complete binary tree.
        assert!(nodes.iter().all(|&v| net.healing_graph().degree(v) <= 3));
        // G mirrors G'.
        assert_eq!(net.graph().edge_count(), 6);
    }

    #[test]
    fn connect_binary_tree_trivial_sizes() {
        let mut net = HealingNetwork::new(Graph::new(2), 1);
        assert!(connect_binary_tree(&mut net, &[]).is_empty());
        assert!(connect_binary_tree(&mut net, &[NodeId(0)]).is_empty());
        let added = connect_binary_tree(&mut net, &[NodeId(0), NodeId(1)]);
        assert_eq!(added, vec![(NodeId(0), NodeId(1))]);
    }
}
