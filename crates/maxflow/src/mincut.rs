//! Minimum-cut extraction from a maximal flow.
//!
//! By max-flow/min-cut duality, the vertices reachable from the source in
//! the residual graph of a maximum flow define a minimum `s–t` cut whose
//! capacity equals the flow value. Checking this is far cheaper than
//! finding the flow: one BFS, `O(n²)` on a complete graph (paper §2). The
//! PPUF benches use the cut to explain *why* the chip current saturates
//! where it does (on the complete graph the cut almost always isolates the
//! source or the sink — which is what makes the average output current
//! scale linearly, Fig 8).

use std::collections::VecDeque;

use crate::error::MaxFlowError;
use crate::flow::Flow;
use crate::graph::{EdgeId, FlowNetwork, NodeId};

/// A directed `s–t` cut: a bipartition and the forward edges crossing it.
#[derive(Debug, Clone, PartialEq)]
pub struct MinCut {
    /// Vertices on the source side (residual-reachable from the source).
    pub source_side: Vec<NodeId>,
    /// Edges from the source side to the sink side.
    pub cut_edges: Vec<EdgeId>,
    /// Total capacity of `cut_edges`.
    pub capacity: f64,
    sink: NodeId,
}

impl MinCut {
    /// Extracts the minimum cut induced by a **maximum** flow.
    ///
    /// The source side is every vertex reachable from the flow's source
    /// along residual arcs: `u → v` for an edge with `c − f > tol`, and
    /// `v → u` for an edge `u → v` with `f > tol`. If `flow` is not maximal
    /// the sink lies on the source side, the partition is not an `s–t`
    /// cut, and [`certifies`](Self::certifies) returns `false`.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::FlowShapeMismatch`] if `flow` does not match
    /// `net`, or [`MaxFlowError::InvalidNode`] if either of its terminals
    /// is not a vertex of `net`.
    pub fn from_max_flow(net: &FlowNetwork, flow: &Flow, tol: f64) -> Result<Self, MaxFlowError> {
        flow.check_shape(net)?;
        let on_source_side = residual_reachable(net, flow, tol);
        let mut cut_edges = Vec::new();
        let mut capacity = 0.0;
        for (id, edge) in net.edges() {
            if on_source_side[edge.from.index()] && !on_source_side[edge.to.index()] {
                cut_edges.push(id);
                capacity += edge.capacity;
            }
        }
        let source_side = net.nodes().filter(|v| on_source_side[v.index()]).collect();
        Ok(MinCut { source_side, cut_edges, capacity, sink: flow.sink() })
    }

    /// `true` if this is an `s–t` cut (the sink is not on the source side)
    /// whose capacity matches `flow_value` within `tol` — the
    /// strong-duality witness that both are optimal.
    pub fn certifies(&self, flow_value: f64, tol: f64) -> bool {
        !self.source_side.contains(&self.sink) && (self.capacity - flow_value).abs() <= tol
    }
}

/// BFS from the flow's source over the residual arcs of `flow`; entry `v`
/// is `true` when `v` is reachable.
fn residual_reachable(net: &FlowNetwork, flow: &Flow, tol: f64) -> Vec<bool> {
    let f = flow.edge_flows();
    let mut seen = vec![false; net.node_count()];
    let mut queue = VecDeque::new();
    seen[flow.source().index()] = true;
    queue.push_back(flow.source());
    while let Some(u) = queue.pop_front() {
        // forward arcs: unsaturated out-edges; backward arcs: in-edges
        // carrying flow that could be cancelled
        let forward = net.out_edges(u).iter().filter_map(|&e| {
            net.edge(e).filter(|edge| edge.capacity - f[e.index()] > tol).map(|edge| edge.to)
        });
        let backward = net
            .in_edges(u)
            .iter()
            .filter_map(|&e| net.edge(e).filter(|_| f[e.index()] > tol).map(|edge| edge.from));
        for v in forward.chain(backward) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;
    use crate::solver::MaxFlowSolver;

    /// Complete networks with varied capacities, and their terminals.
    fn complete_instances() -> Vec<(FlowNetwork, NodeId, NodeId)> {
        let mut out: Vec<_> = [4usize, 6, 9]
            .into_iter()
            .map(|n| {
                let net = FlowNetwork::complete(n, |u, v| {
                    0.2 + (((u.index() * 3 + v.index() * 13) % 9) as f64) / 3.0
                })
                .unwrap();
                (net, NodeId::new(0), NodeId::new(n as u32 - 1))
            })
            .collect();
        let net = FlowNetwork::complete(6, |u, v| {
            0.3 + (((u.index() * 5 + v.index() * 11) % 7) as f64) / 2.0
        })
        .unwrap();
        out.push((net, NodeId::new(0), NodeId::new(5)));
        out
    }

    #[test]
    fn cut_capacity_equals_flow_value() {
        for (net, s, t) in complete_instances() {
            let n = net.node_count();
            let flow = Dinic::new().max_flow(&net, s, t).unwrap();
            let cut = MinCut::from_max_flow(&net, &flow, 1e-9).unwrap();
            assert!(
                cut.certifies(flow.value(), 1e-6),
                "n={n}: cut {} vs flow {}",
                cut.capacity,
                flow.value()
            );
            assert!(cut.source_side.contains(&s));
            assert!(!cut.source_side.contains(&t));
        }
    }

    #[test]
    fn every_cut_edge_is_saturated() {
        let net = FlowNetwork::complete(7, |u, v| {
            0.1 + (((u.index() * 17 + v.index()) % 5) as f64) / 2.0
        })
        .unwrap();
        let (s, t) = (NodeId::new(1), NodeId::new(5));
        let flow = Dinic::new().max_flow(&net, s, t).unwrap();
        let cut = MinCut::from_max_flow(&net, &flow, 1e-9).unwrap();
        for e in &cut.cut_edges {
            let cap = net.edge(*e).unwrap().capacity;
            let f = flow.edge_flow(*e).unwrap();
            assert!((cap - f).abs() < 1e-9, "edge {e} not saturated: {f} < {cap}");
        }
    }

    #[test]
    fn non_max_flow_fails_certification() {
        let mut cases: Vec<_> = complete_instances()
            .into_iter()
            .map(|(net, s, t)| {
                let zero = Flow::zero(&net, s, t);
                (net, zero)
            })
            .collect();
        // zero flow on uniform capacities: everything is reachable, so the
        // "cut" has no edges and capacity 0 == value 0, yet the max flow is 4
        let net = FlowNetwork::complete(5, |_, _| 1.0).unwrap();
        let zero = Flow::zero(&net, NodeId::new(0), NodeId::new(4));
        cases.push((net, zero));
        // s=0 -> a=1 -> b=2 -> t=3 carries 1 unit; the augmenting path
        // s -> b -> a -> t exists only through the backward arc b -> a
        let mut net = FlowNetwork::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            net.add_edge(NodeId::new(u), NodeId::new(v), 1.0).unwrap();
        }
        let carried = Flow::from_edge_flows(
            NodeId::new(0),
            NodeId::new(3),
            1.0,
            vec![1.0, 0.0, 1.0, 0.0, 1.0],
        );
        cases.push((net, carried));
        for (net, flow) in cases {
            let cut = MinCut::from_max_flow(&net, &flow, 1e-9).unwrap();
            assert!(cut.source_side.contains(&flow.sink()));
            assert!(!cut.certifies(flow.value(), 1e-6), "{cut:?}");
        }
    }

    #[test]
    fn uniform_complete_graph_cut_isolates_terminal() {
        let net = FlowNetwork::complete(6, |_, _| 1.0).unwrap();
        let (s, t) = (NodeId::new(0), NodeId::new(5));
        let flow = Dinic::new().max_flow(&net, s, t).unwrap();
        let cut = MinCut::from_max_flow(&net, &flow, 1e-9).unwrap();
        // min cut capacity = 5 (degree of a terminal)
        assert!((cut.capacity - 5.0).abs() < 1e-9);
    }
}
