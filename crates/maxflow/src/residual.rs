//! Residual graphs and the verification side of the PPUF protocol.
//!
//! Checking that a flow is *maximal* is far cheaper than finding one: build
//! the residual graph and test whether the sink is reachable from the
//! source (paper §2). The search is a plain BFS, `O(n²)` on a complete
//! graph — this asymmetry is what lets a PPUF verifier validate a
//! prover's answer without doing the prover's work.

use std::collections::VecDeque;

use crate::error::MaxFlowError;
use crate::flow::Flow;
use crate::graph::{EdgeId, FlowNetwork, NodeId};

/// A residual edge: remaining capacity `residual` in the direction
/// `from → to`.
///
/// Forward residuals come from unsaturated edges (`c(e) − f(e)`), backward
/// residuals from carried flow (`f(e)`). The PPUF authentication protocol
/// sends exactly this list from prover to verifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualEdge {
    /// Tail of the residual arc.
    pub from: NodeId,
    /// Head of the residual arc.
    pub to: NodeId,
    /// Positive residual capacity.
    pub residual: f64,
    /// The network edge this residual arc derives from.
    pub edge: EdgeId,
    /// `true` if this arc runs opposite to the original edge (cancellable
    /// flow), `false` if it is unused forward capacity.
    pub backward: bool,
}

/// The residual graph `G_f` of a flow `f` on a network.
///
/// ```
/// use ppuf_maxflow::{Dinic, FlowNetwork, MaxFlowSolver, NodeId, ResidualGraph};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let net = FlowNetwork::complete(5, |_, _| 1.0)?;
/// let (s, t) = (NodeId::new(0), NodeId::new(4));
/// let flow = Dinic::new().max_flow(&net, s, t)?;
/// let residual = ResidualGraph::new(&net, &flow, 1e-9)?;
/// assert!(residual.certifies_max_flow());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResidualGraph {
    node_count: usize,
    source: NodeId,
    sink: NodeId,
    edges: Vec<ResidualEdge>,
    /// adjacency over residual edges
    adj: Vec<Vec<u32>>,
}

impl ResidualGraph {
    /// Builds the residual graph of `flow` on `net`, dropping residual arcs
    /// with capacity ≤ `tol`.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::FlowShapeMismatch`] if `flow` does not have
    /// one entry per edge of `net`.
    pub fn new(net: &FlowNetwork, flow: &Flow, tol: f64) -> Result<Self, MaxFlowError> {
        if flow.edge_flows().len() != net.edge_count() {
            return Err(MaxFlowError::FlowShapeMismatch {
                flow_edges: flow.edge_flows().len(),
                network_edges: net.edge_count(),
            });
        }
        let n = net.node_count();
        let mut edges = Vec::new();
        let mut adj = vec![Vec::new(); n];
        for (id, edge) in net.edges() {
            let f = flow.edge_flows()[id.index()];
            let forward = edge.capacity - f;
            if forward > tol {
                adj[edge.from.index()].push(edges.len() as u32);
                edges.push(ResidualEdge {
                    from: edge.from,
                    to: edge.to,
                    residual: forward,
                    edge: id,
                    backward: false,
                });
            }
            if f > tol {
                adj[edge.to.index()].push(edges.len() as u32);
                edges.push(ResidualEdge {
                    from: edge.to,
                    to: edge.from,
                    residual: f,
                    edge: id,
                    backward: true,
                });
            }
        }
        Ok(ResidualGraph { node_count: n, source: flow.source(), sink: flow.sink(), edges, adj })
    }

    /// Reconstructs a residual graph from a prover-supplied edge list.
    ///
    /// This is the verifier entry point of the authentication protocol: the
    /// verifier receives the claimed residual edges and only needs
    /// reachability, never the full flow.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::InvalidNode`] if an edge references a vertex
    /// `≥ node_count`, or [`MaxFlowError::InvalidCapacity`] if a residual
    /// is not a positive finite number.
    pub fn from_edges(
        node_count: usize,
        source: NodeId,
        sink: NodeId,
        edges: Vec<ResidualEdge>,
    ) -> Result<Self, MaxFlowError> {
        let mut adj = vec![Vec::new(); node_count];
        for (i, e) in edges.iter().enumerate() {
            for v in [e.from, e.to] {
                if v.index() >= node_count {
                    return Err(MaxFlowError::InvalidNode { node: v, node_count });
                }
            }
            if !e.residual.is_finite() || e.residual <= 0.0 {
                return Err(MaxFlowError::InvalidCapacity { value: e.residual });
            }
            adj[e.from.index()].push(i as u32);
        }
        Ok(ResidualGraph { node_count, source, sink, edges, adj })
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The residual arcs (the message of the authentication protocol).
    pub fn edges(&self) -> &[ResidualEdge] {
        &self.edges
    }

    /// Source terminal recorded with the flow.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Sink terminal recorded with the flow.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Sequential BFS: is `to` reachable from `from` along residual arcs?
    pub fn is_reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.node_count];
        let mut queue = VecDeque::new();
        seen[from.index()] = true;
        queue.push_back(from.index() as u32);
        while let Some(u) = queue.pop_front() {
            for &ei in &self.adj[u as usize] {
                let v = self.edges[ei as usize].to;
                if !seen[v.index()] {
                    if v == to {
                        return true;
                    }
                    seen[v.index()] = true;
                    queue.push_back(v.index() as u32);
                }
            }
        }
        false
    }

    /// The max-flow optimality certificate: `true` iff the sink is **not**
    /// reachable from the source in this residual graph.
    pub fn certifies_max_flow(&self) -> bool {
        !self.is_reachable(self.source, self.sink)
    }

    /// Set of vertices reachable from the source (the source side of the
    /// induced minimum cut when the flow is maximal).
    pub fn source_side(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.node_count];
        let mut queue = VecDeque::new();
        seen[self.source.index()] = true;
        queue.push_back(self.source.index() as u32);
        while let Some(u) = queue.pop_front() {
            for &ei in &self.adj[u as usize] {
                let v = self.edges[ei as usize].to.index();
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v as u32);
                }
            }
        }
        seen.iter().enumerate().filter(|&(_, &s)| s).map(|(i, _)| NodeId::new(i as u32)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;
    use crate::solver::MaxFlowSolver;

    fn solved_instance() -> (FlowNetwork, Flow) {
        let net = FlowNetwork::complete(6, |u, v| {
            0.3 + (((u.index() * 5 + v.index() * 11) % 7) as f64) / 2.0
        })
        .unwrap();
        let flow = Dinic::new().max_flow(&net, NodeId::new(0), NodeId::new(5)).unwrap();
        (net, flow)
    }

    #[test]
    fn max_flow_certified() {
        let (net, flow) = solved_instance();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        assert!(residual.certifies_max_flow());
    }

    #[test]
    fn non_max_flow_not_certified() {
        let (net, flow) = solved_instance();
        let zero = Flow::zero(&net, flow.source(), flow.sink());
        let residual = ResidualGraph::new(&net, &zero, 1e-9).unwrap();
        assert!(!residual.certifies_max_flow());
    }

    #[test]
    fn reachability_to_self_is_true() {
        let (net, flow) = solved_instance();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        assert!(residual.is_reachable(NodeId::new(2), NodeId::new(2)));
    }

    #[test]
    fn from_edges_validates() {
        let bad_node = ResidualEdge {
            from: NodeId::new(9),
            to: NodeId::new(0),
            residual: 1.0,
            edge: EdgeId::new(0),
            backward: false,
        };
        assert!(
            ResidualGraph::from_edges(3, NodeId::new(0), NodeId::new(1), vec![bad_node]).is_err()
        );
        let bad_cap = ResidualEdge {
            from: NodeId::new(0),
            to: NodeId::new(1),
            residual: -1.0,
            edge: EdgeId::new(0),
            backward: false,
        };
        assert!(
            ResidualGraph::from_edges(3, NodeId::new(0), NodeId::new(1), vec![bad_cap]).is_err()
        );
    }

    #[test]
    fn from_edges_roundtrip_preserves_verdict() {
        let (net, flow) = solved_instance();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        let rebuilt = ResidualGraph::from_edges(
            net.node_count(),
            flow.source(),
            flow.sink(),
            residual.edges().to_vec(),
        )
        .unwrap();
        assert_eq!(residual.certifies_max_flow(), rebuilt.certifies_max_flow());
    }

    #[test]
    fn source_side_contains_source_not_sink_when_max() {
        let (net, flow) = solved_instance();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        let side = residual.source_side();
        assert!(side.contains(&flow.source()));
        assert!(!side.contains(&flow.sink()));
    }

    #[test]
    fn backward_arcs_present_for_carried_flow() {
        let (net, flow) = solved_instance();
        let residual = ResidualGraph::new(&net, &flow, 1e-9).unwrap();
        assert!(residual.edges().iter().any(|e| e.backward));
    }
}
