//! Edmonds–Karp: BFS shortest augmenting paths.
//!
//! The textbook `O(V · E²)` augmenting-path algorithm (paper §2 cites the
//! family via Dinits). On the PPUF's complete graphs it is the slowest exact
//! solver here and serves as the reference oracle for the faster ones.

use std::collections::VecDeque;

use crate::error::MaxFlowError;
use crate::flow::{Flow, DEFAULT_TOLERANCE};
use crate::graph::{FlowNetwork, NodeId};
use crate::residual_state::ResidualArcs;
use crate::solver::{MaxFlowSolver, SolveStats};

/// The Edmonds–Karp augmenting-path solver.
///
/// ```
/// use ppuf_maxflow::{EdmondsKarp, FlowNetwork, MaxFlowSolver, NodeId};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let mut net = FlowNetwork::new(3);
/// net.add_edge(NodeId::new(0), NodeId::new(1), 4.0)?;
/// net.add_edge(NodeId::new(1), NodeId::new(2), 2.5)?;
/// let flow = EdmondsKarp::new().max_flow(&net, NodeId::new(0), NodeId::new(2))?;
/// assert_eq!(flow.value(), 2.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdmondsKarp {
    tolerance: f64,
}

impl EdmondsKarp {
    /// Creates a solver with the [default tolerance](DEFAULT_TOLERANCE).
    pub fn new() -> Self {
        EdmondsKarp { tolerance: DEFAULT_TOLERANCE }
    }

    /// Creates a solver treating residual capacities below `tolerance` as
    /// saturated (required for floating-point capacities to terminate).
    pub fn with_tolerance(tolerance: f64) -> Self {
        EdmondsKarp { tolerance }
    }

    /// The saturation tolerance in use.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

impl Default for EdmondsKarp {
    fn default() -> Self {
        EdmondsKarp::new()
    }
}

impl MaxFlowSolver for EdmondsKarp {
    fn max_flow_with_stats(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        net.check_terminals(source, sink)?;
        let mut arcs = ResidualArcs::new(net);
        let n = arcs.node_count();
        let s = source.index();
        let t = sink.index();
        let mut stats = SolveStats::default();
        // prev[v] = arc used to reach v, u32::MAX = unvisited
        let mut prev = vec![u32::MAX; n];
        let mut queue = VecDeque::with_capacity(n);
        loop {
            stats.bfs_passes += 1;
            prev.iter_mut().for_each(|p| *p = u32::MAX);
            queue.clear();
            queue.push_back(s as u32);
            // mark source visited via sentinel self-arc
            prev[s] = u32::MAX - 1;
            let mut reached = false;
            'bfs: while let Some(u) = queue.pop_front() {
                for a in arcs.adj(u as usize) {
                    let v = arcs.to[a as usize] as usize;
                    if prev[v] == u32::MAX && arcs.residual[a as usize] > self.tolerance {
                        prev[v] = a;
                        if v == t {
                            reached = true;
                            break 'bfs;
                        }
                        queue.push_back(v as u32);
                    }
                }
            }
            if !reached {
                break;
            }
            // find bottleneck along the path
            let mut bottleneck = f64::INFINITY;
            let mut v = t;
            while v != s {
                let a = prev[v];
                bottleneck = bottleneck.min(arcs.residual[a as usize]);
                v = arcs.to[arcs.twin(a) as usize] as usize;
            }
            // augment
            let mut v = t;
            while v != s {
                let a = prev[v];
                arcs.push(a, bottleneck);
                v = arcs.to[arcs.twin(a) as usize] as usize;
            }
            stats.augmenting_paths += 1;
        }
        Ok((arcs.flow(source, sink, self.tolerance), stats))
    }

    fn name(&self) -> &'static str {
        "edmonds-karp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::DEFAULT_TOLERANCE;

    fn solve(net: &FlowNetwork, s: u32, t: u32) -> Flow {
        EdmondsKarp::new().max_flow(net, NodeId::new(s), NodeId::new(t)).unwrap()
    }

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(NodeId::new(0), NodeId::new(1), 3.5).unwrap();
        assert_eq!(solve(&net, 0, 1).value(), 3.5);
    }

    #[test]
    fn series_bottleneck() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(NodeId::new(0), NodeId::new(1), 5.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(2), 2.0).unwrap();
        assert_eq!(solve(&net, 0, 2).value(), 2.0);
    }

    #[test]
    fn classic_clrs_instance() {
        // CLRS figure 26.6 instance, max flow 23
        let mut net = FlowNetwork::new(6);
        let e = |net: &mut FlowNetwork, a: u32, b: u32, c: f64| {
            net.add_edge(NodeId::new(a), NodeId::new(b), c).unwrap();
        };
        e(&mut net, 0, 1, 16.0);
        e(&mut net, 0, 2, 13.0);
        e(&mut net, 1, 3, 12.0);
        e(&mut net, 2, 1, 4.0);
        e(&mut net, 2, 4, 14.0);
        e(&mut net, 3, 2, 9.0);
        e(&mut net, 3, 5, 20.0);
        e(&mut net, 4, 3, 7.0);
        e(&mut net, 4, 5, 4.0);
        let flow = solve(&net, 0, 5);
        assert!((flow.value() - 23.0).abs() < 1e-9);
        assert!(flow.check_feasible(&net, DEFAULT_TOLERANCE).unwrap().is_feasible());
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        net.add_edge(NodeId::new(2), NodeId::new(3), 1.0).unwrap();
        assert_eq!(solve(&net, 0, 3).value(), 0.0);
    }

    #[test]
    fn requires_backward_edges() {
        // flow must be rerouted through the residual backward arc
        let mut net = FlowNetwork::new(4);
        net.add_edge(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        net.add_edge(NodeId::new(0), NodeId::new(2), 1.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(3), 1.0).unwrap();
        net.add_edge(NodeId::new(2), NodeId::new(3), 1.0).unwrap();
        assert!((solve(&net, 0, 3).value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_flow_equals_min_terminal_cut() {
        let net = FlowNetwork::complete(6, |_, _| 2.0).unwrap();
        // min cut isolates source or sink: 5 edges * 2.0
        assert!((solve(&net, 0, 5).value() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_equal_terminals() {
        let net = FlowNetwork::new(2);
        assert!(EdmondsKarp::new().max_flow(&net, NodeId::new(0), NodeId::new(0)).is_err());
    }

    #[test]
    fn result_is_feasible_on_random_instance() {
        let net =
            FlowNetwork::complete(8, |u, v| ((u.index() * 7 + v.index() * 3) % 5) as f64 + 0.5)
                .unwrap();
        let flow = solve(&net, 0, 7);
        assert!(flow.check_feasible(&net, 1e-9).unwrap().is_feasible());
    }
}
