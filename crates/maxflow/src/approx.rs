//! ε-approximate max-flow via capacity scaling with early termination.
//!
//! The paper bounds the ESG against *approximate* algorithms (citing Kelner
//! et al.'s `O(m^{1+o(1)} ε⁻²)` solver, i.e. `O(n^{2+o(1)} ε⁻²)` on a
//! complete graph). This module provides a practical ε-approximate solver
//! so the attack surface can be exercised end-to-end: capacity-scaling
//! augmentation that stops once the *provable* remaining gap `m · Δ` drops
//! below `ε` times the flow found so far, guaranteeing
//! `value ≥ OPT / (1 + ε)`.
//!
//! The PPUF-level consequence (demonstrated in the Fig 6/att benches): an
//! approximate flow value can land on the wrong side of the comparator
//! threshold, so approximation does not let an attacker shortcut the
//! response computation — exactly the paper's argument for why the ESG
//! bound must (and does) include the approximate regime.

use std::collections::VecDeque;

use crate::error::MaxFlowError;
use crate::flow::{Flow, DEFAULT_TOLERANCE};
use crate::graph::{FlowNetwork, NodeId};
use crate::residual_state::ResidualArcs;
use crate::solver::{MaxFlowSolver, SolveStats};

/// Capacity-scaling ε-approximate max-flow solver.
///
/// The returned flow `f` is always feasible and satisfies
/// `f.value() ≥ OPT / (1 + ε)`.
///
/// ```
/// use ppuf_maxflow::{ApproxMaxFlow, Dinic, FlowNetwork, MaxFlowSolver, NodeId};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let net = FlowNetwork::complete(6, |u, v| 1.0 + (u.index() + v.index()) as f64)?;
/// let (s, t) = (NodeId::new(0), NodeId::new(5));
/// let approx = ApproxMaxFlow::new(0.05)?.max_flow(&net, s, t)?;
/// let exact = Dinic::new().max_flow(&net, s, t)?;
/// assert!(approx.value() >= exact.value() / 1.05 - 1e-9);
/// assert!(approx.value() <= exact.value() + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxMaxFlow {
    epsilon: f64,
    tolerance: f64,
}

impl ApproxMaxFlow {
    /// Creates a solver with relative error bound `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::InvalidEpsilon`] unless `0 < epsilon < 1`.
    pub fn new(epsilon: f64) -> Result<Self, MaxFlowError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(MaxFlowError::InvalidEpsilon { value: epsilon });
        }
        Ok(ApproxMaxFlow { epsilon, tolerance: DEFAULT_TOLERANCE })
    }

    /// The relative error bound `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl MaxFlowSolver for ApproxMaxFlow {
    fn max_flow_with_stats(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        net.check_terminals(source, sink)?;
        let mut arcs = ResidualArcs::new(net);
        let n = arcs.node_count();
        let m = net.edge_count().max(1) as f64;
        let (s, t) = (source.index(), sink.index());
        let mut stats = SolveStats::default();
        let mut value = 0.0f64;
        let mut delta = net.max_capacity();
        if delta <= 0.0 {
            return Ok((arcs.flow(source, sink, self.tolerance), stats));
        }
        let mut prev = vec![u32::MAX; n];
        // Augment along paths with bottleneck >= delta; halve delta until
        // the provable remaining gap m*delta is below epsilon*value.
        while delta > self.tolerance {
            loop {
                // BFS restricted to arcs with residual >= delta
                stats.bfs_passes += 1;
                prev.iter_mut().for_each(|p| *p = u32::MAX);
                prev[s] = u32::MAX - 1;
                let mut queue = VecDeque::new();
                queue.push_back(s as u32);
                let mut reached = false;
                'bfs: while let Some(u) = queue.pop_front() {
                    for a in arcs.adj(u as usize) {
                        let v = arcs.to[a as usize] as usize;
                        if prev[v] == u32::MAX && arcs.residual[a as usize] >= delta {
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
                let mut bottleneck = f64::INFINITY;
                let mut v = t;
                while v != s {
                    let a = prev[v];
                    bottleneck = bottleneck.min(arcs.residual[a as usize]);
                    v = arcs.to[arcs.twin(a) as usize] as usize;
                }
                let mut v = t;
                while v != s {
                    let a = prev[v];
                    arcs.push(a, bottleneck);
                    v = arcs.to[arcs.twin(a) as usize] as usize;
                }
                value += bottleneck;
                stats.augmenting_paths += 1;
            }
            // after this phase no augmenting path has bottleneck >= delta,
            // so OPT - value <= m * delta (each of <= m residual cut arcs
            // contributes < delta)
            if m * delta <= self.epsilon * value {
                break;
            }
            delta *= 0.5;
        }
        Ok((arcs.flow(source, sink, self.tolerance), stats))
    }

    fn name(&self) -> &'static str {
        "approx-scaling"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;

    #[test]
    fn rejects_bad_epsilon() {
        for eps in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
            assert!(ApproxMaxFlow::new(eps).is_err(), "eps={eps}");
        }
    }

    #[test]
    fn within_epsilon_of_exact() {
        for n in [5usize, 8, 12] {
            let net = FlowNetwork::complete(n, |u, v| {
                0.2 + (((u.index() * 13 + v.index() * 7) % 11) as f64) / 4.0
            })
            .unwrap();
            let (s, t) = (NodeId::new(0), NodeId::new(n as u32 - 1));
            let exact = Dinic::new().max_flow(&net, s, t).unwrap().value();
            for eps in [0.5, 0.1, 0.01] {
                let approx = ApproxMaxFlow::new(eps).unwrap().max_flow(&net, s, t).unwrap();
                assert!(
                    approx.value() >= exact / (1.0 + eps) - 1e-9,
                    "n={n} eps={eps}: {} vs {exact}",
                    approx.value()
                );
                assert!(approx.value() <= exact + 1e-9);
                assert!(approx.check_feasible(&net, 1e-9).unwrap().is_feasible());
            }
        }
    }

    #[test]
    fn zero_capacity_network() {
        let net = FlowNetwork::complete(4, |_, _| 0.0).unwrap();
        let flow = ApproxMaxFlow::new(0.1)
            .unwrap()
            .max_flow(&net, NodeId::new(0), NodeId::new(3))
            .unwrap();
        assert_eq!(flow.value(), 0.0);
    }

    #[test]
    fn tighter_epsilon_never_worse() {
        let net = FlowNetwork::complete(9, |u, v| {
            0.1 + (((u.index() * 29 + v.index() * 3) % 19) as f64) / 6.0
        })
        .unwrap();
        let (s, t) = (NodeId::new(2), NodeId::new(7));
        let loose = ApproxMaxFlow::new(0.5).unwrap().max_flow(&net, s, t).unwrap();
        let tight = ApproxMaxFlow::new(0.01).unwrap().max_flow(&net, s, t).unwrap();
        assert!(tight.value() + 1e-12 >= loose.value());
    }
}
