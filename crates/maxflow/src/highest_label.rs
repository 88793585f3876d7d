//! Highest-label push–relabel.
//!
//! The variant Boost's `push_relabel_max_flow` actually implements (and
//! therefore the closest analogue of the paper's timing reference):
//! instead of FIFO order, always discharge an active vertex with the
//! *maximum* distance label. With the gap heuristic this gives the
//! `O(V²√E)` bound and is usually the fastest sequential preflow-push
//! strategy on dense graphs.

use std::collections::VecDeque;

use crate::error::MaxFlowError;
use crate::flow::{Flow, DEFAULT_TOLERANCE};
use crate::graph::{FlowNetwork, NodeId};
use crate::residual_state::{return_excess, ResidualArcs};
use crate::solver::{MaxFlowSolver, SolveStats};

/// The highest-label push–relabel solver.
///
/// ```
/// use ppuf_maxflow::{FlowNetwork, HighestLabel, MaxFlowSolver, NodeId};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let net = FlowNetwork::complete(6, |_, _| 1.5)?;
/// let flow = HighestLabel::new().max_flow(&net, NodeId::new(0), NodeId::new(5))?;
/// assert!((flow.value() - 7.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HighestLabel {
    tolerance: f64,
}

impl HighestLabel {
    /// Creates a solver with the [default tolerance](DEFAULT_TOLERANCE).
    pub fn new() -> Self {
        HighestLabel { tolerance: DEFAULT_TOLERANCE }
    }

    /// Creates a solver treating residual capacities below `tolerance` as
    /// saturated.
    pub fn with_tolerance(tolerance: f64) -> Self {
        HighestLabel { tolerance }
    }

    /// The saturation tolerance in use.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

impl Default for HighestLabel {
    fn default() -> Self {
        HighestLabel::new()
    }
}

/// Bucketed active-vertex structure: `buckets[h]` holds active vertices at
/// height `h`; `highest` tracks the top non-empty bucket.
struct Buckets {
    buckets: Vec<Vec<u32>>,
    in_bucket: Vec<bool>,
    highest: usize,
}

impl Buckets {
    fn new(n: usize) -> Self {
        Buckets { buckets: vec![Vec::new(); 2 * n + 2], in_bucket: vec![false; n], highest: 0 }
    }

    fn push(&mut self, v: usize, height: u32) {
        if self.in_bucket[v] {
            return;
        }
        self.in_bucket[v] = true;
        let h = height as usize;
        self.buckets[h].push(v as u32);
        self.highest = self.highest.max(h);
    }

    fn pop_highest(&mut self) -> Option<u32> {
        loop {
            if let Some(v) = self.buckets[self.highest].pop() {
                self.in_bucket[v as usize] = false;
                return Some(v);
            }
            if self.highest == 0 {
                return None;
            }
            self.highest -= 1;
        }
    }
}

impl MaxFlowSolver for HighestLabel {
    fn max_flow_with_stats(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        net.check_terminals(source, sink)?;
        let mut arcs = ResidualArcs::new(net);
        let n = arcs.node_count();
        let (s, t) = (source.index(), sink.index());
        let lift = 2 * n as u32;
        let tol = self.tolerance;
        let mut stats = SolveStats::default();
        // exact initial labels from a backward BFS
        let mut height = backward_bfs_labels(&arcs, s, t, tol);
        stats.global_relabels = 1;
        let mut count = vec![0u32; 2 * n + 2];
        for &h in &height {
            count[h as usize] += 1;
        }
        let mut excess = vec![0.0f64; n];
        let mut active = Buckets::new(n);
        // saturate source arcs
        for a in arcs.adj(s) {
            let r = arcs.residual[a as usize];
            if r > tol {
                let v = arcs.to[a as usize] as usize;
                arcs.push(a, r);
                excess[s] -= r;
                excess[v] += r;
                if v != s && v != t {
                    active.push(v, height[v]);
                }
            }
        }
        while let Some(u) = active.pop_highest() {
            let u = u as usize;
            // discharge u
            while excess[u] > tol && height[u] < lift {
                let mut min_height = u32::MAX;
                let mut pushed = false;
                for a in arcs.adj(u) {
                    let r = arcs.residual[a as usize];
                    if r <= tol {
                        continue;
                    }
                    let v = arcs.to[a as usize] as usize;
                    if height[u] == height[v] + 1 {
                        let amount = excess[u].min(r);
                        arcs.push(a, amount);
                        stats.pushes += 1;
                        excess[u] -= amount;
                        excess[v] += amount;
                        if v != s && v != t {
                            active.push(v, height[v]);
                        }
                        pushed = true;
                        if excess[u] <= tol {
                            break;
                        }
                    } else {
                        min_height = min_height.min(height[v].saturating_add(1));
                    }
                }
                if excess[u] <= tol {
                    break;
                }
                if !pushed {
                    // relabel + gap heuristic
                    let old = height[u];
                    count[old as usize] -= 1;
                    height[u] = min_height.min(lift);
                    count[height[u] as usize] += 1;
                    stats.relabels += 1;
                    if count[old as usize] == 0 && old < n as u32 {
                        stats.gap_triggers += 1;
                        for v in 0..n {
                            if v != s && height[v] > old && height[v] < n as u32 {
                                count[height[v] as usize] -= 1;
                                height[v] = n as u32 + 1;
                                count[height[v] as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
        return_excess(&mut arcs, &mut excess, s, t, tol);
        Ok((arcs.flow(source, sink, tol), stats))
    }

    fn name(&self) -> &'static str {
        "highest-label"
    }
}

/// Exact distance-to-sink labels by backward BFS over residual arcs.
fn backward_bfs_labels(arcs: &ResidualArcs, s: usize, t: usize, tol: f64) -> Vec<u32> {
    let n = arcs.node_count();
    let inf = 2 * n as u32;
    let mut height = vec![inf; n];
    height[t] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(t as u32);
    while let Some(u) = queue.pop_front() {
        let hu = height[u as usize];
        for a in arcs.adj(u as usize) {
            let v = arcs.to[a as usize] as usize;
            if height[v] == inf && v != s && arcs.residual[arcs.twin(a) as usize] > tol {
                height[v] = hu + 1;
                queue.push_back(v as u32);
            }
        }
    }
    height[s] = n as u32;
    height
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;

    fn solve(net: &FlowNetwork, s: u32, t: u32) -> Flow {
        HighestLabel::new().max_flow(net, NodeId::new(s), NodeId::new(t)).unwrap()
    }

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(NodeId::new(0), NodeId::new(1), 2.5).unwrap();
        assert_eq!(solve(&net, 0, 1).value(), 2.5);
    }

    #[test]
    fn classic_clrs_instance() {
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
        assert!((flow.value() - 23.0).abs() < 1e-9, "value {}", flow.value());
        assert!(flow.check_feasible(&net, 1e-9).unwrap().is_feasible());
    }

    #[test]
    fn excess_returns_to_source() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(NodeId::new(0), NodeId::new(1), 9.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(2), 2.0).unwrap();
        let flow = solve(&net, 0, 2);
        assert!((flow.value() - 2.0).abs() < 1e-9);
        assert!(flow.check_feasible(&net, 1e-9).unwrap().is_feasible());
    }

    #[test]
    fn agrees_with_dinic_on_random_complete_graphs() {
        for n in [5usize, 9, 14] {
            let net = FlowNetwork::complete(n, |u, v| {
                0.05 + (((u.index() * 37 + v.index() * 101) % 19) as f64) / 6.0
            })
            .unwrap();
            let (s, t) = (NodeId::new(0), NodeId::new(n as u32 - 1));
            let hl = HighestLabel::new().max_flow(&net, s, t).unwrap();
            let d = Dinic::new().max_flow(&net, s, t).unwrap();
            assert!(
                (hl.value() - d.value()).abs() < 1e-7,
                "n={n}: hl {} vs dinic {}",
                hl.value(),
                d.value()
            );
            assert!(hl.check_feasible(&net, 1e-7).unwrap().is_feasible());
        }
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(NodeId::new(0), NodeId::new(1), 3.0).unwrap();
        net.add_edge(NodeId::new(2), NodeId::new(3), 3.0).unwrap();
        let flow = solve(&net, 0, 3);
        assert_eq!(flow.value(), 0.0);
        assert!(flow.check_feasible(&net, 1e-9).unwrap().is_feasible());
    }

    #[test]
    fn rejects_invalid_terminals() {
        let net = FlowNetwork::new(2);
        assert!(HighestLabel::new().max_flow(&net, NodeId::new(0), NodeId::new(0)).is_err());
    }
}
