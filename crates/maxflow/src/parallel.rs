//! Round-synchronous parallel push–relabel.
//!
//! The paper's ESG lower bound rests on the best known *parallel* max-flow
//! algorithm (Shiloach–Vishkin, `O(n³ log n / p)`), which is a
//! round-synchronous push–relabel. This module implements that execution
//! model on `p` OS threads with `crossbeam` scoped threads:
//!
//! 1. every active vertex plans pushes against a *snapshot* of heights,
//! 2. all planned pushes are applied,
//! 3. still-active vertices relabel against the same snapshot,
//! 4. barrier, repeat.
//!
//! Planning (the `O(n)` adjacency scan per vertex — the dominant cost on a
//! complete graph) is parallelized over vertices; applying the deltas is a
//! cheap sequential reduction. Two vertices may plan pushes over the same
//! arc pair only in opposite directions, which requires
//! `h(u) = h(v) + 1 = h(v) + 1` on both sides simultaneously — impossible —
//! so planned pushes never oversubscribe an arc's residual capacity.

use crate::error::MaxFlowError;
use crate::flow::{Flow, DEFAULT_TOLERANCE};
use crate::graph::{FlowNetwork, NodeId};
use crate::residual_state::{return_excess, ResidualArcs};
use crate::solver::{MaxFlowSolver, SolveStats};

/// Round-synchronous parallel push–relabel solver.
///
/// ```
/// use ppuf_maxflow::{FlowNetwork, MaxFlowSolver, NodeId, ParallelPushRelabel};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let net = FlowNetwork::complete(6, |_, _| 1.0)?;
/// let solver = ParallelPushRelabel::with_threads(2)?;
/// let flow = solver.max_flow(&net, NodeId::new(0), NodeId::new(5))?;
/// assert!((flow.value() - 5.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelPushRelabel {
    threads: usize,
    tolerance: f64,
}

impl ParallelPushRelabel {
    /// Creates a solver using all available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |c| c.get());
        ParallelPushRelabel { threads, tolerance: DEFAULT_TOLERANCE }
    }

    /// Creates a solver with an explicit thread count.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::ZeroThreads`] if `threads == 0`.
    pub fn with_threads(threads: usize) -> Result<Self, MaxFlowError> {
        if threads == 0 {
            return Err(MaxFlowError::ZeroThreads);
        }
        Ok(ParallelPushRelabel { threads, tolerance: DEFAULT_TOLERANCE })
    }

    /// Sets the saturation tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The number of worker threads used per solve.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ParallelPushRelabel {
    fn default() -> Self {
        ParallelPushRelabel::new()
    }
}

/// A push planned in the parallel phase: `amount` along arc `arc`.
#[derive(Debug, Clone, Copy)]
struct PlannedPush {
    arc: u32,
    amount: f64,
}

impl MaxFlowSolver for ParallelPushRelabel {
    fn max_flow_with_stats(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        net.check_terminals(source, sink)?;
        let mut stats = SolveStats::default();
        let mut arcs = ResidualArcs::new(net);
        let n = arcs.node_count();
        let (s, t) = (source.index(), sink.index());
        let lift = 2 * n as u32;
        let mut height = vec![0u32; n];
        let mut excess = vec![0.0f64; n];
        height[s] = n as u32;
        // saturate all source arcs
        for a in arcs.adj(s) {
            let r = arcs.residual[a as usize];
            if r > self.tolerance {
                let v = arcs.to[a as usize] as usize;
                arcs.push(a, r);
                excess[s] -= r;
                excess[v] += r;
            }
        }
        loop {
            let active: Vec<u32> = (0..n as u32)
                .filter(|&v| {
                    let v = v as usize;
                    v != s && v != t && excess[v] > self.tolerance && height[v] < lift
                })
                .collect();
            if active.is_empty() {
                break;
            }
            stats.bfs_passes += 1; // one synchronous round
                                   // --- parallel planning phase -------------------------------
            let chunk = active.len().div_ceil(self.threads);
            let tol = self.tolerance;
            let plans: Vec<Vec<PlannedPush>> = if self.threads == 1 || active.len() < 64 {
                vec![plan_chunk(&active, &arcs, &height, &excess, tol)]
            } else {
                let arcs_ref = &arcs;
                let height_ref = &height;
                let excess_ref = &excess;
                crossbeam::scope(|scope| {
                    let handles: Vec<_> = active
                        .chunks(chunk)
                        .map(|part| {
                            scope.spawn(move |_| {
                                plan_chunk(part, arcs_ref, height_ref, excess_ref, tol)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
                })
                .expect("crossbeam scope failed")
            };
            // --- sequential apply phase --------------------------------
            let mut any_push = false;
            for plan in &plans {
                for p in plan {
                    let u = arcs.to[arcs.twin(p.arc) as usize] as usize;
                    let v = arcs.to[p.arc as usize] as usize;
                    arcs.push(p.arc, p.amount);
                    stats.pushes += 1;
                    excess[u] -= p.amount;
                    excess[v] += p.amount;
                    any_push = true;
                }
            }
            // --- relabel phase (snapshot heights) ----------------------
            let old_height = height.clone();
            let mut any_relabel = false;
            for &u in &active {
                let u = u as usize;
                if excess[u] <= self.tolerance {
                    continue;
                }
                // admissible at old heights after the apply phase?
                let mut min_h = u32::MAX;
                let mut admissible = false;
                for a in arcs.adj(u) {
                    if arcs.residual[a as usize] <= self.tolerance {
                        continue;
                    }
                    let v = arcs.to[a as usize] as usize;
                    if old_height[u] == old_height[v] + 1 {
                        admissible = true;
                        break;
                    }
                    min_h = min_h.min(old_height[v] + 1);
                }
                if !admissible {
                    height[u] = if min_h == u32::MAX { lift } else { min_h.min(lift) };
                    if height[u] != old_height[u] {
                        any_relabel = true;
                        stats.relabels += 1;
                    }
                }
            }
            if !any_push && !any_relabel {
                // Numerical stall: every remaining active vertex is stuck.
                break;
            }
        }
        return_excess(&mut arcs, &mut excess, s, t, self.tolerance);
        Ok((arcs.flow(source, sink, self.tolerance), stats))
    }

    fn name(&self) -> &'static str {
        "parallel-push-relabel"
    }
}

/// Plans pushes for one chunk of active vertices against snapshot state.
fn plan_chunk(
    part: &[u32],
    arcs: &ResidualArcs,
    height: &[u32],
    excess: &[f64],
    tol: f64,
) -> Vec<PlannedPush> {
    let mut out = Vec::new();
    for &u in part {
        let u = u as usize;
        let mut remaining = excess[u];
        if remaining <= tol {
            continue;
        }
        for a in arcs.adj(u) {
            let r = arcs.residual[a as usize];
            if r <= tol {
                continue;
            }
            let v = arcs.to[a as usize] as usize;
            if height[u] == height[v] + 1 {
                let amount = remaining.min(r);
                out.push(PlannedPush { arc: a, amount });
                remaining -= amount;
                if remaining <= tol {
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;

    #[test]
    fn rejects_zero_threads() {
        assert!(matches!(ParallelPushRelabel::with_threads(0), Err(MaxFlowError::ZeroThreads)));
    }

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(NodeId::new(0), NodeId::new(1), 3.0).unwrap();
        let flow = ParallelPushRelabel::with_threads(2)
            .unwrap()
            .max_flow(&net, NodeId::new(0), NodeId::new(1))
            .unwrap();
        assert_eq!(flow.value(), 3.0);
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
        let flow = ParallelPushRelabel::with_threads(3)
            .unwrap()
            .max_flow(&net, NodeId::new(0), NodeId::new(5))
            .unwrap();
        assert!((flow.value() - 23.0).abs() < 1e-9, "value {}", flow.value());
        assert!(flow.check_feasible(&net, 1e-9).unwrap().is_feasible());
    }

    #[test]
    fn agrees_with_dinic_across_thread_counts() {
        let net = FlowNetwork::complete(10, |u, v| {
            0.05 + (((u.index() * 41 + v.index() * 59) % 17) as f64) / 5.0
        })
        .unwrap();
        let (s, t) = (NodeId::new(0), NodeId::new(9));
        let want = Dinic::new().max_flow(&net, s, t).unwrap().value();
        for threads in [1usize, 2, 4] {
            let flow =
                ParallelPushRelabel::with_threads(threads).unwrap().max_flow(&net, s, t).unwrap();
            assert!(
                (flow.value() - want).abs() < 1e-7,
                "threads={threads}: {} vs {}",
                flow.value(),
                want
            );
            assert!(flow.check_feasible(&net, 1e-7).unwrap().is_feasible());
        }
    }

    #[test]
    fn excess_returned_on_dead_end() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(NodeId::new(0), NodeId::new(1), 8.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(2), 8.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(3), 1.0).unwrap();
        let flow = ParallelPushRelabel::with_threads(2)
            .unwrap()
            .max_flow(&net, NodeId::new(0), NodeId::new(3))
            .unwrap();
        assert!((flow.value() - 1.0).abs() < 1e-9);
        assert!(flow.check_feasible(&net, 1e-9).unwrap().is_feasible());
    }
}
