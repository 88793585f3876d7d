//! Dinic's blocking-flow algorithm.
//!
//! Builds a BFS level graph and saturates it with DFS blocking flows —
//! `O(V² · E)` in general, and the paper's representative of the
//! blocking-flow family (Dinits 1970). This is the default exact solver
//! used as the PPUF *simulation model* because it is the fastest sequential
//! algorithm in this crate on dense complete graphs.

use std::collections::VecDeque;

use crate::error::MaxFlowError;
use crate::flow::{Flow, DEFAULT_TOLERANCE};
use crate::graph::{check_terminals, FlowNetwork, NodeId};
use crate::residual_state::ResidualArcs;
use crate::solver::{MaxFlowSolver, SolveStats};

/// The Dinic blocking-flow solver.
///
/// ```
/// use ppuf_maxflow::{Dinic, FlowNetwork, MaxFlowSolver, NodeId};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let net = FlowNetwork::complete(6, |_, _| 1.0)?;
/// let flow = Dinic::new().max_flow(&net, NodeId::new(0), NodeId::new(5))?;
/// assert!((flow.value() - 5.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dinic {
    tolerance: f64,
}

impl Dinic {
    /// Creates a solver with the [default tolerance](DEFAULT_TOLERANCE).
    pub fn new() -> Self {
        Dinic { tolerance: DEFAULT_TOLERANCE }
    }

    /// Creates a solver treating residual capacities below `tolerance` as
    /// saturated.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Dinic { tolerance }
    }

    /// The saturation tolerance in use.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Max flow from `source` to `sink` on `graph`, the complete directed
    /// graph over `n` nodes, with edge capacities `capacities` in the dense
    /// edge order of [`FlowNetwork::complete`].
    ///
    /// This is `self.max_flow(&FlowNetwork::complete(n, ..), source, sink)`
    /// without the network: the solve loads the capacities into `graph`'s
    /// prebuilt residual layout, so one `graph` serves any number of
    /// capacity sets. The flow is bit-identical to the network path's,
    /// value and every edge.
    ///
    /// # Errors
    ///
    /// The errors of the network path, in its order:
    /// [`MaxFlowError::InvalidCapacity`] for the first negative, NaN or
    /// infinite capacity, then [`MaxFlowError::InvalidNode`] or
    /// [`MaxFlowError::SourceIsSink`] for bad terminals.
    ///
    /// # Panics
    ///
    /// Panics unless `capacities` has `n(n − 1)` entries.
    ///
    /// ```
    /// use ppuf_maxflow::{CompleteGraph, Dinic, FlowNetwork, MaxFlowSolver, NodeId};
    /// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
    /// let caps: Vec<f64> = (0..5 * 4).map(|k| 1.0 + (k % 3) as f64).collect();
    /// let (s, t) = (NodeId::new(0), NodeId::new(4));
    /// let mut graph = CompleteGraph::new(5);
    /// let dense = Dinic::new().max_flow_complete(&mut graph, &caps, s, t)?;
    /// let mut next = caps.iter();
    /// let net = FlowNetwork::complete(5, |_, _| *next.next().unwrap())?;
    /// assert_eq!(dense, Dinic::new().max_flow(&net, s, t)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn max_flow_complete(
        &self,
        graph: &mut CompleteGraph,
        capacities: &[f64],
        source: NodeId,
        sink: NodeId,
    ) -> Result<Flow, MaxFlowError> {
        graph.arcs.load(capacities)?;
        check_terminals(graph.node_count(), source, sink)?;
        Ok(self.solve(&mut graph.arcs, source, sink, None, None).0)
    }

    /// The solve loop shared by every entry point, on terminals already
    /// checked; `phases`, when present, collects one augmentation count
    /// per BFS level-graph phase (the algorithm's convergence trace), and
    /// `profiler`, when present, receives per-phase wall/self times under
    /// `maxflow.dinic.solve` (level-graph BFS vs blocking-flow DFS), the
    /// path's wall time counted from the paired instant, taken before the
    /// residual arcs were built.
    fn solve(
        &self,
        arcs: &mut ResidualArcs,
        source: NodeId,
        sink: NodeId,
        mut phases: Option<&mut Vec<f64>>,
        profiler: Option<(&ppuf_telemetry::Profiler, std::time::Instant)>,
    ) -> (Flow, SolveStats) {
        let mut bfs_time = std::time::Duration::ZERO;
        let mut blocking_time = std::time::Duration::ZERO;
        let n = arcs.node_count();
        let (s, t) = (source.index(), sink.index());
        let mut stats = SolveStats::default();
        let mut state = DinicState {
            arcs,
            level: vec![-1; n],
            next: vec![0; n],
            tol: self.tolerance,
            pushes: 0,
        };
        loop {
            let t0 = profiler.map(|_| std::time::Instant::now());
            let reachable = state.bfs(s, t);
            if let Some(t0) = t0 {
                bfs_time += t0.elapsed();
            }
            if !reachable {
                break;
            }
            stats.bfs_passes += 1;
            let phase_start = stats.augmenting_paths;
            let t0 = profiler.map(|_| std::time::Instant::now());
            for (u, next) in state.next.iter_mut().enumerate() {
                *next = state.arcs.adj(u).start;
            }
            loop {
                let pushed = state.dfs(s, t, f64::INFINITY);
                if pushed <= self.tolerance {
                    break;
                }
                stats.augmenting_paths += 1;
            }
            if let Some(t0) = t0 {
                blocking_time += t0.elapsed();
            }
            if let Some(trace) = phases.as_deref_mut() {
                trace.push((stats.augmenting_paths - phase_start) as f64);
            }
        }
        stats.pushes = state.pushes;
        let flow = state.arcs.flow(source, sink, self.tolerance);
        if let Some((profiler, started)) = profiler {
            let wall = started.elapsed();
            profiler.record_path(
                "maxflow.dinic.solve",
                wall,
                wall.saturating_sub(bfs_time + blocking_time),
            );
            profiler.record_leaf("maxflow.dinic.solve;bfs", bfs_time);
            profiler.record_leaf("maxflow.dinic.solve;blocking_flow", blocking_time);
        }
        (flow, stats)
    }
}

/// The residual layout of the complete directed graph on `n` nodes, the
/// PPUF crossbar's topology: built once, then reused by
/// [`Dinic::max_flow_complete`] for every capacity set on that graph.
///
/// Only the residual capacities change from solve to solve; the arcs and
/// their per-vertex order are fixed by `n`.
#[derive(Debug, Clone)]
pub struct CompleteGraph {
    arcs: ResidualArcs,
}

impl CompleteGraph {
    /// Lays out the complete directed graph on `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if its `2n(n − 1)` residual arcs overflow `u32` ids.
    pub fn new(n: usize) -> Self {
        CompleteGraph { arcs: ResidualArcs::complete(n) }
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.arcs.node_count()
    }
}

impl Default for Dinic {
    fn default() -> Self {
        Dinic::new()
    }
}

struct DinicState<'a> {
    arcs: &'a mut ResidualArcs,
    level: Vec<i32>,
    // each vertex's next arc to try (current-arc optimization)
    next: Vec<u32>,
    tol: f64,
    // arc saturation operations inside blocking-flow DFS
    pushes: u64,
}

impl DinicState<'_> {
    /// Rebuilds the BFS level graph; returns `true` if the sink is
    /// reachable.
    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s as u32);
        while let Some(u) = queue.pop_front() {
            for a in self.arcs.adj(u as usize) {
                let v = self.arcs.to[a as usize] as usize;
                if self.level[v] < 0 && self.arcs.residual[a as usize] > self.tol {
                    self.level[v] = self.level[u as usize] + 1;
                    queue.push_back(v as u32);
                }
            }
        }
        self.level[t] >= 0
    }

    /// Sends up to `limit` units of blocking flow from `u` to `t` via DFS.
    fn dfs(&mut self, u: usize, t: usize, limit: f64) -> f64 {
        if u == t {
            return limit;
        }
        let mut sent = 0.0;
        let end = self.arcs.adj(u).end;
        while self.next[u] < end {
            let a = self.next[u];
            let v = self.arcs.to[a as usize] as usize;
            if self.level[v] == self.level[u] + 1 && self.arcs.residual[a as usize] > self.tol {
                let pushed = self.dfs(v, t, (limit - sent).min(self.arcs.residual[a as usize]));
                if pushed > 0.0 {
                    self.arcs.push(a, pushed);
                    self.pushes += 1;
                    sent += pushed;
                    if limit - sent <= self.tol {
                        return sent;
                    }
                    continue;
                }
            }
            self.next[u] += 1;
        }
        sent
    }
}

impl MaxFlowSolver for Dinic {
    fn max_flow_with_stats(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        net.check_terminals(source, sink)?;
        Ok(self.solve(&mut ResidualArcs::new(net), source, sink, None, None))
    }

    /// Emits the standard counters, and — when the recorder collects
    /// events — one `maxflow.dinic.phase_augmentations` event per solve
    /// whose values are the augmenting-path count of each BFS phase. A
    /// recorder with an attached profiler additionally gets the per-phase
    /// wall-time profile under `maxflow.dinic.solve`.
    fn max_flow_traced(
        &self,
        net: &FlowNetwork,
        source: NodeId,
        sink: NodeId,
        recorder: &dyn ppuf_telemetry::Recorder,
    ) -> Result<(Flow, SolveStats), MaxFlowError> {
        let mut phases = Vec::new();
        let trace = if recorder.events_enabled() { Some(&mut phases) } else { None };
        net.check_terminals(source, sink)?;
        let profiler = recorder.profiler().map(|p| (p, std::time::Instant::now()));
        let (flow, stats) = self.solve(&mut ResidualArcs::new(net), source, sink, trace, profiler);
        stats.record(recorder, self.name());
        if !phases.is_empty() {
            recorder.record_event("maxflow.dinic.phase_augmentations", &phases);
        }
        Ok((flow, stats))
    }

    fn name(&self) -> &'static str {
        "dinic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push_relabel::PushRelabel;

    fn solve(net: &FlowNetwork, s: u32, t: u32) -> Flow {
        Dinic::new().max_flow(net, NodeId::new(s), NodeId::new(t)).unwrap()
    }

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(NodeId::new(0), NodeId::new(1), 1.25).unwrap();
        assert_eq!(solve(&net, 0, 1).value(), 1.25);
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
        assert!((flow.value() - 23.0).abs() < 1e-9);
        assert!(flow.check_feasible(&net, 1e-9).unwrap().is_feasible());
    }

    #[test]
    fn zero_capacity_edges_carry_nothing() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(NodeId::new(0), NodeId::new(1), 0.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
        assert_eq!(solve(&net, 0, 2).value(), 0.0);
    }

    #[test]
    fn agrees_with_push_relabel_on_random_complete_graphs() {
        for n in [4usize, 6, 9] {
            let net = FlowNetwork::complete(n, |u, v| {
                0.1 + (((u.index() * 31 + v.index() * 17) % 13) as f64) / 3.0
            })
            .unwrap();
            let (s, t) = (NodeId::new(0), NodeId::new(n as u32 - 1));
            let d = Dinic::new().max_flow(&net, s, t).unwrap();
            let pr = PushRelabel::new().max_flow(&net, s, t).unwrap();
            assert!(
                (d.value() - pr.value()).abs() < 1e-9,
                "n={n}: dinic {} vs push-relabel {}",
                d.value(),
                pr.value()
            );
            assert!(d.check_feasible(&net, 1e-9).unwrap().is_feasible());
        }
    }

    #[test]
    fn layered_network_multi_phase() {
        // two BFS phases needed: long path plus short path
        let mut net = FlowNetwork::new(5);
        let e = |net: &mut FlowNetwork, a: u32, b: u32, c: f64| {
            net.add_edge(NodeId::new(a), NodeId::new(b), c).unwrap();
        };
        e(&mut net, 0, 4, 1.0);
        e(&mut net, 0, 1, 1.0);
        e(&mut net, 1, 2, 1.0);
        e(&mut net, 2, 3, 1.0);
        e(&mut net, 3, 4, 1.0);
        assert!((solve(&net, 0, 4).value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_terminals() {
        let net = FlowNetwork::new(3);
        assert!(Dinic::new().max_flow(&net, NodeId::new(0), NodeId::new(9)).is_err());
        assert!(Dinic::new().max_flow(&net, NodeId::new(1), NodeId::new(1)).is_err());
    }

    #[test]
    fn traced_solve_emits_per_phase_augmentations() {
        // the layered network from `layered_network_multi_phase`: phase 1
        // saturates the short path, phase 2 the long one
        let mut net = FlowNetwork::new(5);
        let e = |net: &mut FlowNetwork, a: u32, b: u32, c: f64| {
            net.add_edge(NodeId::new(a), NodeId::new(b), c).unwrap();
        };
        e(&mut net, 0, 4, 1.0);
        e(&mut net, 0, 1, 1.0);
        e(&mut net, 1, 2, 1.0);
        e(&mut net, 2, 3, 1.0);
        e(&mut net, 3, 4, 1.0);
        let recorder = ppuf_telemetry::MemoryRecorder::new();
        let (flow, stats) =
            Dinic::new().max_flow_traced(&net, NodeId::new(0), NodeId::new(4), &recorder).unwrap();
        assert!((flow.value() - 2.0).abs() < 1e-12);
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        let trace = &events[0];
        assert_eq!(trace.name, "maxflow.dinic.phase_augmentations");
        assert_eq!(trace.values.len(), stats.bfs_passes as usize);
        let total: f64 = trace.values.iter().sum();
        assert_eq!(total as u64, stats.augmenting_paths, "phases partition the augmentations");
        assert_eq!(recorder.counter("maxflow.dinic.bfs_passes"), stats.bfs_passes);
    }

    #[test]
    fn traced_solve_with_profiler_records_phase_paths() {
        let net = FlowNetwork::complete(6, |u, v| ((u.index() + 2 * v.index()) % 5) as f64 + 0.5)
            .unwrap();
        let mut recorder = ppuf_telemetry::MemoryRecorder::new();
        let profiler = std::sync::Arc::new(ppuf_telemetry::Profiler::new());
        recorder.set_profiler(profiler.clone());
        Dinic::new().max_flow_traced(&net, NodeId::new(0), NodeId::new(5), &recorder).unwrap();
        let snap = profiler.snapshot();
        let solve = snap.get("maxflow.dinic.solve").expect("solve path recorded");
        assert_eq!(solve.count, 1);
        let bfs = snap.get("maxflow.dinic.solve;bfs").expect("bfs phase recorded");
        let blocking =
            snap.get("maxflow.dinic.solve;blocking_flow").expect("blocking phase recorded");
        assert!(bfs.wall_s + blocking.wall_s <= solve.wall_s + 1e-9);
        assert_eq!(profiler.skew_clamps(), 0);
    }

    #[test]
    fn traced_solve_matches_untraced_and_skips_events_on_noop() {
        let net = FlowNetwork::complete(6, |u, v| ((u.index() + 2 * v.index()) % 5) as f64 + 0.5)
            .unwrap();
        let (s, t) = (NodeId::new(0), NodeId::new(5));
        let (plain, plain_stats) = Dinic::new().max_flow_with_stats(&net, s, t).unwrap();
        let (traced, traced_stats) =
            Dinic::new().max_flow_traced(&net, s, t, &ppuf_telemetry::NOOP).unwrap();
        assert_eq!(plain.value(), traced.value(), "tracing must not perturb the solve");
        assert_eq!(plain_stats, traced_stats);
    }
}
