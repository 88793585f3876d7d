//! Internal mutable residual representation shared by the solvers.
//!
//! Every network edge `k` becomes an arc pair: a forward arc (residual
//! capacity = capacity) and a backward arc (residual 0). Pushing along an
//! arc moves residual capacity to its [twin](ResidualArcs::twin), so the
//! flow on edge `k` can be read back as the residual of its backward arc.
//!
//! Arcs are numbered vertex by vertex (compressed sparse rows): the arcs
//! leaving vertex `u` are the contiguous ids `first[u]..first[u + 1]`, in
//! edge-id order, and every per-arc array is stored in that order. A scan
//! of one vertex's arcs is therefore a sequential read of `to` and
//! `residual`; only a push touches the twin elsewhere. A complete graph's
//! layout has a closed form ([`ResidualArcs::complete`]), so its solves
//! skip the [`FlowNetwork`] entirely and only load capacities.

use std::ops::Range;

use crate::error::MaxFlowError;
use crate::flow::Flow;
use crate::graph::{FlowNetwork, NodeId};

/// Mutable residual arcs for one solve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResidualArcs {
    /// Head vertex of each arc.
    pub to: Vec<u32>,
    /// Remaining residual capacity of each arc.
    pub residual: Vec<f64>,
    /// The reverse arc of each arc.
    twin: Vec<u32>,
    /// Offset of each vertex's arcs, plus the arc count at the end.
    first: Vec<u32>,
    /// The backward arc of each edge, by edge id.
    back: Vec<u32>,
}

impl ResidualArcs {
    /// Builds the residual representation of `net`.
    ///
    /// A counting sort over the edges keeps each vertex's arcs in edge-id
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the arc ids do not fit in `u32`.
    pub fn new(net: &FlowNetwork) -> Self {
        let n = net.node_count();
        let arc_count = 2 * net.edge_count();
        assert!(arc_count <= u32::MAX as usize, "{arc_count} arcs overflow the u32 arc ids");
        let mut first = vec![0u32; n + 1];
        for (_, edge) in net.edges() {
            first[edge.from.index() + 1] += 1;
            first[edge.to.index() + 1] += 1;
        }
        for u in 0..n {
            first[u + 1] += first[u];
        }
        let mut next = first.clone();
        let mut arcs = ResidualArcs {
            to: vec![0; arc_count],
            residual: vec![0.0; arc_count],
            twin: vec![0; arc_count],
            first,
            back: Vec::with_capacity(net.edge_count()),
        };
        for (_, edge) in net.edges() {
            let (u, v) = (edge.from.index(), edge.to.index());
            let (fwd, bwd) = (next[u], next[v]);
            next[u] += 1;
            next[v] += 1;
            let (f, b) = (fwd as usize, bwd as usize);
            arcs.to[f] = v as u32;
            arcs.to[b] = u as u32;
            arcs.residual[f] = edge.capacity;
            arcs.twin[f] = bwd;
            arcs.twin[b] = fwd;
            arcs.back.push(bwd);
        }
        arcs
    }

    /// The residual layout of [`FlowNetwork::complete`]`(n, ..)`, with every
    /// residual zero until [`load`](Self::load) writes the capacities.
    ///
    /// Edge `u → v` has dense index `u(n − 1) + v − [v > u]`. Vertex `x`
    /// therefore meets, in edge-id order, the in-arcs from lower-indexed
    /// vertices, then its own `n − 1` out-arcs, then the in-arcs from
    /// higher-indexed vertices: `2(n − 1)` arcs from `2(n − 1)x` on.
    ///
    /// # Panics
    ///
    /// Panics if the `2n(n − 1)` arc ids do not fit in `u32`.
    pub fn complete(n: usize) -> Self {
        let d = n.saturating_sub(1);
        let arc_count = 2 * n * d;
        assert!(arc_count <= u32::MAX as usize, "{n} nodes overflow the u32 arc ids");
        // the arcs of edge u → v: forward in u's run, backward in v's
        let fwd = |u: usize, v: usize| (2 * d * u + u + v - usize::from(v > u)) as u32;
        let bwd = |u: usize, v: usize| (2 * d * v + if u < v { u } else { d + u - 1 }) as u32;
        let mut arcs = ResidualArcs {
            to: Vec::with_capacity(arc_count),
            residual: vec![0.0; arc_count],
            twin: Vec::with_capacity(arc_count),
            first: (0..=n).map(|x| (2 * d * x) as u32).collect(),
            back: Vec::with_capacity(n * d),
        };
        for x in 0..n {
            for u in 0..x {
                arcs.to.push(u as u32);
                arcs.twin.push(fwd(u, x));
            }
            for v in (0..n).filter(|&v| v != x) {
                arcs.to.push(v as u32);
                arcs.twin.push(bwd(x, v));
                arcs.back.push(bwd(x, v));
            }
            for u in x + 1..n {
                arcs.to.push(u as u32);
                arcs.twin.push(fwd(u, x));
            }
        }
        arcs
    }

    /// Writes a fresh residual state for a complete graph's `capacities`,
    /// one per edge in edge-id order: each forward arc gets its edge's
    /// capacity, each backward arc 0.
    ///
    /// # Errors
    ///
    /// Returns [`MaxFlowError::InvalidCapacity`] for the first negative,
    /// NaN or infinite capacity, as [`FlowNetwork::add_edge`] would, and
    /// then leaves the residuals as they were.
    ///
    /// # Panics
    ///
    /// Panics unless this is a [`complete`](Self::complete) layout with one
    /// capacity per edge.
    pub fn load(&mut self, capacities: &[f64]) -> Result<(), MaxFlowError> {
        let n = self.node_count();
        assert_eq!(capacities.len(), self.back.len(), "{n} nodes need n(n - 1) capacities");
        if let Some(&c) = capacities.iter().find(|c| !c.is_finite() || **c < 0.0) {
            return Err(MaxFlowError::InvalidCapacity { value: c });
        }
        let d = n.saturating_sub(1);
        if d == 0 {
            // fewer than two nodes: no edges, and no runs to chunk
            return Ok(());
        }
        // vertex x's run: x backward arcs, its d out-arcs, d − x backward
        for (x, (run, caps)) in
            self.residual.chunks_exact_mut(2 * d).zip(capacities.chunks_exact(d)).enumerate()
        {
            run[..x].fill(0.0);
            run[x..x + d].copy_from_slice(caps);
            run[x + d..].fill(0.0);
        }
        Ok(())
    }

    #[inline]
    pub fn node_count(&self) -> usize {
        self.first.len() - 1
    }

    /// The arcs leaving `u` (both directions), in edge-id order.
    #[inline]
    pub fn adj(&self, u: usize) -> Range<u32> {
        self.first[u]..self.first[u + 1]
    }

    /// The reverse arc of `a`; its head is `a`'s tail.
    #[inline]
    pub fn twin(&self, a: u32) -> u32 {
        self.twin[a as usize]
    }

    /// Pushes `amount` along arc `a` (decrementing its residual and
    /// incrementing the twin's).
    #[inline]
    pub fn push(&mut self, a: u32, amount: f64) {
        self.residual[a as usize] -= amount;
        self.residual[self.twin[a as usize] as usize] += amount;
    }

    /// Extracts the per-edge flow assignment accumulated so far.
    ///
    /// Backward residual above the original 0 means pushed flow; numerical
    /// dust below `tol` is clamped to zero. The value is the source's
    /// out-edge flows summed in edge-id order, minus its in-edge flows
    /// summed likewise.
    pub fn flow(&self, source: NodeId, sink: NodeId, tol: f64) -> Flow {
        let pushed = |b: u32| {
            let f = self.residual[b as usize];
            if f.abs() <= tol {
                0.0
            } else {
                f
            }
        };
        let arcs = self.adj(source.index());
        // which of the source's arcs are backward, i.e. carry in-edges
        let mut inward = vec![false; arcs.len()];
        let edge_flow = self
            .back
            .iter()
            .map(|&b| {
                if arcs.contains(&b) {
                    inward[(b - arcs.start) as usize] = true;
                }
                pushed(b)
            })
            .collect();
        let out: f64 =
            arcs.clone().zip(&inward).filter(|(_, &i)| !i).map(|(a, _)| pushed(self.twin(a))).sum();
        let into: f64 = arcs.zip(&inward).filter(|(_, &i)| i).map(|(a, _)| pushed(a)).sum();
        Flow::from_edge_flows(source, sink, out - into, edge_flow)
    }
}

/// Cancels stranded excess by routing it back toward the source.
///
/// Push–relabel variants can finish their main loop with excess parked at
/// vertices lifted above `n` (no residual path to the sink). This "second
/// phase" repeatedly finds a residual path from such a vertex back to the
/// source and cancels the bottleneck, restoring flow conservation.
pub(crate) fn return_excess(
    arcs: &mut ResidualArcs,
    excess: &mut [f64],
    s: usize,
    t: usize,
    tol: f64,
) {
    use std::collections::VecDeque;
    let n = arcs.node_count();
    loop {
        let Some(v) = (0..n).find(|&v| v != s && v != t && excess[v] > tol) else {
            return;
        };
        let mut prev = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        queue.push_back(v as u32);
        prev[v] = u32::MAX - 1;
        let mut found = false;
        'bfs: while let Some(u) = queue.pop_front() {
            for a in arcs.adj(u as usize) {
                let w = arcs.to[a as usize] as usize;
                if prev[w] == u32::MAX && arcs.residual[a as usize] > tol {
                    prev[w] = a;
                    if w == s {
                        found = true;
                        break 'bfs;
                    }
                    queue.push_back(w as u32);
                }
            }
        }
        if !found {
            // no residual path back to source: numerically stuck; zero it
            excess[v] = 0.0;
            continue;
        }
        let mut bottleneck = excess[v];
        let mut w = s;
        while w != v {
            let a = prev[w];
            bottleneck = bottleneck.min(arcs.residual[a as usize]);
            w = arcs.to[arcs.twin(a) as usize] as usize;
        }
        let mut w = s;
        while w != v {
            let a = prev[w];
            arcs.push(a, bottleneck);
            w = arcs.to[arcs.twin(a) as usize] as usize;
        }
        excess[v] -= bottleneck;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    #[test]
    fn arc_pairing_and_push() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(NodeId::new(0), NodeId::new(1), 3.0).unwrap();
        let mut r = ResidualArcs::new(&net);
        assert_eq!(r.residual, vec![3.0, 0.0]);
        assert_eq!((r.twin(0), r.twin(1)), (1, 0));
        r.push(0, 2.0);
        assert_eq!(r.residual, vec![1.0, 2.0]);
        // pushing back along the twin cancels flow
        r.push(1, 1.0);
        assert_eq!(r.residual, vec![2.0, 1.0]);
    }

    #[test]
    fn into_flow_reads_backward_residual() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(NodeId::new(0), NodeId::new(1), 3.0).unwrap();
        net.add_edge(NodeId::new(1), NodeId::new(2), 3.0).unwrap();
        let mut r = ResidualArcs::new(&net);
        r.push(0, 2.5);
        r.push(2, 2.5);
        let flow = r.flow(NodeId::new(0), NodeId::new(2), 1e-12);
        assert_eq!(flow.value(), 2.5);
        assert_eq!(flow.edge_flows(), &[2.5, 2.5]);
    }

    #[test]
    fn complete_layout_matches_network_layout() {
        for n in 2..=12 {
            let net = FlowNetwork::complete(n, |u, v| (u.index() * n + v.index()) as f64).unwrap();
            let built = ResidualArcs::new(&net);
            let mut closed = ResidualArcs::complete(n);
            let caps: Vec<f64> = net.edges().map(|(_, e)| e.capacity).collect();
            closed.load(&caps).unwrap();
            assert_eq!(closed, built, "n = {n}");
        }
    }

    #[test]
    fn load_rejects_bad_capacities_and_resets_residuals() {
        let mut r = ResidualArcs::complete(3);
        r.load(&[1.0; 6]).unwrap();
        r.push(0, 0.5);
        r.load(&[2.0; 6]).unwrap();
        let fresh = FlowNetwork::complete(3, |_, _| 2.0).unwrap();
        assert_eq!(r.residual, ResidualArcs::new(&fresh).residual);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let caps = [1.0, 1.0, bad, 1.0, -2.0, 1.0];
            let err = r.load(&caps).unwrap_err();
            assert!(
                matches!(err, MaxFlowError::InvalidCapacity { value } if value.to_bits() == bad.to_bits()),
                "{err:?}"
            );
        }
    }

    #[test]
    fn tiny_dust_clamped() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        let mut r = ResidualArcs::new(&net);
        r.push(0, 1e-15);
        let flow = r.flow(NodeId::new(0), NodeId::new(1), 1e-12);
        assert_eq!(flow.edge_flows(), &[0.0]);
    }
}
