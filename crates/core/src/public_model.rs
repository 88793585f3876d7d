//! The published simulation model of a PPUF.
//!
//! A *public* PUF keeps no secrets: after fabrication, the maker
//! characterizes every building block's saturation current under both
//! challenge-bit biases and publishes the numbers. Anyone can then compute
//! any response by solving two max-flow problems — it just takes
//! asymptotically longer than asking the chip (the ESG).
//!
//! This module is that artifact: per-edge capacities for both networks and
//! both input bits, plus the machinery to simulate a challenge with any
//! [`MaxFlowSolver`].

use serde::{Deserialize, Serialize};

use ppuf_analog::units::Amps;
use ppuf_maxflow::{CompleteGraph, Dinic, Flow, FlowNetwork, MaxFlowSolver};

use crate::challenge::Challenge;
use crate::comparator::Comparator;
use crate::error::PpufError;
use crate::grid::GridPartition;

/// Which of the PPUF's two nominally identical networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkSide {
    /// Network A (the `+` comparator input).
    A,
    /// Network B (the `−` comparator input).
    B,
}

impl NetworkSide {
    /// Both sides, A first.
    pub const BOTH: [NetworkSide; 2] = [NetworkSide::A, NetworkSide::B];
}

/// Per-network published capacities: one value per edge (dense-index
/// order) per challenge bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishedCapacities {
    /// Capacities when the controlling challenge bit is 0.
    pub bit0: Vec<f64>,
    /// Capacities when the controlling challenge bit is 1.
    pub bit1: Vec<f64>,
}

impl PublishedCapacities {
    /// Builds from per-bit capacity vectors.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] if the vectors' lengths differ.
    pub fn new(bit0: Vec<Amps>, bit1: Vec<Amps>) -> Result<Self, PpufError> {
        if bit0.len() != bit1.len() {
            return Err(PpufError::InvalidConfig {
                reason: format!("capacity vectors differ: {} vs {}", bit0.len(), bit1.len()),
            });
        }
        Ok(PublishedCapacities {
            bit0: bit0.into_iter().map(|a| a.value()).collect(),
            bit1: bit1.into_iter().map(|a| a.value()).collect(),
        })
    }

    /// Capacity of edge `k` under challenge bit `bit`.
    pub fn capacity(&self, k: usize, bit: bool) -> f64 {
        self.for_bit(bit)[k]
    }

    /// Every edge's capacity under challenge bit `bit`, in dense-index
    /// order.
    #[inline]
    pub(crate) fn for_bit(&self, bit: bool) -> &[f64] {
        if bit {
            &self.bit1
        } else {
            &self.bit0
        }
    }
}

/// Result of simulating one challenge on the public model.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Max-flow value (source current) of network A.
    pub current_a: Amps,
    /// Max-flow value (source current) of network B.
    pub current_b: Amps,
    /// Comparator verdict; `None` if inside the resolution dead-zone.
    pub response: Option<bool>,
    /// The full flow function on network A (for the residual-graph
    /// verification protocol).
    pub flow_a: Flow,
    /// The full flow function on network B.
    pub flow_b: Flow,
}

impl SimulationOutcome {
    /// The outcome of two solved networks under `comparator`.
    pub(crate) fn new(flow_a: Flow, flow_b: Flow, comparator: &Comparator) -> Self {
        let (current_a, current_b) = (Amps(flow_a.value()), Amps(flow_b.value()));
        SimulationOutcome {
            current_a,
            current_b,
            response: comparator.compare(current_a, current_b),
            flow_a,
            flow_b,
        }
    }
}

/// One network's capacities under one challenge, read row by row in dense
/// order without building a network: the one place a challenge's control
/// bits select per-edge capacities.
pub(crate) struct CapacityRows<'a> {
    nodes: usize,
    /// Nodes per grid stripe.
    stripe: usize,
    /// Grid dimension `l`.
    grid: usize,
    bits: &'a [bool],
    caps: &'a PublishedCapacities,
}

impl<'a> CapacityRows<'a> {
    /// The rows of `caps` under control bits `bits`, which must hold one
    /// bit per cell of `grid`.
    pub(crate) fn new(
        grid: &GridPartition,
        caps: &'a PublishedCapacities,
        bits: &'a [bool],
    ) -> Self {
        let nodes = grid.nodes();
        CapacityRows { nodes, stripe: nodes.div_ceil(grid.grid()), grid: grid.grid(), bits, caps }
    }

    /// Calls `visit(v, k, c)` for every edge `u → v` in dense order, with
    /// `k` its dense index and `c` its capacity under the challenge bit of
    /// its grid cell, until `visit` returns `false`.
    ///
    /// Walking the destinations stripe by stripe fixes the grid cell, and
    /// so the capacity vector, for a whole run of edges.
    #[inline]
    pub(crate) fn scan(&self, u: usize, mut visit: impl FnMut(usize, usize, f64) -> bool) {
        let col = u / self.stripe;
        let mut k = u * (self.nodes - 1);
        for (row, start) in (0..self.nodes).step_by(self.stripe).enumerate() {
            let caps = self.caps.for_bit(self.bits[row * self.grid + col]);
            for v in start..(start + self.stripe).min(self.nodes) {
                if v == u {
                    continue;
                }
                if !visit(v, k, caps[k]) {
                    return;
                }
                k += 1;
            }
        }
    }

    /// Writes every edge's capacity into `out`, in dense order.
    fn fill(&self, out: &mut [f64]) {
        for u in 0..self.nodes {
            self.scan(u, |_, k, c| {
                out[k] = c;
                true
            });
        }
    }

    /// The network these capacities define.
    pub(crate) fn network(&self) -> Result<FlowNetwork, PpufError> {
        let mut caps = vec![0.0; self.nodes * (self.nodes - 1)];
        self.fill(&mut caps);
        let mut next = caps.into_iter();
        FlowNetwork::complete(self.nodes, |_, _| next.next().expect("one capacity per edge"))
            .map_err(PpufError::Simulation)
    }
}

/// Both networks' max flows under a challenge already checked against
/// `grid`: [`Dinic::max_flow_complete`] on each side's selected
/// capacities, with one capacity buffer and one residual layout for both.
pub(crate) fn dinic_pair(
    grid: &GridPartition,
    sides: [&PublishedCapacities; 2],
    challenge: &Challenge,
) -> Result<(Flow, Flow), PpufError> {
    let n = grid.nodes();
    let mut caps = vec![0.0; n * (n - 1)];
    let mut graph = CompleteGraph::new(n);
    let mut solve = |published| {
        CapacityRows::new(grid, published, &challenge.control_bits).fill(&mut caps);
        Dinic::new()
            .max_flow_complete(&mut graph, &caps, challenge.source, challenge.sink)
            .map_err(PpufError::Simulation)
    };
    Ok((solve(sides[0])?, solve(sides[1])?))
}

/// The published model of one PPUF: everything an attacker (or verifier)
/// legitimately knows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublicModel {
    nodes: usize,
    grid: GridPartition,
    capacities_a: PublishedCapacities,
    capacities_b: PublishedCapacities,
    comparator: Comparator,
}

impl PublicModel {
    /// Assembles a public model from published capacities.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] if the model fails
    /// [`validate`](Self::validate).
    pub fn new(
        nodes: usize,
        grid: GridPartition,
        capacities_a: PublishedCapacities,
        capacities_b: PublishedCapacities,
        comparator: Comparator,
    ) -> Result<Self, PpufError> {
        let model = PublicModel { nodes, grid, capacities_a, capacities_b, comparator };
        model.validate()?;
        Ok(model)
    }

    /// Checks that the model is internally consistent: `n ≥ 2`, a grid
    /// over the same `n` nodes with `1 ≤ l ≤ n`, and four capacity vectors
    /// of `n(n−1)` finite, non-negative entries.
    ///
    /// [`new`](Self::new) calls this; a model that arrives deserialized
    /// (a wire `Register`) bypasses `new` and must be validated before
    /// anything indexes into it.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), PpufError> {
        let invalid = |reason: String| Err(PpufError::InvalidConfig { reason });
        let n = self.nodes;
        if n < 2 {
            return invalid(format!("a public model needs at least 2 nodes, got {n}"));
        }
        if self.grid.nodes() != n {
            return invalid(format!("grid covers {} nodes, model has {n}", self.grid.nodes()));
        }
        if self.grid.grid() == 0 || self.grid.grid() > n {
            return invalid(format!("grid {} must be in 1..={n}", self.grid.grid()));
        }
        let m = n * (n - 1);
        for side in NetworkSide::BOTH {
            let caps = self.capacities(side);
            for (bit, values) in [(0, &caps.bit0), (1, &caps.bit1)] {
                if values.len() != m {
                    return invalid(format!(
                        "network {side:?} publishes {} bit-{bit} capacities, expected {m}",
                        values.len()
                    ));
                }
                if let Some(k) = values.iter().position(|c| !c.is_finite() || *c < 0.0) {
                    return invalid(format!(
                        "network {side:?} bit-{bit} capacity {k} is {}, not a finite \
                         non-negative current",
                        values[k]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of circuit nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The grid partition mapping challenge bits to edges.
    pub fn grid(&self) -> &GridPartition {
        &self.grid
    }

    /// The published comparator parameters.
    pub fn comparator(&self) -> &Comparator {
        &self.comparator
    }

    /// The published capacities of one network.
    pub fn capacities(&self, side: NetworkSide) -> &PublishedCapacities {
        match side {
            NetworkSide::A => &self.capacities_a,
            NetworkSide::B => &self.capacities_b,
        }
    }

    /// Instantiates the max-flow problem one challenge poses to one
    /// network.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::ChallengeMismatch`] for a challenge of the
    /// wrong shape, or a simulation error if capacities are invalid.
    pub fn flow_network(
        &self,
        side: NetworkSide,
        challenge: &Challenge,
    ) -> Result<FlowNetwork, PpufError> {
        self.check_challenge(challenge)?;
        CapacityRows::new(&self.grid, self.capacities(side), &challenge.control_bits).network()
    }

    /// Simulates a challenge: two max-flow solves plus the comparator.
    ///
    /// This is what an attacker must do per challenge — the expensive side
    /// of the ESG. [`simulate_dinic`](Self::simulate_dinic) gives the same
    /// result as `simulate(challenge, &Dinic::new())`, faster.
    ///
    /// # Errors
    ///
    /// Propagates challenge and solver errors.
    pub fn simulate<S: MaxFlowSolver>(
        &self,
        challenge: &Challenge,
        solver: &S,
    ) -> Result<SimulationOutcome, PpufError> {
        let net_a = self.flow_network(NetworkSide::A, challenge)?;
        let net_b = self.flow_network(NetworkSide::B, challenge)?;
        let flow_a = solver
            .max_flow(&net_a, challenge.source, challenge.sink)
            .map_err(PpufError::Simulation)?;
        let flow_b = solver
            .max_flow(&net_b, challenge.source, challenge.sink)
            .map_err(PpufError::Simulation)?;
        Ok(SimulationOutcome::new(flow_a, flow_b, &self.comparator))
    }

    /// Simulates a challenge with the fastest simulator in this crate:
    /// [`Dinic::max_flow_complete`] on each network's dense capacities,
    /// with no network built. Bit-identical to
    /// `simulate(challenge, &Dinic::new())`.
    ///
    /// # Errors
    ///
    /// Propagates challenge and solver errors.
    pub fn simulate_dinic(&self, challenge: &Challenge) -> Result<SimulationOutcome, PpufError> {
        self.check_challenge(challenge)?;
        let (flow_a, flow_b) =
            dinic_pair(&self.grid, [&self.capacities_a, &self.capacities_b], challenge)?;
        Ok(SimulationOutcome::new(flow_a, flow_b, &self.comparator))
    }

    /// Convenience: simulate with [`simulate_dinic`](Self::simulate_dinic)
    /// and return just the response bit.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; returns
    /// [`PpufError::UnresolvableResponse`] if the comparator cannot
    /// resolve the difference.
    pub fn response(&self, challenge: &Challenge) -> Result<bool, PpufError> {
        let outcome = self.simulate_dinic(challenge)?;
        outcome.response.ok_or(PpufError::UnresolvableResponse {
            difference: (outcome.current_a.value() - outcome.current_b.value()).abs(),
            resolution: self.comparator.resolution.value(),
        })
    }

    /// Checks a challenge's shape against the model: terminals in range and
    /// distinct, one control bit per grid cell.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::ChallengeMismatch`] naming what does not fit.
    pub(crate) fn check_challenge(&self, challenge: &Challenge) -> Result<(), PpufError> {
        if challenge.source.index() >= self.nodes
            || challenge.sink.index() >= self.nodes
            || challenge.source == challenge.sink
        {
            return Err(PpufError::ChallengeMismatch {
                reason: format!("bad terminals ({}, {})", challenge.source, challenge.sink),
            });
        }
        if challenge.control_bits.len() != self.grid.cell_count() {
            return Err(PpufError::ChallengeMismatch {
                reason: format!(
                    "expected {} control bits, got {}",
                    self.grid.cell_count(),
                    challenge.control_bits.len()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppuf_maxflow::NodeId;

    fn tiny_model() -> PublicModel {
        let nodes = 4;
        let m = nodes * (nodes - 1);
        let grid = GridPartition::new(nodes, 2).unwrap();
        let caps = |base: f64| PublishedCapacities {
            bit0: (0..m).map(|k| base + k as f64 * 0.1).collect(),
            bit1: (0..m).map(|k| 2.0 * base + k as f64 * 0.1).collect(),
        };
        PublicModel::new(nodes, grid, caps(1.0), caps(1.1), Comparator::new(Amps(1e-9))).unwrap()
    }

    fn tiny_challenge(bits: Vec<bool>) -> Challenge {
        Challenge { source: NodeId::new(0), sink: NodeId::new(3), control_bits: bits }
    }

    #[test]
    fn validates_capacity_length() {
        let grid = GridPartition::new(4, 2).unwrap();
        let short = PublishedCapacities { bit0: vec![1.0; 3], bit1: vec![1.0; 3] };
        assert!(PublicModel::new(4, grid, short.clone(), short, Comparator::default()).is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_models() {
        let good = tiny_model();
        assert!(good.validate().is_ok());
        let mut cases = Vec::new();
        let mut m = good.clone();
        m.nodes = 5;
        cases.push(m);
        let mut m = good.clone();
        m.nodes = 1;
        m.grid = GridPartition::new(1, 1).unwrap();
        cases.push(m);
        let mut m = good.clone();
        m.grid = serde_json::from_str(r#"{"nodes":4,"grid":0}"#).unwrap();
        cases.push(m);
        let mut m = good.clone();
        m.capacities_b.bit1.pop();
        cases.push(m);
        for bad in [f64::NAN, f64::INFINITY, -1e-12] {
            let mut m = good.clone();
            m.capacities_a.bit1[5] = bad;
            cases.push(m);
        }
        for m in cases {
            assert!(matches!(m.validate(), Err(PpufError::InvalidConfig { .. })), "accepted {m:?}");
        }
    }

    #[test]
    fn published_capacities_shape_checked() {
        assert!(PublishedCapacities::new(vec![Amps(1.0)], vec![Amps(1.0), Amps(2.0)]).is_err());
        let ok = PublishedCapacities::new(vec![Amps(1.0)], vec![Amps(2.0)]).unwrap();
        assert_eq!(ok.capacity(0, false), 1.0);
        assert_eq!(ok.capacity(0, true), 2.0);
    }

    #[test]
    fn flow_network_uses_challenge_bits() {
        let model = tiny_model();
        let all0 = tiny_challenge(vec![false; 4]);
        let all1 = tiny_challenge(vec![true; 4]);
        let n0 = model.flow_network(NetworkSide::A, &all0).unwrap();
        let n1 = model.flow_network(NetworkSide::A, &all1).unwrap();
        // bit-1 capacities are strictly larger in the tiny model
        assert!(n1.total_capacity() > n0.total_capacity());
    }

    #[test]
    fn simulate_produces_consistent_response() {
        let model = tiny_model();
        let challenge = tiny_challenge(vec![true, false, true, false]);
        let outcome = model.simulate(&challenge, &Dinic::new()).unwrap();
        // B has strictly larger capacities everywhere → B carries more
        assert!(outcome.current_b > outcome.current_a);
        assert_eq!(outcome.response, Some(false));
        assert!(!model.response(&challenge).unwrap());
    }

    #[test]
    fn rejects_malformed_challenges() {
        let model = tiny_model();
        let mut bad = tiny_challenge(vec![true; 4]);
        bad.sink = bad.source;
        assert!(model.simulate(&bad, &Dinic::new()).is_err());
        let short = tiny_challenge(vec![true; 2]);
        assert!(model.simulate(&short, &Dinic::new()).is_err());
    }

    #[test]
    fn model_is_publishable() {
        // the model is "published": it must implement Serialize/Deserialize
        fn assert_serializable<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serializable::<PublicModel>();
    }
}
