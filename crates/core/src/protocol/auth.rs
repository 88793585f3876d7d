//! The authentication protocol: cheap verification of expensive answers.
//!
//! Paper §3.2: the verifier never recomputes a max flow. It asks the
//! prover for the response *and the flow functions behind it*, then checks
//!
//! 1. each flow is feasible on the published capacities (`O(m)`),
//! 2. each flow is maximal — the sink is unreachable in the residual graph
//!    (`O(n²)` BFS),
//! 3. the claimed response matches the comparator on the claimed values.
//!
//! Checks 1 and 2 run as one fused check per network that reads the
//! published capacity arrays, the challenge's control bits and the flow's
//! dense edge vector in place: one `O(n²)` pass for feasibility, one BFS
//! for residual reachability, and no graph built per answer. A server
//! gets its parallelism across answers, from its worker pool.
//!
//! A genuine device produces the answer in execution time `O(n)`; an
//! impostor without the device must solve max-flow (`Ω(n²)`), which the
//! verifier's response-deadline rules out.

use serde::{Deserialize, Serialize};

use ppuf_analog::units::Seconds;
use ppuf_maxflow::{Flow, MaxFlowError, NodeId};

use crate::challenge::Challenge;
use crate::crossbar::edge_index;
use crate::device::PpufExecutor;
use crate::error::PpufError;
use crate::public_model::{CapacityRows, NetworkSide, PublicModel};

/// Default absolute current tolerance for the verifier's feasibility and
/// optimality checks (see [`Verifier::with_tolerance`]).
///
/// The device's physical current differs from the published model by the
/// Fig 6 inaccuracy (< 1 % of a tens-of-nA per-edge scale), so the
/// verifier must accept answers within that band; 1 nA is two decades
/// above numerical noise and well below any single edge capacity.
pub const VERIFY_TOLERANCE: f64 = 1e-9;

/// The prover's answer to one challenge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProverAnswer {
    /// Claimed response bit.
    pub response: bool,
    /// Claimed max flow on network A.
    pub flow_a: Flow,
    /// Claimed max flow on network B.
    pub flow_b: Flow,
}

/// An honest prover: answers from the device's fast path.
///
/// # Errors
///
/// Propagates device errors; [`PpufError::UnresolvableResponse`] if the
/// comparator cannot decide.
pub fn prove(
    executor: &PpufExecutor<'_>,
    challenge: &Challenge,
) -> Result<ProverAnswer, PpufError> {
    let outcome = executor.execute_flow_detailed(challenge)?;
    let response = outcome.response.ok_or(PpufError::UnresolvableResponse {
        difference: (outcome.current_a.value() - outcome.current_b.value()).abs(),
        resolution: executor.device().config().comparator.resolution.value(),
    })?;
    Ok(ProverAnswer { response, flow_a: outcome.flow_a, flow_b: outcome.flow_b })
}

/// Per-network verification findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkVerdict {
    /// Flow satisfies capacity + conservation on the public model and was
    /// computed for the challenge's terminals.
    pub feasible: bool,
    /// No augmenting path remains (the optimality certificate).
    pub maximal: bool,
}

/// Outcome of verifying one [`ProverAnswer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Findings for network A.
    pub network_a: NetworkVerdict,
    /// Findings for network B.
    pub network_b: NetworkVerdict,
    /// Claimed response agrees with the comparator on the claimed values.
    pub response_consistent: bool,
    /// Answer arrived within the deadline (`true` when no deadline was
    /// enforced).
    pub within_deadline: bool,
}

impl VerificationReport {
    /// `true` iff every check passed.
    pub fn accepted(&self) -> bool {
        self.network_a.feasible
            && self.network_a.maximal
            && self.network_b.feasible
            && self.network_b.maximal
            && self.response_consistent
            && self.within_deadline
    }
}

/// The verifier: holds only the public model.
#[derive(Debug, Clone)]
pub struct Verifier {
    model: PublicModel,
    /// Why `model` failed [`PublicModel::validate`]; every verification
    /// reports it instead of indexing into an inconsistent model.
    model_error: Option<PpufError>,
    /// Optional response deadline (the ESG enforcement knob).
    deadline: Option<Seconds>,
    /// Absolute current tolerance for feasibility/optimality checks.
    tolerance: f64,
}

impl Verifier {
    /// Creates a verifier over a published model with the default
    /// [`VERIFY_TOLERANCE`].
    ///
    /// The model is validated once here; if it is inconsistent (say, a
    /// deserialized model that bypassed [`PublicModel::new`]), every
    /// [`verify`](Self::verify) call returns the validation error.
    pub fn new(model: PublicModel) -> Self {
        let model_error = model.validate().err();
        Verifier { model, model_error, deadline: None, tolerance: VERIFY_TOLERANCE }
    }

    /// Rejects answers that took longer than `deadline` (pass the measured
    /// elapsed time to [`verify_timed`](Self::verify_timed)).
    pub fn with_deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the absolute current tolerance (in amperes) used by the
    /// feasibility and optimality checks.
    ///
    /// Deployments can tighten this below [`VERIFY_TOLERANCE`] when their
    /// characterization is better than the paper's Fig 6 bound, or loosen
    /// it for noisier devices; it must stay positive because exact `f64`
    /// equality is meaningless on summed currents.
    ///
    /// # Panics
    ///
    /// Panics unless `tolerance` is finite and positive.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "verify tolerance must be finite and positive, got {tolerance}"
        );
        self.tolerance = tolerance;
        self
    }

    /// The absolute current tolerance in effect.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The verifier's model.
    pub fn model(&self) -> &PublicModel {
        &self.model
    }

    /// Verifies an answer with no timing information.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] if the model is inconsistent,
    /// [`PpufError::ChallengeMismatch`] or shape errors if the answer does
    /// not even parse against the model; check *failures* are reported in
    /// the `Ok` report instead.
    pub fn verify(
        &self,
        challenge: &Challenge,
        answer: &ProverAnswer,
    ) -> Result<VerificationReport, PpufError> {
        self.verify_timed(challenge, answer, None)
    }

    /// Verifies an answer that took `elapsed` to arrive.
    ///
    /// # Errors
    ///
    /// See [`verify`](Self::verify).
    pub fn verify_timed(
        &self,
        challenge: &Challenge,
        answer: &ProverAnswer,
        elapsed: Option<Seconds>,
    ) -> Result<VerificationReport, PpufError> {
        if let Some(e) = &self.model_error {
            return Err(e.clone());
        }
        let network_a = self.verify_network(NetworkSide::A, challenge, &answer.flow_a)?;
        let network_b = self.verify_network(NetworkSide::B, challenge, &answer.flow_b)?;
        let comparator_says = self.model.comparator().compare(
            ppuf_analog::units::Amps(answer.flow_a.value()),
            ppuf_analog::units::Amps(answer.flow_b.value()),
        );
        let response_consistent = comparator_says == Some(answer.response);
        let within_deadline = match (self.deadline, elapsed) {
            (Some(deadline), Some(elapsed)) => elapsed.value() <= deadline.value(),
            (Some(_), None) => false,
            (None, _) => true,
        };
        Ok(VerificationReport { network_a, network_b, response_consistent, within_deadline })
    }

    /// The fused per-network check over the published arrays.
    ///
    /// Pass 1 walks the edges once in dense order, applying
    /// [`Flow::check_feasible`]'s capacity predicate and summing each
    /// node's inflow and outflow in the order `check_feasible` does, so
    /// conservation and value results match it bit for bit. Pass 2 is a
    /// BFS from the challenge's source: arc `u → v` exists iff
    /// `c(u,v) − f(u,v) > τ` or `f(v,u) > τ`, the per-direction arcs of
    /// the residual graph.
    fn verify_network(
        &self,
        side: NetworkSide,
        challenge: &Challenge,
        flow: &Flow,
    ) -> Result<NetworkVerdict, PpufError> {
        self.model.check_challenge(challenge)?;
        let n = self.model.nodes();
        let flows = flow.edge_flows();
        if flows.len() != n * (n - 1) {
            return Err(PpufError::Simulation(MaxFlowError::FlowShapeMismatch {
                flow_edges: flows.len(),
                network_edges: n * (n - 1),
            }));
        }
        let rows = CapacityRows::new(
            self.model.grid(),
            self.model.capacities(side),
            &challenge.control_bits,
        );
        let tol = self.tolerance;
        let (source, sink) = (challenge.source.index(), challenge.sink.index());

        let mut within_capacity = true;
        let mut inflow = vec![0.0; n];
        let mut outflow = vec![0.0; n];
        for (u, out) in outflow.iter_mut().enumerate() {
            rows.scan(u, |v, k, c| {
                let f = flows[k];
                if f < -tol || f > c + tol || !f.is_finite() {
                    within_capacity = false;
                }
                *out += f;
                inflow[v] += f;
                true
            });
        }
        let conserved =
            !(0..n).any(|v| v != source && v != sink && (inflow[v] - outflow[v]).abs() > tol);
        let value = flow.value();
        let value_mismatch =
            (outflow[source] - inflow[source] - value).abs() > tol.max(value.abs() * 1e-9);
        let terminals_bound = flow.source() == challenge.source && flow.sink() == challenge.sink;
        let feasible = terminals_bound && within_capacity && conserved && !value_mismatch;

        let node = |i: usize| NodeId::new(i as u32);
        let mut seen = vec![false; n];
        let mut queue = Vec::with_capacity(n);
        seen[source] = true;
        queue.push(source);
        let mut head = 0;
        let mut sink_reached = false;
        while !sink_reached && head < queue.len() {
            let u = queue[head];
            head += 1;
            rows.scan(u, |v, k, c| {
                if seen[v] {
                    return true;
                }
                if c - flows[k] > tol || flows[edge_index(n, node(v), node(u))] > tol {
                    sink_reached = v == sink;
                    seen[v] = true;
                    queue.push(v);
                }
                !sink_reached
            });
        }
        Ok(NetworkVerdict { feasible, maximal: !sink_reached })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Ppuf, PpufConfig};
    use ppuf_analog::variation::Environment;
    use ppuf_maxflow::{Dinic, FlowNetwork};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (Ppuf, Challenge) {
        let ppuf = Ppuf::generate(PpufConfig::paper(8, 2), 21).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let challenge = ppuf.challenge_space().random(&mut rng);
        (ppuf, challenge)
    }

    #[test]
    fn honest_prover_accepted() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let answer = prove(&executor, &challenge).unwrap();
        let verifier = Verifier::new(ppuf.public_model().unwrap());
        let report = verifier.verify(&challenge, &answer).unwrap();
        assert!(report.accepted(), "{report:?}");
    }

    #[test]
    fn suboptimal_flow_rejected() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let mut answer = prove(&executor, &challenge).unwrap();
        // lazy prover: claims the zero flow for network A
        let model = ppuf.public_model().unwrap();
        let edges = answer.flow_a.edge_flows().len();
        answer.flow_a =
            Flow::from_edge_flows(challenge.source, challenge.sink, 0.0, vec![0.0; edges]);
        let verifier = Verifier::new(model);
        let report = verifier.verify(&challenge, &answer).unwrap();
        assert!(report.network_a.feasible);
        assert!(!report.network_a.maximal);
        assert!(!report.accepted());
    }

    #[test]
    fn infeasible_flow_rejected() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let mut answer = prove(&executor, &challenge).unwrap();
        // cheating prover: inflates every edge flow 10×
        let inflated: Vec<f64> = answer.flow_a.edge_flows().iter().map(|f| f * 10.0).collect();
        answer.flow_a = Flow::from_edge_flows(
            challenge.source,
            challenge.sink,
            answer.flow_a.value() * 10.0,
            inflated,
        );
        let verifier = Verifier::new(ppuf.public_model().unwrap());
        let report = verifier.verify(&challenge, &answer).unwrap();
        assert!(!report.network_a.feasible);
        assert!(!report.accepted());
    }

    #[test]
    fn flipped_response_rejected() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let mut answer = prove(&executor, &challenge).unwrap();
        answer.response = !answer.response;
        let verifier = Verifier::new(ppuf.public_model().unwrap());
        let report = verifier.verify(&challenge, &answer).unwrap();
        assert!(!report.response_consistent);
        assert!(!report.accepted());
    }

    #[test]
    fn tightened_tolerance_rejects_marginal_flows() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let mut answer = prove(&executor, &challenge).unwrap();
        // add 5e-10 A onto an idle edge between two internal nodes: the
        // conservation violation at its endpoints is exactly 5e-10 —
        // inside the default 1e-9 band, far outside a tightened 1e-12 one
        let model = ppuf.public_model().unwrap();
        let violation = 5e-10;
        let internal = |v: ppuf_maxflow::NodeId| v != challenge.source && v != challenge.sink;
        let edge_idx = crate::crossbar::edge_order(model.nodes())
            .enumerate()
            .position(|(k, (from, to))| {
                let bit = challenge.control_bits[model.grid().cell_of_edge(from, to)];
                internal(from)
                    && internal(to)
                    && answer.flow_a.edge_flows()[k] == 0.0
                    && model.capacities(NetworkSide::A).capacity(k, bit) > 1e-9
            })
            .expect("an idle internal edge exists on a complete graph");
        let mut flows = answer.flow_a.edge_flows().to_vec();
        flows[edge_idx] += violation;
        answer.flow_a =
            Flow::from_edge_flows(challenge.source, challenge.sink, answer.flow_a.value(), flows);

        let lenient = Verifier::new(model.clone());
        assert_eq!(lenient.tolerance(), VERIFY_TOLERANCE);
        let report = lenient.verify(&challenge, &answer).unwrap();
        assert!(report.network_a.feasible, "default tolerance must absorb the nudge");

        let strict = Verifier::new(model).with_tolerance(1e-12);
        let report = strict.verify(&challenge, &answer).unwrap();
        assert!(!report.network_a.feasible, "tightened tolerance must reject it");
        assert!(!report.accepted());
    }

    #[test]
    fn flows_for_other_terminals_rejected() {
        // a prover answers challenge (s, t) with exact max flows for
        // (s', t): the verifier must bind the flows to the challenge's
        // terminals, or it accepts some with the wrong response bit
        let (ppuf, _) = setup();
        let model = ppuf.public_model().unwrap();
        let verifier = Verifier::new(model.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let (mut forgeries, mut wrong_bits) = (0, 0);
        for _ in 0..200 {
            let challenge = ppuf.challenge_space().random(&mut rng);
            let truth = model.simulate(&challenge, &Dinic::new()).unwrap().response;
            for other in 0..model.nodes() as u32 {
                let other = ppuf_maxflow::NodeId::new(other);
                if other == challenge.source || other == challenge.sink {
                    continue;
                }
                let moved = Challenge { source: other, ..challenge.clone() };
                let outcome = model.simulate(&moved, &Dinic::new()).unwrap();
                let Some(response) = outcome.response else { continue };
                let answer =
                    ProverAnswer { response, flow_a: outcome.flow_a, flow_b: outcome.flow_b };
                let report = verifier.verify(&challenge, &answer).unwrap();
                assert!(!report.network_a.feasible && !report.network_b.feasible, "{report:?}");
                assert!(!report.accepted());
                forgeries += 1;
                wrong_bits += usize::from(truth != Some(response));
            }
        }
        assert_eq!(forgeries, 1200);
        assert!(wrong_bits > 0, "the forgeries must include wrong response bits");
    }

    #[test]
    fn flow_terminals_must_match_the_challenge() {
        // honest edge flows under a relabelled sink: conservation, value
        // and the residual BFS all use the challenge's terminals and pass,
        // so only the terminal binding catches the mislabel
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let mut answer = prove(&executor, &challenge).unwrap();
        let other = (0..8)
            .map(ppuf_maxflow::NodeId::new)
            .find(|&v| v != challenge.source && v != challenge.sink)
            .unwrap();
        let flow = &answer.flow_a;
        answer.flow_a =
            Flow::from_edge_flows(flow.source(), other, flow.value(), flow.edge_flows().to_vec());
        let report =
            Verifier::new(ppuf.public_model().unwrap()).verify(&challenge, &answer).unwrap();
        assert_eq!(report.network_a, NetworkVerdict { feasible: false, maximal: true });
        assert_eq!(report.network_b, NetworkVerdict { feasible: true, maximal: true });
        assert!(!report.accepted());
    }

    #[test]
    fn inconsistent_model_is_an_error_not_a_panic() {
        // a deserialized model bypasses PublicModel::new: one claiming 9
        // nodes over an 8-node grid and 8-node capacity vectors would
        // index the grid out of range
        let (ppuf, _) = setup();
        let json = serde_json::to_string(&ppuf.public_model().unwrap()).unwrap();
        assert!(json.starts_with("{\"nodes\":8,"), "{json:.40}");
        let hostile: PublicModel =
            serde_json::from_str(&json.replacen("\"nodes\":8", "\"nodes\":9", 1)).unwrap();
        assert!(matches!(hostile.validate(), Err(PpufError::InvalidConfig { .. })));
        let space = crate::challenge::ChallengeSpace::new(9, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let verifier = Verifier::new(hostile);
        for _ in 0..20 {
            let challenge = space.random(&mut rng);
            let net = FlowNetwork::complete(9, |_, _| 0.0).unwrap();
            let flow = Flow::zero(&net, challenge.source, challenge.sink);
            let answer = ProverAnswer { response: true, flow_a: flow.clone(), flow_b: flow };
            assert!(matches!(
                verifier.verify(&challenge, &answer),
                Err(PpufError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nonpositive_tolerance_rejected() {
        let (ppuf, _) = setup();
        let _ = Verifier::new(ppuf.public_model().unwrap()).with_tolerance(0.0);
    }

    #[test]
    fn deadline_enforced() {
        let (ppuf, challenge) = setup();
        let executor = ppuf.executor(Environment::NOMINAL);
        let answer = prove(&executor, &challenge).unwrap();
        let verifier = Verifier::new(ppuf.public_model().unwrap()).with_deadline(Seconds(1e-3));
        // answer arrived fast: accepted
        let fast = verifier.verify_timed(&challenge, &answer, Some(Seconds(1e-4))).unwrap();
        assert!(fast.accepted());
        // answer arrived slow (attacker simulated): rejected
        let slow = verifier.verify_timed(&challenge, &answer, Some(Seconds(1.0))).unwrap();
        assert!(!slow.accepted());
        // no timing provided while a deadline exists: rejected
        let untimed = verifier.verify(&challenge, &answer).unwrap();
        assert!(!untimed.accepted());
    }
}
