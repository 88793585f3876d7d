//! The fused verifier against the graph-building reference.
//!
//! `Verifier::verify` checks feasibility and residual reachability in place
//! over the published capacity arrays. The oracle here does it the long
//! way — build the `FlowNetwork`, run `Flow::check_feasible`, and extract
//! the `MinCut` the residual BFS induces — and every per-network verdict
//! and every error must come out identical, on honest, scaled, nudged and
//! hostile flows alike.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use ppuf_analog::units::Amps;
use ppuf_core::comparator::Comparator;
use ppuf_core::grid::GridPartition;
use ppuf_core::protocol::auth::{NetworkVerdict, ProverAnswer, Verifier};
use ppuf_core::public_model::{NetworkSide, PublicModel, PublishedCapacities};
use ppuf_core::{Challenge, PpufError};
use ppuf_maxflow::{Dinic, EdgeId, Flow, FlowNetwork, MaxFlowSolver, MinCut, NodeId};

/// The reference per-network check: materialize both graphs.
fn oracle(
    model: &PublicModel,
    side: NetworkSide,
    challenge: &Challenge,
    flow: &Flow,
    tol: f64,
) -> Result<NetworkVerdict, PpufError> {
    let net = model.flow_network(side, challenge)?;
    let feasible = flow.check_feasible(&net, tol)?.is_feasible();
    let cut = MinCut::from_max_flow(&net, flow, tol)?;
    let maximal = !cut.source_side.contains(&challenge.sink);
    Ok(NetworkVerdict { feasible, maximal })
}

/// Both networks through the oracle, in the verifier's order.
fn oracle_pair(
    model: &PublicModel,
    challenge: &Challenge,
    answer: &ProverAnswer,
    tol: f64,
) -> Result<(NetworkVerdict, NetworkVerdict), PpufError> {
    Ok((
        oracle(model, NetworkSide::A, challenge, &answer.flow_a, tol)?,
        oracle(model, NetworkSide::B, challenge, &answer.flow_b, tol)?,
    ))
}

fn fused_pair(
    verifier: &Verifier,
    challenge: &Challenge,
    answer: &ProverAnswer,
) -> Result<(NetworkVerdict, NetworkVerdict), PpufError> {
    let report = verifier.verify(challenge, answer)?;
    Ok((report.network_a, report.network_b))
}

/// A random model: capacities at the device's tens-of-nA scale, about a
/// fifth of them dead (zero), so saturated and idle edges both occur.
fn random_model(n: usize, grid: usize, rng: &mut ChaCha8Rng) -> PublicModel {
    let m = n * (n - 1);
    let mut caps = || -> Vec<f64> {
        (0..m).map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.0..5e-8) }).collect()
    };
    let a = PublishedCapacities { bit0: caps(), bit1: caps() };
    let b = PublishedCapacities { bit0: caps(), bit1: caps() };
    let grid = GridPartition::new(n, grid).expect("1 <= grid <= n");
    PublicModel::new(n, grid, a, b, Comparator::new(Amps(1e-9))).expect("consistent model")
}

fn random_challenge(model: &PublicModel, rng: &mut ChaCha8Rng) -> Challenge {
    let n = model.nodes() as u32;
    let source = rng.gen_range(0..n);
    let sink = (source + rng.gen_range(1..n)) % n;
    Challenge {
        source: NodeId::new(source),
        sink: NodeId::new(sink),
        control_bits: (0..model.grid().cell_count()).map(|_| rng.gen_bool(0.5)).collect(),
    }
}

fn with_flows(flow: &Flow, value: f64, edge_flows: Vec<f64>) -> Flow {
    Flow::from_edge_flows(flow.source(), flow.sink(), value, edge_flows)
}

fn scaled(flow: &Flow, factor: f64) -> Flow {
    let edges = flow.edge_flows().iter().map(|f| f * factor).collect();
    with_flows(flow, flow.value() * factor, edges)
}

fn nudged(flow: &Flow, k: usize, delta: f64) -> Flow {
    let mut edges = flow.edge_flows().to_vec();
    edges[k] += delta;
    with_flows(flow, flow.value(), edges)
}

fn overwritten(flow: &Flow, k: usize, value: f64) -> Flow {
    let mut edges = flow.edge_flows().to_vec();
    edges[k] = value;
    with_flows(flow, flow.value(), edges)
}

/// The id of edge `from → to`.
fn edge_id(net: &FlowNetwork, from: NodeId, to: NodeId) -> EdgeId {
    *net.out_edges(from)
        .iter()
        .find(|&&e| net.edge(e).is_some_and(|edge| edge.to == to))
        .expect("complete graph")
}

/// Every flow variant the parity check covers, derived from the max flow.
fn variants(net: &FlowNetwork, max: &Flow, rng: &mut ChaCha8Rng, tol: f64) -> Vec<Flow> {
    let m = max.edge_flows().len();
    let zero =
        Flow::from_edge_flows(max.source(), max.sink(), 0.0, vec![0.0; max.edge_flows().len()]);
    let mut out = vec![max.clone(), scaled(max, 0.9), scaled(max, 1.1), zero];
    // single-edge nudges, on a carrying edge where there is one
    let carrying: Vec<usize> = (0..m).filter(|&k| max.edge_flows()[k] > 0.0).collect();
    for delta in [tol / 2.0, -tol / 2.0, 2.0 * tol, -2.0 * tol] {
        out.push(nudged(max, rng.gen_range(0..m), delta));
        if let Some(&k) = carrying.get(rng.gen_range(0..carrying.len().max(1))) {
            out.push(nudged(max, k, delta));
        }
    }
    for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0 * tol, -1e-8] {
        out.push(overwritten(max, rng.gen_range(0..m), hostile));
    }
    out.push(with_flows(max, max.value() + 2.0 * tol, max.edge_flows().to_vec()));
    out.push(with_flows(max, f64::NAN, max.edge_flows().to_vec()));
    // the direct edge s → t left 0.6τ short of capacity and t → s carrying
    // 0.6τ: neither residual direction clears τ, but their sum does, so
    // only a verifier that keeps the per-direction arcs calls this maximal
    let (st, ts) = (edge_id(net, max.source(), max.sink()), edge_id(net, max.sink(), max.source()));
    let mut edges = max.edge_flows().to_vec();
    edges[st.index()] = net.edge(st).expect("edge").capacity - 0.6 * tol;
    edges[ts.index()] = 0.6 * tol;
    out.push(with_flows(max, max.value(), edges));
    out
}

fn check_parity(n: usize, grid: usize, seed: u64, tol: f64) -> Result<(), TestCaseError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let model = random_model(n, grid, &mut rng);
    let verifier = Verifier::new(model.clone()).with_tolerance(tol);
    let challenge = random_challenge(&model, &mut rng);
    let solve = |side| {
        let net = model.flow_network(side, &challenge).expect("valid challenge");
        let max =
            Dinic::new().max_flow(&net, challenge.source, challenge.sink).expect("valid instance");
        (net, max)
    };
    let ((net_a, max_a), (net_b, max_b)) = (solve(NetworkSide::A), solve(NetworkSide::B));
    let flows_a = variants(&net_a, &max_a, &mut rng, tol);
    let flows_b = variants(&net_b, &max_b, &mut rng, tol);
    for (flow_a, flow_b) in flows_a.iter().zip(flows_b.iter().rev()) {
        let answer =
            ProverAnswer { response: true, flow_a: flow_a.clone(), flow_b: flow_b.clone() };
        let expected = oracle_pair(&model, &challenge, &answer, tol);
        prop_assert!(expected.is_ok());
        prop_assert_eq!(fused_pair(&verifier, &challenge, &answer), expected, "{:?}", answer);
    }
    // the honest answer verifies on both sides
    let honest = ProverAnswer { response: true, flow_a: max_a.clone(), flow_b: max_b.clone() };
    let both = NetworkVerdict { feasible: true, maximal: true };
    prop_assert_eq!(fused_pair(&verifier, &challenge, &honest), Ok((both, both)));

    // shape errors: wrong-length flows on either network
    let short = with_flows(&max_a, max_a.value(), max_a.edge_flows()[1..].to_vec());
    let mut long_edges = max_b.edge_flows().to_vec();
    long_edges.push(0.0);
    let long = with_flows(&max_b, max_b.value(), long_edges);
    let mut malformed = vec![
        (challenge.clone(), ProverAnswer { flow_a: short.clone(), ..honest.clone() }),
        (challenge.clone(), ProverAnswer { flow_b: long.clone(), ..honest.clone() }),
        (challenge.clone(), ProverAnswer { response: true, flow_a: short, flow_b: long }),
    ];
    // malformed challenges: coinciding or out-of-range terminals, wrong
    // control-bit count
    let mut same = challenge.clone();
    same.sink = same.source;
    let mut out_of_range = challenge.clone();
    out_of_range.sink = NodeId::new(n as u32);
    let mut short_bits = challenge.clone();
    short_bits.control_bits.pop();
    let mut long_bits = challenge.clone();
    long_bits.control_bits.push(true);
    for bad in [same, out_of_range, short_bits, long_bits] {
        malformed.push((bad, honest.clone()));
    }
    for (challenge, answer) in &malformed {
        let expected = oracle_pair(&model, challenge, answer, tol);
        prop_assert!(expected.is_err());
        prop_assert_eq!(fused_pair(&verifier, challenge, answer), expected);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_verifier_matches_graph_reference(
        n in 4usize..=24,
        grid in 1usize..=24,
        seed in any::<u64>(),
        strict in any::<bool>(),
    ) {
        let tol = if strict { 1e-12 } else { ppuf_core::protocol::auth::VERIFY_TOLERANCE };
        check_parity(n, grid.min(n), seed, tol)?;
    }
}
