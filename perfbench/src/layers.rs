//! Per-layer probes shared by the workloads' traced runs. Each probe calls
//! one layer's public entry points on the workload's own inputs, inside a
//! benchmark span, and checks what comes back.

use std::collections::BTreeMap;

use ppuf_analog::solver::{Circuit, DcEngine, DcOptions, EngineOptions};
use ppuf_analog::units::Volts;
use ppuf_analog::variation::Environment;
use ppuf_core::protocol::auth::{prove, ProverAnswer, VerificationReport, Verifier};
use ppuf_core::{Challenge, NetworkSide, Ppuf, PpufConfig, PpufExecutor};
use ppuf_maxflow::{Dinic, Flow, MaxFlowSolver, NodeId};
use ppuf_server::cache::answer_fingerprint;
use ppuf_server::wire::Request;
use ppuf_server::wire2::{decode_request, encode_request, parse_frame};
use ppuf_telemetry::{next_trace_id, MemoryRecorder, Recorder, TracedSpan};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::stats::Tally;
use crate::trace;

/// Per-layer metric values keyed by their `PER_LAYER` names.
pub type Layers = BTreeMap<&'static str, f64>;

/// How an answer submitted for verification was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The honest prover's max flows.
    Honest,
    /// Both flows scaled by 0.9: feasible but not maximal.
    Under,
    /// Both flows scaled by 1.1: over capacity.
    Over,
}

impl Answer {
    /// Forges `honest` into this kind of answer.
    pub fn make(self, honest: &ProverAnswer) -> ProverAnswer {
        let factor = match self {
            Answer::Honest => return honest.clone(),
            Answer::Under => 0.9,
            Answer::Over => 1.1,
        };
        let scale = |flow: &Flow| {
            Flow::from_edge_flows(
                flow.source(),
                flow.sink(),
                flow.value() * factor,
                flow.edge_flows().iter().map(|f| f * factor).collect(),
            )
        };
        ProverAnswer {
            response: honest.response,
            flow_a: scale(&honest.flow_a),
            flow_b: scale(&honest.flow_b),
        }
    }

    /// Whether `report` is the verdict this kind of answer must get: an
    /// honest answer is accepted, an under-scaled one is rejected as not
    /// maximal (yet feasible) and an over-scaled one as infeasible, on
    /// both networks.
    pub fn verdict_ok(self, report: &VerificationReport) -> bool {
        let nets = [report.network_a, report.network_b];
        match self {
            Answer::Honest => report.accepted(),
            Answer::Under => !report.accepted() && nets.iter().all(|n| n.feasible && !n.maximal),
            Answer::Over => !report.accepted() && nets.iter().all(|n| !n.feasible),
        }
    }
}

/// The flow-network and Dinic layers, on `challenges` of one device: one
/// traced `flow_network` build and one traced Dinic solve per network.
/// `expected` holds the (A, B) max-flow values the workload already
/// observed for these challenges; the re-solves must reproduce them
/// bit for bit.
pub fn flow_layers(
    executor: &PpufExecutor<'_>,
    challenges: &[Challenge],
    expected: &[(f64, f64)],
    recorder: &MemoryRecorder,
    tally: &mut Tally,
) -> Layers {
    let dinic = Dinic::new();
    let (mut phases, mut augmentations, mut solves) = (0u64, 0u64, 0u64);
    for (challenge, &(want_a, want_b)) in challenges.iter().zip(expected) {
        for (side, want) in [(NetworkSide::A, want_a), (NetworkSide::B, want_b)] {
            let root = TracedSpan::root(recorder, "bench.flow_solve", next_trace_id());
            let net = {
                let _span = root.child("bench.core.flow_network");
                executor.flow_network(side, challenge)
            };
            let solved = net.and_then(|net| {
                let _span = root.child("bench.maxflow.dinic");
                dinic
                    .max_flow_traced(&net, challenge.source, challenge.sink, recorder)
                    .map_err(ppuf_core::PpufError::Simulation)
            });
            let got = solved.as_ref().map(|(flow, stats)| {
                phases += stats.bfs_passes;
                augmentations += stats.augmenting_paths;
                solves += 1;
                flow.value()
            });
            tally.check(got.as_ref().is_ok_and(|v| v.to_bits() == want.to_bits()), || {
                format!("Dinic re-solve of network {side:?} gave {got:?}, expected {want}")
            });
        }
    }
    let profile = recorder.profiler().map(|p| p.snapshot()).unwrap_or_default();
    let dinic_wall = trace::wall_s(&profile, "maxflow.dinic.solve");
    let per_solve = |total: u64| total as f64 / solves.max(1) as f64;
    let mut layers = Layers::new();
    layers.insert(
        "core.flow_network_ms",
        trace::mean_ms(recorder, "bench.core.flow_network").unwrap_or(0.0),
    );
    layers
        .insert("maxflow.dinic_ms", trace::mean_ms(recorder, "bench.maxflow.dinic").unwrap_or(0.0));
    layers.insert("maxflow.dinic_phases", per_solve(phases));
    layers.insert("maxflow.dinic_augmentations", per_solve(augmentations));
    if dinic_wall > 0.0 {
        layers.insert(
            "maxflow.dinic_bfs_share",
            trace::wall_s(&profile, "maxflow.dinic.solve;bfs") / dinic_wall,
        );
    }
    layers
}

/// The answer-handling layers, on answers the workload submits: answer
/// fingerprint, wire-2.0 `SubmitAnswer` encode and parse + decode, and
/// `Verifier::verify`, each verdict checked against the answer's kind.
pub fn answer_layers(
    verifier: &Verifier,
    answers: impl IntoIterator<Item = (Challenge, ProverAnswer, Answer)>,
    recorder: &MemoryRecorder,
    tally: &mut Tally,
) -> Layers {
    let mut bytes = 0usize;
    for (i, (challenge, answer, kind)) in answers.into_iter().enumerate() {
        let root = TracedSpan::root(recorder, "bench.answer", next_trace_id());
        {
            let _span = root.child("bench.cache.fingerprint");
            std::hint::black_box(answer_fingerprint(std::hint::black_box(&answer)));
        }
        let request =
            Request::SubmitAnswer { device_id: "perfbench".into(), nonce: i as u64, answer };
        let frame = {
            let _span = root.child("bench.wire2.submit_encode");
            encode_request(i as u64, &request)
        };
        bytes = bytes.max(frame.len());
        let decoded = {
            let _span = root.child("bench.wire2.submit_decode");
            match parse_frame(&frame) {
                Ok(Some((frame, _))) => decode_request(&frame).ok(),
                _ => None,
            }
        };
        tally.check(decoded.as_ref() == Some(&request), || {
            format!("wire-2.0 SubmitAnswer {i} did not survive encode + decode")
        });
        let Request::SubmitAnswer { answer, .. } = &request else { unreachable!() };
        let span =
            if kind == Answer::Honest { "bench.verify.accept" } else { "bench.verify.reject" };
        let report = {
            let _span = root.child(span);
            verifier.verify(&challenge, answer)
        };
        tally.check(report.as_ref().is_ok_and(|r| kind.verdict_ok(r)), || {
            format!("{kind:?} answer {i}: verifier said {report:?}")
        });
    }
    let mut layers = Layers::new();
    let us = |name| trace::mean_ms(recorder, name).map_or(0.0, |ms| ms * 1e3);
    layers.insert("cache.fingerprint_us", us("bench.cache.fingerprint"));
    layers.insert("wire2.submit_encode_us", us("bench.wire2.submit_encode"));
    layers.insert("wire2.submit_decode_us", us("bench.wire2.submit_decode"));
    layers.insert("wire2.submit_bytes", bytes as f64);
    for (metric, span) in
        [("verify.accept_ms", "bench.verify.accept"), ("verify.reject_ms", "bench.verify.reject")]
    {
        layers.insert(metric, trace::mean_ms(recorder, span).unwrap_or(0.0));
    }
    layers
}

/// The honest answers and their seeded forgeries for `picks` challenges:
/// every pick gets its honest answer, and alternate picks also get an
/// under- or over-scaled forgery.
pub fn sample_answers(
    executor: &PpufExecutor<'_>,
    picks: &[Challenge],
    tally: &mut Tally,
) -> Vec<(Challenge, ProverAnswer, Answer)> {
    let mut answers = Vec::new();
    for (i, challenge) in picks.iter().enumerate() {
        let honest = prove(executor, challenge);
        tally.check(honest.is_ok(), || format!("prove failed: {:?}", honest.as_ref().err()));
        let Ok(honest) = honest else { continue };
        let forged = if i % 2 == 0 { Answer::Under } else { Answer::Over };
        answers.push((challenge.clone(), forged.make(&honest), forged));
        answers.push((challenge.clone(), honest, Answer::Honest));
    }
    answers
}

/// Device size of the analog cross-check: the analog path's I–V tables
/// cost about 2.5 GB per device at n = 200, so the chip path is checked
/// at n = 64.
const ANALOG_NODES: usize = 64;
const ANALOG_GRID: usize = 8;
const ANALOG_DEVICES: u64 = 2;
/// Challenges in each device's warm chain.
const ANALOG_CHAIN: usize = 8;
/// The paper's Fig 6 bound on |I_analog − I_flow| / I_analog.
const MODEL_ERR_BOUND_PCT: f64 = 1.0;

/// The analog layers, on the Fig 6 cross-check: two n = 64 devices, each
/// on its own thread, run one warm `DcEngine` chain per network over
/// seeded challenges, assembled the way `EvalBatch`'s analog mode does
/// (each network's two I–V tables built once, each challenge selecting
/// per edge). Every solve must converge and the mean relative gap to
/// the flow path must stay under the paper's 1 %.
pub fn analog_layers(seed: u64, recorder: &MemoryRecorder, tally: &mut Tally) -> Layers {
    let outcomes: Vec<(Tally, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ANALOG_DEVICES)
            .map(|d| scope.spawn(move || analog_chain(seed ^ d, recorder)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("analog chain thread panicked")).collect()
    });
    let mut errors = Vec::new();
    for (chain_tally, chain_errors) in outcomes {
        tally.absorb(chain_tally);
        errors.extend(chain_errors);
    }
    let model_err_pct = 100.0 * errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    tally.check(!errors.is_empty() && model_err_pct < MODEL_ERR_BOUND_PCT, || {
        format!("analog vs flow model error {model_err_pct}% (bound {MODEL_ERR_BOUND_PCT}%)")
    });

    let profile = recorder.profiler().map(|p| p.snapshot()).unwrap_or_default();
    let solves = trace::count(recorder, "bench.analog.dc_solve").max(1) as f64;
    let iterations = recorder.counter("analog.dc.newton_iterations") as f64;
    let hits = recorder.counter("analog.dc.warm_start_hits") as f64;
    let misses = recorder.counter("analog.dc.warm_start_misses") as f64;
    let solve_wall = trace::wall_s(&profile, "analog.dc.solve");
    let eval_s = trace::leaf_total(&profile, "device_eval", |s| s.self_s);
    let factor_s = trace::leaf_total(&profile, "factor", |s| s.self_s);
    let factorizations = recorder.counter("analog.dc.jacobian_factorizations").max(1) as f64;
    let edges = (ANALOG_NODES * (ANALOG_NODES - 1)) as f64;
    let mut layers = Layers::new();
    layers.insert(
        "analog.dc_solve_ms",
        trace::mean_ms(recorder, "bench.analog.dc_solve").unwrap_or(0.0),
    );
    layers.insert("analog.newton_iters", iterations / solves);
    layers.insert("analog.warm_hit_ratio", hits / (hits + misses).max(1.0));
    layers.insert(
        "analog.device_eval_share",
        if solve_wall > 0.0 { eval_s / solve_wall } else { 0.0 },
    );
    layers.insert("analog.device_eval_ns", eval_s * 1e9 / (iterations * edges).max(1.0));
    layers.insert("analog.factor_ms", factor_s * 1e3 / factorizations);
    layers.insert("analog.model_err_pct", model_err_pct);
    layers.insert(
        "core.circuit_build_ms",
        trace::mean_ms(recorder, "bench.core.circuit_build").unwrap_or(0.0),
    );
    layers
}

/// One device's warm chains; returns its checks and the per-network
/// relative analog-vs-flow errors.
fn analog_chain(seed: u64, recorder: &MemoryRecorder) -> (Tally, Vec<f64>) {
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let device = Ppuf::generate(PpufConfig::paper(ANALOG_NODES, ANALOG_GRID), seed);
    tally.check(device.is_ok(), || {
        format!("analog device generation failed: {:?}", device.as_ref().err())
    });
    let Ok(device) = device else { return (tally, errors) };
    let env = Environment::NOMINAL;
    let executor = device.executor(env);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let chain: Vec<Challenge> =
        (0..ANALOG_CHAIN).map(|_| device.random_challenge(&mut rng)).collect();
    let supply = env.scaled_supply(device.config().supply);
    let v_max = Volts(supply.value() * 1.25);
    let options = DcOptions { temperature: env.temperature, ..DcOptions::default() };
    let uniform = |bit: bool| Challenge {
        control_bits: vec![bit; chain[0].control_bits.len()],
        ..chain[0].clone()
    };
    let flows: Vec<_> = chain.iter().map(|c| executor.execute_flow(c)).collect();
    for side in [NetworkSide::A, NetworkSide::B] {
        let net = device.network(side);
        let tables: Vec<_> = [false, true]
            .into_iter()
            .map(|bit| {
                let _span = TracedSpan::root(recorder, "bench.core.circuit_build", next_trace_id());
                net.circuit(&uniform(bit), device.grid(), env, v_max, device.config().table_samples)
            })
            .collect();
        let [Ok(bit0), Ok(bit1)] = &tables[..] else {
            tally.check(false, || "analog circuit build failed".into());
            continue;
        };
        let mut engine = DcEngine::new(EngineOptions { threads: 1, ..EngineOptions::default() });
        for (challenge, flow) in chain.iter().zip(&flows) {
            let mut circuit = Circuit::new(ANALOG_NODES);
            for (e0, e1) in bit0.edges().iter().zip(bit1.edges()) {
                let cell = device.grid().cell_of_edge(NodeId::new(e0.from), NodeId::new(e0.to));
                let edge = if challenge.control_bits[cell] { e1 } else { e0 };
                circuit
                    .add_element(edge.from, edge.to, &edge.element)
                    .expect("crossbar edges are valid");
            }
            let solved = {
                let _span = TracedSpan::root(recorder, "bench.analog.dc_solve", next_trace_id());
                engine.solve_traced(
                    &circuit,
                    challenge.source.index() as u32,
                    challenge.sink.index() as u32,
                    supply,
                    &options,
                    recorder,
                )
            };
            let flow_current = flow.as_ref().map(|f| match side {
                NetworkSide::A => f.current_a.value(),
                NetworkSide::B => f.current_b.value(),
            });
            match (&solved, flow_current) {
                (Ok(solution), Ok(flow_current)) => {
                    let analog = solution.source_current.value();
                    errors.push((analog - flow_current).abs() / analog);
                    tally.check(true, String::new);
                }
                _ => tally.check(false, || {
                    format!(
                        "analog chain step failed: analog {:?}, flow {:?}",
                        solved.as_ref().err(),
                        flow_current.err()
                    )
                }),
            }
        }
    }
    (tally, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppuf_core::protocol::auth::NetworkVerdict;

    fn report(feasible: bool, maximal: bool) -> VerificationReport {
        let network = NetworkVerdict { feasible, maximal };
        VerificationReport {
            network_a: network,
            network_b: network,
            response_consistent: true,
            within_deadline: true,
        }
    }

    #[test]
    fn each_answer_kind_expects_its_own_check_to_fail() {
        let accepted = report(true, true);
        let not_maximal = report(true, false);
        let infeasible = report(false, false);
        assert!(Answer::Honest.verdict_ok(&accepted));
        assert!(!Answer::Honest.verdict_ok(&not_maximal));
        assert!(Answer::Under.verdict_ok(&not_maximal));
        assert!(!Answer::Under.verdict_ok(&infeasible), "rejected, but on the wrong check");
        assert!(!Answer::Under.verdict_ok(&accepted));
        assert!(Answer::Over.verdict_ok(&infeasible));
        assert!(!Answer::Over.verdict_ok(&not_maximal), "rejected, but on the wrong check");
        let mut half = infeasible;
        half.network_b = NetworkVerdict { feasible: true, maximal: false };
        assert!(!Answer::Over.verdict_ok(&half), "both networks must be over capacity");
    }
}
