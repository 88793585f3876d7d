//! The dense complete-graph solves against the network-building reference.
//!
//! `PpufExecutor::execute_flow`/`execute_flow_detailed` and
//! `PublicModel::simulate_dinic` solve each network straight from the
//! selected capacities. The reference builds the `FlowNetwork` with
//! `flow_network` and solves it with `Dinic::max_flow`; every value and
//! every edge flow must match it bit for bit at the paper's scale.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ppuf_analog::units::Celsius;
use ppuf_analog::variation::Environment;
use ppuf_core::public_model::NetworkSide;
use ppuf_core::{Ppuf, PpufConfig};
use ppuf_maxflow::{Dinic, Flow, MaxFlowSolver};

fn same_bits(got: &Flow, want: &Flow) -> bool {
    let bits = |f: &Flow| -> Vec<u64> { f.edge_flows().iter().map(|x| x.to_bits()).collect() };
    got.value().to_bits() == want.value().to_bits()
        && (got.source(), got.sink()) == (want.source(), want.sink())
        && bits(got) == bits(want)
}

#[test]
fn dense_solves_match_the_network_resolve_at_paper_scale() {
    let device = Ppuf::generate(PpufConfig::paper(200, 8), 21).expect("valid config");
    let model = device.public_model().expect("publishes");
    let mut rng = ChaCha8Rng::seed_from_u64(22);
    for env in [Environment::NOMINAL, Environment::new(0.9, Celsius(80.0))] {
        let executor = device.executor(env);
        for _ in 0..2 {
            let challenge = device.random_challenge(&mut rng);
            let [want_a, want_b] = NetworkSide::BOTH.map(|side| {
                let net = executor.flow_network(side, &challenge).expect("valid challenge");
                Dinic::new().max_flow(&net, challenge.source, challenge.sink).expect("solves")
            });
            let outcome = executor.execute_flow(&challenge).expect("solves");
            assert_eq!(outcome.current_a.value().to_bits(), want_a.value().to_bits());
            assert_eq!(outcome.current_b.value().to_bits(), want_b.value().to_bits());
            let detailed = executor.execute_flow_detailed(&challenge).expect("solves");
            assert!(same_bits(&detailed.flow_a, &want_a) && same_bits(&detailed.flow_b, &want_b));
            assert_eq!(detailed.response, outcome.response);
            if env == Environment::NOMINAL {
                // the nominal executor's capacities are the published ones
                let simulated = model.simulate(&challenge, &Dinic::new()).expect("solves");
                let fast = model.simulate_dinic(&challenge).expect("solves");
                for sim in [&simulated, &fast] {
                    assert!(same_bits(&sim.flow_a, &want_a) && same_bits(&sim.flow_b, &want_b));
                    assert_eq!(sim.response, outcome.response);
                }
            }
        }
    }
}
