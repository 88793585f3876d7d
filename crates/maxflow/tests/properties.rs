//! Property-based tests: all solvers agree, duality holds, verification
//! certifies exactly the maximal flows.

use proptest::prelude::*;

use ppuf_maxflow::{
    ApproxMaxFlow, CompleteGraph, Dinic, FlowNetwork, HighestLabel, MaxFlowSolver, MinCut, NodeId,
    PushRelabel,
};

/// Strategy: a random sparse network with up to `max_n` nodes.
fn sparse_network(max_n: usize) -> impl Strategy<Value = (FlowNetwork, NodeId, NodeId)> {
    (3..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f64..5.0), 1..(3 * n));
        edges.prop_map(move |list| {
            let mut net = FlowNetwork::new(n);
            for (u, v, c) in list {
                if u != v {
                    net.add_edge(NodeId::new(u), NodeId::new(v), c).unwrap();
                }
            }
            (net, NodeId::new(0), NodeId::new(n as u32 - 1))
        })
    })
}

/// Strategy: a random complete network (the PPUF topology).
fn complete_network(max_n: usize) -> impl Strategy<Value = (FlowNetwork, NodeId, NodeId)> {
    (3..=max_n, proptest::collection::vec(0.01f64..2.0, max_n * max_n)).prop_map(|(n, caps)| {
        let net = FlowNetwork::complete(n, |u, v| caps[u.index() * n + v.index()]).unwrap();
        (net, NodeId::new(0), NodeId::new(n as u32 - 1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_exact_solvers_agree_sparse((net, s, t) in sparse_network(10)) {
        let d = Dinic::new().max_flow(&net, s, t).unwrap();
        let pr = PushRelabel::new().max_flow(&net, s, t).unwrap();
        let hl = HighestLabel::new().max_flow(&net, s, t).unwrap();
        prop_assert!((d.value() - pr.value()).abs() < 1e-7);
        prop_assert!((d.value() - hl.value()).abs() < 1e-7);
    }

    #[test]
    fn all_exact_solvers_agree_complete((net, s, t) in complete_network(8)) {
        let d = Dinic::new().max_flow(&net, s, t).unwrap();
        let pr = PushRelabel::new().max_flow(&net, s, t).unwrap();
        let hl = HighestLabel::new().max_flow(&net, s, t).unwrap();
        prop_assert!((d.value() - pr.value()).abs() < 1e-7);
        prop_assert!((d.value() - hl.value()).abs() < 1e-7);
    }

    #[test]
    fn flows_are_always_feasible((net, s, t) in sparse_network(10)) {
        for solver in [
            Box::new(Dinic::new()) as Box<dyn MaxFlowSolver>,
            Box::new(PushRelabel::new()),
            Box::new(HighestLabel::new()),
        ] {
            let flow = solver.max_flow(&net, s, t).unwrap();
            let report = flow.check_feasible(&net, 1e-7).unwrap();
            prop_assert!(report.is_feasible(), "{}: {report:?}", solver.name());
        }
    }

    #[test]
    fn duality_certificate((net, s, t) in complete_network(7)) {
        let flow = Dinic::new().max_flow(&net, s, t).unwrap();
        let cut = MinCut::from_max_flow(&net, &flow, 1e-9).unwrap();
        prop_assert!(cut.certifies(flow.value(), 1e-6),
            "cut {} vs flow {}", cut.capacity, flow.value());
    }

    #[test]
    fn approx_within_bound((net, s, t) in complete_network(7), eps in 0.01f64..0.9) {
        let exact = Dinic::new().max_flow(&net, s, t).unwrap().value();
        let approx = ApproxMaxFlow::new(eps).unwrap().max_flow(&net, s, t).unwrap();
        prop_assert!(approx.value() <= exact + 1e-7);
        prop_assert!(approx.value() >= exact / (1.0 + eps) - 1e-7,
            "eps={eps}: approx {} vs exact {exact}", approx.value());
        prop_assert!(approx.check_feasible(&net, 1e-7).unwrap().is_feasible());
    }

    #[test]
    fn flow_value_bounded_by_terminal_cuts((net, s, t) in sparse_network(12)) {
        let flow = Dinic::new().max_flow(&net, s, t).unwrap();
        prop_assert!(flow.value() <= net.out_capacity(s) + 1e-9);
        prop_assert!(flow.value() <= net.in_capacity(t) + 1e-9);
        prop_assert!(flow.value() >= -1e-9);
    }

    #[test]
    fn monotone_in_capacity(caps in proptest::collection::vec(0.01f64..2.0, 36)) {
        // scaling every capacity up cannot reduce the max flow
        let n = 6;
        let net1 = FlowNetwork::complete(n, |u, v| caps[u.index() * n + v.index()]).unwrap();
        let net2 = FlowNetwork::complete(n, |u, v| 1.5 * caps[u.index() * n + v.index()]).unwrap();
        let (s, t) = (NodeId::new(0), NodeId::new(5));
        let f1 = Dinic::new().max_flow(&net1, s, t).unwrap().value();
        let f2 = Dinic::new().max_flow(&net2, s, t).unwrap().value();
        prop_assert!(f2 >= f1 - 1e-9);
        prop_assert!((f2 - 1.5 * f1).abs() < 1e-6); // scaling is exact
    }

    #[test]
    fn solvers_agree_with_dead_blocks(
        caps in proptest::collection::vec(0.0f64..2.0, 64),
        dead in proptest::collection::vec(any::<bool>(), 64),
    ) {
        // ~half the edges fully cut off — the PPUF's "variation killed the
        // block" regime that stresses zero-capacity handling
        let n = 8;
        let net = FlowNetwork::complete(n, |u, v| {
            let k = u.index() * n + v.index();
            if dead[k] { 0.0 } else { caps[k] }
        }).unwrap();
        let (s, t) = (NodeId::new(0), NodeId::new(7));
        let d = Dinic::new().max_flow(&net, s, t).unwrap();
        let pr = PushRelabel::new().max_flow(&net, s, t).unwrap();
        let hl = HighestLabel::new().max_flow(&net, s, t).unwrap();
        prop_assert!((d.value() - pr.value()).abs() < 1e-7);
        prop_assert!((d.value() - hl.value()).abs() < 1e-7);
        prop_assert!(d.check_feasible(&net, 1e-9).unwrap().is_feasible());
        let cut = MinCut::from_max_flow(&net, &d, 1e-12).unwrap();
        prop_assert!(cut.certifies(d.value(), 1e-7));
    }
}

/// Strategy: a complete network's size, dense capacities with zeros and
/// ties, and distinct terminals.
fn dense_instance() -> impl Strategy<Value = (usize, Vec<f64>, NodeId, NodeId)> {
    (2..=32usize).prop_flat_map(|n| {
        // half the edges take one of four fixed levels (zero included)
        let level = (0usize..8, 0.0f64..2.0).prop_map(|(pick, c)| {
            if pick < 4 {
                [0.0, 0.5, 1.0, 0.125][pick]
            } else {
                c
            }
        });
        (proptest::collection::vec(level, n * (n - 1)), 0..n as u32, 1..n as u32).prop_map(
            move |(caps, s, hop)| (n, caps, NodeId::new(s), NodeId::new((s + hop) % n as u32)),
        )
    })
}

/// The network-building path the dense entry replaces.
fn network_path(
    n: usize,
    caps: &[f64],
    s: NodeId,
    t: NodeId,
) -> Result<ppuf_maxflow::Flow, ppuf_maxflow::MaxFlowError> {
    let mut next = caps.iter();
    let net = FlowNetwork::complete(n, |_, _| *next.next().expect("one capacity per edge"))?;
    Dinic::new().max_flow(&net, s, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_complete_solve_is_bit_identical((n, caps, s, t) in dense_instance()) {
        let mut graph = CompleteGraph::new(n);
        let dense = Dinic::new().max_flow_complete(&mut graph, &caps, s, t).unwrap();
        let built = network_path(n, &caps, s, t).unwrap();
        prop_assert_eq!(dense.value().to_bits(), built.value().to_bits());
        prop_assert_eq!(dense.edge_flows().len(), built.edge_flows().len());
        for (a, b) in dense.edge_flows().iter().zip(built.edge_flows()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dense_complete_solve_rejects_what_the_network_rejects(
        (n, mut caps, s, t) in dense_instance(),
        bad in 0usize..4,
        at in 0usize..992,
        terminal in 0u32..4,
    ) {
        // bad == 3 keeps the capacities valid; terminal == 0 the terminals
        prop_assume!(bad < 3 || terminal > 0);
        if bad < 3 {
            caps[at % (n * (n - 1))] = [f64::NAN, -1.0, f64::INFINITY][bad];
        }
        let (s, t) = match terminal {
            1 => (s, s),
            2 => (NodeId::new(n as u32), t),
            3 => (s, NodeId::new(n as u32 + 7)),
            _ => (s, t),
        };
        let dense = Dinic::new().max_flow_complete(&mut CompleteGraph::new(n), &caps, s, t).unwrap_err();
        let built = network_path(n, &caps, s, t).unwrap_err();
        prop_assert_eq!(format!("{dense:?}"), format!("{built:?}"));
    }
}
