//! Wire 2.0 codec compatibility: every binary message round-trips to
//! exactly the value the JSON wire carries, incremental parsing survives
//! a tear at every byte boundary, and garbage is rejected — never
//! misparsed.

use ppuf_core::challenge::Challenge;
use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::protocol::auth::{NetworkVerdict, ProverAnswer, VerificationReport};
use ppuf_maxflow::{Flow, NodeId};
use ppuf_server::wire::{ErrorKind, Request, Response, MAX_FRAME_LEN};
use ppuf_server::wire2::{
    self, decode_request, decode_response, encode_frame, encode_request, encode_response,
    parse_frame, Frame2Error, HEADER_LEN, MAGIC,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn flow(source: u32, sink: u32, value: f64, edges: Vec<f64>) -> Flow {
    Flow::from_edge_flows(NodeId::new(source), NodeId::new(sink), value, edges)
}

/// Mostly `+0.0`, like an honest answer, salted with every bit pattern
/// `Flow`'s `PartialEq` cannot tell apart or compares unequal to itself.
fn edge_value() -> impl Strategy<Value = f64> {
    (0u32..20, 0u64..1 << 51, 0.0f64..4.0).prop_map(|(pick, payload, finite)| match pick {
        0 => -0.0,
        1 => f64::MIN_POSITIVE / 4.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        // a quiet NaN and a negative signalling NaN, each with a payload
        4 => f64::from_bits(0x7FF8_0000_0000_0000 | payload),
        5 => f64::from_bits(0xFFF0_0000_0000_0001 | payload),
        6 | 7 => finite,
        _ => 0.0,
    })
}

fn bits_of(edges: &[f64]) -> Vec<u64> {
    edges.iter().map(|f| f.to_bits()).collect()
}

/// Asserts a request survives the binary wire bit-for-bit *and* the
/// JSON wire — the two protocols must carry the same value.
fn roundtrip_request(corr: u64, request: &Request) -> Result<(), TestCaseError> {
    let bytes = encode_request(corr, request);
    let (frame, used) = parse_frame(&bytes)
        .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?
        .ok_or_else(|| TestCaseError::fail("complete frame parsed as partial"))?;
    prop_assert_eq!(used, bytes.len());
    prop_assert_eq!(frame.corr, corr);
    let decoded =
        decode_request(&frame).map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
    prop_assert_eq!(&decoded, request);
    // the JSON wire must carry the identical value
    let json = serde_json::to_string(request)
        .map_err(|e| TestCaseError::fail(format!("json encode failed: {e}")))?;
    let via_json: Request = serde_json::from_str(&json)
        .map_err(|e| TestCaseError::fail(format!("json decode failed: {e}")))?;
    prop_assert_eq!(&via_json, request);
    Ok(())
}

fn roundtrip_response(corr: u64, response: &Response) -> Result<(), TestCaseError> {
    let bytes = encode_response(corr, response);
    let (frame, used) = parse_frame(&bytes)
        .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?
        .ok_or_else(|| TestCaseError::fail("complete frame parsed as partial"))?;
    prop_assert_eq!(used, bytes.len());
    prop_assert_eq!(frame.corr, corr);
    let decoded =
        decode_response(&frame).map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
    prop_assert_eq!(&decoded, response);
    let json = serde_json::to_string(response)
        .map_err(|e| TestCaseError::fail(format!("json encode failed: {e}")))?;
    let via_json: Response = serde_json::from_str(&json)
        .map_err(|e| TestCaseError::fail(format!("json decode failed: {e}")))?;
    prop_assert_eq!(&via_json, response);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn get_challenge_roundtrips(tag in any::<u64>(), corr in any::<u64>()) {
        roundtrip_request(corr, &Request::GetChallenge { device_id: format!("dev-{tag:x}") })?;
    }

    #[test]
    fn submit_answer_roundtrips(
        corr in any::<u64>(),
        nonce in any::<u64>(),
        response in any::<bool>(),
        src in 0u32..64,
        dst in 0u32..64,
        value in 0.0f64..8.0,
        edges_a in vec(0.0f64..4.0, 0..12),
        edges_b in vec(0.0f64..4.0, 0..12),
    ) {
        let request = Request::SubmitAnswer {
            device_id: "device".into(),
            nonce,
            answer: ProverAnswer {
                response,
                flow_a: flow(src, dst, value, edges_a),
                flow_b: flow(dst, src, value * 0.5, edges_b),
            },
        };
        roundtrip_request(corr, &request)?;
    }

    #[test]
    fn sparse_flows_roundtrip_bit_exactly(
        corr in any::<u64>(),
        response in any::<bool>(),
        value_bits in any::<u64>(),
        edges_a in vec(edge_value(), 0..96),
        edges_b in vec(edge_value(), 0..96),
    ) {
        let answer = ProverAnswer {
            response,
            flow_a: flow(0, 5, f64::from_bits(value_bits), edges_a),
            flow_b: flow(5, 0, -0.0, edges_b),
        };
        let request = Request::SubmitAnswer { device_id: "device".into(), nonce: 3, answer };
        let bytes = encode_request(corr, &request);
        let (frame, _) = parse_frame(&bytes)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?
            .ok_or_else(|| TestCaseError::fail("complete frame parsed as partial"))?;
        prop_assert_eq!(frame.opcode, wire2::opcode::SUBMIT_ANSWER);
        let decoded =
            decode_request(&frame).map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        let (Request::SubmitAnswer { answer: sent, .. }, Request::SubmitAnswer { answer: got, .. }) =
            (&request, &decoded)
        else {
            return Err(TestCaseError::fail("decoded a different request"));
        };
        prop_assert_eq!(got.response, sent.response);
        for (got, sent) in [(&got.flow_a, &sent.flow_a), (&got.flow_b, &sent.flow_b)] {
            prop_assert_eq!((got.source(), got.sink()), (sent.source(), sent.sink()));
            prop_assert_eq!(got.value().to_bits(), sent.value().to_bits());
            prop_assert_eq!(bits_of(got.edge_flows()), bits_of(sent.edge_flows()));
        }
    }

    #[test]
    fn challenge_response_roundtrips(
        corr in any::<u64>(),
        nonce in any::<u64>(),
        src in 0u32..256,
        dst in 0u32..256,
        bits in vec(any::<bool>(), 0..40),
        deadline in 0.0f64..10.0,
        with_deadline in any::<bool>(),
    ) {
        let response = Response::Challenge {
            device_id: "device".into(),
            nonce,
            challenge: Challenge {
                source: NodeId::new(src),
                sink: NodeId::new(dst),
                control_bits: bits,
            },
            deadline_s: with_deadline.then_some(deadline),
        };
        roundtrip_response(corr, &response)?;
    }

    #[test]
    fn verdict_roundtrips(
        corr in any::<u64>(),
        nonce in any::<u64>(),
        flags in vec(any::<bool>(), 7),
        elapsed in 0.0f64..5.0,
    ) {
        let report = VerificationReport {
            network_a: NetworkVerdict { feasible: flags[0], maximal: flags[1] },
            network_b: NetworkVerdict { feasible: flags[2], maximal: flags[3] },
            response_consistent: flags[4],
            within_deadline: flags[5],
        };
        let response = Response::Verdict {
            device_id: "device".into(),
            nonce,
            accepted: report.accepted(),
            report,
            cached: flags[6],
            elapsed_s: elapsed,
        };
        roundtrip_response(corr, &response)?;
    }

    #[test]
    fn error_response_roundtrips(
        corr in any::<u64>(),
        kind_pick in 0usize..6,
        retry in any::<u64>(),
        with_retry in any::<bool>(),
        tag in any::<u64>(),
    ) {
        let kinds = [
            ErrorKind::UnknownDevice,
            ErrorKind::ReplayOrUnknownNonce,
            ErrorKind::SessionExpired,
            ErrorKind::Overloaded,
            ErrorKind::Malformed,
            ErrorKind::Internal,
        ];
        let response = Response::Error {
            kind: kinds[kind_pick],
            message: format!("failure {tag:x}"),
            retry_after_ms: with_retry.then_some(retry),
        };
        roundtrip_response(corr, &response)?;
    }

    #[test]
    fn torn_frames_parse_incrementally(
        corr in any::<u64>(),
        nonce in any::<u64>(),
        bits in vec(any::<bool>(), 0..24),
    ) {
        // a frame torn at EVERY byte boundary parses as "incomplete",
        // never as an error or a wrong message
        let response = Response::Challenge {
            device_id: "device".into(),
            nonce,
            challenge: Challenge {
                source: NodeId::new(3),
                sink: NodeId::new(7),
                control_bits: bits,
            },
            deadline_s: Some(0.5),
        };
        let bytes = encode_response(corr, &response);
        for cut in 0..bytes.len() {
            match parse_frame(&bytes[..cut]) {
                Ok(None) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "prefix of {cut}/{} bytes parsed as {other:?}",
                        bytes.len()
                    )));
                }
            }
        }
        let (frame, used) = parse_frame(&bytes)
            .map_err(|e| TestCaseError::fail(format!("full frame failed: {e}")))?
            .ok_or_else(|| TestCaseError::fail("full frame still partial"))?;
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(
            decode_response(&frame)
                .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?,
            response
        );
        // trailing bytes of a pipelined successor are not consumed
        let mut two = bytes.clone();
        two.extend_from_slice(&bytes);
        let (_, used) = parse_frame(&two)
            .map_err(|e| TestCaseError::fail(format!("pipelined parse failed: {e}")))?
            .ok_or_else(|| TestCaseError::fail("pipelined frame partial"))?;
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn garbage_first_bytes_reject(first in any::<u8>(), second in any::<u8>(), rest in vec(any::<u8>(), 0..32)) {
        prop_assume!([first, second] != MAGIC);
        let mut buf = vec![first, second];
        buf.extend_from_slice(&rest);
        // the JSON wire's length prefix (capped at 16 MiB) always starts
        // 0x00/0x01, and everything else must be rejected as soon as the
        // magic can be checked — a single byte suffices when it is wrong
        if first != MAGIC[0] {
            prop_assert!(matches!(parse_frame(&buf[..1]), Err(Frame2Error::BadMagic(_))));
        }
        prop_assert!(matches!(parse_frame(&buf), Err(Frame2Error::BadMagic(_))));
    }
}

#[test]
fn admin_messages_ride_the_json_fallback() {
    // admin traffic (registry management, stats, health) has no hot-path
    // binary encoding: it rides inside JSON_REQUEST/JSON_RESPONSE frames
    // and must round-trip exactly, model payload included
    let ppuf = Ppuf::generate(PpufConfig::paper(8, 2), 11).expect("device generation");
    let model = ppuf.public_model().expect("model publication");
    let requests = [
        Request::Register { device_id: "dev".into(), model },
        Request::Revoke { device_id: "dev".into() },
        Request::Health,
        Request::Dump,
    ];
    for request in &requests {
        let bytes = encode_request(9, request);
        let (frame, _) = parse_frame(&bytes).expect("parse").expect("complete");
        assert_eq!(frame.opcode, wire2::opcode::JSON_REQUEST, "{request:?}");
        assert_eq!(&decode_request(&frame).expect("decode"), request);
    }
}

#[test]
fn oversized_and_bad_version_frames_reject() {
    let bytes = encode_frame(wire2::opcode::PING, 1, &[]);
    let mut bad_version = bytes.clone();
    bad_version[2] = 3;
    assert!(matches!(parse_frame(&bad_version), Err(Frame2Error::BadVersion(3))));

    let mut oversized = bytes;
    oversized[12..16].copy_from_slice(&(64 * 1024 * 1024u32).to_le_bytes());
    assert!(matches!(parse_frame(&oversized), Err(Frame2Error::Oversized(_))));
    assert_eq!(HEADER_LEN, 16);
}

#[test]
fn fully_dense_paper_scale_answer_fits_one_frame() {
    // n = 900: 900 × 899 edges per network, every one nonzero, is the
    // largest answer a client can build; at 9 B an edge it still fits
    let edges = 900 * 899;
    let dense = |offset: f64| (0..edges).map(|i| offset + i as f64).collect::<Vec<f64>>();
    let request = Request::SubmitAnswer {
        device_id: "device".into(),
        nonce: 1,
        answer: ProverAnswer {
            response: true,
            flow_a: flow(0, 899, 1.0, dense(1.0)),
            flow_b: flow(899, 0, 2.0, dense(0.5)),
        },
    };
    let bytes = encode_request(4, &request);
    assert!(bytes.len() - HEADER_LEN <= MAX_FRAME_LEN, "{} B", bytes.len());
    let (frame, used) = parse_frame(&bytes).expect("parse").expect("complete");
    assert_eq!(used, bytes.len());
    assert_eq!(frame.opcode, wire2::opcode::SUBMIT_ANSWER);
    assert_eq!(decode_request(&frame).expect("decode"), request);
}
