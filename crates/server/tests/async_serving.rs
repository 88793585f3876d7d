//! Live tests of the serving tier: wire-1.x byte compatibility against
//! recorded frames, pipelined correlation, negotiation, slow-loris
//! reaping, connection caps, and the end-to-end multiplexed smoke on
//! both wires.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppuf_analog::units::Seconds;
use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_server::loadgen::{run_async_loadgen, AsyncLoadgenConfig, AsyncLoadgenReport};
use ppuf_server::mux::WireFlavor;
use ppuf_server::service::{ServiceConfig, VerificationService};
use ppuf_server::tcp::Client;
use ppuf_server::wire::{ErrorKind, Request, Response};
use ppuf_server::wire2::{self, opcode};
use ppuf_server::{AsyncConfig, AsyncServer, HealthStatus};

const SEED: u64 = 23;

fn service(seed: u64) -> Arc<VerificationService> {
    Arc::new(VerificationService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        deadline: Some(Seconds(5.0)),
        challenge_pool: 2,
        seed,
        ..ServiceConfig::default()
    }))
}

fn bind_async(config: AsyncConfig) -> AsyncServer {
    AsyncServer::bind("127.0.0.1:0", service(SEED), config).expect("async bind")
}

/// Registers the standard test device over the JSON compat path.
fn register_device(addr: SocketAddr) -> Ppuf {
    let ppuf = Ppuf::generate(PpufConfig::paper(8, 2), SEED).expect("device generation");
    let model = ppuf.public_model().expect("model publication");
    let mut client = Client::connect(addr).expect("connect");
    match client.request(&Request::Register { device_id: "dev".into(), model }).expect("register") {
        Response::Registered { .. } => ppuf,
        other => panic!("registration rejected: {other:?}"),
    }
}

/// Reads one length-prefixed JSON frame as raw bytes.
fn read_json_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("frame length");
    let len = u32::from_be_bytes(prefix) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("frame payload");
    let mut frame = prefix.to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Sends pre-framed bytes and returns the raw response frame.
fn raw_json_exchange(stream: &mut TcpStream, frame: &[u8]) -> Vec<u8> {
    stream.write_all(frame).expect("write frame");
    read_json_frame(stream)
}

fn json_frame_of(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    ppuf_server::wire::send_message(&mut frame, request).expect("encode");
    frame
}

fn raw_frame_of(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    ppuf_server::wire::write_frame(&mut frame, payload).expect("encode");
    frame
}

/// The response frames the thread-per-connection server that preceded
/// [`AsyncServer`] returned for the six exchanges below, recorded byte
/// for byte: the 4-byte big-endian length prefix, then the JSON payload.
/// No field is nondeterministic — error messages are fixed strings and
/// the envelope echoes the client's own trace id 7.
const RECORDED_RESPONSES: [(&[u8; 4], &[u8]); 6] = [
    (b"\0\0\0\x06", br#""Pong""#),
    (
        b"\0\0\0\x70",
        br#"{"Error":{"kind":"UnknownDevice","message":"device \"no-such-device\" is not registered","retry_after_ms":null}}"#,
    ),
    (
        b"\0\0\0\x64",
        br#"{"Error":{"kind":"Malformed","message":"json error: expected '\"' at byte 1","retry_after_ms":null}}"#,
    ),
    (
        b"\0\0\0\xa2",
        br#"{"Error":{"kind":"Malformed","message":"json error: serde error: Request: unrecognized variant Map([(\"Bogus\", Map([(\"x\", Int(1))]))])","retry_after_ms":null}}"#,
    ),
    (b"\0\0\0\x1c", br#"{"trace_id":7,"body":"Pong"}"#),
    (b"\0\0\0\x06", br#""Pong""#),
];

/// The wire-1.x lock: a blocking client must receive exactly the
/// recorded response frames, across bare requests, malformed payloads,
/// and the trace envelope.
#[test]
fn wire_1x_responses_match_the_recorded_frames() {
    let reactor = bind_async(AsyncConfig::default());

    let exchanges: Vec<Vec<u8>> = vec![
        json_frame_of(&Request::Ping),
        json_frame_of(&Request::GetChallenge { device_id: "no-such-device".into() }),
        raw_frame_of(b"\x7bnot json at all"),
        raw_frame_of(b"{\"Bogus\": {\"x\": 1}}"),
        // wire-1.1 envelope: the response must come back enveloped
        raw_frame_of(br#"{"trace_id": 7, "body": "Ping"}"#),
        json_frame_of(&Request::Ping),
    ];

    let mut stream = TcpStream::connect(reactor.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    for (i, (frame, (prefix, payload))) in exchanges.iter().zip(RECORDED_RESPONSES).enumerate() {
        let got = raw_json_exchange(&mut stream, frame);
        let want = [&prefix[..], payload].concat();
        assert_eq!(
            got,
            want,
            "exchange {i}: reactor {:?} vs recorded {:?}",
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want)
        );
    }
}

/// Pipelined binary requests complete out of order but every response
/// carries the correlation id of its request.
#[test]
fn binary_pipelining_echoes_correlation_ids() {
    let server = bind_async(AsyncConfig::default());
    register_device(server.local_addr());

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // three challenges pipelined back to back in one write
    let mut burst = Vec::new();
    for corr in [11u64, 22, 33] {
        burst.extend_from_slice(&wire2::encode_request(
            corr,
            &Request::GetChallenge { device_id: "dev".into() },
        ));
    }
    stream.write_all(&burst).expect("write burst");

    let mut seen = Vec::new();
    for _ in 0..3 {
        let frame = wire2::read_frame2(&mut stream).expect("read").expect("frame");
        assert_eq!(frame.opcode, opcode::CHALLENGE);
        let response = wire2::decode_response(&frame).expect("decode");
        assert!(matches!(response, Response::Challenge { .. }), "{response:?}");
        seen.push(frame.corr);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![11, 22, 33]);
}

/// JSON responses come back in request order even though the dispatch
/// pool completes them concurrently — the wire-1.x ordering contract.
#[test]
fn json_pipelined_responses_stay_in_request_order() {
    let server = bind_async(AsyncConfig::default());
    register_device(server.local_addr());

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut burst = json_frame_of(&Request::GetChallenge { device_id: "dev".into() });
    burst.extend_from_slice(&json_frame_of(&Request::Ping));
    burst.extend_from_slice(&json_frame_of(&Request::GetChallenge {
        device_id: "no-such-device".into(),
    }));
    stream.write_all(&burst).expect("write burst");

    let expectations: [&dyn Fn(&Response) -> bool; 3] =
        [&|r| matches!(r, Response::Challenge { .. }), &|r| matches!(r, Response::Pong), &|r| {
            matches!(r, Response::Error { .. })
        }];
    for (i, expect) in expectations.iter().enumerate() {
        let frame = read_json_frame(&mut stream);
        let text = std::str::from_utf8(&frame[4..]).expect("utf8");
        let response: Response = serde_json::from_str(text).expect("decode");
        assert!(expect(&response), "response {i} out of order: {response:?}");
    }
}

/// A first byte that is neither JSON's length prefix nor the wire-2.0
/// magic closes the connection without a response.
#[test]
fn garbage_first_bytes_close_the_connection() {
    let server = bind_async(AsyncConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    let mut buf = [0u8; 64];
    assert_eq!(stream.read(&mut buf).expect("read"), 0, "expected EOF, got data");
    // the reactor accounted the close: nothing left open
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().open() != 0 {
        assert!(Instant::now() < deadline, "connection still counted open");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().accepted(), 1);
}

/// A half-written frame trips the read deadline: the slow-loris is
/// reaped and the open-connections gauge decrements.
#[test]
fn slow_loris_half_frame_is_reaped_and_gauge_decrements() {
    let server = bind_async(AsyncConfig {
        read_deadline: Duration::from_millis(200),
        sweep_interval: Duration::from_millis(50),
        ..AsyncConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // claim a 64-byte JSON frame, deliver only 3 bytes, then stall
    stream.write_all(&64u32.to_be_bytes()).expect("write prefix");
    stream.write_all(b"{\"G").expect("write stub");

    let gauge = |stats: &ppuf_server::conn::TransportStats, name: &str| -> f64 {
        stats.gauges().into_iter().find(|(n, _)| n == name).map(|(_, v)| v).unwrap_or(f64::NAN)
    };
    // the connection shows up open ...
    let deadline = Instant::now() + Duration::from_secs(5);
    while gauge(server.stats(), "ppuf_conn_open") < 1.0 {
        assert!(Instant::now() < deadline, "connection never counted open");
        std::thread::sleep(Duration::from_millis(5));
    }
    // ... and the sweep reaps it without us sending another byte
    let mut buf = [0u8; 16];
    assert_eq!(stream.read(&mut buf).expect("read"), 0, "expected EOF after reap");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.reaped() == 1 && gauge(stats, "ppuf_conn_open") == 0.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reap not accounted: reaped={} open={}",
            stats.reaped(),
            gauge(stats, "ppuf_conn_open")
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A peer that pipelines requests but never reads responses is closed
/// once its buffered-response backlog passes the write cap — the write
/// buffer cannot grow without bound.
#[test]
fn write_backlog_past_the_cap_closes_the_connection() {
    let server = bind_async(AsyncConfig {
        max_write_buf: 256,
        sweep_interval: Duration::from_millis(50),
        ..AsyncConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // never read: pipeline pings until the unread responses fill the
    // kernel buffers, trip the cap, and the server closes on us (seen as
    // a write error once the reset lands)
    let burst: Vec<u8> = (0..64).flat_map(|i| wire2::encode_request(i, &Request::Ping)).collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "backlogged connection never closed");
        if stream.write_all(&burst).is_err() {
            break;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().open() != 0 {
        assert!(Instant::now() < deadline, "connection still counted open");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().reaped(), 1);
}

/// Accepts beyond the connection cap are shed immediately; the cap
/// protects the event loop's slab and file descriptors.
#[test]
fn connection_cap_sheds_excess_accepts() {
    let server = bind_async(AsyncConfig { max_connections: 2, ..AsyncConfig::default() });
    let addr = server.local_addr();
    let mut keep = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        // prove the connection is live: a ping answers
        stream.write_all(&json_frame_of(&Request::Ping)).expect("write");
        let frame = read_json_frame(&mut stream);
        assert!(std::str::from_utf8(&frame[4..]).expect("utf8").contains("Pong"));
        keep.push(stream);
    }
    let mut third = TcpStream::connect(addr).expect("connect");
    third.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut buf = [0u8; 16];
    assert_eq!(third.read(&mut buf).expect("read"), 0, "expected EOF past the cap");
    assert_eq!(server.stats().rejected(), 1);
    assert_eq!(server.stats().open(), 2);
}

/// A binary frame trickled one byte at a time still parses and answers —
/// the incremental parser holds state across arbitrarily torn reads.
#[test]
fn torn_binary_frame_over_live_socket_still_answers() {
    let server = bind_async(AsyncConfig::default());
    register_device(server.local_addr());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    let frame = wire2::encode_request(99, &Request::GetChallenge { device_id: "dev".into() });
    for byte in &frame {
        stream.write_all(std::slice::from_ref(byte)).expect("write byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let response = wire2::read_frame2(&mut stream).expect("read").expect("frame");
    assert_eq!(response.corr, 99);
    assert_eq!(response.opcode, opcode::CHALLENGE);
}

/// A stale client's dense `SubmitAnswer` (the retired opcode `0x02`) is
/// answered `Malformed` under its correlation id, and the connection
/// keeps serving.
#[test]
fn retired_dense_submit_opcode_is_malformed_and_the_connection_lives() {
    let server = bind_async(AsyncConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // device id "dev", nonce 1, response bit, then two dense flows of two
    // edges: terminals, value, edge count and every edge as an f64
    let mut payload = vec![3, 0, b'd', b'e', b'v'];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(1);
    for (source, sink) in [(0u32, 1u32), (1, 0)] {
        payload.extend_from_slice(&source.to_le_bytes());
        payload.extend_from_slice(&sink.to_le_bytes());
        payload.extend_from_slice(&0.5f64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        for edge in [0.5f64, 0.0] {
            payload.extend_from_slice(&edge.to_le_bytes());
        }
    }
    wire2::write_frame2(&mut stream, 0x02, 41, &payload).expect("write");
    let frame = wire2::read_frame2(&mut stream).expect("read").expect("frame");
    assert_eq!((frame.opcode, frame.corr), (opcode::ERROR, 41));
    match wire2::decode_response(&frame).expect("decode") {
        Response::Error { kind: ErrorKind::Malformed, message, .. } => {
            assert!(message.contains("opcode 0x02"), "{message}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }

    stream.write_all(&wire2::encode_request(42, &Request::Ping)).expect("write ping");
    let frame = wire2::read_frame2(&mut stream).expect("read").expect("frame");
    assert_eq!((frame.opcode, frame.corr), (opcode::PONG, 42));
}

/// Pipelined answers that each name the most edges one frame may, in
/// one write, are not all decoded at once: past the server's answer-edge
/// budget they are answered `Overloaded`, and once the decoded ones are
/// answered their edges are free again.
#[test]
fn pipelined_max_edge_answers_are_shed_past_the_edge_budget() {
    let server = bind_async(AsyncConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // device "dev" (never registered), nonce 1, response bit, then two
    // flows naming MAX_FLOW_EDGES / 2 edges each and no entries
    let mut payload = vec![3, 0, b'd', b'e', b'v'];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(1);
    for _ in 0..2 {
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&0f64.to_le_bytes());
        payload.extend_from_slice(&(wire2::MAX_FLOW_EDGES as u32 / 2).to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
    }
    let frame = |corr| wire2::encode_frame(opcode::SUBMIT_ANSWER, corr, &payload);
    let frames = 32u64;
    let burst: Vec<u8> = (0..frames).flat_map(frame).collect();
    stream.write_all(&burst).expect("write burst");

    let (mut unknown, mut overloaded) = (0, 0);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..frames {
        let reply = wire2::read_frame2(&mut stream).expect("read").expect("frame");
        assert!(seen.insert(reply.corr), "corr {} answered twice", reply.corr);
        match wire2::decode_response(&reply).expect("decode") {
            Response::Error { kind: ErrorKind::UnknownDevice, .. } => unknown += 1,
            Response::Error { kind: ErrorKind::Overloaded, .. } => overloaded += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(unknown >= 1 && overloaded >= 1, "{unknown} decoded, {overloaded} shed");

    // every decoded answer has been answered, so the whole budget is back
    stream.write_all(&frame(frames)).expect("write");
    let reply = wire2::read_frame2(&mut stream).expect("read").expect("frame");
    assert!(matches!(
        wire2::decode_response(&reply).expect("decode"),
        Response::Error { kind: ErrorKind::UnknownDevice, .. }
    ));
}

/// The reactor attributes its loop time into the service profiler:
/// after serving traffic, `server.reactor;*` phase paths are present
/// with self times bounded by the loop's wall time.
#[test]
fn reactor_phase_times_reach_the_service_profiler() {
    let service = service(SEED);
    let mut server = AsyncServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        AsyncConfig { sweep_interval: Duration::from_millis(25), ..AsyncConfig::default() },
    )
    .expect("async bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stream.write_all(&json_frame_of(&Request::Ping)).expect("write");
    let frame = read_json_frame(&mut stream);
    assert!(std::str::from_utf8(&frame[4..]).expect("utf8").contains("Pong"));
    drop(stream);
    // teardown flushes the partial accumulators, so the snapshot is
    // complete without waiting out a sweep interval
    server.shutdown();

    let profile = service.profiler().snapshot();
    let root = profile.get("server.reactor").expect("reactor root path");
    assert!(root.wall_s > 0.0, "reactor wall time recorded");
    for phase in ["poll_wait", "accept", "parse", "dispatch", "write"] {
        let stats = profile
            .get(&format!("server.reactor;{phase}"))
            .unwrap_or_else(|| panic!("missing reactor phase {phase}"));
        assert!(stats.self_s <= root.wall_s + 1e-9, "{phase} self time exceeds loop wall");
    }
}

fn small_async_profile(wire: WireFlavor) -> AsyncLoadgenConfig {
    AsyncLoadgenConfig {
        label: format!("async-it-{wire:?}"),
        honest_connections: 12,
        impostor_connections: 2,
        garbage_connections: 2,
        pipeline: 2,
        rounds_per_stream: 1,
        deadline_s: 2.0,
        wire,
        ..AsyncLoadgenConfig::default()
    }
}

/// End-to-end multiplexed smoke on the binary wire: all cohorts over one
/// event-loop client, correlation ids echoed on every response.
#[test]
fn async_loadgen_smoke_binary_wire() {
    let report =
        run_async_loadgen(&small_async_profile(WireFlavor::Binary)).expect("async loadgen");
    report.check_smoke_invariants().expect("async smoke invariants");
    assert_eq!(report.total_rounds, 32);
    assert!(report.mux.corr_echoed > 0);
    assert_eq!(report.mux.corr_echoed, report.mux.responses);
    assert_eq!(report.traced_requests, 0, "the binary wire has no trace envelope");
}

/// The same cohorts over wire-1.x JSON: pipelining works with in-order
/// response matching and no correlation ids, every answer rides a trace
/// envelope, and the small profile ends with a healthy service whose own
/// accounting matches the client-side view.
#[test]
fn async_loadgen_smoke_json_wire() {
    let report = run_async_loadgen(&small_async_profile(WireFlavor::Json)).expect("async loadgen");
    report.check_smoke_invariants().expect("async smoke invariants");
    assert_eq!(report.mux.corr_echoed, 0, "JSON wire has no correlation ids");

    // exact cohort counts: 16 connections x pipeline 2, one round each
    assert_eq!(report.total_rounds, 32);
    assert_eq!(report.honest.requests, 24);
    assert_eq!(report.honest.accepted, 24, "{:?}", report.honest);
    assert_eq!(report.impostor.requests, 4);
    assert_eq!(report.impostor.rejected_deadline, 4, "{:?}", report.impostor);
    assert_eq!(report.garbage.requests, 4);
    assert_eq!(report.garbage.structured_errors, 4, "{:?}", report.garbage);
    assert_eq!(report.shed_requests, 0);

    // the verification cache absorbed repeated answers: the challenge
    // pool rotates 4 challenges, so among 28 verified answers at most a
    // handful can miss
    let counter = |name: &str| report.server_counters.get(name).copied();
    let hits = counter("server.cache.hits").unwrap_or(0);
    let misses = counter("server.cache.misses").unwrap_or(0);
    assert!(hits > 0, "no cache hits: counters = {:?}", report.server_counters);
    assert!(hits + misses >= 28, "every verified answer passes through the cache");

    // server-side accounting matches the client-side view; the garbage
    // streams' rotation sends one frame that is not JSON and one that is
    // JSON but not a request, each answered `Malformed`
    assert_eq!(counter("server.answers.accepted"), Some(24));
    assert_eq!(counter("server.answers.rejected"), Some(4));
    assert_eq!(counter("server.answers.rejected_deadline"), Some(4));
    assert_eq!(counter("server.requests.malformed"), Some(2));
    assert!(counter("analog.dc.warm_start_hits").unwrap_or(0) > 0);
    assert!(report.server_warnings.is_empty(), "{:?}", report.server_warnings);

    // latency percentiles exist and are ordered
    let latency = report.honest.latency.expect("honest latency recorded");
    assert_eq!(latency.count, 24);
    assert!(latency.p50 <= latency.p95 && latency.p95 <= latency.p99);
    assert!(latency.min <= latency.p50 && latency.p99 <= latency.max);

    // the percentiles come from the bounded histogram riding along in
    // the report, so summary and snapshot must agree exactly
    let hist = report.honest.latency_hist.clone().expect("honest latency histogram recorded");
    assert_eq!(hist.count, 24);
    assert_eq!(hist.quantile(0.5), Some(latency.p50));
    assert_eq!(hist.quantile(0.95), Some(latency.p95));
    assert_eq!(hist.quantile(0.99), Some(latency.p99));

    // the service ends the run healthy, with all three SLO verdicts
    // present and the matching gauge exposed on the scrape
    assert_eq!(report.health.status, HealthStatus::Ok, "{:?}", report.health);
    assert_eq!(report.health.slos.len(), 3);
    assert_eq!(report.prometheus_samples.get("ppuf_slo_health").copied(), Some(0.0));

    // every verdict round carried an echoed trace id, and the server-side
    // span trees correlate end to end under those ids
    assert_eq!(report.traced_requests, 28, "honest + impostor verdict rounds");
    assert!(report.correlated_traces >= 1, "{:?}", report.correlated_traces);

    // the live Prometheus scrape exposed the headline serving metrics
    for metric in
        ["ppuf_cache_hits_total", "ppuf_pool_queue_depth", "ppuf_dc_warm_start_hits_total"]
    {
        assert!(report.prometheus_samples.contains_key(metric), "missing {metric}");
    }
    assert!(report.prometheus_samples["ppuf_cache_hits_total"] >= hits as f64);
    // zero-filled cache/warm-start counters always appear in the report
    for key in ["server.cache.evictions", "analog.dc.warm_start_misses"] {
        assert!(report.server_counters.contains_key(key), "missing {key}");
    }

    // the JSON report round-trips
    let json = report.to_json();
    let parsed: AsyncLoadgenReport = serde_json::from_str(&json).expect("report JSON parses back");
    assert_eq!(parsed, report);
    assert!(json.contains("throughput_rps"));
}
