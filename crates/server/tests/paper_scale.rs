//! Paper-scale serving: one n = 900 authentication round, GetChallenge
//! then SubmitAnswer, through a live `AsyncServer` over wire 2.0.
//!
//! Ignored by default: publishing the device's public model takes about
//! 7 s even in an optimized build. Run it with
//! `cargo test --release -p ppuf-server --test paper_scale -- --ignored`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ppuf_analog::variation::Environment;
use ppuf_core::device::{Ppuf, PpufConfig};
use ppuf_core::protocol::auth::prove;
use ppuf_server::wire::{Request, Response};
use ppuf_server::wire2::{decode_response, encode_request, read_frame2};
use ppuf_server::{AsyncConfig, AsyncServer, ServiceConfig, VerificationService};

/// The paper's largest crossbar.
const NODES: usize = 900;
const GRID: usize = 8;
const DEVICE_ID: &str = "paper-scale";

/// Sends one encoded request frame and returns the decoded reply, which
/// must echo `corr`.
fn call(conn: &mut TcpStream, corr: u64, frame: &[u8]) -> Response {
    conn.write_all(frame).expect("write request");
    let reply = read_frame2(conn).expect("read reply").expect("server closed");
    assert_eq!(reply.corr, corr);
    decode_response(&reply).expect("decode reply")
}

#[test]
#[ignore = "builds an n = 900 device; run in release with --ignored"]
fn paper_scale_round_is_served_over_wire2() {
    let device = Ppuf::generate(PpufConfig::paper(NODES, GRID), 7).expect("device generation");
    let model = device.public_model().expect("model publication");
    let service = Arc::new(VerificationService::new(ServiceConfig::default()));
    // the published capacities alone are ~26 MB, past any frame, so the
    // device registers in process; the round itself goes over the wire
    match service.handle(Request::Register { device_id: DEVICE_ID.into(), model }) {
        Response::Registered { .. } => {}
        other => panic!("registration answered {other:?}"),
    }
    let server = AsyncServer::bind("127.0.0.1:0", service, AsyncConfig::default()).expect("bind");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");

    let get = Request::GetChallenge { device_id: DEVICE_ID.into() };
    let (nonce, challenge) = match call(&mut conn, 1, &encode_request(1, &get)) {
        Response::Challenge { nonce, challenge, .. } => (nonce, challenge),
        other => panic!("GetChallenge answered {other:?}"),
    };
    let answer = prove(&device.executor(Environment::NOMINAL), &challenge).expect("prove");
    let submit = Request::SubmitAnswer { device_id: DEVICE_ID.into(), nonce, answer };
    let frame = encode_request(2, &submit);
    assert!(frame.len() < 64 * 1024, "n = {NODES} SubmitAnswer frame is {} B", frame.len());
    match call(&mut conn, 2, &frame) {
        Response::Verdict { accepted, report, .. } => assert!(accepted, "rejected: {report:?}"),
        other => panic!("SubmitAnswer answered {other:?}"),
    }
}
