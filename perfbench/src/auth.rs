//! `auth_fresh` and `auth_repeat`: authentication rounds against an
//! in-process `AsyncServer`, driven over loopback with wire 2.0.
//!
//! Two connections carry two pipelined streams each, in a closed loop: a
//! stream sends GetChallenge, answers the challenge it gets, waits for
//! the verdict and only then starts its next round, because a prover
//! cannot answer before its challenge arrives. The server rotates a pool
//! of 64 challenges; the client proves each pooled challenge once, during
//! warm-up, so no max-flow solve runs in the measured loop. A seeded
//! quarter of the pool is always answered with a forgery.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppuf_analog::units::Seconds;
use ppuf_analog::variation::Environment;
use ppuf_core::protocol::auth::{prove, ProverAnswer, Verifier};
use ppuf_core::{Challenge, Ppuf, PpufConfig};
use ppuf_server::cache::challenge_fingerprint;
use ppuf_server::wire::{ErrorKind, Request, Response};
use ppuf_server::wire2::{decode_response, encode_request, read_frame2};
use ppuf_server::{AsyncConfig, AsyncServer, ServiceConfig, VerificationService};
use ppuf_telemetry::{MemoryRecorder, ProfileStats};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::layers::{self, Answer};
use crate::stats::{block_rates, blocked_tail, median, Tally};
use crate::{cpu_s, trace, Outcome, Run};

const NODES: usize = 200;
const GRID: usize = 8;
/// Challenges in the server's rotating pool; warm-up is one rotation.
const POOL: usize = 64;
/// Pooled challenges always answered with a forgery.
const FORGED: usize = POOL / 4;
const CONNECTIONS: usize = 2;
const STREAMS_PER_CONNECTION: usize = 2;
const VERIFIER_WORKERS: usize = 2;
const DISPATCH_THREADS: usize = 2;
/// The answer deadline the async load generator uses.
const DEADLINE_S: f64 = 2.0;
/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 3;
/// A reply slower than this ends the run as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
const DEVICE_ID: &str = "perfbench-chip";
/// Rounds per block of the round rates whose median is `crp_per_s`.
const RATE_BLOCK: usize = 100;
/// Rounds per block of the block tails whose median is `round_p99_ms`:
/// the smallest block whose p99 has ten samples beyond it.
const TAIL_BLOCK: usize = 1000;

/// Seed streams (see [`Run::seed_for`]).
const DEVICE_STREAM: u64 = 11;
const SERVER_STREAM: u64 = 12;
const FORGERY_STREAM: u64 = 13;

/// The memoized answer to one pooled challenge.
struct Memo {
    challenge: Challenge,
    /// The honest (A, B) max-flow values.
    honest: (f64, f64),
    kind: Answer,
    /// The `SubmitAnswer` request; a round sets its nonce and encodes it.
    request: Mutex<Request>,
}

/// One set-up: device, published model, running server, client
/// connections, and the proofs memoized during warm-up.
struct Setup {
    device: Ppuf,
    verifier: Verifier,
    server: AsyncServer,
    conns: Vec<TcpStream>,
    memo: HashMap<u64, Memo>,
}

/// Round-trips one encoded request frame sent under `corr` on a
/// connection with no other request in flight.
fn call(conn: &mut TcpStream, corr: u64, frame: &[u8]) -> io::Result<Response> {
    conn.write_all(frame)?;
    let frame = read_frame2(conn)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    if frame.corr != corr {
        return Err(io::Error::other(format!("reply to {} answered {corr}", frame.corr)));
    }
    decode_response(&frame)
}

/// Opens the client's connections.
fn connect(server: &AsyncServer) -> io::Result<Vec<TcpStream>> {
    (0..CONNECTIONS)
        .map(|_| {
            let conn = TcpStream::connect(server.local_addr())?;
            conn.set_nodelay(true)?;
            conn.set_read_timeout(Some(READ_TIMEOUT))?;
            Ok(conn)
        })
        .collect()
}

fn setup(run: &Run, repeat: bool, tally: &mut Tally) -> io::Result<Setup> {
    let device = Ppuf::generate(PpufConfig::paper(NODES, GRID), run.seed_for(DEVICE_STREAM))
        .map_err(io::Error::other)?;
    let executor = device.executor(Environment::NOMINAL);
    let model = device.public_model().map_err(io::Error::other)?;
    let verifier = Verifier::new(model.clone());
    let config = ServiceConfig {
        workers: VERIFIER_WORKERS,
        deadline: Some(Seconds(DEADLINE_S)),
        challenge_pool: POOL,
        seed: run.seed_for(SERVER_STREAM),
        // a one-entry cache never holds the next round's answer
        ..if repeat {
            ServiceConfig::default()
        } else {
            ServiceConfig { cache_shards: 1, cache_capacity: 1, ..ServiceConfig::default() }
        }
    };
    let service = Arc::new(VerificationService::new(config));
    let server = AsyncServer::bind(
        "127.0.0.1:0",
        service,
        AsyncConfig { dispatch_threads: DISPATCH_THREADS, ..AsyncConfig::default() },
    )?;
    let mut conns = connect(&server)?;
    let register = Request::Register { device_id: DEVICE_ID.into(), model };
    match call(&mut conns[0], 0, &encode_request(0, &register))? {
        Response::Registered { .. } => {}
        other => return Err(io::Error::other(format!("registration answered {other:?}"))),
    }

    // warm-up: one pool rotation, proving each challenge as it first
    // appears; the forged quarter is drawn by pool position
    let mut forged: Vec<usize> = (0..POOL).collect();
    forged.shuffle(&mut ChaCha8Rng::seed_from_u64(run.seed_for(FORGERY_STREAM)));
    forged.truncate(FORGED);
    let mut memo = HashMap::with_capacity(POOL);
    for round in 0..POOL as u64 {
        let conn = &mut conns[0];
        let corr = 2 * round + 1;
        let (nonce, challenge) = match call(conn, corr, &encode_request(corr, &get_challenge()))? {
            Response::Challenge { nonce, challenge, .. } => (nonce, challenge),
            other => return Err(io::Error::other(format!("GetChallenge answered {other:?}"))),
        };
        let fingerprint = challenge_fingerprint(&challenge);
        if !memo.contains_key(&fingerprint) {
            let honest = prove(&executor, &challenge).map_err(io::Error::other)?;
            let kind = match forged.iter().position(|&p| p == memo.len()) {
                None => Answer::Honest,
                Some(k) if k % 2 == 0 => Answer::Under,
                Some(_) => Answer::Over,
            };
            let request = Request::SubmitAnswer {
                device_id: DEVICE_ID.into(),
                nonce: 0,
                answer: kind.make(&honest),
            };
            let honest = (honest.flow_a.value(), honest.flow_b.value());
            memo.insert(
                fingerprint,
                Memo { challenge, honest, kind, request: Mutex::new(request) },
            );
        }
        let entry = &memo[&fingerprint];
        let reply = call(conn, corr + 1, &submit_frame(entry, nonce, corr + 1))?;
        check_verdict(entry.kind, Some(&reply), tally);
    }
    drop(executor);
    Ok(Setup { device, verifier, server, conns, memo })
}

fn get_challenge() -> Request {
    Request::GetChallenge { device_id: DEVICE_ID.into() }
}

/// Encodes the memoized answer as this round's `SubmitAnswer` frame.
fn submit_frame(entry: &Memo, nonce: u64, corr: u64) -> Vec<u8> {
    let mut request = entry.request.lock().expect("memo lock poisoned by a panicked client");
    if let Request::SubmitAnswer { nonce: slot, .. } = &mut *request {
        *slot = nonce;
    }
    encode_request(corr, &request)
}

/// Counts one round: its reply must be the verdict its answer's kind
/// calls for. Returns whether the verdict came from the server's cache.
fn check_verdict(kind: Answer, reply: Option<&Response>, tally: &mut Tally) -> bool {
    let (ok, cached) = match reply {
        Some(Response::Verdict { accepted, report, cached, .. }) => {
            (*accepted == report.accepted() && kind.verdict_ok(report), *cached)
        }
        _ => (false, false),
    };
    tally.check(ok, || format!("{kind:?} answer got {reply:?}"));
    cached
}

/// One stream's position in its round.
enum Stage {
    AwaitChallenge { sent: Instant },
    AwaitVerdict { sent: Instant, challenged: Instant, kind: Answer },
    Done,
}

/// What one connection's streams measured.
#[derive(Default)]
struct ConnStats {
    tally: Tally,
    /// Each verdict round's completion, in seconds since the section
    /// started, and its latency in milliseconds.
    rounds: Vec<(f64, f64)>,
    cached: u64,
    overloaded: u64,
    finished: Option<Instant>,
}

/// Drives one connection's streams until `stop`, then lets every round
/// in flight finish. Every correlation id must be answered exactly once.
fn drive(
    conn: &mut TcpStream,
    first_corr: u64,
    memo: &HashMap<u64, Memo>,
    (start, stop): (Instant, Instant),
    recorder: Option<&MemoryRecorder>,
) -> ConnStats {
    let mut stats = ConnStats::default();
    let mut next_corr = first_corr;
    let mut streams: Vec<(u64, Stage)> = Vec::with_capacity(STREAMS_PER_CONNECTION);
    let mut io_result = Ok(());
    for _ in 0..STREAMS_PER_CONNECTION {
        next_corr += 1;
        streams.push((next_corr, Stage::AwaitChallenge { sent: Instant::now() }));
        io_result =
            io_result.and_then(|()| conn.write_all(&encode_request(next_corr, &get_challenge())));
    }
    while io_result.is_ok() && streams.iter().any(|(_, stage)| !matches!(stage, Stage::Done)) {
        let frame = match read_frame2(conn) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                io_result = Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
                break;
            }
            Err(e) => {
                io_result = Err(e);
                break;
            }
        };
        let now = Instant::now();
        let Some(s) = streams
            .iter()
            .position(|(corr, stage)| *corr == frame.corr && !matches!(stage, Stage::Done))
        else {
            stats
                .tally
                .check(false, || format!("reply to unknown or answered corr {}", frame.corr));
            continue;
        };
        let reply = decode_response(&frame).ok();
        if let Some(Response::Error { kind: ErrorKind::Overloaded, .. }) = &reply {
            stats.overloaded += 1;
        }
        let round_over = match (&streams[s].1, reply) {
            (
                Stage::AwaitChallenge { sent },
                Some(Response::Challenge { nonce, challenge, .. }),
            ) => {
                let sent = *sent;
                match memo.get(&challenge_fingerprint(&challenge)) {
                    Some(entry) => {
                        next_corr += 1;
                        streams[s] = (
                            next_corr,
                            Stage::AwaitVerdict { sent, challenged: now, kind: entry.kind },
                        );
                        io_result = conn.write_all(&submit_frame(entry, nonce, next_corr));
                        false
                    }
                    None => {
                        stats.tally.check(false, || "challenge outside the warmed-up pool".into());
                        true
                    }
                }
            }
            (Stage::AwaitVerdict { sent, challenged, kind }, reply) => {
                stats.cached += u64::from(check_verdict(*kind, reply.as_ref(), &mut stats.tally));
                let latency_ms = (now - *sent).as_secs_f64() * 1e3;
                stats.rounds.push(((now - start).as_secs_f64(), latency_ms));
                if let Some(recorder) = recorder {
                    trace::record_phases(
                        recorder,
                        "bench.auth.round",
                        *sent,
                        &[
                            ("bench.client.get_challenge", *challenged),
                            ("bench.client.submit", now),
                        ],
                    );
                }
                true
            }
            (_, reply) => {
                stats.tally.check(false, || format!("GetChallenge answered {reply:?}"));
                true
            }
        };
        if round_over {
            stats.finished = Some(now);
            if now < stop {
                next_corr += 1;
                streams[s] = (next_corr, Stage::AwaitChallenge { sent: Instant::now() });
                io_result = conn.write_all(&encode_request(next_corr, &get_challenge()));
            } else {
                streams[s].1 = Stage::Done;
            }
        }
    }
    if let Err(e) = io_result {
        for (corr, stage) in &streams {
            if !matches!(stage, Stage::Done) {
                stats.tally.check(false, || format!("corr {corr} never answered: {e}"));
            }
        }
    }
    stats
}

/// One measured section: every connection driven on its own thread.
struct Section {
    stats: ConnStats,
    /// Seconds from the section's start to its last completed round.
    elapsed: f64,
    /// Process CPU seconds the section used, client and server alike.
    cpu: f64,
}

impl Section {
    fn rounds(&self) -> usize {
        self.stats.rounds.len()
    }

    /// Round latencies in milliseconds, in completion order.
    fn latencies_ms(&self) -> Vec<f64> {
        self.stats.rounds.iter().map(|&(_, latency)| latency).collect()
    }

    /// Round rates over blocks of equal work.
    fn rates(&self) -> Vec<f64> {
        let completions: Vec<f64> = self.stats.rounds.iter().map(|&(at, _)| at).collect();
        block_rates(&completions, RATE_BLOCK)
    }
}

/// The wall-clock metrics of `sections`: median block rate, and the
/// median and blocked tail of round latencies.
fn wall_metrics(sections: &[&Section]) -> [(&'static str, f64); 3] {
    let rates: Vec<f64> = sections.iter().flat_map(|s| s.rates()).collect();
    let latencies: Vec<f64> = sections.iter().flat_map(|s| s.latencies_ms()).collect();
    [
        ("crp_per_s", median(&rates).unwrap_or(0.0)),
        ("round_p50_ms", median(&latencies).unwrap_or(0.0)),
        ("round_p99_ms", blocked_tail(&latencies, TAIL_BLOCK).map_or(0.0, |(v, _)| v)),
    ]
}

fn measure(
    setup: &mut Setup,
    seconds: f64,
    recorder: Option<&MemoryRecorder>,
    corr_base: u64,
) -> Section {
    let (start, cpu0) = (Instant::now(), cpu_s());
    let stop = start + Duration::from_secs_f64(seconds);
    let memo = &setup.memo;
    let per_conn: Vec<ConnStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let first_corr = corr_base + ((i as u64 + 1) << 40);
                scope.spawn(move || drive(conn, first_corr, memo, (start, stop), recorder))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut stats = ConnStats::default();
    for conn in per_conn {
        stats.tally.absorb(conn.tally);
        stats.rounds.extend(conn.rounds);
        stats.cached += conn.cached;
        stats.overloaded += conn.overloaded;
        stats.finished = stats.finished.max(conn.finished);
    }
    let cpu = cpu_s() - cpu0;
    stats.rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let elapsed = stats.finished.map_or(seconds, |end| (end - start).as_secs_f64());
    Section { stats, elapsed, cpu }
}

/// Runs `auth_fresh` (`repeat == false`: a one-entry verification cache,
/// so every answer is verified) or `auth_repeat` (the default cache, so
/// after warm-up every verdict is a cache hit).
pub fn authenticate(run: &Run, repeat: bool) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..if run.trace { 1 } else { SETUPS } {
        drop(kept.take());
        let cpu0 = cpu_s();
        kept = Some(setup(run, repeat, &mut outcome.tally)?);
        setup_s.push(cpu_s() - cpu0);
    }
    let mut setup = kept.expect("at least one set-up");
    let name = if repeat { "auth_repeat" } else { "auth_fresh" };

    if !run.trace {
        let section = measure(&mut setup, run.seconds, None, 0);
        let m = &mut outcome.metrics;
        m.insert("cpu_ms_per_crp", section.cpu * 1e3 / section.rounds().max(1) as f64);
        m.insert("setup_s", median(&setup_s).unwrap_or(0.0));
        eprintln!(
            "perfbench: {name}: {} rounds, {} cache hits; wall clock {:?} (tail: median p99 of {TAIL_BLOCK}-round blocks)",
            section.rounds(),
            section.stats.cached,
            wall_metrics(&[&section]),
        );
        outcome.tally.absorb(section.stats.tally);
        return Ok(outcome);
    }

    // untraced and traced quarters alternate, so drift in the host's
    // speed lands on both sides of trace_overhead
    let recorder = trace::recorder();
    let quarter = run.seconds / 4.0;
    let untraced = [measure(&mut setup, quarter, None, 0)];
    // the server's trace store keeps a bounded number of spans per
    // connection, so the profiled quarter starts on fresh connections
    setup.conns = connect(&setup.server)?;
    let profile_before = setup.server.service().profiler().snapshot();
    let traced = [measure(&mut setup, quarter, Some(&recorder), 1 << 56)];
    let profile_after = setup.server.service().profiler().snapshot();
    let untraced = [&untraced[0], &measure(&mut setup, quarter, None, 2 << 56)];
    let traced = [&traced[0], &measure(&mut setup, quarter, Some(&recorder), 3 << 56)];
    let per_round_s = |sections: [&Section; 2]| {
        sections.iter().map(|s| s.elapsed).sum::<f64>()
            / sections.iter().map(|s| s.rounds()).sum::<usize>() as f64
    };
    let m = &mut outcome.metrics;
    m.insert("trace_overhead", per_round_s(traced) / per_round_s(untraced));
    m.extend(wall_metrics(&untraced));
    let verdicts: usize = traced.iter().map(|s| s.rounds()).sum();
    let cached: u64 = traced.iter().map(|s| s.stats.cached).sum();
    m.insert("cache.hit_ratio", cached as f64 / verdicts.max(1) as f64);
    let overloaded: u64 = untraced.iter().chain(&traced).map(|s| s.stats.overloaded).sum();
    m.insert("pool.overloaded", overloaded as f64);
    for (metric, span) in [
        ("client.get_challenge_ms", "bench.client.get_challenge"),
        ("client.submit_ms", "bench.client.submit"),
    ] {
        m.insert(metric, trace::mean_ms(&recorder, span).unwrap_or(0.0));
    }
    // self time per occurrence for the request spans the profile kept,
    // and per round for the reactor, which reports every sweep
    let delta = |leaves: &[&str], stat: fn(&ProfileStats) -> f64| {
        let sum = |profile: &BTreeMap<String, ProfileStats>| {
            leaves.iter().map(|leaf| trace::leaf_total(profile, leaf, stat)).sum::<f64>()
        };
        sum(&profile_after) - sum(&profile_before)
    };
    for (metric, leaf) in [
        ("server.queue_wait_ms", "server.queue_wait"),
        ("server.cache_probe_ms", "server.cache_probe"),
        ("server.verify_ms", "server.verify"),
    ] {
        let count = delta(&[leaf], |s| s.count as f64);
        m.insert(
            metric,
            if count > 0.0 { delta(&[leaf], |s| s.self_s) * 1e3 / count } else { 0.0 },
        );
    }
    // the reactor's busy phases; poll_wait is idle time
    let reactor_s = delta(&["accept", "parse", "dispatch", "write"], |s| s.self_s);
    m.insert("server.reactor_ms", reactor_s * 1e3 / traced[0].rounds().max(1) as f64);
    for section in untraced.into_iter().chain(traced) {
        outcome.tally.absorb(section.stats.tally);
    }

    let mut pool: Vec<&Memo> = setup.memo.values().collect();
    pool.sort_by_key(|entry| (entry.kind != Answer::Honest, entry.honest.0.to_bits()));
    let executor = setup.device.executor(Environment::NOMINAL);
    let challenges: Vec<Challenge> = pool.iter().map(|e| e.challenge.clone()).collect();
    let expected: Vec<(f64, f64)> = pool.iter().map(|e| e.honest).collect();
    let tally = &mut outcome.tally;
    outcome.metrics.extend(layers::flow_layers(
        &executor,
        &challenges,
        &expected,
        &recorder,
        tally,
    ));
    let answers = pool.iter().map(|entry| {
        let request = entry.request.lock().expect("memo lock poisoned by a panicked client");
        let Request::SubmitAnswer { answer, .. } = &*request else {
            unreachable!("memo holds SubmitAnswer requests")
        };
        (entry.challenge.clone(), ProverAnswer::clone(answer), entry.kind)
    });
    outcome.metrics.extend(layers::answer_layers(&setup.verifier, answers, &recorder, tally));
    trace::write_out(&recorder, name, run.seed)?;
    Ok(outcome)
}
