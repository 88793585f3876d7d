//! `crp_flow`: challenge–response generation through `EvalBatch::run` in
//! flow mode, the path behind Table 1, Fig 8, enrollment, the attack
//! oracle and the honest prover.

use std::io;
use std::time::Instant;

use ppuf_analog::variation::Environment;
use ppuf_core::protocol::auth::{prove, Verifier};
use ppuf_core::{BatchOptions, BatchResults, Challenge, EvalBatch, Ppuf, PpufConfig, PpufExecutor};
use ppuf_telemetry::{next_trace_id, MemoryRecorder, TracedSpan};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::layers;
use crate::stats::{median, tail, Tally};
use crate::{cpu_s, secs, trace, Outcome, Run};

const NODES: usize = 200;
const GRID: usize = 8;
const DEVICES: usize = 4;
/// Challenges per batch: 128 per device gives each of the two threads
/// four of `EvalBatch`'s 64-challenge flow jobs.
const CHALLENGES: usize = 128;
/// Challenges per flow-mode job inside `EvalBatch`.
const JOB_CHALLENGES: usize = 64;
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 3;
/// Proved and verified (device, challenge) pairs per traced run.
const VERIFIED_SAMPLES: usize = 8;

/// Seed streams (see [`Run::seed_for`]).
const DEVICE_STREAM: u64 = 1;
const CHALLENGE_STREAM: u64 = 2;
const SAMPLE_STREAM: u64 = 3;
const ANALOG_STREAM: u64 = 4;

/// The devices under test and their published models.
struct Fleet {
    devices: Vec<Ppuf>,
    verifiers: Vec<Verifier>,
}

impl Fleet {
    fn generate(run: &Run) -> io::Result<Self> {
        let mut devices = Vec::with_capacity(DEVICES);
        let mut verifiers = Vec::with_capacity(DEVICES);
        for d in 0..DEVICES as u64 {
            let device =
                Ppuf::generate(PpufConfig::paper(NODES, GRID), run.seed_for(DEVICE_STREAM) ^ d)
                    .map_err(io::Error::other)?;
            verifiers.push(Verifier::new(device.public_model().map_err(io::Error::other)?));
            devices.push(device);
        }
        Ok(Fleet { devices, verifiers })
    }

    fn executors(&self) -> Vec<PpufExecutor<'_>> {
        self.devices.iter().map(|d| d.executor(Environment::NOMINAL)).collect()
    }
}

/// The seeded challenges of batch `index`.
fn challenges(run: &Run, device: &Ppuf, index: u64) -> Vec<Challenge> {
    let mut rng = ChaCha8Rng::seed_from_u64(run.seed_for(CHALLENGE_STREAM) ^ index);
    (0..CHALLENGES).map(|_| device.random_challenge(&mut rng)).collect()
}

/// Batch calls of one measured section.
#[derive(Default)]
struct Section {
    evaluations: usize,
    /// Wall time of each batch call, in seconds.
    walls: Vec<f64>,
    /// Process CPU time of each batch call, in seconds.
    cpu: Vec<f64>,
    next_batch: u64,
}

impl Section {
    /// Evaluations per second of batch wall time, over the whole section.
    fn mean_rate(&self) -> f64 {
        self.evaluations as f64 / self.walls.iter().sum::<f64>()
    }

    /// The wall-clock metrics: median batch rate, and the median and
    /// tail of batch wall times.
    fn wall_metrics(&self) -> [(&'static str, f64); 3] {
        let rates: Vec<f64> =
            self.walls.iter().map(|w| (DEVICES * CHALLENGES) as f64 / w).collect();
        [
            ("crp_per_s", median(&rates).unwrap_or(0.0)),
            ("round_p50_ms", median(&self.walls).unwrap_or(0.0) * 1e3),
            ("round_p99_ms", tail(&self.walls).map_or(0.0, |(v, _)| v) * 1e3),
        ]
    }
}

/// Runs batches for `seconds` of batch wall time, starting at batch
/// `section.next_batch`. Every outcome must be `Ok`, and one seeded
/// (device, challenge) pair per batch is proved and certified by the
/// verifier, its flows matching the batch's currents bit for bit.
fn measure(
    run: &Run,
    fleet: &Fleet,
    executors: &[PpufExecutor<'_>],
    seconds: f64,
    recorder: Option<&MemoryRecorder>,
    section: &mut Section,
    tally: &mut Tally,
) {
    let batch = EvalBatch::new(BatchOptions { threads: THREADS, ..BatchOptions::default() });
    let started = section.walls.iter().sum::<f64>();
    while section.walls.iter().sum::<f64>() - started < seconds {
        let challenges = challenges(run, &fleet.devices[0], section.next_batch);
        let (t0, cpu0) = (Instant::now(), cpu_s());
        let results = {
            let _span =
                recorder.map(|r| TracedSpan::root(r, "bench.crp_flow.batch", next_trace_id()));
            batch.run(executors, &challenges)
        };
        section.walls.push(secs(t0));
        section.cpu.push(cpu_s() - cpu0);
        section.evaluations += results.iter().count();
        for (i, result) in results.iter().enumerate() {
            tally.check(result.is_ok(), || format!("evaluation {i} failed: {result:?}"));
        }
        check_sample(run, fleet, executors, &challenges, &results, section.next_batch, tally);
        section.next_batch += 1;
    }
}

/// Proves one seeded (device, challenge) pair of a batch whose comparator
/// resolved, and checks the proof against the batch and the verifier.
fn check_sample(
    run: &Run,
    fleet: &Fleet,
    executors: &[PpufExecutor<'_>],
    challenges: &[Challenge],
    results: &BatchResults,
    batch: u64,
    tally: &mut Tally,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(run.seed_for(SAMPLE_STREAM) ^ batch);
    let start = rng.gen_range(0..DEVICES * CHALLENGES);
    let pick = (0..DEVICES * CHALLENGES).map(|k| (start + k) % (DEVICES * CHALLENGES)).find(|&k| {
        results.outcome(k / CHALLENGES, k % CHALLENGES).as_ref().is_ok_and(|o| o.response.is_some())
    });
    let Some(k) = pick else {
        tally.check(false, || format!("batch {batch}: no resolvable outcome to verify"));
        return;
    };
    let (d, c) = (k / CHALLENGES, k % CHALLENGES);
    let outcome = results.outcome(d, c).as_ref().expect("picked an Ok outcome");
    let answer = prove(&executors[d], &challenges[c]);
    let certified = answer.as_ref().is_ok_and(|a| {
        a.flow_a.value().to_bits() == outcome.current_a.value().to_bits()
            && a.flow_b.value().to_bits() == outcome.current_b.value().to_bits()
            && fleet.verifiers[d].verify(&challenges[c], a).is_ok_and(|r| r.accepted())
    });
    tally.check(certified, || format!("batch {batch}: device {d} challenge {c} not certified"));
}

/// Runs `crp_flow`.
pub fn crp_flow(run: &Run) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let setups = if run.trace { 1 } else { SETUPS };
    let fleets = (0..setups).map(|_| {
        let cpu0 = cpu_s();
        Fleet::generate(run).map(|fleet| (fleet, cpu_s() - cpu0))
    });
    let fleets = fleets.collect::<io::Result<Vec<_>>>()?;
    let mut setup_s = Vec::new();
    let mut executors = Vec::new();
    for (fleet, generate_s) in &fleets {
        let cpu0 = cpu_s();
        executors = fleet.executors();
        setup_s.push(generate_s + cpu_s() - cpu0);
    }
    let fleet = &fleets.last().expect("at least one set-up").0;
    let mut section = Section::default();

    if !run.trace {
        measure(run, fleet, &executors, run.seconds, None, &mut section, &mut outcome.tally);
        let per_crp: Vec<f64> =
            section.cpu.iter().map(|cpu| cpu * 1e3 / (DEVICES * CHALLENGES) as f64).collect();
        outcome.metrics.insert("cpu_ms_per_crp", median(&per_crp).unwrap_or(0.0));
        outcome.metrics.insert("setup_s", median(&setup_s).unwrap_or(0.0));
        eprintln!(
            "perfbench: crp_flow: {} batches of {DEVICES}x{CHALLENGES}; wall clock {:?} (tail at p{:.1})",
            section.walls.len(),
            section.wall_metrics(),
            tail(&section.walls).map_or(0.0, |(_, p)| p)
        );
        return Ok(outcome);
    }

    // untraced and traced quarters alternate, so drift in the host's
    // speed lands on both sides of trace_overhead
    let recorder = trace::recorder();
    let tally = &mut outcome.tally;
    let mut untraced = Section::default();
    let mut traced = Section::default();
    for _ in 0..2 {
        // both sides of a pair start from the same batch, so they see the
        // same challenges
        traced.next_batch = untraced.next_batch;
        measure(run, fleet, &executors, run.seconds / 4.0, None, &mut untraced, tally);
        measure(run, fleet, &executors, run.seconds / 4.0, Some(&recorder), &mut traced, tally);
        untraced.next_batch = untraced.next_batch.max(traced.next_batch);
    }
    outcome.metrics.insert("trace_overhead", untraced.mean_rate() / traced.mean_rate());
    outcome.metrics.extend(untraced.wall_metrics());

    let first = challenges(run, &fleet.devices[0], 0);
    let (efficiency, results) = parallel_efficiency(&executors, &first, &recorder);
    outcome.metrics.insert("batch.parallel_efficiency", efficiency);
    let expected: Vec<(f64, f64)> = results
        .device_row(0)
        .iter()
        .map(|r| {
            r.as_ref().map_or((f64::NAN, f64::NAN), |o| (o.current_a.value(), o.current_b.value()))
        })
        .collect();
    outcome.metrics.extend(layers::flow_layers(&executors[0], &first, &expected, &recorder, tally));
    let picks: Vec<Challenge> = first.iter().take(VERIFIED_SAMPLES).cloned().collect();
    let answers = layers::sample_answers(&executors[1], &picks, tally);
    outcome.metrics.extend(layers::answer_layers(&fleet.verifiers[1], answers, &recorder, tally));
    outcome.metrics.extend(layers::analog_layers(run.seed_for(ANALOG_STREAM), &recorder, tally));
    trace::write_out(&recorder, "crp_flow", run.seed)?;
    Ok(outcome)
}

/// Σ single-thread job time ÷ (threads × batch wall) for one batch: the
/// batch runs once on its threads, then each of its jobs (one device's
/// 64-challenge chunk) runs alone on one thread.
fn parallel_efficiency(
    executors: &[PpufExecutor<'_>],
    challenges: &[Challenge],
    recorder: &MemoryRecorder,
) -> (f64, BatchResults) {
    let parallel = EvalBatch::new(BatchOptions { threads: THREADS, ..BatchOptions::default() });
    let serial = EvalBatch::new(BatchOptions { threads: 1, ..BatchOptions::default() });
    let t0 = Instant::now();
    let results = {
        let _span = TracedSpan::root(recorder, "bench.batch.parallel", next_trace_id());
        parallel.run(executors, challenges)
    };
    let wall = secs(t0);
    let mut jobs = 0.0;
    for executor in executors {
        for chunk in challenges.chunks(JOB_CHALLENGES) {
            let t0 = Instant::now();
            let _span = TracedSpan::root(recorder, "bench.batch.job", next_trace_id());
            std::hint::black_box(serial.run(std::slice::from_ref(executor), chunk));
            jobs += secs(t0);
        }
    }
    (jobs / (THREADS as f64 * wall), results)
}
