//! Paper-scale benchmark of the max-flow PPUF stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <crp_flow|auth_fresh|auth_repeat> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run measures one workload through the entry points users call
//! (`EvalBatch::run`, or authentication rounds against an in-process
//! `AsyncServer` over wire 2.0), checks every output, prints one line per
//! metric, and ends with one JSON object on its last line. `--trace 0`
//! reports the end-to-end metrics (CPU time per CRP, set-up CPU time,
//! peak memory); `--trace 1` reports the per-layer metrics, timed from
//! spans this benchmark records around its calls into each layer, and
//! writes those spans to `.perfbench_out/`.

mod auth;
mod flow;
mod layers;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use stats::Tally;

/// End-to-end metrics, reported by every `--trace 0` run: name and unit.
pub const END_TO_END: &[(&str, &str)] =
    &[("cpu_ms_per_crp", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every `--trace 1` run: name and unit.
/// A layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crp_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p99_ms", "ms"),
    ("analog.dc_solve_ms", "ms"),
    ("analog.newton_iters", "count"),
    ("analog.warm_hit_ratio", "ratio"),
    ("analog.device_eval_share", "ratio"),
    ("analog.device_eval_ns", "ns"),
    ("analog.factor_ms", "ms"),
    ("analog.model_err_pct", "%"),
    ("core.circuit_build_ms", "ms"),
    ("core.flow_network_ms", "ms"),
    ("maxflow.dinic_ms", "ms"),
    ("maxflow.dinic_phases", "count"),
    ("maxflow.dinic_augmentations", "count"),
    ("maxflow.dinic_bfs_share", "ratio"),
    ("batch.parallel_efficiency", "ratio"),
    ("verify.accept_ms", "ms"),
    ("verify.reject_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.fingerprint_us", "us"),
    ("wire2.submit_encode_us", "us"),
    ("wire2.submit_decode_us", "us"),
    ("wire2.submit_bytes", "B"),
    ("client.get_challenge_ms", "ms"),
    ("client.submit_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.cache_probe_ms", "ms"),
    ("server.verify_ms", "ms"),
    ("server.reactor_ms", "ms"),
    ("pool.overloaded", "count"),
    ("trace_overhead", "ratio"),
];

/// One benchmark run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured section, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

impl Run {
    /// A sub-seed for input stream `stream`, so inputs drawn for different
    /// purposes never share a random sequence.
    pub fn seed_for(&self, stream: u64) -> u64 {
        splitmix(self.seed ^ splitmix(stream))
    }
}

/// CPU time this process has used so far, all threads, in seconds.
/// Time the hypervisor steals from the machine's CPUs is not in it.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // fields after the parenthesised command name, from field 3 (state)
    let fields: Vec<&str> =
        stat.rsplit_once(')').expect("stat has a command name").1.split_whitespace().collect();
    let ticks = |field: usize| fields[field - 3].parse::<f64>().expect("CPU ticks are numbers");
    // utime and stime, in USER_HZ ticks (100 per second on Linux)
    (ticks(14) + ticks(15)) / 100.0
}

/// Seconds elapsed since `start`.
pub fn secs(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a workload hands back: its checks and its measured metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempts and failures across the measured section and every check.
    pub tally: Tally,
    /// Measured metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    CrpFlow,
    AuthFresh,
    AuthRepeat,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "crp_flow" => Some(Workload::CrpFlow),
            "auth_fresh" => Some(Workload::AuthFresh),
            "auth_repeat" => Some(Workload::AuthRepeat),
            _ => None,
        }
    }
}

fn parse_args() -> Result<(Workload, Run), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    Ok((
        workload.ok_or_else(|| missing("workload"))?,
        Run {
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.ok_or_else(|| missing("trace"))?,
        },
    ))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Renders the result line: the metrics of `names`, in order, with
/// their units; a name the run did not measure reads 0.
fn result_json(
    tally: Tally,
    names: &[(&str, &str)],
    metrics: &BTreeMap<&'static str, f64>,
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <crp_flow|auth_fresh|auth_repeat> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match workload {
        Workload::CrpFlow => flow::crp_flow(&run),
        Workload::AuthFresh => auth::authenticate(&run, false),
        Workload::AuthRepeat => auth::authenticate(&run, true),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: run aborted: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(rss) = peak_rss_mb() {
        outcome.metrics.insert("peak_rss_mb", rss);
    }
    let names = if run.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in names {
        match outcome.metrics.get(name) {
            Some(value) => println!("{name:<28} {value:>14.6} {unit}"),
            None => println!("{name:<28} {:>14} {unit} (layer not called)", 0),
        }
    }
    println!(
        "checks: {} attempted, {} failed (failed_frac {})",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.failed_frac()
    );
    println!("{}", result_json(outcome.tally, names, &outcome.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_reports_every_named_metric() {
        let mut metrics = BTreeMap::new();
        metrics.insert("cpu_ms_per_crp", 12.5);
        let line = result_json(Tally { attempted: 3, failed: 1 }, &END_TO_END[..2], &metrics);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
             \"cpu_ms_per_crp\": {\"value\": 12.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let field = |metric: &serde::Value, key: &str| match metric.get(key) {
            Some(serde::Value::Str(text)) => text.clone(),
            other => panic!("metric {key} is not a string: {other:?}"),
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(serde::Value::as_seq)
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
