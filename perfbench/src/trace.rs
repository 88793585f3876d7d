//! The traced run's span store: a `MemoryRecorder` with a `Profiler`
//! attached. The benchmark records a span around each call into a layer;
//! the solvers it calls with this recorder add their own counters and
//! profile paths. Spans stay in memory until the run ends and
//! [`write_out`] saves them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ppuf_telemetry::{
    record_interval, FinishedSpan, MemoryRecorder, ProfileStats, Profiler, Recorder, SpanContext,
    SpanId,
};

/// Directory, relative to the working directory, the traced run's spans
/// are written to.
const OUT_DIR: &str = ".perfbench_out";

/// A fresh recorder that keeps trace spans and feeds a profiler.
pub fn recorder() -> MemoryRecorder {
    let mut recorder = MemoryRecorder::new();
    recorder.set_profiler(Arc::new(Profiler::new()));
    recorder
}

/// Mean duration of span `name` in milliseconds, if it was recorded.
pub fn mean_ms(recorder: &MemoryRecorder, name: &str) -> Option<f64> {
    recorder.span_stats(name).filter(|s| s.count > 0).map(|s| s.mean() * 1e3)
}

/// Number of times span `name` was recorded.
pub fn count(recorder: &MemoryRecorder, name: &str) -> u64 {
    recorder.span_stats(name).map_or(0, |s| s.count)
}

/// `stat` summed over every profile path whose last segment is `leaf`.
pub fn leaf_total(
    profile: &BTreeMap<String, ProfileStats>,
    leaf: &str,
    stat: fn(&ProfileStats) -> f64,
) -> f64 {
    profile
        .iter()
        .filter(|(path, _)| path.rsplit(';').next() == Some(leaf))
        .map(|(_, s)| stat(s))
        .sum()
}

/// Total wall time, in seconds, of profile path `path` (0 when absent).
pub fn wall_s(profile: &BTreeMap<String, ProfileStats>, path: &str) -> f64 {
    profile.get(path).map_or(0.0, |stats| stats.wall_s)
}

/// Records a span tree measured from explicit timestamps: a root `name`
/// from `start` to the last phase's end, with one child per phase.
pub fn record_phases(
    recorder: &MemoryRecorder,
    name: &str,
    start: Instant,
    phases: &[(&str, Instant)],
) {
    let trace = ppuf_telemetry::next_trace_id();
    let root = SpanId::from_raw(trace.get()).expect("trace ids are never 0");
    let parent = Some(SpanContext { trace, span: root });
    let mut from = start;
    for &(phase, until) in phases {
        record_interval(recorder, parent, phase, from, until);
        from = until;
    }
    let duration = from.saturating_duration_since(start);
    recorder.record_span(name, duration);
    recorder.record_trace_span(FinishedSpan {
        trace,
        span: root,
        parent: None,
        name: name.to_string(),
        start,
        duration,
        attrs: Vec::new(),
    });
}

/// Writes the recorder's report (counters, span summaries, retained
/// traces, profile) and the profile's folded stacks under
/// `.perfbench_out/`, named after the workload and seed.
pub fn write_out(recorder: &MemoryRecorder, workload: &str, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!("{OUT_DIR}/{workload}-seed{seed}");
    let label = format!("perfbench {workload} seed {seed}");
    std::fs::write(format!("{stem}.json"), recorder.snapshot(&label).to_json())?;
    let folded = recorder.profiler().map(Profiler::fold).unwrap_or_default();
    std::fs::write(format!("{stem}.folded"), folded)
}
