//! Schema-versioned JSON run reports.
//!
//! A [`Report`] is a snapshot of a [`MemoryRecorder`](crate::MemoryRecorder)
//! that renders to and parses from JSON through the compat `serde`
//! crate's [`serde::json`] codec, so downstream tooling (and the
//! `telemetry_report` binary in `ppuf-bench`) can diff runs across
//! commits.
//!
//! Schema, version 2 — unknown keys are ignored on parse so the version
//! only bumps on incompatible changes, and parsers accept every version
//! back to [`MIN_SCHEMA_VERSION`]:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "label": "free text identifying the run",
//!   "counters":   { "dc.newton_iterations": 42 },
//!   "histograms": { "dc.final_residual": {"count":1,"sum":1e-10,"min":1e-10,"max":1e-10} },
//!   "spans":      { "dc.solve": {"count":1,"sum":0.0031,"min":0.0031,"max":0.0031} },
//!   "warnings":   [ "..." ],
//!   "samples":    { "engine.solve_seconds": {"count":3,"min":0.001,"max":0.003,"mean":0.002,"p50":0.002,"p95":0.003,"p99":0.003} },
//!   "hists":      { "dc.solve": {"count":1,"sum":0.0031,"min":0.0031,"max":0.0031,"buckets":[{"le":0.0031113,"count":1}]} },
//!   "profile":    { "analog.dc.solve;stamp": {"count":1,"wall_s":0.002,"self_s":0.0005,"min_s":0.002,"max_s":0.002,"alloc_count":0,"alloc_bytes":0} },
//!   "events":     [ {"seq":0,"name":"analog.dc.residual_trace","values":[1e-3,1e-7,1e-12]} ],
//!   "traces":     { "00c0ffee00c0ffee": [ {"span":"0000000000000001","parent":null,"name":"server.request","start_s":0.0,"duration_s":0.002,"attrs":{"kind":"SubmitAnswer"}} ] }
//! }
//! ```
//!
//! The `samples` section carries percentile summaries of raw
//! [`SampleSeries`](crate::SampleSeries) data, and `hists` carries sparse
//! [`HistogramSnapshot`]s of the bounded log-bucketed histograms (bucket
//! counts are non-cumulative; edges follow the compile-time scheme in
//! [`crate::hist`]). `events` is the drained
//! diagnostic ring buffer ([`crate::EventLog`]) and `traces` the retained
//! span trees, keyed by zero-padded hex trace id with span ids as hex
//! strings and per-trace timestamps rebased to the earliest span.
//! Integers round-trip exactly across the full `u64` range; non-finite
//! floats are written as `null` and read back as `NaN`. The `profile`
//! section carries hierarchical profiler statistics keyed by
//! `;`-separated call path ([`crate::profile`]) and is written only when
//! non-empty. All of these sections are optional on parse: v1 reports —
//! written before `events`/`traces` existed — and v2 reports written
//! before `hists`/`profile` still load, which is why these are
//! compatible additions rather than version bumps. The six v1 fields are
//! required.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Error, Serialize, Value};

use crate::hist::HistogramSnapshot;
use crate::profile::ProfileStats;
use crate::{SampleSummary, Summary};

/// Version written into every report; parsers accept
/// [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`] and reject the rest.
pub const SCHEMA_VERSION: u32 = 2;

/// Oldest report schema still parseable (v1 lacked `events`/`traces`).
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// One diagnostic event from the bounded ring buffer
/// ([`crate::EventLog`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Position in the emission order (gaps at the front reveal drops).
    pub seq: u64,
    /// Event name.
    pub name: String,
    /// Event payload.
    pub values: Vec<f64>,
}

/// One span of a retained trace, timestamps rebased to the trace's
/// earliest span start. Serialized with hex span ids and `attrs` as an
/// ordered JSON object.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpanRecord {
    /// Span id, unique within the trace.
    pub span: u64,
    /// Parent span id; `None` for the trace root.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Seconds from the trace's first span start to this span's start.
    pub start_s: f64,
    /// Span duration in seconds.
    pub duration_s: f64,
    /// Key=value attributes, in the order attached.
    pub attrs: Vec<(String, String)>,
}

/// Snapshot of one instrumented run.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Always [`SCHEMA_VERSION`] for reports produced by this crate.
    pub schema_version: u32,
    /// Free-text run identifier chosen by the producer.
    pub label: String,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Observed value distributions by name.
    pub histograms: BTreeMap<String, Summary>,
    /// Span timings by name, in seconds.
    pub spans: BTreeMap<String, Summary>,
    /// Warnings in the order raised.
    pub warnings: Vec<String>,
    /// Percentile summaries of raw sample series by name.
    pub samples: BTreeMap<String, SampleSummary>,
    /// Bounded log-bucketed histogram snapshots by name — one per span
    /// name for recorder snapshots (empty for reports written before the
    /// section existed; optional on parse like `samples`).
    pub hists: BTreeMap<String, HistogramSnapshot>,
    /// Hierarchical profiler statistics keyed by `;`-separated call path
    /// (see [`crate::profile`]). Written only when non-empty and
    /// optional on parse, so reports from recorders without an attached
    /// profiler carry no `profile` key at all.
    pub profile: BTreeMap<String, ProfileStats>,
    /// Retained diagnostic events, oldest first (empty for v1 reports).
    pub events: Vec<EventRecord>,
    /// Retained trace span sets keyed by zero-padded hex trace id
    /// (empty for v1 reports).
    pub traces: BTreeMap<String, Vec<TraceSpanRecord>>,
}

/// Failure parsing a report from JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportError(String);

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "telemetry report error: {}", self.0)
    }
}

impl std::error::Error for ReportError {}

impl Report {
    /// Renders the report as indented JSON, newline-terminated.
    pub fn to_json(&self) -> String {
        let mut text = serde::json::to_string_pretty(self).expect("reports always serialize");
        text.push('\n');
        text
    }

    /// Parses a report produced by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ReportError`] on malformed JSON, a missing required
    /// field, or a schema version outside
    /// [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`].
    pub fn from_json(text: &str) -> Result<Report, ReportError> {
        serde::json::from_str(text).map_err(|e| ReportError(e.to_string()))
    }

    /// Signed per-counter difference `self - baseline`, for diffing two
    /// runs; counters absent on one side count as zero.
    pub fn counter_delta(&self, baseline: &Report) -> BTreeMap<String, i128> {
        let mut delta = BTreeMap::new();
        for (name, value) in &self.counters {
            let base = baseline.counters.get(name).copied().unwrap_or(0);
            let diff = i128::from(*value) - i128::from(base);
            if diff != 0 {
                delta.insert(name.clone(), diff);
            }
        }
        for (name, base) in &baseline.counters {
            if !self.counters.contains_key(name) {
                delta.insert(name.clone(), -i128::from(*base));
            }
        }
        delta
    }
}

/// A name-keyed section as a JSON object (the compat data model writes a
/// `BTreeMap` as a list of `[key, value]` pairs).
fn object<T: Serialize>(map: &BTreeMap<String, T>) -> Value {
    Value::Map(map.iter().map(|(name, item)| (name.clone(), item.to_value())).collect())
}

/// Reads a name-keyed section written by [`object`].
fn from_object<'de, T: Deserialize<'de>>(
    value: &Value,
    section: &str,
) -> Result<BTreeMap<String, T>, Error> {
    let entries =
        value.as_map().ok_or_else(|| Error::custom(format!("{section} is not an object")))?;
    entries.iter().map(|(name, item)| Ok((name.clone(), T::from_value(item)?))).collect()
}

/// A section added after v1: a compatible addition, so absent means empty.
fn optional_section<'de, T: Deserialize<'de>>(
    value: &Value,
    section: &str,
) -> Result<BTreeMap<String, T>, Error> {
    value.get(section).map_or_else(|| Ok(BTreeMap::new()), |v| from_object(v, section))
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, Error> {
    value.get(key).ok_or_else(|| Error::custom(format!("missing field {key:?}")))
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("schema_version", self.schema_version.to_value()),
            ("label", self.label.to_value()),
            ("counters", object(&self.counters)),
            ("histograms", object(&self.histograms)),
            ("spans", object(&self.spans)),
            ("warnings", self.warnings.to_value()),
            ("samples", object(&self.samples)),
            ("hists", object(&self.hists)),
        ];
        if !self.profile.is_empty() {
            fields.push(("profile", object(&self.profile)));
        }
        fields.push(("events", self.events.to_value()));
        fields.push(("traces", object(&self.traces)));
        Value::Map(fields.into_iter().map(|(key, value)| (key.to_string(), value)).collect())
    }
}

impl<'de> Deserialize<'de> for Report {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.as_map().is_none() {
            return Err(Error::custom("top level is not an object"));
        }
        let schema_version = u32::from_value(field(value, "schema_version")?)?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema_version) {
            return Err(Error::custom(format!(
                "unsupported schema_version {schema_version} \
                 (expected {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            )));
        }
        Ok(Report {
            schema_version,
            label: String::from_value(field(value, "label")?)?,
            counters: from_object(field(value, "counters")?, "counters")?,
            histograms: from_object(field(value, "histograms")?, "histograms")?,
            spans: from_object(field(value, "spans")?, "spans")?,
            warnings: Vec::from_value(field(value, "warnings")?)?,
            samples: optional_section(value, "samples")?,
            hists: optional_section(value, "hists")?,
            profile: optional_section(value, "profile")?,
            events: value.get("events").map(Vec::from_value).transpose()?.unwrap_or_default(),
            traces: optional_section(value, "traces")?,
        })
    }
}

fn hex_id(id: u64) -> Value {
    Value::Str(format!("{id:016x}"))
}

fn parse_hex_id(value: &Value) -> Result<u64, Error> {
    let text = String::from_value(value)?;
    u64::from_str_radix(&text, 16).map_err(|_| Error::custom(format!("{text:?} is not a hex id")))
}

impl Serialize for TraceSpanRecord {
    fn to_value(&self) -> Value {
        let attrs = self.attrs.iter().map(|(key, value)| (key.clone(), value.to_value()));
        Value::Map(vec![
            ("span".to_string(), hex_id(self.span)),
            ("parent".to_string(), self.parent.map_or(Value::Null, hex_id)),
            ("name".to_string(), self.name.to_value()),
            ("start_s".to_string(), self.start_s.to_value()),
            ("duration_s".to_string(), self.duration_s.to_value()),
            ("attrs".to_string(), Value::Map(attrs.collect())),
        ])
    }
}

impl<'de> Deserialize<'de> for TraceSpanRecord {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let parent = match field(value, "parent")? {
            Value::Null => None,
            id => Some(parse_hex_id(id)?),
        };
        let attrs = field(value, "attrs")?
            .as_map()
            .ok_or_else(|| Error::custom("trace span attrs is not an object"))?
            .iter()
            .map(|(key, item)| Ok((key.clone(), String::from_value(item)?)))
            .collect::<Result<_, Error>>()?;
        Ok(TraceSpanRecord {
            span: parse_hex_id(field(value, "span")?)?,
            parent,
            name: String::from_value(field(value, "name")?)?,
            start_s: f64::from_value(field(value, "start_s")?)?,
            duration_s: f64::from_value(field(value, "duration_s")?)?,
            attrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::{MemoryRecorder, Recorder, SampleSeries};

    fn sample_report() -> Report {
        let reporter = MemoryRecorder::new();
        reporter.counter_add("dc.newton_iterations", 42);
        reporter.counter_add("maxflow.augmenting_paths", 7);
        reporter.observe("dc.final_residual", 3.25e-11);
        reporter.observe("dc.final_residual", 8.5e-12);
        reporter.record_span("dc.solve", Duration::from_micros(1234));
        reporter.warn("dc solver: fallback to gauss-seidel");
        let mut series = SampleSeries::new();
        series.extend((1..=100).map(f64::from));
        reporter.record_samples("engine.solve_seconds", &series);
        reporter.record_event("analog.dc.residual_trace", &[1e-3, 1e-7, 4e-13]);
        {
            let trace = crate::next_trace_id();
            let mut root = crate::TracedSpan::root(&reporter, "server.request", trace);
            root.attr("kind", "SubmitAnswer");
            let _child = root.child("server.verify");
        }
        reporter.snapshot("unit-test run")
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let report = sample_report();
        let text = report.to_json();
        let back = Report::from_json(&text).expect("report should parse back");
        assert_eq!(back, report);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = MemoryRecorder::new().snapshot("empty");
        assert_eq!(Report::from_json(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn missing_field_is_an_error() {
        assert!(Report::from_json("{\"schema_version\": 1}").is_err());
        assert!(Report::from_json("not json").is_err());
    }

    #[test]
    fn sample_summaries_round_trip() {
        let report = sample_report();
        let s = report.samples.get("engine.solve_seconds").expect("series was recorded");
        assert_eq!((s.count, s.p50, s.p95, s.p99), (100, 50.0, 95.0, 99.0));
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.samples, report.samples);
    }

    #[test]
    fn reports_without_optional_sections_still_parse() {
        // a v1 report, and v2 reports written before hists and profile existed
        let v1 = "\"schema_version\": 1, \"label\": \"old\"";
        let pre_hist = "\"schema_version\": 2, \"label\": \"pre-hist\", \"samples\": {},\
             \"events\": [], \"traces\": {}";
        let pre_profile = "\"schema_version\": 2, \"label\": \"pre-profile\", \"samples\": {},\
             \"hists\": {}, \"events\": [], \"traces\": {}";
        for head in [v1, pre_hist, pre_profile] {
            let text = format!(
                "{{{head}, \"counters\": {{}}, \"histograms\": {{}}, \"spans\": {{}}, \"warnings\": []}}"
            );
            let report = Report::from_json(&text).expect("legacy report should parse");
            assert!(report.samples.is_empty() && report.hists.is_empty());
            assert!(report.profile.is_empty() && report.events.is_empty());
            assert!(report.traces.is_empty());
        }
    }

    #[test]
    fn hist_snapshots_round_trip() {
        let report = sample_report();
        let h = report.hists.get("dc.solve").expect("span histograms are always recorded");
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), h.count);
        assert!((h.sum - 1234e-6).abs() < 1e-9);
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.hists, report.hists);
    }

    #[test]
    fn schema_versions_outside_the_supported_range_are_rejected() {
        for bad in [0, SCHEMA_VERSION + 1, 999] {
            let text = format!(
                "{{\"schema_version\": {bad}, \"label\": \"x\", \"counters\": {{}},\
                 \"histograms\": {{}}, \"spans\": {{}}, \"warnings\": []}}"
            );
            let err = Report::from_json(&text).unwrap_err();
            assert!(err.to_string().contains("schema_version"), "{err}");
        }
    }

    #[test]
    fn events_and_traces_round_trip() {
        let report = sample_report();
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].values, vec![1e-3, 1e-7, 4e-13]);
        assert_eq!(report.traces.len(), 1);
        let spans = report.traces.values().next().unwrap();
        assert_eq!(spans.len(), 2);
        // the child finished first, so it is recorded first and names
        // the root (recorded second) as its parent
        assert_eq!(spans[0].name, "server.verify");
        assert_eq!(spans[0].parent, Some(spans[1].span));
        assert_eq!(spans[1].name, "server.request");
        assert_eq!(spans[1].attrs, vec![("kind".to_string(), "SubmitAnswer".to_string())]);
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.events, report.events);
        assert_eq!(back.traces, report.traces);
    }

    #[test]
    fn profile_section_round_trips_and_is_omitted_when_empty() {
        // no profiler attached → no "profile" key in the JSON at all
        let plain = sample_report();
        assert!(plain.profile.is_empty());
        assert!(!plain.to_json().contains("\"profile\""));

        let mut recorder = MemoryRecorder::new();
        let profiler = std::sync::Arc::new(crate::Profiler::new());
        recorder.set_profiler(profiler.clone());
        profiler.record_path(
            "analog.dc.solve;stamp",
            Duration::from_millis(2),
            Duration::from_micros(500),
        );
        // a skewed derivation surfaces as a counter in the snapshot
        profiler.record_path("bad", Duration::from_micros(1), Duration::from_micros(9));
        let report = recorder.snapshot("profiled");
        let entry = report.profile.get("analog.dc.solve;stamp").expect("profile entry");
        assert_eq!(entry.count, 1);
        assert!((entry.self_s - 500e-6).abs() < 1e-9);
        assert_eq!(report.counters.get("telemetry.profile.skew_clamps"), Some(&1));
        let back = Report::from_json(&report.to_json()).expect("profiled report parses");
        assert_eq!(back, report);
    }

    #[test]
    fn counter_delta_reports_signed_differences() {
        let old = sample_report();
        let mut new = old.clone();
        new.counters.insert("dc.newton_iterations".into(), 50);
        new.counters.remove("maxflow.augmenting_paths");
        new.counters.insert("fresh".into(), 3);
        let delta = new.counter_delta(&old);
        assert_eq!(delta.get("dc.newton_iterations"), Some(&8));
        assert_eq!(delta.get("maxflow.augmenting_paths"), Some(&-7));
        assert_eq!(delta.get("fresh"), Some(&3));
    }
}
