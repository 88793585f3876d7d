//! Golden-file tests for the report JSON format: the committed
//! `results/` reports and a fixture rendered by the hand-written encoder
//! that predates the shared codec must keep parsing, and integers must
//! survive the round trip exactly.

use std::collections::BTreeMap;

use ppuf_telemetry::report::{EventRecord, TraceSpanRecord};
use ppuf_telemetry::{
    HistBucket, HistogramSnapshot, MemoryRecorder, ProfileStats, Report, SampleSummary, Summary,
};

/// Deterministic report covering every section, rendered into
/// `fixtures/report-v2.json` by the hand-written encoder that predates the
/// shared codec.
fn fixture_report() -> Report {
    let string = |s: &str| s.to_string();
    let bucket = |le, count| HistBucket { le, count };
    Report {
        schema_version: 2,
        label: string("golden \"fixture\" \\ tab\there µs\u{1}"),
        counters: BTreeMap::from([
            (string("analog.dc.newton_iterations"), 42),
            (string("zero"), 0),
        ]),
        histograms: BTreeMap::from([(
            string("analog.dc.residual_norm"),
            Summary { count: 3, sum: 2.4885259511066665e-14, min: 3.2e-19, max: 1.5e-14 },
        )]),
        // an empty summary: its non-finite extremes are written as null
        spans: BTreeMap::from([(
            string("empty"),
            Summary { count: 0, sum: 0.0, min: f64::NAN, max: f64::NAN },
        )]),
        warnings: vec![string("dc solver: fallback to gauss-seidel")],
        samples: BTreeMap::from([(
            string("engine.solve_seconds"),
            SampleSummary {
                count: 100,
                min: 1.0,
                max: 100.0,
                mean: 50.5,
                p50: 50.0,
                p95: 95.0,
                p99: 99.0,
            },
        )]),
        hists: BTreeMap::from([(
            string("analog.dc.solve"),
            HistogramSnapshot {
                count: 2,
                sum: 0.0031,
                min: 0.001,
                max: 0.0021,
                buckets: vec![bucket(0.0010905077326652577, 1), bucket(0.0021810154653305154, 1)],
            },
        )]),
        profile: BTreeMap::from([(
            string("analog.dc.solve;stamp;device_eval"),
            ProfileStats {
                count: 4,
                wall_s: 0.951483324,
                self_s: 0.9,
                min_s: 0.002803029,
                max_s: 0.942263353,
                alloc_count: 12,
                alloc_bytes: 4096,
            },
        )]),
        events: vec![EventRecord {
            seq: 3,
            name: string("analog.dc.residual_trace"),
            values: vec![1e-3, 1e-7, 4e-13],
        }],
        traces: BTreeMap::from([(
            string("00c0ffee00c0ffee"),
            vec![
                TraceSpanRecord {
                    span: 0xfedc_ba98_7654_3210,
                    parent: Some(1),
                    name: string("server.verify"),
                    start_s: 0.0005,
                    duration_s: 0.0012,
                    attrs: Vec::new(),
                },
                TraceSpanRecord {
                    span: 1,
                    parent: None,
                    name: string("server.request"),
                    start_s: 0.0,
                    duration_s: 0.002,
                    attrs: vec![
                        (string("kind"), string("SubmitAnswer")),
                        (string("device"), string("dev-\"7\"")),
                        (string("a_last"), string("ordered")),
                    ],
                },
            ],
        )]),
    }
}

fn repo_file(relative: &str) -> String {
    let path = format!("{}/../../{relative}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `NaN` never equals itself, so reports compare by their `Debug`
/// rendering, which prints every `NaN` the same way.
fn assert_same(left: &Report, right: &Report) {
    assert_eq!(format!("{left:#?}"), format!("{right:#?}"));
}

#[test]
fn fixture_from_the_previous_encoder_parses_to_the_literal() {
    let parsed = Report::from_json(&repo_file("crates/telemetry/tests/fixtures/report-v2.json"))
        .expect("fixture parses");
    assert!(parsed.spans["empty"].min.is_nan(), "null reads back as NaN");
    assert_same(&parsed, &fixture_report());
}

#[test]
fn fixture_literal_round_trips_with_the_previous_keys_and_types() {
    let text = fixture_report().to_json();
    assert_same(&Report::from_json(&text).expect("rendered report parses"), &fixture_report());
    // the same JSON tree as the previous encoder wrote: key names, key
    // order and integer-vs-float value types all held
    let old = repo_file("crates/telemetry/tests/fixtures/report-v2.json");
    assert_eq!(serde::json::parse_value(&text), serde::json::parse_value(&old));
}

#[test]
fn integers_above_2_pow_53_round_trip_exactly() {
    for big in [(1u64 << 53) + 1, u64::MAX] {
        let mut report = MemoryRecorder::new().snapshot("big");
        report.counters.insert("big".to_string(), big);
        let stats = ProfileStats {
            count: 1,
            wall_s: 1.0,
            self_s: 1.0,
            min_s: 1.0,
            max_s: 1.0,
            alloc_count: big,
            alloc_bytes: big,
        };
        report.profile.insert("p".to_string(), stats);
        report.events.push(EventRecord { seq: big, name: "e".to_string(), values: vec![1.0] });
        let back = Report::from_json(&report.to_json()).expect("report parses");
        assert_eq!(back.counters["big"], big);
        assert_eq!(back.profile["p"].alloc_bytes, big);
        assert_eq!(back.events[0].seq, big);
        assert_eq!(back, report);
    }
}

#[test]
fn committed_reports_parse() {
    let v1 = Report::from_json(&repo_file("results/telemetry/run_n100.json")).unwrap();
    assert_eq!((v1.schema_version, v1.label.as_str()), (1, "run_n100"));
    assert!(v1.counters["analog.dc.newton_iterations"] > 0);
    let engine = Report::from_json(&repo_file("results/bench/engine-telemetry.json")).unwrap();
    assert!(!engine.samples.is_empty() && !engine.hists.is_empty());
    let profile = Report::from_json(&repo_file("results/bench/engine-smoke-profile.json")).unwrap();
    assert!(profile.profile.contains_key("analog.dc.solve"));
}
