//! Tests of the benchmark itself: the tail-percentile rule, exact
//! repetition of the simulated metrics, and the metric names and units
//! against `BENCHMARK.json`.

use coruscant_perfbench::report::{json_line, valid_name, valid_unit};
use coruscant_perfbench::stats::{median, tail_percentile, Summary};
use coruscant_perfbench::trace::Tracer;
use coruscant_perfbench::{end_to_end, run_traced, run_workload, Settings, Workload};
use serde::json::{parse, Value};

fn short(seed: u64) -> Settings {
    Settings {
        seed,
        seconds: 0.6,
        shards: 2,
        clients: 2,
        rate_per_sec: 2000.0,
        slo_us: 1e6,
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

/// (name, unit) of every entry in one of `BENCHMARK.json`'s metric lists.
fn spec_metrics(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let Value::Array(items) = field(&spec, list) else {
        panic!("{list} is not a list");
    };
    items
        .iter()
        .map(|m| (text(field(m, "name")).into(), text(field(m, "unit")).into()))
        .collect()
}

/// The metric names and units of a result line, in order.
fn line_metrics(line: &str) -> Vec<(String, String)> {
    let result = parse(line).expect("the result line is JSON");
    assert!(matches!(field(&result, "correct"), Value::Bool(true)));
    assert_eq!(field(&result, "failed").as_u64().unwrap(), 0);
    assert!(field(&result, "attempted").as_u64().unwrap() >= 1);
    let Value::Object(metrics) = field(&result, "metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(field(m, "value").as_f64().unwrap().is_finite());
            (name.clone(), text(field(m, "unit")).into())
        })
        .collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let ramp = |n: u32| (1..=n).rev().map(f64::from).collect::<Vec<_>>();

    // 1000 samples: p99 leaves exactly ten beyond it.
    let s = Summary::of(&ramp(1000));
    assert_eq!((s.n, s.p50), (1000, 500.0));
    assert_eq!((s.tail_pct, s.tail, s.beyond), (Some(99.0), 990.0, 10));

    // 999 samples: p99 would leave nine, so the tail falls to p95.
    let s = Summary::of(&ramp(999));
    assert_eq!((s.tail_pct, s.tail, s.beyond), (Some(95.0), 950.0, 49));

    // 20 samples support only the median; 19 support no percentile and
    // the tail is the maximum with nothing beyond.
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(19), None);
    let s = Summary::of(&ramp(19));
    assert_eq!((s.tail_pct, s.tail, s.beyond), (None, 19.0, 0));
    assert!(s.describe_tail().contains("max of 19"));
    assert!(Summary::of(&ramp(1000))
        .describe_tail()
        .contains("p99 of 1000 (10 beyond)"));
}

#[test]
fn sim_metrics_repeat_exactly_for_a_seed() {
    for workload in Workload::ALL {
        let runs: Vec<_> = (0..2)
            .map(|_| run_workload(workload, &short(7), &Tracer::new(false)).expect("workload runs"))
            .collect();
        for run in &runs {
            assert_eq!(run.failed, 0, "{}: outputs must be exact", workload.name());
            assert!(run.sim_cycles > 0 && run.sim_energy_uj > 0.0);
        }
        assert_eq!(
            runs[0].sim_cycles,
            runs[1].sim_cycles,
            "{}",
            workload.name()
        );
        assert_eq!(
            runs[0].sim_energy_uj.to_bits(),
            runs[1].sim_energy_uj.to_bits(),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn every_metric_is_named_and_united_as_benchmark_json_lists_it() {
    let e2e_spec = spec_metrics("end_to_end");
    let layer_spec = spec_metrics("per_layer");
    for (name, unit) in e2e_spec.iter().chain(&layer_spec) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
    }
    for workload in Workload::ALL {
        let untraced = run_workload(workload, &short(3), &Tracer::new(false)).expect("runs");
        let e2e = end_to_end(&untraced, 1.0);
        let line = json_line(untraced.attempted, untraced.failed, &e2e).expect("valid metrics");
        assert_eq!(line_metrics(&line), e2e_spec, "{}", workload.name());

        let t = run_traced(workload, &short(3)).expect("runs traced");
        let failed = t.traced.failed + t.device_failed;
        let line = json_line(t.traced.attempted, failed, &t.metrics).expect("valid metrics");
        assert_eq!(line_metrics(&line), layer_spec, "{}", workload.name());
        assert!(
            !t.tracer.spans().is_empty(),
            "{}: the traced run keeps spans",
            workload.name()
        );
    }
}

#[test]
fn tracer_keeps_spans_only_when_enabled() {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let t = std::time::Instant::now();
    assert_eq!(off.record("x", 0, 1, t, t), 0);
    assert!(off.spans().is_empty());

    let root = on.reserve();
    let child = on.record("child", root, 1, t, t + std::time::Duration::from_micros(5));
    on.record_as(
        root,
        "root",
        0,
        1,
        t,
        t + std::time::Duration::from_micros(9),
    );
    let spans = on.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].id, spans[0].parent), (child, root));
    assert!((on.durations_us("root")[0] - 9.0).abs() < 1e-6);
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}
