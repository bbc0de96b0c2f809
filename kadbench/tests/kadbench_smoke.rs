//! Quick-mode smoke test: every workload, untraced and traced, twice,
//! in-process — plus the shape of the root `BENCHMARK.json` itself.
//!
//! One `#[test]` on purpose: `defend-grid`'s traced run uses the
//! process-global observe collector, and sequential runs keep the whole
//! suite at a few seconds.

use kadbench::harness::{Outcome, RunArgs};
use kadbench::json::{self, Json};
use kadbench::spec::{self, Workload};
use std::collections::BTreeSet;

fn quick(workload: Workload, trace: bool) -> Outcome {
    kadbench::run_workload(&RunArgs {
        workload,
        seed: spec::DEFAULT_SEED,
        seconds: spec::spec().run_seconds,
        trace,
        quick: true,
        trace_out: None,
    })
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys(value: &Json) -> Vec<&str> {
    value.fields().iter().map(|(k, _)| k.as_str()).collect()
}

/// The contract's limits on `BENCHMARK.json`, so a bad edit fails here and
/// not in the driver.
fn check_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = doc.get("command").expect("command").as_array();
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths: Vec<&str> = doc
        .get("paths")
        .expect("paths")
        .as_array()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["kadbench"]);

    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = BTreeSet::new();
    let workloads = doc.get("workloads").expect("workloads").as_array();
    assert!((2..=8).contains(&workloads.len()));
    for (entry, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(entry), ["name", "why"]);
        let name = entry.get("name").and_then(Json::as_str).expect("name");
        assert_eq!(name, workload.name(), "workload order and names are final");
        assert!(name_ok(name) && names.insert(name.to_string()));
        let why = entry.get("why").and_then(Json::as_str).expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    assert_eq!(workloads.len(), Workload::ALL.len());

    let end_to_end = doc.get("end_to_end").expect("end_to_end").as_array();
    assert!((1..=16).contains(&end_to_end.len()));
    for metric in end_to_end {
        assert_eq!(keys(metric), ["name", "unit", "better", "bound"]);
        let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is mandatory");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let largest = end_to_end
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));

    let per_layer = doc.get("per_layer").expect("per_layer").as_array();
    assert!((1..=128).contains(&per_layer.len()));
    for metric in per_layer {
        assert_eq!(keys(metric), ["name", "unit", "better"]);
    }
    for metric in end_to_end.iter().chain(per_layer) {
        let name = metric.get("name").and_then(Json::as_str).expect("name");
        assert!(name_ok(name), "bad metric name {name:?}");
        assert!(names.insert(name.to_string()), "name {name:?} used twice");
        assert!(unit_ok(
            metric.get("unit").and_then(Json::as_str).expect("unit")
        ));
        let better = metric.get("better").and_then(Json::as_str).expect("better");
        assert!(matches!(better, "lower" | "higher"));
    }
}

/// Every declared metric once, in order, with its unit.
fn assert_emits_declared_metrics(outcome: &Outcome) {
    let declared = spec::spec().metrics(outcome.traced);
    let emitted: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let expected: Vec<(&str, &str)> = declared
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(emitted, expected, "{}", outcome.workload.name());
    for metric in &outcome.metrics {
        assert!(metric.value.is_finite(), "{} is not finite", metric.name);
        assert!(name_ok(&metric.name));
    }
    let result = outcome.contract_json();
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        json::parse(&result.render()).expect("result line parses"),
        result
    );
}

#[test]
fn quick_mode_emits_every_metric_and_repeats_exactly() {
    check_benchmark_json();

    let mut moved: BTreeSet<String> = BTreeSet::new();
    for workload in Workload::ALL {
        let w = workload.name();
        let untraced = quick(workload, false);
        let traced = quick(workload, true);
        let again = quick(workload, false);

        for outcome in [&untraced, &traced, &again] {
            assert_emits_declared_metrics(outcome);
            for check in &outcome.checks {
                assert!(
                    check.passed,
                    "{w}: {} failed ({})",
                    check.name, check.detail
                );
            }
            assert!(outcome.correct && outcome.failed == 0 && outcome.attempted >= 1);
        }
        for metric in &untraced.metrics {
            assert!(metric.value > 0.0, "{w}: end-to-end {} is 0", metric.name);
        }
        assert!(
            traced.checks.iter().any(|c| c.name == "trace_conservation"),
            "{w}: the traced run checks conservation"
        );
        assert!(traced.metric("trace.overhead_pct").is_some_and(|v| v > 0.0));

        // Same seed: the simulated output repeats, traced or not.
        assert_eq!(untraced.digest, again.digest, "{w}: digest must repeat");
        assert_eq!(untraced.counts, again.counts, "{w}: counts must repeat");
        assert_eq!(untraced.attempted, again.attempted);
        assert_eq!(
            untraced.digest, traced.digest,
            "{w}: tracing changed the output"
        );
        assert_eq!(untraced.counts, traced.counts);

        moved.extend(
            traced
                .metrics
                .iter()
                .filter(|m| m.value != 0.0)
                .map(|m| m.name.clone()),
        );
    }

    // No dead names: every per-layer metric reads non-zero somewhere.
    for declared in &spec::spec().per_layer {
        assert!(
            moved.contains(&declared.name),
            "{} is 0 on every workload",
            declared.name
        );
    }
}
