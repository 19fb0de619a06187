//! Smoke-scale self-test of the benchmark: every workload runs, and every
//! metric named in `BENCHMARK.json` is emitted with its unit. That a
//! corrupted `harpd` result frame counts as a failure is a unit test in
//! `src/harpd_jobs.rs`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use harp_sim::minijson::Json;

const WORKLOADS: [&str; 4] = ["figures", "sweep-durable", "harpd-jobs", "traffic"];

/// `name -> unit` for one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|metric| {
            let field = |key| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .expect("string field")
            };
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

/// Runs the benchmark at smoke scale and returns its result line.
fn run(extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--scale", "smoke", "--seconds", "0.2", "--seed", "7"])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark starts");
    assert!(out.status.success(), "benchmark failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

fn emitted(result: &Json) -> BTreeMap<String, String> {
    match result.get("metrics") {
        Some(Json::Object(entries)) => entries
            .iter()
            .map(|(name, metric)| {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name} has no value");
                let unit = metric.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_owned())
            })
            .collect(),
        _ => panic!("result has no metrics object"),
    }
}

fn assert_clean(result: &Json, what: &str) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64) >= Some(1),
        "{what}"
    );
}

#[test]
fn benchmark_json_lists_only_workloads_the_binary_runs() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).expect("readable")).expect("JSON");
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert!(names.len() >= 2);
    assert!(
        names.iter().all(|name| WORKLOADS.contains(name)),
        "{names:?}"
    );
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    for workload in WORKLOADS {
        let result = run(&["--workload", workload, "--trace", "0"]);
        assert_clean(&result, workload);
        assert_eq!(emitted(&result), expected, "{workload}");
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let expected = declared("per_layer");
    for workload in WORKLOADS {
        let result = run(&["--workload", workload, "--trace", "1"]);
        assert_clean(&result, workload);
        assert_eq!(emitted(&result), expected, "{workload}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
