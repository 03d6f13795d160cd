//! Self-test of the benchmark: every workload at `--tiny` size must answer
//! every line correctly and print every metric `BENCHMARK.json` names, and
//! (ignored by default, it takes minutes) a second seed must land within
//! the benchmark's bounds of the first.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

use systolic_service::Json;

/// Benchmark runs share the machine; never run two at once.
static SERIAL: Mutex<()> = Mutex::new(());

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_owned()
}

fn benchmark() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn workloads(benchmark: &Json) -> Vec<String> {
    benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads is an array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("a workload has a name")
                .to_owned()
        })
        .collect()
}

/// `(name, unit, bound)` of one metric list.
fn metrics(benchmark: &Json, list: &str) -> Vec<(String, String, f64)> {
    benchmark
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list is an array")
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .expect("metric field")
                    .to_owned()
            };
            let bound = match m.get("bound") {
                Some(Json::Num(b)) => *b,
                _ => 0.0,
            };
            (text("name"), text("unit"), bound)
        })
        .collect()
}

/// Runs the benchmark and returns its stdout and the parsed last line.
fn run(workload: &str, seed: u64, seconds: u64, trace: bool, tiny: bool) -> (String, Json) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_wirebench"));
    command.current_dir(repo_root()).args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if tiny {
        command.arg("--tiny");
    }
    let output = command.output().expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload}: exit {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark prints a result");
    let result = Json::parse(last).expect("the result line is JSON");
    (stdout, result)
}

fn value(result: &Json, name: &str) -> f64 {
    match result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Json::Num(v)) => *v,
        other => panic!("metric {name} missing: {other:?}"),
    }
}

#[test]
fn tiny_runs_are_correct_and_print_every_metric() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let benchmark = benchmark();
    for workload in workloads(&benchmark) {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (stdout, result) = run(&workload, 1, 1, trace, true);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {stdout}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);
            assert!(
                stdout.contains(&format!("{workload}: error_rate 0 ")),
                "{workload}: error_rate is not 0\n{stdout}"
            );
            let expected = metrics(&benchmark, list);
            let Some(Json::Obj(printed)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let names: Vec<&str> = printed.iter().map(|(name, _)| name.as_str()).collect();
            let wanted: Vec<&str> = expected.iter().map(|(name, ..)| name.as_str()).collect();
            assert_eq!(names, wanted, "{workload}: {list} metrics");
            for ((name, unit, ..), (_, printed)) in expected.iter().zip(printed) {
                assert_eq!(
                    printed.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{workload}: unit of {name}"
                );
            }
        }
    }
}

#[test]
#[ignore = "takes minutes; needs a quiet machine"]
fn a_held_out_seed_stays_within_the_bounds() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let benchmark = benchmark();
    let seconds = benchmark
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    let mut outside = Vec::new();
    for workload in workloads(&benchmark) {
        let (_, first) = run(&workload, 1, seconds, false, false);
        let (_, held_out) = run(&workload, 2, seconds, false, false);
        for (name, _, bound) in metrics(&benchmark, "end_to_end") {
            let (a, b) = (value(&first, &name), value(&held_out, &name));
            println!("{workload} {name}: seed 1 {a:.4}, seed 2 {b:.4} (bound {bound})");
            if (b - a).abs() / a > bound {
                outside.push(format!("{workload} {name}: {a} vs {b}, bound {bound}"));
            }
        }
    }
    assert!(outside.is_empty(), "outside the bounds: {outside:#?}");
}
