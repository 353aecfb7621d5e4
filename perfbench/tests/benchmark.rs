//! The benchmark's own tests: deterministic inputs, metric names that
//! match `BENCHMARK.json`, and tiny runs of every workload that pass the
//! correctness check.

use prom_eval::registry::CaseId;
use prom_perfbench::cli::{self, Args, Workload};
use prom_perfbench::inputs;
use prom_perfbench::report::RunResult;
use prom_perfbench::workloads::{self, Scale};

const QUALITY: [&str; 3] = ["mispred_recall", "false_alarm_rate", "adapted_reject_rate"];

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunResult {
    let args = Args { workload, seed, seconds: 1.0, trace };
    workloads::run(&args, &Scale::tiny())
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(|v| v.as_array())
        .expect("section is a list")
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).expect("named metric").to_string())
        .collect()
}

/// Checks a run's JSON line and that it reports exactly the metrics
/// `BENCHMARK.json` lists for its mode.
fn assert_reports_listed(result: &RunResult, trace: bool) {
    let line = serde_json::from_str(&result.json()).expect("the result line is JSON");
    let keys: Vec<&str> =
        line.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys.len(), 4);
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(line.get(key).is_some(), "result line lacks `{key}`");
    }
    let mut printed: Vec<String> = result.metrics.iter().map(|m| m.name.to_string()).collect();
    let mut expected = listed(if trace { "per_layer" } else { "end_to_end" });
    printed.sort();
    expected.sort();
    assert_eq!(printed, expected);
}

fn assert_correct(result: &RunResult) {
    assert!(result.correct(), "{}", result.table());
    assert!(result.attempted > 0);
}

#[test]
fn command_line_is_checked() {
    let ok: Vec<String> =
        ["--workload", "online-relabel", "--seed", "7", "--seconds", "10", "--trace", "1"]
            .iter()
            .map(ToString::to_string)
            .collect();
    let args = cli::parse(&ok).expect("valid arguments");
    assert_eq!(args.workload, Workload::OnlineRelabel);
    assert_eq!(args.seed, 7);
    assert!(args.trace);
    for bad in [
        &["--workload", "nope", "--seed", "1", "--seconds", "10", "--trace", "0"][..],
        &["--workload", "online-relabel", "--seed", "-1", "--seconds", "10", "--trace", "0"],
        &["--workload", "online-relabel", "--seed", "1", "--seconds", "0", "--trace", "0"],
        &["--workload", "online-relabel", "--seed", "1", "--seconds", "10", "--trace", "2"],
        &["--workload", "online-relabel", "--seed", "1", "--seconds", "10"],
    ] {
        let bad: Vec<String> = bad.iter().map(ToString::to_string).collect();
        assert!(cli::parse(&bad).is_err(), "{bad:?} should be refused");
    }
}

#[test]
fn synthetic_streams_follow_the_seed() {
    let world = inputs::world(inputs::ONLINE_PER_CLASS);
    for make in [inputs::largecal_stream, inputs::online_stream] {
        let a = make(&world.base, 11, 2_048);
        assert_eq!(a, make(&world.base, 11, 2_048), "same seed, bit-identical stream");
        assert_ne!(a, make(&world.base, 12, 2_048), "another seed, another stream");
        assert!(a.drifted.iter().any(|d| *d) && a.drifted.iter().any(|d| !*d));
    }
}

#[test]
fn case_streams_follow_the_seed() {
    let (case, setup) = inputs::fit_case(CaseId::Devmap, "C3");
    assert!(setup > 0.0);
    let a = inputs::case_stream(&case, 5, 1, 1_000);
    assert_eq!(a, inputs::case_stream(&case, 5, 1, 1_000));
    assert_ne!(a, inputs::case_stream(&case, 6, 1, 1_000));
    assert_ne!(a, inputs::case_stream(&case, 5, 2, 1_000), "streams of a run differ");
    assert!(a[..500].iter().all(|r| !r.drifted) && a[500..].iter().all(|r| r.drifted));
    assert_eq!(case.materialize(&a), case.materialize(&a));
}

/// A tiny run of `workload` in both modes: correct, reporting exactly the
/// listed metrics, and repeating its quality metrics for the same seed.
fn check_workload(workload: Workload) {
    let first = tiny(workload, 3, false);
    assert_correct(&first);
    assert_reports_listed(&first, false);
    for name in QUALITY {
        assert!(first.get(name).is_some_and(f64::is_finite), "{name}");
    }
    let again = tiny(workload, 3, false);
    assert_correct(&again);
    for name in QUALITY {
        assert_eq!(first.get(name), again.get(name), "{name} repeats for the same seed");
    }
    let traced = tiny(workload, 3, true);
    assert_correct(&traced);
    assert_reports_listed(&traced, true);
    assert!(traced.get("predictor.judge_ns_per_sample").is_some_and(|v| v > 0.0));
}

#[test]
fn casestudy_serve_tiny_run_is_correct() {
    check_workload(Workload::CasestudyServe);
}

#[test]
fn largecal_stream_tiny_run_is_correct() {
    check_workload(Workload::LargecalStream);
}

#[test]
fn online_relabel_tiny_run_is_correct() {
    check_workload(Workload::OnlineRelabel);
    let traced = tiny(Workload::OnlineRelabel, 4, true);
    assert!(traced.get("calibration.absorb_ns_per_record").is_some_and(|v| v > 0.0));
    assert!(traced.get("predictor.snapshot_bytes").is_some_and(|v| v > 0.0));
}
