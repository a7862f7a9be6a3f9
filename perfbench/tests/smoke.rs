//! The benchmark's own smoke test, at a tiny scale: every end-to-end
//! metric is emitted with its declared unit for every workload, the
//! correctness gate trips on a corrupted mapping, and the traced ledger
//! never attributes more time to the layers than the requests took.

use perfbench::report::Report;
use perfbench::{large_host, monitor_churn, paper_cold, Outcome, RunConfig, Scale, WORKLOADS};

fn run(workload: &str, trace: bool, corrupt: bool) -> (Outcome, Report) {
    let cfg = RunConfig {
        seed: 7,
        seconds: 1.0,
        trace,
        scale: Scale::Tiny,
        corrupt,
    };
    let mut report = Report::default();
    let outcome = match workload {
        "paper-cold" => paper_cold::run(&cfg, &mut report),
        "monitor-churn" => monitor_churn::run(&cfg, &mut report),
        "large-host" => large_host::run(&cfg, &mut report),
        other => panic!("unknown workload {other}"),
    };
    (outcome, report)
}

fn declared() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

/// `(name, unit)` of every metric listed after `section` in
/// `BENCHMARK.json`, in order.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = declared();
    let body = text
        .split_once(&format!("\"{section}\""))
        .expect("section present")
        .1;
    let body = body.split_once(']').expect("section closes").0;
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("quoted name");
            let unit = rest
                .split_once("\"unit\": \"")
                .and_then(|(_, u)| u.split_once('"'))
                .expect("quoted unit")
                .0;
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect()
}

#[test]
fn every_end_to_end_metric_is_emitted_with_its_unit() {
    for workload in WORKLOADS {
        let (outcome, report) = run(workload, false, false);
        assert!(outcome.correct, "{workload}: gate failed on correct code");
        assert!(outcome.attempted > 0, "{workload}: nothing attempted");
        assert_eq!(emitted(&report), listed("end_to_end"), "{workload}");
        for (name, value, _) in &report.metrics {
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn gate_trips_on_a_corrupted_mapping() {
    let (outcome, _) = run("paper-cold", false, true);
    assert!(!outcome.correct);
    assert!(outcome.failed >= 1);
}

#[test]
fn traced_runs_emit_every_layer_and_a_non_negative_residual() {
    for workload in WORKLOADS {
        let (outcome, report) = run(workload, true, false);
        assert!(outcome.correct, "{workload}: gate failed on correct code");
        assert_eq!(emitted(&report), listed("per_layer"), "{workload}");
        let residual = report
            .value("ledger.residual_ratio")
            .expect("traced runs emit the ledger");
        assert!(
            residual >= 0.0,
            "{workload}: layers exceed the end-to-end time (residual {residual})"
        );
    }
}
