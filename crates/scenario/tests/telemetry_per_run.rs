//! Telemetry counters are process-global, so a host that runs several
//! scenarios in one process (the job server) must start each run's counters
//! from zero. This lives in its own test binary: no other test shares the
//! process, so nothing else moves the global counters while it runs.

use experiments::Scale;
use scenario::{CliOverrides, ScenarioSpec, StoreMode};
use std::path::Path;

const SPEC: &str = r#"
[scenario]
name = "test_telemetry_per_run"
kind = "grid"
title = "telemetry counters are per run"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [1.0]
"#;

/// The value of `"name": value` in a `metrics.json`.
fn counter(metrics: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let start = metrics
        .find(&key)
        .unwrap_or_else(|| panic!("no counter {name} in:\n{metrics}"))
        + key.len();
    let digits: String = metrics[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

fn run(spec: &ScenarioSpec, root: &Path, telemetry: &str) -> String {
    let dir = root.join(telemetry);
    let cli = CliOverrides {
        store: StoreMode::Resume,
        store_root: Some(root.join("runstore")),
        results_dir: Some(root.join(format!("results_{telemetry}"))),
        telemetry: Some(dir.display().to_string()),
        ..CliOverrides::default()
    };
    let report = scenario::run::execute(spec, Scale::Quick, &cli).unwrap();
    assert!(report.is_clean(), "{}", report.failure_report());
    std::fs::read_to_string(dir.join("metrics.json")).unwrap()
}

/// Run one spec twice in one process with `--resume` and a telemetry dir:
/// the second run replays both replicates from the store, runs no round,
/// and its `metrics.json` must say so instead of repeating the first run's
/// counts.
#[test]
fn second_run_in_one_process_reports_only_its_own_counts() {
    let root =
        std::env::temp_dir().join(format!("scenario_telemetry_per_run_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = ScenarioSpec::parse(SPEC).unwrap();

    let cold = run(&spec, &root, "tel_cold");
    assert!(counter(&cold, "engine.rounds") > 0);
    assert_eq!(counter(&cold, "runstore.misses"), 2);
    assert_eq!(counter(&cold, "runstore.hits"), 0);
    assert!(counter(&cold, "gemm.nn") > 0);

    let warm = run(&spec, &root, "tel_warm");
    assert_eq!(counter(&warm, "engine.rounds"), 0, "{warm}");
    assert_eq!(counter(&warm, "runstore.misses"), 0, "{warm}");
    assert_eq!(counter(&warm, "runstore.hits"), 2, "{warm}");
    assert_eq!(counter(&warm, "gemm.nn"), 0, "{warm}");
    let _ = std::fs::remove_dir_all(&root);
}
