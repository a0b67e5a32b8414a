//! Every committed scenario under `scenarios/` must parse, validate, and
//! carry the shape its figure (or novel workload) expects — a spec that
//! drifts from the registry or the format fails here, not at run time in CI.

use experiments::harness::MechanismChoice;
use experiments::Scale;
use runstore::Fnv128;
use scenario::spec::expand_grid;
use scenario::{CliOverrides, ScenarioKind, ScenarioSpec};

const FIG3: &str = include_str!("../../../scenarios/fig3.toml");
const FIG4: &str = include_str!("../../../scenarios/fig4.toml");
const FIG5: &str = include_str!("../../../scenarios/fig5.toml");
const FIG6: &str = include_str!("../../../scenarios/fig6.toml");
const FIG8: &str = include_str!("../../../scenarios/fig8.toml");
const FIG9: &str = include_str!("../../../scenarios/fig9.toml");
const FIG9_CIFAR: &str = include_str!("../../../scenarios/fig9_cifar.toml");
const FIG10: &str = include_str!("../../../scenarios/fig10.toml");
const JOINT: &str = include_str!("../../../scenarios/joint_xi_workers.toml");
const DIRICHLET: &str = include_str!("../../../scenarios/dirichlet_cifar_all.toml");
const CHURN: &str = include_str!("../../../scenarios/churn_mnist.toml");
const OUTAGE: &str = include_str!("../../../scenarios/outage_xi_grid.toml");
const WATCHDOG: &str = include_str!("../../../scenarios/watchdog_smoke.toml");

#[test]
fn every_committed_scenario_parses_and_validates() {
    for (name, src) in [
        ("fig3", FIG3),
        ("fig4", FIG4),
        ("fig5", FIG5),
        ("fig6", FIG6),
        ("fig8", FIG8),
        ("fig9", FIG9),
        ("fig9_cifar", FIG9_CIFAR),
        ("fig10", FIG10),
        ("joint_xi_workers", JOINT),
        ("dirichlet_cifar_all", DIRICHLET),
        ("churn_mnist", CHURN),
        ("outage_xi_grid", OUTAGE),
        ("watchdog_smoke", WATCHDOG),
    ] {
        let spec = ScenarioSpec::parse(src)
            .unwrap_or_else(|e| panic!("scenarios/{name}.toml failed to parse: {e}"));
        assert_eq!(spec.name, name, "scenario name must match its file name");
    }
}

#[test]
fn fig3_spec_matches_the_historical_binary_shape() {
    let spec = ScenarioSpec::parse(FIG3).unwrap();
    assert_eq!(spec.kind, ScenarioKind::TimeAccuracy);
    assert_eq!(
        spec.title,
        "Fig. 3: LR on MNIST-like (loss/accuracy vs time)"
    );
    assert_eq!(spec.csv_prefix, "fig3");
    // The historical aircomp trio, in the paper's comparison order.
    assert_eq!(
        spec.mechanisms,
        vec![
            MechanismChoice::Dynamic,
            MechanismChoice::AirFedAvg,
            MechanismChoice::AirFedGa
        ]
    );
    assert_eq!(spec.accuracy_targets, vec![0.8, 0.85, 0.9]);
    assert_eq!(spec.speedup_target, Some(0.8));
    // Historical seeds: system 42, run 4242, single replicate.
    assert_eq!(spec.system_seed, 42);
    assert_eq!(spec.run_seed, 4242);
    assert_eq!(spec.num_seeds, 1);
    assert!(!spec.vary_system);
    // The workload preset is the paper's headline config.
    assert_eq!(spec.base_config.num_workers, 100);
    assert_eq!(spec.base_config.dataset.name, "mnist-like");
}

#[test]
fn fig9_specs_match_the_historical_binary_panels() {
    let mnist = ScenarioSpec::parse(FIG9).unwrap();
    let cifar = ScenarioSpec::parse(FIG9_CIFAR).unwrap();
    for spec in [&mnist, &cifar] {
        assert_eq!(spec.kind, ScenarioKind::TimeAccuracy);
        // The historical trio, and the energy table over the same targets
        // the figure itself tracks.
        assert_eq!(
            spec.mechanisms,
            vec![
                MechanismChoice::Dynamic,
                MechanismChoice::AirFedAvg,
                MechanismChoice::AirFedGa
            ]
        );
        assert_eq!(spec.energy_targets, spec.accuracy_targets);
        assert!(spec.speedup_target.is_none());
        assert_eq!(spec.num_seeds, 1);
    }
    // The historical panel labels, titles and CSV prefixes, verbatim.
    assert_eq!(mnist.accuracy_targets, vec![0.8, 0.85, 0.9]);
    assert_eq!(mnist.energy_label.as_deref(), Some("CNN on MNIST-like"));
    assert_eq!(mnist.csv_prefix, "fig9_cnn_on_mnist_like");
    assert_eq!(
        mnist.title,
        "Fig. 9 (CNN on MNIST-like): energy to reach target accuracy"
    );
    assert_eq!(cifar.accuracy_targets, vec![0.45, 0.5, 0.55]);
    assert_eq!(cifar.energy_label.as_deref(), Some("CNN on CIFAR-10-like"));
    assert_eq!(cifar.csv_prefix, "fig9_cnn_on_cifar_10_like");
    assert_eq!(
        cifar.title,
        "Fig. 9 (CNN on CIFAR-10-like): energy to reach target accuracy"
    );
}

#[test]
fn fig8_and_fig10_keep_scale_dependent_default_grids() {
    let fig8 = ScenarioSpec::parse(FIG8).unwrap();
    assert_eq!(fig8.kind, ScenarioKind::XiSweep);
    assert!(
        fig8.sweep_xi.is_none(),
        "fig8 must use the scale default grid"
    );
    assert!(fig8.mechanisms.is_empty());

    let fig10 = ScenarioSpec::parse(FIG10).unwrap();
    assert_eq!(fig10.kind, ScenarioKind::Scalability);
    assert!(fig10.sweep_num_workers.is_none());
    assert_eq!(fig10.mechanisms.len(), 5);
    assert_eq!(fig10.mechanisms[0], MechanismChoice::FedAvg);
    assert_eq!(fig10.accuracy_targets, vec![0.8]);
    assert_eq!(fig10.per_worker_samples, 30);
}

#[test]
fn novel_scenarios_cover_combinations_no_binary_exposes() {
    let joint = ScenarioSpec::parse(JOINT).unwrap();
    assert_eq!(joint.kind, ScenarioKind::Grid);
    let cells = expand_grid(&joint, Scale::Quick);
    // 2 worker counts x 3 xi x 2 mechanisms, N outermost.
    assert_eq!(cells.len(), 12);
    assert_eq!(cells[0].num_workers, Some(10));
    assert_eq!(cells[11].num_workers, Some(16));
    assert_eq!(cells[11].xi, Some(0.8));
    assert_eq!(cells[11].mechanism, MechanismChoice::AirFedGa);

    let dirichlet = ScenarioSpec::parse(DIRICHLET).unwrap();
    assert_eq!(dirichlet.kind, ScenarioKind::TimeAccuracy);
    assert_eq!(dirichlet.mechanisms.len(), 5);
    assert_eq!(
        dirichlet.base_config.partitioner,
        fedml::partition::Partitioner::Dirichlet { alpha: 0.3 }
    );
}

#[test]
fn watchdog_smoke_hangs_with_a_small_timeout_and_no_retry() {
    let spec = ScenarioSpec::parse(WATCHDOG).unwrap();
    assert_eq!(spec.kind, ScenarioKind::Grid);
    assert_eq!(spec.base_config.faults.inject_hang_round, Some(2));
    assert_eq!(expand_grid(&spec, Scale::Quick).len(), 1);
    let limits = spec.limits.expect("watchdog smoke needs [limits]");
    // The timeout must be small (CI waits it out) and retries disabled
    // (a hang would just hang again — CI asserts a single timely failure).
    let timeout = limits
        .cell_timeout_secs
        .expect("watchdog smoke needs a cell timeout");
    assert!(timeout <= 5.0, "keep the smoke timeout CI-friendly");
    assert_eq!(limits.max_retries, Some(0));
}

const TINY_XI_SWEEP: &str = include_str!("fixtures/tiny_xi_sweep.toml");
const TINY_SCALABILITY: &str = include_str!("fixtures/tiny_scalability.toml");

/// Execute `src` at quick scale with `seeds` replicates, writing into a
/// fresh temp results directory, and return `(file name, FNV-1a digest)`
/// for every file the run wrote, sorted by name.
fn result_digests(src: &str, seeds: usize) -> Vec<(String, u128)> {
    let spec = ScenarioSpec::parse(src).unwrap();
    let dir = std::env::temp_dir().join(format!(
        "scenario_golden_{}_s{seeds}_{}",
        spec.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cli = CliOverrides {
        seeds: Some(seeds),
        results_dir: Some(dir.clone()),
        ..CliOverrides::default()
    };
    let report = scenario::run::execute(&spec, Scale::Quick, &cli).unwrap();
    assert!(report.is_clean(), "{}", report.failure_report());
    let mut digests: Vec<(String, u128)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let mut h = Fnv128::new();
            h.update(&std::fs::read(&path).unwrap());
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, h.finish())
        })
        .collect();
    digests.sort();
    let _ = std::fs::remove_dir_all(&dir);
    digests
}

/// Golden bytes of the two sweep kinds (the Fig. 8 and Fig. 10 shapes) on
/// reduced specs, at one and two seeds. Any change to how these kinds run
/// or render moves a digest.
#[test]
fn sweep_kinds_write_golden_csv_bytes() {
    let mut actual = Vec::new();
    for (src, seeds) in [
        (TINY_XI_SWEEP, 1),
        (TINY_XI_SWEEP, 2),
        (TINY_SCALABILITY, 1),
        (TINY_SCALABILITY, 2),
    ] {
        for (name, digest) in result_digests(src, seeds) {
            actual.push(format!("s{seeds} {name} {digest:032x}"));
        }
    }
    let expected = [
        "s1 tiny_xi_sweep_xi_sweep.csv 35d12aff5942c73a1029a103f04505ca",
        "s2 tiny_xi_sweep_xi_sweep.csv d45e929f0b7e305c71eeca5cd3d13c50",
        "s1 tiny_scalability_scalability.csv c4b478627ad8a2d2414468e389b05be7",
        "s2 tiny_scalability_scalability.csv f997fbb89e74eb322474ae2032757564",
    ];
    assert_eq!(actual, expected);
}
