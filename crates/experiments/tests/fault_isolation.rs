//! End-to-end executor smoke: a plan with a deliberately panicking replicate
//! must finish, retry the replicate once, and report the failure with its
//! (cell, seed) label — instead of aborting and losing every completed
//! replicate.

use experiments::harness::{
    execute, execute_with, MechanismChoice, NoCache, Plan, PlanCell, RunPolicy, RunSummary,
    SeedPlan,
};
use experiments::report::write_csv;
use fedml::rng::Rng64;

use airfedga::system::{FlSystem, FlSystemConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `mechanisms` compared on the quick LR workload (system seed 5), three
/// rounds per replicate.
fn quick_plan(mechanisms: &[MechanismChoice], run_seeds: Vec<u64>) -> Plan {
    Plan::comparison(
        FlSystemConfig::mnist_lr_quick(),
        mechanisms,
        SeedPlan::fixed_system(5, run_seeds),
        3,
        1,
        None,
    )
}

/// The replicate body `execute` would run.
fn run_cell(cell: &PlanCell, system: &FlSystem, seed: u64) -> RunSummary {
    let mech = cell.mechanism.build(3, 1, None);
    RunSummary::from_trace(mech.run(system, &mut Rng64::seed_from(seed)))
}

#[test]
fn grid_with_a_panicking_cell_completes_with_a_failure_report() {
    let retries = AtomicUsize::new(0);
    let plan = quick_plan(&MechanismChoice::aircomp_trio(), vec![4242, 4243]);
    let outcome = execute_with(
        &plan,
        &RunPolicy::default(),
        &NoCache,
        |cell, system, seed| {
            if cell.mechanism == MechanismChoice::Dynamic && seed == 4243 {
                retries.fetch_add(1, Ordering::SeqCst);
                panic!("deliberately injected cell failure");
            }
            run_cell(cell, system, seed)
        },
    );

    // The grid finished: every healthy cell kept all replicates, the wounded
    // cell kept its surviving seed.
    assert_eq!(outcome.cells.len(), 3);
    for (ci, cell) in outcome.cells.iter().enumerate() {
        let cell = cell.as_ref().expect("every cell has a surviving replicate");
        let expected = if ci == 0 {
            vec![4242]
        } else {
            vec![4242, 4243]
        };
        assert_eq!(cell.seeds, expected, "cell {ci} kept the wrong seeds");
        for s in &cell.per_seed {
            assert!(s.final_loss.is_finite());
        }
    }

    // The failing replicate was attempted exactly twice (one retry).
    assert_eq!(retries.load(Ordering::SeqCst), 2);

    // The failure report names the (cell, seed) pair and the panic message.
    assert_eq!(outcome.failures.len(), 1);
    let failure = &outcome.failures[0];
    assert_eq!(failure.label, "Dynamic seed 4243");
    assert!(!failure.recovered);
    assert!(failure.message.contains("deliberately injected"));
    let report = outcome.failure_report();
    assert!(report.contains("Dynamic seed 4243"));
    assert!(report.contains("FAILED after one retry"));
    assert!(!outcome.is_complete());
}

#[test]
fn transient_cell_failures_recover_on_retry() {
    let attempts = AtomicUsize::new(0);
    let plan = quick_plan(&MechanismChoice::aircomp_trio(), vec![4242]);
    let outcome = execute_with(
        &plan,
        &RunPolicy::default(),
        &NoCache,
        |cell, system, seed| {
            if cell.mechanism == MechanismChoice::AirFedAvg
                && attempts.fetch_add(1, Ordering::SeqCst) == 0
            {
                panic!("transient blip");
            }
            run_cell(cell, system, seed)
        },
    );
    assert!(outcome.is_complete());
    assert!(outcome.cells.iter().all(Option::is_some));
    assert_eq!(outcome.failures.len(), 1);
    assert!(outcome.failures[0].recovered);
    assert_eq!(outcome.failures[0].label, "Air-FedAvg seed 4242");
}

/// Several (cell, seed) pairs die on *both* attempts: the report lists them
/// in flat cell-major input order, a cell that loses every replicate folds
/// to `None`, and the survivors are untouched.
#[test]
fn multiple_dead_replicates_report_in_input_order() {
    let plan = quick_plan(
        &[MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
        vec![4242, 4243],
    );
    let outcome = execute_with(
        &plan,
        &RunPolicy::default(),
        &NoCache,
        |cell, system, seed| {
            let choice = cell.mechanism;
            let dead = (choice == MechanismChoice::AirFedAvg && seed == 4243)
                || choice == MechanismChoice::AirFedGa;
            if dead {
                panic!("always dies ({}, {seed})", choice.label());
            }
            run_cell(cell, system, seed)
        },
    );

    // Cell 0 keeps one replicate; cell 1 lost both and folds to None.
    assert_eq!(
        outcome.cells[0].as_ref().expect("cell 0 survives").seeds,
        vec![4242]
    );
    assert!(outcome.cells[1].is_none());
    assert!(!outcome.is_complete());

    // Both attempts ran for every dead pair, and the failures arrive in
    // flat cell-major order regardless of parallel completion order.
    let labels: Vec<&str> = outcome.failures.iter().map(|f| f.label.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "Air-FedAvg seed 4243",
            "Air-FedGA seed 4242",
            "Air-FedGA seed 4243"
        ]
    );
    for f in &outcome.failures {
        assert!(!f.recovered);
        assert_eq!(f.attempts, 2);
    }
    let report = outcome.failure_report();
    assert!(report.starts_with("3 replicate(s) panicked:"));
    let pos = |needle: &str| report.find(needle).expect(needle);
    assert!(pos("Air-FedAvg seed 4243") < pos("Air-FedGA seed 4242"));
    assert!(pos("Air-FedGA seed 4242") < pos("Air-FedGA seed 4243"));
}

/// Mixed success and failure still produces a CSV — containing exactly the
/// surviving cells' rows, never a row for a cell that lost every replicate.
/// The failing cell runs on a system whose faults inject a panic at round 1.
#[test]
fn mixed_success_and_failure_yields_a_partial_csv() {
    let mut plan = quick_plan(&MechanismChoice::aircomp_trio(), vec![4242]);
    let mut dead_system = plan.systems[0].clone();
    dead_system.faults.inject_panic_round = Some(1);
    plan.systems.push(dead_system);
    plan.cells[1].system = 1; // Air-FedAvg
    let outcome = execute(&plan, &RunPolicy::default(), &NoCache);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].label, "Air-FedAvg seed 4242");
    assert!(outcome.failures[0].message.contains("injected fault"));

    // Render the survivors the way the reports do: one row per cell that
    // still has statistics.
    let mut csv = String::from("mechanism,final_acc\n");
    for stat in outcome.cells.iter().flatten() {
        csv.push_str(&format!(
            "{},{:.4}\n",
            stat.mechanism,
            stat.first().final_accuracy
        ));
    }
    let path = write_csv("test_partial_fault_grid.csv", &csv).unwrap();
    let text = std::fs::read_to_string(path).unwrap();
    assert_eq!(text.lines().count(), 3, "header + two survivors:\n{text}");
    assert!(text.contains("Dynamic"));
    assert!(text.contains("Air-FedGA"));
    assert!(!text.contains("Air-FedAvg"));
}
