//! The parameter-sweep figures: the Fig. 8 ξ-sweep and the Fig. 10
//! scalability sweep.
//!
//! Both kinds lower to an ordinary [`Plan`] — one Air-FedGA cell per ξ on
//! one system, or one cell per (worker count, mechanism) on one system per
//! worker count — and run through [`crate::harness::execute`] like every
//! other experiment. This module holds what is specific to them: the
//! scale-dependent default axes and the two reports. For the default parameters the output is byte-identical to
//! the historical `fig8_xi_sweep` and `fig10_scalability` binaries.

use crate::harness::{run_grid, Plan};
use crate::report::{fmt_opt_secs, fmt_secs, try_write_csv, Table};
use crate::scale::Scale;
use crate::stats::CellStats;
use airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use fedml::rng::Rng64;

/// The historical scale-dependent ξ grid of the Fig. 8 sweep: 0.0..=1.0 in
/// steps of 0.1 at full scale, `[0, 0.3, 0.7, 1.0]` at quick scale.
pub fn default_xis(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Full => (0..=10).map(|i| i as f64 / 10.0).collect(),
        Scale::Quick => vec![0.0, 0.3, 0.7, 1.0],
    }
}

/// The historical scale-dependent worker-count grid of the Fig. 10 sweep
/// (20..=100 step 20 full, `[10, 20]` quick).
pub fn default_worker_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![20, 40, 60, 80, 100],
        Scale::Quick => vec![10, 20],
    }
}

/// Format a ξ value for tables and CSVs: one decimal when that is exact
/// (the historical grids are 0.1-spaced, so `0.3` / `1.0` keep their
/// byte-identical rendering), full precision otherwise — scenario files may
/// sweep values like `0.25` and `0.21`, which must not collapse into
/// indistinguishable `0.2` rows.
pub fn fmt_xi(xi: f64) -> String {
    let one = format!("{xi:.1}");
    if one.parse::<f64>() == Ok(xi) {
        one
    } else {
        format!("{xi}")
    }
}

/// Print and write the report of a ξ-sweep (the Fig. 8 shape): the number
/// of Algorithm 3 groups per ξ and the training time to reach each of
/// `targets`. `plan` has one Air-FedGA cell per ξ on one system; the group
/// counts are computed on that system built from the plan's system seed
/// (under `--system-seeds`, the replicate-0 system).
pub fn report_xi_sweep(
    title: &str,
    targets: &[f64],
    csv_name: &str,
    scale: Scale,
    plan: &Plan,
    cells: &[Option<CellStats>],
) {
    let seeds = &plan.seeds.run_seeds;
    let system = plan.systems[0].build(&mut Rng64::seed_from(plan.seeds.system_seed));
    let xis: Vec<f64> = plan
        .cells
        .iter()
        .map(|c| c.xi.expect("xi-sweep cells carry a xi"))
        .collect();
    // Group counts are seed-independent: Algorithm 3 is deterministic given
    // the system.
    let groups: Vec<usize> = run_grid(xis.clone(), |xi| {
        AirFedGa::new(AirFedGaConfig {
            xi,
            ..AirFedGaConfig::default()
        })
        .grouping_for(&system)
        .num_groups()
    });
    println!(
        "{title} ({} workers, {scale:?} scale)\n",
        system.num_workers()
    );
    let mut header: Vec<String> = vec!["xi".to_string(), "groups".to_string()];
    for t in targets {
        header.push(format!("t@{:.0}%", t * 100.0));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    if seeds.len() == 1 {
        let mut table = Table::new(
            "Training time (s) to reach target accuracy vs xi",
            &header_refs,
        );
        let mut csv = String::from("xi,groups");
        for t in targets {
            csv.push_str(&format!(",t{:.0}", t * 100.0));
        }
        csv.push('\n');
        for ((xi, num_groups), cell) in xis.iter().zip(&groups).zip(cells) {
            // A ξ whose replicates were all lost has no row.
            let Some(cell) = cell else { continue };
            let times: Vec<Option<f64>> = targets
                .iter()
                .map(|&t| cell.first().time_to_accuracy(t))
                .collect();
            let mut row = vec![fmt_xi(*xi), format!("{num_groups}")];
            row.extend(times.iter().map(|&t| fmt_opt_secs(t)));
            table.add_row(row);
            csv.push_str(&format!("{},{num_groups}", fmt_xi(*xi)));
            for t in &times {
                csv.push(',');
                csv.push_str(&t.map(|t| format!("{t:.1}")).unwrap_or_default());
            }
            csv.push('\n');
        }
        println!("{}", table.render());
        try_write_csv(csv_name, &csv);
    } else {
        println!(
            "  replicated over {} seeds ({}..{}); cells are mean±std [reached/total]\n",
            seeds.len(),
            seeds[0],
            seeds[seeds.len() - 1]
        );
        if plan.seeds.vary_system {
            println!(
                "  system re-sampled per replicate (system seeds {}..{})\n",
                plan.seeds.system_seed,
                plan.seeds.system_seed + (seeds.len() as u64 - 1)
            );
        }
        let mut table = Table::new(
            "Training time (s) to reach target accuracy vs xi",
            &header_refs,
        );
        let mut csv = String::from("xi,groups");
        for t in targets {
            let pct = t * 100.0;
            csv.push_str(&format!(",t{pct:.0}_mean,t{pct:.0}_std,t{pct:.0}_n"));
        }
        csv.push('\n');
        for ((xi, num_groups), cell) in xis.iter().zip(&groups).zip(cells) {
            let Some(cell) = cell else { continue };
            let stats: Vec<_> = targets
                .iter()
                .map(|&t| cell.time_to_accuracy_stats(t))
                .collect();
            let mut row = vec![fmt_xi(*xi), format!("{num_groups}")];
            row.extend(stats.iter().map(|s| s.fmt_with_count(0, seeds.len())));
            table.add_row(row);
            csv.push_str(&format!("{},{num_groups}", fmt_xi(*xi)));
            for s in &stats {
                csv.push(',');
                csv.push_str(&s.csv_fields(1));
            }
            csv.push('\n');
        }
        println!("{}", table.render());
        try_write_csv(csv_name, &csv);
    }
}

/// Print and write the report of a scalability sweep (the Fig. 10 shape):
/// per worker count, the average single-round time and the total time to
/// `target` accuracy of each mechanism. `plan` has one system per worker
/// count and, on each, one cell per mechanism in column order.
pub fn report_scalability(
    title: &str,
    target: f64,
    csv_name: &str,
    plan: &Plan,
    cells: &[Option<CellStats>],
) {
    let seeds = &plan.seeds.run_seeds;
    let replicated = seeds.len() > 1;
    let order: Vec<&'static str> = plan
        .cells
        .iter()
        .filter(|c| c.system == 0)
        .map(|c| c.mechanism.label())
        .collect();
    let mut header: Vec<&str> = vec!["N"];
    header.extend(order.iter().copied());
    let mut round_table = Table::new(
        &format!(
            "{} (left): average single-round time (s) vs number of workers",
            title
        ),
        &header,
    );
    let mut total_table = Table::new(
        &format!(
            "{} (right): total time (s) to stable {:.0}% accuracy vs number of workers",
            title,
            target * 100.0
        ),
        &header,
    );
    let mut csv = if replicated {
        format!(
            "n,mechanism,seeds,avg_round_s_mean,avg_round_s_std,\
             time_to_{0:.0}_s_mean,time_to_{0:.0}_s_std,time_to_{0:.0}_n\n",
            target * 100.0
        )
    } else {
        format!("n,mechanism,avg_round_s,time_to_{:.0}_s\n", target * 100.0)
    };

    for (si, system) in plan.systems.iter().enumerate() {
        let n = system.num_workers;
        let cells: Vec<&CellStats> = plan
            .cells
            .iter()
            .zip(cells)
            .filter(|(cell, _)| cell.system == si)
            .filter_map(|(_, stats)| stats.as_ref())
            .collect();
        let cell = |label: &str, f: &dyn Fn(&CellStats) -> String| {
            cells
                .iter()
                .copied()
                .find(|c| c.mechanism == label)
                .map(f)
                .unwrap_or_else(|| "n/a".to_string())
        };
        let mut round_row = vec![n.to_string()];
        let mut total_row = vec![n.to_string()];
        for label in &order {
            if replicated {
                round_row.push(cell(label, &|c| {
                    c.average_round_time_stats().fmt_mean_std(1)
                }));
                total_row.push(cell(label, &|c| {
                    c.time_to_accuracy_stats(target)
                        .fmt_with_count(0, seeds.len())
                }));
            } else {
                round_row.push(cell(label, &|c| fmt_secs(c.first().average_round_time)));
                total_row.push(cell(label, &|c| {
                    fmt_opt_secs(c.first().time_to_accuracy(target))
                }));
            }
        }
        round_table.add_row(round_row);
        total_table.add_row(total_row);
        for c in cells {
            if replicated {
                let round = c.average_round_time_stats();
                let tta = c.time_to_accuracy_stats(target);
                csv.push_str(&format!(
                    "{n},{},{},{:.2},{:.2},{}\n",
                    c.mechanism,
                    seeds.len(),
                    round.mean,
                    round.std,
                    tta.csv_fields(1),
                ));
            } else {
                let s = c.first();
                csv.push_str(&format!(
                    "{n},{},{:.2},{}\n",
                    s.mechanism,
                    s.average_round_time,
                    s.time_to_accuracy(target)
                        .map(|t| format!("{t:.1}"))
                        .unwrap_or_default()
                ));
            }
        }
        println!("finished N = {n}");
    }
    println!();
    println!("{}", round_table.render());
    println!("{}", total_table.render());
    try_write_csv(csv_name, &csv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{execute, MechanismChoice, NoCache, PlanCell, RunPolicy, SeedPlan};
    use airfedga::system::FlSystemConfig;

    #[test]
    fn default_grids_match_the_historical_binaries() {
        assert_eq!(default_xis(Scale::Quick), vec![0.0, 0.3, 0.7, 1.0]);
        assert_eq!(default_xis(Scale::Full).len(), 11);
        assert_eq!(
            default_worker_counts(Scale::Full),
            vec![20, 40, 60, 80, 100]
        );
        assert_eq!(default_worker_counts(Scale::Quick), vec![10, 20]);
    }

    #[test]
    fn xi_formatting_is_historical_for_coarse_grids_and_lossless_for_fine() {
        // The historical 0.1-spaced grids keep their byte-identical one
        // decimal rendering…
        assert_eq!(fmt_xi(0.3), "0.3");
        assert_eq!(fmt_xi(1.0), "1.0");
        assert_eq!(fmt_xi(0.0), "0.0");
        // …while scenario-supplied finer values stay distinguishable.
        assert_eq!(fmt_xi(0.25), "0.25");
        assert_eq!(fmt_xi(0.21), "0.21");
        assert_ne!(fmt_xi(0.25), fmt_xi(0.21));
    }

    #[test]
    fn sweep_mechanism_builder_applies_xi_to_airfedga_only() {
        let plan = Plan::comparison(
            FlSystemConfig::mnist_lr_quick(),
            &[],
            SeedPlan::fixed_system(42, vec![4242]),
            10,
            2,
            None,
        );
        let name = |mechanism, xi| {
            let cell = PlanCell {
                label: String::new(),
                system: 0,
                mechanism,
                xi,
            };
            plan.mechanism(&cell).name().to_string()
        };
        assert_eq!(name(MechanismChoice::AirFedGa, Some(0.7)), "Air-FedGA");
        assert_eq!(name(MechanismChoice::FedAvg, Some(0.7)), "FedAvg");
        assert_eq!(name(MechanismChoice::AirFedGa, None), "Air-FedGA");
    }

    #[test]
    fn xi_sweep_runs_at_test_scale() {
        let plan = Plan {
            systems: vec![Scale::Quick.apply(FlSystemConfig::mnist_lr_quick())],
            cells: [0.3, 1.0]
                .iter()
                .map(|&xi| PlanCell {
                    label: format!("xi={}", fmt_xi(xi)),
                    system: 0,
                    mechanism: MechanismChoice::AirFedGa,
                    xi: Some(xi),
                })
                .collect(),
            seeds: SeedPlan::fixed_system(42, vec![4242]),
            total_rounds: 6,
            eval_every: 2,
            max_virtual_time: None,
        };
        let outcome = execute(&plan, &RunPolicy::default(), &NoCache);
        assert!(outcome.is_complete());
        report_xi_sweep(
            "test xi sweep",
            &[0.5],
            "test_xi_sweep.csv",
            Scale::Quick,
            &plan,
            &outcome.cells,
        );
    }
}
