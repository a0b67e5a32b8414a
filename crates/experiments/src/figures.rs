//! The shared run parameters ([`FigureParams`]) and the report of the
//! loss/accuracy-vs-time figures (Figs. 3–6, and the first half of Fig. 9):
//! a summary table, one CSV per mechanism and the Air-FedGA speed-up lines.
//!
//! With more than one seed the report prints mean±std rows and writes
//! per-mechanism error-bar CSVs (plus a shaded-band gnuplot script) next to
//! the canonical first-seed traces; one seed is byte-identical to the
//! historical single-seed output. [`FigureParams`] also carries the
//! `--system-seeds` axis (re-sample the system per replicate) and the
//! run-shape overrides a scenario file may set (explicit worker count,
//! round budget, cadence, virtual-time cap).

use crate::harness::{Plan, SeedPlan};
use crate::report::{error_bar_csv, fmt_opt_secs, fmt_secs, gnuplot_script, try_write_csv, Table};
use crate::scale::Scale;
use crate::stats::{replication_seeds, CellStats};
use airfedga::system::FlSystemConfig;

/// The run-RNG seed every figure historically used; replicate `r` runs
/// with `FIGURE_RUN_SEED + r`.
pub const FIGURE_RUN_SEED: u64 = 4242;

/// The system-construction seed every figure historically used.
pub const FIGURE_SYSTEM_SEED: u64 = 42;

/// Everything a figure run needs beyond the workload itself: scale,
/// replication, seeds and the run-shape overrides a scenario file may set.
/// The `Default` value is the historical single-seed full-scale run.
#[derive(Debug, Clone)]
pub struct FigureParams {
    /// Experiment scale (worker counts, round budgets, shard sizes).
    pub scale: Scale,
    /// Replication count; 1 reproduces the historical single-seed output
    /// byte for byte.
    pub num_seeds: usize,
    /// Re-sample the system per replicate (the `--system-seeds` axis).
    pub vary_system: bool,
    /// Base run seed (replicate `r` runs with `run_seed + r`).
    pub run_seed: u64,
    /// Base system-construction seed.
    pub system_seed: u64,
    /// Override the scaled worker count (a scenario file's explicit
    /// `num_workers` wins over the scale preset).
    pub num_workers: Option<usize>,
    /// Override the scale's round budget.
    pub total_rounds: Option<usize>,
    /// Override the scale's evaluation cadence.
    pub eval_every: Option<usize>,
    /// Optional virtual-time budget (seconds).
    pub max_virtual_time: Option<f64>,
}

impl Default for FigureParams {
    fn default() -> Self {
        Self {
            scale: Scale::Full,
            num_seeds: 1,
            vary_system: false,
            run_seed: FIGURE_RUN_SEED,
            system_seed: FIGURE_SYSTEM_SEED,
            num_workers: None,
            total_rounds: None,
            eval_every: None,
            max_virtual_time: None,
        }
    }
}

impl FigureParams {
    /// The seed plan these parameters describe.
    pub fn plan(&self) -> SeedPlan {
        SeedPlan {
            system_seed: self.system_seed,
            run_seeds: replication_seeds(self.run_seed, self.num_seeds.max(1)),
            vary_system: self.vary_system,
        }
    }

    /// Effective round budget (explicit override or the scale default).
    pub fn rounds(&self) -> usize {
        self.total_rounds
            .unwrap_or_else(|| self.scale.total_rounds())
    }

    /// Effective evaluation cadence.
    pub fn eval(&self) -> usize {
        self.eval_every.unwrap_or_else(|| self.scale.eval_every())
    }

    /// Scale a workload preset, then apply the explicit worker-count
    /// override, if any.
    pub fn apply(&self, workload: FlSystemConfig) -> FlSystemConfig {
        let mut cfg = self.scale.apply(workload);
        if let Some(n) = self.num_workers {
            cfg.num_workers = n;
        }
        cfg
    }
}

/// Print and write the report of a loss/accuracy-vs-time comparison (the
/// shape of Figs. 3–6): the workload banner, a summary row per surviving
/// mechanism with the time to each of `accuracy_targets`, and one CSV per
/// mechanism named `<csv_prefix>_<mechanism>.csv`. `plan` is the comparison
/// [`crate::harness::execute`] ran (one system) and `cells` its result.
pub fn report_time_accuracy(
    title: &str,
    accuracy_targets: &[f64],
    csv_prefix: &str,
    scale: Scale,
    plan: &Plan,
    cells: &[Option<CellStats>],
) {
    let cfg = &plan.systems[0];
    println!(
        "{title}\n  workload: {} | {} workers | {} rounds (scale: {scale:?})",
        cfg.dataset.name, cfg.num_workers, plan.total_rounds
    );
    let seeds = &plan.seeds.run_seeds;
    // Robustness columns appear only for faulty workloads, so fault-free
    // figures keep their historical byte-frozen table layout.
    let faulty = !cfg.faults.is_none();
    let mut header = vec![
        "mechanism".to_string(),
        "final acc".to_string(),
        "final loss".to_string(),
        "avg round (s)".to_string(),
        "total time (s)".to_string(),
        "energy (J)".to_string(),
    ];
    for t in accuracy_targets {
        header.push(format!("t@{:.0}% (s)", t * 100.0));
    }
    if faulty {
        header.push("participation".to_string());
        header.push("rounds survived".to_string());
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    if seeds.len() == 1 {
        for s in cells.iter().flatten().map(|c| c.first()) {
            let mut row = vec![
                s.mechanism.clone(),
                format!("{:.3}", s.final_accuracy),
                format!("{:.3}", s.final_loss),
                fmt_secs(s.average_round_time),
                fmt_secs(s.total_time),
                format!("{:.0}", s.total_energy),
            ];
            for t in accuracy_targets {
                row.push(fmt_opt_secs(s.time_to_accuracy(*t)));
            }
            if faulty {
                row.push(format!("{:.3}", s.participation_rate));
                row.push(format!("{}", s.rounds_survived));
            }
            table.add_row(row);
        }
    } else {
        println!(
            "  replicated over {} seeds ({}..{}); cells are mean±std",
            seeds.len(),
            seeds[0],
            seeds[seeds.len() - 1]
        );
        if plan.seeds.vary_system {
            println!(
                "  system re-sampled per replicate (system seeds {}..{})",
                plan.seeds.system_seed,
                plan.seeds.system_seed + (seeds.len() as u64 - 1)
            );
        }
        for c in cells.iter().flatten() {
            let acc = c.final_accuracy_stats();
            let loss = c.final_loss_stats();
            let round = c.average_round_time_stats();
            // The last eval point may cover only the seeds whose traces ran
            // that long (a seed can hit `max_virtual_time` earlier); make the
            // partial coverage visible instead of presenting a subset mean as
            // if it spanned every replicate.
            let last = c.points.last().expect("replicated trace is non-empty");
            let fmt_last = |s: &crate::stats::SummaryStats, precision: usize| {
                if s.n == seeds.len() as u64 {
                    s.fmt_mean_std(precision)
                } else {
                    s.fmt_with_count(precision, seeds.len())
                }
            };
            let mut row = vec![
                c.mechanism.clone(),
                acc.fmt_mean_std(3),
                loss.fmt_mean_std(3),
                round.fmt_mean_std(1),
                fmt_last(&last.time, 0),
                fmt_last(&last.energy, 0),
            ];
            for t in accuracy_targets {
                row.push(c.time_to_accuracy_stats(*t).fmt_with_count(0, seeds.len()));
            }
            if faulty {
                row.push(c.participation_rate_stats().fmt_mean_std(3));
                row.push(c.rounds_survived_stats().fmt_mean_std(1));
            }
            table.add_row(row);
        }
    }
    println!("{}", table.render());

    for c in cells.iter().flatten() {
        let stem = c.mechanism.to_lowercase().replace(['-', ' '], "_");
        // The canonical first-seed trace keeps its historical name (and
        // bytes), so existing plotting scripts keep working at any seed
        // count; replicated runs add the error-bar series next to it.
        try_write_csv(
            &format!("{csv_prefix}_{stem}.csv"),
            &c.first().trace.to_csv(),
        );
        if seeds.len() > 1 {
            try_write_csv(
                &format!("{csv_prefix}_{stem}_errorbars.csv"),
                &error_bar_csv(&c.points),
            );
        }
    }
    if seeds.len() > 1 {
        // One shaded-band script over every mechanism's error-bar CSV.
        let series: Vec<(String, String)> = cells
            .iter()
            .flatten()
            .map(|c| {
                let stem = c.mechanism.to_lowercase().replace(['-', ' '], "_");
                (
                    c.mechanism.clone(),
                    format!("{csv_prefix}_{stem}_errorbars.csv"),
                )
            })
            .collect();
        try_write_csv(
            &format!("{csv_prefix}_errorbars.gp"),
            &gnuplot_script(title, &format!("{csv_prefix}_errorbars.png"), &series),
        );
    }
}

/// Print the paper's headline speed-up claim for a figure: how much faster
/// Air-FedGA reaches `target` accuracy than each other surviving mechanism
/// (canonical first-seed runs).
pub fn print_speedups(cells: &[Option<CellStats>], target: f64) {
    let summaries = || cells.iter().flatten().map(CellStats::first);
    let Some(ga) = summaries()
        .find(|s| s.mechanism == "Air-FedGA")
        .and_then(|s| s.time_to_accuracy(target))
    else {
        println!(
            "Air-FedGA did not reach a stable {:.0}% accuracy in this run",
            target * 100.0
        );
        return;
    };
    for s in summaries() {
        if s.mechanism == "Air-FedGA" {
            continue;
        }
        match s.time_to_accuracy(target) {
            Some(t) => println!(
                "  Air-FedGA reaches {:.0}% accuracy {:.1}% faster than {} ({:.0}s vs {:.0}s)",
                target * 100.0,
                (1.0 - ga / t) * 100.0,
                s.mechanism,
                ga,
                t
            ),
            None => println!(
                "  {} never stably reached {:.0}% accuracy (Air-FedGA: {:.0}s)",
                s.mechanism,
                target * 100.0,
                ga
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{execute, MechanismChoice, NoCache, RunPolicy};

    fn quick_params(num_seeds: usize) -> FigureParams {
        FigureParams {
            scale: Scale::Quick,
            num_seeds,
            ..FigureParams::default()
        }
    }

    /// Run `mechanisms` on the quick LR workload under `params` and print
    /// the time-accuracy report; returns the folded cells.
    fn run_figure(
        title: &str,
        mechanisms: &[MechanismChoice],
        csv_prefix: &str,
        params: &FigureParams,
    ) -> Vec<Option<CellStats>> {
        let plan = Plan::comparison(
            params.apply(FlSystemConfig::mnist_lr_quick()),
            mechanisms,
            params.plan(),
            params.rounds(),
            params.eval(),
            params.max_virtual_time,
        );
        let cells = execute(&plan, &RunPolicy::default(), &NoCache).cells;
        report_time_accuracy(title, &[0.5], csv_prefix, params.scale, &plan, &cells);
        cells
    }

    #[test]
    fn figure_driver_runs_at_quick_scale() {
        let cells = run_figure(
            "test figure",
            &[MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
            "test_fig",
            &quick_params(1),
        );
        assert_eq!(cells.len(), 2);
        let labels: Vec<&str> = cells
            .iter()
            .map(|c| c.as_ref().unwrap().mechanism.as_str())
            .collect();
        assert_eq!(labels, vec!["Air-FedAvg", "Air-FedGA"]);
        print_speedups(&cells, 0.5);
    }

    #[test]
    fn figure_params_resolve_overrides() {
        let p = FigureParams {
            scale: Scale::Quick,
            num_workers: Some(7),
            total_rounds: Some(11),
            ..FigureParams::default()
        };
        assert_eq!(p.rounds(), 11);
        assert_eq!(p.eval(), Scale::Quick.eval_every());
        assert_eq!(p.apply(FlSystemConfig::mnist_lr()).num_workers, 7);
        let plan = p.plan();
        assert_eq!(plan.run_seeds, vec![FIGURE_RUN_SEED]);
        assert_eq!(plan.system_seed, FIGURE_SYSTEM_SEED);
        assert!(!plan.vary_system);
    }

    #[test]
    fn replicated_figure_keeps_the_first_seed_canonical() {
        let ga = [MechanismChoice::AirFedGa];
        let single = run_figure("single", &ga, "test_fig_s1", &quick_params(1));
        let triple = run_figure("triple", &ga, "test_fig_s3", &quick_params(3));
        let (single, triple) = (single[0].as_ref().unwrap(), triple[0].as_ref().unwrap());
        // Replicate 0 of the multi-seed run IS the single-seed run.
        let a = &single.first().trace;
        let b = &triple.first().trace;
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.loss.to_bits(), pb.loss.to_bits());
            assert_eq!(pa.time.to_bits(), pb.time.to_bits());
        }
        // Error-bar statistics cover all three replicates.
        assert_eq!(triple.seeds, vec![4242, 4243, 4244]);
        assert!(triple.points.iter().all(|p| p.loss.n == 3));
    }
}
