//! Executing a validated [`ScenarioSpec`].
//!
//! Every kind runs the same way: `lower` expands the spec into a
//! `harness::Plan` — the distinct systems, one cell per
//! `(worker count × ξ × mechanism)` combination ([`crate::spec::expand_grid`])
//! and the seed plan — and `harness::execute` runs its `(cell × seed)`
//! replicates. Kinds differ only in how they expand cells and in the report
//! they render from the folded statistics: the time-accuracy table, CSVs and
//! speed-ups (plus the Fig. 9 energy table), the ξ table, the scalability
//! tables, or the grid table. A panicking replicate is retried per the
//! spec's `[limits]` policy, and the failures come back in the
//! [`ExecutionReport`] for the binary to print to stderr and fold into its
//! exit code. A scenario that reproduces a figure prints and writes
//! byte-for-byte what the historical figure binary did.
//!
//! CLI precedence: the `--seeds N` and `--system-seeds` flags override the
//! spec's `run.seeds` / `run.system_seeds` keys, `--resume` / `--fresh`
//! select the [`StoreMode`] (a content-addressed store under `runstore/` —
//! see the `runstore` crate — keyed by the resolved spec, so completed
//! replicates of an interrupted run are loaded instead of re-run), and
//! `AIRFEDGA_SCALE` selects the scale.
//!
//! Telemetry: `--telemetry <dir>` (or the spec's `[telemetry] dir` key)
//! enables the `telemetry` crate for the run and flushes `spans.jsonl`,
//! `metrics.json` and `profile.json` into `<dir>` afterwards; `--progress`
//! (or `[telemetry] progress`) forces the stderr progress reporter on even
//! without a TTY. Neither changes a byte of stdout, CSVs or the run store —
//! the sidecar files and stderr are the only outputs, and the `[telemetry]`
//! table is excluded from the canonical spec form so toggling it never
//! re-keys the store.

use crate::spec::{expand_grid, GridCell, ScenarioKind, ScenarioSpec};
use crate::ScenarioError;
use experiments::figures::{print_speedups, report_time_accuracy, FigureParams};
use experiments::harness::{self, CellFailure, NoCache, Plan, PlanCell, ReplicateCache, RunPolicy};
use experiments::report::{fmt_opt_secs, fmt_secs, try_write_csv, Table};
use experiments::scale::{seeds_flag_opt, system_seeds_flag, Scale};
use experiments::stats::CellStats;
use experiments::sweeps::{fmt_xi, report_scalability, report_xi_sweep};
use runstore::{CacheStats, RunStore, StoreCache};
use std::path::{Path, PathBuf};

/// Root directory of the on-disk run store, relative to the working
/// directory. Deliberately *outside* `results/` so the CI determinism jobs'
/// `diff -r results` never see it, and `rm -rf results` between runs leaves
/// completed replicates intact.
pub const STORE_ROOT: &str = "runstore";

/// Exit code of a clean run: every replicate finished (recovered retries
/// included).
pub const EXIT_CLEAN: i32 = 0;
/// Exit code when the grid finished but lost replicates for good
/// (unrecovered failures in the [`ExecutionReport`]).
pub const EXIT_FAILURES: i32 = 1;
/// Exit code for usage and spec errors: bad flags, an unreadable file, a
/// parse/validation failure — nothing ran.
pub const EXIT_USAGE: i32 = 2;

/// How `--resume` / `--fresh` map onto the run store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreMode {
    /// No store: no disk reads or writes, byte-identical to historical runs.
    #[default]
    Disabled,
    /// `--resume`: load completed replicates from the store, persist fresh
    /// ones as they finish.
    Resume,
    /// `--fresh`: discard any stored replicates for this spec first, then
    /// persist as `--resume` does.
    Fresh,
}

/// The command-line overrides a driver binary may apply on top of a spec.
#[derive(Debug, Clone, Default)]
pub struct CliOverrides {
    /// `--seeds N`, overriding the spec's `run.seeds`.
    pub seeds: Option<usize>,
    /// `--system-seeds`, OR-ed with the spec's `run.system_seeds`.
    pub system_seeds: bool,
    /// `--resume` / `--fresh`, selecting the run-store mode.
    pub store: StoreMode,
    /// `--telemetry <dir>`, overriding the spec's `[telemetry] dir` key:
    /// enable telemetry and flush the sidecar files there after the run.
    pub telemetry: Option<String>,
    /// `--progress`, forcing the stderr progress reporter on even when
    /// stderr is not a TTY (equivalent to `[telemetry] progress = "force"`).
    pub progress_force: bool,
    /// `--store-root <dir>`, relocating the run store away from the default
    /// [`STORE_ROOT`]. The job server points every job at one shared root so
    /// identical replicates dedup across jobs.
    pub store_root: Option<PathBuf>,
    /// `--results-dir <dir>`, relocating CSV output away from the default
    /// `results/`. The job server gives each job its own results store.
    pub results_dir: Option<PathBuf>,
}

impl CliOverrides {
    /// Parse the overrides from the process arguments. `Err` is a usage
    /// problem (conflicting flags, a flag missing its value) the binary
    /// should report and exit on.
    pub fn from_args() -> Result<Self, String> {
        let args: Vec<String> = std::env::args().collect();
        let resume = args.iter().any(|a| a == "--resume");
        let fresh = args.iter().any(|a| a == "--fresh");
        let store = match (resume, fresh) {
            (true, true) => {
                return Err("--resume and --fresh are mutually exclusive".to_string());
            }
            (true, false) => StoreMode::Resume,
            (false, true) => StoreMode::Fresh,
            (false, false) => StoreMode::Disabled,
        };
        // The directory-valued flags share one shape: `--flag DIR` or
        // `--flag=DIR`, rejecting a missing or flag-like value.
        let dir_flag = |flag: &str| -> Result<Option<String>, String> {
            let mut value = None;
            let eq = format!("{flag}=");
            for (i, a) in args.iter().enumerate() {
                if a == flag {
                    match args.get(i + 1) {
                        Some(dir) if !dir.starts_with('-') => value = Some(dir.clone()),
                        _ => return Err(format!("{flag} requires a directory argument")),
                    }
                } else if let Some(dir) = a.strip_prefix(&eq) {
                    if dir.is_empty() {
                        return Err(format!("{flag} requires a directory argument"));
                    }
                    value = Some(dir.to_string());
                }
            }
            Ok(value)
        };
        Ok(Self {
            seeds: seeds_flag_opt(),
            system_seeds: system_seeds_flag(),
            store,
            telemetry: dir_flag("--telemetry")?,
            progress_force: args.iter().any(|a| a == "--progress"),
            store_root: dir_flag("--store-root")?.map(PathBuf::from),
            results_dir: dir_flag("--results-dir")?.map(PathBuf::from),
        })
    }
}

/// What a scenario execution produced beyond its stdout/CSV output: the
/// replicate failures, for the binary to report on stderr and turn into its
/// exit code, plus run-store cache statistics and the telemetry profile when
/// either was active.
#[derive(Debug, Default)]
pub struct ExecutionReport {
    /// Replicate failures across the run, recovered ones included, in flat
    /// (cell, seed) order.
    pub failures: Vec<CellFailure>,
    /// Run-store cache statistics (hits / recomputes / corrupt degrades)
    /// when the run used `--resume` / `--fresh`; `None` with the store
    /// disabled. Collected even with telemetry off.
    pub cache: Option<CacheStats>,
    /// The rendered telemetry profile table when the run had a telemetry
    /// directory; the binary appends it to the stderr report path.
    pub profile: Option<String>,
}

impl ExecutionReport {
    /// True when no replicate was lost for good (recovered retries are
    /// still clean — their statistics are intact).
    pub fn is_clean(&self) -> bool {
        self.failures.iter().all(|f| f.recovered)
    }

    /// Multi-line failure report (empty string when nothing failed).
    pub fn failure_report(&self) -> String {
        harness::failure_report(&self.failures)
    }
}

/// Resolve the spec + scale + CLI overrides into the shared driver bundle.
fn figure_params(spec: &ScenarioSpec, scale: Scale, cli: &CliOverrides) -> FigureParams {
    FigureParams {
        scale,
        num_seeds: cli.seeds.unwrap_or(spec.num_seeds),
        vary_system: cli.system_seeds || spec.vary_system,
        run_seed: spec.run_seed,
        system_seed: spec.system_seed,
        num_workers: spec.num_workers,
        total_rounds: spec.rounds,
        eval_every: spec.eval_every,
        max_virtual_time: spec.max_virtual_time,
    }
}

/// The canonical form of a resolved scenario that keys its run-store slot:
/// a versioned dump of the fully-resolved spec plus everything outside the
/// spec text that changes results (scale, effective replication). Any
/// difference — an edited key, a different `--seeds`, another scale —
/// hashes to a different slot, so stale replicates can never be loaded.
fn canonical_spec_form(spec: &ScenarioSpec, scale: Scale, params: &FigureParams) -> String {
    // The `[telemetry]` table never changes results, so it must not re-key
    // the store: a `--resume` run with `--telemetry out/` has to find the
    // replicates a plain `--resume` run persisted. Blank the field before
    // formatting so both hash to the same slot.
    let mut spec = spec.clone();
    spec.telemetry = Default::default();
    format!(
        "airfedga-scenario-v1\n{spec:?}\nscale={scale:?}\nnum_seeds={}\nvary_system={}\n",
        params.num_seeds, params.vary_system
    )
}

/// The per-cell retry/timeout policy: the spec's `[limits]` keys over the
/// harness defaults (one retry, no backoff, no timeout).
fn run_policy(spec: &ScenarioSpec) -> RunPolicy {
    let defaults = RunPolicy::default();
    match &spec.limits {
        None => defaults,
        Some(l) => RunPolicy {
            max_retries: l.max_retries.unwrap_or(defaults.max_retries),
            retry_backoff: l.retry_backoff.unwrap_or(defaults.retry_backoff),
            cell_timeout: l.cell_timeout_secs,
        },
    }
}

/// Open (or reset) the run store for this resolved scenario under `root`
/// (`None` root = the default [`STORE_ROOT`]), or `None` when the store is
/// disabled.
fn open_store(
    spec: &ScenarioSpec,
    scale: Scale,
    params: &FigureParams,
    mode: StoreMode,
    root: Option<&Path>,
) -> Result<Option<RunStore>, ScenarioError> {
    let canonical = canonical_spec_form(spec, scale, params);
    let root = root.unwrap_or(Path::new(STORE_ROOT));
    let opened = match mode {
        StoreMode::Disabled => return Ok(None),
        StoreMode::Resume => RunStore::open(root, &canonical),
        StoreMode::Fresh => RunStore::fresh(root, &canonical),
    };
    opened.map(Some).map_err(|e| {
        ScenarioError::new(format!(
            "[{}] cannot open the run store under `{}/`: {e}",
            spec.name,
            root.display()
        ))
    })
}

/// RAII redirect of `experiments::report`'s results directory; restores the
/// default on drop (including the error paths out of [`execute`]).
struct ResultsDirGuard {
    redirected: bool,
}

impl ResultsDirGuard {
    fn install(dir: Option<&Path>) -> Self {
        if let Some(dir) = dir {
            experiments::report::set_results_dir(Some(dir.to_path_buf()));
        }
        Self {
            redirected: dir.is_some(),
        }
    }
}

impl Drop for ResultsDirGuard {
    fn drop(&mut self) {
        if self.redirected {
            experiments::report::set_results_dir(None);
        }
    }
}

/// Execute a validated scenario at the given scale with the given CLI
/// overrides. Prints and writes exactly what the equivalent figure binary
/// would (no extra banners — output stays byte-comparable); replicate
/// failures come back in the [`ExecutionReport`] for the binary to print to
/// stderr and turn into its exit code.
pub fn execute(
    spec: &ScenarioSpec,
    scale: Scale,
    cli: &CliOverrides,
) -> Result<ExecutionReport, ScenarioError> {
    let params = figure_params(spec, scale, cli);
    let policy = run_policy(spec);
    let store = open_store(spec, scale, &params, cli.store, cli.store_root.as_deref())?;
    let store_cache = store.as_ref().map(StoreCache::new);
    let _results_guard = ResultsDirGuard::install(cli.results_dir.as_deref());
    let cache: &dyn ReplicateCache = match &store_cache {
        Some(c) => c,
        None => &NoCache,
    };

    // Telemetry: the CLI flag wins over the spec's `[telemetry]` table.
    // Everything below only touches stderr and the sidecar directory, so
    // stdout/CSV/runstore bytes are identical whether or not a dir is set.
    let telemetry_dir: Option<PathBuf> = cli
        .telemetry
        .clone()
        .or_else(|| spec.telemetry.dir.clone())
        .map(PathBuf::from);
    let progress_mode = if cli.progress_force {
        telemetry::progress::ProgressMode::Force
    } else {
        match spec.telemetry.progress.as_deref() {
            Some("force") => telemetry::progress::ProgressMode::Force,
            Some("off") => telemetry::progress::ProgressMode::Off,
            _ => telemetry::progress::ProgressMode::Auto,
        }
    };
    telemetry::progress::set_mode(progress_mode);
    if telemetry_dir.is_some() {
        telemetry::enable();
    }

    let grid_span = telemetry::span!("grid");
    let plan = lower(spec, &params);
    let outcome = harness::execute(&plan, &policy, cache);
    let cells = &outcome.cells;
    match spec.kind {
        ScenarioKind::TimeAccuracy => {
            let targets = &spec.accuracy_targets;
            report_time_accuracy(&spec.title, targets, &spec.csv_prefix, scale, &plan, cells);
            if let Some(target) = spec.speedup_target {
                print_speedups(cells, target);
            }
            if !spec.energy_targets.is_empty() {
                print_energy_table(spec, plan.seeds.num_seeds(), cells);
            }
        }
        ScenarioKind::XiSweep => report_xi_sweep(
            &spec.title,
            &spec.accuracy_targets,
            &format!("{}_xi_sweep.csv", spec.csv_prefix),
            scale,
            &plan,
            cells,
        ),
        ScenarioKind::Scalability => report_scalability(
            &spec.title,
            spec.accuracy_targets[0],
            &format!("{}_scalability.csv", spec.csv_prefix),
            &plan,
            cells,
        ),
        ScenarioKind::Grid => report_grid(spec, scale, &plan, cells),
    }
    drop(grid_span);

    let mut report = ExecutionReport {
        failures: outcome.failures,
        // Cache statistics are collected even with telemetry off (the
        // atomics live on the `StoreCache` itself), so `--resume` can
        // always summarise.
        cache: store_cache.as_ref().map(StoreCache::stats),
        profile: None,
    };

    if let Some(dir) = &telemetry_dir {
        let profile = telemetry::flush_to_dir(dir).map_err(|e| {
            ScenarioError::new(format!(
                "[{}] cannot write telemetry artifacts to `{}`: {e}",
                spec.name,
                dir.display()
            ))
        })?;
        report.profile = Some(profile);
        telemetry::disable();
    }
    Ok(report)
}

/// The Fig. 9 energy table: aggregation energy (J) each surviving mechanism
/// spent to reach the spec's `run.energy_targets`. Byte-identical to the
/// historical `fig9_energy` binary's table (single-seed cells print the
/// canonical first-seed value, replicated cells mean±std [reached/total]).
fn print_energy_table(spec: &ScenarioSpec, num_seeds: usize, cells: &[Option<CellStats>]) {
    let title = match &spec.energy_label {
        Some(label) => format!("Aggregation energy (J) to reach target accuracy — {label}"),
        None => "Aggregation energy (J) to reach target accuracy".to_string(),
    };
    let header: Vec<String> = std::iter::once("mechanism".to_string())
        .chain((1..=spec.energy_targets.len()).map(|i| format!("E@t{i}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&title, &header_refs);
    for c in cells.iter().flatten() {
        let mut row = vec![c.mechanism.clone()];
        for &t in &spec.energy_targets {
            row.push(if num_seeds == 1 {
                c.first()
                    .energy_to_accuracy(t)
                    .map(|e| format!("{e:.0}"))
                    .unwrap_or_else(|| "n/a".to_string())
            } else {
                c.energy_to_accuracy_stats(t).fmt_with_count(0, num_seeds)
            });
        }
        table.add_row(row);
    }
    println!("{}", table.render());
}

/// Parse and execute a scenario document with the binary defaults: scale
/// from `AIRFEDGA_SCALE`, overrides from the command line. The entry point
/// of `airfedga-run` and of the thin figure wrappers.
pub fn run_scenario_str(src: &str) -> Result<ExecutionReport, ScenarioError> {
    let spec = ScenarioSpec::parse(src)?;
    let cli = CliOverrides::from_args().map_err(ScenarioError::new)?;
    execute(&spec, Scale::from_env(), &cli)
}

/// Lower a spec to the plan `harness::execute` runs. The cells are
/// [`expand_grid`]'s `(worker count × ξ × mechanism)` list in order, and
/// only the worker-count axis changes the system build (ξ and the mechanism
/// act at run time), so the plan holds one system per distinct worker count.
fn lower(spec: &ScenarioSpec, params: &FigureParams) -> Plan {
    let cells = expand_grid(spec, params.scale);
    let mut worker_counts: Vec<Option<usize>> = Vec::new();
    for cell in &cells {
        if !worker_counts.contains(&cell.num_workers) {
            worker_counts.push(cell.num_workers);
        }
    }
    let base = params.apply(spec.base_config.clone());
    let systems = worker_counts
        .iter()
        .map(|&n| {
            let mut cfg = base.clone();
            if let Some(n) = n {
                cfg.num_workers = n;
                if spec.kind == ScenarioKind::Scalability {
                    // The scalability sweep keeps the per-worker shard size
                    // constant, as when adding workers adds data: it
                    // isolates how the *mechanisms* scale with N rather than
                    // how shrinking shards speed up local training.
                    cfg.dataset.samples_per_class =
                        spec.per_worker_samples * n / cfg.dataset.num_classes.max(1);
                }
            }
            cfg
        })
        .collect();
    let cells = cells
        .iter()
        .map(|cell| PlanCell {
            label: cell_label(cell),
            system: worker_counts
                .iter()
                .position(|&n| n == cell.num_workers)
                .expect("every worker count was collected above"),
            mechanism: cell.mechanism,
            xi: cell.xi,
        })
        .collect();
    // The ξ sweep runs twice the scale's round budget by default, so the
    // slow ξ extremes still reach the targets.
    let total_rounds = match (spec.kind, params.total_rounds) {
        (ScenarioKind::XiSweep, None) => 2 * params.scale.total_rounds(),
        _ => params.rounds(),
    };
    Plan {
        systems,
        cells,
        seeds: params.plan(),
        total_rounds,
        eval_every: params.eval(),
        max_virtual_time: params.max_virtual_time,
    }
}

/// The label that names a cell in failure reports and keys its replicates in
/// the run store: its swept axes, then the mechanism (`"N=20 xi=0.3
/// Air-FedGA"`; just `"Air-FedGA"` for a `time_accuracy` cell).
fn cell_label(cell: &GridCell) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(n) = cell.num_workers {
        parts.push(format!("N={n}"));
    }
    if let Some(xi) = cell.xi {
        parts.push(format!("xi={}", fmt_xi(xi)));
    }
    parts.push(cell.mechanism.label().to_string());
    parts.join(" ")
}

/// The grid report: a banner, one summary row per surviving cell (a cell
/// whose replicates all died has no row; the failure report names it) and
/// `<csv_prefix>_grid.csv`.
fn report_grid(spec: &ScenarioSpec, scale: Scale, plan: &Plan, stats: &[Option<CellStats>]) {
    let seeds = &plan.seeds.run_seeds;
    println!(
        "{}\n  workload: {} | {} cells | {} rounds | {} seed(s) (scale: {scale:?})",
        spec.title,
        plan.systems[0].dataset.name,
        plan.cells.len(),
        plan.total_rounds,
        seeds.len()
    );
    if plan.seeds.vary_system {
        println!(
            "  system re-sampled per replicate (system seeds {}..{})",
            plan.seeds.system_seed,
            plan.seeds.system_seed + (seeds.len() as u64 - 1)
        );
    }

    let replicated = seeds.len() > 1;
    let faulty = !spec.base_config.faults.is_none();
    let has_n = spec.sweep_num_workers.is_some();
    let has_xi = spec.sweep_xi.is_some();
    let mut header: Vec<String> = Vec::new();
    let mut csv_header: Vec<String> = Vec::new();
    if has_n {
        header.push("N".to_string());
        csv_header.push("n".to_string());
    }
    if has_xi {
        header.push("xi".to_string());
        csv_header.push("xi".to_string());
    }
    header.push("mechanism".to_string());
    csv_header.push("mechanism".to_string());
    if replicated {
        csv_header.push("seeds".to_string());
    }
    for label in ["final acc", "final loss", "avg round (s)", "total time (s)"] {
        header.push(label.to_string());
    }
    if replicated {
        for stem in ["final_acc", "final_loss", "avg_round_s", "total_time_s"] {
            csv_header.push(format!("{stem}_mean"));
            csv_header.push(format!("{stem}_std"));
        }
    } else {
        for stem in ["final_acc", "final_loss", "avg_round_s", "total_time_s"] {
            csv_header.push(stem.to_string());
        }
    }
    for t in &spec.accuracy_targets {
        header.push(format!("t@{:.0}% (s)", t * 100.0));
        let pct = t * 100.0;
        if replicated {
            csv_header.push(format!("t{pct:.0}_mean"));
            csv_header.push(format!("t{pct:.0}_std"));
            csv_header.push(format!("t{pct:.0}_n"));
        } else {
            csv_header.push(format!("t{pct:.0}"));
        }
    }
    // Robustness columns only appear on faulty workloads, so fault-free
    // scenarios keep their historical byte-exact layout.
    if faulty {
        header.push("participation".to_string());
        header.push("rounds survived".to_string());
        if replicated {
            for stem in ["participation", "rounds_survived"] {
                csv_header.push(format!("{stem}_mean"));
                csv_header.push(format!("{stem}_std"));
            }
        } else {
            csv_header.push("participation".to_string());
            csv_header.push("rounds_survived".to_string());
        }
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&spec.title, &header_refs);
    let mut csv = csv_header.join(",");
    csv.push('\n');

    for (cell, stat) in plan.cells.iter().zip(stats) {
        let Some(stat) = stat else { continue };
        let mut row: Vec<String> = Vec::new();
        let mut csv_row: Vec<String> = Vec::new();
        if has_n {
            let n = plan.systems[cell.system].num_workers;
            row.push(n.to_string());
            csv_row.push(n.to_string());
        }
        if has_xi {
            let xi = cell.xi.expect("has_xi implies a xi value");
            row.push(fmt_xi(xi));
            csv_row.push(fmt_xi(xi));
        }
        row.push(stat.mechanism.clone());
        csv_row.push(stat.mechanism.clone());
        if replicated {
            csv_row.push(stat.seeds.len().to_string());
            let acc = stat.final_accuracy_stats();
            let loss = stat.final_loss_stats();
            let round = stat.average_round_time_stats();
            let last = stat.points.last().expect("grid trace is non-empty");
            row.push(acc.fmt_mean_std(3));
            row.push(loss.fmt_mean_std(3));
            row.push(round.fmt_mean_std(1));
            row.push(last.time.fmt_mean_std(0));
            for s in [&acc, &loss] {
                csv_row.push(format!("{:.4}", s.mean));
                csv_row.push(format!("{:.4}", s.std));
            }
            for s in [&round, &last.time] {
                csv_row.push(format!("{:.2}", s.mean));
                csv_row.push(format!("{:.2}", s.std));
            }
            for t in &spec.accuracy_targets {
                let s = stat.time_to_accuracy_stats(*t);
                row.push(s.fmt_with_count(0, stat.seeds.len()));
                csv_row.push(s.csv_fields(1));
            }
            if faulty {
                let part = stat.participation_rate_stats();
                let survived = stat.rounds_survived_stats();
                row.push(part.fmt_mean_std(3));
                row.push(survived.fmt_mean_std(1));
                csv_row.push(format!("{:.4}", part.mean));
                csv_row.push(format!("{:.4}", part.std));
                csv_row.push(format!("{:.2}", survived.mean));
                csv_row.push(format!("{:.2}", survived.std));
            }
        } else {
            let s = stat.first();
            row.push(format!("{:.3}", s.final_accuracy));
            row.push(format!("{:.3}", s.final_loss));
            row.push(fmt_secs(s.average_round_time));
            row.push(fmt_secs(s.total_time));
            csv_row.push(format!("{:.4}", s.final_accuracy));
            csv_row.push(format!("{:.4}", s.final_loss));
            csv_row.push(format!("{:.2}", s.average_round_time));
            csv_row.push(format!("{:.2}", s.total_time));
            for t in &spec.accuracy_targets {
                let tta = s.time_to_accuracy(*t);
                row.push(fmt_opt_secs(tta));
                csv_row.push(tta.map(|t| format!("{t:.1}")).unwrap_or_default());
            }
            if faulty {
                row.push(format!("{:.3}", s.participation_rate));
                row.push(format!("{}", s.rounds_survived));
                csv_row.push(format!("{:.4}", s.participation_rate));
                csv_row.push(s.rounds_survived.to_string());
            }
        }
        table.add_row(row);
        csv.push_str(&csv_row.join(","));
        csv.push('\n');
    }
    println!("{}", table.render());
    try_write_csv(&format!("{}_grid.csv", spec.csv_prefix), &csv);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke: a tiny grid scenario runs green from the spec text
    /// alone, exercising parse → validate → expand → replicated run → report.
    #[test]
    fn tiny_grid_scenario_runs_end_to_end() {
        let src = r#"
[scenario]
name = "test_scenario_grid"
kind = "grid"
title = "test grid scenario"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [0.3, 1.0]
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let report = execute(&spec, Scale::Quick, &CliOverrides::default()).unwrap();
        assert!(report.is_clean());
        assert!(report.failure_report().is_empty());
        // And replicated, with system re-sampling.
        let report = execute(
            &spec,
            Scale::Quick,
            &CliOverrides {
                seeds: Some(2),
                system_seeds: true,
                ..CliOverrides::default()
            },
        )
        .unwrap();
        assert!(report.is_clean());
    }

    /// A grid scenario with a `[faults]` table runs end-to-end: churn plus a
    /// straggler deadline, replicated, with the robustness columns appended.
    #[test]
    fn faulty_grid_scenario_runs_end_to_end() {
        let src = r#"
[scenario]
name = "test_scenario_churn"
kind = "grid"
title = "test churn grid scenario"

[system]
workload = "mnist_lr_quick"

[faults]
preset = "churn:0.002"
straggler_fraction = 0.3
straggler_slowdown = 3.0
deadline = 400

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        assert!(!spec.base_config.faults.is_none());
        assert!(execute(&spec, Scale::Quick, &CliOverrides::default())
            .unwrap()
            .is_clean());
    }

    /// A time_accuracy scenario with registry components no figure binary
    /// exposes (Dirichlet partition + OMA baselines on quick LR).
    #[test]
    fn novel_time_accuracy_combination_runs() {
        let src = r#"
[scenario]
name = "test_scenario_dirichlet"
kind = "time_accuracy"
title = "test dirichlet scenario"

[system]
workload = "mnist_lr_quick"
partitioner = "dirichlet:0.5"

[run]
mechanisms = ["fedavg", "tifl"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
speedup_target = 0.5
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        assert!(execute(&spec, Scale::Quick, &CliOverrides::default())
            .unwrap()
            .is_clean());
    }

    /// An injected panic in one cell leaves the grid's survivors intact and
    /// comes back as an unrecovered failure in the report (retries are
    /// disabled so the panic cannot heal) — the driver turns this into a
    /// nonzero exit.
    #[test]
    fn injected_panic_surfaces_in_the_execution_report() {
        let src = r#"
[scenario]
name = "test_scenario_panic"
kind = "grid"
title = "test injected-panic grid"

[system]
workload = "mnist_lr_quick"

[faults]
inject_panic_round = 2

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [1.0]

[limits]
max_retries = 0
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let report = execute(&spec, Scale::Quick, &CliOverrides::default()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.failures.len(), 1);
        assert!(!report.failures[0].recovered);
        assert!(report.failures[0].message.contains("injected fault"));
        let text = report.failure_report();
        assert!(text.contains("replicate(s) panicked"));
        assert!(text.contains("FAILED (no retry)"));
    }

    /// The crash-safe round trip, for a grid and for both sweep kinds: a
    /// `--fresh` run populates the store, and a `--resume` rerun replays
    /// every replicate from disk — same clean report, byte-identical CSV,
    /// and no new journal entries (nothing was recomputed).
    #[test]
    fn fresh_then_resume_replays_identical_csv_bytes() {
        let grid = r#"
[scenario]
name = "test_scenario_resume"
kind = "grid"
title = "test resume round trip"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;
        // (spec, CSV it writes, replicates at two seeds)
        let inputs = [
            (grid, "test_scenario_resume_grid.csv", 4),
            (
                include_str!("../tests/fixtures/tiny_xi_sweep.toml"),
                "tiny_xi_sweep_xi_sweep.csv",
                4,
            ),
            (
                include_str!("../tests/fixtures/tiny_scalability.toml"),
                "tiny_scalability_scalability.csv",
                8,
            ),
        ];
        for (src, csv_name, replicates) in inputs {
            let spec = ScenarioSpec::parse(src).unwrap();
            let fresh = CliOverrides {
                seeds: Some(2),
                store: StoreMode::Fresh,
                ..CliOverrides::default()
            };
            let populate = execute(&spec, Scale::Quick, &fresh).unwrap();
            assert!(populate.is_clean());
            // A fresh store has nothing to hit: every replicate recomputes.
            let stats = populate.cache.expect("store was active");
            assert_eq!(stats.hits, 0);
            assert_eq!(stats.misses, replicates);
            let csv = Path::new("results").join(csv_name);
            let first = std::fs::read(&csv).unwrap();
            std::fs::remove_file(&csv).unwrap();

            // Every replicate was persisted by the fresh run.
            let params = figure_params(&spec, Scale::Quick, &fresh);
            let store = open_store(&spec, Scale::Quick, &params, StoreMode::Resume, None)
                .unwrap()
                .unwrap();
            assert_eq!(store.completed() as u64, replicates);
            assert_eq!(store.journal_len() as u64, replicates);

            let resume = CliOverrides {
                store: StoreMode::Resume,
                ..fresh
            };
            let replay = execute(&spec, Scale::Quick, &resume).unwrap();
            assert!(replay.is_clean());
            assert_eq!(std::fs::read(&csv).unwrap(), first, "{csv_name}");
            // Every replicate was a cache hit — nothing was re-stored.
            assert_eq!(store.journal_len() as u64, replicates);
            // And the report carries the cache statistics (telemetry off).
            let stats = replay.cache.expect("store was active");
            assert_eq!(
                stats,
                CacheStats {
                    hits: replicates,
                    misses: 0,
                    corrupt_degraded: 0
                }
            );
            assert!(stats.summary().contains(&format!("{replicates} hit(s)")));
        }
    }

    /// A `[telemetry]` table must not re-key the run store: a resumed run
    /// with `--telemetry out/` has to find the replicates a plain run
    /// persisted, so the canonical spec form excludes the table entirely.
    #[test]
    fn telemetry_table_does_not_rekey_the_store() {
        let base = r#"
[scenario]
name = "test_scenario_rekey"
kind = "grid"
title = "test telemetry rekey"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [1.0]
"#;
        let with_telemetry =
            format!("{base}\n[telemetry]\ndir = \"out/tel\"\nprogress = \"force\"\n");
        let plain = ScenarioSpec::parse(base).unwrap();
        let telem = ScenarioSpec::parse(&with_telemetry).unwrap();
        assert_ne!(plain.telemetry, telem.telemetry);
        let cli = CliOverrides::default();
        let params = figure_params(&plain, Scale::Quick, &cli);
        assert_eq!(
            canonical_spec_form(&plain, Scale::Quick, &params),
            canonical_spec_form(&telem, Scale::Quick, &params)
        );
    }

    /// The hard telemetry invariant, in-process: running the same grid with
    /// telemetry off and then on produces byte-identical CSV output, while
    /// the on-run additionally writes the three sidecar artifacts and hands
    /// the rendered profile back in the report.
    #[test]
    fn telemetry_on_and_off_produce_identical_csv_bytes() {
        let src = r#"
[scenario]
name = "test_scenario_telemetry"
kind = "grid"
title = "test telemetry byte identity"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let csv = Path::new("results/test_scenario_telemetry_grid.csv");

        let off = execute(&spec, Scale::Quick, &CliOverrides::default()).unwrap();
        assert!(off.is_clean());
        assert!(off.profile.is_none());
        let off_bytes = std::fs::read(csv).unwrap();
        std::fs::remove_file(csv).unwrap();

        let dir = std::env::temp_dir().join("scenario_telemetry_on_off_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cli = CliOverrides {
            telemetry: Some(dir.display().to_string()),
            ..CliOverrides::default()
        };
        let on = execute(&spec, Scale::Quick, &cli).unwrap();
        assert!(on.is_clean());
        let on_bytes = std::fs::read(csv).unwrap();
        assert_eq!(off_bytes, on_bytes, "telemetry changed CSV bytes");

        for artifact in ["spans.jsonl", "metrics.json", "profile.json"] {
            assert!(dir.join(artifact).exists(), "missing {artifact}");
        }
        let spans = std::fs::read_to_string(dir.join("spans.jsonl")).unwrap();
        assert!(spans.contains("\"span\": \"grid\""));
        assert!(spans.contains("\"span\": \"replicate\""));
        assert!(spans.contains("\"span\": \"round\""));
        let profile = on.profile.expect("telemetry run renders a profile");
        assert!(profile.contains("run profile"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Child half of the matrix test below: inert in a normal test run,
    /// but when spawned with `TELEMETRY_MATRIX_CHILD=<dir>` (and pinned
    /// `PARALLEL_THREADS`/`PARALLEL_CHUNKS`, which are read once per
    /// process — hence the subprocess) it runs a small grid with telemetry
    /// on and leaves `metrics.json` in `<dir>`.
    #[test]
    fn matrix_child_writes_logical_fingerprint() {
        let Ok(dir) = std::env::var("TELEMETRY_MATRIX_CHILD") else {
            return;
        };
        let src = r#"
[scenario]
name = "test_scenario_matrix"
kind = "grid"
title = "test telemetry matrix"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let cli = CliOverrides {
            telemetry: Some(dir),
            ..CliOverrides::default()
        };
        assert!(execute(&spec, Scale::Quick, &cli).unwrap().is_clean());
    }

    /// The logical-plane determinism invariant: `metrics.json` (logical
    /// counters only) is byte-identical between a sequential 1×1 schedule
    /// and a 4-thread × 16-chunk schedule of the same grid. Spawns the test
    /// binary twice because the parallel pool reads its env pins once per
    /// process.
    #[test]
    fn logical_metrics_identical_across_thread_chunk_matrix() {
        let exe = std::env::current_exe().unwrap();
        let root = std::env::temp_dir().join("scenario_telemetry_matrix_test");
        let _ = std::fs::remove_dir_all(&root);
        let spawn = |threads: &str, chunks: &str, sub: &str| {
            let dir = root.join(sub);
            let out = std::process::Command::new(&exe)
                .args([
                    "run::tests::matrix_child_writes_logical_fingerprint",
                    "--exact",
                ])
                .env("TELEMETRY_MATRIX_CHILD", &dir)
                .env("PARALLEL_THREADS", threads)
                .env("PARALLEL_CHUNKS", chunks)
                .output()
                .expect("spawn matrix child");
            assert!(
                out.status.success(),
                "matrix child {threads}x{chunks} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            std::fs::read(dir.join("metrics.json")).expect("child wrote metrics.json")
        };
        let seq = spawn("1", "1", "seq");
        let par = spawn("4", "16", "par");
        assert!(!seq.is_empty());
        assert_eq!(
            seq,
            par,
            "logical metrics differ across schedules:\n{}",
            String::from_utf8_lossy(&seq)
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
