//! # experiments — regeneration harness for every table and figure
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation section (§VI) on the simulated substrate, printing the
//! same rows/series the paper reports and (optionally) writing CSV files for
//! plotting. The shared pieces live here:
//!
//! * [`harness`] — the one executor: every experiment lowers to a
//!   [`harness::Plan`] of `(cell × seed)` replicates, and
//!   [`harness::execute`] runs it (shared or per-replicate systems, panic
//!   isolation, retries, the run-store cache) and folds time/energy-to-
//!   accuracy summaries per cell.
//! * [`figures`] / [`sweeps`] — the run parameters
//!   ([`figures::FigureParams`]) and the reports of the figure shapes
//!   (time-accuracy comparisons, the ξ-sweep and the scalability sweep);
//!   the `scenario` crate's spec files render through them.
//! * [`report`] — plain-text table rendering, CSV output (including the
//!   error-bar CSVs of replicated runs) and shaded-band gnuplot scripts.
//! * [`scale`] — the `AIRFEDGA_SCALE` switch (`full` / `quick`) so the same
//!   binaries can be exercised in CI seconds or run at paper scale, plus the
//!   `--seeds N` / `--system-seeds` flag parsers.
//! * [`stats`] — Welford replication statistics behind the multi-seed
//!   error-bar flags.
//! * [`watchdog`] — per-cell wall-clock timeouts: a monitor thread cancels
//!   the cooperative `simcore::cancel` token of a cell that overruns its
//!   `[limits] cell_timeout_secs` budget, turning a hung cell into a
//!   labelled `CellFailure` instead of a stalled grid.
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `fig7_grouping_boxplot` | Fig. 7 — per-group latency ranges at ξ = 0.3 |
//! | `table1_comparison` | Table I — qualitative mechanism comparison, measured proxies |
//! | `table3_emd`        | Table III — average inter-group EMD per grouping method |
//! | `theorem1_bound`    | Theorem 1 / Corollaries 1–2 — numeric bound evaluation |
//!
//! Figs. 3–6 and 8–10 are committed scenario files (`scenarios/fig3.toml`,
//! …, `scenarios/fig10.toml`): run them, or any other spec, with
//! `airfedga-run <scenario.toml>`. The `scenario` crate also keeps thin
//! `fig3_lr_mnist`, `fig8_xi_sweep`, `fig9_energy` and `fig10_scalability`
//! wrappers over them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod harness;
pub mod report;
pub mod scale;
pub mod stats;
pub mod sweeps;
pub mod watchdog;

pub use figures::FigureParams;
pub use harness::{execute, MechanismChoice, Plan, PlanCell, RunSummary, SeedPlan};
pub use report::{write_csv, Table};
pub use scale::Scale;
pub use stats::{replication_seeds, CellStats, SummaryStats, Welford};
