//! # scenario — declarative experiment specs and the `airfedga-run` driver
//!
//! Experiments are **data, not code**: a scenario file (a TOML subset, see
//! [`toml`]) names a workload, mechanisms, seeds and sweep axes, and one
//! driver executes it through the deterministic `experiments` executor
//! (`harness::execute`). The pieces:
//!
//! * [`toml`] — the self-contained TOML-subset parser (no crates.io access,
//!   so hand-rolled like the `crates/compat` stand-ins), with line-numbered
//!   errors and hard duplicate-key rejection.
//! * [`registry`] — the string-keyed component catalogue (datasets, models,
//!   partitioners, heterogeneity, channel presets, mechanisms, workload
//!   presets) scenario files compose from.
//! * [`spec`] — the typed [`spec::ScenarioSpec`]: validation, defaulting,
//!   and the deterministic sweep-axis → cell expansion every kind shares.
//! * [`run`] — lowering a spec to the executor's plan, running it and
//!   rendering the kind's report, and the CLI glue (`--seeds` / `--system-seeds` override the spec's keys;
//!   `--resume` / `--fresh` select the crash-safe run store).
//!
//! Binaries:
//!
//! * `airfedga-run <scenario.toml>` — run any spec file.
//! * `fig3_lr_mnist` / `fig8_xi_sweep` / `fig9_energy` / `fig10_scalability`
//!   — thin wrappers over the committed `scenarios/fig3.toml` / `fig8.toml`
//!   / `fig9*.toml` / `fig10.toml`, kept so existing workflows (and the CI
//!   determinism jobs) are untouched; their output is byte-identical to the
//!   pre-scenario hardcoded binaries.
//!
//! A wrapper runs the *same* code path as `airfedga-run` on its spec, so
//! their output is byte-identical — the CI scenario-equivalence job diffs
//! them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod registry;
pub mod run;
pub mod spec;
pub mod toml;

pub use registry::Registry;
pub use run::{run_scenario_str, CliOverrides, ExecutionReport, StoreMode};
pub use spec::{RunLimits, ScenarioKind, ScenarioSpec};

/// An error from parsing or validating a scenario, with the 1-based source
/// line when one is known.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// 1-based line in the scenario file, when attributable.
    pub line: Option<usize>,
    /// Human-readable description.
    pub msg: String,
}

impl ScenarioError {
    /// An error without a source line (registry lookups, cross-key checks).
    pub fn new(msg: String) -> Self {
        Self { line: None, msg }
    }

    /// An error at a specific source line.
    pub fn at(line: usize, msg: String) -> Self {
        Self {
            line: Some(line),
            msg,
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_includes_the_line_when_known() {
        assert_eq!(
            ScenarioError::at(7, "boom".to_string()).to_string(),
            "line 7: boom"
        );
        assert_eq!(ScenarioError::new("boom".to_string()).to_string(), "boom");
    }
}
