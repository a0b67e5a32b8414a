//! Experiment scale selection and run-size flags.
//!
//! The paper's experiments use 100 workers and thousands of seconds of
//! virtual training. Re-running everything at that scale takes minutes per
//! figure on a laptop; CI and the Criterion benches need seconds. The
//! `AIRFEDGA_SCALE` environment variable switches between the two without
//! touching the experiment code: `full` (default for the binaries) or
//! `quick`. The `--seeds N` command-line flag ([`seeds_flag_opt`]) selects how
//! many replication seeds the multi-seed figure binaries run, and
//! `--system-seeds` ([`system_seeds_flag`]) makes each replicate re-sample
//! the system (shards, profiles, initial model) as well as the run RNG.

use airfedga::system::FlSystemConfig;

/// Parse the `--seeds N` replication flag from the process arguments
/// (`--seeds 3` or `--seeds=3`), returning `None` when the flag is absent —
/// callers that have another source for the seed count (a scenario file's
/// `run.seeds` key) use the distinction to let the CLI override the spec.
/// Panics on a malformed value (silent fallback would mask a typo'd
/// replication request); 0 is clamped to 1.
pub fn seeds_flag_opt() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = if a == "--seeds" {
            Some(
                args.next()
                    .expect("--seeds requires a value (e.g. --seeds 3)"),
            )
        } else {
            a.strip_prefix("--seeds=").map(str::to_string)
        };
        if let Some(v) = value {
            let n: usize = v
                .parse()
                .unwrap_or_else(|_| panic!("invalid --seeds value: {v:?}"));
            return Some(n.max(1));
        }
    }
    None
}

/// Parse the `--system-seeds` flag from the process arguments. When present,
/// replication varies the sampled system (shards, worker profiles, initial
/// model) as well as the run seed: replicate `r` builds its system from
/// `system_seed + r`, folding both noise sources into the error bars. The
/// default (absent) keeps the historical one-system-per-figure behaviour,
/// and replicate 0 always uses the historical system seed either way.
pub fn system_seeds_flag() -> bool {
    std::env::args().skip(1).any(|a| a == "--system-seeds")
}

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-like scale: 100 workers, hundreds of rounds.
    Full,
    /// Smoke-test scale: tens of workers, tens of rounds.
    Quick,
}

impl Scale {
    /// Read the scale from the `AIRFEDGA_SCALE` environment variable
    /// (`"quick"` selects [`Scale::Quick`]; anything else, or unset, selects
    /// [`Scale::Full`]).
    pub fn from_env() -> Self {
        match std::env::var("AIRFEDGA_SCALE") {
            Ok(v) if v.eq_ignore_ascii_case("quick") => Scale::Quick,
            _ => Scale::Full,
        }
    }

    /// Number of workers for standard comparisons.
    pub fn num_workers(self) -> usize {
        match self {
            Scale::Full => 100,
            Scale::Quick => 20,
        }
    }

    /// Number of global rounds for standard comparisons.
    pub fn total_rounds(self) -> usize {
        match self {
            Scale::Full => 400,
            Scale::Quick => 60,
        }
    }

    /// Evaluation cadence (rounds between test-set evaluations).
    pub fn eval_every(self) -> usize {
        match self {
            Scale::Full => 10,
            Scale::Quick => 5,
        }
    }

    /// Adapt a workload preset to this scale (worker count and, at quick
    /// scale, smaller shards).
    pub fn apply(self, mut cfg: FlSystemConfig) -> FlSystemConfig {
        cfg.num_workers = self.num_workers();
        if self == Scale::Quick {
            cfg.dataset.samples_per_class = (cfg.dataset.samples_per_class / 3).max(20);
            cfg.test_per_class = (cfg.test_per_class / 2).max(5);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks_the_system() {
        let full = Scale::Full.apply(FlSystemConfig::mnist_lr());
        let quick = Scale::Quick.apply(FlSystemConfig::mnist_lr());
        assert_eq!(full.num_workers, 100);
        assert_eq!(quick.num_workers, 20);
        assert!(quick.dataset.samples_per_class < full.dataset.samples_per_class);
        assert!(Scale::Quick.total_rounds() < Scale::Full.total_rounds());
    }

    #[test]
    fn flag_parsers_default_when_absent() {
        // The test harness is not invoked with experiment flags, so the
        // parsers must report "absent" here.
        assert_eq!(seeds_flag_opt(), None);
        assert!(!system_seeds_flag());
    }

    #[test]
    fn env_parsing_defaults_to_full() {
        // Cannot mutate the environment safely in parallel tests, so only
        // check the default path plus the accessors.
        assert!(Scale::Full.num_workers() >= Scale::Quick.num_workers());
        assert!(Scale::Full.eval_every() >= Scale::Quick.eval_every());
    }
}
