//! # bench — shared fixtures for the Criterion benchmarks
//!
//! The actual benchmarks live under `benches/`:
//!
//! * `substrates.rs` — microbenchmarks of the building blocks (AirComp
//!   aggregation, Algorithm-2 power control, Algorithm-3 grouping, EMD,
//!   local SGD steps, the discrete-event queue).
//! * `figures.rs` — one benchmark group per loss/accuracy figure
//!   (Figs. 3–6, 8, 10): each iteration performs a scaled-down end-to-end
//!   training run of the mechanisms the figure compares.
//! * `tables.rs` — benchmark groups for Table I and Table III.
//!
//! * `engine.rs` — the batched-engine benchmarks: the GEMM kernels, the
//!   batched vs. per-sample local training step, batched evaluation, and one
//!   full round of every mechanism. Writes `target/bench-json/engine.json`
//!   (copy into the repo root as `BENCH_<date>.json` to commit a baseline).
//!
//! This library crate provides the fixture builders so the bench binaries do
//! not repeat setup code, plus [`reference`] — the original per-sample
//! trainer kept as the correctness oracle and perf baseline for the batched
//! engine.

#![forbid(unsafe_code)]

pub mod reference;

use airfedga::system::{FlSystem, FlSystemConfig};
use fedml::rng::Rng64;

/// A small but non-trivial system used by the end-to-end benchmark groups:
/// 16 label-skewed heterogeneous workers.
pub fn bench_system(config: FlSystemConfig, num_workers: usize, seed: u64) -> FlSystem {
    bench_config(config, num_workers).build(&mut Rng64::seed_from(seed))
}

/// The configuration [`bench_system`] builds: `config` shrunk to
/// `num_workers` workers with small shards and test set.
pub fn bench_config(config: FlSystemConfig, num_workers: usize) -> FlSystemConfig {
    let mut cfg = config;
    cfg.num_workers = num_workers;
    cfg.dataset.samples_per_class = 40.max(num_workers * 3 / cfg.dataset.num_classes.max(1));
    cfg.test_per_class = 10;
    cfg
}

/// Number of rounds used by the end-to-end benchmark runs; small enough for
/// Criterion iterations, large enough that the async schedule is exercised.
pub const BENCH_ROUNDS: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_system_builds() {
        let sys = bench_system(FlSystemConfig::mnist_lr_quick(), 12, 1);
        assert_eq!(sys.num_workers(), 12);
        assert!(sys.total_data() >= 12);
    }
}
