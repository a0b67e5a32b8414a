//! # bench — shared fixtures for the Criterion benchmarks
//!
//! The benchmarks live under `benches/`:
//!
//! * `engine.rs` — the batched-engine benchmarks: the two GEMM kernels
//!   training runs, the local training step, batched evaluation, one full
//!   round of every mechanism, and the persistent pool's fork/join cost.
//!   Writes `target/bench-json/engine.json` (copy into the repo root as
//!   `BENCH_<date>.json` to commit a baseline).
//! * `grid.rs` — the experiment-level `run_grid` fan-out and the
//!   `harness::execute` executor.
//!
//! This library crate provides the fixture builders so the bench binaries do
//! not repeat setup code.

#![forbid(unsafe_code)]

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
