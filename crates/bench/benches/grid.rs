//! Benchmarks of the experiment-level `run_grid` fan-out and the
//! `harness::execute` executor built on it.
//!
//! * `grid/run_grid_8cells` — 8 independent (seed, mechanism) cells fanned
//!   across the persistent worker pool through
//!   `experiments::harness::run_grid`. Each cell is a short Air-FedAvg run
//!   with its own RNG stream.
//! * `grid/sequential_8cells` — the same cells run through a plain
//!   sequential loop; both entries compute byte-identical results.
//! * `replicated/execute_4cells_x3seeds` — the executor: a plan of 4
//!   mechanism cells × 3 replication seeds (system built once, `NoCache`)
//!   fanned as one flat 12-replicate grid (the over-decomposed pool
//!   schedule's target shape: replicate costs are uneven across mechanisms
//!   and seeds), folded into per-eval-point Welford stats.
//! * `replicated/sequential_4cells_x3seeds` — the same system build and
//!   product as the sequential double loop plus the same fold;
//!   bit-identical results.
//!
//! On a multi-core host the fanned entries should be ≥ 3× faster than their
//! sequential twins; on a single-core host (`PARALLEL_THREADS=1` or one CPU)
//! the pool falls back to in-line execution and each pair coincides up to
//! noise — the committed baseline records which case it measured.
//!
//! These live in their own bench binary (not `engine.rs`) so the engine
//! bench's code layout — and therefore its kernel medians — stays comparable
//! with committed baselines that predate the `experiments` dependency.
//!
//! Run with `cargo bench --bench grid`; the JSON report lands in
//! `target/bench-json/grid.json`.

use airfedga::system::FlMechanism;
use airfedga::system::FlSystemConfig;
use baselines::{AirFedAvg, BaselineOptions};
use bench::{bench_config, bench_system};
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::harness::{
    execute, run_grid, MechanismChoice, NoCache, Plan, RunPolicy, RunSummary, SeedPlan,
};
use experiments::stats::CellStats;
use fedml::rng::Rng64;
use std::hint::black_box;

fn bench_grid(c: &mut Criterion) {
    let system = bench_system(FlSystemConfig::mnist_lr_quick(), 8, 21);
    let opts = BaselineOptions {
        total_rounds: 2,
        eval_every: 2,
        max_virtual_time: None,
        parallel: true,
    };
    let cell = |seed: u64| {
        let mech = AirFedAvg::new(opts);
        mech.run(&system, &mut Rng64::seed_from(seed)).final_loss()
    };
    let mut group = c.benchmark_group("grid");
    group.bench_function("run_grid_8cells", |b| {
        b.iter(|| black_box(run_grid((0..8u64).collect(), cell)))
    });
    group.bench_function("sequential_8cells", |b| {
        b.iter(|| black_box((0..8u64).map(cell).collect::<Vec<f64>>()))
    });
    group.finish();
}

fn bench_replicated(c: &mut Criterion) {
    let seeds = vec![4242u64, 4243, 4244];
    let plan = Plan::comparison(
        bench_config(FlSystemConfig::mnist_lr_quick(), 8),
        &MechanismChoice::all()[1..],
        SeedPlan::fixed_system(21, seeds.clone()),
        2,
        2,
        None,
    );
    let mut group = c.benchmark_group("replicated");
    group.bench_function("execute_4cells_x3seeds", |b| {
        b.iter(|| black_box(execute(&plan, &RunPolicy::default(), &NoCache)))
    });
    group.bench_function("sequential_4cells_x3seeds", |b| {
        b.iter(|| {
            let system = plan.systems[0].build(&mut Rng64::seed_from(plan.seeds.system_seed));
            let cells: Vec<CellStats> = plan
                .cells
                .iter()
                .map(|cell| {
                    let per_seed: Vec<RunSummary> = seeds
                        .iter()
                        .map(|&s| {
                            let trace = plan.mechanism(cell).run(&system, &mut Rng64::seed_from(s));
                            RunSummary::from_trace(trace)
                        })
                        .collect();
                    CellStats::from_summaries(seeds.clone(), per_seed)
                })
                .collect();
            black_box(cells)
        })
    });
    group.finish();
}

criterion_group! {
    name = grid;
    config = Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_grid, bench_replicated
}
criterion_main!(grid);
