//! Property-based tests over the core invariants of the reproduction:
//! partitioning, over-the-air aggregation, power control, EMD, the grouping
//! constraint, the Lemma-1/Theorem-1 bounds, and parallel ≡ sequential
//! training. (The batched training engine's equivalence to the per-sample
//! reference is checked in `fedml`'s `model` tests, where the reference
//! lives.)
//!
//! The build environment has no crates.io access (so no `proptest`); instead
//! each property samples its inputs from a seeded [`Rng64`], which keeps the
//! cases deterministic and the failures reproducible — rerun with the case
//! index printed in the assertion message.

use air_fedga::airfedga::convergence::{lemma1_envelope, lemma1_recursion};
use air_fedga::airfedga::mechanism::{run_group_async, AggregationMode, EngineOptions};
use air_fedga::airfedga::system::FlSystemConfig;
use air_fedga::fedml::dataset::SyntheticSpec;
use air_fedga::fedml::params::FlatParams;
use air_fedga::fedml::partition::{LabelDistribution, Partitioner};
use air_fedga::fedml::rng::Rng64;
use air_fedga::grouping::emd::average_group_emd;
use air_fedga::grouping::greedy::{greedy_grouping, GreedyGroupingConfig};
use air_fedga::grouping::objective::{GroupingObjective, ObjectiveConstants};
use air_fedga::grouping::worker_info::{Grouping, WorkerInfo};
use air_fedga::wireless::aircomp::{
    air_aggregate, air_aggregate_indexed_into, apply_group_update, AirAggregationInput,
    AirAggregationScratch, NormedInput,
};
use air_fedga::wireless::power::{optimize_power, transmit_power, PowerControlConfig};

const CASES: usize = 24;

fn label_skew_workers(n: usize, latencies: &[f64]) -> Vec<WorkerInfo> {
    (0..n)
        .map(|i| {
            let mut counts = vec![0usize; 10];
            counts[i * 10 / n] = 40;
            WorkerInfo::new(i, latencies[i % latencies.len()].max(0.1), 40, counts)
        })
        .collect()
}

/// Every partitioner produces a true partition: shards are disjoint, cover
/// the dataset, and are non-empty.
#[test]
fn partitioners_produce_true_partitions() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(1000 + case as u64);
        let num_workers = 1 + rng.index(39);
        let which = rng.index(3);
        let data = SyntheticSpec::mnist_like()
            .with_samples_per_class(12)
            .generate(&mut rng);
        let partitioner = match which {
            0 => Partitioner::LabelSkew,
            1 => Partitioner::Iid,
            _ => Partitioner::Dirichlet { alpha: 0.5 },
        };
        let shards = partitioner.partition(&data, num_workers, &mut rng);
        assert_eq!(shards.len(), num_workers, "case {case}");
        let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all.len(), data.len(), "case {case}: not covering");
        all.dedup();
        assert_eq!(all.len(), data.len(), "case {case}: overlapping shards");
        assert!(
            shards.iter().all(|s| !s.is_empty()),
            "case {case}: empty shard"
        );
    }
}

/// With a noiseless channel and matched factors (sigma = sqrt(eta)), the
/// over-the-air estimate equals the ideal weighted average, and the global
/// update is the exact convex combination of Eq. (8).
#[test]
fn noiseless_aircomp_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(2000 + case as u64);
        let dims = 1 + rng.index(63);
        let n = 1 + rng.index(5);
        let sizes: Vec<f64> = (0..n).map(|_| rng.uniform_range(1.0, 200.0)).collect();
        let scale = rng.uniform_range(0.1, 4.0);
        let params: Vec<FlatParams> = (0..n)
            .map(|i| FlatParams(vec![0.02 * (i as f64 + 1.0); dims]))
            .collect();
        let inputs: Vec<AirAggregationInput<'_>> = params
            .iter()
            .zip(sizes.iter())
            .map(|(p, &d)| AirAggregationInput {
                data_size: d,
                channel_gain: 0.7,
                params: p,
            })
            .collect();
        let res = air_aggregate(&inputs, scale, scale * scale, 0.0, &mut rng);
        assert!(res.error_norm_sq < 1e-16, "case {case}");
        let total: f64 = sizes.iter().sum();
        let global = FlatParams::zeros(dims);
        let updated = apply_group_update(&global, &res.group_estimate, total, total * 2.0);
        // Half weight: every coordinate equals half the ideal average.
        for (u, i) in updated.0.iter().zip(res.ideal_group_model.0.iter()) {
            assert!((u - 0.5 * i).abs() < 1e-12, "case {case}");
        }
    }
}

/// Algorithm 2 always converges and never violates any worker's energy
/// budget, regardless of channel gains, data sizes or budget magnitudes.
#[test]
fn power_control_respects_energy_budgets() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(3000 + case as u64);
        let norm = rng.uniform_range(0.5, 50.0);
        let n = 1 + rng.index(7);
        let sizes: Vec<f64> = (0..n).map(|_| rng.uniform_range(1.0, 500.0)).collect();
        let gains: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.05, 2.0)).collect();
        let budget = rng.uniform_range(0.01, 100.0);
        let mut cfg = PowerControlConfig::for_group(norm, &sizes, &gains);
        cfg.energy_budgets = vec![budget; n];
        let sol = optimize_power(&cfg);
        assert!(sol.sigma > 0.0 && sol.eta > 0.0, "case {case}");
        assert!(sol.cost.is_finite(), "case {case}");
        for ((&d, &h), &e) in sizes
            .iter()
            .zip(gains.iter())
            .zip(cfg.energy_budgets.iter())
        {
            let p = transmit_power(d, sol.sigma, h);
            assert!(p * p * norm * norm <= e * (1.0 + 1e-6), "case {case}");
        }
    }
}

/// The average group EMD is always within [0, 2], and grouping everyone
/// together always achieves EMD 0.
#[test]
fn emd_is_bounded_and_full_grouping_is_iid() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(4000 + case as u64);
        let n = 2 + rng.index(58);
        let latencies: Vec<f64> = (0..n).map(|_| rng.uniform_range(5.0, 60.0)).collect();
        let workers = label_skew_workers(n, &latencies);
        let singles = Grouping::singletons(n);
        let single_group = Grouping::single_group(n);
        let e_singles = average_group_emd(&singles, &workers);
        let e_all = average_group_emd(&single_group, &workers);
        assert!((0.0..=2.0 + 1e-9).contains(&e_singles), "case {case}");
        assert!(e_all < 1e-9, "case {case}");
        assert!(e_singles >= e_all, "case {case}");
    }
}

/// Algorithm 3 always yields a valid partition that satisfies the
/// ξ-constraint, and never does worse on the objective than the
/// fully-asynchronous singleton grouping.
#[test]
fn greedy_grouping_invariants() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(5000 + case as u64);
        let n = 2 + rng.index(38);
        let xi = rng.uniform();
        let latencies: Vec<f64> = (0..n).map(|_| rng.uniform_range(5.0, 60.0)).collect();
        let workers = label_skew_workers(n, &latencies);
        let objective = GroupingObjective::new(0.5, xi, ObjectiveConstants::default());
        let cfg = GreedyGroupingConfig::new(objective.clone());
        let grouping = greedy_grouping(&workers, &cfg);
        assert_eq!(grouping.num_workers(), n, "case {case}");
        assert!(objective.satisfies_xi(&grouping, &workers), "case {case}");
        let singles = Grouping::singletons(n);
        assert!(
            objective.evaluate(&grouping, &workers)
                <= objective.evaluate(&singles, &workers) + 1e-9,
            "case {case}"
        );
    }
}

/// Lemma 1: the closed-form envelope dominates the worst-case recursion for
/// any admissible (x, y, z, tau).
#[test]
fn lemma1_envelope_dominates() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(6000 + case as u64);
        let x = rng.uniform_range(0.0, 0.7);
        let y = rng.uniform() * (0.99 - x).max(0.0);
        let z = rng.uniform_range(0.0, 0.5);
        let q0 = rng.uniform_range(0.0, 10.0);
        let tau = rng.index(8);
        let seq = lemma1_recursion(x, y, z, q0, tau, 120);
        for (t, q) in seq.iter().enumerate() {
            assert!(
                *q <= lemma1_envelope(x, y, z, q0, tau, t) + 1e-7,
                "case {case}, t = {t}"
            );
        }
    }
}

/// Merging label distributions is equivalent to computing the distribution
/// of the union (checked via counts).
#[test]
fn label_distribution_merge_is_consistent() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from(7000 + case as u64);
        let counts_a: Vec<usize> = (0..5).map(|_| rng.index(50)).collect();
        let counts_b: Vec<usize> = (0..5).map(|_| rng.index(50)).collect();
        if counts_a.iter().sum::<usize>() == 0 || counts_b.iter().sum::<usize>() == 0 {
            continue;
        }
        let a = LabelDistribution::from_counts(&counts_a);
        let b = LabelDistribution::from_counts(&counts_b);
        let merged = LabelDistribution::merge(&[&a, &b]);
        let combined: Vec<usize> = counts_a
            .iter()
            .zip(counts_b.iter())
            .map(|(x, y)| x + y)
            .collect();
        let expected = LabelDistribution::from_counts(&combined);
        assert!(merged.l1_distance(&expected) < 1e-9, "case {case}");
    }
}

/// Rayon-style parallel worker rounds produce bit-identical training traces
/// to sequential execution for fixed seeds, across aggregation back-ends.
#[test]
fn parallel_rounds_are_bit_identical_to_sequential() {
    let mut cfg = FlSystemConfig::mnist_lr_quick();
    cfg.num_workers = 8;
    let system = cfg.build(&mut Rng64::seed_from(42));
    let groupings = [
        Grouping::single_group(system.num_workers()),
        Grouping::new(vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7]], 8),
    ];
    let modes = [
        AggregationMode::AirComp {
            power_control: true,
            noise: true,
        },
        AggregationMode::OmaIdeal {
            scheme: air_fedga::wireless::timing::OmaScheme::Tdma,
        },
    ];
    for grouping in &groupings {
        for &aggregation in &modes {
            let base = EngineOptions {
                total_rounds: 12,
                eval_every: 1,
                max_virtual_time: None,
                aggregation,
                parallel: true,
            };
            let mut seq = base.clone();
            seq.parallel = false;
            let a = run_group_async(&system, grouping, &base, "par", &mut Rng64::seed_from(9));
            let b = run_group_async(&system, grouping, &seq, "seq", &mut Rng64::seed_from(9));
            assert_eq!(a.points().len(), b.points().len());
            for (pa, pb) in a.points().iter().zip(b.points()) {
                assert_eq!(pa.loss.to_bits(), pb.loss.to_bits());
                assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits());
                assert_eq!(pa.time.to_bits(), pb.time.to_bits());
                assert_eq!(pa.energy.to_bits(), pb.energy.to_bits());
            }
        }
    }
}

/// The zero-alloc kernel `air_aggregate_indexed_into` is bit-identical to
/// the allocating `air_aggregate` on random groups, factors and noise levels
/// — including when its buffers are reused (dirty) across calls of different
/// dimensions, and whether it computes each `‖w‖²` or is handed a cached one.
#[test]
fn air_aggregate_indexed_into_is_bit_identical_to_allocating_path() {
    let mut rng = Rng64::seed_from(7102);
    let mut estimate = FlatParams::zeros(0);
    let mut scratch = AirAggregationScratch::new();
    for case in 0..CASES {
        let dim = 1 + rng.index(64);
        let group = 1 + rng.index(6);
        let params: Vec<FlatParams> = (0..group)
            .map(|_| FlatParams((0..dim).map(|_| rng.gaussian()).collect()))
            .collect();
        let inputs: Vec<AirAggregationInput<'_>> = params
            .iter()
            .map(|p| AirAggregationInput {
                data_size: rng.uniform_range(1.0, 50.0),
                channel_gain: rng.uniform_range(0.05, 2.0),
                params: p,
            })
            .collect();
        let sigma = rng.uniform_range(0.1, 2.0);
        let eta = rng.uniform_range(0.1, 4.0);
        let noise = if rng.uniform() < 0.5 {
            0.0
        } else {
            rng.uniform_range(0.0, 1.0)
        };
        let seed = 9000 + case as u64;
        let mut rng_ref = Rng64::seed_from(seed);
        let res = air_aggregate(&inputs, sigma, eta, noise, &mut rng_ref);
        let expected_next = rng_ref.next_u64();
        let cached = case % 2 == 1;
        let mut rng_kernel = Rng64::seed_from(seed);
        let stats = if cached {
            air_aggregate_indexed_into(
                inputs.len(),
                |k| NormedInput {
                    input: inputs[k].clone(),
                    norm_sq: params[k].norm_sq(),
                },
                sigma,
                eta,
                noise,
                &mut rng_kernel,
                &mut estimate,
                &mut scratch,
            )
        } else {
            air_aggregate_indexed_into(
                inputs.len(),
                |k| inputs[k].clone(),
                sigma,
                eta,
                noise,
                &mut rng_kernel,
                &mut estimate,
                &mut scratch,
            )
        };
        assert_eq!(
            stats.group_data_size.to_bits(),
            res.group_data_size.to_bits()
        );
        assert_eq!(estimate.dim(), dim, "case {case}");
        for (x, y) in estimate.0.iter().zip(res.group_estimate.0.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "case {case}: estimate diverged");
        }
        assert_eq!(scratch.per_worker_energy, res.per_worker_energy);
        assert_eq!(
            rng_kernel.next_u64(),
            expected_next,
            "case {case}: RNG stream diverged"
        );
    }
}

/// `run_grid` (experiment-level parallelism) returns exactly what the
/// sequential loop over the same cells returns, bit for bit, including when
/// every cell runs a full engine round with inner member parallelism (the
/// nested two-level fan-out of the scalability sweep).
#[test]
fn run_grid_with_nested_rounds_matches_sequential_loop() {
    let mut cfg = FlSystemConfig::mnist_lr_quick();
    cfg.num_workers = 6;
    let system = cfg.build(&mut Rng64::seed_from(4));
    let grouping = Grouping::new(vec![vec![0, 1, 2], vec![3, 4, 5]], 6);
    let run_cell = |seed: u64| -> Vec<u64> {
        let opts = EngineOptions {
            total_rounds: 6,
            eval_every: 2,
            max_virtual_time: None,
            aggregation: AggregationMode::AirComp {
                power_control: true,
                noise: true,
            },
            parallel: true,
        };
        run_group_async(
            &system,
            &grouping,
            &opts,
            "cell",
            &mut Rng64::seed_from(seed),
        )
        .points()
        .iter()
        .flat_map(|p| {
            [
                p.loss.to_bits(),
                p.accuracy.to_bits(),
                p.time.to_bits(),
                p.energy.to_bits(),
            ]
        })
        .collect()
    };
    let cells: Vec<u64> = (100..108).collect();
    let grid = experiments::harness::run_grid(cells.clone(), run_cell);
    let seq: Vec<Vec<u64>> = cells.into_iter().map(run_cell).collect();
    assert_eq!(grid, seq);
}
