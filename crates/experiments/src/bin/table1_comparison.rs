//! Table I — qualitative comparison of FL mechanism families, backed by
//! measured proxies from the simulator:
//!
//! * *Communication consumption* — per-round upload air-time of an average
//!   round (seconds of channel use).
//! * *Handling edge heterogeneity* — fraction of the average round spent by
//!   the median worker idle-waiting for stragglers (lower is better).
//! * *Handling Non-IID* — average inter-group EMD of the units that
//!   participate in one global update (lower is better).
//! * *Scalability* — ratio of the average round time at N = 60 vs N = 20
//!   (greater than 1 means rounds get slower as the system grows).

use airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use airfedga::system::FlSystemConfig;
use experiments::harness::{execute, MechanismChoice, NoCache, Plan, RunPolicy, SeedPlan};
use experiments::report::Table;
use experiments::scale::Scale;
use fedml::rng::Rng64;
use grouping::emd::average_group_emd;
use grouping::tifl::{default_tier_count, tifl_grouping};
use grouping::worker_info::Grouping;

fn main() {
    let scale = Scale::from_env();
    let (n_small, n_large, rounds) = match scale {
        Scale::Full => (20, 60, 120),
        Scale::Quick => (10, 20, 30),
    };
    let mechanisms = MechanismChoice::all();

    // Round-time measurements at two population sizes for the scalability
    // column.
    let mut avg_round = vec![vec![0.0f64; 2]; mechanisms.len()];
    for (col, &n) in [n_small, n_large].iter().enumerate() {
        let mut cfg = scale.apply(FlSystemConfig::mnist_cnn());
        cfg.num_workers = n;
        // Constant per-worker shard size across the two population sizes, so
        // the scalability column measures the mechanisms, not shard shrinkage.
        cfg.dataset.samples_per_class = 30 * n / cfg.dataset.num_classes.max(1);
        let plan = Plan::comparison(
            cfg,
            &mechanisms,
            SeedPlan::fixed_system(42, vec![4242]),
            rounds,
            scale.eval_every(),
            None,
        );
        let outcome = execute(&plan, &RunPolicy::default(), &NoCache);
        assert!(outcome.is_complete(), "{}", outcome.failure_report());
        for (row, cell) in outcome.cells.iter().enumerate() {
            avg_round[row][col] = cell.as_ref().expect("complete").first().average_round_time;
        }
    }

    // EMD of the participating unit per mechanism family, measured on the
    // larger system.
    let mut cfg = scale.apply(FlSystemConfig::mnist_cnn());
    cfg.num_workers = n_large;
    let system = cfg.build(&mut Rng64::seed_from(42));
    let workers = &system.worker_infos;
    let emd_all_workers = average_group_emd(&Grouping::single_group(n_large), workers); // = 0
    let emd_single_worker = average_group_emd(&Grouping::singletons(n_large), workers);
    let emd_tifl = average_group_emd(
        &tifl_grouping(workers, default_tier_count(n_large)),
        workers,
    );
    let airfedga_grouping = AirFedGa::new(AirFedGaConfig::default()).grouping_for(&system);
    let emd_airfedga = average_group_emd(&airfedga_grouping, workers);

    // Upload air-time per round (communication consumption proxy).
    let dim = system.model_dim();
    let w = &system.config.wireless;
    let oma_full = w.oma_round_upload_time(wireless::timing::OmaScheme::Tdma, dim, n_large);
    let oma_tier = w.oma_round_upload_time(
        wireless::timing::OmaScheme::Tdma,
        dim,
        n_large / default_tier_count(n_large).max(1),
    );
    let aircomp = w.aircomp_aggregation_time(dim);

    // Straggler idle time: median worker latency vs group max latency.
    let mut latencies: Vec<f64> = (0..n_large)
        .map(|i| system.local_training_time(i))
        .collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let median = latencies[n_large / 2];
    let max = latencies[n_large - 1];
    let idle_sync = 1.0 - median / max;
    let idle_airfedga = {
        // Median worker's idle fraction inside its Air-FedGA group.
        let mut fractions: Vec<f64> = (0..airfedga_grouping.num_groups())
            .flat_map(|j| {
                let gmax = airfedga_grouping.group_max_latency(j, workers);
                airfedga_grouping
                    .group(j)
                    .iter()
                    .map(|&wk| 1.0 - workers[wk].local_training_time / gmax)
                    .collect::<Vec<_>>()
            })
            .collect();
        fractions.sort_by(|a, b| a.total_cmp(b));
        fractions[fractions.len() / 2]
    };

    let mut table = Table::new(
        "Table I: mechanism-family comparison (measured proxies)",
        &[
            "FL mechanism",
            "upload air-time/round (s)",
            "median idle fraction",
            "participating-unit EMD",
            "round-time ratio N=60/N=20",
        ],
    );
    let families: Vec<(&str, f64, f64, f64, usize)> = vec![
        (
            "Synchronous (FedAvg)",
            oma_full,
            idle_sync,
            emd_all_workers,
            0,
        ),
        (
            "Asynchronous tiers (TiFL)",
            oma_tier,
            idle_airfedga,
            emd_tifl,
            1,
        ),
        (
            "AirComp+Sync subset (Dynamic)",
            aircomp,
            idle_sync,
            emd_single_worker,
            2,
        ),
        (
            "AirComp+Synchronous (Air-FedAvg)",
            aircomp,
            idle_sync,
            emd_all_workers,
            3,
        ),
        (
            "AirComp+Asynchronous (Air-FedGA)",
            aircomp,
            idle_airfedga,
            emd_airfedga,
            4,
        ),
    ];
    for (name, air_time, idle, emd, row) in families {
        let ratio = avg_round[row][1] / avg_round[row][0];
        table.add_row(vec![
            name.to_string(),
            format!("{air_time:.2}"),
            format!("{idle:.2}"),
            format!("{emd:.2}"),
            format!("{ratio:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading guide: low air-time = low communication consumption; low idle fraction = \
         handles heterogeneity; low EMD = handles Non-IID; ratio <= 1 = scalable."
    );
}
