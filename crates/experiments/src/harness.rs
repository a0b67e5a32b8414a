//! Running mechanisms on simulated systems and summarising the runs.
//!
//! Every experiment — a Figs. 3–6 comparison, the Fig. 8 ξ-sweep, the
//! Fig. 10 worker sweep, a generic scenario grid — lowers to one [`Plan`]:
//! the distinct system configurations, a list of cells (a mechanism, with
//! an optional ξ, on one of those systems) and a [`SeedPlan`]. [`execute`]
//! runs the flat `(cell × seed)` product of a plan and folds each cell's
//! replicates into [`CellStats`]; callers differ only in how they build the
//! plan and how they render the result. [`run_grid`] is the pool fan-out
//! primitive underneath: it spreads independent cells across the persistent
//! worker pool while each cell's training rounds keep using the pool's
//! inner per-member fan-out (nested fork/join is deadlock-free; see the
//! `parallel` crate docs).
//!
//! ## What `execute` guarantees
//!
//! * **Systems.** A fixed-system plan builds each distinct system once, from
//!   the plan's system seed, and shares it across cells and replicates;
//!   under `--system-seeds` every replicate builds its own system from
//!   `system_seed + r`.
//! * **Isolation.** Every replicate runs under `catch_unwind` (and the
//!   [`RunPolicy`] watchdog, if any); failures are retried sequentially and
//!   come back as labelled [`CellFailure`]s instead of aborting the run.
//! * **Durability.** A [`ReplicateCache`] is consulted before anything runs,
//!   and fresh replicates are persisted as soon as they complete.
//!
//! **Seed-stream contract** (see [`crate::stats::replication_seeds`]):
//! replicate `r` of a cell runs with seed `seeds[r]`, and the scenario
//! files use `base + r` with the historical single-seed value as `base` —
//! so `--seeds 1` is the historical run itself (byte-identical output), and
//! raising `N` appends replicates without renumbering existing ones. Every
//! replicate seeds its RNGs from its own `(system seed, run seed)` pair and
//! does no I/O, so a plan's results are bit-identical to the sequential
//! double loop at any `PARALLEL_THREADS` / `PARALLEL_CHUNKS` setting.

use crate::stats::CellStats;
use airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use airfedga::system::{FlMechanism, FlSystem, FlSystemConfig};
use baselines::{AirFedAvg, BaselineOptions, Dynamic, DynamicConfig, FedAvg, TiFl};
use fedml::rng::Rng64;
use parallel::prelude::*;
use simcore::trace::TrainingTrace;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which mechanism to include in a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismChoice {
    /// The paper's contribution.
    AirFedGa,
    /// AirComp synchronous baseline.
    AirFedAvg,
    /// AirComp synchronous with per-round worker scheduling.
    Dynamic,
    /// OMA synchronous baseline.
    FedAvg,
    /// OMA tier-asynchronous baseline.
    TiFl,
}

impl MechanismChoice {
    /// All five mechanisms, in the order the paper lists them.
    pub fn all() -> Vec<MechanismChoice> {
        vec![
            MechanismChoice::FedAvg,
            MechanismChoice::TiFl,
            MechanismChoice::Dynamic,
            MechanismChoice::AirFedAvg,
            MechanismChoice::AirFedGa,
        ]
    }

    /// The three AirComp-based mechanisms compared in Figs. 3–6 and Fig. 9.
    pub fn aircomp_trio() -> Vec<MechanismChoice> {
        vec![
            MechanismChoice::Dynamic,
            MechanismChoice::AirFedAvg,
            MechanismChoice::AirFedGa,
        ]
    }

    /// Display name (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            MechanismChoice::AirFedGa => "Air-FedGA",
            MechanismChoice::AirFedAvg => "Air-FedAvg",
            MechanismChoice::Dynamic => "Dynamic",
            MechanismChoice::FedAvg => "FedAvg",
            MechanismChoice::TiFl => "TiFL",
        }
    }

    /// Instantiate the mechanism with a given round budget.
    pub fn build(
        self,
        total_rounds: usize,
        eval_every: usize,
        max_virtual_time: Option<f64>,
    ) -> Box<dyn FlMechanism> {
        let opts = BaselineOptions {
            total_rounds,
            eval_every,
            max_virtual_time,
            parallel: true,
        };
        match self {
            MechanismChoice::AirFedGa => Box::new(AirFedGa::new(AirFedGaConfig {
                total_rounds,
                eval_every,
                max_virtual_time,
                ..AirFedGaConfig::default()
            })),
            MechanismChoice::AirFedAvg => Box::new(AirFedAvg::new(opts)),
            MechanismChoice::Dynamic => Box::new(Dynamic::new(DynamicConfig {
                options: opts,
                ..DynamicConfig::default()
            })),
            MechanismChoice::FedAvg => Box::new(FedAvg::new(opts)),
            MechanismChoice::TiFl => Box::new(TiFl::new(opts)),
        }
    }
}

/// Summary of one mechanism's run, as reported in the paper's text.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Mechanism label.
    pub mechanism: String,
    /// Full trace (for CSV output / plotting).
    pub trace: TrainingTrace,
    /// Final accuracy at the end of the run.
    pub final_accuracy: f64,
    /// Final loss at the end of the run.
    pub final_loss: f64,
    /// Average single-round duration (seconds).
    pub average_round_time: f64,
    /// Total virtual training time (seconds).
    pub total_time: f64,
    /// Total aggregation energy (Joules).
    pub total_energy: f64,
    /// Fraction of scheduled member slots that participated (1.0 for
    /// fault-free runs).
    pub participation_rate: f64,
    /// Rounds that produced a global update under fault injection (equals
    /// the attempted rounds for fault-free runs).
    pub rounds_survived: usize,
}

impl RunSummary {
    /// Build the summary from a trace.
    pub fn from_trace(trace: TrainingTrace) -> Self {
        let rounds_survived = if trace.faults.is_empty() {
            trace.total_rounds()
        } else {
            trace.faults.rounds_survived()
        };
        Self {
            mechanism: trace.mechanism.clone(),
            final_accuracy: trace.final_accuracy(),
            final_loss: trace.final_loss(),
            average_round_time: trace.average_round_time(),
            total_time: trace.total_time(),
            total_energy: trace.total_energy(),
            participation_rate: trace.faults.participation_rate(),
            rounds_survived,
            trace,
        }
    }

    /// Virtual time at which the run first stably reaches `target` accuracy.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.trace.time_to_accuracy(target)
    }

    /// Aggregation energy spent when the run first stably reaches `target`.
    pub fn energy_to_accuracy(&self, target: f64) -> Option<f64> {
        self.trace.energy_to_accuracy(target)
    }
}

/// Fan the independent cells of an experiment grid across the persistent
/// worker pool, returning the per-cell results **in input order**.
///
/// A *cell* is one self-contained unit of work — a `(cell × seed)`
/// replicate of [`execute`], the grouping of one ξ value. Cells run
/// concurrently (each may itself use inner per-member round parallelism:
/// the pool supports nested fan-out), so `run_cell` must uphold the
/// determinism contract that makes the grid's output byte-identical to a
/// sequential `cells.into_iter().map(run_cell)`:
///
/// * **Cell-local RNG**: every stochastic draw inside a cell must come from
///   generators seeded from the cell's own data (e.g.
///   `Rng64::seed_from(cell.seed)`), never from state shared across cells.
/// * **No cell-order side effects**: cells must not print or write files —
///   render tables/CSVs from the returned vector afterwards, in input order.
///
/// Under `PARALLEL_THREADS=1` the cells run in-line in input order, which the
/// CI determinism job uses to cross-check the parallel schedule.
///
/// Grid cells are exactly the workload over-decomposition exists for —
/// heterogeneous mechanisms and seeds finishing at very different times — so
/// the fan-out passes [`ChunkHint::Fine`] to the pool (scheduling-only: any
/// hint, and any explicit `PARALLEL_CHUNKS` pin, is bit-identical).
pub fn run_grid<T, R, F>(cells: Vec<T>, run_cell: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let indexed: Vec<(usize, T)> = cells.into_iter().enumerate().collect();
    indexed
        .into_par_iter()
        .map(|(index, cell)| {
            // Re-panic with the cell index attached: a bare worker panic
            // ("index out of bounds…") is useless in a 100-cell grid.
            match catch_unwind(AssertUnwindSafe(|| run_cell(cell))) {
                Ok(result) => result,
                Err(payload) => {
                    panic!("grid cell {index} panicked: {}", panic_message(&*payload))
                }
            }
        })
        .with_chunk_hint(ChunkHint::Fine)
        .collect()
}

/// Best-effort extraction of a panic payload's message (`&str` / `String`
/// payloads — everything `panic!` and `assert!` produce).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One first-attempt failure of a replicate run by [`execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Index of the failed replicate in the flat (cell × seed) grid.
    pub index: usize,
    /// `"<cell label> seed <seed>"`.
    pub label: String,
    /// Panic message of the last failing attempt.
    pub message: String,
    /// True when the sequential retry succeeded (the grid result is intact;
    /// the failure is still reported so flaky cells don't go unnoticed).
    pub recovered: bool,
    /// Total attempts made (first attempt + retries), at least 1.
    pub attempts: usize,
}

impl CellFailure {
    /// One report line for this failure. The historical single-retry wording
    /// is preserved verbatim for the default [`RunPolicy`] (two attempts).
    pub fn describe(&self) -> String {
        if self.recovered {
            if self.attempts <= 2 {
                format!(
                    "cell {} [{}]: recovered on retry; first panic: {}",
                    self.index, self.label, self.message
                )
            } else {
                format!(
                    "cell {} [{}]: recovered on retry {}; first panic: {}",
                    self.index,
                    self.label,
                    self.attempts - 1,
                    self.message
                )
            }
        } else {
            match self.attempts {
                0 | 1 => format!(
                    "cell {} [{}]: FAILED (no retry): {}",
                    self.index, self.label, self.message
                ),
                2 => format!(
                    "cell {} [{}]: FAILED after one retry: {}",
                    self.index, self.label, self.message
                ),
                n => format!(
                    "cell {} [{}]: FAILED after {} retries: {}",
                    self.index,
                    self.label,
                    n - 1,
                    self.message
                ),
            }
        }
    }
}

/// Per-replicate execution limits for [`execute`]: how many bounded
/// retries a failed attempt gets, how long to back off between them, and an
/// optional wall-clock watchdog per attempt. The default reproduces the
/// historical behaviour exactly: one retry, no backoff, no timeout.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPolicy {
    /// Sequential retries after a failed first attempt (0 = fail fast).
    pub max_retries: usize,
    /// Base backoff in wall-clock seconds: retry `k` sleeps `k * backoff`
    /// first (deterministic linear backoff; sleeping never touches the
    /// simulation, so results are unaffected).
    pub retry_backoff: f64,
    /// Wall-clock seconds each attempt may run before the watchdog cancels
    /// it at the next round boundary (`None` = no watchdog).
    pub cell_timeout: Option<f64>,
}

impl Default for RunPolicy {
    fn default() -> Self {
        Self {
            max_retries: 1,
            retry_backoff: 0.0,
            cell_timeout: None,
        }
    }
}

impl RunPolicy {
    fn backoff_sleep(&self, completed_attempts: usize) {
        if self.retry_backoff > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(
                self.retry_backoff * completed_attempts as f64,
            ));
        }
    }
}

thread_local! {
    /// True while this thread is inside an isolated cell attempt whose panic
    /// will be caught, labelled and re-reported deterministically.
    static ISOLATED_ATTEMPT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

/// Install (once) a panic hook that stays silent for panics raised inside an
/// isolated cell attempt. Without this, worker threads print the default
/// "thread panicked" dump at panic time — interleaving with other cells'
/// output in schedule order — even though the panic is caught and re-emitted
/// in the sorted failure report. Panics outside isolated attempts (real bugs,
/// test failures) still reach the previous hook untouched.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !ISOLATED_ATTEMPT.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Re-arms the previous quiet-flag state on drop (attempts can nest through
/// the pool's help-first caller participation).
struct IsolatedFlagGuard {
    prev: bool,
}

impl IsolatedFlagGuard {
    fn set() -> Self {
        Self {
            prev: ISOLATED_ATTEMPT.with(|f| f.replace(true)),
        }
    }
}

impl Drop for IsolatedFlagGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        ISOLATED_ATTEMPT.with(|f| f.set(prev));
    }
}

/// One isolated attempt at a cell, under the policy's watchdog if any.
fn attempt_cell<R>(policy: &RunPolicy, f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    let _quiet = IsolatedFlagGuard::set();
    let _watch = policy.cell_timeout.map(crate::watchdog::watch);
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(&*payload))
}

/// A persistent store of completed replicates consulted by [`execute`]. Keys are the (cell index, cell label,
/// run seed, system seed) coordinates of one replicate *within a fixed
/// already-hashed experiment* — the store implementation (see the
/// `runstore` crate) scopes them under a content hash of the full spec.
/// Implementations must be `Sync`: fresh results are stored from the
/// parallel pass as soon as they complete.
pub trait ReplicateCache: Sync {
    /// A previously completed replicate, if the store has one.
    fn load(
        &self,
        cell_index: usize,
        cell_label: &str,
        run_seed: u64,
        system_seed: u64,
    ) -> Option<RunSummary>;

    /// Persist a freshly completed replicate. Must be atomic (a torn write
    /// must never be loadable) and infallible from the caller's view —
    /// storage errors should degrade to "not cached", not kill the grid.
    fn store(
        &self,
        cell_index: usize,
        cell_label: &str,
        run_seed: u64,
        system_seed: u64,
        summary: &RunSummary,
    );
}

/// The no-op cache: every replicate is a miss, nothing is persisted. The
/// zero-store default — runs with `NoCache` perform no disk I/O.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl ReplicateCache for NoCache {
    fn load(&self, _: usize, _: &str, _: u64, _: u64) -> Option<RunSummary> {
        None
    }
    fn store(&self, _: usize, _: &str, _: u64, _: u64, _: &RunSummary) {}
}

/// Result of [`execute`]: per-cell folded statistics (`None` when **every**
/// replicate of the cell was lost) plus the failures, labelled
/// `"<cell label> seed <seed>"`.
#[derive(Debug)]
pub struct ReplicatedOutcome {
    /// Per-cell statistics folded over the *surviving* replicates, in plan
    /// order. A cell whose replicates all failed is `None`.
    pub cells: Vec<Option<CellStats>>,
    /// First-attempt failures across the flat (cell × seed) grid, in flat
    /// (cell index, seed) order.
    pub failures: Vec<CellFailure>,
}

impl ReplicatedOutcome {
    /// True when every cell kept all of its replicates.
    pub fn is_complete(&self) -> bool {
        self.failures.iter().all(|f| f.recovered)
    }

    /// Multi-line failure report; see [`failure_report`].
    pub fn failure_report(&self) -> String {
        failure_report(&self.failures)
    }
}

/// Multi-line report of replicate failures (empty string when nothing
/// failed). [`execute`] records failures in flat (cell index, seed) order,
/// so reruns diff cleanly whatever order the parallel pass finished in.
pub fn failure_report(failures: &[CellFailure]) -> String {
    if failures.is_empty() {
        return String::new();
    }
    let mut out = format!("{} replicate(s) panicked:\n", failures.len());
    for f in failures {
        out.push_str("  - ");
        out.push_str(&f.describe());
        out.push('\n');
    }
    out
}

/// How one replicated comparison derives its RNG streams: the system seed,
/// the per-replicate run seeds, and whether the sampled system itself is
/// re-drawn per replicate.
///
/// **Contract**: replicate `r` runs with run seed `run_seeds[r]`; its system
/// is built from `system_seed` when `vary_system` is false (the historical
/// one-system-per-figure behaviour) and from `system_seed + r` when true
/// (folding system-sampling noise into the error bars as well). Replicate 0
/// therefore always reproduces the historical run bit for bit, with or
/// without `vary_system`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedPlan {
    /// Seed the system (shards, profiles, channel draws, initial model) is
    /// built from (replicate `r` adds `r` when [`Self::vary_system`]).
    pub system_seed: u64,
    /// Per-replicate run seeds, in replication order.
    pub run_seeds: Vec<u64>,
    /// Re-sample the system per replicate (`--system-seeds`).
    pub vary_system: bool,
}

impl SeedPlan {
    /// A plan with the given seeds and the historical fixed-system behaviour.
    pub fn fixed_system(system_seed: u64, run_seeds: Vec<u64>) -> Self {
        Self {
            system_seed,
            run_seeds,
            vary_system: false,
        }
    }

    /// Number of replicates.
    pub fn num_seeds(&self) -> usize {
        self.run_seeds.len()
    }

    /// The replicate index of a run seed from this plan's stream.
    pub fn replicate_of(&self, run_seed: u64) -> usize {
        self.run_seeds
            .iter()
            .position(|&s| s == run_seed)
            .expect("run seed is not part of this SeedPlan")
    }

    /// The system seed replicate `run_seed` builds its system from.
    pub fn system_seed_for(&self, run_seed: u64) -> u64 {
        if self.vary_system {
            self.system_seed + self.replicate_of(run_seed) as u64
        } else {
            self.system_seed
        }
    }
}

/// One cell of a [`Plan`]: a mechanism, with an optional ξ override, run on
/// one of the plan's systems.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCell {
    /// Names the cell in failure reports and keys it in the run store.
    pub label: String,
    /// Index into [`Plan::systems`].
    pub system: usize,
    /// The mechanism this cell runs.
    pub mechanism: MechanismChoice,
    /// Air-FedGA's ξ (ignored by mechanisms without one; `None` keeps the
    /// default).
    pub xi: Option<f64>,
}

/// A whole experiment as [`execute`] runs it: the flat `(cell × seed)`
/// product of `cells` and `seeds.run_seeds`, every cell running its
/// mechanism on `systems[cell.system]` with the shared run shape.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The distinct system configurations the cells run on.
    pub systems: Vec<FlSystemConfig>,
    /// The cells, in report order.
    pub cells: Vec<PlanCell>,
    /// Run seeds, system seed and whether systems are re-sampled per
    /// replicate.
    pub seeds: SeedPlan,
    /// Round budget of every run.
    pub total_rounds: usize,
    /// Evaluation cadence of every run.
    pub eval_every: usize,
    /// Optional virtual-time budget of every run (seconds).
    pub max_virtual_time: Option<f64>,
}

impl Plan {
    /// The comparison shape: one cell per mechanism, labelled by the
    /// mechanism, all on the one system `config`.
    pub fn comparison(
        config: FlSystemConfig,
        mechanisms: &[MechanismChoice],
        seeds: SeedPlan,
        total_rounds: usize,
        eval_every: usize,
        max_virtual_time: Option<f64>,
    ) -> Self {
        Self {
            systems: vec![config],
            cells: mechanisms
                .iter()
                .map(|&mechanism| PlanCell {
                    label: mechanism.label().to_string(),
                    system: 0,
                    mechanism,
                    xi: None,
                })
                .collect(),
            seeds,
            total_rounds,
            eval_every,
            max_virtual_time,
        }
    }

    /// Instantiate `cell`'s mechanism with this plan's run shape, applying
    /// the cell's ξ to Air-FedGA (the other mechanisms have none).
    pub fn mechanism(&self, cell: &PlanCell) -> Box<dyn FlMechanism> {
        match (cell.mechanism, cell.xi) {
            (MechanismChoice::AirFedGa, Some(xi)) => Box::new(AirFedGa::new(AirFedGaConfig {
                xi,
                total_rounds: self.total_rounds,
                eval_every: self.eval_every,
                max_virtual_time: self.max_virtual_time,
                ..AirFedGaConfig::default()
            })),
            (choice, _) => choice.build(self.total_rounds, self.eval_every, self.max_virtual_time),
        }
    }
}

/// Run every `(cell × seed)` replicate of `plan` and fold each cell's
/// survivors into [`CellStats`].
///
/// Replicates found in `cache` are loaded, not run. The rest run in
/// parallel under `policy`: each attempt is panic-isolated (and watched, if
/// the policy sets a timeout), failed replicates are retried sequentially
/// in flat order, and every fresh success is stored in `cache` as soon as
/// it completes. Because every replicate is bit-identical wherever and
/// whenever it runs, a resumed plan folds to the same statistics — and so
/// the same rendered bytes — as an uninterrupted one.
pub fn execute(plan: &Plan, policy: &RunPolicy, cache: &dyn ReplicateCache) -> ReplicatedOutcome {
    execute_with(plan, policy, cache, |cell, system, seed| {
        let trace = plan
            .mechanism(cell)
            .run(system, &mut Rng64::seed_from(seed));
        RunSummary::from_trace(trace)
    })
}

/// [`execute`] with the replicate body supplied by the caller: `run(cell,
/// system, seed)` replaces building and running the cell's mechanism. The
/// seam tests use to inject panics, hangs and flaky attempts; everything
/// else — caching, system builds, isolation, retries, the fold — is the
/// same code [`execute`] runs.
pub fn execute_with<F>(
    plan: &Plan,
    policy: &RunPolicy,
    cache: &dyn ReplicateCache,
    run: F,
) -> ReplicatedOutcome
where
    F: Fn(&PlanCell, &FlSystem, u64) -> RunSummary + Sync,
{
    let seeds = &plan.seeds.run_seeds;
    assert!(!seeds.is_empty(), "replication needs at least one seed");
    let pairs: Vec<(usize, u64)> = (0..plan.cells.len())
        .flat_map(|ci| seeds.iter().map(move |&s| (ci, s)))
        .collect();
    let system_seed = |seed: u64| plan.seeds.system_seed_for(seed);

    // Cache pass: load completed replicates, queue the rest.
    let progress = telemetry::progress::Reporter::new("cells", pairs.len());
    let mut results: Vec<Option<RunSummary>> = Vec::with_capacity(pairs.len());
    let mut todo: Vec<usize> = Vec::new();
    for (flat, &(ci, seed)) in pairs.iter().enumerate() {
        let loaded = cache.load(ci, &plan.cells[ci].label, seed, system_seed(seed));
        if loaded.is_some() {
            progress.cached();
        } else {
            todo.push(flat);
        }
        results.push(loaded);
    }

    // A fixed-system plan builds each distinct system a pending replicate
    // needs, once, and shares it; under `--system-seeds` every replicate
    // builds its own from `system_seed + r`.
    let shared: Vec<Option<FlSystem>> = if plan.seeds.vary_system {
        Vec::new()
    } else {
        (0..plan.systems.len())
            .map(|si| {
                let needed = todo.iter().any(|&f| plan.cells[pairs[f].0].system == si);
                needed
                    .then(|| plan.systems[si].build(&mut Rng64::seed_from(plan.seeds.system_seed)))
            })
            .collect()
    };
    let run_one = |ci: usize, seed: u64| {
        let cell = &plan.cells[ci];
        if plan.seeds.vary_system {
            let system = plan.systems[cell.system].build(&mut Rng64::seed_from(system_seed(seed)));
            run(cell, &system, seed)
        } else {
            run(
                cell,
                shared[cell.system].as_ref().expect("built above"),
                seed,
            )
        }
    };
    let attempt = |ci: usize, seed: u64, retry: u32| {
        let _scope = telemetry::spans::scope(ci as i64, seed as i64, retry);
        let _span = telemetry::span!("replicate", seed);
        let outcome = attempt_cell(policy, || run_one(ci, seed));
        if let Ok(summary) = &outcome {
            cache.store(ci, &plan.cells[ci].label, seed, system_seed(seed), summary);
        }
        outcome
    };

    // Parallel pass over the misses only; fresh successes are persisted
    // immediately (the store's writes are atomic per file), so an
    // interrupted run loses at most the replicates still in flight.
    let first_pass: Vec<Result<RunSummary, String>> = run_grid(todo.clone(), |flat| {
        let (ci, seed) = pairs[flat];
        let outcome = attempt(ci, seed, 0);
        if outcome.is_ok() {
            progress.done(true);
        }
        outcome
    });

    // Bounded sequential retries, flat order.
    let mut failures: Vec<CellFailure> = Vec::new();
    for (flat, outcome) in todo.into_iter().zip(first_pass) {
        let (ci, seed) = pairs[flat];
        let first_message = match outcome {
            Ok(summary) => {
                results[flat] = Some(summary);
                continue;
            }
            Err(message) => message,
        };
        let mut attempts = 1usize;
        let mut last_message = first_message.clone();
        while results[flat].is_none() && attempts <= policy.max_retries {
            policy.backoff_sleep(attempts);
            telemetry::metrics::HARNESS_RETRIES.add(1);
            progress.retried();
            attempts += 1;
            match attempt(ci, seed, (attempts - 1) as u32) {
                Ok(summary) => results[flat] = Some(summary),
                Err(message) => last_message = message,
            }
        }
        let recovered = results[flat].is_some();
        progress.done(recovered);
        failures.push(CellFailure {
            index: flat,
            label: format!("{} seed {}", plan.cells[ci].label, seed),
            // Recovered replicates report what first went wrong; lost ones
            // report the final attempt's panic.
            message: if recovered {
                first_message
            } else {
                last_message
            },
            recovered,
            attempts,
        });
    }
    progress.finish();

    // Fold per cell over the surviving replicates.
    let mut flat_iter = results.into_iter();
    let cells = plan
        .cells
        .iter()
        .map(|_| {
            let mut kept_seeds = Vec::new();
            let mut per_seed = Vec::new();
            for &seed in seeds {
                if let Some(summary) = flat_iter.next().expect("flat grid is cells × seeds") {
                    kept_seeds.push(seed);
                    per_seed.push(summary);
                }
            }
            (!per_seed.is_empty()).then(|| CellStats::from_summaries(kept_seeds, per_seed))
        })
        .collect();
    ReplicatedOutcome { cells, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The quick LR workload compared under `mechanisms`, system seed 5.
    fn quick_plan(mechanisms: &[MechanismChoice], run_seeds: Vec<u64>, rounds: usize) -> Plan {
        Plan::comparison(
            FlSystemConfig::mnist_lr_quick(),
            mechanisms,
            SeedPlan::fixed_system(5, run_seeds),
            rounds,
            1,
            None,
        )
    }

    /// `execute` with the default policy and no cache.
    fn run_plain(plan: &Plan) -> ReplicatedOutcome {
        execute(plan, &RunPolicy::default(), &NoCache)
    }

    /// The canonical (first-seed) summary of every cell.
    fn firsts(outcome: &ReplicatedOutcome) -> Vec<&RunSummary> {
        outcome
            .cells
            .iter()
            .map(|c| c.as_ref().expect("cell survived").first())
            .collect()
    }

    /// One replicate run by hand, outside the executor.
    fn run_by_hand(
        system: &FlSystem,
        choice: MechanismChoice,
        rounds: usize,
        seed: u64,
    ) -> RunSummary {
        let mech = choice.build(rounds, 1, None);
        RunSummary::from_trace(mech.run(system, &mut Rng64::seed_from(seed)))
    }

    fn assert_same_trace(a: &RunSummary, b: &RunSummary) {
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.points().iter().zip(b.trace.points()) {
            assert_eq!(x.loss.to_bits(), y.loss.to_bits());
            assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
            assert_eq!(x.time.to_bits(), y.time.to_bits());
            assert_eq!(x.energy.to_bits(), y.energy.to_bits());
        }
    }

    /// A plan whose system 1 panics at round 1 (the faults crate's injected
    /// panic), with `cells` as `(system, mechanism)` pairs.
    fn plan_with_panicking_system(cells: &[(usize, MechanismChoice)], run_seeds: Vec<u64>) -> Plan {
        let mut panicking = FlSystemConfig::mnist_lr_quick();
        panicking.faults.inject_panic_round = Some(1);
        Plan {
            systems: vec![FlSystemConfig::mnist_lr_quick(), panicking],
            cells: cells
                .iter()
                .enumerate()
                .map(|(i, &(system, mechanism))| PlanCell {
                    label: format!("cell-{i}"),
                    system,
                    mechanism,
                    xi: None,
                })
                .collect(),
            seeds: SeedPlan::fixed_system(5, run_seeds),
            total_rounds: 3,
            eval_every: 1,
            max_virtual_time: None,
        }
    }

    #[test]
    fn mechanism_choice_builds_every_variant() {
        for choice in MechanismChoice::all() {
            let mech = choice.build(5, 1, None);
            assert_eq!(mech.name(), choice.label());
        }
        assert_eq!(MechanismChoice::aircomp_trio().len(), 3);
    }

    #[test]
    fn compare_runs_all_requested_mechanisms_on_one_system() {
        let plan = Plan::comparison(
            FlSystemConfig::mnist_lr_quick(),
            &[MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
            SeedPlan::fixed_system(11, vec![12]),
            15,
            5,
            None,
        );
        let outcome = run_plain(&plan);
        let summaries = firsts(&outcome);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].mechanism, "Air-FedAvg");
        assert_eq!(summaries[1].mechanism, "Air-FedGA");
        for s in &summaries {
            assert!(s.final_loss.is_finite());
            assert!(s.total_time > 0.0);
            assert!(!s.trace.is_empty());
        }
    }

    #[test]
    fn run_grid_is_bit_identical_to_a_sequential_loop() {
        let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(5));
        let run_cell = |seed: u64| -> Vec<(u64, u64, u64)> {
            let mech = MechanismChoice::AirFedGa.build(6, 2, None);
            mech.run(&system, &mut Rng64::seed_from(seed))
                .points()
                .iter()
                .map(|p| (p.loss.to_bits(), p.accuracy.to_bits(), p.time.to_bits()))
                .collect()
        };
        let cells: Vec<u64> = (0..8).collect();
        let grid = run_grid(cells.clone(), run_cell);
        let seq: Vec<_> = cells.into_iter().map(run_cell).collect();
        assert_eq!(grid, seq);
    }

    #[test]
    fn nested_grids_compose() {
        // Outer grid over system seeds, inner `execute` over mechanisms —
        // an executor nested inside a pool fan-out.
        let run_cell = |system_seed: u64| -> Vec<u64> {
            let mut plan = quick_plan(
                &[MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
                vec![9],
                5,
            );
            plan.seeds.system_seed = system_seed;
            firsts(&run_plain(&plan))
                .into_iter()
                .map(|s| s.final_loss.to_bits())
                .collect()
        };
        let grid = run_grid(vec![1, 2, 3], run_cell);
        let seq: Vec<_> = vec![1, 2, 3].into_iter().map(run_cell).collect();
        assert_eq!(grid, seq);
    }

    #[test]
    fn run_replicated_single_seed_is_the_plain_run() {
        let mechanisms = [MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa];
        let outcome = run_plain(&quick_plan(&mechanisms, vec![4242], 8));
        let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(5));
        for (cell, &choice) in outcome.cells.iter().zip(&mechanisms) {
            let cell = cell.as_ref().unwrap();
            let plain = run_by_hand(&system, choice, 8, 4242);
            assert_eq!(cell.mechanism, plain.mechanism);
            assert_eq!(cell.seeds, vec![4242]);
            assert_eq!(cell.per_seed.len(), 1);
            // The single replicate IS the plain run, bit for bit…
            assert_same_trace(cell.first(), &plain);
            // …and the folded statistics degenerate to it (std 0, mean = x).
            for (ps, tp) in cell.points.iter().zip(plain.trace.points()) {
                assert_eq!(ps.loss.mean.to_bits(), tp.loss.to_bits());
                assert_eq!(ps.loss.std, 0.0);
                assert_eq!(ps.loss.n, 1);
                assert_eq!(ps.round, tp.round);
            }
        }
    }

    #[test]
    fn run_replicated_matches_the_sequential_double_loop() {
        let seeds = [4242u64, 4243, 4244];
        let mechanisms = [MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa];
        let outcome = run_plain(&quick_plan(&mechanisms, seeds.to_vec(), 6));
        let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(5));
        assert_eq!(outcome.cells.len(), 2);
        for (ci, cell) in outcome.cells.iter().enumerate() {
            let cell = cell.as_ref().unwrap();
            assert_eq!(cell.seeds, seeds);
            assert_eq!(cell.per_seed.len(), 3);
            for (ri, &s) in seeds.iter().enumerate() {
                assert_same_trace(
                    &cell.per_seed[ri],
                    &run_by_hand(&system, mechanisms[ci], 6, s),
                );
            }
            // Folded stats cover all three seeds at every shared point.
            assert!(cell.points.iter().all(|p| p.loss.n == 3));
            // Different seeds genuinely vary: some point has nonzero spread.
            assert!(
                cell.points.iter().any(|p| p.loss.std > 0.0),
                "replicates are identical — seed stream not reaching the run"
            );
        }
    }

    #[test]
    fn seed_plan_resolves_system_seeds() {
        let fixed = SeedPlan::fixed_system(42, vec![4242, 4243, 4244]);
        assert_eq!(fixed.num_seeds(), 3);
        assert_eq!(fixed.system_seed_for(4244), 42);
        let varying = SeedPlan {
            vary_system: true,
            ..fixed.clone()
        };
        assert_eq!(varying.system_seed_for(4242), 42);
        assert_eq!(varying.system_seed_for(4244), 44);
        assert_eq!(varying.replicate_of(4243), 1);
    }

    /// A fixed-system plan shares one system built from the plan's system
    /// seed, and cells on different system configs each get their own.
    #[test]
    fn fixed_system_plan_matches_the_historical_path() {
        let mut wide = FlSystemConfig::mnist_lr_quick();
        wide.num_workers = 12;
        let plan = Plan {
            systems: vec![FlSystemConfig::mnist_lr_quick(), wide.clone()],
            cells: vec![
                PlanCell {
                    label: "narrow".to_string(),
                    system: 0,
                    mechanism: MechanismChoice::AirFedGa,
                    xi: None,
                },
                PlanCell {
                    label: "wide".to_string(),
                    system: 1,
                    mechanism: MechanismChoice::AirFedGa,
                    xi: None,
                },
            ],
            seeds: SeedPlan::fixed_system(5, vec![4242, 4243]),
            total_rounds: 6,
            eval_every: 1,
            max_virtual_time: None,
        };
        let outcome = run_plain(&plan);
        let narrow = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(5));
        let wide = wide.build(&mut Rng64::seed_from(5));
        for (cell, system) in outcome.cells.iter().zip([&narrow, &wide]) {
            let cell = cell.as_ref().unwrap();
            for (summary, &seed) in cell.per_seed.iter().zip(&cell.seeds) {
                let direct = run_by_hand(system, MechanismChoice::AirFedGa, 6, seed);
                assert_same_trace(summary, &direct);
            }
        }
    }

    #[test]
    fn varying_system_plan_changes_later_replicates_only() {
        let fixed = run_plain(&quick_plan(
            &[MechanismChoice::AirFedGa],
            vec![4242, 4243],
            6,
        ));
        let mut plan = quick_plan(&[MechanismChoice::AirFedGa], vec![4242, 4243], 6);
        plan.seeds.vary_system = true;
        let varying = run_plain(&plan);
        let (fixed, varying) = (
            fixed.cells[0].as_ref().unwrap(),
            varying.cells[0].as_ref().unwrap(),
        );
        // Replicate 0 builds its system from the same seed either way: the
        // canonical run is untouched.
        assert_same_trace(fixed.first(), varying.first());
        // Replicate 1 sees a different system (seed 6), so its trace differs
        // from the fixed-system replicate 1 somewhere.
        let differs = fixed.per_seed[1]
            .trace
            .points()
            .iter()
            .zip(varying.per_seed[1].trace.points())
            .any(|(x, y)| x.loss.to_bits() != y.loss.to_bits());
        assert!(differs, "vary_system did not reach the system build");
        // Each varying replicate is the run on its own freshly built system.
        let system6 = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(6));
        assert_same_trace(
            &varying.per_seed[1],
            &run_by_hand(&system6, MechanismChoice::AirFedGa, 6, 4243),
        );
    }

    #[test]
    #[should_panic(expected = "grid cell 2 panicked: boom at cell 2")]
    fn grid_panics_carry_the_cell_index() {
        run_grid(vec![0usize, 1, 2, 3], |i| {
            if i == 2 {
                panic!("boom at cell {i}");
            }
            i
        });
    }

    /// A cell on a system with an injected panic loses its replicate after
    /// one retry; its neighbours keep their results.
    #[test]
    fn isolated_grid_survives_a_panicking_cell() {
        let plan = plan_with_panicking_system(
            &[
                (0, MechanismChoice::AirFedAvg),
                (1, MechanismChoice::AirFedGa),
                (0, MechanismChoice::AirFedGa),
            ],
            vec![4242],
        );
        let outcome = run_plain(&plan);
        let survived: Vec<bool> = outcome.cells.iter().map(Option::is_some).collect();
        assert_eq!(survived, vec![true, false, true]);
        assert!(!outcome.is_complete());
        assert_eq!(outcome.failures.len(), 1);
        let f = &outcome.failures[0];
        assert_eq!(f.index, 1);
        assert_eq!(f.label, "cell-1 seed 4242");
        assert_eq!(f.message, "injected fault: panic at round 1");
        assert!(!f.recovered);
        assert_eq!(f.attempts, 2);
        let report = outcome.failure_report();
        assert!(report.starts_with("1 replicate(s) panicked:"), "{report}");
        assert!(report.contains("FAILED after one retry"));
    }

    #[test]
    fn isolated_grid_retries_flaky_cells_once() {
        let attempts = AtomicUsize::new(0);
        let plan = quick_plan(
            &[MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
            vec![4242],
            3,
        );
        let outcome = execute_with(
            &plan,
            &RunPolicy::default(),
            &NoCache,
            |cell, system, seed| {
                if cell.mechanism == MechanismChoice::AirFedGa
                    && attempts.fetch_add(1, Ordering::SeqCst) == 0
                {
                    panic!("transient");
                }
                run_by_hand(system, cell.mechanism, 3, seed)
            },
        );
        assert!(outcome.cells.iter().all(Option::is_some));
        assert!(
            outcome.is_complete(),
            "retry should have recovered the cell"
        );
        assert_eq!(outcome.failures.len(), 1);
        assert!(outcome.failures[0].recovered);
        assert_eq!(outcome.failures[0].message, "transient");
        assert!(outcome.failure_report().contains("recovered on retry"));
    }

    #[test]
    fn isolated_replication_drops_dead_replicates_from_the_stats() {
        let plan = quick_plan(
            &[MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
            vec![4242, 4243],
            3,
        );
        let outcome = execute_with(
            &plan,
            &RunPolicy::default(),
            &NoCache,
            |cell, system, seed| {
                if cell.mechanism == MechanismChoice::AirFedGa && seed == 4243 {
                    panic!("injected failure");
                }
                run_by_hand(system, cell.mechanism, 3, seed)
            },
        );
        assert_eq!(outcome.cells.len(), 2);
        let healthy = outcome.cells[0].as_ref().expect("healthy cell");
        assert_eq!(healthy.seeds, vec![4242, 4243]);
        let wounded = outcome.cells[1].as_ref().expect("one replicate survives");
        assert_eq!(wounded.seeds, vec![4242]);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].label, "Air-FedGA seed 4243");
        assert!(!outcome.is_complete());
        assert!(outcome.failure_report().contains("Air-FedGA seed 4243"));
    }

    #[test]
    fn summaries_report_robustness_metrics() {
        let mut plan = Plan::comparison(
            FlSystemConfig::mnist_lr_quick(),
            &[MechanismChoice::AirFedGa],
            SeedPlan::fixed_system(3, vec![4]),
            10,
            2,
            None,
        );
        let clean = run_plain(&plan);
        let clean = firsts(&clean)[0];
        assert_eq!(clean.participation_rate, 1.0);
        assert_eq!(clean.rounds_survived, clean.trace.total_rounds());
        plan.systems[0].faults.dropout_rate = 0.003;
        plan.systems[0].faults.mean_downtime = 50.0;
        let churn = run_plain(&plan);
        let churn = firsts(&churn)[0];
        assert!(churn.participation_rate <= 1.0);
        assert!(churn.rounds_survived <= 10);
        assert!(churn.rounds_survived > 0);
    }

    #[test]
    fn summary_reflects_trace_contents() {
        let plan = Plan::comparison(
            FlSystemConfig::mnist_lr_quick(),
            &[MechanismChoice::AirFedGa],
            SeedPlan::fixed_system(3, vec![4]),
            20,
            2,
            None,
        );
        let outcome = run_plain(&plan);
        let s = firsts(&outcome)[0];
        assert_eq!(s.final_accuracy, s.trace.final_accuracy());
        assert_eq!(s.total_energy, s.trace.total_energy());
        // A target accuracy of 0 is reached immediately; 1.01 never.
        assert!(s.time_to_accuracy(0.0).is_some());
        assert!(s.time_to_accuracy(1.01).is_none());
    }

    #[test]
    fn zero_retry_policy_fails_fast() {
        let calls = AtomicUsize::new(0);
        let policy = RunPolicy {
            max_retries: 0,
            ..RunPolicy::default()
        };
        let plan = quick_plan(
            &[MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
            vec![4242],
            3,
        );
        let outcome = execute_with(&plan, &policy, &NoCache, |cell, system, seed| {
            calls.fetch_add(1, Ordering::SeqCst);
            if cell.mechanism == MechanismChoice::AirFedGa {
                panic!("always dies");
            }
            run_by_hand(system, cell.mechanism, 3, seed)
        });
        assert!(outcome.cells[0].is_some());
        assert!(outcome.cells[1].is_none());
        // One attempt per replicate, no retry for the dead one.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let f = &outcome.failures[0];
        assert_eq!(f.attempts, 1);
        assert!(!f.recovered);
        assert!(
            f.describe().contains("FAILED (no retry)"),
            "{}",
            f.describe()
        );
    }

    #[test]
    fn extra_retries_recover_a_thrice_flaky_cell() {
        let attempts = AtomicUsize::new(0);
        let policy = RunPolicy {
            max_retries: 3,
            ..RunPolicy::default()
        };
        let plan = quick_plan(&[MechanismChoice::AirFedGa], vec![4242], 3);
        let outcome = execute_with(&plan, &policy, &NoCache, |cell, system, seed| {
            if attempts.fetch_add(1, Ordering::SeqCst) < 3 {
                panic!("flaky");
            }
            run_by_hand(system, cell.mechanism, 3, seed)
        });
        assert!(outcome.cells[0].is_some());
        let f = &outcome.failures[0];
        assert!(f.recovered);
        assert_eq!(f.attempts, 4);
        assert!(
            f.describe().contains("recovered on retry 3"),
            "{}",
            f.describe()
        );
    }

    /// A cell on a system with an injected hang is cancelled by the
    /// watchdog and reported; its neighbour is untouched. The neighbour
    /// returns a precomputed run so the short timeout only races the hang.
    #[test]
    fn watchdog_timeout_surfaces_as_a_cell_failure() {
        let policy = RunPolicy {
            max_retries: 0,
            cell_timeout: Some(0.05),
            ..RunPolicy::default()
        };
        let mut plan = plan_with_panicking_system(
            &[
                (0, MechanismChoice::AirFedGa),
                (1, MechanismChoice::AirFedGa),
            ],
            vec![4242],
        );
        plan.systems[1].faults.inject_panic_round = None;
        plan.systems[1].faults.inject_hang_round = Some(1);
        let system = plan.systems[0].build(&mut Rng64::seed_from(5));
        let healthy = run_by_hand(&system, MechanismChoice::AirFedGa, 3, 4242);
        let outcome = execute_with(&plan, &policy, &NoCache, |cell, system, seed| {
            if cell.system == 1 {
                run_by_hand(system, cell.mechanism, 3, seed)
            } else {
                healthy.clone()
            }
        });
        assert!(outcome.cells[0].is_some());
        assert!(outcome.cells[1].is_none());
        assert_eq!(outcome.failures.len(), 1);
        assert!(
            outcome.failures[0].message.contains("timed out"),
            "{}",
            outcome.failures[0].message
        );
    }

    /// A scripted in-memory cache: a warm entry must be loaded instead of
    /// recomputed, a missing entry recomputed and re-stored, and the folded
    /// statistics must be bit-identical either way.
    #[test]
    fn replicate_cache_hits_skip_recomputation() {
        use std::collections::BTreeMap;
        use std::sync::Mutex;

        #[derive(Default)]
        struct MapCache {
            map: Mutex<BTreeMap<(usize, String, u64, u64), RunSummary>>,
        }
        impl ReplicateCache for MapCache {
            fn load(
                &self,
                ci: usize,
                label: &str,
                run_seed: u64,
                system_seed: u64,
            ) -> Option<RunSummary> {
                self.map
                    .lock()
                    .unwrap()
                    .get(&(ci, label.to_string(), run_seed, system_seed))
                    .cloned()
            }
            fn store(
                &self,
                ci: usize,
                label: &str,
                run_seed: u64,
                system_seed: u64,
                summary: &RunSummary,
            ) {
                self.map.lock().unwrap().insert(
                    (ci, label.to_string(), run_seed, system_seed),
                    summary.clone(),
                );
            }
        }

        let calls = AtomicUsize::new(0);
        let cache = MapCache::default();
        let mut plan = quick_plan(
            &[MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
            vec![4242, 4243],
            3,
        );
        plan.seeds.system_seed = 42;
        let run = |cell: &PlanCell, system: &FlSystem, seed: u64| {
            calls.fetch_add(1, Ordering::SeqCst);
            run_by_hand(system, cell.mechanism, 3, seed)
        };

        let cold = execute_with(&plan, &RunPolicy::default(), &cache, run);
        assert_eq!(calls.load(Ordering::SeqCst), 4);

        // Warm pass: every replicate is a hit, nothing recomputes, and the
        // folded statistics replay bit-for-bit.
        let warm = execute_with(&plan, &RunPolicy::default(), &cache, run);
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        for (a, b) in cold.cells.iter().zip(&warm.cells) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.seeds, b.seeds);
            for (x, y) in a.per_seed.iter().zip(&b.per_seed) {
                assert_eq!(x.final_accuracy.to_bits(), y.final_accuracy.to_bits());
                assert_eq!(x.total_time.to_bits(), y.total_time.to_bits());
            }
        }

        // Evict one replicate: exactly that one recomputes.
        cache
            .map
            .lock()
            .unwrap()
            .remove(&(1, "Air-FedGA".to_string(), 4243, 42))
            .expect("evicted key was cached");
        execute_with(&plan, &RunPolicy::default(), &cache, run);
        assert_eq!(calls.load(Ordering::SeqCst), 5);
    }
}
