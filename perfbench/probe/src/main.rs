//! `perfbench-probe` — the benchmark's in-process probe.
//!
//! It times public calls of the workspace crates that the engine's own
//! telemetry does not trace, and drives `airfedga-serve` as a closed-loop
//! client. Every timed call is recorded as a span (`name`, `start_us`,
//! `end_us`, `parent`, `request`) in a JSON-lines file; `perfbench/run.py`
//! derives the per-layer metrics from those spans. Each subcommand also
//! prints one JSON summary line on stdout.
//!
//! ```text
//! perfbench-probe setup      <spec.toml> <reps> <spans.jsonl>
//! perfbench-probe wireless   <spec.toml> <reps> <spans.jsonl>
//! perfbench-probe runstore   <store-root> <scratch-root> <reps> <spans.jsonl>
//! perfbench-probe serve-loop <addr> <warm-repeats> <spans.jsonl> <spec.toml>...
//! ```
//!
//! * `setup` — per repeat: `ScenarioSpec::parse`, `FlSystemConfig::build`
//!   for every distinct system of the spec, and the grouping its mechanisms
//!   compute (Algorithm 3 for Air-FedGA, tiers for TiFL). Algorithm 3 is
//!   also timed, outside the `setup` span, on specs that never run it.
//! * `wireless` — `optimize_power` (Algorithm 2), `air_aggregate_indexed_into`
//!   and `apply_group_update_in_place` on the spec's largest system, its
//!   real group sizes and model dimension.
//! * `runstore` — `decode_trace`/`encode_trace`/`store_trace`/`load_trace`
//!   over every replicate file under `<store-root>`, stored into a scratch
//!   store that is removed afterwards. Round trips must be byte-exact.
//! * `serve-loop` — for each spec: submit it (a cold job), poll
//!   `GET /jobs/<id>` until it is terminal (backing off from 0.25 ms to
//!   the larger of 2 ms and 5% of the wait so far), then resubmit it
//!   `warm-repeats` times (warm jobs). One request in flight at a time.

#![forbid(unsafe_code)]

use airfedga::{AirFedGa, AirFedGaConfig, FlSystem, FlSystemConfig};
use experiments::{FigureParams, MechanismChoice, Scale};
use fedml::{FlatParams, Rng64};
use grouping::tifl::default_tier_count;
use grouping::{tifl_grouping, Grouping};
use jobserver::{client, JobState};
use runstore::{decode_trace, encode_trace, RunStore};
use scenario::ScenarioSpec;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};
use wireless::aircomp::{
    air_aggregate_indexed_into, apply_group_update_in_place, AirAggregationInput,
    AirAggregationScratch,
};
use wireless::{optimize_power, PowerControlConfig};

/// One recorded span.
struct Rec {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
}

/// Nested span recorder: spans close in LIFO order, so the open stack gives
/// each new span its parent.
struct Tracer {
    t0: Instant,
    spans: Vec<Rec>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            // detlint: allow(DET-CLOCK) — the probe measures wall time; it never feeds a simulation
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Microseconds since the tracer started, with sub-µs digits.
    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_nanos() as f64 / 1e3
    }

    /// Run `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Rec {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    /// Re-key the innermost open span (a job's id is known only after submit).
    fn set_request(&mut self, request: u64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].request = request;
        }
    }

    fn write(&self, path: &Path) {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_us, s.end_us, s.request
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench-probe: {msg}");
    exit(1)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

fn parse_num(s: &str) -> usize {
    s.parse()
        .unwrap_or_else(|_| die(&format!("expected a number, got {s:?}")))
}

fn parse_spec(text: &str) -> ScenarioSpec {
    ScenarioSpec::parse(text).unwrap_or_else(|e| die(&format!("spec: {e}")))
}

/// The effective configuration of every distinct system the spec builds at
/// the `AIRFEDGA_SCALE` scale, in sweep order (one for a spec without a worker sweep).
fn system_configs(spec: &ScenarioSpec) -> Vec<FlSystemConfig> {
    let params = FigureParams {
        scale: Scale::from_env(),
        num_workers: spec.num_workers,
        ..FigureParams::default()
    };
    let base = params.apply(spec.base_config.clone());
    match &spec.sweep_num_workers {
        None => vec![base],
        Some(ns) => ns
            .iter()
            .map(|&n| {
                let mut cfg = base.clone();
                cfg.num_workers = n;
                cfg
            })
            .collect(),
    }
}

fn uses(spec: &ScenarioSpec, m: MechanismChoice) -> bool {
    spec.mechanisms.contains(&m)
}

fn alg3(system: &FlSystem) -> Grouping {
    AirFedGa::new(AirFedGaConfig::default()).grouping_for(system)
}

fn tiers(system: &FlSystem) -> Grouping {
    tifl_grouping(
        &system.worker_infos,
        default_tier_count(system.num_workers()),
    )
}

fn largest(systems: Vec<FlSystem>) -> FlSystem {
    systems
        .into_iter()
        .max_by_key(|s| s.num_workers())
        .unwrap_or_else(|| die("spec builds no system"))
}

fn setup(args: &[String]) {
    let [spec_path, reps, spans] = args else {
        die("usage: setup <spec.toml> <reps> <spans.jsonl>")
    };
    let text = read(spec_path);
    let reps = parse_num(reps);
    let mut tr = Tracer::new();
    let mut last: Vec<FlSystem> = Vec::new();
    let mut uses_alg3 = false;
    for rep in 0..reps as u64 {
        last = tr.span("setup", rep, |tr| {
            let spec = tr.span("scenario.parse", rep, |_| parse_spec(&text));
            uses_alg3 = uses(&spec, MechanismChoice::AirFedGa);
            let systems: Vec<FlSystem> = system_configs(&spec)
                .iter()
                .map(|cfg| {
                    tr.span("system.build", rep, |_| {
                        cfg.build(&mut Rng64::seed_from(spec.system_seed))
                    })
                })
                .collect();
            for system in &systems {
                if uses_alg3 {
                    tr.span("grouping.alg3", rep, |_| alg3(system));
                }
                if uses(&spec, MechanismChoice::TiFl) {
                    tr.span("grouping.tifl", rep, |_| tiers(system));
                }
            }
            systems
        });
    }
    let system = largest(last);
    // Algorithm 3 is the grouping layer's reference cost even where the
    // spec's mechanisms skip it; time it outside the set-up span then.
    let mut groups = 0;
    for rep in 0..reps as u64 {
        groups = if uses_alg3 {
            alg3(&system).num_groups()
        } else {
            tr.span("grouping.alg3", rep, |_| alg3(&system))
                .num_groups()
        };
    }
    tr.write(Path::new(spans));
    println!(
        "{{\"alg3_groups\": {groups}, \"model_dim\": {}, \"num_workers\": {}}}",
        system.model_dim(),
        system.num_workers()
    );
}

fn wireless_sampler(args: &[String]) {
    let [spec_path, reps, spans] = args else {
        die("usage: wireless <spec.toml> <reps> <spans.jsonl>")
    };
    let spec = parse_spec(&read(spec_path));
    let reps = parse_num(reps);
    let systems: Vec<FlSystem> = system_configs(&spec)
        .iter()
        .map(|cfg| cfg.build(&mut Rng64::seed_from(spec.system_seed)))
        .collect();
    let system = largest(systems);
    // The group shapes the workload's mechanisms aggregate over.
    let grouping = if uses(&spec, MechanismChoice::AirFedGa) {
        alg3(&system)
    } else if uses(&spec, MechanismChoice::TiFl) {
        tiers(&system)
    } else {
        Grouping::new(
            vec![(0..system.num_workers()).collect()],
            system.num_workers(),
        )
    };
    let q = system.model_dim();
    let local = system.template.params();
    let norm_bound = local.norm().max(1e-9);
    let radio = &system.config.wireless;
    let total_data = system.total_data() as f64;
    let mut rng = Rng64::seed_from(spec.run_seed);
    let mut pc = PowerControlConfig::for_group(norm_bound, &[1.0], &[1.0]);
    let mut estimate = FlatParams::zeros(q);
    let mut scratch = AirAggregationScratch::new();
    let mut global = local.clone();
    let mut tr = Tracer::new();
    let mut calls = 0usize;
    let mut bytes = 0usize;
    for _ in 0..reps {
        for (gi, members) in grouping.groups().iter().enumerate() {
            let gi = gi as u64;
            let sizes: Vec<f64> = members
                .iter()
                .map(|&w| system.shards[w].len() as f64)
                .collect();
            let gains: Vec<f64> = members
                .iter()
                .map(|&w| system.channel.draw_worker(w, &mut rng))
                .collect();
            let sol = tr.span("wireless.optimize_power", gi, |_| {
                pc.set_group(norm_bound, &sizes, &gains, radio.energy_budget);
                pc.noise_variance = radio.noise_variance;
                optimize_power(&pc)
            });
            let stats = tr.span("wireless.air_aggregate", gi, |_| {
                air_aggregate_indexed_into(
                    members.len(),
                    |k| AirAggregationInput {
                        data_size: sizes[k],
                        channel_gain: gains[k],
                        params: &local,
                    },
                    sol.sigma,
                    sol.eta,
                    radio.noise_variance,
                    &mut rng,
                    &mut estimate,
                    &mut scratch,
                )
            });
            tr.span("wireless.group_update", gi, |_| {
                apply_group_update_in_place(
                    &mut global,
                    &estimate,
                    stats.group_data_size,
                    total_data,
                )
            });
            // Bytes the AirComp call moves over q-length f64 vectors: per
            // member two axpy (params read + accumulator read/write, twice)
            // and one energy pass over params (7 vectors), plus the two
            // zero fills, the noise add, the rescale and the error norm
            // (8 vectors).
            calls += 1;
            bytes += 8 * q * (7 * members.len() + 8);
        }
    }
    tr.write(Path::new(spans));
    println!(
        "{{\"groups\": {}, \"model_dim\": {q}, \"calls\": {calls}, \"aircomp_bytes\": {bytes}, \"checksum\": {:e}}}",
        grouping.num_groups(),
        global.norm()
    );
}

/// Every `*.run` replicate file one level below `root`, sorted.
fn replicate_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let slots =
        std::fs::read_dir(root).unwrap_or_else(|e| die(&format!("{}: {e}", root.display())));
    for slot in slots.filter_map(Result::ok) {
        let Ok(files) = std::fs::read_dir(slot.path()) else {
            continue;
        };
        out.extend(
            files
                .filter_map(Result::ok)
                .map(|f| f.path())
                .filter(|p| p.extension().is_some_and(|x| x == "run")),
        );
    }
    out.sort();
    out
}

fn runstore_sampler(args: &[String]) {
    let [store_root, scratch_root, reps, spans] = args else {
        die("usage: runstore <store-root> <scratch-root> <reps> <spans.jsonl>")
    };
    let files = replicate_files(Path::new(store_root));
    if files.is_empty() {
        die(&format!("no replicate files under {store_root}"));
    }
    let texts: Vec<String> = files.iter().map(|p| read(&p.to_string_lossy())).collect();
    let scratch = Path::new(scratch_root);
    let store = RunStore::open(scratch, "perfbench runstore sampler")
        .unwrap_or_else(|e| die(&format!("{scratch_root}: {e}")));
    let mut tr = Tracer::new();
    let mut mismatches = 0usize;
    for _ in 0..parse_num(reps) {
        for (i, text) in texts.iter().enumerate() {
            let key = i as u64;
            let trace = tr
                .span("runstore.decode", key, |_| decode_trace(text))
                .unwrap_or_else(|| die(&format!("{}: does not decode", files[i].display())));
            let encoded = tr.span("runstore.encode", key, |_| encode_trace(&trace));
            tr.span("runstore.store", key, |_| {
                store.store_trace(i, "perfbench", key, key, &trace)
            })
            .unwrap_or_else(|e| die(&format!("store_trace: {e}")));
            let loaded = tr
                .span("runstore.load", key, |_| {
                    store.load_trace(i, "perfbench", key, key)
                })
                .unwrap_or_else(|| die("load_trace missed a replicate it just stored"));
            if encoded != *text || encode_trace(&loaded) != *text {
                mismatches += 1;
            }
        }
    }
    std::fs::remove_dir_all(scratch).unwrap_or_else(|e| die(&format!("{scratch_root}: {e}")));
    tr.write(Path::new(spans));
    let bytes: usize = texts.iter().map(String::len).sum();
    println!(
        "{{\"replicates\": {}, \"bytes\": {bytes}, \"mismatches\": {mismatches}}}",
        texts.len()
    );
}

/// Submit one spec and poll it to a terminal state; returns the job's
/// summary as a JSON object.
fn run_job(tr: &mut Tracer, addr: &str, spec_index: usize, warm: bool, text: &str) -> String {
    tr.span("job", 0, |tr| {
        let submit_start = tr.now_us();
        let name = format!("perfbench-{spec_index}");
        let id = tr
            .span("client.submit", 0, |_| client::submit(addr, &name, 0, text))
            .unwrap_or_else(|e| die(&format!("submit: {e}")));
        tr.set_request(id);
        let submitted = tr.now_us();
        let deadline = submitted + 150e6;
        let mut first_active: Option<f64> = None;
        let mut saw_running = false;
        let mut pause = Duration::from_micros(250);
        loop {
            let doc = tr
                .span("client.status", id, |_| client::status(addr, id))
                .unwrap_or_else(|e| die(&format!("status {id}: {e}")));
            let now = tr.now_us();
            let state = client::state_of(&doc).unwrap_or_else(|| die("status without a state"));
            if state != JobState::Queued && first_active.is_none() {
                first_active = Some(now);
            }
            saw_running |= state == JobState::Running;
            if state.is_terminal() || now > deadline {
                let cache = doc.get("cache");
                let count = |k: &str| {
                    cache
                        .and_then(|c| c.get(k))
                        .and_then(|v| v.as_u64())
                        .unwrap_or(0)
                };
                let state = if state.is_terminal() { state.as_str() } else { "timeout" };
                return format!(
                    "{{\"spec\": {spec_index}, \"warm\": {warm}, \"id\": {id}, \"state\": \"{state}\", \
                     \"hits\": {}, \"misses\": {}, \"submit_start_us\": {submit_start:.3}, \
                     \"submit_end_us\": {submitted:.3}, \"first_active_us\": {:.3}, \
                     \"saw_running\": {saw_running}, \"done_us\": {now:.3}}}",
                    count("hits"),
                    count("misses"),
                    first_active.unwrap_or(now),
                );
            }
            // Back off from 0.25 ms, doubling up to the larger of 2 ms and
            // 5% of the time waited so far: ~1 ms resolution for warm jobs,
            // ~5% for long ones, and no poll storm competing with the job.
            std::thread::sleep(pause);
            let cap = Duration::from_micros(((now - submitted) / 20.0) as u64);
            pause = (pause * 2).min(cap.max(Duration::from_millis(2)));
        }
    })
}

fn serve_loop(args: &[String]) {
    let [addr, warm, spans, specs @ ..] = args else {
        die("usage: serve-loop <addr> <warm-repeats> <spans.jsonl> <spec.toml>...")
    };
    let warm = parse_num(warm);
    let texts: Vec<String> = specs.iter().map(|p| read(p)).collect();
    let mut tr = Tracer::new();
    let (jobs, loop_us) = tr.span("client.loop", 0, |tr| {
        let start = tr.now_us();
        tr.span("client.healthz", 0, |_| client::healthz(addr))
            .unwrap_or_else(|e| die(&format!("healthz: {e}")));
        let mut jobs = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            for k in 0..=warm {
                jobs.push(run_job(tr, addr, i, k > 0, text));
            }
        }
        tr.span("client.healthz", 0, |_| client::healthz(addr))
            .unwrap_or_else(|e| die(&format!("healthz: {e}")));
        (jobs, tr.now_us() - start)
    });
    tr.write(Path::new(spans));
    println!(
        "{{\"loop_us\": {loop_us:.3}, \"jobs\": [{}]}}",
        jobs.join(", ")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        die("usage: perfbench-probe <setup|wireless|runstore|serve-loop> ...")
    };
    match cmd.as_str() {
        "setup" => setup(rest),
        "wireless" => wireless_sampler(rest),
        "runstore" => runstore_sampler(rest),
        "serve-loop" => serve_loop(rest),
        other => die(&format!("unknown subcommand {other:?}")),
    }
}
