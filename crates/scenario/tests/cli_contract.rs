//! The `airfedga-run` process contract, asserted against the real binary:
//! the documented exit codes (0 clean / 1 unrecovered failures / 2 usage),
//! and the `--store-root` / `--results-dir` relocation flags producing
//! byte-identical outputs to a default-layout run (the equivalence the job
//! server builds on).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const RUN_BIN: &str = env!("CARGO_BIN_EXE_airfedga-run");

/// Small two-seed grid with an active run store.
const GRID_SPEC: &str = r#"
[scenario]
name = "cli_contract_grid"
kind = "grid"
title = "cli contract grid"
csv_prefix = "cli_contract"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;

/// One cell that panics at round 2 with retries disabled: an unrecovered
/// replicate loss by construction.
const PANIC_SPEC: &str = r#"
[scenario]
name = "cli_contract_panic"
kind = "grid"
title = "cli contract injected panic"

[system]
workload = "mnist_lr_quick"

[faults]
inject_panic_round = 2

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [1.0]

[limits]
max_retries = 0
"#;

/// `PANIC_SPEC`'s injected panic and `[limits]` in the two sweep kinds,
/// which run through the same executor: `(kind, extra keys, failure label)`.
const SWEEP_PANIC_SPECS: [(&str, &str, &str); 2] = [
    (
        "xi_sweep",
        "[sweep]\nxi = [1.0]\n",
        "xi=1.0 Air-FedGA seed 4242",
    ),
    (
        "scalability",
        "mechanisms = [\"air-fedga\"]\n\n[sweep]\nnum_workers = [6]\n",
        "N=6 Air-FedGA seed 4242",
    ),
];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scenario_cli_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(RUN_BIN)
        .args(args)
        .current_dir(cwd)
        .env("AIRFEDGA_SCALE", "quick")
        .output()
        .unwrap()
}

#[test]
fn help_documents_the_exit_codes() {
    let dir = tmp_dir("help");
    let out = run_in(&dir, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("exit status: 0 clean run; 1 grid finished with unrecovered replicate failures; 2 usage, read or spec errors"),
        "--help must document the exit contract, got:\n{text}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_read_and_spec_errors_exit_2() {
    let dir = tmp_dir("usage");
    // Unknown flag.
    assert_eq!(run_in(&dir, &["x.toml", "--frsh"]).status.code(), Some(2));
    // Missing operand.
    assert_eq!(run_in(&dir, &[]).status.code(), Some(2));
    // Unreadable file.
    assert_eq!(run_in(&dir, &["no_such_spec.toml"]).status.code(), Some(2));
    // Spec that fails validation.
    fs::write(dir.join("bad.toml"), "[scenario]\nname = \"x\"\n").unwrap();
    let out = run_in(&dir, &["bad.toml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8(out.stderr).unwrap().is_empty());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_run_exits_0_and_unrecovered_failures_exit_1() {
    let dir = tmp_dir("codes");
    fs::write(dir.join("grid.toml"), GRID_SPEC).unwrap();
    fs::write(dir.join("panic.toml"), PANIC_SPEC).unwrap();

    let clean = run_in(&dir, &["grid.toml"]);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let failed = run_in(&dir, &["panic.toml"]);
    assert_eq!(failed.status.code(), Some(1));
    let stderr = String::from_utf8(failed.stderr).unwrap();
    assert!(
        stderr.contains("replicate(s) panicked"),
        "stderr was: {stderr}"
    );

    for (kind, keys, label) in SWEEP_PANIC_SPECS {
        let spec = format!(
            "[scenario]\nname = \"cli_contract_{kind}_panic\"\nkind = \"{kind}\"\n\
             title = \"cli contract injected panic\"\n\n\
             [system]\nworkload = \"mnist_lr_quick\"\n\n\
             [faults]\ninject_panic_round = 2\n\n\
             [limits]\nmax_retries = 0\n\n\
             [run]\naccuracy_targets = [0.5]\nrounds = 4\neval_every = 2\n{keys}"
        );
        fs::write(dir.join("sweep_panic.toml"), spec).unwrap();
        let failed = run_in(&dir, &["sweep_panic.toml"]);
        let stderr = String::from_utf8(failed.stderr).unwrap();
        assert_eq!(failed.status.code(), Some(1), "{kind}: {stderr}");
        assert!(stderr.contains(label), "{kind}: stderr was: {stderr}");
        assert!(stderr.contains("FAILED (no retry)"), "{kind}: {stderr}");
    }
    fs::remove_dir_all(&dir).ok();
}

/// Every file under `root` (relative path → bytes), excluding per-run
/// bookkeeping whose ordering is timing-dependent (`journal`) and transient
/// (`lock`).
fn snapshot(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(dir: &Path, base: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, base, out);
            } else {
                let rel = path
                    .strip_prefix(base)
                    .unwrap()
                    .to_string_lossy()
                    .to_string();
                if rel.ends_with("journal") || rel.ends_with("lock") {
                    continue;
                }
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

/// Sorted journal lines per spec directory (completion order is
/// pool-timing-dependent; the *set* of journaled replicates is not).
fn journals(root: &Path) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let Ok(entries) = fs::read_dir(root) else {
        return out;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let journal = entry.path().join("journal");
        if let Ok(text) = fs::read_to_string(&journal) {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            lines.sort();
            out.insert(entry.file_name().to_string_lossy().to_string(), lines);
        }
    }
    out
}

/// The invariant the job server is built on: relocating the store and the
/// results directory changes *where* bytes land, never *which* bytes.
#[test]
fn store_root_and_results_dir_relocation_is_byte_identical() {
    let default_cwd = tmp_dir("reloc_default");
    let reloc_cwd = tmp_dir("reloc_moved");
    fs::write(default_cwd.join("grid.toml"), GRID_SPEC).unwrap();
    fs::write(reloc_cwd.join("grid.toml"), GRID_SPEC).unwrap();

    let default_run = run_in(&default_cwd, &["grid.toml", "--fresh"]);
    assert_eq!(default_run.status.code(), Some(0));
    let moved = run_in(
        &reloc_cwd,
        &[
            "grid.toml",
            "--fresh",
            "--store-root",
            "moved/store",
            "--results-dir",
            "moved/out",
        ],
    );
    assert_eq!(
        moved.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&moved.stderr)
    );

    // stdout is identical up to the "-> wrote <path>" lines, which name the
    // relocated directory by design.
    let tables = |bytes: &[u8]| -> String {
        String::from_utf8_lossy(bytes)
            .lines()
            .filter(|l| !l.contains("-> wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(tables(&default_run.stdout), tables(&moved.stdout));
    // Default layout wrote to cwd-relative dirs, the relocated run elsewhere.
    assert!(default_cwd.join("runstore").is_dir());
    assert!(default_cwd.join("results").is_dir());
    assert!(!reloc_cwd.join("runstore").exists());
    assert!(!reloc_cwd.join("results").exists());

    // Same result CSVs, byte for byte.
    let default_results = snapshot(&default_cwd.join("results"));
    let moved_results = snapshot(&reloc_cwd.join("moved/out"));
    assert!(!default_results.is_empty());
    assert_eq!(default_results, moved_results);

    // Same store contents (specs, replicate payloads) and journaled sets.
    let default_store = snapshot(&default_cwd.join("runstore"));
    let moved_store = snapshot(&reloc_cwd.join("moved/store"));
    assert!(!default_store.is_empty());
    assert_eq!(default_store, moved_store);
    assert_eq!(
        journals(&default_cwd.join("runstore")),
        journals(&reloc_cwd.join("moved/store"))
    );

    fs::remove_dir_all(&default_cwd).ok();
    fs::remove_dir_all(&reloc_cwd).ok();
}
