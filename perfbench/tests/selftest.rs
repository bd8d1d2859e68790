//! Self-test of the benchmark: every workload at a tiny size.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::bench::{self, Options, Outcome};
use perfbench::host;
use perfbench::metrics::{self, END_TO_END, PER_LAYER};
use perfbench::workload::{Size, Workload};
use std::process::Command;
use std::sync::{Mutex, MutexGuard, Once};

const SHARDING: [&str; 9] = [
    "simnet.window_ms_p50",
    "simnet.window_ms_p99",
    "simnet.threaded_run_s",
    "simnet.shard_windows",
    "simnet.lane_events",
    "simnet.lane_flushes",
    "simnet.exchanges_skipped",
    "simnet.realized_lookahead_us",
    "simnet.max_shard_share",
];

/// Pins the process environment as the binary does, once, and holds the
/// returned guard for the whole test: the benchmark writes the process
/// environment between runs (`host::use_threaded_shards`), so no two
/// tests may run at once.
fn init() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    static ONCE: Once = Once::new();
    let guard = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    ONCE.call_once(|| {
        let spool = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-spool");
        std::fs::create_dir_all(&spool).expect("create spool directory");
        host::pin_process_env(&spool);
    });
    guard
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        reference: None,
    }
}

fn value(outcome: &Outcome, name: &str) -> Option<f64> {
    outcome
        .metrics
        .iter()
        .find(|v| v.metric.name == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .value
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let _serial = init();
    for workload in Workload::ALL {
        let untraced = bench::run(&tiny(workload, false));
        assert!(
            untraced.correct,
            "{}: {:?}",
            workload.name(),
            untraced.failures
        );
        assert!(untraced.run_times.len() >= bench::MIN_RUNS);
        let names: Vec<_> = untraced
            .metrics
            .iter()
            .map(|v| (v.metric.name, v.metric.unit))
            .collect();
        let want: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, want, "{}", workload.name());
        for v in &untraced.metrics {
            let x = v
                .value
                .unwrap_or_else(|| panic!("{} missing", v.metric.name));
            assert!(
                x.is_finite() && x > 0.0,
                "{}: {} = {x}",
                workload.name(),
                v.metric.name
            );
        }
        let json = untraced.metrics_json();
        for m in &END_TO_END {
            assert!(
                json.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{json}"
            );
            assert!(
                json.contains(&format!("\"unit\": \"{}\"", m.unit)),
                "{json}"
            );
        }

        let traced = bench::run(&tiny(workload, true));
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.failures);
        let names: Vec<_> = traced
            .metrics
            .iter()
            .map(|v| (v.metric.name, v.metric.unit))
            .collect();
        let want: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, want, "{}", workload.name());
        for v in &traced.metrics {
            if !SHARDING.contains(&v.metric.name) {
                let x = v
                    .value
                    .unwrap_or_else(|| panic!("{}: {} missing", workload.name(), v.metric.name));
                assert!(
                    x.is_finite() && x >= 0.0,
                    "{}: {} = {x}",
                    workload.name(),
                    v.metric.name
                );
            }
        }
        assert!(value(&traced, "simnet.events").expect("events") > 0.0);
        assert!(value(&traced, "workload.traced_run_s").expect("traced") > 0.0);
    }
}

#[test]
fn a_perturbed_reference_fails_every_run() {
    let _serial = init();
    for workload in Workload::ALL {
        let clean = bench::run(&tiny(workload, false));
        let rows = clean.rows.clone().expect("rows of a completed run");

        let pinned = bench::run(&Options {
            reference: Some(rows.clone()),
            ..tiny(workload, false)
        });
        assert!(
            pinned.correct && pinned.pinned,
            "{}: {:?}",
            workload.name(),
            pinned.failures
        );

        let mut perturbed = rows;
        perturbed[0].events += 1;
        let failing = bench::run(&Options {
            reference: Some(perturbed),
            ..tiny(workload, false)
        });
        assert!(!failing.correct);
        assert_eq!(failing.failed, failing.attempted, "{}", workload.name());
        assert!(
            failing
                .failures
                .iter()
                .all(|f| f.contains("pinned reference")),
            "{:?}",
            failing.failures
        );
    }
}

#[test]
fn sharding_and_spill_counters_appear_only_where_those_layers_run() {
    let _serial = init();
    for workload in Workload::ALL {
        let traced = bench::run(&tiny(workload, true));
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.failures);
        let sharded = workload == Workload::Shard1k;
        for name in SHARDING {
            assert_eq!(
                value(&traced, name).is_some(),
                sharded,
                "{}: {name}",
                workload.name()
            );
        }
        let spilled = value(&traced, "simnet.traffic_spill_bytes").expect("spill bytes");
        assert_eq!(
            spilled > 0.0,
            workload == Workload::Scale100k,
            "{}: {spilled}",
            workload.name()
        );
    }
}

#[test]
fn benchmark_json_is_the_manifest() {
    let _serial = init();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        metrics::manifest(),
        "regenerate with `perfbench --manifest`"
    );
}

/// Runs the benchmark binary on tiny workloads with `var` set, and the
/// guarded variables this test process pinned itself (see `init`)
/// removed.
fn run_binary(workload: &str, var: Option<&str>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--size", "tiny", "--seconds", "0"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"));
    for v in host::GUARDED_VARS {
        cmd.env_remove(v);
    }
    if let Some(var) = var {
        cmd.env(var, "1");
    }
    cmd.output().expect("run the benchmark binary")
}

#[test]
fn refuses_to_start_with_a_library_knob_set() {
    let _serial = init();
    let clean = run_binary("shard1k", None);
    assert!(clean.status.success());
    let stdout = String::from_utf8_lossy(&clean.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for var in host::GUARDED_VARS {
        let out = run_binary("shard1k", Some(var));
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
    }
}

#[test]
fn one_command_runs_every_workload() {
    let _serial = init();
    let out = run_binary("all", None);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for workload in Workload::ALL {
        for m in &END_TO_END {
            let member = format!("\"{}.{}\": {{\"value\": ", workload.name(), m.name);
            assert!(last.contains(&member), "{member} missing from {last}");
        }
    }
}
