//! One benchmark run of one workload: set-up repetitions, the timed
//! runs, the output checks and, with tracing on, the per-layer run.
//!
//! End-to-end metrics come only from untraced runs. The traced run is a
//! separate run after them, so the sink never touches a timed number.

use crate::check::{self, Row};
use crate::host;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::refs;
use crate::trace::{Phases, Recorder};
use crate::workload::{Plan, Prepared, Size, Workload};
use egm_rng::Rng;
use egm_workload::runner::{self, RunOutcome};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed runs made however short `--seconds` is: enough for a median
/// and for the run-to-run determinism check.
pub const MIN_RUNS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input the workload generates.
    pub seed: u64,
    /// Wall time the timed runs continue for (at least [`MIN_RUNS`]).
    pub seconds: f64,
    /// Whether to make the traced run and report per-layer metrics.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Replaces the pinned reference (the self-test perturbs one).
    pub reference: Option<Vec<Row>>,
}

/// One reported metric; `None` where it does not apply to the workload
/// (the sharding metrics on a sequential engine).
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The catalogue entry.
    pub metric: Metric,
    /// The measured value.
    pub value: Option<f64>,
}

/// The engine a run resolved to, from its own counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Engine {
    /// `ShardStats::shards`.
    pub shards: usize,
    /// `ShardStats::strategy`.
    pub strategy: String,
    /// "calendar" or "heap", from the queue's counters.
    pub queue: &'static str,
}

/// The result of [`run`].
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No run failed.
    pub correct: bool,
    /// Runs made (timed, reference and traced).
    pub attempted: u64,
    /// Runs that panicked or whose outputs differ.
    pub failed: u64,
    /// One line per failed run.
    pub failures: Vec<String>,
    /// End-to-end metrics without tracing; per-layer with it.
    pub metrics: Vec<Value>,
    /// The resolved engine of the first completed run.
    pub engine: Option<Engine>,
    /// Whether outputs were checked against a pinned reference.
    pub pinned: bool,
    /// Wall time of each completed timed run, s.
    pub run_times: Vec<f64>,
    /// Events of one timed run (summed over a sweep).
    pub events: u64,
    /// Set-up repetitions.
    pub setups: usize,
    /// Rows of the first completed run (`--print-reference`).
    pub rows: Option<Vec<Row>>,
}

impl Outcome {
    /// The members of the result line's `metrics` object. A metric that
    /// does not apply reads 0, as does one that could not be measured
    /// (then the run is not `correct`).
    pub fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|v| {
                let value = v.value.filter(|x| x.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    v.metric.name, v.metric.unit
                )
            })
            .collect();
        members.join(", ")
    }
}

/// Counts runs and their failures.
struct Checker {
    reference: Option<Vec<Row>>,
    first: Option<Vec<Row>>,
    attempted: u64,
    failures: Vec<String>,
}

impl Checker {
    /// Records one run: `Err` is a problem found by the caller (a panic,
    /// a report that differs); rows are checked here.
    fn record(&mut self, what: &str, result: Result<Vec<Row>, String>) {
        self.attempted += 1;
        let problem = match result {
            Err(problem) => Some(problem),
            Ok(rows) => {
                let problem = check::sanity(&rows)
                    .or_else(|| {
                        let reference = self.reference.as_deref()?;
                        check::diff(&rows, reference)
                            .map(|d| format!("differs from the pinned reference: {d}"))
                    })
                    .or_else(|| {
                        let first = self.first.as_deref()?;
                        check::diff(&rows, first)
                            .map(|d| format!("differs from the first run: {d}"))
                    });
                self.first.get_or_insert(rows);
                problem
            }
        };
        if let Some(problem) = problem {
            self.failures.push(format!("{what}: {problem}"));
        }
    }
}

/// Runs `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })
}

/// Each scenario's report, rendered for a byte-for-byte comparison.
fn report_bytes(outcomes: &[RunOutcome]) -> Vec<String> {
    outcomes.iter().map(|o| format!("{:?}", o.report)).collect()
}

/// Runs one workload as `opts` asks.
pub fn run(opts: &Options) -> Outcome {
    let plan = Plan::new(opts.workload, opts.size, opts.seed);
    let reference = opts.reference.clone().or_else(|| match opts.size {
        Size::Full => refs::lookup(opts.workload, opts.seed),
        Size::Tiny => None,
    });
    let pinned = reference.is_some();
    let mut checker = Checker {
        reference,
        first: None,
        attempted: 0,
        failures: Vec::new(),
    };

    // Set-up, repeated; each repetition is dropped before the next so
    // only one is ever resident, and the last one serves the runs.
    let mut setup_times = Vec::new();
    let mut prepared = None;
    for _ in 0..opts.workload.setups() {
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(plan.setup());
        setup_times.push(t0.elapsed());
    }
    let prepared = prepared.expect("at least one set-up");

    // Timed runs.
    let started = Instant::now();
    let mut run_times = Vec::new();
    let mut events = 0u64;
    let mut engine = None;
    let mut first_reports = None;
    loop {
        let t0 = Instant::now();
        let result = guarded(|| plan.run(&prepared));
        let elapsed = t0.elapsed();
        if let Ok(outcomes) = &result {
            run_times.push(elapsed);
            events = outcomes.iter().map(|o| o.events).sum();
            engine.get_or_insert_with(|| engine_of(&outcomes[0]));
            first_reports.get_or_insert_with(|| report_bytes(outcomes));
        }
        checker.record("timed run", result.map(|o| check::rows(&o)));
        let attempted = checker.attempted as usize;
        if attempted >= MIN_RUNS && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let run_s = median(&run_times);

    // The sharded workload must reproduce the sequential engine's report
    // byte for byte.
    if opts.workload == Workload::Shard1k {
        let sequential = plan.sequential();
        let result =
            guarded(|| sequential.run(&prepared)).and_then(|outcomes| match &first_reports {
                Some(sharded) if *sharded != report_bytes(&outcomes) => {
                    Err("report differs from the sequential engine's".to_string())
                }
                _ => Ok(check::rows(&outcomes)),
            });
        checker.record("sequential reference run", result);
    }

    let metrics = if opts.trace {
        per_layer(&plan, &prepared, &mut checker, run_s)
    } else {
        let peak = host::peak_rss_mb();
        let values = [
            ("setup_s", Some(median(&setup_times))),
            ("run_s", Some(run_s)),
            ("events_per_s", Some(events as f64 / run_s)),
            ("peak_rss_mb", peak),
        ];
        ordered(&END_TO_END, &values)
    };

    let failed = checker.failures.len() as u64;
    Outcome {
        correct: failed == 0 && run_s > 0.0,
        attempted: checker.attempted,
        failed,
        failures: checker.failures,
        metrics,
        engine,
        pinned,
        run_times: run_times.iter().map(Duration::as_secs_f64).collect(),
        events,
        setups: setup_times.len(),
        rows: checker.first,
    }
}

/// The traced part of a run: each set-up function timed alone, then one
/// observed run split into phases, plus the run's exact counters.
fn per_layer(
    plan: &Plan,
    prepared: &Prepared,
    checker: &mut Checker,
    untraced_run_s: f64,
) -> Vec<Value> {
    let scenario = &plan.scenarios[0];
    let (model, build_s) = timed(|| Arc::new(plan.build_model()));
    let view = &scenario.protocol.view;
    // The runner salts the rank seed privately; any seed costs the same.
    let rank_s = plan
        .scenarios
        .iter()
        .find_map(|s| s.strategy.best_fraction().map(|f| (s, f)))
        .map_or(0.0, |(s, fraction)| {
            timed(|| s.rank_source.best_set(&model, fraction, view, s.seed)).1
        });
    let views_s = timed(|| {
        egm_membership::bootstrap_views(
            scenario.node_count(),
            view,
            &mut Rng::seed_from_u64(scenario.seed),
        )
    })
    .1;
    let prepare_s = timed(|| plan.prepare(model.clone())).1;
    drop(model);

    // One run on the threaded window driver: what a parallel speed-up
    // would move. Reported but not gated, being too unsteady on a small
    // shared host (see `host::pin_process_env`).
    let sharded = plan
        .scenarios
        .iter()
        .any(|s| matches!(s.shards, Some(w) if w > 0));
    let threaded_run_s = sharded.then(|| {
        host::use_threaded_shards(true);
        let (result, secs) = timed(|| guarded(|| plan.run(prepared)));
        host::use_threaded_shards(false);
        checker.record("threaded run", result.map(|o| check::rows(&o)));
        secs
    });

    // The observed runs: one scenario directly, a sweep over the same
    // thread pool `run_sweep` uses, each scenario with its own recorder.
    let observe = |s: &egm_workload::Scenario| {
        let recorder = Arc::new(Recorder::start());
        let outcome =
            runner::run_prepared_observed(s, plan.setup_for(prepared, s), recorder.clone());
        let phases = Phases::split(&recorder.frames(), s.warmup_ms);
        (outcome, phases)
    };
    let t0 = Instant::now();
    let result = guarded(|| {
        if plan.scenarios.len() == 1 {
            vec![observe(scenario)]
        } else {
            plan.scenarios
                .clone()
                .into_par_iter()
                .map(|s| observe(&s))
                .collect()
        }
    });
    let traced_run_s = t0.elapsed().as_secs_f64();
    let traced = match result {
        Ok(traced) => traced,
        Err(problem) => {
            checker.record("traced run", Err(problem));
            return ordered(&PER_LAYER, &[]);
        }
    };
    let (outcomes, phases): (Vec<RunOutcome>, Vec<Phases>) = traced.into_iter().unzip();
    checker.record("traced run", Ok(check::rows(&outcomes)));
    let mut total = Phases::default();
    for p in phases {
        total.add(p);
    }

    let mut values = vec![
        ("topology.build_s", Some(build_s)),
        ("core.rank_s", Some(rank_s)),
        ("membership.views_s", Some(views_s)),
        ("workload.prepare_s", Some(prepare_s)),
        ("workload.startup_s", Some(total.startup_s)),
        ("simnet.warmup_loop_s", Some(total.warmup_loop_s)),
        ("simnet.traffic_loop_s", Some(total.traffic_loop_s)),
        ("workload.teardown_s", Some(total.teardown_s)),
        ("simnet.window_ms_p50", percentile(&total.windows_ms, 0.50)),
        ("simnet.window_ms_p99", percentile(&total.windows_ms, 0.99)),
        ("simnet.threaded_run_s", threaded_run_s),
        ("workload.traced_run_s", Some(traced_run_s)),
        ("workload.untraced_run_s", Some(untraced_run_s)),
        (
            "workload.trace_overhead_ratio",
            Some(traced_run_s / untraced_run_s),
        ),
    ];
    values.extend(counters(&outcomes));
    ordered(&PER_LAYER, &values)
}

/// The exact counters of a run, summed over a sweep's scenarios (maxima
/// for the high-water marks).
fn counters(outcomes: &[RunOutcome]) -> Vec<(&'static str, Option<f64>)> {
    let sum = |f: &dyn Fn(&RunOutcome) -> u64| Some(outcomes.iter().map(f).sum::<u64>() as f64);
    let max =
        |f: &dyn Fn(&RunOutcome) -> u64| Some(outcomes.iter().map(f).max().unwrap_or(0) as f64);
    let deliveries: u64 = outcomes.iter().map(|o| o.log.total_deliveries()).sum();
    let payloads: u64 = outcomes.iter().map(|o| o.report.total_payloads).sum();

    // Sharding counters exist only where a sharded engine ran.
    let sharded: Vec<&RunOutcome> = outcomes
        .iter()
        .filter(|o| !o.shard_stats.per_shard_events.is_empty())
        .collect();
    let shard = |f: &dyn Fn(&RunOutcome) -> f64| -> Option<f64> {
        (!sharded.is_empty()).then(|| sharded.iter().map(|o| f(o)).sum())
    };
    let max_share = sharded
        .iter()
        .map(|o| {
            let per = &o.shard_stats.per_shard_events;
            let total: u64 = per.iter().sum();
            per.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64
        })
        .reduce(f64::max);

    vec![
        ("simnet.events", sum(&|o| o.events)),
        ("simnet.queue_pushes", sum(&|o| o.queue.pushes)),
        ("simnet.queue_max_len", max(&|o| o.queue.max_len as u64)),
        ("simnet.queue_resizes", sum(&|o| o.queue.resizes)),
        ("simnet.queue_year_scans", sum(&|o| o.queue.year_scans)),
        ("simnet.timers_cancelled", sum(&|o| o.timers_cancelled)),
        ("simnet.stale_timer_drops", sum(&|o| o.stale_timer_drops)),
        ("core.eager_sends", sum(&|o| o.scheduler.eager_sends)),
        (
            "core.lazy_advertisements",
            sum(&|o| o.scheduler.lazy_advertisements),
        ),
        ("core.requests_sent", sum(&|o| o.scheduler.requests_sent)),
        ("core.request_misses", sum(&|o| o.scheduler.request_misses)),
        (
            "core.duplicate_payloads",
            sum(&|o| o.scheduler.duplicate_payloads),
        ),
        (
            "core.payloads_per_delivery",
            Some(payloads as f64 / deliveries.max(1) as f64),
        ),
        ("core.arena_high_water", max(&|o| o.arena_high_water as u64)),
        ("core.retired_messages", sum(&|o| o.retired_messages)),
        (
            "simnet.traffic_spill_bytes",
            sum(&|o| o.traffic_spill_bytes),
        ),
        (
            "simnet.traffic_acc_peak",
            max(&|o| o.traffic_acc_peak as u64),
        ),
        ("metrics.used_links", sum(&|o| o.report.used_links as u64)),
        (
            "simnet.shard_windows",
            shard(&|o| o.shard_stats.windows as f64),
        ),
        (
            "simnet.lane_events",
            shard(&|o| o.shard_stats.lane_events as f64),
        ),
        (
            "simnet.lane_flushes",
            shard(&|o| o.shard_stats.lane_flushes as f64),
        ),
        (
            "simnet.exchanges_skipped",
            shard(&|o| o.shard_stats.exchanges_skipped as f64),
        ),
        (
            "simnet.realized_lookahead_us",
            shard(&|o| o.shard_stats.realized_lookahead_us as f64),
        ),
        ("simnet.max_shard_share", max_share),
    ]
}

/// `values` in catalogue order; a catalogue metric without a value is
/// reported as not applicable.
fn ordered(catalogue: &[Metric], values: &[(&'static str, Option<f64>)]) -> Vec<Value> {
    catalogue
        .iter()
        .map(|&metric| Value {
            metric,
            value: values
                .iter()
                .find(|(name, _)| *name == metric.name)
                .and_then(|&(_, v)| v),
        })
        .collect()
}

fn engine_of(o: &RunOutcome) -> Engine {
    Engine {
        shards: o.shard_stats.shards,
        strategy: format!("{:?}", o.shard_stats.strategy),
        queue: if o.queue.bucket_count > 0 {
            "calendar"
        } else {
            "heap"
        },
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median in seconds; 0 for no samples.
fn median(samples: &[Duration]) -> f64 {
    let mut s: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile; `None` for no samples.
fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len().max(1));
    s.get(rank - 1).copied()
}
