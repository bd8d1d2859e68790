//! Arrival-axis regression: open- and closed-loop workloads must be as
//! deterministic as the historical uniform plan — byte-identical across
//! reruns and across every shard width — and must feed the
//! tail-latency histogram and steady-state block consistently.

use egm_core::StrategySpec;
use egm_workload::runner::{run_detailed, RunOutcome};
use egm_workload::{Arrival, ArrivalProcess, Scenario};
use std::sync::Arc;

fn assert_outcomes_match(a: &RunOutcome, b: &RunOutcome, label: &str) {
    assert_eq!(a.report, b.report, "reports diverged ({label})");
    assert_eq!(a.log, b.log, "delivery logs diverged ({label})");
    assert_eq!(
        a.payload_links, b.payload_links,
        "link tables diverged ({label})"
    );
    assert_eq!(
        a.payloads_per_node, b.payloads_per_node,
        "per-node payloads diverged ({label})"
    );
    assert_eq!(
        a.scheduler, b.scheduler,
        "scheduler stats diverged ({label})"
    );
    assert_eq!(a.events, b.events, "event counts diverged ({label})");
    assert_eq!(
        a.latency, b.latency,
        "latency histograms diverged ({label})"
    );
    assert_eq!(a.steady, b.steady, "steady blocks diverged ({label})");
}

fn open_poisson() -> Scenario {
    Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_messages(120)
        .with_arrival(Some(Arrival::Open(ArrivalProcess::Poisson {
            rate_per_sec: 20.0,
        })))
}

fn closed_loop() -> Scenario {
    Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_messages(40)
        .with_arrival(Some(Arrival::Closed { think_ms: 20.0 }))
}

#[test]
fn open_loop_is_byte_identical_across_reruns_and_widths() {
    let scenario = open_poisson();
    let model = Arc::new(scenario.build_model());
    let seq = run_detailed(&scenario.clone().with_shards(Some(1)), Some(model.clone()));
    let again = run_detailed(&scenario.clone().with_shards(Some(1)), Some(model.clone()));
    assert_outcomes_match(&seq, &again, "rerun");
    for w in [2usize, 4] {
        let sharded = run_detailed(&scenario.clone().with_shards(Some(w)), Some(model.clone()));
        assert_outcomes_match(&seq, &sharded, &format!("W={w}"));
    }

    // The stationary process has zero warm-up: the window covers every
    // delivery, and percentiles come out well-ordered.
    assert!(seq.report.mean_delivery_fraction > 0.99, "{}", seq.report);
    assert_eq!(seq.latency.total(), seq.log.total_deliveries());
    assert_eq!(seq.steady.published, 120);
    assert!(seq.latency.p50_ms() <= seq.latency.p99_ms());
    assert!(seq.latency.p99_ms() <= seq.latency.p999_ms());
    assert!(seq.steady.publishes_per_sec > 0.0);
    assert!(seq.steady.deliveries_per_sec > seq.steady.publishes_per_sec);
}

#[test]
fn closed_loop_completes_and_is_byte_identical_across_widths() {
    let scenario = closed_loop();
    let model = Arc::new(scenario.build_model());
    let seq = run_detailed(&scenario.clone().with_shards(Some(1)), Some(model.clone()));
    let again = run_detailed(&scenario.clone().with_shards(Some(1)), Some(model.clone()));
    assert_outcomes_match(&seq, &again, "rerun");
    for w in [2usize, 4] {
        let sharded = run_detailed(&scenario.clone().with_shards(Some(w)), Some(model.clone()));
        assert_outcomes_match(&seq, &sharded, &format!("W={w}"));
    }

    // Every publish was gated on the previous delivery, so the full
    // message count still went out and arrived everywhere.
    assert!(seq.report.mean_delivery_fraction > 0.99, "{}", seq.report);
    assert_eq!(seq.steady.published, 40);
    assert_eq!(seq.latency.total(), seq.log.total_deliveries());
}

#[test]
fn diurnal_warmup_excludes_the_ramp_from_the_window() {
    let scenario = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_messages(100)
        .with_arrival(Some(Arrival::Open(ArrivalProcess::Diurnal {
            low_rate: 5.0,
            high_rate: 50.0,
            ramp_ms: 2_000.0,
        })));
    let outcome = run_detailed(&scenario, None);
    // The window opens after the 2 s ramp: ramp-time publishes exist but
    // are excluded from the steady block and the histogram.
    assert!(
        outcome.steady.published > 0 && outcome.steady.published < 100,
        "window must split the schedule: {} in window",
        outcome.steady.published
    );
    assert!(outcome.latency.total() < outcome.log.total_deliveries());
    assert_eq!(outcome.steady.window_start_ms, scenario.warmup_ms + 2_000.0);
}

#[test]
#[should_panic(expected = "fault-free")]
fn closed_loop_rejects_fault_plans() {
    use egm_workload::{FaultPlan, FaultSelection};
    let scenario = closed_loop().with_faults(Some(FaultPlan::new(0.25, FaultSelection::Random)));
    let _ = run_detailed(&scenario, None);
}
