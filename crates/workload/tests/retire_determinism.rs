//! Retirement A/B regression: horizon-based message retirement must be a
//! memory knob, never a behavioural one.
//!
//! Retirement frees delivered arena slots once the horizon elapses; the
//! contract ([`egm_core::ProtocolConfig::retire_after`]) is that no live
//! protocol event references a slot that old, so every observable output
//! must be byte-identical with retirement on or off. The proptest drives
//! the `N1k` preset across random seeds, comparing a retirement-off
//! reference against retirement-on runs on one shard and on every wider
//! shard width the CI A/B covers (W ∈ {2, 4}).
//!
//! The interval is stretched so the sim outlives the 10 s horizon —
//! otherwise nothing retires before the drain ends and the test would
//! pin nothing (the `retired_messages > 0` assertion guards against
//! that).

use egm_workload::experiments::scale::ScalePreset;
use egm_workload::runner::{run_detailed, RunOutcome};
use proptest::prelude::*;
use std::sync::Arc;

/// The `N1k` preset with traffic spread wide enough (6 messages, 2 s
/// mean gap) that early deliveries cross the 10 s retirement horizon
/// while later messages are still in flight.
fn stretched_scenario(seed: u64) -> egm_workload::Scenario {
    let mut s = ScalePreset::N1k.scenario(6, seed);
    s.mean_interval_ms = 2_000.0;
    s
}

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
    assert_eq!(a.timers_cancelled, b.timers_cancelled, "({label})");
    assert_eq!(a.stale_timer_drops, b.stale_timer_drops, "({label})");
}

/// End-of-run sweep regression: messages published near the end of the
/// run carry retire horizons past the last simulated event, so without
/// the runner's seal-time sweep their slots would stay accounted as
/// live. With the sweep, every stored slot retires — one per delivery,
/// exactly — even when the drain is far shorter than the horizon.
#[test]
fn end_of_run_sweep_retires_every_stored_slot() {
    let mut scenario = stretched_scenario(3);
    // Drain (2 s) ≪ horizon (10 s): the last messages' horizons lie past
    // the end of the run, the exact shape the sweep exists for.
    scenario.drain_ms = 2_000.0;
    let outcome = run_detailed(&scenario, None);
    assert!(
        outcome.report.mean_delivery_fraction > 0.99,
        "{}",
        outcome.report
    );
    assert_eq!(
        outcome.retired_messages,
        outcome.log.total_deliveries(),
        "every stored slot must retire once the run is sealed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn retirement_is_byte_identical_across_engines(seed in 0u64..1_000) {
        let on = stretched_scenario(seed);
        let mut off = on.clone();
        off.protocol.retire_after = None;
        let model = Arc::new(on.build_model());

        // Reference: retirement off, one shard.
        let reference = run_detailed(&off.clone().with_shards(Some(1)), Some(model.clone()));
        prop_assert_eq!(reference.retired_messages, 0);

        // Retirement on, one shard: identical outputs, slots actually
        // freed, and a working set no larger than the unbounded run's.
        let seq = run_detailed(&on.clone().with_shards(Some(1)), Some(model.clone()));
        assert_outcomes_match(&reference, &seq, "seq");
        prop_assert!(seq.retired_messages > 0, "no slot crossed the horizon");
        prop_assert!(seq.arena_high_water <= reference.arena_high_water);

        // Retirement on across the wider widths the CI A/B covers.
        for w in [2usize, 4] {
            let sharded = run_detailed(&on.clone().with_shards(Some(w)), Some(model.clone()));
            assert_outcomes_match(&reference, &sharded, &format!("W={w}"));
            prop_assert!(sharded.retired_messages > 0);
        }
    }
}
