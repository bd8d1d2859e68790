//! Scale-axis smoke tests: 1k-node runs must complete through the sweep
//! runner in bounded memory, with the protocol still functioning.

use egm_workload::experiments::scale::{run_presets, ScalePreset};

#[test]
fn one_k_ranked_run_completes_under_run_sweep() {
    let outcomes = run_presets(&[(ScalePreset::N1k, 11)], 4);
    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];

    // The network model is the two-level routed layout: no n×n matrix.
    let shape = outcome.model.memory_shape();
    assert_eq!(shape.dense_cells, 0, "no dense client matrix at 1k");
    assert_eq!(shape.client_entries, 1_000);

    // The protocol worked: messages were disseminated broadly.
    assert_eq!(outcome.report.nodes, 1_000);
    assert!(
        outcome.report.mean_delivery_fraction > 0.9,
        "delivery fraction {}",
        outcome.report.mean_delivery_fraction
    );

    // Lazy-heavy traffic exercised timer cancellation: resolved payloads
    // retire their retry timers instead of letting dead events dispatch.
    assert!(
        outcome.timers_cancelled > 0,
        "scale runs must cancel request timers"
    );
    assert_eq!(
        outcome.scheduler.resolved_timer_pops, 0,
        "no resolved message may pop a request timer"
    );

    // Accounting stayed consistent even with the spill bound configured.
    assert!(outcome.report.total_messages > 0);
    assert_eq!(
        outcome.payloads_per_node.iter().sum::<u64>(),
        outcome.report.total_payloads,
        "per-node payload counters remain exact under spill accounting"
    );

    // The per-node payload table is pre-sized to the node count, so the
    // hot send path never reallocates it — the growth counter is the
    // regression pin.
    assert_eq!(
        outcome.payload_vec_growths, 0,
        "per-node payload table must never regrow on the hot path"
    );
    // Below 100k nothing spools to disk.
    assert_eq!(outcome.traffic_spill_bytes, 0, "1k must not spool traffic");
}

/// Forcing the ≥100k disk-spool path onto the 1k preset must leave every
/// observable output byte-identical — the spool is a memory knob, not a
/// behavioural one — while actually writing spill bytes.
#[test]
fn spooled_one_k_run_matches_in_memory_twin() {
    use egm_workload::runner::run_detailed;

    let plain = ScalePreset::N1k.scenario(4, 11);
    let spooled = plain.clone().with_traffic_spool(true);
    let a = run_detailed(&plain, None);
    let b = run_detailed(&spooled, None);
    assert_eq!(a.report, b.report, "reports diverged under spooling");
    assert_eq!(a.log, b.log, "delivery logs diverged under spooling");
    assert_eq!(a.payload_links, b.payload_links);
    assert_eq!(a.payloads_per_node, b.payloads_per_node);
    assert_eq!(a.traffic_spill_bytes, 0);
    assert!(
        b.traffic_spill_bytes > 0,
        "spooled run must stream compacted tallies to disk"
    );
    assert_eq!(b.payload_vec_growths, 0);
}

/// The acceptance-scale run: a 10k-node Ranked scenario through
/// `run_sweep`. Ignored by default (minutes of wall time); run with
/// `cargo test -p egm_workload --test scale_smoke -- --ignored`.
#[test]
#[ignore = "10k nodes: minutes of wall time; run explicitly"]
fn ten_k_ranked_run_completes_under_run_sweep() {
    let outcomes = run_presets(&[(ScalePreset::N10k, 3)], 4);
    let outcome = &outcomes[0];
    assert_eq!(outcome.report.nodes, 10_000);
    assert_eq!(outcome.model.memory_shape().dense_cells, 0);
    assert!(
        outcome.report.mean_delivery_fraction > 0.9,
        "delivery fraction {}",
        outcome.report.mean_delivery_fraction
    );
    assert_eq!(outcome.scheduler.resolved_timer_pops, 0);
}

/// The 1M preset's set-up end to end — transit–stub model, gossip-sorted
/// ranking, view bootstrap — which is where a super-linear set-up term
/// would show first. Ignored by default (release build on a 2-core VM:
/// ~30 s and ~1 GB peak RSS); run with
/// `cargo test --release -p egm_workload --test scale_smoke -- --ignored`.
#[test]
#[ignore = "1M nodes: ~30 s and ~1 GB in a release build; run explicitly"]
fn one_m_setup_completes() {
    use egm_workload::runner::prepare;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let scenario = ScalePreset::N1M.scenario(1, 42);
    let start = Instant::now();
    let model = Arc::new(scenario.build_model());
    let build = start.elapsed();
    assert_eq!(model.client_count(), 1_000_000);
    // Client placement draws 10⁶ of ~10⁶ stub routers; a quadratic
    // membership test there took ~126 s, the linear one ~1.3 s (2-core
    // VM).
    assert!(
        build < Duration::from_secs(10),
        "building the 1M model took {build:?}"
    );
    let setup = prepare(&scenario, Some(model));
    let best = setup.best().expect("the presets rank hubs");
    assert_eq!(best.best_count(), 200_000);
}
